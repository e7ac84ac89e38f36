"""Discrete variables, potentials, and the factor algebra built on them.

A graphical model is a collection of non-negative tables ("potentials") over
subsets of discrete variables; their product, once normalized, defines the
joint distribution. Variables are dense integer ids ``0..n-1``. A potential's
table is stored as a numpy array with one axis per scope variable, so a
C-order flatten yields the row-major layout in which the last scope variable
varies fastest (the same layout the UAI file format uses).

Validation happens where tables come in from outside: ``Potential(...)``
checks every table a caller passes in (finite, non-negative, one axis per
scope variable), and ``GraphicalModel`` checks scopes against its
cardinalities. Results of the factor operations are built from tables that
were already checked, so they are trusted: wrapped without a copy or a
second check, but still read-only.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

VariableId = int
Evidence = Mapping[int, int]

MASS_SUM_TOL = 1e-9


class ModelInconsistencyError(ValueError):
    """A potential references a variable or shape its model does not have."""


class ZeroProbabilityEvidenceError(ValueError):
    """Conditioning on evidence whose probability is zero."""


class NetworkKind(Enum):
    MARKOV = "MARKOV"
    BAYES = "BAYES"


@dataclass(frozen=True, eq=False)
class Potential:
    """A non-negative finite table over an ordered scope of distinct variables.

    ``values`` has one axis per scope variable, in scope order. Construction
    copies the array and freezes it, so instances are immutable and safe to
    share.
    """

    scope: tuple[VariableId, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        scope = tuple(int(v) for v in self.scope)
        if any(v < 0 for v in scope):
            raise ValueError(f"negative variable id in scope {scope}")
        if len(set(scope)) != len(scope):
            raise ValueError(f"duplicate variable in scope {scope}")
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != len(scope):
            raise ValueError(
                f"table has {values.ndim} axes but scope has {len(scope)} variables"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("potential entries must be finite")
        if values.size and np.any(values < 0.0):
            raise ValueError("potential entries must be non-negative")
        values.setflags(write=False)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_flat(
        cls,
        scope: Iterable[int],
        flat: Sequence[float],
        cards: Sequence[int],
    ) -> "Potential":
        """Build a potential from a flat table (last scope variable fastest)."""
        scope = tuple(int(v) for v in scope)
        shape = tuple(int(cards[v]) for v in scope)
        flat = np.asarray(flat, dtype=np.float64)
        expected = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if flat.ndim != 1 or flat.size != expected:
            raise ValueError(
                f"flat table has {flat.size} entries, scope {scope} needs {expected}"
            )
        return cls(scope, flat.reshape(shape))

    @classmethod
    def _result(cls, scope: tuple[VariableId, ...], values: np.ndarray) -> "Potential":
        """Wrap a factor-op result over checked inputs: no copy, no checks, read-only."""
        values = np.asarray(values)
        values.setflags(write=False)
        p = object.__new__(cls)
        object.__setattr__(p, "scope", scope)
        object.__setattr__(p, "values", values)
        return p

    @property
    def flat(self) -> np.ndarray:
        """The table flattened in C order (last scope variable fastest)."""
        return self.values.reshape(-1)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return self.values.shape

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Potential):
            return NotImplemented
        return self.scope == other.scope and np.array_equal(self.values, other.values)


@dataclass(frozen=True, eq=False)
class MassFunction:
    """A normalized distribution over the states of one variable."""

    variable: VariableId
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty vector")
        if not np.all((probs >= 0.0) & (probs <= 1.0)):  # NaN fails both
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(float(probs.sum()) - 1.0) > MASS_SUM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "variable", int(self.variable))
        object.__setattr__(self, "probs", probs)

    @property
    def cardinality(self) -> int:
        return self.probs.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self.variable == other.variable and np.array_equal(self.probs, other.probs)


@dataclass(frozen=True, eq=False)
class GraphicalModel:
    """Variable cardinalities plus potentials whose scopes cover every variable."""

    cardinalities: tuple[int, ...]
    potentials: tuple[Potential, ...]
    network_kind: NetworkKind = NetworkKind.MARKOV

    def __post_init__(self) -> None:
        cards = tuple(int(c) for c in self.cardinalities)
        if not cards:
            raise ValueError("a model needs at least one variable")
        if any(c < 1 for c in cards):
            raise ValueError("cardinalities must be >= 1")
        potentials = tuple(self.potentials)
        covered: set[int] = set()
        for p in potentials:
            _check_scope(p, cards)
            covered.update(p.scope)
        if covered != set(range(len(cards))):
            missing = sorted(set(range(len(cards))) - covered)
            raise ModelInconsistencyError(
                f"potential scopes do not cover variables {missing}"
            )
        object.__setattr__(self, "cardinalities", cards)
        object.__setattr__(self, "potentials", potentials)

    @property
    def n_vars(self) -> int:
        return len(self.cardinalities)

    @property
    def max_cardinality(self) -> int:
        return max(self.cardinalities)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphicalModel):
            return NotImplemented
        return (
            self.cardinalities == other.cardinalities
            and self.network_kind == other.network_kind
            and len(self.potentials) == len(other.potentials)
            and all(a == b for a, b in zip(self.potentials, other.potentials))
        )


def _check_scope(p: Potential, cards: Sequence[int]) -> None:
    for v, size in zip(p.scope, p.values.shape):
        if v >= len(cards):
            raise ModelInconsistencyError(
                f"scope variable {v} out of range for a {len(cards)}-variable model"
            )
        if size != cards[v]:
            raise ModelInconsistencyError(
                f"axis for variable {v} has size {size}, cardinality is {cards[v]}"
            )


def validate_evidence(model: GraphicalModel, evidence: Evidence) -> None:
    """Check that every observed variable and state exists in the model."""
    for v, s in evidence.items():
        v, s = int(v), int(s)
        if not 0 <= v < model.n_vars:
            raise ValueError(f"evidence variable {v} out of range")
        if not 0 <= s < model.cardinalities[v]:
            raise ValueError(
                f"state {s} out of range for variable {v} "
                f"(cardinality {model.cardinalities[v]})"
            )


def _check_explain(
    model: GraphicalModel, evidence: Evidence, explain: Iterable[int]
) -> tuple[VariableId, ...]:
    """Validate the evidence and an explain set; return the distinct explain ids, sorted.

    Explain ids must be model variables and must not be observed in the evidence.
    """
    validate_evidence(model, evidence)
    explain = tuple(sorted({int(v) for v in explain}))
    outside = [v for v in explain if not 0 <= v < model.n_vars]
    if outside:
        raise ValueError(
            f"explain variables {outside} out of range for a {model.n_vars}-variable model"
        )
    overlap = [v for v in explain if v in evidence]
    if overlap:
        raise ValueError(
            f"explain set and evidence overlap on observed variables {overlap}; "
            "they must be disjoint"
        )
    return explain


def _aligned(p: Potential, scope: tuple[int, ...]) -> np.ndarray:
    """View of p.values broadcastable over the axes of ``scope``."""
    pos = {v: i for i, v in enumerate(p.scope)}
    arr = p.values.transpose([pos[v] for v in scope if v in pos])
    axes = iter(arr.shape)
    return arr.reshape(tuple(next(axes) if v in pos else 1 for v in scope))


def factor_product(a: Potential, b: Potential, cards: Sequence[int]) -> Potential:
    """Multiply two potentials over the ordered union of their scopes.

    The result scope is a's scope followed by b's variables not already in a.
    """
    _check_scope(a, cards)
    _check_scope(b, cards)
    a_vars = set(a.scope)
    scope = a.scope + tuple(v for v in b.scope if v not in a_vars)
    return Potential._result(scope, _aligned(a, scope) * _aligned(b, scope))


def factor_marginalize(
    p: Potential, out: Iterable[int], cards: Sequence[int]
) -> Potential:
    """Sum the given variables out of a potential.

    Marginalizing the full scope leaves a scalar (empty-scope) potential.
    """
    _check_scope(p, cards)
    out = {int(v) for v in out}
    if not out <= set(p.scope):
        raise ValueError(
            f"cannot marginalize {sorted(out - set(p.scope))}: not in scope {p.scope}"
        )
    axes = tuple(i for i, v in enumerate(p.scope) if v in out)
    scope = tuple(v for v in p.scope if v not in out)
    return Potential._result(scope, p.values.sum(axis=axes))


def factor_restrict(p: Potential, evidence: Evidence, cards: Sequence[int]) -> Potential:
    """Select the slice of a potential consistent with the evidence.

    Evidence on variables outside the scope is ignored, states included;
    evidenced scope variables are dropped from the result.
    """
    _check_scope(p, cards)
    index = tuple(int(evidence[v]) if v in evidence else slice(None) for v in p.scope)
    for v, s, size in zip(p.scope, index, p.values.shape):
        if v in evidence and not 0 <= s < size:
            raise ValueError(f"evidence state {s} out of range for variable {v}")
    scope = tuple(v for v in p.scope if v not in evidence)
    return Potential._result(scope, p.values[index])


def normalize(p: Potential) -> MassFunction:
    """Normalize a single-variable potential into a mass function."""
    if len(p.scope) != 1:
        raise ValueError(f"normalize expects a single-variable potential, got scope {p.scope}")
    total = float(p.values.sum())
    if total <= 0.0:
        raise ZeroProbabilityEvidenceError(
            f"mass over variable {p.scope[0]} is zero: the conditioning event has probability 0"
        )
    return MassFunction(p.scope[0], np.clip(p.values / total, 0.0, 1.0))

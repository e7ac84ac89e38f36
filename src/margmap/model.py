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
from numbers import Integral

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Potential):
            return NotImplemented
        return self.scope == other.scope and np.array_equal(self.values, other.values)


@dataclass(frozen=True, eq=False, slots=True)
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


def _is_integer(x: object) -> bool:
    """Whether ``x`` may serve as a variable id or state: numpy integers do, ``bool`` does not."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def _variable_ids(ids: Iterable[int], what: str) -> list[VariableId]:
    """``ids`` as Python ints, in the given order; a non-integer one raises ``ValueError``."""
    out = []
    for v in ids:
        if not _is_integer(v):
            raise ValueError(f"{what} {v!r} must be an integer variable id")
        out.append(int(v))
    return out


def _check_integer(value: object, name: str, least: int) -> None:
    """``value`` must be an integer, not a ``bool``, and at least ``least``; else ``ValueError``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def validate_evidence(model: GraphicalModel, evidence: Evidence) -> dict[VariableId, int]:
    """Check that every observed variable and state is an integer that exists in the model.

    Returns the evidence as a new ``{int: int}`` dict, numpy integers made
    Python ints, for the queries to pass on.
    """
    if not isinstance(evidence, Mapping):
        raise ValueError(
            f"evidence must map integer variables to integer states, got {evidence!r}"
        )
    for v, s in evidence.items():
        if not (_is_integer(v) and _is_integer(s)):
            raise ValueError(
                f"evidence entry {v!r}: {s!r} must map an integer variable to an integer state"
            )
        if not 0 <= v < model.n_vars:
            raise ValueError(f"evidence variable {v} out of range")
        if not 0 <= s < model.cardinalities[v]:
            raise ValueError(
                f"state {s} out of range for variable {v} "
                f"(cardinality {model.cardinalities[v]})"
            )
    return {int(v): int(s) for v, s in evidence.items()}


def _check_explain(
    model: GraphicalModel, evidence: Evidence, explain: Iterable[int]
) -> tuple[dict[VariableId, int], tuple[VariableId, ...]]:
    """Validate the evidence and an explain set.

    Returns the evidence as :func:`validate_evidence` does and the distinct
    explain ids, sorted. Explain ids must be model variables and must not be
    observed in the evidence.
    """
    evidence = validate_evidence(model, evidence)
    explain = tuple(sorted(set(_variable_ids(explain, "explain variable"))))
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
    return evidence, explain


def factor_product(a: Potential, b: Potential, cards: Sequence[int]) -> Potential:
    """Multiply two potentials over the ordered union of their scopes.

    The result scope is a's scope followed by b's variables not already in a.
    """
    _check_scope(a, cards)
    _check_scope(b, cards)
    return Potential._result(*_chain(a.scope, a.values, (b,)))


def _chain(
    scope: tuple[VariableId, ...], values: np.ndarray, factors: Iterable[Potential]
) -> tuple[tuple[VariableId, ...], np.ndarray]:
    """Multiply a table over ``scope`` by each of ``factors``, left to right.

    Returns the product's scope and values. The scope is ``scope`` followed by
    each factor's variables not seen before, in order, so the running
    product's scope is always a prefix of the next one and it only gains
    trailing unit axes; each factor is transposed and reshaped once to
    broadcast against it. No intermediate is wrapped in a :class:`Potential`,
    and each step multiplies the same two arrays a pairwise
    :func:`factor_product` of the running product and the factor would, so
    the values and their memory layout are those of the pairwise chain. The
    factors are trusted: built from checked potentials.
    """
    for f in factors:
        f_scope = f.scope
        if f_scope == scope or not f_scope:
            values = values * f.values
            continue
        new = [u for u in f_scope if u not in scope]
        if new:
            values = values.reshape(values.shape + (1,) * len(new))
            scope += tuple(new)
        f_values = f.values.transpose([f_scope.index(u) for u in scope if u in f_scope])
        if len(f_scope) < len(scope):
            axes = iter(f_values.shape)
            f_values = f_values.reshape([next(axes) if u in f_scope else 1 for u in scope])
        values = values * f_values
    return scope, values


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
    return MassFunction(p.scope[0], _normalized(p))


def _normalized(p: Potential) -> np.ndarray:
    """:func:`normalize`'s probabilities, without the scope check or the :class:`MassFunction`."""
    total = float(p.values.sum())
    if total <= 0.0:
        raise ZeroProbabilityEvidenceError(
            f"mass over variable {p.scope[0]} is zero: the conditioning event has probability 0"
        )
    return np.clip(p.values / total, 0.0, 1.0)

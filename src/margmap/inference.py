"""Exact inference by variable elimination, plus brute-force ground-truth oracles.

``pr`` and ``mar`` answer evidence-probability and single-variable marginal
queries by sum-product elimination under a min-fill ordering (or any caller
supplied ordering). ``brute_force_joint`` and ``brute_force_mmap`` enumerate
the answers they are tested against and double as desk-scale exact solvers.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    Evidence,
    GraphicalModel,
    MassFunction,
    Potential,
    ZeroProbabilityEvidenceError,
    factor_marginalize,
    factor_product,
    factor_restrict,
    normalize,
    validate_evidence,
)

DEFAULT_ORACLE_CAP = 1 << 22

EliminationOrder = tuple[int, ...]


class OracleTooLargeError(ValueError):
    """A brute-force enumeration would exceed its joint-state cap."""


@dataclass(frozen=True)
class MmapSolution:
    """The exact most probable assignment of a set of variables, with its probability."""

    assignment: dict[int, int]
    probability: float


def min_fill_order(
    model: GraphicalModel,
    eliminate: Iterable[int],
    evidence: Iterable[int] = (),
) -> EliminationOrder:
    """Greedy min-fill ordering of ``eliminate`` over the interaction graph.

    Evidence variables, if given, are removed from the graph first, matching
    the structure left after conditioning. At each step the variable whose
    elimination adds the fewest fill edges is chosen, ties going to the
    lowest variable id.
    """
    targets = {int(v) for v in eliminate}
    if not targets <= set(range(model.n_vars)):
        raise ValueError("elimination targets must be model variables")
    dropped = {int(v) for v in evidence}
    adjacency: dict[int, set[int]] = {}
    for p in model.potentials:
        scope = [v for v in p.scope if v not in dropped]
        for v in scope:
            adjacency.setdefault(v, set()).update(u for u in scope if u != v)

    def fill_count(v: int) -> int:
        nbrs = sorted(adjacency.get(v, ()))
        return sum(
            1
            for i, a in enumerate(nbrs)
            for b in nbrs[i + 1 :]
            if b not in adjacency[a]
        )

    order: list[int] = []
    remaining = set(targets)
    while remaining:
        best = min(sorted(remaining), key=fill_count)
        nbrs = adjacency.pop(best, set())
        for a in nbrs:
            adjacency[a].discard(best)
            adjacency[a].update(b for b in nbrs if b != a)
        order.append(best)
        remaining.discard(best)
    return tuple(order)


def _sum_out(
    model: GraphicalModel,
    evidence: Evidence,
    keep: Sequence[int],
    order: Sequence[int] | None = None,
) -> tuple[Potential, float]:
    """Restrict to the evidence and sum out every free variable not in ``keep``.

    Returns the product of what is left as a table over ``keep`` (in that
    order) together with its log scale: each intermediate is rescaled to max
    entry 1 so long eliminations cannot underflow. ``order``, when given,
    must be a permutation of all model variables and its subsequence over
    the summed variables is used; otherwise a min-fill order over the
    evidence-conditioned graph is computed. A table that overflowed float64
    on the way shows up as a non-finite entry and raises ``ValueError``.
    """
    cards = model.cardinalities
    summed = [v for v in range(model.n_vars) if v not in evidence and v not in keep]
    if order is None:
        order = min_fill_order(model, summed, evidence=evidence.keys())
    else:
        order = tuple(int(v) for v in order)
        if sorted(order) != list(range(model.n_vars)):
            raise ValueError("order must be a permutation of all model variables")
        wanted = set(summed)
        order = tuple(v for v in order if v in wanted)
    factors = [factor_restrict(p, evidence, cards) for p in model.potentials]
    log_scale = 0.0
    for v in order:
        bucket = [f for f in factors if v in f.scope]
        if not bucket:
            continue
        factors = [f for f in factors if v not in f.scope]
        prod = bucket[0]
        for f in bucket[1:]:
            prod = factor_product(prod, f, cards)
        out = factor_marginalize(prod, {v}, cards)
        peak = float(out.values.max())
        if peak > 0.0 and peak != 1.0:
            out = Potential._result(out.scope, out.values / peak)
            log_scale += math.log(peak)
        factors.append(out)
    table = Potential._result(tuple(keep), np.ones([cards[v] for v in keep]))
    for f in factors:
        table = factor_product(table, f, cards)
    if not np.all(np.isfinite(table.values)):
        raise ValueError("table entries must be finite: a product of potentials overflowed")
    return table, log_scale


def _log_z(model: GraphicalModel) -> tuple[float, float]:
    """The log partition function as (log of the summed-out table, its log scale).

    Computed once per model under a min-fill order and kept on the instance;
    the model is immutable, so the stored value never goes stale.
    """
    cached = vars(model).get("_log_z")
    if cached is None:
        table, log_scale = _sum_out(model, {}, ())
        den = float(table.values)
        if den == 0.0:
            raise ZeroProbabilityEvidenceError("the model's joint mass is identically zero")
        cached = (math.log(den), log_scale)
        object.__setattr__(model, "_log_z", cached)
    return cached


def pr(
    model: GraphicalModel,
    evidence: Evidence,
    *,
    order: Sequence[int] | None = None,
) -> float:
    """Probability of the evidence, P(x_E).

    The ratio of the evidence-restricted grand sum to the partition function,
    both evaluated by variable elimination. A caller-supplied ``order``
    applies to the evidence-restricted sum only; the partition function
    always comes from a per-model cache computed under a min-fill order, so
    results under different orders agree up to rounding. Empty evidence
    gives exactly 1; structurally impossible evidence gives 0.
    """
    validate_evidence(model, evidence)
    if not evidence:
        return 1.0
    table, log_num = _sum_out(model, evidence, (), order)
    num = float(table.values)
    if num == 0.0:
        return 0.0
    log_den, log_den_scale = _log_z(model)
    return math.exp(math.log(num) - log_den + log_num - log_den_scale)


def mar(
    model: GraphicalModel,
    evidence: Evidence,
    variable: int,
    *,
    order: Sequence[int] | None = None,
) -> MassFunction:
    """Conditional marginal P(X | x_E) of one variable.

    Eliminates every other non-evidence variable and normalizes; equivalent
    to one evidence-probability query per state of X followed by
    normalization.
    """
    validate_evidence(model, evidence)
    variable = int(variable)
    if variable in evidence:
        raise ValueError(f"variable {variable} is observed in the evidence")
    if not 0 <= variable < model.n_vars:
        raise ValueError(f"variable {variable} out of range")
    table, _ = _sum_out(model, evidence, (variable,), order)
    try:
        return normalize(table)
    except ZeroProbabilityEvidenceError:
        raise ZeroProbabilityEvidenceError(
            f"evidence {dict(evidence)} has probability zero"
        ) from None


def entropy(mass: MassFunction) -> float:
    """Normalized entropy of a mass function, in [0, 1].

    The logarithm base is the variable's cardinality, so uniform gives 1 and
    degenerate gives 0; 0 log 0 is taken as 0 and a one-state variable has
    entropy 0.
    """
    k = mass.cardinality
    if k <= 1:
        return 0.0
    p = mass.probs[mass.probs > 0.0]
    h = float(-(p * np.log(p)).sum() / math.log(k))
    return min(max(h, 0.0), 1.0)


def brute_force_joint(
    model: GraphicalModel, *, cap: int = DEFAULT_ORACLE_CAP
) -> Potential:
    """The normalized joint table over all variables, by full enumeration."""
    cards = model.cardinalities
    states = math.prod(cards)
    if states > cap:
        raise OracleTooLargeError(f"{states} joint states exceed the cap of {cap}")
    acc = Potential((), np.float64(1.0))
    for p in model.potentials:
        acc = factor_product(acc, p, cards)
    full = tuple(range(model.n_vars))
    values = acc.values.transpose([acc.scope.index(v) for v in full])
    total = float(values.sum())
    if total <= 0.0:
        raise ZeroProbabilityEvidenceError("the model's joint mass is identically zero")
    return Potential(full, values / total)


def brute_force_mmap(
    model: GraphicalModel,
    evidence: Evidence,
    explain: Iterable[int],
    *,
    cap: int = DEFAULT_ORACLE_CAP,
) -> MmapSolution:
    """Exact most probable joint state of ``explain`` given the evidence.

    Sums out all other unobserved variables, scans every joint state of the
    explained set, and returns the maximizer with its probability
    P(x_M*, x_E). Ties break toward the lexicographically smallest
    assignment in variable-id order.
    """
    validate_evidence(model, evidence)
    explain = tuple(sorted({int(v) for v in explain}))
    if set(explain) & set(evidence):
        raise ValueError("explain set and evidence variables must be disjoint")
    if not all(0 <= v < model.n_vars for v in explain):
        raise ValueError("explain variables out of range")
    shape = tuple(model.cardinalities[v] for v in explain)
    states = math.prod(shape)
    if states > cap:
        raise OracleTooLargeError(f"{states} explained states exceed the cap of {cap}")
    if not explain:
        return MmapSolution({}, pr(model, evidence))

    table, log_num = _sum_out(model, evidence, explain)
    log_den, log_den_scale = _log_z(model)
    flat = table.flat
    best = int(np.argmax(flat))
    assignment = dict(zip(explain, (int(s) for s in np.unravel_index(best, shape))))
    peak = float(flat[best])
    if peak == 0.0:
        return MmapSolution(dict(zip(explain, (0,) * len(explain))), 0.0)
    probability = math.exp(math.log(peak) - log_den + log_num - log_den_scale)
    return MmapSolution(assignment, probability)

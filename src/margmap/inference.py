"""Exact inference by variable elimination, plus brute-force ground-truth oracles.

``pr`` and ``mar`` answer evidence-probability and single-variable marginal
queries by sum-product elimination under a min-fill ordering (or any caller
supplied ordering). ``brute_force_joint`` and ``brute_force_mmap`` enumerate
the answers they are tested against and double as desk-scale exact solvers.

Every elimination runs through one core, ``_sum_out_each``, which sums the
model down to one table per requested set of kept variables under a single
evidence. The greedy explainer asks it for all candidates of a round at once:
the potentials are restricted once, and each elimination step's message is
computed once per round and reused by every candidate whose elimination
reaches the same step, so each table is bit-identical to a separate query.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    Evidence,
    GraphicalModel,
    MassFunction,
    Potential,
    ZeroProbabilityEvidenceError,
    _aligned,
    _check_explain,
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
    return _min_fill(_interaction_graph(model, {int(v) for v in evidence}), targets)


def _interaction_graph(model: GraphicalModel, evidence: Iterable[int]) -> dict[int, set[int]]:
    """Adjacency sets of the interaction graph left after removing the evidence variables."""
    dropped = set(evidence)
    adjacency: dict[int, set[int]] = {}
    for p in model.potentials:
        scope = [v for v in p.scope if v not in dropped]
        for v in scope:
            adjacency.setdefault(v, set()).update(u for u in scope if u != v)
    return adjacency


def _fill_count(adjacency: dict[int, set[int]], v: int) -> int:
    """Pairs of neighbours of ``v`` not yet adjacent: the fill edges its elimination adds."""
    nbrs = adjacency.get(v, set())
    d = len(nbrs)
    linked = sum(len(adjacency[a] & nbrs) for a in nbrs)  # each edge counted twice
    return d * (d - 1) // 2 - linked // 2


def _min_fill(graph: dict[int, set[int]], targets: Iterable[int]) -> EliminationOrder:
    """Min-fill elimination order of ``targets`` on (a copy of) ``graph``.

    Eliminating a vertex changes the fill count only of vertices within
    distance two of it, so only those are recounted; a heap of
    (fill count, id) entries, stale ones skipped, yields the next vertex.
    """
    adjacency = {v: set(nbrs) for v, nbrs in graph.items()}
    remaining = set(targets)
    fill = {v: _fill_count(adjacency, v) for v in remaining}
    heap = [(f, v) for v, f in fill.items()]
    heapq.heapify(heap)
    order: list[int] = []
    while remaining:
        f, best = heapq.heappop(heap)
        if best not in remaining or fill[best] != f:
            continue
        nbrs = adjacency.pop(best, set())
        for a in nbrs:
            adjacency[a].discard(best)
            adjacency[a].update(b for b in nbrs if b != a)
        order.append(best)
        remaining.discard(best)
        near = set(nbrs)
        for a in nbrs:
            near.update(adjacency[a])
        for u in near & remaining:
            f = _fill_count(adjacency, u)
            if f != fill[u]:
                fill[u] = f
                heapq.heappush(heap, (f, u))
    return tuple(order)


def _sum_out_each(
    model: GraphicalModel,
    evidence: Evidence,
    keeps: Iterable[Sequence[int]],
    order: Sequence[int] | None = None,
) -> Iterator[tuple[Potential, float]]:
    """For each ``keep`` in turn, restrict to the evidence and sum out every other free variable.

    Yields the product of what is left as a table over ``keep`` (in that
    order) together with its log scale: each intermediate is rescaled to max
    entry 1 so long eliminations cannot underflow. ``order``, when given,
    must be a permutation of all model variables and its subsequence over
    the summed variables is used; otherwise a min-fill order over the
    evidence-conditioned graph is computed for each ``keep``. A table that
    overflowed float64 on the way shows up as a non-finite entry and raises
    ``ValueError``.

    All ``keeps`` share one elimination: the potentials are restricted once
    and the graph is built once, and each message is kept under its
    eliminated variable and the identities of its bucket's factors, in
    bucket order. A later ``keep`` whose elimination reaches the same step
    reuses the message, so every table is bit-identical to the one a
    separate call would give.
    """
    cards = model.cardinalities
    free = [v for v in range(model.n_vars) if v not in evidence]
    if order is None:
        graph = _interaction_graph(model, evidence.keys())
    else:
        order = tuple(int(v) for v in order)
        if sorted(order) != list(range(model.n_vars)):
            raise ValueError("order must be a permutation of all model variables")
    restricted = [factor_restrict(p, evidence, cards) for p in model.potentials]
    messages: dict[tuple[int, ...], tuple[Potential, float]] = {}
    for keep in keeps:
        summed = [v for v in free if v not in keep]
        if order is None:
            steps = _min_fill(graph, summed)
        else:
            wanted = set(summed)
            steps = tuple(v for v in order if v in wanted)
        factors = list(restricted)
        log_scale = 0.0
        for v in steps:
            bucket = [f for f in factors if v in f.scope]
            if not bucket:
                continue
            factors = [f for f in factors if v not in f.scope]
            # ids cannot be reused: `restricted` and `messages` keep every factor alive
            key = (v, *map(id, bucket))
            if key not in messages:
                prod = bucket[0]
                for f in bucket[1:]:
                    prod = factor_product(prod, f, cards)
                out = factor_marginalize(prod, {v}, cards)
                peak = float(out.values.max())
                log_peak = 0.0
                if peak > 0.0 and peak != 1.0:
                    out = Potential._result(out.scope, out.values / peak)
                    log_peak = math.log(peak)
                messages[key] = (out, log_peak)
            out, log_peak = messages[key]
            log_scale += log_peak
            factors.append(out)
        keep = tuple(keep)
        values = np.ones([cards[v] for v in keep])
        for f in factors:
            aligned = f.values if f.scope == keep or not f.scope else _aligned(f, keep)
            np.multiply(values, aligned, out=values)
        if not np.all(np.isfinite(values)):
            raise ValueError("table entries must be finite: a product of potentials overflowed")
        yield Potential._result(keep, values), log_scale


def _sum_out(
    model: GraphicalModel,
    evidence: Evidence,
    keep: Sequence[int],
    order: Sequence[int] | None = None,
) -> tuple[Potential, float]:
    """The one-``keep`` case of :func:`_sum_out_each`."""
    return next(_sum_out_each(model, evidence, (keep,), order))


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
    (variable,) = _check_explain(model, evidence, (variable,))
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
    explain = _check_explain(model, evidence, explain)
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

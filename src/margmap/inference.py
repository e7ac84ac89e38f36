"""Exact inference by variable elimination, plus brute-force ground-truth oracles.

``pr`` and ``mar`` answer evidence-probability and single-variable marginal
queries by sum-product elimination under a min-fill ordering (or any caller
supplied ordering). ``brute_force_joint`` and ``brute_force_mmap`` enumerate
the answers they are tested against and double as desk-scale exact solvers.

Every elimination runs through one core, ``_sum_out_each``, which sums the
model down to a list of tables, one per requested set of kept variables,
under a single evidence. The greedy explainer asks it for all candidates of a
round at once: the potentials are restricted once, one elimination path over
every free variable is ordered and eliminated once, and each candidate forks
off that path at the step where the path would eliminate it. Messages are
computed once per round and reused by every fork that reaches the same step,
so each table is bit-identical to a separate query.
"""

from __future__ import annotations

import heapq
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
    _aligned,
    _check_explain,
    _variable_ids,
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
    targets = set(_variable_ids(eliminate, "elimination target"))
    if not targets <= set(range(model.n_vars)):
        raise ValueError("elimination targets must be model variables")
    graph = _interaction_graph(model, _variable_ids(evidence, "evidence variable"))
    return tuple(iter(_MinFill(graph, targets).eliminate_next, None))


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


class _MinFill:
    """Min-fill elimination of ``targets`` on (a copy of) ``graph``, one vertex at a time.

    ``peek`` names the remaining target whose elimination adds the fewest
    fill edges, ties going to the lowest id, and ``eliminate_next`` removes
    it (``None`` once no target is left). Eliminating a vertex changes the
    fill count only of vertices within distance two of it, so only those are
    recounted; a heap of (fill count, id) entries, stale ones skipped, yields
    the next vertex. ``fork(exclude)`` copies the state with ``exclude``
    dropped from the targets. Every vertex picked so far was the least
    (fill count, id) among a superset of the copy's targets, so the copy
    goes on exactly as a fresh stepper over its own targets would.
    """

    __slots__ = ("adjacency", "remaining", "fill", "heap")

    def __init__(self, graph: dict[int, set[int]], targets: Iterable[int]):
        self.adjacency = {v: set(nbrs) for v, nbrs in graph.items()}
        self.remaining = set(targets)
        self.fill = {v: _fill_count(self.adjacency, v) for v in self.remaining}
        self.heap = [(f, v) for v, f in self.fill.items()]
        heapq.heapify(self.heap)

    def peek(self) -> int | None:
        heap = self.heap
        while heap:
            f, v = heap[0]
            if v in self.remaining and self.fill[v] == f:
                return v
            heapq.heappop(heap)
        return None

    def eliminate_next(self) -> int | None:
        best = self.peek()
        if best is None:
            return None
        heapq.heappop(self.heap)
        adjacency, remaining, fill = self.adjacency, self.remaining, self.fill
        nbrs = adjacency.pop(best, set())
        for a in nbrs:
            adjacency[a].discard(best)
            adjacency[a].update(b for b in nbrs if b != a)
        remaining.discard(best)
        near = set(nbrs)
        for a in nbrs:
            near.update(adjacency[a])
        for u in near & remaining:
            f = _fill_count(adjacency, u)
            if f != fill[u]:
                fill[u] = f
                heapq.heappush(self.heap, (f, u))
        return best

    def fork(self, exclude: Iterable[int]) -> _MinFill:
        twin = object.__new__(_MinFill)
        twin.adjacency = {v: set(nbrs) for v, nbrs in self.adjacency.items()}
        twin.remaining = self.remaining.difference(exclude)
        twin.fill = dict(self.fill)
        twin.heap = list(self.heap)
        return twin


class _Ordered:
    """A caller's order restricted to ``targets``, stepped like :class:`_MinFill`."""

    __slots__ = ("ahead",)

    def __init__(self, order: Iterable[int], targets: Iterable[int]):
        targets = set(targets)
        self.ahead = [v for v in order if v in targets][::-1]  # next vertex last

    def peek(self) -> int | None:
        return self.ahead[-1] if self.ahead else None

    def eliminate_next(self) -> int | None:
        return self.ahead.pop() if self.ahead else None

    def fork(self, exclude: Iterable[int]) -> _Ordered:
        twin = object.__new__(_Ordered)
        exclude = set(exclude)
        twin.ahead = [v for v in self.ahead if v not in exclude]
        return twin


def _sum_out_each(
    model: GraphicalModel,
    evidence: Evidence,
    keeps: Iterable[Sequence[int]],
    order: Sequence[int] | None = None,
) -> list[tuple[Potential, float]]:
    """For each ``keep``, restrict to the evidence and sum out every other free variable.

    Returns a list in ``keeps`` order: for each, the product of what is left
    as a table over ``keep`` (in that order) together with its log scale.
    Each intermediate is rescaled to max entry 1 so long eliminations cannot
    underflow. ``order``, when given, must be a permutation of all model
    variables and its subsequence over the summed variables is used;
    otherwise the order is min-fill over the evidence-conditioned graph. A
    table that overflowed float64 on the way shows up as a non-finite entry
    and raises ``ValueError``.

    All ``keeps`` share one elimination path: the order of every free
    variable, walked once. When the path's next variable lies in a
    ``keep``, the path forks: the copy drops that keep's variables and
    finishes on its own, while the path goes on for the other keeps and
    stops once each has forked. Up to the fork the path's order is the
    keep's own, so the factors held there are the ones a separate
    elimination would hold. The potentials are restricted once, and each
    message is kept under its eliminated variable and the identities of its
    bucket's factors, in bucket order, so a fork that reaches the same step
    as another reuses the message. Every table is bit-identical to the one
    a separate call would give.
    """
    cards = model.cardinalities
    free = [v for v in range(model.n_vars) if v not in evidence]
    if order is None:
        path = _MinFill(_interaction_graph(model, evidence.keys()), free)
    else:
        order = _variable_ids(order, "order entry")
        if sorted(order) != list(range(model.n_vars)):
            raise ValueError("order must be a permutation of all model variables")
        path = _Ordered(order, free)
    # ids cannot be reused: `restricted` and `messages` keep every factor alive
    # until the round ends
    restricted = [factor_restrict(p, evidence, cards) for p in model.potentials]
    messages: dict[tuple[int, ...], tuple[Potential, float]] = {}

    def eliminate(v: int, factors: list[Potential], log_scale: float):
        bucket = [f for f in factors if v in f.scope]
        if not bucket:
            return factors, log_scale
        rest = [f for f in factors if v not in f.scope]
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
        rest.append(out)
        return rest, log_scale + log_peak

    def finish(branch, factors: list[Potential], log_scale: float, keep: tuple[int, ...]):
        for v in iter(branch.eliminate_next, None):
            factors, log_scale = eliminate(v, factors, log_scale)
        values = np.ones([cards[v] for v in keep])
        for f in factors:
            aligned = f.values if f.scope == keep or not f.scope else _aligned(f, keep)
            np.multiply(values, aligned, out=values)
        if not np.all(np.isfinite(values)):
            raise ValueError("table entries must be finite: a product of potentials overflowed")
        return Potential._result(keep, values), log_scale

    keeps = [tuple(keep) for keep in keeps]
    forks_at: dict[int, list[int]] = {}
    for i, keep in enumerate(keeps):
        for v in keep:
            forks_at.setdefault(v, []).append(i)
    tables: dict[int, tuple[Potential, float]] = {}
    waiting = set(range(len(keeps)))
    factors, log_scale = restricted, 0.0
    while waiting and (v := path.peek()) is not None:
        for i in forks_at.get(v, ()):
            if i in waiting:
                waiting.remove(i)
                tables[i] = finish(path.fork(keeps[i]), factors, log_scale, keeps[i])
        if waiting:
            factors, log_scale = eliminate(path.eliminate_next(), factors, log_scale)
    for i in waiting:  # keeps the path never reached take its final factors
        tables[i] = finish(path, factors, log_scale, keeps[i])
    return [tables[i] for i in range(len(keeps))]


def _sum_out(
    model: GraphicalModel,
    evidence: Evidence,
    keep: Sequence[int],
    order: Sequence[int] | None = None,
) -> tuple[Potential, float]:
    """The one-``keep`` case of :func:`_sum_out_each`."""
    return _sum_out_each(model, evidence, (keep,), order)[0]


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

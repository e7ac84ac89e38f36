"""Exact inference by variable elimination, plus brute-force ground-truth oracles.

``pr`` and ``mar`` answer evidence-probability and single-variable marginal
queries by sum-product elimination under a min-fill ordering (or any caller
supplied ordering). ``brute_force_joint`` enumerates the full joint table,
and ``brute_force_mmap`` solves marginal MAP exactly by constrained
elimination; both are the exact answers the greedy is tested against.

Every elimination runs through one core, ``_Elimination``, which sums the
model down to the factors each requested set of kept variables holds, under
one evidence at a time; ``tables`` multiplies them into each set's table,
and the oracle max-eliminates them instead. The greedy explainer keeps one
core per run and asks it for all candidates of a round at once: one path
over every free variable is ordered by min-fill, on bitsets with fill
counts updated per step, and eliminated once; each candidate forks off it
where the path would eliminate it. The fully observed potentials are held
once per round, and the round's tables of one shape are multiplied as one
matrix. Between rounds, a potential is restricted again only when the
evidence on its scope changed, and a message of the previous round is
reused whenever a step meets the same factors in the same order, so mostly
what the newly observed variable touches is redone. Each table is
bit-identical to a separate query. ``pr``, ``mar`` and the oracle use a
fresh core per query.

Every bucket, summed (``_sum_message``) or maxed (``_max_message``), and
every final table (``_joined``, or a row of ``tables``' matrix with the
same multiplies) is multiplied by ``model._chain``'s arithmetic: left to
right into arrays, wrapping only the result in a ``Potential``.
"""

from __future__ import annotations

import itertools
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
    _chain,
    _check_explain,
    _variable_ids,
    factor_product,
    factor_restrict,
    normalize,
    validate_evidence,
)

DEFAULT_ORACLE_CAP = 1 << 22

EliminationOrder = tuple[int, ...]


class OracleTooLargeError(ValueError):
    """An oracle's input exceeds its joint-state cap.

    The cap counts the joint states of every variable for
    ``brute_force_joint`` and of the explained set for ``brute_force_mmap``.
    """


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
    the structure left after conditioning; an observed variable cannot also
    be eliminated. At each step the variable whose elimination adds the
    fewest fill edges is chosen, ties going to the lowest variable id.
    """
    targets = set(_variable_ids(eliminate, "elimination target"))
    if not targets <= set(range(model.n_vars)):
        raise ValueError("elimination targets must be model variables")
    evidence = _variable_ids(evidence, "evidence variable")
    if not set(evidence) <= set(range(model.n_vars)):
        raise ValueError("evidence variables must be model variables")
    overlap = sorted(targets.intersection(evidence))
    if overlap:
        raise ValueError(
            f"elimination targets and evidence overlap on variables {overlap}; "
            "they must be disjoint"
        )
    graph = _without(_interaction_graph(model), evidence)
    return tuple(iter(_MinFill(graph, targets).eliminate_next, None))


def _mask(variables: Iterable[int]) -> int:
    """The bitmask with bit v set for each variable v."""
    mask = 0
    for v in variables:
        mask |= 1 << v
    return mask


def _interaction_graph(model: GraphicalModel) -> list[int]:
    """Adjacency bitmasks of the interaction graph: bit u of entry v is set when u, v share a scope."""
    adjacency = [0] * model.n_vars
    for p in model.potentials:
        scope = _mask(p.scope)
        for v in p.scope:
            adjacency[v] |= scope
    return [nbrs & ~(1 << v) for v, nbrs in enumerate(adjacency)]


def _without(graph: list[int], variables: Iterable[int]) -> list[int]:
    """``graph`` with ``variables`` (vertices of it) removed, as after conditioning on them."""
    dropped = _mask(variables)
    return [0 if dropped >> v & 1 else nbrs & ~dropped for v, nbrs in enumerate(graph)]


def _fill_count(adjacency: list[int], v: int) -> int:
    """Pairs of neighbours of ``v`` not yet adjacent: the fill edges its elimination adds."""
    nbrs = rest = adjacency[v]
    d = nbrs.bit_count()
    linked = 0  # each edge among the neighbours is counted twice
    while rest:
        low = rest & -rest
        linked += (adjacency[low.bit_length() - 1] & nbrs).bit_count()
        rest ^= low
    return d * (d - 1) // 2 - linked // 2


class _MinFill:
    """Min-fill elimination of ``targets`` on (a copy of) ``graph``, one vertex at a time.

    The graph is a list of adjacency bitmasks, and ``remaining`` lists the
    targets not yet eliminated in id order; ``fill[v]`` is
    :func:`_fill_count` of each vertex, targets or not (0 once removed).
    ``peek`` names the remaining target of least (fill count, id), and
    ``eliminate_next`` removes it (``None`` once none is left) and updates
    the counts: removing x lowers each neighbour's count by its neighbours
    outside x's closed neighbourhood, then each missing edge a-b among x's
    neighbours, added in turn, raises a's count by a's neighbours not
    adjacent to b (and b's likewise) and lowers their common neighbours' by
    one. ``fork(exclude)`` copies the state with ``exclude`` dropped from
    the targets. Every vertex picked so far was the least (fill count, id)
    among a superset of the copy's targets, so the copy goes on exactly as
    a fresh stepper over its own targets would.
    """

    __slots__ = ("adjacency", "remaining", "fill")

    def __init__(self, graph: list[int], targets: Iterable[int]):
        self.adjacency = list(graph)
        self.remaining = sorted(set(targets))
        self.fill = [_fill_count(self.adjacency, v) for v in range(len(graph))]

    def peek(self) -> int | None:
        return min(self.remaining, key=self.fill.__getitem__, default=None)

    def eliminate_next(self) -> int | None:
        remaining, adjacency, fill = self.remaining, self.adjacency, self.fill
        if not remaining:
            return None
        best = min(remaining, key=fill.__getitem__)
        remaining.remove(best)
        nbrs = rest = adjacency[best]
        adjacency[best] = fill[best] = 0
        gone = 1 << best
        closed = nbrs | gone
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            adjacency[a] ^= gone
            fill[a] -= (adjacency[a] & ~closed).bit_count()
            rest ^= low
        rest = nbrs
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            missing = rest & ~adjacency[a]  # the fill edges a-b with b above a
            while missing:
                bit = missing & -missing
                missing ^= bit
                b = bit.bit_length() - 1
                around_a, around_b = adjacency[a], adjacency[b]
                fill[a] += (around_a & ~around_b).bit_count()
                fill[b] += (around_b & ~around_a).bit_count()
                common = around_a & around_b
                while common:
                    c = common & -common
                    fill[c.bit_length() - 1] -= 1
                    common ^= c
                adjacency[a] = around_a | bit
                adjacency[b] = around_b | low
        return best

    def fork(self, exclude: Iterable[int]) -> _MinFill:
        twin = object.__new__(_MinFill)
        exclude = set(exclude)
        twin.adjacency = list(self.adjacency)
        twin.remaining = [v for v in self.remaining if v not in exclude]
        twin.fill = list(self.fill)
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


def _check_order(model: GraphicalModel, order: Sequence[int] | None) -> list[int] | None:
    """``order`` as a list of ints; it must be ``None`` or a permutation of all model variables."""
    if order is not None:
        order = _variable_ids(order, "order entry")
        if sorted(order) != list(range(model.n_vars)):
            raise ValueError("order must be a permutation of all model variables")
    return order


class _Elimination:
    """Sum-product elimination of one model under a sequence of evidences.

    ``held`` and ``tables`` answer one evidence and a list of ``keeps``, sets
    of kept variables. Each step computes its message with
    :func:`_sum_message`, which multiplies the bucket left to right through
    one :func:`_chain` call and wraps only the message; each message is
    rescaled to max entry 1 so long eliminations cannot underflow.
    ``order``, when given, must be a permutation of all model variables and
    its subsequence over the summed variables is used; otherwise the order
    is min-fill over the evidence-conditioned graph. A table that overflowed
    float64 on the way shows up as a non-finite entry and raises ``ValueError``.

    All ``keeps`` of one call share one elimination path: the order of every
    free variable, walked once. When the path's next variable lies in a
    ``keep``, the path forks: the copy drops that keep's variables and
    finishes on its own, while the path goes on for the other keeps and
    stops once each has forked. Up to the fork the path's order is the
    keep's own, so the factors held there are the ones a separate
    elimination would hold. The path and each fork change their own lists of
    held factors in place; a fork starts from one shallow copy of the path's
    lists, whose entries are immutable tuples.

    State carries from one call to the next, which is what a greedy run
    needs: it adds one variable to the evidence per call. A potential is
    restricted again only when the evidence on its scope changed; otherwise
    the previous call's object is reused. Each message is kept under its
    eliminated variable and the identities of its bucket's factors, in
    bucket order, so a step that meets the same factors in the same order,
    in this call or the next, reuses the message. A memo entry holds its
    bucket, so no identity in a live key is recycled, and an entry no step
    looked up during a call is dropped when that call ends. Every table is
    bit-identical to the one a fresh elimination would give.
    """

    __slots__ = ("model", "order", "graph", "slices", "restricted", "messages")

    def __init__(self, model: GraphicalModel, order: Sequence[int] | None = None):
        self.model = model
        self.order = _check_order(model, order)
        self.graph = _interaction_graph(model) if order is None else None
        self.slices: list[tuple[tuple[int, int], ...] | None] = [None] * len(model.potentials)
        self.restricted: list[Potential | None] = [None] * len(model.potentials)
        self.messages: dict[tuple[int, ...], tuple[Potential, float, tuple]] = {}

    def _restrict(self, evidence: Evidence) -> list[Potential]:
        cards, restricted, slices = self.model.cardinalities, self.restricted, self.slices
        for i, p in enumerate(self.model.potentials):
            part = tuple((v, evidence[v]) for v in p.scope if v in evidence)
            if part != slices[i]:
                slices[i] = part
                restricted[i] = factor_restrict(p, evidence, cards)
        return restricted

    def tables(
        self, evidence: Evidence, keeps: Iterable[Sequence[int]]
    ) -> list[tuple[Potential, float]]:
        """Each keep's table over ``keep`` and log scale, in ``keeps`` order.

        The keeps of one table shape are multiplied as one (keeps x states)
        matrix of ones, walking their factors in sequence order: a scalar
        that every keep holds multiplies the whole matrix once, any other
        factor only the rows of the keeps that hold it. Each entry so gets
        the multiplies :func:`_joined` would give it, in the same order, and
        each table is a read-only row of its matrix.
        """
        keeps = [tuple(keep) for keep in keeps]
        cards = self.model.cardinalities
        observed, held = self.held(evidence, keeps)
        rows_of: dict[tuple[int, ...], list[int]] = {}  # the keeps of each table shape
        for i, keep in enumerate(keeps):
            rows_of.setdefault(tuple(cards[v] for v in keep), []).append(i)
        tables: list = [None] * len(keeps)
        for shape, rows in rows_of.items():
            matrix = np.ones((len(rows), *shape))
            factors, holding = dict(observed), {}
            for row, i in enumerate(rows):
                factors.update(held[i][0])
                for n in held[i][0]:
                    holding.setdefault(n, []).append(row)
            for n in sorted(factors):
                f, at = factors[n], holding.get(n)
                if at is None or (len(at) == len(rows) and not f.scope):
                    matrix *= f.values
                    continue
                for row in at:
                    keep = keeps[rows[row]]
                    if f.scope == keep or not f.scope:
                        matrix[row] *= f.values
                    else:
                        matrix[row] = _chain(keep, matrix[row], (f,))[1]
            _check_finite(matrix)
            matrix.setflags(write=False)
            for row, i in enumerate(rows):
                tables[i] = (Potential._result(keeps[i], matrix[row, ...]), held[i][1])
        return tables

    def held(
        self, evidence: Evidence, keeps: Iterable[Sequence[int]]
    ) -> tuple[dict[int, Potential], list[tuple[dict[int, Potential], float]]]:
        """Restrict to ``evidence`` and, per ``keep``, sum out every other free variable.

        Returns the fully observed potentials, held once for all keeps, and
        per keep (its other factors, log scale); both map sequence numbers to
        factors, and a keep's factors, scoped inside it, are the two in order.
        """
        model = self.model
        free = [v for v in range(model.n_vars) if v not in evidence]
        if self.order is None:
            path = _MinFill(_without(self.graph, evidence), free)
        else:
            path = _Ordered(self.order, free)
        restricted = self._restrict(evidence)
        earlier, messages = self.messages, {}
        numbers = itertools.count(len(restricted))

        def eliminate(v: int, holders: list, scalars: list) -> float:
            bucket = holders[v]
            key = (v, *[id(f) for _, f in bucket])
            found = messages.get(key)
            if found is None:
                found = earlier.pop(key, None)
                if found is None:
                    found = (*_sum_message([f for _, f in bucket], v), bucket)
                messages[key] = found
            out, log_peak, _ = found
            entry = (next(numbers), out)
            holders[v] = ()
            for u in out.scope:
                holders[u] = (*[e for e in holders[u] if e not in bucket], entry)
            if not out.scope:
                scalars.append(entry)
            return log_peak

        def finish(branch, holders: list, scalars: list, log_scale: float, keep: tuple[int, ...]):
            for v in iter(branch.eliminate_next, None):
                log_scale += eliminate(v, holders, scalars)
            left = dict(scalars)
            for v in keep:
                left.update(holders[v])
            return left, log_scale

        # The path's state: for each variable, the (sequence number, factor)
        # entries whose scope holds it; the messages of empty scope; the log
        # scale. Sequence numbers follow the factor list (restricted potentials
        # in model order, then messages in creation order), so sorting entries
        # by them gives that list's order.
        held: list[list[tuple[int, Potential]]] = [[] for _ in range(model.n_vars)]
        scalars: list[tuple[int, Potential]] = []
        observed = {n: p for n, p in enumerate(restricted) if not p.scope}
        for entry in enumerate(restricted):
            for v in entry[1].scope:
                held[v].append(entry)
        holders = [tuple(h) for h in held]
        log_scale = 0.0

        keeps = [tuple(keep) for keep in keeps]
        forks_at: dict[int, list[int]] = {}
        for i, keep in enumerate(keeps):
            for v in keep:
                forks_at.setdefault(v, []).append(i)
        results: dict[int, tuple[list[Potential], float]] = {}
        waiting = set(range(len(keeps)))
        while waiting and (v := path.peek()) is not None:
            for i in forks_at.get(v, ()):
                if i in waiting:
                    waiting.remove(i)
                    results[i] = finish(
                        path.fork(keeps[i]), holders.copy(), scalars.copy(), log_scale, keeps[i]
                    )
            if waiting:
                log_scale += eliminate(path.eliminate_next(), holders, scalars)
        for i in waiting:  # keeps the path never reached take its final factors
            results[i] = finish(path, holders, scalars, log_scale, keeps[i])
        self.messages = messages
        return observed, [results[i] for i in range(len(keeps))]


def _sum_message(bucket: Sequence[Potential], v: int) -> tuple[Potential, float]:
    """Sum ``v`` out of the product of ``bucket``: the message, rescaled, and its log scale.

    The bucket's factors are multiplied left to right by :func:`_chain`, ``v``'s
    axis is summed, and the sum is divided by its largest entry (when that is
    neither 0 nor 1), whose log is returned.
    """
    first = bucket[0]
    scope, values = _chain(first.scope, first.values, bucket[1:])
    axis = scope.index(v)
    return _rescaled(scope[:axis] + scope[axis + 1 :], values.sum(axis=axis))


def _max_message(bucket: Sequence[Potential], v: int) -> tuple[Potential, float, np.ndarray]:
    """Max ``v`` out of the product of ``bucket``, as :func:`_sum_message` sums it out.

    Also returns the argmax table over the message's scope, which holds the
    first maximizing state of ``v``, so ties go to the lowest state. A
    product that overflowed raises ``ValueError``.
    """
    first = bucket[0]
    scope, values = _chain(first.scope, first.values, bucket[1:])
    _check_finite(values)
    axis = scope.index(v)
    message, log_peak = _rescaled(scope[:axis] + scope[axis + 1 :], values.max(axis=axis))
    return message, log_peak, values.argmax(axis=axis)


def _rescaled(scope: tuple[int, ...], values: np.ndarray) -> tuple[Potential, float]:
    """``values`` over ``scope`` divided by its largest entry, and the log of that divisor.

    A largest entry of 0 or 1 divides nothing and gives log 0.
    """
    peak = float(values.max())
    if peak > 0.0 and peak != 1.0:
        return Potential._result(scope, values / peak), math.log(peak)
    return Potential._result(scope, values), 0.0


def _joined(factors: Iterable[Potential], keep: tuple[int, ...], cards: Sequence[int]) -> Potential:
    """The product of ``factors``, each with scope inside ``keep``, as a table over ``keep``."""
    _, values = _chain(keep, np.ones([cards[v] for v in keep]), factors)
    _check_finite(values)
    return Potential._result(keep, values)


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("table entries must be finite: a product of potentials overflowed")


def _sum_out(
    model: GraphicalModel,
    evidence: Evidence,
    keep: Sequence[int],
    order: Sequence[int] | None = None,
) -> tuple[Potential, float]:
    """One ``keep``'s table and log scale from a fresh :class:`_Elimination`."""
    return _Elimination(model, order).tables(evidence, (keep,))[0]


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
    results under different orders agree up to rounding. ``order`` is
    checked once: by the elimination, or here when the evidence is empty
    and nothing is eliminated. Empty evidence gives exactly 1; structurally
    impossible evidence gives 0.
    """
    validate_evidence(model, evidence)
    if not evidence:
        _check_order(model, order)
        return 1.0
    table, log_num = _sum_out(model, evidence, (), order)
    return _over_z(model, float(table.values), log_num)


def _over_z(model: GraphicalModel, mass: float, log_scale: float) -> float:
    """``mass * exp(log_scale)`` divided by the model's partition function.

    The ratio is taken in log space, exp(log mass - log Z + the log scales),
    so neither factor has to fit in a float64 by itself. Zero mass gives 0
    without computing Z.
    """
    if mass == 0.0:
        return 0.0
    log_den, log_den_scale = _log_z(model)
    return math.exp(math.log(mass) - log_den + log_scale - log_den_scale)


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
    return _entropy(mass.probs)


def _entropy(probs: np.ndarray) -> float:
    """:func:`entropy` of a mass function's probabilities, without the :class:`MassFunction`."""
    k = probs.size
    if k <= 1:
        return 0.0
    p = probs[probs > 0.0]
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

    Solves by constrained elimination (Park & Darwiche 2004): sums out every
    other unobserved variable on the shared elimination core, then
    max-eliminates the explained variables in decreasing id order, keeping
    each step's first-max argmax table, and decodes the assignment in
    increasing id order. Returns the maximizer with its probability
    P(x_M*, x_E). Ties break toward the lexicographically smallest
    assignment in variable-id order. Every table the max half builds has
    its scope inside the explained set, and an explained set with more
    than ``cap`` joint states still raises :class:`OracleTooLargeError`.
    An empty explanation takes the same path with nothing to max out, so
    its probability is P(x_E), bit for bit as :func:`pr` gives it.
    Evidence of probability zero gives the all-zero assignment with
    probability 0; a model whose joint mass is zero raises
    :class:`ZeroProbabilityEvidenceError`, whatever the explanation. The
    name is kept for API stability; nothing is enumerated.
    """
    explain = _check_explain(model, evidence, explain)
    states = math.prod(model.cardinalities[v] for v in explain)
    if states > cap:
        raise OracleTooLargeError(f"{states} explained states exceed the cap of {cap}")

    observed, [(held, log_num)] = _Elimination(model).held(evidence, (explain,))
    factors = [f for _, f in sorted({**observed, **held}.items())]
    traceback = []
    for v in reversed(explain):
        bucket = [f for f in factors if v in f.scope]
        factors = [f for f in factors if v not in f.scope]
        message, log_peak, argmax = _max_message(bucket, v)
        traceback.append((v, message.scope, argmax))
        factors.append(message)
        log_num += log_peak
    peak = float(_joined(factors, (), model.cardinalities).values)  # factors left are scalars
    _log_z(model)  # a model of zero mass raises even when the evidence has mass zero
    if peak == 0.0:
        return MmapSolution(dict.fromkeys(explain, 0), 0.0)
    assignment: dict[int, int] = {}
    for v, scope, argmax in reversed(traceback):
        assignment[v] = int(argmax[tuple(assignment[u] for u in scope)])
    probability = _over_z(model, peak, log_num)
    return MmapSolution(assignment, probability)

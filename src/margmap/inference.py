"""Exact inference by variable elimination, plus brute-force ground-truth oracles.

``pr`` and ``mar`` answer evidence-probability and single-variable marginal
queries by sum-product elimination under a min-fill ordering, or under a
caller's ordering: a fixed priority on the same stepper, with no fill work.
``brute_force_joint`` enumerates the full joint table, and
``brute_force_mmap`` solves marginal MAP exactly by constrained
elimination; both are the exact answers the greedy is tested against.

Every elimination runs through one core, ``_Elimination``, which answers one
question per call: it sums the model down to the factors one set of kept
variables holds, under one evidence; ``table`` multiplies them into the
set's table, and the oracle max-eliminates them instead. The greedy
explainer keeps one core per run and asks it for each candidate of a round
in turn. The core sets up the start without evidence once: a min-fill
stepper over every variable, on bitsets with fill counts updated per step,
and the potentials that hold each variable. A new evidence's start
conditions on it the one way observing does: from the last evidence's start
when the evidence only grew, from that base otherwise, each new variable is
dropped from the stepper with no fill edges and only the potentials that
hold it are restricted again. Each candidate then gets its own walk, a fork
of the stepper without it, through one message memo, so the steps its walk
shares with the walks before it, under this evidence and the last one, are
memo hits: mostly what the newly observed variable touches is redone. The
memo turns over when the evidence changes, so a round's calls, however
many, share one generation of it. Each table is bit-identical to a separate
query. ``pr``, ``mar`` and the oracle use a fresh core per query.

For a round of two candidates or more the greedy first asks ``tree`` for
the candidates' tables from one bucket tree (Shafer & Shenoy 1990): one
upward pass along the same min-fill path over the components that hold
them, through the same steps and message memo, and one downward pass over
only the buckets on the way to the candidates, which sums each bucket by
one string-subscript ``np.einsum`` call per message or table on plain
arrays (``_bucket_sums``), contracted pairwise along numpy's greedy path
from ``_PATH_STATES`` joint states on. What those calls are depends on
the bucket's scopes, sums and cardinalities alone, so ``_bucket_plan`` is
one ``functools.lru_cache`` memo of the ``_PLANS`` most recent plans,
shared by every model: the subscripts, the operands of ones, the folds and
the contraction paths repeat round after round, run after run, and on
every model parsed from the same text. Each tree table is its own
component's, up to scale: a component that holds no requested variable
is not walked, and the scalars that close the others are not applied. The
tables are exact, but their last bits are the tree's own, so the greedy
uses them only to choose which candidates to score on their own walks:
those whose tree entropy is within 1e-9 of the least, and those whose tree
mass is zero or not finite. A candidate that the last committed variable
could not reach keeps its marginal, so the greedy carries its last tree
entropy instead of asking again. Tree and walk entropies differ by
rounding only, some 1e-15, so the winner and every candidate tied with it
are among those scored, and each round's answer is the walks', bit for
bit. A round without mass, in a component the tree saw or not, is found
by the walks of the scored candidates, and the greedy then scores every
candidate, as an unscreened round does.

Every maxed bucket (``_max_message``), every summed one (``_sum_message``)
of fewer than ``_PATH_STATES`` joint states, and every final table
(``_joined``) is multiplied by ``model._chain``'s arithmetic: left to right
into arrays, wrapping only the result in a ``Potential``. A summed bucket of
that size or more is never multiplied out: it is one ``_bucket_sums`` call
on the same planned einsum as the tree's buckets, so the last bits of those
messages follow numpy's contraction path. Which sum runs depends on the
bucket alone, so fresh and shared eliminations still agree bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from collections.abc import Callable, Iterable, Iterator, Sequence
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
    _check_integer,
    _variable_ids,
    factor_product,
    factor_restrict,
    normalize,
    validate_evidence,
)

DEFAULT_ORACLE_CAP = 1 << 22

# A summed bucket of this many joint states or more, a walk's or the bucket
# tree's, is not built but summed by ``np.einsum`` along the contraction path
# that ``optimize=True`` would find, planned once by :func:`_bucket_plan`,
# pairwise and through BLAS where numpy can. Below it a walk's bucket keeps
# the product's arithmetic and so its bits (every bucket of a binary grid up
# to 10x10 and of a ternary 4x4 grid is below it), and a tree's bucket is
# summed by einsum's one loop over every joint state.
_PATH_STATES = 1 << 16

# The most bucket sum plans :func:`_bucket_plan`'s memo keeps, for every model
# together. Each distinct evidence pattern a model meets can add plans, so
# past this many the least recently used is dropped and made again when
# needed: the 6x6 binary grid's greedy makes about 800 under one evidence
# pool, the 5x5 12-state grid's about 2,240 (about 0.9 KB each).
_PLANS = 1 << 12

# The most factors one ``np.einsum`` call of a planned bucket sum takes, a
# factor of ones for a kept variable included. einsum refuses more than 31
# operands on numpy 1.x (63 on 2.x).
_EINSUM_FACTORS = 30

# einsum's subscript labels, in the order :func:`_bucket_plan` hands them out
_LABELS = string.ascii_letters

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
) -> tuple[int, ...]:
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
    path = _MinFill(_interaction_graph(model), targets)
    for v in evidence:
        path.drop(v)
    return tuple(iter(path.eliminate_next, None))


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


def _reach(graph: list[int], mask: int) -> int:
    """``mask`` with every vertex of ``graph`` connected to one of its vertices added."""
    frontier = mask
    while frontier:
        around = 0
        while frontier:
            low = frontier & -frontier
            around |= graph[low.bit_length() - 1]
            frontier ^= low
        frontier = around & ~mask
        mask |= frontier
    return mask


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
    targets not yet eliminated, sorted by ``rank`` (a sort key; id order when
    it is ``None``); ``fill[v]`` is :func:`_fill_count` of each vertex,
    targets or not (0 once removed). ``eliminate_next`` removes the first
    remaining target of least fill count and names it (``None`` once none is
    left), updating the counts: removing x lowers each neighbour's count by
    its neighbours outside x's closed neighbourhood, then each missing edge
    a-b among x's neighbours, added in turn, raises a's count by a's
    neighbours not adjacent to b (and b's likewise) and lowers their common
    neighbours' by one; ``drop`` is the first half alone, which is how
    observing a vertex removes it. ``fork(exclude)`` copies the state with
    ``exclude`` dropped from the targets. Every vertex picked so far was the
    least (fill count, rank) among a superset of the copy's targets, so the
    copy goes on exactly as a fresh stepper over its own targets would.

    A caller's order is a fixed priority on the same stepper: its rank on an
    edgeless graph, where every fill count is 0 and stays 0, so the targets
    come out in the order's sequence and no fill work is done.
    """

    __slots__ = ("adjacency", "remaining", "fill")

    def __init__(self, graph: list[int], targets: Iterable[int], rank: Callable | None = None):
        self.adjacency = list(graph)
        self.remaining = sorted(set(targets), key=rank)
        # a vertex without neighbours adds no fill, so an edgeless graph costs no counting
        self.fill = [nbrs and _fill_count(self.adjacency, v) for v, nbrs in enumerate(graph)]

    def eliminate_next(self) -> int | None:
        remaining, adjacency, fill = self.remaining, self.adjacency, self.fill
        if not remaining:
            return None
        best = remaining[0]
        if fill[best]:  # no count is below 0, so a first target of count 0 is the least
            best = min(remaining, key=fill.__getitem__)
        remaining.remove(best)
        rest = nbrs = self.drop(best)
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

    def drop(self, x: int) -> int:
        """Remove vertex ``x`` without fill edges, as observing it does; returns its neighbours."""
        adjacency, fill = self.adjacency, self.fill
        nbrs = rest = adjacency[x]
        adjacency[x] = fill[x] = 0
        gone = 1 << x
        closed = nbrs | gone
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            adjacency[a] ^= gone
            fill[a] -= (adjacency[a] & ~closed).bit_count()
            rest ^= low
        return nbrs

    def fork(self, exclude: Iterable[int]) -> _MinFill:
        twin = object.__new__(_MinFill)
        exclude = set(exclude)
        twin.adjacency = list(self.adjacency)
        twin.remaining = [v for v in self.remaining if v not in exclude]
        twin.fill = list(self.fill)
        return twin


def _rank(model: GraphicalModel, order: Sequence[int] | None) -> Callable[[int], int] | None:
    """Each variable's place in ``order``, as a sort key; ``None`` stays ``None``.

    ``order`` must be ``None`` or a permutation of all model variables.
    """
    if order is None:
        return None
    order = _variable_ids(order, "order entry")
    if sorted(order) != list(range(model.n_vars)):
        raise ValueError("order must be a permutation of all model variables")
    return {v: i for i, v in enumerate(order)}.__getitem__


class _Elimination:
    """Sum-product elimination of one model under a sequence of evidences.

    ``held`` and ``table`` answer one evidence and one ``keep``, a set of
    kept variables. Each step computes its message with
    :func:`_sum_message`, which multiplies the bucket left to right through
    one :func:`_chain` call, or sums a large bucket on its planned einsum,
    and wraps only the message; each message
    is rescaled to max entry 1 so long eliminations cannot underflow. The
    order is that of one :class:`_MinFill` stepper over the free variables:
    min-fill on the evidence-conditioned graph, or, when ``order`` (a
    permutation of all model variables) is given, that order's subsequence,
    as the stepper's rank on an edgeless graph, where every fill count is 0
    and stays 0. A table that overflowed float64 on the way shows up as a
    non-finite entry and raises ``ValueError``.

    Each call walks its keep on a fork of the min-fill stepper over the free
    variables with the keep's variables dropped, which orders the rest
    exactly as a fresh stepper over them would. Every walk starts from the
    same state, restricted once per evidence, and changes its own lists of
    held factors in place; the lists' entries are immutable tuples, so one
    shallow copy of them per walk does.

    State carries from one call to the next, which is what a greedy run
    needs: it asks for each candidate under one evidence, then adds one
    variable to the evidence. The start without evidence is set up once,
    and each new evidence's start grows the last one when the evidence only
    grew, or that base otherwise, by the variables newly observed: only the
    potentials that hold one are restricted again, and every other keeps its
    object (:meth:`_start`). Each message is kept under its eliminated
    variable and the identities of its bucket's factors, in bucket order, so
    a step that meets the same factors in the same order, in this walk, a
    later one or one under the next evidence, reuses the message: the walks
    under one evidence mostly share their first steps, and those are memo
    hits after the first walk. A memo entry holds its bucket, so no identity
    in a live key is recycled. The memo turns over with the evidence: when a
    call's evidence differs from the last call's, an entry no step looked up
    under the last evidence is dropped. Every table is bit-identical to the
    one a fresh elimination would give.
    """

    __slots__ = ("model", "ordered", "base", "started", "messages", "earlier")

    def __init__(self, model: GraphicalModel, order: Sequence[int] | None = None):
        self.model = model
        rank = _rank(model, order)
        self.ordered = rank is not None
        graph = _interaction_graph(model) if rank is None else [0] * model.n_vars
        holders: list[list[tuple[int, Potential]]] = [[] for _ in range(model.n_vars)]
        for entry in enumerate(model.potentials):
            for v in entry[1].scope:
                holders[v].append(entry)
        observed = tuple(entry for entry in enumerate(model.potentials) if not entry[1].scope)
        # the start without evidence, and the last start :meth:`_start` gave,
        # each as (evidence, stepper, holders, fully observed entries)
        path = _MinFill(graph, range(model.n_vars), rank)
        self.base = ({}, path, tuple(map(tuple, holders)), observed)
        self.started = self.base
        # the messages looked up under the last evidence, and those of the
        # evidence before it not looked up yet
        self.messages: dict[tuple[int, ...], tuple[Potential, float, tuple]] = {}
        self.earlier: dict[tuple[int, ...], tuple[Potential, float, tuple]] = {}

    def table(self, evidence: Evidence, keep: Sequence[int]) -> tuple[Potential, float]:
        """The table over ``keep`` under ``evidence``, and its log scale.

        The table is :func:`_joined` of the keep's factors, in sequence order.
        """
        factors, log_scale = self.held(evidence, keep)
        return _joined(factors, tuple(keep), self.model.cardinalities), log_scale

    def _start(self, evidence: Evidence) -> tuple[_MinFill, tuple[tuple, ...], tuple[tuple, ...]]:
        """Restrict to ``evidence``: the free variables' min-fill stepper and the start state.

        The state is, for each variable, the (sequence number, factor) entries
        whose scope holds it, and the entries of the fully observed
        potentials, which start each walk's list of scalars. Sequence numbers
        follow the factor list (restricted potentials in model order, then
        messages in creation order), so sorting entries by them gives that
        list's order. The start grows the last one when the evidence only
        grew, as from one greedy round to the next, and the base (the start
        without evidence) otherwise: its stepper is copied with each newly
        observed variable removed as observing does (:meth:`_MinFill.drop`,
        no fill edges), and only the potentials that hold one are restricted
        again, from the model's own; every other entry keeps its object.
        Either way the state is the one a fresh elimination's first call
        gives. A new evidence also turns the message memo over: the messages
        looked up under the last evidence become the earlier ones, and the
        earlier ones not looked up again are dropped. The stepper and state
        are kept for the next call, which reuses them, and the memo, when its
        evidence is the same, as every call of a greedy round does. Callers
        copy what they change.
        """
        started = self.started
        if started[0] == evidence:
            return started[1:]
        self.earlier, self.messages = self.messages, {}
        if not started[0].items() <= evidence.items():
            started = self.base
        before, path, holders, observed = started
        new = [v for v in evidence if v not in before]
        path = path.fork(())
        for v in new:
            path.remaining.remove(v)
            path.drop(v)
        cards = self.model.cardinalities
        holding = self.base[2]  # the model's own potentials that hold each variable
        fresh = {i: (i, factor_restrict(p, evidence, cards)) for v in new for i, p in holding[v]}
        holders = list(holders)
        # the variables of the scopes restricted again, before and after
        for u in {u for _, f in fresh.values() for u in f.scope}.union(new):
            holders[u] = tuple(
                fresh.get(entry[0], entry)
                for entry in holders[u]
                if entry[0] not in fresh or u in fresh[entry[0]][1].scope
            )
        observed = tuple(sorted([*observed, *[e for e in fresh.values() if not e[1].scope]]))
        self.started = (dict(evidence), path, tuple(holders), observed)
        return self.started[1:]

    def linked(self, variables: Iterable[int]) -> int:
        """The free variables the last start's graph connects to ``variables``, as a bitmask.

        Only a min-fill core's graph has edges, so under a caller's order,
        whose stepper's graph is edgeless, every free variable counts as linked.
        """
        path = self.started[1]
        return _mask(path.remaining) if self.ordered else _reach(path.adjacency, _mask(variables))

    def _eliminate(
        self, v: int, holders: list, scalars: list, numbers: Iterator[int]
    ) -> tuple[tuple[int, Potential], float]:
        """Sum ``v`` out of the factors ``holders`` gives it: the message's entry and log scale.

        The message goes to the holders of its scope, or to ``scalars`` when
        it has none; the memo gives it when the bucket was met before.
        """
        bucket = holders[v]
        key = (v, *[id(f) for _, f in bucket])
        found = self.messages.get(key)
        if found is None:
            found = self.earlier.pop(key, None)
            if found is None:
                found = (*_sum_message([f for _, f in bucket], v, self.model.cardinalities), bucket)
            self.messages[key] = found
        out, log_peak, _ = found
        entry = (next(numbers), out)
        holders[v] = ()
        for u in out.scope:
            holders[u] = (*[e for e in holders[u] if e not in bucket], entry)
        if not out.scope:
            scalars.append(entry)
        return entry, log_peak

    def held(self, evidence: Evidence, keep: Sequence[int]) -> tuple[list[Potential], float]:
        """Restrict to ``evidence`` and sum out every free variable not in ``keep``.

        The walk starts from the state :meth:`_start` gives: the stepper
        forked without the keep, a copy of the holders, and a list of scalars
        that starts with the fully observed potentials. Returns the factors
        left, each scoped inside the keep, in sequence order, and the log
        scale.
        """
        path, holders, observed = self._start(evidence)
        walk, factors, scalars = path.fork(keep), list(holders), list(observed)
        numbers = itertools.count(len(self.model.potentials))
        log_scale = 0.0
        for v in iter(walk.eliminate_next, None):
            log_scale += self._eliminate(v, factors, scalars, numbers)[1]
        left = dict(scalars)
        for v in keep:
            left.update(factors[v])
        return [f for _, f in sorted(left.items())], log_scale

    def tree(self, evidence: Evidence, variables: Sequence[int]) -> list[np.ndarray]:
        """Each of ``variables``' unnormalised table under ``evidence``, from one bucket tree.

        The upward pass walks the round's min-fill stepper over the free
        variables of the components that hold a requested variable (the stepper
        orders a component's variables alike whatever else it holds), through
        the same steps and message memo as the walks of :meth:`held` under the
        same evidence, and records each step's bucket; the bucket that takes a
        message is its parent. The downward pass (Shafer & Shenoy) visits only
        the buckets on the way from a root to a requested variable's bucket, in
        the reverse order: the message into a bucket sums its parent's other
        factors and the parent's own downward message down to the bucket's
        upward message's scope. A variable's table sums its bucket's factors and
        downward message down to it. :func:`_bucket_sums` takes all of a
        bucket's sums, each by one ``np.einsum`` call on plain arrays, as
        :func:`_bucket_plan` planned them.
        Each downward message is rescaled to max entry 1, so a table's scale,
        and its last bits, are the tree's own; the tables are meant for ranking,
        not for answers. A table holds every factor of its variable's
        component and nothing else, so it is that component's own, up to
        scale: neither the fully observed potentials nor the messages that
        close the other walked components enter it, and a component that holds
        no requested variable is not walked. So a table can have mass where the
        joint has none; the walks find that. The components come from
        :meth:`linked`, which under a caller's order gives every free variable,
        so such a core's tree walks them all.
        """
        path, holders, scalars = self._start(evidence)
        holders, scalars = list(holders), list(scalars)
        numbers = itertools.count(len(self.model.potentials))
        linked = self.linked(variables)
        walk = path.fork([v for v in path.remaining if not linked >> v & 1])
        steps: list[tuple[tuple, tuple[int, Potential]]] = []  # (bucket, message entry)
        order = list(iter(walk.eliminate_next, None))
        at = {v: i for i, v in enumerate(order)}  # each variable's step
        for v in order:  # each bucket as it stands when its variable is eliminated
            steps.append((holders[v], self._eliminate(v, holders, scalars, numbers)[0]))
        # a message goes to the bucket of the first of its variables eliminated
        parent = [min([at[u] for u in entry[1].scope], default=None) for _, entry in steps]
        wanted, children = set(), {}
        for v in variables:
            i = at[v]
            while i not in wanted:
                wanted.add(i)
                if parent[i] is None:
                    break
                children.setdefault(parent[i], []).append(i)
                i = parent[i]
        down: list[tuple | None] = [None] * len(steps)  # (scope, values) into each bucket
        tables: dict[int, np.ndarray] = {}
        requested = {at[v] for v in variables}
        with np.errstate(over="ignore", invalid="ignore"):
            for p in sorted(wanted, reverse=True):  # a parent comes after its children
                bucket = steps[p][0]
                factors = [(f.scope, f.values) for _, f in bucket] + ([down[p]] if down[p] else [])
                scopes, arrays = zip(*factors)
                kids = children.get(p, ())
                outs = [(bucket.index(steps[i][1]), steps[i][1][1].scope) for i in kids]
                if p in requested:
                    outs.append((len(arrays), (order[p],)))
                plan = _bucket_plan(scopes, tuple(outs), self.model.cardinalities)
                sums = _bucket_sums(plan, arrays)
                for i, (_, scope), values in zip(kids, outs, sums):
                    peak = float(values.max())
                    down[i] = (scope, values / peak if peak > 0.0 and peak != 1.0 else values)
                if p in requested:
                    tables[p] = sums[-1]
        return [tables[at[v]] for v in variables]


def _sum_message(
    bucket: Sequence[Potential], v: int, cards: tuple[int, ...]
) -> tuple[Potential, float]:
    """Sum ``v`` out of the product of ``bucket``: the message, rescaled, and its log scale.

    A bucket of fewer than ``_PATH_STATES`` joint states is built: its
    factors are multiplied left to right by :func:`_chain` and ``v``'s axis
    is summed. A larger one is never built; it is summed down to its other
    variables, in order of first appearance, by :func:`_bucket_sums` on
    :func:`_bucket_plan`'s plan for it under the cardinalities ``cards``.
    Either sum is divided by its largest entry (when that is neither 0 nor
    1), whose log is returned.
    """
    # the factors' sizes multiplied bound the joint states, and are cheaper to take
    if len(bucket) > 1 and math.prod([f.values.size for f in bucket]) >= _PATH_STATES:
        held = dict.fromkeys([u for f in bucket for u in f.scope])
        if math.prod([cards[u] for u in held]) >= _PATH_STATES:
            keep = tuple(u for u in held if u != v)
            plan = _bucket_plan(tuple(f.scope for f in bucket), ((len(bucket), keep),), cards)
            return _rescaled(keep, _bucket_sums(plan, [f.values for f in bucket])[0])
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


@functools.lru_cache(maxsize=_PLANS)
def _bucket_plan(
    scopes: tuple[tuple[int, ...], ...],
    outs: tuple[tuple[int, tuple[int, ...]], ...],
    cards: Sequence[int],
) -> tuple:
    """The einsum calls that give one bucket's sums, for :func:`_bucket_sums` to run.

    Each (left out, keep) of ``outs`` asks for the product of the bucket's
    factors but one, summed to ``keep``. The factors' scopes are ``scopes``;
    ``left out`` is the position of the one left out, or the number of
    factors to leave none out, and each ``keep`` lies in the bucket. The
    bucket's variables are labelled once, and each sum is one
    string-subscript ``np.einsum`` call; a ``keep`` variable that only the
    left-out factor holds gets an operand of ones. Past einsum's 52 labels,
    which only one-state variables can make up in tables that fit in memory,
    their axes are dropped and put back on each sum. Past
    ``_EINSUM_FACTORS`` factors (a hub's bucket takes one message per leaf),
    they are folded from the left in parts of that many, each summed down to
    the variables that ``keep`` or the factors after it still hold. A bucket
    of ``_PATH_STATES`` joint states or more gets numpy's greedy
    contraction path, the one ``optimize=True`` would find, so numpy sums it
    pairwise, through BLAS where it can, instead of in one loop over every
    joint state.

    The plan depends on the scopes, ``outs`` and the cardinalities alone, so
    it is made once and kept in this function's memo of ``_PLANS`` plans,
    which drops the least recently used; callers must not change it. It
    is (the shapes to drop one-state axes by and to put them back, or
    ``None``; the operands of ones; per einsum call, its subscripts, where
    its operands sit among the factors, the ones and the calls before it,
    and its path or ``False``; where each sum sits).
    """
    held = dict.fromkeys([u for scope in scopes for u in scope])
    if len(held) > len(_LABELS):
        narrow = tuple(tuple(u for u in scope if cards[u] > 1) for scope in scopes)
        wide = tuple((j, tuple(u for u in keep if cards[u] > 1)) for j, keep in outs)
        shapes = [[cards[u] for u in s] for s in narrow], [[cards[u] for u in k] for _, k in outs]
        return shapes, *_bucket_plan(narrow, wide, cards)[1:]
    label = dict(zip(held, _LABELS)).__getitem__
    size = {label(u): cards[u] for u in held}
    terms = ["".join(map(label, scope)) for scope in scopes]
    large = math.prod(size.values()) >= _PATH_STATES
    # a keep variable that only the left-out factor holds gets an operand of ones
    rest = [scopes[:j] + scopes[j + 1 :] for j, _ in outs]  # the scopes each sum multiplies
    alone = [[u for u in k if all(u not in s for s in r)] for r, (_, k) in zip(rest, outs)]
    ones = [np.ones([cards[u] for u in a]) for a in alone if a]
    calls, ends, numbers = [], [], itertools.count(len(terms))
    for (j, keep), a in zip(outs, alone):
        out, part = "".join(map(label, keep)), [(t, i) for i, t in enumerate(terms) if i != j]
        if a:
            part.append(("".join(map(label, a)), next(numbers)))
        while True:  # fold from the left, then sum to ``out``
            head, part = part[:_EINSUM_FACTORS], part[_EINSUM_FACTORS:]
            kept = out + "".join([t for t, _ in part])
            to = "".join(dict.fromkeys(c for t, _ in head for c in t if c in kept)) if part else out
            spec = ",".join([t for t, _ in head]) + "->" + to
            dummies = large and [np.broadcast_to(0.0, [size[c] for c in t]) for t, _ in head]
            path = large and np.einsum_path(spec, *dummies)[0]  # the path optimize=True finds
            calls.append((spec, [i for _, i in head], path))
            if not part:
                break
            part.insert(0, (to, len(terms) + len(ones) + len(calls) - 1))
        ends.append(len(terms) + len(ones) + len(calls) - 1)
    return None, ones, calls, ends


def _bucket_sums(plan: tuple, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The sums :func:`_bucket_plan` planned, of one bucket's factors ``arrays``."""
    shapes, ones, calls, ends = plan
    if shapes is not None:
        arrays = [a.reshape(s) for a, s in zip(arrays, shapes[0])]
    operands = [*arrays, *ones]
    for spec, take, path in calls:
        operands.append(np.einsum(spec, *[operands[i] for i in take], optimize=path))
    sums = [operands[i] for i in ends]
    return sums if shapes is None else [x.reshape(s) for x, s in zip(sums, shapes[1])]


def _joined(factors: Iterable[Potential], keep: tuple[int, ...], cards: Sequence[int]) -> Potential:
    """The product of ``factors``, each with scope inside ``keep``, as a table over ``keep``."""
    _, values = _chain(keep, np.ones([cards[v] for v in keep]), factors)
    _check_finite(values)
    return Potential._result(keep, values)


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("table entries must be finite: a product of potentials overflowed")


def _log_z(model: GraphicalModel) -> tuple[float, float]:
    """The log partition function as (log of the summed-out table, its log scale).

    Computed once per model under a min-fill order and kept on the instance;
    the model is immutable, so the stored value never goes stale. A model
    whose joint mass is zero raises :class:`ZeroProbabilityEvidenceError`:
    ``pr``, the greedy's p~ and the oracle all come through here.
    """
    cached = vars(model).get("_log_z")
    if cached is None:
        table, log_scale = _Elimination(model).table({}, ())
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
    applies to the evidence-restricted sum only, as a fixed priority on the
    same elimination stepper, which then does no fill work; the partition
    function always comes from a per-model cache computed under a min-fill
    order, so results under different orders agree up to rounding.
    ``order`` is checked once: by the elimination, or here when the
    evidence is empty and nothing is eliminated. A model whose joint mass
    is zero raises :class:`ZeroProbabilityEvidenceError`, as every query
    does, with or without evidence. On a model with mass, empty evidence
    gives exactly 1 and structurally impossible evidence gives 0.
    """
    evidence = validate_evidence(model, evidence)
    if not evidence:
        _rank(model, order)
        _log_z(model)
        return 1.0
    table, log_num = _Elimination(model, order).table(evidence, ())
    return _over_z(model, float(table.values), log_num)


def _over_z(model: GraphicalModel, mass: float, log_scale: float) -> float:
    """``mass * exp(log_scale)`` divided by the model's partition function.

    The ratio is taken in log space, exp(log mass - log Z + the log scales),
    so neither factor has to fit in a float64 by itself. Z comes first: a
    model whose joint mass is zero raises
    :class:`ZeroProbabilityEvidenceError` from :func:`_log_z`, whatever
    ``mass``. On a model with mass, zero ``mass`` gives 0.
    """
    log_den, log_den_scale = _log_z(model)
    if mass == 0.0:
        return 0.0
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
    normalization. Evidence of probability zero raises
    :class:`ZeroProbabilityEvidenceError`, which names the model instead
    when its joint mass is zero.
    """
    evidence, (variable,) = _check_explain(model, evidence, (variable,))
    table, _ = _Elimination(model, order).table(evidence, (variable,))
    try:
        return normalize(table)
    except ZeroProbabilityEvidenceError:
        _log_z(model)
        raise ZeroProbabilityEvidenceError(
            f"evidence {evidence} has probability zero"
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
    _check_integer(cap, "cap", 1)
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
    A model whose joint mass is zero raises
    :class:`ZeroProbabilityEvidenceError`, whatever the evidence and the
    explanation; on a model with mass, evidence of probability zero gives
    the all-zero assignment with probability 0. The name is kept for API
    stability; nothing is enumerated.
    """
    _check_integer(cap, "cap", 1)
    evidence, explain = _check_explain(model, evidence, explain)
    states = math.prod(model.cardinalities[v] for v in explain)
    if states > cap:
        raise OracleTooLargeError(f"{states} explained states exceed the cap of {cap}")

    factors, log_num = _Elimination(model).held(evidence, explain)
    traceback = []
    for v in reversed(explain):
        bucket = [f for f in factors if v in f.scope]
        factors = [f for f in factors if v not in f.scope]
        message, log_peak, argmax = _max_message(bucket, v)
        traceback.append((v, message.scope, argmax))
        factors.append(message)
        log_num += log_peak
    peak = float(_joined(factors, (), model.cardinalities).values)  # factors left are scalars
    probability = _over_z(model, peak, log_num)
    if peak == 0.0:
        return MmapSolution(dict.fromkeys(explain, 0), probability)
    assignment: dict[int, int] = {}
    for v, scope, argmax in reversed(traceback):
        assignment[v] = int(argmax[tuple(assignment[u] for u in scope)])
    return MmapSolution(assignment, probability)

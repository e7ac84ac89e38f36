"""Variable elimination, entropy, and the brute-force oracles."""

import contextvars
import functools
import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from margmap import (
    BenchmarkSpec,
    GraphicalModel,
    MassFunction,
    OracleTooLargeError,
    Potential,
    ZeroProbabilityEvidenceError,
    brute_force_joint,
    brute_force_mmap,
    entropy,
    epsilon_mmap2mar,
    factor_marginalize,
    factor_product,
    mar,
    min_fill_order,
    mmap2mar,
    pr,
    run_benchmark,
)
from margmap import heuristic, inference
from margmap.generate import random_grid_model, random_model
from margmap.inference import (
    _PATH_STATES,
    _Elimination,
    _fill_count,
    _joined,
    _max_message,
    _MinFill,
    _shared,
    _sharing,
    _sum_message,
)
from margmap.uaiio import parse_uai, write_uai

from conftest import (
    WEATHER_JOINT,
    differential_models,
    enumerated_joint,
    entropy_by_formula,
    eval_potential,
    hub_model,
    joint_by_enumeration,
    mar_by_enumeration,
    pr_by_enumeration,
    random_evidence,
    reference_min_fill_order,
    reference_sum_out,
    trace_bits,
)


def _random_evidence(model, k, rng):
    variables = rng.choice(model.n_vars, size=k, replace=False)
    return {int(v): int(rng.integers(model.cardinalities[v])) for v in variables}


def _without(graph, variables):
    """Adjacency bitmasks ``graph`` with ``variables`` removed, recounted from scratch."""
    return [
        0 if v in variables else nbrs & ~sum(1 << u for u in variables)
        for v, nbrs in enumerate(graph)
    ]


class TestMinFillOrder:
    def test_empty_set(self, weather):
        assert min_fill_order(weather, set()) == ()

    def test_chain_produces_no_fill(self):
        rng = np.random.default_rng(0)
        chain = GraphicalModel(
            (2, 2, 2),
            (
                Potential((0, 1), rng.uniform(0.1, 1, (2, 2))),
                Potential((1, 2), rng.uniform(0.1, 1, (2, 2))),
            ),
        )
        order = min_fill_order(chain, {0, 1, 2})
        assert sorted(order) == [0, 1, 2]
        # replay the elimination on the interaction graph: no step may add an edge
        adjacency = {0: {1}, 1: {0, 2}, 2: {1}}
        for v in order:
            nbrs = adjacency.pop(v)
            for a in nbrs:
                for b in nbrs:
                    if a < b:
                        assert b in adjacency[a]
                adjacency[a].discard(v)

    def test_targets_must_be_model_variables(self, weather):
        with pytest.raises(ValueError):
            min_fill_order(weather, {9})

    @pytest.mark.parametrize("evidence", [[7], [2], [-1]])
    def test_evidence_must_be_model_variables(self, weather, evidence):
        with pytest.raises(ValueError, match="evidence variables must be model variables"):
            min_fill_order(weather, [0], evidence=evidence)

    def test_evidence_must_not_be_eliminated(self, weather):
        with pytest.raises(ValueError, match="must be disjoint"):
            min_fill_order(weather, [0, 1], evidence=[0])
        assert min_fill_order(weather, [1], evidence=[0]) == (1,)

    def test_pr_is_order_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            model = random_model(int(rng.integers(3, 13)), rng=rng)
            evidence = _random_evidence(model, int(rng.integers(1, 3)), rng)
            identity = tuple(range(model.n_vars))
            a = pr(model, evidence)
            b = pr(model, evidence, order=identity)
            assert b == pytest.approx(a, rel=1e-9)


    def test_matches_the_recount_everything_reference(self):
        rng = np.random.default_rng(62)
        # 9x9 has 81 variables, so the adjacency bitmasks cross a 64-bit machine word
        grids = [
            random_grid_model(r, c, 2, rng=rng) for r, c in [(4, 4), (5, 6), (6, 6), (3, 8), (9, 9)]
        ]
        for model in differential_models(62) + grids:
            n = model.n_vars
            evidence = random_evidence(model, rng, max_size=4)
            size = int(rng.integers(0, n + 1))
            drawn = rng.choice(n, size=size, replace=False)
            eliminate = [int(v) for v in drawn if v not in evidence]  # targets must be unobserved
            assert min_fill_order(model, eliminate, evidence) == reference_min_fill_order(
                model, eliminate, evidence
            )
            assert min_fill_order(model, range(n)) == reference_min_fill_order(model, range(n))

    def test_fill_counts_stay_those_of_a_recount_on_the_path_and_its_forks(self):
        rng = np.random.default_rng(64)
        order_rng = np.random.default_rng(65)  # the min-fill walks keep their own draws

        def check(stepper):
            for v in stepper.remaining:
                assert stepper.fill[v] == _fill_count(stepper.adjacency, v)

        def untouched(stepper):
            assert not any(stepper.adjacency) and not any(stepper.fill)

        def walk(path, rng, check):
            """Step ``path`` to its end, forking at random steps, checking after every step.

            Returns the path's picks and, per fork, how many picks came before
            it, the targets it dropped and its own picks.
            """
            check(path)
            picks, forks = [], []
            while path.remaining:
                if rng.random() < 0.2:
                    size = int(rng.integers(0, len(path.remaining) + 1))
                    dropped = {int(v) for v in rng.choice(path.remaining, size=size, replace=False)}
                    fork = path.fork(dropped)
                    check(fork)
                    taken = []
                    while (v := fork.eliminate_next()) is not None:
                        taken.append(v)
                        check(fork)
                    forks.append((len(picks), dropped, taken))
                picks.append(path.eliminate_next())
                check(path)
            return picks, forks

        for _ in range(60):
            # up to 90 vertices, so the adjacency bitmasks cross a 64-bit machine word
            n = int(rng.integers(1, 91))
            edges = np.triu(rng.random((n, n)) < rng.uniform(0.02, 0.3), 1)
            graph = [0] * n
            for a, b in zip(*np.nonzero(edges)):
                graph[a] |= 1 << int(b)
                graph[b] |= 1 << int(a)
            drawn = rng.choice(n, size=int(rng.integers(0, n // 4 + 1)), replace=False)
            observed = [int(v) for v in drawn]
            free = [v for v in range(n) if v not in observed]
            # the free vertices left out stay in the graph as non-targets
            targets = [v for v in free if rng.random() < 0.8]
            walk(_MinFill(_without(graph, observed), targets), rng, check)
            # observing by drop, as every elimination's start does, gives the conditioned graph
            dropped = _MinFill(graph, range(n))
            for v in observed:
                dropped.drop(v)
            conditioned = _without(graph, observed)
            assert dropped.adjacency == conditioned
            assert dropped.fill == [
                nbrs and _fill_count(conditioned, v) for v, nbrs in enumerate(conditioned)
            ]

            # a caller's order: its rank on the edgeless graph an ordered elimination steps
            order = [int(v) for v in order_rng.permutation(n)]
            sequence = [v for v in order if v in targets]
            rank = {v: i for i, v in enumerate(order)}.__getitem__
            ordered = _MinFill(_without([0] * n, observed), targets, rank)
            picks, forks = walk(ordered, order_rng, untouched)
            assert picks == sequence
            for before, dropped, taken in forks:
                assert taken == [v for v in sequence[before:] if v not in dropped]


def _check_against_reference(table, log_scale, reference, reference_log_scale, largest):
    """The engine's table and log scale against ``reference_sum_out``'s.

    Bit for bit when every bucket of the elimination has fewer than
    ``_PATH_STATES`` joint states, the ones the engine builds as the
    reference does. From that size on the engine sums along a planned
    einsum contraction path, whose additions run in their own order, so
    there they agree within 1e-12 relative. Returns which of the two held.
    """
    if largest < _PATH_STATES:
        assert np.array_equal(table.values, reference.values)
        assert log_scale == reference_log_scale
        return "product"
    np.testing.assert_allclose(table.values, reference.values, rtol=1e-12, atol=0.0)
    assert log_scale == pytest.approx(reference_log_scale, rel=1e-12, abs=1e-12)
    return "path"


def _restricted(elimination):
    """The last start's restricted potentials by model index, read from its holders."""
    _, _, holders, observed = elimination.started
    return dict(entry for entries in (*holders, observed) for entry in entries)


class TestSharedElimination:
    def test_each_table_is_bit_identical_to_a_fresh_elimination(self):
        rng = np.random.default_rng(61)
        for model in differential_models(61):
            evidence = random_evidence(model, rng)
            free = [v for v in range(model.n_vars) if v not in evidence]
            for order in (None, tuple(int(v) for v in rng.permutation(model.n_vars))):
                if order is None:
                    path = reference_min_fill_order(model, free, evidence)
                else:
                    path = [v for v in order if v in free]
                singles = [(v,) for v in free]
                keeps = singles + singles[::-1] + [tuple(free[:2]), (), singles[0]]
                if len(path) >= 3:
                    # two multi-variable keeps from the middle of the min-fill order
                    mid = len(path) // 2 - 1
                    keeps += [path[mid : mid + 2], (path[mid + 2], path[mid])]
                # one core answers every keep in turn, so later keeps meet earlier ones' messages
                elimination = _Elimination(model, order)
                for keep in keeps:
                    table, log_scale = elimination.table(evidence, keep)
                    fresh, fresh_log_scale = _Elimination(model, order).table(evidence, keep)
                    assert table.scope == fresh.scope == tuple(keep)
                    assert np.array_equal(table.values, fresh.values)
                    assert log_scale == fresh_log_scale
                    reference = reference_sum_out(model, evidence, keep, order)
                    assert reference[0].scope == tuple(keep)
                    _check_against_reference(table, log_scale, *reference)

    def test_state_carried_across_evidences_is_bit_identical_to_a_fresh_elimination(self):
        rng = np.random.default_rng(63)
        kernels = set()
        for model in differential_models(63):
            for order in (None, tuple(int(v) for v in rng.permutation(model.n_vars))):
                elimination = _Elimination(model, order)
                previous = None
                for evidence in _evidence_sequence(model, rng):
                    before = _restricted(elimination)
                    free = [v for v in range(model.n_vars) if v not in evidence]
                    keeps = [(v,) for v in free] + [()]
                    for keep in keeps:
                        table, log_scale = elimination.table(evidence, keep)
                        fresh, fresh_log_scale = _Elimination(model, order).table(evidence, keep)
                        reference = reference_sum_out(model, evidence, keep, order)
                        assert table.scope == fresh.scope == reference[0].scope == keep
                        assert np.array_equal(table.values, fresh.values)
                        assert log_scale == fresh_log_scale
                        kernels.add(_check_against_reference(table, log_scale, *reference))
                    # grown evidence keeps the restricted object of a potential that
                    # holds no newly observed variable; any other evidence starts anew
                    after = _restricted(elimination)
                    for i, p in enumerate(model.potentials):
                        if previous is not None and previous.items() <= evidence.items():
                            grown = evidence.keys() - previous.keys()
                            assert (after[i] is before[i]) == grown.isdisjoint(p.scope)
                        assert (after[i] is p) == evidence.keys().isdisjoint(p.scope)
                    previous = evidence
        assert kernels == {"product", "path"}

    @pytest.mark.parametrize("change", ["grow", "drop", "change"])
    def test_only_the_potentials_holding_a_changed_evidence_are_restricted_again(self, change):
        rng = np.random.default_rng(64)
        compared = 0
        for model in differential_models(64):
            first = random_evidence(model, rng, max_size=3)
            second = dict(first)
            if change == "grow":
                free = [v for v in range(model.n_vars) if v not in first]
                v = int(rng.choice(free))
                second[v] = int(rng.integers(model.cardinalities[v]))
            elif change == "drop" and first:
                del second[int(rng.choice(list(first)))]
            elif change == "change" and any(model.cardinalities[v] > 1 for v in first):
                v = next(v for v in first if model.cardinalities[v] > 1)
                second[v] = (second[v] + 1) % model.cardinalities[v]
            else:
                continue
            moved = {v for v in first.keys() | second.keys() if first.get(v) != second.get(v)}
            elimination, fresh = _Elimination(model), _Elimination(model)
            elimination.table(first, ())
            before = _restricted(elimination)
            for keep in [(v,) for v in range(model.n_vars) if v not in second] + [()]:
                table, log_scale = elimination.table(second, keep)
                again, again_log_scale = fresh.table(second, keep)
                assert table.values.tobytes() == again.values.tobytes()
                assert log_scale == again_log_scale
            after, again = _restricted(elimination), _restricted(fresh)
            for i, p in enumerate(model.potentials):
                assert after[i].scope == again[i].scope
                assert after[i].values.tobytes() == again[i].values.tobytes()
                # only grown evidence carries the last start; a potential holding no
                # observed variable is the model's own
                if change == "grow":
                    assert (after[i] is before[i]) == moved.isdisjoint(p.scope)
                assert (after[i] is p) == second.keys().isdisjoint(p.scope)
            compared += 1
        assert compared >= 60

    def test_each_greedy_round_starts_as_a_fresh_elimination_does(self, monkeypatch):
        # from round 2 on, the start is the last one's, carried to the grown evidence
        def entries(state):
            return [[(n, f.scope, f.values.tobytes()) for n, f in h] for h in state]

        scored = heuristic._score_round
        checked = []

        def checking(elimination, log, working, targets):
            result = scored(elimination, log, working, targets)
            path, holders, observed = elimination.started[1:]
            again, again_holders, again_observed = _Elimination(elimination.model)._start(working)
            assert path.remaining == again.remaining
            assert path.adjacency == again.adjacency
            assert path.fill == again.fill
            order = list(iter(path.fork(()).eliminate_next, None))
            assert order == list(iter(again.fork(()).eliminate_next, None))
            assert entries(holders) == entries(again_holders)
            assert entries([observed]) == entries([again_observed])
            checked.append(len(working))
            return result

        monkeypatch.setattr(heuristic, "_score_round", checking)
        rng = np.random.default_rng(66)
        hub = hub_model(70, rng)
        instances = [(model, random_evidence(model, rng)) for model in differential_models(66)]
        instances += [(hub, {30: 1}), (hub, {})]
        for model, evidence in instances:
            targets = [
                v for v in range(model.n_vars) if v not in evidence and model.cardinalities[v] >= 2
            ]
            if targets:
                try:
                    mmap2mar(model, targets, evidence)
                except ZeroProbabilityEvidenceError:
                    pass
        assert len(checked) >= 500

    def test_each_table_joins_its_held_factors_bit_for_bit(self):
        rng = np.random.default_rng(65)
        for model in differential_models(65):
            cards = model.cardinalities
            # one evidence on its own, then a sequence carried across calls
            for evidences in ([random_evidence(model, rng)], _evidence_sequence(model, rng)):
                elimination, twin = _Elimination(model), _Elimination(model)
                for evidence in evidences:
                    free = [v for v in range(model.n_vars) if v not in evidence]
                    # single variables of mixed cardinalities, one of them twice, and the empty keep
                    keeps = [(v,) for v in free] + [(free[0],), ()]
                    for keep in keeps:
                        table, log_scale = elimination.table(evidence, keep)
                        factors, held_scale = twin.held(evidence, keep)
                        assert all(set(f.scope) <= set(keep) for f in factors)
                        fresh, fresh_log_scale = _Elimination(model).table(evidence, keep)
                        assert table.scope == keep
                        assert table.values.shape == tuple(cards[v] for v in keep)
                        joined = _joined(factors, keep, cards)
                        assert table.values.tobytes() == joined.values.tobytes()
                        assert table.values.tobytes() == fresh.values.tobytes()
                        assert log_scale == held_scale == fresh_log_scale
                        assert not table.values.flags.writeable
                        with pytest.raises(ValueError, match="read-only"):
                            table.values[...] = 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_overflowing_table_raises(self):
        model = GraphicalModel(
            (2, 2, 3),
            (
                Potential((0, 1), np.full((2, 2), 1e200)),
                Potential((1,), [1e200, 1e200]),
                Potential((2,), [1.0, 2.0, 3.0]),
            ),
        )
        message = "table entries must be finite: a product of potentials overflowed"
        # under {0: 0}, keep (1,)'s own two factors multiply to 1e400; the other keeps
        # sum variable 1 out of that product on the way
        for keeps in ([(1,)], [(2,), (1,), (1,), ()], [()]):
            elimination = _Elimination(model)
            for keep in keeps:  # every keep on one core, each after the last one raised
                with pytest.raises(ValueError) as raised:
                    elimination.table({0: 0}, keep)
                assert str(raised.value) == message

    def test_the_message_memo_turns_over_with_the_evidence(self, monkeypatch):
        # two chains, 0-1-2 and 3-4-5: evidence on the second leaves the first's messages alone
        rng = np.random.default_rng(70)
        scopes = [(0,), (0, 1), (1, 2), (3,), (3, 4), (4, 5)]
        model = GraphicalModel(
            (2,) * 6, tuple(Potential(s, rng.uniform(0.1, 2.0, (2,) * len(s))) for s in scopes)
        )
        computed = []  # the variable each computed message sums out
        sum_message = inference._sum_message

        def counting(bucket, v, cards):
            computed.append(v)
            return sum_message(bucket, v, cards)

        monkeypatch.setattr(inference, "_sum_message", counting)
        first, grown, full = {3: 0}, {3: 0, 4: 1}, {3: 0, 4: 1, 5: 0}

        def check(elimination, evidence, keep):
            """The variables of the messages the call computed; its table is a fresh core's."""
            computed.clear()
            table, log_scale = elimination.table(evidence, keep)
            mine = sorted(computed)
            fresh, fresh_log_scale = _Elimination(model).table(evidence, keep)
            assert table.values.tobytes() == fresh.values.tobytes()
            assert log_scale == fresh_log_scale
            return mine

        elimination = _Elimination(model)
        assert check(elimination, first, (0,)) == [1, 2, 4, 5]
        # the same question under the same evidence computes no message
        assert check(elimination, first, (0,)) == []
        # another keep under the same evidence does not look up 1's and 2's messages ...
        assert check(elimination, first, (1, 2)) == [0]
        # ... but the calls under one evidence share one generation of the memo, so grown
        # evidence reuses every message of the last evidence: only 5's bucket changed
        assert check(elimination, grown, (0,)) == [5]
        # the chain 0-1-2's messages were looked up under the last evidence, so they live on
        assert check(elimination, full, (0,)) == []

        elimination = _Elimination(model)
        assert check(elimination, first, (0,)) == [1, 2, 4, 5]
        # under the grown evidence nothing looks up the messages that sum out 1 and 2 ...
        assert check(elimination, grown, (1, 2)) == [0, 5]
        # ... so they are gone once the next evidence starts, and are computed again
        assert check(elimination, full, (0,)) == [1, 2]


class TestBucketTree:
    """``_Elimination.tree``: every variable's table from one upward and one downward pass."""

    def test_tables_match_mar_and_the_enumeration(self):
        rng = np.random.default_rng(67)
        gap = 0.0  # the largest |tree entropy - walk entropy| seen
        for model in differential_models(67):
            joint = enumerated_joint(model)
            if joint.size <= 1 << 8:  # a loop over one joint state at a time is slow on the others
                by_state = []
                for state in itertools.product(*map(range, model.cardinalities)):
                    value = 1.0
                    for p in model.potentials:
                        value *= eval_potential(p, dict(enumerate(state)))
                    by_state.append(value)
                assert joint.ravel().tolist() == by_state
                assert joint.ravel().tolist() == list(joint_by_enumeration(model).values())
            # an evidence sequence as a greedy meets it, and one evidence under a caller's order
            permutation = tuple(int(v) for v in rng.permutation(model.n_vars))
            for order, evidences in (
                (None, _evidence_sequence(model, rng)),
                (permutation, [random_evidence(model, rng)]),
            ):
                elimination = _Elimination(model, order)
                for evidence in evidences:
                    # a round's bucket tree, then the walks on the same state
                    free = [v for v in range(model.n_vars) if v not in evidence]
                    tree = elimination.tree(evidence, free)
                    forks = [elimination.table(evidence, (v,)) for v in free]
                    at = tuple(evidence.get(v, slice(None)) for v in range(model.n_vars))
                    for i, (v, (table, h), (fork, _)) in enumerate(zip(free, tree, forks)):
                        assert table.shape == (model.cardinalities[v],)
                        # a table is its own component's alone, up to scale: without
                        # mass there, the joint has none; with it, another component
                        # or a fully observed potential may still have none
                        mass = float(table.sum())
                        assert (h is None) == (mass == 0.0)
                        if mass == 0.0:
                            assert float(fork.values.sum()) == 0.0
                        if float(fork.values.sum()) == 0.0:
                            continue
                        probs = table / mass
                        np.testing.assert_allclose(
                            probs, mar(model, evidence, v, order=order).probs, rtol=0.0, atol=1e-12
                        )
                        axes = tuple(j for j in range(len(free)) if j != i)
                        enumerated = joint[at].sum(axis=axes)
                        np.testing.assert_allclose(
                            probs, enumerated / enumerated.sum(), rtol=0.0, atol=1e-9
                        )
                        fork_entropy = inference._entropy(fork.values / fork.values.sum())
                        gap = max(gap, abs(inference._entropy(probs) - fork_entropy))
                        gap = max(gap, abs(h - fork_entropy))
        assert gap < 1e-12  # far below the greedy's tie line of 1e-9

    def test_a_hub_bucket_of_more_factors_than_einsum_takes(self):
        model = hub_model(70, np.random.default_rng(68))
        for evidence in ({}, {5: 0, 60: 1}):
            free = [v for v in range(model.n_vars) if v not in evidence]
            tables = _Elimination(model).tree(evidence, free)
            for v, (table, _) in zip(free, tables):
                np.testing.assert_allclose(
                    table / table.sum(), mar(model, evidence, v).probs, rtol=0.0, atol=1e-12
                )

    def test_large_clusters_match_mar(self, monkeypatch):
        # every min-fill cluster of a 12-state 4x4 grid but the last few holds 12^5 entries
        model = random_grid_model(4, 4, 12, rng=np.random.default_rng(69), sigma=1.0)
        sizes = []  # the joint states of each bucket the tree planned its sums for
        bucket_plan = inference._bucket_plan

        def sizing(scopes, outs, cards):
            sizes.append(math.prod(cards[u] for u in set().union(*scopes)))
            return bucket_plan(scopes, outs, cards)

        monkeypatch.setattr(inference, "_bucket_plan", sizing)
        for evidence in ({}, {5: 3, 10: 7}):
            free = [v for v in range(16) if v not in evidence]
            tables = _Elimination(model).tree(evidence, free)
            assert max(sizes) >= _PATH_STATES  # the walks of ``mar`` below plan theirs too
            for v, (table, _) in zip(free, tables):
                np.testing.assert_allclose(
                    table / table.sum(), mar(model, evidence, v).probs, rtol=0.0, atol=1e-12
                )

    def test_a_component_without_requested_variables_is_not_walked(self):
        # component {0} has no mass; the tables of {1, 2} are their component's alone
        model = GraphicalModel(
            (2, 2, 2),
            (Potential((0,), [0.0, 0.0]), Potential((1, 2), [[1.0, 2.0], [3.0, 4.0]])),
        )
        tables = _Elimination(model).tree({}, [1, 2])
        np.testing.assert_allclose([t / t.sum() for t, _ in tables], [[0.3, 0.7], [0.4, 0.6]], atol=1e-15)

    @staticmethod
    def _memo(monkeypatch, size):
        """A fresh memo of ``size`` bucket sum plans in place of ``_bucket_plan``'s own."""
        memo = functools.lru_cache(maxsize=size)(inference._bucket_plan.__wrapped__)
        monkeypatch.setattr(inference, "_bucket_plan", memo)
        return memo

    def test_a_second_run_on_a_model_plans_no_sum_again(self, monkeypatch):
        # unobserved, the first rounds' buckets reach 12^5 joint states and get
        # contraction paths; every bucket's plan is kept in the memo
        model = random_grid_model(5, 5, 12, rng=np.random.default_rng(0), sigma=1.0)
        paths = []
        einsum_path = np.einsum_path

        def path(*operands, **options):
            paths.append(operands[0])
            return einsum_path(*operands, **options)

        monkeypatch.setattr(np, "einsum_path", path)
        memo = self._memo(monkeypatch, inference._PLANS)
        first = mmap2mar(model, range(25))
        made = memo.cache_info()
        assert paths and made.misses == made.currsize < inference._PLANS
        paths.clear()
        second = mmap2mar(model, range(25))
        assert paths == [] and memo.cache_info().misses == made.misses
        assert trace_bits(second) == trace_bits(first)

    def test_a_model_parsed_again_plans_no_sum_again(self, monkeypatch):
        # the plans depend on scopes and cardinalities alone, so a second model
        # parsed from the same text, as each bench operation parses its own, uses
        # the first one's plans
        text = write_uai(random_grid_model(4, 4, 3, rng=np.random.default_rng(3), sigma=1.0))
        evidence, targets = {5: 2, 10: 0}, [v for v in range(16) if v not in (5, 10)]
        memo = self._memo(monkeypatch, inference._PLANS)
        first = mmap2mar(parse_uai(text), targets, evidence)
        made = memo.cache_info().misses
        assert made
        second = mmap2mar(parse_uai(text), targets, evidence)
        assert memo.cache_info().misses == made
        assert trace_bits(second) == trace_bits(first)

    def test_the_plans_kept_on_a_model_are_capped(self, monkeypatch):
        # each new evidence leaves new bucket scopes, so new plans, for the tree's
        # buckets and for a walk's large ones; the memo keeps the most recent ones
        # and makes an evicted one again, and no answer changes
        model = random_grid_model(4, 4, 2, rng=np.random.default_rng(7), sigma=1.0)
        rng = np.random.default_rng(8)
        runs = []
        for _ in range(12):
            observed = rng.choice(16, size=3, replace=False)
            evidence = {int(v): int(rng.integers(2)) for v in observed}
            runs.append(([v for v in range(16) if v not in evidence], evidence))
        expected = [trace_bits(mmap2mar(model, *run)) for run in runs]
        # a 12-state grid's walks meet buckets of 12^5 joint states, and plan their sums
        wide = random_grid_model(4, 4, 12, rng=np.random.default_rng(9), sigma=1.0)
        queries = [(e, v) for e in ({}, {0: 3}) for v in range(16) if v not in e]
        fresh = [mar(wide, *q).probs.tobytes() for q in queries]
        memo = self._memo(monkeypatch, 40)
        for run, bits in zip(runs, expected):
            assert trace_bits(mmap2mar(model, *run)) == bits
            assert memo.cache_info().currsize <= 40
        assert memo.cache_info().misses > 2 * 40  # the cap was passed, more than once
        memo = self._memo(monkeypatch, 10)
        for query, bits in zip(queries, fresh):
            assert mar(wide, *query).probs.tobytes() == bits
            assert memo.cache_info().currsize <= 10
        assert memo.cache_info().misses > 2 * 10

    def test_only_the_requested_variables_are_answered(self):
        model = random_grid_model(3, 3, 2, rng=np.random.default_rng(5))
        full = [t for t, _ in _Elimination(model).tree({4: 1}, [v for v in range(9) if v != 4])]
        some = [t for t, _ in _Elimination(model).tree({4: 1}, [8, 0])]
        np.testing.assert_allclose(some[0] / some[0].sum(), full[7] / full[7].sum(), atol=1e-15)
        np.testing.assert_allclose(some[1] / some[1].sum(), full[0] / full[0].sum(), atol=1e-15)


class TestTreeCarry:
    """The bucket tree's tables and entropies that the core keeps from one evidence to the next."""

    @staticmethod
    def _cut_grid():
        """A 6x6 grid whose observed column 2 and row 3 cut it into four components."""
        model = random_grid_model(6, 6, 2, rng=np.random.default_rng(95), sigma=1.0)
        evidence = {v: v % 2 for v in range(36) if v % 6 == 2 or v // 6 == 3}
        return model, evidence, [v for v in range(36) if v not in evidence]

    def test_grown_evidence_recomputes_only_the_components_it_reaches(self):
        model, evidence, free = self._cut_grid()
        elimination = _Elimination(model)
        first = dict(zip(free, elimination.tree(evidence, free)))
        # the same evidence computes nothing
        assert all(pair is first[v] for v, pair in zip(free, elimination.tree(evidence, free)))
        for observed, component in ((0, {1, 6, 7, 12, 13}), (35, {27, 28, 29, 33, 34})):
            evidence = {**evidence, observed: 1}
            free.remove(observed)
            tables = elimination.tree(evidence, free)
            fresh = _Elimination(model).tree(evidence, free)
            for v, pair, (table, h) in zip(free, tables, fresh):
                assert (pair is first[v]) == (v not in component)
                np.testing.assert_array_equal(pair[0], table)
                assert pair[1] == h
            first = dict(zip(free, tables))

    def test_nothing_is_carried_past_evidence_that_did_not_grow(self):
        model, evidence, free = self._cut_grid()
        flipped = {**evidence, 2: 1 - evidence[2]}  # another state of an observed variable
        shrunk = {v: s for v, s in evidence.items() if v != 2}
        for then, asked in ((flipped, free), (shrunk, [*free, 2])):
            elimination = _Elimination(model)
            first = elimination.tree(evidence, free)
            assert not any(t is u for t in elimination.tree(then, asked) for u in first)

    def test_a_table_that_overflowed_has_no_entropy(self):
        # the upward pass sums the potential over the one state of 0 and rescales
        # it, so the table of 1 is uniform; the table of 0 sums the potential over
        # the three states of 1 at once, past float64's largest value
        model = GraphicalModel((1, 3), (Potential((0, 1), np.full((1, 3), 1e308)),))
        (zero, h_zero), (one, h_one) = _Elimination(model).tree({}, [0, 1])
        assert np.isinf(zero).all() and h_zero is None
        assert one.tolist() == [1.0, 1.0, 1.0] and h_one == pytest.approx(1.0, abs=1e-15)


class TestBucketKernel:
    """The one-pass bucket kernel against a chain of the public pairwise factor ops."""

    @staticmethod
    def _buckets():
        """Random buckets: permuted scopes, shared variables, scalar and single factors.

        Every third bucket draws cardinalities 8 to 10, where numpy sums a
        message's entries pairwise, so its last bits depend on the memory
        layout of the bucket's product.
        """
        rng = np.random.default_rng(81)
        for i in range(600):
            n = int(rng.integers(1, 5))
            low, high = (8, 11) if i % 3 == 0 else (1, 5)
            cards = tuple(int(c) for c in rng.integers(low, high, size=n))
            v = int(rng.integers(n))
            size = 1 if i % 7 == 0 else int(rng.integers(2, 5))
            bucket = []
            for j in range(size):
                scope = [int(u) for u in rng.permutation(n)[: int(rng.integers(0, n + 1))]]
                if j == 0 and v not in scope:
                    scope.insert(int(rng.integers(len(scope) + 1)), v)
                shape = tuple(cards[u] for u in scope)
                bucket.append(Potential(tuple(scope), rng.uniform(0.1, 2.0, size=shape)))
            yield cards, bucket, v

    @staticmethod
    def _chain_product(bucket, cards):
        product = bucket[0]
        for f in bucket[1:]:
            product = factor_product(product, f, cards)
        return product

    @staticmethod
    def _rescale(values):
        peak = float(values.max())
        if peak > 0.0 and peak != 1.0:
            return values / peak, math.log(peak)
        return values, 0.0

    def test_sum_message_matches_the_pairwise_chain(self):
        seen = set()
        for cards, bucket, v in self._buckets():
            product = self._chain_product(bucket, cards)
            summed = factor_marginalize(product, {v}, cards)
            values, log_peak = self._rescale(summed.values)
            # no bucket here reaches _PATH_STATES
            message, message_log_peak = _sum_message(bucket, v, cards)
            assert message.scope == summed.scope
            assert np.array_equal(message.values, values)
            assert message_log_peak == log_peak
            seen.update(
                ("one factor" if len(bucket) == 1 else "several factors",
                 "wide" if max(cards) >= 8 else "narrow")
            )
            seen.update("scalar factor" for f in bucket if not f.scope)
        assert seen == {"one factor", "several factors", "wide", "narrow", "scalar factor"}

    def test_max_message_matches_the_pairwise_chain(self):
        for cards, bucket, v in self._buckets():
            product = self._chain_product(bucket, cards)
            axis = product.scope.index(v)
            values, log_peak = self._rescale(product.values.max(axis=axis))
            message, message_log_peak, argmax = _max_message(bucket, v)
            assert message.scope == product.scope[:axis] + product.scope[axis + 1 :]
            assert np.array_equal(message.values, values)
            assert message_log_peak == log_peak
            assert np.array_equal(argmax, product.values.argmax(axis=axis))


class TestLargeBuckets:
    """Buckets of ``_PATH_STATES`` joint states or more, summed along a planned einsum path."""

    @staticmethod
    def _count_calls(monkeypatch):
        """The einsum calls of each planned sum's plan, in call order.

        ``mar`` and ``pr`` ask no bucket tree, so under them every planned sum is a walk's.
        """
        calls = []
        bucket_sums = inference._bucket_sums

        def counted(plan, arrays):
            calls.append(len(plan[2]))
            return bucket_sums(plan, arrays)

        monkeypatch.setattr(inference, "_bucket_sums", counted)
        return calls

    def test_every_pair_of_ten_state_variables_matches_the_joint(self, monkeypatch):
        # a pairwise factor between every two of 5 variables: eliminating the
        # first one multiplies all 5, a bucket of 10^5 joint states, like the
        # joint; and a binary star of 16 leaves, each tied to the centre by two
        # pairwise factors, with a unary one on the centre, eliminated first: its
        # bucket of 33 factors and 2^17 joint states takes more than one einsum call
        rng = np.random.default_rng(91)
        pairs = itertools.combinations(range(5), 2)
        clique = GraphicalModel(
            (10,) * 5, tuple(Potential(p, rng.uniform(0.1, 2.0, size=(10, 10))) for p in pairs)
        )
        ties = [(0,)] + [(0, leaf) for leaf in range(1, 17) for _ in range(2)]
        star = GraphicalModel(
            (2,) * 17, tuple(Potential(s, rng.uniform(0.1, 2.0, size=(2,) * len(s))) for s in ties)
        )
        calls = self._count_calls(monkeypatch)
        for model, order, einsums in ((clique, None, 1), (star, tuple(range(17)), 2)):
            calls.clear()
            joint = brute_force_joint(model)
            everything = set(range(model.n_vars))
            for v in everything:
                expected = factor_marginalize(joint, everything - {v}, model.cardinalities).values
                probs = mar(model, {}, v, order=order).probs
                np.testing.assert_allclose(probs, expected, rtol=1e-12, atol=0.0)
            assert calls and max(calls) == einsums  # the star's bucket is folded once
        joint = brute_force_joint(clique)
        expected = float(joint.values[:, 3, :, :, 7].sum())
        assert pr(clique, {1: 3, 4: 7}) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_wide_grid_matches_the_reference_and_stays_below_the_oracle(self, monkeypatch):
        model = random_grid_model(4, 4, 12, rng=np.random.default_rng(92), sigma=1.0)
        calls = self._count_calls(monkeypatch)
        for v in range(16):
            # unobserved, every keep's min-fill elimination has a bucket of 12^5 entries
            reference, _, largest = reference_sum_out(model, {}, (v,))
            assert largest >= _PATH_STATES
            expected = reference.values / reference.values.sum()
            np.testing.assert_allclose(mar(model, {}, v).probs, expected, rtol=1e-12, atol=0.0)
        assert len(calls) >= 16
        evidence, targets = {5: 3}, [0, 10, 15]
        trace = mmap2mar(model, targets, evidence)
        exact = brute_force_mmap(model, evidence, targets)
        assert trace.p_tilde <= exact.probability * (1 + 1e-12)

    def test_summing_down_to_any_keep_matches_einsum(self):
        # the bucket tree's sums: several variables out at once, each kept one on
        # either side, on both, or held by the left-out factor alone; the tree's
        # keeps always lie in their bucket, here in a left-out factor of ones
        rng = np.random.default_rng(93)
        other = np.random.default_rng(94)

        def summed(cards, factors, keep):
            j = len(keep) % (len(factors) + 1)  # where the factor of ones goes
            ones = Potential(keep, np.ones([cards[u] for u in keep]))
            bucket = [*factors[:j], ones, *factors[j:]]
            scopes, arrays = tuple(f.scope for f in bucket), [f.values for f in bucket]
            plan = inference._bucket_plan(scopes, ((j, keep),), cards)
            # a plan is kept and used again on other values: it gives the sums,
            # bit for bit, that a plan made for these values gives
            inference._bucket_sums(plan, [other.uniform(0.5, 2.0, a.shape) for a in arrays])
            (cached,) = inference._bucket_sums(plan, arrays)
            made = inference._bucket_plan.__wrapped__(scopes, ((j, keep),), cards)
            (fresh,) = inference._bucket_sums(made, arrays)
            assert np.array_equal(cached, fresh)
            return cached

        cards = (5,) * 9
        large = 0
        for _ in range(60):
            factors = []
            for _ in range(int(rng.integers(2, 5))):
                size = int(rng.integers(1, 5))
                scope = tuple(int(u) for u in rng.choice(9, size=size, replace=False))
                factors.append(Potential(scope, rng.uniform(0.1, 2.0, size=(5,) * len(scope))))
            keep = tuple(int(u) for u in rng.choice(9, size=int(rng.integers(0, 4)), replace=False))
            held = {u for f in factors for u in f.scope}
            large += 5 ** len(held.union(keep)) >= _PATH_STATES
            operands = [x for f in factors for x in (f.values, list(f.scope))]
            expected = np.einsum(*operands, [u for u in keep if u in held], optimize=True)
            expected = np.broadcast_to(
                expected.reshape([5 if u in held else 1 for u in keep]), (5,) * len(keep)
            )
            np.testing.assert_allclose(summed(cards, factors, keep), expected, rtol=1e-12, atol=0.0)
        assert large >= 15
        # buckets einsum takes in no one call, checked against their joint table:
        # more factors than one call takes, which are folded from the left; only
        # the first call's factors hold variables 6 and 7 ...
        folded = []
        for i in range(inference._EINSUM_FACTORS + 12):
            among = 8 if i < inference._EINSUM_FACTORS else 6
            drawn = rng.choice(among, size=int(rng.integers(1, 4)), replace=False)
            scope = tuple(int(u) for u in drawn)
            folded.append(Potential(scope, rng.uniform(0.5, 1.5, size=(4,) * len(scope))))
        # ... and more variables than it has labels, all but six of them of one state
        crowd_cards = (1,) * 54 + (3,) * 6
        order = [int(u) for u in rng.permutation(60)]
        scopes = [tuple(order[i : i + 3]) for i in range(0, 60, 3)] + [(55, 58), (59,)]
        crowd = [
            Potential(scope, rng.uniform(0.5, 2.0, size=[crowd_cards[u] for u in scope]))
            for scope in scopes
        ]
        for cards, factors, keeps in (
            ((4,) * 8, folded, [(), (3,), (7, 0)]),
            (crowd_cards, crowd, [(), (57, 2), (1, 54, 59)]),
        ):
            for keep in keeps:
                np.testing.assert_allclose(
                    summed(cards, factors, keep),
                    _summed_by_joint(factors, keep, cards),
                    rtol=1e-12,
                    atol=0.0,
                )

    @pytest.mark.parametrize("rows, cols, card", [(10, 10, 2), (6, 6, 2), (4, 4, 3)])
    def test_binary_and_ternary_grids_keep_every_bucket_below_it(self, rows, cols, card):
        # the 10x10 and 6x6 binary and 4x4 ternary grids of CI and the benchmark:
        # their largest min-fill bucket, from scopes alone, is built and summed
        model = random_grid_model(rows, cols, card, rng=np.random.default_rng(0))
        scopes = [set(p.scope) for p in model.potentials]
        largest = 0
        for v in min_fill_order(model, range(model.n_vars)):
            joined = set().union(*[s for s in scopes if v in s])
            largest = max(largest, card ** len(joined))
            scopes = [s for s in scopes if v not in s] + [joined - {v}]
        assert largest < _PATH_STATES


def _summed_by_joint(factors, keep, cards):
    """The product of ``factors`` summed to ``keep``, from their joint table.

    One-state variables only add axes of length 1, so the joint leaves them
    out and the sum gets them back; no ``np.einsum`` is involved.
    """
    wide = sorted({u for f in factors for u in (*f.scope, *keep) if cards[u] > 1})
    joint = np.ones([cards[u] for u in wide])
    for f in factors:
        scope = [u for u in f.scope if cards[u] > 1]
        values = f.values.reshape([cards[u] for u in scope]).transpose(np.argsort(scope))
        joint = joint * values.reshape([cards[u] if u in scope else 1 for u in wide])
    kept = [u for u in wide if u in keep]
    total = joint.sum(axis=tuple(i for i, u in enumerate(wide) if u not in keep))
    total = total.transpose([kept.index(u) for u in keep if u in kept])
    return total.reshape([cards[u] for u in keep])


def _evidence_sequence(model, rng):
    """Evidences one elimination object meets in turn.

    Starting from none: add one variable at a time, as the greedy does;
    change one observed state; drop one observed variable; observe nothing.
    """
    n = model.n_vars
    evidence = {}
    sequence = [{}]
    for v in rng.permutation(n)[: min(3, n - 1)]:
        evidence[int(v)] = int(rng.integers(model.cardinalities[v]))
        sequence.append(dict(evidence))
    changeable = [v for v in evidence if model.cardinalities[v] > 1]
    if changeable:
        v = changeable[0]
        evidence[v] = (evidence[v] + 1) % model.cardinalities[v]
        sequence.append(dict(evidence))
    if evidence:
        del evidence[next(iter(evidence))]
        sequence.append(dict(evidence))
    sequence.append({})
    return sequence


class TestPr:
    def test_empty_evidence_is_exactly_one(self, weather):
        assert pr(weather, {}) == 1.0
        rng = np.random.default_rng(20)
        for _ in range(20):
            model = random_model(int(rng.integers(2, 10)), rng=rng)
            assert pr(model, {}) == 1.0

    def test_weather_drive(self, weather):
        assert pr(weather, {1: 1}) == pytest.approx(0.65, abs=1e-12)

    def test_matches_enumeration_on_random_models(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            model = random_model(int(rng.integers(3, 11)), rng=rng)
            evidence = _random_evidence(model, int(rng.integers(1, 4)), rng)
            expected = pr_by_enumeration(model, evidence)
            assert pr(model, evidence) == pytest.approx(expected, rel=1e-9)

    def test_structural_zero_returns_zero(self):
        model = GraphicalModel(
            (2, 2),
            (Potential((0,), [1.0, 0.0]), Potential((1,), [0.5, 0.5])),
        )
        assert pr(model, {0: 1}) == 0.0

    def test_bad_order_rejected(self, weather):
        for evidence in ({1: 1}, {}):  # the empty evidence's shortcut must not skip the check
            with pytest.raises(ValueError, match="permutation"):
                pr(weather, evidence, order=(0,))
            with pytest.raises(ValueError, match="must be an integer variable id"):
                pr(weather, evidence, order=("x", None))


class TestZeroMassModel:
    """Every query names the model on one whose joint mass is zero, with or without evidence.

    Both oracles' cases are in TestBruteForceJoint and TestBruteForceMmap.
    """

    @pytest.mark.parametrize(
        "query",
        [
            pytest.param(lambda m: pr(m, {}), id="pr-empty"),
            pytest.param(lambda m: pr(m, {0: 1}), id="pr-evidence"),
            pytest.param(lambda m: mar(m, {}, 0), id="mar-empty"),
            pytest.param(lambda m: mar(m, {1: 0}, 0), id="mar-evidence"),
            pytest.param(lambda m: mmap2mar(m, [0, 1], {}), id="mmap2mar-empty"),
            pytest.param(lambda m: mmap2mar(m, [0], {1: 0}), id="mmap2mar-evidence"),
            pytest.param(lambda m: epsilon_mmap2mar(m, [0, 1], {}, epsilon=0.5), id="epsilon-empty"),
            pytest.param(
                lambda m: epsilon_mmap2mar(m, [0], {1: 0}, epsilon=0.5), id="epsilon-evidence"
            ),
        ],
    )
    def test_every_query_raises(self, query):
        # a fresh model each time, so no earlier query has filled its partition function
        model = GraphicalModel((2, 2), (Potential((0, 1), np.zeros((2, 2))),))
        with pytest.raises(
            ZeroProbabilityEvidenceError, match="the model's joint mass is identically zero"
        ):
            query(model)


class TestMar:
    def test_weather_prior_marginals(self, weather):
        np.testing.assert_allclose(mar(weather, {}, 0).probs, [0.60, 0.40], atol=1e-12)
        np.testing.assert_allclose(mar(weather, {}, 1).probs, [0.35, 0.65], atol=1e-12)

    def test_weather_conditional(self, weather):
        np.testing.assert_allclose(
            mar(weather, {1: 1}, 0).probs, [6 / 13, 7 / 13], atol=1e-12
        )

    def test_matches_enumeration_on_random_models(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            model = random_model(int(rng.integers(3, 11)), rng=rng)
            evidence = _random_evidence(model, int(rng.integers(1, 3)), rng)
            free = [v for v in range(model.n_vars) if v not in evidence]
            x = int(rng.choice(free))
            expected = mar_by_enumeration(model, evidence, x)
            np.testing.assert_allclose(mar(model, evidence, x).probs, expected, atol=1e-9)

    def test_equivalent_to_per_state_evidence_probabilities(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            model = random_model(int(rng.integers(3, 9)), rng=rng)
            evidence = _random_evidence(model, 1, rng)
            free = [v for v in range(model.n_vars) if v not in evidence]
            x = int(rng.choice(free))
            per_state = np.array(
                [pr(model, {**evidence, x: s}) for s in range(model.cardinalities[x])]
            )
            np.testing.assert_allclose(
                mar(model, evidence, x).probs, per_state / per_state.sum(), atol=1e-9
            )

    def test_order_invariance(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            model = random_model(int(rng.integers(3, 13)), rng=rng)
            evidence = _random_evidence(model, 1, rng)
            free = [v for v in range(model.n_vars) if v not in evidence]
            x = int(rng.choice(free))
            identity = tuple(range(model.n_vars))
            np.testing.assert_allclose(
                mar(model, evidence, x).probs,
                mar(model, evidence, x, order=identity).probs,
                atol=1e-9,
            )

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(26)
        for _ in range(25):
            model = random_model(int(rng.integers(2, 9)), rng=rng)
            evidence = _random_evidence(model, 1, rng)
            free = [v for v in range(model.n_vars) if v not in evidence]
            x = int(rng.choice(free))
            assert float(mar(model, evidence, x).probs.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_zero_probability_evidence_raises(self):
        model = GraphicalModel(
            (2, 2),
            (Potential((0,), [1.0, 0.0]), Potential((1,), [0.5, 0.5])),
        )
        with pytest.raises(ZeroProbabilityEvidenceError):
            mar(model, {0: 1}, 1)

    def test_observed_variable_rejected(self, weather):
        with pytest.raises(ValueError, match="observed"):
            mar(weather, {1: 1}, 1)


@pytest.mark.parametrize(
    "evidence", [{2: 0}, {0: 2}, {1.5: 0}, {0: 1.5}, {True: 0}, {0: False}, [(1, 1)], [], ()]
)
def test_bad_evidence_rejected_by_every_query(weather, evidence):
    for query in (
        lambda: pr(weather, evidence),
        lambda: mar(weather, evidence, 1 if 0 in evidence else 0),
        lambda: mmap2mar(weather, [1 if 0 in evidence else 0], evidence),
    ):
        with pytest.raises(ValueError, match="out of range|integer"):
            query()


@pytest.mark.parametrize("evidence", [0, False])
def test_falsy_non_mapping_evidence_rejected_by_the_greedy(weather, evidence):
    for query in (
        lambda: mmap2mar(weather, [1], evidence),
        lambda: epsilon_mmap2mar(weather, [1], evidence, epsilon=0.5),
    ):
        with pytest.raises(ValueError, match="integer"):
            query()


@pytest.mark.parametrize("bad", [1.5, 0.7, "1", True, None])
def test_non_integer_variable_ids_rejected_by_every_query(weather, bad):
    for query in (
        lambda: mar(weather, {}, bad),
        lambda: brute_force_mmap(weather, {}, [bad]),
        lambda: min_fill_order(weather, [bad]),
        lambda: min_fill_order(weather, [0], evidence=[bad]),
        lambda: pr(weather, {1: 1}, order=(0, bad)),
        lambda: pr(weather, {}, order=(0, bad)),
        lambda: mar(weather, {}, 0, order=(0, bad)),
    ):
        with pytest.raises(ValueError, match="must be an integer variable id"):
            query()


def test_numpy_integer_variable_ids_accepted(weather):
    one = np.int64(1)
    # an observed variable with free neighbours puts its id into the graph's bitmasks
    grid = random_grid_model(3, 3, 2, rng=np.random.default_rng(0))
    evidence = {np.int64(4): np.int64(1), np.int32(0): np.int8(0)}
    plain = {4: 1, 0: 0}
    assert pr(grid, evidence) == pr(grid, plain)
    np.testing.assert_array_equal(mar(grid, evidence, 1).probs, mar(grid, plain, 1).probs)
    assert brute_force_mmap(grid, evidence, [1, 2]) == brute_force_mmap(grid, plain, [1, 2])
    for greedy in (mmap2mar, lambda *args: epsilon_mmap2mar(*args, epsilon=0.9)):
        got, want = greedy(grid, [1, 2, 8], evidence), greedy(grid, [1, 2, 8], plain)
        assert (got.explained, got.p_tilde, got.confidence) == (
            want.explained, want.p_tilde, want.confidence
        )
        assert [s.marginal for s in got.steps] == [s.marginal for s in want.steps]
    np.testing.assert_array_equal(mar(weather, {}, one).probs, mar(weather, {}, 1).probs)
    assert brute_force_mmap(weather, {}, [one]) == brute_force_mmap(weather, {}, [1])
    assert mmap2mar(weather, np.array([0, 1])).explained == mmap2mar(weather, [0, 1]).explained
    assert min_fill_order(weather, [one], evidence=[np.int32(0)]) == (1,)
    assert pr(weather, {1: 1}, order=np.array([1, 0])) == pr(weather, {1: 1}, order=(1, 0))


class TestEntropy:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_uniform_is_one(self, k):
        h = entropy(MassFunction(0, np.full(k, 1.0 / k)))
        assert h == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_degenerate_is_zero(self, k):
        probs = np.zeros(k)
        probs[0] = 1.0
        assert entropy(MassFunction(0, probs)) == pytest.approx(0.0, abs=1e-12)

    def test_cardinality_one_is_zero(self):
        assert entropy(MassFunction(0, [1.0])) == 0.0

    def test_higher_peak_can_have_higher_entropy(self):
        a = entropy(MassFunction(0, [0.75, 0.24, 0.01]))
        b = entropy(MassFunction(0, [0.80, 0.10, 0.10]))
        assert a == pytest.approx(entropy_by_formula([0.75, 0.24, 0.01]), abs=1e-12)
        assert b == pytest.approx(entropy_by_formula([0.80, 0.10, 0.10]), abs=1e-12)
        assert a < b

    def test_sampled_entropies_lie_in_unit_interval(self):
        rng = np.random.default_rng(27)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            probs = rng.dirichlet(np.ones(k))
            h = entropy(MassFunction(0, probs))
            assert 0.0 <= h <= 1.0
            assert h == pytest.approx(entropy_by_formula(probs), abs=1e-12)

    def test_uniform_is_the_unique_maximizer(self):
        rng = np.random.default_rng(28)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            probs = rng.dirichlet(np.ones(k))
            if np.allclose(probs, 1.0 / k, atol=1e-6):
                continue
            assert entropy(MassFunction(0, probs)) < 1.0 - 1e-12


# each raised before any work, as a plain ValueError rather than OracleTooLargeError
CAP_ERRORS = [
    (0, "cap must be >= 1, got 0"),
    (-5, "cap must be >= 1, got -5"),
    (True, "cap must be an integer, got True"),
    (2.5, "cap must be an integer, got 2.5"),
]


class TestBruteForceJoint:
    def test_weather_joint(self, weather):
        joint = brute_force_joint(weather)
        assert joint.scope == (0, 1)
        np.testing.assert_allclose(joint.flat, WEATHER_JOINT, atol=1e-12)

    def test_single_uniform_binary_potential(self):
        model = GraphicalModel((2,), (Potential((0,), [1.0, 1.0]),))
        np.testing.assert_allclose(brute_force_joint(model).values, [0.5, 0.5], atol=1e-15)

    def test_zero_total_mass_raises(self):
        model = GraphicalModel((2, 2), (Potential((0, 1), np.zeros((2, 2))),))
        with pytest.raises(ZeroProbabilityEvidenceError, match="joint mass is identically zero"):
            brute_force_joint(model)

    def test_sums_to_one_on_random_models(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            model = random_model(int(rng.integers(2, 9)), rng=rng)
            total = float(brute_force_joint(model).values.sum())
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_cap_exceeded(self):
        n = 23
        model = GraphicalModel(
            (2,) * n, tuple(Potential((v,), [1.0, 1.0]) for v in range(n))
        )
        with pytest.raises(OracleTooLargeError):
            brute_force_joint(model)

    @pytest.mark.parametrize("cap, message", CAP_ERRORS)
    def test_cap_must_be_an_integer_of_at_least_one(self, weather, cap, message):
        with pytest.raises(ValueError, match=message) as raised:
            brute_force_joint(weather, cap=cap)
        assert not isinstance(raised.value, OracleTooLargeError)


class TestBruteForceMmap:
    def test_weather_dilemma(self, weather):
        solution = brute_force_mmap(weather, {}, {0, 1})
        assert solution.assignment == {0: 1, 1: 1}
        assert solution.probability == pytest.approx(0.35, abs=1e-12)

    def test_empty_explain_degenerates_to_evidence_probability(self, weather):
        solution = brute_force_mmap(weather, {1: 1}, set())
        assert solution.assignment == {}
        assert solution.probability == pytest.approx(0.65, abs=1e-12)

    def test_matches_maximization_over_joint_table(self):
        rng = np.random.default_rng(30)
        for _ in range(30):
            model = random_model(8, rng=rng, max_cardinality=3)
            evidence = _random_evidence(model, 2, rng)
            free = [v for v in range(model.n_vars) if v not in evidence]
            explain = sorted(int(v) for v in rng.choice(free, size=3, replace=False))
            solution = brute_force_mmap(model, evidence, explain)

            joint = brute_force_joint(model)
            best_p, best_state = -1.0, None
            for states in itertools.product(*(range(model.cardinalities[v]) for v in explain)):
                fixed = {**evidence, **dict(zip(explain, states))}
                index = tuple(
                    fixed.get(v, slice(None)) for v in range(model.n_vars)
                )
                p = float(np.asarray(joint.values[index]).sum())
                if p > best_p + 1e-15:
                    best_p, best_state = p, states
            assert solution.probability == pytest.approx(best_p, rel=1e-9)
            assert tuple(solution.assignment[v] for v in explain) == best_state

    def test_single_variable_equals_marginal_argmax(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            model = random_model(int(rng.integers(3, 9)), rng=rng)
            evidence = _random_evidence(model, 1, rng)
            free = [v for v in range(model.n_vars) if v not in evidence]
            x = int(rng.choice(free))
            solution = brute_force_mmap(model, evidence, {x})
            marginal = mar(model, evidence, x)
            assert solution.assignment == {x: int(np.argmax(marginal.probs))}

    def test_ties_break_lexicographically_smallest(self):
        model = GraphicalModel(
            (2, 2),
            (Potential((0,), [1.0, 1.0]), Potential((1,), [1.0, 1.0])),
        )
        solution = brute_force_mmap(model, {}, {0, 1})
        assert solution.assignment == {0: 0, 1: 0}
        # (0, 1) and (1, 0) tie; eliminating variable 0 first would pick (1, 0)
        crossed = GraphicalModel((2, 2), (Potential((0, 1), [[0.0, 1.0], [1.0, 0.0]]),))
        assert brute_force_mmap(crossed, {}, {0, 1}).assignment == {0: 0, 1: 1}

    def test_zero_probability_evidence(self):
        model = GraphicalModel(
            (2, 2),
            (Potential((0,), [1.0, 0.0]), Potential((1,), [0.5, 0.5])),
        )
        solution = brute_force_mmap(model, {0: 1}, {1})
        assert solution.probability == 0.0
        assert solution.assignment == {1: 0}

    def test_zero_total_mass_raises(self):
        model = GraphicalModel(
            (2, 2),
            (Potential((0,), [0.0, 0.0]), Potential((0, 1), np.zeros((2, 2)))),
        )
        for evidence, explain in (({}, {0, 1}), ({1: 0}, {0}), ({}, set()), ({1: 0}, set())):
            with pytest.raises(ZeroProbabilityEvidenceError, match="mass is identically zero"):
                brute_force_mmap(model, evidence, explain)

    def test_max_messages_are_rescaled_so_tiny_tables_do_not_underflow(self):
        # the unnormalized mass of any joint state is about 1e-360, below float64's range
        n = 12
        model = GraphicalModel(
            (2,) * n, tuple(Potential((v,), [1e-30, 2e-30]) for v in range(n))
        )
        solution = brute_force_mmap(model, {}, range(n))
        assert solution.assignment == dict.fromkeys(range(n), 1)
        assert solution.probability == pytest.approx((2 / 3) ** n, rel=1e-12)

    def test_matches_the_enumeration_on_the_differential_models(self):
        rng = np.random.default_rng(33)
        for model in differential_models(33):
            if math.prod(model.cardinalities) > 1 << 16:
                continue  # the loop below over every joint state would take seconds
            joint = joint_by_enumeration(model)
            total = sum(joint.values())
            for _ in range(3):
                evidence = random_evidence(model, rng)
                free = [v for v in range(model.n_vars) if v not in evidence]
                size = int(rng.integers(1, len(free) + 1))
                explain = sorted(int(v) for v in rng.choice(free, size=size, replace=False))
                if total == 0.0:
                    with pytest.raises(ZeroProbabilityEvidenceError):
                        brute_force_mmap(model, evidence, explain)
                    continue
                observed = list(evidence.items())
                mass = {}
                for state, value in joint.items():
                    if all(state[v] == s for v, s in observed):
                        key = tuple(state[v] for v in explain)
                        mass[key] = mass.get(key, 0.0) + value
                best = max(mass.values())
                # ties within rounding go to the lexicographically smallest state
                expected = min(key for key, m in mass.items() if m >= best * (1 - 1e-12))
                solution = brute_force_mmap(model, evidence, explain)
                assert list(solution.assignment) == explain
                assert tuple(solution.assignment.values()) == expected
                assert solution.probability == pytest.approx(best / total, rel=1e-9, abs=0.0)

    def test_probability_consistent_with_pr(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            model = random_model(int(rng.integers(3, 9)), rng=rng)
            evidence = _random_evidence(model, 1, rng)
            free = [v for v in range(model.n_vars) if v not in evidence]
            explain = [int(v) for v in rng.choice(free, size=min(3, len(free)), replace=False)]
            solution = brute_force_mmap(model, evidence, explain)
            recomputed = pr(model, {**evidence, **solution.assignment})
            assert solution.probability == pytest.approx(recomputed, rel=1e-9)

    def test_cap_exceeded(self):
        n = 23
        model = GraphicalModel(
            (2,) * n, tuple(Potential((v,), [1.0, 1.0]) for v in range(n))
        )
        with pytest.raises(OracleTooLargeError):
            brute_force_mmap(model, {}, set(range(n)))

    @pytest.mark.parametrize("cap, message", CAP_ERRORS)
    def test_cap_must_be_an_integer_of_at_least_one(self, weather, cap, message):
        for explain in ([], [0], [0, 1]):
            with pytest.raises(ValueError, match=message) as raised:
                brute_force_mmap(weather, {}, explain, cap=cap)
            assert not isinstance(raised.value, OracleTooLargeError)

    def test_overlap_with_evidence_rejected(self, weather):
        with pytest.raises(ValueError, match="disjoint"):
            brute_force_mmap(weather, {0: 0}, {0, 1})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOverflow:
    def test_overflowing_product_raises_from_every_query(self, tmp_path):
        # each table is finite, but their product over the shared variable 1 is not
        model = GraphicalModel(
            (2, 2),
            (Potential((0, 1), np.full((2, 2), 1e200)), Potential((1,), [1e200, 1e200])),
        )
        path = tmp_path / "overflow.uai"
        path.write_text(write_uai(model))
        queries = [
            lambda: pr(model, {0: 0}),
            lambda: mar(model, {}, 0),
            lambda: brute_force_mmap(model, {}, {0}),
            lambda: mmap2mar(model, [0, 1]),
            lambda: run_benchmark(
                BenchmarkSpec(path, k=1, q=1, epsilon_grid=(1.0,), seed=0)
            ),
        ]
        for query in queries:
            with pytest.raises(ValueError, match="finite"):
                query()


def _fresh(query, *args, **kwargs):
    """``query``'s answer, or its error's type and message, outside any sharing scope."""
    return _answer(contextvars.Context().run, query, *args, **kwargs)


def _answer(run, query, *args, **kwargs):
    """What ``run(query, ...)`` gives, every float as its bytes, or its error's type and message."""
    try:
        result = run(query, *args, **kwargs)
    except (ZeroProbabilityEvidenceError, OracleTooLargeError) as err:
        return type(err), str(err)
    if isinstance(result, float):
        return np.float64(result).tobytes()
    if isinstance(result, MassFunction):
        return result.variable, result.probs.tobytes()
    if isinstance(result, heuristic.ExplanationTrace):
        return trace_bits(result)
    return result.assignment, np.float64(result.probability).tobytes()


class TestSharingScope:
    def test_interleaved_queries_answer_as_fresh_ones(self):
        rng = np.random.default_rng(71)
        # X0 = 1 is impossible: the draw a bench instance makes again
        impossible = GraphicalModel(
            (2, 2, 3),
            (Potential((0,), [1.0, 0.0]), Potential((0, 1, 2), rng.random((2, 2, 3)))),
        )
        models = [impossible, *differential_models(71)[::4]]
        redrawn = skipped = resumed = 0
        for model in models:
            evidences = _evidence_sequence(model, rng)
            if model is impossible:
                evidences = [{0: 1}, {0: 0}, {0: 0, 2: 1}, {0: 1, 2: 1}, {2: 1}, {}]
            order = tuple(int(v) for v in rng.permutation(model.n_vars))
            resume = None  # the last evidence's full greedy run, asked under the next evidence
            with _sharing():
                core = inference._core(model)
                for evidence in evidences:
                    free = [v for v in range(model.n_vars) if v not in evidence]
                    explain = [v for v in free if model.cardinalities[v] >= 2]
                    # the greedy is one more query on the shared core: its runs at two
                    # thresholds share one log, which the full run resumes after the core
                    # moved to the next evidence
                    greedy = [(epsilon_mmap2mar, model, explain, evidence, e) for e in (0.3, 0.7)]
                    if not explain:
                        greedy = [(), ()]
                    queries = [(pr, model, evidence), greedy[0], (brute_force_mmap, model, evidence, ())]
                    queries += [(mar, model, evidence, v) for v in free]
                    queries += [greedy[1], (brute_force_mmap, model, evidence, free)]
                    if resume:
                        log = core.logs.get((tuple(resume[3].items()), tuple(resume[2])))
                        resumed += log is not None and len(log.rounds) < len(resume[2])
                    queries += [resume or (), (pr, model, evidence), (mar, model, evidence, free[-1])]
                    queries += [(brute_force_mmap, model, evidence, free[::2])]
                    queries = [q for q in queries if q]
                    resume = (mmap2mar, model, explain, evidence) if explain else None
                    states = math.prod(model.cardinalities[v] for v in free)
                    for query, *args in queries:
                        assert _answer(lambda f, *a: f(*a), query, *args) == _fresh(query, *args)
                    # a caller's order gets a fresh core, and the shared one goes on unchanged
                    assert _answer(lambda f, *a: f(*a, order=order), pr, model, evidence) == _fresh(
                        pr, model, evidence, order=order
                    )
                    if states > 1:  # the oracle's cap skips the full set, as the bench does
                        got = _answer(lambda f, *a: f(*a, cap=states - 1), brute_force_mmap, model, evidence, free)
                        assert got == _fresh(brute_force_mmap, model, evidence, free, cap=states - 1)
                        assert got[0] is OracleTooLargeError
                        skipped += 1
                    try:
                        solution = brute_force_mmap(model, evidence, ())
                    except ZeroProbabilityEvidenceError:  # the model's joint mass is zero
                        continue
                    assert solution.probability == pr(model, evidence)  # P(evidence), bit for bit
                    redrawn += solution.probability == 0.0
                if resume:
                    assert _answer(lambda f, *a: f(*a), *resume) == _fresh(*resume)
                shared = _shared.get()
                assert list(shared) == [id(model)]  # one core served every query
                assert shared[id(model)] is core
        assert redrawn >= 2 and skipped > 100 and resumed > 20

    def test_the_scope_leaves_nothing_behind(self):
        for fails in (False, True):
            model = random_grid_model(2, 3, 2, rng=np.random.default_rng(72))
            alive = weakref.ref(model)
            try:
                with _sharing():
                    pr(model, {0: 1})
                    brute_force_mmap(model, {0: 1}, [1, 2])
                    mmap2mar(model, [1, 2], {0: 1})
                    assert len(_shared.get()) == 1  # the shared core, with the run's round log on it
                    if fails:
                        raise KeyError("inside the scope")
            except KeyError:
                pass
            assert _shared.get() is None
            del model
            gc.collect()
            assert alive() is None  # no core, log or memo holds the model any more

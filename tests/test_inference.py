"""Variable elimination, entropy, and the brute-force oracles."""

import itertools
import math

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
from margmap.generate import random_grid_model, random_model
from margmap.inference import (
    _Elimination,
    _fill_count,
    _joined,
    _max_message,
    _MinFill,
    _sum_message,
    _sum_out,
    _without,
)
from margmap.uaiio import write_uai

from conftest import (
    WEATHER_JOINT,
    differential_models,
    entropy_by_formula,
    joint_by_enumeration,
    mar_by_enumeration,
    pr_by_enumeration,
    random_evidence,
    reference_min_fill_order,
    reference_sum_out,
)


def _random_evidence(model, k, rng):
    variables = rng.choice(model.n_vars, size=k, replace=False)
    return {int(v): int(rng.integers(model.cardinalities[v])) for v in variables}


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

        def check(stepper):
            for v in stepper.remaining:
                assert stepper.fill[v] == _fill_count(stepper.adjacency, v)

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
            path = _MinFill(_without(graph, observed), targets)
            check(path)
            while path.remaining:
                if rng.random() < 0.2:
                    size = int(rng.integers(0, len(path.remaining) + 1))
                    dropped = rng.choice(path.remaining, size=size, replace=False)
                    fork = path.fork(int(v) for v in dropped)
                    check(fork)
                    while fork.eliminate_next() is not None:
                        check(fork)
                path.eliminate_next()
                check(path)


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
                    # two multi-variable keeps that fork off the path at the same step
                    mid = len(path) // 2 - 1
                    keeps += [path[mid : mid + 2], (path[mid + 2], path[mid])]
                shared = _Elimination(model, order).tables(evidence, keeps)
                assert isinstance(shared, list) and len(shared) == len(keeps)
                for keep, (table, log_scale) in zip(keeps, shared):
                    fresh, fresh_log_scale = _sum_out(model, evidence, keep, order)
                    assert table.scope == fresh.scope == tuple(keep)
                    assert np.array_equal(table.values, fresh.values)
                    assert log_scale == fresh_log_scale
                    reference, reference_log_scale = reference_sum_out(model, evidence, keep, order)
                    assert reference.scope == tuple(keep)
                    assert np.array_equal(table.values, reference.values)
                    assert log_scale == reference_log_scale

    def test_state_carried_across_evidences_is_bit_identical_to_a_fresh_elimination(self):
        rng = np.random.default_rng(63)
        for model in differential_models(63):
            for order in (None, tuple(int(v) for v in rng.permutation(model.n_vars))):
                elimination = _Elimination(model, order)
                previous = None
                for evidence in _evidence_sequence(model, rng):
                    before = list(elimination.restricted)
                    free = [v for v in range(model.n_vars) if v not in evidence]
                    keeps = [(v,) for v in free] + [()]
                    shared = elimination.tables(evidence, keeps)
                    for keep, (table, log_scale) in zip(keeps, shared):
                        fresh, fresh_log_scale = _sum_out(model, evidence, keep, order)
                        reference, reference_log_scale = reference_sum_out(model, evidence, keep, order)
                        assert table.scope == fresh.scope == reference.scope == keep
                        assert np.array_equal(table.values, fresh.values)
                        assert np.array_equal(table.values, reference.values)
                        assert log_scale == fresh_log_scale == reference_log_scale
                    # a potential whose scope saw no evidence change keeps its restricted object
                    for p, old, new in zip(model.potentials, before, elimination.restricted):
                        if previous is not None and all(
                            previous.get(v) == evidence.get(v) for v in p.scope
                        ):
                            assert new is old
                    previous = evidence


    def test_one_product_matrix_per_call_gives_each_table_bit_for_bit(self):
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
                    tables = elimination.tables(evidence, keeps)
                    observed, held = twin.held(evidence, keeps)
                    for keep, (table, log_scale), (entries, held_scale) in zip(keeps, tables, held):
                        factors = [f for _, f in sorted({**observed, **entries}.items())]
                        fresh, fresh_log_scale = _sum_out(model, evidence, keep)
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
    def test_an_overflowing_product_matrix_raises(self):
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
            with pytest.raises(ValueError) as raised:
                _Elimination(model).tables({0: 0}, keeps)
            assert str(raised.value) == message


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
            message, message_log_peak = _sum_message(bucket, v)
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
        with pytest.raises(ZeroProbabilityEvidenceError):
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
            with pytest.raises(ZeroProbabilityEvidenceError):
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
                continue  # the pure-Python enumeration would take seconds
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

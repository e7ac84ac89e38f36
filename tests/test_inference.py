"""Variable elimination, entropy, and the brute-force oracles."""

import itertools

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
    mar,
    min_fill_order,
    mmap2mar,
    pr,
    run_benchmark,
)
from margmap.generate import random_model
from margmap.uaiio import write_uai

from conftest import (
    WEATHER_JOINT,
    entropy_by_formula,
    mar_by_enumeration,
    pr_by_enumeration,
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

    def test_pr_is_order_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            model = random_model(int(rng.integers(3, 13)), rng=rng)
            evidence = _random_evidence(model, int(rng.integers(1, 3)), rng)
            identity = tuple(range(model.n_vars))
            a = pr(model, evidence)
            b = pr(model, evidence, order=identity)
            assert b == pytest.approx(a, rel=1e-9)


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
        with pytest.raises(ValueError, match="permutation"):
            pr(weather, {1: 1}, order=(0,))


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

    def test_zero_probability_evidence(self):
        model = GraphicalModel(
            (2, 2),
            (Potential((0,), [1.0, 0.0]), Potential((1,), [0.5, 0.5])),
        )
        solution = brute_force_mmap(model, {0: 1}, {1})
        assert solution.probability == 0.0
        assert solution.assignment == {1: 0}

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

"""The greedy explainer: goldens, the lower-bound guarantee, and threshold semantics."""

import numpy as np
import pytest

from margmap import (
    GraphicalModel,
    Potential,
    ZeroProbabilityEvidenceError,
    brute_force_mmap,
    epsilon_mmap2mar,
    mar,
    mmap2mar,
    pr,
)
from margmap.generate import random_model

from conftest import entropy_by_formula


def _random_evidence(model, k, rng):
    variables = rng.choice(model.n_vars, size=k, replace=False)
    return {int(v): int(rng.integers(model.cardinalities[v])) for v in variables}


class TestWeatherRun:
    def test_step_sequence_and_output(self, weather):
        trace = mmap2mar(weather, [0, 1])
        assert [s.variable for s in trace.steps] == [1, 0]
        assert trace.explained == {0: 1, 1: 1}  # rainy, drive
        assert trace.unexplained == frozenset()
        assert trace.p_tilde == pytest.approx(0.35, abs=1e-12)
        assert trace.mar_calls == 3

    def test_step_entropies_match_direct_formula(self, weather):
        trace = mmap2mar(weather, [0, 1])
        first, second = trace.steps
        assert first.entropy_at_selection == pytest.approx(
            entropy_by_formula([0.35, 0.65]), abs=1e-12
        )
        assert second.entropy_at_selection == pytest.approx(
            entropy_by_formula([6 / 13, 7 / 13]), abs=1e-12
        )
        # the commute variable wins round one: 0.9341 < 0.9710
        assert first.entropy_at_selection == pytest.approx(0.9341, abs=1e-4)
        assert entropy_by_formula([0.60, 0.40]) == pytest.approx(0.9710, abs=1e-4)
        assert first.entropy_at_selection < entropy_by_formula([0.60, 0.40])

    def test_confidence_dominated_by_last_step(self, weather):
        trace = mmap2mar(weather, [0, 1])
        expected = 1.0 - entropy_by_formula([6 / 13, 7 / 13])
        assert trace.confidence == pytest.approx(expected, abs=1e-12)
        assert trace.confidence == pytest.approx(0.0043, abs=5e-4)

    def test_step_marginals_recorded(self, weather):
        trace = mmap2mar(weather, [0, 1])
        np.testing.assert_allclose(trace.steps[0].marginal.probs, [0.35, 0.65], atol=1e-12)
        np.testing.assert_allclose(
            trace.steps[1].marginal.probs, [6 / 13, 7 / 13], atol=1e-12
        )
        for s in trace.steps:
            assert s.chosen_state == int(np.argmax(s.marginal.probs))


class TestSingletonExplain:
    def test_output_is_marginal_argmax(self, weather):
        trace = mmap2mar(weather, [0], {1: 1})
        marginal = mar(weather, {1: 1}, 0)
        assert trace.explained == {0: int(np.argmax(marginal.probs))}
        assert trace.p_tilde == pytest.approx(0.35, abs=1e-12)  # max_x P(x, drive)
        assert trace.mar_calls == 1

    def test_random_singletons(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            model = random_model(int(rng.integers(3, 8)), rng=rng)
            evidence = _random_evidence(model, 1, rng)
            free = [v for v in range(model.n_vars) if v not in evidence]
            x = int(rng.choice(free))
            trace = mmap2mar(model, [x], evidence)
            marginal = mar(model, evidence, x)
            assert trace.explained == {x: int(np.argmax(marginal.probs))}
            expected = pr(model, evidence) * float(marginal.probs.max())
            assert trace.p_tilde == pytest.approx(expected, rel=1e-12)


class TestLowerBound:
    def test_p_tilde_never_exceeds_exact_optimum(self):
        rng = np.random.default_rng(41)
        equal = 0
        for _ in range(200):
            model = random_model(int(rng.integers(5, 11)), rng=rng, max_cardinality=3)
            evidence = _random_evidence(model, int(rng.integers(1, 3)), rng)
            free = [v for v in range(model.n_vars) if v not in evidence]
            size = min(3, len(free))
            explain = [int(v) for v in rng.choice(free, size=size, replace=False)]
            trace = mmap2mar(model, explain, evidence)
            exact = brute_force_mmap(model, evidence, explain)
            assert trace.p_tilde <= exact.probability * (1.0 + 1e-12)
            if trace.explained == exact.assignment:
                equal += 1
        # the greedy answer is exactly optimal reasonably often on small models
        assert equal > 100

    def test_p_tilde_matches_joint_probability_recomputed_by_pr(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            model = random_model(int(rng.integers(4, 9)), rng=rng)
            evidence = _random_evidence(model, 1, rng)
            free = [v for v in range(model.n_vars) if v not in evidence]
            size = min(3, len(free))
            explain = [int(v) for v in rng.choice(free, size=size, replace=False)]
            trace = mmap2mar(model, explain, evidence)
            recomputed = pr(model, {**evidence, **trace.explained})
            assert trace.p_tilde == pytest.approx(recomputed, rel=1e-9)


class TestEpsilonSemantics:
    def test_weather_threshold_095_stops_after_one_step(self, weather):
        trace = epsilon_mmap2mar(weather, [0, 1], epsilon=0.95)
        assert trace.explained == {1: 1}
        assert trace.unexplained == frozenset({0})
        assert trace.break_entropy == pytest.approx(
            entropy_by_formula([6 / 13, 7 / 13]), abs=1e-12
        )
        assert trace.p_tilde == pytest.approx(0.65, abs=1e-12)

    def test_weather_threshold_one_explains_everything(self, weather):
        full = mmap2mar(weather, [0, 1])
        capped = epsilon_mmap2mar(weather, [0, 1], epsilon=1.0)
        assert capped.explained == full.explained
        assert capped.break_entropy is None
        assert [s.variable for s in capped.steps] == [s.variable for s in full.steps]

    def test_threshold_zero_explains_nothing(self, weather):
        trace = epsilon_mmap2mar(weather, [0, 1], epsilon=0.0)
        assert trace.explained == {}
        assert trace.unexplained == {0, 1}
        assert trace.confidence == 1.0
        assert trace.p_tilde == pytest.approx(1.0)  # no evidence, nothing explained
        assert trace.mar_calls == 2  # one scoring round, then the break

    def test_threshold_zero_rejects_even_degenerate_marginals(self):
        # strict comparison: entropy 0 is not < 0, so nothing is ever committed
        model = GraphicalModel(
            (2, 2),
            (Potential((0,), [1.0, 0.0]), Potential((1,), [0.3, 0.7])),
        )
        trace = epsilon_mmap2mar(model, [0, 1], epsilon=0.0)
        assert trace.explained == {}
        assert trace.break_entropy == 0.0

    def test_prefix_monotonicity_over_threshold_grid(self):
        rng = np.random.default_rng(43)
        grid = [i / 20 for i in range(21)]
        for _ in range(30):
            model = random_model(int(rng.integers(4, 8)), rng=rng, max_cardinality=3)
            evidence = _random_evidence(model, 1, rng)
            explain = [v for v in range(model.n_vars) if v not in evidence]
            previous = None
            for eps in grid:
                trace = epsilon_mmap2mar(model, explain, evidence, epsilon=eps)
                steps = [(s.variable, s.chosen_state) for s in trace.steps]
                if previous is not None:
                    assert steps[: len(previous)] == previous
                previous = steps

    def test_partial_explanations_still_lower_bound_their_exact_optimum(self):
        rng = np.random.default_rng(47)
        checked = 0
        for _ in range(40):
            model = random_model(int(rng.integers(5, 9)), rng=rng, max_cardinality=3)
            evidence = _random_evidence(model, 1, rng)
            explain = [v for v in range(model.n_vars) if v not in evidence]
            eps = float(rng.uniform(0.3, 0.9))
            trace = epsilon_mmap2mar(model, explain, evidence, epsilon=eps)
            if not trace.explained:
                continue
            exact = brute_force_mmap(model, evidence, trace.explained)
            assert trace.p_tilde <= exact.probability * (1.0 + 1e-12)
            checked += 1
        assert checked > 10

    def test_threshold_one_matches_unthresholded_run_on_random_models(self):
        rng = np.random.default_rng(48)
        for _ in range(20):
            model = random_model(int(rng.integers(4, 8)), rng=rng)
            evidence = _random_evidence(model, 1, rng)
            explain = [v for v in range(model.n_vars) if v not in evidence]
            full = mmap2mar(model, explain, evidence)
            capped = epsilon_mmap2mar(model, explain, evidence, epsilon=1.0)
            # random tables never produce an exactly uniform marginal, so the
            # threshold never fires and the runs coincide
            assert capped.break_entropy is None
            assert capped.explained == full.explained
            assert [(s.variable, s.chosen_state) for s in capped.steps] == [
                (s.variable, s.chosen_state) for s in full.steps
            ]

    def test_uniform_marginals_separate_the_two_algorithms(self):
        # every marginal is exactly uniform, entropy exactly 1
        model = GraphicalModel(
            (2, 2),
            (Potential((0,), [1.0, 1.0]), Potential((1,), [1.0, 1.0])),
        )
        capped = epsilon_mmap2mar(model, [0, 1], epsilon=1.0)
        assert capped.explained == {}
        assert capped.break_entropy == 1.0
        full = mmap2mar(model, [0, 1])
        assert full.explained == {0: 0, 1: 0}  # lowest-id, lowest-state ties
        assert [s.variable for s in full.steps] == [0, 1]

    def test_epsilon_validated(self, weather):
        with pytest.raises(ValueError, match="epsilon"):
            epsilon_mmap2mar(weather, [0, 1], epsilon=1.5)


class TestAccounting:
    @pytest.mark.parametrize("k", list(range(1, 9)))
    def test_quadratic_mar_call_count(self, k):
        rng = np.random.default_rng(44 + k)
        model = random_model(10, rng=rng, max_cardinality=3)
        explain = [int(v) for v in rng.choice(10, size=k, replace=False)]
        trace = mmap2mar(model, explain)
        assert trace.mar_calls == k * (k + 1) // 2

    def test_mar_seconds_positive_when_steps_ran(self, weather):
        trace = mmap2mar(weather, [0, 1])
        assert trace.mar_seconds > 0.0

    def test_determinism(self):
        rng = np.random.default_rng(45)
        model = random_model(7, rng=rng)
        evidence = _random_evidence(model, 1, rng)
        explain = [v for v in range(model.n_vars) if v not in evidence]
        a = epsilon_mmap2mar(model, explain, evidence, epsilon=0.9)
        b = epsilon_mmap2mar(model, explain, evidence, epsilon=0.9)
        assert a.explained == b.explained
        assert a.p_tilde == b.p_tilde
        assert a.confidence == b.confidence
        assert a.break_entropy == b.break_entropy
        assert [(s.variable, s.chosen_state) for s in a.steps] == [
            (s.variable, s.chosen_state) for s in b.steps
        ]
        for x, y in zip(a.steps, b.steps):
            assert x.entropy_at_selection == y.entropy_at_selection
            assert np.array_equal(x.marginal.probs, y.marginal.probs)

    def test_confidence_beats_threshold_complement(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            model = random_model(6, rng=rng)
            evidence = _random_evidence(model, 1, rng)
            explain = [v for v in range(model.n_vars) if v not in evidence]
            eps = float(rng.uniform(0.1, 1.0))
            trace = epsilon_mmap2mar(model, explain, evidence, epsilon=eps)
            assert trace.confidence >= 1.0 - eps
            if trace.steps:
                assert trace.confidence > 1.0 - eps


class TestContractErrors:
    def test_empty_explain_rejected(self, weather):
        with pytest.raises(ValueError, match="non-empty"):
            mmap2mar(weather, [])

    def test_overlap_with_evidence_rejected(self, weather):
        with pytest.raises(ValueError, match="overlap"):
            mmap2mar(weather, [0, 1], {0: 0})

    def test_out_of_range_explain_rejected(self, weather):
        with pytest.raises(ValueError, match="out of range"):
            mmap2mar(weather, [2])
        with pytest.raises(ValueError, match="out of range"):
            epsilon_mmap2mar(weather, [2], epsilon=0.5)

    def test_cardinality_one_variable_rejected(self):
        model = GraphicalModel(
            (1, 2),
            (Potential((0,), [1.0]), Potential((1,), [0.4, 0.6])),
        )
        with pytest.raises(ValueError, match="cardinality 1"):
            mmap2mar(model, [0, 1])

    def test_zero_probability_evidence_identifies_step(self):
        model = GraphicalModel(
            (2, 2),
            (Potential((0,), [1.0, 0.0]), Potential((1,), [0.5, 0.5])),
        )
        with pytest.raises(ZeroProbabilityEvidenceError, match="step 1"):
            mmap2mar(model, [1], {0: 1})

"""Benchmark harness: instance generation, metrics, aggregation, and data files."""

import csv

import numpy as np
import pytest

from margmap import (
    BenchmarkSpec,
    GraphicalModel,
    Potential,
    TrajectoryPoint,
    ZeroProbabilityEvidenceError,
    emit_dat,
    generate_instance,
    hamming_similarity,
    pr,
    read_dat,
    run_benchmark,
)
from margmap.bench import CSV_HEADER
from margmap.generate import random_chain_model
from margmap.uaiio import write_uai

# chi-square 0.999 quantile at 3 degrees of freedom
CHI2_CRIT_DF3 = 16.266


class TestGenerateInstance:
    def test_deterministic_given_seed(self, weather):
        a = generate_instance(weather, 1, np.random.default_rng(5))
        b = generate_instance(weather, 1, np.random.default_rng(5))
        assert a == b

    def test_positive_probability(self, weather):
        rng = np.random.default_rng(6)
        for _ in range(50):
            evidence = generate_instance(weather, 1, rng)
            assert pr(weather, evidence) > 0.0

    def test_uniform_over_variable_state_pairs(self, weather):
        rng = np.random.default_rng(7)
        counts = {(v, s): 0 for v in range(2) for s in range(2)}
        draws = 10000
        for _ in range(draws):
            ((v, s),) = generate_instance(weather, 1, rng).items()
            counts[(v, s)] += 1
        expected = draws / 4
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < CHI2_CRIT_DF3

    def test_k_bounds_enforced(self, weather):
        with pytest.raises(ValueError, match="0 < k"):
            generate_instance(weather, 0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="0 < k"):
            generate_instance(weather, 2, np.random.default_rng(0))

    def test_zero_probability_draws_are_retried(self):
        # state 1 of X0 is impossible; draws hitting it must be redrawn
        model = GraphicalModel(
            (2, 2),
            (Potential((0,), [1.0, 0.0]), Potential((1,), [0.5, 0.5])),
        )
        rng = np.random.default_rng(8)
        for _ in range(50):
            evidence = generate_instance(model, 1, rng)
            assert pr(model, evidence) > 0.0

    def test_gives_up_after_max_attempts(self):
        model = GraphicalModel(
            (2, 2),
            (Potential((0,), [1.0, 0.0]), Potential((1,), [0.5, 0.5])),
        )
        # seed 1's first draw observes X0 in its impossible state
        with pytest.raises(ZeroProbabilityEvidenceError, match="1 draws"):
            generate_instance(model, 1, np.random.default_rng(1), max_attempts=1)
        # with retries allowed the same stream recovers
        evidence = generate_instance(model, 1, np.random.default_rng(1))
        assert pr(model, evidence) > 0.0


class TestHammingSimilarity:
    def test_identical(self):
        assert hamming_similarity({1: 0, 2: 1}, {1: 0, 2: 1}) == 1.0

    def test_all_different(self):
        a = {v: 0 for v in range(4)}
        b = {v: 1 for v in range(4)}
        assert hamming_similarity(a, b) == 0.0

    def test_two_thirds(self):
        a = {1: 0, 2: 1, 3: 1}
        b = {1: 0, 2: 0, 3: 1}
        assert hamming_similarity(a, b) == pytest.approx(2 / 3)

    def test_empty_sets_count_as_perfect(self):
        assert hamming_similarity({}, {}) == 1.0

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same variable set"):
            hamming_similarity({1: 0}, {2: 0})


class TestBenchmarkSpec:
    def test_grid_must_increase(self, tmp_path):
        with pytest.raises(ValueError, match="increasing"):
            BenchmarkSpec(tmp_path / "m.uai", k=1, q=1, epsilon_grid=(0.5, 0.5), seed=0)

    def test_grid_must_stay_in_unit_interval(self, tmp_path):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            BenchmarkSpec(tmp_path / "m.uai", k=1, q=1, epsilon_grid=(0.0, 1.5), seed=0)

    def test_q_positive(self, tmp_path):
        with pytest.raises(ValueError, match="q"):
            BenchmarkSpec(tmp_path / "m.uai", k=1, q=0, epsilon_grid=(0.5,), seed=0)


def _small_spec(tmp_path, **overrides):
    rng = np.random.default_rng(9)
    model = random_chain_model(5, 2, rng=rng)
    path = tmp_path / "chain.uai"
    path.write_text(write_uai(model))
    defaults = dict(
        model_path=path, k=1, q=20, epsilon_grid=(0.0, 0.4, 0.8, 1.0), seed=11
    )
    defaults.update(overrides)
    return BenchmarkSpec(**defaults)


class TestRunBenchmark:
    def test_epsilon_zero_explains_nothing(self, tmp_path):
        points, results, skipped = run_benchmark(_small_spec(tmp_path))
        assert not skipped
        first = points[0]
        assert first.epsilon == 0.0
        assert first.exact_match_rate == 1.0
        assert first.mean_hamming == 1.0
        assert first.mean_explained_fraction == 0.0

    def test_rates_are_means_over_q_instances(self, tmp_path):
        spec = _small_spec(tmp_path)
        points, results, skipped = run_benchmark(spec)
        assert len(points) == len(spec.epsilon_grid)
        per_eps = {e: 0 for e in spec.epsilon_grid}
        for r in results:
            per_eps[r.epsilon] += 1
        assert all(c == spec.q for c in per_eps.values())

    def test_hamming_dominates_exact_match(self, tmp_path):
        points, results, _ = run_benchmark(_small_spec(tmp_path))
        for p in points:
            assert p.mean_hamming >= p.exact_match_rate
        for r in results:
            if r.exact_match:
                assert r.hamming_similarity == 1.0

    def test_explained_fraction_non_decreasing_in_epsilon(self, tmp_path):
        points, _, _ = run_benchmark(_small_spec(tmp_path))
        fractions = [p.mean_explained_fraction for p in points]
        assert fractions == sorted(fractions)

    def test_confidence_respects_threshold(self, tmp_path):
        _, results, _ = run_benchmark(_small_spec(tmp_path))
        for r in results:
            assert r.confidence >= 1.0 - r.epsilon

    def test_instance_evidence_identical_across_epsilons(self, tmp_path):
        spec = _small_spec(tmp_path)
        _, results, _ = run_benchmark(spec)
        by_index = {}
        for r in results:
            by_index.setdefault(r.index, set()).add(tuple(sorted(r.evidence.items())))
        assert all(len(v) == 1 for v in by_index.values())

    def test_deterministic_apart_from_timings(self, tmp_path):
        spec = _small_spec(tmp_path)
        points_a, results_a, _ = run_benchmark(spec)
        points_b, results_b, _ = run_benchmark(spec)
        assert points_a == points_b
        for a, b in zip(results_a, results_b):
            assert (a.epsilon, a.index, a.evidence) == (b.epsilon, b.index, b.evidence)
            assert a.heuristic_assignment == b.heuristic_assignment
            assert a.exact_assignment == b.exact_assignment
            assert (a.exact_match, a.hamming_similarity, a.confidence) == (
                b.exact_match,
                b.hamming_similarity,
                b.confidence,
            )

    def test_t_mar_positive_when_steps_ran(self, tmp_path):
        _, results, _ = run_benchmark(_small_spec(tmp_path, epsilon_grid=(1.0,)))
        for r in results:
            if r.heuristic_assignment:
                assert r.t_mar > 0.0

    def test_oracle_cap_skips_are_reported(self, tmp_path):
        spec = _small_spec(tmp_path, epsilon_grid=(1.0,), oracle_cap=1, q=5)
        points, results, skipped = run_benchmark(spec)
        assert not results
        assert not points
        assert len(skipped) == 5
        assert all("cap" in s.reason for s in skipped)

    def test_fully_observed_explainable_set_is_a_skip(self, tmp_path):
        model = GraphicalModel(
            (1, 2), (Potential((0,), [1.0]), Potential((1,), [0.4, 0.6]))
        )
        path = tmp_path / "card1.uai"
        path.write_text(write_uai(model))
        spec = BenchmarkSpec(path, k=1, q=10, epsilon_grid=(1.0,), seed=0)
        _, results, skipped = run_benchmark(spec)
        assert skipped and results
        assert len(skipped) + len(results) == spec.q
        for s in skipped:
            assert s.reason == "no explainable variables left unobserved"

    def test_k_must_leave_free_variables(self, tmp_path):
        with pytest.raises(ValueError, match="k"):
            run_benchmark(_small_spec(tmp_path, k=5))


class TestWeatherBench:
    def test_single_free_variable_always_matches_oracle(self, tmp_path, weather):
        # a single-variable explanation is the marginal argmax, which the
        # exact solver also returns, so every instance matches; observing
        # X0=0 leaves an exactly uniform marginal, which the strict threshold
        # at 1.0 refuses, so those instances explain nothing (and match
        # vacuously)
        path = tmp_path / "weather.uai"
        path.write_text(write_uai(weather))
        spec = BenchmarkSpec(
            model_path=path, k=1, q=50, epsilon_grid=(1.0,), seed=3
        )
        points, results, skipped = run_benchmark(spec)
        assert not skipped
        assert points[0].exact_match_rate == 1.0
        assert points[0].mean_hamming == 1.0
        for r in results:
            if 1 in r.evidence:  # commute observed: the rain marginal is not uniform
                assert len(r.heuristic_assignment) == 1
            if r.evidence.get(0) == 0:  # sunny observed: uniform commute marginal
                assert r.heuristic_assignment == {}


class TestTrendOnGrid:
    def test_accuracy_does_not_improve_with_looser_thresholds(self, grid_bench):
        _, points, results, skipped = grid_bench
        assert not skipped
        nonempty = [p for p in points if p.mean_explained_fraction > 0]
        last = next(p for p in points if p.epsilon == 1.0)
        assert nonempty[0].exact_match_rate >= last.exact_match_rate
        for p in points:
            assert p.mean_hamming >= p.exact_match_rate


class TestEmitDat:
    def test_single_point_line_format(self, tmp_path):
        point = TrajectoryPoint(0.5, 0.9, 0.95, 0.4)
        emit_dat(
            [point],
            [],
            match_path=tmp_path / "m.dat",
            hamming_path=tmp_path / "h.dat",
            csv_path=tmp_path / "i.csv",
        )
        assert (tmp_path / "m.dat").read_text() == "0.5 0.9\n"
        assert (tmp_path / "h.dat").read_text() == "0.5 0.95\n"

    def test_empty_trajectory_gives_empty_files_and_csv_header(self, tmp_path):
        emit_dat(
            [],
            [],
            match_path=tmp_path / "m.dat",
            hamming_path=tmp_path / "h.dat",
            csv_path=tmp_path / "i.csv",
        )
        assert (tmp_path / "m.dat").read_text() == ""
        assert (tmp_path / "h.dat").read_text() == ""
        assert (tmp_path / "i.csv").read_text() == CSV_HEADER + "\n"

    def test_round_trip_through_reader(self, tmp_path):
        points, results, _ = run_benchmark(_small_spec(tmp_path))
        emit_dat(
            points,
            results,
            match_path=tmp_path / "m.dat",
            hamming_path=tmp_path / "h.dat",
            csv_path=tmp_path / "i.csv",
            seed=11,
        )
        match = read_dat(tmp_path / "m.dat")
        hamming = read_dat(tmp_path / "h.dat")
        assert match == [(p.epsilon, p.exact_match_rate) for p in points]
        assert hamming == [(p.epsilon, p.mean_hamming) for p in points]

    def test_csv_contents(self, tmp_path):
        points, results, _ = run_benchmark(_small_spec(tmp_path))
        emit_dat(
            points,
            results,
            match_path=tmp_path / "m.dat",
            hamming_path=tmp_path / "h.dat",
            csv_path=tmp_path / "i.csv",
            seed=11,
        )
        lines = (tmp_path / "i.csv").read_text().splitlines()
        assert lines[0] == "# seed=11"
        assert lines[1] == CSV_HEADER
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == len(results)
        for row, r in zip(rows, results):
            assert float(row["epsilon"]) == r.epsilon
            assert int(row["seed_index"]) == r.index
            assert int(row["exact_match"]) == int(r.exact_match)
            assert float(row["hamming"]) == r.hamming_similarity
            assert float(row["confidence"]) == r.confidence
            assert float(row["explained_fraction"]) == r.explained_fraction

"""Benchmark harness: instance generation, metrics, aggregation, and data files."""

import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from margmap import (
    BenchmarkSpec,
    GraphicalModel,
    InstanceResult,
    OracleTooLargeError,
    Potential,
    SkippedInstance,
    TrajectoryPoint,
    ZeroProbabilityEvidenceError,
    bench,
    brute_force_mmap,
    emit_dat,
    epsilon_mmap2mar,
    generate_instance,
    hamming_similarity,
    parse_uai,
    pr,
    read_dat,
    run_benchmark,
)
from margmap.bench import CSV_HEADER
from margmap.inference import _Elimination
from margmap.generate import random_grid_model, random_model
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

    def test_gives_up_after_max_attempts(self, monkeypatch):
        model = GraphicalModel(
            (2, 2),
            (Potential((0,), [1.0, 0.0]), Potential((1,), [0.5, 0.5])),
        )
        # seed 1's first draw observes X0 in its impossible state
        monkeypatch.setattr(bench, "_MAX_ATTEMPTS", 1)
        with pytest.raises(ZeroProbabilityEvidenceError, match="1 draws"):
            generate_instance(model, 1, np.random.default_rng(1))
        monkeypatch.undo()
        # with retries allowed the same stream recovers
        evidence = generate_instance(model, 1, np.random.default_rng(1))
        assert pr(model, evidence) > 0.0


class TestRandomModels:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda rng: random_grid_model(0, 3, rng=rng), "rows and cols"),
            (lambda rng: random_grid_model(2, 2, 1, rng=rng), "cardinality"),
            (lambda rng: random_model(0, rng=rng), "n_vars"),
        ],
    )
    def test_degenerate_sizes_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make(np.random.default_rng(0))


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

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"epsilon_grid": ()}, "non-empty"),
            ({"k": 0}, "k must be >= 1"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"oracle_cap": 0}, "oracle_cap must be >= 1"),
            ({"oracle_cap": -5}, "oracle_cap must be >= 1"),
        ],
    )
    def test_out_of_range_field_is_named(self, tmp_path, override, message):
        fields = dict(model_path=tmp_path / "m.uai", k=1, q=1, epsilon_grid=(0.5,), seed=0)
        with pytest.raises(ValueError, match=message):
            BenchmarkSpec(**{**fields, **override})


def _small_spec(tmp_path, **overrides):
    rng = np.random.default_rng(9)
    model = random_grid_model(1, 5, 2, rng=rng)
    path = tmp_path / "chain.uai"
    path.write_text(write_uai(model))
    defaults = dict(
        model_path=path, k=1, q=20, epsilon_grid=(0.0, 0.4, 0.8, 1.0), seed=11
    )
    defaults.update(overrides)
    return BenchmarkSpec(**defaults)


def _count_draws(monkeypatch):
    """Record each call ``run_benchmark`` makes to ``generate_instance``."""
    drawn = []

    def counting(*args, **kwargs):
        drawn.append(args)
        return generate_instance(*args, **kwargs)

    monkeypatch.setattr("margmap.bench.generate_instance", counting)
    return drawn


def _fail_draw(monkeypatch, spec, index):
    """Make every draw of instance ``index`` through ``margmap.bench`` fail."""
    doomed = np.random.default_rng([spec.seed, index]).bit_generator.state

    def drawing(model, k, rng, **kwargs):
        if rng.bit_generator.state == doomed:
            raise ZeroProbabilityEvidenceError(f"no evidence drawn for instance {index}")
        return generate_instance(model, k, rng, **kwargs)

    monkeypatch.setattr("margmap.bench.generate_instance", drawing)


def _reference_benchmark(spec):
    """``run_benchmark`` as a plain loop: epsilon outside, each instance drawn and solved anew."""
    model = parse_uai(Path(spec.model_path).read_text())
    points, results, skipped = [], [], []
    for eps in spec.epsilon_grid:
        completed = []
        for index in range(spec.q):
            try:
                evidence = bench.generate_instance(
                    model, spec.k, np.random.default_rng([spec.seed, index])
                )
            except ZeroProbabilityEvidenceError as err:
                skipped.append(SkippedInstance(eps, index, str(err)))
                continue
            explain = [
                v for v in range(model.n_vars)
                if v not in evidence and model.cardinalities[v] >= 2
            ]
            if not explain:
                skipped.append(SkippedInstance(eps, index, "no explainable variables left unobserved"))
                continue
            try:
                trace = epsilon_mmap2mar(model, explain, evidence, epsilon=eps)
                exact = brute_force_mmap(model, evidence, trace.explained, cap=spec.oracle_cap)
            except (ZeroProbabilityEvidenceError, OracleTooLargeError) as err:
                skipped.append(SkippedInstance(eps, index, str(err)))
                continue
            completed.append(
                InstanceResult(
                    eps, index, dict(evidence), dict(trace.explained), dict(exact.assignment),
                    trace.explained == exact.assignment,
                    hamming_similarity(trace.explained, exact.assignment),
                    trace.confidence, len(trace.explained) / len(explain),
                    t_mar=trace.mar_seconds, t_mmap=0.0,
                )
            )
        results.extend(completed)
        if completed:
            n = len(completed)
            points.append(
                TrajectoryPoint(
                    eps,
                    float(sum(r.exact_match for r in completed) / n),
                    float(sum(r.hamming_similarity for r in completed) / n),
                    float(sum(r.explained_fraction for r in completed) / n),
                )
            )
    return points, results, skipped


def _untimed(results):
    return [dataclasses.replace(r, t_mar=0.0, t_mmap=0.0) for r in results]


def _emitted(tmp_path, name, points, results):
    """The three output files' text, with the t_* columns cut from the CSV."""
    paths = {key: tmp_path / f"{name}_{key}" for key in ("match", "hamming", "csv")}
    emit_dat(
        points, results, match_path=paths["match"], hamming_path=paths["hamming"],
        csv_path=paths["csv"], seed=0,
    )
    rows = [row[:6] for row in csv.reader(paths["csv"].read_text().splitlines())]
    return paths["match"].read_text(), paths["hamming"].read_text(), rows


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

    def test_evidence_is_drawn_once_per_instance(self, tmp_path, monkeypatch):
        drawn = _count_draws(monkeypatch)
        spec = _small_spec(tmp_path, q=3)
        _, results, _ = run_benchmark(spec)
        assert len(spec.epsilon_grid) > 1
        assert len(drawn) == spec.q  # not q times the grid size
        assert [(r.epsilon, r.index) for r in results] == [
            (e, i) for e in spec.epsilon_grid for i in range(spec.q)
        ]

    def test_failed_draws_are_skipped_at_every_epsilon_in_order(self, tmp_path, monkeypatch):
        # the model's joint mass is zero, so the first draw's pr raises
        model = GraphicalModel((2, 2), (Potential((0, 1), np.zeros((2, 2))),))
        path = tmp_path / "zero.uai"
        path.write_text(write_uai(model))
        drawn = _count_draws(monkeypatch)
        spec = BenchmarkSpec(path, k=1, q=2, epsilon_grid=(0.5, 1.0), seed=0)
        points, results, skipped = run_benchmark(spec)
        assert not points and not results
        assert len(drawn) == spec.q
        assert [(s.epsilon, s.index) for s in skipped] == [(0.5, 0), (0.5, 1), (1.0, 0), (1.0, 1)]
        reason = "the model's joint mass is identically zero"
        assert all(s.reason == reason for s in skipped)

    def test_one_shared_core_per_instance(self, tmp_path, monkeypatch):
        # X2 = 1 is impossible, so some instances draw their evidence again
        rng = np.random.default_rng(13)
        grid = random_grid_model(1, 5, 2, rng=rng)
        zeroed = Potential((2,), [1.0, 0.0])
        path = tmp_path / "chain.uai"
        path.write_text(write_uai(GraphicalModel(grid.cardinalities, (*grid.potentials, zeroed))))
        spec = BenchmarkSpec(path, k=1, q=8, epsilon_grid=(0.0, 0.4, 0.8, 1.0), seed=3)
        made, draws = [], []
        init = _Elimination.__init__

        def counting(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_Elimination, "__init__", counting)
        monkeypatch.setattr("margmap.bench.pr", lambda *args: draws.append(args) or pr(*args))
        points, results, skipped = run_benchmark(spec)
        assert not skipped and len(draws) > spec.q
        assert len({(r.index, frozenset(r.heuristic_assignment)) for r in results}) > spec.q
        # per instance, one core for its draws, greedy rounds and oracle solves;
        # one more for the parsed model's partition function
        assert len(made) == spec.q + 1
        monkeypatch.undo()
        reference = _reference_benchmark(spec)
        assert _emitted(tmp_path, "shared", points, results) == _emitted(
            tmp_path, "reference", *reference[:2]
        )

    def test_instance_loop_matches_an_epsilon_outer_reference(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(12)
        path = tmp_path / "grid.uai"
        path.write_text(write_uai(random_grid_model(3, 3, 3, rng=rng, sigma=2.0)))
        spec = BenchmarkSpec(
            path, k=1, q=6, epsilon_grid=(0.0, 0.3, 0.6, 0.9, 1.0), seed=4, oracle_cap=27
        )
        _fail_draw(monkeypatch, spec, 2)
        points, results, skipped = run_benchmark(spec)
        ref_points, ref_results, ref_skipped = _reference_benchmark(spec)
        assert points == ref_points
        assert _untimed(results) == _untimed(ref_results)
        assert skipped == ref_skipped
        reasons = {s.reason for s in skipped}
        assert "no evidence drawn for instance 2" in reasons
        assert any("exceed the cap" in r for r in reasons)
        assert len(results) + len(skipped) == spec.q * len(spec.epsilon_grid)
        assert len({r.index for r in results}) == spec.q - 1


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

    def test_reader_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "m.dat"
        path.write_text("# header\n\n0.5 0.25\n\n1.0 0.75\n")
        assert read_dat(path) == [(0.5, 0.25), (1.0, 0.75)]

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

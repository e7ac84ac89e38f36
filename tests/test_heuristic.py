"""The greedy explainer: goldens, the lower-bound guarantee, and threshold semantics."""

import numpy as np
import pytest

from margmap import (
    GraphicalModel,
    Potential,
    ZeroProbabilityEvidenceError,
    brute_force_mmap,
    entropy,
    epsilon_mmap2mar,
    mar,
    mmap2mar,
    pr,
)
from margmap import inference
from margmap.generate import random_grid_model, random_model
from margmap.inference import _Elimination, _core, _shared, _sharing

from conftest import (
    differential_models,
    entropy_by_formula,
    hub_model,
    one_state_crowd_model,
    random_evidence,
    reference_greedy,
    trace_bits,
)


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

    @pytest.mark.parametrize("epsilon", [1.5, "0.5", True, None])
    def test_epsilon_validated(self, weather, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            epsilon_mmap2mar(weather, [0, 1], epsilon=epsilon)


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


class TestSharedRounds:
    def test_trace_matches_one_mar_query_per_candidate(self):
        rng = np.random.default_rng(71)
        compared = 0
        for model in differential_models(71):
            evidence = random_evidence(model, rng)
            targets = [
                v for v in range(model.n_vars)
                if v not in evidence and model.cardinalities[v] >= 2
            ]
            if not targets:
                continue
            for epsilon in (None, float(rng.uniform(0.2, 0.9))):

                def run():
                    if epsilon is None:
                        return mmap2mar(model, targets, evidence)
                    return epsilon_mmap2mar(model, targets, evidence, epsilon=epsilon)

                try:
                    expected = reference_greedy(model, targets, evidence, epsilon)
                except ZeroProbabilityEvidenceError:
                    with pytest.raises(ZeroProbabilityEvidenceError):
                        run()
                    continue
                assert trace_bits(run()) == trace_bits(expected)
                compared += 1
        assert compared >= 150


def _count_calls(monkeypatch, method="table"):
    """Record the calls of ``_Elimination.<method>``: each evidence and what it asked, copied.

    ``tree`` is recorded per call, with its variables and the (table,
    entropy) pairs it gave: once per round of two targets or more. ``table``
    is recorded once per core and distinct evidence in a row, with every
    keep asked under it: once per scored round. A model's first p~ also computes its partition function on
    a core of its own, one more record, so count those only on a model that
    has already answered a query.
    """
    calls = []
    original = getattr(_Elimination, method)
    last = [None, None]  # the core and evidence of the last ``table`` record

    def counting(self, evidence, asked):
        if method == "tree":
            ranked = original(self, evidence, asked)
            calls.append((dict(evidence), list(asked), ranked))
            return ranked
        if last[0] is self and last[1] == evidence:
            calls[-1][1].append(tuple(asked))
        else:
            last[:] = [self, dict(evidence)]
            calls.append((dict(evidence), [tuple(asked)]))
        return original(self, evidence, asked)

    monkeypatch.setattr(_Elimination, method, counting)
    return calls


def _explainable_instances(seed):
    """(model, evidence, targets) on every fifth differential model, with random evidence."""
    rng = np.random.default_rng(seed)
    for model in differential_models(seed)[::5]:
        evidence = random_evidence(model, rng)
        targets = [
            v for v in range(model.n_vars) if v not in evidence and model.cardinalities[v] >= 2
        ]
        if targets:
            yield model, evidence, targets


class TestRoundLog:
    def test_every_epsilon_order_gives_the_fresh_traces(self, monkeypatch):
        rng = np.random.default_rng(81)
        grid = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 1.0]
        compared = 0
        for model, evidence, targets in _explainable_instances(81):
            try:
                fresh = {e: epsilon_mmap2mar(model, targets, evidence, epsilon=e) for e in grid}
            except ZeroProbabilityEvidenceError:
                continue
            fresh[None] = mmap2mar(model, targets, evidence)
            for order in (grid, grid[::-1], list(rng.permutation(grid))):
                scored = _count_calls(monkeypatch)
                with _sharing():
                    for e in order:
                        shared = epsilon_mmap2mar(model, targets, evidence, epsilon=float(e))
                        assert trace_bits(shared) == trace_bits(fresh[float(e)])
                    assert trace_bits(mmap2mar(model, targets, evidence)) == trace_bits(fresh[None])
                monkeypatch.undo()
                assert len(scored) == len(targets)  # one full run's rounds, each scored once
                compared += 1
        assert compared >= 45

    def test_replayed_rounds_count_their_first_seconds(self):
        model, evidence, targets = next(_explainable_instances(82))
        with _sharing():
            first = mmap2mar(model, targets, evidence)
            again = mmap2mar(model, targets, evidence)
        assert again.mar_seconds == first.mar_seconds > 0.0

    def test_no_scope_keeps_no_rounds(self, monkeypatch):
        model, evidence, targets = next(_explainable_instances(83))
        fresh = mmap2mar(model, targets, evidence)
        scored = _count_calls(monkeypatch)
        a = mmap2mar(model, targets, evidence)
        b = mmap2mar(model, targets, evidence)
        assert len(scored) == 2 * len(targets)
        assert trace_bits(a) == trace_bits(b) == trace_bits(fresh)
        assert _shared.get() is None

    def test_other_evidence_or_target_order_misses_the_log(self, monkeypatch):
        model, evidence, targets = next(
            (m, e, t) for m, e, t in _explainable_instances(84) if len(t) >= 2 and e
        )
        observed, state = next(iter(evidence.items()))
        other = {**evidence, observed: (state + 1) % model.cardinalities[observed]}
        mmap2mar(model, targets, evidence)
        scored = _count_calls(monkeypatch)
        with _sharing():
            mmap2mar(model, targets, evidence)
            assert len(scored) == len(targets)
            mmap2mar(model, targets, evidence)
            assert len(scored) == len(targets)  # the same inputs hit
            try:
                mmap2mar(model, targets, other)
            except ZeroProbabilityEvidenceError:
                assert len(scored) == len(targets) + 1
            else:
                assert len(scored) == 2 * len(targets)
            before = len(scored)
            mmap2mar(model, targets[::-1], evidence)
            assert len(scored) == before + len(targets)

    def test_a_failed_call_logs_nothing_and_fails_again_alike(self, monkeypatch):
        model = GraphicalModel(
            (2, 2, 2),
            (Potential((0,), [1.0, 0.0]), Potential((0, 1, 2), np.ones((2, 2, 2)))),
        )
        pr(model, {})  # the error path checks the partition function: fill it first
        scored = _count_calls(monkeypatch, "tree")  # one bucket tree per round of two targets
        with _sharing():
            with pytest.raises(ZeroProbabilityEvidenceError) as first:
                epsilon_mmap2mar(model, [1, 2], {0: 1}, epsilon=0.5)
            assert _core(model).logs == {}  # the scope's core keeps no log
            with pytest.raises(ZeroProbabilityEvidenceError) as again:
                mmap2mar(model, [1, 2], {0: 1})
        assert str(again.value) == str(first.value)
        assert len(scored) == 2  # the repeat scored its round anew


def _linked(model, evidence, v):
    """The unobserved variables joined to ``v`` by a path of potentials that avoids ``evidence``."""
    reached, frontier = {v}, [v]
    while frontier:
        u = frontier.pop()
        for p in model.potentials:
            if u in p.scope:
                new = {w for w in p.scope if w not in evidence} - reached
                reached |= new
                frontier += new
    return reached


def _outcome(run):
    """``run()``'s trace as :func:`trace_bits`, or the type and text of its zero-mass error."""
    try:
        return trace_bits(run())
    except ZeroProbabilityEvidenceError as err:
        return type(err), str(err)


def _screen_instances(rng):
    """(model, evidence, targets): the differential models of seed 91 under random evidence."""
    for model in differential_models(91):
        evidence = random_evidence(model, rng)
        targets = [
            v for v in range(model.n_vars) if v not in evidence and model.cardinalities[v] >= 2
        ]
        if targets:
            yield model, evidence, targets


class TestScreen:
    """Rounds ranked by the bucket tree give the traces of one ``mar`` per candidate, bit for bit."""

    @staticmethod
    def _check_carry(model, trees):
        """The core's carry over one run's ``tree`` calls. Each call after the first
        computes the tables of the targets joined to the variable the round before
        committed, and gives every other target's (table, entropy) pair as the object
        the call before gave; a carried entropy is its table's and a fresh tree's, to
        1e-12. Returns how many tables each call computed and how many were carried."""
        computed, carried = [len(trees[0][1])] if trees else [], 0
        for (before, targets, ranked), (evidence, now, held) in zip(trees, trees[1:]):
            [(w, _)] = evidence.items() - before.items()
            linked = _linked(model, before, w)
            last = dict(zip(targets, ranked))
            fresh = _Elimination(model).tree(evidence, now)
            for v, pair, (_, new) in zip(now, held, fresh):
                assert (pair is last[v]) == (v not in linked)
                if v in linked:
                    continue
                table, h = pair
                mass = float(table.sum())
                assert 0.0 < mass < np.inf
                assert abs(h - inference._entropy(table / mass)) <= 1e-12
                assert abs(h - new) <= 1e-12
                carried += 1
            computed.append(sum(v in linked for v in now))
        return computed, carried

    def test_screened_traces_are_the_exhaustive_ones(self, monkeypatch):
        rng = np.random.default_rng(91)
        instances = list(_screen_instances(rng))
        grid = random_grid_model(6, 6, 2, rng=rng, sigma=1.0)
        observed = [int(v) for v in rng.choice(36, size=4, replace=False)]
        evidence = {v: int(rng.integers(2)) for v in observed}
        instances.append((grid, evidence, [v for v in range(36) if v not in evidence]))
        # a 6x6 grid whose observed column 2 and row 3 cut it into four components
        cut = random_grid_model(6, 6, 2, rng=rng, sigma=1.0)
        evidence = {v: int(rng.integers(2)) for v in range(36) if v % 6 == 2 or v // 6 == 3}
        instances.append((cut, evidence, [v for v in range(36) if v not in evidence]))
        # a differential model of two components, with 8 targets or more
        split = next(
            m
            for m in differential_models(91)
            if len(_linked(m, {}, 0)) < m.n_vars and sum(c >= 2 for c in m.cardinalities) >= 8
        )
        instances.append((split, {}, [v for v in range(split.n_vars) if split.cardinalities[v] >= 2]))
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":  # an array of 61 axes
            # a bucket of 61 variables, 60 of one state, beside 14 chained targets
            crowd = one_state_crowd_model(60, 14, rng)
            instances.append((crowd, {}, [0, *range(61, 75)]))
        trees = _count_calls(monkeypatch, "tree")
        compared = carried = errors = 0
        computed = []  # the tables each ``tree`` call computed
        for model, evidence, targets in instances:
            for epsilon in (None, float(rng.uniform(0.2, 0.9))):
                trees.clear()
                if epsilon is None:
                    got = _outcome(lambda: mmap2mar(model, targets, evidence))
                else:
                    got = _outcome(
                        lambda: epsilon_mmap2mar(model, targets, evidence, epsilon=epsilon)
                    )
                assert got == _outcome(lambda: reference_greedy(model, targets, evidence, epsilon))
                made, kept = self._check_carry(model, trees)
                computed += made
                carried += kept
                errors += got[0] is ZeroProbabilityEvidenceError
                compared += 1
        assert compared >= 180 and errors >= 1
        assert len(computed) >= 500
        assert computed.count(0) >= 1  # some rounds carried every target's table
        assert carried >= 1000
        assert max(computed) == 32

    def test_a_hub_of_many_leaves(self, monkeypatch):
        # the hub's bucket holds 70 leaf messages, past einsum's operand limit
        model = hub_model(70, np.random.default_rng(93))
        trees = _count_calls(monkeypatch, "tree")
        computed = []
        for targets, evidence in ((range(1, 21), {30: 1}), ([0, *range(40, 56)], {})):
            trees.clear()
            bits = trace_bits(mmap2mar(model, targets, evidence))
            assert bits == trace_bits(reference_greedy(model, targets, evidence))
            computed.append(self._check_carry(model, trees)[0])
        # Every round of 2 targets or more asks the tree. In the first run the free hub
        # joins all leaves, so each of its 19 rounds computes every target's table. In
        # the second the hub wins round 1, and round 2 computes the 16 leaves it joined;
        # from then on each leaf is alone, and every table is carried.
        assert bits[3][0][0] == 0
        assert computed == [list(range(20, 1, -1)), [17, 16] + [0] * 14]

    def test_a_massless_component_without_targets_gives_the_unscreened_error(self):
        # Each tree table is its own component's, up to scale, so a round without
        # mass elsewhere is found by the winner's walk, and the error names the
        # first target, as the reference's does. Under {3: 1}, component {0} has
        # no mass; the tree walks only {1, 2}, where 2's marginal (0.1, 0.9) wins.
        pair = Potential((1, 2), [[1.0, 9.0], [1.0, 9.0]])
        instances = [
            (
                GraphicalModel((2,) * 4, (Potential((0, 3), [[1.0, 0.0], [1.0, 0.0]]), pair)),
                {3: 1},
                [1, 2],
            ),
            # a fully observed potential of zero
            (GraphicalModel((2,) * 3, (Potential((0,), [1.0, 0.0]), pair)), {0: 1}, [1, 2]),
            # a walked component of zero mass, so the model has none
            (GraphicalModel((2,) * 3, (Potential((0,), [0.0, 0.0]), pair)), {}, [1, 2, 0]),
        ]
        messages = []
        for model, evidence, targets in instances:
            got = _outcome(lambda: mmap2mar(model, targets, evidence))
            assert got == _outcome(lambda: reference_greedy(model, targets, evidence))
            assert got[0] is ZeroProbabilityEvidenceError
            messages.append(got[1])
        assert all("while scoring variable 1" in m for m in messages[:2])
        assert messages[2] == "the model's joint mass is identically zero"

    def test_a_tree_table_that_overflowed_is_walked(self):
        # One potential over three binary variables. The tree sums the bucket of the
        # first variable it eliminates over the other two at once: four entries, a
        # mass past float64's largest value (and at 0.5e308 a table past it). A walk
        # sums one variable at a time and rescales between, so it stays finite, and
        # that target is walked beside the tree's least and can win.
        for entry in (0.4e308, 0.5e308):
            model = GraphicalModel((2, 2, 2), (Potential((0, 1, 2), np.full((2, 2, 2), entry)),))
            assert [h for _, h in _Elimination(model).tree({}, [0, 1, 2])][0] is None
            bits = trace_bits(mmap2mar(model, [0, 1, 2]))
            assert bits == trace_bits(reference_greedy(model, [0, 1, 2], {}))
            assert [step[0] for step in bits[3]] == [0, 1, 2]  # every walk ties at entropy 1

    def test_exact_walk_ties_go_to_the_lowest_id(self, monkeypatch):
        # Symmetric grids have candidates whose walk entropies tie exactly, while
        # their tree entropies differ in the last bits; the tie rule takes the
        # lowest id whatever the tree's strict minimum says.
        trees = _count_calls(monkeypatch, "tree")
        rounds = tied = 0
        for model, evidence, targets in _screen_instances(np.random.default_rng(91)):
            trees.clear()
            try:
                trace = mmap2mar(model, targets, evidence)
            except ZeroProbabilityEvidenceError:
                continue
            for (working, variables, ranked), step in zip(trees, trace.steps):
                walks = [entropy(mar(model, working, v)) for v in variables]
                lowest = variables[walks.index(min(walks))]
                tree = [np.inf if h is None else h for _, h in ranked]
                strict = variables[int(np.argmin(tree))]
                rounds += 1
                if walks.count(min(walks)) > 1 and strict != lowest:
                    assert step.variable == lowest
                    tied += 1
        assert rounds >= 300
        assert tied >= 2  # both in one symmetric grid, in rounds 1 and 2

    def test_screen_entropies_are_those_of_entropy(self):
        rng = np.random.default_rng(94)
        tables = [
            rng.uniform(0.0, 1.0, int(rng.integers(1, 12))) * 10.0 ** float(rng.integers(-300, 300))
            for _ in range(200)
        ]
        tables += [np.array(t) for t in ([0.0, 1e-300, 2.0], [1.0, 0.0], [3.0], [0.0, 0.0])]
        tables += [np.array(t) for t in ([np.inf, 1.0], [np.nan, 1.0], [1e308, 1e308])]
        for table, h in zip(tables, inference._entropies(tables)):
            with np.errstate(over="ignore"):
                mass = float(table.sum())
            if 0.0 < mass < np.inf:
                # one pass sums in another order: a few float64 ulps of entropies in [0, 1]
                assert h == pytest.approx(inference._entropy(table / mass), rel=0.0, abs=1e-14)
            else:
                assert h is None

    def test_the_line(self, monkeypatch):
        # a 1-target round walks its only target; a round of 2 targets or more asks the tree
        model = random_grid_model(2, 2, 2, rng=np.random.default_rng(92), sigma=1.0)
        trees = _count_calls(monkeypatch, "tree")
        for k, screened in ((1, []), (2, [[0, 1]])):
            trees.clear()
            trace = mmap2mar(model, range(k))
            assert [variables for _, variables, _ in trees] == screened  # round 1 of 2 targets only
            assert trace.mar_calls == k * (k + 1) // 2


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

    @pytest.mark.parametrize("explain", [[1.5], ["1"], [True], [0, 0.7]])
    def test_non_integer_explain_rejected(self, weather, explain):
        with pytest.raises(ValueError, match="must be an integer variable id"):
            mmap2mar(weather, explain)
        with pytest.raises(ValueError, match="must be an integer variable id"):
            epsilon_mmap2mar(weather, explain, epsilon=0.5)

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

"""Factor algebra: golden values, enumeration cross-checks, and type invariants."""

import itertools

import numpy as np
import pytest

from margmap import (
    GraphicalModel,
    MassFunction,
    ModelInconsistencyError,
    Potential,
    ZeroProbabilityEvidenceError,
    factor_marginalize,
    factor_product,
    factor_restrict,
    mar,
    normalize,
)
from margmap.generate import random_model

from conftest import WEATHER_JOINT, eval_potential, joint_by_enumeration


class TestFactorProduct:
    def test_all_ones_is_identity(self):
        ones = Potential((0,), [1.0, 1.0])
        other = Potential((1,), [0.2, 0.7, 0.1])
        out = factor_product(ones, other, (2, 3))
        assert out.scope == (0, 1)
        np.testing.assert_array_equal(out.values[0], other.values)
        np.testing.assert_array_equal(out.values[1], other.values)

    def test_weather_joint(self, weather):
        out = factor_product(weather.potentials[0], weather.potentials[1], (2, 2))
        np.testing.assert_allclose(out.flat, WEATHER_JOINT, atol=1e-12)

    def test_matches_entrywise_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = Potential((0,), rng.uniform(0, 1, 2))
            b = Potential((1,), rng.uniform(0, 1, 2))
            out = factor_product(a, b, (2, 2))
            for s0, s1 in itertools.product(range(2), range(2)):
                expected = float(a.values[s0]) * float(b.values[s1])
                assert out.values[s0, s1] == pytest.approx(expected, abs=1e-15)

    def test_shared_variable_alignment(self):
        rng = np.random.default_rng(4)
        cards = (2, 3, 2)
        a = Potential((1, 0), rng.uniform(0, 1, (3, 2)))
        b = Potential((2, 1), rng.uniform(0, 1, (2, 3)))
        out = factor_product(a, b, cards)
        assert out.scope == (1, 0, 2)
        for assignment in itertools.product(range(2), range(3), range(2)):
            full = dict(enumerate(assignment))
            expected = eval_potential(a, full) * eval_potential(b, full)
            assert eval_potential(out, full) == pytest.approx(expected, abs=1e-15)

    def test_out_of_range_scope_rejected(self):
        a = Potential((0,), [1.0, 1.0])
        b = Potential((5,), [1.0, 1.0])
        with pytest.raises(ModelInconsistencyError):
            factor_product(a, b, (2, 2))

    def test_cardinality_mismatch_rejected_on_either_operand(self):
        good = Potential((0,), [1.0, 1.0])
        wide = Potential((1,), [1.0, 1.0, 1.0])
        for a, b in ((good, wide), (wide, good)):
            with pytest.raises(ModelInconsistencyError, match="cardinality"):
                factor_product(a, b, (2, 2))

    def test_commutative_and_associative_up_to_scope_order(self):
        rng = np.random.default_rng(11)
        cards = (2, 3, 2, 2)
        a = Potential((0, 1), rng.uniform(0, 1, (2, 3)))
        b = Potential((1, 2), rng.uniform(0, 1, (3, 2)))
        c = Potential((2, 3), rng.uniform(0, 1, (2, 2)))
        orders = [
            factor_product(factor_product(a, b, cards), c, cards),
            factor_product(a, factor_product(b, c, cards), cards),
            factor_product(factor_product(c, b, cards), a, cards),
            factor_product(b, factor_product(a, c, cards), cards),
        ]
        for assignment in itertools.product(*(range(k) for k in cards)):
            full = dict(enumerate(assignment))
            values = [eval_potential(p, full) for p in orders]
            np.testing.assert_allclose(values, values[0], atol=1e-12)


class TestFactorMarginalize:
    def test_empty_elimination_set(self, weather):
        p = weather.potentials[1]
        out = factor_marginalize(p, set(), (2, 2))
        assert out.scope == p.scope
        np.testing.assert_array_equal(out.values, p.values)

    def test_weather_marginals(self, weather):
        joint = factor_product(weather.potentials[0], weather.potentials[1], (2, 2))
        np.testing.assert_allclose(
            factor_marginalize(joint, {1}, (2, 2)).values, [0.60, 0.40], atol=1e-12
        )
        np.testing.assert_allclose(
            factor_marginalize(joint, {0}, (2, 2)).values, [0.35, 0.65], atol=1e-12
        )

    def test_full_scope_yields_scalar(self, weather):
        joint = factor_product(weather.potentials[0], weather.potentials[1], (2, 2))
        out = factor_marginalize(joint, {0, 1}, (2, 2))
        assert out.scope == ()
        assert float(out.values) == pytest.approx(1.0, abs=1e-12)

    def test_not_in_scope_rejected(self, weather):
        with pytest.raises(ValueError, match="not in scope"):
            factor_marginalize(weather.potentials[0], {1}, (2, 2))

    def test_sequential_equals_union(self):
        rng = np.random.default_rng(12)
        cards = (2, 3, 4)
        p = Potential((0, 1, 2), rng.uniform(0, 1, cards))
        two_step = factor_marginalize(
            factor_marginalize(p, {0}, cards), {2}, cards
        )
        one_step = factor_marginalize(p, {0, 2}, cards)
        assert two_step.scope == one_step.scope
        np.testing.assert_allclose(two_step.values, one_step.values, atol=1e-12)


class TestFactorRestrict:
    def test_empty_evidence(self, weather):
        p = weather.potentials[1]
        out = factor_restrict(p, {}, (2, 2))
        assert out.scope == p.scope
        np.testing.assert_array_equal(out.values, p.values)

    def test_weather_drive_slice(self, weather):
        joint = factor_product(weather.potentials[0], weather.potentials[1], (2, 2))
        out = factor_restrict(joint, {1: 1}, (2, 2))
        assert out.scope == (0,)
        np.testing.assert_allclose(out.values, [0.30, 0.35], atol=1e-12)

    def test_out_of_scope_evidence_ignored(self, weather):
        p = weather.potentials[0]
        for evidence in ({1: 0}, {1: 7}):  # an out-of-range state is ignored too
            out = factor_restrict(p, evidence, (2, 2))
            assert out.scope == (0,)
            np.testing.assert_array_equal(out.values, p.values)

    def test_slice_matches_enumeration(self):
        rng = np.random.default_rng(13)
        cards = (2, 3, 2)
        p = Potential((0, 1, 2), rng.uniform(0, 1, cards))
        out = factor_restrict(p, {1: 2}, cards)
        assert out.scope == (0, 2)
        for s0, s2 in itertools.product(range(2), range(2)):
            assert out.values[s0, s2] == eval_potential(p, {0: s0, 1: 2, 2: s2})

    def test_restriction_commutes_with_product(self):
        rng = np.random.default_rng(14)
        cards = (2, 3, 2)
        a = Potential((0, 1), rng.uniform(0, 1, (2, 3)))
        b = Potential((1, 2), rng.uniform(0, 1, (3, 2)))
        e = {1: 1}
        lhs = factor_restrict(factor_product(a, b, cards), e, cards)
        rhs = factor_product(
            factor_restrict(a, e, cards), factor_restrict(b, e, cards), cards
        )
        assert lhs.scope == rhs.scope
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)

    def test_bad_state_rejected(self, weather):
        with pytest.raises(ValueError, match="out of range"):
            factor_restrict(weather.potentials[0], {0: 5}, (2, 2))


class TestNormalize:
    def test_already_normalized(self):
        mf = normalize(Potential((0,), [0.5, 0.5]))
        np.testing.assert_array_equal(mf.probs, [0.5, 0.5])

    def test_weather_conditional(self):
        mf = normalize(Potential((0,), [0.30, 0.35]))
        np.testing.assert_allclose(mf.probs, [6 / 13, 7 / 13], atol=1e-12)

    def test_zero_mass_raises(self):
        with pytest.raises(ZeroProbabilityEvidenceError):
            normalize(Potential((0,), [0.0, 0.0]))

    def test_multi_variable_rejected(self):
        with pytest.raises(ValueError, match="single-variable"):
            normalize(Potential((0, 1), [[1.0, 1.0], [1.0, 1.0]]))


class TestGrandProductPositivity:
    def test_random_models_have_positive_total_mass(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            model = random_model(int(rng.integers(2, 7)), rng=rng)
            total = sum(joint_by_enumeration(model).values())
            assert total > 0.0


class TestTypeInvariants:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Potential((0,), [0.5, -0.1])

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Potential((0,), [0.5, np.inf])
        with pytest.raises(ValueError, match="finite"):
            Potential((0,), [np.nan, 0.5])

    def test_negative_scope_id_rejected(self):
        with pytest.raises(ValueError, match=r"negative variable id in scope \(-1,\)"):
            Potential((-1,), [0.5, 0.5])

    def test_duplicate_scope_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Potential((0, 0), np.ones((2, 2)))

    def test_axis_count_must_match_scope(self):
        with pytest.raises(ValueError, match="axes"):
            Potential((0, 1), [1.0, 2.0])

    def test_from_flat_layout_last_variable_fastest(self):
        p = Potential.from_flat((0, 1), [1.0, 2.0, 3.0, 4.0], (2, 2))
        np.testing.assert_array_equal(p.values, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(p.flat, [1.0, 2.0, 3.0, 4.0])

    def test_from_flat_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            Potential.from_flat((0, 1), [1.0, 2.0], (2, 2))

    def test_potential_values_are_immutable(self, weather):
        a, b = weather.potentials
        cards = weather.cardinalities
        tables = [
            a.values,
            factor_product(a, b, cards).values,
            factor_marginalize(b, {1}, cards).values,
            factor_restrict(b, {1: 0}, cards).values,
            mar(weather, {}, 0).probs,
        ]
        for values in tables:
            with pytest.raises(ValueError):
                values[0] = 2.0

    def test_model_needs_a_variable(self):
        with pytest.raises(ValueError, match="a model needs at least one variable"):
            GraphicalModel((), ())

    def test_model_rejects_zero_cardinality(self):
        with pytest.raises(ValueError, match="cardinalities must be >= 1"):
            GraphicalModel((2, 0), (Potential((0,), [1.0, 1.0]),))

    def test_model_requires_full_coverage(self):
        with pytest.raises(ModelInconsistencyError, match="cover"):
            GraphicalModel((2, 2), (Potential((0,), [1.0, 1.0]),))

    def test_model_rejects_shape_mismatch(self):
        with pytest.raises(ModelInconsistencyError, match="cardinality"):
            GraphicalModel((2, 3), (Potential((0, 1), np.ones((2, 2))),))

    def test_model_rejects_out_of_range_scope(self):
        with pytest.raises(ModelInconsistencyError, match="out of range"):
            GraphicalModel((2,), (Potential((0, 1), np.ones((2, 2))),))

    def test_mass_function_needs_a_state(self):
        for probs in ([], [[0.5, 0.5]]):
            with pytest.raises(ValueError, match="probs must be a non-empty vector"):
                MassFunction(0, probs)

    def test_mass_function_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            MassFunction(0, [0.5, 0.4])

    def test_mass_function_entries_in_unit_interval(self):
        for probs in ([1.2, -0.2], [np.nan, 0.5]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                MassFunction(0, probs)

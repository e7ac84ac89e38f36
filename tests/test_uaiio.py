"""UAI reader/writer: goldens, round-trips, error positions, and mutation robustness."""

import numpy as np
import pytest

from margmap import GraphicalModel, NetworkKind, Potential, validate_evidence
from margmap.generate import random_model
from margmap.uaiio import (
    UaiParseError,
    parse_evid,
    parse_uai,
    write_evid,
    write_uai,
)

from conftest import WEATHER_TEXT, make_weather_model


class TestParseUai:
    def test_weather_text_parses_to_golden_model(self):
        model = parse_uai(WEATHER_TEXT)
        assert model == make_weather_model()
        assert model.network_kind is NetworkKind.MARKOV

    def test_minimal_single_variable_document(self):
        model = parse_uai("MARKOV\n1\n1\n1\n1 0\n1\n1.0\n")
        assert model.n_vars == 1
        assert len(model.potentials) == 1
        np.testing.assert_array_equal(model.potentials[0].values, [1.0])

    def test_whitespace_is_interchangeable(self):
        mashed = " ".join(WEATHER_TEXT.split()) + "\n"
        assert parse_uai(mashed) == make_weather_model()

    def test_header_comments_skipped(self):
        assert parse_uai("c generated for a test\nc second line\n" + WEATHER_TEXT) == make_weather_model()

    def test_comment_after_preamble_rejected(self):
        text = WEATHER_TEXT.replace("\n2\n1 0", "\nc sneaky\n2\n1 0", 1)
        with pytest.raises(UaiParseError):
            parse_uai(text)

    def test_bayes_kind_recorded(self):
        model = parse_uai(WEATHER_TEXT.replace("MARKOV", "BAYES"))
        assert model.network_kind is NetworkKind.BAYES
        assert model.potentials == make_weather_model().potentials

    def test_unknown_kind_rejected(self):
        with pytest.raises(UaiParseError, match="line 1.*network kind"):
            parse_uai("CHAIN\n1\n2\n1\n1 0\n2\n0.5 0.5\n")

    def test_truncated_input_rejected(self):
        with pytest.raises(UaiParseError, match="end of input"):
            parse_uai("MARKOV\n2\n2 2\n2\n1 0\n2 0 1\n\n2\n0.6\n")

    def test_entry_count_mismatch_rejected(self):
        bad = WEATHER_TEXT.replace("\n4\n0.5", "\n3\n0.5", 1)
        with pytest.raises(UaiParseError, match="declares 3 entries"):
            parse_uai(bad)

    def test_non_numeric_token_rejected(self):
        bad = WEATHER_TEXT.replace("0.875", "zz", 1)
        with pytest.raises(UaiParseError, match="found 'zz'"):
            parse_uai(bad)

    def test_negative_table_value_rejected(self):
        bad = WEATHER_TEXT.replace("0.125", "-0.125", 1)
        with pytest.raises(UaiParseError, match="negative table value"):
            parse_uai(bad)

    def test_scope_variable_out_of_range_rejected(self):
        bad = WEATHER_TEXT.replace("2 0 1", "2 0 7", 1)
        with pytest.raises(UaiParseError, match="out of range"):
            parse_uai(bad)

    def test_trailing_token_rejected(self):
        with pytest.raises(UaiParseError, match="trailing"):
            parse_uai(WEATHER_TEXT + "0.5\n")

    def test_error_carries_position(self):
        bad = WEATHER_TEXT.replace("0.875", "zz", 1)
        with pytest.raises(UaiParseError) as exc:
            parse_uai(bad)
        assert exc.value.line is not None
        assert "line" in str(exc.value)


class TestRoundTrip:
    def test_weather_round_trip(self):
        model = make_weather_model()
        assert parse_uai(write_uai(model)) == model

    def test_random_models_round_trip_bit_exactly(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            model = random_model(int(rng.integers(2, 10)), rng=rng)
            again = parse_uai(write_uai(model))
            assert again.cardinalities == model.cardinalities
            assert len(again.potentials) == len(model.potentials)
            for p, q in zip(model.potentials, again.potentials):
                assert p.scope == q.scope
                assert np.array_equal(p.values, q.values)
            assert again.n_vars == model.n_vars
            assert again.max_cardinality == model.max_cardinality

    def test_awkward_reals_survive(self):
        table = [1 / 3, 2 / 3, 1e-300, 1.0 - 1e-300]
        model = GraphicalModel(
            (2, 2),
            (Potential.from_flat((0, 1), table, (2, 2)),),
        )
        again = parse_uai(write_uai(model))
        assert np.array_equal(again.potentials[0].flat, np.asarray(table))


class TestSingleTokenMutations:
    def test_delete_or_duplicate_never_silently_matches(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            model = random_model(int(rng.integers(2, 6)), rng=rng)
            text = write_uai(model)
            tokens = text.split()
            idx = int(rng.integers(len(tokens)))
            for mutant in (
                tokens[:idx] + tokens[idx + 1 :],  # delete
                tokens[: idx + 1] + [tokens[idx]] + tokens[idx + 1 :],  # duplicate
            ):
                mutated = " ".join(mutant) + "\n"
                try:
                    parsed = parse_uai(mutated)
                except (UaiParseError, ValueError):
                    continue
                assert parsed != model


class TestEvid:
    def test_empty_evidence(self):
        assert parse_evid("0") == {}

    def test_pairs_transcribed(self):
        assert parse_evid("2 0 1 3 0") == {0: 1, 3: 0}

    def test_round_trip(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            evidence = {int(v): int(rng.integers(4)) for v in rng.choice(20, 5, replace=False)}
            assert parse_evid(write_evid(evidence)) == evidence

    def test_count_mismatch_rejected(self):
        with pytest.raises(UaiParseError, match="end of input"):
            parse_evid("2 0 1")
        with pytest.raises(UaiParseError, match="trailing"):
            parse_evid("1 0 1 3 0")

    def test_duplicate_variable_rejected(self):
        with pytest.raises(UaiParseError, match="twice"):
            parse_evid("2 0 1 0 0")

    def test_state_checked_at_bind_time(self, weather):
        evidence = parse_evid("1 1 5")
        with pytest.raises(ValueError, match="out of range"):
            validate_evidence(weather, evidence)

"""Unit tests for argument-validation helpers."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import (
    ConfigurationError,
    require_between,
    require_in,
    require_non_negative,
    require_positive,
    require_probability_vector,
)
from repro.common.validation import (
    require_failure_events,
    require_non_negative_int,
    require_payload_keys,
    require_positive_int,
    store_floats,
)


@dataclasses.dataclass(frozen=True)
class _Fields:
    a: object
    b: object = 0
    c: object = 0


class TestStoreFloats:
    def test_an_int_becomes_its_float_and_nothing_else_changes(self):
        fields = _Fields(a=120, b=True, c="7")
        store_floats(fields, "a", "b", "c")
        assert type(fields.a) is float and fields.a == 120.0
        assert fields.b is True and fields.c == "7"


class TestRequirePositive:
    def test_accepts_positive(self):
        assert require_positive(2.5, "x") == 2.5

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="x must be > 0"):
            require_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            require_positive(-1.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            require_positive(float("nan"), "x")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            require_non_negative(-0.1, "x")


class TestRequirePositiveInt:
    def test_accepts_positive_int(self):
        assert require_positive_int(1, "n") == 1

    @pytest.mark.parametrize("value", [0, -2, 2.0, False, True, "2"])
    def test_rejects(self, value):
        with pytest.raises(
            ConfigurationError,
            match=f"^n must be a positive int, got {re.escape(repr(value))}$",
        ):
            require_positive_int(value, "n")


class TestRequireNonNegativeInt:
    @pytest.mark.parametrize("value", [0, 7, 2**64])
    def test_accepts_non_negative_int(self, value):
        assert require_non_negative_int(value, "seed") == value

    @pytest.mark.parametrize("value", [-1, 1.5, 3.0, True, False, "3", None])
    def test_rejects(self, value):
        with pytest.raises(
            ConfigurationError,
            match=(
                "^seed must be a non-negative int, "
                f"got {re.escape(repr(value))}$"
            ),
        ):
            require_non_negative_int(value, "seed")


class TestRequireBetween:
    def test_accepts_bounds(self):
        assert require_between(0.0, 0.0, 1.0, "x") == 0.0
        assert require_between(1.0, 0.0, 1.0, "x") == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ConfigurationError):
            require_between(1.01, 0.0, 1.0, "x")

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_accepts_everything_inside(self, value):
        assert require_between(value, 0.0, 1.0, "x") == value


class TestRequireIn:
    def test_accepts_member(self):
        assert require_in("a", ["a", "b"], "x") == "a"

    def test_rejects_non_member(self):
        with pytest.raises(ConfigurationError):
            require_in("c", ["a", "b"], "x")


class TestRequireProbabilityVector:
    def test_accepts_simplex_vector(self):
        out = require_probability_vector([0.25, 0.25, 0.5], "gamma")
        assert isinstance(out, np.ndarray)
        assert out.sum() == pytest.approx(1.0)

    def test_rejects_bad_sum(self):
        with pytest.raises(ConfigurationError, match="sum to 1"):
            require_probability_vector([0.5, 0.6], "gamma")

    def test_rejects_negative_entries(self):
        with pytest.raises(ConfigurationError):
            require_probability_vector([1.2, -0.2], "gamma")

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            require_probability_vector([], "gamma")

    def test_rejects_matrix(self):
        with pytest.raises(ConfigurationError):
            require_probability_vector([[0.5, 0.5]], "gamma")

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, position, bad):
        # A NaN fails no sum or sign comparison, so it would pass the
        # other checks; every position is rejected with one line.
        gamma = [0.5, 0.5, 0.0]
        gamma[position] = bad
        with pytest.raises(
            ConfigurationError,
            match=rf"^gamma\[{position}\] must be finite, got {bad}$",
        ):
            require_probability_vector(gamma, "gamma")

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8))
    def test_normalised_vectors_always_pass(self, raw):
        arr = np.asarray(raw)
        arr = arr / arr.sum()
        out = require_probability_vector(arr, "gamma")
        assert np.all(out >= 0)


#: One label and bound per index: a module event's, then a cluster event's.
_MODULE = {"computer": 4}
_CLUSTER = {"module": 4, "computer": 4}


class TestRequireFailureEvents:
    """One validator for module and cluster events, message for message."""

    def test_normalises_times_and_indices(self):
        events = [(1, np.int64(2), "fail"), (3.5, 0, "repair")]
        assert require_failure_events(events, _MODULE) == (
            (1.0, 2, "fail"),
            (3.5, 0, "repair"),
        )
        assert require_failure_events([(0, 1, 3, "fail")], _CLUSTER) == (
            (0.0, 1, 3, "fail"),
        )
        assert require_failure_events([(0.0, 9, "fail")], {"computer": None}) == (
            (0.0, 9, "fail"),
        )

    @pytest.mark.parametrize(
        "bounds, event, message",
        [
            (
                _MODULE,
                (0.0, 1),
                "x entries are (time_seconds, computer_index, 'fail'|'repair') "
                "tuples, got (0.0, 1)",
            ),
            (
                _CLUSTER,
                (0.0, 1, "fail"),
                "x entries are (time_seconds, module_index, computer_index, "
                "'fail'|'repair') tuples, got (0.0, 1, 'fail')",
            ),
            (_MODULE, (0.0, 1, "boom"), "x kind must be 'fail' or 'repair', got 'boom'"),
            (_CLUSTER, ("t", 1, 1, "fail"), "x time must be a number, got 't'"),
            (_MODULE, (-1.0, 1, "fail"), "x time must be >= 0, got -1.0"),
            (_MODULE, (0.0, True, "fail"), "x computer index must be an integer, got True"),
            (_CLUSTER, (0.0, 1.5, 1, "fail"), "x module index must be an integer, got 1.5"),
            (_MODULE, (0.0, 4, "fail"), "x computer index must be in [0, 4), got 4"),
            (_CLUSTER, (0.0, 0, 4, "fail"), "x computer index must be in [0, 4), got 4"),
            ({"module": None, "computer": None}, (0.0, -1, 0, "fail"),
             "x module index must be in >= 0, got -1"),
        ],
    )
    def test_rejects_with_the_message(self, bounds, event, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            require_failure_events([event], bounds, "x")


class TestRequirePayloadKeys:
    """The check every ``from_dict`` runs on its payload."""

    def test_returns_the_payload_itself(self):
        payload = {"kind": "module", "m": 4}
        assert require_payload_keys(payload, ("kind", "m", "p"), "plant") is payload

    def test_rejects_a_non_dict_naming_its_type(self):
        with pytest.raises(
            ConfigurationError, match=r"^plant payload must be a dict, got list$"
        ):
            require_payload_keys(["kind"], ("kind",), "plant")

    def test_lists_every_unknown_field_sorted(self):
        with pytest.raises(ConfigurationError) as caught:
            require_payload_keys({"zeta": 1, "kind": "x", "alpha": 2}, ("kind",), "plant")
        assert str(caught.value) == "unknown plant fields: ['alpha', 'zeta']"

    def test_complete_payloads_must_name_every_field(self):
        assert require_payload_keys({}, ("kind", "m"), "plant") == {}
        with pytest.raises(ConfigurationError) as caught:
            require_payload_keys({"m": 4}, ("kind", "m", "p"), "plant", complete=True)
        assert str(caught.value) == "missing plant fields: ['kind', 'p']"

"""Unit tests for repro.util.validation."""

import numpy as np
import pytest

from repro.util.validation import (
    as_float_array,
    check_index,
    check_non_negative,
    check_ordered,
    check_positive,
    check_probability,
    check_rate_matrix,
    check_symmetric_rates,
    require,
)


class TestRequire:
    def test_passes_silently(self):
        require(True, "never shown")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")


class TestScalarChecks:
    def test_positive_accepts(self):
        assert check_positive(2.5) == 2.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_positive_rejects(self, bad):
        with pytest.raises(ValueError):
            check_positive(bad, "x")

    def test_non_negative_accepts_zero(self):
        assert check_non_negative(0.0) == 0.0

    def test_non_negative_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative(-0.1)

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_probability_accepts(self, value):
        assert check_probability(value) == value

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
    def test_probability_rejects(self, bad):
        with pytest.raises(ValueError):
            check_probability(bad)

    def test_error_message_contains_name(self):
        with pytest.raises(ValueError, match="my_rate"):
            check_positive(-1, "my_rate")


class TestArrayChecks:
    def test_as_float_array_converts_list(self):
        arr = as_float_array([1, 2, 3])
        assert arr.dtype == float and arr.shape == (3,)

    def test_as_float_array_rejects_empty(self):
        with pytest.raises(ValueError):
            as_float_array([])

    def test_as_float_array_rejects_2d(self):
        with pytest.raises(ValueError):
            as_float_array(np.ones((2, 2)))

    def test_as_float_array_rejects_nan(self):
        with pytest.raises(ValueError):
            as_float_array([1.0, float("nan")])

    def test_rate_matrix_valid(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert check_rate_matrix(m) is m or np.allclose(check_rate_matrix(m), m)

    def test_rate_matrix_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            check_rate_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rate_matrix_rejects_negative(self):
        with pytest.raises(ValueError):
            check_rate_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_rate_matrix_rejects_non_square(self):
        with pytest.raises(ValueError):
            check_rate_matrix(np.zeros((2, 3)))

    def test_symmetric_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric_rates(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_symmetric_accepts(self):
        m = np.array([[0.0, 3.0], [3.0, 0.0]])
        out = check_symmetric_rates(m)
        assert np.allclose(out, m)

    def test_symmetric_accepts_within_tolerance(self):
        # Not exactly symmetric, but within allclose's tolerance.
        m = np.array([[0.0, 3.0], [3.0 + 1e-9, 0.0]])
        assert not (m == m.T).all()
        assert check_symmetric_rates(m) is not None
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric_rates(np.array([[0.0, 3.0], [3.1, 0.0]]))


class TestIndexAndOrder:
    def test_check_index_valid(self):
        assert check_index(2, 5) == 2

    @pytest.mark.parametrize("bad", [-1, 5, 100])
    def test_check_index_invalid(self, bad):
        with pytest.raises(ValueError):
            check_index(bad, 5)

    def test_check_ordered_accepts_sorted(self):
        check_ordered([1.0, 1.0, 2.0])

    def test_check_ordered_rejects_unsorted(self):
        with pytest.raises(ValueError):
            check_ordered([2.0, 1.0])

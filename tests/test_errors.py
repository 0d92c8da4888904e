import math

import pytest

from imae.errors import ConfigurationError, check_range


@pytest.mark.parametrize("value, low, high", [
    (0, 0, None), (1, 0, 1), (0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (10 ** 400, 1, None), (5, 5, 5),
])
def test_check_range_accepts_finite_values_within_inclusive_bounds(value, low, high):
    check_range("x", value, low, high)


@pytest.mark.parametrize("value, low, high, rule, message", [
    (-1, 0, None, None, "x must be >= 0, got -1"),
    (-0.5, 0, None, None, "x must be >= 0, got -0.5"),
    (1.5, 0.0, 1.0, "x must be in [0,1]", "x must be in [0,1], got 1.5"),
    (-1e-9, 0.0, 1.0, "x must be in [0,1]", "x must be in [0,1], got -1e-09"),
    (11, 1, 10, "x must be at most 10", "x must be at most 10, got 11"),
    (math.nan, 0, None, None, "x must be finite, got nan"),
    (math.inf, 0, None, None, "x must be finite, got inf"),
    (-math.inf, 0, None, None, "x must be finite, got -inf"),
    (math.nan, 0.0, 1.0, "x must be in [0,1]", "x must be finite, got nan"),
    (math.inf, 0, math.inf, "x must be in [0,inf]", "x must be finite, got inf"),
])
def test_check_range_names_the_field(value, low, high, rule, message):
    with pytest.raises(ConfigurationError) as info:
        check_range("x", value, low, high, rule)
    assert str(info.value) == message
    assert info.value.field == "x"
    assert isinstance(info.value, ValueError)

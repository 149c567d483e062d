"""Edge cases of the one scan optimizer, `grid_then_golden_min`: the grid is
one array call of the objective, the bounded Brent polish calls it on points."""

import warnings

import numpy as np
import pytest

from pullin import QuadratureError
from pullin.optimize import grid_then_golden_min

GRID = np.linspace(0.0, 1.0, 11)


def test_non_finite_grid_values_read_as_inf_without_a_warning():
    # an overflow, a NaN, +inf and -inf at the first four grid points; -inf
    # would be the argmin if it were not read as +inf
    def f(t):
        v = (t - 0.55) ** 2
        if np.ndim(t) == 0:
            return v
        one, zero = np.ones(4), np.zeros(4)
        bad = np.array([np.exp(1e3), zero[1] / zero[1], one[2] / zero[2],
                        -one[3] / zero[3]])
        return np.concatenate([bad, v[4:]])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, v = grid_then_golden_min(f, GRID)
    assert t == pytest.approx(0.55, abs=1e-9)
    assert v == pytest.approx(0.0, abs=1e-18)


def test_a_grid_without_a_finite_value_raises():
    with pytest.raises(ValueError, match="not finite anywhere"):
        grid_then_golden_min(lambda t: np.exp(1e3 * (1.0 + t)), GRID)


@pytest.mark.parametrize("error", [OverflowError, QuadratureError])
def test_an_error_in_the_polish_reads_as_inf(error):
    # finite on the grid, failing at every polish point: the grid point wins
    def f(t):
        if np.ndim(t) == 0:
            raise error("polish point")
        return (t - 0.53) ** 2

    t, v = grid_then_golden_min(f, GRID)
    assert (t, v) == (float(GRID[5]), float((GRID[5] - 0.53) ** 2))


@pytest.mark.parametrize("end", [0, -1])
def test_a_minimum_at_a_grid_end_is_that_grid_point(end):
    # the polish never evaluates the ends of its bracket, so a minimum at the
    # first or last grid point comes back as that point and its value
    slope = 1.0 if end == 0 else -1.0
    t, v = grid_then_golden_min(lambda t: slope * t, GRID)
    assert (t, v) == (float(GRID[end]), slope * float(GRID[end]))

"""Edge cases of the one scan optimizer, `grid_then_golden_min`: the grid is
one array call of the objective, the bounded Brent polish calls it on points.
The polish (`_bounded_brent`) is checked against scipy's bounded Brent."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import pullin.optimize
from pullin import QuadratureError, bounds
from pullin.optimize import _bounded_brent, grid_then_golden_min

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


# the polish against scipy's bounded Brent, whose iterates it takes: x, f(x)
# and the count of evaluations must be its bits

def _scipy_brent(f, lo, hi):
    with np.errstate(all="ignore"):
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-10})
    return float(res.x), float(res.fun), int(res.nfev)


@pytest.fixture
def polishes(monkeypatch):
    """Every polish of `grid_then_golden_min` while the fixture is active,
    as (ours, scipy's) on the same objective and cells."""
    pairs = []

    def checked(f, lo, hi):
        ours = _bounded_brent(f, lo, hi)
        pairs.append((ours, _scipy_brent(f, lo, hi)))
        return ours

    monkeypatch.setattr(pullin.optimize, "_bounded_brent", checked)
    return pairs


def _assert_bitwise(pairs):
    assert pairs
    for ours, theirs in pairs:
        assert repr(ours) == repr(theirs)


@pytest.mark.parametrize("N", range(1, 13))
def test_the_polish_of_every_constant_is_scipys(polishes, N):
    N = float(N)
    for constant in (bounds.exp_supnorm_constant, bounds.mems_supnorm_constant,
                     lambda N: bounds.power_supnorm_constant(N, 2.0),
                     lambda N: bounds.power_supnorm_constant(N, 3.5)):
        constant(N)
    assert all(repr(ours) == repr(theirs) for ours, theirs in polishes)
    assert polishes or N >= 10.0  # the exp window empties at N = 10, the others earlier


def test_the_polish_of_the_exp_log_weight_bound_is_scipys(polishes):
    bounds.exp_supnorm_bound(bounds.ball_stats(2.0))
    _assert_bitwise(polishes)


@pytest.mark.parametrize("N", range(1, 8))
def test_the_polish_of_the_ball_bound_is_scipys(polishes, N):
    bounds.mems_ball_supnorm_bound(float(N))
    _assert_bitwise(polishes)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda t: t, 0.0, 1.0),                      # minimum at the lower end
    (lambda t: -t, 0.0, 1.0),                     # minimum at the upper end
    (lambda t: 1.0, 0.0, 1.0),                    # constant
    (lambda t: math.nan, 0.0, 1.0),
    (lambda t: math.nan if t > 0.7 else (t - 0.65) ** 2, 0.0, 1.0),
    # golden steps cannot shrink this bracket below xatol in 500 evaluations
    (lambda t: math.sqrt(abs(t)), -1e300, 1e300),
], ids=["lower-end", "upper-end", "constant", "nan", "nan-region", "cap"])
def test_the_polish_takes_scipys_iterates(f, lo, hi):
    assert repr(_bounded_brent(f, lo, hi)) == repr(_scipy_brent(f, lo, hi))


def test_an_inf_region_reads_through_finite(polishes):
    # +inf left of 0.5 on the grid and in the polish, where `finite` maps an
    # OverflowError to +inf as well
    def f(t):
        if np.ndim(t) == 0:
            if t < 0.5:
                raise OverflowError("left of 0.5")
            return (t - 0.52) ** 2
        return np.where(t < 0.5, math.inf, (t - 0.52) ** 2)

    t, v = grid_then_golden_min(f, GRID)
    _assert_bitwise(polishes)
    assert t == pytest.approx(0.52, abs=1e-9)


def test_the_cap_case_stops_at_500_evaluations():
    assert _bounded_brent(lambda t: math.sqrt(abs(t)), -1e300, 1e300)[2] == 500

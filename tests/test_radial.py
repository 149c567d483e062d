"""The runner of the radial core: every run without dense output, one lane
or a grid, runs on scipy's compiled DOP853, a dense run on scipy's
`solve_ivp`."""

import gc
import math
import warnings

import numpy as np
import pytest

import pullin
from pullin import (BracketError, NoCrossingError, exponential, mems_inverse_power,
                    power_growth)
from pullin import branch, radial, spectral


def _count_python_runs(monkeypatch):
    sizes = []
    real = radial._scipy_solve_ivp

    def counting(*args, **kwargs):
        sizes.append(len(args[2]))
        return real(*args, **kwargs)

    monkeypatch.setattr(radial, "_scipy_solve_ivp", counting)
    return sizes


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("N", [1.0, 2.5, 5.0])
@pytest.mark.parametrize("F, m, partner", [(exponential(), 1.0, 3.0),
                                           (mems_inverse_power(2.0), 0.4, 0.8),
                                           (power_growth(3.0), 1.0, 2.0)])
def test_one_lane_run_matches_its_lane_in_a_pair(monkeypatch, F, m, partner, N, alpha):
    tol = 1e-10
    sizes = _count_python_runs(monkeypatch)
    R1, slope1, *_ = branch._shoot_lanes(F, N, np.array([m]), tol, alpha)
    R2, slope2, *_ = branch._shoot_lanes(F, N, np.array([m, partner]), tol, alpha)
    # neither run went to scipy's solve_ivp
    assert sizes == []
    lam1, lam2 = (float(R[0]) ** (2.0 + alpha) for R in (R1, R2))
    assert abs(lam1 - lam2) <= tol * max(1.0, lam2)
    assert abs(slope1[0] - slope2[0]) <= tol * max(1.0, abs(slope2[0]))


def test_a_quadrature_row_stays_out_of_the_error_norm():
    # the half-run's fifth row rides scaled, under √(4/5) of rtol and atol
    F, m, nu, tol = mems_inverse_power(2.0), 0.5, -1.0, 1e-8
    ms = np.array([m])
    tau0, y0, *_ = radial.lane_seed(F, 2.0, ms, tol, nu=nu)
    rhs = radial.lane_rhs(F, 2.0, ms, nu=nu, weight=True)

    def run(row):
        return radial.solve_ivp(rhs, (tau0, 1.0), np.append(y0, row), rtol=tol,
                                atol=tol * 1e-2)

    small, large = run(1e-9), run(1e60)
    assert small.success and large.success
    # whatever the size of the row, it sets no step
    assert np.array_equal(small.t, large.t)
    assert np.array_equal(small.y[:4], large.y[:4])
    # the same run on scipy's Python DOP853, whose norm takes in all five
    # rows: every row agrees to the tolerance
    python = radial._scipy_solve_ivp(rhs, (tau0, 1.0), np.append(y0, 1e-9),
                                     method="DOP853", rtol=tol, atol=tol * 1e-2)
    assert np.allclose(small.y[:, -1], python.y[:, -1], rtol=10 * tol, atol=0.0)


def _blowup(*_, **__):
    # r' = 10⁶ r² blows up at τ = τ₀ + 10⁻⁶/r(τ₀), before τ = 1
    def rhs(tau, y):
        r = float(y[0])
        return (1e6 * r * r, 0.0, 0.0, 0.0, 0.0)[:len(y)]
    return rhs


def test_a_failing_run_raises_the_package_error(monkeypatch):
    F, ms = mems_inverse_power(2.0), np.array([0.3])
    monkeypatch.setattr(branch, "lane_rhs", _blowup)
    monkeypatch.setattr(spectral, "lane_rhs", _blowup)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoCrossingError, match="step size"):
            branch._shoot_lanes(F, 2.0, ms, 1e-8)
        start = spectral._center_start(2.0, F, 0.3, 0.0, 1e-8)
        with pytest.raises(BracketError, match="step size"):
            spectral._half_run(2.0, F, 0.3, 0.0, start, 1.0, 1e-8)


@pytest.mark.parametrize("size", [4, 5])
def test_an_exception_in_the_rhs_arrives_as_itself(size):
    def overflowing(t, y):
        if t > 0.5:
            raise OverflowError("the right-hand side left double range")
        return (1.0,) * size

    y0 = np.zeros(size)
    with pytest.raises(OverflowError, match="left double range"):
        radial.solve_ivp(overflowing, (0.0, 1.0), y0, rtol=1e-8, atol=1e-10)
    # and the next run on the same solver is a clean one
    sol = radial.solve_ivp(lambda t, y: (1.0,) * size, (0.0, 1.0), y0, rtol=1e-8,
                           atol=1e-10)
    assert sol.success and sol.y[0, -1] == pytest.approx(1.0, rel=1e-12)


def test_one_lane_runs_keep_no_objects_alive():
    F, one, nine = mems_inverse_power(2.0), np.array([0.3]), np.linspace(0.2, 0.4, 9)
    u = pullin.shoot(F, 2.0, 0.3)
    runs = [(2000, lambda: branch._shoot_lanes(F, 2.0, one, 1e-6)),
            (2000, lambda: branch._shoot_lanes(F, 2.0, nine, 1e-6)),
            (200, lambda: spectral.mu1(2.0, F, u.lam, u, 1e-4))]
    for count, run in runs:
        run()
        gc.collect()
        before = len(gc.get_objects())
        for _ in range(count):
            run()
        gc.collect()
        assert len(gc.get_objects()) - before <= 50
    assert math.isfinite(branch._shoot_lanes(F, 2.0, one, 1e-6)[0][0])


FAMILIES = [exponential(), mems_inverse_power(2.0), power_growth(3.0)]


@pytest.mark.parametrize("nu", [0.0, -3.5])
@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: F.label())
def test_the_lane_that_sets_the_start_has_its_one_lane_seed(F, alpha, nu):
    ms = branch.default_m_grid(F, 61)
    tau0, y0, eps, a = radial.lane_seed(F, 2.5, ms, 1e-10, alpha, nu)
    ones = [radial.lane_seed(F, 2.5, ms[j:j + 1], 1e-10, alpha, nu) for j in range(61)]
    # every lane's series is its one-lane series, bit for bit
    for j, (_, _, _, a1) in enumerate(ones):
        assert np.array_equal(a[:, j], a1[:, 0])
    # the lane with the smallest start sets the common one, and starts
    # there with the state and the seed radius of its one-lane run
    j = int(np.argmin([one[0] for one in ones]))
    tau1, y1, eps1, _ = ones[j]
    assert tau0 == tau1
    assert np.array_equal(y0.reshape(4, -1)[:, j], y1)
    assert eps[j] == eps1[0]


@pytest.mark.parametrize("nu", [0.0, -3.5])
@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("F", FAMILIES, ids=lambda F: F.label())
def test_a_lane_of_the_rhs_is_its_one_lane_rhs(F, alpha, nu):
    ms = branch.default_m_grid(F, 61)
    tau0, y0, *_ = radial.lane_seed(F, 2.5, ms, 1e-10, alpha, nu)
    lanes = radial.lane_rhs(F, 2.5, ms, alpha, nu)
    # C `pow` of a float and numpy's vectorized power may differ in the last
    # bit, in F, F' and r^α; the two terms of the row of z'' cancel, so that
    # bit reaches 1.9e-15 of the row at ν = -3.5.  Without a power the
    # lanes keep every bit.
    exact = F.family is pullin.Family.EXPONENTIAL and alpha == 0.0
    for tau in (tau0, 0.5, 0.9):
        rows = lanes(tau, y0).reshape(4, -1)
        for j in range(len(ms)):
            one = radial.lane_rhs(F, 2.5, ms[j:j + 1], alpha, nu)(tau, y0.reshape(4, -1)[:, j])
            assert isinstance(one, tuple) and len(one) == 4
            # the rows of r and z have no power in them
            assert rows[0, j] == one[0] and rows[2, j] == one[2]
            np.testing.assert_allclose(rows[[1, 3], j], [one[1], one[3]],
                                       rtol=0.0 if exact else 4e-15, atol=0.0)


@pytest.mark.parametrize("tol", [0.0, -1e-8, 1.0, 2.0, 5.0, math.inf, math.nan])
def test_a_tol_outside_the_unit_interval_is_refused_before_any_run(tol):
    F = mems_inverse_power(2.0)
    with pytest.raises(pullin.DomainValidationError, match="tol must lie in"):
        radial.lane_seed(F, 2.0, np.array([0.3]), tol)
    with pytest.raises(pullin.DomainValidationError, match="tol must lie in"):
        pullin.shoot(F, 2.0, 0.3, tol=tol)
    with pytest.raises(pullin.DomainValidationError, match="tol must lie in"):
        pullin.solve_branch(pullin.ProblemSpec(2.0, F), np.geomspace(0.1, 0.9, 5), tol=tol)
    u = pullin.shoot(F, 2.0, 0.3)
    with pytest.raises(pullin.DomainValidationError, match="tol must lie in"):
        spectral.mu1(2.0, F, u.lam, u, tol)
    # at center value 0, mu1 returns λ₁ without a run
    with pytest.raises(pullin.DomainValidationError, match="tol must lie in"):
        spectral.mu1(2.0, F, 0.0, pullin.BranchPoint(m=0.0, lam=0.0), tol)


def test_the_center_series_refuses_a_center_value_outside_the_domain():
    with pytest.raises(pullin.DomainValidationError, match="outside"):
        radial.center_series(mems_inverse_power(2.0), 2.0, 2.0, -0.1)

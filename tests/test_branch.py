import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_bvp
from scipy.integrate._ivp.rk import RungeKutta
from scipy.optimize import brentq, minimize_scalar

import pullin
from pullin import (BeyondPullInError, DomainValidationError, ProblemSpec,
                    exponential, mems_inverse_power, minimal_solution,
                    power_growth, shoot, solve_branch)

MEMS = mems_inverse_power(2.0)
EXP = exponential()

# interval ball (-1,1): lambda(a) = 2 a^2 / cosh(a)^2 parametrizes the branch
EXP_1D_LAMBDA_STAR = 0.8784576797812903
EXP_1D_M_STAR = 1.1868421686343891
# disc: u = 2 log((1+c)/(1+c r^2)), lambda = 8c/(1+c)^2, maximal at c = 1
EXP_2D_LAMBDA_STAR = 2.0
EXP_2D_M_STAR = 2.0 * math.log(2.0)


@pytest.fixture(scope="module")
def mems_disc_branch():
    return solve_branch(ProblemSpec(2.0, MEMS))


def test_shoot_preconditions():
    with pytest.raises(DomainValidationError):
        shoot(MEMS, 2.0, 1.0)
    with pytest.raises(DomainValidationError):
        shoot(MEMS, 2.0, 0.0)
    with pytest.raises(DomainValidationError):
        shoot(MEMS, 0.5, 0.3)
    with pytest.raises(DomainValidationError):
        shoot(MEMS, 2.0, 0.3, alpha=-2.0)


def test_small_center_value_gives_small_voltage():
    assert shoot(EXP, 3.0, 1e-5).lam < 1e-3
    assert shoot(MEMS, 2.0, 1e-5).lam < 1e-3


def test_shot_profile_is_decreasing_and_bounded():
    sr = shoot(MEMS, 2.0, 0.7)
    sol = sr.solution()
    u = sol.at(np.linspace(0.0, 1.0, 513))
    assert sol.at(0.0) == pytest.approx(0.7)
    assert abs(sol.at(1.0)) < 1e-9
    assert np.all(np.diff(u) < 0)
    assert np.all(u < 1.0)


def test_equal_shots_give_equal_solutions():
    assert shoot(MEMS, 2.0, 0.7).solution() == shoot(MEMS, 2.0, 0.7).solution()
    assert shoot(MEMS, 2.0, 0.7).solution() != shoot(MEMS, 2.0, 0.6).solution()


def test_shot_profile_satisfies_ode():
    # differentiate the integrator's own derivative channel; interpolation
    # noise limits this check to ~1e-4
    sr = shoot(MEMS, 3.0, 0.5)
    R = sr.first_zero
    h = 1e-3
    worst = 0.0
    for r in np.linspace(0.1, 0.9, 17):
        rho = r * R
        vp = lambda x: sr._rows(x)[1]
        v2 = (vp(rho + h) - vp(rho - h)) / (2.0 * h)
        v, dv = sr._rows(rho)
        res = -v2 - 2.0 / rho * dv - MEMS.value(v)
        worst = max(worst, abs(res))
    assert worst < 1e-4


def test_mesh_convergence_in_tolerance():
    for m in (0.1, 0.4, 0.8):
        lam_a = shoot(MEMS, 2.0, m, tol=1e-8).lam
        lam_b = shoot(MEMS, 2.0, m, tol=5e-9).lam
        assert abs(lam_a - lam_b) < 10.0 * 1e-8


def test_interval_branch_against_closed_form():
    prob = ProblemSpec(1.0, EXP)
    b = solve_branch(prob, np.geomspace(1e-3, 10.0, 200))
    assert b.fold_found
    assert b.lambda_star == pytest.approx(EXP_1D_LAMBDA_STAR, abs=1e-6)
    assert b.m_star == pytest.approx(EXP_1D_M_STAR, abs=1e-5)


def test_interval_pullin_against_collocation_bisection():
    # independent oracle: bisect on lambda, solvability decided by a
    # two-point collocation solve started from the zero state
    def solvable(lam):
        x = np.linspace(0.0, 1.0, 101)
        y0 = np.zeros((2, x.size))

        def rhs(x, y):
            return np.vstack([y[1], -lam * np.exp(y[0])])

        def bc(ya, yb):
            return np.array([ya[1], yb[0]])

        sol = solve_bvp(rhs, bc, x, y0, tol=1e-8, max_nodes=20000)
        return sol.status == 0 and sol.y[0].max() < 10.0

    lo, hi = 0.5, 1.5
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if solvable(mid):
            lo = mid
        else:
            hi = mid
    assert lo <= EXP_1D_LAMBDA_STAR <= hi
    assert 0.5 * (lo + hi) == pytest.approx(EXP_1D_LAMBDA_STAR, abs=2e-3)


def test_disc_branch_against_closed_form():
    prob = ProblemSpec(2.0, EXP)
    b = solve_branch(prob, np.geomspace(1e-3, 10.0, 200))
    assert b.fold_found
    assert b.lambda_star == pytest.approx(EXP_2D_LAMBDA_STAR, abs=1e-7)
    assert b.m_star == pytest.approx(EXP_2D_M_STAR, abs=1e-5)


def test_mems_disc_branch_shape(mems_disc_branch):
    b = mems_disc_branch
    assert b.fold_found
    lam = b.lambda_values
    assert lam[0] < 0.01  # voltage vanishes with the center value
    assert np.max(np.abs(np.diff(lam)) / lam[1:]) < 0.2  # the mesh resolves the branch
    stable = [p.lam for p in b.stable_points()]
    assert all(x < y for x, y in zip(stable, stable[1:]))
    # the refined fold tops the sampled sup but only by the grid resolution
    assert max(lam) - 1e-12 <= b.lambda_star <= max(lam) * (1.0 + 1e-4)


def test_minimal_solution_below_fold(mems_disc_branch):
    u = minimal_solution(ProblemSpec(2.0, MEMS), 0.5, mems_disc_branch)
    assert u.lam == pytest.approx(0.5, abs=1e-9)
    assert u.m < 0.445
    assert pullin.mu1(2.0, MEMS, u.lam, u) > 0


def test_minimal_solutions_increase_with_voltage(mems_disc_branch):
    prob = ProblemSpec(2.0, MEMS)
    r = np.linspace(0.0, 1.0, 50)
    prev = np.zeros_like(r)
    for lam in (0.2, 0.45, 0.7, 0.788):
        u = minimal_solution(prob, lam, mems_disc_branch).at(r)
        assert np.all(u >= prev - 1e-9)
        prev = u


def test_minimal_solution_vanishes_with_voltage(mems_disc_branch):
    u = minimal_solution(ProblemSpec(2.0, MEMS), 1e-4, mems_disc_branch)
    assert u.m < 1e-3


def test_minimal_solution_beyond_pullin(mems_disc_branch):
    with pytest.raises(BeyondPullInError):
        minimal_solution(ProblemSpec(2.0, MEMS), 0.8, mems_disc_branch)
    with pytest.raises(BeyondPullInError):
        minimal_solution(ProblemSpec(2.0, MEMS), -0.1, mems_disc_branch)


def test_minimal_solution_checks_problem_identity(mems_disc_branch):
    with pytest.raises(DomainValidationError):
        minimal_solution(ProblemSpec(3.0, MEMS), 0.5, mems_disc_branch)


def test_voltage_derivative_positive_and_monotone(mems_disc_branch):
    prob = ProblemSpec(2.0, MEMS)
    r = np.linspace(0.0, 1.0, 201)[:-1]
    v1 = pullin.dudlambda(prob, 0.4, 1e-4, mems_disc_branch)
    v2 = pullin.dudlambda(prob, 0.6, 1e-4, mems_disc_branch)
    assert v1(1.0) == 0.0
    assert np.all(v1(r) > 0)
    # the derivative grows with the voltage
    assert np.all(v2(r) >= v1(r))


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
def test_voltage_derivative_matches_the_exp_disc_closed_form(lam):
    # u = 2 log((1+a)/(1+a r²)) at λ = 8a/(1+a)², so du/dλ = (∂u/∂a)/(dλ/da);
    # the minimal branch has a < 1.  The radii lie midway between the points
    # of a 201-point grid, where a sampled profile would interpolate.
    prob = ProblemSpec(2.0, EXP)
    b = solve_branch(prob, np.geomspace(1e-3, 3.0, 61))
    a = (4.0 - lam - 2.0 * math.sqrt(4.0 - 2.0 * lam)) / lam
    r = (np.arange(200) + 0.5) / 200
    exact = (2.0 * (1.0 / (1.0 + a) - r * r / (1.0 + a * r * r))
             / (8.0 * (1.0 - a) / (1.0 + a) ** 3))
    v = pullin.dudlambda(prob, lam, 1e-4, b)(r)
    assert np.max(np.abs(v - exact)) <= 1e-7 * np.max(np.abs(exact))


def test_voltage_derivative_stencil_validation(mems_disc_branch):
    prob = ProblemSpec(2.0, MEMS)
    with pytest.raises(BeyondPullInError):
        pullin.dudlambda(prob, 0.789, 1e-2, mems_disc_branch)
    with pytest.raises(DomainValidationError):
        pullin.dudlambda(prob, 0.4, -1e-4, mems_disc_branch)


def test_branch_without_fold_reports_lower_estimate():
    prob = ProblemSpec(9.0, MEMS)
    b = solve_branch(prob, np.geomspace(1e-2, 0.9, 25))
    assert not b.fold_found
    assert b.lambda_star < 46.0 / 9.0  # strictly below the singular voltage


def test_fold_refinement_beats_grid_resolution():
    prob = ProblemSpec(2.0, MEMS)
    coarse = solve_branch(prob, np.geomspace(1e-3, 1.0 - 1e-4, 48))
    # the refined fold from a coarse grid agrees with a direct bounded search
    ref = minimize_scalar(lambda m: -shoot(MEMS, 2.0, m).lam, bounds=(0.40, 0.49),
                          method="bounded", options={"xatol": 1e-10})
    m_ref, lam_ref = ref.x, -ref.fun
    assert coarse.lambda_star == pytest.approx(lam_ref, abs=1e-8)
    assert coarse.m_star == pytest.approx(m_ref, abs=1e-5)


def test_weighted_shoot_matches_reduction():
    tr = pullin.dim_transform(3.0, 1.0)
    for m in (0.1, 0.5):
        direct = shoot(MEMS, 3.0, m, tol=1e-11, alpha=1.0).lam
        reduced = tr.voltage_factor * shoot(MEMS, tr.N_eff, m, tol=1e-11).lam
        assert direct == pytest.approx(reduced, rel=1e-7)


def test_transformed_branch_scales_voltage():
    prob0 = ProblemSpec(2.0, MEMS, 0.0)
    prob3 = ProblemSpec(2.0, MEMS, 3.0)
    grid = np.geomspace(1e-2, 0.9, 30)
    b0 = solve_branch(prob0, grid)
    b3 = solve_branch(prob3, grid)
    factor = (1.0 + 1.5) ** 2
    assert np.allclose(b3.lambda_values, factor * b0.lambda_values, rtol=1e-12)
    assert b3.m_star == b0.m_star


def test_transformed_minimal_solution_profile():
    # u_alpha(r) = w(r^(1+alpha/2)) exactly, same center value
    prob = ProblemSpec(2.0, MEMS, 2.0)
    grid = np.geomspace(1e-2, 0.9, 40)
    b = solve_branch(prob, grid)
    u = minimal_solution(prob, 1.0, b)
    prob0 = ProblemSpec(2.0, MEMS, 0.0)
    b0 = solve_branch(prob0, grid)
    w = minimal_solution(prob0, 0.25, b0)  # 1.0 / (1 + alpha/2)^2
    r = np.linspace(0.1, 1.0, 20)
    assert u.at(r) == pytest.approx(w.at(r ** 2.0), abs=1e-9)
    assert u.m == pytest.approx(w.m, abs=1e-9)


def _disc_lambda(m):
    a = np.expm1(np.asarray(m) / 2.0)
    return 8.0 * a / (1.0 + a) ** 2


def test_disc_shots_meet_tolerance_on_default_grid():
    tol = 1e-10
    grid = pullin.default_m_grid(EXP, 61)
    lam = np.array([shoot(EXP, 2.0, m, tol).lam for m in grid])
    ref = _disc_lambda(grid)
    assert np.all(np.abs(lam - ref) <= tol * np.maximum(1.0, ref))


@pytest.mark.parametrize("m", [0.05, 1.0, 2.0 * math.log(2.0), 3.0, 12.0])
def test_shot_slope_matches_closed_form(m):
    # disc: dλ/dm = 4(1-a)/(1+a)^2 with e^(m/2) = 1+a
    a = math.expm1(m / 2.0)
    assert shoot(EXP, 2.0, m).dlam_dm == pytest.approx(
        4.0 * (1.0 - a) / (1.0 + a) ** 2, abs=1e-9)
    # interval: λ = 2c²/cosh²c with cosh c = e^(m/2)
    c = math.acosh(math.exp(m / 2.0))
    slope = 2.0 * c * (math.cosh(c) - c * math.sinh(c)) / (math.cosh(c) ** 2 * math.sinh(c))
    assert shoot(EXP, 1.0, m).dlam_dm == pytest.approx(slope, abs=1e-9)


def test_weighted_shot_slope_matches_reduction():
    tr = pullin.dim_transform(3.0, 1.0)
    for m in (0.1, 0.5, 0.9):
        direct = shoot(MEMS, 3.0, m, alpha=1.0).dlam_dm
        reduced = tr.voltage_factor * shoot(MEMS, tr.N_eff, m).dlam_dm
        assert direct == pytest.approx(reduced, rel=1e-6, abs=1e-9)


def test_shoot_integrates_at_most_twice(monkeypatch):
    calls = []
    real = pullin.branch.solve_ivp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pullin.branch, "solve_ivp", counting)
    for F, N, m in ((MEMS, 2.0, 0.3), (MEMS, 2.0, 0.9999), (EXP, 10.0, 40.0)):
        calls.clear()
        shoot(F, N, m)
        assert len(calls) <= 2


def _grid_points(F, N, grid, tol=pullin.branch.DEFAULT_TOL):
    """(λ, dλ/dm) at every center value of `grid`, read off the trajectory
    that `solve_branch` runs."""
    levels = F.scaling_law().level(np.asarray(grid, dtype=float))
    point = pullin.radial.trajectory(F, N, levels[-1], tol, pullin.radial.solve_ivp)
    lam, slope = zip(*map(point, np.log(levels)))
    return np.array(lam), np.array(slope)


def _no_python_stepper(monkeypatch):
    def python(self):
        raise AssertionError("a run took a step of scipy's Python stepper")

    monkeypatch.setattr(RungeKutta, "step", python)


def test_branch_grid_is_one_integration(monkeypatch):
    runs = []
    real = pullin.radial._CompiledDOP853.run

    def counting(self, fun, t_span, y0, *args):
        steps, *rest = real(self, fun, t_span, y0, *args)
        runs.append((len(y0), len(steps) - 1))
        return (steps, *rest)

    monkeypatch.setattr(pullin.radial._CompiledDOP853, "run", counting)
    _no_python_stepper(monkeypatch)
    # exp N = 10 is singular and has no fold; the inverse-square disc folds
    for prob in (ProblemSpec(10.0, EXP), ProblemSpec(2.0, MEMS)):
        runs.clear()
        b = solve_branch(prob, pullin.default_m_grid(prob.F, 61))
        # one compiled run of the trajectory's two rows: the grid levels are
        # one array step on its recorded steps, and each evaluation of the
        # fold's brentq one float step
        assert len(runs) == 1
        rows, main_steps = runs[0]
        assert rows == 2 and main_steps > 1
        assert b.fold_found is (prob.N == 2.0)


def test_no_run_takes_a_step_of_scipys_python_stepper(monkeypatch):
    _no_python_stepper(monkeypatch)
    prob = ProblemSpec(2.0, MEMS)
    b = solve_branch(prob, np.geomspace(0.05, 0.9, 9), stability=True)
    assert b.fold_found and any(p.mu1 is not None for p in b.points)
    for alpha in (0.0, 1.0):
        shot = shoot(MEMS, 2.0, 0.3, alpha=alpha)
        assert 0.0 < shot.solution().at(0.5) < 0.3
    u = minimal_solution(prob, 0.5, b)
    assert u.lam == pytest.approx(0.5, rel=1e-10)
    assert pullin.dudlambda(prob, 0.5, 1e-3, b)(0.5) > 0.0
    assert pullin.mu1(2.0, MEMS, u.lam, u) > 0.0


# the interval (N = 1) and disc (N = 2) profiles in closed form, with
# cosh c = e^(m/2) and 1 + a = e^(m/2)
def _interval_profile(m, r):
    return m - 2.0 * np.log(np.cosh(math.acosh(math.exp(m / 2.0)) * r))


def _disc_profile(m, r):
    a = math.expm1(m / 2.0)
    return 2.0 * np.log((1.0 + a) / (1.0 + a * r * r))


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("N, m", [(1.0, m) for m in (0.1, 0.5, 1.0, EXP_2D_M_STAR, 2.0)]
                         + [(2.0, m) for m in (0.1, 0.5, 1.0, EXP_2D_M_STAR, 2.0, 5.0)])
def test_a_shot_profile_meets_its_tolerance(N, m, tol):
    r = np.linspace(0.0, 1.0, 101)
    u = shoot(EXP, N, m, tol).solution().at(r)
    exact = (_interval_profile if N == 1.0 else _disc_profile)(m, r)
    assert np.max(np.abs(u - exact)) <= tol * m


def test_lane_keeps_its_own_tolerance_in_a_grid():
    # a point reads one step from the steps below it, so a near-singular
    # point above it changes none of its bits
    (lam, slope), (lam_far, slope_far) = (_grid_points(MEMS, 2.0, [0.1, 0.3, top])
                                          for top in (0.5, 0.9999))
    assert (lam[1], slope[1]) == (lam_far[1], slope_far[1])
    b = solve_branch(ProblemSpec(2.0, MEMS), [0.1, 0.3, 0.5])
    assert b.points[1].lam == lam[1]


# singular regimes (Joseph-Lundgren): λ(m) rises over the whole default
# schedule toward the singular voltage, with slopes down to 5e-32 at exp
# N = 10, which only a relative error control keeps positive
@pytest.mark.parametrize("F, N", [(EXP, 10.0), (EXP, 12.0), (MEMS, 8.0), (MEMS, 9.0),
                                  (MEMS, 12.0)], ids=lambda v: getattr(v, "label", lambda: v)())
def test_a_singular_tail_rises_at_every_default_grid_point(F, N):
    b = solve_branch(ProblemSpec(N, F))
    _, slopes = _grid_points(F, N, b.m_values)
    assert np.all(slopes > 0.0)
    assert b.n_stable == len(b.points) and not b.fold_found


# the power family (1+u)² still folds at N = 8, past its singular point's
# dimension 4 and below its Joseph-Lundgren dimension
@pytest.mark.parametrize("F, N", [(EXP, 3.0), (EXP, 9.0), (MEMS, 2.0), (MEMS, 5.0),
                                  (power_growth(2.0), 8.0)],
                         ids=lambda v: getattr(v, "label", lambda: v)())
def test_the_stable_run_ends_in_the_fold_cell_of_tight_shots(F, N):
    def tight(m):
        shot = pullin.branch.shoot(F, N, m, 1e-13)
        R = shot.first_zero
        return R * R, shot.dlam_dm

    grid = pullin.default_m_grid(F, 25)
    b = solve_branch(ProblemSpec(N, F), grid)
    assert b.fold_found
    k = b.n_stable - 1
    slopes = [tight(m)[1] for m in grid[:k + 2]]
    assert min(slopes[:-1]) > 0.0 > slopes[-1]
    m_ref = brentq(lambda m: tight(m)[1], grid[k], grid[k + 1], xtol=1e-14)
    lam_ref = tight(m_ref)[0]
    assert abs(b.m_star - m_ref) <= 1e-10 * max(1.0, m_ref)
    assert abs(b.lambda_star - lam_ref) <= 1e-10 * max(1.0, lam_ref)


def _disc_slope(m):
    a = np.expm1(np.asarray(m) / 2.0)
    return 4.0 * (1.0 - a) / (1.0 + a) ** 2


def _interval_branch(m):
    # λ = 2c²/cosh²c with cosh c = e^(m/2), and its slope dλ/dm
    m = np.asarray(m)
    cosh, sinh = np.exp(m / 2.0), np.sqrt(np.expm1(m))
    c = np.log1p(np.expm1(m / 2.0) + sinh)
    return (2.0 * c * c / cosh ** 2,
            2.0 * c * (cosh - c * sinh) / (cosh ** 2 * sinh))


@pytest.mark.parametrize("N", [1.0, 2.0])
@pytest.mark.parametrize("lanes", [61, 400])
@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_every_lane_of_a_dense_disc_grid_meets_tolerance(tol, lanes, N):
    # the interval (N = 1) and disc (N = 2) branches in closed form
    grid = pullin.default_m_grid(EXP, lanes)
    got = solve_branch(ProblemSpec(N, EXP), grid, tol).lambda_values
    _, slope = _grid_points(EXP, N, grid, tol)
    lam, ref = _interval_branch(grid) if N == 1.0 else (_disc_lambda(grid), _disc_slope(grid))
    assert np.all(np.abs(got - lam) <= tol * np.maximum(1.0, lam))
    assert np.all(np.abs(slope - ref) <= tol * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("N", [1.0, 2.0])
def test_the_default_grid_meets_its_closed_form_to_rounding_level(N):
    # the 61-point grid at the default tol reads the interval and disc
    # branches to 4.2e-15 and 6.1e-16, far inside tol·max(1, λ)
    grid = pullin.default_m_grid(EXP, 61)
    got = solve_branch(ProblemSpec(N, EXP), grid).lambda_values
    lam = _interval_branch(grid)[0] if N == 1.0 else _disc_lambda(grid)
    assert np.all(np.abs(got - lam) <= 1e-14 * np.maximum(1.0, lam))


def test_profile_inside_seed_radius_follows_the_series():
    # disc: w(ρ) = 2 log((1+a)/(1+a ρ²/R²)) exactly
    m = 1.0
    sr = shoot(EXP, 2.0, m)
    a = math.expm1(m / 2.0)
    rho = np.array([0.0, 0.25, 0.5, 0.99, 1.01, 2.0]) * sr.seed_radius
    exact = 2.0 * np.log((1.0 + a) / (1.0 + a * (rho / sr.first_zero) ** 2))
    assert np.all(sr.profile(rho[1:4]) < m)
    assert sr.profile(rho) == pytest.approx(exact, abs=1e-11)


def test_exp_n10_branch_has_no_fold():
    # Joseph-Lundgren: from N = 10 the exponential branch rises monotonically
    # to the singular voltage 2(N-2) = 16
    b = solve_branch(ProblemSpec(10.0, EXP), pullin.default_m_grid(EXP, 160))
    assert b.fold_found is False
    assert b.lambda_star == pytest.approx(16.0, rel=1e-2)


def test_fold_is_a_root_of_the_slope():
    b = solve_branch(ProblemSpec(2.0, MEMS), np.geomspace(1e-3, 1.0 - 1e-4, 48))
    assert b.fold_found
    k = b.n_stable - 1
    assert b.m_values[k] < b.m_star < b.m_values[k + 1]
    assert abs(shoot(MEMS, 2.0, b.m_star).dlam_dm) < 1e-8


def test_branch_counts_skipped_stability_fills():
    grid = np.geomspace(0.05, 1.0 - 1e-4, 5)
    b = solve_branch(ProblemSpec(2.0, MEMS), grid, stability=True)
    assert b.stability_skipped == sum(p.mu1 is None for p in b.points)
    assert b.stability_skipped >= 1  # the potential blows up as m -> 1
    assert solve_branch(ProblemSpec(2.0, MEMS), grid).stability_skipped == 0


@pytest.mark.parametrize("F, N", [(EXP, 2.0), (MEMS, 5.0), (EXP, 10.0)],
                         ids=["exp-2", "mems-5", "exp-10"])
def test_the_branch_does_not_depend_on_stability(F, N):
    # the fills read the branch's run and run nothing of their own
    plain, filled = (solve_branch(ProblemSpec(N, F), stability=s) for s in (False, True))
    assert [p.lam for p in filled.points] == [p.lam for p in plain.points]
    assert filled.n_stable == plain.n_stable
    assert filled.lambda_star == plain.lambda_star
    assert filled.m_star == plain.m_star or (math.isnan(filled.m_star)
                                             and math.isnan(plain.m_star))


@pytest.mark.parametrize("F, N, grid, tol", [
    (EXP, 3.0, None, pullin.branch.DEFAULT_TOL),
    (MEMS, 5.0, pullin.branch.default_m_grid(MEMS, 61), 1e-8)], ids=["exp-3", "mems-5"])
def test_mu1_is_positive_on_the_index_0_run_and_negative_past_the_fold(F, N, grid, tol):
    # the index-0 run of the branch (`stable_points`) is exactly where the
    # principal eigenvalue is positive
    b = solve_branch(ProblemSpec(N, F), grid, tol, stability=True)
    assert b.fold_found
    assert all(p.mu1 > 0 for p in b.stable_points() if p.mu1 is not None)
    past = [p.mu1 for p in b.points if p.m > b.m_star and p.mu1 is not None]
    assert past and all(mu < 0 for mu in past)


@pytest.mark.parametrize("F, N, alpha", [(EXP, 2.0, 0.0), (MEMS, 2.0, 0.0), (MEMS, 5.0, 0.0),
                                         (power_growth(3.0), 3.0, 0.0), (MEMS, 3.0, 1.0)],
                         ids=["exp-2", "mems-2", "mems-5", "power-3", "mems-3-alpha-1"])
def test_a_fill_is_mu1_at_its_center_value(F, N, alpha):
    # one kernel and one source of coefficients, read off two runs: the
    # branch's trajectory and mu1's own trajectory run up to the point's level
    tol = 1e-8
    prob = ProblemSpec(N, F, alpha)
    tr = prob.transform()
    b = solve_branch(prob, pullin.branch.default_m_grid(F, 25), tol, stability=True)
    filled = [p for p in b.points if p.mu1 is not None]
    assert len(filled) >= 20
    for p in filled:
        ref = pullin.mu1(tr.N_eff, F, p.lam / tr.voltage_factor, p, max(tol, 1e-6))
        assert abs(p.mu1 - ref) <= max(tol, 1e-6) * max(1.0, abs(ref)), p.m


def test_power_growth_shot_emits_no_runtime_warning():
    # DOP853 trial stages past the zero probe w < -1, where a fractional
    # power of 1 + w is undefined
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sr = shoot(power_growth(4.5), 1.2, 40.0, tol=1e-10)
    assert math.isfinite(sr.lam) and sr.lam > 0.0


def test_center_series_overflow_is_a_domain_error():
    # e^300 puts the third series coefficient past double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainValidationError, match="overflows"):
            shoot(EXP, 1.0, 300.0)


def test_minimal_solution_takes_few_shots(monkeypatch, mems_disc_branch):
    runs = []
    real = pullin.branch.solve_ivp

    def recording(fun, t_span, y0, *args, **kwargs):
        runs.append(len(y0))
        return real(fun, t_span, y0, *args, **kwargs)

    monkeypatch.setattr(pullin.branch, "solve_ivp", recording)
    prob = ProblemSpec(2.0, MEMS)
    loose = solve_branch(prob, tol=1e-6)
    # every voltage, below the first grid point too, reads the branch's own
    # run (or its center series): no trajectory run, one four-row compiled
    # shot of the answer, which meets the branch's own tol
    assert mems_disc_branch.points[0].lam > 1e-4
    for lam, b, tol in ((1e-4, mems_disc_branch, 1e-10), (0.2, mems_disc_branch, 1e-10),
                        (0.5, mems_disc_branch, 1e-10), (0.7, mems_disc_branch, 1e-10),
                        (1e-4, loose, 1e-6), (0.5, loose, 1e-6)):
        runs.clear()
        u = minimal_solution(prob, lam, b)
        assert abs(u.lam - lam) <= tol * lam
        assert runs == [4]


def test_minimal_solution_in_the_fold_cell_takes_no_run_at_the_fold(
        monkeypatch, mems_disc_branch):
    # the cell between the last stable grid point and the refined fold
    b = mems_disc_branch
    last = b.stable_points()[-1]
    centers = []
    real = pullin.branch.shoot

    def recording(F, N_eff, m, *args, **kwargs):
        centers.append(m)
        return real(F, N_eff, m, *args, **kwargs)

    monkeypatch.setattr(pullin.branch, "shoot", recording)
    for frac in (0.5, 1.0 - 1e-9):
        lam = last.lam + frac * (b.lambda_star - last.lam)
        centers.clear()
        u = minimal_solution(ProblemSpec(2.0, MEMS), lam, b)
        assert u.lam == pytest.approx(lam, rel=1e-10)
        assert last.m < u.m < b.m_star
        assert b.m_star not in centers


# the center value is a brentq root on the trajectory: it meets tol in λ,
# and at tol 1e-10 it is the root of tight one-lane shots
_MINIMAL_CASES = [(EXP, 2.0), (EXP, 3.0), (EXP, 10.0), (MEMS, 2.0), (MEMS, 5.0),
                  (MEMS, 9.0), (power_growth(3.0), 3.0)]
_MINIMAL_FRACTIONS = (1e-6, 1e-3, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("F, N", _MINIMAL_CASES, ids=lambda v: getattr(v, "label", lambda: v)())
def test_minimal_solution_is_the_root_of_its_voltage(F, N, tol):
    def tight(m):
        return pullin.branch.shoot(F, N, m, 1e-13).first_zero ** 2

    prob = ProblemSpec(N, F)
    b = solve_branch(prob, tol=tol)
    for frac in _MINIMAL_FRACTIONS:
        lam = frac * b.lambda_star
        u = minimal_solution(prob, lam, b)
        assert abs(u.lam - lam) <= tol * lam
        # 1e-9 below λ* the root is too flat for the tight shots' own error
        if tol == 1e-10 and frac < 1.0 - 1e-9:
            lo, hi = u.m * (1.0 - 1e-6), u.m * (1.0 + 1e-6)
            assert tight(lo) < lam < tight(hi)
            m_ref = brentq(lambda m: tight(m) - lam, lo, hi, xtol=1e-16, rtol=1e-15)
            assert abs(u.m - m_ref) <= 1e-10 * max(1.0, m_ref)
    # a voltage one ulp below λ* still has its solution
    lam = math.nextafter(b.lambda_star, 0.0)
    assert abs(minimal_solution(prob, lam, b).lam - lam) <= tol * lam


def test_a_grid_that_ends_a_few_ulps_past_its_last_step_reads_its_end():
    # the compiled run's last recorded level falls short of this schedule's
    # top by a few ulps; reading the top from there took a step of 2e-17
    grid = [0.5, 0.9, 0.9802548378789799]
    b = solve_branch(ProblemSpec(2.0, EXP), grid, tol=1e-6)
    assert np.all(np.abs(b.lambda_values - _disc_lambda(np.array(grid))) <= 1e-6)


def test_minimal_solution_refuses_a_voltage_above_its_table():
    # a schedule that starts past the fold: no fold, a falling table
    prob = ProblemSpec(2.0, MEMS)
    b = solve_branch(prob, np.geomspace(0.5, 0.9, 5))
    assert not b.fold_found and b.lambda_values[1] < 0.77 < b.lambda_star
    with pytest.raises(BeyondPullInError, match="not bracketed"):
        minimal_solution(prob, 0.77, b)


def test_refusals_print_the_branch_voltage_in_full():
    # at 6 digits the branch voltage would read as 16, the refused voltage
    prob = ProblemSpec(10.0, EXP)
    b = solve_branch(prob, pullin.default_m_grid(EXP, 5))
    lam = 16.0
    assert 15.9999999999 < b.lambda_star < lam
    with pytest.raises(BeyondPullInError, match=re.escape(f"λ*={b.lambda_star})")):
        minimal_solution(prob, lam, b)
    with pytest.raises(BeyondPullInError, match=re.escape(f"λ*={b.lambda_star})")):
        pullin.dudlambda(prob, lam - 1e-3, 1e-2, b)


@pytest.mark.parametrize("grid, rule", [
    ([0.1, 0.2], "at least 3 points"),
    ([[0.1, 0.2, 0.3]], "at least 3 points"),
    ([0.1, 0.3, 0.2], "strictly increasing"),
    ([0.0, 0.1, 0.2], "inside"),
    ([0.1, 0.5, 1.0], "inside"),
    ([math.nan, 0.2, 0.3], "inside"),
    ([0.1, math.nan, 0.3], "inside"),
    ([0.1, 0.2, math.nan], "inside"),
])
def test_solve_branch_refuses_a_malformed_schedule(grid, rule):
    with pytest.raises(DomainValidationError, match=rule):
        solve_branch(ProblemSpec(2.0, MEMS), grid)


def test_branch_without_fold_has_no_pullin_distance(capsys):
    import json

    from pullin import cli
    b = solve_branch(ProblemSpec(10.0, EXP), pullin.default_m_grid(EXP, 50))
    assert b.fold_found is False
    assert math.isnan(b.m_star)
    assert cli.main(["branch", "--family", "exp", "--N", "10", "--m-points", "50"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["fold_found"] is False
    assert res["m_star"] is None


# schedules that start past the first fold, with a voltage below their λ*
_PAST_THE_FOLD = [
    # the inverse-square disc folds at m* = 0.445: every slope is negative
    pytest.param(ProblemSpec(2.0, MEMS), np.geomspace(0.5, 0.9, 5), 0.77, id="mems-disc"),
    # the exponential in N = 3 folds at m* = 1.6075, and again at 11.38
    # after a turn: that second fold is not the pull-in fold
    pytest.param(ProblemSpec(3.0, EXP), np.geomspace(2.5, 40.0, 200), 3.0, id="exp-N3"),
]


@pytest.mark.parametrize("prob, grid, lam", _PAST_THE_FOLD)
def test_a_schedule_that_starts_past_the_fold_has_no_stable_point(prob, grid, lam):
    b = solve_branch(prob, grid)
    assert b.fold_found is False
    assert math.isnan(b.m_star)
    assert b.stable_points() == []
    assert lam < b.lambda_star
    with pytest.raises(BeyondPullInError, match="not bracketed"):
        minimal_solution(prob, lam, b)


def test_a_schedule_that_starts_rising_keeps_its_first_fold():
    # the exponential in N = 3 on the default schedule: the leading rising
    # run ends in the first cell where dλ/dm turns from + to -, so m* and λ*
    # are those that cell gives
    b = solve_branch(ProblemSpec(3.0, EXP))
    _, slopes = _grid_points(EXP, 3.0, b.m_values)
    rising = slopes > 0.0
    turns = np.flatnonzero(rising[:-1] & ~rising[1:])
    assert turns.size > 1  # the branch folds more than once on this schedule
    assert b.fold_found and b.n_stable - 1 == turns[0]
    assert b.stable_points() == [p for p in b.points if p.m < b.m_star]
    assert b.m_star == pytest.approx(1.6074567750838542, rel=1e-12)
    assert b.lambda_star == pytest.approx(3.3219921183398253, rel=1e-12)


@pytest.mark.parametrize("F, ms", [(EXP, (0.3, 1.0, 2.5)),
                                   (MEMS, (0.1, 0.4, 0.8)),
                                   (power_growth(3.0), (0.2, 1.0, 3.0))])
@pytest.mark.parametrize("N", [1.0, 2.5, 5.0])
@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_one_lane_shot_matches_its_lane(F, ms, N, alpha):
    # a shot runs the weighted τ equations of its center value, a branch
    # the trajectory of the reduced problem; both solve them to tol
    tol = 1e-10
    tr = pullin.dim_transform(N, alpha)
    b = solve_branch(ProblemSpec(N, F, alpha), ms, tol)
    _, slopes = _grid_points(F, tr.N_eff, ms, tol)
    for j, m in enumerate(ms):
        sr = shoot(F, N, m, tol, alpha)
        assert sr.lam == pytest.approx(b.points[j].lam, rel=10 * tol)
        assert sr.dlam_dm == pytest.approx(tr.voltage_factor * slopes[j], rel=10 * tol)

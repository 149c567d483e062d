import math
import warnings

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_bvp

import pullin
from pullin import (BeyondPullInError, DomainValidationError, ProblemSpec,
                    exponential, mems_inverse_power, minimal_solution,
                    power_growth, shoot, solve_branch)
from pullin.optimize import golden_section_min

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
    assert b.max_relative_jump() < 0.2
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
    # the refined fold from a coarse grid agrees with a direct golden search
    m_ref, neg_lam = golden_section_min(lambda m: -shoot(MEMS, 2.0, m).lam, 0.40, 0.49,
                                        tol=1e-10)
    lam_ref = -neg_lam
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


def test_branch_grid_is_one_integration(monkeypatch):
    methods = []
    real = pullin.radial._scipy_solve_ivp

    def counting(*args, **kwargs):
        methods.append((len(args[2]), kwargs["method"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(pullin.radial, "_scipy_solve_ivp", counting)
    # exp N = 10 is singular: no fold, so no fold refinement runs
    b = solve_branch(ProblemSpec(10.0, EXP), pullin.default_m_grid(EXP, 61))
    assert not b.fold_found
    # one run of all 61 lanes, under the error norm of the worst lane
    assert methods == [(4 * 61, pullin.radial._LaneDOP853)]


def test_lane_error_norm_is_the_worst_lane():
    # scipy's RMS over all components would divide one lane's error by
    # sqrt(n) when n - 1 quiet lanes share the run
    rng = np.random.default_rng(0)
    K1, scale1 = rng.standard_normal((13, 4)), 1.0 + rng.random(4)
    n = 50
    K, scale = np.zeros((13, 4, n)), np.ones((4, n))
    K[:, :, 7], scale[:, 7] = K1, scale1
    solver = lambda size: pullin.radial._LaneDOP853(
        lambda t, y: np.zeros_like(y), 0.0, np.zeros(size), 1.0)
    one = solver(4)._estimate_error_norm(K1, 0.1, scale1)
    assert one == pytest.approx(DOP853._estimate_error_norm(solver(4), K1, 0.1, scale1),
                                rel=1e-14)
    assert solver(4 * n)._estimate_error_norm(
        K.reshape(13, 4 * n), 0.1, scale.reshape(4 * n)) == pytest.approx(one, rel=1e-14)
    # the trailing quadrature row of an eigen-shot is left out
    K5 = np.hstack((K1, 1e6 * rng.standard_normal((13, 1))))
    assert solver(5)._estimate_error_norm(K5, 0.1, np.append(scale1, 1e-12)) == one


def test_lane_keeps_its_own_tolerance_in_a_grid():
    # the norm of the worst lane: a near-singular neighbour changes the
    # steps, not what an easy lane delivers
    tol = 1e-10
    alone = shoot(MEMS, 2.0, 0.3, tol)
    R, slope, *_ = pullin.branch._shoot_lanes(MEMS, 2.0, np.array([0.3, 0.9999]), tol)
    assert abs(R[0] ** 2 - alone.lam) <= tol * max(1.0, alone.lam)
    assert abs(slope[0] - alone.dlam_dm) <= 1e-9


def test_every_lane_of_a_dense_disc_grid_meets_tolerance():
    tol = 1e-10
    grid = pullin.default_m_grid(EXP, 400)
    b = solve_branch(ProblemSpec(2.0, EXP), grid, tol=tol)
    ref = _disc_lambda(grid)
    assert np.all(np.abs(b.lambda_values - ref) <= tol * np.maximum(1.0, ref))


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
    assert b.fold_index is None
    assert b.lambda_star == pytest.approx(16.0, rel=1e-2)


def test_fold_is_a_root_of_the_slope():
    b = solve_branch(ProblemSpec(2.0, MEMS), np.geomspace(1e-3, 1.0 - 1e-4, 48))
    k = b.fold_index
    assert b.m_values[k] < b.m_star < b.m_values[k + 1]
    assert abs(shoot(MEMS, 2.0, b.m_star).dlam_dm) < 1e-8


def test_branch_counts_skipped_stability_fills():
    grid = np.geomspace(0.05, 1.0 - 1e-4, 5)
    b = solve_branch(ProblemSpec(2.0, MEMS), grid, stability=True)
    assert b.stability_skipped == sum(p.mu1 is None for p in b.points)
    assert b.stability_skipped >= 1  # the potential blows up as m -> 1
    assert solve_branch(ProblemSpec(2.0, MEMS), grid).stability_skipped == 0


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
    calls = []
    real = pullin.branch._shoot_lanes

    def counting(*args, **kwargs):
        calls.append(kwargs.get("dense", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(pullin.branch, "_shoot_lanes", counting)
    for lam in (1e-4, 0.2, 0.5, 0.7):
        calls.clear()
        u = minimal_solution(ProblemSpec(2.0, MEMS), lam, mems_disc_branch)
        assert u.lam == pytest.approx(lam, rel=1e-10)
        # Newton steps without dense output, then one dense shot of the answer
        assert calls.count(False) <= 4 and calls.count(True) == 1 and calls[-1]


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


@pytest.mark.parametrize("F, ms", [(EXP, (0.3, 1.0, 2.5)),
                                   (MEMS, (0.1, 0.4, 0.8)),
                                   (power_growth(3.0), (0.2, 1.0, 3.0))])
@pytest.mark.parametrize("N", [1.0, 2.5, 5.0])
@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_one_lane_shot_matches_its_lane(F, ms, N, alpha):
    # a one-lane run takes the scalar right-hand side, a grid run the
    # vectorized one; both solve the same equations to tol
    from pullin.branch import _shoot_lanes
    tol = 1e-10
    R, slopes, *_ = _shoot_lanes(F, N, np.array(ms), tol, alpha)
    for j, m in enumerate(ms):
        sr = shoot(F, N, m, tol, alpha)
        assert sr.lam == pytest.approx(R[j] ** (2.0 + alpha), rel=10 * tol)
        assert sr.dlam_dm == pytest.approx(slopes[j], rel=10 * tol)

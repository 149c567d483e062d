import math

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as sp_gamma

import pullin
from pullin import (DomainValidationError, DomainStats, QuadratureError,
                    ball_stats, energy_norm_bound, exp_supnorm_bound,
                    exp_supnorm_constant, eigenvalue_lower_bound, exponential,
                    lambda1_ball, log_weight_integral, mems_ball_supnorm_bound,
                    mems_ball_supnorm_closed_form,
                    mems_inverse_power, mems_profile_constant,
                    mems_supnorm_bound, mems_supnorm_constant,
                    power_growth, power_supnorm_constant,
                    pullin_distance_lower, pullin_voltage_upper,
                    radial_decay_constant, stability_necessary_check,
                    volume_unit_ball)
from pullin.bounds import (T_MAX_MEMS, _mems_radial_integral, _mems_radial_root,
                           _mems_radial_rhs, _open_window, _power_window)
from pullin.optimize import golden_section_min

MEMS = mems_inverse_power(2.0)
EXP = exponential()

LAM1_BALL_1D = math.pi ** 2 / 4.0
LAM1_BALL_2D = 5.783185962946785  # square of the first Bessel J0 zero


def unit_stats(N, lam1):
    return DomainStats(lambda1=lam1, volume=volume_unit_ball(N), N=N,
                       inf_f=1.0, sup_f=1.0, f_phi_integral=1.0)


def test_unit_ball_volumes():
    assert volume_unit_ball(1.0) == pytest.approx(2.0, rel=1e-14)
    assert volume_unit_ball(2.0) == pytest.approx(math.pi, rel=1e-14)
    assert volume_unit_ball(3.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    N = 2.5
    assert volume_unit_ball(N) == pytest.approx(
        math.pi ** (N / 2) / float(sp_gamma(N / 2 + 1)), rel=1e-12)


def test_domain_stats_validation():
    with pytest.raises(DomainValidationError):
        DomainStats(lambda1=-1.0, volume=1.0, N=2.0, inf_f=1.0, sup_f=1.0,
                    f_phi_integral=1.0)
    with pytest.raises(DomainValidationError):
        DomainStats(lambda1=1.0, volume=1.0, N=2.0, inf_f=1.0, sup_f=2.0,
                    f_phi_integral=3.0)


def test_voltage_upper_disc_inverse_square():
    stats = unit_stats(2.0, LAM1_BALL_2D)
    rep = pullin_voltage_upper(MEMS, stats)
    # min(B / inf f, C / mean f) = B = 4/27 here
    assert rep.value == pytest.approx(4.0 * LAM1_BALL_2D / 27.0, rel=1e-12)
    assert 0.789 <= rep.value  # the computed pull-in voltage sits below it


def test_voltage_upper_drops_first_term_when_inf_vanishes():
    stats = DomainStats(lambda1=LAM1_BALL_2D, volume=math.pi, N=2.0,
                        inf_f=0.0, sup_f=1.0, f_phi_integral=0.5)
    rep = pullin_voltage_upper(MEMS, stats)
    assert rep.value == pytest.approx(LAM1_BALL_2D * (1.0 / 3.0) / 0.5, rel=1e-12)


def test_voltage_upper_exponential_takes_minimum():
    stats = unit_stats(2.0, LAM1_BALL_2D)
    rep = pullin_voltage_upper(EXP, stats)
    assert rep.value == pytest.approx(LAM1_BALL_2D / math.e, rel=1e-12)
    # the exact disc pull-in voltage (2, from the closed-form branch) obeys it
    assert 2.0 <= rep.value


def test_distance_lower_constant_weight():
    stats = unit_stats(2.0, LAM1_BALL_2D)
    assert pullin_distance_lower(MEMS, stats).value == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert pullin_distance_lower(EXP, stats).value == pytest.approx(1.0, rel=1e-12)
    assert pullin_distance_lower(power_growth(3.0), stats).value == \
        pytest.approx(0.5, rel=1e-12)


def test_distance_lower_clamps_for_flat_ratio():
    stats = DomainStats(lambda1=1.0, volume=1.0, N=2.0, inf_f=1e-8,
                        sup_f=1.0, f_phi_integral=1e-6)
    assert pullin_distance_lower(MEMS, stats).value == 0.0


# reference closed forms of the distance bound for each family, kept in
# their unclamped min/max form as oracles for the generic route


def mems_distance_lower(p, stats):
    """1 - min( p/(p+1)·(sup f/inf f)^(1/(p+1)), (p/(p+1)·sup f/mean f)^(1/(p+1)) );
    with constant weight this is 1 - p/(p+1) = 1/(p+1)."""
    q = 1.0 / (p + 1.0)
    t1 = (p / (p + 1.0)) * (stats.sup_f / stats.inf_f) ** q if stats.inf_f > 0 else math.inf
    t2 = ((p / (p + 1.0)) * stats.sup_f / stats.f_phi_integral) ** q \
        if stats.f_phi_integral > 0 else math.inf
    return 1.0 - min(t1, t2)


def exp_distance_lower(stats):
    """max(1 + log(inf f/sup f), log(mean f/sup f))."""
    t1 = 1.0 + math.log(stats.inf_f / stats.sup_f) if stats.inf_f > 0 else -math.inf
    t2 = math.log(stats.f_phi_integral / stats.sup_f) if stats.f_phi_integral > 0 else -math.inf
    return max(t1, t2)


def power_distance_lower(p, stats):
    """max( p/(p-1)·(inf f/sup f)^(1/(p-1)), ((p-1)/p·mean f/sup f)^(1/(p-1)) ) - 1."""
    q = 1.0 / (p - 1.0)
    t1 = (p / (p - 1.0)) * (stats.inf_f / stats.sup_f) ** q
    t2 = ((p - 1.0) / p * stats.f_phi_integral / stats.sup_f) ** q
    return max(t1, t2) - 1.0


def test_named_distance_variants_match_generic():
    # the generic route clamps at zero (inverting F' below its slope at 0);
    # the named variants keep the reference unclamped closed forms
    for stats in (unit_stats(2.0, LAM1_BALL_2D),
                  DomainStats(lambda1=3.0, volume=1.0, N=3.0, inf_f=0.5,
                              sup_f=2.0, f_phi_integral=1.2),
                  DomainStats(lambda1=3.0, volume=1.0, N=3.0, inf_f=0.9,
                              sup_f=1.0, f_phi_integral=0.95)):
        for named, F in ((mems_distance_lower(2.0, stats), MEMS),
                         (exp_distance_lower(stats), EXP),
                         (power_distance_lower(2.0, stats), power_growth(2.0))):
            generic = pullin_distance_lower(F, stats).value
            assert generic == pytest.approx(max(named, 0.0), abs=1e-12)


def test_stability_necessary_check_cases():
    stats = unit_stats(2.0, LAM1_BALL_2D)
    # 5.7832 <= 0.789 * 2/(1-0.445)^3 ~ 9.24
    assert stability_necessary_check(MEMS, stats, 0.789, 0.445)
    assert not stability_necessary_check(MEMS, stats, 0.0, 0.445)
    # a voltage far too small cannot carry a classical extremal
    assert not stability_necessary_check(MEMS, stats, 0.1, 0.1)


def test_exp_constant_frozen_values():
    # computed once with the grid+golden minimizer and an independent dense
    # scan; reference-table comparisons live in the acceptance suite
    expected = {3: 1.9915355, 4: 2.2324005, 5: 2.6689421, 6: 3.4226946,
                7: 4.8191289, 8: 7.9408166, 9: 19.0030812}
    for N, val in expected.items():
        rep = exp_supnorm_constant(float(N))
        assert rep.valid
        assert rep.value == pytest.approx(val, abs=1e-4)


def test_exp_constant_window():
    assert not exp_supnorm_constant(10.0).valid
    assert math.isnan(exp_supnorm_constant(10.0).value)
    rep = exp_supnorm_constant(2.5)  # evaluable but outside the stated window
    assert not rep.valid
    assert math.isfinite(rep.value)


def test_exp_supnorm_bound_unit_ball():
    stats = unit_stats(3.0, math.pi ** 2)
    rep = exp_supnorm_bound(stats)
    assert rep.valid
    expected = math.pi ** 2 * exp_supnorm_constant(3.0).value / math.e
    assert rep.value == pytest.approx(expected, rel=1e-12)


def test_exp_supnorm_bound_dimension_2_needs_half_ball():
    stats = DomainStats(lambda1=40.0, volume=0.05, N=2.0, inf_f=1.0,
                        sup_f=1.0, f_phi_integral=1.0)
    assert not exp_supnorm_bound(stats).valid
    rep = exp_supnorm_bound(stats, contained_in_half_ball=True)
    assert rep.valid and rep.value > 0


def test_eigenvalue_lower_bound_consistency():
    # for the unit ball the chain gives a valid (weak) lower eigenvalue bound
    rep = eigenvalue_lower_bound(3.0, volume_unit_ball(3.0))
    assert rep.valid
    assert rep.value <= math.pi ** 2


def test_log_weight_integral_frozen():
    # integral of -log(r)*r over (0,1) by parts equals 1/4
    assert log_weight_integral(1.0, 1.0) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("R", [0.3, 0.7, 1.0])
def test_log_weight_integral_recursion(p, R):
    lhs = log_weight_integral(p, R)
    rhs = R * R / 2.0 * (-math.log(R)) ** p + p / 2.0 * log_weight_integral(p - 1.0, R)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("p", [0.0, 1.25, 2.0, 3.0, 11.0])
@pytest.mark.parametrize("R", [1e-6, 0.3, 1.0])
def test_log_weight_integral_incomplete_gamma_oracle(p, R):
    # Λ(p, R) = 2^-(p+1) Γ(p+1, -2 log R)
    with mpmath.workdps(30):
        ref = float(mpmath.gammainc(p + 1, -2 * mpmath.log(R))
                    / mpmath.mpf(2) ** (p + 1))
    assert log_weight_integral(p, R) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_mems_constant_and_cube_bound():
    rep = mems_supnorm_constant(3.0)
    assert rep.valid
    assert rep.value == pytest.approx(0.8695756, abs=1e-4)
    stats = DomainStats(lambda1=3.0 * math.pi ** 2, volume=1.0, N=3.0,
                        inf_f=1.0, sup_f=1.0, f_phi_integral=1.0)
    assert mems_supnorm_bound(stats).value == pytest.approx(0.993, abs=2e-3)


def test_mems_constant_window():
    assert not mems_supnorm_constant(8.0).valid  # 4.5 > 2 + sqrt(6)
    for N in (3.0, 4.0, 5.0, 6.0, 7.0):
        rep = mems_supnorm_constant(N)
        assert rep.valid and 0.0 < rep.value < 10.0


def test_mems_bound_monotone_in_eigenvalue_volume_product():
    # unit ball has a smaller lambda1 * (|Omega|/omega_N)^(2/3) product than
    # the unit cube, so its bound is smaller
    ball = mems_supnorm_bound(unit_stats(3.0, math.pi ** 2))
    cube = mems_supnorm_bound(DomainStats(lambda1=3.0 * math.pi ** 2, volume=1.0,
                                          N=3.0, inf_f=1.0, sup_f=1.0,
                                          f_phi_integral=1.0))
    assert ball.value < cube.value


def test_power_constant_window_endpoints():
    # the t-window for p = 2 is (max(2 - sqrt 2, t_N2), 2 + sqrt 2)
    rep = power_supnorm_constant(3.0, 2.0)
    assert rep.valid
    assert rep.value == pytest.approx(3.083935, abs=1e-4)
    lo = 2.0 - math.sqrt(2.0)
    hi = 2.0 + math.sqrt(2.0)
    assert lo < rep.optimizer < hi
    assert not power_supnorm_constant(5.0, 2.0).valid


@pytest.mark.parametrize("N", [1.0, 1.5, 2.0])
def test_power_supnorm_bound_needs_dimension_above_two(N):
    # the formula divides by N - 2: inf (with a RuntimeWarning) at N = 2,
    # a negative "bound" below it
    rep = pullin.power_supnorm_bound(unit_stats(N, 5.0), 2.0)
    assert math.isnan(rep.value)
    assert not rep.valid
    assert "N > 2" in rep.reason


def test_energy_norm_bound_frozen():
    assert energy_norm_bound(EXP, 1.0, 1.0) == pytest.approx(4.0, rel=1e-14)
    # 4(2t+1)/(4t+2-t^2) at t=1 equals 12/5
    assert energy_norm_bound(MEMS, 1.0, 1.0) == pytest.approx(5.76, rel=1e-14)


def test_energy_norm_bound_blows_up_at_window_edge():
    assert energy_norm_bound(EXP, 2.0 - 1e-8, 1.0) > 1e3
    with pytest.raises(DomainValidationError):
        energy_norm_bound(EXP, 2.0, 1.0)
    with pytest.raises(DomainValidationError):
        energy_norm_bound(MEMS, T_MAX_MEMS, 1.0)
    with pytest.raises(DomainValidationError):
        energy_norm_bound(power_growth(2.0), 1.0, 1.0)


def test_radial_decay_constant_frozen():
    assert radial_decay_constant(2.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert radial_decay_constant(2.0, 2.0) == pytest.approx(0.5, rel=1e-14)


def test_radial_decay_constant_divergence_and_decay():
    assert radial_decay_constant(1.5 + 1e-9, 3.0) > 100.0
    taus = np.linspace(4.0, 12.0, 9)
    vals = [radial_decay_constant(t, 3.0) for t in taus]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainValidationError):
        radial_decay_constant(1.5, 3.0)
    with pytest.raises(DomainValidationError):
        radial_decay_constant(5.0, 2.5)


def test_profile_constant_composition():
    # C(1, 1): decay constant 2.5/4, energy factor (12/5)^2
    lam1 = LAM1_BALL_1D
    expected = 4.0 * lam1 * (2.5 / 4.0) / 27.0 * (12.0 / 5.0) ** 2
    assert mems_profile_constant(1.0, 1.0, lam1) == pytest.approx(expected, rel=1e-14)


def test_radial_ball_bound_values_and_oracle():
    rep1 = mems_ball_supnorm_bound(1.0, LAM1_BALL_1D)
    rep2 = mems_ball_supnorm_bound(2.0, LAM1_BALL_2D)
    # frozen from this implementation; cross-checked below by a Riemann oracle
    assert rep1.value == pytest.approx(0.52156, abs=1e-3)
    assert rep2.value == pytest.approx(0.62017, abs=1e-3)

    # independent midpoint-rule evaluation of the defining integral at the
    # reported optimum: the root must satisfy G = RHS
    for N, lam1, rep in ((1.0, LAM1_BALL_1D, rep1), (2.0, LAM1_BALL_2D, rep2)):
        t, m = rep.optimizer, rep.value
        C = mems_profile_constant(t, N, lam1)
        rho = (4.0 * t + 6.0 - 2.0 * N) / (2.0 * t + 3.0)
        R = (np.arange(200000) + 0.5) / 200000.0
        G = np.mean(R ** (N - 1.0) / (1.0 - m + C * R ** rho) ** (2.0 * t + 3.0))
        assert G == pytest.approx(_mems_radial_rhs(t, N), rel=1e-4)


def test_radial_ball_bound_degenerates_in_high_dimension():
    rep = mems_ball_supnorm_bound(9.0)
    assert not rep.valid
    assert rep.value == 1.0


def test_radial_ball_bound_preconditions():
    with pytest.raises(DomainValidationError):
        mems_ball_supnorm_bound(12.0)
    with pytest.raises(DomainValidationError):
        mems_ball_supnorm_bound(2.5)


def test_radial_ball_bound_dominates_computed_pullin_distance():
    import numpy as np

    from pullin import ProblemSpec, mems_inverse_power, solve_branch
    for N, lam1 in ((1.0, LAM1_BALL_1D), (2.0, LAM1_BALL_2D)):
        b = solve_branch(ProblemSpec(N, mems_inverse_power(2.0)),
                         np.geomspace(1e-3, 1 - 1e-4, 80))
        rep = mems_ball_supnorm_bound(N, lam1)
        assert b.m_star <= rep.value + 1e-3


def test_closed_forms_are_weaker_than_the_quadrature_bound():
    for N, lam1 in ((1.0, LAM1_BALL_1D), (2.0, LAM1_BALL_2D)):
        quad_rep = mems_ball_supnorm_bound(N, lam1)
        closed = mems_ball_supnorm_closed_form(N, lam1)
        assert closed.value >= quad_rep.value - 1e-9
        assert closed.value < 1.0


def test_ball_stats_constant_weight():
    stats = ball_stats(2.0)
    assert stats.lambda1 == pytest.approx(LAM1_BALL_2D, abs=1e-7)
    assert stats.volume == pytest.approx(math.pi, rel=1e-12)
    assert stats.f_phi_integral == 1.0
    assert stats.inf_f == 1.0 and stats.sup_f == 1.0


def test_ball_stats_power_weight():
    stats = ball_stats(2.0, alpha=2.0)
    assert stats.inf_f == 0.0
    assert stats.sup_f == 1.0
    assert 0.0 < stats.f_phi_integral < 1.0


def test_ball_stats_solves_the_eigenproblem_once(monkeypatch):
    calls = []
    real = pullin.spectral.lambda1_ball

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pullin.spectral, "lambda1_ball", counting)
    stats = ball_stats(3.0, alpha=1.5)
    assert len(calls) == 1
    ratio = real(3.0).weight_ratio(1.5)
    assert stats.f_phi_integral == pytest.approx(ratio, abs=1e-12)


def _radial_integral_parameters(t, N):
    lam1 = lambda1_ball(N).eigenvalue
    q = 2.0 * t + 3.0
    rho = (4.0 * t + 6.0 - 2.0 * N) / q
    return N / rho, q, mems_profile_constant(t, N, lam1)


def _radial_integral_oracle(m, a, q, C):
    # c^(a-q) C^(-a) B_X(a, b), the incomplete beta form of
    # ∫₀¹ s^(a-1) (c + C s)^(-q) ds at X = C/(c + C)
    with mpmath.workdps(40):
        a, q, C = mpmath.mpf(a), mpmath.mpf(q), mpmath.mpf(C)
        c = 1 - mpmath.mpf(m)
        return float(c ** (a - q) * C ** (-a) * mpmath.betainc(a, q - a, 0, C / (c + C)))


@pytest.mark.parametrize("m", [0.0, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9])
def test_radial_integral_resolves_the_boundary_layer(m):
    # N = 1, t = 0.05: C ≈ 3e11, so the integrand has a layer of width
    # (1 - m)/C at s = 0
    a, q, C = _radial_integral_parameters(0.05, 1.0)
    assert C > 1e10
    assert _mems_radial_integral(m, a, q, C) == \
        pytest.approx(_radial_integral_oracle(m, a, q, C), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("N", [1.0, 2.0, 3.0, 5.0, 7.0])
def test_radial_integral_near_the_singularity(N):
    lo = max(0.0, 3.0 * (N - 2.0) / 4.0)  # b = q - a > 0 above this t
    for t in np.linspace(lo + 0.05, T_MAX_MEMS - 0.05, 5):
        a, q, C = _radial_integral_parameters(float(t), N)
        m = 1.0 - 1e-9
        assert _mems_radial_integral(m, a, q, C) == \
            pytest.approx(_radial_integral_oracle(m, a, q, C), rel=1e-12, abs=0.0)


def test_radial_integral_quadrature_branch():
    # N = 5, t = 1.5: a = 15 > q = 6, left to quadrature
    a, q, C = _radial_integral_parameters(1.5, 5.0)
    assert a > q
    with mpmath.workdps(30):
        ref = float(mpmath.quad(lambda s: s ** (a - 1) / (mpmath.mpf(0.5) + C * s) ** q,
                                [0, 1]))
    assert _mems_radial_integral(0.5, a, q, C) == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_radial_integral_quadrature_reports_a_bad_error_estimate(monkeypatch):
    a, q, C = _radial_integral_parameters(1.5, 5.0)
    monkeypatch.setattr(pullin.bounds, "quad", lambda *args, **kwargs: (1.0, 0.5))
    with pytest.raises(QuadratureError):
        _mems_radial_integral(0.5, a, q, C)


def test_radial_root_in_dimension_7_against_mpmath():
    # the N = 7 optimum: the root lies 4.2e-5 below 1, inside the layer
    t, N = 4.30264932, 7.0
    lam1 = lambda1_ball(N).eigenvalue
    a, q, C = _radial_integral_parameters(t, N)
    rho = N / a
    rhs = _mems_radial_rhs(t, N)
    with mpmath.workdps(40):
        def residual(m):
            c = 1 - m
            return (c ** (a - q) * mpmath.mpf(C) ** (-a)
                    * mpmath.betainc(a, q - a, 0, C / (c + C)) / rho - rhs)
        ref = float(mpmath.findroot(residual, (mpmath.mpf("0.9999"), mpmath.mpf("0.99999")),
                                    solver="anderson"))
    assert ref == pytest.approx(0.9999583885, abs=1e-10)
    assert _mems_radial_root(t, N, lam1) == pytest.approx(ref, abs=1e-9)


# the constant scans: one array call per grid, the parent's per-point scan as
# an oracle; per family the objective's name, the constant, its window and the
# objective's extra arguments (p = 2 for power growth)

CONSTANTS = {
    "exp": ("_exp_constant_objective", exp_supnorm_constant,
            lambda N: ((N - 2.0) / 4.0, 2.0), ()),
    "mems": ("_mems_constant_objective", mems_supnorm_constant,
             lambda N: (3.0 * (N - 2.0) / 4.0, T_MAX_MEMS), ()),
    "power": ("_power_constant_objective", lambda N: power_supnorm_constant(N, 2.0),
              lambda N: _power_window(N, 2.0), (2.0,)),
}
TABLE_DIMENSIONS = [float(n) for n in range(3, 10)]


@pytest.mark.parametrize("family", CONSTANTS)
def test_each_constant_scans_its_grid_in_one_array_call(monkeypatch, family):
    name, constant, _, _ = CONSTANTS[family]
    objective = getattr(pullin.bounds, name)
    for N in TABLE_DIMENSIONS:
        shapes = []

        def wrapped(t, *args):
            shapes.append(np.shape(t))
            return objective(t, *args)

        monkeypatch.setattr(pullin.bounds, name, wrapped)
        if math.isnan(constant(N).value):
            assert shapes == []  # empty window: no scan
            continue
        assert shapes.count((2000,)) == 1
        assert len(shapes) > 1 and all(s == () for s in shapes if s != (2000,))


def per_point_scan(f, grid, tol=1e-10):
    """`grid_then_golden_min` as it was before the grid became one array
    call: one objective call per grid point, then the same golden polish."""
    def finite(x):
        try:
            v = f(x)
        except (OverflowError, QuadratureError):
            return math.inf
        return v if math.isfinite(v) else math.inf

    vals = np.array([finite(x) for x in grid])
    i = int(np.argmin(vals))
    x, v = golden_section_min(finite, grid[max(i - 1, 0)],
                              grid[min(i + 1, len(grid) - 1)], tol)
    if v >= vals[i]:
        return float(grid[i]), float(vals[i])
    return x, v


@pytest.mark.parametrize("family", CONSTANTS)
def test_constants_match_the_per_point_scan(family):
    name, constant, window, extra = CONSTANTS[family]
    objective = getattr(pullin.bounds, name)
    for N in TABLE_DIMENSIONS:
        rep = constant(N)
        lo, hi = window(N)
        if lo >= hi:
            assert math.isnan(rep.value)
            continue
        t, val = per_point_scan(lambda t: objective(t, N, *extra),
                                _open_window(lo, hi))
        assert rep.value == pytest.approx(val, rel=1e-14, abs=0.0)
        assert rep.optimizer == pytest.approx(t, rel=1e-8, abs=0.0)


def test_exp_bound_in_dimension_2_matches_the_per_point_scan():
    stats = ball_stats(2.0)
    R = math.sqrt(stats.volume / math.pi)

    def objective(t):
        # on a Python float an overflow at small t raises OverflowError,
        # which the scan reads as +inf
        t = float(t)
        lam_val = log_weight_integral((2.0 * t + 1.0) / (2.0 * t), R)
        return ((4.0 / (2.0 - t)) ** (1.0 / t)
                * (stats.volume / (2.0 * math.pi)) ** (1.0 / (2.0 * t + 1.0))
                * lam_val ** (2.0 * t / (2.0 * t + 1.0)))

    t, val = per_point_scan(objective, _open_window(0.0, 2.0, 400))
    rep = exp_supnorm_bound(stats)
    assert rep.value == pytest.approx(stats.lambda1 / math.e * val, rel=1e-14, abs=0.0)
    assert rep.optimizer == pytest.approx(t, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("call", [
    lambda: pullin.lambda1_ball(math.nan),
    lambda: pullin.lambda1_ball(math.inf),
    lambda: pullin.volume_unit_ball(math.nan),
    lambda: pullin.volume_unit_ball(math.inf),
    lambda: pullin.bounds.radial_decay_constant(math.nan, 2.0),
    lambda: pullin.bounds.radial_decay_constant(math.inf, 3.0),
    lambda: pullin.bounds.radial_decay_constant(np.array([2.0, math.nan]), 3.0),
    lambda: pullin.bounds.exp_supnorm_constant(math.nan),
    lambda: pullin.bounds.mems_supnorm_constant(math.nan),
    lambda: pullin.bounds.power_supnorm_constant(math.nan, 2.0),
    lambda: pullin.bounds.exp_supnorm_constant(0.5),
    lambda: pullin.ProblemSpec(math.inf, pullin.exponential()),
    lambda: pullin.ProblemSpec(2.0, pullin.exponential(), math.inf),
    lambda: pullin.dim_transform(math.inf, 0.0),
    lambda: pullin.shoot(pullin.exponential(), math.inf, 1.0),
    lambda: pullin.spectral.mu1(math.inf, pullin.exponential(), 1.0,
                                pullin.shoot(pullin.exponential(), 2.0, 1.0)),
], ids=["lambda1_nan", "lambda1_inf", "volume_nan", "volume_inf", "decay_tau_nan",
        "decay_tau_inf", "decay_tau_array_nan", "exp_constant_nan", "mems_constant_nan",
        "power_constant_nan", "exp_constant_N_below_1", "problem_N_inf", "problem_alpha_inf", "transform_N_inf",
        "shoot_N_inf", "mu1_N_inf"])
def test_nan_and_infinite_inputs_are_refused(call):
    with pytest.raises(DomainValidationError):
        call()

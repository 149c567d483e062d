import math

import numpy as np
import pytest
from scipy.special import gamma as sp_gamma

import pullin
from pullin import (DomainValidationError, DomainStats, ball_stats,
                    energy_norm_bound, exp_distance_lower, exp_supnorm_bound,
                    exp_supnorm_constant, eigenvalue_lower_bound,
                    exponential, log_weight_integral, mems_ball_supnorm_bound,
                    mems_ball_supnorm_closed_form, mems_distance_lower,
                    mems_inverse_power, mems_profile_constant,
                    mems_supnorm_bound, mems_supnorm_constant,
                    power_distance_lower, power_growth, power_supnorm_constant,
                    pullin_distance_lower, pullin_voltage_upper,
                    radial_decay_constant, stability_necessary_check,
                    volume_unit_ball)
from pullin.bounds import T_MAX_MEMS, _mems_radial_rhs

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
            assert generic == pytest.approx(max(named.value, 0.0), abs=1e-12)


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
    real = pullin.spectral._principal_eigenvalue

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pullin.spectral, "_principal_eigenvalue", counting)
    stats = ball_stats(3.0, alpha=1.5)
    assert len(calls) == 1
    ratio = pullin.profile_weight_ratio(3.0, 1.5)
    assert stats.f_phi_integral == pytest.approx(ratio, abs=1e-12)

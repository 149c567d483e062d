import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pullin import (DomainValidationError, MEMS_CRITICAL_DIMENSION,
                    REGULAR_CRITICAL_DIMENSION, ProblemSpec, Regularity, alpha_critical_mems,
                    asymptotic_envelopes, classify_regularity, default_m_grid,
                    dim_transform, exponential, mems_inverse_power,
                    power_growth, singular_extremal, solve_branch)
from pullin.powerlaw import extremal_voltage_rate

MEMS = mems_inverse_power(2.0)
EXP = exponential()


def test_transform_frozen_cases():
    tr = dim_transform(3.0, 2.0)
    assert tr.N_eff == pytest.approx(2.5)
    assert tr.voltage_factor == pytest.approx(4.0)
    assert tr.radius_exponent == pytest.approx(2.0)
    # identity at zero exponent
    tr0 = dim_transform(5.0, 0.0)
    assert (tr0.N_eff, tr0.voltage_factor, tr0.radius_exponent) == (5.0, 1.0, 1.0)


def test_transform_dimension_2_is_fixed_point():
    for alpha in (-1.5, -0.5, 0.0, 1.0, 7.0, 100.0):
        assert dim_transform(2.0, alpha).N_eff == pytest.approx(2.0, abs=1e-14)


def test_transform_limit_large_alpha():
    assert dim_transform(7.0, 1e8).N_eff == pytest.approx(2.0, abs=1e-6)


@given(st.floats(min_value=1.0, max_value=12.0),
       st.floats(min_value=-1.99, max_value=50.0),
       st.floats(min_value=-1.99, max_value=50.0))
@settings(max_examples=80, deadline=None)
def test_transform_monotone_in_alpha(N, a1, a2):
    if abs(a1 - a2) < 1e-6:
        return
    lo, hi = sorted((a1, a2))
    n_lo, n_hi = dim_transform(N, lo).N_eff, dim_transform(N, hi).N_eff
    if N < 2.0:
        assert n_lo < n_hi
    elif N > 2.0:
        assert n_lo > n_hi
    else:
        assert n_lo == pytest.approx(n_hi, abs=1e-12)


def test_transform_validation():
    with pytest.raises(DomainValidationError):
        dim_transform(0.5, 0.0)
    with pytest.raises(DomainValidationError):
        dim_transform(3.0, -2.0)


def test_alpha_critical_frozen():
    # (3N - 14 - 4 sqrt 6)/(4 + 2 sqrt 6) at N = 8 equals (9 sqrt 6 - 22)/2
    assert alpha_critical_mems(8.0) == pytest.approx(0.022703842524301442, abs=1e-12)


def test_classification_inverse_square():
    assert classify_regularity(MEMS, 7.0) is Regularity.CLASSICAL
    assert classify_regularity(MEMS, 8.0) is Regularity.SINGULAR
    a8 = alpha_critical_mems(8.0)
    assert classify_regularity(MEMS, 8.0, a8 * 2.0) is Regularity.CLASSICAL
    assert classify_regularity(MEMS, 8.0, a8 / 2.0) is Regularity.SINGULAR
    # threshold dimension equals the critical constant through the transform
    assert classify_regularity(MEMS, MEMS_CRITICAL_DIMENSION + 1e-9) is Regularity.SINGULAR


def test_classification_regular_families():
    assert classify_regularity(EXP, 9.99) is Regularity.CLASSICAL
    assert classify_regularity(EXP, 10.0) is Regularity.SINGULAR
    # positive weight exponents push the effective dimension toward 2
    assert classify_regularity(EXP, 12.0, 1.0) is Regularity.CLASSICAL
    assert classify_regularity(power_growth(3.0), 11.0, 1.0) is Regularity.CLASSICAL


# (1+u)^p is singular past N = 10 only from the Joseph-Lundgren exponent
# 1 + 4/(N - 4 - 2 sqrt(N - 1)) on (6.92 at N = 11, 3.93 at N = 12): the
# branch folds exactly when the classification says classical
@pytest.mark.parametrize("p", [2.0, 3.0, 5.0, 8.0, 12.0])
@pytest.mark.parametrize("N", [10.0, 11.0, 12.0])
def test_power_family_regularity_matches_the_fold(N, p):
    F = power_growth(p)
    folds = solve_branch(ProblemSpec(N, F), default_m_grid(F, 200)).fold_found
    assert (classify_regularity(F, N) is Regularity.CLASSICAL) is folds


# the regime matches the fold on both sides of each threshold, and at the
# inverse-square dimensions 4/3 < N <= (14 - 4 sqrt 6)/3, where the singular
# point is a stable node (disc >= 0) and yet the branch folds: only the
# rule's N > 2 makes those classical
@pytest.mark.parametrize("F, N", [(EXP, 9.5), (EXP, 10.5), (MEMS, 7.5), (MEMS, 8.5),
                                  (MEMS, 1.37), (MEMS, 1.40)],
                         ids=["exp-9.5", "exp-10.5", "mems-7.5", "mems-8.5", "mems-1.37",
                              "mems-1.40"])
def test_regularity_matches_the_fold_near_every_threshold(F, N):
    folds = solve_branch(ProblemSpec(N, F), default_m_grid(F, 200)).fold_found
    assert (classify_regularity(F, N) is Regularity.CLASSICAL) is folds
    if N < 2.0:
        _, c, trace, disc = F.scaling_law().singular_point(N)
        assert c > 0.0 and trace < 0.0 and disc >= 0.0


def test_classification_requires_inverse_square():
    with pytest.raises(DomainValidationError):
        classify_regularity(mems_inverse_power(3.0), 8.0)


def test_singular_extremal_frozen_voltages():
    assert singular_extremal(MEMS, 8.0).lambda_star == pytest.approx(40.0 / 9.0)
    assert singular_extremal(MEMS, 9.0).lambda_star == pytest.approx(46.0 / 9.0)
    assert singular_extremal(EXP, 10.0).lambda_star == pytest.approx(16.0)
    assert singular_extremal(EXP, 12.0).lambda_star == pytest.approx(20.0)


def test_singular_extremal_profiles_solve_the_ode():
    r = np.linspace(0.05, 0.999, 300)
    for se in (singular_extremal(MEMS, 8.0),
               singular_extremal(MEMS, 9.0, alpha_critical_mems(9.0) / 2.0),
               singular_extremal(EXP, 11.0)):
        assert np.max(np.abs(se.ode_residual(r))) < 1e-8


def test_singular_extremal_rejects_classical_regime():
    with pytest.raises(DomainValidationError):
        singular_extremal(MEMS, 7.0)
    with pytest.raises(DomainValidationError):
        singular_extremal(EXP, 9.0)
    with pytest.raises(DomainValidationError):
        singular_extremal(EXP, 10.0, 0.5)  # classical: N(α) = 8.4
    with pytest.raises(DomainValidationError, match="no explicit weighted"):
        singular_extremal(EXP, 14.0, 0.5)  # singular, N(α) = 11.6
    with pytest.raises(DomainValidationError):
        singular_extremal(power_growth(5.0), 11.0)


def test_voltage_rate_boundary_and_positivity():
    for rate in (extremal_voltage_rate(EXP, 10.0), extremal_voltage_rate(MEMS, 9.0)):
        assert rate.value(1.0) == pytest.approx(0.0, abs=1e-14)
        r = np.linspace(0.01, 0.999, 200)
        assert np.all(rate.value(r) > 0)


def test_voltage_rate_solves_linearized_equation():
    r = np.linspace(0.05, 0.999, 300)
    for F, N in ((EXP, 12.0), (EXP, 10.0), (MEMS, 10.0), (MEMS, 9.0)):
        rate = extremal_voltage_rate(F, N)
        se = singular_extremal(F, N)
        assert np.max(np.abs(rate.linearized_residual(r, se))) < 1e-6


def test_voltage_rate_sympy_oracle():
    # independent evaluation of the closed form at N=12, r=1/2
    N = sympy.Integer(12)
    expo = -N / 2 + 1 + sympy.sqrt(N ** 2 - 12 * N + 20) / 2
    expected = (sympy.Rational(1, 2) ** expo - 1) / (2 * N - 4)
    rate = extremal_voltage_rate(EXP, 12.0)
    assert rate.value(0.5) == pytest.approx(float(expected), rel=1e-14)
    assert rate.value(0.5) > 0


def test_voltage_rate_dimension_thresholds():
    with pytest.raises(DomainValidationError):
        extremal_voltage_rate(EXP, 9.99)
    with pytest.raises(DomainValidationError):
        extremal_voltage_rate(MEMS, 7.9)
    for F in (EXP, MEMS):
        for N in (math.nan, math.inf):
            with pytest.raises(DomainValidationError):
                extremal_voltage_rate(F, N)
    with pytest.raises(DomainValidationError, match="no voltage rate profile"):
        extremal_voltage_rate(power_growth(2.0), 12.0)


def test_the_singular_point_meets_the_closed_forms():
    # λ_s = e^(y*) = q*c in N(α), times the voltage factor, is the explicit
    # singular extremal's λ* = 2N - 4 or (2 + α)(3N + α - 4)/9
    a8, a9 = alpha_critical_mems(8.0), alpha_critical_mems(9.0)
    for F, N, alpha in ((EXP, 10.0, 0.0), (EXP, 12.0, 0.0), (MEMS, 8.0, 0.0),
                        (MEMS, 8.0, a8 / 2.0), (MEMS, 9.0, a9 / 2.0), (MEMS, 12.0, 1.0)):
        tr = dim_transform(N, alpha)
        q_star, c, _, _ = F.scaling_law().singular_point(tr.N_eff)
        assert q_star * c * tr.voltage_factor == pytest.approx(
            singular_extremal(F, N, alpha).lambda_star, rel=1e-14, abs=0.0)
    # the discriminant vanishes at the critical dimensions, which are singular
    assert EXP.scaling_law().singular_point(REGULAR_CRITICAL_DIMENSION)[3] == 0.0
    assert MEMS.scaling_law().singular_point(MEMS_CRITICAL_DIMENSION)[3] == 0.0
    # the rate's decay and amplitude are the paper's closed forms
    for F, N in ((MEMS, 8.0), (MEMS, 9.0), (MEMS, 10.0), (EXP, 10.0), (EXP, 11.0), (EXP, 12.0)):
        rate = extremal_voltage_rate(F, N)
        if F is EXP:
            decay = (N - 2.0) / 2.0 - math.sqrt(N * N - 12.0 * N + 20.0) / 2.0
            amplitude, source_power = 1.0 / (2.0 * N - 4.0), 0.0
        else:
            decay = (N - 2.0) / 2.0 - math.sqrt(9.0 * N * N - 84.0 * N + 100.0) / 6.0
            amplitude, source_power = 3.0 / (6.0 * N - 8.0), 2.0 / 3.0
        assert rate.decay == pytest.approx(decay, rel=1e-14, abs=0.0)
        assert rate.amplitude == pytest.approx(amplitude, rel=1e-14, abs=0.0)
        assert rate.source_power == source_power


def test_envelope_ordering_and_limits():
    r = np.geomspace(0.01, 1.0, 80)
    for F, N in ((EXP, 10.0), (MEMS, 9.0)):
        lam_star = singular_extremal(F, N).lambda_star
        for frac in (0.1, 0.5, 0.9, 0.999):
            env = asymptotic_envelopes(F, N, frac * lam_star)
            assert np.all(env.lower(r) <= env.upper(r) + 1e-12)
        # both envelopes collapse onto the extremal at pull-in; the rate
        # profile blows up near the center, so test away from it
        env = asymptotic_envelopes(F, N, lam_star * (1.0 - 1e-12))
        r_mid = np.linspace(0.3, 1.0, 40)
        ustar = env.extremal.value(r_mid)
        assert np.max(np.abs(env.upper(r_mid) - ustar)) < 1e-8
        assert np.max(np.abs(env.lower(r_mid) - np.maximum(ustar, 0.0))) < 1e-8


def test_envelope_upper_vanishes_at_zero_voltage():
    env = asymptotic_envelopes(MEMS, 9.0, 1e-12)
    r = np.geomspace(0.01, 1.0, 50)
    assert np.max(env.upper(r)) < 1e-3


def test_envelope_validation():
    lam_star = 46.0 / 9.0
    with pytest.raises(DomainValidationError):
        asymptotic_envelopes(MEMS, 9.0, lam_star)
    with pytest.raises(DomainValidationError):
        asymptotic_envelopes(MEMS, 7.0, 1.0)  # classical regime
    with pytest.raises(DomainValidationError):
        asymptotic_envelopes(EXP, 9.0, 1.0)

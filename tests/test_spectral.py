import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jn_zeros

import pullin
from pullin import (BracketError, DomainValidationError, exponential,
                    lambda1_ball, mems_inverse_power, mu1, profile_weight_ratio,
                    shoot)
from pullin.branch import RadialSolution


def _j0(x):
    # Bessel J0 by its power series; converges fast for |x| < 4
    term = 1.0
    total = 1.0
    for k in range(1, 40):
        term *= -(x * x / 4.0) / (k * k)
        total += term
        if abs(term) < 1e-18:
            break
    return total


def _first_j0_zero():
    lo, hi = 2.0, 3.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_principal_eigenvalue_dimension_1():
    # cos(pi r / 2) on the interval-ball
    assert lambda1_ball(1.0).eigenvalue == pytest.approx(math.pi ** 2 / 4.0, abs=1e-8)


def test_principal_eigenvalue_dimension_3():
    # sin(pi r)/r
    assert lambda1_ball(3.0).eigenvalue == pytest.approx(math.pi ** 2, abs=1e-8)


def test_principal_eigenvalue_dimension_2_bessel_oracle():
    # square of the first zero of J0, located by an independent series bisection
    j01 = _first_j0_zero()
    assert j01 == pytest.approx(2.404825557695773, abs=1e-12)
    assert lambda1_ball(2.0).eigenvalue == pytest.approx(j01 ** 2, abs=1e-7)


def test_eigenvalue_monotone_in_dimension():
    values = [lambda1_ball(N, tol=1e-8).eigenvalue for N in np.arange(1.0, 12.01, 0.5)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_eigenfunction_shape_and_normalization():
    pair = lambda1_ball(2.0)
    assert pair.psi[0] == pytest.approx(1.0)
    assert pair.psi[-1] == pytest.approx(0.0, abs=1e-9)
    assert np.all(pair.psi[:-1] > 0)
    # the reported factor makes the ball integral of c*psi equal 1
    r, psi = pair.r, pair.psi
    radial = np.trapezoid(r * psi, r)
    total = pair.normalization * 2.0 * math.pi * radial
    assert total == pytest.approx(1.0, abs=1e-6)


def test_weight_ratio_constant_weight_is_one():
    assert profile_weight_ratio(2.0, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert profile_weight_ratio(3.7, 0.0) == pytest.approx(1.0, abs=1e-10)


def test_weight_ratio_bessel_oracle():
    # for N=2 the eigenfunction is J0(j01 r); compare moment ratio directly
    j01 = _first_j0_zero()
    num, _ = quad(lambda r: r ** 3 * _j0(j01 * r), 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    den, _ = quad(lambda r: r * _j0(j01 * r), 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    val = profile_weight_ratio(2.0, 2.0)
    assert 0.0 < val < 1.0
    assert val == pytest.approx(num / den, abs=1e-8)


def test_weight_ratio_decreases_with_alpha():
    vals = [profile_weight_ratio(2.0, a) for a in (0.5, 1.0, 2.0, 5.0, 20.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.1  # weight concentrates where the eigenfunction vanishes


def test_weight_ratio_quadrature_convergence():
    a = profile_weight_ratio(2.0, 2.0, tol=1e-10)
    b = profile_weight_ratio(2.0, 2.0, tol=1e-12)
    assert abs(a - b) < 1e-8


def test_weight_ratio_rejects_non_integrable():
    with pytest.raises(DomainValidationError):
        profile_weight_ratio(1.0, -1.0)


def _zero_solution():
    r = np.linspace(0.0, 1.0, 33)
    return RadialSolution(r, np.zeros_like(r), 0.0, 0.0, 2.0)


def test_mu1_vanishing_potential_recovers_laplacian():
    F = mems_inverse_power(2.0)
    val = mu1(2.0, F, 1e-10, _zero_solution(), tol=1e-9)
    assert val == pytest.approx(lambda1_ball(2.0).eigenvalue, abs=1e-6)


def test_mu1_small_voltage_shift():
    # first-order shift: mu1 ~ lambda1 - lam * F'(0) * <psi^2-weighted mean ~ O(lam)>
    F = mems_inverse_power(2.0)
    lam = 1e-4
    sol = pullin.minimal_solution(
        pullin.ProblemSpec(2.0, F), lam,
        pullin.solve_branch(pullin.ProblemSpec(2.0, F),
                            np.geomspace(1e-6, 0.5, 40)))
    val = mu1(2.0, F, lam, sol)
    lam1 = lambda1_ball(2.0).eigenvalue
    assert lam1 - 3.0 * lam < val < lam1


def test_mu1_overflow_guard():
    F = mems_inverse_power(2.0)
    r = np.linspace(0.0, 1.0, 33)
    u = np.clip(0.999999 * (1.0 - r ** 2), 0.0, None)
    huge = RadialSolution(r, u, 0.999999, 1.0, 2.0)
    with pytest.raises(BracketError):
        mu1(2.0, F, 1e3, huge)


def test_principal_eigenvalue_meets_its_default_tolerance():
    refs = {1.0: math.pi ** 2 / 4.0, 2.0: _first_j0_zero() ** 2, 3.0: math.pi ** 2}
    for N, ref in refs.items():
        assert abs(lambda1_ball(N).eigenvalue - ref) <= 1e-10


def test_eigenpair_evaluates_the_shot_inside_the_seed_radius():
    # N=3: psi = sin(pi r) / (pi r)
    pair = lambda1_ball(3.0)
    r = np.array([0.0, 1e-4, 1e-2, 0.3, 0.7, 1.0])
    exact = np.sinc(r)
    assert pair.at(r) == pytest.approx(exact, abs=1e-9)
    assert pair.at(0.3) == pytest.approx(float(np.sinc(0.3)), abs=1e-9)


def test_mu1_vanishes_at_the_closed_form_disc_fold():
    # u = 2 log(2 / (1 + r^2)) solves -Δu = 2 e^u on the disc: the fold
    m = 2.0 * math.log(2.0)
    r = np.linspace(0.0, 1.0, 33)
    fold = RadialSolution(r, 2.0 * np.log(2.0 / (1.0 + r * r)), m, 2.0, 2.0)
    assert abs(mu1(2.0, exponential(), 2.0, fold, tol=1e-8)) <= 1e-8


@pytest.mark.parametrize("m", [0.2, 0.6876])  # stable, unstable
@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_mu1_delivers_its_tolerance(m, tol):
    F = mems_inverse_power(2.0)
    u = shoot(F, 2.0, m).solution()
    ref = mu1(2.0, F, u.lam, u, tol=1e-12)
    assert (ref > 0) == (m < 0.445)
    assert abs(mu1(2.0, F, u.lam, u, tol=tol) - ref) <= tol * max(1.0, abs(ref))


def test_mu1_reads_only_center_value_and_voltage():
    F = mems_inverse_power(2.0)
    u = shoot(F, 2.0, 0.3).solution()
    r = np.linspace(0.0, 1.0, 5)
    coarse = RadialSolution(r, np.zeros_like(r), u.m, u.lam, 2.0)
    assert mu1(2.0, F, u.lam, coarse) == mu1(2.0, F, u.lam, u)


@pytest.mark.parametrize("mu", [50.0, 2000.0, 20000.0])
def test_eigen_shot_counts_every_zero(mu):
    # λ = 0, N = 2: psi = J0(sqrt(mu) r), whose zeros in (0, 1] are the
    # Bessel zeros below sqrt(mu)
    zeros, _, _ = pullin.spectral._shoot_mode(2.0, exponential(), 0.0, 0.0, mu, 1e-7)
    assert zeros == int(np.sum(jn_zeros(0, 60) < math.sqrt(mu)))

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jn_zeros

import pullin
from pullin import (BracketError, DomainValidationError, exponential,
                    lambda1_ball, mems_inverse_power, mu1, shoot)
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
    values = [lambda1_ball(N).eigenvalue for N in np.arange(1.0, 12.01, 0.5)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_eigenfunction_shape_and_normalization():
    pair = lambda1_ball(2.0)
    r = np.linspace(0.0, 1.0, 1025)
    psi = pair.at(r)
    assert pair.at(0.0) == pytest.approx(1.0)
    assert pair.at(1.0) == pytest.approx(0.0, abs=1e-9)
    assert np.all(psi[:-1] > 0)
    # the reported factor makes the ball integral of c*psi equal 1
    radial = np.trapezoid(r * psi, r)
    total = pair.normalization * 2.0 * math.pi * radial
    assert total == pytest.approx(1.0, abs=1e-6)


def test_weight_ratio_constant_weight_is_one():
    assert lambda1_ball(2.0).weight_ratio(0.0) == pytest.approx(1.0, abs=1e-10)
    assert lambda1_ball(3.7).weight_ratio(0.0) == pytest.approx(1.0, abs=1e-10)


def test_weight_ratio_bessel_oracle():
    # for N=2 the eigenfunction is J0(j01 r); compare moment ratio directly
    j01 = _first_j0_zero()
    num, _ = quad(lambda r: r ** 3 * _j0(j01 * r), 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    den, _ = quad(lambda r: r * _j0(j01 * r), 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    val = lambda1_ball(2.0).weight_ratio(2.0)
    assert 0.0 < val < 1.0
    assert val == pytest.approx(num / den, abs=1e-8)


def test_weight_ratio_decreases_with_alpha():
    pair = lambda1_ball(2.0)
    vals = [pair.weight_ratio(a) for a in (0.5, 1.0, 2.0, 5.0, 20.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.1  # weight concentrates where the eigenfunction vanishes


def test_weight_ratio_rejects_non_integrable():
    with pytest.raises(DomainValidationError):
        lambda1_ball(1.0).weight_ratio(-1.0)


def _zero_solution():
    return RadialSolution(0.0, 0.0, 2.0, _evaluate=np.zeros_like)


def test_mu1_vanishing_potential_recovers_laplacian():
    # λ ≈ 5.8e-10 at center value 1e-10, so the potential λF'(u) nearly vanishes
    F = mems_inverse_power(2.0)
    u = shoot(F, 2.0, 1e-10).solution()
    val = mu1(2.0, F, u.lam, u, tol=1e-9)
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
    huge = RadialSolution(0.999999, 1.0, 2.0,
                          _evaluate=lambda r: 0.999999 * (1.0 - np.square(r)))
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
    fold = RadialSolution(m, 2.0, 2.0,
                          _evaluate=lambda r: 2.0 * np.log(2.0 / (1.0 + np.square(r))))
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
    coarse = RadialSolution(u.m, u.lam, 2.0, _evaluate=np.zeros_like)
    assert mu1(2.0, F, u.lam, coarse) == mu1(2.0, F, u.lam, u)


def _left_run(F, m, nu, rtol):
    # the left half-run at the shift ν all the way to τ = 1: (zeros, z(R))
    start = pullin.spectral._center_start(2.0, F, m, nu, rtol)
    zeros, (_, _, end, *_) = pullin.spectral._half_run(2.0, F, m, nu, start, 1.0, rtol)
    return zeros, end


@pytest.mark.parametrize("mu", [50.0, 2000.0, 20000.0])
def test_eigen_shot_counts_every_zero(mu):
    # N = 2 at small m: the potential λF'(u) ~ λ is far below mu, so
    # psi ~ J0(sqrt(mu) r), whose zeros in (0, 1] are the Bessel zeros
    # below sqrt(mu)
    expected = int(np.sum(jn_zeros(0, 60) < math.sqrt(mu)))
    for F in (exponential(), mems_inverse_power(2.0)):
        for m in (1e-6, 1e-3):
            lam = shoot(F, 2.0, m).lam
            zeros, _ = _left_run(F, m, mu / lam, 1e-7)
            assert zeros == expected


@pytest.mark.parametrize("F, m", [(mems_inverse_power(2.0), 0.2),
                                  (mems_inverse_power(2.0), 0.8),
                                  (exponential(), 1.0), (exponential(), 3.0)])
def test_eigen_shot_at_zero_is_the_shot_tangent(F, m):
    # at μ = 0 the eigen-shot is the tangent z = ∂w/∂m of the shot, so
    # dλ/dm = 2R (-z(R)/w'(R)) gives z(R) on both sides of the fold
    sr = shoot(F, 2.0, m)
    dw = float(sr._rows(sr.first_zero)[1])
    _, end = _left_run(F, m, 0.0, 1e-10)
    assert end == pytest.approx(-dw * sr.dlam_dm / (2.0 * sr.first_zero), rel=1e-8)


def test_mu1_at_zero_center_value_is_the_shifted_laplacian():
    # the only solution with center value 0 is u ≡ 0 at λ = 0, where the
    # linearized operator is the Laplacian itself; a voltage > 0 has none
    F = mems_inverse_power(2.0)
    lam1 = lambda1_ball(2.0).eigenvalue
    assert mu1(2.0, F, 0.0, _zero_solution()) == lam1
    with pytest.raises(DomainValidationError, match="center value 0"):
        mu1(2.0, F, 0.3, _zero_solution())
    with pytest.raises(DomainValidationError):
        mu1(2.0, F, 0.0, RadialSolution(0.3, 0.0, 2.0, _evaluate=np.zeros_like))


@pytest.mark.parametrize("N", [1.0, 1.2, 1.5, 2.7, 4.5, 10.0])
def test_lambda1_is_the_square_of_the_first_bessel_zero(N):
    # λ₁ = j²_{ν,1}, ν = N/2 - 1; mpmath's besseljzero needs ν >= 0
    with mpmath.workdps(30):
        nu = mpmath.mpf(N) / 2 - 1
        j = (mpmath.besseljzero(nu, 1) if nu >= 0
             else mpmath.findroot(lambda x: mpmath.besselj(nu, x), 2.0))
        ref = float(j * j)
    assert abs(lambda1_ball(N).eigenvalue - ref) <= 1e-13 * ref


@pytest.mark.parametrize("N", [1.0, 1.5, 5.0])
def test_ball_eigenfunction_normalization_and_bessel_form(N):
    pair = lambda1_ball(N)
    nu, j = N / 2.0 - 1.0, math.sqrt(pair.eigenvalue)
    moment, _ = quad(lambda r: r ** (N - 1.0) * pair.at(r), 0.0, 1.0,
                     epsabs=0.0, epsrel=1e-13)
    assert pair.normalization * N * pullin.volume_unit_ball(N) * moment == \
        pytest.approx(1.0, rel=1e-12)
    for r in (0.0, 1e-9, 0.2, 0.8):
        x = mpmath.mpf(j * r)
        ref = 1.0 if r == 0.0 else float(
            mpmath.gamma(nu + 1) * (2 / x) ** nu * mpmath.besselj(nu, x))
        assert pair.at(r) == pytest.approx(ref, rel=1e-13, abs=1e-15)


def _count_half_runs(monkeypatch):
    from pullin import spectral
    calls = []
    half_run = spectral._half_run

    def counted(*args, **kwargs):
        calls.append(args[3])  # the shift ν of the run
        return half_run(*args, **kwargs)

    monkeypatch.setattr(spectral, "_half_run", counted)
    return calls


@pytest.mark.parametrize("tol, most", [(1e-6, 3), (1e-8, 3)])
def test_mu1_starts_from_the_rayleigh_bracket(monkeypatch, tol, most):
    # Newton steps from the upper Rayleigh bound λ₁ - λF'(0); each is two
    # half-runs, after the one profile run
    F = mems_inverse_power(2.0)
    u = shoot(F, 2.0, 0.2).solution()
    calls = _count_half_runs(monkeypatch)
    assert mu1(2.0, F, u.lam, u, tol=tol) > 0
    assert len(calls) <= 1 + 2 * most


def test_mu1_on_the_unstable_side_takes_few_newton_steps(monkeypatch):
    # μ₁ ≈ -10.6: ψ(1; μ) grows like e^√|μ| below μ₁, the mismatch angle
    # does not, so Newton needs few steps
    F = mems_inverse_power(2.0)
    u = shoot(F, 2.0, 0.6876).solution()
    calls = _count_half_runs(monkeypatch)
    assert mu1(2.0, F, u.lam, u, tol=1e-6) < 0
    assert len(calls) <= 1 + 2 * 5


@pytest.mark.parametrize("m", [17.34, 20.2])
def test_mu1_next_to_the_potential_guard(monkeypatch, m):
    # exp disc far past the fold: λF'(m) is 4.7e4 and 1.9e5 (the guard is
    # 2e5), μ₁ about -1.5e4 and -6.2e4
    from pullin import spectral
    F = exponential()
    u = shoot(F, 2.0, m).solution()
    ref = mu1(2.0, F, u.lam, u, tol=1e-11)
    evals = []
    ivp = spectral.solve_ivp

    def counted(*args, **kwargs):
        sol = ivp(*args, **kwargs)
        evals.append(sol.nfev)
        return sol

    monkeypatch.setattr(spectral, "solve_ivp", counted)
    assert abs(mu1(2.0, F, u.lam, u, tol=1e-6) - ref) <= 1e-6 * abs(ref)
    if m == 17.34:
        assert sum(evals) <= 10_000


def test_mu1_refuses_a_voltage_that_is_not_the_solutions():
    # the inverse-square disc solution at m = 0.3 has λ = 0.72028
    F = mems_inverse_power(2.0)
    u = shoot(F, 2.0, 0.3).solution()
    for lam in (0.6, 0.7, 0.75):
        with pytest.raises(DomainValidationError, match=rf"voltage {lam} .*R² = 0\.7202"):
            mu1(2.0, F, lam, u)


def test_lambda1_in_high_dimension_is_the_closed_form():
    pair = lambda1_ball(300.0)
    with mpmath.workdps(30):
        j = mpmath.besseljzero(149, 1)
        ref = float(j ** 2)
        moment = mpmath.hyp0f1(151, -j ** 2 / 4)
        ref_c = float(1 / (mpmath.pi ** 150 / mpmath.factorial(150) * moment))
    assert abs(pair.eigenvalue - ref) <= 1e-13 * ref
    assert pair.normalization == pytest.approx(ref_c, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("N", [330.0, 340.0])
def test_lambda1_normalization_at_large_dimension(N):
    # the normalization (j/(2π))^(ν+1) / J_(ν+1)(j); scipy's hyp0f1 form of
    # the same number is off by 1.4e-4 at N = 330 and 0 at N = 340
    pair = lambda1_ball(N)
    with mpmath.workdps(30):
        nu = mpmath.mpf(N) / 2 - 1
        j = mpmath.besseljzero(nu, 1)
        moment = mpmath.hyp0f1(nu + 2, -j ** 2 / 4)
        ref_c = float(mpmath.gamma(nu + 2) / (mpmath.pi ** (nu + 1) * moment))
    assert pair.eigenvalue == pytest.approx(float(j ** 2), rel=1e-13)
    assert pair.normalization == pytest.approx(ref_c, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("N, quantity", [(342.0, "Gamma"), (400.0, "Gamma")])
def test_lambda1_names_what_fails_at_large_dimension(N, quantity):
    # Γ(N/2 + 1) of the ball volume overflows from N = 342 on
    with pytest.raises(DomainValidationError, match=quantity):
        lambda1_ball(N)


def test_equal_dimensions_give_equal_eigenpairs():
    assert lambda1_ball(2.0) == lambda1_ball(2.0)
    assert lambda1_ball(2.0) != lambda1_ball(3.0)


@pytest.mark.parametrize("N", [176.0, 200.0, 300.0, 320.0])
def test_ball_eigenfunction_near_the_center_in_high_dimension(N):
    # scipy's hyp0f1(b, z) is NaN or inf for b >= 88 and -0.35 < z < 0,
    # which is where r ~ 1e-3 lands for these N
    pair = lambda1_ball(N)
    radii = [0.0, 1e-9, 2e-4, 5e-4, 1e-3, 3e-3, 0.2, 0.8]
    with mpmath.workdps(30):
        b, j = mpmath.mpf(N) / 2, mpmath.sqrt(mpmath.mpf(pair.eigenvalue))
        refs = [float(mpmath.hyp0f1(b, -(j * r) ** 2 / 4)) for r in radii]
    for r, ref in zip(radii, refs):
        assert pair.at(r) == pytest.approx(ref, rel=1e-13, abs=0.0)
    # arrays take the same arithmetic as the Python floats of the quadratures
    assert np.array_equal(pair.at(np.array(radii)), [pair.at(r) for r in radii])

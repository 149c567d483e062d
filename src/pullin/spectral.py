"""Radial Sturm-Liouville problems in real dimension N.

The principal Dirichlet eigenpair of the Laplacian on the unit ball is in
closed form: λ₁ = j²_{ν,1}, the square of the first zero of the Bessel
function J_ν with ν = N/2 - 1, and psi(r) = Γ(ν+1) (2/(j r))^ν J_ν(j r)
(Watson, *Bessel Functions*, §15); its eigenfunction weight integrals are
quadratures of that evaluator.  The principal eigenvalue of the linearized
operator -Δ - λ F'(u) that decides stability of a solution branch has no
closed form: every eigen-shot integrates the profile u together with the
trial eigenfunction psi in one DOP853 run, so the potential λF'(u) is exact
to the integrator tolerance.  The principal mode is pinned down by counting
interior zeros of the shot eigenfunction (Sturm), so a poor initial bracket
can never silently return a higher mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
from scipy.special import gammaln, hyp0f1, jv

from .errors import BracketError, DomainValidationError, QuadratureError
from .geometry import volume_unit_ball
from .nonlinearity import Nonlinearity
from .radial import center_series, radial_rhs, series_state

_MAX_POTENTIAL = 2e5  # beyond this the shot eigenfunction overflows double range
# eigen-shots run at rtol = _SHOT_RTOL * tol; at rtol = tol the integrator
# error alone moves λ₁(N=3) by 1.35e-10, past a tol of 1e-10
_SHOT_RTOL = 0.1
# relative widening of the Rayleigh bounds on μ₁, which meet at m = 0
_RAYLEIGH_MARGIN = 1e-6


@dataclass
class EigenPair:
    """Principal eigenvalue and radial eigenfunction psi on [0, 1].

    psi is normalized by psi(0) = 1.  `normalization` is the factor c such
    that the rescaled eigenfunction c*psi has unit integral over the ball.
    """

    eigenvalue: float
    dimension: float
    normalization: float
    _psi_at: Callable = field(repr=False, compare=False)

    def at(self, r):
        """psi at radius r in [0, 1] (a float for scalar r)."""
        return self._psi_at(r)

    def weight_ratio(self, alpha: float) -> float:
        """Mean of |x|^alpha against the normalized eigenfunction c*psi.

        Equals the ratio of the radial integrals of r^(N-1+alpha) psi and
        r^(N-1) psi; the ball-volume factors cancel, so fractional N needs no
        special casing.  Requires N + alpha > 0 for integrability.
        """
        N = self.dimension
        if alpha <= -N:
            raise DomainValidationError(
                f"weight exponent alpha={alpha} not integrable in dimension {N}")
        moment = _radial_moment(self._psi_at, N - 1.0 + alpha)
        return moment * N * volume_unit_ball(N) * self.normalization


def _radial_moment(psi_at: Callable, power: float) -> float:
    """Integral of r^power psi(r) over [0, 1]."""
    # substitute s = r^(power+1) so the weight becomes constant
    k = power + 1.0
    val, err = quad(lambda s: psi_at(s ** (1.0 / k)), 0.0, 1.0,
                    epsabs=0.0, epsrel=1e-11, limit=200)
    if not np.isfinite(val):
        raise QuadratureError(f"weight integral diverged for power {power}")
    return val / k


def _shoot_mode(N: float, F: Nonlinearity, lam: float, m: float, mu: float,
                rtol: float):
    """Integrate the profile and the trial eigenfunction on [0, 1]:

        u'' + (N-1)/r u' + λ F(u) = 0,                   u(0) = m,
        psi'' + (N-1)/r psi' + (μ + λ F'(u)) psi = 0,    psi(0) = 1,

    from their center series in s = r².  Returns (number of zeros of psi in
    (0, 1], psi(1)).  The zeros are the sign changes of psi between accepted
    steps: at these tolerances a step spans a small fraction of a half-wave
    of psi, so none is missed.
    """
    a, b = center_series(F, N, 2.0, m, lam, mu)
    # each term j of both series at most rtol^(j/3), for u relative to
    # max(m, 1) so that m = 0 is allowed: the terms then fall off
    # geometrically and the remainder is below rtol
    s = 0.01
    for j, (aj, bj) in enumerate(zip(a, b), 1):
        size = max(abs(aj) / max(m, 1.0), abs(bj))
        if size > 0.0:
            s = min(s, rtol ** (1.0 / 3.0) / size ** (1.0 / j))
    eps = math.sqrt(s)
    y0 = series_state(a, m, s, 2.0, eps) + series_state(b, 1.0, s, 2.0, eps)

    sol = solve_ivp(radial_rhs(F, N, lam, mu), (eps, 1.0), y0, method="DOP853",
                    rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise BracketError(f"eigen shot failed at mu={mu}: {sol.message}")
    psi = sol.y[2]
    zeros = int(np.count_nonzero(np.signbit(psi[1:]) != np.signbit(psi[:-1])))
    return zeros, float(psi[-1])


def _principal_eigenvalue(N: float, F: Nonlinearity, lam: float, m: float,
                          lo: float, hi: float, tol: float):
    """Smallest mu with psi(1; mu) = 0, from the trial bracket [lo, hi].

    The shots check both ends, which may have either sign: lo moves down by
    |lo| + 1 until its shot has no interior zero and psi(1) > 0, hi moves
    up by |hi| + 1 until it has not.  Bisection then lowers hi until its
    shot has exactly one interior zero, which puts hi in (mu_1, mu_2]:
    there psi(1; mu) has mu_1 as its only root, and brentq finds it to
    within tol * max(1, |mu_1|).  From the Rayleigh bracket of `mu1` the
    checks cost one shot per end.
    """
    rtol = _SHOT_RTOL * tol
    shots = {}

    def shot(mu):
        if mu not in shots:
            shots[mu] = _shoot_mode(N, F, lam, m, mu, rtol)
        return shots[mu]

    def below(mu) -> bool:
        # True when mu is below the principal eigenvalue.
        zeros, end = shot(mu)
        return zeros == 0 and end > 0.0

    for _ in range(80):
        if below(lo):
            break
        lo -= abs(lo) + 1.0
    else:
        raise BracketError("could not find a lower eigenvalue bracket")
    for _ in range(80):
        if not below(hi):
            break
        hi += abs(hi) + 1.0
    else:
        raise BracketError("could not find an upper eigenvalue bracket")
    for _ in range(200):
        if shot(hi)[0] <= 1:
            break
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    else:
        raise BracketError("could not separate the principal eigenvalue")

    return brentq(lambda mu: shot(mu)[1], lo, hi, xtol=0.5 * tol, rtol=0.5 * tol)


def _first_bessel_zero(nu: float) -> float:
    """First positive zero j_{ν,1} of J_ν, for ν >= -1/2.

    J_ν is positive on (0, j_{ν,1}) and j_{ν,1} > ν + 1, so unit steps up
    from max(1, ν + 1) meet the first sign change; consecutive zeros lie
    more than 3 apart, so no step skips one."""
    lo = max(1.0, nu + 1.0)
    while jv(nu, lo + 1.0) > 0.0:
        lo += 1.0
    return brentq(lambda x: jv(nu, x), lo, lo + 1.0, xtol=1e-15)


def _ball_eigenfunction(nu: float, j: float) -> Callable:
    """Evaluator of psi(r) = Γ(ν+1) (2/(j r))^ν J_ν(j r) = ₀F₁(; ν+1; z),
    z = -(j r)²/4 (DLMF 10.16.9), psi(0) = 1, for scalar or array r.  The
    ₀F₁ form needs no limit at r = 0 and cannot overflow for large ν.

    For |z| <= 1 it sums the series Σ zᵏ / ((ν+1)ₖ k!) to k = 13 by Horner
    steps (the next term is below 1e-20 for ν >= -1/2), where scipy's
    hyp0f1 is NaN or inf for large ν (from N = 176 on, near r = 2e-4);
    scipy's hyp0f1 takes z < -1.  The quadratures call it with Python
    floats, which skip numpy altogether.
    """
    b = nu + 1.0
    factors = tuple(1.0 / ((b + k - 1.0) * k) for k in range(13, 0, -1))
    q = -0.25 * j * j

    def series(z):
        out = 1.0
        for c in factors:
            out = 1.0 + c * z * out
        return out

    def at(r):
        if isinstance(r, float):
            z = q * (r * r)
            return series(z) if z >= -1.0 else float(hyp0f1(b, z))
        z = q * np.square(np.asarray(r, dtype=float))
        out = np.where(z >= -1.0, series(z), hyp0f1(b, np.minimum(z, -1.0)))
        return float(out) if out.ndim == 0 else out

    return at


def lambda1_ball(N: float) -> EigenPair:
    """Principal Dirichlet eigenpair of -Δ on the unit ball in dimension N.

    λ₁ = j²_{ν,1} with ν = N/2 - 1, the first Bessel zero found by brentq
    on J_ν to rounding level; the eigenfunction and its normalization are
    closed forms too.  Reference points: N=1 gives pi^2/4, N=2 the square
    of the first zero of the Bessel function J0, N=3 gives pi^2.
    """
    if N < 1:
        raise DomainValidationError(f"dimension must be >= 1, got {N}")
    nu = N / 2.0 - 1.0
    j = _first_bessel_zero(nu)
    # ∫₀¹ r^(N-1) psi dr = Γ(ν+1) (2/j)^ν J_{ν+1}(j) / j = ₀F₁(; ν+2; -j²/4) / N
    volume = volume_unit_ball(N)
    moment = float(hyp0f1(nu + 2.0, -0.25 * j * j))
    # scipy's hyp0f1 loses accuracy at large b (1e-11 at N = 324, 0 from
    # N = 333 on); the Bessel form in logarithms stays within 3e-13
    bessel_form = math.exp(gammaln(nu + 2.0) + (nu + 1.0) * math.log(2.0 / j)
                           + math.log(jv(nu + 1.0, j)))
    if not abs(moment - bessel_form) <= 1e-10 * bessel_form:
        raise DomainValidationError(
            f"scipy's hyp0f1 misses the normalization 0F1(; nu+2; -j^2/4) "
            f"of the ball eigenfunction at N={N:g} (relative error "
            f"{abs(moment / bessel_form - 1.0):.1e} against J_(nu+1))")
    return EigenPair(j * j, N, 1.0 / (volume * moment), _ball_eigenfunction(nu, j))


def mu1(N: float, F: Nonlinearity, lam: float, u, tol: float = 1e-8) -> float:
    """Principal eigenvalue of the linearized operator -Δ - λ F'(u), to within
    tol * max(1, |mu1|).

    Reads only the center value `u.m` of the solution (a `RadialSolution`,
    a `ShootResult` or a `BranchPoint`) and `lam`: the profile is integrated
    again together with each trial eigenfunction, so the potential λF'(u)
    is exact to the integrator tolerance.  Positive on the stable branch,
    zero at the fold, negative beyond it.  The search starts from the
    Rayleigh bracket λ₁ - λF'(m) < μ₁ < λ₁ - λF'(0) (Courant-Hilbert,
    *Methods of Mathematical Physics* I, ch. VI).
    """
    if lam < 0:
        raise DomainValidationError(f"voltage must be nonnegative, got {lam}")
    # the profile decreases from its center value, and so does the potential
    q_max = lam * float(F.deriv(u.m))
    if q_max > _MAX_POTENTIAL:
        raise BracketError(
            f"linearization potential {q_max:.3g} exceeds {_MAX_POTENTIAL:.0g}; "
            "the shot eigenfunction would overflow")
    # Rayleigh: λ₁ - max V < μ₁ < λ₁ - min V for the potential V = λF'(u),
    # strict but tight as m -> 0, hence the margin
    lam1 = _first_bessel_zero(N / 2.0 - 1.0) ** 2
    lo, hi = lam1 - q_max, lam1 - lam * float(F.deriv(0.0))
    margin = _RAYLEIGH_MARGIN * max(abs(lo), abs(hi), 1.0)
    return _principal_eigenvalue(N, F, lam, u.m, lo - margin, hi + margin, tol)

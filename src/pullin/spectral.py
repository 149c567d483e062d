"""Radial Sturm-Liouville problems in real dimension N.

The principal Dirichlet eigenpair of the Laplacian on the unit ball is in
closed form: λ₁ = j²_{ν,1}, the square of the first zero of the Bessel
function J_ν with ν = N/2 - 1, and psi(r) = Γ(ν+1) (2/(j r))^ν J_ν(j r)
(Watson, *Bessel Functions*, §15); its eigenfunction weight integrals are
quadratures of that evaluator.  The principal eigenvalue of the linearized
operator -Δ - λ F'(u) that decides stability of a solution branch has no
closed form: every eigen-shot is a one-lane run of the radial shooting core
(`pullin.radial`), whose tangent equation with the shift μ/λ is the
eigen-equation, so the potential λF'(u) is exact to the integrator
tolerance.  The principal mode is pinned down by counting interior zeros
of the shot eigenfunction (Sturm), so a poor initial bracket can never
silently return a higher mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
from scipy.special import hyp0f1, jv

from .errors import BracketError, DomainValidationError, QuadratureError
from .geometry import volume_unit_ball
from .nonlinearity import Nonlinearity
from .radial import lane_rhs, lane_seed

_MAX_POTENTIAL = 2e5  # beyond this the shot eigenfunction overflows double range
# eigen-shots run at rtol = _SHOT_RTOL * tol; at rtol = tol the shots alone
# move μ₁ by up to 0.64 tol, at tol / 10 by 0.14 tol
_SHOT_RTOL = 0.1
# relative widening of the Rayleigh bounds on μ₁, which meet as m -> 0
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
    """Shoot the trial eigenfunction psi of -Δ - λF'(u) at the trial
    eigenvalue μ, for the solution u(r) = w(Rr) at center value m.

    This is a one-lane run of the radial core with the shift ν = μ/λ:

        z'' + (N-1)/ρ z' + (ν + F'(w)) z = 0,    z(0) = 1,

    on [0, R], and psi(r) = z(Rr) when λ = R².  Returns (number of zeros of
    psi in (0, 1], psi(1)).  The zeros are the sign changes of z between
    accepted steps: at these tolerances a step spans a small fraction of a
    half-wave of z, so none is missed.
    """
    ms = np.array([m])
    nu = mu / lam
    tau0, y0, *_ = lane_seed(F, N, ms, rtol, nu=nu)
    sol = solve_ivp(lane_rhs(F, N, ms, nu=nu), (tau0, 1.0), y0, method="DOP853",
                    rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise BracketError(f"eigen shot failed at mu={mu}: {sol.message}")
    z = sol.y[2]
    zeros = int(np.count_nonzero(np.signbit(z[1:]) != np.signbit(z[:-1])))
    return zeros, float(z[-1])


def _principal_eigenvalue(N: float, F: Nonlinearity, lam: float, m: float,
                          lo: float, hi: float, tol: float):
    """Smallest mu with psi(1; mu) = 0, from the bracket [lo, hi].

    One shot checks each end: lo must have no interior zero and psi(1) > 0,
    hi must not, or BracketError is raised.  Bisection then lowers hi until
    its shot has exactly one interior zero, which puts hi in (mu_1, mu_2]:
    there psi(1; mu) has mu_1 as its only root, and brentq finds it to
    within tol * max(1, |mu_1|).
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

    if not below(lo):
        raise BracketError(f"the lower eigenvalue bound {lo:g} is not below mu_1")
    if below(hi):
        raise BracketError(f"the upper eigenvalue bound {hi:g} is below mu_1")
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
    of the first zero of the Bessel function J0, N=3 gives pi^2.  From
    N = 342 on, Γ(N/2 + 1) of the ball volume leaves double range and the
    call raises DomainValidationError.
    """
    if N < 1:
        raise DomainValidationError(f"dimension must be >= 1, got {N}")
    nu = N / 2.0 - 1.0
    j = _first_bessel_zero(nu)
    # the ball integral of psi is |B| Γ(ν+2) (2/j)^(ν+1) J_{ν+1}(j), and
    # |B| Γ(ν+2) = π^(ν+1) leaves no Γ to form (gammaln(ν+2) in logarithms
    # alone would carry 1e-13 at N = 300)
    volume_unit_ball(N)  # raises from N = 342 on, as `weight_ratio` would
    normalization = (j / (2.0 * math.pi)) ** (nu + 1.0) / jv(nu + 1.0, j)
    return EigenPair(j * j, N, normalization, _ball_eigenfunction(nu, j))


def mu1(N: float, F: Nonlinearity, lam: float, u, tol: float = 1e-8) -> float:
    """Principal eigenvalue of the linearized operator -Δ - λ F'(u), to within
    tol * max(1, |mu1|).

    Reads only the center value `u.m` of the solution (a `RadialSolution`,
    a `ShootResult` or a `BranchPoint`) and `lam`, which must be the
    voltage of the solution with that center value: each eigen-shot runs
    the profile again from `u.m`, so the potential λF'(u) is exact to the
    integrator tolerance.  Positive on the stable branch, zero at the fold,
    negative beyond it.  The search starts from the Rayleigh bracket
    λ₁ - λF'(m) < μ₁ < λ₁ - λF'(0) (Courant-Hilbert, *Methods of
    Mathematical Physics* I, ch. VI).  At m = 0 the potential is constant
    and μ₁ = λ₁ - λF'(0) exactly.
    """
    if lam < 0:
        raise DomainValidationError(f"voltage must be nonnegative, got {lam}")
    lam1 = _first_bessel_zero(N / 2.0 - 1.0) ** 2
    q_min = lam * float(F.deriv(0.0))
    if u.m == 0.0:
        return lam1 - q_min
    if lam == 0.0:
        raise DomainValidationError(f"no solution at voltage 0 has center value {u.m}")
    # the profile decreases from its center value, and so does the potential
    q_max = lam * float(F.deriv(u.m))
    if q_max > _MAX_POTENTIAL:
        raise BracketError(
            f"linearization potential {q_max:.3g} exceeds {_MAX_POTENTIAL:.0g}; "
            "the shot eigenfunction would overflow")
    # Rayleigh: λ₁ - max V < μ₁ < λ₁ - min V for the potential V = λF'(u),
    # strict but tight as m -> 0, hence the margin
    lo, hi = lam1 - q_max, lam1 - q_min
    margin = _RAYLEIGH_MARGIN * max(abs(lo), abs(hi), 1.0)
    return _principal_eigenvalue(N, F, lam, u.m, lo - margin, hi + margin, tol)

"""Radial Sturm-Liouville problems in real dimension N.

The principal Dirichlet eigenpair of the Laplacian on the unit ball is in
closed form: λ₁ = j²_{ν,1}, the square of the first zero of the Bessel
function J_ν with ν = N/2 - 1, and psi(r) = Γ(ν+1) (2/(j r))^ν J_ν(j r)
(Watson, *Bessel Functions*, §15); its eigenfunction weight integrals are
quadratures of that evaluator.  The principal eigenvalue μ₁ of the
linearized operator -Δ - λ F'(u) that decides stability of a solution
branch has no closed form.  It comes from matched eigen-shots in the
two-sided layout of Pryce (*Numerical Solution of Sturm-Liouville
Problems*, 1993) and SLEIGN2 (Bailey-Everitt-Zettl, 2001), all runs of the
radial shooting core (`pullin.radial`), whose tangent equation with a
shift ν is the eigen-equation, so the potential λF'(u) is exact to the
integrator tolerance.  One profile run from the center value m gives the
radius R of the first zero, λ = R² and μ = R²ν.  Each trial ν is then two
half-runs, out from the center and in from ρ = R, that meet at the turning
point of the potential.  The Prüfer angles of the two halves, continued by
π per zero, differ by a mismatch that increases with ν and vanishes only
at the principal eigenvalue, so a higher mode can never be returned; one
quadrature row per half gives the mismatch's derivative, and Newton steps
inside the Rayleigh bracket find ν₁.  Every half-run is a one-lane run on
scipy's compiled DOP853 (`radial.solve_ivp`), whose error norm leaves the
quadrature row out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import hyp0f1, jv

from .errors import BracketError, DomainValidationError, QuadratureError
from .geometry import volume_unit_ball
from .nonlinearity import Nonlinearity
from .radial import lane_rhs, lane_seed, solve_ivp

# beyond this a half-run inside the Rayleigh bracket can grow like
# e^√(λF'(m)) past double range
_MAX_POTENTIAL = 2e5
# eigen-shots run at rtol = _SHOT_RTOL * tol; at tol 1e-6 on the stability
# grids of the benchmark, rtol = tol moves μ₁ by up to 1.8 tol, tol / 3 by
# 0.48 tol and tol / 10 by 0.2 tol
_SHOT_RTOL = 0.1
# relative widening of the Rayleigh bounds on μ₁, which meet as m -> 0
_RAYLEIGH_MARGIN = 1e-6
# `mu1` refuses a voltage that differs from R² of its own profile run by
# more than this multiple of tol, relative
_LAM_MISMATCH = 1e3
# matching point τ_m of the half-runs when ν + F'(w) > 0 on the whole radius
_TAU_OSCILLATORY = 0.5


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


def _center_start(N: float, F: Nonlinearity, m: float, nu: float, rtol: float):
    """Start (τ₀, state) of a left half-run: the center seed of the radial
    core, with z(0) = 1 and the seed ball's share ε^N/N of ∫ r^(N-1) z² dr."""
    tau0, y0, eps, _ = lane_seed(F, N, np.array([m]), rtol, nu=nu)
    return tau0, np.append(y0, float(eps[0]) ** N / N)


def _half_run(N: float, F: Nonlinearity, m: float, nu: float, start, tau_end: float,
              rtol: float):
    """One half of a matched eigen-shot: a one-lane run of the radial core
    at the shift ν,

        z'' + (N-1)/ρ z' + (ν + F'(w)) z = 0,

    with the quadrature row I = ∫ r^(N-1) z² dr, from `start` = (τ, state)
    to τ = tau_end.  A left run starts at the center seed (`_center_start`,
    z(0) = 1) and a right run at τ = 1 from (R, w'(R), z = 0, z' = -1, 0),
    going back.  For the solution at center value m, λ = R² and ψ(r) = z(Rr)
    is the trial eigenfunction at μ = R²ν.

    Returns (zeros, (r, w', z, z', I) at tau_end), where `zeros` counts the
    sign changes of z between accepted steps (at these tolerances a step
    spans a small fraction of a half-wave of z, so none is missed); z = 0 at
    the start of a right run is no sign change.
    """
    tau0, y0 = start
    sol = solve_ivp(lane_rhs(F, N, np.array([m]), nu=nu, weight=True), (tau0, tau_end),
                    y0, rtol=rtol, atol=rtol * 1e-2)
    if not sol.success:
        raise BracketError(f"eigen shot failed at nu={nu}: {sol.message}")
    z = sol.y[2]
    zeros = int(np.count_nonzero(np.signbit(z[1:]) != np.signbit(z[:-1])))
    return zeros, tuple(sol.y[:, -1].tolist())


def _match_point(F: Nonlinearity, m: float, nu: float, tau0: float) -> float:
    """Matching point τ_m of the two half-runs at the shift ν: the turning
    point of q = ν + F'(w), where w = F'^(-1)(-ν) and τ = √(1 - w/m), kept
    in [τ₀ + (1 - τ₀)/10, 0.9]; `_TAU_OSCILLATORY` when q > 0 everywhere.

    Inside it the left run meets q > 0 and oscillates; outside it q < 0,
    and the right run, going in from the edge, follows the solution that
    grows away from ρ = R, so neither half-run chases a decaying mode.
    """
    lo = tau0 + 0.1 * (1.0 - tau0)
    w_t = F.deriv_inverse(max(-nu, 0.0))
    if w_t == 0.0:
        return max(lo, _TAU_OSCILLATORY)
    tau_t = math.sqrt(max(1.0 - w_t / m, 0.0))
    return min(max(tau_t, lo), 0.9)


def _mismatch(N: float, F: Nonlinearity, m: float, edge, nu: float, rtol: float):
    """Prüfer-angle mismatch D(ν) = θ_L - θ_R at the matching point, with
    its derivative D'(ν).

    θ is the angle of (z, r_m z') at the matching radius r_m, i.e. the
    Prüfer angle of (z, r^(N-1) z') scaled by S = r_m^(N-2) so that both
    entries have the size of z, continued by π per zero of its half-run:
    θ_L starts at π/2 at the center and θ_R at π at ρ = R, and both
    increase with ρ at every zero.  Two Prüfer angles of the same equation
    cannot cross, so D has one sign over the whole radius; it increases
    with ν and vanishes only at the principal eigenvalue ν₁ (D(ν_k) =
    (k-1)π at the k-th).  From the Wronskian of z and ∂z/∂ν,

        D' = S (I_L / ρ_L² + I_R / ρ_R²),   ρ² = S² z² + (r^(N-1) z')²,

    which holds exactly at ν₁ (τ_m and S move with ν, which adds a term of
    the size of D).
    """
    start = _center_start(N, F, m, nu, rtol)
    tau_m = _match_point(F, m, nu, start[0])
    zeros_l, (r, _, z_l, dz_l, int_l) = _half_run(N, F, m, nu, start, tau_m, rtol)
    zeros_r, (_, _, z_r, dz_r, int_r) = _half_run(
        N, F, m, nu, (1.0, np.array([*edge, 0.0, -1.0, 0.0])), tau_m, rtol)
    # S = r^(N-2) at the matching point makes (S z, r^(N-1) z') = S (z, r z')
    theta_l = zeros_l * math.pi + math.atan2(z_l, r * dz_l) % math.pi
    theta_r = math.atan2(z_r, r * dz_r) % math.pi - zeros_r * math.pi
    # the right run integrates I from ρ = R down, so it returns -I_R
    slope = (int_l / (z_l * z_l + (r * dz_l) ** 2)
             - int_r / (z_r * z_r + (r * dz_r) ** 2)) / r ** (N - 2.0)
    return theta_l - theta_r, slope


def _principal_eigenvalue(N: float, F: Nonlinearity, m: float, edge, lo: float,
                          hi: float, tol: float):
    """The principal eigenvalue ν₁ in the ρ variable, from the bracket
    [lo, hi], by Newton steps on the Prüfer-angle mismatch D(ν)
    (`_mismatch`), for the profile with center value m and edge values
    `edge` = (R, w'(R)).

    Each evaluation moves one end of the bracket by the sign of D; a
    Newton step that would leave the bracket is replaced by bisection.  The
    iteration starts at ν = 0 when the bracket holds it, at `hi` otherwise.
    It returns the next Newton iterate once the distance left to ν₁ is at
    most tol/2 * max(1, |μ|) in μ = R²ν: the step itself, or step * c/(1 - c)
    when the step is c < 1/2 times the Newton step before it.  It returns
    the middle of the bracket once that is as narrow; BracketError is raised
    when the bracket closes on an end whose sign no evaluation confirmed.
    """
    rtol = _SHOT_RTOL * tol
    R2 = edge[0] ** 2
    lo_met = hi_met = False  # whether an evaluation has moved that end
    nu = 0.0 if lo < 0.0 < hi else hi
    last = 0.0  # the Newton step that led to nu (0 at the start and after a bisection)
    for _ in range(100):
        d, slope = _mismatch(N, F, m, edge, nu, rtol)
        if d < 0.0:
            lo, lo_met = nu, True
        else:
            hi, hi_met = nu, True
        newton = nu - d / slope
        step = abs(newton - nu)
        close = 0.5 * tol * max(1.0, R2 * abs(newton)) / R2  # tol/2 of μ, in ν
        # steps that shrink by a factor c = step/last < 1/2 leave about
        # c/(1 - c) of this one to go, and less when they converge quadratically
        left = step * step / (last - step) if step < 0.5 * last else step
        if left <= close and lo <= newton <= hi:
            return newton
        if hi - lo <= close:
            if not (lo_met and hi_met):
                raise BracketError(f"the Rayleigh bound {R2 * (hi if lo_met else lo):g} "
                                   "is not on its side of mu_1")
            return 0.5 * (lo + hi)
        nu, last = (newton, step) if lo < newton < hi else (0.5 * (lo + hi), 0.0)
    raise BracketError("Newton steps on the Prüfer mismatch did not converge")


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
    if not 1.0 <= N < math.inf:
        raise DomainValidationError(f"dimension must be finite and >= 1, got {N}")
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
    a `ShootResult` or a `BranchPoint`).  One profile run from `u.m` gives
    the radius R of its first zero, so λ = R² and μ₁ = R²ν₁; `lam` must be
    that voltage, and DomainValidationError is raised when it differs from
    R² by more than `_LAM_MISMATCH` * tol relative.  Positive on the stable
    branch, zero at the fold, negative beyond it.  ν₁ comes from Newton
    steps on a Prüfer-angle mismatch of two half-runs
    (`_principal_eigenvalue`) inside the Rayleigh bracket
    λ₁ - λF'(m) < μ₁ < λ₁ - λF'(0) (Courant-Hilbert, *Methods of
    Mathematical Physics* I, ch. VI).  The only solution with m = 0 is
    u ≡ 0 at λ = 0, whose μ₁ is λ₁; with m = 0, a voltage other than 0 is
    refused.
    """
    if not 1.0 <= N < math.inf:
        raise DomainValidationError(f"dimension must be finite and >= 1, got {N}")
    if not lam >= 0:
        raise DomainValidationError(f"voltage must be nonnegative, got {lam}")
    if not 0.0 < tol < 1.0:
        raise DomainValidationError(f"tol must lie in (0, 1), got {tol}")
    lam1 = _first_bessel_zero(N / 2.0 - 1.0) ** 2
    if u.m == 0.0:
        if lam != 0.0:
            raise DomainValidationError(
                f"no solution at voltage {lam} has center value 0 (u = 0 needs voltage 0)")
        return lam1
    if lam == 0.0:
        raise DomainValidationError(f"no solution at voltage 0 has center value {u.m}")
    # the profile decreases from its center value, and so does the potential
    q_max = lam * float(F.deriv(u.m))
    if q_max > _MAX_POTENTIAL:
        raise BracketError(
            f"linearization potential {q_max:.3g} exceeds {_MAX_POTENTIAL:.0g}; "
            "the shot eigenfunction would overflow")
    # the profile run: the left half-run at ν = 0 all the way to τ = 1
    rtol = _SHOT_RTOL * tol
    _, (R, dw, *_) = _half_run(N, F, u.m, 0.0, _center_start(N, F, u.m, 0.0, rtol), 1.0,
                               rtol)
    R2 = R * R
    if abs(lam - R2) > _LAM_MISMATCH * tol * R2:
        raise DomainValidationError(
            f"voltage {lam} is not that of center value {u.m}, whose profile "
            f"gives R² = {R2:.12g}")
    # Rayleigh in ν = μ/R²: j²/R² - F'(m) < ν₁ < j²/R² - F'(0) for the
    # potential F'(w), strict but tight as m -> 0, hence the margin
    lo, hi = lam1 / R2 - float(F.deriv(u.m)), lam1 / R2 - float(F.deriv(0.0))
    margin = _RAYLEIGH_MARGIN * max(abs(lo), abs(hi), 1.0 / R2)
    return R2 * _principal_eigenvalue(N, F, u.m, (R, dw), lo - margin, hi + margin, tol)

"""Radial Sturm-Liouville problems in real dimension N.

The principal Dirichlet eigenpair of the Laplacian on the unit ball is in
closed form: λ₁ = j²_{ν,1}, the square of the first zero of the Bessel
function J_ν with ν = N/2 - 1, and psi(r) = Γ(ν+1) (2/(j r))^ν J_ν(j r)
(Watson, *Bessel Functions*, §15); its eigenfunction weight integrals are
quadratures of that evaluator.  The principal eigenvalue μ₁ of the
linearized operator -Δ - λ F'(u) that decides stability of a solution
branch has no closed form.  It comes from one Chebyshev collocation of that
operator (Trefethen, *Spectral Methods in MATLAB*, 2000, ch. 7) in the
level ℓ of the solution w₀ with center value 0: by the scaling symmetry of
each family (`Nonlinearity.scaling_law`) the solution with center value m
is w₀ up to the level ℓ(m), and the operator's coefficients are those of
w₀'s Emden-Fowler trajectory, λ(ℓ) and q(ℓ) = dℓ/d log ρ.  A branch reads
them off its own trajectory run (`branch.solve_branch`), and `mu1` off one
profile run of the radial core (`pullin.radial`); both feed the same
kernel (`_principal_eigenvalue`), one small dense eigen-solve per
resolution.
"""

from __future__ import annotations

import functools
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
from .radial import StepReader, lane_rhs, lane_seed, solve_ivp

# `mu1` and the branch fills refuse a potential λF'(m) above this: no
# independent reference for μ₁ exists past it yet
_MAX_POTENTIAL = 2e5
# the profile run of `mu1` runs at rtol = _PROFILE_RTOL * tol
_PROFILE_RTOL = 0.1
# relative widening of the Rayleigh bounds on μ₁, which meet as m -> 0
_RAYLEIGH_MARGIN = 1e-6
# `mu1` refuses a voltage that differs from R² of its own profile run by
# more than this multiple of tol, relative
_LAM_MISMATCH = 1e3
# the Chebyshev resolutions of the collocation, tried in turn until two in a
# row agree
_RESOLUTIONS = (24, 32, 48, 64, 96)


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


@functools.cache
def _chebyshev(n: int):
    """Chebyshev-Gauss-Lobatto nodes x_k = (1 - cos(πk/n))/2, k = 0..n, which
    increase from 0 to 1, with the first and second differentiation
    matrices on them (Trefethen, *Spectral Methods in MATLAB*, ch. 6),
    built on first use and shared by every caller, which must not write to
    them."""
    k = np.arange(n + 1)
    xi = np.cos(np.pi * k / n)
    c = np.where((k == 0) | (k == n), 2.0, 1.0) * (-1.0) ** k
    d = np.outer(c, 1.0 / c) / (xi[:, None] - xi + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    d1 = -2.0 * d  # x = (1 - ξ)/2
    return 0.5 * (1.0 - xi), d1, d1 @ d1


def _nodes(n: int) -> np.ndarray:
    """The interior nodes x_1 .. x_(n-1) of `_chebyshev(n)`."""
    return _chebyshev(n)[0][1:n]


def _lambda1(N: float) -> float:
    """λ₁ of the unit ball in dimension N, j²_{N/2-1,1}."""
    return _first_bessel_zero(N / 2.0 - 1.0) ** 2


def _potential(F: Nonlinearity, m: float, lam: float) -> float:
    """λF'(m), the largest value of the potential of the linearized operator
    (the profile decreases from its center value m, and F' increases);
    BracketError past `_MAX_POTENTIAL`."""
    q_max = lam * float(F.deriv(m))
    if q_max > _MAX_POTENTIAL:
        raise BracketError(
            f"linearization potential {q_max:.3g} exceeds {_MAX_POTENTIAL:.0g}, past "
            "which mu_1 has no independent reference")
    return q_max


def _principal_eigenvalue(F: Nonlinearity, m: float, lam: float, lam1: float,
                          tol: float, ratio) -> float:
    """μ₁ of the solution with center value m and voltage lam, by Chebyshev
    collocation of the linearized operator in the level ℓ of w₀, the
    solution with center value 0 (`Nonlinearity.scaling_law`).

    With L = ℓ(m), λ(ℓ) and q(ℓ) = dℓ/d log ρ along w₀, and ′ = d/dℓ,

        μ z = -λ(L) e^(κ(L-ℓ)) [(q²/λ)(z″ + σz′) + z′ + F′(0) z],  z(L) = 0,

    on ℓ ∈ [0, L], where λ(L) e^(κL) = λF′(m)/F′(0).  `ratio(n)` gives q²/λ
    at the interior nodes ℓ = L·`_nodes(n)`; at ℓ = 0 it is 0, so the center
    row is -λF′(m)/F′(0)·(z′ + F′(0) z).  The Dirichlet row and column go,
    and μ₁ is the eigenvalue with the smallest real part.  The resolutions
    of `_RESOLUTIONS` are tried in turn until two in a row agree to
    tol/2 * max(1, |μ₁|), or to the rounding ε‖A‖∞ of the finer eigen-solve
    when that is larger.  BracketError is raised past the
    potential guard (`_potential`), when no two resolutions agree, and when
    μ₁ leaves the Rayleigh bracket λ₁ - λF′(m) <= μ₁ <= λ₁ - λF′(0)
    (Courant-Hilbert, *Methods of Mathematical Physics* I, ch. VI), widened
    by `_RAYLEIGH_MARGIN`.
    """
    q_max = _potential(F, m, lam)
    kappa, sigma = law = F.scaling_law()
    L, fp0 = float(law.level(m)), float(F.deriv(0.0))
    last = None
    for n in _RESOLUTIONS:
        x, d1, d2 = _chebyshev(n)
        d1, d2 = d1[:n, :n] / L, d2[:n, :n] / (L * L)
        c = np.concatenate(([0.0], ratio(n)))[:, None]
        scale = (q_max / fp0) * np.exp(-kappa * L * x[:n])
        a = -scale[:, None] * (c * (d2 + sigma * d1) + d1 + fp0 * np.eye(n))
        mu = float(np.linalg.eigvals(a).real.min())
        rounding = np.finfo(float).eps * float(np.abs(a).sum(axis=1).max())
        if last is not None and abs(mu - last) <= max(0.5 * tol * max(1.0, abs(mu)), rounding):
            break
        last = mu
    else:
        raise BracketError(f"collocations at n = {_RESOLUTIONS} do not agree on mu_1")
    lo, hi = lam1 - q_max, lam1 - lam * fp0
    margin = _RAYLEIGH_MARGIN * max(abs(lo), abs(hi), 1.0)
    if not lo - margin <= mu <= hi + margin:
        raise BracketError(f"collocated mu_1 = {mu:.12g} is outside its Rayleigh bracket "
                           f"[{lo:.12g}, {hi:.12g}]")
    return mu


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
    tol * max(1, |mu1|), or the rounding of its eigen-solve where that is
    larger (`_principal_eigenvalue`).

    Reads only the center value `u.m` of the solution (a `RadialSolution`,
    a `ShootResult` or a `BranchPoint`).  One profile run W of the radial
    core from `u.m` gives the radius R of its first zero, so λ = R²; `lam`
    must be that voltage, and DomainValidationError is raised when it
    differs from R² by more than `_LAM_MISMATCH` * tol relative.  Positive
    on the stable branch, zero at the fold, negative beyond it.  The
    coefficients of the collocation (`_principal_eigenvalue`) are read off
    that run: the level ℓ = L - ℓ(W) of w₀, and
    q²/λ = (W′/(1 + σW))² e^(-κℓ(W)).  BracketError is raised past the
    potential guard, before the run, and when the collocation fails its
    checks.  The only solution with m = 0 is u ≡ 0 at λ = 0, whose μ₁ is
    λ₁; with m = 0, a voltage other than 0 is refused.
    """
    if not 1.0 <= N < math.inf:
        raise DomainValidationError(f"dimension must be finite and >= 1, got {N}")
    if not lam >= 0:
        raise DomainValidationError(f"voltage must be nonnegative, got {lam}")
    if not 0.0 < tol < 1.0:
        raise DomainValidationError(f"tol must lie in (0, 1), got {tol}")
    lam1, m = _lambda1(N), u.m
    if m == 0.0:
        if lam != 0.0:
            raise DomainValidationError(
                f"no solution at voltage {lam} has center value 0 (u = 0 needs voltage 0)")
        return lam1
    if lam == 0.0:
        raise DomainValidationError(f"no solution at voltage 0 has center value {m}")
    _potential(F, m, lam)
    rtol = _PROFILE_RTOL * tol
    tau0, y0, _, _ = lane_seed(F, N, m, rtol)
    rhs = lane_rhs(F, N, m)

    def run(t_span, rows):
        sol = solve_ivp(rhs, t_span, rows, rtol=rtol, atol=rtol * 1e-2)
        if not sol.success:
            raise BracketError(f"profile run failed at m={m}: {sol.message}")
        return sol

    sol = run((tau0, 1.0), y0)
    R2 = float(sol.y[0, -1]) ** 2
    if abs(lam - R2) > _LAM_MISMATCH * tol * R2:
        raise DomainValidationError(
            f"voltage {lam} is not that of center value {m}, whose profile "
            f"gives R² = {R2:.12g}")
    read = StepReader(sol, rhs, rtol, rtol * 1e-2, run)
    kappa, sigma = law = F.scaling_law()
    L = float(law.level(m))

    def ratio(n):
        ell = L * _nodes(n)
        w = law.center_value(L - ell)
        dw = read(np.sqrt(1.0 - w / m))[1]
        return (dw / (1.0 + sigma * w)) ** 2 * np.exp(-kappa * (L - ell))

    return _principal_eigenvalue(F, m, R2, lam1, tol, ratio)

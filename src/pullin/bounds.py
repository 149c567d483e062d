"""Analytic bounds: pull-in voltage upper bounds, pull-in distance bounds,
and the optimized constants they depend on.

Everything here is either a closed form or the extremum of a smooth scalar
function of one variable, evaluated with a coarse grid scan plus golden-
section polish.  The estimates take a :class:`DomainStats` record, so
non-ball domains are supported by supplying the principal eigenvalue,
volume, and weight statistics directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from . import spectral
from .errors import DomainValidationError, QuadratureError
from .geometry import volume_unit_ball
from .nonlinearity import Family, Nonlinearity, require_mems_default
from .optimize import golden_section_max, golden_section_min, grid_then_golden_min

#: upper end of the t-window of every inverse-square energy estimate
T_MAX_MEMS = 2.0 + math.sqrt(6.0)


@dataclass(frozen=True)
class DomainStats:
    """Domain and weight data consumed by the general-domain bounds.

    `f_phi_integral` is the mean of the weight f against the principal
    eigenfunction normalized to unit integral.
    """

    lambda1: float
    volume: float
    N: float
    inf_f: float
    sup_f: float
    f_phi_integral: float

    def __post_init__(self):
        if not self.lambda1 > 0:
            raise DomainValidationError("lambda1 must be positive")
        if not self.volume > 0:
            raise DomainValidationError("volume must be positive")
        if not self.N >= 1:
            raise DomainValidationError("dimension must be >= 1")
        if self.inf_f < 0 or self.sup_f <= 0:
            raise DomainValidationError("weight bounds must be nonnegative / positive")
        if not (self.inf_f <= self.f_phi_integral <= self.sup_f):
            raise DomainValidationError(
                "f_phi_integral must lie between inf_f and sup_f "
                f"({self.inf_f}, {self.f_phi_integral}, {self.sup_f})")


def ball_stats(N: float, alpha: float = 0.0, tol: float = 1e-10) -> DomainStats:
    """DomainStats of the unit ball with weight |x|^alpha."""
    pair = spectral.lambda1_ball(N, tol)
    fphi = 1.0 if alpha == 0.0 else pair.weight_ratio(alpha)
    inf_f = 1.0 if alpha <= 0.0 else 0.0
    sup_f = 1.0 if alpha >= 0.0 else math.inf
    return DomainStats(pair.eigenvalue, volume_unit_ball(N), N, inf_f, sup_f, fphi)


@dataclass(frozen=True)
class BoundReport:
    """A named bound value with its optimizing parameter and validity flag.

    When the hypotheses behind a bound fail (dimension window, domain
    restriction), `valid` is False, `reason` names the failed hypothesis, and
    `value` still carries the formally evaluated number when one exists.
    """

    name: str
    value: float
    optimizer: Optional[float] = None
    valid: bool = True
    reason: str = ""
    detail: str = ""


# ---------------------------------------------------------------------------
# voltage and distance bounds from the eigenfunction identities
# ---------------------------------------------------------------------------

def pullin_voltage_upper(F: Nonlinearity, stats: DomainStats) -> BoundReport:
    """λ* <= λ₁ · min(sup_ratio / inf f, recip_integral / mean of f).

    The first term is dropped (treated as +inf) when inf f = 0.
    """
    B, C = F.voltage_constants()
    term1 = B / stats.inf_f if stats.inf_f > 0 else math.inf
    term2 = C / stats.f_phi_integral if stats.f_phi_integral > 0 else math.inf
    value = stats.lambda1 * min(term1, term2)
    return BoundReport(
        "pullin_voltage_upper", value,
        detail=f"{F.label()}: eigenfunction-tested voltage bound, "
               f"terms ({stats.lambda1 * term1:.6g}, {stats.lambda1 * term2:.6g})")


def pullin_distance_lower(F: Nonlinearity, stats: DomainStats) -> BoundReport:
    """Lower bound on the pull-in distance for a classical extremal.

    Inverts F' at the larger of the two weight ratios; values below F'(0)
    clamp to zero.  The caller asserts that the extremal is classical; the
    report records that caveat.
    """
    B, C = F.voltage_constants()
    z1 = (stats.inf_f / stats.sup_f) / B if math.isfinite(stats.sup_f) and stats.sup_f > 0 else 0.0
    z2 = (stats.f_phi_integral / stats.sup_f) / C if math.isfinite(stats.sup_f) else 0.0
    value = F.deriv_inverse(max(z1, z2))
    return BoundReport(
        "pullin_distance_lower", value,
        reason="assumes the extremal solution is classical",
        detail=f"{F.label()}: inverse of F' at max({z1:.6g}, {z2:.6g})")


def mems_distance_lower(p: float, stats: DomainStats) -> BoundReport:
    """Named inverse-power specialization, kept in its reference min-form:
    1 - min( p/(p+1)·(sup f/inf f)^(1/(p+1)), (p/(p+1)·sup f/mean f)^(1/(p+1)) ).

    With constant weight this is 1 - p/(p+1) = 1/(p+1)."""
    if p <= 0:
        raise DomainValidationError("inverse-power exponent must be positive")
    q = 1.0 / (p + 1.0)
    t1 = (p / (p + 1.0)) * (stats.sup_f / stats.inf_f) ** q if stats.inf_f > 0 else math.inf
    t2 = ((p / (p + 1.0)) * stats.sup_f / stats.f_phi_integral) ** q \
        if stats.f_phi_integral > 0 else math.inf
    return BoundReport("mems_distance_lower", 1.0 - min(t1, t2),
                       detail=f"inverse-power p={p:g} closed form")


def exp_distance_lower(stats: DomainStats) -> BoundReport:
    """Exponential specialization: max(1 + log(inf f/sup f), log(mean f/sup f))."""
    t1 = 1.0 + math.log(stats.inf_f / stats.sup_f) if stats.inf_f > 0 else -math.inf
    t2 = math.log(stats.f_phi_integral / stats.sup_f) if stats.f_phi_integral > 0 else -math.inf
    return BoundReport("exp_distance_lower", max(t1, t2),
                       detail="exponential closed form (unclamped)")


def power_distance_lower(p: float, stats: DomainStats) -> BoundReport:
    """Power-growth specialization:
    max( p/(p-1)·(inf f/sup f)^(1/(p-1)), ((p-1)/p·mean f/sup f)^(1/(p-1)) ) - 1."""
    if p <= 1:
        raise DomainValidationError("power-growth exponent must exceed 1")
    q = 1.0 / (p - 1.0)
    t1 = (p / (p - 1.0)) * (stats.inf_f / stats.sup_f) ** q
    t2 = ((p - 1.0) / p * stats.f_phi_integral / stats.sup_f) ** q
    return BoundReport("power_distance_lower", max(t1, t2) - 1.0,
                       detail=f"power-growth p={p:g} closed form (unclamped)")


def stability_necessary_check(F: Nonlinearity, stats: DomainStats,
                              lambda_star: float, u_star_norm: float) -> bool:
    """Necessary condition for a classical extremal:
    λ₁ <= λ* · sup f · F'(sup-norm of the extremal).

    F' is increasing, so the sup of F'(u*) is attained at the maximum of u*.
    """
    if lambda_star <= 0:
        return False
    return stats.lambda1 <= lambda_star * stats.sup_f * float(F.deriv(u_star_norm))


# ---------------------------------------------------------------------------
# sup-norm bounds on general domains: exponential family
# ---------------------------------------------------------------------------

def _finite(objective):
    """Objectives blow up at the window edges; map overflow to +inf."""
    def wrapped(t):
        try:
            v = objective(t)
        except (OverflowError, QuadratureError):
            return math.inf
        return v if math.isfinite(v) else math.inf
    return wrapped


def _exp_constant_objective(t: float, N: float) -> float:
    return (N ** (-1.0 / (2.0 * t + 1.0))
            * (2.0 * t / (4.0 * t + 2.0 - N)) ** (2.0 * t / (2.0 * t + 1.0))
            * (4.0 / (2.0 - t)) ** (1.0 / t))


def exp_supnorm_constant(N: float) -> BoundReport:
    """Minimized constant of the exponential sup-norm bound.

    Objective N^(-1/(2t+1)) (2t/(4t+2-N))^(2t/(2t+1)) (4/(2-t))^(1/t),
    minimized over (N-2)/4 < t < 2.  The window empties at N = 10; the
    estimate itself is stated for 3 <= N <= 9.
    """
    lo, hi = (N - 2.0) / 4.0, 2.0
    if lo >= hi:
        return BoundReport("exp_supnorm_constant", math.nan, valid=False,
                           reason=f"empty optimization window at N={N:g}")
    t, val = grid_then_golden_min(_finite(lambda t: _exp_constant_objective(t, N)), lo, hi)
    valid = 3.0 <= N <= 9.0
    return BoundReport("exp_supnorm_constant", val, optimizer=t, valid=valid,
                       reason="" if valid else f"dimension {N:g} outside [3, 9]")


def log_weight_integral(p: float, R: float) -> float:
    """Integral of (-log r)^p · r over (0, R], for p >= 0 and 0 < R <= 1.

    Satisfies the by-parts recursion Λ(p, R) = R²/2·(-log R)^p + p/2·Λ(p-1, R).
    """
    if p < 0 or not 0.0 < R <= 1.0:
        raise DomainValidationError(f"need p >= 0 and 0 < R <= 1, got ({p}, {R})")
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(lambda r: (-math.log(r)) ** p * r, 0.0, R,
                        epsabs=1e-14, epsrel=1e-12, limit=200)
    if not math.isfinite(val) or err > max(1e-10, 1e-8 * abs(val)):
        raise QuadratureError(f"log-weight integral failed for p={p}, R={R}")
    return val


def exp_supnorm_bound(stats: DomainStats,
                      contained_in_half_ball: bool = False) -> BoundReport:
    """Sup-norm bound on the extremal of the exponential problem.

    For 3 <= N <= 9 the bound is λ₁·K_N/(e(N-2)) · (|Ω|/ω_N)^(N/2) with the
    minimized constant K_N.  For N = 2 the domain must sit inside a ball of
    radius 1/2 (caller asserts via `contained_in_half_ball`) and the bound is
    a one-parameter infimum involving the logarithmic weight integral.
    """
    N = stats.N
    if N == 2.0:
        def objective(t):
            lam_arg = (2.0 * t + 1.0) / (2.0 * t)
            lam_val = log_weight_integral(lam_arg, math.sqrt(stats.volume / math.pi))
            return ((4.0 / (2.0 - t)) ** (1.0 / t)
                    * (stats.volume / (2.0 * math.pi)) ** (1.0 / (2.0 * t + 1.0))
                    * lam_val ** (2.0 * t / (2.0 * t + 1.0)))
        t, val = grid_then_golden_min(_finite(objective), 0.0, 2.0, n_grid=400)
        value = stats.lambda1 / math.e * val
        return BoundReport(
            "exp_supnorm_bound", value, optimizer=t, valid=contained_in_half_ball,
            reason="" if contained_in_half_ball
            else "requires the domain to lie inside a ball of radius 1/2")
    const = exp_supnorm_constant(N)
    if math.isnan(const.value):
        return BoundReport("exp_supnorm_bound", math.nan, valid=False,
                           reason=const.reason)
    value = (stats.lambda1 * const.value / (math.e * (N - 2.0))
             * (stats.volume / volume_unit_ball(N)) ** (N / 2.0))
    return BoundReport("exp_supnorm_bound", value, optimizer=const.optimizer,
                       valid=const.valid, reason=const.reason)


def eigenvalue_lower_bound(N: float, volume: float) -> BoundReport:
    """λ₁(Ω) >= e(N-2)/K_N · (ω_N/|Ω|)^(N/2), the inverse reading of the
    exponential sup-norm bound combined with the distance lower bound."""
    const = exp_supnorm_constant(N)
    if math.isnan(const.value):
        return BoundReport("eigenvalue_lower_bound", math.nan, valid=False,
                           reason=const.reason)
    value = (math.e * (N - 2.0) / const.value
             * (volume_unit_ball(N) / volume) ** (N / 2.0))
    return BoundReport("eigenvalue_lower_bound", value, optimizer=const.optimizer,
                       valid=const.valid, reason=const.reason)


# ---------------------------------------------------------------------------
# sup-norm bounds on general domains: inverse-square family
# ---------------------------------------------------------------------------

def _mems_energy_base(t: float) -> float:
    return 4.0 * (2.0 * t + 1.0) / (4.0 * t + 2.0 - t * t)


def _mems_constant_objective(t: float, N: float) -> float:
    # Newtonian-potential sup bound at Lebesgue index (2t+3)/3 applied to the
    # log-convexity reduction: the linear estimate carries the CUBE of the
    # energy bound on (1-u)^{-1}, hence the 3/t exponent, and the voltage
    # bound contributes 2 * 4/27.
    return ((8.0 / 27.0) * N ** (-3.0 / (2.0 * t + 3.0))
            * (2.0 * t / (4.0 * t + 6.0 - 3.0 * N)) ** (2.0 * t / (2.0 * t + 3.0))
            * _mems_energy_base(t) ** (3.0 / t))


def mems_supnorm_constant(N: float) -> BoundReport:
    """Minimized constant of the inverse-square sup-norm bound, over the
    window 3(N-2)/4 < t < 2+sqrt(6) (empty from N = 7.93 on; stated for
    3 <= N <= 7)."""
    lo, hi = 3.0 * (N - 2.0) / 4.0, T_MAX_MEMS
    if lo >= hi:
        return BoundReport("mems_supnorm_constant", math.nan, valid=False,
                           reason=f"empty optimization window at N={N:g}")
    t, val = grid_then_golden_min(_finite(lambda t: _mems_constant_objective(t, N)), lo, hi)
    valid = 3.0 <= N <= 7.0
    return BoundReport("mems_supnorm_constant", val, optimizer=t, valid=valid,
                       reason="" if valid else f"dimension {N:g} outside [3, 7]")


def mems_supnorm_bound(stats: DomainStats) -> BoundReport:
    """Sup-norm bound for the inverse-square extremal on a general domain:
    1 - exp(-λ₁·G_N/(2(N-2)) · (|Ω|/ω_N)^(2/N)) for 3 <= N <= 7."""
    N = stats.N
    const = mems_supnorm_constant(N)
    if math.isnan(const.value):
        return BoundReport("mems_supnorm_bound", math.nan, valid=False,
                           reason=const.reason)
    exponent = (stats.lambda1 * const.value / (2.0 * (N - 2.0))
                * (stats.volume / volume_unit_ball(N)) ** (2.0 / N))
    return BoundReport("mems_supnorm_bound", 1.0 - math.exp(-exponent),
                       optimizer=const.optimizer, valid=const.valid,
                       reason=const.reason)


# ---------------------------------------------------------------------------
# sup-norm bound for the power-growth family
# ---------------------------------------------------------------------------

def _power_window(N: float, p: float) -> tuple[float, float]:
    root = math.sqrt(p * p - p)
    t_minus, t_plus = p - root, p + root
    t_np = p * N / 4.0 - p / 2.0 + 0.5
    return max(t_minus, t_np), t_plus


def power_supnorm_constant(N: float, p: float) -> BoundReport:
    """Minimized constant of the power-growth sup-norm bound (stated for
    N = 3 or 4, p > 1)."""
    if p <= 1:
        raise DomainValidationError("power-growth exponent must exceed 1")
    lo, hi = _power_window(N, p)
    if lo >= hi:
        return BoundReport("power_supnorm_constant", math.nan, valid=False,
                           reason=f"empty optimization window at N={N:g}, p={p:g}")

    def objective(t):
        return ((2.0 * t * p - p - t * t) ** (-p / t)
                * (2.0 * t - 1.0) ** ((2.0 * t - 1.0) / (2.0 * t + p - 1.0) + p / t)
                * (2.0 * p) ** (p / t)
                / (N ** (p / (2.0 * t + p - 1.0))
                   * (4.0 * t + 2.0 * p - 2.0 - N * p) ** ((2.0 * t - 1.0) / (2.0 * t + p - 1.0))))

    t, val = grid_then_golden_min(_finite(objective), lo, hi)
    valid = N in (3.0, 4.0)
    return BoundReport("power_supnorm_constant", val, optimizer=t, valid=valid,
                       reason="" if valid else f"stated only for N in {{3, 4}}, got {N:g}")


def power_supnorm_bound(stats: DomainStats, p: float) -> BoundReport:
    """Sup-norm bound for the power-growth extremal:
    (p-1)^(p-1)·λ₁·K_{N,p}/(p^p (N-2)) · (|Ω|/ω_N)^(2/N)."""
    const = power_supnorm_constant(stats.N, p)
    if math.isnan(const.value):
        return BoundReport("power_supnorm_bound", math.nan, valid=False,
                           reason=const.reason)
    value = ((p - 1.0) ** (p - 1.0) * stats.lambda1 * const.value
             / (p ** p * (stats.N - 2.0))
             * (stats.volume / volume_unit_ball(stats.N)) ** (2.0 / stats.N))
    return BoundReport("power_supnorm_bound", value, optimizer=const.optimizer,
                       valid=const.valid, reason=const.reason)


# ---------------------------------------------------------------------------
# energy estimates for semi-stable solutions
# ---------------------------------------------------------------------------

def energy_norm_bound(F: Nonlinearity, t: float, volume: float) -> float:
    """Energy estimate for semi-stable solutions.

    Exponential (0 < t < 2):  |e^u|_{L^{2t+1}} <= (4/(2-t))^(1/t) |Ω|^(1/(2t+1)).
    Inverse square, p = 2 (0 < t < 2+sqrt(6)):
    |(1-u)^{-2}|_{L^{t+3/2}} <= (4(2t+1)/(4t+2-t²))^(2/t) |Ω|^(2/(2t+3)).
    """
    if volume <= 0:
        raise DomainValidationError("volume must be positive")
    if F.family is Family.EXPONENTIAL:
        if not 0.0 < t < 2.0:
            raise DomainValidationError(f"exponential energy window is (0, 2), got t={t}")
        return (4.0 / (2.0 - t)) ** (1.0 / t) * volume ** (1.0 / (2.0 * t + 1.0))
    if F.family is Family.MEMS_INVERSE_POWER:
        require_mems_default(F, "energy estimate")
        if not 0.0 < t < T_MAX_MEMS:
            raise DomainValidationError(
                f"inverse-square energy window is (0, {T_MAX_MEMS:.4f}), got t={t}")
        return _mems_energy_base(t) ** (2.0 / t) * volume ** (2.0 / (2.0 * t + 3.0))
    raise DomainValidationError(f"no energy estimate for family {F.label()}")


# ---------------------------------------------------------------------------
# radial inverse-square machinery on the unit ball
# ---------------------------------------------------------------------------

def radial_decay_constant(tau: float, N: float) -> float:
    """Constant of the radial center-drop estimate
    u(0) - u(R) <= γ(τ, N) |g|_{L^τ} R^(2-N/τ) / ω_N^(1/τ)
    for radially decreasing solutions of -Δu = g >= 0 on the unit ball.

    Three-case closed form: τ/(2τ-1) in dimension 1, τ/(4(τ-1)) in dimension
    2, and a Newtonian-potential expression for N >= 3.  Defined for
    τ > max(1, N/2); non-integer dimensions below 3 have no stated form.
    """
    if tau <= max(1.0, N / 2.0):
        raise DomainValidationError(
            f"need tau > max(1, N/2) = {max(1.0, N / 2.0)}, got {tau}")
    if N == 1.0:
        return tau / (2.0 * tau - 1.0)
    if N == 2.0:
        return tau / (4.0 * (tau - 1.0))
    if N >= 3.0:
        frac = (tau - 1.0) / tau
        return ((tau - 1.0) ** frac
                / ((N - 2.0) * N ** (1.0 / tau) * (2.0 * tau - N) ** frac))
    raise DomainValidationError(
        f"radial decay constant undefined for dimension {N:g} (1, 2, or >= 3)")


def mems_profile_constant(t: float, N: float, lambda1: float) -> float:
    """Coefficient of the R-power term in the pointwise lower estimate of
    1 - u: combines the voltage bound 4λ₁/27, the radial decay constant at
    τ = t + 3/2 and the energy factor."""
    return (4.0 * lambda1 * radial_decay_constant(t + 1.5, N) / 27.0
            * _mems_energy_base(t) ** (2.0 / t))


def _mems_radial_rhs(t: float, N: float) -> float:
    return _mems_energy_base(t) ** ((2.0 * t + 3.0) / t) / N


def _mems_radial_root(t: float, N: float, lambda1: float) -> float:
    """Largest sup-norm consistent with the radial integral inequality at
    this t: solve G(m; t) = RHS(t) for m, where G is increasing in m.

    Substituting s = R^ρ (ρ the R-exponent) flattens the near-singular
    integrand that appears when 1 - m is small."""
    try:
        with np.errstate(over="ignore"):
            rhs_val = _mems_radial_rhs(float(t), N)
    except OverflowError:
        return 1.0
    if not math.isfinite(rhs_val):
        return 1.0
    C = mems_profile_constant(t, N, lambda1)
    q = 2.0 * t + 3.0
    rho = (4.0 * t + 6.0 - 2.0 * N) / q
    if rho <= 0:
        return 1.0
    s_pow = N / rho - 1.0

    def G(m):
        integrand = lambda s: s ** s_pow / (1.0 - m + C * s) ** q
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, err = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=500)
        return val / rho

    hi = 1.0 - 1e-9
    if G(hi) <= rhs_val:
        return 1.0
    if G(0.0) >= rhs_val:
        return 0.0
    return brentq(lambda m: G(m) - rhs_val, 0.0, hi, xtol=1e-10)


def mems_ball_supnorm_bound(N: float, lambda1: Optional[float] = None,
                            t_points: int = 48) -> BoundReport:
    """Sup-norm bound for inverse-square extremals on the unit ball from the
    radial integral inequality, optimized over the window
    max(0, (N-3)/2) < t < 2+sqrt(6).

    For larger N no t pins the sup norm below 1 (the extremal really touches
    the singularity from dimension 8 on); the report then carries value 1
    and valid=False.
    """
    if not 1.0 <= N <= 11.0:
        raise DomainValidationError(f"stated for 1 <= N <= 11, got {N}")
    if N not in (1.0, 2.0) and N < 3.0:
        raise DomainValidationError(
            f"no radial decay constant for dimension {N:g}")
    if lambda1 is None:
        lambda1 = spectral.lambda1_ball(N).eigenvalue
    lo, hi = max(0.0, (N - 3.0) / 2.0), T_MAX_MEMS
    pad = 1e-6 * (hi - lo)
    ts = np.linspace(lo + pad, hi - pad, t_points)
    roots = np.array([_mems_radial_root(t, N, lambda1) for t in ts])
    i = int(np.argmin(roots))
    t_best, root_best = golden_section_min(
        lambda t: _mems_radial_root(t, N, lambda1),
        ts[max(i - 1, 0)], ts[min(i + 1, t_points - 1)], tol=1e-8)
    if root_best >= roots[i]:
        t_best, root_best = float(ts[i]), float(roots[i])
    pinned = root_best < 1.0 - 1e-9
    return BoundReport(
        "mems_ball_supnorm_bound", root_best if pinned else 1.0,
        optimizer=t_best, valid=pinned,
        reason="" if pinned else "inequality does not pin the sup norm below 1")


def mems_ball_supnorm_closed_form(N: float,
                                  lambda1: Optional[float] = None) -> BoundReport:
    """Closed-form weakening of the radial bound in dimensions 1 and 2.

    Obtained by replacing the R-power in the integral inequality by 1 (valid
    on the stated t-windows) and integrating explicitly; algebra re-derived
    from the integral inequality, dropping only sign-definite terms.
    """
    if N not in (1.0, 2.0):
        raise DomainValidationError(f"closed forms exist for N = 1, 2 only, got {N}")
    if lambda1 is None:
        lambda1 = spectral.lambda1_ball(N).eigenvalue

    def one_minus_bound(t):
        t = float(t)
        try:
            C = mems_profile_constant(t, N, lambda1)
            big = _mems_energy_base(t) ** ((2.0 * t + 3.0) / t)
        except OverflowError:
            return 0.0
        if not math.isfinite(big):
            return 0.0
        if N == 1.0:
            total = 2.0 * C * (t + 1.0) * big + C ** (-(2.0 + 2.0 * t))
            return total ** (-1.0 / (2.0 * t + 2.0))
        total = (t + 1.0) * (2.0 * t + 1.0) * C * C * big + (2.0 * t + 2.0) * C ** (1.0 - 2.0 * t)
        return total ** (-1.0 / (2.0 * t + 1.0))

    lo = 1e-6 if N == 1.0 else 0.5
    ts = np.linspace(lo, T_MAX_MEMS - 1e-6, 400)
    vals = np.array([one_minus_bound(t) for t in ts])
    i = int(np.argmax(vals))
    t_best, v_best = golden_section_max(one_minus_bound,
                                        ts[max(i - 1, 0)], ts[min(i + 1, 399)],
                                        tol=1e-10)
    return BoundReport("mems_ball_supnorm_closed_form", 1.0 - v_best,
                       optimizer=t_best)

"""Analytic bounds: pull-in voltage upper bounds, pull-in distance bounds,
and the optimized constants they depend on.

Everything here is either a closed form or the extremum of a smooth scalar
function of one variable, evaluated with a coarse scan of an `_open_window`
grid plus a bounded Brent polish (`optimize.grid_then_golden_min`).  The
estimates take a :class:`DomainStats` record, so non-ball domains are
supported by supplying the principal eigenvalue, volume, and weight
statistics directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import betainc, betaincc, betaln, gammaincc, gammaln

from . import spectral
from .errors import BracketError, DomainValidationError, QuadratureError
from .geometry import volume_unit_ball
from .nonlinearity import Family, Nonlinearity, require_mems_default
from .optimize import grid_then_golden_min

#: upper end of the t-window of every inverse-square energy estimate
T_MAX_MEMS = 2.0 + math.sqrt(6.0)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


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
        if not 1.0 <= self.N < math.inf:
            raise DomainValidationError("dimension must be finite and >= 1")
        if self.inf_f < 0 or self.sup_f <= 0:
            raise DomainValidationError("weight bounds must be nonnegative / positive")
        if not (self.inf_f <= self.f_phi_integral <= self.sup_f):
            raise DomainValidationError(
                "f_phi_integral must lie between inf_f and sup_f "
                f"({self.inf_f}, {self.f_phi_integral}, {self.sup_f})")


def ball_stats(N: float, alpha: float = 0.0) -> DomainStats:
    """DomainStats of the unit ball with weight |x|^alpha."""
    pair = spectral.lambda1_ball(N)
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

def _open_window(lo: float, hi: float, n_points: int = 2000) -> np.ndarray:
    """Scan grid of the open window (lo, hi): the ends are inset by 1e-9,
    scaled by the window width when that is larger."""
    pad = max(1e-9, 1e-9 * (hi - lo))
    return np.linspace(lo + pad, hi - pad, n_points)


def _minimized_constant(name: str, objective, N: float, window: tuple[float, float],
                        where: str, valid: bool, stated: str) -> BoundReport:
    """The minimum of `objective` over the open `window` (a scan of
    `_open_window`, then a Brent polish) in dimension N, valid when the
    estimate is stated there; NaN and invalid when the window is empty."""
    if not 1.0 <= N < math.inf:
        raise DomainValidationError(f"dimension must be finite and >= 1, got {N}")
    lo, hi = window
    if lo >= hi:
        return BoundReport(name, math.nan, valid=False,
                           reason=f"empty optimization window at {where}")
    t, val = grid_then_golden_min(objective, _open_window(lo, hi))
    return BoundReport(name, val, optimizer=t, valid=valid, reason="" if valid else stated)


def _from_constant(name: str, const: BoundReport, value) -> BoundReport:
    """The report `name` of a bound built from a minimized constant: NaN
    with the constant's reason when it has none, otherwise value(constant)
    with its optimizer and validity."""
    if math.isnan(const.value):
        return BoundReport(name, math.nan, valid=False, reason=const.reason)
    return BoundReport(name, value(const.value), optimizer=const.optimizer,
                       valid=const.valid, reason=const.reason)


def _exp_window(N: float) -> tuple[float, float]:
    return (N - 2.0) / 4.0, 2.0


def _mems_window(N: float) -> tuple[float, float]:
    return 3.0 * (N - 2.0) / 4.0, T_MAX_MEMS


def _power_window(N: float, p: float) -> tuple[float, float]:
    root = math.sqrt(p * p - p)
    return max(p - root, p * N / 4.0 - p / 2.0 + 0.5), p + root


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
    return _minimized_constant(
        "exp_supnorm_constant", lambda t: _exp_constant_objective(t, N), N, _exp_window(N),
        f"N={N:g}", 3.0 <= N <= 9.0, f"dimension {N:g} outside [3, 9]")


def _log_weight(p, R: float):
    """Integral of (-log r)^p · r over (0, R], for a float or an array of
    p >= 0 and 0 < R <= 1 (unchecked).

    With r = e^(-x/2) it is the upper incomplete gamma function
    2^(-(p+1)) Γ(p+1, -2 log R) (DLMF §8.2).  Satisfies the by-parts
    recursion Λ(p, R) = R²/2·(-log R)^p + p/2·Λ(p-1, R).  Reads +inf
    where Γ(p+1)/2^(p+1) leaves double range (p >= 200 or so).
    """
    scale = np.exp(gammaln(p + 1.0) - (p + 1.0) * math.log(2.0))
    return scale * gammaincc(p + 1.0, -2.0 * math.log(R))


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
        R = math.sqrt(stats.volume / math.pi)
        if not 0.0 < R <= 1.0:
            raise DomainValidationError(f"need 0 < R <= 1 for the log weight, got R={R}")

        def objective(t):
            lam_val = _log_weight((2.0 * t + 1.0) / (2.0 * t), R)
            return ((4.0 / (2.0 - t)) ** (1.0 / t)
                    * (stats.volume / (2.0 * math.pi)) ** (1.0 / (2.0 * t + 1.0))
                    * lam_val ** (2.0 * t / (2.0 * t + 1.0)))
        t, val = grid_then_golden_min(objective, _open_window(0.0, 2.0, 400))
        value = stats.lambda1 / math.e * val
        return BoundReport(
            "exp_supnorm_bound", value, optimizer=t, valid=contained_in_half_ball,
            reason="" if contained_in_half_ball
            else "requires the domain to lie inside a ball of radius 1/2")
    return _from_constant(
        "exp_supnorm_bound", exp_supnorm_constant(N),
        lambda K: (stats.lambda1 * K / (math.e * (N - 2.0))
                   * (stats.volume / volume_unit_ball(N)) ** (N / 2.0)))


def eigenvalue_lower_bound(N: float, volume: float) -> BoundReport:
    """λ₁(Ω) >= e(N-2)/K_N · (ω_N/|Ω|)^(N/2), the inverse reading of the
    exponential sup-norm bound combined with the distance lower bound."""
    return _from_constant(
        "eigenvalue_lower_bound", exp_supnorm_constant(N),
        lambda K: math.e * (N - 2.0) / K * (volume_unit_ball(N) / volume) ** (N / 2.0))


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
    return _minimized_constant(
        "mems_supnorm_constant", lambda t: _mems_constant_objective(t, N), N,
        _mems_window(N), f"N={N:g}", 3.0 <= N <= 7.0, f"dimension {N:g} outside [3, 7]")


def mems_supnorm_bound(stats: DomainStats) -> BoundReport:
    """Sup-norm bound for the inverse-square extremal on a general domain:
    1 - exp(-λ₁·G_N/(2(N-2)) · (|Ω|/ω_N)^(2/N)) for 3 <= N <= 7."""
    N = stats.N
    return _from_constant(
        "mems_supnorm_bound", mems_supnorm_constant(N),
        lambda G: 1.0 - math.exp(-stats.lambda1 * G / (2.0 * (N - 2.0))
                                 * (stats.volume / volume_unit_ball(N)) ** (2.0 / N)))


# ---------------------------------------------------------------------------
# sup-norm bound for the power-growth family
# ---------------------------------------------------------------------------

def _power_constant_objective(t: float, N: float, p: float) -> float:
    return ((2.0 * t * p - p - t * t) ** (-p / t)
            * (2.0 * t - 1.0) ** ((2.0 * t - 1.0) / (2.0 * t + p - 1.0) + p / t)
            * (2.0 * p) ** (p / t)
            / (N ** (p / (2.0 * t + p - 1.0))
               * (4.0 * t + 2.0 * p - 2.0 - N * p) ** ((2.0 * t - 1.0) / (2.0 * t + p - 1.0))))


def power_supnorm_constant(N: float, p: float) -> BoundReport:
    """Minimized constant of the power-growth sup-norm bound (stated for
    N = 3 or 4, p > 1)."""
    if not 1.0 < p < math.inf:
        raise DomainValidationError(f"power-growth exponent must be finite and > 1, got {p}")
    return _minimized_constant(
        "power_supnorm_constant", lambda t: _power_constant_objective(t, N, p), N,
        _power_window(N, p), f"N={N:g}, p={p:g}", N in (3.0, 4.0),
        f"stated only for N in {{3, 4}}, got {N:g}")


def power_supnorm_bound(stats: DomainStats, p: float) -> BoundReport:
    """Sup-norm bound for the power-growth extremal:
    (p-1)^(p-1)·λ₁·K_{N,p}/(p^p (N-2)) · (|Ω|/ω_N)^(2/N)."""
    if not stats.N > 2.0:
        return BoundReport("power_supnorm_bound", math.nan, valid=False,
                           reason=f"needs N > 2, got N={stats.N:g}")
    N = stats.N
    return _from_constant(
        "power_supnorm_bound", power_supnorm_constant(N, p),
        lambda K: ((p - 1.0) ** (p - 1.0) * stats.lambda1 * K / (p ** p * (N - 2.0))
                   * (stats.volume / volume_unit_ball(N)) ** (2.0 / N)))


# ---------------------------------------------------------------------------
# energy estimates for semi-stable solutions
# ---------------------------------------------------------------------------

def energy_norm_bound(F: Nonlinearity, t: float, volume: float) -> float:
    """Energy estimate for semi-stable solutions.

    Exponential (0 < t < 2):  |e^u|_{L^{2t+1}} <= (4/(2-t))^(1/t) |Ω|^(1/(2t+1)).
    Inverse square, p = 2 (0 < t < 2+sqrt(6)):
    |(1-u)^{-2}|_{L^{t+3/2}} <= (4(2t+1)/(4t+2-t²))^(2/t) |Ω|^(2/(2t+3)).
    """
    if not volume > 0:
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
    finite τ > max(1, N/2); non-integer dimensions below 3 have no stated form.
    """
    if not np.all((max(1.0, N / 2.0) < tau) & (tau < math.inf)):
        raise DomainValidationError(
            f"need max(1, N/2) = {max(1.0, N / 2.0)} < tau < inf, got {tau}")
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


def _log_radial_integral(c, a: float, q: float, C: float):
    """log ∫₀¹ s^(a-1) (c + C s)^(-q) ds, for c > 0, C > 0 and b = q - a > 0,
    on floats or on arrays of one shape.

    This is the incomplete beta function c^(-b) C^(-a) B(a, b) I_X(a, b) at
    X = C/(c + C) (DLMF §8.17), which resolves the boundary layer at s = 0
    that appears when c is small; in logarithms it never leaves double
    range.  Each point evaluates one of `betainc` and `betaincc`, and floats
    stay on `math.log`."""
    b = q - a
    X = C / (c + C)
    # the complement at X >= 1/2 keeps 1 - X = c/(c + C) exact
    if isinstance(X, np.ndarray):
        frac = betaincc(b, a, c / (c + C))
        lower = X < 0.5
        frac[lower] = betainc(a[lower], b[lower], X[lower])
        log = np.log
    else:
        frac = betainc(a, b, X) if X < 0.5 else betaincc(b, a, c / (c + C))
        log = math.log
    return -b * log(c) - a * log(C) + betaln(a, b) + log(frac)


def _mems_radial_integral(m: float, a: float, q: float, C: float) -> float:
    """∫₀¹ s^(a-1) (1 - m + C s)^(-q) ds, for 0 <= m < 1 and C > 0.

    For b = q - a > 0 this is `_log_radial_integral` at c = 1 - m, which
    reads +inf past double range.  Only b <= 0 is left to quadrature, where
    the factor s^(a-1) with a >= q damps the layer; a quadrature error
    estimate above 1e-8 of the value raises QuadratureError."""
    c = 1.0 - m
    if q - a > 0.0:
        log_val = _log_radial_integral(c, a, q, C)
        return math.exp(log_val) if log_val < _LOG_FLOAT_MAX else math.inf
    val, err = quad(lambda s: s ** (a - 1.0) / (c + C * s) ** q, 0.0, 1.0,
                    epsabs=0.0, epsrel=1e-10, limit=500)
    if not math.isfinite(val) or err > 1e-8 * abs(val):
        raise QuadratureError(
            f"radial integral failed at m={m}, a={a}, q={q} (estimate {err:.2g})")
    return val


def _mems_radial_parameters(t, N: float, lambda1: float):
    """(a, q, C, ρ) of the radial integral at t, on a float or an array:
    in s = R^ρ, G(m; t) = (1/ρ) ∫₀¹ s^(a-1) (1 - m + C s)^(-q) ds."""
    C = mems_profile_constant(t, N, lambda1)
    q = 2.0 * t + 3.0
    # positive on the scan window t > (N-3)/2
    rho = (4.0 * t + 6.0 - 2.0 * N) / q
    return N / rho, q, C, rho


#: m = 1 - 1e-9 is the largest sup-norm a root is sought below
_M_NEAR_ONE = 1.0 - 1e-9


def _mems_radial_root(t: float, N: float, lambda1: float) -> float:
    """Largest sup-norm consistent with the radial integral inequality at
    this t: the root m of G(m; t) = RHS(t), where G is increasing in m; 1
    when G(1 - 1e-9) <= RHS, 0 when G(0) >= RHS.

    Where b = q - a > 0 the integral is an incomplete beta function, and
    the root is `_log_radial_root`, the rule the scan steps by.  Otherwise
    (N >= 3, t <= 3(N-2)/4, see `_mems_radial_integral`) it is left to
    quadrature.  Where b < 0 there, (1 - m + Cs)^(-q) < (Cs)^(-q), so
    G(m; t) < C^(-q)/(ρ(a - q)) for every m < 1, and where that closed form
    is at most RHS the root is 1 without a quadrature; b = 0 and the points
    it does not settle take brentq on `quad` (xtol 1e-10)."""
    try:
        # Python-float arithmetic: past double range it raises
        rhs_val = _mems_radial_rhs(float(t), N)
    except OverflowError:
        return 1.0
    a, q, C, rho = _mems_radial_parameters(t, N, lambda1)
    if q - a > 0.0:
        return _log_radial_root(a, q, C, math.log(rho) + math.log(rhs_val))
    # in logarithms, since C^(-q) can leave double range
    if a > q and -q * math.log(C) - math.log(rho) - math.log(a - q) <= math.log(rhs_val):
        return 1.0

    def G(m):
        return _mems_radial_integral(m, a, q, C) / rho

    if G(_M_NEAR_ONE) <= rhs_val:
        return 1.0
    if G(0.0) >= rhs_val:
        return 0.0
    return brentq(lambda m: G(m) - rhs_val, 0.0, _M_NEAR_ONE, xtol=1e-10)


#: u = log(1 - m) at m = 1 - 1e-9, the end of the root's bracket near 1
_U_NEAR_ONE = math.log(1.0 - _M_NEAR_ONE)
#: Illinois steps after which `_log_radial_root` gives up (BracketError)
_ROOT_STEPS = 100


def _log_radial_root(a: float, q: float, C: float, target: float) -> float:
    """The root m of log ∫₀¹ s^(a-1) (1 - m + C s)^(-q) ds = target, for
    b = q - a > 0, on Python floats: 1 when the left side at m = 1 - 1e-9 is
    at most target, 0 when at m = 0 it is at least target.

    In u = log(1 - m) the left side (`_log_radial_integral`) is decreasing
    and close to linear, so bracketed secant steps with the Illinois halving
    (Dowell & Jarratt 1971) between u = log(1e-9) and 0 reach rounding in
    a few steps; they stop once a step moves m by at most 1e-12.  For the
    ball bound at N = 1..7 that is at most 8 integrals per root, and the
    root is within 1.1e-16 of mpmath's.  BracketError is raised when
    `_ROOT_STEPS` steps do not stop."""
    def f(u):
        return _log_radial_integral(math.exp(u), a, q, C) - target

    u0, u1 = _U_NEAR_ONE, 0.0
    f0 = f(u0)
    if f0 <= 0.0:
        return 1.0
    f1 = f(u1)
    if f1 >= 0.0:
        return 0.0
    m_last = math.nan
    # the end that the last step replaced: +1 for u0, -1 for u1
    last = 0
    for _ in range(_ROOT_STEPS):
        u = (u1 * f0 - u0 * f1) / (f0 - f1)
        fu = f(u)
        m = -math.expm1(u)
        # Illinois: an end kept for a second step in a row has its value halved
        if fu > 0.0:
            if last > 0:
                f1 *= 0.5
            u0, f0, last = u, fu, 1
        else:
            if last < 0:
                f0 *= 0.5
            u1, f1, last = u, fu, -1
        if abs(m - m_last) <= 1e-12 or fu == 0.0:
            return m
        m_last = m
    raise BracketError(f"radial root not settled in {_ROOT_STEPS} Illinois steps")


#: array steps after which a scan point falls back to `_mems_radial_root`
_SCAN_STEPS = 40


def _mems_radial_roots(t, N: float, lambda1: float):
    """`_mems_radial_root` on a float or at every point of an array of t; a
    failed quadrature reads +inf at its point and leaves the others.

    On an array, the points with b = q - a > 0 are solved together by the
    rule of `_log_radial_root`, on arrays: bracketed Illinois steps in
    u = log(1 - m) on log G(m; t) - log RHS(t) between u = log(1e-9) and 0,
    until a step moves m by at most 1e-12.  A point still open after
    `_SCAN_STEPS` steps, and every point with b <= 0, takes the scalar
    root, which settles b < 0 in closed form where it can and else takes
    `quad`.  Scan and scalar roots agree to 2 ulps."""
    if np.ndim(t) == 0:
        try:
            return _mems_radial_root(t, N, lambda1)
        except QuadratureError:
            return math.inf
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        rhs = _mems_radial_rhs(t, N)
        a, q, C, rho = _mems_radial_parameters(t, N, lambda1)
    out = np.ones_like(t)  # a right-hand side past double range pins nothing
    for i in np.flatnonzero(q - a <= 0.0):
        out[i] = _mems_radial_roots(t[i], N, lambda1)
    k = np.flatnonzero((q - a > 0.0) & np.isfinite(rhs))
    a, q, C, target = a[k], q[k], C[k], np.log(rho[k]) + np.log(rhs[k])

    def f(u, j):
        # decreasing in u; j indexes the points still unsolved
        return _log_radial_integral(np.exp(u), a[j], q[j], C[j]) - target[j]

    u0 = np.full(k.size, _U_NEAR_ONE)
    u1 = np.zeros(k.size)
    every = np.arange(k.size)
    f0, f1 = f(u0, every), f(u1, every)
    root = np.where(f0 <= 0.0, 1.0, np.where(f1 >= 0.0, 0.0, math.nan))
    live = np.flatnonzero(np.isnan(root))
    m_last = np.full(k.size, math.nan)
    # the end that the last step replaced: +1 for u0, -1 for u1
    last = np.zeros(k.size)
    for _ in range(_SCAN_STEPS):
        if live.size == 0:
            break
        u = (u1[live] * f0[live] - u0[live] * f1[live]) / (f0[live] - f1[live])
        fu = f(u, live)
        m = -np.expm1(u)
        pos = fu > 0.0
        low, high = live[pos], live[~pos]
        # Illinois: an end kept for a second step in a row has its value halved
        f1[low] *= np.where(last[low] > 0.0, 0.5, 1.0)
        f0[high] *= np.where(last[high] < 0.0, 0.5, 1.0)
        u0[low], f0[low], last[low] = u[pos], fu[pos], 1.0
        u1[high], f1[high], last[high] = u[~pos], fu[~pos], -1.0
        done = (np.abs(m - m_last[live]) <= 1e-12) | (fu == 0.0)
        root[live[done]] = m[done]
        m_last[live] = m
        live = live[~done]
    for j in live:
        root[j] = _mems_radial_root(t[k[j]], N, lambda1)
    out[k] = root
    return out


def mems_ball_supnorm_bound(N: float, lambda1: Optional[float] = None) -> BoundReport:
    """Sup-norm bound for inverse-square extremals on the unit ball from the
    radial integral inequality, optimized over the window
    max(0, (N-3)/2) < t < 2+sqrt(6).

    The scan solves its 48 roots as one array (`_mems_radial_roots`); the
    polish takes the scalar root (`_mems_radial_root`) at each of its
    points, by the same Illinois rule on floats, at most 8 integrals a
    root.  At N = 1..7 the bound is within 1.1e-16 of mpmath's root at its
    reported optimizer.  For larger N no t pins the sup norm below 1 (the
    extremal really touches the singularity from dimension 8 on); the
    report then carries value 1, valid=False and no optimizer.
    """
    if not 1.0 <= N <= 11.0:
        raise DomainValidationError(f"stated for 1 <= N <= 11, got {N}")
    if N not in (1.0, 2.0) and N < 3.0:
        raise DomainValidationError(
            f"no radial decay constant for dimension {N:g}")
    if lambda1 is None:
        lambda1 = spectral.lambda1_ball(N).eigenvalue
    t_best, root_best = grid_then_golden_min(
        lambda t: _mems_radial_roots(t, N, lambda1),
        _open_window(max(0.0, (N - 3.0) / 2.0), T_MAX_MEMS, 48))
    pinned = root_best < _M_NEAR_ONE
    return BoundReport(
        "mems_ball_supnorm_bound", root_best if pinned else 1.0,
        optimizer=t_best if pinned else None, valid=pinned,
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
        C = mems_profile_constant(t, N, lambda1)
        big = _mems_energy_base(t) ** ((2.0 * t + 3.0) / t)
        if N == 1.0:
            total = 2.0 * C * (t + 1.0) * big + C ** (-(2.0 + 2.0 * t))
            val = total ** (-1.0 / (2.0 * t + 2.0))
        else:
            total = ((t + 1.0) * (2.0 * t + 1.0) * C * C * big
                     + (2.0 * t + 2.0) * C ** (1.0 - 2.0 * t))
            val = total ** (-1.0 / (2.0 * t + 1.0))
        return np.where(np.isfinite(big), val, 0.0)

    # maximize 1 - bound: minimize its negative
    t_best, neg = grid_then_golden_min(
        lambda t: -one_minus_bound(t),
        _open_window(0.0 if N == 1.0 else 0.5, T_MAX_MEMS, 400))
    return BoundReport("mems_ball_supnorm_closed_form", 1.0 + neg,
                       optimizer=t_best)

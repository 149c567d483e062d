"""Power-law weights, the fractional-dimension reduction, and explicit
singular extremals with their voltage asymptotics.

For radial solutions the substitution u(r) = w(r^(1+α/2)) turns the weighted
problem -Δ_N u = λ (1+α/2)² |x|^α F(u) on the unit ball into the constant-
profile problem -Δ_{N(α)} w = λ F(w) in the effective (generally fractional)
dimension N(α) = 2(N+α)/(2+α).  Center values are preserved, so the pull-in
distance is invariant under the reduction; voltages pick up the factor
(1+α/2)².  In dimension 2 the reduction fixes N(α) = 2 for every α, which is
why the disc pull-in distance does not depend on the weight exponent.

Both regimes are read off the singular point of the family's Emden-Fowler
trajectory (`ScalingLaw.singular_point`): the folds spiral into it where its
Jacobian is a spiral (Joseph-Lundgren 1973), and the singular solution is
the extremal where it lies in H¹ and is semi-stable under Hardy's
inequality (Brezis-Vázquez 1997).  Above the critical effective dimensions
that extremal is explicit, and its profile and voltage derivative feed
two-sided pointwise envelopes for the minimal solutions near pull-in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainValidationError
from .nonlinearity import Family, Nonlinearity, require_mems_default

#: effective dimension above which the inverse-square extremal is singular
MEMS_CRITICAL_DIMENSION = (14.0 + 4.0 * math.sqrt(6.0)) / 3.0  # 7.9330...
#: effective dimension above which regular-family extremals can be singular
REGULAR_CRITICAL_DIMENSION = 10.0


class Regularity(enum.Enum):
    CLASSICAL = "classical"
    SINGULAR = "singular"


@dataclass(frozen=True)
class TransformResult:
    """Effective dimension and scaling factors of the power-law reduction."""

    N_eff: float
    voltage_factor: float
    radius_exponent: float


def dim_transform(N: float, alpha: float) -> TransformResult:
    """Reduction data for weight |x|^α in dimension N.

    N_eff = 2(N+α)/(2+α) is monotone in α (increasing for N < 2, decreasing
    for N > 2, constant = 2 at N = 2) and tends to 2 as α grows.
    """
    if not 1.0 <= N < math.inf:
        raise DomainValidationError(f"dimension must be finite and >= 1, got {N}")
    if not -2.0 < alpha < math.inf:
        raise DomainValidationError(f"weight exponent must be finite and > -2, got {alpha}")
    half = 1.0 + alpha / 2.0
    return TransformResult(2.0 * (N + alpha) / (2.0 + alpha), half * half, half)


def alpha_critical_mems(N: float) -> float:
    """Weight exponent above which the inverse-square extremal turns classical
    in dimension N >= 8; equals (3N - 14 - 4·sqrt(6)) / (4 + 2·sqrt(6))."""
    s6 = math.sqrt(6.0)
    return (3.0 * N - 14.0 - 4.0 * s6) / (4.0 + 2.0 * s6)


def classify_regularity(F: Nonlinearity, N: float, alpha: float = 0.0) -> Regularity:
    """Classical (bounded extremal) versus singular regime: singular iff
    N(α) > 2, c > 0, trace < 0 and disc >= 0 at the singular point in N(α)
    (`ScalingLaw.singular_point`).  N > 2 is where a Hardy inequality holds,
    c > 0 where u_s exists, and trace < 0 puts u_s in H¹ (p > (N+2)/(N-2)
    for (1+u)^p).  disc >= 0 is its Hardy semi-stability: (N-2)(N-10) >= 0
    for e^u, 9N² - 84N + 100 >= 0 for the inverse square, p at least the
    Joseph-Lundgren exponent for (1+u)^p.  The inverse square needs N > 2:
    at 4/3 < N <= (14 - 4·sqrt(6))/3 its J is a stable node, yet it folds.
    """
    N_eff = dim_transform(N, alpha).N_eff
    if F.family is Family.MEMS_INVERSE_POWER:
        require_mems_default(F, "regularity classification")
    _, c, trace, disc = F.scaling_law().singular_point(N_eff)
    singular = N_eff > 2.0 and c > 0.0 and trace < 0.0 and disc >= 0.0
    return Regularity.SINGULAR if singular else Regularity.CLASSICAL


@dataclass(frozen=True)
class SingularExtremal:
    """Closed-form singular extremal profile and its pull-in voltage.

    Inverse-square family: u*(r) = 1 - r^((2+α)/3) at
    λ* = (2+α)(3N+α-4)/9.  Exponential family (α = 0 only):
    u*(r) = -2 log r at λ* = 2N - 4.
    """

    F: Nonlinearity
    N: float
    alpha: float
    lambda_star: float

    def value(self, r):
        r = np.asarray(r, dtype=float)
        if self.F.family is Family.MEMS_INVERSE_POWER:
            return 1.0 - r ** ((2.0 + self.alpha) / 3.0)
        return -2.0 * np.log(r)

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        if self.F.family is Family.MEMS_INVERSE_POWER:
            s = (2.0 + self.alpha) / 3.0
            return -s * r ** (s - 1.0)
        return -2.0 / r

    def deriv2(self, r):
        r = np.asarray(r, dtype=float)
        if self.F.family is Family.MEMS_INVERSE_POWER:
            s = (2.0 + self.alpha) / 3.0
            return -s * (s - 1.0) * r ** (s - 2.0)
        return 2.0 / r ** 2

    def ode_residual(self, r):
        """-u'' - (N-1)/r u' - λ* r^α F(u), identically zero in exact arithmetic."""
        r = np.asarray(r, dtype=float)
        lhs = -self.deriv2(r) - (self.N - 1.0) / r * self.deriv(r)
        return lhs - self.lambda_star * r ** self.alpha * self.F.value(self.value(r))


def singular_extremal(F: Nonlinearity, N: float, alpha: float = 0.0) -> SingularExtremal:
    """The explicit singular extremal, available only in the singular regime.

    The exponential case requires α = 0 (no explicit weighted profile exists;
    use the dimension reduction instead)."""
    if classify_regularity(F, N, alpha) is not Regularity.SINGULAR:
        raise DomainValidationError(
            f"({F.label()}, N={N}, alpha={alpha}) is in the classical regime")
    if F.family is Family.MEMS_INVERSE_POWER:
        require_mems_default(F, "singular extremal")
        lam = (2.0 + alpha) * (3.0 * N + alpha - 4.0) / 9.0
        return SingularExtremal(F, N, alpha, lam)
    if F.family is Family.EXPONENTIAL:
        if alpha != 0.0:
            raise DomainValidationError(
                "no explicit weighted extremal for the exponential family; "
                "transform to the effective dimension instead")
        return SingularExtremal(F, N, 0.0, 2.0 * N - 4.0)
    raise DomainValidationError(
        f"no explicit singular extremal for family {F.label()}")


@dataclass(frozen=True)
class RateProfile:
    """Voltage derivative of the solution at pull-in, v* = d u_λ/dλ at λ*.

    Closed form A (r^(-decay) - r^(source_power)): the decaying power is the
    smaller root of the linearized indicial equation, the second term is the
    particular solution driven by F(u*).  For the exponential family
    F(u*) = F'(u*) makes the particular solution constant (source_power = 0);
    for the inverse-square family it is a multiple of r^(2/3).
    """

    F: Nonlinearity
    N: float
    amplitude: float
    decay: float
    source_power: float

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return self.amplitude * (r ** (-self.decay) - r ** self.source_power)

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        sp = self.source_power
        return self.amplitude * (-self.decay * r ** (-self.decay - 1.0)
                                 - (sp * r ** (sp - 1.0) if sp else 0.0))

    def deriv2(self, r):
        r = np.asarray(r, dtype=float)
        sp = self.source_power
        d = self.decay
        return self.amplitude * (d * (d + 1.0) * r ** (-d - 2.0)
                                 - (sp * (sp - 1.0) * r ** (sp - 2.0) if sp else 0.0))

    def linearized_residual(self, r, extremal: SingularExtremal):
        """-Δv - F(u*) - λ* F'(u*) v, zero when v solves the rate equation."""
        r = np.asarray(r, dtype=float)
        ustar = extremal.value(r)
        lhs = -self.deriv2(r) - (self.N - 1.0) / r * self.deriv(r)
        return lhs - self.F.value(ustar) - extremal.lambda_star * self.F.deriv(ustar) * self.value(r)


def extremal_voltage_rate(F: Nonlinearity, N: float) -> RateProfile:
    """Closed-form v* for the explicit singular extremals (α = 0), from the
    singular point (`ScalingLaw.singular_point`): amplitude 1/(2c), decay
    (c + σq* - sqrt(disc))/2 and source power -σq* (0.0, not -0.0, for e^u).
    That is 1/(2N-4), (N-2)/2 - sqrt(N²-12N+20)/2 and 0 for e^u, and
    3/(6N-8), (N-2)/2 - sqrt(9N²-84N+100)/6 and 2/3 for the inverse square."""
    if F.family is Family.POWER_GROWTH or classify_regularity(F, N) is Regularity.CLASSICAL:
        raise DomainValidationError(f"no voltage rate profile for {F.label()} at N={N}")
    law = F.scaling_law()
    q_star, c, _, disc = law.singular_point(N)
    sq = law.sigma * q_star
    return RateProfile(F, N, 1.0 / (2.0 * c), (c + sq - math.sqrt(disc)) / 2.0, 0.0 - sq)


@dataclass(frozen=True)
class EnvelopePair:
    """Two-sided pointwise envelopes for the minimal solution at voltage lam.

    upper comes from the explicit supersolution built on u*; lower is the
    first-order voltage expansion u* + (lam - λ*) v*, clamped at zero since
    the solution is nonnegative while the expansion can dip below zero near
    the boundary.
    """

    lam: float
    extremal: SingularExtremal
    rate: RateProfile

    def lower(self, r):
        raw = self.extremal.value(r) + (self.lam - self.extremal.lambda_star) * self.rate.value(r)
        return np.maximum(raw, 0.0)

    def upper(self, r):
        r = np.asarray(r, dtype=float)
        lam_star = self.extremal.lambda_star
        if self.extremal.F.family is Family.MEMS_INVERSE_POWER:
            return (self.lam / lam_star) ** (1.0 / 3.0) * self.extremal.value(r)
        # exp(-u*) = r^2 for the exponential extremal
        return np.log(lam_star / (lam_star - self.lam + self.lam * r ** 2))


def asymptotic_envelopes(F: Nonlinearity, N: float, lam: float) -> EnvelopePair:
    """Envelopes for the minimal solution in the singular regime, 0 < lam < λ*."""
    extremal = singular_extremal(F, N, 0.0)
    if not 0.0 < lam < extremal.lambda_star:
        raise DomainValidationError(
            f"voltage {lam} outside (0, λ* = {extremal.lambda_star:.6g})")
    rate = extremal_voltage_rate(F, N)
    return EnvelopePair(lam, extremal, rate)

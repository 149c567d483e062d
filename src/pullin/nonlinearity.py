"""The three source-term families of the eigenvalue problem -Δu = λ f F(u).

Each family is smooth, increasing and convex on its domain [0, a) with
F(0) = 1.  The regular families (exponential and power growth) live on
[0, ∞); the inverse-power family blows up at u = 1, which is the MEMS
touchdown singularity.

Two scalar constants drive the voltage bounds: the largest value of u/F(u)
over the domain, and the integral of 1/F over the domain.  Both have closed
forms for every family and are exposed through :meth:`Nonlinearity.voltage_constants`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainValidationError


class Family(enum.Enum):
    EXPONENTIAL = "exponential"
    MEMS_INVERSE_POWER = "mems"
    POWER_GROWTH = "power"


class VoltageConstants(NamedTuple):
    """Closed-form constants used by the pull-in voltage and distance bounds."""

    sup_ratio: float       # sup of u / F(u) over [0, a)
    recip_integral: float  # integral of du / F(u) over [0, a)


class ScalingLaw(NamedTuple):
    """The scaling symmetry of w'' + (N-1)/r w' + F(w) = 0 (Gelfand 1963;
    Joseph-Lundgren 1973), which maps the solution w₀ with center value 0
    onto the solution with any center value m.

    Along w₀, the level ℓ ≥ 0 of m is the drop d = -w₀ read on the
    family's own scale: ℓ = d for e^u (σ = 0), log(1 + d) for (1-u)^(-p)
    (σ = -1) and -log(1 - d) for (1+u)^p (σ = +1).  The solution with
    center value m = (e^(σℓ) - 1)/σ has its first zero where w₀ has dropped
    to level ℓ, and its voltage is λ = ρ² e^(-κℓ) at that radius ρ of w₀.
    """

    kappa: float
    sigma: float

    def level(self, m):
        """ℓ of the center value m: m, -log(1-m) or log(1+m)."""
        return m if not self.sigma else np.log1p(self.sigma * m) / self.sigma

    def center_value(self, level):
        """m of the level ℓ: ℓ, 1 - e^(-ℓ) or e^ℓ - 1."""
        return level if not self.sigma else np.expm1(self.sigma * level) / self.sigma

    def drop_level(self, drop: float) -> float:
        """ℓ of the drop d = -w₀ along w₀: d, log(1+d) or -log(1-d)."""
        return drop if not self.sigma else -math.log1p(-self.sigma * drop) / self.sigma

    def singular_point(self, N: float):
        """(q*, c, trace, disc) of the singular point (y*, q*) of the equations
        of `Nonlinearity.scaling_law` in dimension N: q* = 2/κ, c = N - 2 - σq*
        (e^(y*) = q*c where c > 0), and the trace σq* - c and discriminant
        trace² - 8c of its Jacobian, whose determinant is 2c."""
        q_star = 2.0 / self.kappa
        c = N - 2.0 - self.sigma * q_star
        trace = self.sigma * q_star - c
        return q_star, c, trace, trace * trace - 8.0 * c


@dataclass(frozen=True)
class Nonlinearity:
    """One member of the three supported families.

    `p` is the exponent for the inverse-power and power-growth families and is
    ignored for the exponential family.  Each family writes its derivatives
    once (`derivative`) and its scaling symmetry once (`scaling_law`): the
    solutions of w'' + (N-1)/r w' + F(w) = 0 for all center values are
    rescalings of the one with center value 0, which is what lets a whole
    branch come from one run.
    """

    family: Family
    p: float = 0.0

    def __post_init__(self):
        if self.family is Family.MEMS_INVERSE_POWER and not 0 < self.p < math.inf:
            raise DomainValidationError(
                f"inverse-power exponent must be finite and > 0, got {self.p}")
        if self.family is Family.POWER_GROWTH and not 1 < self.p < math.inf:
            raise DomainValidationError(
                f"power-growth exponent must be finite and > 1, got {self.p}")

    # -- domain ------------------------------------------------------------

    @property
    def endpoint(self) -> float:
        """Upper end of the domain: 1 for the singular family, inf otherwise."""
        return 1.0 if self.family is Family.MEMS_INVERSE_POWER else math.inf

    @property
    def is_singular(self) -> bool:
        return self.family is Family.MEMS_INVERSE_POWER

    def label(self) -> str:
        if self.family is Family.EXPONENTIAL:
            return "exp"
        return f"{self.family.value}(p={self.p:g})"

    def _check_domain(self, u) -> None:
        u = np.asarray(u)
        if np.any(u < 0) or np.any(u >= self.endpoint):
            raise DomainValidationError(
                f"argument outside [0, {self.endpoint}) for {self.label()}")

    # -- evaluation ----------------------------------------------------------

    def value(self, u):
        """F(u).  Rejects arguments outside [0, endpoint)."""
        self._check_domain(u)
        return self.derivative(0)(u)

    def deriv(self, u):
        """F'(u)."""
        self._check_domain(u)
        return self.derivative(1)(u)

    def derivative(self, order: int) -> Callable:
        """u -> the derivative of F of the given order at u (a float or an
        array), without the domain check: e^u, p(p+1)...(p+order-1)
        (1-u)^-(p+order) or p(p-1)...(p-order+1) (1+u)^(p-order).  For
        callers that keep u in [0, endpoint) by construction, such as the
        right-hand side of the radial core.  The exponential gives a float
        the bits it gives an array; on a float the powers are C `pow`, which
        may differ from numpy's vectorized power in the last bit.
        """
        if self.family is Family.EXPONENTIAL:
            return np.exp
        p, c = self.p, 1.0
        # F itself skips the multiply by c = 1: it runs in every RHS call
        if self.family is Family.MEMS_INVERSE_POWER:
            for j in range(order):
                c *= p + j
            e = -(p + order)
            return (lambda u: (1.0 - u) ** e) if order == 0 else (lambda u: c * (1.0 - u) ** e)
        for j in range(order):
            c *= p - j
        e = p - order
        return (lambda u: (1.0 + u) ** e) if order == 0 else (lambda u: c * (1.0 + u) ** e)

    def scaling_law(self) -> ScalingLaw:
        """(κ, σ) of the family's scaling symmetry (see `ScalingLaw`):
        (1, 0) for e^u, (p+1, -1) for (1-u)^(-p) and (p-1, +1) for
        (1+u)^p.  With a = log ρ, q = dℓ/da and y = log λ along w₀,

            dy/da = 2 - κq,    dq/da = (2-N) q + σq² + e^y,

        so dλ/dm = 0 where q = 2/κ.
        """
        if self.family is Family.EXPONENTIAL:
            return ScalingLaw(1.0, 0.0)
        if self.family is Family.MEMS_INVERSE_POWER:
            return ScalingLaw(self.p + 1.0, -1.0)
        return ScalingLaw(self.p - 1.0, 1.0)

    def deriv_inverse(self, z: float) -> float:
        """The unique v >= 0 with F'(v) = z, clamped to 0 for z < F'(0).

        Closed forms: exponential -> log z; inverse power ->
        1 - (p/z)^(1/(p+1)); power growth -> (z/p)^(1/(p-1)) - 1.
        """
        if z < 0:
            raise DomainValidationError(f"deriv_inverse needs z >= 0, got {z}")
        if self.family is Family.EXPONENTIAL:
            return math.log(z) if z >= 1.0 else 0.0
        if self.family is Family.MEMS_INVERSE_POWER:
            if z <= self.p:
                return 0.0
            return 1.0 - (self.p / z) ** (1.0 / (self.p + 1.0))
        if z <= self.p:
            return 0.0
        return (z / self.p) ** (1.0 / (self.p - 1.0)) - 1.0

    # -- derived constants -----------------------------------------------------

    def voltage_constants(self) -> VoltageConstants:
        """Closed forms of sup u/F(u) and of the integral of 1/F.

        exponential:    (1/e, 1)
        inverse power:  (p^p/(p+1)^(p+1), 1/(p+1))
        power growth:   ((p-1)^(p-1)/p^p, 1/(p-1))
        """
        if self.family is Family.EXPONENTIAL:
            return VoltageConstants(1.0 / math.e, 1.0)
        p = self.p
        if self.family is Family.MEMS_INVERSE_POWER:
            return VoltageConstants(p ** p / (p + 1.0) ** (p + 1.0), 1.0 / (p + 1.0))
        return VoltageConstants((p - 1.0) ** (p - 1.0) / p ** p, 1.0 / (p - 1.0))


def exponential() -> Nonlinearity:
    """F(u) = e^u on [0, inf)."""
    return Nonlinearity(Family.EXPONENTIAL)


def mems_inverse_power(p: float = 2.0) -> Nonlinearity:
    """F(u) = (1-u)^(-p) on [0, 1); p = 2 is the MEMS membrane default."""
    return Nonlinearity(Family.MEMS_INVERSE_POWER, p)


def power_growth(p: float) -> Nonlinearity:
    """F(u) = (1+u)^p on [0, inf), p > 1."""
    return Nonlinearity(Family.POWER_GROWTH, p)


def require_mems_default(F: Nonlinearity, context: str) -> None:
    """Several closed-form results hold only for the inverse-square family."""
    if F.family is not Family.MEMS_INVERSE_POWER or F.p != 2.0:
        raise DomainValidationError(
            f"{context} requires the inverse-power family with p = 2, got {F.label()}")

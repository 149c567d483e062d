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


@dataclass(frozen=True)
class Nonlinearity:
    """One member of the three supported families.

    `p` is the exponent for the inverse-power and power-growth families and is
    ignored for the exponential family.
    """

    family: Family
    p: float = 0.0

    def __post_init__(self):
        if self.family is Family.MEMS_INVERSE_POWER and not self.p > 0:
            raise DomainValidationError(f"inverse-power exponent must be > 0, got {self.p}")
        if self.family is Family.POWER_GROWTH and not self.p > 1:
            raise DomainValidationError(f"power-growth exponent must be > 1, got {self.p}")

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
        return self.unchecked(0, u)

    def deriv(self, u):
        """F'(u)."""
        self._check_domain(u)
        return self.unchecked(1, u)

    def deriv2(self, u):
        """F''(u) (nonnegative: all families are convex)."""
        self._check_domain(u)
        return self.unchecked(2, u)

    def deriv3(self, u):
        """F'''(u)."""
        self._check_domain(u)
        return self.unchecked(3, u)

    def unchecked(self, order: int, u):
        """The derivative of F of the given order at u (scalar or array),
        without the domain check: e^u, p(p+1)...(p+order-1) (1-u)^-(p+order)
        or p(p-1)...(p-order+1) (1+u)^(p-order).  For callers that keep u in
        [0, endpoint) by construction."""
        if self.family is Family.EXPONENTIAL:
            return np.exp(u)
        p, c = self.p, 1.0
        if self.family is Family.MEMS_INVERSE_POWER:
            for j in range(order):
                c *= p + j
            return c * (1.0 - u) ** (-(p + order))
        for j in range(order):
            c *= p - j
        return c * (1.0 + u) ** (p - order)

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

    def fast_callables(self) -> tuple[Callable[[float], float], Callable[[float], float]]:
        """Unchecked (F, F') for a float or an array: the right-hand side of
        the radial core, which keeps its argument in [0, endpoint).  On an
        array they are the expressions of `unchecked(0, ·)` and
        `unchecked(1, ·)`, bit for bit.  The exponential pair is `np.exp`,
        which gives a float the bits it gives an array; on a float the
        powers are C `pow`, which may differ from numpy's vectorized power
        in the last bit.
        """
        if self.family is Family.EXPONENTIAL:
            return np.exp, np.exp
        p = self.p
        if self.family is Family.MEMS_INVERSE_POWER:
            return (lambda u: (1.0 - u) ** (-p),
                    lambda u: p * (1.0 - u) ** (-(p + 1.0)))
        return (lambda u: (1.0 + u) ** p, lambda u: p * (1.0 + u) ** (p - 1.0))

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

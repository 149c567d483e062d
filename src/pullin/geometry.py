"""Volumes of unit balls in real (possibly fractional) dimension."""

import math

from .errors import DomainValidationError


def volume_unit_ball(N: float) -> float:
    """Volume of the unit ball in dimension N, pi^(N/2) / Gamma(N/2 + 1).

    N may be fractional; math.gamma carries relative error below 1e-12
    over the range used here (N <= 50 or so).  From N = 342 on, Γ(N/2 + 1)
    leaves double range and the call raises DomainValidationError.
    """
    if not 0.0 < N < math.inf:
        raise DomainValidationError(f"dimension must be positive and finite, got {N}")
    try:
        gamma = math.gamma(N / 2.0 + 1.0)
    except OverflowError:
        raise DomainValidationError(
            f"Gamma(N/2 + 1) of the unit-ball volume overflows double range "
            f"at N={N:g}") from None
    return math.pi ** (N / 2.0) / gamma

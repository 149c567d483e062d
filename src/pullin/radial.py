"""Center series of the regular radial solution.

Both radial integrators start from these series: `branch.shoot` for the
profile w and its tangent z = ∂w/∂m, and the eigen-shots of `spectral` for
the profile u and the eigenfunction psi of the linearized operator.  The
removable singularity of (N-1)/r at r = 0 rules out starting at the center,
so each integration starts at a small seed radius where the series is still
exact to the integrator tolerance.
"""

from __future__ import annotations

from .nonlinearity import Nonlinearity


def center_series(F: Nonlinearity, N: float, k: float, m: float,
                  lam: float = 1.0, mu: float = 0.0):
    """Coefficients of the regular solutions near the center in s = r^k:
    w = m + a1 s + a2 s² + a3 s³ of

        w'' + (N-1)/r w' + λ r^(k-2) F(w) = 0,   w(0) = m,

    and y = 1 + b1 s + b2 s² + b3 s³ of the linear mode

        y'' + (N-1)/r y' + r^(k-2) (μ + λ F'(w)) y = 0,   y(0) = 1.

    With λ = 1 and μ = 0, y is the tangent z = ∂w/∂m; with k = 2, y is the
    eigenfunction of -Δ - λF'(w) at the trial eigenvalue μ.  Matching powers
    of s gives a_j = -λ [s^(j-1)] F(w) / (jk(jk+N-2)) and
    b_j = -[s^(j-1)] (μ + λF'(w)) y / (jk(jk+N-2)), so a_j carries λ^j.
    """
    F0, F1, F2, F3 = (float(d(m)) for d in (F.value, F.deriv, F.deriv2, F.deriv3))
    c1, c2, c3 = (j * k * (j * k + N - 2.0) for j in (1.0, 2.0, 3.0))
    a1 = -lam * F0 / c1
    a2 = -lam * F1 * a1 / c2
    a3 = -lam * (F1 * a2 + 0.5 * F2 * a1 * a1) / c3
    v0 = mu + lam * F1  # the potential's value at the center
    b1 = -v0 / c1
    b2 = -(v0 * b1 + lam * F2 * a1) / c2
    b3 = -(v0 * b2 + lam * F2 * (a2 + a1 * b1) + lam * 0.5 * F3 * a1 * a1) / c3
    return (a1, a2, a3), (b1, b2, b3)


def series_value(coeffs, base, s):
    """base + c1 s + c2 s² + c3 s³ (scalar or array s)."""
    c1, c2, c3 = coeffs
    return base + s * (c1 + s * (c2 + s * c3))


def series_state(coeffs, base: float, s: float, k: float, eps: float):
    """Value and r-derivative of base + c1 s + c2 s² + c3 s³ at r = eps."""
    c1, c2, c3 = coeffs
    return (series_value(coeffs, base, s),
            k * s / eps * (c1 + s * (2.0 * c2 + 3.0 * s * c3)))

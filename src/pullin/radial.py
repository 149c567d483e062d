"""The radial integration core: center series, lane seed and right-hand
side in the profile variable.

Every radial integration is a run of this core: `branch` shoots a grid of
center values as lanes, and each eigen-shot of `spectral` is a one-lane run
with a shift ν in the tangent equation.  A run integrates, for each center
value m, the profile w with its linear mode z,

    w'' + (N-1)/r w' + r^α F(w) = 0,             w(0) = m,
    z'' + (N-1)/r z' + r^α (ν + F'(w)) z = 0,    z(0) = 1,

in τ ∈ [τ₀, 1] with w = m(1 - τ²), so the first zero of w is the fixed
endpoint τ = 1 and the radius r is an unknown.  At ν = 0, z = ∂w/∂m.  The
removable singularity of (N-1)/r at r = 0 rules out starting at the
center, so each run from the center starts at a small seed radius where
the center series is still exact to the integrator tolerance (the right
half-runs of `spectral` start from the edge values at τ = 1 and go back).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainValidationError
from .nonlinearity import Nonlinearity


def center_series(F: Nonlinearity, N: float, k: float, m: float, nu: float = 0.0):
    """Coefficients of the regular solutions near the center in s = r^k:
    w = m + a1 s + a2 s² + a3 s³ of

        w'' + (N-1)/r w' + r^(k-2) F(w) = 0,   w(0) = m,

    and y = 1 + b1 s + b2 s² + b3 s³ of the linear mode

        y'' + (N-1)/r y' + r^(k-2) (ν + F'(w)) y = 0,   y(0) = 1.

    With ν = 0, y is the tangent z = ∂w/∂m.  Matching powers of s gives
    a_j = -[s^(j-1)] F(w) / (jk(jk+N-2)) and
    b_j = -[s^(j-1)] (ν + F'(w)) y / (jk(jk+N-2)).
    Raises DomainValidationError when a coefficient overflows double range
    (for the exponential from m ≈ 236 on).
    """
    F0, F1, F2, F3 = (float(d(m)) for d in (F.value, F.deriv, F.deriv2, F.deriv3))
    c1, c2, c3 = (j * k * (j * k + N - 2.0) for j in (1.0, 2.0, 3.0))
    a1 = -F0 / c1
    a2 = -F1 * a1 / c2
    a3 = -(F1 * a2 + 0.5 * F2 * a1 * a1) / c3
    v0 = nu + F1  # the potential's value at the center
    b1 = -v0 / c1
    b2 = -(v0 * b1 + F2 * a1) / c2
    b3 = -(v0 * b2 + F2 * (a2 + a1 * b1) + 0.5 * F3 * a1 * a1) / c3
    if not all(map(math.isfinite, (a1, a2, a3, b1, b2, b3))):
        raise DomainValidationError(
            f"center series of {F.label()} overflows double range at m={m:g}")
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


def lane_seed(F: Nonlinearity, N: float, ms: np.ndarray, tol: float,
              alpha: float = 0.0, nu: float = 0.0):
    """Common start τ₀ and initial state (r, w', z, z') of a run over the
    center values `ms`.

    Each lane's seed s = r^(2+α) is where the last term of its third-order
    center series falls to tol (relative to m for w), so the series
    remainder stays below tol.  All lanes then start at the smallest
    σ₀ = τ₀² among them: each takes the s where its series reads
    w = m(1 - σ₀), which only shrinks its remainder.

    Returns (τ₀, initial state, seed radii, center series (3, n) of w).
    """
    k = 2.0 + alpha
    series = [center_series(F, N, k, m, nu) for m in ms]
    a = np.array([ai for ai, _ in series]).T
    b = np.array([bi for _, bi in series]).T
    # the last clause keeps the seed well inside the curvature length m / |a1|
    s = np.minimum.reduce([(tol * ms / np.abs(a[2])) ** (1.0 / 3.0),
                           (tol / np.abs(b[2])) ** (1.0 / 3.0), 0.1 * ms / np.abs(a[0])])
    sigma0 = float(np.min(-series_value(a, 0.0, s) / ms))
    # Newton on the cubic from its linear root, where a1 s dominates (two
    # steps reach rounding level on the default grids, and one lane meets a
    # step of exactly 0 after three or four)
    drop = ms * sigma0
    s = -drop / a[0]
    for _ in range(6):
        step = series_value(a, drop, s) / (a[0] + s * (2.0 * a[1] + 3.0 * s * a[2]))
        if not step.any():
            break  # every later step would be exactly 0 as well
        s -= step
    eps = s ** (1.0 / k)
    y0 = np.concatenate((eps, series_state(a, ms, s, k, eps)[1],
                         *series_state(b, 1.0, s, k, eps)))
    return math.sqrt(sigma0), y0, eps, a


def lane_rhs(F: Nonlinearity, N: float, ms: np.ndarray, alpha: float = 0.0,
             nu: float = 0.0, weight: bool = False):
    """Right-hand side d/dτ of the rows (r, w', z, z') of every lane, with
    d/dτ = (dr/dτ) d/dr and dr/dτ = -2mτ/w'.

    Near the center (α = 0) w' ~ r and m - w ~ r², so dr/dτ stays finite,
    where dr/dσ in σ = τ² would blow up like σ^(-1/2).  Since w stays in
    [0, m], F and F' need no domain check.  One lane runs on Python floats:
    its numpy arithmetic would cost more in call overhead than the formula.
    With `weight` (one lane only) a fifth row carries the weighted square
    integral ∫ r^(N-1) z² dr of the linear mode.
    """
    c = N - 1.0

    if len(ms) == 1:
        m = float(ms[0])
        f1, fp1 = F.fast_callables()

        def rhs(tau, y):
            r, dw, z, dz = y.tolist()[:4]
            tau = float(tau)
            w = m * (1.0 - tau * tau)
            dr = -2.0 * tau * m / dw
            f, fp = f1(w), fp1(w) + nu
            if alpha:
                ra = r ** alpha
                f, fp = ra * f, ra * fp
            cr = c / r
            rows = (dr, -(f + cr * dw) * dr, dz * dr, -(fp * z + cr * dz) * dr)
            return rows + (r ** c * z * z * dr,) if weight else rows
    else:
        def rhs(tau, y):
            r, dw, z, dz = y.reshape(4, -1)
            w = ms * (1.0 - tau * tau)
            dr = -2.0 * tau * ms / dw
            f, fp = F.unchecked(0, w), F.unchecked(1, w) + nu
            if alpha:
                ra = r ** alpha
                f, fp = ra * f, ra * fp
            cr = c / r
            return np.concatenate((dr, -(f + cr * dw) * dr, dz * dr,
                                   -(fp * z + cr * dz) * dr))

    return rhs

"""Derivative-free 1-D optimization: golden-section search plus grid scans.

Every optimized constant and scan-optimized bound in this library is the
extremum of a smooth scalar function on an open interval.  The one recipe is
`grid_then_golden_min`: a coarse scan on the caller's grid localizes the
extremum (guarding against multiple local extrema), and a golden-section
polish on the bracketing grid cells refines it.  The scan is one call of the
objective on the whole grid array; the polish calls it on single points.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureError

_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f: Callable[[float], float], a: float, b: float,
                       tol: float = 1e-10) -> tuple[float, float]:
    """Minimize f on [a, b] to a bracket of width tol (at most 400 golden
    steps); returns (argmin, min). f is assumed unimodal there."""
    x1 = b - _INV_GOLD * (b - a)
    x2 = a + _INV_GOLD * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(400):
        if b - a <= tol:
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLD * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLD * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def grid_then_golden_min(f: Callable, grid,
                         tol: float = 1e-10) -> tuple[float, float]:
    """Minimize f over the scan points `grid`, then polish by golden section
    over the two grid cells around the grid minimum; returns the better of
    the polished point and the grid point.

    f takes the whole grid as one array and returns an array of values; the
    polish (Kiefer's golden section) calls it on single points.  The
    objectives typically blow up at the window edges, so a non-finite grid
    value (overflow, NaN, ±inf) reads as +inf without a floating-point
    warning, and so does an OverflowError or QuadratureError in the polish.
    """
    grid = np.asarray(grid, dtype=float)
    with np.errstate(all="ignore"):
        vals = np.asarray(f(grid), dtype=float)
    vals = np.where(np.isfinite(vals), vals, math.inf)
    if not np.any(np.isfinite(vals)):
        raise ValueError("objective not finite anywhere on the scan grid")

    def finite(x):
        try:
            v = float(f(x))
        except (OverflowError, QuadratureError):
            return math.inf
        return v if math.isfinite(v) else math.inf

    i = int(np.argmin(vals))
    x, v = golden_section_min(finite, grid[max(i - 1, 0)],
                              grid[min(i + 1, len(grid) - 1)], tol)
    if v >= vals[i]:
        return float(grid[i]), float(vals[i])
    return x, v

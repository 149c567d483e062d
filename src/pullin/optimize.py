"""Derivative-free 1-D optimization: a grid scan plus Brent's bounded polish.

Every optimized constant and scan-optimized bound in this library is the
extremum of a smooth scalar function on an open interval.  The one recipe is
`grid_then_golden_min`: a coarse scan on the caller's grid localizes the
extremum (guarding against multiple local extrema), and scipy's bounded
Brent minimizer polishes it on the bracketing grid cells.  The scan is one
call of the objective on the whole grid array; the polish calls it on single
points.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import QuadratureError


def grid_then_golden_min(f: Callable, grid) -> tuple[float, float]:
    """Minimize f over the scan points `grid`, then polish with Brent's
    bounded method over the two grid cells around the grid minimum; returns
    the better of the polished point and the grid point.

    f takes the whole grid as one array and returns an array of values; the
    polish calls it on single points.  Brent's method is golden section with
    parabolic steps (Brent 1973, ch. 5), so the routine keeps its name; it
    stops at about 1e-10 + 1.5e-8·|t| and never evaluates the ends of its
    bracket, so a minimum at the first or last grid point stays that grid
    point.  The objectives typically blow up at the window edges, so a
    non-finite grid value (overflow, NaN, ±inf) reads as +inf without a
    floating-point warning, and so does an OverflowError or QuadratureError
    in the polish.
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
    cells = (grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)])
    res = minimize_scalar(finite, bounds=cells, method="bounded",
                          options={"xatol": 1e-10})
    if res.fun >= vals[i]:
        return float(grid[i]), float(vals[i])
    return float(res.x), float(res.fun)

"""Derivative-free 1-D optimization: a grid scan plus Brent's bounded polish.

Every optimized constant and scan-optimized bound in this library is the
extremum of a smooth scalar function on an open interval.  The one recipe is
`grid_then_golden_min`: a coarse scan on the caller's grid localizes the
extremum (guarding against multiple local extrema), and a bounded Brent
minimizer polishes it on the bracketing grid cells.  The scan is one call of
the objective on the whole grid array; the polish (`_bounded_brent`) calls
it on single Python floats and does its own arithmetic on Python floats, so
a polish costs little more than its objective calls.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureError

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
#: the polish's absolute tolerance in x and its cap on evaluations
_XATOL = 1e-10
_MAXFUN = 500


def _bounded_brent(f: Callable, lo: float, hi: float) -> tuple[float, float, int]:
    """Minimize f on [lo, hi] by Brent's bounded method (Brent 1973, ch. 5):
    golden section with parabolic steps.  Returns (x, f(x), evaluations).

    The iterates, the stopping rule |x - xm| <= 2 tol - (b - a)/2 with
    tol = √ε·|x| + xatol/3 at xatol = 1e-10, and the cap of 500 evaluations
    are those of scipy.optimize's bounded method, step for step, so x, f(x)
    and the count are its own bits, for finite lo and hi (scipy refuses
    others) and any values of f, NaN and ±inf included.  The ends of
    [lo, hi] are never evaluated.
    """
    a, b = float(lo), float(hi)
    if a > b:
        raise ValueError("the lower bound exceeds the upper bound")
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = f(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        # a step of at least tol1, in the direction of rat (up for rat = 0)
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return xf, fx, num


def grid_then_golden_min(f: Callable, grid) -> tuple[float, float]:
    """Minimize f over the scan points `grid`, then polish with Brent's
    bounded method (`_bounded_brent`) over the two grid cells around the
    grid minimum; returns the better of the polished point and the grid
    point.

    f takes the whole grid as one array and returns an array of values; the
    polish calls it on single Python floats.  Brent's method is golden
    section with parabolic steps (Brent 1973, ch. 5), so the routine keeps
    its name; it stops at about 1e-10 + 1.5e-8·|t| and never evaluates the
    ends of its bracket, so a minimum at the first or last grid point stays
    that grid point.  The objectives typically blow up at the window edges,
    so a non-finite grid value (overflow, NaN, ±inf) reads as +inf without
    a floating-point warning, and so does an OverflowError or
    QuadratureError in the polish.
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
    t_grid, v_grid = float(grid[i]), float(vals[i])
    t, v, _ = _bounded_brent(finite, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)])
    if v >= v_grid:
        return t_grid, v_grid
    return t, v

"""Derivative-free 1-D optimization: golden-section search plus grid scans.

Every optimized constant in this library is the extremum of a smooth scalar
function on an open interval.  The standard recipe is a coarse grid scan to
localize the extremum (guarding against multiple local extrema) followed by a
golden-section polish on the bracketing grid cells.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f: Callable[[float], float], a: float, b: float,
                       tol: float = 1e-10, max_iter: int = 400) -> tuple[float, float]:
    """Minimize f on [a, b]; returns (argmin, min). f is assumed unimodal there."""
    x1 = b - _INV_GOLD * (b - a)
    x2 = a + _INV_GOLD * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
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


def golden_section_max(f: Callable[[float], float], a: float, b: float,
                       tol: float = 1e-10, max_iter: int = 400) -> tuple[float, float]:
    x, neg = golden_section_min(lambda t: -f(t), a, b, tol, max_iter)
    return x, -neg


def grid_then_golden_min(f: Callable[[float], float], lo: float, hi: float,
                         n_grid: int = 2000, inset: float = 1e-9,
                         tol: float = 1e-10) -> tuple[float, float]:
    """Coarse scan of the open interval (lo, hi), then golden-section polish.

    Endpoints are inset by `inset` (absolute, scaled by the interval width when
    that is larger) since the objectives typically blow up at the boundary.
    """
    pad = max(inset, inset * (hi - lo))
    xs = np.linspace(lo + pad, hi - pad, n_grid)
    vals = np.array([f(x) for x in xs])
    if not np.any(np.isfinite(vals)):
        raise ValueError("objective not finite anywhere on the scan grid")
    i = int(np.nanargmin(np.where(np.isfinite(vals), vals, np.inf)))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, n_grid - 1)]
    return golden_section_min(f, a, b, tol)


"""Radial shooting solver and branch continuation on the unit ball.

The problem -u'' - (N-1)/r u' = λ f(r) F(u), u'(0) = 0, u(1) = 0 is solved
by the classical rescaling trick: integrate w'' + (N-1)/r w' + F(w) = 0
outward from the center value w(0) = m until the first zero R, then
u(x) = w(Rx) solves the unit-ball problem at voltage λ = R².  The center
value m therefore parametrizes the whole solution set single-valuedly, fold
included, and the bifurcation diagram is just the sampled curve m -> λ(m).
Each shot also carries the tangent z = ∂w/∂m, which gives the slope dλ/dm
exactly; a fold is a root of that slope.

Power-law weights f = |x|^α are reduced to the constant-profile problem in
the effective fractional dimension 2(N+α)/(2+α); a direct weighted shoot
(λ = R^(2+α)) is also provided for cross-validation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from . import spectral
from .errors import (BeyondPullInError, BracketError, DomainValidationError,
                     NoCrossingError)
from .nonlinearity import Nonlinearity
from .powerlaw import TransformResult, dim_transform
from .radial import center_series, series_state, series_value

log = logging.getLogger("pullin.branch")

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class ProblemSpec:
    """Dimension, source family and power-law exponent of one problem."""

    N: float
    F: Nonlinearity
    alpha: float = 0.0

    def __post_init__(self):
        if not self.N >= 1.0:
            raise DomainValidationError(f"dimension must be >= 1, got {self.N}")
        if not self.alpha > -2.0:
            raise DomainValidationError(
                f"power-law exponent must be > -2, got {self.alpha}")

    def transform(self) -> TransformResult:
        return dim_transform(self.N, self.alpha)


@dataclass
class RadialSolution:
    """Sampled radial profile on the unit ball with its voltage.

    `N_eff` records the dimension actually used in the ODE (it differs from
    the physical dimension when a power-law weight was transformed away).
    """

    r: np.ndarray
    u: np.ndarray
    m: float
    lam: float
    N_eff: float
    alpha: float = 0.0
    _evaluate: Optional[Callable] = field(default=None, repr=False, compare=False)
    _pchip: Optional[PchipInterpolator] = field(default=None, repr=False, compare=False)

    def at(self, r):
        """Profile value(s) at radius r in [0, 1] (monotone interpolation)."""
        if self._evaluate is not None:
            return self._evaluate(r)
        if self._pchip is None:
            self._pchip = PchipInterpolator(self.r, self.u)
        return self._pchip(r)


@dataclass
class ShootResult:
    """Outcome of one outward integration: first zero, voltage, profile and
    the slope dλ/dm of the voltage along the branch."""

    first_zero: float
    lam: float
    dlam_dm: float
    m: float
    N_eff: float
    alpha: float
    seed_radius: float
    _series: tuple = field(repr=False)  # (a1, a2, a3) of the center series
    _sol: object = field(repr=False)    # _sol.sol(rho) -> rows (w, w')

    def profile(self, rho):
        """Unscaled profile w at raw radius rho in [0, first_zero]."""
        scalar = np.ndim(rho) == 0
        arr = np.atleast_1d(np.asarray(rho, dtype=float))
        out = np.empty_like(arr)
        inner = arr < self.seed_radius
        out[inner] = series_value(self._series, self.m, arr[inner] ** (2.0 + self.alpha))
        if np.any(~inner):
            clipped = np.clip(arr[~inner], self.seed_radius, self.first_zero)
            out[~inner] = self._sol.sol(clipped)[0]
        return float(out[0]) if scalar else out

    def solution(self, n_points: int = 513) -> RadialSolution:
        """Rescale to the unit ball: u(r) = w(R r), voltage λ = R^(2+α)."""
        R = self.first_zero
        r = np.linspace(0.0, 1.0, n_points)
        u = self.profile(r * R)
        u[0], u[-1] = self.m, 0.0
        evaluate = lambda rr: self.profile(np.asarray(rr, dtype=float) * R)
        return RadialSolution(r, u, self.m, self.lam, self.N_eff, self.alpha,
                              _evaluate=evaluate)


def shoot(F: Nonlinearity, N_eff: float, m: float, tol: float = DEFAULT_TOL,
          alpha: float = 0.0) -> ShootResult:
    """First zero R of w'' + (N-1)/r w' + r^α F(w) = 0, w(0)=m, w'(0)=0, the
    voltage λ = R^(2+α) and its slope dλ/dm along the branch.

    One DOP853 integration carries (w, w', z, z') with z = ∂w/∂m, the
    solution of z'' + (N-1)/r z' + r^α F'(w) z = 0, z(0)=1.  It starts at
    the radius where the last term of the third-order center series falls
    to tol (relative to m for w), so the series remainder stays below tol,
    and it stops at the first zero of w.  That zero, located on the dense
    interpolant, is only good to about 4e-10: a second, one-step
    integration from the last accepted step lands on it, and one Newton
    step R -= w/w' finishes it.  Then dR/dm = -z(R)/w'(R) and
    dλ/dm = (2+α) R^(1+α) dR/dm.
    """
    if not N_eff >= 1.0:
        raise DomainValidationError(f"dimension must be >= 1, got {N_eff}")
    if not alpha > -2.0:
        raise DomainValidationError(f"weight exponent must be > -2, got {alpha}")
    if not 0.0 < m < F.endpoint:
        raise DomainValidationError(
            f"center value must lie in (0, {F.endpoint}), got {m}")

    k = 2.0 + alpha
    a, b = center_series(F, N_eff, k, m)
    # while w >= 0, F(w) >= 1 forces the crossing before this radius
    r_max = 2.0 * (k * (N_eff + alpha) * m) ** (1.0 / k) + 4.0
    # the remainder of each series is below its last term; the last clause
    # keeps the seed well inside the curvature length m / |a1|
    s = min((tol * m / abs(a[2])) ** (1.0 / 3.0),
            (tol / abs(b[2])) ** (1.0 / 3.0), 0.1 * m / abs(a[0]))
    eps = s ** (1.0 / k)
    y0 = series_state(a, m, s, k, eps) + series_state(b, 1.0, s, k, eps)

    f_raw, fp_raw = F.fast_callables()
    c = N_eff - 1.0

    def rhs(r, y):
        w, dw, z, dz = y
        ra = r ** alpha
        return (dw, -ra * f_raw(w) - c / r * dw, dz, -ra * fp_raw(w) * z - c / r * dz)

    def crossing(r, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = -1

    atol = tol * 1e-2
    sol = solve_ivp(rhs, (eps, r_max), y0, method="DOP853", rtol=tol,
                    atol=atol, events=crossing, dense_output=True)
    if sol.t_events[0].size == 0:
        raise NoCrossingError(
            f"no zero of the profile before r = {r_max:.3g} "
            f"(family {F.label()}, N_eff={N_eff}, m={m}): {sol.message}")
    r0, r1 = float(sol.t[-2]), float(sol.t_events[0][0])
    last = solve_ivp(rhs, (r0, r1), sol.y[:, -2], method="DOP853", rtol=tol,
                     atol=atol, first_step=r1 - r0)
    y = last.y[:, -1]
    R = float(r1 - y[0] / y[1])
    _, dw, z, _ = y + (R - r1) * np.asarray(rhs(r1, y))
    dlam_dm = float(k * R ** (1.0 + alpha) * (-z / dw))
    dense = sol.sol
    return ShootResult(R, R ** k, dlam_dm, m, N_eff, alpha, eps, a,
                       SimpleNamespace(sol=lambda rho: dense(rho)[:2]))


def default_m_grid(F: Nonlinearity, n_points: int = 400) -> np.ndarray:
    """Log-spaced center-value schedule covering fold and asymptotic regime."""
    top = F.endpoint - 1e-4 if F.is_singular else 40.0
    return np.geomspace(1e-3, top, n_points)


@dataclass
class BranchPoint:
    m: float
    lam: float
    mu1: Optional[float] = None


@dataclass
class Branch:
    """Sampled branch m -> λ(m) with the extracted pull-in quantities.

    `lambda_star` is the supremum of the voltage over the (refined) branch;
    `m_star` is the center value at the first fold, i.e. the pull-in
    distance, when a fold was found.  Without a fold (singular regimes where
    λ(m) climbs monotonically toward its limit), `fold_found` is False and
    `lambda_star` is a lower estimate.  `fold_index` is the k of the grid
    cell [m_k, m_k+1] holding the fold; `stability_skipped` counts the
    points whose stability eigenvalue could not be bracketed (mu1 is None).
    """

    problem: ProblemSpec
    points: list[BranchPoint]
    lambda_star: float
    m_star: float
    fold_found: bool
    fold_index: Optional[int] = None
    stability_skipped: int = 0

    @property
    def m_values(self) -> np.ndarray:
        return np.array([p.m for p in self.points])

    @property
    def lambda_values(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])

    def stable_points(self) -> list[BranchPoint]:
        """Points on the minimal branch (center value below the fold)."""
        if not self.fold_found:
            return list(self.points)
        return [p for p in self.points if p.m < self.m_star]

    def max_relative_jump(self) -> float:
        """Largest voltage jump between adjacent points, for mesh checks."""
        lam = self.lambda_values
        return float(np.max(np.abs(np.diff(lam)) / np.maximum(lam[1:], 1e-300)))


def solve_branch(problem: ProblemSpec, m_grid: Optional[Sequence[float]] = None,
                 tol: float = DEFAULT_TOL, stability: bool = False,
                 stability_tol: float = 1e-6, refine_fold: bool = True) -> Branch:
    """Sweep the center-value schedule and extract λ*, the pull-in distance
    and (optionally) the stability eigenvalue at every point.

    The fold is the first grid cell where the shot slope dλ/dm changes sign
    from + to -; with `refine_fold` it is the brentq root of dλ/dm in that
    cell, otherwise the cell end with the larger voltage.

    Power-law problems are solved through the constant-profile reduction in
    the effective dimension and rescaled back, which preserves center values
    exactly.  Stability eigenvalues always refer to the transformed,
    constant-profile problem (same sign pattern as the weighted one).
    """
    tr = problem.transform()
    F = problem.F
    if m_grid is None:
        grid = default_m_grid(F)
    else:
        grid = np.asarray(m_grid, dtype=float)
        if grid.ndim != 1 or len(grid) < 3:
            raise DomainValidationError("m_grid needs at least 3 points")
        if np.any(np.diff(grid) <= 0):
            raise DomainValidationError("m_grid must be strictly increasing")
        if grid[0] <= 0 or grid[-1] >= F.endpoint:
            raise DomainValidationError(
                f"m_grid must lie inside (0, {F.endpoint})")

    shots = [shoot(F, tr.N_eff, m, tol) for m in grid]
    lam_core = np.array([s.lam for s in shots])
    rising = np.array([s.dlam_dm > 0.0 for s in shots])
    folds = np.flatnonzero(rising[:-1] & ~rising[1:])

    fold_found = folds.size > 0
    k = int(folds[0]) if fold_found else None
    if fold_found and refine_fold:
        known = {grid[k]: shots[k], grid[k + 1]: shots[k + 1]}

        def slope(m):
            if m not in known:
                known[m] = shoot(F, tr.N_eff, m, tol)
            return known[m].dlam_dm

        m_star = brentq(slope, grid[k], grid[k + 1], xtol=tol * max(1.0, grid[k + 1]))
        lam_star_core = max(known[m_star].lam, float(np.max(lam_core)))
    elif fold_found:
        j = k if lam_core[k] >= lam_core[k + 1] else k + 1
        m_star, lam_star_core = grid[j], float(lam_core[j])
    else:
        i_max = int(np.argmax(lam_core))
        m_star, lam_star_core = grid[i_max], float(lam_core[i_max])
        log.info("no fold bracketed by the schedule (λ still rising); "
                 "pull-in voltage %.6g is a lower estimate", lam_star_core * tr.voltage_factor)

    points = []
    skipped = 0
    for m, lam0, shot in zip(grid, lam_core, shots):
        mu = None
        if stability:
            try:
                mu = spectral.mu1(tr.N_eff, F, lam0, shot, stability_tol)
            except BracketError:
                skipped += 1
        points.append(BranchPoint(m, lam0 * tr.voltage_factor, mu))

    return Branch(problem, points, lam_star_core * tr.voltage_factor,
                  float(m_star), fold_found, k, skipped)


def _physical_solution(problem: ProblemSpec, shot: ShootResult,
                       n_points: int = 513) -> RadialSolution:
    """Map the constant-profile solution back through r -> r^(1+α/2)."""
    tr = problem.transform()
    core = shot.solution(n_points)
    if problem.alpha == 0.0:
        return core
    r = np.linspace(0.0, 1.0, n_points)
    u = core.at(r ** tr.radius_exponent)
    u[0], u[-1] = core.m, 0.0
    evaluate = lambda rr: core.at(np.asarray(rr, dtype=float) ** tr.radius_exponent)
    return RadialSolution(r, u, core.m, core.lam * tr.voltage_factor,
                          tr.N_eff, problem.alpha, _evaluate=evaluate)


def minimal_solution(problem: ProblemSpec, lam: float, branch: Branch,
                     tol: float = DEFAULT_TOL) -> RadialSolution:
    """Stable-branch solution at voltage lam: the smallest center value with
    λ(m) = lam.

    The branch cell holding lam brackets the root, and inverse interpolation
    in that cell starts Newton steps on λ(m) - lam with the exact slope
    dλ/dm of each shot; a step that would leave the bracket is replaced by
    bisection.  The iteration stops once λ(m) matches lam to tol (relative)
    or the bracket has shrunk to 1e-12, and the last shot is the answer.
    """
    if branch.problem != problem:
        raise DomainValidationError("branch was computed for a different problem")
    if not 0.0 < lam < branch.lambda_star:
        raise BeyondPullInError(
            f"voltage {lam} outside (0, λ*={branch.lambda_star:.6g})")
    tr = problem.transform()
    lam0 = lam / tr.voltage_factor

    stable = branch.stable_points()
    ms = np.array([p.m for p in stable])
    lams = np.array([p.lam / tr.voltage_factor for p in stable])

    j = int(np.searchsorted(lams, lam0))
    if j >= len(ms):
        if not branch.fold_found or branch.m_star <= ms[-1]:
            raise BeyondPullInError(f"voltage {lam} not bracketed by the stable branch")
        fold = shoot(problem.F, tr.N_eff, branch.m_star, tol)
        if fold.lam < lam0:
            raise BeyondPullInError(f"voltage {lam} not bracketed by the stable branch")
        (lo, lam_lo), (hi, lam_hi) = (ms[-1], lams[-1]), (branch.m_star, fold.lam)
    elif j == 0:
        (lo, lam_lo), (hi, lam_hi) = (0.0, 0.0), (ms[0], lams[0])
    else:
        (lo, lam_lo), (hi, lam_hi) = (ms[j - 1], lams[j - 1]), (ms[j], lams[j])

    m = lo + (hi - lo) * (lam0 - lam_lo) / (lam_hi - lam_lo)
    for _ in range(100):
        shot = shoot(problem.F, tr.N_eff, m, tol)
        g = shot.lam - lam0
        if g < 0.0:
            lo = m
        else:
            hi = m
        if abs(g) <= tol * lam0 or hi - lo <= 1e-12 * max(1.0, m):
            return _physical_solution(problem, shot)
        newton = m - g / shot.dlam_dm if shot.dlam_dm > 0.0 else hi
        m = newton if lo < newton < hi else 0.5 * (lo + hi)
    raise BracketError(f"no center value with λ(m) = {lam} found in [{lo}, {hi}]")


@dataclass
class SampledProfile:
    """A radial profile sampled on a fixed grid (e.g. a voltage derivative)."""

    r: np.ndarray
    values: np.ndarray

    def at(self, r):
        return np.interp(r, self.r, self.values)


def dudlambda(problem: ProblemSpec, lam: float, h: float, branch: Branch,
              n_points: int = 201) -> SampledProfile:
    """Central finite difference of the minimal solution with respect to the
    voltage, (u_{λ+h} - u_{λ-h}) / (2h); positive inside the ball."""
    if h <= 0:
        raise DomainValidationError(f"stencil width must be positive, got {h}")
    if lam - h <= 0 or lam + h >= branch.lambda_star:
        raise BeyondPullInError(
            f"stencil [{lam - h}, {lam + h}] leaves (0, λ*={branch.lambda_star:.6g})")
    u_plus = minimal_solution(problem, lam + h, branch)
    u_minus = minimal_solution(problem, lam - h, branch)
    r = np.linspace(0.0, 1.0, n_points)
    vals = (u_plus.at(r) - u_minus.at(r)) / (2.0 * h)
    vals[-1] = 0.0
    return SampledProfile(r, vals)

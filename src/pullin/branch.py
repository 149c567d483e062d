"""Radial shooting solver and branch continuation on the unit ball.

The problem -u'' - (N-1)/r u' = λ f(r) F(u), u'(0) = 0, u(1) = 0 is solved
by the classical rescaling trick: integrate w'' + (N-1)/r w' + F(w) = 0
outward from the center value w(0) = m until the first zero R, then
u(x) = w(Rx) solves the unit-ball problem at voltage λ = R².  The center
value m therefore parametrizes the whole solution set single-valuedly, fold
included, and the bifurcation diagram is just the sampled curve m -> λ(m).
Each shot also carries the tangent z = ∂w/∂m, which gives the slope dλ/dm
exactly; a fold is a root of that slope.

Shots run in the profile variable τ, with w = m(1 - τ²) and the radius r
as an unknown, so the zero of w is the fixed endpoint τ = 1.  That lets one
vectorized DOP853 run (Hairer-Nørsett-Wanner) shoot a whole grid of center
values as lanes, under the error norm of the worst lane; `shoot` is the
one-lane run with dense output.  The one-lane runs that need no profile
(fold refinement and the Newton steps of `minimal_solution`) run on scipy's
compiled DOP853 (`radial.solve_ivp`).

Power-law weights f = |x|^α are reduced to the constant-profile problem in
the effective fractional dimension 2(N+α)/(2+α); a direct weighted shoot
(λ = R^(2+α)) is also provided for cross-validation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from . import spectral
from .errors import (BeyondPullInError, BracketError, DomainValidationError,
                     NoCrossingError)
from .nonlinearity import Nonlinearity
from .powerlaw import TransformResult, dim_transform
from .radial import lane_rhs, lane_seed, series_value, solve_ivp

log = logging.getLogger("pullin.branch")

DEFAULT_TOL = 1e-10
# tolerance of each μ₁ that `solve_branch` fills (its own tol if larger),
# relative to max(1, |μ₁|)
_STABILITY_TOL = 1e-6


@dataclass(frozen=True)
class ProblemSpec:
    """Dimension, source family and power-law exponent of one problem."""

    N: float
    F: Nonlinearity
    alpha: float = 0.0

    def __post_init__(self):
        if not 1.0 <= self.N < math.inf:
            raise DomainValidationError(f"dimension must be finite and >= 1, got {self.N}")
        if not -2.0 < self.alpha < math.inf:
            raise DomainValidationError(
                f"power-law exponent must be finite and > -2, got {self.alpha}")

    def transform(self) -> TransformResult:
        return dim_transform(self.N, self.alpha)


@dataclass
class RadialSolution:
    """Radial profile on the unit ball with its voltage.

    `N_eff` records the dimension actually used in the ODE (it differs from
    the physical dimension when a power-law weight was transformed away).
    """

    m: float
    lam: float
    N_eff: float
    alpha: float = 0.0
    _evaluate: Optional[Callable] = field(default=None, repr=False, compare=False)

    def at(self, r):
        """Profile value(s) at radius r in [0, 1], from the shot itself."""
        return self._evaluate(r)


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
    _rows: Callable = field(repr=False)  # rho -> rows (w, w') of the dense output

    def profile(self, rho):
        """Unscaled profile w at raw radius rho in [0, first_zero]: the center
        series in s = rho^(2+α) below the seed radius, the dense output
        beyond.  Returns a float for scalar rho, an array otherwise."""
        rho = np.asarray(rho, dtype=float)
        eps = self.seed_radius
        series = series_value(self._series, self.m, rho ** (2.0 + self.alpha))
        out = np.where(rho < eps, series, self._rows(np.clip(rho, eps, self.first_zero))[0])
        return float(out) if out.ndim == 0 else out

    def solution(self) -> RadialSolution:
        """Rescale to the unit ball: u(r) = w(R r), voltage λ = R^(2+α)."""
        return _rescaled(self, 1.0, self.lam, self.alpha)


def _rescaled(shot: ShootResult, exponent: float, lam: float,
              alpha: float) -> RadialSolution:
    """The unit-ball solution u(r) = w(R r^exponent) at voltage lam."""
    R = shot.first_zero
    evaluate = lambda rr: shot.profile(R * np.asarray(rr, dtype=float) ** exponent)
    return RadialSolution(shot.m, lam, shot.N_eff, alpha, _evaluate=evaluate)


def _shoot_lanes(F: Nonlinearity, N_eff: float, ms: np.ndarray, tol: float,
                 alpha: float = 0.0, dense: bool = False):
    """Shoot every center value in `ms` in one DOP853 run of the radial core
    (`radial.lane_seed` and `radial.lane_rhs`, one lane per center value).

    Returns (R, dλ/dm, seed radii, center series (3, n), solver result),
    with dλ/dm = (2+α) R^(1+α) (-z(R)/w'(R)).
    """
    tau0, y0, eps, a = lane_seed(F, N_eff, ms, tol, alpha)
    sol = solve_ivp(lane_rhs(F, N_eff, ms, alpha), (tau0, 1.0), y0, rtol=tol,
                    atol=tol * 1e-2, dense_output=dense)
    if not sol.success:
        raise NoCrossingError(
            f"shooting run failed (family {F.label()}, N_eff={N_eff}, "
            f"m in [{ms[0]}, {ms[-1]}]): {sol.message}")
    R, dw, z, _ = sol.y[:, -1].reshape(4, -1)
    return R, (2.0 + alpha) * R ** (1.0 + alpha) * (-z / dw), eps, a, sol


def _rows_at_radius(sol, m: float):
    """rho -> rows (w, w') of a one-lane run at raw radius rho.

    r(τ) increases, so the accepted step whose radii bracket rho gives a
    linear first guess for τ, and Newton steps with dr/dτ = -2mτ/w' on the
    dense output finish it; then w = m(1 - τ²).
    """
    taus, radii = sol.t, sol.y[0]

    def rows(rho):
        rho = np.asarray(rho, dtype=float)
        i = np.clip(np.searchsorted(radii, rho), 1, len(taus) - 1)
        tau = taus[i - 1] + ((taus[i] - taus[i - 1]) * (rho - radii[i - 1])
                             / (radii[i] - radii[i - 1]))
        for _ in range(8):
            r, dw = sol.sol(tau)[:2]
            step = (r - rho) * dw / (2.0 * m * tau)
            tau = np.clip(tau + step, taus[0], 1.0)
            # from a linear guess the fourth step is at rounding level; w'
            # then moves by a relative 1e-14 at most
            if np.all(np.abs(step) <= 1e-14 * tau):
                break
        return np.array([m * (1.0 - tau * tau), dw])

    return rows


def shoot(F: Nonlinearity, N_eff: float, m: float, tol: float = DEFAULT_TOL,
          alpha: float = 0.0) -> ShootResult:
    """First zero R of w'' + (N-1)/r w' + r^α F(w) = 0, w(0)=m, w'(0)=0, the
    voltage λ = R^(2+α) and its slope dλ/dm along the branch.

    The one-lane run of the shooting core (see `_shoot_lanes`), with dense
    output for the profile.
    """
    if not 1.0 <= N_eff < math.inf:
        raise DomainValidationError(f"dimension must be finite and >= 1, got {N_eff}")
    if not -2.0 < alpha < math.inf:
        raise DomainValidationError(f"weight exponent must be finite and > -2, got {alpha}")
    if not 0.0 < m < F.endpoint:
        raise DomainValidationError(
            f"center value must lie in (0, {F.endpoint}), got {m}")

    R, slope, eps, a, sol = _shoot_lanes(F, N_eff, np.array([float(m)]), tol, alpha,
                                         dense=True)
    R = float(R[0])
    return ShootResult(R, R ** (2.0 + alpha), float(slope[0]), m, N_eff, alpha,
                       float(eps[0]), tuple(float(aj) for aj in a[:, 0]),
                       _rows_at_radius(sol, float(m)))


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
    λ(m) climbs monotonically toward its limit), `fold_found` is False,
    `m_star` is NaN and `lambda_star` is a lower estimate.  `fold_index` is
    the k of the grid cell [m_k, m_k+1] holding the fold;
    `stability_skipped` counts the points whose stability eigenvalue could
    not be bracketed (mu1 is None).
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
                 tol: float = DEFAULT_TOL, stability: bool = False) -> Branch:
    """Sweep the center-value schedule and extract λ*, the pull-in distance
    and (optionally) the stability eigenvalue at every point, to within
    max(tol, 1e-6) * max(1, |μ₁|).

    The whole grid is shot in one lane run.  The fold is the brentq root of
    dλ/dm (one-lane runs) in the first grid cell where that slope changes
    sign from + to -.

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

    R, slopes, *_ = _shoot_lanes(F, tr.N_eff, grid, tol)
    lam_core = R ** 2.0
    rising = slopes > 0.0
    folds = np.flatnonzero(rising[:-1] & ~rising[1:])

    fold_found = folds.size > 0
    k = int(folds[0]) if fold_found else None
    if fold_found:
        known = {grid[j]: (lam_core[j], slopes[j]) for j in (k, k + 1)}

        def slope(m):
            if m not in known:
                R_m, slope_m, *_ = _shoot_lanes(F, tr.N_eff, np.array([m]), tol)
                known[m] = (float(R_m[0]) ** 2.0, float(slope_m[0]))
            return known[m][1]

        m_star = brentq(slope, grid[k], grid[k + 1], xtol=tol * max(1.0, grid[k + 1]))
        lam_star_core = max(known[m_star][0], float(np.max(lam_core)))
    else:
        m_star, lam_star_core = math.nan, float(np.max(lam_core))
        log.info("no fold bracketed by the schedule (λ still rising); "
                 "pull-in voltage %.6g is a lower estimate", lam_star_core * tr.voltage_factor)

    points = [BranchPoint(m, lam0 * tr.voltage_factor) for m, lam0 in zip(grid, lam_core)]
    skipped = 0
    if stability:
        for point, lam0 in zip(points, lam_core):
            try:
                # mu1 reads only the center value of the point, and checks
                # lam0, which is good to about tol, against its own R²
                point.mu1 = spectral.mu1(tr.N_eff, F, lam0, point,
                                         max(tol, _STABILITY_TOL))
            except BracketError:
                skipped += 1

    return Branch(problem, points, lam_star_core * tr.voltage_factor,
                  float(m_star), fold_found, k, skipped)


def minimal_solution(problem: ProblemSpec, lam: float, branch: Branch,
                     tol: float = DEFAULT_TOL) -> RadialSolution:
    """Stable-branch solution at voltage lam: the smallest center value with
    λ(m) = lam.

    The branch cell holding lam brackets the root, and inverse interpolation
    in that cell starts Newton steps on λ(m) - lam with the exact slope
    dλ/dm of each shot; a step that would leave the bracket is replaced by
    bisection.  The steps are one-lane runs without dense output.  Once λ(m)
    matches lam to tol (relative) or the bracket has shrunk to 1e-12, a
    dense `shoot` at that center value is the answer, if it meets the same
    test; otherwise the steps go on from it.
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
        R_fold, *_ = _shoot_lanes(problem.F, tr.N_eff, np.array([branch.m_star]), tol)
        lam_fold = float(R_fold[0]) ** 2.0
        if lam_fold < lam0:
            raise BeyondPullInError(f"voltage {lam} not bracketed by the stable branch")
        (lo, lam_lo), (hi, lam_hi) = (ms[-1], lams[-1]), (branch.m_star, lam_fold)
    elif j == 0:
        (lo, lam_lo), (hi, lam_hi) = (0.0, 0.0), (ms[0], lams[0])
    else:
        (lo, lam_lo), (hi, lam_hi) = (ms[j - 1], lams[j - 1]), (ms[j], lams[j])

    m = lo + (hi - lo) * (lam0 - lam_lo) / (lam_hi - lam_lo)
    for _ in range(100):
        R, slope, *_ = _shoot_lanes(problem.F, tr.N_eff, np.array([m]), tol)
        g, slope = float(R[0]) ** 2.0 - lam0, float(slope[0])
        if g < 0.0:
            lo = m
        else:
            hi = m
        narrow = hi - lo <= 1e-12 * max(1.0, m)
        if abs(g) <= tol * lam0 or narrow:
            # the answer carries its profile: shoot again with dense output,
            # which has to meet the same test
            shot = shoot(problem.F, tr.N_eff, m, tol)
            if abs(shot.lam - lam0) <= tol * lam0 or narrow:
                return _rescaled(shot, tr.radius_exponent,
                                 shot.lam * tr.voltage_factor, problem.alpha)
            g, slope = shot.lam - lam0, shot.dlam_dm
        newton = m - g / slope if slope > 0.0 else hi
        m = newton if lo < newton < hi else 0.5 * (lo + hi)
    raise BracketError(f"no center value with λ(m) = {lam} found in [{lo}, {hi}]")


def dudlambda(problem: ProblemSpec, lam: float, h: float,
              branch: Branch) -> Callable:
    """Central finite difference of the minimal solution with respect to the
    voltage: the function r -> (u_{λ+h}(r) - u_{λ-h}(r)) / (2h) on [0, 1],
    positive inside the ball (a float for scalar r)."""
    if not h > 0:
        raise DomainValidationError(f"stencil width must be positive, got {h}")
    if lam - h <= 0 or lam + h >= branch.lambda_star:
        raise BeyondPullInError(
            f"stencil [{lam - h}, {lam + h}] leaves (0, λ*={branch.lambda_star:.6g})")
    u_plus = minimal_solution(problem, lam + h, branch)
    u_minus = minimal_solution(problem, lam - h, branch)
    return lambda r: (u_plus.at(r) - u_minus.at(r)) / (2.0 * h)

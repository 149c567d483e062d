"""Radial shooting solver and branch continuation on the unit ball.

The problem -u'' - (N-1)/r u' = λ f(r) F(u), u'(0) = 0, u(1) = 0 is solved
by the classical rescaling trick: integrate w'' + (N-1)/r w' + F(w) = 0
outward from the center value w(0) = m until the first zero R, then
u(x) = w(Rx) solves the unit-ball problem at voltage λ = R².  The center
value m therefore parametrizes the whole solution set single-valuedly, fold
included, and the bifurcation diagram is just the sampled curve m -> λ(m).
Each shot also carries the tangent z = ∂w/∂m, which gives the slope dλ/dm
exactly; a fold is a root of that slope.

A shot runs in the profile variable τ, with w = m(1 - τ²) and the radius
r as an unknown, so the zero of w is the fixed endpoint τ = 1.  `shoot` is
that one-lane run of the radial core on scipy's compiled DOP853
(`radial.solve_ivp`), and reads its profile between the recorded steps
(`radial.StepReader`).

A branch needs no shot at all.  By the scaling symmetry of each family
(`Nonlinearity.scaling_law`) every center value m is a level ℓ(m) on the
one solution w₀ with center value 0, so `solve_branch` reads λ and dλ/dm at
every grid point, and the fold, off one run of w₀ in Emden-Fowler
variables (`radial.trajectory`, through this module's `solve_ivp`), all
grid points in one array step; the stability fills read the coefficients
of their collocation off the same run (`spectral._fill_stability`).
`minimal_solution` finds its center value on the branch's own run, and
makes one shot there for the profile.

Power-law weights f = |x|^α are reduced to the constant-profile problem in
the effective fractional dimension 2(N+α)/(2+α); a direct weighted shoot
(λ = R^(2+α)) is also provided for cross-validation.
"""

from __future__ import annotations

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
from .radial import StepReader, lane_rhs, lane_seed, series_value, solve_ivp, trajectory

DEFAULT_TOL = 1e-10
# tolerance of each μ₁ that `solve_branch` fills (its own tol if larger),
# relative to max(1, |μ₁|)
_STABILITY_TOL = 1e-6
# absolute and relative tolerance in t = log ℓ of the fold's brentq: a few
# ulps, the least scipy's brentq takes
_FOLD_XTOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class ProblemSpec:
    """Dimension, source family and power-law exponent of one problem."""

    N: float
    F: Nonlinearity
    alpha: float = 0.0

    def __post_init__(self):
        self.transform()  # refuses N and alpha outside its domain

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
    _read: StepReader = field(repr=False)  # the run between its recorded steps

    def profile(self, rho):
        """Unscaled profile w at raw radius rho in [0, first_zero]: the center
        series in s = rho^(2+α) below the seed radius, the run beyond.
        Returns a float for scalar rho, an array otherwise."""
        rho = np.asarray(rho, dtype=float)
        eps = self.seed_radius
        series = series_value(self._series, self.m, rho ** (2.0 + self.alpha))
        out = np.where(rho < eps, series, self._rows(np.clip(rho, eps, self.first_zero))[0])
        return float(out) if out.ndim == 0 else out

    def _rows(self, rho):
        """Rows (w, w') of the run at raw radius rho.

        r(τ) increases, so the recorded step whose radii bracket rho gives a
        linear first guess for τ, and Newton steps with dr/dτ = -2mτ/w' on
        the reads between the recorded steps finish it, all radii in one
        array step each; then w = m(1 - τ²).
        """
        read, m = self._read, float(self.m)
        taus, radii = read.t, read.y[0]
        rho = np.asarray(rho, dtype=float)
        i = np.clip(np.searchsorted(radii, rho), 1, len(taus) - 1)
        tau = taus[i - 1] + ((taus[i] - taus[i - 1]) * (rho - radii[i - 1])
                             / (radii[i] - radii[i - 1]))
        for _ in range(8):
            r, dw = read(tau)[:2]
            step = (r - rho) * dw / (2.0 * m * tau)
            tau = np.clip(tau + step, taus[0], 1.0)
            # from a linear guess the fourth step is at rounding level; w'
            # then moves by a relative 1e-14 at most
            if np.all(np.abs(step) <= 1e-14 * tau):
                break
        return np.array([m * (1.0 - tau * tau), dw])

    def solution(self) -> RadialSolution:
        """Rescale to the unit ball: u(r) = w(R r), voltage λ = R^(2+α)."""
        return _rescaled(self, 1.0, self.lam, self.alpha)


def _rescaled(shot: ShootResult, exponent: float, lam: float,
              alpha: float) -> RadialSolution:
    """The unit-ball solution u(r) = w(R r^exponent) at voltage lam."""
    R = shot.first_zero
    evaluate = lambda rr: shot.profile(R * np.asarray(rr, dtype=float) ** exponent)
    return RadialSolution(shot.m, lam, shot.N_eff, alpha, _evaluate=evaluate)


def shoot(F: Nonlinearity, N_eff: float, m: float, tol: float = DEFAULT_TOL,
          alpha: float = 0.0) -> ShootResult:
    """First zero R of w'' + (N-1)/r w' + r^α F(w) = 0, w(0)=m, w'(0)=0, the
    voltage λ = R^(2+α) and its slope dλ/dm = (2+α) R^(1+α) (-z(R)/w'(R))
    along the branch.

    One run of the radial core (`radial.lane_seed` and `radial.lane_rhs`)
    on scipy's compiled DOP853 at rtol tol and atol tol·1e-2, whose profile
    is read between its recorded steps; at tol 1e-13 it is the tight
    reference of the tests.
    """
    dim_transform(N_eff, alpha)  # refuses N_eff and alpha outside its domain
    if not 0.0 < m < F.endpoint:
        raise DomainValidationError(
            f"center value must lie in (0, {F.endpoint}), got {m}")
    tau0, y0, eps, a = lane_seed(F, N_eff, m, tol, alpha)
    rhs = lane_rhs(F, N_eff, m, alpha)

    def run(t_span, rows):
        sol = solve_ivp(rhs, t_span, rows, rtol=tol, atol=tol * 1e-2)
        if not sol.success:
            raise NoCrossingError(
                f"shooting run failed (family {F.label()}, N_eff={N_eff}, m={m}): "
                f"{sol.message}")
        return sol

    sol = run((tau0, 1.0), y0)
    R, dw, z, _ = sol.y[:, -1].tolist()
    return ShootResult(R, R ** (2.0 + alpha), (2.0 + alpha) * R ** (1.0 + alpha) * (-z / dw),
                       m, N_eff, alpha, eps, a, StepReader(sol, rhs, tol, tol * 1e-2, run))


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

    The stable branch is the leading run of `n_stable` points where
    dλ/dm > 0; the first fold ends it.  `lambda_star` is the supremum of the
    voltage over the (refined) branch; `m_star` is the center value at the
    first fold, i.e. the pull-in distance, when a fold was found.  Without a
    fold, `fold_found` is False, `m_star` is NaN and `lambda_star` is a lower
    estimate: either λ(m) climbs over the whole schedule (singular regimes
    where it rises monotonically toward its limit), or the schedule starts
    past the fold and no point is stable.  With a fold, the grid cell
    [m_k, m_k+1] with k = n_stable - 1 holds it.  `stability_skipped` counts
    the points whose stability eigenvalue was not filled (mu1 is None): past
    the potential guard of `spectral`, where the collocation failed its
    own checks (`spectral._principal_eigenvalue`), or where a read of the
    branch's run for that point failed (NoCrossingError from a compiled
    rerun).  `_run` keeps the tol and trajectory reader of the branch's
    run, which `minimal_solution` reuses.
    """

    problem: ProblemSpec
    points: list[BranchPoint]
    lambda_star: float
    m_star: float
    n_stable: int
    stability_skipped: int = 0
    _run: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def fold_found(self) -> bool:
        return 0 < self.n_stable < len(self.points)

    @property
    def m_values(self) -> np.ndarray:
        return np.array([p.m for p in self.points])

    @property
    def lambda_values(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])

    def stable_points(self) -> list[BranchPoint]:
        """Points on the minimal branch (center value below the first fold)."""
        return self.points[:self.n_stable]


def solve_branch(problem: ProblemSpec, m_grid: Optional[Sequence[float]] = None,
                 tol: float = DEFAULT_TOL, stability: bool = False) -> Branch:
    """Sweep the center-value schedule and extract λ*, the pull-in distance
    and (optionally) the stability eigenvalue at every point, to within
    max(tol, 1e-6) * max(1, |μ₁|).

    The whole grid is read off one run of the Emden-Fowler trajectory
    (`radial.trajectory`), in one array step, and so are the coefficients
    of every stability fill (`spectral._fill_stability`).  The stable
    branch is the leading run of grid points where dλ/dm > 0, and the fold
    is the brentq root of dλ/dm on the same trajectory, in the grid cell
    that ends it, where q = dℓ/d log ρ crosses 2/κ.  A schedule that
    starts with dλ/dm <= 0 starts past the fold: it has no stable point
    and no fold.  A fill that fails (its collocation's checks, or a failed
    read of the run for its point) leaves that μ₁ None and is counted in
    `Branch.stability_skipped`; the other points keep theirs.

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
        # written so that a NaN, for which every comparison is False, fails
        if not np.all((grid > 0) & (grid < F.endpoint)):
            raise DomainValidationError(
                f"m_grid must lie inside (0, {F.endpoint})")
        if not np.all(np.diff(grid) > 0):
            raise DomainValidationError("m_grid must be strictly increasing")

    law = F.scaling_law()
    levels = law.level(grid)
    point = trajectory(F, tr.N_eff, float(levels[-1]), tol, solve_ivp)
    ts = np.log(levels)
    lam_core, slopes = point(ts)
    n_stable = int(np.logical_and.accumulate(slopes > 0.0).sum())
    if 0 < n_stable < len(grid):
        k = n_stable - 1
        # each evaluation is one step, so the root is polished to a few ulps in t
        t_star = brentq(lambda t: point(t)[1], ts[k], ts[k + 1],
                        xtol=_FOLD_XTOL, rtol=_FOLD_XTOL)
        m_star = float(law.center_value(math.exp(t_star)))
        lam_star_core = max(float(point(t_star)[0]), float(np.max(lam_core)))
    else:
        m_star, lam_star_core = math.nan, float(np.max(lam_core))

    lam_core = lam_core.tolist()
    points = [BranchPoint(m, lam0 * tr.voltage_factor) for m, lam0 in zip(grid, lam_core)]
    skipped = spectral._fill_stability(points, F, tr.N_eff, levels, lam_core, point,
                                       max(tol, _STABILITY_TOL)) if stability else 0
    return Branch(problem, points, lam_star_core * tr.voltage_factor,
                  float(m_star), n_stable, skipped, _run=(tol, point))


def minimal_solution(problem: ProblemSpec, lam: float, branch: Branch) -> RadialSolution:
    """Stable-branch solution at voltage lam: the smallest center value with
    λ(m) = lam.

    One table of the stable branch brackets the root: the grid points below
    the fold, then the fold (m*, λ*) that `solve_branch` refined, when the
    branch has one.  The center value is the brentq root of λ(t) - lam in
    t = log ℓ on the branch's own Emden-Fowler trajectory run
    (`radial.trajectory`) over the table cell that holds lam, one step per
    evaluation, as for the fold, or its center series below its seed.  One
    `shoot` there, at the branch's tol, is the answer, if it meets
    |λ(m) - lam| <= tol·lam.
    """
    if branch.problem != problem:
        raise DomainValidationError("branch was computed for a different problem")
    if not 0.0 < lam < branch.lambda_star:
        raise BeyondPullInError(
            f"voltage {lam} outside (0, λ*={branch.lambda_star})")
    tr = problem.transform()
    F, lam0 = problem.F, lam / tr.voltage_factor

    table = [(p.m, p.lam / tr.voltage_factor) for p in branch.stable_points()]
    if branch.fold_found:
        table.append((branch.m_star, branch.lambda_star / tr.voltage_factor))
    j = int(np.searchsorted([lam_k for _, lam_k in table], lam0))
    if j == len(table):
        # only a schedule that starts past the fold leaves lam above the table
        raise BeyondPullInError(f"voltage {lam} not bracketed by the stable branch")
    # F >= 1, so u >= λ(1 - r²)/(2N), the torsion function: m >= λ/(2N), and
    # λ(m) < 2N·m.  So λ - lam0 changes sign on the cell however low its
    # lower end.
    m_lo = max(table[j - 1][0] if j else 0.0, lam0 / (2.0 * tr.N_eff))
    law = F.scaling_law()
    t_lo, t_hi = np.log(law.level(np.array([m_lo, table[j][0]]))).tolist()
    tol, point = branch._run
    g = lambda t: float(point(t)[0]) - lam0
    # a reading of a table end can differ from the table in its last bits:
    # an end that reads lam0 or past it is the root
    if g(t_lo) < 0.0 < g(t_hi):
        t = brentq(g, t_lo, t_hi, xtol=_FOLD_XTOL, rtol=_FOLD_XTOL)
    else:
        t = t_lo if g(t_lo) >= 0.0 else t_hi
    shot = shoot(F, tr.N_eff, float(law.center_value(math.exp(t))), tol)
    if abs(shot.lam - lam0) > tol * lam0:
        raise BracketError(f"shot at m={shot.m} misses voltage {lam} by over tol={tol}")
    return _rescaled(shot, tr.radius_exponent, shot.lam * tr.voltage_factor, problem.alpha)


def dudlambda(problem: ProblemSpec, lam: float, h: float,
              branch: Branch) -> Callable:
    """Central finite difference of the minimal solution with respect to the
    voltage: the function r -> (u_{λ+h}(r) - u_{λ-h}(r)) / (2h) on [0, 1],
    positive inside the ball (a float for scalar r)."""
    if not h > 0:
        raise DomainValidationError(f"stencil width must be positive, got {h}")
    if lam - h <= 0 or lam + h >= branch.lambda_star:
        raise BeyondPullInError(
            f"stencil [{lam - h}, {lam + h}] leaves (0, λ*={branch.lambda_star})")
    u_plus = minimal_solution(problem, lam + h, branch)
    u_minus = minimal_solution(problem, lam - h, branch)
    return lambda r: (u_plus.at(r) - u_minus.at(r)) / (2.0 * h)

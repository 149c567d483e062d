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
variables (`_trajectory`, `trajectory_rhs`), on scipy's compiled DOP853
(Hairer-Nørsett-Wanner), all grid points in one array step; the
stability fills read the coefficients of their collocation off the same
run (`_fill_stability`).  The trajectory's seed, rtol rule and right-hand
side live here, next to their only caller; `radial` holds what `shoot`
and `spectral` share.
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
from .radial import StepReader, center_series, lane_rhs, lane_seed, series_value, solve_ivp

DEFAULT_TOL = 1e-10
# tolerance of each μ₁ that `solve_branch` fills (its own tol if larger),
# relative to max(1, |μ₁|)
_STABILITY_TOL = 1e-6
# absolute and relative tolerance in t = log ℓ of the fold's brentq: a few
# ulps, the least scipy's brentq takes
_FOLD_XTOL = 4.0 * np.finfo(float).eps
# the trajectory runs at rtol = tol * _TRAJECTORY_RTOL and atol 0.  Only a
# relative control resolves the slopes of the singular tails: on the 50-point
# exp N = 9, 10 and 12 grids they go down to 1.4e-29, 5.1e-32 and 3.6e-23,
# and with atol = rtol/100 the last two or three of them came out as noise
# between 2.6e-20 and 7.4e-16, with flipped signs (spurious folds) at N = 9
# and 10.  At tol 1e-10 the 61-point exp N = 1 grid reads λ off its closed
# form by 5.6e-14 at tol * 1e-3, 1.5e-14 at 3e-4 and 4.2e-15 at 1e-4, where
# the lane grid this replaced read 1.6e-14; the main runs take 21-34% more
# steps at 1e-4 than at 1e-3
_TRAJECTORY_RTOL = 1e-4
# below about 1e-15 the error estimate of a step is rounding noise: at
# tol 1e-14 (rtol 1e-18) a step of the fold's brentq failed as too small
_TRAJECTORY_RTOL_MIN = 1e-15


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
    the potential guard of `spectral`, or where the collocation failed its
    own checks (`spectral._principal_eigenvalue`).
    """

    problem: ProblemSpec
    points: list[BranchPoint]
    lambda_star: float
    m_star: float
    n_stable: int
    stability_skipped: int = 0
    # (tol, first log-level, reader t -> (λ, dλ/dm)) of the run behind the
    # branch, which `minimal_solution` reads again
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
    (`_trajectory`), in one array step, and so are the coefficients of
    every stability fill (`_fill_stability`).  The stable branch is the
    leading run of grid points where dλ/dm > 0, and the fold is the brentq
    root of dλ/dm on the same trajectory, in the grid cell that ends it,
    where q = dℓ/d log ρ crosses 2/κ.  A schedule that starts with
    dλ/dm <= 0 starts past the fold: it has no stable point and no fold.

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

    law = F.scaling_law()
    levels = law.level(grid)
    point = _trajectory(F, tr.N_eff, levels, tol)
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
    skipped = _fill_stability(points, F, tr.N_eff, levels, lam_core, point,
                              max(tol, _STABILITY_TOL)) if stability else 0
    return Branch(problem, points, lam_star_core * tr.voltage_factor,
                  float(m_star), n_stable, skipped, _run=(tol, float(ts[0]), point))


def _fill_stability(points: list[BranchPoint], F: Nonlinearity, N_eff: float,
                    levels: np.ndarray, lams: list[float], point, tol: float) -> int:
    """Fill μ₁ at each point (`spectral._principal_eigenvalue`, at the level
    and core voltage of the point) from the branch's own run `point`, and
    return the number of points it leaves empty, where the kernel raised
    BracketError.

    The kernel's coefficient q²/λ comes from `point` at each collocation
    node, with q = q*/(1 + dλ/dm e^(σℓ)/(κλ)): the nodes of the first two
    resolutions of every point in one array read, and a further
    resolution, which few points need, one point at a time.
    """
    kappa, sigma = F.scaling_law()
    lam1 = spectral._lambda1(N_eff)

    def ratio(ell):
        lam, slope = point(np.log(ell))
        q = (2.0 / kappa) / (1.0 + slope * np.exp(sigma * ell) / (kappa * lam))
        return q * q / lam

    first = spectral._RESOLUTIONS[:2]
    nodes = [spectral._nodes(n) for n in first]
    table = ratio(np.outer(levels, np.concatenate(nodes)))
    read = dict(zip(first, np.split(table, [len(nodes[0])], axis=1)))
    skipped = 0
    for i, (p, lam) in enumerate(zip(points, lams)):
        def at(n, i=i):
            return read[n][i] if n in read else ratio(levels[i] * spectral._nodes(n))
        try:
            p.mu1 = spectral._principal_eigenvalue(F, p.m, lam, lam1, tol, at)
        except BracketError:
            skipped += 1
    return skipped


def _trajectory(F: Nonlinearity, N_eff: float, levels: np.ndarray, tol: float):
    """t -> (λ, dλ/dm) at the level ℓ = e^t of the Emden-Fowler trajectory
    of w₀, the solution with center value 0 (`Nonlinearity.scaling_law`),
    for ℓ between the first and the last of the increasing `levels`; t is a
    float, or an array read in one array step.

    The trajectory is the curve (y, q) = (log λ, dℓ/da) over the level ℓ,
    with a = log ρ on w₀.  Its rows are η = y - y₀ and u = log(q/q*) with
    q* = 2/κ, so the fold dλ/dm = 0 is where u crosses 0.  y₀ is y* of the
    singular point (y*, q*), e^y* = q*(N - 2 - σq*), where that is
    positive, and 0 otherwise.  A tail that converges onto the singular
    point keeps its relative accuracy under a pure relative error control
    (atol 0, rtol = tol·1e-4, at least 1e-15), and u, unlike q - q*, keeps
    the digits of q ~ ℓ near the center (with q - q*, step control near
    the seed chases rounding noise: the inverse-square disc took 42,424 RHS
    evaluations in its main run, against 2,958 with u).  At the level
    ℓ = e^t, λ = e^(y₀ + η) and dλ/dm = λ (2 - κq)/q · dℓ/dm =
    λ κ expm1(-u) e^(-σℓ).

    The run starts from the third-order center series of w₀
    (`radial.center_series` at m = 0) in s = ρ², at the s where the
    series' last term falls to the run's rtol relative to its first, so the
    remainder stays below rtol, or lower, at half of the first level, so
    that every level read off lies above the start.  Every trajectory run
    starts here, so tol is checked here.  One main run records its steps
    from there to the last level; each t is then read with one step from
    the last recorded step below it (`radial.StepReader`), so that its bits
    depend only on that step and on t.
    """
    if not 0.0 < tol < 1.0:
        raise DomainValidationError(f"tol must lie in (0, 1), got {tol}")
    kappa, sigma = law = F.scaling_law()
    q_star = 2.0 / kappa
    c = N_eff - 2.0 - sigma * q_star
    y0 = math.log(q_star * c) if c > 0.0 else 0.0
    rtol = max(tol * _TRAJECTORY_RTOL, _TRAJECTORY_RTOL_MIN)
    a, _ = center_series(F, N_eff, 2.0, 0.0)
    a1, a2, a3 = a
    s = min(math.sqrt(rtol * abs(a1 / a3)), 0.5 * float(levels[0]) / abs(a1))
    drop = -series_value(a, 0.0, s)
    level = law.drop_level(drop)
    # q = dℓ/da = (dℓ/dd)·2s·dd/ds with dℓ/dd = 1/(1 - σd)
    q = -2.0 * s * (a1 + s * (2.0 * a2 + 3.0 * s * a3)) / (1.0 - sigma * drop)
    rows0 = np.array([math.log(s) - kappa * level - y0, math.log(0.5 * kappa * q)])
    rhs = trajectory_rhs(F, N_eff)

    def run(t_span, rows):
        sol = solve_ivp(rhs, t_span, rows, rtol=rtol, atol=0.0)
        if not sol.success:
            raise NoCrossingError(
                f"trajectory run failed (family {F.label()}, N_eff={N_eff}, "
                f"log-levels [{t_span[0]}, {t_span[1]}]): {sol.message}")
        return sol

    read = StepReader(run((math.log(level), math.log(levels[-1])), rows0),
                      trajectory_rhs(F, N_eff, array=True), rtol, 0.0, run)

    def point(t):
        eta, u = read(t)
        lam = np.exp(y0 + eta)
        return lam, lam * kappa * np.expm1(-u) * np.exp(-sigma * np.exp(t))

    return point


def trajectory_rhs(F: Nonlinearity, N: float, array: bool = False):
    """Right-hand side d/dt of the trajectory rows (η, u) in t = log ℓ
    (`_trajectory`), the equations of `Nonlinearity.scaling_law` with
    d/dt = (ℓ/q) d/da:

        dη/dt = -2 (ℓ/q) expm1(u),
        du/dt = (ℓ/q)(2 - N + σq + e^y/q),

    and about the singular point, with c = N - 2 - σq* > 0,

        du/dt = (ℓ/q)(σq* expm1(u) + c expm1(η - u)),

    which vanishes there without cancellation.  It takes the rows as a
    sequence and returns a tuple.  On Python floats it runs on `math`; with
    `array` on numpy's exp and expm1, which give a float the bits they give
    it in an array of any size, so a `StepReader` reads a level to the same
    bits alone or in a batch.
    """
    kappa, sigma = F.scaling_law()
    q_star = 2.0 / kappa
    exp, expm1 = (np.exp, np.expm1) if array else (math.exp, math.expm1)
    c = N - 2.0 - sigma * q_star
    if c > 0.0:
        sq = sigma * q_star

        def rhs(t, rows):
            eta, u = rows
            g, e = exp(t - u) / q_star, expm1(u)
            return (-2.0 * g * e, g * (sq * e + c * expm1(eta - u)))
    else:
        b = 2.0 - N

        def rhs(t, rows):
            y, u = rows
            q = q_star * exp(u)
            g = exp(t) / q
            return (-2.0 * g * expm1(u), g * (b + sigma * q + exp(y) / q))

    return rhs


def minimal_solution(problem: ProblemSpec, lam: float, branch: Branch,
                     tol: float = DEFAULT_TOL) -> RadialSolution:
    """Stable-branch solution at voltage lam: the smallest center value with
    λ(m) = lam.

    One table of the stable branch brackets the root: the grid points below
    the fold, then the fold (m*, λ*) that `solve_branch` refined, when the
    branch has one.  The center value is the brentq root of λ(t) - lam in
    t = log ℓ on the Emden-Fowler trajectory (`_trajectory`) over the table
    cell that holds lam, one step per evaluation, as for the fold.  It reads
    the branch's own run when that ran at tol or tighter and the cell lies
    within its grid; else it runs the cell.  One `shoot` there is the
    answer, if it meets |λ(m) - lam| <= tol·lam.
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
    # lower end, and the trajectory's seed lies below it.
    m_lo = max(table[j - 1][0] if j else 0.0, lam0 / (2.0 * tr.N_eff))
    law = F.scaling_law()
    levels = law.level(np.array([m_lo, table[j][0]]))
    t_lo, t_hi = np.log(levels).tolist()
    if branch._run is not None and branch._run[0] <= tol and t_lo >= branch._run[1]:
        point = branch._run[2]
    else:
        point = _trajectory(F, tr.N_eff, levels, tol)
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

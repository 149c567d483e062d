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

Every run goes through `solve_ivp`, which has the signature and the result
of scipy's.  A run of one lane without dense output (fold refinement, the
Newton steps of `minimal_solution`, every eigen half-run) runs on scipy's
compiled DOP853 (Hairer-Nørsett-Wanner, *Solving ODEs I*, §II.10) with the
method, step controller and error norm of scipy's Python DOP853 (its first
step comes out 2^(-1/8) smaller for four rows); the Python code runs the
lanes of a grid and every dense run, under the norm of the worst lane.  One
seed (`lane_seed`) and one right-hand side (`lane_rhs`) serve both.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import DOP853, ode
from scipy.integrate import solve_ivp as _scipy_solve_ivp
from scipy.integrate._ivp.ivp import OdeResult

from .errors import DomainValidationError
from .nonlinearity import Nonlinearity

# steps allowed in one compiled run (the longest one-lane run on the
# default schedules takes 374)
_MAX_STEPS = 100_000
# a compiled run carries the quadrature row of an eigen-shot times
# _ROW_SCALE: below atol its terms vanish from the error norm, which sums
# over every row, so a row of up to about 1e97 stays out of it (a larger
# one only shrinks the steps), and one above about 1e-187 keeps every bit
_ROW_SCALE = 2.0 ** -400


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
    if not 0.0 <= m < F.endpoint:
        raise DomainValidationError(
            f"argument outside [0, {F.endpoint}) for {F.label()}")
    F0, F1, F2, F3 = (float(F.unchecked(j, m)) for j in range(4))
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
    w = m(1 - σ₀), which only shrinks its remainder.  Each lane's arithmetic
    runs on Python floats and each of the two powers goes through one numpy
    array call, so a lane of a grid has the bits of its one-lane seed.
    Every run starts here, so tol is checked here.

    Returns (τ₀, initial state, seed radii, center series (3, n) of w).
    """
    if not 0.0 < tol < 1.0:
        raise DomainValidationError(f"tol must lie in (0, 1), got {tol}")
    k = 2.0 + alpha
    series = [center_series(F, N, k, m, nu) for m in ms]
    ms = [float(m) for m in ms]
    roots = (np.array([(tol * m / abs(a[2]), tol / abs(b[2]) if b[2] else math.inf)
                       for m, (a, b) in zip(ms, series)]) ** (1.0 / 3.0)).tolist()
    # the last clause keeps the seed well inside the curvature length m / |a1|
    sigma0 = min(-series_value(a, 0.0, min(*root, 0.1 * m / abs(a[0]))) / m
                 for m, (a, _), root in zip(ms, series, roots))
    seeds = []
    for m, (a, _) in zip(ms, series):
        # Newton on the cubic from its linear root, where a1 s dominates (two
        # steps reach rounding level on the default grids, and a lane meets
        # a step of exactly 0 after three or four)
        a1, a2, a3 = a
        drop = m * sigma0
        s = -drop / a1
        for _ in range(6):
            step = series_value(a, drop, s) / (a1 + s * (2.0 * a2 + 3.0 * s * a3))
            if not step:
                break  # every later step would be exactly 0 as well
            s -= step
        seeds.append(s)
    eps = (np.array(seeds) ** (1.0 / k)).tolist()
    dw, z, dz = zip(*[(series_state(a, m, s, k, e)[1], *series_state(b, 1.0, s, k, e))
                      for m, (a, b), s, e in zip(ms, series, seeds, eps)])
    y0 = np.array(eps + [*dw, *z, *dz])
    return math.sqrt(sigma0), y0, np.array(eps), np.array([a for a, _ in series]).T


def lane_rhs(F: Nonlinearity, N: float, ms: np.ndarray, alpha: float = 0.0,
             nu: float = 0.0, weight: bool = False):
    """Right-hand side d/dτ of the rows (r, w', z, z') of every lane, with
    d/dτ = (dr/dτ) d/dr and dr/dτ = -2mτ/w'.

    Near the center (α = 0) w' ~ r and m - w ~ r², so dr/dτ stays finite,
    where dr/dσ in σ = τ² would blow up like σ^(-1/2).  Since w stays in
    [0, m], F and F' need no domain check (`F.fast_callables()`).  One lane
    runs on Python floats, since numpy would cost more in call overhead than
    the formula, and returns a tuple.  With `weight` (one lane only) a fifth
    row carries the weighted square integral ∫ r^(N-1) z² dr of the linear
    mode.
    """
    c = N - 1.0
    f0, f1 = F.fast_callables()
    one = len(ms) == 1
    m = float(ms[0]) if one else ms

    def rhs(tau, y):
        r, dw, z, dz = y.tolist()[:4] if one else y.reshape(4, -1)
        tau = float(tau)
        w = m * (1.0 - tau * tau)
        dr = -2.0 * tau * m / dw
        f, fp = f0(w), f1(w) + nu
        if alpha:
            ra = r ** alpha
            f, fp = ra * f, ra * fp
        cr = c / r
        rows = (dr, -(f + cr * dw) * dr, dz * dr, -(fp * z + cr * dz) * dr)
        if not one:
            return np.concatenate(rows)
        return rows + (r ** c * z * z * dr,) if weight else rows

    return rhs


class _LaneDOP853(DOP853):
    """DOP853 whose error norm is that of the worst lane.

    The state holds the rows (r, w', z, z') of n lanes, and in an eigen-shot
    a trailing quadrature row, which the norm leaves out: the lane rows
    alone set the steps.  scipy's norm is the RMS over all components, which
    lets one lane's error grow by up to √n; the norm of the worst lane keeps
    `tol` a promise for every shot.
    """

    def _estimate_error_norm(self, K, h, scale):
        if K.shape[1] % 4:
            K, scale = K[:, :-1], scale[:-1]
        err5 = (np.dot(K.T, self.E5) / scale).reshape(4, -1)
        err3 = (np.dot(K.T, self.E3) / scale).reshape(4, -1)
        e5, e3 = np.sum(err5 * err5, axis=0), np.sum(err3 * err3, axis=0)
        denom = 4.0 * (e5 + 0.01 * e3)
        norm = np.divide(e5, np.sqrt(denom), out=np.zeros_like(e5), where=denom > 0.0)
        return abs(h) * float(np.max(norm))


class _CompiledDOP853:
    """scipy's compiled DOP853 (Hairer-Nørsett-Wanner's code behind
    `scipy.integrate.ode`) for one state size, with the controller of
    scipy's Python DOP853: safety 0.9, step factors 0.2 and 10, β = 0, and
    no stiffness test.  For one lane its error norm is that of `_LaneDOP853`.
    Accepted steps follow the same rule; a rejected step is retried at
    0.2 h, where the Python code takes max(0.2, 0.9 err^(-1/8)) h.

    The compiled code keeps a reference to each callable it is handed
    (scipy 1.17), so an instance is reused from run to run and hands it the
    same right-hand side each time, which calls the run's `fun`; a fresh
    `ode` would keep its integrator, the run's closures and every recorded
    step alive.  What is left is one bound method per run, which
    `ode.set_initial_value` makes.
    """

    def __init__(self, size: int):
        self.ode = ode(self._rhs).set_integrator(
            "dop853", nsteps=_MAX_STEPS, safety=0.9, dfactor=0.2, ifactor=10.0, beta=0.0)
        self.ode.set_solout(self._record)
        self.nan = (math.nan,) * size
        self.fun, self.row_scale = None, 1.0
        self.steps: list = []
        self.errors: list = []

    def _rhs(self, t, y):
        try:
            rows = self.fun(t, y)
        except Exception as exc:  # the compiled code would lose it
            self.errors.append(exc)
            return self.nan
        scale = self.row_scale
        return rows if scale == 1.0 else (*rows[:-1], rows[-1] * scale)

    def _record(self, t, y):
        self.steps.append((t, *y.tolist()))

    def run(self, fun, t_span, y0: np.ndarray, rtol: float, atol: float,
            row_scale: float = 1.0):
        """(t, *y) at every accepted step, RHS evaluations and the return
        code of one run, with the last row's derivative times `row_scale`.
        An exception raised by `fun` is raised again as itself."""
        solver, integrator = self.ode, self.ode._integrator
        self.fun, self.row_scale, self.steps, self.errors = fun, row_scale, [], []
        integrator.rtol, integrator.atol = rtol, atol
        solver.set_initial_value(y0, t_span[0])
        integrator.iwork[3] = -1  # no stiffness test, as in scipy's Python DOP853
        try:
            with warnings.catch_warnings():
                # a failed run warns and returns a negative code, read below
                warnings.simplefilter("ignore", UserWarning)
                solver.integrate(t_span[1])
        finally:
            self.fun, errors = None, self.errors
            self.errors = []
        if errors:
            raise errors[0]
        return self.steps, int(integrator.iwork[16]), solver.get_return_code()


_IDLE: dict[int, _CompiledDOP853] = {}


def _compiled_run(fun, t_span, y0: np.ndarray, rtol: float, atol: float) -> OdeResult:
    """One-lane run on the compiled DOP853.  A fifth row is a quadrature
    row: it rides scaled by `_ROW_SCALE`, and rtol and atol shrink by
    √(4/5), so that the norm over the five rows is that of the four lane
    rows."""
    size = len(y0)
    row_scale = _ROW_SCALE if size == 5 else 1.0
    shrink = math.sqrt(0.8) if size == 5 else 1.0
    start = y0.copy()
    start[4:] *= row_scale
    # taken out while it runs, so a nested or concurrent run gets its own
    solver = _IDLE.pop(size, None) or _CompiledDOP853(size)
    try:
        steps, nfev, code = solver.run(fun, t_span, start, shrink * rtol, shrink * atol,
                                       row_scale)
    finally:
        _IDLE[size] = solver
    table = np.array(steps or [(t_span[0], *start)]).T
    y = table[1:]
    y[4:] /= row_scale
    message = solver.ode._integrator.messages.get(code, f"return code {code}")
    return OdeResult(t=table[0], y=y, sol=None, nfev=nfev, njev=0, nlu=0,
                     status=0 if code > 0 else -1, success=code > 0, message=message)


def solve_ivp(fun, t_span, y0, rtol: float, atol: float, dense_output: bool = False):
    """A run of the radial core, with the signature and the result of
    scipy's `solve_ivp` (DOP853 and no other options).

    `y0` holds the rows (r, w', z, z') of each lane and, in an eigen-shot,
    a trailing quadrature row that `fun` does not read and the error norm
    leaves out.  A run of one lane without dense output runs on scipy's
    compiled DOP853 (`_CompiledDOP853`): the method, controller and norm of
    scipy's Python DOP853 at about a quarter of its cost per step.  Lanes
    and dense runs run on scipy's `solve_ivp` under the worst-lane norm
    (`_LaneDOP853`).
    Either way `y` holds the state at every accepted step, and `nfev`
    counts the evaluations of `fun`.
    """
    y0 = np.asarray(y0, dtype=float)
    if dense_output or len(y0) > 5:
        return _scipy_solve_ivp(fun, t_span, y0, method=_LaneDOP853, rtol=rtol,
                                atol=atol, dense_output=dense_output)
    return _compiled_run(fun, t_span, y0, rtol, atol)

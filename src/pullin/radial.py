"""The radial integration core: center series, the one-lane run in the
profile variable, and the Emden-Fowler trajectory of the scaling symmetry.

A one-lane run integrates, for one center value m, the profile w with its
linear mode z,

    w'' + (N-1)/r w' + r^α F(w) = 0,             w(0) = m,
    z'' + (N-1)/r z' + r^α (ν + F'(w)) z = 0,    z(0) = 1,

in τ ∈ [τ₀, 1] with w = m(1 - τ²), so the first zero of w is the fixed
endpoint τ = 1 and the radius r is an unknown.  At ν = 0, z = ∂w/∂m.  The
removable singularity of (N-1)/r at r = 0 rules out starting at the
center, so each run from the center starts at a small seed radius where
the center series is still exact to the integrator tolerance (the right
half-runs of `spectral` start from the edge values at τ = 1 and go back).
`shoot` and every eigen half-run of `spectral` are one-lane runs
(`lane_seed`, `lane_rhs`).

A whole branch comes from one run of the trajectory instead: by the
scaling symmetry of each family (`Nonlinearity.scaling_law`) every center
value m is a level ℓ(m) on the one solution w₀ with center value 0, and
the voltage and its slope there are functions of the two rows
(y, q) = (log λ, dℓ/d log ρ) of w₀ at that level (`trajectory_seed`,
`trajectory_rhs`, `trajectory_voltage`).  The trajectory runs in
t = log ℓ under a pure relative error control (`trajectory_rtol`).

Every run goes through `solve_ivp`, which has the signature and the result
of scipy's.  Every run without dense output (the trajectory and its
steps, every eigen half-run) runs on scipy's compiled DOP853
(Hairer-Nørsett-Wanner, *Solving ODEs I*, §II.10) with the method, step
controller and RMS error norm of scipy's Python DOP853; the dense run of
`shoot` runs on the Python one.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import ode
from scipy.integrate import solve_ivp as _scipy_solve_ivp
from scipy.integrate._ivp.ivp import OdeResult

from .errors import DomainValidationError
from .nonlinearity import Nonlinearity, ScalingLaw

# steps allowed in one compiled run
_MAX_STEPS = 100_000
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
    F0, F1, F2, F3 = (float(F.derivative(j)(m)) for j in range(4))
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


def lane_seed(F: Nonlinearity, N: float, m: float, tol: float,
              alpha: float = 0.0, nu: float = 0.0):
    """Start τ₀ and initial state (r, w', z, z') of the one-lane run from
    the center value m.

    The seed s = r^(2+α) is where the last term of the third-order center
    series of w (relative to m) or of z falls to tol, so the series
    remainder stays below tol, and at most a tenth of the curvature length
    m / |a1|.  Every one-lane run starts here, so tol is checked here.

    Returns (τ₀, initial state, seed radius, center series (a1, a2, a3) of w).
    """
    if not 0.0 < tol < 1.0:
        raise DomainValidationError(f"tol must lie in (0, 1), got {tol}")
    k = 2.0 + alpha
    m = float(m)
    a, b = center_series(F, N, k, m, nu)
    s = min((tol * m / abs(a[2])) ** (1.0 / 3.0),
            (tol / abs(b[2])) ** (1.0 / 3.0) if b[2] else math.inf,
            0.1 * m / abs(a[0]))
    eps = s ** (1.0 / k)
    tau0 = math.sqrt(-series_value(a, 0.0, s) / m)
    dw = series_state(a, m, s, k, eps)[1]
    y0 = np.array([eps, dw, *series_state(b, 1.0, s, k, eps)])
    return tau0, y0, eps, a


def lane_rhs(F: Nonlinearity, N: float, m: float, alpha: float = 0.0,
             nu: float = 0.0, weight: bool = False):
    """Right-hand side d/dτ of the rows (r, w', z, z') of the one-lane run
    from the center value m, with d/dτ = (dr/dτ) d/dr and dr/dτ = -2mτ/w'.

    Near the center (α = 0) w' ~ r and m - w ~ r², so dr/dτ stays finite,
    where dr/dσ in σ = τ² would blow up like σ^(-1/2).  Since w stays in
    [0, m], F and F' need no domain check (`F.derivative`).  It runs on
    Python floats, since numpy would cost more in call overhead than the
    formula, and returns a tuple.  With `weight` a fifth row carries the
    weighted square integral ∫ r^(N-1) z² dr of the linear mode.
    """
    c = N - 1.0
    f0, f1 = F.derivative(0), F.derivative(1)
    m = float(m)

    def rhs(tau, y):
        r, dw, z, dz = y.tolist()[:4]
        tau = float(tau)
        w = m * (1.0 - tau * tau)
        dr = -2.0 * tau * m / dw
        f, fp = f0(w), f1(w) + nu
        if alpha:
            ra = r ** alpha
            f, fp = ra * f, ra * fp
        cr = c / r
        rows = (dr, -(f + cr * dw) * dr, dz * dr, -(fp * z + cr * dz) * dr)
        return rows + (r ** c * z * z * dr,) if weight else rows

    return rhs


def _singular_voltage(law: ScalingLaw, N: float) -> float:
    """e^y* = q*(N - 2 - σq*) of the trajectory's singular point
    (y*, q*) with q* = 2/κ; the point exists where this is positive."""
    q_star = 2.0 / law.kappa
    return q_star * (N - 2.0 - law.sigma * q_star)


def trajectory_rtol(tol: float) -> float:
    """rtol of a trajectory run at tol, whose atol is 0."""
    return max(tol * _TRAJECTORY_RTOL, _TRAJECTORY_RTOL_MIN)


def trajectory_seed(F: Nonlinearity, N: float, tol: float, level_max: float):
    """Start t₀ = log ℓ₀, rows (η, u) and origin y₀ of the Emden-Fowler
    trajectory of w₀, the solution with center value 0 (`ScalingLaw`).

    The trajectory is the curve (y, q) = (log λ, dℓ/da) over the level ℓ,
    with a = log ρ on w₀.  Its rows are η = y - y₀ and u = log(q/q*) with
    q* = 2/κ, so the fold dλ/dm = 0 is where u crosses 0.  y₀ is y* of the
    singular point (y*, q*) (`_singular_voltage`) where that exists, and 0
    otherwise.  A tail that converges onto the singular point keeps its
    relative accuracy under a pure relative error control, and u, unlike
    q - q*, keeps the digits of q ~ ℓ near the center (with q - q*, step
    control near the seed chases rounding noise: the inverse-square disc
    took 42,424 RHS evaluations in its main run, against 2,958 with u).

    The run starts from the third-order center series of w₀
    (`center_series` at m = 0) in s = ρ², at the s where the series' last
    term falls to the run's rtol relative to its first, so the remainder
    stays below rtol, or lower, at half of `level_max`, so that every level
    read off lies above the start.  Every trajectory run starts here, so
    tol is checked here.
    """
    if not 0.0 < tol < 1.0:
        raise DomainValidationError(f"tol must lie in (0, 1), got {tol}")
    law = F.scaling_law()
    a, _ = center_series(F, N, 2.0, 0.0)
    a1, a2, a3 = a
    s = min(math.sqrt(trajectory_rtol(tol) * abs(a1 / a3)), 0.5 * level_max / abs(a1))
    drop = -series_value(a, 0.0, s)
    level = law.drop_level(drop)
    # q = dℓ/da = (dℓ/dd)·2s·dd/ds with dℓ/dd = 1/(1 - σd)
    q = -2.0 * s * (a1 + s * (2.0 * a2 + 3.0 * s * a3)) / (1.0 - law.sigma * drop)
    e_star = _singular_voltage(law, N)
    y0 = math.log(e_star) if e_star > 0.0 else 0.0
    rows = np.array([math.log(s) - law.kappa * level - y0, math.log(0.5 * law.kappa * q)])
    return math.log(level), rows, y0


def trajectory_rhs(F: Nonlinearity, N: float):
    """Right-hand side d/dt of the trajectory rows (η, u) in t = log ℓ,
    the equations of `Nonlinearity.scaling_law` with d/dt = (ℓ/q) d/da:

        dη/dt = -2 (ℓ/q) expm1(u),
        du/dt = (ℓ/q)(2 - N + σq + e^y/q),

    and about the singular point, with c = N - 2 - σq*,

        du/dt = (ℓ/q)(σq* expm1(u) + c expm1(η - u)),

    which vanishes there without cancellation.  It runs on Python floats
    and returns a tuple.
    """
    kappa, sigma = law = F.scaling_law()
    q_star = 2.0 / kappa
    exp, expm1 = math.exp, math.expm1
    if _singular_voltage(law, N) > 0.0:
        sq, c = sigma * q_star, N - 2.0 - sigma * q_star

        def rhs(t, rows):
            eta, u = rows.tolist()
            g = exp(t - u) / q_star
            return (-2.0 * g * expm1(u), g * (sq * expm1(u) + c * expm1(eta - u)))
    else:
        b = 2.0 - N

        def rhs(t, rows):
            y, u = rows.tolist()
            q = q_star * exp(u)
            g = exp(t) / q
            return (-2.0 * g * expm1(u), g * (b + sigma * q + exp(y) / q))

    return rhs


def trajectory_voltage(F: Nonlinearity, y0: float, level: float, rows):
    """(λ, dλ/dm) at the level ℓ from the trajectory rows (η, u) there:
    λ = e^(y₀ + η) and dλ/dm = λ (2 - κq)/q · dℓ/dm = λ κ expm1(-u) e^(-σℓ)."""
    kappa, sigma = F.scaling_law()
    eta, u = rows
    lam = math.exp(y0 + eta)
    return lam, lam * kappa * math.expm1(-u) * math.exp(-sigma * level)


class _CompiledDOP853:
    """scipy's compiled DOP853 (Hairer-Nørsett-Wanner's code behind
    `scipy.integrate.ode`) for one state size, with the controller of
    scipy's Python DOP853: safety 0.9, step factors 0.2 and 10, β = 0, no
    stiffness test, and the RMS error norm.  Accepted steps follow the same
    rule; a rejected step is retried at 0.2 h, where the Python code takes
    max(0.2, 0.9 err^(-1/8)) h, and the first step comes out n^(-1/16)
    smaller for n rows, unless the run names it.  Every accepted step is
    recorded.

    The compiled code keeps a reference to each callable it is handed
    (scipy 1.17), so an instance is reused from run to run and hands it the
    same callables each time: the right-hand side, which calls the run's
    `fun`, and the integrator's `_solout`, bound once here since
    `ode.set_initial_value` hands over that attribute on every run.  A
    fresh `ode` would keep its integrator, the run's closures and every
    recorded step alive.
    """

    def __init__(self, size: int):
        self.ode = ode(self._rhs).set_integrator(
            "dop853", nsteps=_MAX_STEPS, safety=0.9, dfactor=0.2, ifactor=10.0, beta=0.0)
        integrator = self.ode._integrator
        integrator._solout = integrator._solout
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
            row_scale: float = 1.0, first_step: float = 0.0):
        """(t, *y) at every accepted step, RHS evaluations and the return
        code of one run, with the last row's derivative times `row_scale`
        and the first step `first_step` (0 lets the code choose it).  An
        exception raised by `fun` is raised again as itself."""
        solver, integrator = self.ode, self.ode._integrator
        self.fun, self.row_scale, self.steps, self.errors = fun, row_scale, [], []
        integrator.rtol, integrator.atol = rtol, atol
        integrator.first_step = first_step
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


def _compiled_run(fun, t_span, y0: np.ndarray, rtol: float, atol: float,
                  first_step: float = 0.0) -> OdeResult:
    """A run on the compiled DOP853.  A fifth row is a quadrature row: it
    rides scaled by `_ROW_SCALE`, and rtol and atol shrink by √(4/5), so
    that the norm over the five rows is that of the four lane rows."""
    size = len(y0)
    row_scale, shrink = (_ROW_SCALE, math.sqrt(0.8)) if size == 5 else (1.0, 1.0)
    start = y0.copy()
    start[4:] *= row_scale
    # taken out while it runs, so a nested or concurrent run gets its own
    solver = _IDLE.pop(size, None) or _CompiledDOP853(size)
    try:
        steps, nfev, code = solver.run(fun, t_span, start, shrink * rtol, shrink * atol,
                                       row_scale, first_step)
    finally:
        _IDLE[size] = solver
    table = np.array(steps).T
    y = table[1:]
    y[4:] /= row_scale
    message = solver.ode._integrator.messages.get(code, f"return code {code}")
    return OdeResult(t=table[0], y=y, sol=None, nfev=nfev, njev=0, nlu=0,
                     status=0 if code > 0 else -1, success=code > 0, message=message)


def solve_ivp(fun, t_span, y0, rtol: float, atol: float, dense_output: bool = False,
              first_step=None):
    """A run of the radial core, with the signature and the result of
    scipy's `solve_ivp` (DOP853 and no other options).

    `y0` holds the rows (r, w', z, z') of a one-lane run and, in an
    eigen-shot, a trailing quadrature row that `fun` does not read and the
    error norm leaves out; or the two rows of the trajectory.  A dense run
    (`shoot`) runs on scipy's `solve_ivp` with `method="DOP853"`, whose norm
    over four rows is the lane's.  Every other run runs on scipy's compiled
    DOP853 (`_CompiledDOP853`) at about a quarter of the Python cost per
    step.  `y` holds the state at every accepted step; `nfev` counts the
    evaluations of `fun`.
    """
    y0 = np.asarray(y0, dtype=float)
    if dense_output:
        return _scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                                dense_output=True, first_step=first_step)
    return _compiled_run(fun, t_span, y0, rtol, atol, first_step or 0.0)

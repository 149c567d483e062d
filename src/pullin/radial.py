"""The radial integration core that `branch` and `spectral` share: the
center series, the one-lane run in the profile variable, the
Emden-Fowler trajectory of a whole branch, their runner on scipy's
compiled DOP853, and the DOP853 step that reads a run between the steps it
records.

A one-lane run integrates, for one center value m, the profile w with its
tangent z = ∂w/∂m,

    w'' + (N-1)/r w' + r^α F(w) = 0,       w(0) = m,
    z'' + (N-1)/r z' + r^α F'(w) z = 0,    z(0) = 1,

in τ ∈ [τ₀, 1] with w = m(1 - τ²), so the first zero of w is the fixed
endpoint τ = 1 and the radius r is an unknown.  The removable singularity
of (N-1)/r at r = 0 rules out starting at the center, so each run starts
at a small seed radius where the center series is still exact to the
integrator tolerance.  `branch.shoot` is a one-lane run (`lane_seed`,
`lane_rhs`).  The trajectory (`trajectory`, `trajectory_rhs`) runs w₀,
the solution with center value 0, in Emden-Fowler variables from its
center series at m = 0; `branch` reads a whole branch and its fold off
it, and `spectral` the coefficients of μ₁.

Every run goes through `solve_ivp`, which returns the result of scipy's,
and runs on scipy's compiled DOP853 (Hairer-Nørsett-Wanner,
*Solving ODEs I*, §II.10) with the method, step controller and RMS error
norm of scipy's Python DOP853, over every row it is given.  A run records
its accepted steps, and `StepReader` reads it at any point between them
with one more DOP853 step from the recorded step below (`_dop853_step`),
for one point or for an array of them at once: the levels of a branch and
its collocation nodes, the root evaluations on it, and the profile of a
shot.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import ode
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.ivp import OdeResult

from .errors import DomainValidationError, NoCrossingError
from .nonlinearity import Nonlinearity

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


def center_series(F: Nonlinearity, N: float, k: float, m: float):
    """Coefficients of the regular solutions near the center in s = r^k:
    w = m + a1 s + a2 s² + a3 s³ of

        w'' + (N-1)/r w' + r^(k-2) F(w) = 0,   w(0) = m,

    and z = 1 + b1 s + b2 s² + b3 s³ of its tangent z = ∂w/∂m,

        z'' + (N-1)/r z' + r^(k-2) F'(w) z = 0,   z(0) = 1.

    Matching powers of s gives a_j = -[s^(j-1)] F(w) / (jk(jk+N-2)) and
    b_j = -[s^(j-1)] F'(w) z / (jk(jk+N-2)).
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
    b1 = -F1 / c1
    b2 = -(F1 * b1 + F2 * a1) / c2
    b3 = -(F1 * b2 + F2 * (a2 + a1 * b1) + 0.5 * F3 * a1 * a1) / c3
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


def lane_seed(F: Nonlinearity, N: float, m: float, tol: float, alpha: float = 0.0):
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
    a, b = center_series(F, N, k, m)
    s = min((tol * m / abs(a[2])) ** (1.0 / 3.0),
            (tol / abs(b[2])) ** (1.0 / 3.0) if b[2] else math.inf,
            0.1 * m / abs(a[0]))
    eps = s ** (1.0 / k)
    tau0 = math.sqrt(-series_value(a, 0.0, s) / m)
    dw = series_state(a, m, s, k, eps)[1]
    y0 = np.array([eps, dw, *series_state(b, 1.0, s, k, eps)])
    return tau0, y0, eps, a


def lane_rhs(F: Nonlinearity, N: float, m: float, alpha: float = 0.0):
    """Right-hand side d/dτ of the rows (r, w', z, z') of the one-lane run
    from the center value m, with d/dτ = (dr/dτ) d/dr and dr/dτ = -2mτ/w'.

    Near the center (α = 0) w' ~ r and m - w ~ r², so dr/dτ stays finite,
    where dr/dσ in σ = τ² would blow up like σ^(-1/2).  Since w stays in
    [0, m], F and F' need no domain check (`F.derivative`).  It takes the
    rows as a sequence of floats, as a compiled run hands them over, since
    numpy would cost more in call overhead than the formula, or of arrays,
    as a `StepReader` does, and returns a tuple.
    """
    c = N - 1.0
    f0, f1 = F.derivative(0), F.derivative(1)
    m = float(m)

    def rhs(tau, y):
        r, dw, z, dz = y
        w = m * (1.0 - tau * tau)
        dr = -2.0 * tau * m / dw
        f, fp = f0(w), f1(w)
        if alpha:
            ra = r ** alpha
            f, fp = ra * f, ra * fp
        cr = c / r
        return (dr, -(f + cr * dw) * dr, dz * dr, -(fp * z + cr * dz) * dr)

    return rhs


def trajectory(F: Nonlinearity, N: float, top: float, tol: float, solve):
    """t -> (λ, dλ/dm) at the level ℓ = e^t in (0, top] of the Emden-Fowler
    trajectory of w₀, the solution with center value 0
    (`Nonlinearity.scaling_law`); t is a float, or an array read in one
    array step.  Every run goes through `solve`, the caller's own
    `solve_ivp` (`branch.solve_ivp` or `spectral.solve_ivp`, looked up when
    it calls), so that `perfbench` counts each run under the module that
    made it.

    The trajectory is the curve (y, q) = (log λ, dℓ/da) over the level ℓ,
    with a = log ρ on w₀.  Its rows are η = y - y₀ and u = log(q/q*) with
    q* = 2/κ, so the fold dλ/dm = 0 is where u crosses 0.  y₀ is y* of the
    singular point (y*, q*), e^y* = q*(N - 2 - σq*) where that is positive
    (`ScalingLaw.singular_point`), and 0 otherwise.  A tail that converges
    onto the singular point keeps its relative accuracy under a pure
    relative error control (atol 0, rtol = tol·1e-4, at least 1e-15), and u,
    unlike q - q*, keeps the digits of q ~ ℓ near the center, where step
    control on q - q* chased rounding noise.
    At the level ℓ = e^t, λ = e^(y₀ + η) and dλ/dm = λ (2 - κq)/q · dℓ/dm =
    λ κ expm1(-u) e^(-σℓ).

    The run starts on the third-order center series of w₀ (`center_series`
    at m = 0) in s = ρ², at the seed s where the series' last term falls to
    the run's rtol relative to its first; tol is checked here.  A level at
    or below the seed is read off that series, its drop d = (1 - e^(-σℓ))/σ
    (d = ℓ for σ = 0) inverted in s by Newton steps, as `ShootResult.profile`
    reads its own; a top there makes no run.  Above it, one main run records
    its steps up to the top, and each t is read with one step from the last
    recorded step below it (`StepReader`), so that its bits depend only on
    that step and on t.  A failed run raises NoCrossingError.
    """
    if not 0.0 < tol < 1.0:
        raise DomainValidationError(f"tol must lie in (0, 1), got {tol}")
    kappa, sigma = law = F.scaling_law()
    q_star, c, _, _ = law.singular_point(N)
    y0 = math.log(q_star * c) if c > 0.0 else 0.0
    rtol = max(tol * _TRAJECTORY_RTOL, _TRAJECTORY_RTOL_MIN)
    a1, a2, a3 = a = center_series(F, N, 2.0, 0.0)[0]

    def series(s, drop, level):
        # (η, u) at s, with q = dℓ/da = (dℓ/dd)·2s·dd/ds, dℓ/dd = 1/(1 - σd)
        q = -2.0 * s * (a1 + s * (2.0 * a2 + 3.0 * s * a3)) / (1.0 - sigma * drop)
        return np.log(s) - kappa * level - y0, np.log(0.5 * kappa * q)

    def below(t):
        level = np.exp(t)
        drop = -np.expm1(-sigma * level) / sigma if sigma else level
        s = drop / -a1
        for _ in range(4):
            s = s - series_value(a, drop, s) / (a1 + s * (2.0 * a2 + 3.0 * s * a3))
        return series(s, drop, level)

    s = math.sqrt(rtol * abs(a1 / a3))
    drop = -series_value(a, 0.0, s)
    level = law.drop_level(drop)
    t_seed = math.log(level)

    def run(t_span, rows):
        sol = solve(trajectory_rhs(F, N), t_span, rows, rtol=rtol, atol=0.0)
        if not sol.success:
            raise NoCrossingError(
                f"trajectory run failed (family {F.label()}, N_eff={N}, "
                f"log-levels [{t_span[0]}, {t_span[1]}]): {sol.message}")
        return sol

    read = below
    if math.log(top) > t_seed:
        read = StepReader(run((t_seed, math.log(top)), np.array(series(s, drop, level))),
                          trajectory_rhs(F, N, array=True), rtol, 0.0, run)

    def point(t):
        if isinstance(t, float):
            eta, u = below(t) if t <= t_seed else read(t)
        else:
            low = np.asarray(t) <= t_seed
            eta, u = read(np.maximum(t, t_seed))
            if low.any():
                eta_s, u_s = below(np.minimum(t, t_seed))
                eta, u = np.where(low, eta_s, eta), np.where(low, u_s, u)
        lam = np.exp(y0 + eta)
        return lam, lam * kappa * np.expm1(-u) * np.exp(-sigma * np.exp(t))

    return point


def trajectory_rhs(F: Nonlinearity, N: float, array: bool = False):
    """Right-hand side d/dt of the trajectory rows (η, u) in t = log ℓ
    (`trajectory`), the equations of `Nonlinearity.scaling_law` with
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
    law = F.scaling_law()
    q_star, c, _, _ = law.singular_point(N)
    exp, expm1 = (np.exp, np.expm1) if array else (math.exp, math.expm1)
    if c > 0.0:
        sq = law.sigma * q_star

        def rhs(t, rows):
            eta, u = rows
            g, e = exp(t - u) / q_star, expm1(u)
            return (-2.0 * g * e, g * (sq * e + c * expm1(eta - u)))
    else:
        b, sigma = 2.0 - N, law.sigma

        def rhs(t, rows):
            y, u = rows
            q = q_star * exp(u)
            g = exp(t) / q
            return (-2.0 * g * expm1(u), g * (b + sigma * q + exp(y) / q))

    return rhs


# the DOP853 tableau, as (index, coefficient) pairs of its nonzero entries:
# the c and a of stages 2-12, the weights b, and the error weights E5 and E3
_STAGES = [(float(dop853_coefficients.C[s]),
            [(j, float(a)) for j, a in enumerate(dop853_coefficients.A[s, :s]) if a])
           for s in range(1, dop853_coefficients.N_STAGES)]
_WEIGHTS, _ERROR5, _ERROR3 = ([(j, float(e)) for j, e in enumerate(v) if e]
                              for v in (dop853_coefficients.B, dop853_coefficients.E5,
                                        dop853_coefficients.E3))
# a read whose error norm exceeds this, a step the compiled code would have
# rejected, or is NaN, is redone as a compiled run
_READ_NORM_MAX = 1.0


def _combine(terms, K, i):
    """Σ a_j K_j[i] over the (j, a_j) of `terms`, term by term in order."""
    acc = None
    for j, a in terms:
        term = a * K[j][i]
        acc = term if acc is None else acc + term
    return acc


def _dop853_step(fun, t, rows, h, rtol: float, atol: float):
    """One DOP853 step of length h from the rows at t, and its error norm.

    The stages, the solution and the error estimates of the compiled code
    (`dop853_coefficients`), with its norm: |h| E5²/√(n (E5² + E3²/100))
    of the errors scaled by atol + rtol·max(|y|, |y_new|), summed over the
    n rows.  Every sum runs term by term, with no matrix product, so t, h
    and each row may be floats or arrays of one shape, and an element's
    bits do not depend on the others computed with it (as long as `fun`'s
    do not).  Returns (rows at t + h, error norm); a norm above 1 is a step
    the compiled code would reject.
    """
    K = [fun(t, rows)]
    for c, terms in _STAGES:
        K.append(fun(t + c * h, [y + h * _combine(terms, K, i) for i, y in enumerate(rows)]))
    new = [y + h * _combine(_WEIGHTS, K, i) for i, y in enumerate(rows)]
    err5 = err3 = 0.0
    for i, (y, y_new) in enumerate(zip(rows, new)):
        scale = atol + rtol * np.maximum(abs(y), abs(y_new))
        e5, e3 = _combine(_ERROR5, K, i) / scale, _combine(_ERROR3, K, i) / scale
        err5, err3 = err5 + e5 * e5, err3 + e3 * e3
    denominator = err5 + 0.01 * err3
    return new, abs(h) * err5 / np.sqrt(np.where(denominator > 0.0, denominator, 1.0) * len(rows))


class StepReader:
    """The rows of a recorded run (`t`, `y`, as `solve_ivp` returns them) at
    any t from its first recorded t to its last, a float or an array.

    Each t is read with one DOP853 step (`_dop853_step` of `fun`) from the
    last recorded step below it, so its bits depend only on that step and
    on t, not on the other t read with it, given a `fun` whose bits do not
    (`trajectory_rhs` with `array`).  The last recorded t can fall ulps
    short of the run's end, so a t past it is read from the step before.
    A read whose error norm is not <= `_READ_NORM_MAX`, NaN included, is
    redone by `rerun(t_span, rows)`, a compiled run from that step to t.
    Returns the rows as a list: floats for a float t, else arrays of its
    shape.
    """

    def __init__(self, sol: OdeResult, fun, rtol: float, atol: float, rerun):
        self.t, self.y = sol.t, sol.y
        self.fun, self.rtol, self.atol, self.rerun = fun, rtol, atol, rerun

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        shape, t = t.shape, t.ravel()
        k = np.maximum(np.searchsorted(self.t[:-1], t) - 1, 0)
        start, rows = self.t[k], self.y[:, k]
        if not shape:
            t, start, rows, k = float(t[0]), float(start[0]), rows[:, 0].tolist(), int(k[0])
        new, norm = _dop853_step(self.fun, start, list(rows), t - start, self.rtol, self.atol)
        if not shape:
            if not norm <= _READ_NORM_MAX:
                new = self.rerun((start, t), self.y[:, k]).y[:, -1].tolist()
            return new
        for i in np.flatnonzero(~(norm <= _READ_NORM_MAX)):
            end = self.rerun((start[i], t[i]), self.y[:, k[i]]).y[:, -1]
            for row, value in zip(new, end):
                row[i] = value
        return [row.reshape(shape) for row in new]


class _CompiledDOP853:
    """scipy's compiled DOP853 (Hairer-Nørsett-Wanner's code behind
    `scipy.integrate.ode`) for one state size, with the controller of
    scipy's Python DOP853: safety 0.9, step factors 0.2 and 10, β = 0, no
    stiffness test, and the RMS error norm.  Accepted steps follow the same
    rule; a rejected step is retried at 0.2 h, where the Python code takes
    max(0.2, 0.9 err^(-1/8)) h, and the first step comes out n^(-1/16)
    smaller for n rows.  Every accepted step is recorded.

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
        self.fun = None
        self.steps: list = []
        self.errors: list = []

    def _rhs(self, t, y):
        try:
            return self.fun(t, y.tolist())
        except Exception as exc:  # the compiled code would lose it
            self.errors.append(exc)
            return self.nan

    def _record(self, t, y):
        self.steps.append((t, *y.tolist()))

    def run(self, fun, t_span, y0: np.ndarray, rtol: float, atol: float):
        """(t, *y) at every accepted step, RHS evaluations and the return
        code of one run.  An exception raised by `fun` is raised again as
        itself."""
        solver, integrator = self.ode, self.ode._integrator
        self.fun, self.steps, self.errors = fun, [], []
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


def solve_ivp(fun, t_span, y0, rtol: float, atol: float) -> OdeResult:
    """A run of the radial core on scipy's compiled DOP853
    (`_CompiledDOP853`), with the result of scipy's `solve_ivp` (DOP853 and
    no other options).  `fun(t, rows)` gets the rows as a list of floats.

    `y0` holds the rows (r, w', z, z') of a one-lane run, or the two rows
    (η, u) of the trajectory; the error norm takes in every row.  `y` holds
    the state at every accepted step, which a `StepReader` reads between
    them; `nfev` counts the evaluations of `fun`.
    """
    y0 = np.asarray(y0, dtype=float)
    size = len(y0)
    # taken out while it runs, so a nested or concurrent run gets its own
    solver = _IDLE.pop(size, None) or _CompiledDOP853(size)
    try:
        steps, nfev, code = solver.run(fun, t_span, y0, rtol, atol)
    finally:
        _IDLE[size] = solver
    table = np.array(steps).T
    message = solver.ode._integrator.messages.get(code, f"return code {code}")
    return OdeResult(t=table[0], y=table[1:], sol=None, nfev=nfev, njev=0, nlu=0,
                     status=0 if code > 0 else -1, success=code > 0, message=message)

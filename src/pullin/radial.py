"""The radial integration core that `branch` and `spectral` share: the
center series, the one-lane run in the profile variable, its runner on
scipy's compiled DOP853, and the DOP853 step that reads a run between the
steps it records.

A one-lane run integrates, for one center value m, the profile w with its
linear mode z,

    w'' + (N-1)/r w' + r^α F(w) = 0,             w(0) = m,
    z'' + (N-1)/r z' + r^α (ν + F'(w)) z = 0,    z(0) = 1,

in τ ∈ [τ₀, 1] with w = m(1 - τ²), so the first zero of w is the fixed
endpoint τ = 1 and the radius r is an unknown.  At ν = 0, z = ∂w/∂m.  The
removable singularity of (N-1)/r at r = 0 rules out starting at the
center, so each run starts at a small seed radius where the center series
is still exact to the integrator tolerance.  `branch.shoot` and the
profile run of `spectral.mu1` are one-lane runs (`lane_seed`,
`lane_rhs`); the Emden-Fowler trajectory of a whole branch
(`branch._trajectory`) starts from the center series at m = 0.

Every run goes through `solve_ivp`, which returns the result of scipy's,
and runs on scipy's compiled DOP853 (Hairer-Nørsett-Wanner,
*Solving ODEs I*, §II.10) with the method, step controller and RMS error
norm of scipy's Python DOP853, over every row it is given.  A run records
its accepted steps, and `StepReader` reads it at any point between them
with one more DOP853 step from the recorded step below (`_dop853_step`),
for one point or for an array of them at once: the levels of a branch and
its collocation nodes, the root evaluations on it, and the profile of a
shot or of `mu1`'s run.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import ode
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.ivp import OdeResult

from .errors import DomainValidationError
from .nonlinearity import Nonlinearity

# steps allowed in one compiled run
_MAX_STEPS = 100_000


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
             nu: float = 0.0):
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
        f, fp = f0(w), f1(w) + nu
        if alpha:
            ra = r ** alpha
            f, fp = ra * f, ra * fp
        cr = c / r
        return (dr, -(f + cr * dw) * dr, dz * dr, -(fp * z + cr * dz) * dr)

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
# rejected, is redone as a compiled run
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
    any t up to its last recorded t, a float or an array.

    Each t is read with one DOP853 step (`_dop853_step` of `fun`) from the
    last recorded step below it, so its bits depend only on that step and
    on t, not on the other t read with it, given a `fun` whose bits do not
    (`branch.trajectory_rhs` with `array`).  A t below the first recorded
    t, such as a collocation node next to the center, is read with one
    step back from it.  The last recorded t can fall ulps short of the
    run's end, so a t past it is read from the step before.
    A read whose error norm exceeds `_READ_NORM_MAX` is redone by
    `rerun(t_span, rows)`, a compiled run from that recorded step to t.
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
            if norm > _READ_NORM_MAX:
                new = self.rerun((start, t), self.y[:, k]).y[:, -1].tolist()
            return new
        for i in np.flatnonzero(norm > _READ_NORM_MAX):
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
    of `branch`'s trajectory; the error norm takes in every row.  `y` holds
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

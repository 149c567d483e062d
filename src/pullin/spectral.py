"""Radial Sturm-Liouville solver in real dimension N.

Computes the principal Dirichlet eigenvalue of the radial Laplacian on the
unit ball, eigenfunction weight integrals, and the principal eigenvalue of
the linearized operator -Δ - λ F'(u) that decides stability of a solution
branch.  Every eigen-shot integrates the profile u together with the trial
eigenfunction psi in one DOP853 run, so the potential λF'(u) is exact to the
integrator tolerance; λ = 0 gives the plain Laplacian.  The principal mode
is pinned down by counting interior zeros of the shot eigenfunction (Sturm),
so a poor initial bracket can never silently return a higher mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .errors import BracketError, DomainValidationError, QuadratureError
from .geometry import volume_unit_ball
from .nonlinearity import Nonlinearity, exponential
from .radial import center_series, series_state, series_value

_MAX_POTENTIAL = 2e5  # beyond this the shot eigenfunction overflows double range
# eigen-shots run at rtol = _SHOT_RTOL * tol; at rtol = tol the integrator
# error alone moves λ₁(N=3) by 1.35e-10, past a tol of 1e-10
_SHOT_RTOL = 0.1
# any family will do at λ = 0: u stays at u(0) and the potential vanishes
_NO_SOURCE = exponential()


@dataclass
class EigenPair:
    """Principal eigenvalue and radial eigenfunction psi on [0, 1].

    psi is normalized by psi(0) = 1.  `normalization` is the factor c such
    that the rescaled eigenfunction c*psi has unit integral over the ball.
    """

    eigenvalue: float
    r: np.ndarray
    psi: np.ndarray
    dimension: float
    normalization: float
    _psi_at: Callable = field(repr=False, compare=False)

    def at(self, r):
        """psi at radius r in [0, 1], from the shot itself (not the samples)."""
        return self._psi_at(r)

    def weight_ratio(self, alpha: float) -> float:
        """Mean of |x|^alpha against the normalized eigenfunction c*psi.

        Equals the ratio of the radial integrals of r^(N-1+alpha) psi and
        r^(N-1) psi; the ball-volume factors cancel, so fractional N needs no
        special casing.  Requires N + alpha > 0 for integrability.
        """
        N = self.dimension
        if alpha <= -N:
            raise DomainValidationError(
                f"weight exponent alpha={alpha} not integrable in dimension {N}")
        moment = _radial_moment(self._psi_at, N - 1.0 + alpha)
        return moment * N * volume_unit_ball(N) * self.normalization


def _radial_moment(psi_at: Callable, power: float) -> float:
    """Integral of r^power psi(r) over [0, 1]."""
    # substitute s = r^(power+1) so the weight becomes constant
    k = power + 1.0
    val, err = quad(lambda s: psi_at(s ** (1.0 / k)), 0.0, 1.0,
                    epsabs=0.0, epsrel=1e-11, limit=200)
    if not np.isfinite(val):
        raise QuadratureError(f"weight integral diverged for power {power}")
    return val / k


def _shoot_mode(N: float, F: Nonlinearity, lam: float, m: float, mu: float,
                rtol: float, dense: bool = False):
    """Integrate the profile and the trial eigenfunction on [0, 1]:

        u'' + (N-1)/r u' + λ F(u) = 0,                   u(0) = m,
        psi'' + (N-1)/r psi' + (μ + λ F'(u)) psi = 0,    psi(0) = 1,

    from their center series in s = r².  Returns (number of zeros of psi in
    (0, 1], psi(1), psi evaluator or None unless `dense`).  The zeros are
    the sign changes of psi between accepted steps: at these tolerances a
    step spans a small fraction of a half-wave of psi, so none is missed.
    """
    a, b = center_series(F, N, 2.0, m, lam, mu)
    # each term j of both series at most rtol^(j/3), for u relative to
    # max(m, 1) so that m = 0 is allowed: the terms then fall off
    # geometrically and the remainder is below rtol
    s = 0.01
    for j, (aj, bj) in enumerate(zip(a, b), 1):
        size = max(abs(aj) / max(m, 1.0), abs(bj))
        if size > 0.0:
            s = min(s, rtol ** (1.0 / 3.0) / size ** (1.0 / j))
    eps = math.sqrt(s)
    y0 = series_state(a, m, s, 2.0, eps) + series_state(b, 1.0, s, 2.0, eps)

    f_raw, fp_raw = F.fast_callables()
    c = N - 1.0

    def rhs(r, y):
        u, du, psi, dpsi = y
        return (du, -lam * f_raw(u) - c / r * du,
                dpsi, -(mu + lam * fp_raw(u)) * psi - c / r * dpsi)

    sol = solve_ivp(rhs, (eps, 1.0), y0, method="DOP853", rtol=rtol,
                    atol=rtol * 1e-2, dense_output=dense)
    if not sol.success:
        raise BracketError(f"eigen shot failed at mu={mu}: {sol.message}")
    psi = sol.y[2]
    zeros = int(np.count_nonzero(np.signbit(psi[1:]) != np.signbit(psi[:-1])))
    if not dense:
        return zeros, float(psi[-1]), None

    def psi_at(r):
        r = np.asarray(r, dtype=float)
        out = np.where(r < eps, series_value(b, 1.0, r * r),
                       sol.sol(np.clip(r, eps, 1.0))[2])
        return float(out) if out.ndim == 0 else out

    return zeros, float(psi[-1]), psi_at


def _principal_eigenvalue(N: float, F: Nonlinearity, lam: float, m: float,
                          lo: float, hi: float, tol: float, relative: bool):
    """Smallest mu with psi(1; mu) = 0.

    lo moves down until its shot has no interior zero and psi(1) > 0, hi up
    until it has not.  Bisection then lowers hi until its shot has exactly
    one interior zero, which puts hi in (mu_1, mu_2]: there psi(1; mu) has
    mu_1 as its only root, and brentq finds it to within tol, or to within
    tol * max(1, |mu_1|) when `relative`.
    """
    rtol = _SHOT_RTOL * tol
    shots = {}

    def shot(mu):
        if mu not in shots:
            shots[mu] = _shoot_mode(N, F, lam, m, mu, rtol)
        return shots[mu]

    def below(mu) -> bool:
        # True when mu is below the principal eigenvalue.
        zeros, end, _ = shot(mu)
        return zeros == 0 and end > 0.0

    for _ in range(80):
        if below(lo):
            break
        lo = lo * 2.0 if lo < 0 else lo / 2.0 if lo > 1e-12 else -1.0
    else:
        raise BracketError("could not find a lower eigenvalue bracket")
    for _ in range(80):
        if not below(hi):
            break
        hi *= 2.0
    else:
        raise BracketError("could not find an upper eigenvalue bracket")
    for _ in range(200):
        if shot(hi)[0] <= 1:
            break
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    else:
        raise BracketError("could not separate the principal eigenvalue")

    root = brentq(lambda mu: shot(mu)[1], lo, hi, xtol=0.5 * tol,
                  rtol=0.5 * tol if relative else 4.0 * np.finfo(float).eps)
    return root


def lambda1_ball(N: float, tol: float = 1e-10) -> EigenPair:
    """Principal Dirichlet eigenvalue of -Δ on the unit ball in dimension N,
    to within tol.

    Reference points: N=1 gives pi^2/4, N=2 the square of the first zero of
    the Bessel function J0, N=3 gives pi^2.
    """
    if N < 1:
        raise DomainValidationError(f"dimension must be >= 1, got {N}")
    lam = _principal_eigenvalue(N, _NO_SOURCE, 0.0, 0.0, 1.0, 4.0 * N * N,
                                tol, relative=False)
    _, _, psi_at = _shoot_mode(N, _NO_SOURCE, 0.0, 0.0, lam, _SHOT_RTOL * tol,
                               dense=True)
    r = np.linspace(0.0, 1.0, 1025)
    psi = psi_at(r)
    psi[-1] = 0.0  # Dirichlet end, exact by construction
    c = 1.0 / (N * volume_unit_ball(N) * _radial_moment(psi_at, N - 1.0))
    return EigenPair(lam, r, psi, N, c, psi_at)


def profile_weight_ratio(N: float, alpha: float, tol: float = 1e-10) -> float:
    """Mean of |x|^alpha against the normalized principal eigenfunction
    (see :meth:`EigenPair.weight_ratio`).  Requires N + alpha > 0."""
    return lambda1_ball(N, tol).weight_ratio(alpha)


def mu1(N: float, F: Nonlinearity, lam: float, u, tol: float = 1e-8) -> float:
    """Principal eigenvalue of the linearized operator -Δ - λ F'(u), to within
    tol * max(1, |mu1|).

    Reads only the center value `u.m` of the solution (a `RadialSolution` or
    a `ShootResult`) and `lam`: the profile is integrated again together
    with each trial eigenfunction, so the potential λF'(u) is exact to the
    integrator tolerance.  Positive on the stable branch, zero at the fold,
    negative beyond it.
    """
    if lam < 0:
        raise DomainValidationError(f"voltage must be nonnegative, got {lam}")
    # the profile decreases from its center value, and so does the potential
    q_max = lam * float(F.deriv(u.m))
    if q_max > _MAX_POTENTIAL:
        raise BracketError(
            f"linearization potential {q_max:.3g} exceeds {_MAX_POTENTIAL:.0g}; "
            "the shot eigenfunction would overflow")
    return _principal_eigenvalue(N, F, lam, u.m, -(q_max + 1.0), 4.0 * N * N + 10.0,
                                 tol, relative=True)

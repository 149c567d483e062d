"""The acceptance criteria suite behind ``pullin verify``.

Each criterion is a self-contained check with a frozen tolerance.  Reference
numbers come from the standard tables for this problem class; where an entry
is irreproducible from its own defining formula, the criterion is kept as
stated (and fails honestly) with the discrepancy spelled out in the detail
string.

The suite shares solved branches through a cache, so the whole run stays in
the low minutes on one machine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from . import bounds, branch, powerlaw, spectral
from .errors import DomainValidationError
from .nonlinearity import (Family, Nonlinearity, exponential,
                           mems_inverse_power, power_growth)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


# ---------------------------------------------------------------------------
# shared, cached heavy artifacts
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _branch(F: Nonlinearity, N: float, alpha: float = 0.0,
            n_points: int = 400, stability: bool = False) -> branch.Branch:
    prob = branch.ProblemSpec(N, F, alpha)
    grid = branch.default_m_grid(F, n_points)
    return branch.solve_branch(prob, grid, stability=stability)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def check_exp_constant_table() -> tuple[bool, str]:
    """Exponential sup-norm constants for N = 3..9 against the reference
    table, absolute tolerance 1e-3."""
    reference = {3: 1.9915, 4: 2.2324, 5: 2.6689, 6: 3.42269,
                 7: 4.81191, 8: 7.9408166, 9: 19.0031}
    deltas = {}
    for N, ref in reference.items():
        val = bounds.exp_supnorm_constant(float(N)).value
        deltas[N] = abs(val - ref)
    worst = max(deltas, key=deltas.get)
    passed = all(d <= 1e-3 for d in deltas.values())
    detail = f"max |computed - reference| = {deltas[worst]:.2e} at N={worst}"
    if not passed and worst == 7:
        detail += ("; the N=7 reference entry 4.81191 is inconsistent with its "
                   "own defining minimization (a dense 2e6-point scan of the "
                   "objective gives 4.81913, and the other six entries match "
                   "to 5e-5) - it appears to carry transposed digits")
    return passed, detail


def check_mems_disc_branch() -> tuple[bool, str]:
    """Inverse-square disc: pull-in voltage 0.789 and distance 0.445, both
    within 5e-3, computed in under 10 seconds."""
    t0 = time.perf_counter()
    b = _branch(mems_inverse_power(2.0), 2.0)
    dt = time.perf_counter() - t0
    ok = (abs(b.lambda_star - 0.789) <= 5e-3 and abs(b.m_star - 0.445) <= 5e-3
          and dt < 10.0)
    # the time enters the detail only past the gate, so a passing run reads
    # the same every time
    return ok, (f"lambda*={b.lambda_star:.6f} (ref 0.789), "
                f"m*={b.m_star:.6f} (ref 0.445), "
                + ("within 10s" if dt < 10.0 else f"{dt:.1f}s, over the 10s gate"))


def check_alpha_invariance() -> tuple[bool, str]:
    """On the disc the reduced voltage lambda*_a/(1+a/2)^2 and the pull-in
    distance are independent of the weight exponent, to 1e-3."""
    mems = mems_inverse_power(2.0)
    base = _branch(mems, 2.0)
    lam0, m0 = base.lambda_star, base.m_star
    worst_lam = worst_m = 0.0
    for alpha in (1.0, 3.0):
        b = _branch(mems, 2.0, alpha)
        factor = (1.0 + alpha / 2.0) ** 2
        worst_lam = max(worst_lam, abs(b.lambda_star / factor - lam0))
        worst_m = max(worst_m, abs(b.m_star - m0))
    ok = worst_lam <= 1e-3 and worst_m <= 1e-3
    return ok, f"max reduced-voltage dev {worst_lam:.2e}, max distance dev {worst_m:.2e}"


def check_singular_accumulation() -> tuple[bool, str]:
    """lambda(m) approaches the singular voltage: inverse-square N=8 within
    1% of 40/9 at m = 1 - 1e-3, exponential N=10 within 1% of 16 at m = 20."""
    lam_mems = branch.shoot(mems_inverse_power(2.0), 8.0, 1.0 - 1e-3).lam
    lam_exp = branch.shoot(exponential(), 10.0, 20.0).lam
    dev1 = abs(lam_mems / (40.0 / 9.0) - 1.0)
    dev2 = abs(lam_exp / 16.0 - 1.0)
    ok = dev1 <= 0.01 and dev2 <= 0.01
    return ok, (f"inverse-square N=8: lambda={lam_mems:.6f} (rel dev {dev1:.2e}); "
                f"exp N=10: lambda={lam_exp:.6f} (rel dev {dev2:.2e})")


def check_cube_bound() -> tuple[bool, str]:
    """Unit-cube sup-norm bound in dimension 3 (lambda1 = 3*pi^2, volume 1)
    reproduces 0.993 within 2e-3."""
    stats = bounds.DomainStats(lambda1=3.0 * math.pi ** 2, volume=1.0, N=3.0,
                               inf_f=1.0, sup_f=1.0, f_phi_integral=1.0)
    rep = bounds.mems_supnorm_bound(stats)
    ok = abs(rep.value - 0.993) <= 2e-3
    return ok, f"bound {rep.value:.6f} (ref 0.993 +- 0.002)"


def check_radial_upper_bounds() -> tuple[bool, str]:
    """Radial integral inequality optimized over t: reference values 0.49
    (N=1) and 0.55 (N=2), tolerance 1e-2."""
    v1 = bounds.mems_ball_supnorm_bound(1.0).value
    v2 = bounds.mems_ball_supnorm_bound(2.0).value
    ok = abs(v1 - 0.49) <= 1e-2 and abs(v2 - 0.55) <= 1e-2
    detail = f"N=1: {v1:.4f} (ref 0.49), N=2: {v2:.4f} (ref 0.55)"
    if not ok:
        detail += ("; these are the faithful optima of the radial integral "
                   "inequality as stated - its closed-form dimension-1 weakening "
                   "reproduces our machinery exactly, and no volume or "
                   "constant convention we tested yields both 0.49 and 0.55, "
                   "so the reference values appear not to come from the "
                   "inequality as printed")
    return ok, detail


def check_bound_sandwich() -> tuple[bool, str]:
    """Inverse-square ball, N = 1..7: computed pull-in distance respects the
    lower bound 1/3 and computed voltage respects 4*lambda1/27."""
    fails = []
    details = []
    for N in range(1, 8):
        b = _branch(mems_inverse_power(2.0), float(N))
        lam1 = spectral.lambda1_ball(float(N)).eigenvalue
        ok_m = b.m_star >= 1.0 / 3.0 - 1e-3
        ok_lam = b.lambda_star <= 4.0 * lam1 / 27.0 + 1e-6
        if not (ok_m and ok_lam):
            fails.append(N)
        details.append(f"N={N}: m*={b.m_star:.4f}, lambda*={b.lambda_star:.4f}, "
                       f"4*lam1/27={4 * lam1 / 27:.4f}")
    return not fails, "; ".join(details) + (f"; FAILED at N={fails}" if fails else "")


def check_stability_fold() -> tuple[bool, str]:
    """Stability eigenvalue positive on the minimal branch, vanishing at the
    fold: |mu1| < 1e-2 * lambda* at the refined fold."""
    mems = mems_inverse_power(2.0)
    cases = [("mems:2", mems, 2.0), ("mems:2", mems, 5.0), ("exp", exponential(), 2.0)]
    problems = []
    for key, F, N in cases:
        b = _branch(F, N, n_points=61, stability=True)
        stable = b.stable_points()
        stable_mu = [p.mu1 for p in stable if p.mu1 is not None]
        unstable_mu = [p.mu1 for p in b.points[len(stable):] if p.mu1 is not None]
        if not all(mu > 0 for mu in stable_mu):
            problems.append(f"{key} N={N}: nonpositive mu1 below the fold")
        if unstable_mu and not unstable_mu[0] < 0:
            problems.append(f"{key} N={N}: mu1 did not flip sign past the fold")
        sol = branch.shoot(F, N, b.m_star).solution()
        mu_fold = spectral.mu1(N, F, sol.lam, sol)
        if not abs(mu_fold) < 1e-2 * b.lambda_star:
            problems.append(f"{key} N={N}: |mu1(fold)|={abs(mu_fold):.2e} "
                            f">= {1e-2 * b.lambda_star:.2e}")
    return not problems, "; ".join(problems) if problems else \
        "mu1 > 0 on all minimal branches, sign flip at fold, fold mu1 within tolerance"


def check_envelopes() -> tuple[bool, str]:
    """Two-sided envelopes around the minimal solution at 0.5 and 0.9 of the
    singular voltage (exp N=10, inverse-square N=9), tolerance 1e-3 at 100
    log-spaced radii."""
    worst = -math.inf
    details = []
    for key, F, N in (("exp", exponential(), 10.0),
                      ("mems:2", mems_inverse_power(2.0), 9.0)):
        prob = branch.ProblemSpec(N, F, 0.0)
        b = _branch(F, N)
        lam_star = powerlaw.singular_extremal(F, N).lambda_star
        for frac in (0.5, 0.9):
            lam = frac * lam_star
            u = branch.minimal_solution(prob, lam, b)
            env = powerlaw.asymptotic_envelopes(F, N, lam)
            r = np.geomspace(0.01, 1.0, 100)
            uv = u.at(r)
            over = float(np.max(uv - env.upper(r)))
            under = float(np.max(env.lower(r) - uv))
            worst = max(worst, over, under)
            details.append(f"{key} N={N:g} {frac}x: over={over:.1e} under={under:.1e}")
    return worst <= 1e-3, "; ".join(details)


def check_exact_residuals() -> tuple[bool, str]:
    """Closed-form singular extremals satisfy the weighted radial equation to
    1e-8 on r in [0.05, 0.999]."""
    r = np.linspace(0.05, 0.999, 400)
    worst = 0.0
    mems = mems_inverse_power(2.0)
    a8 = powerlaw.alpha_critical_mems(8.0)
    for F, N, alpha in ((mems, 8.0, 0.0), (mems, 8.0, a8 / 2.0),
                        (exponential(), 10.0, 0.0), (exponential(), 12.0, 0.0)):
        se = powerlaw.singular_extremal(F, N, alpha)
        worst = max(worst, float(np.max(np.abs(se.ode_residual(r)))))
    return worst < 1e-8, f"max residual {worst:.2e}"


# -- independent oracles for the closed forms -------------------------------

def _sup_ratio_oracle(F: Nonlinearity) -> float:
    """Grid sup of u/F(u), refined twice around the maximizer."""
    hi = 1.0 - 1e-9 if F.is_singular else 50.0
    xs = np.linspace(1e-9, hi, 20001)
    g = xs / F.value(xs)
    i = int(np.argmax(g))
    for _ in range(2):
        lo2, hi2 = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
        xs = np.linspace(lo2, hi2, 20001)
        g = xs / F.value(xs)
        i = int(np.argmax(g))
    return float(g[i])


def _recip_integral_oracle(F: Nonlinearity) -> float:
    """Adaptive quadrature of 1/F; regular families split at 50 and use the
    analytic tail."""
    if F.is_singular:
        val, _ = quad(lambda u: 1.0 / F.value(u), 0.0, 1.0,
                      epsabs=1e-13, epsrel=1e-12, limit=200)
        return val
    val, _ = quad(lambda u: 1.0 / F.value(u), 0.0, 50.0,
                  epsabs=1e-13, epsrel=1e-12, limit=200)
    if F.family is Family.EXPONENTIAL:
        tail = math.exp(-50.0)
    else:
        tail = 51.0 ** (1.0 - F.p) / (F.p - 1.0)
    return val + tail


def check_oracle_equivalence() -> tuple[bool, str]:
    """Closed-form voltage constants match grid/quadrature oracles to 1e-6
    relative; minimized constants match 1e5-point scans to 1e-4 relative."""
    worst_const = 0.0
    for F in (exponential(), mems_inverse_power(2.0), mems_inverse_power(3.5),
              power_growth(2.0), power_growth(3.0)):
        B, C = F.voltage_constants()
        worst_const = max(worst_const,
                          abs(B / _sup_ratio_oracle(F) - 1.0),
                          abs(C / _recip_integral_oracle(F) - 1.0))

    worst_min = 0.0
    for constant, window, objective, cases in (
            (bounds.exp_supnorm_constant, bounds._exp_window,
             bounds._exp_constant_objective, [(3.0,), (6.0,), (9.0,)]),
            (bounds.mems_supnorm_constant, bounds._mems_window,
             bounds._mems_constant_objective, [(3.0,), (5.0,), (7.0,)]),
            (bounds.power_supnorm_constant, bounds._power_window,
             bounds._power_constant_objective, [(3.0, 2.0), (4.0, 3.0)])):
        for args in cases:
            lo, hi = window(*args)
            ts = np.linspace(lo + 1e-9, hi - 1e-9, 100000)
            scan = float(np.min(objective(ts, *args)))
            worst_min = max(worst_min, abs(constant(*args).value / scan - 1.0))
    ok = worst_const <= 1e-6 and worst_min <= 1e-4
    return ok, (f"voltage constants: worst rel dev {worst_const:.2e}; "
                f"minimized constants vs scans: worst rel dev {worst_min:.2e}")


def check_transform_round_trip() -> tuple[bool, str]:
    """Direct weighted shooting agrees with the fractional-dimension
    reduction on lambda(m) to 1e-6 relative for (N, alpha) in
    {(3,1), (2,3), (5,-1)}."""
    F = mems_inverse_power(2.0)
    worst = 0.0
    for N, alpha in ((3.0, 1.0), (2.0, 3.0), (5.0, -1.0)):
        tr = powerlaw.dim_transform(N, alpha)
        for m in np.linspace(0.05, 0.8, 10):
            lam_direct = branch.shoot(F, N, m, tol=1e-11, alpha=alpha).lam
            lam_reduced = tr.voltage_factor * branch.shoot(F, tr.N_eff, m, tol=1e-11).lam
            worst = max(worst, abs(lam_direct / lam_reduced - 1.0))
    return worst <= 1e-6, f"worst relative deviation {worst:.2e}"


CRITERIA: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("exp_constant_table", check_exp_constant_table),
    ("mems_disc_branch", check_mems_disc_branch),
    ("alpha_invariance", check_alpha_invariance),
    ("singular_accumulation", check_singular_accumulation),
    ("cube_bound", check_cube_bound),
    ("radial_upper_bounds", check_radial_upper_bounds),
    ("bound_sandwich", check_bound_sandwich),
    ("stability_fold", check_stability_fold),
    ("asymptotic_envelopes", check_envelopes),
    ("exact_solution_residuals", check_exact_residuals),
    ("oracle_equivalence", check_oracle_equivalence),
    ("transform_round_trip", check_transform_round_trip),
]


def run(names: Optional[list[str]] = None,
        printer: Optional[Callable[[str], None]] = None) -> list[CriterionResult]:
    """Run the (selected) criteria, printing one pass/fail line per criterion."""
    selected = CRITERIA if names is None else \
        [(n, fn) for n, fn in CRITERIA if n in set(names)]
    if names is not None and len(selected) != len(set(names)):
        known = {n for n, _ in CRITERIA}
        unknown = sorted(set(names) - known)
        raise DomainValidationError(f"unknown criteria: {unknown}; known: {sorted(known)}")
    results = []
    for name, fn in selected:
        t0 = time.perf_counter()
        passed, detail = fn()
        dt = time.perf_counter() - t0
        # numpy comparisons give numpy bools; the CLI serializes plain ones
        results.append(CriterionResult(name, bool(passed), detail, dt))
        if printer is not None:
            printer(f"[{'PASS' if passed else 'FAIL'}] {name} ({dt:.1f}s): {detail}")
    return results

"""The workloads: what each one runs, and how its answers are checked.

There are two workloads.  ``shooting`` holds every task that shoots the
nonlinear problem, in three groups (``branch_sweep``, ``stability_scan``,
``pullin_asymptotics``); ``bounds_tables`` holds the analytic bounds and
constant tables, which do no nonlinear shooting.  The groups are kept apart
in the reports; they share a workload because a run of 20-25 s per group was
too short for steady times on a machine whose speed swings by +-20% for
seconds at a time.

Each workload has a fixed task list, run again and again while the clock
runs, and a few seeded extras, run once.  A task is one top-level public
call into ``pullin``.  Tasks whose cost does not depend on the seed may take
seeded inputs (the disc weight exponent, the bound-table weight exponent);
inputs that change the cost, such as a fractional dimension or a voltage
fraction, go to the extras so that the timed figures stay comparable
between seeds.

Every check runs after the clock has stopped, on the answers the timed
tasks returned.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import jn_zeros

from pullin import bounds, branch, powerlaw, spectral
from pullin.nonlinearity import exponential, mems_inverse_power, power_growth

from tracing import is_singular

EXP = exponential()
MEMS = mems_inverse_power(2.0)
POWER = power_growth(2.0)

# Reduced schedules.  The library defaults (400 points for a branch, 160 for
# the asymptotics command, 61 in the stability criterion) take 10-60 s per
# problem, which would leave one sample per run.  These keep the log-spaced
# shape, still bracket every fold, and still show every degraded answer the
# full schedules show (at 50 points the spurious singular fold of exp N=10
# sits at m = 17.3, as it does on the 160-point schedule).
SWEEP_POINTS = 61
STABILITY_POINTS = 9
STABILITY_M_MIN = 0.05
ASYMPTOTICS_POINTS = 50


@dataclass
class Task:
    """One top-level call.  `fn` gets the answers of the tasks run so far."""

    name: str
    fn: Callable[[dict], object]
    assess: Optional[Callable[[object, int], tuple[int, int]]] = None
    group: str = ""

    def degraded(self, value, cap_hits: int) -> tuple[int, int]:
        """(operations, degraded operations) behind one answer.  A seed-halving
        cap hit degrades the call it happened in."""
        if self.assess is not None:
            return self.assess(value, cap_hits)
        return 1, int(cap_hits > 0)


@dataclass
class Check:
    """One correctness check.  `error` <= `tol` passes.  Closed-form checks
    compare with an exact reference and feed `err_to_tol`; the others are
    inequalities or published reference values."""

    name: str
    error: float
    tol: float
    closed_form: bool = True

    @property
    def passed(self) -> bool:
        return bool(self.error <= self.tol)


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    extras: list[Task]
    checks: Callable[[dict], list[Check]]
    notes: dict = field(default_factory=dict)


def assess_branch(b: branch.Branch, cap_hits: int) -> tuple[int, int]:
    """A branch is one operation plus one per stability fill.  The branch is
    degraded by a cap hit or by a fold reported in the singular regime; a
    fill is degraded when it was skipped."""
    spurious = b.fold_found and is_singular(b.problem)
    ops, bad = 1, int(spurious or cap_hits > 0)
    if any(p.mu1 is not None for p in b.points):
        ops += len(b.points)
        bad += sum(p.mu1 is None for p in b.points)
    return ops, bad


def _branch_task(name, problem, grid, **kw) -> Task:
    return Task(name, lambda done: branch.solve_branch(problem, grid, **kw), assess_branch)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# -- closed forms ---------------------------------------------------------------

def gelfand_interval_lambda(m):
    """Exponential branch on (-1, 1): u = m - 2 log cosh(c x) with
    cosh(c) = e^(m/2) and λ = 2 c² / cosh² c."""
    c = np.arccosh(np.exp(np.asarray(m) / 2.0))
    return 2.0 * c * c / np.cosh(c) ** 2


def gelfand_interval_fold() -> tuple[float, float]:
    """The fold of the interval branch is at c tanh c = 1."""
    from scipy.optimize import brentq
    c = brentq(lambda c: c * math.tanh(c) - 1.0, 0.5, 2.0, xtol=1e-15)
    return 2.0 * c * c / math.cosh(c) ** 2, 2.0 * math.log(math.cosh(c))


def gelfand_disc_lambda(m):
    """Exponential branch on the disc: u = 2 log((1+a)/(1+a r²)),
    e^(m/2) = 1 + a and λ = 8a / (1+a)²; the fold is λ* = 2 at m* = 2 log 2."""
    a = np.expm1(np.asarray(m) / 2.0)
    return 8.0 * a / (1.0 + a) ** 2


def lambda1_closed_form(N: int) -> float:
    return {1: math.pi ** 2 / 4.0, 2: float(jn_zeros(0, 1)[0]) ** 2,
            3: math.pi ** 2}[N]


def weight_ratio_closed_form(N: int, alpha: float) -> float:
    """Mean of |x|^alpha against the principal eigenfunction, from its closed
    form: cos(πr/2) for N = 1, sin(πr)/r for N = 3."""
    if N == 1:
        phi = lambda r: math.cos(math.pi * r / 2.0)
        power = 0.0
    else:
        phi = lambda r: math.sin(math.pi * r)
        power = 1.0
    num = quad(lambda r: r ** (power + alpha) * phi(r), 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
    den = quad(lambda r: r ** power * phi(r), 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
    return num / den


# Tolerances of the closed-form checks, as the repository's tests state them
# (tests/test_branch.py, tests/test_spectral.py) or as the acceptance
# criterion behind the check states it (pullin.acceptance).
TOL_LAMBDA_STAR_INTERVAL = 1e-6
TOL_LAMBDA_STAR_DISC = 1e-7
TOL_M_STAR = 1e-5
TOL_BRANCH_POINT = 1e-9       # |Δλ| / max(1, λ), 10 x tol as in test_mesh_convergence_in_tolerance
TOL_LAMBDA1 = {1: 1e-8, 2: 1e-7, 3: 1e-8}
TOL_WEIGHT_RATIO = 1e-8
TOL_ALPHA_INVARIANCE = 1e-3
TOL_SINGULAR_LAMBDA = 1e-2    # relative, singular_accumulation
TOL_ENVELOPE = 1e-3
TOL_SCAN = 1e-4               # relative, oracle_equivalence
TOL_FOLD_MU1 = 1e-2           # times λ*, stability_fold


# -- branch_sweep -----------------------------------------------------------------

def branch_sweep(rng: random.Random) -> Workload:
    """Plain shooting sweeps with fold refinement on the five reference
    problems.  The seeded extras are the inverse-square branch at a fractional
    dimension and the disc at a weight exponent (alpha-invariance)."""
    alpha = rng.uniform(0.25, 3.75)
    n_frac = rng.uniform(1.0, 7.0)
    problems = {
        "exp_N1": branch.ProblemSpec(1.0, EXP),
        "exp_N2": branch.ProblemSpec(2.0, EXP),
        "mems_N2": branch.ProblemSpec(2.0, MEMS),
        "mems_N3_a1": branch.ProblemSpec(3.0, MEMS, 1.0),
        "mems_N5": branch.ProblemSpec(5.0, MEMS),
    }
    grid = lambda p: branch.default_m_grid(p.F, SWEEP_POINTS)
    tasks = [_branch_task(k, p, grid(p)) for k, p in problems.items()]
    extras = [_branch_task(k, p, grid(p)) for k, p in (
        ("mems_Nseed", branch.ProblemSpec(n_frac, MEMS)),
        ("mems_N2_aseed", branch.ProblemSpec(2.0, MEMS, alpha)))]

    def checks(done: dict) -> list[Check]:
        out = []
        lam_i, m_i = gelfand_interval_fold()
        for key, lam_ref, m_ref, tol_lam, exact in (
                ("exp_N1", lam_i, m_i, TOL_LAMBDA_STAR_INTERVAL, gelfand_interval_lambda),
                ("exp_N2", 2.0, 2.0 * math.log(2.0), TOL_LAMBDA_STAR_DISC, gelfand_disc_lambda)):
            b = done[key]
            out.append(Check(f"{key} lambda*", abs(b.lambda_star - lam_ref), tol_lam))
            out.append(Check(f"{key} m*", abs(b.m_star - m_ref), TOL_M_STAR))
            ref = exact(b.m_values)
            out.append(Check(f"{key} lambda(m) on the grid",
                             float(np.max(np.abs(b.lambda_values - ref) / np.maximum(1.0, ref))),
                             TOL_BRANCH_POINT))
        base, weighted = done["mems_N2"], done["mems_N2_aseed"]
        factor = (1.0 + alpha / 2.0) ** 2
        out.append(Check(f"alpha-invariance lambda* (alpha={alpha:.4f})",
                         abs(weighted.lambda_star / factor - base.lambda_star),
                         TOL_ALPHA_INVARIANCE))
        out.append(Check(f"alpha-invariance m* (alpha={alpha:.4f})",
                         abs(weighted.m_star - base.m_star), TOL_ALPHA_INVARIANCE))
        out.append(Check("mems_N2 lambda* vs 0.789", abs(base.lambda_star - 0.789),
                         5e-3, closed_form=False))
        out.append(Check("mems_N2 m* vs 0.445", abs(base.m_star - 0.445),
                         5e-3, closed_form=False))
        for key in ("mems_N2", "mems_N3_a1", "mems_N5", "mems_Nseed"):
            out.extend(sandwich(key, done[key]))
        return out

    return Workload("branch_sweep", tasks, extras, checks,
                    {"alpha": alpha, "N_seed": n_frac})


def sandwich(key: str, b: branch.Branch) -> list[Check]:
    """Inverse-square fold against the analytic bounds: m* >= 1/3 and
    λ* <= 4 λ₁ / 27, in the effective dimension (bound_sandwich)."""
    tr = b.problem.transform()
    lam1 = spectral.lambda1_ball(tr.N_eff).eigenvalue
    return [
        Check(f"{key} fold found", 0.0 if b.fold_found else 1.0, 0.0, False),
        Check(f"{key} m* >= 1/3", max(0.0, 1.0 / 3.0 - b.m_star), 1e-3, False),
        Check(f"{key} lambda* <= 4 lambda1/27",
              max(0.0, b.lambda_star / tr.voltage_factor - 4.0 * lam1 / 27.0), 1e-6, False),
    ]


# -- stability_scan ---------------------------------------------------------------

STABILITY_CASES = {"mems_N2": (MEMS, 2.0), "mems_N5": (MEMS, 5.0), "exp_N2": (EXP, 2.0)}


def _fold_mu1_task(key, F, N) -> Task:
    def run(done):
        b = done[f"stability:{key}"]
        sol = branch.shoot(F, N, b.m_star).solution()
        return spectral.mu1(N, F, sol.lam, sol)
    return Task(f"fold_mu1:{key}", run)


def stability_scan(rng: random.Random) -> Workload:
    """solve_branch with a stability eigenvalue at every point, and μ₁ at the
    refined fold, for the three stability_fold cases."""
    tasks = []
    for key, (F, N) in STABILITY_CASES.items():
        top = branch.default_m_grid(F, 2)[-1]
        grid = np.geomspace(STABILITY_M_MIN, top, STABILITY_POINTS)
        tasks.append(_branch_task(f"stability:{key}", branch.ProblemSpec(N, F),
                                  grid, stability=True))
        tasks.append(_fold_mu1_task(key, F, N))
    m_seed = rng.uniform(0.05, 0.35)

    def stable_point(done):
        sol = branch.shoot(MEMS, 2.0, m_seed).solution()
        return spectral.mu1(2.0, MEMS, sol.lam, sol)
    extras = [Task("mu1:mems_N2:m_seed", stable_point)]

    def checks(done: dict) -> list[Check]:
        out = []
        for key in STABILITY_CASES:
            b = done[f"stability:{key}"]
            stable = [p.mu1 for p in b.points if p.m < b.m_star and p.mu1 is not None]
            unstable = [p.mu1 for p in b.points if p.m > b.m_star and p.mu1 is not None]
            out.append(Check(f"{key} fold found", 0.0 if b.fold_found else 1.0, 0.0, False))
            out.append(Check(f"{key} mu1 > 0 below the fold",
                             float(sum(mu <= 0 for mu in stable)), 0.0, False))
            out.append(Check(f"{key} mu1 < 0 past the fold",
                             0.0 if unstable and unstable[0] < 0 else 1.0, 0.0, False))
            out.append(Check(f"{key} mu1 = 0 at the fold", abs(done[f"fold_mu1:{key}"]),
                             TOL_FOLD_MU1 * b.lambda_star))
        b = done["stability:exp_N2"]
        out.append(Check("exp_N2 lambda*", abs(b.lambda_star - 2.0), TOL_LAMBDA_STAR_DISC))
        out.append(Check("exp_N2 m*", abs(b.m_star - 2.0 * math.log(2.0)), TOL_M_STAR))
        out.append(Check(f"mu1 > 0 at m={m_seed:.4f} on the disc",
                         0.0 if done["mu1:mems_N2:m_seed"] > 0 else 1.0, 0.0, False))
        return out

    return Workload("stability_scan", tasks, extras, checks, {"m_seed": m_seed})


# -- pullin_asymptotics -------------------------------------------------------------

ASYMPTOTIC_CASES = {"exp_N10": (EXP, 10.0), "mems_N9": (MEMS, 9.0)}
FIXED_FRACTIONS = (0.5, 0.9)
RADII = np.geomspace(0.01, 1.0, 100)


def _minimal_task(key, F, N, frac) -> Task:
    def run(done):
        lam = frac * powerlaw.singular_extremal(F, N).lambda_star
        return branch.minimal_solution(branch.ProblemSpec(N, F), lam, done[f"branch:{key}"])
    return Task(f"minimal:{key}:{frac:.4f}", run)


def _envelope_task(key, F, N, frac) -> Task:
    def run(done):
        lam = frac * powerlaw.singular_extremal(F, N).lambda_star
        env = powerlaw.asymptotic_envelopes(F, N, lam)
        return env.lower(RADII), env.upper(RADII)
    return Task(f"envelopes:{key}:{frac:.4f}", run)


def pullin_asymptotics(rng: random.Random) -> Workload:
    """The README asymptotics pair in the singular regime: the branch on the
    asymptotics schedule, then minimal solutions and their two-sided
    envelopes at fixed and at seeded voltage fractions."""
    seeded = [rng.uniform(0.05, 0.95) for _ in range(2)]
    tasks, extras = [], []
    for key, (F, N) in ASYMPTOTIC_CASES.items():
        tasks.append(_branch_task(f"branch:{key}", branch.ProblemSpec(N, F),
                                  branch.default_m_grid(F, ASYMPTOTICS_POINTS)))
        for frac in FIXED_FRACTIONS:
            tasks += [_minimal_task(key, F, N, frac), _envelope_task(key, F, N, frac)]
        for frac in seeded:
            extras += [_minimal_task(key, F, N, frac), _envelope_task(key, F, N, frac)]

    def checks(done: dict) -> list[Check]:
        out = []
        for key, (F, N) in ASYMPTOTIC_CASES.items():
            b = done[f"branch:{key}"]
            lam_star = powerlaw.singular_extremal(F, N).lambda_star
            out.append(Check(f"{key} lambda* -> singular {lam_star:.6g}",
                             _rel(b.lambda_star, lam_star), TOL_SINGULAR_LAMBDA))
            for frac in FIXED_FRACTIONS + tuple(seeded):
                u = done[f"minimal:{key}:{frac:.4f}"].at(RADII)
                lower, upper = done[f"envelopes:{key}:{frac:.4f}"]
                gap = max(float(np.max(u - upper)), float(np.max(lower - u)), 0.0)
                out.append(Check(f"{key} envelopes at {frac:.4f} lambda*", gap,
                                 TOL_ENVELOPE, closed_form=frac in FIXED_FRACTIONS))
        return out

    return Workload("pullin_asymptotics", tasks, extras, checks, {"fractions": seeded})


# -- bounds_tables ----------------------------------------------------------------

DIMENSIONS = range(1, 8)
TABLE_DIMENSIONS = [float(n) for n in range(3, 10)]
DECAY_TAUS = list(np.linspace(1.25, 8.0, 16))   # `pullin constants --table decay --N 2`


def _reports(N: float, alpha: float, done: dict) -> list[bounds.BoundReport]:
    """Every report `pullin bounds` prints for the three families."""
    stats = done[f"ball_stats:{N:g}:{alpha:.4f}"]
    out = []
    for F in (EXP, MEMS, POWER):
        out += [bounds.pullin_voltage_upper(F, stats), bounds.pullin_distance_lower(F, stats)]
    if stats.N >= 2.0:
        out.append(bounds.exp_supnorm_bound(stats))
    if stats.N >= 3.0:
        out.append(bounds.mems_supnorm_bound(stats))
    out.append(bounds.power_supnorm_bound(stats, POWER.p))
    return out


def bounds_tables(rng: random.Random) -> Workload:
    """Everything `pullin bounds` and `pullin constants` compute: no nonlinear
    shooting, only linear eigen-shots, quadrature and 1-D scans."""
    alpha = rng.uniform(0.25, 3.0)
    tasks = []
    for n in DIMENSIONS:
        N = float(n)
        for a in (0.0, alpha):
            tasks.append(Task(f"ball_stats:{N:g}:{a:.4f}",
                              lambda done, N=N, a=a: bounds.ball_stats(N, a)))
            tasks.append(Task(f"reports:{N:g}:{a:.4f}",
                              lambda done, N=N, a=a: _reports(N, a, done),
                              lambda value, caps: (len(value), 0)))
        tasks.append(Task(f"mems_ball:{N:g}",
                          lambda done, N=N: bounds.mems_ball_supnorm_bound(
                              N, done[f"ball_stats:{N:g}:{0.0:.4f}"].lambda1)))
    tables = {
        "exp": lambda: [bounds.exp_supnorm_constant(N) for N in TABLE_DIMENSIONS],
        "mems": lambda: [bounds.mems_supnorm_constant(N) for N in TABLE_DIMENSIONS],
        "power": lambda: [bounds.power_supnorm_constant(N, POWER.p) for N in TABLE_DIMENSIONS],
        "decay": lambda: [bounds.radial_decay_constant(t, 2.0) for t in DECAY_TAUS],
    }
    for key, fn in tables.items():
        tasks.append(Task(f"table:{key}", lambda done, fn=fn: fn(),
                          lambda value, caps: (len(value), 0)))

    def checks(done: dict) -> list[Check]:
        out = []
        for n in (1, 2, 3):
            lam1 = done[f"ball_stats:{float(n):g}:{0.0:.4f}"].lambda1
            out.append(Check(f"lambda1 N={n}", abs(lam1 - lambda1_closed_form(n)),
                             TOL_LAMBDA1[n]))
        for n in (1, 3):
            fphi = done[f"ball_stats:{float(n):g}:{alpha:.4f}"].f_phi_integral
            out.append(Check(f"weight ratio N={n} alpha={alpha:.4f}",
                             abs(fphi - weight_ratio_closed_form(n, alpha)),
                             TOL_WEIGHT_RATIO, closed_form=False))
        for n in DIMENSIONS:
            by_name = {}
            for rep in done[f"reports:{float(n):g}:{0.0:.4f}"]:
                by_name.setdefault(rep.name, []).append(rep.value)
            lam1 = done[f"ball_stats:{float(n):g}:{0.0:.4f}"].lambda1
            # constant weight: λ₁·sup u/F and the inverse of F' at 1/sup u/F
            refs = [lam1 / math.e, 4.0 * lam1 / 27.0, lam1 / 4.0]
            for got, ref in zip(by_name["pullin_voltage_upper"], refs):
                out.append(Check(f"voltage upper N={n}", _rel(got, ref), 1e-12))
            for got, ref in zip(by_name["pullin_distance_lower"], (1.0, 1.0 / 3.0, 1.0)):
                out.append(Check(f"distance lower N={n}", abs(got - ref), 1e-12))
            rep = done[f"mems_ball:{float(n):g}"]
            out.append(Check(f"mems ball bound N={n} in [1/3, 1]",
                             0.0 if 1.0 / 3.0 <= rep.value <= 1.0 else 1.0, 0.0, False))
        out += scan_checks(done)
        for tau, got in zip(DECAY_TAUS, done["table:decay"]):
            out.append(Check(f"decay tau={tau:.3f}", _rel(got, tau / (4.0 * (tau - 1.0))), 1e-12))
        return out

    return Workload("bounds_tables", tasks, [], checks, {"alpha": alpha})


def scan_checks(done: dict) -> list[Check]:
    """Minimized constants against 1e5-point dense scans of their objectives
    (oracle_equivalence), wherever the optimization window is not empty."""
    out = []
    for key, window, objective in (
            ("exp", lambda N: ((N - 2.0) / 4.0, 2.0), bounds._exp_constant_objective),
            ("mems", lambda N: (3.0 * (N - 2.0) / 4.0, bounds.T_MAX_MEMS),
             bounds._mems_constant_objective),
            ("power", lambda N: bounds._power_window(N, POWER.p), power_objective)):
        for N, rep in zip(TABLE_DIMENSIONS, done[f"table:{key}"]):
            lo, hi = window(N)
            if lo >= hi:
                out.append(Check(f"{key} constant N={N:g} empty window",
                                 0.0 if math.isnan(rep.value) else 1.0, 0.0, False))
                continue
            ts = np.linspace(lo + 1e-9, hi - 1e-9, 100000)
            with np.errstate(all="ignore"):
                scan = float(np.nanmin(objective(ts, N)))
            out.append(Check(f"{key} constant N={N:g} vs dense scan",
                             _rel(rep.value, scan), TOL_SCAN))
    return out


def power_objective(t, N, p=POWER.p):
    """The power-growth constant's objective, written out for arrays."""
    return ((2 * t * p - p - t * t) ** (-p / t)
            * (2 * t - 1) ** ((2 * t - 1) / (2 * t + p - 1) + p / t)
            * (2 * p) ** (p / t)
            / (N ** (p / (2 * t + p - 1))
               * (4 * t + 2 * p - 2 - N * p) ** ((2 * t - 1) / (2 * t + p - 1))))


def combine(name: str, *parts: Workload) -> Workload:
    """One workload made of several task groups, each keeping its name."""
    for part in parts:
        for task in part.tasks + part.extras:
            task.group = part.name
    return Workload(name, [t for p in parts for t in p.tasks],
                    [t for p in parts for t in p.extras],
                    lambda done: [c for p in parts for c in p.checks(done)],
                    {p.name: p.notes for p in parts})


def shooting(rng: random.Random) -> Workload:
    return combine("shooting", branch_sweep(rng), stability_scan(rng),
                   pullin_asymptotics(rng))


WORKLOADS = {"shooting": shooting,
             "bounds_tables": lambda rng: combine("bounds_tables", bounds_tables(rng))}

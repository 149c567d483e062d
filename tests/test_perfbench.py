"""Smoke test of the benchmark's tracer: it patches `pullin` names from
outside the package, so renaming one of them breaks `--trace 1`."""

import logging
import sys
from pathlib import Path

from pullin import ProblemSpec, bounds, branch, exponential, solve_branch, spectral

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_tracer_installs_and_restores_its_hooks():
    logger = logging.getLogger("pullin.branch")
    level = logger.level
    patched = {(spectral, "_principal_eigenvalue"), (spectral, "solve_ivp"),
               (spectral, "quad"), (branch, "solve_ivp"), (branch, "brentq")}
    before = {key: getattr(*key) for key in patched}
    caps = tracing.CapCounter().attach()
    try:
        tracer = tracing.Tracer(caps).install()
        try:
            assert all(getattr(*key) is not fn for key, fn in before.items())
            u = branch.shoot(exponential(), 2.0, 1.0)
            spectral.mu1(2.0, exponential(), u.lam, u)
        finally:
            tracer.uninstall()
    finally:
        logger.removeHandler(caps)
        logger.setLevel(level)
    assert all(getattr(*key) is fn for key, fn in before.items())
    assert tracer.counts["branch.shoot.calls"] == 1
    assert tracer.counts["branch.integrator_calls"] == 1
    # the eigen-shots of mu1 reach the tracer through `spectral.solve_ivp`
    assert tracer.counts["spectral.mu1.eigen_shots"] > 0
    assert tracer.counts["spectral.mu1.rhs_evals"] > 0


def test_tracer_passes_array_objectives_through():
    # every scan objective takes the whole grid as one array; the tracer's
    # objective wrapper must hand it on unchanged and count it once
    untraced = bounds.exp_supnorm_constant(3.0)
    tracer = tracing.Tracer(tracing.CapCounter()).install()
    try:
        traced = bounds.exp_supnorm_constant(3.0)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert 0 < tracer.counts["optimize.objective_evals"] <= 60


def test_the_tracer_counts_a_branch_as_its_one_trajectory_run():
    # `_trajectory` runs through `branch.solve_ivp`, which the tracer
    # patches: its main run is the one integrator call of a branch, and the
    # reads between its recorded steps take none
    tracer = tracing.Tracer(tracing.CapCounter()).install()
    try:
        b = solve_branch(ProblemSpec(2.0, exponential()), [0.5, 1.0, 1.5], 1e-8)
    finally:
        tracer.uninstall()
    assert b.fold_found and abs(b.m_star - 1.3862943611) < 1e-9
    assert tracer.counts["branch.integrator_calls"] == 1
    assert tracer.counts["branch.rhs_evals"] > 0


def test_stability_fills_make_no_integrator_run():
    # every fill reads the branch's one trajectory run: no further
    # `branch.solve_ivp` run, no `spectral.solve_ivp` run, and at least one
    # collocation solve per filled point
    tracer = tracing.Tracer(tracing.CapCounter()).install()
    try:
        b = solve_branch(ProblemSpec(2.0, exponential()), [0.5, 1.0, 1.5], 1e-8,
                         stability=True)
    finally:
        tracer.uninstall()
    filled = sum(p.mu1 is not None for p in b.points)
    assert filled == 3
    assert tracer.counts["branch.integrator_calls"] == 1
    assert not any(key.endswith("eigen_shots") for key in tracer.counts)
    assert tracer.counts["spectral.eigen_solves"] >= filled

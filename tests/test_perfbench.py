"""Smoke test of the benchmark's tracer: it patches `pullin` names from
outside the package, so renaming one of them breaks `--trace 1`."""

import logging
import sys
from pathlib import Path

from pullin import branch, exponential, spectral

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
            branch.shoot(exponential(), 2.0, 1.0)
        finally:
            tracer.uninstall()
    finally:
        logger.removeHandler(caps)
        logger.setLevel(level)
    assert all(getattr(*key) is fn for key, fn in before.items())
    assert tracer.counts["branch.shoot.calls"] == 1
    assert tracer.counts["branch.integrator_calls"] == 1

"""Benchmark of the ``pullin`` package: one workload per run.

    python3 perfbench/run.py --workload branch_sweep --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``./src``.  The
workload's fixed task list is repeated until ``--seconds`` have passed, the
answers are then checked against closed forms, and the last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of three
cold processes that import ``pullin`` and run ``pullin transform``),
``wall_s`` (one pass over the fixed task list: the sum of each task's mean
time over the run), ``peak_rss_mb``, ``err_to_tol`` (worst closed-form error
over its stated tolerance) and ``ok_frac`` (share of operations that neither
failed nor degraded).  Task times are means over the run, not medians: on a
machine whose speed swings for seconds at a time, the mean over the whole
run varies less from run to run than a median of two or three samples does.

``--trace 1`` runs the task list once untraced and twice traced instead, and
reports the per-layer metrics of the first traced pass.  Every counter must
repeat exactly in the second.  ``trace.overhead_s`` is traced minus untraced
pass time.  The spans go to ``.perfbench_out/``.

``failed`` counts calls that raised.  Degraded answers (a seed-halving cap
hit, a skipped stability fill, a fold reported in the singular regime) are
not failures of the call; they lower ``ok_frac`` and are listed on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

SETUP_REPEATS = 3
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); from pullin.cli import main; "
              "sys.exit(main(['transform', '--N', '2', '--alpha', '5']))")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Ledger:
    """Operations attempted, calls that raised, degraded answers by cause."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.degraded = 0
        self.causes: Counter = Counter()


def run_task(task, done: dict, ledger: Ledger, caps) -> float | None:
    """Run one task, store its answer in `done`, return its time (None if it
    raised)."""
    hits = caps.hits
    t0 = time.perf_counter()
    try:
        value = task.fn(done)
    except Exception:
        ledger.attempted += 1
        ledger.failed += 1
        done.pop(task.name, None)
        log(f"task {task.name} raised:\n{traceback.format_exc()}")
        return None
    seconds = time.perf_counter() - t0
    done[task.name] = value
    ops, bad = task.degraded(value, caps.hits - hits)
    ledger.attempted += ops
    ledger.degraded += bad
    if bad:
        ledger.causes[task.name] += bad
    return seconds


def measure(tasks, seconds: float, done: dict, ledger: Ledger, later: Ledger,
            caps) -> dict:
    """Run the task list once (its operations feed ``ok_frac``), then keep
    cycling through it until `seconds` have passed, skipping any task whose
    mean so far would overrun the deadline.  Returns every task's times."""
    samples = defaultdict(list)
    total = defaultdict(float)
    deadline = time.perf_counter() + seconds
    first = True
    while True:
        ran = False
        for task in tasks:
            name = task.name
            if not first and time.perf_counter() + total[name] / len(samples[name]) > deadline:
                continue
            dt = run_task(task, done, ledger if first else later, caps)
            if dt is None:
                return samples
            samples[name].append(dt)
            total[name] += dt
            ran = True
        if not ran:
            return samples
        first = False


def one_pass(tasks, done, ledger, caps) -> dict:
    """Every task once; returns each task's time."""
    return {task.name: run_task(task, done, ledger, caps) or 0.0 for task in tasks}


def log_groups(wl, times: dict) -> dict:
    """Pass time of each task group (branch_sweep, stability_scan, ...)."""
    groups = {}
    for task in wl.tasks:
        groups[task.group] = groups.get(task.group, 0.0) + times.get(task.name, 0.0)
    for group, seconds in groups.items():
        log(f"  group {group}: one pass {seconds:.3f}s")
    return groups


def measure_setup(root: str) -> tuple[float, bool]:
    """Median wall time of cold processes that import pullin and run the
    cheapest CLI command; also checks that command's answer."""
    times, ok = [], True
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        try:
            ok &= proc.returncode == 0 and \
                json.loads(proc.stdout)["result"]["voltage_factor"] == 12.25
        except (ValueError, KeyError):
            ok = False
    return statistics.median(times), ok


def warm_up() -> None:
    """Finish scipy's lazy imports and first-call set-up before timing."""
    from pullin import bounds, branch, spectral
    from pullin.nonlinearity import mems_inverse_power
    branch.shoot(mems_inverse_power(2.0), 2.0, 0.3).solution()
    spectral.lambda1_ball(1.5)
    bounds.exp_supnorm_constant(3.0)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pullin", "__init__.py")):
        log(f"error: no pullin package under {src}; run from the repository root")
        return 2
    sys.path.insert(0, src)
    import pullin
    if not os.path.abspath(pullin.__file__).startswith(src + os.sep):
        log(f"error: imported pullin from {pullin.__file__}, not from {src}")
        return 2

    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; "
            f"known: {', '.join(workloads.WORKLOADS)}")
        return 2

    import numpy
    import scipy
    log(f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, nproc {os.cpu_count()}")

    wl = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    log(f"workload {wl.name}, seed {args.seed}, inputs {wl.notes}")
    caps = tracing.CapCounter().attach()
    ledger, later = Ledger(), Ledger()   # first pass and extras; later passes
    done: dict = {}
    warm_up()

    if args.trace:
        metrics, setup_ok = trace_run(wl, args, caps, ledger, done, root), True
    else:
        setup_s, setup_ok = measure_setup(root)
        samples = measure(wl.tasks, args.seconds, done, ledger, later, caps)
        metrics = timing_metrics(wl, samples)
        metrics["setup_s"] = metric(setup_s, "s")

    for task in wl.extras:
        run_task(task, done, ledger, caps)

    failed = ledger.failed + later.failed
    checks = wl.checks(done) if failed == 0 else []
    for c in checks:
        log(f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.error:.3g} (tol {c.tol:.3g})")
    for cause, n in sorted(ledger.causes.items()):
        log(f"  degraded: {cause} x{n}")
    correct = (failed == 0 and setup_ok and metrics is not None and bool(checks)
               and all(c.passed for c in checks))

    if not args.trace:
        ratios = [c.error / c.tol for c in checks if c.closed_form]
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["err_to_tol"] = metric(max(ratios) if ratios else float("nan"), "ratio")
        metrics["ok_frac"] = metric(
            (ledger.attempted - ledger.failed - ledger.degraded) / max(ledger.attempted, 1),
            "ratio")
    print(json.dumps({"correct": bool(correct),
                      "attempted": max(ledger.attempted + later.attempted, 1),
                      "failed": failed, "metrics": metrics or {}}))
    return 0


def timing_metrics(wl, samples: dict) -> dict:
    """wall_s from every task's mean time over the run.  The median call is
    logged but not reported: it rests on one or two samples of a single task,
    and it spread by 0.15-0.35 between runs where wall_s spread by 0.05-0.16."""
    means = {name: statistics.mean(v) for name, v in samples.items()}
    for name, v in samples.items():
        shown = ", ".join(f"{x:.3f}" for x in v[:8]) + (", ..." if len(v) > 8 else "")
        log(f"  {name}: n={len(v)} mean {means[name]:.4f}s [{shown}]")
    log_groups(wl, means)
    log(f"  median call {statistics.median(means.values()):.4f}s")
    return {"wall_s": metric(sum(means.values()), "s")}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("per_integration"):
        return "ratio"
    return "count"


def trace_run(wl, args, caps, ledger, done, root):
    """One untraced pass, then two traced passes whose counts must agree."""
    import tracing
    untraced = sum(one_pass(wl.tasks, done, ledger, caps).values())
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer(caps).install()
        try:
            times = one_pass(wl.tasks, done, ledger, caps)
        finally:
            tracer.uninstall()
        passes.append((times, tracer))
    (times, first), (_, second) = passes
    a, b = first.counts_snapshot(), second.counts_snapshot()
    if a != b:
        diff = {k: (a.get(k), b.get(k)) for k in set(a) | set(b) if a.get(k) != b.get(k)}
        log(f"error: counts differ between two traced passes: {diff}")
        return None
    traced = sum(times.values())
    layer = first.layer_metrics()
    layer["trace.overhead_s"] = traced - untraced
    for name, value in layer.items():
        log(f"  {name} = {value}")
    groups = log_groups(wl, times)
    out = os.path.join(root, ".perfbench_out", f"trace-{wl.name}-seed{args.seed}.json")
    first.dump(out, {"workload": wl.name, "seed": args.seed, "untraced_s": untraced,
                     "traced_s": traced, "groups_s": groups, "metrics": layer})
    log(f"spans written to {out}")
    return {name: metric(value, _unit(name)) for name, value in layer.items()}


if __name__ == "__main__":
    sys.exit(main())

"""Repeat benchmark runs over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workloads shooting,bounds_tables \\
        --seeds 1..10 --seconds 50 [--trace 0] [--out perfbench/baseline.json]

Run from the repository root.  Runs are sequential.  For every workload and
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, which is the distance between the quartiles as a share of the
median, next to the bound that BENCHMARK.json sets.  With ``--out`` it writes
the summary together with the Python, numpy and scipy versions, ``nproc``,
each task group's pass time and the degraded answers of the first run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1..10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"versions": versions(), "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs, groups, degraded = [], {}, None
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True)
            elapsed = time.perf_counter() - t0
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = None
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n"
                      f"{proc.stderr[-3000:]}", file=sys.stderr)
                continue
            runs.append(result)
            for group, seconds in re.findall(r"group (\S+): one pass (\S+)s", proc.stderr):
                groups.setdefault(group, []).append(float(seconds))
            if degraded is None:
                degraded = dict((k, int(n)) for k, n in
                                re.findall(r"degraded: (\S+) x(\d+)", proc.stderr))
            print(f"{workload} seed {seed}: {elapsed:.1f}s "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        if not runs:
            continue
        metrics = {}
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["bound"] = bounds.get(name)
            metrics[name] = s
            bound = f" bound {s['bound']}" if s["bound"] is not None else ""
            print(f"  {workload} {name}: median {s['median']:.6g} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.3f}{bound}")
        for group, values in groups.items():
            s = summarize(values)
            print(f"  {workload} group {group}: one pass median {s['median']:.4g}s "
                  f"[{s['q1']:.4g}, {s['q3']:.4g}]")
        report["workloads"][workload] = {
            "runs": len(runs), "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs], "degraded": degraded,
            "metrics": metrics,
            "groups_s": {g: summarize(v) for g, v in groups.items()}}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

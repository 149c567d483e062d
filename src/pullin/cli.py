"""Command-line front end.

One command per invocation: branch sweeps, bound reports, constant tables,
transform data, asymptotic envelopes, and the verification suite.  Results
go to stdout or to --out (written atomically).  Degraded results are listed
in the `warnings` array of the JSON output.  Refused input prints one
`error: invalid input: ...` line on stderr and exits 2, a failed
computation one `error: computation failed: ...` line and exits 1; `verify`
reports each criterion on stderr and exits 1 when one fails.

Each command imports the scipy modules it computes with when it runs, after
its own argument checks: `transform`, `--help` and every refused argument
need only numpy.

Output is deterministic: floats are rendered with 12 significant digits and
key order is fixed, so identical configurations produce byte-identical
files.  CSV carries the same numbers as JSON, reformatted as flat columns.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import powerlaw
from .errors import DomainValidationError, PullInError
from .nonlinearity import (Family, Nonlinearity, exponential,
                           mems_inverse_power, power_growth)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_INPUT = 2


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".12g")


def _fmt_csv(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return _fmt_float(x).strip('"')
    return str(x)


def _dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_dumps(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + s for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + _dumps(v, indent + 1)
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_csv(row.get(k)) for k in header])
    return buf.getvalue()


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pullin-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _parse_range(spec: str) -> list[float]:
    """'3..9' -> integers 3..9; '0.5..4:8' -> 8 points linspace; '2' -> [2].
    A spec that reads otherwise, or that yields no value, is refused."""
    try:
        if ":" in spec:
            body, n = spec.rsplit(":", 1)
            lo, hi = body.split("..")
            values = np.linspace(float(lo), float(hi), int(n)).tolist()
        elif ".." in spec:
            lo, hi = spec.split("..")
            flo, fhi = float(lo), float(hi)
            if flo.is_integer() and fhi.is_integer():
                values = [float(k) for k in range(int(flo), int(fhi) + 1)]
            else:
                values = np.linspace(flo, fhi, 10).tolist()
        else:
            values = [float(spec)]
    except ValueError:
        raise DomainValidationError(f"cannot read the range {spec!r}") from None
    if not values:
        raise DomainValidationError(f"the range {spec!r} holds no value")
    return values


def _make_family(args) -> Nonlinearity:
    name = args.family
    if name == "exp":
        return exponential()
    if name == "mems":
        return mems_inverse_power(args.p if args.p is not None else 2.0)
    if args.p is None:
        raise DomainValidationError("--family power requires --p")
    return power_growth(args.p)


def _validate_common(args) -> None:
    alpha = getattr(args, "alpha", None)
    if alpha is not None and not -2.0 < alpha < math.inf:
        raise DomainValidationError(f"--alpha must be finite and > -2, got {alpha}")
    m_points = getattr(args, "m_points", None)
    if m_points is not None and m_points < 3:
        raise DomainValidationError("--m-points must be at least 3")
    p = getattr(args, "p", None)
    if p is not None and not 0.0 < p < math.inf:
        raise DomainValidationError(f"--p must be positive and finite, got {p}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_branch(args):
    F = _make_family(args)
    from . import branch
    prob = branch.ProblemSpec(args.N, F, args.alpha)
    first, last = branch.default_m_grid(F, 2).tolist()
    m_lo = args.m_min if args.m_min is not None else first
    m_hi = args.m_max if args.m_max is not None else last
    if not 0.0 < m_lo < m_hi < F.endpoint:
        raise DomainValidationError(
            f"m schedule ({m_lo}, {m_hi}) must be increasing inside (0, {F.endpoint})")
    grid = np.geomspace(m_lo, m_hi, args.m_points)
    b = branch.solve_branch(prob, grid, tol=args.tol, stability=args.stability)
    result = {
        "points": [{"m": p.m, "lambda": p.lam, "mu1": p.mu1} for p in b.points],
        "lambda_star": b.lambda_star,
        "m_star": b.m_star if b.fold_found else None,
        "fold_found": b.fold_found,
    }
    return result, result["points"], _branch_warnings(b)


def _branch_warnings(b) -> list[str]:
    """The degraded results of a branch sweep, one line each."""
    warnings_ = []
    if not b.fold_found:
        warnings_.append("no fold: λ* is a lower estimate")
    if not b.stable_points():
        warnings_.append("the schedule starts past the fold: no point is on the stable branch")
    if b.stability_skipped:
        warnings_.append(f"stability fill skipped at {b.stability_skipped} of "
                         f"{len(b.points)} points (mu1 is null there)")
    return warnings_


def cmd_bounds(args):
    F = _make_family(args)
    from . import bounds
    stats = bounds.ball_stats(args.N, args.alpha)
    reports = [bounds.pullin_voltage_upper(F, stats),
               bounds.pullin_distance_lower(F, stats)]
    if F.family is Family.EXPONENTIAL and stats.N >= 2.0:
        reports.append(bounds.exp_supnorm_bound(stats))
    if F.family is Family.MEMS_INVERSE_POWER and F.p == 2.0:
        if 3.0 <= stats.N:
            reports.append(bounds.mems_supnorm_bound(stats))
        if args.alpha == 0.0 and (stats.N in (1.0, 2.0) or 3.0 <= stats.N <= 11.0):
            reports.append(bounds.mems_ball_supnorm_bound(stats.N, stats.lambda1))
    if F.family is Family.POWER_GROWTH:
        reports.append(bounds.power_supnorm_bound(stats, F.p))
    reports = [dataclasses.asdict(r) for r in reports]
    result = {"domain": dataclasses.asdict(stats), "reports": reports}
    rows = [{k: v for k, v in r.items() if k != "detail"} for r in reports]
    return result, rows, [f"{r['name']}: {r['reason']}" for r in reports if not r["valid"]]


def cmd_constants(args):
    table = args.table
    entries = []
    if table != "decay":
        params = {}
        if table == "power":
            if args.p is None:
                raise DomainValidationError("--table power requires --p")
            params = {"p": args.p}
        dims = _parse_range(args.N_range)
        from . import bounds
        constant = {"exp": bounds.exp_supnorm_constant,
                    "mems": bounds.mems_supnorm_constant,
                    "power": bounds.power_supnorm_constant}[table]
        for N in dims:
            rep = constant(N, **params)
            entries.append({"N": N, **params, "value": rep.value,
                            "optimizer": rep.optimizer, "valid": rep.valid})
    else:
        try:
            N = float(args.N_range)
        except ValueError:
            raise DomainValidationError("--table decay takes a single --N value")
        taus = _parse_range(args.tau) if args.tau else \
            list(np.linspace(max(1.0, N / 2.0) + 0.25, 8.0, 16))
        from . import bounds
        for tau in taus:
            entries.append({"tau": tau, "N": N,
                            "value": bounds.radial_decay_constant(tau, N)})
    return {"table": table, "entries": entries}, entries, []


def cmd_transform(args):
    F = _make_family(args)
    tr = powerlaw.dim_transform(args.N, args.alpha)
    regularity = powerlaw.classify_regularity(F, args.N, args.alpha)
    result = {
        "N_eff": tr.N_eff,
        "voltage_factor": tr.voltage_factor,
        "radius_map_exponent": tr.radius_exponent,
        "regularity": regularity.value,
    }
    if F.family is Family.MEMS_INVERSE_POWER and args.N >= 8.0:
        result["alpha_critical"] = powerlaw.alpha_critical_mems(args.N)
    rows = [result]
    return result, rows, []


def cmd_asymptotics(args):
    F = _make_family(args)
    if args.lam is None:
        raise DomainValidationError("asymptotics requires --lambda")
    if args.alpha != 0.0:
        raise DomainValidationError(
            f"asymptotics has no power-law weight, got --alpha {args.alpha:g}")
    env = powerlaw.asymptotic_envelopes(F, args.N, args.lam)
    from . import branch
    prob = branch.ProblemSpec(args.N, F, 0.0)
    grid = branch.default_m_grid(F, args.m_points)
    b = branch.solve_branch(prob, grid, tol=args.tol)
    u = branch.minimal_solution(prob, args.lam, b, tol=args.tol)
    r = np.geomspace(0.01, 1.0, 100)
    lower, upper, uvals = env.lower(r), env.upper(r), u.at(r)
    result = {
        "lambda": args.lam,
        "lambda_star_singular": env.extremal.lambda_star,
        "lambda_star_branch": b.lambda_star,
        "points": [{"r": float(ri), "lower": float(lo), "u": float(ui), "upper": float(up)}
                   for ri, lo, ui, up in zip(r, lower, uvals, upper)],
    }
    rows = result["points"]
    return result, rows, _branch_warnings(b)


def cmd_verify(args):
    from . import acceptance
    names = args.criteria.split(",") if args.criteria else None
    results = acceptance.run(names, printer=lambda s: print(s, file=sys.stderr))
    criteria = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    return {"criteria": criteria, "passed": all(r.passed for r in results)}, criteria, []


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--family", choices=["exp", "mems", "power"], default="mems")
    p.add_argument("--p", type=float, default=None,
                   help="exponent for the mems/power families (mems default 2)")
    p.add_argument("--N", type=float, default=2.0, help="dimension (real, >= 1)")
    p.add_argument("--alpha", type=float, default=0.0,
                   help="power-law weight exponent (> -2)")
    p.add_argument("--out", type=str, default=None, help="output path (atomic write)")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pullin",
        description="Radial nonlinear eigenvalue laboratory: branches, bounds, "
                    "transforms, envelopes, verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("branch", help="sweep the bifurcation branch m -> lambda(m)")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--m-min", dest="m_min", type=float, default=None)
    p.add_argument("--m-max", dest="m_max", type=float, default=None)
    p.add_argument("--m-points", dest="m_points", type=int, default=400)
    p.add_argument("--stability", action="store_true",
                   help="fill the stability eigenvalue at every branch point")
    p.set_defaults(fn=cmd_branch)

    p = sub.add_parser("bounds", help="analytic bound reports on the unit ball")
    _add_common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("constants", help="optimized constant tables")
    p.add_argument("--table", choices=["exp", "mems", "power", "decay"], required=True)
    p.add_argument("--N", dest="N_range", type=str, default="3..9",
                   help="dimension or range, e.g. 3..9 or 2.5..4:7")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--tau", type=str, default=None,
                   help="tau value or range for the decay table")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("transform", help="power-law to fractional-dimension reduction")
    _add_common(p)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("asymptotics", help="two-sided envelopes near pull-in")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--m-points", dest="m_points", type=int, default=160)
    p.set_defaults(fn=cmd_asymptotics)

    p = sub.add_parser("verify", help="run the acceptance criteria suite")
    p.add_argument("--criteria", type=str, default=None,
                   help="comma-separated subset of criterion names")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _validate_common(args)
        result, rows, warnings_ = args.fn(args)
    except DomainValidationError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PullInError as exc:
        print(f"error: computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE

    if args.format == "csv":
        text = _to_csv(rows)
    else:
        config = {k.replace("_", "-"): getattr(args, k)
                  for k in ("family", "p", "N", "alpha", "m_min", "m_max", "m_points", "tol",
                            "lam", "stability", "table", "N_range", "tau", "criteria")
                  if getattr(args, k, None) is not None}
        payload = {
            "command": args.command,
            "config": config,
            "result": result,
            "warnings": warnings_,
        }
        text = _dumps(payload)
    _write_output(text, args.out)
    if args.command == "verify" and not result["passed"]:
        return EXIT_COMPUTE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

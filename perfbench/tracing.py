"""Spans and counters recorded from outside the ``pullin`` package.

Nothing in ``src/`` is edited.  While a :class:`Tracer` is installed, the
names that each ``pullin`` module calls through its module globals are
replaced by recording wrappers:

* public ``pullin`` functions (``branch.shoot``, ``spectral.mu1``,
  ``bounds.ball_stats``, the optimizers, the power-law helpers, ...) get a
  span each: name, start, end and parent span;
* scipy entry points (``solve_ivp``, ``quad``, ``brentq``) and the private
  eigen-solve get counters only, so their time stays inside the ``pullin``
  function that called them.

A module's self time is the time of its spans minus the time of their child
spans.  Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import logging
import os
import time
from collections import Counter, defaultdict

from pullin import branch, bounds, powerlaw, spectral
from pullin.errors import BracketError

LAYERS = ("branch", "spectral", "bounds", "optimize", "powerlaw")

CAP_MESSAGE = "seed radius loop hit its cap"

# the unwrapped originals, for use inside the hooks
_classify_regularity = powerlaw.classify_regularity
_default_m_grid = branch.default_m_grid


class CapCounter(logging.Handler):
    """Counts the seed-halving cap records that ``pullin.branch`` logs at
    DEBUG level; the cap is otherwise invisible to a caller."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.hits = 0

    def emit(self, record):
        if record.getMessage().startswith(CAP_MESSAGE):
            self.hits += 1

    def attach(self):
        logger = logging.getLogger("pullin.branch")
        logger.setLevel(logging.DEBUG)
        logger.addHandler(self)
        return self


def _public_functions(module):
    """Functions defined in `module` whose names do not start with '_'."""
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self, caps: CapCounter):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._caps = caps
        self._caps_at_install = 0
        self._saved: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def within(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def innermost(self, prefix: str):
        for i in reversed(self.stack):
            if self.spans[i][0].startswith(prefix):
                return self.spans[i][0]
        return None

    def _span(self, name, fn, on_return=None, on_error=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out
        return wrapper

    def _counter(self, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(args, kwargs, out)
            return out
        return wrapper

    def _patch(self, module, name, wrapper):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    # -- installation ---------------------------------------------------------

    def install(self):
        c = self.counts
        self._caps_at_install = self._caps.hits

        hooks = self._hooks()
        for module, layer in ((branch, "branch"), (spectral, "spectral"),
                              (bounds, "bounds"), (powerlaw, "powerlaw")):
            for name in _public_functions(module):
                on_return, on_error = hooks.get(f"{layer}.{name}", (None, None))
                self._patch(module, name, self._span(
                    f"{layer}.{name}", getattr(module, name), on_return, on_error))

        # names other modules imported from optimize and powerlaw
        for module in (branch, bounds):
            for name in ("golden_section_min", "golden_section_max",
                         "grid_then_golden_min", "parabolic_vertex"):
                if hasattr(module, name):
                    self._patch(module, name, self._optimizer_span(
                        name, getattr(module, name)))
        self._patch(branch, "dim_transform",
                    self._span("powerlaw.dim_transform", branch.dim_transform))
        for cls, meth in ((powerlaw.EnvelopePair, "lower"),
                          (powerlaw.EnvelopePair, "upper")):
            self._patch(cls, meth, self._span(
                f"powerlaw.envelope_{meth}", getattr(cls, meth)))

        def branch_ivp(args, kwargs, sol):
            c["branch.integrator_calls"] += 1
            c["branch.rhs_evals"] += sol.nfev

        def spectral_ivp(args, kwargs, sol):
            owner = self.innermost("spectral.") or "spectral.other"
            c[f"{owner}.eigen_shots"] += 1
            c[f"{owner}.rhs_evals"] += sol.nfev

        def eigen_solve(args, kwargs, out):
            c["spectral.eigen_solves"] += 1
            if self.within("bounds.ball_stats"):
                c["bounds.ball_stats.eigen_solves"] += 1

        def counted(key):
            def count(args, kwargs, out):
                c[key] += 1
            return count

        self._patch(branch, "solve_ivp", self._counter(branch.solve_ivp, branch_ivp))
        self._patch(branch, "brentq", self._counter(branch.brentq, counted("branch.brentq_calls")))
        self._patch(spectral, "solve_ivp", self._counter(spectral.solve_ivp, spectral_ivp))
        self._patch(spectral, "quad", self._counter(spectral.quad, counted("spectral.quad_calls")))
        self._patch(spectral, "_principal_eigenvalue",
                    self._counter(spectral._principal_eigenvalue, eigen_solve))
        self._patch(bounds, "quad", self._counter(bounds.quad, counted("bounds.quad_calls")))
        self._patch(bounds, "brentq", self._counter(bounds.brentq, counted("bounds.brentq_calls")))
        return self

    def uninstall(self):
        self.counts["branch.seed_cap_hits"] = self._caps.hits - self._caps_at_install
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _hooks(self):
        c = self.counts

        def shoot_done(args, kwargs, out):
            c["branch.shoot.calls"] += 1
            if self.within("branch.minimal_solution"):
                c["branch.minimal_solution.shots"] += 1
            if self.within("branch.solve_branch"):
                c["branch.solve_branch.shots"] += 1

        def branch_done(args, kwargs, out):
            grid = kwargs.get("m_grid", args[1] if len(args) > 1 else None)
            if grid is None:
                grid = _default_m_grid(out.problem.F)
            c["branch.grid_points"] += len(grid)
            if out.fold_found and is_singular(out.problem):
                c["branch.spurious_folds"] += 1

        def mu1_error(exc):
            if isinstance(exc, BracketError):
                c["spectral.mu1.skipped"] += 1

        return {"branch.shoot": (shoot_done, None),
                "branch.solve_branch": (branch_done, None),
                "spectral.mu1": (None, mu1_error)}

    def _optimizer_span(self, name, fn):
        c = self.counts
        span = self._span(f"optimize.{name}", fn)
        if name == "parabolic_vertex":
            return span

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def objective(t):
                c["optimize.objective_evals"] += 1
                return f(t)
            return span(objective, *args, **kwargs)
        return wrapper

    # -- derived numbers ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the child spans' time."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)

    def busy_time(self, prefix: str) -> float:
        """Inclusive time of the outermost spans whose name starts with prefix."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if not name.startswith(prefix):
                continue
            p = parent
            while p is not None and not self.spans[p][0].startswith(prefix):
                p = self.spans[p][3]
            if p is None:
                total += end - start
        return total

    def span_calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, minus the overhead
        figure, which needs an untraced pass as well."""
        c = self.counts
        self_s = self.self_times()
        calls = self.span_calls()
        layer_self = {layer: sum((v for k, v in self_s.items()
                                  if k.startswith(layer + ".")), 0.0)
                      for layer in LAYERS}
        shots = c["branch.shoot.calls"]
        return {
            "branch.shoot.calls": shots,
            "branch.shoot.self_s": self_s.get("branch.shoot", 0.0),
            "branch.integrator_calls": c["branch.integrator_calls"],
            "branch.rhs_evals": c["branch.rhs_evals"],
            "branch.shots_per_integration":
                shots / c["branch.integrator_calls"] if c["branch.integrator_calls"] else 0.0,
            "branch.solve_branch.self_s": self_s.get("branch.solve_branch", 0.0),
            "branch.fold_refine_shots":
                c["branch.solve_branch.shots"] - c["branch.grid_points"],
            "branch.minimal_solution.shots": c["branch.minimal_solution.shots"],
            "branch.minimal_solution.self_s": self_s.get("branch.minimal_solution", 0.0),
            "branch.seed_cap_hits": c["branch.seed_cap_hits"],
            "branch.spurious_folds": c["branch.spurious_folds"],
            "branch.self_s": layer_self["branch"],
            "spectral.mu1.calls": calls["spectral.mu1"],
            "spectral.mu1.self_s": self_s.get("spectral.mu1", 0.0),
            "spectral.mu1.eigen_shots": c["spectral.mu1.eigen_shots"],
            "spectral.mu1.rhs_evals": c["spectral.mu1.rhs_evals"],
            "spectral.mu1.skipped": c["spectral.mu1.skipped"],
            "spectral.lambda1_ball.calls": calls["spectral.lambda1_ball"],
            "spectral.lambda1_ball.self_s": self_s.get("spectral.lambda1_ball", 0.0),
            "spectral.profile_weight_ratio.self_s":
                self_s.get("spectral.profile_weight_ratio", 0.0),
            "spectral.quad_calls": c["spectral.quad_calls"],
            "spectral.self_s": layer_self["spectral"],
            "bounds.ball_stats.eigen_solves": c["bounds.ball_stats.eigen_solves"],
            "bounds.self_s": layer_self["bounds"],
            "bounds.quad_calls": c["bounds.quad_calls"],
            "optimize.objective_evals": c["optimize.objective_evals"],
            "optimize.busy_s": self.busy_time("optimize."),
            "optimize.self_s": layer_self["optimize"],
            "powerlaw.self_s": layer_self["powerlaw"],
        }

    def counts_snapshot(self) -> dict[str, int]:
        """Every hardware-independent number of the pass: counters and span
        call counts.  Two traced passes over the same inputs must agree."""
        out = {k: int(v) for k, v in self.counts.items()}
        out.update({f"{k}.spans": v for k, v in self.span_calls().items()})
        return dict(sorted(out.items()))

    def dump(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = dict(extra)
        payload["counts"] = self.counts_snapshot()
        payload["spans"] = [[n, round(s - t0, 9), round(e - t0, 9), p]
                            for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump(payload, fh)


def is_singular(problem) -> bool:
    """True when the problem's extremal is singular, so its branch has no fold
    (Joseph-Lundgren: exponential from N_eff = 10, inverse square from
    N_eff = (14 + 4 sqrt 6) / 3).  Calls the unwrapped classifier, so the
    check adds no span of its own."""
    return _classify_regularity(
        problem.F, problem.N, problem.alpha) is powerlaw.Regularity.SINGULAR

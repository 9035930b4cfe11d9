"""Spans and counters recorded from outside the ``lago`` package.

For a traced batch, ``Tracer.installed`` rebinds the public functions each
layer calls, at the names the calling module holds (``lago.sim.refit``,
``lago.trial.fit_binary``, ``lago.optimizer.unconditional_power_at_level``,
...), to wrappers that time the call and then restore the originals.  The
package itself is never edited and untraced batches run the original code.

A span's self time is its duration minus the time of the traced calls made
inside it.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import numpy as np

import workloads

REGIMES = {
    "goal-feasible": "goal",
    "pmax-fallback": "pmax",
    "shrinking-fallback": "shrink",
}


def _observe_fit(tracer, dt, args, kwargs, result):
    tracer.counts["fit_iters"] += int(result.n_iter)


def _observe_recommend(tracer, dt, args, kwargs, result):
    tracer.counts["regime." + REGIMES.get(result.regime, result.regime)] += 1
    bounds = kwargs.get("bounds")
    if bounds is not None and not workloads.inside(result.x_hat, bounds):
        tracer.problems.append(f"recommendation {list(result.x_hat)} outside the bounds {bounds}")


def _observe_min_cost(tracer, dt, args, kwargs, result):
    model, _cost, bounds, goal = args[:4]
    P = model.n_components
    tracer.min_cost_s[P].append(dt)
    if not workloads.inside(result, bounds):
        tracer.problems.append(f"P={P}: solved x {list(result)} outside the bounds")
    elif not workloads.meets_goal(model.beta, result, goal):
        tracer.problems.append(f"P={P}: solved x {list(result)} misses the goal {goal}")


# (module, attribute, span, observer): the calls into each layer that the
# workloads make, at the name the calling module holds.
HOOKS = (
    ("sim", "ingest_stage", "trial.ingest", None),
    ("sim", "next_recommendation", "trial.next_recommendation", None),
    ("sim", "refit", "trial.refit", None),
    ("sim", "final_test", "trial.final_test", None),
    ("sim", "final_optimal", "optimizer.final_optimal", None),
    ("sim", "min_cost_subject_to_threshold", "optimizer.true_optimum", None),
    ("trial", "refit", "trial.refit", None),
    ("trial", "fit_binary", "model.fit", _observe_fit),
    ("trial", "fit_continuous", "model.fit", _observe_fit),
    ("trial", "recommend_stage_k", "optimizer.recommend", _observe_recommend),
    ("trial", "_summary_final_test", "power.final_test", None),
    ("optimizer", "unconditional_power_at_level", "power.eval", None),
    ("optimizer", "projected_drift_at_level", "power.eval", None),
    ("optimizer", "conditional_slack_at_level", "power.eval", None),
    ("optimizer", "unconditional_power", "power.eval", None),
    ("optimizer", "conditional_power", "power.eval", None),
    ("diagnostics", "min_cost_subject_to_threshold", "optimizer.min_cost", _observe_min_cost),
)


class Span:
    __slots__ = ("calls", "total", "self_total", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations = []


class Tracer:
    """In-memory spans (per name) and exact counters for one run."""

    def __init__(self):
        self.spans = defaultdict(Span)
        self.counts = Counter()
        self.min_cost_s = defaultdict(list)
        self.problems = []
        self.missing = []
        self._children = [0.0]

    def call(self, name, fn, *args, observe=None, **kwargs):
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._children.pop()
            self._children[-1] += dt
            span = self.spans[name]
            span.calls += 1
            span.total += dt
            span.self_total += dt - child
            span.durations.append(dt)
        if observe is not None:
            observe(self, dt, args, kwargs, result)
        return result

    def wrap(self, name, fn, observe):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, observe=observe, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self, lago):
        saved = []
        for modname, attr, span, observe in HOOKS:
            module = getattr(lago, modname)
            if not hasattr(module, attr):
                if f"{modname}.{attr}" not in self.missing:
                    self.missing.append(f"{modname}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original, observe))
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def per_layer(tracer: Tracer, ops: int, solved: int, drawn: int, time_scale: float = 1.0) -> dict:
    """Per-layer metric values (name -> (value, unit)) from a traced run.

    Times are multiplied by ``time_scale`` (the run's machine-speed
    normalization); counts and percentages are not.
    """
    s = tracer.spans
    n = max(ops, 1)
    ms = 1000.0 * time_scale
    decisions = s["optimizer.recommend"].calls
    fits = s["model.fit"]
    regimes = sum(tracer.counts[f"regime.{r}"] for r in REGIMES.values())
    min_cost_all = [v for vals in tracer.min_cost_s.values() for v in vals]

    def ms_per_op(name, attr="total"):
        return ms * getattr(s[name], attr) / n

    def regime_pct(r):
        return 100.0 * tracer.counts[f"regime.{r}"] / regimes if regimes else 0.0

    out = {
        "power.ms_per_op": (ms_per_op("power.eval"), "ms"),
        "power.evals_per_decision": (
            s["power.eval"].calls / decisions if decisions else 0.0, "count"),
        "power.eval_us_p50": (1000.0 * ms * _pct(s["power.eval"].durations, 50), "us"),
        "power.final_test_ms_per_op": (ms_per_op("power.final_test"), "ms"),
        "model.fit_ms_per_op": (ms_per_op("model.fit"), "ms"),
        "model.fit_ms_p50": (ms * _pct(fits.durations, 50), "ms"),
        "model.fit_ms_p99": (ms * _pct(fits.durations, 99), "ms"),
        "model.fit_calls_per_op": (fits.calls / n, "count"),
        "model.fit_iters_mean": (
            tracer.counts["fit_iters"] / fits.calls if fits.calls else 0.0, "count"),
        "trial.refit_calls_per_op": (s["trial.refit"].calls / n, "count"),
        "trial.ingest_ms_per_op": (ms_per_op("trial.ingest"), "ms"),
        "optimizer.recommend_ms_p50": (
            ms * _pct(s["optimizer.recommend"].durations, 50), "ms"),
        "optimizer.recommend_ms_p99": (
            ms * _pct(s["optimizer.recommend"].durations, 99), "ms"),
        "optimizer.recommend_self_ms_per_op": (
            ms_per_op("optimizer.recommend", "self_total"), "ms"),
        "optimizer.final_optimal_self_ms_per_op": (
            ms_per_op("optimizer.final_optimal", "self_total"), "ms"),
        "optimizer.regime_goal_pct": (regime_pct("goal"), "%"),
        "optimizer.regime_pmax_pct": (regime_pct("pmax"), "%"),
        "optimizer.regime_shrink_pct": (regime_pct("shrink"), "%"),
    }
    for P in workloads.PROBE_SIZES:
        out[f"optimizer.min_cost_ms_p50.P{P}"] = (ms * _pct(tracer.min_cost_s[P], 50), "ms")
    out["optimizer.min_cost_ms_p99"] = (ms * _pct(min_cost_all, 99), "ms")
    out["diagnostics.self_ms_per_probe"] = (ms_per_op("diagnostics.verify", "self_total"), "ms")
    out["diagnostics.solved_pct"] = (100.0 * solved / drawn if drawn else 0.0, "%")
    out["sim.self_ms_per_op"] = (ms_per_op("sim.run_scenario", "self_total"), "ms")
    return out


def decision_trace(tracer: Tracer, ops: int, failure_kinds: dict) -> dict:
    """Exact counts of one traced batch, for citing as counts."""
    s = tracer.spans
    return {
        "ops": ops,
        "decisions": s["optimizer.recommend"].calls,
        "regimes": {r: tracer.counts[f"regime.{r}"] for r in REGIMES.values()},
        "fit_calls": s["model.fit"].calls,
        "fit_iters": tracer.counts["fit_iters"],
        "refit_calls": s["trial.refit"].calls,
        "power_evals": s["power.eval"].calls,
        "min_cost_solves": {f"P{P}": len(v) for P, v in sorted(tracer.min_cost_s.items())},
        "failures_by_kind": dict(sorted(failure_kinds.items())),
    }


def trace_counts(trace: dict) -> dict:
    """The decision trace's totals as per-layer count metrics."""
    out = {
        "trace.ref_decisions": (trace["decisions"], "count"),
        "trace.ref_power_evals": (trace["power_evals"], "count"),
        "trace.ref_fit_calls": (trace["fit_calls"], "count"),
        "trace.ref_fit_iters": (trace["fit_iters"], "count"),
        "trace.ref_min_cost_solves": (sum(trace["min_cost_solves"].values()), "count"),
        "trace.ref_failures": (sum(trace["failures_by_kind"].values()), "count"),
    }
    for regime, count in trace["regimes"].items():
        out[f"trace.ref_regime_{regime}"] = (count, "count")
    return out

#!/usr/bin/env python3
"""Benchmark of the lago engine: one workload per process, inputs from a seed.

    python3 perfbench/run.py --workload mc-cond --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics from a traced run.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it (``#`` lines and one-key JSON objects)
record the machine, the run, a readable table and, when traced, the
decision trace.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One client on one core: the workloads pass threads=1, LAGO_THREADS must not
# switch them to the process pool, and BLAS must not start its own threads.
os.environ.pop("LAGO_THREADS", None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 7

# Machine-speed calibration: a fixed kernel of small numpy calls and Python
# arithmetic that calls no lago code.  It runs between batches for about
# CALIBRATION_SHARE of the batch time; each batch's time is divided by the
# kernel's slowdown against NOMINAL_UNIT_S around it.
NOMINAL_UNIT_S = 0.0018
CALIBRATION_SHARE = 0.1
CALIBRATION_MIN_UNITS = 3
_CAL_X = np.random.default_rng(12345).random((8, 3))
_CAL_Y = np.random.default_rng(54321).random(8)


def _calibration_unit() -> float:
    acc = 0.0
    for i in range(60):
        w = 1.0 / (1.0 + np.exp(-(_CAL_X @ np.full(3, 0.01 * (i % 7)))))
        h = (_CAL_X * (w * (1.0 - w))[:, None]).T @ _CAL_X
        acc += float(np.linalg.solve(h, _CAL_X.T @ (_CAL_Y - w)).sum())
        acc += sum(math.sqrt(j + 1.0) for j in range(40))
    return acc


class Speed:
    """Slowdown of this machine right now against the nominal speed."""

    def __init__(self):
        self.samples = []
        self.last = self.sample(0.0)

    def sample(self, busy_s: float) -> float:
        units = max(CALIBRATION_MIN_UNITS, math.ceil(CALIBRATION_SHARE * busy_s / NOMINAL_UNIT_S))
        t0 = time.perf_counter()
        for _ in range(units):
            _calibration_unit()
        factor = (time.perf_counter() - t0) / units / NOMINAL_UNIT_S
        self.samples.append(factor)
        return factor

    def normalize(self, busy_s: float) -> float:
        """``busy_s`` just measured, at nominal speed (mean of the factors around it)."""
        before, self.last = self.last, self.sample(busy_s)
        return busy_s / (0.5 * (before + self.last))


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def import_lago():
    """Fresh import of the package (and its CLI) from the checkout's src."""
    for name in [m for m in sys.modules if m == "lago" or m.startswith("lago.")]:
        del sys.modules[name]
    lago = importlib.import_module("lago")
    importlib.import_module("lago.cli")
    if Path(lago.__file__).resolve().parent != SRC / "lago":
        raise ImportError(f"imported lago from {lago.__file__}, not from {SRC}")
    return lago


def set_up(name: str, seed: int, speed: Speed):
    """Import, input generation and warm-up, repeated.

    Returns the workload and the median set-up time at nominal speed.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.make(import_lago(), name)
        wl.inputs(seed, 0)
        wl.warm_up()
        times.append(speed.normalize(time.perf_counter() - t0))
    return wl, statistics.median(times)


class Tally:
    """Operations attempted and failed, and what the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.failure_kinds = {}

    def add(self, wl, inputs, result, label, mismatches=()):
        """Count one batch.  Any failed check or report mismatch fails all
        of its operations; otherwise its own failures count."""
        n = wl.ops(inputs)
        self.attempted += n
        if isinstance(result, BaseException):
            problems, failed = [f"{type(result).__name__}: {result}"], n
        else:
            failed, problems = wl.check(inputs, result)
            for kind, count in wl.failure_kinds(result).items():
                self.failure_kinds[kind] = self.failure_kinds.get(kind, 0) + count
        problems = list(problems) + list(mismatches)
        self.failed += n if problems else failed
        self.problems += [f"{label}: {p}" for p in problems]

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        for kind, count in other.failure_kinds.items():
            self.failure_kinds[kind] = self.failure_kinds.get(kind, 0) + count


def timed_call(fn, *args):
    """(result or exception, seconds)."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # counted as failed operations by the caller
        traceback.print_exc(file=sys.stderr)
        result = exc
    return result, time.perf_counter() - t0


def traced_call(wl, tracer, inputs):
    """(result or exception, seconds, problems the tracer's observers found)."""
    seen = len(tracer.problems)
    with tracer.installed(wl.lago):
        result, dt = timed_call(tracer.call, wl.top_span, wl.run, inputs)
    return result, dt, tracer.problems[seen:]


def digest(reports) -> str:
    text = json.dumps(reports, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_of(wl, result):
    return None if isinstance(result, BaseException) else wl.report(result)


def batches(seconds: float, cycle: int):
    """Batch indices until ``seconds`` have passed, ending on a whole cycle."""
    start = time.perf_counter()
    batch = 0
    while True:
        yield batch
        batch += 1
        if batch % cycle == 0 and time.perf_counter() - start >= seconds:
            return


def differ(report, other) -> list:
    if report is None or other is None or digest(report) == digest(other):
        return []
    return ["traced and untraced reports differ"]


def reference_check(wl, tally, tracer=None):
    """Run the reference batches and compare them against reference.json.

    Returns their reports.  With a tracer, each batch also runs untraced and
    the two reports must be identical.
    """
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8")).get(wl.name)
    reports = []
    for batch in range(wl.cycle):
        inputs = wl.inputs(workloads.REFERENCE_SEED, batch)
        mismatches = []
        if tracer is None:
            result, _ = timed_call(wl.run, inputs)
        else:
            result, _, mismatches = traced_call(wl, tracer, inputs)
        report = report_of(wl, result)
        reports.append(report)
        if report is not None:
            if recorded is None or len(recorded) != wl.cycle:
                mismatches.append(f"no reference recorded for {wl.name}")
            else:
                mismatches += workloads.compare(recorded[batch], report)
            if tracer is not None:
                mismatches += differ(report, report_of(wl, timed_call(wl.run, inputs)[0]))
        tally.add(wl, inputs, result, f"reference batch {batch}", mismatches)
    return reports


def run_untraced(wl, seed, seconds, speed):
    tally = Tally()
    ops, busy, normalized, first = 0, 0.0, 0.0, []
    for batch in batches(seconds, wl.cycle):
        inputs = wl.inputs(seed, batch)
        result, dt = timed_call(wl.run, inputs)
        busy += dt
        normalized += speed.normalize(dt)
        ops += wl.ops(inputs)
        tally.add(wl, inputs, result, f"batch {batch}")
        if batch < wl.cycle:
            first.append(report_of(wl, result))
    reference = reference_check(wl, tally)
    metrics = {
        "ops_per_s": (ops / normalized, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "batches": batch + 1,
        "ops": ops,
        "ops_per_s_raw": ops / busy,
        "reports_digest": digest([reference, first]),
    }
    return tally, metrics, detail


def run_traced(wl, seed, seconds, speed):
    """Each batch runs untraced and traced (alternating which goes first);
    the two reports must be identical."""
    tally = Tally()
    tracer = tracing.Tracer()
    ops, plain_s, traced_s, first = 0, 0.0, 0.0, []
    solved = drawn = 0
    for batch in batches(seconds, wl.cycle):
        inputs = wl.inputs(seed, batch)
        if batch % 2 == 0:
            plain, dt_plain = timed_call(wl.run, inputs)
            traced, dt_traced, observed = traced_call(wl, tracer, inputs)
        else:
            traced, dt_traced, observed = traced_call(wl, tracer, inputs)
            plain, dt_plain = timed_call(wl.run, inputs)
        speed.sample(dt_plain + dt_traced)
        plain_s += dt_plain
        traced_s += dt_traced
        ops += wl.ops(inputs)
        report = report_of(wl, traced)
        if batch < wl.cycle:
            first.append(report)
        tally.add(wl, inputs, traced, f"batch {batch}",
                  observed + differ(report, report_of(wl, plain)))
        if isinstance(wl, workloads.Probe) and report is not None:
            drawn += wl.ops(inputs)
            solved += wl.ops(inputs) - wl.unsolved(traced)

    ref_tracer, ref_tally = tracing.Tracer(), Tally()
    reference = reference_check(wl, ref_tally, ref_tracer)
    tally.merge(ref_tally)

    slowdown = statistics.mean(speed.samples)
    metrics = tracing.per_layer(tracer, ops, solved, drawn, time_scale=1.0 / slowdown)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    trace = tracing.decision_trace(ref_tracer, ref_tally.attempted, ref_tally.failure_kinds)
    metrics.update(tracing.trace_counts(trace))
    detail = {
        "batches": batch + 1,
        "ops": ops,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "slowdown": slowdown,
        "samples": {name: span.calls for name, span in sorted(tracer.spans.items())},
        "hooks_missing": tracer.missing,
        "reports_digest": digest([reference, first]),
    }
    return tally, metrics, detail, trace


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lago" / "__init__.py").is_file():
        print(f"perfbench: no lago sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"perfbench: missing {REFERENCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print(json.dumps({"machine": machine_record()}))
    speed = Speed()
    wl, setup_s = set_up(args.workload, args.seed, speed)

    if args.trace:
        tally, metrics, detail, trace = run_traced(wl, args.seed, args.seconds, speed)
        print(json.dumps({"decision_trace": {"workload": wl.name, "batches": "reference", **trace}}))
    else:
        tally, metrics, detail = run_untraced(wl, args.seed, args.seconds, speed)
        metrics["setup_s"] = (setup_s, "s")
        metrics["ok_pct"] = (100.0 * (tally.attempted - tally.failed) / tally.attempted, "%")
    print(json.dumps({"run": {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                              "failed_pct": 100.0 * tally.failed / tally.attempted,
                              "failure_kinds": tally.failure_kinds, **detail}}))
    for problem in tally.problems[:20]:
        print(f"# CHECK FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {wl.name:9s} {name:40s} {value:14.6g} {unit}")

    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

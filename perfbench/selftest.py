#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for one second, untraced and traced, and checks that

* the last line of output is the result object, every check passed, and it
  names exactly the metrics BENCHMARK.json lists, each with its unit;
* the traced and the untraced run produce identical reports (the traced
  run also compares each of its batches against an untraced rerun);
* each workload's generated inputs are a function of the seed;
* in a directory holding only BENCHMARK.json and this directory, the
  benchmark exits with a nonzero code and prints no result.

Exits nonzero and lists the failures if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

SECONDS = "1"
SEED = 11


def bench(args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def one_key(lines, key):
    for line in lines:
        if line.startswith("{") and key in json.loads(line):
            return json.loads(line)[key]
    return None


def check_run(spec, workload, trace, failures):
    proc = bench(["--workload", workload, "--seed", str(SEED), "--seconds", SECONDS,
                  "--trace", str(trace)])
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        failures.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        failures.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        failures.append(f"{label}: attempted={result.get('attempted')}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        units = sorted(n for n in set(expected) & set(printed) if expected[n] != printed[n])
        failures.append(f"{label}: metrics missing {missing}, extra {extra}, wrong units {units}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            failures.append(f"{label}: {name} value {m.get('value')!r}")
    if one_key(lines, "machine") is None:
        failures.append(f"{label}: no machine record")
    run_line = one_key(lines, "run") or {}
    if trace and run_line.get("hooks_missing"):
        failures.append(f"{label}: trace hooks missing {run_line['hooks_missing']}")
    return run_line.get("reports_digest")


def check_inputs(failures):
    sys.path.insert(0, str(run.SRC))
    lago = run.import_lago()
    for name in workloads.WORKLOADS:
        wl = workloads.make(lago, name)

        def inputs(seed):
            return json.dumps(
                [workloads.canonical(wl.inputs(seed, b)) for b in range(2 * wl.cycle)],
                sort_keys=True,
            )

        if inputs(SEED) != inputs(SEED):
            failures.append(f"{name}: inputs differ between two calls with one seed")
        if inputs(SEED) == inputs(SEED + 1):
            failures.append(f"{name}: seeds {SEED} and {SEED + 1} give the same inputs")


def check_bare_directory(failures):
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=run.ROOT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", workloads.WORKLOADS[0], "--seed", "1",
                      "--seconds", SECONDS, "--trace", "0"], cwd=tmp)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            failures.append("without the sources the benchmark still printed a result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    check_inputs(failures)
    check_bare_directory(failures)
    for name in workloads.WORKLOADS:
        untraced = check_run(spec, name, 0, failures)
        traced = check_run(spec, name, 1, failures)
        if untraced is None or untraced != traced:
            failures.append(f"{name}: traced reports {traced} != untraced {untraced}")
        print(f"{name}: checked", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

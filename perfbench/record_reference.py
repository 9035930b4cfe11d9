#!/usr/bin/env python3
"""Record the reference reports that every benchmark run compares against.

    python3 perfbench/record_reference.py

Runs each workload's reference batches (seed ``workloads.REFERENCE_SEED``,
the first whole cycle of batches) untraced and writes their reports to
``perfbench/reference.json``.
Record it only on a commit whose reports are the intended reference: a
later run whose report differs (integers exactly, floats beyond
``workloads.FLOAT_RTOL``) counts that batch as failed.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    lago = run.import_lago()
    reference = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(lago, name)
        reference[name] = []
        for batch in range(wl.cycle):
            inputs = wl.inputs(workloads.REFERENCE_SEED, batch)
            result = wl.run(inputs)
            failed, problems = wl.check(inputs, result)
            if problems:
                print(f"{name}: reference batch {batch} fails its checks: {problems}",
                      file=sys.stderr)
                return 1
            reference[name].append(wl.report(result))
            print(f"{name} batch {batch}: {wl.ops(inputs)} operations, {failed} failed")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's tracer rebinds layer functions by (module, attribute).

A renamed or deleted function only shows up there as ``hooks_missing`` in
traced output, with its per-layer metrics silently zero, so the hook table
is checked against the package here.  The table is read with ``ast`` so
the benchmark code is never imported.
"""

import ast
from pathlib import Path

import pytest

import lago

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _hooks():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets)
        ):
            return [
                (entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts
            ]
    raise AssertionError("no HOOKS table in perfbench/tracing.py")


@pytest.mark.parametrize("module, attr", _hooks())
def test_bench_hook_target_exists(module, attr):
    assert callable(getattr(getattr(lago, module), attr, None))

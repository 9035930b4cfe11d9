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


# The power layer is timed through the names the threshold search calls; a
# refactor that stopped calling them would drop every power evaluation out of
# the benchmark's trace without failing anything above.
THRESHOLD_POWER_CALLS = (
    "projected_drift_at_level",
    "unconditional_power_at_level",
    "conditional_slack_at_level",
    "unconditional_power",
)


def test_threshold_core_calls_the_hooked_power_names():
    hooked = {attr for module, attr in _hooks() if module == "optimizer"}
    tree = ast.parse(Path(lago.optimizer.__file__).read_text())
    core = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_threshold_core"
    )
    called = {
        node.func.id for node in ast.walk(core)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    for name in THRESHOLD_POWER_CALLS:
        assert name in hooked, f"{name} is not in the HOOKS table"
        assert name in called, f"_threshold_core no longer calls {name}"

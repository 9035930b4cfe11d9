"""Every recommendation goes through ``optimizer._recommend_lanes``.

``recommend_stage_k``, ``plan_stage1`` and ``trial.final_optimal`` only
resolve their inputs (arm totals, the stage-1 anchor, the stripped power
goal) and call ``recommend_from_summary``, which is the lanes core on one
lane; the Monte Carlo engine calls the lanes core once per deciding stage.
The lanes core alone runs the shrinking fallback and the batched min-cost
solve.  ``ast`` guards keep it that way; a differential test pins
``final_optimal`` to the solver called directly.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import lago
from lago.cost import CostFunction
from lago.model import CenterData, StageRecord
from lago.optimizer import _stage1_anchor, recommend_from_summary
from lago.power import TestSelector as Selector
from lago.trial import (
    PlannedStage,
    TrialConfig,
    final_optimal,
    ingest_stage,
    new_trial,
    refit,
)

ENTRY_POINTS = [
    ("optimizer", "recommend_stage_k"),
    ("optimizer", "plan_stage1"),
    ("trial", "final_optimal"),
]


def _called_names(func: ast.FunctionDef) -> set:
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def _functions(path: Path):
    return [
        node for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    ]


@pytest.mark.parametrize("module, name", ENTRY_POINTS)
def test_entry_point_calls_recommend_from_summary(module, name):
    path = Path(getattr(lago, module).__file__)
    func = next(f for f in _functions(path) if f.name == name)
    assert "recommend_from_summary" in _called_names(func), (
        f"{module}.{name} no longer calls recommend_from_summary"
    )


def _callers(name: str) -> set:
    package = Path(lago.__file__).parent
    return {
        (path.stem, func.name)
        for path in sorted(package.glob("*.py"))
        for func in _functions(path)
        if name in _called_names(func)
    }


def _function(module: str, name: str) -> ast.FunctionDef:
    path = Path(getattr(lago, module).__file__)
    return next(f for f in _functions(path) if f.name == name)


def test_only_the_lanes_core_runs_the_shrinking_fallback_and_the_batched_solve():
    assert _callers("shrinking_method") == {("optimizer", "_recommend_lanes")}
    assert _callers("_min_cost_lanes") == {("optimizer", "_recommend_lanes")}


def test_recommend_from_summary_and_the_engine_reach_a_package_only_through_the_lanes_core():
    solvers = {"_min_cost_eta", "_min_cost_lanes", "_min_cost_at_level",
               "min_cost_subject_to_threshold", "shrinking_method"}
    called = _called_names(_function("optimizer", "recommend_from_summary"))
    assert "_recommend_lanes" in called and not called & solvers
    # The engine decides through one helper, which calls the lanes core.
    assert {f for m, f in _callers("_recommend_lanes") if m == "sim"} == {"_decide_lanes"}
    called = _called_names(_function("sim", "_simulate_block"))
    assert "_decide_lanes" in called and not called & (solvers | {
        "_recommend_lanes", "recommend_from_summary", "recommend_stage_k"})


def test_the_engine_never_calls_the_scalar_solver_directly():
    for name in ("_min_cost_eta", "_min_cost_at_level"):
        assert not {f for m, f in _callers(name) if m == "sim"}, name


# ---------------------------------------------------------------------------
# final_optimal against the solver called directly

CUBIC = CostFunction((
    (0, 3, 2.0), (0, 2, -1.19), (0, 1, 10.0), (None, 0, 10.0),
    (1, 3, 0.1), (1, 2, -0.2), (1, 1, 2.0),
))
BOUNDS = ((0.0, 2.0), (0.0, 8.0))
PROBES = ((1.0, 0.0), (0.0, 4.0), (1.0, 4.0))


def _stage(k, packages, successes):
    s0, *s1 = successes
    centers = [CenterData.from_stats(0, np.zeros(2), 40, s0, s0 * (40 - s0) / 40)]
    centers += [
        CenterData.from_stats(1, np.asarray(x), 40, s, s * (40 - s) / 40)
        for x, s in zip(packages, s1)
    ]
    return StageRecord(stage_index=k, centers=centers)


def _complete_trial(goals, stage1_package):
    config = TrialConfig(
        stages=(PlannedStage(120, 40, 3, 1), PlannedStage(120, 40, 3, 1)),
        bounds=BOUNDS, cost=CUBIC, goals=goals, stage1_package=stage1_package,
    )
    state = ingest_stage(new_trial(config), _stage(1, PROBES, (21, 23, 26, 30)))
    return ingest_stage(state, _stage(2, [(0.5, 5.0)] * 3, (20, 28, 29, 31)))


@pytest.mark.parametrize("stage1_package", [None, (1.0, 4.0)])
@pytest.mark.parametrize("goals", [
    lago.GoalSpec(outcome_goal=0.7),
    lago.GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled")),
    lago.GoalSpec(outcome_goal=0.55, direction="decrease"),
    lago.GoalSpec(outcome_goal=0.97),  # beyond every package: shrinking fallback
])
def test_final_optimal_is_the_solver_without_the_power_goal(goals, stage1_package):
    state = _complete_trial(goals, stage1_package)
    got = final_optimal(state)
    want = recommend_from_summary(
        refit(state), None, dataclasses.replace(goals, power_goal=None),
        CUBIC, BOUNDS, _stage1_anchor(state),
    )
    assert got.x_hat.tobytes() == want.x_hat.tobytes()
    assert got.regime == want.regime
    assert got.cost == want.cost

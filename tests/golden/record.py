"""Record the golden reports that ``tests/test_golden.py`` holds the package to.

Run from the repository root:

    python3 tests/golden/record.py

It rewrites ``tests/golden/reports.json``: one entry per case of ``CASES``,
each the case's output as JSON, plus the numpy version and
``platform.machine()`` of the recording platform.  JSON writes every float
with ``repr``, which reads back to the same double, so the file holds every
reported number exactly.  A change that moves a reported number reruns this
script; the JSON diff then names every moved number.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PATH = HERE / "reports.json"
sys.path.insert(0, str(HERE.parents[1] / "src"))

import lago  # noqa: E402
from lago import sim  # noqa: E402

SEED = 9


def _goals(approach=None, test=None, **kw):
    if approach is not None:
        kw.update(power_goal=0.8, approach=approach, test=lago.TestSelector(test))
    return lago.GoalSpec(**{"outcome_goal": 0.7, **kw})


def _decrease(true_beta, approach):
    spec = sim.scenario_1a(replicates=300, goals=_goals(
        approach, "z_unpooled", outcome_goal=0.35, direction="decrease"))
    return dataclasses.replace(spec, true_beta=true_beta)


def _continuous(approach, test, replicates):
    spec = sim.scenario_1a(n_per_center=200, replicates=replicates, goals=_goals(approach, test))
    return dataclasses.replace(spec, outcome_kind="continuous", outcome_link="identity",
                               outcome_sigma=8.0)


def _three_stage():
    spec = sim.scenario_1a(replicates=300, goals=_goals("conditional", "z_pooled"))
    first = dataclasses.replace(spec.stages[0], n_per_center=27)
    return dataclasses.replace(
        spec, stages=(first, sim.StagePlan(1, 3, 27), sim.StagePlan(1, 3, 26)))


# name: the scenario spec of a ``run_scenario`` case
SCENARIOS = {
    "1a-outcome": lambda: sim.scenario_1a(replicates=300, goals=_goals()),
    "1a-conditional": lambda: sim.scenario_1a(
        replicates=300, goals=_goals("conditional", "z_unpooled")),
    "1a-unconditional-z": lambda: sim.scenario_1a(
        replicates=300, goals=_goals("unconditional", "z_unpooled")),
    "1a-unconditional-z-pooled": lambda: sim.scenario_1a(
        replicates=300, goals=_goals("unconditional", "z_pooled")),
    "1a-wald": lambda: sim.scenario_1a(
        replicates=60, goals=_goals("unconditional", "wald_pdf_binary")),
    "1a-decrease-unconditional": lambda: _decrease((-0.1, -0.3, -0.15), "unconditional"),
    "1a-decrease-conditional": lambda: _decrease((0.1, -0.3, -0.15), "conditional"),
    "1b": lambda: sim.scenario_1b(replicates=300),
    "2a": lambda: sim.scenario_2a(replicates=300),
    "2b": lambda: sim.scenario_2b(replicates=300),
    "continuous-1a-t": lambda: _continuous("conditional", "t_unpooled", 100),
    "continuous-1a-t-pooled-unconditional": lambda: _continuous("unconditional", "t_pooled", 60),
    "1a-null": lambda: sim.null_variant(sim.scenario_1a(replicates=300)),
    "1a-three-stage": _three_stage,
}


def run_case(name: str, threads: int = 1):
    """The JSON form of case ``name``'s output."""
    if name == "betterbirth":
        return _betterbirth()
    return plain(sim.run_scenario(SCENARIOS[name](), seed=SEED, threads=threads).to_dict())


def _betterbirth() -> dict:
    """The BetterBirth stages-1-2 decrease recommendations: outcome goal 0.1
    alone, and with an unconditional or conditional power goal of 0.8, each
    with its whole-unit package; and the best level inside the bounds."""
    model, layout = sim.betterbirth_model("stages12"), sim.betterbirth_summary()
    cost, bounds = sim.BETTERBIRTH_COST, sim.BETTERBIRTH_BOUNDS
    out = {"p_max": lago.p_max(model, bounds, "decrease")}
    for label, approach in (("outcome", None), ("unconditional", "unconditional"),
                            ("conditional", "conditional")):
        goals = _goals(approach, "z_unpooled", outcome_goal=0.1, direction="decrease")
        rec = lago.recommend_from_summary(model, layout, goals, cost, bounds)
        out[label] = {
            **{f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)},
            "integerize": lago.integerize(
                rec.x_hat, model, cost, bounds, rec.required_threshold, goals.direction),
        }
    return plain(out)


CASES = (*SCENARIOS, "betterbirth")


def plain(obj):
    """``obj`` with plain Python types only: lists for tuples and arrays,
    float for numpy floats, int for numpy integers."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def platform_tag() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def record() -> dict:
    return {"platform": platform_tag(), "seed": SEED,
            "cases": {name: run_case(name) for name in CASES}}


def main() -> None:
    doc = record()
    PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['cases'])} cases to {PATH}")


if __name__ == "__main__":
    main()

"""The one JSON rule: every report, config and state document is built from
its fields by ``model._json_value``, and each one is strict JSON
(``allow_nan=False``) even where a value is NaN or infinite.  Every config
and state document is read back by the inverse rule, ``model._from_fields``,
which refuses a field it does not know."""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import lago
from lago import sim
from lago.cli import CoefficientFixture, _bundled
from lago.diagnostics import verify_assumption7
from lago.model import FittedModel, StageRecord, _from_fields, _json_fields, _json_value
from lago.optimizer import GoalSpec, Recommendation, recommend_from_summary
from lago.power import TestResult as Result
from lago.power import TestSelector as Selector
from lago.trial import TrialConfig, from_document, ingest_stage, new_trial, to_document
from test_lockstep import _draw_center, _stage_packages
from test_trial import STATE_V1, _after_stage1_doc


def strict(doc) -> str:
    return json.dumps(doc, allow_nan=False)


def test_converter_rule():
    value = {
        "floats": (1.5, float("nan"), float("inf"), -float("inf")),
        "numpy": np.array([[np.float64(2.0), 3.0]]),
        "scalars": [np.int64(4), np.bool_(True), np.float64("nan")],
        "cost": sim.COST_1B,
        "goals": GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("z_pooled")),
        "plan": sim.StagePlan(1, 2, 10, ((1.0, 0.0), (0.0, 4.0))),
    }
    got = _json_value(value)
    assert got == {
        "floats": [1.5, None, None, None],
        "numpy": [[2.0, 3.0]],
        "scalars": [4, True, None],
        "cost": [[1, 1, 1.0], [2, 1, 4.0]],
        "goals": {"outcome_goal": 0.7, "direction": "increase", "power_goal": 0.8,
                  "alpha": 0.05, "approach": "unconditional", "test": "z_pooled",
                  "conditional_scale": "sd"},
        "plan": {"n_control_centers": 1, "n_intervention_centers": 2, "n_per_center": 10,
                 "probe_packages": [[1.0, 0.0], [0.0, 4.0]]},
    }
    assert type(got["scalars"][0]) is int and type(got["scalars"][1]) is bool
    strict(got)


def test_all_failed_metrics_report_is_strict_json():
    spec = dataclasses.replace(sim.scenario_1a(replicates=4), true_beta=(30.0, 0.3, 0.15))
    report = sim.run_scenario(spec, seed=3, threads=1)
    assert report.n_used == 0 and report.failure_kinds == {"SeparationError": 4}
    doc = json.loads(strict(report.to_dict()))
    assert doc["power_pct"] is None and doc["rel_bias_pct"] == [None] * 3
    assert doc["true_optimum"] == sim.true_optimum(spec).tolist()
    assert doc["opt_rel_bias_pct"] is None and doc["mean_recommendation"] is None


def test_inf_metric_is_null():
    report = sim.MetricsReport(
        scenario="s", replicates=2, n_used=2, failures=0, failure_kinds={},
        power_pct=50.0, rel_bias_pct=(1.0, float("inf")), se_over_emp_sd_pct=(float("inf"), 2.0),
        cp95_pct=(95.0, 90.0), opt_rel_bias_pct=None, propt_q2p5=None, propt_q97p5=None,
        mean_recommendation=None, true_optimum=None, seed=1,
    )
    doc = report.to_dict()
    assert doc["rel_bias_pct"] == [1.0, None] and doc["se_over_emp_sd_pct"] == [None, 2.0]
    strict(doc)
    assert report.csv_row()[5:7] == ["1", "inf"]


def test_extended_probe_with_a_failing_center_is_strict_json():
    model = FittedModel(beta=np.array([0.1, 0.3, 0.15]), link="logit",
                        covariance=np.diag([0.04, 0.09, 0.04]), n_used=100, kind="binary")
    report = verify_assumption7(model, sim.COST_1A, ((0.0, 2.0), (0.0, 8.0)), 0.7, 0.05,
                                L=4, extended=True, M=3, seed=1)
    assert any(c["x"] is None for c in report.centers)
    doc = json.loads(strict(report.to_dict()))
    failed = [c for c in doc["centers"] if c["x"] is None]
    assert failed and all(c["delta_max"] is None for c in failed)
    assert list(doc) == ["delta_max", "eta", "epsilon", "passed", "x_hat", "centers",
                         "failures", "samples_per_center", "seed"]


def test_recommendation_is_strict_json():
    rec = recommend_from_summary(
        sim.betterbirth_model(), sim.betterbirth_summary(),
        GoalSpec(outcome_goal=0.1, direction="decrease", power_goal=0.8,
                 test=Selector("z_unpooled")),
        sim.BETTERBIRTH_COST, sim.BETTERBIRTH_BOUNDS,
    )
    assert isinstance(rec, Recommendation)
    doc = json.loads(strict(_json_value(rec)))
    assert list(doc) == ["x_hat", "regime", "achieved_outcome", "required_threshold",
                         "projected_power", "cost"]
    assert doc["x_hat"] == rec.x_hat.tolist() and doc["projected_power"] == rec.projected_power


def test_trial_document_and_scenario_config_are_strict_json():
    spec = sim.scenario_1a(n_per_center=40, replicates=1)
    config = sim._trial_config(spec)
    state = new_trial(config)
    rng = np.random.default_rng(2)
    truth = sim._true_model(spec)
    for k, plan in enumerate(spec.stages, start=1):
        arms = [(0, np.zeros(2))] * plan.n_control_centers
        arms += [(1, x) for x in _stage_packages(spec, plan, k, state)]
        state = ingest_stage(state, StageRecord(k, [
            _draw_center(rng, spec, truth, arm, x, plan.n_per_center) for arm, x in arms]))
    doc = json.loads(strict(to_document(state)))
    assert to_document(from_document(doc)) == doc
    assert doc["recommendations"] and doc["config"]["stage1_package"] == [1.0, 4.0]
    assert "stage1_package" not in dataclasses.replace(config, stage1_package=None).to_config()

    cfg = json.loads(strict(spec.to_config()))
    assert "distortion" not in cfg
    assert sim.ScenarioSpec.from_config(cfg) == spec


def test_final_test_payload_is_its_fields():
    result = Result(statistic=float("nan"), df=1, p_value=1.0, reject=False, kind="z_pooled")
    assert _json_value(result) == {"statistic": None, "df": 1, "p_value": 1.0,
                                   "reject": False, "kind": "z_pooled"}


# ---------------------------------------------------------------------------
# reading: the inverse of _json_fields


def through_text(doc):
    return json.loads(strict(doc))


@dataclasses.dataclass(frozen=True)
class Plain:
    a: int
    b: tuple = (1.0,)
    c: str | None = None


def test_reader_rule():
    assert _from_fields(Plain, {"a": 1}) == Plain(1)
    assert _from_fields(Plain, {"a": 1, "b": [2.0], "c": None}, b=tuple, c=str) == \
        Plain(1, (2.0,), None)
    got = Plain(2, (3.0, 4.0), "x")
    assert _from_fields(Plain, through_text(_json_fields(got)), b=tuple) == got
    with pytest.raises(KeyError, match="'a'"):
        _from_fields(Plain, {"b": [2.0]})
    with pytest.raises(ValueError, match="unknown Plain field 'd'; known: a, b, c"):
        _from_fields(Plain, {"a": 1, "d": 2})
    with pytest.raises(TypeError, match="Plain fields must be an object, got list"):
        _from_fields(Plain, [1])


def _scenario_doc():
    return sim.scenario_1a(replicates=2, seed=4).to_config()


def _trial_doc():
    return sim._trial_config(sim.scenario_1a(replicates=2)).to_config()


@pytest.mark.parametrize("where, read, doc, entry, key", [
    ("scenario", sim.ScenarioSpec.from_config, _scenario_doc, lambda d: d, "se_sorce"),
    ("stage plan", sim.ScenarioSpec.from_config, _scenario_doc, lambda d: d["stages"][1],
     "probe_package"),
    ("goals", sim.ScenarioSpec.from_config, _scenario_doc, lambda d: d["goals"], "power_gaol"),
    ("trial config", TrialConfig.from_config, _trial_doc, lambda d: d, "stage1_pakage"),
    ("planned stage", TrialConfig.from_config, _trial_doc, lambda d: d["stages"][0],
     "n_interventions"),
    ("trial goals", TrialConfig.from_config, _trial_doc, lambda d: d["goals"], "tset"),
    ("recommendation", from_document, _after_stage1_doc,
     lambda d: d["recommendations"][0], "xhat"),
    ("coefficient fixture", CoefficientFixture.from_config, lambda: _bundled("betterbirth"),
     lambda d: d, "directon"),
])
def test_every_reader_refuses_an_unknown_field(where, read, doc, entry, key):
    doc = doc()
    read(doc)
    entry(doc)[key] = 1.0
    with pytest.raises(ValueError, match=f"field '{key}'"):
        read(doc)


@pytest.mark.parametrize("read, doc, entry, key, what", [
    (TrialConfig.from_config, _trial_doc, lambda d: d["stages"][0], "n_control",
     "trial config"),
    (from_document, _after_stage1_doc, lambda d: d["recommendations"][0],
     "regime", "trial state document"),
    (sim.ScenarioSpec.from_config, _scenario_doc, lambda d: d["stages"][0],
     "n_per_center", "scenario config"),
])
def test_a_missing_nested_field_is_named(read, doc, entry, key, what):
    doc = doc()
    del entry(doc)[key]
    with pytest.raises(ValueError, match=f"{what} is missing required field '{key}'"):
        read(doc)


def test_absent_fields_take_their_declared_defaults():
    spec = sim.scenario_1a(replicates=2, seed=4)
    doc = spec.to_config()
    for name in ("outcome_kind", "outcome_sigma", "outcome_link", "design_mode", "se_source",
                 "stage1_fallback_x", "deploy_step"):
        del doc[name]
    del doc["stages"][1]["probe_packages"]
    for name in ("direction", "alpha", "approach", "test", "conditional_scale"):
        del doc["goals"][name]
    assert sim.ScenarioSpec.from_config(doc) == dataclasses.replace(
        spec, stage1_fallback_x=None, deploy_step=None)


def _continuous(spec):
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("t_pooled"))
    return dataclasses.replace(spec, goals=goals, outcome_kind="continuous",
                               outcome_sigma=8.0, outcome_link="log", se_source="sandwich")


@pytest.mark.parametrize("spec", [
    *(build(replicates=3, seed=5) for build in sim.SHIPPED_SCENARIOS.values()),
    *(sim.null_variant(build(replicates=3, seed=5)) for build in sim.SHIPPED_SCENARIOS.values()),
    _continuous(sim.scenario_1a(replicates=3)),
    dataclasses.replace(sim.scenario_1b(replicates=3), deploy_step=None, stage1_fallback_x=None),
], ids=lambda spec: spec.name)
def test_every_scenario_config_reads_back_equal_through_json_text(spec):
    assert sim.ScenarioSpec.from_config(through_text(spec.to_config())) == spec
    config = sim._trial_config(spec)
    assert TrialConfig.from_config(through_text(config.to_config())) == config


def test_a_trial_config_without_an_anchor_reads_back_equal():
    config = sim._trial_config(sim.scenario_1a(replicates=2))
    config = dataclasses.replace(config, stage1_package=None)
    doc = through_text(config.to_config())
    assert "stage1_package" not in doc
    assert TrialConfig.from_config(doc) == config


def test_state_documents_read_back_equal():
    doc = through_text(_after_stage1_doc())
    again = from_document(doc)
    assert to_document(again) == doc
    x_hat = again.recommendations[0].x_hat
    assert x_hat.dtype == float and x_hat.tolist() == doc["recommendations"][0]["x_hat"]

    v1 = from_document(json.loads(STATE_V1))
    resaved = through_text(to_document(v1))
    assert from_document(resaved) == v1
    assert to_document(from_document(resaved)) == resaved


def _returns(function: ast.FunctionDef) -> list:
    return [node.value for node in ast.walk(function) if isinstance(node, ast.Return)]


def test_every_from_config_is_one_field_read():
    """No reader lists its fields by hand: every ``from_config`` in the
    package returns a ``_from_fields`` call, except the cost's list format."""
    found = []
    for path in sorted(Path(lago.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for function in cls.body:
                if isinstance(function, ast.FunctionDef) and function.name == "from_config":
                    found.append(cls.name)
                    if cls.name == "CostFunction":
                        continue
                    returns = _returns(function)
                    assert returns, cls.name
                    for value in returns:
                        assert (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                                and value.func.id == "_from_fields"), cls.name
    assert sorted(found) == [
        "CoefficientFixture", "CostFunction", "GoalSpec", "ScenarioSpec", "TrialConfig"]

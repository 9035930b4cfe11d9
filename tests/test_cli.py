"""Command-line behavior: subcommand wiring, file formats, exit codes.

Everything drives ``main(argv)`` directly — no subprocesses — so the tests
see the same return codes the shell would.
"""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from lago.cli import CoefficientFixture, _bundled, main
from lago.cost import CostFunction
from lago.diagnostics import verify_assumption7
from lago.model import _json_value, expit
from lago.optimizer import GoalSpec, plan_stage1, recommend_from_summary
from lago.power import TestSelector as Selector
from lago.sim import (
    BETTERBIRTH_BOUNDS,
    BETTERBIRTH_COST,
    SHIPPED_SCENARIOS,
    betterbirth_model,
    betterbirth_summary,
)
from lago.trial import PlannedStage, TrialConfig, ingest_stage, new_trial, save_state
from lago.model import load_stage_csv


# ---------------------------------------------------------------------------
# fixtures: a small two-stage trial on disk
# ---------------------------------------------------------------------------

BETA = np.array([0.1, 0.3, 0.15])


def write_trial_files(tmp_path, stages=(1, 2), seed=5, sizes=(40, 40, 40)):
    """Trial config JSON + stage-data CSV under tmp_path; returns the paths.

    Stage k runs ``sizes[k - 1]`` observations per center."""
    config = TrialConfig(
        stages=(PlannedStage(120, 40, 3, 1), PlannedStage(120, 40, 3, 1)),
        bounds=((0.0, 2.0), (0.0, 8.0)),
        cost=CostFunction(((0, 1, 1.0), (1, 1, 4.0))),
        goals=GoalSpec(outcome_goal=0.7),
        stage1_package=(1.0, 4.0),
    )
    cfg_path = tmp_path / "trial.json"
    cfg_path.write_text(json.dumps(config.to_config(), indent=2))

    rng = np.random.default_rng(seed)
    rows = ["stage,center,arm,x_1,x_2,y"]

    def emit(stage, center, arm, x, n):
        p = expit(BETA[0] + BETA[1:] @ np.asarray(x))
        for y in rng.binomial(1, p, size=n):
            rows.append(f"{stage},{center},{arm},{x[0]},{x[1]},{y}")

    for stage in stages:
        emit(stage, "c0", 0, (0.0, 0.0), sizes[stage - 1])
        for i, x in enumerate(((1.0, 0.0), (0.0, 4.0), (1.0, 4.0))):
            emit(stage, f"i{i}", 1, x, sizes[stage - 1])
    data_path = tmp_path / "stages.csv"
    data_path.write_text("\n".join(rows) + "\n")
    return cfg_path, data_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr()


def run_json(capsys, *argv):
    code, captured = run(capsys, *argv)
    assert code == 0, captured.err
    return json.loads(captured.out)


# ---------------------------------------------------------------------------
# help and dispatch
# ---------------------------------------------------------------------------

def test_help_exits_zero(capsys):
    code, captured = run(capsys, "--help")
    assert code == 0
    assert "recommend" in captured.out and "simulate" in captured.out


def test_missing_subcommand_is_usage_error(capsys):
    code, _ = run(capsys)
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _ = run(capsys, "frobnicate")
    assert code == 2


# ---------------------------------------------------------------------------
# recommend
# ---------------------------------------------------------------------------

def test_recommend_bundled_coefficients(capsys):
    payload = run_json(capsys, "recommend", "--coefficients", "betterbirth",
                       "--goal", "0.1")
    assert payload["x_hat"][1] == pytest.approx(1.0)
    assert payload["x_hat"][0] == pytest.approx(21.0, abs=0.5)
    assert payload["regime"] == "goal-feasible"


def test_recommend_conditional_power_goal_and_integerize(capsys):
    payload = run_json(
        capsys, "recommend", "--coefficients", "betterbirth",
        "--goal", "0.1", "--power-goal", "0.8", "--approach", "conditional",
        "--integerize",
    )
    assert payload["x_hat"][0] == pytest.approx(26.65, abs=1.0)
    assert payload["projected_power"] >= 0.8 - 1e-9
    assert payload["x_integer"] == [27.0, 1.0]


def test_recommend_needs_a_goal(capsys):
    code, captured = run(capsys, "recommend", "--coefficients", "betterbirth")
    assert code == 2
    assert "goal" in captured.err


@pytest.mark.parametrize("flag, value", [("--stage", "2"), ("--data", "stages.csv"),
                                         ("--trial", "state.json")])
def test_recommend_from_coefficients_refuses_trial_flags(capsys, flag, value):
    # The fixture is the whole input; a trial flag beside it was once ignored.
    code, captured = run(capsys, "recommend", "--coefficients", "betterbirth",
                         "--goal", "0.1", flag, value)
    assert code == 2
    assert flag in captured.err and not captured.out


def test_recommend_unreachable_goal_is_numerical_failure(capsys):
    code, captured = run(capsys, "recommend", "--coefficients", "betterbirth",
                         "--goal", "0.001")
    assert code == 3
    assert "numerical failure" in captured.err


def test_recommend_from_trial_files_stage2(tmp_path, capsys):
    cfg, data = write_trial_files(tmp_path)
    payload = run_json(capsys, "recommend", "--config", cfg, "--data", data,
                       "--stage", "2")
    # planned from stage-1 data only: achieves the configured goal exactly
    assert payload["achieved_outcome"] == pytest.approx(0.7)
    # and matches the library on the stage-1-only state
    from lago.optimizer import recommend_stage_k
    from lago.trial import refit

    state = new_trial(TrialConfig.from_config(json.loads(cfg.read_text())))
    state = ingest_stage(state, load_stage_csv(data)[0])
    rec = recommend_stage_k(refit(state), state, state.config.goals, k=2)
    assert payload["x_hat"] == pytest.approx(list(rec.x_hat))


def test_recommend_stage3_from_a_three_stage_csv(tmp_path, capsys):
    # 1a's 40 per center split 27/27/26, with a power goal on the projection
    cfg, data = write_trial_files(tmp_path, stages=(1, 2, 3), sizes=(27, 27, 26))
    config = TrialConfig(
        stages=(PlannedStage(81, 27, 3, 1), PlannedStage(81, 27, 3, 1),
                PlannedStage(78, 26, 3, 1)),
        bounds=((0.0, 2.0), (0.0, 8.0)),
        cost=CostFunction(((0, 1, 1.0), (1, 1, 4.0))),
        goals=GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled")),
        stage1_package=(1.0, 4.0),
    )
    cfg.write_text(json.dumps(config.to_config()))
    payload = run_json(capsys, "recommend", "--config", cfg, "--data", data,
                       "--stage", "3")
    from lago.optimizer import recommend_stage_k
    from lago.model import _json_fields
    from lago.trial import refit

    state = new_trial(config)
    for record in load_stage_csv(data)[:2]:
        state = ingest_stage(state, record)
    rec = recommend_stage_k(refit(state), state, config.goals, k=3)
    assert payload == json.loads(json.dumps(_json_fields(rec)))
    assert payload["projected_power"] is not None


def test_recommend_complete_trial_is_final_optimal(tmp_path, capsys):
    cfg, data = write_trial_files(tmp_path)
    payload = run_json(capsys, "recommend", "--config", cfg, "--data", data)
    from lago.trial import final_optimal

    state = new_trial(TrialConfig.from_config(json.loads(cfg.read_text())))
    for record in load_stage_csv(data):
        state = ingest_stage(state, record)
    rec = final_optimal(state)
    assert payload["x_hat"] == pytest.approx(list(rec.x_hat))


def test_recommend_from_saved_state(tmp_path, capsys):
    cfg, data = write_trial_files(tmp_path, stages=(1,))
    state = new_trial(TrialConfig.from_config(json.loads(cfg.read_text())))
    state = ingest_stage(state, load_stage_csv(data)[0])
    state_path = tmp_path / "state.json"
    save_state(state, state_path)
    payload = run_json(capsys, "recommend", "--trial", state_path)
    assert payload["achieved_outcome"] == pytest.approx(0.7)


@pytest.mark.parametrize("field, value", [
    ("n1_future", float("nan")),
    ("n0_obs", float("inf")),
    ("n1_obs", -1.0),
    ("s0_obs", float("nan")),
])
def test_recommend_rejects_non_finite_fixture_arm_summary(tmp_path, capsys, field, value):
    doc = _bundled("betterbirth")
    doc["arm_summary"][field] = value
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    code, captured = run(capsys, "recommend", "--coefficients", path,
                         "--goal", "0.1", "--power-goal", "0.8")
    assert code == 2
    assert field in captured.err


@pytest.mark.parametrize("arm", ["1", "0"])
def test_recommend_refuses_a_fixture_arm_summary_with_an_empty_arm(tmp_path, capsys, arm):
    doc = _bundled("betterbirth")
    doc["arm_summary"].update({f"n{arm}_obs": 0.0, f"n{arm}_future": 0.0, f"s{arm}_obs": 0.0})
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    code, captured = run(capsys, "recommend", "--coefficients", path,
                         "--goal", "0.1", "--power-goal", "0.8")
    assert code == 2
    assert "arm_summary needs observations in each arm" in captured.err


def test_recommend_refuses_a_continuous_arm_summary_with_no_observed_intervention(
        tmp_path, capsys):
    # The t projections divide by n1_obs; this ran into a ZeroDivisionError
    # traceback (exit 1).  A fixture knows no test, so the check runs at the
    # recommendation.
    doc = {"beta": [7.0, 0.8, 0.2], "link": "identity",
           "cost": [[1, 1, 1.0], [2, 1, 4.0]], "bounds": [[0.0, 2.0], [0.0, 8.0]],
           "arm_summary": {"n1_obs": 0.0, "n0_obs": 40.0, "s1_obs": 0.0, "s0_obs": 280.0,
                           "n1_future": 120.0, "n0_future": 40.0,
                           "var1_obs": 1.0, "var0_obs": 1.0}}
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    code, captured = run(capsys, "recommend", "--coefficients", path, "--power-goal", "0.8",
                         "--test", "t_unpooled", "--approach", "conditional")
    assert code == 2
    assert "arm_summary n1_obs must be positive" in captured.err


@pytest.mark.parametrize("doc", [
    {"beta": [0.1, float("nan"), 0.15]},
    {"beta": [0.1, 0.3, 0.15], "covariance": np.diag([float("inf"), 0.0, 0.0]).tolist()},
])
def test_a_non_finite_fixture_coefficient_is_refused(tmp_path, capsys, doc):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    code, captured = run(capsys, "plan-stage1", "--coefficients", path,
                         "--config", "scenario_1a", "--goal", "0.7", "--sizes", "100,100")
    assert code == 2
    assert "beta and covariance entries must be finite" in captured.err


@pytest.mark.parametrize("n_used", [400.7, True, "400", -1])
def test_a_fixture_n_used_that_is_not_a_count_is_refused(tmp_path, capsys, n_used):
    doc = {**_bundled("betterbirth"), "n_used": n_used}
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    code, captured = run(capsys, "recommend", "--coefficients", path, "--goal", "0.10")
    assert code == 2
    assert f"n_used must be an integer >= 0, got {n_used!r}" in captured.err


@pytest.mark.parametrize("kind", [5, "nonsense", "5", ["binary"], True])
def test_a_fixture_kind_that_is_not_a_model_kind_is_refused(tmp_path, capsys, kind):
    # ``kind`` was read with ``str``, so 5 loaded as "5" and any string passed.
    doc = {**_bundled("betterbirth"), "kind": kind}
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    code, captured = run(capsys, "recommend", "--coefficients", path, "--goal", "0.10")
    assert code == 2
    assert f"kind must be one of assumed, binary, continuous: {kind!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["assumed", "binary", "continuous"])
def test_a_fixture_of_each_model_kind_loads(kind):
    fixture = CoefficientFixture.from_config({**_bundled("betterbirth"), "kind": kind})
    assert fixture.kind == fixture.model.kind == kind


@pytest.mark.parametrize("edit, message", [
    (lambda entry: entry.update(n1_obz=100.0), "unknown ArmSummary field 'n1_obz'"),
    (lambda entry: entry.pop("s0_obs"), "arm_summary is missing required field 's0_obs'"),
])
def test_recommend_reads_the_fixture_arm_summary_by_its_fields(tmp_path, capsys, edit, message):
    doc = _bundled("betterbirth")
    edit(doc["arm_summary"])
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    code, captured = run(capsys, "recommend", "--coefficients", path,
                         "--goal", "0.1", "--power-goal", "0.8")
    assert code == 2
    assert message in captured.err


@pytest.mark.parametrize("key, typo", [
    ("direction", "directon"), ("link", "lnk"), ("covariance", "covarance"),
])
def test_recommend_refuses_a_misspelt_fixture_key(tmp_path, capsys, key, typo):
    doc = _bundled("betterbirth")
    doc[typo] = doc.pop(key)
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    code, captured = run(capsys, "recommend", "--coefficients", path, "--goal", "0.10")
    assert code == 2
    assert f"unknown CoefficientFixture field '{typo}'" in captured.err
    assert captured.out == ""


def test_recommend_without_inputs_is_validation_error(capsys):
    code, captured = run(capsys, "recommend", "--goal", "0.7")
    assert code == 2
    assert "--trial" in captured.err or "--config" in captured.err


# ---------------------------------------------------------------------------
# bundled fixture names
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", sorted(SHIPPED_SCENARIOS))
def test_bundled_scenario_name_loads_through_simulate(capsys, key):
    emitted = run_json(capsys, "simulate", "--config", f"scenario_{key}",
                       "--seed", "5", "--emit-config", "-")
    spec = dataclasses.replace(SHIPPED_SCENARIOS[key](), rng_seed=5)
    assert emitted == json.loads(json.dumps(spec.to_config()))


def test_bundled_betterbirth_loads_through_each_consumer(capsys):
    model = betterbirth_model("stages12")
    goals = GoalSpec(outcome_goal=0.1, direction="decrease", power_goal=0.8,
                     test=Selector("z_unpooled"))
    # recommend: coefficients, direction, cost, bounds and arm history
    rec = recommend_from_summary(model, betterbirth_summary(), goals,
                                 BETTERBIRTH_COST, BETTERBIRTH_BOUNDS)
    payload = run_json(capsys, "recommend", "--coefficients", "betterbirth",
                       "--goal", "0.1", "--power-goal", "0.8")
    assert payload["x_hat"] == list(rec.x_hat)
    # plan-stage1: coefficients, direction, cost and bounds
    planned = plan_stage1(model.beta, goals, BETTERBIRTH_COST, BETTERBIRTH_BOUNDS,
                          [(425, 424)])
    payload = run_json(capsys, "plan-stage1", "--coefficients", "betterbirth",
                       "--goal", "0.1", "--power-goal", "0.8", "--sizes", "425,424")
    assert payload["x_hat"] == list(planned.x_hat)
    # verify-assumption7: as coefficients, and as the --config for cost/bounds
    report = verify_assumption7(model, BETTERBIRTH_COST, BETTERBIRTH_BOUNDS, goal=0.1,
                                epsilon=0.05, L=10, seed=7, direction="decrease")
    probe = ("verify-assumption7", "--goal", "0.1", "--epsilon", "0.05",
             "--samples", "10", "--seed", "7")
    by_name = run_json(capsys, *probe, "--coefficients", "betterbirth")
    assert by_name == json.loads(json.dumps(report.to_dict()))
    beta = ",".join(repr(b) for b in model.beta.tolist())
    by_config = run_json(capsys, *probe, f"--beta={beta}", "--config", "betterbirth",
                         "--direction", "decrease")
    assert by_config == by_name


def test_bundled_betterbirth_reads_back_equal_through_json_text():
    doc = _bundled("betterbirth")
    fixture = CoefficientFixture.from_config(json.loads(json.dumps(doc)))
    assert fixture == CoefficientFixture(
        betterbirth_model("stages12").beta, name="betterbirth", direction="decrease",
        cost=BETTERBIRTH_COST, bounds=BETTERBIRTH_BOUNDS, arm_summary=betterbirth_summary())
    assert _json_value(fixture) == doc


@pytest.mark.parametrize("argv", [
    ("plan-stage1", "--goal", "0.7", "--power-goal", "0.8", "--integerize"),
    ("verify-assumption7", "--goal", "0.7", "--epsilon", "0.02", "--samples", "20",
     "--seed", "9"),
])
def test_beta_is_the_one_field_fixture(tmp_path, capsys, argv):
    cfg, _ = write_trial_files(tmp_path)
    path = tmp_path / "beta.json"
    path.write_text(json.dumps({"beta": [0.1, 0.3, 0.15]}))
    code, by_flag = run(capsys, *argv, "--beta", "0.1,0.3,0.15", "--config", cfg)
    assert code == 0, by_flag.err
    code, by_file = run(capsys, *argv, "--coefficients", path, "--config", cfg)
    assert code == 0, by_file.err
    assert by_file.out == by_flag.out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_emits_csv(capsys):
    code, captured = run(capsys, "simulate", "--scenario", "1a",
                         "--reps", "25", "--seed", "7")
    assert code == 0
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert len(rows) == 2
    header, row = rows
    assert header[0] == "scenario" and row[0] == "scenario_1a"
    assert len(header) == len(row)
    assert float(dict(zip(header, row))["power_pct"]) > 0


def test_simulate_json_and_seed_reproducibility(capsys):
    a = run_json(capsys, "simulate", "--scenario", "1b", "--reps", "20",
                 "--seed", "3", "--format", "json")
    b = run_json(capsys, "simulate", "--scenario", "1b", "--reps", "20",
                 "--seed", "3", "--format", "json")
    assert a == b
    c = run_json(capsys, "simulate", "--scenario", "1b", "--reps", "20",
                 "--seed", "4", "--format", "json")
    assert c != a


def test_simulate_requires_seed(capsys):
    code, captured = run(capsys, "simulate", "--scenario", "1a", "--reps", "10")
    assert code == 2
    assert "--seed" in captured.err


def test_simulate_emitted_config_reruns_identically(tmp_path, capsys):
    cfg_path = tmp_path / "spec.json"
    code, _ = run(capsys, "simulate", "--scenario", "2a", "--reps", "15",
                  "--seed", "11", "--emit-config", cfg_path)
    assert code == 0
    direct = run_json(capsys, "simulate", "--scenario", "2a", "--reps", "15",
                      "--seed", "11", "--format", "json")
    # the emitted config carries the seed, so no --seed is needed to re-run
    rerun = run_json(capsys, "simulate", "--config", cfg_path, "--format", "json")
    assert rerun == direct


@pytest.mark.parametrize("bounds", [
    [[2.0, 0.0], [0.0, 8.0]],
    [[0.0, 2.0], [0.0, float("inf")]],
    [[0.0, float("nan")], [0.0, 8.0]],
])
def test_simulate_rejects_invalid_bounds_before_emitting(tmp_path, capsys, bounds):
    cfg_path, out = tmp_path / "spec.json", tmp_path / "emitted.json"
    spec = SHIPPED_SCENARIOS["1a"](replicates=5)
    cfg_path.write_text(json.dumps({**spec.to_config(), "bounds": bounds}))
    code, captured = run(capsys, "simulate", "--config", cfg_path, "--seed", "3",
                         "--emit-config", out)
    assert code == 2
    assert "bound" in captured.err
    assert not out.exists()


def test_simulate_rejects_a_layout_without_a_control_center(tmp_path, capsys):
    cfg_path = tmp_path / "spec.json"
    doc = SHIPPED_SCENARIOS["1a"](replicates=5).to_config()
    for stage in doc["stages"]:
        stage["n_control_centers"] = 0
    doc["goals"] = {**doc["goals"], "power_goal": 0.8, "test": "z_unpooled"}
    cfg_path.write_text(json.dumps(doc))
    code, captured = run(capsys, "simulate", "--config", cfg_path, "--seed", "3")
    assert code == 2
    assert "needs a control center in some stage" in captured.err


def test_simulate_rejects_more_replicates_than_spawn_keys(tmp_path, capsys):
    cfg_path = tmp_path / "spec.json"
    doc = SHIPPED_SCENARIOS["1a"](replicates=5).to_config()
    doc["replicates"] = 2**32
    cfg_path.write_text(json.dumps(doc))
    code, captured = run(capsys, "simulate", "--config", cfg_path, "--seed", "3")
    assert code == 2
    assert "replicates must be below 2**32" in captured.err


def test_simulate_rejects_a_test_for_the_other_outcome_kind_before_emitting(tmp_path, capsys):
    out = tmp_path / "emitted.json"
    code, captured = run(capsys, "simulate", "--scenario", "1a", "--reps", "5", "--seed", "3",
                         "--power-goal", "0.8", "--test", "t_unpooled", "--emit-config", out)
    assert code == 2
    assert "test 't_unpooled' does not analyze a binary outcome" in captured.err
    assert not out.exists()


def test_simulate_null_variant_and_goal_overrides(capsys):
    payload = run_json(
        capsys, "simulate", "--scenario", "1a", "--reps", "40", "--seed", "5",
        "--null", "--format", "json",
    )
    assert payload["scenario"].endswith("_null")
    assert payload["power_pct"] < 30.0
    powered = run_json(
        capsys, "simulate", "--scenario", "1a", "--reps", "10", "--seed", "5",
        "--power-goal", "0.8", "--format", "json",
    )
    assert powered["scenario"] == "scenario_1a"


def test_simulate_writes_out_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, captured = run(capsys, "simulate", "--scenario", "1a", "--reps", "10",
                         "--seed", "2", "--out", out)
    assert code == 0
    assert captured.out == ""
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert len(rows) == 2


# ---------------------------------------------------------------------------
# power / final-test
# ---------------------------------------------------------------------------

def test_power_reports_projection_and_slack(tmp_path, capsys):
    cfg, data = write_trial_files(tmp_path, stages=(1,))
    payload = run_json(capsys, "power", "--config", cfg, "--data", data,
                       "--x", "1.0,4.0", "--pi", "0.8")
    assert payload["test"] == "z_unpooled"
    assert payload["unconditional_lambda"] > 0
    assert 0 < payload["unconditional_power"] < 1
    assert "conditional_slack" in payload
    assert 0 < payload["predicted_level"] < 1


def test_power_rejects_wald_slack(tmp_path, capsys):
    cfg, data = write_trial_files(tmp_path, stages=(1,))
    code, captured = run(capsys, "power", "--config", cfg, "--data", data,
                         "--x", "1.0,4.0", "--pi", "0.8",
                         "--test", "wald_pdf_binary")
    assert code == 2
    assert "1-df" in captured.err


def test_power_checks_component_count(tmp_path, capsys):
    cfg, data = write_trial_files(tmp_path, stages=(1,))
    code, captured = run(capsys, "power", "--config", cfg, "--data", data,
                         "--x", "1.0")
    assert code == 2
    assert "components" in captured.err


def test_final_test_on_complete_trial(tmp_path, capsys):
    cfg, data = write_trial_files(tmp_path)
    payload = run_json(capsys, "final-test", "--config", cfg, "--data", data)
    assert payload["kind"] == "z_unpooled"
    assert payload["df"] == 1
    assert 0 < payload["p_value"] <= 1
    assert isinstance(payload["reject"], bool)


def test_final_test_rejects_incomplete_trial(tmp_path, capsys):
    cfg, data = write_trial_files(tmp_path, stages=(1,))
    code, captured = run(capsys, "final-test", "--config", cfg, "--data", data)
    assert code == 2
    assert "complete" in captured.err


def test_final_test_rejects_alpha_outside_unit_interval(tmp_path, capsys):
    cfg, data = write_trial_files(tmp_path)
    code, captured = run(capsys, "final-test", "--config", cfg, "--data", data,
                         "--alpha", "1.5")
    assert code == 2
    assert "(0, 1)" in captured.err


def test_power_rejects_alpha_outside_unit_interval(tmp_path, capsys):
    cfg, data = write_trial_files(tmp_path, stages=(1,))
    code, captured = run(capsys, "power", "--config", cfg, "--data", data,
                         "--x", "1.0,4.0", "--alpha", "1.5")
    assert code == 2
    assert "(0, 1)" in captured.err


@pytest.mark.parametrize("argv", [
    ("power", "--x", "1.0,4.0", "--pi", "1.0"),
    ("power", "--x", "1.0,4.0", "--alpha", "nan"),
    ("plan-stage1", "--beta", "0.1,0.3", "--alpha", "-0.05"),
    ("dominance-threshold", "--beta", "0.1,0.3", "--pi", "inf"),
    ("dominance-threshold", "--beta", "0.1,0.3", "--alpha", "1.0"),
])
def test_probability_flags_reject_values_outside_unit_interval(capsys, argv):
    code, captured = run(capsys, *argv)
    assert code == 2
    assert "(0, 1)" in captured.err


def test_dominance_control_level_is_model_expit(capsys):
    payload = run_json(capsys, "dominance-threshold", "--beta", "0.1,0.3,0.15",
                       "--pi", "0.9")
    control = expit(0.1)
    assert payload["control_level"] == control
    assert payload["pct_above_control"] == (
        100.0 * (payload["threshold_level"] - control) / control
    )


# ---------------------------------------------------------------------------
# plan-stage1 / dominance-threshold / verify-assumption7
# ---------------------------------------------------------------------------

def test_plan_stage1_with_config_sizes(tmp_path, capsys):
    cfg, _ = write_trial_files(tmp_path)
    payload = run_json(capsys, "plan-stage1", "--beta", "0.1,0.3,0.15",
                       "--config", cfg, "--goal", "0.7", "--power-goal", "0.8")
    assert payload["projected_power"] >= 0.8 - 1e-9
    assert payload["achieved_outcome"] >= 0.7 - 1e-9


def test_plan_stage1_with_explicit_sizes(tmp_path, capsys):
    cfg, _ = write_trial_files(tmp_path)
    a = run_json(capsys, "plan-stage1", "--beta", "0.1,0.3,0.15",
                 "--config", cfg, "--goal", "0.7", "--power-goal", "0.8",
                 "--sizes", "120,40;120,40")
    b = run_json(capsys, "plan-stage1", "--beta", "0.1,0.3,0.15",
                 "--config", cfg, "--goal", "0.7", "--power-goal", "0.8")
    assert a == b  # config stages say the same thing


@pytest.mark.parametrize("sizes, message", [
    ("nan,100", "--sizes must be comma-separated finite numbers"),
    ("-100,100", "planned_sizes must be finite and nonnegative"),
    ("0,100;0,100", "planned_sizes must give each arm a positive total"),
])
def test_plan_stage1_refuses_bad_planned_sizes(capsys, sizes, message):
    code, captured = run(capsys, "plan-stage1", "--beta", "0.1,0.3,0.15",
                         "--config", "scenario_1a", "--goal", "0.7", "--power-goal", "0.8",
                         f"--sizes={sizes}")
    assert code == 2
    assert message in captured.err and not captured.out


def test_plan_stage1_refuses_negative_config_stage_sizes(capsys, tmp_path):
    cfg_path = tmp_path / "stages.json"
    cfg_path.write_text(json.dumps({
        "cost": [[1, 1, 1.0], [2, 1, 4.0]], "bounds": [[0.0, 2.0], [0.0, 8.0]],
        "stages": [{"n_intervention": -100, "n_control": 100}],
    }))
    code, captured = run(capsys, "plan-stage1", "--beta", "0.1,0.3,0.15",
                         "--config", cfg_path, "--goal", "0.7")
    assert code == 2
    assert "planned_sizes must be finite and nonnegative" in captured.err


@pytest.mark.parametrize("argv", [
    ("plan-stage1", "--beta", "0.1,inf,0.15", "--config", "scenario_1a", "--goal", "0.7",
     "--sizes", "100,100"),
    ("dominance-threshold", "--beta", "0.1,nan,0.15", "--pi", "0.9"),
    ("power", "--x", "1.0,-inf"),
])
def test_number_lists_refuse_non_finite_tokens(tmp_path, capsys, argv):
    if argv[0] == "power":
        cfg, data = write_trial_files(tmp_path)
        argv += ("--config", cfg, "--data", data)
    code, captured = run(capsys, *argv)
    assert code == 2
    assert "must be comma-separated finite numbers" in captured.err


@pytest.mark.parametrize("flag", ["--epsilon", "--eta"])
def test_verify_assumption7_refuses_an_infinite_ball(capsys, flag):
    argv = {"--epsilon": "0.02", "--eta": "0.5", flag: "inf"}
    code, captured = run(capsys, "verify-assumption7", "--beta", "0.1,0.3,0.15",
                         "--config", "scenario_1a", "--goal", "0.7", "--samples", "3",
                         "--seed", "1", *(t for item in argv.items() for t in item))
    assert code == 2
    assert f"{flag[2:]} must be positive and finite" in captured.err


def test_plan_stage1_refuses_a_non_logit_fixture(capsys, tmp_path):
    fixture = tmp_path / "identity.json"
    fixture.write_text(json.dumps({
        "beta": [0.1, 0.3, 0.15], "link": "identity",
        "cost": [[1, 1, 1.0], [2, 1, 4.0]], "bounds": [[0.0, 2.0], [0.0, 8.0]],
    }))
    code, captured = run(capsys, "plan-stage1", "--coefficients", fixture,
                         "--goal", "0.3", "--sizes", "120,40")
    assert code == 2
    assert "'identity'" in captured.err and not captured.out


def test_plan_stage1_needs_sizes(capsys, tmp_path):
    cfg_path = tmp_path / "cb.json"
    cfg_path.write_text(json.dumps({
        "cost": [[1, 1, 1.0], [2, 1, 4.0]],
        "bounds": [[0.0, 2.0], [0.0, 8.0]],
    }))
    code, captured = run(capsys, "plan-stage1", "--beta", "0.1,0.3,0.15",
                         "--config", cfg_path, "--goal", "0.7")
    assert code == 2
    assert "sizes" in captured.err


def test_dominance_threshold_matches_library(capsys):
    from lago.diagnostics import dominance_design, dominance_threshold

    payload = run_json(capsys, "dominance-threshold", "--beta", "0.1,0.3,0.15",
                       "--pi", "0.9")
    want = dominance_threshold(dominance_design(40), (0.1, 0.3, 0.15), pi=0.9)
    assert payload["threshold_level"] == pytest.approx(want)
    assert payload["pct_above_control"] == pytest.approx(45.5, abs=1.0)


def test_verify_assumption7_roundtrip(tmp_path, capsys):
    cfg, _ = write_trial_files(tmp_path)
    payload = run_json(capsys, "verify-assumption7", "--beta", "0.1,0.3,0.15",
                       "--config", cfg, "--goal", "0.7", "--epsilon", "0.02",
                       "--samples", "30", "--seed", "9")
    assert payload["passed"] is True
    assert payload["seed"] == 9
    assert payload["samples_per_center"] == 30


def test_verify_extended_needs_covariance(tmp_path, capsys):
    cfg, _ = write_trial_files(tmp_path)
    code, captured = run(capsys, "verify-assumption7", "--beta", "0.1,0.3,0.15",
                         "--config", cfg, "--goal", "0.7", "--epsilon", "0.02",
                         "--samples", "5", "--seed", "9", "--extended")
    assert code == 2
    assert "covariance" in captured.err


# ---------------------------------------------------------------------------
# malformed inputs
# ---------------------------------------------------------------------------

def test_missing_file_is_validation_error(tmp_path, capsys):
    code, captured = run(capsys, "recommend", "--config", tmp_path / "no.json",
                         "--data", tmp_path / "no.csv", "--goal", "0.7")
    assert code == 2


def test_bad_json_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, captured = run(capsys, "simulate", "--config", bad, "--seed", "1")
    assert code == 2
    assert "not valid JSON" in captured.err


def test_config_missing_field_is_validation_error(tmp_path, capsys):
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"name": "x", "true_beta": [0.1, 0.3]}))
    code, captured = run(capsys, "simulate", "--config", partial, "--seed", "1")
    assert code == 2
    assert "missing required field" in captured.err

"""Trial state machine tests: staged ingestion, delegation to the
recommendation solver, final analysis, futility reporting, and resume."""

import dataclasses
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lago.cost import CostFunction
from lago.errors import OutOfOrderStageError
from lago.model import CenterData, StageRecord, _json_fields, fit_binary
from lago.optimizer import (
    GoalSpec,
    Recommendation,
    _state_summary,
    min_cost_subject_to_threshold,
    recommend_from_summary,
    recommend_stage_k,
)
from lago.power import ArmSummary, TestSelector as Selector
from lago.power import final_test as summary_final_test
import lago.trial as trial_module
from lago.trial import (
    PlannedStage,
    TrialConfig,
    TrialState,
    check_futility,
    final_optimal,
    final_test,
    from_document,
    ingest_stage,
    load_state,
    new_trial,
    next_recommendation,
    refit,
    save_state,
    stop_for_futility,
    to_document,
)

CUBIC = CostFunction(terms=(
    (0, 3, 2.0), (0, 2, -1.19), (0, 1, 10.0), (None, 0, 10.0),
    (1, 3, 0.1), (1, 2, -0.2), (1, 1, 2.0),
))
BOUNDS = ((0.0, 2.0), (0.0, 8.0))


def center(arm, package, n, successes):
    y = np.concatenate([np.ones(successes), np.zeros(n - successes)])
    return CenterData(arm=arm, package=np.asarray(package, dtype=float), outcomes=y)


def stage1(successes=(21, 23, 26, 30)):
    s0, sa, sb, sc = successes
    return StageRecord(stage_index=1, centers=[
        center(0, [0.0, 0.0], 40, s0),
        center(1, [1.0, 0.0], 40, sa),
        center(1, [0.0, 4.0], 40, sb),
        center(1, [1.0, 4.0], 40, sc),
    ])


def stage2(x, successes=(20, 28, 29, 31)):
    s0, sa, sb, sc = successes
    return StageRecord(stage_index=2, centers=[
        center(0, [0.0, 0.0], 40, s0),
        center(1, x, 40, sa),
        center(1, x, 40, sb),
        center(1, x, 40, sc),
    ])


def make_config(goals=None):
    goals = goals if goals is not None else GoalSpec(outcome_goal=0.7)
    return TrialConfig(
        stages=(
            PlannedStage(120.0, 40.0, 3, 1),
            PlannedStage(120.0, 40.0, 3, 1),
        ),
        bounds=BOUNDS,
        cost=CUBIC,
        goals=goals,
    )


POWER_GOALS = GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled"))


# ---------------------------------------------------------------------------
# ingestion and status
# ---------------------------------------------------------------------------

def test_two_stages_complete_the_trial():
    state = new_trial(make_config())
    assert state.status == "awaiting-stage-1"
    state = ingest_stage(state, stage1())
    assert state.status == "awaiting-stage-2"
    state = ingest_stage(state, stage2([1.0, 4.0]))
    assert state.status == "complete"


def test_out_of_order_stage_rejected():
    state = new_trial(make_config())
    with pytest.raises(OutOfOrderStageError):
        ingest_stage(state, stage2([1.0, 4.0]))


def test_ingest_after_complete_rejected():
    state = new_trial(make_config())
    state = ingest_stage(state, stage1())
    state = ingest_stage(state, stage2([1.0, 4.0]))
    with pytest.raises(OutOfOrderStageError):
        ingest_stage(state, StageRecord(stage_index=3, centers=[
            center(0, [0.0, 0.0], 10, 5),
        ]))


def test_ingest_is_pure():
    state0 = new_trial(make_config())
    state1 = ingest_stage(state0, stage1())
    assert state0.completed == ()
    assert state0.status == "awaiting-stage-1"
    assert len(state1.completed) == 1


def test_out_of_bounds_package_warns_but_is_kept():
    state = new_trial(make_config())
    rec = StageRecord(stage_index=1, centers=[
        center(0, [0.0, 0.0], 40, 21),
        center(1, [3.0, 9.0], 40, 30),  # outside both bounds
        center(1, [1.0, 0.0], 40, 23),
        center(1, [0.0, 4.0], 40, 26),
    ])
    with pytest.warns(UserWarning, match="outside the configured bounds"):
        state = ingest_stage(state, rec)
    kept = state.completed[0].centers[1].package
    assert kept == pytest.approx([3.0, 9.0])


def test_component_count_mismatch_rejected():
    state = new_trial(make_config())
    bad = StageRecord(stage_index=1, centers=[
        CenterData(arm=0, package=np.array([]), outcomes=np.array([1.0, 0.0])),
    ])
    with pytest.raises(ValueError, match="components"):
        ingest_stage(state, bad)


def test_future_arm_sizes_sums_remaining_stages():
    state = new_trial(make_config())
    assert state.future_arm_sizes(1) == (240.0, 80.0)
    assert state.future_arm_sizes(2) == (120.0, 40.0)
    assert state.future_arm_sizes(3) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_needs_two_stages():
    with pytest.raises(ValueError, match="two planned stages"):
        TrialConfig(
            stages=(PlannedStage(120.0, 40.0),),
            bounds=BOUNDS, cost=CUBIC, goals=GoalSpec(outcome_goal=0.7),
        )


def test_config_cost_component_checked():
    bad = CostFunction(terms=((2, 1, 1.0),))
    with pytest.raises(ValueError, match="component"):
        TrialConfig(
            stages=(PlannedStage(120.0, 40.0), PlannedStage(120.0, 40.0)),
            bounds=BOUNDS, cost=bad, goals=GoalSpec(outcome_goal=0.7),
        )


@pytest.mark.parametrize("bounds", [
    ((0.0, 2.0), (0.0, float("inf"))),
    ((float("-inf"), 2.0), (0.0, 8.0)),
    ((0.0, float("nan")), (0.0, 8.0)),
])
def test_config_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="finite"):
        TrialConfig(
            stages=(PlannedStage(120.0, 40.0), PlannedStage(120.0, 40.0)),
            bounds=bounds, cost=CUBIC, goals=POWER_GOALS,
        )


@pytest.mark.parametrize("sizes", [
    (float("nan"), 40.0), (float("inf"), 40.0), (120.0, float("nan")), (120.0, float("inf")),
])
def test_planned_stage_rejects_non_finite_sizes(sizes):
    with pytest.raises(ValueError, match="finite"):
        PlannedStage(*sizes)
    entry = make_config(POWER_GOALS).to_config()
    entry["stages"][1].update(n_intervention=sizes[0], n_control=sizes[1])
    with pytest.raises(ValueError, match="finite"):
        TrialConfig.from_config(entry)


@pytest.mark.parametrize("link", ["cubic", "logit"])
def test_config_rejects_a_continuous_outcome_link_it_cannot_fit(link):
    with pytest.raises(ValueError, match="continuous outcome_link"):
        TrialConfig(
            stages=(PlannedStage(120.0, 40.0), PlannedStage(120.0, 40.0)),
            bounds=BOUNDS, cost=CUBIC, goals=GoalSpec(outcome_goal=0.7),
            outcome_kind="continuous", outcome_link=link,
        )


@pytest.mark.parametrize("kind, test", [
    ("continuous", "z_unpooled"),
    ("continuous", "wald_pdf_binary"),
    ("binary", "t_pooled"),
    ("binary", "wald_pdf_continuous"),
])
def test_config_rejects_a_goal_test_for_the_other_outcome_kind(kind, test):
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector(test))
    with pytest.raises(ValueError, match=f"test '{test}' does not analyze a {kind} outcome"):
        TrialConfig(
            stages=(PlannedStage(120.0, 40.0), PlannedStage(120.0, 40.0)),
            bounds=BOUNDS, cost=CUBIC, goals=goals, outcome_kind=kind,
        )
    entry = {**make_config().to_config(), "goals": goals.to_config(), "outcome_kind": kind}
    with pytest.raises(ValueError, match="does not analyze"):
        TrialConfig.from_config(entry)


def test_config_round_trip():
    cfg = make_config(POWER_GOALS)
    again = TrialConfig.from_config(cfg.to_config())
    assert again == cfg


# ---------------------------------------------------------------------------
# recommendations
# ---------------------------------------------------------------------------

def test_next_recommendation_delegates_to_solver():
    state = ingest_stage(new_trial(make_config(POWER_GOALS)), stage1())
    rec = next_recommendation(state)
    model = fit_binary(state.completed)
    direct = recommend_stage_k(
        model, state, POWER_GOALS, cost=CUBIC, bounds=BOUNDS, k=2
    )
    assert (rec.x_hat == direct.x_hat).all()
    assert rec.required_threshold == direct.required_threshold
    assert rec.projected_power == direct.projected_power


def test_next_recommendation_memoizes_on_state():
    state = ingest_stage(new_trial(make_config()), stage1())
    first = next_recommendation(state)
    assert next_recommendation(state) is first
    assert state.recommendations == [first]


def test_next_recommendation_requires_data():
    state = new_trial(make_config())
    with pytest.raises(ValueError, match="stage-1 data"):
        next_recommendation(state)


def test_next_recommendation_rejected_when_complete():
    state = new_trial(make_config())
    state = ingest_stage(state, stage1())
    state = ingest_stage(state, stage2([1.0, 4.0]))
    with pytest.raises(ValueError, match="complete"):
        next_recommendation(state)


def test_replay_is_deterministic():
    rec_a = next_recommendation(ingest_stage(new_trial(make_config()), stage1()))
    rec_b = next_recommendation(ingest_stage(new_trial(make_config()), stage1()))
    assert (rec_a.x_hat == rec_b.x_hat).all()
    assert rec_a.cost == rec_b.cost


def test_futile_trial_still_gets_a_recommendation():
    # equal observed rates everywhere: no fitted effect, power stuck at size
    flat = stage1((21, 21, 21, 21))
    state = ingest_stage(new_trial(make_config(POWER_GOALS)), flat)
    futile, best_power = check_futility(state)
    assert futile
    assert best_power == pytest.approx(0.05, abs=0.02)
    rec = next_recommendation(state)  # still returned, regime reports the fallback
    assert rec.regime in ("pmax-fallback", "goal-feasible", "shrinking-fallback")


# ---------------------------------------------------------------------------
# three-stage trials: 1a's 40 per center split 27/27/26
# ---------------------------------------------------------------------------

THREE_STAGE_CONFIG = TrialConfig(
    stages=(
        PlannedStage(81.0, 27.0, 3, 1),
        PlannedStage(81.0, 27.0, 3, 1),
        PlannedStage(78.0, 26.0, 3, 1),
    ),
    bounds=BOUNDS,
    cost=CUBIC,
    goals=POWER_GOALS,
    stage1_package=(1.0, 4.0),
)
# per stage: control successes, then one count per intervention center
THREE_STAGE_SUCCESSES = ((14, 15, 18, 20), (13, 19, 20, 21))


def three_stage_record(k, packages):
    s0, *s1 = THREE_STAGE_SUCCESSES[k - 1]
    return StageRecord(stage_index=k, centers=[center(0, [0.0, 0.0], 27, s0)] + [
        center(1, x, 27, s) for x, s in zip(packages, s1)
    ])


def three_stage_states():
    """States after stage 1 and after stage 2, stage 2 run at the recommendation."""
    probes = ([1.0, 0.0], [0.0, 4.0], [1.0, 4.0])
    after1 = ingest_stage(new_trial(THREE_STAGE_CONFIG), three_stage_record(1, probes))
    x2 = next_recommendation(after1).x_hat
    after2 = ingest_stage(after1, three_stage_record(2, [x2] * 3))
    return after1, after2


def test_three_stage_summary_is_the_hand_sums():
    _, state = three_stage_states()
    x2 = tuple(float(v) for v in state.recommendations[0].x_hat)
    probes = ((1.0, 0.0), (0.0, 4.0), (1.0, 4.0))
    summary = _state_summary(state, POWER_GOALS.test, 3)
    assert summary == ArmSummary(
        n1_obs=6 * 27.0,
        n0_obs=2 * 27.0,
        s1_obs=15.0 + 18 + 20 + 19 + 20 + 21,
        s0_obs=14.0 + 13,
        n1_future=78.0,
        n0_future=26.0,
        design_obs=(((0.0, 0.0), 27.0),) + tuple((x, 27.0) for x in probes)
        + (((0.0, 0.0), 27.0),) + ((x2, 27.0),) * 3,
    )


def test_three_stage_recommendation_is_the_solver_on_the_sums():
    _, state = three_stage_states()
    summary = ArmSummary(
        n1_obs=162.0, n0_obs=54.0, s1_obs=113.0, s0_obs=27.0,
        n1_future=78.0, n0_future=26.0,
        design_obs=_state_summary(state, POWER_GOALS.test, 3).design_obs,
    )
    direct = recommend_from_summary(
        refit(state), summary, POWER_GOALS, CUBIC, BOUNDS,
        THREE_STAGE_CONFIG.stage1_package,
    )
    assert _json_fields(next_recommendation(state)) == _json_fields(direct)


def test_three_stage_save_load_replays_identical_recommendations(tmp_path):
    for state in three_stage_states():
        next_recommendation(state)  # memoizes the next stage's package
        expected = [_json_fields(r) for r in state.recommendations]
        path = tmp_path / f"after{len(state.completed)}.json"
        save_state(state, path)
        loaded = load_state(path)
        assert [_json_fields(r) for r in loaded.recommendations] == expected
        replay = new_trial(loaded.config)
        replayed = []
        for record in loaded.completed:
            replay = ingest_stage(replay, record)
            replayed.append(_json_fields(next_recommendation(replay)))
        assert replayed == expected


def test_three_stage_futility_between_stages_2_and_3():
    _, state = three_stage_states()
    futile, best_power = check_futility(state)
    assert not futile and 0.8 <= best_power < 1.0
    stopped = stop_for_futility(state)
    assert stopped.status == "stopped-futility"
    with pytest.raises(OutOfOrderStageError):
        ingest_stage(stopped, StageRecord(stage_index=3, centers=[
            center(0, [0.0, 0.0], 26, 13),
        ]))


# ---------------------------------------------------------------------------
# futility
# ---------------------------------------------------------------------------

def test_futility_not_triggered_by_strong_effects():
    state = ingest_stage(new_trial(make_config(POWER_GOALS)), stage1())
    futile, best_power = check_futility(state)
    assert not futile
    assert best_power > 0.8


def test_futility_without_power_goal_is_not_applicable():
    state = ingest_stage(new_trial(make_config()), stage1())
    assert check_futility(state) == (False, None)


def test_stop_for_futility_is_monotone():
    state = ingest_stage(new_trial(make_config(POWER_GOALS)), stage1((21, 21, 21, 21)))
    stopped = stop_for_futility(state)
    assert stopped.status == "stopped-futility"
    assert state.status == "awaiting-stage-2"  # original untouched
    with pytest.raises(OutOfOrderStageError):
        ingest_stage(stopped, stage2([1.0, 4.0]))
    with pytest.raises(ValueError):
        next_recommendation(stopped)
    complete = ingest_stage(state, stage2([1.0, 4.0]))
    with pytest.raises(ValueError):
        stop_for_futility(complete)


# ---------------------------------------------------------------------------
# final products
# ---------------------------------------------------------------------------

def complete_state(goals=None):
    state = new_trial(make_config(goals))
    state = ingest_stage(state, stage1())
    return ingest_stage(state, stage2([1.0, 4.0]))


def test_final_optimal_is_all_data_min_cost():
    state = complete_state()
    opt = final_optimal(state)
    model = refit(state)
    direct = min_cost_subject_to_threshold(model, CUBIC, BOUNDS, 0.7)
    assert (opt.x_hat == direct).all()


def test_final_optimal_ignores_power_goal():
    plain = final_optimal(complete_state())
    with_power = final_optimal(complete_state(POWER_GOALS))
    assert (plain.x_hat == with_power.x_hat).all()
    assert plain.required_threshold == with_power.required_threshold


def test_final_optimal_needs_completion_and_goal():
    state = ingest_stage(new_trial(make_config()), stage1())
    with pytest.raises(ValueError, match="complete"):
        final_optimal(state)
    power_only = GoalSpec(power_goal=0.8, test=Selector("z_unpooled"))
    with pytest.raises(ValueError, match="outcome goal"):
        final_optimal(complete_state(power_only))


def test_final_test_matches_summary_form():
    state = complete_state()
    result = final_test(state, Selector("z_unpooled"))
    summary = ArmSummary.from_records(state.completed)
    direct = summary_final_test(summary, Selector("z_unpooled"))
    assert result.statistic == direct.statistic
    assert result.p_value == direct.p_value
    assert result.reject == direct.reject


def test_final_test_default_test_from_goals():
    state = complete_state(POWER_GOALS)
    assert final_test(state).kind == "z_unpooled"


def test_final_test_wald_refits():
    state = complete_state()
    result = final_test(state, Selector("wald_pdf_binary"))
    assert result.df == 2
    assert 0.0 <= result.p_value <= 1.0


def test_final_test_requires_completion():
    state = ingest_stage(new_trial(make_config()), stage1())
    with pytest.raises(ValueError, match="complete"):
        final_test(state, Selector("z_unpooled"))


# ---------------------------------------------------------------------------
# the refit stored on a state
# ---------------------------------------------------------------------------

def counting_fits(monkeypatch):
    calls = []

    def counted(records):
        calls.append(records)
        return fit_binary(records)

    monkeypatch.setattr(trial_module, "fit_binary", counted)
    return calls


def test_refit_returns_the_stored_model(monkeypatch):
    calls = counting_fits(monkeypatch)
    state = complete_state()
    assert refit(state) is refit(state)
    final_optimal(state)
    final_test(state, Selector("wald_pdf_binary"))
    check_futility(state)
    assert len(calls) == 1


def test_refit_fits_each_new_state_afresh(monkeypatch):
    calls = counting_fits(monkeypatch)
    first = ingest_stage(new_trial(make_config()), stage1())
    model1 = refit(first)
    second = ingest_stage(first, stage2([1.0, 4.0]))
    model2 = refit(second)
    assert len(calls) == 2 and model2 is not model1
    assert refit(first) is model1
    loaded = from_document(to_document(second))
    reloaded = refit(loaded)
    assert len(calls) == 3 and reloaded is not model2
    assert np.array_equal(reloaded.beta, model2.beta)
    second.completed = tuple(list(second.completed))  # an equal, new tuple
    assert refit(second) is not model2 and len(calls) == 4


def test_refit_memo_leaves_documents_and_equality_alone():
    state, twin = complete_state(), complete_state()
    document = to_document(state)
    refit(state)
    assert to_document(state) == document
    assert state == twin and twin == state
    assert repr(state) == repr(twin)
    with pytest.raises(TypeError):
        TrialState(config=state.config, _fit=None)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_document_round_trip(tmp_path):
    state = ingest_stage(new_trial(make_config(POWER_GOALS)), stage1())
    rec = next_recommendation(state)
    path = tmp_path / "trial.json"
    save_state(state, path)
    loaded = load_state(path)
    assert loaded.status == state.status
    assert loaded.config == state.config
    assert len(loaded.completed) == 1
    orig = state.completed[0].centers[0]
    back = loaded.completed[0].centers[0]
    assert (orig.size, orig.outcome_sum, orig.m2) == (back.size, back.outcome_sum, back.m2)
    assert np.array_equal(orig.package, back.package)
    assert (loaded.recommendations[0].x_hat == rec.x_hat).all()
    # the memo survives the round trip: no recompute, same answer
    resumed = next_recommendation(loaded)
    assert (resumed.x_hat == rec.x_hat).all()


def test_resume_continues_the_trial():
    state = ingest_stage(new_trial(make_config()), stage1())
    loaded = from_document(to_document(state))
    loaded = ingest_stage(loaded, stage2([1.0, 4.0]))
    assert loaded.status == "complete"
    assert final_optimal(loaded).regime in (
        "goal-feasible", "pmax-fallback", "shrinking-fallback"
    )


def test_document_version_checked():
    doc = to_document(new_trial(make_config()))
    doc["version"] = 99
    with pytest.raises(ValueError, match="version"):
        from_document(doc)
    doc = to_document(new_trial(make_config()))
    doc["format"] = "something-else"
    with pytest.raises(ValueError, match="document"):
        from_document(doc)


def _after_stage1_doc():
    state = ingest_stage(new_trial(make_config(POWER_GOALS)), stage1())
    next_recommendation(state)
    return to_document(state)


def _mark_complete(doc):
    doc["status"] = "complete"


def _skip_stage_index(doc):
    doc["completed"][0]["stage_index"] = 2
    doc["status"] = "awaiting-stage-2"


def _extra_recommendation(doc):
    doc["recommendations"].append(dict(doc["recommendations"][0]))


def _stage_beyond_plan(doc):
    extra = [dict(doc["completed"][0], stage_index=k) for k in (2, 3)]
    doc["completed"].extend(extra)
    doc["status"] = "complete"


@pytest.mark.parametrize("edit", [
    _mark_complete, _skip_stage_index, _extra_recommendation, _stage_beyond_plan,
])
def test_document_with_inconsistent_state_is_rejected(edit):
    doc = _after_stage1_doc()
    from_document(doc)
    edit(doc)
    with pytest.raises(ValueError):
        from_document(doc)


def _drop_status(doc):
    del doc["status"]


def _drop_planned_stages(doc):
    del doc["config"]["stages"]


def _unknown_stage_key(doc):
    doc["config"]["stages"][0]["n_treated"] = 5


def _unknown_goal_key(doc):
    doc["config"]["goals"]["target"] = 0.7


def _null_completed(doc):
    doc["completed"] = None


def _config_not_object(doc):
    doc["config"] = [doc["config"]]


def _first_center(doc):
    return doc["completed"][0]["centers"][0]


def _center_m2_missing(doc):
    del _first_center(doc)["m2"]


def _center_size_zero(doc):
    _first_center(doc)["size"] = 0


def _center_size_fractional(doc):
    _first_center(doc)["size"] = 2.5


def _center_m2_negative(doc):
    _first_center(doc)["m2"] = -1.0


def _center_sum_nan(doc):
    _first_center(doc)["outcome_sum"] = float("nan")


def _binary_sum_above_size(doc):
    _first_center(doc)["outcome_sum"] = _first_center(doc)["size"] + 1.0


@pytest.mark.parametrize("edit", [
    _drop_status, _drop_planned_stages, _unknown_stage_key, _unknown_goal_key,
    _null_completed, _config_not_object, _center_m2_missing, _center_size_zero,
    _center_size_fractional, _center_m2_negative, _center_sum_nan,
    _binary_sum_above_size,
])
def test_malformed_document_is_value_error(edit, tmp_path):
    doc = _after_stage1_doc()
    edit(doc)
    with pytest.raises(ValueError):
        from_document(doc)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_state(path)


# What to_document wrote before version 2: one outcome list per center.
STATE_V1 = """{"format": "lago-trial-state", "version": 1, "config": {"stages": [
{"n_intervention": 120.0, "n_control": 40.0, "centers_intervention": 3, "centers_control": 1},
{"n_intervention": 120.0, "n_control": 40.0, "centers_intervention": 3, "centers_control": 1}],
"bounds": [[0.0, 2.0], [0.0, 8.0]], "cost": [[1, 3, 2.0], [1, 2, -1.19], [1, 1, 10.0],
[null, 0, 10.0], [2, 3, 0.1], [2, 2, -0.2], [2, 1, 2.0]], "goals": {"outcome_goal": 0.7,
"direction": "increase", "power_goal": 0.8, "alpha": 0.05, "approach": "unconditional",
"test": "z_unpooled", "conditional_scale": "sd"}, "outcome_kind": "binary",
"outcome_link": "identity"}, "completed": [{"stage_index": 1, "centers": [
{"arm": 0, "package": [0.0, 0.0], "outcomes":
[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
{"arm": 1, "package": [1.0, 0.0], "outcomes":
[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
{"arm": 1, "package": [0.0, 4.0], "outcomes":
[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]},
{"arm": 1, "package": [1.0, 4.0], "outcomes":
[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]}]}],
"recommendations": [], "status": "awaiting-stage-2"}"""


def test_version_1_document_loads_as_its_version_2_resave():
    v1 = from_document(json.loads(STATE_V1))
    resaved = json.loads(json.dumps(to_document(v1)))
    assert resaved["version"] == 2
    assert "outcomes" not in resaved["completed"][0]["centers"][0]
    v2 = from_document(resaved)
    stats = [(c.size, c.outcome_sum, c.m2) for c in v1.completed[0].centers]
    assert stats == [(c.size, c.outcome_sum, c.m2) for c in v2.completed[0].centers]
    assert [(n, s) for n, s, _ in stats] == [(12, 6.0), (12, 7.0), (12, 8.0), (12, 9.0)]
    rec1, rec2 = next_recommendation(v1), next_recommendation(v2)
    assert np.array_equal(rec1.x_hat, rec2.x_hat)
    assert (rec1.regime, rec1.cost) == (rec2.regime, rec2.cost)
    # what the last version-1 code recommended from this document
    assert rec1.x_hat == pytest.approx([0.6982724, 4.17489094], rel=1e-6)


def test_non_object_document_is_value_error():
    with pytest.raises(ValueError, match="malformed"):
        from_document([_after_stage1_doc()])


_outcomes = st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=6)
_packages = st.tuples(
    st.floats(0.0, 2.0, allow_nan=False), st.floats(0.0, 8.0, allow_nan=False)
)


@st.composite
def trial_states(draw):
    config = make_config(POWER_GOALS)
    n_done = draw(st.integers(0, config.n_stages))
    completed = tuple(
        StageRecord(stage_index=k, centers=[
            CenterData(arm=0, package=np.zeros(2), outcomes=draw(_outcomes)),
            CenterData(arm=1, package=np.array(draw(_packages)),
                       outcomes=draw(_outcomes)),
        ])
        for k in range(1, n_done + 1)
    )
    recommendations = [
        Recommendation(
            x_hat=np.array(draw(_packages)),
            regime=draw(st.sampled_from(
                ["goal-feasible", "pmax-fallback", "shrinking-fallback"]
            )),
            achieved_outcome=draw(st.floats(0.0, 1.0)),
            required_threshold=draw(st.floats(0.0, 1.0)),
            projected_power=draw(st.none() | st.floats(0.0, 1.0)),
            cost=draw(st.floats(0.0, 1e4)),
        )
        for _ in range(draw(st.integers(0, n_done)))
    ]
    if n_done == config.n_stages:
        status = "complete"
    else:
        status = draw(st.sampled_from(
            [f"awaiting-stage-{n_done + 1}", "stopped-futility"]
        ))
    return TrialState(config, completed, recommendations, status)


@settings(max_examples=40, deadline=None)
@given(trial_states())
def test_save_load_round_trip(state):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trial.json"
        save_state(state, path)
        loaded = load_state(path)
    assert loaded.config == state.config
    assert loaded.status == state.status
    assert len(loaded.completed) == len(state.completed)
    for back, orig in zip(loaded.completed, state.completed):
        assert back.stage_index == orig.stage_index
        assert len(back.centers) == len(orig.centers)
        for cb, co in zip(back.centers, orig.centers):
            assert cb.arm == co.arm
            assert np.array_equal(cb.package, co.package)
            assert (cb.size, cb.outcome_sum, cb.m2) == (co.size, co.outcome_sum, co.m2)
    assert len(loaded.recommendations) == len(state.recommendations)
    for back, orig in zip(loaded.recommendations, state.recommendations):
        assert np.array_equal(back.x_hat, orig.x_hat)
        for name in ("regime", "achieved_outcome", "required_threshold",
                     "projected_power", "cost"):
            assert getattr(back, name) == getattr(orig, name)


def test_document_is_json_clean():
    state = ingest_stage(new_trial(make_config(POWER_GOALS)), stage1())
    next_recommendation(state)
    text = json.dumps(to_document(state))
    assert "lago-trial-state" in text


# ---------------------------------------------------------------------------
# planned center counts and the out-of-bounds warning
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count", [float("nan"), float("inf"), 2.5, -0.5, "3", None])
def test_planned_stage_rejects_non_integer_center_counts(count):
    with pytest.raises(ValueError, match="center counts"):
        PlannedStage(120.0, 40.0, count, 1)
    with pytest.raises(ValueError, match="center counts"):
        PlannedStage(120.0, 40.0, 3, count)
    entry = make_config(POWER_GOALS).to_config()
    entry["stages"][1]["centers_control"] = count
    with pytest.raises(ValueError, match="center counts"):
        TrialConfig.from_config(entry)


@pytest.mark.parametrize("count", [float("nan"), 2.5, "3"])
def test_state_document_rejects_non_integer_center_counts(count, tmp_path):
    doc = _after_stage1_doc()
    doc["config"]["stages"][0]["centers_intervention"] = count
    with pytest.raises(ValueError, match="center counts"):
        from_document(doc)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="center counts"):
        load_state(path)


def test_planned_stage_keeps_integral_center_counts_as_int():
    stage = PlannedStage(120.0, 40.0, 3.0, np.int64(1))
    assert (stage.centers_intervention, stage.centers_control) == (3, 1)
    assert type(stage.centers_intervention) is int and type(stage.centers_control) is int
    with pytest.raises(ValueError, match="nonnegative"):
        PlannedStage(120.0, 40.0, -1, 1)


def _stage1_with(package):
    return StageRecord(stage_index=1, centers=[
        center(0, [0.0, 0.0], 40, 21),
        center(1, package, 40, 30),
        center(1, [1.0, 0.0], 40, 23),
    ])


@pytest.mark.parametrize("package, warns", [
    ([2.0, 8.0], False),
    ([0.0, 0.0], False),
    ([2.0 + 1e-12, 4.0], True),
    ([1.0, -1e-300], True),
    ([float("nan"), 4.0], False),
    ([float("nan"), 9.0], True),
    ([float("nan"), float("nan")], False),
    ([float("inf"), 4.0], True),
])
def test_out_of_bounds_warning_and_nan_packages(package, warns):
    state = new_trial(make_config())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ingest_stage(state, _stage1_with(package))
    hits = [w for w in caught if "outside the configured bounds" in str(w.message)]
    assert len(hits) == int(warns)

"""Monte Carlo harness tests: determinism, parallel/serial agreement,
failure accounting, the deployment convention, and the retrospective
power helper."""

import dataclasses

import numpy as np
import pytest

import lago.sim as sim_module
import lago.trial as trial_module
from lago.optimizer import GoalSpec, min_cost_subject_to_threshold
from lago.power import TestSelector as Selector
from lago.sim import (
    BETTERBIRTH_BOUNDS,
    BETTERBIRTH_COST,
    MetricsReport,
    ScenarioSpec,
    StagePlan,
    _deployed_packages,
    _trial_config,
    betterbirth_model,
    betterbirth_power,
    betterbirth_summary,
    null_variant,
    run_scenario,
    scenario_1a,
    scenario_1b,
    scenario_2a,
    scenario_2b,
    true_optimum,
)

SEED = 424242


def small(spec_fn, reps=12, **kw):
    return spec_fn(n_per_center=40, replicates=reps, **kw)


# ---------------------------------------------------------------------------
# reproducibility


def test_same_seed_same_report():
    spec = small(scenario_1a)
    a = run_scenario(spec, seed=SEED)
    b = run_scenario(spec, seed=SEED)
    assert a.to_dict() == b.to_dict()


def test_different_seed_different_results():
    spec = small(scenario_1a, reps=30)
    a = run_scenario(spec, seed=SEED)
    b = run_scenario(spec, seed=SEED + 1)
    assert a.power_pct != b.power_pct or a.rel_bias_pct != b.rel_bias_pct


def three_stage(spec):
    """The same design with its 40 per center split 27/27/26 over three stages."""
    first = dataclasses.replace(spec.stages[0], n_per_center=27)
    return dataclasses.replace(
        spec, stages=(first, StagePlan(1, 3, 27), StagePlan(1, 3, 26))
    )


def test_parallel_matches_serial_bitwise():
    two_stage = small(scenario_1a, reps=10)
    for spec in (two_stage, three_stage(two_stage)):
        serial = run_scenario(spec, seed=SEED, threads=1)
        parallel = run_scenario(spec, seed=SEED, threads=2)
        assert serial.to_dict() == parallel.to_dict()


def test_parallel_matches_serial_bitwise_with_a_power_goal():
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("z_pooled"))
    spec = small(scenario_1a, reps=30, goals=goals)
    serial = run_scenario(spec, seed=7, threads=1)
    parallel = run_scenario(spec, seed=7, threads=2)
    assert serial.to_dict() == parallel.to_dict()


def test_parallel_matches_serial_bitwise_across_blocks(monkeypatch):
    # Blocks of 7 lanes shared by two processes: each stage's batched
    # decisions are split across blocks and processes.
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.8, approach="conditional",
                     test=Selector("z_unpooled"))
    two_stage = small(scenario_1a, reps=30, goals=goals)
    monkeypatch.setattr(sim_module, "BLOCK_LANES", 7)
    for spec in (two_stage, three_stage(two_stage)):
        serial = run_scenario(spec, seed=SEED, threads=1)
        parallel = run_scenario(spec, seed=SEED, threads=2)
        assert serial.to_dict() == parallel.to_dict()


def test_block_size_does_not_change_the_report(monkeypatch):
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.8, approach="conditional",
                     test=Selector("z_pooled"))
    two_stage = small(scenario_1a, reps=30, goals=goals)
    for spec in (two_stage, three_stage(two_stage)):
        default = run_scenario(spec, seed=SEED, threads=1).to_dict()
        with monkeypatch.context() as patch:
            patch.setattr(sim_module, "BLOCK_LANES", 7)
            blocks = []
            real = sim_module._simulate_block
            patch.setattr(sim_module, "_simulate_block",
                          lambda *args: blocks.append(len(args[2])) or real(*args))
            assert run_scenario(spec, seed=SEED, threads=1).to_dict() == default
        assert blocks == [7, 7, 7, 7, 2]


def counting_fits(monkeypatch):
    """Lanes per stacked-kernel call made by the engine, and single-lane
    ``fit_binary`` calls made through ``refit``."""
    stacked, single = [], []
    real_stack, real_single = sim_module._fit_binary_stack, trial_module.fit_binary
    monkeypatch.setattr(
        sim_module, "_fit_binary_stack", lambda X, *rest: stacked.append(len(X)) or real_stack(X, *rest)
    )
    monkeypatch.setattr(
        trial_module, "fit_binary", lambda records: single.append(1) or real_single(records)
    )
    return stacked, single


def test_two_stage_replicate_fits_twice(monkeypatch):
    # one fit on stage 1 for the recommendation, one on both stages shared by
    # the estimates, the Wald final test and the final package
    stacked, single = counting_fits(monkeypatch)
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("wald_pdf_binary"))
    report = run_scenario(small(scenario_1a, reps=1, goals=goals), seed=7, threads=1)
    assert report.n_used == 1, report.failure_kinds
    assert report.mean_recommendation is not None and report.opt_rel_bias_pct is not None
    assert stacked == [1, 1] and single == []


def test_replicate_block_fits_each_stage_in_one_kernel_call(monkeypatch):
    stacked, single = counting_fits(monkeypatch)
    report = run_scenario(small(scenario_1a, reps=50), seed=SEED, threads=1)
    assert report.failures == 0, report.failure_kinds
    assert stacked == [50, 50] and single == []


@pytest.mark.parametrize("threads", [2.5, True, 0, -1])
def test_thread_count_must_be_a_positive_integer(threads):
    with pytest.raises(ValueError, match="threads"):
        run_scenario(small(scenario_1a, reps=2), seed=SEED, threads=threads)


def test_the_thread_count_is_not_read_from_the_environment(monkeypatch):
    spec = small(scenario_1a, reps=6)
    serial = run_scenario(spec, seed=SEED, threads=1).to_dict()

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setenv("LAGO_THREADS", "3")
    monkeypatch.setattr(sim_module, "ProcessPoolExecutor", no_pool)
    assert run_scenario(spec, seed=SEED).to_dict() == serial


@pytest.mark.parametrize("cpus, workers, blocks", [(2, [2], [20, 20]), (None, [], [40])])
def test_worker_processes_are_at_most_the_cpu_count(monkeypatch, cpus, workers, blocks):
    requested, sizes = [], []

    class RecordingPool:
        """Records the ``max_workers`` asked for and runs the blocks in this
        process, so no process is started."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    spec = small(scenario_1a, reps=40)
    serial = run_scenario(spec, seed=SEED, threads=1).to_dict()
    real = sim_module._simulate_block
    monkeypatch.setattr(sim_module, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sim_module.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(sim_module, "_simulate_block",
                        lambda *args: sizes.append(len(args[2])) or real(*args))
    assert run_scenario(spec, seed=SEED, threads=10_000).to_dict() == serial
    assert requested == workers and sizes == blocks


def test_seed_argument_overrides_spec_seed():
    spec = small(scenario_1a, reps=8, seed=7)
    assert run_scenario(spec).seed == 7
    assert run_scenario(spec, seed=SEED).seed == SEED


def test_missing_seed_rejected():
    spec = small(scenario_1a, reps=4)
    with pytest.raises(ValueError):
        run_scenario(spec)


def test_config_round_trip_reproduces_run():
    spec = small(scenario_2b, reps=10)
    clone = ScenarioSpec.from_config(spec.to_config())
    assert clone == spec
    assert run_scenario(clone, seed=SEED).to_dict() == \
        run_scenario(spec, seed=SEED).to_dict()


# ---------------------------------------------------------------------------
# deployment convention


def test_deploy_step_rounds_recommendation_up():
    spec = scenario_1a(replicates=2)
    # one lane per row; exact multiples stay put, the cap is the upper bound
    got = _deployed_packages(spec, [(0.48, 3.13), (0.5, 4.0), (1.2, 7.4)])
    assert got.tolist() == [[0.48, 4.0], [0.5, 4.0], [1.2, 8.0]]


def test_deploy_step_none_is_identity():
    spec = scenario_1a(replicates=2)
    bare = ScenarioSpec.from_config({**spec.to_config(), "deploy_step": None})
    x = (0.481, 3.135)
    assert _deployed_packages(bare, [x]).tolist() == [list(x)]


def test_deploy_step_validation():
    spec = scenario_1a(replicates=2)
    with pytest.raises(ValueError):
        ScenarioSpec.from_config({**spec.to_config(), "deploy_step": [1.0]})
    with pytest.raises(ValueError):
        ScenarioSpec.from_config({**spec.to_config(), "deploy_step": [0.0, 1.0]})


@pytest.mark.parametrize("field", ["name", "goals", "stages"])
def test_scenario_config_missing_field_is_value_error(field):
    doc = scenario_1a(replicates=2).to_config()
    del doc[field]
    with pytest.raises(ValueError, match=f"missing required field '{field}'"):
        ScenarioSpec.from_config(doc)


@pytest.mark.parametrize("field, value, message", [
    ("true_beta", (0.1, float("nan"), 0.15), "true_beta must be finite"),
    ("true_beta", (0.1, 0.3, float("inf")), "true_beta must be finite"),
    ("outcome_link", "logit", "outcome_link must be one of"),
    ("replicates", 2.5, "replicates must be an integer"),
    ("replicates", True, "replicates must be an integer"),
    ("rng_seed", 1.5, "rng_seed must be an integer"),
    ("rng_seed", True, "rng_seed must be an integer"),
    ("rng_seed", -1, "rng_seed must be an integer >= 0"),
    ("bounds", ((2.0, 0.0), (0.0, 8.0)), "must not exceed its upper bound"),
    ("bounds", ((0.0, 2.0), (0.0, float("inf"))), "bounds must be finite"),
    ("bounds", ((0.0, float("nan")), (0.0, 8.0)), "bounds must be finite"),
    ("outcome_sigma", float("inf"), "outcome_sigma must be positive and finite"),
    ("outcome_sigma", float("nan"), "outcome_sigma must be positive and finite"),
    ("deploy_step", (None, float("inf")), "deploy_step entries must be positive and finite"),
    ("stage1_fallback_x", (1.0, float("nan")), "stage1_fallback_x must be finite"),
    ("stage1_fallback_x", (float("inf"), 4.0), "stage1_fallback_x must be finite"),
])
def test_scenario_rejects_bad_input_when_built(field, value, message):
    spec = scenario_1a(replicates=2)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(spec, **{field: value})


@pytest.mark.parametrize("replicates", [2**32, np.int64(2**32), 2**40])
def test_replicates_must_fit_one_spawn_key_word(replicates):
    with pytest.raises(ValueError, match=r"replicates must be below 2\*\*32"):
        dataclasses.replace(scenario_1a(replicates=2), replicates=replicates)
    assert dataclasses.replace(scenario_1a(replicates=2), replicates=2**32 - 1).replicates == 2**32 - 1


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(rng_seed=1.5), "rng_seed must be an integer"),
    (lambda doc: doc.update(replicates=True), "replicates must be an integer"),
    (lambda doc: doc["stages"][0].update(n_per_center=True), "n_per_center must be an integer"),
])
def test_scenario_config_integers_are_never_truncated_or_bools(edit, message):
    doc = scenario_1a(replicates=2).to_config()
    edit(doc)
    with pytest.raises(ValueError, match=message):
        ScenarioSpec.from_config(doc)


@pytest.mark.parametrize("seed", [1.7, True, -1, "3"])
def test_run_scenario_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_scenario(small(scenario_1a, reps=2), seed=seed, threads=1)


def test_run_scenario_takes_a_numpy_integer_seed():
    spec = small(scenario_1a, reps=4)
    report = run_scenario(spec, seed=np.int64(SEED), threads=1)
    assert report.to_dict() == run_scenario(spec, seed=SEED, threads=1).to_dict()


def test_a_goal_test_for_the_other_outcome_kind_is_refused_before_any_draw():
    # The spec is valid on its own (a later replace may switch the goal too);
    # the run refuses it when it builds the trial config.
    spec = dataclasses.replace(scenario_2b(replicates=30, seed=3),
                               outcome_kind="continuous", outcome_sigma=8.0)
    with pytest.raises(ValueError, match="test 'z_unpooled' does not analyze a continuous"):
        run_scenario(spec, threads=1)


def test_stage_plan_rejects_non_finite_probe_packages():
    with pytest.raises(ValueError, match="probe packages must be finite"):
        StagePlan(1, 2, 40, ((1.0, 0.0), (0.0, float("inf"))))


NO_CONTROL = (StagePlan(0, 3, 40, ((1.0, 0.0), (0.0, 4.0), (1.0, 4.0))), StagePlan(0, 3, 40))


@pytest.mark.parametrize("goals", [
    GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled")),
    GoalSpec(outcome_goal=0.7),
], ids=["power-goal", "outcome-only"])
def test_a_layout_without_a_control_center_is_refused(goals):
    # With a power goal the run divided by the empty control arm; without
    # one it drew and fit every stage before its final test refused.
    with pytest.raises(ValueError, match="needs a control center in some stage"):
        dataclasses.replace(scenario_1a(replicates=5, goals=goals), stages=NO_CONTROL)
    late = (NO_CONTROL[0], StagePlan(1, 3, 40))
    assert dataclasses.replace(scenario_1a(replicates=5, goals=goals), stages=late).stages == late


def _continuous_power_1a() -> ScenarioSpec:
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.8, approach="conditional",
                     test=Selector("t_unpooled"))
    return dataclasses.replace(scenario_1a(n_per_center=50, replicates=5, goals=goals),
                               outcome_kind="continuous", outcome_sigma=8.0)


@pytest.mark.parametrize("arm, first", [
    ("control", StagePlan(0, 3, 50, ((1.0, 0.0), (0.0, 4.0), (1.0, 4.0)))),
    ("intervention", StagePlan(2, 0, 50, ())),
])
def test_a_continuous_power_goal_needs_both_arms_before_a_decision(arm, first):
    # Without a control center before stage 2 the run drew and fit stage 1,
    # then raised out of the stage-2 decision ("continuous projections need
    # var0_obs"); the power formulas also read the intervention arm's
    # variance.  Binary specs take the control rate from the model, and an
    # outcome goal alone reads no variance: both stay accepted.
    spec = _continuous_power_1a()
    stages = (first,) + spec.stages[1:]
    with pytest.raises(ValueError, match=f"stage 2 deploys a recommendation under a "
                                         f"continuous power goal, but no stage before it "
                                         f"has a {arm} center"):
        dataclasses.replace(spec, stages=stages)
    for accepted in (dataclasses.replace(spec, outcome_kind="binary"),
                     dataclasses.replace(spec, goals=GoalSpec(outcome_goal=12.0))):
        assert dataclasses.replace(accepted, stages=stages).stages == stages


def test_stage_plan_rejects_fractional_center_size():
    with pytest.raises(ValueError, match="n_per_center must be an integer"):
        StagePlan(n_control_centers=1, n_intervention_centers=1, n_per_center=40.5)
    doc = scenario_1a(replicates=2).to_config()
    doc["stages"][0]["n_per_center"] = 40.5
    with pytest.raises(ValueError, match="n_per_center"):
        ScenarioSpec.from_config(doc)


def test_stage1_anchor_reaches_trial_config():
    spec = scenario_1a(replicates=2)
    assert _trial_config(spec).stage1_package == (1.0, 4.0)


# ---------------------------------------------------------------------------
# aggregate behaviour


def test_null_scenario_rejects_at_about_alpha():
    spec = null_variant(scenario_1a(n_per_center=40, replicates=400))
    rep = run_scenario(spec, seed=SEED)
    assert rep.failures == 0
    assert 1.5 < rep.power_pct < 9.0


def test_effect_scenario_rejects_much_more_than_null():
    spec = scenario_1a(n_per_center=40, replicates=120)
    rep = run_scenario(spec, seed=SEED)
    assert rep.power_pct > 40.0


def test_failures_are_counted_and_excluded():
    spec = scenario_1a(n_per_center=2, replicates=40)
    rep = run_scenario(spec, seed=SEED)
    assert rep.n_used + rep.failures == 40
    assert rep.failures > 0
    assert sum(rep.failure_kinds.values()) == rep.failures


def test_factorial_repeat_runs_and_reports():
    spec = small(scenario_2b, reps=10)
    rep = run_scenario(spec, seed=SEED)
    assert rep.n_used == 10
    # the comparator design never optimizes, so there is no recommendation
    assert rep.power_pct is not None


def test_true_optimum_matches_direct_solve():
    spec = scenario_1a(replicates=2)
    from lago.sim import _true_model

    x = min_cost_subject_to_threshold(
        _true_model(spec), spec.cost, spec.bounds, 0.7, "increase"
    )
    np.testing.assert_allclose(true_optimum(spec), x)
    np.testing.assert_allclose(x, [0.5016, 3.9789], atol=5e-4)


def test_propt_quantiles_ordered():
    spec = scenario_1a(n_per_center=40, replicates=30)
    rep = run_scenario(spec, seed=SEED)
    assert rep.propt_q2p5 <= rep.propt_q97p5


def test_metrics_csv_row_matches_header():
    spec = small(scenario_1a, reps=6)
    rep = run_scenario(spec, seed=SEED)
    assert len(rep.csv_row()) == len(rep.csv_header())


def test_csv_header_depends_only_on_the_component_count():
    # A run whose replicates all fail, and a design that never optimizes,
    # leave the package metrics empty but keep their columns.
    completed = run_scenario(small(scenario_1a, reps=6), seed=SEED)
    failed = run_scenario(dataclasses.replace(scenario_1a(replicates=4),
                                              true_beta=(30.0, 0.3, 0.15)), seed=3)
    repeat = run_scenario(small(scenario_2b, reps=6), seed=SEED)
    assert completed.n_used == 6 and failed.n_used == 0 and repeat.opt_rel_bias_pct is None
    header = completed.csv_header()
    assert len(header) == 19 and "opt_rel_bias_pct_x2" in header
    for rep in (failed, repeat):
        assert rep.csv_header() == header
        assert len(rep.csv_row()) == len(header)
    cells = dict(zip(header, repeat.csv_row()))
    assert cells["opt_rel_bias_pct_x1"] == cells["opt_rel_bias_pct_x2"] == ""


def _shift_second_component(stage, center, x):
    out = np.asarray(x, dtype=float).copy()
    out[1] = min(out[1] + 1.0, 8.0)
    return out


def test_distortion_hook_changes_results_deterministically():
    base = small(scenario_1a, reps=25)
    import dataclasses

    warped = dataclasses.replace(base, distortion=_shift_second_component)
    plain = run_scenario(base, seed=SEED)
    a = run_scenario(warped, seed=SEED)
    b = run_scenario(warped, seed=SEED)
    assert a.to_dict() == b.to_dict()
    assert a.to_dict() != plain.to_dict()
    with pytest.raises(ValueError):
        warped.to_config()


def test_sandwich_covariance_source_runs():
    import dataclasses

    spec = dataclasses.replace(small(scenario_1a, reps=15), se_source="sandwich")
    rep = run_scenario(spec, seed=SEED)
    assert rep.n_used == 15
    assert np.isfinite(rep.cp95_pct).all()


# ---------------------------------------------------------------------------
# retrospective power helper


def test_betterbirth_power_orders_packages():
    model = betterbirth_model("stages12")
    layout = betterbirth_summary()
    lo = betterbirth_power(model, layout, (21.18, 1.0), replicates=2000, seed=SEED)
    hi = betterbirth_power(model, layout, (26.65, 1.0), replicates=2000, seed=SEED)
    assert hi > lo


def test_betterbirth_power_conservative_under_null_contrast():
    # A visits/launch combination whose modeled effect cancels exactly, with
    # the observed arm difference flattened too.  Freezing the completed
    # stages removes most of the variance the z denominator assumes, so the
    # rejection rate must sit well below the nominal level.
    model = betterbirth_model("all")
    beta = model.beta
    x2 = 1.0
    x1 = -beta[2] * x2 / beta[1]
    layout = betterbirth_summary()
    import dataclasses

    flat = dataclasses.replace(
        layout,
        s1_obs=layout.n1_obs * 0.148,
        s0_obs=layout.n0_obs * 0.148,
    )
    rate = betterbirth_power(model, flat, (x1, x2), replicates=4000, seed=SEED)
    assert rate <= 0.05


def test_betterbirth_power_matches_exact_enumeration():
    # With the completed stages frozen, the rejection event depends only on
    # the two future binomial draws, so the exact probability is a finite
    # double sum over their supports.
    scipy_stats = pytest.importorskip("scipy.stats")
    from lago.model import predict as model_predict
    from lago.model import link_inverse as model_link_inverse
    from lago.power import norm_quantile as nq

    model = betterbirth_model("stages12")
    layout = betterbirth_summary()
    x = (26.65, 1.0)
    p1 = model_predict(model, x)
    p0 = float(model_link_inverse(model.link, model.beta[0]))
    n1f, n0f = int(layout.n1_future), int(layout.n0_future)
    N1, N0 = layout.n1_obs + n1f, layout.n0_obs + n0f
    s1 = layout.s1_obs + np.arange(n1f + 1)
    s0 = layout.s0_obs + np.arange(n0f + 1)
    r1, r0 = (s1 / N1)[:, None], (s0 / N0)[None, :]
    var = r1 * (1 - r1) / N1 + r0 * (1 - r0) / N0
    with np.errstate(invalid="ignore", divide="ignore"):
        z = np.where(var > 0, (r1 - r0) / np.sqrt(var), 0.0)
    w1 = scipy_stats.binom.pmf(np.arange(n1f + 1), n1f, p1)[:, None]
    w0 = scipy_stats.binom.pmf(np.arange(n0f + 1), n0f, p0)[None, :]
    exact = float(((np.abs(z) > nq(0.975)) * w1 * w0).sum())

    mc = betterbirth_power(model, layout, x, replicates=4000, seed=SEED)
    se = np.sqrt(exact * (1 - exact) / 4000)
    assert abs(mc - exact) < 4 * se + 1e-9


@pytest.mark.parametrize("name, value", [
    ("seed", 1.5), ("seed", True), ("seed", -1), ("replicates", 2.5), ("replicates", True),
    ("replicates", 0),
])
def test_betterbirth_power_refuses_a_count_that_is_not_a_whole_number(name, value):
    model, layout = betterbirth_model("all"), betterbirth_summary()
    args = {"replicates": 50, "seed": SEED, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        betterbirth_power(model, layout, (21.18, 1.0), **args)


def test_betterbirth_power_takes_numpy_integers():
    model, layout = betterbirth_model("all"), betterbirth_summary()
    want = betterbirth_power(model, layout, (21.18, 1.0), replicates=200, seed=SEED)
    assert betterbirth_power(model, layout, (21.18, 1.0), replicates=np.int64(200),
                             seed=np.int64(SEED)) == want


def test_betterbirth_power_deterministic():
    model = betterbirth_model("stages12")
    layout = betterbirth_summary()
    a = betterbirth_power(model, layout, (21.18, 1.0), replicates=500, seed=SEED)
    b = betterbirth_power(model, layout, (21.18, 1.0), replicates=500, seed=SEED)
    assert a == b


def test_betterbirth_recommendation_anchor():
    # the published stages-1-2 fit recommends about 21 visits and 1 launch day
    model = betterbirth_model("stages12")
    x = min_cost_subject_to_threshold(
        model, BETTERBIRTH_COST, BETTERBIRTH_BOUNDS, 0.1, "decrease"
    )
    assert x[1] == pytest.approx(1.0)
    assert x[0] == pytest.approx(21.0, abs=0.5)

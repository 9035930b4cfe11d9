"""Dominance thresholds and the solution-stability probe.

The dominance values are checked two ways: against the published planning
table for the two-component logistic setting (percent above control, ±3
percentage points), and against the defining property itself — power
certifies at the returned level and fails just below it — which is
independent of the bisection that produced the number.  The hand-built
expectation summary and model that ``dominance_threshold`` once
thresholded are kept here as an oracle of the 1-df levels.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from lago.cost import CostFunction
from lago.diagnostics import (
    Assumption7Report,
    DominanceDesign,
    dominance_design,
    dominance_threshold,
    verify_assumption7,
)
from lago.errors import InfeasibleError
from lago.errors import NoThresholdError
from lago.model import (
    CenterData,
    FittedModel,
    StageRecord,
    _assumed,
    expit,
    logistic_information,
    predict,
)
from lago.optimizer import (
    GoalSpec,
    _bounds_arrays,
    _state_summary,
    min_cost_subject_to_threshold,
)
from lago.power import (
    ArmSummary,
    TestSelector as Selector,
    unconditional_power,
    unconditional_power_at_level,
)
from lago.sim import COST_1A, StagePlan, _planned_stages
from lago.trial import TrialConfig, ingest_stage, new_trial
from test_decision_lanes import _scalar_threshold_core

BETA = (0.1, 0.3, 0.15)
CONTROL = expit(0.1)


# ---------------------------------------------------------------------------
# dominance threshold
# ---------------------------------------------------------------------------

def pct_above_control(level):
    return 100.0 * (level - CONTROL) / CONTROL


@pytest.mark.parametrize(
    "pi, published_pct",
    [(0.8, 35.4), (0.9, 46.5)],
)
def test_dominance_matches_published_planning_values(pi, published_pct):
    level = dominance_threshold(dominance_design(40), BETA, pi=pi)
    assert pct_above_control(level) == pytest.approx(published_pct, abs=3.0)


def _expected_trial(design, beta, goals):
    """The planned trial with stage 1 observed at its expected values."""
    model = _assumed(beta)
    first = design.stages[0]
    n = first.n_per_center
    xs = [np.zeros(len(design.bounds))] * first.n_control_centers
    xs += [np.asarray(x, dtype=float) for x in first.probe_packages]
    centers = []
    for i, x in enumerate(xs):
        p = predict(model, x)
        arm = int(i >= first.n_control_centers)
        centers.append(CenterData.from_stats(arm, x, n, n * p, n * p * (1.0 - p)))
    config = TrialConfig(_planned_stages(design.stages), design.bounds,
                         design.cost or CostFunction(((None, 0, 0.0),)), goals)
    return model, ingest_stage(new_trial(config), StageRecord(1, centers))


def test_dominance_level_is_the_smallest_certifying_level():
    # defining property, independent of how the bisection found the number
    design = dominance_design(40)
    level = dominance_threshold(design, BETA, pi=0.8)
    sel = Selector("z_unpooled")
    model, state = _expected_trial(design, BETA, GoalSpec(power_goal=0.8, test=sel))
    summary = _state_summary(state, sel, 2)
    assert unconditional_power_at_level(level, model, summary, sel, 0.05) >= 0.8
    assert unconditional_power_at_level(level - 1e-3, model, summary, sel, 0.05) < 0.8


def test_dominance_collapses_to_control_as_pi_approaches_alpha():
    level = dominance_threshold(dominance_design(40), BETA, pi=0.0501, alpha=0.05)
    assert level == pytest.approx(CONTROL, abs=1e-3)


def test_dominance_nondecreasing_in_power_goal():
    design = dominance_design(40)
    levels = [dominance_threshold(design, BETA, pi=pi) for pi in (0.5, 0.7, 0.8, 0.9, 0.95)]
    assert all(b >= a - 1e-12 for a, b in zip(levels, levels[1:]))


def test_dominance_nonincreasing_in_sample_size():
    levels = [
        dominance_threshold(dominance_design(nj), BETA, pi=0.8)
        for nj in (20, 40, 60, 100)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))


def test_dominance_conditional_approach_is_finite_and_ordered():
    design = dominance_design(40)
    level = dominance_threshold(design, BETA, pi=0.8, approach="conditional")
    assert CONTROL < level < 1.0


def test_dominance_wald_test_requires_a_cost():
    with pytest.raises(ValueError, match="cost"):
        dominance_threshold(
            dominance_design(40), BETA, pi=0.8, test=Selector("wald_pdf_binary")
        )


# The arm summary and model ``dominance_threshold`` built by hand before it
# thresholded the planned trial, kept verbatim as an oracle.
def _expectation_summary(design: DominanceDesign, beta) -> ArmSummary:
    """Stage-1 sums replaced by their means; later stages planned as future."""
    beta = np.asarray(beta, dtype=float)
    first = design.stages[0]
    n = first.n_per_center
    p0 = expit(beta[0])
    s1 = 0.0
    for pkg in first.probe_packages:
        eta = beta[0] + float(np.dot(beta[1:], np.asarray(pkg, dtype=float)))
        s1 += n * expit(eta)
    n1_obs = first.n_intervention_centers * n
    n0_obs = first.n_control_centers * n
    n1_fut = sum(sp.n_intervention_centers * sp.n_per_center for sp in design.stages[1:])
    n0_fut = sum(sp.n_control_centers * sp.n_per_center for sp in design.stages[1:])
    return ArmSummary(
        n1_obs=float(n1_obs),
        n0_obs=float(n0_obs),
        s1_obs=s1,
        s0_obs=n0_obs * p0,
        n1_future=float(n1_fut),
        n0_future=float(n0_fut),
    )


def _expectation_model(design: DominanceDesign, beta) -> FittedModel:
    """Assumed-coefficient model with the stage-1 Fisher information as its
    covariance (the conditional certificate needs one)."""
    beta = np.asarray(beta, dtype=float)
    first = design.stages[0]
    n = first.n_per_center
    packages = [np.zeros(beta.size - 1)] * first.n_control_centers
    packages += [np.asarray(p, dtype=float) for p in first.probe_packages]
    X = np.array([np.concatenate(([1.0], pkg)) for pkg in packages])
    info = logistic_information(X, np.full(len(packages), float(n)), expit(X @ beta))
    return FittedModel(
        beta=beta,
        link="logit",
        covariance=np.linalg.inv(info),
        n_used=int(
            first.n_per_center
            * (first.n_control_centers + first.n_intervention_centers)
        ),
        kind="assumed",
    )


def _dominance_oracle(design, beta, alpha=0.05, pi=0.8, approach="unconditional",
                      test=Selector("z_unpooled")):
    model = _expectation_model(design, beta)
    summary = _expectation_summary(design, beta)
    goals = GoalSpec(power_goal=pi, alpha=alpha, approach=approach, test=test)
    cost = design.cost if design.cost is not None else CostFunction(((None, 0, 0.0),))
    lo, hi = _bounds_arrays(design.bounds, model.n_components)
    return float(_scalar_threshold_core(model, summary, goals, cost, lo, hi)[0])


def _level_or_error(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except NoThresholdError as exc:
        return f"{type(exc).__name__}: {exc}"


ORACLE_BETAS = (BETA, (-0.4, 0.5, 0.1))


@pytest.mark.parametrize("n", [10, 40, 200])
@pytest.mark.parametrize("approach", ["unconditional", "conditional"])
@pytest.mark.parametrize("kind", ["z_unpooled", "z_pooled"])
def test_dominance_matches_the_hand_built_expectation_oracle(n, approach, kind):
    design = dominance_design(n)
    for pi in (0.5, 0.8, 0.9):
        for beta in ORACLE_BETAS:
            kw = dict(pi=pi, approach=approach, test=Selector(kind))
            got = _level_or_error(dominance_threshold, design, beta, **kw)
            want = _level_or_error(_dominance_oracle, design, beta, **kw)
            assert got == want, (pi, beta, got, want)


def test_dominance_with_three_control_centers_matches_the_oracle():
    # The trial sums the three control centers' expected sums one center at
    # a time; the oracle multiplies the arm size by the control probability.
    # The two differ in the last bits, which the root can move by a few of
    # its 1e-12 tolerances.
    design = DominanceDesign(
        stages=(StagePlan(3, 2, 40, ((1.0, 0.0), (0.0, 4.0))), StagePlan(3, 2, 40)),
        bounds=((0.0, 2.0), (0.0, 8.0)),
    )
    for pi in (0.5, 0.8, 0.9):
        for approach in ("unconditional", "conditional"):
            for kind in ("z_unpooled", "z_pooled"):
                for beta in ORACLE_BETAS:
                    kw = dict(pi=pi, approach=approach, test=Selector(kind))
                    got = dominance_threshold(design, beta, **kw)
                    want = _dominance_oracle(design, beta, **kw)
                    assert got == pytest.approx(want, rel=0.0, abs=1e-11), (kw, beta)


def test_wald_dominance_level_is_certified():
    # The hand-built summary had no per-center design, so the package-df
    # kinds could not run there at all.
    design = dataclasses.replace(dominance_design(40), cost=COST_1A)
    sel = Selector("wald_pdf_binary")
    with pytest.raises(ValueError, match="design_obs"):
        _dominance_oracle(design, BETA, pi=0.8, test=sel)
    level = dominance_threshold(design, BETA, pi=0.8, test=sel)
    assert CONTROL < level < 1.0
    model, state = _expected_trial(design, BETA, GoalSpec(power_goal=0.8, test=sel))
    summary = _state_summary(state, sel, 2)
    x = min_cost_subject_to_threshold(model, COST_1A, design.bounds, level)
    assert unconditional_power(np.asarray(x), model, summary, sel, 0.05) >= 0.8 - 1e-9


def test_a_dominance_design_without_a_control_center_is_refused():
    # dominance_threshold divided by the empty control arm.
    probes = StagePlan(0, 2, 40, probe_packages=((1.0, 0.0), (0.0, 4.0)))
    with pytest.raises(ValueError, match="needs a control center in some stage"):
        DominanceDesign(stages=(probes, StagePlan(0, 2, 40)), bounds=((0, 2), (0, 8)))


def test_dominance_design_validation():
    stage = StagePlan(2, 2, 40, probe_packages=((1.0, 0.0), (0.0, 4.0)))
    with pytest.raises(ValueError, match="two stages"):
        DominanceDesign(stages=(stage,), bounds=((0, 2), (0, 8)))
    bare = StagePlan(2, 2, 40)
    with pytest.raises(ValueError, match="probe"):
        DominanceDesign(stages=(bare, bare), bounds=((0, 2), (0, 8)))
    short = StagePlan(1, 2, 40, ((1.0,), (0.0,)))
    with pytest.raises(ValueError, match=r"probe package \(1\.0,\) has 1 components, expected 2"):
        DominanceDesign(stages=(short, StagePlan(1, 2, 40)), bounds=((0, 2), (0, 8)))
    for bounds, message in [
        (((2.0, 0.0), (0.0, 8.0)), "must not exceed its upper bound"),
        (((0.0, 2.0), (0.0, math.inf)), "bounds must be finite"),
        (((0.0, math.nan), (0.0, 8.0)), "bounds must be finite"),
    ]:
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(dominance_design(40), bounds=bounds)


# ---------------------------------------------------------------------------
# stability probe
# ---------------------------------------------------------------------------

LIN_COST = CostFunction(((0, 1, 1.0), (1, 1, 4.0)))
BOUNDS = ((0.0, 4.0), (0.0, 8.0))


def test_distinct_benefit_cost_ratios_pass():
    report = verify_assumption7(
        BETA, LIN_COST, BOUNDS, goal=0.7455, epsilon=0.02, L=100, eta=0.5, seed=11
    )
    assert report.passed
    assert report.delta_max < 0.5
    assert not report.failures
    direct = min_cost_subject_to_threshold(
        FittedModel(np.array(BETA), "logit", np.zeros((3, 3)), 0, "assumed"),
        LIN_COST, BOUNDS, 0.7455,
    )
    assert np.allclose(report.x_hat, direct)


def test_delta_max_vanishes_with_epsilon():
    report = verify_assumption7(
        BETA, LIN_COST, BOUNDS, goal=0.7455, epsilon=1e-9, L=50, eta=0.01, seed=11
    )
    assert report.delta_max < 1e-6
    assert report.passed


def test_equal_ratio_tie_fails():
    # both components buy linear predictor at the same price, so the
    # minimizer jumps between single-component corners under perturbation
    tie_cost = CostFunction(((0, 1, 1.0), (1, 1, 1.0)))
    report = verify_assumption7(
        (0.0, 0.3, 0.3), tie_cost, ((0, 4), (0, 4)),
        goal=0.70, epsilon=0.05, L=200, eta=0.5, seed=7,
    )
    assert not report.passed
    # corners sit at (eta/0.3, 0) and (0, eta/0.3): about 2.82 * sqrt(2) apart
    assert report.delta_max > 3.0


def test_same_seed_reproduces_report():
    kw = dict(goal=0.7455, epsilon=0.05, L=60, eta=0.5, seed=3)
    a = verify_assumption7(BETA, LIN_COST, BOUNDS, **kw)
    b = verify_assumption7(BETA, LIN_COST, BOUNDS, **kw)
    assert a.to_dict() == b.to_dict()
    assert a.seed == 3


def test_different_seeds_differ():
    a = verify_assumption7(BETA, LIN_COST, BOUNDS, goal=0.7455, epsilon=0.05, L=60, seed=3)
    b = verify_assumption7(BETA, LIN_COST, BOUNDS, goal=0.7455, epsilon=0.05, L=60, seed=4)
    assert a.delta_max != b.delta_max


def test_perturbed_infeasibility_is_recorded_not_raised():
    # predictor ceiling at the estimate is 0.36 (p_max 0.589); goal 0.585
    # is feasible there but not at many ball draws
    beta = (0.1, 0.05, 0.02)
    cost = CostFunction(((0, 1, 1.0), (1, 1, 1.0)))
    report = verify_assumption7(
        beta, cost, ((0, 2), (0, 8)), goal=0.585, epsilon=0.08, L=150, eta=5.0, seed=13
    )
    assert report.failures
    assert {f["error"] for f in report.failures} == {"InfeasibleError"}
    assert report.centers[0]["failed_samples"] == len(report.failures)
    assert report.samples_per_center == 150


def test_infeasible_at_the_estimate_raises():
    with pytest.raises(InfeasibleError):
        verify_assumption7(
            (0.1, 0.05, 0.02), CostFunction(((0, 1, 1.0), (1, 1, 1.0))),
            ((0, 2), (0, 8)), goal=0.60, epsilon=0.08, L=10, seed=13,
        )


def test_extended_mode_sweeps_confidence_band():
    cov = np.diag([0.04, 0.01, 0.0025])
    model = FittedModel(np.array(BETA), "logit", cov, n_used=160, kind="binary")
    report = verify_assumption7(
        model, LIN_COST, BOUNDS, goal=0.7455, epsilon=0.02,
        L=40, eta=2.0, extended=True, M=3, seed=5,
    )
    assert len(report.centers) == 4  # estimate + M band points
    centers = [c["beta"] for c in report.centers]
    assert centers[0] == pytest.approx(list(BETA))
    # band points sweep outward with the quantile, same direction each axis
    assert centers[1][1] < centers[2][1] < centers[3][1]


@pytest.mark.parametrize("extended", [False, True])
def test_probe_solves_the_estimate_once(monkeypatch, extended):
    import lago.diagnostics as diagnostics

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].beta)
        return min_cost_subject_to_threshold(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "min_cost_subject_to_threshold", counting)
    model = FittedModel(np.array(BETA), "logit", np.diag([0.04, 0.01, 0.0025]), 160, "binary")
    L, M = 7, 3
    report = verify_assumption7(
        model, LIN_COST, BOUNDS, goal=0.7455, epsilon=0.02, L=L,
        extended=extended, M=M, seed=5,
    )
    n_centers = 1 + M if extended else 1
    # the estimate, every other ball center, then L draws around each center
    assert len(calls) == 1 + (n_centers - 1) + n_centers * L
    assert report.centers[0]["x"] == list(report.x_hat)


def test_extended_mode_needs_a_covariance():
    with pytest.raises(ValueError, match="covariance"):
        verify_assumption7(
            BETA, LIN_COST, BOUNDS, goal=0.7455, epsilon=0.02,
            L=10, extended=True, seed=5,
        )


@pytest.mark.parametrize("epsilon, eta, name", [
    (math.inf, 1e-6, "epsilon"), (math.nan, 1e-6, "epsilon"), (0.02, math.inf, "eta"),
])
def test_the_ball_radius_and_eta_must_be_positive_and_finite(epsilon, eta, name):
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        verify_assumption7(BETA, LIN_COST, BOUNDS, goal=0.7455, epsilon=epsilon, eta=eta,
                           L=3, seed=1)


def test_report_serializes_to_json():
    report = verify_assumption7(
        BETA, LIN_COST, BOUNDS, goal=0.7455, epsilon=0.02, L=20, seed=1
    )
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["passed"] is True
    assert payload["seed"] == 1
    assert isinstance(payload["delta_max"], float)


@pytest.mark.parametrize(
    "kw",
    [dict(epsilon=0.0), dict(epsilon=-1.0), dict(eta=0.0), dict(L=0), dict(M=0)],
)
def test_probe_argument_validation(kw):
    args = dict(goal=0.7455, epsilon=0.02, L=10, eta=0.5, seed=1)
    args.update(kw)
    with pytest.raises(ValueError):
        verify_assumption7(BETA, LIN_COST, BOUNDS, **args)


@pytest.mark.parametrize("name, value", [
    ("L", 2.5), ("L", True), ("L", np.float64(10.0)), ("M", 2.0), ("M", True), ("M", -3),
])
def test_probe_counts_are_integers(name, value):
    # L=2.5 raised a TypeError from range; L=True ran one sample.
    args = {**dict(goal=0.7455, epsilon=0.02, L=10, eta=0.5, seed=1), name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        verify_assumption7(BETA, LIN_COST, BOUNDS, **args)
    args[name] = np.int64(3)  # a numpy integer is a count
    assert verify_assumption7(BETA, LIN_COST, BOUNDS, **args).samples_per_center == args["L"]


@pytest.mark.parametrize("seed", [3.7, True, -1, "7"])
def test_the_probe_seed_is_a_count(seed):
    # seed=3.7 raised numpy's TypeError; seed=True ran, and was recorded, as seed 1.
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        verify_assumption7(BETA, LIN_COST, BOUNDS, goal=0.7455, epsilon=0.02, L=3, seed=seed)


def test_a_numpy_integer_seed_is_the_same_seed():
    kw = dict(goal=0.7455, epsilon=0.02, L=5)
    report = verify_assumption7(BETA, LIN_COST, BOUNDS, seed=np.int64(9), **kw)
    assert report.seed == 9 and type(report.seed) is int
    assert report.to_dict() == verify_assumption7(BETA, LIN_COST, BOUNDS, seed=9, **kw).to_dict()


@pytest.mark.parametrize("beta", [((0.1, 0.3), (0.15, 0.0)), [[0.1, 0.3, 0.15]], 0.1])
def test_the_coefficients_must_be_one_vector(beta):
    # A 2-d array was raveled and solved as one longer vector.
    with pytest.raises(ValueError, match=r"model_or_beta must be a 1-d vector, got shape"):
        verify_assumption7(beta, LIN_COST, BOUNDS, goal=0.7455, epsilon=0.02, L=3, seed=1)

"""Recommendation solver tests.

The cost solver is checked against independent oracles: an LP solver for
linear costs, a one-dimensional reduction along the active constraint for
the two-component cubic cost, and brute-force feasible sampling for random
instances.  Threshold searches are checked by plugging the returned level
back into the noncentrality it was meant to hit.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as npoly
from scipy.optimize import linprog, minimize_scalar
from scipy.special import expit as sp_expit, logit as sp_logit

from lago.cost import CostFunction
from lago.diagnostics import verify_assumption7
from lago.errors import InfeasibleError, NoThresholdError, NonFiniteError
from lago.model import CenterData, FittedModel, StageRecord, _assumed, mirrored, predict
from lago.optimizer import (
    GoalSpec,
    _ComponentPoly,
    _min_cost_eta,
    _segment_coeffs,
    Recommendation,
    integerize,
    min_cost_subject_to_threshold,
    p_max,
    plan_stage1,
    power_threshold,
    recommend_from_summary,
    recommend_stage_k,
    shrinking_method,
)
from lago.power import ArmSummary, TestSelector as Selector, _wald_lambda_binary
from lago.power import lambda_at_level, lambda_min, unconditional_lambda, unconditional_power
from lago.sim import COST_1A


def make_model(beta, link="logit"):
    beta = np.asarray(beta, dtype=float)
    return FittedModel(
        beta=beta, link=link, covariance=np.eye(beta.size), n_used=400, kind="binary"
    )


def center(arm, package, n, successes):
    y = np.concatenate([np.ones(successes), np.zeros(n - successes)])
    return CenterData(arm=arm, package=np.asarray(package, dtype=float), outcomes=y)


CUBIC = CostFunction(terms=(
    (0, 3, 2.0), (0, 2, -1.19), (0, 1, 10.0), (None, 0, 10.0),
    (1, 3, 0.1), (1, 2, -0.2), (1, 1, 2.0),
))
BOUNDS_1A = [(0.0, 2.0), (0.0, 8.0)]
MODEL_1A = make_model([0.1, 0.3, 0.15])


def stage1_record():
    """A plausible stage-1 draw near the scenario's true rates."""
    return StageRecord(stage_index=1, centers=[
        center(0, [0.0, 0.0], 40, 21),
        center(1, [1.0, 0.0], 40, 23),
        center(1, [0.0, 4.0], 40, 26),
        center(1, [1.0, 4.0], 40, 30),
    ])


def make_state(records, future, cost=CUBIC, bounds=None):
    bounds = bounds if bounds is not None else BOUNDS_1A
    return SimpleNamespace(
        completed=list(records),
        config=SimpleNamespace(cost=cost, bounds=bounds, stage1_package=None),
        future_arm_sizes=lambda k: future,
    )


# ---------------------------------------------------------------------------
# best attainable level
# ---------------------------------------------------------------------------

def test_p_max_increase():
    assert p_max(MODEL_1A, BOUNDS_1A) == pytest.approx(sp_expit(1.9), abs=1e-12)


def test_p_max_negative_effect_uses_lower_bound():
    m = make_model([0.1, -0.3, 0.15])
    assert p_max(m, BOUNDS_1A) == pytest.approx(sp_expit(1.3), abs=1e-12)


def test_p_max_null_effects_is_control_level():
    m = make_model([0.1, 0.0, 0.0])
    assert p_max(m, BOUNDS_1A) == pytest.approx(sp_expit(0.1), abs=1e-12)


def test_p_max_decrease_is_minimum_level():
    m = make_model([math.log(0.160), math.log(0.888) / 5.0, math.log(1.144)])
    val = p_max(m, [(1.0, 40.0), (1.0, 5.0)], direction="decrease")
    eta_min = m.intercept + m.effects[0] * 40.0 + m.effects[1] * 1.0
    assert val == pytest.approx(sp_expit(eta_min), abs=1e-12)


# ---------------------------------------------------------------------------
# cost minimization: pinned examples
# ---------------------------------------------------------------------------

def test_linear_cost_example():
    lin = CostFunction.linear([1.0, 4.0])
    x = min_cost_subject_to_threshold(MODEL_1A, lin, [(0, 4), (0, 8)], 0.7455)
    want_x1 = (sp_logit(0.7455) - 0.1) / 0.3
    assert x == pytest.approx([want_x1, 0.0], abs=1e-9)


def test_cubic_cost_matches_one_dimensional_reduction():
    """With the constraint active, x1 is determined by x2; minimizing the
    resulting single-variable cost is an independent route to the optimum."""
    g_t = sp_logit(0.7)

    def x1_of(x2):
        return (g_t - 0.1 - 0.15 * x2) / 0.3

    def along(x2):
        return CUBIC(np.array([x1_of(x2), x2]))

    lo2 = max(0.0, (g_t - 0.1 - 0.3 * 2.0) / 0.15)  # keep x1 <= 2
    hi2 = min(8.0, (g_t - 0.1) / 0.15)              # keep x1 >= 0
    grid = np.linspace(lo2, hi2, 20001)
    vals = np.array([along(s) for s in grid])
    i = int(vals.argmin())
    res = minimize_scalar(
        along,
        bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    oracle = np.array([x1_of(res.x), res.x])

    x = min_cost_subject_to_threshold(MODEL_1A, CUBIC, BOUNDS_1A, 0.7)
    assert x == pytest.approx(oracle, abs=1e-6)
    assert CUBIC(x) <= along(res.x) + 1e-9
    # the constraint is active at the optimum
    assert predict(MODEL_1A, x) == pytest.approx(0.7, abs=1e-9)


def test_betterbirth_decrease_recommendation():
    m = make_model([math.log(0.160), math.log(0.888) / 5.0, math.log(1.144)])
    cost = CostFunction(terms=(
        (0, 1, 380.0), (0, 2, -24.0), (0, 3, 0.6),
        (1, 1, 1700.0), (1, 2, -950.0), (1, 3, 220.0),
    ))
    x = min_cost_subject_to_threshold(
        m, cost, [(1.0, 40.0), (1.0, 5.0)], 0.10, direction="decrease"
    )
    assert x[0] == pytest.approx(21.1, abs=0.5)
    assert x[1] == pytest.approx(1.0, abs=1e-9)
    assert predict(m, x) == pytest.approx(0.10, abs=1e-9)


def test_infeasible_threshold_raises():
    with pytest.raises(InfeasibleError):
        min_cost_subject_to_threshold(MODEL_1A, CUBIC, BOUNDS_1A, 0.95)


def test_threshold_domain_validated():
    with pytest.raises(ValueError):
        min_cost_subject_to_threshold(MODEL_1A, CUBIC, BOUNDS_1A, 1.2)


LEVEL_ENTRY_POINTS = {
    "min_cost_subject_to_threshold": lambda model, level: min_cost_subject_to_threshold(
        model, COST_1A, BOUNDS_1A, level),
    "verify_assumption7": lambda model, level: verify_assumption7(
        model, COST_1A, BOUNDS_1A, level, 0.05, L=3, seed=1),
    "integerize": lambda model, level: integerize(
        [1.0, 4.0], model, COST_1A, BOUNDS_1A, level),
    "shrinking_method": lambda model, level: shrinking_method(
        model, BOUNDS_1A, [1.0, 4.0], level),
}


@pytest.mark.parametrize("level", ["0.6", True, None])
@pytest.mark.parametrize("link", ["logit", "identity"])
@pytest.mark.parametrize("name", list(LEVEL_ENTRY_POINTS))
def test_a_level_that_is_not_a_real_number_is_refused(name, link, level):
    # A string once raised a raw TypeError from math.isfinite, and on an
    # identity link True ran as the level 1.0.
    with pytest.raises(ValueError, match=f"must be a real number, got {level!r}"):
        LEVEL_ENTRY_POINTS[name](_assumed(MODEL_1A.beta, link), level)


def test_cost_component_out_of_range_rejected():
    bad = CostFunction(terms=((2, 1, 1.0),))
    with pytest.raises(ValueError):
        min_cost_subject_to_threshold(MODEL_1A, bad, BOUNDS_1A, 0.6)


def test_threshold_at_pmax_returns_extreme_corner():
    x = min_cost_subject_to_threshold(MODEL_1A, CUBIC, BOUNDS_1A, sp_expit(1.9))
    assert x == pytest.approx([2.0, 8.0], abs=1e-9)


def test_slack_threshold_returns_free_minimum():
    # below the control level everything is feasible; cheapest point wins
    x = min_cost_subject_to_threshold(MODEL_1A, CUBIC, BOUNDS_1A, 0.05)
    assert x == pytest.approx([0.0, 0.0], abs=1e-12)


def test_goal_at_eta_max_with_a_negligible_effect_keeps_the_cheap_corner():
    # From a scenario-2a replicate: the goal sits at the attainable maximum
    # and the first effect is ~1e-17, so a slice with no slack finds (0, 8)
    # infeasible by rounding; only the fixed-corner candidate, checked with
    # the solver's tolerance, finds it (cost 64.4 against 95.64 at (2, 8)).
    x = _min_cost_eta(
        0.20067069546215136, np.array([1.7525259186384262e-17, 0.10459212823601798]),
        CUBIC, np.array([0.0, 0.0]), np.array([2.0, 8.0]), 1.0374077213502952,
    )
    assert x.tolist() == [0.0, 8.0]


@pytest.mark.parametrize("eta_target, package", [
    (0.0, [1.6, 0.0]), (1.0, [2.0, 0.8 / 0.3]), (1.5, [2.0, 1.3 / 0.3]),
])
def test_a_linear_cost_rate_past_the_float_range_orders_last_without_a_warning(
        eta_target, package):
    # Both cost-per-eta rates (1e308 / 0.5 and 1e308 / 0.3) overflow to inf
    # and tie, so the fill takes the components in index order.  The suite
    # turns a RuntimeWarning into an error, and this test sets no errstate.
    cost = CostFunction(((0, 1, 1e308), (1, 1, 1e308)))
    x = _min_cost_eta(-0.8, np.array([0.5, 0.3]), cost, np.array([0.0, 0.0]),
                      np.array([2.0, 8.0]), eta_target)
    assert x == pytest.approx(package, rel=1e-12)
    assert -0.8 + 0.5 * x[0] + 0.3 * x[1] >= eta_target - 1e-9


NON_FINITE_BETAS = [(0.1, math.nan, 0.15), (0.1, math.inf, 0.15), (-math.inf, 0.3, 0.15)]


@pytest.mark.parametrize("beta", NON_FINITE_BETAS, ids=["nan-effect", "inf-effect", "inf-intercept"])
def test_non_finite_coefficients_are_refused_naming_beta(beta):
    # Each entry point once blamed the goal ("no package ... reaches the
    # outcome goal", "constraint unreachable") or, for an infinite effect,
    # the cost ("the cost is not finite on [0.0, 0.0]").
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled"))
    calls = {
        "plan_stage1": lambda: plan_stage1(beta, goals, COST_1A, BOUNDS_1A, (100.0, 100.0)),
        "recommend_from_summary": lambda: recommend_from_summary(
            _assumed(beta), SUMMARY_1A, goals, COST_1A, BOUNDS_1A),
        "min_cost_subject_to_threshold": lambda: min_cost_subject_to_threshold(
            _assumed(beta), COST_1A, BOUNDS_1A, 0.7),
        "verify_assumption7": lambda: verify_assumption7(
            beta, COST_1A, BOUNDS_1A, 0.7, epsilon=0.01, L=3, seed=1),
        "FittedModel": lambda: make_model(beta),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=r"beta must be finite, got \["):
            call()


# ---------------------------------------------------------------------------
# cost minimization: oracles
# ---------------------------------------------------------------------------

def test_linear_greedy_matches_lp_oracle():
    rng = np.random.default_rng(7)
    for trial in range(100):
        P = int(rng.integers(1, 6))
        beta1 = rng.uniform(0.2, 1.0, P) * rng.choice([-1.0, 1.0], P)
        costs = rng.uniform(0.1, 3.0, P)
        ratios = np.abs(costs / beta1)
        if np.min(np.abs(np.subtract.outer(ratios, ratios))
                  + np.eye(P) * 10.0) < 1e-3:
            continue  # keep ratios distinct so the LP optimum is unique
        hi = rng.uniform(0.5, 4.0, P)
        beta0 = rng.uniform(-1.0, 1.0)
        eta_lo = beta0 + np.minimum(beta1 * 0.0, beta1 * hi).sum()
        eta_hi = beta0 + np.maximum(beta1 * 0.0, beta1 * hi).sum()
        u = rng.uniform(0.3, 0.95)
        eta_t = eta_lo + u * (eta_hi - eta_lo)
        model = make_model(np.concatenate([[beta0], beta1]))
        cost = CostFunction.linear(costs)
        x = min_cost_subject_to_threshold(
            model, cost, [(0.0, h) for h in hi], sp_expit(eta_t)
        )
        res = linprog(
            c=costs,
            A_ub=[-beta1],
            b_ub=[-(eta_t - beta0)],
            bounds=[(0.0, h) for h in hi],
            method="highs",
        )
        assert res.success
        assert cost(x) == pytest.approx(float(costs @ res.x), abs=1e-7)
        assert x == pytest.approx(res.x, abs=1e-5)


def test_three_component_interior_optimum():
    # symmetric quadratic cost: the optimum splits the constraint equally
    # across all three components, all strictly inside their bounds
    model = make_model([0.0, 1.0, 1.0, 1.0])
    cost = CostFunction(terms=((0, 2, 1.0), (1, 2, 1.0), (2, 2, 1.0)))
    x = min_cost_subject_to_threshold(
        model, cost, [(0.0, 10.0)] * 3, sp_expit(3.0)
    )
    assert x == pytest.approx([1.0, 1.0, 1.0], abs=1e-6)


def test_four_component_mixed_optimum():
    # quadratic costs with distinct curvatures: KKT gives x_p = mu/(2 c_p)
    # until a bound binds; verified against a dense dirichlet search
    model = make_model([0.0, 1.0, 1.0, 1.0, 1.0])
    c = np.array([1.0, 2.0, 4.0, 8.0])
    cost = CostFunction(terms=tuple((p, 2, float(c[p])) for p in range(4)))
    x = min_cost_subject_to_threshold(
        model, cost, [(0.0, 10.0)] * 4, sp_expit(3.0)
    )
    # analytic: x_p proportional to 1/c_p, summing to 3
    w = (1.0 / c) / (1.0 / c).sum()
    assert x == pytest.approx(3.0 * w, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    beta0=st.floats(-1.0, 1.0),
    b1=st.floats(0.1, 1.0),
    b2=st.floats(-1.0, -0.1),
    u1=st.floats(0.5, 5.0),
    u2=st.floats(0.5, 5.0),
    c_lin=st.floats(-2.0, 5.0),
    c_quad=st.floats(-1.0, 2.0),
    c_cub=st.floats(0.05, 1.0),
    q=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**31 - 1),
)
def test_solver_beats_sampled_feasible_points(
    beta0, b1, b2, u1, u2, c_lin, c_quad, c_cub, q, seed
):
    model = make_model([beta0, b1, b2])
    bounds = [(0.0, u1), (0.0, u2)]
    cost = CostFunction(terms=(
        (0, 1, c_lin), (0, 2, c_quad), (0, 3, c_cub),
        (1, 1, 1.0), (1, 3, 0.2),
    ))
    eta_lo = beta0 + min(0.0, b1 * u1) + min(0.0, b2 * u2)
    eta_hi = beta0 + max(0.0, b1 * u1) + max(0.0, b2 * u2)
    eta_t = eta_lo + q * (eta_hi - eta_lo)
    x = min_cost_subject_to_threshold(model, cost, bounds, sp_expit(eta_t))
    assert 0.0 - 1e-12 <= x[0] <= u1 + 1e-12
    assert 0.0 - 1e-12 <= x[1] <= u2 + 1e-12
    assert model.linear_predictor(x) >= eta_t - 1e-7
    rng = np.random.default_rng(seed)
    pts = rng.uniform([0.0, 0.0], [u1, u2], size=(150, 2))
    best = cost(x)
    for pt in pts:
        if model.linear_predictor(pt) >= eta_t:
            assert best <= cost(pt) + 1e-7 * (1.0 + abs(best))


def test_decrease_equals_mirrored_increase():
    m = make_model([0.2, -0.4, 0.3])
    cost = CostFunction(terms=((0, 2, 1.0), (0, 1, 0.5), (1, 2, 2.0), (1, 1, 1.0)))
    bounds = [(0.0, 3.0), (0.0, 3.0)]
    x_dec = min_cost_subject_to_threshold(m, cost, bounds, 0.35, direction="decrease")
    x_inc = min_cost_subject_to_threshold(mirrored(m), cost, bounds, 1.0 - 0.35)
    # the two mirrored thresholds differ by one ulp on the linear-predictor
    # scale, so equality holds to rounding rather than bitwise
    assert x_dec == pytest.approx(x_inc, abs=1e-12)


# ---------------------------------------------------------------------------
# scalar polynomial kernel against numpy.polynomial as the oracle
# ---------------------------------------------------------------------------

def _oracle_stationary(coeffs):
    """The polyder / polyroots / near-real filter rule the closed forms replace."""
    dc = np.trim_zeros(npoly.polyder(np.asarray(coeffs, dtype=float)), "b")
    pts = []
    if dc.size >= 2:
        for root in npoly.polyroots(dc):
            if abs(root.imag) <= 1e-9 * (1.0 + abs(root.real)):
                pts.append(float(root.real))
    return sorted(set(pts))


def _random_polys(rng, n):
    """Degree 0-4 coefficients over four decades, some with trailing zeros."""
    for _ in range(n):
        deg = int(rng.integers(0, 5))
        c = rng.normal(size=deg + 1) * 10.0 ** rng.uniform(-2.0, 2.0, deg + 1)
        if rng.random() < 0.2:
            c = np.concatenate((c, np.zeros(int(rng.integers(1, 3)))))
        yield c


def test_component_poly_value_is_bitwise_polyval():
    rng = np.random.default_rng(2024)
    for c in _random_polys(rng, 10_000):
        poly = _ComponentPoly(c)
        for x in rng.uniform(-20.0, 20.0, 3).tolist() + [0.0, -0.0]:
            assert poly(x).hex() == float(npoly.polyval(x, c)).hex()


def test_stationary_points_match_polyroots_oracle():
    rng = np.random.default_rng(2025)
    cases = list(_random_polys(rng, 10_000))
    third = 1.0 / 3.0  # 3 * third == 1.0, so the derivative below is exact
    cases += [
        [0.0, 1.0, -1.0, third],            # derivative (x - 1)^2: double root
        [7.0, 0.25, -0.5, third],           # (x - 0.5)^2
        [0.0, 2.25, 1.5, third],            # (x + 1.5)^2
        [0.0, 4.0, -4.0, 4.0 / 3.0],        # 4 (x - 0.5)^2, leading coefficient not 1
        [0.0, 1e-20, 0.0, third],           # x^2 + 1e-20: roots +-1e-10 i, kept at 0
        [0.0, 2e-20, 1e-10, third],         # disc = -4e-20: kept at -1e-10
        [0.0, 1.0 + 2.0**-40, -1.0, third], # disc slightly negative, imag ~ 1e-6: dropped
        [0.0, 1.0, 0.0, third],             # x^2 + 1: no real stationary point
        [1.0, 2.0, 0.0, 0.0],               # trailing zeros: linear
        [1.0, -2.0, 1.0, 0.0, 0.0],         # trailing zeros: quadratic
        [1.0, 0.0, 0.0, 0.0, 2.0, 0.0],     # trailing zero on a quartic
        [3.0], [0.0, 0.0], [0.0],           # constants
    ]
    for c in cases:
        got = _ComponentPoly(c).stationary
        want = _oracle_stationary(c)
        assert len(got) == len(want), c
        # Companion-matrix eigenvalues carry an absolute error of order eps
        # times the largest root, so the tolerance is taken on that scale.
        scale = 1.0 + max((abs(w) for w in want), default=0.0)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * scale, c


def test_segment_coefficients_match_polynomial_composition():
    rng = np.random.default_rng(2026)
    for _ in range(5_000):
        f = rng.normal(size=int(rng.integers(1, 6)))
        g = rng.normal(size=int(rng.integers(1, 6)))
        A, B = (rng.normal(size=2) * 3.0).tolist()
        want = (Polynomial(f) + Polynomial(g)(Polynomial([A, B]))).coef
        got = np.array(_segment_coeffs(f.tolist(), g.tolist(), A, B))
        want = np.concatenate((want, np.zeros(got.size - want.size)))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# power thresholds
# ---------------------------------------------------------------------------

def scenario_state(n_future=(120.0, 40.0)):
    return make_state([stage1_record()], n_future)


def test_power_threshold_plugs_back_to_lambda_min():
    state = scenario_state()
    goals = GoalSpec(
        outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled")
    )
    t = power_threshold(MODEL_1A, state, goals)
    summary = ArmSummary.from_records(state.completed, future=(120.0, 40.0))
    lam = lambda_at_level(t, MODEL_1A, summary, Selector("z_unpooled"))
    assert lam == pytest.approx(lambda_min(0.05, 0.8), abs=1e-6)


def test_power_threshold_decreases_with_more_future_data():
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled"))
    t_small = power_threshold(MODEL_1A, scenario_state((120.0, 40.0)), goals)
    t_large = power_threshold(MODEL_1A, scenario_state((300.0, 100.0)), goals)
    assert t_large < t_small


def test_power_threshold_degenerate_when_control_already_certifies():
    # an enormous observed effect: the certificate holds even if the future
    # sits at the control level, so the threshold collapses to it
    rec = StageRecord(stage_index=1, centers=[
        center(0, [0.0, 0.0], 400, 40),
        center(1, [1.0, 4.0], 400, 390),
    ])
    state = make_state([rec], (40.0, 40.0))
    goals = GoalSpec(
        outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled"),
        approach="conditional",
    )
    t = power_threshold(MODEL_1A, state, goals)
    assert t == pytest.approx(sp_expit(0.1), abs=1e-12)


def test_power_threshold_unattainable_raises():
    state = make_state([StageRecord(stage_index=1, centers=[
        center(0, [0.0, 0.0], 4, 2),
        center(1, [1.0, 4.0], 4, 3),
    ])], (4.0, 2.0))
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.9, test=Selector("z_unpooled"))
    with pytest.raises(NoThresholdError):
        power_threshold(MODEL_1A, state, goals)


@pytest.mark.parametrize("approach", ["unconditional", "conditional"])
def test_power_threshold_refuses_an_empty_control_arm(approach):
    # The threshold divided by the empty arm; recommend_stage_k already
    # refused it through its summary check.
    state = make_state([StageRecord(stage_index=1, centers=[
        center(1, [1.0, 0.0], 40, 25),
        center(1, [1.0, 4.0], 40, 30),
    ])], (120.0, 0.0))
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled"),
                     approach=approach)
    for call in (power_threshold, recommend_stage_k):
        with pytest.raises(ValueError, match="arm_summary needs observations in each arm"):
            call(MODEL_1A, state, goals)


def test_conditional_threshold_not_above_unconditional_on_favorable_data():
    rec = StageRecord(stage_index=1, centers=[
        center(0, [0.0, 0.0], 40, 18),
        center(1, [1.0, 0.0], 40, 25),
        center(1, [0.0, 4.0], 40, 27),
        center(1, [1.0, 4.0], 40, 31),
    ])
    state = make_state([rec], (120.0, 40.0))
    kw = dict(outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled"))
    t_unc = power_threshold(MODEL_1A, state, GoalSpec(**kw))
    t_con = power_threshold(
        MODEL_1A, state, GoalSpec(approach="conditional", **kw)
    )
    assert t_con <= t_unc + 1e-9


def test_power_threshold_wald_certifies_at_its_own_package():
    state = scenario_state()
    goals = GoalSpec(
        outcome_goal=0.7, power_goal=0.8, test=Selector("wald_pdf_binary")
    )
    t = power_threshold(MODEL_1A, state, goals)
    x = min_cost_subject_to_threshold(MODEL_1A, CUBIC, BOUNDS_1A, t)
    summary = ArmSummary.from_records(state.completed, future=(120.0, 40.0))
    pw = unconditional_power(x, MODEL_1A, summary, Selector("wald_pdf_binary"))
    assert pw >= 0.8 - 1e-9


# ---------------------------------------------------------------------------
# recommendation dispatch
# ---------------------------------------------------------------------------

def test_recommend_binding_power_threshold():
    state = scenario_state()
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled"))
    rec = recommend_stage_k(MODEL_1A, state, goals)
    t_pow = power_threshold(MODEL_1A, state, goals)
    assert rec.regime == "goal-feasible"
    assert rec.required_threshold == pytest.approx(max(0.7, t_pow), abs=1e-12)
    assert rec.achieved_outcome >= rec.required_threshold - 1e-9
    assert rec.projected_power is not None and rec.projected_power >= 0.8 - 1e-6
    # adding the power goal can only push the enforced threshold up
    rec_plain = recommend_stage_k(MODEL_1A, state, GoalSpec(outcome_goal=0.7))
    assert rec.required_threshold >= rec_plain.required_threshold - 1e-12
    assert rec_plain.projected_power is None


def test_recommend_outcome_goal_only_matches_direct_solver():
    state = scenario_state()
    rec = recommend_stage_k(MODEL_1A, state, GoalSpec(outcome_goal=0.7))
    x = min_cost_subject_to_threshold(MODEL_1A, CUBIC, BOUNDS_1A, 0.7)
    assert (rec.x_hat == x).all()
    assert rec.cost == pytest.approx(CUBIC(x), abs=0.0)


def test_recommend_falls_back_to_pmax_when_no_threshold_exists():
    state = make_state([StageRecord(stage_index=1, centers=[
        center(0, [0.0, 0.0], 4, 2),
        center(1, [1.0, 4.0], 4, 3),
    ])], (4.0, 2.0))
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.9, test=Selector("z_unpooled"))
    rec = recommend_stage_k(MODEL_1A, state, goals)
    assert rec.regime == "pmax-fallback"
    assert rec.required_threshold == pytest.approx(sp_expit(1.9), abs=1e-9)
    assert rec.x_hat == pytest.approx([2.0, 8.0], abs=1e-9)


def test_recommend_shrinking_when_goal_unreachable():
    weak = make_model([0.0, 0.05, 0.01])
    state = scenario_state()
    rec = recommend_stage_k(weak, state, GoalSpec(outcome_goal=0.9))
    assert rec.regime == "shrinking-fallback"
    assert rec.required_threshold == pytest.approx(0.9)
    # anchor defaults to the stage-1 intervention mean, here (2/3, 8/3)
    anchor = np.array([2.0 / 3.0, 8.0 / 3.0])
    direct = shrinking_method(weak, BOUNDS_1A, anchor, 0.9)
    assert rec.x_hat == pytest.approx(direct, abs=0.0)


def test_recommend_shrinking_needs_anchor():
    weak = make_model([0.0, 0.05, 0.01])
    state = make_state([StageRecord(stage_index=1, centers=[
        center(0, [0.0, 0.0], 40, 21),
    ])], (40.0, 40.0))
    with pytest.raises(InfeasibleError, match="anchor"):
        recommend_stage_k(weak, state, GoalSpec(outcome_goal=0.9))


def test_recommend_power_goal_only_uses_threshold():
    state = scenario_state()
    goals = GoalSpec(power_goal=0.8, test=Selector("z_unpooled"))
    rec = recommend_stage_k(MODEL_1A, state, goals)
    t_pow = power_threshold(
        MODEL_1A, state,
        GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled")),
    )
    assert rec.regime == "goal-feasible"
    assert rec.required_threshold == pytest.approx(t_pow, abs=1e-12)


def test_recommend_power_goal_only_never_shrinks():
    state = make_state([StageRecord(stage_index=1, centers=[
        center(0, [0.0, 0.0], 4, 2),
        center(1, [1.0, 4.0], 4, 3),
    ])], (4.0, 2.0))
    goals = GoalSpec(power_goal=0.9, test=Selector("z_unpooled"))
    rec = recommend_stage_k(MODEL_1A, state, goals)  # no anchor available or needed
    assert rec.regime == "pmax-fallback"
    assert rec.x_hat == pytest.approx([2.0, 8.0], abs=1e-9)


def test_recommend_stage_k_defaults_to_next_stage():
    state = scenario_state()
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled"))
    a = recommend_stage_k(MODEL_1A, state, goals)
    b = recommend_stage_k(MODEL_1A, state, goals, k=len(state.completed) + 1)
    assert (a.x_hat == b.x_hat).all()
    assert a.required_threshold == b.required_threshold
    assert a.projected_power == b.projected_power
    assert a.cost == b.cost


def test_recommend_stage_k_validates_stage_index():
    state = scenario_state()
    goals = GoalSpec(outcome_goal=0.7)
    with pytest.raises(ValueError, match="plan_stage1"):
        recommend_stage_k(MODEL_1A, state, goals, k=1)
    with pytest.raises(ValueError, match="completed stages"):
        recommend_stage_k(MODEL_1A, state, goals, k=3)


def test_dispatch_continuous_at_pmax_boundary():
    # when the outcome goal crosses the best attainable level, the
    # goal-feasible solution and the pmax fallback meet at the same corner
    pm = sp_expit(1.9)
    state = scenario_state()
    just_below = recommend_stage_k(MODEL_1A, state, GoalSpec(outcome_goal=pm - 1e-10))
    just_above = recommend_stage_k(
        MODEL_1A, state,
        GoalSpec(outcome_goal=min(pm + 1e-10, 1.0 - 1e-12)),
    )
    assert just_below.x_hat == pytest.approx(just_above.x_hat, abs=1e-6)
    assert just_below.regime == "goal-feasible"
    assert just_above.regime in ("goal-feasible", "pmax-fallback")


SUMMARY_1A = ArmSummary(120.0, 40.0, 70.0, 20.0, 120.0, 40.0)


def _goals_1a(approach="unconditional", **kw):
    return GoalSpec(outcome_goal=0.64, power_goal=0.8, test=Selector("z_unpooled"),
                    approach=approach, **kw)


BAD_SUMMARIES = [
    ("n1_future", -50.0, "n1_future must be finite and nonnegative"),
    ("n0_future", math.inf, "n0_future must be finite and nonnegative"),
    ("n1_obs", math.nan, "n1_obs must be finite and nonnegative"),
    ("n0_obs", -1.0, "n0_obs must be finite and nonnegative"),
    ("s1_obs", math.nan, r"s1_obs must be in \[0, n1_obs\], got nan"),
    ("s0_obs", -math.inf, r"s0_obs must be in \[0, n0_obs\], got -inf"),
    ("s1_obs", 700.0, r"s1_obs must be in \[0, n1_obs\], got 700.0"),
    ("s0_obs", -20.0, r"s0_obs must be in \[0, n0_obs\], got -20.0"),
    ("var1_obs", -1.0, "var1_obs must be finite and nonnegative"),
    ("var0_obs", math.nan, "var0_obs must be finite and nonnegative"),
]


@pytest.mark.parametrize("approach", ["unconditional", "conditional"])
@pytest.mark.parametrize("field, value, message", BAD_SUMMARIES,
                         ids=[f"{field}={value}" for field, value, _ in BAD_SUMMARIES])
def test_recommend_from_summary_refuses_an_arm_summary_it_cannot_use(
        approach, field, value, message):
    # Each of these ran: a pmax fallback, a nan projected power, or a
    # goal-feasible package certified at power 1.0 from an impossible sum.
    bad = dataclasses.replace(SUMMARY_1A, **{field: value})
    with pytest.raises(ValueError, match=message):
        recommend_from_summary(_assumed((0.1, 0.3, 0.15)), bad, _goals_1a(approach),
                               COST_1A, BOUNDS_1A)


@pytest.mark.parametrize("arm", ["1", "0"])
def test_recommend_from_summary_refuses_an_empty_arm(arm):
    # The scalar power forms divided by the arm's zero size.
    empty = dataclasses.replace(SUMMARY_1A, **{f"n{arm}_obs": 0.0, f"s{arm}_obs": 0.0,
                                               f"n{arm}_future": 0.0})
    with pytest.raises(ValueError, match="arm_summary needs observations in each arm"):
        recommend_from_summary(_assumed((0.1, 0.3, 0.15)), empty, _goals_1a(), COST_1A, BOUNDS_1A)


def test_recommend_from_summary_reads_the_arm_summary_only_for_a_power_goal():
    model = _assumed((0.1, 0.3, 0.15))
    rec = recommend_from_summary(model, SUMMARY_1A, _goals_1a(), COST_1A, BOUNDS_1A)
    assert rec.regime == "goal-feasible"
    assert rec.x_hat == pytest.approx([1.405, 5.627], abs=5e-4)
    bad = dataclasses.replace(SUMMARY_1A, s1_obs=700.0)
    rec = recommend_from_summary(model, bad, GoalSpec(outcome_goal=0.64), COST_1A, BOUNDS_1A)
    assert rec.regime == "goal-feasible" and rec.projected_power is None


def test_a_continuous_tests_sums_are_not_held_to_the_counts():
    model = FittedModel(beta=np.array([7.0, 0.8, 0.2]), link="identity",
                        covariance=np.eye(3), n_used=160, kind="continuous", sigma2=64.0)
    summary = ArmSummary(120.0, 40.0, 120.0 * 8.0, 40.0 * 7.0, 120.0, 40.0,
                         var1_obs=60.0, var0_obs=64.0)
    goals = GoalSpec(outcome_goal=8.0, power_goal=0.8, test=Selector("t_unpooled"))
    rec = recommend_from_summary(model, summary, goals, COST_1A, BOUNDS_1A)
    assert rec.projected_power is not None
    with pytest.raises(ValueError, match="s1_obs must be finite, got inf"):
        recommend_from_summary(model, dataclasses.replace(summary, s1_obs=math.inf), goals,
                               COST_1A, BOUNDS_1A)
    with pytest.raises(ValueError, match="var1_obs must be finite and nonnegative"):
        recommend_from_summary(model, dataclasses.replace(summary, var1_obs=-60.0), goals,
                               COST_1A, BOUNDS_1A)


CONTINUOUS_SUMMARY = ArmSummary(120.0, 40.0, 120.0 * 8.0, 40.0 * 7.0, 120.0, 40.0,
                                var1_obs=60.0, var0_obs=64.0)
BAD_CONTINUOUS_SUMMARIES = [
    ({"n1_obs": 0.0, "s1_obs": 0.0}, "n1_obs must be positive"),
    ({"n1_obs": 1.0, "s1_obs": 8.0, "n1_future": 0.0}, r"n1_obs \+ n1_future must not be 1"),
    ({"n1_obs": 0.5, "s1_obs": 4.0, "n1_future": 0.0, "n0_obs": 1.5, "s0_obs": 10.5,
      "n0_future": 0.0}, r"n1_obs \+ n1_future \+ n0_obs \+ n0_future must not be 2"),
    ({"var1_obs": None}, "var1_obs is required"),
    ({"var0_obs": None}, "var0_obs is required"),
]


@pytest.mark.parametrize("kind", ["t_unpooled", "t_pooled"])
@pytest.mark.parametrize("approach", ["unconditional", "conditional"])
@pytest.mark.parametrize("edit, message", BAD_CONTINUOUS_SUMMARIES,
                         ids=["n1_obs=0", "N1=1", "N1+N0=2", "no-var1", "no-var0"])
def test_a_continuous_test_refuses_an_arm_summary_its_formulas_cannot_divide_by(
        kind, approach, edit, message):
    # The arm mean divided by n1_obs = 0, the variance projections by
    # N1 - 1 = 0 and (pooled) N1 + N0 - 2 = 0: ZeroDivisionError tracebacks.
    # A missing variance failed inside the search, naming no arm_summary field.
    model = FittedModel(beta=np.array([7.0, 0.8, 0.2]), link="identity",
                        covariance=np.eye(3), n_used=160, kind="continuous", sigma2=64.0)
    goals = GoalSpec(power_goal=0.8, test=Selector(kind), approach=approach)
    bad = dataclasses.replace(CONTINUOUS_SUMMARY, **edit)
    with pytest.raises(ValueError, match=f"arm_summary {message}"):
        recommend_from_summary(model, bad, goals, COST_1A, BOUNDS_1A)


# ---------------------------------------------------------------------------
# shrinking fallback
# ---------------------------------------------------------------------------

def test_shrinking_small_effects_stay_at_stage1():
    m = make_model([0.0, 0.05, 0.02])
    x = shrinking_method(m, BOUNDS_1A, [1.0, 4.0], 0.9)
    assert x == pytest.approx([1.0, 4.0], abs=0.0)


def test_shrinking_effect_at_needed_size_moves_to_bound():
    # choose the goal so component 1's needed effect equals its fitted effect
    b0, b1, b2 = 0.0, 0.6, 0.02
    best2 = max(b2 * 0.0, b2 * 8.0)
    g_t = b1 * 2.0 + best2 + b0  # beta_max for component 1 equals b1
    m = make_model([b0, b1, b2])
    x = shrinking_method(m, BOUNDS_1A, [1.0, 4.0], sp_expit(g_t))
    assert x[0] == pytest.approx(2.0, abs=1e-12)


def test_shrinking_interpolates_between_halves():
    b0 = 0.0
    m = make_model([b0, 0.45, 0.02])
    best2 = 0.02 * 8.0
    g_t = 0.6 * 2.0 + best2  # beta_max = 0.6, beta_min = 0.3
    x = shrinking_method(m, BOUNDS_1A, [1.0, 4.0], sp_expit(g_t))
    frac = (0.45 - 0.3) / (0.6 - 0.3)
    assert x[0] == pytest.approx(1.0 + frac * (2.0 - 1.0), abs=1e-12)


def test_shrinking_respects_bounds():
    m = make_model([0.0, 2.0, 2.0])
    x = shrinking_method(m, BOUNDS_1A, [1.5, 7.0], 0.99)
    assert np.all(x >= [0.0, 0.0]) and np.all(x <= [2.0, 8.0])


@pytest.mark.parametrize("anchor", [[math.nan, 1.0], [1.0, math.inf]])
def test_shrinking_refuses_a_non_finite_anchor(anchor):
    # The nan anchor gave a shrinking-fallback package (nan, 5.221) at cost nan.
    with pytest.raises(ValueError, match="stage1_x must be finite"):
        recommend_from_summary(_assumed((0.1, 0.3, 0.15)), None, GoalSpec(outcome_goal=0.9),
                               COST_1A, BOUNDS_1A, stage1_x=anchor)
    with pytest.raises(ValueError, match="stage1_x must be finite"):
        shrinking_method(MODEL_1A, BOUNDS_1A, anchor, 0.9)


# ---------------------------------------------------------------------------
# stage-1 planning
# ---------------------------------------------------------------------------

def test_plan_stage1_without_power_goal_is_plain_min_cost():
    rec = plan_stage1(
        [0.1, 0.3, 0.15], GoalSpec(outcome_goal=0.7), CUBIC, BOUNDS_1A,
        [(160.0, 40.0), (120.0, 40.0)],
    )
    x = min_cost_subject_to_threshold(MODEL_1A, CUBIC, BOUNDS_1A, 0.7)
    assert (rec.x_hat == x).all()
    assert rec.regime == "goal-feasible"


def test_plan_stage1_power_goal_plugs_back():
    goals = GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled"))
    sizes = [(160.0, 40.0), (160.0, 40.0)]
    rec = plan_stage1([0.1, 0.3, 0.15], goals, CUBIC, BOUNDS_1A, sizes)
    assert rec.regime == "goal-feasible"
    assert rec.projected_power >= 0.8 - 1e-6
    summary = ArmSummary(0.0, 0.0, 0.0, 0.0, 320.0, 80.0, design_obs=())
    if rec.required_threshold > 0.7 + 1e-9:  # the power row binds
        lam = lambda_at_level(
            rec.required_threshold, MODEL_1A, summary, Selector("z_unpooled")
        )
        assert lam == pytest.approx(lambda_min(0.05, 0.8), abs=1e-6)


def test_plan_stage1_infeasible_raises():
    goals = GoalSpec(outcome_goal=0.9)
    with pytest.raises(InfeasibleError):
        plan_stage1([0.0, 0.05, 0.01], goals, CUBIC, BOUNDS_1A, [(160.0, 40.0)])


@pytest.mark.parametrize("sizes, goals", [
    ([(math.nan, 40.0)], GoalSpec(outcome_goal=0.7)),
    ([(math.inf, 40.0)], GoalSpec(outcome_goal=0.7)),
    ([(160.0, 40.0), (-100.0, 40.0)], GoalSpec(outcome_goal=0.7)),
    ([(0.0, 40.0), (0.0, 40.0)],
     GoalSpec(outcome_goal=0.7, power_goal=0.8, test=Selector("z_unpooled"))),
])
def test_plan_stage1_refuses_bad_planned_sizes(sizes, goals):
    with pytest.raises(ValueError, match="planned_sizes"):
        plan_stage1([0.1, 0.3, 0.15], goals, CUBIC, BOUNDS_1A, sizes)


def test_a_cost_that_overflows_on_the_box_is_a_non_finite_error():
    # x1^3 - x2^3 on [0, 1e110]^2 overflows to -inf, so no candidate is within
    # the tie tolerance of the minimum.
    cost = CostFunction(((0, 3, 1.0), (1, 3, -1.0)))
    model = FittedModel(np.array([0.0, 1e-110, 1e-110]), "logit", np.zeros((3, 3)), 0, "assumed")
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="not finite"):
        min_cost_subject_to_threshold(model, cost, ((0.0, 1e110), (0.0, 1e110)), 0.6)


def test_plan_stage1_accepts_single_total_pair():
    rec = plan_stage1(
        [0.1, 0.3, 0.15], GoalSpec(outcome_goal=0.7), CUBIC, BOUNDS_1A,
        (280.0, 80.0),
    )
    assert rec.regime == "goal-feasible"


# ---------------------------------------------------------------------------
# goal validation and serialization
# ---------------------------------------------------------------------------

def test_goalspec_requires_some_goal():
    with pytest.raises(ValueError):
        GoalSpec()


def test_goalspec_power_goal_needs_test():
    with pytest.raises(ValueError):
        GoalSpec(outcome_goal=0.7, power_goal=0.8)


def test_goalspec_conditional_wald_rejected():
    with pytest.raises(ValueError):
        GoalSpec(
            outcome_goal=0.7, power_goal=0.8,
            test=Selector("wald_pdf_binary"), approach="conditional",
        )


def test_goalspec_test_must_be_a_selector():
    with pytest.raises(ValueError, match="TestSelector"):
        GoalSpec.from_config({"outcome_goal": 0.7, "test": 5})
    # from_config turns a kind string into a selector; the constructor does not
    with pytest.raises(ValueError, match="TestSelector"):
        GoalSpec(outcome_goal=0.7, test="z_unpooled")


@pytest.mark.parametrize("entry, field", [
    ({"outcome_goal": True}, "outcome_goal"),
    ({"outcome_goal": "0.6"}, "outcome_goal"),
    ({"outcome_goal": math.nan}, "outcome_goal"),
    ({"outcome_goal": -math.inf}, "outcome_goal"),
    ({"outcome_goal": 0.6, "power_goal": "0.8", "test": "z_unpooled"}, "power_goal"),
    ({"outcome_goal": 0.6, "power_goal": False, "test": "z_unpooled"}, "power_goal"),
    ({"outcome_goal": 0.6, "alpha": "0.05"}, "alpha"),
    ({"outcome_goal": 0.6, "alpha": None}, "alpha"),
])
def test_goalspec_refuses_a_goal_it_cannot_read(entry, field):
    with pytest.raises(ValueError, match=field):
        GoalSpec.from_config(entry)


def test_goalspec_config_round_trip():
    g = GoalSpec(
        outcome_goal=0.1, direction="decrease", power_goal=0.8,
        test=Selector("z_unpooled"), approach="conditional",
    )
    assert GoalSpec.from_config(g.to_config()) == g


# ---------------------------------------------------------------------------
# integer packages
# ---------------------------------------------------------------------------

def test_integerize_picks_cheapest_feasible_rounding():
    x = integerize([0.5016, 3.9789], MODEL_1A, CUBIC, BOUNDS_1A, 0.7)
    assert x == pytest.approx([1.0, 3.0], abs=0.0)
    assert MODEL_1A.linear_predictor(x) >= sp_logit(0.7) - 1e-9


def test_integerize_falls_back_to_best_level():
    # threshold reachable only on the fractional box: rounding down both
    # components breaks it and rounding up leaves the bounds, so the best
    # achievable integer level wins
    m = make_model([0.0, 1.0, 1.0])
    cost = CostFunction.linear([1.0, 1.0])
    x = integerize([0.6, 0.6], m, cost, [(0.0, 0.9), (0.0, 0.9)], sp_expit(1.2))
    assert x == pytest.approx([0.0, 0.0], abs=0.0)


@pytest.mark.parametrize("x, match", [
    ([0.5, 3.9, 1.0], r"x must be 2 finite numbers, got \[0.5, 3.9, 1.0\]"),
    ([0.5], r"x must be 2 finite numbers, got \[0.5\]"),
    ([math.inf, 3.9], r"x must be 2 finite numbers, got \[inf, 3.9\]"),
    ([0.5, math.nan], r"x must be 2 finite numbers, got \[0.5, nan\]"),
])
def test_integerize_checks_its_package(x, match):
    # three entries raised an IndexError, inf an OverflowError, nan a
    # ValueError from int(), and one entry numpy's matmul error
    with pytest.raises(ValueError, match=match):
        integerize(x, MODEL_1A, CUBIC, BOUNDS_1A, 0.7)


@pytest.mark.parametrize("x, want", [
    ([0.5016, 3.9789], [1.0, 3.0]),
    (np.array([0, 4], dtype=np.int64), [0.0, 4.0]),
])
def test_integerize_takes_a_list_or_an_integer_array(x, want):
    got = integerize(x, MODEL_1A, CUBIC, BOUNDS_1A, 0.7)
    assert got.dtype == np.float64
    assert got.tolist() == want


# ---------------------------------------------------------------------------
# Wald noncentrality
# ---------------------------------------------------------------------------

def test_wald_lambda_matches_unconditional_lambda():
    state = scenario_state()
    summary = ArmSummary.from_records(state.completed, future=(120.0, 40.0))
    x = np.array([1.2, 5.0])
    lam = _wald_lambda_binary(MODEL_1A, summary, x)
    assert lam == unconditional_lambda(x, MODEL_1A, summary, Selector("wald_pdf_binary"))

"""The power threshold as a bracketed root, against the bisection it replaced.

``optimizer._threshold_core`` solves a signed residual with Brent's zeroin;
its subject here is the one-lane call, as ``power_threshold`` makes it.  The
oracle is the earlier search, kept verbatim: 60 halvings of the bracket on
the boolean "power goal certified at this level".  On seeded random problems
(every 1-df test kind, both approaches and conditional scales, both
directions, logit and identity links, and the binary Wald test) the two must
take the same early return or raise the same error, and otherwise land on
the same level to the root finder's tolerance, with the goal certified at
the returned level.  The one-lane call must also equal the scalar search it
replaced (``test_decision_lanes._scalar_threshold_core``) exactly: the same
level to the last bit, or the same error type and message.
"""

import math
from collections import Counter

import numpy as np
import pytest

from lago import optimizer, power
from lago.cost import CostFunction
from lago.errors import NoThresholdError
from lago.model import CenterData, FittedModel, StageRecord, fit_binary
from lago.optimizer import (
    GoalSpec,
    _bounds_arrays,
    _eta_extremes,
    _raw_level,
    _threshold_core,
    _work_model,
    min_cost_subject_to_threshold,
    recommend_from_summary,
)
from lago.power import (
    _THRESHOLD_RTOL,
    ArmSummary,
    TestSelector as Selector,
    _passing_root,
    conditional_slack_at_level,
    projected_drift_at_level,
    unconditional_power,
    unconditional_power_at_level,
)
from test_decision_lanes import _scalar_threshold_core

CUBIC = CostFunction(terms=(
    (0, 3, 2.0), (0, 2, -1.19), (0, 1, 10.0), (None, 0, 10.0),
    (1, 3, 0.1), (1, 2, -0.2), (1, 1, 2.0),
))
BOUNDS = [(0.0, 2.0), (0.0, 8.0)]


def _certified(model, summary, goals, cost, bounds):
    """The boolean the bisection searched: is the goal certified at eta_w?"""
    test, alpha, pi = goals.test, goals.alpha, goals.power_goal
    direction = goals.direction
    sign = 1.0 if direction == "increase" else -1.0

    def ok(eta_w):
        raw = _raw_level(model.link, eta_w, direction)
        if test.wald:
            x = min_cost_subject_to_threshold(model, cost, bounds, raw, direction)
            return unconditional_power(x, model, summary, test, alpha) >= pi
        if goals.approach == "unconditional":
            drift = projected_drift_at_level(raw, model, summary)
            if sign * drift <= 0.0:
                return False
            return unconditional_power_at_level(raw, model, summary, test, alpha) >= pi
        slack = conditional_slack_at_level(
            raw, model, summary, test, alpha, pi,
            direction=direction, scale=goals.conditional_scale,
        )
        return slack <= 0.0

    return ok


def bisect_threshold(model, summary, goals, cost, bounds):
    """(raw_level, eta_work) by 60 bisection steps on the certified boolean."""
    lo, hi = _bounds_arrays(bounds, model.n_components)
    wm = _work_model(model, goals.direction)
    eta_lo = wm.intercept
    _, eta_hi = _eta_extremes(wm, lo, hi)
    ok = _certified(model, summary, goals, cost, bounds)
    if ok(eta_lo):
        return _raw_level(model.link, eta_lo, goals.direction), eta_lo
    if not ok(eta_hi):
        raise NoThresholdError("the power goal is not certified anywhere inside the bounds")
    for _ in range(60):
        mid = 0.5 * (eta_lo + eta_hi)
        if ok(mid):
            eta_hi = mid
        else:
            eta_lo = mid
    return _raw_level(model.link, eta_hi, goals.direction), eta_hi


def one_lane(model, summary, goals, cost, lo, hi):
    """(raw_level, eta_work) of ``_threshold_core`` on one lane, as
    ``power_threshold`` calls it: the lane's error or NoThresholdError raised."""
    _, eta_max = _eta_extremes(_work_model(model, goals.direction), lo, hi)
    out = [None]
    _, (eta,) = _threshold_core([model], [summary], goals, cost, lo, hi,
                                np.array([model.beta], dtype=float), np.array([eta_max]), out)
    if out[0] is not None:
        raise out[0]
    if math.isnan(eta):
        raise NoThresholdError("the power goal is not certified anywhere inside the bounds")
    return _raw_level(model.link, float(eta), goals.direction), float(eta)


def _outcome(search, *args):
    try:
        return repr(tuple(map(float, search(*args))))
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return f"{type(exc).__name__}: {exc}"


def compare(model, summary, goals, cost=CUBIC, bounds=BOUNDS) -> str:
    """Assert root == bisection on one problem, and the one-lane search ==
    the scalar one exactly; returns which path it took."""
    lo, hi = _bounds_arrays(bounds, model.n_components)
    args = (model, summary, goals, cost, lo, hi)
    assert _outcome(one_lane, *args) == _outcome(_scalar_threshold_core, *args)
    try:
        expected = bisect_threshold(model, summary, goals, cost, bounds)
    except NoThresholdError:
        with pytest.raises(NoThresholdError):
            one_lane(*args)
        return "none"
    raw, eta = one_lane(*args)
    control = _work_model(model, goals.direction).intercept
    if expected[1] == control:
        assert (raw, eta) == expected
        return "control"
    assert eta != control
    assert abs(eta - expected[1]) <= 2e-12 * max(1.0, abs(eta))
    assert _certified(model, summary, goals, cost, bounds)(eta)
    assert raw == _raw_level(model.link, eta, goals.direction)
    return "root"


def _binary_model(rng, link, sign):
    if link == "logit":
        beta = [rng.uniform(-0.6, 0.6), rng.uniform(-0.1, 0.6), rng.uniform(-0.05, 0.2)]
    else:
        beta = [rng.uniform(0.4, 0.6), rng.uniform(-0.02, 0.08), rng.uniform(-0.005, 0.03)]
    beta = np.asarray(beta) * [1.0, sign, sign]
    return FittedModel(
        beta=beta, link=link, covariance=np.eye(3), n_used=400, kind="binary"
    )


def _binary_summary(rng, model, sign):
    n1, n0 = float(rng.integers(40, 200)), float(rng.integers(20, 100))
    p0 = float(np.clip(model.intercept if model.link == "identity"
                       else 1.0 / (1.0 + math.exp(-model.intercept)), 0.05, 0.95))
    p1 = float(np.clip(p0 + sign * rng.uniform(-0.1, 0.2), 0.05, 0.95))
    return ArmSummary(
        n1_obs=n1, n0_obs=n0,
        s1_obs=float(rng.binomial(int(n1), p1)), s0_obs=float(rng.binomial(int(n0), p0)),
        n1_future=float(rng.integers(20, 400)), n0_future=float(rng.integers(10, 200)),
    )


def _continuous_problem(rng, direction):
    sign = 1.0 if direction == "increase" else -1.0
    beta = np.array([rng.uniform(5.0, 10.0), sign * rng.uniform(-0.5, 2.0),
                     sign * rng.uniform(-0.1, 0.5)])
    model = FittedModel(
        beta=beta, link="identity", covariance=np.eye(3), n_used=400,
        kind="continuous", sigma2=64.0,
    )
    n1, n0 = float(rng.integers(40, 400)), float(rng.integers(20, 200))
    shift = sign * rng.uniform(-1.0, 3.0)
    summary = ArmSummary(
        n1_obs=n1, n0_obs=n0,
        s1_obs=n1 * (beta[0] + shift), s0_obs=n0 * beta[0],
        n1_future=float(rng.integers(20, 800)), n0_future=float(rng.integers(10, 400)),
        var1_obs=rng.uniform(20.0, 100.0), var0_obs=rng.uniform(20.0, 100.0),
    )
    return model, summary


BINARY_CASES = [
    (kind, approach, scale, direction, link)
    for kind in ("z_unpooled", "z_pooled")
    for approach, scale in (("unconditional", "sd"), ("conditional", "sd"),
                            ("conditional", "variance"))
    for direction in ("increase", "decrease")
    for link in ("logit", "identity")
]
CONTINUOUS_CASES = [
    (kind, approach, scale, direction)
    for kind in ("t_unpooled", "t_pooled")
    for approach, scale in (("unconditional", "sd"), ("conditional", "sd"),
                            ("conditional", "variance"))
    for direction in ("increase", "decrease")
]


@pytest.mark.parametrize("kind, approach, scale, direction, link", BINARY_CASES)
def test_binary_threshold_matches_bisection(kind, approach, scale, direction, link):
    rng = np.random.default_rng([len(BINARY_CASES), BINARY_CASES.index(
        (kind, approach, scale, direction, link))])
    paths = []
    for _ in range(40):
        sign = 1.0 if direction == "increase" else -1.0
        model = _binary_model(rng, link, sign)
        summary = _binary_summary(rng, model, sign)
        goals = GoalSpec(
            outcome_goal=None, direction=direction, power_goal=rng.uniform(0.5, 0.9),
            test=Selector(kind), approach=approach, conditional_scale=scale,
        )
        paths.append(compare(model, summary, goals))
    assert paths.count("root") >= 10, paths


@pytest.mark.parametrize("kind, approach, scale, direction", CONTINUOUS_CASES)
def test_continuous_threshold_matches_bisection(kind, approach, scale, direction):
    rng = np.random.default_rng([99, CONTINUOUS_CASES.index(
        (kind, approach, scale, direction))])
    paths = []
    for _ in range(40):
        model, summary = _continuous_problem(rng, direction)
        goals = GoalSpec(
            outcome_goal=None, direction=direction, power_goal=rng.uniform(0.5, 0.9),
            test=Selector(kind), approach=approach, conditional_scale=scale,
        )
        paths.append(compare(model, summary, goals))
    assert paths.count("root") >= 10, paths


def _center(arm, package, n, successes):
    y = np.concatenate([np.ones(successes), np.zeros(n - successes)])
    return CenterData(arm=arm, package=np.asarray(package, dtype=float), outcomes=y)


def _counting(monkeypatch, calls, module, name):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("approach", ["unconditional", "conditional"])
def test_a_decision_computes_its_level_free_parts_once(monkeypatch, approach):
    # However many levels the threshold search evaluates, the control level
    # (one link_inverse), z_{alpha/2} and z_pi are computed once, and the
    # bracket's best level once per decision.
    calls = Counter()
    _counting(monkeypatch, calls, power, "link_inverse")
    _counting(monkeypatch, calls, power, "norm_quantile")
    _counting(monkeypatch, calls, power, "_arm_moments")
    _counting(monkeypatch, calls, optimizer, "_eta_extremes")
    rng = np.random.default_rng(13)
    searched = 0
    for _ in range(20):
        model = _binary_model(rng, "logit", 1.0)
        summary = _binary_summary(rng, model, 1.0)
        goals = GoalSpec(outcome_goal=0.3, power_goal=rng.uniform(0.5, 0.9),
                         test=Selector("z_pooled"), approach=approach)
        calls.clear()
        recommend_from_summary(model, summary, goals, CUBIC, BOUNDS)
        evaluations = calls["_arm_moments"]
        assert calls["_eta_extremes"] == 1, calls
        # the recommendation's projected power builds one more projection
        assert calls["link_inverse"] <= 2 and calls["norm_quantile"] <= 4, calls
        searched += evaluations > 5
    assert searched >= 5


@pytest.mark.parametrize("direction", ["increase", "decrease"])
def test_wald_threshold_matches_bisection(direction):
    rng = np.random.default_rng([7, direction == "increase"])
    sign = 1.0 if direction == "increase" else -1.0
    paths = []
    for _ in range(8):
        packages = [(0.0, 0.0), (1.0, 0.0), (0.0, 4.0), (1.0, 4.0), (2.0, 8.0)]
        beta = np.array([0.1, sign * 0.15, sign * 0.075]) + rng.normal(0.0, 0.05, 3)
        centers = []
        for j, x in enumerate(packages):
            p = 1.0 / (1.0 + math.exp(-(beta[0] + beta[1:] @ np.asarray(x))))
            centers.append(_center(int(j > 0), x, 15, int(rng.binomial(15, p))))
        records = [StageRecord(stage_index=1, centers=centers)]
        model = fit_binary(records)
        summary = ArmSummary.from_records(records, future=(100.0, 30.0))
        goals = GoalSpec(
            outcome_goal=None, direction=direction, power_goal=rng.uniform(0.5, 0.85),
            test=Selector("wald_pdf_binary"),
        )
        paths.append(compare(model, summary, goals))
    assert paths.count("root") >= 2, paths


def _wald_problem(rng, direction):
    sign = 1.0 if direction == "increase" else -1.0
    packages = [(0.0, 0.0), (1.0, 0.0), (0.0, 4.0), (1.0, 4.0), (2.0, 8.0)]
    beta = np.array([0.1, sign * 0.15, sign * 0.075]) + rng.normal(0.0, 0.05, 3)
    centers = []
    for j, x in enumerate(packages):
        p = 1.0 / (1.0 + math.exp(-(beta[0] + beta[1:] @ np.asarray(x))))
        centers.append(_center(int(j > 0), x, 15, int(rng.binomial(15, p))))
    records = [StageRecord(stage_index=1, centers=centers)]
    goals = GoalSpec(
        outcome_goal=None, direction=direction, power_goal=rng.uniform(0.5, 0.85),
        test=Selector("wald_pdf_binary"),
    )
    return fit_binary(records), ArmSummary.from_records(records, future=(100.0, 30.0)), goals


def _wald_root_uncached(model, summary, goals, cost, lo, hi):
    """``_threshold_core``'s Wald search with the residual it had before the
    critical value was cached: ``unconditional_power`` on the bare summary,
    which computes the chi-square quantile on every call."""
    direction = goals.direction

    def residual(eta_w):
        raw = _raw_level(model.link, eta_w, direction)
        x = optimizer._min_cost_at_level(model, cost, lo, hi, raw, direction)
        return unconditional_power(x, model, summary, goals.test, goals.alpha) - goals.power_goal

    wm = _work_model(model, direction)
    eta_lo = wm.intercept
    _, eta_hi = _eta_extremes(wm, lo, hi)
    f_lo = residual(eta_lo)
    if f_lo >= 0.0:
        return eta_lo
    f_hi = residual(eta_hi)
    if not f_hi >= 0.0:
        return None
    return _passing_root(residual, eta_lo, eta_hi, f_lo, f_hi)[0]


@pytest.mark.parametrize("direction", ["increase", "decrease"])
def test_a_wald_search_computes_its_critical_value_once(monkeypatch, direction):
    rng = np.random.default_rng([8, direction == "increase"])
    lo, hi = _bounds_arrays(BOUNDS, 2)
    calls = Counter()
    _counting(monkeypatch, calls, power, "chisq_quantile")
    searched = 0
    for _ in range(12):
        model, summary, goals = _wald_problem(rng, direction)
        calls.clear()
        try:
            eta = one_lane(model, summary, goals, CUBIC, lo, hi)[1]
        except NoThresholdError:
            eta = None
        assert calls["chisq_quantile"] == 1, calls
        calls.clear()
        want = _wald_root_uncached(model, summary, goals, CUBIC, lo, hi)
        assert repr(None if eta is None else float(eta)) == repr(
            None if want is None else float(want))
        # the uncached residual computed the quantile once per evaluation
        searched += calls["chisq_quantile"] > 2
    assert searched >= 2


def _counted(f):
    calls = [0]

    def residual(x):
        calls[0] += 1
        return f(x)

    return residual, calls


def _solve(f, a, b):
    residual, calls = _counted(f)
    x, fx = _passing_root(residual, a, b, residual(a), residual(b))
    return x, fx, calls[0]


@pytest.mark.parametrize("reverse", [False, True])
def test_root_on_sign_only_step(reverse):
    rng = np.random.default_rng([3, reverse])
    for _ in range(200):
        s = rng.uniform(-5.0, 5.0)
        if reverse:  # passing side below the step, bracket given high to low
            a, b, f = 5.0, -5.0, (lambda x: 1.0 if x <= s else -1.0)
        else:
            a, b, f = -5.0, 5.0, (lambda x: 1.0 if x >= s else -1.0)
        x, fx, calls = _solve(f, a, b)
        assert fx == 1.0 and f(x) == 1.0
        assert abs(x - s) <= _THRESHOLD_RTOL * max(1.0, abs(s))
        assert calls <= 64


@pytest.mark.parametrize("failing", [-math.inf, math.nan])
def test_root_across_a_jump_to_minus_infinity_or_nan(failing):
    rng = np.random.default_rng(4)
    for _ in range(200):
        s1 = rng.uniform(-5.0, 0.0)
        s2 = rng.uniform(s1, 5.0)
        scale = rng.uniform(0.1, 10.0)

        def f(x):
            return failing if x < s1 else math.tanh(scale * (x - s2))

        x, fx, calls = _solve(f, -5.0, 5.0)
        assert fx >= 0.0
        assert abs(x - s2) <= _THRESHOLD_RTOL * max(1.0, abs(s2)) * (1.0 + 1e-9)
        assert calls <= 64

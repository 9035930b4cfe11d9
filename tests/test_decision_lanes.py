"""Differential tests for the lockstep decision of many lanes.

``optimizer._recommend_lanes`` decides every lane of a call as arrays, and
its one threshold search, ``optimizer._threshold_core``, runs every lane's
Brent search in lockstep through ``power._passing_roots``: the 1-df lanes
of its lane projection are evaluated all at once, every other lane by the
scalar residual.  The per-lane decision it replaced (``_decide`` and
``_assemble`` around the scalar ``_threshold_core``, here
``_scalar_threshold_core``) is kept here verbatim as the oracle: every
lane's Recommendation must equal it bitwise, or fail with the same error
type and message, whatever the lane order or the chunking of the lanes into
calls.  ``_passing_roots`` is held to the scalar ``_passing_root`` the same
way, down to the points each lane evaluates.
"""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import lago
from lago import optimizer, sim
from lago.cost import CostFunction
from lago.errors import InfeasibleError, NonFiniteError, NoThresholdError
from lago.model import FittedModel, link_forward, link_inverse, predict
from lago.optimizer import (
    _LANE_ERRORS,
    REGIME_GOAL,
    REGIME_PMAX,
    REGIME_SHRINK,
    GoalSpec,
    Recommendation,
    _check_level_domain,
    _eta_extremes,
    _min_cost_at_level,
    _min_cost_lanes,
    _projected_power,
    _raw_level,
    _recommend_lanes,
    _work_model,
    shrinking_method,
)
from lago.power import (
    _THRESHOLD_RTOL,
    ArmSummary,
    TestSelector as Selector,
    _passing_root,
    _passing_roots,
    _Projection,
    conditional_slack_at_level,
    projected_drift_at_level,
    unconditional_power,
    unconditional_power_at_level,
)
from test_lockstep import SPECS

# ---------------------------------------------------------------------------
# the per-lane decision (the oracle)


def _scalar_threshold_core(model, summary, goals: GoalSpec, cost, lo, hi, eta_hi=None):
    """Smallest future outcome level that certifies the power goal.

    Returns (raw_level, eta_work).  The bracket runs on the working linear
    predictor from the control level to the best level attainable in the
    validated bounds (lo, hi), ``eta_hi`` when the caller has it.  Inside
    it the threshold is the root of a signed residual that is >= 0 exactly
    where the goal is certified (so nan fails): power - pi
    (-inf while the projected drift points the wrong way) for the
    unconditional approach, -slack for the conditional one, and the power of
    the cost-minimal package minus pi for the Wald test.
    ``_passing_root`` narrows the bracket below ``_THRESHOLD_RTOL`` relative
    width and the passing end is returned, so the certificate always holds
    at the reported level.  The residuals share one ``_Projection``, so
    the level-free parts of the power (the Wald critical value among them)
    are computed once per search.
    """
    test, alpha, pi = goals.test, goals.alpha, goals.power_goal
    direction = goals.direction
    sign = 1.0 if direction == "increase" else -1.0
    wm = _work_model(model, direction)
    eta_lo = wm.intercept
    if eta_hi is None:
        _, eta_hi = _eta_extremes(wm, lo, hi)
    summary = _Projection(model, summary, test, alpha, pi)

    def residual(eta_w: float) -> float:
        raw = _raw_level(model.link, eta_w, direction)
        if test.wald:
            x = _min_cost_at_level(model, cost, lo, hi, raw, direction)
            return unconditional_power(x, model, summary, test, alpha) - pi
        if goals.approach == "unconditional":
            drift = projected_drift_at_level(raw, model, summary)
            if sign * drift <= 0.0:
                return -math.inf
            return unconditional_power_at_level(raw, model, summary, test, alpha) - pi
        return -conditional_slack_at_level(
            raw, model, summary, test, alpha, pi,
            direction=direction, scale=goals.conditional_scale,
        )

    f_lo = residual(eta_lo)
    if f_lo >= 0.0:
        return _raw_level(model.link, eta_lo, direction), eta_lo
    f_hi = residual(eta_hi)
    if not f_hi >= 0.0:
        raise NoThresholdError(
            "the power goal is not certified anywhere inside the bounds"
        )
    eta, _ = _passing_root(residual, eta_lo, eta_hi, f_lo, f_hi)
    return _raw_level(model.link, eta, direction), eta


def _decide(model: FittedModel, summary, goals: GoalSpec, cost, lo, hi):
    """One lane's regime and working level inside validated bounds (lo, hi).

    Returns (work model, regime, eta_eff, eta_max_w, eta_goal_w); eta_eff
    is None in the shrinking-fallback regime.
    """
    direction = goals.direction
    link = model.link
    wm = _work_model(model, direction)
    _, eta_max_w = _eta_extremes(wm, lo, hi)
    ftol = 1e-9 * max(1.0, abs(eta_max_w))

    eta_goal_w = None
    if goals.outcome_goal is not None:
        _check_level_domain(link, goals.outcome_goal, what="outcome_goal")
        g = float(link_forward(link, goals.outcome_goal))
        eta_goal_w = g if direction == "increase" else -g

    eta_pow_w = None
    pow_attainable = None
    if goals.power_goal is not None:
        if summary is None:
            raise ValueError("a power goal needs observed/planned arm sizes")
        try:
            _, eta_pow_w = _scalar_threshold_core(model, summary, goals, cost, lo, hi, eta_max_w)
            pow_attainable = True
        except NoThresholdError:
            pow_attainable = False

    if eta_goal_w is None:
        # Power goal alone: its threshold if one exists, else the best level.
        if pow_attainable:
            eta_eff, regime = eta_pow_w, REGIME_GOAL
        else:
            eta_eff, regime = eta_max_w, REGIME_PMAX
    else:
        if goals.power_goal is None:
            candidate = eta_goal_w
        elif pow_attainable:
            candidate = max(eta_goal_w, eta_pow_w)
        else:
            candidate = math.inf
        if candidate <= eta_max_w + ftol:
            eta_eff, regime = candidate, REGIME_GOAL
        elif eta_goal_w <= eta_max_w + ftol:
            eta_eff, regime = eta_max_w, REGIME_PMAX
        else:
            eta_eff, regime = None, REGIME_SHRINK
    return wm, regime, eta_eff, eta_max_w, eta_goal_w


def _assemble(model, summary, goals: GoalSpec, cost, x, regime, required) -> Recommendation:
    """A lane's Recommendation for its package ``x``."""
    power = None if goals.power_goal is None else _projected_power(x, model, summary, goals)
    return Recommendation(
        x_hat=x,
        regime=regime,
        achieved_outcome=predict(model, x),
        required_threshold=required,
        projected_power=power,
        cost=float(cost(x)),
    )


def _recommend_lanes_oracle(models, summaries, goals: GoalSpec, cost, lo, hi, anchors) -> list:
    """Each lane decided on its own (``_decide``); the goal-feasible and pmax
    lanes then get their packages from one ``_min_cost_lanes`` call, and the
    shrinking lanes from the shrinking fallback."""
    out = [None] * len(models)
    plans = {}  # lane -> [regime, required level, package]
    solve = []  # (lane, work model, working level) awaiting a min-cost package
    for i, (model, summary, anchor) in enumerate(zip(models, summaries, anchors)):
        try:
            wm, regime, eta_eff, eta_max_w, eta_goal_w = _decide(
                model, summary, goals, cost, lo, hi
            )
            if regime != REGIME_SHRINK:
                plans[i] = [regime, _raw_level(model.link, eta_eff, goals.direction), None]
                solve.append((i, wm, min(eta_eff, eta_max_w)))
                continue
            if anchor is None:
                raise InfeasibleError(
                    "no package inside the bounds reaches the outcome goal, and "
                    "the shrinking fallback has no stage-1 anchor package"
                )
            goal_w = float(link_inverse(model.link, eta_goal_w))
            x = shrinking_method(wm, np.column_stack((lo, hi)), anchor, goal_w)
            plans[i] = [regime, float(goals.outcome_goal), x]
        except _LANE_ERRORS as exc:
            out[i] = exc
    if solve:
        packages = _min_cost_lanes(
            [wm.intercept for _, wm, _ in solve], [wm.effects for _, wm, _ in solve],
            cost, lo, hi, [eta for _, _, eta in solve],
        )
        for (i, _, _), x in zip(solve, packages):
            plans[i][2] = x
    for i, (regime, required, x) in plans.items():
        if isinstance(x, Exception):
            out[i] = x
            continue
        try:
            out[i] = _assemble(models[i], summaries[i], goals, cost, x, regime, required)
        except _LANE_ERRORS as exc:
            out[i] = exc
    return out


# ---------------------------------------------------------------------------
# comparison


def _assert_same_lane(got, want, lane=None):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (lane, got, want)
        return
    assert isinstance(got, Recommendation), (lane, got)
    assert got.x_hat.dtype == want.x_hat.dtype and got.x_hat.shape == want.x_hat.shape
    assert got.x_hat.tobytes() == want.x_hat.tobytes(), (lane, got.x_hat, want.x_hat)
    for name in ("regime", "achieved_outcome", "required_threshold", "projected_power", "cost"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), (lane, name, got, want)


def _outcome(call, *args):
    """A call's list of lane results, or the exception the whole call raised."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return exc


def _assert_same_call(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert isinstance(got, list) and len(got) == len(want), got
    for lane, (g, w) in enumerate(zip(got, want)):
        _assert_same_lane(g, w, lane)


def _take(lanes, order):
    return [[column[i] for i in order] for column in lanes]


def check_against_oracle(models, summaries, goals, cost, lo, hi, anchors, rng):
    """The lockstep decision equals the oracle on the lanes as given, in a
    shuffled order, and split into chunks."""
    lanes = (models, summaries, anchors)

    def call(decide, order):
        ms, ss, anchs = _take(lanes, order)
        return _outcome(decide, ms, ss, goals, cost, lo, hi, anchs)

    order = list(range(len(models)))
    want = call(_recommend_lanes_oracle, order)
    _assert_same_call(call(_recommend_lanes, order), want)
    if isinstance(want, Exception):
        return want
    shuffled = rng.permutation(len(models)).tolist()
    got = call(_recommend_lanes, shuffled)
    _assert_same_call(got, [want[i] for i in shuffled])
    cuts = sorted(rng.choice(np.arange(1, len(models)), size=min(2, len(models) - 1),
                             replace=False).tolist()) if len(models) > 1 else []
    for part in np.split(np.arange(len(models)), cuts):
        _assert_same_call(call(_recommend_lanes, part.tolist()), [want[i] for i in part])
    return want


# ---------------------------------------------------------------------------
# _passing_roots against the scalar search


def _passing_root_loop(residual, a, b, fa, fb):
    """Brent's zeroin as a plain loop, as ``_passing_root`` was written
    before its steps became the ``_zeroin`` generator."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb >= 0.0) == (fc >= 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 0.5 * _THRESHOLD_RTOL * max(1.0, abs(b))
        xm = 0.5 * (c - b)
        if abs(xm) < tol1:
            break
        if (
            abs(e) >= tol1 and abs(fa) > abs(fb)
            and math.isfinite(fa) and math.isfinite(fc)
        ):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = residual(b)
    return (b, fb) if fb >= 0.0 else (c, fc)


def _residual_family(rng):
    kind = rng.integers(5)
    s1, scale = rng.uniform(-5.0, 0.0), rng.uniform(0.1, 10.0)
    s2 = rng.uniform(s1, 5.0)
    if kind == 0:  # smooth
        return lambda x: math.tanh(scale * (x - s2))
    if kind == 1:  # a sign-only step
        return lambda x: 1.0 if x >= s2 else -1.0
    if kind == 2:  # fails as nan below s1
        return lambda x: math.nan if x < s1 else math.tanh(scale * (x - s2))
    if kind == 3:  # -inf below s1, as the drift guard
        return lambda x: -math.inf if x < s1 else (x - s2) ** 3 + 0.1 * (x - s2)
    return lambda x: scale * (x - s2)  # linear: the secant lands on the root


def _recorded(f, points):
    def residual(x):
        points.append(x)
        return f(x)

    return residual


def test_passing_roots_take_the_scalar_steps_in_every_lane():
    rng = np.random.default_rng(20)
    stops = set()
    for _ in range(60):
        L = int(rng.integers(1, 40))
        fs = [_residual_family(rng) for _ in range(L)]
        a = rng.uniform(-5.0, -4.0, L)
        b = rng.uniform(4.0, 5.0, L)
        flip = rng.random(L) < 0.3  # some brackets run high to low
        a[flip], b[flip] = -a[flip], -b[flip]
        fs = [(lambda f: (lambda x: f(-x)))(f) if fl else f for f, fl in zip(fs, flip)]
        fa = np.array([f(v) for f, v in zip(fs, a)])
        fb = np.array([f(v) for f, v in zip(fs, b)])
        keep = ~(fa >= 0.0) & (fb >= 0.0)
        fs = [f for f, k in zip(fs, keep) if k]
        a, b, fa, fb = a[keep], b[keep], fa[keep], fb[keep]
        want, want_points = [], []
        for i, f in enumerate(fs):
            points, scalar_points = [], []
            bracket = float(a[i]), float(b[i]), float(fa[i]), float(fb[i])
            want.append(_passing_root_loop(_recorded(f, points), *bracket))
            want_points.append(points)
            got = _passing_root(_recorded(f, scalar_points), *bracket)
            assert repr(got) == repr(want[-1]) and scalar_points == points
        for order in (np.arange(len(fs)), rng.permutation(len(fs))):
            got_points = [[] for _ in fs]

            def residual(x, lanes, order=order, got_points=got_points):
                assert x.shape == lanes.shape
                out = []
                for lane, value in zip(order[lanes].tolist(), x.tolist()):
                    got_points[lane].append(value)
                    out.append(fs[lane](value))
                return np.array(out)

            x, fx = _passing_roots(residual, a[order], b[order], fa[order], fb[order])
            for k, lane in enumerate(order.tolist()):
                assert repr((float(x[k]), float(fx[k]))) == repr(want[lane])
                assert got_points[lane] == want_points[lane], lane
        stops.update(len(p) for p in want_points)
    assert len(stops) >= 10  # lanes leave the lockstep at many different steps


def test_passing_roots_on_no_lanes_and_one_lane():
    def never(x, lanes):
        raise AssertionError("no lane to evaluate")

    x, fx = _passing_roots(never, np.empty(0), np.empty(0), np.empty(0), np.empty(0))
    assert x.shape == fx.shape == (0,)
    x, fx = _passing_roots(lambda x, lanes: x - 0.25, [-1.0], [1.0], [-1.25], [0.75])
    want = _passing_root_loop(lambda x: x - 0.25, -1.0, 1.0, -1.25, 0.75)
    assert (float(x[0]), float(fx[0])) == want


# ---------------------------------------------------------------------------
# _recommend_lanes against the oracle on lanes of seeded runs


def _captured_calls(monkeypatch, spec, seed):
    calls = []
    real = sim._recommend_lanes

    def capture(*args):
        calls.append(args)
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(sim, "_recommend_lanes", capture)
        sim.run_scenario(spec, seed=seed, threads=1)
    return calls


CAPTURED_SPECS = {
    **SPECS,
    "1a-conditional-variance": lambda: sim.scenario_1a(replicates=20, goals=lago.GoalSpec(
        outcome_goal=0.7, power_goal=0.8, approach="conditional", conditional_scale="variance",
        test=lago.TestSelector("z_unpooled"))),
}


@pytest.mark.parametrize("name", list(CAPTURED_SPECS))
def test_recommend_lanes_match_the_per_lane_oracle_on_seeded_runs(monkeypatch, name):
    spec = CAPTURED_SPECS[name]()
    calls = _captured_calls(monkeypatch, spec, 31)
    # a repeat design without an outcome goal decides nothing
    assert bool(calls) != (spec.design_mode == "factorial-repeat"
                           and spec.goals.outcome_goal is None)
    rng = np.random.default_rng(len(name))
    regimes = set()
    for models, summaries, goals, cost, lo, hi, anchors in calls:
        want = check_against_oracle(models, summaries, goals, cost, lo, hi, anchors, rng)
        regimes |= {rec.regime for rec in want if isinstance(rec, Recommendation)}
    assert regimes or not calls


# ---------------------------------------------------------------------------
# _recommend_lanes against the oracle on random lanes of every 1-df case

CUBIC = CostFunction(terms=(
    (0, 3, 2.0), (0, 2, -1.19), (0, 1, 10.0), (None, 0, 10.0),
    (1, 3, 0.1), (1, 2, -0.2), (1, 1, 2.0),
))
LO, HI = np.array([0.0, 0.0]), np.array([2.0, 8.0])


def _binary_lane(rng, link, sign):
    if link == "logit":
        beta = [rng.uniform(-0.6, 0.6), rng.uniform(-0.1, 0.6), rng.uniform(-0.05, 0.2)]
    else:
        beta = [rng.uniform(0.4, 0.6), rng.uniform(-0.02, 0.08), rng.uniform(-0.005, 0.03)]
    beta = np.asarray(beta) * [1.0, sign, sign]
    model = FittedModel(beta=beta, link=link, covariance=np.eye(3), n_used=400, kind="binary")
    n1, n0 = float(rng.integers(40, 200)), float(rng.integers(20, 100))
    p0 = float(np.clip(beta[0] if link == "identity" else 1.0 / (1.0 + math.exp(-beta[0])),
                       0.05, 0.95))
    p1 = float(np.clip(p0 + sign * rng.uniform(-0.1, 0.2), 0.05, 0.95))
    summary = ArmSummary(
        n1_obs=n1, n0_obs=n0,
        s1_obs=float(rng.binomial(int(n1), p1)), s0_obs=float(rng.binomial(int(n0), p0)),
        n1_future=float(rng.integers(20, 400)), n0_future=float(rng.integers(10, 200)),
    )
    return model, summary


def _continuous_lane(rng, sign):
    beta = np.array([rng.uniform(5.0, 10.0), sign * rng.uniform(-0.5, 2.0),
                     sign * rng.uniform(-0.1, 0.5)])
    model = FittedModel(beta=beta, link="identity", covariance=np.eye(3), n_used=400,
                        kind="continuous", sigma2=64.0)
    n1, n0 = float(rng.integers(40, 400)), float(rng.integers(20, 200))
    shift = sign * rng.uniform(-1.0, 3.0)
    summary = ArmSummary(
        n1_obs=n1, n0_obs=n0, s1_obs=n1 * (beta[0] + shift), s0_obs=n0 * beta[0],
        n1_future=float(rng.integers(20, 800)), n0_future=float(rng.integers(10, 400)),
        var1_obs=rng.uniform(20.0, 100.0), var0_obs=rng.uniform(20.0, 100.0),
    )
    return model, summary


ONE_DF_CASES = [
    (kind, approach, scale, direction)
    for kind in ("z_unpooled", "z_pooled", "t_unpooled", "t_pooled")
    for approach, scale in (("unconditional", "sd"), ("conditional", "sd"),
                            ("conditional", "variance"))
    for direction in ("increase", "decrease")
]


@pytest.mark.parametrize("kind, approach, scale, direction", ONE_DF_CASES)
def test_recommend_lanes_match_the_oracle_in_every_one_df_case(kind, approach, scale, direction):
    rng = np.random.default_rng([20, ONE_DF_CASES.index((kind, approach, scale, direction))])
    sign = 1.0 if direction == "increase" else -1.0
    continuous = Selector(kind).continuous_outcome
    links = ["identity"] if continuous else ["logit", "identity"]
    for link in links:
        lanes = [_continuous_lane(rng, sign) if continuous else _binary_lane(rng, link, sign)
                 for _ in range(24)]
        models, summaries = [m for m, _ in lanes], [s for _, s in lanes]
        goal = float(np.median([predict(m, [1.0, 4.0]) for m in models]))
        for outcome_goal in (None, goal):
            goals = GoalSpec(
                outcome_goal=outcome_goal, direction=direction, power_goal=0.8,
                test=Selector(kind), approach=approach, conditional_scale=scale,
            )
            anchors = [np.array([1.0, 4.0])] * len(models)
            want = check_against_oracle(models, summaries, goals, CUBIC, LO, HI, anchors, rng)
            assert not isinstance(want, Exception), want


def _wald_lane(rng, sign, wrong_way):
    """A binary lane with the per-center design rows the Wald projections
    read: the control arm at one center, the intervention arm over three
    random packages.  A ``wrong_way`` lane's effects point against the goal."""
    model, summary = _binary_lane(rng, "logit", sign)
    if wrong_way:
        model = FittedModel(beta=model.beta * [1.0, -1.0, -1.0], link="logit",
                            covariance=np.eye(3), n_used=400, kind="binary")
    packages = [tuple(rng.uniform(LO, HI).tolist()) for _ in range(3)]
    design = (((0.0, 0.0), summary.n0_obs),) + tuple((x, summary.n1_obs / 3) for x in packages)
    return model, dataclasses.replace(summary, design_obs=design)


@pytest.mark.parametrize("direction", ["increase", "decrease"])
def test_wald_lanes_match_the_oracle(direction):
    # The bounds start above zero, so the control level of a wrong-way lane
    # is out of reach: its min-cost solve fails inside the search.
    rng = np.random.default_rng([21, direction == "increase"])
    sign = 1.0 if direction == "increase" else -1.0
    lo, hi = np.array([0.25, 1.0]), HI
    lanes = [_wald_lane(rng, sign, wrong_way=i % 4 == 3) for i in range(20)]
    models, summaries = [m for m, _ in lanes], [s for _, s in lanes]
    goal = float(np.median([predict(m, [1.0, 4.0]) for m in models]))
    seen = set()
    for outcome_goal in (None, goal):
        goals = GoalSpec(outcome_goal=outcome_goal, direction=direction, power_goal=0.8,
                         test=Selector("wald_pdf_binary"))
        anchors = [np.array([1.0, 4.0])] * len(models)
        want = check_against_oracle(models, summaries, goals, CUBIC, lo, hi, anchors, rng)
        assert not isinstance(want, Exception), want
        seen |= {rec.regime if isinstance(rec, Recommendation) else type(rec).__name__
                 for rec in want}
    assert {REGIME_GOAL, "InfeasibleError"} <= seen, seen


def test_lanes_the_arrays_cannot_reproduce_keep_the_scalar_errors():
    # A degenerate projected variance fails its lane; an empty future arm
    # divides by zero in the scalar forms, which the call raises as they do.
    rng = np.random.default_rng(5)
    models, summaries = map(list, zip(*[_binary_lane(rng, "logit", 1.0) for _ in range(6)]))
    summaries[2] = ArmSummary(n1_obs=50.0, n0_obs=50.0, s1_obs=50.0, s0_obs=50.0)
    goals = GoalSpec(outcome_goal=None, power_goal=0.8, test=Selector("z_unpooled"))
    anchors = [None] * 6
    want = check_against_oracle(models, summaries, goals, CUBIC, LO, HI, anchors, rng)
    assert type(want[2]).__name__ == "DegenerateVarianceError"
    summaries[4] = ArmSummary(n1_obs=0.0, n0_obs=0.0, s1_obs=0.0, s0_obs=0.0)
    want = check_against_oracle(models, summaries, goals, CUBIC, LO, HI, anchors, rng)
    assert isinstance(want, ZeroDivisionError)
    continuous = dataclasses.replace(
        goals, test=Selector("t_unpooled"), approach="conditional")
    want = check_against_oracle(
        models[:2], summaries[:2], continuous, CUBIC, LO, HI, anchors[:2], rng)
    assert isinstance(want, ValueError) and "projections need var" in str(want)


def test_a_scalar_lane_raising_nothing_leaves_no_warning_in_the_arrays():
    # One intervention observation and no future one: the scalar forms
    # would divide by N1 - 1 = 0, but the drift never turns, so the lane
    # has no threshold, and its out-of-reach outcome goal without an
    # anchor fails it before any projected power.  The other lanes search
    # in arrays that carry its entries, with no floating-point warning.
    rng = np.random.default_rng(3)
    models, summaries = map(list, zip(*[_continuous_lane(rng, 1.0) for _ in range(4)]))
    models[1] = FittedModel(beta=np.array([5.0, 0.01, 0.01]), link="identity",
                            covariance=np.eye(3), n_used=50, kind="continuous", sigma2=30.0)
    summaries[1] = ArmSummary(n1_obs=1.0, n0_obs=50.0, s1_obs=-1e6, s0_obs=250.0,
                              n1_future=0.0, n0_future=10.0, var1_obs=30.0, var0_obs=30.0)
    goals = GoalSpec(outcome_goal=8.0, power_goal=0.8, test=Selector("t_unpooled"))
    want = check_against_oracle(models, summaries, goals, CUBIC, LO, HI, [None] * 4, rng)
    assert [type(rec) for rec in want] == [
        Recommendation, InfeasibleError, Recommendation, Recommendation]


def test_an_array_lane_with_a_degenerate_variance_fails_inside_the_search():
    # Every observed intervention outcome a success, every control one a
    # failure, and no future sample: the drift points the goal's way at
    # every level, but the projected variance is zero, so the arrays flag
    # the lane at the bracket's first end and it is searched no further.
    rng = np.random.default_rng(8)
    models, summaries = map(list, zip(*[_binary_lane(rng, "logit", 1.0) for _ in range(5)]))
    summaries[3] = ArmSummary(n1_obs=50.0, n0_obs=50.0, s1_obs=50.0, s0_obs=0.0)
    goals = GoalSpec(outcome_goal=None, power_goal=0.8, test=Selector("z_unpooled"))
    want = check_against_oracle(models, summaries, goals, CUBIC, LO, HI, [None] * 5, rng)
    assert [type(rec).__name__ for rec in want] == (
        ["Recommendation"] * 3 + ["DegenerateVarianceError", "Recommendation"])


def test_a_scalar_lane_that_raises_mid_search_fails_alone_and_is_evaluated_no_more(monkeypatch):
    # The Wald lanes search by the scalar residual.  One lane's power raises
    # after the bracket's two ends: the lane gets that error, the search
    # never evaluates it again, and the other lanes decide as without it.
    rng = np.random.default_rng([21, 0])
    lanes = [_wald_lane(rng, 1.0, wrong_way=False) for _ in range(4)]
    models, summaries = [m for m, _ in lanes], [s for _, s in lanes]
    goals = GoalSpec(outcome_goal=None, power_goal=0.8, test=Selector("wald_pdf_binary"))
    want = _recommend_lanes(models, summaries, goals, CUBIC, LO, HI, [None] * 4)
    assert [rec.regime for rec in want] == [REGIME_GOAL] * 4
    real, calls = optimizer.unconditional_power, []

    def power(x, model, *args):
        if model is models[2]:
            calls.append(x)
            if len(calls) > 2:
                raise NonFiniteError("power not finite")
        return real(x, model, *args)

    monkeypatch.setattr(optimizer, "unconditional_power", power)
    got = _recommend_lanes(models, summaries, goals, CUBIC, LO, HI, [None] * 4)
    assert isinstance(got[2], NonFiniteError) and len(calls) == 3
    for lane in (0, 1, 3):
        _assert_same_lane(got[lane], want[lane], lane)


def test_a_lane_whose_min_cost_solve_fails_gets_the_solver_error():
    # The cost falls to -inf on the first component's box, so every package
    # solve raises; a shrinking lane solves nothing and keeps its anchor.
    rng = np.random.default_rng(4)
    cost = CostFunction(((0, 3, -1e308), (1, 1, 1.0)))
    models = [FittedModel(beta=np.array(beta), link="logit", covariance=np.eye(3), n_used=400,
                          kind="binary")
              for beta in ((0.1, 0.3, 0.15), (0.1, 1e-3, 1e-3), (0.2, 0.25, 0.2))]
    goals = GoalSpec(outcome_goal=0.7)
    anchors = [np.array([1.0, 4.0])] * 3
    want = check_against_oracle(models, [None] * 3, goals, cost, LO, HI, anchors, rng)
    assert [type(rec).__name__ for rec in want] == [
        "NonFiniteError", "Recommendation", "NonFiniteError"]
    assert want[1].regime == REGIME_SHRINK and want[1].x_hat.tolist() == [1.0, 4.0]


# ---------------------------------------------------------------------------
# guards


def _function(name):
    tree = ast.parse(Path(optimizer.__file__).read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _called(func):
    return {node.func.id for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_the_one_df_thresholds_of_the_lanes_go_through_passing_roots():
    assert "_threshold_core" in _called(_function("_recommend_lanes"))
    called = _called(_function("_threshold_core"))
    assert {"_passing_roots", "_threshold_residual_lanes"} <= called
    assert "_passing_root" not in called
    callers = {node.name for node in ast.parse(Path(optimizer.__file__).read_text()).body
               if isinstance(node, ast.FunctionDef) and "_threshold_core" in _called(node)}
    assert callers == {"power_threshold", "_recommend_lanes"}


# The optimizer's names of the scalar power forms: the scalar residual and
# the scalar projected power call them, the lane arrays never do.
SCALAR_POWER_NAMES = (
    "projected_drift_at_level",
    "unconditional_power_at_level",
    "conditional_slack_at_level",
    "unconditional_power",
    "conditional_power",
)


@pytest.mark.parametrize("name", ["1a-conditional", "1a-unconditional-z", "continuous-1a-t"])
def test_a_one_df_run_never_searches_one_lane_at_a_time(monkeypatch, name):
    def scalar(*args, **kwargs):
        raise AssertionError("a 1-df lane took a scalar power form")

    for power_name in SCALAR_POWER_NAMES:
        monkeypatch.setattr(optimizer, power_name, scalar)
    report = sim.run_scenario(SPECS[name](), seed=31, threads=1)
    assert report.n_used > 0

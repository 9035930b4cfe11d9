"""Every scalar equation of the package goes through one root finder.

``power._passing_root`` (Brent's zeroin) solves the chi-square quantile,
the noncentrality ``lambda_min``, the multiplier of the P >= 3 min-cost
dual, the per-center Wald level and the BetterBirth arm-rate
reconstruction; the power threshold takes the same steps for every lane of
a call in lockstep (``power._passing_roots``).  The oracles here are the
bisection loops those sites ran before, kept verbatim.  On seeded inputs
each site must agree with its oracle to the stated tolerance and return the
passing end of its bracket.  An ``ast`` guard keeps every site on its
shared root finder.
"""

import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lago
from lago import optimizer, sim
from lago.cost import CostFunction
from lago.model import CenterData, FittedModel, StageRecord, link_forward
from lago.optimizer import (
    REGIME_GOAL,
    GoalSpec,
    _bounds_arrays,
    _ComponentPoly,
    _eta_extremes,
    _min_cost_eta,
    _state_summary,
    _work_model,
    min_cost_per_center,
    min_cost_subject_to_threshold,
    recommend_stage_k,
)
from lago.power import (
    TestSelector as Selector,
    _wald_lambda_binary,
    chisq_cdf,
    chisq_quantile,
    lambda_min,
    noncentral_chisq_cdf,
)

# ---------------------------------------------------------------------------
# the replaced loops, verbatim


def _dual_candidate_bisection(infos, beta1, eff, lo, hi, need, ftol):
    """Feasible point from bisecting the multiplier of the eta constraint."""

    def solve(mu):
        out = {}
        for p in eff:
            adj = infos[p].coeffs.copy()
            adj[1] -= mu * beta1[p]
            out[p] = _ComponentPoly(adj).min_on(lo[p], hi[p])[0]
        return out

    def supplied(values):
        return sum(beta1[p] * values[p] for p in eff)

    mu_hi, vals = 1.0, None
    for _ in range(60):
        cand = solve(mu_hi)
        if supplied(cand) >= need - ftol:
            vals = cand
            break
        mu_hi *= 2.0
    if vals is None:
        return None
    mu_lo = 0.0
    for _ in range(100):
        mid = 0.5 * (mu_lo + mu_hi)
        cand = solve(mid)
        if supplied(cand) >= need - ftol:
            mu_hi, vals = mid, cand
        else:
            mu_lo = mid
    return vals


def _min_cost_per_center_bisection(model, trial_state, goals, n_centers, cost, bounds):
    """``min_cost_per_center`` with its 40-step boolean bisection per center."""
    common = recommend_stage_k(model, trial_state, goals, cost=cost, bounds=bounds)
    if goals.power_goal is None or common.regime != REGIME_GOAL:
        return [common.x_hat.copy() for _ in range(n_centers)]
    summary = _state_summary(trial_state, goals.test, len(trial_state.completed) + 1)

    lo, hi = _bounds_arrays(bounds, model.n_components)
    direction = goals.direction
    wm = _work_model(model, direction)
    _, eta_max_w = _eta_extremes(wm, lo, hi)
    if goals.outcome_goal is not None:
        g = float(link_forward(model.link, goals.outcome_goal))
        eta_floor = g if direction == "increase" else -g
    else:
        eta_floor = wm.intercept
    lam_req = lambda_min(goals.alpha, goals.power_goal, df=model.n_components)
    n1_each = summary.n1_future / n_centers

    def package_at(eta_w):
        return _min_cost_eta(
            wm.intercept, wm.effects, cost, lo, hi, min(eta_w, eta_max_w)
        )

    packages = [common.x_hat.copy() for _ in range(n_centers)]
    total = sum(float(cost(p)) for p in packages)
    for _ in range(20):
        improved = False
        for j in range(n_centers):
            others = packages[:j] + packages[j + 1:]

            def feasible(eta_w):
                cand = package_at(eta_w)
                lam = _wald_lambda_binary(model, summary, others + [cand], n1_each)
                return lam >= lam_req - 1e-9, cand

            ok_hi, cand_hi = feasible(eta_max_w)
            if not ok_hi:
                continue
            eta_lo_j, eta_hi_j, best = eta_floor, eta_max_w, cand_hi
            ok_lo, cand_lo = feasible(eta_lo_j)
            if ok_lo:
                best = cand_lo
            else:
                for _ in range(40):
                    mid = 0.5 * (eta_lo_j + eta_hi_j)
                    ok_mid, cand_mid = feasible(mid)
                    if ok_mid:
                        eta_hi_j, best = mid, cand_mid
                    else:
                        eta_lo_j = mid
            if float(cost(best)) < float(cost(packages[j])) - 1e-9:
                packages[j] = best
                improved = True
        new_total = sum(float(cost(p)) for p in packages)
        if not improved or new_total > total - 1e-9 * (1.0 + abs(total)):
            total = new_total
            break
        total = new_total
    return packages


def _bb_stage_rates_bisection(intervention_fraction):
    """``sim._bb_stage_rates`` with its 80-step bisection after the grid scan."""
    n1 = intervention_fraction * sim._BB_N_STAGES12
    n0 = sim._BB_N_STAGES12 - n1
    z_target = -lago.power.norm_quantile(1.0 - sim._BB_STAGE3_P / 2.0)

    def rates(r1):
        r0 = (sim._BB_RATE_STAGES12 * sim._BB_N_STAGES12 - n1 * r1) / n0
        r13 = (
            (n1 + sim._BB_N3_INTERVENTION) * sim._BB_INTERVENTION_RATE - n1 * r1
        ) / sim._BB_N3_INTERVENTION
        r03 = ((n0 + sim._BB_N3_CONTROL) * sim._BB_CONTROL_RATE - n0 * r0) / sim._BB_N3_CONTROL
        return r0, r13, r03

    def gap(r1):
        r0, r13, r03 = rates(r1)
        if not (0.0 < r0 < 1.0 and 0.0 < r13 < 1.0 and 0.0 < r03 < 1.0):
            return None
        var3 = (
            r13 * (1.0 - r13) / sim._BB_N3_INTERVENTION
            + r03 * (1.0 - r03) / sim._BB_N3_CONTROL
        )
        return (r13 - r03) / math.sqrt(var3) - z_target

    lo = hi = None
    prev = None
    for r1 in np.linspace(0.002, 0.998, 600):
        g = gap(float(r1))
        if g is None:
            prev = None
            continue
        if prev is not None and prev[1] * g <= 0.0:
            lo, hi = prev[0], float(r1)
            break
        prev = (float(r1), g)
    if lo is None:
        raise ValueError(
            "no stages-1-2 arm rates reconcile the published aggregates "
            "at this split"
        )
    g_lo = gap(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if g_lo * g_mid <= 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    r1 = 0.5 * (lo + hi)
    return (r1,) + rates(r1)


# ---------------------------------------------------------------------------
# chi-square quantile and lambda_min: passing ends


def test_chisq_quantile_returns_the_passing_end():
    rng = np.random.default_rng(31)
    for _ in range(300):
        df = int(rng.integers(1, 41))
        p = float(rng.uniform(0.001, 0.999))
        q = chisq_quantile(p, df)
        assert chisq_cdf(q, df) >= p
        # one tolerance step below the root already fails
        assert chisq_cdf(q - 2e-12 * max(1.0, q), df) < p


def test_lambda_min_returns_the_passing_end():
    rng = np.random.default_rng(32)
    for _ in range(100):
        df = int(rng.integers(1, 7))
        alpha = float(rng.uniform(0.005, 0.2))
        pi = float(rng.uniform(0.3, 0.97))
        lam = lambda_min(alpha, pi, df)
        crit = chisq_quantile(1.0 - alpha, df)
        assert 1.0 - noncentral_chisq_cdf(crit, df, lam) >= pi


# ---------------------------------------------------------------------------
# the min-cost dual multiplier


def _cubic_problem(rng, P):
    """Separable cubic costs increasing on the whole line, with a logit goal
    40-60% of the way from the control level to the best attainable one."""
    upper = rng.uniform(2.0, 8.0, P)
    terms = []
    for p in range(P):
        c1 = rng.uniform(1.0, 10.0)
        c3 = rng.uniform(0.05, 2.0) / upper[p]
        c2 = -rng.uniform(0.2, 0.9) * math.sqrt(3.0 * c1 * c3)
        terms += [(p, 1, float(c1)), (p, 2, float(c2)), (p, 3, float(c3))]
    beta = np.concatenate(([math.log(0.3 / 0.7)], rng.uniform(0.5, 1.5, P) / upper))
    eta_max = beta[0] + float(np.sum(beta[1:] * upper))
    eta_goal = beta[0] + rng.uniform(0.4, 0.6) * (eta_max - beta[0])
    model = FittedModel(
        beta=beta, link="logit", covariance=np.eye(P + 1), n_used=100, kind="binary"
    )
    bounds = [(0.0, float(u)) for u in upper]
    return model, CostFunction(tuple(terms)), bounds, 1.0 / (1.0 + math.exp(-eta_goal))


def _problems(seed, count):
    rng = np.random.default_rng(seed)
    return [_cubic_problem(rng, (3, 4, 5, 6)[i % 4]) for i in range(count)]


def test_dual_candidate_matches_bisection(monkeypatch):
    calls = []
    dual = optimizer._dual_candidate

    def recording(*args):
        calls.append(args)
        return dual(*args)

    monkeypatch.setattr(optimizer, "_dual_candidate", recording)
    for model, cost, bounds, goal in _problems(41, 40):
        min_cost_subject_to_threshold(model, cost, bounds, goal)
    assert len(calls) == 40
    for infos, beta1, eff, lo, hi, need, ftol in calls:
        got = dual(infos, beta1, eff, lo, hi, need, ftol)
        want = _dual_candidate_bisection(infos, beta1, eff, lo, hi, need, ftol)
        assert sum(beta1[p] * got[p] for p in eff) >= need - ftol
        for p in eff:
            assert got[p] == pytest.approx(want[p], rel=1e-11, abs=1e-12)


def test_min_cost_with_dual_root_matches_bisection(monkeypatch):
    problems = _problems(42, 60)
    new = [min_cost_subject_to_threshold(m, c, b, g) for m, c, b, g in problems]
    monkeypatch.setattr(optimizer, "_dual_candidate", _dual_candidate_bisection)
    old = [min_cost_subject_to_threshold(m, c, b, g) for m, c, b, g in problems]
    for (model, cost, _, goal), x_new, x_old in zip(problems, new, old):
        np.testing.assert_allclose(x_new, x_old, rtol=1e-11, atol=1e-12)
        assert float(cost(x_new)) == pytest.approx(float(cost(x_old)), rel=1e-11)


# ---------------------------------------------------------------------------
# per-center Wald packages

CUBIC = CostFunction(terms=(
    (0, 3, 2.0), (0, 2, -1.19), (0, 1, 10.0), (None, 0, 10.0),
    (1, 3, 0.1), (1, 2, -0.2), (1, 1, 2.0),
))
BOUNDS = [(0.0, 2.0), (0.0, 8.0)]
PACKAGES = [(0.0, 0.0), (1.0, 0.0), (0.0, 4.0), (1.0, 4.0)]


def _per_center_case(rng):
    beta = np.array([0.1, 0.3, 0.15]) + rng.normal(0.0, 0.05, 3)
    centers = []
    for x in PACKAGES:
        p = 1.0 / (1.0 + math.exp(-(beta[0] + beta[1:] @ np.asarray(x))))
        s = float(rng.binomial(40, p))
        # m2 of 0/1 outcomes is s (n - s) / n
        centers.append(CenterData.from_stats(int(any(x)), x, 40, s, s * (40 - s) / 40))
    future = (float(rng.choice([90.0, 120.0, 240.0])), 40.0)
    state = SimpleNamespace(
        completed=[StageRecord(stage_index=1, centers=centers)],
        config=SimpleNamespace(cost=CUBIC, bounds=BOUNDS, stage1_package=None),
        future_arm_sizes=lambda k: future,
    )
    goals = GoalSpec(
        outcome_goal=float(rng.uniform(0.5, 0.6)),
        power_goal=float(rng.uniform(0.7, 0.9)),
        test=Selector("wald_pdf_binary"),
    )
    model = lago.model.fit_binary(state.completed)
    return model, state, goals, int(rng.integers(2, 5))


def test_min_cost_per_center_matches_bisection():
    rng = np.random.default_rng(43)
    moved = 0
    for _ in range(20):
        model, state, goals, n_centers = _per_center_case(rng)
        got = min_cost_per_center(model, state, goals, n_centers)
        want = _min_cost_per_center_bisection(
            model, state, goals, n_centers, CUBIC, BOUNDS
        )
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-11, atol=1e-12)
        common = recommend_stage_k(model, state, goals)
        if all(np.array_equal(p, common.x_hat) for p in got):
            continue
        # Every accepted move kept the joint noncentrality; summed here over
        # the centers in another order than in the search, so to rounding.
        moved += 1
        summary = _state_summary(state, goals.test, 2)
        lam = _wald_lambda_binary(model, summary, got, summary.n1_future / n_centers)
        lam_req = lambda_min(goals.alpha, goals.power_goal, df=2)
        assert lam >= lam_req - 1e-9 - 1e-13 * lam_req
    assert moved >= 5


# ---------------------------------------------------------------------------
# BetterBirth arm rates


def test_bb_stage_rates_match_bisection():
    for fraction in np.linspace(0.2, 0.7, 26):
        got = sim._bb_stage_rates(float(fraction))
        want = _bb_stage_rates_bisection(float(fraction))
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


# ---------------------------------------------------------------------------
# one root finder


# (module, function, the root finder it calls)
ROOT_SITES = (
    ("power", "chisq_quantile", "_passing_root"),
    ("power", "lambda_min", "_passing_root"),
    ("optimizer", "_threshold_core", "_passing_roots"),
    ("optimizer", "_dual_candidate", "_passing_root"),
    ("optimizer", "min_cost_per_center", "_passing_root"),
    ("sim", "_bb_stage_rates", "_passing_root"),
)


@pytest.mark.parametrize("module, name, finder", ROOT_SITES,
                         ids=[f"{module}-{name}" for module, name, _ in ROOT_SITES])
def test_root_site_calls_the_shared_root_finder(module, name, finder):
    tree = ast.parse(Path(getattr(lago, module).__file__).read_text())
    func = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )
    called = {
        node.func.id for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert finder in called, f"{module}.{name} no longer calls {finder}"

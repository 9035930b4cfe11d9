"""Every scalar equation of the package goes through one root finder.

``power._passing_root`` (Brent's zeroin) solves the chi-square quantile,
the noncentrality ``lambda_min``, the multiplier of the P >= 3 min-cost
dual and the BetterBirth arm-rate reconstruction; the power threshold
takes the same steps for every lane of a call in lockstep
(``power._passing_roots``).  The oracles here are the
bisection loops those sites ran before, kept verbatim.  On seeded inputs
each site must agree with its oracle to the stated tolerance and return the
passing end of its bracket.  An ``ast`` guard keeps every site on its
shared root finder.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import lago
from lago import optimizer, sim
from lago.model import FittedModel
from lago.optimizer import _ComponentPoly, min_cost_subject_to_threshold
from lago.power import chisq_cdf, chisq_quantile, lambda_min, noncentral_chisq_cdf
from test_fixing_lanes import _cubic_problem

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


def _problems(seed, count):
    """The probe's cubic problems at P = 3, 4, 5, 6 in turn, each with a
    logit model of its coefficients."""
    rng = np.random.default_rng(seed)
    problems = []
    for i in range(count):
        P = (3, 4, 5, 6)[i % 4]
        beta, cost, bounds, goal = _cubic_problem(rng, P)
        model = FittedModel(
            beta=beta, link="logit", covariance=np.eye(P + 1), n_used=100, kind="binary"
        )
        problems.append((model, cost, bounds, goal))
    return problems


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

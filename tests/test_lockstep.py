"""Differential tests for the lockstep replicate engine and the stacked fits.

``run_scenario`` advances all replicates of a block one stage at a time on
lane arrays (``sim._Block``) and fits every replicate's pooled data in one
``_fit_binary_stack`` or ``_fit_continuous_stack`` call per stage.  The
per-replicate path it replaced (one trial state per replicate through the
public ``trial`` API, one draw call per center with its outcome vector, its
deployed packages and sandwich covariance per replicate), and the
single-design fits ``fit_binary`` and ``fit_continuous`` ran before each
became the one-lane call of its kernel, are kept here as oracles: the
engine's reports, its block columns and the kernels' fits must agree with
them bitwise, with the same error type and message, and a lane's result
must not depend on the other lanes of its stack.  The IRLS loop is the one
oracle of ``fit_binary`` and ``_fit_binary_stack``, on the seeded designs
of ``test_fast_paths.py``; it counts its step-halvings, so the designs are
seen to take them.  The lanes' seeds, computed
as arrays, must seed ``PCG64`` as numpy's ``SeedSequence.spawn`` children do.
"""

import ast
import dataclasses
import math
import pickle
import re
import sys
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lago
import lago.trial as trial_module
from lago import sim
from lago.errors import (
    DegenerateVarianceError,
    LagoError,
    NonFiniteError,
    RankDeficientError,
    SeparationError,
)
from lago.model import (
    COEF_CAP,
    CONTINUOUS_LINKS,
    GRAD_TOL,
    MAX_ITER,
    CenterData,
    FittedModel,
    StageRecord,
    _center_rows,
    _check_binary,
    _fit_binary_stack,
    _fit_continuous_stack,
    _lstsq_stack,
    expit,
    link_inverse,
    link_inverse_deriv,
    logistic_information,
    predict,
)
from lago.trial import (
    final_optimal,
    final_test,
    ingest_stage,
    new_trial,
    next_recommendation,
    refit,
)
from test_fast_paths import _grouped_design
from test_recommend_path import _called_names, _function

# ---------------------------------------------------------------------------
# oracles


def _check_rank(X, rank=None):
    """Raise RankDeficientError unless X has full column rank.

    ``rank`` is a rank already computed with ``matrix_rank``'s cutoff (the one
    ``lstsq(..., rcond=None)`` returns); without it the rank is computed here.
    """
    if rank is None:
        rank = np.linalg.matrix_rank(X)
    if rank < X.shape[1]:
        raise RankDeficientError(
            "design matrix is rank deficient; coefficients are not identifiable"
        )


def _check_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("non-finite value in model input")


def _fit_binary_scalar(records):
    """The single-design IRLS loop, with its scalar tests on Python floats;
    returns the fit and the number of step-halvings it took."""
    X, m, s, m2 = _center_rows(records)
    _check_finite(X, m, s, m2)
    _check_binary(m, s, m2)
    total_s = s.sum()
    if total_s <= 0 or total_s >= m.sum():
        raise SeparationError("all outcomes identical; logistic MLE does not exist")
    _check_rank(X)

    beta = np.zeros(X.shape[1])

    def loglik(b):
        eta = X @ b
        return float(s @ eta - m @ np.logaddexp(0.0, eta))

    ll = loglik(beta)
    n_iter = total_halvings = 0
    for n_iter in range(1, MAX_ITER + 1):
        eta = X @ beta
        p = expit(eta)
        grad = X.T @ (s - m * p)
        if math.sqrt(grad.dot(grad)) <= GRAD_TOL:
            n_iter -= 1
            break
        H = logistic_information(X, m, p)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise SeparationError(
                "information matrix singular during iteration (separated data?)"
            ) from exc
        new_beta = beta + step
        new_ll = loglik(new_beta)
        halvings = 0
        while (not math.isfinite(new_ll) or new_ll < ll - 1e-12) and halvings < 30:
            step *= 0.5
            new_beta = beta + step
            new_ll = loglik(new_beta)
            halvings += 1
        total_halvings += halvings
        beta, ll = new_beta, new_ll
        coefs = beta.tolist()
        if not all(map(math.isfinite, coefs)):
            raise NonFiniteError("non-finite coefficients during logistic fit")
        if max(map(abs, coefs)) > COEF_CAP:
            raise SeparationError(
                f"coefficient magnitude exceeded {COEF_CAP}; data likely separated"
            )

    H = logistic_information(X, m, expit(X @ beta))
    try:
        cov = np.linalg.inv(H)
    except np.linalg.LinAlgError as exc:
        raise SeparationError("observed information singular at the optimum") from exc
    fitted = FittedModel(
        beta=beta, link="logit", covariance=cov, n_used=int(m.sum()), kind="binary",
        n_iter=n_iter,
    )
    return fitted, total_halvings


def _fit_continuous_scalar(records, link="identity"):
    """The single-design continuous fit: one ``lstsq`` (identity) or one
    Gauss-Newton loop (log) on Python-level scalar tests."""
    if link not in CONTINUOUS_LINKS:
        raise ValueError(f"unsupported continuous link {link!r}")
    X, n, s, m2 = _center_rows(records)
    _check_finite(X, s, m2)
    ybar = s / n
    w = np.sqrt(n)
    n_obs, k = int(n.sum()), X.shape[1]
    rank = None
    if link == "identity":
        # lstsq ranks the weighted rows with matrix_rank's cutoff: one SVD serves both.
        beta, _, rank, _ = np.linalg.lstsq(X * w[:, None], ybar * w, rcond=None)
    _check_rank(X, rank)
    if n_obs <= k:
        raise RankDeficientError("need more observations than coefficients")
    if link == "identity" and not np.all(np.isfinite(beta)):
        raise NonFiniteError("non-finite coefficients during GLM fit")

    def linear(b):
        eta = X @ b
        return eta if link == "identity" else np.clip(eta, -700, 700)

    within = float(m2.sum())

    def rss(b):
        r = ybar - link_inverse(link, linear(b))
        return within + float(n @ (r * r))

    n_iter = 0
    if link == "log":
        mean_y = float(s.sum() / n.sum())
        beta = np.zeros(k)
        beta[0] = math.log(mean_y) if mean_y > 0 else 0.0
        loss = rss(beta)
        for n_iter in range(1, MAX_ITER + 1):
            mu = np.exp(linear(beta))
            J = X * (w * mu)[:, None]
            wresid = w * (ybar - mu)
            grad = J.T @ wresid
            if np.linalg.norm(grad) <= GRAD_TOL:
                n_iter -= 1
                break
            step, *_ = np.linalg.lstsq(J, wresid, rcond=None)
            new_beta = beta + step
            new_loss = rss(new_beta)
            halvings = 0
            while (not np.isfinite(new_loss) or new_loss > loss + 1e-12) and halvings < 30:
                step *= 0.5
                new_beta = beta + step
                new_loss = rss(new_beta)
                halvings += 1
            beta, loss = new_beta, new_loss
            if not np.all(np.isfinite(beta)):
                raise NonFiniteError("non-finite coefficients during GLM fit")

    loss = rss(beta)
    if loss <= 0.0:
        raise DegenerateVarianceError("zero residual variance in continuous fit")
    eta = linear(beta)
    resid = ybar - link_inverse(link, eta)
    d2 = np.asarray(link_inverse_deriv(link, eta)) ** 2
    A = X.T @ (X * (n * d2)[:, None])
    B = X.T @ (X * (d2 * (m2 + n * resid * resid))[:, None])
    try:
        A_inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError("singular bread matrix in sandwich covariance") from exc
    return FittedModel(
        beta=np.asarray(beta, dtype=float),
        link=link,
        covariance=A_inv @ B @ A_inv,
        n_used=n_obs,
        kind="continuous",
        sigma2=loss / (n_obs - k),
        n_iter=n_iter,
    )


def _deployed_package(spec, x):
    """What the centers run for a recommendation ``x``: components with a
    ``deploy_step`` in whole steps, rounded up, capped at the upper bound."""
    x = np.asarray(x, dtype=float).copy()
    if spec.deploy_step is None:
        return x
    for j, step in enumerate(spec.deploy_step):
        if step is None:
            continue
        snapped = math.ceil(x[j] / step - 1e-9) * step
        x[j] = min(snapped, spec.bounds[j][1])
    return x


def _stage_packages(spec, splan, stage_index, state):
    """Intervention packages for one stage: probes, repeats, or the recommendation."""
    if stage_index == 1:
        return [np.asarray(p, dtype=float) for p in splan.probe_packages]
    if spec.design_mode == "factorial-repeat":
        return [np.asarray(p, dtype=float) for p in spec.stages[0].probe_packages]
    if splan.probe_packages is not None:
        return [np.asarray(p, dtype=float) for p in splan.probe_packages]
    rec = next_recommendation(state)
    deployed = _deployed_package(spec, rec.x_hat)
    return [deployed] * splan.n_intervention_centers


def _sandwich_cov(state, model):
    """Heteroscedasticity-robust covariance of the binary fit: the meat
    sums (s - n p)^2 x x' over the centers, the bread is the fit's
    covariance."""
    X, n, s, _ = _center_rows(state.completed)
    resid = s - n * expit(X @ model.beta)
    meat = X.T @ (X * (resid * resid)[:, None])
    return model.covariance @ meat @ model.covariance


def _draw_center(rng, spec, truth, arm, x, n):
    mean = predict(truth, x)
    if not math.isfinite(mean):
        raise NonFiniteError("non-finite value in model input")
    if spec.outcome_kind == "binary":
        successes = int(rng.binomial(n, mean))
        return CenterData.from_stats(arm, x, n, successes, successes * (n - successes) / n)
    center = CenterData(arm=arm, package=x, outcomes=rng.normal(mean, spec.outcome_sigma, size=n))
    if not (math.isfinite(center.outcome_sum) and math.isfinite(center.m2)):
        raise NonFiniteError("non-finite value in model input")
    return center


def _simulate_replicate(spec, config, child_seed):
    """One whole trial per call, one draw call per center, each fit on demand."""
    rng = np.random.default_rng(child_seed)
    truth = sim._true_model(spec)
    try:
        state = new_trial(config)
        for stage_index, splan in enumerate(spec.stages, start=1):
            packages = _stage_packages(spec, splan, stage_index, state)
            if spec.distortion is not None:
                packages = [
                    np.asarray(spec.distortion(stage_index, j, x), dtype=float)
                    for j, x in enumerate(packages)
                ]
            arms = [(0, np.zeros(spec.n_components))] * splan.n_control_centers
            centers = [
                _draw_center(rng, spec, truth, arm, x, splan.n_per_center)
                for arm, x in arms + [(1, x) for x in packages]
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                state = ingest_stage(state, StageRecord(stage_index, centers))

        model = refit(state)
        if spec.se_source == "sandwich" and spec.outcome_kind == "binary":
            covariance = _sandwich_cov(state, model)
        else:
            covariance = model.covariance
        result = final_test(state, alpha=spec.goals.alpha)
        x_rec = None
        if state.recommendations:
            x_rec = np.asarray(state.recommendations[-1].x_hat, dtype=float)
        x_opt = None
        if spec.goals.outcome_goal is not None:
            x_opt = np.asarray(final_optimal(state).x_hat, dtype=float)
        x_for_propt = x_rec if x_rec is not None else x_opt
        propt = None if x_for_propt is None else predict(truth, x_for_propt)
        return ("ok", {
            "beta": np.asarray(model.beta, dtype=float),
            "se": np.sqrt(np.diag(covariance)),
            "reject": bool(result.reject),
            "x_rec": x_rec,
            "x_opt": x_opt,
            "propt": propt,
        })
    except (LagoError, np.linalg.LinAlgError) as exc:
        return ("fail", type(exc).__name__)


def _as_columns(results, n_components):
    """Per-replicate ("ok", payload) / ("fail", kind) results packed as
    ``_simulate_block``'s columns: one row per replicate, NaN (False for
    ``reject``) where the replicate failed or the payload holds None."""
    P = n_components
    blanks = {"beta": np.full(P + 1, np.nan), "se": np.full(P + 1, np.nan), "reject": False,
              "x_rec": np.full(P, np.nan), "x_opt": np.full(P, np.nan), "propt": np.nan}
    kinds = [p if status == "fail" else "" for status, p in results]
    cols = {"kind": np.array(kinds, dtype=object)}
    for name, blank in blanks.items():
        rows = [blank if status == "fail" or p[name] is None else p[name] for status, p in results]
        cols[name] = np.array(rows, dtype=np.asarray(blank).dtype).reshape(
            (len(rows),) + np.shape(blank))
    return cols


def _oracle_block(spec, config, seeds):
    """``_simulate_block``'s columns, every replicate run by the oracle."""
    return _as_columns([_simulate_replicate(spec, config, cs) for cs in seeds],
                       spec.n_components)


def _oracle_fits(patch):
    patch.setattr(trial_module, "fit_binary", lambda records: _fit_binary_scalar(records)[0])
    patch.setattr(trial_module, "fit_continuous", _fit_continuous_scalar)


def _oracle_report(monkeypatch, spec, seed):
    """``run_scenario``'s report with every replicate run by the oracles."""
    with monkeypatch.context() as patch:
        _oracle_fits(patch)
        patch.setattr(sim, "_simulate_block", _oracle_block)
        return sim.run_scenario(spec, seed=seed, threads=1).to_dict()


# ---------------------------------------------------------------------------
# run_scenario against the per-replicate oracle


def _shift_second_component(stage, center, x):
    out = np.asarray(x, dtype=float).copy()
    out[1] = min(out[1] + 1.0, 8.0)
    return out


def _nan_second_component_from_four(stage, center, x):
    out = np.asarray(x, dtype=float).copy()
    if stage == 2 and out[1] >= 4.0:
        out[1] = math.nan
    return out


def _nan_package_at_stage_two(stage, center, x):
    return np.full(2, math.nan) if stage == 2 else x


def _three_stage(spec):
    first = dataclasses.replace(spec.stages[0], n_per_center=27)
    return dataclasses.replace(
        spec, stages=(first, sim.StagePlan(1, 3, 27), sim.StagePlan(1, 3, 26))
    )


def _goals(test=None, **kw):
    if test is not None:
        kw["test"] = lago.TestSelector(test)
    return lago.GoalSpec(outcome_goal=0.7, **kw)


def _power(approach, test):
    return _goals(test, power_goal=0.8, approach=approach)


SPECS = {
    "1a-outcome": lambda: sim.scenario_1a(replicates=20, goals=_goals()),
    "1a-conditional": lambda: sim.scenario_1a(
        replicates=20, goals=_power("conditional", "z_unpooled")),
    "1a-unconditional-z": lambda: sim.scenario_1a(
        replicates=20, goals=_power("unconditional", "z_unpooled")),
    "1a-unconditional-z-pooled": lambda: sim.scenario_1a(
        replicates=20, goals=_power("unconditional", "z_pooled")),
    "1a-wald": lambda: sim.scenario_1a(
        replicates=6, goals=_power("unconditional", "wald_pdf_binary")),
    "1a-wald-null": lambda: sim.null_variant(sim.scenario_1a(
        replicates=6, goals=_power("unconditional", "wald_pdf_binary"))),
    "1b": lambda: sim.scenario_1b(replicates=20),
    "2a": lambda: sim.scenario_2a(replicates=20),
    "2b": lambda: sim.scenario_2b(replicates=20),
    "1a-sandwich": lambda: dataclasses.replace(
        sim.scenario_1a(replicates=20), se_source="sandwich"),
    "1a-three-stage": lambda: _three_stage(sim.scenario_1a(
        replicates=20, goals=_power("conditional", "z_pooled"))),
    "1a-distortion": lambda: dataclasses.replace(
        sim.scenario_1a(replicates=20), distortion=_shift_second_component),
    "continuous-1a-t": lambda: dataclasses.replace(
        sim.scenario_1a(n_per_center=200, replicates=12,
                        goals=_power("conditional", "t_unpooled")),
        outcome_kind="continuous", outcome_link="identity", outcome_sigma=8.0),
    "continuous-log": lambda: dataclasses.replace(
        sim.scenario_1a(n_per_center=200, replicates=12, goals=lago.GoalSpec(
            outcome_goal=1.8, power_goal=0.8, approach="conditional",
            test=lago.TestSelector("t_unpooled"))),
        outcome_kind="continuous", outcome_link="log", outcome_sigma=2.0,
        true_beta=(0.5, 0.1, 0.04)),
    "1a-n3-separation": lambda: sim.scenario_1a(n_per_center=3, replicates=120),
    # stage 1 alone is separated in some replicates, but a repeat design
    # never fits it
    "2b-n3": lambda: sim.scenario_2b(n_per_center=3, replicates=120),
    # an outcome goal past every package: lanes take the shrinking fallback
    "1a-unreachable-goal": lambda: sim.scenario_1a(replicates=20, goals=lago.GoalSpec(
        outcome_goal=0.85, power_goal=0.8, approach="conditional",
        test=lago.TestSelector("z_pooled"))),
    # a decrease goal with negative effects: mirrored effects reach the
    # batched min-cost solve
    "1a-decrease": lambda: dataclasses.replace(sim.scenario_1a(replicates=20, goals=lago.GoalSpec(
        outcome_goal=0.35, direction="decrease", power_goal=0.8, approach="conditional",
        test=lago.TestSelector("z_unpooled"))), true_beta=(0.1, -0.3, -0.15)),
    # two failure kinds: a NaN deployed package fails the draw, and small
    # centers separate some fits
    "1a-two-kinds": lambda: dataclasses.replace(
        sim.scenario_1a(n_per_center=3, replicates=120),
        distortion=_nan_second_component_from_four),
    # every lane decides stage 2, then fails its draw
    "1a-all-fail": lambda: dataclasses.replace(
        sim.scenario_1a(replicates=20, goals=_power("conditional", "z_unpooled")),
        distortion=_nan_package_at_stage_two),
}


@pytest.mark.parametrize("name", list(SPECS))
def test_run_scenario_matches_per_replicate_oracle_bitwise(monkeypatch, name):
    spec = SPECS[name]()
    got = sim.run_scenario(spec, seed=29, threads=1).to_dict()
    want = _oracle_report(monkeypatch, spec, 29)
    assert repr(got) == repr(want)
    if name == "1a-n3-separation":
        assert got["failure_kinds"].get("SeparationError", 0) > 0, got["failure_kinds"]
    elif name == "1a-two-kinds":
        assert list(got["failure_kinds"]) == ["NonFiniteError", "SeparationError"], got
        assert got["n_used"] > 0
    elif name == "1a-all-fail":
        assert got["failure_kinds"] == {"NonFiniteError": spec.replicates}
        assert got["mean_recommendation"] is None and got["propt_q2p5"] is None
    else:
        assert got["n_used"] > 0


@pytest.mark.parametrize("name", list(SPECS))
def test_block_columns_match_the_oracle_lane_by_lane(monkeypatch, name):
    # The report's quantiles and means do not see a permutation of the
    # lanes; the columns do, row by row, NaN positions included.
    spec = SPECS[name]()
    config = sim._trial_config(spec)
    seeds = np.random.SeedSequence(29).spawn(spec.replicates)
    got = sim._simulate_block(spec, config, seeds)
    with monkeypatch.context() as patch:
        _oracle_fits(patch)
        want = _oracle_block(spec, config, seeds)
    assert list(got) == list(want)
    assert got["kind"].tolist() == want["kind"].tolist()
    for field in list(want)[1:]:
        assert got[field].dtype == want[field].dtype, field
        assert got[field].shape == want[field].shape, field
        assert got[field].tobytes() == want[field].tobytes(), field


@pytest.mark.parametrize("name", list(SPECS))
def test_every_recommendation_costs_what_the_cost_evaluates_bitwise(monkeypatch, name):
    decided = []

    def recording(models, summaries, goals, cost, *rest):
        out = lago.optimizer._recommend_lanes(models, summaries, goals, cost, *rest)
        decided.extend((rec, cost) for rec in out if isinstance(rec, lago.Recommendation))
        return out

    monkeypatch.setattr(sim, "_recommend_lanes", recording)
    spec = SPECS[name]()
    sim.run_scenario(spec, seed=29, threads=1)
    assert decided or spec.design_mode == "factorial-repeat"
    for rec, cost in decided:
        assert rec.cost.hex() == cost.evaluate(rec.x_hat).hex(), rec


def _without_anchor(monkeypatch):
    """Shrinking fallbacks without a configured stage-1 package raise
    InfeasibleError: the anchor is never the observed stage-1 mean."""
    for module in (lago.optimizer, trial_module):
        monkeypatch.setattr(module, "_stage1_anchor", lambda state: state.config.stage1_package)
    monkeypatch.setattr(sim._Block, "anchors",
                        lambda block, config, lanes, end: [config.stage1_package] * len(lanes))


def _unanchored(design_mode="lago"):
    spec = sim.scenario_1a(replicates=40, goals=lago.GoalSpec(outcome_goal=0.8))
    return dataclasses.replace(spec, stage1_fallback_x=None, design_mode=design_mode)


def test_final_package_failures_match_the_oracle(monkeypatch):
    _without_anchor(monkeypatch)
    spec = _unanchored()
    got = sim.run_scenario(spec, seed=29, threads=1).to_dict()
    assert repr(got) == repr(_oracle_report(monkeypatch, spec, 29))
    assert got["failure_kinds"].get("InfeasibleError", 0) > 0 and got["n_used"] > 0


def test_a_failing_final_test_is_reported_before_the_final_package(monkeypatch):
    # A repeat design makes no staged decision, so every InfeasibleError is
    # a final package; with a final test that always fails, those lanes
    # report the final test's kind, as the per-replicate order has it.
    _without_anchor(monkeypatch)
    spec = _unanchored("factorial-repeat")
    kinds = sim.run_scenario(spec, seed=29, threads=1).failure_kinds
    assert kinds.get("InfeasibleError", 0) > 0

    def failing_tests(summary, test, alpha, models):
        return [NonFiniteError("final test failed")] * len(models)

    def failing_test(state, alpha=0.05):
        raise NonFiniteError("final test failed")

    monkeypatch.setattr(sim, "_final_rejects", failing_tests)
    got = sim.run_scenario(spec, seed=29, threads=1).to_dict()
    monkeypatch.setattr(sys.modules[__name__], "final_test", failing_test)  # the oracle's
    assert repr(got) == repr(_oracle_report(monkeypatch, spec, 29))
    assert got["failure_kinds"] == {"NonFiniteError": 40}


def test_non_finite_continuous_draws_fail_their_lanes_as_the_oracle_does(monkeypatch):
    # A NaN package gives a NaN mean, and the draw fails that lane with the
    # error the fit would raise on its data.
    def nan_second_component(stage, center, x):
        out = np.asarray(x, dtype=float).copy()
        if stage == 2:
            out[1] = math.nan
        return out

    spec = dataclasses.replace(SPECS["continuous-1a-t"](), distortion=nan_second_component)
    got = sim.run_scenario(spec, seed=29, threads=1).to_dict()
    assert repr(got) == repr(_oracle_report(monkeypatch, spec, 29))
    assert got["failure_kinds"] == {"NonFiniteError": spec.replicates}


def test_a_non_finite_binary_package_fails_its_lanes_as_the_oracle_does(monkeypatch):
    # A NaN package is a NaN success probability, which the binomial draw
    # cannot take; the lane fails as the continuous one does.
    def nan_package(stage, center, x):
        return np.full(2, math.nan) if stage == 2 else x

    spec = dataclasses.replace(sim.scenario_1a(replicates=6, seed=3), distortion=nan_package)
    got = sim.run_scenario(spec, threads=1).to_dict()
    assert repr(got) == repr(_oracle_report(monkeypatch, spec, 3))
    assert got["failure_kinds"] == {"NonFiniteError": 6}


def test_a_fit_input_error_ends_the_run(monkeypatch):
    # Only numerical failures (LagoError, LinAlgError) fail a replicate.
    real = sim._fit_binary_stack

    def one_lane_invalid(*stack):
        fits = real(*stack)
        fits[-1] = ValueError("center statistics are not those of 0/1 outcomes")
        return fits

    monkeypatch.setattr(sim, "_fit_binary_stack", one_lane_invalid)
    with pytest.raises(ValueError, match="0/1 outcomes"):
        sim.run_scenario(sim.scenario_1a(replicates=3), seed=29, threads=1)


def test_stage_draws_match_per_center_draws_and_stream_position():
    # One call draws a stage for several lanes, each from its own stream:
    # every lane's sums, m2 and stream position equal one draw call per center.
    deployed = np.array([0.75, 3.0])
    for outcome_kind in ("binary", "continuous"):
        spec = dataclasses.replace(sim.scenario_1a(n_per_center=25, replicates=1),
                                   outcome_kind=outcome_kind, outcome_sigma=8.0)
        truth = sim._true_model(spec)
        splan = spec.stages[0]
        layouts = (
            [np.asarray(p, dtype=float) for p in splan.probe_packages],
            [deployed] * 3,  # one recommendation at every center
            [deployed.copy(), np.array([1.0, 4.0]), deployed.copy()],
        )
        arms = [0] * splan.n_control_centers + [1] * 3
        for seed in range(0, 200, 5):
            lanes = [[np.zeros(2)] * splan.n_control_centers + layouts[(seed + j) % 3]
                     for j in range(5)]
            got_rngs = [np.random.default_rng([seed + j, 3]) for j in range(5)]
            sums, m2, failed = sim._draw_stage(got_rngs, spec, truth, np.array(lanes), 25)
            assert sums.shape == m2.shape == (5, 4) and not failed.any()
            for j, packages in enumerate(lanes):
                rng = np.random.default_rng([seed + j, 3])
                want = [_draw_center(rng, spec, truth, a, x, 25) for a, x in zip(arms, packages)]
                assert sums[j].tobytes() == np.array([c.outcome_sum for c in want]).tobytes()
                assert m2[j].tobytes() == np.array([c.m2 for c in want]).tobytes()
                assert got_rngs[j].bit_generator.state == rng.bit_generator.state


def test_deployed_packages_match_the_per_replicate_rounding():
    # Whole steps rounded up and capped, bitwise, signed zeros included: a
    # recommendation of 0 (or just above a step) must not deploy -0.0.
    spec = dataclasses.replace(sim.scenario_1a(replicates=1), deploy_step=(0.25, 1.0))
    rng = np.random.default_rng(43)
    x = np.concatenate([rng.uniform(0.0, 1.0, (300, 2)) * (2.0, 8.0),
                        rng.integers(0, 9, (300, 2)) * (0.25, 1.0),
                        np.array([[0.0, 0.0], [1e-12, 1e-12], [2.0, 8.0], [1.99, 7.5]])])
    got = sim._deployed_packages(spec, x)
    want = np.array([_deployed_package(spec, row) for row in x])
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() != sim._deployed_packages(
        dataclasses.replace(spec, deploy_step=None), x).tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 2000, 2001])
def test_block_statistics_match_centers_built_from_their_outcomes(n):
    spec = dataclasses.replace(sim.scenario_1a(n_per_center=n, replicates=1),
                               outcome_kind="continuous", outcome_sigma=8.0)
    truth = sim._true_model(spec)
    splan = spec.stages[0]
    packages = [np.asarray(p, dtype=float) for p in splan.probe_packages]
    arms = [(0, np.zeros(2))] * splan.n_control_centers + [(1, x) for x in packages]
    means = np.array([predict(truth, x) for _, x in arms])
    lanes = np.array([[x for _, x in arms]] * 4)
    for seed in range(0, 40, 4):
        sums, m2, _ = sim._draw_stage([np.random.default_rng([seed + j, n]) for j in range(4)],
                                      spec, truth, lanes, n)
        for j in range(4):
            z = np.random.default_rng([seed + j, n]).standard_normal((len(arms), n))
            ys = means[:, None] + spec.outcome_sigma * z
            want = [CenterData(arm, x, y) for (arm, x), y in zip(arms, ys)]
            assert sums[j].tobytes() == np.array([c.outcome_sum for c in want]).tobytes()
            assert m2[j].tobytes() == np.array([c.m2 for c in want]).tobytes()


@pytest.mark.parametrize("block_lanes, blocks", [(512, 1), (7, 3)])
def test_a_block_computes_its_means_in_one_array_call_per_stage(monkeypatch, block_lanes, blocks):
    # No scalar predict: a block's draw means are one _predict_lanes call per
    # stage, over all its lanes and centers, and its replicates' propt one more.
    calls = Counter()
    real_means = sim._predict_lanes

    def counted_predict(model, x):
        calls["predict"] += 1
        raise AssertionError("a scalar predict in the block")

    def counted_means(*args):
        calls["means"] += 1
        return real_means(*args)

    monkeypatch.setattr(sim, "predict", counted_predict)
    monkeypatch.setattr(sim, "_predict_lanes", counted_means)
    monkeypatch.setattr(sim, "BLOCK_LANES", block_lanes)
    report = sim.run_scenario(sim.scenario_1a(replicates=20), seed=29, threads=1)
    assert report.n_used == 20
    assert calls == {"means": 3 * blocks}, calls


# ---------------------------------------------------------------------------
# seeded random specs at every block size against the oracle


def _draw_spec(data, seed):
    kind = data.draw(st.sampled_from(["binary", "continuous"]), "kind")
    n_stages = data.draw(st.integers(2, 3), "stages")
    probes = st.sampled_from([(1.0, 0.0), (0.0, 4.0), (1.0, 4.0), (2.0, 8.0), (0.5, 1.0)])
    stages = []
    for k in range(n_stages):
        # stage 1 runs three distinct probes, which identify the model unless
        # two of them are collinear
        n_int = 3 if k == 0 else data.draw(st.integers(1, 3), f"interventions {k}")
        stage_probes = None
        if k == 0 or data.draw(st.booleans(), f"probes {k}"):
            stage_probes = tuple(data.draw(st.lists(probes, min_size=n_int, max_size=n_int,
                                                    unique=k == 0), f"probes {k}"))
        stages.append(sim.StagePlan(data.draw(st.integers(1, 2), f"controls {k}"), n_int,
                                    data.draw(st.integers(2, 60), f"n {k}"), stage_probes))
    test = data.draw(st.sampled_from(["z_unpooled", "z_pooled"] if kind == "binary"
                                     else ["t_unpooled", "t_pooled"]), "test")
    power = data.draw(st.sampled_from(["conditional", "unconditional", None]), "power")
    # the higher goals are out of reach in some lanes: the shrinking fallback
    goal = data.draw(st.sampled_from([0.7, 0.85] if kind == "binary" else [0.8, 1.0]), "goal")
    goals = (lago.GoalSpec(outcome_goal=goal) if power is None else lago.GoalSpec(
        outcome_goal=goal, power_goal=0.8, approach=power, test=lago.TestSelector(test)))
    spec = dataclasses.replace(
        sim.scenario_1a(replicates=data.draw(st.integers(1, 12), "replicates"), goals=goals,
                        seed=seed),
        stages=tuple(stages),
        deploy_step=data.draw(st.sampled_from([None, (None, 1.0), (0.25, 2.0)]), "deploy"),
        stage1_fallback_x=data.draw(st.sampled_from([None, (1.0, 4.0)]), "anchor"))
    if kind == "continuous":
        spec = dataclasses.replace(spec, outcome_kind="continuous", outcome_sigma=2.0,
                                   true_beta=(0.5, 0.1, 0.04))
    return spec


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data(), st.integers(0, 2**32 - 1))
def test_random_specs_match_the_oracle_at_every_block_size(data, seed):
    spec = _draw_spec(data, seed)
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = repr(_oracle_report(patch, spec, seed))
        for lanes in (1, 7, 512):
            patch.setattr(sim, "BLOCK_LANES", lanes)
            assert repr(sim.run_scenario(spec, threads=1).to_dict()) == want, lanes


# ---------------------------------------------------------------------------
# arm totals and the final test over lanes against the per-lane forms


def _lane_records(rng, lanes, continuous, effect=0.1, sd=2.0):
    """Each lane's two stage records of one layout (one control and three
    intervention centers a stage, 2 to 29 outcomes per center); every tenth
    lane has the same outcome everywhere.  With a small ``sd`` the centers'
    continuous means spread far wider than their outcomes."""
    sizes = rng.integers(2, 30, 8).tolist()
    out = []
    for lane in range(lanes):
        centers = []
        for c, n in enumerate(sizes):
            x = np.zeros(2) if c % 4 == 0 else np.round(rng.uniform(0.0, 4.0, 2), 2)
            shift = rng.uniform(0.0, 100.0) if sd < 1.0 else 0.0
            y = (rng.normal(3.0 + effect * x.sum() + shift, sd, n) if continuous
                 else (rng.random(n) < 0.3 + effect * x.sum()).astype(float))
            centers.append(CenterData(int(c % 4 != 0), x, np.full(n, 1.0) if lane % 10 == 0 else y))
        out.append([StageRecord(1, centers[:4]), StageRecord(2, centers[4:])])
    return out


def _lane_summaries(lanes, future, continuous):
    # one tuple per center: that center in every lane
    centers = list(zip(*([c for rec in recs for c in rec.centers] for recs in lanes)))
    columns = lago.power.ArmSummary._from_centers(
        [(cs[0].arm, cs[0].size, np.array([c.outcome_sum for c in cs]),
          np.array([c.m2 for c in cs])) for cs in centers], future, continuous)
    packages = np.array([[c.package for c in cs] for cs in centers]).swapaxes(0, 1)
    return lago.power._LaneSummaries(columns, packages, np.array([float(cs[0].size)
                                                                 for cs in centers]))


@pytest.mark.parametrize("continuous", [False, True])
def test_lane_arm_totals_match_each_lane_summary_bitwise(continuous):
    # Centers far apart, so the pooled variance is mostly the squared mean
    # deviations: its per-entry pow shows if it became x * x (the two differ
    # in the last bit on about 1 square in 1,200).
    lanes = _lane_records(np.random.default_rng([47, continuous]), 1500, continuous, sd=0.01)
    summaries = _lane_summaries(lanes, (100.0, 30.0), continuous)
    for i, records in enumerate(lanes):
        want = lago.ArmSummary.from_records(records, future=(100.0, 30.0), continuous=continuous)
        assert repr(summaries[i]) == repr(want), i


@pytest.mark.parametrize("kind", ["z_unpooled", "z_pooled", "t_unpooled", "t_pooled"])
def test_final_rejects_over_lanes_match_the_scalar_final_test(kind):
    test = lago.TestSelector(kind)
    lanes = _lane_records(np.random.default_rng([53, len(kind)]), 200, test.continuous_outcome)
    got = lago.power._final_rejects(
        _lane_summaries(lanes, (0.0, 0.0), test.continuous_outcome).columns, test, 0.05, None)
    seen = Counter()
    for records, g in zip(lanes, got):
        summary = lago.ArmSummary.from_records(records, continuous=test.continuous_outcome)
        try:
            want = lago.summary_final_test(summary, test, alpha=0.05).reject
        except LagoError as exc:
            want = exc
        _assert_same_result(g, want)
        seen[repr(want)[:20]] += 1
    assert seen["True"] and seen["False"] and len(seen) == 3, seen


def _assert_same_result(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert type(got) is bool and got == want


def test_the_wald_final_test_computes_one_critical_value_per_block(monkeypatch):
    test = lago.TestSelector("wald_pdf_binary")
    models = [lago.fit_binary(records) for records in
              _lane_records(np.random.default_rng(59), 60, False, 0.02)[1::2]]
    models.append(dataclasses.replace(models[0], covariance=np.zeros((3, 3))))  # singular
    want = []
    for model in models:
        try:
            want.append(lago.summary_final_test(None, test, alpha=0.05, model=model).reject)
        except LagoError as exc:
            want.append(exc)
    calls = Counter()
    real = lago.power.chisq_quantile

    def counted(p, df):
        calls[(p, df)] += 1
        return real(p, df)

    monkeypatch.setattr(lago.power, "chisq_quantile", counted)
    got = lago.power._final_rejects(None, test, 0.05, models)
    assert calls == {(0.95, 2): 1}
    for g, w in zip(got, want):
        _assert_same_result(g, w)
    assert isinstance(want[-1], lago.SingularCovarianceError) and True in want and False in want


# ---------------------------------------------------------------------------
# the stacked kernel against the single-design oracles


def _stack(designs):
    return [np.stack(parts) for parts in zip(*(_center_rows(d) for d in designs))]


def _same_fit(got, want):
    return (type(got) is FittedModel and got.beta.tobytes() == want.beta.tobytes()
            and got.covariance.tobytes() == want.covariance.tobytes()
            and got.n_iter == want.n_iter and got.n_used == want.n_used)


def _outcome(fit, records):
    try:
        return fit(records)
    except LagoError as exc:
        return exc


def test_the_irls_fits_match_the_oracle_on_the_seeded_designs():
    # ``fit_binary`` on each design, and the stacked kernel on the designs
    # of one shape (they differ in center and component counts) at once.
    by_shape = defaultdict(list)
    for index in range(200):
        records = _grouped_design(index)
        by_shape[_center_rows(records)[0].shape].append(records)
    seen = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for designs in by_shape.values():
            for records, got in zip(designs, _fit_binary_stack(*_stack(designs))):
                want = _outcome(_fit_binary_scalar, records)
                one = _outcome(lago.fit_binary, records)
                if isinstance(want, Exception):
                    seen[type(want).__name__] += 1
                    assert _same_outcome(got, want) and _same_outcome(one, want), (got, one, want)
                    continue
                want, halvings = want
                seen["fitted"] += 1
                seen["halved"] += halvings > 0
                assert _same_fit(got, want) and _same_fit(one, want)
    assert seen["fitted"] >= 100 and seen["halved"] >= 3, seen
    for kind in ("SeparationError", "NonFiniteError", "RankDeficientError"):
        assert seen[kind] >= 1, seen


def _one_component(sizes, packages, successes):
    return [StageRecord(1, [
        CenterData.from_stats(1, [x], n, float(k), k * (n - k) / n)
        for n, x, k in zip(sizes, packages, successes)
    ])]


def _edge_designs():
    """Same-shape designs that leave the common path, one per way out."""
    non_binary = _one_component((10, 10), (1.0, 3.0), (4, 6))
    non_binary[0].centers[1].m2 = 9.0
    return {
        "ordinary": _one_component((10, 10), (1.0, 3.0), (4, 6)),
        "singular-iteration": _one_component((10, 10), (10454390.0, 189749070.0), (6, 0)),
        "singular-optimum": _one_component((10, 10), (351187.0, 158331143.0), (8, 10)),
        "capped": _one_component((10, 10), (34.0, 53769777.0), (0, 7)),
        "identical": _one_component((10, 10), (1.0, 3.0), (0, 0)),
        "rank": _one_component((10, 10), (11.0, 11.0), (5, 0)),
        "non-finite": _one_component((10, 10), (1.0, math.nan), (4, 6)),
        "non-binary": non_binary,
    }


def test_every_way_out_of_the_common_path_matches_per_lane():
    designs = _edge_designs()
    want = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, records in designs.items():
            try:
                want[name] = _fit_binary_scalar(records)[0]
            except (LagoError, ValueError) as exc:
                want[name] = exc
        got = dict(zip(designs, _fit_binary_stack(*_stack(designs.values()))))
    messages = {name: str(w) for name, w in want.items() if isinstance(w, Exception)}
    assert messages == {
        "singular-iteration": "information matrix singular during iteration (separated data?)",
        "singular-optimum": "observed information singular at the optimum",
        "capped": f"coefficient magnitude exceeded {COEF_CAP}; data likely separated",
        "identical": "all outcomes identical; logistic MLE does not exist",
        "rank": "design matrix is rank deficient; coefficients are not identifiable",
        "non-finite": "non-finite value in model input",
        "non-binary": "center statistics are not those of 0/1 outcomes",
    }
    for name, w in want.items():
        if isinstance(w, Exception):
            assert type(got[name]) is type(w) and str(got[name]) == str(w), name
            with pytest.raises(type(w), match=re.escape(str(w))):
                lago.fit_binary(designs[name])
        else:
            assert _same_fit(got[name], w), name
            assert _same_fit(lago.fit_binary(designs[name]), w), name


def _sim_designs(count):
    """Pooled two-stage designs of scenario 1a (eight centers, two components),
    small enough per center that some are separated."""
    spec = sim.scenario_1a(n_per_center=2, replicates=1)
    truth = sim._true_model(spec)
    designs = []
    for index in range(count):
        rng = np.random.default_rng([31, index])
        records = []
        for stage_index, splan in enumerate(spec.stages, start=1):
            packages = [np.round(rng.uniform(0.0, (2.0, 8.0)), 2) for _ in range(3)]
            arms = [(0, np.zeros(2))] * splan.n_control_centers + [(1, x) for x in packages]
            records.append(StageRecord(stage_index, [
                _draw_center(rng, spec, truth, arm, x, splan.n_per_center) for arm, x in arms]))
        designs.append(records)
    return designs


def test_lanes_are_independent_of_their_stack():
    designs = _sim_designs(60)
    X, m, s, m2 = _stack(designs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        whole = _fit_binary_stack(X, m, s, m2)
        reverse = _fit_binary_stack(X[::-1], m[::-1], s[::-1], m2[::-1])[::-1]
        chunked = {
            size: [fit for a in range(0, len(designs), size)
                   for fit in _fit_binary_stack(X[a:a + size], m[a:a + size],
                                                s[a:a + size], m2[a:a + size])]
            for size in (1, 7)
        }
    kinds = Counter(type(fit).__name__ for fit in whole)
    assert kinds["FittedModel"] >= 30 and kinds["SeparationError"] >= 1, kinds
    for lane, fit in enumerate(whole):
        for other in (reverse[lane], chunked[1][lane], chunked[7][lane]):
            if isinstance(fit, Exception):
                assert type(other) is type(fit) and str(other) == str(fit)
            else:
                assert _same_fit(other, fit)


def test_the_engine_fits_only_through_the_stacked_kernels():
    # Every simulated fit is a lane of a stacked call: the block runs the
    # kernels and the decisions read the fits it stored.
    tree = ast.parse(Path(sim.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_simulate_block", "_decide_lanes"):
        called = {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
        }
        assert not called & {"fit_continuous", "fit_binary", "refit"}, (name, called)
        if name == "_simulate_block":
            assert {"_fit_binary_stack", "_fit_continuous_stack"} <= called


def test_the_engine_hashes_no_seed_sequence_per_lane():
    # The lane seeds come from one array pass (sim._spawn_words); a
    # SeedSequence per lane would put its hashing back on every replicate.
    for name in ("run_scenario", "_simulate_block"):
        called = _called_names(_function("sim", name))
        assert not called & {"SeedSequence", "spawn"}, (name, called)
    assert "_spawn_words" in _called_names(_function("sim", "run_scenario"))


# ---------------------------------------------------------------------------
# the continuous kernel against the single-design oracle


def _same_continuous_fit(got, want):
    return (_same_fit(got, want) and type(got.sigma2) is float
            and np.float64(got.sigma2).tobytes() == np.float64(want.sigma2).tobytes())


def _same_outcome(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return _same_continuous_fit(got, want)


def _continuous_oracle(records, link):
    try:
        return _fit_continuous_scalar(records, link)
    except (LagoError, np.linalg.LinAlgError) as exc:
        return exc


def _continuous_design(rng, C, P, link):
    """One stage of C centers (two controls) with P components; about one
    design in twenty has identical outcomes."""
    centers = []
    for c in range(C):
        x = np.zeros(P) if c < 2 else np.round(rng.uniform(0.0, 4.0, P), 1)
        n = int(rng.integers(1, 60))
        mean = 1.0 + 0.3 * x.sum()
        y = (rng.normal(mean, 2.0, n) if link == "identity"
             else rng.gamma(2.0, mean / 2.0, n))
        if rng.random() < 0.05:
            y = np.full(n, 3.0)
        centers.append(CenterData(int(c >= 2), x, y))
    return [StageRecord(1, centers)]


@pytest.mark.parametrize("link", CONTINUOUS_LINKS)
def test_continuous_kernel_matches_the_oracle_on_seeded_designs(link):
    rng = np.random.default_rng([17, len(link)])
    seen = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for C, P in ((3, 1), (5, 2), (8, 2), (4, 3)):
            designs = [_continuous_design(rng, C, P, link) for _ in range(40)]
            for records, got in zip(designs, _fit_continuous_stack(*_stack(designs), link)):
                want = _continuous_oracle(records, link)
                assert _same_outcome(got, want), (C, P, got, want)
                seen[type(want).__name__] += 1
                seen["iterated"] += getattr(want, "n_iter", 0) > 1
    assert seen["FittedModel"] >= 80 and seen["RankDeficientError"] >= 1, seen
    if link == "log":
        assert seen["iterated"] >= 80, seen


def _one_component_continuous(sizes, packages, sums, m2s):
    return [StageRecord(1, [
        CenterData.from_stats(int(x != 0.0), [x], n, s, v)
        for n, x, s, v in zip(sizes, packages, sums, m2s)
    ])]


# Same-shape designs (two centers, one component) that leave the common
# path; the last two were found by a seeded search over extreme values.
CONTINUOUS_EDGES = {
    "ordinary": ((10, 10), (0.0, 2.0), (20.0, 35.0), (8.0, 9.0)),
    "non-finite": ((10, 10), (0.0, math.nan), (20.0, 35.0), (8.0, 9.0)),
    "rank": ((10, 10), (2.0, 2.0), (20.0, 35.0), (8.0, 9.0)),
    "too-few": ((1, 1), (0.0, 2.0), (2.0, 3.5), (0.0, 0.0)),
    "zero-at-zero": ((10, 10), (0.0, 1.0), (0.0, 0.0), (0.0, 0.0)),
    "zero-constant": ((10, 10), (0.0, 1.0), (20.0, 20.0), (0.0, 0.0)),
    "underflow": ((10, 10), (0.0, 1.0), (1e-170, 1e-170), (1e-300, 1e-300)),
    "diverging": ((10, 10), (0.0, -8.630068011442265e-14),
                  (-5.243946515485304e+299, 6.389296193700582e-27),
                  (3.919405553480045e-93, 9.684749807676357e-176)),
    "svd": ((10, 10), (0.0, -42168548137073.414),
            (-2.3702280074620965e+208, -4.961177154320593e-56),
            (4.7815263136396664e+48, 2.4795325372332134e-37)),
}


def test_every_way_out_of_the_continuous_fit_matches_per_lane():
    messages = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for link in CONTINUOUS_LINKS:
            designs = {name: _one_component_continuous(*a) for name, a in CONTINUOUS_EDGES.items()}
            got = dict(zip(designs, _fit_continuous_stack(*_stack(designs.values()), link)))
            for name, records in designs.items():
                want = _continuous_oracle(records, link)
                assert _same_outcome(got[name], want), (link, name, got[name], want)
                if isinstance(want, Exception):
                    messages.add(f"{type(want).__name__}: {want}")
                    with pytest.raises(type(want), match=re.escape(str(want))):
                        lago.fit_continuous(records, link=link)
                else:
                    assert _same_continuous_fit(lago.fit_continuous(records, link=link), want)
    assert messages == {
        "NonFiniteError: non-finite value in model input",
        "RankDeficientError: design matrix is rank deficient; coefficients are not identifiable",
        "RankDeficientError: need more observations than coefficients",
        "DegenerateVarianceError: zero residual variance in continuous fit",
        "RankDeficientError: singular bread matrix in sandwich covariance",
        "NonFiniteError: non-finite coefficients during GLM fit",
        "LinAlgError: SVD did not converge in Linear Least Squares",
    }


def test_an_identity_fit_with_non_finite_coefficients_raises_without_a_warning():
    records = _one_component_continuous(*CONTINUOUS_EDGES["diverging"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="non-finite coefficients during GLM fit"):
            lago.fit_continuous(records, link="identity")


def _continuous_sim_designs(count, link):
    """Pooled two-stage designs of continuous scenario 1a."""
    spec = dataclasses.replace(sim.scenario_1a(n_per_center=3, replicates=1),
                               outcome_kind="continuous", outcome_link=link,
                               outcome_sigma=2.0, true_beta=(0.5, 0.1, 0.04))
    truth = sim._true_model(spec)
    designs = []
    for index in range(count):
        rng = np.random.default_rng([37, index])
        records = []
        for stage_index, splan in enumerate(spec.stages, start=1):
            packages = [np.round(rng.uniform(0.0, (2.0, 8.0)), 2) for _ in range(3)]
            arms = [(0, np.zeros(2))] * splan.n_control_centers + [(1, x) for x in packages]
            records.append(StageRecord(stage_index, [
                _draw_center(rng, spec, truth, arm, x, splan.n_per_center) for arm, x in arms]))
        designs.append(records)
    return designs


@pytest.mark.parametrize("link", CONTINUOUS_LINKS)
def test_continuous_lanes_are_independent_of_their_stack(link):
    designs = _continuous_sim_designs(40, link)
    X, n, s, m2 = _stack(designs)
    whole = _fit_continuous_stack(X, n, s, m2, link)
    reverse = _fit_continuous_stack(X[::-1], n[::-1], s[::-1], m2[::-1], link)[::-1]
    chunked = {
        size: [fit for a in range(0, len(designs), size)
               for fit in _fit_continuous_stack(X[a:a + size], n[a:a + size],
                                                s[a:a + size], m2[a:a + size], link)]
        for size in (1, 7)
    }
    assert all(type(fit) is FittedModel for fit in whole)
    for lane, fit in enumerate(whole):
        assert _same_continuous_fit(fit, _fit_continuous_scalar(designs[lane], link))
        for other in (reverse[lane], chunked[1][lane], chunked[7][lane]):
            assert _same_continuous_fit(other, fit)


def test_the_stacked_least_squares_gufunc_matches_lstsq_per_lane():
    # The identity fit calls the gufunc that np.linalg.lstsq wraps; a numpy
    # release that changed the wrapper's cutoff or its output would show here.
    rng = np.random.default_rng(41)
    for C, k in ((2, 2), (5, 3), (8, 3), (3, 4)):
        A = rng.normal(size=(25, C, k)) * rng.uniform(0.1, 10.0, size=(25, 1, 1))
        A[3, :, -1] = A[3, :, 0]  # one rank-deficient lane
        b = rng.normal(size=(25, C))
        x, rank, errors = _lstsq_stack(A, b)
        assert errors == [None] * 25
        for j in range(25):
            want_x, _, want_rank, _ = np.linalg.lstsq(A[j], b[j], rcond=None)
            assert x[j].tobytes() == want_x.tobytes() and rank[j] == want_rank
        assert rank[3] < k


# ---------------------------------------------------------------------------
# lane seeds against numpy's spawn children


SPAWN_SEEDS = (0, 1, 4, 11, 2**32 - 1, 2**32, 2**40 + 7, 2**97 + 12345, 2**128 + 3)


class _Seeded(Exception):
    """Carries the lane seeds of a run's first block out of ``run_scenario``."""


def _lane_seeds(seed, R):
    """The seeds ``run_scenario`` hands its blocks for R replicates, in one
    block."""

    def capture(spec, config, child_seeds):
        raise _Seeded(child_seeds)

    with pytest.MonkeyPatch.context() as patch, pytest.raises(_Seeded) as caught:
        patch.setattr(sim, "BLOCK_LANES", R)
        patch.setattr(sim, "_simulate_block", capture)
        sim.run_scenario(sim.scenario_1a(replicates=R), seed=seed, threads=1)
    return caught.value.args[0]


def _assert_spawn_children(seed, R=2000):
    """Lane i seeds PCG64 as ``SeedSequence(seed).spawn(R)[i]`` does: the
    same words, the same state, the same first binomial and normal draws."""
    lanes = _lane_seeds(seed, R)
    children = np.random.SeedSequence(seed).spawn(R)
    assert len(lanes) == R
    for lane, child in zip(lanes, children):
        words = lane.generate_state(4, np.uint64)
        assert words.dtype == np.uint64 and words.shape == (4,)
        assert words.tobytes() == child.generate_state(4, np.uint64).tobytes()
        got, want = np.random.PCG64(lane), np.random.PCG64(child)
        assert got.state == want.state
        got, want = np.random.Generator(got), np.random.Generator(want)
        assert got.binomial(40, 0.3) == want.binomial(40, 0.3)
        assert got.standard_normal() == want.standard_normal()


@pytest.mark.parametrize("seed", SPAWN_SEEDS)
def test_lane_seeds_are_numpys_spawn_children(seed):
    _assert_spawn_children(seed)


@settings(max_examples=14, deadline=None)
@given(st.sampled_from(range(1, 8)).flatmap(  # one to seven 32-bit words, up to 2**200
    lambda words: st.integers(2 ** (32 * words - 32), min(2 ** (32 * words), 2**200))))
def test_lane_seeds_are_numpys_spawn_children_at_drawn_seeds(seed):
    _assert_spawn_children(seed)


def test_lane_seeds_survive_a_pickle_round_trip():
    # The process pool pickles each block's seeds into its workers.
    lanes = _lane_seeds(2**97 + 12345, 300)
    copies = pickle.loads(pickle.dumps(lanes))
    for lane, copy in zip(lanes, copies):
        assert type(copy) is type(lane)
        assert np.random.PCG64(copy).state == np.random.PCG64(lane).state


@pytest.mark.parametrize("request_args", [
    (4,), (4, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64), (4, np.float64),
])
def test_a_lane_seed_refuses_any_other_request(request_args):
    (lane,) = _lane_seeds(11, 1)
    with pytest.raises(ValueError, match="4 uint64 words"):
        lane.generate_state(*request_args)


def test_a_lane_seed_hands_out_a_fresh_copy_of_its_words():
    (lane,) = _lane_seeds(11, 1)
    words = lane.generate_state(4, np.dtype("<u8"))
    words[:] = 0
    child = np.random.SeedSequence(11).spawn(1)[0]
    assert lane.generate_state(4, np.uint64).tobytes() == child.generate_state(4, np.uint64).tobytes()

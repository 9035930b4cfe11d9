"""Differential tests for the lockstep replicate engine and the stacked fits.

``run_scenario`` advances all replicates of a block one stage at a time and
fits every replicate's pooled data in one ``_fit_binary_stack`` or
``_fit_continuous_stack`` call per stage.  The per-replicate path it
replaced, with its per-center draws and outcome vectors, and the
single-design fits ``fit_binary`` and ``fit_continuous`` ran before each
became the one-lane call of its kernel, are kept here as oracles: the
engine's reports and the kernels' fits must agree with them bitwise, with
the same error type and message, and a lane's result must not depend on
the other lanes of its stack.
"""

import ast
import dataclasses
import math
import re
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

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
    _stack_rows,
    expit,
    link_inverse,
    link_inverse_deriv,
    logistic_information,
    predict,
)
from lago.trial import final_optimal, final_test, ingest_stage, new_trial, refit
from test_fast_paths import _check_finite, _fit_binary_oracle, _grouped_design, _outcome

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


def _fit_binary_scalar(records):
    """The single-design IRLS loop, with its scalar tests on Python floats."""
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
    n_iter = 0
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
    return FittedModel(
        beta=beta, link="logit", covariance=cov, n_used=int(m.sum()), kind="binary",
        n_iter=n_iter,
    )


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


def _draw_center(rng, spec, truth, arm, x, n):
    mean = predict(truth, x)
    if spec.outcome_kind == "binary":
        successes = int(rng.binomial(n, mean))
        return CenterData.from_stats(arm, x, n, successes, successes * (n - successes) / n)
    return CenterData(arm=arm, package=x, outcomes=rng.normal(mean, spec.outcome_sigma, size=n))


def _simulate_replicate(spec, config, child_seed):
    """One whole trial per call, one draw call per center, each fit on demand."""
    rng = np.random.default_rng(child_seed)
    truth = sim._true_model(spec)
    try:
        state = new_trial(config)
        for stage_index, splan in enumerate(spec.stages, start=1):
            packages = sim._stage_packages(spec, splan, stage_index, state)
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
            covariance = sim._sandwich_cov(state, model)
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


def _oracle_report(monkeypatch, spec, seed):
    """``run_scenario``'s report with every replicate run by the oracles."""
    with monkeypatch.context() as patch:
        patch.setattr(trial_module, "fit_binary", _fit_binary_scalar)
        patch.setattr(trial_module, "fit_continuous", _fit_continuous_scalar)
        patch.setattr(sim, "_simulate_block", lambda spec, config, seeds: [
            _simulate_replicate(spec, config, cs) for cs in seeds
        ])
        return sim.run_scenario(spec, seed=seed, threads=1).to_dict()


# ---------------------------------------------------------------------------
# run_scenario against the per-replicate oracle


def _shift_second_component(stage, center, x):
    out = np.asarray(x, dtype=float).copy()
    out[1] = min(out[1] + 1.0, 8.0)
    return out


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
}


@pytest.mark.parametrize("name", list(SPECS))
def test_run_scenario_matches_per_replicate_oracle_bitwise(monkeypatch, name):
    spec = SPECS[name]()
    got = sim.run_scenario(spec, seed=29, threads=1).to_dict()
    want = _oracle_report(monkeypatch, spec, 29)
    assert repr(got) == repr(want)
    if name == "1a-n3-separation":
        assert got["failure_kinds"].get("SeparationError", 0) > 0, got["failure_kinds"]
    else:
        assert got["n_used"] > 0


def _without_anchor(monkeypatch):
    """Shrinking fallbacks without a configured stage-1 package raise
    InfeasibleError: the anchor is never the observed stage-1 mean."""
    for module in (lago.optimizer, trial_module):
        monkeypatch.setattr(module, "_stage1_anchor", lambda state: state.config.stage1_package)


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

    def failing_test(state, alpha=0.05):
        raise NonFiniteError("final test failed")

    monkeypatch.setattr(sim, "final_test", failing_test)
    assert sim.run_scenario(spec, seed=29, threads=1).failure_kinds == {"NonFiniteError": 40}


def test_non_finite_continuous_draws_fail_their_lanes_as_the_oracle_does(monkeypatch):
    # A NaN package gives NaN outcomes; the center keeps them and the fit
    # fails that lane, as a center built from the outcome vector does.
    def nan_second_component(stage, center, x):
        out = np.asarray(x, dtype=float).copy()
        if stage == 2:
            out[1] = math.nan
        return out

    spec = dataclasses.replace(SPECS["continuous-1a-t"](), distortion=nan_second_component)
    got = sim.run_scenario(spec, seed=29, threads=1).to_dict()
    assert repr(got) == repr(_oracle_report(monkeypatch, spec, 29))
    assert got["failure_kinds"] == {"NonFiniteError": spec.replicates}


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
    deployed = np.array([0.75, 3.0])
    for outcome_kind in ("binary", "continuous"):
        spec = dataclasses.replace(sim.scenario_1a(n_per_center=25, replicates=1),
                                   outcome_kind=outcome_kind, outcome_sigma=8.0)
        truth = sim._true_model(spec)
        splan = spec.stages[0]
        control_mean = predict(truth, np.zeros(2))
        layouts = (
            [np.asarray(p, dtype=float) for p in splan.probe_packages],
            [deployed] * 3,  # one recommendation at every center
            [deployed.copy(), np.array([1.0, 4.0]), deployed.copy()],
        )
        for seed in range(200):
            packages = layouts[seed % 3]
            a = np.random.default_rng([seed, 3])
            b = np.random.default_rng([seed, 3])
            got = sim._draw_stage(a, spec, truth, control_mean, 1, splan, packages)
            arms = [(0, np.zeros(2))] * splan.n_control_centers + [(1, x) for x in packages]
            want = StageRecord(1, [_draw_center(b, spec, truth, arm, x, 25) for arm, x in arms])
            assert got == want
            assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 2000, 2001])
def test_block_statistics_match_centers_built_from_their_outcomes(n):
    spec = dataclasses.replace(sim.scenario_1a(n_per_center=n, replicates=1),
                               outcome_kind="continuous", outcome_sigma=8.0)
    truth = sim._true_model(spec)
    splan = spec.stages[0]
    packages = [np.asarray(p, dtype=float) for p in splan.probe_packages]
    arms = [(0, np.zeros(2))] * splan.n_control_centers + [(1, x) for x in packages]
    means = np.array([predict(truth, x) for _, x in arms])
    for seed in range(40):
        got = sim._draw_stage(np.random.default_rng([seed, n]), spec, truth, means[0], 1,
                              splan, packages)
        z = np.random.default_rng([seed, n]).standard_normal((len(arms), n))
        ys = means[:, None] + spec.outcome_sigma * z
        assert got == StageRecord(1, [CenterData(arm, x, y) for (arm, x), y in zip(arms, ys)])


def test_a_replicate_predicts_each_distinct_mean_once(monkeypatch):
    # Stage 1 runs three distinct probes, stage 2 one recommendation at all
    # three intervention centers; the control mean is computed once per block.
    calls = Counter()
    real_predict, real_draw = sim.predict, sim._draw_stage

    def counted_predict(model, x):
        calls["predict"] += 1
        return real_predict(model, x)

    def counted_draw(*args):
        before = calls["predict"]
        record = real_draw(*args)
        calls["draw"] += calls["predict"] - before
        return record

    monkeypatch.setattr(sim, "predict", counted_predict)
    monkeypatch.setattr(sim, "_draw_stage", counted_draw)
    report = sim.run_scenario(sim.scenario_1a(replicates=1), seed=29, threads=1)
    assert report.n_used == 1
    assert calls["draw"] <= 4, calls


# ---------------------------------------------------------------------------
# the stacked kernel against the single-design oracles


def _stack(designs):
    return [np.concatenate(parts) for parts in zip(*(_stack_rows([d]) for d in designs))]


def _same_fit(got, want):
    return (type(got) is FittedModel and got.beta.tobytes() == want.beta.tobytes()
            and got.covariance.tobytes() == want.covariance.tobytes()
            and got.n_iter == want.n_iter and got.n_used == want.n_used)


def test_stacked_kernel_matches_irls_oracle_on_the_seeded_designs():
    # The seeded designs differ in center and component counts, so each
    # shape is fitted as one stack.
    by_shape = defaultdict(list)
    for index in range(200):
        records = _grouped_design(index)
        by_shape[_center_rows(records)[0].shape].append(records)
    seen = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for designs in by_shape.values():
            for records, got in zip(designs, _fit_binary_stack(*_stack(designs))):
                want_err, want = _outcome(_fit_binary_oracle, records)
                if want_err is not None:
                    seen[want_err.__name__] += 1
                    assert type(got) is want_err
                    continue
                want, halvings = want
                seen["fitted"] += 1
                seen["halved"] += halvings > 0
                assert _same_fit(got, want)
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
                want[name] = _fit_binary_scalar(records)
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
            records.append(sim._draw_stage(rng, spec, truth, predict(truth, np.zeros(2)),
                                           stage_index, splan, packages))
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
            records.append(sim._draw_stage(rng, spec, truth, predict(truth, np.zeros(2)),
                                           stage_index, splan, packages))
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

"""Differential tests for the lockstep replicate engine and the stacked IRLS.

``run_scenario`` advances all replicates of a block one stage at a time and
fits every binary replicate's pooled data in one ``_fit_binary_stack`` call.
The per-replicate path it replaced, with its per-center draws, and the
scalar IRLS loop ``fit_binary`` ran before it became the one-lane call of
the kernel, are kept here as oracles: the engine's reports and the kernel's
fits must agree with them bitwise, and a lane's result must not depend on
the other lanes of its stack.
"""

import dataclasses
import math
import re
import warnings
from collections import Counter, defaultdict

import numpy as np
import pytest

import lago
import lago.trial as trial_module
from lago import sim
from lago.errors import LagoError, NonFiniteError, SeparationError
from lago.model import (
    COEF_CAP,
    GRAD_TOL,
    MAX_ITER,
    CenterData,
    FittedModel,
    StageRecord,
    _center_rows,
    _check_binary,
    _check_finite,
    _check_rank,
    _fit_binary_stack,
    _stack_rows,
    expit,
    logistic_information,
    predict,
)
from lago.trial import final_optimal, final_test, ingest_stage, new_trial, refit
from test_fast_paths import _fit_binary_oracle, _grouped_design, _outcome

# ---------------------------------------------------------------------------
# oracles


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

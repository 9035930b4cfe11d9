"""Monte Carlo evaluation of staged adaptive designs.

``run_scenario`` cuts its replicates into blocks of at most ``BLOCK_LANES``
and runs each block in lockstep, one stage at a time: the recommendations
of a stage that deploys one are decided for all the block's replicates in
one batched call, every replicate draws its stage outcomes under the true
coefficients, then the pooled binary fits of the block's replicates run as
one stacked IRLS.  After the last stage the final cost-minimal packages
are decided in one more batched call, each replicate finishes on its own
with the final test, and the estimator and decision metrics are
aggregated across replicates.

Reproducibility contract: every replicate gets its own substream spawned
from a single ``SeedSequence``, and a replicate's numbers do not depend on
which other replicates share its stack, so results do not depend on the
block size or on how the blocks are shared among processes.
``run_scenario(spec, threads=4)`` and the serial run agree bitwise.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cost import CostFunction
from .errors import InfeasibleError, NonFiniteError, config_errors
from .model import (
    CONTINUOUS_LINKS,
    CenterData,
    FittedModel,
    StageRecord,
    _assumed,
    _center_rows,
    _fit_binary_stack,
    _fit_continuous_stack,
    _from_fields,
    _json_fields,
    _stack_rows,
    expit,
    link_inverse,
    predict,
)
from .optimizer import (
    _LANE_ERRORS,
    GoalSpec,
    Recommendation,
    _bounds_arrays,
    _recommend_lanes,
    _stage_inputs,
    min_cost_subject_to_threshold,
)
from .power import ArmSummary, TestSelector, _passing_root, norm_quantile
from .trial import (
    PlannedStage,
    TrialConfig,
    _store_fit,
    _store_recommendation,
    final_optimal,
    final_test,
    ingest_stage,
    new_trial,
    next_recommendation,
    refit,
)

_OUTCOME_KINDS = ("binary", "continuous")
_DESIGN_MODES = ("lago", "factorial-repeat")
_SE_SOURCES = ("model", "sandwich")

# Most replicates ("lanes") one lockstep block runs at once; a block's trial
# states live until its last stage, so this caps a run's memory.
BLOCK_LANES = 512


# ---------------------------------------------------------------------------
# scenario description


def _check_count(name: str, value, minimum: int) -> None:
    """``value`` is an integer (not a bool, never truncated) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class StagePlan:
    """Center layout for one stage of a simulated trial.

    ``probe_packages`` fixes the intervention packages for the stage (one
    per intervention center).  It is required for stage 1, where nothing
    has been learned yet.  Later stages usually leave it ``None``, which
    means "deploy whatever the engine recommends at that point".
    """

    n_control_centers: int
    n_intervention_centers: int
    n_per_center: int
    probe_packages: tuple | None = None

    def __post_init__(self):
        _check_count("n_control_centers", self.n_control_centers, 0)
        _check_count("n_intervention_centers", self.n_intervention_centers, 0)
        _check_count("n_per_center", self.n_per_center, 1)
        if self.n_control_centers + self.n_intervention_centers == 0:
            raise ValueError("a stage needs at least one center")
        if self.probe_packages is not None:
            probes = tuple(tuple(float(v) for v in p) for p in self.probe_packages)
            if not all(math.isfinite(v) for p in probes for v in p):
                raise ValueError(f"probe packages must be finite, got {probes}")
            if len(probes) != self.n_intervention_centers:
                raise ValueError(
                    "need one probe package per intervention center "
                    f"({self.n_intervention_centers}), got {len(probes)}"
                )
            object.__setattr__(self, "probe_packages", probes)

    def to_config(self) -> dict:
        return _json_fields(self)


def _check_stage_plans(stages: tuple, n_components: int) -> None:
    """At least two StagePlan values, stage 1 with probe packages, and every
    probe package with ``n_components`` components."""
    if len(stages) < 2:
        raise ValueError("a staged design needs at least two stages")
    for sp in stages:
        if not isinstance(sp, StagePlan):
            raise ValueError("stages must be StagePlan values")
    if stages[0].probe_packages is None:
        raise ValueError("stage 1 needs explicit probe packages")
    for sp in stages:
        for p in sp.probe_packages or ():
            if len(p) != n_components:
                raise ValueError(
                    f"probe package {p} has {len(p)} components, expected {n_components}"
                )


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything a simulation run needs, in one picklable value.

    ``distortion``, when set, is called as ``distortion(stage, center, x)``
    for every intervention center and returns the package that center
    actually delivers -- a deterministic stand-in for implementation drift.
    It must be a module-level function to survive pickling into worker
    processes, and a spec carrying one cannot be serialized to config.
    """

    name: str
    true_beta: tuple
    stages: tuple
    cost: CostFunction
    bounds: tuple
    goals: GoalSpec
    replicates: int
    rng_seed: int | None = None
    outcome_kind: str = "binary"
    outcome_sigma: float = 1.0
    outcome_link: str = "identity"
    design_mode: str = "lago"
    se_source: str = "model"
    stage1_fallback_x: tuple | None = None
    deploy_step: tuple | None = None
    distortion: object | None = None

    def __post_init__(self):
        beta = tuple(float(b) for b in self.true_beta)
        if len(beta) < 2:
            raise ValueError("true_beta needs an intercept and at least one effect")
        if not all(math.isfinite(b) for b in beta):
            raise ValueError(f"true_beta must be finite, got {beta}")
        object.__setattr__(self, "true_beta", beta)
        n_comp = len(beta) - 1
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        _bounds_arrays(bounds, n_comp)
        object.__setattr__(self, "bounds", bounds)
        stages = tuple(self.stages)
        _check_stage_plans(stages, n_comp)
        object.__setattr__(self, "stages", stages)
        if self.outcome_kind not in _OUTCOME_KINDS:
            raise ValueError(f"outcome_kind must be one of {_OUTCOME_KINDS}")
        if not 0.0 < self.outcome_sigma < math.inf:
            raise ValueError("outcome_sigma must be positive and finite")
        if self.outcome_link not in CONTINUOUS_LINKS:
            raise ValueError(f"outcome_link must be one of {CONTINUOUS_LINKS}")
        if self.design_mode not in _DESIGN_MODES:
            raise ValueError(f"design_mode must be one of {_DESIGN_MODES}")
        if self.design_mode == "factorial-repeat":
            first = stages[0].n_intervention_centers
            for sp in stages[1:]:
                if sp.n_intervention_centers != first:
                    raise ValueError(
                        "factorial-repeat reuses the stage-1 probes, so every "
                        "stage needs the same number of intervention centers"
                    )
        if self.se_source not in _SE_SOURCES:
            raise ValueError(f"se_source must be one of {_SE_SOURCES}")
        if not isinstance(self.goals, GoalSpec):
            raise ValueError("goals must be a GoalSpec")
        if not isinstance(self.cost, CostFunction):
            raise ValueError("cost must be a CostFunction")
        if self.cost.max_component >= n_comp:
            raise ValueError("cost references a component outside the bounds")
        _check_count("replicates", self.replicates, 1)
        if self.rng_seed is not None:
            _check_count("rng_seed", self.rng_seed, 0)
        if self.stage1_fallback_x is not None:
            fx = tuple(float(v) for v in self.stage1_fallback_x)
            if len(fx) != n_comp:
                raise ValueError("stage1_fallback_x has the wrong length")
            if not all(math.isfinite(v) for v in fx):
                raise ValueError(f"stage1_fallback_x must be finite, got {fx}")
            object.__setattr__(self, "stage1_fallback_x", fx)
        if self.deploy_step is not None:
            steps = tuple(
                None if s is None else float(s) for s in self.deploy_step
            )
            if len(steps) != n_comp:
                raise ValueError("deploy_step needs one entry per component")
            if any(s is not None and not 0.0 < s < math.inf for s in steps):
                raise ValueError("deploy_step entries must be positive and finite, or None")
            object.__setattr__(self, "deploy_step", steps)
        if self.distortion is not None and not callable(self.distortion):
            raise ValueError("distortion must be callable or None")

    @property
    def n_components(self) -> int:
        return len(self.true_beta) - 1

    def to_config(self) -> dict:
        if self.distortion is not None:
            raise ValueError("a spec with a distortion hook cannot be serialized")
        out = _json_fields(self)
        del out["distortion"]
        return out

    @classmethod
    def from_config(cls, doc: dict) -> "ScenarioSpec":
        with config_errors("scenario config"):
            return _from_fields(
                cls, doc, name=str, outcome_sigma=float,
                stages=lambda entries: tuple(_from_fields(StagePlan, e) for e in entries),
                cost=CostFunction.from_config, goals=GoalSpec.from_config,
            )


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsReport:
    """Aggregated operating characteristics of one scenario run.

    Per-coefficient entries are ordered like the coefficient vector
    (intercept first).  Relative biases are reported as NaN when the
    reference value is zero.  Metrics are computed over the replicates
    that completed; ``failures`` counts the ones that did not (fit or
    recommendation raised), broken down in ``failure_kinds``.  ``to_dict``
    writes every NaN or infinite entry as None.
    """

    scenario: str
    replicates: int
    n_used: int
    failures: int
    failure_kinds: dict
    power_pct: float
    rel_bias_pct: tuple
    se_over_emp_sd_pct: tuple
    cp95_pct: tuple
    opt_rel_bias_pct: tuple | None
    propt_q2p5: float | None
    propt_q97p5: float | None
    mean_recommendation: tuple | None
    true_optimum: tuple | None
    seed: int

    def to_dict(self) -> dict:
        return _json_fields(self)

    def _csv_cells(self) -> list:
        """(column, value) pairs of the CSV row, in column order."""
        n_comp = len(self.mean_recommendation or self.opt_rel_bias_pct or ())
        opt = self.opt_rel_bias_pct or (float("nan"),) * n_comp
        cells = [(name, getattr(self, name))
                 for name in ("scenario", "replicates", "n_used", "failures", "power_pct")]
        for name in ("rel_bias_pct", "se_over_emp_sd_pct", "cp95_pct"):
            cells += [(f"{name}_b{i}", v) for i, v in enumerate(getattr(self, name))]
        cells += [(f"opt_rel_bias_pct_x{i + 1}", v) for i, v in enumerate(opt)]
        cells += [(name, getattr(self, name)) for name in ("propt_q2p5", "propt_q97p5", "seed")]
        return cells

    def csv_header(self) -> list:
        return [name for name, _ in self._csv_cells()]

    def csv_row(self) -> list:
        def cell(v):
            if v is None or (isinstance(v, float) and math.isnan(v)):
                return ""
            return f"{v:.6g}" if isinstance(v, float) else str(v)

        return [cell(v) for _, v in self._csv_cells()]


# ---------------------------------------------------------------------------
# one replicate


def _true_model(spec: ScenarioSpec) -> FittedModel:
    link = "logit" if spec.outcome_kind == "binary" else spec.outcome_link
    return _assumed(spec.true_beta, link)


def _planned_stages(stages) -> tuple:
    """The PlannedStage sizes of a StagePlan layout."""
    return tuple(
        PlannedStage(
            n_intervention=sp.n_intervention_centers * sp.n_per_center,
            n_control=sp.n_control_centers * sp.n_per_center,
            centers_intervention=max(sp.n_intervention_centers, 1),
            centers_control=max(sp.n_control_centers, 1),
        )
        for sp in stages
    )


def _trial_config(spec: ScenarioSpec) -> TrialConfig:
    link = "logit" if spec.outcome_kind == "binary" else spec.outcome_link
    return TrialConfig(
        stages=_planned_stages(spec.stages),
        bounds=spec.bounds,
        cost=spec.cost,
        goals=spec.goals,
        outcome_kind=spec.outcome_kind,
        outcome_link=link,
        stage1_package=spec.stage1_fallback_x,
    )


def _draw_stage(rng, spec, truth, control_mean, stage_index, splan, packages) -> StageRecord:
    """One replicate's stage: its control centers, drawn around
    ``control_mean`` (the caller's ``predict`` of the zero package), then one
    intervention center per package, drawn around its ``predict`` mean,
    computed once per distinct package.

    Continuous outcomes are one block of standard normals, scaled and
    shifted per center: ``loc + scale * z`` is how ``rng.normal`` makes each
    draw, so the outcomes and the stream position after them equal one
    ``rng.normal`` call per center, and one block costs less than a call
    per center.  The centers' statistics come from one pass over the block
    (row sums, then the row dots of the deviations), each row as
    ``CenterData(arm, x, y)`` reduces it.  Binary centers keep one scalar
    ``rng.binomial`` call each, which costs less than one call over an
    array of probabilities.  A non-finite mean, or a non-finite sum or m2,
    raises ``NonFiniteError``, which fails the replicate.
    """
    n = splan.n_per_center
    xs = [np.zeros(spec.n_components)] * splan.n_control_centers + list(packages)
    arms = [0] * splan.n_control_centers + [1] * len(packages)
    mean_of = {key: predict(truth, x) for key, x in {x.tobytes(): x for x in packages}.items()}
    means = [control_mean] * splan.n_control_centers + [mean_of[x.tobytes()] for x in packages]
    if not all(map(math.isfinite, means)):
        raise NonFiniteError("non-finite value in model input")
    if spec.outcome_kind == "binary":
        successes = [int(rng.binomial(n, p)) for p in means]
        centers = [
            CenterData.from_stats(arm, x, n, k, k * (n - k) / n)
            for arm, x, k in zip(arms, xs, successes)
        ]
    else:
        ys = np.array(means)[:, None] + spec.outcome_sigma * rng.standard_normal((len(xs), n))
        totals = ys.sum(axis=1)
        dev = ys - (totals / n)[:, None]
        m2 = np.vecdot(dev, dev)
        if not (np.isfinite(totals).all() and np.isfinite(m2).all()):
            raise NonFiniteError("non-finite value in model input")
        centers = [CenterData.from_stats(arm, x, n, total, v) for arm, x, total, v
                   in zip(arms, xs, totals.tolist(), m2.tolist())]
    return StageRecord(stage_index, centers)


def _deployed_package(spec: ScenarioSpec, x) -> np.ndarray:
    """What the centers actually run for a recommendation ``x``.

    Components with a ``deploy_step`` are delivered in whole multiples of
    that step, rounded up (a recommendation of 3.1 visits means 4 visits),
    capped at the component's upper bound.  Probe packages are design
    choices, not recommendations, and are never rounded.
    """
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
    """Heteroscedasticity-robust covariance for the binary fit.

    Grouped-binomial score per center is (s - n p) x, so the meat is the
    sum of (s - n p)^2 x x'; the bread is the Fisher information, whose
    inverse the binary fit already carries as its covariance.
    """
    X, n, s, _ = _center_rows(state.completed)
    resid = s - n * expit(X @ model.beta)
    meat = X.T @ (X * (resid * resid)[:, None])
    return model.covariance @ meat @ model.covariance


def _recommends(spec: ScenarioSpec, splan: StagePlan) -> bool:
    """Whether a stage deploys the engine's recommendation (not fixed probes)."""
    return spec.design_mode == "lago" and splan.probe_packages is None


def _fit_used(spec: ScenarioSpec, stage_index: int) -> bool:
    """Whether the pooled fit after ``stage_index`` is used: after the last
    stage always, before a stage only when it deploys a recommendation."""
    if stage_index == len(spec.stages):
        return True
    return _recommends(spec, spec.stages[stage_index])


def _decide_lanes(config: TrialConfig, goals: GoalSpec, states, models, lanes, lo, hi) -> dict:
    """The pending decision of each state in ``lanes`` under ``goals``, as
    one ``_recommend_lanes`` call over their fits (``models``: lane -> the
    stacked fit of its stages completed now).  Returns lane ->
    Recommendation, or the ``_LANE_ERRORS`` exception its decision raised,
    in lane order."""
    inputs = [_stage_inputs(states[i], goals, states[i].next_stage) for i in lanes]
    return dict(zip(lanes, _recommend_lanes(
        [models[i] for i in lanes], [summary for summary, _ in inputs], goals,
        config.cost, lo, hi, [anchor for _, anchor in inputs],
    )))


def _finish_replicate(spec: ScenarioSpec, state, truth) -> tuple:
    """Final estimates, test and packages of one completed trial."""
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
    payload = {
        "beta": np.asarray(model.beta, dtype=float),
        "se": np.sqrt(np.diag(covariance)),
        "reject": bool(result.reject),
        "x_rec": x_rec,
        "x_opt": x_opt,
        "propt": propt,
    }
    return ("ok", payload)


def _simulate_block(spec: ScenarioSpec, config: TrialConfig, child_seeds) -> list:
    """Run one trial per seed under ``config`` (the run's ``_trial_config``),
    all trials ("lanes") advancing one stage at a time.

    Per stage, a stage that deploys a recommendation first decides it for
    all live lanes in one ``_decide_lanes`` call and stores each lane's in
    its state (a lane whose decision raises fails with that kind); then
    each live lane picks its packages, draws from its own stream and
    ingests the stage; then, when the pooled fit is used, the fits of all
    live lanes run as one stacked call (``_fit_binary_stack`` or
    ``_fit_continuous_stack``) and each lands in its state's ``refit``
    memo.  After the last stage one more ``_decide_lanes`` call, with
    the power goal stripped, stores each lane's ``final_optimal`` package;
    a lane whose final package fails is left to ``_finish_replicate``,
    which reports a failing final test first.  Returns one ("ok", payload)
    or ("fail", kind) per seed, in seed order.
    """
    truth = _true_model(spec)
    control_mean = predict(truth, np.zeros(spec.n_components))
    lo, hi = _bounds_arrays(config.bounds, config.n_components)
    rngs = [np.random.default_rng(cs) for cs in child_seeds]
    states = [new_trial(config) for _ in rngs]
    outcomes: list = [None] * len(states)
    models: dict = {}
    live = list(range(len(states)))
    for stage_index, splan in enumerate(spec.stages, start=1):
        if _recommends(spec, splan):
            decisions = _decide_lanes(config, config.goals, states, models, live, lo, hi)
            for i, rec in decisions.items():
                if isinstance(rec, Recommendation):
                    _store_recommendation(states[i], rec)
                else:
                    outcomes[i] = ("fail", type(rec).__name__)
            live = [i for i in live if outcomes[i] is None]
        records = {}
        for i in live:
            try:
                packages = _stage_packages(spec, splan, stage_index, states[i])
                if spec.distortion is not None:
                    packages = [
                        np.asarray(spec.distortion(stage_index, j, x), dtype=float)
                        for j, x in enumerate(packages)
                    ]
                records[i] = _draw_stage(rngs[i], spec, truth, control_mean, stage_index,
                                         splan, packages)
            except _LANE_ERRORS as exc:
                outcomes[i] = ("fail", type(exc).__name__)
        with warnings.catch_warnings():
            # A distortion hook may push packages outside the nominal
            # bounds on purpose; the per-ingest warning is noise here.
            warnings.simplefilter("ignore")
            for i, record in records.items():
                try:
                    states[i] = ingest_stage(states[i], record)
                except _LANE_ERRORS as exc:
                    outcomes[i] = ("fail", type(exc).__name__)
        live = [i for i in live if outcomes[i] is None]
        if live and _fit_used(spec, stage_index):
            pooled = _stack_rows([states[i].completed for i in live])
            if spec.outcome_kind == "binary":
                fits = _fit_binary_stack(*pooled)
            else:
                fits = _fit_continuous_stack(*pooled, config.outcome_link)
            for i, fit in zip(live, fits):
                if isinstance(fit, FittedModel):
                    models[i] = fit
                    _store_fit(states[i], fit)
                elif isinstance(fit, _LANE_ERRORS):
                    outcomes[i] = ("fail", type(fit).__name__)
                else:
                    raise fit
            live = [i for i in live if outcomes[i] is None]

    if spec.goals.outcome_goal is not None:
        final_goals = replace(config.goals, power_goal=None)
        for i, rec in _decide_lanes(config, final_goals, states, models, live, lo, hi).items():
            if isinstance(rec, Recommendation):
                _store_recommendation(states[i], rec)
    for i in live:
        try:
            outcomes[i] = _finish_replicate(spec, states[i], truth)
        except _LANE_ERRORS as exc:
            outcomes[i] = ("fail", type(exc).__name__)
    return outcomes


# ---------------------------------------------------------------------------
# the scenario runner


def _resolve_threads(threads) -> int:
    """Worker process count: ``threads``, else LAGO_THREADS, else 1.

    ``threads`` must be an integer >= 1; a bool or a float raises rather
    than being truncated.  LAGO_THREADS is parsed with ``int``, and a value
    that is not an integer raises a ValueError naming it.  ``run_scenario``
    starts at most the CPU count of these.
    """
    if threads is None:
        raw = os.environ.get("LAGO_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(f"LAGO_THREADS must be an integer, got {raw!r}") from None
    _check_count("threads", threads, 1)
    return int(threads)


def _rel_bias_pct(estimate, reference):
    out = []
    for est, ref in zip(estimate, reference):
        out.append(abs(100.0 * (est - ref) / ref) if ref != 0.0 else float("nan"))
    return tuple(out)


def true_optimum(spec: ScenarioSpec):
    """Cost-minimal package satisfying the outcome goal under the true model.

    None when there is no outcome goal, or when no package inside the
    bounds reaches it (then no finite optimum exists to compare against).
    """
    if spec.goals.outcome_goal is None:
        return None
    try:
        x = min_cost_subject_to_threshold(
            _true_model(spec),
            spec.cost,
            spec.bounds,
            spec.goals.outcome_goal,
            direction=spec.goals.direction,
        )
    except InfeasibleError:
        return None
    return np.asarray(x, dtype=float)


def run_scenario(spec: ScenarioSpec, seed=None, threads=None) -> MetricsReport:
    """Estimate a scenario's operating characteristics by simulation.

    ``seed`` overrides ``spec.rng_seed``; one of the two must be set.  The
    replicates run in contiguous blocks of at most ``BLOCK_LANES`` seeds, so
    memory does not grow with R.  With ``threads > 1`` (or LAGO_THREADS set)
    the blocks, of at most ceil(R / workers) seeds, are shared among
    ``workers = min(threads, CPU count)`` processes, with results identical
    to the serial run.
    """
    if seed is None:
        seed = spec.rng_seed
    if seed is None:
        raise ValueError("a simulation needs a seed (spec.rng_seed or the seed argument)")
    _check_count("seed", seed, 0)
    seed = int(seed)
    threads = min(_resolve_threads(threads), os.cpu_count() or 1)

    config = _trial_config(spec)
    child_seeds = np.random.SeedSequence(seed).spawn(spec.replicates)
    size = min(BLOCK_LANES, -(-spec.replicates // threads))
    blocks = [child_seeds[a:a + size] for a in range(0, spec.replicates, size)]
    run_block = functools.partial(_simulate_block, spec, config)
    if threads == 1:
        results = list(map(run_block, blocks))
    else:
        with ProcessPoolExecutor(max_workers=min(threads, len(blocks))) as pool:
            results = list(pool.map(run_block, blocks))
    outcomes = [o for block in results for o in block]

    payloads = [p for status, p in outcomes if status == "ok"]
    failure_kinds: dict = {}
    for status, p in outcomes:
        if status == "fail":
            failure_kinds[p] = failure_kinds.get(p, 0) + 1
    failures = spec.replicates - len(payloads)

    n_beta = len(spec.true_beta)
    betas = np.array([p["beta"] for p in payloads]).reshape(-1, n_beta)
    ses = np.array([p["se"] for p in payloads]).reshape(-1, n_beta)
    rejects = np.array([p["reject"] for p in payloads], dtype=float)
    beta_star = np.asarray(spec.true_beta)

    with np.errstate(invalid="ignore", divide="ignore"), warnings.catch_warnings():
        # With every replicate failed each mean is of an empty slice: NaN.
        warnings.simplefilter("ignore", RuntimeWarning)
        mean_beta = betas.mean(axis=0)
        emp_sd = betas.std(axis=0, ddof=1) if len(payloads) > 1 else np.full(n_beta, np.nan)
        se_ratio = tuple(100.0 * ses.mean(axis=0) / emp_sd)
        z = norm_quantile(0.975)
        covered = np.abs(betas - beta_star) <= z * ses
        cp95 = tuple(100.0 * covered.mean(axis=0))
        power_pct = 100.0 * rejects.mean()

    x_star = true_optimum(spec)
    opt_rel_bias = None
    opts = [p["x_opt"] for p in payloads if p["x_opt"] is not None]
    if x_star is not None and opts:
        opt_rel_bias = _rel_bias_pct(np.vstack(opts).mean(axis=0), x_star)

    recs = [p["x_rec"] for p in payloads if p["x_rec"] is not None]
    mean_rec = tuple(np.vstack(recs).mean(axis=0)) if recs else None

    propts = np.array([p["propt"] for p in payloads if p["propt"] is not None])
    if len(propts):
        q_lo, q_hi = np.quantile(propts, [0.025, 0.975])
    else:
        q_lo = q_hi = None

    return MetricsReport(
        scenario=spec.name,
        replicates=spec.replicates,
        n_used=len(payloads),
        failures=failures,
        failure_kinds=failure_kinds,
        power_pct=power_pct,
        rel_bias_pct=_rel_bias_pct(mean_beta, beta_star),
        se_over_emp_sd_pct=se_ratio,
        cp95_pct=cp95,
        opt_rel_bias_pct=opt_rel_bias,
        propt_q2p5=None if q_lo is None else float(q_lo),
        propt_q97p5=None if q_hi is None else float(q_hi),
        mean_recommendation=mean_rec,
        true_optimum=None if x_star is None else tuple(x_star),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# shipped scenario builders


_PROBES_1A = ((1.0, 0.0), (0.0, 4.0), (1.0, 4.0))

COST_1A = CostFunction(
    (
        (0, 3, 2.0),
        (0, 2, -1.19),
        (0, 1, 10.0),
        (None, 0, 10.0),
        (1, 3, 0.1),
        (1, 2, -0.2),
        (1, 1, 2.0),
    )
)

COST_1B = CostFunction(((0, 1, 1.0), (1, 1, 4.0)))

TRUE_BETA_12 = (0.1, 0.3, 0.15)


def _shipped(name, default_goals, n_per_center, replicates, goals, seed,
             cost=COST_1A, bounds=((0.0, 2.0), (0.0, 8.0)),
             design_mode="lago") -> ScenarioSpec:
    """The design every shipped scenario shares: the true coefficients, two
    stages of one control and three intervention centers (stage 1 runs the
    1a probes), the (1, 4) stage-1 anchor and whole-unit deployment of the
    second component."""
    return ScenarioSpec(
        name=name,
        true_beta=TRUE_BETA_12,
        stages=(StagePlan(1, 3, n_per_center, _PROBES_1A),
                StagePlan(1, 3, n_per_center, None)),
        cost=cost,
        bounds=bounds,
        goals=default_goals if goals is None else goals,
        replicates=replicates,
        rng_seed=seed,
        design_mode=design_mode,
        stage1_fallback_x=(1.0, 4.0),
        deploy_step=(None, 1.0),
    )


def scenario_1a(n_per_center=40, replicates=2000, goals=None, seed=None) -> ScenarioSpec:
    """Two-component cubic-cost scenario with a success-probability goal of 0.7."""
    return _shipped("scenario_1a", GoalSpec(outcome_goal=0.7),
                    n_per_center, replicates, goals, seed)


def scenario_1b(n_per_center=40, replicates=2000, goals=None, seed=None) -> ScenarioSpec:
    """Linear-cost variant; the optimum sits on the first component alone."""
    return _shipped("scenario_1b", GoalSpec(outcome_goal=0.7455),
                    n_per_center, replicates, goals, seed,
                    cost=COST_1B, bounds=((0.0, 4.0), (0.0, 8.0)))


def scenario_2a(n_per_center=40, replicates=2000, goals=None, seed=None) -> ScenarioSpec:
    """Power-goal-only adaptation: pick the cheapest package that powers the test."""
    return _shipped("scenario_2a", GoalSpec(power_goal=0.8, test=TestSelector("z_unpooled")),
                    n_per_center, replicates, goals, seed)


def scenario_2b(n_per_center=40, replicates=2000, goals=None, seed=None) -> ScenarioSpec:
    """Non-adaptive comparator for 2a: every stage repeats the stage-1 probes."""
    return _shipped("scenario_2b", GoalSpec(power_goal=0.8, test=TestSelector("z_unpooled")),
                    n_per_center, replicates, goals, seed, design_mode="factorial-repeat")


SHIPPED_SCENARIOS = {
    "1a": scenario_1a,
    "1b": scenario_1b,
    "2a": scenario_2a,
    "2b": scenario_2b,
}


def null_variant(spec: ScenarioSpec) -> ScenarioSpec:
    """Same design with all intervention effects zeroed -- for size checks."""
    beta = (spec.true_beta[0],) + (0.0,) * spec.n_components
    return replace(spec, name=spec.name + "_null", true_beta=beta)


# ---------------------------------------------------------------------------
# BetterBirth


BETTERBIRTH_STAGE12_BETA = (
    math.log(0.160),
    math.log(0.888) / 5.0,
    math.log(1.144),
)
BETTERBIRTH_ALL_DATA_BETA = (
    math.log(0.174),
    math.log(0.881) / 5.0,
    math.log(1.116),
)
BETTERBIRTH_COST = CostFunction(
    (
        (0, 1, 380.0),
        (0, 2, -24.0),
        (0, 3, 0.6),
        (1, 1, 1700.0),
        (1, 2, -950.0),
        (1, 3, 220.0),
    )
)
BETTERBIRTH_BOUNDS = ((1.0, 40.0), (1.0, 5.0))

_BB_N_STAGES12 = 1779
_BB_RATE_STAGES12 = 0.14
_BB_CONTROL_RATE = 0.148
_BB_INTERVENTION_RATE = 0.123
_BB_N3_INTERVENTION = 425
_BB_N3_CONTROL = 424
_BB_STAGE3_P = 0.154


def betterbirth_model(which: str = "stages12") -> FittedModel:
    """Logistic model from the published odds ratios.

    ``stages12`` is the interim fit the stage-3 recommendation came from;
    ``all`` is the fit on the complete data, used as the truth when
    projecting stage-3 power.  Coefficients for coaching visits are the
    published per-5-visit odds ratios rescaled to a single visit.
    """
    if which == "stages12":
        return _assumed(BETTERBIRTH_STAGE12_BETA)
    if which == "all":
        return _assumed(BETTERBIRTH_ALL_DATA_BETA)
    raise ValueError("which must be 'stages12' or 'all'")


def _bb_stage_rates(intervention_fraction: float):
    """Per-stage-group arm rates consistent with the published aggregates.

    Only aggregates were published: the stages-1-2 overall apnea rate, the
    all-stage arm rates, and the stage-3-only z-test p-value.  Given the
    split of the 1779 stages-1-2 births into post-launch (intervention) and
    pre-launch (control) observations, those four numbers pin down the four
    arm rates (stages 1-2 and stage 3, each arm).  The nonlinear piece is
    the stage-3 z gap as a function of the stages-1-2 intervention rate: a
    grid scan brackets a sign change where the gap is defined, and
    ``_passing_root`` solves it, returning the bracket end where the gap,
    oriented to rise across the bracket, is >= 0.  Returns
    ``(r1_stages12, r0_stages12, r1_stage3, r0_stage3)``.
    """
    n1 = intervention_fraction * _BB_N_STAGES12
    n0 = _BB_N_STAGES12 - n1
    z_target = -norm_quantile(1.0 - _BB_STAGE3_P / 2.0)

    def rates(r1):
        r0 = (_BB_RATE_STAGES12 * _BB_N_STAGES12 - n1 * r1) / n0
        r13 = (
            (n1 + _BB_N3_INTERVENTION) * _BB_INTERVENTION_RATE - n1 * r1
        ) / _BB_N3_INTERVENTION
        r03 = ((n0 + _BB_N3_CONTROL) * _BB_CONTROL_RATE - n0 * r0) / _BB_N3_CONTROL
        return r0, r13, r03

    def gap(r1):
        r0, r13, r03 = rates(r1)
        if not (0.0 < r0 < 1.0 and 0.0 < r13 < 1.0 and 0.0 < r03 < 1.0):
            return math.nan
        var3 = (
            r13 * (1.0 - r13) / _BB_N3_INTERVENTION
            + r03 * (1.0 - r03) / _BB_N3_CONTROL
        )
        return (r13 - r03) / math.sqrt(var3) - z_target

    bracket = prev = None
    for r1 in np.linspace(0.002, 0.998, 600):
        g = gap(float(r1))
        if math.isnan(g):
            prev = None
            continue
        if prev is not None and prev[1] * g <= 0.0:
            bracket = prev, (float(r1), g)
            break
        prev = (float(r1), g)
    if bracket is None:
        raise ValueError(
            "no stages-1-2 arm rates reconcile the published aggregates "
            "at this split"
        )
    (lo, g_lo), (hi, g_hi) = bracket
    sign = 1.0 if g_hi >= g_lo else -1.0  # orient the gap to pass at hi

    # Solved for the event count n1 * r1, not the rate: the count is well
    # above 1, so the root finder's tolerance is relative, not absolute.
    def residual(events):
        return sign * gap(events / n1)

    if sign * g_lo >= 0.0:
        r1 = lo
    else:
        events, _ = _passing_root(residual, lo * n1, hi * n1, sign * g_lo, sign * g_hi)
        r1 = events / n1
    return (r1,) + rates(r1)


def betterbirth_summary(intervention_fraction: float = 0.40) -> ArmSummary:
    """Stages-1-2 arm totals reconstructed from the published aggregates.

    The combined stages-1-2 sample is 1779 births with an overall apnea
    rate of 0.14, but its post-launch/pre-launch breakdown was never
    published.  The split is therefore the one free input; the arm rates
    are then solved from the published aggregates (see
    ``_bb_stage_rates``), and the default split reproduces the published
    interim quantities most closely.  Outcome sums are kept real-valued.
    Planned future sizes are the stage-3 arms (425 intervention, 424
    control).
    """
    if not 0.0 < intervention_fraction < 1.0:
        raise ValueError("intervention_fraction must be inside (0, 1)")
    r1, r0, _, _ = _bb_stage_rates(intervention_fraction)
    n1 = intervention_fraction * _BB_N_STAGES12
    n0 = _BB_N_STAGES12 - n1
    return ArmSummary(
        n1_obs=n1,
        n0_obs=n0,
        s1_obs=r1 * n1,
        s0_obs=r0 * n0,
        n1_future=_BB_N3_INTERVENTION,
        n0_future=_BB_N3_CONTROL,
    )


def betterbirth_power(
    model: FittedModel,
    trial_layout: ArmSummary,
    recommendation,
    replicates: int,
    seed,
    test: TestSelector = TestSelector("z_unpooled"),
    alpha: float = 0.05,
) -> float:
    """Probability the final two-proportion test rejects, by simulation.

    The completed-stage sums in ``trial_layout`` are held fixed; only the
    future-stage outcomes are drawn, intervention arm at ``recommendation``
    and control at zero, both under ``model`` taken as the truth.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    if seed is None:
        raise ValueError("betterbirth_power needs a seed")
    if test.kind not in ("z_pooled", "z_unpooled"):
        raise ValueError("the final test here is a two-proportion z test")
    if not (trial_layout.n1_future > 0 and trial_layout.n0_future > 0):
        raise ValueError("trial_layout needs positive future arm sizes")

    x = np.asarray(recommendation, dtype=float)
    p_x = predict(model, x)
    p_0 = float(link_inverse(model.link, model.beta[0]))
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))

    n1f = int(round(trial_layout.n1_future))
    n0f = int(round(trial_layout.n0_future))
    s1 = trial_layout.s1_obs + rng.binomial(n1f, p_x, size=replicates)
    s0 = trial_layout.s0_obs + rng.binomial(n0f, p_0, size=replicates)
    N1 = trial_layout.n1_obs + n1f
    N0 = trial_layout.n0_obs + n0f

    r1 = s1 / N1
    r0 = s0 / N0
    if test.kind == "z_pooled":
        pbar = (s1 + s0) / (N1 + N0)
        var = pbar * (1.0 - pbar) * (1.0 / N1 + 1.0 / N0)
    else:
        var = r1 * (1.0 - r1) / N1 + r0 * (1.0 - r0) / N0
    crit = norm_quantile(1.0 - alpha / 2.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        zstat = np.where(var > 0, (r1 - r0) / np.sqrt(var), 0.0)
    return float(np.mean(np.abs(zstat) > crit))

"""Monte Carlo evaluation of staged adaptive designs.

``run_scenario`` cuts its replicates ("lanes") into blocks of at most
``BLOCK_LANES`` and runs each block in lockstep, one stage at a time, on
lane arrays (``_Block``): center packages, outcome sums and m2 as (lanes,
centers) arrays, the arm layout once.  Per stage, the recommendations are
decided for all lanes in one batched call on arm totals reduced from the
arrays, every lane draws from its own stream, and the pooled fits of all
lanes run as one stacked call.  After the last stage the final test runs
over the lanes and one more batched call decides the final packages.  A
block returns one seed-ordered column per field (failure kind, estimates,
packages) and ``run_scenario`` concatenates the blocks' columns.  No
per-replicate trial state is built; ``tests/test_lockstep.py`` keeps that
per-replicate path, through the public ``trial`` API, as the oracle.

Reproducibility contract: every replicate gets its own substream spawned
from a single ``SeedSequence``, and a replicate's numbers do not depend on
which other replicates share its block, so results do not depend on the
block size or on how the blocks are shared among processes.
``run_scenario(spec, threads=4)`` and the serial run agree bitwise.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cost import CostFunction
from .errors import InfeasibleError, NonFiniteError, _check_count, config_errors
from .model import (
    CONTINUOUS_LINKS,
    FittedModel,
    _assumed,
    _fit_binary_stack,
    _fit_continuous_stack,
    _from_fields,
    _json_fields,
    _predict_lanes,
    expit,
    link_inverse,
    predict,
)
from .optimizer import (
    _LANE_ERRORS,
    GoalSpec,
    _bounds_arrays,
    _recommend_lanes,
    min_cost_subject_to_threshold,
)
from .power import (
    ArmSummary,
    TestSelector,
    _default_test,
    _final_rejects,
    _LaneSummaries,
    _passing_root,
    norm_quantile,
)
from .trial import PlannedStage, TrialConfig, TrialState

# The per-trial calls the benchmark's tracer (perfbench/tracing.py) rebinds in
# this module; a Monte Carlo block runs on lane arrays and makes none of them.
from .trial import final_optimal, final_test, ingest_stage, next_recommendation, refit  # noqa

_OUTCOME_KINDS = ("binary", "continuous")
_DESIGN_MODES = ("lago", "factorial-repeat")
_SE_SOURCES = ("model", "sandwich")

# Most replicates ("lanes") one lockstep block runs at once; a block's lane
# arrays live until its last stage, so this caps a run's memory.
BLOCK_LANES = 512


# ---------------------------------------------------------------------------
# scenario description


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
    """At least two StagePlan values, a control center in some stage, stage 1
    with probe packages, and every probe package with ``n_components``
    components."""
    if len(stages) < 2:
        raise ValueError("a staged design needs at least two stages")
    for sp in stages:
        if not isinstance(sp, StagePlan):
            raise ValueError("stages must be StagePlan values")
    if not any(sp.n_control_centers for sp in stages):
        raise ValueError("a staged design needs a control center in some stage")
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

    ``se_source`` picks the binary fits' SEs: the model-based covariance or
    the robust sandwich.  Continuous fits already carry the sandwich
    covariance (see ``FittedModel``), so it leaves their SEs alone.
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
    that completed; ``failures`` counts the ones whose decision, distortion
    hook, draw, fit, final test or final package raised, broken down by
    error type in ``failure_kinds`` (keys in first-occurrence seed order).
    ``to_dict`` writes every NaN or infinite entry as None; the CSV row has
    the same columns for every report of a P-component spec.
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
        n_comp = len(self.rel_bias_pct) - 1
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
# one block of replicates


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
    return TrialConfig(
        stages=_planned_stages(spec.stages),
        bounds=spec.bounds,
        cost=spec.cost,
        goals=spec.goals,
        outcome_kind=spec.outcome_kind,
        outcome_link=_true_model(spec).link,
        stage1_package=spec.stage1_fallback_x,
    )


def _draw_stage(rngs, spec, truth, packages, n):
    """One stage's outcomes: lane i draws ``n`` outcomes at each center
    package of ``packages[i]`` (C, P) from ``rngs[i]``, around its mean
    under ``truth``.  Returns the centers' outcome sums and m2, each (L, C),
    and the mask of the lanes that fail with NonFiniteError (a non-finite
    mean, which draws nothing, sum or m2).  A binary center is one scalar
    ``rng.binomial`` call, cheaper than one call over an array.  A
    continuous lane is one block of standard normals, scaled and shifted per
    center as ``rng.normal`` makes each draw (so the outcomes and stream
    position equal one ``rng.normal`` call per center), reduced as
    ``CenterData(arm, x, y)`` reduces y: row sums, then deviations' dots.
    """
    means = _predict_lanes(truth.link, truth.beta[0], truth.effects, packages)
    failed = ~np.isfinite(means).all(axis=1)
    sums, m2 = np.zeros(means.shape), np.zeros(means.shape)
    for i in np.flatnonzero(~failed).tolist():
        if spec.outcome_kind == "binary":
            sums[i] = [rngs[i].binomial(n, p) for p in means[i].tolist()]
        else:
            z = rngs[i].standard_normal((means.shape[1], n))
            ys = means[i][:, None] + spec.outcome_sigma * z
            sums[i] = ys.sum(axis=1)
            dev = ys - (sums[i] / n)[:, None]
            m2[i] = np.vecdot(dev, dev)
    if spec.outcome_kind == "binary":
        m2 = sums * (n - sums) / n
    return sums, m2, failed | ~(np.isfinite(sums).all(axis=1) & np.isfinite(m2).all(axis=1))


def _deployed_packages(spec: ScenarioSpec, x) -> np.ndarray:
    """What the centers actually run for the recommendations ``x`` (L, P).

    Components with a ``deploy_step`` are delivered in whole multiples of
    that step, rounded up (a recommendation of 3.1 visits means 4 visits),
    capped at the component's upper bound.  Probe packages are design
    choices, not recommendations, and are never rounded.  (``+ 0.0`` turns
    the -0.0 ``np.ceil`` gives just below zero into an integer's 0.0.)"""
    x = np.array(x, dtype=float).reshape(-1, len(spec.bounds))
    for j, step in enumerate(spec.deploy_step or ()):
        if step is not None:
            snapped = np.ceil(x[:, j] / step - 1e-9) * step + 0.0
            upper = spec.bounds[j][1]
            x[:, j] = np.where(upper < snapped, upper, snapped)
    return x


def _distort(spec: ScenarioSpec, stage_index: int, packages):
    """Overwrite each row of ``packages``, one lane's intervention centers in
    one stage, with the package the spec's distortion hook delivers there.
    Returns the ``_LANE_ERRORS`` error the hook raised, or None."""
    try:
        for j, x in enumerate(packages):
            out = np.asarray(spec.distortion(stage_index, j, x.copy()), dtype=float)
            if out.size != x.size:
                raise ValueError(f"package has {out.size} components, model expects {x.size}")
            packages[j] = out.ravel()
    except _LANE_ERRORS as exc:
        return exc
    return None


def _recommends(spec: ScenarioSpec, splan: StagePlan) -> bool:
    """Whether a stage deploys the engine's recommendation (not fixed probes)."""
    return spec.design_mode == "lago" and splan.probe_packages is None


def _fit_used(spec: ScenarioSpec, stage_index: int) -> bool:
    """Whether the pooled fit after ``stage_index`` is used: after the last
    stage always, before a stage only when it deploys a recommendation."""
    if stage_index == len(spec.stages):
        return True
    return _recommends(spec, spec.stages[stage_index])


class _Block:
    """One lockstep block's data, as arrays over its lanes and centers,
    which are listed as a trial's stage records list them (stage by stage,
    controls first).  ``arm`` (0 control, 1 intervention), ``size`` and
    ``stage`` (C,) are the same in every lane; ``X`` (L, C, P+1) holds each
    lane's design rows (intercept, then package), ``s`` and ``m2`` (L, C)
    its centers' outcome sums and sums of squared deviations."""

    def __init__(self, spec: ScenarioSpec, lanes: int):
        centers = [(k, arm, sp.n_per_center) for k, sp in enumerate(spec.stages, start=1)
                   for arm in [0] * sp.n_control_centers + [1] * sp.n_intervention_centers]
        self.stage, self.arm, size = np.array(centers).T
        self.size = size.astype(float)
        self.X = np.zeros((lanes, len(centers), spec.n_components + 1))
        self.X[:, :, 0] = 1.0
        self.s, self.m2 = np.zeros(self.X.shape[:2]), np.zeros(self.X.shape[:2])

    def rows(self, lanes, end: int):
        """The fit stacks (X, n, s, m2) of ``lanes`` over their first ``end``
        centers: ``model._center_rows`` of those stage records, stacked."""
        return (self.X[lanes, :end], np.tile(self.size[:end], (lanes.size, 1)),
                self.s[lanes, :end], self.m2[lanes, :end])

    def summaries(self, lanes, end: int, future, continuous: bool) -> _LaneSummaries:
        """``ArmSummary.from_records`` of each lane in ``lanes`` over its
        first ``end`` centers, with the planned ``future`` (n1, n0)."""
        centers = [(arm, int(self.size[c]), self.s[lanes, c], self.m2[lanes, c])
                   for c, arm in enumerate(self.arm[:end].tolist())]
        columns = ArmSummary._from_centers(centers, future, continuous)
        return _LaneSummaries(columns, self.X[lanes, :end, 1:], self.size[:end])

    def anchors(self, config: TrialConfig, lanes, end: int) -> list:
        """``optimizer._stage1_anchor`` of each lane in ``lanes`` over its
        first ``end`` centers: the configured stage-1 package, else the
        size-weighted mean package of the intervention centers of the
        earliest stage that has some, else None."""
        treated = np.flatnonzero(self.arm[:end] == 1)
        if config.stage1_package is not None or not treated.size:
            return [config.stage1_package] * lanes.size
        first = treated[self.stage[treated] == self.stage[treated[0]]]
        return [np.average(self.X[i, first, 1:], axis=0, weights=self.size[first])
                for i in lanes.tolist()]


def _decide_lanes(config: TrialConfig, goals: GoalSpec, block: _Block, models, lanes, k: int,
                  lo, hi) -> list:
    """The stage-``k`` decision (k = K + 1: the final package) of each lane in
    ``lanes`` under ``goals``, as one ``_recommend_lanes`` call over their
    fits (``models``: lane -> its stacked fit of stages below k), arm totals
    and anchors: per lane its package or ``_LANE_ERRORS`` error."""
    end = int(np.count_nonzero(block.stage < k))
    summaries = [None] * lanes.size
    if goals.power_goal is not None:
        future = TrialState(config).future_arm_sizes(k)
        summaries = block.summaries(lanes, end, future, goals.test.continuous_outcome)
    decisions = _recommend_lanes([models[i] for i in lanes.tolist()], summaries, goals,
                                 config.cost, lo, hi, block.anchors(config, lanes, end))
    return [d if isinstance(d, Exception) else d.x_hat for d in decisions]


def _simulate_block(spec: ScenarioSpec, config: TrialConfig, child_seeds) -> dict:
    """Run one trial per seed under ``config`` (the run's ``_trial_config``),
    all trials ("lanes") advancing one stage at a time on one ``_Block``.

    Per stage, a stage that deploys a recommendation decides it for all live
    lanes in one ``_decide_lanes`` call; the stage's packages (probes,
    repeats or each lane's deployed recommendation, through the distortion
    hook if any) go into the block; every live lane draws from its own
    stream; and when the pooled fit is used, the fits of all live lanes run
    as one stacked call.  A lane whose decision, hook, draw or fit fails
    with a ``_LANE_ERRORS`` error fails with its kind.  After the last
    stage, ``_final_rejects`` runs the final tests and ``_decide_lanes``
    with the power goal stripped gives the final packages of the lanes whose
    test passed, so a failed final test is reported before a failed final
    package, as in a trial run alone.

    Returns the block's columns, one row per seed in seed order: ``kind``
    (the failure kind, "" for a lane that completed); ``beta`` and ``se``
    (L, P+1); ``reject`` (L,); ``x_rec`` (the last staged recommendation)
    and ``x_opt`` (the final package), each (L, P); and ``propt`` (L,), the
    true mean outcome at ``x_rec``, else at ``x_opt``.  A failed lane's
    entries, and a package no stage decided, are NaN (``reject`` False).
    """
    truth = _true_model(spec)
    lo, hi = _bounds_arrays(config.bounds, config.n_components)
    rngs = [np.random.Generator(np.random.PCG64(cs)) for cs in child_seeds]  # = default_rng(cs)
    L, P, binary = len(rngs), spec.n_components, spec.outcome_kind == "binary"
    block, models = _Block(spec, L), {}
    cols = {"kind": np.full(L, "", dtype=object), "beta": np.full((L, P + 1), np.nan),
            "se": np.full((L, P + 1), np.nan), "reject": np.zeros(L, bool),
            "x_rec": np.full((L, P), np.nan), "x_opt": np.full((L, P), np.nan),
            "propt": np.full(L, np.nan)}

    def settle(lanes, results, column=None):
        """``lanes`` less those whose result is a ``_LANE_ERRORS`` error,
        which fail with its kind; any other exception is raised.  The other
        lanes' results go to their rows of ``column``, if given."""
        failed = [j for j, result in enumerate(results) if isinstance(result, Exception)]
        for j in failed:
            if not isinstance(results[j], _LANE_ERRORS):
                raise results[j]
            cols["kind"][lanes[j]] = type(results[j]).__name__
        kept = np.delete(lanes, failed) if failed else lanes
        if column is not None:
            values = [result for result in results if not isinstance(result, Exception)]
            column[kept] = np.reshape(values, (kept.size,) + column.shape[1:])
        return kept

    live, start = np.arange(L), 0
    for k, splan in enumerate(spec.stages, start=1):
        end = start + splan.n_control_centers + splan.n_intervention_centers
        treated = slice(start + splan.n_control_centers, end)
        if _recommends(spec, splan):
            decisions = _decide_lanes(config, config.goals, block, models, live, k, lo, hi)
            live = settle(live, decisions, cols["x_rec"])
            block.X[live, treated, 1:] = _deployed_packages(spec, cols["x_rec"][live])[:, None]
        else:
            plan = spec.stages[0] if spec.design_mode == "factorial-repeat" else splan
            block.X[:, treated, 1:] = np.reshape(plan.probe_packages, (-1, P))
        if spec.distortion is not None:
            hooked = [_distort(spec, k, block.X[i, treated, 1:]) for i in live.tolist()]
            live = settle(live, hooked)
        sums, m2, failed = _draw_stage([rngs[i] for i in live.tolist()], spec, truth,
                                       block.X[live, start:end, 1:], splan.n_per_center)
        block.s[live, start:end], block.m2[live, start:end] = sums, m2
        live = settle(live, [NonFiniteError("non-finite value in model input") if bad else None
                             for bad in failed.tolist()])
        if live.size and _fit_used(spec, k):
            rows = block.rows(live, end)
            fits = (_fit_binary_stack(*rows) if binary
                    else _fit_continuous_stack(*rows, config.outcome_link))
            models.update(zip(live.tolist(), fits))
            live = settle(live, fits)
        start = end

    test = config.goals.test or _default_test(spec.outcome_kind)
    summary = None if test.wald else block.summaries(live, start, (0.0, 0.0),
                                                     test.continuous_outcome).columns
    rejects = _final_rejects(summary, test, spec.goals.alpha, [models[i] for i in live.tolist()])
    live = settle(live, rejects, cols["reject"])
    if spec.goals.outcome_goal is not None:
        finals = _decide_lanes(config, replace(config.goals, power_goal=None), block, models,
                               live, len(spec.stages) + 1, lo, hi)
        live = settle(live, finals, cols["x_opt"])
    failed = cols["kind"] != ""
    cols["x_rec"][failed], cols["reject"][failed] = np.nan, False

    beta = np.reshape([models[i].beta for i in live.tolist()], (-1, P + 1))
    cov = np.reshape([models[i].covariance for i in live.tolist()], (-1, P + 1, P + 1))
    if spec.se_source == "sandwich" and binary:
        # Grouped-binomial score per center is (s - n p) x, so the meat is the
        # sum of (s - n p)^2 x x'; the bread is the Fisher information, whose
        # inverse the binary fit already carries as its covariance.
        X, n, s, _ = block.rows(live, start)
        resid = s - n * expit((X @ beta[:, :, None])[:, :, 0])
        cov = cov @ (np.swapaxes(X, 1, 2) @ (X * (resid * resid)[:, :, None])) @ cov
    cols["beta"][live], cols["se"][live] = beta, np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    # the last recommendation, else the final package
    x = np.where(np.isnan(cols["x_rec"]), cols["x_opt"], cols["x_rec"])[live]
    cols["propt"][live] = _predict_lanes(truth.link, truth.beta[0], truth.effects, x)
    return cols


# ---------------------------------------------------------------------------
# the scenario runner


def _rel_bias_pct(estimate, reference) -> tuple:
    """|100 (estimate - reference) / reference|, NaN where the reference is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return tuple(np.where(reference != 0.0, np.abs(100.0 * (estimate - reference) / reference),
                              np.nan))


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


def run_scenario(spec: ScenarioSpec, seed=None, threads=1) -> MetricsReport:
    """Estimate a scenario's operating characteristics by simulation.

    ``seed`` overrides ``spec.rng_seed``; one of the two must be set.  The
    replicates run in contiguous blocks of at most ``BLOCK_LANES`` seeds, so
    memory does not grow with R.  ``threads`` is an integer >= 1 (a bool or
    a float raises rather than being truncated).  With ``threads > 1`` the
    blocks, of at most ceil(R / workers) seeds, are shared among
    ``workers = min(threads, CPU count)`` processes, with results identical
    to the serial run.
    """
    if seed is None:
        seed = spec.rng_seed
    if seed is None:
        raise ValueError("a simulation needs a seed (spec.rng_seed or the seed argument)")
    _check_count("seed", seed, 0)
    seed = int(seed)
    _check_count("threads", threads, 1)
    threads = min(int(threads), os.cpu_count() or 1)

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
    cols = {name: np.concatenate([block[name] for block in results]) for name in results[0]}
    ok = cols["kind"] == ""
    n_used = int(np.count_nonzero(ok))
    betas, ses = cols["beta"][ok], cols["se"][ok]
    beta_star = np.asarray(spec.true_beta)

    with np.errstate(invalid="ignore", divide="ignore"), warnings.catch_warnings():
        # With every replicate failed each mean is of an empty slice: NaN.
        warnings.simplefilter("ignore", RuntimeWarning)
        mean_beta = betas.mean(axis=0)
        emp_sd = betas.std(axis=0, ddof=1)  # NaN for fewer than two
        se_ratio = tuple(100.0 * ses.mean(axis=0) / emp_sd)
        z = norm_quantile(0.975)
        covered = np.abs(betas - beta_star) <= z * ses
        cp95 = tuple(100.0 * covered.mean(axis=0))
        power_pct = 100.0 * cols["reject"][ok].mean()

    x_star, staged = true_optimum(spec), any(_recommends(spec, sp) for sp in spec.stages)
    opt_rel_bias = mean_rec = q_lo = q_hi = None
    if n_used and x_star is not None:
        opt_rel_bias = _rel_bias_pct(cols["x_opt"][ok].mean(axis=0), x_star)
    if n_used and staged:
        mean_rec = tuple(cols["x_rec"][ok].mean(axis=0))
    if n_used and (staged or spec.goals.outcome_goal is not None):
        q_lo, q_hi = np.quantile(cols["propt"][ok], [0.025, 0.975]).tolist()

    return MetricsReport(
        scenario=spec.name,
        replicates=spec.replicates,
        n_used=n_used,
        failures=spec.replicates - n_used,
        failure_kinds=dict(Counter(kind for kind in cols["kind"].tolist() if kind)),
        power_pct=power_pct,
        rel_bias_pct=_rel_bias_pct(mean_beta, beta_star),
        se_over_emp_sd_pct=se_ratio,
        cp95_pct=cp95,
        opt_rel_bias_pct=opt_rel_bias,
        propt_q2p5=q_lo,
        propt_q97p5=q_hi,
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
    _check_count("replicates", replicates, 1)
    if seed is None:
        raise ValueError("betterbirth_power needs a seed")
    _check_count("seed", seed, 0)
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
    data = ArmSummary(n1_obs=trial_layout.n1_obs + n1f, n0_obs=trial_layout.n0_obs + n0f,
                      s1_obs=s1, s0_obs=s0)
    # a replicate with all outcomes identical has no z and does not reject
    return float(np.mean([r is True for r in _final_rejects(data, test, alpha, None)]))

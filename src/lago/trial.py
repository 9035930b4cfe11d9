"""Multi-stage trial state: accumulate stage data, recommend, analyze.

A trial is configured once (stage plan, bounds, cost, goals) and then moves
through its stages: each completed stage's data is ingested, the outcome
model is refitted on everything observed so far, and the next stage's
package is recommended.  After the last stage the final test and the final
cost-optimal package (outcome goal only) are computed from the pooled data.

States are values: ``ingest_stage`` and ``stop_for_futility`` return new
states and never modify their argument.  The ``recommendations`` field is a
per-stage memo of what ``next_recommendation`` computed; replaying the same
stage records through a fresh state reproduces it exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cost import CostFunction
from .errors import OutOfOrderStageError, config_errors
from .model import (
    CONTINUOUS_LINKS,
    CenterData,
    FittedModel,
    StageRecord,
    _center_rows,
    _check_binary,
    _json_fields,
    _json_value,
    fit_binary,
    fit_continuous,
)
from .optimizer import (
    GoalSpec,
    Recommendation,
    _bounds_arrays,
    _projected_power,
    _stage1_anchor,
    _state_summary,
    recommend_from_summary,
    recommend_stage_k,
)
from .power import ArmSummary, TestResult, TestSelector, _default_test
from .power import final_test as _summary_final_test

__all__ = [
    "PlannedStage",
    "TrialConfig",
    "TrialState",
    "new_trial",
    "ingest_stage",
    "refit",
    "next_recommendation",
    "final_optimal",
    "check_futility",
    "stop_for_futility",
    "final_test",
    "to_document",
    "from_document",
    "save_state",
    "load_state",
]

DOCUMENT_FORMAT = "lago-trial-state"
DOCUMENT_VERSION = 2  # per-center size/outcome_sum/m2; version 1 (outcome lists) is read


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlannedStage:
    """Planned per-arm sample for one stage.

    ``n_intervention`` / ``n_control`` are total observations; they are what
    the projections read. ``centers_intervention`` / ``centers_control``
    record how many centers the plan splits them across; they are validated
    and kept with the config, but no computation reads them (realized
    centers come from the ingested stage data).
    """

    n_intervention: float
    n_control: float
    centers_intervention: int = 1
    centers_control: int = 1

    def __post_init__(self):
        if not np.isfinite([self.n_intervention, self.n_control]).all():
            raise ValueError("planned sizes must be finite")
        if self.n_intervention < 0 or self.n_control < 0:
            raise ValueError("planned sizes must be nonnegative")
        if self.n_intervention + self.n_control <= 0:
            raise ValueError("a planned stage needs a positive sample")
        for name in ("centers_intervention", "centers_control"):
            count = getattr(self, name)
            if not (isinstance(count, numbers.Real) and math.isfinite(count)
                    and count == int(count)):
                raise ValueError(
                    f"planned center counts must be integers, got {name}={count!r}"
                )
            object.__setattr__(self, name, int(count))
        if self.centers_intervention < 0 or self.centers_control < 0:
            raise ValueError("planned center counts must be nonnegative")


@dataclass(frozen=True)
class TrialConfig:
    """Immutable trial plan: stages, component bounds, cost, and goals."""

    stages: tuple
    bounds: tuple
    cost: CostFunction
    goals: GoalSpec
    outcome_kind: str = "binary"
    outcome_link: str = "identity"  # used only for continuous outcomes
    stage1_package: tuple | None = None  # shrinking anchor; default: observed mean

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(
            self, "bounds", tuple((float(a), float(b)) for a, b in self.bounds)
        )
        if self.stage1_package is not None:
            pkg = tuple(float(v) for v in self.stage1_package)
            if len(pkg) != len(self.bounds):
                raise ValueError(
                    "stage1_package must have one value per bounded component"
                )
            if not all(np.isfinite(pkg)):
                raise ValueError("stage1_package values must be finite")
            object.__setattr__(self, "stage1_package", pkg)
        if len(self.stages) < 2:
            raise ValueError("a staged trial needs at least two planned stages")
        if not all(isinstance(s, PlannedStage) for s in self.stages):
            raise ValueError("stages must be PlannedStage instances")
        if self.outcome_kind not in ("binary", "continuous"):
            raise ValueError("outcome_kind must be 'binary' or 'continuous'")
        if self.outcome_kind == "continuous" and self.outcome_link not in CONTINUOUS_LINKS:
            raise ValueError(f"a continuous outcome_link must be one of {CONTINUOUS_LINKS}")
        test = self.goals.test
        if test is not None and test.continuous_outcome != (self.outcome_kind == "continuous"):
            raise ValueError(
                f"test {test.kind!r} does not analyze a {self.outcome_kind} outcome"
            )
        if not self.bounds:
            raise ValueError("bounds must list at least one component")
        _bounds_arrays(self.bounds, len(self.bounds))
        if self.cost.max_component >= len(self.bounds):
            raise ValueError(
                "cost references a component beyond the configured bounds"
            )

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def n_components(self) -> int:
        return len(self.bounds)

    def to_config(self) -> dict:
        out = _json_fields(self)
        if self.stage1_package is None:
            del out["stage1_package"]
        return out

    @classmethod
    def from_config(cls, entry: dict) -> "TrialConfig":
        with config_errors("trial config"):
            stage1 = entry.get("stage1_package")
            return cls(
                stages=tuple(PlannedStage(**s) for s in entry["stages"]),
                bounds=tuple(tuple(b) for b in entry["bounds"]),
                cost=CostFunction.from_config(entry["cost"]),
                goals=GoalSpec.from_config(entry["goals"]),
                outcome_kind=entry.get("outcome_kind", "binary"),
                outcome_link=entry.get("outcome_link", "identity"),
                stage1_package=tuple(stage1) if stage1 is not None else None,
            )


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

@dataclass
class TrialState:
    """Where a trial stands: completed stage data, memoized recommendations,
    and a monotone status (awaiting-stage-k -> complete / stopped-futility)."""

    config: TrialConfig
    completed: tuple = ()
    recommendations: list = field(default_factory=list)
    status: str = "awaiting-stage-1"
    # (completed, model) of the last ``refit``; see there.
    _fit: tuple | None = field(default=None, init=False, compare=False, repr=False)
    # (completed, recommendation) stored for ``final_optimal``; see there.
    _final: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def next_stage(self) -> int:
        return len(self.completed) + 1

    def future_arm_sizes(self, k: int):
        """Total planned (intervention, control) observations for stages k..K."""
        n1 = sum(s.n_intervention for s in self.config.stages[k - 1:])
        n0 = sum(s.n_control for s in self.config.stages[k - 1:])
        return float(n1), float(n0)


def new_trial(config: TrialConfig) -> TrialState:
    return TrialState(config=config)


def ingest_stage(state: TrialState, record: StageRecord) -> TrialState:
    """Fold one completed stage into the trial; returns the advanced state.

    Stages arrive strictly in order.  Packages the centers actually ran may
    deviate from the recommendation and even from the configured bounds —
    deviations are warned about, never rejected, and every later fit uses
    the actual packages.
    """
    if state.status == "complete":
        raise OutOfOrderStageError("the trial is already complete")
    if state.status == "stopped-futility":
        raise OutOfOrderStageError("the trial was stopped for futility")
    expected = state.next_stage
    if record.stage_index != expected:
        raise OutOfOrderStageError(
            f"expected stage {expected}, got stage {record.stage_index}"
        )
    if record.n_components != state.config.n_components:
        raise ValueError(
            f"stage packages have {record.n_components} components, "
            f"the trial is configured for {state.config.n_components}"
        )
    for c in record.centers:
        # A NaN entry compares False both ways, so it never warns.
        if c.arm == 1 and any(
            v < a or v > b
            for v, (a, b) in zip(c.package.ravel().tolist(), state.config.bounds)
        ):
            warnings.warn(
                f"stage {record.stage_index}: a center ran package "
                f"{np.asarray(c.package).tolist()} outside the configured bounds",
                stacklevel=2,
            )
    completed = state.completed + (record,)
    done = len(completed) >= state.config.n_stages
    status = "complete" if done else f"awaiting-stage-{len(completed) + 1}"
    return TrialState(
        config=state.config,
        completed=completed,
        recommendations=list(state.recommendations),
        status=status,
    )


def refit(state: TrialState) -> FittedModel:
    """Outcome model fitted on all completed stages pooled.

    The model is stored on ``state`` and returned again while
    ``state.completed`` is the same tuple, so every caller on one state
    (recommendation, futility check, final test, final package) shares one
    fit.  Treat it as read-only.
    """
    if not state.completed:
        raise ValueError("no completed stages to fit")
    if state._fit is not None and state._fit[0] is state.completed:
        return state._fit[1]
    if state.config.outcome_kind == "binary":
        model = fit_binary(state.completed)
    else:
        model = fit_continuous(state.completed, link=state.config.outcome_link)
    _store_fit(state, model)
    return model


def _store_fit(state: TrialState, model: FittedModel) -> None:
    """Make ``model`` what ``refit(state)`` returns for the stages completed
    now: a fit of exactly those stages made elsewhere, such as one lane of
    a stacked fit."""
    state._fit = (state.completed, model)


def _store_recommendation(state: TrialState, rec: Recommendation) -> None:
    """Make ``rec`` the state's pending decision, made elsewhere (one lane of
    a batched decision; the counterpart of ``_store_fit``): what
    ``next_recommendation`` returns while stages remain, or what
    ``final_optimal`` returns for the stages completed now once the trial
    is complete."""
    if state.status == "complete":
        state._final = (state.completed, rec)
    else:
        state.recommendations.append(rec)


def next_recommendation(state: TrialState) -> Recommendation:
    """Recommended package for the next stage, refitting on everything seen.

    Also memoized into ``state.recommendations`` so a serialized state
    remembers it; recomputing from the same records gives the same answer.
    """
    if state.status == "complete":
        raise ValueError("the trial is complete; use final_optimal")
    if state.status == "stopped-futility":
        raise ValueError("the trial was stopped for futility")
    if not state.completed:
        raise ValueError("the first recommendation needs stage-1 data")
    k = state.next_stage
    if len(state.recommendations) >= k - 1:
        return state.recommendations[k - 2]
    model = refit(state)
    rec = recommend_stage_k(
        model, state, state.config.goals,
        cost=state.config.cost, bounds=state.config.bounds, k=k,
    )
    state.recommendations.append(rec)
    return rec


def final_optimal(state: TrialState) -> Recommendation:
    """Cost-optimal package from the completed trial, outcome goal only.

    Any configured power goal is deliberately ignored: the trial's final
    product is ``recommend_from_summary`` on the all-data fit with the
    power goal stripped, so an unreachable outcome goal takes the same
    shrinking fallback as the staged recommendations, anchored at
    ``_stage1_anchor``.  A package stored with ``_store_recommendation`` for
    the stages completed now is returned as it is.
    """
    if state.status != "complete":
        raise ValueError("final_optimal needs a complete trial")
    goals = state.config.goals
    if goals.outcome_goal is None:
        raise ValueError("final_optimal needs an outcome goal")
    if state._final is not None and state._final[0] is state.completed:
        return state._final[1]
    return recommend_from_summary(
        refit(state), None, dataclasses.replace(goals, power_goal=None),
        state.config.cost, state.config.bounds, _stage1_anchor(state),
    )


def check_futility(state: TrialState):
    """(futile, best_projected_power): can the power goal still be met?

    Evaluates the projected power at the best-outcome extreme of the bounds
    — the most optimistic continuation.  Reported only; stopping is the
    operator's call (``stop_for_futility``).  Without a power goal there is
    nothing to check: (False, None).
    """
    goals = state.config.goals
    if goals.power_goal is None:
        return False, None
    if not state.completed:
        raise ValueError("futility is assessed on at least one completed stage")
    model = refit(state)
    lo, hi = _bounds_arrays(state.config.bounds, state.config.n_components)
    effects = model.effects if goals.direction == "increase" else -model.effects
    x_ext = np.where(effects > 0, hi, lo)
    summary = _state_summary(state, goals.test, state.next_stage)
    power = _projected_power(x_ext, model, summary, goals)
    return power < goals.power_goal, power


def stop_for_futility(state: TrialState) -> TrialState:
    """Operator decision to stop; only an awaiting trial can be stopped."""
    if not state.status.startswith("awaiting"):
        raise ValueError(f"cannot stop a trial with status {state.status!r}")
    return TrialState(
        config=state.config,
        completed=state.completed,
        recommendations=list(state.recommendations),
        status="stopped-futility",
    )


def final_test(
    state: TrialState, test: TestSelector | None = None, alpha: float = 0.05
) -> TestResult:
    """Final-analysis test on the completed trial's pooled data.

    ``test`` defaults to the configured goal's test, or the plain
    unpooled test for the outcome kind when the goals never named one.
    """
    if state.status != "complete":
        raise ValueError("the final test runs on a complete trial")
    if test is None:
        test = state.config.goals.test
    if test is None:
        test = _default_test(state.config.outcome_kind)
    summary = ArmSummary.from_records(
        state.completed, future=(0.0, 0.0), continuous=test.continuous_outcome
    )
    model = refit(state) if test.wald else None
    return _summary_final_test(summary, test, alpha=alpha, model=model)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _center_from_dict(entry: dict, version: int) -> CenterData:
    arm, package = int(entry["arm"]), np.asarray(entry["package"], dtype=float)
    if version == 1:
        return CenterData(arm=arm, package=package, outcomes=entry["outcomes"])
    stats = (entry["size"], entry["outcome_sum"], entry["m2"])
    return CenterData.from_stats(arm, package, *stats)


def _record_from_dict(entry: dict, version: int) -> StageRecord:
    return StageRecord(
        stage_index=int(entry["stage_index"]),
        centers=[_center_from_dict(c, version) for c in entry["centers"]],
    )


def _rec_from_dict(entry: dict) -> Recommendation:
    return Recommendation(
        x_hat=np.asarray(entry["x_hat"], dtype=float),
        regime=entry["regime"],
        achieved_outcome=float(entry["achieved_outcome"]),
        required_threshold=float(entry["required_threshold"]),
        projected_power=(
            None if entry["projected_power"] is None
            else float(entry["projected_power"])
        ),
        cost=float(entry["cost"]),
    )


def to_document(state: TrialState) -> dict:
    """JSON-ready snapshot of the whole trial for resume-between-stages."""
    return {
        "format": DOCUMENT_FORMAT,
        "version": DOCUMENT_VERSION,
        "config": state.config.to_config(),
        "completed": _json_value(state.completed),
        "recommendations": _json_value(state.recommendations),
        "status": state.status,
    }


def from_document(doc: dict) -> TrialState:
    """Trial state from a ``to_document`` snapshot (version 2, or version 1).

    Rejects invalid center statistics, and a document whose status, stage
    indices or recommendation count disagree with its completed stages, so
    a hand-edited status cannot unlock ``final_test`` on part of the trial.
    """
    with config_errors("trial state document"):
        if doc.get("format") != DOCUMENT_FORMAT:
            raise ValueError(f"not a {DOCUMENT_FORMAT} document")
        version = doc.get("version")
        if version not in (1, DOCUMENT_VERSION):
            raise ValueError(f"unsupported document version {version!r}")
        config = TrialConfig.from_config(doc["config"])
        completed = tuple(_record_from_dict(r, version) for r in doc["completed"])
        recommendations = [_rec_from_dict(r) for r in doc["recommendations"]]
        status = doc["status"]
    if completed and config.outcome_kind == "binary":
        _check_binary(*_center_rows(completed)[1:])
    indices = [rec.stage_index for rec in completed]
    if indices != list(range(1, len(completed) + 1)):
        raise ValueError(f"completed stage indices {indices} are not 1, 2, ...")
    if len(completed) > config.n_stages:
        raise ValueError(
            f"{len(completed)} completed stages, the plan has {config.n_stages}"
        )
    if len(recommendations) > len(completed):
        raise ValueError(
            f"{len(recommendations)} recommendations for "
            f"{len(completed)} completed stages"
        )
    if len(completed) == config.n_stages:
        allowed = ("complete",)
    else:
        allowed = (f"awaiting-stage-{len(completed) + 1}", "stopped-futility")
    if status not in allowed:
        raise ValueError(
            f"status {status!r} does not match {len(completed)} of "
            f"{config.n_stages} completed stages"
        )
    return TrialState(
        config=config,
        completed=completed,
        recommendations=recommendations,
        status=status,
    )


def save_state(state: TrialState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_document(state), fh, indent=2, allow_nan=False)
        fh.write("\n")


def load_state(path) -> TrialState:
    with open(path, "r", encoding="utf-8") as fh:
        return from_document(json.load(fh))

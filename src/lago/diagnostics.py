"""Design diagnostics: when a power goal binds, and how stable a solution is.

``dominance_threshold`` answers a planning question: above which outcome
level does the outcome goal alone already certify the power goal at the
planned design, so that adding the power goal changes nothing?  It is the
planned trial's ``power_threshold`` once stage 1 is observed at its
expected values (every center's outcome sum replaced by its mean under the
assumed coefficients).

``verify_assumption7`` probes the uniqueness/continuity premise behind the
recommendation: perturb the coefficient vector inside an l2 ball, re-solve
the cost minimization at every draw, and report the worst displacement of
the solution against a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import CostFunction
from .errors import LagoError, _check_count
from .model import CenterData, FittedModel, StageRecord, _assumed, _json_fields, predict
from .optimizer import GoalSpec, _bounds_arrays, min_cost_subject_to_threshold, power_threshold
from .power import TestSelector, norm_quantile
from .sim import StagePlan, _check_stage_plans, _planned_stages
from .trial import TrialConfig, ingest_stage, new_trial

__all__ = [
    "DominanceDesign",
    "dominance_design",
    "dominance_threshold",
    "Assumption7Report",
    "verify_assumption7",
]


# ---------------------------------------------------------------------------
# outcome-goal dominance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DominanceDesign:
    """Planned staged design the dominance threshold is computed for.

    ``stages`` are StagePlan values (stage 1 must carry probe packages);
    ``bounds`` the component box.  ``cost`` is only consulted by
    package-df test kinds and may stay None for the z tests.
    """

    stages: tuple
    bounds: tuple
    cost: CostFunction | None = None

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(
            self, "bounds", tuple((float(a), float(b)) for a, b in self.bounds)
        )
        _check_stage_plans(self.stages, len(self.bounds))
        _bounds_arrays(self.bounds, len(self.bounds))


def dominance_design(n_per_center: int = 40) -> DominanceDesign:
    """Bundled two-stage layout for the dominance example.

    Per stage: two control and two intervention centers of ``n_per_center``
    each; stage-1 probes exercise one component at a time, (1,0) and (0,4).
    """
    stage = StagePlan(
        n_control_centers=2,
        n_intervention_centers=2,
        n_per_center=n_per_center,
        probe_packages=((1.0, 0.0), (0.0, 4.0)),
    )
    later = StagePlan(
        n_control_centers=2,
        n_intervention_centers=2,
        n_per_center=n_per_center,
    )
    return DominanceDesign(
        stages=(stage, later),
        bounds=((0.0, 2.0), (0.0, 8.0)),
    )


def dominance_threshold(
    design: DominanceDesign,
    beta_star,
    alpha: float = 0.05,
    pi: float = 0.8,
    approach: str = "unconditional",
    test: TestSelector = TestSelector("z_unpooled"),
) -> float:
    """Smallest outcome level at which the outcome goal alone certifies the
    power goal, at the expectation-level design.

    This is ``power_threshold`` of the planned trial once stage 1 is
    observed at its expected values: every center's outcome sum is its size
    times the assumed success probability at its package.  Outcome goals
    above the returned level make the power goal redundant (non-binding);
    below it, adding the power goal changes the recommendation.  Expressed
    on the outcome scale; relative to the control level expit(beta0) when
    a percentage is wanted.
    """
    cost = design.cost
    if cost is None:
        if test.wald:
            raise ValueError("package-df tests price packages; the design needs a cost")
        # the z kinds never price packages; a flat stand-in keeps the
        # threshold machinery uniform
        cost = CostFunction(((None, 0, 0.0),))
    model = _assumed(beta_star)
    first = design.stages[0]
    n = first.n_per_center
    packages = [(0, np.zeros(len(design.bounds)))] * first.n_control_centers
    packages += [(1, np.asarray(x, dtype=float)) for x in first.probe_packages]
    centers = []
    for arm, x in packages:
        p = predict(model, x)
        centers.append(CenterData.from_stats(arm, x, n, n * p, n * p * (1.0 - p)))
    goals = GoalSpec(power_goal=pi, alpha=alpha, approach=approach, test=test)
    config = TrialConfig(
        stages=_planned_stages(design.stages), bounds=design.bounds, cost=cost, goals=goals
    )
    state = ingest_stage(new_trial(config), StageRecord(1, centers))
    return float(power_threshold(model, state, goals))


# ---------------------------------------------------------------------------
# solution-stability probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Assumption7Report:
    """Worst-case solution displacement under coefficient perturbation.

    ``centers`` holds one entry per ball center: the center's coefficient
    vector, its own solution, the max displacement of the perturbed
    solutions from that solution, and how many draws failed to solve.
    ``delta_max`` is the maximum over centers; the probe passes when it
    stays at or below ``eta``.  A center that cannot be solved has no ``x``
    and a NaN ``delta_max``, which ``to_dict`` writes as None.
    """

    delta_max: float
    eta: float
    epsilon: float
    passed: bool
    x_hat: tuple
    centers: tuple
    failures: tuple
    samples_per_center: int
    seed: int | None

    def to_dict(self) -> dict:
        return _json_fields(self)


def _ball_point(rng, center, epsilon):
    dim = center.size
    direction = rng.standard_normal(dim)
    norm = float(np.linalg.norm(direction))
    while norm == 0.0:
        direction = rng.standard_normal(dim)
        norm = float(np.linalg.norm(direction))
    radius = epsilon * rng.random() ** (1.0 / dim)
    return center + (radius / norm) * direction


def verify_assumption7(
    model_or_beta,
    cost: CostFunction,
    bounds,
    goal: float,
    epsilon: float,
    L: int = 200,
    eta: float = 0.5,
    extended: bool = False,
    M: int = 5,
    seed=None,
    direction: str = "increase",
    link: str = "logit",
) -> Assumption7Report:
    """Sample L coefficient vectors uniformly in the l2 ball of radius
    ``epsilon`` around the estimate, re-solve the cost minimization at each,
    and compare the worst displacement ``delta_max`` against ``eta``.

    ``extended`` repeats the probe around M additional centers swept along
    the per-coordinate 95% confidence band (same quantile in every
    coordinate), which needs a fitted model with a covariance, not a bare
    coefficient vector.  Per-draw solver failures (e.g. the perturbed goal
    became unreachable) are recorded, not raised; but if the goal is
    unreachable at the estimate itself there is no solution to verify, and
    that error propagates.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be positive and finite")
    if not 0 < eta < np.inf:
        raise ValueError("eta must be positive and finite")
    _check_count("L", L, 1)
    _check_count("M", M, 1)
    if seed is not None:
        _check_count("seed", seed, 0)

    if isinstance(model_or_beta, FittedModel):
        base_model = model_or_beta
        beta_hat = np.asarray(base_model.beta, dtype=float)
        link = base_model.link
    else:
        beta_hat = np.asarray(model_or_beta, dtype=float)
        if beta_hat.ndim != 1:
            raise ValueError(f"model_or_beta must be a 1-d vector, got shape {beta_hat.shape}")
        base_model = _assumed(beta_hat, link)

    def solve(beta):
        return np.asarray(
            min_cost_subject_to_threshold(
                _assumed(beta, link), cost, bounds, goal, direction
            ),
            dtype=float,
        )

    x_hat = solve(beta_hat)

    centers = [beta_hat]
    if extended:
        cov = np.asarray(base_model.covariance, dtype=float)
        se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        if not np.any(se > 0):
            raise ValueError(
                "extended mode sweeps the confidence band and needs a model "
                "with a nonzero covariance"
            )
        for m in range(M):
            q = 0.025 + 0.95 * (m + 1) / (M + 1)
            centers.append(beta_hat + norm_quantile(q) * se)

    rng = np.random.default_rng(seed)
    center_rows, failure_rows = [], []
    delta_max = 0.0
    for ci, center in enumerate(centers):
        try:
            # Center 0 is the estimate itself, already solved as x_hat.
            x_center = x_hat if ci == 0 else solve(center)
        except LagoError as exc:
            failure_rows.append(
                {"center": ci, "sample": None, "error": type(exc).__name__}
            )
            center_rows.append(
                {
                    "beta": center.tolist(),
                    "x": None,
                    "delta_max": float("nan"),
                    "failed_samples": L,
                }
            )
            continue
        worst = 0.0
        failed = 0
        for li in range(L):
            beta_l = _ball_point(rng, center, epsilon)
            try:
                x_l = solve(beta_l)
            except LagoError as exc:
                failed += 1
                failure_rows.append(
                    {"center": ci, "sample": li, "error": type(exc).__name__}
                )
                continue
            worst = max(worst, float(np.linalg.norm(x_l - x_center)))
        center_rows.append(
            {
                "beta": center.tolist(),
                "x": x_center.tolist(),
                "delta_max": worst,
                "failed_samples": failed,
            }
        )
        delta_max = max(delta_max, worst)

    return Assumption7Report(
        delta_max=delta_max,
        eta=float(eta),
        epsilon=float(epsilon),
        passed=delta_max <= eta,
        x_hat=tuple(x_hat.tolist()),
        centers=tuple(center_rows),
        failures=tuple(failure_rows),
        samples_per_center=L,
        seed=None if seed is None else int(seed),
    )

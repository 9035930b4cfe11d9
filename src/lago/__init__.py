"""Learn-As-you-GO adaptive trial design and analysis.

The pieces, bottom up: ``cost`` (separable polynomial package costs),
``model`` (staged center data and outcome-model fits), ``power``
(distribution functions, final tests, power projections), ``optimizer``
(cost-minimal packages under outcome/power goals), ``trial`` (staged trial
state machine), ``sim`` (Monte Carlo operating characteristics and the
BetterBirth reconstruction), ``diagnostics`` (goal-dominance thresholds and
solution-stability probes), ``cli`` (the ``lago`` command).
"""

__version__ = "0.1.0"

from .cost import CostFunction
from .diagnostics import (
    Assumption7Report,
    DominanceDesign,
    dominance_design,
    dominance_threshold,
    verify_assumption7,
)
from .errors import (
    DegenerateVarianceError,
    InfeasibleError,
    LagoError,
    NonFiniteError,
    NoThresholdError,
    OutOfOrderStageError,
    RankDeficientError,
    SeparationError,
    SingularCovarianceError,
)
from .model import (
    CenterData,
    FittedModel,
    StageRecord,
    fit_binary,
    fit_continuous,
    load_stage_csv,
    predict,
)
from .optimizer import (
    GoalSpec,
    Recommendation,
    integerize,
    min_cost_subject_to_threshold,
    p_max,
    plan_stage1,
    power_threshold,
    recommend_from_summary,
    recommend_stage_k,
    shrinking_method,
)
from .power import (
    ArmSummary,
    TestSelector,
    TestResult,
    conditional_constraint_slack,
    conditional_power,
    final_test as summary_final_test,
    unconditional_lambda,
    unconditional_power,
)
from .sim import (
    MetricsReport,
    ScenarioSpec,
    StagePlan,
    betterbirth_model,
    betterbirth_power,
    betterbirth_summary,
    null_variant,
    run_scenario,
    scenario_1a,
    scenario_1b,
    scenario_2a,
    scenario_2b,
    true_optimum,
)
from .trial import (
    PlannedStage,
    TrialConfig,
    TrialState,
    check_futility,
    final_optimal,
    final_test,
    ingest_stage,
    load_state,
    new_trial,
    next_recommendation,
    refit,
    save_state,
    stop_for_futility,
)

__all__ = [
    "__version__",
    # errors
    "LagoError",
    "SeparationError",
    "RankDeficientError",
    "NonFiniteError",
    "InfeasibleError",
    "NoThresholdError",
    "OutOfOrderStageError",
    "DegenerateVarianceError",
    "SingularCovarianceError",
    # cost
    "CostFunction",
    # model
    "CenterData",
    "StageRecord",
    "FittedModel",
    "fit_binary",
    "fit_continuous",
    "predict",
    "load_stage_csv",
    # power
    "ArmSummary",
    "TestSelector",
    "TestResult",
    "summary_final_test",
    "unconditional_lambda",
    "unconditional_power",
    "conditional_power",
    "conditional_constraint_slack",
    # optimizer
    "GoalSpec",
    "Recommendation",
    "p_max",
    "min_cost_subject_to_threshold",
    "power_threshold",
    "shrinking_method",
    "recommend_stage_k",
    "recommend_from_summary",
    "plan_stage1",
    "integerize",
    # trial
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
    "save_state",
    "load_state",
    # sim
    "StagePlan",
    "ScenarioSpec",
    "MetricsReport",
    "run_scenario",
    "true_optimum",
    "null_variant",
    "scenario_1a",
    "scenario_1b",
    "scenario_2a",
    "scenario_2b",
    "betterbirth_model",
    "betterbirth_summary",
    "betterbirth_power",
    # diagnostics
    "DominanceDesign",
    "dominance_design",
    "dominance_threshold",
    "Assumption7Report",
    "verify_assumption7",
]

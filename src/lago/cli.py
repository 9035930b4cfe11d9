"""Command-line front end.

Every subcommand is a thin wrapper over one library entry point: parse
arguments and files, call, emit JSON (or CSV for ``simulate``).  Exit codes:
0 success, 2 validation problem (bad flags, malformed files, impossible
configs), 3 numerical failure (separation, infeasibility, no certifying
threshold, ...).

Stage data CSVs carry one observation per row with columns ``stage``,
``center``, ``arm``, ``x_1`` .. ``x_P``, ``y``.  Trial configs, scenario configs
and coefficient fixtures (``--beta b`` is ``{"beta": b}``) are JSON, and an
unknown key in one is refused.  The bundled ``scenario_1a`` .. ``scenario_2b``
and ``betterbirth`` (from ``lago.sim``) can be named wherever a file is expected.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from .cost import CostFunction
from .diagnostics import dominance_design, dominance_threshold, verify_assumption7
from .errors import LagoError, _check_count, config_errors
from .model import (FittedModel, _assumed, _from_fields, _json_value, _value_eq, expit,
                    load_stage_csv, predict)
from .optimizer import (
    GoalSpec,
    _state_summary,
    integerize,
    plan_stage1,
    recommend_from_summary,
    recommend_stage_k,
)
from .power import (
    ArmSummary,
    TEST_KINDS,
    TestSelector,
    _check_summary,
    _default_test,
    conditional_constraint_slack,
    unconditional_lambda,
    unconditional_power,
)
from .sim import (
    BETTERBIRTH_BOUNDS,
    BETTERBIRTH_COST,
    SHIPPED_SCENARIOS,
    ScenarioSpec,
    _OUTCOME_KINDS,
    _trial_config,
    betterbirth_model,
    betterbirth_summary,
    null_variant,
    run_scenario,
)
from .trial import (
    TrialConfig,
    final_optimal,
    final_test,
    ingest_stage,
    load_state,
    new_trial,
    refit,
)

FIXTURES = tuple(f"scenario_{k}" for k in SHIPPED_SCENARIOS) + ("betterbirth",)
GOAL_FLAGS = ("goal", "direction", "power_goal", "alpha", "approach", "test")


# ---------------------------------------------------------------------------
# small plumbing
# ---------------------------------------------------------------------------

def _bundled(name: str) -> dict:
    """The document a bundled fixture name stands for, built from the library."""
    if name == "betterbirth":
        return _json_value(CoefficientFixture(
            betterbirth_model("stages12").beta, name="betterbirth", direction="decrease",
            cost=BETTERBIRTH_COST, bounds=BETTERBIRTH_BOUNDS, arm_summary=betterbirth_summary(),
        ))
    return SHIPPED_SCENARIOS[name.removeprefix("scenario_")]().to_config()


def _read_json(source: str) -> dict:
    """Load a JSON file; bare bundled-fixture names resolve to the library."""
    if source in FIXTURES:
        return _bundled(source)
    with open(source) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: not valid JSON ({exc})") from None


def _floats(text: str, what: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise ValueError(f"{what} must be comma-separated finite numbers, got {text!r}")


def _unit_interval(text: str) -> float:
    """argparse type for a level or probability strictly inside (0, 1)."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be strictly inside (0, 1), got {text}")
    return value


def _emit(payload, out: str | None) -> None:
    text = json.dumps(_json_value(payload), indent=2, allow_nan=False) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _any_goal_flag(args) -> bool:
    return any(getattr(args, f, None) is not None for f in GOAL_FLAGS)


def _goals_from_flags(args, base_fields: dict, outcome_kind: str) -> GoalSpec:
    """Goal spec from CLI flags over ``base_fields`` (GoalSpec keywords).

    A flag that is absent keeps the base value; GoalSpec defaults fill the
    rest.  A power goal without a test gets the outcome kind's default test.
    """
    fields = dict(base_fields)
    flags = {
        "outcome_goal": args.goal,
        "direction": args.direction,
        "power_goal": args.power_goal,
        "alpha": args.alpha,
        "approach": args.approach,
        "test": TestSelector(args.test) if args.test is not None else None,
    }
    fields.update((name, value) for name, value in flags.items() if value is not None)
    if fields.get("outcome_goal") is None and fields.get("power_goal") is None:
        raise ValueError("an outcome or power goal is required (--goal/--power-goal)")
    if fields.get("power_goal") is not None and fields.get("test") is None:
        fields["test"] = _default_test(outcome_kind)
    return GoalSpec(**fields)


def _add_goal_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--goal", type=float, help="outcome goal level")
    p.add_argument(
        "--direction", choices=("increase", "decrease"),
        help="whether higher or lower outcome levels are better",
    )
    p.add_argument("--power-goal", type=_unit_interval, help="required final-test power")
    p.add_argument("--alpha", type=_unit_interval, help="test level (default 0.05)")
    p.add_argument(
        "--approach", choices=("unconditional", "conditional"),
        help="power certificate (default unconditional)",
    )
    p.add_argument("--test", choices=list(TEST_KINDS),
                   help="final-analysis test kind")


def _load_trial_state(args):
    """Trial state from --trial (saved state) or --config + --data (CSV)."""
    if getattr(args, "trial", None):
        return load_state(args.trial)
    if getattr(args, "config", None) and getattr(args, "data", None):
        config = TrialConfig.from_config(_read_json(args.config))
        state = new_trial(config)
        for record in load_stage_csv(args.data):
            state = ingest_stage(state, record)
        return state
    raise ValueError("need either --trial, or --config together with --data")


def _truncate_state(state, k: int):
    """The trial as it looked before stage ``k`` was run."""
    kept = [rec for rec in state.completed if rec.stage_index < k]
    if len(kept) != k - 1:
        raise ValueError(f"planning stage {k} needs completed stages 1..{k - 1}")
    out = new_trial(state.config)
    for rec in kept:
        out = ingest_stage(out, rec)
    return out


_FIXTURE_KINDS = ("assumed", *_OUTCOME_KINDS)  # FittedModel.kind


@dataclasses.dataclass
class CoefficientFixture:
    """Coefficient fixture JSON: a model's ``beta`` (intercept first), ``link``
    and ``covariance`` (zeros when absent), and the subcommand's defaults for
    goal ``direction``, ``cost``, ``bounds`` and the power goal's arm totals."""

    beta: np.ndarray
    link: str = "logit"
    covariance: np.ndarray | None = None
    n_used: int = 0
    kind: str = "assumed"
    name: str | None = None
    direction: str = "increase"
    cost: CostFunction | None = None
    bounds: tuple | None = None
    arm_summary: ArmSummary | None = None

    __eq__ = _value_eq

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.ndim != 1 or self.beta.size < 2:
            raise ValueError("coefficient vector needs intercept plus effects")
        size = self.beta.size
        cov = np.zeros((size, size)) if self.covariance is None else self.covariance
        self.covariance = np.asarray(cov, dtype=float)
        if self.covariance.shape != (size, size):
            raise ValueError("covariance shape does not match beta")
        if not (np.isfinite(self.beta).all() and np.isfinite(self.covariance).all()):
            raise ValueError("beta and covariance entries must be finite")
        _check_count("n_used", self.n_used, 0)
        if self.kind not in _FIXTURE_KINDS:
            raise ValueError(f"kind must be one of {', '.join(_FIXTURE_KINDS)}: {self.kind!r}")
        if self.arm_summary is not None:
            _check_summary(self.arm_summary)

    @property
    def model(self) -> FittedModel:
        return FittedModel(self.beta, self.link, self.covariance, self.n_used, self.kind)

    @classmethod
    def from_config(cls, doc: dict) -> "CoefficientFixture":
        with config_errors("coefficient fixture"):
            return _from_fields(cls, doc, cost=CostFunction.from_config,
                                bounds=lambda b: tuple(map(tuple, b)), arm_summary=_arm_summary)


def _arm_summary(entry) -> ArmSummary:
    with config_errors("arm_summary"):
        return _from_fields(ArmSummary, entry)


def _fixture(args) -> CoefficientFixture:
    """The ``--coefficients`` or ``--beta`` fixture, with ``--config``'s cost and bounds."""
    if args.coefficients:
        fixture = CoefficientFixture.from_config(_read_json(args.coefficients))
    elif getattr(args, "beta", None):
        fixture = CoefficientFixture(_floats(args.beta, "--beta"))
    else:
        raise ValueError("need --beta or --coefficients")
    if args.config:
        cfg = _read_json(args.config)
        cost = CostFunction.from_config(cfg["cost"]) if "cost" in cfg else None
        fixture = dataclasses.replace(fixture, cost=cost, bounds=cfg.get("bounds"))
    if fixture.cost is None or fixture.bounds is None:
        raise ValueError("no cost/bounds available; pass --config or use a "
                         "fixture that carries them")
    return fixture


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_recommend(args) -> int:
    if args.coefficients:
        for flag in ("trial", "data", "stage"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--coefficients takes no --{flag}: it recommends from the fixture")
        fixture = _fixture(args)
        model, cost, bounds = fixture.model, fixture.cost, fixture.bounds
        goals = _goals_from_flags(args, {"direction": fixture.direction}, "binary")
        rec = recommend_from_summary(model, fixture.arm_summary, goals, cost, bounds)
    else:
        state = _load_trial_state(args)
        if args.stage is not None:
            state = _truncate_state(state, args.stage)
        cost, bounds = state.config.cost, state.config.bounds
        model = refit(state)
        if state.status == "complete" and not _any_goal_flag(args):
            rec = final_optimal(state)
            goals = state.config.goals
        else:
            goals = _goals_from_flags(args, vars(state.config.goals),
                                      state.config.outcome_kind)
            rec = recommend_stage_k(model, state, goals, k=args.stage)
    extra = {}
    if args.integerize:
        extra["x_integer"] = integerize(
            rec.x_hat, model, cost, bounds, rec.required_threshold, goals.direction
        )
    _emit({**_json_value(rec), **extra}, args.out)
    return 0


def _cmd_simulate(args) -> int:
    if args.scenario:
        builder = SHIPPED_SCENARIOS[args.scenario]
        reps = args.reps if args.reps is not None else 2000
        spec = builder(n_per_center=args.n, replicates=reps)
    else:
        spec = ScenarioSpec.from_config(_read_json(args.config))
        if args.reps is not None and args.reps != spec.replicates:
            spec = dataclasses.replace(spec, replicates=args.reps)
    if _any_goal_flag(args):
        spec = dataclasses.replace(
            spec, goals=_goals_from_flags(args, vars(spec.goals), spec.outcome_kind)
        )
    if args.null:
        spec = null_variant(spec)
    seed = args.seed if args.seed is not None else spec.rng_seed
    if seed is None:
        raise ValueError("simulate needs --seed (wall-clock seeding is not allowed)")
    spec = dataclasses.replace(spec, rng_seed=seed)

    if args.emit_config is not None:
        _trial_config(spec)  # the run's config: refuse what the run would refuse
        _emit(spec.to_config(), args.emit_config)
        return 0

    report = run_scenario(spec, threads=args.threads)
    if args.format == "json":
        _emit(report.to_dict(), args.out)
    else:
        fh = sys.stdout if args.out in (None, "-") else open(args.out, "w", newline="")
        try:
            writer = csv.writer(fh)
            writer.writerow(report.csv_header())
            writer.writerow(report.csv_row())
        finally:
            if fh is not sys.stdout:
                fh.close()
    return 0


def _cmd_power(args) -> int:
    state = _load_trial_state(args)
    model = refit(state)
    goals = state.config.goals
    test = TestSelector(args.test) if args.test else (
        goals.test or _default_test(state.config.outcome_kind))
    alpha = args.alpha if args.alpha is not None else goals.alpha
    x = np.asarray(_floats(args.x, "--x"), dtype=float)
    if x.size != state.config.n_components:
        raise ValueError(
            f"--x has {x.size} components, the trial is configured "
            f"for {state.config.n_components}"
        )
    summary = _state_summary(state, test, len(state.completed) + 1)
    payload = {
        "x": x,
        "test": test.kind,
        "alpha": alpha,
        "predicted_level": predict(model, x),
        "unconditional_lambda": unconditional_lambda(x, model, summary, test),
        "unconditional_power": unconditional_power(x, model, summary, test, alpha),
    }
    if args.pi is not None:
        if test.wald:
            raise ValueError("conditional slack is defined for 1-df tests only")
        payload["pi"] = args.pi
        payload["conditional_slack"] = conditional_constraint_slack(
            x, model, summary, test, alpha, args.pi, direction=goals.direction
        )
    _emit(payload, args.out)
    return 0


def _cmd_plan_stage1(args) -> int:
    fixture = _fixture(args)
    if fixture.link != "logit":
        raise ValueError(f"plan-stage1 plans a logistic model, not link {fixture.link!r}")
    beta, cost, bounds = fixture.beta, fixture.cost, fixture.bounds
    goals = _goals_from_flags(args, {"direction": fixture.direction}, "binary")

    if args.sizes:
        pairs = []
        for chunk in args.sizes.split(";"):
            pair = _floats(chunk, "--sizes")
            if len(pair) != 2:
                raise ValueError("--sizes wants 'n1,n0' pairs separated by ';'")
            pairs.append(tuple(pair))
    elif getattr(args, "config", None):
        cfg = _read_json(args.config)
        if "stages" not in cfg:
            raise ValueError("config has no stages; pass --sizes")
        pairs = [(s["n_intervention"], s["n_control"]) for s in cfg["stages"]]
    else:
        raise ValueError("need planned arm sizes: --sizes or a config with stages")

    rec = plan_stage1(beta, goals, cost, bounds, pairs)
    extra = {}
    if args.integerize:
        extra["x_integer"] = integerize(
            rec.x_hat, _assumed(beta), cost, bounds, rec.required_threshold, goals.direction
        )
    _emit({**_json_value(rec), **extra}, args.out)
    return 0


def _cmd_dominance(args) -> int:
    beta = _floats(args.beta, "--beta")
    design = dominance_design(args.n_per_center)
    alpha = args.alpha if args.alpha is not None else 0.05
    level = dominance_threshold(
        design, beta,
        alpha=alpha,
        pi=args.pi,
        approach=args.approach or "unconditional",
        test=TestSelector(args.test or "z_unpooled"),
    )
    control = expit(beta[0])
    _emit(
        {
            "threshold_level": level,
            "control_level": control,
            "pct_above_control": 100.0 * (level - control) / control,
            "pi": args.pi,
            "alpha": alpha,
            "approach": args.approach or "unconditional",
            "n_per_center": args.n_per_center,
        },
        args.out,
    )
    return 0


def _cmd_verify(args) -> int:
    fixture = _fixture(args)
    report = verify_assumption7(
        fixture.model, fixture.cost, fixture.bounds,
        goal=args.goal,
        epsilon=args.epsilon,
        L=args.samples,
        eta=args.eta,
        extended=args.extended,
        M=args.grid_points,
        seed=args.seed,
        direction=args.direction or fixture.direction,
    )
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_final_test(args) -> int:
    state = _load_trial_state(args)
    test = TestSelector(args.test) if args.test else None
    result = final_test(
        state, test=test, alpha=args.alpha if args.alpha is not None else 0.05
    )
    _emit(result, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lago",
        description="Learn-As-you-GO adaptive-trial engine.",
        epilog="Exit codes: 0 success, 2 validation error, 3 numerical failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="output file ('-' or omitted: stdout)")

    p = sub.add_parser(
        "recommend",
        help="next-stage package from staged data or published coefficients",
        description="Cost-minimal package meeting the goals, from either a "
        "trial (--trial, or --config with --data CSV) or a coefficient "
        "fixture (--coefficients, e.g. the bundled 'betterbirth').  On a "
        "complete trial without goal overrides this is the final optimal "
        "package (outcome goal only).",
    )
    p.add_argument("--trial", help="saved trial-state JSON")
    p.add_argument("--config", help="trial config JSON")
    p.add_argument("--data", help="stage data CSV (stage,center,arm,x_1..x_P,y)")
    p.add_argument("--coefficients", help="coefficient fixture JSON or bundled name")
    p.add_argument("--stage", type=int,
                   help="plan this stage from the stages before it")
    p.add_argument("--integerize", action="store_true",
                   help="also report the best whole-unit package")
    _add_goal_flags(p)
    add_out(p)
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser(
        "simulate",
        help="Monte Carlo operating characteristics of a scenario",
        description="Run a bundled scenario (--scenario 1a/1b/2a/2b) or a "
        "scenario config JSON; emits one CSV header+row (or JSON).  Goal "
        "flags override the scenario's goals (e.g. --power-goal 0.8 "
        "--approach conditional).",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", choices=sorted(SHIPPED_SCENARIOS))
    group.add_argument("--config", help="scenario config JSON or bundled name")
    p.add_argument("--n", type=int, default=40,
                   help="observations per center (bundled scenarios)")
    p.add_argument("--reps", type=int, help="Monte Carlo replicates (default 2000)")
    p.add_argument("--seed", type=int, help="RNG seed (required unless the "
                   "config carries one)")
    p.add_argument("--null", action="store_true",
                   help="zero all intervention effects (size check)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes, at most the CPU count (default 1)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--emit-config", metavar="FILE",
                   help="write the resolved scenario config and exit")
    _add_goal_flags(p)
    add_out(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "power",
        help="projected power quantities for a candidate package",
        description="Unconditional noncentrality/power at a package, plus the "
        "conditional-certificate slack when --pi is given (slack <= 0 means "
        "the conditional goal is met).",
    )
    p.add_argument("--trial", help="saved trial-state JSON")
    p.add_argument("--config", help="trial config JSON")
    p.add_argument("--data", help="stage data CSV")
    p.add_argument("--x", required=True, help="candidate package, e.g. '21.2,1'")
    p.add_argument("--test", choices=list(TEST_KINDS))
    p.add_argument("--alpha", type=_unit_interval)
    p.add_argument("--pi", type=_unit_interval, help="power goal for the conditional slack")
    add_out(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser(
        "plan-stage1",
        help="pre-trial package from assumed coefficients",
        description="Stage-1 package before any data: assumed coefficients "
        "(--beta or --coefficients), cost/bounds from --config or the "
        "fixture, planned arm sizes from --sizes 'n1,n0[;n1,n0...]' or the "
        "config stages.",
    )
    p.add_argument("--beta", help="assumed coefficients, intercept first")
    p.add_argument("--coefficients", help="coefficient fixture JSON or bundled name")
    p.add_argument("--config", help="trial config JSON (cost, bounds, stages)")
    p.add_argument("--sizes", help="planned 'n1,n0' per stage, ';'-separated")
    p.add_argument("--integerize", action="store_true")
    _add_goal_flags(p)
    add_out(p)
    p.set_defaults(func=_cmd_plan_stage1)

    p = sub.add_parser(
        "dominance-threshold",
        help="outcome level above which a power goal becomes redundant",
        description="Expectation-level threshold for the bundled two-stage "
        "planning layout; reported absolutely and relative to control.",
    )
    p.add_argument("--beta", required=True, help="assumed coefficients")
    p.add_argument("--n-per-center", type=int, default=40)
    p.add_argument("--pi", type=_unit_interval, default=0.8)
    p.add_argument("--alpha", type=_unit_interval)
    p.add_argument("--approach", choices=("unconditional", "conditional"))
    p.add_argument("--test", choices=("z_unpooled", "z_pooled"))
    add_out(p)
    p.set_defaults(func=_cmd_dominance)

    p = sub.add_parser(
        "verify-assumption7",
        help="stability probe of the recommendation under coefficient noise",
        description="Solve the cost minimization at perturbed coefficients "
        "inside an l2 ball and report the worst solution displacement "
        "against --eta.",
    )
    p.add_argument("--beta", help="coefficients, intercept first")
    p.add_argument("--coefficients", help="coefficient fixture JSON or bundled name")
    p.add_argument("--config", help="config JSON supplying cost/bounds")
    p.add_argument("--goal", type=float, required=True, help="outcome goal level")
    p.add_argument("--epsilon", type=float, required=True, help="ball radius")
    p.add_argument("--samples", type=int, default=200, help="draws per center")
    p.add_argument("--eta", type=float, default=0.5, help="pass tolerance")
    p.add_argument("--extended", action="store_true",
                   help="repeat around confidence-band centers (needs a "
                   "coefficient covariance)")
    p.add_argument("--grid-points", type=int, default=5,
                   help="confidence-band centers in extended mode")
    p.add_argument("--seed", type=int)
    p.add_argument("--direction", choices=("increase", "decrease"))
    add_out(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "final-test",
        help="final-analysis test on a completed trial",
        description="Pooled-arm test over all completed stages; the trial "
        "must have finished every planned stage.",
    )
    p.add_argument("--trial", help="saved trial-state JSON")
    p.add_argument("--config", help="trial config JSON")
    p.add_argument("--data", help="stage data CSV")
    p.add_argument("--test", choices=list(TEST_KINDS))
    p.add_argument("--alpha", type=_unit_interval)
    add_out(p)
    p.set_defaults(func=_cmd_final_test)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except LagoError as exc:
        print(f"lago: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"lago: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Record the golden reports that ``tests/test_golden.py`` holds the package to.

Run from the repository root:

    python3 tests/golden/record.py

It rewrites ``tests/golden/reports.json``: one entry per case of ``CASES``
(``run_scenario`` reports, the BetterBirth recommendations, stability
probes of seeded P = 3..6 problems and the JSON stdout of four CLI calls),
each the case's output as JSON, plus the numpy version and
``platform.machine()`` of the recording platform.  JSON writes every float
with ``repr``, which reads back to the same double, so the file holds every
reported number exactly.  A change that moves a reported number reruns this
script; the JSON diff then names every moved number.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PATH = HERE / "reports.json"
sys.path.insert(0, str(HERE.parents[1] / "src"))

import lago  # noqa: E402
from lago import cli, sim  # noqa: E402

SEED = 9


def _goals(approach=None, test=None, **kw):
    if approach is not None:
        kw.update(power_goal=0.8, approach=approach, test=lago.TestSelector(test))
    return lago.GoalSpec(**{"outcome_goal": 0.7, **kw})


def _decrease(true_beta, approach):
    spec = sim.scenario_1a(replicates=300, goals=_goals(
        approach, "z_unpooled", outcome_goal=0.35, direction="decrease"))
    return dataclasses.replace(spec, true_beta=true_beta)


def _continuous(approach, test, replicates):
    spec = sim.scenario_1a(n_per_center=200, replicates=replicates, goals=_goals(approach, test))
    return dataclasses.replace(spec, outcome_kind="continuous", outcome_link="identity",
                               outcome_sigma=8.0)


def _three_stage():
    spec = sim.scenario_1a(replicates=300, goals=_goals("conditional", "z_pooled"))
    first = dataclasses.replace(spec.stages[0], n_per_center=27)
    return dataclasses.replace(
        spec, stages=(first, sim.StagePlan(1, 3, 27), sim.StagePlan(1, 3, 26)))


# name: the scenario spec of a ``run_scenario`` case
SCENARIOS = {
    "1a-outcome": lambda: sim.scenario_1a(replicates=300, goals=_goals()),
    "1a-conditional": lambda: sim.scenario_1a(
        replicates=300, goals=_goals("conditional", "z_unpooled")),
    "1a-unconditional-z": lambda: sim.scenario_1a(
        replicates=300, goals=_goals("unconditional", "z_unpooled")),
    "1a-unconditional-z-pooled": lambda: sim.scenario_1a(
        replicates=300, goals=_goals("unconditional", "z_pooled")),
    "1a-wald": lambda: sim.scenario_1a(
        replicates=60, goals=_goals("unconditional", "wald_pdf_binary")),
    "1a-decrease-unconditional": lambda: _decrease((-0.1, -0.3, -0.15), "unconditional"),
    "1a-decrease-conditional": lambda: _decrease((0.1, -0.3, -0.15), "conditional"),
    "1b": lambda: sim.scenario_1b(replicates=300),
    "2a": lambda: sim.scenario_2a(replicates=300),
    "2b": lambda: sim.scenario_2b(replicates=300),
    "continuous-1a-t": lambda: _continuous("conditional", "t_unpooled", 100),
    "continuous-1a-t-pooled-unconditional": lambda: _continuous("unconditional", "t_pooled", 60),
    "1a-null": lambda: sim.null_variant(sim.scenario_1a(replicates=300)),
    "1a-three-stage": _three_stage,
}


def run_case(name: str, threads: int = 1):
    """The JSON form of case ``name``'s output."""
    if name in OTHERS:
        return OTHERS[name]()
    return plain(sim.run_scenario(SCENARIOS[name](), seed=SEED, threads=threads).to_dict())


def _betterbirth() -> dict:
    """The BetterBirth stages-1-2 decrease recommendations: outcome goal 0.1
    alone, and with an unconditional or conditional power goal of 0.8, each
    with its whole-unit package; and the best level inside the bounds."""
    model, layout = sim.betterbirth_model("stages12"), sim.betterbirth_summary()
    cost, bounds = sim.BETTERBIRTH_COST, sim.BETTERBIRTH_BOUNDS
    out = {"p_max": lago.p_max(model, bounds, "decrease")}
    for label, approach in (("outcome", None), ("unconditional", "unconditional"),
                            ("conditional", "conditional")):
        goals = _goals(approach, "z_unpooled", outcome_goal=0.1, direction="decrease")
        rec = lago.recommend_from_summary(model, layout, goals, cost, bounds)
        out[label] = {
            **{f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)},
            "integerize": lago.integerize(
                rec.x_hat, model, cost, bounds, rec.required_threshold, goals.direction),
        }
    return plain(out)


PROBE_KINDS = ("cubic", "mixed", "quartic")


def _probe_problem(P: int, kind: str = "cubic"):
    """A seeded separable cost on P components and a logit goal 40-60% of
    the way from the control level to the best level in the bounds.  Each
    component is the cubic c1 x + c2 x^2 + c3 x^3, increasing on the whole
    line; in a ``mixed`` problem the third component is linear and the
    fourth quadratic, and in a ``quartic`` one the first adds c4 x^4 with
    c4 > 0, so it still increases on its box [0, upper]."""
    rng = np.random.default_rng([SEED, P, PROBE_KINDS.index(kind)])
    mixed = kind == "mixed"
    upper = rng.uniform(2.0, 8.0, P)
    terms = []
    for p in range(P):
        c1 = rng.uniform(1.0, 10.0)
        c3 = rng.uniform(0.05, 2.0) / upper[p]
        c2 = -rng.uniform(0.2, 0.9) * math.sqrt(3.0 * c1 * c3)
        degrees = {2: 1, 3: 2}.get(p, 3) if mixed else 3
        if degrees == 2:
            c2 = -c2  # convex
        terms += [(p, d, float(c)) for d, c in ((1, c1), (2, c2), (3, c3)) if d <= degrees]
        if kind == "quartic" and p == 0:
            terms.append((p, 4, float(rng.uniform(0.05, 1.0) / upper[p] ** 2)))
    beta = np.concatenate(([math.log(0.3 / 0.7)], rng.uniform(0.5, 1.5, P) / upper))
    eta_max = beta[0] + float(np.sum(beta[1:] * upper))
    eta_goal = beta[0] + rng.uniform(0.4, 0.6) * (eta_max - beta[0])
    bounds = tuple((0.0, float(u)) for u in upper)
    return beta, lago.CostFunction(tuple(terms)), bounds, 1.0 / (1.0 + math.exp(-eta_goal))


def _probe(P: int, kind: str = "cubic") -> dict:
    """``verify_assumption7`` on ``_probe_problem(P, kind)``: 20 samples in
    the 0.05 ball."""
    beta, cost, bounds, goal = _probe_problem(P, kind)
    return plain(lago.verify_assumption7(beta, cost, bounds, goal, epsilon=0.05, L=20,
                                         seed=SEED).to_dict())


def _cli(*argv) -> dict:
    """The stdout of ``lago *argv``, a JSON document, read back."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"lago {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


# name: a case whose output is not a ``run_scenario`` report
OTHERS = {
    "betterbirth": _betterbirth,
    **{f"probe-P{P}": (lambda P=P: _probe(P)) for P in (3, 4, 5, 6)},
    "probe-mixed-degree": lambda: _probe(4, "mixed"),
    "probe-quartic": lambda: _probe(4, "quartic"),
    "cli-recommend-betterbirth": lambda: _cli(
        "recommend", "--coefficients", "betterbirth", "--goal", "0.1"),
    "cli-verify-assumption7-betterbirth": lambda: _cli(
        "verify-assumption7", "--coefficients", "betterbirth", "--goal", "0.1",
        "--epsilon", "0.05", "--seed", "7"),
    "cli-plan-stage1-betterbirth": lambda: _cli(
        "plan-stage1", "--coefficients", "betterbirth", "--goal", "0.1", "--power-goal", "0.8",
        "--test", "z_unpooled", "--sizes", "425,424", "--integerize"),
    "cli-dominance-threshold": lambda: _cli(
        "dominance-threshold", "--beta", "0.1,0.3,0.15", "--n-per-center", "40", "--pi", "0.8"),
}

CASES = (*SCENARIOS, *OTHERS)


def plain(obj):
    """``obj`` with plain Python types only: lists for tuples and arrays,
    float for numpy floats, int for numpy integers."""
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def platform_tag() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def record() -> dict:
    return {"platform": platform_tag(), "seed": SEED,
            "cases": {name: run_case(name) for name in CASES}}


def main() -> None:
    doc = record()
    PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['cases'])} cases to {PATH}")


if __name__ == "__main__":
    main()

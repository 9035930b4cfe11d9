"""Workload definitions: seeded inputs, one batch of work, output checks.

A workload runs in batches.  Batch ``b`` of a run with seed ``s`` has its
inputs derived from ``(s, b)`` alone, so the same seed always gives the
same inputs.  Every workload is a closed loop with one client: the next
batch starts when the previous one has returned.

* ``mc-*`` batches are one ``run_scenario`` call of ``batch`` replicates
  (an operation is one replicate).
* ``probe`` batches are one ``verify_assumption7`` call of ``PROBE_SAMPLES``
  perturbed re-solves (an operation is one re-solve), cycling the
  component count P = 3, 4, 5, 6 from batch to batch.

The ``lago`` package is passed in rather than imported here, because the
set-up phase re-imports it several times to time the import.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# Inputs of the reference batch, compared against reference.json in every run.
REFERENCE_SEED = 0
# Inputs of the warm-up work in the set-up phase (never timed).
WARM_UP_SEED = 1_000_003

# Float tolerance of the reference comparison (integers and strings must
# match exactly).  Loose enough for a reordered sum, tight enough that a
# changed decision, regime or reject flag shows.
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9

# A solved package meets its goal when its linear predictor is at most this
# far below the goal's.
GOAL_ETA_TOL = 1e-7

MC_WORKLOADS = {
    # name: (outcome kind, n per center, power approach, final test, replicates per batch)
    "mc-uncond": ("binary", 40, "unconditional", "z_unpooled", 10),
    "mc-cond": ("binary", 40, "conditional", "z_unpooled", 50),
    "mc-cont": ("continuous", 2000, "conditional", "t_unpooled", 30),
}

PROBE_SIZES = (3, 4, 5, 6)
PROBE_SAMPLES = 2
PROBE_EPSILON = 0.05

WORKLOADS = tuple(MC_WORKLOADS) + ("probe",)


def batch_seed(seed: int, batch: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(batch)]).generate_state(1)[0])


def canonical(obj):
    """JSON-ready copy with plain Python types (tuples and arrays become lists)."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def compare(expected, got, path="report") -> list:
    """Differences between a recorded report and a new one, as messages."""
    if isinstance(expected, dict) and isinstance(got, dict):
        if set(expected) != set(got):
            return [f"{path}: keys {sorted(expected)} != {sorted(got)}"]
        out = []
        for k in expected:
            out += compare(expected[k], got[k], f"{path}.{k}")
        return out
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{path}: length {len(expected)} != {len(got)}"]
        out = []
        for i, (e, g) in enumerate(zip(expected, got)):
            out += compare(e, g, f"{path}[{i}]")
        return out
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (expected, got))
    if numbers and (isinstance(expected, float) or isinstance(got, float)):
        e, g = float(expected), float(got)
        if (math.isnan(e) and math.isnan(g)) or math.isclose(
            e, g, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL
        ):
            return []
        return [f"{path}: {e!r} != {g!r} (rtol {FLOAT_RTOL}, atol {FLOAT_ATOL})"]
    return [] if expected == got else [f"{path}: {expected!r} != {got!r}"]


def inside(x, bounds, tol=1e-9) -> bool:
    return all(lo - tol <= float(v) <= hi + tol for v, (lo, hi) in zip(x, bounds))


# ---------------------------------------------------------------------------
# Monte Carlo workloads


class MonteCarlo:
    """Replicate trials of scenario 1a (or its continuous variant)."""

    cycle = 1
    top_span = "sim.run_scenario"

    def __init__(self, lago, name: str):
        kind, n_per_center, approach, test, replicates = MC_WORKLOADS[name]
        self.lago = lago
        self.name = name
        goals = lago.GoalSpec(
            outcome_goal=0.7,
            power_goal=0.8,
            approach=approach,
            test=lago.TestSelector(test),
        )
        spec = lago.scenario_1a(n_per_center=n_per_center, replicates=replicates, goals=goals)
        spec = dataclasses.replace(spec, name=name)
        if kind == "continuous":
            spec = dataclasses.replace(
                spec, outcome_kind="continuous", outcome_link="identity", outcome_sigma=8.0
            )
        self.spec = spec
        self.bounds = spec.bounds

    def inputs(self, seed: int, batch: int):
        return batch_seed(seed, batch)

    def ops(self, inputs) -> int:
        return self.spec.replicates

    def run(self, inputs):
        return self.lago.sim.run_scenario(self.spec, seed=inputs, threads=1)

    def warm_up(self):
        self.lago.sim.run_scenario(
            dataclasses.replace(self.spec, replicates=2), seed=batch_seed(WARM_UP_SEED, 0), threads=1
        )

    def report(self, result) -> dict:
        return canonical(result.to_dict())

    def check(self, inputs, result):
        """(failed replicates, problems found) for one batch."""
        r = result
        problems = []
        if r.replicates != self.spec.replicates:
            problems.append(f"replicates {r.replicates} != {self.spec.replicates}")
        if r.n_used + r.failures != self.spec.replicates:
            problems.append(f"n_used {r.n_used} + failures {r.failures} != {self.spec.replicates}")
        if sum(r.failure_kinds.values()) != r.failures:
            problems.append(f"failure kinds {r.failure_kinds} do not sum to {r.failures}")
        if r.n_used and not 0.0 <= r.power_pct <= 100.0:
            problems.append(f"power_pct {r.power_pct} outside [0, 100]")
        for label, x in (("mean_recommendation", r.mean_recommendation),
                         ("true_optimum", r.true_optimum)):
            if x is not None and not inside(x, self.bounds):
                problems.append(f"{label} {list(x)} outside the bounds {self.bounds}")
        for q in (r.propt_q2p5, r.propt_q97p5):
            if self.spec.outcome_kind == "binary" and q is not None and not 0.0 <= q <= 1.0:
                problems.append(f"success-probability quantile {q} outside [0, 1]")
        return r.failures, problems

    def failure_kinds(self, result) -> dict:
        return dict(result.failure_kinds)


# ---------------------------------------------------------------------------
# stability probe


def probe_problem(seed: int, batch: int, P: int):
    """Seeded separable cubic-cost problem with P components.

    Every component cost c1 x + c2 x^2 + c3 x^3 is increasing on the whole
    line (c2^2 < 3 c1 c3), so each problem has the same structure and its
    solve time depends little on the seed.  The goal sits 40-60% of the way
    from the control level to the best level attainable in the bounds, far
    enough from both ends that every draw of the epsilon-ball stays solvable.
    """
    rng = np.random.default_rng([int(seed), int(batch), int(P)])
    upper = rng.uniform(2.0, 8.0, P)
    terms = []
    for p in range(P):
        c1 = rng.uniform(1.0, 10.0)
        c3 = rng.uniform(0.05, 2.0) / upper[p]
        c2 = -rng.uniform(0.2, 0.9) * math.sqrt(3.0 * c1 * c3)
        terms += [(p, 1, float(c1)), (p, 2, float(c2)), (p, 3, float(c3))]
    beta = np.concatenate(([math.log(0.3 / 0.7)], rng.uniform(0.5, 1.5, P) / upper))
    eta_max = beta[0] + float(np.sum(beta[1:] * upper))
    eta_goal = beta[0] + rng.uniform(0.4, 0.6) * (eta_max - beta[0])
    return {
        "beta": beta,
        "cost_terms": tuple(terms),
        "bounds": tuple((0.0, float(u)) for u in upper),
        "goal": 1.0 / (1.0 + math.exp(-eta_goal)),
        "sample_seed": int(rng.integers(2**31)),
    }


def meets_goal(beta, x, goal) -> bool:
    """Logit-link check that package x reaches ``goal`` under coefficients beta."""
    beta = np.asarray(beta, dtype=float)
    eta = beta[0] + float(beta[1:] @ np.asarray(x, dtype=float))
    return eta >= math.log(goal / (1.0 - goal)) - GOAL_ETA_TOL


class Probe:
    """``verify_assumption7`` on cubic-cost problems, cycling P = 3, 4, 5, 6.

    Batch ``b`` is one call on a fresh problem with P = PROBE_SIZES[b % 4];
    runs stop only after whole cycles, so every P gets the same samples.
    """

    name = "probe"
    cycle = len(PROBE_SIZES)
    top_span = "diagnostics.verify"

    def __init__(self, lago):
        self.lago = lago

    def inputs(self, seed: int, batch: int):
        return probe_problem(seed, batch, PROBE_SIZES[batch % self.cycle])

    def ops(self, inputs) -> int:
        return PROBE_SAMPLES

    def run(self, inputs, samples=PROBE_SAMPLES):
        return self.lago.diagnostics.verify_assumption7(
            inputs["beta"],
            self.lago.CostFunction(inputs["cost_terms"]),
            inputs["bounds"],
            inputs["goal"],
            epsilon=PROBE_EPSILON,
            L=samples,
            seed=inputs["sample_seed"],
        )

    def warm_up(self):
        self.run(probe_problem(WARM_UP_SEED, 0, PROBE_SIZES[0]), samples=1)

    def report(self, result) -> dict:
        return canonical(result.to_dict())

    def check(self, inputs, result):
        """(unsolved samples, problems found) for one call."""
        rep = result
        P = len(inputs["bounds"])
        problems = []
        if rep.samples_per_center != PROBE_SAMPLES or len(rep.centers) != 1:
            problems.append(f"P={P}: report covers {len(rep.centers)} centers "
                            f"of {rep.samples_per_center} samples")
        solved = [("x_hat", inputs["beta"], rep.x_hat)]
        solved += [("center", c["beta"], c["x"]) for c in rep.centers if c["x"] is not None]
        for label, beta, x in solved:
            if not inside(x, inputs["bounds"]):
                problems.append(f"P={P}: {label} {list(x)} outside the bounds")
            elif not meets_goal(beta, x, inputs["goal"]):
                problems.append(f"P={P}: {label} {list(x)} misses the goal {inputs['goal']}")
        if not (math.isfinite(rep.delta_max) and rep.delta_max >= 0.0):
            problems.append(f"P={P}: delta_max {rep.delta_max}")
        return self.unsolved(result), problems

    def unsolved(self, result) -> int:
        return sum(1 for f in result.failures if f["sample"] is not None)

    def failure_kinds(self, result) -> dict:
        kinds: dict = {}
        for f in result.failures:
            kinds[f["error"]] = kinds.get(f["error"], 0) + 1
        return kinds


def make(lago, name: str):
    if name in MC_WORKLOADS:
        return MonteCarlo(lago, name)
    if name == Probe.name:
        return Probe(lago)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

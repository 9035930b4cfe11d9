"""Differential tests for the batched two-component min-cost kernel.

``optimizer._min_cost_lanes`` solves the common P = 2 case for every lane of
a call with numpy array arithmetic and sends every other lane through
``_min_cost_eta``, the solver of one problem, which is the oracle here: each
lane's package must equal its package bitwise, and a lane that fails must
raise the same error type and message.  ``test_fixing_lanes.py`` holds
``_min_cost_eta``'s own array enumeration of three to six components to the
scalar loop it replaced, and each scalar kernel under it (``_horner``,
``_segment_coeffs``, ``_argmin_on`` and the rest) to one oracle.
"""

import dataclasses

import numpy as np
import pytest

import lago
from lago import optimizer, sim
from lago.cost import CostFunction
from lago.errors import InfeasibleError, LagoError, NonFiniteError
from lago.optimizer import _min_cost_eta, _min_cost_lanes

CUBIC = sim.COST_1A
LO, HI = np.array([0.0, 0.0]), np.array([2.0, 8.0])


def _scalar(beta0, beta1, cost, lo, hi, eta_target):
    out = []
    for b0, b1, target in zip(beta0, beta1, eta_target):
        try:
            out.append(_min_cost_eta(b0, b1, cost, lo, hi, target))
        except LagoError as exc:
            out.append(exc)
    return out


def _assert_same(got, want):
    assert len(got) == len(want)
    for lane, (g, w) in enumerate(zip(got, want)):
        if isinstance(w, Exception):
            assert type(g) is type(w) and str(g) == str(w), (lane, g, w)
        else:
            assert isinstance(g, np.ndarray) and g.tobytes() == w.tobytes(), (lane, g, w)


def _check(beta0, beta1, cost, lo, hi, eta_target):
    """The kernel's answers, after asserting them equal to the oracle's."""
    args = (np.asarray(beta0, dtype=float), np.asarray(beta1, dtype=float), cost,
            np.asarray(lo, dtype=float), np.asarray(hi, dtype=float),
            np.asarray(eta_target, dtype=float))
    got = _min_cost_lanes(*args)
    _assert_same(got, _scalar(*args))
    return got


@pytest.fixture
def scalar_lanes(monkeypatch):
    """Counts the lanes the kernel hands to the scalar solver."""
    calls = []
    monkeypatch.setattr(optimizer, "_min_cost_eta",
                        lambda *args: calls.append(1) or _min_cost_eta(*args))
    return calls


def _eta_max(beta0, beta1, lo, hi):
    return beta0 + np.maximum(beta1 * lo, beta1 * hi).sum(axis=1)


def _random_cubic(rng) -> CostFunction:
    terms = [(0, 3, float(rng.normal()))]
    for comp in range(2):
        for degree in (1, 2, 3):
            if rng.random() < 0.8:
                terms.append((comp, degree, float(rng.normal() * rng.choice([0.1, 1.0, 10.0]))))
    return CostFunction(tuple(terms))


def _random_problem(seed, lanes=40):
    rng = np.random.default_rng([17, seed])
    cost = _random_cubic(rng)
    lo = np.array([rng.uniform(-2.0, 0.0), rng.uniform(-2.0, 1.0)])
    hi = lo + rng.uniform(0.5, 8.0, 2)
    beta0 = rng.normal(0.0, 1.0, lanes)
    beta1 = rng.normal(0.0, 0.5, (lanes, 2))
    eta_max = _eta_max(beta0, beta1, lo, hi)
    target = eta_max - rng.uniform(-0.1, 3.0, lanes)
    return beta0, beta1, cost, lo, hi, target


def test_seeded_cubic_problems_match_bitwise(scalar_lanes):
    kinds = {"package": 0, "InfeasibleError": 0}
    signs = set()
    for seed in range(120):
        beta0, beta1, cost, lo, hi, target = _random_problem(seed)
        signs |= {tuple(s) for s in np.sign(beta1)}
        for x in _check(beta0, beta1, cost, lo, hi, target):
            kinds["package" if isinstance(x, np.ndarray) else type(x).__name__] += 1
    assert signs == {(-1, -1), (-1, 1), (1, -1), (1, 1)}
    assert kinds["package"] > 3000 and kinds["InfeasibleError"] > 50, kinds
    assert not scalar_lanes


def test_scenario_cost_with_every_effect_sign(scalar_lanes):
    rng = np.random.default_rng(3)
    beta0 = rng.normal(0.0, 1.0, 400)
    beta1 = rng.normal(0.0, 0.4, (400, 2))
    target = _eta_max(beta0, beta1, LO, HI) - rng.uniform(-0.2, 3.0, 400)
    got = _check(beta0, beta1, CUBIC, LO, HI, target)
    assert sum(isinstance(x, np.ndarray) for x in got) > 300
    assert not scalar_lanes


def test_free_minimum_lanes_return_it(scalar_lanes):
    beta0 = np.array([0.5, 0.1, -0.3])
    beta1 = np.array([[0.3, 0.15], [0.2, -0.1], [0.4, 0.4]])
    got = _check(beta0, beta1, CUBIC, LO, HI, beta0 - 0.2)
    for x in got:
        assert x.tolist() == [0.0, 0.0]
    assert not scalar_lanes


def test_a_zero_effect_lane_falls_back_alone(scalar_lanes):
    beta0 = np.array([0.1, 0.1, 0.1, 0.1])
    beta1 = np.array([[0.3, 0.15], [0.0, 0.15], [0.3, 0.0], [-0.3, 0.15]])
    target = np.array([1.2, 1.0, 0.5, 1.0])
    _check(beta0, beta1, CUBIC, LO, HI, target)
    assert len(scalar_lanes) == 2


def test_a_flat_box_sends_every_lane_to_the_scalar_solver(scalar_lanes):
    lo, hi = np.array([0.0, 3.0]), np.array([2.0, 3.0])
    beta0 = np.array([0.1, 0.2, -0.1])
    beta1 = np.array([[0.3, 0.15], [0.5, 0.2], [0.3, -0.1]])
    _check(beta0, beta1, CUBIC, lo, hi, np.array([0.9, 1.0, 0.3]))
    assert len(scalar_lanes) == 3


def test_targets_at_and_within_ftol_of_eta_max(scalar_lanes):
    # The first lane has |eta| < 1, so its tolerance is 1e-9; the others
    # scale theirs with eta_max, and a target 3e-8 above an eta_max of 50
    # is still within it: the eta-maximizing corner is the package.
    beta0 = np.array([0.1, 30.0, -20.0, 30.0, 30.0, 0.1, 0.1])
    beta1 = np.array([[0.2, 0.05], [2.0, 2.25], [-2.0, 5.0], [2.0, -1.5],
                      [2.0, 2.25], [0.2, 0.05], [0.2, -0.05]])
    eta_max = _eta_max(beta0, beta1, LO, HI)
    ftol = 1e-9 * np.maximum(1.0, np.abs(eta_max))
    target = eta_max + np.array([0.0, 0.6, 0.5, 0.0, 2.0, 0.5, 2.0]) * ftol
    got = _check(beta0, beta1, CUBIC, LO, HI, target)
    corners = np.where(beta1 > 0.0, HI, LO)
    for lane in (0, 1, 2, 3, 5):
        assert np.allclose(got[lane], corners[lane], rtol=0.0, atol=1e-9), lane
    for lane in (4, 6):
        assert isinstance(got[lane], InfeasibleError), lane
    assert not scalar_lanes


def test_targets_at_the_supply_of_each_fixing(scalar_lanes):
    # A target within ftol of what a fixing (bounds and interior stationary
    # points) supplies is met by that fixing within the tolerance, while
    # the exact slices and the segment land a rounding step away: the
    # exhaustive fixings keep the exact package.
    kept = 0
    for seed in range(200):
        rng = np.random.default_rng([23, seed])
        cost = _random_cubic(rng)
        lo = np.array([rng.uniform(-2.0, 0.0), rng.uniform(-2.0, 1.0)])
        hi = lo + rng.uniform(0.5, 6.0, 2)
        infos = optimizer._padded_polys(cost, 2)
        fixings = np.array([(a, b) for a in infos[0].options_on(lo[0], hi[0])
                            for b in infos[1].options_on(lo[1], hi[1])])
        pick = fixings[np.arange(30) % len(fixings)]
        beta0 = rng.normal(0.0, 1.0, 30)
        beta1 = rng.normal(0.0, 0.5, (30, 2))
        supply = beta0 + (beta1 * pick).sum(axis=1)
        ftol = 1e-9 * np.maximum(1.0, np.abs(_eta_max(beta0, beta1, lo, hi)))
        got = _check(beta0, beta1, cost, lo, hi, supply + rng.uniform(-1.0, 1.0, 30) * ftol)
        kept += sum(isinstance(x, np.ndarray) and x.tolist() == p.tolist()
                    for x, p in zip(got, pick))
    assert kept >= 800, kept
    assert not scalar_lanes


def test_infeasible_targets_raise_the_scalar_message(scalar_lanes):
    beta0 = np.array([0.1, 0.1, -1.0])
    beta1 = np.array([[0.3, 0.15], [-0.3, 0.15], [0.2, 0.2]])
    target = _eta_max(beta0, beta1, LO, HI) + np.array([0.5, 1e-3, 7.0])
    got = _check(beta0, beta1, CUBIC, LO, HI, target)
    for x in got:
        assert isinstance(x, InfeasibleError)
        assert "attainable inside the bounds" in str(x)
    assert not scalar_lanes


def test_a_cost_not_finite_on_the_box_fails_each_lane_alone():
    # The first component's free minimum overflows on [0, 2]: lane 0 fails
    # there, while lane 1 asks for more than the bounds attain.
    cost = CostFunction(((0, 3, -1e308), (0, 1, 1.0), (1, 3, 1.0), (1, 1, 1.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        got = _check([0.1, 0.1], [[0.3, 0.15], [0.3, 0.15]], cost, LO, HI, [1.0, 5.0])
    assert type(got[0]) is NonFiniteError
    assert str(got[0]) == "the cost is not finite on [0.0, 2.0]"
    assert type(got[1]) is InfeasibleError
    assert str(got[1]).startswith("required linear predictor 5 exceeds the maximum 1.9")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_scalar_solve_fails_typed_and_silent_on_a_cost_not_finite_on_the_box():
    # No np.errstate: an overflow warning raised as an error would take the
    # place of the typed error, alone and as the one lane of a call.
    cost = CostFunction(((0, 3, -1e308), (0, 1, 1.0), (1, 3, 1.0), (1, 1, 1.0)))
    with pytest.raises(NonFiniteError, match=r"the cost is not finite on \[0\.0, 2\.0\]"):
        _min_cost_eta(-0.8, np.array([0.5, 0.3]), cost, LO, HI, 1.0)
    (got,) = _min_cost_lanes([-0.8], [[0.5, 0.3]], cost, LO, HI, [1.0])
    assert type(got) is NonFiniteError and str(got) == "the cost is not finite on [0.0, 2.0]"


def test_ties_go_to_the_lexicographically_smallest_package(scalar_lanes):
    # Both components are all but free, so every candidate costs the same
    # within the solver's tolerance and the smallest package wins: the
    # first component unused, the second at exactly what the target needs.
    cost = CostFunction(((0, 3, 1e-12), (1, 3, 2e-12)))
    need = np.array([0.3, 1.1, 2.5, 4.0, 7.9])
    got = _check(np.zeros(5), np.ones((5, 2)), cost, LO, HI, need)
    for x, c in zip(got, need):
        assert x.tolist() == [0.0, c]
    assert not scalar_lanes


@pytest.mark.parametrize("case", ["quartic", "linear", "P=1", "P=3", "one lane"])
def test_other_shapes_go_through_the_scalar_solver(case, scalar_lanes):
    rng = np.random.default_rng(5)
    P = {"P=1": 1, "P=3": 3}.get(case, 2)
    cost = {
        "quartic": CostFunction(((0, 4, 0.5), (0, 1, 1.0), (1, 2, 0.3), (1, 1, 2.0))),
        "linear": CostFunction.linear((1.0, 4.0)),
        "P=1": CostFunction(((0, 3, 2.0), (0, 2, -1.19), (0, 1, 10.0))),
        "P=3": CostFunction(CUBIC.terms + ((2, 3, 0.5), (2, 1, 1.0))),
    }.get(case, CUBIC)
    lanes = 1 if case == "one lane" else 12
    lo, hi = np.zeros(P), np.full(P, 3.0)
    beta0 = rng.normal(0.0, 1.0, lanes)
    beta1 = rng.normal(0.3, 0.4, (lanes, P))
    target = _eta_max(beta0, beta1, lo, hi) - rng.uniform(-0.1, 2.0, lanes)
    got = _check(beta0, beta1, cost, lo, hi, target)
    assert len(scalar_lanes) == lanes
    assert any(isinstance(x, np.ndarray) for x in got)


def test_a_lane_does_not_depend_on_its_neighbours(scalar_lanes):
    beta0, beta1, cost, lo, hi, target = _random_problem(7, lanes=60)
    beta0[::11] = -50.0  # some lanes out of reach
    whole = _check(beta0, beta1, cost, lo, hi, target)
    reverse = _min_cost_lanes(beta0[::-1], beta1[::-1], cost, lo, hi, target[::-1])[::-1]
    _assert_same(reverse, whole)
    for size in (1, 7):
        chunks = [x for a in range(0, 60, size) for x in _min_cost_lanes(
            beta0[a:a + size], beta1[a:a + size], cost, lo, hi, target[a:a + size])]
        _assert_same(chunks, whole)
    assert len(scalar_lanes) == 60  # the one-lane chunks


# ---------------------------------------------------------------------------
# lanes captured from seeded Monte Carlo runs


def _goals(**kw):
    return lago.GoalSpec(outcome_goal=kw.pop("outcome_goal", 0.7), **kw)


def _power(approach, test):
    return _goals(power_goal=0.8, approach=approach, test=lago.TestSelector(test))


CAPTURED = {
    "1a": lambda: sim.scenario_1a(replicates=40, goals=_power("conditional", "z_unpooled")),
    "1a-unconditional": lambda: sim.scenario_1a(
        replicates=40, goals=_power("unconditional", "z_pooled")),
    "1a-decrease": lambda: dataclasses.replace(
        sim.scenario_1a(replicates=40, goals=_goals(outcome_goal=0.35, direction="decrease")),
        true_beta=(0.1, -0.3, -0.15)),
    "1b": lambda: sim.scenario_1b(replicates=40),
    "2a": lambda: sim.scenario_2a(replicates=40),
    "continuous": lambda: dataclasses.replace(
        sim.scenario_1a(n_per_center=200, replicates=30,
                        goals=_power("conditional", "t_unpooled")),
        outcome_kind="continuous", outcome_link="identity", outcome_sigma=8.0),
}


@pytest.mark.parametrize("name", list(CAPTURED))
def test_lanes_captured_from_seeded_runs(monkeypatch, name):
    calls = []
    real = optimizer._min_cost_lanes

    def capture(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(optimizer, "_min_cost_lanes", capture)
    report = sim.run_scenario(CAPTURED[name](), seed=31, threads=1)
    assert report.n_used > 0
    monkeypatch.undo()
    lanes = 0
    for beta0, beta1, cost, lo, hi, target in calls:
        _check(beta0, beta1, cost, lo, hi, target)
        lanes += len(beta0)
    assert lanes >= 40, (len(calls), lanes)

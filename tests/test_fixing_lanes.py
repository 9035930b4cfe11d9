"""Differential tests for the P >= 3 min-cost search and its scalar kernels.

Each kernel is held to one oracle kept here, bitwise (signed zeros and nan
included) and with the same error type and message on failure:

- ``optimizer._min_cost_eta``, which enumerates three to six effective
  components as arrays (``_fixing_lanes``, ``_min_pair_lanes``): the scalar
  loop it replaced, ``_min_cost_eta_scalar``, its sums folded from 0.0;
- ``_min_pair``, ``_dual_candidate`` and ``_pair_descent``: their per-call
  forms, which rebuild each component's polynomial, free minimum and
  fixings at every call and skip no pair;
- ``cost._horner`` and ``optimizer._segment_coeffs``: their loops;
- ``cost._stationary_points``: the trimmed derivative list, every call;
- ``cost._argmin_on``: the smallest candidate in the tie window;
- ``optimizer._multiplier_argmin``: one multiplier step on those two.

One named-case table, ``NAMED``, and one set of hypothesis strategies feed
the kernels' tests.  The probe, which solves a problem's draws together,
reports what the scalar loop gives them; every solve it makes lies in the
box and meets the goal, and its memory stays bounded.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from lago import diagnostics, optimizer
from lago.cost import CostFunction, _argmin_on, _ComponentPoly, _horner, _stationary_points
from lago.diagnostics import verify_assumption7
from lago.errors import InfeasibleError, LagoError, NonFiniteError
from lago.optimizer import (
    _UNREACHABLE,
    _beyond_eta_max,
    _cheapest,
    _component_lanes,
    _feasible_slice,
    _fixing_lanes,
    _fold,
    _greedy_linear,
    _min_cost_eta,
    _min_pair_lanes,
    _multiplier_argmin,
    _padded_polys,
    _segment_coeffs,
)
from lago.power import _passing_root

# ---------------------------------------------------------------------------
# the per-call forms


def _min_pair(info_f, info_g, bf, bg, box_f, box_g, residual, ftol):
    """Exact min of two components' cost subject to bf*xf + bg*xg >= residual."""
    cands = []

    def consider(xf, xg):
        xf = min(max(xf, box_f[0]), box_f[1])
        xg = min(max(xg, box_g[0]), box_g[1])
        if bf * xf + bg * xg >= residual - ftol:
            cands.append((info_f(xf) + info_g(xg), (xf, xg)))

    free_f = info_f.min_on(*box_f)
    free_g = info_g.min_on(*box_g)
    consider(free_f[0], free_g[0])
    for a in info_f.options_on(*box_f):
        sl = _feasible_slice(bg, box_g[0], box_g[1], residual - bf * a)
        if sl is not None:
            consider(a, info_g.min_on(*sl)[0])
    for a in info_g.options_on(*box_g):
        sl = _feasible_slice(bf, box_f[0], box_f[1], residual - bg * a)
        if sl is not None:
            consider(info_f.min_on(*sl)[0], a)
    # Constraint-active segment: xg = A + B*xf restricted to both boxes.
    A, B = residual / bg, -bf / bg
    if B > 0.0:
        seg = (max(box_f[0], (box_g[0] - A) / B), min(box_f[1], (box_g[1] - A) / B))
    elif B < 0.0:
        seg = (max(box_f[0], (box_g[1] - A) / B), min(box_f[1], (box_g[0] - A) / B))
    else:  # bf == 0 never reaches here (effective components only)
        seg = (box_f[0] + 1.0, box_f[0])
    if seg[0] <= seg[1]:
        h = _segment_coeffs(info_f.coeffs, info_g.coeffs, A, B)
        xf = _ComponentPoly(h).min_on(seg[0], seg[1])[0]
        consider(xf, A + B * xf)
    return _cheapest(cands) if cands else None


def _dual_candidate(infos, beta1, eff, lo, hi, need, ftol):
    """Lagrangian minimizer at the root of supplied(solve(mu)) - (need - ftol)
    in the eta multiplier mu, bracket doubled from 1; None past mu = 2^59."""

    def solve(mu):
        out = {}
        for p in eff:
            adj = infos[p].coeffs.copy()
            adj[1] -= mu * beta1[p]
            out[p] = _ComponentPoly(adj).min_on(lo[p], hi[p])[0]
        return out

    def residual(mu):
        values = solve(mu)
        return _fold(beta1[p] * values[p] for p in eff) - (need - ftol)

    mu_lo, f_lo, mu_hi = 0.0, residual(0.0), 1.0
    for _ in range(60):
        if (f_hi := residual(mu_hi)) >= 0.0:
            return solve(_passing_root(residual, mu_lo, mu_hi, f_lo, f_hi)[0])
        mu_lo, f_lo, mu_hi = mu_hi, f_hi, 2.0 * mu_hi
    return None


def _pair_descent(values, infos, beta1, eff, lo, hi, need, ftol):
    """Exact coordinate descent over component pairs; deterministic."""
    values = dict(values)
    for _ in range(50):
        improved = False
        for f, g in itertools.combinations(eff, 2):
            rem = need - _fold(beta1[p] * values[p] for p in eff if p not in (f, g))
            res = _min_pair(
                infos[f], infos[g], beta1[f], beta1[g],
                (lo[f], hi[f]), (lo[g], hi[g]), rem, ftol,
            )
            if res is None:
                continue
            cur = infos[f](values[f]) + infos[g](values[g])
            new = infos[f](res[0]) + infos[g](res[1])
            if new < cur - 1e-12 * (1.0 + abs(cur)):
                values[f], values[g] = res
                improved = True
        if not improved:
            break
    return values


# ---------------------------------------------------------------------------
# the scalar kernels' oracles


def _horner_by_loop(coeffs, x):
    v = 0.0
    for ck in reversed(coeffs):
        v = ck + v * x
    return v


def _stationary_points_by_list(c) -> tuple:
    d = [k * c[k] for k in range(1, len(c))]
    while d and d[-1] == 0.0:
        d.pop()
    if len(d) == 2:
        return (-d[0] / d[1],)
    if len(d) == 3:
        c0, b, a = d
        disc = b * b - 4.0 * a * c0
        if disc >= 0.0:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            pts = (q / a, c0 / q) if q != 0.0 else (0.0,)
        else:
            re = -b / (2.0 * a)
            near_real = math.sqrt(-disc) / (2.0 * abs(a)) <= 1e-9 * (1.0 + abs(re))
            pts = (re,) if near_real else ()
    elif len(d) > 3:
        pts = [
            float(root.real)
            for root in npoly.polyroots(d)
            if abs(root.imag) <= 1e-9 * (1.0 + abs(root.real))
        ]
    else:
        return ()
    return tuple(sorted(set(pts)))


def _argmin_on_by_best(coeffs, stationary, a, b):
    va, vb = _horner_by_loop(coeffs, a), _horner_by_loop(coeffs, b)
    cands, vmin = [(a, va), (b, vb)], (vb if vb < va else va)
    for t in stationary:
        if a < t < b:
            v = _horner_by_loop(coeffs, t)
            cands.append((t, v))
            if v < vmin:
                vmin = v
    top = vmin + 1e-12 * (1.0 + abs(vmin))
    best = None
    for t, v in cands:
        if v <= top and (best is None or t < best):
            best = t
    if best is None:
        raise NonFiniteError(f"the cost is not finite on [{float(a)}, {float(b)}]")
    return best


def _segment_coeffs_by_loop(f, g, A, B):
    h = [g[-1]]
    for gk in reversed(g[:-1]):
        nxt = [hk * A for hk in h] + [0.0]
        for k, hk in enumerate(h):
            nxt[k + 1] += hk * B
        nxt[0] += gk
        h = nxt
    h += [0.0] * (len(f) - len(h))
    for k, fk in enumerate(f):
        h[k] += fk
    return h


def _multiplier_argmin_per_step(coeffs, beta, low, high, mu):
    adj = list(coeffs)
    adj[1] -= mu * beta
    return _argmin_on_by_best(adj, _stationary_points_by_list(adj), low, high)


# ---------------------------------------------------------------------------
# the replaced loop


def _min_cost_eta_scalar(beta0, beta1, cost, lo, hi, eta_target):
    beta1 = np.asarray(beta1, dtype=float)
    P = beta1.size
    contrib_lo, contrib_hi = beta1 * lo, beta1 * hi
    eta_max = float(beta0 + np.maximum(contrib_lo, contrib_hi).sum())
    scale = max(1.0, abs(eta_max), abs(eta_target))
    ftol = 1e-9 * scale
    if eta_target > eta_max + ftol:
        raise _beyond_eta_max(eta_target, eta_max)
    eta_t = min(eta_target, eta_max)

    infos = _padded_polys(cost, P)
    x = np.empty(P)
    for p in range(P):
        x[p] = infos[p].min_on(lo[p], hi[p])[0]
    if beta0 + float(beta1 @ x) >= eta_t - ftol:
        return x

    eff = [p for p in range(P) if beta1[p] != 0.0 and hi[p] > lo[p]]
    base = beta0 + _fold(beta1[p] * x[p] for p in range(P) if p not in eff)
    need = eta_t - base

    if cost.is_linear:
        lin = [poly.coeffs[1] for poly in infos]
        _greedy_linear(x, lin, beta1, eff, lo, hi, eta_t - (beta0 + float(beta1 @ x)), ftol)
        return x

    beta1, lo, hi, need = beta1.tolist(), lo.tolist(), hi.tolist(), float(need)
    cands = []

    def consider(values: dict) -> None:
        supplied = _fold(beta1[p] * values[p] for p in eff)
        if supplied >= need - ftol and all(
            lo[p] - 1e-12 <= values[p] <= hi[p] + 1e-12 for p in eff
        ):
            total = _fold(infos[p](values[p]) for p in eff)
            cands.append((total, tuple(min(max(values[p], lo[p]), hi[p]) for p in eff)))

    consider({p: (hi[p] if beta1[p] > 0.0 else lo[p]) for p in eff})

    if len(eff) <= 6:
        opts = {p: infos[p].options_on(lo[p], hi[p]) for p in eff}
        for assign in itertools.product(*(opts[p] for p in eff)):
            consider(dict(zip(eff, assign)))
        if len(eff) == 1:
            (f,) = eff
            sl = _feasible_slice(beta1[f], lo[f], hi[f], need)
            if sl is not None:
                consider({f: infos[f].min_on(*sl)[0]})
        for f, g in itertools.combinations(eff, 2):
            others = [p for p in eff if p not in (f, g)]
            for assign in itertools.product(*(opts[p] for p in others)):
                rem = need - _fold(beta1[p] * v for p, v in zip(others, assign))
                res = _min_pair(
                    infos[f], infos[g], beta1[f], beta1[g],
                    (lo[f], hi[f]), (lo[g], hi[g]), rem, ftol,
                )
                if res is None:
                    continue
                values = dict(zip(others, assign))
                values[f], values[g] = res
                consider(values)

    if len(eff) >= 3:
        dual = _dual_candidate(infos, beta1, eff, lo, hi, need, ftol)
        if dual is not None:
            consider(dual)

    if not cands:
        raise InfeasibleError(_UNREACHABLE)
    best = min(v for v, _ in cands)
    tol = max(1e-9, 1e-9 * abs(best))
    chosen = dict(zip(eff, min(vals for v, vals in cands if v <= best + tol)))

    if len(eff) >= 3:
        chosen = _pair_descent(chosen, infos, beta1, eff, lo, hi, need, ftol)

    for p in eff:
        x[p] = chosen[p]
    return x


# ---------------------------------------------------------------------------
# helpers


def _outcome(kernel, *args):
    try:
        return kernel(*args)
    except Exception as exc:  # the oracle's error, whatever its type
        return exc


def _bits(value):
    """What bitwise equality compares: an error's type and message, a dict's
    keys and values, a list's entries, None, and the shape and bytes of
    anything else as floats."""
    if value is None:
        return None
    if isinstance(value, Exception):
        return type(value), str(value)
    if isinstance(value, dict):
        return list(value), _bits(list(value.values()))
    if isinstance(value, list):
        return [_bits(v) for v in value]
    value = np.asarray(value, dtype=float)
    return value.shape, value.tobytes()


def _same(got, want) -> bool:
    """Bitwise the same result or the same error.  Where an oracle lets
    numpy's LinAlgError out of ``polyroots``, the package raises
    NonFiniteError, a LagoError.  A nan point puts a set's order at the
    mercy of its address (its hash), so a tuple holding one is compared as
    a multiset of bit patterns."""
    if isinstance(want, np.linalg.LinAlgError):
        return isinstance(got, NonFiniteError)
    if isinstance(want, tuple) and any(math.isnan(t) for t in want):
        return isinstance(got, tuple) and sorted(map(_bits, got)) == sorted(map(_bits, want))
    return _bits(got) == _bits(want)


def _assert_kernel(kernel, oracle, *args):
    got, want = _outcome(kernel, *args), _outcome(oracle, *args)
    assert _same(got, want), (args, got, want)
    return got


def _assert_same(args):
    """``_min_cost_eta`` solves like its scalar loop, or both raise the same
    LagoError."""
    got, want = _outcome(_min_cost_eta, *args), _outcome(_min_cost_eta_scalar, *args)
    assert isinstance(want, (np.ndarray, LagoError)) and _same(got, want), (args, got, want)
    return got


def _cubic_problem(rng, P: int):
    """The benchmark's ``probe`` problem, drawn from ``rng``: separable cubic
    costs increasing on the whole line and a logit goal 40-60% of the way
    from the control level to the best one in the bounds.  Returns (beta,
    cost, bounds, goal)."""
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
    bounds = tuple((0.0, float(u)) for u in upper)
    return beta, CostFunction(tuple(terms)), bounds, 1.0 / (1.0 + math.exp(-eta_goal))


def _probe_problem(seed: int, batch: int, P: int):
    """``_cubic_problem`` seeded by (seed, batch, P), with its generator last,
    to perturb the coefficients as the probe does."""
    rng = np.random.default_rng([int(seed), int(batch), int(P)])
    return (*_cubic_problem(rng, P), rng)


def _args(beta, cost, bounds, eta_target):
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    return float(beta[0]), np.asarray(beta[1:], dtype=float), cost, lo, hi, float(eta_target)


def _eta_max(beta, bounds):
    lo, hi = np.array(bounds).T
    return float(beta[0] + np.maximum(beta[1:] * lo, beta[1:] * hi).sum())


# ---------------------------------------------------------------------------
# the probe problems


@pytest.mark.parametrize("P", [3, 4, 5, 6])
def test_probe_problems_match_the_scalar_loop(P):
    for seed in range(50):
        beta, cost, bounds, goal, rng = _probe_problem(seed, 0, P)
        eta_goal = math.log(goal / (1.0 - goal))
        _assert_same(_args(beta, cost, bounds, eta_goal))
        # the same problem with the coefficients perturbed as the probe does
        _assert_same(_args(beta + rng.normal(0.0, 0.05, beta.size), cost, bounds, eta_goal))


def _scalar_lanes(beta0, beta1, cost, lo, hi, eta_target):
    """``_min_cost_lanes`` as a loop of the scalar solver over its lanes."""
    return [_outcome(_min_cost_eta_scalar, *args, cost, lo, hi, target)
            for *args, target in zip(beta0, beta1, eta_target)]


def test_probe_reports_match_the_scalar_loop(monkeypatch):
    problems = [_probe_problem(seed, seed, P) for seed in range(6) for P in (3, 4, 5, 6)]

    def reports():
        return [
            verify_assumption7(beta, cost, bounds, goal, epsilon=0.05, L=2, seed=seed).to_dict()
            for seed, (beta, cost, bounds, goal, _) in enumerate(problems)
        ]

    got = reports()
    monkeypatch.setattr(diagnostics, "_min_cost_lanes", _scalar_lanes)
    assert got == reports()


def _recorded_lanes(monkeypatch):
    """(beta0, beta1, target, outcome) of every lane ``verify_assumption7``
    solves while the fixture is active."""
    solved, lanes = [], diagnostics._min_cost_lanes

    def recording(beta0, beta1, cost, lo, hi, target):
        out = lanes(beta0, beta1, cost, lo, hi, target)
        solved.extend(zip(beta0, beta1, target, out))
        return out

    monkeypatch.setattr(diagnostics, "_min_cost_lanes", recording)
    return solved


@pytest.mark.parametrize("P", [3, 4, 5, 6])
def test_every_perturbed_solve_lies_in_the_box_and_meets_its_goal(monkeypatch, P):
    # The estimate and each draw: inside the bounds, and at the goal under
    # its own coefficients within the benchmark's tolerance of 1e-7.
    solved = _recorded_lanes(monkeypatch)
    for seed in range(5):
        beta, cost, bounds, goal, _ = _probe_problem(seed, 9, P)
        solved.clear()
        report = verify_assumption7(beta, cost, bounds, goal, epsilon=0.05, L=30, seed=seed)
        assert not report.failures and len(solved) == 31
        lo, hi = np.array(bounds).T
        for beta0, beta1, target, x in solved:
            assert ((lo <= x) & (x <= hi)).all(), (seed, x)
            assert target == math.log(goal / (1.0 - goal))
            assert beta0 + float(beta1 @ x) >= target - 1e-7, (seed, x)


def test_a_probe_of_two_hundred_draws_at_six_components_stays_under_8_mb():
    beta, cost, bounds, goal, _ = _probe_problem(5, 0, 6)
    tracemalloc.start()
    try:
        verify_assumption7(beta, cost, bounds, goal, epsilon=0.05, L=200, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak


def test_the_draws_of_a_probe_are_enumerated_in_chunks(monkeypatch):
    # 240 pair lanes per problem at six components: the 201 problems of a
    # probe go through in chunks of PAIR_LANES // 240 problems.
    shapes, kernel = [], optimizer._min_pair_lanes
    monkeypatch.setattr(optimizer, "_min_pair_lanes",
                        lambda *args: shapes.append(args[-2].shape) or kernel(*args))
    beta, cost, bounds, goal, _ = _probe_problem(5, 0, 6)
    verify_assumption7(beta, cost, bounds, goal, epsilon=0.05, L=200, seed=5)
    size = optimizer.PAIR_LANES // 240
    assert shapes == [(size, 240)] * (201 // size) + [(201 % size, 240)]


def test_the_lanes_path_is_taken(monkeypatch):
    calls = []
    kernel = optimizer._min_pair_lanes
    monkeypatch.setattr(optimizer, "_min_pair_lanes",
                        lambda *args: calls.append(args[-2].size) or kernel(*args))
    for P, lanes in ((3, 6), (4, 24), (5, 80), (6, 240)):
        beta, cost, bounds, goal, _ = _probe_problem(0, 0, P)
        _min_cost_eta(*_args(beta, cost, bounds, math.log(goal / (1.0 - goal))))
        assert calls.pop() == lanes and not calls


# ---------------------------------------------------------------------------
# other shapes


def _mixed_cost(rng, P):
    """Per component: zero, linear, quadratic or cubic, with either sign of
    curvature."""
    terms = [(0, 3, float(rng.normal()))]  # one nonlinear term at least
    for p in range(P):
        degree = int(rng.integers(0, 4))
        for d in range(1, degree + 1):
            if rng.random() < 0.8:
                terms.append((p, d, float(rng.normal() * rng.choice([0.1, 1.0, 10.0]))))
    return CostFunction(tuple(terms))


def _mixed_problem(rng, P=None):
    P = int(rng.integers(3, 7)) if P is None else P
    cost = _mixed_cost(rng, P)
    lo = rng.uniform(-2.0, 1.0, P)
    hi = lo + rng.uniform(0.5, 6.0, P)
    flat = rng.random(P) < 0.1
    hi[flat] = lo[flat]
    beta = np.concatenate(([rng.normal()], rng.normal(size=P)))
    beta[1:][rng.random(P) < 0.1] = 0.0
    return beta, cost, tuple(zip(lo.tolist(), hi.tolist()))


def test_mixed_degree_costs_match_the_scalar_loop():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        beta, cost, bounds = _mixed_problem(rng)
        eta_max = _eta_max(beta, bounds)
        lo, hi = np.array(bounds).T
        eta_min = float(beta[0] + np.minimum(beta[1:] * lo, beta[1:] * hi).sum())
        ftol = 1e-9 * max(1.0, abs(eta_max))
        for target in (eta_min + rng.uniform(0.2, 0.9) * (eta_max - eta_min),
                       eta_max, eta_max + 0.5 * ftol, eta_max - 0.5 * ftol, eta_max + 1.0):
            _assert_same(_args(beta, cost, bounds, target))


@pytest.mark.parametrize("P", [1, 2])
def test_one_and_two_components_match_the_scalar_loop(P):
    # One problem never takes the P = 2 arrays: the scalar search solves it.
    # Mixed-degree costs (a fourth of them linear), some effects zero and
    # some boxes flat; targets inside the reach, at the best level, within
    # ftol of it and beyond, and at the free minimum's level.
    rng = np.random.default_rng([2025, P])
    kinds = set()
    for k in range(160):
        beta, cost, bounds = _mixed_problem(rng, P)
        if k % 4 == 3:
            cost = CostFunction.linear(rng.uniform(-1.0, 3.0, P))
        lo, hi = np.array(bounds).T
        eta_max = _eta_max(beta, bounds)
        ftol = 1e-9 * max(1.0, abs(eta_max))
        free = [poly.min_on(a, b)[0] for poly, a, b in zip(_padded_polys(cost, P), lo, hi)]
        at_free = float(beta[0] + beta[1:] @ np.array(free))
        for target in (beta[0] + rng.uniform(0.2, 0.9) * (eta_max - beta[0]), eta_max,
                       eta_max - 0.5 * ftol, eta_max + 0.5 * ftol, eta_max + 2.0 * ftol,
                       at_free, at_free + 2.0 * ftol):
            kinds.add(type(_assert_same(_args(beta, cost, bounds, target))).__name__)
    assert kinds == {"ndarray", "InfeasibleError"}, kinds


@pytest.mark.parametrize("P", [1, 2])
def test_a_cost_not_finite_on_the_box_fails_alone_as_the_scalar_loop(P):
    terms = ((0, 3, -1e308), (0, 1, 1.0), (1, 3, 1.0), (1, 1, 1.0))[:2 * P]
    beta = np.array([-0.8, 0.5, 0.3][:P + 1])
    with np.errstate(over="ignore", invalid="ignore"):
        got = _assert_same(_args(beta, CostFunction(terms), ((0.0, 2.0), (0.0, 8.0))[:P], 0.1))
    assert type(got) is NonFiniteError and str(got) == "the cost is not finite on [0.0, 2.0]"


def test_a_candidate_whose_cost_overflows_is_picked_as_the_scalar_loop():
    # The first component's cost overflows to inf at its upper bound, so
    # some kept candidates total inf: the pick then runs on Python floats.
    cost = CostFunction(((0, 3, 1e308), (0, 1, 1.0), (1, 3, 1.0), (1, 1, 1.0),
                         (2, 3, 0.5), (2, 1, 2.0)))
    beta, bounds = np.array([-1.0, 0.5, 0.4, 0.3]), ((0.0, 2.0),) * 3
    for target in (-0.5, 0.0, 0.4, 0.8):
        with np.errstate(over="ignore", invalid="ignore"):
            got = _assert_same(_args(beta, cost, bounds, target))
        assert np.isfinite(cost.evaluate_rows(got[None]))[0]


def test_negative_effects_and_flat_boxes_match_the_scalar_loop():
    rng = np.random.default_rng(77)
    for P in (3, 4, 5, 6, 7):
        for _ in range(10):
            beta, cost, bounds, goal, _ = _probe_problem(int(rng.integers(1000)), 1, P)
            beta = beta * np.concatenate(([1.0], rng.choice([-1.0, 1.0], P)))
            bounds = list(bounds)
            bounds[int(rng.integers(P))] = (1.0, 1.0)
            eta_max = _eta_max(beta, bounds)
            target = beta[0] + rng.uniform(0.3, 1.0) * (eta_max - beta[0])
            _assert_same(_args(beta, cost, bounds, target))


def test_degenerate_pairs_fall_back_and_match():
    # Linear and zero components make segment polynomials below cubic; a
    # quartic component sends every pair to the scalar pair solver; zero
    # effects leave fewer effective components.
    cases = [
        ((0, 3, 1.0), (1, 1, 2.0), (2, 1, 0.5)),
        ((0, 3, 1.0), (0, 1, 1.0), (3, 2, 0.3)),
        ((0, 4, 0.2), (1, 3, 1.0), (2, 2, 1.0), (3, 1, 1.0)),
        ((0, 3, -0.5), (0, 1, 4.0), (1, 3, 0.2), (2, 2, -1.0), (2, 1, 3.0)),
    ]
    bounds = ((0.0, 2.0), (0.0, 3.0), (-1.0, 1.0), (0.0, 1.5))
    for terms in cases:
        cost = CostFunction(terms)
        for effects in ((0.5, 0.4, 0.3, 0.2), (0.5, 0.0, 0.3, 0.2), (0.5, -0.4, 0.3, -0.2)):
            beta = np.array((-1.0,) + effects)
            eta_max = _eta_max(beta, bounds)
            for share in (0.2, 0.5, 0.8, 1.0):
                _assert_same(_args(beta, cost, bounds, beta[0] + share * (eta_max - beta[0])))


def test_unreachable_and_beyond_targets_raise_the_scalar_errors():
    beta, cost, bounds, _, _ = _probe_problem(5, 5, 4)
    eta_max = _eta_max(beta, bounds)
    got = _assert_same(_args(beta, cost, bounds, eta_max + 1.0))
    assert isinstance(got, InfeasibleError) and "exceeds the maximum" in str(got)


def test_pair_kernel_on_padded_polynomials_matches_the_scalar_pair():
    # A zero residual leaves signed zeros in the segment polynomial of a
    # linear and a pure cubic cost, and zero-padding the linear one flips
    # their sign; the kernel must hand such lanes to the scalar pair solver.
    rng = np.random.default_rng(9)
    exact_lanes = 0
    for _ in range(400):
        c1, c3 = rng.choice([-1.0, 1.0], 2) * rng.uniform([0.5, 0.1], [5.0, 3.0])
        terms = [(0, 1, c1), (1, 3, c3)]
        if rng.random() < 0.5:
            terms.append((int(rng.integers(2)), 2, float(rng.normal())))
        polys = list(_padded_polys(CostFunction(tuple(terms)), 2))
        lo = (-rng.uniform(0.5, 3.0, 2)).tolist()
        hi = rng.uniform(0.5, 3.0, 2).tolist()
        opts = [poly.options_on(a, b) for poly, a, b in zip(polys, lo, hi)]
        table = np.array([o + o[:1] * (4 - len(o)) for o in opts])
        beta = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.2, 2.0, 2)
        residuals = np.array([0.0, -0.0, *rng.normal(size=4)])
        n = residuals.size
        free = [poly.min_on(a, b)[0] for poly, a, b in zip(polys, lo, hi)]
        info_f, info_g = _component_lanes(polys, table, free, np.zeros(n, int), np.ones(n, int))
        with np.errstate(all="ignore"):
            xf, xg, found, exact = _min_pair_lanes(
                info_f, info_g, np.full(n, beta[0]), np.full(n, beta[1]),
                (np.full(n, lo[0]), np.full(n, hi[0])), (np.full(n, lo[1]), np.full(n, hi[1])),
                residuals, 1e-9,
            )
        for k in np.flatnonzero(exact):
            want = _min_pair(polys[0], polys[1], beta[0], beta[1],
                             (lo[0], hi[0]), (lo[1], hi[1]), float(residuals[k]), 1e-9)
            got = (float(xf[k]), float(xg[k])) if found[k] else None
            assert _same(got, want), (terms, k, got, want)
        exact_lanes += int(exact.sum())
    assert exact_lanes > 1000


def test_the_enumeration_raises_when_no_candidate_meets_the_need():
    # _min_cost_eta caps its target at the best level, so only a need past
    # the reach of every package leaves no feasible row: the enumeration
    # then returns the error the scalar pick of no candidates raises.
    beta, cost, bounds, _, _ = _probe_problem(5, 5, 4)
    lo, hi = [b[0] for b in bounds], [b[1] for b in bounds]
    reach = _fold(b * h for b, h in zip(beta[1:].tolist(), hi))  # positive effects, lo = 0
    polys = _padded_polys(cost, 4)
    fixed = {p: (polys[p].min_on(lo[p], hi[p])[0], polys[p].options_on(lo[p], hi[p]))
             for p in range(4)}
    (got,) = _fixing_lanes(polys, [beta[1:].tolist()], [0, 1, 2, 3], lo, hi, [reach + 1.0],
                           [1e-9], fixed)
    assert type(got) is InfeasibleError and str(got) == _UNREACHABLE


@pytest.mark.parametrize("P", [7, 8])
def test_seven_and_eight_components_match_the_scalar_loop(monkeypatch, P):
    # Past six effective components nothing is enumerated: the scalar loop's
    # len(eff) <= 6 guard is false on each of these problems.
    monkeypatch.setattr(optimizer, "_fixing_lanes", None)
    rng = np.random.default_rng([61, P])
    for seed in range(12):
        beta, cost, bounds, goal, _ = _probe_problem(seed, 4, P)
        beta = beta * np.concatenate(([1.0], rng.choice([-1.0, 1.0], P)))
        eta_max = _eta_max(beta, bounds)
        for share in (0.2, 0.6, 1.0):
            got = _assert_same(_args(beta, cost, bounds, beta[0] + share * (eta_max - beta[0])))
            assert isinstance(got, np.ndarray)


@pytest.mark.parametrize("seed", range(6))
def test_seven_components_meet_the_goal_and_no_pair_or_sample_beats_them(seed):
    # Past six effective components the solver enumerates nothing: it takes
    # the cheaper of the eta-maximizing corner and the Lagrangian point and
    # refines it by pair descent.  The bounds, fixed before the first run:
    # the constraint holds within the solver's ftol, no exact pair move and
    # no sampled feasible package is cheaper by more than 1e-9 relative.
    beta, cost, bounds, goal, rng = _probe_problem(seed, 0, 7)
    beta0, beta1, _, lo, hi, eta_t = _args(beta, cost, bounds, math.log(goal / (1.0 - goal)))
    x = _min_cost_eta(beta0, beta1, cost, lo, hi, eta_t)
    ftol = 1e-9 * max(1.0, abs(_eta_max(beta, bounds)), abs(eta_t))
    assert ((lo <= x) & (x <= hi)).all()
    assert beta0 + float(beta1 @ x) >= eta_t - ftol
    polys, total = _padded_polys(cost, 7), cost(x)
    window = 1e-9 * (1.0 + abs(total))
    moves = 0
    for f, g in itertools.combinations(range(7), 2):
        rem = eta_t - beta0 - _fold(beta1[p] * x[p] for p in range(7) if p not in (f, g))
        res = _min_pair(polys[f], polys[g], beta1[f], beta1[g],
                        (lo[f], hi[f]), (lo[g], hi[g]), rem, ftol)
        if res is None:  # the package spends the whole ftol: no pair point is left
            continue
        moves += 1
        assert polys[f](res[0]) + polys[g](res[1]) >= polys[f](x[f]) + polys[g](x[g]) - window
    assert moves >= 15
    spread = rng.uniform(lo, hi, (4096, 7))
    local = np.clip(x + 0.05 * (hi - lo) * rng.standard_normal((4096, 7)), lo, hi)
    samples = np.concatenate((spread, local))
    feasible = samples[beta0 + samples @ beta1 >= eta_t]
    assert len(feasible) > 100
    assert min(cost.evaluate_rows(feasible)) >= total - window


# ---------------------------------------------------------------------------
# the solver's pieces against their per-call forms


def _recorded_calls(monkeypatch, problems, name):
    """The arguments of every call the solver makes to ``optimizer.<name>``
    while solving ``problems``."""
    calls, kernel = [], getattr(optimizer, name)
    monkeypatch.setattr(optimizer, name, lambda *args: calls.append(args) or kernel(*args))
    for args in problems:
        _outcome(_min_cost_eta, *args)
    monkeypatch.undo()
    assert calls
    return calls


def _solver_problems():
    """The probe problems at P = 3..6, perturbed as the probe does, and
    random mixed-degree problems."""
    problems = []
    for P in (3, 4, 5, 6):
        for seed in range(8):
            beta, cost, bounds, goal, rng = _probe_problem(seed, 2, P)
            eta_goal = math.log(goal / (1.0 - goal))
            problems.append(_args(beta, cost, bounds, eta_goal))
            problems.append(_args(beta + rng.normal(0.0, 0.05, beta.size), cost, bounds, eta_goal))
    rng = np.random.default_rng(404)
    for _ in range(60):
        beta, cost, bounds = _mixed_problem(rng)
        target = beta[0] + rng.uniform(0.3, 0.9) * (_eta_max(beta, bounds) - beta[0])
        problems.append(_args(beta, cost, bounds, target))
    return problems


def test_the_dual_candidate_matches_its_per_call_form(monkeypatch):
    calls = _recorded_calls(monkeypatch, _solver_problems(), "_dual_candidate")
    sizes = set()
    for args in calls:
        sizes.add(len(args[2]))
        _assert_kernel(optimizer._dual_candidate, _dual_candidate, *args)
    assert sizes == {3, 4, 5, 6}


def _assert_dual(infos, beta1, lo, hi, need):
    args = (infos, beta1, list(range(len(infos))), lo, hi, need, 1e-9 * max(1.0, abs(need)))
    _assert_kernel(optimizer._dual_candidate, _dual_candidate, *args)


_CUBIC = [0.0, 3.0, -1.0, 0.2]


@pytest.mark.parametrize("coeffs, beta1, need", [
    ([_CUBIC] * 3, [0.5, -0.3, 0.8], 1.5),
    ([_CUBIC, [0.0, 1.0, 0.5], [0.0, 2.0]], [0.5, 0.3, 0.8], 2.0),  # degree 1 and 2
    ([_CUBIC, [0.0, 1.0, -2.0, 0.3, 0.25], _CUBIC], [0.5, 0.3, 0.8], 2.0),  # a quartic
    ([_CUBIC, [-0.0, -0.0, -0.0, 1.0], _CUBIC], [0.5, -0.0, 0.8], 1.0),  # signed zeros
    ([_CUBIC] * 3, [0.5, 0.3, 0.8], 1e6),  # out of reach: no bracket, None
    ([_CUBIC] * 3, [1e300, 1e300, 1e300], 1e300),  # c1 - mu * beta overflows
])
def test_the_dual_candidate_matches_its_per_call_form_on_named_cases(coeffs, beta1, need):
    P = len(coeffs)
    _assert_dual([_ComponentPoly(c) for c in coeffs], beta1, [0.0] * P, [4.0] * P, need)


def test_the_pair_descent_matches_its_per_call_form(monkeypatch):
    # From the solver's own start, and from random starts in the box, which
    # take more moves and so more skipped pairs.
    calls = _recorded_calls(monkeypatch, _solver_problems(), "_pair_descent")
    rng = np.random.default_rng(5)
    starts = 0
    for values, infos, beta1, eff, lo, hi, need, ftol, fixed in calls:
        rest = (infos, beta1, eff, lo, hi, need, ftol)
        for start in (values, *({p: float(rng.uniform(lo[p], hi[p])) for p in eff}
                                for _ in range(3))):
            got = optimizer._pair_descent(start, *rest, fixed)
            assert _same(got, _pair_descent(start, *rest)), (start, rest)
            starts += 1
    assert starts > 400


def test_the_pair_minimum_with_the_component_table_matches_its_per_call_form():
    rng = np.random.default_rng(17)
    pairs = 0
    for _ in range(150):
        beta, cost, bounds = _mixed_problem(rng)
        polys = _padded_polys(cost, len(bounds))
        for f, g in itertools.combinations(range(len(bounds)), 2):
            bf, bg = float(beta[1 + f]), float(beta[1 + g])
            if bf == 0.0 or bg == 0.0:
                continue
            box_f, box_g = bounds[f], bounds[g]
            fixed = [(poly.min_on(*box)[0], poly.options_on(*box))
                     for poly, box in ((polys[f], box_f), (polys[g], box_g))]
            reach = max(bf * box_f[0], bf * box_f[1]) + max(bg * box_g[0], bg * box_g[1])
            for residual in (float(rng.uniform(-2.0, 1.0)) * abs(reach), reach, reach + 1.0):
                args = (polys[f], polys[g], bf, bg, box_f, box_g, residual, 1e-9)
                got = optimizer._min_pair(*args, fixed)
                assert _same(got, _min_pair(*args)), (args, got)
                pairs += 1
    assert pairs > 1000


# ---------------------------------------------------------------------------
# the scalar kernels against their oracles

SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300, 1e308,
           -1e308, math.inf, -math.inf, math.nan)
_ANY = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(SPECIAL), st.floats())
_FINITE = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(SPECIAL[:-3]),
                    st.floats(allow_nan=False, allow_infinity=False))
_COEFFS = st.lists(_ANY, min_size=1, max_size=6)
_FINITE_COEFFS = st.lists(_FINITE, min_size=2, max_size=5)
_MUS = (0.0, 0.5, 1.0, 3.0, 2.0 ** 20, 2.0 ** 59, 1e300)

# The named cases: (coefficients, what they exercise).  Cubics take the
# closed forms and the written-out loops, every other degree the generic ones.
NAMED = [
    ([], "no coefficients"), ([3.0], "a constant"), ([-0.0], "a constant -0.0"),
    ([3.0, 0.0], "a zero slope"), ([3.0, -2.0], "a line"),
    ([3.0, -2.0, 0.5], "a convex quadratic"), ([2.0, -1.0, -0.5], "a concave quadratic"),
    ([3.0, -2.0, -0.0], "a -0.0 leading quadratic coefficient"),
    ([1.0, 1e308, -1e308], "a quadratic whose cost overflows on a wide box"),
    ([1.0, 2.0, 3.0, 0.0], "a zero leading cubic coefficient"),
    ([1.0, 2.0, 3.0, -0.0], "a -0.0 leading cubic coefficient"),
    ([0.0, 1.0, 2.0, 4.0 / 3.0], "zero discriminant: one double root"),
    ([5.0, 0.0, 0.0, 1.0], "q == 0: the double root at 0"),
    ([5.0, -0.0, -0.0, 1.0], "q == 0 from signed zeros"),
    ([0.0, -0.0, 1.0, 1.0], "a signed-zero c1: roots -2/3 and +0.0"),
    ([0.0, -0.0, 5e-301, 1e100 / 3.0], "roots -0.0 and +0.0: the set keeps q / a"),
    ([0.0, 1e308, 5e199, 1.0], "a nan discriminant (inf - inf)"),
    ([0.0, -math.inf, 1.0, 1.0], "c1 at -inf: roots -inf and nan"),
    ([0.0, 1e-18, 0.0, 1.0 / 3.0], "a complex pair at the near-real edge"),
    ([1.0, 1.0, -1.0, 1.0 / 3.0], "a double root at 1.0, then boxes ending on it"),
    ([2.0, -4.0, -1.0, 0.5], "two real roots"), ([2.0, 4.0, 1.0, 0.5], "a complex pair"),
    ([0.0, 1.0, 1e200, 1e-300], "an infinite discriminant: roots -inf and -0.0"),
    ([0.0, 1.0, 5e99, 1e-300 / 3.0], "a finite discriminant whose root q / a overflows"),
    ([0.0, 0.0, math.inf, 1.0], "an infinite c2: a nan value at the interior point -0.0"),
    (_CUBIC, "a cubic increasing on the whole line"),
    ([1.0, 2.0, -1.0, 0.5], "c1 - mu * beta overflows to -inf: no finite cost on the box"),
    ([0.0, 0.0, 0.0, -1.0], "a decreasing cubic whose cost overflows on a wide box"),
    ([1.0, 0.0, 0.0, 0.0], "a flat cubic: every candidate ties"),
    ([-0.0, -0.0, -0.0, -0.0], "all -0.0"), ([0.0, -0.0, 0.0, -0.0], "alternating zeros"),
    ([1.0, math.inf, 0.0, 1.0], "an infinite c1"), ([1.0, -math.inf, 0.0, 1.0], "a -inf c1"),
    ([0.0, 1.0, 2.0, math.nan], "a nan leading coefficient"),
    ([math.nan, 0.0, 0.0, 1.0], "a nan constant: every value nan"),
    ([0.0, 1e300, -1e300, 1e300], "terms past the float range at |x| > 1"),
    ([0.5, -1.0, -2.0, 0.3, 0.25], "a quartic"),
    ([0.5, -1.0, -2.0, 0.3, 0.0], "a zero leading quartic coefficient"),
    ([0.0, 0.0, -2.0, 0.0, 1.0], "a double well: minima -1 and 1 tie"),
    ([1.0, 2.0, -1.0, 0.5, 0.1], "a quartic whose c1 - mu * beta overflows: no roots"),
    ([0.0, 0.0, 0.0, 0.0, 1e-300], "a tiny quartic"),
    ([0.0, 0.0, 0.0, 0.0, -1e300], "a quartic whose cost overflows on a wide box"),
]


def _boxes(stationary):
    """Fixed boxes (a == b of either sign, infinite, overflowing and nan
    ends), and boxes ending on a finite stationary point, on both and on one
    point, and around all of them."""
    finite = [t for t in stationary if math.isfinite(t)]
    boxes = [(-1.0, 1.0), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-math.inf, 0.0),
             (0.0, math.inf), (-1e300, 1e300), (0.0, 1e300), (math.nan, 1.0), (1.0, 1.0)]
    for t in finite:
        boxes += [(t, t), (t, t + 1.0), (t - 1.0, t), (t - 2.0, t + 2.0)]
    if finite:
        boxes += [(finite[0], finite[-1]), (finite[0] - 1.0, finite[-1] + 1.0)]
    return boxes


def _oracle_points(c) -> tuple:
    """The oracle's stationary points of ``c``; none where it raises."""
    points = _outcome(_stationary_points_by_list, c)
    return () if isinstance(points, Exception) else points


def _assert_same_multiplier_argmin(c, beta, low, high, mus):
    argmin = _multiplier_argmin(c, beta, low, high)
    for mu in mus:
        got = _outcome(argmin, mu)
        want = _outcome(_multiplier_argmin_per_step, c, beta, low, high, mu)
        assert _same(got, want), (c, beta, low, high, mu, got, want)


def _named(cases):
    return pytest.mark.parametrize("c", [c for c, _ in cases], ids=[note for _, note in cases])


@_named(NAMED)
@pytest.mark.parametrize("x", SPECIAL)
def test_horner_matches_its_loop_on_named_cases(c, x):
    _assert_kernel(_horner, _horner_by_loop, c, x)


@_named(NAMED)
def test_stationary_points_match_the_derivative_list_on_named_cases(c):
    _assert_kernel(_stationary_points, _stationary_points_by_list, c)


@_named(NAMED)
def test_argmin_on_matches_its_smallest_candidate_form_on_named_cases(c):
    stationary = _oracle_points(c)
    for a, b in _boxes(stationary):
        _assert_kernel(_argmin_on, _argmin_on_by_best, c, stationary, a, b)


@_named(NAMED)
@pytest.mark.parametrize("B", [0.0, -0.0, 1.5, -2.0, math.inf, math.nan])
@pytest.mark.parametrize("A", [0.0, -0.0, 0.7, -1e300, math.inf])
def test_segment_coeffs_match_the_loop_on_named_cases(c, A, B):
    for f in ([0.0, 1.0, -0.0, 2.0], [-0.0], [1.0, -0.0, 0.5, 0.1, 0.01], [-0.0] * 4):
        _assert_kernel(_segment_coeffs, _segment_coeffs_by_loop, f, c, A, B)


@_named([(c, note) for c, note in NAMED if len(c) >= 2])
def test_the_multiplier_argmin_matches_its_per_step_form_on_named_cases(c):
    for beta, box in ((0.7, (0.0, 4.0)), (-1.5, (-2.0, 2.0)), (1e10, (0.0, 1.0)),
                      (0.9, (-1.0, 3.0))):
        _assert_same_multiplier_argmin(c, beta, *box, _MUS)


def test_the_kernels_give_the_named_answers():
    flat = [1.0, 0.0, 0.0, 0.0]  # every candidate ties: the smallest, a
    assert _argmin_on(flat, (0.5,), 0.0, 1.0) == 0.0
    for a, b in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)):  # a == b: a itself
        assert math.copysign(1.0, _argmin_on(flat, (), a, b)) == math.copysign(1.0, a)
    double_well = [0.0, 0.0, -2.0, 0.0, 1.0]  # minima -1 and 1 tie: the smaller
    assert _argmin_on(double_well, _stationary_points(double_well), -2.0, 2.0) == -1.0
    # a leading nan value is the least, by Python's min, so the window is nan
    with pytest.raises(NonFiniteError):
        _argmin_on([math.nan, 1.0, 0.0, 0.0], (), 0.0, 1.0)
    for c, (a, b) in (([0.0, 0.0, 0.0, -1.0], (0.0, 1e200)),  # costs that overflow on the box
                      ([1.0, 1e308, -1e308], (-1e10, 1e10)),
                      ([0.0, 0.0, 0.0, 0.0, -1e300], (0.0, 1e100))):
        with pytest.raises(NonFiniteError, match="the cost is not finite"):
            _ComponentPoly(c).min_on(a, b)
    # c1 - mu * beta overflows to -inf: the cubic's cost is not finite on the
    # box, and the quartic's derivative has no roots
    for c in ([1.0, 2.0, -1.0, 0.5], [1.0, 2.0, -1.0, 0.5, 0.1]):
        assert isinstance(_outcome(_multiplier_argmin(c, 1e10, 0.0, 1.0), 1e300), NonFiniteError)
    # the ±0.0 double root keeps q / a, -0.0
    assert _bits(_stationary_points([0.0, -0.0, 5e-301, 1e100 / 3.0])) == _bits((-0.0,))


def test_the_near_real_edge_is_crossed_the_same_way():
    # c0 + x**2 with c0 around 1e-18: the imaginary part sqrt(c0) meets the
    # 1e-9 window of the real part 0 within a few ulps.
    outcomes = set()
    c0 = 1e-18
    for _ in range(12):
        c0 = math.nextafter(c0, 0.0)
    for _ in range(24):
        c = [0.0, c0, 0.0, 1.0 / 3.0]
        outcomes.add(len(_assert_kernel(_stationary_points, _stationary_points_by_list, c)))
        c0 = math.nextafter(c0, 1.0)
    assert outcomes == {0, 1}


@pytest.mark.parametrize("size", [1, 3, 4, 5])
def test_horner_matches_its_loop_on_lane_arrays(size):
    """Lane kernels pass arrays of points, and coefficient lists that mix
    floats and lane arrays, with numpy's warnings off as there."""
    rng = np.random.default_rng(size)
    x = np.array(SPECIAL + tuple(rng.normal(size=21)))
    coeffs = [rng.choice(SPECIAL, x.size) if k % 2 else float(rng.normal()) for k in range(size)]
    with np.errstate(all="ignore"):
        _assert_kernel(_horner, _horner_by_loop, coeffs, x)
        _assert_kernel(_horner, _horner_by_loop, [float(c) for c in rng.normal(size=size)], x)


def test_segment_coeffs_match_the_loop_on_lane_arrays():
    rng = np.random.default_rng(5)
    A = np.array(SPECIAL + tuple(rng.normal(size=9)))
    B = np.array(tuple(reversed(SPECIAL)) + tuple(rng.normal(size=9)))
    lanes = [rng.choice(SPECIAL, A.size) for _ in range(4)]
    for f, g in ((lanes, lanes[::-1]), ([0.0, 1.0, -0.5, 0.2], lanes), (lanes, [1.0, -0.0, 3.0])):
        with np.errstate(all="ignore"):  # as in the lane kernels
            _assert_kernel(_segment_coeffs, _segment_coeffs_by_loop, f, g, A, B)


@settings(max_examples=400, deadline=None)
@given(_COEFFS, _ANY)
def test_horner_matches_its_loop(coeffs, x):
    _assert_kernel(_horner, _horner_by_loop, coeffs, x)


@settings(max_examples=400, deadline=None)
@given(_COEFFS)
def test_stationary_points_match_the_derivative_list(c):
    _assert_kernel(_stationary_points, _stationary_points_by_list, c)


@settings(max_examples=400, deadline=None)
@given(_COEFFS, st.lists(_ANY, max_size=4), st.integers(0, 4), _ANY, _ANY, st.integers(0, 3))
def test_argmin_on_matches_its_smallest_candidate_form(c, points, nan_at, a, b, ends):
    """``stationary`` holds the polynomial's own stationary points and the
    drawn ones, ascending apart from a nan, which no box holds, as the closed
    forms return it."""
    points = (*_oracle_points(c), *points)
    stationary = sorted({t for t in points if not math.isnan(t)})
    if any(math.isnan(t) for t in points):
        stationary.insert(min(nan_at, len(stationary)), math.nan)
    finite = [t for t in stationary if math.isfinite(t)]
    if finite and ends:  # a box ending on a stationary point
        a, b = (finite[0], b) if ends == 1 else (a, finite[-1]) if ends == 2 else (finite[0],) * 2
    if b < a:
        a, b = b, a
    _assert_kernel(_argmin_on, _argmin_on_by_best, c, tuple(stationary), a, b)


@settings(max_examples=400, deadline=None)
@given(_COEFFS, _COEFFS, _ANY, _ANY)
def test_segment_coeffs_match_the_loop(f, g, A, B):
    _assert_kernel(_segment_coeffs, _segment_coeffs_by_loop, f, g, A, B)


@settings(max_examples=300, deadline=None)
@given(_FINITE_COEFFS, _FINITE, _FINITE, _FINITE,
       st.lists(st.one_of(st.floats(0.0, 2.0 ** 60), st.sampled_from(_MUS)), min_size=1,
                max_size=4))
def test_the_multiplier_argmin_matches_its_per_step_form(c, beta, low, high, mus):
    if not low <= high:
        low, high = high, low
    _assert_same_multiplier_argmin(c, beta, low, high, mus)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_FINITE_COEFFS, _FINITE, st.floats(-5.0, 5.0), st.floats(0.0, 5.0)),
                min_size=3, max_size=5),
       st.floats(-20.0, 20.0))
def test_the_dual_candidate_matches_its_per_call_form_on_drawn_components(components, need):
    infos = _outcome(lambda: [_ComponentPoly(c) for c, _, _, _ in components])
    assume(not isinstance(infos, Exception))  # a derivative past the float range
    lo = [low for _, _, low, _ in components]
    hi = [low + width for _, _, low, width in components]
    _assert_dual(infos, [beta for _, beta, _, _ in components], lo, hi, need)

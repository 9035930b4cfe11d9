"""Differential tests for the P >= 3 min-cost search.

``optimizer._min_cost_eta`` enumerates the candidates of three to six
effective components as arrays (``_fixing_lanes``), with every pair minimum
of a solve in one ``_min_pair_lanes`` call.  The scalar loop it replaced is
kept below, verbatim apart from its sums, which fold left to right from 0.0
as the solver's do, and is the oracle: every package must equal the
oracle's bitwise, and every failure must raise the same error type and
message.

The oracle calls the per-call forms of the Lagrangian point, the pair
descent and the pair minimum, also kept below verbatim under their own
names: ``_dual_candidate`` builds a ``_ComponentPoly`` per component at
every multiplier step, and ``_pair_descent`` has ``_min_pair`` recompute
each component's free minimum and fixings at every pair and round.  The
solver computes those once per solve (``cost._argmin_on`` is the argmin
rule of ``_ComponentPoly.min_on``) and skips a pair that has not moved
since it was last evaluated; the tests at the end hold each piece to its
per-call form, bitwise.

The scalar kernels under them are held the same way.
``_stationary_points_by_list`` and ``_argmin_on_two_pass`` are
``cost._stationary_points`` and ``cost._argmin_on`` before the closed-form
cubic shortcut (``cost._quadratic_points``) and the one-pass argmin, and
``_multiplier_argmin_per_step`` is one component of the Lagrangian point's
solve before ``optimizer._multiplier_argmin`` built it once per solve.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from lago import optimizer
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
# the replaced per-call forms


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


def _min_on(poly, a, b):
    """``_ComponentPoly.min_on`` before its argmin moved to ``_argmin_on``."""
    if b < a:
        return None
    cands = [a, b] + [t for t in poly.stationary if a < t < b]
    vals = [_horner(poly.coeffs, t) for t in cands]
    vmin = min(vals)
    tol = 1e-12 * (1.0 + abs(vmin))
    try:
        x = min(c for c, v in zip(cands, vals) if v <= vmin + tol)
    except ValueError:  # vmin + tol is nan: the cost overflowed on [a, b]
        raise NonFiniteError(f"the cost is not finite on [{float(a)}, {float(b)}]") from None
    return x, _horner(poly.coeffs, x)


def _stationary_points_by_list(c) -> tuple:
    """``cost._stationary_points`` before the cubic shortcut and the shared
    ``cost._quadratic_points``: the derivative list, trimmed, every time."""
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


def _argmin_on_two_pass(coeffs, stationary, a: float, b: float) -> float:
    """``cost._argmin_on`` before it became one pass."""
    cands = [a, b] + [t for t in stationary if a < t < b]
    vals = [_horner(coeffs, t) for t in cands]
    vmin = min(vals)
    top = vmin + 1e-12 * (1.0 + abs(vmin))
    try:
        return min(c for c, v in zip(cands, vals) if v <= top)
    except ValueError:  # top is nan: the cost overflowed on [a, b]
        raise NonFiniteError(f"the cost is not finite on [{float(a)}, {float(b)}]") from None


def _multiplier_argmin_per_step(coeffs, beta, low, high, mu):
    """One component of ``_dual_candidate``'s solve(mu) before the solve was
    built once per component (``optimizer._multiplier_argmin``)."""
    adj = coeffs.copy()
    adj[1] -= mu * beta
    return _argmin_on_two_pass(adj, _stationary_points_by_list(adj), low, high)


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


def _outcome(solver, *args):
    try:
        return solver(*args)
    except LagoError as exc:
        return exc


def _assert_same(args):
    got = _outcome(_min_cost_eta, *args)
    want = _outcome(_min_cost_eta_scalar, *args)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (args, got, want)
    else:
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes(), (args, got, want)
    return got


def _probe_problem(seed: int, batch: int, P: int):
    """The benchmark's ``probe`` problem: separable cubic costs increasing on
    the whole line and a logit goal 40-60% of the way from the control level
    to the best one in the bounds."""
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
    bounds = tuple((0.0, float(u)) for u in upper)
    return beta, CostFunction(tuple(terms)), bounds, 1.0 / (1.0 + math.exp(-eta_goal)), rng


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


def test_probe_reports_match_the_scalar_loop(monkeypatch):
    problems = [_probe_problem(seed, seed, P) for seed in range(6) for P in (3, 4, 5, 6)]

    def reports():
        return [
            verify_assumption7(beta, cost, bounds, goal, epsilon=0.05, L=2, seed=seed).to_dict()
            for seed, (beta, cost, bounds, goal, _) in enumerate(problems)
        ]

    got = reports()
    monkeypatch.setattr(optimizer, "_min_cost_eta", _min_cost_eta_scalar)
    assert got == reports()


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


def _mixed_problem(rng):
    P = int(rng.integers(3, 7))
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
            assert (got is None) == (want is None), (terms, k)
            if want is not None:
                assert np.array(got).tobytes() == np.array(want).tobytes(), (terms, k, got, want)
        exact_lanes += int(exact.sum())
    assert exact_lanes > 1000


def test_the_enumeration_raises_when_no_candidate_meets_the_need():
    # _min_cost_eta caps its target at the best level, so only a need past
    # the reach of every package leaves no feasible row: the enumeration
    # then raises as the scalar pick of no candidates does.
    beta, cost, bounds, _, _ = _probe_problem(5, 5, 4)
    lo, hi = [b[0] for b in bounds], [b[1] for b in bounds]
    reach = _fold(b * h for b, h in zip(beta[1:].tolist(), hi))  # positive effects, lo = 0
    polys = _padded_polys(cost, 4)
    fixed = {p: (polys[p].min_on(lo[p], hi[p])[0], polys[p].options_on(lo[p], hi[p]))
             for p in range(4)}
    with pytest.raises(InfeasibleError, match=_UNREACHABLE):
        _fixing_lanes(polys, beta[1:].tolist(), [0, 1, 2, 3], lo, hi, reach + 1.0, 1e-9, fixed)


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


def _same_floats(got, want) -> bool:
    return np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()


def _polynomials(rng):
    """Seeded degree 0-4 coefficient lists; some coefficients are +0.0 or
    -0.0."""
    for _ in range(400):
        c = (rng.normal(size=int(rng.integers(1, 6))) * rng.choice([0.1, 1.0, 10.0])).tolist()
        for k in range(len(c)):
            if rng.random() < 0.15:
                c[k] = float(rng.choice([0.0, -0.0]))
        yield c


def _boxes(rng, stationary):
    """Random boxes, empty-width boxes and boxes ending on stationary points."""
    a = float(rng.uniform(-3.0, 1.0))
    yield a, a + float(rng.uniform(0.1, 4.0))
    yield a, a
    for t in stationary:
        yield t, t
        yield t, t + 1.0
        yield t - 1.0, t
    if len(stationary) >= 2:
        yield stationary[0], stationary[-1]


def test_argmin_on_is_the_argmin_of_min_on():
    rng = np.random.default_rng(31)
    boxes = 0
    for c in _polynomials(rng):
        poly = _ComponentPoly(c)
        coeffs = [float(v) for v in c]
        for a, b in _boxes(rng, poly.stationary):
            got = _argmin_on(coeffs, _stationary_points(coeffs), a, b)
            assert _same_floats(got, poly.min_on(a, b)[0]), (c, a, b)
            assert _same_floats(got, _min_on(poly, a, b)[0]), (c, a, b)
            boxes += 1
    assert boxes > 1500


def test_argmin_on_raises_the_min_on_error_on_an_overflowing_cost():
    for c, (a, b) in (([0.0, 0.0, 0.0, -1.0], (0.0, 1e200)),
                      ([1.0, 1e308, -1e308], (-1e10, 1e10)),
                      ([0.0, 0.0, 0.0, 0.0, -1e300], (0.0, 1e100))):
        poly = _ComponentPoly(c)
        got = _outcome(_argmin_on, poly.coeffs, poly.stationary, a, b)
        want = _outcome(_min_on, poly, a, b)
        assert isinstance(want, NonFiniteError), (c, want)
        assert type(got) is type(want) and str(got) == str(want)
        assert str(_outcome(poly.min_on, a, b)) == str(want)


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


def _same_package(got, want, eff) -> bool:
    if want is None:
        return got is None
    return set(got) == set(want) and _same_floats([got[p] for p in eff], [want[p] for p in eff])


def test_the_dual_candidate_matches_its_per_call_form(monkeypatch):
    calls = _recorded_calls(monkeypatch, _solver_problems(), "_dual_candidate")
    sizes = set()
    for args in calls:
        eff = args[2]
        sizes.add(len(eff))
        assert _same_package(optimizer._dual_candidate(*args), _dual_candidate(*args), eff), args
    assert sizes == {3, 4, 5, 6}


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
            assert _same_package(got, _pair_descent(start, *rest), eff), (start, rest)
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
                want = _min_pair(*args)
                got = optimizer._min_pair(*args, fixed)
                assert (got is None) == (want is None), args
                assert want is None or _same_floats(got, want), (args, got, want)
                pairs += 1
    assert pairs > 1000


# ---------------------------------------------------------------------------
# the scalar kernels against their replaced forms

_SPECIAL = (0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308,
            math.inf, -math.inf, math.nan)
_ANY = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(_SPECIAL), st.floats())
_FINITE = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(_SPECIAL[:11]),
                    st.floats(allow_nan=False, allow_infinity=False))


def _kernel_outcome(kernel, *args):
    try:
        return kernel(*args)
    except Exception as exc:  # the replaced form's error, whatever its type
        return exc


def _same_outcome(got, want) -> bool:
    """Bitwise equal floats or tuples of floats, or the same error.  A nan
    point puts a set's order at the mercy of its address (its hash), so a
    tuple holding one is compared as a multiset of bit patterns.  Where the
    replaced form let numpy's LinAlgError out of ``polyroots``, the package
    raises NonFiniteError, a LagoError."""
    if isinstance(want, np.linalg.LinAlgError):
        return isinstance(got, NonFiniteError)
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    if isinstance(got, Exception) or np.shape(got) != np.shape(want):
        return False
    if isinstance(want, tuple) and any(math.isnan(t) for t in want):
        return sorted(_bits(t) for t in got) == sorted(_bits(t) for t in want)
    return _same_floats(got, want)


def _bits(t: float) -> bytes:
    return np.float64(t).tobytes()


def _assert_same_points(c):
    got = _kernel_outcome(_stationary_points, c)
    assert _same_outcome(got, _kernel_outcome(_stationary_points_by_list, c)), (c, got)
    return got


def _assert_same_argmin(c, a, b):
    stationary = _kernel_outcome(_stationary_points_by_list, c)
    if isinstance(stationary, Exception):
        return
    got = _kernel_outcome(_argmin_on, c, stationary, a, b)
    want = _kernel_outcome(_argmin_on_two_pass, c, stationary, a, b)
    assert _same_outcome(got, want), (c, a, b, got, want)


def _assert_same_multiplier_argmin(c, beta, low, high, mus):
    argmin = _multiplier_argmin(c, beta, low, high)
    for mu in mus:
        got = _kernel_outcome(argmin, mu)
        want = _kernel_outcome(_multiplier_argmin_per_step, c, beta, low, high, mu)
        assert _same_outcome(got, want), (c, beta, low, high, mu, got, want)


# Named cases: (cubic coefficients, what they exercise).
_NAMED_CUBICS = [
    ([0.0, 1.0, 2.0, 4.0 / 3.0], "zero discriminant: one double root"),
    ([5.0, 0.0, 0.0, 1.0], "q == 0: the double root at 0"),
    ([5.0, -0.0, -0.0, 1.0], "q == 0 from signed zeros"),
    ([0.0, -0.0, 1.0, 1.0], "a signed-zero c0: roots -2/3 and +0.0"),
    ([0.0, -0.0, 5e-301, 1e100 / 3.0], "roots -0.0 and +0.0: the set keeps q / a"),
    ([0.0, 1e308, 5e199, 1.0], "a nan discriminant (inf - inf)"),
    ([0.0, -math.inf, 1.0, 1.0], "c1 at -inf: roots -inf and nan"),
    ([0.0, 1e-18, 0.0, 1.0 / 3.0], "a complex pair at the near-real edge"),
    ([1.0, 1.0, -1.0, 1.0 / 3.0], "a double root at 1.0, then boxes ending on it"),
    ([2.0, -4.0, -1.0, 0.5], "two real roots"),
    ([2.0, 4.0, 1.0, 0.5], "a complex pair far from real"),
    ([0.0, 1.0, 1e200, 1e-300], "an infinite discriminant: roots -inf and -0.0"),
    ([0.0, 1.0, 5e99, 1e-300 / 3.0], "a finite discriminant whose root q / a overflows"),
    ([0.0, 0.0, math.inf, 1.0], "an infinite c2: a nan value at the interior point -0.0"),
]


def test_the_cubic_shortcut_matches_the_derivative_list_on_named_cubics():
    for c, _ in _NAMED_CUBICS:
        _assert_same_points(c)
    assert _stationary_points([0.0, -0.0, 5e-301, 1e100 / 3.0]) == (0.0,)
    assert math.copysign(1.0, _stationary_points([0.0, -0.0, 5e-301, 1e100 / 3.0])[0]) == -1.0


def test_the_near_real_edge_is_crossed_the_same_way():
    # c0 + x**2 with c0 around 1e-18: the imaginary part sqrt(c0) meets the
    # 1e-9 window of the real part 0 within a few ulps.
    outcomes = set()
    c0 = 1e-18
    for _ in range(12):
        c0 = math.nextafter(c0, 0.0)
    for _ in range(24):
        pts = _assert_same_points([0.0, c0, 0.0, 1.0 / 3.0])
        outcomes.add(len(pts))
        c0 = math.nextafter(c0, 1.0)
    assert outcomes == {0, 1}


@pytest.mark.parametrize("c", [
    [], [3.0], [3.0, 0.0], [3.0, -2.0], [3.0, -2.0, 0.5], [3.0, -2.0, -0.0], [1.0, 2.0, 3.0, 0.0],
    [1.0, 2.0, 3.0, -0.0], [0.5, -1.0, -2.0, 0.3, 0.25], [0.5, -1.0, -2.0, 0.3, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1e-300],
])
def test_other_degrees_take_the_generic_path_unchanged(c):
    _assert_same_points(c)


@settings(max_examples=400, deadline=None)
@given(st.lists(_ANY, min_size=1, max_size=5))
def test_stationary_points_match_the_derivative_list(c):
    _assert_same_points(c)


def test_argmin_on_matches_its_two_pass_form_on_named_cubics_and_box_ends():
    rng = np.random.default_rng(8)
    for c, _ in _NAMED_CUBICS:
        stationary = [t for t in _stationary_points_by_list(c) if math.isfinite(t)]
        for a, b in [*_boxes(rng, stationary), (-1.0, 1.0), (-math.inf, 0.0), (0.0, 0.0),
                     (-0.0, 0.0), (0.0, 1e300)]:
            _assert_same_argmin(c, a, b)


@settings(max_examples=400, deadline=None)
@given(st.lists(_ANY, min_size=1, max_size=5), _ANY, _ANY, st.integers(0, 3))
def test_argmin_on_matches_its_two_pass_form(c, a, b, ends):
    stationary = _kernel_outcome(_stationary_points_by_list, c)
    if isinstance(stationary, Exception):
        stationary = ()
    finite = [t for t in stationary if math.isfinite(t)]
    if finite and ends:  # a box ending on a stationary point
        a, b = (finite[0], b) if ends == 1 else (a, finite[-1]) if ends == 2 else (finite[0],) * 2
    if not a <= b:
        a, b = b, a
    _assert_same_argmin(c, a, b)


_MUS = (0.0, 0.5, 1.0, 3.0, 2.0 ** 20, 2.0 ** 59, 1e300)


def test_the_multiplier_argmin_matches_its_per_step_form_on_named_cases():
    for c, _ in _NAMED_CUBICS:
        for beta, box in ((0.7, (0.0, 4.0)), (-1.5, (-2.0, 2.0)), (1e10, (0.0, 1.0))):
            _assert_same_multiplier_argmin(c, beta, *box, _MUS)
    # c1 - mu * beta overflows to -inf: the cubic's cost is not finite on the
    # box, and the quartic's derivative has no roots; both raise NonFiniteError
    for c in ([1.0, 2.0, -1.0, 0.5], [1.0, 2.0, -1.0, 0.5, 0.1]):
        _assert_same_multiplier_argmin(c, 1e10, 0.0, 1.0, _MUS)
        argmin = _multiplier_argmin(c, 1e10, 0.0, 1.0)
        assert isinstance(_kernel_outcome(argmin, 1e300), NonFiniteError)
    # degree 0 to 2, a zero leading cubic coefficient and a quartic: the generic path
    for c in ([2.0, 0.0], [2.0, -1.0], [2.0, -1.0, 0.5], [2.0, -1.0, -0.5], [2.0, -1.0, 0.5, 0.0],
              [2.0, -1.0, 0.5, -0.0], [2.0, -1.0, -2.0, 0.3, 0.25]):
        _assert_same_multiplier_argmin(c, 0.9, -1.0, 3.0, _MUS)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FINITE, min_size=2, max_size=5), _FINITE, _FINITE, _FINITE,
       st.lists(st.one_of(st.floats(0.0, 2.0 ** 60), st.sampled_from(_MUS)), min_size=1,
                max_size=4))
def test_the_multiplier_argmin_matches_its_per_step_form(c, beta, low, high, mus):
    if not low <= high:
        low, high = high, low
    _assert_same_multiplier_argmin(c, beta, low, high, mus)

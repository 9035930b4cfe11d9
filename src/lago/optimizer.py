"""Cost-minimal intervention recommendations under outcome and power goals.

The recommendation problem is: among packages x inside the component bounds,
minimize the implementation cost subject to the fitted model predicting an
outcome level at least as good as the outcome goal, and (optionally) the
selected final test retaining its power target when the remaining stages are
run at x.  Because the linear predictor is affine in x and the cost is a sum
of per-component polynomials, the constrained minimization can be solved
essentially exactly: the constraint is a half-space on the linear-predictor
scale and the objective is separable.

Everything here works on the "increase" orientation internally; a decrease
goal is handled by mirroring the model (all coefficients sign-flipped) and
mirroring levels through the link, so that lower raw outcome levels become
higher working levels.  Both multiply by the sign ``power._direction_sign``
gives the goal's direction, the one place a direction is read.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .cost import (CostFunction, _argmin_on, _ComponentPoly, _horner, _quadratic_points,
                   _stationary_points)
from .errors import (DegenerateVarianceError, InfeasibleError, LagoError, NoThresholdError,
                     NonFiniteError, _check_real)
from .model import (
    FittedModel,
    _assumed,
    _from_fields,
    _json_fields,
    _link_inverse_lanes,
    _predict_lanes,
    link_forward,
    link_inverse,
    mirrored,
)
from .power import (
    ArmSummary,
    TestSelector,
    _check_summary,
    _direction_sign,
    _lane_projection,
    _LaneSummaries,
    _passing_root,
    _passing_roots,
    _projected_power_lanes,
    _Projection,
    _threshold_residual_lanes,
    conditional_power,
    conditional_slack_at_level,
    projected_drift_at_level,
    unconditional_power,
    unconditional_power_at_level,
)

__all__ = [
    "GoalSpec",
    "Recommendation",
    "p_max",
    "min_cost_subject_to_threshold",
    "power_threshold",
    "recommend_from_summary",
    "recommend_stage_k",
    "plan_stage1",
    "shrinking_method",
    "integerize",
]

# What fails one lane of a batched call (one replicate of a simulation) and
# not the others: numerical failures.  Any other exception propagates.
_LANE_ERRORS = (LagoError, np.linalg.LinAlgError)

# Most pair lanes in one ``_min_pair_lanes`` call of ``_fixing_lanes``.
PAIR_LANES = 2048

# Regime labels attached to every recommendation.
REGIME_GOAL = "goal-feasible"
REGIME_PMAX = "pmax-fallback"
REGIME_SHRINK = "shrinking-fallback"


# ---------------------------------------------------------------------------
# goal specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoalSpec:
    """What the next recommendation must achieve.

    ``outcome_goal`` is the target outcome level (probability for binary
    outcomes, mean for continuous ones) in the raw orientation; ``direction``
    says whether higher or lower levels are better.  ``power_goal`` adds the
    requirement that the final test keep power ``power_goal`` at level
    ``alpha``, certified either unconditionally (pre-trial formula applied to
    all stages) or conditionally on the data observed so far.
    """

    outcome_goal: float | None = None
    direction: str = "increase"
    power_goal: float | None = None
    alpha: float = 0.05
    approach: str = "unconditional"
    test: TestSelector | None = None
    conditional_scale: str = "sd"

    def __post_init__(self):
        _direction_sign(self.direction)
        if self.outcome_goal is None and self.power_goal is None:
            raise ValueError("at least one of outcome_goal and power_goal is required")
        for name in ("outcome_goal", "power_goal", "alpha"):
            if getattr(self, name) is not None or name == "alpha":
                _check_real(name, getattr(self, name))
        if self.outcome_goal is not None and not math.isfinite(self.outcome_goal):
            raise ValueError("outcome_goal must be finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.approach not in ("unconditional", "conditional"):
            raise ValueError("approach must be 'unconditional' or 'conditional'")
        if self.conditional_scale not in ("sd", "variance"):
            raise ValueError("conditional_scale must be 'sd' or 'variance'")
        if self.test is not None and not isinstance(self.test, TestSelector):
            raise ValueError(
                f"test must be a TestSelector or None, got {self.test!r}"
            )
        if self.power_goal is not None:
            if not 0.0 < self.power_goal < 1.0:
                raise ValueError("power_goal must be in (0, 1)")
            if self.test is None:
                raise ValueError("a power goal requires a test selection")
            if self.approach == "conditional" and self.test.wald:
                raise ValueError(
                    "conditional power certificates are only defined for 1-df tests"
                )

    def to_config(self) -> dict:
        """JSON-ready dict; the test selector collapses to its kind string."""
        return {**_json_fields(self), "test": None if self.test is None else self.test.kind}

    @classmethod
    def from_config(cls, entry: dict) -> "GoalSpec":
        return _from_fields(
            cls, entry, test=lambda kind: TestSelector(kind) if isinstance(kind, str) else kind
        )


@dataclass(eq=False)
class Recommendation:
    """A solved recommendation.

    ``required_threshold`` is the outcome level (raw orientation) the solver
    actually enforced: the binding max of the outcome goal and the power
    threshold in the ordinary regime, the best achievable level in the
    fallback regimes.  ``projected_power`` is filled only when a power goal
    was configured.
    """

    x_hat: np.ndarray
    regime: str
    achieved_outcome: float
    required_threshold: float
    projected_power: float | None
    cost: float


# ---------------------------------------------------------------------------
# frame and bounds plumbing
# ---------------------------------------------------------------------------

def _bounds_arrays(bounds, n_components: int):
    """Validated (lo, hi) arrays of ``bounds``, one (lower, upper) pair per
    component.  Public entry points call this once and hand the arrays on."""
    arr = np.array(bounds, dtype=float)
    if arr.shape != (n_components, 2):
        raise ValueError(
            f"bounds must be {n_components} (lower, upper) pairs, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("bounds must be finite")
    lo, hi = arr.T
    if (lo > hi).any():
        raise ValueError("each lower bound must not exceed its upper bound")
    return lo, hi


def _check_level_domain(link: str, level: float, what: str = "threshold") -> None:
    if not math.isfinite(level):
        raise ValueError(f"{what} must be finite")
    if link == "logit" and not 0.0 < level < 1.0:
        raise ValueError(f"{what} must be in (0, 1) for a logit-link model")
    if link == "log" and level <= 0.0:
        raise ValueError(f"{what} must be positive for a log-link model")


def _work_model(model: FittedModel, direction: str) -> FittedModel:
    return model if _direction_sign(direction) > 0.0 else mirrored(model)


def _raw_level(link: str, eta_work: float, direction: str) -> float:
    """Raw-orientation outcome level for a working linear predictor value."""
    return float(link_inverse(link, _direction_sign(direction) * eta_work))


def _eta_extremes(wm: FittedModel, lo, hi):
    """(eta_min, eta_max) of the work model ``wm`` inside the bounds, or of
    each lane when ``wm`` holds lane arrays: intercept[L] and effects[L, P]."""
    contrib_lo = wm.effects * lo
    contrib_hi = wm.effects * hi
    eta_max = wm.intercept + np.maximum(contrib_lo, contrib_hi).sum(axis=-1)
    eta_min = wm.intercept + np.minimum(contrib_lo, contrib_hi).sum(axis=-1)
    return eta_min, eta_max


def p_max(model: FittedModel, bounds, direction: str = "increase") -> float:
    """Best outcome level the model predicts anywhere inside the bounds.

    For an increase goal this is the maximum predicted level; for a decrease
    goal, the minimum.  The value is the natural feasibility cap: no outcome
    goal beyond it can be met without the shrinking fallback.
    """
    lo, hi = _bounds_arrays(bounds, model.n_components)
    _, eta_max = _eta_extremes(_work_model(model, direction), lo, hi)
    return _raw_level(model.link, eta_max, direction)


# ---------------------------------------------------------------------------
# separable polynomial minimization over a box cut by a half-space
# ---------------------------------------------------------------------------

def _segment_coeffs(f, g, A: float, B: float) -> list:
    """Coefficients of f(x) + g(A + B*x), composing g by Horner's rule (written
    out for a cubic g, with each ``0.0 + h * B`` kept for a zero's sign)."""
    if len(g) == 4:
        g0, g1, g2, g3 = g
        h0, h1 = g3 * A + g2, 0.0 + g3 * B
        h0, h1, h2 = h0 * A + g1, h1 * A + h0 * B, 0.0 + h1 * B
        h = [h0 * A + g0, h1 * A + h0 * B, h2 * A + h1 * B, 0.0 + h2 * B]
    else:
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


def _feasible_slice(beta: float, lo: float, hi: float, residual: float):
    """Interval of x with beta * x >= residual inside [lo, hi], or None."""
    if beta > 0.0:
        a = max(lo, residual / beta)
        return (a, hi) if a <= hi else None
    a = min(hi, residual / beta)
    return (lo, a) if a >= lo else None


def _min_pair(info_f, info_g, bf, bg, box_f, box_g, residual, ftol, fixed):
    """Exact min of two components' cost subject to bf*xf + bg*xg >= residual.

    ``fixed`` is ((free_f, options_f), (free_g, options_g)): each
    component's minimizer on its box and its fixings there.
    """
    cands = []
    cf, cg = info_f.coeffs, info_g.coeffs

    def consider(xf, xg):
        xf = min(max(xf, box_f[0]), box_f[1])
        xg = min(max(xg, box_g[0]), box_g[1])
        if bf * xf + bg * xg >= residual - ftol:
            cands.append((_horner(cf, xf) + _horner(cg, xg), (xf, xg)))

    (free_f, options_f), (free_g, options_g) = fixed
    consider(free_f, free_g)
    for a in options_f:
        sl = _feasible_slice(bg, box_g[0], box_g[1], residual - bf * a)
        if sl is not None:
            consider(a, _argmin_on(cg, info_g.stationary, *sl))
    for a in options_g:
        sl = _feasible_slice(bf, box_f[0], box_f[1], residual - bg * a)
        if sl is not None:
            consider(_argmin_on(cf, info_f.stationary, *sl), a)
    # Constraint-active segment: xg = A + B*xf restricted to both boxes.
    A, B = residual / bg, -bf / bg
    if B > 0.0:
        seg = (max(box_f[0], (box_g[0] - A) / B), min(box_f[1], (box_g[1] - A) / B))
    elif B < 0.0:
        seg = (max(box_f[0], (box_g[1] - A) / B), min(box_f[1], (box_g[0] - A) / B))
    else:  # bf == 0 never reaches here (effective components only)
        seg = (box_f[0] + 1.0, box_f[0])
    if seg[0] <= seg[1]:
        h = _segment_coeffs(cf, cg, A, B)
        xf = _argmin_on(h, _stationary_points(h), seg[0], seg[1])
        consider(xf, A + B * xf)
    return _cheapest(cands) if cands else None


_UNREACHABLE = "constraint unreachable inside the bounds"


def _beyond_eta_max(eta_target, eta_max) -> InfeasibleError:
    return InfeasibleError(
        f"required linear predictor {eta_target:.6g} exceeds the maximum "
        f"{eta_max:.6g} attainable inside the bounds"
    )


def _greedy_linear(x, lin, beta1, eff, lo, hi, need, ftol):
    """Exact fill for linear costs: cheapest cost-per-eta first."""
    moves = []
    with np.errstate(over="ignore"):  # a rate past the float range orders as inf
        for p in eff:
            target = hi[p] if beta1[p] > 0.0 else lo[p]
            avail = beta1[p] * (target - x[p])
            if avail <= 0.0:
                continue
            moves.append((lin[p] / beta1[p], p, avail))
    moves.sort()
    for _, p, avail in moves:
        if need <= 0.0:
            break
        take = min(avail, need)
        x[p] += take / beta1[p]
        need -= take
    if need > ftol:
        raise InfeasibleError(_UNREACHABLE)


def _padded_polys(cost: CostFunction, P: int) -> tuple:
    """The cost polynomials of the first P components; components the cost
    does not mention cost nothing."""
    infos = cost.polys[:P]
    return infos + (_ComponentPoly((0.0, 0.0)),) * (P - len(infos))


def _fold(terms):
    """Left-to-right sum from 0.0.  ``sum`` of floats is compensated from
    Python 3.12 on, and the lanes kernels copy this order."""
    acc = 0.0
    for term in terms:
        acc += term
    return acc


def _cheapest(cands) -> tuple:
    """The package of the cheapest (total, package) candidate within 1e-9
    relative: the lexicographically smallest, the first of equal ones."""
    if not cands:
        raise InfeasibleError(_UNREACHABLE)
    best = min(v for v, _ in cands)
    tol = max(1e-9, 1e-9 * abs(best))
    return min(vals for v, vals in cands if v <= best + tol)


def _min_cost_eta(beta0, beta1, cost: CostFunction, lo, hi, eta_target):
    """Minimize the separable cost over the box subject to
    beta0 + beta1 @ x >= eta_target.

    Exact for up to two components that actually enter the constraint.  Up
    to six, the candidates are every combination of bounds and interior
    stationary points (accepted within the solver's tolerance, so they keep
    a corner that the slices below can miss by rounding), the minimum over
    the feasible slice for a single component, and the exact pair minimum
    on every pair with the other components at those fixings, which covers
    fixing all components but one.  From three on, the Lagrangian point at
    the root of the eta multiplier (``_dual_candidate``) adds a candidate
    and exact pairwise descent refines the best; the eta-maximizing corner
    is the fallback (deterministic, near-exact).  Three to six components
    are enumerated as arrays (``_fixing_lanes``), as the one-problem call of
    ``_min_cost_problems``.
    """
    (x,) = _min_cost_problems([beta0], [beta1], cost, lo, hi, [eta_target])
    if isinstance(x, LagoError):
        raise x
    return x


def _min_cost_problems(beta0, beta1, cost: CostFunction, lo, hi, eta_target) -> list:
    """``_min_cost_eta`` of each problem n (beta0[n], beta1[n], eta_target[n]):
    a package or a LagoError.  The searches that reach the enumeration with
    the same effective components share one ``_fixing_lanes`` call."""
    out, waiting = [None] * len(beta0), {}

    def advance(n, search, pick=None):
        try:
            eff, *request = (search.throw if isinstance(pick, LagoError) else search.send)(pick)
            waiting.setdefault(eff, []).append((n, search, *request))
        except StopIteration as done:
            out[n] = done.value
        except LagoError as exc:
            out[n] = exc

    for n, problem in enumerate(zip(beta0, beta1, eta_target)):
        advance(n, _min_cost_search(*problem, cost, lo, hi))
    for eff, members in waiting.items():
        ns, searches, betas, needs, ftols, fixed = zip(*members)
        picks = _fixing_lanes(_padded_polys(cost, len(lo)), betas, eff, lo.tolist(), hi.tolist(),
                              needs, ftols, fixed[0])
        for n, search, pick in zip(ns, searches, picks):
            advance(n, search, pick)
    return out


def _min_cost_search(beta0, beta1, eta_target, cost: CostFunction, lo, hi):
    """``_min_cost_eta`` of one problem as a generator: from three to six
    effective components it yields (eff, beta1, need, ftol, fixed) and takes
    ``_fixing_lanes``' pick."""
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
    # On Python floats a cost that overflows on the box gives inf and nan
    # silently, and min_on raises NonFiniteError.
    for p, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        x[p] = infos[p].min_on(a, b)[0]
    if beta0 + float(beta1 @ x) >= eta_t - ftol:
        return x

    eff = [p for p in range(P) if beta1[p] != 0.0 and hi[p] > lo[p]]
    base = beta0 + _fold(beta1[p] * x[p] for p in range(P) if p not in eff)
    need = eta_t - base  # residual the effective components must supply

    if cost.is_linear:
        lin = [poly.coeffs[1] for poly in infos]
        _greedy_linear(x, lin, beta1, eff, lo, hi, eta_t - (beta0 + float(beta1 @ x)), ftol)
        return x

    # The search below is scalar arithmetic: run it on Python floats.
    beta1, lo, hi, need = beta1.tolist(), lo.tolist(), hi.tolist(), float(need)
    # Each effective component's free minimum and fixings, once per problem.
    free = x.tolist()
    fixed = {p: (free[p], infos[p].options_on(lo[p], hi[p])) for p in eff}
    if 3 <= len(eff) <= 6:
        chosen = yield tuple(eff), beta1, need, ftol, fixed
    else:
        cands = []

        def consider(values: dict) -> None:
            supplied = _fold(beta1[p] * values[p] for p in eff)
            if supplied >= need - ftol and all(
                lo[p] - 1e-12 <= values[p] <= hi[p] + 1e-12 for p in eff
            ):
                total = _fold(infos[p](values[p]) for p in eff)
                cands.append((total, tuple(min(max(values[p], lo[p]), hi[p]) for p in eff)))

        # The eta-maximizing corner is always feasible after the clamp above.
        consider({p: (hi[p] if beta1[p] > 0.0 else lo[p]) for p in eff})

        if len(eff) <= 2:
            for assign in itertools.product(*(fixed[p][1] for p in eff)):
                consider(dict(zip(eff, assign)))
            if len(eff) == 1:
                (f,) = eff
                sl = _feasible_slice(beta1[f], lo[f], hi[f], need)
                if sl is not None:
                    consider({f: infos[f].min_on(*sl)[0]})
            if len(eff) == 2:
                f, g = eff
                res = _min_pair(
                    infos[f], infos[g], beta1[f], beta1[g],
                    (lo[f], hi[f]), (lo[g], hi[g]), need, ftol, (fixed[f], fixed[g]),
                )
                if res is not None:
                    consider(dict(zip(eff, res)))
        else:
            dual = _dual_candidate(infos, beta1, eff, lo, hi, need, ftol)
            if dual is not None:
                consider(dual)
        chosen = dict(zip(eff, _cheapest(cands)))

    if len(eff) >= 3:
        chosen = _pair_descent(chosen, infos, beta1, eff, lo, hi, need, ftol, fixed)

    for p in eff:
        x[p] = chosen[p]
    return x


def _multiplier_argmin(coeffs, beta: float, low: float, high: float):
    """mu -> the argmin on [low, high] of the polynomial ``coeffs`` less
    mu * beta * x; a cubic's stationary-point constants that do not depend
    on mu are computed once (``_quadratic_points``)."""
    c0, c1, *rest = coeffs
    cubic = len(coeffs) == 4 and coeffs[3] != 0.0
    roots = (_quadratic_points(2 * coeffs[2], 3 * coeffs[3]) if cubic
             else lambda c: _stationary_points([c0, c, *rest]))

    def argmin(mu):
        c = c1 - mu * beta
        return _argmin_on([c0, c, *rest], roots(c), low, high)

    return argmin


def _dual_candidate(infos, beta1, eff, lo, hi, need, ftol):
    """Lagrangian minimizer at the root of supplied(solve(mu)) - (need - ftol)
    in the eta multiplier mu, bracket doubled from 1; None past mu = 2^59."""
    parts = [(p, _multiplier_argmin(infos[p].coeffs, beta1[p], lo[p], hi[p])) for p in eff]

    def residual(mu):
        supplied = 0.0  # ``_fold`` of beta_p * x_p(mu) in ``eff`` order, with no dict
        for p, argmin in parts:
            supplied += beta1[p] * argmin(mu)
        return supplied - (need - ftol)

    mu_lo, f_lo, mu_hi = 0.0, residual(0.0), 1.0
    for _ in range(60):
        if (f_hi := residual(mu_hi)) >= 0.0:
            mu = _passing_root(residual, mu_lo, mu_hi, f_lo, f_hi)[0]
            return {p: argmin(mu) for p, argmin in parts}
        mu_lo, f_lo, mu_hi = mu_hi, f_hi, 2.0 * mu_hi
    return None


def _pair_descent(values, infos, beta1, eff, lo, hi, need, ftol, fixed):
    """Exact coordinate descent over component pairs; deterministic.

    A pair's minimum depends only on the other components' values, so a
    pair evaluated since the last move would not move and is skipped.
    """
    values = dict(values)
    moves, seen = 0, {}
    for _ in range(50):
        improved = False
        for f, g in itertools.combinations(eff, 2):
            if seen.get((f, g)) == moves:
                continue
            rem = need - _fold(beta1[p] * values[p] for p in eff if p not in (f, g))
            res = _min_pair(
                infos[f], infos[g], beta1[f], beta1[g],
                (lo[f], hi[f]), (lo[g], hi[g]), rem, ftol, (fixed[f], fixed[g]),
            )
            if res is not None:
                cf, cg = infos[f].coeffs, infos[g].coeffs
                cur = _horner(cf, values[f]) + _horner(cg, values[g])
                new = _horner(cf, res[0]) + _horner(cg, res[1])
                if new < cur - 1e-12 * (1.0 + abs(cur)):
                    values[f], values[g] = res
                    improved, moves = True, moves + 1
            seen[f, g] = moves
        if not improved:
            break
    return values


# ---------------------------------------------------------------------------
# the same search as arrays
#
# ``_min_cost_lanes`` runs ``_min_cost_eta``'s two-component search with one
# numpy operation per scalar operation, over every lane of a call, and
# ``_fixing_lanes`` its three-to-six-component enumeration over the
# candidate rows of every problem of a call.  Both solve their pairs with
# ``_min_pair_lanes``.  Python's max(a, b) and min(a, b) keep the first
# argument on ties, Python's min over candidates keeps the first of equal
# ones, and sums fold left to right from 0.0 (``_fold``), so the helpers
# below spell those rules out and the packages come out bitwise equal to
# the scalar solver's.
# ---------------------------------------------------------------------------

def _py_max(a, b):
    return np.where(b > a, b, a)


def _py_min(a, b):
    return np.where(b < a, b, a)


def _first_min(keep, *keys):
    """Per column of the (candidates, lanes) arrays ``keys``: the index of the
    lexicographically smallest kept candidate, the first of equal ones."""
    for key in keys:
        smallest = np.where(keep, key, np.inf).min(axis=0)
        keep = keep & (key == smallest)
    return keep.argmax(axis=0)


def _cheapest_rows(ok, total, *keys):
    """``_cheapest`` per column of the (candidates, lanes) arrays: the index
    of the kept candidate it picks by ``total`` and then ``keys``, and
    whether the lane keeps any candidate."""
    best = np.where(ok, total, np.inf).min(axis=0)
    near = ok & (total <= best + _py_max(1e-9, 1e-9 * np.abs(best)))
    return _first_min(near, *keys), ok.any(axis=0)


def _pick(values, index):
    """values[index[j], j] for every column j of the candidate rows."""
    flat = values.reshape(len(values), -1)
    return flat[index.ravel(), np.arange(flat.shape[1])].reshape(index.shape)


def _min_on_lanes(coeffs, stationary, a, b):
    """``_ComponentPoly(coeffs).min_on(a, b)[0]`` elementwise for a <= b.

    ``a`` and ``b`` have one shape; ``stationary`` lists the polynomial's
    stationary points in ascending order as (point, present) pairs, floats
    or arrays that broadcast to it.
    """
    cands = np.empty((2 + len(stationary),) + a.shape)
    keep = np.empty(cands.shape, bool)
    cands[0], cands[1] = a, b
    keep[:2] = True
    for j, (t, present) in enumerate(stationary, start=2):
        cands[j] = t
        keep[j] = present & (a < t) & (t < b)
    vals = _horner(coeffs, cands)
    vmin = np.where(keep, vals, np.inf).min(axis=0)
    near = keep & (vals <= vmin + 1e-12 * (1.0 + np.abs(vmin)))
    return _pick(cands, _first_min(near, cands))


def _cubic_stationary(h):
    """``_stationary_points`` of the lane cubics with coefficients ``h``, as
    two ascending (point, present) slots, and the mask of the lanes they
    describe: finite coefficients and a nonzero leading one."""
    c0, b, a = h[1], 2 * h[2], 3 * h[3]  # 1 * h[1] is h[1]
    disc = b * b - 4.0 * a * c0
    real = disc >= 0.0
    q = -0.5 * (b + np.copysign(np.sqrt(np.where(real, disc, 0.0)), b))
    t1, t2 = q / a, c0 / q
    two = real & (q != 0.0) & (t1 != t2)
    re = -b / (2.0 * a)
    imag = np.sqrt(np.where(real, 0.0, -disc)) / (2.0 * np.abs(a))
    near_real = imag <= 1e-9 * (1.0 + np.abs(re))
    first = np.where(real, np.where(q != 0.0, np.where(two, np.minimum(t1, t2), t1), 0.0), re)
    usable = (a != 0.0) & np.isfinite(h[0] + h[1] + h[2] + h[3])
    return ((first, real | near_real), (np.maximum(t1, t2), two)), usable


def _slice_lanes(beta, lo: float, hi: float, residual):
    """``_feasible_slice`` elementwise: (start, end, nonempty) for beta != 0."""
    q = residual / beta
    up = beta > 0.0
    start, end = _py_max(lo, q), _py_min(hi, q)
    return np.where(up, start, lo), np.where(up, hi, end), np.where(up, start <= hi, end >= lo)


class _LanePolys(NamedTuple):
    """One component polynomial per lane, as ``_min_pair_lanes`` reads it.

    ``coeffs`` ascend in degree: floats shared by every lane, or lane
    arrays zero-padded to one length, with ``padded`` True on the lanes
    whose polynomial was shorter.  ``stationary`` holds the stationary
    points in ascending (point, present) slots, ``options`` the candidate
    fixings (bounds and interior stationary points) as (K, 1) rows or K
    rows that broadcast against the lanes, a lane with fewer repeating its
    first, and ``free`` the minimum over the whole box.
    """

    coeffs: list
    stationary: list
    options: np.ndarray
    free: object
    padded: object = False


def _shared_lanes(poly: _ComponentPoly, lo: float, hi: float) -> _LanePolys:
    """``_LanePolys`` of one polynomial and box shared by every lane."""
    return _LanePolys(poly.coeffs, [(t, True) for t in poly.stationary],
                      np.array(poly.options_on(lo, hi))[:, None], poly.min_on(lo, hi)[0])


def _min_pair_lanes(info_f, info_g, bf, bg, box_f, box_g, residual, ftol):
    """``_min_pair`` elementwise over lane arrays bf, bg, residual and ftol
    of one shape, ``_LanePolys`` info_f and info_g and boxes of floats or
    lane arrays that broadcast to it.

    Returns (xf, xg, found, exact): the pair on lanes where ``found``, and
    ``exact`` False on lanes this cannot match: a constraint-active segment
    whose polynomial is not a cubic, or comes from padded coefficients with
    a zero h[1] or h[2], or a non-finite candidate.
    """
    (lo_f, hi_f), (lo_g, hi_g) = box_f, box_g
    fix_f, fix_g = info_f.options, info_g.options
    # Candidate rows: both free minima, each fixing of f with the best g
    # on its feasible slice, each fixing of g likewise, the segment.  A
    # repeated fixing repeats an earlier row, which the pick never prefers.
    rows_f, rows_g = slice(1, 1 + len(fix_f)), slice(1 + len(fix_f), -1)
    xf = np.empty((2 + len(fix_f) + len(fix_g),) + residual.shape)
    xg = np.empty(xf.shape)
    ok = np.empty(xf.shape, bool)
    start, end = np.empty(xf.shape), np.empty(xf.shape)
    xf[0], xg[0], ok[0] = info_f.free, info_g.free, True
    start[rows_f], end[rows_f], ok[rows_f] = _slice_lanes(bg, lo_g, hi_g, residual - bf * fix_f)
    start[rows_g], end[rows_g], ok[rows_g] = _slice_lanes(bf, lo_f, hi_f, residual - bg * fix_g)
    # Constraint-active segment: xg = A + B*xf restricted to both boxes.
    A, B = residual / bg, -bf / bg
    up = B > 0.0
    start[-1] = _py_max(lo_f, (np.where(up, lo_g, hi_g) - A) / B)
    end[-1] = _py_min(hi_f, (np.where(up, hi_g, lo_g) - A) / B)
    on_seg = ok[-1] = (B != 0.0) & (start[-1] <= end[-1])
    h = [np.asarray(c) for c in _segment_coeffs(info_f.coeffs, info_g.coeffs, A, B)]
    stationary, cubic = _cubic_stationary(h)
    padded = info_f.padded | info_g.padded
    if padded is not False:
        # Padding changes only the sign of zero coefficients, which moves a
        # stationary point only through a zero h[1] or h[2].
        cubic = cubic & ~(padded & ((h[1] == 0.0) | (h[2] == 0.0)))
    # One exact minimum over the slices and the segment: g's polynomial on
    # f's rows, f's on g's, the segment's on the last.  Zero coefficients
    # above a polynomial's degree leave its values unchanged.
    on_f, on_g = slice(0, len(fix_f)), slice(len(fix_f), -1)  # rows_f and rows_g, less row 0
    groups = ((info_g.coeffs, info_g.stationary, on_f), (info_f.coeffs, info_f.stationary, on_g),
              (h, stationary, -1))
    S = max(len(slots) for _, slots, _ in groups)
    coeffs = np.zeros((len(h),) + start[1:].shape)
    point, present = np.zeros((S,) + start[1:].shape), np.zeros((S,) + start[1:].shape, bool)
    for poly, slots, rows in groups:
        for k, ck in enumerate(poly):
            coeffs[k, rows] = ck
        for j, (t, there) in enumerate(slots):
            point[j, rows], present[j, rows] = t, there
    best_on = _min_on_lanes(list(coeffs), list(zip(point, present)), start[1:], end[1:])
    xf[rows_f], xg[rows_f] = fix_f, best_on[on_f]
    xf[rows_g], xg[rows_g] = best_on[on_g], fix_g
    xf[-1] = best_on[-1]
    xg[-1] = A + B * xf[-1]

    xf = _py_min(_py_max(xf, lo_f), hi_f)
    xg = _py_min(_py_max(xg, lo_g), hi_g)
    value = _horner(info_f.coeffs, xf) + _horner(info_g.coeffs, xg)
    ok = ok & (bf * xf + bg * xg >= residual - ftol)
    index, found = _cheapest_rows(ok, value, xf, xg)
    finite = np.isfinite(xf) & np.isfinite(xg) & np.isfinite(value)
    exact = (cubic | ~on_seg) & (finite | ~ok).all(axis=0)
    return _pick(xf, index), _pick(xg, index), found, exact


def _component_lanes(polys, table, free, *picks) -> list:
    """``_LanePolys`` of the components ``polys`` (at most cubic) picked per
    lane by each index array in ``picks``; row e of ``table`` holds the
    fixings of component e and ``free[e]`` its minimizer on its box."""
    coeffs = np.array([poly.coeffs + [0.0] * (4 - len(poly.coeffs)) for poly in polys])
    S = max(len(poly.stationary) for poly in polys)
    point, present = np.zeros((len(polys), S)), np.zeros((len(polys), S), bool)
    for e, poly in enumerate(polys):
        point[e, :len(poly.stationary)] = poly.stationary
        present[e, :len(poly.stationary)] = True
    free = np.array(free)
    short = np.array([len(poly.coeffs) < 4 for poly in polys])
    return [
        _LanePolys(list(coeffs[c].T), [(point[c, s], present[c, s]) for s in range(S)],
                   table[c].T, free[c], short[c])
        for c in picks
    ]


def _fixing_lanes(infos, betas, eff, lo, hi, needs, ftols, fixed) -> list:
    """The package ``_min_cost_eta`` picks among its candidates for 3 to 6
    effective components ``eff``, as arrays over the candidate rows of each
    problem n (effects betas[n], need needs[n], tolerance ftols[n]): a dict,
    or the LagoError its search raises.

    The rows come in the scalar search's order: the eta-maximizing corner,
    every fixing of all components at a bound or interior stationary point,
    the exact pair minimum of each pair (``combinations`` order) with the
    others at each of their fixings (``product`` order), then the
    Lagrangian point (``_dual_candidate``).  The pair minima of up to
    ``PAIR_LANES`` pair lanes (or one problem's) come from one
    ``_min_pair_lanes`` call; a lane it cannot match, and every lane when a
    component is above cubic or a box is not finite, goes through
    ``_min_pair``.  Arguments are Python floats and lists, as in
    ``_min_cost_eta``, and ``fixed`` its component table.
    """
    E = len(eff)
    polys = [infos[p] for p in eff]
    lo_e, hi_e = np.array([lo[p] for p in eff]), np.array([hi[p] for p in eff])
    opts = [fixed[p][1] for p in eff]
    K = max(map(len, opts))
    table = np.array([o + o[:1] * (K - len(o)) for o in opts])  # (E, K), first repeated
    idx = np.indices([len(o) for o in opts]).reshape(E, -1).T  # product order
    grid = table[np.arange(E), idx]  # every fixing, (F, E)
    # Pair lanes, in combinations x product order: pair (i, j) with the
    # others at each of their fixings, i.e. at the fixings holding i and j
    # at their first option.
    i, j = np.array(list(itertools.combinations(range(E), 2))).T
    q, rows = np.nonzero((idx[:, i] == 0).T & (idx[:, j] == 0).T)
    fi, gi, lanes = i[q], j[q], np.arange(len(rows))
    fit = max(len(poly.coeffs) for poly in polys) <= 4 and np.isfinite(lo_e + hi_e).all()
    if fit:  # fixings as (K, 1, lanes) rows, broadcast over the problems
        info_f, info_g = (info._replace(options=info.options[:, None]) for info in
                          _component_lanes(polys, table, [fixed[p][0] for p in eff], fi, gi))
    fixings = np.concatenate((grid, grid[rows]))  # the grid, then each pair lane's others
    B, tols = np.array([[b[p] for p in eff] for b in betas]), np.array([needs, ftols])[..., None]
    out, size, pairs = [None] * len(B), max(1, PAIR_LANES // len(rows)), slice(1 + len(grid), -1)
    for a in range(0, len(B), size):
        chunk, b, (need, ftol) = range(a, min(a + size, len(B))), B[a:a + size], tols[:, a:a + size]
        # Per problem: the corner, fixings, pairs, Lagrangian point (nan till found).
        V = np.empty((len(b), 2 + len(grid) + len(rows), E))
        V[:, 0], V[:, 1:-1], V[:, -1] = np.where(b > 0.0, hi_e, lo_e), fixings, np.nan
        paired, (pair_f, pair_g) = V[:, pairs], np.empty((2, len(b), len(rows)))
        found, exact = np.zeros((2, len(b), len(rows)), bool)
        with np.errstate(all="ignore"):
            others = b[:, None] * paired
            others[:, lanes, fi] = others[:, lanes, gi] = 0.0  # adding 0.0 to the fold is exact
            rem = need - _fold(others.transpose(2, 0, 1))
            if fit:
                pair_f, pair_g, found, exact = _min_pair_lanes(
                    info_f, info_g, b[:, fi], b[:, gi], (lo_e[fi], hi_e[fi]), (lo_e[gi], hi_e[gi]),
                    rem, ftol,
                )
        for m, n in enumerate(chunk):
            beta1 = betas[n]
            try:
                for k in np.flatnonzero(~exact[m]).tolist():
                    f, g = eff[fi[k]], eff[gi[k]]
                    res = _min_pair(infos[f], infos[g], beta1[f], beta1[g],
                                    (lo[f], hi[f]), (lo[g], hi[g]), float(rem[m, k]), ftols[n],
                                    (fixed[f], fixed[g]))
                    found[m, k] = res is not None
                    if res is not None:
                        pair_f[m, k], pair_g[m, k] = res
                dual = _dual_candidate(infos, beta1, eff, lo, hi, needs[n], ftols[n])
                if dual is not None:
                    V[m, -1] = [dual[p] for p in eff]
            except LagoError as exc:
                out[n] = exc
        paired[:, lanes, fi], paired[:, lanes, gi] = pair_f, pair_g

        with np.errstate(all="ignore"):
            ok = np.ones(V.shape[:2], bool)
            ok[:, pairs], ok[:, -1] = found, ~np.isnan(V[:, -1, 0])
            ok &= _fold((b[:, None] * V).transpose(2, 0, 1)) >= need - ftol
            ok &= ((lo_e - 1e-12 <= V) & (V <= hi_e + 1e-12)).all(axis=2)
            total = _fold(_horner(poly.coeffs, V[..., e]) for e, poly in enumerate(polys))
            V = _py_min(_py_max(V, lo_e), hi_e)
        for n, keep, t, x in zip(chunk, ok, total, V):
            if out[n] is None and np.isnan(t[keep]).any():  # Python's min orders nan its own way
                out[n] = _cheapest([(v, tuple(r)) for v, r, k
                                    in zip(t.tolist(), x.tolist(), keep.tolist()) if k])
            elif out[n] is None and keep.any():
                best = float(t[keep].min())
                near = keep & (t <= best + max(1e-9, 1e-9 * abs(best)))
                out[n] = min(x[near].tolist())  # rows in order: Python's pick
    return [x if isinstance(x, LagoError) else InfeasibleError(_UNREACHABLE) if x is None
            else dict(zip(eff, x)) for x in out]


def _min_cost_lanes(beta0, beta1, cost: CostFunction, lo, hi, eta_target) -> list:
    """``_min_cost_eta`` for each lane: beta0[L], beta1[L, P], eta_target[L]
    and one cost and box (lo, hi) for all lanes.  Returns one package or one
    LagoError per lane, bitwise equal to the scalar solver's.

    From P = 3 on the lanes are the problems of one ``_min_cost_problems``
    call.  The common case is solved for all its lanes together: P = 2, more
    than one lane, a nonlinear cost of at most cubic components and hi > lo;
    on each lane finite values, two nonzero effects and a cubic
    constraint-active segment.  Every other lane goes through ``_min_cost_eta``.
    """
    beta0 = np.asarray(beta0, dtype=float)
    beta1 = np.asarray(beta1, dtype=float)
    eta_target = np.asarray(eta_target, dtype=float)
    L, P = beta1.shape
    if P >= 3:
        return _min_cost_problems(beta0, beta1, cost, lo, hi, eta_target)
    out = [None] * L
    infos = _padded_polys(cost, P)
    if (L > 1 and P == 2 and bool((hi > lo).all())
            and max(len(info.coeffs) for info in infos) == 4):
        with np.errstate(all="ignore"):
            _pair_lanes(out, beta0, beta1, infos, lo, hi, eta_target)
    for i, x in enumerate(out):
        if x is None:
            try:
                out[i] = _min_cost_eta(beta0[i], beta1[i], cost, lo, hi, eta_target[i])
            except LagoError as exc:
                out[i] = exc
    return out


def _pair_lanes(out, beta0, beta1, infos, lo, hi, eta_target) -> None:
    """The common case of ``_min_cost_lanes``: fill ``out`` on the lanes it
    solves, in ``_min_cost_eta``'s order of checks and candidates."""
    eta_max = beta0 + np.maximum(beta1 * lo, beta1 * hi).sum(axis=1)
    # A non-finite beta0 or effect makes eta_max non-finite.
    common = np.isfinite(eta_max + eta_target) & (beta1[:, 0] != 0.0) & (beta1[:, 1] != 0.0)
    # Non-negative operands: np.maximum keeps Python's max bitwise here.
    ftol = 1e-9 * np.maximum(np.maximum(1.0, np.abs(eta_max)), np.abs(eta_target))
    over = common & (eta_target > eta_max + ftol)
    for i in np.flatnonzero(over):
        out[i] = _beyond_eta_max(eta_target[i], eta_max[i])
    eta_t = _py_min(eta_target, eta_max)

    x_free = np.empty(2)
    try:
        for p in range(2):
            x_free[p] = infos[p].min_on(lo[p], hi[p])[0]
    except NonFiniteError:  # the lanes left over fail in _min_cost_eta, one at a time
        return
    reach, floor = beta0 + beta1 @ x_free, eta_t - ftol
    # The scalar solver's dot product may round differently; near the
    # boundary take its own expression.
    margin = 1e-12 * (1.0 + np.abs(beta0) + np.abs(beta1) @ np.abs(x_free) + np.abs(floor))
    for i in np.flatnonzero(common & (np.abs(reach - floor) <= margin)):
        reach[i] = beta0[i] + float(beta1[i] @ x_free)
    free = common & ~over & (reach >= floor)
    for i in np.flatnonzero(free):
        out[i] = x_free.copy()
    work = np.flatnonzero(common & ~over & ~free)
    if not work.size:
        return

    beta0, ftol = beta0[work], ftol[work]
    bf, bg = beta1[work, 0], beta1[work, 1]
    need = eta_t[work] - (beta0 + 0.0)
    (lo_f, lo_g), (hi_f, hi_g) = lo.tolist(), hi.tolist()
    info_f, info_g = infos
    pair_f, pair_g, found, exact = _min_pair_lanes(
        _shared_lanes(info_f, lo_f, hi_f), _shared_lanes(info_g, lo_g, hi_g),
        bf, bg, (lo_f, hi_f), (lo_g, hi_g), need, ftol,
    )
    # Candidate rows: the eta-maximizing corner, every fixing of both
    # components, the pair.
    fixings = np.array(list(itertools.product(
        info_f.options_on(lo_f, hi_f), info_g.options_on(lo_g, hi_g),
    )))
    xf = np.empty((len(fixings) + 2, work.size))
    xg = np.empty(xf.shape)
    ok = np.empty(xf.shape, bool)
    xf[0], xg[0] = np.where(bf > 0.0, hi_f, lo_f), np.where(bg > 0.0, hi_g, lo_g)
    xf[1:-1], xg[1:-1] = fixings[:, :1], fixings[:, 1:]
    xf[-1], xg[-1] = pair_f, pair_g
    ok[:-1], ok[-1] = True, found
    ok &= ((0.0 + bf * xf) + bg * xg >= need - ftol)
    ok &= (lo_f - 1e-12 <= xf) & (xf <= hi_f + 1e-12) & (lo_g - 1e-12 <= xg) & (xg <= hi_g + 1e-12)
    total = (0.0 + _horner(info_f.coeffs, xf)) + _horner(info_g.coeffs, xg)
    xf = _py_min(_py_max(xf, lo_f), hi_f)
    xg = _py_min(_py_max(xg, lo_g), hi_g)
    index, solved = _cheapest_rows(ok, total, xf, xg)
    x = np.stack([_pick(xf, index), _pick(xg, index)], axis=1)
    for k, i in enumerate(work):
        if exact[k]:
            out[i] = x[k].copy() if solved[k] else InfeasibleError(_UNREACHABLE)


def min_cost_subject_to_threshold(
    model: FittedModel,
    cost: CostFunction,
    bounds,
    threshold: float,
    direction: str = "increase",
) -> np.ndarray:
    """Cheapest package whose predicted outcome meets ``threshold``.

    For an increase goal the constraint is predict(x) >= threshold; for a
    decrease goal, predict(x) <= threshold.  Raises InfeasibleError when no
    package inside the bounds satisfies it.
    """
    lo, hi = _bounds_arrays(bounds, model.n_components)
    return _min_cost_at_level(model, cost, lo, hi, threshold, direction)


def _min_cost_at_level(model, cost, lo, hi, threshold: float, direction: str):
    """``min_cost_subject_to_threshold`` inside validated bounds (lo, hi)."""
    sign, eta_t = _level_target(model, cost, threshold, direction)
    return _min_cost_eta(sign * model.intercept, sign * model.effects, cost, lo, hi, eta_t)


def _level_target(model, cost, threshold: float, direction: str):
    """The checks ``min_cost_subject_to_threshold`` makes past the bounds,
    then the direction's sign and the working linear-predictor target."""
    if cost.max_component >= model.n_components:
        raise ValueError(
            f"cost references component {cost.max_component + 1} but the model "
            f"has {model.n_components} components"
        )
    _check_level_domain(model.link, threshold)
    sign = _direction_sign(direction)
    return sign, sign * float(link_forward(model.link, threshold))


# ---------------------------------------------------------------------------
# power thresholds
# ---------------------------------------------------------------------------

def _state_summary(trial_state, test: TestSelector | None, k: int) -> ArmSummary:
    records = [rec for rec in trial_state.completed if rec.stage_index < k]
    future = trial_state.future_arm_sizes(k)
    continuous = bool(test is not None and test.continuous_outcome)
    return ArmSummary.from_records(records, future=future, continuous=continuous)


def _threshold_core(models, summaries, goals: GoalSpec, cost, lo, hi, beta, eta_max, out):
    """Each lane's smallest future outcome level that certifies the power
    goal: the package's one threshold search.

    Returns (proj, eta_pow): the lanes' ``_lane_projection`` (None for the
    Wald tests and for one lane) and each lane's threshold on the working
    scale, nan where none exists inside the validated bounds (lo, hi).
    ``beta`` stacks the lanes' coefficients and ``eta_max`` their best
    working levels.  A lane whose search raises a ``_LANE_ERRORS`` error
    gets it in ``out``; any other exception propagates.

    A lane's bracket runs on the working linear predictor from its control
    level to its best level, and its threshold is the root of a signed
    residual that is >= 0 exactly where the goal is certified (so nan
    fails): power - pi (-inf while the projected drift points the wrong way)
    unconditionally, -slack conditionally, and for the Wald test the power
    of the cost-minimal package minus pi.  The lanes step in lockstep
    through one ``_passing_roots`` call, which returns each bracket's
    passing end, so the certificate holds at the reported level.  The lanes
    of ``proj.exact`` are evaluated as arrays; every other lane (Wald,
    outside ``exact``, or alone in its call) by the scalar residual on its
    own ``_Projection``, which computes the level-free parts once per search.
    """
    L = len(models)
    test, alpha, pi = goals.test, goals.alpha, goals.power_goal
    direction, link = goals.direction, models[0].link
    sign = _direction_sign(direction)
    proj, exact = None, np.zeros(L, bool)
    if L > 1 and not test.wald:
        proj = _lane_projection(link, beta[:, 0], summaries, test, alpha, pi)
        exact = proj.exact
    own = {i: _Projection(models[i], summaries[i], test, alpha, pi)
           for i in np.flatnonzero(~exact).tolist()}
    level, failed = np.zeros(L), np.zeros(L, bool)

    def scalar(i, eta_w: float) -> float:
        """Lane i's residual by the scalar forms; nan once it has raised."""
        if failed[i]:
            return math.nan
        model, summary = models[i], own[i]
        try:
            raw = _raw_level(link, eta_w, direction)
            if test.wald:
                x = _min_cost_at_level(model, cost, lo, hi, raw, direction)
                return unconditional_power(x, model, summary, test, alpha) - pi
            if goals.approach == "unconditional":
                drift = projected_drift_at_level(raw, model, summary)
                if sign * drift <= 0.0:
                    return -math.inf
                return unconditional_power_at_level(raw, model, summary, test, alpha) - pi
            return -conditional_slack_at_level(
                raw, model, summary, test, alpha, pi,
                direction=direction, scale=goals.conditional_scale,
            )
        except _LANE_ERRORS as exc:
            failed[i], out[i] = True, exc
            return math.nan

    def residual(eta_w, at):
        """The residuals of the lanes ``at`` at the working levels ``eta_w``;
        nan on a lane whose residual has raised, which is evaluated no more."""
        if own:
            f = np.array([scalar(i, x) if i in own else math.nan
                          for i, x in zip(at.tolist(), eta_w.tolist())])
        else:
            f = np.full(at.size, math.nan)
        if proj is None:
            return f
        fast = exact[at] & ~failed[at]
        lanes = at[fast]
        # The arrays hold every lane, and a lane outside ``exact`` may divide
        # by zero there; no entry of such a lane is read.
        with np.errstate(all="ignore"):
            level[lanes] = _link_inverse_lanes(link, sign * eta_w[fast])
            f[fast], degenerate = _threshold_residual_lanes(
                level, lanes, proj, goals.approach, direction, goals.conditional_scale)
        for i in lanes[degenerate].tolist():
            failed[i], out[i] = True, DegenerateVarianceError("zero projected variance")
        return f

    eta_lo = sign * beta[:, 0]  # the control levels
    f_lo = residual(eta_lo, np.arange(L))
    passing = f_lo >= 0.0
    eta_pow = np.where(passing, eta_lo, math.nan)
    lanes = np.flatnonzero(~passing & ~failed)
    f_hi = residual(eta_max[lanes], lanes)
    bracketed = f_hi >= 0.0
    roots = lanes[bracketed]
    eta_pow[roots] = _passing_roots(
        lambda x, at: residual(x, roots[at]),
        eta_lo[roots], eta_max[roots], f_lo[roots], f_hi[bracketed],
    )[0]
    eta_pow[failed] = math.nan
    return proj, eta_pow


def power_threshold(
    model: FittedModel,
    trial_state,
    goals: GoalSpec,
    cost: CostFunction | None = None,
    bounds=None,
) -> float:
    """Outcome level (raw orientation) above which the power goal certifies.

    Uses the completed stages of ``trial_state`` as observed data and the
    remaining planned stages as the future sample.  For the package-df Wald
    test the certificate is evaluated along the cost-minimal package of each
    level, i.e. at the package the recommendation itself would deploy.
    """
    if goals.power_goal is None:
        raise ValueError("goals.power_goal is required")
    cost = cost if cost is not None else trial_state.config.cost
    bounds = bounds if bounds is not None else trial_state.config.bounds
    k_next = len(trial_state.completed) + 1
    summary = _state_summary(trial_state, goals.test, k_next)
    _check_summary(summary, goals.test)
    lo, hi = _bounds_arrays(bounds, model.n_components)
    _, eta_max = _eta_extremes(_work_model(model, goals.direction), lo, hi)
    out = [None]
    _, (eta,) = _threshold_core([model], [summary], goals, cost, lo, hi,
                                np.array([model.beta], dtype=float), np.array([eta_max]), out)
    if out[0] is not None:
        raise out[0]
    if math.isnan(eta):
        raise NoThresholdError("the power goal is not certified anywhere inside the bounds")
    return _raw_level(model.link, float(eta), goals.direction)


# ---------------------------------------------------------------------------
# recommendation dispatch
# ---------------------------------------------------------------------------

def shrinking_method(model: FittedModel, bounds, stage1_x, outcome_goal: float):
    """Fallback package when even the best level misses the outcome goal.

    Works on the increase orientation (callers mirror first).  Each
    component moves from its stage-1 value toward its upper bound by how
    convincingly its fitted effect approaches the effect size that would be
    needed to reach the goal with every other component at its best bound:
    effects at or below half the needed size leave the component at stage 1,
    effects at or past the needed size move it all the way.
    """
    lo, hi = _bounds_arrays(bounds, model.n_components)
    x1 = np.asarray(stage1_x, dtype=float)
    if x1.size != model.n_components:
        raise ValueError("stage1_x has the wrong number of components")
    if not np.isfinite(x1).all():
        raise ValueError("stage1_x must be finite")
    _check_level_domain(model.link, outcome_goal, what="outcome_goal")
    g_t = float(link_forward(model.link, outcome_goal))
    b = model.effects
    best = np.maximum(b * lo, b * hi)
    total_best = float(best.sum())
    x = x1.copy()
    for p in range(model.n_components):
        U = hi[p]
        if U <= 0.0:
            continue
        beta_max = (g_t - model.intercept - (total_best - best[p])) / U
        if beta_max <= 0.0:
            continue
        beta_min = 0.5 * beta_max
        if b[p] <= beta_min:
            continue
        frac = min(1.0, (b[p] - beta_min) / (beta_max - beta_min))
        x[p] = x1[p] + frac * (U - x1[p])
    return np.clip(x, lo, hi)


def _stage1_anchor(trial_state):
    """Stage-1 package that anchors the shrinking fallback, or None.

    The configured ``stage1_package`` when the trial sets one, otherwise the
    size-weighted mean intervention package of the earliest completed stage
    that has intervention centers.
    """
    if trial_state.config.stage1_package is not None:
        return trial_state.config.stage1_package
    for rec in sorted(trial_state.completed, key=lambda r: r.stage_index):
        treated = [c for c in rec.centers if c.arm == 1]
        if treated:
            sizes = [float(c.size) for c in treated]
            return np.average([c.package for c in treated], axis=0, weights=sizes)
    return None


def recommend_from_summary(
    model: FittedModel,
    summary: ArmSummary | None,
    goals: GoalSpec,
    cost: CostFunction,
    bounds,
    stage1_x=None,
) -> Recommendation:
    """Recommendation from a fitted model and arm totals: the one solver.

    Every other recommend entry point resolves its inputs and calls this,
    and this is ``_recommend_lanes`` on one lane.  The package is the
    cheapest one reaching the outcome goal and, with a power goal, the
    power threshold (regime goal-feasible).  When only the power threshold
    is out of reach it is the best-level package (pmax fallback).  When the
    outcome goal itself is out of reach, the shrinking fallback moves from
    ``stage1_x`` toward the bounds; without a ``stage1_x`` that case raises
    InfeasibleError.  ``summary`` (observed and planned arm sizes) may be
    None when the goals carry no power goal.
    """
    lo, hi = _bounds_arrays(bounds, model.n_components)
    if goals.power_goal is not None and summary is not None:
        _check_summary(summary, goals.test)
    (rec,) = _recommend_lanes([model], [summary], goals, cost, lo, hi, [stage1_x])
    if isinstance(rec, Exception):
        raise rec
    return rec


def _recommend_lanes(models, summaries, goals: GoalSpec, cost, lo, hi, anchors) -> list:
    """One recommendation per lane, each lane a fitted model with its arm
    totals and shrinking anchor, all under one set of goals, cost and
    validated bounds (lo, hi).  The models share one link; ``summaries`` is
    a sequence of ArmSummary (None entries without a power goal), or
    ``power._LaneSummaries``.

    The lanes are decided together, as arrays: the best working level, the
    power threshold (one ``_threshold_core`` search), the regime, one
    ``_min_cost_lanes`` call for the goal-feasible and pmax lanes, the
    shrinking fallback for each shrinking lane, then the achieved outcome,
    projected power and cost.  A lane outside the search's ``exact`` lanes
    takes the scalar ``_projected_power``, as it took the scalar residual.
    Each lane's Recommendation is bitwise the one its own decision gives;
    the tests keep that per-lane decision as the oracle.  Returns, per
    lane, its Recommendation or the ``_LANE_ERRORS`` exception its decision
    raised; any other exception propagates.
    """
    L = len(models)
    out = [None] * L
    if not L:
        return out
    direction, link = goals.direction, models[0].link
    if any(model.link != link for model in models):
        raise ValueError("the lanes' models must share one link")
    sign = _direction_sign(direction)
    beta = np.array([model.beta for model in models], dtype=float)
    work = sign * beta  # each lane's _work_model
    _, eta_max = _eta_extremes(SimpleNamespace(intercept=work[:, 0], effects=work[:, 1:]), lo, hi)
    ftol = 1e-9 * np.fmax(np.abs(eta_max), 1.0)

    eta_goal = None
    if goals.outcome_goal is not None:
        _check_level_domain(link, goals.outcome_goal, what="outcome_goal")
        eta_goal = sign * float(link_forward(link, goals.outcome_goal))
    proj, eta_pow = None, np.full(L, math.nan)  # nan: no power threshold
    if goals.power_goal is not None:
        if not isinstance(summaries, _LaneSummaries) and any(s is None for s in summaries):
            raise ValueError("a power goal needs observed/planned arm sizes")
        proj, eta_pow = _threshold_core(models, summaries, goals, cost, lo, hi, beta, eta_max, out)

    attainable = ~np.isnan(eta_pow)
    if eta_goal is None:
        # Power goal alone: its threshold if one exists, else the best level.
        goal, candidate, shrink = attainable, eta_pow, np.zeros(L, bool)
    else:
        if goals.power_goal is None:
            candidate = np.full(L, eta_goal)
        else:
            candidate = np.where(attainable, np.where(eta_pow > eta_goal, eta_pow, eta_goal), math.inf)
        goal = candidate <= eta_max + ftol
        shrink = ~goal & ~(eta_goal <= eta_max + ftol)
    eta_eff = np.where(goal, candidate, eta_max)

    live = np.array([rec is None for rec in out])
    packages, required = [None] * L, np.full(L, math.nan)
    solve = np.flatnonzero(live & ~shrink)
    if solve.size:
        required[solve] = _link_inverse_lanes(link, sign * eta_eff[solve])
        target, cap = eta_eff[solve], eta_max[solve]
        solved = _min_cost_lanes(
            work[solve, 0], work[solve, 1:], cost, lo, hi, np.where(cap < target, cap, target))
        for i, x in zip(solve.tolist(), solved):
            packages[i] = x
    for i in np.flatnonzero(live & shrink).tolist():
        try:
            if anchors[i] is None:
                raise InfeasibleError(
                    "no package inside the bounds reaches the outcome goal, and "
                    "the shrinking fallback has no stage-1 anchor package"
                )
            goal_w = float(link_inverse(link, eta_goal))
            packages[i] = shrinking_method(
                _work_model(models[i], direction), np.column_stack((lo, hi)), anchors[i], goal_w)
            required[i] = float(goals.outcome_goal)
        except _LANE_ERRORS as exc:
            out[i] = exc
    for i, x in enumerate(packages):
        if isinstance(x, Exception):
            out[i] = x

    done = np.flatnonzero([rec is None and x is not None for rec, x in zip(out, packages)])
    if not done.size:
        return out
    X = np.array([packages[i] for i in done])
    achieved = _predict_lanes(link, beta[done, 0], beta[done, 1:], X)
    power = [None] * L
    if goals.power_goal is not None:
        fast = np.zeros(L, bool) if proj is None else proj.exact
        lanes = done[fast[done]]
        if lanes.size:
            level = np.zeros(L)
            level[done] = achieved
            with np.errstate(all="ignore"):  # as in _threshold_core
                values, degenerate = _projected_power_lanes(
                    level, lanes, proj, goals.approach, direction)
            for i, value, bad in zip(lanes.tolist(), values.tolist(), degenerate.tolist()):
                if bad:
                    out[i] = DegenerateVarianceError("zero projected variance")
                power[i] = value
        for i in done[~fast[done]].tolist():
            try:
                power[i] = _projected_power(packages[i], models[i], summaries[i], goals)
            except _LANE_ERRORS as exc:
                out[i] = exc
    totals = cost.evaluate_rows(X)
    for i, value, total in zip(done.tolist(), achieved.tolist(), totals):
        if out[i] is None:
            out[i] = Recommendation(
                x_hat=packages[i],
                regime=REGIME_GOAL if goal[i] else REGIME_SHRINK if shrink[i] else REGIME_PMAX,
                achieved_outcome=value,
                required_threshold=float(required[i]),
                projected_power=power[i],
                cost=total,
            )
    return out


def _projected_power(x, model, summary, goals: GoalSpec) -> float:
    """The final-test power at package ``x`` that ``goals``' certificate
    (conditional or unconditional) projects."""
    if goals.approach == "conditional":
        return conditional_power(x, model, summary, goals.test, goals.alpha, goals.direction)
    return unconditional_power(x, model, summary, goals.test, goals.alpha)


def _stage_inputs(trial_state, goals: GoalSpec, k: int):
    """The arm totals (None without a power goal) and the shrinking anchor
    of a stage-``k`` decision on ``trial_state``, whose stages below k must
    be complete."""
    if k < 2:
        raise ValueError("stage-k recommendations start at k=2; use plan_stage1")
    missing = sorted(set(range(1, k)) - {rec.stage_index for rec in trial_state.completed})
    if missing:
        raise ValueError(f"stage-{k} recommendation needs completed stages {missing}")
    summary = None if goals.power_goal is None else _state_summary(trial_state, goals.test, k)
    return summary, _stage1_anchor(trial_state)


def recommend_stage_k(
    model: FittedModel,
    trial_state,
    goals: GoalSpec,
    cost: CostFunction | None = None,
    bounds=None,
    k: int | None = None,
) -> Recommendation:
    """Recommendation for stage ``k``: stages below k are observed data,
    stages k..K are the future sample the power projections commit.

    ``k`` defaults to the next stage (completed stages + 1).  ``model``
    should be fitted on the observed stages; refitting is the caller's job.
    Cost and bounds default to the trial configuration, and the shrinking
    fallback is anchored at ``_stage1_anchor(trial_state)``.
    """
    if k is None:
        k = len(trial_state.completed) + 1
    summary, anchor = _stage_inputs(trial_state, goals, k)
    cost = cost if cost is not None else trial_state.config.cost
    bounds = bounds if bounds is not None else trial_state.config.bounds
    return recommend_from_summary(model, summary, goals, cost, bounds, anchor)


def plan_stage1(
    beta0,
    goals: GoalSpec,
    cost: CostFunction,
    bounds,
    planned_sizes,
) -> Recommendation:
    """Pre-trial stage-1 package from assumed coefficients.

    ``beta0`` is the full assumed coefficient vector (intercept first) of a
    logistic outcome model; ``planned_sizes`` gives the planned
    (intervention, control) observation counts, either one pair per stage or
    a single total pair.  Nothing is observed yet, so a power goal is always
    certified with the unconditional formula, and when no package reaches
    the goals the planning fails outright (InfeasibleError) — the shrinking
    fallback needs stage-1 data and has no meaning before the trial.
    """
    beta = np.asarray(beta0, dtype=float).ravel()
    if beta.size < 2:
        raise ValueError("beta0 must hold an intercept and at least one effect")
    model = _assumed(beta)
    sizes = np.atleast_2d(np.asarray(planned_sizes, dtype=float))
    if sizes.shape[1] != 2:
        raise ValueError("planned_sizes must be (intervention, control) pairs")
    if not ((0 <= sizes) & (sizes < np.inf)).all():
        raise ValueError(f"planned_sizes must be finite and nonnegative, got {sizes.tolist()}")
    if goals.power_goal is not None and not (sizes.sum(axis=0) > 0).all():
        raise ValueError("planned_sizes must give each arm a positive total for a power goal")
    summary = ArmSummary(
        n1_obs=0.0, n0_obs=0.0, s1_obs=0.0, s0_obs=0.0, design_obs=(),
        n1_future=float(sizes[:, 0].sum()), n0_future=float(sizes[:, 1].sum()),
    )
    goals = dataclasses.replace(goals, approach="unconditional")
    return recommend_from_summary(model, summary, goals, cost, bounds)


# ---------------------------------------------------------------------------
# integer packages
# ---------------------------------------------------------------------------

def integerize(
    x,
    model: FittedModel,
    cost: CostFunction,
    bounds,
    threshold: float,
    direction: str = "increase",
) -> np.ndarray:
    """Round a package to whole units without giving up the threshold.

    Tries every floor/ceil combination (clamped to the integers inside the
    bounds); among combinations still meeting the threshold the cheapest
    wins, and if rounding kills feasibility entirely the best-level
    combination is returned instead.
    """
    lo, hi = _bounds_arrays(bounds, model.n_components)
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_components,) or not np.isfinite(x).all():
        raise ValueError(f"x must be {model.n_components} finite numbers, got {x.tolist()!r}")
    wm = _work_model(model, direction)
    _check_level_domain(model.link, threshold)
    eta_t = _direction_sign(direction) * float(link_forward(model.link, threshold))

    choices = []
    for p in range(x.size):
        lo_int, hi_int = math.ceil(lo[p] - 1e-9), math.floor(hi[p] + 1e-9)
        if lo_int > hi_int:  # no integer in range: keep the fractional value
            choices.append((float(x[p]),))
            continue
        vals = {
            float(min(max(v, lo_int), hi_int))
            for v in (math.floor(x[p]), math.ceil(x[p]))
        }
        choices.append(tuple(sorted(vals)))

    best_feas, best_cost = None, math.inf
    best_any, best_eta = None, -math.inf
    for combo in itertools.product(*choices):
        arr = np.asarray(combo)
        eta = wm.intercept + float(wm.effects @ arr)
        if eta >= eta_t - 1e-9:
            c = float(cost(arr))
            if c < best_cost - 1e-12 or (
                abs(c - best_cost) <= 1e-12 and best_feas is not None
                and tuple(arr) < tuple(best_feas)
            ):
                best_feas, best_cost = arr, c
        if eta > best_eta:
            best_any, best_eta = arr, eta
    return best_feas if best_feas is not None else best_any

"""Differential tests for the written-out cubic kernels of the min-cost solve.

``cost._horner`` and ``optimizer._segment_coeffs`` write out their loops for
four coefficients, ``cost._argmin_on`` returns the first candidate in the
tie window in ascending order, and ``optimizer._dual_candidate`` folds the
supplied linear predictor as each component's argmin is computed.  The
forms they replaced are kept below as oracles, verbatim: every result must
equal the oracle's bitwise (signed zeros and nan included), and every
failure must raise the same error type and message.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lago import optimizer
from lago.cost import _argmin_on, _ComponentPoly, _horner, _stationary_points
from lago.errors import NonFiniteError
from lago.optimizer import _dual_candidate, _fold, _multiplier_argmin, _segment_coeffs


def _horner_by_loop(coeffs, x):
    v = 0.0
    for ck in reversed(coeffs):
        v = ck + v * x
    return v


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


def _dual_candidate_by_dict(infos, beta1, eff, lo, hi, need, ftol):
    parts = [(p, _multiplier_argmin(infos[p].coeffs, beta1[p], lo[p], hi[p])) for p in eff]

    def solve(mu):
        return {p: argmin(mu) for p, argmin in parts}

    def residual(mu):
        values = solve(mu)
        return _fold(beta1[p] * values[p] for p in eff) - (need - ftol)

    mu_lo, f_lo, mu_hi = 0.0, residual(0.0), 1.0
    for _ in range(60):
        if (f_hi := residual(mu_hi)) >= 0.0:
            return solve(optimizer._passing_root(residual, mu_lo, mu_hi, f_lo, f_hi)[0])
        mu_lo, f_lo, mu_hi = mu_hi, f_hi, 2.0 * mu_hi
    return None


def _outcome(kernel, *args):
    try:
        return kernel(*args)
    except Exception as exc:  # the oracle's error, whatever its type
        return exc


def _bits(value):
    """The bytes of a float, an array or a list of them; an error's type and
    message; a dict's keys and values."""
    if isinstance(value, Exception):
        return type(value), str(value)
    if isinstance(value, dict):
        return list(value), _bits(list(value.values()))
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return np.asarray(value, dtype=float).tobytes()


def _assert_same(kernel, oracle, *args):
    got, want = _outcome(kernel, *args), _outcome(oracle, *args)
    assert _bits(got) == _bits(want), (args, got, want)


SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-300, 1e300, math.inf, -math.inf, math.nan)
_ANY = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(SPECIAL), st.floats())
_COEFFS = st.lists(_ANY, min_size=1, max_size=6)

# Degree 0-2 and quartic polynomials take the generic loops, cubics the written-out forms.
NAMED = [
    [2.0], [-0.0], [2.0, -1.0], [2.0, -1.0, 0.5], [2.0, -1.0, -2.0, 0.3, 0.25],
    [0.0, 3.0, -1.0, 0.2], [-0.0, -0.0, -0.0, -0.0], [0.0, -0.0, 0.0, -0.0],
    [1.0, math.inf, 0.0, 1.0], [1.0, -math.inf, 0.0, 1.0], [0.0, 1.0, 2.0, math.nan],
    [math.nan, 0.0, 0.0, 1.0], [0.0, 1e300, -1e300, 1e300], [1.0, 2.0, 3.0, 0.0],
]


@pytest.mark.parametrize("coeffs", NAMED)
@pytest.mark.parametrize("x", SPECIAL)
def test_horner_matches_its_loop_on_named_cases(coeffs, x):
    _assert_same(_horner, _horner_by_loop, coeffs, x)


@settings(max_examples=400, deadline=None)
@given(_COEFFS, _ANY)
def test_horner_matches_its_loop(coeffs, x):
    _assert_same(_horner, _horner_by_loop, coeffs, x)


@pytest.mark.parametrize("size", [1, 3, 4, 5])
def test_horner_matches_its_loop_on_lane_arrays(size):
    """Lane kernels pass arrays of points, and coefficient lists that mix
    floats and lane arrays, with numpy's warnings off as there."""
    rng = np.random.default_rng(size)
    x = np.array(SPECIAL + tuple(rng.normal(size=21)))
    coeffs = [rng.choice(SPECIAL, x.size) if k % 2 else float(rng.normal()) for k in range(size)]
    with np.errstate(all="ignore"):
        _assert_same(_horner, _horner_by_loop, coeffs, x)
        _assert_same(_horner, _horner_by_loop, [float(c) for c in rng.normal(size=size)], x)


def _boxes(stationary):
    """Boxes ending on a stationary point, on both and on one point, and
    around all of them."""
    finite = [t for t in stationary if math.isfinite(t)]
    boxes = [(-1.0, 1.0), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-math.inf, 0.0),
             (0.0, math.inf), (-1e300, 1e300), (math.nan, 1.0), (1.0, 1.0)]
    for t in finite:
        boxes += [(t, t), (t, t + 1.0), (t - 1.0, t), (t - 2.0, t + 2.0)]
    if finite:
        boxes += [(finite[0], finite[-1]), (finite[0] - 1.0, finite[-1] + 1.0)]
    return boxes


@pytest.mark.parametrize("coeffs", NAMED)
def test_argmin_on_matches_its_smallest_candidate_form_on_named_cases(coeffs):
    stationary = _outcome(_stationary_points, coeffs)
    if isinstance(stationary, Exception):
        stationary = ()
    for a, b in _boxes(stationary):
        _assert_same(_argmin_on, _argmin_on_by_best, coeffs, stationary, a, b)


def test_argmin_on_named_ties_and_nan():
    flat = [1.0, 0.0, 0.0, 0.0]  # every candidate ties: the smallest, a
    assert _argmin_on(flat, (0.5,), 0.0, 1.0) == 0.0
    # a leading nan value is the least, by Python's min, so the window is nan
    with pytest.raises(NonFiniteError):
        _argmin_on([math.nan, 1.0, 0.0, 0.0], (), 0.0, 1.0)
    double_well = [0.0, 0.0, -2.0, 0.0, 1.0]  # minima -1 and 1 tie: the smaller
    assert _argmin_on(double_well, _stationary_points(double_well), -2.0, 2.0) == -1.0
    for a, b in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)):  # a == b: a itself
        assert math.copysign(1.0, _argmin_on(flat, (), a, b)) == math.copysign(1.0, a)


@settings(max_examples=400, deadline=None)
@given(_COEFFS, st.lists(_ANY, max_size=4), st.integers(0, 4), _ANY, _ANY, st.integers(0, 3))
def test_argmin_on_matches_its_smallest_candidate_form(coeffs, points, nan_at, a, b, ends):
    """``stationary`` ascends apart from a nan, which no box holds, as the
    closed forms return it."""
    stationary = sorted({t for t in points if not math.isnan(t)})
    if any(math.isnan(t) for t in points):
        stationary.insert(min(nan_at, len(stationary)), math.nan)
    finite = [t for t in stationary if math.isfinite(t)]
    if finite and ends:  # a box ending on a stationary point
        a, b = (finite[0], b) if ends == 1 else (a, finite[-1]) if ends == 2 else (finite[0],) * 2
    if b < a:
        a, b = b, a
    _assert_same(_argmin_on, _argmin_on_by_best, coeffs, tuple(stationary), a, b)


@pytest.mark.parametrize("g", NAMED)
@pytest.mark.parametrize("B", [0.0, -0.0, 1.5, -2.0, math.inf, math.nan])
@pytest.mark.parametrize("A", [0.0, -0.0, 0.7, -1e300, math.inf])
def test_segment_coeffs_match_the_loop_on_named_cases(g, A, B):
    for f in ([0.0, 1.0, -0.0, 2.0], [-0.0], [1.0, -0.0, 0.5, 0.1, 0.01], [-0.0] * 4):
        _assert_same(_segment_coeffs, _segment_coeffs_by_loop, f, g, A, B)


@settings(max_examples=400, deadline=None)
@given(_COEFFS, _COEFFS, _ANY, _ANY)
def test_segment_coeffs_match_the_loop(f, g, A, B):
    _assert_same(_segment_coeffs, _segment_coeffs_by_loop, f, g, A, B)


def test_segment_coeffs_match_the_loop_on_lane_arrays():
    rng = np.random.default_rng(5)
    A = np.array(SPECIAL + tuple(rng.normal(size=9)))
    B = np.array(tuple(reversed(SPECIAL)) + tuple(rng.normal(size=9)))
    lanes = [rng.choice(SPECIAL, A.size) for _ in range(4)]
    for f, g in ((lanes, lanes[::-1]), ([0.0, 1.0, -0.5, 0.2], lanes), (lanes, [1.0, -0.0, 3.0])):
        with np.errstate(all="ignore"):  # as in the lane kernels
            _assert_same(_segment_coeffs, _segment_coeffs_by_loop, f, g, A, B)


class _Spy:
    """Stands in for ``optimizer._passing_root``: records the residual it is
    given at fixed multipliers, then finds the root as usual."""

    MUS = (0.0, 0.25, 1.0, 3.0, 1e3, 2.0 ** 40)

    def __init__(self):
        self.seen, self.root = [], optimizer._passing_root

    def __call__(self, residual, *bracket):
        self.seen.append([_outcome(residual, mu) for mu in self.MUS])
        return self.root(residual, *bracket)


def _assert_same_dual(monkeypatch, infos, beta1, lo, hi, need):
    eff = list(range(len(infos)))
    ftol = 1e-9 * max(1.0, abs(need))
    args = (infos, beta1, eff, lo, hi, need, ftol)
    spy = _Spy()
    monkeypatch.setattr(optimizer, "_passing_root", spy)
    got = _outcome(_dual_candidate, *args)
    want = _outcome(_dual_candidate_by_dict, *args)
    assert _bits(got) == _bits(want), (args, got, want)
    if spy.seen:
        assert len(spy.seen) == 2
        assert _bits(spy.seen[0]) == _bits(spy.seen[1]), (args, spy.seen)


_CUBIC = [0.0, 3.0, -1.0, 0.2]


@pytest.mark.parametrize("coeffs, beta1, need", [
    ([_CUBIC] * 3, [0.5, -0.3, 0.8], 1.5),
    ([_CUBIC, [0.0, 1.0, 0.5], [0.0, 2.0]], [0.5, 0.3, 0.8], 2.0),  # degree 1 and 2
    ([_CUBIC, [0.0, 1.0, -2.0, 0.3, 0.25], _CUBIC], [0.5, 0.3, 0.8], 2.0),  # a quartic
    ([_CUBIC, [-0.0, -0.0, -0.0, 1.0], _CUBIC], [0.5, -0.0, 0.8], 1.0),  # signed zeros
    ([_CUBIC] * 3, [0.5, 0.3, 0.8], 1e6),  # out of reach: no bracket, None
    ([_CUBIC] * 3, [1e300, 1e300, 1e300], 1e300),  # c1 - mu * beta overflows
])
def test_dual_candidate_matches_its_dict_form_on_named_cases(monkeypatch, coeffs, beta1, need):
    P = len(coeffs)
    infos = [_ComponentPoly(c) for c in coeffs]
    _assert_same_dual(monkeypatch, infos, beta1, [0.0] * P, [4.0] * P, need)


_FINITE = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(SPECIAL[:8]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(_FINITE, min_size=2, max_size=5), _FINITE,
                          st.floats(-5.0, 5.0), st.floats(0.0, 5.0)), min_size=3, max_size=5),
       st.floats(-20.0, 20.0))
def test_dual_candidate_matches_its_dict_form(components, need):
    infos = _outcome(lambda: [_ComponentPoly(c) for c, _, _, _ in components])
    assume(not isinstance(infos, Exception))  # a derivative past the float range
    beta1 = [beta for _, beta, _, _ in components]
    lo = [low for _, _, low, _ in components]
    hi = [low + width for _, _, low, width in components]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_same_dual(monkeypatch, infos, beta1, lo, hi, need)

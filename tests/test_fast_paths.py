"""Differential tests for the binary replicate's fast paths.

The array ``expit`` and the design-matrix build of ``fit_binary`` make
fewer numpy calls than their first forms.  The first forms are kept here as
oracles: each fast path must agree with its oracle bitwise.  The IRLS loop
itself is held to its single-design form in ``test_lockstep.py``, on the
seeded designs drawn here.  Bounds are validated on every call, each
``CostFunction`` builds its component polynomials once, and no result
depends on what ran before in the process.
"""

import ast
import dataclasses
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

import lago
from lago import sim
from lago.cost import CostFunction
from lago.errors import RankDeficientError
from lago.model import CenterData, StageRecord, _center_rows, expit, fit_binary
from lago.optimizer import _bounds_arrays, _ComponentPoly


# ---------------------------------------------------------------------------
# the first forms, as oracles


def _expit_two_branch(eta):
    """Array ``expit`` as two masked branches."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def _stacked_rows(records):
    """Design matrix stacked from one concatenated row per center."""
    centers = [c for rec in records for c in rec.centers]
    return np.vstack([np.concatenate(([1.0], c.package)) for c in centers])


# ---------------------------------------------------------------------------
# expit


SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 800.0, -800.0, 36.0,
            -745.5]


def test_array_expit_matches_two_branch_oracle_bitwise():
    rng = np.random.default_rng(20261018)
    arrays = [np.array(SPECIALS), np.array(SPECIALS).reshape(2, 5)]
    for scale in (1e-8, 1.0, 5.0, 40.0, 710.0, 1e6):
        arrays.append(rng.normal(0.0, scale, 257))
        arrays.append(rng.normal(0.0, scale, (4, 3)))
    arrays.append(np.concatenate([rng.normal(0.0, 3.0, 50), SPECIALS]))
    for eta in arrays:
        got, want = expit(eta), _expit_two_branch(eta)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", SPECIALS)
def test_zero_dim_expit_matches_oracle_bitwise(value):
    got, want = expit(np.array(value)), _expit_two_branch(np.array(value))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# fit_binary


def _records(rng, P, n_centers, scale, beta, sizes, decimals):
    centers = []
    for j in range(n_centers):
        arm = 0 if j == 0 else 1
        x = np.zeros(P) if arm == 0 else np.round(rng.uniform(0.0, scale, P), decimals)
        n = int(rng.integers(*sizes))
        p = 1.0 / (1.0 + math.exp(-min(max(beta[0] + beta[1:] @ x, -700.0), 700.0)))
        s = int(rng.binomial(n, p))
        centers.append(CenterData.from_stats(arm, x, n, float(s), s * (n - s) / n))
    return [StageRecord(1, centers)]


def _grouped_design(index):
    """Seeded grouped binary design number ``index``; four families."""
    rng = np.random.default_rng([20261018, index])
    P = int(rng.integers(1, 4))
    family = index % 4
    if family == 0:  # moderate rates and packages, many small centers
        beta = rng.normal(0.0, 1.5, P + 1)
        return _records(rng, P, int(rng.integers(P + 1, 9)), 4.0, beta, (3, 40), 1)
    if family == 1:  # rates near 0 or 1 on large packages: Newton overshoots
        scale = 10.0 ** rng.uniform(2.0, 3.0)
        beta = rng.normal(0.0, 1.0, P + 1) / scale
        beta[0] = rng.choice([-1.0, 1.0]) * rng.uniform(4.0, 6.0)
        return _records(rng, P, int(rng.integers(P + 2, 9)), scale, beta, (100, 1000), 2)
    if family == 2:  # steep effects: separation and the coefficient cap
        beta = rng.normal(0.0, 4.5, P + 1)
        return _records(rng, P, int(rng.integers(P + 1, 6)), 4.0, beta, (2, 12), 0)
    # degenerate inputs: a repeated package column, a non-finite package,
    # identical outcomes, or an ordinary design
    recs = _records(rng, P, int(rng.integers(P + 2, 8)), 4.0, rng.normal(0.0, 1.0, P + 1),
                    (5, 40), 1)
    centers = recs[0].centers
    which = (index // 4) % 4
    if which == 0 and P >= 2:
        for c in centers:
            c.package[1] = c.package[0]
    elif which == 1:
        centers[-1].package[0] = math.inf if (index // 16) % 2 else math.nan
    elif which == 2:
        recs = [StageRecord(1, [
            CenterData.from_stats(c.arm, c.package, c.size, 0.0, 0.0) for c in centers
        ])]
    return recs


def test_design_matrix_matches_stacked_rows():
    for index in range(0, 200, 7):
        records = _grouped_design(index)
        X, want = _center_rows(records)[0], _stacked_rows(records)
        assert X.dtype == want.dtype and X.shape == want.shape
        assert X.flags.c_contiguous and X.tobytes() == want.tobytes()


def test_zero_dim_package_is_a_value_error():
    centers = [CenterData(0, np.array(0.0), [1.0, 0.0]), CenterData(1, np.array(1.0), [1.0, 1.0])]
    with pytest.raises(ValueError, match="vector"):
        fit_binary([StageRecord(1, centers)])


# ---------------------------------------------------------------------------
# rank


def _rank_deficient_records():
    centers = [
        CenterData.from_stats(0, [0.0, 0.0], 20, 8.0, 8.0 * 12.0 / 20.0),
        CenterData.from_stats(1, [1.0, 2.0], 20, 11.0, 11.0 * 9.0 / 20.0),
        CenterData.from_stats(1, [2.0, 4.0], 20, 14.0, 14.0 * 6.0 / 20.0),
    ]
    return [StageRecord(1, centers)]


def test_rank_deficient_design_raises_on_first_and_repeated_calls():
    for _ in range(3):
        with pytest.raises(RankDeficientError):
            fit_binary(_rank_deficient_records())


# ---------------------------------------------------------------------------
# bounds


@pytest.mark.parametrize("bounds, match", [
    (((0.0, math.nan), (0.0, 8.0)), "finite"),
    (((0.0, 2.0), (-math.inf, 8.0)), "finite"),
    (((2.0, 0.0), (0.0, 8.0)), "exceed"),
    (((0.0, 2.0),), "pairs"),
    (((0.0, 2.0, 3.0), (0.0, 8.0, 9.0)), "pairs"),
    ((0.0, 2.0), "pairs"),
])
def test_invalid_bounds_raise_on_every_call(bounds, match):
    for _ in range(3):
        with pytest.raises(ValueError, match=match):
            _bounds_arrays(bounds, 2)


def test_list_and_array_bounds_give_the_tuple_arrays():
    want = _bounds_arrays(((0.0, 2.0), (0.0, 8.0)), 2)
    for bounds in ([[0.0, 2.0], [0.0, 8.0]], [(0, 2), (0, 8)], np.array([[0.0, 2.0], [0.0, 8.0]])):
        lo, hi = _bounds_arrays(bounds, 2)
        assert lo.tobytes() == want[0].tobytes() and hi.tobytes() == want[1].tobytes()


def test_signed_zero_bounds_keep_their_sign():
    assert not np.signbit(_bounds_arrays(((0.0, 2.0),), 1)[0][0])
    assert np.signbit(_bounds_arrays(((-0.0, 2.0),), 1)[0][0])
    assert not np.signbit(_bounds_arrays(((0, 2.0),), 1)[0][0])


# ---------------------------------------------------------------------------
# cost polynomials


def _bits(polys):
    return [(np.array(poly.coeffs).tobytes(), np.array(poly.stationary).tobytes())
            for poly in polys]


def test_cost_polynomials_are_built_once_from_the_component_coefficients():
    terms = ((0, 3, 2.0), (0, 2, -1.19), (0, 1, 10.0), (None, 0, 10.0), (2, 3, 0.1),
             (2, 2, -0.2), (2, 1, 2.0))
    cost = CostFunction(terms)
    want = [_ComponentPoly(cost.component_coefficients(p)) for p in range(3)]
    assert len(cost.polys) == 3  # component 1 is not mentioned: a zero polynomial
    assert _bits(cost.polys) == _bits(want)
    for copy in (pickle.loads(pickle.dumps(cost)), dataclasses.replace(cost)):
        assert copy == cost and _bits(copy.polys) == _bits(want)
    changed = dataclasses.replace(cost, terms=terms[:-1] + ((2, 1, 2.5),))
    assert _bits(changed.polys)[:2] == _bits(want)[:2]
    assert changed.polys[2].coeffs != want[2].coeffs
    equal = CostFunction(tuple(terms))
    assert equal == cost and equal is not cost
    assert [poly.coeffs for poly in equal.polys] == [poly.coeffs for poly in cost.polys]
    assert CostFunction(((None, 0, 3.0),)).polys == ()


# ---------------------------------------------------------------------------
# no state carried between runs


def _goals(**kw):
    return lago.GoalSpec(outcome_goal=0.7, **kw)


def _specs():
    z, wald = lago.TestSelector("z_unpooled"), lago.TestSelector("wald_pdf_binary")
    cont = sim.scenario_1a(
        n_per_center=200, replicates=8,
        goals=_goals(power_goal=0.8, approach="conditional", test=lago.TestSelector("t_unpooled")),
    )
    return {
        "1a-outcome": sim.scenario_1a(replicates=8, goals=_goals()),
        "1a-conditional": sim.scenario_1a(
            replicates=8, goals=_goals(power_goal=0.8, approach="conditional", test=z)),
        "1a-unconditional-z": sim.scenario_1a(
            replicates=8, goals=_goals(power_goal=0.8, approach="unconditional", test=z)),
        "1a-unconditional-wald": sim.scenario_1a(
            replicates=4, goals=_goals(power_goal=0.8, approach="unconditional", test=wald)),
        "2a": sim.scenario_2a(replicates=8),
        "2b": sim.scenario_2b(replicates=8),
        "continuous-1a": dataclasses.replace(
            cont, outcome_kind="continuous", outcome_link="identity", outcome_sigma=8.0),
    }


@pytest.mark.parametrize("name", list(_specs()))
def test_reports_do_not_depend_on_what_ran_before(name):
    spec = _specs()[name]
    first = repr(sim.run_scenario(spec, seed=17, threads=1).to_dict())
    sim.run_scenario(spec, seed=18, threads=1)
    again = repr(sim.run_scenario(spec, seed=17, threads=1).to_dict())
    assert first == again


def _cache_decorators(tree):
    """``functools.cache`` / ``lru_cache`` uses in a module, by any spelling."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (a.name for a in node.names if a.name in ("cache", "lru_cache"))
        elif (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            yield node.attr


def test_the_package_keeps_no_process_wide_memo():
    package = Path(lago.__file__).parent
    found = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := sorted(_cache_decorators(ast.parse(path.read_text()))))
    }
    assert found == {}

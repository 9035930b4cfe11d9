"""Each 1-df power formula on lanes is its float formula, lane by lane.

``power.py`` writes every 1-df power quantity once, on a float or on lane
arrays over a ``_lane_projection``.  Here a seeded set of lanes, each a
fitted model and an ``ArmSummary``, is evaluated both ways: the array call
at a level array over the lanes, and the float call of each lane on its
own model and summary.  Every lane must agree bitwise.  Where the float
call raises, the lanes map the error: ``DegenerateVarianceError`` becomes
the ``degenerate`` mask of ``_projected_power_lanes`` and
``_threshold_residual_lanes``, and a negative variance ratio raises the
same ``ValueError`` on both paths.  The lanes include a degenerate lane
(every intervention outcome a success, every control one a failure, no
future sample) and lanes with no future randomness (fut_sd == 0).
"""

import math

import numpy as np
import pytest

from lago.errors import DegenerateVarianceError
from lago.model import FittedModel
from lago.power import (
    ArmSummary,
    TestSelector as Selector,
    _direction_sign,
    _lambda_and_rescale,
    _lane_projection,
    _projected_power_lanes,
    _threshold_residual_lanes,
    conditional_power_at_level,
    conditional_slack_at_level,
    lambda_at_level,
    norm_cdf,
    norm_sf,
    projected_drift_at_level,
    unconditional_power_at_level,
)

KINDS = ("z_unpooled", "z_pooled", "t_unpooled", "t_pooled")
DIRECTIONS = ("increase", "decrease")
ALPHA, PI = 0.05, 0.8


def _bits(x) -> str:
    """A float's bit pattern, every nan alike."""
    x = float(x)
    return "nan" if math.isnan(x) else x.hex()


def _binary(rng):
    b0 = rng.uniform(-0.8, 0.8)
    n1, n0 = float(rng.integers(20, 200)), float(rng.integers(10, 100))
    summary = ArmSummary(
        n1_obs=n1, n0_obs=n0,
        s1_obs=float(rng.integers(0, n1 + 1)), s0_obs=float(rng.integers(0, n0 + 1)),
        n1_future=float(rng.choice([0, 40, 120])), n0_future=float(rng.choice([0, 20, 40])))
    return b0, summary


def _continuous(rng):
    b0 = rng.uniform(5.0, 10.0)
    n1, n0 = float(rng.integers(2, 200)), float(rng.integers(2, 100))
    summary = ArmSummary(
        n1_obs=n1, n0_obs=n0, s1_obs=n1 * (b0 + rng.uniform(-3.0, 3.0)), s0_obs=n0 * b0,
        n1_future=float(rng.choice([0, 40, 400])), n0_future=float(rng.choice([0, 20, 200])),
        var1_obs=rng.uniform(20.0, 100.0), var0_obs=rng.uniform(20.0, 100.0))
    return b0, summary


def _lanes(kind: str, seed: int):
    """(models, summaries, levels) of 40 seeded lanes of a ``kind`` test: the
    first degenerate, the next two with no future sample, the fourth
    degenerate with equal arms, the rest drawn."""
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    continuous = Selector(kind).continuous_outcome
    if continuous:
        link, special = "identity", [
            (7.0, ArmSummary(n1_obs=50.0, n0_obs=50.0, s1_obs=400.0, s0_obs=350.0,
                             var1_obs=0.0, var0_obs=0.0)),
            (7.0, ArmSummary(n1_obs=50.0, n0_obs=50.0, s1_obs=400.0, s0_obs=350.0,
                             var1_obs=1.0, var0_obs=1.0)),
            (7.0, ArmSummary(n1_obs=50.0, n0_obs=50.0, s1_obs=300.0, s0_obs=350.0,
                             var1_obs=1.0, var0_obs=1.0)),
            (7.0, ArmSummary(n1_obs=50.0, n0_obs=50.0, s1_obs=350.0, s0_obs=350.0,
                             var1_obs=0.0, var0_obs=0.0)),
        ]
        draw = _continuous
    else:
        link, special = "logit", [
            (0.0, ArmSummary(n1_obs=50.0, n0_obs=50.0, s1_obs=50.0, s0_obs=0.0)),
            (0.0, ArmSummary(n1_obs=50.0, n0_obs=50.0, s1_obs=30.0, s0_obs=20.0)),
            (0.0, ArmSummary(n1_obs=50.0, n0_obs=50.0, s1_obs=20.0, s0_obs=30.0)),
            (0.0, ArmSummary(n1_obs=50.0, n0_obs=50.0, s1_obs=50.0, s0_obs=50.0)),
        ]
        draw = _binary
    drawn = special + [draw(rng) for _ in range(36)]
    models = [FittedModel(beta=np.array([b0, 0.3, 0.1]), link=link, covariance=np.eye(3),
                          n_used=100, kind="continuous" if continuous else "binary", sigma2=1.0)
              for b0, _ in drawn]
    summaries = [summary for _, summary in drawn]
    if continuous:
        levels = np.array([b0 + rng.uniform(-4.0, 4.0) for b0, _ in drawn])
    else:
        levels = rng.uniform(0.05, 0.95, len(drawn))
    return models, summaries, levels


def _projection(kind, models, summaries):
    test = Selector(kind)
    proj = _lane_projection(models[0].link, np.array([m.beta[0] for m in models]), summaries,
                            test, ALPHA, PI)
    assert proj.exact.all()
    return proj


def _float_or_error(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (DegenerateVarianceError, ValueError) as exc:
        return exc


def _assert_lanes(got, want, degenerate=None):
    """``got`` (an array over lanes) is ``want`` (each lane's float result or
    error) bitwise, a lane whose float call raised DegenerateVarianceError
    marked in ``degenerate`` when given, and no other lane marked."""
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got.tolist(), want)):
        if isinstance(w, DegenerateVarianceError):
            assert degenerate is None or degenerate[i], i
        else:
            assert not isinstance(w, Exception), (i, w)
            assert _bits(g) == _bits(w), (i, g, w)
            assert degenerate is None or not degenerate[i], i


def test_norm_sf_and_cdf_of_an_array_are_their_floats_entry_by_entry():
    rng = np.random.default_rng(3)
    x = np.concatenate((rng.normal(0.0, 4.0, 200), [0.0, -0.0, 38.5, -38.5, math.inf,
                                                    -math.inf, math.nan]))
    for f in (norm_sf, norm_cdf):
        got = f(x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        assert [_bits(v) for v in got.tolist()] == [_bits(f(v)) for v in x.tolist()]
        assert type(f(0.5)) is float and f(np.empty(0)).shape == (0,)
        assert _bits(f(np.array(x[0]))) == _bits(f(float(x[0])))


@pytest.mark.parametrize("kind", KINDS)
def test_the_level_forms_of_a_lane_projection_are_their_floats(kind):
    models, summaries, levels = _lanes(kind, 1)
    proj, test = _projection(kind, models, summaries), Selector(kind)
    with np.errstate(all="ignore"):
        drift = projected_drift_at_level(levels, None, proj)
        lam = lambda_at_level(levels, None, proj, test)
        _, _, unpooled_var = _lambda_and_rescale(levels, None, proj, test)
        power = unconditional_power_at_level(levels, None, proj, test, ALPHA)
    degenerate = unpooled_var <= 0.0
    lanes = list(zip(levels.tolist(), models, summaries))
    _assert_lanes(drift, [projected_drift_at_level(x, m, s) for x, m, s in lanes])
    _assert_lanes(lam, [_float_or_error(lambda_at_level, x, m, s, test) for x, m, s in lanes],
                  degenerate)
    _assert_lanes(power, [_float_or_error(unconditional_power_at_level, x, m, s, test, ALPHA)
                          for x, m, s in lanes], degenerate)
    assert np.flatnonzero(degenerate).tolist() == [0, 3]


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_conditional_power_of_a_lane_projection_is_its_floats(kind, direction):
    models, summaries, levels = _lanes(kind, 2)
    proj, test = _projection(kind, models, summaries), Selector(kind)
    got = conditional_power_at_level(levels, None, proj, test, ALPHA, direction)
    want = [conditional_power_at_level(x, m, s, test, ALPHA, direction)
            for x, m, s in zip(levels.tolist(), models, summaries)]
    _assert_lanes(got, want)
    # No future sample decides the first four lanes; a margin of exactly 0
    # (equal arms, no variance) meets the goal.
    decided = [1.0, 1.0, 0.0, 1.0] if direction == "increase" else [0.0, 0.0, 1.0, 1.0]
    assert want[:4] == decided


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("approach", ("unconditional", "conditional"))
@pytest.mark.parametrize("kind", KINDS)
def test_the_lane_masks_map_the_float_errors(kind, approach, direction):
    models, summaries, levels = _lanes(kind, 3)
    proj, test = _projection(kind, models, summaries), Selector(kind)
    lanes = np.random.default_rng(4).permutation(len(models))[:30]
    lanes = np.concatenate(([0, 1], lanes[lanes > 1]))
    sign = _direction_sign(direction)

    def projected(i):
        x, m, s = levels[i], models[i], summaries[i]
        if approach == "conditional":
            return conditional_power_at_level(x, m, s, test, ALPHA, direction)
        return _float_or_error(unconditional_power_at_level, x, m, s, test, ALPHA)

    def residual(i):
        x, m, s = levels[i], models[i], summaries[i]
        if approach == "conditional":
            return -conditional_slack_at_level(x, m, s, test, ALPHA, PI, direction=direction)
        if sign * projected_drift_at_level(x, m, s) <= 0.0:
            return -math.inf
        power = projected(i)
        return power if isinstance(power, Exception) else power - PI

    with np.errstate(all="ignore"):
        power, degenerate = _projected_power_lanes(levels, lanes, proj, approach, direction)
        f, failed = _threshold_residual_lanes(levels, lanes, proj, approach, direction, "sd")
    _assert_lanes(power, [projected(i) for i in lanes.tolist()], degenerate)
    _assert_lanes(f, [residual(i) for i in lanes.tolist()], failed)
    assert math.isnan(power[0]) == (approach == "unconditional")
    # the degenerate lane fails the search only where its drift is searched
    assert failed[0] == (approach == "unconditional" and direction == "increase")


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_a_negative_variance_ratio_raises_the_float_error_on_lanes(direction):
    # Fractional arm sizes make the pooled t's projected variance negative
    # while the unpooled one stays positive.
    sign = _direction_sign(direction)
    odd = ArmSummary(n1_obs=1.5, n0_obs=1.0, s1_obs=1.5 * (7.0 + sign), s0_obs=7.0,
                     var1_obs=1.0, var0_obs=2.0)
    models, summaries, levels = _lanes("t_pooled", 5)
    summaries[4] = odd
    proj, test = _projection("t_pooled", models, summaries), Selector("t_pooled")
    with pytest.raises(ValueError) as want:
        unconditional_power_at_level(levels[4], models[4], odd, test, ALPHA)
    lanes = np.arange(3, 9)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError) as got:
            _projected_power_lanes(levels, lanes, proj, "unconditional", direction)
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError) as got:
            _threshold_residual_lanes(levels, lanes, proj, "unconditional", direction, "sd")
        assert str(got.value) == str(want.value)
        # a lane whose drift points the wrong way is -inf before its power
        f, _ = _threshold_residual_lanes(levels, lanes, proj, "unconditional",
                                         "decrease" if sign > 0 else "increase", "sd")
    assert f[1] == -math.inf


def test_a_lane_with_a_negative_variance_is_degenerate_and_nan():
    # Fractional arm sizes again: the unpooled variance is negative and the
    # arms are equal, so no division makes the lane's power nan by itself.
    odd = ArmSummary(n1_obs=1.5, n0_obs=1.0, s1_obs=10.5, s0_obs=7.0, var1_obs=1.0,
                     var0_obs=0.5)
    models, summaries, levels = _lanes("t_pooled", 6)
    summaries[4] = odd
    proj, test = _projection("t_pooled", models, summaries), Selector("t_pooled")
    with pytest.raises(DegenerateVarianceError):
        unconditional_power_at_level(levels[4], models[4], odd, test, ALPHA)
    with np.errstate(all="ignore"):
        assert _lambda_and_rescale(levels, None, proj, test)[2][4] < 0.0
        power, degenerate = _projected_power_lanes(levels, np.arange(3, 9), proj,
                                                   "unconditional", "increase")
    assert degenerate.tolist() == [True, True, False, False, False, False]
    assert np.isnan(power[:2]).all() and not np.isnan(power[2:]).any()

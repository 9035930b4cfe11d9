"""Distribution functions, test statistics, and power projections.

scipy is used throughout as the reference implementation for the distribution
functions (the standard-library normal and the in-house gamma family), and Monte Carlo simulation as an independent oracle
for the projected-power formulas (a projection is a claim about a rejection
rate — so we draw the future data and count rejections).
"""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lago.errors import DegenerateVarianceError, SingularCovarianceError
from lago.model import CenterData, FittedModel, StageRecord, expit
from lago.power import (
    ArmSummary,
    TestSelector as Selector,
    _lambda_and_rescale,
    chisq_cdf,
    chisq_quantile,
    chisq_sf,
    conditional_constraint_slack,
    conditional_slack_at_level,
    final_test,
    gamma_p,
    lambda_at_level,
    lambda_min,
    noncentral_chisq_cdf,
    norm_cdf,
    norm_quantile,
    norm_sf,
    projected_rates,
    unconditional_lambda,
    unconditional_power,
    unconditional_power_at_level,
    wald_statistic,
)


def make_model(beta, link="logit", kind="binary", cov=None, sigma2=None):
    beta = np.asarray(beta, dtype=float)
    if cov is None:
        cov = np.eye(beta.size)
    return FittedModel(
        beta=beta, link=link, covariance=np.asarray(cov, dtype=float),
        n_used=100, kind=kind, sigma2=sigma2,
    )


# ---------------------------------------------------------------------------
# special functions vs scipy
# ---------------------------------------------------------------------------

def test_normal_tails_match_scipy_erfc_over_wide_grid():
    # the former erfc grid (region edges of Cody's scheme, out to its
    # underflow), mapped through z = x * sqrt(2): sf(z) = cdf(-z) = erfc(x) / 2
    xs = np.concatenate([
        np.linspace(-8, 8, 401),
        [-0.46875, 0.46875, -4.0, 4.0, 10.0, 26.5, -26.5, 0.0],
    ])
    for z in xs * math.sqrt(2.0):
        ref = 0.5 * scipy.special.erfc(z / math.sqrt(2.0))
        assert norm_sf(z) == pytest.approx(ref, rel=5e-14, abs=1e-300)
        assert norm_cdf(-z) == pytest.approx(ref, rel=5e-14, abs=1e-300)


def test_norm_cdf_and_sf_match_scipy():
    for x in np.linspace(-10, 10, 201):
        assert norm_cdf(x) == pytest.approx(scipy.stats.norm.cdf(x), rel=1e-12, abs=1e-300)
        assert norm_sf(x) == pytest.approx(scipy.stats.norm.sf(x), rel=1e-12, abs=1e-300)
    # far tail keeps relative accuracy (naive 1 - cdf would be 0 here),
    # out to where erfc nears underflow and is least accurate
    assert norm_sf(30.0) == pytest.approx(scipy.stats.norm.sf(30.0), rel=1e-12)
    for z in np.linspace(10, 37, 271):
        assert norm_sf(z) == pytest.approx(scipy.stats.norm.sf(z), rel=1e-12)
        assert norm_cdf(-z) == pytest.approx(scipy.stats.norm.cdf(-z), rel=1e-12)


def test_norm_quantile_matches_scipy():
    ps = np.concatenate([
        np.linspace(1e-6, 1 - 1e-6, 97),
        [0.025, 0.975, 0.2, 0.8, 1e-12, 1 - 1e-12, 0.5],
    ])
    for p in ps:
        assert norm_quantile(p) == pytest.approx(scipy.stats.norm.ppf(p), rel=1e-12, abs=1e-13)


def test_norm_quantile_frozen_values():
    # the two quantiles every design computation leans on
    assert norm_quantile(0.975) == pytest.approx(1.959964, abs=5e-7)
    assert norm_quantile(0.2) == pytest.approx(-0.8416212, abs=5e-8)


def test_norm_quantile_rejects_boundaries():
    for p in (0.0, 1.0, -0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            norm_quantile(p)


@given(st.floats(min_value=-5.0, max_value=5.0))
def test_norm_quantile_inverts_cdf(x):
    assert norm_quantile(norm_cdf(x)) == pytest.approx(x, abs=1e-9)


def test_gamma_p_matches_scipy():
    for a in (0.5, 1.0, 2.5, 10.0, 50.0, 200.0):
        for x in (1e-8, 0.1, 0.5 * a, a, 2.0 * a, 5.0 * a):
            assert gamma_p(a, x) == pytest.approx(
                scipy.special.gammainc(a, x), rel=1e-12, abs=1e-14
            )


def test_chisq_cdf_sf_quantile_match_scipy():
    for df in (1, 2, 3, 7, 40):
        for x in (0.01, 0.5, float(df), 3.0 * df, 10.0 * df):
            assert chisq_cdf(x, df) == pytest.approx(scipy.stats.chi2.cdf(x, df), abs=1e-12)
            assert chisq_sf(x, df) == pytest.approx(scipy.stats.chi2.sf(x, df), rel=1e-10, abs=1e-14)
        for p in (0.01, 0.05, 0.5, 0.95, 0.999):
            assert chisq_quantile(p, df) == pytest.approx(
                scipy.stats.chi2.ppf(p, df), rel=1e-10
            )


@pytest.mark.parametrize("func, args", [
    (gamma_p, (math.nan, 1.0)),
    (chisq_cdf, (1.0, math.nan)),
    (chisq_sf, (1.0, math.nan)),
    (chisq_quantile, (0.95, math.nan)),
    (noncentral_chisq_cdf, (1.0, math.nan, 1.0)),
    (noncentral_chisq_cdf, (1.0, 1, math.nan)),
    (lambda_min, (0.05, 0.8, math.nan)),
], ids=lambda v: getattr(v, "__name__", None))
def test_chisq_family_rejects_nan_parameters(func, args):
    with pytest.raises(ValueError):
        func(*args)


def test_chisq_critical_values_frozen():
    assert chisq_quantile(0.95, 1) == pytest.approx(3.841459, abs=1e-6)
    assert chisq_quantile(0.95, 2) == pytest.approx(5.991465, abs=1e-6)


def test_noncentral_chisq_cdf_matches_scipy():
    for df in (1, 2, 5, 10):
        for lam in (1e-3, 0.5, 2.0, 7.8488605, 30.0, 150.0):
            for x in (0.05, 1.0, df + lam, 2 * (df + lam), 5 * (df + lam)):
                assert noncentral_chisq_cdf(x, df, lam) == pytest.approx(
                    scipy.stats.ncx2.cdf(x, df, lam), abs=1e-10
                )


def test_noncentral_chisq_cdf_monte_carlo_check():
    """Independent non-scipy check: empirical CDF of (Z + sqrt(lam))^2 draws."""
    rng = np.random.default_rng(20260819)
    lam, df = 7.8488605, 1
    draws = (rng.standard_normal(1_000_000) + math.sqrt(lam)) ** 2
    x = 3.8414588
    emp = float(np.mean(draws <= x))
    assert noncentral_chisq_cdf(x, df, lam) == pytest.approx(emp, abs=1.5e-3)


def test_noncentral_chisq_reduces_to_central():
    for df in (1, 4):
        for x in (0.3, 2.0, 9.0):
            assert noncentral_chisq_cdf(x, df, 0.0) == pytest.approx(chisq_cdf(x, df), abs=1e-14)


@given(
    st.floats(min_value=0.01, max_value=60.0),
    st.floats(min_value=0.0, max_value=80.0),
    st.floats(min_value=0.0, max_value=80.0),
)
@settings(max_examples=60, deadline=None)
def test_noncentral_chisq_cdf_monotone_in_noncentrality(x, lam_a, lam_b):
    lo, hi = sorted((lam_a, lam_b))
    # a larger noncentrality shifts mass to the right
    assert noncentral_chisq_cdf(x, 1, hi) <= noncentral_chisq_cdf(x, 1, lo) + 1e-9


def test_lambda_min_frozen_classic_value():
    # two-sided alpha = 0.05, power 0.80, 1 df
    assert lambda_min(0.05, 0.8, 1) == pytest.approx(7.84886, abs=2e-5)


def test_lambda_min_against_scipy_root():
    for df in (1, 2):
        for alpha, pi in ((0.05, 0.8), (0.05, 0.9), (0.01, 0.8)):
            crit = scipy.stats.chi2.ppf(1 - alpha, df)
            got = lambda_min(alpha, pi, df)
            assert scipy.stats.ncx2.sf(crit, df, got) == pytest.approx(pi, abs=1e-7)


def test_lambda_min_zero_when_size_already_exceeds_power():
    assert lambda_min(0.5, 0.3, 1) == 0.0


# ---------------------------------------------------------------------------
# realized statistics
# ---------------------------------------------------------------------------

def _statistic(summary, kind):
    return final_test(summary, Selector(kind)).statistic


def test_two_proportion_z_fixture():
    # 70/100 vs 50/100: unpooled var .0046, pooled var .0048
    s = ArmSummary(n1_obs=100, n0_obs=100, s1_obs=70, s0_obs=50)
    assert _statistic(s, "z_unpooled") == pytest.approx(0.2 / math.sqrt(0.0046), abs=1e-12)
    assert _statistic(s, "z_unpooled") == pytest.approx(2.949, abs=5e-4)
    assert _statistic(s, "z_pooled") == pytest.approx(0.2 / math.sqrt(0.0048), abs=1e-12)
    assert _statistic(s, "z_pooled") == pytest.approx(2.887, abs=5e-4)


def test_z_statistic_degenerate_variance():
    s = ArmSummary(n1_obs=50, n0_obs=50, s1_obs=50, s0_obs=50)
    with pytest.raises(DegenerateVarianceError):
        _statistic(s, "z_unpooled")


def test_z_statistic_antisymmetric_under_outcome_flip():
    s = ArmSummary(n1_obs=80, n0_obs=60, s1_obs=52, s0_obs=21)
    flipped = ArmSummary(n1_obs=80, n0_obs=60, s1_obs=80 - 52, s0_obs=60 - 21)
    for kind in ("z_unpooled", "z_pooled"):
        assert _statistic(flipped, kind) == pytest.approx(-_statistic(s, kind), abs=1e-12)


def test_two_sample_t_fixture():
    # means 1 vs 0, unit variances, 100 per arm -> sqrt(50) = 7.0711
    s = ArmSummary(
        n1_obs=100, n0_obs=100, s1_obs=100.0, s0_obs=0.0, var1_obs=1.0, var0_obs=1.0
    )
    assert _statistic(s, "t_unpooled") == pytest.approx(math.sqrt(50.0), abs=1e-12)
    assert _statistic(s, "t_pooled") == pytest.approx(math.sqrt(50.0), abs=1e-12)
    assert _statistic(s, "t_unpooled") == pytest.approx(7.071, abs=5e-4)


def _arm_records(draws):
    """One stage from per-arm lists of outcome vectors (control package 0)."""
    centers = [
        CenterData(arm=arm, package=[float(arm)], outcomes=y)
        for arm, ys in draws.items() for y in ys
    ]
    return [StageRecord(stage_index=1, centers=centers)]


@pytest.mark.parametrize("mean", [0.0, 1e3])
def test_arm_variance_pools_center_statistics(mean):
    """Chan-pooled arm variances from per-center (n, sum, m2) equal the
    sample variance of the concatenated outcomes."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        draws = {
            arm: [
                rng.normal(mean + rng.normal(0.0, 2.0), rng.uniform(0.5, 3.0),
                           int(rng.integers(1, 300)))
                for _ in range(int(rng.integers(1, 7)))
            ]
            for arm in (0, 1)
        }
        s = ArmSummary.from_records(_arm_records(draws), continuous=True)
        for got, ys in ((s.var1_obs, draws[1]), (s.var0_obs, draws[0])):
            ref = np.var(np.concatenate(ys), ddof=1) if sum(map(len, ys)) > 1 else 0.0
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_arm_variance_at_a_large_mean():
    """Mean 1e8, sigma 1: the raw sum of squares (~5e18, ulp 512) would keep
    no digit of the ~450 centered sum.  The pooled one is limited only by
    the stored center means, each resolved to ulp(1e8) ~ 1.5e-8 against
    center-mean spreads ~0.1, so ~1e-7 relative in the between-center
    term, a small share of the total."""
    rng = np.random.default_rng(7)
    ys = [rng.normal(1e8, 1.0, n) for n in (50, 120, 80, 200)]
    s = ArmSummary.from_records(_arm_records({0: ys[:1], 1: ys}), continuous=True)
    assert s.var1_obs == pytest.approx(np.var(np.concatenate(ys), ddof=1), rel=1e-7)
    assert s.var0_obs == pytest.approx(np.var(ys[0], ddof=1), rel=1e-12)


def test_design_rows_are_the_packages_as_floats():
    """``from_records`` builds each design row with ``tolist``; the rows
    equal the per-value ``float`` rows, signed zeros included."""
    rng = np.random.default_rng(19)
    centers = [CenterData.from_stats(0, np.array([0.0, -0.0, 0.0]), 30, 12, 12 * 18 / 30)]
    for _ in range(40):
        package = rng.choice([-0.0, 0.0, 1.0, 2.5, 1e-300, 7.0 / 3.0], size=3)
        centers.append(CenterData.from_stats(1, package, int(rng.integers(1, 60)), 0, 0.0))
    records = [StageRecord(stage_index=1, centers=centers)]
    rows = ArmSummary.from_records(records).design_obs
    expected = tuple((tuple(float(v) for v in c.package), float(c.size)) for c in centers)
    assert repr(rows) == repr(expected)
    assert all(type(v) is float for row, _ in rows for v in row)


def test_t_statistic_requires_variances():
    s = ArmSummary(n1_obs=10, n0_obs=10, s1_obs=5.0, s0_obs=3.0)
    with pytest.raises(ValueError):
        _statistic(s, "t_unpooled")


def test_wald_statistic_quadratic_form():
    cov = np.array([[0.5, 0.1, 0.0], [0.1, 0.04, 0.01], [0.0, 0.01, 0.09]])
    model = make_model([0.2, 0.3, -0.1], cov=cov)
    expected = np.array([0.3, -0.1]) @ np.linalg.inv(cov[1:, 1:]) @ np.array([0.3, -0.1])
    assert wald_statistic(model) == pytest.approx(expected, rel=1e-12)


def test_final_test_z_pvalue_and_rejection():
    s = ArmSummary(n1_obs=100, n0_obs=100, s1_obs=70, s0_obs=50)
    res = final_test(s, Selector("z_unpooled"), alpha=0.05)
    z = 0.2 / math.sqrt(0.0046)
    assert res.statistic == pytest.approx(z, abs=1e-12)
    assert res.p_value == pytest.approx(2 * scipy.stats.norm.sf(z), rel=1e-10)
    assert res.reject and res.df == 1 and res.kind == "z_unpooled"


def test_final_test_wald_needs_model_and_uses_chi2():
    s = ArmSummary(n1_obs=10, n0_obs=10, s1_obs=5, s0_obs=5)
    with pytest.raises(ValueError):
        final_test(s, Selector("wald_pdf_binary"))
    model = make_model([0.0, 0.3], cov=np.array([[0.02, 0.0], [0.0, 0.01]]))
    res = final_test(s, Selector("wald_pdf_binary"), alpha=0.05, model=model)
    assert res.statistic == pytest.approx(9.0, rel=1e-12)
    assert res.p_value == pytest.approx(scipy.stats.chi2.sf(9.0, 1), rel=1e-10)
    assert res.reject


def test_final_test_no_rejection_at_boundary():
    """Strictly-greater rejection: a statistic exactly at the critical value keeps H0."""
    s = ArmSummary(n1_obs=100, n0_obs=100, s1_obs=70, s0_obs=50)
    res = final_test(s, Selector("z_unpooled"), alpha=2 * norm_sf(_statistic(s, "z_unpooled")))
    assert not res.reject


def test_final_test_rejects_alpha_outside_unit_interval():
    # alpha >= 1 used to give reject=True with a zero critical value
    s = ArmSummary(n1_obs=100, n0_obs=100, s1_obs=70, s0_obs=50)
    model = make_model([0.0, 0.3], cov=np.array([[0.02, 0.0], [0.0, 0.01]]))
    for alpha in (1.5, 1.0, 0.0, -0.1, float("nan")):
        for kind in ("z_unpooled", "z_pooled", "wald_pdf_binary"):
            with pytest.raises(ValueError, match="alpha"):
                final_test(s, Selector(kind), alpha=alpha, model=model)


# Each projected-power entry point used to accept alpha = 1.5 and return a
# power above 1 (1.06 at x = (1, 4) with the 1a coefficients) or a negative
# slack; the final test already refused it.
BAD_PROBABILITIES = (1.5, 1.0, 0.0, -0.1, float("nan"))


def _alpha_problem():
    design = (((1.0, 0.0), 40.0), ((0.0, 4.0), 40.0), ((1.0, 4.0), 40.0), ((0.0, 0.0), 40.0))
    summary = ArmSummary(
        n1_obs=120, n0_obs=40, s1_obs=74.0, s0_obs=21.0,
        n1_future=120, n0_future=40, design_obs=design,
    )
    return make_model([0.1, 0.3, 0.15]), summary, np.array([1.0, 4.0])


@pytest.mark.parametrize("alpha", BAD_PROBABILITIES)
def test_unconditional_power_at_level_rejects_alpha_outside_unit_interval(alpha):
    model, s, x = _alpha_problem()
    for kind in ("z_unpooled", "z_pooled"):
        with pytest.raises(ValueError, match="alpha must"):
            unconditional_power_at_level(0.7, model, s, Selector(kind), alpha)


@pytest.mark.parametrize("alpha", BAD_PROBABILITIES)
def test_unconditional_power_rejects_alpha_outside_unit_interval(alpha):
    model, s, x = _alpha_problem()
    for kind in ("z_unpooled", "wald_pdf_binary"):
        with pytest.raises(ValueError, match="alpha must"):
            unconditional_power(x, model, s, Selector(kind), alpha)


@pytest.mark.parametrize("alpha, pi", [(a, 0.8) for a in BAD_PROBABILITIES]
                         + [(0.05, p) for p in BAD_PROBABILITIES])
def test_conditional_slack_rejects_alpha_or_pi_outside_unit_interval(alpha, pi):
    model, s, x = _alpha_problem()
    name = "alpha" if alpha != 0.05 else "pi"
    with pytest.raises(ValueError, match=f"{name} must"):
        conditional_slack_at_level(0.7, model, s, Selector("z_unpooled"), alpha, pi)
    with pytest.raises(ValueError, match=f"{name} must"):
        conditional_constraint_slack(x, model, s, Selector("z_unpooled"), alpha, pi)


@pytest.mark.parametrize("alpha", BAD_PROBABILITIES)
def test_conditional_power_at_level_rejects_alpha_outside_unit_interval(alpha):
    from lago.power import conditional_power_at_level

    model, s, x = _alpha_problem()
    with pytest.raises(ValueError, match="alpha must"):
        conditional_power_at_level(0.7, model, s, Selector("z_unpooled"), alpha)


def test_test_selector_validation_and_flags():
    with pytest.raises(ValueError):
        Selector("z_bogus")
    assert Selector("z_pooled").pooled
    assert not Selector("z_pooled").wald
    assert Selector("wald_pdf_binary").wald
    assert Selector("t_unpooled").continuous_outcome
    assert Selector("wald_pdf_binary").df(3) == 3
    assert Selector("z_unpooled").df(3) == 1


# ---------------------------------------------------------------------------
# unconditional projections: formula shape and Monte Carlo oracles
# ---------------------------------------------------------------------------

def scenario_summary():
    """Stage-1 data resembling a small two-stage binary trial."""
    return ArmSummary(
        n1_obs=120, n0_obs=40, s1_obs=74.0, s0_obs=21.0,
        n1_future=120, n0_future=40,
    )


def test_lambda_at_level_transcribes_the_projection():
    model = make_model([0.1, 0.3, 0.15])
    s = scenario_summary()
    level = 0.7
    p0 = expit(0.1)
    pbar1 = (74.0 + 120 * level) / 240.0
    pbar0 = (21.0 + 40 * p0) / 80.0
    expected = (pbar1 - pbar0) ** 2 / (
        pbar1 * (1 - pbar1) / 240.0 + pbar0 * (1 - pbar0) / 80.0
    )
    got = lambda_at_level(level, model, s, Selector("z_unpooled"))
    assert got == pytest.approx(expected, rel=1e-12)
    pr = projected_rates(level, model, s)
    assert pr == (pytest.approx(pbar1, rel=1e-14), pytest.approx(pbar0, rel=1e-14))


def test_lambda_zero_iff_projections_coincide():
    model = make_model([0.0, 0.5])
    # choose sums so both arms project to the same overall rate 0.5
    s = ArmSummary(n1_obs=100, n0_obs=100, s1_obs=50.0, s0_obs=50.0,
                   n1_future=0.0, n0_future=0.0)
    lam = lambda_at_level(0.5, model, s, Selector("z_unpooled"))
    assert lam == pytest.approx(0.0, abs=1e-25)


def _mc_power_binary(summary, p1_obs, p0_obs, level, p0, pooled, alpha, reps, seed):
    """Simulate the full trial with the projected rates as truth; count rejections."""
    rng = np.random.default_rng(seed)
    crit = scipy.stats.norm.ppf(1 - alpha / 2)
    n1o, n0o = int(summary.n1_obs), int(summary.n0_obs)
    n1f, n0f = int(summary.n1_future), int(summary.n0_future)
    s1 = rng.binomial(n1o, p1_obs, reps) + rng.binomial(n1f, level, reps)
    s0 = rng.binomial(n0o, p0_obs, reps) + rng.binomial(n0f, p0, reps)
    N1, N0 = n1o + n1f, n0o + n0f
    p1hat, p0hat = s1 / N1, s0 / N0
    if pooled:
        pp = (s1 + s0) / (N1 + N0)
        var = pp * (1 - pp) * (1 / N1 + 1 / N0)
    else:
        var = p1hat * (1 - p1hat) / N1 + p0hat * (1 - p0hat) / N0
    z = np.where(var > 0, (p1hat - p0hat) / np.sqrt(np.maximum(var, 1e-300)), 0.0)
    return float(np.mean(np.abs(z) > crit))


@pytest.mark.parametrize("kind", ["z_unpooled", "z_pooled"])
def test_unconditional_power_matches_simulation(kind):
    """The projected power is the rejection rate when projections are the truth."""
    model = make_model([0.1, 0.3, 0.15])
    s = scenario_summary()
    level = 0.70
    p0 = expit(0.1)
    got = unconditional_power_at_level(level, model, s, Selector(kind), alpha=0.05)
    sim = _mc_power_binary(
        s, p1_obs=74.0 / 120, p0_obs=21.0 / 40, level=level, p0=p0,
        pooled=(kind == "z_pooled"), alpha=0.05, reps=200_000, seed=7,
    )
    assert got == pytest.approx(sim, abs=0.01)


def test_unconditional_power_t_matches_simulation():
    model = make_model([0.2, 0.5], link="identity", kind="continuous", sigma2=1.0)
    s = ArmSummary(
        n1_obs=90, n0_obs=60, s1_obs=90 * 0.55, s0_obs=60 * 0.18,
        n1_future=90, n0_future=60, var1_obs=1.1, var0_obs=0.9,
    )
    x = np.array([0.9])
    level = 0.2 + 0.5 * 0.9
    got = unconditional_power(x, model, s, Selector("t_unpooled"), alpha=0.05)

    rng = np.random.default_rng(11)
    crit = scipy.stats.norm.ppf(0.975)
    reps = 200_000
    # observed portions resampled around their realized means, future at the
    # model mean; simulate through sufficient statistics (portion means are
    # normal, portion sums-of-squares are scaled chi-squares)
    m1o, m0o = 0.55, 0.18

    def arm(mean_obs, mean_fut, var, n_obs, n_fut):
        mo = rng.normal(mean_obs, math.sqrt(var / n_obs), reps)
        mf = rng.normal(mean_fut, math.sqrt(var / n_fut), reps)
        ss = var * (rng.chisquare(n_obs - 1, reps) + rng.chisquare(n_fut - 1, reps))
        n = n_obs + n_fut
        mbar = (n_obs * mo + n_fut * mf) / n
        ss_total = ss + n_obs * (mo - mbar) ** 2 + n_fut * (mf - mbar) ** 2
        return mbar, ss_total / (n - 1), n

    mb1, v1, n1 = arm(m1o, level, 1.1, 90, 90)
    mb0, v0, n0 = arm(m0o, 0.2, 0.9, 60, 60)
    t = (mb1 - mb0) / np.sqrt(v1 / n1 + v0 / n0)
    assert got == pytest.approx(float(np.mean(np.abs(t) > crit)), abs=0.012)


def test_unconditional_lambda_wald_binary_matches_direct_inversion():
    """Schur-complement shortcut equals inverting the full information matrix."""
    beta = np.array([0.1, 0.3, 0.15])
    model = make_model(beta)
    design = (((1.0, 0.0), 40.0), ((0.0, 4.0), 40.0), ((1.0, 4.0), 40.0), ((0.0, 0.0), 40.0))
    s = ArmSummary(
        n1_obs=120, n0_obs=40, s1_obs=74.0, s0_obs=21.0,
        n1_future=120, n0_future=40, design_obs=design,
    )
    x = np.array([0.8, 3.0])
    rows = list(design) + [(tuple(x), 120.0), ((0.0, 0.0), 40.0)]
    info = np.zeros((3, 3))
    for pkg, n in rows:
        z = np.array([1.0, *pkg])
        p = expit(beta @ z)
        info += n * p * (1 - p) * np.outer(z, z)
    cov = np.linalg.inv(info)
    expected = beta[1:] @ np.linalg.inv(cov[1:, 1:]) @ beta[1:]
    got = unconditional_lambda(x, model, s, Selector("wald_pdf_binary"))
    assert got == pytest.approx(expected, rel=1e-10)


def _wald_continuous_summary(*packages):
    design = (((0.0, 0.0, 0.0), 40.0),) + tuple((pkg, 40.0) for pkg in packages)
    return ArmSummary(
        n1_obs=40.0 * len(packages), n0_obs=40, s1_obs=30.0, s0_obs=10.0,
        n1_future=80, n0_future=40, var1_obs=1.5, var0_obs=1.0, design_obs=design,
    )


def test_unconditional_lambda_wald_continuous_rank_deficient_design():
    """Control, one observed and one future package: 3 distinct rows for 4
    coefficients.  Inverting that bread without a rank check gave an
    arbitrary lambda (-24.4) on this design."""
    model = make_model([0.2, 0.5, -0.3, 0.4], link="identity", kind="continuous", sigma2=1.0)
    test = Selector("wald_pdf_continuous")
    x = np.array([2.805, 2.448, 0.008])
    with pytest.raises(SingularCovarianceError):
        unconditional_lambda(x, model, _wald_continuous_summary((1.82, 2.188, 1.631)), test)
    # one more distinct observed package makes the design full rank
    full = _wald_continuous_summary((1.82, 2.188, 1.631), (0.5, 1.0, 2.5))
    lam = unconditional_lambda(x, model, full, test)
    assert math.isfinite(lam) and lam > 0.0


def test_unconditional_power_wald_against_simulation():
    """End-to-end: simulate trials at the model rates, Wald-test each, compare rates."""
    from lago.model import fit_binary
    from lago.power import chisq_quantile as cq

    beta = np.array([0.1, 0.3, 0.15])
    model = make_model(beta)
    design = (((1.0, 0.0), 60.0), ((0.0, 4.0), 60.0), ((1.0, 4.0), 60.0), ((0.0, 0.0), 60.0))
    s = ArmSummary(
        n1_obs=180, n0_obs=60,
        # align observed sums with the model so the projection premise holds
        s1_obs=60 * (expit(0.4) + expit(1.3) + expit(1.6)), s0_obs=60 * expit(0.1),
        n1_future=180, n0_future=60, design_obs=design,
    )
    x = np.array([1.0, 4.0])
    got = unconditional_power(x, model, s, Selector("wald_pdf_binary"), alpha=0.05)

    rng = np.random.default_rng(3)
    crit = cq(0.95, 2)
    reps, rejected = 1500, 0
    future = [(np.array([1.0, 4.0]), 180), (np.zeros(2), 60)]
    observed = [(np.asarray(p), int(n)) for p, n in design]
    for _ in range(reps):
        centers = []
        for pkg, n in observed + future:
            prob = expit(beta @ np.array([1.0, *pkg]))
            y = rng.binomial(1, prob, int(n)).astype(float)
            centers.append(CenterData(arm=1 if pkg.any() else 0, package=pkg, outcomes=y))
        fit = fit_binary([StageRecord(stage_index=1, centers=centers)])
        w = wald_statistic(fit)
        if w > crit:
            rejected += 1
    assert got == pytest.approx(rejected / reps, abs=0.035)


def test_pooled_rescale_shifts_power_in_right_direction():
    """Pooled power differs from unpooled exactly opposite to the projected
    variance ratio (smaller rejection denominator -> more rejections)."""
    model = make_model([0.1, 0.3, 0.15])
    s = scenario_summary()
    level = 0.75
    up = unconditional_power_at_level(level, model, s, Selector("z_unpooled"))
    pp = unconditional_power_at_level(level, model, s, Selector("z_pooled"))
    pbar1, pbar0 = projected_rates(level, model, s)
    unpooled_var = pbar1 * (1 - pbar1) / 240 + pbar0 * (1 - pbar0) / 80
    pool = (74.0 + 120 * level + 21.0 + 40 * expit(0.1)) / 320.0
    pooled_var = pool * (1 - pool) * (1 / 240 + 1 / 80)
    assert pp != pytest.approx(up, abs=1e-4)
    assert (pp > up) == (pooled_var < unpooled_var)


def _mixture_power(level, model, summary, test, alpha):
    """The Poisson-mixture form the 1-df closed form replaced, kept as oracle."""
    lam = lambda_at_level(level, model, summary, test)
    crit = chisq_quantile(1.0 - alpha, 1) * _lambda_and_rescale(level, model, summary, test)[1]
    return 1.0 - noncentral_chisq_cdf(crit, 1, lam)


_BINARY_WIDE = ArmSummary(
    n1_obs=120, n0_obs=40, s1_obs=74.0, s0_obs=21.0,
    n1_future=1200, n0_future=400,
)
_CONTINUOUS_MODEL = make_model([0.2, 0.5], link="identity", kind="continuous", sigma2=1.0)


def _continuous_summary(var1, var0):
    return ArmSummary(
        n1_obs=90, n0_obs=30, s1_obs=90 * 0.55, s0_obs=30 * 0.18,
        n1_future=270, n0_future=90, var1_obs=var1, var0_obs=var0,
    )


# (kind, model, summary, levels); the pooled cases move the critical-value
# rescale off 1: about 0.9 (binary) and 0.4 and 2.5 (continuous)
_CLOSED_FORM_CASES = [
    ("z_unpooled", make_model([0.1, 0.3, 0.15]), _BINARY_WIDE, np.linspace(0.02, 0.98, 97)),
    ("z_pooled", make_model([0.1, 0.3, 0.15]), _BINARY_WIDE, np.linspace(0.02, 0.98, 97)),
    ("t_unpooled", _CONTINUOUS_MODEL, _continuous_summary(0.3, 3.0), np.linspace(-3.0, 3.5, 131)),
    ("t_pooled", _CONTINUOUS_MODEL, _continuous_summary(0.3, 3.0), np.linspace(-3.0, 3.5, 131)),
    ("t_pooled", _CONTINUOUS_MODEL, _continuous_summary(3.0, 0.3), np.linspace(-3.0, 3.5, 131)),
]


@pytest.mark.parametrize("kind, model, s, levels", _CLOSED_FORM_CASES)
def test_unconditional_power_closed_form_matches_mixture_oracle(kind, model, s, levels):
    test = Selector(kind)
    lams, rescales = [], []
    for level in levels:
        lam = lambda_at_level(level, model, s, test)
        if lam > 80.0:
            continue
        lams.append(lam)
        rescales.append(_lambda_and_rescale(level, model, s, test)[1])
        for alpha in (0.01, 0.05, 0.1, 0.2):
            got = unconditional_power_at_level(level, model, s, test, alpha)
            assert abs(got - _mixture_power(level, model, s, test, alpha)) <= 1e-12
    assert min(lams) < 0.1 and max(lams) > 50.0
    if test.pooled:
        assert max(abs(r - 1.0) for r in rescales) > 0.05


def test_unconditional_power_reads_lambda_and_rescale_of_the_level():
    """The power step reads the noncentrality and the pooled rescale from one
    set of projected moments; seeded levels give exactly the value composed
    from ``lambda_at_level`` and the rescale of ``_lambda_and_rescale``."""
    rng = np.random.default_rng(17)
    for kind, model, s, levels in _CLOSED_FORM_CASES:
        test = Selector(kind)
        for level in rng.uniform(levels[0], levels[-1], 200):
            for alpha in (0.01, 0.05, 0.2):
                c = norm_quantile(1.0 - 0.5 * alpha) * math.sqrt(
                    _lambda_and_rescale(level, model, s, test)[1]
                )
                r = math.sqrt(lambda_at_level(level, model, s, test))
                expected = norm_sf(c - r) + norm_sf(c + r)
                assert unconditional_power_at_level(level, model, s, test, alpha) == expected


def test_unconditional_power_closed_form_scipy_pin():
    _, model, s, _ = _CLOSED_FORM_CASES[1]
    test = Selector("z_pooled")
    level = 0.6
    lam = lambda_at_level(level, model, s, test)
    crit = scipy.stats.chi2.ppf(0.95, 1) * _lambda_and_rescale(level, model, s, test)[1]
    assert unconditional_power_at_level(level, model, s, test, 0.05) == pytest.approx(
        scipy.stats.ncx2.sf(crit, 1, lam), abs=1e-12
    )


# ---------------------------------------------------------------------------
# conditional constraint
# ---------------------------------------------------------------------------

def test_conditional_slack_transcription():
    """Spell the inequality out longhand and compare term by term."""
    model = make_model([0.1, 0.3, 0.15])
    s = scenario_summary()
    level, alpha, pi = 0.72, 0.05, 0.8
    p0 = expit(0.1)
    N1, N0 = 240.0, 80.0
    pbar1 = (74.0 + 120 * level) / N1
    pbar0 = (21.0 + 40 * p0) / N0
    g1 = math.sqrt(pbar1 * (1 - pbar1) / N1 + pbar0 * (1 - pbar0) / N0)
    drift = 74.0 / N1 - 21.0 / N0 + (120 * level / N1 - 40 * p0 / N0)
    fut_sd = math.sqrt(120 * level * (1 - level) / N1**2 + 40 * p0 * (1 - p0) / N0**2)
    expected = (
        scipy.stats.norm.ppf(1 - alpha / 2) * g1
        - drift
        - scipy.stats.norm.ppf(1 - pi) * fut_sd
    )
    got = conditional_slack_at_level(level, model, s, Selector("z_unpooled"), alpha, pi)
    assert got == pytest.approx(expected, rel=1e-12)


def test_conditional_variance_scale_switch():
    model = make_model([0.1, 0.3, 0.15])
    s = scenario_summary()
    level, alpha, pi = 0.72, 0.05, 0.8
    p0 = expit(0.1)
    sd = conditional_slack_at_level(level, model, s, Selector("z_unpooled"), alpha, pi)
    var = conditional_slack_at_level(
        level, model, s, Selector("z_unpooled"), alpha, pi, scale="variance"
    )
    fut_var = 120 * level * (1 - level) / 240.0**2 + 40 * p0 * (1 - p0) / 80.0**2
    z_pi = scipy.stats.norm.ppf(1 - pi)
    assert var - sd == pytest.approx(-z_pi * (fut_var - math.sqrt(fut_var)), rel=1e-10)
    # pooled kind ignores the switch
    sd_p = conditional_slack_at_level(level, model, s, Selector("z_pooled"), alpha, pi)
    var_p = conditional_slack_at_level(
        level, model, s, Selector("z_pooled"), alpha, pi, scale="variance"
    )
    assert sd_p == var_p


def test_conditional_slack_sign_agrees_with_simulated_conditional_power():
    """slack <= 0 exactly when P(one-sided reject | stage-1 data) >= pi."""
    model = make_model([0.1, 0.3, 0.15])
    s = scenario_summary()
    alpha, pi = 0.05, 0.8
    p0 = expit(0.1)
    rng = np.random.default_rng(19)
    crit = scipy.stats.norm.ppf(1 - alpha / 2)
    reps = 150_000

    def mc_conditional(level):
        s1 = 74.0 + rng.binomial(120, level, reps)
        s0 = 21.0 + rng.binomial(40, p0, reps)
        p1hat, p0hat = s1 / 240.0, s0 / 80.0
        var = p1hat * (1 - p1hat) / 240.0 + p0hat * (1 - p0hat) / 80.0
        return float(np.mean((p1hat - p0hat) / np.sqrt(var) > crit))

    for level in (0.62, 0.68, 0.74, 0.82):
        slack = conditional_slack_at_level(
            level, model, s, Selector("z_unpooled"), alpha, pi
        )
        power = mc_conditional(level)
        if abs(power - pi) > 0.01:  # outside MC noise of the boundary
            assert (slack <= 0) == (power >= pi), (level, slack, power)

    # at the zero-slack level the conditional power should sit near pi itself
    lo, hi = 0.55, 0.95
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if conditional_slack_at_level(mid, model, s, Selector("z_unpooled"), alpha, pi) > 0:
            lo = mid
        else:
            hi = mid
    assert mc_conditional(0.5 * (lo + hi)) == pytest.approx(pi, abs=0.02)


def test_conditional_slack_mirror_symmetry():
    """Flipping every outcome and the direction leaves the slack unchanged."""
    model = make_model([0.1, 0.3, 0.15])
    s = scenario_summary()
    mirrored = ArmSummary(
        n1_obs=s.n1_obs, n0_obs=s.n0_obs,
        s1_obs=s.n1_obs - s.s1_obs, s0_obs=s.n0_obs - s.s0_obs,
        n1_future=s.n1_future, n0_future=s.n0_future,
    )
    flipped_model = make_model([-0.1, -0.3, -0.15])
    x = np.array([1.0, 3.0])
    a = conditional_constraint_slack(
        x, model, s, Selector("z_unpooled"), 0.05, 0.8, direction="increase"
    )
    b = conditional_constraint_slack(
        x, flipped_model, mirrored, Selector("z_unpooled"), 0.05, 0.8, direction="decrease"
    )
    assert a == pytest.approx(b, rel=1e-12)


def test_conditional_rejects_wald_kinds():
    model = make_model([0.1, 0.3, 0.15])
    s = scenario_summary()
    with pytest.raises(ValueError):
        conditional_constraint_slack(
            np.array([1.0, 4.0]), model, s, Selector("wald_pdf_binary"), 0.05, 0.8
        )


def test_conditional_power_duality_with_slack():
    """conditional power >= pi exactly when the slack is <= 0, and it matches
    the same simulation the slack test uses."""
    from lago.power import conditional_power_at_level

    model = make_model([0.1, 0.3, 0.15])
    s = scenario_summary()
    alpha = 0.05
    for level in (0.60, 0.66, 0.72, 0.80, 0.90):
        cp = conditional_power_at_level(level, model, s, Selector("z_unpooled"), alpha)
        for pi in (0.5, 0.8, 0.9):
            slack = conditional_slack_at_level(
                level, model, s, Selector("z_unpooled"), alpha, pi
            )
            assert (slack <= 0) == (cp >= pi), (level, pi, slack, cp)

    # MC agreement at one interior level
    rng = np.random.default_rng(23)
    p0 = expit(0.1)
    crit = scipy.stats.norm.ppf(0.975)
    s1 = 74.0 + rng.binomial(120, 0.72, 200_000)
    s0 = 21.0 + rng.binomial(40, p0, 200_000)
    p1hat, p0hat = s1 / 240.0, s0 / 80.0
    var = p1hat * (1 - p1hat) / 240.0 + p0hat * (1 - p0hat) / 80.0
    sim = float(np.mean((p1hat - p0hat) / np.sqrt(var) > crit))
    got = conditional_power_at_level(0.72, model, s, Selector("z_unpooled"), 0.05)
    assert got == pytest.approx(sim, abs=0.01)


def test_conditional_slack_decreasing_in_level():
    """A better projected rate can only help the power goal."""
    model = make_model([0.1, 0.3, 0.15])
    s = scenario_summary()
    levels = np.linspace(0.55, 0.95, 30)
    slacks = [
        conditional_slack_at_level(t, model, s, Selector("z_unpooled"), 0.05, 0.8)
        for t in levels
    ]
    assert all(a >= b - 1e-12 for a, b in zip(slacks, slacks[1:]))


def test_unconditional_power_increasing_in_level():
    model = make_model([0.1, 0.3, 0.15])
    s = scenario_summary()
    levels = np.linspace(0.56, 0.95, 25)
    powers = [
        unconditional_power_at_level(t, model, s, Selector("z_unpooled"))
        for t in levels
    ]
    assert all(a <= b + 1e-12 for a, b in zip(powers, powers[1:]))

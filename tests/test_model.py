"""Outcome-model fitting: IRLS logistic, continuous GLM, CSV ingestion.

scipy.optimize is the maximum-likelihood oracle for the logistic fit and the
log-link fit; plain linear algebra spelled out longhand is the oracle for the
least-squares path and the sandwich covariance.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from lago.errors import RankDeficientError, SeparationError
from lago.model import (
    CenterData,
    FittedModel,
    StageRecord,
    expit,
    fit_binary,
    fit_continuous,
    link_forward,
    link_inverse,
    link_inverse_deriv,
    load_stage_csv,
    logistic_information,
    mirrored,
    predict,
)


def binary_stage(rng, beta, packages, n_per_center, stage_index=1):
    centers, draws = [], []
    for pkg in packages:
        pkg = np.asarray(pkg, dtype=float)
        arm = 1 if pkg.any() else 0
        p = expit(beta[0] + beta[1:] @ pkg)
        y = rng.binomial(1, p, n_per_center).astype(float)
        centers.append(CenterData(arm=arm, package=pkg, outcomes=y))
        draws.append(y)
    rec = StageRecord(stage_index=stage_index, centers=centers)
    rec.draws = draws  # the vectors the centers were reduced from
    return rec


def obs_design(records):
    """Per-observation design (X with intercept, y) from the drawn vectors."""
    rows, ys = [], []
    for rec in records:
        for c, y in zip(rec.centers, rec.draws):
            rows.append(np.tile(np.concatenate(([1.0], c.package)), (y.size, 1)))
            ys.append(y)
    return np.vstack(rows), np.concatenate(ys)


# ---------------------------------------------------------------------------
# link helpers
# ---------------------------------------------------------------------------

def test_expit_is_stable_and_correct():
    assert expit(0.0) == 0.5
    assert expit(800.0) == 1.0
    assert expit(-800.0) == 0.0
    xs = np.linspace(-30, 30, 101)
    assert np.allclose(expit(xs), 1.0 / (1.0 + np.exp(-xs)))


def test_scalar_expit_matches_array_path():
    etas = np.concatenate([np.linspace(-800.0, 800.0, 4001), [-np.inf, np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        array = expit(etas)
        for eta, ref in zip(etas, array):
            for scalar in (float(eta), np.float64(eta)):
                got = expit(scalar)
                assert type(got) is float
                # libm and numpy's SIMD exp may each round differently
                assert abs(got - ref) <= 4 * math.ulp(ref)
    assert expit(3) == expit(3.0)
    assert isinstance(expit(np.array(0.5)), float)


def test_link_round_trips():
    for link, mu in (("logit", 0.7), ("identity", 0.3), ("log", 2.5)):
        assert link_inverse(link, link_forward(link, mu)) == pytest.approx(mu, rel=1e-12)


def test_continuous_link_inverse_takes_every_scalar_to_a_float():
    # Scalars of every kind give the float that float() / math.exp give,
    # arrays stay arrays.
    etas = np.linspace(-700.0, 700.0, 2001)
    for link, ref in (("identity", float), ("log", math.exp)):
        for eta in etas:
            for scalar in (float(eta), np.float64(eta), np.array(eta)):
                got = link_inverse(link, scalar)
                assert type(got) is float and got == ref(float(eta))
        assert link_inverse(link, 3) == ref(3.0)
        assert type(link_inverse(link, np.float32(0.5))) is float
        assert isinstance(link_inverse(link, etas), np.ndarray)
    with pytest.raises(ValueError, match="unknown link"):
        link_inverse("probit", 0.5)


def test_link_inverse_deriv_matches_numeric():
    h = 1e-6
    for link in ("logit", "identity", "log"):
        for eta in (-1.2, 0.0, 0.8):
            numeric = (link_inverse(link, eta + h) - link_inverse(link, eta - h)) / (2 * h)
            assert link_inverse_deriv(link, eta) == pytest.approx(numeric, rel=1e-6)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_center_data_validation():
    with pytest.raises(ValueError):
        CenterData(arm=0, package=np.array([1.0]), outcomes=np.array([1.0]))
    with pytest.raises(ValueError):
        CenterData(arm=2, package=np.array([1.0]), outcomes=np.array([1.0]))
    with pytest.raises(ValueError):
        CenterData(arm=1, package=np.array([1.0]), outcomes=np.array([]))


def test_center_data_keeps_only_statistics():
    y = np.array([2.0, 3.5, -1.0, 4.25, 0.5])
    c = CenterData(arm=1, package=np.array([1.0]), outcomes=y)
    assert c.size == 5 and c.outcome_sum == float(y.sum())
    assert c.m2 == pytest.approx(y.size * np.var(y), rel=1e-12)
    assert not hasattr(c, "outcomes")
    same = CenterData.from_stats(1, [1.0], 5, c.outcome_sum, c.m2)
    assert (same.size, same.outcome_sum, same.m2) == (c.size, c.outcome_sum, c.m2)
    whole = CenterData.from_stats(1, [1.0], 5.0, c.outcome_sum, c.m2)
    assert whole == same and type(whole.size) is int
    for size, total, m2 in ((0, 0.0, 0.0), (2.5, 1.0, 0.5), (3, math.nan, 0.5),
                            (3, 1.0, -0.5), (3, 1.0, math.inf), (True, 1.0, 0.0)):
        with pytest.raises(ValueError):
            CenterData.from_stats(1, [1.0], size, total, m2)
    with pytest.raises(ValueError):
        CenterData.from_stats(0, [1.0], 3, 1.0, 0.5)


def test_stage_record_counts_and_sums():
    rec = StageRecord(stage_index=1, centers=[
        CenterData(arm=0, package=np.zeros(2), outcomes=np.array([0.0, 1.0, 0.0])),
        CenterData(arm=1, package=np.array([1.0, 4.0]), outcomes=np.array([1.0, 1.0])),
    ])
    assert rec.n_components == 2
    with pytest.raises(ValueError):
        StageRecord(stage_index=0, centers=rec.centers)
    with pytest.raises(ValueError):
        StageRecord(stage_index=1, centers=[])


def test_containers_compare_by_value_with_multi_component_packages():
    def center(package, outcomes=(1.0, 0.0, 1.0)):
        return CenterData(arm=1, package=np.array(package), outcomes=np.array(outcomes))

    assert center([1.0, 4.0]) == center([1.0, 4.0])
    assert center([1.0, 4.0]) != center([1.0, 3.0])
    assert center([1.0, 4.0]) != center([1.0, 4.0], outcomes=(1.0, 1.0, 1.0))
    assert center([1.0, 4.0]) != center([1.0, 4.0, 0.0])
    control = CenterData(arm=0, package=np.zeros(2), outcomes=np.array([0.0, 1.0]))
    a = StageRecord(stage_index=2, centers=[control, center([1.0, 4.0])])
    b = StageRecord(stage_index=2, centers=[control, center([1.0, 4.0])])
    assert a == b
    assert a != StageRecord(stage_index=2, centers=[control, center([0.0, 4.0])])
    m = FittedModel(np.array([0.1, 0.3, 0.15]), "logit", np.eye(3), 10, "binary")
    assert m == FittedModel(np.array([0.1, 0.3, 0.15]), "logit", np.eye(3), 10, "binary")
    assert m != FittedModel(np.array([0.1, 0.3, 0.15]), "logit", 2 * np.eye(3), 10, "binary")


# ---------------------------------------------------------------------------
# logistic fit
# ---------------------------------------------------------------------------

def test_fit_binary_matches_scipy_mle():
    rng = np.random.default_rng(5)
    beta_true = np.array([0.1, 0.3, 0.15])
    rec = binary_stage(rng, beta_true, [(0, 0), (1, 0), (0, 4), (1, 4)], 60)
    fit = fit_binary([rec])

    X, y = obs_design([rec])

    def nll(b):
        eta = X @ b
        return -(y @ eta - np.logaddexp(0.0, eta).sum())

    res = scipy.optimize.minimize(nll, np.zeros(3), method="BFGS",
                                  options={"gtol": 1e-10})
    assert fit.beta == pytest.approx(res.x, abs=2e-6)

    # covariance = inverse observed information at the optimum
    p = expit(X @ fit.beta)
    H = X.T @ (X * (p * (1 - p))[:, None])
    assert np.allclose(fit.covariance, np.linalg.inv(H), rtol=1e-8)
    assert fit.kind == "binary" and fit.link == "logit"
    assert fit.n_used == 240


def test_logistic_information_matches_outer_product_sum():
    rng = np.random.default_rng(11)
    X = np.column_stack([np.ones(7), rng.uniform(0.0, 4.0, (7, 3))])
    n = rng.integers(1, 80, 7).astype(float)
    p = rng.uniform(0.02, 0.98, 7)
    oracle = np.zeros((4, 4))
    for row, size, prob in zip(X, n, p):
        oracle += size * prob * (1.0 - prob) * np.outer(row, row)
    got = logistic_information(X, n, p)
    assert got == pytest.approx(oracle, rel=1e-13, abs=0.0)


def test_logistic_information_is_the_binary_fit_precision():
    rng = np.random.default_rng(12)
    packages = [(0, 0), (1, 0), (0, 4), (1, 4)]
    rec = binary_stage(rng, np.array([0.1, 0.3, 0.15]), packages, 60)
    fit = fit_binary([rec])
    X = np.array([np.concatenate(([1.0], c.package)) for c in rec.centers])
    n = np.array([float(c.size) for c in rec.centers])
    info = logistic_information(X, n, expit(X @ fit.beta))
    assert np.array_equal(np.linalg.inv(info), fit.covariance)


def test_fit_binary_score_equations_hold():
    rng = np.random.default_rng(9)
    rec = binary_stage(rng, np.array([-0.4, 0.25]), [(0,), (1.0,), (2.0,)], 50)
    fit = fit_binary([rec])
    X, y = obs_design([rec])
    score = X.T @ (y - expit(X @ fit.beta))
    assert np.linalg.norm(score) < 1e-6


def test_fit_binary_intercept_only_even_split():
    """Single control center, empty package, half successes: beta0 = 0."""
    y = np.array([0.0, 1.0] * 25)
    rec = StageRecord(stage_index=1, centers=[
        CenterData(arm=0, package=np.array([]), outcomes=y)
    ])
    fit = fit_binary([rec])
    assert fit.beta.shape == (1,)
    assert fit.intercept == pytest.approx(0.0, abs=1e-10)


def test_fit_binary_invariant_to_center_regrouping():
    """Splitting a center's observations across two pseudo-centers with the
    same package cannot change the likelihood, hence not the fit."""
    rng = np.random.default_rng(17)
    rec = binary_stage(rng, np.array([0.0, 0.2, 0.1]), [(0, 0), (1, 0), (1, 4)], 40)
    whole = fit_binary([rec])

    split_centers = []
    for c, y in zip(rec.centers, rec.draws):
        half = y.size // 2
        split_centers.append(CenterData(arm=c.arm, package=c.package,
                                        outcomes=y[:half]))
        split_centers.append(CenterData(arm=c.arm, package=c.package,
                                        outcomes=y[half:]))
    split = fit_binary([StageRecord(stage_index=1, centers=split_centers)])
    assert whole.beta == pytest.approx(split.beta, abs=1e-9)


def test_fit_binary_pools_across_stages():
    rng = np.random.default_rng(2)
    rec1 = binary_stage(rng, np.array([0.1, 0.3]), [(0,), (1.0,)], 80, stage_index=1)
    rec2 = binary_stage(rng, np.array([0.1, 0.3]), [(0,), (1.5,)], 80, stage_index=2)
    both = fit_binary([rec1, rec2])
    assert both.n_used == 320
    only1 = fit_binary([rec1])
    assert not np.allclose(both.beta, only1.beta)


def test_fit_binary_separation_errors():
    ones = CenterData(arm=1, package=np.array([1.0]), outcomes=np.ones(30))
    zeros = CenterData(arm=0, package=np.zeros(1), outcomes=np.zeros(30))
    with pytest.raises(SeparationError):
        fit_binary([StageRecord(stage_index=1, centers=[
            CenterData(arm=1, package=np.array([1.0]), outcomes=np.ones(30)),
            CenterData(arm=1, package=np.array([2.0]), outcomes=np.ones(30)),
        ])])
    # perfectly separated by the package value
    with pytest.raises(SeparationError):
        fit_binary([StageRecord(stage_index=1, centers=[ones, zeros])])


@pytest.mark.parametrize("fit", [fit_binary, fit_continuous])
def test_fits_reject_empty_input(fit):
    with pytest.raises(ValueError, match="empty"):
        fit([])


def test_fit_binary_rank_deficiency():
    rng = np.random.default_rng(4)
    centers = [
        CenterData(arm=0, package=np.zeros(2), outcomes=rng.binomial(1, 0.5, 40).astype(float)),
        # second component always exactly twice the first -> collinear
        CenterData(arm=1, package=np.array([1.0, 2.0]), outcomes=rng.binomial(1, 0.6, 40).astype(float)),
        CenterData(arm=1, package=np.array([2.0, 4.0]), outcomes=rng.binomial(1, 0.7, 40).astype(float)),
    ]
    with pytest.raises(RankDeficientError):
        fit_binary([StageRecord(stage_index=1, centers=centers)])


def test_fit_binary_rejects_non_binary_outcomes():
    rec = StageRecord(stage_index=1, centers=[
        CenterData(arm=0, package=np.zeros(1), outcomes=np.array([0.0, 0.5, 1.0]))
    ])
    with pytest.raises(ValueError):
        fit_binary([rec])


def test_fit_binary_rejects_statistics_of_non_binary_outcomes():
    control = CenterData(arm=0, package=np.zeros(1), outcomes=np.array([0.0, 1.0, 1.0, 0.0]))
    for size, total, m2 in ((4, 1.5, 0.75), (4, 5.0, 0.0), (4, -1.0, 0.0),
                            (4, 2.0, 0.0), (4, 2.0, 2.0)):
        treated = CenterData.from_stats(1, [1.0], size, total, m2)
        with pytest.raises(ValueError, match="0/1"):
            fit_binary([StageRecord(stage_index=1, centers=[control, treated])])
    # the statistics of a 0/1 vector pass, whichever way they were built
    treated = CenterData.from_stats(1, [1.0], 4, 3.0, 3.0 * (4 - 3) / 4)
    fit = fit_binary([StageRecord(stage_index=1, centers=[control, treated])])
    again = fit_binary([StageRecord(stage_index=1, centers=[
        control, CenterData(arm=1, package=[1.0], outcomes=[1.0, 0.0, 1.0, 1.0])])])
    assert np.array_equal(fit.beta, again.beta)


def test_fit_binary_is_deterministic():
    rng = np.random.default_rng(8)
    rec = binary_stage(rng, np.array([0.1, 0.3, 0.15]), [(0, 0), (1, 0), (0, 4), (1, 4)], 40)
    a = fit_binary([rec])
    b = fit_binary([rec])
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.covariance, b.covariance)


# ---------------------------------------------------------------------------
# continuous fit
# ---------------------------------------------------------------------------

def continuous_stage(rng, beta, packages, n_per_center, link="identity", sd=0.5):
    centers, draws = [], []
    for pkg, n in zip(packages, np.broadcast_to(n_per_center, len(packages))):
        pkg = np.asarray(pkg, dtype=float)
        arm = 1 if pkg.any() else 0
        eta = beta[0] + beta[1:] @ pkg
        mu = eta if link == "identity" else math.exp(eta)
        y = rng.normal(mu, sd, n)
        centers.append(CenterData(arm=arm, package=pkg, outcomes=y))
        draws.append(y)
    rec = StageRecord(stage_index=1, centers=centers)
    rec.draws = draws
    return rec


def random_continuous_stages(n_components, link="identity", seeds=(301, 302, 303, 304)):
    """Seeded random designs: one control and 3-7 intervention centers of
    2-200 observations each, random packages, coefficients and spread."""
    stages = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n_centers = int(rng.integers(4, 9))
        packages = [np.zeros(n_components)] + [
            rng.uniform(0.2, 3.0, n_components) for _ in range(n_centers - 1)
        ]
        beta = rng.uniform(-0.5, 0.5, n_components + 1)
        sd = rng.uniform(0.1, 0.5) if link == "log" else rng.uniform(0.1, 3.0)
        sizes = rng.integers(2, 201, n_centers)
        stages.append(continuous_stage(rng, beta, packages, sizes, link=link, sd=sd))
    return stages


def test_fit_continuous_identity_matches_normal_equations():
    rng = np.random.default_rng(21)
    fixed = continuous_stage(rng, np.array([0.5, 0.8, -0.3]),
                             [(0, 0), (1, 0), (0, 2), (1, 2)], 50)
    for rec in [fixed, *random_continuous_stages(2)]:
        fit = fit_continuous([rec])
        X, y = obs_design([rec])
        beta_ref = np.linalg.solve(X.T @ X, X.T @ y)
        assert fit.beta == pytest.approx(beta_ref, abs=1e-10)
        resid = y - X @ fit.beta
        assert fit.sigma2 == pytest.approx(resid @ resid / (len(y) - 3), rel=1e-12)


def test_fit_continuous_sandwich_covariance_brute_force():
    rng = np.random.default_rng(22)
    fixed = continuous_stage(rng, np.array([0.5, 0.8]), [(0,), (1,), (2,)], 40)
    for rec in [fixed, *random_continuous_stages(1)]:
        fit = fit_continuous([rec])
        X, y = obs_design([rec])
        resid = y - X @ fit.beta
        A = np.zeros((2, 2))
        B = np.zeros((2, 2))
        for i in range(len(y)):
            xi = X[i]
            A += np.outer(xi, xi)          # identity link: unit mean-derivative
            B += resid[i] ** 2 * np.outer(xi, xi)
        expected = np.linalg.inv(A) @ B @ np.linalg.inv(A)
        assert np.allclose(fit.covariance, expected, rtol=1e-10)


def test_fit_continuous_log_link_matches_scipy_least_squares():
    rng = np.random.default_rng(23)
    fixed = continuous_stage(rng, np.array([0.4, 0.2]), [(0,), (1,), (3,)], 60,
                             link="log", sd=0.3)
    for rec in [fixed, *random_continuous_stages(1, link="log")]:
        fit = fit_continuous([rec], link="log")
        X, y = obs_design([rec])
        res = scipy.optimize.least_squares(
            lambda b: y - np.exp(X @ b), x0=np.zeros(2), xtol=1e-14, ftol=1e-14
        )
        assert fit.beta == pytest.approx(res.x, abs=1e-7)


@pytest.mark.parametrize("link", ["identity", "log"])
def test_fit_continuous_rank_deficiency(link):
    rng = np.random.default_rng(4)
    # second component always exactly twice the first -> collinear
    rec = continuous_stage(rng, np.array([0.5, 0.2, 0.1]), [(0, 0), (1, 2), (2, 4)], 40,
                           link=link, sd=0.3)
    with pytest.raises(RankDeficientError):
        fit_continuous([rec], link=link)


def test_fit_continuous_rejects_unknown_link():
    rng = np.random.default_rng(1)
    rec = continuous_stage(rng, np.array([0.5, 0.8]), [(0,), (1,)], 10)
    with pytest.raises(ValueError):
        fit_continuous([rec], link="probit")


# ---------------------------------------------------------------------------
# model object
# ---------------------------------------------------------------------------

def test_predict_and_mirror():
    model = FittedModel(beta=np.array([0.1, 0.3, 0.15]), link="logit",
                        covariance=np.eye(3), n_used=100, kind="binary")
    x = np.array([1.0, 4.0])
    assert predict(model, x) == pytest.approx(expit(0.1 + 0.3 + 0.6), rel=1e-12)
    flipped = mirrored(model)
    assert predict(flipped, x) == pytest.approx(1.0 - predict(model, x), rel=1e-12)
    assert np.array_equal(flipped.covariance, model.covariance)
    with pytest.raises(ValueError):
        model.linear_predictor(np.array([1.0]))


@given(st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_mirror_is_involution(beta_tail):
    beta = np.array([0.2, *beta_tail])
    model = FittedModel(beta=beta, link="logit", covariance=np.eye(beta.size),
                        n_used=10, kind="binary")
    back = mirrored(mirrored(model))
    assert np.array_equal(back.beta, model.beta)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

CSV_GOOD = """stage,center,arm,x_1,x_2,y
1,c1,0,0,0,0
1,c1,0,0,0,1
1,c2,1,1,4,1
1,c2,1,1,4,1
2,c3,1,0.5,3,0
2,c3,1,0.5,3,1
"""


def test_load_stage_csv_round_trip(tmp_path):
    path = tmp_path / "trial.csv"
    path.write_text(CSV_GOOD)
    records = load_stage_csv(path)
    assert [r.stage_index for r in records] == [1, 2]
    stage1 = records[0]
    assert len(stage1.centers) == 2
    control = next(c for c in stage1.centers if c.arm == 0)
    assert control.outcome_sum == 1.0 and control.size == 2
    treated = next(c for c in stage1.centers if c.arm == 1)
    assert treated.package.tolist() == [1.0, 4.0]
    assert records[1].centers[0].package.tolist() == [0.5, 3.0]


def test_load_stage_csv_padded_header(tmp_path):
    path = tmp_path / "padded.csv"
    path.write_text("stage, center, arm, x_1, y\n1,c1,0,0,0\n1,c1,0,0,1\n1,c2,1,2,1\n")
    records = load_stage_csv(path)
    assert [(c.arm, c.size, c.outcome_sum) for c in records[0].centers] == [
        (0, 2, 1.0), (1, 1, 1.0)
    ]
    assert records[0].centers[1].package.tolist() == [2.0]


@pytest.mark.parametrize("header", ["x_1,x_3", "x_1,x_01", "x_2"])
def test_load_stage_csv_package_columns_are_x_1_to_x_P(tmp_path, header):
    path = tmp_path / "bad.csv"
    path.write_text(f"stage,center,arm,{header},y\n1,c1,1,1,2,0\n")
    with pytest.raises(ValueError, match="package columns"):
        load_stage_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_stage_csv_non_finite_value_reports_line(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"stage,center,arm,x_1,y\n1,c1,1,1,0\n1,c1,1,1,{value}\n")
    with pytest.raises(ValueError, match="line 3"):
        load_stage_csv(path)


def test_load_stage_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("stage,center,x_1,y\n1,c1,0,0\n")
    with pytest.raises(ValueError, match="arm"):
        load_stage_csv(path)


def test_load_stage_csv_inconsistent_package(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("stage,center,arm,x_1,y\n1,c1,1,1,0\n1,c1,1,2,1\n")
    with pytest.raises(ValueError, match="line 3"):
        load_stage_csv(path)


def test_load_stage_csv_bad_value_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("stage,center,arm,x_1,y\n1,c1,1,1,0\n1,c1,oops,1,1\n")
    with pytest.raises(ValueError, match="line 3"):
        load_stage_csv(path)


def test_load_stage_csv_fit_integration(tmp_path):
    """End to end: generated CSV -> records -> same fit as in-memory records."""
    rng = np.random.default_rng(31)
    rec = binary_stage(rng, np.array([0.1, 0.3, 0.15]), [(0, 0), (1, 0), (0, 4), (1, 4)], 30)
    lines = ["stage,center,arm,x_1,x_2,y"]
    for ci, (c, ys) in enumerate(zip(rec.centers, rec.draws)):
        for y in ys:
            lines.append(f"1,center{ci},{c.arm},{c.package[0]},{c.package[1]},{int(y)}")
    path = tmp_path / "gen.csv"
    path.write_text("\n".join(lines) + "\n")
    loaded = load_stage_csv(path)
    assert fit_binary(loaded).beta == pytest.approx(fit_binary([rec]).beta, abs=1e-12)

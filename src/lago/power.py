"""Test statistics, special functions, and power-constraint evaluators.

Everything here is pure arithmetic on realized or projected arm summaries:

* distribution functions: the normal CDF, tail and quantile from the
  standard library (``math.erfc``, ``statistics.NormalDist``); the
  incomplete gamma, central and noncentral chi-square written here from
  documented series and continued fractions, which no stdlib function covers;
* ``_passing_root`` (Brent's zeroin), the package's one solver for scalar
  equations, here and in ``optimizer`` and ``sim``, and ``_passing_roots``,
  the same steps for many brackets in lockstep;
* the final-analysis statistics (two-proportion z, two-sample t, P-df Wald),
  each in pooled and unpooled variants;
* projected power for a candidate package x under the *unconditional*
  approach (noncentrality of the squared statistic with future-stage sums
  replaced by model projections) and the *conditional* approach (an
  inequality on observed data plus future-stage randomness only; satisfied
  when the returned slack is <= 0).  Each 1-df form is one formula that
  takes a float level, or an array of levels over many lanes (one decision
  each) and returns each lane's float result bitwise; the ``*_lanes``
  functions only mask what a float call would raise.

1-df unconditional power uses the exact normal form
Phi(r - c) + Phi(-r - c), r = sqrt(lam), c = z_{alpha/2} (scaled by the
root of the pooled/unpooled variance ratio for pooled tests).  The noncentral
chi-square Poisson mixture serves the package-df Wald power (df > 1) and is
the test oracle for that closed form.

Conventions: the unconditional constraint uses the two-sided chi-square
rejection event; the conditional constraint uses the one-sided event (the
wrong-sign rejection probability is negligible at any useful power level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from statistics import NormalDist

import numpy as np

from .errors import DegenerateVarianceError, SingularCovarianceError
from .model import (
    FittedModel,
    _link_inverse_lanes,
    expit,
    link_inverse,
    link_inverse_deriv,
    logistic_information,
    predict,
)

# ---------------------------------------------------------------------------
# normal distribution
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_STANDARD_NORMAL = NormalDist()


def norm_cdf(x):
    """Standard normal CDF of a float, or of each entry of a 1-d array."""
    return norm_sf(-x)


def norm_sf(x):
    """Standard normal upper tail of a float, or of each entry of a 1-d
    array, accurate far in the tail.  An array is mapped through
    ``math.erfc`` entry by entry, so each entry is bitwise the float one."""
    if isinstance(x, np.ndarray) and x.ndim:
        return 0.5 * np.array(list(map(math.erfc, (x / _SQRT2).tolist())))
    return 0.5 * math.erfc(float(x) / _SQRT2)


def norm_quantile(p: float) -> float:
    """Inverse standard normal CDF (AS 241, via ``statistics.NormalDist``)."""
    p = float(p)
    if not 0.0 < p < 1.0:  # also rejects nan, which inv_cdf would pass through
        raise ValueError("norm_quantile needs p strictly inside (0, 1)")
    return _STANDARD_NORMAL.inv_cdf(p)


def _check_probability(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:  # also rejects nan
        raise ValueError(f"{name} must be strictly inside (0, 1), got {value}")


# ---------------------------------------------------------------------------
# monotone scalar equations
# ---------------------------------------------------------------------------

# Width below which a bracket is accepted, relative to max(1, |x|).
_THRESHOLD_RTOL = 1e-12


def _zeroin(a: float, b: float, fa: float, fb: float):
    """Brent's zeroin (1973) on a pass/fail bracket, as a generator.

    ``a`` fails and ``b`` passes, where a point passes when its residual is
    ``>= 0`` (so nan fails).  The generator yields each point whose
    residual it needs and is sent that residual; it returns the passing end
    ``(x, f(x))`` of a bracket narrower than ``_THRESHOLD_RTOL * max(1,
    |x|)``.  Inverse quadratic or secant steps are taken only on finite
    residuals and only while they shrink the bracket as fast as Brent's
    safeguard demands; otherwise the step is a bisection, so a step-shaped
    residual costs about what plain bisection would.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb >= 0.0) == (fc >= 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 0.5 * _THRESHOLD_RTOL * max(1.0, abs(b))
        xm = 0.5 * (c - b)
        if abs(xm) < tol1:
            break
        if (
            abs(e) >= tol1 and abs(fa) > abs(fb)
            and math.isfinite(fa) and math.isfinite(fc)
        ):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = yield b
    return (b, fb) if fb >= 0.0 else (c, fc)


def _passing_root(residual, a: float, b: float, fa: float, fb: float):
    """``_zeroin`` on the bracket (a, b) of ``residual``: the passing end
    (x, f(x)).  Every scalar equation of the package is a residual solved
    here; the caller finds the bracket."""
    search = _zeroin(a, b, fa, fb)
    try:
        x = next(search)
        while True:
            x = search.send(residual(x))
    except StopIteration as stop:
        return stop.value


def _passing_roots(residual, a, b, fa, fb):
    """``_passing_root`` on many brackets at once, one lane per bracket.

    ``a``, ``b``, ``fa`` and ``fb`` are arrays over the lanes.  Each lane
    runs its own ``_zeroin``, so it takes exactly the scalar search's
    steps; the searches advance in lockstep, one step per round, and each
    round evaluates the points ``x`` of the lanes still searching (indices
    ``lanes``) in one call ``residual(x, lanes)``.  Returns the arrays
    (x, f(x)) of the passing ends.
    """
    brackets = zip(*(np.asarray(v, dtype=float).tolist() for v in (a, b, fa, fb)))
    searches = [_zeroin(*bracket) for bracket in brackets]
    x, fx = np.empty(len(searches)), np.empty(len(searches))
    lanes, f = list(range(len(searches))), [None] * len(searches)
    while lanes:
        searching, points = [], []
        for i, value in zip(lanes, f):
            try:
                points.append(searches[i].send(value))
                searching.append(i)
            except StopIteration as stop:
                x[i], fx[i] = stop.value
        lanes = searching
        if lanes:
            f = residual(np.array(points), np.array(lanes)).tolist()
    return x, fx


# ---------------------------------------------------------------------------
# central chi-square via the regularized lower incomplete gamma
# ---------------------------------------------------------------------------

_GAMMA_EPS = 1e-16
_GAMMA_ITMAX = 800


def _gamma_p_series(a: float, x: float) -> float:
    ap = a
    summ = 1.0 / a
    term = summ
    for _ in range(_GAMMA_ITMAX):
        ap += 1.0
        term *= x / ap
        summ += term
        if abs(term) < abs(summ) * _GAMMA_EPS:
            break
    return summ * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    # modified Lentz's algorithm for the continued-fraction of Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if not a > 0.0:  # also rejects nan
        raise ValueError("gamma_p needs a > 0")
    if x < 0.0:
        raise ValueError("gamma_p needs x >= 0")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


def chisq_cdf(x: float, df: float) -> float:
    """Central chi-square CDF."""
    if not df > 0:  # also rejects nan
        raise ValueError("df must be positive")
    if x <= 0.0:
        return 0.0
    return gamma_p(0.5 * df, 0.5 * x)


def chisq_sf(x: float, df: float) -> float:
    if not df > 0:  # also rejects nan
        raise ValueError("df must be positive")
    if x <= 0.0:
        return 1.0
    if x < df + 1.0:
        return 1.0 - _gamma_p_series(0.5 * df, 0.5 * x)
    return _gamma_q_contfrac(0.5 * df, 0.5 * x)


def chisq_quantile(p: float, df: float) -> float:
    """Central chi-square quantile: solves chisq_cdf(x, df) = p with
    ``_passing_root`` on [0, hi], hi doubled from df + 10; the passing end
    is returned, so chisq_cdf(q, df) >= p.  The bracket closes at width
    ``_THRESHOLD_RTOL * max(1, q)``: the error bound is 1e-12 absolute
    below q = 1 and 1e-12 relative above it, so a quantile near 0 (q =
    1.6e-4 at p = 0.01, df = 1) is looser in relative terms."""
    if not 0.0 < p < 1.0:
        raise ValueError("chisq_quantile needs p strictly inside (0, 1)")

    def residual(x: float) -> float:
        return chisq_cdf(x, df) - p

    hi = float(df) + 10.0
    while (f_hi := residual(hi)) < 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("chi-square quantile bracket failed")
    return _passing_root(residual, 0.0, hi, -p, f_hi)[0]


# ---------------------------------------------------------------------------
# noncentral chi-square
# ---------------------------------------------------------------------------

def noncentral_chisq_cdf(x: float, df: float, lam: float) -> float:
    """Noncentral chi-square CDF F(x; df, lam).

    Poisson mixture of central chi-square CDFs, summed outward from the
    largest Poisson weight so large noncentralities stay stable; both tails
    truncated once remaining terms are below 1e-16. Absolute error well
    under 1e-10.
    """
    if not df > 0:  # also rejects nan
        raise ValueError("df must be positive")
    if not lam >= 0:  # also rejects nan
        raise ValueError("lam must be nonnegative")
    x = float(x)
    if x <= 0.0:
        return 0.0
    half_lam = 0.5 * lam
    if half_lam == 0.0:
        return chisq_cdf(x, df)
    xh = 0.5 * x
    a0 = 0.5 * df
    m = int(half_lam)

    # weight, central term, and CDF-difference term at the starting index
    log_w = m * math.log(half_lam) - half_lam - math.lgamma(m + 1)
    w_start = math.exp(log_w)
    t_start = gamma_p(a0 + m, xh)
    # g(a) = x^a e^{-x} / Gamma(a+1) links successive central CDFs:
    # P(a+1, x) = P(a, x) - g(a)
    log_g = (a0 + m) * math.log(xh) - xh - math.lgamma(a0 + m + 1)
    g_start = math.exp(log_g)

    total = w_start * t_start

    # upward pass: j = m+1, m+2, ...
    w, t, g = w_start, t_start, g_start
    j = m
    for _ in range(200000):
        w *= half_lam / (j + 1)
        t -= g
        if t < 0.0:
            t = 0.0
        g *= xh / (a0 + j + 1)
        j += 1
        term = w * t
        total += term
        if term < 1e-16 and j > m + 2:
            break

    # downward pass: j = m-1, ..., 0. Terms can *grow* toward j = 0 when x
    # is far left of the mass (t_j explodes downward), so stop on the
    # monotonically decreasing Poisson weight, not on the term itself.
    if m > 0:
        w, t = w_start, t_start
        g = g_start * (a0 + m) / xh  # g(a0 + m - 1)
        j = m
        while j > 0:
            w *= j / half_lam
            t += g
            j -= 1
            total += w * t
            if w < 1e-18 and w * t < 1e-16:
                break
            if j > 0:
                g *= (a0 + j) / xh

    return min(max(total, 0.0), 1.0)


def lambda_min(alpha: float, pi: float, df: int = 1) -> float:
    """Smallest noncentrality giving the level-``alpha`` chi-square test power ``pi``.

    Solves 1 - F(chi2_{alpha,df}; df, lam) = pi with ``_passing_root`` on
    lam in [0, 200] (bracket doubled if ever insufficient); the passing end
    is returned, so the power at the result is at least ``pi``.
    """
    if not 0.0 < alpha < 1.0 or not 0.0 < pi < 1.0:
        raise ValueError("alpha and pi must lie in (0, 1)")
    crit = chisq_quantile(1.0 - alpha, df)

    def residual(lam: float) -> float:
        return 1.0 - noncentral_chisq_cdf(crit, df, lam) - pi

    if (f_lo := residual(0.0)) >= 0.0:
        return 0.0
    hi = 200.0
    while (f_hi := residual(hi)) < 0.0:
        hi *= 2.0
        if hi > 1e7:
            raise ValueError("power goal unattainable at any noncentrality")
    return _passing_root(residual, 0.0, hi, f_lo, f_hi)[0]


# ---------------------------------------------------------------------------
# test selectors and arm summaries
# ---------------------------------------------------------------------------

TEST_KINDS = (
    "z_unpooled",
    "z_pooled",
    "t_unpooled",
    "t_pooled",
    "wald_pdf_binary",
    "wald_pdf_continuous",
)


@dataclass(frozen=True)
class TestSelector:
    """Which final-analysis test the power goal refers to."""

    kind: str = "z_unpooled"

    def __post_init__(self):
        if self.kind not in TEST_KINDS:
            raise ValueError(f"unknown test kind {self.kind!r}; choose from {TEST_KINDS}")

    @property
    def pooled(self) -> bool:
        return self.kind in ("z_pooled", "t_pooled")

    @property
    def wald(self) -> bool:
        return self.kind.startswith("wald")

    @property
    def continuous_outcome(self) -> bool:
        return self.kind in ("t_unpooled", "t_pooled", "wald_pdf_continuous")

    def df(self, n_components: int = 1) -> int:
        return int(n_components) if self.wald else 1


def _default_test(outcome_kind: str) -> TestSelector:
    """The plain unpooled test for an outcome kind, used where no test was named."""
    return TestSelector("t_unpooled" if outcome_kind == "continuous" else "z_unpooled")


@dataclass(frozen=True)
class ArmSummary:
    """Per-arm bookkeeping the power formulas need.

    Realized (completed-stage) counts and outcome sums, plus the planned
    future-stage sizes that projections multiply by model-implied rates.
    For continuous outcomes also the completed-stage arm sample variances.
    ``design_obs`` (per-center ``(package, size)`` pairs, zero package for
    control) is only needed by the Wald projections.
    """

    n1_obs: float
    n0_obs: float
    s1_obs: float
    s0_obs: float
    n1_future: float = 0.0
    n0_future: float = 0.0
    var1_obs: float | None = None
    var0_obs: float | None = None
    design_obs: tuple | None = None

    @property
    def N1(self) -> float:
        return self.n1_obs + self.n1_future

    @property
    def N0(self) -> float:
        return self.n0_obs + self.n0_future

    @property
    def mean1_obs(self) -> float:
        return self.s1_obs / self.n1_obs

    @property
    def mean0_obs(self) -> float:
        return self.s0_obs / self.n0_obs

    @classmethod
    def from_records(cls, records, future=(0.0, 0.0), continuous: bool = False):
        """Aggregate stage records; ``future`` is the planned (n1, n0) remainder."""
        centers = [c for rec in records for c in rec.centers]
        return cls._from_centers(
            [(c.arm, c.size, c.outcome_sum, c.m2) for c in centers], future, continuous,
            tuple((tuple(c.package.tolist()), float(c.size)) for c in centers))

    @classmethod
    def _from_centers(cls, centers, future, continuous: bool, design_obs=None):
        """``from_records`` of the centers' (arm, size, outcome sum, m2), in
        record order.  The sums and m2 may be lane arrays (the sizes are
        the same in every lane); the arm sums and variances are then lane
        arrays too, each added center by center as for one lane."""
        n, s, by_arm = [0.0, 0.0], [0.0, 0.0], ([], [])
        for arm, size, total, m2 in centers:
            n[arm] += size
            s[arm] = s[arm] + total
            by_arm[arm].append((size, total, m2))
        var = [_pooled_variance(by_arm[arm], n[arm], s[arm]) if continuous and by_arm[arm]
               else None for arm in (0, 1)]
        return cls(n1_obs=n[1], n0_obs=n[0], s1_obs=s[1], s0_obs=s[0],
                   n1_future=float(future[0]), n0_future=float(future[1]),
                   var1_obs=var[1], var0_obs=var[0], design_obs=design_obs)


def _check_summary(summary: ArmSummary, test: TestSelector | None = None) -> None:
    """Refuse, naming the field, an arm summary the power formulas cannot
    use: a negative or non-finite count or variance, a non-finite sum or an
    empty arm.  For a binary ``test`` a sum must lie in [0, its observed
    count].  A continuous ``test`` divides by n1_obs, N1 - 1 and N1 + N0 - 2
    and reads both arm variances, so those must be nonzero and present."""
    binary = test is not None and not test.continuous_outcome
    for name in ("n1_obs", "n0_obs", "n1_future", "n0_future", "var1_obs", "var0_obs"):
        value = getattr(summary, name)
        if value is not None and not 0.0 <= value < math.inf:
            raise ValueError(f"arm_summary {name} must be finite and nonnegative, got {value!r}")
    for name, count in (("s1_obs", "n1_obs"), ("s0_obs", "n0_obs")):
        value = getattr(summary, name)
        if not math.isfinite(value) or binary and not 0.0 <= value <= getattr(summary, count):
            rule = f"in [0, {count}]" if binary else "finite"
            raise ValueError(f"arm_summary {name} must be {rule}, got {value!r}")
    if not (summary.N1 > 0 and summary.N0 > 0):
        raise ValueError("arm_summary needs observations in each arm (obs + future > 0)")
    if test is None or binary:
        return
    for name in ("var1_obs", "var0_obs"):
        if getattr(summary, name) is None:
            raise ValueError(f"arm_summary {name} is required for the continuous test {test.kind}")
    for rule, bad in (("n1_obs must be positive", summary.n1_obs == 0.0),
                      ("n1_obs + n1_future must not be 1", summary.N1 == 1.0),
                      ("n1_obs + n1_future + n0_obs + n0_future must not be 2",
                       summary.N1 + summary.N0 == 2.0)):
        if bad:
            raise ValueError(f"arm_summary {rule} for the continuous test {test.kind}")


def _pooled_variance(centers, n: float, total):
    """Sample variance (ddof 1) of the ``n`` outcomes of ``centers``, (size,
    outcome sum, m2) triples, which sum to ``total``: m2 pools as
    sum m2_c + n_c (ybar_c - ybar)^2 (Chan, Golub & LeVeque 1983), free of the
    cancellation of a raw sum of squares.  Lane arrays are squared per entry
    by Python's ``**`` (libm ``pow``; ``x * x`` can differ in the last bit)."""
    if n <= 1:
        return 0.0
    mean = total / n
    m2 = 0
    for size, outcome_sum, center_m2 in centers:
        dev = outcome_sum / size - mean
        sq = np.array([d ** 2 for d in dev.tolist()]) if isinstance(dev, np.ndarray) else dev ** 2
        m2 = m2 + (center_m2 + size * sq)
    return m2 / (n - 1.0)


# ---------------------------------------------------------------------------
# realized-data statistics
# ---------------------------------------------------------------------------

def _contrast(summary: ArmSummary, test: TestSelector):
    """(arm contrast, its variance) of the 1-df final statistic ``test`` on
    the realized data (future sizes ignored): floats, or lane arrays when
    the summary's fields are.  The sizes must be the same in every lane;
    one that the statistic cannot divide by raises ValueError."""
    n1, n0 = summary.n1_obs, summary.n0_obs
    if test.kind.startswith("z"):
        if np.any(n1 <= 0) or np.any(n0 <= 0):
            raise ValueError("both arms need observations")
        p1 = summary.s1_obs / n1
        p0 = summary.s0_obs / n0
        if test.pooled:
            pp = (summary.s1_obs + summary.s0_obs) / (n1 + n0)
            return p1 - p0, pp * (1.0 - pp) * (1.0 / n1 + 1.0 / n0)
        return p1 - p0, p1 * (1.0 - p1) / n1 + p0 * (1.0 - p0) / n0
    if np.any(n1 <= 1) or np.any(n0 <= 1):
        raise ValueError("both arms need at least two observations")
    if summary.var1_obs is None or summary.var0_obs is None:
        raise ValueError("t statistic needs arm variance estimates")
    m1, m0 = summary.mean1_obs, summary.mean0_obs
    v1, v0 = summary.var1_obs, summary.var0_obs
    if test.pooled:
        s2 = ((n1 - 1.0) * v1 + (n0 - 1.0) * v0) / (n1 + n0 - 2.0)
        return m1 - m0, s2 * (1.0 / n1 + 1.0 / n0)
    return m1 - m0, v1 / n1 + v0 / n0


def _studentized(summary: ArmSummary, test: TestSelector) -> float:
    diff, var = _contrast(summary, test)
    if var <= 0.0:
        raise DegenerateVarianceError("zero variance: all outcomes identical")
    return diff / math.sqrt(var)


def wald_statistic(model: FittedModel) -> float:
    """W = beta1' Var(beta1)^{-1} beta1 on the effect block of the covariance."""
    beta1 = model.effects
    cov11 = model.covariance[1:, 1:]
    try:
        sol = np.linalg.solve(cov11, beta1)
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError("effect-block covariance is singular") from exc
    w = float(beta1 @ sol)
    if not math.isfinite(w):
        raise SingularCovarianceError("effect-block covariance is numerically singular")
    return w


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: int
    p_value: float
    reject: bool
    kind: str


def final_test(
    summary: ArmSummary,
    test: TestSelector,
    alpha: float = 0.05,
    model: FittedModel | None = None,
) -> TestResult:
    """Run the selected test on complete trial data.

    1-df kinds use two-sided normal p-values with strict rejection
    (|stat| > z_{alpha/2}); Wald kinds use the upper tail of chi-square with
    df = number of package components and need the fitted ``model``.
    """
    _check_probability("alpha", alpha)
    if test.wald:
        if model is None:
            raise ValueError("Wald tests need the fitted model")
        w, df = wald_statistic(model), model.n_components
        return TestResult(statistic=w, df=df, p_value=chisq_sf(w, df),
                          reject=w > chisq_quantile(1.0 - alpha, df), kind=test.kind)
    stat = _studentized(summary, test)
    return TestResult(statistic=stat, df=1, p_value=2.0 * norm_sf(abs(stat)),
                      reject=abs(stat) > norm_quantile(1.0 - alpha / 2.0), kind=test.kind)


def _final_rejects(summary: ArmSummary, test: TestSelector, alpha: float, models) -> list:
    """``final_test(...).reject`` of each of many lanes, or the LagoError its
    scalar call raises.  The 1-df tests run the scalar formulas over
    ``summary``, an ArmSummary of lane arrays; the Wald tests compare each
    lane's statistic of its fitted ``models`` entry with one critical value."""
    _check_probability("alpha", alpha)
    if test.wald:
        out = []
        crit = chisq_quantile(1.0 - alpha, models[0].n_components) if models else None
        for model in models:
            try:
                out.append(wald_statistic(model) > crit)
            except SingularCovarianceError as exc:
                out.append(exc)
        return out
    diff, var = _contrast(summary, test)
    with np.errstate(divide="ignore", invalid="ignore"):
        reject = np.abs(diff / np.sqrt(var)) > norm_quantile(1.0 - alpha / 2.0)
    return [DegenerateVarianceError("zero variance: all outcomes identical") if bad else r
            for r, bad in zip(reject.tolist(), (var <= 0.0).tolist())]


# ---------------------------------------------------------------------------
# unconditional projections
# ---------------------------------------------------------------------------

def _sigma1_tilde(level: float, summary: ArmSummary) -> float:
    """Intervention-arm variance projection for t-type tests.

    Blends the observed arm variance with the between-portion shift induced
    by moving the future mean to ``level``.
    """
    if summary.var1_obs is None:
        raise ValueError("continuous projections need var1_obs")
    N1 = summary.N1
    shift = level - summary.mean1_obs
    return (
        (N1 - 2.0) * summary.var1_obs
        + (summary.n1_obs * summary.n1_future / N1) * shift * shift
    ) / (N1 - 1.0)


class _Projection:
    """The level-free parts of the projections of one fitted model and arm
    summary, each computed on first use: the all-stage arm sizes N1 and N0,
    the model control level p0 and projected control rate pbar0, the
    level-free future variance, z_{alpha/2} and z_pi, and the critical value
    of the package-df Wald test.

    Every ``*_at_level`` function builds one from its arguments, or takes
    one in place of its summary: the threshold search evaluates one
    decision's projection at dozens of levels.
    """

    def __init__(self, model: FittedModel, summary: ArmSummary, test=None, alpha=None, pi=None):
        self.model, self.summary, self.test, self.alpha, self.pi = model, summary, test, alpha, pi

    N1 = cached_property(lambda self: self.summary.N1)
    N0 = cached_property(lambda self: self.summary.N0)
    p0 = cached_property(lambda self: float(link_inverse(self.model.link, self.model.intercept)))
    z_half_alpha = cached_property(lambda self: norm_quantile(1.0 - self.alpha / 2.0))
    z_pi = cached_property(lambda self: norm_quantile(1.0 - self.pi))  # negative for pi > 1/2
    wald_crit = cached_property(
        lambda self: chisq_quantile(1.0 - self.alpha, self.model.n_components))

    @cached_property
    def pbar0(self) -> float:
        return (self.summary.s0_obs + self.summary.n0_future * self.p0) / self.N0

    @cached_property
    def future_var(self) -> float:
        """Variance from future randomness that does not depend on the level:
        both arms' for a continuous outcome, the control arm's for a binary one."""
        s, N1, N0 = self.summary, self.N1, self.N0
        if self.test.continuous_outcome:
            return s.n1_future * s.var1_obs / (N1 * N1) + s.n0_future * s.var0_obs / (N0 * N0)
        return s.n0_future * self.p0 * (1.0 - self.p0) / (N0 * N0)

    def pbar1(self, level: float) -> float:
        return (self.summary.s1_obs + self.summary.n1_future * level) / self.N1


def _projection(model, summary, test=None, alpha=None, pi=None) -> _Projection:
    """``summary`` itself when it is a ``_Projection``, else one built from the arguments."""
    if isinstance(summary, _Projection):
        return summary
    return _Projection(model, summary, test, alpha, pi)


def projected_rates(level: float, model: FittedModel, summary: ArmSummary):
    """(pbar1, pbar0): all-stage arm rates/means with the future at ``level``."""
    proj = _projection(model, summary)
    return proj.pbar1(level), proj.pbar0


def _arm_moments(level: float, proj: _Projection, test: TestSelector):
    """Projected all-stage arm moments of a 1-df test at future ``level``.

    Returns (pbar1, pbar0, unpooled_var, test_var): the
    ``projected_rates``, the unpooled projected variance of the arm
    contrast, and the variance the test statistic divides by (the pooled
    one for pooled tests, else ``unpooled_var``).
    The noncentrality, the pooled critical rescale and the conditional
    certificate all read these.
    """
    summary, N1, N0 = proj.summary, proj.N1, proj.N0
    pbar1, pbar0, p0 = proj.pbar1(level), proj.pbar0, proj.p0
    if test.continuous_outcome:
        if summary.var0_obs is None:
            raise ValueError("continuous projections need var0_obs")
        st = _sigma1_tilde(level, summary)
        unpooled_var = st / N1 + summary.var0_obs / N0
        test_var = unpooled_var
        if test.pooled:
            s2 = ((N1 - 1.0) * st + (N0 - 1.0) * summary.var0_obs) / (N1 + N0 - 2.0)
            test_var = s2 * (1.0 / N1 + 1.0 / N0)
    else:
        unpooled_var = pbar1 * (1.0 - pbar1) / N1 + pbar0 * (1.0 - pbar0) / N0
        test_var = unpooled_var
        if test.pooled:
            pp = (summary.s1_obs + summary.n1_future * level
                  + summary.s0_obs + summary.n0_future * p0) / (N1 + N0)
            test_var = pp * (1.0 - pp) * (1.0 / N1 + 1.0 / N0)
    return pbar1, pbar0, unpooled_var, test_var


def _lambda_and_rescale(level, model: FittedModel, summary: ArmSummary, test: TestSelector):
    """(noncentrality, critical rescale, unpooled variance) of a 1-df test at
    future ``level``.

    All three read one ``_arm_moments``; the rescale is the pooled/unpooled
    projected-variance ratio, exactly 1.0 for unpooled tests.  A float level
    whose unpooled variance is not positive raises DegenerateVarianceError;
    on lanes the variance is returned for the caller's mask instead.
    """
    if test.wald:
        raise ValueError("Wald noncentrality depends on the package, not just its level")
    return _noncentrality(*_arm_moments(level, _projection(model, summary), test))


def _noncentrality(pbar1, pbar0, unpooled_var, test_var):
    """``_lambda_and_rescale`` from one ``_arm_moments``."""
    if not isinstance(unpooled_var, np.ndarray) and unpooled_var <= 0.0:
        raise DegenerateVarianceError("zero projected variance")
    diff = pbar1 - pbar0
    return diff * diff / unpooled_var, test_var / unpooled_var, unpooled_var


def lambda_at_level(
    level: float, model: FittedModel, summary: ArmSummary, test: TestSelector
) -> float:
    """Projected noncentrality for 1-df tests as a function of the future
    intervention success probability / mean ``level`` alone."""
    return _lambda_and_rescale(level, model, summary, test)[0]


def _projected_design(model: FittedModel, summary: ArmSummary, x):
    """All-stage design of a Wald projection as (X, n): the observed centers,
    the future intervention arm at package ``x`` and the future control arm.
    Rows with no observations are dropped; X carries the intercept column."""
    if summary.design_obs is None:
        raise ValueError("Wald projections need design_obs on the summary")
    rows = list(summary.design_obs) + [(x, summary.n1_future)]
    rows.append((np.zeros(model.n_components), summary.n0_future))
    rows = [(pkg, n) for pkg, n in rows if n > 0]
    X = np.array([np.concatenate(([1.0], pkg)) for pkg, _ in rows], dtype=float)
    n = np.array([size for _, size in rows], dtype=float)
    return X.reshape(len(rows), model.beta.size), n


def _wald_lambda_binary(model: FittedModel, summary: ArmSummary, x) -> float:
    """Projected logistic Wald noncentrality beta1' (I11 - I10 I00^-1 I01) beta1
    at package ``x``, I the Fisher information of the ``_projected_design``;
    the Schur complement is the inverse of the effect block of I^-1."""
    X, n = _projected_design(model, summary, x)
    info = logistic_information(X, n, expit(X @ model.beta))
    if info[0, 0] <= 0.0:
        raise DegenerateVarianceError("empty projected design")
    schur = info[1:, 1:] - np.outer(info[1:, 0], info[0, 1:]) / info[0, 0]
    return float(model.effects @ schur @ model.effects)


def _wald_sandwich_continuous(x, model: FittedModel, summary: ArmSummary):
    if summary.var1_obs is None or summary.var0_obs is None:
        raise ValueError("continuous Wald projections need arm variances")
    X, n = _projected_design(model, summary, x)
    d = link_inverse_deriv(model.link, X @ model.beta)
    w = n * d * d
    # A rank-deficient design makes the bread singular; inverting it anyway
    # gives an error or an arbitrary lambda depending on rounding.
    if np.linalg.matrix_rank(X[w > 0.0]) < X.shape[1]:
        raise SingularCovarianceError("rank-deficient projected design")
    treated = np.any(X[:, 1:] != 0.0, axis=1)
    var = np.where(treated, summary.var1_obs, summary.var0_obs)
    return X.T @ (X * w[:, None]), X.T @ (X * (var * w)[:, None])


def unconditional_lambda(
    x, model: FittedModel, summary: ArmSummary, test: TestSelector
) -> float:
    """Projected noncentrality of the squared test statistic at package x.

    Future intervention observations sit at the model rate for x, future
    control observations at the model control rate; realized sums enter as
    observed.
    """
    if test.kind == "wald_pdf_binary":
        return _wald_lambda_binary(model, summary, x)
    if test.kind == "wald_pdf_continuous":
        bread, meat = _wald_sandwich_continuous(x, model, summary)
        try:
            bread_inv = np.linalg.inv(bread)
        except np.linalg.LinAlgError as exc:
            raise SingularCovarianceError("singular projected bread matrix") from exc
        cov = bread_inv @ meat @ bread_inv
        try:
            inv_block = np.linalg.inv(cov[1:, 1:])
        except np.linalg.LinAlgError as exc:
            raise SingularCovarianceError("singular projected covariance") from exc
        return float(model.effects @ inv_block @ model.effects)
    level = predict(model, x)
    return lambda_at_level(level, model, summary, test)


def _two_sided_power(lam, rescale, z_half_alpha):
    """Power of the two-sided 1-df test at noncentrality ``lam``.

    The squared statistic is noncentral chi-square with 1 df, i.e.
    (Z + r)^2 with r = sqrt(lam), rejected above c^2 where
    c = z_{alpha/2} * sqrt(rescale) (rescale = 1 unless pooled).  So the power
    is P(Z > c - r) + P(Z < -c - r), summed from upper tails so it stays
    accurate at both ends; it equals
    1 - noncentral_chisq_cdf(chisq_quantile(1 - alpha, 1) * rescale, 1, lam).
    """
    c = z_half_alpha * _sqrt(rescale)
    r = _sqrt(lam)
    return norm_sf(c - r) + norm_sf(c + r)


def unconditional_power_at_level(
    level, model: FittedModel, summary: ArmSummary, test: TestSelector, alpha: float = 0.05
):
    """Projected power of the two-sided test when the future intervention
    rate/mean is ``level`` (1-df kinds only): ``_two_sided_power`` at the
    ``_lambda_and_rescale`` of ``level``."""
    _check_probability("alpha", alpha)
    proj = _projection(model, summary, alpha=alpha)
    lam, rescale, _ = _lambda_and_rescale(level, model, proj, test)
    return _two_sided_power(lam, rescale, proj.z_half_alpha)


def unconditional_power(
    x,
    model: FittedModel,
    summary: ArmSummary,
    test: TestSelector,
    alpha: float = 0.05,
) -> float:
    """Projected power of the selected test at package x."""
    _check_probability("alpha", alpha)
    if test.wald:
        proj = _projection(model, summary, alpha=alpha)
        lam = unconditional_lambda(x, model, proj.summary, test)
        return 1.0 - noncentral_chisq_cdf(proj.wald_crit, model.n_components, lam)
    return unconditional_power_at_level(predict(model, x), model, summary, test, alpha)


def projected_drift_at_level(level, model: FittedModel, summary: ArmSummary):
    """Signed all-stage arm contrast (intervention minus control) with the
    future intervention rate at ``level``; used for direction coherence."""
    pbar1, pbar0 = projected_rates(level, model, summary)
    return pbar1 - pbar0


# ---------------------------------------------------------------------------
# conditional constraint
# ---------------------------------------------------------------------------

def _conditional_parts(
    level: float, model: FittedModel, summary: ArmSummary, test: TestSelector
):
    """(g1, drift, fut_sd, fut_var) shared by the slack and power forms.

    g1 is the all-data standard error the final statistic divides by, drift
    the projected arm contrast (observed sums fixed, future at model rates),
    and fut_var/fut_sd the variance contributed by future randomness alone.
    """
    if test.wald:
        raise ValueError("the conditional approach is defined for 1-df tests only")
    proj = _projection(model, summary, test)
    pbar1, pbar0, _, test_var = _arm_moments(level, proj, test)
    g1 = _sqrt_clamped(test_var)
    fut_var = proj.future_var
    if not test.continuous_outcome:
        N1 = proj.N1
        fut_var = proj.summary.n1_future * level * (1.0 - level) / (N1 * N1) + fut_var
    return g1, pbar1 - pbar0, _sqrt_clamped(fut_var), fut_var


def _sqrt(v):
    """``math.sqrt`` of a float, which refuses a negative one with
    ValueError; ``np.sqrt`` of each entry of an array, nan for a negative one."""
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def _where(cond, a, b):
    """``a if cond else b`` of floats, or entry by entry of arrays."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else a if cond else b


def _sqrt_clamped(v):
    """The root of ``v``, 0.0 where ``v`` is negative."""
    return _sqrt(_where(v < 0.0, 0.0, v))


def _direction_sign(direction: str) -> float:
    """1.0 for an "increase" goal, -1.0 for a "decrease" one: the package's
    one reading of a direction, which every orientation multiplies by."""
    if direction not in ("increase", "decrease"):
        raise ValueError("direction must be 'increase' or 'decrease'")
    return 1.0 if direction == "increase" else -1.0


def conditional_slack_at_level(
    level: float,
    model: FittedModel,
    summary: ArmSummary,
    test: TestSelector,
    alpha: float,
    pi: float,
    direction: str = "increase",
    scale: str = "sd",
) -> float:
    """Left side of the conditional power inequality; satisfied iff <= 0.

    Conditions on the realized sums and treats only future-stage outcomes as
    random. ``scale`` picks the standardization of the future-randomness
    term: ``"sd"`` (default, the standardization the construction actually
    uses) or ``"variance"`` (the printed form of the plain-z inequality,
    kept for comparability).
    """
    _check_probability("alpha", alpha)
    _check_probability("pi", pi)
    sign = _direction_sign(direction)
    proj = _projection(model, summary, test, alpha, pi)
    z_half_alpha, z_pi = proj.z_half_alpha, proj.z_pi
    g1, drift, fut_sd, fut_var = _conditional_parts(level, model, proj, test)
    if scale == "variance" and test.kind == "z_unpooled":
        fut_term = fut_var
    elif scale in ("sd", "variance"):
        fut_term = fut_sd
    else:
        raise ValueError("scale must be 'sd' or 'variance'")
    return z_half_alpha * g1 - sign * drift - z_pi * fut_term


def conditional_constraint_slack(
    x,
    model: FittedModel,
    summary: ArmSummary,
    test: TestSelector,
    alpha: float,
    pi: float,
    direction: str = "increase",
    scale: str = "sd",
) -> float:
    """Conditional power slack at package x (<= 0 means the goal is met)."""
    level = predict(model, x)
    return conditional_slack_at_level(
        level, model, summary, test, alpha, pi, direction=direction, scale=scale
    )


def conditional_power_at_level(
    level,
    model: FittedModel,
    summary: ArmSummary,
    test: TestSelector,
    alpha: float = 0.05,
    direction: str = "increase",
):
    """Probability of the correct-direction rejection given the observed sums.

    This is the quantity the slack form bounds: it is >= pi exactly when
    ``conditional_slack_at_level(...) <= 0`` (with the default sd scale).
    With no future randomness (fut_sd == 0) the rejection is already
    decided: the power is 1.0 when the margin is met and 0.0 otherwise.
    """
    _check_probability("alpha", alpha)
    sign = _direction_sign(direction)
    proj = _projection(model, summary, test, alpha)
    g1, drift, fut_sd, _ = _conditional_parts(level, model, proj, test)
    margin = sign * drift - proj.z_half_alpha * g1
    certain = fut_sd == 0.0
    return _where(certain, 1.0 * (margin >= 0.0), norm_cdf(margin / _where(certain, 1.0, fut_sd)))


def conditional_power(
    x,
    model: FittedModel,
    summary: ArmSummary,
    test: TestSelector,
    alpha: float = 0.05,
    direction: str = "increase",
) -> float:
    """Conditional projected power at package x."""
    level = predict(model, x)
    return conditional_power_at_level(
        level, model, summary, test, alpha=alpha, direction=direction
    )


# ---------------------------------------------------------------------------
# the 1-df forms over many lanes
#
# A lane is one decision, such as one replicate of a simulation.  A lane
# projection is one ``_Projection`` whose summary fields and control levels
# are arrays over the lanes.  Each 1-df power quantity above is one formula
# on a float or on such arrays: given an array of levels over a lane
# projection, it evaluates every lane in one pass.  numpy and Python round
# + - * / and sqrt alike, and exp and erfc run per lane through ``math``, so
# each lane's value is bitwise its float one.  The ``*_lanes`` functions
# below are masking only: they select the lanes, give a lane whose drift
# points the wrong way -inf, and mark as ``degenerate`` the lanes whose
# float forms raise DegenerateVarianceError.
# ---------------------------------------------------------------------------

_LANE_FIELDS = ("n1_obs", "n0_obs", "s1_obs", "s0_obs", "n1_future", "n0_future")
_VAR_FIELDS = ("var1_obs", "var0_obs")


class _LaneSummaries:
    """The ArmSummary of each of many lanes, held as ``columns``: one
    ArmSummary whose ``_LANE_FIELDS`` and arm variances are lane arrays (a
    variance None where its arm has no centers).  ``lanes[i]`` is lane i's
    own ArmSummary, for the per-lane paths; its ``design_obs``, which only
    the Wald projections read, is built then from ``packages`` (L, C, P) and
    ``sizes`` (C,), the observed centers."""

    def __init__(self, columns: ArmSummary, packages, sizes):
        values = {name: getattr(columns, name) for name in _LANE_FIELDS + _VAR_FIELDS}
        self.columns = ArmSummary(**{name: v if v is None else np.broadcast_to(v, (len(packages),))
                                     for name, v in values.items()})
        self.packages, self.sizes = packages, sizes

    def __getitem__(self, i):
        values = {name: getattr(self.columns, name) for name in _LANE_FIELDS + _VAR_FIELDS}
        design = tuple(zip(map(tuple, self.packages[i].tolist()), self.sizes.tolist()))
        return ArmSummary(**{name: v if v is None else float(v[i]) for name, v in values.items()},
                          design_obs=design)


def _lane_projection(link, intercepts, summaries, test, alpha, pi) -> _Projection:
    """The ``_Projection`` of many lanes' 1-df decisions, from each lane's
    model intercept and ``ArmSummary`` (a sequence, or ``_LaneSummaries``).

    Its ``exact`` mask marks the lanes whose scalar forms divide by no zero
    arm size and find the arm variances they need: the lanes the arrays
    reproduce.  Any other lane must keep the scalar forms.
    """
    if isinstance(summaries, _LaneSummaries):
        summary = summaries.columns
        has_var = summary.var1_obs is not None and summary.var0_obs is not None
    else:
        names = _LANE_FIELDS + (_VAR_FIELDS if test.continuous_outcome else ())
        columns = np.array(list(map(attrgetter(*names), summaries)), dtype=float).T
        summary = ArmSummary(**dict(zip(names, columns)))
        has_var = [lane.var1_obs is not None and lane.var0_obs is not None for lane in summaries]
    proj = _Projection(None, summary, test, alpha, pi)
    proj.p0 = _link_inverse_lanes(link, intercepts)
    N1, N0 = proj.N1, proj.N0
    exact = (N1 * N1 != 0.0) & (N0 * N0 != 0.0) & (N1 + N0 != 0.0)
    if test.continuous_outcome:
        exact &= (proj.summary.n1_obs != 0.0) & (N1 - 1.0 != 0.0) & (N1 + N0 - 2.0 != 0.0)
        exact &= has_var
    proj.exact = exact
    return proj


def _threshold_residual_lanes(level, lanes, proj, approach, direction, scale):
    """``optimizer._threshold_core``'s 1-df residual, bitwise the scalar one,
    for the lanes ``lanes`` of ``proj.exact`` at the raw levels ``level`` (an
    array over every lane of ``proj``): the negated conditional slack, or the
    unconditional power minus pi, -inf while the projected drift points the
    wrong way.  Returns (residuals, degenerate) as ``_projected_power_lanes``
    does, for the lanes whose drift points the goal's way."""
    if approach == "conditional":
        slack = conditional_slack_at_level(
            level, None, proj, proj.test, proj.alpha, proj.pi, direction=direction, scale=scale,
        )
        return -slack[lanes], np.zeros(lanes.size, bool)
    # One ``_arm_moments`` pass gives the drift, pbar1 - pbar0, and the power.
    moments = _arm_moments(level, proj, proj.test)
    live = ~(_direction_sign(direction) * (moments[0] - moments[1])[lanes] <= 0.0)
    f = np.full(lanes.size, -math.inf)
    degenerate = np.zeros(lanes.size, bool)
    power, degenerate[live] = _unconditional_lanes(_noncentrality(*moments), lanes[live], proj)
    f[live] = power - proj.pi
    return f, degenerate


def _projected_power_lanes(level, lanes, proj, approach, direction):
    """The power ``optimizer._projected_power`` projects, for the lanes
    ``lanes`` at the levels ``level`` (an array over every lane of ``proj``).

    Returns (power, degenerate): ``degenerate`` marks the lanes whose float
    forms raise DegenerateVarianceError, whose power is nan.  A negative
    variance ratio raises the float forms' ValueError.  The arrays hold
    lanes the float forms would refuse, and lanes outside ``lanes``, so
    callers silence numpy's floating-point warnings."""
    if approach == "conditional":
        power = conditional_power_at_level(level, None, proj, proj.test, proj.alpha, direction)
        return power[lanes], np.zeros(lanes.size, bool)
    return _unconditional_lanes(_lambda_and_rescale(level, None, proj, proj.test), lanes, proj)


def _unconditional_lanes(noncentrality, lanes, proj):
    """Unconditional ``_projected_power_lanes`` from ``_lambda_and_rescale``'s arrays."""
    lam, rescale, unpooled_var = (v[lanes] for v in noncentrality)
    degenerate = unpooled_var <= 0.0
    if np.count_nonzero(rescale < 0.0) and np.count_nonzero(rescale[~degenerate] < 0.0):
        raise ValueError("math domain error")
    power = _two_sided_power(lam, rescale, proj.z_half_alpha)
    power[degenerate] = math.nan
    return power, degenerate

"""Outcome models for staged multi-center intervention data.

Binary outcomes follow a logistic regression in the actual delivered package,
continuous outcomes a GLM with a twice-differentiable link:

    logit(pr(Y=1)) = beta0 + beta1' a      (binary)
    g(E[Y])        = beta0 + beta1' a      (continuous)

Control-arm centers deliver the zero package, so beta0 alone describes the
control condition. Fitting is deterministic (IRLS / Gauss-Newton with
step-halving); refitting the same data gives bitwise-identical coefficients.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateVarianceError,
    NonFiniteError,
    RankDeficientError,
    SeparationError,
)

LINKS = ("logit", "identity", "log")

# Coefficients larger than this are treated as evidence of separation /
# divergence (the parameter space is assumed compact).
COEF_CAP = 30.0
GRAD_TOL = 1e-8
MAX_ITER = 100


# ---------------------------------------------------------------------------
# link functions
# ---------------------------------------------------------------------------

def expit(eta):
    """Numerically stable inverse logit, scalar or array.

    Python and numpy scalars take a ``math.exp`` path that returns a float;
    the power-threshold bisection calls this on scalars many times per
    decision, where a numpy round trip costs more than the arithmetic.
    """
    if isinstance(eta, (float, int, np.floating, np.integer)):
        eta = float(eta)
        if eta >= 0.0:
            return 1.0 / (1.0 + math.exp(-eta))
        ex = math.exp(eta)
        return ex / (1.0 + ex)
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def link_forward(link: str, mu):
    """g(mu): map a mean to the linear-predictor scale."""
    if link == "logit":
        return math.log(mu / (1.0 - mu))
    if link == "identity":
        return float(mu)
    if link == "log":
        return math.log(mu)
    raise ValueError(f"unknown link {link!r}")


def link_inverse(link: str, eta):
    """g^{-1}(eta)."""
    if link == "logit":
        return expit(eta)
    if link == "identity":
        return np.asarray(eta, dtype=float) if np.ndim(eta) else float(eta)
    if link == "log":
        return np.exp(eta) if np.ndim(eta) else math.exp(eta)
    raise ValueError(f"unknown link {link!r}")


def link_inverse_deriv(link: str, eta):
    """d g^{-1}/d eta, needed by the sandwich covariance and Wald projections."""
    if link == "logit":
        p = expit(eta)
        return p * (1.0 - p)
    if link == "identity":
        return np.ones_like(np.asarray(eta, dtype=float)) if np.ndim(eta) else 1.0
    if link == "log":
        return np.exp(eta) if np.ndim(eta) else math.exp(eta)
    raise ValueError(f"unknown link {link!r}")


# ---------------------------------------------------------------------------
# staged data containers
# ---------------------------------------------------------------------------

@dataclass
class CenterData:
    """One center's contribution to a stage: arm, delivered package, outcomes."""

    arm: int
    package: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        self.package = np.asarray(self.package, dtype=float)
        self.outcomes = np.asarray(self.outcomes, dtype=float)
        if self.arm not in (0, 1):
            raise ValueError("arm must be 0 (control) or 1 (intervention)")
        if self.arm == 0 and np.any(self.package != 0.0):
            raise ValueError("control-arm centers must have the zero package")
        if self.outcomes.ndim != 1 or self.outcomes.size == 0:
            raise ValueError("outcomes must be a nonempty vector")

    @property
    def size(self) -> int:
        return int(self.outcomes.size)

    @property
    def outcome_sum(self) -> float:
        return float(self.outcomes.sum())


@dataclass
class StageRecord:
    """All centers observed in one stage."""

    stage_index: int
    centers: list[CenterData] = field(default_factory=list)

    def __post_init__(self):
        if self.stage_index < 1:
            raise ValueError("stage_index starts at 1")
        if not self.centers:
            raise ValueError("a stage record needs at least one center")
        dims = {c.package.size for c in self.centers}
        if len(dims) != 1:
            raise ValueError("all packages in a stage must have the same length")

    @property
    def n_components(self) -> int:
        return self.centers[0].package.size

    def arm_counts(self) -> tuple[float, float]:
        """(n1, n0): observation counts in the intervention and control arms."""
        n1 = sum(c.size for c in self.centers if c.arm == 1)
        n0 = sum(c.size for c in self.centers if c.arm == 0)
        return float(n1), float(n0)

    def arm_sums(self) -> tuple[float, float]:
        """(S1, S0): outcome sums in the intervention and control arms."""
        s1 = sum(c.outcome_sum for c in self.centers if c.arm == 1)
        s0 = sum(c.outcome_sum for c in self.centers if c.arm == 0)
        return float(s1), float(s0)


# ---------------------------------------------------------------------------
# fitted model
# ---------------------------------------------------------------------------

@dataclass
class FittedModel:
    """Coefficients, link, and coefficient covariance of a fitted outcome model.

    ``covariance`` is Var(beta-hat) — inverse observed Fisher information for
    the logistic fit, the heteroskedasticity-robust sandwich for continuous
    fits — so diagonal square roots are standard errors directly.
    """

    beta: np.ndarray
    link: str
    covariance: np.ndarray
    n_used: int
    kind: str
    sigma2: float | None = None
    n_iter: int = 0

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)

    @property
    def intercept(self) -> float:
        return float(self.beta[0])

    @property
    def effects(self) -> np.ndarray:
        return self.beta[1:]

    @property
    def n_components(self) -> int:
        return self.beta.size - 1

    def linear_predictor(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.size != self.n_components:
            raise ValueError(
                f"package has {x.size} components, model expects {self.n_components}"
            )
        return float(self.beta[0] + self.effects @ x)


def predict(model: FittedModel, x) -> float:
    """Model success probability (binary) or mean (continuous) at package x."""
    return float(link_inverse(model.link, model.linear_predictor(x)))


def mirrored(model: FittedModel) -> FittedModel:
    """Sign-flipped copy used to turn decrease-goals into increase problems."""
    return FittedModel(
        beta=-model.beta,
        link=model.link,
        covariance=model.covariance,
        n_used=model.n_used,
        kind=model.kind,
        sigma2=model.sigma2,
        n_iter=model.n_iter,
    )


# ---------------------------------------------------------------------------
# design assembly
# ---------------------------------------------------------------------------

def _center_rows(records):
    """Per-center grouped design: (X rows with intercept, sizes, outcome sums)."""
    rows, sizes, sums = [], [], []
    for rec in records:
        for c in rec.centers:
            rows.append(np.concatenate(([1.0], c.package)))
            sizes.append(float(c.size))
            sums.append(c.outcome_sum)
    X = np.vstack(rows)
    return X, np.asarray(sizes), np.asarray(sums)


def logistic_information(X, n, p):
    """Fisher information of grouped logistic rows: sum_i n_i p_i (1 - p_i) x_i x_i'.

    ``X`` holds one design row per group (intercept first), ``n`` the group
    sizes and ``p`` the success probabilities at those rows.
    """
    w = n * p * (1.0 - p)
    return X.T @ (X * w[:, None])


def _obs_rows(records):
    """Per-observation design (X with intercept, y), for continuous fits."""
    xs, ys = [], []
    for rec in records:
        for c in rec.centers:
            row = np.concatenate(([1.0], c.package))
            xs.append(np.tile(row, (c.size, 1)))
            ys.append(c.outcomes)
    return np.vstack(xs), np.concatenate(ys)


def _check_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("non-finite value in model input")


def _check_rank(X, rank=None):
    """Raise RankDeficientError unless X has full column rank.

    ``rank`` is a rank already computed with ``matrix_rank``'s cutoff (the one
    ``lstsq(..., rcond=None)`` returns); without it the rank is computed here.
    """
    if rank is None:
        rank = np.linalg.matrix_rank(X)
    if rank < X.shape[1]:
        raise RankDeficientError(
            "design matrix is rank deficient; coefficients are not identifiable"
        )


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def fit_binary(records) -> FittedModel:
    """Maximum-likelihood logistic fit on one or more stage records.

    Works on per-center success counts (all observations in a center share a
    package, so the grouped likelihood is exact). IRLS with step-halving,
    gradient-norm tolerance 1e-8, at most 100 iterations.
    """
    records = list(records)
    X, m, s = _center_rows(records)
    _check_finite(X, m, s)
    for rec in records:
        for c in rec.centers:
            if np.any((c.outcomes != 0.0) & (c.outcomes != 1.0)):
                raise ValueError("binary fit requires 0/1 outcomes")
    total_s = s.sum()
    if total_s <= 0 or total_s >= m.sum():
        raise SeparationError("all outcomes identical; logistic MLE does not exist")
    _check_rank(X)

    beta = np.zeros(X.shape[1])

    def loglik(b):
        eta = X @ b
        return float(s @ eta - m @ np.logaddexp(0.0, eta))

    ll = loglik(beta)
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        eta = X @ beta
        p = expit(eta)
        grad = X.T @ (s - m * p)
        if np.linalg.norm(grad) <= GRAD_TOL:
            n_iter -= 1
            break
        H = logistic_information(X, m, p)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise SeparationError(
                "information matrix singular during iteration (separated data?)"
            ) from exc
        new_beta = beta + step
        new_ll = loglik(new_beta)
        halvings = 0
        while (not np.isfinite(new_ll) or new_ll < ll - 1e-12) and halvings < 30:
            step *= 0.5
            new_beta = beta + step
            new_ll = loglik(new_beta)
            halvings += 1
        beta, ll = new_beta, new_ll
        if not np.all(np.isfinite(beta)):
            raise NonFiniteError("non-finite coefficients during logistic fit")
        if np.max(np.abs(beta)) > COEF_CAP:
            raise SeparationError(
                f"coefficient magnitude exceeded {COEF_CAP}; data likely separated"
            )

    H = logistic_information(X, m, expit(X @ beta))
    try:
        cov = np.linalg.inv(H)
    except np.linalg.LinAlgError as exc:
        raise SeparationError("observed information singular at the optimum") from exc
    return FittedModel(
        beta=beta,
        link="logit",
        covariance=cov,
        n_used=int(m.sum()),
        kind="binary",
        n_iter=n_iter,
    )


def fit_continuous(records, link: str = "identity") -> FittedModel:
    """GLM fit for continuous outcomes with identity or log link.

    Identity reduces to least squares (solved by SVD, not normal equations);
    log uses Gauss-Newton with step-halving. Covariance is the sandwich
    A^{-1} B A^{-1} with bread A = sum (dg^{-1})^2 x x' and meat B using
    squared residuals.
    """
    if link not in ("identity", "log"):
        raise ValueError(f"unsupported continuous link {link!r}")
    records = list(records)
    X, y = _obs_rows(records)
    _check_finite(X, y)
    n, k = X.shape
    rank = None
    if link == "identity":
        # lstsq ranks X with matrix_rank's cutoff, so its one SVD serves both.
        beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    _check_rank(X, rank)
    if n <= k:
        raise RankDeficientError("need more observations than coefficients")

    n_iter = 0
    if link == "identity":
        eta = X @ beta
    else:
        mean_y = float(np.mean(y))
        beta = np.zeros(k)
        beta[0] = math.log(mean_y) if mean_y > 0 else 0.0
        rss = float(np.sum((y - np.exp(np.clip(X @ beta, -700, 700))) ** 2))
        for n_iter in range(1, MAX_ITER + 1):
            eta = np.clip(X @ beta, -700, 700)
            mu = np.exp(eta)
            resid = y - mu
            grad = (X * mu[:, None]).T @ resid
            if np.linalg.norm(grad) <= GRAD_TOL:
                n_iter -= 1
                break
            J = X * mu[:, None]
            step, *_ = np.linalg.lstsq(J, resid, rcond=None)
            new_beta = beta + step
            new_rss = float(
                np.sum((y - np.exp(np.clip(X @ new_beta, -700, 700))) ** 2)
            )
            halvings = 0
            while (not np.isfinite(new_rss) or new_rss > rss + 1e-12) and halvings < 30:
                step *= 0.5
                new_beta = beta + step
                new_rss = float(
                    np.sum((y - np.exp(np.clip(X @ new_beta, -700, 700))) ** 2)
                )
                halvings += 1
            beta, rss = new_beta, new_rss
            if not np.all(np.isfinite(beta)):
                raise NonFiniteError("non-finite coefficients during GLM fit")
        eta = np.clip(X @ beta, -700, 700)

    mu = link_inverse(link, eta)
    resid = y - mu
    rss = float(resid @ resid)
    if rss <= 0.0:
        raise DegenerateVarianceError("zero residual variance in continuous fit")
    sigma2 = rss / (n - k)

    d = link_inverse_deriv(link, eta)
    Xd = X * np.asarray(d)[:, None]
    A = Xd.T @ Xd
    Xdr = X * (np.asarray(d) * resid)[:, None]
    B = Xdr.T @ Xdr
    try:
        A_inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError("singular bread matrix in sandwich covariance") from exc
    cov = A_inv @ B @ A_inv

    return FittedModel(
        beta=np.asarray(beta, dtype=float),
        link=link,
        covariance=cov,
        n_used=n,
        kind="continuous",
        sigma2=sigma2,
        n_iter=n_iter,
    )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def load_stage_csv(path) -> list[StageRecord]:
    """Read staged center data from CSV.

    Expected columns: ``stage``, ``center``, ``arm``, ``x_1`` .. ``x_P``, ``y``.
    One row per observation; every row of a center must repeat the same
    package. Returns records sorted by stage index.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty CSV")
        cols = [c.strip() for c in reader.fieldnames]
        required = {"stage", "center", "arm", "y"}
        missing = required - set(cols)
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        xcols = sorted(
            (c for c in cols if c.startswith("x_")),
            key=lambda c: int(c.split("_", 1)[1]),
        )
        if not xcols:
            raise ValueError(f"{path}: no package columns (x_1..x_P)")

        groups: dict[tuple[int, str], dict] = {}
        for i, row in enumerate(reader, start=2):
            try:
                stage = int(row["stage"])
                arm = int(row["arm"])
                x = np.array([float(row[c]) for c in xcols])
                y = float(row["y"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: bad value on line {i}: {exc}") from None
            key = (stage, str(row["center"]))
            g = groups.setdefault(key, {"arm": arm, "x": x, "ys": []})
            if g["arm"] != arm or not np.array_equal(g["x"], x):
                raise ValueError(
                    f"{path}: line {i}: center {key[1]!r} changes arm or package "
                    f"within stage {stage}"
                )
            g["ys"].append(y)

    if not groups:
        raise ValueError(f"{path}: no data rows")
    stages: dict[int, list[CenterData]] = {}
    for (stage, _center), g in sorted(groups.items()):
        stages.setdefault(stage, []).append(
            CenterData(arm=g["arm"], package=g["x"], outcomes=np.array(g["ys"]))
        )
    return [StageRecord(stage_index=k, centers=v) for k, v in sorted(stages.items())]

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
import functools
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    DegenerateVarianceError,
    NonFiniteError,
    RankDeficientError,
    SeparationError,
)

LINKS = ("logit", "identity", "log")
CONTINUOUS_LINKS = ("identity", "log")

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
    ``predict``, ``optimizer._raw_level`` and ``power._Projection.p0`` call
    this on scalars, where a numpy round trip costs more than the arithmetic.
    """
    if isinstance(eta, (float, int, np.floating, np.integer)):
        eta = float(eta)
        if eta >= 0.0:
            return 1.0 / (1.0 + math.exp(-eta))
        ex = math.exp(eta)
        return ex / (1.0 + ex)
    eta = np.asarray(eta, dtype=float)
    # min(eta, -eta) is -eta where eta >= 0 and eta elsewhere (a NaN keeps its
    # sign), so each branch below is bitwise the one a masked two-branch form
    # computes.
    ex = np.exp(np.minimum(eta, -eta))
    den = 1.0 + ex
    out = np.where(eta >= 0, 1.0 / den, ex / den)
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
    """g^{-1}(eta).  Python and numpy scalars take a float path first, as in
    ``expit``."""
    if link == "logit":
        return expit(eta)
    if link in CONTINUOUS_LINKS and isinstance(eta, (float, int, np.floating, np.integer)):
        return float(eta) if link == "identity" else math.exp(eta)
    if link == "identity":
        return np.asarray(eta, dtype=float) if np.ndim(eta) else float(eta)
    if link == "log":
        return np.exp(eta) if np.ndim(eta) else math.exp(eta)
    raise ValueError(f"unknown link {link!r}")


def _link_inverse_lanes(link: str, eta: np.ndarray) -> np.ndarray:
    """``link_inverse`` of each entry of the array ``eta`` by its float path:
    ``math.exp`` per entry, which ``np.exp`` does not match bitwise."""
    if link == "identity":
        return np.array(eta, dtype=float)
    if link == "log":
        return np.array(list(map(math.exp, eta.tolist())))
    if link != "logit":
        raise ValueError(f"unknown link {link!r}")
    ex = np.array(list(map(math.exp, np.minimum(eta, -eta).tolist())))
    return np.where(eta >= 0.0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


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

def _value_eq(self, other):
    """Field-wise equality that compares ndarray fields with ``np.array_equal``
    (the generated ``__eq__`` cannot compare arrays of two or more entries)."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
            return False
    return True


def _json_value(value):
    """JSON-ready copy of ``value``, the one rule every report, config and
    state document follows.  An object with a ``to_config`` gives that
    (``CostFunction``'s 1-based terms, ``GoalSpec``'s test kind); any other
    dataclass gives ``_json_fields``; dicts are copied; tuples, lists and
    arrays become lists; numpy scalars become Python values; non-finite
    floats become None, so ``json.dumps(..., allow_nan=False)`` accepts the
    result."""
    if hasattr(value, "to_config"):
        return value.to_config()
    if is_dataclass(value):
        return _json_fields(value)
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_json_value(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _json_fields(obj) -> dict:
    """``obj``'s dataclass fields in field order, each through ``_json_value``:
    the body of every ``to_config`` and ``to_dict``."""
    return {f.name: _json_value(getattr(obj, f.name)) for f in fields(obj)}


def _from_fields(cls, doc, **readers):
    """``cls`` from a ``_json_fields`` document: the body of every
    ``from_config``.  Each key must name an init field of ``cls``; an absent
    field takes its declared default (``KeyError`` when it has none);
    ``readers`` maps a field to the function that reads its non-null value,
    and every other value goes to ``cls`` unchanged, for its own checks."""
    if not isinstance(doc, dict):
        raise TypeError(f"{cls.__name__} fields must be an object, got {type(doc).__name__}")
    known = {f.name: f for f in fields(cls) if f.init}
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown {cls.__name__} field {key!r}; known: {', '.join(known)}")
    for name, f in known.items():
        if name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(name)
    return cls(**{key: value if value is None or key not in readers else readers[key](value)
                  for key, value in doc.items()})


@dataclass(init=False)
class CenterData:
    """One center's contribution to a stage: arm, delivered package and the
    sufficient statistics of its outcomes.

    ``CenterData(arm, package, outcomes)`` reduces an outcome vector to its
    ``size``, ``outcome_sum`` and ``m2 = sum (y - ybar)^2`` (two passes,
    centered) and does not keep the vector; ``from_stats`` builds a center
    from the statistics themselves.
    """

    arm: int
    package: np.ndarray
    size: int
    outcome_sum: float
    m2: float

    __eq__ = _value_eq

    def __init__(self, arm: int, package, outcomes):
        y = np.asarray(outcomes, dtype=float)
        if y.ndim != 1 or y.size == 0:
            raise ValueError("outcomes must be a nonempty vector")
        total = float(y.sum())
        dev = y - total / y.size
        self._assign(arm, package, y.size, total, float(dev @ dev))

    @classmethod
    def from_stats(cls, arm: int, package, size, outcome_sum, m2) -> "CenterData":
        """Center from its statistics: an integer ``size`` >= 1 (not a bool),
        a finite ``outcome_sum`` and a finite ``m2`` >= 0."""
        valid = (not isinstance(size, bool) and math.isfinite(size) and size == int(size) >= 1
                 and math.isfinite(outcome_sum) and math.isfinite(m2) and m2 >= 0.0)
        if not valid:
            raise ValueError(
                f"invalid center statistics: size {size!r}, "
                f"outcome_sum {outcome_sum!r}, m2 {m2!r}"
            )
        center = cls.__new__(cls)
        center._assign(arm, package, int(size), float(outcome_sum), float(m2))
        return center

    def _assign(self, arm, package, size, outcome_sum, m2):
        if arm not in (0, 1):
            raise ValueError("arm must be 0 (control) or 1 (intervention)")
        self.arm, self.size, self.outcome_sum, self.m2 = int(arm), size, outcome_sum, m2
        self.package = np.asarray(package, dtype=float)
        if arm == 0 and np.any(self.package != 0.0):
            raise ValueError("control-arm centers must have the zero package")


@dataclass
class StageRecord:
    """All centers observed in one stage."""

    stage_index: int
    centers: list[CenterData] = field(default_factory=list)

    __eq__ = _value_eq

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

    __eq__ = _value_eq

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        if not all(map(math.isfinite, self.beta.ravel().tolist())):
            raise ValueError(f"beta must be finite, got {self.beta.tolist()}")

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


def _predict_lanes(link: str, intercept, effects, packages) -> np.ndarray:
    """``predict`` at every package row of ``packages`` (..., P), bitwise:
    ``intercept`` and ``effects`` broadcast against the rows, ``np.vecdot``
    takes numpy's dot per row as ``effects @ x`` does, and the link inverse
    runs per entry through ``math``."""
    eta = intercept + np.vecdot(packages, effects)
    return _link_inverse_lanes(link, eta.ravel()).reshape(eta.shape)


def _assumed(beta, link: str = "logit") -> FittedModel:
    """Model at given coefficients with zero covariance: a simulation truth,
    published or planning coefficients, or a perturbed probe point."""
    beta = np.asarray(beta, dtype=float)
    return FittedModel(
        beta=beta,
        link=link,
        covariance=np.zeros((beta.size, beta.size)),
        n_used=0,
        kind="assumed",
    )


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
    """Per-center grouped design of stage records: X rows (C, P+1) with the
    intercept column first, and the sizes, outcome sums and m2, each (C,).
    A stacked fit takes these of each lane stacked lane first."""
    centers = [c for rec in records for c in rec.centers]
    if not centers:
        raise ValueError("no stage records to fit: the input is empty")
    try:
        X = np.array([[1.0, *c.package.tolist()] for c in centers])
    except TypeError:  # a 0-d package unpacks as a float
        raise ValueError("every package must be a vector") from None
    n = np.array([float(c.size) for c in centers])
    return X, n, np.array([c.outcome_sum for c in centers]), np.array([c.m2 for c in centers])


def logistic_information(X, n, p):
    """Fisher information of grouped logistic rows: sum_i n_i p_i (1 - p_i) x_i x_i'.

    ``X`` holds one design row per group (intercept first), ``n`` the group
    sizes and ``p`` the success probabilities at those rows.  Leading axes
    of all three are a stack of independent designs.
    """
    w = n * p * (1.0 - p)
    return np.swapaxes(X, -1, -2) @ (X * w[..., None])


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _not_binary(n, s, m2):
    """Mask of the centers whose (n, s, m2) are not those of a 0/1 vector:
    an integer s in [0, n] and m2 = s (n - s) / n, to rounding."""
    return ((s != np.round(s)) | (s < 0.0) | (s > n)
            | (np.abs(m2 - s * (n - s) / n) > 1e-9 * n))


def _check_binary(n, s, m2):
    """ValueError unless every center's statistics are those of 0/1 outcomes."""
    if np.any(_not_binary(n, s, m2)):
        raise ValueError("center statistics are not those of 0/1 outcomes")


def _lanewise(op, *stacks):
    """``op`` (``np.linalg.solve`` or ``inv``) over stacked matrices, and the
    mask of lanes whose matrix is singular.

    A singular matrix makes the stacked call raise for the whole stack; then
    ``op`` runs lane by lane and a singular lane's result is left zero.
    """
    singular = np.zeros(len(stacks[0]), dtype=bool)
    try:
        return op(*stacks), singular
    except np.linalg.LinAlgError:
        out = np.zeros(stacks[-1].shape)
        for j in range(len(out)):
            try:
                out[j] = op(*(a[j] for a in stacks))
            except np.linalg.LinAlgError:
                singular[j] = True
        return out, singular


def _fail(out, lanes, cls, message):
    """Give each lane in ``lanes`` that has no result yet ``cls(message)``."""
    for lane in lanes:
        if out[lane] is None:
            out[lane] = cls(message)


def _pending(out):
    """The lanes with no result yet, in order."""
    return np.array([lane for lane, result in enumerate(out) if result is None], dtype=np.intp)


def _fit_binary_stack(X, m, s, m2) -> list:
    """Logistic fits of L independent grouped designs at once.

    ``X`` (L, C, P+1), ``m``, ``s`` and ``m2`` (L, C) are what
    ``_center_rows`` gives, stacked.  Each lane is fitted as ``fit_binary`` fits
    one: the same input checks, IRLS with step-halving, gradient-norm
    tolerance ``GRAD_TOL``, at most ``MAX_ITER`` iterations and the
    ``COEF_CAP`` divergence test.  Only the lanes still iterating are
    computed on, and every stacked product, solve and dot works on each
    lane as the lone call would, so a lane's numbers do not depend on the
    other lanes.

    Returns one entry per lane: its ``FittedModel``, or the exception the
    fit of that lane alone raises (returned, not raised).
    """
    L, _, k = X.shape
    out: list = [None] * L
    fail, pending = functools.partial(_fail, out), functools.partial(_pending, out)

    with np.errstate(all="ignore"):  # lanes that fail one check meet the next ones
        finite = (np.isfinite(X).all(axis=(1, 2)) & np.isfinite(m).all(axis=1)
                  & np.isfinite(s).all(axis=1) & np.isfinite(m2).all(axis=1))
        fail(np.flatnonzero(~finite), NonFiniteError, "non-finite value in model input")
        fail(np.flatnonzero(_not_binary(m, s, m2).any(axis=1)), ValueError,
             "center statistics are not those of 0/1 outcomes")
        total_s = s.sum(axis=1)
        fail(np.flatnonzero((total_s <= 0) | (total_s >= m.sum(axis=1))), SeparationError,
             "all outcomes identical; logistic MLE does not exist")
    act = pending()
    if act.size:
        fail(act[np.linalg.matrix_rank(X[act]) < k], RankDeficientError,
             "design matrix is rank deficient; coefficients are not identifiable")
        act = pending()

    def loglik(Xa, ma, sa, b):
        eta = (Xa @ b[:, :, None])[:, :, 0]
        return np.vecdot(sa, eta) - np.vecdot(ma, np.logaddexp(0.0, eta))

    beta_out = np.zeros((L, k))
    n_iter = np.full(L, MAX_ITER)
    Xa, ma, sa = X[act], m[act], s[act]
    beta = np.zeros((act.size, k))
    ll = loglik(Xa, ma, sa, beta)
    for it in range(1, MAX_ITER + 1):
        if not act.size:
            break
        p = expit((Xa @ beta[:, :, None])[:, :, 0])
        grad = (np.swapaxes(Xa, 1, 2) @ (sa - ma * p)[:, :, None])[:, :, 0]
        keep = np.sqrt(np.vecdot(grad, grad)) > GRAD_TOL
        if not keep.all():
            beta_out[act[~keep]] = beta[~keep]
            n_iter[act[~keep]] = it - 1
            act, Xa, ma, sa, beta, ll, p, grad = (
                a[keep] for a in (act, Xa, ma, sa, beta, ll, p, grad))
            if not act.size:
                break
        step, singular = _lanewise(np.linalg.solve, logistic_information(Xa, ma, p),
                                   grad[:, :, None])
        step = step[:, :, 0]
        new_beta = beta + step
        new_ll = loglik(Xa, ma, sa, new_beta)
        halve = ~singular & (~np.isfinite(new_ll) | (new_ll < ll - 1e-12))
        halvings = 0
        while halvings < 30 and halve.any():
            j = np.flatnonzero(halve)
            step[j] *= 0.5
            new_beta[j] = beta[j] + step[j]
            new_ll[j] = loglik(Xa[j], ma[j], sa[j], new_beta[j])
            halve[j] = ~np.isfinite(new_ll[j]) | (new_ll[j] < ll[j] - 1e-12)
            halvings += 1
        beta, ll = new_beta, new_ll
        nonfinite = ~np.isfinite(beta).all(axis=1)
        with np.errstate(invalid="ignore"):
            capped = ~nonfinite & (np.abs(beta).max(axis=1) > COEF_CAP)
        fail(act[singular], SeparationError,
             "information matrix singular during iteration (separated data?)")
        fail(act[nonfinite], NonFiniteError, "non-finite coefficients during logistic fit")
        fail(act[capped], SeparationError,
             f"coefficient magnitude exceeded {COEF_CAP}; data likely separated")
        keep = ~(singular | nonfinite | capped)
        if not keep.all():
            act, Xa, ma, sa, beta, ll = (a[keep] for a in (act, Xa, ma, sa, beta, ll))
    beta_out[act] = beta

    ok = pending()
    if not ok.size:
        return out
    Xo, mo, bo = X[ok], m[ok], beta_out[ok]
    H = logistic_information(Xo, mo, expit((Xo @ bo[:, :, None])[:, :, 0]))
    cov, singular = _lanewise(np.linalg.inv, H)
    fail(ok[singular], SeparationError, "observed information singular at the optimum")
    sizes = mo.sum(axis=1)
    for j, lane in enumerate(ok.tolist()):
        if out[lane] is None:
            out[lane] = FittedModel(beta=bo[j], link="logit", covariance=cov[j],
                                    n_used=int(sizes[j]), kind="binary",
                                    n_iter=int(n_iter[lane]))
    return out


def fit_binary(records) -> FittedModel:
    """Maximum-likelihood logistic fit on one or more stage records.

    Works on per-center success counts (all observations in a center share a
    package, so the grouped likelihood is exact). IRLS with step-halving,
    gradient-norm tolerance 1e-8, at most 100 iterations: the one-lane call
    of ``_fit_binary_stack``.  Centers whose statistics are not those of 0/1
    outcomes raise ValueError; the one case the statistics cannot see is a
    vector that is not 0/1 but has the size, sum and m2 of one.
    """
    (result,) = _fit_binary_stack(*(a[None] for a in _center_rows(records)))
    if isinstance(result, Exception):
        raise result
    return result


def _lstsq_stack(A, b):
    """``np.linalg.lstsq(A[j], b[j], rcond=None)`` for every lane j of A
    (L, C, k) and b (L, C) in one call of the gufunc it wraps, at its
    cutoff eps * max(C, k).  Returns the solutions (L, k), the ranks (L,)
    and, per lane, None or the LinAlgError its lone call raises.

    A failed SVD is flagged once for the whole stack; then each lane is
    solved on its own.
    """
    rcond = np.finfo(float).eps * max(A.shape[1:])
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            x, _, rank, _ = _umath_linalg.lstsq(A, b[:, :, None], rcond,
                                                signature="ddd->ddid")
        return x[:, :, 0], rank, [None] * len(A)
    except FloatingPointError:
        x, rank, errors = np.zeros((len(A), A.shape[2])), np.zeros(len(A), dtype=int), []
        for j in range(len(A)):
            try:
                x[j], _, rank[j], _ = np.linalg.lstsq(A[j], b[j], rcond=None)
                errors.append(None)
            except np.linalg.LinAlgError as exc:
                errors.append(exc)
        return x, rank, errors


def _fit_continuous_stack(X, n, s, m2, link: str) -> list:
    """Continuous-outcome fits of L independent grouped designs at once.

    ``X`` (L, C, P+1), ``n``, ``s`` and ``m2`` (L, C) are what
    ``_center_rows`` gives, stacked.  Each lane is fitted as ``fit_continuous``
    fits one, with the same checks in the same order: the identity link by
    one stacked least-squares solve, the log link by Gauss-Newton with
    step-halving on the lanes still iterating.  Every stacked product,
    solve and dot works on each lane as the lone call would, so a lane's
    numbers do not depend on the other lanes.

    Returns one entry per lane: its ``FittedModel``, or the exception the
    fit of that lane alone raises (returned, not raised).
    """
    if link not in CONTINUOUS_LINKS:
        raise ValueError(f"unsupported continuous link {link!r}")
    L, _, k = X.shape
    out: list = [None] * L
    fail, pending = functools.partial(_fail, out), functools.partial(_pending, out)

    def failed(lanes, errors):
        for lane, exc in zip(lanes.tolist(), errors):
            if exc is not None:
                out[lane] = exc
        return np.array([exc is not None for exc in errors], dtype=bool)

    finite = (np.isfinite(X).all(axis=(1, 2)) & np.isfinite(s).all(axis=1)
              & np.isfinite(m2).all(axis=1))
    fail(np.flatnonzero(~finite), NonFiniteError, "non-finite value in model input")
    ybar, w = s / n, np.sqrt(n)
    beta_out = np.zeros((L, k))
    act = pending()
    if act.size:
        if link == "identity":
            beta_out[act], rank, errors = _lstsq_stack(X[act] * w[act, :, None],
                                                       ybar[act] * w[act])
            failed(act, errors)
        else:
            rank = np.linalg.matrix_rank(X[act])
        fail(act[rank < k], RankDeficientError,
             "design matrix is rank deficient; coefficients are not identifiable")
    n_obs = n.sum(axis=1)
    fail(np.flatnonzero(n_obs <= k), RankDeficientError,
         "need more observations than coefficients")
    if link == "identity":
        fail(np.flatnonzero(~np.isfinite(beta_out).all(axis=1)), NonFiniteError,
             "non-finite coefficients during GLM fit")

    def linear(lanes, b):
        eta = (X[lanes] @ b[:, :, None])[:, :, 0]
        return eta if link == "identity" else np.clip(eta, -700, 700)

    def rss(lanes, b):
        eta = linear(lanes, b)
        r = ybar[lanes] - (eta if link == "identity" else np.exp(eta))
        return m2[lanes].sum(axis=1) + np.vecdot(n[lanes], r * r)

    n_iter = np.zeros(L, dtype=int)
    act = pending()
    if link == "log":
        n_iter[act] = MAX_ITER
        mean_y = (s[act].sum(axis=1) / n_obs[act]).tolist()
        beta = np.zeros((act.size, k))
        beta[:, 0] = [math.log(v) if v > 0 else 0.0 for v in mean_y]
        loss = rss(act, beta)
        for it in range(1, MAX_ITER + 1):
            if not act.size:
                break
            mu = np.exp(linear(act, beta))
            J = X[act] * (w[act] * mu)[:, :, None]
            wresid = w[act] * (ybar[act] - mu)
            grad = (np.swapaxes(J, 1, 2) @ wresid[:, :, None])[:, :, 0]
            done = np.sqrt(np.vecdot(grad, grad)) <= GRAD_TOL
            if done.any():
                beta_out[act[done]] = beta[done]
                n_iter[act[done]] = it - 1
                act, beta, loss, J, wresid = (
                    a[~done] for a in (act, beta, loss, J, wresid))
                if not act.size:
                    break
            step, _, errors = _lstsq_stack(J, wresid)
            new_beta = beta + step
            new_loss = rss(act, new_beta)
            halve = ~failed(act, errors) & (~np.isfinite(new_loss) | (new_loss > loss + 1e-12))
            halvings = 0
            while halvings < 30 and halve.any():
                j = np.flatnonzero(halve)
                step[j] *= 0.5
                new_beta[j] = beta[j] + step[j]
                new_loss[j] = rss(act[j], new_beta[j])
                halve[j] = ~np.isfinite(new_loss[j]) | (new_loss[j] > loss[j] + 1e-12)
                halvings += 1
            beta, loss = new_beta, new_loss
            fail(act[~np.isfinite(beta).all(axis=1)], NonFiniteError,
                 "non-finite coefficients during GLM fit")
            keep = np.array([out[lane] is None for lane in act.tolist()], dtype=bool)
            act, beta, loss = (a[keep] for a in (act, beta, loss))
        beta_out[act] = beta

    ok = pending()
    if not ok.size:
        return out
    loss = rss(ok, beta_out[ok])
    fail(ok[loss <= 0.0], DegenerateVarianceError, "zero residual variance in continuous fit")
    Xo, no, bo = X[ok], n[ok], beta_out[ok]
    eta = linear(ok, bo)
    mu = eta if link == "identity" else np.exp(eta)
    resid = ybar[ok] - mu
    bread_w, meat_w = no, m2[ok] + no * resid * resid
    if link == "log":  # d = dg^{-1}/deta = mu; the identity link has d = 1
        bread_w, meat_w = no * (mu * mu), (mu * mu) * meat_w
    A = np.swapaxes(Xo, 1, 2) @ (Xo * bread_w[:, :, None])
    B = np.swapaxes(Xo, 1, 2) @ (Xo * meat_w[:, :, None])
    A_inv, singular = _lanewise(np.linalg.inv, A)
    fail(ok[singular], RankDeficientError, "singular bread matrix in sandwich covariance")
    cov = A_inv @ B @ A_inv
    for j, lane in enumerate(ok.tolist()):
        if out[lane] is None:
            out[lane] = FittedModel(beta=bo[j], link=link, covariance=cov[j],
                                    n_used=int(n_obs[lane]), kind="continuous",
                                    sigma2=float(loss[j] / (n_obs[lane] - k)),
                                    n_iter=int(n_iter[lane]))
    return out


def fit_continuous(records, link: str = "identity") -> FittedModel:
    """GLM fit for continuous outcomes with identity or log link.

    Works on per-center statistics: with center means ybar, sizes n and
    within-center sums of squares m2, the residual sum of squares is
    sum m2 + sum n (ybar - mu)^2.  Identity reduces to least squares on the
    center means weighted by n (solved by SVD, not normal equations); log
    uses Gauss-Newton on the same rows with step-halving.  Covariance is the
    sandwich A^{-1} B A^{-1} with bread A = sum n d^2 x x' and meat
    B = sum d^2 (m2 + n (ybar - mu)^2) x x', d = dg^{-1}/deta.  The one-lane
    call of ``_fit_continuous_stack``.
    """
    (result,) = _fit_continuous_stack(*(a[None] for a in _center_rows(records)), link)
    if isinstance(result, Exception):
        raise result
    return result


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
        reader.fieldnames = cols = [c.strip() for c in reader.fieldnames]
        required = {"stage", "center", "arm", "y"}
        missing = required - set(cols)
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        given = [c for c in cols if c.startswith("x_")]
        xcols = [f"x_{j}" for j in range(1, len(given) + 1)]
        if not given or sorted(given) != sorted(xcols):
            raise ValueError(f"{path}: package columns {given} are not x_1..x_P")

        groups: dict[tuple[int, str], dict] = {}
        for i, row in enumerate(reader, start=2):
            try:
                stage = int(row["stage"])
                arm = int(row["arm"])
                x = np.array([float(row[c]) for c in xcols])
                y = float(row["y"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: bad value on line {i}: {exc}") from None
            if not (math.isfinite(y) and np.all(np.isfinite(x))):
                raise ValueError(f"{path}: non-finite value on line {i}")
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

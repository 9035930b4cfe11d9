"""Separable polynomial cost functions on intervention packages.

A cost is a sum of terms ``coeff * x_p ** degree`` plus an optional
constant, so it is separable across components — the structure the package
optimizer exploits. Terms are stored as ``(component, degree, coeff)``
triples with 0-based components internally; the JSON config form uses
1-based components and ``null`` for the constant term.

Every cost value, the solver's and a package's total, comes from each
component's polynomial (``_ComponentPoly``) through one Horner rule, ``_horner``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NonFiniteError, _check_count, config_errors


def _quadratic_points(b: float, a: float):
    """c0 -> the sorted distinct real roots of c0 + b*x + a*x**2 (a != 0), in
    closed form without cancellation; a complex pair counts as one root at its
    real part re when its imaginary part is within 1e-9 * (1 + |re|).  What
    does not depend on c0 is computed once, for the eta multiplier's solve."""
    bb, a4 = b * b, 4.0 * a
    re = -b / (2.0 * a)
    two_abs_a, window = 2.0 * abs(a), 1e-9 * (1.0 + abs(re))

    def roots(c0) -> tuple:
        disc = bb - a4 * c0
        if not disc >= 0.0:
            return (re,) if math.sqrt(-disc) / two_abs_a <= window else ()
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        if q == 0.0:
            return (0.0,)
        t1, t2 = q / a, c0 / q
        if t1 < t2:
            return (t1, t2)
        if t2 < t1:
            return (t2, t1)
        return (t1,) if t1 == t2 else tuple(sorted(set((t1, t2))))  # a nan root

    return roots


def _stationary_points(c) -> tuple:
    """Sorted distinct real stationary points of sum(c[k] * x**k).

    Derivatives of degree 1 and 2 are solved in closed form (the quadratic
    by ``_quadratic_points``, a cubic's straight from its coefficients),
    higher ones by ``polyroots``, whose eigenvalues count as real within the
    same 1e-9 * (1 + |re|) of their imaginary parts; where ``polyroots``
    fails on non-finite numbers, this raises NonFiniteError.
    """
    if len(c) == 4 and c[3] != 0.0:
        return _quadratic_points(2 * c[2], 3 * c[3])(c[1])  # 1 * c[1] is c[1]
    d = [k * c[k] for k in range(1, len(c))]
    while d and d[-1] == 0.0:
        d.pop()
    if len(d) == 2:
        return (-d[0] / d[1],)
    if len(d) == 3:
        return _quadratic_points(d[1], d[2])(d[0])
    try:
        roots = npoly.polyroots(d) if len(d) > 3 else ()
    except np.linalg.LinAlgError as exc:  # a non-finite d or a scaled d that overflows
        raise NonFiniteError(f"no stationary points of the derivative {d}: {exc}") from None
    return tuple(sorted(set(float(root.real) for root in roots
                            if abs(root.imag) <= 1e-9 * (1.0 + abs(root.real)))))


def _horner(coeffs, x):
    """sum(coeffs[k] * x**k) by Horner's rule, in the order of
    ``numpy.polynomial.polynomial.polyval``, so values agree with it
    bitwise; ``x`` and the coefficients may be floats or arrays.  A cubic's
    loop is written out, in the same order."""
    if len(coeffs) == 4:
        c0, c1, c2, c3 = coeffs
        return c0 + (c1 + (c2 + (c3 + 0.0 * x) * x) * x) * x
    v = 0.0
    for ck in reversed(coeffs):
        v = ck + v * x
    return v


def _argmin_on(coeffs, stationary, a: float, b: float) -> float:
    """The exact minimizer on [a, b] (a <= b) of the polynomial ``coeffs``
    with ascending stationary points ``stationary``: the smallest of the
    bounds and interior stationary points whose value is within 1e-12
    relative of the least."""
    # ``v < vmin`` is Python's min: the first least, a leading nan stays.
    va, vb = _horner(coeffs, a), _horner(coeffs, b)
    vmin, inner = (vb if vb < va else va), []
    for t in stationary:
        if a < t < b:
            v = _horner(coeffs, t)
            inner.append((t, v))
            if v < vmin:
                vmin = v
    top = vmin + 1e-12 * (1.0 + abs(vmin))
    # The candidates ascend (a, the interior points, b): the first in the window.
    if va <= top:
        return a
    for t, v in inner:
        if v <= top:
            return t
    if vb <= top:
        return b
    # top is nan: the cost overflowed on [a, b]
    raise NonFiniteError(f"the cost is not finite on [{float(a)}, {float(b)}]")


class _ComponentPoly:
    """One component's cost polynomial with precomputed stationary points.

    ``coeffs`` is a list of Python floats in increasing degree, evaluated by
    ``_horner``.  A ``CostFunction`` shares its instances with every solve,
    so treat them as read-only.
    """

    __slots__ = ("coeffs", "stationary")

    def __init__(self, coeffs):
        self.coeffs = [float(v) for v in coeffs]
        self.stationary = _stationary_points(self.coeffs)

    def __call__(self, x: float) -> float:
        return _horner(self.coeffs, x)

    def min_on(self, a: float, b: float):
        """Exact minimum on [a, b] as (x, cost); None for an empty interval.

        Ties within 1e-12 relative go to the smallest x (``_argmin_on``).
        """
        if b < a:
            return None
        x = _argmin_on(self.coeffs, self.stationary, a, b)
        return x, _horner(self.coeffs, x)

    def options_on(self, a: float, b: float):
        """Bound and interior stationary values — the candidate fixings."""
        return sorted({a, b, *(t for t in self.stationary if a < t < b)})


@dataclass(frozen=True)
class CostFunction:
    """A separable polynomial cost; ``polys`` holds the ``_ComponentPoly`` of
    each component up to the largest one referenced, built once."""

    terms: tuple[tuple[int | None, int, float], ...]

    def __post_init__(self):
        cleaned = []
        for term in self.terms:
            if len(term) != 3:
                raise ValueError(f"cost term must be (component, degree, coeff): {term!r}")
            comp, degree, coeff = term
            if comp is not None:
                _check_count(f"cost term {term!r}: the component", comp, 0)
            _check_count(f"cost term {term!r}: the degree", degree, 0)
            if comp is None and degree != 0:
                raise ValueError("constant terms must have degree 0")
            if isinstance(coeff, bool) or not isinstance(coeff, numbers.Real):
                raise ValueError(f"cost term {term!r}: the coefficient must be a real number")
            comp, degree, coeff = None if comp is None else int(comp), int(degree), float(coeff)
            if not math.isfinite(coeff):
                name = "constant" if comp is None else f"x_{comp + 1}^{degree}"
                raise ValueError(f"cost coefficient of the {name} term must be finite")
            cleaned.append((comp, degree, coeff))
        object.__setattr__(self, "terms", tuple(cleaned))
        object.__setattr__(self, "polys", tuple(
            _ComponentPoly(self.component_coefficients(p))
            for p in range(self.max_component + 1)
        ))

    # -- structure ---------------------------------------------------------

    @property
    def constant(self) -> float:
        return sum((c for comp, d, c in self.terms if comp is None or d == 0), 0.0)

    @property
    def max_component(self) -> int:
        """Largest 0-based component index referenced (-1 if none)."""
        idx = [comp for comp, _, _ in self.terms if comp is not None]
        return max(idx) if idx else -1

    @property
    def is_linear(self) -> bool:
        return all(d <= 1 for _, d, _ in self.terms)

    def component_coefficients(self, component: int, min_len: int = 2) -> np.ndarray:
        """Ascending coefficient array for one component's polynomial.

        Index d holds the coefficient of ``x**d``; the global constant is
        excluded (it belongs to no component).
        """
        degs = [d for comp, d, _ in self.terms if comp == component]
        size = max(min_len, (max(degs) + 1) if degs else 0)
        coeffs = np.zeros(size)
        for comp, d, c in self.terms:
            if comp == component and d > 0:
                coeffs[d] += c
        return coeffs

    # -- evaluation --------------------------------------------------------

    def _total(self, columns):
        """The constant, then each component's polynomial at its entry of
        ``columns`` (floats, or arrays over packages), added in component
        order."""
        for comp, d, _ in self.terms:
            if d and comp >= len(columns):
                raise ValueError(
                    f"cost references component {comp + 1} but package has {len(columns)}")
        total = self.constant
        for poly, column in zip(self.polys, columns):
            total += _horner(poly.coeffs, column)
        return total

    def evaluate(self, x) -> float:
        """The cost of one package, on Python floats."""
        x = np.asarray(x, dtype=float)
        return float(self._total(x.tolist()))

    def evaluate_rows(self, X) -> list:
        """``evaluate`` of each row of the (L, P) stack ``X``, bitwise, as a
        list: one pass over the columns."""
        X = np.asarray(X, dtype=float)
        return np.full(len(X), self._total(X.T)).tolist()

    def __call__(self, x) -> float:
        return self.evaluate(x)

    # -- construction / serialization ---------------------------------------

    @classmethod
    def linear(cls, coeffs) -> "CostFunction":
        """Pure linear cost sum_p coeffs[p] * x_p."""
        return cls(tuple((p, 1, float(c)) for p, c in enumerate(coeffs)))

    @classmethod
    def from_config(cls, entries) -> "CostFunction":
        """Build from the JSON form: [[component (1-based) | null, degree, coeff], ...]."""
        with config_errors("cost"):
            terms = []
            for entry in entries:
                if len(entry) != 3:
                    raise ValueError(f"cost entry must have three fields: {entry!r}")
                comp, degree, coeff = entry
                if comp is not None:
                    _check_count(f"cost term {entry!r}: the 1-based component", comp, 1)
                    comp -= 1
                terms.append((comp, degree, coeff))
            return cls(tuple(terms))

    def to_config(self) -> list:
        return [
            [None if comp is None else comp + 1, d, c] for comp, d, c in self.terms
        ]

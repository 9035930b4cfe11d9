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


def _stationary_points(c) -> tuple:
    """Sorted distinct real stationary points of sum(c[k] * x**k).

    Derivatives of degree 1 and 2 are solved in closed form (the quadratic
    without cancellation); a complex pair counts as one real point at its
    real part when its imaginary part is within 1e-9 * (1 + |re|), the
    tolerance applied to the ``polyroots`` eigenvalues of higher degrees.
    """
    d = [k * c[k] for k in range(1, len(c))]
    while d and d[-1] == 0.0:
        d.pop()
    if len(d) == 2:
        return (-d[0] / d[1],)
    if len(d) == 3:
        c0, b, a = d
        disc = b * b - 4.0 * a * c0
        if disc >= 0.0:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            pts = (q / a, c0 / q) if q != 0.0 else (0.0,)
        else:
            re = -b / (2.0 * a)
            near_real = math.sqrt(-disc) / (2.0 * abs(a)) <= 1e-9 * (1.0 + abs(re))
            pts = (re,) if near_real else ()
    elif len(d) > 3:
        pts = [
            float(root.real)
            for root in npoly.polyroots(d)
            if abs(root.imag) <= 1e-9 * (1.0 + abs(root.real))
        ]
    else:
        return ()
    return tuple(sorted(set(pts)))


def _horner(coeffs, x):
    """sum(coeffs[k] * x**k) by Horner's rule, in the order of
    ``numpy.polynomial.polynomial.polyval``, so values agree with it
    bitwise; ``x`` and the coefficients may be floats or arrays."""
    v = 0.0
    for ck in reversed(coeffs):
        v = ck + v * x
    return v


def _argmin_on(coeffs, stationary, a: float, b: float) -> float:
    """The exact minimizer on [a, b] (a <= b) of the polynomial ``coeffs``
    with ascending stationary points ``stationary``: the smallest of the
    bounds and interior stationary points whose value is within 1e-12
    relative of the least."""
    cands = [a, b] + [t for t in stationary if a < t < b]
    vals = [_horner(coeffs, t) for t in cands]
    vmin = min(vals)
    top = vmin + 1e-12 * (1.0 + abs(vmin))
    try:
        return min(c for c, v in zip(cands, vals) if v <= top)
    except ValueError:  # top is nan: the cost overflowed on [a, b]
        raise NonFiniteError(f"the cost is not finite on [{float(a)}, {float(b)}]") from None


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

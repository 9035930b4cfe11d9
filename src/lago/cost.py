"""Separable polynomial cost functions on intervention packages.

A cost is a sum of terms ``coeff * x_p ** degree`` plus an optional
constant, so it is separable across components — the structure the package
optimizer exploits. Terms are stored as ``(component, degree, coeff)``
triples with 0-based components internally; the JSON config form uses
1-based components and ``null`` for the constant term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NonFiniteError, config_errors


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


class _ComponentPoly:
    """One component's cost polynomial with precomputed stationary points.

    ``coeffs`` is a list of Python floats in increasing degree; evaluation is
    the Horner recurrence of ``numpy.polynomial.polynomial.polyval`` in the
    same order, so values agree with it bitwise.  A ``CostFunction`` shares
    its instances with every solve, so treat them as read-only.
    """

    __slots__ = ("coeffs", "stationary")

    def __init__(self, coeffs):
        self.coeffs = [float(v) for v in coeffs]
        self.stationary = _stationary_points(self.coeffs)

    def __call__(self, x: float) -> float:
        v = 0.0
        for ck in reversed(self.coeffs):
            v = ck + v * x
        return v

    def min_on(self, a: float, b: float):
        """Exact minimum on [a, b] as (x, cost); None for an empty interval.

        Ties within 1e-12 relative go to the smallest x.
        """
        if b < a:
            return None
        cands = [a, b] + [t for t in self.stationary if a < t < b]
        vals = [self(t) for t in cands]
        vmin = min(vals)
        tol = 1e-12 * (1.0 + abs(vmin))
        try:
            x = min(c for c, v in zip(cands, vals) if v <= vmin + tol)
        except ValueError:  # vmin + tol is nan: the cost overflowed on [a, b]
            raise NonFiniteError(f"the cost is not finite on [{float(a)}, {float(b)}]") from None
        return x, self(x)

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
                comp = int(comp)
                if comp < 0:
                    raise ValueError("component indices must be nonnegative")
            degree = int(degree)
            if degree < 0:
                raise ValueError("degrees must be nonnegative")
            if comp is None and degree != 0:
                raise ValueError("constant terms must have degree 0")
            coeff = float(coeff)
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
        return sum(c for comp, d, c in self.terms if comp is None or d == 0)

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

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for comp, d, c in self.terms:
            if comp is None or d == 0:
                total += c
            else:
                if comp >= x.size:
                    raise ValueError(
                        f"cost references component {comp + 1} but package has {x.size}"
                    )
                total += c * x[comp] ** d
        return float(total)

    def evaluate_rows(self, X) -> list:
        """``evaluate`` of each row of the (L, P) stack ``X``, bitwise, as a list.

        The terms are added in order on Python floats, whose ``**`` is libm
        ``pow`` like numpy's scalar power (numpy's vector power rounds
        differently).  Python refuses a power that overflows, and a package
        too short for the cost; those stacks go through ``evaluate``.
        """
        X = np.asarray(X, dtype=float)
        terms = [(c, None if d == 0 else comp, d) for comp, d, c in self.terms]
        try:
            out = []
            for row in X.tolist():
                total = 0.0
                for c, comp, d in terms:
                    total += c if comp is None else c * row[comp] ** d
                out.append(total)
            return out
        except (IndexError, OverflowError):
            return [self.evaluate(row) for row in X]

    def __call__(self, x) -> float:
        return self.evaluate(x)

    def marginal(self, x) -> np.ndarray:
        """Gradient of the cost at x."""
        x = np.asarray(x, dtype=float)
        grad = np.zeros_like(x)
        for comp, d, c in self.terms:
            if comp is None or d == 0:
                continue
            if comp >= x.size:
                raise ValueError(
                    f"cost references component {comp + 1} but package has {x.size}"
                )
            grad[comp] += c * d * x[comp] ** (d - 1)
        return grad

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
                    comp = int(comp) - 1
                    if comp < 0:
                        raise ValueError("config components are 1-based")
                terms.append((comp, degree, coeff))
            return cls(tuple(terms))

    def to_config(self) -> list:
        return [
            [None if comp is None else comp + 1, d, c] for comp, d, c in self.terms
        ]

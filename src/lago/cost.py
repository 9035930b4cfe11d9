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

from .errors import config_errors


@dataclass(frozen=True)
class CostFunction:
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

"""Separable polynomial cost functions."""

import re

import numpy as np
import pytest
import sympy as sp
from numpy.polynomial import polynomial as npoly

from lago.cost import CostFunction

# the two cost functions used throughout the worked scenarios
CUBIC_TWO_COMPONENT = CostFunction((
    (0, 3, 2.0), (0, 2, -1.19), (0, 1, 10.0), (None, 0, 10.0),
    (1, 3, 0.1), (1, 2, -0.2), (1, 1, 2.0),
))
BETTERBIRTH = CostFunction.from_config([
    [1, 1, 380.0], [1, 2, -24.0], [1, 3, 0.6],
    [2, 1, 1700.0], [2, 2, -950.0], [2, 3, 220.0],
])


def test_cubic_cost_fixture_values():
    assert CUBIC_TWO_COMPONENT.evaluate([0.0, 0.0]) == pytest.approx(10.0)
    # 2 - 1.19 + 10 + 10 + 0.1 - 0.2 + 2
    assert CUBIC_TWO_COMPONENT.evaluate([1.0, 1.0]) == pytest.approx(22.71)


def test_betterbirth_cost_at_published_package():
    # 27 visits, 1 launch-phase unit
    assert BETTERBIRTH.evaluate([27.0, 1.0]) == pytest.approx(5543.8)


def test_evaluation_matches_sympy():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        xs = sp.symbols(f"x0:{n}")
        expr = sp.Integer(0)
        terms = []
        for comp in range(n):
            for degree in range(1, 4):
                if rng.random() < 0.6:
                    c = float(rng.normal())
                    terms.append((comp, degree, c))
                    expr += c * xs[comp] ** degree
        const = float(rng.normal())
        terms.append((None, 0, const))
        expr += const
        cost = CostFunction(tuple(terms))
        point = rng.uniform(0.0, 3.0, n)
        subs = dict(zip(xs, point))
        assert cost.evaluate(point) == pytest.approx(float(expr.subs(subs)), rel=1e-10, abs=1e-10)


def test_linear_constructor_and_flags():
    lin = CostFunction.linear([1.0, 4.0])
    assert lin.evaluate([3.2496, 0.0]) == pytest.approx(3.2496)
    assert lin.is_linear
    assert not CUBIC_TWO_COMPONENT.is_linear
    assert lin.constant == 0.0
    assert CUBIC_TWO_COMPONENT.constant == pytest.approx(10.0)


def test_component_coefficients_ascending():
    coeffs = CUBIC_TWO_COMPONENT.component_coefficients(0)
    assert coeffs == pytest.approx([0.0, 10.0, -1.19, 2.0])
    # absent component -> all zeros, padded to the requested minimum length
    assert CUBIC_TWO_COMPONENT.component_coefficients(5).tolist() == [0.0, 0.0]


def test_config_round_trip_is_one_based():
    cfg = BETTERBIRTH.to_config()
    assert cfg[0] == [1, 1, 380.0]
    assert CostFunction.from_config(cfg) == BETTERBIRTH
    cubic_cfg = CUBIC_TWO_COMPONENT.to_config()
    assert [None, 0, 10.0] in cubic_cfg
    assert CostFunction.from_config(cubic_cfg) == CUBIC_TWO_COMPONENT


def test_validation_errors():
    with pytest.raises(ValueError):
        CostFunction(((0, 1),))  # wrong arity
    with pytest.raises(ValueError):
        CostFunction(((0, -1, 2.0),))
    with pytest.raises(ValueError):
        CostFunction(((None, 2, 1.0),))  # constant with a degree
    with pytest.raises(ValueError):
        CostFunction(((-1, 1, 1.0),))
    with pytest.raises(ValueError):
        CostFunction.from_config([[0, 1, 1.0]])  # config components are 1-based
    with pytest.raises(ValueError):
        CUBIC_TWO_COMPONENT.evaluate([1.0])  # package too short


@pytest.mark.parametrize("entry, name", [
    ([1, 1, float("nan")], "x_1^1"),
    ([2, 3, float("inf")], "x_2^3"),
    ([None, 0, float("-inf")], "constant"),
])
def test_non_finite_coefficient_rejected(entry, name):
    with pytest.raises(ValueError, match=re.escape(f"the {name} term must be finite")):
        CostFunction.from_config([[1, 1, 10.0], entry])


@pytest.mark.parametrize("entry, message", [
    ([1, 1.5, 2.0], "cost term (0, 1.5, 2.0): the degree must be an integer >= 0, got 1.5"),
    ([2.9, 2, 1.0], "cost term [2.9, 2, 1.0]: the 1-based component must be an integer >= 1, "
                    "got 2.9"),
    ([1.0, 2, 1.0], "the 1-based component must be an integer >= 1, got 1.0"),
    ([True, 1, 1.0], "the 1-based component must be an integer >= 1, got True"),
    ([0, 1, 1.0], "the 1-based component must be an integer >= 1, got 0"),
    ([1, True, 1.0], "the degree must be an integer >= 0, got True"),
    ([None, 0, "3"], "cost term (None, 0, '3'): the coefficient must be a real number"),
    ([1, 1, True], "the coefficient must be a real number"),
    ([1, 1, None], "the coefficient must be a real number"),
])
def test_a_config_cost_term_that_would_be_truncated_is_refused(entry, message):
    # Each was read by int() or float(): x_1^1.5 was priced as x_1, component
    # 2.9 as component 2 and the string "3" as 3.0.
    with pytest.raises(ValueError, match=re.escape(message)):
        CostFunction.from_config([[1, 1, 10.0], entry])


@pytest.mark.parametrize("term, message", [
    ((0.0, 1, 2.0), "cost term (0.0, 1, 2.0): the component must be an integer >= 0, got 0.0"),
    ((False, 1, 2.0), "the component must be an integer >= 0, got False"),
    ((-1, 1, 2.0), "the component must be an integer >= 0, got -1"),
    ((0, np.float64(2.0), 2.0), "the degree must be an integer >= 0, got np.float64(2.0)"),
    ((0, -1, 2.0), "the degree must be an integer >= 0, got -1"),
    ((0, 1, "2"), "cost term (0, 1, '2'): the coefficient must be a real number"),
    ((0, 1, 2j), "the coefficient must be a real number"),
])
def test_a_cost_term_that_is_not_integer_or_real_is_refused(term, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CostFunction((term,))


def test_numpy_integer_and_real_cost_terms_are_read_exactly():
    cost = CostFunction.from_config([[np.int64(2), np.int32(3), np.float32(0.5)], [None, 0, 4]])
    assert cost.terms == ((1, 3, 0.5), (None, 0, 4.0))
    assert all(type(v) is float for _, _, v in cost.terms)


def test_separability():
    """Changing one component moves the cost by that component's polynomial only."""
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 2, 2)
    y = x.copy()
    y[1] = 1.7
    delta = CUBIC_TWO_COMPONENT.evaluate(y) - CUBIC_TWO_COMPONENT.evaluate(x)
    poly = CUBIC_TWO_COMPONENT.component_coefficients(1)
    direct = np.polyval(poly[::-1], 1.7) - np.polyval(poly[::-1], x[1])
    assert delta == pytest.approx(direct, rel=1e-12)


def test_evaluate_rows_is_evaluate_per_row_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(60):
        P = int(rng.integers(1, 5))
        terms = [(None, 0, float(rng.normal()))] if rng.random() < 0.5 else []
        for _ in range(int(rng.integers(1, 9))):
            terms.append((int(rng.integers(P)), int(rng.integers(0, 5)),
                          float(rng.normal() * rng.choice([0.01, 1.0, 100.0]))))
        cost = CostFunction(tuple(terms))
        X = rng.normal(size=(int(rng.integers(1, 40)), P)) * rng.choice([0.1, 1.0, 30.0])
        X[rng.random(X.shape) < 0.05] = 0.0
        X[rng.random(X.shape) < 0.05] = -0.0
        want = np.array([cost.evaluate(row) for row in X])
        assert np.array(cost.evaluate_rows(X)).tobytes() == want.tobytes()
    square = CostFunction(((0, 2, 1.0), (None, 0, 1.0)))
    with np.errstate(over="ignore"):  # the square overflows to inf
        assert square.evaluate_rows([[2.0], [1e200]]) == [5.0, np.inf]
    with pytest.raises(ValueError, match="references component 2 but package has 1"):
        CUBIC_TWO_COMPONENT.evaluate_rows(np.zeros((3, 1)))


def test_evaluate_is_the_constant_plus_each_component_polynomial_bitwise():
    # One rule: the constant, then numpy's polyval of each component's
    # polynomial at its entry, added in component order.
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(300):
        P = int(rng.integers(1, 5))
        terms = [(None, 0, float(rng.normal()))] if rng.random() < 0.5 else []
        for _ in range(int(rng.integers(1, 9))):
            terms.append((int(rng.integers(P)), int(rng.integers(0, 5)),
                          float(rng.normal() * rng.choice([0.01, 1.0, 100.0]))))
        cost = CostFunction(tuple(terms))
        x = rng.normal(size=P + int(rng.integers(0, 2))) * rng.choice([0.1, 1.0, 30.0])
        x[rng.random(x.size) < 0.15] = 0.0
        x[rng.random(x.size) < 0.15] = -0.0
        want = cost.constant
        for p in range(cost.max_component + 1):
            want += npoly.polyval(x[p], cost.component_coefficients(p))
        assert cost.evaluate(x).hex() == float(want).hex(), (terms, x)
        seen |= {("degree", d) for _, d, _ in terms}
        seen |= {"constant" for comp, _, _ in terms if comp is None}
        seen |= {"skipped" for p in range(x.size) if all(comp != p for comp, _, _ in terms)}
        seen |= {str(v) for v in x if v == 0.0}
    assert seen >= {("degree", d) for d in range(5)} | {"constant", "skipped", "0.0", "-0.0"}

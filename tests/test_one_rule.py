"""One implementation per rule: a goal's orientation, the cheapest pick and
the normal tail.

``power._direction_sign`` is the only code that reads a direction string;
everywhere else the orientation is a multiplication by the sign it returns.
The min-cost tie rule (the cheapest candidate within 1e-9 relative, then the
lexicographically smallest package) is ``optimizer._cheapest`` on Python
floats and ``optimizer._cheapest_rows`` on (candidates, lanes) arrays, and
only those two build its tie window.  Every 1-df power is written once, on
a float or on lanes, so only ``power.norm_cdf`` and ``power.norm_sf`` call
``math.erfc``, and the lane copy of the unconditional power is gone.  A
component polynomial's argmin on an interval (the smallest candidate within
1e-12 relative of the least) is ``cost._argmin_on`` on floats and
``optimizer._min_on_lanes`` on arrays, and only a cost's construction and
``optimizer._padded_polys`` build a ``_ComponentPoly``, so the solver builds
none per step.  The quadratic discriminant of a cubic's stationary points,
b * b - 4.0 * a * c, is written once on floats (``cost._quadratic_points``,
which the eta multiplier's per-component solve reuses) and once on lanes
(``optimizer._cubic_stationary``).  ``ast`` guards keep it that way.
"""

import ast
from pathlib import Path

import pytest

import lago
from lago import optimizer, power

DIRECTIONS = {"increase", "decrease"}


def _strings(node) -> set:
    """The string constants of a comparison operand, one level into a
    tuple, list or set display."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {item.value for item in items
            if isinstance(item, ast.Constant) and isinstance(item.value, str)}


class _DirectionCompares(ast.NodeVisitor):
    """(module, enclosing function) of every comparison with a direction
    string operand."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Compare(self, node):
        if any(_strings(operand) & DIRECTIONS for operand in [node.left, *node.comparators]):
            self.found.append((self.module, self.scope[-1]))
        self.generic_visit(node)


def test_only_direction_sign_compares_a_direction_string():
    found = []
    for path in sorted(Path(lago.__file__).parent.glob("*.py")):
        visitor = _DirectionCompares(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    assert found and set(found) == {("power", "_direction_sign")}, found


class _ErfcUses(ast.NodeVisitor):
    """(module, enclosing function) of every use of ``math.erfc``: the
    attribute, or the name imported from ``math``."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id == "math" and node.attr == "erfc":
            self.found.append((self.module, self.scope[-1]))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "math" and any(alias.name == "erfc" for alias in node.names):
            self.found.append((self.module, "import"))


def test_only_the_normal_tails_call_erfc():
    found = []
    for path in sorted(Path(lago.__file__).parent.glob("*.py")):
        visitor = _ErfcUses(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    assert found and set(found) <= {("power", "norm_cdf"), ("power", "norm_sf")}, found


def test_the_lane_copy_of_the_unconditional_power_is_gone():
    assert not hasattr(power, "_unconditional_power_lanes")


def test_the_direction_checks_of_the_optimizer_are_gone():
    assert not hasattr(optimizer, "_check_direction")
    assert not hasattr(optimizer, "_DIRECTIONS")


def _functions() -> dict:
    tree = ast.parse(Path(optimizer.__file__).read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _called(func) -> set:
    return {node.func.id for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def _builds_a_tie_window(func) -> bool:
    """Whether ``func`` spells the 1e-9 tie window: max(1e-9, ...) on
    floats, _py_max(1e-9, ...) on arrays."""
    return any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("max", "_py_max") and node.args
        and isinstance(node.args[0], ast.Constant) and node.args[0].value == 1e-9
        for node in ast.walk(func)
    )


@pytest.mark.parametrize("name, rule", [
    ("_min_pair", "_cheapest"),
    ("_min_pair_lanes", "_cheapest_rows"),
    ("_pair_lanes", "_cheapest_rows"),
    ("_fixing_lanes", "_cheapest_rows"),
])
def test_the_pair_solvers_pick_by_the_shared_rule(name, rule):
    func = _functions()[name]
    assert rule in _called(func)
    assert not _builds_a_tie_window(func)
    assert "_first_min" not in _called(func)


def test_the_tie_window_is_built_once_per_representation():
    builders = {name for name, func in _functions().items() if _builds_a_tie_window(func)}
    assert builders == {"_cheapest", "_cheapest_rows"}


class _Scoped(ast.NodeVisitor):
    """Records (module, qualified enclosing function) of the nodes
    ``match`` accepts; ``match`` returns a label, or None to skip."""

    def __init__(self, module: str, match):
        self.module, self.match, self.scope, self.found = module, match, [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def generic_visit(self, node):
        label = self.match(node)
        if label is not None:
            self.found.append((self.module, ".".join(self.scope) or "<module>", label))
        super().generic_visit(node)


def _scan(match) -> set:
    found = []
    for path in sorted(Path(lago.__file__).parent.glob("*.py")):
        visitor = _Scoped(path.stem, match)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    return set(found)


def _builds_a_component_poly(node):
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return "build" if name == "_ComponentPoly" else None
    return None


def test_only_a_cost_and_the_padding_build_component_polynomials():
    assert _scan(_builds_a_component_poly) == {
        ("cost", "CostFunction.__post_init__", "build"),
        ("optimizer", "_padded_polys", "build"),
    }


def _relative_window(node):
    """'float' or 'array' for ``1e-12 * (1.0 + abs(v))`` (``np.abs`` on
    arrays), the 1e-12 window relative to one value ``v``; else None."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return None
    scale, spread = node.left, node.right
    if not (isinstance(scale, ast.Constant) and scale.value == 1e-12
            and isinstance(spread, ast.BinOp) and isinstance(spread.op, ast.Add)
            and isinstance(spread.left, ast.Constant) and spread.left.value == 1.0
            and isinstance(spread.right, ast.Call) and len(spread.right.args) == 1):
        return None
    func = spread.right.func
    if isinstance(func, ast.Name) and func.id == "abs":
        return "float"
    if isinstance(func, ast.Attribute) and func.attr == "abs":
        return "array"
    return None


def _argmin_window(node):
    """The representation of a relative window that ``node`` uses, inline
    or stored, except one subtracted: ``_pair_descent``'s improvement
    threshold ``cur - 1e-12 * (1.0 + abs(cur))`` is not a tie window."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        return None
    kinds = {_relative_window(child) for child in ast.iter_child_nodes(node)} - {None}
    return kinds.pop() if kinds else None


def test_the_argmin_tie_window_is_spelled_once_per_representation():
    assert _scan(_argmin_window) == {
        ("cost", "_argmin_on", "float"),
        ("optimizer", "_min_on_lanes", "array"),
    }


def _four_times(node):
    """'4ac' for a product with the constant 4 (``4.0 * a``), the term a
    quadratic discriminant subtracts; else None."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
            isinstance(side, ast.Constant) and type(side.value) in (int, float)
            and side.value == 4 for side in (node.left, node.right)):
        return "4ac"
    return None


def test_the_quadratic_discriminant_is_written_once_per_representation():
    assert _scan(_four_times) == {
        ("cost", "_quadratic_points", "4ac"),
        ("optimizer", "_cubic_stationary", "4ac"),
    }


def test_the_multiplier_solve_reuses_the_float_discriminant():
    assert "_quadratic_points" in _called(_functions()["_multiplier_argmin"])
    assert "_multiplier_argmin" in _called(_functions()["_dual_candidate"])

"""One implementation per rule: a goal's orientation, the cheapest pick and
the normal tail.

``power._direction_sign`` is the only code that reads a direction string;
everywhere else the orientation is a multiplication by the sign it returns.
The min-cost tie rule (the cheapest candidate within 1e-9 relative, then the
lexicographically smallest package) is ``optimizer._cheapest`` on Python
floats and ``optimizer._cheapest_rows`` on (candidates, lanes) arrays; only
``_fixing_lanes`` keeps its own pick over its few near rows.  Every 1-df
power is written once, on a float or on lanes, so only ``power.norm_cdf``
and ``power.norm_sf`` call ``math.erfc``, and the lane copy of the
unconditional power is gone.  ``ast`` guards keep it that way.
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
])
def test_the_pair_solvers_pick_by_the_shared_rule(name, rule):
    func = _functions()[name]
    assert rule in _called(func)
    assert not _builds_a_tie_window(func)
    assert "_first_min" not in _called(func)


def test_the_tie_window_is_built_once_per_representation():
    builders = {name for name, func in _functions().items() if _builds_a_tie_window(func)}
    assert builders == {"_cheapest", "_cheapest_rows", "_fixing_lanes"}

"""Guard: numerics.py is the one module of the package that defines a
finite-difference step, a margin or a tolerance.  It holds constants only
and imports nothing, so every stage can read it."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gentwistor"

POLICY_NAME = re.compile(r"_TOL|_RTOL|_ATOL|_STEP|_MARGIN|THRESHOLD|FLOOR|FACTOR")


def _is_number(node: ast.expr) -> bool:
    """A numeric literal, or arithmetic on numeric literals (-1e-3, 1e-12 + 1e-5)."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.UnaryOp):
        return _is_number(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_number(node.left) and _is_number(node.right)
    return False


def _bindings(tree: ast.Module):
    """(name, value) for each module-level assignment, tuples unpacked pairwise."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            pairs = [(node.target, node.value)]
        else:
            continue
        while pairs:
            target, value = pairs.pop()
            if isinstance(target, ast.Name):
                yield target.id, value
            elif isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs += zip(target.elts, value.elts)


def policy_constants(src: Path = SRC) -> list[str]:
    """module.NAME for each module other than numerics that binds a policy
    name to a number at module level."""
    return [
        f"{path.stem}.{name}"
        for path in sorted(src.glob("*.py")) if path.name != "numerics.py"
        for name, value in _bindings(ast.parse(path.read_text()))
        if POLICY_NAME.search(name) and _is_number(value)
    ]


def test_numerics_is_the_one_place_for_steps_margins_and_tolerances():
    found = policy_constants()
    assert not found, f"define these in numerics.py: {found}"


def test_the_guard_sees_every_form_of_binding(tmp_path):
    (tmp_path / "mod.py").write_text(
        "_SYM_TOL = 1e-5\n"
        "X_MARGIN: float = -0.1\n"
        "A_STEP, _EPS = 1e-3, 0.05\n"
        "B_ATOL = 1e-12 + 0\n"
        "_STEPS = (-2.0, -1.0, 1.0, 2.0)\n"
        "_SCALE = 1.0\n"
        "def f():\n    LOCAL_TOL = 1e-3\n"
    )
    (tmp_path / "numerics.py").write_text("DEFAULT_TOL = 1e-4\n")
    assert sorted(policy_constants(tmp_path)) == ["mod.A_STEP", "mod.B_ATOL", "mod.X_MARGIN", "mod._SYM_TOL"]


def test_numerics_holds_numbers_only():
    tree = ast.parse((SRC / "numerics.py").read_text())
    docstring, *body = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value.value, str)
    assert body and all(isinstance(node, ast.Assign) for node in body)
    assert all(_is_number(value) for _, value in _bindings(tree))

"""Guard: every public top-level name in the package has a reader.

A public function, class or constant of ``src/gentwistor`` must be used
somewhere that is not its own unit test: elsewhere in ``src/`` (outside
its own definition), in ``bench/``, or in ``tests/test_acceptance.py``.
Names kept for another reason sit in ALLOWED with that reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gentwistor"

ALLOWED = {
    "harness.report_from_json": "the JSON report round-trip is a kept feature (ROADMAP item 1)",
    "dsl.to_source": "the printer behind the parser's round-trip tests",
    "calculus.exterior_d": "its symbolic test pins the terms of the Courant formula",
    "calculus.lie_derivative_one_form": "its symbolic test pins the terms of the Courant formula",
}


def _public_definitions(tree: ast.Module):
    """(name, node) for each public top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _references(tree: ast.AST, skip: ast.AST | None = None, strings: bool = False) -> set[str]:
    """Names read in tree: loaded names, attribute names and imported names,
    and with strings=True also string constants (getattr-style hooks).
    The subtree skip is left out."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unreferenced_public_names() -> list[str]:
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    outside = _references(_parse(ROOT / "tests" / "test_acceptance.py"))
    for path in sorted((ROOT / "bench").glob("*.py")):
        outside |= _references(_parse(path), strings=True)
    refs = {stem: _references(tree) for stem, tree in modules.items()}
    missing = []
    for stem, tree in modules.items():
        elsewhere = outside.union(*(r for other, r in refs.items() if other != stem))
        for name, node in _public_definitions(tree):
            if name in elsewhere or name in _references(tree, skip=node):
                continue
            missing.append(f"{stem}.{name}")
    return missing


def test_every_public_name_has_a_reader():
    missing = [name for name in unreferenced_public_names() if name not in ALLOWED]
    assert not missing, f"public names read only by their own unit tests: {missing}"


def test_allowlist_is_current():
    # an entry whose name gains a reader, or is gone, leaves the allowlist
    assert set(ALLOWED) <= set(unreferenced_public_names())

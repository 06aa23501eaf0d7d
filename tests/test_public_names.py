"""Guards: every public name in the package has a reader, and every
import in it is used.

A public function, class or constant of ``src/gentwistor``, and a public
method, property or dataclass field of one of its public classes, must
be used somewhere that is not its own unit test: elsewhere in ``src/``
(outside its own definition), in ``bench/``, or in
``tests/test_acceptance.py``. A member is read through an attribute of
its name; ``self.name`` inside another class reads that class's member,
not this one. A dataclass that ``dataclasses.fields`` iterates in
``src/`` has all its fields read. Names kept for another reason sit in
ALLOWED with that reason; a member is spelled module.Class.member there.

An imported name must be read in the module of ``src/gentwistor`` or
``tests`` that imports it. The one exception is a re-export that the
traced benchmark rebinds: a name in an import statement marked
``# noqa: F401`` in a module of ``src/gentwistor`` is exempt only if
``HOOKS`` in ``bench/run.py`` names that attribute on that module. The
marker exempts no other name of the statement.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gentwistor"

ALLOWED = {
    "harness.report_from_json": "the JSON report round-trip; the `explain` verb of ROADMAP item 2 will read it",
    "riemann.ConnectionData.antisymmetry_defect": "`ConnectionData` exists for the connection path that only bench HOOKS reach; goes with ROADMAP item 14",
    "riemann.ConnectionData.upsilon": "returned by `riemann.christoffel`, which bench HOOKS trace; goes with ROADMAP item 14",
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


def _attribute_reads(tree: ast.AST, skip: ast.AST | None = None) -> set[tuple[str | None, str]]:
    """(class, name) for each attribute loaded in tree: class is the
    enclosing class for a load through self, None for any other load.
    The subtree skip is left out."""
    out: set[tuple[str | None, str]] = set()
    stack: list[tuple[ast.AST, str | None]] = [(tree, None)]
    while stack:
        node, cls = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            via_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            out.add((cls if via_self else None, node.attr))
        stack.extend((child, cls) for child in ast.iter_child_nodes(node))
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in cls.decorator_list
    )


def _fields_iterated(tree: ast.AST) -> set[str]:
    """Classes whose fields tree iterates: fields(Class), or fields(self)
    inside the class."""
    out: set[str] = set()
    stack: list[tuple[ast.AST, str | None]] = [(tree, None)]
    while stack:
        node, cls = stack.pop()
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "fields":
            arg = node.args[0]
            if isinstance(arg, ast.Name):
                out.add(cls if arg.id == "self" else arg.id)
        stack.extend((child, cls) for child in ast.iter_child_nodes(node))
    return out


def _public_members(tree: ast.Module, iterated: set[str]):
    """(Class.member, node) for each public method, property and
    dataclass field of a public top-level class; the fields of a class in
    iterated count as read and are left out."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            fields_read = cls.name in iterated or not _is_dataclass(cls)
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and not fields_read:
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{cls.name}.{name}", node


def unreferenced_public_names() -> list[str]:
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    acceptance = _parse(ROOT / "tests" / "test_acceptance.py")
    benches = [_parse(path) for path in sorted((ROOT / "bench").glob("*.py"))]
    outside = _references(acceptance).union(*(_references(tree, strings=True) for tree in benches))
    # member reads from outside a module: a hook string, or an attribute not read through self
    outside_attrs = {
        n.value for tree in benches for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
    outside_attrs |= {name for tree in [acceptance, *benches] for cls, name in _attribute_reads(tree) if cls is None}
    refs = {stem: _references(tree) for stem, tree in modules.items()}
    attrs = {stem: {name for cls, name in _attribute_reads(tree) if cls is None} for stem, tree in modules.items()}
    iterated = set().union(*(_fields_iterated(tree) for tree in modules.values()))
    missing = []
    for stem, tree in modules.items():
        elsewhere = outside.union(*(r for other, r in refs.items() if other != stem))
        for name, node in _public_definitions(tree):
            if name not in elsewhere and name not in _references(tree, skip=node):
                missing.append(f"{stem}.{name}")
        elsewhere = outside_attrs.union(*(a for other, a in attrs.items() if other != stem))
        for name, node in _public_members(tree, iterated):
            cls, attr = name.split(".")
            reads = _attribute_reads(tree, skip=node)
            if attr not in elsewhere and (None, attr) not in reads and (cls, attr) not in reads:
                missing.append(f"{stem}.{name}")
    return missing


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    # "import a.b" binds a; "from m import x as y" binds y
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def hooked_attributes() -> set[tuple[str, str]]:
    """(module, attribute) for each entry of HOOKS in bench/run.py, read by
    ast.  run.py binds each module of src/gentwistor to its own name, so the
    name in an entry is the module's stem; an alias would exempt nothing."""
    tree = _parse(ROOT / "bench" / "run.py")
    hooks = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets)
    )
    return {(entry.elts[0].id, entry.elts[1].value) for entry in hooks.elts}


def _unused_in(path: Path, hooked: set[str]) -> list[str]:
    """Imported names that path never reads; a name of a statement marked
    noqa: F401 is exempt if it is in hooked."""
    lines = path.read_text().splitlines()
    tree = _parse(path)
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        exempt = hooked if "noqa: F401" in lines[node.lineno - 1] else set()
        unused += [f"{path.name}:{node.lineno} {name}" for name in _bound_names(node)
                   if name not in loaded and name not in exempt]
    return unused


def unused_imports() -> list[str]:
    hooks = hooked_attributes()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        unused += _unused_in(path, {attr for stem, attr in hooks if stem == path.stem})
    for path in sorted((ROOT / "tests").glob("*.py")):
        unused += _unused_in(path, set())
    return unused


def test_every_public_name_has_a_reader():
    missing = [name for name in unreferenced_public_names() if name not in ALLOWED]
    assert not missing, f"public names read only by their own unit tests: {missing}"


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, f"imports with no reader: {unused}"


def test_noqa_exempts_only_hooked_names(tmp_path):
    # the marker on a statement exempts the names HOOKS rebinds, not its others
    path = tmp_path / "module.py"
    path.write_text("from .twistor import (  # noqa: F401\n    constraints_J1,\n    fiber_blocks,\n)\n")
    assert _unused_in(path, {"constraints_J1"}) == ["module.py:1 fiber_blocks"]
    assert _unused_in(path, set()) == ["module.py:1 constraints_J1", "module.py:1 fiber_blocks"]


def test_allowlist_is_current():
    # an entry whose name gains a reader, or is gone, leaves the allowlist
    assert set(ALLOWED) <= set(unreferenced_public_names())

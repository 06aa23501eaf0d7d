"""The benchmark (bench/run.py) reads module attributes of the package by
name: the traced run rebinds the HOOKS entries, and the workloads read
constants and functions such as harness.DEFAULT_TOL directly.  Every one
of them must still exist."""

import ast
import importlib.util
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_run(monkeypatch):
    # run.py imports its sibling spans.py and pins the BLAS thread variables
    monkeypatch.setattr(sys, "path", [str(BENCH)] + sys.path)
    monkeypatch.setattr(os, "environ", dict(os.environ))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
    finally:
        sys.modules.pop("spans", None)
    return run


def module_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, attribute) for each attribute loaded on a name that run.py
    binds to the package or one of its modules at top level."""
    modules = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "gentwistor":
            modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name == "gentwistor")
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name) and node.value.id in modules
    }


def test_every_trace_hook_resolves(monkeypatch):
    run = _load_run(monkeypatch)
    assert run.HOOKS
    for module, attr, *_ in run.HOOKS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_every_direct_read_resolves(monkeypatch):
    run = _load_run(monkeypatch)
    reads = module_reads(ast.parse((BENCH / "run.py").read_text()))
    assert {("harness", "DEFAULT_TOL"), ("harness", "predict"), ("oracle", "DEFAULT_ORACLE_STEP")} <= reads
    missing = [f"{name}.{attr}" for name, attr in sorted(reads) if not hasattr(getattr(run, name), attr)]
    assert not missing, f"bench/run.py reads attributes the package no longer has: {missing}"

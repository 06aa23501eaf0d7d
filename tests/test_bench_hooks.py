"""The traced benchmark run (bench/run.py --trace 1) rebinds module
attributes of the package by name; every one of them must still exist."""

import importlib.util
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_hook_resolves(monkeypatch):
    # run.py imports its sibling spans.py and pins the BLAS thread variables
    monkeypatch.setattr(sys, "path", [str(BENCH)] + sys.path)
    monkeypatch.setattr(os, "environ", dict(os.environ))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
    finally:
        sys.modules.pop("spans", None)
    assert run.HOOKS
    for module, attr, *_ in run.HOOKS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

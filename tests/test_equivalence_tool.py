"""tools/equivalence.py, the same-output check: on a reduced set every
group is non-empty, its file hashes to the printed digest, and the check
reports give the verdicts of bench/reference.json."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("equivalence", ROOT / "tools" / "equivalence.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_groups_on_a_reduced_set(tmp_path):
    eq = _tool()
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    reports = eq.reports(eq.sweep_metrics(("flat", "s4"), ("s4",)), seeds=(0,))
    assert len(reports) == 3 * len(eq.CELLS) == 30
    for case, text in reports:
        label, _, cell = case.split()
        assert json.loads(text)["verdict"] == reference[label.removeprefix("dsl:")][cell], case
    groups = {
        "reports": reports,
        "oracle": eq.oracle(("s4",), seeds=(0,)),
        "nijenhuis": eq.nijenhuis(eq.sweep_metrics(("s4",), ()), points=2, pairs=eq.PAIRS[:2]),
        "predict": eq.predictions(("s4", "eguchi-hanson"), seeds=(0,)),
        "fibers": eq.fibers(8),
        "curvature": eq.curvature(("s4", "schwarzschild"), points=eq.CURVATURE_POINTS[:2]),
        "kernel": eq.kernel(eq.sweep_metrics(("schwarzschild",), ("s4",)), seeds=(0,), points=2, fibers=3),
    }
    assert all(text.endswith("exit=0") for _, text in groups["oracle"] + groups["curvature"])
    assert len(groups["curvature"]) == 4 and '"metric": "schwarzschild"' in groups["curvature"][-1][1]
    # 2 metrics x 4 components x 3 kinds, each 2 points x 3 fibers x the kind's families
    assert len(groups["kernel"]) == 24
    assert [len(text.split()) for _, text in groups["kernel"][:3]] == [36, 12, 6]
    for group, cases in groups.items():
        assert cases and all(case and text for case, text in cases), group
        digest = eq.write_group(tmp_path, group, cases)
        assert hashlib.sha256((tmp_path / f"{group}.txt").read_bytes()).hexdigest() == digest
        assert len((tmp_path / f"{group}.txt").read_text().splitlines()) == len(cases)


def test_main_needs_an_output_directory(capsys):
    with pytest.raises(SystemExit) as stop:
        _tool().main([])
    assert stop.value.code == 2 and "--out" in capsys.readouterr().err

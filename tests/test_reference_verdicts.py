"""A verdict flip fails tier-1: check() at seed 0 on the 60 catalog cells
gives the verdicts recorded in bench/reference.json, and each DSL
transcription in bench/dsl gives its built-in's row.  Reads bench/ only."""

import json
from pathlib import Path

import pytest

from gentwistor.dsl import load_metric_file
from gentwistor.gca import ComponentTag
from gentwistor.harness import check
from gentwistor.metrics import CATALOG
from gentwistor.twistor import StructureKind

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _verdicts(metric, row: dict) -> dict:
    """Seed-0 verdicts on the cells of row, keyed as row is ("++:J")."""
    out = {}
    for key in row:
        tag, kind = key.split(":")
        out[key] = check(metric, ComponentTag(tag), StructureKind(kind), seed=0).verdict
    return out


def test_reference_covers_every_catalog_cell():
    assert sorted(REFERENCE) == sorted(CATALOG)
    assert sum(len(row) for row in REFERENCE.values()) == 60


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_verdicts_match_reference(name):
    assert _verdicts(CATALOG[name], REFERENCE[name]) == REFERENCE[name]


@pytest.mark.parametrize("path", sorted((BENCH / "dsl").glob("*.cfg")), ids=lambda path: path.stem)
def test_dsl_transcription_verdicts_match_builtin(path):
    assert _verdicts(load_metric_file(str(path)), REFERENCE[path.stem]) == REFERENCE[path.stem]

#!/usr/bin/env python3
"""Same-output check: one SHA-256 per group of the package's outputs.

Run it once per source tree, with that tree's src/ first on the path, and
compare the printed hashes; equal hashes mean byte-identical outputs:

    PYTHONPATH=src python3 tools/equivalence.py --out DIR

Each group is written to DIR/<group>.txt, one case per line, and its
SHA-256 is printed as "<hash>  <group>"; on two trees' directories,
diff -r names the lines that moved.  The groups:

    reports  report_json of check on the 6 catalog metrics and the 3 DSL
             transcriptions in bench/dsl, the 10 cells each, seeds 0 and 5
    oracle   the oracle verb's stdout, stderr and exit code on the 6
             catalog metrics, seeds 0-5, structures J and J1
    nijenhuis  nijenhuis_numeric's value and noise, bit for bit (float.hex),
             on the 9 metrics of reports, 6 points each, J and J1, and 5
             selector pairs
    predict  classify_metric's flags and predict(flags).cells on the 6
             catalog metrics, seeds 0-5
    fibers   200 random_fiber draws, cycling through the components
    curvature  the curvature --json verb's stdout, stderr and exit code on
             the 6 catalog metrics, at 3 fixed points of each box
    kernel   every fiber_residuals norm, bit for bit (float.hex), on the 9
             metrics of reports, seeds 0 and 1, 5 base points and 9 fibers
             drawn as check draws them, each component and structure kind

Only the public API is used, so the script runs against any tree that
has it.  The full run takes a few seconds on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from gentwistor import cli
from gentwistor.dsl import load_metric_file
from gentwistor.gca import ComponentTag
from gentwistor.harness import check, classify_metric, predict, report_json
from gentwistor.metrics import CATALOG
from gentwistor.numerics import SAMPLE_MARGIN
from gentwistor.oracle import nijenhuis_numeric, oracle_margin
from gentwistor.riemann import generalized_curvature
from gentwistor.twistor import (
    FiberPoint,
    StructureKind,
    TwistorPoint,
    fiber_blocks,
    fiber_residuals,
    random_fiber,
    random_fibers,
)

DSL_DIR = Path(__file__).resolve().parents[1] / "bench" / "dsl"
DSL_METRICS = ("s4", "schwarzschild", "eguchi-hanson")
CELLS = tuple(
    [(tag, StructureKind.GENJ) for tag in ComponentTag]
    + [(tag, StructureKind.ALMOST_J1) for tag in ComponentTag]
    + [(tag, StructureKind.SEMI) for tag in ComponentTag if tag.mixed]
)
# five selector pairs over the oracle's four test-field families
PAIRS = ((("h+", 0), ("h+", 1)), (("h-", 2), ("v", 4)), (("h+", 1), ("h-", 3)), (("v", 1), ("v*", 5)), (("h-", 0), ("v*", 2)))
# the curvature group's points, as fractions of each box's width from lo
CURVATURE_POINTS = ((0.5, 0.5, 0.5, 0.5), (0.3, 0.6, 0.45, 0.7), (0.62, 0.38, 0.55, 0.41))


def sweep_metrics(catalog=tuple(CATALOG), dsl=DSL_METRICS):
    """(label, metric) pairs: the named catalog metrics, then the named DSL
    transcriptions, labelled "dsl:<name>"."""
    return [(name, CATALOG[name]) for name in catalog] + [
        (f"dsl:{name}", load_metric_file(str(DSL_DIR / f"{name}.cfg"))) for name in dsl
    ]


def reports(metrics, seeds=(0, 5)):
    """(case, report_json line) for each metric, seed and cell."""
    return [
        (f"{label} seed={seed} {tag.value}:{kind.value}", report_json(check(metric, tag, kind, seed=seed)).rstrip("\n"))
        for label, metric in metrics
        for seed in seeds
        for tag, kind in CELLS
    ]


def _verb(argv) -> str:
    """A verb's stdout, stderr and exit code in one line; the streams are
    repr'd to keep one case a line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{out.getvalue()!r} {err.getvalue()!r} exit={code}"


def oracle(names=tuple(CATALOG), seeds=range(6)):
    """(case, the oracle verb's output) per metric, seed and structure."""
    return [
        (f"{name} seed={seed} {structure}",
         _verb(["oracle", "--metric", name, "--seed", str(seed), "--structure", structure]))
        for name in names
        for seed in seeds
        for structure in ("J", "J1")
    ]


def curvature(names=tuple(CATALOG), points=CURVATURE_POINTS):
    """(case, the curvature --json verb's output) per metric and point."""
    cases = []
    for name in names:
        metric = CATALOG[name]
        for fractions in points:
            point = ",".join(repr(metric.lo + f * (metric.hi - metric.lo)) for f in fractions)
            cases.append((f"{name} point={point}", _verb(["curvature", "--metric", name, f"--point={point}", "--json"])))
    return cases


def nijenhuis(metrics, points=6, pairs=PAIRS):
    """(case, value and noise as float.hex) per metric, point, structure and
    selector pair; the points keep the oracle's margin from the box edge."""
    cases, tags = [], tuple(ComponentTag)
    for label, metric in metrics:
        rng = np.random.default_rng(7)
        base = metric.interior_points(points, rng, max(SAMPLE_MARGIN, oracle_margin(metric) / (metric.hi - metric.lo)))
        for k, (p, ab) in enumerate(zip(base, random_fibers(points, rng))):
            tp = TwistorPoint(p, FiberPoint(*ab, tags[k % len(tags)]))
            for kind in (StructureKind.GENJ, StructureKind.ALMOST_J1):
                for sel in pairs:
                    r = nijenhuis_numeric(metric, tp, sel, kind)
                    text = " ".join(float(x).hex() for x in (*r.value, r.noise))
                    cases.append((f"{label} point={k} {kind.value} {sel}", text))
    return cases


def kernel(metrics, seeds=(0, 1), points=5, fibers=9):
    """(case, the norms as float.hex) per metric, seed, component and kind;
    the kernel runs semi on every component, as it owns no tag check."""
    cases = []
    for label, metric in metrics:
        for seed in seeds:
            geometry = generalized_curvature(metric, metric.interior_points(points, np.random.default_rng([seed, 0])))
            ab = random_fibers(fibers, np.random.default_rng([seed, 1]))
            for tag in ComponentTag:
                for kind in StructureKind:
                    norms = fiber_residuals(geometry, fiber_blocks(tag, ab), kind).norms
                    cases.append((f"{label} seed={seed} {tag.value}:{kind.value}", " ".join(map(float.hex, norms.ravel().tolist()))))
    return cases


def predictions(names=tuple(CATALOG), seeds=range(6)):
    """(case, flags and predicted cells) per metric and seed."""
    cases = []
    for name in names:
        for seed in seeds:
            flags = classify_metric(CATALOG[name], seed=seed)
            cells = {f"{tag.value}:{kind.value}": v for (tag, kind), v in predict(flags).cells.items()}
            cases.append((f"{name} seed={seed}", f"{asdict(flags)!r} {cells!r}"))
    return cases


def fibers(n=200):
    """(case, fiber vectors a and b) for n draws from one seeded generator."""
    rng = np.random.default_rng(0)
    tags = tuple(ComponentTag)
    cases = []
    for k in range(n):
        f = random_fiber(tags[k % len(tags)], rng)
        cases.append((f"{k} {f.tag.value}", f"{f.a.tolist()!r} {f.b.tolist()!r}"))
    return cases


def write_group(out_dir: Path, group: str, cases) -> str:
    """Write the cases to out_dir/<group>.txt; return the file's SHA-256."""
    data = "".join(f"{case}\t{text}\n" for case, text in cases).encode()
    (out_dir / f"{group}.txt").write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write the output groups and print one SHA-256 each.")
    parser.add_argument("--out", type=Path, required=True, metavar="DIR", help="directory for the group files")
    out_dir = parser.parse_args(argv).out
    out_dir.mkdir(parents=True, exist_ok=True)
    groups = {
        "reports": lambda: reports(sweep_metrics()),
        "oracle": oracle,
        "nijenhuis": lambda: nijenhuis(sweep_metrics()),
        "predict": predictions,
        "fibers": fibers,
        "curvature": curvature,
        "kernel": lambda: kernel(sweep_metrics()),
    }
    for group, build in groups.items():
        print(f"{write_group(out_dir, group, build())}  {group}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

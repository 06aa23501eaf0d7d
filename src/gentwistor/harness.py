"""Sampled verification harness: classify, predict, measure, compare.

The pipeline has three stages.  classify_metric samples the curvature
decomposition over interior points and reduces it to five boolean flags
(self-dual / anti-self-dual Weyl vanishing, Einstein, scalar-flat,
flat).  predict turns the flags into an expected verdict for every
component of the twistor space and every structure kind.  check measures
the actual constraint residuals on a sample grid and reports whether
measurement and prediction agree.

The prediction rule is the table _RULES: a cell (component, structure)
is predicted integrable exactly when every flag that its row names
holds.  J1 and J are defined on all four components, semi on the mixed
ones only.

The mixed-component rule for the generalized structure deserves a note:
the scalar curvature drops out of all four residual families there (the
commutator that would carry it cancels identically), so the obstruction
is conformal flatness plus the Einstein condition, not flatness.  The
constant curvature catalog entry is the witness: its mixed components
come out integrable both here and under the independent finite
difference referee in the oracle module, with scalar curvature 12.

Determinism: all sampling is driven by two stable streams derived from
the seed, [seed, 0] for base points and [seed, 1] for fibers, so reports
for a fixed seed are reproducible and sample sets grow by prefixes as
the sample counts increase.  The JSON report is json.dumps of the fields
in declaration order, so floats are written by repr, which round-trips
exactly; the wall time is kept out of it on purpose and reported as null.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import UsageError, _check_int, _check_real
from .gca import ComponentTag
from .metrics import MetricSpec
from .numerics import DEFAULT_FLAG_THRESHOLD, DEFAULT_TOL, OBSTRUCTION_FLOOR
# curvature_operator, constraints_genJ, constraints_J1 and
# semi_integrability_residual are not called here; they stay importable from
# harness because bench/run.py's traced run rebinds them on this module.
from .riemann import curvature_operator, decompose, generalized_curvature  # noqa: F401
from .twistor import (  # noqa: F401
    StructureKind,
    constraints_J1,
    constraints_genJ,
    fiber_blocks,
    fiber_residuals,
    random_fibers,
    semi_integrability_residual,
)

VERDICT_INTEGRABLE = "integrable"
VERDICT_OBSTRUCTED = "obstructed"
VERDICT_INCONCLUSIVE = "inconclusive"

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class CurvatureFlags:
    """Boolean curvature profile with the measured sup-norms behind it.

    einstein means the mixed (trace-free Ricci) block vanishes; flat is
    the conjunction of all four vanishing conditions."""

    wplus_zero: bool
    wminus_zero: bool
    einstein: bool
    scalar_zero: bool
    flat: bool
    wplus_norm: float
    wminus_norm: float
    b_norm: float
    scalar_norm: float
    threshold: float


def _sampled(metric: MetricSpec, n: int, seed: int):
    """n base points from the stream [seed, 0], one geometry over all of
    them, and the curvature flags from the sup over its operators."""
    points = metric.interior_points(n, np.random.default_rng([seed, 0]))
    geometry = generalized_curvature(metric, points)
    blocks = decompose(geometry.operator)
    # np.linalg.norm of a block is the sqrt of vecdot's dot product of its
    # flattened entries, and the sqrt of the largest is the largest norm
    flat = [x.reshape(-1, 9) for x in (blocks.wplus, blocks.wminus, blocks.b)]
    wp, wm, bn = (float(np.sqrt(np.vecdot(x, x).max())) for x in flat)
    sn = float(np.abs(blocks.scalar).max())
    threshold = DEFAULT_FLAG_THRESHOLD
    zeros = (wp < threshold, wm < threshold, bn < threshold, sn < threshold)
    return points, geometry, CurvatureFlags(
        wplus_zero=zeros[0],
        wminus_zero=zeros[1],
        einstein=zeros[2],
        scalar_zero=zeros[3],
        flat=all(zeros),
        wplus_norm=wp,
        wminus_norm=wm,
        b_norm=bn,
        scalar_norm=sn,
        threshold=threshold,
    )


def classify_metric(metric: MetricSpec, n_points: int = 8, seed: int = 0) -> CurvatureFlags:
    """Curvature flags from the sup over n_points interior samples."""
    n_points = _check_int("n_points", n_points, 1)
    seed = _check_int("seed", seed, 0, _UINT64_MAX)
    return _sampled(metric, n_points, seed)[2]


# the flags whose conjunction predicts a cell integrable, in table order
_RULES: dict[tuple[ComponentTag, StructureKind], tuple[str, ...]] = {
    (ComponentTag.PP, StructureKind.GENJ): ("wplus_zero", "einstein", "scalar_zero"),
    (ComponentTag.PP, StructureKind.ALMOST_J1): ("wplus_zero", "scalar_zero"),
    (ComponentTag.MM, StructureKind.GENJ): ("wminus_zero", "einstein", "scalar_zero"),
    (ComponentTag.MM, StructureKind.ALMOST_J1): ("wminus_zero", "scalar_zero"),
    (ComponentTag.PM, StructureKind.GENJ): ("wplus_zero", "wminus_zero", "einstein"),
    (ComponentTag.PM, StructureKind.ALMOST_J1): ("wplus_zero", "einstein"),
    (ComponentTag.PM, StructureKind.SEMI): ("einstein",),
    (ComponentTag.MP, StructureKind.GENJ): ("wplus_zero", "wminus_zero", "einstein"),
    (ComponentTag.MP, StructureKind.ALMOST_J1): ("wminus_zero", "einstein"),
    (ComponentTag.MP, StructureKind.SEMI): ("einstein",),
}


def _cell(component, kind) -> tuple[ComponentTag, StructureKind]:
    """(component, kind) as a key of _RULES; a UsageError names a bad argument or cell."""
    if not isinstance(component, ComponentTag):
        raise UsageError(f"component must be a ComponentTag, got {component!r}")
    if not isinstance(kind, StructureKind):
        raise UsageError(f"kind must be a StructureKind, got {kind!r}")
    if (component, kind) not in _RULES:
        raise UsageError(f"no cell ({component.value}, {kind.value}): "
                         "semi-integrability is defined on the mixed components only")
    return component, kind


@dataclass(frozen=True)
class PredictionTable:
    """Expected integrability verdict per (component, structure) cell."""

    cells: dict[tuple[ComponentTag, StructureKind], bool]

    def expected(self, tag: ComponentTag, kind: StructureKind) -> bool:
        return self.cells[_cell(tag, kind)]


def predict(flags: CurvatureFlags) -> PredictionTable:
    """Expected verdicts from the curvature flags, by the rules of _RULES."""
    return PredictionTable({cell: all(getattr(flags, c) for c in rule) for cell, rule in _RULES.items()})


@dataclass(frozen=True)
class RunReport:
    """One measurement run; field order here is the JSON key order."""

    metric: str
    structure: str
    component: str
    seed: int
    base_samples: int
    fiber_samples: int
    tolerance: float
    max_residual: float
    worst_point: tuple[float, ...]
    worst_fiber: tuple[float, ...]
    worst_constraint: str
    flags: CurvatureFlags
    prediction: bool
    verdict: str
    agreement: bool
    wall_time_s: float | None = field(compare=False, default=None)


def check(
    metric: MetricSpec,
    component: ComponentTag,
    kind: StructureKind,
    base_samples: int = 4,
    fiber_samples: int = 8,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> RunReport:
    """Max constraint residual over a sample grid, with verdict.

    The flags (and hence the prediction) are computed over the same base
    points the residuals are measured at."""
    base_samples = _check_int("base_samples", base_samples, 1)
    fiber_samples = _check_int("fiber_samples", fiber_samples, 1)
    tol = _check_real("tolerance", tol)
    seed = _check_int("seed", seed, 0, _UINT64_MAX)
    _cell(component, kind)

    t0 = time.perf_counter()
    # one geometry over all points: the flags read its operators, the
    # residual kernel its frame curvature
    points, geometry, flags = _sampled(metric, base_samples, seed)
    predicted = predict(flags).expected(component, kind)
    fibers = random_fibers(fiber_samples, np.random.default_rng([seed, 1]))

    # one kernel call; the first strict maximum in (point, fiber, family)
    # order names the worst point, fiber and constraint
    result = fiber_residuals(geometry, fiber_blocks(component, fibers), kind)
    norms = result.norms  # (point, fiber, family)
    ip, jf, kf = np.unravel_index(np.argmax(norms), norms.shape)
    max_residual = float(norms[ip, jf, kf])

    if max_residual < tol:
        verdict = VERDICT_INTEGRABLE
    elif max_residual > OBSTRUCTION_FLOOR:
        verdict = VERDICT_OBSTRUCTED
    else:
        verdict = VERDICT_INCONCLUSIVE

    return RunReport(
        metric=metric.name,
        structure=kind.value,
        component=component.value,
        seed=seed,
        base_samples=base_samples,
        fiber_samples=fiber_samples,
        tolerance=tol,
        max_residual=max_residual,
        worst_point=tuple(points[ip].tolist()),
        worst_fiber=tuple(fibers[jf].ravel().tolist()),
        worst_constraint=result.labels[kf],
        flags=flags,
        prediction=predicted,
        verdict=verdict,
        agreement=(max_residual < tol) == predicted,
        wall_time_s=time.perf_counter() - t0,
    )


# -- deterministic JSON ------------------------------------------------


def report_json(report: RunReport) -> str:
    """Single JSON object, keys in declaration order, floats by repr,
    wall time nulled for byte-stable output."""
    payload = {f.name: getattr(report, f.name) for f in fields(RunReport)}
    payload["flags"] = asdict(report.flags)
    payload["wall_time_s"] = None
    return json.dumps(payload) + "\n"


def report_from_json(text: str) -> RunReport:
    """Inverse of report_json up to the nulled wall time."""
    raw = json.loads(text)
    raw["flags"] = CurvatureFlags(**raw["flags"])
    raw["worst_point"] = tuple(raw["worst_point"])
    raw["worst_fiber"] = tuple(raw["worst_fiber"])
    return RunReport(**raw)

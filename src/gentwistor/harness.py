"""Sampled verification harness: classify, predict, measure, compare.

The pipeline has three stages.  classify_metric samples the curvature
decomposition over interior points and reduces it to five boolean flags
(self-dual / anti-self-dual Weyl vanishing, Einstein, scalar-flat,
flat).  predict turns the flags into an expected verdict for every
component of the twistor space and every structure kind.  check measures
the actual constraint residuals on a sample grid and reports whether
measurement and prediction agree.

Prediction rules, one line per cell (component, structure):

    J  on ++ : wplus_zero  and einstein and scalar_zero
    J  on -- : wminus_zero and einstein and scalar_zero
    J  on +- or -+ : wplus_zero and wminus_zero and einstein
    J1 on ++ : wplus_zero  and scalar_zero
    J1 on -- : wminus_zero and scalar_zero
    J1 on +- : wplus_zero  and einstein
    J1 on -+ : wminus_zero and einstein
    semi on mixed : einstein

The mixed-component rule for the generalized structure deserves a note:
the scalar curvature drops out of all four residual families there (the
commutator that would carry it cancels identically), so the obstruction
is conformal flatness plus the Einstein condition, not flatness.  The
constant curvature catalog entry is the witness: its mixed components
come out integrable both here and under the independent finite
difference referee in the oracle module, with scalar curvature 12.

Determinism: all sampling is driven by two stable streams derived from
the seed, one for base points and one for fibers, so reports for a fixed
seed are reproducible and sample sets grow by prefixes as the sample
counts increase.  The JSON serializer is deterministic (fixed key order,
17 significant digit floats); the wall time is kept out of it on purpose
and reported as null.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import UsageError
from .gca import ComponentTag
from .metrics import MetricSpec
# curvature_operator, constraints_genJ, constraints_J1 and
# semi_integrability_residual are not called here; they stay importable from
# harness because bench/run.py's traced run rebinds them on this module.
from .riemann import CurvatureOperator, curvature_operator, decompose, generalized_curvature  # noqa: F401
from .twistor import (  # noqa: F401
    StructureKind,
    constraints_J1,
    constraints_genJ,
    fiber_blocks,
    fiber_residuals,
    semi_integrability_residual,
)

#: Curvature sup-norm under which a flag counts as "zero".
DEFAULT_FLAG_THRESHOLD = 1e-4

#: Residual bound for an "integrable" verdict.
DEFAULT_TOL = 1e-4

#: Residuals above this are called "obstructed"; the band between the
#: two bounds is reported as "inconclusive", never silently classified.
OBSTRUCTION_FLOOR = 1e-3

VERDICT_INTEGRABLE = "integrable"
VERDICT_OBSTRUCTED = "obstructed"
VERDICT_INCONCLUSIVE = "inconclusive"

_UINT64_MAX = 2**64 - 1


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise UsageError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) <= _UINT64_MAX:
        raise UsageError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return int(seed)


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

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _flags_over(matrices: np.ndarray) -> CurvatureFlags:
    """Flags from the sup over a stack of operator matrices (n, 6, 6)."""
    blocks = decompose(CurvatureOperator(matrices))
    # np.linalg.norm of a block is the sqrt of vecdot's dot product of its
    # flattened entries, and the sqrt of the largest is the largest norm
    flat = [x.reshape(-1, 9) for x in (blocks.wplus, blocks.wminus, blocks.b)]
    wp, wm, bn = (float(np.sqrt(np.vecdot(x, x).max())) for x in flat)
    sn = float(np.abs(blocks.scalar).max())
    threshold = DEFAULT_FLAG_THRESHOLD
    zeros = (wp < threshold, wm < threshold, bn < threshold, sn < threshold)
    return CurvatureFlags(
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
    if n_points < 1:
        raise UsageError(f"n_points must be at least 1, got {n_points}")
    seed = _check_seed(seed)
    rng = np.random.default_rng([seed, 0])
    points = metric.interior_points(n_points, rng)
    return _flags_over(generalized_curvature(metric, points).operator.matrix)


@dataclass(frozen=True)
class PredictionTable:
    """Expected integrability verdict per (component, structure) cell."""

    cells: dict[tuple[ComponentTag, StructureKind], bool]

    def expected(self, tag: ComponentTag, kind: StructureKind) -> bool:
        try:
            return self.cells[(tag, kind)]
        except KeyError:
            raise UsageError(f"no prediction for component {tag.value} and kind {kind.value}") from None


def predict(flags: CurvatureFlags) -> PredictionTable:
    """Expected verdicts from the curvature flags; see the module docstring
    for the cell-by-cell rules."""
    genj = {
        ComponentTag.PP: flags.wplus_zero and flags.einstein and flags.scalar_zero,
        ComponentTag.MM: flags.wminus_zero and flags.einstein and flags.scalar_zero,
        ComponentTag.PM: flags.wplus_zero and flags.wminus_zero and flags.einstein,
        ComponentTag.MP: flags.wplus_zero and flags.wminus_zero and flags.einstein,
    }
    j1 = {
        ComponentTag.PP: flags.wplus_zero and flags.scalar_zero,
        ComponentTag.MM: flags.wminus_zero and flags.scalar_zero,
        ComponentTag.PM: flags.wplus_zero and flags.einstein,
        ComponentTag.MP: flags.wminus_zero and flags.einstein,
    }
    cells: dict[tuple[ComponentTag, StructureKind], bool] = {}
    for tag in ComponentTag:
        cells[(tag, StructureKind.GENJ)] = genj[tag]
        cells[(tag, StructureKind.ALMOST_J1)] = j1[tag]
        if tag.mixed:
            cells[(tag, StructureKind.SEMI)] = flags.einstein
    return PredictionTable(cells)


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
    if base_samples < 1 or fiber_samples < 1:
        raise UsageError("sample counts must be at least 1")
    if not (np.isfinite(tol) and tol > 0.0):
        raise UsageError(f"tolerance must be positive and finite, got {tol}")
    seed = _check_seed(seed)
    if kind is StructureKind.SEMI and not component.mixed:
        raise UsageError("semi-integrability is defined on the mixed components only")

    t0 = time.perf_counter()
    points = metric.interior_points(base_samples, np.random.default_rng([seed, 0]))
    # fiber_samples random_fiber draws, bit for bit: vecdot is np.linalg.norm's dot
    fibers = np.random.default_rng([seed, 1]).normal(size=(fiber_samples, 2, 3))
    fibers /= np.sqrt(np.vecdot(fibers, fibers))[..., None]

    # one geometry over all points: the flags read its operators, the
    # residual kernel its frame curvature
    geometry = generalized_curvature(metric, points)
    flags = _flags_over(geometry.operator.matrix)
    predicted = predict(flags).expected(component, kind)

    # one kernel call; the first strict maximum in (point, fiber, family)
    # order names the worst point, fiber and constraint
    result = fiber_residuals(geometry, fiber_blocks(component, fibers), kind)
    norms = result.norms  # (point, fiber, family)
    ip, jf, kf = np.unravel_index(np.argmax(norms), norms.shape)
    max_residual = float(norms[ip, jf, kf])
    worst_point, worst_fiber, worst_label = points[ip], fibers[jf], result.labels[kf]

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
        tolerance=float(tol),
        max_residual=float(max_residual),
        worst_point=tuple(float(x) for x in worst_point),
        worst_fiber=tuple(float(x) for x in worst_fiber.ravel()),
        worst_constraint=worst_label,
        flags=flags,
        prediction=predicted,
        verdict=verdict,
        agreement=(max_residual < tol) == predicted,
        wall_time_s=time.perf_counter() - t0,
    )


# -- deterministic JSON ------------------------------------------------


def _dump(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}: {_dump(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_dump(v) for v in value) + "]"
    raise UsageError(f"cannot serialize {type(value).__name__}")


def report_json(report: RunReport) -> str:
    """Single JSON object, keys in declaration order, floats with 17
    significant digits, wall time nulled for byte-stable output."""
    payload = {}
    for f in fields(RunReport):
        value = getattr(report, f.name)
        if f.name == "wall_time_s":
            value = None
        elif f.name == "flags":
            value = value.as_dict()
        payload[f.name] = value
    return _dump(payload) + "\n"


def report_from_json(text: str) -> RunReport:
    """Inverse of report_json up to the nulled wall time."""
    raw = json.loads(text)
    raw["flags"] = CurvatureFlags(**raw["flags"])
    raw["worst_point"] = tuple(raw["worst_point"])
    raw["worst_fiber"] = tuple(raw["worst_fiber"])
    return RunReport(**raw)

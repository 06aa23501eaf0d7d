"""Finite difference Nijenhuis referee on a twistor total-space chart.

Independent cross-check for the curvature commutator residuals of
``twistor``: realize the candidate structure as a pointwise matrix field
over an eight dimensional chart of the twistor space (four base
coordinates plus two stereographic coordinates per fiber sphere) and
evaluate the generalized Nijenhuis tensor on explicit test fields with
centered finite differences.  Nothing here reuses the closed-form path:
neither twistor's constraint reduction nor riemann's frames and
connections, which the chart computes from metric values itself.  Only
predicted_horizontal_value, the closed form the oracle is compared with,
reads them.  So agreement between the two paths is meaningful evidence.

Chart conventions:

* fiber sphere coordinates: w = (a1, a2) / (1 + pole * a3) with
  pole in {+1, -1}; the chart is singular at a3 = -pole, and embedding
  raises when 1 + pole * a3 falls under a safety margin.  The chart maps
  take one pole, or an array of poles that broadcasts against the leading
  axes of their points (one per sphere, say).
* adapted frame on the chart: horizontal lifts of the orthonormal base
  frame move the fiber with velocity [u, Upsilon_i] (the frame
  connection), vertical directions are fiber rotations; stacking the
  lift matrix over the coordinate frame gives a block triangular 8x8
  frame whose inverse transpose carries the dual covectors.
* a chart serves one structure kind.  Its matrix is assembled in the
  adapted frame, where the horizontal part is S diag(u1, v) S / 2, the
  tangent/cotangent form of the PM matrix diag(u1, v) with v = u2 for
  the generalized structure J and v = u1 for the almost complex J1, and
  the vertical part is the fiber rotation j(x) = sigma (a x x) on each
  sphere; it is then conjugated into chart components.

Test fields come in four families, named by selector tuples:

    ("h+", i), ("h-", i)   horizontal lift of theta_i plus/minus its
                           dual covector lift, i in 0..3
    ("v", k)               fiber rotation generated by the constant
                           bivector basis element k in 0..5
    ("v*", k)              the covector field with the same fiber
                           components and zero tangent part

``nijenhuis_numeric`` picks its own chart, step and reach: the poles away
from the fiber point (``TwistorChart.for_point``), DEFAULT_ORACLE_STEP h,
and ``oracle_margin``, read off the stencil tables.  It checks every
argument, then one ``TwistorChart.chart_data`` pass computes the data at
the 66 rows of its stencils at h and h/2, and one
``calculus.nijenhuis_values`` call evaluates the tensor on both; the
half-step value is reported, and the two values' difference as its noise
(a two-step Richardson estimate).  Nothing is shared between evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bivector import SIX_BASIS, TRIPLES, sd_asd_coords
# nijenhuis_field is not called here; it stays importable from oracle
# because bench/run.py's traced run rebinds it on this module.
from .calculus import _d, nijenhuis_field, nijenhuis_values, stencil  # noqa: F401
from .errors import DomainError, InvalidInputError, UsageError, _is_int
from .gca import ComponentTag
from .metrics import MetricSpec
from .numerics import DEFAULT_ORACLE_STEP, METRIC_SYMMETRY_ATOL, METRIC_SYMMETRY_RTOL, ORACLE_REACH_ULPS, POLE_MARGIN
# christoffel and orthonormal_frame are not called here either; bench/run.py's
# traced run rebinds them on this module.  generalized_curvature serves only
# predicted_horizontal_value, the closed form the oracle is compared with.
from .riemann import christoffel, generalized_curvature, orthonormal_frame  # noqa: F401
from .twistor import StructureKind, TwistorPoint, _constraint_block, fiber_to_structures

# Orientation of the fiber rotation in the vertical block, j(x) = s (a x x)
# with s = _VERTICAL_ORIENTATION * handedness.  Pinned by the flat-metric
# runs: the opposite choice reproduces the companion structure that is not
# integrable for any metric, and fails them by a wide margin.
_VERTICAL_ORIENTATION = 1.0

_HORIZONTAL_KINDS = ("h+", "h-")
_VERTICAL_KINDS = ("v", "v*")


def _sign0(x: float) -> int:
    return 1 if x >= 0.0 else -1


def _one_plus_sq(w: np.ndarray) -> np.ndarray:
    """1 + |w|^2 over the leading axes of w (..., 2); a matmul, which rounds
    like the dot product w @ w of one point."""
    return 1.0 + (w[..., None, :] @ w[..., :, None])[..., 0, 0]


def stereo_to_sphere(w: np.ndarray, pole: int) -> np.ndarray:
    """Inverse chart map, w (..., 2) -> exact unit vectors (..., 3) for any w."""
    w = np.asarray(w, dtype=float)
    d = _one_plus_sq(w)
    return np.stack([2.0 * w[..., 0] / d, 2.0 * w[..., 1] / d, pole * (2.0 - d) / d], axis=-1)


def stereo_from_sphere(a: np.ndarray, pole: int) -> np.ndarray:
    """Chart map, a (..., 3) -> w (..., 2); raises if any a is near the pole."""
    a = np.asarray(a, dtype=float)
    den = 1.0 + pole * a[..., 2]
    if (den < POLE_MARGIN).any():
        raise DomainError(
            f"fiber point with a3 = {a[..., 2][den < POLE_MARGIN][0]:.4f} is too close to the pole {-pole}; "
            "re-chart with the opposite pole"
        )
    return np.stack([a[..., 0] / den, a[..., 1] / den], axis=-1)


def stereo_jac_to_sphere(w: np.ndarray, pole: int) -> np.ndarray:
    """(..., 3, 2) Jacobians of stereo_to_sphere at w (..., 2)."""
    w = np.asarray(w, dtype=float)
    d = _one_plus_sq(w)
    v = np.stack([w[..., 0], w[..., 1], np.broadcast_to(pole, d.shape)], axis=-1)
    jac = -4.0 * w[..., None, :] * v[..., :, None] / (d * d)[..., None, None]
    diagonal = 2.0 / d
    jac[..., 0, 0] += diagonal
    jac[..., 1, 1] += diagonal
    return jac


def stereo_jac_from_sphere(a: np.ndarray, pole: int) -> np.ndarray:
    """(..., 2, 3) Jacobians of stereo_from_sphere at a (..., 3), restricted to the sphere."""
    a = np.asarray(a, dtype=float)
    pole = np.asarray(pole)
    den = 1.0 + pole * a[..., 2]
    jac = np.zeros(a.shape[:-1] + (2, 3))
    jac[..., 0, 0] = jac[..., 1, 1] = 1.0 / den
    jac[..., :, 2] = -pole[..., None] * a[..., :2] / (den * den)[..., None]
    return jac


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    """(..., 3, 3) matrices of x -> v x x for v (..., 3)."""
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., [2, 0, 1], [1, 2, 0]] = v
    out[..., [1, 2, 0], [2, 0, 1]] = -v
    return out


def _validate_selector(sel) -> tuple[str, int]:
    if not (isinstance(sel, tuple) and len(sel) == 2):
        raise UsageError(f"selector must be a (family, index) tuple, got {sel!r}")
    family, idx = sel
    if not _is_int(idx):
        raise UsageError(f"selector index must be an integer, got {sel!r}")
    if family in _HORIZONTAL_KINDS:
        if not 0 <= idx < 4:
            raise UsageError(f"horizontal selector index out of range: {sel!r}")
    elif family in _VERTICAL_KINDS:
        if not 0 <= idx < 6:
            raise UsageError(f"vertical selector index out of range: {sel!r}")
    else:
        raise UsageError(f"unknown selector family {family!r}")
    return family, int(idx)


@dataclass(frozen=True)
class OracleResult:
    """One Nijenhuis evaluation: chart components and error estimate.

    value is the stacked (tangent(8), cotangent(8)) result at the half
    step; noise is the sup-norm difference between the full-step and
    half-step evaluations."""

    value: np.ndarray
    noise: float

    @property
    def norm(self) -> float:
        return float(np.abs(self.value).max())


def _t(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


_EYE4 = np.eye(4)
# nijenhuis_numeric's 66 chart rows in units of its step (stencils at 1 and
# 1/2: z0 + step * row is a stencil row bit for bit), their distinct base and
# fiber offsets in np.unique's order, and each row's index into both
_ROWS = np.vstack([stencil(np.zeros(8), 1.0), stencil(np.zeros(8), 0.5)])
_BASE_OFFSETS, _AT_BASE = np.unique(_ROWS[:, :4], axis=0, return_inverse=True)
_FIBER_OFFSETS, _AT_FIBER = np.unique(_ROWS[:, 4:], axis=0, return_inverse=True)
# the metric stencil about a base point in units of the metric step:
# calculus.stencil's 17 rows, so base + fd_step * row is a stencil row bit for bit
_METRIC_ROWS = stencil(np.zeros(4), 1.0)
# the metric points' reach from the chart point in one coordinate: the chart
# rows' base offsets in units of the step, the metric stencil's in fd_step
_CHART_REACH, _METRIC_REACH = (float(np.abs(rows).max()) for rows in (_ROWS[:, :4], _METRIC_ROWS))
# flat indices of the entries (i, j) above the diagonal of a 4x4 matrix,
# and of their transposes (j, i)
_UPPER, _LOWER = (np.ravel_multi_index(ij, (4, 4)) for ij in (np.triu_indices(4, 1), np.triu_indices(4, 1)[::-1]))
# the generators (I, J, K) of each sphere's sign, per ComponentTag, as rows
# of 16 entries: c @ rows[k] is the flattened c1 I + c2 J + c3 K of sphere
# k, and rows[k] @ a.flat / 4 are the bivector a's coordinates over them
# (bivector.sd_asd_coords)
_TRIPLE_ROWS = {tag: np.stack([np.stack(TRIPLES[sign]).reshape(3, 16) for sign in tag.signs]) for tag in ComponentTag}


def _frame_connection(metric: MetricSpec, base: np.ndarray):
    """(e, e^-1, Upsilon) at base points (n, 4), from one g call on the
    17-point stencil at metric.fd_step about each of them.

    riemann's convention, computed apart from it: e is the lower Cholesky
    factor of g^-1 (det e > 0).  g with its index order reversed factors as
    C C^T, so g = U U^T with U = C reversed, upper triangular, and e^-1 =
    U^T; this needs no inverse of g.  e is inverted at the centres only.
    Gamma^k_ij = g^kl y_ijl / 2 with y_ijl = d_i g_jl + d_j g_il - d_l g_ij
    (Koszul), and since g^-1 = e e^T, e^-1 Gamma_i = e^T y_i^T / 2.  So the
    frame connection, Upsilon_a = e_ia e^-1 (d_i e + Gamma_i e), is
    e_ia (e^T y_i^T / 2 - d_i e^-1) e, antisymmetrized.  Both derivatives
    come from calculus's difference table; an error names the first metric
    point that is not finite, not symmetric or not positive definite."""
    h = metric.fd_step
    points = base + h * _METRIC_ROWS[:, None, :]  # (17, n, 4)
    g = np.asarray(metric.g(points), dtype=float)
    if g.shape != points.shape + (4,):
        raise InvalidInputError(
            f"oracle: metric {metric.name!r} returned shape {g.shape} for points of shape {points.shape}; "
            f"MetricSpec.g must map points of shape (..., 4) to metrics of shape (..., 4, 4)"
        )
    finite = np.isfinite(g).all(axis=(-2, -1))
    if not finite.all():
        bad = points.reshape(-1, 4)[np.argmin(finite)]
        raise InvalidInputError(f"oracle: metric {metric.name!r} is not finite at {bad.tolist()}")
    # np.isclose's rule both ways, |g_ij - g_ji| <= atol + rtol min(|g_ij|, |g_ji|)
    flat = g.reshape(-1, 16)
    upper, lower = flat[:, _UPPER], flat[:, _LOWER]
    bound = METRIC_SYMMETRY_ATOL + METRIC_SYMMETRY_RTOL * np.minimum(np.abs(upper), np.abs(lower))
    sym = np.abs(upper - lower) <= bound
    if not sym.all():
        bad = points.reshape(-1, 4)[np.argmin(sym.all(axis=-1))]
        raise InvalidInputError(f"oracle: metric {metric.name!r} is not symmetric at {bad.tolist()}")
    try:
        einv = _t(np.linalg.cholesky(g[..., ::-1, ::-1]))[..., ::-1, ::-1]
    except np.linalg.LinAlgError as exc:
        bad = points.reshape(-1, 4)[np.argmin(np.linalg.eigvalsh(g)[..., 0] > 0.0)]
        raise InvalidInputError(f"oracle: metric {metric.name!r} is not positive definite at {bad.tolist()}") from exc
    e = np.linalg.inv(einv[0])
    # dg[b, i] = d_i g and deinv[b, i] = d_i e^-1 at base point b
    dg, deinv = _d(np.stack([g, einv], axis=2), h).transpose(1, 0, 4, 2, 3)
    y = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    ups = (_t(e) @ (0.5 * _t(y @ e[:, None]) - deinv).reshape(-1, 4, 16)).reshape(-1, 4, 4, 4) @ e[:, None]
    return e, einv[0], 0.5 * (ups - _t(ups))


class TwistorChart:
    """Chart data for one metric, component tag, structure kind and pole
    choice.

    ``chart_data`` computes the data at nijenhuis_numeric's 66 chart rows
    in one pass, each quantity once per point it depends on:

    * per distinct base point (25): the orthonormal frame and the frame
      connection's Upsilon_i in SD/ASD coordinates, the oracle's own, from
      one ``g`` call on the 17-point stencil about each of them
      (``_frame_connection``);
    * per distinct fiber point (25): the velocity maps of both spheres
      and the structure matrix in the adapted frame, in one batch over
      the spheres (``_fiber_blocks``);
    * per row: the adapted frame, its inverse and the structure matrix in
      chart components, as stacked matrix products.

    ``field_values`` turns that data into a test field's values."""

    def __init__(self, metric: MetricSpec, tag: ComponentTag, kind: StructureKind, poles: tuple[int, int]):
        if not isinstance(tag, ComponentTag):
            raise UsageError(f"tag must be a ComponentTag, got {tag!r}")
        if kind is StructureKind.SEMI:
            raise UsageError("semi-integrability has no pointwise structure matrix")
        if not isinstance(kind, StructureKind):
            raise UsageError(f"kind must be a StructureKind, got {kind!r}")
        if not (isinstance(poles, (tuple, list)) and len(poles) == 2 and all(_is_int(s) and s in (-1, 1) for s in poles)):
            raise UsageError(f"poles must be a pair of integers +-1, got {poles!r}")
        self.metric = metric
        self.tag = tag
        self.kind = kind
        self.poles = (int(poles[0]), int(poles[1]))

    @classmethod
    def for_point(cls, metric: MetricSpec, tp: TwistorPoint, kind: StructureKind) -> "TwistorChart":
        """Chart with poles chosen away from the fiber point."""
        return cls(metric, tp.f.tag, kind, (_sign0(tp.f.a[2]), _sign0(tp.f.b[2])))

    # -- chart maps ----------------------------------------------------

    def embed(self, tp: TwistorPoint) -> np.ndarray:
        if tp.f.tag is not self.tag:
            raise UsageError(f"chart is for component {self.tag}, fiber is {tp.f.tag}")
        wa = stereo_from_sphere(tp.f.a, self.poles[0])
        wb = stereo_from_sphere(tp.f.b, self.poles[1])
        return np.concatenate([tp.p, wa, wb])

    # -- chart data ----------------------------------------------------

    def _fiber_blocks(self, w: np.ndarray):
        """(velocity maps, adapted) at fiber points w (n, 4), both spheres
        in one batch.

        The velocity map of sphere k sends the SD/ASD coordinates c of a
        bivector to the chart velocity 2 s_k x x c of the sphere point x
        rotated by it: (n, 2, 2, 3), sphere second.  adapted (n, 16, 16) is
        the structure matrix in the adapted frame: its horizontal block is
        S diag(u1, v) S / 2 = [[u1 + v, u1 - v], [u1 - v, u1 + v]] / 2, the
        TT form of the PM matrix diag(u1, v) with v = u2 for J and v = u1
        for J1, and its vertical block is the 4x4 chart matrix of the fiber
        rotation on both spheres."""
        n, poles, signs = len(w), np.array(self.poles), np.array(self.tag.signs)
        wk = w.reshape(n, 2, 2)
        x = stereo_to_sphere(wk, poles)
        dw, cross = stereo_jac_from_sphere(x, poles), _cross_matrix(x)
        s = signs[:, None, None]
        rotation = _VERTICAL_ORIENTATION * s * (dw @ cross @ stereo_jac_to_sphere(wk, poles))
        units = (x[..., None, :] @ _TRIPLE_ROWS[self.tag]).reshape(n, 2, 4, 4)
        u1 = units[:, 0]
        v = units[:, 1] if self.kind is StructureKind.GENJ else u1
        adapted = np.zeros((n, 16, 16))
        adapted[:, :4, :4] = adapted[:, 8:12, 8:12] = 0.5 * (u1 + v)
        adapted[:, :4, 8:12] = adapted[:, 8:12, :4] = 0.5 * (u1 - v)
        adapted[:, 4:6, 4:6], adapted[:, 6:8, 6:8] = rotation[:, 0], rotation[:, 1]
        adapted[:, 12:16, 12:16] = -_t(adapted[:, 4:8, 4:8])
        return dw @ (2.0 * s * cross), adapted

    def chart_data(self, z0: np.ndarray, step: float):
        """(e8, e8inv, structure matrices, velocity maps) at the 66 rows of
        the stencils at step and step / 2 about the chart point z0 (8,): the
        adapted frames (66, 8, 8) and their inverses, the structure's chart
        matrices (66, 16, 16), and both spheres' velocity maps, (2, 66, 2,
        3), sphere first.

        Columns 0..3 of the adapted frame e8 are horizontal lifts (base
        frame over the fiber velocity of parallel transport), columns
        4..7 the coordinate fiber directions.  The metric is evaluated once,
        at the 17-point metric stencil about each of the 25 base points."""
        e, einv, ups = _frame_connection(self.metric, z0[:4] + step * _BASE_OFFSETS)
        # Upsilon_a's coordinates over each sphere's triple, (base, sphere, 3, a)
        coords = (_TRIPLE_ROWS[self.tag] @ _t(ups.reshape(-1, 1, 4, 16))) / 4.0
        velocity, adapted = self._fiber_blocks(z0[4:] + step * _FIBER_OFFSETS)
        velocity = velocity[_AT_FIBER]
        lift = (velocity @ coords[_AT_BASE]).reshape(-1, 4, 4)
        e, einv = e[_AT_BASE], einv[_AT_BASE]
        e8, e8inv = np.zeros((2, len(_ROWS), 8, 8))
        e8[:, :4, :4], e8[:, 4:, :4], e8[:, 4:, 4:] = e, lift, _EYE4
        e8inv[:, :4, :4], e8inv[:, 4:, :4], e8inv[:, 4:, 4:] = einv, -lift @ einv, _EYE4
        e16, e16inv = np.zeros((2, len(_ROWS), 16, 16))
        e16[:, :8, :8], e16[:, 8:, 8:] = e8, _t(e8inv)
        e16inv[:, :8, :8], e16inv[:, 8:, 8:] = e8inv, _t(e8)
        return e8, e8inv, e16 @ adapted[_AT_FIBER] @ e16inv, np.moveaxis(velocity, 1, 0)

    # -- test fields ---------------------------------------------------

    def field_values(self, selector, e8: np.ndarray, e8inv: np.ndarray, velocity) -> np.ndarray:
        """(n, 16) stacked (vector, form) values of a test field, from the
        chart_data at n points."""
        family, idx = _validate_selector(selector)
        out = np.zeros((len(e8), 16))
        if family in _HORIZONTAL_KINDS:
            out[:, :8] = e8[:, :, idx]
            out[:, 8:] = (1.0 if family == "h+" else -1.0) * e8inv[:, idx, :]
            return out
        coords = sd_asd_coords(SIX_BASIS[idx])
        at = 4 if family == "v" else 12
        for k, sign in enumerate(self.tag.signs):
            out[:, at + 2 * k : at + 2 * k + 2] = velocity[k] @ coords[sign]
        return out


def oracle_margin(metric: MetricSpec) -> float:
    """Distance from the box edge that nijenhuis_numeric requires: how far
    its metric points reach from tp.p in one coordinate, plus
    ORACLE_REACH_ULPS ulps of the box's largest coordinate for rounding."""
    ulp = math.ulp(max(abs(metric.lo), abs(metric.hi)))
    return _CHART_REACH * DEFAULT_ORACLE_STEP + _METRIC_REACH * metric.fd_step + ORACLE_REACH_ULPS * ulp


def nijenhuis_numeric(metric: MetricSpec, tp: TwistorPoint, selectors, kind: StructureKind) -> OracleResult:
    """Generalized Nijenhuis tensor on two selector fields at a point.

    Charts with the poles away from the fiber point
    (``TwistorChart.for_point``) and evaluates at DEFAULT_ORACLE_STEP and
    at half of it; the reported value is the half-step one, the noise
    their sup-norm difference.  Every argument is checked before any
    metric evaluation; then one ``chart_data`` pass covers the 66 rows of
    both stencils."""
    if not (isinstance(selectors, (tuple, list)) and len(selectors) == 2):
        raise UsageError(f"selectors must be a pair of (family, index) tuples, got {selectors!r}")
    chart = TwistorChart.for_point(metric, tp, kind)
    for sel in selectors:
        _validate_selector(sel)
    metric.require_interior(tp.p, oracle_margin(metric))
    step = DEFAULT_ORACLE_STEP
    e8, e8inv, j, velocity = chart.chart_data(chart.embed(tp), step)
    y, zf = (chart.field_values(sel, e8, e8inv, velocity).reshape(2, -1, 16) for sel in selectors)
    full, half = nijenhuis_values(j.reshape(2, -1, 16, 16), y, zf, np.array([step, 0.5 * step]))
    return OracleResult(value=half, noise=float(np.abs(full - half).max()))


def predicted_horizontal_value(
    metric: MetricSpec,
    tp: TwistorPoint,
    sel_y,
    sel_z,
    kind: StructureKind,
) -> np.ndarray:
    """Closed-form Nijenhuis value for a pair of horizontal test fields.

    The tensor on two horizontal lifts is purely vertical: each sphere
    block is the curvature commutator [u_c, R(w1) + u_c R(w2)] with the
    wedge arguments drawn from the structures the two fields select.
    Returned in chart components for direct comparison with the finite
    difference value."""
    fam_y, i = _validate_selector(sel_y)
    fam_z, j = _validate_selector(sel_z)
    if fam_y not in _HORIZONTAL_KINDS or fam_z not in _HORIZONTAL_KINDS:
        raise UsageError("closed form applies to horizontal selector pairs only")
    chart = TwistorChart.for_point(metric, tp, kind)
    u1, u2 = fiber_to_structures(tp.f)
    if kind is StructureKind.ALMOST_J1:
        ua, ub = u1, u1
    else:
        ua = u1 if fam_y == "h+" else u2
        ub = u1 if fam_z == "h+" else u2
    gc = generalized_curvature(metric, tp.p)
    s1, s2 = tp.f.tag.signs
    block_a = _constraint_block(gc, ua, ub, u1, i, j)
    block_b = _constraint_block(gc, ua, ub, u2, i, j)
    out = np.zeros(16)
    out[4:6] = stereo_jac_from_sphere(tp.f.a, chart.poles[0]) @ sd_asd_coords(block_a)[s1]
    out[6:8] = stereo_jac_from_sphere(tp.f.b, chart.poles[1]) @ sd_asd_coords(block_b)[s2]
    return out

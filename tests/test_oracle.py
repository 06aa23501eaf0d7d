import dataclasses
import inspect
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from gentwistor import oracle, riemann, twistor
from gentwistor.calculus import nijenhuis_values, stencil
from gentwistor.dsl import load_metric_file
from gentwistor.errors import DomainError, InvalidInputError, UsageError
from gentwistor.gca import ComponentTag
from gentwistor.metrics import CATALOG, metric_by_name
from gentwistor.numerics import DEFAULT_ORACLE_STEP, ORACLE_REACH_ULPS
from gentwistor.oracle import (
    TwistorChart,
    nijenhuis_numeric,
    oracle_margin,
    predicted_horizontal_value,
    stereo_from_sphere,
    stereo_jac_from_sphere,
    stereo_jac_to_sphere,
    stereo_to_sphere,
)
from gentwistor.riemann import PointGeometry
from gentwistor.twistor import FiberPoint, StructureKind, TwistorPoint, random_fiber

DSL_DIR = Path(__file__).resolve().parents[1] / "bench" / "dsl"
RNG = np.random.default_rng(20240818)

# interior probe points, well away from box boundaries
P_UNIT = np.array([0.12, -0.07, 0.2, 0.05])
P_EH = np.array([2.3, 2.2, 2.5, 2.4])

# one selector pair per qualitatively distinct family combination
ALL_PAIR_TYPES = [
    (("h+", 0), ("h+", 1)),
    (("h-", 2), ("h-", 3)),
    (("h+", 0), ("h-", 2)),
    (("h+", 1), ("v", 0)),
    (("h-", 3), ("v", 4)),
    (("v", 1), ("v", 5)),
    (("h+", 2), ("v*", 1)),
    (("v", 0), ("v*", 3)),
    (("v*", 2), ("v*", 4)),
]


def _tp(p, tag, rng=None):
    f = random_fiber(tag, rng or RNG)
    return TwistorPoint(np.asarray(p, float), f)


# ---------------------------------------------------------------------------
# chart maps


def test_stereo_roundtrip_and_jacobian_chain():
    for pole in (1, -1):
        for _ in range(5):
            w = RNG.normal(size=2)
            a = stereo_to_sphere(w, pole)
            assert abs(np.linalg.norm(a) - 1.0) < 1e-14
            np.testing.assert_allclose(stereo_from_sphere(a, pole), w, atol=1e-12)
            chain = stereo_jac_from_sphere(a, pole) @ stereo_jac_to_sphere(w, pole)
            np.testing.assert_allclose(chain, np.eye(2), atol=1e-12)


def test_chart_maps_over_leading_axes():
    # a stack of points gives the per-row results bit for bit, and one point
    # keeps its shape
    w = RNG.uniform(-1.5, 1.5, size=(3, 5, 2))
    for pole in (1, -1):
        a = stereo_to_sphere(w, pole)
        for fn, x, shape in (
            (stereo_to_sphere, w, (3,)),
            (stereo_jac_to_sphere, w, (3, 2)),
            (stereo_from_sphere, a, (2,)),
            (stereo_jac_from_sphere, a, (2, 3)),
            (lambda v, pole: oracle._cross_matrix(v), a, (3, 3)),
        ):
            stack = fn(x, pole)
            assert stack.shape == (3, 5) + shape
            for i in range(3):
                for j in range(5):
                    one = fn(x[i, j], pole)
                    assert one.shape == shape and np.array_equal(one, stack[i, j])
        near_pole = a.copy()
        near_pole[2, 1] = [0.0, 0.03, -pole]
        with pytest.raises(DomainError, match="re-chart"):
            stereo_from_sphere(near_pole, pole)
    # an array of poles, one per sphere along the last leading axis, gives
    # each sphere's scalar-pole results bit for bit (the fiber pass charts
    # both spheres at once)
    w, poles = RNG.uniform(-1.5, 1.5, size=(5, 2, 2)), np.array([1, -1])
    a = stereo_to_sphere(w, poles)
    for fn, x in ((stereo_to_sphere, w), (stereo_jac_to_sphere, w), (stereo_from_sphere, a), (stereo_jac_from_sphere, a)):
        stack = fn(x, poles)
        for k, pole in enumerate((1, -1)):
            assert np.array_equal(stack[:, k], fn(x[:, k], pole))


def test_chart_embed_roundtrip():
    tp = _tp(P_UNIT, ComponentTag.PM)
    chart = TwistorChart.for_point(metric_by_name("s4"), tp, StructureKind.GENJ)
    z = chart.embed(tp)
    np.testing.assert_allclose(z[:4], tp.p, atol=1e-15)
    np.testing.assert_allclose(stereo_to_sphere(z[4:6], chart.poles[0]), tp.f.a, atol=1e-14)
    np.testing.assert_allclose(stereo_to_sphere(z[6:8], chart.poles[1]), tp.f.b, atol=1e-14)


def test_pole_guard_and_rechart():
    # fiber sitting almost at the south pole of the a sphere
    f = FiberPoint.normalized([0.03, 0.0, -1.0], [0.0, 1.0, 0.0], ComponentTag.PP)
    tp = TwistorPoint(P_UNIT, f)
    m = metric_by_name("s4")
    bad = TwistorChart(m, ComponentTag.PP, StructureKind.GENJ, (1, 1))
    with pytest.raises(DomainError):
        bad.embed(tp)
    # automatic pole selection flips the chart and succeeds
    good = TwistorChart.for_point(m, tp, StructureKind.GENJ)
    assert good.poles[0] == -1
    good.embed(tp)


def test_selector_and_argument_validation():
    m = metric_by_name("s4")
    tp = _tp(P_UNIT, ComponentTag.PP)
    with pytest.raises(UsageError):
        nijenhuis_numeric(m, tp, (("h+", 0),), StructureKind.GENJ)
    with pytest.raises(UsageError):
        nijenhuis_numeric(m, tp, (("h+", 5), ("h+", 1)), StructureKind.GENJ)
    with pytest.raises(UsageError):
        nijenhuis_numeric(m, tp, (("x", 0), ("h+", 1)), StructureKind.GENJ)
    with pytest.raises(UsageError):
        nijenhuis_numeric(m, tp, (("v", 6), ("h+", 1)), StructureKind.GENJ)
    with pytest.raises(UsageError):
        nijenhuis_numeric(m, tp, (("h+", 0), ("h+", 1)), StructureKind.SEMI)
    edge = TwistorPoint(np.array([0.99, 0.0, 0.0, 0.0]), tp.f)
    with pytest.raises(DomainError):
        nijenhuis_numeric(m, edge, (("h+", 0), ("h+", 1)), StructureKind.GENJ)
    with pytest.raises(UsageError):
        predicted_horizontal_value(m, tp, ("v", 0), ("h+", 1), StructureKind.GENJ)
    with pytest.raises(UsageError, match="semi-integrability"):
        predicted_horizontal_value(m, tp, ("h+", 0), ("h+", 1), StructureKind.SEMI)
    # poles must be a pair of integers +-1; bools are not integers here
    for bad_poles in ("north", (1,), (float("nan"), 1), None, (True, 1), (1, 0), (1.0, 1), (1, -1, 1)):
        with pytest.raises(UsageError, match="poles"):
            TwistorChart(m, tp.f.tag, StructureKind.GENJ, bad_poles)


def test_selector_index_must_be_an_integer():
    m = metric_by_name("s4")
    tp = _tp(P_UNIT, ComponentTag.PP)
    for idx in (1.5, 1.0, True, np.bool_(True), "1"):
        with pytest.raises(UsageError):
            nijenhuis_numeric(m, tp, (("h+", idx), ("h+", 0)), StructureKind.GENJ)
        with pytest.raises(UsageError):
            nijenhuis_numeric(m, tp, (("h+", 0), ("v", idx)), StructureKind.GENJ)
    # numpy integers are integers
    ref = nijenhuis_numeric(m, tp, (("h+", 1), ("v", 2)), StructureKind.GENJ)
    got = nijenhuis_numeric(m, tp, (("h+", np.int64(1)), ("v", np.int32(2))), StructureKind.GENJ)
    assert np.array_equal(got.value, ref.value)


def _recorded(fn, points):
    """fn that records the point argument of each call."""

    def recorded(*args):
        points.append(np.array(args[-1]))
        return fn(*args)

    return recorded


def _counted_metric(name):
    """The named metric with a g that records the shape of each call."""
    m = metric_by_name(name)
    calls = []

    def g(p):
        calls.append(np.shape(p))
        return m.g(p)

    return dataclasses.replace(m, g=g), calls


def test_each_quantity_evaluated_once_per_point(monkeypatch):
    # one selector pair (two stencils, h and h / 2) is one chart_data call
    # about the embedded point, whose data covers their 66 rows, 49 of them
    # distinct, over 25 distinct base points and 25 distinct fiber points:
    # one frame-and-connection pass on the base points and one fiber batch,
    # each point once, one metric call on the 17-point stencil about each
    # base point, and no sort of the points
    m, g_calls = _counted_metric("s4")
    tp = _tp(P_UNIT, ComponentTag.PM)
    calls = {name: [] for name in ("frame_connection", "fibers")}
    monkeypatch.setattr(oracle, "_frame_connection", _recorded(oracle._frame_connection, calls["frame_connection"]))
    monkeypatch.setattr(TwistorChart, "_fiber_blocks", _recorded(TwistorChart._fiber_blocks, calls["fibers"]))
    chart_data, unique, passes = TwistorChart.chart_data, np.unique, []

    def recorded(chart, z0, step):
        passes.append((z0, step, chart_data(chart, z0, step)))
        return passes[-1][2]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle sorted its chart points")

    monkeypatch.setattr(TwistorChart, "chart_data", recorded)
    monkeypatch.setattr(np, "unique", refuse)
    nijenhuis_numeric(m, tp, (("h+", 0), ("v*", 3)), StructureKind.GENJ)
    monkeypatch.setattr(np, "unique", unique)
    ((z0, step, (e8, e8inv, j, velocity)),) = passes
    assert np.array_equal(z0, TwistorChart.for_point(m, tp, StructureKind.GENJ).embed(tp)) and step == DEFAULT_ORACLE_STEP
    assert e8.shape == e8inv.shape == (66, 8, 8) and j.shape == (66, 16, 16)
    assert all(v.shape == (66, 2, 3) for v in velocity)
    assert len(np.unique(np.vstack([stencil(z0, step), stencil(z0, step / 2)]), axis=0)) == 49
    for name in ("frame_connection", "fibers"):
        (points,) = calls[name]
        assert points.shape == (25, 4) and len(np.unique(points, axis=0)) == 25, name
    assert g_calls == [(17, 25, 4)]


@pytest.mark.parametrize("step", [1e-2, 5e-3, 0.37])
def test_chart_layout_constants_are_exact(step):
    # z0 + step * offset rebuilds the 66 stencil rows bit for bit, since each
    # offset is a power of two times the step, and the distinct base and
    # fiber offsets give np.unique of the rows' base and fiber parts, in its
    # order: negative and large chart coordinates included
    rng, negative = np.random.default_rng(23), 0
    for scale in (0.3, 40.0):
        for tag in ComponentTag:
            chart = TwistorChart(metric_by_name("flat"), tag, StructureKind.GENJ, (1, -1))
            tp = TwistorPoint(scale * rng.normal(size=4), random_fiber(tag, rng))
            try:
                z0 = chart.embed(tp)
            except DomainError:  # the fiber is near a pole of this chart
                continue
            base = z0[:4] + step * oracle._BASE_OFFSETS
            fiber = z0[4:] + step * oracle._FIBER_OFFSETS
            rows = np.vstack([stencil(z0, step), stencil(z0, step / 2)])
            rebuilt = np.hstack([base[oracle._AT_BASE], fiber[oracle._AT_FIBER]])
            assert np.array_equal(rebuilt, rows)
            assert np.array_equal(base, np.unique(rows[:, :4], axis=0))
            assert np.array_equal(fiber, np.unique(rows[:, 4:], axis=0))
            negative += int((z0 < 0).sum())
    assert negative > 8


def test_bad_arguments_cost_no_metric_evaluation():
    m, calls = _counted_metric("s4")
    tp = _tp(P_UNIT, ComponentTag.PP)
    good, genj = (("h+", 0), ("v", 1)), StructureKind.GENJ
    for selectors, kind, message in (
        ((("h+", 0), ("v", 6)), genj, "out of range"),
        ((("x", 0), ("v", 1)), genj, "unknown selector family"),
        ((("h+", 0), ("h-", 1.0)), genj, "must be an integer"),
        (None, genj, "selectors must be a pair"),
        (good, "J", "kind must be a StructureKind, got 'J'"),
        (good, "J1", "kind must be a StructureKind, got 'J1'"),
        (good, "semi", "kind must be a StructureKind, got 'semi'"),
        (good, StructureKind.SEMI, "semi-integrability has no pointwise"),
    ):
        with pytest.raises(UsageError, match=message):
            nijenhuis_numeric(m, tp, selectors, kind)
    for poles in ((1, 0), "north"):
        with pytest.raises(UsageError, match="poles must be"):
            TwistorChart(m, tp.f.tag, genj, poles)
    with pytest.raises(UsageError, match="kind must be a StructureKind, got 'J'"):
        predicted_horizontal_value(m, tp, ("h+", 0), ("h+", 1), "J")
    with pytest.raises(UsageError, match="tag must be a ComponentTag, got '[+]-'"):
        TwistorChart(m, "+-", genj, (1, 1))
    with pytest.raises(DomainError):
        nijenhuis_numeric(m, TwistorPoint(np.array([0.99, 0.0, 0.0, 0.0]), tp.f), good, StructureKind.GENJ)
    assert calls == []
    # a good call evaluates the metric once: the 17-point stencil about
    # each of the 25 base points
    nijenhuis_numeric(m, tp, good, StructureKind.GENJ)
    assert calls == [(17, 25, 4)]


@pytest.mark.parametrize("name, p", [("s4", P_UNIT), ("schwarzschild", P_EH), ("fubini-study", P_UNIT)])
def test_metric_points_lie_within_the_oracle_margin(name, p):
    # the guard asks for oracle_margin from the box edge, so every point the
    # metric is evaluated at must lie within it of tp.p in each coordinate;
    # the points reach 2 step + 2 fd_step, and the margin is that reach,
    # read off the stencil tables, plus a rounding allowance
    m = metric_by_name(name)
    points, rng = [], np.random.default_rng(5)
    recorded = dataclasses.replace(m, g=lambda q: points.append(np.reshape(q, (-1, 4))) or m.g(q))
    for tag in ComponentTag:
        tp = _tp(p, tag, rng)
        for kind in (StructureKind.GENJ, StructureKind.ALMOST_J1):
            for selectors in ALL_PAIR_TYPES:
                nijenhuis_numeric(recorded, tp, selectors, kind)
                reach = np.abs(np.vstack(points) - tp.p).max()
                points.clear()
                assert reach <= oracle_margin(m), (name, tag, kind, selectors, reach)
    assert reach == pytest.approx(2.0 * DEFAULT_ORACLE_STEP + 2.0 * m.fd_step, rel=1e-9)


def test_oracle_margin_is_the_stencil_reach():
    # read off the stencil tables, the margin is the points' reach,
    # 2 step + 2 fd_step, plus the rounding allowance of ORACLE_REACH_ULPS
    for m in CATALOG.values():
        allowance = ORACLE_REACH_ULPS * math.ulp(max(abs(m.lo), abs(m.hi)))
        assert oracle_margin(m) == pytest.approx(2.0 * DEFAULT_ORACLE_STEP + 2.0 * m.fd_step + allowance, rel=1e-15)
        assert 0.0 < allowance < 1e-9 * oracle_margin(m)


@pytest.mark.parametrize("name, p", [("s4", P_UNIT), ("eguchi-hanson", P_EH)])
def test_prepared_points_equal_points_prepared_one_by_one(name, p):
    # row r of chart_data(z0, step) and row 0 of chart_data(z_r, step), with
    # z_r the chart point of row r, give the same data, bit for bit, at one
    # metric call per pass
    step = DEFAULT_ORACLE_STEP
    for kind in (StructureKind.GENJ, StructureKind.ALMOST_J1):
        for poles in ((1, 1), (-1, -1)):
            m, calls = _counted_metric(name)
            tp = TwistorPoint(p, FiberPoint.normalized([0.3, -0.5, 0.2], [0.6, 0.1, -0.3], ComponentTag.PM))
            chart = TwistorChart(m, ComponentTag.PM, kind, poles)
            z0 = chart.embed(tp) + 0.02 * RNG.normal(size=8)
            points = np.vstack([stencil(z0, step), stencil(z0, step / 2)])
            e8, e8inv, j, (va, vb) = chart.chart_data(z0, step)
            assert len(calls) == 1
            for k, z in enumerate(points):
                one_e8, one_e8inv, one_j, (one_va, one_vb) = chart.chart_data(z, step)
                for got, want in ((one_e8, e8), (one_e8inv, e8inv), (one_j, j), (one_va, va), (one_vb, vb)):
                    assert got.shape == want.shape and len(want) == 66
                    assert np.array_equal(got[0], want[k]), (name, kind, poles)
            assert len(calls) == 1 + len(points)


def test_oracle_borrows_nothing_from_the_closed_form_path(monkeypatch):
    # the referee must not run the closed-form path: with every function
    # riemann defines, and its PointGeometry, replaced by one that raises
    # (in riemann and wherever a module imported it), and then every
    # function twistor defines as well, the oracle still returns the same
    # values on every selector family, for both structure kinds; the closed
    # form it is compared with stops at the first patched module it reaches
    m = metric_by_name("flat-perturbed")
    tp = _tp(np.array([0.1, -0.15, 0.2, 0.05]), ComponentTag.MP)
    cases = [(kind, sel) for kind in (StructureKind.GENJ, StructureKind.ALMOST_J1)
             for sel in ((("h+", 0), ("h-", 1)), (("v", 2), ("v*", 3)), (("h-", 3), ("v*", 5)))]
    before = [nijenhuis_numeric(m, tp, sel, kind) for kind, sel in cases]

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"the oracle called {name}")

        return call

    patched = set()
    modules = [mod for key, mod in sys.modules.items() if key.startswith("gentwistor")]
    for source, extra in ((riemann, ("PointGeometry",)), (twistor, ())):
        for name, obj in list(vars(source).items()):
            if inspect.isfunction(obj) and obj.__module__ == source.__name__ or name in extra:
                for module in modules:
                    if getattr(module, name, None) is obj:
                        monkeypatch.setattr(module, name, refuse(f"{source.__name__}.{name}"))
                        patched.add(f"{module.__name__}.{name}")
        for (kind, sel), ref in zip(cases, before):
            r = nijenhuis_numeric(m, tp, sel, kind)
            assert np.array_equal(r.value, ref.value) and r.noise == ref.noise
        with pytest.raises(AssertionError, match=f"the oracle called {source.__name__}"):
            predicted_horizontal_value(m, tp, ("h+", 0), ("h+", 1), StructureKind.GENJ)
    assert {"gentwistor.riemann.PointGeometry", "gentwistor.riemann.christoffel",
            "gentwistor.riemann._frame", "gentwistor.oracle.christoffel", "gentwistor.oracle.orthonormal_frame",
            "gentwistor.oracle.generalized_curvature", "gentwistor.twistor.fiber_residuals",
            "gentwistor.twistor.fiber_blocks", "gentwistor.oracle.fiber_to_structures",
            "gentwistor.oracle._constraint_block"} <= patched


def _named_point(message: str) -> np.ndarray:
    """The point a guard's message names, as [x1, x2, x3, x4]."""
    (text,) = re.findall(r"\[([^\]]*)\]", message)
    return np.array([float(x) for x in text.split(",")])


def test_bad_metric_values_are_invalid_input_naming_the_point():
    # a g of the wrong shape, or one that is not symmetric, not positive
    # definite or not finite near one of the oracle's base points (from 1.5
    # steps along x1), is an InvalidInputError; the guard names a point where
    # g is bad, within the oracle's reach of tp.p
    s4 = metric_by_name("s4")
    tp = _tp(P_UNIT, ComponentTag.PM)
    bad = lambda q: q[..., 0] > P_UNIT[0] + 1.5 * DEFAULT_ORACLE_STEP
    skew = np.zeros((4, 4))
    skew[0, 1], skew[1, 0] = 1e-3, -1e-3
    flip = np.diag([-3.0, 1.0, 1.0, 1.0])

    def asymmetric(q):
        return s4.g(q) + np.where(bad(q)[..., None, None], skew, 0.0)

    def indefinite(q):
        return s4.g(q) @ np.where(bad(q)[..., None, None], flip, np.eye(4))

    def nonfinite(q):
        return np.where(bad(q)[..., None, None], np.nan, s4.g(q))

    sel = (("h+", 0), ("v", 1))
    with pytest.raises(InvalidInputError, match="shape"):
        nijenhuis_numeric(dataclasses.replace(s4, g=lambda q: s4.g(q)[..., :3, :]), tp, sel, StructureKind.GENJ)
    for g, message in ((asymmetric, "not symmetric"), (indefinite, "not positive definite"), (nonfinite, "not finite")):
        with pytest.raises(InvalidInputError, match=message) as raised:
            nijenhuis_numeric(dataclasses.replace(s4, g=g), tp, sel, StructureKind.GENJ)
        point = _named_point(str(raised.value))
        assert bad(point)
        assert np.abs(point - tp.p).max() <= 2.0 * DEFAULT_ORACLE_STEP + 2.0 * s4.fd_step + 1e-12


@pytest.mark.parametrize("label", sorted(CATALOG) + ["dsl:s4", "dsl:schwarzschild", "dsl:eguchi-hanson"])
def test_own_frame_and_connection_match_the_closed_form(label):
    # two implementations of one convention: the oracle's frame, its
    # inverse and the frame connection Upsilon agree with PointGeometry's
    name = label.removeprefix("dsl:")
    metric = load_metric_file(str(DSL_DIR / f"{name}.cfg")) if label != name else metric_by_name(name)
    points = metric.interior_points(25, np.random.default_rng(31))
    e, einv, ups = oracle._frame_connection(metric, points)
    geo = PointGeometry(metric, points)
    for got, want in ((e, geo.frame.e), (einv, geo.frame.einv), (ups, geo.connection.upsilon)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=label)
    assert np.abs(ups).max() > 1e-3 or label == "flat"  # the comparison is not vacuous


def test_structure_field_is_an_almost_structure():
    # pointwise algebra of the assembled matrix field, including off the
    # embedding point and for a curved frame
    q16 = np.zeros((16, 16))
    q16[:8, 8:] = np.eye(8)
    q16[8:, :8] = np.eye(8)
    for name, p in (("s4", P_UNIT), ("eguchi-hanson", P_EH)):
        m = metric_by_name(name)
        tp = _tp(p, ComponentTag.PM)
        for kind in (StructureKind.GENJ, StructureKind.ALMOST_J1):
            chart = TwistorChart.for_point(m, tp, kind)
            z0 = chart.embed(tp)
            for j in chart.chart_data(z0 + 0.02 * RNG.normal(size=8), DEFAULT_ORACLE_STEP)[2]:
                np.testing.assert_allclose(j @ j, -np.eye(16), atol=1e-9)
                np.testing.assert_allclose(j.T @ q16 @ j, q16, atol=1e-9)


# ---------------------------------------------------------------------------
# flat space: everything vanishes, for every pair type and both kinds


def test_flat_all_pair_types_vanish():
    m = metric_by_name("flat")
    for tag in (ComponentTag.PP, ComponentTag.PM):
        tp = _tp(np.array([0.1, -0.15, 0.2, 0.05]), tag)
        for kind in (StructureKind.GENJ, StructureKind.ALMOST_J1):
            for sel in ALL_PAIR_TYPES:
                r = nijenhuis_numeric(m, tp, sel, kind)
                assert r.norm < 1e-5, (tag, kind, sel, r.norm)


def test_flat_perturbed_vanishes_with_nontrivial_lift():
    # curved-looking chart of the flat metric: the frame connection and
    # the horizontal lift are nonzero, the tensor still vanishes
    m = metric_by_name("flat-perturbed")
    tp = _tp(np.array([0.1, -0.15, 0.2, 0.05]), ComponentTag.PM)
    chart = TwistorChart.for_point(m, tp, StructureKind.GENJ)
    e8 = chart.chart_data(chart.embed(tp), DEFAULT_ORACLE_STEP)[0][0]
    assert np.abs(e8[4:, :4]).max() > 1e-4
    for sel in [(("h+", 0), ("h+", 1)), (("h+", 2), ("h-", 3)), (("h-", 1), ("v", 3))]:
        r = nijenhuis_numeric(m, tp, sel, StructureKind.GENJ)
        assert r.norm < 1e-4, (sel, r.norm)


# ---------------------------------------------------------------------------
# round sphere: closed form agreement and component verdicts


def test_unit_sphere_horizontal_pairs_match_closed_form():
    m = metric_by_name("s4")
    f = FiberPoint(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), ComponentTag.PP)
    tp = TwistorPoint(P_UNIT, f)
    seen_nonzero = False
    for sy, sz in [
        (("h+", 0), ("h+", 1)),
        (("h-", 0), ("h-", 1)),
        (("h+", 0), ("h-", 1)),
        (("h+", 2), ("h-", 3)),
    ]:
        r = nijenhuis_numeric(m, tp, (sy, sz), StructureKind.GENJ)
        pred = predicted_horizontal_value(m, tp, sy, sz, StructureKind.GENJ)
        tol = 10.0 * r.noise + 1e-6
        np.testing.assert_allclose(r.value, pred, atol=tol)
        seen_nonzero = seen_nonzero or np.abs(pred).max() > 1.0
    assert seen_nonzero  # the comparison must not be vacuous


def test_unit_sphere_j1_matches_its_reduction():
    m = metric_by_name("s4")
    f = FiberPoint(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), ComponentTag.PP)
    tp = TwistorPoint(P_UNIT, f)
    for sy, sz in [(("h+", 0), ("h+", 3)), (("h-", 1), ("h-", 2))]:
        r = nijenhuis_numeric(m, tp, (sy, sz), StructureKind.ALMOST_J1)
        pred = predicted_horizontal_value(m, tp, sy, sz, StructureKind.ALMOST_J1)
        tol = 10.0 * r.noise + 1e-6
        # the closed form gives the tangent part; its vertical block is
        # the whole of it for lifted arguments
        np.testing.assert_allclose(r.value[4:8], pred[4:8], atol=tol)
        np.testing.assert_allclose(r.value[:4], 0.0, atol=tol)
        assert np.abs(pred[4:8]).max() > 1.0


def test_unit_sphere_vertical_pairs_vanish_on_all_components():
    # lifted-field / fiber-rotation pairs carry no curvature obstruction
    m = metric_by_name("s4")
    for tag in ComponentTag:
        tp = _tp(P_UNIT, tag)
        for sel in [(("h+", 1), ("v", 0)), (("h-", 2), ("v", 4)), (("v", 1), ("v", 5))]:
            r = nijenhuis_numeric(m, tp, sel, StructureKind.GENJ)
            assert r.norm < 1e-4, (tag, sel, r.norm)


def test_unit_sphere_mixed_component_integrable_every_pair_type():
    # the finite difference referee for the headline finding: on the
    # mixed components of the constant curvature space the full tensor
    # vanishes for every pair type, so the generalized structure is
    # integrable there even though the scalar curvature is 12, not 0
    m = metric_by_name("s4")
    for tag in (ComponentTag.PM, ComponentTag.MP):
        tp = _tp(P_UNIT, tag)
        for sel in ALL_PAIR_TYPES:
            r = nijenhuis_numeric(m, tp, sel, StructureKind.GENJ)
            assert r.norm < 1e-4, (tag, sel, r.norm)


def test_unit_sphere_pure_component_obstructed():
    # contrast for the previous test: on a pure component the same
    # referee sees the scalar curvature obstruction at full size
    m = metric_by_name("s4")
    f = FiberPoint(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), ComponentTag.PP)
    tp = TwistorPoint(P_UNIT, f)
    worst = 0.0
    for sel in [(("h-", 0), ("h-", 1)), (("h-", 0), ("h-", 2)), (("h+", 0), ("h+", 3))]:
        worst = max(worst, nijenhuis_numeric(m, tp, sel, StructureKind.GENJ).norm)
    assert worst > 0.5


def test_unit_sphere_mixed_j1_and_asd_instanton():
    m = metric_by_name("s4")
    pairs = [(("h+", 0), ("h+", 1)), (("h+", 1), ("v", 0))]
    for tag in (ComponentTag.PM, ComponentTag.MP):
        tp = _tp(P_UNIT, tag)
        for sel in pairs:
            r = nijenhuis_numeric(m, tp, sel, StructureKind.ALMOST_J1)
            assert r.norm < 1e-4, (tag, sel, r.norm)
    # anti-self-dual Ricci-flat metric: same verdict on the MP component
    me = metric_by_name("eguchi-hanson")
    tp = _tp(P_EH, ComponentTag.MP)
    for sel in pairs:
        r = nijenhuis_numeric(me, tp, sel, StructureKind.ALMOST_J1)
        assert r.norm < 1e-4, (sel, r.norm)


# ---------------------------------------------------------------------------
# numerics of the estimate itself


def _nijenhuis_on(chart, tp, selectors, step):
    """nijenhuis_numeric's (value, noise) on a given chart and step: the
    tensor from chart_data at step and step / 2."""
    e8, e8inv, j, velocity = chart.chart_data(chart.embed(tp), step)
    y, z = (chart.field_values(sel, e8, e8inv, velocity).reshape(2, -1, 16) for sel in selectors)
    full, half = nijenhuis_values(j.reshape(2, -1, 16, 16), y, z, np.array([step, 0.5 * step]))
    return half, float(np.abs(full - half).max())


def test_noise_estimate_and_step_stability():
    m = metric_by_name("s4")
    f = FiberPoint(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), ComponentTag.PP)
    tp = TwistorPoint(P_UNIT, f)
    sel = (("h-", 0), ("h-", 1))
    chart = TwistorChart.for_point(m, tp, StructureKind.GENJ)
    value1, noise1 = _nijenhuis_on(chart, tp, sel, 1e-2)
    value2, _ = _nijenhuis_on(chart, tp, sel, 5e-3)
    assert 0.0 < noise1 < 1e-5
    np.testing.assert_allclose(value1, value2, atol=1e-6)
    # on the chart for_point picks and at the default step, this is
    # nijenhuis_numeric's evaluation, bit for bit
    value, noise = _nijenhuis_on(chart, tp, sel, DEFAULT_ORACLE_STEP)
    r = nijenhuis_numeric(m, tp, sel, StructureKind.GENJ)
    assert np.array_equal(r.value, value) and r.noise == noise


def test_pole_choice_does_not_change_verdicts():
    m = metric_by_name("s4")
    f = FiberPoint.normalized([0.3, 0.2, 0.4], [0.1, 0.5, 0.3], ComponentTag.PM)
    tp = TwistorPoint(P_UNIT, f)
    sel = (("h+", 0), ("h-", 1))
    for poles in ((1, 1), (-1, -1), (1, -1)):
        value, _ = _nijenhuis_on(TwistorChart(m, tp.f.tag, StructureKind.GENJ, poles), tp, sel, DEFAULT_ORACLE_STEP)
        assert np.abs(value).max() < 1e-4
    f2 = FiberPoint(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), ComponentTag.PP)
    tp2 = TwistorPoint(P_UNIT, f2)
    for poles in ((1, 1), (-1, -1)):
        chart = TwistorChart(m, tp2.f.tag, StructureKind.GENJ, poles)
        value, _ = _nijenhuis_on(chart, tp2, (("h-", 0), ("h-", 1)), DEFAULT_ORACLE_STEP)
        assert np.abs(value).max() > 0.5

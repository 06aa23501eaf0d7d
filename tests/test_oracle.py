import numpy as np
import pytest

from gentwistor import oracle
from gentwistor.calculus import GenField, nijenhuis_field
from gentwistor.errors import DomainError, UsageError
from gentwistor.gca import ComponentTag
from gentwistor.metrics import metric_by_name
from gentwistor.oracle import (
    TwistorChart,
    nijenhuis_numeric,
    predicted_horizontal_value,
    stereo_from_sphere,
    stereo_jac_from_sphere,
    stereo_jac_to_sphere,
    stereo_to_sphere,
)
from gentwistor.twistor import FiberPoint, StructureKind, TwistorPoint, random_fiber

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
    with pytest.raises(UsageError):
        nijenhuis_numeric(m, tp, (("h+", 0), ("h+", 1)), StructureKind.GENJ, step=0.0)
    for bad_step in (float("nan"), float("inf")):
        with pytest.raises(UsageError, match="positive and finite"):
            nijenhuis_numeric(m, tp, (("h+", 0), ("h+", 1)), StructureKind.GENJ, step=bad_step)
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
            nijenhuis_numeric(m, tp, (("h+", 0), ("h+", 1)), StructureKind.GENJ, poles=bad_poles)


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


def _counted(fn, points):
    """fn that records the point of each call."""

    def counted(*args):
        points.append(np.array(args[-1]).tobytes())
        return fn(*args)

    return counted


def test_each_quantity_evaluated_once_per_point(monkeypatch):
    m = metric_by_name("s4")
    tp = _tp(P_UNIT, ComponentTag.PM)
    chart = TwistorChart.for_point(m, tp, StructureKind.GENJ)
    z0 = chart.embed(tp)
    # one nijenhuis_field call: J and both test fields once at each of the
    # 1 + 4 * 8 stencil points, however many brackets it takes
    seen = {name: [] for name in ("J", "Y.vec", "Y.form", "Z.vec", "Z.form")}
    y = chart.basic_field(("h+", 1))
    z = chart.basic_field(("v", 2))
    nijenhuis_field(
        _counted(chart.structure_field, seen["J"]),
        GenField(_counted(y.vec, seen["Y.vec"]), _counted(y.form, seen["Y.form"])),
        GenField(_counted(z.vec, seen["Z.vec"]), _counted(z.form, seen["Z.form"])),
        z0,
        h=0.01,
    )
    for name, points in seen.items():
        assert len(points) == 33 and len(set(points)) == 33, name
    # one selector pair (two stencils, h and h / 2) needs 25 distinct base
    # points and 25 distinct fiber points: one connection and one fiber
    # block at each
    conns, frames, fibers = [], [], []
    monkeypatch.setattr(oracle, "christoffel", _counted(oracle.christoffel, conns))
    monkeypatch.setattr(oracle, "orthonormal_frame", _counted(oracle.orthonormal_frame, frames))
    monkeypatch.setattr(TwistorChart, "_fiber_block", _counted(TwistorChart._fiber_block, fibers))
    nijenhuis_numeric(m, tp, (("h+", 0), ("v*", 3)), StructureKind.GENJ)
    for points in (conns, frames, fibers):
        assert len(points) == 25 and len(set(points)) == 25


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
            for _ in range(3):
                j = chart.structure_field(z0 + 0.02 * RNG.normal(size=8))
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
    e8, _ = chart.frame8(chart.embed(tp))
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


def test_noise_estimate_and_step_stability():
    m = metric_by_name("s4")
    f = FiberPoint(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), ComponentTag.PP)
    tp = TwistorPoint(P_UNIT, f)
    sel = (("h-", 0), ("h-", 1))
    r1 = nijenhuis_numeric(m, tp, sel, StructureKind.GENJ, step=1e-2)
    r2 = nijenhuis_numeric(m, tp, sel, StructureKind.GENJ, step=5e-3)
    assert 0.0 < r1.noise < 1e-5
    np.testing.assert_allclose(r1.value, r2.value, atol=1e-6)


def test_pole_choice_does_not_change_verdicts():
    m = metric_by_name("s4")
    f = FiberPoint.normalized([0.3, 0.2, 0.4], [0.1, 0.5, 0.3], ComponentTag.PM)
    tp = TwistorPoint(P_UNIT, f)
    sel = (("h+", 0), ("h-", 1))
    for poles in ((1, 1), (-1, -1), (1, -1)):
        r = nijenhuis_numeric(m, tp, sel, StructureKind.GENJ, poles=poles)
        assert r.norm < 1e-4
    f2 = FiberPoint(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), ComponentTag.PP)
    tp2 = TwistorPoint(P_UNIT, f2)
    for poles in ((1, 1), (-1, -1)):
        r = nijenhuis_numeric(m, tp2, (("h-", 0), ("h-", 1)), StructureKind.GENJ, poles=poles)
        assert r.norm > 0.5

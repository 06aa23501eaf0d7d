"""Property tests for the exact-algebra layers.

Everything here is closed-form linear algebra (no finite differences),
so the tolerances are at roundoff scale and hypothesis can explore
freely without flaky failures.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from gentwistor.bivector import (
    SIX_BASIS,
    U6,
    pair_coords,
    sd_asd_coords,
    unit_combination,
)
from gentwistor.gca import (
    BasisTag,
    ComponentTag,
    b_transform,
    change_basis,
    type_of,
)
from gentwistor.metrics import MetricSpec, metric_by_name
from gentwistor.oracle import (
    nijenhuis_numeric,
    oracle_margin,
    stereo_from_sphere,
    stereo_jac_from_sphere,
    stereo_jac_to_sphere,
    stereo_to_sphere,
)
from gentwistor.twistor import FiberPoint, StructureKind, TwistorPoint, structure_from_fiber

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


def vec3(draw_min=0.3):
    return st.lists(finite, min_size=3, max_size=3).map(np.array).filter(
        lambda v: np.linalg.norm(v) > draw_min
    )


def antisym4():
    return st.lists(finite, min_size=6, max_size=6).map(
        lambda c: np.array(
            [
                [0.0, c[0], c[1], c[2]],
                [-c[0], 0.0, c[3], c[4]],
                [-c[1], -c[3], 0.0, c[5]],
                [-c[2], -c[4], -c[5], 0.0],
            ]
        )
    )


@given(
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2).map(np.array),
    st.sampled_from([1, -1]),
)
def test_stereo_chart_inverts(w, pole):
    a = stereo_to_sphere(w, pole)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12
    np.testing.assert_allclose(stereo_from_sphere(a, pole), w, atol=1e-9)
    chain = stereo_jac_from_sphere(a, pole) @ stereo_jac_to_sphere(w, pole)
    np.testing.assert_allclose(chain, np.eye(2), atol=1e-9)


@given(antisym4())
def test_sd_asd_and_six_coords_reconstruct(a):
    c = sd_asd_coords(a)
    np.testing.assert_allclose(unit_combination(c[+1], +1) + unit_combination(c[-1], -1), a, atol=1e-12)
    six = U6 @ pair_coords(a)
    np.testing.assert_allclose(sum(ck * e for ck, e in zip(six, SIX_BASIS)) / np.sqrt(2.0), a, atol=1e-12)


@given(vec3(), st.sampled_from([1, -1]))
def test_unit_combination_is_a_complex_structure(v, sign):
    u = unit_combination(v / np.linalg.norm(v), sign)
    np.testing.assert_allclose(u @ u, -np.eye(4), atol=1e-12)
    np.testing.assert_allclose(u, -u.T, atol=1e-12)


@given(vec3(), vec3(), st.sampled_from(list(ComponentTag)), antisym4())
def test_b_transform_preserves_type(a, b, tag, bfield):
    f = FiberPoint.normalized(a, b, tag)
    u = structure_from_fiber(f)
    assert type_of(b_transform(u, bfield)) == type_of(u)


@given(vec3(), vec3(), st.sampled_from(list(ComponentTag)))
def test_change_basis_is_involutive(a, b, tag):
    u = structure_from_fiber(FiberPoint.normalized(a, b, tag))
    back = change_basis(change_basis(u, BasisTag.TT), BasisTag.PM)
    np.testing.assert_allclose(back.m, u.m, atol=1e-12)


@given(vec3(), vec3(), st.sampled_from(list(ComponentTag)))
def test_fiber_type_parity(a, b, tag):
    # pure components carry even type, mixed components odd
    t = type_of(structure_from_fiber(FiberPoint.normalized(a, b, tag)))
    assert t % 2 == (1 if tag.mixed else 0)


@given(
    st.floats(-3.0, 3.0),
    st.floats(0.05, 4.0),
    st.lists(st.booleans(), min_size=4, max_size=4),
    vec3(),
    vec3(),
    st.sampled_from(list(ComponentTag)),
    st.sampled_from([StructureKind.GENJ, StructureKind.ALMOST_J1]),
)
def test_oracle_reach_stays_in_the_box(lo, width, high, a, b, tag, kind):
    # a twistor point exactly oracle_margin from the edge in every
    # coordinate, on the low or the high side: every point the oracle
    # evaluates the metric at lies in the closed box, rounding included
    flat, points = metric_by_name("flat"), []
    metric = MetricSpec("box", lo, lo + width, lambda q: points.append(np.reshape(q, (-1, 4))) or flat.g(q))
    margin = oracle_margin(metric)
    p = np.where(high, metric.hi - margin, metric.lo + margin)
    nijenhuis_numeric(metric, TwistorPoint(p, FiberPoint.normalized(a, b, tag)), (("h+", 0), ("v", 1)), kind)
    q = np.vstack(points)
    assert len(q) == 425 and (q >= metric.lo).all() and (q <= metric.hi).all()

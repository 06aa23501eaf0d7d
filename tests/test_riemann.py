import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from gentwistor.bivector import basis_wedge
from gentwistor.calculus import partial
from gentwistor.dsl import load_metric_file
from gentwistor.errors import DecompositionError, DomainError, InvalidInputError
from gentwistor.gca import ComponentTag
from gentwistor.harness import check
from gentwistor.metrics import CATALOG, MetricSpec, metric_by_name
from gentwistor.oracle import nijenhuis_numeric
from gentwistor.riemann import (
    CurvatureOperator,
    PointGeometry,
    christoffel,
    curvature_operator,
    decompose,
    generalized_curvature,
    orthonormal_frame,
)
from gentwistor.twistor import StructureKind, TwistorPoint, random_fiber

# the six built-ins and the DSL transcription of s4 that bench/run.py loads
BATCH_METRICS = [CATALOG[name] for name in sorted(CATALOG)] + [
    load_metric_file(str(Path(__file__).resolve().parents[1] / "bench" / "dsl" / "s4.cfg"))
]


def test_orthonormal_frame_properties():
    rng = np.random.default_rng(0)
    for name in ("flat", "s4", "eguchi-hanson", "schwarzschild", "fubini-study"):
        m = metric_by_name(name)
        for p in m.interior_points(3, rng):
            fr = orthonormal_frame(m, p)
            g = m.g(p)
            np.testing.assert_allclose(fr.e.T @ g @ fr.e, np.eye(4), atol=1e-12)
            assert np.linalg.det(fr.e) > 0
            np.testing.assert_allclose(fr.einv @ fr.e, np.eye(4), atol=1e-12)
            # lower-triangular by construction: deterministic gauge
            np.testing.assert_allclose(np.triu(fr.e, 1), 0.0, atol=1e-15)


def test_unbatched_metric_is_rejected():
    # g must map points (n, 4) to (n, 4, 4); a per-point g breaks the contract
    one_point = MetricSpec("one-point", -1.0, 1.0, lambda p: np.eye(4), "")
    with pytest.raises(InvalidInputError, match=r"\(\.\.\., 4\) to metrics of shape \(\.\.\., 4, 4\)"):
        christoffel(one_point, np.zeros(4))


def test_orthonormal_frame_rejects_indefinite():
    bad = MetricSpec("bad", -1.0, 1.0, lambda p: np.diag([1.0, -1.0, 1.0, 1.0]), "")
    with pytest.raises(InvalidInputError):
        orthonormal_frame(bad, np.zeros(4))


def _s4_gamma_exact(p):
    # conformal metric e^{2 phi} delta with phi = log 2 - log(1+|x|^2):
    # Gamma^k_{ij} = delta_ik dphi_j + delta_jk dphi_i - delta_ij dphi_k
    r2 = float(p @ p)
    dphi = -2.0 * p / (1.0 + r2)
    gamma = np.zeros((4, 4, 4))
    for k in range(4):
        for i in range(4):
            for j in range(4):
                gamma[k, i, j] = (
                    (1.0 if i == k else 0.0) * dphi[j]
                    + (1.0 if j == k else 0.0) * dphi[i]
                    - (1.0 if i == j else 0.0) * dphi[k]
                )
    return gamma


def test_christoffel_matches_conformal_closed_form():
    m = metric_by_name("s4")
    rng = np.random.default_rng(1)
    for p in m.interior_points(5, rng):
        np.testing.assert_allclose(generalized_curvature(m, p).gamma, _s4_gamma_exact(p), atol=1e-7)


def test_christoffel_flat_is_zero_and_perturbed_is_not():
    flat = metric_by_name("flat")
    gamma = generalized_curvature(flat, np.array([0.2, -0.3, 0.1, 0.0])).gamma
    np.testing.assert_allclose(gamma, 0.0, atol=1e-12)
    pert = metric_by_name("flat-perturbed")
    gamma2 = generalized_curvature(pert, np.array([0.2, -0.3, 0.1, 0.0])).gamma
    assert np.abs(gamma2).max() > 1e-3


def test_upsilon_antisymmetric_and_small_defect():
    rng = np.random.default_rng(2)
    for name in ("s4", "eguchi-hanson", "schwarzschild"):
        m = metric_by_name(name)
        for p in m.interior_points(2, rng):
            conn = christoffel(m, p)
            for a in range(4):
                np.testing.assert_allclose(conn.upsilon[a], -conn.upsilon[a].T, atol=1e-14)
            assert conn.antisymmetry_defect < 1e-8


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_upsilon_defect_is_roundoff(name):
    # Gamma and the frame derivative come from the same dg, so the raw
    # connection is antisymmetric up to roundoff, not up to FD error
    m = CATALOG[name]
    for p in m.interior_points(3, np.random.default_rng(21)):
        assert christoffel(m, p).antisymmetry_defect <= 1e-12


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_frame_derivative_matches_fd_of_frame(name):
    # reference: 4th-order FD of the Cholesky frame itself, at the same step
    m = CATALOG[name]
    for p in m.interior_points(3, np.random.default_rng(22)):
        analytic = generalized_curvature(m, p).frame_derivative
        fd = np.stack([partial(lambda q: orthonormal_frame(m, q).e, p, i, m.fd_step) for i in range(4)])
        assert np.abs(fd - analytic).max() <= 1e-8 * np.abs(analytic).max()


def test_one_geometry_serves_operator_and_connection():
    m = metric_by_name("eguchi-hanson")
    p = np.array([2.3, 2.45, 2.5, 2.2])
    geo = generalized_curvature(m, p)
    assert np.array_equal(curvature_operator(m, p).matrix, geo.operator.matrix)
    assert np.array_equal(christoffel(m, p).upsilon, geo.connection.upsilon)
    assert christoffel(m, p).antisymmetry_defect == geo.connection.antisymmetry_defect


def _counted(metric):
    """metric whose g records the number of points of each call."""
    calls = []
    inner = metric.g

    def g(p):
        calls.append(math.prod(np.shape(p)[:-1]))
        return inner(p)

    return dataclasses.replace(metric, g=g), calls


def test_metric_evaluation_counts():
    # the stencil has 1 + 16 + 96 points, one g call for the first 17 (all
    # a connection needs) and one for the 96 mixed points; check batches
    # both over its 4 base points
    s4 = metric_by_name("s4")
    p = np.array([0.1, -0.2, 0.3, 0.05])
    m, calls = _counted(s4)
    check(m, ComponentTag.PP, StructureKind.GENJ)
    assert sum(calls) == 4 * 113 and len(calls) == 2
    m, calls = _counted(s4)
    geo = generalized_curvature(m, p)
    geo.rf, geo.operator, geo.connection
    assert calls == [17, 96]
    m, calls = _counted(s4)
    christoffel(m, p)
    assert calls == [17]
    m, calls = _counted(s4)
    tp = TwistorPoint(p, random_fiber(ComponentTag.PP, np.random.default_rng(3)))
    nijenhuis_numeric(m, tp, (("h+", 0), ("h-", 2)), StructureKind.GENJ)
    assert sum(calls) == 450


@pytest.mark.parametrize("metric", BATCH_METRICS, ids=lambda m: m.name)
def test_batched_geometry_equals_per_point(metric):
    # a geometry over points (..., 4) holds, at each point, the arrays of
    # that point's own geometry, bit for bit
    points = metric.interior_points(4, np.random.default_rng(23))
    batch = generalized_curvature(metric, points)
    assert batch.rf.shape == (4, 4, 4, 4, 4) and batch.operator.matrix.shape == (4, 6, 6)
    for n, p in enumerate(points):
        one = generalized_curvature(metric, p)
        assert np.array_equal(batch.gamma[n], one.gamma)
        assert np.array_equal(batch.connection.upsilon[n], one.connection.upsilon)
        assert np.array_equal(batch.rf[n], one.rf)
        assert np.array_equal(batch.operator.matrix[n], one.operator.matrix)
    grid = generalized_curvature(metric, points.reshape(2, 2, 4))
    assert np.array_equal(grid.rf.reshape(batch.rf.shape), batch.rf)


def test_batched_errors_name_the_offending_point():
    # identity except in a small ball around the third of check()'s four
    # sampled points (seed 0), where g is indefinite or not symmetric
    points = metric_by_name("flat").interior_points(4, np.random.default_rng([0, 0]))
    q = points[2]

    def spec(row, col):
        def g(p):
            bump = np.exp(-np.sum((p - q) ** 2, axis=-1) / 0.05**2)
            out = np.broadcast_to(np.eye(4), p.shape[:-1] + (4, 4)).copy()
            out[..., row, col] -= 2.0 * bump
            return out

        return MetricSpec(f"bump-{row}{col}", -1.0, 1.0, g)

    indefinite, asymmetric = spec(0, 0), spec(0, 1)
    named = re.escape(f"metric at {q.tolist()} is not positive definite")
    with pytest.raises(InvalidInputError, match=named):
        check(indefinite, ComponentTag.PP, StructureKind.GENJ)
    with pytest.raises(InvalidInputError, match=named):
        generalized_curvature(indefinite, points)
    with pytest.raises(InvalidInputError, match=re.escape(f"metric at {q.tolist()} is not symmetric")):
        generalized_curvature(asymmetric, points)
    outside = points.copy()
    outside[1, 3] = 1.5
    with pytest.raises(DomainError, match=re.escape(f"point {outside[1].tolist()} too close")):
        generalized_curvature(indefinite, outside)


def test_domain_guard_near_boundary():
    m = metric_by_name("flat")
    with pytest.raises(DomainError):
        christoffel(m, np.array([0.9999, 0.0, 0.0, 0.0]))


def test_curvature_flat_exactly_zero():
    m = metric_by_name("flat")
    op = curvature_operator(m, np.array([0.3, 0.1, -0.5, 0.2]))
    np.testing.assert_allclose(op.matrix, 0.0, atol=1e-13)


def test_curvature_covariance_perturbed_chart():
    # pullback of the flat metric: curvature must vanish despite Gamma != 0
    m = metric_by_name("flat-perturbed")
    rng = np.random.default_rng(3)
    for p in m.interior_points(3, rng):
        op = curvature_operator(m, p)
        assert np.abs(op.matrix).max() < 1e-8


def test_curvature_s4_is_plus_identity():
    # measured sign under this package's convention: +Id, scalar +12
    m = metric_by_name("s4")
    rng = np.random.default_rng(4)
    for p in m.interior_points(3, rng):
        op = curvature_operator(m, p)
        np.testing.assert_allclose(op.matrix, np.eye(6), atol=1e-4)
        assert abs(abs(op.matrix[0, 0]) - 1.0) < 1e-6
        bl = decompose(op)
        assert bl.scalar == pytest.approx(12.0, abs=1e-3)


def test_curvature_step_halving_stability():
    m = metric_by_name("eguchi-hanson")
    p = np.array([2.3, 2.4, 2.5, 2.2])
    a = PointGeometry(m, p, m.fd_step).operator.matrix
    b = PointGeometry(m, p, m.fd_step / 2).operator.matrix
    assert np.abs(a - b).max() < 1e-6


def _assemble(wplus, wminus, b, scalar):
    """The operator [[W+ + s/12 Id, B], [B^T, W- + s/12 Id]]."""
    s12 = (scalar / 12.0) * np.eye(3)
    return np.block([[wplus + s12, b], [b.T, wminus + s12]])


def test_decompose_synthetic_exact_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        wp = rng.normal(size=(3, 3))
        wp = 0.5 * (wp + wp.T)
        wp -= (np.trace(wp) / 3.0) * np.eye(3)
        wm = rng.normal(size=(3, 3))
        wm = 0.5 * (wm + wm.T)
        wm -= (np.trace(wm) / 3.0) * np.eye(3)
        b = rng.normal(size=(3, 3))
        s = float(rng.normal()) * 10.0
        op = CurvatureOperator(matrix=_assemble(wp, wm, b, s))
        back = decompose(op)
        np.testing.assert_allclose(back.wplus, wp, atol=1e-10)
        np.testing.assert_allclose(back.wminus, wm, atol=1e-10)
        np.testing.assert_allclose(back.b, b, atol=1e-10)
        assert back.scalar == pytest.approx(s, abs=1e-10)
        np.testing.assert_allclose(_assemble(back.wplus, back.wminus, back.b, back.scalar), op.matrix, atol=1e-10)
        assert abs(np.trace(back.wplus)) < 1e-12 and abs(np.trace(back.wminus)) < 1e-12


@pytest.mark.parametrize("metric", BATCH_METRICS, ids=lambda m: m.name)
def test_batched_decompose_equals_per_matrix(metric):
    # a stack of operators splits into the blocks of each operator's own
    # call, bit for bit, and fails with the error of its first failing one
    stack = generalized_curvature(metric, metric.interior_points(6, np.random.default_rng(24))).operator.matrix
    batch = decompose(CurvatureOperator(stack))
    for n, m in enumerate(stack):
        one = decompose(CurvatureOperator(m))
        for name in ("wplus", "wminus", "b", "scalar"):
            assert np.array_equal(getattr(batch, name)[n], getattr(one, name))
    asym, trace = stack.copy(), stack.copy()
    asym[:, 0, 1] += 1.0
    trace[:, 0, 0] += 1.0
    for bad in (asym, trace):
        with pytest.raises(DecompositionError) as single:
            decompose(CurvatureOperator(bad[2]))
        for culprits in ([2], [2, 4]):
            mixed = stack.copy()
            mixed[culprits] = bad[culprits]
            with pytest.raises(DecompositionError, match=re.escape(str(single.value))):
                decompose(CurvatureOperator(mixed.reshape(2, 3, 6, 6)))
    first_trace = stack.copy()
    first_trace[1], first_trace[3] = trace[1], asym[3]
    with pytest.raises(DecompositionError, match="scalar curvature mismatch"):
        decompose(CurvatureOperator(first_trace))


def test_decompose_rejects_asymmetric():
    bad = np.zeros((6, 6))
    bad[0, 1] = 1.0
    with pytest.raises(DecompositionError):
        decompose(CurvatureOperator(matrix=bad))


def test_decompose_rejects_trace_mismatch():
    bad = np.diag([1.0, 1, 1, 0, 0, 0])
    with pytest.raises(DecompositionError):
        decompose(CurvatureOperator(matrix=bad))


# measured duality profiles of the curved catalog entries (frozen):
# fubini-study  W- = 0, |W+| = sqrt(6), s = 12, Einstein
# eguchi-hanson W- = 0, W+ != 0, Ricci flat
# schwarzschild |W+| = |W-| != 0, Ricci flat
def test_fubini_study_profile():
    m = metric_by_name("fubini-study")
    rng = np.random.default_rng(6)
    for p in m.interior_points(3, rng):
        bl = decompose(curvature_operator(m, p))
        assert np.linalg.norm(bl.wminus) < 1e-6
        assert np.linalg.norm(bl.b) < 1e-6
        assert np.linalg.norm(bl.wplus) == pytest.approx(np.sqrt(6.0), abs=1e-4)
        assert bl.scalar == pytest.approx(12.0, abs=1e-4)


def test_eguchi_hanson_profile():
    m = metric_by_name("eguchi-hanson")
    rng = np.random.default_rng(7)
    for p in m.interior_points(3, rng):
        bl = decompose(curvature_operator(m, p))
        assert np.linalg.norm(bl.wminus) < 1e-6
        assert np.linalg.norm(bl.b) < 1e-6
        assert abs(bl.scalar) < 1e-5
        r = p[0]
        # |W+| = 4 sqrt(6) a^4 / r^6 for the scale a = 1 (eigenvalues
        # proportional to (-2, 1, 1) with extreme value 8 a^4 / r^6)
        assert np.linalg.norm(bl.wplus) == pytest.approx(4.0 * np.sqrt(6.0) / r ** 6, rel=1e-4)


def test_schwarzschild_profile():
    m = metric_by_name("schwarzschild")
    rng = np.random.default_rng(8)
    for p in m.interior_points(3, rng):
        bl = decompose(curvature_operator(m, p))
        assert np.linalg.norm(bl.b) < 1e-6
        assert abs(bl.scalar) < 1e-5
        r = p[1]
        expect = np.sqrt(6.0) * 0.8 / r ** 3  # |W| = sqrt(6) m / r^3 per half
        assert np.linalg.norm(bl.wplus) == pytest.approx(expect, rel=1e-4)
        assert np.linalg.norm(bl.wminus) == pytest.approx(expect, rel=1e-4)


def test_generalized_curvature_blocks_and_connection_identity():
    # R_g acts diagonally on the PM halves, and the frame curvature equals
    # -(d eta + eta ^ eta) for the frame connection eta
    m = metric_by_name("s4")
    p = np.array([0.15, -0.1, 0.2, 0.05])
    gc = generalized_curvature(m, p)
    for a, b in ((0, 1), (1, 3)):
        rg = gc.rg(basis_wedge(a, b))
        np.testing.assert_allclose(rg[:4, :4], gc.rf[a, b], atol=1e-15)
        np.testing.assert_allclose(rg[4:, 4:], gc.rf[a, b], atol=1e-15)
        np.testing.assert_allclose(rg[:4, 4:], 0.0, atol=1e-15)

    def eta_f(q):
        # eta(d_i) = sum_a einv[a, i] Upsilon_a, over coordinate directions
        upsilon = christoffel(m, q).upsilon
        return np.einsum("ai,akl->ikl", orthonormal_frame(m, q).einv, upsilon)

    h2 = 1e-2  # outer step for nested differentiation
    deta = np.stack([partial(eta_f, p, i, h2) for i in range(4)])
    eta0 = eta_f(p)
    e = gc.frame.e
    for a, b in ((0, 1), (0, 2), (2, 3)):
        x, y = e[:, a], e[:, b]
        d_part = np.einsum("i,j,ijkl->kl", x, y, deta) - np.einsum("i,j,jikl->kl", x, y, deta)
        ex = np.einsum("i,ikl->kl", x, eta0)
        ey = np.einsum("j,jkl->kl", y, eta0)
        lhs = -(d_part + ex @ ey - ey @ ex)
        rhs = gc.rf[a, b]
        assert np.abs(lhs - rhs).max() < 1e-4


def test_rg_antisymmetric_pair_indexing():
    m = metric_by_name("s4")
    gc = generalized_curvature(m, np.array([0.1, 0.2, -0.1, 0.0]))
    for a in range(4):
        assert not gc.rf[a, a].any()
        for b in range(4):
            assert np.array_equal(gc.rf[b, a], -gc.rf[a, b])

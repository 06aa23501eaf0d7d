from pathlib import Path

import numpy as np
import pytest

from gentwistor import twistor
from gentwistor.dsl import load_metric_file
from gentwistor.errors import InvalidInputError, UsageError
from gentwistor.bivector import U6, WEDGE_PAIRS, basis_wedge, sd_asd_coords
from gentwistor.gca import BasisTag, ComponentTag
from gentwistor.metrics import CATALOG, MetricSpec, metric_by_name
from gentwistor.harness import CurvatureFlags, predict
from gentwistor.numerics import DEFAULT_FLAG_THRESHOLD
from gentwistor.riemann import PointGeometry, generalized_curvature
from gentwistor.twistor import (
    J1_LABELS,
    FiberPoint,
    StructureKind,
    _constraint_block,
    constraints_genJ,
    constraints_J1,
    fiber_blocks,
    fiber_residuals,
    fiber_to_structures,
    random_fiber,
    semi_integrability_residual,
    sphere_directions,
    structure_from_fiber,
    blockwise_obstruction_matrix,
    doubled_obstruction_matrix,
    type_of_genJ,
)

RNG = np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# independent space-form model: raw wedge matrices, curvature acting as the
# identity on bivectors.  No imports from the package's bivector module, so
# a shared convention mistake there cannot hide.

def _w(x, y):
    return np.outer(y, x) - np.outer(x, y)


_E = np.eye(4)
_PLUS = (
    _w(_E[0], _E[1]) + _w(_E[2], _E[3]),
    _w(_E[0], _E[2]) - _w(_E[1], _E[3]),
    _w(_E[0], _E[3]) + _w(_E[1], _E[2]),
)
_MINUS = (
    _w(_E[0], _E[1]) - _w(_E[2], _E[3]),
    _w(_E[0], _E[2]) + _w(_E[1], _E[3]),
    _w(_E[0], _E[3]) - _w(_E[1], _E[2]),
)


def _model_u(vec, sign):
    triple = _PLUS if sign > 0 else _MINUS
    return sum(c * t for c, t in zip(vec, triple))


def _model_family_max(ua, ub, uc, lam=1.0):
    """max_(i != j) ||[uc, lam*(w1 + uc w2)]||_F with R_c = lam * Id."""
    best = 0.0
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            w1 = _w(_E[i], _E[j]) - _w(ua @ _E[i], ub @ _E[j])
            w2 = _w(ua @ _E[i], _E[j]) + _w(_E[i], ub @ _E[j])
            inner = lam * (w1 + uc @ w2)
            best = max(best, float(np.linalg.norm(uc @ inner - inner @ uc)))
    return best


def _model_norms(f: FiberPoint, lam=1.0):
    s1, s2 = f.tag.signs
    u1 = _model_u(f.a, s1)
    u2 = _model_u(f.b, s2)
    combos = {
        "C1": (u1, u1, u1),
        "C2": (u1, u1, u2),
        "C3": (u2, u2, u1),
        "C4": (u2, u2, u2),
        "C5": (u1, u2, u1),
        "C6": (u1, u2, u2),
    }
    return {k: _model_family_max(*v, lam=lam) for k, v in combos.items()}


# ---------------------------------------------------------------------------
# fiber points

def test_fiber_point_rejects_non_unit():
    with pytest.raises(InvalidInputError):
        FiberPoint(np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), ComponentTag.PP)
    with pytest.raises(UsageError):
        FiberPoint(np.array([1.0, 0.0]), np.array([0.0, 0.0, 1.0]), ComponentTag.PP)


def test_fiber_point_rejects_a_tag_that_is_not_a_component_tag():
    unit = np.array([0.0, 0.0, 1.0])
    for tag in ("++", None, 1):
        with pytest.raises(UsageError, match="ComponentTag"):
            FiberPoint(unit, unit, tag)
        with pytest.raises(UsageError, match="ComponentTag"):
            FiberPoint.normalized(unit, unit, tag)


def test_fiber_point_rejects_nan():
    nan = np.array([np.nan, 0.0, 0.0])
    unit = np.array([0.0, 0.0, 1.0])
    for a, b in ((nan, unit), (unit, nan)):
        with pytest.raises(InvalidInputError, match="not unit length"):
            FiberPoint(a, b, ComponentTag.PP)
    with pytest.raises(InvalidInputError):
        FiberPoint.normalized([np.nan, 0.0, 1.0], [1.0, 0.0, 0.0], ComponentTag.PM)


def test_fiber_point_normalized():
    f = FiberPoint.normalized([3.0, 0.0, 0.0], [0.0, 0.0, -5.0], ComponentTag.PM)
    assert np.allclose(f.a, [1.0, 0.0, 0.0])
    assert np.allclose(f.b, [0.0, 0.0, -1.0])
    with pytest.raises(InvalidInputError):
        FiberPoint.normalized([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], ComponentTag.PM)


def test_random_fiber_prefix_stable():
    r1 = np.random.default_rng(99)
    r2 = np.random.default_rng(99)
    first = [random_fiber(ComponentTag.PP, r1) for _ in range(3)]
    again = [random_fiber(ComponentTag.PP, r2) for _ in range(5)]
    for f, g in zip(first, again):
        assert np.array_equal(f.a, g.a) and np.array_equal(f.b, g.b)


def test_sphere_directions():
    d = sphere_directions(17)
    assert d.shape == (17, 3)
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
    dots = d @ d.T
    np.fill_diagonal(dots, -1.0)
    assert dots.max() < 1.0 - 1e-3  # pairwise distinct


def test_unit_blocks_square_to_minus_identity():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        f = random_fiber(ComponentTag(rng.choice(["++", "--", "+-", "-+"])), rng)
        u1, u2 = fiber_to_structures(f)
        assert np.allclose(u1 @ u1, -np.eye(4), atol=1e-12)
        assert np.allclose(u2 @ u2, -np.eye(4), atol=1e-12)


def test_structure_round_trip_classification():
    rng = np.random.default_rng(6)
    for tag in ComponentTag:
        for _ in range(5):
            f = random_fiber(tag, rng)
            s = structure_from_fiber(f)
            assert s.basis is BasisTag.PM
            # block-diagonal in PM, each block a unit combination of the
            # triple its sign names and orthogonal to the other triple
            assert not s.m[:4, 4:].any() and not s.m[4:, :4].any()
            for block, sign, unit in ((s.m[:4, :4], tag.signs[0], f.a), (s.m[4:, 4:], tag.signs[1], f.b)):
                c = sd_asd_coords(block)
                np.testing.assert_allclose(c[sign], unit, atol=1e-14)
                np.testing.assert_allclose(c[-sign], 0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# type jumps

def test_type_grid_pure_components():
    dirs = sphere_directions(17)
    for tag in (ComponentTag.PP, ComponentTag.MM):
        for k in range(17):
            for l in range(17):
                f = FiberPoint(dirs[k], dirs[l], tag)
                expected = 4 if k == l else 2
                assert type_of_genJ(f) == expected, (tag, k, l)


def test_type_grid_mixed_components():
    dirs = sphere_directions(17)
    for tag in (ComponentTag.PM, ComponentTag.MP):
        for k in range(17):
            for l in range(17):
                f = FiberPoint(dirs[k], dirs[l], tag)
                assert type_of_genJ(f) == 3, (tag, k, l)


# ---------------------------------------------------------------------------
# residuals on the catalog

def _worst(residuals):
    return max(residuals.norms.values())


def _fibers(tag, n, seed):
    rng = np.random.default_rng(seed)
    return [random_fiber(tag, rng) for _ in range(n)]


def _blocks(fibers):
    """The kernel's input for a list of fiber points: (fiber, 2, 4, 4)."""
    return np.array([fiber_to_structures(f) for f in fibers])


def test_flat_residuals_vanish():
    m = metric_by_name("flat")
    p = np.array([0.2, -0.3, 0.1, 0.4])
    gc = generalized_curvature(m, p)
    for tag in ComponentTag:
        for f in _fibers(tag, 4, 11):
            assert _worst(constraints_genJ(m, p, f, gc=gc)) < 1e-9
            assert _worst(constraints_J1(m, p, f, gc=gc)) < 1e-9
            if tag.mixed:
                assert semi_integrability_residual(m, p, f, gc=gc) < 1e-9


def test_flat_perturbed_residuals_small():
    m = metric_by_name("flat-perturbed")
    p = np.array([0.3, -0.4, 0.2, 0.6])
    gc = generalized_curvature(m, p)
    for tag in ComponentTag:
        for f in _fibers(tag, 3, 12):
            assert _worst(constraints_genJ(m, p, f, gc=gc)) < 1e-6
            assert _worst(constraints_J1(m, p, f, gc=gc)) < 1e-6


def test_s4_matches_space_form_model():
    """Oracle test: on the round sphere the curvature acts as the identity
    on bivectors, so every family must match the closed-form model."""
    m = metric_by_name("s4")
    p = np.array([0.05, -0.1, 0.2, 0.15])
    gc = generalized_curvature(m, p)
    rng = np.random.default_rng(13)
    for tag in ComponentTag:
        for _ in range(3):
            f = random_fiber(tag, rng)
            got = constraints_genJ(m, p, f, gc=gc)
            want = _model_norms(f)
            for label in got.norms:
                assert got.norms[label] == pytest.approx(want[label], abs=1e-3), (
                    tag,
                    label,
                )


def test_s4_axis_fiber_frozen_value():
    # a along the first axis, b along the second: the C2 family reduces to
    # the bracket of the second generator with (generator + product), of
    # Frobenius norm 4 at scalar curvature 12.
    m = metric_by_name("s4")
    p = np.zeros(4)
    f = FiberPoint(np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0]), ComponentTag.PP)
    r = constraints_genJ(m, p, f)
    assert r.norms["C2"] == pytest.approx(4.0, abs=5e-4)
    assert r.norms["C1"] < 1e-6
    assert r.norms["C4"] < 1e-6


def test_s4_component_profile():
    """Round sphere: scalar curvature obstructs the pure components, while
    the mixed components are clean for both structures (conformally flat
    and Einstein is exactly what the six families detect there)."""
    m = metric_by_name("s4")
    p = np.array([0.05, -0.1, 0.2, 0.15])
    gc = generalized_curvature(m, p)
    for tag in (ComponentTag.PP, ComponentTag.MM):
        for f in _fibers(tag, 3, 21):
            r = constraints_genJ(m, p, f, gc=gc)
            assert _worst(r) > 0.1
            assert r.norms["C2"] > 0.1
            assert _worst(constraints_J1(m, p, f, gc=gc)) > 0.1
    for tag in (ComponentTag.PM, ComponentTag.MP):
        for f in _fibers(tag, 3, 22):
            assert _worst(constraints_genJ(m, p, f, gc=gc)) < 1e-6
            assert _worst(constraints_J1(m, p, f, gc=gc)) < 1e-6
            assert semi_integrability_residual(m, p, f, gc=gc) < 1e-6


def test_eguchi_hanson_component_profile():
    m = metric_by_name("eguchi-hanson")
    p = np.array([2.3, 2.2, 2.5, 2.4])
    gc = generalized_curvature(m, p)
    for f in _fibers(ComponentTag.MM, 4, 31):
        assert _worst(constraints_genJ(m, p, f, gc=gc)) < 1e-6
    for f in _fibers(ComponentTag.PP, 4, 32):
        assert _worst(constraints_genJ(m, p, f, gc=gc)) > 1e-3
    for tag in (ComponentTag.PM, ComponentTag.MP):
        for f in _fibers(tag, 4, 33):
            assert _worst(constraints_genJ(m, p, f, gc=gc)) > 1e-3
            assert semi_integrability_residual(m, p, f, gc=gc) < 1e-6
    for f in _fibers(ComponentTag.MP, 4, 34):
        assert _worst(constraints_J1(m, p, f, gc=gc)) < 1e-6
    for f in _fibers(ComponentTag.PM, 4, 35):
        assert _worst(constraints_J1(m, p, f, gc=gc)) > 1e-3


def test_schwarzschild_component_profile():
    m = metric_by_name("schwarzschild")
    p = np.array([2.4, 2.2, 2.5, 2.4])
    gc = generalized_curvature(m, p)
    for tag in ComponentTag:
        for f in _fibers(tag, 3, 41):
            assert _worst(constraints_genJ(m, p, f, gc=gc)) > 0.01
            assert _worst(constraints_J1(m, p, f, gc=gc)) > 0.01
            if tag.mixed:
                assert semi_integrability_residual(m, p, f, gc=gc) < 1e-6


def test_fubini_study_component_profile():
    m = metric_by_name("fubini-study")
    p = np.array([0.1, -0.2, 0.15, 0.05])
    gc = generalized_curvature(m, p)
    for f in _fibers(ComponentTag.MP, 4, 51):
        assert _worst(constraints_J1(m, p, f, gc=gc)) < 1e-6
        assert semi_integrability_residual(m, p, f, gc=gc) < 1e-6
    for f in _fibers(ComponentTag.PM, 4, 52):
        assert _worst(constraints_J1(m, p, f, gc=gc)) > 1e-3
    # the self-dual Weyl part is clean, so the obstruction on the minus
    # pure component is pure scalar curvature
    for f in _fibers(ComponentTag.MM, 4, 53):
        r = constraints_genJ(m, p, f, gc=gc)
        assert _worst(r) > 0.1
        assert r.norms["C1"] < 1e-4  # wminus-family clean
    for tag in ComponentTag:
        for f in _fibers(tag, 2, 54):
            assert _worst(constraints_genJ(m, p, f, gc=gc)) > 0.1


def test_orientation_swap_exchanges_pure_components():
    """Swapping two coordinates reverses orientation, so the component
    that was integrable becomes obstructed and vice versa."""
    base = metric_by_name("eguchi-hanson")
    perm = np.eye(4)[[0, 1, 3, 2]]

    def flipped(x):
        return perm.T @ base.g(x @ perm.T) @ perm

    m = MetricSpec(
        name="eguchi-hanson-flipped",
        lo=base.lo,
        hi=base.hi,
        g=flipped,
        provenance="orientation-reversed coordinate relabeling",
    )
    p = np.array([2.3, 2.2, 2.5, 2.4])
    gc = generalized_curvature(m, p)
    for f in _fibers(ComponentTag.PP, 3, 61):
        assert _worst(constraints_genJ(m, p, f, gc=gc)) < 1e-6
    for f in _fibers(ComponentTag.MM, 3, 62):
        assert _worst(constraints_genJ(m, p, f, gc=gc)) > 1e-3


# ---------------------------------------------------------------------------
# doubled path and algebraic identities

def test_doubled_path_matches_block_assembly():
    mats = [metric_by_name("s4"), metric_by_name("eguchi-hanson")]
    points = [np.array([0.05, -0.1, 0.2, 0.15]), np.array([2.3, 2.2, 2.5, 2.4])]
    rng = np.random.default_rng(71)
    cached = [generalized_curvature(m, p) for m, p in zip(mats, points)]
    for _ in range(100):
        k = int(rng.integers(2))
        m, p, gc = mats[k], points[k], cached[k]
        tag = ComponentTag(rng.choice(["++", "--", "+-", "-+"]))
        f = random_fiber(tag, rng)
        i, j = rng.choice(4, size=2, replace=False)
        args = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        full = doubled_obstruction_matrix(m, p, f, int(i), int(j), args=args, gc=gc)
        blocks = blockwise_obstruction_matrix(m, p, f, int(i), int(j), args=args, gc=gc)
        assert np.allclose(full, blocks, atol=1e-10)
    for build in (doubled_obstruction_matrix, blockwise_obstruction_matrix):
        for args in ((0, 1), (1, 3)):
            with pytest.raises(UsageError, match="args must be 1 or 2"):
                build(m, p, f, 0, 1, args=args, gc=gc)


def test_obstruction_linear_in_curvature():
    m = metric_by_name("s4")
    p = np.array([0.05, -0.1, 0.2, 0.15])
    gc = generalized_curvature(m, p)
    # a cached geometry attribute is a plain instance attribute, so the
    # curvature of a fresh geometry can be set to twice the measured one
    doubled = generalized_curvature(m, p)
    doubled.rf = 2.0 * gc.rf
    f = random_fiber(ComponentTag.PP, np.random.default_rng(72))
    r1 = doubled_obstruction_matrix(m, p, f, 0, 2, gc=gc)
    r2 = doubled_obstruction_matrix(m, p, f, 0, 2, gc=doubled)
    assert np.allclose(r2, 2.0 * r1, atol=1e-12)


# ---------------------------------------------------------------------------
# the batched kernel against the per-block reference

# (first wedge slot, second wedge slot, commutator) as indices into (u1, u2)
_FAMILY_BLOCKS = {
    "C1": (0, 0, 0),
    "C2": (0, 0, 1),
    "C3": (1, 1, 0),
    "C4": (1, 1, 1),
    "C5": (0, 1, 0),
    "C6": (0, 1, 1),
}
_ORDERED = [(i, j) for i in range(4) for j in range(4)]


@pytest.mark.parametrize("name", CATALOG)
def test_kernel_matches_per_block_reference(name):
    """Every family norm of the kernel equals the maximum of a loop of
    _constraint_block over the 16 ordered pairs, the diagonal included,
    within 1e-12 relative or 1e-12 of the curvature scale."""
    m = metric_by_name(name)
    rng = np.random.default_rng(81)
    p = m.interior_points(1, rng)[0]
    gc = generalized_curvature(m, p)
    tol = 1e-12 * np.abs(gc.rf).max()
    for tag in ComponentTag:
        fibers = [random_fiber(tag, rng) for _ in range(3)]
        res = fiber_residuals(gc, _blocks(fibers))
        assert res.labels == tuple(_FAMILY_BLOCKS)
        for n, f in enumerate(fibers):
            blocks = fiber_to_structures(f)
            for k, (a, b, c) in enumerate(_FAMILY_BLOCKS.values()):
                worst = max(
                    float(np.linalg.norm(_constraint_block(gc, blocks[a], blocks[b], blocks[c], i, j)))
                    for i, j in _ORDERED
                )
                assert res.norms[n, k] == pytest.approx(worst, rel=1e-12, abs=tol)


def test_j1_and_semi_are_kernel_columns():
    m = metric_by_name("schwarzschild")
    p = np.array([2.4, 2.2, 2.5, 2.4])
    gc = generalized_curvature(m, p)
    rng = np.random.default_rng(82)
    mixed = [random_fiber(tag, rng) for tag in (ComponentTag.PM, ComponentTag.MP) for _ in range(3)]
    pure = [random_fiber(tag, rng) for tag in (ComponentTag.PP, ComponentTag.MM) for _ in range(3)]
    for fibers in (mixed, pure):
        full = fiber_residuals(gc, _blocks(fibers))
        j1 = fiber_residuals(gc, _blocks(fibers), StructureKind.ALMOST_J1)
        assert j1.labels == J1_LABELS
        assert np.array_equal(j1.norms, full.norms[:, :2])
        for n, f in enumerate(fibers):
            one = constraints_J1(m, p, f, gc=gc)
            assert [one.norms[label] for label in J1_LABELS] == full.norms[n, :2].tolist()
            assert constraints_genJ(m, p, f, gc=gc).norms == dict(zip(full.labels, full.norms[n].tolist()))
    full = fiber_residuals(gc, _blocks(mixed))
    semi = fiber_residuals(gc, _blocks(mixed), StructureKind.SEMI)
    assert semi.labels == ("C2'",)
    assert np.array_equal(semi.norms, full.norms[:, 1:2])
    assert [semi_integrability_residual(m, p, f, gc=gc) for f in mixed] == full.norms[:, 1].tolist()


@pytest.mark.parametrize("kind", list(StructureKind))
def test_kernel_fibers_bit_identical_across_batch_sizes(kind):
    """A fiber's values do not depend on the batch it rides in; check()'s
    prefix-stable sample sets rely on this."""
    m = metric_by_name("eguchi-hanson")
    p = np.array([2.3, 2.2, 2.5, 2.4])
    gc = generalized_curvature(m, p)
    rng = np.random.default_rng(83)
    tags = (ComponentTag.PM, ComponentTag.MP) if kind is StructureKind.SEMI else tuple(ComponentTag)
    fibers = _blocks([random_fiber(tags[n % len(tags)], rng) for n in range(8)])
    full = fiber_residuals(gc, fibers, kind)
    for size in (1, 4):
        for start in range(0, 8, size):
            part = fiber_residuals(gc, fibers[start:start + size], kind)
            window = slice(start, start + size)
            assert np.array_equal(part.norms, full.norms[window])


# the six built-ins and the DSL transcription of s4 that bench/run.py loads
BATCH_METRICS = [CATALOG[name] for name in sorted(CATALOG)] + [
    load_metric_file(str(Path(__file__).resolve().parents[1] / "bench" / "dsl" / "s4.cfg"))
]


@pytest.mark.parametrize("metric", BATCH_METRICS, ids=lambda m: m.name)
def test_batched_kernel_equals_per_point(metric, monkeypatch):
    """Over a 4-point geometry the kernel gives norms (point, fiber,
    family), each bit-identical to the point's own kernel call, whatever
    the block size."""
    points = metric.interior_points(4, np.random.default_rng(85))
    batch = generalized_curvature(metric, points)
    singles = [generalized_curvature(metric, p) for p in points]
    rng = np.random.default_rng(86)
    for kind in StructureKind:
        tags = (ComponentTag.PM, ComponentTag.MP) if kind is StructureKind.SEMI else tuple(ComponentTag)
        fibers = _blocks([random_fiber(tags[n % len(tags)], rng) for n in range(6)])
        full = fiber_residuals(batch, fibers, kind)
        assert full.norms.shape == (4, 6, len(full.labels))
        for n, gc in enumerate(singles):
            assert np.array_equal(full.norms[n], fiber_residuals(gc, fibers, kind).norms)
        # one point, 3 points and a remainder of 1, one whole fiber, and 5
        # whole fibers and a remainder of 1 per block
        for block in (1, 3, 4, 20):
            monkeypatch.setattr(twistor, "_BLOCK", block)
            assert np.array_equal(fiber_residuals(batch, fibers, kind).norms, full.norms)
        monkeypatch.undo()


def _traceless_symmetric(rng):
    w = rng.normal(size=(3, 3))
    w = w + w.T
    return w - (np.trace(w) / 3.0) * np.eye(3)


def _curvature_parts(rng):
    """Random operators (6, 6) of each SO(4) part alone, keyed by the flag
    that says the part vanishes: W+, W-, B and s Id / 12."""
    z = np.zeros((3, 3))
    b = rng.normal(size=(3, 3))
    return {
        "wplus_zero": np.block([[_traceless_symmetric(rng), z], [z, z]]),
        "wminus_zero": np.block([[z, z], [z, _traceless_symmetric(rng)]]),
        "einstein": np.block([[z, b], [b.T, z]]),
        "scalar_zero": rng.normal() * np.eye(6),  # s Id / 12 for s = 12 times a normal draw
    }


def _geometry_of(op):
    """A geometry holding only the rf whose read-out is op: the columns
    U6^T op U6 are the pair coordinates of R on each basis wedge."""
    cols = U6.T @ op @ U6
    gc = object.__new__(PointGeometry)
    gc.rf = np.einsum("rc,rpq->cpq", cols, np.array([basis_wedge(*pair) for pair in WEDGE_PAIRS]))
    return gc


def _only_false(flag):
    """Flags with flag false and every other vanishing condition true;
    predict reads the booleans only."""
    zeros = dict.fromkeys(("wplus_zero", "wminus_zero", "einstein", "scalar_zero"), True) | {flag: False}
    return CurvatureFlags(**zeros, flat=False, wplus_norm=0.0, wminus_norm=0.0, b_norm=0.0, scalar_norm=0.0,
                          threshold=DEFAULT_FLAG_THRESHOLD)


_CELLS = [(tag, kind) for kind in StructureKind for tag in ComponentTag
          if kind is not StructureKind.SEMI or tag.mixed]


@pytest.mark.parametrize("tag, kind", _CELLS, ids=lambda v: v.name if isinstance(v, ComponentTag) else v.value)
def test_curvature_part_support_is_the_prediction(tag, kind):
    """Each family is linear in rf and SO(4)-equivariant, so by Schur's
    lemma it responds to a curvature part (W+, W-, B, s) or annihilates it.
    The parts a cell's residual responds to are exactly the conjuncts of
    predict's rule for that cell: a part alone is obstructed exactly when
    predict, told that only its flag is false, says obstructed."""
    rng = np.random.default_rng(87)
    ab = rng.normal(size=(64, 2, 3))
    ab /= np.linalg.norm(ab, axis=-1, keepdims=True)
    blocks = fiber_blocks(tag, ab)
    for flag, op in _curvature_parts(rng).items():
        gc = _geometry_of(op)
        np.testing.assert_allclose(gc.operator, op, rtol=0, atol=1e-14)
        residual = fiber_residuals(gc, blocks, kind).norms.max()
        if predict(_only_false(flag)).expected(tag, kind):
            assert residual <= 1e-13, (flag, residual)
        else:
            assert residual > 1e-2, (flag, residual)


def test_curvature_terms_once_per_slot_pair():
    # R(omega1) and R(omega2) depend on a family's two wedge slots only:
    # J evaluates them for 3 slot pairs, J1 and semi for 1
    pairs = {kind: twistor._KIND_PLANS[kind][1].tolist() for kind in StructureKind}
    assert pairs == {
        StructureKind.GENJ: [[0, 0], [0, 1], [1, 1]],
        StructureKind.ALMOST_J1: [[0, 0]],
        StructureKind.SEMI: [[0, 0]],
    }


def test_kernel_validation():
    m = metric_by_name("flat")
    gc = generalized_curvature(m, np.zeros(4))
    with pytest.raises(UsageError):
        fiber_residuals(gc, np.empty((0, 2, 4, 4)))


def test_semi_equals_second_family_on_mixed():
    m = metric_by_name("schwarzschild")
    p = np.array([2.4, 2.2, 2.5, 2.4])
    gc = generalized_curvature(m, p)
    rng = np.random.default_rng(74)
    for tag in (ComponentTag.PM, ComponentTag.MP):
        f = random_fiber(tag, rng)
        semi = semi_integrability_residual(m, p, f, gc=gc)
        full = constraints_J1(m, p, f, gc=gc)
        assert semi == pytest.approx(full.norms["C2'"], rel=1e-12)


def test_semi_rejects_pure_components():
    m = metric_by_name("flat")
    f = random_fiber(ComponentTag.PP, np.random.default_rng(75))
    with pytest.raises(UsageError):
        semi_integrability_residual(m, np.zeros(4), f)

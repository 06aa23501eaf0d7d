"""Pointwise integrability residuals of the twistor-space structures.

A fiber point over a base point is a pair of unit 3-vectors (a, b)
together with a component tag: u1 = a . (I, J, K) of the first tagged
duality side and u2 = b . (I, J, K) of the second.  The pair defines the
metric-compatible structure diag(u1, u2) in PM coordinates; on the
twistor space it induces

* a generalized almost complex structure (kind "J"), and
* an ordinary almost complex structure (kind "J1") acting by u1 on the
  horizontal distribution and by the fiber rotation vertically.

Both have their full integrability obstruction concentrated in curvature
commutator expressions evaluated fiberwise over the orthonormal frame.
With

    omega1(i, j) = t_i ^ t_j  -  u_a t_i ^ u_b t_j
    omega2(i, j) = u_a t_i ^ t_j  +  t_i ^ u_b t_j

the constraint family is

    E = [u_c, R(omega1) + u_c R(omega2)]      c in {1, 2}

maximised over the 12 ordered frame index pairs (i, j), i != j.  The
plus sign in omega2 is fixed by the finite-difference Nijenhuis oracle:
on a pure-component fiber of the round sphere its horizontal blocks
match the closed form only with this sign (acceptance criterion 6 and
test_unit_sphere_horizontal_pairs_match_closed_form).  The labels:

    C1: args (u1, u1), commutator u1      C2: args (u1, u1), commutator u2
    C3: args (u2, u2), commutator u1      C4: args (u2, u2), commutator u2
    C5: args (u1, u2), commutator u1      C6: args (u1, u2), commutator u2

The generalized structure is integrable iff all six families vanish; the
almost complex structure J1 needs only the first two (labelled C1', C2');
semi-integrability (closure of the projection bracket) needs only C2',
and is meaningful on the mixed components where it detects exactly the
Einstein condition.

Every family is linear in the frame curvature.  PointGeometry.rf is
its one stored form, the antisymmetric array Rf[a, b] = R(t_a, t_b), a
4x4 endomorphism for each frame pair, so that R(x ^ y) = x^a y^b Rf[a, b].
With u_a t_i the i-th column of u_a, the curvature terms at (i, j) are

    R(t_i ^ t_j)                        = Rf[i, j]
    R(u_a t_i ^ u_b t_j)                = u_a[a, i] u_b[b, j] Rf[a, b]
    R(u_a t_i ^ t_j) + R(t_i ^ u_b t_j) = u_a[a, i] Rf[a, j] + u_b[b, j] Rf[i, b]

fiber_residuals evaluates them as einsums over a geometry's base points
(...) x a batch of fibers x the families x the 12 ordered pairs, and
returns the Frobenius norms, maximised over the pairs, as an array
(..., fiber, family).  R(omega1) and R(omega2) depend only on a family's
two wedge slots, so they are evaluated once per distinct slot pair (3
for J, 1 for J1 and semi).  The (point, fiber) pairs run in blocks of
_BLOCK, which bounds memory; a value does not depend on its block.  J1
is the (C1, C2) columns and semi the C2 column alone; constraints_genJ,
constraints_J1 and semi_integrability_residual are one-fiber calls into
it.  _constraint_block evaluates one family at one pair through
PointGeometry.rc, the contraction of Rf with one bivector, and is the
reference the kernel is tested against; the 8x8 obstruction matrices
and the oracle's closed form are built from it.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bivector import basis_wedge, unit_combination, wedge
from .errors import InvalidInputError, UsageError
from .gca import ComponentTag, GenStructure, structure_from_blocks, type_of
from .metrics import MetricSpec
from .riemann import PointGeometry, generalized_curvature

_UNIT_TOL = 1e-12

# All ordered index pairs.  For families whose two wedge slots carry the
# same block the (j, i) value is minus the (i, j) one, but for the mixed
# slot assignments the two orders are genuinely different constraints
# (swapping the indices swaps which slot carries which block), so the
# maximisation must run over ordered pairs.
_ORDERED_PAIRS = tuple((i, j) for i in range(4) for j in range(4) if i != j)

GENJ_LABELS = ("C1", "C2", "C3", "C4", "C5", "C6")
J1_LABELS = ("C1'", "C2'")


class StructureKind(enum.Enum):
    GENJ = "J"
    ALMOST_J1 = "J1"
    SEMI = "semi"


@dataclass(frozen=True)
class FiberPoint:
    """Unit-sphere pair (a, b) with its component tag."""

    a: np.ndarray
    b: np.ndarray
    tag: ComponentTag

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (3,) or b.shape != (3,):
            raise UsageError("fiber point needs two 3-vectors")
        for name, v in (("a", a), ("b", b)):
            if not abs(np.linalg.norm(v) - 1.0) <= _UNIT_TOL:  # NaN fails too
                raise InvalidInputError(f"fiber vector {name} is not unit length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @staticmethod
    def normalized(a, b, tag: ComponentTag) -> "FiberPoint":
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0.0 or nb == 0.0:
            raise InvalidInputError("fiber vectors must be nonzero")
        return FiberPoint(a / na, b / nb, tag)


@dataclass(frozen=True)
class TwistorPoint:
    """A base point together with a fiber point over it."""

    p: np.ndarray
    f: FiberPoint

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (4,):
            raise UsageError("base point must be a 4-vector")
        object.__setattr__(self, "p", p)


def random_fiber(tag: ComponentTag, rng: np.random.Generator) -> FiberPoint:
    """Uniform fiber sample; draws exactly six normals, so sequences of
    samples from one generator are prefix stable."""
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    return FiberPoint(a / np.linalg.norm(a), b / np.linalg.norm(b), tag)


def sphere_directions(n: int) -> np.ndarray:
    """n distinct unit 3-vectors from the Fibonacci lattice."""
    idx = np.arange(n) + 0.5
    polar = np.arccos(1.0 - 2.0 * idx / n)
    azim = np.pi * (1.0 + np.sqrt(5.0)) * idx
    return np.stack(
        [np.sin(polar) * np.cos(azim), np.sin(polar) * np.sin(azim), np.cos(polar)], axis=1
    )


def fiber_to_structures(f: FiberPoint) -> tuple[np.ndarray, np.ndarray]:
    """(u1, u2) 4x4 blocks over the orthonormal frame."""
    s1, s2 = f.tag.signs
    return unit_combination(f.a, s1), unit_combination(f.b, s2)


def structure_from_fiber(f: FiberPoint) -> GenStructure:
    u1, u2 = fiber_to_structures(f)
    return structure_from_blocks(u1, u2)


def type_of_genJ(f: FiberPoint) -> int:
    """Type of the twistor structure at the fiber point: two horizontal
    complex dimensions plus the type of the fiber structure.

    Jumps: 4 on the diagonal of a pure component (u1 = u2), 2 elsewhere
    on pure components, 3 everywhere on mixed components."""
    return 2 + type_of(structure_from_fiber(f))


@dataclass(frozen=True)
class ConstraintResiduals:
    """Curvature commutator residuals for one (point, fiber) evaluation.

    norms[label] is the Frobenius norm maximised over the 12 ordered
    frame index pairs."""

    norms: dict[str, float]


def _omega_pair(u_a: np.ndarray, u_b: np.ndarray, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    ei = np.zeros(4)
    ej = np.zeros(4)
    ei[i] = 1.0
    ej[j] = 1.0
    ua_i = u_a[:, i]
    ub_j = u_b[:, j]
    w1 = basis_wedge(i, j) - wedge(ua_i, ub_j)
    w2 = wedge(ua_i, ej) + wedge(ei, ub_j)
    return w1, w2


def _constraint_block(
    gc: PointGeometry,
    u_a: np.ndarray,
    u_b: np.ndarray,
    u_c: np.ndarray,
    i: int,
    j: int,
) -> np.ndarray:
    w1, w2 = _omega_pair(u_a, u_b, i, j)
    inner = gc.rc(w1) + u_c @ gc.rc(w2)
    return u_c @ inner - inner @ u_c


# Blocks feeding each family, as indices into (u1, u2): first wedge slot,
# second wedge slot, commutator.  Per kind: the labels, the distinct wedge
# slot pairs, each family's slot pair and its commutator block.
_FAMILY_SLOTS = np.array([(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1)])
_KIND_PLANS = {
    kind: (labels, *np.unique(_FAMILY_SLOTS[columns, :2], axis=0, return_inverse=True), _FAMILY_SLOTS[columns, 2])
    for kind, labels, columns in (
        (StructureKind.GENJ, GENJ_LABELS, slice(0, 6)),
        (StructureKind.ALMOST_J1, J1_LABELS, slice(0, 2)),
        (StructureKind.SEMI, ("C2'",), slice(1, 2)),
    )
}
_PAIR_I, _PAIR_J = np.array(_ORDERED_PAIRS).T
# (point, fiber) pairs per kernel block: about 13 MB of J temporaries
_BLOCK = 256


@dataclass(frozen=True)
class FiberResiduals:
    """Kernel output for a batch of fibers over the base points of gc.

    norms[..., n, k] is the Frobenius norm of family labels[k] at fibers[n]
    over base point [...], maximised over the 12 ordered index pairs."""

    labels: tuple[str, ...]
    norms: np.ndarray

    def fiber(self, n: int) -> ConstraintResiduals:
        """The residuals of fibers[n] over a one-point gc, in the one-fiber form."""
        return ConstraintResiduals({label: float(v) for label, v in zip(self.labels, self.norms[n])})


def fiber_residuals(
    gc: PointGeometry,
    fibers: Sequence[FiberPoint],
    kind: StructureKind = StructureKind.GENJ,
) -> FiberResiduals:
    """All residual families of one structure kind, for a batch of fibers
    over each base point of gc, in blocks of _BLOCK (point, fiber) pairs."""
    if not fibers:
        raise UsageError("need at least one fiber point")
    if kind is StructureKind.SEMI and not all(f.tag.mixed for f in fibers):
        raise UsageError("semi-integrability is defined on the mixed components only")
    labels, slot_pairs, family_pair, commutator = _KIND_PLANS[kind]
    u = np.array([fiber_to_structures(f) for f in fibers])  # (fiber, block, 4, 4)
    rf_points = gc.rf.reshape(-1, 4, 4, 4, 4)
    norms = np.empty((len(rf_points) * len(fibers), len(labels)))
    for start in range(0, len(norms), _BLOCK):
        # x runs over the block's (point, fiber) pairs, point-major
        point, fiber = np.divmod(np.arange(start, min(start + _BLOCK, len(norms))), len(fibers))
        rf, ux = rf_points[point], u[fiber]
        # columns i of u_a and j of u_b, one per ordered pair: (x, slot pair, 4, pair)
        ua = ux[:, slot_pairs[:, 0]][..., _PAIR_I]
        ub = ux[:, slot_pairs[:, 1]][..., _PAIR_J]
        uc = ux[:, commutator, None]
        # the curvature terms of the module docstring, once per slot pair:
        # rc1 = R(w1), rc2 = R(w2)
        wedge_ab = np.einsum("xsan,xsbn->xsnab", ua, ub)
        rc1 = rf[:, None, _PAIR_I, _PAIR_J] - np.einsum("xsnab,xabpq->xsnpq", wedge_ab, rf)
        rc2 = np.einsum("xsan,xanpq->xsnpq", ua, rf[:, :, _PAIR_J]) + np.einsum("xsbn,xnbpq->xsnpq", ub, rf[:, _PAIR_I])
        inner = rc1[:, family_pair] + uc @ rc2[:, family_pair]
        e = uc @ inner - inner @ uc  # (x, family, pair, 4, 4)
        norms[start:start + len(point)] = np.linalg.norm(e, axis=(-2, -1)).max(axis=2)
    return FiberResiduals(labels, norms.reshape(gc.rf.shape[:-4] + (len(fibers), len(labels))))


def constraints_genJ(
    metric: MetricSpec,
    p: np.ndarray,
    f: FiberPoint,
    gc: PointGeometry | None = None,
) -> ConstraintResiduals:
    """All six residual families of the generalized structure."""
    if gc is None:
        gc = generalized_curvature(metric, p)
    return fiber_residuals(gc, [f], StructureKind.GENJ).fiber(0)


def constraints_J1(
    metric: MetricSpec,
    p: np.ndarray,
    f: FiberPoint,
    gc: PointGeometry | None = None,
) -> ConstraintResiduals:
    """The two residual families of the ordinary almost complex structure."""
    if gc is None:
        gc = generalized_curvature(metric, p)
    return fiber_residuals(gc, [f], StructureKind.ALMOST_J1).fiber(0)


def semi_integrability_residual(
    metric: MetricSpec,
    p: np.ndarray,
    f: FiberPoint,
    gc: PointGeometry | None = None,
) -> float:
    """Residual of the projected (semi-integrability) condition: the C2'
    family alone.  Only meaningful on mixed components."""
    if not f.tag.mixed:
        raise UsageError("semi-integrability is defined on the mixed components only")
    if gc is None:
        gc = generalized_curvature(metric, p)
    return float(fiber_residuals(gc, [f], StructureKind.SEMI).norms[0, 0])


def doubled_obstruction_matrix(
    metric: MetricSpec,
    p: np.ndarray,
    f: FiberPoint,
    i: int,
    j: int,
    args: tuple[int, int] = (1, 1),
    gc: PointGeometry | None = None,
) -> np.ndarray:
    """8x8 obstruction matrix computed through the full doubled path.

    E = Rhat(omega1) + J Rhat(omega2) with Rhat(w) = [J, R_g(w)] and
    J = diag(u1, u2); args selects which block (1 or 2) feeds each slot
    of the wedges.  Must equal the blockwise assembly exactly (up to
    roundoff); see the companion test."""
    if gc is None:
        gc = generalized_curvature(metric, p)
    u1, u2 = fiber_to_structures(f)
    blocks = {1: u1, 2: u2}
    ua, ub = blocks[args[0]], blocks[args[1]]
    w1, w2 = _omega_pair(ua, ub, i, j)
    z = np.zeros((4, 4))
    jj = np.block([[u1, z], [z, u2]])
    rg1 = gc.rg(w1)
    rg2 = gc.rg(w2)
    rhat1 = jj @ rg1 - rg1 @ jj
    rhat2 = jj @ rg2 - rg2 @ jj
    return rhat1 + jj @ rhat2


def blockwise_obstruction_matrix(
    metric: MetricSpec,
    p: np.ndarray,
    f: FiberPoint,
    i: int,
    j: int,
    args: tuple[int, int] = (1, 1),
    gc: PointGeometry | None = None,
) -> np.ndarray:
    """Same 8x8 obstruction assembled from the two 4x4 commutator blocks."""
    if gc is None:
        gc = generalized_curvature(metric, p)
    u1, u2 = fiber_to_structures(f)
    blocks = {1: u1, 2: u2}
    ua, ub = blocks[args[0]], blocks[args[1]]
    top = _constraint_block(gc, ua, ub, u1, i, j)
    bot = _constraint_block(gc, ua, ub, u2, i, j)
    z = np.zeros((4, 4))
    return np.block([[top, z], [z, bot]])

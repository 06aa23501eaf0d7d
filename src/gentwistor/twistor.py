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

maximised over the 16 ordered frame index pairs (i, j).  When both wedge
slots carry the same block (a = b), omega1 and omega2 are skew in (i, j),
so E(j, i) = -E(i, j) and E(i, i) = 0 exactly and the 6 pairs i < j give
the maximum; the kernel evaluates those families there and the mixed-slot
ones (C5, C6) at all 16.  The plus
sign in omega2 is fixed by the finite-difference Nijenhuis oracle: on a
pure-component fiber of the round sphere its horizontal blocks match
the closed form only with this sign (acceptance criterion 6 and
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
its one stored form, the six slices Rf[k] = R(t_a ^ t_b) for (a, b) =
WEDGE_PAIRS[k], so R(w) = sum_k w_k Rf[k] for w = sum_k w_k t_a ^ t_b,
and E is linear in the 12 coordinates w_k of omega1 and omega2, which
depend on the fiber alone, with coefficients [u_c, Rf[k]] and
u_c [u_c, Rf[k]] = [u_c, u_c Rf[k]].  fiber_residuals takes the fibers
as their (u1, u2) blocks, (fiber, 2, 4, 4) as fiber_blocks builds them,
builds the coordinates by elementwise products of entries gathered with
one take, once per distinct wedge slot pair (3 for J, 1 for J1 and semi)
and index pair (6 for a same-slot pair, 16 for the mixed one: 28 rows
for J, 6 for J1 and semi), applies R -> [u_c, R] as a 16x16 Kronecker
matrix to the six Rf[k] of a block's base points in one GEMM, contracts
with the coordinates in one batched matmul, and returns the square root
of the largest sum of squares over each slot pair's rows: Frobenius
norms (..., fiber, family).  Blocks of at most _BLOCK (point, fiber)
pairs, whole fibers or else one fiber's points, bound memory; a value
depends neither on its block nor on the other points.  J1 is the (C1,
C2) columns and semi the C2 column alone; constraints_genJ,
constraints_J1 and semi_integrability_residual each build a geometry
and call it once.
_constraint_block evaluates one family at one pair through
PointGeometry.rc, the contraction of Rf with one bivector, and is the
reference the kernel is tested against; the 8x8 obstruction matrices
and the oracle's closed form are built from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bivector import TRIPLES, WEDGE_I, WEDGE_J, basis_wedge, wedge
from .errors import InvalidInputError, UsageError
from .gca import ComponentTag, GenStructure, structure_from_blocks, type_of
from .metrics import MetricSpec
from .numerics import UNIT_TOL
from .riemann import PointGeometry, generalized_curvature

# All 16 ordered index pairs, i-major.  A same-slot family needs only the 6
# with i < j: its (j, i) block is minus its (i, j) block and its (i, i) block
# is zero.  For the mixed slot assignments (i, j) and (j, i) are different
# constraints (swapping the indices swaps which slot carries which block)
# and omega1(i, i) = -u1 t_i ^ u2 t_i is not zero, so they need all 16.
_PAIR_I, _PAIR_J = np.divmod(np.arange(16), 4)

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
        if not isinstance(self.tag, ComponentTag):
            raise UsageError(f"fiber tag must be a ComponentTag, got {self.tag!r}")
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (3,) or b.shape != (3,):
            raise UsageError("fiber point needs two 3-vectors")
        for name, v in (("a", a), ("b", b)):
            if not abs(np.linalg.norm(v) - 1.0) <= UNIT_TOL:  # NaN fails too
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


def random_fibers(n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform fiber samples as unit pairs (n, 2, 3).  Each draws exactly
    six normals, so samples from one generator are prefix stable, drawn
    at once or one by one."""
    ab = rng.normal(size=(n, 2, 3))
    return ab / np.sqrt(np.vecdot(ab, ab))[..., None]


def random_fiber(tag: ComponentTag, rng: np.random.Generator) -> FiberPoint:
    """One uniform fiber sample of the tag's component."""
    return FiberPoint(*random_fibers(1, rng)[0], tag)


def sphere_directions(n: int) -> np.ndarray:
    """n distinct unit 3-vectors from the Fibonacci lattice."""
    idx = np.arange(n) + 0.5
    polar = np.arccos(1.0 - 2.0 * idx / n)
    azim = np.pi * (1.0 + np.sqrt(5.0)) * idx
    return np.stack(
        [np.sin(polar) * np.cos(azim), np.sin(polar) * np.sin(azim), np.cos(polar)], axis=1
    )


# per component, the generator triple of each block's duality side: (2, 3, 4, 4)
_TAG_TRIPLES = {tag: np.array([TRIPLES[sign] for sign in tag.signs]) for tag in ComponentTag}


def fiber_blocks(tag: ComponentTag, ab: np.ndarray) -> np.ndarray:
    """fiber_to_structures of the tag's fibers with unit pairs ab (..., 2, 3): (..., 2, 4, 4),
    each block the sum unit_combination forms, in its order."""
    terms = ab[..., None, None] * _TAG_TRIPLES[tag]
    return terms[..., 0, :, :] + terms[..., 1, :, :] + terms[..., 2, :, :]


def fiber_to_structures(f: FiberPoint) -> np.ndarray:
    """The (u1, u2) 4x4 blocks over the orthonormal frame, stacked: (2, 4, 4)."""
    return fiber_blocks(f.tag, np.stack([f.a, f.b]))


def structure_from_fiber(f: FiberPoint) -> GenStructure:
    return structure_from_blocks(*fiber_to_structures(f))


def type_of_genJ(f: FiberPoint) -> int:
    """Type of the twistor structure at the fiber point: two horizontal
    complex dimensions plus the type of the fiber structure.

    Jumps: 4 on the diagonal of a pure component (u1 = u2), 2 elsewhere
    on pure components, 3 everywhere on mixed components."""
    return 2 + type_of(structure_from_fiber(f))


@dataclass(frozen=True)
class ConstraintResiduals:
    """Curvature commutator residuals for one (point, fiber) evaluation.

    norms[label] is the Frobenius norm maximised over the 16 ordered
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


def _wedge_coords(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinates of x ^ y over the basis wedges t_a ^ t_b (a < b), for vectors (..., 4)."""
    return x[..., WEDGE_I] * y[..., WEDGE_J] - x[..., WEDGE_J] * y[..., WEDGE_I]


# Blocks feeding each family, as indices into (u1, u2): first wedge slot,
# second wedge slot, commutator.
_FAMILY_SLOTS = np.array([(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1)])
_EYE = np.eye(4)
# R -> [u, R] = (u kron Id - Id kron u^T) R on row-major R, linear in u's 16 entries
_COMMUTATOR = np.array([np.kron(e, _EYE) - np.kron(_EYE, e.T) for e in np.eye(16).reshape(16, 4, 4)]).reshape(16, 256)
# most (point, fiber) pairs per kernel block
_BLOCK = 256


class _Plan(NamedTuple):
    """A kind's families as rows of the kernel.

    Each distinct wedge slot pair (a, b) owns a run of rows, one per index
    pair (i, j): the 6 pairs i < j when a == b, all 16 otherwise, starting
    at starts[s].  At row r and basis wedge k, with x = u_a t_i and
    y = u_b t_j, gather[:, r, k] indexes x[WI], x[WJ], y[WJ] and y[WI] in a
    fiber's 32 block entries, and units[:, r, k] holds t_j[WJ], t_j[WI],
    t_i[WI] and t_i[WJ], the factors that give x ^ t_j and t_i ^ y."""

    labels: tuple[str, ...]
    slot_pairs: np.ndarray
    family_pair: np.ndarray
    commutators: np.ndarray
    family_commutator: np.ndarray
    starts: np.ndarray
    gather: np.ndarray
    units: np.ndarray
    basis: np.ndarray  # the coordinates of t_i ^ t_j per row


def _plan(labels: tuple[str, ...], columns: slice) -> _Plan:
    slot_pairs, family_pair = np.unique(_FAMILY_SLOTS[columns, :2], axis=0, return_inverse=True)
    commutators, family_commutator = np.unique(_FAMILY_SLOTS[columns, 2], return_inverse=True)
    pairs = [np.flatnonzero(_PAIR_I < _PAIR_J) if a == b else np.arange(16) for a, b in slot_pairs]
    sizes = [len(p) for p in pairs]
    i, j = _PAIR_I[np.concatenate(pairs)], _PAIR_J[np.concatenate(pairs)]
    # the slot pair of each row
    a, b = np.repeat(slot_pairs, sizes, axis=0).T[..., None]
    ti, tj = _EYE[i], _EYE[j]
    i, j = i[:, None], j[:, None]
    # x_k = u_a[k, i] and y_k = u_b[k, j] are entries a*16 + 4k + i and b*16 + 4k + j
    gather = np.stack([16 * a + 4 * WEDGE_I + i, 16 * a + 4 * WEDGE_J + i, 16 * b + 4 * WEDGE_J + j, 16 * b + 4 * WEDGE_I + j])
    units = np.stack([tj[:, WEDGE_J], tj[:, WEDGE_I], ti[:, WEDGE_I], ti[:, WEDGE_J]])
    return _Plan(labels, slot_pairs, family_pair, commutators, family_commutator,
                 np.cumsum([0] + sizes[:-1]), gather, units, _wedge_coords(ti, tj))


_KIND_PLANS = {
    StructureKind.GENJ: _plan(GENJ_LABELS, slice(0, 6)),
    StructureKind.ALMOST_J1: _plan(J1_LABELS, slice(0, 2)),
    StructureKind.SEMI: _plan(("C2'",), slice(1, 2)),
}


@dataclass(frozen=True)
class FiberResiduals:
    """Kernel output for a batch of fibers over the base points of gc.

    norms[..., n, k] is the Frobenius norm of family labels[k] at fiber u[n]
    over base point [...], maximised over the 16 ordered index pairs."""

    labels: tuple[str, ...]
    norms: np.ndarray


def fiber_residuals(gc: PointGeometry, u: np.ndarray, kind: StructureKind = StructureKind.GENJ) -> FiberResiduals:
    """All residual families of one structure kind, for fibers over each base
    point of gc.  u holds the fibers' (u1, u2) blocks, (fiber, 2, 4, 4) as
    fiber_blocks builds them; they carry no component tag, so the caller
    owns the check that semi runs on the mixed components."""
    if not isinstance(kind, StructureKind):
        raise UsageError(f"kind must be a StructureKind, got {kind!r}")
    if np.ndim(u) != 4 or np.shape(u)[1:] != (2, 4, 4):
        raise UsageError(f"u must be fiber blocks of shape (fiber, 2, 4, 4), got shape {np.shape(u)}")
    if len(u) == 0:
        raise UsageError("need at least one fiber point")
    plan = _KIND_PLANS[kind]
    commutators, rows = plan.commutators, len(plan.basis)
    rf = gc.rf.reshape(-1, 6, 4, 4)  # (point, wedge, 4, 4)
    points = len(rf)
    if points == 0:
        raise UsageError("need at least one base point")
    fiber_step, point_step = max(1, _BLOCK // points), min(points, _BLOCK)
    norms = np.empty((points, len(u), len(plan.labels)))
    for start in range(0, len(u), fiber_step):
        ux = u[start:start + fiber_step]
        n = len(ux)
        # coordinates of omega1 = t_i ^ t_j - x ^ y and omega2 = x ^ t_j + t_i ^ y,
        # x = u_a t_i and y = u_b t_j, per row: (fiber, row, 12)
        xy = ux.reshape(n, 32).take(plan.gather, axis=1)  # x[WI], x[WJ], y[WJ], y[WI]
        outer = xy[:, :2] * xy[:, 2:]
        units = xy * plan.units
        xy_wedge, units_wedge = outer[:, 0] - outer[:, 1], units[:, 0::2] - units[:, 1::2]
        coords = np.empty((n, 1, 1, rows, 12))
        np.subtract(plan.basis, xy_wedge, out=coords[:, 0, 0, :, :6])
        np.add(units_wedge[:, 0], units_wedge[:, 1], out=coords[:, 0, 0, :, 6:])
        # [u_c, R] and [u_c, u_c R] = u_c [u_c, R] for every wedge slice R of
        # rf, the first as one GEMM: (fiber, commutator, t, p, q, point, wedge)
        uc = ux[:, commutators]
        maps = (uc.reshape(-1, 16) @ _COMMUTATOR).reshape(-1, 16)
        for first in range(0, points, point_step):
            images = (maps @ rf[first:first + point_step].reshape(-1, 16).T).reshape(n, len(commutators), 1, 4, -1)
            images = np.concatenate([images, uc[:, :, None] @ images], axis=2).reshape(n, len(commutators), 2, 16, -1, 6)
            images = images.transpose(0, 1, 4, 2, 5, 3).reshape(n, len(commutators), -1, 12, 16)
            e = coords @ images  # (fiber, commutator, point, row, 16)
            sq = np.maximum.reduceat(np.vecdot(e, e), plan.starts, axis=-1)  # (fiber, commutator, point, slot pair)
            norms[first:first + point_step, start:start + n] = np.sqrt(sq).transpose(2, 0, 3, 1)[..., plan.family_pair, plan.family_commutator]
    return FiberResiduals(plan.labels, norms.reshape(gc.rf.shape[:-3] + (len(u), len(plan.labels))))


def _one_fiber(metric: MetricSpec, p: np.ndarray, f: FiberPoint, kind: StructureKind) -> dict[str, float]:
    """The kind's residual families at one fiber over one base point, by label."""
    if kind is StructureKind.SEMI and not f.tag.mixed:
        raise UsageError("semi-integrability is defined on the mixed components only")
    result = fiber_residuals(generalized_curvature(metric, p), fiber_to_structures(f)[None], kind)
    return dict(zip(result.labels, result.norms[0].tolist()))


def constraints_genJ(metric: MetricSpec, p: np.ndarray, f: FiberPoint) -> ConstraintResiduals:
    """All six residual families of the generalized structure."""
    return ConstraintResiduals(_one_fiber(metric, p, f, StructureKind.GENJ))


def constraints_J1(metric: MetricSpec, p: np.ndarray, f: FiberPoint) -> ConstraintResiduals:
    """The two residual families of the ordinary almost complex structure."""
    return ConstraintResiduals(_one_fiber(metric, p, f, StructureKind.ALMOST_J1))


def semi_integrability_residual(metric: MetricSpec, p: np.ndarray, f: FiberPoint) -> float:
    """Residual of the projected (semi-integrability) condition: the C2'
    family alone.  Only meaningful on mixed components."""
    return _one_fiber(metric, p, f, StructureKind.SEMI)["C2'"]


def _slot_blocks(u: np.ndarray, args: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of u = (u1, u2) that args, 1 or 2 each, feed into the two wedge slots."""
    if not set(args) <= {1, 2}:
        raise UsageError(f"args must be 1 or 2 each, got {args}")
    return u[args[0] - 1], u[args[1] - 1]


def doubled_obstruction_matrix(
    metric: MetricSpec,
    p: np.ndarray,
    f: FiberPoint,
    i: int,
    j: int,
    args: tuple[int, int] = (1, 1),
) -> np.ndarray:
    """8x8 obstruction matrix computed through the full doubled path.

    E = Rhat(omega1) + J Rhat(omega2) with Rhat(w) = [J, R_g(w)] and
    J = diag(u1, u2); args selects which block (1 or 2) feeds each slot
    of the wedges.  Must equal the blockwise assembly exactly (up to
    roundoff); see the companion test."""
    gc = generalized_curvature(metric, p)
    u = fiber_to_structures(f)
    w1, w2 = _omega_pair(*_slot_blocks(u, args), i, j)
    z = np.zeros((4, 4))
    jj = np.block([[u[0], z], [z, u[1]]])
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
) -> np.ndarray:
    """Same 8x8 obstruction assembled from the two 4x4 commutator blocks."""
    gc = generalized_curvature(metric, p)
    u = fiber_to_structures(f)
    ua, ub = _slot_blocks(u, args)
    top = _constraint_block(gc, ua, ub, u[0], i, j)
    bot = _constraint_block(gc, ua, ub, u[1], i, j)
    z = np.zeros((4, 4))
    return np.block([[top, z], [z, bot]])

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

maximised over the 16 ordered frame index pairs (i, j).  The plus
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
builds the coordinates by elementwise products, once per distinct wedge
slot pair (3 for J, 1 for J1 and semi; zero at i = j for same-slot
families), applies R -> [u_c, R] as a 16x16 Kronecker matrix to the six
Rf[k] of a block's base points in one GEMM, contracts with the
coordinates in one batched matmul, and returns the square root of the
largest sum of squares over the pairs: Frobenius norms (..., fiber,
family).  Blocks of at most _BLOCK (point, fiber) pairs, whole fibers
or else one fiber's points, bound memory; a value depends neither on
its block nor on the other points.  J1 is the (C1, C2) columns and semi
the C2 column alone; constraints_genJ, constraints_J1 and
semi_integrability_residual are one-fiber calls into it.
_constraint_block evaluates one family at one pair through
PointGeometry.rc, the contraction of Rf with one bivector, and is the
reference the kernel is tested against; the 8x8 obstruction matrices
and the oracle's closed form are built from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bivector import WEDGE_I, WEDGE_J, basis_wedge, unit_combination, wedge
from .errors import InvalidInputError, UsageError
from .gca import ComponentTag, GenStructure, structure_from_blocks, type_of
from .metrics import MetricSpec
from .numerics import UNIT_TOL
from .riemann import PointGeometry, generalized_curvature

# All 16 ordered index pairs, i-major: for the mixed slot assignments (i, j)
# and (j, i) are different constraints (swapping the indices swaps which slot
# carries which block) and omega1(i, i) = -u1 t_i ^ u2 t_i is not zero.
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


def fiber_blocks(tag: ComponentTag, ab: np.ndarray) -> np.ndarray:
    """fiber_to_structures of the tag's fibers with unit pairs ab (..., 2, 3): (..., 2, 4, 4)."""
    s1, s2 = tag.signs
    return np.stack([unit_combination(ab[..., 0, :], s1), unit_combination(ab[..., 1, :], s2)], axis=-3)


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


# Blocks feeding each family, as indices into (u1, u2): first wedge slot,
# second wedge slot, commutator.  Per kind: the labels, the distinct slot
# pairs and commutators, and each family's index into each.
_FAMILY_SLOTS = np.array([(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1)])
_KIND_PLANS = {
    kind: (labels, *np.unique(_FAMILY_SLOTS[columns, :2], axis=0, return_inverse=True),
           *np.unique(_FAMILY_SLOTS[columns, 2], return_inverse=True))
    for kind, labels, columns in (
        (StructureKind.GENJ, GENJ_LABELS, slice(0, 6)),
        (StructureKind.ALMOST_J1, J1_LABELS, slice(0, 2)),
        (StructureKind.SEMI, ("C2'",), slice(1, 2)),
    )
}
_EYE = np.eye(4)
# R -> [u, R] = (u kron Id - Id kron u^T) R on row-major R, linear in u's 16 entries
_COMMUTATOR = np.array([np.kron(e, _EYE) - np.kron(_EYE, e.T) for e in np.eye(16).reshape(16, 4, 4)]).reshape(16, 256)
# most (point, fiber) pairs per kernel block
_BLOCK = 256


def _wedge_coords(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinates of x ^ y over the basis wedges t_a ^ t_b (a < b), for vectors (..., 4)."""
    return x[..., WEDGE_I] * y[..., WEDGE_J] - x[..., WEDGE_J] * y[..., WEDGE_I]


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
    if len(u) == 0:
        raise UsageError("need at least one fiber point")
    labels, slot_pairs, family_pair, commutators, family_commutator = _KIND_PLANS[kind]
    rf = gc.rf.reshape(-1, 6, 4, 4)  # (point, wedge, 4, 4)
    points = len(rf)
    fiber_step, point_step = max(1, _BLOCK // points), min(points, _BLOCK)
    norms = np.empty((points, len(u), len(labels)))
    for start in range(0, len(u), fiber_step):
        ux = u[start:start + fiber_step]
        n = len(ux)
        # coordinates of omega1 = t_i ^ t_j - x ^ y and omega2 = x ^ t_j + t_i ^ y,
        # x = u_a t_i and y = u_b t_j, per slot pair and ordered pair (i, j)
        x = np.swapaxes(ux[:, slot_pairs[:, 0]], -1, -2)[:, :, _PAIR_I]
        y = np.swapaxes(ux[:, slot_pairs[:, 1]], -1, -2)[:, :, _PAIR_J]
        ti, tj = _EYE[_PAIR_I], _EYE[_PAIR_J]
        w1, w2 = _wedge_coords(ti, tj) - _wedge_coords(x, y), _wedge_coords(x, tj) + _wedge_coords(ti, y)
        coords = np.concatenate([w1, w2], axis=-1).reshape(n, 1, 1, -1, 12)
        # [u_c, R] and [u_c, u_c R] = u_c [u_c, R] for every wedge slice R of
        # rf, the first as one GEMM: (fiber, commutator, t, p, q, point, wedge)
        uc = ux[:, commutators]
        maps = (uc.reshape(-1, 16) @ _COMMUTATOR).reshape(-1, 16)
        for first in range(0, points, point_step):
            images = (maps @ rf[first:first + point_step].reshape(-1, 16).T).reshape(n, len(commutators), 1, 4, -1)
            images = np.concatenate([images, uc[:, :, None] @ images], axis=2).reshape(n, len(commutators), 2, 16, -1, 6)
            images = images.transpose(0, 1, 4, 2, 5, 3).reshape(n, len(commutators), -1, 12, 16)
            e = coords @ images  # (fiber, commutator, point, slot pair x pair, 16)
            sq = np.vecdot(e, e).reshape(e.shape[:3] + (len(slot_pairs), 16)).max(axis=-1)
            norms[first:first + point_step, start:start + n] = np.sqrt(sq).transpose(2, 0, 3, 1)[..., family_pair, family_commutator]
    return FiberResiduals(labels, norms.reshape(gc.rf.shape[:-3] + (len(u), len(labels))))


def _one_fiber(metric: MetricSpec, p: np.ndarray, f: FiberPoint, gc: PointGeometry | None,
               kind: StructureKind) -> dict[str, float]:
    """The kind's residual families at one fiber over one base point, by label."""
    if kind is StructureKind.SEMI and not f.tag.mixed:
        raise UsageError("semi-integrability is defined on the mixed components only")
    if gc is None:
        gc = generalized_curvature(metric, p)
    result = fiber_residuals(gc, fiber_to_structures(f)[None], kind)
    return dict(zip(result.labels, result.norms[0].tolist()))


def constraints_genJ(metric: MetricSpec, p: np.ndarray, f: FiberPoint,
                     gc: PointGeometry | None = None) -> ConstraintResiduals:
    """All six residual families of the generalized structure."""
    return ConstraintResiduals(_one_fiber(metric, p, f, gc, StructureKind.GENJ))


def constraints_J1(metric: MetricSpec, p: np.ndarray, f: FiberPoint,
                   gc: PointGeometry | None = None) -> ConstraintResiduals:
    """The two residual families of the ordinary almost complex structure."""
    return ConstraintResiduals(_one_fiber(metric, p, f, gc, StructureKind.ALMOST_J1))


def semi_integrability_residual(metric: MetricSpec, p: np.ndarray, f: FiberPoint,
                                gc: PointGeometry | None = None) -> float:
    """Residual of the projected (semi-integrability) condition: the C2'
    family alone.  Only meaningful on mixed components."""
    return _one_fiber(metric, p, f, gc, StructureKind.SEMI)["C2'"]


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
    gc: PointGeometry | None = None,
) -> np.ndarray:
    """8x8 obstruction matrix computed through the full doubled path.

    E = Rhat(omega1) + J Rhat(omega2) with Rhat(w) = [J, R_g(w)] and
    J = diag(u1, u2); args selects which block (1 or 2) feeds each slot
    of the wedges.  Must equal the blockwise assembly exactly (up to
    roundoff); see the companion test."""
    if gc is None:
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
    gc: PointGeometry | None = None,
) -> np.ndarray:
    """Same 8x8 obstruction assembled from the two 4x4 commutator blocks."""
    if gc is None:
        gc = generalized_curvature(metric, p)
    u = fiber_to_structures(f)
    ua, ub = _slot_blocks(u, args)
    top = _constraint_block(gc, ua, ub, u[0], i, j)
    bot = _constraint_block(gc, ua, ub, u[1], i, j)
    z = np.zeros((4, 4))
    return np.block([[top, z], [z, bot]])

"""Generalized almost complex structures on the double tangent space.

The generalized tangent space of a 4-manifold at a point is V + V*, an
8-dimensional space carrying the split-signature pairing

    <X + xi, Y + eta> = ( xi(Y) + eta(X) ) / 2.

Two coordinate systems make different things block-diagonal, and both are
used heavily:

* TT basis ("tangent / cotangent"): coordinates (X, xi) stacked.  The
  pairing matrix is Q_TT = [[0, I], [I, 0]] / 2.  A generalized structure
  compatible with a metric g written in an orthonormal frame takes the
  form [[P, Q], [Q, P]] with P, Q antisymmetric.

* PM basis ("plus / minus"): spanned by theta_i + theta_i* and
  theta_i - theta_i*, i.e. the two null-complementary definite subspaces
  C+ and C-.  The pairing matrix is Q_PM = [[I, 0], [0, -I]].  The same
  compatible structure becomes block-diagonal, diag(u1, u2) with
  u1 = P + Q and u2 = P - Q.

The change of basis is S = [[I, I], [I, -I]] with S @ S = 2 Id, mapping
PM coordinates to TT coordinates.

A generalized almost complex structure is an endomorphism m with
m @ m = -Id that preserves the pairing, m^T Q m = Q.  Its type at a point
is the complex codimension of the tangent projection of its +i
eigenspace: 0 for symplectic-like, 2 for complex-like, intermediate and
odd values occur on the twistor fibers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InvalidInputError, UsageError
from .numerics import ALGEBRA_TOL, RANK_RTOL

_ID4 = np.eye(4)
_ID8 = np.eye(8)

#: PM -> TT change of basis; its inverse is S / 2.
S_MATRIX: np.ndarray = np.block([[_ID4, _ID4], [_ID4, -_ID4]])


class BasisTag(enum.Enum):
    """Which coordinate system an 8-component object is expressed in."""

    TT = "tt"
    PM = "pm"


class ComponentTag(enum.Enum):
    """Connected component of the fiber product of the two unit spheres.

    The first sign says whether u1 lives in the self-dual (+) or
    anti-self-dual (-) bivectors, the second does the same for u2.
    """

    PP = "++"
    MM = "--"
    PM = "+-"
    MP = "-+"

    @property
    def signs(self) -> tuple[int, int]:
        s = {"+": +1, "-": -1}
        return s[self.value[0]], s[self.value[1]]

    @property
    def mixed(self) -> bool:
        return self.value[0] != self.value[1]


def pseudo_metric_matrix(basis: BasisTag) -> np.ndarray:
    if basis is BasisTag.TT:
        return 0.5 * np.block([[np.zeros((4, 4)), _ID4], [_ID4, np.zeros((4, 4))]])
    return np.block([[_ID4, np.zeros((4, 4))], [np.zeros((4, 4)), -_ID4]])


@dataclass(frozen=True)
class GenStructure:
    """Generalized almost complex structure as an 8x8 matrix in a tagged basis.

    Construction validates the two defining identities, m @ m = -Id and
    m^T Q m = Q, by np.allclose with atol ALGEBRA_TOL.
    """

    m: np.ndarray
    basis: BasisTag

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (8, 8):
            raise UsageError(f"generalized structure needs an 8x8 matrix, got {m.shape}")
        object.__setattr__(self, "m", m)
        if not np.allclose(m @ m, -_ID8, atol=ALGEBRA_TOL):
            raise InvalidInputError("matrix does not square to -Id")
        q = pseudo_metric_matrix(self.basis)
        if not np.allclose(m.T @ q @ m, q, atol=ALGEBRA_TOL):
            raise InvalidInputError("matrix does not preserve the split pairing")


def change_basis(u: GenStructure, to: BasisTag) -> GenStructure:
    """Rewrite the structure in the other tagged basis (exact, involutive)."""
    if u.basis is to:
        return u
    if to is BasisTag.TT:
        m = S_MATRIX @ u.m @ (0.5 * S_MATRIX)
    else:
        m = (0.5 * S_MATRIX) @ u.m @ S_MATRIX
    return GenStructure(m, to)


def from_complex(j: np.ndarray) -> GenStructure:
    """Structure induced by an almost complex structure J: diag(J, -J^T)."""
    j = np.asarray(j, dtype=float)
    if not np.allclose(j @ j, -_ID4, atol=ALGEBRA_TOL):
        raise InvalidInputError("J does not square to -Id")
    z = np.zeros((4, 4))
    return GenStructure(np.block([[j, z], [z, -j.T]]), BasisTag.TT)


def from_symplectic(w: np.ndarray) -> GenStructure:
    """Structure induced by a non-degenerate 2-form: [[0, -w^{-1}], [w, 0]]."""
    w = np.asarray(w, dtype=float)
    if not np.allclose(w, -w.T, atol=ALGEBRA_TOL):
        raise InvalidInputError("symplectic matrix must be antisymmetric")
    try:
        winv = np.linalg.inv(w)
    except np.linalg.LinAlgError as e:
        raise InvalidInputError("symplectic matrix must be invertible") from e
    z = np.zeros((4, 4))
    return GenStructure(np.block([[z, -winv], [w, z]]), BasisTag.TT)


def b_transform(u: GenStructure, b: np.ndarray) -> GenStructure:
    """Conjugate by the shear exp(B) = [[Id, 0], [B, Id]], B antisymmetric.

    Works in TT coordinates: e^{-B} u e^{B}.  The transform preserves the
    pairing and the square, and leaves the upper-right block (hence the
    type) exactly unchanged.
    """
    b = np.asarray(b, dtype=float)
    if not np.allclose(b, -b.T, atol=ALGEBRA_TOL):
        raise InvalidInputError("B-field must be antisymmetric")
    u_tt = change_basis(u, BasisTag.TT)
    z = np.zeros((4, 4))
    eb = np.block([[_ID4, z], [b, _ID4]])
    ebinv = np.block([[_ID4, z], [-b, _ID4]])
    out = GenStructure(ebinv @ u_tt.m @ eb, BasisTag.TT)
    return out if u.basis is BasisTag.TT else change_basis(out, u.basis)


def _rank(mat: np.ndarray) -> int:
    # Blocks cut out of a structure matrix with J^2 = -Id live at unit
    # scale, so a roundoff-only block must read as rank zero even though
    # its largest singular value is nonzero.  Hence the max(s[0], 1).
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > RANK_RTOL * max(s[0], 1.0)))


def _type_from_block(u_tt: np.ndarray) -> int:
    # Upper-right TT block is the bivector part beta; type = 2 - rank(beta)/2.
    beta = u_tt[:4, 4:]
    r = _rank(beta)
    if r % 2 != 0:
        raise ConsistencyError(f"bivector block has odd rank {r}")
    return 2 - r // 2


def _type_from_eigenspace(u_tt: np.ndarray) -> int:
    # type = 4 - dim_C of the tangent projection of the +i eigenspace.
    vals, vecs = np.linalg.eig(u_tt)
    cols = vecs[:, vals.imag > 0.0]
    if cols.shape[1] != 4:
        raise ConsistencyError(f"+i eigenspace has dimension {cols.shape[1]}, expected 4")
    basis, _ = np.linalg.qr(cols)  # well-conditioned basis of the eigenspace
    # Next to a = b on a pure component, where the type jumps from 0 to 2,
    # the small singular values of this projection are |a - b| / 4 whatever
    # the B-field, half the bivector block's.  Doubled, they pass the rank
    # cut at the same fiber points as the block's.  The basis is
    # orthonormal, so no singular value exceeds 1 and the cut is RANK_RTOL.
    s = np.linalg.svd(basis[:4, :], compute_uv=False)
    return 4 - int(np.sum(2.0 * s > RANK_RTOL))


def type_of(u: GenStructure) -> int:
    """Pointwise type, computed two independent ways.

    The fast path reads the rank of the bivector block; the oracle path
    projects the +i eigenspace to the tangent space.  A mismatch raises
    rather than guessing.
    """
    u_tt = change_basis(u, BasisTag.TT).m
    t_block = _type_from_block(u_tt)
    t_eig = _type_from_eigenspace(u_tt)
    if t_block != t_eig:
        raise ConsistencyError(
            f"type mismatch: bivector-block path gives {t_block}, eigenspace path gives {t_eig}"
        )
    return t_block


def structure_from_blocks(u1: np.ndarray, u2: np.ndarray) -> GenStructure:
    """diag(u1, u2) in PM coordinates."""
    z = np.zeros((4, 4))
    return GenStructure(np.block([[u1, z], [z, u2]]), BasisTag.PM)

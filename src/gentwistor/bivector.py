"""Bivectors on an oriented Euclidean 4-space, as skew endomorphisms.

Conventions (fixed once, used everywhere):

* A wedge of vectors acts on vectors through the inner product,

      (x ^ y) z = <x, z> y - <y, z> x,

  so as a matrix  x ^ y = y x^T - x y^T.  On basis vectors this sends
  e_i to e_j, i.e. theta_i ^ theta_j corresponds to E_ji - E_ij.

* The inner product on bivectors is <A, B> = tr(A^T B) / 2, under which
  the six basis wedges theta_i ^ theta_j (i < j) are orthonormal... up to
  the standard factor: each has norm^2 = 1 under this pairing, while the
  self-dual generators below have norm^2 = 2.

* Self-dual / anti-self-dual generators:

      I+ = t1^t2 + t3^t4       I- = t1^t2 - t3^t4
      J+ = t1^t3 + t4^t2       J- = t1^t3 - t4^t2
      K+ = t1^t4 + t2^t3       K- = t1^t4 - t2^t3

  The plus triple is right-handed: I+ J+ = K+.  With the wedge
  convention above the minus triple comes out left-handed, I- J- = -K-.
  Both triples square to -Id and the two families commute entrywise,
  [Lambda+, Lambda-] = 0.

* Unit-length combinations u = a1 I + a2 J + a3 K (|a| = 1) satisfy
  u^2 = -Id and are exactly the orthogonal complex structures compatible
  with the chosen (anti-)orientation.
"""

from __future__ import annotations

import numpy as np

# Index pairs (i < j) fixing the column order of 6-dimensional bivector
# coordinates throughout the package.
WEDGE_PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
#: WEDGE_PAIRS as index arrays: WEDGE_I[k], WEDGE_J[k] = WEDGE_PAIRS[k].
WEDGE_I, WEDGE_J = np.array(WEDGE_PAIRS).T


def wedge(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix of x ^ y acting on vectors, (x^y)z = <x,z>y - <y,z>x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.outer(y, x) - np.outer(x, y)


def basis_wedge(i: int, j: int) -> np.ndarray:
    """e_i ^ e_j as a 4x4 matrix (sends e_i to e_j; zero for i == j)."""
    m = np.zeros((4, 4))
    m[j, i] += 1.0
    m[i, j] -= 1.0
    return m


def _build_triples() -> tuple[np.ndarray, ...]:
    t = [basis_wedge(i, j) for (i, j) in ((0, 1), (2, 3), (0, 2), (3, 1), (0, 3), (1, 2))]
    w12, w34, w13, w42, w14, w23 = t
    ip, im = w12 + w34, w12 - w34
    jp, jm = w13 + w42, w13 - w42
    kp, km = w14 + w23, w14 - w23
    return ip, jp, kp, im, jm, km


IP, JP, KP, IM, JM, KM = _build_triples()

#: Generator triples keyed by the sign of the Lambda^{+-} factor.
TRIPLES: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {
    +1: (IP, JP, KP),
    -1: (IM, JM, KM),
}

# Column order of the 6-dimensional curvature-operator basis:
# (I+, J+, K+, I-, J-, K-) / sqrt(2).
SIX_BASIS: tuple[np.ndarray, ...] = (IP, JP, KP, IM, JM, KM)
_GENERATORS = np.stack(SIX_BASIS)


def pair_coords(a: np.ndarray) -> np.ndarray:
    """Coefficients of antisymmetric matrices (..., 4, 4) over the basis wedges.

    a = sum_{i<j} c_{ij} theta_i ^ theta_j  with  c_{ij} = a[j, i].
    """
    return a[..., WEDGE_J, WEDGE_I]


def sd_asd_coords(a: np.ndarray) -> dict[int, np.ndarray]:
    """SD (+1) and ASD (-1) coordinates of the bivectors a (..., 4, 4):
    a = c[+1] . (I+,J+,K+) + c[-1] . (I-,J-,K-).

    Uses the unnormalized generators, whose norm^2 is 2 under the
    half-trace pairing, hence tr(a^T e) / 4.
    """
    c = np.tensordot(a, _GENERATORS, axes=([-2, -1], [1, 2])) / 4.0
    return {+1: c[..., :3], -1: c[..., 3:]}


def unit_combination(c: np.ndarray, sign: int) -> np.ndarray:
    """u = c1 I + c2 J + c3 K for the triple of the given sign, c (..., 3);
    I, J and K have disjoint supports, so each entry is +-c_k or zero."""
    i, j, k = TRIPLES[sign]
    c = np.asarray(c)[..., None, None]
    return c[..., 0, :, :] * i + c[..., 1, :, :] * j + c[..., 2, :, :] * k


#: U6 @ pair_coords(A) are A's coordinates over the orthonormal basis
#: SIX_BASIS / sqrt(2); U6 is orthogonal.  Entry (k, col) is the half-trace
#: pairing of SIX_BASIS[k] / sqrt(2) with the col-th basis wedge.
U6: np.ndarray = np.array(
    [[0.5 * float(np.tensordot(basis_wedge(i, j), e, axes=2)) for (i, j) in WEDGE_PAIRS] for e in SIX_BASIS]
) / np.sqrt(2.0)

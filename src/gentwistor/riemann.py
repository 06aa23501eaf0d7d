"""Orthonormal frames, connections, and the curvature operator on bivectors.

Curvature sign convention.  The curvature operator used downstream is

    R(X, Y) = [nabla_Y, nabla_X] + nabla_{[X, Y]},

i.e. minus the more common textbook operator.  With this sign the round
unit 4-sphere has R = +Id on bivectors and scalar curvature +12, where
the scalar curvature is recovered as four times the trace of either
diagonal block of the 6x6 operator.

Pipeline per point p:

1. orthonormal_frame: e = lower Cholesky factor of g(p)^{-1}, so the
   columns of e are an oriented orthonormal frame (e^T g e = Id,
   det e > 0) varying smoothly with p.
2. christoffel: Gamma^k_{ij} from 4th-order finite differences of g,
   plus the frame connection matrices Upsilon_a (so(4)-valued) obtained
   by expressing nabla_{theta_a} theta_b over the frame.
3. curvature_operator: the coordinate curvature tensor from first and
   second derivatives of g (no nested differencing), pushed into the
   frame and assembled as a 6x6 matrix over the orthonormal bivector
   basis (I+, J+, K+, I-, J-, K-) / sqrt(2).
4. decompose: block splitting

       R = [[ W+ + s/12 Id,  B        ],
            [ B^T,           W- + s/12 Id ]]

   with both Weyl blocks traceless; the scalar curvature consistency
   |4 tr(+) - 4 tr(-)| is checked, not assumed.
5. generalized_curvature: the doubled connection eta(theta_i) =
   diag(Upsilon_i, Upsilon_i) and doubled curvature diag(R(.), R(.))
   acting on the 8-dimensional generalized tangent space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bivector import U6, WEDGE_PAIRS, pair_coords
from .calculus import partial
from .errors import DecompositionError, InvalidInputError
from .metrics import MetricSpec

_UPSILON_WARN = 1e-6
_SYM_TOL = 1e-5
_TRACE_TOL = 1e-5


@dataclass(frozen=True)
class FrameData:
    """Oriented orthonormal frame at a point: columns of e are the frame."""

    point: np.ndarray
    e: np.ndarray
    einv: np.ndarray


@dataclass(frozen=True)
class ConnectionData:
    """Christoffel symbols and frame connection at a point.

    gamma[k, i, j] is Gamma^k_{ij}; upsilon[a] is the so(4) matrix of
    nabla_{theta_a} over the frame (antisymmetrized; the raw antisymmetry
    defect is kept for diagnostics).
    """

    point: np.ndarray
    gamma: np.ndarray
    upsilon: np.ndarray
    antisymmetry_defect: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class CurvatureOperator:
    """6x6 matrix of the bivector curvature operator at a point."""

    point: np.ndarray
    matrix: np.ndarray

    @property
    def symmetry_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.T).max())


@dataclass(frozen=True)
class CurvatureBlocks:
    """Self-dual / anti-self-dual decomposition of a curvature operator."""

    wplus: np.ndarray
    wminus: np.ndarray
    b: np.ndarray
    scalar: float

    def reassemble(self) -> np.ndarray:
        s12 = self.scalar / 12.0
        top = np.hstack([self.wplus + s12 * np.eye(3), self.b])
        bot = np.hstack([self.b.T, self.wminus + s12 * np.eye(3)])
        return np.vstack([top, bot])


def orthonormal_frame(metric: MetricSpec, p: np.ndarray) -> FrameData:
    """Deterministic smooth orthonormal frame from the Cholesky factor."""
    p = np.asarray(p, dtype=float)
    g = np.asarray(metric.g(p), dtype=float)
    if not np.allclose(g, g.T, atol=1e-12):
        raise InvalidInputError(f"metric at {p.tolist()} is not symmetric")
    try:
        e = np.linalg.cholesky(np.linalg.inv(g))
    except np.linalg.LinAlgError as exc:
        raise InvalidInputError(f"metric at {p.tolist()} is not positive definite") from exc
    return FrameData(point=p, e=e, einv=np.linalg.inv(e))


def _metric_derivatives(metric: MetricSpec, p: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g, dg[k,i,j] = d_k g_ij, and d2g[l,k,i,j] = d_l d_k g_ij.

    Pure second derivatives use the dedicated 4th-order stencil; mixed
    ones nest two first-derivative stencils at the same step (both are
    O(h^4) accurate, and only g itself is ever evaluated).
    """
    p = np.asarray(p, dtype=float)
    g = np.asarray(metric.g(p), dtype=float)
    gf = lambda q: np.asarray(metric.g(q), dtype=float)
    dg = np.empty((4, 4, 4))
    for k in range(4):
        dg[k] = partial(gf, p, k, h)
    d2g = np.empty((4, 4, 4, 4))
    for k in range(4):
        # pure: (-f2 + 16 f1 - 30 f0 + 16 fm1 - fm2) / (12 h^2)
        q2, q1, qm1, qm2 = (p.copy() for _ in range(4))
        q2[k] += 2 * h
        q1[k] += h
        qm1[k] -= h
        qm2[k] -= 2 * h
        d2g[k, k] = (-gf(q2) + 16 * gf(q1) - 30 * g + 16 * gf(qm1) - gf(qm2)) / (12 * h * h)
        for l in range(k + 1, 4):
            mixed = partial(lambda q: partial(gf, q, k, h), p, l, h)
            d2g[l, k] = mixed
            d2g[k, l] = mixed
    return g, dg, d2g


def christoffel(metric: MetricSpec, p: np.ndarray, h: float | None = None) -> ConnectionData:
    """Christoffel symbols and frame connection at an interior point."""
    p = np.asarray(p, dtype=float)
    if h is None:
        h = metric.fd_step
    metric.require_interior(p, 2.0 * h)
    g, dg, _ = _metric_derivatives(metric, p, h)
    ginv = np.linalg.inv(g)
    gamma = _gamma_from_derivs(ginv, dg)

    frame = orthonormal_frame(metric, p)
    e, einv = frame.e, frame.einv
    # nabla over the frame: Upsilon_a[c, b] = theta*_c( nabla_{theta_a} theta_b );
    # differentiating the frame field itself (Cholesky is smooth in p)
    de = np.empty((4, 4, 4))  # de[i] = d_i e
    ef = lambda q: orthonormal_frame(metric, q).e
    for i in range(4):
        de[i] = partial(ef, p, i, h)
    upsilon = np.empty((4, 4, 4))
    defect = 0.0
    for a in range(4):
        xa = e[:, a]
        cov = np.einsum("i,ikb->kb", xa, de) + np.einsum("kij,i,jb->kb", gamma, xa, e)
        ups = einv @ cov
        defect = max(defect, float(np.abs(ups + ups.T).max()))
        upsilon[a] = 0.5 * (ups - ups.T)
    if defect > _UPSILON_WARN:
        warnings.warn(
            f"frame connection antisymmetry defect {defect:.2e} at {p.tolist()} "
            f"for metric {metric.name!r}",
            RuntimeWarning,
            stacklevel=2,
        )
    return ConnectionData(point=p, gamma=gamma, upsilon=upsilon, antisymmetry_defect=defect)


def _gamma_from_derivs(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    # Gamma^k_{ij} = g^{kl} ( d_i g_{jl} + d_j g_{il} - d_l g_{ij} ) / 2
    y = dg + np.einsum("jil->ijl", dg) - np.einsum("lij->ijl", dg)
    return 0.5 * np.einsum("kl,ijl->kij", ginv, y)


def riemann_coordinate(metric: MetricSpec, p: np.ndarray, h: float | None = None) -> np.ndarray:
    """Coordinate curvature R[l, k, i, j]: R(d_i, d_j) d_k = R[l,k,i,j] d_l.

    Uses the sign convention of the module docstring.  The derivative of
    Gamma is expanded through dg and d2g, so only the metric itself is
    ever finite-differenced.
    """
    p = np.asarray(p, dtype=float)
    if h is None:
        h = metric.fd_step
    metric.require_interior(p, 2.0 * h)
    g, dg, d2g = _metric_derivatives(metric, p, h)
    ginv = np.linalg.inv(g)
    gamma = _gamma_from_derivs(ginv, dg)
    # d_m g^{kl} = -g^{ka} dg[m,a,b] g^{bl}
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    # d_m Gamma^k_{ij}, with the Gamma derivative expanded over dg and d2g
    y = dg + np.einsum("jil->ijl", dg) - np.einsum("lij->ijl", dg)
    z = d2g + np.einsum("mjil->mijl", d2g) - np.einsum("mlij->mijl", d2g)
    dgamma = 0.5 * (np.einsum("mkl,ijl->mkij", dginv, y) + np.einsum("kl,mijl->mkij", ginv, z))
    # R[l,k,i,j] = d_j Gamma^l_{ik} - d_i Gamma^l_{jk}
    #            + Gamma^l_{jm} Gamma^m_{ik} - Gamma^l_{im} Gamma^m_{jk}
    r = (
        np.einsum("jlik->lkij", dgamma)
        - np.einsum("iljk->lkij", dgamma)
        + np.einsum("ljm,mik->lkij", gamma, gamma)
        - np.einsum("lim,mjk->lkij", gamma, gamma)
    )
    return r


def curvature_operator(metric: MetricSpec, p: np.ndarray, h: float | None = None) -> CurvatureOperator:
    """6x6 bivector curvature operator over the orthonormal frame."""
    p = np.asarray(p, dtype=float)
    r = riemann_coordinate(metric, p, h)
    frame = orthonormal_frame(metric, p)
    fpairs = frame_curvature_endomorphisms(r, frame)
    cols = np.stack([pair_coords(f) for f in fpairs], axis=1)  # pair coords of R(pair)
    mat = U6 @ cols @ U6.T
    return CurvatureOperator(point=p, matrix=mat)


def frame_curvature_endomorphisms(r: np.ndarray, frame: FrameData) -> list[np.ndarray]:
    """R(theta_a, theta_b) as frame-basis endomorphisms, one per wedge pair.

    Each is antisymmetric (an so(4) element) up to finite-difference
    error; the exact antisymmetrization is applied so that downstream
    bivector algebra sees honest Lie algebra elements.
    """
    e, einv = frame.e, frame.einv
    out = []
    for a, b in WEDGE_PAIRS:
        xa, xb = e[:, a], e[:, b]
        mat = np.einsum("lkij,i,j->lk", r, xa, xb)
        f = einv @ mat @ e
        out.append(0.5 * (f - f.T))
    return out


def decompose(op: CurvatureOperator) -> CurvatureBlocks:
    """Split a (symmetric, trace-balanced) curvature operator into blocks.

    The operator is symmetrized after checking the defect is below 1e-5;
    both Weyl blocks are centered by their own traces so they come out
    exactly traceless, and the two scalar-curvature readings (4x either
    diagonal trace) must agree within 1e-5.
    """
    m = op.matrix
    defect = float(np.abs(m - m.T).max())
    if defect > _SYM_TOL:
        raise DecompositionError(
            f"curvature operator asymmetric beyond tolerance: defect {defect:.3e}"
        )
    ms = 0.5 * (m + m.T)
    ul, lr, ur = ms[:3, :3], ms[3:, 3:], ms[:3, 3:]
    s_plus = 4.0 * float(np.trace(ul))
    s_minus = 4.0 * float(np.trace(lr))
    if abs(s_plus - s_minus) > _TRACE_TOL:
        raise DecompositionError(
            f"scalar curvature mismatch between duality halves: "
            f"{s_plus:.6e} vs {s_minus:.6e}"
        )
    wplus = ul - (np.trace(ul) / 3.0) * np.eye(3)
    wminus = lr - (np.trace(lr) / 3.0) * np.eye(3)
    return CurvatureBlocks(wplus=wplus, wminus=wminus, b=ur, scalar=s_plus)


@dataclass(frozen=True)
class GeneralizedCurvature:
    """Doubled connection and curvature on the generalized tangent space.

    Both act identically on the two PM halves, so the 8x8 matrices are
    block-diagonal repeats of the frame-level 4x4 data.
    """

    frame: FrameData
    connection: ConnectionData
    fpairs: tuple[np.ndarray, ...]

    def eta(self, i: int) -> np.ndarray:
        u = self.connection.upsilon[i]
        return _doubled(u)

    def rg_pair(self, a: int, b: int) -> np.ndarray:
        """R_g(theta_a, theta_b) for a frame index pair, 8x8."""
        if a == b:
            return np.zeros((8, 8))
        sign = 1.0
        if a > b:
            a, b, sign = b, a, -1.0
        idx = WEDGE_PAIRS.index((a, b))
        return sign * _doubled(self.fpairs[idx])

    def rg(self, omega: np.ndarray) -> np.ndarray:
        """R_g on an arbitrary antisymmetric frame bivector omega."""
        return _doubled(self.rc(omega))

    def rc(self, omega: np.ndarray) -> np.ndarray:
        """Underlying 4x4 curvature image of a frame bivector."""
        c = pair_coords(omega)
        acc = np.zeros((4, 4))
        for k in range(6):
            acc = acc + c[k] * self.fpairs[k]
        return acc

    @cached_property
    def rf(self) -> np.ndarray:
        """Full antisymmetric frame curvature, rf[a, b] = R(theta_a, theta_b)
        as a 4x4 endomorphism, so that rc(x ^ y) = x^a y^b rf[a, b]."""
        rf = np.zeros((4, 4, 4, 4))
        for (a, b), f in zip(WEDGE_PAIRS, self.fpairs):
            rf[a, b] = f
            rf[b, a] = -f
        return rf


def _doubled(m: np.ndarray) -> np.ndarray:
    z = np.zeros((4, 4))
    return np.block([[m, z], [z, m]])


def generalized_curvature(metric: MetricSpec, p: np.ndarray, h: float | None = None) -> GeneralizedCurvature:
    p = np.asarray(p, dtype=float)
    conn = christoffel(metric, p, h)
    r = riemann_coordinate(metric, p, h)
    frame = orthonormal_frame(metric, p)
    fpairs = tuple(frame_curvature_endomorphisms(r, frame))
    return GeneralizedCurvature(frame=frame, connection=conn, fpairs=fpairs)


def connection_form_coordinate(metric: MetricSpec, p: np.ndarray, h: float | None = None) -> np.ndarray:
    """eta_i(p): so(4) components of the frame connection one-form over
    coordinate directions, eta(d_i) = sum_a einv[a, i] Upsilon_a.

    Returned as an array of shape (4, 4, 4) indexed by the coordinate
    direction first.  Used by the curvature-form consistency check."""
    conn = christoffel(metric, p, h)
    frame = orthonormal_frame(metric, p)
    out = np.empty((4, 4, 4))
    for i in range(4):
        acc = np.zeros((4, 4))
        for a in range(4):
            acc = acc + frame.einv[a, i] * conn.upsilon[a]
        out[i] = acc
    return out

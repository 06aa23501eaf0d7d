"""Orthonormal frames, connections, and the curvature operator on bivectors.

Curvature sign convention.  The curvature operator used downstream is

    R(X, Y) = [nabla_Y, nabla_X] + nabla_{[X, Y]},

i.e. minus the more common textbook operator.  With this sign the round
unit 4-sphere has R = +Id on bivectors and scalar curvature +12, where
the scalar curvature is recovered as four times the trace of either
diagonal block of the 6x6 operator.

One geometry pass per point p, PointGeometry:

1. the metric is evaluated once on a 113-point stencil: the centre, 16
   axis points (p +- h e_k, p +- 2h e_k) shared by the first and the
   pure second derivatives, and 96 mixed points (p + a h e_k + b h e_l,
   a, b in {-2, -1, 1, 2}, k < l).  The 4th-order formulas use integer
   weights and one division each, so a constant metric has exactly zero
   derivatives.  The mixed points are evaluated only when curvature is
   asked for; a connection-only caller pays 17 evaluations.
2. frame: e = lower Cholesky factor of g(p)^{-1}, so the columns of e
   are an oriented orthonormal frame (e^T g e = Id, det e > 0) varying
   smoothly with p.
3. connection: Gamma^k_{ij} from dg, and the frame connection matrices
   Upsilon_a (so(4)-valued), expressing nabla_{theta_a} theta_b over the
   frame.  The frame is differentiated in closed form: for A = g^{-1} =
   L L^T, dL = L Phi(L^{-1} dA L^{-T}) with dA = -g^{-1} dg g^{-1} and Phi
   the lower triangle with halved diagonal (I. Murray, "Differentiation
   of the Cholesky decomposition", arXiv:1602.07527).  Gamma and dL come
   from the same dg, so Upsilon is antisymmetric up to roundoff.
4. riemann, fpairs, operator: the coordinate curvature tensor from dg
   and d2g (no nested differencing), pushed into the frame as one so(4)
   element per wedge pair, and assembled as a 6x6 matrix over the
   orthonormal bivector basis (I+, J+, K+, I-, J-, K-) / sqrt(2).
5. decompose: block splitting

       R = [[ W+ + s/12 Id,  B        ],
            [ B^T,           W- + s/12 Id ]]

   with both Weyl blocks traceless; the scalar curvature consistency
   |4 tr(+) - 4 tr(-)| is checked, not assumed.
6. the doubled connection eta(theta_i) = diag(Upsilon_i, Upsilon_i) and
   doubled curvature diag(R(.), R(.)) on the 8-dimensional generalized
   tangent space, and rf, the frame curvature the twistor residual
   kernel consumes.

christoffel, curvature_operator and generalized_curvature are entry
points into the same object, so flags and residuals read one geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bivector import U6, WEDGE_PAIRS, pair_coords
# partial is not called here; it stays importable from riemann because
# bench/run.py's traced run rebinds it on this module.
from .calculus import partial  # noqa: F401
from .errors import DecompositionError, InvalidInputError
from .metrics import MetricSpec

_SYM_TOL = 1e-5
_TRACE_TOL = 1e-5

_STEPS = (-2.0, -1.0, 1.0, 2.0)
# weights of the 4th-order first derivative at _STEPS, over 12 h; a mixed
# second derivative applies them along both axes, over 144 h^2
_W1 = np.array([1.0, -8.0, 8.0, -1.0])
_EYE = np.eye(4)
# stencil offsets in units of h: the centre, then 4 steps along each axis
_NEAR = np.vstack([np.zeros((1, 4))] + [np.outer(_STEPS, _EYE[k]) for k in range(4)])
# 4 x 4 steps in each coordinate plane k < l, l-step outer, k-step inner
_MIXED = np.array([a * _EYE[k] + b * _EYE[l] for k, l in WEDGE_PAIRS for b in _STEPS for a in _STEPS])
_PAIR_I = np.array([i for i, _ in WEDGE_PAIRS])
_PAIR_J = np.array([j for _, j in WEDGE_PAIRS])
_DIAG = np.arange(4)


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


def _frame(p: np.ndarray, g: np.ndarray) -> FrameData:
    if not np.allclose(g, g.T, atol=1e-12):
        raise InvalidInputError(f"metric at {p.tolist()} is not symmetric")
    try:
        e = np.linalg.cholesky(np.linalg.inv(g))
    except np.linalg.LinAlgError as exc:
        raise InvalidInputError(f"metric at {p.tolist()} is not positive definite") from exc
    return FrameData(point=p, e=e, einv=np.linalg.inv(e))


def orthonormal_frame(metric: MetricSpec, p: np.ndarray) -> FrameData:
    """Deterministic smooth orthonormal frame from the Cholesky factor."""
    p = np.asarray(p, dtype=float)
    return _frame(p, np.asarray(metric.g(p), dtype=float))


def _evaluate(metric: MetricSpec, points: np.ndarray) -> np.ndarray:
    return np.array([np.asarray(metric.g(q), dtype=float) for q in points])


class PointGeometry:
    """Everything the pipeline needs at one base point, from one stencil.

    Built from 17 metric evaluations (g, dg, the pure second derivatives,
    Gamma and the frame); d2g and everything that needs it are computed
    on first use.  See the module docstring for the steps."""

    def __init__(self, metric: MetricSpec, p: np.ndarray, h: float | None = None):
        p = np.asarray(p, dtype=float)
        if h is None:
            h = metric.fd_step
        metric.require_interior(p, 2.0 * h)
        self._metric, self.point, self.h = metric, p, h
        near = _evaluate(metric, p + _NEAR * h)
        self.g = g = near[0]
        ax = near[1:].reshape(4, 4, 4, 4)  # ax[k, step] = g(p + step h e_k)
        self.frame = _frame(p, g)
        self.ginv = ginv = np.linalg.inv(g)
        self.dg = dg = (ax[:, 0] - 8 * ax[:, 1] + 8 * ax[:, 2] - ax[:, 3]) / (12.0 * h)
        self._pure = (-ax[:, 3] + 16 * ax[:, 2] - 30 * g + 16 * ax[:, 1] - ax[:, 0]) / (12 * h * h)
        # d_m g^{kl} = -g^{ka} dg[m,a,b] g^{bl}
        self.dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
        # Gamma^k_{ij} = g^{kl} ( d_i g_{jl} + d_j g_{il} - d_l g_{ij} ) / 2
        self._y = dg + np.einsum("jil->ijl", dg) - np.einsum("lij->ijl", dg)
        self.gamma = 0.5 * np.einsum("kl,ijl->kij", ginv, self._y)

    @cached_property
    def frame_derivative(self) -> np.ndarray:
        """de[i] = d_i e in closed form: e Phi(e^{-1} d_i(g^{-1}) e^{-T})."""
        e, einv = self.frame.e, self.frame.einv
        phi = np.tril(einv @ self.dginv @ einv.T)
        phi[:, _DIAG, _DIAG] *= 0.5
        return e @ phi

    @cached_property
    def connection(self) -> ConnectionData:
        """Gamma and the frame connection Upsilon_a[c, b] =
        theta*_c( nabla_{theta_a} theta_b )."""
        e, einv = self.frame.e, self.frame.einv
        cov = np.einsum("ia,ikb->akb", e, self.frame_derivative) + np.einsum("kij,ia,jb->akb", self.gamma, e, e)
        ups = einv @ cov
        skew = np.swapaxes(ups, 1, 2)
        return ConnectionData(
            point=self.point,
            gamma=self.gamma,
            upsilon=0.5 * (ups - skew),
            antisymmetry_defect=float(np.abs(ups + skew).max()),
        )

    @cached_property
    def d2g(self) -> np.ndarray:
        """d2g[l, k, i, j] = d_l d_k g_ij; the 96 mixed stencil points."""
        h = self.h
        mx = _evaluate(self._metric, self.point + _MIXED * h).reshape(6, 4, 4, 4, 4)
        mixed = np.einsum("b,a,pbaij->pij", _W1, _W1, mx) / (144 * h * h)
        d2g = np.empty((4, 4, 4, 4))
        d2g[_DIAG, _DIAG] = self._pure
        d2g[_PAIR_I, _PAIR_J] = mixed
        d2g[_PAIR_J, _PAIR_I] = mixed
        return d2g

    @cached_property
    def riemann(self) -> np.ndarray:
        """Coordinate curvature R[l, k, i, j]: R(d_i, d_j) d_k = R[l,k,i,j] d_l.

        Uses the sign convention of the module docstring.  The derivative
        of Gamma is expanded through dg and d2g, so only the metric itself
        is ever finite-differenced."""
        d2g, gamma = self.d2g, self.gamma
        # d_m Gamma^k_{ij}, with the Gamma derivative expanded over dg and d2g
        z = d2g + np.einsum("mjil->mijl", d2g) - np.einsum("mlij->mijl", d2g)
        dgamma = 0.5 * (np.einsum("mkl,ijl->mkij", self.dginv, self._y) + np.einsum("kl,mijl->mkij", self.ginv, z))
        # R[l,k,i,j] = d_j Gamma^l_{ik} - d_i Gamma^l_{jk}
        #            + Gamma^l_{jm} Gamma^m_{ik} - Gamma^l_{im} Gamma^m_{jk}
        return (
            np.einsum("jlik->lkij", dgamma)
            - np.einsum("iljk->lkij", dgamma)
            + np.einsum("ljm,mik->lkij", gamma, gamma)
            - np.einsum("lim,mjk->lkij", gamma, gamma)
        )

    @cached_property
    def fpairs(self) -> tuple[np.ndarray, ...]:
        """R(theta_a, theta_b) as frame-basis endomorphisms, one per wedge pair.

        Each is antisymmetric (an so(4) element) up to finite-difference
        error; the exact antisymmetrization is applied so that downstream
        bivector algebra sees honest Lie algebra elements."""
        e, einv = self.frame.e, self.frame.einv
        mats = np.einsum("lkij,ip,jp->plk", self.riemann, e[:, _PAIR_I], e[:, _PAIR_J])
        f = einv @ mats @ e
        return tuple(0.5 * (f - np.swapaxes(f, 1, 2)))

    @cached_property
    def operator(self) -> CurvatureOperator:
        """6x6 bivector curvature operator over the orthonormal frame."""
        f = np.stack(self.fpairs)
        cols = f[:, _PAIR_J, _PAIR_I].T  # pair coords of R(pair), one column per pair
        return CurvatureOperator(point=self.point, matrix=U6 @ cols @ U6.T)

    def eta(self, i: int) -> np.ndarray:
        return _doubled(self.connection.upsilon[i])

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


def generalized_curvature(metric: MetricSpec, p: np.ndarray, h: float | None = None) -> PointGeometry:
    """The per-point geometry: doubled connection and curvature on the
    generalized tangent space, the frame curvature and the 6x6 operator."""
    return PointGeometry(metric, p, h)


def christoffel(metric: MetricSpec, p: np.ndarray, h: float | None = None) -> ConnectionData:
    """Christoffel symbols and frame connection at an interior point."""
    return PointGeometry(metric, p, h).connection


def curvature_operator(metric: MetricSpec, p: np.ndarray, h: float | None = None) -> CurvatureOperator:
    """6x6 bivector curvature operator over the orthonormal frame."""
    return PointGeometry(metric, p, h).operator


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

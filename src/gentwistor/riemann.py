"""Orthonormal frames, connections, and the curvature operator on bivectors.

Curvature sign convention.  The curvature operator used downstream is

    R(X, Y) = [nabla_Y, nabla_X] + nabla_{[X, Y]},

i.e. minus the more common textbook operator.  With this sign the round
unit 4-sphere has R = +Id on bivectors and scalar curvature +12, where
the scalar curvature is recovered as four times the trace of either
diagonal block of the 6x6 operator.

One geometry pass over base points p of shape (..., 4), PointGeometry;
every array it holds leads with p's axes, so a point (4,) gives the
single-point shapes and harness.check's 4 points are one pass:

1. the metric is evaluated once on a 113-point stencil: the centre, 16
   axis points (p +- h e_k, p +- 2h e_k) shared by the first and the
   pure second derivatives, and 96 mixed points (p + a h e_k + b h e_l,
   a, b in {-2, -1, 1, 2}, k < l).  The 4th-order formulas use integer
   weights and one division each, so a constant metric has exactly zero
   derivatives.  MetricSpec.g is batched (points (..., 4) -> metrics
   (..., 4, 4)), so the near points of every base point are one g call
   and the mixed points another; a g that returns any other shape raises
   InvalidInputError.  The mixed points are evaluated only when
   curvature is asked for; a connection-only caller pays one call.
2. frame: e = lower Cholesky factor of g(p)^{-1}, so the columns of e
   are an oriented orthonormal frame (e^T g e = Id, det e > 0) varying
   smoothly with p; an error names the first point where g is not SPD.
3. connection: Gamma^k_{ij} from dg, and the frame connection matrices
   Upsilon_a (so(4)-valued), expressing nabla_{theta_a} theta_b over the
   frame.  The frame is differentiated in closed form: for A = g^{-1} =
   L L^T, dL = L Phi(L^{-1} dA L^{-T}) with dA = -g^{-1} dg g^{-1} and Phi
   the lower triangle with halved diagonal (I. Murray, "Differentiation
   of the Cholesky decomposition", arXiv:1602.07527).  Gamma and dL come
   from the same dg, so Upsilon is antisymmetric up to roundoff.
4. riemann, rf, operator: the coordinate curvature tensor from dg and
   d2g (no nested differencing), pushed into the frame as one so(4)
   element per wedge pair and stored once, as the antisymmetric array
   rf[a, b] = R(theta_a, theta_b); the 6x6 matrix over the orthonormal
   bivector basis (I+, J+, K+, I-, J-, K-) / sqrt(2) is read from it.
5. decompose: block splitting

       R = [[ W+ + s/12 Id,  B        ],
            [ B^T,           W- + s/12 Id ]]

   with both Weyl blocks traceless; the scalar curvature consistency
   |4 tr(+) - 4 tr(-)| is checked, not assumed.
6. rc, the curvature image of a frame bivector, and rg, its doubled
   form diag(rc, rc) on the 8-dimensional generalized tangent space,
   both contracted from rf; the twistor residual kernel reads rf itself.

christoffel and curvature_operator (one point) and generalized_curvature
(any batch) are entry points into the same object, so flags and
residuals read one geometry.
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

    e: np.ndarray
    einv: np.ndarray


@dataclass(frozen=True)
class ConnectionData:
    """Frame connection at a point.

    upsilon[a] is the so(4) matrix of nabla_{theta_a} over the frame
    (antisymmetrized; the raw antisymmetry defect is kept for
    diagnostics).  The Christoffel symbols are PointGeometry.gamma.
    """

    upsilon: np.ndarray
    antisymmetry_defect: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class CurvatureOperator:
    """6x6 matrix of the bivector curvature operator at a point."""

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
    scalar: float | np.ndarray


def _frame(p: np.ndarray, g: np.ndarray) -> tuple[FrameData, np.ndarray]:
    """Frame at points p (..., 4), and the g^{-1} it factors; errors name the first bad point."""
    sym = np.isclose(g, np.swapaxes(g, -1, -2), atol=1e-12).all(axis=(-2, -1))
    if not sym.all():
        raise InvalidInputError(f"metric at {np.reshape(p, (-1, 4))[np.argmin(sym)].tolist()} is not symmetric")
    try:
        ginv = np.linalg.inv(g)
        e = np.linalg.cholesky(ginv)
    except np.linalg.LinAlgError as exc:
        bad = np.reshape(p, (-1, 4))[np.argmin(np.linalg.eigvalsh(g)[..., 0] > 0.0)]
        raise InvalidInputError(f"metric at {bad.tolist()} is not positive definite") from exc
    return FrameData(e=e, einv=np.linalg.inv(e)), ginv


def orthonormal_frame(metric: MetricSpec, p: np.ndarray) -> FrameData:
    """Deterministic smooth orthonormal frame from the Cholesky factor."""
    p = np.asarray(p, dtype=float)
    return _frame(p, np.asarray(metric.g(p), dtype=float))[0]


def _evaluate(metric: MetricSpec, points: np.ndarray) -> np.ndarray:
    """The metric at points (..., 4), one batched g call: -> (..., 4, 4)."""
    out = np.asarray(metric.g(points), dtype=float)
    if out.shape != points.shape[:-1] + (4, 4):
        raise InvalidInputError(
            f"metric {metric.name!r} returned shape {out.shape} for points of shape {points.shape}; "
            f"MetricSpec.g must map points of shape (..., 4) to metrics of shape (..., 4, 4)"
        )
    return out


class PointGeometry:
    """Everything the pipeline needs at base points p (..., 4), from one
    stencil each; every array leads with p's leading axes.

    Built from one g call on 17 points per base point (g, dg, the pure
    second derivatives, Gamma and the frame); d2g and everything that
    needs it are computed on first use, from one more call on 96 points
    per base point.  See the module docstring for the steps."""

    def __init__(self, metric: MetricSpec, p: np.ndarray, h: float | None = None):
        p = np.asarray(p, dtype=float)
        if h is None:
            h = metric.fd_step
        metric.require_interior(p, 2.0 * h)
        self._metric, self.point, self.h = metric, p, h
        near = _evaluate(metric, p[..., None, :] + _NEAR * h)
        self.g = g = near[..., 0, :, :]
        # ax[..., k, step, :, :] = g(p + step h e_k)
        ax = near[..., 1:, :, :].reshape(p.shape[:-1] + (4, 4, 4, 4))
        self.frame, self.ginv = _frame(p, g)
        a0, a1, a2, a3 = (ax[..., s, :, :] for s in range(4))
        self.dg = dg = (a0 - 8 * a1 + 8 * a2 - a3) / (12.0 * h)
        self._pure = (-a3 + 16 * a2 - 30 * g[..., None, :, :] + 16 * a1 - a0) / (12 * h * h)
        # d_m g^{kl} = -g^{ka} dg[m,a,b] g^{bl}
        self.dginv = -np.einsum("...ka,...mab,...bl->...mkl", self.ginv, dg, self.ginv)
        # Gamma^k_{ij} = g^{kl} ( d_i g_{jl} + d_j g_{il} - d_l g_{ij} ) / 2
        self._y = dg + np.einsum("...jil->...ijl", dg) - np.einsum("...lij->...ijl", dg)
        self.gamma = 0.5 * np.einsum("...kl,...ijl->...kij", self.ginv, self._y)

    @cached_property
    def frame_derivative(self) -> np.ndarray:
        """de[..., i, :, :] = d_i e in closed form: e Phi(e^{-1} d_i(g^{-1}) e^{-T})."""
        e, einv = self.frame.e[..., None, :, :], self.frame.einv[..., None, :, :]
        phi = np.tril(einv @ self.dginv @ np.swapaxes(einv, -1, -2))
        phi[..., _DIAG, _DIAG] *= 0.5
        return e @ phi

    @cached_property
    def connection(self) -> ConnectionData:
        """The frame connection Upsilon_a[c, b] =
        theta*_c( nabla_{theta_a} theta_b )."""
        e, einv = self.frame.e, self.frame.einv
        cov = np.einsum("...ia,...ikb->...akb", e, self.frame_derivative)
        cov += np.einsum("...kij,...ia,...jb->...akb", self.gamma, e, e)
        ups = einv[..., None, :, :] @ cov
        skew = np.swapaxes(ups, -1, -2)
        return ConnectionData(
            upsilon=0.5 * (ups - skew),
            antisymmetry_defect=float(np.abs(ups + skew).max()),
        )

    @cached_property
    def d2g(self) -> np.ndarray:
        """d2g[..., l, k, i, j] = d_l d_k g_ij; the 96 mixed stencil points."""
        h, lead = self.h, self.point.shape[:-1]
        mx = _evaluate(self._metric, self.point[..., None, :] + _MIXED * h).reshape(lead + (6, 4, 4, 4, 4))
        mixed = np.einsum("b,a,...pbaij->...pij", _W1, _W1, mx) / (144 * h * h)
        d2g = np.empty(lead + (4, 4, 4, 4))
        d2g[..., _DIAG, _DIAG, :, :] = self._pure
        d2g[..., _PAIR_I, _PAIR_J, :, :] = mixed
        d2g[..., _PAIR_J, _PAIR_I, :, :] = mixed
        return d2g

    @cached_property
    def riemann(self) -> np.ndarray:
        """Coordinate curvature R[..., l, k, i, j]: R(d_i, d_j) d_k = R[l,k,i,j] d_l.

        Uses the sign convention of the module docstring.  The derivative
        of Gamma is expanded through dg and d2g, so only the metric itself
        is ever finite-differenced."""
        d2g, gamma = self.d2g, self.gamma
        # d_m Gamma^k_{ij}, with the Gamma derivative expanded over dg and d2g
        z = d2g + np.einsum("...mjil->...mijl", d2g) - np.einsum("...mlij->...mijl", d2g)
        dgamma = np.einsum("...mkl,...ijl->...mkij", self.dginv, self._y)
        dgamma = 0.5 * (dgamma + np.einsum("...kl,...mijl->...mkij", self.ginv, z))
        # R[l,k,i,j] = d_j Gamma^l_{ik} - d_i Gamma^l_{jk}
        #            + Gamma^l_{jm} Gamma^m_{ik} - Gamma^l_{im} Gamma^m_{jk}
        return (
            np.einsum("...jlik->...lkij", dgamma)
            - np.einsum("...iljk->...lkij", dgamma)
            + np.einsum("...ljm,...mik->...lkij", gamma, gamma)
            - np.einsum("...lim,...mjk->...lkij", gamma, gamma)
        )

    @cached_property
    def rf(self) -> np.ndarray:
        """Antisymmetric frame curvature, rf[..., a, b, :, :] = R(theta_a,
        theta_b) as a 4x4 endomorphism, so that rc(x ^ y) = x^a y^b rf[a, b].

        Each R(theta_a, theta_b) is antisymmetric (an so(4) element) up to
        finite-difference error; the exact antisymmetrization is applied so
        that downstream bivector algebra sees honest Lie algebra elements."""
        e, einv = self.frame.e, self.frame.einv
        mats = np.einsum("...lkij,...ip,...jp->...plk", self.riemann, e[..., _PAIR_I], e[..., _PAIR_J])
        f = einv[..., None, :, :] @ mats @ e[..., None, :, :]
        f = 0.5 * (f - np.swapaxes(f, -1, -2))
        rf = np.zeros(self.point.shape[:-1] + (4, 4, 4, 4))
        rf[..., _PAIR_I, _PAIR_J, :, :] = f
        rf[..., _PAIR_J, _PAIR_I, :, :] = -f
        return rf

    @cached_property
    def operator(self) -> CurvatureOperator:
        """6x6 bivector curvature operator over the orthonormal frame,
        one per base point."""
        # pair coords of R(pair), one column per pair
        cols = np.swapaxes(self.rf[..., _PAIR_I[:, None], _PAIR_J[:, None], _PAIR_J, _PAIR_I], -1, -2)
        return CurvatureOperator(matrix=U6 @ cols @ U6.T)

    def rc(self, omega: np.ndarray) -> np.ndarray:
        """Underlying 4x4 curvature image of a frame bivector (one base point)."""
        return np.tensordot(pair_coords(omega), self.rf[_PAIR_I, _PAIR_J], axes=1)

    def rg(self, omega: np.ndarray) -> np.ndarray:
        """R_g on a frame bivector omega: diag(rc(omega), rc(omega))."""
        return np.kron(np.eye(2), self.rc(omega))


def generalized_curvature(metric: MetricSpec, p: np.ndarray) -> PointGeometry:
    """The geometry at points p (..., 4): doubled curvature on the
    generalized tangent space, the frame curvature and the 6x6 operators."""
    return PointGeometry(metric, p)


def christoffel(metric: MetricSpec, p: np.ndarray) -> ConnectionData:
    """Frame connection at an interior point."""
    return PointGeometry(metric, p).connection


def curvature_operator(metric: MetricSpec, p: np.ndarray) -> CurvatureOperator:
    """6x6 bivector curvature operator over the orthonormal frame."""
    return PointGeometry(metric, p).operator


def decompose(op: CurvatureOperator) -> CurvatureBlocks:
    """Split (symmetric, trace-balanced) curvature operators (..., 6, 6).

    Each operator is symmetrized after checking the defect is below 1e-5;
    both Weyl blocks are centered by their own traces so they come out
    exactly traceless, and the two scalar-curvature readings (4x either
    diagonal trace) must agree within 1e-5.  An error names the readings
    of the first operator that fails either check.
    """
    m = op.matrix
    mt = np.swapaxes(m, -1, -2)
    defect = np.abs(m - mt).max(axis=(-2, -1))
    ms = 0.5 * (m + mt)
    ul, lr, ur = ms[..., :3, :3], ms[..., 3:, 3:], ms[..., :3, 3:]
    t_plus, t_minus = np.trace(ul, axis1=-2, axis2=-1), np.trace(lr, axis1=-2, axis2=-1)
    s_plus, s_minus = 4.0 * t_plus, 4.0 * t_minus
    bad = (defect > _SYM_TOL) | (abs(s_plus - s_minus) > _TRACE_TOL)
    if bad.any():
        k = np.argmax(bad)  # flat index of the first failing operator
        if defect.flat[k] > _SYM_TOL:
            raise DecompositionError(f"curvature operator asymmetric beyond tolerance: defect {defect.flat[k]:.3e}")
        raise DecompositionError(f"scalar curvature mismatch between duality halves: "
                                 f"{s_plus.flat[k]:.6e} vs {s_minus.flat[k]:.6e}")
    wplus = ul - (t_plus / 3.0)[..., None, None] * np.eye(3)
    wminus = lr - (t_minus / 3.0)[..., None, None] * np.eye(3)
    return CurvatureBlocks(wplus=wplus, wminus=wminus, b=ur, scalar=s_plus)

"""Orthonormal frames, connections, and the curvature operator on bivectors.

Curvature sign convention.  The curvature operator used downstream is

    R(X, Y) = [nabla_Y, nabla_X] + nabla_{[X, Y]},

i.e. minus the more common textbook operator.  With this sign the round
unit 4-sphere has R = +Id on bivectors and scalar curvature +12, where
the scalar curvature is recovered as four times the trace of either
diagonal block of the 6x6 operator.

One geometry pass over base points p of shape (..., 4), PointGeometry;
every array it holds leads with p's axes, so a point (4,) gives the
single-point shapes and harness.check's 4 points are one pass.  Its
constructor runs steps 1-4, all but step 3's Upsilon, made on first use:

1. the metric is evaluated once on a 113-point stencil: the centre, 16
   axis points (p +- h e_k, p +- 2h e_k) shared by the first and the
   pure second derivatives, and 96 mixed points (p + a h e_k + b h e_l,
   a, b in {-2, -1, 1, 2}, k < l).  The 4th-order formulas use integer
   weights and one division each, so a constant metric has exactly zero
   derivatives.  MetricSpec.g is batched (points (..., 4) -> metrics
   (..., 4, 4)), so the whole stencil of every base point is one g
   call; a g that returns any other shape, or a value that is not
   finite, raises InvalidInputError.
2. frame: e = lower Cholesky factor of g(p)^{-1}, so the columns of e
   are an oriented orthonormal frame (e^T g e = Id, det e > 0) varying
   smoothly with p; an error names the first point where g is not SPD.
3. connection: Gamma^k_{ij} from dg, and the frame connection matrices
   Upsilon_a (so(4)-valued), expressing nabla_{theta_a} theta_b over the
   frame.  The frame is differentiated in closed form: for A = g^{-1} =
   L L^T, dL = L Phi(L^{-1} dA L^{-T}) with dA = -g^{-1} dg g^{-1} and Phi
   the lower triangle with halved diagonal (I. Murray, "Differentiation
   of the Cholesky decomposition", arXiv:1602.07527).  Gamma and dL come
   from the same dg, so Upsilon is antisymmetric up to roundoff.  Each
   contraction is a matrix product over flattened index pairs: dA, Gamma
   = y g^{-T} / 2 over (ij, l), e^T de and e^T Gamma_k e.
4. rf, operator: the coordinate curvature tensor from dg and d2g (no
   nested differencing) as R = T - T^(ij), T[l,k,i,j] = d_j Gamma^l_{ik}
   + Gamma^l_{jm} Gamma^m_{ik}, by matrix products (Gamma Gamma is one
   (16 x 4)(4 x 16) product), pushed into the frame by one
   (16 x 16)(16 x 6) product; only the six so(4) slices rf[k] =
   R(theta_a, theta_b), (a, b) = WEDGE_PAIRS[k], are stored, and the 6x6
   matrix over the orthonormal bivector basis (I+, J+, K+, I-, J-, K-) /
   sqrt(2) is read from them.
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

from .bivector import U6, WEDGE_I, WEDGE_J, WEDGE_PAIRS, pair_coords
# partial is not called here; it stays importable from riemann because
# bench/run.py's traced run rebinds it on this module.
from .calculus import partial  # noqa: F401
from .errors import DecompositionError, InvalidInputError
from .metrics import MetricSpec
from .numerics import METRIC_SYMMETRY_ATOL, METRIC_SYMMETRY_RTOL, OPERATOR_TOL

_STEPS = (-2.0, -1.0, 1.0, 2.0)
# weights of the 4th-order first derivative at _STEPS, over 12 h; a mixed
# second derivative applies them along both axes, over 144 h^2
_W1 = np.array([1.0, -8.0, 8.0, -1.0])
_EYE = np.eye(4)
# stencil offsets in units of h: the centre, then 4 steps along each axis
_NEAR = np.vstack([np.zeros((1, 4))] + [np.outer(_STEPS, _EYE[k]) for k in range(4)])
# 4 x 4 steps in each coordinate plane k < l, l-step outer, k-step inner
_MIXED = np.array([a * _EYE[k] + b * _EYE[l] for k, l in WEDGE_PAIRS for b in _STEPS for a in _STEPS])
_STENCIL = np.vstack([_NEAR, _MIXED])
_DIAG = np.arange(4)
_LOWER = np.tri(4, dtype=bool)
_EYE3 = np.eye(3)


def _moved(a: np.ndarray, *order: int) -> np.ndarray:
    """a with its trailing len(order) axes permuted, the k-th new axis being
    old trailing axis order[k]; the view np.moveaxis gives, at a fraction
    of its cost."""
    lead = a.ndim - len(order)
    return a.transpose(*range(lead), *(lead + k for k in order))


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
class CurvatureBlocks:
    """Self-dual / anti-self-dual decomposition of a curvature operator."""

    wplus: np.ndarray
    wminus: np.ndarray
    b: np.ndarray
    scalar: float | np.ndarray


def _frame(p: np.ndarray, g: np.ndarray) -> tuple[FrameData, np.ndarray]:
    """Frame at points p (..., 4), and the g^{-1} it factors; errors name the first bad point."""
    gt = g.swapaxes(-1, -2)
    sym = (np.abs(g - gt) <= METRIC_SYMMETRY_ATOL + METRIC_SYMMETRY_RTOL * np.abs(gt)).all(axis=(-2, -1))  # np.isclose's rule
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
    return _frame(p, _evaluate(metric, p))[0]


def _evaluate(metric: MetricSpec, points: np.ndarray) -> np.ndarray:
    """The metric at points (..., 4), one batched g call, all finite: -> (..., 4, 4)."""
    out = np.asarray(metric.g(points), dtype=float)
    if out.shape != points.shape[:-1] + (4, 4):
        raise InvalidInputError(
            f"metric {metric.name!r} returned shape {out.shape} for points of shape {points.shape}; "
            f"MetricSpec.g must map points of shape (..., 4) to metrics of shape (..., 4, 4)"
        )
    if not np.isfinite(out).all():
        bad = np.reshape(points, (-1, 4))[np.argmin(np.isfinite(out).all(axis=(-2, -1)))]
        raise InvalidInputError(f"metric {metric.name!r} is not finite at {bad.tolist()}")
    return out


def _operator(rf: np.ndarray) -> np.ndarray:
    """6x6 bivector curvature operators (..., 6, 6) over the orthonormal frame
    from the frame curvature rf (..., 6, 4, 4), a column of pair coordinates per wedge."""
    return U6 @ pair_coords(rf).swapaxes(-1, -2) @ U6.T


class PointGeometry:
    """Everything the pipeline needs at base points p (..., 4), from one
    g call on all 113 stencil points of each; every array leads with p's
    leading axes.  __init__ runs the pass through rf, the frame curvature
    R(theta_a, theta_b) for each (a, b) in WEDGE_PAIRS, and the 6x6
    operator; only the connection waits for its first use.  The stencil
    values are dropped before the curvature's temporaries are made, and g
    is a copy, since a view would hold them all.  See the module docstring."""

    def __init__(self, metric: MetricSpec, p: np.ndarray):
        p = np.asarray(p, dtype=float)
        h, lead = metric.fd_step, p.shape[:-1]
        metric.require_interior(p, 2.0 * h)
        self.point = p
        values = _evaluate(metric, p[..., None, :] + _STENCIL * h)
        self.g = g = values[..., 0, :, :].copy()
        # ax[..., k, step, :, :] = g(p + step h e_k); mx[..., pair, l-step, k-step, :, :]
        ax = values[..., 1:17, :, :].reshape(lead + (4, 4, 4, 4))
        mx = values[..., 17:, :, :].reshape(lead + (6, 4, 4, 4, 4))
        self.frame, self.ginv = _frame(p, g)
        a0, a1, a2, a3 = (ax[..., s, :, :] for s in range(4))
        self.dg = dg = (a0 - 8 * a1 + 8 * a2 - a3) / (12.0 * h)
        # d2g[..., l, k, i, j] = d_l d_k g_ij
        self.d2g = d2g = np.empty(lead + (4, 4, 4, 4))
        d2g[..., _DIAG, _DIAG, :, :] = (-a3 + 16 * a2 - 30 * g[..., None, :, :] + 16 * a1 - a0) / (12 * h * h)
        mixed = np.einsum("b,a,...pbaij->...pij", _W1, _W1, mx) / (144 * h * h)
        d2g[..., WEDGE_I, WEDGE_J, :, :] = mixed
        d2g[..., WEDGE_J, WEDGE_I, :, :] = mixed
        del values, ax, mx, a0, a1, a2, a3  # the stencil values, before the curvature's temporaries
        # d_m g^{kl} = -g^{ka} dg[m,a,b] g^{bl}
        self.dginv = -(self.ginv[..., None, :, :] @ dg @ self.ginv[..., None, :, :])
        # Gamma^k_{ij} = g^{kl} y[i,j,l] / 2, y[i,j,l] = d_i g_{jl} + d_j g_{il} - d_l g_{ij}:
        # over (ij, l), Gamma = y g^{-T} / 2, moved to [k, i, j]
        y = dg + dg.swapaxes(-3, -2) - _moved(dg, 1, 2, 0)
        gamma = 0.5 * (y.reshape(lead + (16, 4)) @ self.ginv.swapaxes(-1, -2))
        self.gamma = _moved(gamma.reshape(dg.shape), 2, 0, 1)
        # R(d_i, d_j) d_k = R[l,k,i,j] d_l (the module docstring's sign) from dg
        # and d2g, so only the metric is ever finite-differenced.
        # dgamma[m,i,j,k] = d_m Gamma^k_ij = (d_m g^kl y[i,j,l] + g^kl z[m,i,j,l]) / 2, products over (ij, l)
        z = d2g + d2g.swapaxes(-3, -2) - _moved(d2g, 1, 2, 0)
        dgamma = (z.reshape(lead + (64, 4)) @ self.ginv.swapaxes(-1, -2)).reshape(d2g.shape)
        dgamma += (y.reshape(lead + (1, 16, 4)) @ self.dginv.swapaxes(-1, -2)).reshape(d2g.shape)
        dgamma *= 0.5
        # t[l, j, i, k] = d_j Gamma^l_{ik} + Gamma^l_{jm} Gamma^m_{ik}, the
        # quadratic term one (16 x 4)(4 x 16) product; R[l,k,i,j] = t[l,j,i,k] - t[l,i,j,k]
        t = (self.gamma.reshape(lead + (16, 4)) @ self.gamma.reshape(lead + (4, 16))).reshape(d2g.shape)
        t += _moved(dgamma, 3, 0, 1, 2)
        riemann = (t - t.swapaxes(-3, -2)).swapaxes(-3, -1)
        # R(theta_a, theta_b)[l, k] = R[l,k,i,j] e_ia e_jb: (lk, ij) by (ij, pair)
        e, einv = self.frame.e, self.frame.einv
        wedges = (e[..., :, None, WEDGE_I] * e[..., None, :, WEDGE_J]).reshape(lead + (16, 6))
        mats = _moved((riemann.reshape(lead + (16, 16)) @ wedges).reshape(lead + (4, 4, 6)), 2, 0, 1)
        f = einv[..., None, :, :] @ mats @ e[..., None, :, :]
        # each R(theta_a, theta_b) is in so(4) up to the FD error and is
        # antisymmetrized exactly for the bivector algebra downstream
        self.rf = 0.5 * (f - f.swapaxes(-1, -2))
        self.operator = _operator(self.rf)

    @cached_property
    def frame_derivative(self) -> np.ndarray:
        """de[..., i, :, :] = d_i e in closed form: e Phi(e^{-1} d_i(g^{-1}) e^{-T})."""
        e, einv = self.frame.e[..., None, :, :], self.frame.einv[..., None, :, :]
        phi = np.where(_LOWER, einv @ self.dginv @ einv.swapaxes(-1, -2), 0.0)  # np.tril's rule
        phi[..., _DIAG, _DIAG] *= 0.5
        return e @ phi

    @cached_property
    def connection(self) -> ConnectionData:
        """The frame connection Upsilon_a[c, b] =
        theta*_c( nabla_{theta_a} theta_b )."""
        e, einv, lead = self.frame.e, self.frame.einv, self.point.shape[:-1]
        et = e.swapaxes(-1, -2)
        # cov[a, k, b] = e_ia d_i e_kb + e_ia Gamma^k_ij e_jb: e^T de, then e^T Gamma_k e
        cov = (et @ self.frame_derivative.reshape(lead + (4, 16))).reshape(lead + (4, 4, 4))
        cov += (et[..., None, :, :] @ self.gamma @ e[..., None, :, :]).swapaxes(-3, -2)
        ups = einv[..., None, :, :] @ cov
        skew = ups.swapaxes(-1, -2)
        return ConnectionData(upsilon=0.5 * (ups - skew), antisymmetry_defect=float(np.abs(ups + skew).max()))

    def rc(self, omega: np.ndarray) -> np.ndarray:
        """Underlying 4x4 curvature image of a frame bivector (one base point)."""
        return np.tensordot(pair_coords(omega), self.rf, axes=1)

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


def curvature_operator(metric: MetricSpec, p: np.ndarray) -> np.ndarray:
    """6x6 bivector curvature operator over the orthonormal frame."""
    return PointGeometry(metric, p).operator


def decompose(m: np.ndarray) -> CurvatureBlocks:
    """Split (symmetric, trace-balanced) curvature operators (..., 6, 6).

    Each operator is symmetrized after checking the defect is below
    OPERATOR_TOL; both Weyl blocks are centered by their own traces so they
    come out exactly traceless, and the two scalar-curvature readings (4x
    either diagonal trace) must agree within OPERATOR_TOL.  An error names
    the readings of the first operator that fails either check.
    """
    mt = m.swapaxes(-1, -2)
    defect = np.abs(m - mt).max(axis=(-2, -1))
    ms = 0.5 * (m + mt)
    ul, lr, ur = ms[..., :3, :3], ms[..., 3:, 3:], ms[..., :3, 3:]
    t_plus, t_minus = ul.trace(axis1=-2, axis2=-1), lr.trace(axis1=-2, axis2=-1)
    s_plus, s_minus = 4.0 * t_plus, 4.0 * t_minus
    bad = (defect > OPERATOR_TOL) | (abs(s_plus - s_minus) > OPERATOR_TOL)
    if bad.any():
        k = np.argmax(bad)  # flat index of the first failing operator
        if defect.flat[k] > OPERATOR_TOL:
            raise DecompositionError(f"curvature operator asymmetric beyond tolerance: defect {defect.flat[k]:.3e}")
        raise DecompositionError(f"scalar curvature mismatch between duality halves: "
                                 f"{s_plus.flat[k]:.6e} vs {s_minus.flat[k]:.6e}")
    wplus = ul - (t_plus / 3.0)[..., None, None] * _EYE3
    wminus = lr - (t_minus / 3.0)[..., None, None] * _EYE3
    return CurvatureBlocks(wplus=wplus, wminus=wminus, b=ur, scalar=s_plus)


def _block_norms(blocks: CurvatureBlocks) -> np.ndarray:
    """(..., 3) norms |W+|, |W-|, |B|: the sqrt of vecdot's dot product of each block's entries."""
    flat = np.concatenate([x.reshape(x.shape[:-2] + (1, 9)) for x in (blocks.wplus, blocks.wminus, blocks.b)], axis=-2)
    return np.sqrt(np.vecdot(flat, flat))

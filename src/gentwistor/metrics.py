"""Catalog of concrete Riemannian 4-metrics on coordinate boxes.

Every entry is a MetricSpec: a name, a coordinate box [lo, hi]^4, a
batched callable g, and a provenance string for reports.  g maps points
of shape (..., 4) to symmetric matrices of shape (..., 4, 4); a single
point (4,) gives one (4, 4) matrix.  The geometry evaluates a whole
finite-difference stencil in one call, so g must broadcast over the
leading axes (see riemann).  Domains are chosen so that g stays uniformly
positive definite with a margin for finite-difference stencils.

Catalog (standard closed forms, see e.g. Besse, "Einstein Manifolds",
chapters 3 and 9, and the original sources cited per entry):

* flat            identity metric on [-1, 1]^4.
* flat-perturbed  pullback of the flat metric by a diffeomorphism
                  phi(x) = x + eps * (sin of shifted coordinates); zero
                  curvature but nonvanishing Christoffel symbols, a
                  covariance stress test.
* s4              round 4-sphere of radius 1 in stereographic projection,
                  g = 4 (1+|x|^2)^{-2} delta; constant curvature,
                  scalar curvature 12.
* fubini-study    Fubini-Study metric of CP^2 in an affine chart written
                  over real coordinates (Re z1, Im z1, Re z2, Im z2);
                  Einstein with one vanishing Weyl half and nonzero
                  scalar curvature.
* eguchi-hanson   Eguchi-Hanson gravitational instanton (Eguchi and
                  Hanson, Phys. Lett. B 74 (1978) 249) in polar Euler
                  coordinates (r, theta, phi, psi), scale a = 1; Ricci
                  flat with curvature concentrated on one duality half.
* schwarzschild   Riemannian Schwarzschild metric, mass m = 0.8, in
                  (tau, r, theta, phi); Ricci flat with both Weyl halves
                  nonzero.

Orientation note: duality halves (self-dual versus anti-self-dual) are
chart-orientation dependent.  The half that vanishes for fubini-study
and eguchi-hanson is whatever the listed coordinate order produces; the
classification code measures it rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, UsageError
from .numerics import FD_STEP_FACTOR, SAMPLE_MARGIN


@dataclass(frozen=True)
class MetricSpec:
    """A named metric on a coordinate box [lo, hi]^4; g is batched,
    points (..., 4) -> metrics (..., 4, 4)."""

    name: str
    lo: float
    hi: float
    g: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    provenance: str = ""

    @property
    def box(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @property
    def fd_step(self) -> float:
        return FD_STEP_FACTOR * (self.hi - self.lo) / 2.0

    def contains(self, p: np.ndarray, margin: float = 0.0) -> bool:
        p = np.asarray(p, float)
        return bool((p >= self.lo + margin).all() and (p <= self.hi - margin).all())

    def require_interior(self, p: np.ndarray, margin: float) -> None:
        """Raise DomainError naming the first of the points p (..., 4) within margin of the box edge."""
        if not self.contains(p, margin):
            bad = next(q for q in np.reshape(p, (-1, 4)) if not self.contains(q, margin))
            raise DomainError(
                f"point {bad.tolist()} too close to the boundary of "
                f"[{self.lo}, {self.hi}]^4 (margin {margin:g})"
            )

    def interior_points(self, n: int, rng: np.random.Generator, margin_frac: float = SAMPLE_MARGIN) -> np.ndarray:
        """n uniform samples from the box shrunk by margin_frac per side.

        Sampling is sequential from the generator, so the first k points
        of a longer run coincide with a shorter run (prefix stability).
        """
        width = self.hi - self.lo
        lo = self.lo + margin_frac * width
        hi = self.hi - margin_frac * width
        return rng.uniform(lo, hi, size=(n, 4))


_EYE = np.eye(4)


def _flat_g(p: np.ndarray) -> np.ndarray:
    return np.broadcast_to(_EYE, np.shape(p)[:-1] + (4, 4)).copy()


# np.float_power is C pow, as the scalar x ** k the catalog was first written
# with; np.power's vectorised loop rounds differently in the last bit
_pow = np.float_power

_PERT_EPS = 0.05


def _perturbed_jacobian(p: np.ndarray) -> np.ndarray:
    # phi_k(x) = x_k + eps sin(x_{k+1 mod 4}); D phi = I + eps C(x)
    d = _flat_g(p)  # the identity at each point
    for k in range(4):
        d[..., k, (k + 1) % 4] += _PERT_EPS * np.cos(p[..., (k + 1) % 4])
    return d


def _flat_perturbed_g(p: np.ndarray) -> np.ndarray:
    d = _perturbed_jacobian(np.asarray(p, float))
    return np.swapaxes(d, -1, -2) @ d


def _s4_g(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, float)
    r2 = _pow(p[..., 0], 2) + _pow(p[..., 1], 2) + _pow(p[..., 2], 2) + _pow(p[..., 3], 2)
    return (4.0 / _pow(1.0 + r2, 2))[..., None, None] * _EYE


def _fubini_study_g(p: np.ndarray) -> np.ndarray:
    # h_{a b-bar} = delta_ab / rho - conj(z_a) z_b / rho^2, rho = 1 + |z|^2;
    # realified with coordinate order (Re z1, Im z1, Re z2, Im z2):
    #   g[u_a, u_b] = g[v_a, v_b] = 2 Re h_ab,  g[u_a, v_b] = 2 Im h_ab.
    p = np.asarray(p, float)
    z = p[..., 0::2] + 1j * p[..., 1::2]
    rho = 1.0 + np.real(np.conj(z)[..., None, :] @ z[..., :, None])  # (..., 1, 1)
    h = np.eye(2, dtype=complex) / rho - np.conj(z)[..., :, None] * z[..., None, :] / _pow(rho, 2)
    s, a = h.real, h.imag
    g = np.empty(p.shape[:-1] + (4, 4))
    g[..., 0::2, 0::2] = g[..., 1::2, 1::2] = 2.0 * s
    g[..., 0::2, 1::2] = 2.0 * a
    g[..., 1::2, 0::2] = -2.0 * a
    return g


_EH_SCALE = 1.0


def _eguchi_hanson_g(p: np.ndarray) -> np.ndarray:
    # ds^2 = f^{-1} dr^2 + (r^2/4)(sigma1^2 + sigma2^2) + (r^2/4) f sigma3^2,
    # f = 1 - (a/r)^4, with Euler-angle left-invariant forms
    # sigma3 = d psi + cos(theta) d phi; coordinates (r, theta, phi, psi).
    p = np.asarray(p, float)
    r, th = p[..., 0], p[..., 1]
    f = 1.0 - _pow(_EH_SCALE / r, 4)
    q = r * r / 4.0
    g = np.zeros(p.shape[:-1] + (4, 4))
    g[..., 0, 0] = 1.0 / f
    g[..., 1, 1] = q
    g[..., 2, 2] = q * (_pow(np.sin(th), 2) + f * _pow(np.cos(th), 2))
    g[..., 3, 3] = q * f
    g[..., 2, 3] = g[..., 3, 2] = q * f * np.cos(th)
    return g


_SCHW_MASS = 0.8


def _schwarzschild_g(p: np.ndarray) -> np.ndarray:
    # Riemannian form, coordinates (tau, r, theta, phi), r > 2m
    p = np.asarray(p, float)
    r, th = p[..., 1], p[..., 2]
    a = 1.0 - 2.0 * _SCHW_MASS / r
    g = np.zeros(p.shape[:-1] + (4, 4))
    g[..., 0, 0] = a
    g[..., 1, 1] = 1.0 / a
    g[..., 2, 2] = r * r
    g[..., 3, 3] = r * r * _pow(np.sin(th), 2)
    return g


def _catalog() -> dict[str, MetricSpec]:
    entries = [
        MetricSpec("flat", -1.0, 1.0, _flat_g, "Euclidean metric, identity components"),
        MetricSpec(
            "flat-perturbed",
            -1.0,
            1.0,
            _flat_perturbed_g,
            "pullback of the Euclidean metric by x -> x + 0.05 sin(shifted x); flat, curved-looking chart",
        ),
        MetricSpec(
            "s4",
            -1.0,
            1.0,
            _s4_g,
            "round unit 4-sphere, stereographic chart, g = 4(1+|x|^2)^-2 delta",
        ),
        MetricSpec(
            "fubini-study",
            -0.7,
            0.7,
            _fubini_study_g,
            "Fubini-Study metric of CP^2, affine chart over (Re z1, Im z1, Re z2, Im z2)",
        ),
        MetricSpec(
            "eguchi-hanson",
            2.0,
            2.8,
            _eguchi_hanson_g,
            "Eguchi-Hanson instanton, a = 1, Euler coordinates (r, theta, phi, psi)",
        ),
        MetricSpec(
            "schwarzschild",
            2.0,
            2.8,
            _schwarzschild_g,
            "Riemannian Schwarzschild, m = 0.8, coordinates (tau, r, theta, phi)",
        ),
    ]
    return {m.name: m for m in entries}


CATALOG: dict[str, MetricSpec] = _catalog()


def metric_by_name(name: str) -> MetricSpec:
    try:
        return CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise UsageError(f"unknown metric {name!r}; catalog: {known}") from None

"""Finite-difference Cartan calculus on a coordinate box.

Fields are plain callables on coordinate points p (shape (n,) arrays):
vector fields and one-forms return (n,) arrays, two-forms return
antisymmetric (n, n) matrices W with w(X, Y) = X^T W Y, and generalized
fields are (vector, one-form) pairs.

All derivatives use the 4th-order central stencil

    f'(x) = ( f(x-2h) - 8 f(x-h) + 8 f(x+h) - f(x+2h) ) / (12 h),

so a call touches points up to 2h away in each differentiated coordinate;
pass a bounding box to get an explicit error instead of silently
evaluating fields outside their region of validity.

Bracket conventions:

    [X, Y]          = (DY) X - (DX) Y                       (Lie)
    (d xi)_{ij}     = d_i xi_j - d_j xi_i                    (exterior d)
    L_X eta         = i_X d eta + d(i_X eta)                 (Cartan)
    [X+xi, Y+eta]   = [X,Y] + L_X eta - L_Y xi
                      - d( i_X eta - i_Y xi ) / 2            (Courant)

The Nijenhuis tensor of a structure field J (a matrix-valued function on
the chart, acting on stacked (vector, form) coordinates) is

    Nij(Y, Z) = [JY, JZ] - J [JY, Z] - J [Y, JZ] - [Y, Z],

with Courant brackets throughout; for pure vector fields and a structure
of the form diag(J, -J^T) this reduces to the classical Nijenhuis tensor
of J.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError

FieldFn = Callable[[np.ndarray], np.ndarray]

DEFAULT_STEP = 1e-3

_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_WEIGHTS = (1.0, -8.0, 8.0, -1.0)


def require_interior(p: np.ndarray, box: tuple[float, float] | None, margin: float) -> None:
    """Raise DomainError unless every coordinate is at least margin inside."""
    if box is None:
        return
    lo, hi = box
    p = np.asarray(p, float)
    if np.any(p < lo + margin) or np.any(p > hi - margin):
        raise DomainError(
            f"point {p.tolist()} is within {margin:g} of the box [{lo}, {hi}]^n boundary"
        )


def partial(f: FieldFn, p: np.ndarray, i: int, h: float = DEFAULT_STEP) -> np.ndarray:
    """4th-order partial derivative of an array-valued function."""
    p = np.asarray(p, dtype=float)
    acc = None
    for off, w in zip(_OFFSETS, _WEIGHTS):
        q = p.copy()
        q[i] += off * h
        term = w * np.asarray(f(q), dtype=float)
        acc = term if acc is None else acc + term
    return acc / (12.0 * h)


def jacobian(f: FieldFn, p: np.ndarray, h: float = DEFAULT_STEP) -> np.ndarray:
    """D[a, i] = d_i f_a for an (m,)-valued f on an (n,)-point."""
    p = np.asarray(p, dtype=float)
    cols = [partial(f, p, i, h) for i in range(p.size)]
    return np.stack(cols, axis=-1)


def lie_bracket(
    x: FieldFn,
    y: FieldFn,
    p: np.ndarray,
    h: float = DEFAULT_STEP,
    box: tuple[float, float] | None = None,
) -> np.ndarray:
    """[X, Y](p) = DY(p) X(p) - DX(p) Y(p)."""
    p = np.asarray(p, dtype=float)
    require_interior(p, box, 2.0 * h)
    return jacobian(y, p, h) @ np.asarray(x(p), float) - jacobian(x, p, h) @ np.asarray(y(p), float)


def exterior_d(
    xi: FieldFn,
    p: np.ndarray,
    h: float = DEFAULT_STEP,
    box: tuple[float, float] | None = None,
) -> np.ndarray:
    """(d xi)_{ij} = d_i xi_j - d_j xi_i, as an antisymmetric matrix."""
    p = np.asarray(p, dtype=float)
    require_interior(p, box, 2.0 * h)
    d = jacobian(xi, p, h)  # d[j, i] = d_i xi_j
    return d.T - d


def grad_scalar(f: Callable[[np.ndarray], float], p: np.ndarray, h: float = DEFAULT_STEP) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return np.array([float(partial(lambda q: np.float64(f(q)), p, i, h)) for i in range(p.size)])


def contract_two_form(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(i_X w)_j = w(X, e_j) = (W^T X)_j for the X^T W Y convention."""
    return w.T @ x


def lie_derivative_one_form(
    x: FieldFn,
    xi: FieldFn,
    p: np.ndarray,
    h: float = DEFAULT_STEP,
    box: tuple[float, float] | None = None,
) -> np.ndarray:
    """L_X xi = i_X d xi + d( xi(X) )."""
    p = np.asarray(p, dtype=float)
    require_interior(p, box, 2.0 * h)
    dxi = exterior_d(xi, p, h)
    first = contract_two_form(dxi, np.asarray(x(p), float))
    pairing = lambda q: float(np.dot(np.asarray(xi(q), float), np.asarray(x(q), float)))
    return first + grad_scalar(pairing, p, h)


class GenField:
    """Generalized field: a vector field paired with a one-form field."""

    def __init__(self, vec: FieldFn, form: FieldFn):
        self.vec = vec
        self.form = form

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return np.concatenate([np.asarray(self.vec(p), float), np.asarray(self.form(p), float)])

    @staticmethod
    def from_stacked(f: FieldFn, n: int) -> "GenField":
        return GenField(lambda p: np.asarray(f(p), float)[:n], lambda p: np.asarray(f(p), float)[n:])

    @staticmethod
    def constant(value: np.ndarray) -> "GenField":
        value = np.asarray(value, dtype=float)
        n = value.size // 2
        return GenField(lambda p: value[:n], lambda p: value[n:])


def courant_bracket(
    y: GenField,
    z: GenField,
    p: np.ndarray,
    h: float = DEFAULT_STEP,
    box: tuple[float, float] | None = None,
) -> np.ndarray:
    """Courant bracket value at p, stacked (vector, form) components.

    The skew-symmetrized bracket: antisymmetric in (Y, Z) exactly, at the
    price of failing the Jacobi identity by an exact term.
    """
    p = np.asarray(p, dtype=float)
    require_interior(p, box, 2.0 * h)
    vec = lie_bracket(y.vec, z.vec, p, h)
    form = lie_derivative_one_form(y.vec, z.form, p, h) - lie_derivative_one_form(z.vec, y.form, p, h)
    half = lambda q: 0.5 * (
        float(np.dot(np.asarray(z.form(q), float), np.asarray(y.vec(q), float)))
        - float(np.dot(np.asarray(y.form(q), float), np.asarray(z.vec(q), float)))
    )
    form = form - grad_scalar(half, p, h)
    return np.concatenate([vec, form])


def pairing(y: GenField, z: GenField, p: np.ndarray) -> float:
    """<Y, Z> = ( eta(X) + xi(Y) ) / 2 evaluated pointwise."""
    return 0.5 * (
        float(np.dot(np.asarray(y.form(p), float), np.asarray(z.vec(p), float)))
        + float(np.dot(np.asarray(z.form(p), float), np.asarray(y.vec(p), float)))
    )


def apply_structure(jfield: Callable[[np.ndarray], np.ndarray], f: GenField) -> GenField:
    """The field q -> J(q) F(q), as a GenField."""

    def stacked(q: np.ndarray) -> np.ndarray:
        return np.asarray(jfield(q), float) @ f(q)

    def vec(q):
        s = stacked(q)
        return s[: s.size // 2]

    def form(q):
        s = stacked(q)
        return s[s.size // 2 :]

    return GenField(vec, form)


def nijenhuis_field(
    jfield: Callable[[np.ndarray], np.ndarray],
    y: GenField,
    z: GenField,
    p: np.ndarray,
    h: float = DEFAULT_STEP,
    box: tuple[float, float] | None = None,
) -> np.ndarray:
    """Nij(Y, Z)(p) with Courant brackets, stacked components.

    Tensorial in Y and Z for an honest almost structure (J^2 = -Id,
    pairing-orthogonal), so test fields may be chosen freely.
    """
    p = np.asarray(p, dtype=float)
    jy = apply_structure(jfield, y)
    jz = apply_structure(jfield, z)
    j_at_p = np.asarray(jfield(p), float)
    t1 = courant_bracket(jy, jz, p, h, box)
    t2 = j_at_p @ courant_bracket(jy, z, p, h, box)
    t3 = j_at_p @ courant_bracket(y, jz, p, h, box)
    t4 = courant_bracket(y, z, p, h, box)
    return t1 - t2 - t3 - t4


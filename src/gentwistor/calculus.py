"""Finite-difference Cartan calculus on a coordinate box.

Fields are plain callables on coordinate points p (shape (n,) arrays):
vector fields and one-forms return (n,) arrays, two-forms return
antisymmetric (n, n) matrices W with w(X, Y) = X^T W Y, and generalized
fields are (vector, one-form) pairs.

All derivatives use the 4th-order central stencil

    f'(x) = ( f(x-2h) - 8 f(x-h) + 8 f(x+h) - f(x+2h) ) / (12 h),

so a call touches points up to 2h away in each differentiated coordinate;
keeping those points where the fields are valid is the caller's job (the
oracle checks its metric box with ``oracle.oracle_margin``).

Each operation evaluates every field it is given once at each of the
1 + 4n points of the stencil at p (p itself, then the four offsets along
each coordinate) and applies one array formula to those values, so a
Nijenhuis evaluation calls J, Y and Z 1 + 4n times each however many
brackets it takes. The callable contract is unchanged: fields are still
called one point at a time.

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

FieldFn = Callable[[np.ndarray], np.ndarray]

DEFAULT_STEP = 1e-3

_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_WEIGHTS = (1.0, -8.0, 8.0, -1.0)


def _fd(values, h: float) -> np.ndarray:
    """Stencil sum of the values at the four offsets, in offset order."""
    acc = _WEIGHTS[0] * values[0]
    for w, v in zip(_WEIGHTS[1:], values[1:]):
        acc = acc + w * v
    return acc / (12.0 * h)


def partial(f: FieldFn, p: np.ndarray, i: int, h: float = DEFAULT_STEP) -> np.ndarray:
    """4th-order partial derivative of an array-valued function."""
    p = np.asarray(p, dtype=float)
    values = []
    for off in _OFFSETS:
        q = p.copy()
        q[i] += off * h
        values.append(np.asarray(f(q), dtype=float))
    return _fd(values, h)


def _stencil(p: np.ndarray, h: float) -> np.ndarray:
    """(1 + 4n, n) points: p, then p + off h e_i for each i and offset."""
    p = np.asarray(p, dtype=float)
    n = p.size
    pts = np.tile(p, (1 + 4 * n, 1))
    for i in range(n):
        pts[1 + 4 * i : 5 + 4 * i, i] += np.array(_OFFSETS) * h
    return pts


def _values(f: FieldFn, pts: np.ndarray) -> np.ndarray:
    """f at each stencil point, stacked along a new first axis."""
    return np.stack([np.asarray(f(q), dtype=float) for q in pts])


def _d(values: np.ndarray, h: float) -> np.ndarray:
    """D[..., i] = d_i f from the values of f on the stencil."""
    n = (len(values) - 1) // 4
    by_offset = values[1:].reshape((n, 4) + values.shape[1:]).swapaxes(0, 1)
    return np.moveaxis(_fd(by_offset, h), 0, -1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise pairing of two stencil arrays of covectors and vectors."""
    return np.einsum("sa,sa->s", a, b)


def _lie(x: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    return _d(y, h) @ x[0] - _d(x, h) @ y[0]


def _exterior_d(xi: np.ndarray, h: float) -> np.ndarray:
    d = _d(xi, h)  # d[j, i] = d_i xi_j
    return d.T - d


def _lie_derivative(x: np.ndarray, xi: np.ndarray, h: float) -> np.ndarray:
    # i_X w = W^T X for the X^T W Y convention
    return _exterior_d(xi, h).T @ x[0] + _d(_dot(xi, x), h)


def _courant(y: np.ndarray, z: np.ndarray, h: float) -> np.ndarray:
    """The Courant bracket from stacked (vector, form) stencil values."""
    n = y.shape[1] // 2
    yv, yf, zv, zf = y[:, :n], y[:, n:], z[:, :n], z[:, n:]
    form = _lie_derivative(yv, zf, h) - _lie_derivative(zv, yf, h)
    form = form - _d(0.5 * (_dot(zf, yv) - _dot(yf, zv)), h)
    return np.concatenate([_lie(yv, zv, h), form])


def lie_bracket(x: FieldFn, y: FieldFn, p: np.ndarray, h: float = DEFAULT_STEP) -> np.ndarray:
    """[X, Y](p) = DY(p) X(p) - DX(p) Y(p)."""
    pts = _stencil(p, h)
    return _lie(_values(x, pts), _values(y, pts), h)


def exterior_d(xi: FieldFn, p: np.ndarray) -> np.ndarray:
    """(d xi)_{ij} = d_i xi_j - d_j xi_i, as an antisymmetric matrix."""
    return _exterior_d(_values(xi, _stencil(p, DEFAULT_STEP)), DEFAULT_STEP)


def lie_derivative_one_form(x: FieldFn, xi: FieldFn, p: np.ndarray) -> np.ndarray:
    """L_X xi = i_X d xi + d( xi(X) )."""
    pts = _stencil(p, DEFAULT_STEP)
    return _lie_derivative(_values(x, pts), _values(xi, pts), DEFAULT_STEP)


class GenField:
    """Generalized field: a vector field paired with a one-form field."""

    def __init__(self, vec: FieldFn, form: FieldFn):
        self.vec = vec
        self.form = form

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return np.concatenate([np.asarray(self.vec(p), float), np.asarray(self.form(p), float)])


def courant_bracket(y: GenField, z: GenField, p: np.ndarray, h: float = DEFAULT_STEP) -> np.ndarray:
    """Courant bracket value at p, stacked (vector, form) components.

    The skew-symmetrized bracket: antisymmetric in (Y, Z) exactly, at the
    price of failing the Jacobi identity by an exact term.
    """
    pts = _stencil(p, h)
    return _courant(_values(y, pts), _values(z, pts), h)


def pairing(y: GenField, z: GenField, p: np.ndarray) -> float:
    """<Y, Z> = ( eta(X) + xi(Y) ) / 2 evaluated pointwise."""
    return 0.5 * (
        float(np.dot(np.asarray(y.form(p), float), np.asarray(z.vec(p), float)))
        + float(np.dot(np.asarray(z.form(p), float), np.asarray(y.vec(p), float)))
    )


def nijenhuis_field(
    jfield: Callable[[np.ndarray], np.ndarray],
    y: GenField,
    z: GenField,
    p: np.ndarray,
    h: float = DEFAULT_STEP,
) -> np.ndarray:
    """Nij(Y, Z)(p) with Courant brackets, stacked components.

    Tensorial in Y and Z for an honest almost structure (J^2 = -Id,
    pairing-orthogonal), so test fields may be chosen freely.
    """
    pts = _stencil(p, h)
    j = _values(jfield, pts)
    ys = _values(y, pts)
    zs = _values(z, pts)
    jy = np.einsum("sab,sb->sa", j, ys)
    jz = np.einsum("sab,sb->sa", j, zs)
    t1 = _courant(jy, jz, h)
    t2 = j[0] @ _courant(jy, zs, h)
    t3 = j[0] @ _courant(ys, jz, h)
    t4 = _courant(ys, zs, h)
    return t1 - t2 - t3 - t4

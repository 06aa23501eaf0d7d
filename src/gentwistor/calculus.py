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
1 + 4n points of the stencil at p (``stencil(p, h)``: p itself, then the
four offsets along each coordinate) and applies one array formula to
those values, so a Nijenhuis evaluation calls J, Y and Z 1 + 4n times
each however many brackets it takes; one derivative pass covers the
fields and the pairings its brackets read, stacked along columns.
Fields given as callables are called one point at a time.  A caller
that computes its fields in a batch takes the points from ``stencil``
and hands the values to ``nijenhuis_values``, the array core that
``nijenhuis_field`` wraps.

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

from .numerics import DEFAULT_STEP

FieldFn = Callable[[np.ndarray], np.ndarray]

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
    return _fd([np.asarray(f(q), dtype=float) for q in stencil(p, h)[1 + 4 * i : 5 + 4 * i]], h)


def stencil(p: np.ndarray, h: float) -> np.ndarray:
    """(1 + 4n, n) points where every operation at p evaluates its fields:
    p, then p + off h e_i for each i and offset."""
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


def _lie(x: np.ndarray, y: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return dy @ x - dx @ y


def _exterior_d(d: np.ndarray) -> np.ndarray:
    return d.T - d  # d[j, i] = d_i xi_j


def _lie_derivative(x: np.ndarray, dxi: np.ndarray, dpair: np.ndarray) -> np.ndarray:
    # i_X w = W^T X for the X^T W Y convention; dpair = d( xi(X) )
    return _exterior_d(dxi).T @ x + dpair


def _courant(y: np.ndarray, z: np.ndarray, dy: np.ndarray, dz: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """The Courant bracket from stacked (vector, form) values y, z at a point,
    their derivatives dy, dz (2n, n) and those of their pairings dp (3, n)."""
    n = y.size // 2
    form = _lie_derivative(y[:n], dz[n:], dp[0]) - _lie_derivative(z[:n], dy[n:], dp[1])
    return np.concatenate([_lie(y[:n], z[:n], dy[:n], dz[:n]), form - dp[2]])


def _brackets(fields: tuple, pairs: tuple, h: float) -> list:
    """Courant brackets [fields[a], fields[b]] at the stencil centre, one per
    (a, b) in pairs, from one derivative pass over the fields (1 + 4n, 2n)
    and the pairings eta(X), xi(Y) and their half difference of each pair."""
    n, cols = fields[0].shape[1] // 2, []
    for y, z in ((fields[a], fields[b]) for a, b in pairs):
        u, v = _dot(z[:, n:], y[:, :n]), _dot(y[:, n:], z[:, :n])
        cols.append(np.stack([u, v, 0.5 * (u - v)], axis=1))
    d, k = _d(np.concatenate(fields + tuple(cols), axis=1), h), 2 * n * len(fields)
    df, dp = d[:k].reshape(len(fields), 2 * n, -1), d[k:].reshape(len(pairs), 3, -1)
    return [_courant(fields[a][0], fields[b][0], df[a], df[b], dp[k]) for k, (a, b) in enumerate(pairs)]


def lie_bracket(x: FieldFn, y: FieldFn, p: np.ndarray, h: float = DEFAULT_STEP) -> np.ndarray:
    """[X, Y](p) = DY(p) X(p) - DX(p) Y(p)."""
    x, y = (_values(f, stencil(p, h)) for f in (x, y))
    return _lie(x[0], y[0], _d(x, h), _d(y, h))


def exterior_d(xi: FieldFn, p: np.ndarray) -> np.ndarray:
    """(d xi)_{ij} = d_i xi_j - d_j xi_i, as an antisymmetric matrix."""
    return _exterior_d(_d(_values(xi, stencil(p, DEFAULT_STEP)), DEFAULT_STEP))


def lie_derivative_one_form(x: FieldFn, xi: FieldFn, p: np.ndarray) -> np.ndarray:
    """L_X xi = i_X d xi + d( xi(X) )."""
    x, xi = (_values(f, stencil(p, DEFAULT_STEP)) for f in (x, xi))
    return _lie_derivative(x[0], _d(xi, DEFAULT_STEP), _d(_dot(xi, x), DEFAULT_STEP))


class GenField:
    """Generalized field: a vector field paired with a one-form field."""

    def __init__(self, vec: FieldFn, form: FieldFn):
        self.vec, self.form = vec, form

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return np.concatenate([np.asarray(self.vec(p), float), np.asarray(self.form(p), float)])


def courant_bracket(y: GenField, z: GenField, p: np.ndarray, h: float = DEFAULT_STEP) -> np.ndarray:
    """Courant bracket value at p, stacked (vector, form) components.

    The skew-symmetrized bracket: antisymmetric in (Y, Z) exactly, at the
    price of failing the Jacobi identity by an exact term.
    """
    return _brackets(tuple(_values(f, stencil(p, h)) for f in (y, z)), ((0, 1),), h)[0]


def pairing(y: GenField, z: GenField, p: np.ndarray) -> float:
    """<Y, Z> = ( eta(X) + xi(Y) ) / 2 evaluated pointwise."""
    return 0.5 * float(np.dot(y.form(p), z.vec(p)) + np.dot(z.form(p), y.vec(p)))


def nijenhuis_values(j: np.ndarray, ys: np.ndarray, zs: np.ndarray, h: float) -> np.ndarray:
    """Nij(Y, Z) at the centre of a stencil, stacked components, from J
    (1 + 4n, 2n, 2n) and Y, Z (1 + 4n, 2n) at its rows (``stencil(p, h)``).

    Tensorial in Y and Z for an honest almost structure (J^2 = -Id,
    pairing-orthogonal), so test fields may be chosen freely.
    """
    jy = np.einsum("sab,sb->sa", j, ys)
    jz = np.einsum("sab,sb->sa", j, zs)
    # [JY, JZ], [JY, Z], [Y, JZ] and [Y, Z] from one derivative pass
    t1, t2, t3, t4 = _brackets((jy, jz, ys, zs), ((0, 1), (0, 3), (2, 1), (2, 3)), h)
    return t1 - j[0] @ t2 - j[0] @ t3 - t4


def nijenhuis_field(
    jfield: Callable[[np.ndarray], np.ndarray],
    y: GenField,
    z: GenField,
    p: np.ndarray,
    h: float = DEFAULT_STEP,
) -> np.ndarray:
    """Nij(Y, Z)(p) with Courant brackets, for a structure field and
    generalized fields given as callables."""
    pts = stencil(p, h)
    return nijenhuis_values(_values(jfield, pts), _values(y, pts), _values(z, pts), h)

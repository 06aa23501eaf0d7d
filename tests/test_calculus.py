import numpy as np
import pytest

from gentwistor.calculus import (
    GenField,
    courant_bracket,
    exterior_d,
    lie_bracket,
    lie_derivative_one_form,
    nijenhuis_field,
    pairing,
    partial,
)
from gentwistor.errors import DomainError
from gentwistor.gca import ComponentTag, from_complex, from_symplectic
from gentwistor.metrics import metric_by_name
from gentwistor.oracle import nijenhuis_numeric, oracle_margin
from gentwistor.twistor import StructureKind, TwistorPoint, random_fiber

I0 = np.array([[0.0, -1.0, 0, 0], [1.0, 0, 0, 0], [0, 0, 0, -1.0], [0, 0, 1.0, 0]])


def const(v):
    v = np.asarray(v, float)
    return lambda p: v


def test_partial_fourth_order_exact_on_quartics():
    f = lambda p: np.array([p[0] ** 4 + p[1] ** 2, p[2] ** 3])
    p = np.array([0.3, -0.2, 0.5, 0.1])
    np.testing.assert_allclose(partial(f, p, 0), [4 * 0.3 ** 3, 0.0], atol=1e-10)
    np.testing.assert_allclose(partial(f, p, 2), [0.0, 3 * 0.25], atol=1e-10)


def test_lie_bracket_coordinate_example():
    # [x1 d2, d1] = -d2
    x = lambda p: np.array([0.0, p[0], 0.0, 0.0])
    y = const([1.0, 0, 0, 0])
    got = lie_bracket(x, y, np.array([0.2, 0.1, 0.0, -0.3]))
    np.testing.assert_allclose(got, [0.0, -1.0, 0.0, 0.0], atol=1e-9)


def test_lie_bracket_antisymmetry_and_jacobi():
    rng = np.random.default_rng(0)
    c = rng.normal(size=(3, 4, 21))

    def poly(k):
        def f(p):
            out = np.empty(4)
            for a in range(4):
                row = c[k, a]
                out[a] = row[0] + row[1:5] @ p + p @ row[5:].reshape(4, 4) @ p
            return out

        return f

    x, y, z = poly(0), poly(1), poly(2)
    p = rng.normal(size=4) * 0.3
    np.testing.assert_allclose(
        lie_bracket(x, y, p), -lie_bracket(y, x, p), atol=1e-9
    )
    # Jacobi via nested numeric brackets, wider outer step for the nesting
    h2 = 1e-2
    xy = lambda q: lie_bracket(x, y, q)
    yz = lambda q: lie_bracket(y, z, q)
    zx = lambda q: lie_bracket(z, x, q)
    total = (
        lie_bracket(xy, z, p, h=h2)
        + lie_bracket(yz, x, p, h=h2)
        + lie_bracket(zx, y, p, h=h2)
    )
    np.testing.assert_allclose(total, np.zeros(4), atol=1e-6)


def test_exterior_d_coordinate_example():
    # d(x1 dx2) = dx1 ^ dx2
    xi = lambda p: np.array([0.0, p[0], 0.0, 0.0])
    w = exterior_d(xi, np.array([0.1, 0.2, 0.3, 0.4]))
    expect = np.zeros((4, 4))
    expect[0, 1], expect[1, 0] = 1.0, -1.0
    np.testing.assert_allclose(w, expect, atol=1e-10)


ALPHA = lambda p: np.array([p[1] ** 2, 0.0, p[0] * p[3], 0.0])


def d_alpha(p):
    """Symbolic exterior derivative of ALPHA, frozen by hand."""
    w = np.zeros((4, 4))
    w[1, 0], w[0, 1] = 2 * p[1], -2 * p[1]
    w[0, 2], w[2, 0] = p[3], -p[3]
    w[3, 2], w[2, 3] = p[0], -p[0]
    return w


def test_exterior_d_matches_symbolic():
    rng = np.random.default_rng(1)
    for _ in range(5):
        p = rng.normal(size=4) * 0.4
        np.testing.assert_allclose(exterior_d(ALPHA, p), d_alpha(p), atol=1e-9)


def test_closed_form_contraction():
    # for closed w (here exact, w = d alpha) and constant X the Cartan
    # formula collapses to L_X w = d(i_X w); the left side is the plain
    # directional derivative of the coefficient matrix
    x = np.array([0.7, -0.2, 0.4, 0.1])
    p = np.array([0.05, -0.3, 0.2, 0.15])
    ixw = lambda q: d_alpha(q).T @ x
    lhs = exterior_d(ixw, p)
    rhs = partial(lambda q: d_alpha(q), p, 0) * 0.0
    for i in range(4):
        rhs = rhs + x[i] * partial(lambda q: d_alpha(q), p, i)
    np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_lie_derivative_of_exact_form():
    # L_X df = d(X.f) for f = x1 x2^2, X = d1 + x1 d3
    f = lambda p: p[0] * p[1] ** 2
    df = lambda p: np.array([p[1] ** 2, 2 * p[0] * p[1], 0.0, 0.0])
    x = lambda p: np.array([1.0, 0.0, p[0], 0.0])
    xf = lambda p: np.array(p[1] ** 2 + 0.0 * p[0])  # X.f = x2^2
    p = np.array([0.3, 0.4, -0.1, 0.2])
    got = lie_derivative_one_form(x, df, p)
    expect = np.array([0.0, 2 * p[1], 0.0, 0.0])
    np.testing.assert_allclose(got, expect, atol=1e-9)
    assert float(xf(p)) == pytest.approx(p[1] ** 2)


def test_courant_bracket_antisymmetry():
    rng = np.random.default_rng(2)
    for _ in range(5):
        cy, cz = rng.normal(size=(2, 8)), rng.normal(size=(2, 8))
        y = GenField(lambda p, c=cy: c[0, :4] + p * c[0, 4:], lambda p, c=cy: c[1, :4] + p[::-1] * c[1, 4:])
        z = GenField(lambda p, c=cz: c[0, :4] + p * c[0, 4:], lambda p, c=cz: c[1, :4] + p[::-1] * c[1, 4:])
        p = rng.normal(size=4) * 0.3
        np.testing.assert_allclose(
            courant_bracket(y, z, p), -courant_bracket(z, y, p), atol=1e-9
        )


def test_courant_bracket_on_pure_vectors_is_lie():
    x = lambda p: np.array([p[1], 0.0, p[0] * p[2], 0.0])
    yv = lambda p: np.array([0.0, p[0], 0.0, 1.0])
    y = GenField(x, const(np.zeros(4)))
    z = GenField(yv, const(np.zeros(4)))
    p = np.array([0.2, -0.1, 0.3, 0.0])
    got = courant_bracket(y, z, p)
    np.testing.assert_allclose(got[:4], lie_bracket(x, yv, p), atol=1e-10)
    np.testing.assert_allclose(got[4:], np.zeros(4), atol=1e-10)


def _random_genfield(rng):
    cv = rng.normal(size=(4, 21)) * 0.5
    cf = rng.normal(size=(4, 21)) * 0.5

    def make(c):
        def f(p):
            out = np.empty(4)
            for a in range(4):
                row = c[a]
                out[a] = row[0] + row[1:5] @ p + p @ row[5:].reshape(4, 4) @ p
            return out

        return f

    return GenField(make(cv), make(cf))


def test_function_linearity_identity():
    # [Y, fZ] = f [Y, Z] + (pr1 Y).f Z - <Y, Z> df, checked at 100 samples
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        y = _random_genfield(rng)
        z = _random_genfield(rng)
        cf = rng.normal(size=5) * 0.5
        f = lambda p, c=cf: float(c[0] + c[1:] @ p)
        df = cf[1:]
        fz = GenField(lambda p: f(p) * z.vec(p), lambda p: f(p) * z.form(p))
        for _ in range(5):
            p = rng.normal(size=4) * 0.4
            lhs = courant_bracket(y, fz, p)
            xf = float(np.dot(df, y.vec(p)))  # (pr1 Y).f for affine f
            rhs = f(p) * courant_bracket(y, z, p) + xf * z(p)
            rhs[4:] -= pairing(y, z, p) * df
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-6


def test_nijenhuis_constant_structures_vanish():
    rng = np.random.default_rng(4)
    jc = from_complex(I0).m
    js = from_symplectic(I0).m
    for jmat in (jc, js):
        jfield = lambda p, m=jmat: m
        for _ in range(3):
            y = _random_genfield(rng)
            z = _random_genfield(rng)
            p = rng.normal(size=4) * 0.3
            res = nijenhuis_field(jfield, y, z, p)
            assert np.abs(res).max() < 1e-8


def _shear(b):
    e = np.eye(8)
    e[4:, :4] = b
    ei = np.eye(8)
    ei[4:, :4] = -b
    return e, ei


def test_nijenhuis_closed_b_transform_vanishes():
    # conjugating an integrable structure by exp(B) with dB = 0 keeps it
    # integrable; here B = d(alpha) is exact, hence closed, and varies
    jc = from_complex(I0).m

    def jfield(q):
        eb, ebinv = _shear(d_alpha(q))
        return ebinv @ jc @ eb

    rng = np.random.default_rng(5)
    y = _random_genfield(rng)
    z = _random_genfield(rng)
    p = np.array([0.1, -0.2, 0.25, 0.05])
    res = nijenhuis_field(jfield, y, z, p)
    assert np.abs(res).max() < 1e-6


def _w_nonclosed(p):
    w = np.zeros((4, 4))
    a = 1.0 + p[2] ** 2  # x3-dependence makes d w nonzero
    w[0, 1], w[1, 0] = a, -a
    w[2, 3], w[3, 2] = 1.0, -1.0
    return w


def test_nijenhuis_detects_non_closed_two_form():
    def jfield(q):
        w = _w_nonclosed(q)
        winv = np.linalg.inv(w)
        m = np.zeros((8, 8))
        m[:4, 4:] = -winv
        m[4:, :4] = w
        return m

    rng = np.random.default_rng(6)
    y = _random_genfield(rng)
    z = _random_genfield(rng)
    p = np.array([0.2, 0.1, 0.5, -0.1])
    res = nijenhuis_field(jfield, y, z, p)
    assert np.abs(res).max() > 1e-3


def test_nijenhuis_closed_two_form_vanishes():
    # same shape of structure but with x1-dependence only: closed
    def w_closed(p):
        w = np.zeros((4, 4))
        a = 1.0 + p[0] ** 2
        w[0, 1], w[1, 0] = a, -a
        w[2, 3], w[3, 2] = 1.0, -1.0
        return w

    def jfield(q):
        w = w_closed(q)
        winv = np.linalg.inv(w)
        m = np.zeros((8, 8))
        m[:4, 4:] = -winv
        m[4:, :4] = w
        return m

    rng = np.random.default_rng(7)
    y = _random_genfield(rng)
    z = _random_genfield(rng)
    p = np.array([0.2, 0.1, 0.5, -0.1])
    res = nijenhuis_field(jfield, y, z, p)
    assert np.abs(res).max() < 1e-6


def _reference_courant(y, z, p, h):
    """The Courant bracket term by term from partial, each derivative
    making its own field calls: the per-call arithmetic of the formula."""
    jac = lambda f: np.stack([partial(f, p, i, h) for i in range(p.size)], axis=-1)
    grad = lambda f: np.array([partial(f, p, i, h) for i in range(p.size)])

    def lie_d(x, xi):
        d = jac(xi)
        return (d - d.T) @ x(p) + grad(lambda q: xi(q) @ x(q))

    vec = jac(z.vec) @ y.vec(p) - jac(y.vec) @ z.vec(p)
    half = lambda q: 0.5 * (z.form(q) @ y.vec(q) - y.form(q) @ z.vec(q))
    form = lie_d(y.vec, z.form) - lie_d(z.vec, y.form) - grad(half)
    return np.concatenate([vec, form])


def test_stencil_values_match_per_call_reference():
    rng = np.random.default_rng(9)

    def jfield(q):
        w = _w_nonclosed(q)
        m = np.zeros((8, 8))
        m[:4, 4:] = -np.linalg.inv(w)
        m[4:, :4] = w
        return m

    def applied(f):
        return GenField(lambda q: (jfield(q) @ f(q))[:4], lambda q: (jfield(q) @ f(q))[4:])

    for h in (1e-3, 1e-2):
        y = _random_genfield(rng)
        z = _random_genfield(rng)
        p = rng.normal(size=4) * 0.3
        bracket = lambda a, b: _reference_courant(a, b, p, h)
        jy, jz, j0 = applied(y), applied(z), jfield(p)
        expect = bracket(jy, jz) - j0 @ bracket(jy, z) - j0 @ bracket(y, jz) - bracket(y, z)
        assert np.abs(expect).max() > 1e-3
        np.testing.assert_allclose(nijenhuis_field(jfield, y, z, p, h), expect, rtol=0, atol=1e-9)
        np.testing.assert_allclose(courant_bracket(y, z, p, h), bracket(y, z), rtol=0, atol=1e-9)


def test_domain_guard():
    # the calculus evaluates fields wherever its stencil reaches; the guard
    # is the metric box, checked by the oracle with its own margin
    m = metric_by_name("flat")
    f = random_fiber(ComponentTag.PP, np.random.default_rng(8))
    sel = (("h+", 0), ("h-", 1))
    margin = oracle_margin(m)
    for x in (m.hi - 0.5 * margin, m.lo + 0.5 * margin):
        with pytest.raises(DomainError):
            nijenhuis_numeric(m, TwistorPoint(np.array([0.0, x, 0.0, 0.0]), f), sel, StructureKind.GENJ)
    # a point just inside the margin passes
    inside = TwistorPoint(np.array([0.0, m.hi - 1.01 * margin, 0.0, 0.0]), f)
    assert nijenhuis_numeric(m, inside, sel, StructureKind.GENJ).norm < 1e-5

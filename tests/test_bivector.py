import numpy as np
import pytest

from gentwistor.bivector import (
    SIX_BASIS,
    TRIPLES,
    U6,
    WEDGE_PAIRS,
    basis_wedge,
    pair_coords,
    sd_asd_coords,
    unit_combination,
    wedge,
)


def _half_trace(a: np.ndarray, b: np.ndarray) -> float:
    """The bivector pairing <A, B> = tr(A^T B) / 2."""
    return 0.5 * float(np.tensordot(a, b, axes=2))


def _random_bivector(rng) -> np.ndarray:
    a = rng.normal(size=(4, 4))
    return a - a.T


def test_wedge_on_basis_vectors():
    e = np.eye(4)
    for i, j in WEDGE_PAIRS:
        m = wedge(e[i], e[j])
        assert np.array_equal(m, basis_wedge(i, j))
        # sends e_i to e_j and e_j to -e_i
        assert np.array_equal(m @ e[i], e[j])
        assert np.array_equal(m @ e[j], -e[i])


def test_basis_wedge_is_antisymmetric_in_its_indices():
    for i in range(4):
        assert not basis_wedge(i, i).any()
        for j in range(4):
            assert np.array_equal(basis_wedge(i, j), -basis_wedge(j, i))


def test_quaternion_relations_plus_triple():
    ip, jp, kp = TRIPLES[+1]
    for t in (ip, jp, kp):
        assert np.array_equal(t @ t, -np.eye(4))
    assert np.array_equal(ip @ jp, kp)
    assert np.array_equal(jp @ kp, ip)
    assert np.array_equal(kp @ ip, jp)


def test_minus_triple_is_left_handed():
    im, jm, km = TRIPLES[-1]
    for t in (im, jm, km):
        assert np.array_equal(t @ t, -np.eye(4))
    # the wedge convention makes the anti-self-dual triple left-handed
    assert np.array_equal(im @ jm, -km)


def test_triples_commute():
    for a in TRIPLES[+1]:
        for b in TRIPLES[-1]:
            assert np.abs(a @ b - b @ a).max() == 0.0


def test_half_trace_norms():
    for e in SIX_BASIS:
        assert _half_trace(e, e) == pytest.approx(2.0)
    for i, e in enumerate(SIX_BASIS):
        for f in SIX_BASIS[i + 1 :]:
            assert _half_trace(e, f) == pytest.approx(0.0)


def test_pair_coords_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = _random_bivector(rng)
        c = pair_coords(a)
        back = sum(ck * basis_wedge(i, j) for ck, (i, j) in zip(c, WEDGE_PAIRS))
        np.testing.assert_allclose(back, a, atol=1e-14)


def test_six_coords_round_trip_and_isometry():
    # U6 @ pair_coords gives the coordinates over SIX_BASIS / sqrt(2)
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = _random_bivector(rng)
        c = U6 @ pair_coords(a)
        back = sum(ck * e for ck, e in zip(c, SIX_BASIS)) / np.sqrt(2.0)
        np.testing.assert_allclose(back, a, atol=1e-13)
        # the normalized basis is orthonormal for the half-trace pairing
        assert np.dot(c, c) == pytest.approx(_half_trace(a, a), rel=1e-12)


def test_u6_is_orthogonal_and_consistent():
    np.testing.assert_allclose(U6 @ U6.T, np.eye(6), atol=1e-14)
    for k, e in enumerate(SIX_BASIS):
        np.testing.assert_allclose(U6.T[:, k], pair_coords(e) / np.sqrt(2.0), atol=1e-15)


def _star_levi_civita(a: np.ndarray) -> np.ndarray:
    """Independent Hodge star via the alternating symbol on wedge coords."""
    eps = np.zeros((4, 4, 4, 4))
    for p in (
        (0, 1, 2, 3, 1), (0, 2, 3, 1, 1), (0, 3, 1, 2, 1),
        (1, 0, 3, 2, 1), (1, 2, 0, 3, 1), (1, 3, 2, 0, 1),
        (2, 0, 1, 3, 1), (2, 1, 3, 0, 1), (2, 3, 0, 1, 1),
        (3, 0, 2, 1, 1), (3, 1, 0, 2, 1), (3, 2, 1, 0, 1),
    ):
        i, j, k, l, s = p
        eps[i, j, k, l] = s
        eps[j, i, k, l] = -s
    out = np.zeros((4, 4))
    c = {(i, j): a[j, i] for (i, j) in WEDGE_PAIRS}
    for (i, j), cij in c.items():
        for k, l in WEDGE_PAIRS:
            out += cij * eps[i, j, k, l] * basis_wedge(k, l)
    return out


def test_hodge_star_matches_levi_civita_formula():
    # the plus triple spans the +1 eigenspace of the Levi-Civita star and
    # the minus triple the -1 eigenspace, so the star keeps the SD
    # coordinates and flips the sign of the ASD ones
    for e in TRIPLES[+1]:
        np.testing.assert_allclose(_star_levi_civita(e), e, atol=1e-14)
    for e in TRIPLES[-1]:
        np.testing.assert_allclose(_star_levi_civita(e), -e, atol=1e-14)
    rng = np.random.default_rng(10)
    for _ in range(10):
        a = _random_bivector(rng)
        c = sd_asd_coords(a)
        star = unit_combination(c[+1], +1) - unit_combination(c[-1], -1)
        np.testing.assert_allclose(star, _star_levi_civita(a), atol=1e-13)


def test_unit_combinations_square_to_minus_id():
    rng = np.random.default_rng(11)
    for sign in (+1, -1):
        for _ in range(25):
            c = rng.normal(size=3)
            c /= np.linalg.norm(c)
            u = unit_combination(c, sign)
            np.testing.assert_allclose(u @ u, -np.eye(4), atol=1e-13)
            coords = sd_asd_coords(u)
            np.testing.assert_allclose(coords[sign], c, atol=1e-13)
            np.testing.assert_allclose(coords[-sign], 0.0, atol=1e-14)


def test_unit_combination_over_leading_axes():
    # each entry of u is +-c_k or zero, so a batch equals its vectors' own
    # combinations bit for bit
    c = np.random.default_rng(13).normal(size=(2, 5, 3))
    for sign in (+1, -1):
        u = unit_combination(c, sign)
        assert u.shape == (2, 5, 4, 4)
        for idx in np.ndindex(2, 5):
            assert np.array_equal(u[idx], unit_combination(c[idx], sign))


def test_sd_asd_coords_invert_the_generator_sum():
    rng = np.random.default_rng(12)
    cp, cm = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    a = np.einsum("nk,kab->nab", cp, np.stack(TRIPLES[+1])) + np.einsum("nk,kab->nab", cm, np.stack(TRIPLES[-1]))
    coords = sd_asd_coords(a)  # batched over the leading axis
    np.testing.assert_allclose(coords[+1], cp, atol=1e-14)
    np.testing.assert_allclose(coords[-1], cm, atol=1e-14)
    one = sd_asd_coords(a[3])
    np.testing.assert_allclose(one[+1], cp[3], atol=1e-14)
    np.testing.assert_allclose(one[-1], cm[3], atol=1e-14)

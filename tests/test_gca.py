import numpy as np
import pytest

from gentwistor import gca
from gentwistor.bivector import IM, IP, JP, KM, unit_combination
from gentwistor.errors import ConsistencyError, InvalidInputError
from gentwistor.gca import (
    BasisTag,
    ComponentTag,
    GenStructure,
    S_MATRIX,
    b_transform,
    change_basis,
    from_complex,
    from_symplectic,
    pseudo_metric_matrix,
    structure_from_blocks,
    type_of,
)

I0 = np.array([[0.0, -1.0, 0, 0], [1.0, 0, 0, 0], [0, 0, 0, -1.0], [0, 0, 1.0, 0]])


def random_fiber(rng, tag: ComponentTag):
    s1, s2 = tag.signs
    a = rng.normal(size=3)
    a /= np.linalg.norm(a)
    b = rng.normal(size=3)
    b /= np.linalg.norm(b)
    return unit_combination(a, s1), unit_combination(b, s2)


def test_s_matrix_round_trip():
    assert np.array_equal(S_MATRIX @ S_MATRIX, 2.0 * np.eye(8))
    q_tt = pseudo_metric_matrix(BasisTag.TT)
    q_pm = pseudo_metric_matrix(BasisTag.PM)
    np.testing.assert_allclose(S_MATRIX.T @ q_tt @ S_MATRIX, q_pm, atol=1e-15)


def test_pseudo_inner_pairing_values():
    # <X + xi, Y + eta> = (xi(Y) + eta(X)) / 2 in TT coordinates
    q = pseudo_metric_matrix(BasisTag.TT)
    e = np.eye(8)
    x, xi, eta = e[0], e[4], e[5]
    assert x @ q @ x == 0.0
    assert xi @ q @ eta == 0.0
    assert x @ q @ xi == 0.5


def test_from_complex_shape_and_type():
    u = from_complex(I0)
    np.testing.assert_allclose(u.m[:4, :4], I0)
    np.testing.assert_allclose(u.m[4:, 4:], -I0.T)
    assert type_of(u) == 2


def test_from_symplectic_shape_and_type():
    u = from_symplectic(I0)
    # I0^{-1} = -I0, so the tangent-acting block is +I0 in the corner
    np.testing.assert_allclose(u.m[:4, 4:], I0)
    np.testing.assert_allclose(u.m[4:, :4], I0)
    assert type_of(u) == 0


def test_kahler_partner_of_flat_complex_structure():
    # swapping the TT blocks of the complex structure I0 gives the
    # symplectic structure of the same 2-form, and the pair multiplies to
    # minus the generalized metric [[0, I], [I, 0]]
    j1 = from_complex(I0)
    p, q = j1.m[:4, :4], j1.m[:4, 4:]
    j2 = from_symplectic(I0)
    np.testing.assert_allclose(j2.m, np.block([[q, p], [p, q]]), atol=1e-14)
    g = np.block([[np.zeros((4, 4)), np.eye(4)], [np.eye(4), np.zeros((4, 4))]])
    np.testing.assert_allclose(j1.m @ j2.m, -g, atol=1e-14)


def test_change_basis_involution():
    rng = np.random.default_rng(2)
    u1, u2 = random_fiber(rng, ComponentTag.PM)
    u = structure_from_blocks(u1, u2)
    back = change_basis(change_basis(u, BasisTag.TT), BasisTag.PM)
    np.testing.assert_allclose(back.m, u.m, atol=1e-14)


def test_structure_validation_rejects_non_structure():
    bad = np.eye(8)
    with pytest.raises(InvalidInputError):
        GenStructure(bad, BasisTag.TT)


def test_type_values_on_pm_fibers():
    # equal blocks: complex-like, type 2
    assert type_of(structure_from_blocks(IP, IP)) == 2
    # pure component, distinct blocks: symplectic-like, type 0
    assert type_of(structure_from_blocks(IP, JP)) == 0
    # mixed component: odd type 1
    assert type_of(structure_from_blocks(IP, IM)) == 1
    assert type_of(structure_from_blocks(JP, KM)) == 1


def test_b_transform_is_structure_and_preserves_type():
    rng = np.random.default_rng(6)
    for tag in ComponentTag:
        for _ in range(10):
            u1, u2 = random_fiber(rng, tag)
            u = change_basis(structure_from_blocks(u1, u2), BasisTag.TT)
            b = rng.normal(size=(4, 4))
            b = b - b.T
            ub = b_transform(u, b)  # constructor revalidates the algebra
            assert type_of(ub) == type_of(u)
            # upper-right block untouched, exactly
            np.testing.assert_allclose(ub.m[:4, 4:], u.m[:4, 4:], atol=0.0)


def test_type_parity_matches_component():
    rng = np.random.default_rng(7)
    g = np.block([[np.zeros((4, 4)), np.eye(4)], [np.eye(4), np.zeros((4, 4))]])
    for tag in ComponentTag:
        for _ in range(25):
            u1, u2 = random_fiber(rng, tag)
            j1 = change_basis(structure_from_blocks(u1, u2), BasisTag.TT)
            # The generalized Kahler partner of [[P, Q], [Q, P]] swaps the TT
            # blocks to [[Q, P], [P, Q]], which sends (u1, u2) = (P + Q, P - Q)
            # to (u1, -u2): the fiber (a, -b) on the same component.
            j2 = change_basis(structure_from_blocks(u1, -u2), BasisTag.TT)
            p, q = j1.m[:4, :4], j1.m[:4, 4:]
            np.testing.assert_allclose(j2.m, np.block([[q, p], [p, q]]), atol=1e-15)
            np.testing.assert_allclose(j1.m @ j2.m, -g, atol=1e-12)
            t1, t2 = type_of(j1), type_of(j2)
            if tag.mixed:
                assert t1 % 2 == 1 and t2 % 2 == 1
            else:
                assert t1 % 2 == 0 and t2 % 2 == 0


def test_type_consistency_error_surfaces(monkeypatch):
    # the two type computations are independent; when they disagree,
    # type_of raises instead of picking one
    u = structure_from_blocks(IP, JP)
    assert type_of(u) == 0
    monkeypatch.setattr(gca, "_type_from_eigenspace", lambda u_tt: 1)
    with pytest.raises(ConsistencyError):
        type_of(u)


def test_type_paths_agree_next_to_the_diagonal():
    # the bivector block's singular values are |a - b| / 2 there and the
    # projected eigenspace's |a - b| / 4; both paths must read the same type
    a = np.array([0.0, 0.0, -1.0])
    u = structure_from_blocks(unit_combination(a, 1), unit_combination(np.array([0.0, 3e-8, -1.0]), 1))
    assert type_of(u) == 0
    bfield = np.array([[0.0, 1.0, -2.0, 0.5], [-1.0, 0.0, 3.0, 4.0], [2.0, -3.0, 0.0, -1.5], [-0.5, -4.0, 1.5, 0.0]])
    for sign in (1, -1):
        for d in np.logspace(-9, -6, 61):
            b = np.array([0.0, d, -1.0]) / np.hypot(d, 1.0)
            u = structure_from_blocks(unit_combination(a, sign), unit_combination(b, sign))
            expect = 2 if np.linalg.norm(a - b) < 2e-8 else 0
            assert type_of(u) == type_of(b_transform(u, bfield)) == expect, (sign, d)


def test_component_tag_signs():
    assert ComponentTag.PP.signs == (1, 1)
    assert ComponentTag.MP.signs == (-1, 1)
    assert ComponentTag.PM.mixed and ComponentTag.MP.mixed
    assert not ComponentTag.PP.mixed

import numpy as np
import pytest

from coring_lab import GF, QQ
from coring_lab.algebra import (
    Algebra,
    AlgebraMap,
    center_basis,
    check_algebra_map,
    direct_product,
    identity_map,
    matrix_algebra,
    new_algebra,
    opposite,
)
from coring_lab.errors import AlgebraAxiomError, DimensionMismatchError, FieldMismatchError
from coring_lab.linalg import _solve

from conftest import dual_numbers, field_algebra

F2 = GF(2)
F3 = GF(3)


def test_field_algebra_is_valid():
    k = new_algebra(F2, [[[1]]], [1])
    assert k.dim == 1
    assert k.mult([1], [1]).tolist() == [1]


def test_dual_numbers_multiplication_table():
    d = dual_numbers(F2)
    one, x = np.array([1, 0]), np.array([0, 1])
    assert d.mult(x, x).tolist() == [0, 0]
    assert d.mult(one, x).tolist() == [0, 1]
    assert d.mult(x, one).tolist() == [0, 1]


def test_unit_law_violation_is_reported():
    with pytest.raises(AlgebraAxiomError, match="unit law"):
        new_algebra(F2, [[[0]]], [1])


def test_associativity_violation_names_a_triple():
    # b1*b1 = b0 but b1*b0 = 0 breaks (b1 b1) b1 = b1 (b1 b1)
    c = F2.zeros((2, 2, 2))
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    c[1, 1, 0] = 1
    c[1, 0, 0] = 1
    with pytest.raises(AlgebraAxiomError, match="non-associative"):
        new_algebra(F2, c, [1, 0])


def test_matrix_algebra_n1_is_the_field():
    assert matrix_algebra(1, F3) == field_algebra(F3, name="M1")


def test_matrix_algebra_delta_rule():
    m2 = matrix_algebra(2, F2)
    e11, e12 = F2.zeros(4), F2.zeros(4)
    e11[0] = 1
    e12[1] = 1
    assert m2.mult(e11, e12).tolist() == e12.tolist()
    assert m2.mult(e12, e11).tolist() == [0, 0, 0, 0]
    assert m2.mult(m2.unit, e12).tolist() == e12.tolist()


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_matrix_algebra_in_a_random_basis_is_accepted(p):
    f = GF(p)
    m2 = matrix_algebra(2, f)
    rng = np.random.default_rng(1)
    t_inv = None
    while t_inv is None:
        t = f.random(rng, (4, 4))  # new basis b'_i = sum_a t[a, i] b_a
        t_inv = _solve(f, t, f.eye(4))
    products = f.tensordot(t, f.tensordot(t, m2.structure, ([0], [1])), ([0], [1]))
    structure = f.tensordot(products, t_inv, ([2], [1]))
    changed = Algebra(f, structure, f.matmul(t_inv, m2.unit))
    assert changed.dim == 4


def test_opposite_of_field_is_field():
    k = field_algebra(QQ)
    assert opposite(k) == k


def test_opposite_is_an_involution():
    d = dual_numbers(F3)
    assert opposite(opposite(d)) == d


def test_opposite_matrix_algebra_reverses_products():
    m2op = opposite(matrix_algebra(2, F2))
    e11, e12 = F2.zeros(4), F2.zeros(4)
    e11[0] = 1
    e12[1] = 1
    # product in the opposite ring is E12 * E11 = 0
    assert m2op.mult(e11, e12).tolist() == [0, 0, 0, 0]


def test_direct_product_orthogonal_idempotents():
    k = field_algebra(F2)
    kk = direct_product(k, k)
    e1, e2 = np.array([1, 0]), np.array([0, 1])
    assert kk.mult(e1, e2).tolist() == [0, 0]
    assert kk.mult(e1, e1).tolist() == [1, 0]
    assert kk.unit.tolist() == [1, 1]
    assert direct_product(kk, k).dim == 3


def test_direct_product_refuses_mixed_fields():
    with pytest.raises(FieldMismatchError):
        direct_product(field_algebra(F2), field_algebra(F3))


def test_diagonal_embedding_is_an_algebra_map():
    k = field_algebra(F2)
    kk = direct_product(k, k)
    diag = AlgebraMap(k, kk, [[1], [1]])
    assert check_algebra_map(diag)


def test_non_unital_embedding_is_rejected():
    k = field_algebra(F2)
    kk = direct_product(k, k)
    corner = AlgebraMap(k, kk, [[1], [0]])
    assert not check_algebra_map(corner)


def test_identity_map_checks():
    assert check_algebra_map(identity_map(matrix_algebra(2, F3)))


def test_algebra_map_shape_checks():
    k = field_algebra(F2)
    kk = direct_product(k, k)
    with pytest.raises(DimensionMismatchError):
        AlgebraMap(k, kk, [1, 1])  # not 2-D
    with pytest.raises(FieldMismatchError):
        AlgebraMap(k, kk, [[1, 1]])  # 2-D, but maps dim 2 into dim 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_algebra_center_is_one_dimensional(n):
    assert len(center_basis(matrix_algebra(n, F2))) == 1


def test_mult_matrices_agree_with_mult(rng):
    a = matrix_algebra(2, F3)
    for _ in range(10):
        x = F3.random(rng, a.dim)
        y = F3.random(rng, a.dim)
        assert np.array_equal(a.mult(x, y), F3.matmul(a.left_mult_matrix(x), y))
        assert np.array_equal(a.mult(x, y), F3.matmul(a.right_mult_matrix(y), x))


def test_validated_algebras_satisfy_all_associativity_identities():
    f = GF(5)
    algs = [matrix_algebra(2, f), direct_product(field_algebra(f), matrix_algebra(2, f)), dual_numbers(f)]
    for a in algs:
        lhs = f.tensordot(a.structure, a.structure, ([2], [0]))
        rhs = np.moveaxis(f.tensordot(a.structure, a.structure, ([2], [1])), 2, 0)
        assert np.array_equal(lhs, rhs)

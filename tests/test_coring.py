import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from coring_lab import GF, QQ, cli, comatrix as comatrix_module, coring as coring_module, linalg
from coring_lab.algebra import Algebra, AlgebraMap, direct_product, identity_map, matrix_algebra
from coring_lab.bimodule import (
    BimoduleMap,
    endomorphism_algebra,
    intertwiners,
    left_dual,
    regular_bimodule,
    tensor_over,
)
from coring_lab.comatrix import (
    comatrix_coring,
    comatrix_data,
    context_dual_basis,
    context_from_bimodule,
    context_from_morita,
    context_iso,
    left_dual_anti_iso,
)
from coring_lab.coring import (
    Cointegral,
    Coring,
    CoringMorphism,
    FrobeniusSystem,
    central_subspace,
    find_cointegral,
    find_frobenius_system,
    is_cosplit,
    left_dual_ring,
    sweedler_coring,
    verify_cointegral,
    verify_frobenius_system,
)
from coring_lab.definitions import BUNDLED_NAMES, bundled_path, load
from coring_lab.errors import (
    AxiomError,
    ContextAxiomError,
    CoringAxiomError,
    FieldMismatchError,
    InternalInconsistencyError,
    TooLargeToValidateError,
)
from coring_lab.fields import Field, PrimeField
from coring_lab.linalg import _kernel, _solve, _successive_kernel, rank, rref
from coring_lab.structure import analyze, bimodule_tower

from conftest import (
    agree_in_square,
    bundled_over,
    dual_numbers,
    field_algebra,
    induced_actions_oracle,
    intertwiner_rows,
    is_coring_map,
    matrix_coring,
    matrix_coring_arrays,
    trivial_bimodule,
    trivial_coring,
    upper_triangular_2,
)
from gamma_oracle import (
    delta_tensor,
    expand,
    f_of,
    f_of_gamma,
    gamma_is_balanced,
    gamma_is_bimodule_map,
    gamma_is_normalized,
    precointegral_defect,
    precointegral_identity_holds,
)
from coproduct_oracle import (
    _on_left_leg,
    _on_right_leg,
    context_delta_amb,
    delta_amb,
    section_matrix,
)
from tensor_oracle import context_projection, context_square
from random_modules import random_projective_bimodule

F2 = GF(2)
F3 = GF(3)


def delta_entry(field, n, table):
    """Ambient gamma matrix from a function (i,j,k,l) -> scalar."""
    d = n * n
    g = field.zeros((1, d * d))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    g[0, (i * n + j) * d + (k * n + l)] = table(i, j, k, l)
    return g


def on_p(c, gamma):
    """The f of a gamma given on the field tensor square, which must be the
    gamma_f of a (B, B)-bimodule map f of P."""
    f_mat = f_of_gamma(c, gamma)
    assert f_mat is not None
    return f_mat


# ----------------------------------------------------------------- validation


def test_trivial_corings_validate():
    for a in [field_algebra(F2), dual_numbers(F3), matrix_algebra(2, F2),
              direct_product(field_algebra(F2), field_algebra(F2))]:
        c = trivial_coring(a)
        assert c.validation == "full"


def test_matrix_coring_validates():
    assert matrix_coring(2, F2).validation == "full"
    assert matrix_coring(3, F3).validation == "full"


@pytest.mark.parametrize("n,field", [(2, F2), (3, F3)], ids=["2/GF(2)", "3/GF(3)"])
def test_matrix_coring_has_the_hand_built_structure_maps(n, field):
    c = matrix_coring(n, field)
    expected, counit = matrix_coring_arrays(n, field)
    assert same_entries(delta_amb(c), expected)
    assert same_entries(c.counit_mat, counit)


def test_all_ones_counit_fails_counit_law():
    good = matrix_coring(2, F2)
    bad_counit = F2.asarray([[1, 1, 1, 1]])
    assert "counit law fails" in product_checks(good)(delta_amb(good), bad_counit)


def test_counit_that_is_not_a_bimodule_map_is_rejected():
    kk = direct_product(field_algebra(F2), field_algebra(F2))
    good = trivial_coring(kk)
    swap = F2.asarray([[0, 1], [1, 0]])  # exchanges the two idempotents
    with pytest.raises(CoringAxiomError, match="counit is not a bimodule map"):
        Coring(good.carrier_tensor, good.tau_pairs, F2.matmul(swap, good.counit_mat))


@pytest.mark.parametrize("one_per_slab", [False, True])
def test_a_counit_broken_in_the_last_slab_is_rejected(one_per_slab, monkeypatch):
    # eps + delta on the carrier of k[x]/(x^2), delta(x) = 1: a is checked
    # on 1, its first basis element, which acts as the identity whatever the
    # counit, and on x, the last, where eps(x.1) = x + 1 != x = x.eps(1); at
    # a budget of one entry each basis element is a slab of its own
    if one_per_slab:
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 1)
    good = trivial_coring(dual_numbers(F3))
    assert Field.equal(good.counit_mat, F3.eye(2))
    with pytest.raises(CoringAxiomError, match="counit is not a bimodule map"):
        Coring(good.carrier_tensor, good.tau_pairs, F3.asarray([[1, 1], [0, 1]]))


def test_dropped_coproduct_term_fails_validation():
    good = matrix_coring(2, F2)
    broken = delta_amb(good).copy()
    d = 4
    # Delta(c_01) loses its c_01 (x) c_11 term
    broken[(0 * 2 + 1) * d + (1 * 2 + 1), 0 * 2 + 1] = 0
    assert product_checks(good)(broken, good.counit_mat) is not None


@pytest.mark.parametrize("dropped,message", [
    ((0 * 2 + 0) * 4 + (0 * 2 + 1), "left counit law fails at basis element 1"),  # c_00 (x) c_01
    ((0 * 2 + 1) * 4 + (1 * 2 + 1), "right counit law fails at basis element 1"),  # c_01 (x) c_11
], ids=["left", "right"])
def test_counit_laws_name_the_failing_leg_and_element(dropped, message):
    good = matrix_coring(2, F2)
    broken = delta_amb(good).copy()
    broken[dropped, 0 * 2 + 1] = 0  # one term of Delta(c_01)
    assert product_checks(good)(broken, good.counit_mat) == message


def product_of_fields(field, n):
    """k^n as an algebra: n orthogonal idempotents summing to 1."""
    c = field.zeros((n, n, n))
    c[range(n), range(n), range(n)] = 1
    return Algebra(field, c, field.asarray([1] * n), name=f"k^{n}")


def test_right_delta_linearity_of_a_trivial_coring_holds_only_in_the_square():
    c = trivial_coring(product_of_fields(F2, 3))
    # a -> a (x) 1, another representative of the coproduct of A (x)_A A = A
    other = F2.kron(F2.eye(c.dim), c.base.unit[:, None])
    assert agree_in_square(c, other, delta_amb(c))
    act = c.carrier.right_mats[0]
    lhs = F2.matmul(other, act)  # e_0 . e_0 (x) 1
    rhs = _on_right_leg(F2, act, other, c.dim)  # e_0 (x) e_0
    assert not Field.equal(lhs, rhs)
    assert agree_in_square(c, lhs, rhs)
    assert not agree_in_square(c, lhs, F2.zeros(lhs.shape))


def test_large_context_carrier_validates_in_full():
    c = comatrix_coring(trivial_bimodule(F2, 6))
    assert (c.dim, c.validation) == (36, "full")
    with pytest.raises(TooLargeToValidateError) as caught:
        find_cointegral(c)
    assert caught.traceback[-1].name == "precointegrals"
    assert not isinstance(caught.value, AxiomError)


# ------------------------------------------------------------------- sweedler


def test_sweedler_of_identity_is_trivial():
    k = field_algebra(F2)
    c = sweedler_coring(AlgebraMap(k, k, [[1]]))
    assert c.dim == 1
    assert c.validation == "full"


def test_sweedler_of_diagonal_embedding_has_dim_four():
    k = field_algebra(F2)
    kk = direct_product(k, k)
    c = sweedler_coring(AlgebraMap(k, kk, [[1], [1]]))
    assert c.dim == 4
    assert c.validation == "full"


def test_sweedler_of_dual_number_quotient_is_a_point():
    b = dual_numbers(F2)
    k = field_algebra(F2)
    c = sweedler_coring(AlgebraMap(b, k, [[1, 0]]))
    assert c.dim == 1


def test_sweedler_of_dual_number_inclusion():
    k = field_algebra(F2)
    b = dual_numbers(F2)
    c = sweedler_coring(AlgebraMap(k, b, [[1], [0]]))
    assert c.dim == 4
    assert c.validation == "full"


# ------------------------------------------------------------ left dual rings


def test_left_dual_ring_of_trivial_coring():
    ring = left_dual_ring(trivial_coring(field_algebra(F2)))
    assert ring.dim == 1


def test_left_dual_ring_of_matrix_coring_is_matrix_algebra():
    ring = left_dual_ring(matrix_coring(2, F2))
    assert ring.dim == 4
    m2 = matrix_algebra(2, F2)
    assert np.array_equal(ring.structure, m2.structure)
    assert np.array_equal(ring.unit, m2.unit)


def test_left_dual_ring_of_sweedler_coring_dimension():
    k = field_algebra(F2)
    kk = direct_product(k, k)
    ring = left_dual_ring(sweedler_coring(AlgebraMap(k, kk, [[1], [1]])))
    assert ring.dim == 4


def hit_through_the_representative_coproduct(c, xi_mat):
    """Oracle of ``coring._hit_from_right``: c -> sum c_1 . xi(c_2) through
    ``delta_amb``, the d^2-row representative coproduct."""
    f, d = c.field, c.dim
    z = f.tensordot(c.carrier.right_action, xi_mat, ([1], [0]))  # (u, m', v)
    return f.matmul(delta_amb(c).T, z.transpose(0, 2, 1).reshape(d * d, d)).T


@pytest.mark.parametrize("case", ["matrix/3/GF(3)", "matrix2/QQ", "product-field/GF(2)",
                                  "recipe/3", "recipe/7"])
def test_the_hit_from_the_pairs_is_the_hit_through_the_coproduct(case):
    if case.startswith("matrix/"):
        corings = [matrix_coring(3, F3)]
    elif case.startswith("recipe/"):
        corings = module_corings(random_projective_bimodule(int(case[7:])))
    else:
        name, char = case.split("/")
        corings = module_corings(bundled_over(name, 0 if char == "QQ" else 2).bimodules["M"])
    for c in corings:
        for xi in left_dual(c.carrier).functional_mats:
            ours = coring_module._hit_from_right(c, xi[None])[0]
            assert np.array_equal(ours, hit_through_the_representative_coproduct(c, xi))


def test_the_dual_ring_bimodules_apply_each_hit_once(monkeypatch):
    hits = []
    hit = coring_module._hit_from_right
    monkeypatch.setattr(coring_module, "_hit_from_right",
                        lambda c, xis: hits.extend(xis) or hit(c, xis))
    c = matrix_coring(2, F2)
    coring_module.coring_bimodules_over_dual_ring(c)
    assert len(hits) == len(left_dual_ring(c).functional_mats) == 4


# ------------------------------------------------------------------- cosplit


def test_trivial_coring_is_cosplit():
    section = is_cosplit(trivial_coring(field_algebra(F3)))
    assert section is not None


def test_matrix_coring_over_q_is_cosplit():
    section = is_cosplit(matrix_coring(2, QQ))
    assert section is not None
    e = section(QQ.asarray([1]))
    # the section image has counit one
    c = matrix_coring(2, QQ)
    assert QQ.matmul(c.counit_mat, e)[0] == 1


def test_sweedler_of_product_field_is_cosplit():
    k = field_algebra(F2)
    kk = direct_product(k, k)
    c = sweedler_coring(AlgebraMap(k, kk, [[1], [1]]))
    section = is_cosplit(c)
    assert section is not None
    # e_1 (x) e_1 + e_2 (x) e_2 is the expected invariant: check the solver's
    # section lands on a central element with counit 1
    e = section(kk.unit)
    assert np.array_equal(F2.matmul(c.counit_mat, e), kk.unit)


def test_is_cosplit_raises_when_the_solved_section_misses_the_counit(monkeypatch):
    # a zero "solution" gives the zero section, which the check must reject
    # with an error that survives python -O
    monkeypatch.setattr(coring_module, "_solve", lambda field, a, b: field.zeros(a.shape[1]))
    with pytest.raises(InternalInconsistencyError):
        is_cosplit(matrix_coring(2, F3))


def test_sweedler_of_dual_number_inclusion_is_not_cosplit():
    k = field_algebra(F2)
    b = dual_numbers(F2)
    c = sweedler_coring(AlgebraMap(k, b, [[1], [0]]))
    assert is_cosplit(c) is None


# ---------------------------------------------------------------- cointegrals


def test_delta_pairing_is_a_precointegral_but_not_normalized_over_f2():
    c = matrix_coring(2, F2)
    gamma = delta_entry(F2, 2, lambda i, j, k, l: 1 if (j == k and i == l) else 0)
    assert gamma_is_balanced(c, gamma)
    assert gamma_is_bimodule_map(c, gamma)
    assert precointegral_identity_holds(c, gamma)
    # sum_w gamma(c_iw (x) c_wj) = 2 delta_ij = 0 in characteristic two
    assert not gamma_is_normalized(c, gamma)
    assert not verify_cointegral(Cointegral(c, on_p(c, gamma)))


def test_corner_cointegral_is_normalized_over_f2():
    c = matrix_coring(2, F2)
    gamma = delta_entry(F2, 2, lambda i, j, k, l: 1 if (j == 0 and k == 0 and i == l) else 0)
    assert verify_cointegral(Cointegral(c, on_p(c, gamma)))


def test_halved_delta_pairing_is_a_cointegral_over_q():
    from fractions import Fraction

    c = matrix_coring(2, QQ)
    gamma = delta_entry(QQ, 2, lambda i, j, k, l: Fraction(1, 2)
                        if (j == k and i == l) else Fraction(0))
    assert verify_cointegral(Cointegral(c, on_p(c, gamma)))


def test_find_cointegral_trivial_coring():
    ci = find_cointegral(trivial_coring(field_algebra(F2)))
    assert ci is not None


def test_find_cointegral_matrix_coring():
    for field in (F2, F3):
        ci = find_cointegral(matrix_coring(2, field))
        assert ci is not None
        assert verify_cointegral(ci)


def test_find_cointegral_point_comatrix_of_dual_numbers():
    # the trivial F_2 coring: gamma exists trivially
    ci = find_cointegral(trivial_coring(field_algebra(F2)))
    assert ci is not None


def test_sweedler_over_a_field_base_is_always_coseparable():
    # with base a field every extension is split, so a cointegral exists;
    # gamma(a (x) b (x) c) = a.lambda(b).c for any functional with lambda(1)=1
    k = field_algebra(F2)
    b = dual_numbers(F2)
    ci = find_cointegral(sweedler_coring(AlgebraMap(k, b, [[1], [0]])))
    assert ci is not None and verify_cointegral(ci)


# ---------------------------------------------------------- frobenius systems


def test_verify_frobenius_system_matrix_coring():
    c = matrix_coring(2, F2)
    gamma = delta_entry(F2, 2, lambda i, j, k, l: 1 if (j == k and i == l) else 0)
    trace = F2.zeros(4)
    trace[0] = trace[3] = 1
    assert verify_frobenius_system(FrobeniusSystem(c, on_p(c, gamma), trace))
    corner = F2.zeros(4)
    corner[0] = 1
    assert not verify_frobenius_system(FrobeniusSystem(c, on_p(c, gamma), corner))


def test_trivial_coring_frobenius_system():
    a = field_algebra(F3)
    c = trivial_coring(a)
    gamma = a.structure.reshape(1, 1).T  # multiplication on a 1-dim algebra
    assert verify_frobenius_system(FrobeniusSystem(c, F3.asarray([[1]]), F3.asarray([1])))


def test_find_frobenius_system_matrix_coring():
    search = find_frobenius_system(matrix_coring(2, F2), seed=0)
    assert search.found
    assert verify_frobenius_system(search.system)


def test_find_frobenius_system_trivial():
    search = find_frobenius_system(trivial_coring(field_algebra(F2)), seed=0)
    assert search.found


def test_find_frobenius_system_sweedler_product_field():
    k = field_algebra(F2)
    kk = direct_product(k, k)
    search = find_frobenius_system(sweedler_coring(AlgebraMap(k, kk, [[1], [1]])), seed=0)
    assert search.found
    assert verify_frobenius_system(search.system)


def test_sweedler_of_frobenius_algebra_is_frobenius():
    # the dual numbers are a Frobenius algebra over F_2, and the Sweedler
    # coring of a field inclusion into a Frobenius algebra carries a system
    k = field_algebra(F2)
    b = dual_numbers(F2)
    search = find_frobenius_system(sweedler_coring(AlgebraMap(k, b, [[1], [0]])), seed=0)
    assert search.found
    assert verify_frobenius_system(search.system)


def test_sweedler_of_non_frobenius_algebra_is_proven_non_frobenius():
    # upper triangular 2x2 matrices are not a Frobenius algebra, and with a
    # field base the enumeration is exhaustive, so the negative is exact
    k = field_algebra(F2)
    t2 = upper_triangular_2(F2)
    embed = F2.zeros((3, 1))
    embed[0, 0] = 1
    embed[2, 0] = 1
    search = find_frobenius_system(sweedler_coring(AlgebraMap(k, t2, embed)), seed=0)
    assert search.status == "none"


def test_central_subspace_of_matrix_coring_is_everything():
    assert len(central_subspace(matrix_coring(2, F2))) == 4


@pytest.mark.parametrize("side", ["c (x) e", "e (x) c"])
def test_frobenius_search_solves_both_normalizations_together(side, monkeypatch):
    # one map gamma with exactly one normalization solvable for the invariant
    # e = c_01: gamma(c (x) c') = eps(c) phi(c') solves gamma(c (x) e) = eps,
    # its mirror solves gamma(e (x) c) = eps, and neither solves both, as phi,
    # the coordinate of c_01, is no multiple of eps
    c = matrix_coring(2, F2)
    e = phi = F2.eye(4)[1]  # c_01 and its coordinate functional
    eps = c.counit_mat[0]
    table = np.outer(eps, phi) if side == "c (x) e" else np.outer(phi, eps)
    monkeypatch.setattr(Coring, "precointegrals",
                        property(lambda c: f_of(c, table.reshape(1, 1, 16))))
    assert np.array_equal(expand(c, c.precointegrals), table.reshape(1, 1, 16))  # a gamma_f
    one_sided = F2.tensordot(table[None], e, ([2], [0]) if side == "c (x) e" else ([1], [0]))
    assert np.array_equal(one_sided, c.counit_mat)
    assert find_frobenius_system(c, seed=0).status == "none"


# ------------------------------------------------ the shared cointegral system


def dense_constraint_rows(c):
    """Oracle: the linear constraints on a quotient-coordinate gamma, written
    out densely, bimodule-map rows and pre-cointegral rows stacked, zero rows
    dropped; unknowns are vec(gamma_q), row-major over (base index,
    tensor-square index)."""
    f = c.field
    sq = context_square(c)
    d, da, q = c.dim, c.base.dim, sq.dim
    a = c.base
    # gamma_q (da x q) commutes with the actions of the base on the square and on A
    rows = intertwiner_rows(f, sq.space.left_mats + sq.space.right_mats,
                             list(a.left_mult) + list(a.right_mult))
    d3 = delta_tensor(c)
    p2r = sq.projection.reshape(q, d, d)
    rho, lam = c.carrier.right_action, c.carrier.left_action
    # LHS coefficient of gamma_q[b, t] at output (c, l, m'):
    #   sum_{u,v} Delta[u,v,c] rho[u,b,m'] P2[t, v, l]
    t1 = f.tensordot(d3, rho, ([0], [0]))  # (v, c, b, m')
    t1 = f.tensordot(t1, p2r, ([0], [1]))  # (c, b, m', t, l)
    lhs_coeff = t1.transpose(0, 4, 2, 1, 3)  # (c, l, m', b, t)
    # RHS coefficient: sum_{u,v} Delta[u,v,l] lam[b,v,m'] P2[t, c, u]
    t2 = f.tensordot(d3, lam, ([1], [1]))  # (u, l, b, m')
    t2 = f.tensordot(t2, p2r, ([0], [2]))  # (l, b, m', t, c)
    rhs_coeff = t2.transpose(4, 0, 2, 1, 3)  # (c, l, m', b, t)
    pre = f.asarray(lhs_coeff - rhs_coeff).reshape(d * d * d, da * q)
    rows.append(pre)
    stacked = np.concatenate(rows, axis=0)
    return f.asarray(stacked[np.any(stacked != 0, axis=1)])


def dense_kernel_gammas(c):
    """The reduced-echelon kernel basis of the oracle rows, expanded to the
    field tensor square: a stack [k, a', (u, v)]."""
    f, sq = c.field, context_square(c)
    basis = _kernel(f, dense_constraint_rows(c))
    gammas = f.zeros((len(basis), c.base.dim, c.dim * c.dim))
    for k, v in enumerate(basis):
        gammas[k] = f.matmul(v.reshape(c.base.dim, sq.dim), sq.projection)
    return gammas


# Sweedler corings S (x)_B S of B -> End_A(M): k^2 (coseparable and
# Frobenius) over two fields, and recipe module 1, with a 2-dimensional B
# (neither)
SHARED_SYSTEM_MODULES = {
    "k^2/GF(2)": lambda: trivial_bimodule(F2, 2),
    "k^2/GF(3)": lambda: trivial_bimodule(F3, 2),
    "recipe-1": lambda: random_projective_bimodule(1),
}


@pytest.fixture(scope="module", params=sorted(SHARED_SYSTEM_MODULES))
def sweedler(request):
    return bimodule_tower(SHARED_SYSTEM_MODULES[request.param]()).sweedler


def test_precointegrals_span_the_kernel_of_the_dense_system(sweedler):
    c = sweedler
    f, sq = c.field, context_square(c)
    q = c.middle.space.dim
    assert c.precointegrals.shape[1:] == (q, q)
    gammas = expand(c, c.precointegrals)
    # back to quotient coordinates: gamma_amb @ section = gamma_q
    ours = np.stack([f.matmul(g, section_matrix(sq)).reshape(-1) for g in gammas])
    oracle = np.stack(_kernel(f, dense_constraint_rows(c)))
    assert ours.shape == oracle.shape
    assert np.array_equal(rref(f, ours)[0], rref(f, oracle)[0])


def test_find_cointegral_matches_the_unreduced_system(sweedler):
    c = sweedler
    f, sq = c.field, context_square(c)
    da, q = c.base.dim, sq.dim
    homogeneous = dense_constraint_rows(c)
    assert len(rref(f, homogeneous)[1]) < homogeneous.shape[0]
    normalization = f.kron(f.eye(da), f.matmul(sq.projection, delta_amb(c)).T)
    system = np.concatenate([homogeneous, normalization], axis=0)
    rhs = f.zeros(system.shape[0])
    rhs[homogeneous.shape[0]:] = c.counit_mat.reshape(-1)
    sol = _solve(f, system, rhs)
    ci = find_cointegral(c)
    assert (ci is None) == (sol is None)
    if sol is not None:
        assert np.array_equal(expand(c, ci.f_mat[None])[0],
                              f.matmul(sol.reshape(da, q), sq.projection))


def test_find_frobenius_system_matches_the_kernel_of_the_unreduced_rows(sweedler, monkeypatch):
    reduced = find_frobenius_system(sweedler, seed=0)
    # the oracle: the same search over the kernel of the dense stacked rows
    monkeypatch.setattr(Coring, "precointegrals",
                        property(lambda c: f_of(c, dense_kernel_gammas(c))))
    oracle = find_frobenius_system(sweedler, seed=0)
    assert reduced.status == oracle.status
    if oracle.found:
        assert np.array_equal(reduced.system.f_mat, oracle.system.f_mat)
        assert np.array_equal(reduced.system.invariant, oracle.system.invariant)


def test_analyze_builds_each_cointegral_system_once(monkeypatch):
    built = []
    original = Coring.precointegrals.fget

    def counting(c):
        if c._precointegrals is None:
            built.append(c.dim)
        return original(c)

    monkeypatch.setattr(Coring, "precointegrals", property(counting))
    analyze(trivial_bimodule(F2, 2), seed=0)
    assert built == [4, 16]  # the comatrix coring, then the Sweedler coring


def test_trivial_coring_of_the_field_has_an_empty_constraint_system():
    c = trivial_coring(field_algebra(F2))
    assert dense_constraint_rows(c).shape == (0, 1)
    assert c.precointegrals.shape == (1, 1, 1)  # the pre-cointegral space is k
    assert find_cointegral(c) is not None
    assert find_frobenius_system(c, seed=0).status == "found"


def test_deciders_on_the_sweedler_coring_of_matrix2_stay_small():
    # the dense pre-cointegral block of this carrier (d = 16) peaked at 48.5 MB
    c = bimodule_tower(load(bundled_path("matrix2")).bimodules["M"]).sweedler
    c.square
    tracemalloc.start()
    try:
        find_cointegral(c)
        find_frobenius_system(c, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def in_reversed_echelon_form(field, maps):
    """True when a stack of maps, each read as the row of its entries, is
    the reversed reduced echelon form of its span: ``rref`` of the rows with
    their columns reversed, reversed back."""
    rows = maps.reshape(len(maps), -1)
    red, pivots = rref(field, rows[:, ::-1])
    return len(pivots) == len(rows) and same_entries(red[:len(pivots)][::-1, ::-1], rows)


def square_path_precointegrals(c):
    """Oracle: the pre-cointegral basis solved on the presented square: the
    A-bimodule maps C (x)_A C -> A from ``intertwiners`` on the square's
    bimodule, expanded through its projection and cut down to the kernel of
    their ``precointegral_defect`` blocks by successive restriction."""
    f, sq, a = c.field, context_square(c), c.base
    homs = intertwiners(f, sq.space.left_mats + sq.space.right_mats,
                        list(a.left_mult) + list(a.right_mult))
    gammas = f.asarray(np.stack([f.matmul(hom, sq.projection) for hom in homs]))
    every = np.arange(len(homs))
    basis, _ = _successive_kernel(f, len(homs), lambda columns, rank: (
        f.matmul(columns(every), block) for block in precointegral_defect(c, gammas)))
    return f.tensordot(basis, gammas, ([1], [0]))


def morita_corings(name, char):
    return [ctx for md in bundled_over(name, char).morita.values()
            if (ctx := context_from_morita(md)) is not None]


# both corings of each shared module and of a module over QQ, and context corings
# whose P = M (x)_A N is presented by ``tensor_over``
PRECOINTEGRAL_ORACLE_CASES = {
    **{name: (lambda make=make: module_corings(make()))
       for name, make in SHARED_SYSTEM_MODULES.items()},
    "matrix2/QQ": lambda: module_corings(bundled_over("matrix2", 0).bimodules["M"]),
    "morita-rows-cols/GF(2)": lambda: morita_corings("morita-rows-cols", 2),
    "matrix/GF(3)": lambda: [matrix_coring(2, F3), matrix_coring(3, F3)],
}


@pytest.mark.parametrize("case", sorted(PRECOINTEGRAL_ORACLE_CASES))
def test_precointegrals_of_every_kind_of_coring_are_the_dense_kernel_basis(case):
    corings = PRECOINTEGRAL_ORACLE_CASES[case]()
    assert corings
    for c in corings:
        f, sq = c.field, context_square(c)
        ours = expand(c, c.precointegrals)
        oracle = np.stack(_kernel(f, dense_constraint_rows(c)))
        rows = np.stack([f.matmul(g, section_matrix(sq)).reshape(-1) for g in ours])
        assert np.array_equal(rref(f, rows)[0], rref(f, oracle)[0])
        # the basis is the reversed reduced echelon form of its f's
        assert in_reversed_echelon_form(f, c.precointegrals)


@pytest.mark.parametrize("recipe", [0, 7, 9])
def test_precointegrals_beyond_the_dense_oracle_are_the_square_path_basis(recipe, monkeypatch):
    # d = 40 for the Sweedler corings of recipes 0 and 9: the dense rows would
    # be 64,000 x 1,664, so the oracle is the solve on the presented square
    monkeypatch.setattr(coring_module, "_SQUARE_DIM_LIMIT", 40)
    corings = module_corings(random_projective_bimodule(recipe))
    assert max(c.dim for c in corings) == (32 if recipe == 7 else 40)
    for c in corings:
        f = c.field
        ours, oracle = expand(c, c.precointegrals), square_path_precointegrals(c)
        assert len(ours) == len(oracle) == (4 if recipe == 7 else 6)
        assert np.array_equal(rref(f, ours.reshape(len(ours), -1))[0],
                              rref(f, oracle.reshape(len(oracle), -1))[0])
        # the basis is the reversed reduced echelon form of its f's
        assert in_reversed_echelon_form(f, c.precointegrals)


def test_precointegrals_read_neither_the_square_nor_its_projection(monkeypatch):
    def unread(*args):
        raise AssertionError("the square was read")

    monkeypatch.setattr(Coring, "square", property(unread))
    modules = [load(bundled_path("matrix2")).bimodules["M"], random_projective_bimodule(7)]
    corings = [c for m in modules for c in module_corings(m)]
    assert [len(c.precointegrals) for c in corings] == [4, 4, 4, 4]
    # coseparable and Frobenius as the dense oracle records them for recipe 7
    assert [find_cointegral(c) is not None for c in corings] == [True, True, False, False]
    assert [find_frobenius_system(c, seed=0).status for c in corings] == ["found"] * 4


def test_the_comatrix_coring_reads_its_endomorphism_ring_only_for_its_precointegrals(
        monkeypatch):
    called = []
    original = comatrix_module.canonical_s_iso

    def recording(m):
        called.append(m)
        return original(m)

    monkeypatch.setattr(comatrix_module, "canonical_s_iso", recording)
    m = trivial_bimodule(F2, 2)
    c = comatrix_coring(m)
    assert not called
    assert len(c.precointegrals) == 4
    assert called == [m]


# ------------------------------------------- the square of a context coring


def context_corings_of(deffile):
    """The comatrix and Sweedler corings of every bimodule of a definition
    file, the context corings of its Morita data and the Sweedler corings of
    its algebra maps."""
    for m in deffile.bimodules.values():
        tower = bimodule_tower(m)
        yield from (tower.comatrix.coring, tower.sweedler)
    for md in deffile.morita.values():
        ctx = context_from_morita(md)
        if ctx is not None:
            yield ctx
    for ring_map in deffile.algebra_maps.values():
        yield sweedler_coring(ring_map)


def module_corings(m):
    tower = bimodule_tower(m)
    return [tower.comatrix.coring, tower.sweedler]


SQUARE_ORACLE_CASES = {
    **{f"bundled/gf{char}/{name}": (lambda name=name, char=char:
                                    context_corings_of(bundled_over(name, char)))
       for char in (2, 3)
       for name in ("matrix2", "dual-numbers", "product-field", "morita-rows-cols",
                    "regular-module")},
    **{f"k^{n}/{f}": (lambda n=n, f=f: module_corings(trivial_bimodule(f, n)))
       for f in (F2, F3) for n in (1, 2)},
    **{f"recipe/{i}": (lambda i=i: module_corings(random_projective_bimodule(i)))
       for i in (1, 3, 6, 7, 11)},
    "k^2/QQ": lambda: module_corings(trivial_bimodule(QQ, 2)),
}


def same_entries(a, b):
    return a.dtype == b.dtype and Field.equal(a, b)


@pytest.mark.parametrize("case", sorted(SQUARE_ORACLE_CASES))
def test_context_square_is_the_dense_square(case):
    checked = 0
    for c in SQUARE_ORACLE_CASES[case]():
        assert c.carrier_tensor is not None and c.dim <= 32
        sq, context = c.square, context_square(c)
        sq.space.validate()  # the descent check alone built it
        assert same_entries(sq.projection, context.projection)
        assert same_entries(section_matrix(sq), section_matrix(context))
        assert same_entries(sq.space.left_action, context.space.left_action)
        assert same_entries(sq.space.right_action, context.space.right_action)
        checked += 1
    assert checked >= 2


def dense_coassociativity_defect(c, delta_amb):
    """Oracle: (Delta (x) 1) Delta - (1 (x) Delta) Delta on representatives,
    projected into the triple quotient ((C (x)_A C) (x)_A C) built densely."""
    f, d = c.field, c.dim
    dense = tensor_over(c.carrier, c.carrier)
    upper = tensor_over(dense.space, c.carrier)
    d3 = delta_amb.reshape(d, d, d)
    lhs = f.tensordot(d3, d3, ([2], [0])).reshape(d ** 3, d)
    rhs = f.tensordot(d3, d3, ([1], [2])).transpose(0, 2, 3, 1).reshape(d ** 3, d)
    return f.matmul(upper.projection, _on_left_leg(f, dense.projection, f.asarray(lhs - rhs), d))


def product_checks(c):
    """Oracle: the product checks of a coring on the carrier of ``c``, as a
    function of (delta_amb, counit_mat) that names the first axiom failing on
    them, or returns None.  Delta is compared in the square of ``c`` and in
    the triple quotient: built densely up to dimension 16, above that
    reduced through the oracle ``context_projection`` (the Kronecker
    relation matrix of the dense one for d = 32 is 1 GB)."""
    f, d, a = c.field, c.dim, c.base
    lam, rho = c.carrier.left_action, c.carrier.right_action
    cube = {}

    def agree(project, lhs, rhs):
        return Field.equal(lhs, rhs) or Field.equal(project(lhs), project(rhs))

    def in_square(t):
        return f.matmul(context_square(c).projection, t)

    def in_cube(t):  # through kron(square projection, I), then the triple quotient
        sq = context_square(c)
        if not cube:
            cube["upper"] = (tensor_over(sq.space, c.carrier).projection if d <= 16
                             else context_projection(sq.space, c.carrier_tensor))
        return f.matmul(cube["upper"], _on_left_leg(f, sq.projection, t, d))

    def failure(delta_amb, counit_mat):
        if not BimoduleMap(c.carrier, regular_bimodule(a), counit_mat,
                           _validate=False).commutes_with_actions():
            return "counit bimodule map"
        d3 = delta_amb.reshape(d, d, d)
        # sum_{u, v} Delta[u, v, c] eps(e_u) . e_v and e_u . eps(e_v), as [c, m']
        left = f.tensordot(f.tensordot(d3, counit_mat, ([0], [1])), lam, ([2, 0], [0, 1]))
        right = f.tensordot(f.tensordot(d3, counit_mat, ([1], [1])), rho, ([0, 2], [0, 1]))
        for side, law in (("left", left), ("right", right)):
            if not Field.equal(law, f.eye(d)):
                at = int(np.argwhere(law != f.eye(d))[0][0])
                return f"{side} counit law fails at basis element {at}"
        for x, y in zip(c.carrier.left_mats, c.carrier.right_mats):
            if not agree(in_square, f.matmul(delta_amb, x), _on_left_leg(f, x, delta_amb, d)):
                return "left Delta-linearity"
            if not agree(in_square, f.matmul(delta_amb, y), _on_right_leg(f, y, delta_amb, d)):
                return "right Delta-linearity"
        lhs = f.tensordot(d3, d3, ([2], [0])).reshape(d ** 3, d)
        rhs = f.tensordot(d3, d3, ([1], [2])).transpose(0, 2, 3, 1).reshape(d ** 3, d)
        if not agree(in_cube, f.asarray(lhs), f.asarray(rhs)):
            return "coassociativity"
        return None

    return failure


DENSE_ORACLE_CASES = {
    **SQUARE_ORACLE_CASES,
    **{f"recipe/{i}": (lambda i=i: module_corings(random_projective_bimodule(i)))
       for i in (0, 9)},
}


@pytest.mark.parametrize("case", sorted(DENSE_ORACLE_CASES))
def test_product_checks_accept_every_context_coring(case, monkeypatch):
    monkeypatch.setattr(coring_module, "_SQUARE_DIM_LIMIT", 40)
    dims = []
    for c in DENSE_ORACLE_CASES[case]():
        assert isinstance(c, Coring)
        assert product_checks(c)(delta_amb(c), c.counit_mat) is None
        dims.append(c.dim)
    assert max(dims) <= 40
    if case in ("recipe/0", "recipe/9"):
        assert dims == [10, 40]


# small context corings whose pairs and counit are tampered with
TAMPER_CASES = {
    "bundled/gf3/matrix2": lambda: context_corings_of(bundled_over("matrix2", 3)),
    "bundled/gf2/morita-rows-cols": lambda: context_corings_of(
        bundled_over("morita-rows-cols", 2)),
    "recipe/1": lambda: module_corings(random_projective_bimodule(1)),
}


def tampered_pairs(c):
    """The pairs of tau(1) with one coordinate of one vector raised by 1,
    one pair dropped, and one pair doubled."""
    f = c.field
    pairs = c.tau_pairs
    for i, (m_vec, n_vec) in enumerate(pairs):
        for j in range(len(m_vec)):
            yield pairs[:i] + [(f.asarray(m_vec + np.eye(len(m_vec), dtype=int)[j]), n_vec)] \
                + pairs[i + 1:]
        for j in range(len(n_vec)):
            yield pairs[:i] + [(m_vec, f.asarray(n_vec + np.eye(len(n_vec), dtype=int)[j]))] \
                + pairs[i + 1:]
    yield pairs[1:]
    yield pairs + pairs[:1]


def tampered_counits(c):
    """The counit with one entry raised by 1, and with two columns swapped."""
    f = c.field
    for k in range(c.counit_mat.size):
        bump = f.zeros(c.counit_mat.size)
        bump[k] = 1
        yield f.asarray(c.counit_mat + bump.reshape(c.counit_mat.shape))
    if c.dim > 1:
        yield c.counit_mat[:, [1, 0] + list(range(2, c.dim))]


@pytest.mark.parametrize("case", sorted(TAMPER_CASES))
def test_tampered_contexts_fail_the_context_check_when_the_product_checks_fail(case):
    failing = 0
    for c in TAMPER_CASES[case]():
        ts, checks = c.carrier_tensor, product_checks(c)
        tampers = [(pairs, c.counit_mat) for pairs in tampered_pairs(c)]
        tampers += [(c.tau_pairs, counit) for counit in tampered_counits(c)]
        for pairs, counit in tampers:
            if checks(context_delta_amb(ts, pairs), counit) is None:
                continue
            failing += 1
            with pytest.raises(AxiomError):
                Coring(ts, pairs, counit)
    assert failing


@pytest.mark.parametrize("n_dim,m_dim,failing", [(1, 2, "second"), (2, 1, "first")])
def test_each_context_diagram_is_checked(n_dim, m_dim, failing):
    # N = k^n_dim, M = k^m_dim over k; sigma and tau(1) pair the first basis
    # vectors, so only the diagram on the one-dimensional side holds
    n, m = trivial_bimodule(F3, n_dim), trivial_bimodule(F3, m_dim)
    ts = tensor_over(n, m)
    pairs = [(F3.eye(m_dim)[:, 0], F3.eye(n_dim)[:, 0])]
    sigma = F3.eye(ts.dim)[:1]
    # the carrier k^2 carries no coring to read the product checks from
    carrier = SimpleNamespace(field=F3, dim=ts.dim, base=ts.space.left_alg, carrier=ts.space,
                              square=tensor_over(ts.space, ts.space), carrier_tensor=ts)
    assert "counit law fails" in product_checks(carrier)(context_delta_amb(ts, pairs), sigma)
    with pytest.raises(ContextAxiomError, match=f"{failing} context diagram fails"):
        Coring(ts, pairs, sigma)


def test_tampered_coproduct_fails_the_product_checks():
    c = bimodule_tower(random_projective_bimodule(1)).sweedler
    f, d = c.field, c.dim
    checks = product_checks(c)
    # the representatives of this coring are not coassociative on the field
    # cube, so the product checks compare in the triple quotient
    d3 = delta_tensor(c)
    assert not Field.equal(f.tensordot(d3, d3, ([2], [0])).reshape(d ** 3, d),
                           f.tensordot(d3, d3, ([1], [2])).transpose(0, 2, 3, 1).reshape(d ** 3, d))
    assert checks(delta_amb(c), c.counit_mat) is None
    # Delta + (pi (x) pi) Delta, for a bimodule endomorphism pi with eps pi = 0,
    # keeps both counit laws and the bimodule property of the coproduct
    ends = intertwiners(f, c.carrier.left_mats + c.carrier.right_mats,
                        c.carrier.left_mats + c.carrier.right_mats)
    rejected = 0
    for pi in ends:
        if np.any(f.matmul(c.counit_mat, pi)):
            continue
        twisted = _on_left_leg(f, pi, _on_right_leg(f, pi, delta_amb(c), d), d)
        tampered = f.asarray(delta_amb(c) + twisted)
        if np.any(dense_coassociativity_defect(c, tampered)):
            rejected += 1
            assert checks(tampered, c.counit_mat) == "coassociativity"
        else:
            assert checks(tampered, c.counit_mat) is None
    assert rejected


def test_sweedler_coring_of_k3_reads_no_square_and_no_product_above_d_cubed(monkeypatch):
    ring_map = endomorphism_algebra(trivial_bimodule(F2, 3)).b_to_s
    largest = [0]
    for name in ("matmul", "tensordot"):
        def recording(self, a, b, *axes, original=getattr(PrimeField, name)):
            out = original(self, a, b, *axes)
            largest[0] = max(largest[0], out.size)
            return out

        monkeypatch.setattr(PrimeField, name, recording)

    def unread(c):
        raise AssertionError("the square was read")

    monkeypatch.setattr(Coring, "square", property(unread))
    c = sweedler_coring(ring_map)
    assert c.dim == 81
    # building it forms no array of the size of a representative coproduct
    # (d^3 entries)
    assert 0 < largest[0] < c.dim ** 3


def test_writing_the_d256_sweedler_coring_builds_no_carrier_action():
    # S (x)_k S for S = M_4(k) has no relations, so its two 16 x 256 x 256
    # action tensors (16 MiB) are built on first read, and writing the coring
    # as its context never reads them; with the counit compared one slab of
    # A at a time this peaks at 1.3 MiB (3.1 MiB with the whole comparison)
    ring_map = endomorphism_algebra(trivial_bimodule(F3, 4)).b_to_s
    tracemalloc.start()
    try:
        c = sweedler_coring(ring_map)
        doc = cli._coring_document(c, "sweedler", "k^4", F3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc["carrier_dim"] == c.dim == 256
    assert "space" not in vars(c.carrier_tensor)
    assert peak < 2 * 2**20


def construct_all(m):
    """What ``coring-lab construct`` writes of the comatrix coring, its left
    dual ring and the Sweedler coring of B -> End_A(M), and the context and
    dual-ring identifications of M."""
    data = comatrix_data(m)
    ring = left_dual_ring(data.coring)
    return (cli._coring_document(data.coring, "comatrix", "M", m.field),
            cli._serialize_array(m.field, ring.structure),
            cli._coring_document(sweedler_coring(endomorphism_algebra(m).b_to_s), "sweedler",
                                 "M", m.field),
            context_iso(context_from_bimodule(m)), left_dual_anti_iso(m))


def test_the_constructions_of_k4_stay_small():
    # the five constructions of k^4 over GF(3), whose Sweedler coring has
    # d = 256, with every check compared one slab at a time, peak at 1.5 MiB;
    # comparing each check whole they peaked at 3.3 MiB.  k^3 runs first, so
    # that no first import is traced
    construct_all(trivial_bimodule(F3, 3))
    tracemalloc.start()
    try:
        construct_all(trivial_bimodule(F3, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_the_k4_carrier_actions_are_built_in_slabs():
    # the two 16 x 256 x 256 action tensors of the d = 256 Sweedler carrier
    # hold 16 MiB; built one basis element at a time they peak at 18.4 MiB,
    # built by one product for each side they peaked at 22.0 MiB
    c = sweedler_coring(endomorphism_algebra(trivial_bimodule(F3, 4)).b_to_s)
    tracemalloc.start()
    try:
        c.carrier
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def carrier_oracle_modules():
    """The six bundled modules over GF(2) and GF(3), and k^1 to k^3."""
    for char in (2, 3):
        for name in BUNDLED_NAMES:
            for label, m in sorted(bundled_over(name, char).bimodules.items()):
                yield pytest.param(m, id=f"bundled/gf{char}/{name}/{label}")
        for n in (1, 2, 3):
            yield pytest.param(trivial_bimodule(GF(char), n), id=f"k^{n}/GF({char})")


@pytest.mark.parametrize("module", carrier_oracle_modules())
def test_the_carrier_read_after_construction_is_the_induced_bimodule(module):
    tower = bimodule_tower(module)
    for c in (tower.comatrix.coring, tower.sweedler):
        lam, rho = induced_actions_oracle(c.carrier_tensor)
        assert c.dim == c.carrier.dim == c.carrier_tensor.dim
        assert c.base is c.carrier.left_alg is c.carrier.right_alg
        assert Field.equal(c.carrier.left_action, lam)
        assert Field.equal(c.carrier.right_action, rho)
        c.carrier.validate()


def test_square_of_the_sweedler_coring_of_recipe_7_stays_small():
    # this square (d = 32, A of dimension 8) was once presented by reducing
    # an 8192 x 1024 int64 relation matrix (64 MB), at a peak of 232 MB;
    # solved for its balanced forms in blocks, with its actions and their
    # descent check, it peaks at 40.9 MiB, as the context presentation did
    c = bimodule_tower(random_projective_bimodule(7)).sweedler
    assert c.dim == 32
    c._square = None
    tracemalloc.start()
    try:
        c.square
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.square.dim == 128
    assert peak < 64 * 2**20


def test_precointegral_rows_own_their_data():
    # a slice of the elimination kept all of it alive: the (15, 16) rows of
    # the k^4 Sweedler coring over GF(3) held a (65536, 16) array, 8 MiB
    c = bimodule_tower(trivial_bimodule(F3, 4)).sweedler
    rows = c.precointegral_rows
    assert rows.shape == (15, 16)
    assert rows.base is None


def test_precointegrals_of_the_sweedler_coring_of_recipe_7_stay_small():
    # the stacked Kronecker system of these maps was 16,384 x 1,024; solved by
    # successive restriction in blocks of bounded size they peak near 9 MB
    c = bimodule_tower(random_projective_bimodule(7)).sweedler
    c.square
    tracemalloc.start()
    try:
        basis = c.precointegrals
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.shape == (4, 8, 8)  # maps of P = S, dim S = 8
    assert peak < 16 * 2**20


def test_the_benchmark_worker_decides_recipe_7_in_bounded_memory():
    """One case of ``bench/worker.py`` in a subprocess, the way the benchmark
    runs it: recipe module 7, which the stacked system kept from a decision
    within its time cap, is decided, its witnesses re-verify and the worker's
    peak resident memory stays at most 70 MB.  The worker is started from a
    small launcher process, as the benchmark client starts it: on Linux the
    peak RSS a process reports starts from that of the process it was forked
    from."""
    root = Path(__file__).resolve().parents[1]
    request = {"op": "case", "id": "recipe/7", "cap": 10.0, "check": True}
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, str(root / "bench" / "worker.py"),
         "--root", str(root), "--workload", "analyze-fp", "--seed", "0"],
        input=json.dumps(request) + "\n", capture_output=True, text=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    ready, reply = (json.loads(line) for line in proc.stdout.splitlines())
    assert ready["ready"]
    assert reply["status"] == "ok", reply
    assert reply["witnesses_ok"]
    assert reply["rss_kb"] <= 70 * 1024


# ------------------------------------------------------------------ morphisms


def test_identity_is_a_coring_morphism():
    c = matrix_coring(2, F2)
    assert np.array_equal(CoringMorphism(c, c, F2.eye(2), F2.eye(2)).matrix, F2.eye(4))
    # the maps of the factors may come as bimodule maps, between the factors
    n, m = c.carrier_tensor.left_factor, c.carrier_tensor.right_factor
    ids = BimoduleMap(n, n, F2.eye(2)), BimoduleMap(m, m, F2.eye(2))
    assert np.array_equal(CoringMorphism(c, c, *ids).matrix, F2.eye(4))
    other = trivial_bimodule(F2, 2)
    with pytest.raises(FieldMismatchError, match="the map of N is not between the factors"):
        CoringMorphism(c, c, BimoduleMap(other, other, F2.eye(2)), ids[1])


def test_noncounital_map_is_rejected():
    # (alpha, beta) keeps the counit sum_i e_i (x) e_i of the matrix coring
    # iff beta^T alpha = 1; the shear alpha with beta = 1 is onto and breaks it
    c = matrix_coring(2, F2)
    shear = F2.asarray([[1, 1], [0, 1]])
    with pytest.raises(CoringAxiomError, match="counit"):
        CoringMorphism(c, c, shear, F2.eye(2))
    kept = CoringMorphism(c, c, shear, shear.T)  # shear^-1 = shear over GF(2)
    assert not np.array_equal(kept.matrix, F2.eye(4))


def test_a_map_of_the_factors_that_is_not_onto_is_refused():
    c = matrix_coring(2, F2)
    with pytest.raises(CoringAxiomError, match="induced by onto maps of the context factors"):
        CoringMorphism(c, c, F2.eye(2), F2.zeros((2, 2)))


def _random_automorphisms(module, rng, count):
    """The identity and up to ``count`` random invertible bimodule
    endomorphisms of a module, combinations of a basis of them."""
    f = module.field
    acts = list(module.left_mats) + list(module.right_mats)
    basis = np.stack(intertwiners(f, acts, acts))
    found = [f.eye(module.dim)]
    for _ in range(4 * count):
        mat = f.asarray(f.tensordot(f.random(rng, len(basis)), basis, ([0], [0])))
        if len(found) <= count and rank(f, mat) == module.dim:
            found.append(mat)
    return found


def _counit_keeping_partner(source, target, alpha, beta, rng):
    """b beta for a bimodule endomorphism b of M' with eps' theta = eps for
    theta = alpha (x) b beta, which is linear in b, when one is onto; else
    None."""
    f, ts, target_ts = source.field, source.carrier_tensor, target.carrier_tensor
    m = target_ts.right_factor
    acts = list(m.left_mats) + list(m.right_mats)
    basis = intertwiners(f, acts, acts)
    system = np.stack([f.matmul(target.counit_mat, ts.induced_map(
        alpha, f.matmul(b, beta), target_ts)).reshape(-1) for b in basis], axis=1)
    sol = _solve(f, system, source.counit_mat.reshape(-1))
    if sol is None:
        return None
    for v in _kernel(f, system):
        sol = f.asarray(sol + f.random(rng, 1)[0] * v)
    mat = f.matmul(f.asarray(f.tensordot(sol, np.stack(basis), ([0], [0]))), beta)
    return mat if rank(f, mat) == m.dim else None


def onto_factor_maps(field):
    """(source, target, alpha, beta) for onto maps alpha: N -> N' and
    beta: M -> M' of two contexts: the identity of the matrix coring, of the
    comatrix and Sweedler corings of the bundled modules and of the
    morita-rows-cols context, (chi, id) between that context and the
    comatrix coring of its M and back, and (phi -> phi(1), id) from the
    comatrix coring of the regular module of k x k onto the trivial coring."""
    def identity(c):
        ts = c.carrier_tensor
        return c, c, field.eye(ts.left_factor.dim), field.eye(ts.right_factor.dim)

    yield identity(matrix_coring(2, field))
    for name in ("matrix2", "dual-numbers", "product-field", "regular-module",
                 "morita-rows-cols"):
        deffile = bundled_over(name, field.characteristic)
        for m in deffile.bimodules.values():
            yield from map(identity, module_corings(m))
        for md in deffile.morita.values():
            ctx = context_from_morita(md)
            yield identity(ctx)
            _, chi, chi_inv = context_dual_basis(ctx)
            m = ctx.carrier_tensor.right_factor
            target = comatrix_coring(m)
            yield ctx, target, chi.matrix, field.eye(m.dim)
            yield target, ctx, chi_inv.matrix, field.eye(m.dim)
    a = direct_product(field_algebra(field), field_algebra(field))
    c = comatrix_coring(regular_bimodule(a))
    at_one = np.stack([field.matmul(phi, a.unit)
                       for phi in c.carrier_tensor.left_factor.functional_mats], axis=1)
    yield c, trivial_coring(a), at_one, field.eye(a.dim)


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["GF(2)", "GF(3)", "QQ"])
def test_the_counit_check_of_induced_maps_is_the_dense_coproduct_check(field):
    """On onto maps of the context factors, composed with random automorphisms
    of N' and M', and with b beta solved to keep the counit, CoringMorphism
    accepts exactly the maps that keep the counit and intertwine the
    representative coproducts in C' (x)_A C' (``conftest.is_coring_map``)."""
    rng = np.random.default_rng(field.characteristic + 5)
    verdicts = []
    for source, target, alpha0, beta0 in onto_factor_maps(field):
        ts, target_ts = source.carrier_tensor, target.carrier_tensor
        maps = [(field.matmul(a, alpha0), field.matmul(b, beta0)) for a, b in zip(
            _random_automorphisms(target_ts.left_factor, rng, 2),
            _random_automorphisms(target_ts.right_factor, rng, 2))]
        maps += [(alpha, partner) for alpha, beta in maps[1:] if (
            partner := _counit_keeping_partner(source, target, alpha, beta, rng)) is not None]
        for alpha, beta in maps:
            theta = ts.induced_map(alpha, beta, target_ts)
            try:
                accepted = np.array_equal(
                    CoringMorphism(source, target, alpha, beta).matrix, theta)
            except CoringAxiomError:
                accepted = False
            assert accepted == is_coring_map(source, target, theta)
            verdicts.append(accepted)
    assert verdicts.count(False) >= 5 and verdicts.count(True) >= 40


def test_no_library_code_names_the_representative_coproduct():
    """``delta_amb``, the d^2-row representative coproduct, is a test oracle
    (``coproduct_oracle``): no module of the library names it, so no library
    path builds it."""
    paths = sorted(Path(coring_module.__file__).parent.glob("*.py"))
    assert len(paths) >= 10
    named = [path.name for path in paths if "delta_amb" in path.read_text(encoding="utf-8")]
    assert named == []
    assert not hasattr(Coring, "delta_amb")


@pytest.mark.parametrize("field,dtype", [(F2, np.int64), (F3, np.int64), (QQ, object)])
def test_maps_hold_their_matrix_as_a_field_array(field, dtype):
    a = matrix_algebra(2, field)
    c = trivial_coring(a)
    plain = np.eye(4, dtype=int).tolist()
    maps = [identity_map(a), BimoduleMap(c.carrier, c.carrier, plain),
            CoringMorphism(c, c, plain, plain)]
    for m in maps:
        assert isinstance(m.matrix, np.ndarray)
        assert m.matrix.dtype == dtype
        assert np.array_equal(m.matrix, field.eye(4))

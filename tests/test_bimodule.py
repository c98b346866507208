import dataclasses
import itertools

import numpy as np
import pytest

from coring_lab import GF, QQ
from coring_lab.algebra import AlgebraMap, check_algebra_map, direct_product, matrix_algebra
from coring_lab.bimodule import (
    Bimodule,
    BimoduleMap,
    _balancing_relations,
    _induced_action,
    _matrix_subspace_coords,
    _on_left_leg,
    canonical_s_iso,
    context_projection,
    dual_basis,
    endomorphism_algebra,
    hom_bimodule,
    intertwiners,
    left_dual,
    left_dual_basis,
    left_endomorphism_algebra,
    random_bimodule_iso,
    regular_bimodule,
    restrict_left,
    restrict_right,
    right_dual,
    span_search,
    tensor_over,
)
from coring_lab import bimodule as bimodule_module
from coring_lab.comatrix import comatrix_coring
from coring_lab.coring import left_dual_ring
from coring_lab.errors import (
    BimoduleAxiomError,
    DimensionMismatchError,
    FieldMismatchError,
    NotProjectiveError,
)
from coring_lab.fields import Field, PrimeField
from coring_lab.linalg import _kernel, _solve, rank
from coring_lab.structure import bimodule_tower

from conftest import (
    bundled_over,
    canonical_identification_oracle,
    column_module,
    count_memo_bodies,
    dual_numbers,
    field_algebra,
    intertwiner_rows,
    kronecker_intertwiners,
    point_module_over_dual_numbers,
    row_module,
    trivial_bimodule,
)
from coproduct_oracle import _on_right_leg, section_matrix
from random_modules import random_projective_bimodule

F2 = GF(2)
F3 = GF(3)


# ---------------------------------------------------------------- validation


def test_regular_bimodule_validates():
    regular_bimodule(matrix_algebra(2, F3)).validate()


def test_incompatible_action_is_rejected():
    k = field_algebra(F2)
    lam = F2.asarray([[[1, 0], [0, 1]]])
    rho = F2.zeros((2, 1, 2))
    rho[0, 0, 1] = 1  # e_0 . 1 = e_1 breaks the right unit law
    rho[1, 0, 0] = 1
    with pytest.raises(BimoduleAxiomError):
        Bimodule(k, k, lam, rho)


def test_bimodule_map_checks_shape_and_actions():
    m = regular_bimodule(dual_numbers(F2))
    with pytest.raises(DimensionMismatchError):
        BimoduleMap(m, m, [1, 0])  # not 2-D
    with pytest.raises(DimensionMismatchError):
        BimoduleMap(m, m, [[1, 0]])
    with pytest.raises(BimoduleAxiomError):
        BimoduleMap(m, m, [[0, 1], [1, 0]])  # the swap 1 <-> x is not x-linear


# ------------------------------------------------------------------- tensors


def test_tensor_of_fields_is_one_dimensional():
    m = trivial_bimodule(F2, 1)
    assert tensor_over(m, m).dim == 1


def test_tensor_over_dual_numbers_with_trivial_x_action():
    m = point_module_over_dual_numbers(F2)
    # view k as a right module over the dual numbers too: (k, B)-bimodule
    b = dual_numbers(F2)
    k = field_algebra(F2)
    rho = F2.zeros((1, 2, 1))
    rho[0, 0, 0] = 1
    lam = F2.zeros((1, 1, 1))
    lam[0, 0, 0] = 1
    right_point = Bimodule(k, b, lam, rho, name="k over (k, dual)")
    ts = tensor_over(right_point, m)
    assert ts.dim == 1


def test_rows_tensor_columns_over_matrix_algebra():
    rows, cols = row_module(F2), column_module(F2)
    ts = tensor_over(rows, cols)
    assert ts.dim == 1
    # balancing identifies e1* (x) e1 with e2* (x) e2
    e = F2.eye(2)
    assert np.array_equal(ts.pure(e[:, 0], e[:, 0]), ts.pure(e[:, 1], e[:, 1]))


def test_tensor_requires_matching_middle_algebra():
    with pytest.raises(FieldMismatchError):
        tensor_over(trivial_bimodule(F2, 2), point_module_over_dual_numbers(F2))


@pytest.mark.parametrize("side", ["left", "right"])
def test_an_action_that_does_not_commute_with_the_middle_does_not_descend(side):
    kk = direct_product(field_algebra(F2), field_algebra(F2))
    reg = regular_bimodule(kk)
    swap = F2.asarray([[0, 1], [1, 0]])  # exchanges the two idempotent lines
    if side == "left":  # kk as (kk, kk), its first basis element acting by the swap
        m = Bimodule(kk, kk, np.stack([swap, F2.eye(2)]), reg.right_action, _validate=False)
        n = reg
    else:
        m = reg
        n = Bimodule(kk, kk, reg.left_action, np.stack([swap, F2.eye(2)], axis=1),
                     _validate=False)
    with pytest.raises(BimoduleAxiomError, match=f"{side} action does not descend at basis 0"):
        tensor_over(m, n)


def test_context_projection_checks_that_the_right_action_of_n_descends():
    # X (x)_A N is a tensor_over, so B acting on N must pass its descent check
    kk = direct_product(field_algebra(F2), field_algebra(F2))
    reg = regular_bimodule(kk)
    swap = F2.asarray([[0, 1], [1, 0]])
    n = Bimodule(kk, kk, reg.left_action, np.stack([swap, F2.eye(2)], axis=1), _validate=False)
    carrier = dataclasses.replace(tensor_over(reg, reg), left_factor=n)
    with pytest.raises(BimoduleAxiomError, match="right action does not descend at basis 0"):
        context_projection(reg, carrier)


def test_tensor_balancing_holds_in_quotient(rng):
    m = regular_bimodule(matrix_algebra(2, F2))
    ts = tensor_over(m, m)
    for _ in range(10):
        u = F2.random(rng, 4)
        v = F2.random(rng, 4)
        a = F2.random(rng, 4)
        left = ts.pure(F2.matmul(m.act_right(a), u), v)
        right = ts.pure(u, F2.matmul(m.act_left(a), v))
        assert np.array_equal(left, right)


def test_tensor_functorial_on_pure_tensors(rng):
    m = trivial_bimodule(F3, 2)
    ts = tensor_over(m, m)
    f = BimoduleMap(m, m, F3.asarray([[1, 2], [0, 1]]))
    g = BimoduleMap(m, m, F3.asarray([[2, 0], [1, 1]]))
    induced = ts.induced_map(f.matrix, g.matrix, ts)
    for _ in range(10):
        u, v = F3.random(rng, 2), F3.random(rng, 2)
        lhs = F3.matmul(induced, ts.pure(u, v))
        rhs = ts.pure(f(u), g(v))
        assert np.array_equal(lhs, rhs)


def _check_constraint_core(field, src, tgt, operators):
    """intertwiners against the kernel of the explicit Kronecker system, and
    _induced_action of the given maps on that space against one
    _matrix_subspace_coords solve per operator."""
    rows = np.concatenate(intertwiner_rows(field, src, tgt))
    mats = intertwiners(field, src, tgt)
    expected = _kernel(field, rows)
    assert len(mats) == len(expected)
    for x, v in zip(mats, expected):
        assert Field.equal(x.reshape(-1), v)
        for s, t in zip(src, tgt):
            assert Field.equal(field.matmul(x, s), field.matmul(t, x))
    images = [[op(x) for x in mats] for op in operators]
    acts = _induced_action(field, mats, images)
    assert acts.shape == (len(operators), len(mats), len(mats))
    for k, imgs in enumerate(images):
        for alpha, coords in enumerate(_matrix_subspace_coords(field, mats, imgs)):
            assert Field.equal(acts[k, alpha], coords)


ORACLE_FIELDS = [F2, F3, GF(2**31 - 1), QQ]


def assert_intertwiners_match_the_oracle(field, src, tgt):
    """intertwiners against the Kronecker oracle, entry for entry and in
    dtype, in the given order of the pairs, reversed and shuffled."""
    oracle = kronecker_intertwiners(field, src, tgt)
    order = np.random.default_rng(len(src)).permutation(len(src))
    for perm in (range(len(src)), range(len(src))[::-1], order):
        ours = intertwiners(field, [src[i] for i in perm], [tgt[i] for i in perm])
        assert len(ours) == len(oracle)
        for x, y in zip(ours, oracle):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert np.array_equal(x, y)
    return oracle


def _invertible(field, rng, n):
    while True:
        q = field.random(rng, (n, n))
        q_inv = _solve(field, q, field.eye(n))
        if q_inv is not None:
            return q, q_inv


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_intertwiners_match_the_kronecker_oracle_on_random_pairs(field):
    rng = np.random.default_rng(field.characteristic % 1000)
    nonzero = 0
    for _ in range(12):
        ns, nt, count = (int(v) for v in rng.integers(1, 5, size=3))
        s = [field.random(rng, (ns, ns)) for _ in range(count)]
        # generic pairs, the commutant of s, conjugates of s, and s beside
        # another family, whose spaces are 0, at least 1 and at least ns^2
        # dimensional
        q, q_inv = _invertible(field, rng, ns)
        u = [field.random(rng, (nt, nt)) for _ in range(count)]
        beside = [field.zeros((ns + nt, ns + nt)) for _ in range(count)]
        for b, si, ui in zip(beside, s, u):
            b[:ns, :ns], b[ns:, ns:] = si, ui
        for tgt in (u if nt == ns else [field.random(rng, (ns, ns)) for _ in s], s,
                    [field.matmul(q, field.matmul(si, q_inv)) for si in s], beside):
            nonzero += len(assert_intertwiners_match_the_oracle(field, s, tgt))
    assert nonzero


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@pytest.mark.parametrize("ns,nt", [(0, 0), (0, 3), (3, 0), (1, 1), (1, 3), (3, 1)])
def test_intertwiners_match_the_kronecker_oracle_on_small_sides(field, ns, nt):
    rng = np.random.default_rng(ns * 10 + nt)
    for count in (1, 3):
        src = [field.random(rng, (ns, ns)) for _ in range(count)]
        tgt = [field.random(rng, (nt, nt)) for _ in range(count)]
        assert_intertwiners_match_the_oracle(field, src, tgt)
        # scalars act alike on both sides: then every X intertwines
        scalars = [field.asarray(field.random(rng, ())) for _ in range(count)]
        found = assert_intertwiners_match_the_oracle(
            field, [c * field.eye(ns) for c in scalars], [c * field.eye(nt) for c in scalars])
        assert len(found) == ns * nt


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_intertwiners_match_the_kronecker_oracle_after_an_identity_pair(field):
    """A first pair (I, I), the action of a unit, has no defect; the pairs
    after it restrict as they do without it."""
    for name in ("matrix2", "dual-numbers", "product-field"):
        m = bundled_over(name, field.characteristic).bimodules["M"]
        a = m.right_alg
        for src, tgt in ((m.right_mats, list(a.right_mult)),
                         (m.left_mats + m.right_mats, m.left_mats + m.right_mats)):
            with_unit = assert_intertwiners_match_the_oracle(
                field, [field.eye(src[0].shape[0])] + src, [field.eye(tgt[0].shape[0])] + tgt)
            assert all(np.array_equal(x, y) for x, y in
                       zip(with_unit, intertwiners(field, src, tgt), strict=True))


# the two largest stacked systems of the benchmark corpus: the pre-cointegral
# bimodule maps of the Sweedler corings of k^2 and of recipe module 6
LARGEST_SYSTEMS = {
    "k^2/GF(2)": (lambda: trivial_bimodule(F2, 2), (2048, 256)),
    "recipe/6": (lambda: random_projective_bimodule(6), (1700, 170)),
}


@pytest.mark.parametrize("case", sorted(LARGEST_SYSTEMS))
def test_intertwiners_match_the_kronecker_oracle_on_the_largest_corpus_systems(case):
    build, shape = LARGEST_SYSTEMS[case]
    c = bimodule_tower(build()).sweedler
    src = c.square.space.left_mats + c.square.space.right_mats
    tgt = list(c.base.left_mult) + list(c.base.right_mult)
    assert np.concatenate(intertwiner_rows(c.field, src, tgt)).shape == shape
    assert assert_intertwiners_match_the_oracle(c.field, src, tgt)


def test_intertwiners_build_no_kronecker_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("kron called")

    c = bimodule_tower(trivial_bimodule(F3, 2)).sweedler
    src = c.square.space.left_mats + c.square.space.right_mats
    tgt = list(c.base.left_mult) + list(c.base.right_mult)
    monkeypatch.setattr(PrimeField, "kron", refuse)
    assert len(intertwiners(F3, src, tgt)) == 16
    m = bundled_over("matrix2", 3).bimodules["M"]
    assert intertwiners(F3, m.left_mats + m.right_mats, m.left_mats + m.right_mats)


def test_leg_helpers_match_kronecker_products(rng):
    for field in (F3, QQ):
        a, b = field.random(rng, (2, 3)), field.random(rng, (4, 5))
        x = field.random(rng, (15, 6))
        assert Field.equal(_on_left_leg(field, a, x, 5),
                           field.matmul(field.kron(a, field.eye(5)), x))
        assert Field.equal(_on_right_leg(field, b, x, 3),
                           field.matmul(field.kron(field.eye(3), b), x))
        # the commutant of s, with s acting on it from both sides
        s = field.random(rng, (4, 4))
        _check_constraint_core(field, [s], [s], [lambda y: field.matmul(s, y),
                                                 lambda y: field.matmul(y, s)])


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=repr)
def test_balancing_relations_match_the_kronecker_construction(field):
    """Placed entries against m.c (x) n - m (x) c.n built from identities."""
    reg_m2 = regular_bimodule(matrix_algebra(2, field))
    point = point_module_over_dual_numbers(field)
    pairs = [(row_module(field), column_module(field)), (column_module(field), row_module(field)),
             (reg_m2, reg_m2), (regular_bimodule(dual_numbers(field)), point)]
    pairs += [(m, right_dual(m)) for m, _ in pairs] + [(right_dual(n), n) for _, n in pairs]
    for m, n in pairs:
        assert m.right_alg == n.left_alg
        dm, dc, dn = m.dim, m.right_alg.dim, n.dim
        eye_m, eye_n = field.eye(dm), field.eye(dn)
        r1 = m.right_action[:, :, None, :, None] * eye_n[None, None, :, None, :]
        r2 = eye_m[:, None, None, :, None] * n.left_action[None, :, :, None, :]
        kron_rows = field.asarray(r1 - r2).reshape(dm * dc * dn, dm * dn)
        assert Field.equal(_balancing_relations(field, m.right_action, n.left_action), kron_rows)


@pytest.mark.parametrize("seed", range(12))
def test_leg_wise_tensor_actions_match_kronecker_products(seed, rng):
    m = random_projective_bimodule(seed)
    f = m.field
    dual = right_dual(m)
    # over the right algebra of m, then over its left algebra; seeds 2, 3
    # and 8 have trivial middle algebras on both sides
    for ts in (tensor_over(m, dual), tensor_over(dual, m)):
        left, right = ts.left_factor, ts.right_factor
        for i, mat in enumerate(left.left_mats):
            big = f.kron(mat, f.eye(right.dim))
            assert Field.equal(ts.space.left_mats[i],
                               f.matmul(ts.projection, f.matmul(big, section_matrix(ts))))
        for j, mat in enumerate(right.right_mats):
            big = f.kron(f.eye(left.dim), mat)
            assert Field.equal(ts.space.right_mats[j],
                               f.matmul(ts.projection, f.matmul(big, section_matrix(ts))))
        f_mat, g_mat = f.random(rng, (left.dim, left.dim)), f.random(rng, (right.dim, right.dim))
        big = f.kron(f_mat, g_mat)
        assert Field.equal(ts.induced_map(f_mat, g_mat, ts),
                           f.matmul(ts.projection, f.matmul(big, section_matrix(ts))))
    # Hom_A(M, A) with the actions a.phi and phi.b of the right dual
    a_alg = m.right_alg
    _check_constraint_core(
        f, m.right_mats, a_alg.right_mult,
        [lambda y, x=x: f.matmul(x, y) for x in a_alg.left_mult]
        + [lambda y, x=x: f.matmul(y, x) for x in m.left_mats])


# --------------------------------------------------------------------- duals


def test_right_dual_of_trivial_module():
    assert right_dual(trivial_bimodule(F2, 3)).dim == 3


def test_right_dual_of_rows_is_columns():
    rows = row_module(F2)
    dual = right_dual(rows)
    assert dual.dim == 2
    assert dual.left_alg == matrix_algebra(2, F2)
    assert dual.right_alg == field_algebra(F2)
    search = random_bimodule_iso(dual, column_module(F2), seed=1)
    assert search.found


def test_right_dual_over_dual_numbers_point():
    m = point_module_over_dual_numbers(F2)
    dual = right_dual(m)
    assert dual.dim == 1
    # x acts as zero on the right of the dual
    x = F2.asarray([0, 1])
    assert np.all(dual.act_right(x) == 0)


def test_left_dual_dimensions():
    assert left_dual(trivial_bimodule(F3, 2)).dim == 2
    m = point_module_over_dual_numbers(F2)
    ld = left_dual(m)
    assert ld.dim == 1
    # values of the surviving functional land in the span of x
    psi = ld.functional_mats[0]
    assert psi[0, 0] == 0 and psi[1, 0] == 1


def test_left_dual_of_regular_bimodule_has_full_dimension():
    b = dual_numbers(F2)
    assert left_dual(regular_bimodule(b)).dim == b.dim


# --------------------------------------------------------------- dual bases


def test_dual_basis_of_regular_module():
    a = matrix_algebra(2, F3)
    db = dual_basis(regular_bimodule(a))
    assert db is not None and db.verify()


def test_dual_basis_of_trivial_module_is_coordinatewise():
    db = dual_basis(trivial_bimodule(F2, 2))
    assert db is not None and db.verify()
    mats = db.functional_mats
    assert np.array_equal(mats[0], [[1, 0]])
    assert np.array_equal(mats[1], [[0, 1]])


@pytest.mark.parametrize("key", ["dual-numbers/2", "matrix2/3", "morita-rows-cols/2",
                                 "regular-module/0"])
def test_dual_basis_identity_matches_the_sum_over_pairs(key):
    """DualBasis.verify against sum_k e_k . phi_k(x) formed pair by pair, on
    the dual basis of each bundled module and on a tampered copy."""
    name, char = key.split("/")
    for m in bundled_over(name, int(char)).bimodules.values():
        db = dual_basis(m)
        if db is None:
            continue
        f = m.field
        shifted = [f.asarray(c + f.asarray(np.eye(len(c), dtype=int)[0]))
                   for c in db.functional_coords]
        for basis in (db, dataclasses.replace(db, functional_coords=shifted)):
            total = f.zeros((m.dim, m.dim))
            for e, phi in zip(basis.elements, basis.functional_mats):
                act = f.tensordot(f.asarray(e), m.right_action, ([0], [0]))  # (a, m')
                total = f.asarray(total + f.matmul(act.T, phi))
            assert basis.verify() == Field.equal(total, f.eye(m.dim))
            assert basis.verify() == (basis is db)


def test_point_module_is_projective_over_the_field_side():
    db = dual_basis(point_module_over_dual_numbers(F2))
    assert db is not None and db.verify()


def test_point_module_is_not_projective_over_dual_numbers():
    assert left_dual_basis(point_module_over_dual_numbers(F2)) is None


def test_missing_dual_basis_is_computed_once(monkeypatch):
    # k as a (k, dual numbers)-bimodule, x acting as zero: not projective on the right
    rho = F2.zeros((1, 2, 1))
    rho[0, 0, 0] = 1
    m = Bimodule(field_algebra(F2), dual_numbers(F2), F2.eye(1)[None], rho)
    runs = count_memo_bodies(monkeypatch, dual_basis)
    assert bimodule_module.dual_basis(m) is None
    assert bimodule_module.dual_basis(m) is None
    for _ in range(2):
        with pytest.raises(NotProjectiveError):
            comatrix_coring(m)
    assert runs == [("dual_basis", m)]


def test_left_dual_basis_of_regular_module():
    db = left_dual_basis(regular_bimodule(dual_numbers(F3)))
    assert db is not None


# ------------------------------------------------------------- endomorphisms


def test_endomorphisms_of_trivial_module_are_full_matrix_algebra():
    end = endomorphism_algebra(trivial_bimodule(F2, 2))
    oracle = matrix_algebra(2, F2)
    # the deterministic kernel basis is the matrix units in row-major order,
    # so the structure constants agree entry for entry
    assert np.array_equal(end.algebra.structure, oracle.structure)
    assert np.array_equal(end.algebra.unit, oracle.unit)
    # scalar embedding of B = k
    assert end.b_to_s.matrix.shape == (4, 1)
    assert check_algebra_map(end.b_to_s)


def test_endomorphisms_of_regular_module():
    a = dual_numbers(F2)
    end = endomorphism_algebra(regular_bimodule(a))
    assert end.algebra.dim == a.dim


def test_endomorphisms_of_point_module_over_dual_numbers():
    m = point_module_over_dual_numbers(F2)
    end = endomorphism_algebra(m)
    assert end.algebra.dim == 1
    # B -> S is the quotient killing x
    assert end.b_to_s.matrix.tolist() == [[1, 0]]


def test_module_as_s_bimodule_validates():
    end = endomorphism_algebra(trivial_bimodule(F3, 2))
    end.module_as_s_bimodule.validate()


# ------------------------------------------------- canonical identification


def test_canonical_s_iso_trivial():
    iso = canonical_s_iso(trivial_bimodule(F2, 1))
    assert iso.omega.shape == (1, 1, 1)
    assert iso.omega[0, 0, 0] == 1


def omega_of(m, i, j):
    """S coordinates of omega(e_i (x) e_j^*), e_j^* from the dual basis."""
    iso = canonical_s_iso(m)
    return m.field.matmul(iso.omega[:, i, :], dual_basis(m).functional_coords[j])


def test_canonical_s_iso_on_k2_round_trips_matrix_units():
    m = trivial_bimodule(F2, 2)
    s = canonical_s_iso(m).end.algebra
    f = m.field
    # E_ij corresponds to e_i (x) e_j*
    for i in range(2):
        for j in range(2):
            expected = f.zeros((2, 2))
            expected[i, j] = 1
            assert np.array_equal(s.mat_of(omega_of(m, i, j)), expected)


def test_canonical_s_iso_product_rule_zero_case():
    # (e1 (x) e1*) (e2 (x) e2*) = e1 . e1*(e2) (x) e2* = 0
    m = trivial_bimodule(F2, 2)
    s = canonical_s_iso(m).end.algebra
    assert np.all(s.mult(omega_of(m, 0, 0), omega_of(m, 1, 1)) == 0)


# the modules of the analyze-fp benchmark workload at seed 0
ANALYZE_FP_MODULES = {
    **{f"bundled/gf{char}/{name}/{mod}": (lambda name=name, mod=mod, char=char:
                                          bundled_over(name, char).bimodules[mod])
       for char in (2, 3)
       for name, mods in (("matrix2", ["M"]), ("dual-numbers", ["M"]),
                          ("product-field", ["M"]), ("morita-rows-cols", ["cols", "rows"]),
                          ("regular-module", ["M"]))
       for mod in mods},
    **{f"ladder/gf{f.characteristic}/k^{n}": (lambda f=f, n=n: trivial_bimodule(f, n))
       for f in (F2, F3) for n in (1, 2, 3, 4)},
    **{f"recipe/{i}": (lambda i=i: random_projective_bimodule(i)) for i in range(12)},
}


@pytest.mark.parametrize("case", ANALYZE_FP_MODULES)
def test_canonical_identification_oracle(case):
    canonical_identification_oracle(ANALYZE_FP_MODULES[case]())


def test_canonical_iso_dimension_identity():
    for m in [trivial_bimodule(F2, 2), regular_bimodule(dual_numbers(F2)),
              point_module_over_dual_numbers(F2)]:
        db = dual_basis(m)
        if db is None:
            continue
        ts = tensor_over(m, db.dual)
        end = endomorphism_algebra(m)
        assert ts.dim == end.algebra.dim


# ----------------------------------------------------------------- hom & iso


def test_hom_of_fields():
    m = trivial_bimodule(F2, 1)
    assert len(hom_bimodule(m, m)) == 1


def test_hom_of_k2_is_all_linear_maps():
    m = trivial_bimodule(F2, 2)
    assert len(hom_bimodule(m, m)) == 4


def test_hom_from_quotient_to_dual_numbers():
    b = dual_numbers(F2)
    m = point_module_over_dual_numbers(F2)
    end = endomorphism_algebra(m)
    # S = F_2 viewed as a B-bimodule along B -> S
    s_reg = regular_bimodule(end.algebra)
    s_bb = restrict_left(restrict_right(s_reg, end.b_to_s), end.b_to_s)
    homs = hom_bimodule(s_bb, regular_bimodule(b))
    assert len(homs) == 1
    assert homs[0].matrix.tolist() == [[0], [1]]  # 1_S maps to x


def test_iso_identity_found_first():
    m = trivial_bimodule(F3, 3)
    search = random_bimodule_iso(m, m, seed=5)
    assert search.found
    assert np.array_equal(search.map.matrix, F3.eye(3))


def test_iso_duals_of_trivial_module():
    m = trivial_bimodule(F2, 2)
    search = random_bimodule_iso(right_dual(m), left_dual(m), seed=0)
    assert search.found


def test_iso_duals_of_point_module_by_enumeration():
    m = point_module_over_dual_numbers(F2)
    search = random_bimodule_iso(right_dual(m), left_dual(m), seed=0)
    assert search.found


def test_iso_exact_negative_for_different_idempotent_summands():
    kk = direct_product(field_algebra(F2), field_algebra(F2))
    k = field_algebra(F2)
    lam = F2.eye(1)[None, :, :]
    rho1 = F2.zeros((1, 2, 1))
    rho1[0, 0, 0] = 1  # e1 acts as 1, e2 as 0
    rho2 = F2.zeros((1, 2, 1))
    rho2[0, 1, 0] = 1
    p1 = Bimodule(k, kk, lam, rho1, name="P1")
    p2 = Bimodule(k, kk, lam, rho2, name="P2")
    assert random_bimodule_iso(p1, p2, seed=0).status == "none"
    assert random_bimodule_iso(p1, p1, seed=0).found


def test_iso_over_q_uses_random_attempts():
    m = trivial_bimodule(QQ, 2)
    assert random_bimodule_iso(m, m, seed=3).found


def lexicographic_search(field, stack, attempt):
    """The oracle of ``span_search``'s enumeration: every nonzero combination
    in the order of ``itertools.product``."""
    for coeffs in itertools.product(range(field.characteristic), repeat=len(stack)):
        if any(coeffs):
            witness = attempt(field.tensordot(field.asarray(coeffs), stack, ([0], [0])))
            if witness is not None:
                return "found", witness
    return "none", None


@pytest.mark.parametrize("seed", range(40))
def test_span_search_tries_one_combination_per_line(seed):
    # invertible with a zero corner: both tests hold at X exactly when at cX
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    stack = F3.asarray(rng.integers(0, 3, size=(k, 2, 2)))
    if seed % 3 == 0:
        stack[:, 1] = 0  # no combination is invertible
    tried = []

    def attempt(mat):
        tried.append(mat)
        return mat if mat[0, 0] == 0 and rank(F3, mat) == 2 else None

    status, witness = span_search(F3, stack, attempt, 3**k, 0, seed=0)
    attempts = len(tried)
    want_status, want = lexicographic_search(F3, stack, attempt)
    assert status == want_status
    assert (witness is None) == (want is None)
    if want is not None:
        assert Field.equal(witness, want)
    if seed % 3 == 0:
        assert status == "none"
        assert attempts == (3**k - 1) // 2


# -------------------------------------------------------------- restriction.


def test_restrict_left_along_quotient_map():
    b = dual_numbers(F2)
    k = field_algebra(F2)
    quotient = AlgebraMap(b, k, [[1, 0]])
    m = restrict_left(trivial_bimodule(F2, 2), quotient)
    assert m.left_alg == b
    m.validate()


@pytest.mark.parametrize("restrict", [restrict_left, restrict_right])
def test_restriction_along_a_non_multiplicative_map_raises(restrict):
    d = dual_numbers(F2)
    # 1 -> 1 and x -> 1: unital, but x^2 = 0 goes to 0, not to 1
    with pytest.raises(BimoduleAxiomError, match="non-multiplicative"):
        restrict(regular_bimodule(d), AlgebraMap(d, d, [[1, 1], [0, 0]]))


def test_a_valid_restriction_is_not_validated_again(monkeypatch):
    d, k = dual_numbers(F2), field_algebra(F2)
    module, regular = trivial_bimodule(F2, 2), regular_bimodule(d)
    validated = []
    original = Bimodule.validate

    def counting(self):
        validated.append(self)
        return original(self)

    monkeypatch.setattr(Bimodule, "validate", counting)
    restricted = [restrict_left(module, AlgebraMap(d, k, [[1, 0]])),
                  restrict_right(regular, AlgebraMap(k, d, [[1], [0]]))]
    assert validated == []
    for m in restricted:
        m.validate()  # and the restriction is valid


# ------------------------------------------ coordinates on the free columns


def solved_coords(field, basis_mats, targets):
    """The oracle of ``_matrix_subspace_coords``: the coordinates of each
    target matrix on basis_mats by one exact solve, as a list; raises if a
    target leaves the span."""
    if not basis_mats:
        if any(np.any(field.asarray(t) != 0) for t in targets):
            raise BimoduleAxiomError("matrix outside the empty span")
        return [field.zeros(0) for _ in targets]
    base = field.asarray(np.reshape(basis_mats, (len(basis_mats), -1))).T
    rhs = field.asarray(np.reshape(targets, (len(targets), -1))).T
    sol = _solve(field, base, rhs)
    if sol is None:
        raise BimoduleAxiomError("matrix left the expected subspace; conventions violated")
    return [sol[:, i] for i in range(sol.shape[1])]


def coordinate_bases(m):
    """Every intertwiner basis of m that the library reads coordinates on."""
    bases = {"right dual": right_dual(m).functional_mats,
             "left dual": left_dual(m).functional_mats,
             "End": endomorphism_algebra(m).algebra.endo_mats,
             "left End": left_endomorphism_algebra(m).endo_mats}
    if dual_basis(m) is not None:
        bases["dual ring"] = left_dual_ring(comatrix_coring(m)).functional_mats
    return bases


@pytest.mark.parametrize("char", [2, 3, 0])
@pytest.mark.parametrize("name", ["matrix2", "dual-numbers", "product-field",
                                  "morita-rows-cols", "regular-module"])
def test_read_coordinates_match_the_solved_ones(name, char):
    """On each basis: the same coordinates as the solve for combinations of
    the basis, and the same error from both for a matrix outside the span."""
    rng = np.random.default_rng(char)
    seen = 0
    for m in bundled_over(name, char).bimodules.values():
        f = m.field
        for which, mats in coordinate_bases(m).items():
            if not mats:
                continue
            stack = np.stack(mats)
            inside = f.tensordot(f.random(rng, (4, len(mats))), stack, ([1], [0]))
            targets = np.concatenate([stack, inside])
            ours = _matrix_subspace_coords(f, mats, targets)
            assert ours.shape == (len(targets), len(mats))
            assert Field.equal(ours, np.stack(solved_coords(f, mats, targets))), which
            seen += 1
            flat = stack.reshape(len(mats), -1)
            units = f.eye(flat.shape[1])
            missed = [u for u in units if rank(f, np.vstack([flat, u])) > len(mats)]
            if not missed:  # the basis spans every matrix
                continue
            outside = np.concatenate([inside, missed[0].reshape((1,) + stack.shape[1:])])
            for coords in (_matrix_subspace_coords, solved_coords):
                with pytest.raises(BimoduleAxiomError):
                    coords(f, mats, outside)
    assert seen


@pytest.mark.parametrize("f", [F2, F3, QQ], ids=repr)
def test_the_lift_of_a_stack_is_the_stack_of_lifts(f):
    m = regular_bimodule(dual_numbers(f))
    ts = tensor_over(m, m)
    assert ts.dim < ts.presentation.ambient_dim  # the presentation drops columns
    t = f.random(np.random.default_rng(7), (5, ts.dim))
    lifts = ts.lift(t)
    assert lifts.shape == (5, ts.left_factor.dim, ts.right_factor.dim)
    for k in range(5):
        single = ts.lift(t[k])
        assert Field.equal(lifts[k], single)
        assert Field.equal(f.matmul(ts.projection, single.reshape(-1)), t[k])
        assert not np.any(np.delete(single.reshape(-1), ts.free) != 0)

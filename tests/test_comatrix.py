import re
from dataclasses import replace

import numpy as np
import pytest

from coring_lab import GF, comatrix as comatrix_module
from coring_lab import coring as coring_module
from coring_lab.algebra import AlgebraMap, direct_product, matrix_algebra
from coring_lab.bimodule import (
    Bimodule,
    BimoduleMap,
    DualBasis,
    _induced_action,
    _matrix_subspace_coords,
    dual_basis,
    regular_bimodule,
    restrict_left,
    tensor_over,
)
from coring_lab.linalg import _kernel
from coring_lab.comatrix import (
    MoritaData,
    comatrix_coring,
    comatrix_data,
    context_dual_basis,
    context_from_bimodule,
    context_from_morita,
    context_iso,
    coproduct_basis_independence,
    left_dual_anti_iso,
)
from coring_lab.cli import cmd_construct
from coring_lab.coring import (
    Coring,
    CoringMorphism,
    _pair_matrices,
    coring_bimodules_over_dual_ring,
    find_cointegral,
    left_dual_ring,
    sweedler_coring,
)
from coring_lab.definitions import bundled_path, load
from coring_lab.errors import ContextAxiomError, NotProjectiveError
from coring_lab.fields import Field

from coproduct_oracle import delta_amb, section_matrix
from conftest import (
    bundled_over,
    column_module,
    count_memo_bodies,
    dual_numbers,
    field_algebra,
    matrix_coring,
    matrix_coring_arrays,
    point_module_over_dual_numbers,
    row_module,
    trivial_bimodule,
    trivial_coring,
)

F2 = GF(2)
F3 = GF(3)


def twisted_point_module(field):
    """k^2 as a (dual numbers, k)-bimodule with x acting as E_12: the
    standard witness of a right-projective, non-separable bimodule whose
    endomorphism ring is faithfully flat over the dual numbers."""
    b = dual_numbers(field)
    k = field_algebra(field)
    lam = field.zeros((2, 2, 2))
    lam[0] = field.eye(2)
    lam[1, 1, 0] = 1  # x . e_2 = e_1
    rho = field.eye(2)[:, None, :]
    return Bimodule(b, k, lam, rho, name="twisted point")


# ------------------------------------------------------------- comatrix core


def test_comatrix_of_regular_module_is_the_trivial_coring():
    a = direct_product(field_algebra(F2), field_algebra(F2))
    c = comatrix_coring(regular_bimodule(a))
    assert c.dim == a.dim
    # the counit is an isomorphism onto the trivial coring, induced by
    # phi -> phi(1) on M^* and the identity of A
    at_one = np.stack([F2.matmul(phi, a.unit)
                       for phi in c.carrier_tensor.left_factor.functional_mats], axis=1)
    counit = CoringMorphism(c, trivial_coring(a), at_one, F2.eye(a.dim))
    assert np.array_equal(counit.matrix, c.counit_mat)


def test_comatrix_of_k2_is_the_matrix_coring():
    built = comatrix_coring(trivial_bimodule(F2, 2))
    expected, counit = matrix_coring_arrays(2, F2)
    assert np.array_equal(delta_amb(built), expected)
    assert np.array_equal(built.counit_mat, counit)


def tau_of_unit(ctx):
    """tau(1) = sum_i m_i (x) n_i of a context coring, as the (dim M, dim N)
    matrix of its ambient coefficients."""
    ts = ctx.carrier_tensor
    ms, ns = _pair_matrices(ctx.field, ctx.tau_pairs, ts.right_factor.dim, ts.left_factor.dim)
    return ctx.field.matmul(ms, ns.T)


def test_context_with_non_unit_tau_coefficients():
    # (2 sigma, 2 tau) is again a context over GF(3), since 2 * 2 = 1; its
    # tau(1) has coefficient 2, which every use of tau(1) must carry
    m = trivial_bimodule(F3, 2)
    oracle = comatrix_coring(m)
    scaled = Coring(oracle.carrier_tensor,
                    [(F3.asarray(2 * m_vec), n_vec) for m_vec, n_vec in oracle.tau_pairs],
                    F3.asarray(2 * oracle.counit_mat))
    assert np.array_equal(tau_of_unit(scaled), 2 * F3.eye(2))
    db, _, _ = context_dual_basis(scaled)
    assert db.verify()
    assert np.array_equal(delta_amb(scaled), F3.asarray(2 * delta_amb(oracle)))
    assert np.array_equal(scaled.counit_mat, F3.asarray(2 * oracle.counit_mat))
    context_iso(scaled)  # chi, its inverse and the counit of the forward map are checked


def test_comatrix_of_point_module_is_one_dimensional():
    c = comatrix_coring(point_module_over_dual_numbers(F2))
    assert c.dim == 1
    assert c.counit_mat.tolist() == [[1]]


def test_comatrix_requires_projectivity():
    # reverse the point module so the right side is the dual numbers
    b = dual_numbers(F2)
    k = field_algebra(F2)
    lam = F2.zeros((1, 1, 1))
    lam[0, 0, 0] = 1
    rho = F2.zeros((1, 2, 1))
    rho[0, 0, 0] = 1
    m = Bimodule(k, b, lam, rho)
    with pytest.raises(NotProjectiveError):
        comatrix_coring(m)


def test_comatrix_coring_of_rows_over_matrix_algebra():
    c = comatrix_coring(row_module(F2))
    assert c.dim == 4
    assert c.validation == "full"


# ------------------------------------------------------- basis independence


def test_basis_independence_standard_vs_standard():
    m = trivial_bimodule(F3, 2)
    assert coproduct_basis_independence(m, dual_basis(m))


def test_basis_independence_sheared_basis():
    m = trivial_bimodule(F3, 2)
    db = dual_basis(m)
    f = m.field
    e1, e2 = f.eye(2)[:, 0], f.eye(2)[:, 1]
    sheared = DualBasis(
        m, db.dual,
        [e1 + e2, e2],
        [db.functional_coords[0], db.functional_coords[1] - db.functional_coords[0]],
    )
    assert sheared.verify()
    assert coproduct_basis_independence(m, sheared)


def test_basis_independence_rejects_corrupted_basis():
    m = trivial_bimodule(F3, 2)
    db = dual_basis(m)
    broken = DualBasis(m, db.dual, db.elements,
                       [db.functional_coords[0], db.functional_coords[0]])
    with pytest.raises(NotProjectiveError):
        coproduct_basis_independence(m, broken)


# ------------------------------------------------------------------ contexts


def test_context_from_regular_module():
    a = dual_numbers(F2)
    ctx = context_from_bimodule(regular_bimodule(a))
    # tau(1) = sum_i e_i (x) e_i^*, the dual basis read back from its pairs
    assert np.any(tau_of_unit(ctx) != 0)
    assert context_dual_basis(ctx)[0].verify()


def test_context_from_k2_tau_is_the_identity_pairing():
    m = trivial_bimodule(F2, 2)
    ctx = context_from_bimodule(m)
    assert np.array_equal(tau_of_unit(ctx), F2.eye(2))


def test_context_from_point_module_kills_x():
    m = point_module_over_dual_numbers(F2)
    ctx = context_from_bimodule(m)
    # tau(x) = sum_i x.m_i (x) n_i = x.e (x) e^* = 0
    assert ctx.tau_pairs
    assert all(not np.any(F2.matmul(m.left_mats[1], m_vec)) for m_vec, _ in ctx.tau_pairs)


def rows_cols_morita(field):
    rows, cols = row_module(field), column_module(field)
    ts_nm = tensor_over(cols, rows)  # N (x)_B M with B = k
    ts_mn = tensor_over(rows, cols)  # M (x)_A N over A = M_2
    f = field
    a = matrix_algebra(2, field)
    # sigma: col (x) row -> outer product in M_2
    sigma_amb = f.zeros((4, 4))
    for v in range(2):
        for u in range(2):
            sigma_amb[v * 2 + u, v * 2 + u] = 1
    sigma = BimoduleMap(ts_nm.space, regular_bimodule(a),
                        f.matmul(sigma_amb, section_matrix(ts_nm)))
    # tau~: row (x) col -> scalar product
    mult_amb = f.zeros((1, 4))
    mult_amb[0, 0] = 1
    mult_amb[0, 3] = 1
    tau_tilde = BimoduleMap(ts_mn.space, regular_bimodule(field_algebra(field)),
                            f.matmul(mult_amb, section_matrix(ts_mn)))
    return MoritaData(cols, rows, sigma, tau_tilde, ts_nm, ts_mn)


def test_morita_rows_cols_gives_a_context():
    md = rows_cols_morita(F2)
    c = context_from_morita(md)
    assert c is not None
    assert c.dim == 4
    # the counit sigma is bijective onto M_2
    assert _kernel(F2, c.counit_mat) == []


def test_morita_zero_maps_are_rejected_as_context():
    rows, cols = row_module(F2), column_module(F2)
    ts_nm = tensor_over(cols, rows)
    ts_mn = tensor_over(rows, cols)
    a = matrix_algebra(2, F2)
    sigma = BimoduleMap(ts_nm.space, regular_bimodule(a), F2.zeros((4, 4)))
    tau_tilde = BimoduleMap(ts_mn.space, regular_bimodule(field_algebra(F2)),
                            F2.zeros((1, 1)))
    md = MoritaData(cols, rows, sigma, tau_tilde, ts_nm, ts_mn)
    assert context_from_morita(md) is None


def morita_failures(md):
    """Oracle: every (side, basis triple) where a Morita associativity law
    fails, evaluated one pure tensor at a time."""
    f, n, m = md.m.field, md.n, md.m
    eye_n, eye_m = f.eye(n.dim), f.eye(m.dim)

    def sigma(v, u):
        return f.matmul(md.sigma.matrix, md.tensor_nm.pure(eye_n[:, v], eye_m[:, u]))

    def tau(u, v):
        return f.matmul(md.tau_tilde.matrix, md.tensor_mn.pure(eye_m[:, u], eye_n[:, v]))

    failures = set()
    for v in range(n.dim):
        for u in range(m.dim):
            for w in range(n.dim):  # sigma(n (x) m) n' = n tau~(m (x) n')
                if not np.array_equal(f.matmul(n.act_left(sigma(v, u)), eye_n[:, w]),
                                      f.matmul(n.act_right(tau(u, w)), eye_n[:, v])):
                    failures.add(("sigma", (v, u, w)))
            for w in range(m.dim):  # tau~(m (x) n) m' = m sigma(n (x) m')
                if not np.array_equal(f.matmul(m.act_left(tau(u, v)), eye_m[:, w]),
                                      f.matmul(m.act_right(sigma(v, w)), eye_m[:, u])):
                    failures.add(("tau", (u, v, w)))
    return failures


def line_point_morita(sigma, tau_tilde):
    """Morita data on N = k and M = k^2 over GF(3), pairings given on the
    two-dimensional tensor products: the sigma side asks sigma = tau_tilde,
    the tau side asks both to vanish off the diagonal pair."""
    n, m = trivial_bimodule(F3, 1), trivial_bimodule(F3, 2)
    ts_nm, ts_mn = tensor_over(n, m), tensor_over(m, n)
    k = regular_bimodule(field_algebra(F3))
    return MoritaData(n, m, BimoduleMap(ts_nm.space, k, F3.asarray([sigma])),
                      BimoduleMap(ts_mn.space, k, F3.asarray([tau_tilde])), ts_nm, ts_mn)


def named_failure(md):
    """The (side, basis triple) that MoritaData.validate reports, or None."""
    try:
        md.validate()
    except ContextAxiomError as exc:
        side, at = re.fullmatch(r"Morita associativity \((\w+) side\) fails at \((.*)\)",
                                str(exc)).groups()
        return side, tuple(int(i) for i in at.split(","))
    return None


def test_morita_validation_names_a_failing_triple():
    md = rows_cols_morita(F3)
    cases = [md, line_point_morita([1, 0], [1, 0]), line_point_morita([1, 1], [1, 1])]
    for which in ("sigma", "tau_tilde"):
        good = getattr(md, which)
        for k in range(good.matrix.size):
            bumped = good.matrix.copy()
            bumped.flat[k] = (bumped.flat[k] + 1) % 3
            cases.append(replace(md, **{which: BimoduleMap(good.source, good.target, bumped,
                                                           _validate=False)}))
    named = []
    for case in cases:
        failures, name = morita_failures(case), named_failure(case)
        assert (name is None) == (not failures)
        assert name is None or name in failures
        named.append(name)
    assert named[0] is None
    assert {name[0] for name in named if name} == {"sigma", "tau"}


def test_trivial_morita_context():
    k = trivial_bimodule(F2, 1)
    ts = tensor_over(k, k)
    mult = BimoduleMap(ts.space, regular_bimodule(field_algebra(F2)), F2.eye(1))
    md = MoritaData(k, k, mult, mult, ts, ts)
    ctx = context_from_morita(md)
    assert ctx is not None
    assert np.array_equal(tau_of_unit(ctx), F2.eye(1))


# -------------------------------------------------- Theorem-style round trip


def test_context_dual_basis_recovers_the_standard_one():
    m = trivial_bimodule(F2, 2)
    ctx = context_from_bimodule(m)
    db, chi, chi_inv = context_dual_basis(ctx)
    assert db.verify()
    assert np.array_equal(chi.matrix, F2.eye(2))


def test_context_dual_basis_trivial():
    m = trivial_bimodule(F3, 1)
    ctx = context_from_bimodule(m)
    db, chi, chi_inv = context_dual_basis(ctx)
    assert chi.matrix.tolist() == [[1]]


def test_context_dual_basis_for_morita_context():
    ctx = context_from_morita(rows_cols_morita(F2))
    db, chi, chi_inv = context_dual_basis(ctx)
    assert db.verify()
    assert chi.is_invertible()


def test_context_iso_is_identity_for_canonical_contexts():
    m = trivial_bimodule(F2, 2)
    iso = context_iso(context_from_bimodule(m))
    assert np.array_equal(iso.forward.matrix, F2.eye(4))


def test_context_iso_for_morita_context_verifies_both_ways():
    ctx = context_from_morita(rows_cols_morita(F2))
    iso = context_iso(ctx)
    f = F2
    assert np.array_equal(f.matmul(iso.forward.matrix, iso.backward.matrix), f.eye(4))
    assert np.array_equal(f.matmul(iso.backward.matrix, iso.forward.matrix), f.eye(4))


@pytest.mark.parametrize("source", ["morita", "bimodule"])
def test_context_iso_checks_each_map_once(source, monkeypatch):
    """Of the maps behind the context iso only chi is checked as a bimodule
    map (in ``context_dual_basis``): chi^{-1}, the identity of M and the two
    induced coring maps are not checked again, no rank is taken, and the
    forward map is compared with the counit once."""
    if source == "morita":
        ctx = context_from_morita(rows_cols_morita(F2))
    else:
        ctx = context_from_bimodule(trivial_bimodule(F3, 2))
    comatrix_coring(ctx.carrier_tensor.right_factor)  # the target, built before
    checked = []
    commutes = BimoduleMap.commutes_with_actions
    monkeypatch.setattr(BimoduleMap, "commutes_with_actions",
                        lambda self: checked.append(self) or commutes(self))

    def no_rank(*args):
        raise AssertionError("a rank was taken")

    monkeypatch.setattr(coring_module, "rank", no_rank)
    iso = context_iso(ctx)
    assert [(m.source, m.target) for m in checked] == [
        (ctx.carrier_tensor.left_factor, iso.forward.target.carrier_tensor.left_factor)]
    f = ctx.field
    assert np.array_equal(f.matmul(iso.forward.matrix, iso.backward.matrix), f.eye(ctx.dim))
    assert np.array_equal(f.matmul(iso.backward.matrix, iso.forward.matrix), f.eye(ctx.dim))


@pytest.mark.parametrize("char", [2, 3, 0], ids=["GF(2)", "GF(3)", "QQ"])
def test_context_iso_reads_neither_the_coproduct_nor_the_square(char, monkeypatch):
    """context_iso checks its two coring maps on the context factors: it
    reads no projection onto C (x)_A C, on the context of every bundled
    module and on the morita-rows-cols context.  No library code builds a
    representative coproduct at all
    (``test_no_library_code_names_the_representative_coproduct``)."""
    def unread(*args):
        raise AssertionError("the tensor square was read")

    monkeypatch.setattr(Coring, "square", property(unread))
    checked = []
    for path in sorted(bundled_path("matrix2").parent.glob("*.json")):
        deffile = bundled_over(path.stem, char)
        contexts = [context_from_bimodule(m) for m in deffile.bimodules.values()]
        contexts += [context_from_morita(md) for md in deffile.morita.values()]
        for ctx in contexts:
            iso = context_iso(ctx)
            checked.append(path.stem)
            assert np.array_equal(ctx.field.matmul(iso.backward.matrix, iso.forward.matrix),
                                  ctx.field.eye(ctx.dim))
    assert checked.count("morita-rows-cols") == 3
    assert len(checked) == 7


def test_context_coring_of_canonical_context_matches_comatrix():
    m = trivial_bimodule(F3, 2)
    assert context_from_bimodule(m) is comatrix_data(m).coring


# ------------------------------------------------------ Sweedler consistency


def test_comatrix_of_restricted_regular_module_is_sweedler():
    k = field_algebra(F2)
    kk = direct_product(k, k)
    embed = AlgebraMap(k, kk, [[1], [1]])
    sw = sweedler_coring(embed)
    m = restrict_left(regular_bimodule(kk), embed)
    data = comatrix_data(m)
    f = F2
    # a (x) a' -> (x -> a x) (x) a'
    cols = []
    sw_ts, ts = sw.carrier_tensor, data.coring.carrier_tensor
    for t in range(sw.dim):
        pair = sw_ts.lift(f.eye(sw.dim)[:, t])  # (a_i, a_j) coefficients
        acc = f.zeros(data.coring.dim)
        for i in range(kk.dim):
            for j in range(kk.dim):
                if pair[i, j] == 0:
                    continue
                ell = _matrix_subspace_coords(f, data.dual.functional_mats,
                                              [kk.left_mult[i]])[0]
                acc = acc + pair[i, j] * ts.pure(ell, f.eye(kk.dim)[:, j])
        cols.append(acc)
    # induced by a -> (x -> a x) on A and the identity of A
    ells = np.stack(_matrix_subspace_coords(f, data.dual.functional_mats, list(kk.left_mult)),
                    axis=1)
    morphism = CoringMorphism(sw, data.coring, ells, f.eye(kk.dim))
    assert np.array_equal(morphism.matrix, np.stack(cols, axis=1))
    assert BimoduleMap(sw.carrier, data.coring.carrier,
                       morphism.matrix).is_invertible()


# --------------------------------------------------------------- Cor 2.5 map


@pytest.mark.parametrize("module_builder", [
    lambda: regular_bimodule(direct_product(field_algebra(F2), field_algebra(F2))),
    lambda: trivial_bimodule(F2, 2),
    lambda: point_module_over_dual_numbers(F2),
    lambda: row_module(F2),
    lambda: regular_bimodule(dual_numbers(F3)),
])
def test_left_dual_anti_iso_on_corpus(module_builder):
    m = module_builder()
    anti = left_dual_anti_iso(m)
    assert anti.dual_ring.dim == anti.endos.dim


def test_left_dual_anti_iso_lets_other_errors_through(monkeypatch):
    # only a matrix outside the span is a broken anti-isomorphism; any other
    # failure of the coordinate solve propagates unchanged
    error = TypeError("not a coordinate failure")

    def broken(*args):
        raise error

    monkeypatch.setattr(comatrix_module, "_matrix_subspace_coords", broken)
    with pytest.raises(TypeError) as info:
        left_dual_anti_iso(trivial_bimodule(F2, 2))
    assert info.value is error


def test_left_dual_anti_iso_point_module():
    anti = left_dual_anti_iso(point_module_over_dual_numbers(F2))
    assert anti.forward.tolist() == [[1]]


# ------------------------------------------------- exact negative for gamma


def test_twisted_point_module_comatrix_coring_has_no_cointegral():
    # the module is right-projective but not separable, and its endomorphism
    # ring M_2 is free over the dual numbers, so coseparability would force
    # separability; the solver must prove the system inconsistent
    m = twisted_point_module(F2)
    assert dual_basis(m) is not None
    c = comatrix_coring(m)
    assert c.dim == 2
    assert find_cointegral(c) is None


@pytest.mark.parametrize("name", ["dual-numbers", "matrix2", "morita-rows-cols",
                                  "product-field", "regular-module"])
def test_construct_sequence_builds_the_left_dual_ring_once_per_coring(monkeypatch, name):
    runs = count_memo_bodies(monkeypatch, left_dual_ring)
    deffile = load(bundled_path(name))
    for bim, m in deffile.bimodules.items():
        cmd_construct(deffile, "dual-ring", bim)
        left_dual_anti_iso(m)
    assert [c for _, c in runs] == [comatrix_coring(m) for m in deffile.bimodules.values()]


def test_left_dual_ring_is_memoized_on_the_coring():
    c = matrix_coring(2, F3)
    assert left_dual_ring(c) is left_dual_ring(c)


def test_dual_ring_module_r_has_the_left_action_of_the_left_dual():
    """R's left A-action (a . xi)(x) = xi(x . a), read from the memoized left
    dual of the carrier, against the action solved for by hand."""
    c = matrix_coring(2, F3)
    _, r_mod, ldual, _ = coring_bimodules_over_dual_ring(c)
    mats = ldual.functional_mats
    oracle = _induced_action(F3, mats, [[F3.matmul(xi, x) for xi in mats]
                                        for x in c.carrier.right_mats])
    assert Field.equal(r_mod.left_action, oracle)


def test_construct_sequence_builds_and_validates_the_comatrix_coring_once(monkeypatch):
    runs = count_memo_bodies(monkeypatch, comatrix_data)
    validated = []
    validate = Coring.validate

    def counting(c):
        validated.append(c)
        validate(c)

    monkeypatch.setattr(Coring, "validate", counting)
    deffile = load(bundled_path("regular-module"))
    m = deffile.bimodules["M"]
    cmd_construct(deffile, "comatrix", "M")
    cmd_construct(deffile, "dual-ring", "M")
    context_iso(context_from_bimodule(m))
    left_dual_anti_iso(m)
    assert [name for name, _ in runs] == ["comatrix_data"]
    coring = comatrix_coring(m)
    assert sum(c is coring for c in validated) == 1
    assert len(validated) == 1  # the canonical context is the comatrix coring

import gc
import itertools
import json
import re
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from coring_lab import GF, QQ, bimodule as bimodule_module
from coring_lab.algebra import AlgebraMap, check_algebra_map, direct_product, matrix_algebra
from coring_lab.bimodule import (
    BimoduleMap,
    _combination,
    canonical_s_iso,
    dual_basis,
    endomorphism_algebra,
    intertwiners,
    left_dual,
    left_dual_basis,
    left_endomorphism_algebra,
    regular_bimodule,
    restrict_left,
    right_dual,
    target_bb,
    target_bs,
    target_sb,
    tensor_over,
)
from coring_lab.comatrix import comatrix_coring, comatrix_data
from coring_lab.definitions import bundled_path, load, loads
from coring_lab.coring import find_frobenius_system, is_cosplit, verify_frobenius_system
from coring_lab.errors import CoringLabError, InternalInconsistencyError
from coring_lab.structure import (
    FLAG_NAMES,
    WITNESS_PARTS,
    _audit,
    analyze,
    bimodule_tower,
    cointegral_from_separability,
    faithfully_flat_check,
    frobenius_extension_check,
    iota_from_frobenius,
    is_frobenius_bimodule,
    is_separable_bimodule,
    lift_cointegral,
    lift_cosplit,
    lift_frobenius_system,
    split_extension_check,
    split_from_separability,
    williard_check,
)

from conftest import (
    bundled_over,
    count_memo_bodies,
    dual_numbers,
    field_algebra,
    non_generator_summand,
    point_module_over_dual_numbers,
    row_module,
    trivial_bimodule,
)
from coproduct_oracle import section_matrix
from gamma_oracle import expand, f_of
from random_modules import random_projective_bimodule

F2 = GF(2)
F3 = GF(3)


def product_field_module(field):
    """The product field as a bimodule over (k, k x k) along the diagonal."""
    k = field_algebra(field)
    kk = direct_product(k, k)
    embed = AlgebraMap(k, kk, [[1], [1]])
    return restrict_left(regular_bimodule(kk), embed)


# ------------------------------------------------------------- separability


def test_k2_is_separable():
    nu = is_separable_bimodule(trivial_bimodule(F2, 2))
    assert nu is not None


def test_point_module_is_not_separable():
    assert is_separable_bimodule(point_module_over_dual_numbers(F2)) is None


def test_regular_bimodule_is_separable():
    assert is_separable_bimodule(regular_bimodule(dual_numbers(F2))) is not None


# ----------------------------------------------------------- frobenius as M


def test_kn_is_frobenius():
    assert is_frobenius_bimodule(trivial_bimodule(F2, 3), seed=1).found


def test_regular_module_is_frobenius():
    assert is_frobenius_bimodule(regular_bimodule(dual_numbers(F2)), seed=1).found


def test_point_module_is_not_frobenius():
    assert is_frobenius_bimodule(point_module_over_dual_numbers(F2)).status == "none"


# ------------------------------------------------------- extension checks


def test_split_extension_product_field():
    k = field_algebra(F2)
    kk = direct_product(k, k)
    s = split_extension_check(AlgebraMap(k, kk, [[1], [1]]))
    assert s is not None
    assert np.array_equal(F2.matmul(s.matrix, kk.unit), k.unit)


def test_quotient_of_dual_numbers_is_not_split():
    b = dual_numbers(F2)
    k = field_algebra(F2)
    assert split_extension_check(AlgebraMap(b, k, [[1, 0]])) is None


def test_identity_extension_is_split_and_frobenius():
    b = dual_numbers(F3)
    ident = AlgebraMap(b, b, F3.eye(2))
    assert split_extension_check(ident) is not None
    assert frobenius_extension_check(ident, seed=0).found


def test_product_field_extension_is_frobenius():
    k = field_algebra(F2)
    kk = direct_product(k, k)
    assert frobenius_extension_check(AlgebraMap(k, kk, [[1], [1]]), seed=0).found


def test_quotient_extension_is_not_frobenius():
    b = dual_numbers(F2)
    k = field_algebra(F2)
    assert frobenius_extension_check(AlgebraMap(b, k, [[1, 0]])).status == "none"


# ------------------------------------------------------ cosplit equivalence


def _dual_separable_and_cosplit(m):
    """(M^* separable, comatrix coring of M cosplit): the two must agree."""
    return (is_separable_bimodule(right_dual(m)) is not None,
            is_cosplit(comatrix_coring(m)) is not None)


def test_cosplit_equivalence_k2():
    assert _dual_separable_and_cosplit(trivial_bimodule(F2, 2)) == (True, True)


def test_cosplit_equivalence_point_module():
    assert _dual_separable_and_cosplit(point_module_over_dual_numbers(F2)) == (True, True)


def test_cosplit_equivalence_regular_along_nonseparable_base():
    k = field_algebra(F2)
    d = dual_numbers(F2)
    m = restrict_left(regular_bimodule(d), AlgebraMap(k, d, [[1], [0]]))
    assert _dual_separable_and_cosplit(m) == (False, False)


# ------------------------------------------------------------------- lifts


def test_lift_cosplit_trivial():
    m = trivial_bimodule(F2, 1)
    tower = bimodule_tower(m)
    section = is_cosplit(tower.comatrix.coring)
    lifted = lift_cosplit(m, section)
    assert lifted.matrix.shape == (1, 1)


def test_lift_cosplit_matrix_module():
    m = trivial_bimodule(F2, 2)
    tower = bimodule_tower(m)
    section = is_cosplit(tower.comatrix.coring)
    assert section is not None
    lifted = lift_cosplit(m, section)  # verification is internal
    assert lifted.matrix.shape == (16, 4)


def test_lift_cosplit_product_field_module():
    m = product_field_module(F2)
    tower = bimodule_tower(m)
    section = is_cosplit(tower.comatrix.coring)
    assert section is not None
    lift_cosplit(m, section)


def test_separability_witness_is_normalized():
    m = trivial_bimodule(F3, 2)
    tower = bimodule_tower(m)
    nu = is_separable_bimodule(m)
    s = split_from_separability(m, nu)
    assert np.array_equal(F3.matmul(s.matrix, tower.end.algebra.unit),
                          m.left_alg.unit)


def test_cointegral_from_half_trace_splitting_over_q():
    # nu(1) = (e_1 (x) e_1^* + e_2 (x) e_2^*) / 2 gives the halved pairing
    m = trivial_bimodule(QQ, 2)
    ld = left_dual(m)
    ts = tensor_over(m, ld)
    half = Fraction(1, 2)
    one = QQ.eye(2)
    target = half * (ts.pure(one[:, 0], one[:, 0]) + ts.pure(one[:, 1], one[:, 1]))
    nu = BimoduleMap(regular_bimodule(m.left_alg), ts.space, target[:, None])
    ci = cointegral_from_separability(m, nu)
    # frozen oracle: gamma(c_ij (x) c_kl) = delta_jk delta_il / 2
    g3 = expand(ci.coring, ci.f_mat[None]).reshape(1, 4, 4)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    expected = half if (j == k and i == l) else Fraction(0)
                    assert g3[0, i * 2 + j, k * 2 + l] == expected


def test_cointegral_from_solver_splitting_f2():
    m = trivial_bimodule(F2, 2)
    nu = is_separable_bimodule(m)
    cointegral_from_separability(m, nu)  # raises unless it verifies


def test_lift_cointegral_trivial_module():
    m = trivial_bimodule(F2, 1)
    nu = is_separable_bimodule(m)
    ci = cointegral_from_separability(m, nu)
    lift_cointegral(m, ci)  # raises unless it verifies


def test_lift_cointegral_k2_over_f3():
    m = trivial_bimodule(F3, 2)
    nu = is_separable_bimodule(m)
    ci = cointegral_from_separability(m, nu)
    lift_cointegral(m, ci)  # raises unless it verifies


def test_lift_cointegral_product_field_module():
    m = product_field_module(F2)
    nu = is_separable_bimodule(m)
    ci = cointegral_from_separability(m, nu)
    lift_cointegral(m, ci)


# ------------------------------------------ cointegrals as maps f: S -> S


def _corpus_module(label):
    """'bundled/<file>/<bimodule>/<p>' re-declared over GF(p), 'k^<n>/<p>',
    or 'recipe/<seed>' from the acceptance generator."""
    kind, _, rest = label.partition("/")
    if kind == "bundled":
        fname, name, char = rest.split("/")
        doc = json.loads(bundled_path(fname).read_text(encoding="utf-8"))
        doc["field"]["characteristic"] = int(char)
        return loads(json.dumps(doc)).bimodules[name]
    if kind == "recipe":
        return random_projective_bimodule(int(rest))
    n, char = kind[2:], rest
    return trivial_bimodule(GF(int(char)), int(n))


BUNDLED_MODULES = ["matrix2/M", "dual-numbers/M", "product-field/M", "morita-rows-cols/cols",
                   "morita-rows-cols/rows", "regular-module/M"]


@pytest.mark.parametrize("label", [f"bundled/{b}/{p}" for b in BUNDLED_MODULES for p in (2, 3)]
                         + ["recipe/1", "recipe/3", "recipe/6"])
def test_map_of_the_comatrix_expansion_is_the_map(label):
    """f_{gamma_f} = f for every B-bimodule map f: S -> S, checked on a basis
    of those maps and on a random combination of it."""
    m = _corpus_module(label)
    f = m.field
    tower = bimodule_tower(m)
    s_bb = target_bb(tower.b_to_s)
    actions = list(s_bb.left_mats) + list(s_bb.right_mats)
    basis = intertwiners(f, actions, actions)
    rng = np.random.default_rng(7)
    for f_mat in basis + [_combination(f, f.random(rng, len(basis)), basis)]:
        c = tower.comatrix.coring
        assert np.array_equal(f_of(c, expand(c, f_mat[None]))[0], f_mat)


def _sweedler_reference(tower, f_mat):
    """gamma~_f((a (x) x) (x) (y (x) b)) = a f(xy) b on basis quadruples,
    read through the section of the Sweedler carrier on both legs."""
    f = tower.module.field
    s_alg = tower.end.algebra
    n = s_alg.dim
    eye = f.eye(n)
    quad = f.zeros((n, n * n, n * n))
    for a, x, y, b in itertools.product(range(n), repeat=4):
        middle = f.matmul(f_mat, s_alg.mult(eye[:, x], eye[:, y]))
        quad[:, a * n + x, y * n + b] = s_alg.mult(s_alg.mult(eye[:, a], middle), eye[:, b])
    sec = section_matrix(tower.sweedler.carrier_tensor)
    return np.stack([f.matmul(f.matmul(sec.T, quad[t]), sec).reshape(-1) for t in range(n)])


# the separable modules among the bundled ones, k^1, k^2 and the acceptance
# recipes whose analysis completes (recipes 1, 4 and 11 are not separable)
SEPARABLE_CORPUS = ([f"bundled/{b}/{p}" for b in BUNDLED_MODULES if b != "dual-numbers/M"
                     for p in (2, 3)]
                    + [f"k^{n}/{p}" for n in (1, 2) for p in (2, 3)]
                    + [f"recipe/{seed}" for seed in (3, 5, 6, 10)])


@pytest.mark.parametrize("label", SEPARABLE_CORPUS)
def test_lifted_constructed_cointegral_is_the_sweedler_expansion(label):
    """The lift of the cointegral built from a separability splitting is
    gamma~_f for f = (B -> S) o s, s the split-extension witness."""
    m = _corpus_module(label)
    nu = is_separable_bimodule(m)
    assert nu is not None
    tower = bimodule_tower(m)
    lifted = lift_cointegral(m, cointegral_from_separability(m, nu))
    f_mat = m.field.matmul(tower.b_to_s.matrix, split_from_separability(m, nu).matrix)
    assert np.array_equal(expand(lifted.coring, lifted.f_mat[None])[0],
                          _sweedler_reference(tower, f_mat))


# --------------------------------------------------------------- iota and fs


def test_iota_trivial():
    m = trivial_bimodule(F2, 1)
    theta = is_frobenius_bimodule(m).map
    assert iota_from_frobenius(m, theta).tolist() == [[1]]


def test_iota_k2():
    m = trivial_bimodule(F2, 2)
    theta = is_frobenius_bimodule(m).map
    assert iota_from_frobenius(m, theta).shape == (4, 4)


def test_iota_regular_module():
    m = regular_bimodule(dual_numbers(F2))
    theta = is_frobenius_bimodule(m, seed=2).map
    iota_from_frobenius(m, theta)


def test_lift_frobenius_system_trivial():
    m = trivial_bimodule(F2, 1)
    tower = bimodule_tower(m)
    fs = find_frobenius_system(tower.comatrix.coring, seed=0)
    lifted = lift_frobenius_system(m, fs.system)
    assert verify_frobenius_system(lifted)


def test_lift_frobenius_system_k2():
    m = trivial_bimodule(F2, 2)
    tower = bimodule_tower(m)
    fs = find_frobenius_system(tower.comatrix.coring, seed=0)
    assert fs.found
    lifted = lift_frobenius_system(m, fs.system)
    assert verify_frobenius_system(lifted)


def test_lift_frobenius_system_product_field_module():
    m = product_field_module(F2)
    tower = bimodule_tower(m)
    fs = find_frobenius_system(tower.comatrix.coring, seed=0)
    assert fs.found
    lifted = lift_frobenius_system(m, fs.system)
    assert verify_frobenius_system(lifted)


# ------------------------------------------------------------ flat, williard


def test_identity_extension_is_faithfully_flat():
    b = dual_numbers(F2)
    ident = AlgebraMap(b, b, F2.eye(2))
    assert faithfully_flat_check(ident, "left")
    assert faithfully_flat_check(ident, "right")


def test_quotient_extension_is_not_flat():
    b = dual_numbers(F2)
    k = field_algebra(F2)
    quotient = AlgebraMap(b, k, [[1, 0]])
    assert not faithfully_flat_check(quotient, "left")
    assert not faithfully_flat_check(quotient, "right")


def test_matrix_algebra_over_field_is_faithfully_flat():
    k = field_algebra(F2)
    m2 = matrix_algebra(2, F2)
    unit_col = F2.asarray(m2.unit)[:, None]
    assert faithfully_flat_check(AlgebraMap(k, m2, unit_col), "left")
    assert faithfully_flat_check(AlgebraMap(k, m2, unit_col), "right")


def test_williard_generator_fast_path():
    assert williard_check(trivial_bimodule(F2, 3)).found
    assert williard_check(regular_bimodule(dual_numbers(F2))).found


def test_williard_for_non_generator_summand():
    result = williard_check(non_generator_summand(F2), seed=0)
    assert result.status == "found"


def test_faithful_flatness_reads_the_memoized_duals(monkeypatch):
    """Once the dual bases of S on both sides are built, neither side of
    the flatness check solves another system of maps."""
    checks = []
    for name in ("dual-numbers", "matrix2", "morita-rows-cols", "product-field",
                 "regular-module"):
        for m in load(bundled_path(name)).bimodules.values():
            b_to_s = bimodule_tower(m).b_to_s
            dual_basis(target_sb(b_to_s))
            left_dual_basis(target_bs(b_to_s))
            checks.append(b_to_s)

    def refuse(*args):
        raise AssertionError("faithfully_flat_check solved for maps again")

    monkeypatch.setattr(bimodule_module, "intertwiners", refuse)
    flat = [faithfully_flat_check(b_to_s, side) for b_to_s in checks for side in ("left", "right")]
    assert any(flat) and not all(flat)


# ------------------------------------------------------------------ analyze


@pytest.mark.parametrize("false_flag", ["mstar_separable", "comatrix_cosplit"])
def test_audit_rejects_a_separable_dual_that_disagrees_with_cosplitness(false_flag):
    flags = dict.fromkeys(FLAG_NAMES, True)
    flags[false_flag] = False
    with pytest.raises(InternalInconsistencyError, match="dual_separable_iff_cosplit"):
        _audit(flags)


def test_audit_names_the_violated_rule_and_its_flags():
    flags = dict.fromkeys(FLAG_NAMES, True)
    flags["sweedler_cosplit"] = False
    with pytest.raises(InternalInconsistencyError, match=re.escape(
            "proven implication cosplit_descends_to_sweedler violated: "
            "['comatrix_cosplit'] -> sweedler_cosplit")):
        _audit(flags)
    flags = {**dict.fromkeys(FLAG_NAMES), "m_separable": False, "extension_split": True}
    with pytest.raises(InternalInconsistencyError, match=re.escape(
            "proven equivalence sugano_split_extension violated: "
            "m_separable=False but extension_split=True")):
        _audit(flags)
    flags = {**dict.fromkeys(FLAG_NAMES, True), "m_frobenius": None,
             "b_s_faithfully_flat": False}
    entries = {e.rule: (e.kind, e.hypotheses, e.conclusion, e.status) for e in _audit(flags)}
    assert len(entries) == 13
    assert entries["frobenius_from_bimodule"] == (
        "implication", ["m_frobenius"], "comatrix_frobenius", "skipped_inconclusive")
    assert entries["sugano_split_extension"] == (
        "equivalence", ["m_separable"], "extension_split", "holds")
    assert entries["ff_separable_iff_sweedler_coseparable"] == (
        "equivalence", ["m_separable", "b_s_faithfully_flat"], "sweedler_coseparable", "vacuous")


@pytest.mark.parametrize("char", [2, 0], ids=["GF(2)", "QQ"])
def test_analyze_rejects_a_negative_seed(char):
    # both fields: over QQ the searches draw from numpy's generator, which
    # refuses a negative seed, and over GF(2) they may enumerate and never draw
    m = bundled_over("matrix2", char).bimodules["M"]
    with pytest.raises(CoringLabError, match="seed must be non-negative"):
        analyze(m, seed=-1)
    assert analyze(m, seed=0).flags == analyze(m, seed=1).flags


def test_analyze_k2_all_flags_true():
    report = analyze(trivial_bimodule(F2, 2), seed=0)
    for name, value in report.flags.items():
        assert value is True, f"{name} should be true, got {value}"
    assert all(e.status in {"holds", "vacuous"} for e in report.implication_audit)
    # each witness once: the twelve flags' witnesses but williard's, which
    # the generator test decides; no transported copy
    assert set(report.witnesses) == set(WITNESS_PARTS) - {"williard"}


def test_analyze_point_module_matches_the_converse_failure_pattern():
    report = analyze(point_module_over_dual_numbers(F2), seed=0)
    assert report.flags["m_separable"] is False
    assert report.flags["comatrix_coseparable"] is True
    assert report.flags["b_s_faithfully_flat"] is False
    assert report.flags["extension_split"] is False
    assert report.flags["m_frobenius"] is False
    # no implication fires without its hypotheses: the audit stays clean
    assert all(e.status in {"holds", "vacuous", "skipped_inconclusive"}
               for e in report.implication_audit)


def test_analyze_trivial_module_everything_true():
    report = analyze(trivial_bimodule(F2, 1), seed=0)
    assert all(v is True for v in report.flags.values())


def test_analyze_rows_module():
    report = analyze(row_module(F2), seed=0)
    assert report.flags["m_separable"] is True
    assert report.flags["comatrix_cosplit"] is True
    assert all(e.status in {"holds", "vacuous", "skipped_inconclusive"}
               for e in report.implication_audit)


def test_analyze_product_field_module():
    report = analyze(product_field_module(F2), seed=0)
    assert report.flags["m_separable"] is True
    assert report.flags["extension_split"] is True
    assert report.flags["sweedler_coseparable"] is True


# ----------------------------------------------------- per-bimodule memo


MEMOIZED = (right_dual, left_dual, dual_basis, left_dual_basis, endomorphism_algebra,
            left_endomorphism_algebra, comatrix_data, canonical_s_iso, bimodule_tower)


def test_analyze_runs_each_memoized_body_once_per_module(monkeypatch):
    runs = count_memo_bodies(monkeypatch, *MEMOIZED)
    m = trivial_bimodule(F2, 2)
    analyze(m, seed=0)
    per_module = Counter((name, id(module)) for name, module in runs)
    assert set(per_module.values()) == {1}
    # every body runs on M itself but the left endomorphisms', which only
    # the transport iota_from_frobenius reads, and analyze runs no transport
    assert {name for name, module in runs if module is m} == (
        {fn.__name__ for fn in MEMOIZED} - {"left_endomorphism_algebra"})


def test_analyze_builds_each_restriction_of_s_once(monkeypatch):
    runs = count_memo_bodies(monkeypatch, right_dual, target_sb, target_bs, target_bb)
    m = load(bundled_path("dual-numbers")).bimodules["M"]
    analyze(m, seed=0)
    b_to_s = endomorphism_algebra(m).b_to_s
    restrictions = Counter(name for name, arg in runs if arg is b_to_s)
    assert restrictions == {"target_sb": 1, "target_bs": 1, "target_bb": 1}
    # dual-numbers is not flat on the left, so both flatness sides run
    s_b = [mod for name, mod in runs if name == "right_dual"
           and mod.left_alg is b_to_s.target and mod.right_alg is b_to_s.source]
    assert len(s_b) == 1


@pytest.mark.parametrize("name", ["dual-numbers", "matrix2"])
def test_analyze_checks_each_algebra_map_once(name, monkeypatch):
    """End, the restrictions to S and the Sweedler coring all check their
    map; the check runs once per map."""
    runs = count_memo_bodies(monkeypatch, check_algebra_map)
    analyze(load(bundled_path(name)).bimodules["M"], seed=0)
    per_map = Counter(id(f) for _, f in runs)
    assert per_map and set(per_map.values()) == {1}


def test_an_analysed_bimodule_is_freed():
    m = trivial_bimodule(F2, 2)
    report = analyze(m, seed=0)
    ref = weakref.ref(m)
    del m, report
    gc.collect()
    assert ref() is None

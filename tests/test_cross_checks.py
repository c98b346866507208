"""Cross-route consistency: independent criteria must agree.

The Frobenius solver has two routes (reduced-system enumeration and the
dual-ring isomorphism criterion); the hom-comparison check has a
generator shortcut and a direct isomorphism search.  Each pair is run on
instances where the other route already fixed the answer.
"""

import numpy as np

from coring_lab import GF
from coring_lab.algebra import AlgebraMap
from coring_lab.coring import (
    _frobenius_via_dual_ring_iso,
    coring_bimodules_over_dual_ring,
    find_frobenius_system,
    sweedler_coring,
    verify_frobenius_system,
)
from coring_lab.structure import williard_check

from conftest import (
    dual_numbers,
    field_algebra,
    matrix_coring,
    trivial_bimodule,
    trivial_coring,
    upper_triangular_2,
)

F2 = GF(2)
F3 = GF(3)


def test_dual_ring_iso_route_agrees_on_frobenius_corings():
    for coring in [trivial_coring(field_algebra(F2)),
                   trivial_coring(dual_numbers(F3)),
                   matrix_coring(2, F2),
                   matrix_coring(2, F3)]:
        enumerated = find_frobenius_system(coring, seed=0)
        assert enumerated.found
        via_iso = _frobenius_via_dual_ring_iso(coring, seed=0)
        assert via_iso.found
        assert verify_frobenius_system(via_iso.system)


def test_dual_ring_iso_route_agrees_on_the_negative():
    k = field_algebra(F2)
    t2 = upper_triangular_2(F2)
    embed = F2.zeros((3, 1))
    embed[0, 0] = 1
    embed[2, 0] = 1
    coring = sweedler_coring(AlgebraMap(k, t2, embed))
    assert find_frobenius_system(coring, seed=0).status == "none"
    assert _frobenius_via_dual_ring_iso(coring, seed=0).status == "none"


def test_dual_ring_bimodule_structures_validate():
    c = matrix_coring(2, F3)
    c_mod, r_mod, ldual, r_alg = coring_bimodules_over_dual_ring(c)
    c_mod.validate()
    r_mod.validate()
    assert r_alg.dim == ldual.dim == c.dim


def test_williard_direct_route_agrees_with_generator_shortcut(monkeypatch):
    import coring_lab.structure as st

    m = trivial_bimodule(F2, 2)
    assert williard_check(m, seed=0).found  # shortcut fires
    monkeypatch.setattr(st, "_generates", lambda *_: False)
    direct = st.williard_check(m, seed=0)
    assert direct.found
    assert direct.map is not None


def test_separability_of_dual_route_matches_matrix_coring_sections():
    # the two sides of the cosplit equivalence computed through completely
    # different solvers on a field where scaling matters
    from coring_lab.bimodule import right_dual
    from coring_lab.comatrix import comatrix_coring
    from coring_lab.coring import is_cosplit
    from coring_lab.structure import is_separable_bimodule

    for dim in (1, 2, 3):
        m = trivial_bimodule(F3, dim)
        nu = is_separable_bimodule(right_dual(m))
        section = is_cosplit(comatrix_coring(m))
        assert (nu is None) == (section is None)
        assert section is not None

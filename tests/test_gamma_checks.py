"""The checks of a map gamma: C (x)_A C -> A in f-coordinates
(``coring.verify_cointegral``, ``coring.verify_frobenius_system``), on the f
that ``gamma_oracle.f_of_gamma`` reads from gamma, give the verdicts of the dense
oracle of ``gamma_oracle`` on the field tensor square, and the Frobenius
normalizations on f are the dense contractions of gamma_f with e.

The corings are the comatrix and Sweedler corings of the modules of the
analyze-fp benchmark workload at seed 0 with carriers up to dimension 32, and
of the bundled files over QQ.  The candidates are the found cointegrals and
Frobenius systems, one-entry tampers of them, the expansions of a basis of
End_{B-B}(P) and of one map of P that is not B-linear, and each found
Frobenius gamma with each basis element of the central subspace.
"""

import numpy as np
import pytest

from coring_lab import GF, QQ, coring as coring_module
from coring_lab.coring import (
    Cointegral,
    Coring,
    FrobeniusSystem,
    _endomorphisms,
    _is_precointegral,
    central_subspace,
    find_cointegral,
    find_frobenius_system,
    left_dual_ring,
    verify_cointegral,
    verify_frobenius_system,
)
from coring_lab.errors import InternalInconsistencyError
from coring_lab.structure import analyze, bimodule_tower

from conftest import bundled_over, matrix_coring, trivial_bimodule
from gamma_oracle import (
    expand,
    f_of,
    f_of_gamma,
    is_cointegral,
    is_frobenius_system,
    is_precointegral,
    map_of_gamma,
)
from random_modules import random_projective_bimodule

F2, F3 = GF(2), GF(3)
BUNDLED = [("matrix2", "M"), ("dual-numbers", "M"), ("product-field", "M"),
           ("morita-rows-cols", "cols"), ("morita-rows-cols", "rows"), ("regular-module", "M")]

# the modules of the analyze-fp benchmark workload at seed 0, and the bundled
# modules over QQ
MODULES = {
    **{f"bundled/{char}/{name}/{mod}": (lambda name=name, mod=mod, char=char:
                                        bundled_over(name, char).bimodules[mod])
       for char in (2, 3, 0) for name, mod in BUNDLED},
    **{f"ladder/{f.characteristic}/k^{n}": (lambda f=f, n=n: trivial_bimodule(f, n))
       for f in (F2, F3) for n in (1, 2, 3, 4)},
    **{f"recipe/{i}": (lambda i=i: random_projective_bimodule(i)) for i in range(12)},
}


def bump(field, gamma, index):
    """gamma with the entry at flat ``index`` raised by one."""
    tampered = gamma.copy()
    tampered.reshape(-1)[index] = field.asarray([tampered.reshape(-1)[index] + 1])[0]
    return field.asarray(tampered)


def candidates(c, expansions):
    """(gamma, invariant or None) pairs: the found witnesses, a tamper of each
    at its first entry, its last and one chosen at random, the found
    Frobenius gamma with each central basis element, the given expansions and
    the expansion of a map of P that is not B-linear."""
    f = c.field
    rng = np.random.default_rng(c.dim)
    found = []
    ci = find_cointegral(c)
    if ci is not None:
        found.append((expand(c, ci.f_mat[None])[0], None))
    search = find_frobenius_system(c, seed=0)
    if search.found:
        found.append((expand(c, search.system.f_mat[None])[0], search.system.invariant))
    out = list(found)
    for gamma, e in found:
        for index in (0, gamma.size - 1, int(rng.integers(gamma.size))):
            out.append((bump(f, gamma, index), e))
    if search.found:
        out += [(found[-1][0], z) for z in central_subspace(c)]
    q = c.middle.space.dim
    arbitrary = expand(c, f.asarray(rng.integers(0, 5, size=(1, q, q))))
    return out + [(gamma, None) for gamma in np.concatenate([expansions, arbitrary])]


@pytest.mark.parametrize("case", sorted(MODULES))
def test_f_coordinate_checks_give_the_dense_verdicts(case):
    tower = bimodule_tower(MODULES[case]())
    rejected = 0
    for c in (tower.comatrix.coring, tower.sweedler):
        if c.dim > 32:
            continue
        # f_of inverts the expansion on End_{B-B}(P), and on the comatrix
        # coring it is the map read through omega and the dual basis
        homs = _endomorphisms(c.middle.space)
        expansions = expand(c, homs)
        assert np.array_equal(f_of(c, expansions), homs)
        if c is tower.comatrix.coring:
            assert all(np.array_equal(map_of_gamma(tower, g), h)
                       for g, h in zip(expansions, homs))
        for gamma, e in candidates(c, expansions):
            dense = is_cointegral(c, gamma)
            f_mat = f_of_gamma(c, gamma)
            assert (f_mat is not None and verify_cointegral(Cointegral(c, f_mat))) == dense
            assert ((f_mat is not None and _is_precointegral(c, f_mat))
                    == is_precointegral(c, gamma))
            if e is not None:
                assert ((f_mat is not None
                         and verify_frobenius_system(FrobeniusSystem(c, f_mat, e)))
                        == is_frobenius_system(c, gamma, e))
            rejected += not dense
    assert rejected


@pytest.mark.parametrize("case", sorted(MODULES))
def test_normalizations_on_f_are_the_dense_contractions(case):
    """gamma_f(n (x) m (x) e) and gamma_f(e (x) n (x) m) from
    ``Coring.normalizations`` equal the contractions of the expansion gamma_f
    with e on the field tensor square, for f on the basis of End_{B-B}(P) and
    e on the basis of the central subspace."""
    tower = bimodule_tower(MODULES[case]())
    for c in (tower.comatrix.coring, tower.sweedler):
        if c.dim > 32 or not central_subspace(c):
            continue
        f = c.field
        homs = _endomorphisms(c.middle.space)
        invariants = np.stack(central_subspace(c))
        norms = c.normalizations(homs, invariants)  # (k, j, 2, a', n, m)
        g3 = expand(c, homs).reshape(len(homs), c.base.dim, c.dim, c.dim)
        for k, e in enumerate(invariants):
            for side, axis in enumerate((3, 2)):  # gamma(c (x) e), gamma(e (x) c)
                dense = f.tensordot(g3, e, ([axis], [0]))  # (j, a', c)
                on_pairs = f.tensordot(dense, c.carrier_tensor.projection, ([2], [0]))
                assert np.array_equal(norms[k, :, side].reshape(on_pairs.shape), on_pairs)


@pytest.mark.parametrize("char", [2, 3])
def test_deciders_never_read_back_a_gamma(char):
    """find_cointegral and find_frobenius_system work on f alone: the
    library has no read-back of a gamma on the field tensor square and no
    expansion of f, and the deciders decide both corings of the bundled
    modules as ``analyze`` does."""
    assert not hasattr(Coring, "f_of")
    assert not hasattr(Coring, "expand")
    flags = {(name, mod): analyze(bundled_over(name, char).bimodules[mod], seed=0).flags
             for name, mod in BUNDLED}
    for name, mod in BUNDLED:
        tower, expected = bimodule_tower(bundled_over(name, char).bimodules[mod]), flags[name, mod]
        for which, c in (("comatrix", tower.comatrix.coring), ("sweedler", tower.sweedler)):
            assert (find_cointegral(c) is not None) == expected[f"{which}_coseparable"]
            assert find_frobenius_system(c, seed=0).found == expected[f"{which}_frobenius"]


@pytest.mark.parametrize("char", [2, 3])
def test_analyze_never_builds_the_representative_coproduct(char):
    for name, mod in BUNDLED:
        m = bundled_over(name, char).bimodules[mod]
        analyze(m, seed=0)
        tower = bimodule_tower(m)
        for c in (tower.comatrix.coring, tower.sweedler):
            assert not hasattr(c, "delta_amb"), (name, mod)


@pytest.mark.parametrize("name,mod", BUNDLED)
def test_the_dual_ring_route_never_builds_the_representative_coproduct(name, mod,
                                                                        monkeypatch):
    """Over QQ, with the Frobenius search sent to the dual-ring route, the
    left dual ring and its bimodules apply the coproduct leg by leg."""
    monkeypatch.setattr(coring_module, "_FROBENIUS_ENUMERATION_BUDGET", 0)
    monkeypatch.setattr(coring_module, "_FROBENIUS_RANDOM_ATTEMPTS", 0)
    routed = []
    via_dual_ring = coring_module._frobenius_via_dual_ring_iso

    def recording(c, seed):
        routed.append(c)
        return via_dual_ring(c, seed)

    monkeypatch.setattr(coring_module, "_frobenius_via_dual_ring_iso", recording)
    m = bundled_over(name, 0).bimodules[mod]
    analyze(m, seed=0)
    tower = bimodule_tower(m)
    assert routed
    for c in (tower.comatrix.coring, tower.sweedler):
        left_dual_ring(c)
        assert not hasattr(c, "delta_amb")



@pytest.mark.parametrize("char", [2, 3, 0])
def test_the_dual_ring_f_is_the_f_of_its_gamma(char, monkeypatch):
    """The f that the dual-ring route reads off an isomorphism phi: C -> R is
    the oracle's f_gamma of gamma(c (x) c') = phi(c')(c), written on the
    field tensor square, for both corings of every bundled module."""
    found = []
    search = coring_module.random_bimodule_iso

    def recording(*args, **kwargs):
        found.append(search(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(coring_module, "random_bimodule_iso", recording)
    for name, mod in BUNDLED:
        tower = bimodule_tower(bundled_over(name, char).bimodules[mod])
        for c in (tower.comatrix.coring, tower.sweedler):
            f = c.field
            result = coring_module._frobenius_via_dual_ring_iso(c, 0)
            assert result.found, (name, mod)
            mats = np.stack(left_dual_ring(c).functional_mats)
            gamma = f.tensordot(found[-1].map.matrix, mats, ([0], [0])).transpose(1, 2, 0)
            expected = f_of(c, gamma.reshape(1, c.base.dim, c.dim * c.dim))[0]
            assert result.system.f_mat.dtype == expected.dtype
            assert np.array_equal(result.system.f_mat, expected)


def test_a_dual_ring_system_that_fails_verification_is_an_internal_error(monkeypatch):
    """Where the functionals of *C separate the points of C, the system of a
    dual-ring isomorphism is proven Frobenius, so a failed verification is an
    internal error; where they do not, the route is inconclusive."""
    c = matrix_coring(2, QQ)
    monkeypatch.setattr(coring_module, "verify_frobenius_system", lambda fs: False)
    with pytest.raises(InternalInconsistencyError, match="fails verification"):
        coring_module._frobenius_via_dual_ring_iso(c, 0)
    monkeypatch.setattr(coring_module, "rank", lambda field, a: 0)
    assert coring_module._frobenius_via_dual_ring_iso(c, 0).status == "inconclusive"

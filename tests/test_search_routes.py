"""The search routes the corpus never takes, pinned to their outcomes.

On the bundled files and the benchmark cases every central subspace and
hom space is small enough to enumerate, so the random route of
``find_frobenius_system``, its dual-ring fallback and the random route of
``random_bimodule_iso`` never run.  These tests force each route by
lowering the budget and attempt constants, and pin the status and the
sha256 of the witness entries of every outcome.  The pins were recorded
before both searches were folded into ``bimodule.span_search``.  The direct
route of ``williard_check``, past its generator shortcut, is checked against
a hand-built Hom_S(M, S) on every module here.
"""

import functools
import hashlib
import json

import pytest

from coring_lab import GF, QQ, bimodule as bimodule_module, coring as coring_module
from coring_lab import structure as structure_module
from coring_lab.bimodule import (
    Bimodule,
    _induced_action,
    left_dual,
    one_sided_hom,
    random_bimodule_iso,
    regular_bimodule,
    right_dual,
    target_bs,
    target_sb,
)
from coring_lab.cli import _serialize_array
from coring_lab.coring import central_subspace, find_frobenius_system
from coring_lab.fields import Field
from coring_lab.structure import bimodule_tower

from conftest import (
    bundled_over,
    dual_numbers,
    field_algebra,
    matrix_coring,
    non_generator_summand,
    trivial_bimodule,
)
from gamma_oracle import expand
from random_modules import random_projective_bimodule

FIELDS = {"gf2": GF(2), "gf3": GF(3), "QQ": QQ}
BUNDLED = [("dual-numbers", "M"), ("matrix2", "M"), ("morita-rows-cols", "cols"),
           ("morita-rows-cols", "rows"), ("product-field", "M"), ("regular-module", "M")]


def regular_and_semisimple(field):
    """k[x]/(x^2) and k + k as right modules over it: a nonzero hom space
    that holds no isomorphism."""
    k, d = field_algebra(field), dual_numbers(field)
    lam = field.eye(2)[None]
    semisimple = field.zeros((2, 2, 2))
    semisimple[:, 0, :] = field.eye(2)  # 1 acts as the identity, x as 0
    return (Bimodule(k, d, lam, d.structure, name="D"),
            Bimodule(k, d, lam, semisimple, name="k+k"))


MODULES = {
    **{f"{name}/{bim}/gf{char}": (lambda name=name, bim=bim, char=char:
                                  bundled_over(name, char).bimodules[bim])
       for name, bim in BUNDLED for char in (2, 3)},
    **{f"k^2/{key}": (lambda key=key: trivial_bimodule(FIELDS[key], 2)) for key in FIELDS},
    **{f"recipe/{i}/gf{char}": (lambda i=i: random_projective_bimodule(i))
       for i, char in ((1, 2), (3, 3), (6, 2))},
    "regular-module/M/QQ": lambda: bundled_over("regular-module", 0).bimodules["M"],
}


@functools.cache
def module(key):
    return MODULES[key]()


@functools.cache
def coring(key):
    if key.startswith("matrix/"):
        return matrix_coring(2, FIELDS[key.split("/")[1]])
    base, which = key.rsplit("/", 1)
    tower = bimodule_tower(module(base))
    return tower.comatrix.coring if which == "comatrix" else tower.sweedler


def digest(field, *arrays) -> str:
    """sha256 of the witness entries as a report serialized them, with each
    Frobenius gamma on the field tensor square (``gamma_oracle.expand``)."""
    text = json.dumps([_serialize_array(field, a) for a in arrays])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def frobenius_outcome(key, seed):
    search = find_frobenius_system(coring(key), seed=seed)
    if search.system is None:
        return search.status, None
    c = coring(key)
    return search.status, digest(c.field, expand(c, search.system.f_mat[None])[0],
                                 search.system.invariant)


def iso_pair(key):
    """The isomorphism search of m_frobenius or extension_frobenius on one
    module, or the pair with no isomorphism over one field."""
    if key.startswith("not-iso/"):
        return regular_and_semisimple(FIELDS[key.split("/")[1]])
    base, kind = key.rsplit("/", 1)
    m = module(base)
    if kind == "m_frobenius":
        return right_dual(m), left_dual(m)
    s_map = bimodule_tower(m).b_to_s
    return right_dual(target_sb(s_map)), target_bs(s_map)


def iso_outcome(key, seed):
    src, tgt = iso_pair(key)
    search = random_bimodule_iso(src, tgt, seed=seed)
    return search.status, None if search.map is None else digest(src.field, search.map.matrix)


def pinned(route, field_key=None):
    """{(seed, key): outcome} of the pins of one route."""
    out = {}
    for name, outcome in PINS.items():
        parts = name.split("/")
        if parts[0] == route and (field_key is None or field_key in parts):
            out[int(parts[1]), "/".join(parts[2:])] = outcome
    return out


def counting(monkeypatch, module_obj, name):
    calls = []
    original = getattr(module_obj, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module_obj, name, counted)
    return calls


def searched(key):
    """Whether find_frobenius_system gets past its exact early exits."""
    c = coring(key)
    return bool(central_subspace(c)) and len(c.precointegrals) > 0


def test_frobenius_random_route(monkeypatch):
    monkeypatch.setattr(coring_module, "_FROBENIUS_ENUMERATION_BUDGET", 0)
    calls = counting(monkeypatch, coring_module, "span_search")
    expected = pinned("random")
    assert {sk: frobenius_outcome(sk[1], sk[0]) for sk in expected} == expected
    assert len(calls) == sum(searched(key) for _, key in expected)


def test_frobenius_dual_ring_fallback(monkeypatch):
    monkeypatch.setattr(coring_module, "_FROBENIUS_ENUMERATION_BUDGET", 0)
    monkeypatch.setattr(coring_module, "_FROBENIUS_RANDOM_ATTEMPTS", 0)
    calls = counting(monkeypatch, coring_module, "_frobenius_via_dual_ring_iso")
    expected = pinned("dual-ring")
    assert {sk: frobenius_outcome(sk[1], sk[0]) for sk in expected} == expected
    assert len(calls) == sum(searched(key) for _, key in expected)


@pytest.mark.parametrize("field_key", sorted(FIELDS))
def test_iso_random_route(monkeypatch, field_key):
    monkeypatch.setattr(bimodule_module, "_ISO_ENUMERATION_BUDGET", 0)
    calls = counting(monkeypatch, bimodule_module, "span_search")
    expected = pinned("iso", field_key)
    assert {sk: iso_outcome(sk[1], sk[0]) for sk in expected} == expected
    assert len(calls) == len(expected)  # every pinned search passed the identity try
    assert {outcome[0] for outcome in expected.values()} == {"found", "inconclusive"}


def hand_built_hom_s(m):
    """Hom_S(M, S) for S = End_A(M), solved for directly as the reference of
    the left-dual route: the left S-linear maps M -> S, with
    (a.g)(x) = g(x.a) and b acting by right multiplication with its image in S."""
    tower = bimodule_tower(m)
    f, s_alg = m.field, tower.end.algebra
    mats = one_sided_hom(tower.end.module_as_s_bimodule, regular_bimodule(s_alg), "left")
    b_imgs = [s_alg.right_mult_matrix(col) for col in tower.b_to_s.matrix.T]
    acts = _induced_action(f, mats, [[f.matmul(g, x) for g in mats] for x in m.right_mats]
                           + [[f.matmul(y, g) for g in mats] for y in b_imgs])
    a_dim = m.right_alg.dim
    return Bimodule(m.right_alg, m.left_alg, acts[:a_dim], acts[a_dim:].transpose(1, 0, 2))


@pytest.mark.parametrize("key", ["P1", *MODULES])
def test_williard_direct_route_matches_the_hand_built_hom_space(monkeypatch, key):
    """The direct route of williard_check, forced past the generator
    shortcut, searches from a Hom_S(M, S) with the action tensors of the
    hand-built one, and ends with the same status and map."""
    m = non_generator_summand(GF(2)) if key == "P1" else module(key)
    monkeypatch.setattr(structure_module, "_generates", lambda *_: False)
    searched_from = counting(monkeypatch, structure_module, "random_bimodule_iso")
    got = structure_module.williard_check(m, seed=0)
    oracle = hand_built_hom_s(m)
    [(hom_s, dual)] = [call[:2] for call in searched_from]
    assert dual is right_dual(m)
    assert Field.equal(hom_s.left_action, oracle.left_action)
    assert Field.equal(hom_s.right_action, oracle.right_action)
    want = random_bimodule_iso(oracle, right_dual(m), seed=0)
    assert got.status == want.status
    assert (got.map is None) == (want.map is None)
    if want.map is not None:
        assert Field.equal(got.map.matrix, want.map.matrix)


# "route/seed/key": (status, sha256 prefix of the witness entries or None)
PINS = {
    "dual-ring/0/dual-numbers/M/gf2/comatrix": ("found", "3229dc230d432437"),
    "dual-ring/0/dual-numbers/M/gf2/sweedler": ("found", "3229dc230d432437"),
    "dual-ring/0/dual-numbers/M/gf3/comatrix": ("found", "8ae64f0a8376ee9b"),
    "dual-ring/0/dual-numbers/M/gf3/sweedler": ("found", "8ae64f0a8376ee9b"),
    "dual-ring/0/k^2/gf2/comatrix": ("found", "f3205e6eada80d3c"),
    "dual-ring/0/k^2/gf2/sweedler": ("found", "8e812bbd1d078b3a"),
    "dual-ring/0/k^2/gf3/comatrix": ("found", "289e668d74d95048"),
    "dual-ring/0/k^2/gf3/sweedler": ("found", "4232874fe5623b8d"),
    "dual-ring/0/matrix/gf2": ("found", "f3205e6eada80d3c"),
    "dual-ring/0/matrix/gf3": ("found", "289e668d74d95048"),
    "dual-ring/0/matrix2/M/gf2/comatrix": ("found", "f3205e6eada80d3c"),
    "dual-ring/0/matrix2/M/gf2/sweedler": ("found", "8e812bbd1d078b3a"),
    "dual-ring/0/matrix2/M/gf3/comatrix": ("found", "289e668d74d95048"),
    "dual-ring/0/matrix2/M/gf3/sweedler": ("found", "4232874fe5623b8d"),
    "dual-ring/0/morita-rows-cols/cols/gf2/comatrix": ("found", "3229dc230d432437"),
    "dual-ring/0/morita-rows-cols/cols/gf2/sweedler": ("found", "07cc086e4109842a"),
    "dual-ring/0/morita-rows-cols/cols/gf3/comatrix": ("found", "8ae64f0a8376ee9b"),
    "dual-ring/0/morita-rows-cols/cols/gf3/sweedler": ("found", "5f206499a607344a"),
    "dual-ring/0/morita-rows-cols/rows/gf2/comatrix": ("found", "07cc086e4109842a"),
    "dual-ring/0/morita-rows-cols/rows/gf2/sweedler": ("found", "3229dc230d432437"),
    "dual-ring/0/morita-rows-cols/rows/gf3/comatrix": ("found", "5f206499a607344a"),
    "dual-ring/0/morita-rows-cols/rows/gf3/sweedler": ("found", "8ae64f0a8376ee9b"),
    "dual-ring/0/product-field/M/gf2/comatrix": ("found", "f0ed6ee339e03e5b"),
    "dual-ring/0/product-field/M/gf2/sweedler": ("found", "f0ed6ee339e03e5b"),
    "dual-ring/0/product-field/M/gf3/comatrix": ("found", "bace74e791634cea"),
    "dual-ring/0/product-field/M/gf3/sweedler": ("found", "bace74e791634cea"),
    "dual-ring/0/recipe/1/gf2/comatrix": ("none", None),
    "dual-ring/0/recipe/1/gf2/sweedler": ("none", None),
    "dual-ring/0/recipe/3/gf3/comatrix": ("found", "289e668d74d95048"),
    "dual-ring/0/recipe/3/gf3/sweedler": ("found", "4232874fe5623b8d"),
    "dual-ring/0/recipe/6/gf2/comatrix": ("found", "6ff22cf1c012085b"),
    "dual-ring/0/recipe/6/gf2/sweedler": ("found", "e9693d99193f7c9b"),
    "dual-ring/0/regular-module/M/gf2/comatrix": ("found", "354339ba21273dd0"),
    "dual-ring/0/regular-module/M/gf2/sweedler": ("found", "a374c47441005ceb"),
    "dual-ring/0/regular-module/M/gf3/comatrix": ("found", "80800233b14de2b4"),
    "dual-ring/0/regular-module/M/gf3/sweedler": ("found", "5f0d14febb183f96"),
    "iso/0/k^2/QQ/extension": ("found", "3482696ddd90c80a"),
    "iso/1/k^2/QQ/extension": ("found", "8d600235ab41433c"),
    "iso/0/k^2/gf2/extension": ("found", "2616f9839ff66ca7"),
    "iso/1/k^2/gf2/extension": ("found", "3fd957a981d0163d"),
    "iso/0/k^2/gf3/extension": ("found", "742e6ce35f4b6ebe"),
    "iso/1/k^2/gf3/extension": ("found", "1622a01e49a286cb"),
    "iso/0/matrix2/M/gf2/extension": ("found", "2616f9839ff66ca7"),
    "iso/1/matrix2/M/gf2/extension": ("found", "3fd957a981d0163d"),
    "iso/0/matrix2/M/gf3/extension": ("found", "742e6ce35f4b6ebe"),
    "iso/1/matrix2/M/gf3/extension": ("found", "1622a01e49a286cb"),
    "iso/0/not-iso/QQ": ("inconclusive", None),
    "iso/1/not-iso/QQ": ("inconclusive", None),
    "iso/0/not-iso/gf2": ("inconclusive", None),
    "iso/1/not-iso/gf2": ("inconclusive", None),
    "iso/0/not-iso/gf3": ("inconclusive", None),
    "iso/1/not-iso/gf3": ("inconclusive", None),
    "iso/0/recipe/1/gf2/extension": ("found", "c21567493bf6a321"),
    "iso/1/recipe/1/gf2/extension": ("found", "c21567493bf6a321"),
    "iso/0/recipe/1/gf2/m_frobenius": ("found", "dfd7ee9ec2b1c9ab"),
    "iso/1/recipe/1/gf2/m_frobenius": ("found", "dfd7ee9ec2b1c9ab"),
    "iso/0/recipe/3/gf3/extension": ("found", "742e6ce35f4b6ebe"),
    "iso/1/recipe/3/gf3/extension": ("found", "1622a01e49a286cb"),
    "iso/0/recipe/6/gf2/extension": ("found", "ff3a53d27af71b44"),
    "iso/1/recipe/6/gf2/extension": ("found", "ff3a53d27af71b44"),
    "iso/0/recipe/6/gf2/m_frobenius": ("found", "a2a799d24b9aa12a"),
    "iso/1/recipe/6/gf2/m_frobenius": ("found", "a2a799d24b9aa12a"),
    "iso/0/regular-module/M/QQ/extension": ("found", "ea94909982fdca81"),
    "iso/1/regular-module/M/QQ/extension": ("found", "59684903a48f2bda"),
    "iso/0/regular-module/M/gf2/extension": ("found", "509aafe3911d1f3c"),
    "iso/1/regular-module/M/gf2/extension": ("found", "bf9e93d6e4792812"),
    "iso/0/regular-module/M/gf3/extension": ("found", "5408b5d91c8db818"),
    "iso/1/regular-module/M/gf3/extension": ("found", "6b9d5b3cc57aa021"),
    "random/0/dual-numbers/M/gf2/comatrix": ("found", "3229dc230d432437"),
    "random/1/dual-numbers/M/gf2/comatrix": ("found", "3229dc230d432437"),
    "random/0/dual-numbers/M/gf2/sweedler": ("found", "3229dc230d432437"),
    "random/1/dual-numbers/M/gf2/sweedler": ("found", "3229dc230d432437"),
    "random/0/dual-numbers/M/gf3/comatrix": ("found", "74e10a0ea08accc0"),
    "random/1/dual-numbers/M/gf3/comatrix": ("found", "8ae64f0a8376ee9b"),
    "random/0/dual-numbers/M/gf3/sweedler": ("found", "74e10a0ea08accc0"),
    "random/1/dual-numbers/M/gf3/sweedler": ("found", "8ae64f0a8376ee9b"),
    "random/0/k^2/gf2/comatrix": ("found", "a0deef2aceff773c"),
    "random/1/k^2/gf2/comatrix": ("found", "2bf3c77d5e9e0dc5"),
    "random/0/k^2/gf2/sweedler": ("found", "850379bc4219a12f"),
    "random/1/k^2/gf2/sweedler": ("found", "fd9fbeea9502c325"),
    "random/0/k^2/gf3/comatrix": ("found", "bcb99d7e6edc2576"),
    "random/1/k^2/gf3/comatrix": ("found", "67a0b7824dcbd227"),
    "random/0/k^2/gf3/sweedler": ("found", "5bd5e3b853cc9fd5"),
    "random/1/k^2/gf3/sweedler": ("found", "b96717309eaa3edf"),
    "random/0/matrix/gf2": ("found", "a0deef2aceff773c"),
    "random/1/matrix/gf2": ("found", "2bf3c77d5e9e0dc5"),
    "random/0/matrix/gf3": ("found", "bcb99d7e6edc2576"),
    "random/1/matrix/gf3": ("found", "67a0b7824dcbd227"),
    "random/0/matrix2/M/gf2/comatrix": ("found", "a0deef2aceff773c"),
    "random/1/matrix2/M/gf2/comatrix": ("found", "2bf3c77d5e9e0dc5"),
    "random/0/matrix2/M/gf2/sweedler": ("found", "850379bc4219a12f"),
    "random/1/matrix2/M/gf2/sweedler": ("found", "fd9fbeea9502c325"),
    "random/0/matrix2/M/gf3/comatrix": ("found", "bcb99d7e6edc2576"),
    "random/1/matrix2/M/gf3/comatrix": ("found", "67a0b7824dcbd227"),
    "random/0/matrix2/M/gf3/sweedler": ("found", "5bd5e3b853cc9fd5"),
    "random/1/matrix2/M/gf3/sweedler": ("found", "b96717309eaa3edf"),
    "random/0/morita-rows-cols/cols/gf2/comatrix": ("found", "3229dc230d432437"),
    "random/1/morita-rows-cols/cols/gf2/comatrix": ("found", "3229dc230d432437"),
    "random/0/morita-rows-cols/cols/gf2/sweedler": ("found", "07cc086e4109842a"),
    "random/1/morita-rows-cols/cols/gf2/sweedler": ("found", "07cc086e4109842a"),
    "random/0/morita-rows-cols/cols/gf3/comatrix": ("found", "74e10a0ea08accc0"),
    "random/1/morita-rows-cols/cols/gf3/comatrix": ("found", "8ae64f0a8376ee9b"),
    "random/0/morita-rows-cols/cols/gf3/sweedler": ("found", "f1c69bee6021a03f"),
    "random/1/morita-rows-cols/cols/gf3/sweedler": ("found", "5f206499a607344a"),
    "random/0/morita-rows-cols/rows/gf2/comatrix": ("found", "07cc086e4109842a"),
    "random/1/morita-rows-cols/rows/gf2/comatrix": ("found", "07cc086e4109842a"),
    "random/0/morita-rows-cols/rows/gf2/sweedler": ("found", "3229dc230d432437"),
    "random/1/morita-rows-cols/rows/gf2/sweedler": ("found", "3229dc230d432437"),
    "random/0/morita-rows-cols/rows/gf3/comatrix": ("found", "f1c69bee6021a03f"),
    "random/1/morita-rows-cols/rows/gf3/comatrix": ("found", "5f206499a607344a"),
    "random/0/morita-rows-cols/rows/gf3/sweedler": ("found", "74e10a0ea08accc0"),
    "random/1/morita-rows-cols/rows/gf3/sweedler": ("found", "8ae64f0a8376ee9b"),
    "random/0/product-field/M/gf2/comatrix": ("found", "f0ed6ee339e03e5b"),
    "random/1/product-field/M/gf2/comatrix": ("found", "f0ed6ee339e03e5b"),
    "random/0/product-field/M/gf2/sweedler": ("found", "f0ed6ee339e03e5b"),
    "random/1/product-field/M/gf2/sweedler": ("found", "f0ed6ee339e03e5b"),
    "random/0/product-field/M/gf3/comatrix": ("found", "8b2b175bcb73d24d"),
    "random/1/product-field/M/gf3/comatrix": ("found", "bace74e791634cea"),
    "random/0/product-field/M/gf3/sweedler": ("found", "8b2b175bcb73d24d"),
    "random/1/product-field/M/gf3/sweedler": ("found", "bace74e791634cea"),
    "random/0/recipe/1/gf2/comatrix": ("none", None),
    "random/1/recipe/1/gf2/comatrix": ("none", None),
    "random/0/recipe/1/gf2/sweedler": ("none", None),
    "random/1/recipe/1/gf2/sweedler": ("none", None),
    "random/0/recipe/3/gf3/comatrix": ("found", "bcb99d7e6edc2576"),
    "random/1/recipe/3/gf3/comatrix": ("found", "67a0b7824dcbd227"),
    "random/0/recipe/3/gf3/sweedler": ("found", "5bd5e3b853cc9fd5"),
    "random/1/recipe/3/gf3/sweedler": ("found", "b96717309eaa3edf"),
    "random/0/recipe/6/gf2/comatrix": ("found", "6ff22cf1c012085b"),
    "random/1/recipe/6/gf2/comatrix": ("found", "6ff22cf1c012085b"),
    "random/0/recipe/6/gf2/sweedler": ("found", "e9693d99193f7c9b"),
    "random/1/recipe/6/gf2/sweedler": ("found", "e9693d99193f7c9b"),
    "random/0/regular-module/M/gf2/comatrix": ("found", "4e57e4d6d6213a49"),
    "random/1/regular-module/M/gf2/comatrix": ("found", "4e57e4d6d6213a49"),
    "random/0/regular-module/M/gf2/sweedler": ("found", "8952b803b759f1af"),
    "random/1/regular-module/M/gf2/sweedler": ("found", "a374c47441005ceb"),
    "random/0/regular-module/M/gf3/comatrix": ("found", "002f6be9c2b9924e"),
    "random/1/regular-module/M/gf3/comatrix": ("found", "daae0f74b714292c"),
    "random/0/regular-module/M/gf3/sweedler": ("found", "4e04f65f2baa903d"),
    "random/1/regular-module/M/gf3/sweedler": ("found", "e5f71800693bf115"),
}

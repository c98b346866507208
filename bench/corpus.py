"""Seeded inputs of the benchmark: definition texts and their case ids.

Every case is one definition text (the JSON format of
``coring_lab.definitions``) plus the name of the bimodule to work on.  The
library only ever sees the texts.  Three families make up a corpus:

* ``recipe``: a copy of the acceptance-suite generator
  (``tests/random_modules.py``) with the field as a parameter.  The choice of
  field, right module, left algebra and idempotent or square-zero element is
  drawn from ``default_rng(index)`` exactly as in the test suite, so the
  isomorphism class of case ``recipe/<i>`` is the acceptance module of seed
  ``i`` at every benchmark seed.  Benchmark seed 0 reproduces the acceptance
  modules bit for bit.  Another seed flips the signs of some of the
  acceptance basis vectors, drawn from ``default_rng([seed, i])``: over
  GF(3) and QQ the text changes while every elimination takes the same
  pivots, so the cost of a case does not depend on the seed.  Over GF(2) a
  sign flip changes nothing.  A dense change of basis would change the cost,
  and even the outcome, of some cases from seed to seed: the construction of
  recipe module 7 needs 300 MB in the acceptance basis and a 1 GiB array in
  others.
* ``ladder``: ``k^n`` with scalars acting on both sides.
* ``bundled``: the definition files shipped with the package, as shipped
  and re-declared over another characteristic.

The case ids of a workload (``case_ids``) need no import of the library;
the texts (``build_texts``) do.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

BUNDLED = {
    "matrix2": ["M"],
    "dual-numbers": ["M"],
    "product-field": ["M"],
    "morita-rows-cols": ["cols", "rows"],
    "regular-module": ["M"],
}

# Recipe indices per workload: the acceptance seeds 0..N-1.
RECIPE_COUNT = {"analyze-fp": 12, "construct-fp": 12}
LADDER = [(2, (1, 2, 3, 4)), (3, (1, 2, 3, 4))]  # (characteristic, n of k^n)
BUNDLED_CHARS = (2, 3)  # as shipped (GF(2)) and re-declared over GF(3)
WORKLOADS = tuple(RECIPE_COUNT)


def _field_tag(char: int) -> str:
    return "qq" if char == 0 else f"gf{char}"


def case_ids(workload: str, seed: int) -> list[str]:
    """Ids of the cases of one pass, in the order the pass runs them.

    Seed 0 keeps the listed order; another seed shuffles it.
    """
    if workload not in RECIPE_COUNT:
        raise ValueError(f"unknown workload {workload!r}")
    ids = []
    for char in BUNDLED_CHARS:
        for fname, names in BUNDLED.items():
            ids += [f"bundled/{_field_tag(char)}/{fname}/{n}" for n in names]
    for char, ns in LADDER:
        ids += [f"ladder/{_field_tag(char)}/k^{n}" for n in ns]
    ids += [f"recipe/{i}" for i in range(RECIPE_COUNT[workload])]
    if seed:
        order = np.random.default_rng([seed, 7]).permutation(len(ids))
        ids = [ids[i] for i in order]
    return ids


# -- definition texts ---------------------------------------------------------


def _scalar(field, value):
    if field.characteristic:
        return int(value)
    value = Fraction(value)
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _tensor(field, arr):
    arr = np.asarray(arr)
    if arr.ndim == 0:
        return _scalar(field, arr[()])
    return [_tensor(field, sub) for sub in arr]


def _algebra_doc(alg) -> dict:
    f = alg.field
    return {"structure": _tensor(f, alg.structure), "unit": _tensor(f, alg.unit)}


def bimodule_text(module, name: str = "M") -> str:
    """A definition text declaring ``module`` as bimodule ``name``."""
    f = module.field
    algebras = {"B": _algebra_doc(module.left_alg)}
    right = "B"
    if module.right_alg != module.left_alg:
        algebras["A"] = _algebra_doc(module.right_alg)
        right = "A"
    doc = {
        "field": {"characteristic": f.characteristic},
        "algebras": algebras,
        "bimodules": {name: {"left": "B", "right": right,
                             "left_action": _tensor(f, module.left_action),
                             "right_action": _tensor(f, module.right_action)}},
    }
    return json.dumps(doc, sort_keys=True)


def _field_algebra(field):
    from coring_lab.algebra import Algebra

    return Algebra(field, [[[1]]], [1], name="k")


def _dual_numbers(field):
    from coring_lab.algebra import Algebra

    c = field.zeros((2, 2, 2))  # basis {1, x} with x * x = 0
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    return Algebra(field, c, [1, 0], name="k[x]/(x^2)")


def ladder_module(field, n: int):
    """k^n with scalars acting on both sides."""
    from coring_lab.bimodule import Bimodule

    k = _field_algebra(field)
    return Bimodule(k, k, field.eye(n)[None, :, :], field.eye(n)[:, None, :],
                    name=f"k^{n}")


def _right_module_choices(field):
    """(algebra, right-action tensor) pairs of dimension <= 4, as in the
    acceptance generator."""
    from coring_lab.algebra import direct_product, matrix_algebra

    choices = []
    k = _field_algebra(field)
    for r in (1, 2, 3, 4):
        rho = field.zeros((r, 1, r))
        for i in range(r):
            rho[i, 0, i] = 1
        choices.append((k, rho))
    kk = direct_product(k, k)
    for (a, b) in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        dim = a + b
        rho = field.zeros((dim, 2, dim))
        for i in range(dim):
            rho[i, 0 if i < a else 1, i] = 1
        choices.append((kk, rho))
    d = _dual_numbers(field)
    for r in (1, 2):
        dim = 2 * r
        rho = field.zeros((dim, 2, dim))
        for i in range(dim):
            rho[i, 0, i] = 1
        for blk in range(r):
            rho[2 * blk, 1, 2 * blk + 1] = 1
        choices.append((d, rho))
    m2 = matrix_algebra(2, field)
    rho = field.zeros((2, 4, 2))
    for i in range(2):
        for l in range(2):
            rho[i, i * 2 + l, l] = 1  # the row module
    choices.append((m2, rho))
    return choices


def _random_square_zero(field, end_alg, rng, attempts=40):
    for _ in range(attempts):
        u = field.matmul(np.stack(end_alg.endo_mats, axis=2),
                         field.random(rng, end_alg.dim))
        if np.all(field.asarray(field.matmul(u, u)) == 0) and np.any(u != 0):
            return end_alg.coords_of(u)
    return field.zeros(end_alg.dim)


def _random_idempotent(field, end_alg, rng, attempts=40):
    for _ in range(attempts):
        u = field.matmul(np.stack(end_alg.endo_mats, axis=2),
                         field.random(rng, end_alg.dim))
        if np.array_equal(field.asarray(field.matmul(u, u)), field.asarray(u)):
            return end_alg.coords_of(u)
    return end_alg.coords_of(field.eye(end_alg.module.dim))


def recipe_module(index: int, seed: int, rational: bool = False):
    """The acceptance generator's module of seed ``index``, over QQ when
    ``rational``, presented in a basis drawn from ``seed`` (see module doc)."""
    from coring_lab import GF, QQ
    from coring_lab.algebra import direct_product
    from coring_lab.bimodule import Bimodule, endomorphism_algebra
    from coring_lab.linalg import _solve

    rng = np.random.default_rng(index)
    p = 2 if rng.integers(0, 2) == 0 else 3
    field = QQ if rational else GF(p)
    choices = _right_module_choices(field)
    a_alg, rho = choices[int(rng.integers(0, len(choices)))]
    dim = rho.shape[0]
    k = _field_algebra(field)
    base = Bimodule(k, a_alg, field.eye(dim)[None, :, :], rho)
    end = endomorphism_algebra(base)

    kind = int(rng.integers(0, 3))
    if kind == 0:
        b_alg = k
        left_mats = [field.eye(dim)]
    elif kind == 1:
        b_alg = direct_product(k, k)
        e = end.algebra.mat_of(_random_idempotent(field, end.algebra, rng))
        left_mats = [field.asarray(e), field.asarray(field.eye(dim) - e)]
    else:
        b_alg = _dual_numbers(field)
        n = end.algebra.mat_of(_random_square_zero(field, end.algebra, rng))
        left_mats = [field.eye(dim), field.asarray(n)]

    while True:
        t = field.random(rng, (dim, dim))
        t_inv = _solve(field, t, field.eye(dim))
        if t_inv is not None:
            break
    if seed:
        # flip the signs of some acceptance basis vectors
        signs = np.random.default_rng([seed, index]).choice([1, -1], dim)
        t = field.asarray(signs[:, None] * t)
        t_inv = field.asarray(t_inv * signs[None, :])
    lam = field.zeros((b_alg.dim, dim, dim))
    for i, mat in enumerate(left_mats):
        lam[i] = field.matmul(t, field.matmul(mat, t_inv)).T
    new_rho = field.zeros((dim, a_alg.dim, dim))
    for j in range(a_alg.dim):
        new_rho[:, j, :] = field.matmul(t, field.matmul(base.right_mats[j], t_inv)).T
    return Bimodule(b_alg, a_alg, lam, new_rho, name=f"random[{index}]")


def bundled_text(fname: str, char: int, data_dir: Path) -> str:
    """A bundled definition file, as shipped (its own characteristic) or
    re-declared over characteristic ``char``."""
    text = (data_dir / f"{fname}.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    if doc["field"]["characteristic"] == char:
        return text
    doc["field"]["characteristic"] = char
    return json.dumps(doc, sort_keys=True)


def case_text(case_id: str, seed: int, data_dir: Path) -> tuple[str, str]:
    """(definition text, bimodule name) of one case."""
    from coring_lab import GF, QQ

    family, _, rest = case_id.partition("/")
    if family == "bundled":
        tag, fname, name = rest.split("/")
        char = 0 if tag == "qq" else int(tag[2:])
        return bundled_text(fname, char, data_dir), name
    if family == "ladder":
        tag, kn = rest.split("/")
        field = QQ if tag == "qq" else GF(int(tag[2:]))
        return bimodule_text(ladder_module(field, int(kn[2:]))), "M"
    if family == "recipe":
        return bimodule_text(recipe_module(int(rest), seed)), "M"
    raise ValueError(f"unknown case id {case_id!r}")


def build_texts(workload: str, seed: int, data_dir: Path) -> dict:
    """case id -> (definition text, bimodule name) for one pass."""
    return {cid: case_text(cid, seed, data_dir) for cid in case_ids(workload, seed)}

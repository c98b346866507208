"""Shared builders for small algebras and bimodules used across the suite."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from coring_lab.algebra import Algebra, identity_map, matrix_algebra
from coring_lab.bimodule import Bimodule, _memo, tensor_over
from coring_lab.coring import Coring, sweedler_coring
from coring_lab.definitions import bundled_path, loads
from coring_lab.fields import Field
from coring_lab.linalg import rref

from coproduct_oracle import _on_left_leg, _on_right_leg, delta_amb, section_matrix
from tensor_oracle import context_projection


def bundled_text_over(name, char):
    """The text of a bundled definition file re-declared over characteristic
    ``char``."""
    doc = json.loads(bundled_path(name).read_text(encoding="utf-8"))
    doc["field"]["characteristic"] = char
    return json.dumps(doc)


def bundled_over(name, char):
    """A bundled definition file re-declared over characteristic ``char``."""
    return loads(bundled_text_over(name, char))


def field_algebra(field, name="k"):
    return Algebra(field, [[[1]]], [1], name=name)


def dual_numbers(field, name="k[x]/(x^2)"):
    # basis {1, x} with x * x = 0
    c = field.zeros((2, 2, 2))
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    return Algebra(field, c, [1, 0], name=name)


def intertwiner_rows(field, src_mats, tgt_mats) -> list:
    """Oracle rows of ``bimodule.intertwiners``: one Kronecker block per pair
    (s, t), the linear conditions X @ s == t @ X on vec(X), row-major over
    X's (target, source) shape."""
    return [field.kron(field.eye(t.shape[0]), s.T) - field.kron(t, field.eye(s.shape[0]))
            for s, t in zip(src_mats, tgt_mats)]


def fraction_free_rref(a):
    """Oracle of ``rref`` over QQ: fraction-free elimination (Bareiss,
    Math. Comp. 1968) on Python ints.  Each row is scaled to integers by the
    lcm of its denominators, elimination multiplies rows through instead of
    dividing, each updated row is divided by the gcd of its entries, and the
    pivots are normalized to 1 only at the end.  Returns the reduced array
    and the (row, col) pivots."""
    a = np.asarray(a, dtype=object)
    nrows, ncols = a.shape
    work = np.empty((nrows, ncols), dtype=object)
    for i in range(nrows):
        values = [Fraction(v) for v in a[i]]
        scale = math.lcm(*(v.denominator for v in values))
        work[i] = [int(v * scale) for v in values]
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        nz = np.flatnonzero(work[row:, col])
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        work[[row, piv]] = work[[piv, row]]
        others = np.flatnonzero(work[:, col])
        others = others[others != row]
        if others.size:
            work[others] = (work[others] * work[row, col]
                            - np.outer(work[others, col], work[row]))
            for r in others:
                g = math.gcd(*work[r])
                if g > 1:
                    work[r] = work[r] // g
        pivots.append((row, col))
    for r, c in pivots:
        work[r] = [Fraction(v, work[r, c]) for v in work[r]]
    return work, pivots


def kronecker_intertwiners(field, src_mats, tgt_mats) -> list:
    """Oracle of ``bimodule.intertwiners``: the kernel of the stacked
    Kronecker rows, read off one ``rref``.  Basis vector f is 1 at free
    column f, 0 at the other free columns and minus column f of the reduced
    rows at the pivot columns."""
    rows = np.concatenate(intertwiner_rows(field, src_mats, tgt_mats))
    red, pivots = rref(field, rows)
    n = rows.shape[1]
    pivot_cols = [c for _, c in pivots]
    free = [c for c in range(n) if c not in pivot_cols]
    basis = field.zeros((len(free), n))
    basis[range(len(free)), free] = 1
    basis[:, pivot_cols] = -red[:len(pivots), free].T
    shape = (tgt_mats[0].shape[0], src_mats[0].shape[0])
    return [v.reshape(shape) for v in field.asarray(basis)]


def induced_actions_oracle(ts):
    """Oracle of ``TensorSpace.space``: the outer actions of a presented
    tensor, P kron(lambda_i, I) S and P kron(I, rho_j) S, one leg product per
    basis element, as the action tensors of ``Bimodule``."""
    f, m, n = ts.left_factor.field, ts.left_factor, ts.right_factor
    left = [f.matmul(ts.projection, _on_left_leg(f, lam, section_matrix(ts), n.dim))
            for lam in m.left_mats]
    right = [f.matmul(ts.projection, _on_right_leg(f, rho, section_matrix(ts), m.dim))
             for rho in n.right_mats]
    return np.stack(left).transpose(0, 2, 1), np.stack(right).transpose(2, 0, 1)


def trivial_bimodule(field, n, name=None):
    """k^n with scalars acting on both sides."""
    k = field_algebra(field)
    lam = field.eye(n)[None, :, :]
    rho = field.eye(n)[:, None, :]
    return Bimodule(k, k, lam, rho, name=name or f"k^{n}")


def row_module(field):
    """Rows k^(1x2) as a (k, M_2)-bimodule."""
    k = field_algebra(field)
    m2 = matrix_algebra(2, field)
    n = 2
    rho = field.zeros((n, 4, n))
    for i in range(n):
        for kk in range(n):
            for l in range(n):
                if i == kk:
                    rho[i, kk * n + l, l] = 1  # e_i . E_kl = delta_ik e_l
    lam = field.eye(n)[None, :, :]
    return Bimodule(k, m2, lam, rho, name="rows")


def column_module(field):
    """Columns k^(2x1) as an (M_2, k)-bimodule."""
    k = field_algebra(field)
    m2 = matrix_algebra(2, field)
    n = 2
    lam = field.zeros((4, n, n))
    for kk in range(n):
        for l in range(n):
            for j in range(n):
                if l == j:
                    lam[kk * n + l, j, kk] = 1  # E_kl . e_j = delta_lj e_k
    rho = field.eye(n)[:, None, :]
    return Bimodule(m2, k, lam, rho, name="cols")


def point_module_over_dual_numbers(field):
    """k as a (dual numbers, k)-bimodule, x acting as zero."""
    b = dual_numbers(field)
    a = field_algebra(field)
    lam = field.zeros((2, 1, 1))
    lam[0, 0, 0] = 1
    rho = field.zeros((1, 1, 1))
    rho[0, 0, 0] = 1
    return Bimodule(b, a, lam, rho, name="k over dual numbers")


def non_generator_summand(field):
    """k as a right k x k-module through the first factor: a projective
    summand P1 of the regular module that does not generate."""
    from coring_lab.algebra import direct_product

    k = field_algebra(field)
    rho = field.zeros((1, 2, 1))
    rho[0, 0, 0] = 1
    return Bimodule(k, direct_product(k, k), field.eye(1)[None, :, :], rho, name="P1")


def upper_triangular_2(field, name="T2"):
    # basis {E11, E12, E22}
    c = field.zeros((3, 3, 3))
    c[0, 0, 0] = 1  # E11 E11
    c[0, 1, 1] = 1  # E11 E12
    c[1, 2, 1] = 1  # E12 E22
    c[2, 2, 2] = 1  # E22 E22
    return Algebra(field, c, [1, 0, 1], name=name)


def matrix_coring_arrays(n, field):
    """Hand-built structure maps of the n x n matrix coring over the field,
    oracle data independent of every constructor: basis c_ij at flat index
    i*n + j with Delta(c_ij) = sum_l c_il (x) c_lj and eps(c_ij) = delta_ij,
    as (delta_amb, counit)."""
    d = n * n
    delta_amb = field.zeros((d * d, d))
    for i in range(n):
        for j in range(n):
            for l in range(n):
                delta_amb[(i * n + l) * d + (l * n + j), i * n + j] = 1
    counit = field.zeros((1, d))
    for i in range(n):
        counit[0, i * n + i] = 1
    return delta_amb, counit


def matrix_coring(n, field):
    """The n x n matrix coring over the field: the context coring of
    k^n (x)_k k^n with tau(1) = sum_i e_i (x) e_i and sigma the standard
    pairing, both written out here, so it is independent of the dual-basis
    solver.  Its basis e_i (x) e_j is c_ij at flat index i*n + j."""
    k_n = trivial_bimodule(field, n)
    ts = tensor_over(k_n, k_n)
    eye = field.eye(n)
    pairing = field.zeros((1, n * n))
    for i in range(n):
        pairing[0, i * n + i] = 1
    return Coring(ts, [(eye[:, i], eye[:, i]) for i in range(n)],
                  field.matmul(pairing, section_matrix(ts)))


def trivial_coring(a):
    """A as a coring: the Sweedler coring A (x)_A A of the identity, with
    counit the multiplication onto A."""
    return sweedler_coring(identity_map(a))


def agree_in_square(c, lhs, rhs) -> bool:
    """Oracle: True when two maps into the field tensor square of the
    carrier of c agree in C (x)_A C: equal representatives, else equal
    projections through ``context_projection``."""
    if Field.equal(lhs, rhs):
        return True
    onto = context_projection(c.carrier, c.carrier_tensor)
    return Field.equal(c.field.matmul(onto, lhs), c.field.matmul(onto, rhs))


def is_coring_map(source, target, theta) -> bool:
    """Oracle: theta keeps the counit and (theta (x) theta) Delta = Delta' theta
    in C' (x)_A C', compared on the representative coproducts ``delta_amb``."""
    f = source.field
    if not Field.equal(f.matmul(target.counit_mat, theta), source.counit_mat):
        return False
    on_right = _on_right_leg(f, theta, delta_amb(source), source.dim)
    lhs = _on_left_leg(f, theta, on_right, target.dim)
    return agree_in_square(target, lhs, f.matmul(delta_amb(target), theta))


def canonical_identification_oracle(m):
    """Present M (x)_A M^* and check, through that presentation, the
    identification with S = End_A(M) that ``canonical_s_iso`` gives only as
    its table omega on the pairs e_i (x) phi_alpha: both round trips, the
    left and right action rules of S, and omega = to_endo @ projection.
    Returns the presentation and to_endo: tensor coords -> S coords."""
    from coring_lab.bimodule import _induced_action, canonical_s_iso, dual_basis, tensor_over
    from coring_lab.fields import Field

    f = m.field
    iso, db = canonical_s_iso(m), dual_basis(m)
    dual, s_alg = db.dual, iso.end.algebra
    ts = tensor_over(m, dual)
    table = iso.omega.reshape(s_alg.dim, m.dim * dual.dim)
    to_endo = f.matmul(table, section_matrix(ts))
    # s -> sum_k s(e_k) (x) e_k^*
    coords = f.asarray(np.reshape(db.functional_coords, (m.dim, dual.dim)))
    amb = f.tensordot(np.stack(s_alg.endo_mats), coords, ([2], [0]))  # (s, m', alpha)
    from_endo = f.matmul(ts.projection, amb.reshape(s_alg.dim, -1).T)
    assert Field.equal(f.matmul(to_endo, from_endo), f.eye(s_alg.dim))
    assert Field.equal(f.matmul(from_endo, to_endo), f.eye(ts.dim))
    assert Field.equal(f.matmul(to_endo, ts.projection), table)
    # the right action of S on M^*, phi -> phi s, in coordinates
    dual_acts = _induced_action(f, dual.functional_mats,
                                [[f.matmul(phi, s_mat) for phi in dual.functional_mats]
                                 for s_mat in s_alg.endo_mats])
    for beta, s_mat in enumerate(s_alg.endo_mats):
        # s (m (x) phi) = s(m) (x) phi, and (m (x) phi) s = m (x) phi s
        left_act = ts.induced_map(s_mat, f.eye(dual.dim), ts)
        assert Field.equal(f.matmul(to_endo, left_act), f.matmul(s_alg.left_mult[beta], to_endo))
        right_act = ts.induced_map(f.eye(m.dim), dual_acts[beta].T, ts)
        assert Field.equal(f.matmul(to_endo, right_act),
                           f.matmul(s_alg.right_mult[beta], to_endo))
    return ts, to_endo


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


def count_memo_bodies(monkeypatch, *memoized):
    """Rebind each memoized function, in every library module that holds it,
    to a memo of a copy of its body that records each run; returns the list
    of (function name, bimodule) runs, which keeps the bimodules alive."""
    runs = []
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "coring_lab"]
    for fn in memoized:
        body = fn.__wrapped__

        def counting(m, body=body):
            runs.append((body.__name__, m))
            return body(m)

        spy = _memo(counting)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, spy)
    return runs


# definition documents of the wrong shape, each an input error
MALFORMED_DEFINITIONS = {
    "field-not-an-object": {"field": 5},
    "algebras-not-an-object": {"field": {"characteristic": 2}, "algebras": [1]},
    "algebra-not-an-object": {"field": {"characteristic": 2}, "algebras": {"A": 5}},
    "unit-not-a-list": {"field": {"characteristic": 2},
                        "algebras": {"A": {"structure": [[[1]]], "unit": 1}}},
    "left-action-not-matrices": {
        "field": {"characteristic": 2}, "algebras": {"A": {"structure": [[[1]]], "unit": [1]}},
        "bimodules": {"M": {"left": "A", "right": "A", "left_action": [5],
                            "right_action": [[[1]]]}}},
    # JSON booleans are not integers, although Python's bool is an int
    "characteristic-false": {"field": {"characteristic": False}},
    "characteristic-true": {"field": {"characteristic": True}},
    "boolean-scalar": {"field": {"characteristic": 2},
                       "algebras": {"A": {"structure": [[[True]]], "unit": [1]}}},
}

"""The dense oracle of the conditions on a map gamma: C (x)_A C -> A, written
on the field tensor square of the carrier and on the representative
coproduct (``coproduct_oracle.delta_amb``): balance over A, A-bilinearity,
the pre-cointegral identity and gamma o Delta = eps.  The library checks
the same conditions in f-coordinates (``coring.verify_cointegral``); these
are the independent copies the tests compare it with.  ``expand`` writes a map f of P as its
gamma_f on the field tensor square, the form reports took before they wrote
f, and ``f_of`` and ``f_of_gamma`` read it back.  ``map_of_gamma`` is the
f_gamma of a comatrix coring read through omega and the dual basis, the
oracle of ``f_of``.  ``central_rows`` is the stacked system of centrality,
which the library solves one slab of basis elements at a time, and
``stacked_central_section`` the one solve of centrality and value that
the library's ``_central_section`` replaced.
"""

import numpy as np

from coring_lab.bimodule import BimoduleMap
from coring_lab.coring import _pair_matrices
from coring_lab.fields import Field
from coring_lab.linalg import _solve

from coproduct_oracle import delta_amb, section_matrix


def central_rows(space):
    """The stacked rows of x -> b.x - x.b over the basis of the algebra
    acting on both sides of ``space``: x is central iff they vanish on it."""
    return space.field.asarray(np.concatenate(
        [left - right for left, right in zip(space.left_mats, space.right_mats)]))


def stacked_central_section(space, value_mat):
    """The central e with value_mat @ e = 1 of one exact solve of the stacked
    system of centrality and value, free variables zero; None if none."""
    f = space.field
    rows = central_rows(space)
    rhs = f.zeros(len(rows) + space.left_alg.dim)
    rhs[len(rows):] = space.left_alg.unit
    return _solve(f, np.concatenate([rows, f.asarray(value_mat)]), rhs)


def expand(c, f_mats):
    """The maps gamma_f(n (x) m (x) n' (x) m') = sigma(n (x) f(m (x) n').m')
    on the field tensor square of the carrier, as a stack [k, a', (u, v)],
    for a stack ``f_mats`` [k, q', q] of matrices on P."""
    f, ts = c.field, c.carrier_tensor
    sec = section_matrix(ts).reshape(ts.left_factor.dim, ts.right_factor.dim, c.dim)
    values = f.tensordot(f.tensordot(f.asarray(f_mats), c._on_sigma, ([1], [0])),
                         c.middle.of_pair, ([1], [2]))  # (k, a', n, m', m, n')
    left = f.tensordot(values, sec, ([2, 4], [0, 1]))  # (k, a', m', n', u)
    return f.asarray(f.tensordot(left, sec, ([3, 2], [0, 1]))).reshape(
        len(f_mats), c.base.dim, c.dim * c.dim)


def f_of(c, gammas):
    """The maps f_gamma(p) = sum_ij m_i (x) gamma(n_i (x) p (x) m_j).n_j
    on P, as a stack [k, q', q], for a stack ``gammas`` [k, a', (u, v)]
    of maps on the field tensor square: each basis element of P is read
    through its lift, and each value through ``of_pair``."""
    f, ts, mid = c.field, c.carrier_tensor, c.middle
    n, m = ts.left_factor, ts.right_factor
    ms, ns = _pair_matrices(f, c.tau_pairs, m.dim, n.dim)
    right, left = c.pair_legs  # e_n (x) m_j and n_i (x) e_m
    # [u, v, q, i, j]: (n_i (x) x) (x) (y (x) m_j) for the lift x (x) y of e_q
    reps = f.tensordot(f.tensordot(left, mid.lift, ([2], [1])), right,
                       ([3], [1])).transpose(0, 3, 2, 1, 4)
    acted = f.tensordot(n.left_action, ns, ([1], [0]))  # (a', n', j): a'.n_j
    # [i, q', a', j]: the P-coordinates of m_i (x) a'.n_j
    onto = f.tensordot(f.tensordot(ms, mid.of_pair, ([0], [0])), acted, ([1], [1]))
    g4 = f.asarray(gammas).reshape(len(gammas), c.base.dim, c.dim, c.dim)
    values = f.tensordot(g4, reps, ([2, 3], [0, 1]))  # (k, a', q, i, j)
    return f.asarray(f.tensordot(values, onto, ([1, 3, 4], [2, 0, 3])).transpose(0, 2, 1))


def f_of_gamma(c, gamma_amb):
    """The f of a map gamma on the field tensor square of the carrier, or
    None when gamma is no gamma_f: f = f_gamma (``f_of``) must commute with
    the actions of B on P and expand to gamma exactly."""
    gamma = c.field.asarray(gamma_amb)
    f_mat = f_of(c, gamma[None])[0]
    space = c.middle.space
    return f_mat if (BimoduleMap(space, space, f_mat, _validate=False).commutes_with_actions()
                     and Field.equal(expand(c, f_mat[None])[0], gamma)) else None


def delta_tensor(c):
    """delta_amb reshaped so that [u, v, c] is the (e_u, e_v) coefficient
    of the chosen representative of Delta(e_c)."""
    d = c.dim
    return delta_amb(c).reshape(d, d, d)


def gamma_is_balanced(c, gamma_amb) -> bool:
    """gamma(x.a (x) y) == gamma(x (x) a.y) on all basis triples."""
    f = c.field
    g3 = f.asarray(gamma_amb).reshape(c.base.dim, c.dim, c.dim)
    lhs = f.tensordot(c.carrier.right_action, g3, ([2], [1]))  # (u, i, a', v)
    rhs = f.tensordot(c.carrier.left_action, g3, ([2], [2])).transpose(3, 0, 2, 1)
    return Field.equal(f.asarray(lhs), f.asarray(rhs))


def gamma_is_bimodule_map(c, gamma_amb) -> bool:
    """gamma(a.x (x) y) == a.gamma(x (x) y) and the right-sided mirror."""
    f = c.field
    a = c.base
    g3 = f.asarray(gamma_amb).reshape(a.dim, c.dim, c.dim)
    lhs = f.tensordot(c.carrier.left_action, g3, ([2], [1]))  # (i, u, a', v)
    rhs = f.tensordot(a.left_mult, g3, ([2], [0])).transpose(0, 2, 1, 3)
    if not Field.equal(f.asarray(lhs), f.asarray(rhs)):
        return False
    lhs = f.tensordot(c.carrier.right_action, g3, ([2], [2]))  # (v, i, a', u)
    lhs = lhs.transpose(1, 3, 2, 0)  # (i, u, a', v)
    rhs = f.tensordot(a.right_mult, g3, ([2], [0])).transpose(0, 2, 1, 3)
    return Field.equal(f.asarray(lhs), f.asarray(rhs))


def precointegral_defect(c, gammas):
    """Blocks [k, (c, m', l)] of the e_m' coordinate of
    sum c_1 gamma_k(c_2 (x) e_l) - sum gamma_k(c (x) (e_l)_1) (e_l)_2 for the
    basis elements c and e_l, given a stack [k, a', (u, v)] of maps on the
    field tensor square.  A block covers dim A consecutive basis elements c."""
    f = c.field
    d, da = c.dim, c.base.dim
    g4 = gammas.reshape(len(gammas), da, d, d)  # (k, b, v, l)
    d3 = delta_tensor(c)  # (u, v, c)
    # (b, u, m', l), stored in the order of its contraction below
    lam_delta = np.ascontiguousarray(
        f.tensordot(c.carrier.left_action, d3, ([1], [1])).transpose(0, 2, 1, 3))

    def block(cs):
        delta_rho = f.tensordot(d3[:, :, cs], c.carrier.right_action, ([0], [0]))  # (v, c, b, m')
        lhs = f.tensordot(g4, delta_rho, ([1, 2], [2, 0])).transpose(0, 2, 3, 1)  # (k, c, m', l)
        lhs -= f.tensordot(g4[:, :, cs], lam_delta, ([1, 3], [0, 1]))
        return f.asarray(lhs).reshape(len(g4), -1)

    for start in range(0, d, da):
        yield block(slice(start, start + da))


def precointegral_identity_holds(c, gamma_amb) -> bool:
    """sum c_1 gamma(c_2 (x) c') == sum gamma(c (x) c'_1) c'_2 on basis pairs."""
    return not any(np.any(block) for block in
                   precointegral_defect(c, c.field.asarray(gamma_amb)[None]))


def gamma_is_normalized(c, gamma_amb) -> bool:
    """gamma o Delta == eps, evaluated on the chosen representatives."""
    f = c.field
    return Field.equal(f.matmul(f.asarray(gamma_amb), delta_amb(c)), c.counit_mat)


def is_precointegral(c, gamma_amb) -> bool:
    return (gamma_is_balanced(c, gamma_amb) and gamma_is_bimodule_map(c, gamma_amb)
            and precointegral_identity_holds(c, gamma_amb))


def is_cointegral(c, gamma_amb) -> bool:
    """The dense verdict of ``coring.verify_cointegral``."""
    return is_precointegral(c, gamma_amb) and gamma_is_normalized(c, gamma_amb)


def is_frobenius_system(c, gamma_amb, invariant) -> bool:
    """The dense verdict of ``coring.verify_frobenius_system``."""
    f = c.field
    e = f.asarray(invariant)
    if np.any(f.matmul(central_rows(c.carrier), e)) or not is_precointegral(c, gamma_amb):
        return False
    g3 = f.asarray(gamma_amb).reshape(c.base.dim, c.dim, c.dim)
    return (Field.equal(f.tensordot(g3, e, ([2], [0])), c.counit_mat)
            and Field.equal(f.tensordot(g3, e, ([1], [0])), c.counit_mat))


def map_of_gamma(tower, gamma_amb):
    """The matrix of f_gamma on S for a map gamma on the field tensor square
    of the comatrix coring, {e_i, e_i^*} the dual basis:
    f_gamma(x) = sum_{i,j,k}
    omega(e_i . gamma((e_i^* (x) x(e_j)) (x) (e_j^* (x) e_k)) (x) e_k^*)."""
    f = tower.module.field
    m, data, cdim = tower.module, tower.comatrix, tower.comatrix.coring.dim
    proj = data.coring.carrier_tensor.projection.reshape(cdim, data.dual.dim, m.dim)
    pairs = f.tensordot(proj, np.stack(tower.basis.functional_coords),
                        ([1], [1]))  # (c, j, i): e_i^* (x) e_j
    g3 = gamma_amb.reshape(m.right_alg.dim, cdim, cdim)
    right = f.tensordot(g3, pairs, ([2], [0]))  # (a, c, k, j): gamma(c (x) e_j^* (x) e_k)
    left = f.tensordot(pairs, np.stack(tower.end.algebra.endo_mats),
                       ([1], [1]))  # (c, i, s, j): e_i^* (x) s(e_j)
    values = f.tensordot(right, left, ([1, 3], [0, 3]))  # (a, k, i, s)
    scaled = f.tensordot(m.right_action, values, ([0, 1], [2, 0]))  # (m', k, s): e_i . gamma
    dual_coords = np.stack(tower.basis.functional_coords)  # (k, beta)
    omega_dual = f.tensordot(tower.s_iso.omega, dual_coords, ([2], [1]))  # (s, i, k)
    return f.tensordot(omega_dual, scaled, ([1, 2], [0, 1]))

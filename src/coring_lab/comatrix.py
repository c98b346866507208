"""Comatrix corings and the corings of contexts.

A context (A, B, N, M, sigma, tau) whose two diagrams commute is held as
its ``Coring`` N (x)_B M: the presented N (x)_B M, the pairs (m_i, n_i) with
tau(1) = sum_i m_i (x) n_i, and the counit sigma.  A bimodule M that is
finitely generated projective on the right gives the comatrix coring
M^* (x)_B M, the context of its dual basis; a context is also read from tau
given as a map (``context_from_tau``) and from Morita data with surjective
tau~.  This module builds these, the canonical isomorphism from a
context coring onto the comatrix coring of its M, and the anti-isomorphism
between the left dual ring and left endomorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra
from .bimodule import (
    Bimodule,
    BimoduleMap,
    DualBasis,
    DualModule,
    TensorSpace,
    _matrix_subspace_coords,
    _memo,
    canonical_s_iso,
    dual_basis,
    left_endomorphism_algebra,
    right_dual,
    target_bb,
    tensor_over,
)
from .coring import (
    ContextMiddle,
    Coring,
    CoringMorphism,
    _pair_matrices,
    left_dual_ring,
)
from .errors import (
    BimoduleAxiomError,
    ContextAxiomError,
    InternalInconsistencyError,
    NotProjectiveError,
)
from .fields import Field
from .linalg import _solve

__all__ = [
    "MoritaData",
    "comatrix_coring",
    "comatrix_data",
    "coproduct_basis_independence",
    "context_from_bimodule",
    "context_from_morita",
    "context_dual_basis",
    "context_from_tau",
    "context_iso",
    "left_dual_anti_iso",
]


@dataclass
class ComatrixData:
    """A comatrix coring together with the data used to build it."""

    coring: Coring
    dual: DualModule
    basis: DualBasis


@_memo
def comatrix_data(m: Bimodule) -> ComatrixData:
    """Build the comatrix coring of a right-projective bimodule."""
    f = m.field
    dual = right_dual(m)
    db = dual_basis(m)
    if db is None:
        raise NotProjectiveError(
            f"{m!r} admits no dual basis over its right algebra")
    ts = tensor_over(dual, m)
    # counit phi (x) m -> phi(m)
    eval_amb = np.concatenate([f.zeros((m.right_alg.dim, 0))] + dual.functional_mats, axis=1)
    coring = Coring(ts, zip(db.elements, db.functional_coords),
                    f.asarray(eval_amb)[:, ts.free], lambda: _endomorphism_middle(m))
    return ComatrixData(coring, dual, db)


def _endomorphism_middle(m: Bimodule) -> ContextMiddle:
    """P = M (x)_A M^* of the comatrix coring as S = End_A(M), through
    omega(m (x) phi) = m.phi(-): P acts on M by evaluation and on M^* by
    precomposition, and M (x)_A M^* is never presented."""
    iso = canonical_s_iso(m)
    return ContextMiddle(target_bb(iso.end.b_to_s), iso.omega.transpose(1, 2, 0), iso.amb)


def comatrix_coring(m: Bimodule) -> Coring:
    return comatrix_data(m).coring


def coproduct_basis_independence(m: Bimodule, alternative: DualBasis) -> bool:
    """True iff the coproduct built from ``alternative`` agrees with the one
    built from the coordinate dual basis: n (x) m -> n (x) t (x) m for t =
    sum_i m_i (x) n_i in P, and by the two context diagrams x in P is
    sum_kl m_k.sigma(n_k (x) x_1) (x) sigma(x_2 (x) m_l).n_l, read from the
    n (x) x (x) m, so the coproducts agree iff the t do."""
    if not alternative.verify():
        raise NotProjectiveError("alternative dual basis fails the dual-basis identity")
    c = comatrix_data(m).coring
    other = c.middle_element(zip(alternative.elements, alternative.functional_coords))
    return Field.equal(other, c.middle_element(c.tau_pairs))


def context_from_tau(ts_nm: TensorSpace, ts_mn: TensorSpace, sigma_mat,
                     tau_mat) -> Coring:
    """The coring of the context with sigma on ts_nm = N (x)_B M and
    tau: B -> ts_mn = M (x)_A N, read as the pairs (m_i, n_i) with
    tau(1) = sum_i m_i (x) n_i, one for each nonzero ambient coefficient."""
    m, n = ts_mn.left_factor, ts_mn.right_factor
    f = m.field
    w = ts_mn.lift(f.matmul(tau_mat, m.left_alg.unit))
    eye_n, eye_m = f.eye(n.dim), f.eye(m.dim)
    pairs = [(f.asarray(w[u, v] * eye_m[:, u]), eye_n[:, v]) for u, v in zip(*np.nonzero(w))]
    return Coring(ts_nm, pairs, sigma_mat)


def context_from_bimodule(m: Bimodule) -> Coring:
    """The canonical context (A, B, M^*, M, evaluation, dual-basis tau): its
    coring is the comatrix coring itself."""
    return comatrix_data(m).coring


@dataclass
class MoritaData:
    """Morita-style data: bimodule maps sigma: N (x)_B M -> A and
    tau_tilde: M (x)_A N -> B satisfying the two associativity laws."""

    n: Bimodule
    m: Bimodule
    sigma: BimoduleMap
    tau_tilde: BimoduleMap
    tensor_nm: TensorSpace
    tensor_mn: TensorSpace

    def validate(self) -> None:
        """sigma(n (x) m) . n' = n . tau~(m (x) n') and
        tau~(m (x) n) . m' = m . sigma(n (x) m') on all basis triples."""
        f, n, m = self.m.field, self.n, self.m
        sig = f.matmul(self.sigma.matrix, self.tensor_nm.projection).reshape(-1, n.dim, m.dim)
        tt = f.matmul(self.tau_tilde.matrix, self.tensor_mn.projection).reshape(-1, m.dim, n.dim)
        for side, lhs, rhs in (
                ("sigma", f.tensordot(sig, n.left_action, ([0], [0])),  # (v, u, w, n')
                 f.tensordot(tt, n.right_action, ([0], [1])).transpose(2, 0, 1, 3)),
                ("tau", f.tensordot(tt, m.left_action, ([0], [0])),  # (u, v, w, m')
                 f.tensordot(sig, m.right_action, ([0], [1])).transpose(2, 0, 1, 3))):
            if not Field.equal(lhs, rhs):
                at = ",".join(str(i) for i in np.argwhere(lhs != rhs)[0][:3])
                raise ContextAxiomError(f"Morita associativity ({side} side) fails at ({at})")


def context_from_morita(md: MoritaData) -> Coring | None:
    """The coring of the context with tau the inverse of a surjective
    tau_tilde; None when tau_tilde is not surjective."""
    md.validate()
    f = md.m.field
    tt = md.tau_tilde.matrix
    b_dim = md.m.left_alg.dim
    inverse = _solve(f, tt, f.eye(b_dim))
    if inverse is None:
        return None
    # surjective Morita pairings are bijective; verify instead of assuming
    if md.tensor_mn.dim != b_dim:
        raise InternalInconsistencyError(
            "surjective Morita pairing is not bijective; this contradicts Morita theory")
    return context_from_tau(md.tensor_nm, md.tensor_mn, md.sigma.matrix, inverse)


def context_dual_basis(ctx: Coring):
    """chi: N -> M^*, n -> sigma(n (x) -), solved once on the basis of N, its
    inverse, and the dual basis {m_i, chi(n_i)} read off the pairs of tau(1).

    chi is checked as a bimodule map, the dual basis by its identity, and
    chi^{-1} as a two-sided inverse of chi; then chi^{-1} is a bimodule
    map, as the inverse of one, and is not checked again."""
    f, ts, pairs = ctx.field, ctx.carrier_tensor, ctx.tau_pairs
    n, m = ts.left_factor, ts.right_factor
    dual = right_dual(m)
    eye_n, eye_m = f.eye(n.dim), f.eye(m.dim)
    # sigma(e_v (x) -) as value matrices M -> A
    sigmas = [f.matmul(ctx.counit_mat, ts.pure(eye_n[:, v:v + 1], eye_m)) for v in range(n.dim)]
    chi = BimoduleMap(n, dual, _matrix_subspace_coords(f, dual.functional_mats, sigmas).T)
    db = DualBasis(m, dual, [m_vec for m_vec, _ in pairs], [chi(n_vec) for _, n_vec in pairs])
    if not db.verify():
        raise ContextAxiomError("context does not produce a valid dual basis")
    # chi^{-1}(phi) = sum_i phi(m_i) . n_i
    ms, ns = _pair_matrices(f, pairs, m.dim, n.dim)
    values = f.tensordot(np.stack(dual.functional_mats), ms, ([2], [0]))  # (phi, a, i)
    acting = f.tensordot(n.left_action, ns, ([1], [0]))  # (a, n', i)
    inverse = f.tensordot(values, acting, ([1, 2], [0, 2])).T
    if not Field.equal(f.matmul(chi.matrix, inverse), f.eye(dual.dim)):
        raise InternalInconsistencyError("chi o chi^{-1} is not the identity")
    if not Field.equal(f.matmul(inverse, chi.matrix), f.eye(n.dim)):
        raise InternalInconsistencyError("chi^{-1} o chi is not the identity")
    return db, chi, BimoduleMap(dual, n, inverse, _validate=False)


@dataclass
class ContextIso:
    forward: CoringMorphism
    backward: CoringMorphism


def context_iso(ctx: Coring) -> ContextIso:
    """The coring isomorphism theta: N (x)_B M -> M^* (x)_B M induced by
    (chi, id), and its inverse theta' induced by (chi^{-1}, id).

    Each fact is checked once, and the rest follows (``CoringMorphism``):
    ``context_dual_basis`` checks that chi is a bimodule map and that
    chi^{-1} is its two-sided inverse, so both are onto bimodule maps; the
    identity of M is one.  Here eps' theta = eps is checked.  The induced
    maps compose as their factors do (each factor sends the balancing
    relations into the balancing relations), so theta theta' and
    theta' theta are the identities, and eps theta' = eps' theta theta' = eps'.
    So theta and theta' are mutually inverse coring maps.  A failure
    contradicts eps'(chi(n) (x) m) = chi(n)(m) = sigma(n (x) m)."""
    f, m = ctx.field, ctx.carrier_tensor.right_factor
    _, chi, chi_inv = context_dual_basis(ctx)
    target = comatrix_coring(m)
    identity = BimoduleMap(m, m, f.eye(m.dim), _validate=False)
    forward = CoringMorphism(ctx, target, chi, identity, _validate=False)
    if not Field.equal(f.matmul(target.counit_mat, forward.matrix), ctx.counit_mat):
        raise InternalInconsistencyError("the context iso does not preserve the counit")
    return ContextIso(forward, CoringMorphism(target, ctx, chi_inv, identity, _validate=False))


@dataclass
class AntiIso:
    """Mutually inverse anti-multiplicative identifications between the left
    dual ring of a comatrix coring and left endomorphisms of the module."""

    dual_ring: Algebra
    endos: Algebra
    forward: np.ndarray  # dual-ring coords -> End coords
    backward: np.ndarray


def left_dual_anti_iso(m: Bimodule) -> AntiIso:
    """Check the map xi -> (x -> sum_i e_i . xi(e_i^* (x) x)) is bijective and
    anti-multiplicative onto the opposite-composition endomorphism ring.

    Failure raises InternalInconsistencyError: it would contradict a proven
    statement, so it signals an implementation bug rather than mathematics.
    """
    f = m.field
    data = comatrix_data(m)
    ring = left_dual_ring(data.coring)
    endos = left_endomorphism_algebra(m)
    # column x of the endomorphism of xi: sum_i e_i . xi(e_i^* (x) x)
    es, phis = _pair_matrices(f, zip(data.basis.elements, data.basis.functional_coords),
                              m.dim, data.dual.dim)
    proj = data.coring.carrier_tensor.projection.reshape(-1, data.dual.dim, m.dim)
    pure = f.tensordot(proj, phis, ([1], [0]))  # (c, x, i): e_i^* (x) x
    values = f.tensordot(np.stack(ring.functional_mats), pure, ([2], [0]))  # (xi, a, x, i)
    scaled = f.tensordot(es, m.right_action, ([0], [0]))  # (i, a, x'): e_i . a
    endo_of = f.tensordot(values, scaled, ([1, 3], [1, 0])).transpose(0, 2, 1)
    try:
        forward = _matrix_subspace_coords(f, endos.endo_mats, endo_of).T
    except BimoduleAxiomError as exc:
        raise InternalInconsistencyError(f"anti-isomorphism left the endo ring: {exc}")
    backward = _solve(f, forward, f.eye(ring.dim))
    if backward is None or ring.dim != endos.dim:
        raise InternalInconsistencyError("left dual ring is not bijective with End")
    images = f.tensordot(forward.T, np.stack(endos.endo_mats), ([1], [0]))  # (i, x', x)
    lhs = f.tensordot(ring.structure, images, ([2], [0]))  # (i, j, x', x): image of b_i b_j
    rhs = f.tensordot(images, images, ([2], [1])).transpose(0, 2, 1, 3)
    if not Field.equal(lhs, rhs):
        i, j = (int(v) for v in np.argwhere(lhs != rhs)[0][:2])
        raise InternalInconsistencyError(f"anti-multiplicativity fails at basis pair ({i}, {j})")
    return AntiIso(ring, endos, forward, f.asarray(backward))

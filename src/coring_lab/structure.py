"""Structure checks for bimodules and the corings they generate:
separability, Frobenius property, split and Frobenius extensions, the
transport of cosplit sections, cointegrals and Frobenius systems to the
endomorphism-ring Sweedler coring, faithful flatness, the Williard
condition, and the aggregate analyzer with its implication audit.

All deciders are exact linear algebra except the isomorphism searches,
which report an explicit inconclusive status instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import Algebra, AlgebraMap
from .bimodule import (
    Bimodule,
    BimoduleMap,
    DualBasis,
    IsoSearch,
    SIso,
    _combination,
    _induced_action,
    _matrix_subspace_coords,
    _memo,
    _scaling_matrix,
    canonical_s_iso,
    dual_basis,
    hom_bimodule,
    left_dual,
    left_dual_basis,
    left_endomorphism_algebra,
    one_sided_hom,
    random_bimodule_iso,
    regular_bimodule,
    right_dual,
    target_bb,
    target_bs,
    target_sb,
    tensor_over,
)
from .comatrix import ComatrixData, comatrix_data
from .coring import (
    Cointegral,
    Coring,
    FrobeniusSystem,
    _central_section,
    find_cointegral,
    find_frobenius_system,
    gamma_is_normalized,
    is_cosplit,
    sweedler_coring,
    verify_cointegral,
    verify_frobenius_system,
)
from .errors import InternalInconsistencyError, NotProjectiveError
from .fields import Field
from .linalg import _solve, rank

__all__ = [
    "AnalysisReport",
    "AuditEntry",
    "BimoduleTower",
    "bimodule_tower",
    "is_separable_bimodule",
    "is_frobenius_bimodule",
    "split_extension_check",
    "split_from_separability",
    "frobenius_extension_check",
    "lift_cosplit",
    "cointegral_from_separability",
    "lift_precointegral",
    "lift_cointegral",
    "iota_from_frobenius",
    "lift_frobenius_system",
    "faithfully_flat_check",
    "williard_check",
    "analyze",
]


@dataclass
class BimoduleTower:
    """Everything repeatedly needed when analyzing one bimodule: the dual
    basis, comatrix data, endomorphism ring with its identification, and
    the Sweedler coring of B -> S; built once per bimodule."""

    module: Bimodule
    comatrix: ComatrixData
    s_iso: SIso
    sweedler: Coring

    @property
    def basis(self) -> DualBasis:
        return self.comatrix.basis

    @property
    def end(self):
        return self.s_iso.end

    @property
    def b_to_s(self) -> AlgebraMap:
        return self.s_iso.end.b_to_s


@_memo
def bimodule_tower(m: Bimodule) -> BimoduleTower:
    data = comatrix_data(m)
    s_iso = canonical_s_iso(m)
    sw = sweedler_coring(s_iso.end.b_to_s)
    return BimoduleTower(m, data, s_iso, sw)


# ---------------------------------------------------------------------------
# bimodule-level properties
# ---------------------------------------------------------------------------


def is_separable_bimodule(m: Bimodule):
    """A splitting of the evaluation M (x)_A *M -> B, or None; exact.

    The splitting is a (B, B)-bimodule map out of B, hence determined by a
    B-central element with evaluation 1.
    """
    f = m.field
    ld = left_dual(m)
    ts = tensor_over(m, ld)
    # evaluation on the quotient: m (x) psi -> psi(m)
    eval_amb = f.zeros((m.left_alg.dim, m.dim * ld.dim))
    for kappa, psi in enumerate(ld.functional_mats):
        eval_amb[:, kappa::ld.dim] = psi
    nu = _central_section(ts.space, f.matmul(eval_amb, ts.section))
    if nu is not None:
        nu.tensor = ts
    return nu


def is_frobenius_bimodule(m: Bimodule, seed: int = 0) -> IsoSearch:
    """Projectivity on both sides plus an (A, B)-isomorphism between the
    two one-sided duals."""
    if dual_basis(m) is None or left_dual_basis(m) is None:
        return IsoSearch("none")
    return random_bimodule_iso(right_dual(m), left_dual(m), seed=seed)


def split_extension_check(ring_map: AlgebraMap):
    """A B-bimodule retraction s with s(1) = 1, or None; exact."""
    s_alg = ring_map.target
    b = ring_map.source
    f = b.field
    s_bb = target_bb(ring_map)
    homs = hom_bimodule(s_bb, regular_bimodule(b))
    if not homs:
        return None
    values = np.stack([f.matmul(h.matrix, s_alg.unit) for h in homs], axis=1)
    coeffs = _solve(f, f.asarray(values), b.unit)
    if coeffs is None:
        return None
    mat = _combination(f, coeffs, [h.matrix for h in homs])
    return BimoduleMap(s_bb, regular_bimodule(b), mat)


def frobenius_extension_check(ring_map: AlgebraMap, seed: int = 0) -> IsoSearch:
    """S_B finitely generated projective and Hom_B(S, B) isomorphic to S as
    (B, S)-bimodules."""
    s_sb = target_sb(ring_map)
    if dual_basis(s_sb) is None:
        return IsoSearch("none")
    rdual = right_dual(s_sb)  # (B, S)-bimodule Hom_B(S, B)
    return random_bimodule_iso(rdual, target_bs(ring_map), seed=seed)


# ---------------------------------------------------------------------------
# transports along the identification of S with M (x) M^*
# ---------------------------------------------------------------------------


def _omega(tower: BimoduleTower, m_vec, phi_coords):
    """S-coordinates of the endomorphism x -> m . phi(x)."""
    f = tower.module.field
    t = tower.s_iso.tensor.pure(m_vec, phi_coords)
    return f.matmul(tower.s_iso.to_endo, t)


def _tilde_invariant(tower: BimoduleTower, e_vec):
    """Transport a central element of the comatrix coring into S (x)_B S.

    Writes e = sum_a w_a^* (x) w_a through the tensor section and returns
    sum_{j,a} omega(e_j (x) w_a^*) (x) omega(w_a (x) e_j^*).
    """
    f = tower.module.field
    m = tower.module
    w = tower.comatrix.tensor.lift(e_vec)  # (dual, module) coefficients
    ts_s = tower.sweedler.carrier_tensor
    dual_dim = tower.comatrix.dual.dim
    eye_m = f.eye(m.dim)
    eye_d = f.eye(dual_dim)
    acc = f.zeros(ts_s.dim)
    for alpha in range(dual_dim):
        for i in range(m.dim):
            if not np.any(w[alpha, i] != 0):
                continue
            for j in range(m.dim):
                s1 = _omega(tower, eye_m[:, j], w[alpha, i] * eye_d[:, alpha])
                s2 = _omega(tower, eye_m[:, i], tower.basis.functional_coords[j])
                acc = acc + ts_s.pure(s1, s2)
    return f.asarray(acc)


def lift_cosplit(m: Bimodule, section: BimoduleMap):
    """Transport a cosplit section of the comatrix coring to one of the
    Sweedler coring of B -> S; verified against multiplication."""
    tower = bimodule_tower(m)
    f = m.field
    e_vec = f.matmul(section.matrix, m.right_alg.unit)
    tilde = _tilde_invariant(tower, e_vec)
    sw = tower.sweedler
    s_alg = tower.end.algebra
    # the counit of the Sweedler coring is multiplication; its value on the
    # transported invariant must be the identity endomorphism
    if not Field.equal(f.matmul(sw.counit_mat, tilde), s_alg.unit):
        raise InternalInconsistencyError("transported section does not split the counit")
    for beta in range(s_alg.dim):
        if not Field.equal(f.matmul(sw.carrier.left_mats[beta], tilde),
                           f.matmul(sw.carrier.right_mats[beta], tilde)):
            raise InternalInconsistencyError("transported section is not S-central")
    cols = np.stack([f.matmul(sw.carrier.left_mats[beta], tilde)
                     for beta in range(s_alg.dim)], axis=1)
    return BimoduleMap(regular_bimodule(s_alg), sw.carrier, cols)


def split_from_separability(m: Bimodule, nu: BimoduleMap) -> BimoduleMap:
    """The split-extension witness s: S -> B induced by a separability
    splitting, normalized so that s applied to the dual-basis invariant is 1."""
    tower = bimodule_tower(m)
    f = m.field
    ts = nu.tensor  # tensor_over(M, *M) attached by is_separable_bimodule
    ld = ts.right_factor
    v = ts.lift(f.matmul(nu.matrix, m.left_alg.unit))  # (module, left-dual)
    s_alg = tower.end.algebra
    b = m.left_alg
    # s(endo) = sum_{i, kappa} v[i, kappa] psi_kappa(endo(e_i))
    psi = f.tensordot(v, np.stack(ld.functional_mats), ([1], [0]))  # (i, b, m')
    mat = f.tensordot(psi, np.stack(s_alg.endo_mats), ([0, 2], [2, 1]))  # (b, beta)
    witness = BimoduleMap(target_bb(tower.b_to_s), regular_bimodule(b), mat)
    if not Field.equal(f.matmul(mat, s_alg.unit), b.unit):
        raise InternalInconsistencyError("separability witness is not normalized")
    return witness


def cointegral_from_separability(m: Bimodule, nu: BimoduleMap) -> Cointegral:
    """The constructive cointegral eps o (M^* (x) s (x) M) of a separable
    bimodule, verified as a full cointegral."""
    tower = bimodule_tower(m)
    f = m.field
    witness = split_from_separability(m, nu)
    data = tower.comatrix
    dual = data.dual
    ts = data.tensor
    dm, dd = m.dim, dual.dim
    amb = dd * dm
    eye_m, eye_d = f.eye(dm), f.eye(dd)
    g_big = f.zeros((m.right_alg.dim, amb * amb))
    for alpha in range(dd):
        phi_alpha = dual.functional_mats[alpha]
        for i in range(dm):
            for beta in range(dd):
                s_val = f.matmul(witness.matrix,
                                 _omega(tower, eye_m[:, i], eye_d[:, beta]))
                act = m.act_left(s_val)
                for j in range(dm):
                    col = (alpha * dm + i) * amb + beta * dm + j
                    g_big[:, col] = f.matmul(phi_alpha, f.matmul(act, eye_m[:, j]))
    gamma_amb = f.matmul(g_big, f.kron(ts.section, ts.section))
    ci = Cointegral(data.coring, gamma_amb, normalized=True)
    if not verify_cointegral(ci):
        raise InternalInconsistencyError("constructed cointegral fails verification")
    return ci


def lift_precointegral(m: Bimodule, gamma: Cointegral, verify: bool = True) -> Cointegral:
    """Transport a pre-cointegral of the comatrix coring to S (x)_B S."""
    tower = bimodule_tower(m)
    f = m.field
    data = tower.comatrix
    s_alg = tower.end.algebra
    sdim, mdim, cdim = s_alg.dim, m.dim, data.coring.dim
    adim = m.right_alg.dim
    proj = data.tensor.projection
    g3 = gamma.gamma_amb.reshape(adim, cdim, cdim)

    # coring coordinates of e_i^* (x) (s_beta e_j)
    e1 = f.zeros((cdim, mdim, sdim, mdim))
    eye_m = f.eye(mdim)
    for i in range(mdim):
        t_i = f.asarray(tower.basis.functional_coords[i])[:, None]
        block = f.matmul(proj, f.kron(t_i, eye_m))  # (cdim, j) for e_i^* (x) e_j
        for beta, endo in enumerate(s_alg.endo_mats):
            e1[:, i, beta, :] = f.matmul(block, endo)

    # g[a, i, beta, delta, k] = sum_j gamma(e_i^* (x) s_beta e_j , e_j^* (x) s_delta e_k)
    g = f.zeros((adim, mdim, sdim, sdim, mdim))
    for j in range(mdim):
        first = e1[:, :, :, j]  # (c1, i, beta)
        second = e1[:, j, :, :]  # (c2, delta, k)
        partial = f.tensordot(g3, first, ([1], [0]))  # (a, c2, i, beta)
        g = g + f.tensordot(partial, second, ([1], [0]))  # (a, i, beta, delta, k)

    # omega(u (x) e_k^*) as a matrix in u, for each k
    omega_k = []
    for k in range(mdim):
        t_k = f.asarray(tower.basis.functional_coords[k])[:, None]
        block = f.matmul(tower.s_iso.tensor.projection, f.kron(eye_m, t_k))
        omega_k.append(f.matmul(tower.s_iso.to_endo, block))  # (sdim, u)

    sm = np.stack(s_alg.endo_mats)  # (alpha, m', m)
    ar = np.stack([m.right_mats[a] for a in range(adim)])  # (a, m', m)
    gamma3 = f.zeros((sdim, sdim, sdim, sdim))  # (s', alpha, beta, delta)
    for i in range(mdim):
        v = f.tensordot(sm[:, :, i], ar, ([1], [2]))  # (alpha, a, m')
        for k in range(mdim):
            u = f.tensordot(v, g[:, i, :, :, k], ([1], [0]))  # (alpha, m', beta, delta)
            gamma3 = gamma3 + f.tensordot(omega_k[k], u, ([1], [1]))

    # fold the middle multiplication: gamma~((s a (x) s b) (x) (s d (x) s e))
    mid = f.tensordot(s_alg.structure, gamma3, ([2], [2]))  # (beta, delta, s', alpha, eta)
    quad = mid.transpose(2, 3, 0, 1, 4)  # (s', alpha, beta, delta, eta)
    ts_s = tower.sweedler.carrier_tensor
    cs = ts_s.dim
    pair_block = quad.reshape(sdim, sdim * sdim, sdim * sdim)
    lift_pairs = ts_s.section  # (s*s, cs)
    folded = f.tensordot(pair_block, lift_pairs, ([1], [0]))  # (s', (delta eta), cs1)
    folded = f.tensordot(folded, lift_pairs, ([1], [0]))  # (s', cs1, cs2)
    gamma_amb = folded.reshape(sdim, cs * cs)
    ci = Cointegral(tower.sweedler, f.asarray(gamma_amb), normalized=False)
    if verify and not verify_cointegral(ci):
        raise InternalInconsistencyError("transported pre-cointegral fails verification")
    return ci


def lift_cointegral(m: Bimodule, gamma: Cointegral) -> Cointegral:
    """Transport of a full cointegral; additionally checks normalization."""
    lifted = lift_precointegral(m, gamma)
    if not gamma_is_normalized(lifted.coring, lifted.gamma_amb):
        raise InternalInconsistencyError("transported cointegral is not normalized")
    return Cointegral(lifted.coring, lifted.gamma_amb, normalized=True)


@dataclass
class IotaCertificate:
    """The bijection from the comatrix coring onto left endomorphisms built
    from a Frobenius isomorphism of duals, with its linearity checks."""

    matrix: np.ndarray  # coring coords -> left-endomorphism coords
    endos: Algebra


def iota_from_frobenius(m: Bimodule, theta: BimoduleMap) -> IotaCertificate:
    """iota(phi (x) m)(x) = theta(phi)(x) . m, verified bijective,
    right-linear over the dual ring action and left A-linear."""
    data = bimodule_tower(m).comatrix
    f = m.field
    if left_dual_basis(m) is None:
        raise NotProjectiveError("module is not projective over its left algebra")
    ld = theta.target
    endos = left_endomorphism_algebra(m)
    eye_m = f.eye(m.dim)
    cols = []
    for alpha in range(data.dual.dim):
        psi = ld.mat_of(f.matmul(theta.matrix, f.eye(data.dual.dim)[:, alpha]))
        for i in range(m.dim):
            cols.append(_scaling_matrix(f, m.left_action, 1, eye_m[:, i], psi))
    coords = _matrix_subspace_coords(f, endos.endo_mats, cols)
    iota_amb = np.stack(coords, axis=1)
    iota = f.matmul(f.asarray(iota_amb), data.tensor.section)
    if data.coring.dim != endos.dim or _solve(f, iota, f.eye(endos.dim)) is None:
        raise InternalInconsistencyError("iota is not bijective")
    # right linearity over R = End_B(M) acting by phi (x) m . r = phi (x) r(m)
    for rho, r_mat in enumerate(endos.endo_mats):
        act = data.tensor.induced_map(f.eye(data.dual.dim), r_mat, data.tensor)
        lhs = f.matmul(iota, act)
        rhs = f.matmul(endos.right_mult[rho], iota)
        if not Field.equal(lhs, rhs):
            raise InternalInconsistencyError(f"iota is not right-linear at endo {rho}")
    # left A-linearity, with a acting on endomorphisms by (a.r)(x) = r(x.a)
    twisted = _induced_action(f, endos.endo_mats,
                              [[f.matmul(r, x) for r in endos.endo_mats] for x in m.right_mats])
    for a_idx in range(m.right_alg.dim):
        lhs = f.matmul(iota, data.coring.carrier.left_mats[a_idx])
        rhs = f.matmul(twisted[a_idx].T, iota)
        if not Field.equal(lhs, rhs):
            raise InternalInconsistencyError(f"iota is not left-linear at base {a_idx}")
    return IotaCertificate(iota, endos)


def lift_frobenius_system(m: Bimodule, fs: FrobeniusSystem) -> FrobeniusSystem:
    """Transport a reduced Frobenius system of the comatrix coring to the
    Sweedler coring of B -> S; fully re-verified."""
    tower = bimodule_tower(m)
    gamma = lift_precointegral(m, Cointegral(tower.comatrix.coring, fs.gamma_amb,
                                             normalized=False), verify=False)
    tilde_e = _tilde_invariant(tower, fs.invariant)
    lifted = FrobeniusSystem(tower.sweedler, gamma.gamma_amb, tilde_e)
    if not verify_frobenius_system(lifted):
        raise InternalInconsistencyError("transported Frobenius system fails verification")
    return lifted


# ---------------------------------------------------------------------------
# flatness and the Williard condition
# ---------------------------------------------------------------------------


def faithfully_flat_check(ring_map: AlgebraMap, side: str) -> bool:
    """Finite-dimensional criterion: projective generator on the given side."""
    b = ring_map.source
    f = b.field
    if side == "right":
        module = target_sb(ring_map)
        if dual_basis(module) is None:
            return False
        homs = one_sided_hom(module, regular_bimodule(b), "right")
    elif side == "left":
        module = target_bs(ring_map)
        if left_dual_basis(module) is None:
            return False
        homs = one_sided_hom(module, regular_bimodule(b), "left")
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not homs:
        return False
    images = np.concatenate([h for h in homs], axis=1)
    return rank(f, f.asarray(images)) == b.dim


def _module_is_right_generator(m: Bimodule) -> bool:
    """Trace ideal of the right module equals the whole right algebra."""
    f = m.field
    dual = right_dual(m)
    if not dual.functional_mats:
        return False
    images = np.concatenate([f.asarray(phi) for phi in dual.functional_mats], axis=1)
    return rank(f, images) == m.right_alg.dim


def williard_check(m: Bimodule, seed: int = 0) -> IsoSearch:
    """Hom over S from M into S compared with the right dual over A, as
    (A, B)-bimodules; a generator module short-circuits to found."""
    tower = bimodule_tower(m)
    f = m.field
    if _module_is_right_generator(m):
        return IsoSearch("found", None)
    s_alg = tower.end.algebra
    m_sa = tower.end.module_as_s_bimodule
    mats = one_sided_hom(m_sa, regular_bimodule(s_alg), "left")
    a_alg, b_alg = m.right_alg, m.left_alg
    # b acts on Hom_S(M, S) through right multiplication by its image in S
    b_imgs = [s_alg.right_mult_matrix(col) for col in tower.b_to_s.matrix.T]
    acts = _induced_action(f, mats, [[f.matmul(g, x) for g in mats] for x in m.right_mats]
                           + [[f.matmul(y, g) for g in mats] for y in b_imgs])
    lam, rho = acts[:a_alg.dim], acts[a_alg.dim:].transpose(1, 0, 2)
    hom_s = Bimodule(a_alg, b_alg, lam, rho, name="Hom_S(M,S)")
    return random_bimodule_iso(hom_s, right_dual(m), seed=seed)


# ---------------------------------------------------------------------------
# the aggregate analyzer
# ---------------------------------------------------------------------------

INCONCLUSIVE = "inconclusive"

FLAG_NAMES = [
    "m_separable",
    "mstar_separable",
    "m_frobenius",
    "comatrix_cosplit",
    "comatrix_coseparable",
    "comatrix_frobenius",
    "extension_split",
    "extension_frobenius",
    "sweedler_cosplit",
    "sweedler_coseparable",
    "sweedler_frobenius",
    "b_s_faithfully_flat",
    "williard",
]


@dataclass
class AuditEntry:
    rule: str
    hypotheses: list
    conclusion: str
    kind: str  # "implication" or "equivalence"
    status: str  # holds / vacuous / skipped_inconclusive


@dataclass
class AnalysisReport:
    subject: Bimodule
    flags: dict
    witnesses: dict = dc_field(default_factory=dict)
    implication_audit: list = dc_field(default_factory=list)

    def flag(self, name):
        return self.flags[name]


def _tri(search):
    return {"found": True, "none": False}.get(search.status, None)


_IMPLICATIONS = [
    ("cosplit_descends_to_sweedler", ["comatrix_cosplit"], "sweedler_cosplit"),
    ("coseparable_from_separable", ["m_separable"], "comatrix_coseparable"),
    ("coseparable_descends_to_sweedler", ["comatrix_coseparable"], "sweedler_coseparable"),
    ("frobenius_from_bimodule", ["m_frobenius"], "comatrix_frobenius"),
    ("frobenius_descends_to_sweedler", ["comatrix_frobenius"], "sweedler_frobenius"),
    ("endomorphism_ring_theorem", ["m_frobenius"], "extension_frobenius"),
    ("split_descends_to_sweedler_cosplit", ["extension_split"], "sweedler_coseparable"),
]

_EQUIVALENCES = [
    ("dual_separable_iff_cosplit", "mstar_separable", "comatrix_cosplit", []),
    ("sugano_split_extension", "m_separable", "extension_split", []),
    ("ff_separable_iff_comatrix_coseparable", "m_separable", "comatrix_coseparable",
     ["b_s_faithfully_flat"]),
    ("ff_separable_iff_sweedler_coseparable", "m_separable", "sweedler_coseparable",
     ["b_s_faithfully_flat"]),
    ("ff_williard_frobenius_iff_comatrix", "m_frobenius", "comatrix_frobenius",
     ["b_s_faithfully_flat", "williard"]),
    ("ff_williard_frobenius_iff_sweedler", "m_frobenius", "sweedler_frobenius",
     ["b_s_faithfully_flat", "williard"]),
]


def _audit(flags: dict) -> list:
    entries = []
    for rule, hyps, concl in _IMPLICATIONS:
        values = [flags[h] for h in hyps] + [flags[concl]]
        if any(v is None for v in values):
            entries.append(AuditEntry(rule, hyps, concl, "implication",
                                      "skipped_inconclusive"))
            continue
        if all(flags[h] for h in hyps):
            if not flags[concl]:
                raise InternalInconsistencyError(
                    f"proven implication {rule} violated: {hyps} -> {concl}")
            entries.append(AuditEntry(rule, hyps, concl, "implication", "holds"))
        else:
            entries.append(AuditEntry(rule, hyps, concl, "implication", "vacuous"))
    for rule, left, right, extra in _EQUIVALENCES:
        values = [flags[left], flags[right]] + [flags[h] for h in extra]
        if any(v is None for v in values):
            entries.append(AuditEntry(rule, [left] + extra, right, "equivalence",
                                      "skipped_inconclusive"))
            continue
        if not all(flags[h] for h in extra):
            entries.append(AuditEntry(rule, [left] + extra, right, "equivalence",
                                      "vacuous"))
            continue
        if flags[left] != flags[right]:
            raise InternalInconsistencyError(
                f"proven equivalence {rule} violated: {left}={flags[left]} "
                f"but {right}={flags[right]}")
        entries.append(AuditEntry(rule, [left] + extra, right, "equivalence", "holds"))
    return entries


def analyze(m: Bimodule, seed: int = 0) -> AnalysisReport:
    """Run every decider on one bimodule and audit the proven implications.

    Exact deciders yield True/False; randomized isomorphism searches may
    yield None, shown as 'inconclusive' and excluded from the audit.
    """
    tower = bimodule_tower(m)
    flags: dict = {}
    witnesses: dict = {}

    nu = is_separable_bimodule(m)
    flags["m_separable"] = nu is not None
    if nu is not None:
        witnesses["m_separable"] = {"splitting": nu.matrix}

    nu_star = is_separable_bimodule(right_dual(m))
    flags["mstar_separable"] = nu_star is not None
    if nu_star is not None:
        witnesses["mstar_separable"] = {"splitting": nu_star.matrix}
    section = is_cosplit(tower.comatrix.coring)
    flags["comatrix_cosplit"] = section is not None
    if flags["mstar_separable"] != flags["comatrix_cosplit"]:
        raise InternalInconsistencyError(
            "separability of the dual disagrees with cosplitness of the comatrix coring")
    if section is not None:
        witnesses["comatrix_cosplit"] = {"section": section.matrix}

    frob = is_frobenius_bimodule(m, seed=seed)
    flags["m_frobenius"] = _tri(frob)
    if frob.found:
        witnesses["m_frobenius"] = {"theta": frob.map.matrix}

    ci = find_cointegral(tower.comatrix.coring)
    flags["comatrix_coseparable"] = ci is not None
    if ci is not None:
        witnesses["comatrix_coseparable"] = {"cointegral": ci.gamma_amb}

    cfs = find_frobenius_system(tower.comatrix.coring, seed=seed)
    flags["comatrix_frobenius"] = _tri(cfs)
    if cfs.found:
        witnesses["comatrix_frobenius"] = {
            "gamma": cfs.system.gamma_amb, "invariant": cfs.system.invariant}

    split = split_extension_check(tower.b_to_s)
    flags["extension_split"] = split is not None
    if split is not None:
        witnesses["extension_split"] = {"retraction": split.matrix}

    ext_frob = frobenius_extension_check(tower.b_to_s, seed=seed)
    flags["extension_frobenius"] = _tri(ext_frob)
    if ext_frob.found and ext_frob.map is not None:
        witnesses["extension_frobenius"] = {"iso": ext_frob.map.matrix}

    sw_section = is_cosplit(tower.sweedler)
    flags["sweedler_cosplit"] = sw_section is not None
    if sw_section is not None:
        witnesses["sweedler_cosplit"] = {"section": sw_section.matrix}

    sw_ci = find_cointegral(tower.sweedler)
    flags["sweedler_coseparable"] = sw_ci is not None
    if sw_ci is not None:
        witnesses["sweedler_coseparable"] = {"cointegral": sw_ci.gamma_amb}

    sw_fs = find_frobenius_system(tower.sweedler, seed=seed)
    flags["sweedler_frobenius"] = _tri(sw_fs)
    if sw_fs.found:
        witnesses["sweedler_frobenius"] = {
            "gamma": sw_fs.system.gamma_amb, "invariant": sw_fs.system.invariant}

    flags["b_s_faithfully_flat"] = (faithfully_flat_check(tower.b_to_s, "left")
                                    or faithfully_flat_check(tower.b_to_s, "right"))

    will = williard_check(m, seed=seed)
    flags["williard"] = _tri(will)
    if will.found and will.map is not None:
        witnesses["williard"] = {"iso": will.map.matrix}

    # witness-level transports for the forward theorems
    if section is not None:
        lifted = lift_cosplit(m, section)
        witnesses["sweedler_cosplit_lift"] = {"section": lifted.matrix}
    if nu is not None:
        constructed = cointegral_from_separability(m, nu)
        witnesses["comatrix_cointegral_constructed"] = {"gamma": constructed.gamma_amb}
        lifted_ci = lift_cointegral(m, constructed)
        witnesses["sweedler_cointegral_lift"] = {"gamma": lifted_ci.gamma_amb}
    if frob.found and cfs.found:
        iota = iota_from_frobenius(m, frob.map)
        witnesses["iota"] = {"matrix": iota.matrix}
        lifted_fs = lift_frobenius_system(m, cfs.system)
        witnesses["sweedler_frobenius_lift"] = {
            "gamma": lifted_fs.gamma_amb, "invariant": lifted_fs.invariant}

    report = AnalysisReport(m, flags, witnesses)
    report.implication_audit = _audit(flags)
    return report

"""Structure checks for bimodules and the corings they generate:
separability, Frobenius property, split and Frobenius extensions, the
transport of cosplit sections, cointegrals and Frobenius systems to the
endomorphism-ring Sweedler coring, faithful flatness, the Williard
condition, and the aggregate analyzer with its implication audit.

All deciders are exact linear algebra except the isomorphism searches,
which report an explicit inconclusive status instead of guessing.

Modules of maps into an algebra (Hom_B(S, B), Hom_S(M, S), M^*) are read
from the memoized one-sided duals of ``bimodule``, never solved for again.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import Algebra, AlgebraMap
from .bimodule import (
    Bimodule,
    BimoduleMap,
    DualBasis,
    DualModule,
    IsoSearch,
    SIso,
    _combination,
    _induced_action,
    _matrix_subspace_coords,
    _memo,
    canonical_s_iso,
    dual_basis,
    hom_bimodule,
    left_dual,
    left_dual_basis,
    left_endomorphism_algebra,
    random_bimodule_iso,
    regular_bimodule,
    restrict_right,
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
    FrobeniusSearch,
    FrobeniusSystem,
    _central_section,
    find_cointegral,
    find_frobenius_system,
    is_cosplit,
    splits,
    sweedler_coring,
    verify_cointegral,
    verify_frobenius_system,
)
from .errors import CoringLabError, InternalInconsistencyError, NotProjectiveError
from .fields import Field
from .linalg import _solve, rank

__all__ = [
    "AnalysisReport",
    "AuditEntry",
    "BimoduleTower",
    "bimodule_tower",
    "dual_evaluation",
    "is_separable_bimodule",
    "is_frobenius_bimodule",
    "split_extension_check",
    "split_from_separability",
    "retracts",
    "frobenius_extension_check",
    "lift_cosplit",
    "cointegral_from_separability",
    "lift_cointegral",
    "iota_from_frobenius",
    "lift_frobenius_system",
    "faithfully_flat_check",
    "hom_to_s",
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


@_memo
def dual_evaluation(m: Bimodule):
    """M (x)_A *M presented, and the matrix of the evaluation
    m (x) psi -> psi(m) into B on its coordinates."""
    f = m.field
    ld = left_dual(m)
    ts = tensor_over(m, ld)
    eval_amb = f.zeros((m.left_alg.dim, m.dim * ld.dim))
    for kappa, psi in enumerate(ld.functional_mats):
        eval_amb[:, kappa::ld.dim] = psi
    return ts, eval_amb[:, ts.free]


def is_separable_bimodule(m: Bimodule):
    """A splitting of the evaluation M (x)_A *M -> B, or None; exact.

    The splitting is a (B, B)-bimodule map out of B, hence determined by a
    B-central element with evaluation 1.
    """
    ts, evaluation = dual_evaluation(m)
    return _central_section(ts.space, evaluation)


def is_frobenius_bimodule(m: Bimodule, seed: int = 0) -> IsoSearch:
    """Projectivity on both sides plus an (A, B)-isomorphism between the
    two one-sided duals."""
    if dual_basis(m) is None or left_dual_basis(m) is None:
        return IsoSearch("none")
    return random_bimodule_iso(right_dual(m), left_dual(m), seed=seed)


def retracts(ring_map: AlgebraMap, mat) -> bool:
    """True when ``mat`` is a B-bimodule map S -> B with value 1 at 1, a
    retraction of the ring map B -> S."""
    b = ring_map.source
    return (BimoduleMap(target_bb(ring_map), regular_bimodule(b), mat,
                        _validate=False).commutes_with_actions()
            and Field.equal(b.field.matmul(mat, ring_map.target.unit), b.unit))


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
# transports along the identification of S with M (x)_A M^*
#
# omega(m (x) phi) = (x -> m.phi(x)) identifies M (x)_A M^* with S, so for the
# comatrix coring C, C (x)_A C = M^* (x)_B S (x)_B M, and the Sweedler coring
# of B -> S has square S (x)_B S (x)_B S.  Both corings hold P = M (x)_A N as
# S in the same coordinates (``Coring.middle``), and a B-bimodule map f: S -> S
# is the map
#
#   gamma_f(phi (x) m (x) psi (x) n) = phi(f(omega(m (x) psi)) . n),
#   gamma~_f((a (x) x) (x) (y (x) b)) = a f(xy) b
#
# on either square.  Cointegrals and Frobenius systems hold f, so a
# (pre-)cointegral of C goes to the Sweedler coring as the same f: the
# transport is the identity on f, and only the invariant of a Frobenius
# system is moved (``_tilde_invariant``).
#
# Each transport is the proof of a rule of ``_RULES``, a function of the
# witness of the rule's premise, so ``analyze`` writes none of them:
# ``cli.verify_report_witnesses`` runs each one from the report's witness.
# ---------------------------------------------------------------------------


def _tilde_invariant(tower: BimoduleTower, e_vec):
    """Transport a central element of the comatrix coring into S (x)_B S.

    Writes e = sum_a w_a^* (x) w_a by its lift to the free columns and returns
    sum_{j,a} omega(e_j (x) w_a^*) (x) omega(w_a (x) e_j^*).
    """
    f = tower.module.field
    # (alpha, i) coefficients of phi_alpha (x) e_i
    w = tower.comatrix.coring.carrier_tensor.lift(e_vec)
    first = f.tensordot(tower.s_iso.omega, w, ([2], [0]))  # (s1, j, i)
    # (s2, i, k): omega(e_i (x) e_k^*)
    omega_dual = f.tensordot(tower.s_iso.omega, np.stack(tower.basis.functional_coords),
                             ([2], [1]))
    pairs = f.tensordot(first, omega_dual, ([1, 2], [2, 1]))  # (s1, s2)
    return f.matmul(tower.sweedler.carrier_tensor.projection, pairs.reshape(-1))


def _verified(witness, check, what: str):
    """``witness`` when ``check`` accepts it; else a theorem failed."""
    if not check(witness):
        raise InternalInconsistencyError(f"{what} fails verification")
    return witness


def lift_cosplit(m: Bimodule, section: BimoduleMap):
    """Transport a cosplit section of the comatrix coring to one of the
    Sweedler coring of B -> S; verified against multiplication."""
    tower = bimodule_tower(m)
    f = m.field
    e_vec = f.matmul(section.matrix, m.right_alg.unit)
    tilde = _tilde_invariant(tower, e_vec)
    sw = tower.sweedler
    # s -> s.tilde is right S-linear iff tilde is central, and it splits the
    # counit (multiplication) iff tilde multiplies to 1
    section = np.stack([f.matmul(x, tilde) for x in sw.carrier.left_mats], axis=1)
    if not splits(sw.carrier, sw.counit_mat, section):
        raise InternalInconsistencyError("transported section does not split the counit")
    return BimoduleMap(regular_bimodule(sw.base), sw.carrier, section, _validate=False)


def split_from_separability(m: Bimodule, nu: BimoduleMap) -> BimoduleMap:
    """The split-extension witness s: S -> B induced by a separability
    splitting, normalized so that s applied to the dual-basis invariant is 1."""
    tower = bimodule_tower(m)
    f = m.field
    ts = dual_evaluation(m)[0]
    ld = ts.right_factor
    v = ts.lift(f.matmul(nu.matrix, m.left_alg.unit))  # (module, left-dual)
    s_alg = tower.end.algebra
    b = m.left_alg
    # s(endo) = sum_{i, kappa} v[i, kappa] psi_kappa(endo(e_i))
    psi = f.tensordot(v, np.stack(ld.functional_mats), ([1], [0]))  # (i, b, m')
    mat = f.tensordot(psi, np.stack(s_alg.endo_mats), ([0, 2], [2, 1]))  # (b, beta)
    if not retracts(tower.b_to_s, mat):
        raise InternalInconsistencyError("separability witness is not a normalized retraction")
    return BimoduleMap(target_bb(tower.b_to_s), regular_bimodule(b), mat, _validate=False)


def cointegral_from_separability(m: Bimodule, nu: BimoduleMap) -> Cointegral:
    """The constructive cointegral eps o (M^* (x) s (x) M) of a separable
    bimodule: gamma_f for f = (B -> S) o s, verified as a full cointegral."""
    tower = bimodule_tower(m)
    f_mat = m.field.matmul(tower.b_to_s.matrix, split_from_separability(m, nu).matrix)
    return _verified(Cointegral(tower.comatrix.coring, f_mat), verify_cointegral,
                     "constructed cointegral")


def lift_cointegral(m: Bimodule, ci: Cointegral) -> Cointegral:
    """Transport a cointegral of the comatrix coring to S (x)_B S: gamma~_f
    for its f, verified as a normalized cointegral."""
    return _verified(Cointegral(bimodule_tower(m).sweedler, ci.f_mat), verify_cointegral,
                     "transported cointegral")


def iota_from_frobenius(m: Bimodule, theta: BimoduleMap) -> np.ndarray:
    """The matrix, from coring coordinates to left-endomorphism coordinates,
    of iota(phi (x) m)(x) = theta(phi)(x) . m, the bijection from the
    comatrix coring onto left endomorphisms built from a Frobenius
    isomorphism of duals; verified bijective, right-linear over the dual
    ring action and left A-linear."""
    data = bimodule_tower(m).comatrix
    ts = data.coring.carrier_tensor
    f = m.field
    if left_dual_basis(m) is None:
        raise NotProjectiveError("module is not projective over its left algebra")
    ld = theta.target
    endos = left_endomorphism_algebra(m)
    psis = np.stack([ld.mat_of(col) for col in theta.matrix.T])  # (alpha, b, x)
    # iota(phi_alpha (x) e_i) = (x -> theta(phi_alpha)(x) . e_i), as (alpha, i, m', x)
    cols = f.tensordot(psis, m.left_action, ([1], [0])).transpose(0, 2, 3, 1)
    iota_amb = _matrix_subspace_coords(f, endos.endo_mats, cols.reshape(-1, m.dim, m.dim)).T
    iota = iota_amb[:, ts.free]
    if data.coring.dim != endos.dim or rank(f, iota) != endos.dim:
        raise InternalInconsistencyError("iota is not bijective")
    # right linearity over R = End_B(M) acting by phi (x) m . r = phi (x) r(m)
    for rho, r_mat in enumerate(endos.endo_mats):
        act = ts.induced_map(f.eye(data.dual.dim), r_mat, ts)
        if not Field.equal(f.matmul(iota, act), f.matmul(endos.right_mult[rho], iota)):
            raise InternalInconsistencyError(f"iota is not right-linear at endo {rho}")
    # left A-linearity, with a acting on endomorphisms by (a.r)(x) = r(x.a)
    twisted = _induced_action(f, endos.endo_mats,
                              [[f.matmul(r, x) for r in endos.endo_mats] for x in m.right_mats])
    for a_idx in range(m.right_alg.dim):
        if not Field.equal(f.matmul(iota, data.coring.carrier.left_mats[a_idx]),
                           f.matmul(twisted[a_idx].T, iota)):
            raise InternalInconsistencyError(f"iota is not left-linear at base {a_idx}")
    return iota


def lift_frobenius_system(m: Bimodule, fs: FrobeniusSystem) -> FrobeniusSystem:
    """Transport a reduced Frobenius system of the comatrix coring to the
    Sweedler coring of B -> S; fully re-verified."""
    tower = bimodule_tower(m)
    lifted = FrobeniusSystem(tower.sweedler, fs.f_mat, _tilde_invariant(tower, fs.invariant))
    return _verified(lifted, verify_frobenius_system, "transported Frobenius system")


# ---------------------------------------------------------------------------
# flatness and the Williard condition, on the memoized one-sided duals
# ---------------------------------------------------------------------------


def _generates(dual: DualModule, alg: Algebra) -> bool:
    """True when the values of the functionals of ``dual`` span ``alg``: the
    trace ideal of the module is the whole algebra."""
    if not dual.functional_mats:
        return False
    return rank(alg.field, np.concatenate(dual.functional_mats, axis=1)) == alg.dim


def faithfully_flat_check(ring_map: AlgebraMap, side: str) -> bool:
    """Finite-dimensional criterion: S a projective generator over B on the
    given side, that is a dual basis there and the values of that side's
    dual spanning B."""
    if side == "right":
        module, basis, dual = target_sb(ring_map), dual_basis, right_dual
    elif side == "left":
        module, basis, dual = target_bs(ring_map), left_dual_basis, left_dual
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return basis(module) is not None and _generates(dual(module), ring_map.source)


def hom_to_s(tower: BimoduleTower) -> Bimodule:
    """Hom_S(M, S) as an (A, B)-bimodule: ``left_dual`` of M as an
    (S, A)-bimodule, B acting through B -> S: (a.g.b)(x) = g(x.a) b."""
    return restrict_right(left_dual(tower.end.module_as_s_bimodule), tower.b_to_s)


def williard_check(m: Bimodule, seed: int = 0) -> IsoSearch:
    """Hom_S(M, S) compared with the right dual over A, as (A, B)-bimodules;
    a generator module short-circuits to found."""
    tower = bimodule_tower(m)
    if _generates(right_dual(m), m.right_alg):
        return IsoSearch("found", None)
    return random_bimodule_iso(hom_to_s(tower), right_dual(m), seed=seed)


# ---------------------------------------------------------------------------
# the aggregate analyzer
# ---------------------------------------------------------------------------

# One row per flag: (name, decider on the tower and the seed, witness parts
# of a positive result as (part, attribute) pairs).  A decider is named
# inside its lambda, so it is looked up in this module when it runs.
_FLAGS = (
    ("m_separable", lambda t, seed: is_separable_bimodule(t.module), [("splitting", "matrix")]),
    ("mstar_separable", lambda t, seed: is_separable_bimodule(right_dual(t.module)),
     [("splitting", "matrix")]),
    ("m_frobenius", lambda t, seed: is_frobenius_bimodule(t.module, seed=seed),
     [("theta", "matrix")]),
    ("comatrix_cosplit", lambda t, seed: is_cosplit(t.comatrix.coring), [("section", "matrix")]),
    ("comatrix_coseparable", lambda t, seed: find_cointegral(t.comatrix.coring), [("f", "f_mat")]),
    ("comatrix_frobenius", lambda t, seed: find_frobenius_system(t.comatrix.coring, seed=seed),
     [("f", "f_mat"), ("invariant", "invariant")]),
    ("extension_split", lambda t, seed: split_extension_check(t.b_to_s),
     [("retraction", "matrix")]),
    ("extension_frobenius", lambda t, seed: frobenius_extension_check(t.b_to_s, seed=seed),
     [("iso", "matrix")]),
    ("sweedler_cosplit", lambda t, seed: is_cosplit(t.sweedler), [("section", "matrix")]),
    ("sweedler_coseparable", lambda t, seed: find_cointegral(t.sweedler), [("f", "f_mat")]),
    ("sweedler_frobenius", lambda t, seed: find_frobenius_system(t.sweedler, seed=seed),
     [("f", "f_mat"), ("invariant", "invariant")]),
    ("b_s_faithfully_flat", lambda t, seed: (faithfully_flat_check(t.b_to_s, "left")
                                             or faithfully_flat_check(t.b_to_s, "right")), []),
    ("williard", lambda t, seed: williard_check(t.module, seed=seed), [("iso", "matrix")]),
)

FLAG_NAMES = [name for name, _, _ in _FLAGS]
# the parts of each witness a report writes, one witness for each true flag
WITNESS_PARTS = {name: [part for part, _ in parts] for name, _, parts in _FLAGS if parts}


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


_FOUND = {"found": True, "none": False}


def _read(result):
    """(flag value, witness) of a decider's result: a search's status gives
    True, False or None (inconclusive), and its map or system is the
    witness; a bool stands as it is, with no witness; any other result is
    True, and its own witness, when it is not None."""
    if isinstance(result, IsoSearch):
        return _FOUND.get(result.status), result.map
    if isinstance(result, FrobeniusSearch):
        return _FOUND.get(result.status), result.system
    if isinstance(result, bool):
        return result, None
    return result is not None, result


# (rule, kind, hypotheses, conclusion, transport).  An implication holds
# when all its hypotheses and its conclusion do; an equivalence says that,
# when every hypothesis after the first holds, the first and the conclusion
# agree.  The transport, or None, is the rule's proof: it builds from a
# witness of the first hypothesis what proves the conclusion, and raises when
# that fails verification.  It is named inside its lambda, so it is looked up
# in this module when it runs.
_RULES = [
    ("cosplit_descends_to_sweedler", "implication", ["comatrix_cosplit"], "sweedler_cosplit",
     lambda m, w: lift_cosplit(m, w)),
    ("coseparable_from_separable", "implication", ["m_separable"], "comatrix_coseparable",
     lambda m, w: cointegral_from_separability(m, w)),
    ("coseparable_descends_to_sweedler", "implication", ["comatrix_coseparable"],
     "sweedler_coseparable", lambda m, w: lift_cointegral(m, w)),
    ("frobenius_from_bimodule", "implication", ["m_frobenius"], "comatrix_frobenius",
     lambda m, w: iota_from_frobenius(m, w)),
    ("frobenius_descends_to_sweedler", "implication", ["comatrix_frobenius"],
     "sweedler_frobenius", lambda m, w: lift_frobenius_system(m, w)),
    ("endomorphism_ring_theorem", "implication", ["m_frobenius"], "extension_frobenius", None),
    ("split_descends_to_sweedler_cosplit", "implication", ["extension_split"],
     "sweedler_coseparable", None),
    ("dual_separable_iff_cosplit", "equivalence", ["mstar_separable"], "comatrix_cosplit", None),
    ("sugano_split_extension", "equivalence", ["m_separable"], "extension_split", None),
    ("ff_separable_iff_comatrix_coseparable", "equivalence",
     ["m_separable", "b_s_faithfully_flat"], "comatrix_coseparable", None),
    ("ff_separable_iff_sweedler_coseparable", "equivalence",
     ["m_separable", "b_s_faithfully_flat"], "sweedler_coseparable", None),
    ("ff_williard_frobenius_iff_comatrix", "equivalence",
     ["m_frobenius", "b_s_faithfully_flat", "williard"], "comatrix_frobenius", None),
    ("ff_williard_frobenius_iff_sweedler", "equivalence",
     ["m_frobenius", "b_s_faithfully_flat", "williard"], "sweedler_frobenius", None),
]


def _audit(flags: dict) -> list:
    entries = []
    for rule, kind, hyps, concl, _ in _RULES:
        conditions = hyps if kind == "implication" else hyps[1:]
        if any(flags[n] is None for n in hyps + [concl]):
            status = "skipped_inconclusive"
        elif not all(flags[h] for h in conditions):
            status = "vacuous"
        elif kind == "implication" and not flags[concl]:
            raise InternalInconsistencyError(
                f"proven implication {rule} violated: {hyps} -> {concl}")
        elif kind == "equivalence" and flags[hyps[0]] != flags[concl]:
            raise InternalInconsistencyError(
                f"proven equivalence {rule} violated: {hyps[0]}={flags[hyps[0]]} "
                f"but {concl}={flags[concl]}")
        else:
            status = "holds"
        entries.append(AuditEntry(rule, list(hyps), concl, kind, status))
    return entries


def analyze(m: Bimodule, seed: int = 0) -> AnalysisReport:
    """Run every decider on one bimodule and audit the proven implications.

    Exact deciders yield True/False; randomized isomorphism searches may
    yield None, shown as 'inconclusive' and excluded from the audit.
    """
    if seed < 0:
        raise CoringLabError(f"seed must be non-negative, got {seed}")
    tower = bimodule_tower(m)
    flags, witnesses = {}, {}
    for name, decide, parts in _FLAGS:
        flags[name], witness = _read(decide(tower, seed))
        if witness is not None:
            witnesses[name] = {part: getattr(witness, attr) for part, attr in parts}
    report = AnalysisReport(m, flags, witnesses)
    report.implication_audit = _audit(flags)
    return report

"""Corings over an algebra: validated axioms, Sweedler corings, coring maps,
left dual rings, cosplit sections, cointegrals and reduced Frobenius systems.

Every coring is the coring N (x)_B M of a context (A, B, N, M, sigma, tau):
the comatrix, Sweedler and context corings alike.  It is built from the
presented N (x)_B M, the pairs (m_i, n_i) of tau(1) and the counit sigma,
and validated through its context, with no product in C (x)_A C.  A coring
map is induced by onto maps of the context factors and checked by the
counit alone (``CoringMorphism``).  The left dual ring applies the
coproduct leg by leg from the pairs.

Maps gamma: C (x)_A C -> A are held as maps f of P: C (x)_A C =
N (x)_B P (x)_B M for P = M (x)_A N (``ContextMiddle``), and the A-bimodule
maps gamma are the gamma_f of the (B, B)-bimodule maps f of P.  Every
condition on gamma is written on f: ``Coring.precointegral_rows``,
``Coring.after_delta`` (gamma o Delta = eps) and ``Coring.normalizations``
(of Frobenius systems).  ``Coring.precointegrals`` is a basis of such f,
and ``Cointegral`` and ``FrobeniusSystem`` hold f, the form a report
writes.  The dual-ring criterion reads its f off the isomorphism it finds,
and builds no gamma.  Above ``_SQUARE_DIM_LIMIT`` the pre-cointegral space
is refused (TooLargeToValidateError).

The central elements of a carrier, the x with a.x = x.a, are k^d
restricted one slab of basis elements of A at a time
(``algebra._central_kernel``), with no stacked system.  A cosplit section
is read from that basis by one solve with a row for each basis element of
A, and the Frobenius search combines its elements by their coefficients.

No array lives on the field tensor square of the carrier: the coproduct
is its pairs, and ``construct`` writes a coring as its context.
``Coring.square``, the dense ``tensor_over(C, C)``, is read by no library
code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .algebra import (
    Algebra,
    AlgebraMap,
    _central_defect,
    _central_kernel,
    check_algebra_map,
    opposite,
)
from .bimodule import (
    Bimodule,
    BimoduleMap,
    TensorSpace,
    _induced_action,
    _matrix_subspace_coords,
    _memo,
    _products,
    intertwiners,
    left_dual,
    random_bimodule_iso,
    regular_bimodule,
    span_search,
    target_bb,
    target_bs,
    target_sb,
    tensor_over,
)
from .errors import (
    ContextAxiomError,
    CoringAxiomError,
    FieldMismatchError,
    InternalInconsistencyError,
    TooLargeToValidateError,
)
from .fields import Field
from .linalg import _first_mismatch, _slabs, _solve, _successive_kernel, rank

__all__ = [
    "Coring",
    "ContextMiddle",
    "CoringMorphism",
    "Cointegral",
    "FrobeniusSystem",
    "FrobeniusSearch",
    "sweedler_coring",
    "left_dual_ring",
    "is_cosplit",
    "splits",
    "central_subspace",
    "find_cointegral",
    "verify_cointegral",
    "verify_frobenius_system",
    "find_frobenius_system",
]

# Coring.precointegrals (and Coring.square) refuse carriers above this size.
# The pre-cointegrals need no dense array; lifting the limit decides recipes
# 0, 9 and k^3, whose 0.2-0.8 s would move the analyze-fp p90 with no case
# slower (ROADMAP item 1).
_SQUARE_DIM_LIMIT = 32
# find_frobenius_system enumerates central subspaces up to this size, else samples
_FROBENIUS_ENUMERATION_BUDGET = 2**16
_FROBENIUS_RANDOM_ATTEMPTS = 64


def _too_large(dim: int) -> TooLargeToValidateError:
    return TooLargeToValidateError(
        f"carrier dimension {dim} is above {_SQUARE_DIM_LIMIT}, the limit of the "
        f"pre-cointegral space")


@dataclass
class ContextMiddle:
    """P = M (x)_A N for a context coring C = N (x)_B M, the middle of
    C (x)_A C = N (x)_B P (x)_B M, in coordinates the constructor chooses:
    ``space``, P as a (B, B)-bimodule, ``of_pair`` [m, n, q], the
    P-coordinates of e_m (x) e_n, and ``lift`` [q, m, n], a representative
    of each basis element of P in the field tensor M (x) N."""

    space: Bimodule
    of_pair: np.ndarray
    lift: np.ndarray


def _tensor_middle(ts: TensorSpace) -> ContextMiddle:
    """P presented as ``tensor_over(M, N)`` for ts = N (x)_B M."""
    m, n = ts.right_factor, ts.left_factor
    p = tensor_over(m, n)
    return ContextMiddle(p.space, p.projection.T.reshape(m.dim, n.dim, p.dim),
                         p.lift(m.field.eye(p.dim)))


@_memo
def _endomorphisms(space: Bimodule):
    """The intertwiner basis of End_{B-B}(P) for P a (B, B)-bimodule,
    stacked, built once per bimodule: the comatrix and the Sweedler coring
    of one analysis share P = S = End_A(M)."""
    acts = space.left_mats + space.right_mats
    return np.stack(intertwiners(space.field, acts, acts))


class Coring:
    """The coring C = N (x)_B M of a context (A, B, N, M, sigma, tau) on
    ts = N (x)_B M, for pairs (m_i, n_i) with tau(1) = sum_i m_i (x) n_i:
    Delta(n (x) m) = sum_i n (x) m_i (x) n_i (x) m, counit sigma.

    It is validated through its context, with no product in C (x)_A C:
    sigma is an A-bimodule map, and the two diagrams
    (``check_context_diagrams``) make C a coring.  By the second diagram,
    sigma balanced over B and the first, tau(1) is B-central:
    b tau(1) = sum_ij m_j sigma(n_j (x) b m_i) (x) n_i
    = sum_j m_j (x) sum_i sigma(n_j b (x) m_i) n_i = sum_j m_j (x) n_j b.
    So Delta is a well-defined A-bimodule map into
    C (x)_A C = N (x)_B (M (x)_A N) (x)_B M.  Both composites of
    coassociativity send n (x) m to
    sum_ij n (x) m_i (x) n_i (x) m_j (x) n_j (x) m, and the counit laws are
    the two diagrams on the outer legs.

    ``middle``, a function of no arguments, gives P = M (x)_A N as a
    ``ContextMiddle``; by default it presents ``tensor_over(M, N)``.  It is
    called on the first read of P, by ``precointegrals`` or a check on f.
    Maps C (x)_A C -> A are held as maps f of P, in these coordinates.

    The structure maps never change after construction; the actions of the
    carrier when its presentation has no relations (``carrier``), the legs
    of the pairs, the dense tensor square (``square``, which no library code
    reads), P, the pre-cointegral rows and space and the left dual ring are
    built on first use and memoized on the coring or its carrier tensor.
    Construction, validation and the context document read none of them.
    """

    validation = "full"  # every coring is checked in full at construction

    def __init__(self, ts: TensorSpace, pairs, counit_mat, middle=None):
        self.carrier_tensor = ts
        self.tau_pairs = list(pairs)
        self.base = ts.left_factor.left_alg
        self.field = self.base.field
        self.counit_mat = self.field.asarray(counit_mat)
        if self.counit_mat.shape != (self.base.dim, self.dim):
            raise CoringAxiomError(f"counit matrix has shape {self.counit_mat.shape}")
        self._middle_of = middle or (lambda: _tensor_middle(ts))
        self._square: TensorSpace | None = None
        self._precointegrals: np.ndarray | None = None
        self._memo: dict = {}  # values of the ``_memo`` functions of this coring
        self.validate()

    @property
    def carrier(self) -> Bimodule:
        """C as an A-bimodule: the outer actions of the carrier tensor, built
        on its first read (``TensorSpace.space``)."""
        return self.carrier_tensor.space

    @property
    def dim(self) -> int:
        return self.carrier_tensor.dim

    @property
    def square(self) -> TensorSpace:
        """C (x)_A C as the dense ``tensor_over(C, C)``, built once per coring
        and refused above the limit with the capacity error.  No library
        code reads it; it stays because ``bench/tracing.py`` wraps it
        (ROADMAP item 8)."""
        if self._square is None:
            if self.dim > _SQUARE_DIM_LIMIT:
                raise _too_large(self.dim)
            self._square = tensor_over(self.carrier, self.carrier)
        return self._square

    @cached_property
    def middle(self) -> ContextMiddle:
        """P = M (x)_A N, from the function given to the constructor."""
        return self._middle_of()

    @cached_property
    def sigma_pairs(self):
        """[a', n, m]: sigma(e_n (x) e_m)."""
        ts = self.carrier_tensor
        return self.field.matmul(self.counit_mat, ts.projection).reshape(
            self.base.dim, ts.left_factor.dim, ts.right_factor.dim)

    @cached_property
    def middle_actions(self):
        """[q, m, m'] and [n, q, n']: the actions (m (x) n).m' = m.sigma(n (x) m')
        of P on M and n'.(m (x) n) = sigma(n' (x) m).n on N, read through the
        lift of each basis element of P; both are balanced over A."""
        f, mid, ts = self.field, self.middle, self.carrier_tensor
        sig = self.sigma_pairs
        on_m = f.tensordot(f.tensordot(mid.lift, sig, ([2], [1])),  # (q, m, a', m')
                           ts.right_factor.right_action, ([1, 2], [0, 1]))
        on_n = f.tensordot(f.tensordot(sig, mid.lift, ([2], [1])),  # (a', n', q, n)
                           ts.left_factor.left_action, ([0, 3], [0, 1]))
        return on_m, on_n

    @cached_property
    def pair_legs(self):
        """[u, n, i] and [v, i, m]: e_n (x) m_i and n_i (x) e_m in C for the
        pairs (m_i, n_i), the two legs of Delta(e_n (x) e_m)
        = sum_i (e_n (x) m_i) (x) (n_i (x) e_m); built once per coring."""
        f, ts = self.field, self.carrier_tensor
        ms, ns = _pair_matrices(f, self.tau_pairs, ts.right_factor.dim, ts.left_factor.dim)
        proj = ts.projection.reshape(self.dim, ts.left_factor.dim, ts.right_factor.dim)
        return (f.tensordot(proj, ms, ([2], [0])),
                f.tensordot(proj, ns, ([1], [0])).transpose(0, 2, 1))

    def middle_element(self, pairs):
        """sum_i m_i (x) n_i in P for pairs (m_i, n_i); tau(1) for the coring's."""
        f, ts = self.field, self.carrier_tensor
        ms, ns = _pair_matrices(f, pairs, ts.right_factor.dim, ts.left_factor.dim)
        return f.tensordot(f.tensordot(self.middle.of_pair, ms, ([0], [0])), ns,
                           ([0, 2], [0, 1]))

    @cached_property
    def _on_sigma(self):
        """[q', a', n, m]: sigma(n (x) e_q'.m), built once per coring."""
        on = self.field.tensordot(self.middle_actions[0], self.sigma_pairs, ([2], [2]))
        return np.ascontiguousarray(on.transpose(0, 2, 3, 1))

    def after_delta(self, f_mats):
        """gamma_f o Delta for a stack ``f_mats`` [k, q', q] of matrices on P,
        as a stack [k, a', n, m] on the basis elements n (x) m of C: as
        Delta(n (x) m) = sum_i n (x) (m_i (x) n_i) (x) m, it is
        sigma(n (x) f(t).m) for t = tau(1) in P.  It equals ``sigma_pairs``
        iff gamma_f o Delta = eps, as the n (x) m span C."""
        f, t = self.field, self.middle_element(self.tau_pairs)
        return f.tensordot(f.tensordot(f.asarray(f_mats), t, ([2], [0])), self._on_sigma,
                           ([1], [0]))

    def normalizations(self, f_mats, invariants):
        """[k, j, 2, a', n, m]: gamma_f(n (x) m (x) e) and gamma_f(e (x) n (x) m)
        for f in a stack ``f_mats`` [j, q', q] of maps of P and e in a stack
        ``invariants`` [k, c].  For e = sum E[n', m'] n' (x) m' they are
        sum E[n', m'] sigma(n (x) f(m (x) n').m') and sum E[n', m']
        sigma(n' (x) f(m' (x) n).m), linear in f and in e; both equal
        ``sigma_pairs`` iff gamma_f(c (x) e) = gamma_f(e (x) c) = eps(c).
        The output is filled one slab of the f at a time (``linalg._slabs``)."""
        f, ts, on_sigma = self.field, self.carrier_tensor, self._on_sigma
        f_mats, lifts = f.asarray(f_mats), ts.lift(invariants)  # lifts (k, n', m')
        on_right = f.tensordot(lifts, self.middle.of_pair, ([1], [1]))  # (k, m', m, q)
        on_left = f.tensordot(lifts, self.middle.of_pair, ([2], [0]))  # (k, n', n, q)
        values = on_sigma.shape[1:]  # (a', n, m)
        out = f.zeros((len(lifts), len(f_mats), 2) + values)
        # a slab of the f forms valued [j, q, a', n, m] and each side [k, j, a', n, m]
        for sl in _slabs(len(f_mats), max(on_sigma.shape[0], len(lifts)) * prod(values)):
            valued = f.tensordot(f_mats[sl], on_sigma, ([1], [0]))
            out[:, sl, 0] = f.tensordot(on_right, valued, ([1, 3], [4, 1])).transpose(0, 2, 3, 4, 1)
            out[:, sl, 1] = f.tensordot(on_left, valued, ([1, 3], [3, 1])).transpose(0, 2, 3, 1, 4)
        return out

    @cached_property
    def precointegral_rows(self):
        """The rows W with W @ f = 0 iff f maps P into the space X of the x
        with n (x) x.m' = n.x (x) m' in C for all basis elements n, m': for
        f in End_{B-B}(P), iff gamma_f is a pre-cointegral
        (``precointegrals``).  Built once per coring.

        X is k^q restricted by ``linalg._successive_kernel``, by the defect
        of one slab of the n at a time, to its basis, the identity at its
        free coordinates.  The rows are read off it: row r is 1 at the
        coordinate rest[r] outside the free ones and -X[k, rest[r]] at
        free[k], so they span the annihilator of X, the row space of the
        defect."""
        f, ts, q = self.field, self.carrier_tensor, self.middle.space.dim
        on_m, on_n = self.middle_actions
        proj = ts.projection.reshape(self.dim, ts.left_factor.dim, ts.right_factor.dim)

        def equations(columns, rank):
            for sl in _slabs(ts.left_factor.dim, q * ts.right_factor.dim * self.dim):
                if rank():
                    # [q, n, m', c]: n (x) e_q.m' - n.e_q (x) m' in C, for the n of sl
                    defect = f.asarray(
                        f.tensordot(on_m, proj[:, sl], ([2], [2])).transpose(0, 3, 1, 2)
                        - f.tensordot(on_n[sl], proj, ([2], [1])).transpose(1, 0, 3, 2))
                    yield f.matmul(columns(np.arange(q)), defect.reshape(q, -1))

        kernel, free = _successive_kernel(f, q, equations)
        rest = np.ones(q, dtype=bool)
        rest[free] = False
        rest = np.flatnonzero(rest)
        rows = f.zeros((len(rest), q))
        rows[np.arange(len(rest)), rest] = 1
        rows[:, free] = f.asarray(-kernel[:, rest].T)
        return rows

    @property
    def precointegrals(self):
        """Basis of the pre-cointegrals, built once per coring: a stack
        [k, q', q] of the maps f of P whose gamma_f are the A-bimodule maps
        gamma: C (x)_A C -> A with
        sum c_1 gamma(c_2 (x) c') = sum gamma(c (x) c'_1) c'_2.

        C (x)_A C = N (x)_B P (x)_B M, and P = M (x)_A N acts on M and on N
        (``middle_actions``).  Each f in End_{B-B}(P) gives
        gamma_f(n (x) p (x) m') = sigma(n (x) f(p).m'), an A-bimodule map,
        balanced over B as f is B-linear and sigma B-balanced.  Each gamma
        gives f_gamma(p) = sum_ij m_i (x) gamma(n_i (x) p (x) m_j).n_j,
        B-linear as tau(1) is B-central.  The two are inverse.  By the
        A-linearity of gamma and the two diagrams,
        gamma_{f_gamma}(n (x) p (x) m')
        = gamma(sum_i sigma(n (x) m_i).n_i (x) p (x) sum_j m_j.sigma(n_j (x) m'))
        = gamma(n (x) p (x) m'); for f(p) = sum_k x_k (x) y_k the first
        diagram on y_k and then the second on x_k give
        f_{gamma_f}(p) = sum_ijk m_i (x) sigma(n_i (x) x_k) sigma(y_k (x) m_j).n_j
        = sum_ik m_i.sigma(n_i (x) x_k) (x) y_k = f(p).

        On c = n (x) m and c' = n' (x) m', with p = m (x) n', the second
        diagram gives sum c_1 gamma_f(c_2 (x) c')
        = sum_i n (x) m_i.sigma(n_i (x) f(p).m') = n (x) f(p).m', and the
        first gives sum gamma_f(c (x) c'_1) c'_2
        = sum_j sigma(n (x) f(p).m_j).n_j (x) m' = n.f(p) (x) m'.  So gamma_f
        is a pre-cointegral iff n (x) f(p).m' = n.f(p) (x) m' in C on basis
        elements n, p, m': iff f maps P into the x with n (x) x.m' = n.x (x) m'.
        For a Sweedler coring that is 1 (x) f(x) = f(x) (x) 1 in S (x)_B S.

        That condition, ``precointegral_rows``, is solved on the intertwiner
        basis of End_{B-B}(P) by ``linalg._successive_kernel``.  Each
        intertwiner is 1 at its own free entry, 0 at the other free entries
        and 0 after its own, so the kernel rows combine them into the reversed
        reduced echelon form in the entries of f, which is unique."""
        if self._precointegrals is None:
            if self.dim > _SQUARE_DIM_LIMIT:
                raise _too_large(self.dim)
            f = self.field
            homs = _endomorphisms(self.middle.space)  # (j, q', q)
            system = f.tensordot(homs, self.precointegral_rows, ([1], [1])).reshape(len(homs), -1)
            coeffs, _ = _successive_kernel(f, len(homs), lambda columns, rank: [system])
            self._precointegrals = f.asarray(f.tensordot(coeffs, homs, ([1], [0])))
        return self._precointegrals

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """sigma is an A-bimodule map, and the two context diagrams commute
        (``check_context_diagrams``).

        sigma is checked on the pure tensors of the factors,
        sigma(a.n (x) m) = a.sigma(n (x) m) and sigma(n (x) m.a) = sigma(n (x) m).a,
        one stacked product per side for a slab of the a or of the n at a
        time (``linalg._first_mismatch``).  That is the check on C: the action
        L_a of C is induced through the projection P of the carrier, with
        L_a P = P kron(lambda_a, I) (its descent check) and P S = I.  So
        eps L_a = a.eps iff eps L_a P = a.eps P, iff
        (eps P) kron(lambda_a, I) = a.(eps P), and eps P is ``sigma_pairs``;
        the right action is the mirror image."""
        f, ts, a = self.field, self.carrier_tensor, self.base
        if ts.right_factor.right_alg != a:
            raise FieldMismatchError("the counit needs the base algebra on both sides")
        sig = self.sigma_pairs
        n, m = ts.left_factor, ts.right_factor

        def left(sl):  # [a, a', n, m]: sigma(a.n (x) m) and a.sigma(n (x) m), for the a of sl
            return (f.tensordot(n.left_action[sl], sig, ([2], [1])).transpose(0, 2, 1, 3),
                    f.tensordot(a.structure[sl], sig, ([1], [0])))

        def right(sl):  # [n, m, a, a']: sigma(n (x) m.a) and sigma(n (x) m).a, for the n of sl
            return (f.tensordot(sig[:, sl], m.right_action, ([2], [2])).transpose(1, 2, 3, 0),
                    f.tensordot(sig[:, sl], a.structure, ([0], [0])))

        if (_first_mismatch(a.dim, sig.size, left) is not None
                or _first_mismatch(n.dim, m.dim * a.dim * a.dim, right) is not None):
            raise CoringAxiomError("counit is not a bimodule map into the base")
        check_context_diagrams(self.carrier_tensor, self.tau_pairs, sig)


def _pair_matrices(f: Field, pairs, m_dim: int, n_dim: int):
    """The m_i and the n_i of pairs (m_i, n_i), as the columns of two matrices."""
    pairs = list(pairs)
    return tuple(f.asarray(np.reshape([pair[k] for pair in pairs], (len(pairs), dim)).T)
                 for k, dim in ((0, m_dim), (1, n_dim)))


def check_context_diagrams(ts: TensorSpace, pairs, sig) -> None:
    """Raise ContextAxiomError unless n = sum_i sigma(n (x) m_i) . n_i and
    m = sum_i m_i . sigma(n_i (x) m) on the bases of N and M, for
    ts = N (x)_B M, pairs (m_i, n_i) and sig [a', n, m] the values
    sigma(e_n (x) e_m) (``Coring.sigma_pairs``)."""
    n, m = ts.left_factor, ts.right_factor
    f = n.field
    ms, ns = _pair_matrices(f, pairs, m.dim, n.dim)
    # [n, n'] = sum_{a, i} sigma(e_n (x) m_i)_a (e_a . n_i)_n', and the mirror [m, m']
    first = f.tensordot(f.tensordot(sig, ms, ([2], [0])),  # (a, n, i)
                        f.tensordot(n.left_action, ns, ([1], [0])), ([0, 2], [0, 2]))
    second = f.tensordot(f.tensordot(ns, sig, ([0], [1])),  # (i, a, m)
                         f.tensordot(ms, m.right_action, ([0], [0])), ([0, 1], [0, 1]))
    for which, law, dim in (("first", first, n.dim), ("second", second, m.dim)):
        if not Field.equal(law, f.eye(dim)):
            raise ContextAxiomError(f"{which} context diagram fails")


def sweedler_coring(ring_map: AlgebraMap) -> Coring:
    """The canonical coring A (x)_B A of a ring map B -> A."""
    if not check_algebra_map(ring_map):
        raise CoringAxiomError("Sweedler coring needs a unital algebra map")
    a = ring_map.target
    f = a.field
    ts = tensor_over(target_sb(ring_map), target_bs(ring_map))
    mult_amb = a.structure.reshape(a.dim * a.dim, a.dim).T

    def middle():  # P = S (x)_S S is S, a (B, B)-bimodule, with x = x (x) 1
        return ContextMiddle(target_bb(ring_map), a.structure,
                             f.asarray(f.eye(a.dim)[:, :, None] * a.unit[None, None, :]))

    # a (x) b -> a (x) 1 (x) 1 (x) b, counit the multiplication
    return Coring(ts, [(a.unit, a.unit)], mult_amb[:, ts.free], middle)


class CoringMorphism:
    """The coring map theta = alpha (x) beta from C = N (x)_B M to
    C' = N' (x)_B M', induced by onto bimodule maps alpha: N -> N' and
    beta: M -> M' of the two contexts (``TensorSpace.induced_map``), held in
    ``.matrix``.  It checks that alpha and beta are bimodule maps,
    that both are onto and that eps' theta = eps.  Then theta is an
    A-bimodule map, and it intertwines the coproducts:

    P' = M' (x)_A N' is a ring, (m1 (x) n1)(m2 (x) n2) = m1 (x) sigma'(n1 (x) m2).n2,
    and the two context diagrams of C' make t' = tau'(1) a two-sided unit
    of it.  Let s = sum_i beta(m_i) (x) alpha(n_i) for the pairs of C.  For
    p = beta(m) (x) alpha(n), counit preservation
    sigma'(alpha(n_i) (x) beta(m)) = sigma(n_i (x) m), A-linearity and the
    second diagram of C give
    s.p = sum_i beta(m_i) (x) sigma(n_i (x) m).alpha(n)
    = beta(sum_i m_i.sigma(n_i (x) m)) (x) alpha(n) = p.  Such p span P', as
    alpha and beta are onto, so s.x = x on P', and s = s.t' = t'.  Hence
    (theta (x) theta) Delta(n (x) m) = alpha(n) (x) s (x) beta(m)
    = alpha(n) (x) t' (x) beta(m) = Delta' theta(n (x) m) in
    C' (x)_A C' = N' (x)_B P' (x)_B M'.

    A map that is not onto raises CoringAxiomError: only maps induced by onto
    maps of the factors are checked.

    alpha and beta are given as matrices, checked here as bimodule maps, or
    as ``BimoduleMap`` objects between the factors, taken as checked when
    they were built.  With ``_validate=False`` only theta is built: the
    caller has shown that alpha and beta are onto and that theta keeps the
    counit."""

    def __init__(self, source: Coring, target: Coring, n_map, m_map, _validate: bool = True):
        if source.base != target.base:
            raise FieldMismatchError("coring morphism requires corings over the same base")
        self.source = source
        self.target = target
        self.field = f = source.field
        ts, target_ts = source.carrier_tensor, target.carrier_tensor
        factors = []
        for which, given, src, tgt in (("N", n_map, ts.left_factor, target_ts.left_factor),
                                       ("M", m_map, ts.right_factor, target_ts.right_factor)):
            if not isinstance(given, BimoduleMap):
                given = BimoduleMap(src, tgt, given)  # raises if it is not one
            elif given.source is not src or given.target is not tgt:
                raise FieldMismatchError(f"the map of {which} is not between the factors")
            if _validate and rank(f, given.matrix) != tgt.dim:
                raise CoringAxiomError(
                    f"the map of {which} is not onto; only coring maps induced by onto "
                    f"maps of the context factors are checked")
            factors.append(given)
        self.matrix = ts.induced_map(factors[0].matrix, factors[1].matrix, target_ts)
        if _validate and not Field.equal(f.matmul(target.counit_mat, self.matrix),
                                         source.counit_mat):
            raise CoringAxiomError("morphism does not preserve the counit")


@_memo
def left_dual_ring(c: Coring) -> Algebra:
    """Left-linear functionals C -> A, those of ``left_dual(c.carrier)``,
    with convolution-style product; built once per coring, with ``hits``,
    the stacked action matrices of c -> sum c_1 . xi(c_2) of the functionals
    xi."""
    f = c.field
    mats = left_dual(c.carrier).functional_mats
    if not mats:
        raise CoringAxiomError("left dual ring is zero; the counit cannot exist")
    # (xi eta)(e_c) = sum_{u,v} Delta-rep[u,v,c] xi(e_u . eta(e_v)) = xi(hit(eta) e_c)
    hits = _hit_from_right(c, np.stack(mats))
    structure = _induced_action(f, mats, _products(f, np.stack(mats), hits))
    unit = _matrix_subspace_coords(f, mats, [c.counit_mat])[0]
    ring = Algebra(f, structure, unit, name=f"*({c.carrier.name or 'C'})")
    ring.functional_mats, ring.hits = mats, hits
    return ring


def splits(space: Bimodule, value_mat, mat) -> bool:
    """True when ``mat`` is a bimodule map out of the regular bimodule of the
    algebra acting on both sides of ``space`` with value_mat o mat = id."""
    f, alg = space.field, space.left_alg
    return (BimoduleMap(regular_bimodule(alg), space, mat, _validate=False).commutes_with_actions()
            and Field.equal(f.matmul(value_mat, mat), f.eye(alg.dim)))


@_memo
def _central_basis(space: Bimodule):
    """The central elements of ``space``, x with b.x = x.b for the algebra
    acting on both sides, as the rows of their reversed reduced echelon
    basis (``algebra._central_kernel``), built once per bimodule: the
    cosplit and the Frobenius deciders of a coring share it."""
    return _central_kernel(space.field, space.left_action, space.right_action)


def _is_central(space: Bimodule, x) -> bool:
    """True when b.x = x.b for every basis element b of the algebra acting
    on both sides of ``space``, checked one slab of the b at a time."""
    return not any(_central_defect(space.field, space.left_action, space.right_action,
                                   x[None], sl).any()
                   for sl in _slabs(space.left_alg.dim, space.dim ** 2))


def _central_section(space: Bimodule, value_mat):
    """The bimodule map a -> a.e out of the regular bimodule of the algebra
    acting on both sides of ``space``, for a central e with value_mat @ e = 1;
    None when there is no such e.

    e = c @ K on the central basis K (``_central_basis``), for c the reduced
    echelon particular solution of (value_mat @ K.T) c = 1.  That is the
    solution of the stacked system of centrality and value whose free
    variables are zero.  Row k of K is 1 at its free coordinate free[k], 0
    at the other free coordinates and 0 after free[k], and free increases,
    so the vector c @ K has its last nonzero entry at free[k] for the last k
    with c_k != 0.  A column of a system is a free variable iff a solution of
    its homogeneous form has its last nonzero entry there; so the free
    variables of the stacked system are the free[k] for the free variables k
    of the small one, and there e[free[k]] = c_k = 0."""
    f = space.field
    alg = space.left_alg
    basis = _central_basis(space)
    coeffs = _solve(f, f.matmul(f.asarray(value_mat), basis.T), alg.unit)
    if coeffs is None:
        return None
    e = f.matmul(coeffs, basis)
    section = np.stack([f.matmul(act, e) for act in space.left_mats], axis=1)
    if not splits(space, value_mat, section):
        raise InternalInconsistencyError("the solved central element does not split the map")
    return BimoduleMap(regular_bimodule(alg), space, section, _validate=False)


def central_subspace(c: Coring) -> list[np.ndarray]:
    """Basis of the A-central elements of the carrier, the x with a.x = x.a:
    k^d restricted by the defect of one slab of basis elements of A at a
    time (``linalg._successive_kernel``), with no stacked system.  It is the
    reduced echelon basis the stacked system gives."""
    return list(_central_basis(c.carrier))


def is_cosplit(c: Coring):
    """A bimodule section of the counit, or None; decided exactly.

    A section a -> a.e is determined by a central element e with eps(e) = 1.
    """
    return _central_section(c.carrier, c.counit_mat)


# ---------------------------------------------------------------------------
# cointegrals and Frobenius systems
# ---------------------------------------------------------------------------


@dataclass
class _MapOfP:
    """A map gamma_f: C (x)_A C -> A held as its map f of P, a (q, q)
    matrix in the coordinates of ``Coring.middle``, q = dim P; a report
    writes f, and gamma_f is never built."""

    coring: Coring
    f_mat: np.ndarray  # (q, q), q = dim P


@dataclass
class Cointegral(_MapOfP):
    """A pre-cointegral gamma_f with gamma_f o Delta = eps, held as f."""


@dataclass
class FrobeniusSystem(_MapOfP):
    """A pre-cointegral gamma_f, held as f, and a central e in C:
    gamma_f(c (x) e) = gamma_f(e (x) c) = eps(c)."""

    invariant: np.ndarray


@dataclass
class FrobeniusSearch:
    status: str  # found / none / inconclusive
    system: FrobeniusSystem | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def _is_precointegral(c: Coring, f_mat) -> bool:
    """True when gamma_f is a pre-cointegral (``precointegrals``): f (1)
    commutes with the actions of B on P and (3) is annihilated by the rows."""
    space = c.middle.space
    return (BimoduleMap(space, space, f_mat, _validate=False).commutes_with_actions()
            and not np.any(c.field.matmul(c.precointegral_rows, f_mat)))


def verify_cointegral(ci: Cointegral) -> bool:
    """gamma_f a pre-cointegral (``_is_precointegral``) and (4)
    gamma_f o Delta = eps (``Coring.after_delta``), checked on f."""
    c = ci.coring
    return (_is_precointegral(c, ci.f_mat)
            and Field.equal(c.after_delta(ci.f_mat[None])[0], c.sigma_pairs))


def verify_frobenius_system(fs: FrobeniusSystem) -> bool:
    """Invariance of e, gamma_f a pre-cointegral (``_is_precointegral``) and
    gamma_f(c (x) e) = gamma_f(e (x) c) = eps(c) (``Coring.normalizations``)."""
    c, e = fs.coring, fs.coring.field.asarray(fs.invariant)
    if not _is_central(c.carrier, e) or not _is_precointegral(c, fs.f_mat):
        return False
    both = c.normalizations(fs.f_mat[None], e[None])[0, 0]
    return all(Field.equal(side, c.sigma_pairs) for side in both)


# ---------------------------------------------------------------------------
# solving for cointegrals and Frobenius systems (small carriers)
# ---------------------------------------------------------------------------


def find_cointegral(c: Coring):
    """Exact decision of coseparability on small carriers.

    Solves sum_j x_j (gamma_j o Delta) = eps over the basis f_j of the
    coring's memoized pre-cointegral space, by ``Coring.after_delta``.
    """
    f = c.field
    basis = c.precointegrals
    system = c.after_delta(basis)  # (j, a', n, m): gamma_j o Delta
    sol = _solve(f, system.reshape(len(basis), -1).T, c.sigma_pairs.reshape(-1))
    if sol is None:
        return None
    ci = Cointegral(c, f.tensordot(sol, basis, ([0], [0])))
    if not verify_cointegral(ci):
        raise CoringAxiomError("solver produced a gamma that fails verification")
    return ci


def find_frobenius_system(c: Coring, seed: int = 0) -> FrobeniusSearch:
    """Search for a reduced Frobenius system (gamma, e).

    The defining conditions are linear in gamma for a fixed invariant e, so
    ``span_search`` enumerates or samples e over the central subspace, and
    gamma(. (x) e) = gamma(e (x) .) = eps is solved exactly for gamma inside
    the coring's memoized pre-cointegral space; as they are linear in e,
    they are computed once on the central basis.  An exhausted enumeration
    is an exact negative; after sampling, the dual-ring isomorphism
    criterion is tried before reporting inconclusive.
    """
    f = c.field
    invariants = _central_basis(c.carrier)
    if not len(invariants):
        return FrobeniusSearch("none")
    basis = c.precointegrals
    if not len(basis):
        # gamma would have to be zero, which cannot reproduce the counit
        return FrobeniusSearch("none")
    norms = c.normalizations(basis, invariants)  # (k, j, 2, a', n, m)
    counit_twice = np.concatenate([c.sigma_pairs.reshape(-1)] * 2)

    def try_invariant(combo):
        """The system for the invariant combo @ invariants, or None."""
        row = f.tensordot(combo, norms, ([0], [0]))  # (j, 2, a', n, m)
        coeffs = _solve(f, row.reshape(len(basis), -1).T, counit_twice)
        if coeffs is None:
            return None
        fs = FrobeniusSystem(c, f.tensordot(coeffs, basis, ([0], [0])),
                             f.matmul(combo, invariants))
        if not verify_frobenius_system(fs):
            raise CoringAxiomError("Frobenius solver produced a failing system")
        return fs

    # the combinations of the central basis, searched by their coefficients
    status, fs = span_search(f, f.eye(len(invariants)), try_invariant,
                             _FROBENIUS_ENUMERATION_BUDGET, _FROBENIUS_RANDOM_ATTEMPTS, seed)
    if status != "inconclusive":
        return FrobeniusSearch(status, fs)
    return _frobenius_via_dual_ring_iso(c, seed)


def _hit_from_right(c: Coring, xi_mats):
    """Action matrices [k, m', c] of c -> sum c_1 . xi_k(c_2) for a stack of
    functional matrices xi_k, leg by leg from the pairs: n (x) m goes to
    sum_i (n (x) m_i) . xi(n_i (x) m) (``Coring.pair_legs``)."""
    f, ts = c.field, c.carrier_tensor
    first, second = c.pair_legs  # (u, n, i) and (v, i, m)
    values = f.tensordot(f.asarray(xi_mats), second, ([2], [0]))  # (k, a, i, m)
    k, a, i, _ = values.shape
    # basis element c of C lifts to e_n (x) e_m at its free column (n, m)
    n_of, m_of = np.divmod(ts.free, ts.right_factor.dim)
    left = f.matmul(first[:, n_of].transpose(1, 0, 2),  # (c, u, i) @ (c, i, (k, a))
                    values[..., m_of].transpose(3, 2, 0, 1).reshape(c.dim, i, k * a))
    return f.tensordot(c.carrier.right_action, left.reshape(c.dim, c.dim, k, a),
                       ([0, 1], [1, 3])).transpose(2, 0, 1)  # (k, m', c)


def coring_bimodules_over_dual_ring(c: Coring):
    """C and R = (*C)^op as (A, R)-bimodules, for the Frobenius criterion."""
    ldual = left_dual_ring(c)
    r_alg = opposite(ldual)
    # C with its left A-action and the right action c . xi = sum c_1 xi(c_2)
    rho_c = ldual.hits.transpose(2, 0, 1)
    c_mod = Bimodule(c.base, r_alg, c.carrier.left_action, rho_c, name="C as (A,R)")
    # R with (a . xi)(x) = xi(x . a), the left action of the left dual, and
    # right multiplication
    r_mod = Bimodule(c.base, r_alg, left_dual(c.carrier).left_action, r_alg.structure,
                     name="R as (A,R)")
    return c_mod, r_mod, ldual, r_alg


def _frobenius_via_dual_ring_iso(c: Coring, seed: int) -> FrobeniusSearch:
    """The Frobenius criterion of the left dual ring (Brzezinski): an
    isomorphism phi: C -> R of (A, R)-bimodules, R = (*C)^op
    (``coring_bimodules_over_dual_ring``), found by ``random_bimodule_iso``,
    gives gamma(c (x) c') = phi(c')(c) and e = phi^-1(eps).

    Write c.xi = sum c_1 xi(c_2) for the action of R on C.  phi is left
    A-linear, phi(a c)(x) = phi(c)(x a), and R-linear,
    phi(c.xi)(x) = xi(x.phi(c)).  So gamma is balanced over A and left
    A-linear, and as c a = c.(eps(-) a), phi(c a)(x) = eps(x.phi(c)) a
    = phi(c)(x) a: gamma is right A-linear.  phi(e) = eps gives
    gamma(c (x) e) = eps(c) and phi(e.xi)(x) = xi(x.eps) = xi(x).  So
    phi(e a) = eps(-) a = phi(a e), and e is central; phi(e.phi(c)) = phi(c)
    gives c = sum e_1 gamma(e_2 (x) c), and applying eps,
    gamma(e (x) c) = eps(c).  For zeta in *C,
    zeta(sum gamma(x (x) c_1) c_2) = sum phi(c_1)(x) zeta(c_2)
    = phi(c.zeta)(x) = zeta(x.phi(c)) = zeta(sum x_1 gamma(x_2 (x) c)).  So
    when the functionals of *C separate the points of C (their stacked rows
    have rank dim C, as whenever C is projective as a left A-module, the
    hypothesis of the criterion), gamma is a pre-cointegral, (gamma, e) is a
    Frobenius system and its f_gamma (``Coring.precointegrals``) verifies: a
    failure is an internal error.  Without that the route is inconclusive.

    f is read on P with no gamma built: for the lift
    sum lift[q, m, n] e_m (x) e_n of e_q,
    f(e_q) = sum_ij m_i (x) gamma(n_i (x) e_q (x) m_j).n_j and
    gamma(n_i (x) e_m (x) e_n (x) m_j) = sum_k phi(e_n (x) m_j)_k xi_k(n_i (x) e_m)
    over the functionals xi_k of *C, read through ``Coring.pair_legs``."""
    f, ts, mid = c.field, c.carrier_tensor, c.middle
    try:
        c_mod, r_mod, ldual, _ = coring_bimodules_over_dual_ring(c)
    except CoringAxiomError:
        return FrobeniusSearch("inconclusive")
    search = random_bimodule_iso(c_mod, r_mod, seed=seed)
    if search.status == "none":
        return FrobeniusSearch("none")
    if search.status != "found":
        return FrobeniusSearch("inconclusive")
    phi = search.map.matrix
    mats = np.stack([f.asarray(m) for m in ldual.functional_mats])  # (k, a', v)
    right, left = c.pair_legs  # e_n (x) m_j and n_i (x) e_m
    xi = f.tensordot(mats, left, ([2], [0]))  # (k, a', i, m)
    values = f.tensordot(f.tensordot(xi, mid.lift, ([3], [1])),  # (k, a', i, q, n)
                         f.tensordot(phi, right, ([1], [0])), ([0, 4], [0, 1]))  # (a', i, q, j)
    ms, ns = _pair_matrices(f, c.tau_pairs, ts.right_factor.dim, ts.left_factor.dim)
    acted = f.tensordot(ts.left_factor.left_action, ns, ([1], [0]))  # (a', n', j): a'.n_j
    onto = f.tensordot(f.tensordot(ms, mid.of_pair, ([0], [0])), acted, ([1], [1]))  # (i, q', a', j)
    fs = FrobeniusSystem(c, f.asarray(f.tensordot(onto, values, ([0, 2, 3], [1, 0, 3]))),
                         _solve(f, phi, ldual.unit))
    if verify_frobenius_system(fs):
        return FrobeniusSearch("found", fs)
    if rank(f, mats.reshape(-1, c.dim)) == c.dim:
        raise InternalInconsistencyError("the Frobenius system of a dual-ring isomorphism "
                                         "fails verification")
    return FrobeniusSearch("inconclusive")

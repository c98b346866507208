"""Bimodules over pairs of algebras: validated actions, maps, tensor
products over a middle algebra, one-sided duals, dual bases, endomorphism
algebras and randomized isomorphism search.

Action tensor conventions (all coordinates are column vectors):

* ``left_action[i, m, m']``  is the coefficient of e_m' in  b_i . e_m,
* ``right_action[m, j, m']`` is the coefficient of e_m' in  e_m . a_j.

Tensor products are presented quotients of the field tensor product: the
projection rows are the balanced forms, an intertwiner basis solved in
blocks with no relation rows stacked, and the quotient basis lifts to the
free columns of the presentation; equality of tensors is decided by
comparing projected coordinates.  Coordinates on an intertwiner basis are
read off its free entries, not solved for.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, AlgebraMap, _memo, check_algebra_map
from .errors import (
    BimoduleAxiomError,
    DimensionMismatchError,
    FieldMismatchError,
    NotProjectiveError,
)
from .fields import Field
from .linalg import QuotientPresentation, _solve, _successive_kernel, rank

__all__ = [
    "Bimodule",
    "BimoduleMap",
    "TensorSpace",
    "DualModule",
    "DualBasis",
    "EndData",
    "IsoSearch",
    "regular_bimodule",
    "restrict_left",
    "restrict_right",
    "target_sb",
    "target_bs",
    "target_bb",
    "tensor_over",
    "right_dual",
    "left_dual",
    "dual_basis",
    "left_dual_basis",
    "endomorphism_algebra",
    "left_endomorphism_algebra",
    "intertwiners",
    "canonical_s_iso",
    "hom_bimodule",
    "random_bimodule_iso",
    "span_search",
]

# random_bimodule_iso enumerates hom spaces up to this size, else samples
_ISO_ENUMERATION_BUDGET = 2**20
_ISO_RANDOM_ATTEMPTS = 32
# the fewest defect entries of a block of _intertwiner_kernel: below it the
# Python loop over blocks and their coupled rows costs more than the memory
# it saves, as on the small balanced-form systems of every tensor_over
_BLOCK_ENTRIES = 2**14


class Bimodule:
    """A (B, A)-bimodule with machine-checked axioms."""

    def __init__(self, left_alg: Algebra, right_alg: Algebra, left_action, right_action,
                 name: str = "", _validate: bool = True):
        left_alg.field.check_same(right_alg.field)
        self.field = left_alg.field
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.left_action = self.field.asarray(left_action)
        self.right_action = self.field.asarray(right_action)
        self.name = name
        if self.left_action.ndim != 3 or self.left_action.shape[0] != left_alg.dim:
            raise BimoduleAxiomError(f"left action tensor has shape {self.left_action.shape}")
        self.dim = self.left_action.shape[1]
        if self.left_action.shape != (left_alg.dim, self.dim, self.dim):
            raise BimoduleAxiomError(f"left action tensor has shape {self.left_action.shape}")
        if self.right_action.shape != (self.dim, right_alg.dim, self.dim):
            raise BimoduleAxiomError(f"right action tensor has shape {self.right_action.shape}")
        # per-basis action matrices, views of the tensors: left_mats[i] @ v = b_i . v
        self.left_mats = list(self.left_action.transpose(0, 2, 1))
        self.right_mats = list(self.right_action.transpose(1, 2, 0))
        self._memo: dict = {}  # values of the ``_memo`` functions of this module
        if _validate:
            self.validate()

    def act_left(self, x):
        """Matrix of v -> x . v for an element x of the left algebra."""
        return self.field.tensordot(self.field.asarray(x), self.left_action, ([0], [0])).T

    def act_right(self, y):
        """Matrix of v -> v . y for an element y of the right algebra."""
        return self.field.tensordot(self.field.asarray(y), self.right_action, ([0], [1])).T

    def validate(self) -> None:
        f = self.field
        lam, rho = self.left_action, self.right_action
        cb, ca = self.left_alg.structure, self.right_alg.structure

        lhs = f.tensordot(cb, lam, ([2], [0]))  # (bb')m, axes (i, j, m, m')
        rhs = f.tensordot(lam, lam, ([2], [1])).transpose(2, 0, 1, 3)  # b(b'm)
        if not Field.equal(lhs, rhs):
            i, j, m = (int(v) for v in np.argwhere(lhs != rhs)[0][:3])
            raise BimoduleAxiomError(f"left associativity fails at (b_{i}, b_{j}, e_{m})")

        lhs = f.tensordot(ca, rho, ([2], [1])).transpose(2, 0, 1, 3)  # m(aa'), axes (m, i, j, m')
        rhs = f.tensordot(rho, rho, ([2], [0]))  # (ma)a'
        if not Field.equal(lhs, rhs):
            m, i, j = (int(v) for v in np.argwhere(lhs != rhs)[0][:3])
            raise BimoduleAxiomError(f"right associativity fails at (e_{m}, a_{i}, a_{j})")

        eye = f.eye(self.dim)
        if not Field.equal(f.tensordot(self.left_alg.unit, lam, ([0], [0])), eye):
            raise BimoduleAxiomError("left unit does not act as the identity")
        if not Field.equal(f.tensordot(self.right_alg.unit, rho, ([0], [1])), eye):
            raise BimoduleAxiomError("right unit does not act as the identity")

        lhs = f.tensordot(lam, rho, ([2], [0]))  # (bm)a, axes (i, m, j, m')
        rhs = f.tensordot(rho, lam, ([2], [1])).transpose(2, 0, 1, 3)  # b(ma)
        if not Field.equal(lhs, rhs):
            i, m, j = (int(v) for v in np.argwhere(lhs != rhs)[0][:3])
            raise BimoduleAxiomError(f"action compatibility fails at (b_{i}, e_{m}, a_{j})")

    def __repr__(self):
        label = self.name or "Bimodule"
        return f"{label}(dim={self.dim}, left={self.left_alg!r}, right={self.right_alg!r})"


def regular_bimodule(a: Algebra) -> Bimodule:
    """The algebra acting on itself from both sides."""
    return Bimodule(a, a, a.structure, a.structure, name=f"{a.name or 'A'}-regular",
                    _validate=False)


def restrict_left(m: Bimodule, f: AlgebraMap) -> Bimodule:
    """Pull the left action back along an algebra map into the left algebra.

    For a valid m the result needs no validation once f passes
    ``check_algebra_map``: b -> lambda_{f(b)} is associative and unital
    because f is multiplicative and unital, and each lambda_{f(b)}, a
    combination of the lambda_k, commutes with the right action because each
    lambda_k does."""
    if f.target != m.left_alg:
        raise FieldMismatchError("map target is not the left algebra of the module")
    if not check_algebra_map(f):
        raise BimoduleAxiomError("restriction along a non-multiplicative map")
    lam = m.field.tensordot(f.matrix, m.left_action, ([0], [0]))
    return Bimodule(f.source, m.right_alg, lam, m.right_action, name=m.name, _validate=False)


def restrict_right(m: Bimodule, f: AlgebraMap) -> Bimodule:
    """Pull the right action back along an algebra map into the right
    algebra; valid without validation, as ``restrict_left`` is."""
    if f.target != m.right_alg:
        raise FieldMismatchError("map target is not the right algebra of the module")
    if not check_algebra_map(f):
        raise BimoduleAxiomError("restriction along a non-multiplicative map")
    rho = m.field.tensordot(f.matrix, m.right_action, ([0], [1])).transpose(1, 0, 2)
    return Bimodule(m.left_alg, f.source, m.left_action, rho, name=m.name, _validate=False)


@_memo
def target_sb(f: AlgebraMap) -> Bimodule:
    """The target S of f: B -> S as an (S, B)-bimodule."""
    return restrict_right(regular_bimodule(f.target), f)


@_memo
def target_bs(f: AlgebraMap) -> Bimodule:
    """The target S of f: B -> S as a (B, S)-bimodule."""
    return restrict_left(regular_bimodule(f.target), f)


@_memo
def target_bb(f: AlgebraMap) -> Bimodule:
    """The target S of f: B -> S as a (B, B)-bimodule."""
    return restrict_left(target_sb(f), f)


class BimoduleMap:
    """A two-sided linear map between bimodules over the same algebra pair."""

    def __init__(self, source: Bimodule, target: Bimodule, matrix, _validate: bool = True):
        if source.left_alg != target.left_alg or source.right_alg != target.right_alg:
            raise FieldMismatchError("bimodule map requires matching algebras on both sides")
        self.source = source
        self.target = target
        self.field = source.field
        self.matrix = self.field.asarray(matrix)
        if self.matrix.shape != (target.dim, source.dim):
            raise DimensionMismatchError(
                f"matrix shape {self.matrix.shape}, expected {(target.dim, source.dim)}")
        if _validate and not self.commutes_with_actions():
            raise BimoduleAxiomError("matrix does not commute with the bimodule actions")

    def commutes_with_actions(self) -> bool:
        """X lambda_i = lambda'_i X and X rho_j = rho'_j X for every basis
        element, one stacked product per side of each equation."""
        f, mat, src, tgt = self.field, self.matrix, self.source, self.target
        return (Field.equal(f.tensordot(src.left_action, mat, ([2], [1])).transpose(0, 2, 1),
                            f.tensordot(tgt.left_action, mat, ([1], [0])))
                and Field.equal(f.tensordot(src.right_action, mat, ([2], [1])).transpose(1, 2, 0),
                                f.tensordot(tgt.right_action, mat, ([0], [0]))))

    def __call__(self, v):
        return self.field.matmul(self.matrix, self.field.asarray(v))

    def is_invertible(self) -> bool:
        if self.source.dim != self.target.dim:
            return False
        return rank(self.field, self.matrix) == self.source.dim

    def __repr__(self):
        return f"BimoduleMap({self.source!r} -> {self.target!r})"


@dataclass
class TensorSpace:
    """The tensor product of two bimodules over their shared middle algebra."""

    left_factor: Bimodule
    right_factor: Bimodule
    middle: Algebra
    presentation: QuotientPresentation

    @functools.cached_property
    def space(self) -> Bimodule:
        """The tensor as a bimodule, its outer actions induced through the
        projection P of the presentation, built on first read and checked
        for descent there.

        The descent check is the only check: with valid factors it implies the
        bimodule axioms of the result.  Let K_i = kron(lambda_i, I) and
        K'_j = kron(I, rho_j) on M (x) N.  The left laws of M give
        K_i K_j = sum_k c_ij^k K_k and sum_i u_i K_i = I, the right laws of N
        the same for the K'_j, and K_i K'_j = kron(lambda_i, rho_j) = K'_j K_i.
        The check is P K_i = L_i P and P K'_j = R_j P, with P onto (P S = I
        for S the lift to the free columns).
        So L_i L_j P = P K_i K_j = sum_k c_ij^k L_k P, hence
        L_i L_j = sum_k c_ij^k L_k; sum_i u_i L_i P = P gives sum_i u_i L_i = I;
        L_i R_j P = P K_i K'_j = P K'_j K_i = R_j L_i P gives L_i R_j = R_j L_i;
        the right laws are the mirror image.

        Each side is one leg product over the stacked generators: the rows
        (u, v) of (P K_i).T and (P K'_j).T for all i or j at once.  L_i.T is
        rows at the free columns; P is the identity on them, so K_i descends
        iff the other rows are those of L_i P."""
        m, n, pres = self.left_factor, self.right_factor, self.presentation
        f = m.field
        proj = pres.projection
        p3 = proj.reshape(pres.quotient_dim, m.dim, n.dim)  # (c, u, v)
        free, rest = pres.free, np.setdiff1d(np.arange(pres.ambient_dim), pres.free)
        if not rest.size:  # every row is free, in order: read them without a copy
            free = slice(None)

        def descend(side: str, picked_rows, other_rows):
            """Raise unless other_rows [k, r, c] are those of L_k P, for
            picked_rows [k, c'', c] the rows of each L_k.T."""
            through = f.matmul(proj[:, rest].T, picked_rows)
            if not Field.equal(other_rows, through):
                at = int(np.argwhere(other_rows != through)[0][0])
                raise BimoduleAxiomError(f"{side} action does not descend at basis {at}")

        # [i, (u, v), c]: sum_u' lambda_i(e_u)[u'] P[c, (u', v)], the rows of (P K_i).T
        left = f.tensordot(m.left_action, p3.transpose(1, 2, 0), ([2], [0])).reshape(
            m.left_alg.dim, m.dim * n.dim, pres.quotient_dim)
        lam = left[:, free]
        descend("left", lam, left[:, rest])
        # [(u, v), j, c]: sum_v' rho_j(e_v)[v'] P[c, (u, v')], the rows of (P K'_j).T
        right = f.matmul(n.right_action.reshape(-1, n.dim), p3.transpose(1, 2, 0)).reshape(
            m.dim * n.dim, n.right_alg.dim, pres.quotient_dim)
        rho = right[free]
        descend("right", rho.transpose(1, 0, 2), right[rest].transpose(1, 0, 2))
        return Bimodule(m.left_alg, n.right_alg, lam, rho,
                        name=f"{m.name or 'M'}(x){n.name or 'N'}", _validate=False)

    @property
    def dim(self) -> int:
        return self.presentation.quotient_dim

    @property
    def projection(self):
        return self.presentation.projection

    @property
    def free(self):
        return self.presentation.free

    def pure(self, u, v):
        """Quotient coordinates of the pure tensor u (x) v."""
        f = self.left_factor.field
        return f.matmul(self.projection, f.kron(f.asarray(u), f.asarray(v)))

    def lift(self, t):
        """The representative of t in the field tensor product, shaped
        (dimM, dimN), or [k, dimM, dimN] for a stack t [k, dim]: t at the
        free columns and 0 elsewhere, which the projection sends back to t."""
        f = self.left_factor.field
        t = f.asarray(t)
        amb = f.zeros(t.shape[:-1] + (self.presentation.ambient_dim,))
        amb[..., self.free] = t
        return amb.reshape(t.shape[:-1] + (self.left_factor.dim, self.right_factor.dim))

    def induced_map(self, f_mat, g_mat, target: "TensorSpace"):
        """Matrix of f (x) g between presented tensor products: the columns
        f(e_u) (x) g(e_v) of kron(f, g) at the free columns (u, v) of this
        presentation, projected onto the target."""
        fld = self.left_factor.field
        u, v = np.divmod(self.free, self.right_factor.dim)
        cols = fld.asarray(fld.asarray(f_mat)[:, None, u] * fld.asarray(g_mat)[None, :, v])
        return fld.matmul(target.projection, cols.reshape(-1, self.dim))


def tensor_over(m: Bimodule, n: Bimodule) -> TensorSpace:
    """Present M (x)_C N for C = m.right_alg = n.left_alg.

    The projection rows are the C-balanced forms X on M x N,
    X(m.c, n) = X(m, c.n), that is X @ lambda_c = rho_c.T @ X: the forms
    that vanish on the balancing relations m.c (x) n - m (x) c.n.  They are
    an intertwiner basis, whose reversed reduced echelon form is the one
    ``QuotientPresentation.from_relations`` gives on those relations.

    Its outer actions, ``TensorSpace.space``, are induced through the
    projection and checked for descent on the rows outside the free
    columns.  When the presentation drops rows, they are built here, so the
    descent check raises in ``tensor_over`` wherever it can fail.  With no
    relations the projection is the identity, the check has no row to
    compare, and the actions are built when something first reads them: a
    coring written as its context never does."""
    if m.right_alg != n.left_alg:
        raise FieldMismatchError("middle algebra mismatch in tensor product")
    ambient = m.dim * n.dim
    forms, free = _intertwiner_kernel(m.field, n.left_mats, [r.T for r in m.right_mats])
    ts = TensorSpace(m, n, m.right_alg,
                     QuotientPresentation(m.field, ambient, len(free), forms, free))
    if len(free) < ambient:
        ts.space  # builds the actions, and so runs the descent check
    return ts


class DualModule(Bimodule):
    """A one-sided dual, carrying the functional matrices of its basis."""

    def __init__(self, left_alg, right_alg, left_action, right_action, base_module,
                 functional_mats, name=""):
        super().__init__(left_alg, right_alg, left_action, right_action, name=name)
        self.base_module = base_module
        self.functional_mats = functional_mats  # list of (value_dim x module_dim) arrays

    def mat_of(self, coords):
        """The functional matrix of an element given by coordinates."""
        return _combination(self.field, coords, self.functional_mats)


def _combination(field: Field, coords, mats):
    """sum_k coords[k] mats[k] as one reduced product over the stacked
    matrices; the zero (0, 0) matrix when there are none."""
    if not mats:
        return field.zeros((0, 0))
    flat = np.stack(mats).reshape(len(mats), -1)
    return field.matmul(field.asarray(coords), flat).reshape(mats[0].shape)


def _matrix_subspace_coords(field: Field, basis_mats, targets):
    """The array [t, k] of the coordinates of each target matrix on
    basis_mats[k], for targets a list or a stack of matrices; raises if any
    target leaves the span.

    The basis is an intertwiner basis, in reversed reduced echelon form:
    each matrix is 1 at its last nonzero entry, its free entry, where the
    others are 0.  So a target's coordinates are its free entries, and one
    product checks that they give the target back, hence are the only ones."""
    flat = field.asarray(np.reshape(targets, (len(targets), -1)))
    if not len(basis_mats):
        if flat.any():
            raise BimoduleAxiomError("matrix outside the empty span")
        return field.zeros((len(flat), 0))
    base = field.asarray(np.reshape(basis_mats, (len(basis_mats), -1)))
    coords = flat[:, base.shape[1] - 1 - np.argmax(base[:, ::-1] != 0, axis=1)]
    if not Field.equal(field.matmul(coords, base), flat):
        raise BimoduleAxiomError("matrix left the expected subspace; conventions violated")
    return coords


def intertwiners(field: Field, src_mats, tgt_mats) -> list:
    """Basis of the matrices X with X @ s_k == t_k @ X for every k, each of
    shape (target dim, source dim): the reduced-echelon kernel basis of these
    conditions on vec(X), row-major, which does not depend on the order of
    the pairs (``linalg._successive_kernel``)."""
    shape = (tgt_mats[0].shape[0], src_mats[0].shape[0])
    return [v.reshape(shape) for v in _intertwiner_kernel(field, src_mats, tgt_mats)[0]]


def _intertwiner_kernel(field: Field, src_mats, tgt_mats):
    """The basis of ``intertwiners`` as rows vec(X), and its free columns.

    No system is stacked: k^n, n = dim vec(X), is restricted by the defect
    X @ s - t @ X of its current basis, pair by pair, for a block of output
    rows of X at a time.  On a basis of rank k, a block of r rows has
    r * k <= max(n, _BLOCK_ENTRIES // n_s), so its defect has at most
    _BLOCK_ENTRIES entries, or those of one output row over all of k^n when
    that is more."""
    n_t, n_s = tgt_mats[0].shape[0], src_mats[0].shape[0]
    n = n_t * n_s
    coords = np.arange(n).reshape(n_t, n_s)  # of vec(X), by rows of X

    def block(columns, s, t, start, stop):
        """The defect of the current basis at the output rows start..stop-1;
        a function, so that no array of a block outlives its yield."""
        x = columns(coords[start:stop].reshape(-1)).reshape(-1, stop - start, n_s)
        r, t_rows = len(x), t[start:stop]
        t_term = field.matmul(t_rows[:, start:stop], x.transpose(1, 0, 2).reshape(stop - start, -1))
        defect = (field.matmul(x.reshape(-1, n_s), s).reshape(x.shape)
                  - t_term.reshape(stop - start, r, n_s).transpose(1, 0, 2))
        coupled = t_rows.any(axis=0)  # the terms t[i, a] X[a] from rows outside the block
        coupled[start:stop] = False
        for a in np.flatnonzero(coupled):
            defect = field.asarray(
                defect - t_rows[:, a][None, :, None] * columns(coords[a])[:, None, :])
        return field.asarray(defect).reshape(r, -1)

    def equations(columns, rank):
        for s, t in zip(src_mats, tgt_mats):
            start = 0
            while start < n_t and rank():
                stop = min(n_t, start + max(n, _BLOCK_ENTRIES // n_s) // rank())
                yield block(columns, s, t, start, stop)
                start = stop

    return _successive_kernel(field, n, equations)


def _induced_action(field: Field, basis_mats, images):
    """Array [k, alpha, beta]: the coordinate on basis_mats[beta] of
    images[k][alpha], the image of basis_mats[alpha] under the k-th operator,
    for images given as nested lists or as a stack [k, alpha, ...], read
    for all operators at once, raising if an image leaves the span."""
    n = len(basis_mats)
    if not n:
        return field.zeros((len(images), 0, 0))
    flat = np.reshape(images, (len(images) * n,) + np.shape(basis_mats[0]))
    return _matrix_subspace_coords(field, basis_mats, flat).reshape(len(images), n, n)


def _products(field: Field, left, right):
    """[k, l, ...]: left[k] @ right[l] for two stacks of matrices, as one
    reduced product."""
    return field.tensordot(left, right, ([2], [1])).transpose(0, 2, 1, 3)


@_memo
def right_dual(m: Bimodule) -> DualModule:
    """Hom over the right algebra into it, as an (A, B)-bimodule.

    Elements are right-A-linear maps M -> A; actions (a.phi.b)(x) = a.phi(b.x).
    """
    f = m.field
    a_alg, b_alg = m.right_alg, m.left_alg
    mats = intertwiners(f, m.right_mats, a_alg.right_mult)
    stack = np.stack(mats) if mats else f.zeros((0, a_alg.dim, m.dim))
    acts = _induced_action(f, mats, np.concatenate(
        [_products(f, a_alg.left_mult, stack),
         _products(f, stack, m.left_action.transpose(0, 2, 1)).transpose(1, 0, 2, 3)]))
    lam, rho = acts[:a_alg.dim], acts[a_alg.dim:].transpose(1, 0, 2)
    return DualModule(a_alg, b_alg, lam, rho, m, mats, name=f"{m.name or 'M'}^*")


@_memo
def left_dual(m: Bimodule) -> DualModule:
    """Hom over the left algebra into it, as an (A, B)-bimodule.

    Elements are left-B-linear maps M -> B; actions (a.psi.b)(x) = psi(x.a).b.
    """
    f = m.field
    a_alg, b_alg = m.right_alg, m.left_alg
    mats = intertwiners(f, m.left_mats, b_alg.left_mult)
    stack = np.stack(mats) if mats else f.zeros((0, b_alg.dim, m.dim))
    acts = _induced_action(f, mats, np.concatenate(
        [_products(f, stack, m.right_action.transpose(1, 2, 0)).transpose(1, 0, 2, 3),
         _products(f, b_alg.right_mult, stack)]))
    lam, rho = acts[:a_alg.dim], acts[a_alg.dim:].transpose(1, 0, 2)
    return DualModule(a_alg, b_alg, lam, rho, m, mats, name=f"*{m.name or 'M'}")


@dataclass
class DualBasis:
    """Vectors e_i with functionals phi_i witnessing x = sum e_i . phi_i(x)."""

    module: Bimodule
    dual: DualModule
    elements: list
    functional_coords: list

    @property
    def functional_mats(self):
        return [self.dual.mat_of(c) for c in self.functional_coords]

    def verify(self) -> bool:
        """The dual-basis identity sum_k e_k . phi_k(x) = x on the basis."""
        m, f = self.module, self.module.field
        if not self.elements:
            return m.dim == 0
        acts = f.tensordot(f.asarray(np.stack(self.elements)), m.right_action,
                           ([1], [0]))  # (k, a, m'): e_k . a
        total = f.tensordot(acts, np.stack(self.functional_mats), ([0, 1], [0, 1]))  # (m', x)
        return Field.equal(total, f.eye(m.dim))


@_memo
def dual_basis(m: Bimodule):
    """Solve for a dual basis on the field basis of M; None when M is not
    finitely generated projective over the right algebra."""
    return _dual_basis(m, right_dual(m), m.right_action, 1)


@_memo
def left_dual_basis(m: Bimodule):
    """Left-side mirror: psi_i with x = sum psi_i(x) . e_i, or None."""
    return _dual_basis(m, left_dual(m), m.left_action, 0)


def _dual_basis(m: Bimodule, dual: DualModule, action, axis: int):
    """The dual basis of M on its field basis against the functionals of
    ``dual``, whose values act on M through ``action`` (the right action
    contracted at axis 1, or the left action at axis 0); None if none exists."""
    f = m.field
    t = len(dual.functional_mats)
    dm = m.dim
    if t == 0:
        return None if dm else DualBasis(m, dual, [], [])
    # G[i, alpha, j, m'] = sum_a F_alpha[a, j] action(e_i, a)[m']
    vals = np.stack([f.asarray(p) for p in dual.functional_mats])
    g = f.tensordot(vals, action, ([1], [axis])).transpose(2, 0, 1, 3)
    system = g.reshape(dm * t, dm * dm).T
    rhs = f.eye(dm).reshape(-1)
    sol = _solve(f, f.asarray(system), rhs)
    if sol is None:
        return None
    coords = sol.reshape(dm, t)
    eye = f.eye(dm)
    return DualBasis(m, dual, [eye[:, i] for i in range(dm)],
                     [coords[i] for i in range(dm)])


class EndAlgebra(Algebra):
    """Endomorphism algebra with a remembered matrix basis."""

    def __init__(self, field, structure, unit, endo_mats, module, name=""):
        super().__init__(field, structure, unit, name=name)
        self.endo_mats = endo_mats
        self.module = module

    def coords_of(self, endo_mat):
        return _matrix_subspace_coords(self.field, self.endo_mats, [endo_mat])[0]

    def mat_of(self, coords):
        return _combination(self.field, coords, self.endo_mats)


@dataclass
class EndData:
    """Right endomorphism ring S of a bimodule plus its canonical maps."""

    algebra: EndAlgebra
    b_to_s: AlgebraMap
    module_as_s_bimodule: Bimodule


def _end_algebra_from_mats(field, mats, module, opposite: bool, name):
    """The algebra on the matrices ``mats`` with x * y = x @ y, or y @ x
    when ``opposite``."""
    if not mats:
        raise BimoduleAxiomError("endomorphism space is empty; module has dimension problems")
    stack = np.stack(mats)
    products = _products(field, stack, stack)  # [x, y]: x @ y
    structure = _induced_action(field, mats,
                                products.transpose(1, 0, 2, 3) if opposite else products)
    unit = _matrix_subspace_coords(field, mats, [field.eye(module.dim)])[0]
    return EndAlgebra(field, structure, unit, mats, module, name=name)


@_memo
def endomorphism_algebra(m: Bimodule) -> EndData:
    """S = End over the right algebra, composition product, plus B -> S and
    the (S, A)-bimodule structure on M."""
    f = m.field
    dm = m.dim
    mats = intertwiners(f, m.right_mats, m.right_mats)
    s_alg = _end_algebra_from_mats(f, mats, m, False, name=f"End({m.name or 'M'})")
    b_to_s = AlgebraMap(m.left_alg, s_alg, _matrix_subspace_coords(f, mats, m.left_mats).T)
    if not check_algebra_map(b_to_s):
        raise BimoduleAxiomError("left action does not give an algebra map into End")
    lam = f.zeros((len(mats), dm, dm))
    for beta, s in enumerate(mats):
        lam[beta] = s.T
    m_sa = Bimodule(s_alg, m.right_alg, lam, m.right_action, name=f"{m.name or 'M'} as (S,A)")
    return EndData(s_alg, b_to_s, m_sa)


@_memo
def left_endomorphism_algebra(m: Bimodule) -> EndAlgebra:
    """End over the left algebra with the opposite-composition product."""
    f = m.field
    mats = intertwiners(f, m.left_mats, m.left_mats)
    return _end_algebra_from_mats(f, mats, m, True, name=f"End_left({m.name or 'M'})")


def hom_bimodule(m: Bimodule, n: Bimodule) -> list[BimoduleMap]:
    """Basis of the space of bimodule maps m -> n."""
    if m.left_alg != n.left_alg or m.right_alg != n.right_alg:
        raise FieldMismatchError("hom requires the same algebras on both sides")
    mats = intertwiners(m.field, m.left_mats + m.right_mats, n.left_mats + n.right_mats)
    return [BimoduleMap(m, n, x, _validate=False) for x in mats]


def one_sided_hom(m: Bimodule, n: Bimodule, side: str) -> list:
    """Basis matrices of maps linear over one side only ('left' or 'right').
    No library function calls it; ``bench/tracing.py`` rebinds it by name."""
    if side == "right":
        if m.right_alg != n.right_alg:
            raise FieldMismatchError("right algebras differ")
        return intertwiners(m.field, m.right_mats, n.right_mats)
    if side == "left":
        if m.left_alg != n.left_alg:
            raise FieldMismatchError("left algebras differ")
        return intertwiners(m.field, m.left_mats, n.left_mats)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


@dataclass
class IsoSearch:
    """Outcome of an isomorphism search: found / none / inconclusive.

    'none' is an exact negative (dimension mismatch, empty hom space, or an
    exhausted finite enumeration); 'inconclusive' only means not found.
    """

    status: str
    map: BimoduleMap | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def random_bimodule_iso(m: Bimodule, n: Bimodule, seed: int = 0) -> IsoSearch:
    """Search for an invertible bimodule map m -> n.

    Identity first, then ``span_search`` over the hom space: exhaustive
    over a small finite one (exact negative), else seeded random.
    """
    f = m.field
    if m.dim != n.dim:
        return IsoSearch("none")
    identity = BimoduleMap(m, n, f.eye(m.dim), _validate=False)
    if identity.commutes_with_actions():
        return IsoSearch("found", identity)
    homs = hom_bimodule(m, n)
    if not homs:
        return IsoSearch("none")
    stack = np.stack([h.matrix for h in homs])

    def attempt(mat):
        if rank(f, mat) == m.dim:
            return BimoduleMap(m, n, mat, _validate=False)
        return None

    status, iso = span_search(f, stack, attempt, _ISO_ENUMERATION_BUDGET, _ISO_RANDOM_ATTEMPTS,
                              seed)
    return IsoSearch(status, iso)


def span_search(field: Field, stack, attempt, budget: int, attempts: int, seed: int):
    """(status, witness) for the first nonzero combination X of the stacked
    matrices or vectors, in lexicographic order of the coefficients, with
    ``attempt(X)`` not None.  ``attempt`` must scale: ``attempt(c X)`` is
    None exactly when ``attempt(X)`` is, for every scalar c != 0.  Then the
    first success has leading coefficient 1, so over F_p with p**k <= budget
    one combination of each line is tried, (0, ..., 0, 1, tail) with the 1
    moving from the last position to the first and the tails in
    lexicographic order, and failure after (p**k - 1) / (p - 1) attempts is
    the exact negative 'none'; otherwise ``attempts`` seeded random
    combinations are tried and failure is 'inconclusive'."""
    k, p = len(stack), field.characteristic
    if p and p**k <= budget:
        status = "none"
        combos = (field.asarray((0,) * lead + (1,) + tail) for lead in reversed(range(k))
                  for tail in itertools.product(range(p), repeat=k - 1 - lead))
    else:
        status = "inconclusive"
        rng = np.random.default_rng(seed)
        combos = (field.random(rng, k) for _ in range(attempts))
    for coeffs in combos:
        witness = attempt(field.tensordot(coeffs, stack, ([0], [0])))
        if witness is not None:
            return "found", witness
    return status, None


@dataclass
class SIso:
    """S = End_A(M) and the table omega of m (x) phi -> (x -> m.phi(x)),
    which identifies M (x)_A M^* with S."""

    end: EndData
    omega: np.ndarray  # [s, i, alpha]: S coords of omega(e_i (x) phi_alpha)
    amb: np.ndarray  # [s, i, alpha]: sum_k s(e_k) (x) e_k^*, with omega(amb(s)) = s


@_memo
def canonical_s_iso(m: Bimodule) -> SIso:
    """The table omega of m (x) phi -> (x -> m.phi(x)) into S = End_A(M) on
    the pairs e_i (x) phi_alpha, with M (x)_A M^* itself never presented.

    Two checks are made: omega(amb(s)) = s for amb(s) = sum_k s(e_k) (x) e_k^*,
    and the pointwise product rule
    omega(m (x) phi) omega(m' (x) phi') = omega(m.phi(m') (x) phi') in the
    structure constants of S.  Each entry of omega is solved exactly, so
    omega is bilinear and A-balanced, as m (x) phi -> m.phi(-) is.  The two
    action rules of the identification follow.  The first check writes
    s = sum_k omega(s(e_k) (x) e_k^*).  Left rule, by the product rule, the
    A-linearity of s and the dual-basis identity m = sum_k e_k.e_k^*(m):
    s omega(m (x) phi) = sum_k omega(s(e_k).e_k^*(m) (x) phi) = omega(s(m) (x) phi).
    Right rule, by the product rule and balance:
    omega(m (x) phi) s = sum_k omega(m (x) phi(s(e_k)).e_k^*) = omega(m (x) phi s),
    as sum_k phi(s(e_k)).e_k^*(x) = phi(s(sum_k e_k.e_k^*(x))) = phi(s(x)).
    """
    f = m.field
    db = dual_basis(m)
    if db is None:
        raise NotProjectiveError("module admits no dual basis over its right algebra")
    dual = db.dual
    end = endomorphism_algebra(m)
    s_alg = end.algebra

    # the pairing tensor e_i . phi_alpha(x), read both as the endos of the
    # pairs (e_i, phi_alpha) and in the product rule below
    scaled = f.tensordot(np.stack(dual.functional_mats), m.right_action,
                         ([1], [1]))  # (alpha, j, i, i'): e_i . phi_alpha(e_j)
    endos = scaled.transpose(2, 0, 3, 1).reshape(m.dim * dual.dim, m.dim, m.dim)
    table = _matrix_subspace_coords(f, s_alg.endo_mats, endos).T
    omega = table.reshape(s_alg.dim, m.dim, dual.dim)

    # amb(s) = sum_k s(e_k) (x) e_k^*, on the pairs
    coords = f.asarray(np.reshape(db.functional_coords, (m.dim, dual.dim)))
    amb = f.tensordot(np.stack(s_alg.endo_mats), coords, ([2], [0]))  # (s, m', alpha)
    if not Field.equal(f.tensordot(omega, amb, ([1, 2], [1, 2])), f.eye(s_alg.dim)):
        raise BimoduleAxiomError("canonical identification: omega o amb is not the identity")
    # rule: (m(x)phi)(m'(x)phi') = m.phi(m') (x) phi', on the table omega
    left = f.tensordot(omega, s_alg.structure, ([0], [0]))  # (i, alpha, q, r)
    product = f.tensordot(left, omega, ([2], [0]))  # (i, alpha, r, j, beta)
    direct = f.tensordot(scaled, omega, ([3], [1]))  # (alpha, j, i, r, beta)
    if not Field.equal(product, direct.transpose(2, 0, 3, 1, 4)):
        raise BimoduleAxiomError("pointwise product rule fails in the identification")
    return SIso(end, omega, amb)

"""Dense exact linear algebra: reduced echelon form, solving, kernels,
and quotient presentations.

Conventions used throughout the package:

* vectors are 1-D arrays understood as columns,
* a matrix acts on the left, ``y = a @ x``, so composition is ``g @ f``,
* pivoting scans for the first nonzero entry (exact arithmetic needs no
  magnitude heuristics and first-hit pivots keep results deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .fields import Field


def rref(field: Field, a) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Reduced row echelon form.

    Returns the reduced array and the list of (row, col) pivot positions.
    Rational matrices go through ``_rref_rational_integer``; the loop below
    serves the prime fields.
    """
    if field.characteristic == 0:
        return _rref_rational_integer(field, field.asarray(a))
    a = field.asarray(a).copy()
    nrows, ncols = a.shape
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        colvals = a[row:, col]
        nz = np.flatnonzero(colvals)
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = field.inv_scalar(a[row, col])
        if inv != 1:
            a[row] = field.asarray(a[row] * inv)
        others = np.flatnonzero(a[:, col])
        others = others[others != row]
        if others.size:
            a[others] = field.asarray(a[others] - np.outer(a[others, col], a[row]))
        pivots.append((row, col))
        row += 1
    return a, pivots


def _rref_rational_integer(field: Field, a) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Exact RREF over the rationals through integer cross-multiplication.

    Rows are scaled to integers, elimination multiplies rows through instead
    of dividing (arbitrary-precision ints, no overflow), updated rows are
    reduced by their gcd, and pivots are normalized to 1 only at the end,
    which avoids per-operation Fraction overhead.
    """
    from fractions import Fraction
    from math import gcd

    nrows, ncols = a.shape
    work = np.empty((nrows, ncols), dtype=object)
    for i in range(nrows):
        lcm = 1
        for v in a[i]:
            d = v.denominator if isinstance(v, Fraction) else 1
            if lcm % d:
                lcm = lcm * d // gcd(lcm, d)
        for j, v in enumerate(a[i]):
            work[i, j] = (v.numerator * (lcm // v.denominator)
                          if isinstance(v, Fraction) else int(v) * lcm)
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.flatnonzero(work[row:, col])
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            work[[row, piv]] = work[[piv, row]]
        pivot_row = work[row]
        pval = pivot_row[col]
        others = np.flatnonzero(work[:, col])
        others = others[others != row]
        if others.size:
            factors = work[others, col]
            work[others] = work[others] * pval - np.outer(factors, pivot_row)
            for r in others:
                g = 0
                for v in work[r]:
                    g = gcd(g, v if v >= 0 else -v)
                    if g == 1:
                        break
                if g > 1:
                    work[r] = work[r] // g
        pivots.append((row, col))
        row += 1
    for r, c in pivots:
        pval = work[r, c]
        if pval != 1:
            row_vals = work[r]
            for j in range(ncols):
                v = row_vals[j]
                if v:
                    row_vals[j] = Fraction(v, pval)
    return field.asarray(work), pivots


def rank(field: Field, a) -> int:
    return len(rref(field, a)[1])


def _solve(field: Field, a, b):
    """Solve ``a @ x = b`` exactly; None when inconsistent.

    ``b`` may be a vector or a matrix of columns.  Free variables are set to
    zero, so the result is the reduced echelon particular solution.
    """
    a, b_arr = field.asarray(a), field.asarray(b)
    if a.shape[0] != b_arr.shape[0]:
        raise DimensionMismatchError(f"a has {a.shape[0]} rows but b has {b_arr.shape[0]}")
    vector_rhs = b_arr.ndim == 1
    if vector_rhs:
        b_arr = b_arr[:, None]
    ncols = a.shape[1]
    aug = np.concatenate([a, b_arr], axis=1)
    red, pivots = rref(field, aug)
    for r, c in pivots:
        if c >= ncols:
            return None
    x = field.zeros((ncols, b_arr.shape[1]))
    for r, c in pivots:
        x[c] = red[r, ncols:]
    return x[:, 0] if vector_rhs else x


def _kernel(field: Field, a) -> list[np.ndarray]:
    """The reduced-echelon basis of the kernel of ``a``."""
    return list(_echelon_kernel(field, a)[0])


def _echelon_kernel(field: Field, a):
    """From one elimination of ``a``: the kernel basis as rows (row f has 1 at
    free column f, 0 at the others, and minus column f of the reduced rows at
    the pivot columns), the free columns, and the nonzero reduced rows."""
    a = field.asarray(a)
    red, pivots = rref(field, a)
    pivot_cols = [c for _, c in pivots]
    free_cols = sorted(set(range(a.shape[1])).difference(pivot_cols))
    basis = field.zeros((len(free_cols), a.shape[1]))
    basis[range(len(free_cols)), free_cols] = 1
    basis[:, pivot_cols] = -red[:len(pivots), free_cols].T
    return field.asarray(basis), free_cols, red[:len(pivots)]


@dataclass
class QuotientPresentation:
    """Presentation of ambient / span(relations) with a chosen section.

    projection @ section is the identity on the quotient and the kernel
    of projection is exactly the row span of relation_basis.
    """

    field: Field
    ambient_dim: int
    relation_basis: np.ndarray  # reduced echelon rows spanning the killed subspace
    quotient_dim: int
    projection: np.ndarray  # quotient_dim x ambient_dim
    section: np.ndarray  # ambient_dim x quotient_dim

    @classmethod
    def from_relations(cls, field: Field, ambient_dim: int, relations) -> "QuotientPresentation":
        """Quotient by the row span of ``relations``: the projection rows are
        the reduced-echelon kernel basis of the relations, and the section
        sends the quotient basis to their free columns."""
        relations = np.reshape(field.asarray(relations), (-1, ambient_dim))
        proj, free_cols, rel = _echelon_kernel(field, relations[relations.any(axis=1)])
        q = len(free_cols)
        sect = field.zeros((ambient_dim, q))
        sect[free_cols, range(q)] = 1
        return cls(field, ambient_dim, rel, q, proj, sect)

    @classmethod
    def from_surjection(cls, field: Field, onto) -> "QuotientPresentation":
        """The presentation of ambient / ker(onto), for a surjective ``onto``,
        in the coordinates ``from_relations`` gives for any relations that
        span that kernel.  Their free columns are the columns of ``onto``
        outside the span of the later ones, the pivots of its reversed
        echelon form.  The projection is the one row-equivalent to ``onto``
        that is the identity on them: that echelon form read backwards in
        rows and columns.  The reduced relation rows carry the negated
        projection there."""
        onto = field.asarray(onto)
        q, ambient_dim = onto.shape
        red, pivots = rref(field, onto[:, ::-1])
        if len(pivots) != q:
            raise DimensionMismatchError(f"map of rank {len(pivots)} onto {q} coordinates")
        proj = np.ascontiguousarray(red[::-1, ::-1])
        free_cols = sorted(ambient_dim - 1 - c for _, c in pivots)
        rest = sorted(set(range(ambient_dim)).difference(free_cols))
        rel = field.zeros((len(rest), ambient_dim))
        rel[range(len(rest)), rest] = 1
        rel[:, free_cols] = -proj[:, rest].T
        sect = field.zeros((ambient_dim, q))
        sect[free_cols, range(q)] = 1
        return cls(field, ambient_dim, field.asarray(rel), q, proj, sect)

    def reduces_to_zero(self, vectors) -> bool:
        """True when every column of ``vectors`` lies in the relation span."""
        cols = self.field.asarray(vectors)
        return bool(np.all(self.field.matmul(self.projection, cols) == 0))


"""Dense exact linear algebra: reduced echelon form, solving, kernels,
and quotient presentations.  Every homogeneous system is solved by
successive restriction (``_successive_kernel``), whole or in blocks.

``_BLOCK_ENTRIES``, defined here and nowhere else, is the one entry budget
of the package: a blocked computation forms no working array larger than
it.  A check that compares two contractions compares them one slab of a
leading axis at a time (``_slabs``, ``_first_mismatch``), and a system
solved in blocks is restricted by one slab of its equations at a time.  A
slab is one item of the axis when one item alone is larger, and a small
input is one slab, so it runs the products of an unblocked computation.

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

# The entries of the largest working array of a blocked computation.  The
# intertwiner core (``bimodule._intertwiner_kernel``) was timed at budgets
# from 2**8 to 2**18: below 2**14 the Python loop over blocks costs more
# than the memory it saves, on the small balanced-form systems of every
# tensor product.
_BLOCK_ENTRIES = 2**14


def _slabs(n: int, item_entries: int) -> list[slice]:
    """The slices of a leading axis of length n into slabs of the most items
    whose arrays, of ``item_entries`` entries per item, keep within
    ``_BLOCK_ENTRIES``; a slab is one item when one item is more."""
    step = max(1, _BLOCK_ENTRIES // max(1, item_entries))
    return [slice(start, min(n, start + step)) for start in range(0, n, step)]


def _first_mismatch(n: int, item_entries: int, sides):
    """The index of the first entry, in C order, at which the two equally
    shaped arrays ``sides(sl)`` differ, over the slabs sl of a leading axis
    of length n (``_slabs``), with its leading coordinate counted on the
    whole axis; None when they agree on every slab."""
    for sl in _slabs(n, item_entries):
        lhs, rhs = sides(sl)
        if not Field.equal(lhs, rhs):
            at = np.argwhere(lhs != rhs)[0]
            return (sl.start + int(at[0]),) + tuple(int(v) for v in at[1:])
    return None


def rref(field: Field, a) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Reduced row echelon form, by one pivot loop for every field.

    Returns the reduced array and the list of (row, col) pivot positions.
    The only field-dependent step is the reduction of the eliminated rows
    mod p; over QQ they are exact already.
    """
    a = field.asarray(a).copy()
    nrows, ncols = a.shape
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        column = a[:, col]  # a view: it follows the swap and the scaling
        nz = column[row:].nonzero()[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = field.inv_scalar(a[row, col])
        if inv != 1:
            a[row] = field.asarray(a[row] * inv)
        others = column.nonzero()[0]
        if others.size > 1:  # the pivot row is always among them
            others = others[others != row]
            block = a[others]
            block -= block[:, col, None] * a[row]
            if field.characteristic:
                block %= field.characteristic
            a[others] = block
        pivots.append((row, col))
        row += 1
    return a, pivots


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
    """The reduced-echelon basis of the kernel of ``a``: one restriction of
    k^n, whose identity basis has the defect ``a.T``."""
    a = field.asarray(a)
    return list(_successive_kernel(field, a.shape[1], lambda columns, rank: [a.T])[0])


def _successive_kernel(field: Field, n: int, equations):
    """The reduced-echelon kernel basis, as rows, and its free columns, of a
    homogeneous system on k^n given in blocks, by successive restriction.

    The candidate space starts as k^n, held by a basis that is the identity on
    its free coordinates: row k is 1 at ``free[k]``, 0 at the other free ones
    and ``coeffs[k]`` at the coordinates ``rest``.  ``equations(columns,
    rank)`` yields each block as the defect of the current basis, ``rank()``
    rows of equation values, computed from ``columns(cols)``, the basis at the
    coordinates ``cols``.  One elimination of its transpose restricts the space
    to the combinations of zero defect; a zero block is skipped.

    The pivots drop the rows of the first free coordinates and rewrite each
    kept row by earlier ones, so a row's last nonzero entry stays at its free
    coordinate: the basis is in reversed reduced echelon form.  That form is
    unique for the space, as a coordinate is free exactly when some vector of
    the space has its last nonzero entry there.  So the basis is the one
    ``rref`` gives for the stacked system, in any order of the blocks."""
    free, rest = np.arange(n), np.arange(0)
    coeffs = field.zeros((n, 0))
    at = np.arange(n)  # k >= 0 at free[k], -1 - j at rest[j]

    def columns(cols):
        k = at[cols]
        is_free = k >= 0
        out = field.zeros((len(free), len(k)))
        out[k[is_free], np.flatnonzero(is_free)] = 1
        out[:, ~is_free] = coeffs[:, -1 - k[~is_free]]
        return out

    for defect in equations(columns, lambda: len(free)):
        if not defect.any():
            continue
        red, pivots = rref(field, defect.T)
        piv = [c for _, c in pivots]
        kept = np.ones(len(free), dtype=bool)
        kept[piv] = False
        mix = red[:len(piv), kept].T  # kept row g loses sum_p mix[g, p] * row piv[p]
        # the update is the peak of memory: it runs without the block, its
        # elimination or a second copy of the rewritten rows
        del defect, red
        lost = field.matmul(mix, coeffs[piv])
        coeffs = np.concatenate([np.subtract(coeffs[kept], lost, out=lost), -mix], axis=1)
        del lost
        coeffs = field.asarray(coeffs)
        free, rest = free[kept], np.concatenate([rest, free[piv]])
        at[free], at[rest] = np.arange(len(free)), -1 - np.arange(len(rest))
    basis = field.zeros((len(free), n))
    basis[np.arange(len(free)), free] = 1
    basis[:, rest] = coeffs
    return field.asarray(basis), free


@dataclass
class QuotientPresentation:
    """Presentation of ambient / span(relations) on the free columns.

    The kernel of ``projection`` is exactly the span of the relations, and
    ``projection[:, free]`` is the identity: the quotient basis lifts to the
    ambient unit vectors at ``free``, so a quotient vector lifts by scattering
    its coordinates into those columns, and an ambient map descends to the
    quotient by reading its columns there.
    """

    field: Field
    ambient_dim: int
    quotient_dim: int
    projection: np.ndarray  # quotient_dim x ambient_dim
    free: np.ndarray  # quotient_dim increasing ambient columns

    @classmethod
    def from_relations(cls, field: Field, ambient_dim: int, relations) -> "QuotientPresentation":
        """Quotient by the row span of ``relations``: the projection rows are
        the reduced-echelon kernel basis of the relations, each 1 at its own
        free column and 0 at the others."""
        relations = np.reshape(field.asarray(relations), (-1, ambient_dim))
        relations = relations[relations.any(axis=1)]
        proj, free = _successive_kernel(field, ambient_dim, lambda columns, rank: [relations.T])
        return cls(field, ambient_dim, len(free), proj, free)

"""The pivot loop ``linalg.rref`` ran before its pivot step was trimmed: a
fresh ``nonzero`` scan of the pivot column for the other rows, which drops
the pivot row by a filter, and their update by ``np.outer``.  The reduced
echelon form and its pivots are unique, so the library's ``rref`` must
return exactly what this loop returns, over every field.
"""

import numpy as np


def loop_rref(field, a):
    """Reduced row echelon form and the (row, col) pivots, as ``rref``."""
    a = field.asarray(a).copy()
    nrows, ncols = a.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = a[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = field.inv_scalar(a[row, col])
        if inv != 1:
            a[row] = field.asarray(a[row] * inv)
        others = a[:, col].nonzero()[0]
        others = others[others != row]
        if others.size:
            block = a[others]
            block -= np.outer(block[:, col], a[row])
            if field.characteristic:
                block %= field.characteristic
            a[others] = block
        pivots.append((row, col))
        row += 1
    return a, pivots

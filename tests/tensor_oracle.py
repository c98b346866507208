"""Presentations of tensor products that the library no longer builds,
kept as oracles: a tensor M (x)_C N presented by its stacked Kronecker
balancing relations, and the square C (x)_A C of a context coring presented
through its context, as (C (x)_A N) (x)_B M.  The library presents every
tensor by its balanced forms (``bimodule.tensor_over``); the tests compare
its presentations with these.
"""

import numpy as np

from coring_lab.bimodule import TensorSpace, _memo, tensor_over
from coring_lab.errors import DimensionMismatchError
from coring_lab.linalg import QuotientPresentation, rref

from coproduct_oracle import _on_left_leg


def kronecker_balancing_rows(field, rho, lam):
    """The rows m.c (x) n - m (x) c.n spanning the balancing relations over
    the middle algebra, for ``rho`` the right action tensor of the left
    factor and ``lam`` the left action tensor of the right factor: one
    Kronecker block kron(rho_c, I) - kron(I, lambda_c) per basis element c,
    with rho_c[u, u'] = rho[u, c, u']."""
    dm, dn = rho.shape[0], lam.shape[1]
    return field.asarray(np.concatenate(
        [field.kron(rho[:, c, :], field.eye(dn)) - field.kron(field.eye(dm), lam[c])
         for c in range(rho.shape[1])]))


def relation_tensor(m, n):
    """M (x)_C N presented by ``from_relations`` on the Kronecker rows, its
    outer actions induced through that projection, with their descent
    check."""
    f = m.field
    pres = QuotientPresentation.from_relations(
        f, m.dim * n.dim, kronecker_balancing_rows(f, m.right_action, n.left_action))
    ts = TensorSpace(m, n, m.right_alg, pres)
    ts.space
    return ts


def presentation_from_surjection(field, onto):
    """The presentation of ambient / ker(onto), for a surjective ``onto``,
    in the coordinates ``from_relations`` gives for any relations that span
    that kernel.  Their free columns are the columns of ``onto`` outside
    the span of the later ones, the pivots of its reversed echelon form.
    The projection is the one row-equivalent to ``onto`` that is the
    identity on them: that echelon form read backwards in rows and
    columns."""
    onto = field.asarray(onto)
    q, ambient_dim = onto.shape
    red, pivots = rref(field, onto[:, ::-1])
    if len(pivots) != q:
        raise DimensionMismatchError(f"map of rank {len(pivots)} onto {q} coordinates")
    proj = np.ascontiguousarray(red[::-1, ::-1])
    free = np.sort([ambient_dim - 1 - c for _, c in pivots]).astype(np.intp)
    return QuotientPresentation(field, ambient_dim, q, proj, free)


def context_projection(x, carrier):
    """Present X (x)_A C for C = N (x)_B M, the carrier of a context, as
    (X (x)_A N) (x)_B M, whose relations are balanced over the small B on
    dim(X (x)_A N) * dim M coordinates, not over A on dim X * dim C.

    Returns the projection of the field tensor X (x) C onto it,
    x (x) y -> [x (x) n_y] (x) m_y, where n_y (x) m_y is the lift of y to
    the carrier's free columns; its kernel is exactly the A-balancing
    relations of X (x) C.  The inner quotient is ``tensor_over(x, n)``, so
    the right B-action on it passes the descent check of every tensor."""
    f = x.field
    n, m = carrier.left_factor, carrier.right_factor
    inner = tensor_over(x, n)
    outer = QuotientPresentation.from_relations(
        f, inner.dim * m.dim,
        kronecker_balancing_rows(f, inner.space.right_action, m.left_action))
    # the transpose of P_outer kron(P_inner, I), one leg at a time, at the
    # free columns of the carrier on the second leg
    through = _on_left_leg(f, inner.projection.T, outer.projection.T, m.dim)
    k = through.shape[1]
    return through.reshape(x.dim, -1, k)[:, carrier.free].reshape(-1, k).T


@_memo
def context_square(c):
    """C (x)_A C of the coring c presented through its context, in the
    coordinates of the dense ``tensor_over(C, C)``, its outer actions built
    and checked for descent; built once per coring."""
    pres = presentation_from_surjection(c.field, context_projection(c.carrier, c.carrier_tensor))
    ts = TensorSpace(c.carrier, c.carrier, c.base, pres)
    ts.space
    return ts

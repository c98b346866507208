"""The representative coproduct of a context coring on the field tensor
square of its carrier: the d^2 x d matrix ``delta_amb`` that the library
never builds.  The tests compare the context checks with the dense product
checks on it, rebuild the written documents of ``construct`` through it,
and read the oracles of ``gamma_oracle`` off it.  The dense matrices it
multiplies by are built here: the section of a presentation and the actions
on the two legs of a field tensor, which the library reads by indexing.
"""

import numpy as np

from coring_lab.bimodule import _memo


def section_matrix(space):
    """The ambient x quotient matrix of the lift to the free columns, of a
    presentation or a presented tensor: the quotient basis sent to the unit
    vectors at ``free``."""
    pres = getattr(space, "presentation", space)
    out = pres.field.zeros((pres.ambient_dim, pres.quotient_dim))
    out[pres.free, np.arange(pres.quotient_dim)] = 1
    return out


def _on_left_leg(field, mat, x, right_dim: int):
    """kron(mat, I) @ x, acting on the first tensor leg of the rows of x
    without forming the Kronecker product."""
    k = x.shape[1]
    y = field.tensordot(mat, x.reshape(mat.shape[1], right_dim, k), ([1], [0]))
    return y.reshape(mat.shape[0] * right_dim, k)


def _on_right_leg(field, mat, x, left_dim: int):
    """kron(I, mat) @ x, acting on the second tensor leg of the rows of x."""
    k = x.shape[1]
    y = field.tensordot(mat, x.reshape(left_dim, mat.shape[1], k), ([1], [1]))  # (n', m, k)
    return y.transpose(1, 0, 2).reshape(left_dim * mat.shape[0], k)


def context_delta_amb(ts, pairs):
    """Representative coproduct n (x) m -> sum_i (n (x) m_i) (x) (n_i (x) m) on
    ts = N (x)_B M, for pairs (m_i, n_i) with tau(1) = sum_i m_i (x) n_i: the
    dual-basis pairs for a comatrix coring, the pair (1, 1) for A (x)_B A."""
    f = ts.left_factor.field
    dn, dm = ts.left_factor.dim, ts.right_factor.dim
    delta = f.zeros((ts.dim * ts.dim, ts.dim))
    for m_vec, n_vec in pairs:
        first = ts.pure(f.eye(dn), f.asarray(m_vec)[:, None])  # n -> n (x) m_i
        second = ts.pure(f.asarray(n_vec)[:, None], f.eye(dm))  # m -> n_i (x) m
        on_right = _on_right_leg(f, second, section_matrix(ts), dn)
        delta = delta + _on_left_leg(f, first, on_right, ts.dim)
    return f.asarray(delta)


@_memo
def delta_amb(c):
    """The representative coproduct of the coring c, built once per coring."""
    return context_delta_amb(c.carrier_tensor, c.tau_pairs)

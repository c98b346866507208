"""The representative coproduct of a context coring on the field tensor
square of its carrier: the d^2 x d matrix ``delta_amb`` that the library
never builds.  The tests compare the context checks with the dense product
checks on it, rebuild the written documents of ``construct`` through it,
and read the oracles of ``gamma_oracle`` off it.
"""

from coring_lab.bimodule import _memo, _on_left_leg, _on_right_leg


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
        delta = delta + _on_left_leg(f, first, _on_right_leg(f, second, ts.section, dn), ts.dim)
    return f.asarray(delta)


@_memo
def delta_amb(c):
    """The representative coproduct of the coring c, built once per coring."""
    return context_delta_amb(c.carrier_tensor, c.tau_pairs)

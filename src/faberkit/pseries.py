"""Truncated power series held as coefficient arrays along their first axis."""

import numpy as np


def divide(num, den, trunc):
    """Coefficients out[n] = [z^n] num/den for 0 <= n <= trunc.

    num[v] and den[v] are the coefficient arrays of z^v, of one shape: each
    entry is its own series, and one numpy step per n covers them all.  Long
    division, den_0 out_n = num_n - sum_{v=1}^{min(n, d-1)} den_v out_{n-v},
    needs den_0 != 0.  It stays at rounding level where den has no zero in
    |z| <= 1: an error made in out_k reaches out_n through [z^{n-k}] 1/den,
    which decays.
    """
    d = den.shape[0]
    inv = 1.0 / den[0]
    rev = den[:0:-1] * inv  # den_{d-1}/den_0, ..., den_1/den_0
    out = np.zeros((trunc + 1,) + den.shape[1:], dtype=complex)
    for n in range(trunc + 1):
        if n < num.shape[0]:
            out[n] = num[n] * inv
        # one term is a product; more are summed by one reduction over the
        # rows, as np.sum does but without its Python wrapper
        v = min(n, d - 1)
        if v == 1:
            out[n] -= rev[-1] * out[n - 1]
        elif v:
            out[n] -= np.add.reduce(rev[d - 1 - v:] * out[n - v : n], axis=0)
    return out

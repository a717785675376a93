"""Power-series division against the recurrence summed with np.sum."""

import numpy as np
import pytest

from faberkit import pseries


def divide_with_np_sum(num, den, trunc):
    """The long division with each step's terms summed by np.sum over axis 0."""
    d = den.shape[0]
    inv = 1.0 / den[0]
    rev = den[:0:-1] * inv
    out = np.zeros((trunc + 1,) + den.shape[1:], dtype=complex)
    for n in range(trunc + 1):
        v = min(n, d - 1)
        if n < num.shape[0]:
            out[n] = num[n] * inv
        if v:
            out[n] -= np.sum(rev[d - 1 - v:] * out[n - v : n], axis=0)
    return out


@pytest.mark.parametrize("degree", range(1, 9))
@pytest.mark.parametrize("points", [1, 2, 65, 300])
def test_divide_is_the_np_sum_recurrence_bit_for_bit(degree, points):
    # the denominators of faber_values: 2 degree rows, one column per point
    # and one more for u = 0; a step of one term or of several sums as
    # np.sum does
    rng = np.random.default_rng(degree * 1000 + points)
    num = rng.standard_normal((degree, points)) + 1j * rng.standard_normal((degree, points))
    den = 0.3 * (rng.standard_normal((2 * degree, points))
                 + 1j * rng.standard_normal((2 * degree, points)))
    den[0] += 2.0
    got, ref = pseries.divide(num, den, 64), divide_with_np_sum(num, den, 64)
    assert got.tobytes() == ref.tobytes()

"""Two-sided coefficient sequences, seminorms, and circle sampling."""

import math

import numpy as np
import pytest

from faberkit import (
    AliasWarning,
    CoeffSeq,
    dirichlet_norm_minus,
    dirichlet_norm_plus,
    sample_to_coeffs,
)


def cseq(neg, pos, const=0.0):
    return CoeffSeq(neg=np.asarray(neg, complex), pos=np.asarray(pos, complex),
                    const=complex(const))


def test_single_mode_norms():
    # |z^{-3}|^2 = 3 pi, |z^2|^2 = 2 pi
    a = cseq([0, 0, 1], [])
    np.testing.assert_allclose(dirichlet_norm_minus(a), math.sqrt(3 * math.pi))
    b = cseq([], [0, 1])
    np.testing.assert_allclose(dirichlet_norm_plus(b), math.sqrt(2 * math.pi))


def test_sample_to_coeffs_geometric_series():
    # 1/(w - 2) on |w| = 1: expansion -sum_n w^n / 2^{n+1}, no negative part
    neg, pos = sample_to_coeffs(lambda w: 1.0 / (w - 2.0), 12)
    for n in range(1, 13):
        np.testing.assert_allclose(pos[n - 1], -(2.0 ** (-n - 1)), rtol=1e-12)
    np.testing.assert_allclose(neg, 0, atol=1e-14)


def test_sample_to_coeffs_warns_on_aliasing():
    # pole at 1.01 decays like 1.01^{-n}: even at the 1024-sample cap the
    # fold band holds about 2% of the peak
    with pytest.warns(AliasWarning):
        sample_to_coeffs(lambda w: 1.0 / (w - 1.01), 8)

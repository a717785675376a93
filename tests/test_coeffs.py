"""Two-sided coefficient sequences, seminorms, and circle sampling."""

import math

import numpy as np
import pytest

from faberkit import (
    AliasWarning,
    dirichlet_norm,
    sample_to_coeffs,
)


def test_single_mode_norms():
    # |z^{-3}|^2 = 3 pi, |z^2|^2 = 2 pi, and both boundaries of an (n, T) array
    np.testing.assert_allclose(dirichlet_norm([0, 0, 1]), math.sqrt(3 * math.pi))
    np.testing.assert_allclose(dirichlet_norm([0, 1]), math.sqrt(2 * math.pi))
    np.testing.assert_allclose(dirichlet_norm([[0, 0, 1], [0, 1, 0]]),
                               math.sqrt(5 * math.pi))
    assert dirichlet_norm(np.zeros((2, 0))) == 0


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


def test_sample_to_coeffs_stops_on_non_finite_samples():
    # a pole on the circle: doubling N cannot make the samples finite, so
    # the extractor samples once and names the cause
    sizes = []

    def samples(w):
        sizes.append(w.size)
        return 1.0 / (w - 1.0)

    with pytest.warns(AliasWarning, match="not finite") as record, np.errstate(all="ignore"):
        sample_to_coeffs(samples, 8)
    assert sizes == [128]
    assert not any("floor" in str(w.message) for w in record)

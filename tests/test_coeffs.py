"""Two-sided coefficient sequences, seminorms, and circle sampling."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from faberkit import (
    AliasError,
    ConformalMapSpec,
    MultiDomainConfig,
    dirichlet_norm,
    pullback_boundary,
    sample_to_coeffs,
    unit_roots,
)
from faberkit import coeffs


def test_single_mode_norms():
    # |z^{-3}|^2 = 3 pi, |z^2|^2 = 2 pi, and both boundaries of an (n, T) array
    np.testing.assert_allclose(dirichlet_norm([0, 0, 1]), math.sqrt(3 * math.pi))
    np.testing.assert_allclose(dirichlet_norm([0, 1]), math.sqrt(2 * math.pi))
    np.testing.assert_allclose(dirichlet_norm([[0, 0, 1], [0, 1, 0]]),
                               math.sqrt(5 * math.pi))
    assert dirichlet_norm(np.zeros((2, 0))) == 0


@pytest.mark.parametrize("n", [1 << k for k in range(3, 16)])
def test_unit_roots_are_the_angle_grid_bit_for_bit(n):
    # every circle in the package used to scale exp(i theta_k) itself; the
    # shared nodes give the same bits at any radius, and the even nodes of
    # 2n are the nodes of n, which the extractor's doubling relies on
    theta = 2 * np.pi * np.arange(n) / n
    for r in (1.0, 1.001, 1.05):
        np.testing.assert_array_equal(r * unit_roots(n), r * np.exp(1j * theta))
    np.testing.assert_array_equal(unit_roots(2 * n)[::2], unit_roots(n))


def test_unit_roots_are_read_only():
    # the nodes are shared by every caller: a sampler that writes into its
    # w raises instead of corrupting the nodes of later calls
    def scaling_in_place(w):
        w *= 2.0
        return 1.0 / (w - 3.0)

    with pytest.raises(ValueError, match="read-only"):
        sample_to_coeffs(scaling_in_place, 8)
    np.testing.assert_array_equal(unit_roots(128), np.exp(2j * np.pi * np.arange(128) / 128))


def test_sample_to_coeffs_geometric_series():
    # 1/(w - 2) on |w| = 1: expansion -sum_n w^n / 2^{n+1}, no negative part
    neg, pos = sample_to_coeffs(lambda w: 1.0 / (w - 2.0), 12)
    for n in range(1, 13):
        np.testing.assert_allclose(pos[n - 1], -(2.0 ** (-n - 1)), rtol=1e-12)
    np.testing.assert_allclose(neg, 0, atol=1e-14)


def test_sample_to_coeffs_resolves_pole_near_circle():
    # a pole at 1.01 decays like 1.01^{-n}: it filled the fold band at the
    # old cap of N = 1024 and was warned about; its folded alias is 2.3e-7
    # of the peak at N = 2048 and 5.3e-14 at N = 4096
    sizes = []

    def samples(w):
        sizes.append(w.size)
        return 1.0 / (w - 1.01)

    neg, pos = sample_to_coeffs(samples, 8)
    assert np.cumsum(sizes).tolist() == [128, 256, 512, 1024, 2048, 4096]
    n = np.arange(1, 9)
    np.testing.assert_allclose(pos, -(1.01 ** (-n - 1.0)), rtol=1e-14)
    np.testing.assert_allclose(neg, 0, atol=1e-14)


def test_sample_to_coeffs_stops_on_non_finite_samples():
    # a pole on the circle: doubling N cannot make the samples finite, so
    # the extractor samples once and names the cause, without the numpy
    # warning of the division by zero
    sizes = []

    def samples(w):
        sizes.append(w.size)
        return 1.0 / (w - 1.0)

    with pytest.raises(AliasError, match="^samples are not finite at N = 128$"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        sample_to_coeffs(samples, 8)
    assert sizes == [128]


def test_sample_to_coeffs_doubles_past_1024_at_large_trunc():
    # at T = 128 the extractor starts at N = 1024; a pole at 1.02 folds an
    # estimated 2.5e-7 of the peak into the kept coefficients there, and
    # 6.2e-14 at N = 2048; the doubling samples only the new nodes
    sizes = []

    def samples(w):
        sizes.append(w.size)
        return 1.0 / (w - 1.02)

    neg, pos = sample_to_coeffs(samples, 128)
    assert np.cumsum(sizes).tolist() == [1024, 2048]
    n = np.arange(1, 129)
    np.testing.assert_allclose(pos, -(1.02 ** (-n - 1.0)), rtol=1e-13)
    np.testing.assert_allclose(neg, 0, atol=1e-14)


def test_doubling_evaluates_each_node_once():
    # the doubling of the test above, 1024 -> 2048, evaluates 2048 samples,
    # not 1024 + 2048, and gives the coefficients of one plain FFT of the
    # 2048 samples bit for bit
    sizes = []

    def samples(w):
        sizes.append(w.size)
        return np.stack([1.0 / (w - 1.02), w ** 2 / (w + 1.025)], axis=1)

    neg, pos = sample_to_coeffs(samples, 128)
    assert sizes == [1024, 1024]
    n = 2048
    spec = np.fft.fft(samples(np.exp(2j * np.pi * np.arange(n) / n)), axis=0) / n
    ns = np.arange(1, 129)
    np.testing.assert_array_equal(neg, spec[n - ns])
    np.testing.assert_array_equal(pos, spec[ns])


def _many_columns(rho):
    # one column 1/(w - rho_k) per pole; 1100 columns span at least three
    # column blocks of the spectrum at every N up to 512
    def samples(w):
        return 1.0 / (w[:, None] - rho)

    return samples


@pytest.mark.parametrize("near, sizes", [(3.0, [128]), (1.1, [128, 128, 256])],
                         ids=["start", "doubled"])
def test_blocked_spectrum_is_the_whole_fft(near, sizes):
    # a spectrum of more than _SPECTRUM_BLOCK values is read a block of
    # columns at a time: the same bits as one FFT of the whole array, at
    # the start N and after doublings (a pole at 1.1 in the last column)
    rho = np.linspace(2.0, 4.0, 1100) * np.exp(1j * np.linspace(0.0, 6.0, 1100))
    rho[-1] = near
    fn = _many_columns(rho)
    seen = []

    def samples(w):
        seen.append(w.size)
        return fn(w)

    neg, pos = sample_to_coeffs(samples, 8)
    assert seen == sizes
    n = sum(sizes)
    assert rho.size > 2 * (coeffs._SPECTRUM_BLOCK // n)
    spec = np.fft.fft(fn(unit_roots(n)), axis=0, norm="forward")
    ns = np.arange(1, 9)
    np.testing.assert_array_equal(neg.view(np.int64), spec[n - ns].view(np.int64))
    np.testing.assert_array_equal(pos.view(np.int64), spec[ns].view(np.int64))


def test_blocked_spectrum_of_one_long_column_is_the_whole_fft():
    # one column longer than _SPECTRUM_BLOCK is one block: a pole at 1.001
    # runs the extractor to N = 2^16, and its rows are those of one plain
    # transform of the samples, bit for bit
    sizes = []

    def fn(w):
        sizes.append(w.size)
        return 1.0 / (w - 1.001)

    neg, pos = sample_to_coeffs(fn, 1)
    n = sum(sizes)
    assert n == 1 << 16
    assert n > coeffs._SPECTRUM_BLOCK
    spec = np.fft.fft(1.0 / (unit_roots(n) - 1.001), norm="forward")
    assert neg.view(np.int64).tolist() == spec[[n - 1]].view(np.int64).tolist()
    assert pos.view(np.int64).tolist() == spec[[1]].view(np.int64).tolist()


def test_blocked_spectrum_stops_on_a_nan_in_its_last_block():
    # one NaN sample in the last column, so in the last block only: the
    # extractor still names the non-finite samples, at the first N
    fn = _many_columns(np.full(1100, 3.0))
    seen = []

    def samples(w):
        seen.append(w.size)
        out = fn(w)
        out[5, -1] = np.nan
        return out

    with pytest.raises(AliasError, match="^samples are not finite at N = 128$"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        sample_to_coeffs(samples, 8)
    assert seen == [128]


def test_pullback_boundary_doubling_evaluates_h_once_per_node():
    # h o f = 1/(w - 0.9) on the unit disk at 0: a_{-m} = 0.9^{m-1}, whose
    # fold band needs N = 512 at T = 8; h sees each of the 512 nodes once
    config = MultiDomainConfig(maps=(ConformalMapSpec(center=0.0, coeffs=(1.0,)),))
    sizes = []

    def h(z):
        sizes.append(z.size)
        return 1.0 / (z - 0.9)

    neg, pos = pullback_boundary(config, 0, h, 8)
    assert np.cumsum(sizes).tolist() == [128, 256, 512]
    m = np.arange(1, 9)
    np.testing.assert_allclose(neg, 0.9 ** (m - 1.0), rtol=1e-14)
    np.testing.assert_allclose(pos, 0, atol=1e-15)


@pytest.mark.parametrize("trunc, columns, sizes", [
    (8, 1, [128 << k for k in range(15)]),
    (128, 256, [1024, 2048, 4096, 8192]),
], ids=["circle-T8", "circle-T128"])
def test_extractors_share_sizing_policy(trunc, columns, sizes):
    # the extractor doubles from its start until N times the columns reaches
    # 2^21 values, evaluating only the new nodes of each doubling, then
    # raises; a sampler whose alias never clears and one with a pole on the
    # nodes (sampled once and named) show both ends.  256 columns, a T = 256
    # pullback block, stop at N = 8192, the old cap at that size
    slow, pole = (lambda w: 1.0 / (w - (1 + 1e-6))), (lambda w: 1.0 / (w - 1.0))
    budget = r"^N = %d: folded alias estimate \S+ exceeds" % sizes[-1]
    for fn, expect, match in ((slow, sizes, budget),
                              (pole, sizes[:1], "^samples are not finite at N = %d$" % sizes[0])):
        seen = []

        def samples(w):
            seen.append(w.size)
            return np.repeat(fn(w)[:, None], columns, axis=1)

        with pytest.raises(AliasError, match=match), warnings.catch_warnings():
            warnings.simplefilter("error")
            sample_to_coeffs(samples, trunc)
        assert np.cumsum(seen).tolist() == expect


def test_refused_extraction_leaves_little_cached():
    # the circle-T8 refusal above runs N up to 2^21; the grids it leaves
    # behind are those up to 2^13 nodes, 254 KiB, where every grid it used,
    # 64 MiB, used to stay cached
    slow = lambda w: 1.0 / (w - (1 + 1e-6))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(AliasError, match=r"^N = 2097152: "):
            sample_to_coeffs(slow, 8)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def _small_slow_pole(res, rho):
    # 1/w plus a pole of residue res at rho: a_{-m} = [m = 1] + res rho^{m-1}
    def fn(w):
        return 1.0 / w + res / (w - rho)

    return fn


def test_sample_to_coeffs_sizes_by_folded_alias():
    # at N = 128 the small pole at 0.9 aliases 1.4e-12 into a_{-1}; its
    # decay across the fold band sends N to 256, where the alias is 2e-18
    res, rho = 1e-6, 0.9
    seen = []

    def samples(w):
        seen.append(w.size)
        return _small_slow_pole(res, rho)(w)

    neg, pos = sample_to_coeffs(samples, 8)
    assert np.cumsum(seen).tolist() == [128, 256]
    m = np.arange(1, 9)
    np.testing.assert_allclose(neg, (m == 1) + res * rho ** (m - 1.0), rtol=0, atol=1e-15)
    np.testing.assert_allclose(pos, 0, atol=1e-15)


def test_sample_to_coeffs_resolves_small_slow_pole():
    # at the old cap N = 1024 the fold band held 5e-9 of the peak but the
    # folded alias was 2.5e-10, over FOLD_TOL, and was warned about; the
    # estimate falls to 6.3e-13 at N = 2048 and 3.9e-18 at N = 4096
    res, rho = 1e-7, 0.05 ** (1 / 384)
    seen = []

    def samples(w):
        seen.append(w.size)
        return _small_slow_pole(res, rho)(w)

    neg, pos = sample_to_coeffs(samples, 8)
    assert np.cumsum(seen).tolist() == [128, 256, 512, 1024, 2048, 4096]
    m = np.arange(1, 9)
    np.testing.assert_allclose(neg, (m == 1) + res * rho ** (m - 1.0), rtol=0, atol=1e-15)
    np.testing.assert_allclose(pos, 0, atol=1e-15)

"""Two-sided coefficient sequences, seminorms, and circle sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faberkit import (
    AliasWarning,
    CoeffSeq,
    dirichlet_norm_minus,
    dirichlet_norm_plus,
    eval_series,
    h_half_norm,
    project_minus,
    project_plus,
    reflect,
    sample_to_coeffs,
)

finite = st.floats(-2.0, 2.0, allow_nan=False)


def cseq(neg, pos, const=0.0):
    return CoeffSeq(neg=np.asarray(neg, complex), pos=np.asarray(pos, complex),
                    const=complex(const))


def test_single_mode_norms():
    # |z^{-3}|^2 = 3 pi, |z^2|^2 = 2 pi
    a = cseq([0, 0, 1], [])
    np.testing.assert_allclose(dirichlet_norm_minus(a), math.sqrt(3 * math.pi))
    b = cseq([], [0, 1])
    np.testing.assert_allclose(dirichlet_norm_plus(b), math.sqrt(2 * math.pi))


def test_h_half_norm_two_modes():
    # z^{-1} + z: norm^2 = pi(1 + 1) = 2 pi
    a = cseq([1], [1])
    np.testing.assert_allclose(h_half_norm(a) ** 2, 2 * math.pi, rtol=1e-14)


@settings(max_examples=80, deadline=None)
@given(st.lists(finite, min_size=0, max_size=6), st.lists(finite, min_size=0, max_size=6),
       finite)
def test_parseval_split(neg, pos, const):
    a = cseq(neg, pos, const)
    lhs = h_half_norm(a) ** 2
    rhs = dirichlet_norm_minus(project_minus(a)) ** 2 + dirichlet_norm_plus(project_plus(a)) ** 2
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_projections_idempotent_and_complementary():
    a = cseq([1, 2j], [3, 0, -1], const=5.0)
    m, p = project_minus(a), project_plus(a)
    assert m.pos.size == 0 and m.const == 0
    assert p.neg.size == 0 and p.const == 0
    total = set(m.frequencies()) | set(p.frequencies()) | {0}
    for n in sorted(total):
        np.testing.assert_allclose(m.coeff(n) + p.coeff(n) + (a.const if n == 0 else 0),
                                   a.coeff(n))


def test_coeff_lookup():
    a = cseq([1, 2], [3], const=7)
    assert a.coeff(-2) == 2
    assert a.coeff(-1) == 1
    assert a.coeff(0) == 7
    assert a.coeff(1) == 3
    assert a.coeff(5) == 0


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


def test_eval_series_matches_function():
    # constant term of 1/(w - 2) is -1/2; the extractor drops constants
    fn = lambda w: 1.0 / (w - 2.0) + 0.25 / w ** 2
    neg, pos = sample_to_coeffs(fn, 32)
    a = CoeffSeq(neg=neg, pos=pos, const=-0.5)
    pts = np.exp(2j * np.pi * np.array([0.1, 0.37, 0.81]))
    np.testing.assert_allclose(eval_series(a, pts), fn(pts), rtol=1e-9)


def test_reflect_on_circle():
    # s(z) = z^{-2} reflects to conj(zeta)^2 for |zeta| = r
    a = cseq([0, 1], [])
    refl = reflect(a)
    zeta = 0.7 * np.exp(0.3j)
    np.testing.assert_allclose(refl(zeta), np.conj(zeta) ** 2, rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.lists(finite, min_size=1, max_size=5))
def test_reflect_agrees_with_series_on_unit_circle(neg):
    # on |zeta| = 1, conj(zeta) = 1/zeta, so reflection equals evaluation
    a = cseq(neg, [])
    refl = reflect(a)
    zeta = np.exp(1.1j)
    np.testing.assert_allclose(refl(zeta), eval_series(a, zeta), rtol=1e-12, atol=1e-12)

"""Faber functions: closed forms, the integral oracle, and rational algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faberkit import (
    ConformalMapSpec,
    MultiDomainConfig,
    RationalFn,
    apply_big_faber,
    apply_faber,
    faber_series_table,
    faber_values,
)

from oracles import faber_oracle

small = st.floats(-1.0, 1.0, allow_nan=False)


def test_affine_closed_form():
    # f = 2 + 0.8 w: the m-th function is (0.8)^m / (z - 2)^m
    spec = ConformalMapSpec(center=2.0, coeffs=(0.8,))
    np.testing.assert_allclose(faber_series_table(spec, 3)[:, 2], [0.0, 0.0, 0.512], atol=1e-15)


def test_quadratic_second_function():
    # f = -2 + w + 0.1 w^2: degree-2 function is (z+2)^{-2} + 0.2 (z+2)^{-1},
    # from matching w^{-2} + O(w) under composition (hand computation)
    spec = ConformalMapSpec(center=-2.0, coeffs=(1.0, 0.1))
    np.testing.assert_allclose(faber_series_table(spec, 2)[:, 1], [0.2, 1.0], atol=1e-13)


def test_leading_coefficient_exact():
    # the top coefficient is the running float product a1 * ... * a1, exactly
    for a1 in (0.8, 1.0, 0.5 + 0.25j):
        spec = ConformalMapSpec(center=1j, coeffs=(a1, 0.07))
        prod = 1.0 + 0j
        for m in range(1, 9):
            prod = prod * a1
            assert faber_series_table(spec, m)[m - 1, m - 1] == prod


def test_matches_integral_oracle():
    # independent route: Cauchy integral of w^{-m} (f(w) - z)^{-1} f'(w)
    spec = ConformalMapSpec(center=-2.0, coeffs=(1.0, 0.1))
    grid = -2.0 + 2.5 * np.exp(2j * np.pi * np.arange(20) / 20)
    values = faber_values(spec, 1.0 / (grid - spec.center), 8)
    for m in range(1, 9):
        oracle = faber_oracle(spec, m, grid)
        np.testing.assert_allclose(values[:, m - 1], oracle, rtol=1e-9, atol=1e-12)


def test_vanishes_at_infinity():
    # decay is O(1/z); at 1e8 the value is at most ~1e-8
    spec = ConformalMapSpec(center=2.0, coeffs=(1.0, 0.05, 0.02j))
    assert abs(faber_values(spec, [1.0 / (1e8 - spec.center)], 4)[0, 3]) < 1e-6


def test_series_table_triangular():
    # table[k-1, m-1] is the coefficient of (z-p)^{-k} in the m-th function,
    # zero for k > m
    spec = ConformalMapSpec(center=0.0, coeffs=(1.0, 0.1))
    table = faber_series_table(spec, 6)
    assert table.shape == (6, 6)
    np.testing.assert_allclose(np.tril(table, -1), 0, atol=0)


@pytest.mark.parametrize("coeffs", [(0.8j,), (1.0, 0.1), (1.0, -0.05j, 0.04),
                                    (0.9 + 0.3j, 0.1, -0.03j, 0.01)],
                         ids=["d1", "d2", "d3", "d4"])
def test_faber_values_match_exact_coefficients(coeffs):
    # the recurrence against the principal parts summed at small T, where
    # the exact coefficients are still O(1).  Both sides are polynomials in
    # u, so any points do; u = 0 is z at infinity, where every Phi_m vanishes
    spec = ConformalMapSpec(center=1.0 - 0.5j, coeffs=coeffs)
    trunc = 8
    u = np.concatenate([0.6 * np.exp(2j * np.pi * np.arange(9) / 9), [0.25, -1.1j, 0]])
    table = faber_series_table(spec, trunc)
    exact = (u[:, None] ** np.arange(1, trunc + 1)) @ table
    values = faber_values(spec, u, trunc)
    assert values.shape == (u.size, trunc)
    np.testing.assert_allclose(values, exact, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(values[-1], 0)


def test_apply_faber_two_modes():
    # H = w^{-1} + w^{-2} through f = -2 + w + 0.1 w^2:
    # sum of the first two functions, 1.2/(z+2) + 1/(z+2)^2
    cfg = MultiDomainConfig(maps=(ConformalMapSpec(center=-2.0, coeffs=(1.0, 0.1)),))
    out = apply_faber(cfg, 0, np.array([1.0, 1.0], dtype=complex))
    assert out.terms == ((-2.0 + 0j, 1, 1.2 + 0j), (-2.0 + 0j, 2, 1.0 + 0j))


@settings(max_examples=40, deadline=None)
@given(st.lists(small, min_size=1, max_size=5), st.lists(small, min_size=1, max_size=5),
       small)
def test_apply_faber_linear(h1, h2, c):
    cfg = MultiDomainConfig(maps=(ConformalMapSpec(center=2.0, coeffs=(0.8, -0.05)),))
    n = max(len(h1), len(h2))
    a = np.zeros(n, complex)
    a[:len(h1)] = h1
    b = np.zeros(n, complex)
    b[:len(h2)] = h2
    grid = 2.0 + 3.0 * np.exp(2j * np.pi * np.arange(7) / 7)
    lhs = apply_faber(cfg, 0, a + c * b)(grid)
    rhs = apply_faber(cfg, 0, a)(grid) + c * apply_faber(cfg, 0, b)(grid)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_apply_big_faber_merges_regions(config_a):
    # the rows may differ in length
    out = apply_big_faber(config_a, (np.array([1.0 + 0j]), np.array([0j, 2.0 + 0j])))
    # affine pieces pass through unchanged: 1/(z+2) + 2/(z-2)^2
    assert out.terms == ((-2.0 + 0j, 1, 1.0 + 0j), (2.0 + 0j, 2, 2.0 + 0j))


def test_rationalfn_merges_duplicate_terms():
    r = RationalFn(terms=((1j, 1, 1.0), (1j, 1, 2.0), (0.0, 2, 0.0)))
    assert r.terms == ((1j, 1, 3.0 + 0j),)


def test_rationalfn_derivative_and_eval():
    r = RationalFn.single(1.0, 1, 2.0)
    d = r.derivative()
    assert d.terms == ((1.0 + 0j, 2, -2.0 + 0j),)
    z = np.array([3.0, 1 + 1j])
    np.testing.assert_allclose(d(z), -2.0 / (z - 1.0) ** 2)


"""Cauchy quadrature against residue calculus and the dense reference sum."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faberkit import ConformalMapSpec, Contour, TooCloseToContour, cauchy_eval


def dense_cauchy(contour, h_samples, z):
    """The trapezoid sum as a complex division matrix, summed column by column."""
    zeta = contour.points()
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    diff = zeta[:, None] - z_arr[None, :]
    weights = np.asarray(h_samples, dtype=complex) * contour.dpoints()
    return -np.sum(weights[:, None] / diff, axis=0) / (1j * zeta.size)


def unit_circle(n_samples=64):
    # samples 0.098 apart: a point on one is farther than d_min = 0.05 from the others
    return Contour.image(ConformalMapSpec(center=0.0, coeffs=(1.0,)), 1.0,
                         n_samples=n_samples)


def test_cauchy_eval_exterior_sign():
    # h(zeta) = 1/(zeta + 2) on |zeta + 2| = 0.5, evaluated at z = 5:
    # -(1/2 pi i) oint h/(zeta - z) = h(z) for z outside, so +1/7
    c = Contour.image(ConformalMapSpec(center=-2.0, coeffs=(0.5,)), 1.0, n_samples=256)
    h = 1.0 / (c.points() + 2.0)
    val = cauchy_eval(c, h, np.array([5.0]))
    np.testing.assert_allclose(val, [1.0 / 7.0], rtol=1e-12)


def test_cauchy_eval_reproduces_exterior_function():
    spec = ConformalMapSpec(center=2.0, coeffs=(0.8,))
    c = Contour.image(spec, radius=1.0, n_samples=512)
    h = lambda z: 1.0 / (z - 2.0) + 0.5 / (z - 2.0) ** 2
    z = np.array([4.0, -1.0, 2 + 2j])
    np.testing.assert_allclose(cauchy_eval(c, h(c.points()), z), h(z), rtol=1e-11)


def test_cauchy_eval_too_close():
    c = unit_circle()
    msg = "evaluation point (1.0001+0j) is 0.0001 from the contour, below d_min 0.05"
    with pytest.raises(TooCloseToContour, match=re.escape(msg)):
        cauchy_eval(c, c.points(), np.array([1.0 + 1e-4]), d_min=0.05)


@pytest.mark.parametrize("d_min", [0.0, -0.05])
def test_cauchy_eval_refuses_non_positive_d_min(d_min):
    c = unit_circle()
    with pytest.raises(ValueError, match="d_min must be positive"):
        cauchy_eval(c, c.points(), c.points()[3], d_min=d_min)


def _radial_offset(c, k, dist):
    """The point dist outside sample k of a circle centered at 0; sample k is nearest."""
    zeta = c.points()[k]
    return zeta + dist * zeta / abs(zeta)


@pytest.mark.parametrize("dist", [0.0, 0.05 * (1 - 1e-6)], ids=["on-sample", "just-inside"])
def test_cauchy_eval_close_point_raises_without_warning(dist):
    c = unit_circle()
    z = np.array([3.0, _radial_offset(c, 5, dist), 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TooCloseToContour, match="is %.3g from the contour" % dist):
            cauchy_eval(c, c.points(), z, d_min=0.05)
        with pytest.raises(TooCloseToContour):
            cauchy_eval(c, c.points(), z[1], d_min=0.05)


def test_cauchy_eval_just_outside_d_min_evaluates():
    c = unit_circle()
    z = _radial_offset(c, 5, 0.05 * (1 + 1e-6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = cauchy_eval(c, 1.0 / c.points(), z, d_min=0.05)
    np.testing.assert_allclose(val, dense_cauchy(c, 1.0 / c.points(), z)[0], rtol=1e-12)


def test_cauchy_eval_nan_point_gives_nan():
    c = unit_circle()
    # a NaN point must not hide a close one in the same block either
    with pytest.raises(TooCloseToContour):
        cauchy_eval(c, c.points(), np.array([np.nan, 1.0 + 1e-4]))
    val = cauchy_eval(c, 1.0 / c.points(), np.array([np.nan, 3.0, complex(2.0, np.nan)]))
    assert np.isnan(val[0]) and np.isnan(val[2])
    np.testing.assert_allclose(val[1], 1.0 / 3.0, rtol=1e-12)
    assert np.isnan(cauchy_eval(c, c.points(), np.nan))


@st.composite
def contour_problems(draw):
    center = complex(draw(st.floats(-3, 3)), draw(st.floats(-3, 3)))
    a1 = complex(draw(st.floats(0.2, 2.0)), draw(st.floats(-1.0, 1.0)))
    coeffs = (a1,)
    if draw(st.booleans()):
        coeffs += (a1 * complex(draw(st.floats(-0.4, 0.4)), draw(st.floats(-0.4, 0.4))),)
    spec = ConformalMapSpec(center=center, coeffs=coeffs)
    contour = Contour.image(spec, draw(st.floats(0.5, 1.5)),
                            n_samples=draw(st.sampled_from([64, 256, 1024])))
    # None: one scalar point; 4097 and more cross a block boundary
    size = draw(st.sampled_from([None, 1, 17, 4097 + draw(st.integers(0, 200))]))
    return contour, size, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None)
@given(contour_problems())
def test_cauchy_eval_matches_dense_reference(problem):
    contour, size, seed = problem
    rng = np.random.default_rng(seed)
    zeta = contour.points()
    h = rng.standard_normal(zeta.size) + 1j * rng.standard_normal(zeta.size)
    center = contour.map_spec.center
    reach = float(np.max(np.abs(zeta - center)))
    # every point lies at least 0.1 farther from the center than any sample
    radius = reach + 0.1 + rng.exponential(reach + 1.0, size or 1)
    z = center + radius * np.exp(2j * np.pi * rng.random(radius.size))
    if size is None:
        z = complex(z[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cauchy_eval(contour, h, z)
    ref = dense_cauchy(contour, h, z)
    if size is None:
        assert isinstance(got, complex)
        got = np.array([got])
    np.testing.assert_allclose(got, ref, rtol=1e-12)


@pytest.mark.parametrize("center", [0.0, 3.0 - 2.0j])
def test_cauchy_eval_far_and_infinite_points(center):
    # NaN stays NaN, infinity gives 0, and far points up to |z| = 1e300 keep
    # the dense value although |z - zeta|^2 overflows from |z| ~ 1e154 on
    c = Contour.image(ConformalMapSpec(center=center, coeffs=(1.0, 0.2)), 1.0, n_samples=256)
    rng = np.random.default_rng(7)
    h = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    inf = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        special = cauchy_eval(c, h, np.array([complex(inf, 0), complex(-inf, 0),
                                              complex(0, inf), complex(0, -inf),
                                              complex(np.nan, 0)]))
        np.testing.assert_array_equal(special[:4], 0)
        assert np.isnan(special[4])
        assert cauchy_eval(c, h, inf) == 0
        radius = 10.0 ** np.linspace(1, 300, 300)
        z = center + radius * np.exp(2j * np.pi * rng.random(radius.size))
        np.testing.assert_allclose(cauchy_eval(c, h, z), dense_cauchy(c, h, z), rtol=1e-12)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_cauchy_eval_accuracy_does_not_depend_on_offset(offset):
    # the kernel works relative to the map's center: a sum conj(z) A - B
    # taken about 0 would lose about |z| / |z - zeta| of its digits here
    c = Contour.image(ConformalMapSpec(center=offset * (1 + 1j), coeffs=(1.0, 0.2)), 1.0,
                      n_samples=1024)
    rng = np.random.default_rng(3)
    h = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    radius = 1.2 + 0.1 + rng.exponential(2.0, 500)
    z = c.map_spec.center + radius * np.exp(2j * np.pi * rng.random(radius.size))
    np.testing.assert_allclose(cauchy_eval(c, h, z), dense_cauchy(c, h, z), rtol=1e-12)

"""Cauchy quadrature against residue calculus and the dense reference sum."""

import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist as scipy_cdist

from faberkit import (
    ConformalMapSpec,
    Contour,
    RationalFn,
    TooCloseToContour,
    cauchy_eval,
    evaluate_map,
    probe_grid,
    quadrature,
)
from faberkit.cli import load_config_file

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def dense_cauchy(contour, h_samples, z):
    """The trapezoid sum as a complex division matrix, summed column by column."""
    zeta = contour.points()
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    diff = zeta[:, None] - z_arr[None, :]
    weights = np.asarray(h_samples, dtype=complex) * contour.dpoints()
    return -np.sum(weights[:, None] / diff, axis=0) / (1j * zeta.size)


def term_scale(contour, h_samples, z):
    """The scale of the trapezoid sum's terms at each point,
    (1/N) sum_k |h(zeta_k) dzeta_k| / |z - zeta_k|."""
    zeta = contour.points()
    weights = np.abs(np.asarray(h_samples, dtype=complex) * contour.dpoints())
    dist = np.abs(zeta[:, None] - np.atleast_1d(np.asarray(z, dtype=complex))[None, :])
    return np.sum(weights[:, None] / dist, axis=0) / zeta.size


def unit_circle(n_samples=64):
    # samples 0.098 apart: a point on one is farther than d_min = 0.05 from the others
    return Contour(ConformalMapSpec(center=0.0, coeffs=(1.0,)), 1.0,
                         n_samples=n_samples)


def test_cauchy_eval_exterior_sign():
    # h(zeta) = 1/(zeta + 2) on |zeta + 2| = 0.5, evaluated at z = 5:
    # -(1/2 pi i) oint h/(zeta - z) = h(z) for z outside, so +1/7
    c = Contour(ConformalMapSpec(center=-2.0, coeffs=(0.5,)), 1.0, n_samples=256)
    h = 1.0 / (c.points() + 2.0)
    val = cauchy_eval(c, h, np.array([5.0]))
    np.testing.assert_allclose(val, [1.0 / 7.0], rtol=1e-12)


def test_cauchy_eval_reproduces_exterior_function():
    spec = ConformalMapSpec(center=2.0, coeffs=(0.8,))
    c = Contour(spec, radius=1.0, n_samples=512)
    h = lambda z: 1.0 / (z - 2.0) + 0.5 / (z - 2.0) ** 2
    z = np.array([4.0, -1.0, 2 + 2j])
    np.testing.assert_allclose(cauchy_eval(c, h(c.points()), z), h(z), rtol=1e-11)


def test_cauchy_eval_too_close():
    c = unit_circle()
    msg = "evaluation point (1.0001+0j) is 0.0001 from the contour, below d_min 0.05"
    with pytest.raises(TooCloseToContour, match=re.escape(msg)):
        cauchy_eval(c, c.points(), np.array([1.0 + 1e-4]), d_min=0.05)


@pytest.mark.parametrize("radius", [0.0, -1.0, np.inf, np.nan])
def test_contour_radius_must_be_positive_and_finite(radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        Contour(ConformalMapSpec(center=0.0, coeffs=(1.0,)), radius)


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
    contour = Contour(spec, draw(st.floats(0.5, 1.5)),
                            n_samples=draw(st.sampled_from([64, 256, 1024])))
    # None: one scalar point; 4097 and more cross a block boundary
    size = draw(st.sampled_from([None, 1, 17, 4097 + draw(st.integers(0, 200))]))
    return contour, size, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None)
@given(contour_problems())
# two draws with a point whose value is 4e-4 and 2.5e-5 of its term scale,
# off the dense sum by 1.4e-12 and 1.5e-12 relative to that value
@example((Contour(ConformalMapSpec(0j, (1.5 + 1j,)), 1.5, 1024), 4182, 3937350))
@example((Contour(ConformalMapSpec(0j, (1.1015625 + 0.40625j,
                                        0.27632629029429184 - 0.013638741790321388j)),
                  0.81640625, 1024), 4161, 4159))
def test_cauchy_eval_matches_dense_reference(problem):
    # cauchy_eval converges on the scale of the sum's terms at each point,
    # not of its value: a point near a zero of the integral is good to
    # rounding of that scale, which can exceed 1e-12 of its value
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
    bound = 1e-12 * np.abs(ref) + 1e-13 * term_scale(contour, h, z)
    assert np.all(np.abs(got - ref) <= bound), np.max(np.abs(got - ref) / bound)


@pytest.mark.parametrize("center", [0.0, 3.0 - 2.0j])
def test_cauchy_eval_far_and_infinite_points(center):
    # NaN stays NaN, infinity gives 0, and far points up to |z| = 1e300 keep
    # the dense value although |z - zeta|^2 overflows from |z| ~ 1e154 on
    c = Contour(ConformalMapSpec(center=center, coeffs=(1.0, 0.2)), 1.0, n_samples=256)
    rng = np.random.default_rng(7)
    h = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    inf = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        special = cauchy_eval(c, h, np.array([complex(inf, 0), complex(-inf, 0),
                                              complex(0, inf), complex(0, -inf),
                                              complex(inf, inf), complex(-inf, inf),
                                              complex(np.nan, 0)]))
        np.testing.assert_array_equal(special[:6], 0)
        assert np.isnan(special[6])
        assert cauchy_eval(c, h, inf) == 0
        radius = 10.0 ** np.linspace(1, 300, 300)
        z = center + radius * np.exp(2j * np.pi * rng.random(radius.size))
        np.testing.assert_allclose(cauchy_eval(c, h, z), dense_cauchy(c, h, z), rtol=1e-12)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_cauchy_eval_accuracy_does_not_depend_on_offset(offset):
    # the kernel works relative to the map's center: a sum conj(z) A - B
    # taken about 0 would lose about |z| / |z - zeta| of its digits here
    c = Contour(ConformalMapSpec(center=offset * (1 + 1j), coeffs=(1.0, 0.2)), 1.0,
                      n_samples=1024)
    rng = np.random.default_rng(3)
    h = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    radius = 1.2 + 0.1 + rng.exponential(2.0, 500)
    z = c.map_spec.center + radius * np.exp(2j * np.pi * rng.random(radius.size))
    np.testing.assert_allclose(cauchy_eval(c, h, z), dense_cauchy(c, h, z), rtol=1e-12)


def test_cauchy_eval_slow_convergence_keeps_full_rule_accuracy():
    # just beyond d_min + lambda_256 the 256-node rule converges slowly: a
    # small difference to the 128-node rule alone would stop these points
    # about 1e-13 from the full rule
    c = Contour(ConformalMapSpec(center=0.0, coeffs=(1.0,)), 1.0, n_samples=1024)
    zeta = c.points()
    h = 1.0 / (zeta - 0.9)
    dist = np.linspace(0.055, 0.1, 10)
    z = (-(1 + dist[:, None]) * np.exp(1j * np.linspace(-0.5, 0.5, 41))).ravel()
    np.testing.assert_allclose(cauchy_eval(c, h, z), dense_cauchy(c, h, z), rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(contour_problems())
def test_nested_rule_reach_covers_every_sample(problem):
    # test 3 stops a point at the m-node rule only where it lies
    # d_min + lambda_m from the rule's nodes; that keeps it d_min from every
    # sample only if each sample lies within lambda_m of one of those nodes
    contour, _, _ = problem
    n, d_min = contour.n_samples, 0.05
    xy, dz, _, dz_max = quadrature._node_geometry(contour)
    rules = quadrature._nested_rules(xy, dz, dz_max, np.ones(n), d_min)[2]
    zeta = contour.points()
    reached = [(m, reach2) for m, _, _, reach2, _ in rules if 64 < m < n]
    assert [m for m, _ in reached] == [m for m in (128, 256, 512) if m < n]
    for m, reach2 in reached:
        nodes = zeta[:: n // m]
        nearest = np.min(np.abs(zeta[:, None] - nodes[None, :]), axis=1)
        assert np.max(nearest) <= math.sqrt(reach2) - d_min


def _too_close_message(zeta, z, d_min):
    """The TooCloseToContour message for the nearest pair over all samples."""
    k, j = divmod(int(np.argmin(np.abs(zeta[:, None] - z[None, :]))), z.size)
    return "evaluation point %s is %.3g from the contour, below d_min %.3g" % (
        complex(z[j]), abs(z[j] - zeta[k]), d_min)


@settings(max_examples=40, deadline=None)
@given(contour_problems())
def test_cauchy_eval_d_min_decision_matches_dense_minimum(problem):
    # points 0.5-3 d_min from samples and from midpoints between them, on
    # both sides of the contour: a point raises exactly when the minimum
    # over all samples is below d_min, whichever rule it would stop at.
    # h = 0 converges at once, so there only the geometry keeps a close
    # point from stopping early.
    contour, _, seed = problem
    rng = np.random.default_rng(seed)
    zeta = contour.points()
    n, d_min = zeta.size, 0.05
    k = rng.integers(0, n, 8)
    base = np.where(rng.random(8) < 0.5, zeta[k], 0.5 * (zeta[k] + zeta[(k + 1) % n]))
    z = base + d_min * rng.uniform(0.5, 3.0, 8) * np.exp(2j * np.pi * rng.random(8))
    near = np.min(np.abs(zeta[:, None] - z[None, :]), axis=0) < d_min
    # analytic near the contour: the pole's parameter is w = 0
    analytic = 1.0 / (zeta - contour.map_spec.center)
    for h in (analytic, np.zeros(n)):
        ref = dense_cauchy(contour, h, z)
        # inside the contour the integral is 0 and both sums are rounding about it
        atol = 1e-12 * float(np.max(np.abs(h)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in range(z.size):
                if near[j]:
                    msg = _too_close_message(zeta, z[j:j + 1], d_min)
                    with pytest.raises(TooCloseToContour, match=re.escape(msg)):
                        cauchy_eval(contour, h, complex(z[j]), d_min=d_min)
                else:
                    got = cauchy_eval(contour, h, complex(z[j]), d_min=d_min)
                    np.testing.assert_allclose(got, ref[j], rtol=1e-12, atol=atol)
            if near.any():
                msg = _too_close_message(zeta, z, d_min)
                with pytest.raises(TooCloseToContour, match=re.escape(msg)):
                    cauchy_eval(contour, h, z, d_min=d_min)
            else:
                np.testing.assert_allclose(cauchy_eval(contour, h, z, d_min=d_min), ref,
                                           rtol=1e-12, atol=atol)


def test_cauchy_eval_nested_rules_save_pairs(monkeypatch):
    # on three_disks' probe grid most points stop long before the full
    # rule, at no cost in accuracy against it
    config = load_config_file(str(CONFIGS / "three_disks.json"))
    probes = probe_grid(config)
    rng = np.random.default_rng(5)
    terms = []
    for spec in config.maps:
        for order in (1, 2):
            w0 = 0.6 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            terms.append((complex(evaluate_map(spec, w0)), order,
                          complex(rng.standard_normal(), rng.standard_normal())))
    h = RationalFn(terms=tuple(terms))
    scale = float(np.max(np.abs(h(probes))))
    pairs = []
    cdist = quadrature.cdist

    def counting_cdist(a, b):
        pairs.append(len(a) * len(b))
        return cdist(a, b)

    monkeypatch.setattr(quadrature, "cdist", counting_cdist)
    for spec in config.maps:
        contour = Contour(spec, 1.0 + config.ext_margin)
        h_vals = h(contour.points())
        pairs.clear()
        got = cauchy_eval(contour, h_vals, probes)
        assert sum(pairs) <= contour.n_samples * probes.size / 4
        assert np.max(np.abs(got - dense_cauchy(contour, h_vals, probes))) <= 1e-14 * scale


def test_cauchy_eval_rules_add_only_new_nodes(monkeypatch):
    # one rule step for every rule: the 32-node rule sums every point, and
    # each later m-node rule adds only its m/2 odd nodes
    c = Contour(ConformalMapSpec(center=0.0, coeffs=(1.0,)), 1.0, n_samples=1024)
    columns = []
    cdist = quadrature.cdist

    def recording_cdist(a, b):
        columns.append(len(b))
        return cdist(a, b)

    monkeypatch.setattr(quadrature, "cdist", recording_cdist)
    # 0.055 from the circle, within d_min + lambda_m of it for every m < N,
    # the second point stays open up to the full rule
    cauchy_eval(c, np.ones(1024), np.array([3.0, 1.055j]))
    assert columns == [32, 32, 64, 128, 256, 512]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("na, n, stride, offset", [
    (1, 64, 2, 0), (17, 64, 2, 1), (300, 1024, 32, 16), (64, 1024, 4, 2),
    (4097, 1024, 2, 1), (5000, 256, 1, 0),
], ids=["one-point", "odd-nodes", "first-rules", "mid-rule", "block-boundary", "many-rows"])
def test_cdist_is_scipy_sqeuclidean_bit_for_bit(na, n, stride, offset):
    # random points against strided xy[nodes] views of the samples, as
    # cauchy_eval passes them; rows cross the kernel's row blocks
    rng = np.random.default_rng(na + n)
    xy = rng.standard_normal((n, 2)) * rng.exponential(3.0, (n, 1))
    ub = rng.standard_normal((na, 2)) * 5.0
    xb = xy[offset::stride]
    np.testing.assert_array_equal(_bits(quadrature.cdist(ub, xb)),
                                  _bits(scipy_cdist(ub, xb, "sqeuclidean")))


def test_cdist_overflows_to_inf_as_scipy_does():
    # coordinates near 1e154: some squares overflow to inf, quietly; an
    # infinite coordinate gives inf, or NaN against another infinity
    rng = np.random.default_rng(11)
    ub = rng.standard_normal((40, 2)) * 1e154
    xb = rng.standard_normal((64, 2))[1::2] * 1e154
    ub[0, 1], xb[0, 1] = np.inf, np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = quadrature.cdist(ub, xb)
    assert np.isinf(got).any() and np.isfinite(got).any()
    np.testing.assert_array_equal(_bits(got), _bits(scipy_cdist(ub, xb, "sqeuclidean")))


_RINGS = np.concatenate([r * np.exp(2j * np.pi * np.arange(8) / 8) for r in (1.5, 2.0, 3.0)])


@pytest.mark.parametrize("h, z", [
    # a pole of small residue near the contour, beside points whose own
    # part converges fast
    (lambda zeta: 1.0 / zeta + 1e-6 / (zeta - 0.9), _RINGS),
    (lambda zeta: 1.0 / zeta + 2e-8 / (zeta - 0.99), _RINGS),
    # points near a zero of h, just outside d_min + lambda_128, beside
    # faster parts of h
    (lambda zeta: 1.0 / zeta - 0.5 / (zeta - 0.54),
     1.08 + np.array([0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6])),
], ids=["small-residue-0.9", "small-residue-0.99", "near-zero-of-h"])
def test_cauchy_eval_masked_slow_part_keeps_full_rule_accuracy(h, z):
    # the error is a slow part of small amplitude under a fast part that
    # fills the coarser rules: the differences of the rules fall fast long
    # before the slow part is summed
    c = Contour(ConformalMapSpec(center=0.0, coeffs=(1.0,)), 1.0, n_samples=1024)
    h_vals = h(c.points())
    gap = np.abs(cauchy_eval(c, h_vals, z) - dense_cauchy(c, h_vals, z))
    assert np.max(gap) <= 1e-14 * np.max(np.abs(h_vals))

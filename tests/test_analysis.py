"""Decomposition, graph membership, Faber series, and exterior seminorms."""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faberkit import (
    AliasError,
    ConformalMapSpec,
    MethodDisagreement,
    MultiDomainConfig,
    PoleOutsideRegions,
    RationalFn,
    apply_big_faber,
    apply_faber,
    apply_grunsky,
    assemble,
    boundary_grid,
    curve_samples,
    decompose,
    dirichlet_norm,
    dirichlet_norm_sigma,
    evaluate_map,
    faber_coefficients,
    faber_partial_sum_error,
    graph_check,
    grunsky,
    map_derivative,
    norm_history,
    probe_grid,
    projection_component,
    pullback_boundary,
    region_of_point,
    unit_roots,
    validate_config,
)

from faberkit.cli import load_config_file
from oracles import (boundary_halves, dirichlet_norm_sigma_area, faber_coefficients_by_components,
                     polyline_winding)

CONFIG_PATHS = sorted((pathlib.Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
BUNDLED = [load_config_file(str(p)) for p in CONFIG_PATHS]


# quadratic maps, one turned by a2 = 0.3i: their unit curves stay apart
# (their margin curves overlap, so validate refuses the pair)
QUADRATIC_PAIR = MultiDomainConfig(maps=(ConformalMapSpec(center=-1.25, coeffs=(1.0, 0.3)),
                                         ConformalMapSpec(center=1.25, coeffs=(1.0, 0.3j))))


@pytest.mark.parametrize("config, graph_rhos", [(c, (0.3, 0.8, 0.95)) for c in BUNDLED]
                         + [(QUADRATIC_PAIR, (0.3,))],
                         ids=[p.stem for p in CONFIG_PATHS] + ["quadratic_pair"])
def test_boundary_halves_match_partial_fractions(config, graph_rhos):
    # h = 1/(z - q) with q = f_k(rho e^{0.7i}): both halves of h o f_j on
    # every boundary, and so the Faber coefficients, are known exactly, and
    # so is v - G u.  On the quadratic pair the truncated tail
    # sum_{m > T} G_nm u_m alone is 1.4e-9 at rho = 0.8 and 7.4e-5 at 0.95
    # (T = 64), so the graph identity is asserted there for rho = 0.3 only
    trunc = 64
    gr = assemble(config, trunc)
    for spec in config.maps:
        for rho in (0.3, 0.8, 0.95):
            q = complex(evaluate_map(spec, rho * np.exp(0.7j)))
            h = RationalFn.single(q, 1, 1.0)
            u, v = map(np.array, zip(*(boundary_halves(s, q, trunc) for s in config.maps)))
            for j in range(config.n):
                neg, pos = pullback_boundary(config, j, h, trunc)
                np.testing.assert_allclose(neg, u[j], rtol=0, atol=1e-13)
                np.testing.assert_allclose(pos, v[j], rtol=0, atol=1e-13)
            np.testing.assert_allclose(faber_coefficients(config, h, trunc), u,
                                       rtol=0, atol=1e-13)
            if rho in graph_rhos:
                np.testing.assert_allclose(apply_grunsky(gr, u), v, rtol=0, atol=1e-13)


def test_probe_grid_avoids_regions(config_b):
    pts = probe_grid(config_b)
    for q in pts:
        assert region_of_point(config_b, q) is None


def test_region_of_point(config_a):
    assert region_of_point(config_a, -2.1) == 0
    assert region_of_point(config_a, 2.3) == 1
    assert region_of_point(config_a, 0.0) is None
    assert region_of_point(config_a, [-2.1, 2.3, 0.0, -2.1]) == [0, 1, None, 0]
    assert region_of_point(config_a, []) == []


def test_decompose_groups_poles(config_a):
    h = RationalFn(terms=((-2.3, 1, 1.0), (2.2, 2, 1.0)))
    res = decompose(config_a, h)
    assert res.components[0].terms == ((-2.3 + 0j, 1, 1.0 + 0j),)
    assert res.components[1].terms == ((2.2 + 0j, 2, 1.0 + 0j),)
    assert res.residual < 1e-12


def test_decompose_rejects_stray_pole(config_a):
    with pytest.raises(PoleOutsideRegions):
        decompose(config_a, RationalFn.single(10.0, 1, 1.0))


def test_decompose_groups_several_poles_per_region(config_c):
    parts = [((-4.1, 2, 0.5), (-4.0 + 0.2j, 1, 1j)),
             ((3.9, 3, -1.0), (4.2, 1, 1.0)),
             ((0.3 + 4j, 1, 2.0),)]
    h = RationalFn(terms=sum(parts, ()))
    res = decompose(config_c, h)
    assert res.components == [RationalFn(terms=p) for p in parts]
    stray = RationalFn(terms=h.terms + ((0.0, 1, 1.0),))
    with pytest.raises(PoleOutsideRegions, match=r"pole 0j lies in no interior region"):
        decompose(config_c, stray)


def test_region_of_point_takes_first_of_overlapping_regions():
    # two overlapping disks (not an admissible config): both contain 0.5
    config = MultiDomainConfig(maps=(ConformalMapSpec(center=0.0, coeffs=(1.0,)),
                                     ConformalMapSpec(center=1.0, coeffs=(1.0,))))
    assert region_of_point(config, 0.5) == 0
    assert region_of_point(config, [1.5, 0.5, -0.5]) == [1, 0, 0]


def test_region_of_point_matches_winding_on_every_curve(config_b):
    # reference: one scalar winding test per curve and point, first hit wins
    x, y = np.meshgrid(np.linspace(-3.5, 3.5, 41), np.linspace(-1.5, 1.5, 17))
    q = (x + 1j * y).ravel()
    curves = [curve_samples(spec, 1.0, 1024) for spec in config_b.maps]
    expect = [next((i for i, c in enumerate(curves) if polyline_winding(c, p)[0] == 1), None)
              for p in q]
    assert {0, 1, None} <= set(expect)
    assert region_of_point(config_b, q) == expect


def test_region_of_point_places_a_pole_just_inside_a_chord(config_a):
    # 1e-6 inside the left curve, at the midpoint of a chord of the
    # 1024-gon that used to stand for the curve (its sagitta is 4.7e-6):
    # the polygon's winding put the pole in no region, and decompose
    # refused it with PoleOutsideRegions
    q = -2 + (1 - 1e-6) * np.exp(3j * np.pi / 1024)
    assert region_of_point(config_a, q) == 0
    h = RationalFn.single(q, 1, 1.0)
    assert decompose(config_a, h).components == [h, RationalFn(terms=())]


@pytest.mark.parametrize("coeffs", [(1.0, 0.1), (1.0, 0.45j, -0.05),
                                    tuple(3.08 ** k / math.factorial(k) for k in range(1, 13))],
                         ids=["quadratic", "cubic", "degree-12"])
def test_region_of_point_counts_roots_of_a_polynomial_map(coeffs):
    # points f(rho w) 1e-6 inside and outside the curve of a map univalent
    # on the closed disk: f(w) = q has one root in |w| < 1 or none
    spec = ConformalMapSpec(center=-2.0 + 1j, coeffs=coeffs)
    config = MultiDomainConfig(maps=(spec,))
    w = unit_roots(64) * np.exp(0.01j)
    for rho, region in ((1 - 1e-6, 0), (1 + 1e-6, None), (0.5, 0)):
        assert region_of_point(config, evaluate_map(spec, rho * w)) == [region] * 64
    far = spec.center + 2 * sum(map(abs, coeffs)) * w
    assert region_of_point(config, far) == [None] * 64
    assert region_of_point(config, [np.nan, np.inf, complex(1e300, -1e300)]) == [None] * 3


def test_projection_matches_component(config_a):
    # quadrature projection vs exact pole grouping at points of all scales
    h = RationalFn(terms=((-2.3, 1, 1.0), (2.2, 2, 1.0)))
    comp = decompose(config_a, h).components[0]
    proj = projection_component(config_a, 0, h)
    z = np.array([6.0, -6.0, 3j])
    np.testing.assert_allclose(proj(z), comp(z), atol=1e-10)


def test_projections_are_orthogonal(config_a):
    # P_i applied to a function decaying outside region j gives delta_ij
    h0 = RationalFn.single(-2.3, 1, 1.0)
    z = np.array([5.0, -5.0, 4j, 0.0])
    same = projection_component(config_a, 0, h0)
    other = projection_component(config_a, 1, h0)
    np.testing.assert_allclose(same(z), h0(z), atol=1e-11)
    np.testing.assert_allclose(other(z), 0, atol=1e-11)


def seeded_rational(config, seed):
    """One or two poles f_j(w0), |w0| <= 0.6, of order 1 or 2 in every region j."""
    rng = np.random.default_rng(seed)
    terms = []
    for spec in config.maps:
        for _ in range(rng.integers(1, 3)):
            w0 = 0.6 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            coeff = complex(rng.standard_normal(), rng.standard_normal())
            terms.append((complex(evaluate_map(spec, w0)), int(rng.integers(1, 3)), coeff))
    return RationalFn(terms=tuple(terms))


@pytest.mark.parametrize("config", BUNDLED, ids=lambda c: "n%d" % c.n)
def test_projection_rounding_floor(config):
    # over the whole probe grid the quadrature projections stay within
    # 1e-13 of max |h| of the exact components (about 2e-14 is reached)
    probes = probe_grid(config)
    worst = 0.0
    for seed in range(20):
        h = seeded_rational(config, seed)
        comps = decompose(config, h, probes=probes).components
        scale = float(np.max(np.abs(h(probes))))
        for i, comp in enumerate(comps):
            gap = np.max(np.abs(projection_component(config, i, h)(probes) - comp(probes)))
            worst = max(worst, float(gap) / scale)
    assert worst <= 1e-13


def test_pullback_boundary_closed_forms(config_a):
    h = RationalFn.single(-2.0 - 0.0j, 1, 1.0)
    # through its own map w -> -2 + w the pullback is exactly w^{-1}
    own_neg, own_pos = pullback_boundary(config_a, 0, h, 8)
    np.testing.assert_allclose(own_neg, [1, 0, 0, 0, 0, 0, 0, 0], atol=1e-13)
    np.testing.assert_allclose(own_pos, 0, atol=1e-13)
    # through the far map w -> 2 + w it is 1/(w+4) = 1/4 - w/16 + w^2/64 - ...
    far_neg, far_pos = pullback_boundary(config_a, 1, h, 4)
    np.testing.assert_allclose(far_neg, 0, atol=1e-13)
    np.testing.assert_allclose(far_pos, [-1 / 16, 1 / 64, -1 / 256, 1 / 1024],
                               atol=1e-13)


unit = st.floats(0.0, 1.0)
angle = st.floats(0.0, 2 * np.pi)


@st.composite
def maps_and_poles(draw):
    """A map of degree 1-3 and rational h with poles at f(w0), |w0| <= 0.9.

    The higher coefficients keep |f'/a1 - 1| <= 1/2 on |w| <= 1.5, so f is
    univalent there and |f(w) - f(w0)| >= |a1| |w - w0| / 2.
    """
    a1 = draw(st.floats(1.0, 2.0)) * np.exp(1j * draw(angle))
    degree = draw(st.integers(1, 3))
    coeffs = [a1] + [draw(unit) * abs(a1) / (2 * k * 1.5 ** (k - 1) * (degree - 1))
                     * np.exp(1j * draw(angle)) for k in range(2, degree + 1)]
    spec = ConformalMapSpec(center=0.0, coeffs=tuple(coeffs))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        w0 = 0.9 * draw(unit) * np.exp(1j * draw(angle))
        pole = complex(evaluate_map(spec, w0))
        terms.append((pole, draw(st.integers(1, 2)), draw(unit) * np.exp(1j * draw(angle))))
    return MultiDomainConfig(maps=(spec,)), RationalFn(terms=tuple(terms))


@settings(max_examples=60, deadline=None)
@given(case=maps_and_poles(), trunc=st.integers(1, 64))
def test_pullback_boundary_matches_fixed_fft(case, trunc):
    config, h = case
    n = 4096
    spec = np.fft.fft(h(evaluate_map(config.maps[0], np.exp(2j * np.pi * np.arange(n) / n)))) / n
    ns = np.arange(1, trunc + 1)
    neg, pos = pullback_boundary(config, 0, h, trunc)
    np.testing.assert_allclose(neg, spec[n - ns], rtol=0, atol=1e-12)
    np.testing.assert_allclose(pos, spec[ns], rtol=0, atol=1e-12)


def test_graph_check_member(config_a, config_b):
    for cfg in (config_a, config_b):
        h = RationalFn.single(complex(cfg.maps[0].center) + 0.3, 1, 1.0)
        rep = graph_check(cfg, h, 16)
        assert rep.residual < 1e-10
        assert rep.u_norm > 0


def test_graph_check_detects_stray_pole(config_a):
    # a pole between the regions breaks the coefficient relation
    h = RationalFn(terms=((-2.3, 1, 1.0), (0.0, 1, 1.0)))
    rep = graph_check(config_a, h, 16)
    assert rep.residual > 0.05


def test_graph_check_cross_checks_the_matrix_it_assembles(config_b, monkeypatch):
    # without gr, graph_check assembles G with every check, the diagonal
    # kernel series included
    kernel = grunsky.diagonal_block_series
    monkeypatch.setattr(grunsky, "diagonal_block_series",
                        lambda spec, trunc: kernel(spec, trunc) + 1e-3)
    h = RationalFn.single(2.2, 1, 1.0)
    with pytest.raises(MethodDisagreement, match=r"^block \(0, 0\): methods differ"):
        graph_check(config_b, h, 16)


def test_graph_check_with_precomputed_matrix(config_b):
    gr = assemble(config_b, 24)
    h = RationalFn.single(2.2, 1, 1.0)
    rep = graph_check(config_b, h, 16, gr=gr)
    assert rep.residual < 1e-10
    with pytest.raises(ValueError):
        graph_check(config_b, h, 32, gr=gr)


def test_graph_check_prediction_matches_apply_grunsky(config_b):
    # a matrix assembled beyond the requested truncation: the leading blocks
    # give what apply_grunsky gives with the whole matrix and zero padding
    gr = assemble(config_b, 24)
    h = RationalFn(terms=((-1.95, 1, 1.0), (2.1, 2, 0.5 - 0.5j)))
    rep = graph_check(config_b, h, 16, gr=gr)
    assert rep.u.shape == rep.v.shape == rep.predicted.shape == (2, 16)
    np.testing.assert_allclose(rep.predicted, apply_grunsky(gr, rep.u)[:, :16],
                               rtol=0, atol=1e-15)


def test_faber_coefficients_reject_stray_pole(config_a):
    h = RationalFn(terms=((-2.3, 1, 1.0), (0.0, 1, 1.0)))
    with pytest.raises(PoleOutsideRegions):
        faber_coefficients(config_a, h, 8)


@pytest.mark.parametrize("q, tol", [(-2.98, 1e-14), (-2.995, 1e-13)])
def test_faber_coefficients_of_pole_near_the_curve(config_a, q, tol):
    # h = 1/(z - q) within 3 + q of the left curve: its Faber coefficients
    # are (q + 2)^{m-1} on boundary 0 and zero on boundary 1.  The old cap
    # stopped the pullback at N = 2048 with a warning, 3.5e-5 off at -2.995
    h = RationalFn(terms=((q, 1, 1.0),))
    m = np.arange(1, 65)
    exact = np.stack([(q + 2) ** (m - 1.0), np.zeros(64)])
    assert np.max(np.abs(faber_coefficients(config_a, h, 64) - exact)) <= tol


def test_faber_coefficients_refuse_pole_on_the_curve(config_a):
    # 1e-6 inside the curve the coefficients decay like (1 - 1e-6)^m: the
    # pullback through boundary 0 reaches the budget unresolved
    h = RationalFn(terms=((-3 + 1e-6, 1, 1.0),))
    match = r"^boundary 0: N = 2097152: folded alias estimate \S+ exceeds"
    with pytest.raises(AliasError, match=match):
        faber_coefficients(config_a, h, 64)


def test_inverse_faber_exact_geometric(config_a):
    # 1/(z+2.3) = sum over m of (-0.3)^{m-1} / (z+2)^m for the affine left map
    h = RationalFn.single(-2.3, 1, 1.0)
    coeffs = faber_coefficients(config_a, h, 8)
    np.testing.assert_allclose(coeffs[0], (-0.3) ** np.arange(8), atol=1e-12)
    np.testing.assert_allclose(coeffs[1], 0, atol=1e-12)


def test_inverse_faber_round_trip(config_b):
    h = RationalFn(terms=((-1.95, 1, 1.0), (2.1, 2, 0.5 - 0.5j)))
    back = apply_big_faber(config_b, faber_coefficients(config_b, h, 40))
    pts = probe_grid(config_b)
    scale = float(np.max(np.abs(h(pts))))
    assert float(np.max(np.abs(back(pts) - h(pts)))) < 1e-8 * max(scale, 1.0)


def test_series_terminates_for_single_faber_function(config_a):
    # 1/(z+2) is itself the first Faber function of the left disk
    h = RationalFn.single(-2.0, 1, 1.0)
    table = faber_partial_sum_error(config_a, h, 12)
    assert table.terminated_at == 1
    assert np.all(table.errors <= 1e-12)


def test_series_geometric_rate_matches_pole_radius(config_a):
    # pole at -2.3 sits at parameter radius 0.3; on the boundary grid the
    # sup error contracts by that factor per order
    h = RationalFn.single(-2.3, 1, 1.0)
    table = faber_partial_sum_error(config_a, h, 24)
    assert table.terminated_at == 0
    assert table.fitted_ratio is not None
    np.testing.assert_allclose(table.fitted_ratio, 0.3, rtol=0.05)


def test_series_error_decreases(config_b):
    h = RationalFn.single(2.15, 1, 1.0)
    table = faber_partial_sum_error(config_b, h, 16)
    assert table.errors[-1] < table.errors[0]


def test_series_stays_at_floor_after_convergence():
    # w + 0.45 w^2 (critical point at radius 1.11) beside a unit disk: the
    # partial sums reach the rounding floor by M = 28 and stay there to
    # M = 128, where summing principal parts gave errors of 3e12
    cfg = MultiDomainConfig(maps=(ConformalMapSpec(center=-3.0, coeffs=(1.0, 0.45)),
                                  ConformalMapSpec(center=3.0, coeffs=(1.0,))))
    h = RationalFn(terms=((-3.2, 1, 1.0), (3.3, 2, 0.5)))
    table = faber_partial_sum_error(cfg, h, 128)
    floor = 1e-13 * float(np.max(np.abs(h(boundary_grid(cfg)))))
    assert 0 < table.terminated_at < 64
    assert np.all(table.errors[table.terminated_at - 1 :] <= floor)


def test_dirichlet_norm_closed_form(single_affine):
    # h = 0.8/(z-2) pulls back to w^{-1}: seminorm^2 is exactly pi
    h = RationalFn.single(2.0, 1, 0.8)
    val = dirichlet_norm_sigma(single_affine, h)
    np.testing.assert_allclose(val, math.pi, rtol=1e-12)


@pytest.mark.parametrize("delta", [0.1, 0.02, 0.005, 0.001])
def test_dirichlet_norm_resolves_a_pole_near_a_curve(config_a, delta):
    # h = 1/(z - q), q at distance delta inside the left curve, against the
    # trapezoid rule at 2^17 samples per curve.  The fixed 2048-sample rule
    # was off by 7.8e-4 at delta = 0.005 and by 0.99 at 0.001
    h = RationalFn.single(-3.0 + delta, 1, 1.0)
    hp = h.derivative()
    w = unit_roots(1 << 17)
    means = [np.mean(np.conj(h(z)) * hp(z) * map_derivative(spec, w) * w).real
             for spec in config_a.maps for z in [evaluate_map(spec, w)]]
    reference = -np.pi * sum(means)
    np.testing.assert_allclose(dirichlet_norm_sigma(config_a, h), reference, rtol=1e-12)


def test_dirichlet_norm_refuses_a_pole_on_a_curve(config_a):
    with pytest.raises(AliasError, match="^samples are not finite at N = 128$"):
        dirichlet_norm_sigma(config_a, RationalFn.single(3.0, 1, 1.0))


def test_dirichlet_norm_is_exterior_energy(config_a):
    # two independent computations: boundary Stokes form vs masked area
    # quadrature with an analytic far-field tail
    h = RationalFn(terms=((-2.3, 1, 1.0), (2.2, 2, 1.0)))
    stokes = dirichlet_norm_sigma(config_a, h)
    area = dirichlet_norm_sigma_area(config_a, h, n_cells=2048)
    np.testing.assert_allclose(area, stokes, rtol=1e-5)


def test_dirichlet_norm_area_single_region(single_affine):
    h = RationalFn.single(2.0, 1, 0.8)
    area = dirichlet_norm_sigma_area(single_affine, h, n_cells=1024)
    np.testing.assert_allclose(area, math.pi, rtol=1e-5)


def test_energy_identity_single_boundary(single_poly):
    # ||H||^2 = ||faber image||^2 over the exterior + ||Gr H||^2
    rng = np.random.default_rng(3)
    gr = assemble(single_poly, 48)
    for _ in range(3):
        a = np.zeros(8, complex)
        a[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = dirichlet_norm(a) ** 2
        img = apply_faber(single_poly, 0, a)
        ext = dirichlet_norm_sigma(single_poly, img)
        g_sq = dirichlet_norm(apply_grunsky(gr, [a])) ** 2
        assert abs(lhs - (ext + g_sq)) / lhs < 1e-10


def test_energy_identity_block(config_b):
    # same split for one boundary of a multiply connected exterior
    rng = np.random.default_rng(5)
    gr = assemble(config_b, 48)
    for j in range(2):
        seqs = np.zeros((2, 48), complex)
        seqs[j, :6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = dirichlet_norm(seqs[j]) ** 2
        img = apply_big_faber(config_b, seqs)
        ext = dirichlet_norm_sigma(config_b, img)
        g_sq = dirichlet_norm(apply_grunsky(gr, seqs)) ** 2
        assert abs(lhs - (ext + g_sq)) / lhs < 1e-10


@st.composite
def admissible_pairs(draw):
    """A map of degree 2-4 at 0 beside a disk, admissible by construction.

    sum_{k>=2} k |a_k| r^(k-1) < |a_1| at r = 1.1 keeps Re f'/a_1 > 0 on
    |w| < 1.1, so f is univalent there (Noshiro-Warschawski); validation
    asks for 1.05.  The disk sits at least 0.5 beyond sum_k |a_k| 1.05^k,
    the reach of f on |w| = 1.05.
    """
    a1 = draw(st.floats(0.5, 1.5)) * np.exp(1j * draw(angle))
    degree = draw(st.integers(2, 4))
    shares = [draw(st.floats(0.1, 1.0)) for _ in range(2, degree + 1)]
    budget = draw(st.floats(0.2, 0.95)) * abs(a1) / sum(shares)
    coeffs = [a1] + [budget * s / (k * 1.1 ** (k - 1)) * np.exp(1j * draw(angle))
                     for k, s in enumerate(shares, start=2)]
    reach = sum(abs(a) * 1.05 ** k for k, a in enumerate(coeffs, start=1))
    radius = draw(st.floats(0.5, 1.0))
    center = (reach + 1.05 * radius + draw(st.floats(0.5, 2.0))) * np.exp(1j * draw(angle))
    return MultiDomainConfig(maps=(ConformalMapSpec(center=0.0, coeffs=tuple(coeffs)),
                                   ConformalMapSpec(center=center, coeffs=(radius,))))


@settings(max_examples=20, deadline=None)
@given(cfg=admissible_pairs(), seed=st.integers(0, 2 ** 32 - 1))
def test_admissible_maps_meet_acceptance_tolerances(cfg, seed):
    # identity defect, cross-method gap, sigma_max < 1 and the energy
    # identity at the tolerances of tests/test_acceptance.py, at T = 64
    assert validate_config(cfg).passed
    t = 64
    gr = assemble(cfg, t)
    assert gr.identity_defect <= 1e-10
    assert np.max(gr.agreement) <= 1e-8
    hist = norm_history(gr)
    vals = [hist[k] for k in sorted(hist)]
    assert vals[-1] < 1.0
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    rng = np.random.default_rng(seed)
    a = np.zeros(t, complex)
    a[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    seqs = np.array([a, np.zeros(t)])
    lhs = dirichlet_norm(a) ** 2
    ext = dirichlet_norm_sigma(cfg, apply_big_faber(cfg, seqs))
    g_sq = dirichlet_norm(apply_grunsky(gr, seqs)) ** 2
    assert abs(lhs - (ext + g_sq)) / lhs <= 1e-6


@st.composite
def configs_and_functions(draw):
    """A bundled or admissible random config and h with poles at f_k(w0), |w0| <= 0.9.

    Each pole picks its region, so some regions may get none.
    """
    cfg = draw(st.one_of(st.sampled_from(BUNDLED), admissible_pairs()))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        spec = cfg.maps[draw(st.integers(0, cfg.n - 1))]
        w0 = 0.9 * draw(unit) * np.exp(1j * draw(angle))
        terms.append((complex(evaluate_map(spec, w0)), draw(st.integers(1, 3)),
                      draw(st.floats(0.1, 1.0)) * np.exp(1j * draw(angle))))
    return cfg, RationalFn(terms=tuple(terms))


@settings(max_examples=40, deadline=None)
@given(case=configs_and_functions(), trunc=st.integers(1, 64))
def test_faber_coefficients_match_components(case, trunc):
    # the minus halves of h o f_k against those of h's region components,
    # relative to h's largest coefficient (a short band may hold only zeros)
    cfg, h = case
    ref = faber_coefficients_by_components(cfg, h, trunc)
    scale = np.max(np.abs(faber_coefficients_by_components(cfg, h, 64)))
    assert np.max(np.abs(faber_coefficients(cfg, h, trunc) - ref)) <= 1e-14 * scale


def test_faber_image_norm_bounded_below(config_b):
    # ||image||^2 = ||H||^2 - ||Gr H||^2 >= (1 - sigma^2) ||H||^2, and sigma
    # is small here, so the map loses almost no energy: an injectivity margin
    rng = np.random.default_rng(11)
    seqs = np.array([rng.standard_normal(6) + 1j * rng.standard_normal(6)
                     for _ in range(2)])
    lhs = dirichlet_norm(seqs) ** 2
    img = apply_big_faber(config_b, seqs)
    ext = dirichlet_norm_sigma(config_b, img)
    assert ext / lhs > 0.9


def test_translation_invariance(config_b):
    # shifting every region center moves nothing that matters
    c = 0.7 - 0.4j
    shifted = MultiDomainConfig(
        maps=tuple(ConformalMapSpec(center=s.center + c, coeffs=s.coeffs)
                   for s in config_b.maps))
    g0 = assemble(config_b, 12)
    g1 = assemble(shifted, 12)
    for j in range(2):
        for i in range(2):
            np.testing.assert_allclose(g1.blocks[j][i], g0.blocks[j][i],
                                       atol=1e-10)
    h0 = RationalFn.single(-2.3, 1, 1.0)
    h1 = RationalFn.single(-2.3 + c, 1, 1.0)
    np.testing.assert_allclose(dirichlet_norm_sigma(shifted, h1),
                               dirichlet_norm_sigma(config_b, h0), rtol=1e-10)


def test_boundary_grid_sits_outside(config_c):
    pts = boundary_grid(config_c)
    for q in pts:
        assert region_of_point(config_c, q) is None

"""Map evaluation and configuration validation."""

import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from faberkit import (
    ConformalMapSpec,
    MultiDomainConfig,
    curve_samples,
    evaluate_map,
    map_derivative,
    roots_inside,
    validate_config,
)
from faberkit import domain
from faberkit.domain import _curve_self_intersects, _near_pairs, _pairwise_min_distance

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def test_evaluate_map_scalar_and_array():
    spec = ConformalMapSpec(center=1 + 2j, coeffs=(0.8,))
    assert evaluate_map(spec, 0.0) == 1 + 2j
    assert evaluate_map(spec, 1.0) == 1.8 + 2j
    w = np.array([0.0, 1.0, 1j])
    np.testing.assert_allclose(evaluate_map(spec, w), [1 + 2j, 1.8 + 2j, 1 + 2.8j])


def test_map_derivative_polynomial():
    spec = ConformalMapSpec(center=0.0, coeffs=(1.0, 0.0, 0.5))
    # f = w + 0.5 w^3, f' = 1 + 1.5 w^2
    np.testing.assert_allclose(map_derivative(spec, 2.0), 7.0)


def test_zero_leading_coefficient_rejected():
    with pytest.raises(ValueError):
        ConformalMapSpec(center=0.0, coeffs=(0.0, 1.0))


@pytest.mark.parametrize("field", ["ext_margin", "separation"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
def test_config_margins_must_be_positive_and_finite(field, value):
    spec = ConformalMapSpec(center=0.0, coeffs=(1.0,))
    with pytest.raises(ValueError, match="%s must be positive and finite" % field):
        MultiDomainConfig(maps=(spec,), **{field: value})


def test_curve_samples_on_circle_image():
    spec = ConformalMapSpec(center=2.0, coeffs=(0.8,))
    pts = curve_samples(spec, 1.0, 64)
    np.testing.assert_allclose(np.abs(pts - 2.0), 0.8, atol=1e-12)


def test_roots_inside_inside_outside():
    # the winding number of f({|w| = r}) about z, as a count of the roots
    # of f(w) = z in |w| < r: one batch for many points, the same counts as
    # one point at a time
    spec = ConformalMapSpec(center=-2.0, coeffs=(1.0, 0.1))
    assert roots_inside(spec, -2.0) == 1
    assert roots_inside(spec, 5.0) == 0
    z = np.array([-2.0, 5.0, -2.3 + 0.2j, evaluate_map(spec, 1.02), np.nan])
    np.testing.assert_array_equal(roots_inside(spec, z), [1, 0, 1, 0, 0])
    np.testing.assert_array_equal(roots_inside(spec, z, 1.05), [1, 0, 1, 1, 0])
    np.testing.assert_array_equal(roots_inside(spec, z), [roots_inside(spec, q) for q in z])
    # f = w + 0.6 w^2 is not univalent on |w| < 1: its curve winds twice
    # about points of the loop it makes, and f(w) = z has two roots there
    loop = ConformalMapSpec(center=0.0, coeffs=(1.0, 0.6))
    z = evaluate_map(loop, -0.95)
    assert roots_inside(loop, z) == 2


def test_validate_config_passes_disjoint_disks(config_a):
    report = validate_config(config_a)
    assert report.passed
    # the two unit circles centered at -2 and 2 are exactly distance 2 apart
    np.testing.assert_allclose(report.min_curve_distance(), 2.0, atol=1e-9)
    assert not report.failures


def test_validate_config_passes_all_canonical(config_b, config_c):
    assert validate_config(config_b).passed
    assert validate_config(config_c).passed


def test_validate_config_rejects_nonschlicht_map():
    # f = w + 0.6 w^2 has f'(-1/1.2) = 0 with |w| < 1 + margin
    cfg = MultiDomainConfig(maps=(ConformalMapSpec(center=0.0, coeffs=(1.0, 0.6)),))
    report = validate_config(cfg)
    assert not report.passed
    assert any("derivative" in f or "not univalent" in f for f in report.failures)


# the degree-12 Taylor polynomial of e^w at 3.08 w: its curve f({|w| = r})
# first crosses itself at r = 1.0199, while f' first vanishes at r = 1.268
TAYLOR_EXP = ConformalMapSpec(center=0.0,
                              coeffs=tuple(3.08 ** k / math.factorial(k) for k in range(1, 13)))


def test_validate_config_tests_univalence_on_the_margin_disk():
    # the radius-1 curve is simple and f' has no zero on |w| <= 1.05, yet f
    # is not univalent there: the margin curve crosses itself.  Testing the
    # radius-1 curve passed this config
    assert not _curve_self_intersects(curve_samples(TAYLOR_EXP, 1.0, 4096))
    assert _curve_self_intersects(curve_samples(TAYLOR_EXP, 1.05, 4096))
    report = validate_config(MultiDomainConfig(
        maps=(TAYLOR_EXP, ConformalMapSpec(center=30.0, coeffs=(1.0,)))))
    assert report.failures == ["map 0: not univalent on |w| <= 1+ext_margin"]
    assert report.map_reports[0].injective
    assert not report.map_reports[0].simple_curve
    # at a margin below the first crossing the same map passes
    narrow = MultiDomainConfig(maps=(TAYLOR_EXP, ConformalMapSpec(center=30.0, coeffs=(1.0,))),
                               ext_margin=0.01)
    assert validate_config(narrow).passed


@pytest.mark.parametrize("maps, reach", [
    (((0.0, (1e308,)), (5.0, (1.0,))), "1.05e+308"),
    (((-1e201, (1e200,)), (1e201, (1e200,))), "1.11e+201"),
], ids=["coefficient-1e308", "disks-1e200"])
def test_validate_config_names_curves_past_the_distance_range(maps, reach):
    # squared distances between such curve points overflow: the crossing
    # test and the curve distances raised ValueError; now each map whose
    # curves reach past 2^510 is a named failure, and the sampled stages,
    # which would overflow, read NaN
    cfg = MultiDomainConfig(maps=tuple(ConformalMapSpec(center=c, coeffs=a) for c, a in maps))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_config(cfg)
    assert report.failures[0] == ("map 0: curve reaches |z| = %s, past 2^510, where squared "
                                  "distances overflow" % reach)
    assert not report.passed
    assert np.isnan(report.curve_distances).all() and np.isnan(report.winding).all()


def test_validate_config_rejects_overlapping_regions():
    cfg = MultiDomainConfig(
        maps=(ConformalMapSpec(center=0.0, coeffs=(1.0,)),
              ConformalMapSpec(center=1.0, coeffs=(1.0,)))
    )
    report = validate_config(cfg)
    assert not report.passed


# the child validates each config named on its command line and prints the
# scipy modules loaded
SCIPY_CHILD = """
import json, sys
from faberkit import validate_config
from faberkit.cli import load_config_file
for path in sys.argv[1:]:
    validate_config(load_config_file(path))
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_validate_config_loads_no_scipy():
    # the crossing test and the curve distances are numpy's: validating the
    # bundled configs in a fresh interpreter, which imports the same
    # faberkit as this one, loads no scipy module at all
    src = os.path.dirname(os.path.dirname(domain.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    configs = [str(CONFIGS / name) for name in
               ("two_disks.json", "perturbed_pair.json", "three_disks.json")]
    run = subprocess.run([sys.executable, "-c", SCIPY_CHILD] + configs,
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == []


def test_validate_config_margin_monotonic(config_b):
    # passing at a wide collar implies passing at a narrower one
    wide = MultiDomainConfig(maps=config_b.maps, ext_margin=0.05)
    narrow = MultiDomainConfig(maps=config_b.maps, ext_margin=0.02)
    assert validate_config(wide).passed
    assert validate_config(narrow).passed


def test_validation_report_winding_is_identity(config_c):
    report = validate_config(config_c)
    np.testing.assert_array_equal(report.winding, np.eye(3, dtype=int))


# --- crossing test and nearest-curve distances -----------------------------

def _cross(u, v):
    return u.real * v.imag - u.imag * v.real


def _all_pairs_self_intersects(points):
    """Reference: the strict crossing test on every pair of segments."""
    n = points.size
    a = points
    b = np.roll(points, -1)
    d = b - a
    block = 512
    for start in range(0, n, block):
        idx = np.arange(start, min(start + block, n))
        ai = a[idx][:, None]
        di = d[idx][:, None]
        s1 = _cross(di, a[None, :] - ai)
        s2 = _cross(di, b[None, :] - ai)
        t1 = _cross(d[None, :], ai - a[None, :])
        t2 = _cross(d[None, :], (ai + di) - a[None, :])
        hit = (s1 * s2 < 0) & (t1 * t2 < 0)
        gap = (idx[:, None] - np.arange(n)[None, :]) % n
        hit &= (gap > 1) & (gap < n - 1)
        if np.any(hit):
            return True
    return False


def _segment_lengths(points):
    return np.abs(np.roll(points, -1) - points)


@st.composite
def polynomial_curves(draw):
    """Image of the unit circle under a random polynomial of degree 2-4.

    Half the draws sample the circle at non-uniform angles: the angle
    steps then vary by a factor (1 + c) / (1 - c) >= 39, so that segment
    lengths mostly differ 20 times or more.
    """
    degree = draw(st.integers(2, 4))
    n = draw(st.integers(64, 1024))
    size = st.floats(0.0, 0.7)
    phase = st.floats(0.0, 2 * np.pi)
    coeffs = [1.0] + [draw(size) * np.exp(1j * draw(phase)) for _ in range(degree - 1)]
    center = complex(draw(st.floats(-5, 5)), draw(st.floats(-5, 5)))
    u = np.arange(n) / n
    if draw(st.booleans()):
        c = draw(st.floats(0.95, 0.995))
        u = u + c * np.sin(2 * np.pi * u) / (2 * np.pi)
    spec = ConformalMapSpec(center=center, coeffs=tuple(coeffs))
    return evaluate_map(spec, np.exp(2j * np.pi * (u + draw(st.floats(0.0, 1.0)))))


@settings(max_examples=80, deadline=None)
@given(points=polynomial_curves())
def test_crossing_test_matches_all_pairs(points):
    assert _curve_self_intersects(points) == _all_pairs_self_intersects(points)


@settings(max_examples=80, deadline=None)
@given(points=polynomial_curves())
def test_near_pairs_hold_every_midpoint_pair_within_the_radius(points):
    # the grid lists each unordered pair at most once, never a point with
    # itself, and every pair of midpoints no farther apart than the longest
    # segment among them, the uneven draws included: checked on all pairs
    a, b = points, np.roll(points, -1)
    mid = 0.5 * (a + b)
    radius = np.abs(b - a).max()
    i, j = _near_pairs(mid, radius)
    listed = set(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
    assert not np.any(i == j)
    assert len(listed) == i.size
    close = np.argwhere(np.triu(np.abs(mid[:, None] - mid[None, :]) <= radius, k=1))
    assert set(map(tuple, close.tolist())) <= listed


def test_near_pairs_cover_the_rounding_of_the_cell_coordinates():
    # the last two points are within the radius, yet (x - x_min) / radius
    # rounds them two cells apart; the widened cell side keeps them
    # neighbours
    z = np.array([-281.29971585008104, 892.9713784321756, 893.3138313613917]) + 0j
    radius = 0.3424529292161729
    assert abs(z[2] - z[1]) <= radius
    x = z.real - z.real.min()
    assert int(x[2] / radius) - int(x[1] / radius) == 2
    i, j = _near_pairs(z, radius)
    assert (1, 2) in set(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))


def test_polynomial_curves_cover_both_answers_and_uneven_segments():
    # the strategy above reaches both answers and the 20x length spread
    found = {"cross": False, "simple": False, "uneven": False}

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(points=polynomial_curves())
    def probe(points):
        found["cross" if _all_pairs_self_intersects(points) else "simple"] = True
        lengths = _segment_lengths(points)
        if lengths.max() >= 20 * lengths.min():
            found["uneven"] = True

    probe()
    assert all(found.values()), found


def test_crossing_test_figure_eight():
    # Gerono lemniscate, sampled off its double point so the two branches
    # cross inside a segment rather than at a shared vertex
    t = 2 * np.pi * (np.arange(200) + 0.5) / 200
    points = np.sin(t) + 1j * np.sin(t) * np.cos(t)
    assert _curve_self_intersects(points)
    assert _all_pairs_self_intersects(points)


def test_crossing_test_loop_shorter_than_longest_segment():
    # a unit square whose bottom edge ties a 0.02-wide bow tie, far smaller
    # than the 0.48-long edges next to it
    points = np.array([0, 0.5, 0.52 + 0.02j, 0.5 + 0.02j, 0.52, 1, 1 + 1j, 1j])
    assert _segment_lengths(points).max() > 10 * 0.02
    assert _curve_self_intersects(points)
    assert _all_pairs_self_intersects(points)


def test_crossing_test_long_segments_crossing_near_their_ends():
    # the two unit-long segments cross 1% from the end of each, so their
    # midpoints are 0.9 apart: nearly the full candidate radius
    points = np.array([0, 1, 0.98 + 0.01j, 0.98 + 0.01j + np.exp(-0.25j * np.pi),
                       1.0 - 1.2j, 0.3 - 0.9j])
    lengths = _segment_lengths(points)
    assert lengths.max() == lengths[0]
    assert abs(0.5 * (points[2] + points[3]) - 0.5) > 0.85 * lengths.max()
    assert _curve_self_intersects(points)
    assert _all_pairs_self_intersects(points)


def test_crossing_test_vertex_on_a_foreign_edge():
    # a quadrilateral whose last vertex lies on its first edge up to
    # rounding: whether the strict test fires hangs on the last bits of the
    # cross products, and both orientations of a pair round differently
    rng = np.random.default_rng(7)
    answers = set()
    for _ in range(300):
        p0 = complex(*rng.uniform(-3, 3, 2))
        step = complex(1.0, rng.uniform(0.1, 3.0))
        points = np.array([p0, p0 + step, p0 + step.imag * 1j + 0.5 + 1j,
                           p0 + rng.uniform(0.3, 0.7) * step])
        answer = _all_pairs_self_intersects(points)
        answers.add(answer)
        assert _curve_self_intersects(points) == answer
    assert answers == {False, True}


@pytest.mark.parametrize("gap", [1e-3, 1e-9, 1e-14])
def test_crossing_test_square_with_near_touching_edges(gap):
    # a square cut by a slit whose two edges run parallel `gap` apart:
    # a simple polygon, the edges of the slit never cross
    corners = [0, 1, 1 + 1j, 1j, 0.5j + 0.5j * gap, 0.9 + 0.5j + 0.5j * gap,
               0.9 + 0.5j - 0.5j * gap, 0.5j - 0.5j * gap]
    points = np.concatenate([np.linspace(p, q, 16, endpoint=False)
                             for p, q in zip(corners, corners[1:] + corners[:1])])
    assert not _curve_self_intersects(points)
    assert not _all_pairs_self_intersects(points)


def test_crossing_test_without_candidate_pairs():
    # midpoints of a regular 64-gon are at least 1.99 side lengths apart
    # unless the segments share a vertex, so no pair is left to test
    points = np.exp(2j * np.pi * np.arange(64) / 64)
    a, b = points, np.roll(points, -1)
    mid = 0.5 * (a + b)
    pairs = cKDTree(np.column_stack([mid.real, mid.imag])).query_pairs(
        1.01 * np.abs(b - a).max(), output_type="ndarray")
    gap = pairs[:, 1] - pairs[:, 0]
    assert np.all((gap == 1) | (gap == 63))
    assert not _curve_self_intersects(points)
    assert not _all_pairs_self_intersects(points)


def _unbounded_min_distance(pa, pb):
    tree = cKDTree(np.column_stack([pb.real, pb.imag]))
    return float(np.min(tree.query(np.column_stack([pa.real, pa.imag]), k=1)[0]))


@settings(max_examples=60, deadline=None)
@given(
    ra=st.floats(1e-3, 10.0),
    rb=st.floats(1e-3, 10.0),
    a2=st.floats(0.0, 0.3),
    gap=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0, 1e3]),
    angle=st.floats(0.0, 2 * np.pi),
    na=st.sampled_from([1, 63, 64, 65, 4096]),
    nb=st.sampled_from([1, 64, 4096]),
)
def test_pairwise_min_distance_is_exact(ra, rb, a2, gap, angle, na, nb):
    # curves touching (gap 0), close, or far apart, of unequal sizes; the
    # bounded search must return the very same float as a full query
    spec_a = ConformalMapSpec(center=0.0, coeffs=(ra, a2 * ra))
    spec_b = ConformalMapSpec(center=(ra * (1 + a2) + rb + gap) * np.exp(1j * angle),
                              coeffs=(rb,))
    pa = curve_samples(spec_a, 1.0, na)
    pb = curve_samples(spec_b, 1.0, nb)
    assert _pairwise_min_distance(pa, pb) == _unbounded_min_distance(pa, pb)
    assert _pairwise_min_distance(pb, pa) == _unbounded_min_distance(pb, pa)


def test_pairwise_min_distance_shared_sample():
    # a sample point shared by both curves gives distance exactly 0
    pa = curve_samples(ConformalMapSpec(center=0.0, coeffs=(1.0,)), 1.0, 4096)
    pb = np.concatenate([pa[:1], pa[:1] + 3.0 + 0.5j * np.arange(1, 200)])
    assert _pairwise_min_distance(pa, pb) == 0.0
    assert _pairwise_min_distance(pb, pa) == 0.0


def _kdtree_min_distance(pa, pb):
    """The KD-tree search the block bound replaced: the nearest neighbours
    of every 64th sample of pa bound the full query from above."""
    tree = cKDTree(np.column_stack([pb.real, pb.imag]))
    xa = np.column_stack([pa.real, pa.imag])
    bound = float(np.min(tree.query(xa[::64], k=1)[0]))
    if bound == 0.0:
        return 0.0
    dist, _ = tree.query(xa, k=1, distance_upper_bound=np.nextafter(bound, np.inf))
    return float(np.min(dist))


def _best_time(fn, *args):
    best = np.inf
    for _ in range(7):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.parametrize("contact", ["hug", "touch"])
def test_pairwise_min_distance_worst_cases(contact):
    # a curve that runs 1e-3 outside the unit circle along half of it
    # keeps a few block pairs for every block of that half; a unit circle
    # touching it at one sample keeps a few in all.  Both give the full
    # query's float, in at most twice the time of the KD-tree search
    n = domain.DEFAULT_BOUNDARY_SAMPLES
    pa = curve_samples(ConformalMapSpec(center=0.0, coeffs=(1.0,)), 1.0, n)
    if contact == "hug":
        theta = np.pi * np.arange(n // 2) / (n // 2)
        pb = np.concatenate([(1 + 1e-3) * np.exp(1j * theta), 1.5 * np.exp(1j * theta[::-1])])
    else:
        pb = 2.0 - pa
        assert pb[0] == pa[0]
    for p, q in ((pa, pb), (pb, pa)):
        assert _pairwise_min_distance(p, q) == _unbounded_min_distance(p, q)
    assert _best_time(_pairwise_min_distance, pa, pb) <= 2 * _best_time(_kdtree_min_distance, pa, pb)


def test_validate_config_single_map_has_no_curve_distance(single_poly):
    report = validate_config(single_poly)
    assert report.passed
    assert report.min_curve_distance() == np.inf
    assert report.curve_distances.shape == (1, 1)

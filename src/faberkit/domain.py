"""Polynomial conformal maps and multi-domain configurations.

A region system is described by n polynomial maps f_i(w) = p_i + sum_k a_k w^k,
each injective on a disk slightly larger than the unit disk.  f_i carries the
unit circle to an analytic Jordan curve G_i = f_i({|w|=1}); the curves bound
disjoint closed regions whose common exterior (plus the point at infinity) is
the domain all boundary operators act on.
"""

import cmath

import numpy as np
from dataclasses import dataclass, field

from .coeffs import unit_roots

DEFAULT_EXT_MARGIN = 0.05
DEFAULT_SEPARATION = 1e-3
DEFAULT_BOUNDARY_SAMPLES = 4096
_MAX_COORDINATE = 2.0 ** 510  # below it, squared distances of curve points stay finite
_CDIST_ROWS = 1 << 15  # entries of one row block of cdist
_BLOCK = 64  # consecutive samples per block of _pairwise_min_distance


def cdist(xa, xb):
    """Squared distances (x_a - x_b)^2 + (y_a - y_b)^2 between the rows of
    the (n_a, 2) and (n_b, 2) real arrays xa and xb, as an (n_a, n_b) array.

    The same bits as scipy.spatial.distance.cdist(xa, xb, "sqeuclidean"),
    without loading scipy.spatial, which costs more than the rest of the
    package.  Each difference x_a - x_b is the product of the row
    [x_a, 1] and the column [1, -x_b]: both terms are exact, so the product
    rounds once, as the subtraction does, and a matrix product forms all
    of them faster than numpy's broadcasting.  The rows are filled in
    blocks of about _CDIST_ROWS entries, so the y term's scratch stays
    small.  Squares that overflow give inf, and infinite inputs inf or
    NaN, without a warning, as SciPy's do.  validate_config's curve
    distances and the Cauchy quadrature both use it.  A module-level
    function, so the name can be patched like any other.
    """
    rows = max(1, _CDIST_ROWS // max(1, len(xb)))
    # a[c] = [x_a, 1] and b[c] = [1, -x_b]^T for each coordinate c
    a = np.ones((2, len(xa), 2))
    a[:, :, 0] = xa.T
    b = np.ones((2, 2, len(xb)))
    np.negative(xb.T, out=b[:, 1])
    out = np.empty((len(xa), len(xb)))
    scratch = np.empty((min(rows, len(xa)), len(xb)))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(xa), rows):
            x = out[i : i + rows]
            y = scratch[: len(x)]
            np.matmul(a[0, i : i + rows], b[0], out=x)
            np.matmul(a[1, i : i + rows], b[1], out=y)
            x *= x
            y *= y
            x += y
    return out


@dataclass(frozen=True)
class ConformalMapSpec:
    """Polynomial map w -> center + sum_k coeffs[k-1] * w**k.

    The center and coeffs must be finite and coeffs[0] (the linear
    coefficient) nonzero; injectivity on the extended disk is not enforced
    here, it is what validate_config checks.
    """

    center: complex
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if len(self.coeffs) < 1:
            raise ValueError("need at least the linear coefficient")
        if not all(map(cmath.isfinite, (self.center,) + self.coeffs)):
            raise ValueError("center and coefficients must be finite")
        if self.coeffs[0] == 0:
            raise ValueError("linear coefficient must be nonzero")

    @property
    def degree(self):
        return len(self.coeffs)


@dataclass(frozen=True)
class MultiDomainConfig:
    """An ordered family of maps plus the validation margins."""

    maps: tuple
    ext_margin: float = DEFAULT_EXT_MARGIN
    separation: float = DEFAULT_SEPARATION

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if len(self.maps) < 1:
            raise ValueError("need at least one map")
        if not all(isinstance(m, ConformalMapSpec) for m in self.maps):
            raise TypeError("maps must be ConformalMapSpec instances")
        for name in ("ext_margin", "separation"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError("%s must be positive and finite" % name)

    @property
    def n(self):
        return len(self.maps)


def evaluate_map(spec, w):
    """f(w), vectorized over w."""
    w_arr = np.asarray(w, dtype=complex)
    acc = np.zeros_like(w_arr)
    for a in reversed(spec.coeffs):
        acc = acc * w_arr + a
    out = spec.center + acc * w_arr
    if np.isscalar(w) or np.ndim(w) == 0:
        return complex(out)
    return out


def map_derivative(spec, w):
    """f'(w), vectorized over w."""
    w_arr = np.asarray(w, dtype=complex)
    acc = np.zeros_like(w_arr)
    for k in range(len(spec.coeffs), 0, -1):
        acc = acc * w_arr + k * spec.coeffs[k - 1]
    if np.isscalar(w) or np.ndim(w) == 0:
        return complex(acc)
    return acc


@dataclass
class MapReport:
    injective: bool
    min_abs_deriv: float
    critical_radius: float  # inf when f' has no roots
    simple_curve: bool  # the margin curve f({|w| = 1+ext_margin}) does not cross itself


@dataclass
class ValidationReport:
    """Outcome of the geometric checks on a configuration.

    curve_distances holds sampled distances between the radius-1 curves,
    margin_distances the same for the radius 1+ext_margin curves (these are
    the ones compared against the separation floor).  winding[i, j] is the
    winding number of curve i around center j (roots_inside).  Where a
    curve reaches past 2^510, distances and windings read NaN.
    """

    map_reports: list
    curve_distances: np.ndarray
    margin_distances: np.ndarray
    winding: np.ndarray
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def min_curve_distance(self):
        n = self.curve_distances.shape[0]
        if n < 2:
            return np.inf
        iu = np.triu_indices(n, k=1)
        return float(np.min(self.curve_distances[iu]))


def curve_samples(spec, radius, n_samples):
    """Samples of f at the n_samples nodes radius * unit_roots(n_samples)."""
    return evaluate_map(spec, radius * unit_roots(n_samples))


def roots_inside(spec, z, radius=1.0):
    """For each point z, the number of roots of f(w) = z in |w| < radius:
    the winding number of f({|w| = radius}) about z, found without sampling.
    A point no nearer to the center than sum |a_k| radius^k has none, and so
    has a non-finite one; for an affine map that settles every point.  The
    others get the roots as eigenvalues of one batch of companion matrices.
    """
    u = np.asarray(z, dtype=complex).ravel() - spec.center
    d = max(k for k, c in enumerate(spec.coeffs, 1) if c)  # the degree: a_d != 0
    a = np.array(spec.coeffs[:d])
    count = (np.abs(u) < sum(abs(c) * radius ** k for k, c in enumerate(a, 1))).astype(int)
    if d > 1:
        near = np.flatnonzero(count)
        companion = np.zeros((near.size, d, d), dtype=complex)
        companion[:, 0, :-1] = -a[-2::-1] / a[-1]
        companion[:, 0, -1] = u[near] / a[-1]
        companion[:, 1:, :-1] = np.eye(d - 1)
        count[near] = np.sum(np.abs(np.linalg.eigvals(companion)) < radius, axis=1)
    return count.reshape(np.shape(z))


def _critical_radius(spec):
    """Smallest |w| with f'(w) = 0 (inf for affine maps)."""
    dcoef = [k * spec.coeffs[k - 1] for k in range(1, spec.degree + 1)]
    if len(dcoef) == 1:
        return np.inf
    roots = np.roots(list(reversed(dcoef)))
    return float(np.min(np.abs(roots))) if roots.size else np.inf


def _cross(u, v):
    return u.real * v.imag - u.imag * v.real


def _near_pairs(z, radius):
    """Index arrays (i, j), i != j, listing every pair of the points z no
    farther apart than radius, each unordered pair once, among others.

    A uniform grid of square cells of side s puts two points within s of
    each other in the same cell or in neighbouring ones.  The cells are
    numbered column by column, so that a cell and the one above it, and
    the three cells to its right, hold two runs of consecutive numbers.
    Sorted by cell number, each point meets the points after it in its
    own cell and the one above, then those of the three cells to the
    right, as two ranges that binary search finds: every pair in
    neighbouring cells is listed once.  A cell coordinate (x - x_min) / s,
    in units of the coordinates, is off by at most eps * 2 max|z|, so
    the difference of two by twice that; s is radius widened by
    8 eps max|z|, and the rounding moves no pair within radius two cells
    apart.  Points spread along a curve cost O(N log N).  A 3 x 3 block of
    cells lists about 9/pi times the pairs within s, and all N^2 / 2
    pairs when every point falls in one cell.
    """
    n = z.size
    x, y = z.real, z.imag
    side = radius + 8.0 * np.finfo(float).eps * np.max(np.abs(z))
    cx = ((x - x.min()) / side).astype(np.int64)
    cy = ((y - y.min()) / side).astype(np.int64)
    # columns of h > max(cy) + 1 cells: the runs key..key + 1 and
    # key + h - 1..key + h + 1 hold no cell of a third column
    h = int(cy.max()) + 2
    key = cx * h + cy
    order = np.argsort(key, kind="stable")
    key = key[order]
    lo = np.concatenate([np.arange(1, n + 1), np.searchsorted(key, key + (h - 1), "left")])
    hi = np.concatenate([np.searchsorted(key, key + 1, "right"),
                         np.searchsorted(key, key + (h + 1), "right")])
    count = hi - lo
    start = np.cumsum(count) - count
    i = np.repeat(np.tile(np.arange(n), 2), count)
    j = np.arange(start[-1] + count[-1]) + np.repeat(lo - start, count)
    return order[i], order[j]


def _curve_self_intersects(points):
    """Proper-crossing test on the closed polyline through `points`.

    Segment k runs from a_k = points[k] to a_k + d_k.  Two segments that
    meet at a point p have midpoints within |d_i|/2 + |d_j|/2 <= max|d| of
    each other (each midpoint lies within half its segment's length of p),
    so every crossing pair is among the pairs of midpoints no farther apart
    than the longest segment, which a uniform grid of that cell side lists
    (_near_pairs).  The radius is widened by a few ulps of the coordinates
    to cover rounding in the midpoints.  Adjacent segments (sharing a
    vertex) are skipped; every remaining candidate gets the strict sign
    test in both orientations, so the answer is exact for the sampled
    polyline and the same as testing all pairs.
    """
    n = points.size
    a = points
    b = np.roll(points, -1)
    d = b - a
    mid = 0.5 * (a + b)
    radius = np.max(np.abs(d)) + 4.0 * np.finfo(float).eps * np.max(np.abs(mid))
    i, j = _near_pairs(mid, radius)
    gap = np.abs(j - i)
    keep = (gap > 1) & (gap < n - 1)
    i, j = i[keep], j[keep]
    for p, q in ((i, j), (j, i)):
        s1 = _cross(d[p], a[q] - a[p])
        s2 = _cross(d[p], b[q] - a[p])
        t1 = _cross(d[q], a[p] - a[q])
        t2 = _cross(d[q], (a[p] + d[p]) - a[q])
        if np.any((s1 * s2 < 0) & (t1 * t2 < 0)):
            return True
    return False


def _xy(z):
    """The complex points z as an (n, 2) real array, as cdist takes them."""
    return np.ascontiguousarray(z).view(float).reshape(-1, 2)


def _sample_blocks(p):
    """p in rows of _BLOCK consecutive samples, the last row padded with
    the final sample, with each row's middle sample (its anchor) and the
    row's largest distance from it (its radius)."""
    rows = np.empty((-(-p.size // _BLOCK), _BLOCK), dtype=complex)
    rows.flat[: p.size] = p
    rows.flat[p.size :] = p[-1]
    anchor = rows[:, _BLOCK // 2].copy()
    return rows, anchor, np.max(np.abs(rows - anchor[:, None]), axis=1)


def _pairwise_min_distance(pa, pb):
    """Smallest distance between a sample of pa and a sample of pb.

    Both curves are cut into blocks of _BLOCK consecutive samples, each
    with an anchor sample and a radius about it.  The nearest anchor pair
    bounds the minimum from above by D; a pair of blocks whose anchors are
    |a - b| apart holds no pair of samples nearer than |a - b| - r_a - r_b,
    so the pairs where that bound, less a rounding margin of a few ulps of
    its terms, exceeds D are skipped.  cdist forms the squared distances
    of the pairs of blocks that are left, one block of pa against at most
    _BLOCK blocks of pb at a time, and the result is the square root of
    their minimum: the float a nearest-neighbour query over all samples
    returns.  Curves that are apart by much more than a block's span keep
    a few pairs of blocks; the worst case, every sample of one curve about
    as far from the other's as the nearest pair, keeps all of them and
    costs O(N^2).
    """
    rows_a, anchor_a, radius_a = _sample_blocks(pa)
    rows_b, anchor_b, radius_b = _sample_blocks(pb)
    sep = np.sqrt(cdist(_xy(anchor_a), _xy(anchor_b)))
    bound = float(np.min(sep))
    if bound == 0.0:
        return 0.0
    reach = radius_a[:, None] + radius_b
    near = (sep - reach) - 16.0 * np.finfo(float).eps * (sep + reach) <= bound
    best = np.inf
    for k in np.flatnonzero(np.any(near, axis=1)):
        cols = np.flatnonzero(near[k])
        for s in range(0, cols.size, _BLOCK):
            sq = cdist(_xy(rows_a[k]), _xy(rows_b[cols[s : s + _BLOCK]]))
            best = min(best, float(np.min(sq)))
    return float(np.sqrt(best))


def validate_config(config):
    """Geometric admissibility checks for a configuration.

    Per map: f' has no zero in the extended disk (exact, via polynomial
    roots) and the margin curve f({|w| = 1+ext_margin}) is simple, so f is
    univalent on |w| <= 1+ext_margin (Darboux).  Across maps: the margin
    curves keep at least `config.separation` apart, stay outside one
    another, and no center lies inside a foreign region.  Windings are
    root counts (roots_inside).  Distance and crossing checks work on the
    curves sampled at DEFAULT_BOUNDARY_SAMPLES points: they are exact for
    those polylines (the crossing test on the candidate pairs of a uniform
    grid, the distances as nearest sample pairs, found through bounds on
    blocks of samples, or 0 where one curve winds about one of eight
    points of another) but only approximate the analytic curves.  In the
    sample count N, the crossing test costs O(N log N) per curve and the
    distance of two well separated curves O(64 N + (N / 64)^2); either
    takes O(N^2) only in its worst case, most segment midpoints within one
    segment length of each other, or most sample pairs about as far apart
    as the nearest one.  A curve reaching |z| >= 2^510, where squared
    distances overflow, fails by name and skips the sampled stages.
    """
    n = config.n
    n_samples = DEFAULT_BOUNDARY_SAMPLES
    eps = config.ext_margin
    failures = []
    map_reports = []

    curves_1 = [curve_samples(spec, 1.0, n_samples) for spec in config.maps]
    curves_m = [curve_samples(spec, 1.0 + eps, n_samples) for spec in config.maps]
    reach = [float(np.max(np.abs(np.concatenate(c)))) for c in zip(curves_1, curves_m)]
    in_range = [r < _MAX_COORDINATE for r in reach]  # NaN and inf fail
    for k, spec in enumerate(config.maps):
        crit = _critical_radius(spec)
        grid = np.outer(np.linspace(0.0, 1.0 + eps, 33)[1:], unit_roots(256)).ravel()
        min_deriv = float(np.min(np.abs(map_derivative(spec, grid))))
        injective = crit > 1.0 + eps
        simple = in_range[k] and not _curve_self_intersects(curves_m[k])
        map_reports.append(MapReport(injective, min_deriv, crit, simple))
        if not injective:
            failures.append(
                "map %d: derivative vanishes at radius %.6g <= 1+ext_margin" % (k, crit)
            )
        if not in_range[k]:
            failures.append("map %d: curve reaches |z| = %.3g, past 2^510, where squared "
                            "distances overflow" % (k, reach[k]))
        elif not simple:
            failures.append("map %d: not univalent on |w| <= 1+ext_margin" % k)
    if not all(in_range):
        nan = np.full((n, n), np.nan)
        return ValidationReport(map_reports, nan, nan, nan, failures)

    # Overlap of distinct regions shows up as nonzero winding of one curve
    # around probe points of another even when sampled min distances stay
    # above the floor; overlapping curves are 0 apart.
    probe_idx = np.arange(0, n_samples, max(1, n_samples // 8))

    def overlaps(curves, radius):
        return np.array([[i != j and bool(np.any(roots_inside(spec, curves[j][probe_idx], radius)))
                          for j in range(n)] for i, spec in enumerate(config.maps)])

    overlap_1 = overlaps(curves_1, 1.0)
    overlap_m = overlaps(curves_m, 1.0 + eps)
    curve_dist = np.zeros((n, n))
    margin_dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if not (overlap_1[i, j] or overlap_1[j, i]):
                curve_dist[i, j] = curve_dist[j, i] = _pairwise_min_distance(
                    curves_1[i], curves_1[j]
                )
            if not (overlap_m[i, j] or overlap_m[j, i]):
                margin_dist[i, j] = margin_dist[j, i] = _pairwise_min_distance(
                    curves_m[i], curves_m[j]
                )
            if margin_dist[i, j] < config.separation:
                failures.append(
                    "maps %d/%d: margin curves come within %.3g < separation %.3g"
                    % (i, j, margin_dist[i, j], config.separation)
                )

    winding = np.array([roots_inside(spec, [m.center for m in config.maps])
                        for spec in config.maps])
    for i in range(n):
        if winding[i, i] != 1:
            failures.append("map %d: curve does not wind once around its center" % i)
    for i in range(n):
        for j in range(n):
            if i != j and winding[i, j] != 0:
                failures.append("center %d lies inside region %d" % (j, i))

    for i in range(n):
        j = np.flatnonzero(overlap_m[i])
        if j.size:
            failures.append("margin curves %d and %d overlap" % (i, j[0]))

    return ValidationReport(
        map_reports=map_reports,
        curve_distances=curve_dist,
        margin_distances=margin_dist,
        winding=winding,
        failures=failures,
    )

"""Independent reference routes that the tests check the library against.

faber_oracle integrates the contour definition of a Faber function;
dirichlet_norm_sigma_area integrates |h'|^2 over the exterior domain on a
grid.  Neither shares an identity with the routes faberkit uses, which is
what makes them references; faberkit itself calls neither.
faber_coefficients_by_components reads the Faber coefficients of h off
its region components, one boundary at a time, where faberkit reads them
off h itself.  offdiagonal_block_series reads an off-diagonal Grunsky
block off the Taylor coefficients of its cross kernel on the unit torus,
where faberkit samples Faber functions on the circle and checks the block
against its transpose.  two_disk_modulus is the exact Grunsky norm of
two disks, disk_block the exact off-diagonal block of any two disks, and
quadratic_diagonal_block the exact diagonal block of w -> a1 w + a2 w^2,
and boundary_halves the exact pullback of 1/(z - q) through any
polynomial map, by partial fractions.
write_matrix_by_percent writes the grunsky_matrix export (the upper
triangle of the stacked matrix) with one '%.17g' per entry, where
faberkit formats whole arrays at once.  polyline_winding sums the turning
angle of a sampled curve about each point, where faberkit counts the roots
of f(w) = z.
"""

import math

import numpy as np
from scipy.special import gammaln

from faberkit import (
    Contour,
    cauchy_eval,
    curve_samples,
    decompose,
    evaluate_map,
    map_derivative,
    norm_history,
    operator_norm,
    pullback_boundary,
)


def faber_oracle(spec, m, z):
    """Contour-quadrature value of the degree-m Faber function at z.

    Integrates f^{-1}(zeta)^{-m}/(zeta - z) over f({|w|=0.9}) with 2048
    samples; valid for z in the unbounded component of the curve
    complement, which is where the principal-part formula is being checked.
    """
    contour = Contour(spec, 0.9, n_samples=2048)
    w = 0.9 * np.exp(1j * (2.0 * np.pi * np.arange(2048) / 2048))
    h_samples = w ** (-float(m))
    return cauchy_eval(contour, h_samples, z)


def faber_coefficients_by_components(config, h, trunc):
    """Array a[k, m-1] from the component of h with poles in region k.

    decompose groups the poles by region; boundary k's coefficients are
    the negative half of that component pulled back through f_k, and a
    region without poles gets exact zeros.
    """
    out = np.zeros((config.n, trunc), dtype=complex)
    for k, comp in enumerate(decompose(config, h).components):
        if comp.terms:
            out[k] = pullback_boundary(config, k, comp, trunc)[0]
    return out


def boundary_halves(spec, q, trunc):
    """(minus, plus): the z^{-m} and z^m coefficients of 1/(f(w) - q) on |w| = 1.

    With w_r the roots of f(w) = q, the partial fractions
    1/(f(w) - q) = sum_r 1/(f'(w_r) (w - w_r)) give a root inside the disk
    a_{-m} = w_r^{m-1} / f'(w_r), and one outside a_n = -w_r^{-n-1} / f'(w_r).
    f is univalent on the closed disk, so a root lies inside only when q
    lies in the region, and then only one.  Arrays [m-1], m = 1..trunc;
    nothing here samples the circle.
    """
    minus = np.zeros(trunc, dtype=complex)
    plus = np.zeros(trunc, dtype=complex)
    m = np.arange(1, trunc + 1)
    for w in np.roots(list(reversed(spec.coeffs)) + [spec.center - q]):
        if abs(w) < 1.0:
            minus += w ** (m - 1) / map_derivative(spec, w)
        else:
            plus -= w ** (-m - 1.0) / map_derivative(spec, w)
    return minus, plus


def _laurent_at_infinity(h, n_terms):
    """Coefficients A[mu-1] of h(z) = sum_mu A_mu z^-mu valid for large |z|."""
    out = np.zeros(n_terms, dtype=complex)
    for pole, order, coeff in h.terms:
        for mu in range(order, n_terms + 1):
            out[mu - 1] += coeff * math.comb(mu - 1, order - 1) * pole ** (mu - order)
    return out


def _inside_region(spec, z):
    """Boolean mask: which z lie in f({|w| <= 1}).

    Exact for degrees one and two; Newton otherwise (adequate away from
    critical values, which validated maps keep outside the closed disk).
    """
    z = np.asarray(z, dtype=complex)
    if spec.degree == 1:
        return np.abs(z - spec.center) <= np.abs(spec.coeffs[0])
    if spec.degree == 2:
        a1, a2 = spec.coeffs
        disc = np.sqrt(a1 * a1 + 4.0 * a2 * (z - spec.center))
        w1 = (-a1 + disc) / (2.0 * a2)
        w2 = (-a1 - disc) / (2.0 * a2)
        return np.minimum(np.abs(w1), np.abs(w2)) <= 1.0
    w = (z - spec.center) / spec.coeffs[0]
    for _ in range(50):
        dw = map_derivative(spec, w)
        dw = np.where(np.abs(dw) < 1e-14, 1e-14, dw)
        w = w - (evaluate_map(spec, w) - z) / dw
    ok = np.abs(evaluate_map(spec, w) - z) <= 1e-9 * (1.0 + np.abs(z))
    return ok & (np.abs(w) <= 1.0)


def dirichlet_norm_sigma_area(config, h, n_cells=2048):
    """Masked 2-d quadrature oracle for the exterior Dirichlet seminorm.

    Integrates |h'|^2 over a large disk minus the interior regions on a
    cartesian grid (per-cell Gauss inside, 32 x 32 subcell coverage counts
    on boundary-straddling cells) and adds the exact series tail, to 80
    terms, beyond the disk.  Slower and cruder than the boundary
    reduction, but it never touches a contour identity, which is the point.
    """
    hp = h.derivative()

    def g(z):
        return np.abs(hp(z)) ** 2

    extent = 0.0
    for spec in config.maps:
        extent = max(extent, float(np.max(np.abs(curve_samples(spec, 1.0, 256)))))
    pole_r = max((abs(p) for p, _, _ in h.terms), default=0.0)
    r_out = max(6.0, 2.0 * max(extent, pole_r))

    tail_coeff = _laurent_at_infinity(h, 80)
    mus = np.arange(1, 81, dtype=float)
    tail = float(np.pi * np.sum(mus * np.abs(tail_coeff) ** 2 * r_out ** (-2 * mus)))

    def inside_domain(z):
        mask = np.abs(z) <= r_out
        for spec in config.maps:
            mask &= ~_inside_region(spec, z)
        return mask

    edges = np.linspace(-r_out, r_out, n_cells + 1)
    step = edges[1] - edges[0]
    zc = edges[None, :] * 1j + edges[:, None]  # corner grid, [x, y] -> x + i y
    corner_in = inside_domain(zc.ravel()).reshape(zc.shape)
    cin = (corner_in[:-1, :-1] & corner_in[1:, :-1]
           & corner_in[:-1, 1:] & corner_in[1:, 1:])
    cany = (corner_in[:-1, :-1] | corner_in[1:, :-1]
            | corner_in[:-1, 1:] | corner_in[1:, 1:])
    mixed = cany & ~cin

    total = tail
    # interior cells: tensor Gauss, vectorized over cells in row blocks
    gx, gw = np.polynomial.legendre.leggauss(3)
    offs = 0.5 * step * gx
    wts2 = np.outer(gw, gw) * (step * step / 4.0)
    xi, yi = np.nonzero(cin)
    centers = (edges[xi] + 0.5 * step) + 1j * (edges[yi] + 0.5 * step)
    block = 1 << 18
    for start in range(0, centers.size, block):
        c = centers[start : start + block]
        acc = np.zeros(c.size)
        for ax in range(3):
            for ay in range(3):
                acc += wts2[ax, ay] * g(c + offs[ax] + 1j * offs[ay])
        total += float(np.sum(acc))

    # boundary cells: midpoint at subcell resolution with coverage masking
    xm, ym = np.nonzero(mixed)
    if xm.size:
        sub = 32
        so = (np.arange(sub) + 0.5) * (step / sub)
        sgrid = so[:, None] + 1j * so[None, :]
        cell_area = (step / sub) ** 2
        for start in range(0, xm.size, 512):
            xs = edges[xm[start : start + 512]]
            ys = edges[ym[start : start + 512]]
            base = xs[:, None] + 1j * ys[:, None]
            pts = base + sgrid.ravel()[None, :]
            flat = pts.ravel()
            m = inside_domain(flat)
            vals = np.zeros(flat.size)
            vals[m] = g(flat[m])
            total += float(np.sum(vals)) * cell_area
    return total


def offdiagonal_block_series(config, j, i, trunc):
    """Monomial off-diagonal block b[n-1, m-1] = -[zeta^{m-1} z^n] K_ji.

    K_ji(zeta, z) = f_i'(zeta)/(f_i(zeta) - f_j(z)) - f_i'(zeta)/(f_i(zeta) - f_j(0))
    is analytic on the closed bidisk; its coefficients come off one 2-d FFT
    of its samples on the unit torus, N = max(128, 4 trunc) nodes per axis.
    That N is fixed: it resolves the bundled configs, whose curves stay far
    apart, and would need to grow like 1/gap between two close curves.
    """
    if i == j:
        raise ValueError("cross kernel applies to off-diagonal blocks only")
    spec_i = config.maps[i]
    spec_j = config.maps[j]
    n = max(128, 4 * trunc)
    w = np.exp(2j * np.pi * np.arange(n) / n)
    fi = evaluate_map(spec_i, w)
    fpi = map_derivative(spec_i, w)
    fj = evaluate_map(spec_j, w)
    kernel = fpi[:, None] / (fi[:, None] - fj[None, :]) - (fpi / (fi - spec_j.center))[:, None]
    return -(np.fft.fft2(kernel) / n ** 2)[:trunc, 1 : trunc + 1].T


def two_disk_modulus(r1, r2, d):
    """rho of the annulus rho < |z| < 1 conformally equivalent to the exterior of two disks.

    Disks of radii r1, r2 at center distance d > r1 + r2: a Moebius map
    takes their exterior to that annulus, whose Grunsky operator is
    diagonal with entries rho^k, each twice.  So sigma_max = rho, and the
    singular values are rho, rho, rho^2, rho^2, ...
    """
    return math.exp(-math.acosh((d * d - r1 * r1 - r2 * r2) / (2.0 * r1 * r2)))


def disk_block(ci, ri, cj, rj, trunc):
    """Orthonormal block G_ji of the disks w -> ci + ri w (i) and cj + rj w (j), exactly.

    The cross kernel is d/dzeta log(d + ri zeta - rj z) with d = ci - cj,
    and its binomial series gives

        G_ji[n-1, m-1] = sqrt(nm) C(n+m, m) (-ri/d)^m (rj/d)^n / (n+m).

    Complex radii carry the rotations.  The binomial and the powers are
    summed as logarithms, log-gamma for the binomial, so nothing overflows
    at any truncation; one exp per entry, so nothing cancels.
    """
    d = complex(ci) - complex(cj)
    k = np.arange(1, trunc + 1, dtype=float)
    n, m = k[:, None], k[None, :]
    log_term = (0.5 * np.log(n * m) - np.log(n + m) + gammaln(n + m + 1) - gammaln(n + 1)
                - gammaln(m + 1) + m * np.log(-complex(ri) / d) + n * np.log(complex(rj) / d))
    return np.exp(log_term)


def quadratic_diagonal_block(a1, a2, trunc):
    """Orthonormal diagonal block of f(w) = a1 w + a2 w^2, in closed form.

    Q(zeta, z) = a1 (1 + t (zeta + z)) with t = a2/a1, so expanding
    log(1 + t (zeta + z)) gives G_nm = -sqrt(nm) [zeta^m z^n] log Q =
    sqrt(nm) (-t)^{m+n} C(m+n, m)/(m+n).  Each entry is one binomial
    coefficient times a power: nothing is summed, so nothing cancels.
    """
    t = a2 / a1
    g = np.empty((trunc, trunc), dtype=complex)
    for n in range(1, trunc + 1):
        for m in range(1, trunc + 1):
            g[n - 1, m - 1] = math.sqrt(n * m) * math.comb(m + n, m) * (-t) ** (m + n) / (m + n)
    return g


def write_matrix_by_percent(gr, fileobj, sigma_history=None):
    """The faberkit.v1 grunsky_matrix export, formatted entry by entry."""
    fileobj.write("faberkit.v1\n")
    fileobj.write("kind = grunsky_matrix\n")
    fileobj.write("n = %d\n" % gr.n)
    fileobj.write("trunc = %d\n" % gr.trunc)
    fileobj.write("storage = upper\n")
    history = sigma_history or norm_history(gr)
    sigma = history[gr.trunc] if gr.trunc in history else operator_norm(gr)
    fileobj.write("sigma_max = %.17g\n" % sigma)
    for t in sorted(history):
        fileobj.write("sigma_max[%d] = %.17g\n" % (t, history[t]))
    fileobj.write("identity_defect = %.3g\n" % gr.identity_defect)
    for j in range(gr.n):
        for i in range(j, gr.n):  # the upper triangle: blocks j <= i
            fileobj.write("block %d %d method=%s agreement=%.3g\n"
                          % (j, i, gr.method_tags[j][i], gr.agreement[j, i]))
            for n, row in enumerate(gr.blocks[j][i]):
                # a diagonal block's row n (from 0) starts at column n
                entries = row[n:] if i == j else row
                fileobj.write(" ".join("%.17g,%.17g" % (c.real, c.imag) for c in entries)
                              + "\n")


def polyline_winding(points, z):
    """Winding numbers of the closed polyline through points about the points z.

    A z on a sample would divide by zero; such entries are nudged to 1e-300.
    """
    rel = np.subtract.outer(points, np.atleast_1d(np.asarray(z, dtype=complex)))
    rel = np.where(np.abs(rel) < 1e-300, 1e-300, rel)
    turn = np.sum(np.angle(np.roll(rel, -1, axis=0) / rel), axis=0)
    return np.rint(turn / (2 * np.pi)).astype(int)

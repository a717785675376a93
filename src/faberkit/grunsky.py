"""Generalized Grunsky blocks and the assembled block operator.

Block (j, i) sends z^{-m} to the positive-frequency part of the boundary
pullback of the i-th Faber function through the j-th map:

    Gr_{ji}(z^{-m}) = positive part of [ Phi^i_m o f_j - const ],

with monomial entries b_nm defined by Gr_{ji}(z^{-m}) = sum_n b_nm z^n.
One route computes the blocks and two independent ones check them:

* definitional: sample Phi^i_m o f_j on the unit circle |w| = 1 and read
  the coefficients off an FFT (coeffs.sample_to_coeffs, which sizes it
  from its alias estimate).  The samples come from faber.faber_values, the
  generating-function recurrence in u = 1/(f_j(w) - p_i); it stays at
  rounding level where summing the principal parts would cancel (for
  w + 0.1 w^2 their coefficients reach 5e8 by m = 256).  Validated maps
  are univalent on |w| <= 1 + ext_margin, so the samples are analytic
  across the circle.
  The negative frequencies must come back as exactly delta_{ij} z^{-m};
  the residual of that identity is recorded on every call and is the
  cheapest global health check of the pipeline.

* kernel series: every entry of a diagonal block is a Taylor coefficient
  of a kernel analytic on the closed bidisk.  With the divided difference
  Q(zeta, z) = (f(zeta) - f(z))/(zeta - z),

      b_nm = [zeta^{m-1} z^n] (-d_zeta Q / Q)

  (the Grunsky coefficients are those of log Q, Pommerenke 1975); it
  vanishes identically for affine maps.  For each zeta on the unit circle
  the z-series of the kernel comes from a division of power series in z;
  its zeta-coefficients are read off the same circle extractor.  It shares
  only that extractor with the definitional route: the math differs (log Q
  against the Faber recurrence).

* symmetry: off the diagonal, b_nm = -[zeta^{m-1} z^n] of the cross kernel
  f_i'(zeta)/(f_i(zeta) - f_j(z)) - f_i'(zeta)/(f_i(zeta) - f_j(0)), a
  zeta-derivative of log(f_i(zeta) - f_j(z)) as the diagonal kernel is one
  of log Q.  So G_nm = -sqrt(nm) [zeta^m z^n] log(f_i(zeta) - f_j(z)), and
  block (j, i) is the transpose of block (i, j): the operator is
  complex-symmetric, G = G^T (Grunsky's symmetry for several boundaries).
  The two blocks sample different maps through different Faber
  functions, so each checks the other's sampling and FFT.

assemble checks every off-diagonal pair by symmetry and every diagonal
block by the kernel series, whatever the caller asks.  The same symmetry
holds inside each diagonal block, which assemble checks too.  Once the
checks pass it keeps one triangle of the stacked matrix: the lower one
becomes the transpose of the upper, so the matrix in memory is exactly
complex-symmetric, and the export (write_matrix, read_matrix) stores the
upper triangle alone.

Entries in the orthonormal bases {z^{-m}/sqrt(pi m)}, {z^n/sqrt(pi n)}
are G_nm = sqrt(n/m) b_nm; operator norms are singular values of the
stacked orthonormal matrix.  Only the largest is wanted: from a measured
size on it comes from Lanczos on G^H G, in numpy, below it from a dense SVD.
"""

import itertools

import numpy as np
from dataclasses import dataclass

from . import pseries
from .coeffs import sample_to_coeffs
from .coeffs import _start_points as _fft_samples  # read by perfbench/tracing.py
from .domain import evaluate_map
from .errors import AliasError, MethodDisagreement
from .faber import faber_values
from .textfmt import format_g17, parse_g17

DEFAULT_METHOD_TOL = 1e-6
# operator_norm runs Lanczos from this stacked size nT on, and a dense SVD
# below it.  On the bundled configs, one BLAS thread, the SVD takes 0.07 ms
# against 0.27-0.31 ms at nT = 32, the two are even at 64 (0.30-0.48 ms
# against 0.24-0.47 ms), and Lanczos wins from 80 on (0.8-1.3 ms against
# 0.19-0.53 ms at 96); below 96 sigma keeps the SVD's bits
_LANCZOS_MIN_SIZE = 96
# operator_norm takes the SVD when Lanczos has not converged after this many
# steps (5-10 on the benchmark's configs, 21-30 for unit disks 0.003 apart)
_LANCZOS_MAX_STEPS = 128
# write_matrix and read_matrix handle this many floats at a time, so their
# memory stays flat
_CHUNK_FLOATS = 16384


def faber_pullback_block(config, j, i, trunc, n_samples=None):
    """Definitional monomial block and its identity-recovery defect.

    Returns (b, defect) where b[n-1, m-1] is the z^n coefficient of
    Gr_{ji}(z^{-m}) and defect is the max deviation of the recovered
    negative frequencies from delta_{ij} z^{-m}.  The extractor sizes the
    sample count itself; n_samples is accepted and ignored.
    """
    spec_i, spec_j = config.maps[i], config.maps[j]

    def samples(w):  # samples[t, m-1] = Phi^i_m(f_j(w_t))
        return faber_values(spec_i, 1.0 / (evaluate_map(spec_j, w) - spec_i.center), trunc)

    neg, pos = sample_to_coeffs(samples, trunc)
    expect = np.eye(trunc, dtype=complex) if i == j else np.zeros((trunc, trunc))
    defect = float(np.max(np.abs(neg - expect)))
    return pos, defect


def diagonal_block_series(spec, trunc):
    """Monomial diagonal block b[n-1, m-1] = [zeta^{m-1} z^n](-d_zeta Q / Q).

    For each zeta on the unit circle Q(zeta, z) = sum_{v<d} q_v(zeta) z^v,
    q_v(zeta) = sum_u a_{u+v+1} zeta^u (so nothing cancels at zeta = z), and
    the z-series k_n(zeta) of -d_zeta Q / Q comes from the division
    q_0 k_n = -q_n' - sum_{v=1}^{min(n, d-1)} q_v k_{n-v}.  It is stable:
    Q(zeta, .) has no zero in |z| <= 1 + ext_margin, by univalence.  The
    zeta-coefficients of zeta k_n are read off the circle with max(trunc, d)
    coefficients, so N starts above the degree of the q_v.
    """
    a = np.asarray(spec.coeffs, dtype=complex)  # a[k] = a_{k+1}
    d = a.size
    if d == 1:  # Q is constant: the kernel vanishes identically
        return np.zeros((trunc, trunc), dtype=complex)

    def samples(w):  # samples[s, n-1] = w_s k_n(w_s)
        # q_v = a_{v+1} + zeta q_{v+1} and q_v' = q_{v+1} + zeta q_{v+1}'
        q = np.empty((d, w.size), dtype=complex)
        dq = np.zeros_like(q)
        q[-1] = a[-1]
        for v in range(d - 2, -1, -1):
            q[v] = a[v] + w * q[v + 1]
            dq[v] = q[v + 1] + w * dq[v + 1]
        k = pseries.divide(-dq, q, trunc)[1:]
        k *= w
        return k.T

    return sample_to_coeffs(samples, max(trunc, d))[1][:trunc].T


def orthonormal_from_monomial(b):
    """Rescale monomial entries to the orthonormal bases: G_nm = sqrt(n/m) b_nm."""
    n_idx = np.arange(1, b.shape[0] + 1, dtype=float)
    m_idx = np.arange(1, b.shape[1] + 1, dtype=float)
    return np.sqrt(n_idx[:, None] / m_idx[None, :]) * b


def _method_tag(j, i):
    """The routes behind block (j, i), fixed by its position."""
    return "definitional+kernel-series" if j == i else "definitional+symmetry"


@dataclass
class GrunskyMatrix:
    """Assembled block operator in orthonormal bases.

    blocks[j, i] (also blocks[j][i]) is the (j, i) block, of shape
    (trunc, trunc); agreement[j, i] is its cross-check gap: max|G_ji - G_ij^T|
    off the diagonal, the kernel-series gap on it.  identity_defect is the
    worst negative-frequency recovery error seen while building the blocks.
    """

    blocks: np.ndarray  # (n, n, trunc, trunc)
    agreement: np.ndarray
    identity_defect: float

    @property
    def n(self):
        return self.blocks.shape[0]

    @property
    def trunc(self):
        return self.blocks.shape[2]

    @property
    def method_tags(self):
        """method_tags[j][i] names the routes that built block (j, i)."""
        return [[_method_tag(j, i) for i in range(self.n)] for j in range(self.n)]

    def full_matrix(self, trunc=None):
        """The stacked (n t) x (n t) matrix of the leading t x t blocks, a new array."""
        t = self.trunc if trunc is None else trunc
        if not (1 <= t <= self.trunc):
            raise ValueError("truncation out of range")
        # order="C" copies even where a reshape alone would return a view (n = 1)
        stacked = np.array(self.blocks[:, :, :t, :t].transpose(0, 2, 1, 3), order="C")
        return stacked.reshape(self.n * t, self.n * t)

    def monomial_block(self, j, i):
        n_idx = np.arange(1, self.trunc + 1, dtype=float)
        return np.sqrt(n_idx[None, :] / n_idx[:, None]) * self.blocks[j, i]


def assemble(config, trunc, policy=None, method_tol=DEFAULT_METHOD_TOL):
    """Build all blocks, each checked against an independent construction.

    Every diagonal block is compared with its kernel series
    (diagonal_block_series), and every off-diagonal pair by symmetry: its
    gap max|G_ji - G_ij^T| is the agreement of both blocks.  Each diagonal
    block must also be symmetric, max|G_jj - G_jj^T| within method_tol.  A
    gap above method_tol, or an identity-recovery defect above it, raises
    MethodDisagreement; so does a gap or defect that is not finite.  An
    extraction that fails its bound raises AliasError naming the block.

    policy is ignored: the benchmark's workloads (perfbench/workloads.py)
    still pass policy="definitional", and this keyword is kept only for
    them.

    The blocks returned keep their upper triangle as computed, entry for
    entry, and the lower triangle is its transpose: blocks[i, j] =
    blocks[j, i].T for j < i, and each diagonal block is symmetric.
    """
    n = config.n
    blocks = np.empty((n, n, trunc, trunc), dtype=complex)
    agreement = np.empty((n, n))
    worst_defect = 0.0
    try:
        for j, i in itertools.product(range(n), repeat=2):
            b, defect = faber_pullback_block(config, j, i, trunc)
            worst_defect = np.maximum(worst_defect, defect)  # keeps a NaN
            if i == j:
                agreement[j, j] = np.max(np.abs(b - diagonal_block_series(config.maps[j], trunc)))
                if not agreement[j, j] <= method_tol:
                    raise MethodDisagreement(
                        "block (%d, %d): methods differ by %.3g" % (j, j, agreement[j, j])
                    )
            blocks[j, i] = orthonormal_from_monomial(b)
    except AliasError as exc:
        raise AliasError("block (%d, %d): %s" % (j, i, exc)) from None
    for j, i in itertools.combinations(range(n), 2):
        agreement[j, i] = agreement[i, j] = np.max(np.abs(blocks[i, j] - blocks[j, i].T))
        if not agreement[j, i] <= method_tol:
            raise MethodDisagreement(
                "blocks (%d, %d) and (%d, %d) are not transposes: they differ by %.3g"
                % (j, i, i, j, agreement[j, i])
            )
    if not worst_defect <= method_tol:
        raise MethodDisagreement(
            "identity recovery defect %.3g above %.3g" % (worst_defect, method_tol)
        )
    for j in range(n):
        gap = np.max(np.abs(blocks[j, j] - blocks[j, j].T))
        if not gap <= method_tol:
            raise MethodDisagreement("block (%d, %d) is not symmetric: it differs from its "
                                     "transpose by %.3g" % (j, j, gap))
    _mirror_upper(blocks)
    return GrunskyMatrix(blocks=blocks, agreement=agreement,
                         identity_defect=float(worst_defect))


def _mirror_upper(blocks):
    """Overwrite the lower triangle of the stacked matrix with the transpose
    of the upper one, in place: blocks[i, j] = blocks[j, i].T for j < i, and
    the entries below each diagonal block's diagonal."""
    n, t = blocks.shape[0], blocks.shape[2]
    below = np.tri(t, k=-1, dtype=bool)
    for j in range(n):
        np.copyto(blocks[j, j], blocks[j, j].T, where=below)
        for i in range(j + 1, n):
            blocks[i, j] = blocks[j, i].T


def operator_norm(gr, trunc=None):
    """Largest singular value of the stacked orthonormal matrix G.

    From size _LANCZOS_MIN_SIZE on it comes from Lanczos on G^H G
    (_lanczos_sigma), started from the all-ones vector so that the result
    is reproducible; it agrees with the SVD within 1e-15 relative on the
    bundled configs.  Smaller matrices, and a Lanczos run that does not
    finish (G sends the start vector to zero, or _LANCZOS_MAX_STEPS steps do
    not converge), take a dense SVD.
    """
    g = gr.full_matrix(trunc)
    if g.shape[0] >= _LANCZOS_MIN_SIZE:
        sigma = _lanczos_sigma(g)
        if sigma is not None:
            return sigma
    return float(np.linalg.svd(g, compute_uv=False)[0])


def _lanczos_sigma(g):
    """||G y|| for the top Ritz vector y of G^H G, or None when G sends the
    all-ones start vector to zero or _LANCZOS_MAX_STEPS steps do not converge.

    Each step applies G^H G as two products with G, orthogonalizes against
    the whole stored basis twice and takes the eigenpairs of the small
    tridiagonal matrix.  The top Ritz value theta has converged once its
    residual beta_k |s_k| is at most eps theta, ARPACK's test at tol = 0.
    ||G y|| is then read off y itself: it is closer to the SVD than
    sqrt(theta), which carries the rounding of every step's Rayleigh
    quotient (at most 7.7e-16 against 2.5e-15 relative on the bundled
    configs).
    """
    n = g.shape[1]
    steps = min(_LANCZOS_MAX_STEPS, n)
    basis = np.empty((steps, n), dtype=complex)
    alpha, beta = np.zeros(steps), np.zeros(steps)
    v = np.full(n, n ** -0.5, dtype=complex)
    for k in range(steps):
        basis[k] = v
        gv = g @ v
        if k == 0 and not gv.any():
            return None
        # G^H x = conj(G^T conj(x)), and x @ G is G^T x: no conjugated copy of G
        w = (gv.conj() @ g).conj()
        alpha[k] = np.vdot(v, w).real
        for _ in range(2):  # w -= V V^H w, with V^H w = conj(V conj(w))
            w -= (basis[: k + 1] @ w.conj()).conj() @ basis[: k + 1]
        beta[k] = np.linalg.norm(w)
        # eigh reads the lower triangle: the diagonal and the subdiagonal
        theta, s = np.linalg.eigh(np.diag(alpha[: k + 1]) + np.diag(beta[:k], -1))
        if beta[k] * abs(s[-1, -1]) <= np.finfo(float).eps * theta[-1]:
            y = s[:, -1] @ basis[: k + 1]
            return float(np.linalg.norm(g @ y) / np.linalg.norm(y))
        v = w / beta[k]
    return None


def norm_history(gr, truncs=None):
    """sigma_max at nested truncations, nondecreasing in the truncation.

    Each value is the largest computed at or below its truncation: the
    leading blocks at t are a submatrix of those at any larger truncation,
    whose largest singular value is at least theirs, so a dip could only be
    rounding (4e-16 relative was seen where the operator has converged).
    """
    if truncs is None:
        truncs = {max(1, gr.trunc // 4), max(1, gr.trunc // 2), gr.trunc}
    history, top = {}, 0.0
    for t in sorted(truncs):
        top = max(top, operator_norm(gr, t))
        history[t] = top
    return history


def apply_grunsky(gr, u):
    """Image v[j, n-1] of the minus halves u[i, m-1] under the block operator.

    u has shape (n, m) with m <= trunc, and its entries past m count as
    zero; v has shape (n, trunc).  Only the leading m columns of each block
    are read, in the orthonormal coordinates sqrt(pi m) u[i, m-1].
    """
    u = np.asarray(u)
    weight = np.sqrt(np.pi * np.arange(1, gr.trunc + 1))
    x = u * weight[: u.shape[-1]]
    return sum(gr.blocks[:, i, :, : u.shape[-1]] @ x[i] for i in range(gr.n)) / weight


def _stored(j, i, start, stop, trunc):
    """Which entries of rows start..stop-1 of block (j, i) the export holds:
    every one off the diagonal, and those from the diagonal on in a
    diagonal block (row n starts at column n)."""
    first = np.arange(start, stop) if j == i else np.zeros(stop - start, dtype=int)
    return np.arange(trunc) >= first[:, None]


def write_matrix(gr, fileobj, sigma_history=None):
    """Plain-text export: header, per-block method tags and the entries of
    the upper triangle.

    G is complex-symmetric and assemble stores it exactly so, so the
    header says storage = upper and only blocks (j, i) with j <= i are
    written; in a diagonal block row n starts at column n.  A block line
    carries the method= and agreement= of both blocks of its pair.  Every
    entry is written as '%.17g' would write it (textfmt.format_g17), a
    chunk of rows at a time.
    """
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
    # each row as interleaved real and imaginary parts: "re,im re,im ... re,im";
    # seps[m] follows the entry in column m, and every row ends at column trunc - 1
    seps = np.full((gr.trunc, 2), ord(" "), dtype=np.uint8)
    seps[:, 0], seps[-1, 1] = ord(","), ord("\n")
    rows_per_chunk = max(1, _CHUNK_FLOATS // seps.size)
    for j, i in itertools.combinations_with_replacement(range(gr.n), 2):
        fileobj.write("block %d %d method=%s agreement=%.3g\n"
                      % (j, i, _method_tag(j, i), gr.agreement[j, i]))
        block = np.asarray(gr.blocks[j, i], dtype=complex)
        for start in range(0, gr.trunc, rows_per_chunk):
            stop = min(start + rows_per_chunk, gr.trunc)
            stored = _stored(j, i, start, stop, gr.trunc)
            entries = block[start:stop][stored].view(float).reshape(-1, 2)
            text = format_g17(entries, np.broadcast_to(seps, stored.shape + (2,))[stored])
            fileobj.write(text.decode("ascii"))


def _header_size(header, key):
    """The positive integer under `key` in an export header."""
    if key not in header:
        raise ValueError("the header has no %s" % key)
    if not header[key].isdecimal() or int(header[key]) < 1:
        raise ValueError("header %s = %s is not a positive integer" % (key, header[key]))
    return int(header[key])


def _block_header(line, n):
    """(j, i, agreement) of a "block j i method=... agreement=..." line."""
    parts = line.split()
    try:
        j, i = int(parts[1]), int(parts[2])
        meta = dict(p.split("=", 1) for p in parts[3:])
        gap = float(meta["agreement"])
    except (IndexError, KeyError, ValueError):
        raise ValueError("malformed block header: %s" % line.strip()) from None
    if not (0 <= j < n and 0 <= i < n):
        raise ValueError("block %d %d is out of range for n = %d" % (j, i, n))
    if meta.get("method") != _method_tag(j, i):
        raise ValueError("block %d %d: method=%s, not %s"
                         % (j, i, meta.get("method"), _method_tag(j, i)))
    if not np.isfinite(gap):
        raise ValueError("block %d %d: agreement=%s is not finite"
                         % (j, i, meta["agreement"]))
    return j, i, gap


def _parse_rows(j, i, lines, start, widths):
    """The numbers on rows `lines` of block (j, i), rows start + 1, ... of
    it, which hold widths[k] numbers on line k, as one flat array."""
    try:
        values, seps = parse_g17("".join(lines).encode("ascii"))
    except ValueError as exc:
        raise ValueError("block %d %d: %s" % (j, i, exc)) from None
    row_ends = np.flatnonzero(seps == ord("\n")) + 1
    if not np.array_equal(row_ends, np.cumsum(widths)):
        counts = [len(ln.replace(",", " ").split()) for ln in lines]
        k, bad = next(((k, c) for k, c in enumerate(counts) if c != widths[k]),
                      (0, values.size))
        raise ValueError("block %d %d: row %d holds %d numbers, not %d"
                         % (j, i, start + k + 1, bad, widths[k]))
    if not np.isfinite(values).all():
        raise ValueError("block %d %d holds a non-finite entry" % (j, i))
    return values


def read_matrix(fileobj):
    """Parse a write_matrix export back into a GrunskyMatrix.

    The file is read as a stream and its entries a chunk of rows at a time
    (textfmt.parse_g17: the floats float() gives for each token).  It holds
    the upper triangle (storage = upper); the lower one is rebuilt by
    transpose, agreement included.  A file of another kind, a header
    without n or trunc or storage = upper, a block below the diagonal, and
    a block that is out of range, repeated, missing, short, has a row of
    the wrong length, has a method= tag other than its position fixes, a
    non-finite agreement= or a non-finite entry raise ValueError.
    """
    lines = iter(fileobj)
    if next(lines, "").rstrip("\n") != "faberkit.v1":
        raise ValueError("not a faberkit.v1 file")
    header = {}
    line = next(lines, None)
    while line is not None and not line.startswith("block "):
        if "=" in line:
            key, val = line.split("=", 1)
            header[key.strip()] = val.strip()
        line = next(lines, None)
    if header.get("kind") != "grunsky_matrix":
        raise ValueError("kind = %s, not grunsky_matrix" % header.get("kind", "(missing)"))
    n, trunc = _header_size(header, "n"), _header_size(header, "trunc")
    if header.get("storage") != "upper":
        raise ValueError("the header has no storage = upper")
    blocks = np.zeros((n, n, trunc, trunc), dtype=complex)
    agreement = np.full((n, n), np.nan)
    below = np.tri(n, k=-1, dtype=bool)
    seen = below.copy()  # blocks below the diagonal are not stored
    rows_per_chunk = max(1, _CHUNK_FLOATS // (2 * trunc))
    while line is not None:  # line is a block header
        j, i, agreement_ji = _block_header(line, n)
        if j > i:
            raise ValueError("block %d %d is below the diagonal, which storage = upper "
                             "does not hold" % (j, i))
        if seen[j, i]:
            raise ValueError("block %d %d appears twice" % (j, i))
        seen[j, i] = True
        agreement[j, i] = agreement_ji
        count = 0
        while count < trunc:
            chunk = list(itertools.islice(lines, min(rows_per_chunk, trunc - count)))
            if not chunk or any(ln.startswith("block ") for ln in chunk):
                break  # cut short: refused below
            stop = count + len(chunk)
            stored = _stored(j, i, count, stop, trunc)
            values = _parse_rows(j, i, chunk, count, 2 * stored.sum(axis=1))
            blocks[j, i, count:stop][stored] = values.view(complex)
            count = stop
        line = next(lines, None)
        if count != trunc or not (line is None or line.startswith("block ")):
            raise ValueError("block %d %d: the row count is not %d" % (j, i, trunc))
    if not seen.all():
        raise ValueError("block %d %d is missing" % tuple(np.argwhere(~seen)[0]))
    _mirror_upper(blocks)
    agreement[below] = agreement.T[below]
    return GrunskyMatrix(blocks=blocks, agreement=agreement,
                         identity_defect=float(header.get("identity_defect", "nan")))

"""Generalized Grunsky blocks and the assembled block operator.

Block (j, i) sends z^{-m} to the positive-frequency part of the boundary
pullback of the i-th Faber function through the j-th map:

    Gr_{ji}(z^{-m}) = positive part of [ Phi^i_m o f_j - const ],

with monomial entries b_nm defined by Gr_{ji}(z^{-m}) = sum_n b_nm z^n.
Two independent routes compute the same blocks:

* definitional: sample Phi^i_m o f_j on the unit circle |w| = 1 and read
  the coefficients off an FFT.  Validated maps are univalent on
  |w| <= 1 + ext_margin, so the samples are analytic across the circle.
  The negative frequencies must come back as exactly delta_{ij} z^{-m};
  the residual of that identity is recorded on every call and is the
  cheapest global health check of the pipeline.

* kernel series: every entry is a Taylor coefficient of a kernel analytic
  on the closed bidisk.  On the diagonal, with the divided difference
  Q(zeta, z) = (f(zeta) - f(z))/(zeta - z),

      b_nm = [zeta^{m-1} z^n] (-d_zeta Q / Q)

  (the Grunsky coefficients are those of log Q, Pommerenke 1975); it
  vanishes identically for affine maps.  Off the diagonal, with the
  cross kernel

      K_ji(zeta, z) = f_i'(zeta)/(f_i(zeta) - f_j(z)) - f_i'(zeta)/(f_i(zeta) - f_j(0)),

  b_nm = -[zeta^{m-1} z^n] K_ji.  Either kernel is sampled on the unit
  torus and its coefficients read off one 2-d FFT.

Entries in the orthonormal bases {z^{-m}/sqrt(pi m)}, {z^n/sqrt(pi n)}
are G_nm = sqrt(n/m) b_nm; operator norms are singular values of the
stacked orthonormal matrix.
"""

import numpy as np
from dataclasses import dataclass

from . import pseries
from .coeffs import CoeffSeq
from .domain import evaluate_map, map_derivative
from .errors import MethodDisagreement
from .faber import faber_series_table

DEFAULT_METHOD_TOL = 1e-6
DUAL_METHOD_MAX_TRUNC = 24


def _fft_samples(trunc):
    need = 4 * trunc + 9
    n = 1024
    while n < need:
        n *= 2
    return n


def faber_pullback_block(config, j, i, trunc, n_samples=None):
    """Definitional monomial block and its identity-recovery defect.

    Returns (b, defect) where b[n-1, m-1] is the z^n coefficient of
    Gr_{ji}(z^{-m}) and defect is the max deviation of the recovered
    negative frequencies from delta_{ij} z^{-m}.
    """
    spec_i = config.maps[i]
    n = n_samples or _fft_samples(trunc)
    table = faber_series_table(spec_i, trunc)
    zeta = evaluate_map(config.maps[j], np.exp(2j * np.pi * np.arange(n) / n))
    u = 1.0 / (zeta - spec_i.center)
    powers = u[:, None] ** np.arange(1, trunc + 1)[None, :]
    vals = powers @ table[:trunc, :trunc]  # vals[t, m-1] = Phi^i_m(f_j(w_t))
    spec = np.fft.fft(vals, axis=0) / n
    ns = np.arange(1, trunc + 1)
    pos = spec[ns, :]
    neg = spec[n - ns, :]
    expect = np.eye(trunc, dtype=complex) if i == j else np.zeros((trunc, trunc))
    defect = float(np.max(np.abs(neg - expect)))
    return pos, defect


def diagonal_block_series(spec, trunc):
    """Monomial diagonal block b[n-1, m-1] = [zeta^{m-1} z^n](-d_zeta Q / Q).

    Q[u, v] = a_{u+v+1} are the coefficients of the divided difference;
    Q and d_zeta Q are evaluated from them, so nothing cancels at zeta = z.
    """
    d = spec.degree
    Q = np.zeros((d, d), dtype=complex)
    for u in range(d):
        Q[u, : d - u] = spec.coeffs[u:]

    def kernel(w):
        V = w[:, None] ** np.arange(d)[None, :]  # V[s, u] = w_s^u
        dV = np.zeros_like(V)
        dV[:, 1:] = V[:, :-1] * np.arange(1, d)
        return -(dV @ Q @ V.T) / (V @ Q @ V.T)

    return pseries.torus_coeffs(kernel, trunc).T


def offdiagonal_block_series(config, j, i, trunc):
    """Monomial off-diagonal block b[n-1, m-1] = -[zeta^{m-1} z^n] K_ji."""
    if i == j:
        raise ValueError("cross kernel applies to off-diagonal blocks only")
    spec_i = config.maps[i]
    spec_j = config.maps[j]

    def kernel(w):
        fi = evaluate_map(spec_i, w)
        fpi = map_derivative(spec_i, w)
        fj = evaluate_map(spec_j, w)
        return fpi[:, None] / (fi[:, None] - fj[None, :]) \
            - (fpi / (fi - spec_j.center))[:, None]

    return -pseries.torus_coeffs(kernel, trunc).T


def orthonormal_from_monomial(b):
    """Rescale monomial entries to the orthonormal bases: G_nm = sqrt(n/m) b_nm."""
    n_idx = np.arange(1, b.shape[0] + 1, dtype=float)
    m_idx = np.arange(1, b.shape[1] + 1, dtype=float)
    return np.sqrt(n_idx[:, None] / m_idx[None, :]) * b


@dataclass
class GrunskyMatrix:
    """Assembled block operator in orthonormal bases.

    blocks[j][i] is the (j, i) block; method_tags and cross-method
    agreement gaps (nan when only one route ran) mirror that layout.
    identity_defect is the worst negative-frequency recovery error seen
    while building the definitional blocks.
    """

    n: int
    trunc: int
    blocks: list
    method_tags: list
    agreement: np.ndarray
    identity_defect: float

    def full_matrix(self, trunc=None):
        t = self.trunc if trunc is None else trunc
        if not (1 <= t <= self.trunc):
            raise ValueError("truncation out of range")
        out = np.zeros((self.n * t, self.n * t), dtype=complex)
        for j in range(self.n):
            for i in range(self.n):
                out[j * t : (j + 1) * t, i * t : (i + 1) * t] = self.blocks[j][i][:t, :t]
        return out

    def monomial_block(self, j, i):
        trunc = self.trunc
        n_idx = np.arange(1, trunc + 1, dtype=float)
        return np.sqrt(n_idx[None, :] / n_idx[:, None]) * self.blocks[j][i]


def assemble(config, trunc, policy="auto", method_tol=DEFAULT_METHOD_TOL):
    """Build all blocks, cross-checking methods per the policy.

    policy "definitional" runs only the sampling route; "dual" always
    cross-checks every block against the kernel series; "auto" runs dual
    checks up to truncation 24 and the sampling route alone beyond that.
    A cross-method gap above method_tol, or an identity-recovery defect
    above it, raises MethodDisagreement.
    """
    if policy not in ("auto", "dual", "definitional"):
        raise ValueError("unknown method policy: %r" % (policy,))
    dual = policy == "dual" or (policy == "auto" and trunc <= DUAL_METHOD_MAX_TRUNC)
    n = config.n
    blocks = [[None] * n for _ in range(n)]
    tags = [[None] * n for _ in range(n)]
    agreement = np.full((n, n), np.nan)
    worst_defect = 0.0
    for j in range(n):
        for i in range(n):
            b, defect = faber_pullback_block(config, j, i, trunc)
            worst_defect = max(worst_defect, defect)
            tag = "definitional"
            if dual:
                alt = (diagonal_block_series(config.maps[i], trunc) if i == j
                       else offdiagonal_block_series(config, j, i, trunc))
                tag = "definitional+kernel-series"
                gap = float(np.max(np.abs(b - alt)))
                agreement[j, i] = gap
                if gap > method_tol:
                    raise MethodDisagreement(
                        "block (%d, %d): methods differ by %.3g" % (j, i, gap)
                    )
            blocks[j][i] = orthonormal_from_monomial(b)
            tags[j][i] = tag
    if worst_defect > method_tol:
        raise MethodDisagreement(
            "identity recovery defect %.3g above %.3g" % (worst_defect, method_tol)
        )
    return GrunskyMatrix(n=n, trunc=trunc, blocks=blocks, method_tags=tags,
                         agreement=agreement, identity_defect=worst_defect)


def operator_norm(gr, trunc=None):
    """Largest singular value of the stacked orthonormal matrix."""
    return float(np.linalg.svd(gr.full_matrix(trunc), compute_uv=False)[0])


def norm_history(gr, truncs=None):
    """sigma_max at nested truncations (nondecreasing in the truncation)."""
    if truncs is None:
        truncs = sorted({max(1, gr.trunc // 4), max(1, gr.trunc // 2), gr.trunc})
    return {t: operator_norm(gr, t) for t in truncs}


def block_column_norms(gr, j, i):
    """Orthonormal column norms of one block: sqrt(sum_n (n/m) |b_nm|^2)."""
    return np.linalg.norm(gr.blocks[j][i], axis=0)


def apply_grunsky(gr, H_list):
    """Apply the block operator to a tuple of negative sequences.

    Returns one CoeffSeq (positive half) per boundary; input sequences are
    truncated or zero-padded to the matrix truncation.
    """
    t = gr.trunc
    u = np.zeros(gr.n * t, dtype=complex)
    for i, H in enumerate(H_list):
        m = np.arange(1, min(t, H.neg.size) + 1)
        u[i * t : i * t + m.size] = H.neg[: m.size] * np.sqrt(np.pi * m)
    v = gr.full_matrix() @ u
    out = []
    ns = np.arange(1, t + 1)
    for j in range(gr.n):
        coeffs = v[j * t : (j + 1) * t] / np.sqrt(np.pi * ns)
        out.append(CoeffSeq(neg=np.zeros(0), pos=coeffs, const=0j))
    return out


def write_matrix(gr, fileobj, sigma_history=None):
    """Plain-text export: header, per-block method tags and dense entries."""
    fileobj.write("faberkit.v1\n")
    fileobj.write("kind = grunsky_matrix\n")
    fileobj.write("n = %d\n" % gr.n)
    fileobj.write("trunc = %d\n" % gr.trunc)
    history = sigma_history or norm_history(gr)
    sigma = history[gr.trunc] if gr.trunc in history else operator_norm(gr)
    fileobj.write("sigma_max = %.17g\n" % sigma)
    for t in sorted(history):
        fileobj.write("sigma_max[%d] = %.17g\n" % (t, history[t]))
    fileobj.write("identity_defect = %.3g\n" % gr.identity_defect)
    row_fmt = " ".join(["%.17g,%.17g"] * gr.trunc) + "\n"
    for j in range(gr.n):
        for i in range(gr.n):
            gap = gr.agreement[j, i]
            gap_txt = "nan" if np.isnan(gap) else "%.3g" % gap
            fileobj.write("block %d %d method=%s agreement=%s\n"
                          % (j, i, gr.method_tags[j][i], gap_txt))
            # each row as interleaved real and imaginary parts
            for row in np.ascontiguousarray(gr.blocks[j][i], dtype=complex).view(float):
                fileobj.write(row_fmt % tuple(row))


def read_matrix(fileobj):
    """Parse a write_matrix export back into a GrunskyMatrix."""
    lines = [ln.rstrip("\n") for ln in fileobj]
    if not lines or lines[0] != "faberkit.v1":
        raise ValueError("not a faberkit.v1 file")
    header = {}
    pos = 1
    while pos < len(lines) and not lines[pos].startswith("block "):
        if "=" in lines[pos]:
            key, val = lines[pos].split("=", 1)
            header[key.strip()] = val.strip()
        pos += 1
    n = int(header["n"])
    trunc = int(header["trunc"])
    blocks = [[None] * n for _ in range(n)]
    tags = [[None] * n for _ in range(n)]
    agreement = np.full((n, n), np.nan)
    while pos < len(lines):
        parts = lines[pos].split()
        if not parts or parts[0] != "block":
            pos += 1
            continue
        j, i = int(parts[1]), int(parts[2])
        meta = dict(p.split("=", 1) for p in parts[3:])
        tags[j][i] = meta.get("method", "")
        if meta.get("agreement", "nan") != "nan":
            agreement[j, i] = float(meta["agreement"])
        # one row at a time: the split strings of a whole block would take
        # several times the memory of the block itself
        rows = [np.array(ln.replace(",", " ").split(), dtype=float)
                for ln in lines[pos + 1 : pos + 1 + trunc]]
        blocks[j][i] = np.array(rows).view(complex)
        pos += 1 + trunc
    return GrunskyMatrix(n=n, trunc=trunc, blocks=blocks, method_tags=tags,
                         agreement=agreement,
                         identity_defect=float(header.get("identity_defect", "nan")))

"""Block coefficient operator: two construction routes, norms, and export."""

import warnings

import numpy as np
import pytest

from faberkit import (
    AliasWarning,
    CoeffSeq,
    ConformalMapSpec,
    GrunskyMatrix,
    MethodDisagreement,
    MultiDomainConfig,
    apply_grunsky,
    assemble,
    block_column_norms,
    diagonal_block_series,
    faber_pullback_block,
    norm_history,
    offdiagonal_block_series,
    operator_norm,
    orthonormal_from_monomial,
    read_matrix,
    write_matrix,
)


def test_two_disk_closed_form_entries(config_a):
    # pullback of 1/(z+2)^m through w -> 2 + w is 1/(w+4)^m, a binomial series:
    # column m=1 is (-1/16, 1/64, -1/256, ...), column m=2 is (-1/32, 3/256, ...)
    b, defect = faber_pullback_block(config_a, 1, 0, 3)
    assert defect < 1e-14
    np.testing.assert_allclose(b[:2, 0], [-1 / 16, 1 / 64], atol=1e-12)
    np.testing.assert_allclose(b[:2, 1], [-1 / 32, 3 / 256], atol=1e-12)
    b2, _ = faber_pullback_block(config_a, 0, 1, 3)
    np.testing.assert_allclose(b2[:2, 0], [-1 / 16, -1 / 64], atol=1e-12)


def test_identity_recovery_diagonal(config_b):
    # negative frequencies of the pullback must reproduce w^{-m} exactly
    for j in range(2):
        _, defect = faber_pullback_block(config_b, j, j, 16)
        assert defect < 1e-12


def test_identity_recovery_offdiagonal(config_b):
    # cross-region pullbacks have no negative frequencies at all
    _, defect = faber_pullback_block(config_b, 0, 1, 16)
    assert defect < 1e-12
    _, defect = faber_pullback_block(config_b, 1, 0, 16)
    assert defect < 1e-12


def test_affine_diagonal_vanishes(config_a):
    # a disk map has no diagonal distortion: both routes must return zero
    b, _ = faber_pullback_block(config_a, 0, 0, 12)
    np.testing.assert_allclose(b, 0, atol=1e-13)
    k = diagonal_block_series(config_a.maps[0], 12)
    np.testing.assert_allclose(k, 0, atol=0)


def test_affine_diagonal_vanishes_at_trunc_256(config_c):
    # sampled on the unit circle the definitional block stays at rounding level
    b, _ = faber_pullback_block(config_c, 0, 0, 256)
    np.testing.assert_allclose(b, 0, atol=1e-12)


def test_kernel_series_matches_definitional(single_poly):
    b_fft, _ = faber_pullback_block(single_poly, 0, 0, 12)
    b_ker = diagonal_block_series(single_poly.maps[0], 12)
    np.testing.assert_allclose(b_ker, b_fft, atol=1e-12)


def test_kernel_series_matches_definitional_at_trunc_96(config_b):
    b_fft, _ = faber_pullback_block(config_b, 0, 0, 96)
    b_ker = diagonal_block_series(config_b.maps[0], 96)
    np.testing.assert_allclose(b_ker, b_fft, atol=1e-10)


@pytest.mark.parametrize("name, trunc", [("config_b", 8), ("config_c", 256)],
                         ids=["B-T8", "C-T256"])
def test_offdiagonal_series_matches_definitional(request, name, trunc):
    cfg = request.getfixturevalue(name)
    for j in range(cfg.n):
        for i in range(cfg.n):
            if i != j:
                b_fft, _ = faber_pullback_block(cfg, j, i, trunc)
                b_ker = offdiagonal_block_series(cfg, j, i, trunc)
                np.testing.assert_allclose(b_ker, b_fft, atol=1e-12)


def test_kernel_series_alias_warning():
    # f(w) = w + 0.5 w^2 has its critical point at w = -1, on the torus
    with pytest.warns(AliasWarning):
        diagonal_block_series(ConformalMapSpec(center=0.0, coeffs=(1.0, 0.5)), 16)


CLOSE_MAPS = {
    # disks 0.3 apart: the cross kernel's coefficients fall off like 1/1.3^n
    "disks-1.15": ((-1.15, (1.0,)), (1.15, (1.0,))),
    # critical point at radius 1.11
    "quad-0.45": ((-3.0, (1.0, 0.45)), (3.0, (1.0,))),
    # margin curves 0.003 apart: the unit torus lies close to the kernel's pole
    "touching": ((-1.0515, (1.0,)), (1.0515, (1.0,))),
}


@pytest.mark.parametrize("name", sorted(CLOSE_MAPS))
def test_assemble_dual_on_close_configs(name):
    cfg = MultiDomainConfig(maps=[ConformalMapSpec(center=c, coeffs=a)
                                  for c, a in CLOSE_MAPS[name]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", AliasWarning)
        gr = assemble(cfg, 16, policy="dual")
    assert np.nanmax(gr.agreement) <= 1e-12


def test_assemble_dual_agreement(config_b):
    gr = assemble(config_b, 8, policy="dual")
    assert np.nanmax(gr.agreement) < 1e-10
    assert gr.identity_defect < 1e-10
    tags = {tag for row in gr.method_tags for tag in row}
    assert tags == {"definitional+kernel-series"}


@pytest.mark.parametrize("name", ["config_b", "config_c"])
def test_assemble_dual_at_trunc_64(request, name):
    cfg = request.getfixturevalue(name)
    gr = assemble(cfg, 64, policy="dual")
    assert np.max(gr.agreement) <= 1e-12


def test_assemble_rejects_impossible_tolerance(config_b):
    with pytest.raises(MethodDisagreement):
        assemble(config_b, 8, policy="dual", method_tol=1e-20)


def test_operator_norm_single_mode(config_a):
    gr = assemble(config_a, 1, policy="definitional")
    np.testing.assert_allclose(operator_norm(gr), 1 / 16, atol=1e-12)


def test_operator_norm_regression(config_b):
    # frozen from a definitional run at truncation 16
    gr = assemble(config_b, 16, policy="definitional")
    np.testing.assert_allclose(operator_norm(gr), 0.063262746546758009, atol=1e-9)


def test_norm_history_nondecreasing(config_b):
    gr = assemble(config_b, 32, policy="definitional")
    hist = norm_history(gr)
    ms = sorted(hist)
    vals = [hist[m] for m in ms]
    assert ms == [8, 16, 32]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12
    assert vals[-1] < 1.0


def test_block_column_norms_bounded(config_b):
    gr = assemble(config_b, 16, policy="definitional")
    for j in range(2):
        for i in range(2):
            assert np.all(block_column_norms(gr, j, i) < 1.0)


def test_stacked_matrix_is_symmetric(config_b, config_c):
    # observed across all fixtures at machine precision; complex symmetry,
    # not Hermitian symmetry
    for cfg in (config_b, config_c):
        g = assemble(cfg, 10, policy="definitional").full_matrix()
        np.testing.assert_allclose(g, g.T, atol=1e-10)


def test_orthonormal_rescale():
    b = np.arange(1, 7, dtype=complex).reshape(2, 3)
    g = orthonormal_from_monomial(b)
    for n in range(2):
        for m in range(3):
            np.testing.assert_allclose(g[n, m],
                                       b[n, m] * np.sqrt((n + 1) / (m + 1)))


def test_apply_grunsky_matches_matrix(config_b):
    gr = assemble(config_b, 8, policy="definitional")
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
    seqs = [CoeffSeq(neg=c, pos=np.zeros(0, complex), const=0j) for c in coeffs]
    out = apply_grunsky(gr, seqs)
    # orthonormal coordinates: u_m = a_m sqrt(pi m), v_n = out_n sqrt(pi n)
    m = np.arange(1, 9)
    u = (coeffs * np.sqrt(np.pi * m)).reshape(-1)
    v = gr.full_matrix() @ u
    expect = v.reshape(2, 8) / np.sqrt(np.pi * m)
    for j in range(2):
        np.testing.assert_allclose(out[j].pos, expect[j], atol=1e-12)
        assert out[j].neg.size == 0


def test_write_read_round_trip(tmp_path, config_b):
    gr = assemble(config_b, 8, policy="dual")
    path = tmp_path / "m.txt"
    with open(path, "w") as fh:
        write_matrix(gr, fh)
    with open(path) as fh:
        back = read_matrix(fh)
    assert isinstance(back, GrunskyMatrix)
    assert back.n == gr.n and back.trunc == gr.trunc
    assert back.method_tags == gr.method_tags
    for j in range(2):
        for i in range(2):
            np.testing.assert_array_equal(back.blocks[j][i], gr.blocks[j][i])
    # rows keep the entry-by-entry format "re,im re,im ..."
    lines = path.read_text().splitlines()
    first = lines.index("block 0 0 method=%s agreement=%.3g"
                        % (gr.method_tags[0][0], gr.agreement[0, 0])) + 1
    for row, line in zip(gr.blocks[0][0], lines[first:first + gr.trunc]):
        assert line == " ".join("%.17g,%.17g" % (c.real, c.imag) for c in row)


def test_affine_three_region_norm(config_c):
    # frozen from a definitional run at truncation 32
    gr = assemble(config_c, 32, policy="definitional")
    np.testing.assert_allclose(operator_norm(gr), 0.054949527364047762, atol=1e-9)

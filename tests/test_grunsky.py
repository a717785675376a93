"""Block coefficient operator: two construction routes, norms, and export."""

import functools
import io
import pathlib
import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faberkit import (
    AliasError,
    ConformalMapSpec,
    GrunskyMatrix,
    MethodDisagreement,
    MultiDomainConfig,
    apply_grunsky,
    assemble,
    diagonal_block_series,
    evaluate_map,
    faber_pullback_block,
    grunsky,
    norm_history,
    operator_norm,
    orthonormal_from_monomial,
    read_matrix,
    validate_config,
    write_matrix,
)
from faberkit.cli import load_config_file
from oracles import (
    disk_block,
    offdiagonal_block_series,
    quadratic_diagonal_block,
    two_disk_modulus,
)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


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


def test_offdiagonal_pullback_block_holds_no_whole_spectrum(config_c):
    # at T = 256 the 2048 x 256 samples take 8 MiB; the extractor reads
    # their spectrum a block of columns at a time, so the whole spectrum
    # (8 MiB) and its modulus (4 MiB), which would lift the traced peak to
    # 22 MiB, are never held.  A first call fills the caches
    faber_pullback_block(config_c, 0, 1, 256)
    tracemalloc.start()
    try:
        faber_pullback_block(config_c, 0, 1, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 << 20


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
                if all(spec.degree == 1 for spec in cfg.maps):
                    exact = _exact_disk_block(cfg, j, i, trunc)
                    assert np.max(np.abs(orthonormal_from_monomial(b_fft) - exact)) <= 1e-13


def _exact_disk_block(cfg, j, i, trunc):
    """disk_block for block (j, i) of an all-disk config; 0 on the diagonal."""
    if i == j:
        return np.zeros((trunc, trunc))
    spec_i, spec_j = cfg.maps[i], cfg.maps[j]
    return disk_block(spec_i.center, spec_i.coeffs[0], spec_j.center, spec_j.coeffs[0], trunc)


def _disk_block_gap(cfg, trunc):
    """max |G_ji - exact| over all assembled blocks of an all-disk config."""
    gr = assemble(cfg, trunc)
    return max(float(np.max(np.abs(gr.blocks[j, i] - _exact_disk_block(cfg, j, i, trunc))))
               for j, i in np.ndindex(cfg.n, cfg.n))


@pytest.mark.parametrize("n_disks, trunc", [(2, 64), (3, 64), (5, 32), (8, 32), (12, 32)])
def test_disk_blocks_match_closed_form(n_disks, trunc):
    # disks of radii 0.5-1, each turned by a random rotation, on a ring at
    # least 0.5 apart
    rng = np.random.default_rng(n_disks)
    ring = 1.25 / np.sin(np.pi / n_disks)
    phase = 2 * np.pi * (np.arange(n_disks) / n_disks + rng.random())
    radii = rng.uniform(0.5, 1.0, n_disks) * np.exp(2j * np.pi * rng.random(n_disks))
    cfg = MultiDomainConfig(maps=tuple(ConformalMapSpec(center=ring * np.exp(1j * t), coeffs=(r,))
                                       for t, r in zip(phase, radii)))
    assert _disk_block_gap(cfg, trunc) <= 1e-13


@pytest.mark.parametrize("trunc", [64, 128, 256])
def test_near_contact_disk_blocks_match_closed_form(trunc):
    # unit disks 3e-4 apart: the entries decay slowly, and at T = 256 the
    # last one is still 0.016 against the largest, 0.25
    cfg = MultiDomainConfig(maps=(ConformalMapSpec(center=-1.00015, coeffs=(1.0,)),
                                  ConformalMapSpec(center=1.00015, coeffs=(1.0,))))
    assert _disk_block_gap(cfg, trunc) <= 1e-13


def test_kernel_series_alias_refusal():
    # f(w) = w + 0.99 w^2 is not univalent on the closed disk: q_0(zeta) =
    # 1 + 0.99 zeta vanishes at |zeta| = 1.0101.  The zeta-coefficients of
    # the kernel decay like 0.99^m from a peak near m = 1600 that the
    # samples put at 8e33, so the extraction resolves at N = 16384 relative
    # to that peak, yet its rounding swamps the kept entries (at most 2.2e8
    # in closed form); the dual check of assemble refuses the block.  At
    # 0.9999 the decay is too slow for the budget
    spec = ConformalMapSpec(center=0.0, coeffs=(1.0, 0.99))
    kernel = orthonormal_from_monomial(diagonal_block_series(spec, 16))
    exact = quadratic_diagonal_block(1.0, 0.99, 16)
    assert np.max(np.abs(exact)) < 3e8 < 1e15 < np.max(np.abs(kernel - exact))
    with pytest.raises(MethodDisagreement, match=r"^block \(0, 0\): methods differ"):
        assemble(MultiDomainConfig(maps=(spec,)), 16)
    with pytest.raises(AliasError, match="^N = 131072: folded alias estimate"):
        diagonal_block_series(ConformalMapSpec(center=0.0, coeffs=(1.0, 0.9999)), 16)


@functools.lru_cache(maxsize=None)
def _quadratic_block(t):
    return quadratic_diagonal_block(1.0, t, 256)


@pytest.mark.parametrize("trunc", [16, 64, 256])
@pytest.mark.parametrize("t", [0.1, 0.45, 0.495, 0.499, 0.4999, 0.499j, 0.5])
def test_diagonal_block_matches_quadratic_closed_form(t, trunc):
    # f(w) = w + t w^2 up to its critical point on the circle (t = 0.5): the
    # kernel route divides by q_0(zeta) = 1 + t zeta, which keeps clear of 0
    # on |zeta| = 1 for every such t, where the torus kernel came within
    # 1 - 2|t| of its singularity (5.4e-4 off at t = 0.499, T = 16).  The
    # definitional route needs an admissible map, t < 0.5
    spec = ConformalMapSpec(center=0.0, coeffs=(1.0, t))
    exact = _quadratic_block(t)[:trunc, :trunc]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = orthonormal_from_monomial(diagonal_block_series(spec, trunc))
        assert np.max(np.abs(kernel - exact)) <= 1e-13
        if abs(t) < 0.5:
            b, _ = faber_pullback_block(MultiDomainConfig(maps=(spec,)), 0, 0, trunc)
            assert np.max(np.abs(orthonormal_from_monomial(b) - exact)) <= 1e-13


def _rounded_square(r=0.98):
    """Coefficients of f_r(w) = (1/r) int_0^{rw} (1 - t^4)^{-1/2} dt at degree 257.

    c_{4j+1} = C(2j, j) 4^{-j} r^{4j} / (4j + 1): a curve near a square.
    """
    a = np.zeros(257)
    for j in range(65):
        a[4 * j] = comb(2 * j, j) * 4.0 ** -j * r ** (4 * j) / (4 * j + 1)
    return tuple(a)


def test_kernel_series_at_degree_257():
    # the q_v have degree up to 256 in zeta: the extraction starts from
    # max(trunc, degree) coefficients, N = 2048, not from trunc = 16 alone
    spec = ConformalMapSpec(center=0.0, coeffs=_rounded_square())
    kernel = diagonal_block_series(spec, 16)
    b, _ = faber_pullback_block(MultiDomainConfig(maps=(spec,), ext_margin=0.01), 0, 0, 16)
    assert np.max(np.abs(kernel - b)) <= 1e-13


def test_pullback_block_identity_defect_refusal(monkeypatch):
    # f(w) = w + 0.9 w^2 is not univalent on the unit disk (f' vanishes at
    # w = -1/1.8): f(-1) has a second preimage at -1/9, so Phi_32 o f
    # reaches 9^32 on the circle.  The extraction resolves at N = 2048
    # relative to that scale, but its rounding leaves an identity defect of
    # 1e14, which assemble refuses.  The kernel series refuses the block
    # first (its gap is 6e14); given the block itself, it leaves the
    # identity check to refuse
    cfg = MultiDomainConfig(maps=[ConformalMapSpec(center=0.0, coeffs=(1.0, 0.9))])
    b, defect = faber_pullback_block(cfg, 0, 0, 32)
    assert np.all(np.isfinite(b)) and defect > 1e13
    with pytest.raises(MethodDisagreement, match=r"^block \(0, 0\): methods differ"):
        assemble(cfg, 32)
    monkeypatch.setattr(grunsky, "diagonal_block_series", lambda spec, trunc: b)
    with pytest.raises(MethodDisagreement, match="^identity recovery defect"):
        assemble(cfg, 32)


CLOSE_MAPS = {
    # disks 0.3 apart: the off-diagonal coefficients fall off like 1/1.3^n
    "disks-1.15": ((-1.15, (1.0,)), (1.15, (1.0,))),
    # critical point at radius 1.11
    "quad-0.45": ((-3.0, (1.0, 0.45)), (3.0, (1.0,))),
    # margin curves 0.003 apart
    "touching": ((-1.0515, (1.0,)), (1.0515, (1.0,))),
    # disks 0.01 apart: the off-diagonal torus route hit its cap here and
    # warned of an aliasing floor 1.3e-6
    "gap-0.01": ((-1.005, (1.0,)), (1.005, (1.0,))),
}


@pytest.mark.parametrize("name, trunc", [
    pytest.param(name, trunc, id=name if trunc == 16 else "%s-T%d" % (name, trunc))
    for trunc in (16, 64) for name in sorted(CLOSE_MAPS)])
def test_assemble_dual_on_close_configs(name, trunc):
    cfg = MultiDomainConfig(maps=[ConformalMapSpec(center=c, coeffs=a)
                                  for c, a in CLOSE_MAPS[name]])
    gr = assemble(cfg, trunc)
    assert np.nanmax(gr.agreement) <= 1e-12


def test_rounded_square_assembles_without_alias_warning_at_trunc_128():
    # at T = 128 the pullbacks of a rounded square need N = 2048, past the
    # start of 1024
    cfg = MultiDomainConfig(maps=[ConformalMapSpec(center=c, coeffs=_rounded_square())
                                  for c in (-1.6, 1.6)], ext_margin=0.01)
    gr = assemble(cfg, 128)
    assert gr.identity_defect < 1e-12


def test_assemble_dual_agreement(config_b):
    gr = assemble(config_b, 8)
    assert np.nanmax(gr.agreement) < 1e-10
    assert gr.identity_defect < 1e-10
    assert gr.method_tags == [["definitional+kernel-series", "definitional+symmetry"],
                              ["definitional+symmetry", "definitional+kernel-series"]]


@pytest.mark.parametrize("name", ["config_b", "config_c"])
def test_assemble_dual_at_trunc_64(request, name):
    cfg = request.getfixturevalue(name)
    gr = assemble(cfg, 64)
    assert np.max(gr.agreement) <= 1e-12


@pytest.mark.parametrize("trunc", [32, 64])
def test_default_assemble_checks_every_block(config_b, trunc):
    # assemble cross-checks at every truncation, not only up to 24
    gr = assemble(config_b, trunc)
    assert np.all(np.isfinite(gr.agreement))
    assert {tag for row in gr.method_tags for tag in row} == {"definitional+kernel-series",
                                                              "definitional+symmetry"}


def test_assemble_ignores_the_policy_keyword(config_b):
    # the keyword changes nothing: the diagonal kernel series runs and its
    # gap is recorded
    ours, plain = assemble(config_b, 16, policy="definitional"), assemble(config_b, 16)
    np.testing.assert_array_equal(ours.blocks.view(np.uint64), plain.blocks.view(np.uint64))
    np.testing.assert_array_equal(ours.agreement, plain.agreement)
    assert ours.identity_defect == plain.identity_defect
    assert np.isfinite(np.diag(ours.agreement)).all()


def test_assemble_rejects_impossible_tolerance(config_b):
    with pytest.raises(MethodDisagreement):
        assemble(config_b, 8, method_tol=1e-20)


def test_assemble_refuses_non_finite_blocks():
    # the second disk sits inside the first: its pullbacks are NaN, which
    # used to pass every "gap > tol" and "defect > tol" test
    nested = MultiDomainConfig(maps=(ConformalMapSpec(center=0.0, coeffs=(1.0,)),
                                     ConformalMapSpec(center=1.0, coeffs=(0.5,))))
    # the extractor names the cause, and assemble the block
    match = r"^block \(0, 1\): samples are not finite at N = 128$"
    # and the sampler's division by zero no longer warns on the way
    with pytest.raises(AliasError, match=match), warnings.catch_warnings():
        warnings.simplefilter("error")
        assemble(nested, 8)


def test_operator_norm_single_mode(config_a):
    gr = assemble(config_a, 1)
    np.testing.assert_allclose(operator_norm(gr), 1 / 16, atol=1e-12)


def test_operator_norm_regression(config_b):
    # frozen from a definitional run at truncation 16
    gr = assemble(config_b, 16)
    np.testing.assert_allclose(operator_norm(gr), 0.063262746546758009, atol=1e-9)


@functools.lru_cache(maxsize=None)
def _bundled_at_256(name):
    return assemble(load_config_file(CONFIGS / (name + ".json")), 256)


@pytest.mark.parametrize("name", ["perturbed_pair", "three_disks", "two_disks"])
def test_lanczos_matches_the_svd_on_bundled_configs(name):
    gr = _bundled_at_256(name)
    truncs = (1, 3, 16, 64, 128, 256)
    sizes = [gr.n * t for t in truncs]  # 2 to 768, on both sides of the crossover
    assert min(sizes) < grunsky._LANCZOS_MIN_SIZE <= max(sizes)
    for t in truncs:
        svd = np.linalg.svd(gr.full_matrix(t), compute_uv=False)[0]
        assert abs(operator_norm(gr, t) - svd) <= 1e-14 * svd


def test_lanczos_runs_from_the_crossover_on(config_c, monkeypatch):
    gr = assemble(config_c, 32)
    svd, sizes = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for t in (31, 32):  # nT = 93 and 96
        operator_norm(gr, t)
    assert sizes == [93]


@pytest.mark.parametrize("trunc", [1, 2, 64])
def test_operator_norm_is_quiet_and_reproducible(single_poly, config_b, trunc):
    # nT <= 2 takes the SVD and nT = 128 Lanczos, from the all-ones vector:
    # neither warns, and a second call gives the same bits
    for cfg in (single_poly, config_b):
        gr = assemble(cfg, trunc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first, second = operator_norm(gr), operator_norm(gr)
        assert first == second


@pytest.mark.parametrize("case", ["zero-operator", "start-in-null-space", "step-cap"])
def test_operator_norm_falls_back_to_the_svd(config_c, monkeypatch, case):
    if case == "zero-operator":
        # read_matrix accepts such a file
        gr = GrunskyMatrix(blocks=np.zeros((1, 1, 128, 128), dtype=complex),
                           agreement=np.zeros((1, 1)), identity_defect=0.0)
    elif case == "start-in-null-space":
        # outer(x, x) with x = (+1, -1, ...): G sends the all-ones start
        # vector to zero, yet sigma = |x|^2 = 128
        x = np.where(np.arange(128) % 2, -1.0, 1.0)
        gr = GrunskyMatrix(blocks=np.outer(x, x).astype(complex)[None, None],
                           agreement=np.zeros((1, 1)), identity_defect=0.0)
        assert abs(operator_norm(gr) - 128) <= 1e-12
    else:
        # two steps are too few to converge on config C at nT = 192
        gr = assemble(config_c, 64)
        monkeypatch.setattr(grunsky, "_LANCZOS_MAX_STEPS", 2)
    assert operator_norm(gr) == np.linalg.svd(gr.full_matrix(), compute_uv=False)[0]


def test_norm_history_nondecreasing(config_b):
    gr = assemble(config_b, 32)
    hist = norm_history(gr)
    ms = sorted(hist)
    vals = [hist[m] for m in ms]
    assert ms == [8, 16, 32]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12
    assert vals[-1] < 1.0


def test_stacked_matrix_is_symmetric(config_b, config_c):
    # observed across all fixtures at machine precision; complex symmetry,
    # not Hermitian symmetry
    for cfg in (config_b, config_c):
        g = assemble(cfg, 10).full_matrix()
        np.testing.assert_allclose(g, g.T, atol=1e-10)


angle = st.floats(0.0, 2 * np.pi)


@st.composite
def admissible_configs(draw):
    """2-4 maps of degree 1-4 with complex coefficients, admissible by construction.

    sum_{k>=2} k |a_k| r^(k-1) < |a_1| at r = 1.1 keeps Re f'/a_1 > 0 on
    |w| < 1.1, so each map is univalent there (Noshiro-Warschawski).  Map k
    reaches at most R_k = sum |a_k| 1.05^k from its center on |w| <= 1.05,
    and consecutive centers along a line sit R_k + R_{k+1} + 0.2 to 2 apart.
    """
    maps, position, reach = [], 0.0, None
    direction = np.exp(1j * draw(angle))
    for _ in range(draw(st.integers(2, 4))):
        a1 = draw(st.floats(0.5, 1.5)) * np.exp(1j * draw(angle))
        degree = draw(st.integers(1, 4))
        shares = [draw(st.floats(0.1, 1.0)) for _ in range(2, degree + 1)]
        budget = draw(st.floats(0.2, 0.95)) * abs(a1) / max(sum(shares), 1.0)
        coeffs = [a1] + [budget * share / (k * 1.1 ** (k - 1)) * np.exp(1j * draw(angle))
                         for k, share in enumerate(shares, start=2)]
        new_reach = sum(abs(a) * 1.05 ** k for k, a in enumerate(coeffs, start=1))
        if reach is not None:
            position += reach + new_reach + draw(st.floats(0.2, 2.0))
        reach = new_reach
        maps.append(ConformalMapSpec(center=position * direction, coeffs=tuple(coeffs)))
    return MultiDomainConfig(maps=tuple(maps))


@settings(max_examples=20, deadline=None)
@given(cfg=admissible_configs(), trunc=st.sampled_from([32, 128]))
def test_assembled_operator_is_complex_symmetric(cfg, trunc):
    # G = G^T: every block's entries are -sqrt(nm) [zeta^m z^n] of
    # log(f_i(zeta) - f_j(z)) (log Q on the diagonal), symmetric in the two
    # boundaries; measured at most 7.7e-16 over such configs
    assert validate_config(cfg).passed
    g = assemble(cfg, trunc).full_matrix()
    assert np.max(np.abs(g - g.T)) <= 1e-14


def test_symmetry_gap_is_the_agreement_of_both_offdiagonal_blocks(config_c):
    # the gap is that of the blocks as sampled; the blocks returned keep the
    # upper one of each pair and its exact transpose
    gr = assemble(config_c, 16)
    sampled = [[orthonormal_from_monomial(faber_pullback_block(config_c, j, i, 16)[0])
                for i in range(3)] for j in range(3)]
    for j in range(3):
        for i in range(3):
            if i != j:
                gap = np.max(np.abs(sampled[j][i] - sampled[i][j].T))
                assert gr.agreement[j, i] == gap
                assert gr.method_tags[j][i] == "definitional+symmetry"
                upper = sampled[min(j, i)][max(j, i)]
                np.testing.assert_array_equal(gr.blocks[j, i], upper if j < i else upper.T)
    assert np.isfinite(np.diag(gr.agreement)).all()


# Each mutation below breaks off-diagonal blocks and must be caught by the
# symmetry check, which names both blocks of a pair.
A_PAIR = r"blocks \((\d), (\d)\) and \(\2, \1\)"


def test_symmetry_catches_a_transposed_weight(config_b, monkeypatch):
    # sqrt(m/n) in place of sqrt(n/m) scales G_ji by m/n and G_ij^T by n/m
    def swapped(b):
        n_idx = np.arange(1, b.shape[0] + 1, dtype=float)
        return np.sqrt(n_idx[None, :] / n_idx[:, None]) * b

    monkeypatch.setattr(grunsky, "orthonormal_from_monomial", swapped)
    with pytest.raises(MethodDisagreement, match=A_PAIR):
        assemble(config_b, 8, method_tol=1e-12)


def test_symmetry_catches_perturbed_offdiagonal_samples(config_c, monkeypatch):
    # f_j's samples scaled by 1 + 1e-10 inside the off-diagonal pullbacks
    # only: the samples stay analytic, so the identity defect stays at
    # rounding level (1e-15), while the symmetry gap rises to 6.3e-12
    pullback = grunsky.faber_pullback_block

    def perturbed(config, j, i, trunc, n_samples=None):
        if i == j:
            return pullback(config, j, i, trunc)
        with monkeypatch.context() as patch:
            patch.setattr(grunsky, "evaluate_map",
                          lambda spec, w: evaluate_map(spec, w) * (1 + 1e-10))
            return pullback(config, j, i, trunc)

    monkeypatch.setattr(grunsky, "faber_pullback_block", perturbed)
    with pytest.raises(MethodDisagreement, match=A_PAIR):
        assemble(config_c, 8, method_tol=1e-12)


def test_symmetry_catches_an_extractor_pinned_too_small(config_b, monkeypatch):
    # block (0, 1) read off N = 2T + 2 samples, a plain FFT: its kept
    # coefficients alias those of index N + n, a symmetry gap of 3.4e-10
    pullback = grunsky.faber_pullback_block

    def pinned_fft(fn, trunc):
        n = 2 * trunc + 2
        spec = np.fft.fft(fn(np.exp(2j * np.pi * np.arange(n) / n)), axis=0) / n
        ns = np.arange(1, trunc + 1)
        return spec[n - ns], spec[ns]

    def pinned(config, j, i, trunc, n_samples=None):
        if (j, i) != (0, 1):
            return pullback(config, j, i, trunc)
        with monkeypatch.context() as patch:
            patch.setattr(grunsky, "sample_to_coeffs", pinned_fft)
            return pullback(config, j, i, trunc)

    monkeypatch.setattr(grunsky, "faber_pullback_block", pinned)
    with pytest.raises(MethodDisagreement, match=A_PAIR):
        assemble(config_b, 8, method_tol=1e-12)


def test_kernel_catches_a_symmetric_perturbation_of_a_diagonal_block(config_b, monkeypatch):
    # 1e-10 added to every orthonormal entry of block (0, 0), through its
    # positive half only: the block stays complex-symmetric and the negative
    # half, hence the identity defect, is untouched, so only the kernel
    # series sees it
    pullback = grunsky.faber_pullback_block
    clean, clean_defect = pullback(config_b, 0, 0, 8)

    def perturbed(config, j, i, trunc, n_samples=None):
        b, defect = pullback(config, j, i, trunc)
        if (j, i) == (0, 0):
            b = b + 1e-10 * orthonormal_from_monomial(np.ones(b.shape)).T  # sqrt(m/n)
        return b, defect

    b, defect = perturbed(config_b, 0, 0, 8)
    g = orthonormal_from_monomial(b)
    np.testing.assert_allclose(g - orthonormal_from_monomial(clean), 1e-10, rtol=1e-5, atol=0)
    assert defect == clean_defect
    assert np.max(np.abs(g - g.T)) <= 1e-15
    monkeypatch.setattr(grunsky, "faber_pullback_block", perturbed)
    with pytest.raises(MethodDisagreement, match=r"block \(0, 0\): methods differ"):
        assemble(config_b, 8, method_tol=1e-12)


@pytest.mark.parametrize("shift", [1e-10, np.nan])
def test_assemble_refuses_an_asymmetric_diagonal_block(config_b, monkeypatch, shift):
    # the entries below the diagonal of block (0, 0) shifted through its
    # positive half only: the identity defect is untouched.  At 1e-10 the
    # kernel series is shifted alike, so only the self-symmetry check sees
    # it, before the upper triangle would overwrite the shifted entries; a
    # NaN shift the kernel check refuses first
    pullback = grunsky.faber_pullback_block

    def perturbed(config, j, i, trunc, n_samples=None):
        b, defect = pullback(config, j, i, trunc)
        if (j, i) == (0, 0):
            b[np.tril_indices(trunc, -1)] += shift
        return b, defect

    def shifted_kernel(spec, trunc):  # the block as perturbed, for its kernel series
        j = config_b.maps.index(spec)
        return perturbed(config_b, j, j, trunc)[0]

    monkeypatch.setattr(grunsky, "faber_pullback_block", perturbed)
    if np.isnan(shift):
        match = r"^block \(0, 0\): methods differ by nan$"
    else:
        match = r"^block \(0, 0\) is not symmetric"
        monkeypatch.setattr(grunsky, "diagonal_block_series", shifted_kernel)
    with pytest.raises(MethodDisagreement, match=match):
        assemble(config_b, 8, method_tol=1e-12)


def _two_disks(r1, r2, gap):
    """Disks of radii r1, r2 whose edges are `gap` apart, on a tilted line."""
    d = r1 + r2 + gap
    return MultiDomainConfig(maps=(ConformalMapSpec(center=0.3, coeffs=(r1,)),
                                   ConformalMapSpec(center=0.3 + d * np.exp(0.7j),
                                                    coeffs=(r2,))),
                             ext_margin=min(0.05, gap / (4 * max(r1, r2)))), d


@pytest.mark.parametrize("r1, r2, gap", [
    (1.0, 1.0, 0.01), (1.0, 0.5, 0.01), (1.0, 1.0, 0.03), (1.0, 0.25, 0.05),
    (1.0, 0.5, 0.1), (1.0, 1.0, 0.3), (0.7, 1.3, 1.0), (1.0, 1.0, 5.0)])
def test_two_disk_spectrum_is_exact(r1, r2, gap):
    # the exterior of two disks is Moebius-equivalent to an annulus
    # rho < |z| < 1, whose Grunsky operator is diagonal with entries rho^k,
    # each twice; from gap 0.03 on, T = 256 resolves the first six pairs
    cfg, d = _two_disks(r1, r2, gap)
    rho = two_disk_modulus(r1, r2, d)
    gr = assemble(cfg, 256)
    sigma = np.linalg.svd(gr.full_matrix(), compute_uv=False)
    assert abs(sigma[0] - rho) <= 1e-14
    assert abs(operator_norm(gr) - rho) <= 1e-14  # by Lanczos, nT = 512
    if gap >= 0.03:
        pairs = np.repeat(rho ** np.arange(1, 7), 2)
        assert np.max(np.abs(sigma[:12] - pairs)) <= 1e-14


def test_two_disk_norm_converges_near_contact():
    # unit disks 0.003 apart, rho = 0.8962545: sigma_T - rho is -1.8e-3,
    # -5.3e-6 and -1.2e-11 at T = 64, 128 and 256
    cfg, d = _two_disks(1.0, 1.0, 0.003)
    rho = two_disk_modulus(1.0, 1.0, d)
    gr = assemble(cfg, 256)
    hist = norm_history(gr, (64, 128, 256))
    assert hist[64] < hist[128] < hist[256] <= rho + 1e-14
    assert abs(hist[256] - rho) <= 1e-10
    # Lanczos finds the top of a pair (rho, rho) as the SVD does
    sigma = np.linalg.svd(gr.full_matrix(), compute_uv=False)
    assert sigma[0] - sigma[1] <= 1e-14
    assert abs(hist[256] - sigma[0]) <= 1e-14 * sigma[0]


def test_orthonormal_rescale():
    b = np.arange(1, 7, dtype=complex).reshape(2, 3)
    g = orthonormal_from_monomial(b)
    for n in range(2):
        for m in range(3):
            np.testing.assert_allclose(g[n, m],
                                       b[n, m] * np.sqrt((n + 1) / (m + 1)))


def test_apply_grunsky_matches_matrix(config_b):
    gr = assemble(config_b, 8)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
    out = apply_grunsky(gr, coeffs)
    # orthonormal coordinates: u_m = a_m sqrt(pi m), v_n = out_n sqrt(pi n)
    m = np.arange(1, 9)
    u = (coeffs * np.sqrt(np.pi * m)).reshape(-1)
    v = gr.full_matrix() @ u
    expect = v.reshape(2, 8) / np.sqrt(np.pi * m)
    assert out.shape == (2, 8)
    np.testing.assert_allclose(out, expect, atol=1e-12)
    # a shorter sequence acts as if zero-padded to the matrix truncation
    short = coeffs.copy()
    short[:, 5:] = 0
    np.testing.assert_allclose(apply_grunsky(gr, coeffs[:, :5]), apply_grunsky(gr, short),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("t", [3, 8])
def test_full_matrix_places_blocks(config_c, t):
    # block (j, i) of the stacked matrix is the leading t x t corner of blocks[j][i]
    gr = assemble(config_c, 8)
    assert gr.blocks.shape == (3, 3, 8, 8)
    g = gr.full_matrix(t)
    assert g.shape == (3 * t, 3 * t)
    for j in range(3):
        for i in range(3):
            np.testing.assert_array_equal(g[j * t:(j + 1) * t, i * t:(i + 1) * t],
                                          gr.blocks[j][i][:t, :t])


def test_full_matrix_is_a_new_array(single_poly):
    # with one boundary a reshape alone would hand out a view of the blocks
    gr = assemble(single_poly, 8)
    for t in (4, 8):
        assert not np.shares_memory(gr.full_matrix(t), gr.blocks)


def test_write_read_round_trip(tmp_path, config_b):
    gr = assemble(config_b, 8)
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
    # rows keep the entry-by-entry format "re,im re,im ...", only blocks
    # j <= i are written, and row n of a diagonal block starts at column n
    lines = path.read_text().splitlines()
    assert "storage = upper" in lines
    assert [ln.split()[1:3] for ln in lines if ln.startswith("block ")] == \
        [["0", "0"], ["0", "1"], ["1", "1"]]
    for j, i in [(0, 0), (0, 1)]:
        first = lines.index("block %d %d method=%s agreement=%.3g"
                            % (j, i, gr.method_tags[j][i], gr.agreement[j, i])) + 1
        for n, (row, line) in enumerate(zip(gr.blocks[j][i], lines[first:first + gr.trunc])):
            entries = row[n:] if i == j else row
            assert line == " ".join("%.17g,%.17g" % (c.real, c.imag) for c in entries)


def _export_lines(gr):
    buf = io.StringIO()
    write_matrix(gr, buf)
    return buf.getvalue().splitlines(keepends=True)


@pytest.mark.parametrize("block", ["block 0 0", "block 1 1"])
def test_read_matrix_refuses_short_block(config_b, block):
    lines = _export_lines(assemble(config_b, 4))
    start = next(k for k, ln in enumerate(lines) if ln.startswith(block + " "))
    del lines[start + 3 : start + 5]  # the block's last two rows
    with pytest.raises(ValueError, match=block):
        read_matrix(io.StringIO("".join(lines)))


def test_read_matrix_refuses_short_row(config_b):
    lines = _export_lines(assemble(config_b, 4))
    start = next(k for k, ln in enumerate(lines) if ln.startswith("block 0 1 "))
    lines[start + 2] = lines[start + 2].rsplit(" ", 1)[0] + "\n"  # one entry short
    with pytest.raises(ValueError, match="block 0 1"):
        read_matrix(io.StringIO("".join(lines)))


def test_read_matrix_refuses_method_agreement_mismatch(config_b):
    # an off-diagonal block is always checked by symmetry; a file that tags
    # it otherwise is refused
    lines = _export_lines(assemble(config_b, 4))
    start = next(k for k, ln in enumerate(lines) if ln.startswith("block 0 1 "))
    lines[start] = lines[start].replace("method=definitional+symmetry",
                                        "method=definitional+kernel-series")
    with pytest.raises(ValueError, match="block 0 1"):
        read_matrix(io.StringIO("".join(lines)))


@pytest.mark.parametrize("swap", [
    ("method=definitional+kernel-series", "method=definitional"),
    ("method=definitional+kernel-series", "method=definitional+symmetry"),
])
def test_read_matrix_refuses_diagonal_tag_mismatch(config_b, swap):
    # on the diagonal method= is fixed by the position: both routes
    lines = _export_lines(assemble(config_b, 4))
    start = next(k for k, ln in enumerate(lines) if ln.startswith("block 1 1 "))
    lines[start] = lines[start].replace(*swap)
    with pytest.raises(ValueError, match="block 1 1"):
        read_matrix(io.StringIO("".join(lines)))


@pytest.mark.parametrize("header, message", [
    # what --policy definitional wrote for every diagonal block, which read
    # back as a block with one route
    pytest.param("method=definitional agreement=nan",
                 "method=definitional, not definitional\\+kernel-series", id="one-route"),
    pytest.param("method=definitional+kernel-series agreement=nan",
                 "agreement=nan is not finite", id="kernel-nan"),
])
def test_read_matrix_refuses_a_diagonal_block_without_its_kernel_gap(config_b, header,
                                                                      message):
    lines = _export_lines(assemble(config_b, 4))
    start = next(k for k, ln in enumerate(lines) if ln.startswith("block 1 1 "))
    lines[start] = "block 1 1 %s\n" % header
    with pytest.raises(ValueError, match="^block 1 1: " + message + "$"):
        read_matrix(io.StringIO("".join(lines)))


def test_read_matrix_refuses_missing_block(config_b):
    lines = _export_lines(assemble(config_b, 4))
    start = next(k for k, ln in enumerate(lines) if ln.startswith("block 0 1 "))
    del lines[start : start + 5]  # header and four rows
    with pytest.raises(ValueError, match="block 0 1"):
        read_matrix(io.StringIO("".join(lines)))


@pytest.mark.parametrize("key", ["n", "trunc", "storage"])
def test_read_matrix_refuses_a_header_without_a_size(config_b, key):
    # a file without storage = upper (the full layout) is refused too
    lines = [ln for ln in _export_lines(assemble(config_b, 4))
             if not ln.startswith(key + " = ")]
    with pytest.raises(ValueError, match="no %s" % key):
        read_matrix(io.StringIO("".join(lines)))


def test_read_matrix_refuses_another_kind():
    with pytest.raises(ValueError, match="kind = validation_report"):
        read_matrix(io.StringIO("faberkit.v1\nkind = validation_report\npassed = 1\n"))


@pytest.mark.parametrize("header", ["block 2 0", "block 0 -1"])
def test_read_matrix_refuses_a_block_out_of_range(config_b, header):
    lines = _export_lines(assemble(config_b, 4))
    start = next(k for k, ln in enumerate(lines) if ln.startswith("block 0 1 "))
    lines[start] = lines[start].replace("block 0 1", header)
    with pytest.raises(ValueError, match=header + " is out of range"):
        read_matrix(io.StringIO("".join(lines)))


def test_read_matrix_refuses_a_block_below_the_diagonal(config_b):
    lines = _export_lines(assemble(config_b, 4))
    start = next(k for k, ln in enumerate(lines) if ln.startswith("block 0 1 "))
    lines[start] = lines[start].replace("block 0 1", "block 1 0")
    with pytest.raises(ValueError, match="block 1 0 is below the diagonal"):
        read_matrix(io.StringIO("".join(lines)))


@pytest.mark.parametrize("edit, count", [
    pytest.param(lambda row: "0,0 " + row, 8, id="a-full-row"),
    pytest.param(lambda row: row.rsplit(" ", 1)[0], 4, id="one-entry-short"),
])
def test_read_matrix_refuses_a_diagonal_row_of_the_wrong_length(config_b, edit, count):
    # row 2 of a diagonal block at T = 4 starts at column 2: it holds
    # 2 (T - 2 + 1) = 6 numbers
    lines = _export_lines(assemble(config_b, 4))
    start = next(k for k, ln in enumerate(lines) if ln.startswith("block 1 1 "))
    lines[start + 2] = edit(lines[start + 2].rstrip("\n")) + "\n"
    with pytest.raises(ValueError, match="block 1 1: row 2 holds %d numbers, not 6" % count):
        read_matrix(io.StringIO("".join(lines)))


def test_read_matrix_refuses_a_repeated_block(config_b):
    # block 1 1 relabelled as 0 0: the repeat is named, not the block it hides
    lines = _export_lines(assemble(config_b, 4))
    start = next(k for k, ln in enumerate(lines) if ln.startswith("block 1 1 "))
    lines[start] = lines[start].replace("block 1 1", "block 0 0")
    with pytest.raises(ValueError, match="block 0 0 appears twice"):
        read_matrix(io.StringIO("".join(lines)))


@pytest.mark.parametrize("entry", ["nan", "-inf", "1e999"])
def test_read_matrix_refuses_non_finite_entries(config_b, entry):
    lines = _export_lines(assemble(config_b, 4))
    start = next(k for k, ln in enumerate(lines) if ln.startswith("block 0 1 "))
    lines[start + 3] = entry + lines[start + 3][lines[start + 3].index(","):]
    with pytest.raises(ValueError, match="block 0 1"):
        read_matrix(io.StringIO("".join(lines)))


def test_read_matrix_accepts_extra_whitespace(config_b):
    # rows are split at commas and whitespace, as before the vectorized reader
    gr = assemble(config_b, 4)
    lines = [ln.replace(",", " , ").rstrip("\n") + " \t\n" if ln[:1] in "-0123456789" else ln
             for ln in _export_lines(gr)]
    back = read_matrix(io.StringIO("".join(lines)))
    np.testing.assert_array_equal(back.blocks.view(np.uint64), gr.blocks.view(np.uint64))


def test_read_matrix_names_the_block_of_a_bad_token(config_b):
    lines = _export_lines(assemble(config_b, 4))
    start = next(k for k, ln in enumerate(lines) if ln.startswith("block 1 1 "))
    lines[start + 1] = "x" + lines[start + 1]
    with pytest.raises(ValueError, match="block 1 1"):
        read_matrix(io.StringIO("".join(lines)))


def test_affine_three_region_norm(config_c):
    # frozen from a definitional run at truncation 32
    gr = assemble(config_c, 32)
    np.testing.assert_allclose(operator_norm(gr), 0.054949527364047762, atol=1e-9)

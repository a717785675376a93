"""Acceptance criteria for the block Faber/Grunsky machinery.

One test per criterion; each prints a single PASS/FAIL line (run with -s
to see them) and then asserts.  Tolerances are fixed here on purpose:
loosening one is a contract change, not a test fix.
"""

import math

import numpy as np
import pytest

from faberkit import (
    ConformalMapSpec,
    Contour,
    MultiDomainConfig,
    RationalFn,
    apply_big_faber,
    apply_faber,
    apply_grunsky,
    assemble,
    cauchy_eval,
    decompose,
    diagonal_block_series,
    dirichlet_norm,
    dirichlet_norm_sigma,
    faber_partial_sum_error,
    faber_pullback_block,
    graph_check,
    norm_history,
    operator_norm,
    probe_grid,
    projection_component,
)

from conftest import rational_fixtures


def report(num, name, ok, detail):
    print("criterion %02d %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL",
                                          detail))
    assert ok, "%s: %s" % (name, detail)


@pytest.fixture(scope="module")
def configs(config_a, config_b, config_c):
    return {"A": config_a, "B": config_b, "C": config_c}


@pytest.fixture(scope="module")
def assembled(configs):
    return {key: assemble(cfg, 64)
            for key, cfg in configs.items()}


def test_criterion_01_affine_diagonal_nullity(configs):
    # disk maps have identically vanishing diagonal blocks
    worst = 0.0
    for key in ("A", "C"):
        cfg = configs[key]
        for j in range(cfg.n):
            b, _ = faber_pullback_block(cfg, j, j, 32)
            worst = max(worst, float(np.max(np.abs(b))))
            k = diagonal_block_series(cfg.maps[j], 32)
            worst = max(worst, float(np.max(np.abs(k))))
    report(1, "affine diagonal nullity", worst <= 1e-12, "worst %.3g" % worst)


def test_criterion_02_two_disk_closed_forms(configs, assembled):
    # hand-derived entries for the two unit disks at distance 4
    b21 = assembled["A"].monomial_block(1, 0)
    b12 = assembled["A"].monomial_block(0, 1)
    gaps = [abs(b21[0, 0] - (-1 / 16)), abs(b21[1, 0] - 1 / 64),
            abs(b12[0, 0] - (-1 / 16))]
    sigma1 = operator_norm(assembled["A"], trunc=1)
    gaps.append(abs(sigma1 - 0.0625))
    worst = max(gaps)
    report(2, "two-disk closed forms", worst <= 1e-10, "worst %.3g" % worst)


def test_criterion_03_identity_recovery(configs):
    # negative frequencies of every pullback reproduce delta_ij w^{-m}
    worst = 0.0
    for cfg in configs.values():
        for j in range(cfg.n):
            for i in range(cfg.n):
                _, defect = faber_pullback_block(cfg, j, i, 32)
                worst = max(worst, defect)
    report(3, "identity recovery", worst <= 1e-10, "worst defect %.3g" % worst)


def test_criterion_04_norm_bound_and_monotonicity(assembled):
    # sigma_max < 1 with nested truncations nondecreasing
    ok = True
    detail = []
    for key, gr in assembled.items():
        hist = norm_history(gr, truncs=[8, 16, 32, 64])
        vals = [hist[t] for t in (8, 16, 32, 64)]
        ok &= vals[-1] < 1.0
        ok &= all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        detail.append("%s sigma=%.6f" % (key, vals[-1]))
    report(4, "norm bound and monotonicity", ok, ", ".join(detail))


def test_criterion_05_energy_identities(config_a, single_poly):
    # ||H||^2 splits into exterior energy plus the operator image energy
    rng = np.random.default_rng(17)
    t = 48
    m_idx = np.arange(1, t + 1)
    worst_single = 0.0
    gr1 = assemble(single_poly, t)
    for _ in range(20):
        a = np.zeros(8, complex)
        a[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = dirichlet_norm(a) ** 2
        ext = dirichlet_norm_sigma(single_poly, apply_faber(single_poly, 0, a),
                                   n_samples=4096)
        gh = apply_grunsky(gr1, [a])
        g_sq = float(np.sum(np.pi * m_idx * np.abs(gh[0]) ** 2))
        worst_single = max(worst_single, abs(lhs - (ext + g_sq)) / lhs)
    worst_block = 0.0
    gr2 = assemble(config_a, t)
    for j in range(2):
        seqs = [np.zeros(t, complex) for _ in range(2)]
        a = np.zeros(t, complex)
        a[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        seqs[j] = a
        lhs = dirichlet_norm(seqs[j]) ** 2
        ext = dirichlet_norm_sigma(config_a, apply_big_faber(config_a, seqs),
                                   n_samples=4096)
        preds = apply_grunsky(gr2, seqs)
        g_sq = sum(float(np.sum(np.pi * m_idx * np.abs(p) ** 2))
                   for p in preds)
        worst_block = max(worst_block, abs(lhs - (ext + g_sq)) / lhs)
    ok = worst_single <= 1e-7 and worst_block <= 1e-6
    report(5, "energy identities", ok,
           "single %.3g, block %.3g" % (worst_single, worst_block))


def test_criterion_06_graph_membership(configs, assembled):
    # boundary data of rational exterior functions lies on the graph
    worst = 0.0
    count = 0
    for key, cfg in configs.items():
        for h in rational_fixtures(cfg):
            rep = graph_check(cfg, h, 32, gr=assembled[key])
            worst = max(worst, rep.residual)
            count += 1
    ok = worst <= 1e-7 and count >= 10
    report(6, "graph membership", ok,
           "%d fixtures, worst residual %.3g" % (count, worst))


def test_criterion_07_decomposition(configs):
    # pole grouping reproduces h and matches the quadrature projections
    worst_complete = 0.0
    worst_orth = 0.0
    for cfg in configs.values():
        terms = tuple((complex(cfg.maps[k].center) + 0.25, 1, 1.0)
                      for k in range(cfg.n))
        h = RationalFn(terms=terms)
        probes = probe_grid(cfg)
        res = decompose(cfg, h, probes=probes)
        worst_complete = max(worst_complete, res.residual)
        check = probes[::8]
        for i in range(cfg.n):
            proj = projection_component(cfg, i, h)
            gap = float(np.max(np.abs(proj(check) - res.components[i](check))))
            worst_orth = max(worst_orth, gap)
    ok = worst_complete <= 1e-10 and worst_orth <= 1e-9
    report(7, "decomposition", ok,
           "completeness %.3g, projections %.3g" % (worst_complete, worst_orth))


def test_criterion_08_series_termination_and_rate(config_a):
    # a pure Faber function terminates; a nearby pole converges at its
    # parameter radius (0.3 here)
    table1 = faber_partial_sum_error(config_a, RationalFn.single(-2.0, 1, 1.0), 12)
    h = RationalFn.single(-2.3, 1, 1.0)
    table2 = faber_partial_sum_error(config_a, h, 24)
    ratio = table2.fitted_ratio
    ok = (table1.terminated_at == 1 and ratio is not None
          and abs(ratio - 0.3) <= 0.05 * 0.3)
    report(8, "series termination and rate", ok,
           "terminated_at %d, ratio %.4f" % (table1.terminated_at, ratio or -1))


def test_criterion_09_cross_method_agreement(configs):
    # diagonal blocks agree with their kernel series, off-diagonal pairs
    # with each other's transpose
    worst = 0.0
    for cfg in configs.values():
        gr = assemble(cfg, 16)
        worst = max(worst, float(np.nanmax(gr.agreement)))
    report(9, "cross-method agreement", worst <= 1e-8, "worst gap %.3g" % worst)


def test_criterion_10_contour_invariance(config_a):
    # Cauchy values do not depend on the quadrature radius
    spec = config_a.maps[0]
    h = lambda z: 1.0 / (z + 2.0)
    z = np.array([5.0, -6.0, 3 + 3j])
    vals = []
    for r in (1.02, 1.04, 1.06, 1.08, 1.10):
        c = Contour(spec, r, n_samples=1024)
        vals.append(cauchy_eval(c, h(c.points()), z))
    spread = float(max(np.max(np.abs(v - vals[0])) for v in vals[1:]))
    cin = Contour(spec, 0.97, n_samples=1024)
    cout = Contour(spec, 1.03, n_samples=1024)
    straddle = float(np.max(np.abs(
        cauchy_eval(cin, h(cin.points()), z) - cauchy_eval(cout, h(cout.points()), z))))
    ok = spread <= 1e-10 and straddle <= 1e-9
    report(10, "contour invariance", ok,
           "radius spread %.3g, straddle %.3g" % (spread, straddle))

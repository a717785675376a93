"""Command line interface: exit codes, file outputs, determinism."""

import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import faberkit
from faberkit import read_matrix, validate_config
from faberkit.cli import build_parser, load_config_file, main, parse_polespec
from faberkit.domain import DEFAULT_EXT_MARGIN, DEFAULT_SEPARATION

TWO_DISKS = {
    "maps": [
        {"center": [-2.0, 0.0], "coeffs": [[1.0, 0.0]]},
        {"center": [2.0, 0.0], "coeffs": [[1.0, 0.0]]},
    ]
}

PERTURBED = {
    "maps": [
        {"center": [-2.0, 0.0], "coeffs": [[1.0, 0.0], [0.1, 0.0]]},
        {"center": [2.0, 0.0], "coeffs": [[0.8, 0.0]]},
    ]
}

OVERLAP = {
    "maps": [
        {"center": [0.0, 0.0], "coeffs": [[1.0, 0.0]]},
        {"center": [1.0, 0.0], "coeffs": [[1.0, 0.0]]},
    ]
}


NESTED = {
    "maps": [
        {"center": [0.0, 0.0], "coeffs": [[1.0, 0.0]]},
        {"center": [1.0, 0.0], "coeffs": [[0.5, 0.0]]},
    ]
}


# unit disks 0.003 apart, with the ext_margin that lets them validate
NEAR_CONTACT = {
    "maps": [
        {"center": [-1.0015, 0.0], "coeffs": [[1.0, 0.0]]},
        {"center": [1.0015, 0.0], "coeffs": [[1.0, 0.0]]},
    ],
    "ext_margin": 0.00075,
}

# w + 0.499 w^2 beside a unit disk: its critical point, at radius 1.002, lies
# just outside the margin circle
NEAR_CRITICAL = {
    "maps": [
        {"center": [-3.0, 0.0], "coeffs": [[1.0, 0.0], [0.499, 0.0]]},
        {"center": [3.0, 0.0], "coeffs": [[1.0, 0.0]]},
    ],
    "ext_margin": 0.001,
}


@pytest.fixture
def cfg_file(tmp_path):
    def write(payload, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def test_validate_pass(cfg_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["validate", "--config", cfg_file(TWO_DISKS), "--out", str(out)])
    assert rc == 0
    text = (out / "validation.txt").read_text()
    assert text.startswith("faberkit.v1\n")
    assert "passed = true" in text
    assert "min_curve_distance = 2" in text


def test_validate_overlap_fails(cfg_file, tmp_path, capsys):
    # the verdict used to be only in validation.txt, with nothing on stderr
    out = tmp_path / "out"
    rc = main(["validate", "--config", cfg_file(OVERLAP), "--out", str(out)])
    assert rc == 1
    text = (out / "validation.txt").read_text()
    assert "passed = false" in text
    first = text.split("\nfailure: ", 1)[1].splitlines()[0]
    assert capsys.readouterr().err == "check failed: %s\n" % first
    assert first == "maps 0/1: margin curves come within 0 < separation 0.001"


def test_validate_overlap_reports_zero_distance(cfg_file, tmp_path):
    # the nearest samples of these overlapping curves are 0.0009 apart
    path = cfg_file(OVERLAP)
    report = validate_config(load_config_file(path))
    assert report.curve_distances[0, 1] == 0
    assert report.margin_distances[0, 1] == 0
    out = tmp_path / "out"
    main(["validate", "--config", path, "--out", str(out)])
    assert "\nmin_curve_distance = 0\n" in (out / "validation.txt").read_text()


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name, passed", [("three_disks", True), ("overlap", False)])
def test_validate_file_matches_report(name, passed, cfg_file, tmp_path):
    # the rows of validation.txt against the ValidationReport they print
    path = str(CONFIGS / "three_disks.json") if name == "three_disks" else cfg_file(OVERLAP)
    out = tmp_path / "out"
    rc = main(["validate", "--config", path, "--out", str(out)])
    report = validate_config(load_config_file(path))
    assert report.passed == passed
    assert rc == (0 if passed else 1)
    rows = dict(line.split(" = ", 1)
                for line in (out / "validation.txt").read_text().splitlines()
                if " = " in line)
    assert rows["passed"] == ("true" if report.passed else "false")
    assert float(rows["min_curve_distance"]) == report.min_curve_distance()
    for i in range(len(report.map_reports)):
        assert [int(w) for w in rows["winding %d" % i].split()] == list(report.winding[i])
        assert ([float(d) for d in rows["curve_distances %d" % i].split()]
                == list(report.curve_distances[i]))


def test_missing_config_is_input_error(tmp_path):
    rc = main(["validate", "--config", str(tmp_path / "nope.json")])
    assert rc == 2


def test_malformed_json_is_input_error(cfg_file, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    rc = main(["validate", "--config", str(path)])
    assert rc == 2


def test_config_without_margins_gets_the_domain_defaults(cfg_file):
    config = load_config_file(cfg_file(TWO_DISKS))
    assert (config.ext_margin, config.separation) == (DEFAULT_EXT_MARGIN, DEFAULT_SEPARATION)
    config = load_config_file(cfg_file(dict(TWO_DISKS, ext_margin=0.01, separation=0.02)))
    assert (config.ext_margin, config.separation) == (0.01, 0.02)


def test_config_without_maps_is_input_error(cfg_file):
    rc = main(["validate", "--config", cfg_file({"wrong": []})])
    assert rc == 2


@pytest.mark.parametrize("field", ["ext_margin", "separation"])
@pytest.mark.parametrize("argv", [
    ["validate"], ["grunsky"], ["decompose", "--function=-2,0.1,1,1,0"],
], ids=["validate", "grunsky", "decompose"])
def test_non_finite_margin_is_input_error(cfg_file, capsys, field, argv):
    # JSON Infinity parses to a float; neither margin may be infinite
    rc = main(argv[:1] + ["--config", cfg_file(dict(TWO_DISKS, **{field: float("inf")}))]
              + argv[1:])
    assert rc == 2
    assert capsys.readouterr().err == "input error: %s must be positive and finite\n" % field


def _with_map(**entry):
    return dict(TWO_DISKS, maps=[dict(TWO_DISKS["maps"][0], **entry), TWO_DISKS["maps"][1]])


FUNCTION = "--function=-2.3,0,1,1,0"


@pytest.mark.parametrize("config, argv, message", [
    pytest.param(TWO_DISKS, ["decompose", "--function=-2.3,0,1,nan,0"],
                 "poles and coefficients must be finite", id="nan-coefficient"),
    pytest.param(TWO_DISKS, ["graph-check", "--function=-2.3,inf,1,1,0"],
                 "poles and coefficients must be finite", id="infinite-pole"),
    pytest.param(TWO_DISKS, ["graph-check", "--function=-2.3,0,1,inf,0"],
                 "poles and coefficients must be finite", id="infinite-coefficient"),
    pytest.param(TWO_DISKS, ["decompose", "--function=-2.3,0,1,inf,0"],
                 "poles and coefficients must be finite", id="decompose-infinite-coefficient"),
    pytest.param(_with_map(center=[float("inf"), 0.0]), ["grunsky"],
                 "center and coefficients must be finite", id="infinite-center"),
    pytest.param(_with_map(coeffs=[[float("nan"), 0.0]]), ["grunsky"],
                 "center and coefficients must be finite", id="nan-map-coefficient"),
    pytest.param(_with_map(center=[-2, 0, 7]), ["validate"],
                 "complex numbers are [re, im] pairs, got [-2, 0, 7]", id="three-number-pair"),
    pytest.param(TWO_DISKS, ["graph-check", FUNCTION, "--tol", "nan"],
                 "--tol must be finite and >= 0", id="nan-tol"),
    pytest.param(TWO_DISKS, ["graph-check", FUNCTION, "--tol", "-1"],
                 "--tol must be finite and >= 0", id="negative-tol"),
])
def test_malformed_input_is_input_error(cfg_file, tmp_path, capsys, config, argv, message):
    # each of these used to exit 0 or 1, some after numpy RuntimeWarnings
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        rc = main(argv[:1] + ["--config", cfg_file(config), "--out", str(tmp_path / "out")]
                  + argv[1:])
    assert rc == 2
    assert capsys.readouterr().err == "input error: %s\n" % message
    assert [str(w.message) for w in record] == []
    assert not (tmp_path / "out").exists()


def test_trunc_out_of_range_is_input_error(cfg_file):
    rc = main(["grunsky", "--config", cfg_file(TWO_DISKS), "--trunc", "0"])
    assert rc == 2
    rc = main(["grunsky", "--config", cfg_file(TWO_DISKS), "--trunc", "10000"])
    assert rc == 2


def test_policy_flag_is_gone(cfg_file):
    # every run cross-checks every block: no flag skips the diagonal kernel
    for policy in ("dual", "definitional"):
        with pytest.raises(SystemExit) as exc:
            main(["grunsky", "--config", cfg_file(TWO_DISKS), "--policy", policy])
        assert exc.value.code == 2


def test_bad_polespec_is_input_error(cfg_file):
    rc = main(["graph-check", "--config", cfg_file(TWO_DISKS),
               "--function=-2.3,0,1"])
    assert rc == 2


def test_parse_polespec_terms():
    fn = parse_polespec("-2.3,0,1,1,0;2.2,0.5,2,0,-1")
    assert fn.terms == ((-2.3 + 0j, 1, 1 + 0j), (2.2 + 0.5j, 2, -1j))


def test_grunsky_outputs(cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["grunsky", "--config", cfg_file(PERTURBED), "--trunc", "8",
               "--out", str(out)])
    assert rc == 0
    assert "sigma_max = " in capsys.readouterr().out
    with open(out / "grunsky_matrix.txt") as fh:
        gr = read_matrix(fh)
    assert gr.n == 2 and gr.trunc == 8
    history = (out / "norm_history.csv").read_text().splitlines()
    assert history[0] == "trunc,sigma_max"
    assert len(history) == 4  # header + truncations 2, 4, 8


def test_read_matrix_refuses_validation_output(cfg_file, tmp_path):
    # another faberkit.v1 file is refused by its kind, not with a KeyError
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg_file(TWO_DISKS), "--out", str(out)]) == 0
    with open(out / "validation.txt") as fh, pytest.raises(ValueError, match="kind"):
        read_matrix(fh)


def test_grunsky_checks_every_block_by_default(cfg_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["grunsky", "--config", cfg_file(PERTURBED), "--trunc", "32",
               "--out", str(out)])
    assert rc == 0
    with open(out / "grunsky_matrix.txt") as fh:
        gr = read_matrix(fh)
    assert np.all(np.isfinite(gr.agreement))
    assert gr.method_tags == [["definitional+kernel-series", "definitional+symmetry"],
                              ["definitional+symmetry", "definitional+kernel-series"]]


@pytest.mark.parametrize("payload, trunc, tol", [
    pytest.param(NEAR_CONTACT, 16, 1e-14, id="16"),
    pytest.param(NEAR_CONTACT, 128, 1e-14, id="128"),
    pytest.param(NEAR_CRITICAL, 16, 1e-13, id="critical-16"),
    pytest.param(NEAR_CRITICAL, 256, 1e-13, id="critical-256"),
])
def test_grunsky_near_contact_exits_0_quietly(cfg_file, tmp_path, capsys, payload, trunc, tol):
    # torus routes failed both: near contact the off-diagonal torus needed
    # N ~ 1/gap per axis, hit its cap (aliasing floor 6.6e-4) and the run
    # exited 1, "methods differ by 0.000422"; near the critical point the
    # diagonal torus kernel came within 0.002 of its singularity, "block
    # (0, 0): methods differ by 0.000147" (1.7e-06 at T = 256).  Symmetry
    # checks the off-diagonal blocks and the kernel runs on the circle
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        rc = main(["grunsky", "--config", cfg_file(payload), "--trunc", str(trunc),
                   "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert [str(w.message) for w in record] == []
    with open(out / "grunsky_matrix.txt") as fh:
        gr = read_matrix(fh)
    assert np.all(gr.agreement <= tol)


def test_grunsky_non_finite_blocks_fail_the_check(cfg_file, tmp_path, capsys):
    # NaN blocks used to reach the SVD, which died with a LinAlgError; the
    # sampler's division by zero used to warn before the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["grunsky", "--config", cfg_file(NESTED), "--trunc", "8",
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "check failed: block (0, 1): samples are not finite at N = 128\n"


@pytest.mark.parametrize("payload, sigma", [
    pytest.param({"maps": [{"center": [-0.9, 0.0], "coeffs": [[1.0, 0.0]]},
                           {"center": [0.9, 0.0], "coeffs": [[1.0, 0.0]]}]},
                 "8.4950372583495142", id="overlapping-disks"),
    pytest.param({"maps": [{"center": [0.0, 0.0], "coeffs": [[1.0, 0.0], [0.6, 0.0]]}]},
                 "70.684258613294602", id="critical-point-inside"),
])
def test_grunsky_says_why_sigma_fails(cfg_file, tmp_path, capsys, payload, sigma):
    # sigma_max >= 1 used to exit 1 with nothing on stderr
    out = tmp_path / "out"
    rc = main(["grunsky", "--config", cfg_file(payload), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "check failed: sigma_max = %s is not below 1\n" % sigma
    assert "sigma_max = %s\n" % sigma in (out / "grunsky_matrix.txt").read_text()


@pytest.mark.parametrize("name", ["perturbed_pair", "three_disks", "two_disks"])
def test_grunsky_at_max_trunc(name, tmp_path):
    # the top of the accepted range passes its own checks on every bundled
    # config; perturbed_pair used to fail with identity defect 3.4e4
    out = tmp_path / "out"
    rc = main(["grunsky", "--config", str(CONFIGS / (name + ".json")), "--trunc", "256",
               "--out", str(out)])
    assert rc == 0
    rows = (out / "norm_history.csv").read_text().splitlines()[1:]
    sigmas = [float(row.split(",")[1]) for row in rows]
    assert [int(row.split(",")[0]) for row in rows] == [64, 128, 256]
    assert all(b >= a for a, b in zip(sigmas, sigmas[1:]))
    assert sigmas[-1] < 1.0


# one run of each subcommand, with the flags it reads
RUNS = {
    "validate": [],
    "grunsky": ["--trunc", "6"],
    "graph-check": ["--function=-2.3,0,1,1,0", "--trunc", "16"],
    "faber-series": ["--function=-2.3,0,1,1,0", "--trunc", "6"],
    "decompose": ["--function=-2.3,0,1,1,0;2.2,0,2,1,0"],
}


def _run_bytes(command, config, out, capsys):
    """Exit code, stdout and the bytes of every file one run writes."""
    rc = main([command, "--config", config, "--out", str(out)] + RUNS[command])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return rc, capsys.readouterr().out, files


@pytest.mark.parametrize("command", list(RUNS))
def test_deterministic(cfg_file, tmp_path, capsys, command):
    cfg = cfg_file(PERTURBED)
    first = _run_bytes(command, cfg, tmp_path / "a", capsys)
    assert first[0] == 0 and first[2]
    assert _run_bytes(command, cfg, tmp_path / "b", capsys) == first


def test_graph_check_member(cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["graph-check", "--config", cfg_file(TWO_DISKS),
               "--function=-2.3,0,1,1,0", "--trunc", "16", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    text = (out / "graph_check.txt").read_text()
    assert "passed = true" in text
    vectors = (out / "graph_vectors.csv").read_text().splitlines()
    assert vectors[0].startswith("boundary,n,")
    assert len(vectors) == 1 + 2 * 16


def test_graph_check_detects_nonmember(cfg_file, tmp_path, capsys):
    # extra pole between the regions: not on the graph, exit 1, and stderr
    # names the pole that puts it off the graph
    out = tmp_path / "out"
    rc = main(["graph-check", "--config", cfg_file(TWO_DISKS),
               "--function=-2.3,0,1,1,0;0,0,1,1,0", "--trunc", "16",
               "--out", str(out)])
    assert rc == 1
    text = (out / "graph_check.txt").read_text()
    assert "passed = false" in text
    residual = text.split("\nresidual = ", 1)[1].splitlines()[0]
    assert 0.42 < float(residual) < 0.44
    assert capsys.readouterr().err == "check failed: pole 0j lies in no interior region\n"


def test_graph_check_residual_over_tol_fails_named(cfg_file, tmp_path, capsys):
    # a member of the graph whose rounding-level residual exceeds --tol:
    # stderr names the residual against --tol
    out = tmp_path / "out"
    rc = main(["graph-check", "--config", cfg_file(TWO_DISKS), "--function=-2.3,0,1,1,0",
               "--tol", "1e-300", "--out", str(out)])
    assert rc == 1
    residual = (out / "graph_check.txt").read_text().split("\nresidual = ", 1)[1]
    assert capsys.readouterr().err == (
        "check failed: graph residual = %s is not within tol = 1e-300\n"
        % residual.splitlines()[0])


@pytest.mark.parametrize("q", [-2.98, -2.995])
def test_pole_near_the_curve_exits_0_quietly(cfg_file, tmp_path, capsys, q):
    # h = 1/(z - q) within 0.02 and 0.005 of the left curve: both commands
    # warned of aliasing; at -2.995 faber-series was 3.5e-5 off and
    # graph-check wrote passed = false (residual 7.3e-3) for an h in D(Sigma)
    out, function = tmp_path / "out", "--function=%r,0,1,1,0" % q
    config = cfg_file(TWO_DISKS)
    assert main(["faber-series", "--config", config, function, "--trunc", "64",
                 "--out", str(out)]) == 0
    assert main(["graph-check", "--config", config, function, "--trunc", "32",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "passed = true" in (out / "graph_check.txt").read_text()
    rows = (out / "faber_coefficients.csv").read_text().splitlines()[1:]
    coeffs = np.array([complex(float(re), float(im)) for k, m, re, im in
                       (row.split(",") for row in rows)]).reshape(2, 64)
    exact = np.stack([(q + 2) ** np.arange(64.0), np.zeros(64)])
    assert np.max(np.abs(coeffs - exact)) <= 1e-13


def test_pole_on_the_curve_is_refused_by_name(cfg_file, tmp_path, capsys):
    # 1e-6 inside the curve no sample count within the budget resolves the
    # pullback: graph-check names it and writes no verdict on h
    out = tmp_path / "out"
    rc = main(["graph-check", "--config", cfg_file(TWO_DISKS), "--function=-2.999999,0,1,1,0",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("check failed: boundary 0: N = 2097152: folded alias estimate ")
    assert "Traceback" not in err
    assert not (out / "graph_check.txt").exists()


def test_faber_series_outputs(cfg_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["faber-series", "--config", cfg_file(TWO_DISKS),
               "--function=-2.0,0,1,1,0", "--trunc", "12", "--out", str(out)])
    assert rc == 0
    text = (out / "faber_series.txt").read_text()
    assert "terminated_at = 1\nfitted_ratio = none\nconverged = true\n" in text
    coeffs = (out / "faber_coefficients.csv").read_text().splitlines()
    assert len(coeffs) == 1 + 2 * 12
    errors = (out / "faber_errors.csv").read_text().splitlines()
    assert len(errors) == 1 + 12


@pytest.mark.parametrize("pole, name", [("0,0", "0j"), ("10,0", "(10+0j)")],
                         ids=["between", "beyond"])
@pytest.mark.parametrize("command", ["graph-check", "faber-series", "decompose"])
def test_stray_pole_fails_named(cfg_file, tmp_path, capsys, command, pole, name):
    # a pole between the regions or beyond them all lies in no region: every
    # function subcommand exits 1 and names it, graph-check after its
    # residual check fails
    rc = main([command, "--config", cfg_file(TWO_DISKS), "--function=%s,1,1,0" % pole,
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "check failed: pole %s lies in no interior region\n" % name


def test_decompose_outputs(cfg_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["decompose", "--config", cfg_file(TWO_DISKS),
               "--function=-2.3,0,1,1,0;2.2,0,2,1,0", "--out", str(out)])
    assert rc == 0
    text = (out / "decompose.txt").read_text()
    assert "component 0 terms = 1" in text
    assert "component 1 terms = 1" in text
    assert "quadrature_agreement" in text


@pytest.mark.parametrize("r", [3, 5, 8])
def test_decompose_past_radius_four(cfg_file, tmp_path, capsys, r):
    # disks of radius r at +-3r with a pole at -3.3r.  The probe rings sat
    # 0.2 past each curve, inside the projection contour at radius
    # r (1 + ext_margin) once r > 4: r = 5 was refused as 0.05 from the
    # contour, and at r = 8 quadrature_agreement read 0.17.  Rings and d_min
    # now scale with the conformal radius r
    payload = {"maps": [{"center": [-3 * r, 0], "coeffs": [[r, 0]]},
                        {"center": [3 * r, 0], "coeffs": [[r, 0]]}]}
    out = tmp_path / "out"
    config = cfg_file(payload)
    assert main(["validate", "--config", config, "--out", str(out)]) == 0
    assert main(["decompose", "--config", config, "--function=%r,0,1,1,0" % (-3.3 * r),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    text = (out / "decompose.txt").read_text()
    assert float(text.split("\nquadrature_agreement = ")[1].split()[0]) <= 1e-12


# the degree-12 Taylor polynomial of e^w at 3.08 w beside a unit disk: f' has
# no zero on |w| <= 1.05, but the margin curve crosses itself at |w| = 1.0199
TAYLOR_BESIDE_DISK = {
    "maps": [{"center": [0.0, 0.0],
              "coeffs": [[3.08 ** k / math.factorial(k), 0.0] for k in range(1, 13)]},
             {"center": [30.0, 0.0], "coeffs": [[1.0, 0.0]]}],
}


@pytest.mark.parametrize("payload, failure", [
    ({"maps": [{"center": [0, 0], "coeffs": [[1e308, 0]]},
               {"center": [5, 0], "coeffs": [[1, 0]]}]},
     "map 0: curve reaches |z| = 1.05e+308, past 2^510, where squared distances overflow"),
    ({"maps": [{"center": [-1e201, 0], "coeffs": [[1e200, 0]]},
               {"center": [1e201, 0], "coeffs": [[1e200, 0]]}]},
     "map 0: curve reaches |z| = 1.11e+201, past 2^510, where squared distances overflow"),
    (TAYLOR_BESIDE_DISK, "map 0: not univalent on |w| <= 1+ext_margin"),
], ids=["coefficient-1e308", "disks-1e200", "margin-univalence"])
def test_validate_names_the_failure_once(cfg_file, tmp_path, capsys, payload, failure):
    # the first two ended in a ValueError traceback; validate passed the third
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["validate", "--config", cfg_file(payload), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "check failed: %s\n" % failure
    assert "\nfailure: %s\n" % failure in (out / "validation.txt").read_text()


# the overlapping disks, with a pole inside both
OVERLAP_RUNS = {
    "validate": [],
    "grunsky": [],
    "graph-check": ["--function=-0.3,0,1,1,0"],
    "faber-series": ["--function=-0.3,0,1,1,0"],
    "decompose": ["--function=-0.3,0,1,1,0"],
}


@pytest.mark.parametrize("command", list(OVERLAP_RUNS))
def test_overlap_fails_one_named_check(cfg_file, tmp_path, capsys, command):
    # faber-series and decompose used to exit 0 here: the partial sums grow
    # from 1.0e3 at order 1 to 1.4e40 at order 16, and the quadrature
    # projection differs from the exact component by 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--config", cfg_file(OVERLAP), "--out", str(tmp_path / "out")]
                  + OVERLAP_RUNS[command])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("check failed: ")


def test_faber_series_names_both_errors(cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["faber-series", "--config", cfg_file(OVERLAP), "--function=-0.3,0,1,1,0",
               "--out", str(out)])
    rows = (out / "faber_errors.csv").read_text().splitlines()
    first, last = rows[1].split(",")[1], rows[-1].split(",")[1]
    assert rc == 1
    assert capsys.readouterr().err == (
        "check failed: Faber series does not converge: sup error %s at order 1, "
        "%s at order 16\n" % (first, last))
    assert "\nconverged = false\n" in (out / "faber_series.txt").read_text()


def test_slow_faber_series_converges(cfg_file, tmp_path, capsys):
    # a pole 0.005 inside the left curve: at order 16 the sup error has
    # only fallen from 165.7 to 151.4, short of the floor, yet it falls
    out = tmp_path / "out"
    rc = main(["faber-series", "--config", cfg_file(TWO_DISKS), "--function=-2.995,0,1,1,0",
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    text = (out / "faber_series.txt").read_text()
    assert "\nterminated_at = 0\n" in text and "\nconverged = true\n" in text
    errors = [float(row.split(",")[1])
              for row in (out / "faber_errors.csv").read_text().splitlines()[1:]]
    assert 151 < errors[-1] < errors[0] < 166


def test_decompose_refuses_disagreeing_quadrature(cfg_file, tmp_path, capsys):
    # unit disks at -0.9 and 0.9 overlap; the pole at -1.2 lies in the left
    # one only, and its quadrature projection is off by 1.11
    payload = {"maps": [{"center": [-0.9, 0.0], "coeffs": [[1.0, 0.0]]},
                        {"center": [0.9, 0.0], "coeffs": [[1.0, 0.0]]}]}
    out = tmp_path / "out"
    rc = main(["decompose", "--config", cfg_file(payload), "--function=-1.2,0,1,1,0",
               "--out", str(out)])
    err = capsys.readouterr().err
    agreement = (out / "decompose.txt").read_text().split("\nquadrature_agreement = ")[1]
    agreement = agreement.splitlines()[0]
    assert rc == 1
    assert 1.1 < float(agreement) < 1.12
    assert err.startswith("check failed: quadrature_agreement = %s exceeds " % agreement)
    assert len(err.splitlines()) == 1


def test_decompose_refuses_a_non_finite_residual(cfg_file, tmp_path, capsys):
    # (z + 2.3)^400 overflows at the far probes, so h and its component are
    # NaN there: decompose used to write residual = nan, print numpy's
    # warnings and exit 0, since max(0.0, nan) is 0.0
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["decompose", "--config", cfg_file(TWO_DISKS), "--function=-2.3,0,400,1,0",
                   "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "check failed: residual = nan on the probe grid is not finite\n")
    assert "\nresidual = nan\n" in (out / "decompose.txt").read_text()


def test_decompose_huge_coefficient_passes_quietly(cfg_file, tmp_path, capsys):
    # a residue of 1e300: the quadrature's rule differences square past the
    # largest float, which used to print numpy's overflow warning on a
    # correct answer
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["decompose", "--config", cfg_file(TWO_DISKS), "--function=-2,0,1,1e300,0",
                   "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    head, _, rest = (out / "decompose.txt").read_text().partition("quadrature_agreement = ")
    agreement, _, tail = rest.partition("\n")
    assert head == "faberkit.v1\nkind = decomposition\nn = 2\nresidual = 0\n"
    assert tail == ("component 0 terms = 1\n"
                    "  pole -2 0 order 1 coeff 1.0000000000000001e+300 0\n"
                    "component 1 terms = 0\n")
    assert 0 < float(agreement) <= 1e-6 * 1e300


@pytest.mark.parametrize("command", ["validate", "decompose"])
def test_seed_env_is_ignored(cfg_file, monkeypatch, tmp_path, capsys, command):
    # FABERKIT_SEED used to jitter decompose's probe grid, and a value that
    # was not an integer made every subcommand exit 2
    cfg = cfg_file(TWO_DISKS)
    plain = _run_bytes(command, cfg, tmp_path / "plain", capsys)
    monkeypatch.setenv("FABERKIT_SEED", "abc")
    assert _run_bytes(command, cfg, tmp_path / "seeded", capsys) == plain


def test_module_entry_point(cfg_file, tmp_path):
    # the child interpreter imports the same faberkit as this one
    src = os.path.dirname(os.path.dirname(faberkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    rc = subprocess.run(
        [sys.executable, "-m", "faberkit", "validate",
         "--config", cfg_file(TWO_DISKS), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert rc.returncode == 0


# the child imports faberkit, then runs each argv through cli.main, and
# prints whether scipy.spatial was loaded after the import and after each run
SPATIAL_CHILD = """
import json, sys
import faberkit
from faberkit.cli import main
loaded = ["scipy.spatial" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append("scipy.spatial" in sys.modules)
print(json.dumps(loaded))
"""


@pytest.mark.parametrize("commands, loaded", [
    ([["grunsky", "--trunc", "16"], ["graph-check", "--function=-2.3,0,1,1,0"],
      ["faber-series", "--function=-2.3,0,1,1,0"]], [False, False, False, False]),
    ([["validate"]], [False, False]),
    ([["decompose", "--function=-2.3,0,1,1,0;2.2,0,2,1,0"]], [False, False]),
], ids=["grunsky-graph-check-faber-series", "validate", "decompose"])
def test_scipy_spatial_loads_on_first_use(tmp_path, commands, loaded):
    # import faberkit used to load scipy.spatial, most of its start-up time,
    # decompose's cdist did until it moved into numpy, and validate's
    # KD-tree until its grid and block bounds did; now no subcommand loads
    # it, in a fresh interpreter that imports the same faberkit as this one
    src = os.path.dirname(os.path.dirname(faberkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    config = str(CONFIGS / "two_disks.json")
    argvs = [argv + ["--config", config, "--out", str(tmp_path / "out")] for argv in commands]
    run = subprocess.run([sys.executable, "-c", SPATIAL_CHILD, json.dumps(argvs)],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == loaded


# the child runs the Cauchy projections and the quadrature Dirichlet norm
# of a function on the config and prints whether scipy.spatial was loaded
QUADRATURE_CHILD = """
import sys
import numpy as np
import faberkit
from faberkit import analysis
from faberkit.cli import load_config_file
config = load_config_file(sys.argv[1])
h = faberkit.RationalFn(terms=((-2.3, 1, 1.0), (2.2, 2, 1.0)))
probes = analysis.probe_grid(config)
for i in range(config.n):
    assert np.all(np.isfinite(analysis.projection_component(config, i, h)(probes)))
contour = faberkit.Contour(config.maps[0], 1.5)
assert np.isfinite(faberkit.cauchy_eval(contour, h(contour.points()), 5.0))
assert analysis.dirichlet_norm_sigma(config, h) > 0
print("scipy.spatial" in sys.modules)
"""


def test_cauchy_quadrature_never_loads_scipy_spatial():
    # cdist is numpy's: the projections, cauchy_eval and the quadrature
    # Dirichlet norm run without scipy.spatial, in a fresh interpreter
    src = os.path.dirname(os.path.dirname(faberkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", QUADRATURE_CHILD, str(CONFIGS / "two_disks.json")],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


# the child runs grunsky at nT = 256, where sigma_max comes from Lanczos,
# then norm_history on the matrix it wrote, and prints whether scipy.sparse
# was loaded
SPARSE_CHILD = """
import os, sys
import faberkit
from faberkit.cli import main
config, out = sys.argv[1:]
assert main(["grunsky", "--trunc", "128", "--config", config, "--out", out]) == 0
with open(os.path.join(out, "grunsky_matrix.txt")) as fh:
    faberkit.norm_history(faberkit.read_matrix(fh), (64, 128))
print("scipy.sparse" in sys.modules)
"""


def test_sigma_never_loads_scipy_sparse(tmp_path):
    # from nT = 96 on sigma_max comes from Lanczos in numpy: neither grunsky
    # nor norm_history loads scipy.sparse, in a fresh interpreter
    src = os.path.dirname(os.path.dirname(faberkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", SPARSE_CHILD, str(CONFIGS / "two_disks.json"),
                          str(tmp_path / "out")],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_parser_is_built_once_and_keeps_no_state(capsys):
    # main reuses one argparse tree: neither a usage error nor a flag set in
    # one call carries over to the next
    parser = build_parser()
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["grunsky", "--config", "x.json", "--policy", "dual"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "unrecognized arguments: --policy dual" in errors[0]
    assert parser.parse_args(["grunsky", "--config", "a", "--trunc", "8"]).trunc == 8
    again = parser.parse_args(["grunsky", "--config", "a"])
    assert (again.trunc, again.out) == (16, ".")
    assert build_parser() is parser


@pytest.mark.parametrize("argv", [["validate", "--trunc", "8"],
                                  ["decompose", "--function=-2.3,0,1,1,0",
                                   "--tol", "1e-7"]])
def test_flag_a_subcommand_does_not_read_is_input_error(cfg_file, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--config", cfg_file(TWO_DISKS)] + argv[1:])
    assert exc.value.code == 2

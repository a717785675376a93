"""Command line interface: exit codes, file outputs, determinism."""

import json
import os
import subprocess
import sys

import pytest

import faberkit
from faberkit import read_matrix
from faberkit.cli import main, parse_polespec

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


def test_validate_overlap_fails(cfg_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["validate", "--config", cfg_file(OVERLAP), "--out", str(out)])
    assert rc == 1
    assert "passed = false" in (out / "validation.txt").read_text()


def test_missing_config_is_input_error(tmp_path):
    rc = main(["validate", "--config", str(tmp_path / "nope.json")])
    assert rc == 2


def test_malformed_json_is_input_error(cfg_file, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    rc = main(["validate", "--config", str(path)])
    assert rc == 2


def test_config_without_maps_is_input_error(cfg_file):
    rc = main(["validate", "--config", cfg_file({"wrong": []})])
    assert rc == 2


def test_trunc_out_of_range_is_input_error(cfg_file):
    rc = main(["grunsky", "--config", cfg_file(TWO_DISKS), "--trunc", "0"])
    assert rc == 2
    rc = main(["grunsky", "--config", cfg_file(TWO_DISKS), "--trunc", "10000"])
    assert rc == 2


def test_unknown_policy_rejected_by_parser(cfg_file):
    with pytest.raises(SystemExit) as exc:
        main(["grunsky", "--config", cfg_file(TWO_DISKS), "--policy", "guess"])
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


def test_grunsky_deterministic(cfg_file, tmp_path):
    cfg = cfg_file(PERTURBED)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["grunsky", "--config", cfg, "--trunc", "6",
                     "--out", str(out)]) == 0
        outs.append((out / "grunsky_matrix.txt").read_bytes()
                    + (out / "norm_history.csv").read_bytes())
    assert outs[0] == outs[1]


def test_graph_check_member(cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["graph-check", "--config", cfg_file(TWO_DISKS),
               "--function=-2.3,0,1,1,0", "--trunc", "16", "--out", str(out)])
    assert rc == 0
    text = (out / "graph_check.txt").read_text()
    assert "passed = true" in text
    vectors = (out / "graph_vectors.csv").read_text().splitlines()
    assert vectors[0].startswith("boundary,n,")
    assert len(vectors) == 1 + 2 * 16


def test_graph_check_detects_nonmember(cfg_file, tmp_path):
    # extra pole between the regions: not on the graph, exit 1
    out = tmp_path / "out"
    rc = main(["graph-check", "--config", cfg_file(TWO_DISKS),
               "--function=-2.3,0,1,1,0;0,0,1,1,0", "--trunc", "16",
               "--out", str(out)])
    assert rc == 1
    assert "passed = false" in (out / "graph_check.txt").read_text()


def test_faber_series_outputs(cfg_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["faber-series", "--config", cfg_file(TWO_DISKS),
               "--function=-2.0,0,1,1,0", "--trunc", "12", "--out", str(out)])
    assert rc == 0
    text = (out / "faber_series.txt").read_text()
    assert "terminated_at = 1" in text
    coeffs = (out / "faber_coefficients.csv").read_text().splitlines()
    assert len(coeffs) == 1 + 2 * 12
    errors = (out / "faber_errors.csv").read_text().splitlines()
    assert len(errors) == 1 + 12


def test_decompose_outputs(cfg_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["decompose", "--config", cfg_file(TWO_DISKS),
               "--function=-2.3,0,1,1,0;2.2,0,2,1,0", "--out", str(out)])
    assert rc == 0
    text = (out / "decompose.txt").read_text()
    assert "component 0 terms = 1" in text
    assert "component 1 terms = 1" in text
    assert "quadrature_agreement" in text


def test_decompose_stray_pole_fails(cfg_file, tmp_path):
    rc = main(["decompose", "--config", cfg_file(TWO_DISKS),
               "--function=10,0,1,1,0", "--out", str(tmp_path / "out")])
    assert rc == 1


def test_seed_env_must_be_integer(cfg_file, monkeypatch, tmp_path):
    monkeypatch.setenv("FABERKIT_SEED", "abc")
    rc = main(["validate", "--config", cfg_file(TWO_DISKS),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_seed_env_accepted(cfg_file, monkeypatch, tmp_path):
    monkeypatch.setenv("FABERKIT_SEED", "11")
    rc = main(["decompose", "--config", cfg_file(TWO_DISKS),
               "--function=-2.3,0,1,1,0", "--out", str(tmp_path / "out")])
    assert rc == 0


def test_module_entry_point(cfg_file, tmp_path):
    # the child interpreter imports the same faberkit as this one
    src = os.path.dirname(os.path.dirname(faberkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    rc = subprocess.run(
        [sys.executable, "-m", "faberkit", "validate",
         "--config", cfg_file(TWO_DISKS), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert rc.returncode == 0

import json
import shutil
import subprocess
import sys
import textwrap

import pytest

CLI = [sys.executable, "-m", "gentwistor.cli"]

FLAT_CONFIG = textwrap.dedent(
    """
    [metric]
    name = cli-flat
    domain = [-1, 1]
    g11 = 1
    g12 = 0
    g13 = 0
    g14 = 0
    g22 = 1
    g23 = 0
    g24 = 0
    g33 = 1
    g34 = 0
    g44 = 1
    """
)


def run(*args, expect=0):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc


def test_catalog_lists_builtins():
    proc = run("catalog")
    for name in ("flat", "s4", "eguchi-hanson", "schwarzschild", "fubini-study"):
        assert name in proc.stdout


def test_curvature_json():
    proc = run("curvature", "--metric", "s4", "--point", "0.1,0.2,0,0", "--json")
    payload = json.loads(proc.stdout)
    assert payload["metric"] == "s4"
    assert abs(payload["scalar"] - 12.0) < 1e-3
    assert payload["wplus_norm"] < 1e-6 and payload["b_norm"] < 1e-6


def test_classify_output():
    proc = run("classify", "--metric", "schwarzschild", "--samples", "3", "--seed", "5")
    assert "einstein:    true" in proc.stdout
    assert "scalar_zero: true" in proc.stdout
    assert "wplus_zero:  false" in proc.stdout


def test_check_agreement_exit_zero_and_json_schema():
    proc = run(
        "check", "--metric", "s4", "--component=+-", "--structure", "J",
        "--base-samples", "2", "--fiber-samples", "3", "--seed", "11", "--json",
    )
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "integrable"
    assert payload["agreement"] is True
    assert payload["wall_time_s"] is None
    assert payload["worst_constraint"] in {"C1", "C2", "C3", "C4", "C5", "C6"}


def test_check_json_deterministic_bytes():
    args = (
        "check", "--metric", "eguchi-hanson", "--component=--", "--structure", "J1",
        "--base-samples", "2", "--fiber-samples", "3", "--seed", "42", "--json",
    )
    out1 = run(*args).stdout
    out2 = run(*args).stdout
    assert out1 == out2  # byte identical across processes


def test_check_disagreement_exits_two():
    # an absurd tolerance makes the measured verdict contradict the
    # prediction; the process must say so in the exit code
    proc = run(
        "check", "--metric", "s4", "--component=++", "--structure", "J",
        "--base-samples", "1", "--fiber-samples", "2", "--tol", "100",
        expect=2,
    )
    assert "DISAGREE" in proc.stdout


def test_minus_components_equals_form():
    run("check", "--metric", "flat", "--component=-+", "--structure", "semi",
        "--base-samples", "1", "--fiber-samples", "1")


def test_semi_on_pure_component_is_an_error():
    proc = run("check", "--metric", "flat", "--component=++", "--structure", "semi",
               expect=1)
    assert "error:" in proc.stderr


def test_unknown_metric_and_bad_seed_exit_one():
    run("check", "--metric", "nope", "--component=++", "--structure", "J", expect=1)
    run("classify", "--metric", "flat", "--seed", "-3", expect=1)
    run("classify", "--metric", "flat", "--seed", str(2**64), expect=1)
    proc = run("curvature", "--metric", "flat", "--point", "1,2,3", expect=1)
    assert "4 comma-separated" in proc.stderr


def test_non_finite_tolerance_exits_one():
    for tol in ("nan", "inf"):
        proc = run("check", "--metric", "s4", "--component=+-", "--structure", "J",
                   "--tol", tol, "--json", expect=1)
        assert proc.stdout == ""
        assert "positive and finite" in proc.stderr


def test_non_finite_numbers_are_usage_errors():
    proc = run("type", "--fiber", "nan,0,0,1,0,0", "--component=++", expect=1)
    assert "fiber needs 6 finite numbers" in proc.stderr
    proc = run("curvature", "--metric", "s4", "--point", "nan,0,0,0", expect=1)
    assert "point needs 4 finite numbers" in proc.stderr
    run("curvature", "--metric", "s4", "--point", "0,inf,0,0", expect=1)


def test_type_verb():
    assert run("type", "--fiber", "1,0,0,1,0,0", "--component=++").stdout.strip() == "type: 4"
    assert run("type", "--fiber", "1,0,0,0,1,0", "--component=++").stdout.strip() == "type: 2"
    assert run("type", "--fiber", "1,0,0,0,1,0", "--component=+-").stdout.strip() == "type: 3"


def test_metric_file_roundtrip(tmp_path):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(FLAT_CONFIG)
    proc = run("check", "--metric-file", str(cfg), "--component=+-", "--structure", "semi",
               "--base-samples", "1", "--fiber-samples", "2")
    assert "cli-flat" in proc.stdout


def test_metric_file_diagnostics_line_col(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FLAT_CONFIG.replace("g33 = 1", "g33 = 1 +"))
    proc = run("classify", "--metric-file", str(cfg), expect=1)
    assert str(cfg) in proc.stderr
    # diagnostics carry a line:col position
    assert ":10:" in proc.stderr or ":9:" in proc.stderr


def test_non_finite_domain_exits_one(tmp_path):
    cfg = tmp_path / "wide.cfg"
    for domain in ("[0, inf]", "[-1e308, 1e308]"):
        cfg.write_text(FLAT_CONFIG.replace("domain = [-1, 1]", f"domain = {domain}"))
        for verb in (["check", "--component=++", "--structure", "J"], ["classify"], ["oracle"]):
            proc = run(*verb, "--metric-file", str(cfg), expect=1)
            assert "must be finite" in proc.stderr and "Traceback" not in proc.stderr


def test_oracle_verb_flat():
    proc = run("oracle", "--metric", "flat", "--points", "1", "--seed", "2")
    assert "max over 1 points" in proc.stdout


def test_oracle_verb_samples_inside_the_oracle_margin():
    # the schwarzschild box is 0.8 wide: 5% of it is 0.04, less than the
    # 0.0408 that the oracle stencils need.  Point 2 of this seed lies
    # 0.0402 from the edge when sampled with the 5% margin.
    proc = run("oracle", "--metric", "schwarzschild", "--points", "3", "--seed", "5406165350277484087")
    assert "point 2 (+-)" in proc.stdout


@pytest.mark.skipif(shutil.which("gentwistor") is None, reason="console script not on PATH")
def test_console_script_entry():
    proc = subprocess.run(["gentwistor", "catalog"], capture_output=True, text=True)
    assert proc.returncode == 0 and "s4" in proc.stdout

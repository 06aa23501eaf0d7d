import importlib
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

CLI = [sys.executable, "-m", "gentwistor.cli"]
ROOT = Path(__file__).resolve().parents[1]

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


def test_non_ascii_digits_in_metric_file_exit_one(tmp_path):
    cfg = tmp_path / "digits.cfg"
    for expr, col in (("2\u00b2", 8), ("\u0663*x1", 7)):
        cfg.write_text(FLAT_CONFIG.replace("g11 = 1", f"g11 = {expr}"), encoding="utf-8")
        proc = run("classify", "--metric-file", str(cfg), expect=1)
        assert proc.stderr.startswith(f"error: {cfg}: 5:{col}: unexpected character")
        assert proc.stderr.count("\n") == 1


def test_deeply_nested_metric_file_exits_one(tmp_path):
    # nesting past the parser's depth is one error line, not a traceback
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(FLAT_CONFIG.replace("g11 = 1", "g11 = " + "(" * 3000 + "1" + ")" * 3000))
    proc = run("classify", "--metric-file", str(cfg), expect=1)
    assert proc.stderr == f"error: {cfg}: 5:108: expression nested more than 100 deep at offset 101\n"


def test_long_flat_chain_in_metric_file_loads(tmp_path):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text(FLAT_CONFIG.replace("g11 = 1", "g11 = " + "+".join(["0.0002"] * 5000)))
    proc = run("classify", "--metric-file", str(cfg), "--samples", "2")
    assert "flat:        true" in proc.stdout and proc.stderr == ""


def test_non_finite_domain_exits_one(tmp_path):
    cfg = tmp_path / "wide.cfg"
    for domain in ("[0, inf]", "[-1e308, 1e308]"):
        cfg.write_text(FLAT_CONFIG.replace("domain = [-1, 1]", f"domain = {domain}"))
        for verb in (["check", "--component=++", "--structure", "J"], ["classify"], ["oracle"]):
            proc = run(*verb, "--metric-file", str(cfg), expect=1)
            assert "must be finite" in proc.stderr and "Traceback" not in proc.stderr


def test_duplicate_config_key_exits_one(tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(FLAT_CONFIG + "g11 = 2\n")
    proc = run("classify", "--metric-file", str(cfg), expect=1)
    assert proc.stderr == f"error: {cfg}: 15:1: duplicate key 'g11', first set on line 5\n"


def test_unreadable_metric_file_exits_one(tmp_path):
    # a directory and bytes that are not UTF-8 give one error line, no traceback
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe[metric]\n")
    for path, reason in ((tmp_path, "cannot read file: Is a directory"), (binary, "not UTF-8 text")):
        proc = run("classify", "--metric-file", str(path), expect=1)
        assert proc.stderr.startswith(f"error: {path}: {reason}") and proc.stderr.count("\n") == 1
    proc = run("check", "--metric-file", str(tmp_path / "missing.cfg"), "--component=++", "--structure", "J", expect=1)
    assert proc.stderr.count("\n") == 1 and "No such file or directory" in proc.stderr


def test_permission_error_on_metric_file_exits_one(monkeypatch, capsys):
    # file permissions do not bind a superuser, so the read error is injected
    from gentwistor import cli, dsl

    def refuse(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(dsl, "load_metric_file", refuse)
    assert cli.main(["classify", "--metric-file", "locked.cfg"]) == 1
    assert capsys.readouterr().err == "error: locked.cfg: cannot read file: Permission denied\n"


def test_main_calls_in_one_process_print_what_separate_calls_print(capsys):
    # the parser is built once per process and reused: a usage error leaves
    # nothing behind that changes the next call's output
    from gentwistor import cli

    usage = ["check", "--metric", "s4", "--structure", "J"]
    good = ["type", "--fiber", "1,0,0,0,1,0", "--component=+-"]
    separate = [run(*usage, expect=1), run(*good)]
    assert cli._build_parser() is cli._build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            cli.main(usage)
        assert stop.value.code == 1 and capsys.readouterr() == (separate[0].stdout, separate[0].stderr)
        assert cli.main(good) == 0 and capsys.readouterr() == (separate[1].stdout, separate[1].stderr)


def test_oracle_verb_flat():
    proc = run("oracle", "--metric", "flat", "--points", "1", "--seed", "2")
    assert "max over 1 points" in proc.stdout


def test_oracle_verb_needs_a_point():
    for n in ("0", "-1"):
        proc = run("oracle", "--metric", "flat", "--points", n, expect=1)
        assert proc.stdout == "" and proc.stderr == f"error: --points must be at least 1, got {n}\n"


def test_count_and_tolerance_errors_name_the_flag():
    # classify and check name the option the user typed, as oracle does
    for args, message in (
        (("classify", "--metric", "flat", "--samples", "0"), "--samples must be at least 1, got 0"),
        (("check", "--metric", "flat", "--component=++", "--structure", "J", "--base-samples", "0"),
         "--base-samples must be at least 1, got 0"),
        (("check", "--metric", "flat", "--component=++", "--structure", "J", "--fiber-samples", "0"),
         "--fiber-samples must be at least 1, got 0"),
        (("check", "--metric", "flat", "--component=++", "--structure", "J", "--tol", "-1"),
         "--tol must be positive and finite, got -1.0"),
    ):
        proc = run(*args, expect=1)
        assert proc.stdout == "" and proc.stderr == f"error: {message}\n"


def test_oracle_verb_samples_inside_the_oracle_margin():
    # the schwarzschild box is 0.8 wide: 5% of it is 0.04, more than the
    # 0.0208 that the oracle stencils reach (2 step + 2 fd_step).  Point 2
    # of this seed lies 0.0402 from the edge when sampled with the 5% margin.
    proc = run("oracle", "--metric", "schwarzschild", "--points", "3", "--seed", "5406165350277484087")
    assert "point 2 (+-)" in proc.stdout


def test_oracle_verb_widens_its_margin_on_a_narrow_box(tmp_path, monkeypatch, capsys):
    # on a 0.3-wide box the oracle's margin is 6.8% of the width, more than
    # the 5% sampling margin: the verb samples every point at least
    # oracle_margin inside the box, where the 5% margin would not
    from gentwistor import cli
    from gentwistor.dsl import load_metric_file
    from gentwistor.oracle import oracle_margin

    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(FLAT_CONFIG.replace("domain = [-1, 1]", "domain = [0, 0.3]"))
    metric, seed, points = load_metric_file(str(cfg)), 3, []
    margin = oracle_margin(metric)
    assert margin / (metric.hi - metric.lo) == pytest.approx(0.068, abs=5e-4)
    numeric = cli.nijenhuis_numeric
    monkeypatch.setattr(cli, "nijenhuis_numeric", lambda m, tp, *rest: points.append(tp.p) or numeric(m, tp, *rest))
    assert cli.main(["oracle", "--metric-file", str(cfg), "--points", "20", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out.count("\npoint ") == 19 and len(points) == 60
    assert all(metric.contains(p, margin) for p in points)
    at_five = metric.interior_points(20, np.random.default_rng([seed, 0]))
    assert not all(metric.contains(p, margin) for p in at_five)


def test_oracle_verb_on_a_box_too_narrow_for_its_margin(tmp_path):
    # the oracle's margin is more than half of this 0.03-wide box, so there
    # is nowhere to sample: one error line, no traceback, before any sample
    cfg = tmp_path / "sliver.cfg"
    cfg.write_text(FLAT_CONFIG.replace("domain = [-1, 1]", "domain = [1, 1.03]"))
    run("check", "--metric-file", str(cfg), "--component=++", "--structure", "J")
    proc = run("oracle", "--metric-file", str(cfg), expect=1)
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: box [1, 1.03]^4 is too narrow for the oracle's margin of 0.02003\n"
    )


def test_oracle_verb_output_is_pinned():
    # the oracle is the referee of the closed-form path: a refactor of it
    # must not move its printed readings
    proc = run("oracle", "--metric", "s4", "--points", "2", "--seed", "0")
    assert proc.stdout == (
        "point 0 (++): max |Nij| = 1.432e+00  (fd noise 9.4e-08)\n"
        "point 1 (--): max |Nij| = 1.739e-01  (fd noise 3.5e-08)\n"
        "max over 2 points: 1.432e+00\n"
    )
    proc = run("oracle", "--metric", "eguchi-hanson", "--structure", "J1", "--points", "2", "--seed", "0")
    assert proc.stdout == (
        "point 0 (++): max |Nij| = 3.504e-02  (fd noise 9.4e-08)\n"
        "point 1 (--): max |Nij| = 2.610e-08  (fd noise 3.9e-07)\n"
        "max over 2 points: 3.504e-02\n"
    )


def test_console_script_target_runs_the_cli(capsys):
    # the [project.scripts] entry names a callable that runs the CLI, so an
    # installed gentwistor command would work
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["gentwistor"].partition(":")
    main = getattr(importlib.import_module(module), name)
    assert main(["catalog"]) == 0 and "s4" in capsys.readouterr().out


@pytest.mark.skipif(shutil.which("gentwistor") is None, reason="console script not on PATH")
def test_console_script_entry():
    proc = subprocess.run(["gentwistor", "catalog"], capture_output=True, text=True)
    assert proc.returncode == 0 and "s4" in proc.stdout

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgsurf import cli, elliptic, ksurf, surfaces


def run(args):
    return cli.main(args)


def test_curve_csv_output(tmp_path):
    out = tmp_path / "curve.csv"
    rc = run(["curve", "--k", "0.6", "--gamma", "0.8", "--m-min", "-3", "--m-max", "3",
              "--t-steps", "2", "--t-stop", "1.0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,m,x,y,z,Bx,By,Bz"
    assert len(lines) == 1 + 2 * 7
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert int(first[1]) == -3
    assert len(first) == 8


def test_curve_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["curve", "--k", "0.9", "--gamma", "1.1", "--m-min", "0", "--m-max", "10",
            "--t-steps", "3", "--t-stop", "2.0"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_curve_missing_modulus_is_config_error(tmp_path):
    assert run(["curve", "--out", str(tmp_path / "x.csv")]) == 2


def test_kaleidocycle_order_validation(tmp_path, capsys):
    assert run(["kaleidocycle", "--n", "2", "--out", str(tmp_path / "x")]) == 2
    # the order is checked before the period and the m window derive from it
    for n in ("-5", "0"):
        assert run(["kaleidocycle", "--n", n, "--out", str(tmp_path / "x")]) == 2
        assert f"kaleidocycle order must be an integer >= 3, got {n}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    cfg = tmp_path / "k.cfg"
    cfg.write_text("k = 0.6\n")  # explicit modulus is forbidden here
    assert run(["kaleidocycle", "--n", "4", "--config", str(cfg),
                "--out", str(tmp_path / "y")]) == 2


def test_kaleidocycle_frames(tmp_path):
    out = tmp_path / "anim"
    rc = run(["kaleidocycle", "--n", "6", "--t-steps", "4", "--t-stop", "1.5",
              "--out", str(out)])
    assert rc == 0
    files = sorted(out.glob("frame_*.csv"))
    assert len(files) == 4
    lines = files[0].read_text().splitlines()
    assert len(lines) == 1 + 13  # m = 0..12: the closed 12-segment configuration


def test_ksurface_obj_and_sidecar(tmp_path):
    out = tmp_path / "mesh.obj"
    rc = run(["ksurface", "--family", "dn", "--k", "0.6", "--gamma", "0.8",
              "--delta", "0.55", "--m", "12", "--n", "9", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    n_v = sum(1 for ln in lines if ln.startswith("v "))
    n_f = sum(1 for ln in lines if ln.startswith("f "))
    assert n_v == 12 * 9
    assert n_f == 11 * 8
    # quad faces, 1-indexed, within range
    for ln in lines:
        if ln.startswith("f "):
            idx = [int(s) for s in ln.split()[1:]]
            assert len(idx) == 4
            assert all(1 <= i <= n_v for i in idx)
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["schema"] == 1
    assert len(sidecar["A_m"]) == 11
    assert len(sidecar["B_n"]) == 8
    assert sidecar["residuals"]["planarity"] < 1e-9


def test_ksurface_determinism(tmp_path):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    args = ["ksurface", "--k", "0.6", "--gamma", "0.8", "--delta", "0.55",
            "--m", "8", "--n", "8"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()


def test_ksurface_consistent_parameters_reproduce_figure_config(tmp_path):
    # sin(alpha) = 0.8 sn(K/16) satisfies the dn constraint for k = 0.8,
    # gamma = K/16: the default (constrained) path emits a residual-clean mesh
    mod = elliptic.make_modulus(0.8)
    out = tmp_path / "fig8.obj"
    rc = run(["ksurface", "--family", "dn", "--k", "0.8", "--gamma", str(mod.K / 16),
              "--delta", str(mod.K / 16), "--m", "24", "--n", "24", "--out", str(out)])
    assert rc == 0
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert max(sidecar["residuals"].values()) < 1e-9


def test_ksurface_fine_sheet(tmp_path):
    # fine-step sheet, sin(alpha) = 0.8 sn(K/16) realized by k = 0.8,
    # gamma = delta = K/16 on a 128 x 128 window
    mod = elliptic.make_modulus(0.8)
    out = tmp_path / "sheet.obj"
    rc = run(["ksurface", "--family", "dn", "--k", "0.8", "--gamma", str(mod.K / 16),
              "--delta", str(mod.K / 16), "--m", "128", "--n", "128", "--out", str(out)])
    assert rc == 0
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert max(sidecar["residuals"].values()) < 1e-9
    n_v = sum(1 for ln in out.read_text().splitlines() if ln.startswith("v "))
    assert n_v == 128 * 128


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 0.6\ngamma = 0.8\nm-min = 0\nm-max = 4\n# comment\n")
    out1 = tmp_path / "c1.csv"
    assert run(["curve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert len(out1.read_text().splitlines()) == 1 + 5
    # flag overrides the file value
    out2 = tmp_path / "c2.csv"
    assert run(["curve", "--config", str(cfg), "--m-max", "2", "--out", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 1 + 3


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("modulus = 0.6\n")
    assert run(["curve", "--config", str(cfg)]) == 2


def test_identities_command(tmp_path):
    out = tmp_path / "identities.json"
    assert run(["identities", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert all(entry["pass"] for entry in report["suites"])
    # seeded suites: the report is byte-stable across runs and locations
    out2 = tmp_path / "identities2.json"
    assert run(["identities", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    from sgsurf.suites import SuiteResult
    broken = SuiteResult(name="stub", max_residual=1.0, tolerance=1e-10, comparison="lt")
    monkeypatch.setattr("sgsurf.suites.run_suites", lambda which: [broken])
    rc = run(["verify", "--out", str(tmp_path / "r.json")])
    assert rc == 1


def test_verify_exits_1_when_a_suite_reads_nan(tmp_path, monkeypatch):
    monkeypatch.setattr("sgsurf.sg.discrete_sg_residual",
                        lambda p, m, n: np.full(np.broadcast(m, n).shape, np.nan))
    out = tmp_path / "r.json"
    assert run(["verify", "--out", str(out)]) == 1
    entry = {e["name"]: e for e in _strict_json(out)["suites"]}["sg.discrete_residuals"]
    assert entry["max_residual"] is None and not entry["pass"]


def _strict_json(path):
    """The file parsed as RFC 8259 JSON: NaN and Infinity tokens are rejected."""
    def reject(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("vertex", [(2, 3), (2, 0)], ids=["interior", "first-column"])
def test_ksurface_sidecar_writes_a_nan_residual_as_null(tmp_path, monkeypatch, vertex):
    real = cli.k_grid

    def one_nan_vertex(*args):
        grid = real(*args)
        grid.points[vertex + (0,)] = np.nan
        return grid

    monkeypatch.setattr(cli, "k_grid", one_nan_vertex)
    out = tmp_path / "s.obj"
    assert run(["ksurface", "--k", "0.6", "--m", "5", "--n", "6", "--out", str(out)]) == 1
    sidecar = _strict_json(out.with_suffix(".json"))
    assert sidecar["residuals"]["planarity"] is None
    # a NaN vertex on the first column makes its two m-edge lengths null as well
    nulls = [i for i, x in enumerate(sidecar["A_m"]) if x is None]
    assert nulls == ([1, 2] if vertex[1] == 0 else []) and None not in sidecar["B_n"]


def test_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "sgsurf.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["made-up"])
    assert exc.value.code == 2


@pytest.mark.parametrize("counts", [("0", "5"), ("5", "0"), ("-3", "5"), ("4", "-1")])
def test_ksurface_counts_below_one_are_config_errors(tmp_path, counts):
    out = tmp_path / "mesh.obj"
    rc = run(["ksurface", "--k", "0.6", "--gamma", "0.8", "--delta", "0.55",
              "--m", counts[0], "--n", counts[1], "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert not out.with_suffix(".json").exists()


@pytest.mark.parametrize("argv", [
    ["curve", "--k", "0.6", "--gamma", "0.8", "--m-min", "5", "--m-max", "2"],
    ["curve", "--k", "0.6", "--gamma", "0.8", "--m-min", "13"],
    ["kaleidocycle", "--n", "4", "--m-max", "-1"],
])
def test_empty_m_range_is_config_error_without_artifact(tmp_path, argv):
    out = tmp_path / "artifact"
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("m_max,rows", [(None, 9), ("11", 12), ("12", 13), ("13", 14)])
def test_kaleidocycle_m_max_is_honoured(tmp_path, m_max, rows):
    out = tmp_path / "anim"
    argv = ["kaleidocycle", "--n", "4", "--out", str(out)]
    if m_max is not None:
        argv += ["--m-max", m_max]
    assert run(argv) == 0   # m_max >= period covers the ring, so it closes
    lines = (out / "frame_0000.csv").read_text().splitlines()
    assert len(lines) == 1 + rows   # default: one period, m = 0..2n


@pytest.mark.parametrize("steps", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["curve", "--k", "0.6", "--gamma", "0.8"],
    ["kaleidocycle", "--n", "4"],
])
def test_t_steps_below_one_is_config_error_without_artifact(tmp_path, argv, steps):
    out = tmp_path / "artifact"
    assert run(argv + ["--t-steps", steps, "--out", str(out)]) == 2
    assert not out.exists()


def test_kaleidocycle_reports_frames_written(tmp_path, capsys):
    out = tmp_path / "anim"
    assert run(["kaleidocycle", "--n", "4", "--t-steps", "3", "--t-stop", "1.0",
                "--out", str(out)]) == 0
    assert len(list(out.glob("frame_*.csv"))) == 3
    assert "wrote 3 frame(s)" in capsys.readouterr().out


MOTION_FLAGS = [["--twisted"], ["--beta", "2.0"], ["--t-start", "0.1"],
                ["--t-stop", "1.0"], ["--t-steps", "3"]]


@pytest.mark.parametrize("flag", MOTION_FLAGS, ids=lambda f: f[0])
@pytest.mark.parametrize("argv", [
    ["ksurface", "--k", "0.6", "--gamma", "0.8", "--delta", "0.55", "--m", "4", "--n", "4"],
    ["verify"],
    ["identities"],
], ids=lambda a: a[0])
def test_motion_flags_exist_only_where_used(tmp_path, argv, flag):
    out = tmp_path / "artifact.json"
    with pytest.raises(SystemExit) as exc:
        run(argv + flag + ["--out", str(out)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_config_file_key_must_be_an_option_of_the_command(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 2.0\n")
    out = tmp_path / "mesh.obj"
    assert run(["ksurface", "--k", "0.6", "--m", "4", "--n", "4", "--config", str(cfg),
                "--out", str(out)]) == 2
    assert not out.exists()
    assert run(["curve", "--k", "0.6", "--gamma", "0.8", "--config", str(cfg),
                "--out", str(tmp_path / "c.csv")]) == 0


COMMAND_ARGV = {
    "curve": ["curve", "--k", "0.6", "--gamma", "0.8"],
    "kaleidocycle": ["kaleidocycle", "--n", "4"],
    "ksurface": ["ksurface", "--k", "0.6", "--gamma", "0.8", "--delta", "0.55",
                 "--m", "4", "--n", "4"],
    "verify": ["verify"],
    "identities": ["identities"],
}
REMOVED_OPTIONS = ([(cmd, "out-format", fmt) for cmd, fmt in
                    [("curve", "csv"), ("kaleidocycle", "csv"), ("ksurface", "obj"),
                     ("verify", "json"), ("identities", "json")]]
                   + [("curve", "frame-sign", "+"), ("ksurface", "raw-alpha", "0.5"),
                      ("verify", "family", "dn"), ("identities", "family", "dn")])


@pytest.mark.parametrize("command,option,value", REMOVED_OPTIONS)
def test_removed_options_are_config_errors(tmp_path, command, option, value):
    out = tmp_path / "artifact"
    argv = COMMAND_ARGV[command]
    with pytest.raises(SystemExit) as exc:
        run(argv + [f"--{option}", value, "--out", str(out)])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{option} = {value}\n")
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == [cfg]


NON_FINITE_OPTIONS = [("curve", "k"), ("curve", "gamma"), ("curve", "beta"),
                      ("curve", "t-start"), ("curve", "t-stop"),
                      ("kaleidocycle", "beta"), ("kaleidocycle", "t-stop"),
                      ("ksurface", "k"), ("ksurface", "gamma"), ("ksurface", "delta")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,option", NON_FINITE_OPTIONS)
def test_non_finite_values_are_config_errors(tmp_path, command, option, value):
    # a NaN or infinite parameter would otherwise reach the writers as all-nan rows
    out = tmp_path / "artifact"
    argv = COMMAND_ARGV[command] + ["--t-steps", "3"] * (command != "ksurface")
    if f"--{option}" in argv:   # the config file yields to an explicit flag
        i = argv.index(f"--{option}")
        argv = argv[:i] + argv[i + 2:]
    assert run(argv + [f"--{option}={value}", "--out", str(out)]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{option} = {value}\n")
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("gamma", ["0", str(2 * elliptic.make_modulus(0.6).K)])
def test_degenerate_curve_step_is_config_error(tmp_path, capsys, gamma):
    # sn(gamma) = 0 gives zero-length edges and no frame
    out = tmp_path / "c.csv"
    assert run(["curve", "--k", "0.6", f"--gamma={gamma}", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("family", ["dn", "cn"])
@pytest.mark.parametrize("step", ["gamma", "delta"])
def test_degenerate_ksurface_step_is_config_error(tmp_path, capsys, family, step):
    # a zero step collapses every m-edge (gamma) or every n-edge (delta)
    out = tmp_path / "s.obj"
    argv = ["ksurface", "--family", family, "--k", "0.6", "--gamma", "0.8", "--delta", "0.8",
            "--m", "4", "--n", "4", "--out", str(out)]
    argv[argv.index(f"--{step}") + 1] = "0"
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value,twisted", [("1", True), ("TRUE", True), ("yes", True),
                                           ("0", False), ("False", False), ("No", False)])
def test_config_twisted_values(tmp_path, value, twisted):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"twisted = {value}\n")
    out, ref = tmp_path / "c.csv", tmp_path / "ref.csv"
    argv = COMMAND_ARGV["curve"] + ["--m-max", "3"]
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    assert run(argv + (["--twisted"] if twisted else []) + ["--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("line", ["twisted = ture", "twisted = on", "twisted =", "k = 0,6",
                                  "m-max = 2.5", "family = xx",
                                  pytest.param(b"k = 0.6\xff", id="not-utf-8"),
                                  pytest.param(b"out = c\0.csv", id="nul-in-out")])
def test_malformed_config_values_are_config_errors(tmp_path, monkeypatch, line):
    # no --out flag, so the file's own out value is the one the command would open
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes((line if isinstance(line, bytes) else line.encode()) + b"\n")
    assert run(COMMAND_ARGV["curve"] + ["--config", str(cfg)]) == 2
    assert list(tmp_path.iterdir()) == [cfg]


def test_known_defect_probe_exits_0(tmp_path):
    # gamma = delta = K/16 at full precision once failed planarity through the
    # old incomplete-integral sn^2 primitive
    out = tmp_path / "probe.obj"
    assert run(["ksurface", "--k", "0.3", "--gamma", "0.10050303874565704",
                "--delta", "0.10050303874565704", "--m", "16", "--n", "16",
                "--out", str(out)]) == 0
    assert json.loads(out.with_suffix(".json").read_text())["residuals"]["planarity"] < 1e-12


# The options each command registers, without --config and --out.
_OPTIONS = {
    "curve": {"family", "twisted", "beta", "t_start", "t_stop", "t_steps", "k", "gamma",
              "m_min", "m_max"},
    "kaleidocycle": {"family", "twisted", "beta", "t_start", "t_stop", "t_steps", "n",
                     "m_max"},
    "ksurface": {"family", "k", "gamma", "delta", "m_count", "n_count"},
    "verify": set(),
    "identities": set(),
}


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_config_echo_keys_are_the_command_options(command):
    ns = cli._build_parser().parse_args([command])
    assert set(cli._config_echo(ns)) == _OPTIONS[command]


def test_one_parser_build_per_process(tmp_path, monkeypatch):
    # main parses the command line, and a config file's values, with the
    # parser it builds on first use
    cli._build_parser.cache_clear()
    inits = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: inits.append(1) or real(self, *a, **kw))
    out = tmp_path / "mesh.obj"
    for m in (2, 3):
        assert run(["ksurface", "--k", "0.6", "--m", str(m), "--n", "3", "--out", str(out)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 0.6\nm_count = 4\n")
    assert run(["ksurface", "--config", str(cfg), "--n", "3", "--out", str(out)]) == 0
    assert json.loads(out.with_suffix(".json").read_text())["config"]["m_count"] == 4
    # one build: the top-level parser and one subparser per command
    assert len(inits) == 1 + len(cli.COMMANDS)


def test_written_config_echoes_only_the_command_options(tmp_path):
    out = tmp_path / "mesh.obj"
    assert run(["ksurface", "--k", "0.6", "--m", "4", "--n", "5", "--out", str(out)]) == 0
    config = json.loads(out.with_suffix(".json").read_text())["config"]
    assert config == {"family": "dn", "k": 0.6, "gamma": None, "delta": None,
                      "m_count": 4, "n_count": 5}
    for command in ("verify", "identities"):
        report = tmp_path / f"{command}.json"
        assert run([command, "--out", str(report)]) == 0
        assert json.loads(report.read_text())["config"] == {}


def _command_options():
    """Every option each subparser registers, except --help and --config."""
    return [pytest.param(name, action, id=name + action.option_strings[0])
            for name, parser in cli._build_parser().commands.items()
            for action in parser._actions if action.dest not in ("help", "config")]


# A command line on which every option of the command changes the output, and
# a value for each option other than its default and its value there.
_BASE_ARGV = {
    "curve": ["curve", "--k", "0.6", "--gamma", "0.8", "--m-max", "3", "--t-steps", "2",
              "--t-stop", "1.0"],
    "kaleidocycle": ["kaleidocycle", "--n", "4", "--t-steps", "2", "--t-stop", "1.0"],
    "ksurface": ["ksurface", "--k", "0.6", "--gamma", "0.8", "--delta", "0.55",
                 "--m", "4", "--n", "3"],
    "verify": ["verify"],
    "identities": ["identities"],
}
_OPTION_VALUES = {"family": "cn", "twisted": "yes", "beta": "2.0", "t_start": "0.1",
                  "t_stop": "2.0", "t_steps": "3", "k": "0.7", "gamma": "0.9", "delta": "0.5",
                  "m_min": "-2", "m_max": "5", "n": "5", "m_count": "5", "n_count": "4"}


def _tree(root: Path) -> dict:
    return {str(f.relative_to(root)): f.read_bytes() for f in root.rglob("*") if f.is_file()}


@pytest.mark.parametrize("command,action", _command_options())
def test_a_config_value_writes_the_same_bytes_as_its_flag(tmp_path, command, action):
    flag = action.option_strings[0]
    base = _BASE_ARGV[command]
    argv = list(base)
    if flag in argv:   # the config file yields to an explicit flag
        i = argv.index(flag)
        del argv[i:i + 2]
    out = {}
    for side in ("base", "flag", "file"):
        (tmp_path / side).mkdir()
        out[side] = str(tmp_path / side / "artifact")
    cfg = tmp_path / "run.cfg"
    if action.dest == "out_path":
        cfg.write_text(f"out = {out['file']}\n")
        by_flag, by_file = ["--out", out["flag"]], []
    else:
        value = _OPTION_VALUES[action.dest]
        cfg.write_text(f"{action.dest} = {value}\n")
        by_flag = ([flag] if action.nargs == 0 else [flag, value]) + ["--out", out["flag"]]
        by_file = ["--out", out["file"]]
    assert run(base + ["--out", out["base"]]) == 0
    assert run(argv + by_flag) == 0
    assert run(argv + ["--config", str(cfg)] + by_file) == 0
    flagged = _tree(tmp_path / "flag")
    assert flagged and _tree(tmp_path / "file") == flagged
    if action.dest != "out_path":   # the option is in effect
        assert _tree(tmp_path / "base") != flagged


def test_an_explicit_flag_at_its_default_beats_the_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m-max = 4\n")
    out = tmp_path / "c.csv"
    assert run(["curve", "--k", "0.6", "--config", str(cfg), "--m-max", "12",
                "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 13


def test_ksurface_counts_default_to_20(tmp_path):
    out = tmp_path / "mesh.obj"
    assert run(["ksurface", "--k", "0.6", "--out", str(out)]) == 0
    assert sum(ln.startswith("v ") for ln in out.read_text().splitlines()) == 20 * 20
    config = json.loads(out.with_suffix(".json").read_text())["config"]
    assert (config["m_count"], config["n_count"]) == (20, 20)


def test_readme_option_table_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {}
    for commands, options in re.findall(r"^ *\| (`[a-z].*?) \| (.*?) \|$", readme, re.M):
        for name in re.findall(r"`([a-z]+)`", commands):
            documented[name] = re.findall(r"--[a-z-]+", options)
    registered = {name: [s for a in parser._actions for s in a.option_strings
                         if s not in ("-h", "--help", "--config", "--out")]
                  for name, parser in cli._build_parser().commands.items()}
    assert documented == registered


def _fresh_python(script: str) -> str:
    """Run script in a fresh interpreter that imports this checkout's package;
    returns the last line it printed."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    return res.stdout.splitlines()[-1]


def test_no_command_imports_scipy(tmp_path):
    script = f"""
import sys
from pathlib import Path
from sgsurf.cli import main
d = Path({str(tmp_path)!r})
runs = [
    ["ksurface", "--k", "0.8", "--m", "6", "--n", "6", "--out", str(d / "s.obj")],
    ["curve", "--k", "0.6", "--gamma", "0.8", "--out", str(d / "c.csv")],
    ["kaleidocycle", "--n", "4", "--t-steps", "2", "--out", str(d / "anim")],
    ["verify", "--out", str(d / "v.json")],
    ["identities"],
]
codes = [main(argv) for argv in runs]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert _fresh_python(script) == "[0, 0, 0, 0, 0] []"


GEOMETRY_MODULES = ["sgsurf", "sgsurf.cli", "sgsurf.elliptic", "sgsurf.errors",
                    "sgsurf.ksurf", "sgsurf.surfaces"]


def test_geometry_commands_do_not_import_the_suites(tmp_path):
    # nor any other module they do not run: the package namespace re-exports
    # nothing, and the field of a lattice is evaluated without loading sg
    script = f"""
import sys
from pathlib import Path
import sgsurf
names = sorted(n for n in vars(sgsurf) if not n.startswith("__"))
import sgsurf.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "sgsurf")

after_import = loaded()
d = Path({str(tmp_path)!r})
codes = [sgsurf.cli.main(argv) for argv in [
    ["ksurface", "--k", "0.8", "--m", "6", "--n", "6", "--out", str(d / "s.obj")],
    ["curve", "--k", "0.6", "--gamma", "0.8", "--out", str(d / "c.csv")],
    ["kaleidocycle", "--n", "4", "--t-steps", "2", "--out", str(d / "anim")],
]]
after_runs = loaded()
import sgsurf.frames
from sgsurf import elliptic, ksurf, surfaces
mod = elliptic.make_modulus(0.6)
surfaces.flow_angle(surfaces.SurfaceParams(mod=mod, family="dn", gamma_step=0.8,
                                           beta_rate=1.0), 0, 0.3)
surfaces.half_angles(ksurf.KParams(mod=mod, family="cn", gamma_step=0.8, delta_step=0.55), 0, 1)
print(names, codes, after_import, after_runs, "sgsurf.sg" in sys.modules)
"""
    # frames is array geometry, and a field sample is a surfaces.HalfAngle: no sg
    expected = f"[] [0, 0, 0] {GEOMETRY_MODULES} {GEOMETRY_MODULES} False"
    assert _fresh_python(script) == expected


def test_version_is_unchanged(capsys):
    import sgsurf
    assert sgsurf.__version__ == "0.1.0"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "0.1.0\n"


@pytest.mark.parametrize("argv, sites", [
    (["ksurface", "--k", "0.6", "--m", "2048", "--n", "2049"], 2048 * 2049),
    (["ksurface", "--k", "0.6", "--m", "100000", "--n", "100000"], 10 ** 10),
    (["curve", "--k", "0.6", "--m-min", "-1000", "--m-max", "1000", "--t-steps", "2100"],
     2001 * 2100),
    (["kaleidocycle", "--n", "100000000"], 2 * 10 ** 8 + 1),
    (["kaleidocycle", "--n", "6", "--m-max", "4095", "--t-steps", "1025"], 4096 * 1025),
], ids=["ksurface-2048x2049", "ksurface-1e10", "curve", "kaleidocycle-period",
        "kaleidocycle-m-max"])
def test_oversized_window_is_config_error_before_evaluation(tmp_path, monkeypatch, capsys,
                                                           argv, sites):
    def unreachable(*args, **kwargs):
        raise AssertionError("evaluated an oversized window")

    for mod, name in ((ksurf, "k_grid"), (cli, "k_grid"),
                      (surfaces, "snapshots"), (cli, "snapshots")):
        monkeypatch.setattr(mod, name, unreachable)
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert f"window of {sites} evaluated sites" in err and "limit of 4194304" in err


@pytest.mark.parametrize("argv", [
    ["ksurface", "--k", "0.6", "--m", "2048", "--n", "2048"],
    ["curve", "--k", "0.6", "--m-min", "0", "--m-max", "4095", "--t-steps", "1024"],
    ["kaleidocycle", "--n", "6", "--m-max", "4095", "--t-steps", "1024"],
], ids=["ksurface", "curve", "kaleidocycle"])
def test_window_at_the_limit_is_evaluated(tmp_path, monkeypatch, argv):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "k_grid", reached)
    monkeypatch.setattr(cli, "snapshots", reached)
    with pytest.raises(Reached):
        run(argv + ["--out", str(tmp_path / "out")])


_INT64 = 2 ** 63


@pytest.mark.parametrize("argv", [
    ["curve", "--k", "0.6", "--m-min", str(-_INT64), "--m-max", "0"],
    ["curve", "--k", "0.6", "--m-min", str(_INT64), "--m-max", str(_INT64 + 2)],
    ["curve", "--k", "0.6", "--m-min", str(-_INT64 - 1), "--m-max", str(-_INT64)],
    ["curve", "--k", "0.6", "--m-min", str(_INT64 - 1), "--m-max", str(_INT64 - 1)],
    ["kaleidocycle", "--n", str(_INT64)],
    ["kaleidocycle", "--n", "3", "--m-max", str(_INT64)],
    ["kaleidocycle", "--n", str(_INT64 // 2), "--m-max", "3"],
], ids=["curve-window", "curve-above", "curve-below", "curve-next-site", "kaleidocycle-n",
        "kaleidocycle-m-max", "kaleidocycle-period"])
def test_m_sites_beyond_int64_are_config_errors(tmp_path, capsys, argv):
    # the sites m, m + 1 and (kaleidocycle) m + period must all be int64
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("lo", [-_INT64, _INT64 - 2])
def test_m_sites_at_the_int64_edge_are_evaluated(tmp_path, monkeypatch, lo):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "snapshots", reached)
    with pytest.raises(Reached):
        run(["curve", "--k", "0.6", "--m-min", str(lo), "--m-max", str(lo),
             "--out", str(tmp_path / "out")])

import json
import subprocess
import sys

import pytest

from sgsurf import cli, elliptic
from sgsurf.errors import DomainError


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


def test_curve_inadmissible_sign_is_config_error(tmp_path):
    rc = run(["curve", "--k", "0.6", "--gamma", "0.8", "--frame-sign", "-",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_out_format_consistency(tmp_path):
    # each command has one native format; a mismatch is a config error
    rc = run(["curve", "--k", "0.6", "--gamma", "0.8", "--out-format", "obj",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = run(["curve", "--k", "0.6", "--gamma", "0.8", "--out-format", "csv",
              "--m-min", "0", "--m-max", "2", "--out", str(tmp_path / "y.csv")])
    assert rc == 0


def test_kaleidocycle_order_validation(tmp_path):
    assert run(["kaleidocycle", "--n", "2", "--out", str(tmp_path / "x")]) == 2
    cfg = tmp_path / "k.cfg"
    cfg.write_text("k = 0.6\n")  # explicit modulus is forbidden here
    assert run(["kaleidocycle", "--n", "4", "--config", str(cfg),
                "--out", str(tmp_path / "y")]) == 2


def test_run_config_dispatch(tmp_path):
    cfg = cli.RunConfig(command="curve", k=0.6, gamma=0.8, m_range=(0, 3),
                        out_path=tmp_path / "direct.csv")
    assert cli.run(cfg) == 0
    assert (tmp_path / "direct.csv").exists()


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
    assert sidecar["constraint_bypassed"] is False


def test_ksurface_determinism(tmp_path):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    args = ["ksurface", "--k", "0.6", "--gamma", "0.8", "--delta", "0.55",
            "--m", "8", "--n", "8"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()


def test_ksurface_raw_alpha_escape_hatch(tmp_path):
    # literal rotation step sin(alpha) = 0.8 sn(K/16): bypasses the family
    # constraint and is flagged in the sidecar
    mod = elliptic.make_modulus(0.8)
    raw = 0.8 * elliptic.jacobi(mod.K / 16, mod)[0]
    out = tmp_path / "fig.obj"
    rc = run(["ksurface", "--k", "0.6", "--gamma", str(mod.K / 16), "--delta", "0.7",
              "--m", "16", "--n", "16", "--raw-alpha", str(raw), "--out", str(out)])
    assert rc == 0
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["constraint_bypassed"] is True


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
    monkeypatch.setattr(cli, "run_suites", lambda which: [broken])
    rc = run(["verify", "--out", str(tmp_path / "r.json")])
    assert rc == 1


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


def test_run_config_rejects_reversed_ranges():
    with pytest.raises(DomainError):
        cli.RunConfig(command="curve", m_range=(3, 1))
    with pytest.raises(DomainError):
        cli.RunConfig(command="ksurface", n_range=(0, -1))


@pytest.mark.parametrize("m_max,rows", [(None, 9), ("11", 12), ("12", 13), ("13", 14)])
def test_kaleidocycle_m_max_is_honoured(tmp_path, m_max, rows):
    out = tmp_path / "anim"
    argv = ["kaleidocycle", "--n", "4", "--out", str(out)]
    if m_max is not None:
        argv += ["--m-max", m_max]
    assert run(argv) == 0   # m_max >= period covers the ring, so it closes
    lines = (out / "frame_0000.csv").read_text().splitlines()
    assert len(lines) == 1 + rows   # default: one period, m = 0..2n

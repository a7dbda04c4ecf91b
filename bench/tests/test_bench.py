"""Tests of the benchmark's own arithmetic, checks and tracing.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from checks import Tally, check_curve, check_ksurface, check_report  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from stats import summary, tail  # noqa: E402


def test_self_times_of_nested_spans():
    # root [0, 100] > a [10, 40] > c [20, 30];  root > b [50, 60]
    parents = [-1, 0, 1, 0]
    durations = [100, 30, 10, 10]
    own = self_times(parents, durations)
    assert list(own) == [60, 20, 10, 10]
    assert own.sum() == durations[0]


def test_layer_self_times_account_for_the_wall_time():
    tr = Tracer()
    tr.names[:] = ["cli.main", "ksurf.k_grid", "elliptic.jacobi"]
    for nid, parent, t0, t1 in [(0, -1, 0, 1000), (1, 0, 100, 900), (2, 1, 200, 300),
                                (2, 1, 400, 700)]:
        tr.name_id.append(nid)
        tr.parent.append(parent)
        tr.start.append(t0)
        tr.end.append(t1)
        tr.units.append(0)
    m = tr.layer_metrics(wall_s=1200e-9)
    assert m["cli.self_s"] == 0.0            # cli.main's own time is not a layer's work
    assert m["ksurf.self_s"] == pytest.approx(400e-9)
    assert m["elliptic.self_s"] == pytest.approx(400e-9)
    assert m["elliptic.calls"] == 2
    assert m["ksurf.k_grid_s"] == pytest.approx(800e-9)
    # cli.main's 200 self plus the 200 outside every span
    assert m["trace.unattributed_frac"] == pytest.approx(400 / 1200)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail(list(range(1, 20))) is None          # 19 samples: not even the median qualifies
    assert tail(list(range(1, 21))) == {"p": 50.0, "value": 10, "beyond": 10}
    assert tail(list(range(1, 101))) == {"p": 90.0, "value": 90, "beyond": 10}
    assert tail(list(range(1, 1001)))["p"] == 99.0
    s = summary([3.0, 1.0, 2.0], "s")
    assert (s["median"], s["samples"], s["tail"]) == (2.0, 3, None)


def _cli(argv):
    from sgsurf.cli import main
    assert main(argv) == 0


def test_corrupted_mesh_counts_as_failed(tmp_path, capsys):
    obj = tmp_path / "sheet.obj"
    _cli(["ksurface", "--k", "0.8", "--gamma", "0.1247", "--delta", "0.1247",
          "--m", "8", "--n", "8", "--out", str(obj)])
    tally = Tally()
    tally.record("good", 0, "", lambda: check_ksurface(obj, 8, 8))
    assert tally.failed_frac == 0.0
    # move one vertex off its star plane by changing a written digit
    lines = obj.read_text().split("\n")
    x, y, z = lines[27].split()[1:]
    lines[27] = f"v {x} {y} {float(z) + 1e-6!r}"
    obj.write_text("\n".join(lines))
    tally.record("corrupted", 0, "", lambda: check_ksurface(obj, 8, 8))
    assert (tally.attempted, tally.failed, tally.failed_frac) == (2, 1, 0.5)
    assert any("planarity" in p for p in tally.problems)


def test_curve_and_report_checks_recompute_from_the_numbers(tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    _cli(["curve", "--k", "0.6", "--gamma", "0.8", "--m-min", "-3", "--m-max", "3",
          "--t-steps", "2", "--t-stop", "1.0", "--out", str(csv)])
    assert check_curve(csv, -3, 3, 2) == []
    assert check_curve(csv, -3, 4, 2) != []
    report = tmp_path / "report.json"
    _cli(["identities", "--out", str(report)])
    assert check_report(report) == []
    data = json.loads(report.read_text())
    data["suites"][0]["max_residual"] = 1.0     # "pass" left true: the check must not trust it
    report.write_text(json.dumps(data))
    assert len(check_report(report)) == 1


def test_wrapping_reaches_internal_calls_and_restores():
    from sgsurf import cli, elliptic, suites, surfaces
    jacobi, commands, all_suites = surfaces.jacobi, cli.COMMANDS, suites.ALL_SUITES
    tr = Tracer()
    tr.install()
    try:
        assert surfaces.jacobi is not jacobi
        p = surfaces.SurfaceParams(mod=elliptic.make_modulus(0.6), family="dn",
                                   gamma_step=0.8, beta_rate=1.0)
        tr.clear()
        surfaces.gamma_point(p, 2, 0.5)
    finally:
        tr.uninstall()
    names = [tr.names[i] for i in tr.name_id]
    parents = list(tr.parent)
    assert names[0] == "surfaces.gamma_point"
    inner = [i for i, n in enumerate(names) if n == "elliptic.jacobi"]
    assert inner and all(parents[i] == 0 for i in inner)
    assert surfaces.jacobi is jacobi
    assert cli.COMMANDS is commands and suites.ALL_SUITES is all_suites

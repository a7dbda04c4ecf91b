"""sgsurf benchmark: drives the CLI from outside, checks every output, prints every metric.

    python3 bench/run.py --workload mesh --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it imports sgsurf from the
checkout's ``src`` and nothing else.  Load is a closed loop with one client:
each command starts only after the previous one has finished.

``--trace 0`` measures the end-to-end metrics with tracing off:
  setup_s      median wall time of a fresh ``python3 -c "import sgsurf.cli"``
  wall_s       median wall time of one round of the workload's commands, each
               run cold as its own ``python3`` process, import included
  peak_rss_mb  median over rounds of the largest child peak RSS (os.wait4)
  units_per_s  workload units per second of the same commands run warm
               in-process through ``sgsurf.cli.main``
``--trace 1`` runs the workload in-process with every layer wrapped, and
prints the per-layer metrics (see README.md).

The second-to-last line of output is a JSON report with the environment,
every metric's median, tail percentile and sample count, the failures and
the output fingerprints; the last line is the result summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from checks import Tally
from stats import summary
from workloads import WORKLOADS, build

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CLI = "import sys; from sgsurf.cli import main; sys.exit(main())"
IMPORT = "import sgsurf.cli"
SETUP_REPEATS = 7
CHILD_TIMEOUT = 150.0


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: list[str]) -> tuple[float, int, float, str]:
    """Run ``python3 ARGS`` to completion: (wall s, exit code, peak RSS MB, stderr)."""
    err_path = OUT / "child.stderr"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped by wait4, not by Popen
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, err_path.read_text(errors="replace")


class Worker:
    """A ``bench/worker.py`` child that answers one JSON line per request line."""

    def __init__(self, *args: str):
        self.err = open(OUT / "worker.stderr", "w+")
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                                     env=child_env(), cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.err, text=True)

    def request(self, line: str | None = None):
        """Send one line (or nothing) and wait for the next reply."""
        watchdog = threading.Timer(CHILD_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            if line is not None:
                self.proc.stdin.write(line + "\n")
                self.proc.stdin.flush()
            out = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not out:
            self.err.seek(0)
            raise RuntimeError(f"worker {self.proc.args[2]} died: {self.err.read()[-2000:]}")
        return json.loads(out)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT)
        self.proc.stdout.close()
        self.err.close()


def run_worker(*args: str):
    worker = Worker(*args)
    try:
        return worker.request()
    finally:
        worker.close()


# --------------------------------------------------------------- environment --

def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment() -> dict:
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append("L{} {} {}".format(_read(f"{index}/level"), _read(f"{index}/type"),
                                         _read(f"{index}/size")))
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "thread_env": THREAD_ENV,
        "platform": platform.platform(),
    }


# -------------------------------------------------------------- fingerprints --

def fingerprints() -> dict:
    """Digests of the README artifacts, compared with the stored reference."""
    digests = run_worker("fingerprints")
    ref = json.loads((BENCH / "fingerprints.json").read_text())
    status = {name: "unchanged" if ref["digests"].get(name) == d else "bytes changed"
              for name, d in digests.items()}
    return {"digests": digests, "status": status, "reference_env": ref["env"]}


# ---------------------------------------------------------------- measuring --

def import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds of self import time per top-level package, from ``-X importtime``."""
    sums = {"numpy": 0.0, "scipy": 0.0, "sgsurf": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in sums:
            sums[top] += int(self_us) * 1e-6
    return sums


def cold_round(wl, tally: Tally) -> tuple[float, float]:
    """The workload's commands, each a fresh process: (summed wall s, largest peak RSS MB)."""
    wall_sum, peak = 0.0, 0.0
    for cmd in wl.round:
        cmd.prepare()
        wall, rc, mb, err = spawn(["-c", CLI, *cmd.argv])
        tally.record(f"cold {cmd.argv[0]}", rc, err.strip()[-300:], cmd.check)
        wall_sum += wall
        peak = max(peak, mb)
    return wall_sum, peak


def untraced(wl, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Cold and warm rounds, interleaved so that both sample the whole run.

    The next round is cold when the cold rounds have so far taken no more
    time than the warm ones, so each kind gets about half of the run; a
    warm round is shorter, so it gets more samples.
    """
    setup = [spawn(["-c", IMPORT])[0] for _ in range(SETUP_REPEATS)]
    walls, rss, warm = [], [], []
    worker = Worker("warm", wl.name, str(seed))
    try:
        worker.request()   # imported and warmed up
        t0 = time.perf_counter()
        while True:
            cold_turn = sum(walls) <= sum(warm)
            if walls and warm:
                expected = statistics.median(walls if cold_turn else warm)
                if time.perf_counter() - t0 + expected > seconds:
                    break
            if cold_turn:
                wall, peak = cold_round(wl, tally)
                walls.append(wall)
                rss.append(peak)
            else:
                warm.append(worker.request("round")["seconds"])
        tally.merge(worker.request("stop"))
    finally:
        worker.close()
    stats = {
        "wall_s": summary(walls, "s"),
        "units_per_s": summary([wl.units / r for r in warm], "1/s"),
        "setup_s": summary(setup, "s"),
        "peak_rss_mb": summary(rss, "MB"),
    }
    return {k: v["median"] for k, v in stats.items()}, stats


def traced(wl, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    profiles = [import_breakdown(spawn(["-X", "importtime", "-c", IMPORT])[3])
                for _ in range(SETUP_REPEATS)]
    res = run_worker("trace", wl.name, str(seed), repr(seconds))
    tally.merge(res["ops"])
    metrics = dict(res["metrics"])
    stats = {"traced_round_s": summary(res["traced"], "s"),
             "untraced_round_s": summary(res["untraced"], "s")}
    for pkg in ("numpy", "scipy", "sgsurf"):
        stats[f"setup.{pkg}_s"] = summary([p[pkg] for p in profiles], "s")
        metrics[f"setup.{pkg}_s"] = stats[f"setup.{pkg}_s"]["median"]
    return metrics, stats


# --------------------------------------------------------------------- main --

def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sgsurf" / "cli.py").is_file():
        print(f"error: no sgsurf source under {ROOT / 'src'}; "
              "run the benchmark inside a source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)   # artifact paths handed to the CLI are relative to the checkout
    OUT.mkdir(exist_ok=True)
    spawn(["-c", IMPORT])   # compile the package's bytecode once, untimed
    fp = fingerprints()
    wl = build(args.workload, args.seed)
    defects = Tally()
    for cmd in wl.probes:   # known defects: run once, untimed, kept apart from the verdict
        cmd.prepare()
        _, rc, _, err = spawn(["-c", CLI, *cmd.argv])
        defects.record(f"probe {cmd.argv[0]}", rc, err.strip()[-300:], cmd.check)
    if defects.failed:
        print(f"warning: known defect still present: {defects.problems}", file=sys.stderr)
    tally = Tally()
    measure = traced if args.trace else untraced
    values, stats = measure(wl, args.seed, args.seconds, tally)
    if args.trace:
        values["ksurf.defect_probes_failed"] = defects.failed

    declared = declared_metrics(bool(args.trace))
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "argv": [c.argv for c in wl.round], "units_per_round": wl.units, "unit": wl.unit,
        "env": environment(), "fingerprints": fp, "stats": stats,
        "failed_frac": tally.failed_frac, "operations": tally.as_dict(),
        "known_defects": defects.as_dict(),
    }
    if args.trace:
        report["layers"] = values
    (OUT / f"report_{wl.name}_trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

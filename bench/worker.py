"""Child process of the benchmark: runs sgsurf's CLI in-process.

    python3 bench/worker.py warm  WORKLOAD SEED
    python3 bench/worker.py trace WORKLOAD SEED SECONDS
    python3 bench/worker.py fingerprints

``warm`` imports the CLI, runs the untimed warm-up and prints ``{}``; then
each ``round`` line on standard input runs one timed round of the workload's
commands through ``sgsurf.cli.main`` and prints its seconds, and ``stop``
prints the operation tally and exits.  ``trace`` alternates an untraced
round with a traced one for SECONDS and prints per-layer metrics of the
traced rounds.  ``fingerprints`` writes the README's example artifacts and
prints their digests.  Every reply is one JSON line on standard output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import Tally
from spans import Tracer
from workloads import WORK, Command, build, canonical, clear

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def import_cli():
    import sgsurf.cli as cli
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"sgsurf was imported from {cli.__file__}, not from {src}")
    return cli


def call_main(cli, argv: list[str]) -> tuple[float, int, str]:
    """(seconds, exit code, error text) of one in-process CLI call."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc, err = cli.main(argv), ""
    except SystemExit as exc:   # argparse rejected the flags
        rc, err = exc.code if isinstance(exc.code, int) else 2, "argument error"
    except Exception:           # a traceback is a failed operation, not a crash of the run
        rc, err = 1, traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return time.perf_counter() - t0, rc, err


class Ops(Tally):
    """Runs commands in-process and counts them."""

    def run(self, cli, cmd: Command) -> float:
        cmd.prepare()
        seconds, rc, err = call_main(cli, cmd.argv)
        self.record(f"in-process {cmd.argv[0]}", rc, err, cmd.check)
        return seconds


def reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def warm(cli, wl) -> dict:
    ops = Ops()
    for cmd in wl.warmup:
        ops.run(cli, cmd)
    reply({})
    for line in sys.stdin:
        if line.strip() != "round":
            break
        reply({"seconds": sum(ops.run(cli, cmd) for cmd in wl.round)})
    return ops.as_dict()


def traced(cli, wl, seconds: float) -> dict:
    ops = Ops()
    for cmd in wl.warmup:
        ops.run(cli, cmd)
    tracer = Tracer()
    plain, walls, layers = [], [], []
    t0 = time.perf_counter()
    while True:
        plain.append(sum(ops.run(cli, cmd) for cmd in wl.round))
        tracer.clear()
        tracer.install()
        try:
            walls.append(sum(ops.run(cli, cmd) for cmd in wl.round))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics(walls[-1]))
        spent = time.perf_counter() - t0
        if spent + statistics.median(plain) + statistics.median(walls) > seconds:
            break
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans_{wl.name}.npz")
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    metrics["trace.overhead_frac"] = statistics.median(walls) / statistics.median(plain) - 1.0
    return {"untraced": plain, "traced": walls, "metrics": metrics, "ops": ops.as_dict()}


def digest(path: Path) -> str:
    """SHA-256 of a file, or of a directory's sorted (name, file digest) listing."""
    if path.is_dir():
        listing = "".join(f"{p.name}\0{digest(p)}\n" for p in sorted(path.iterdir()))
        return hashlib.sha256(listing.encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprints(cli) -> dict:
    out = {}
    for name, (argv, paths) in canonical(WORK.parent / "fingerprint").items():
        for p in paths:
            clear(p)
        _, rc, err = call_main(cli, argv)
        for p in paths:
            key = name if len(paths) == 1 else f"{name}{p.suffix}"
            out[key] = digest(p) if rc == 0 and p.exists() else f"exit code {rc} {err}".strip()
    return out


def main(argv: list[str]) -> int:
    mode = argv[0]
    cli = import_cli()
    if mode == "fingerprints":
        result = fingerprints(cli)
    elif mode == "warm":
        result = warm(cli, build(argv[1], int(argv[2])))
    else:
        result = traced(cli, build(argv[1], int(argv[2])), float(argv[3]))
    reply(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

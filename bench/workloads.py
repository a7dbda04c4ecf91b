"""The benchmark's workloads: CLI argument lists generated from a seed.

The program only ever sees the generated flags.  Floats are printed with
three (k) or four (gamma) significant digits, the way the README writes its
examples, e.g. ``--k 0.8 --gamma 0.1247`` for gamma = K/16.

A workload's ``probes`` are fixed cases that the program is known to get
wrong.  Each runs once per benchmark run, untimed.  Its outcome is reported
beside the workload's own operations (``known_defects`` in the report and
the per-layer count ``ksurf.defect_probes_failed``), not in ``correct``,
``attempted`` or ``failed``, so the fix of the defect shows as that count
dropping to 0.
"""

from __future__ import annotations

import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from checks import check_curve, check_kaleidocycle, check_ksurface, check_report

WORK = Path("bench/out/work")   # artifacts, relative to the checkout root
# The README's example size.  At 256² one cold round takes about 10 s, which
# leaves a 30 s run a single cold sample; 128² leaves it about four.
MESH_SIZE = 128
CURVE_M = (-500, 500)
CURVE_T_STEPS = 8
KALEIDO_T_STEPS = 96
KALEIDO_N = 6   # the README's example


def clear(path: Path) -> None:
    """Delete a file or directory tree if present and make sure its parent exists."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


@dataclass
class Command:
    """One CLI invocation, the work it represents and the check of its output."""

    argv: list[str]
    output: Path
    units: int
    check: Callable[[], list[str]]

    def prepare(self) -> None:
        """Remove any earlier output, so a stale file can never pass the check."""
        clear(self.output)
        clear(self.output.with_suffix(".json"))


@dataclass
class Workload:
    name: str
    unit: str
    round: list[Command]     # the commands of one timed round, run in order
    warmup: list[Command]    # run once, untimed, before in-process timing
    probes: list[Command] = field(default_factory=list)   # known defects, run once, untimed

    @property
    def units(self) -> int:
        return sum(c.units for c in self.round)


def complete_k(k: float) -> float:
    """K(k) by the arithmetic-geometric mean, independent of the package under test."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(64):   # converges quadratically; rounding can stall one ulp apart
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _g(x: float, digits: int) -> str:
    return f"{x:.{digits}g}"


def _ksurface(family: str, k: str, step: str, size: int, out: Path) -> Command:
    argv = ["ksurface", "--family", family, "--k", k, "--gamma", step, "--delta", step,
            "--m", str(size), "--n", str(size), "--out", str(out)]
    return Command(argv, out, size * size, lambda: check_ksurface(out, size, size))


def mesh(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    k = _g(rng.uniform(0.3, 0.9), 3)
    step = _g(complete_k(float(k)) / 16.0, 4)
    return Workload(
        "mesh", "vertices",
        [_ksurface(f, k, step, MESH_SIZE, work / f"mesh_{f}.obj") for f in ("dn", "cn")],
        [_ksurface(f, k, step, 16, work / "warmup" / f"mesh_{f}.obj") for f in ("dn", "cn")],
        # gamma = delta = K/16 written at full precision: planarity fails (scipy
        # ellipeinc in the sn^2 primitive); the four-digit K/16 above does not hit it.
        [_ksurface("dn", "0.3", repr(complete_k(0.3) / 16.0), 16, work / "probe" / "k03.obj")])


def _curve(k: str, gamma: str, m: tuple[int, int], t_steps: int, out: Path) -> Command:
    argv = ["curve", "--k", k, "--gamma", gamma, "--m-min", str(m[0]), "--m-max", str(m[1]),
            "--t-steps", str(t_steps), "--t-stop", "2.0", "--out", str(out)]
    rows = (m[1] - m[0] + 1) * t_steps
    return Command(argv, out, rows, lambda: check_curve(out, m[0], m[1], t_steps))


def _kaleidocycle(n: int, t_steps: int, out: Path) -> Command:
    argv = ["kaleidocycle", "--n", str(n), "--t-steps", str(t_steps), "--t-stop", "6.28",
            "--out", str(out)]
    period = 2 * n   # dn family
    return Command(argv, out, t_steps * (period + 1),
                   lambda: check_kaleidocycle(out, t_steps, period))


def animate(seed: int, work: Path) -> Workload:
    # The order n is fixed: the kaleidocycle's elliptic calls grow with 2n + 1,
    # so a drawn n would change the work from seed to seed.
    n = KALEIDO_N
    rng = random.Random(seed)
    k = _g(rng.uniform(0.3, 0.9), 3)
    gamma = _g(complete_k(float(k)) * rng.uniform(0.2, 0.8), 4)
    return Workload(
        "animate", "rows",
        [_curve(k, gamma, CURVE_M, CURVE_T_STEPS, work / "curve.csv"),
         _kaleidocycle(n, KALEIDO_T_STEPS, work / "kaleidocycle")],
        [_curve(k, gamma, (-5, 5), 2, work / "warmup" / "curve.csv"),
         _kaleidocycle(n, 2, work / "warmup" / "kaleidocycle")])


def verify(seed: int, work: Path) -> Workload:
    # verify and identities run fixed grids with fixed seeds: the workload
    # seed does not reach the program here.
    def report(cmd: str, suites: int, out: Path) -> Command:
        return Command([cmd, "--out", str(out)], out, suites, lambda: check_report(out))
    rnd = [report("verify", 36, work / "verify.json"),
           report("identities", 7, work / "identities.json")]
    return Workload("verify", "suites", rnd, rnd)


# The README's example invocations, whose output bytes are fingerprinted.
def canonical(out: Path) -> dict[str, tuple[list[str], list[Path]]]:
    return {
        "curve": (["curve", "--k", "0.6", "--gamma", "0.8", "--m-min", "-10", "--m-max", "10",
                   "--t-steps", "5", "--t-stop", "2.0", "--out", str(out / "curve.csv")],
                  [out / "curve.csv"]),
        "kaleidocycle_n6": (["kaleidocycle", "--n", "6", "--t-steps", "24", "--t-stop", "6.28",
                             "--out", str(out / "anim")], [out / "anim"]),
        "ksurface_128": (["ksurface", "--family", "dn", "--k", "0.8", "--gamma", "0.1247",
                          "--delta", "0.1247", "--m", "128", "--n", "128",
                          "--out", str(out / "sheet.obj")],
                         [out / "sheet.obj", out / "sheet.json"]),
        "verify": (["verify", "--out", str(out / "report.json")], [out / "report.json"]),
    }


WORKLOADS = {"mesh": mesh, "animate": animate, "verify": verify}


def build(name: str, seed: int, work: Path = WORK) -> Workload:
    return WORKLOADS[name](seed, work)

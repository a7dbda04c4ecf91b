"""Command-line front end: geometry exports and verification reports.

Subcommands
  curve         semi-discrete surface snapshots as CSV rows (t, m, x, y, z, Bx, By, Bz)
  kaleidocycle  closed linkage, one CSV per time sample
  ksurface      OBJ quad mesh plus a JSON sidecar with edge data and residuals
  verify        run every verification suite, write a JSON report
  identities    run the special-function identity corpus only

Output is deterministic: floats are printed with 17 significant digits, JSON
keys are sorted, and all randomized suites use fixed seeds.  Exit codes:
0 success, 1 validation failure, 2 configuration error.

A flat key=value config file can seed any long option (--config FILE);
explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .elliptic import FAMILIES, make_modulus
from .errors import (DegenerateFrameError, DomainError, ValidationError, check_finite,
                     finite_or_none)
from .ksurf import KParams, k_grid
from .surfaces import _SPEED_TOL, SurfaceParams, gamma_point, kaleidocycle_params, snapshots

SCHEMA_VERSION = 1
# Most sites (vertices, or curve sites times time slices) a geometry command
# evaluates: about 250 B of peak memory each, so 1 GB at a 2048 x 2048 mesh.
MAX_SITES = 2 ** 22
# Lines formatted by one %-operation in the writers: large enough to amortise
# the per-call cost, small enough that a file is never held in memory whole.
_CHUNK_LINES = 4096


@dataclass
class RunConfig:
    """Everything one invocation needs; filled from flags and the config file."""

    command: str
    family: str = "dn"
    twisted: bool = False
    k: Optional[float] = None
    n: Optional[int] = None
    gamma: Optional[float] = None
    delta: Optional[float] = None
    beta: float = 1.0
    m_range: Optional[tuple[int, int]] = None   # kaleidocycle: None = one period
    n_range: tuple[int, int] = (0, 12)
    t_start: float = 0.0
    t_stop: float = 0.0
    t_steps: int = 1
    out_path: Optional[Path] = None

    def __post_init__(self):
        if self.m_range is None and self.command != "kaleidocycle":
            self.m_range = (0, 12)
        for name, rng in (("m", self.m_range), ("n", self.n_range)):
            if rng is not None and rng[0] > rng[1]:
                raise DomainError(f"empty {name} range {rng[0]}..{rng[1]}")
        if self.t_steps < 1:
            raise DomainError(f"--t-steps must be at least 1, got {self.t_steps}")
        check_finite(t_start=self.t_start, t_stop=self.t_stop)

    def t_samples(self) -> np.ndarray:
        if self.t_steps == 1:
            return np.array([self.t_start])
        return np.linspace(self.t_start, self.t_stop, self.t_steps)


# ----------------------------------------------------------------- writers --

def _write_lines(f, line_fmt: str, rows: np.ndarray) -> None:
    """Write each row of a 2-D array as one line of line_fmt (%-style).

    "%.17g" % x and f"{x:.17g}" agree for every float, signed zeros and
    non-finite values included; "%d" prints an integer-valued float as the
    integer.
    """
    for i in range(0, len(rows), _CHUNK_LINES):
        block = rows[i:i + _CHUNK_LINES]
        f.write((line_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_curve_csv(path: Path, snapshots) -> None:
    """Rows t,m,x,y,z,Bx,By,Bz of each snapshot in turn, 17 significant digits."""
    with path.open("w", encoding="utf-8") as f:
        f.write("t,m,x,y,z,Bx,By,Bz\n")
        for snap in snapshots:
            # t is one number per snapshot: formatted once, it leads every line
            rows = np.column_stack([snap.m_values, snap.points, snap.binormals])
            _write_lines(f, "%.17g," % float(snap.t) + "%d" + ",%.17g" * 6 + "\n", rows)


def write_obj(path: Path, points: np.ndarray) -> None:
    """Quad mesh over an (M, N, 3) array, m-then-n winding, 1-indexed faces."""
    M, N, _ = points.shape
    # vertex (i, j) is number i*N + j + 1; face (i, j) is a, a + N, a + N + 1, a + 1
    a = (np.arange(M - 1)[:, None] * N + np.arange(N - 1)[None, :] + 1).reshape(-1, 1)
    with path.open("w", encoding="utf-8") as f:
        _write_lines(f, "v %.17g %.17g %.17g\n", points.reshape(-1, 3))
        _write_lines(f, "f %d %d %d %d\n", a + np.array([0, N, N + 1, 1]))


def write_json(path: Path, payload: dict) -> None:
    """Strict JSON (RFC 8259): a non-finite float raises ValueError; callers
    write a non-finite residual as null."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
                    encoding="utf-8")


def _config_echo(cfg: RunConfig) -> dict:
    """The options of cfg.command, named as its subparser registers them
    (dests), with their configured values (None: the command's default).
    The config file and the output path say where the run's inputs and
    artifact live, not what the artifact contains, so they are left out."""
    dests = vars(_build_parser().parse_args([cfg.command]))
    ranges = {}
    for axis, (lo, hi) in (("m", cfg.m_range or (None, None)), ("n", cfg.n_range)):
        ranges.update({f"{axis}_min": lo, f"{axis}_max": hi,
                       f"{axis}_count": None if lo is None else hi - lo + 1})
    return {d: ranges[d] if d in ranges else getattr(cfg, d)
            for d in dests if d not in ("command", "config", "out_path")}


# ---------------------------------------------------------------- commands --

def _check_window(sites: int) -> None:
    if sites > MAX_SITES:
        raise DomainError(f"window of {sites} evaluated sites exceeds the limit of {MAX_SITES}")


def cmd_curve(cfg: RunConfig) -> int:
    if cfg.k is None:
        raise DomainError("curve command needs a modulus --k")
    m0, m1 = cfg.m_range
    _check_window((m1 - m0 + 1) * cfg.t_steps)
    mod = make_modulus(cfg.k)
    gamma = cfg.gamma if cfg.gamma is not None else mod.K
    p = SurfaceParams(mod=mod, family=cfg.family, gamma_step=gamma,
                      beta_rate=cfg.beta, twisted=cfg.twisted)
    # every slice is validated before the file is opened
    snaps = snapshots(p, range(m0, m1 + 1), cfg.t_samples())
    out = cfg.out_path or Path("curve.csv")
    write_curve_csv(out, snaps)
    print(f"wrote {out} ({sum(len(s.m_values) for s in snaps)} rows)")
    return 0


def cmd_kaleidocycle(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise DomainError("kaleidocycle command needs the order --n")
    if cfg.k is not None:
        raise DomainError("kaleidocycle fixes k = sin(pi/n); do not pass k")
    period = 2 * cfg.n if cfg.family == "dn" else 2
    m_hi = period if cfg.m_range is None else cfg.m_range[1]
    _check_window((m_hi + 1) * cfg.t_steps)
    p = kaleidocycle_params(cfg.n, family=cfg.family, beta_rate=cfg.beta,
                            twisted=cfg.twisted)
    samples = cfg.t_samples()
    # every frame is validated before the first file is written
    snaps = snapshots(p, range(0, m_hi + 1), samples)
    shifted = gamma_point(p, snaps[0].m_values + period, samples[:, None])
    points = np.stack([snap.points for snap in snaps])
    worst = float(np.linalg.norm(shifted - points, axis=-1).max())
    out_dir = cfg.out_path or Path("kaleidocycle")
    out_dir.mkdir(parents=True, exist_ok=True)
    for idx, snap in enumerate(snaps):
        write_curve_csv(out_dir / f"frame_{idx:04d}.csv", [snap])
    print(f"wrote {len(samples)} frame(s) to {out_dir}; closure defect {worst:.3e}")
    return 0 if worst < 1e-9 else 1


def cmd_ksurface(cfg: RunConfig) -> int:
    if cfg.k is None:
        raise DomainError("ksurface command needs a modulus --k")
    m0, m1 = cfg.m_range
    n0, n1 = cfg.n_range
    _check_window((m1 - m0 + 1) * (n1 - n0 + 1))
    mod = make_modulus(cfg.k)
    gamma = cfg.gamma if cfg.gamma is not None else mod.K
    delta = cfg.delta if cfg.delta is not None else mod.K
    p = KParams(mod=mod, family=cfg.family, gamma_step=gamma, delta_step=delta)
    # KParams admits zero-length edges (the 2K periodicity cases need them)
    if abs(p.edge_speed) < _SPEED_TOL:
        raise DegenerateFrameError("sn(gamma) = 0: zero-length m-edges")
    if abs(p.delta_speed) < _SPEED_TOL:
        raise DegenerateFrameError("sn(delta) = 0: zero-length n-edges")
    grid = k_grid(p, range(m0, m1 + 1), range(n0, n1 + 1))
    rep = grid.invariant_residuals()
    out = cfg.out_path or Path("ksurface.obj")
    write_obj(out, grid.points)
    a, b = grid.first_edge_lengths()
    sidecar = {
        "schema": SCHEMA_VERSION,
        "config": _config_echo(cfg),
        "A_m": [finite_or_none(float(x)) for x in a],
        "B_n": [finite_or_none(float(x)) for x in b],
        "residuals": {name: finite_or_none(x) for name, x in rep.items()},
    }
    write_json(out.with_suffix(".json"), sidecar)
    print(f"wrote {out} and {out.with_suffix('.json')}; "
          f"planarity {rep['planarity']:.3e}")
    return 0 if all(res <= 1e-9 for res in rep.values()) else 1


def _report(cfg: RunConfig, which: str, out: Optional[Path]) -> int:
    """Run the suites, write their report to out (if given) and print one line each."""
    from .suites import run_suites   # only the report commands pay its import
    results = run_suites(which)
    if out:
        write_json(out, {"schema": SCHEMA_VERSION, "config": _config_echo(cfg),
                         "suites": [r.as_dict() for r in results]})
    for r in results:
        bound = f" ({r.comparison} {r.tolerance:.1e})" if which == "all" else ""
        print(f"{'pass' if r.passed else 'FAIL'}  {r.name}: {r.max_residual:.3e}{bound}")
    return 0 if all(r.passed for r in results) else 1


def cmd_verify(cfg: RunConfig) -> int:
    out = cfg.out_path or Path("verify_report.json")
    code = _report(cfg, "all", out)
    print(f"report written to {out}")
    return code


def cmd_identities(cfg: RunConfig) -> int:
    return _report(cfg, "identities", cfg.out_path)


COMMANDS = {
    "curve": cmd_curve,
    "kaleidocycle": cmd_kaleidocycle,
    "ksurface": cmd_ksurface,
    "verify": cmd_verify,
    "identities": cmd_identities,
}


def run(config: RunConfig) -> int:
    """Programmatic entry point: dispatch a prepared configuration."""
    return COMMANDS[config.command](config)


# ------------------------------------------------------------------ parser --

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: ``main`` parses the command
    line with it and ``_config_echo`` reads each command's dests from it."""
    ap = argparse.ArgumentParser(
        prog="sgsurf",
        description="discrete curves, semi-discrete surfaces and K-surfaces "
                    "from elliptic sine-Gordon solutions")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="flat key=value defaults file")
        p.add_argument("--out", type=Path, dest="out_path")

    def motion(p):
        """Options of the commands that evolve a curve in time."""
        p.add_argument("--twisted", action="store_true", default=None)
        p.add_argument("--beta", type=float)
        p.add_argument("--t-start", type=float, dest="t_start")
        p.add_argument("--t-stop", type=float, dest="t_stop")
        p.add_argument("--t-steps", type=int, dest="t_steps")

    pc = sub.add_parser("curve", help="export curve snapshots as CSV")
    common(pc)
    pc.add_argument("--family", choices=FAMILIES)
    motion(pc)
    pc.add_argument("--k", type=float)
    pc.add_argument("--gamma", type=float)
    pc.add_argument("--m-min", type=int, dest="m_min")
    pc.add_argument("--m-max", type=int, dest="m_max")

    pk = sub.add_parser("kaleidocycle", help="export a closed linkage animation")
    common(pk)
    pk.add_argument("--family", choices=FAMILIES)
    motion(pk)
    pk.add_argument("--n", type=int, help="hinge half-count; modulus k = sin(pi/n)")
    pk.add_argument("--m-max", type=int, dest="m_max")

    ps = sub.add_parser("ksurface", help="export a discrete K-surface mesh")
    common(ps)
    ps.add_argument("--family", choices=FAMILIES)
    ps.add_argument("--k", type=float)
    ps.add_argument("--gamma", type=float)
    ps.add_argument("--delta", type=float)
    ps.add_argument("--m", type=int, dest="m_count", help="vertex count in m")
    ps.add_argument("--n", type=int, dest="n_count", help="vertex count in n")

    pv = sub.add_parser("verify", help="run all verification suites")
    common(pv)

    pi = sub.add_parser("identities", help="run the identity corpus")
    common(pi)
    return ap


def _load_config_file(path: Path) -> dict:
    values = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _boolean(s: str) -> bool:
    v = s.lower()
    if v not in ("1", "0", "true", "false", "yes", "no"):
        raise ValueError(f"expected 1/0, true/false or yes/no, got {s!r}")
    return v in ("1", "true", "yes")


_CONFIG_TYPES = {
    "family": str, "twisted": _boolean,
    "k": float, "n": int, "gamma": float, "delta": float, "beta": float,
    "m_min": int, "m_max": int, "m_count": int, "n_count": int,
    "t_start": float, "t_stop": float, "t_steps": int,
    "out_path": Path, "out": Path,
}


def _merge(ns: argparse.Namespace) -> RunConfig:
    raw = vars(ns).copy()
    file_vals = {}
    if raw.get("config"):
        for key, sval in _load_config_file(raw["config"]).items():
            if key not in _CONFIG_TYPES:
                raise DomainError(f"unknown config key {key!r}")
            name = "out_path" if key == "out" else key
            if name not in raw:
                raise DomainError(f"{raw['command']} has no option {key!r}")
            try:
                file_vals[name] = _CONFIG_TYPES[key](sval)
            except ValueError as exc:
                raise DomainError(f"config key {key!r}: {exc}") from None

    def pick(name, default=None):
        v = raw.get(name)
        if v is None:
            v = file_vals.get(name, default)
        return v

    ranges = {}
    m_min, m_max = pick("m_min", 0), pick("m_max")
    if raw["command"] == "ksurface":
        for axis in ("m", "n"):
            count = pick(f"{axis}_count", 20)
            if count < 1:
                raise DomainError(f"--{axis} must be at least 1, got {count}")
            ranges[f"{axis}_range"] = (0, count - 1)
    elif m_max is not None or raw["command"] == "curve":
        ranges["m_range"] = (m_min, 12 if m_max is None else m_max)
    # only what a flag or the config file set: RunConfig holds the defaults
    names = ("family", "twisted", "k", "n", "gamma", "delta", "beta",
             "t_start", "t_stop", "t_steps", "out_path")
    given = {name: pick(name) for name in names}
    return RunConfig(command=raw["command"], **ranges,
                     **{name: v for name, v in given.items() if v is not None})


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        cfg = _merge(ns)
        return COMMANDS[cfg.command](cfg)
    except (DomainError, DegenerateFrameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation failure: {exc} {exc.report}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

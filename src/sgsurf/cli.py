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
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .elliptic import make_modulus
from .errors import DomainError, ValidationError
from .ksurf import KParams, k_grid
from .suites import run_suites
from .surfaces import SurfaceParams, gamma_point, kaleidocycle_params, snapshot

SCHEMA_VERSION = 1
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
    raw_alpha: Optional[float] = None
    out_format: Optional[str] = None
    out_path: Optional[Path] = None
    frame_sign: Optional[str] = None

    _NATIVE_FORMATS = {"curve": "csv", "kaleidocycle": "csv",
                       "ksurface": "obj", "verify": "json", "identities": "json"}

    def __post_init__(self):
        native = self._NATIVE_FORMATS[self.command]
        if self.out_format is None:
            self.out_format = native
        elif self.out_format != native:
            raise DomainError(
                f"{self.command} writes {native}, not {self.out_format}")
        if self.m_range is None and self.command != "kaleidocycle":
            self.m_range = (0, 12)
        for name, rng in (("m", self.m_range), ("n", self.n_range)):
            if rng is not None and rng[0] > rng[1]:
                raise DomainError(f"empty {name} range {rng[0]}..{rng[1]}")

    def t_samples(self) -> np.ndarray:
        if self.t_steps <= 1:
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
            rows = np.column_stack([np.full(len(snap.m_values), float(snap.t)),
                                    snap.m_values, snap.points, snap.binormals])
            _write_lines(f, "%.17g,%d" + ",%.17g" * 6 + "\n", rows)


def write_obj(path: Path, points: np.ndarray) -> None:
    """Quad mesh over an (M, N, 3) array, m-then-n winding, 1-indexed faces."""
    M, N, _ = points.shape
    # vertex (i, j) is number i*N + j + 1; face (i, j) is a, a + N, a + N + 1, a + 1
    a = (np.arange(M - 1)[:, None] * N + np.arange(N - 1)[None, :] + 1).reshape(-1, 1)
    with path.open("w", encoding="utf-8") as f:
        _write_lines(f, "v %.17g %.17g %.17g\n", points.reshape(-1, 3))
        _write_lines(f, "f %d %d %d %d\n", a + np.array([0, N, N + 1, 1]))


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _config_echo(cfg: RunConfig) -> dict:
    # out_path is where the artifact lives, not part of what it contains
    d = {}
    for key, val in vars(cfg).items():
        if key == "out_path":
            continue
        if isinstance(val, tuple):
            val = list(val)
        d[key] = val
    return d


# ---------------------------------------------------------------- commands --

def _surface_params(cfg: RunConfig) -> SurfaceParams:
    if cfg.k is None:
        raise DomainError("curve command needs a modulus --k")
    mod = make_modulus(cfg.k)
    gamma = cfg.gamma if cfg.gamma is not None else mod.K
    sign = cfg.frame_sign or ("-" if cfg.twisted else "+")
    return SurfaceParams(mod=mod, family=cfg.family, gamma_step=gamma,
                         beta_rate=cfg.beta, twisted=cfg.twisted, frame_sign=sign)


def cmd_curve(cfg: RunConfig) -> int:
    p = _surface_params(cfg)
    m0, m1 = cfg.m_range
    # every slice is validated before the file is opened
    snaps = [snapshot(p, range(m0, m1 + 1), float(t)) for t in cfg.t_samples()]
    out = cfg.out_path or Path("curve.csv")
    write_curve_csv(out, snaps)
    print(f"wrote {out} ({sum(len(s.m_values) for s in snaps)} rows)")
    return 0


def cmd_kaleidocycle(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise DomainError("kaleidocycle command needs the order --n")
    if cfg.k is not None:
        raise DomainError("kaleidocycle fixes k = sin(pi/n); do not pass k")
    p = kaleidocycle_params(cfg.n, family=cfg.family, beta_rate=cfg.beta,
                            twisted=cfg.twisted)
    period = 2 * cfg.n if cfg.family == "dn" else 2
    m_hi = period if cfg.m_range is None else cfg.m_range[1]
    out_dir = cfg.out_path or Path("kaleidocycle")
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0.0
    for idx, t in enumerate(cfg.t_samples()):
        snap = snapshot(p, range(0, m_hi + 1), float(t))
        write_curve_csv(out_dir / f"frame_{idx:04d}.csv", [snap])
        shifted = gamma_point(p, snap.m_values + period, float(t))
        worst = max(worst, float(np.linalg.norm(shifted - snap.points, axis=1).max()))
    print(f"wrote {cfg.t_steps} frame(s) to {out_dir}; closure defect {worst:.3e}")
    return 0 if worst < 1e-9 else 1


def cmd_ksurface(cfg: RunConfig) -> int:
    if cfg.k is None:
        raise DomainError("ksurface command needs a modulus --k")
    mod = make_modulus(cfg.k)
    gamma = cfg.gamma if cfg.gamma is not None else mod.K
    delta = cfg.delta if cfg.delta is not None else mod.K
    p = KParams(mod=mod, family=cfg.family, gamma_step=gamma, delta_step=delta)
    if cfg.raw_alpha is not None:
        # literal rotation step, bypassing the angle constraint of the family
        if not -1.0 <= cfg.raw_alpha <= 1.0:
            raise DomainError(f"raw-alpha must be a sine value in [-1, 1], got {cfg.raw_alpha}")
        object.__setattr__(p, "alpha_step", math.asin(cfg.raw_alpha))
    m0, m1 = cfg.m_range
    n0, n1 = cfg.n_range
    grid = k_grid(p, range(m0, m1 + 1), range(n0, n1 + 1))
    rep = grid.invariant_residuals()
    out = cfg.out_path or Path("ksurface.obj")
    write_obj(out, grid.points)
    a, b = grid.edge_lengths()
    sidecar = {
        "schema": SCHEMA_VERSION,
        "config": _config_echo(cfg),
        "A_m": [float(x) for x in a[:, 0]],
        "B_n": [float(x) for x in b[0, :]],
        "residuals": rep,
        "constraint_bypassed": cfg.raw_alpha is not None,
    }
    write_json(out.with_suffix(".json"), sidecar)
    print(f"wrote {out} and {out.with_suffix('.json')}; "
          f"planarity {rep['planarity']:.3e}")
    if cfg.raw_alpha is None and max(rep.values()) > 1e-9:
        return 1
    return 0


def _report(cfg: RunConfig, which: str) -> tuple[dict, bool]:
    results = run_suites(which)
    report = {
        "schema": SCHEMA_VERSION,
        "config": _config_echo(cfg),
        "suites": [r.as_dict() for r in results],
    }
    return report, all(r.passed for r in results)


def cmd_verify(cfg: RunConfig) -> int:
    report, ok = _report(cfg, "all")
    out = cfg.out_path or Path("verify_report.json")
    write_json(out, report)
    for entry in report["suites"]:
        mark = "pass" if entry["pass"] else "FAIL"
        print(f"{mark}  {entry['name']}: {entry['max_residual']:.3e} "
              f"({entry['comparison']} {entry['tolerance']:.1e})")
    print(f"report written to {out}")
    return 0 if ok else 1


def cmd_identities(cfg: RunConfig) -> int:
    report, ok = _report(cfg, "identities")
    if cfg.out_path:
        write_json(cfg.out_path, report)
    for entry in report["suites"]:
        mark = "pass" if entry["pass"] else "FAIL"
        print(f"{mark}  {entry['name']}: {entry['max_residual']:.3e}")
    return 0 if ok else 1


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

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sgsurf",
        description="discrete curves, semi-discrete surfaces and K-surfaces "
                    "from elliptic sine-Gordon solutions")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="flat key=value defaults file")
        p.add_argument("--out", type=Path, dest="out_path")
        p.add_argument("--out-format", choices=("csv", "obj", "json"), dest="out_format")
        p.add_argument("--family", choices=("dn", "cn"))
        p.add_argument("--twisted", action="store_true", default=None)
        p.add_argument("--beta", type=float)
        p.add_argument("--t-start", type=float, dest="t_start")
        p.add_argument("--t-stop", type=float, dest="t_stop")
        p.add_argument("--t-steps", type=int, dest="t_steps")

    pc = sub.add_parser("curve", help="export curve snapshots as CSV")
    common(pc)
    pc.add_argument("--k", type=float)
    pc.add_argument("--gamma", type=float)
    pc.add_argument("--m-min", type=int, dest="m_min")
    pc.add_argument("--m-max", type=int, dest="m_max")
    pc.add_argument("--frame-sign", choices=("+", "-"), dest="frame_sign")

    pk = sub.add_parser("kaleidocycle", help="export a closed linkage animation")
    common(pk)
    pk.add_argument("--n", type=int, help="hinge half-count; modulus k = sin(pi/n)")
    pk.add_argument("--m-max", type=int, dest="m_max")

    ps = sub.add_parser("ksurface", help="export a discrete K-surface mesh")
    common(ps)
    ps.add_argument("--k", type=float)
    ps.add_argument("--gamma", type=float)
    ps.add_argument("--delta", type=float)
    ps.add_argument("--m", type=int, dest="m_count", help="vertex count in m")
    ps.add_argument("--n", type=int, dest="n_count", help="vertex count in n")
    ps.add_argument("--raw-alpha", type=float, dest="raw_alpha",
                    help="literal sin(alpha), bypassing the family constraint")

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


_CONFIG_TYPES = {
    "family": str, "twisted": lambda s: s.lower() in ("1", "true", "yes"),
    "k": float, "n": int, "gamma": float, "delta": float, "beta": float,
    "m_min": int, "m_max": int, "m_count": int, "n_count": int,
    "t_start": float, "t_stop": float, "t_steps": int,
    "raw_alpha": float, "out_format": str, "out_path": Path, "out": Path,
    "frame_sign": str,
}


def _merge(ns: argparse.Namespace) -> RunConfig:
    raw = vars(ns).copy()
    file_vals = {}
    if raw.get("config"):
        for key, sval in _load_config_file(raw["config"]).items():
            if key not in _CONFIG_TYPES:
                raise DomainError(f"unknown config key {key!r}")
            file_vals["out_path" if key == "out" else key] = _CONFIG_TYPES[key](sval)

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
    return RunConfig(
        command=raw["command"],
        family=pick("family", "dn"),
        twisted=bool(pick("twisted", False)),
        k=pick("k"),
        n=pick("n"),
        gamma=pick("gamma"),
        delta=pick("delta"),
        beta=pick("beta", 1.0),
        t_start=pick("t_start", 0.0),
        t_stop=pick("t_stop", 0.0),
        t_steps=pick("t_steps", 1),
        raw_alpha=pick("raw_alpha"),
        out_format=pick("out_format"),
        out_path=pick("out_path"),
        frame_sign=pick("frame_sign"),
        **ranges,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    try:
        cfg = _merge(ns)
        return COMMANDS[cfg.command](cfg)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation failure: {exc} {exc.report}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

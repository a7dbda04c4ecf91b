"""Command-line front end: geometry exports and verification reports.

Subcommands
  curve         a semi-discrete surface's (t, m) window as CSV rows t,m,x,y,z,Bx,By,Bz
  kaleidocycle  closed linkage, one CSV per time sample
  ksurface      OBJ quad mesh plus a JSON sidecar with edge data and residuals
  verify        run every verification suite, write a JSON report
  identities    run the special-function identity corpus only

Output is deterministic: floats are printed with 17 significant digits, JSON
keys are sorted, and every suite runs over fixed cases and point sets.  Exit
codes: 0 success, 1 validation failure, 2 configuration error.

A flat key=value config file (--config FILE) can set any option of the
command: its keys are the options' dests (hyphens or underscores, ``out`` for
--out), and explicit flags win over file values.  ``_build_parser`` is the one
table of options, their types, choices and defaults.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .elliptic import FAMILIES, make_modulus
from .errors import (DegenerateFrameError, DomainError, ValidationError, check_finite,
                     finite_or_none)
from .ksurf import KParams, k_grid
from .surfaces import (_SPEED_TOL, SurfaceParams, gamma_point, kaleidocycle_params,
                       kaleidocycle_period, snapshots)

SCHEMA_VERSION = 1
# Most sites (vertices, or curve sites times time slices) a geometry command
# evaluates: 137-152 B of peak memory each (574 MB at a 2048 x 2048 mesh).
MAX_SITES = 2 ** 22
# Values the writers format per call of the text kernel (``_text.format_rows``):
# each writer's block is the fixed number of its rows that holds this many, so
# that a block's memory (under 1 MB) is bounded at any window and numpy's
# per-call cost is amortised.
_BLOCK_VALUES = 4608


# ----------------------------------------------------------------- writers --

_OBJ_VERTEX = (b"v ", b" ", b" ", b"\n")
_OBJ_FACE = (b"f ", b" ", b" ", b" ", b"\n")
_CSV_HEADER = b"t,m,x,y,z,Bx,By,Bz\n"
_CSV_ROW = (b"",) + (b",",) * 7 + (b"\n",)


def _csv_pieces(w):
    """(time index, text) pieces of the CSV rows t,m,x,y,z,Bx,By,Bz of a curve
    window, time by time: a block of rows is formatted at a time, across
    times, and each block's text is cut where a time's rows begin."""
    from . import _text   # the text kernel loads with the first geometry write
    M, rows = len(w.ms), len(w.ts) * len(w.ms)
    block = _BLOCK_VALUES // 8
    for lo in range(0, rows, block):
        i, j = np.divmod(np.arange(lo, min(lo + block, rows)), M)
        text = _text.format_rows(_CSV_ROW, [w.ts[i], w.ms[j], *w.points[i, j].T,
                                            *w.binormals[i, j].T])
        ends = np.flatnonzero(text == ord("\n")) + 1
        heads = np.flatnonzero(j[1:] == 0)   # row r + 1 opens the next time
        cuts = [0, *ends[heads], len(text)]
        for t, a, b in zip(i[[0, *(heads + 1)]].tolist(), cuts, cuts[1:]):
            yield t, text[a:b]


def write_curve_csv(path: Path, window) -> None:
    """Rows t,m,x,y,z,Bx,By,Bz of a curve window, time by time, 17 significant digits."""
    with path.open("wb") as f:
        f.write(_CSV_HEADER)
        for _, text in _csv_pieces(window):
            f.write(text)


def write_frames(out_dir: Path, window) -> None:
    """One file frame_0000.csv, frame_0001.csv, ... per time of a curve window,
    each holding that time's rows as ``write_curve_csv`` writes them; the rows
    of all the times are formatted in one pass."""
    for idx, pieces in itertools.groupby(_csv_pieces(window), key=operator.itemgetter(0)):
        with (out_dir / f"frame_{idx:04d}.csv").open("wb") as f:
            f.write(_CSV_HEADER)
            for _, text in pieces:
                f.write(text)


def write_obj(path: Path, points: np.ndarray) -> None:
    """Quad mesh over an (M, N, 3) array, m-then-n winding, 1-indexed faces."""
    from . import _text
    M, N, _ = points.shape
    vertices = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    faces = (M - 1) * (N - 1)
    with path.open("wb") as f:
        block = _BLOCK_VALUES // 3
        for lo in range(0, M * N, block):
            f.write(_text.format_rows(_OBJ_VERTEX, vertices[lo:lo + block].T))
        # vertex (i, j) is number i*N + j + 1; face (i, j) is a, a + N, a + N + 1, a + 1
        block = _BLOCK_VALUES // 4
        for lo in range(0, faces, block):
            i, j = np.divmod(np.arange(lo, min(lo + block, faces)), N - 1)
            a = i * N + j + 1
            f.write(_text.format_rows(_OBJ_FACE, [a, a + N, a + N + 1, a + 1]))


def write_json(path: Path, payload: dict) -> None:
    """Strict JSON (RFC 8259): a non-finite float raises ValueError; callers
    write a non-finite residual as null."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
                    encoding="utf-8")


def _config_echo(ns: argparse.Namespace) -> dict:
    """The options of the parsed command, keyed by dest, with their values.
    The config file and the output path say where the run's inputs and
    artifact live, not what the artifact contains, so they are left out."""
    return {d: v for d, v in vars(ns).items() if d not in ("command", "config", "out_path")}


# ---------------------------------------------------------------- commands --

def _check_window(sites: int) -> None:
    if sites > MAX_SITES:
        raise DomainError(f"window of {sites} evaluated sites exceeds the limit of {MAX_SITES}")


def _m_values(lo: int, hi: int, reach: int) -> range:
    """The sites lo..hi, checked to be non-empty and int64 up to hi + reach."""
    if lo > hi:
        raise DomainError(f"empty m range {lo}..{hi}")
    if lo < -2 ** 63 or hi + reach >= 2 ** 63:
        raise DomainError(f"m range {lo}..{hi} (evaluated up to m + {reach}) "
                          "leaves the 64-bit integers")
    return range(lo, hi + 1)


def _t_samples(ns: argparse.Namespace, ms: range) -> np.ndarray:
    """The time samples of a motion command, after checking --t-steps, the
    times, and the window of sites ms per slice times --t-steps slices."""
    if ns.t_steps < 1:
        raise DomainError(f"--t-steps must be at least 1, got {ns.t_steps}")
    check_finite(t_start=ns.t_start, t_stop=ns.t_stop)
    if ns.t_steps == 1 and ns.t_stop not in (None, ns.t_start):
        raise DomainError(f"--t-stop {ns.t_stop} needs --t-steps of at least 2 "
                          f"(one step samples --t-start {ns.t_start} alone)")
    # not len(ms): a range longer than sys.maxsize has no length
    _check_window((ms.stop - ms.start) * ns.t_steps)
    return np.linspace(ns.t_start, 0.0 if ns.t_stop is None else ns.t_stop, ns.t_steps)


def cmd_curve(ns: argparse.Namespace) -> int:
    if ns.k is None:
        raise DomainError("curve command needs a modulus --k")
    ms = _m_values(ns.m_min, ns.m_max, 1)
    ts = _t_samples(ns, ms)
    mod = make_modulus(ns.k)
    gamma = ns.gamma if ns.gamma is not None else mod.K
    p = SurfaceParams(mod=mod, family=ns.family, gamma_step=gamma,
                      beta_rate=ns.beta, twisted=ns.twisted)
    # every slice is validated before the file is opened
    window = snapshots(p, ms, ts)
    write_curve_csv(ns.out_path, window)
    print(f"wrote {ns.out_path} ({len(window.ts) * len(window.ms)} rows)")
    return 0


def cmd_kaleidocycle(ns: argparse.Namespace) -> int:
    if ns.n is None:
        raise DomainError("kaleidocycle command needs the order --n")
    # the lattice checks the order before the period and window derive from it
    p = kaleidocycle_params(ns.n, family=ns.family, beta_rate=ns.beta,
                            twisted=ns.twisted)
    period = kaleidocycle_period(ns.n, ns.family)
    # closure compares each site m with m + period, evaluating only images past the window
    ms = _m_values(0, period if ns.m_max is None else ns.m_max, period)
    samples = _t_samples(ns, ms)
    # every frame is validated before the first file is written
    window = snapshots(p, ms, samples)
    pts, inside = window.points, max(len(ms) - period, 0)
    beyond = gamma_point(p, window.ms[inside:] + period, samples[:, None])
    gaps = (np.linalg.norm(pts[:, period:] - pts[:, :inside], axis=-1),
            np.linalg.norm(beyond - pts[:, inside:], axis=-1))
    worst = float(np.concatenate(gaps, axis=1).max())   # a NaN gap propagates
    out_dir = ns.out_path
    out_dir.mkdir(parents=True, exist_ok=True)
    write_frames(out_dir, window)
    print(f"wrote {len(samples)} frame(s) to {out_dir}; closure defect {worst:.3e}")
    return 0 if worst < 1e-9 else 1


def cmd_ksurface(ns: argparse.Namespace) -> int:
    if ns.k is None:
        raise DomainError("ksurface command needs a modulus --k")
    for flag, count in (("--m", ns.m_count), ("--n", ns.n_count)):
        if count < 1:
            raise DomainError(f"{flag} must be at least 1, got {count}")
    _check_window(ns.m_count * ns.n_count)
    mod = make_modulus(ns.k)
    gamma = ns.gamma if ns.gamma is not None else mod.K
    delta = ns.delta if ns.delta is not None else mod.K
    p = KParams(mod=mod, family=ns.family, gamma_step=gamma, delta_step=delta)
    # KParams admits zero-length edges (the 2K periodicity cases need them)
    if abs(p.edge_speed) < _SPEED_TOL:
        raise DegenerateFrameError("sn(gamma) = 0: zero-length m-edges")
    if abs(p.delta_speed) < _SPEED_TOL:
        raise DegenerateFrameError("sn(delta) = 0: zero-length n-edges")
    grid = k_grid(p, range(ns.m_count), range(ns.n_count))
    rep = grid.invariant_residuals()
    out = ns.out_path
    write_obj(out, grid.points)
    a, b = grid.first_edge_lengths()
    sidecar = {
        "schema": SCHEMA_VERSION,
        "config": _config_echo(ns),
        "A_m": [finite_or_none(float(x)) for x in a],
        "B_n": [finite_or_none(float(x)) for x in b],
        "residuals": {name: finite_or_none(x) for name, x in rep.items()},
    }
    write_json(out.with_suffix(".json"), sidecar)
    print(f"wrote {out} and {out.with_suffix('.json')}; "
          f"planarity {rep['planarity']:.3e}")
    return 0 if all(res <= 1e-9 for res in rep.values()) else 1


def _report(ns: argparse.Namespace, which: str) -> int:
    """Run the suites, write their report to --out (if set) and print one line each."""
    from .suites import run_suites   # only the report commands pay its import
    results = run_suites(which)
    if ns.out_path:
        write_json(ns.out_path, {"schema": SCHEMA_VERSION, "config": _config_echo(ns),
                                 "suites": [r.as_dict() for r in results]})
    for r in results:
        bound = f" ({r.comparison} {r.tolerance:.1e})" if which == "all" else ""
        print(f"{'pass' if r.passed else 'FAIL'}  {r.name}: {r.max_residual:.3e}{bound}")
    return 0 if all(r.passed for r in results) else 1


def cmd_verify(ns: argparse.Namespace) -> int:
    code = _report(ns, "all")
    print(f"report written to {ns.out_path}")
    return code


def cmd_identities(ns: argparse.Namespace) -> int:
    return _report(ns, "identities")


COMMANDS = {
    "curve": cmd_curve,
    "kaleidocycle": cmd_kaleidocycle,
    "ksurface": cmd_ksurface,
    "verify": cmd_verify,
    "identities": cmd_identities,
}


# ------------------------------------------------------------------ parser --

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process, and the one table of options:
    each option's type, choices and default are declared here and nowhere
    else.  The commands read the namespace it parses, and ``main`` checks
    config-file values with the same actions, found through ``ap.commands``
    (command name -> its subparser)."""
    ap = argparse.ArgumentParser(
        prog="sgsurf",
        description="discrete curves, semi-discrete surfaces and K-surfaces "
                    "from elliptic sine-Gordon solutions")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = {}

    def command(name, summary, out):
        p = ap.commands[name] = sub.add_parser(name, help=summary)
        p.add_argument("--config", type=Path, help="flat key=value defaults file")
        p.add_argument("--out", type=Path, dest="out_path", default=out)
        return p

    def geometry(name, summary, out):
        p = command(name, summary, out)
        p.add_argument("--family", choices=FAMILIES, default="dn")
        return p

    def motion(p):
        """Options of the commands that evolve a curve in time."""
        p.add_argument("--twisted", action="store_true")
        p.add_argument("--beta", type=float, default=1.0)
        p.add_argument("--t-start", type=float, default=0.0)
        p.add_argument("--t-stop", type=float, help="default: 0.0; needs --t-steps >= 2")
        p.add_argument("--t-steps", type=int, default=1)

    pc = geometry("curve", "export curve snapshots as CSV", "curve.csv")
    motion(pc)
    pc.add_argument("--k", type=float)
    pc.add_argument("--gamma", type=float, help="default: K")
    pc.add_argument("--m-min", type=int, default=0)
    pc.add_argument("--m-max", type=int, default=12)

    pk = geometry("kaleidocycle", "export a closed linkage animation", "kaleidocycle")
    motion(pk)
    pk.add_argument("--n", type=int, help="hinge half-count; modulus k = sin(pi/n)")
    pk.add_argument("--m-max", type=int, help="default: one period, 2n (dn) or 2 (cn)")

    ps = geometry("ksurface", "export a discrete K-surface mesh", "ksurface.obj")
    ps.add_argument("--k", type=float)
    ps.add_argument("--gamma", type=float, help="default: K")
    ps.add_argument("--delta", type=float, help="default: K")
    ps.add_argument("--m", type=int, dest="m_count", default=20, help="vertex count in m")
    ps.add_argument("--n", type=int, dest="n_count", default=20, help="vertex count in n")

    command("verify", "run all verification suites", "verify_report.json")
    command("identities", "run the identity corpus", None)
    return ap


def _load_config_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if "\0" in text:   # no option value or path holds one
        raise DomainError(f"{path}: holds a NUL byte")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
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


def _config_tokens(parser: argparse.ArgumentParser, path: Path) -> list[str]:
    """The flags that set the options of a config file, keyed by dest (or
    ``out``).  Each value is checked by the action that parses its flag, so a
    bad key or value raises DomainError here instead of argparse's SystemExit."""
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    actions["out"] = actions["out_path"]
    tokens = []
    for key, value in _load_config_file(path).items():
        if key not in actions:
            raise DomainError(f"{parser.prog} has no option {key!r}")
        action = actions[key]
        try:
            parsed = (_boolean if action.nargs == 0 else action.type or str)(value)
        except ValueError as exc:
            raise DomainError(f"config key {key!r}: {exc}") from None
        if action.choices is not None and parsed not in action.choices:
            raise DomainError(f"config key {key!r}: {value!r} is not one of {action.choices}")
        flag = action.option_strings[0]
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif parsed:   # a switch such as --twisted
            tokens.append(flag)
    return tokens


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = ap.parse_args(argv)
    try:
        if ns.config is not None:
            # file values go first: argparse keeps the last value of a flag,
            # so the command line's own flags win
            tokens = _config_tokens(ap.commands[ns.command], ns.config)
            ns = ap.parse_args([ns.command, *tokens, *argv[argv.index(ns.command) + 1:]])
        return COMMANDS[ns.command](ns)
    except (DomainError, DegenerateFrameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation failure: {exc} {exc.report}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

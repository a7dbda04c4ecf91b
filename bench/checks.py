"""Independent checks of the CLI's artifacts, recomputed from the written digits.

None of these trusts the program's own residuals: each file is parsed again,
its counts are compared with the requested sizes, and the geometric
invariants are recomputed from the printed numbers.  Every check returns a
list of problems; an empty list means the artifact passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9
CSV_HEADER = "t,m,x,y,z,Bx,By,Bz"


class Tally:
    """Operations attempted and failed; a failure is a nonzero exit or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, rc: int, err: str, check) -> None:
        """Count one finished operation; its output is checked only if it exited 0."""
        problems = check() if rc == 0 else [f"exit code {rc} {err}".strip()]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems[:5]]

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.problems += other["problems"]

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems[:20]}

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _lines(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    if not text.endswith("\n"):
        raise ValueError("missing final newline")
    return text[:-1].split("\n")


def _worst(label: str, value: float, problems: list[str]) -> None:
    if not value <= TOL:
        problems.append(f"{label} {value:.3e} > {TOL:g}")


def parse_obj(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(vertices (V, 3), faces (F, 4)) of an OBJ file with v lines before f lines."""
    lines = _lines(path)
    nv = sum(1 for line in lines if line.startswith("v "))
    vs, fs = lines[:nv], lines[nv:]
    if any(not line.startswith("v ") for line in vs) or any(not line.startswith("f ") for line in fs):
        raise ValueError("lines other than v-then-f records")
    verts = np.array([line[2:].split(" ") for line in vs], dtype=np.float64)
    faces = np.array([line[2:].split(" ") for line in fs], dtype=np.int64)
    if verts.shape[1:] != (3,) or (faces.size and faces.shape[1:] != (4,)):
        raise ValueError("wrong field count in v or f records")
    return verts, faces.reshape(-1, 4)


def check_ksurface(path: Path, m: int, n: int) -> list[str]:
    """OBJ quad mesh of an m x n K-surface, plus its JSON sidecar."""
    try:
        verts, faces = parse_obj(path)
        sidecar = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    problems = []
    if len(verts) != m * n:
        problems.append(f"{path.name}: {len(verts)} vertices, expected {m * n}")
    if len(faces) != (m - 1) * (n - 1):
        problems.append(f"{path.name}: {len(faces)} faces, expected {(m - 1) * (n - 1)}")
    if problems:
        return problems
    i, j = np.meshgrid(np.arange(m - 1), np.arange(n - 1), indexing="ij")
    a = (i * n + j + 1).ravel()
    expect = np.stack([a, a + n, a + n + 1, a + 1], axis=1)
    if not np.array_equal(faces, expect):
        problems.append(f"{path.name}: faces are not the m-then-n quad winding")
    P = verts.reshape(m, n, 3)
    A = np.linalg.norm(P[1:, :] - P[:-1, :], axis=2)   # m-edges, (m-1, n)
    B = np.linalg.norm(P[:, 1:] - P[:, :-1], axis=2)   # n-edges, (m, n-1)
    # equal opposite edges, i.e. each row of m-edges and column of n-edges constant
    _worst(f"{path.name}: m-edge length spread", float(np.abs(np.diff(A, axis=1)).max(initial=0.0)), problems)
    _worst(f"{path.name}: n-edge length spread", float(np.abs(np.diff(B, axis=0)).max(initial=0.0)), problems)
    # planar vertex stars: every triple of the four star edges is coplanar
    if m > 2 and n > 2:
        c = P[1:-1, 1:-1]
        e = [P[2:, 1:-1] - c, P[:-2, 1:-1] - c, P[1:-1, 2:] - c, P[1:-1, :-2] - c]
        triple = max(float(np.abs((np.cross(e[x], e[y]) * e[z]).sum(axis=2)).max())
                     for x, y, z in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
        _worst(f"{path.name}: vertex-star planarity", triple, problems)
    # the sidecar's edge lengths must match the mesh it describes
    try:
        side_a = np.array(sidecar["A_m"], dtype=np.float64)
        side_b = np.array(sidecar["B_n"], dtype=np.float64)
        dev = max(float(np.abs(side_a - A[:, 0]).max(initial=0.0)),
                  float(np.abs(side_b - B[0, :]).max(initial=0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"{path.name}: sidecar edge data unusable: {exc}")
    else:
        _worst(f"{path.name}: sidecar vs mesh edge lengths", dev, problems)
    return problems


def parse_curve_csv(path: Path) -> np.ndarray:
    """Rows of a curve CSV as an (R, 8) float array; m is exact in float64."""
    lines = _lines(path)
    if lines[0] != CSV_HEADER:
        raise ValueError(f"header {lines[0]!r}")
    rows = np.array([line.split(",") for line in lines[1:]], dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != 8:
        raise ValueError("rows do not have 8 fields")
    return rows


def _chain_problems(label: str, rows: np.ndarray) -> list[str]:
    """Invariants of one untwisted curve snapshot with consecutive m."""
    problems = []
    m = rows[:, 1]
    if not np.array_equal(np.diff(m), np.ones(len(m) - 1)):
        problems.append(f"{label}: m values not consecutive")
        return problems
    P, B = rows[:, 2:5], rows[:, 5:8]
    _worst(f"{label}: |B| - 1", float(np.abs(np.linalg.norm(B, axis=1) - 1.0).max()), problems)
    edge = P[1:] - P[:-1]
    _worst(f"{label}: edge identity", float(np.abs(edge - np.cross(B[1:], B[:-1])).max(initial=0.0)), problems)
    length = np.linalg.norm(edge, axis=1)
    if length.size:
        _worst(f"{label}: edge length spread", float(length.max() - length.min()), problems)
    return problems


def check_curve(path: Path, m_min: int, m_max: int, t_steps: int) -> list[str]:
    try:
        rows = parse_curve_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    count = m_max - m_min + 1
    if rows.shape[0] != count * t_steps:
        return [f"{path.name}: {rows.shape[0]} rows, expected {count * t_steps}"]
    problems = []
    for s in range(t_steps):
        block = rows[s * count:(s + 1) * count]
        if np.unique(block[:, 0]).size != 1 or block[0, 1] != m_min:
            problems.append(f"{path.name}: time block {s} malformed")
            continue
        problems += _chain_problems(f"{path.name}[t={block[0, 0]:g}]", block)
    return problems


def check_kaleidocycle(out_dir: Path, frames: int, period: int) -> list[str]:
    """One CSV per time sample, each a chain m = 0..period whose ends coincide."""
    names = sorted(p.name for p in out_dir.glob("*.csv")) if out_dir.is_dir() else []
    expect = [f"frame_{i:04d}.csv" for i in range(frames)]
    if names != expect:
        return [f"{out_dir.name}: {len(names)} frame files, expected {frames}"]
    problems = []
    for name in names:
        try:
            rows = parse_curve_csv(out_dir / name)
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: unreadable: {exc}")
            continue
        if rows.shape[0] != period + 1 or rows[0, 1] != 0:
            problems.append(f"{name}: {rows.shape[0]} rows, expected m = 0..{period}")
            continue
        problems += _chain_problems(name, rows)
        # the points close up after one period; the binormals of an odd order flip sign
        _worst(f"{name}: ring closure", float(np.abs(rows[-1, 2:5] - rows[0, 2:5]).max()), problems)
    return problems


def check_report(path: Path) -> list[str]:
    """A verify/identities report: every suite passes, recomputed from its numbers."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        suites = report["suites"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    problems = []
    if report.get("schema") != 1 or not suites:
        problems.append(f"{path.name}: schema {report.get('schema')!r} with {len(suites)} suites")
    if len({s.get("name") for s in suites}) != len(suites):
        problems.append(f"{path.name}: duplicate suite names")
    for s in suites:
        try:
            res, tol, cmp = float(s["max_residual"]), float(s["tolerance"]), s["comparison"]
            ok = math.isfinite(res) and (res > tol if cmp == "gt" else cmp == "lt" and res < tol)
            if not (ok and s["pass"] is True):
                problems.append(f"{path.name}: suite {s['name']} fails "
                                f"({res:.3e} {cmp} {tol:.1e}, pass={s['pass']})")
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{path.name}: malformed suite entry: {exc}")
    return problems

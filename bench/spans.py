"""Span tracing of sgsurf's layers, done from outside the package.

Every public function and public method of each layer module is replaced by
a wrapper that records one span (name, start, end, parent) in memory.  The
modules import each other by name (``from .elliptic import jacobi``) and keep
functions in tuples and dicts (``ALL_SUITES``, ``cli.COMMANDS``), so the
wrapper is bound in every ``sgsurf.*`` namespace and container that holds the
original; ``uninstall`` puts every original back.

A span's self time is its duration minus the durations of its child spans.
The library is single-threaded, so children never overlap and that
difference is exactly the time not covered by children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("elliptic", "theta", "sg", "frames", "tau", "surfaces", "ksurf",
          "suites", "cli")

# The 36 verification suites, as named in sgsurf.suites without "suite_".
SUITES = (
    "legendre", "jacobi_identities", "jacobi_vs_theta", "addition_formulae",
    "elliptic_identity_corpus", "sn2_integral", "theta_addition",
    "theta_lattice_doubling", "theta_jacobi_quotients", "weierstrass_scalars",
    "theta_modular", "semi_sg_residuals", "discrete_sg_residuals",
    "sg_sensitivity", "surface_edges", "surface_speed", "surface_torsion",
    "surface_flow", "surface_flow_orthogonality", "surface_flow_components",
    "solution_linkage", "surface_curvature", "kaleidocycle_closure",
    "tau_equivalence", "tau_bilinear", "tau_cauchy_riemann", "tau_conjugation",
    "tau_F_reality", "tau_eta_consistency", "ksurf_axioms", "ksurf_edges",
    "ksurf_torsions", "ksurf_compatibility", "ksurf_compat_sensitivity",
    "ksurf_angle_identity", "ksurf_periodicity",
)

WRITERS = ("cli.write_curve_csv", "cli.write_obj", "cli.write_json")

# The root of every traced command.  Its self time (argument parsing, config
# merging, printing) belongs to no layer's work, so it counts as unattributed.
ROOT_SPAN = "cli.main"


# Work counts recorded on a span when its function returns.
def _samples(args, result) -> int:
    """Sample count of an elliptic call: the size of its first argument."""
    a0 = args[0] if args else None
    if hasattr(a0, "size"):
        return int(a0.size)
    return 1 if isinstance(a0, (int, float)) else 0


def _units_for(name: str):
    if name.startswith("elliptic."):
        return _samples
    if name == "ksurf.k_grid":
        return lambda args, grid: grid.points.shape[0] * grid.points.shape[1]
    if name == "surfaces.snapshot":
        return lambda args, snap: len(snap.m_values)
    if name in WRITERS:
        return lambda args, result: Path(args[0]).stat().st_size
    if name.startswith("suites.suite_"):
        return lambda args, res: 0 if res.passed else 1
    return None


def self_times(parents, durations) -> np.ndarray:
    """Per-span self time: duration minus the summed durations of direct children."""
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(durations, dtype=np.float64)
    has = parents >= 0
    covered = np.bincount(parents[has], weights=dur[has], minlength=len(dur))
    return dur - covered


class Tracer:
    """Wraps the layers of one imported sgsurf and records spans while installed."""

    def __init__(self, package: str = "sgsurf"):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._restore: list[tuple] = []
        self.clear()

    def clear(self) -> None:
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.units = array("q")
        self.raised: list[tuple[int, str]] = []
        self._stack: list[int] = []

    # ---------------------------------------------------------- wrapping --

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        units = _units_for(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.units.append(0)
            stack.append(idx)
            t0 = clock()
            tracer.start.append(t0)
            tracer.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[idx] = clock()
                stack.pop()
                tracer.raised.append((idx, type(exc).__name__))
                raise
            tracer.end[idx] = clock()
            stack.pop()
            if units is not None:
                tracer.units[idx] = units(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and rebind them everywhere."""
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(self.package + "."))]
        swap = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{self.package}.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    swap[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        public = not mname.startswith("_") or mname == "__post_init__"
                        if public and inspect.isfunction(meth):
                            setattr(obj, mname, self._wrap(f"{layer}.{attr}.{mname}", meth))
                            self._restore.append((obj, mname, meth))

        def swapped(obj):
            hit = swap.get(id(obj))
            if hit is not None and hit[0] is obj:
                return hit[1]
            if isinstance(obj, (tuple, list)):
                new = [swapped(x) for x in obj]
                if any(a is not b for a, b in zip(new, obj)):
                    return type(obj)(new)
            elif isinstance(obj, dict):
                new = {k: swapped(v) for k, v in obj.items()}
                if any(new[k] is not v for k, v in obj.items()):
                    return new
            return obj

        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                new = swapped(obj)
                if new is not obj:
                    setattr(mod, attr, new)
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- analysis --

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "units": np.frombuffer(self.units, dtype=np.int64).copy(),
        }

    def save(self, path: Path) -> None:
        """Write the recorded spans (one row per span) and the name table."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer counts and times of the spans recorded since ``clear``."""
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]) * 1e-9
        own = self_times(parent, dur)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        incl_s = np.bincount(nid, weights=dur, minlength=k)
        units = np.bincount(nid, weights=a["units"], minlength=k)
        by = {name: i for i, name in enumerate(self.names)}

        def total(arr, names):
            return float(sum(arr[by[n]] for n in names if n in by))

        def in_layer(layer):
            return [n for n in self.names if n.split(".", 1)[0] == layer]

        def rate(n, s):
            return n / s if s > 0 else 0.0

        out: dict[str, float] = {}
        for layer in LAYERS:
            names = in_layer(layer)
            out[f"{layer}.calls"] = total(calls, names)
            out[f"{layer}.self_s"] = total(self_s, [n for n in names if n != ROOT_SPAN])
        samples = total(units, in_layer("elliptic"))
        out["elliptic.samples"] = samples
        out["elliptic.samples_per_call"] = rate(samples, out["elliptic.calls"])
        grid_s = total(incl_s, ["ksurf.k_grid"])
        out["ksurf.k_grid_s"] = grid_s
        out["ksurf.invariant_residuals_s"] = total(incl_s, ["ksurf.KGrid.invariant_residuals"])
        out["ksurf.vertices_per_s"] = rate(total(units, ["ksurf.k_grid"]), grid_s)
        snap_s = total(incl_s, ["surfaces.snapshot"])
        out["surfaces.snapshot_s"] = snap_s
        out["surfaces.sites_per_s"] = rate(total(units, ["surfaces.snapshot"]), snap_s)
        layer_of = [n.split(".", 1)[0] for n in self.names]
        out["theta.overflow_errors"] = float(sum(
            1 for idx, exc in self.raised
            if exc == "ThetaOverflowError" and layer_of[nid[idx]] == "theta"
            and (parent[idx] < 0 or layer_of[nid[parent[idx]]] != "theta")))
        out["tau.gamma_from_tau_calls"] = total(calls, ["tau.gamma_from_tau"])
        suite_names = [f"suites.suite_{s}" for s in SUITES]
        out["suites.failed"] = total(units, suite_names)
        for s in SUITES:
            out[f"suites.{s}_s"] = total(incl_s, [f"suites.suite_{s}"])
        write_s = total(incl_s, WRITERS)
        nbytes = total(units, WRITERS)
        out["cli.write_s"] = write_s
        out["cli.bytes_written"] = nbytes
        out["cli.files_written"] = total(calls, WRITERS)
        out["cli.write_mb_per_s"] = rate(nbytes / 1e6, write_s)
        attributed = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        out["trace.unattributed_frac"] = (wall_s - attributed) / wall_s if wall_s > 0 else 0.0
        out["trace.spans"] = float(len(nid))
        return out

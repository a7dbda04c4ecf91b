"""The suite registry: one reduction for every suite, NaN-safe, and the suite
list that `verify`, `identities` and the benchmark's tracer read."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgsurf import cli, elliptic, ksurf, sg, suites, surfaces, tau, theta
from sgsurf.errors import ValidationError
from test_acceptance import IDENTITY_CORPUS


def _bench_suite_names():
    """SUITES of bench/spans.py, loaded from its file without touching sys.path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans_for_tests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SUITES


def test_registry_matches_the_benchmark_and_the_identity_corpus():
    # a renamed suite would make the benchmark's per-suite time read 0
    assert [f.__name__ for f in suites.ALL_SUITES] == [f"suite_{s}" for s in _bench_suite_names()]
    for fn in suites.ALL_SUITES:
        assert getattr(suites, fn.__name__) is fn
    names = [r.name for r in suites.run_suites("identities")]
    assert sorted(names) == sorted(IDENTITY_CORPUS)
    # identities keeps verify's order
    order = [fn().name for fn in suites.ALL_SUITES if fn.identity]
    assert names == order


def _nan_rows(real):
    def fake(*args, **kwargs):
        out = np.array(real(*args, **kwargs))
        out[1] = np.nan
        return out
    return fake


def _nan_site(real):
    """real, with the point and normal of one site NaN (site 1, or the only one)."""
    def fake(*args):
        out = tuple(np.array(x) for x in real(*args))
        for x in out:
            x.reshape(-1, 3)[min(1, x.size // 3 - 1)] = np.nan
        return out
    return fake


def _all_nan(real):
    """real, with every value it returns NaN."""
    def fake(*args):
        return tuple(np.full_like(x, np.nan) for x in real(*args))
    return fake


# every suite that evaluates a curve through the closed form, directly
CURVE_SUITES = ["suite_surface_edges", "suite_surface_speed", "suite_surface_torsion",
                "suite_surface_flow", "suite_surface_flow_orthogonality",
                "suite_kaleidocycle_closure", "suite_tau_equivalence",
                "suite_tau_eta_consistency"]
# every suite that evaluates a theta series
THETA_SUITES = ["suite_jacobi_vs_theta", "suite_theta_addition", "suite_theta_lattice_doubling",
                "suite_theta_jacobi_quotients", "suite_weierstrass_scalars", "suite_theta_modular",
                "suite_tau_equivalence", "suite_tau_bilinear", "suite_tau_cauchy_riemann",
                "suite_tau_conjugation", "suite_tau_F_reality", "suite_tau_eta_consistency"]


@pytest.mark.parametrize("target, attr, fake, failing", [
    # every residual of the lattice equation is NaN
    (sg, "discrete_sg_residual", lambda p, m, n: np.full(np.broadcast(m, n).shape, np.nan),
     ["suite_discrete_sg_residuals"]),
    # one NaN curve point: the per-site norms around it are NaN
    (surfaces, "gamma_point", _nan_rows(surfaces.gamma_point),
     ["suite_surface_speed", "suite_kaleidocycle_closure"]),
    # a NaN defect must fail the "lt" suite and the "gt" sensitivity suite alike
    (ksurf, "compat_matrices", lambda *args: math.nan,
     ["suite_ksurf_compatibility", "suite_ksurf_compat_sensitivity"]),
    # one NaN site of the curve evaluator, whichever public function a suite calls
    (surfaces, "_closed_form", _nan_site(surfaces._closed_form), CURVE_SUITES),
    # NaN theta sums must reach every theta and tau residual
    (theta, "_series", _all_nan(theta._series), THETA_SUITES),
], ids=["discrete_sg_residual", "gamma_point", "compat_matrices", "closed_form", "theta_series"])
def test_a_nan_residual_fails_the_suite(monkeypatch, target, attr, fake, failing):
    monkeypatch.setattr(target, attr, fake)
    with np.errstate(invalid="ignore"):   # NaN / NaN in the residuals
        results = [getattr(suites, name)() for name in failing]
    assert all(math.isnan(r.max_residual) and not r.passed for r in results), results


@pytest.mark.parametrize("target, attr, fake, failing", [
    (surfaces, "_closed_form", _nan_site(surfaces._closed_form), CURVE_SUITES),
    (theta, "_series", _all_nan(theta._series), THETA_SUITES),
], ids=["closed_form", "theta_series"])
def test_nan_probes_fail_their_suites_after_a_full_run(monkeypatch, target, attr, fake, failing):
    # the suites keep their lattices and moduli across runs, never an
    # evaluated array: a probe set after a full run still reaches every suite
    assert all(r.passed for r in suites.run_suites())
    monkeypatch.setattr(target, attr, fake)
    with np.errstate(invalid="ignore"):
        results = [getattr(suites, name)() for name in failing]
    assert all(math.isnan(r.max_residual) and not r.passed for r in results), results


def test_a_fresh_verify_round_builds_each_constant_once(monkeypatch):
    caches = [elliptic._modulus] + [f for f in vars(suites).values() if hasattr(f, "cache_clear")]
    for cache in caches:
        cache.cache_clear()
    reductions = []
    real = theta._thetas

    def counted(js, p, *args):
        reductions.append(js)
        return real(js, p, *args)

    # tau holds a binding of its own
    monkeypatch.setattr(theta, "_thetas", counted)
    monkeypatch.setattr(tau, "_thetas", counted)
    suites.run_suites()
    suites.run_suites("identities")
    # 12 distinct k: MODULI_WIDE, 1e-6, 0.999, 0.7 and five kaleidocycle orders
    assert elliptic._modulus.cache_info().misses == 12
    # one band reduction per theta call of a suite window or tau evaluation,
    # every index it needs at once (228 when each index reduced on its own)
    assert len(reductions) == 104


def test_surface_and_tau_suites_share_one_lattice_set_per_modulus():
    # every suite reads its lattices from _curves and _ksurfaces, so a fresh
    # round builds one cached set per modulus and no more: curves over
    # MODULI_WIDE (the semi-discrete field), K-surfaces over MODULI
    suites._curves.cache_clear()
    suites._ksurfaces.cache_clear()
    suites.run_suites("all")
    assert suites._curves.cache_info().currsize == len(suites.MODULI_WIDE)
    assert suites._ksurfaces.cache_info().currsize == len(suites.MODULI)


def test_points_are_cached_read_only_and_inside_their_box():
    lo, hi = (0.0, -0.8, -0.5, -6.0), (1.5, 0.8, 0.5, 7.0)
    x = suites._points(40, lo, hi)
    assert x.shape == (4, 40) and suites._points(40, lo, hi) is x
    with pytest.raises(ValueError):
        x[0, 0] = 0.0
    assert ((np.array(lo)[:, None] <= x) & (x < np.array(hi)[:, None])).all()
    u = suites._points(25, -4.0, 4.0)
    assert u.shape == (25,) and ((-4.0 <= u) & (u < 4.0)).all()


def test_conjugation_symmetry_samples_every_integer_m(monkeypatch):
    ms = []
    real = tau.tau_sample

    def recorded(p, m, *args, **kwargs):
        ms.extend(np.ravel(m).tolist())
        return real(p, m, *args, **kwargs)

    monkeypatch.setattr(tau, "tau_sample", recorded)
    assert suites.suite_tau_conjugation().passed
    assert sorted(set(ms)) == list(range(-6, 7))


SNAPSHOT_SUITES = ["suite_surface_flow_components", "suite_surface_curvature"]


@pytest.mark.parametrize("name", SNAPSHOT_SUITES)
def test_a_nan_curve_point_stops_the_snapshot_suites(monkeypatch, name):
    # these suites read frames off a validated curve window, which refuses a NaN
    # point with ValidationError; the runner records that as a NaN value
    monkeypatch.setattr(surfaces, "_closed_form", _nan_site(surfaces._closed_form))
    result = getattr(suites, name)()
    assert math.isnan(result.max_residual) and not result.passed
    assert result.as_dict()["max_residual"] is None


def test_verify_reports_every_suite_when_a_snapshot_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(surfaces, "_closed_form", _nan_site(surfaces._closed_form))
    out = tmp_path / "report.json"
    with np.errstate(invalid="ignore"):
        assert cli.main(["verify", "--out", str(out)]) == 1
    entries = json.loads(out.read_text())["suites"]
    assert len(entries) == len(suites.ALL_SUITES) == 36
    # the report keeps registration order; exactly the curve suites fail, all with null
    failing = {fn.__name__: e for fn, e in zip(suites.ALL_SUITES, entries) if not e["pass"]}
    assert sorted(failing) == sorted(CURVE_SUITES + SNAPSHOT_SUITES)
    assert all(e["max_residual"] is None for e in failing.values())


@pytest.mark.parametrize("comparison", ["lt", "gt"])
def test_a_suite_that_yields_nothing_fails(monkeypatch, comparison):
    monkeypatch.setattr(suites, "ALL_SUITES", list(suites.ALL_SUITES))

    # no cases at all, and cases that each yield nothing
    @suites.suite("test.no_cases", 1.0, comparison, cases=lambda: ())
    def suite_no_cases(case):
        yield case

    @suites.suite("test.empty_cases", 1.0, comparison, cases=lambda: (1, 2))
    def suite_empty_cases(case):
        yield from ()

    assert suites.ALL_SUITES[-2:] == [suite_no_cases, suite_empty_cases]
    for run in suites.ALL_SUITES[-2:]:
        result = run()
        assert math.isnan(result.max_residual) and not result.passed


@pytest.mark.parametrize("comparison", ["lt", "gt"])
def test_a_case_that_raises_validation_error_reads_nan(monkeypatch, comparison):
    monkeypatch.setattr(suites, "ALL_SUITES", list(suites.ALL_SUITES))

    @suites.suite("test.bad_case", 1.0, comparison, cases=lambda: (0.5, None, 2.0))
    def suite_bad_case(case):
        if case is None:
            raise ValidationError("snapshot violates curve invariants", {})
        yield case

    # the first case's finite residual does not survive the second case's failure
    result = suite_bad_case()
    assert math.isnan(result.max_residual) and not result.passed


def test_values_reduce_to_the_largest_or_smallest_max_abs(monkeypatch):
    monkeypatch.setattr(suites, "ALL_SUITES", list(suites.ALL_SUITES))
    items = ([0.5, -2.0], np.array([[-3.0], [1.0]]), -1.5, np.array([]))

    # the items spread over several cases reduce as one sequence would
    @suites.suite("test.lt", 10.0, cases=lambda: ((0,), (1, 2), (), (3,)))
    def suite_lt_cases(case):
        yield from (items[i] for i in case)

    @suites.suite("test.gt", 1.0, "gt", cases=lambda: ((1,), (0, 3), (2,)))
    def suite_gt_cases(case):
        yield from (items[i] for i in case)

    assert suite_lt_cases().as_dict() == {"name": "test.lt", "max_residual": 3.0,
                                          "tolerance": 10.0, "comparison": "lt", "pass": True}
    # an empty item is 0.0, so the smallest value fails the sensitivity check
    result = suite_gt_cases()
    assert result.max_residual == 0.0 and not result.passed

    # without the empty item the smallest is 1.5, from the last case
    @suites.suite("test.gt_nonzero", 1.0, "gt", cases=lambda: ((1,), (0,), (2,)))
    def suite_gt_nonzero(case):
        yield from (items[i] for i in case)

    result = suite_gt_nonzero()
    assert result.max_residual == 1.5 and result.passed


# numpy's float64 arcsin, sinh, cosh and exp return different last bits at
# each SIMD dispatch level, so the reports are pinned per level: native
# AVX-512 (X86_V4), NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
# (X86_V3), and that setting plus X86_V3 (X86_V2)
REPORT_DIGESTS = {
    "X86_V4": {
        "verify": "9cfd3384f41d0eec23737780a061dfee31c9e5d1ae0c6e1c828335af09d159f6",
        "identities": "d8f5cc7de4d39908eff64a8465b3f4c34bea313b904397efc2d5c49c96591d36",
    },
    "X86_V3": {
        "verify": "7935e5fd291ca64cd29f3326a9e3a5a02fca7b3e54da85e001d2d5e9ed88794d",
        "identities": "813e3f804c66d1d56153206ea38e3b45b5513e8334f4b367075f4b849b5e0117",
    },
    "X86_V2": {
        "verify": "5315677386c6d6fbb4d76df8795c5d740bd3ea54b9dc49a08ef8db269d0e8487",
        "identities": "b0b562a82c16b7f3fcaccb967e41c1cb8f486024405b588b7cdaac157503ad8a",
    },
}


def _dispatch_level() -> str:
    """The highest x86-64 level numpy dispatches to in this process.
    ``__cpu_features__`` is a private numpy name; it reads False for a
    feature that NPY_DISABLE_CPU_FEATURES turned off."""
    from numpy._core._multiarray_umath import __cpu_features__ as features
    return next((level for level in ("X86_V4", "X86_V3", "X86_V2") if features.get(level)),
                "baseline")


@pytest.mark.parametrize("command", ["identities", "verify"])
def test_report_bytes_are_pinned(monkeypatch, tmp_path, command):
    """The report bytes of ``verify`` and ``identities``: every residual is
    printed to the last bit, so a change of evaluation order shows here.  A
    change that moves a digest updates it and records the old and new values
    in CHANGES.md.  No case is drawn from numpy's random streams, whose
    values numpy does not keep across versions: the bytes hold with
    ``default_rng`` refusing every call and every suite cache cold."""
    def refuse(*args, **kwargs):
        raise AssertionError("a suite drew from np.random")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for cache in (f for f in vars(suites).values() if hasattr(f, "cache_clear")):
        cache.cache_clear()
    out = tmp_path / f"{command}.json"
    assert cli.main([command, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    level = _dispatch_level()
    assert level in REPORT_DIGESTS, f"no digests pinned for {level}: {command} {digest}"
    assert digest == REPORT_DIGESTS[level][command]


# The README's example commands, as bench/workloads.py::canonical runs them,
# and the digests of the geometry they write, pinned per level like
# REPORT_DIGESTS: the Landen descent's arcsin reaches every artifact but the
# curve's.  A directory's digest is that of its sorted (name, file digest)
# listing.
GEOMETRY_COMMANDS = {
    "curve": (["curve", "--k", "0.6", "--gamma", "0.8", "--m-min", "-10", "--m-max", "10",
               "--t-steps", "5", "--t-stop", "2.0"], ["curve.csv"]),
    "kaleidocycle_n6": (["kaleidocycle", "--n", "6", "--t-steps", "24", "--t-stop", "6.28"],
                        ["anim"]),
    "ksurface_128": (["ksurface", "--family", "dn", "--k", "0.8", "--gamma", "0.1247",
                      "--delta", "0.1247", "--m", "128", "--n", "128"],
                     ["sheet.obj", "sheet.json"]),
}
_CURVE = "23f6ace12c81b1c3af040f25cb05267da7cd982738966c6cef874e46ea551717"
_WITHOUT_V4 = {
    "curve": _CURVE,
    "kaleidocycle_n6": "48d7d872c768c16bfbbb82d603224ed05b1354a3bdd5dcccb84ee8c60201e565",
    "ksurface_128.obj": "e3515d3c7afdb7b4306178706211a94e195d4521dae183f2ff0371ee42730487",
    "ksurface_128.json": "c105c76b205bfb649387b35182b06f0ef1139a15f1e7b86d095ee9fa7d37538b",
}
GEOMETRY_DIGESTS = {
    "X86_V4": {
        "curve": _CURVE,
        "kaleidocycle_n6": "a9e8c6903c9842d6318680ea5b4762734f99ac56ca62b26e556108b6dff354f5",
        "ksurface_128.obj": "bc1b8e479a5531a5928b8cda2ee0e10ceef14c1f9921471a16be2448c89463a3",
        "ksurface_128.json": "b34c34a240974eb6cbc66165e133b7f88859cec4f0a11d972bb424a62a559e62",
    },
    "X86_V3": _WITHOUT_V4,
    "X86_V2": _WITHOUT_V4,
}


def _digest(path: Path) -> str:
    if path.is_dir():
        listing = "".join(f"{p.name}\0{_digest(p)}\n" for p in sorted(path.iterdir()))
        return hashlib.sha256(listing.encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_geometry_bytes_are_pinned(tmp_path):
    """The bytes of the README's geometry examples at this dispatch level:
    every float of every artifact is printed to the last bit, so a change of
    evaluation order or of the text kernel shows here."""
    digests = {}
    for name, (argv, outputs) in GEOMETRY_COMMANDS.items():
        assert cli.main(argv + ["--out", str(tmp_path / outputs[0])]) == 0
        for out in outputs:
            key = name if len(outputs) == 1 else name + Path(out).suffix
            digests[key] = _digest(tmp_path / out)
    level = _dispatch_level()
    assert level in GEOMETRY_DIGESTS, f"no digests pinned for {level}: {digests}"
    assert digests == GEOMETRY_DIGESTS[level]


# NPY_DISABLE_CPU_FEATURES settings that cap numpy's dispatch at each level below X86_V4
_LEVEL_CAPS = {"X86_V3": "X86_V4 AVX512_ICL AVX512_SPR",
               "X86_V2": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"}
# the child runs this module's digest tests, then states its level (importing the
# module first would bypass pytest's assertion rewriting, which prints the digests);
# hypothesis's plugin, which no digest test uses, imports hypothesis (about 1 s) at exit
_CHILD = """
import sys, pytest
code = pytest.main([sys.argv[1], "-q", "--tb=short", "-p", "no:cacheprovider",
                    "-p", "no:hypothesispytest", "-k", "pinned"])
from test_suites import _dispatch_level
print("dispatch level", _dispatch_level())
sys.exit(code)
"""


@pytest.mark.parametrize("level", list(_LEVEL_CAPS))
def test_digests_hold_at_each_dispatch_level_below_this_one(level):
    """The ``-k pinned`` digest tests, re-run in a child process whose numpy
    dispatches at ``level``: NPY_DISABLE_CPU_FEATURES is set in the child's
    environment only, so one run checks every row of REPORT_DIGESTS and
    GEOMETRY_DIGESTS that this host offers.  ``__cpu_features__`` is a private
    numpy name."""
    from numpy._core._multiarray_umath import __cpu_features__ as features
    if not features.get(level):
        pytest.skip(f"numpy does not offer {level} in this process")
    if _dispatch_level() == level:
        pytest.skip(f"{level} is this process's own level, checked in-process")
    here = Path(__file__).resolve()
    path = [str(Path(cli.__file__).parents[1]), str(here.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=_LEVEL_CAPS[level],
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(here)], cwd=here.parents[1],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.stdout.endswith(f"dispatch level {level}\n"), proc.stdout + proc.stderr
    assert proc.returncode == 0, f"digests at {level}:\n{proc.stdout}{proc.stderr}"

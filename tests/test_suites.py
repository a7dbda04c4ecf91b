"""The suite registry: one reduction for every suite, NaN-safe, and the suite
list that `verify`, `identities` and the benchmark's tracer read."""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sgsurf import cli, elliptic, ksurf, sg, suites, surfaces, theta
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
    monkeypatch.setattr(theta, "_thetas",
                        lambda js, v, p: reductions.append(js) or real(js, v, p))
    suites.run_suites()
    suites.run_suites("identities")
    # 12 distinct k: MODULI_WIDE, 1e-6, 0.999, 0.7 and five kaleidocycle orders
    assert elliptic._modulus.cache_info().misses == 12
    # one band reduction per theta call of a suite window or tau evaluation,
    # every index it needs at once (228 when each index reduced on its own)
    assert len(reductions) == 104


def test_surface_and_tau_suites_share_one_lattice_set_per_modulus():
    # the curve suites and the tau suites read the same four lattices of each
    # modulus, so a fresh round builds one cached set per modulus and no more
    suites._curves.cache_clear()
    suites.run_suites("all")
    assert suites._curves.cache_info().currsize == len(suites.MODULI)


SNAPSHOT_SUITES = ["suite_surface_flow_components", "suite_surface_curvature"]


@pytest.mark.parametrize("name", SNAPSHOT_SUITES)
def test_a_nan_curve_point_stops_the_snapshot_suites(monkeypatch, name):
    # these suites read frames off a validated snapshot, which refuses a NaN
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


REPORT_DIGESTS = {
    "verify": "6b5e17766ed151a5c047ae7a96918d01dbc55306702424d2998789f58811ff66",
    "identities": "b4cd5210b0daf3b3db42deba378303ce88d70593279bcfb32edc931b3a15513a",
}


@pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
def test_report_bytes_are_pinned(tmp_path, command):
    """The report bytes of ``verify`` and ``identities``: every residual is
    printed to the last bit, so a change of evaluation order shows here.  A
    change that moves a digest updates it and records the old and new values
    in CHANGES.md."""
    out = tmp_path / f"{command}.json"
    assert cli.main([command, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_DIGESTS[command]

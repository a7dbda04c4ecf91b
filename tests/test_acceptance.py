"""Acceptance gate: every criterion runs at its stated tolerance and prints a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion summary."""

import json

import pytest

from sgsurf import cli, suites


@pytest.fixture(scope="module")
def all_results():
    return {r.name: r for r in suites.run_suites("all")}


def _check(label, results, names):
    rows = [results[n] for n in names]
    ok = all(r.passed for r in rows)
    detail = "; ".join(
        f"{r.name}={r.max_residual:.2e}{'<' if r.comparison == 'lt' else '>'}{r.tolerance:.0e}"
        for r in rows)
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_special_function_core(all_results):
    _check("1 special-function core", all_results,
           ["elliptic.legendre_relation", "elliptic.jacobi_vs_theta_oracle",
            "elliptic.pythagorean_identities"])


# the suites that `sgsurf identities` runs (tests/test_suites.py pins the registry to it)
IDENTITY_CORPUS = ["theta.addition_identities", "theta.lattice_doubling_identities",
                   "theta.jacobi_quotients", "theta.weierstrass_scalars",
                   "theta.modular_identity", "elliptic.shifted_identity_corpus",
                   "elliptic.addition_formulae"]


def test_criterion_2_identity_corpus(all_results):
    _check("2 identity corpus", all_results, IDENTITY_CORPUS)


def test_criterion_3_sg_residuals(all_results):
    _check("3 sine-Gordon residual suites", all_results,
           ["sg.semi_discrete_residuals", "sg.discrete_residuals",
            "sg.perturbation_sensitivity"])


def test_criterion_4_surface_geometry(all_results):
    _check("4 surface geometry", all_results,
           ["surfaces.edge_identity", "surfaces.constant_speed",
            "surfaces.binormal_angle_invariance"])


def test_criterion_5_isoperimetric_flow(all_results):
    _check("5 isoperimetric flow", all_results,
           ["surfaces.flow_vs_finite_difference",
            "surfaces.flow_binormal_orthogonality", "surfaces.flow_components"])


def test_criterion_6_tau_oracle(all_results):
    _check("6 tau-oracle equivalence", all_results,
           ["tau.matches_closed_forms", "tau.bilinear_relations",
            "tau.analytic_pairing_fd"])


def test_criterion_7_kaleidocycle_closure(all_results):
    _check("7 kaleidocycle closure", all_results,
           ["surfaces.kaleidocycle_closure"])


def test_criterion_8_ksurface_axioms(all_results):
    _check("8 K-surface axioms", all_results,
           ["ksurf.definition_axioms", "ksurf.edge_identities",
            "ksurf.compatibility_on_solutions", "ksurf.compatibility_sensitivity",
            "ksurf.periodicity_cases"])


def test_criterion_9_cli_determinism(tmp_path, all_results):
    args = ["curve", "--k", "0.6", "--gamma", "0.8", "--m-min", "-5", "--m-max", "5",
            "--t-steps", "3", "--t-stop", "1.0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    csv_ok = a.read_bytes() == b.read_bytes()

    margs = ["ksurface", "--k", "0.6", "--gamma", "0.8", "--delta", "0.55",
             "--m", "8", "--n", "8"]
    ma, mb = tmp_path / "a.obj", tmp_path / "b.obj"
    assert cli.main(margs + ["--out", str(ma)]) == 0
    assert cli.main(margs + ["--out", str(mb)]) == 0
    obj_ok = (ma.read_bytes() == mb.read_bytes()
              and ma.with_suffix(".json").read_bytes() == mb.with_suffix(".json").read_bytes())

    report_path = tmp_path / "verify.json"
    rc = cli.main(["verify", "--out", str(report_path)])
    report = json.loads(report_path.read_text())
    verify_ok = rc == 0 and all(e["pass"] for e in report["suites"])
    ok = csv_ok and obj_ok and verify_ok
    print(f"[{'PASS' if ok else 'FAIL'}] 9 CLI determinism: csv_identical={csv_ok} "
          f"obj_identical={obj_ok} verify_all_pass={verify_ok}")
    assert ok

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sgsurf import elliptic, frames, ksurf, sg, surfaces
from sgsurf.errors import DegenerateFrameError, DomainError

MOD = elliptic.make_modulus(0.6)


def _params(family="dn", twisted=False, gamma=0.8, beta=1.0, k=0.6):
    return surfaces.SurfaceParams(
        mod=elliptic.make_modulus(k), family=family, gamma_step=gamma,
        beta_rate=beta, twisted=twisted)


ALL = [("dn", False), ("dn", True), ("cn", False), ("cn", True)]


def test_origin_points():
    p = _params("dn")
    assert surfaces.gamma_point(p, 0, 0.0) == pytest.approx([1 / 0.6, 0.0, 0.0])
    assert surfaces.b_point(p, 0, 0.0) == pytest.approx([0.0, 0.0, -1.0])
    p = _params("cn")
    assert surfaces.gamma_point(p, 0, 0.0) == pytest.approx([0.6, 0.0, 0.0])
    assert surfaces.b_point(p, 0, 0.0) == pytest.approx([0.0, 0.0, 1.0])


def test_alpha_constraints():
    sn, cn, dn = elliptic.jacobi(0.8, MOD)
    assert math.cos(_params("dn").alpha_step) == pytest.approx(dn)
    assert math.sin(_params("dn").alpha_step) == pytest.approx(0.6 * sn)
    assert math.cos(_params("dn", twisted=True).alpha_step) == pytest.approx(-dn)
    assert math.cos(_params("cn").alpha_step) == pytest.approx(cn)
    assert math.sin(_params("cn").alpha_step) == pytest.approx(sn)
    assert math.cos(_params("cn", twisted=True).alpha_step) == pytest.approx(-cn)


def test_binormal_unit_length():
    rng = np.random.default_rng(30)
    for family, twisted in ALL:
        p = _params(family, twisted)
        for _ in range(20):
            b = surfaces.b_point(p, int(rng.integers(-10, 10)), float(rng.uniform(0, 2)))
            assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-13)


def test_frame_sign_admissibility():
    # sigma is derived: untwisted needs sigma * sn(gamma) > 0, twisted the
    # opposite; negative gamma flips sn(gamma) and with it the one admissible sign
    cases = [(0.8, False, 1.0), (0.8, True, -1.0), (-0.8, False, -1.0), (-0.8, True, 1.0)]
    for family in ("dn", "cn"):
        for gamma, twisted, sigma in cases:
            p = _params(family, twisted, gamma=gamma)
            assert p.sigma == sigma
            assert p.sigma * p.edge_speed * p.epsilon_sign > 0.0
    with pytest.raises(DegenerateFrameError):
        surfaces.SurfaceParams(mod=MOD, family="dn", gamma_step=2 * MOD.K, beta_rate=1.0)


@pytest.mark.parametrize("make", [
    lambda f: surfaces.SurfaceParams(mod=MOD, family=f, gamma_step=0.8, beta_rate=1.0),
    lambda f: surfaces.CurveLattice(mod=MOD, family=f, gamma_step=0.8, beta_rate=1.0),
    lambda f: ksurf.KParams(mod=MOD, family=f, gamma_step=0.8, delta_step=0.55),
], ids=["SurfaceParams", "CurveLattice", "KParams"])
def test_every_parameter_class_rejects_an_unknown_family(make):
    for family in ("dn", "cn"):
        assert make(family).family == family
    with pytest.raises(DomainError):
        make("xx")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [
    lambda v: surfaces.SurfaceParams(mod=MOD, family="dn", gamma_step=v, beta_rate=1.0),
    lambda v: surfaces.SurfaceParams(mod=MOD, family="cn", gamma_step=0.8, beta_rate=v),
    lambda v: surfaces.CurveLattice(mod=MOD, family="dn", gamma_step=v, beta_rate=1.0),
    lambda v: ksurf.KParams(mod=MOD, family="dn", gamma_step=v, delta_step=0.55),
    lambda v: ksurf.KParams(mod=MOD, family="cn", gamma_step=0.8, delta_step=v),
], ids=["SurfaceParams.gamma", "SurfaceParams.beta", "CurveLattice.gamma", "KParams.gamma",
        "KParams.delta"])
def test_every_curve_lattice_rejects_non_finite_steps(make, value):
    with pytest.raises(DomainError, match="must be finite"):
        make(value)


@pytest.mark.parametrize("family,twisted", ALL)
@pytest.mark.parametrize("k", [0.3, 0.6, 0.9])
def test_edge_identity_and_speed(family, twisted, k):
    p = _params(family, twisted, k=k)
    speed = abs(p.edge_speed)
    for m in range(-20, 20):
        for t in (0.0, 0.37, 1.7):
            g0, g1 = surfaces.gamma_point(p, m, t), surfaces.gamma_point(p, m + 1, t)
            b0, b1 = surfaces.b_point(p, m, t), surfaces.b_point(p, m + 1, t)
            assert np.abs(g1 - g0 - p.epsilon_sign * np.cross(b1, b0)).max() < 1e-10
            assert abs(np.linalg.norm(g1 - g0) - speed) < 1e-10


@pytest.mark.parametrize("family,twisted", ALL)
def test_torsion_cosine_invariance(family, twisted):
    p = _params(family, twisted)
    sn, cn, dn = elliptic.jacobi(p.gamma_step, p.mod)
    target = cn if family == "dn" else dn
    for m in range(-15, 15):
        for t in (0.0, 0.37, 1.7):
            b0, b1 = surfaces.b_point(p, m, t), surfaces.b_point(p, m + 1, t)
            assert abs(float(np.dot(b0, b1)) - target) < 1e-12


@pytest.mark.parametrize("family,twisted", ALL)
def test_frames_orthonormal_and_torsion_sine(family, twisted):
    p = _params(family, twisted)
    s = p.edge_speed
    sin_nu = p.sigma * s
    w = surfaces.snapshots(p, range(-4, 7), [0.3])
    T, N, B = (a[0] for a in surfaces.curve_frames(p, w.ms, w.ts[:, None]))
    # columns (T N B) at every site: orthonormal and right-handed
    F = np.stack([T, N, B], axis=-1)
    assert np.abs(F.transpose(0, 2, 1) @ F - np.eye(3)).max() < 1e-10
    assert np.abs(np.linalg.det(F) - 1.0).max() < 1e-10
    assert (B[1:] * N[:-1]).sum(axis=-1) == pytest.approx([sin_nu] * 10, abs=1e-12)
    # sin nu is positive for untwisted frames, negative for twisted ones
    assert (sin_nu > 0) == (not twisted)


def test_geometry_extraction_matches_family_torsion():
    for family, target_fn in (("dn", lambda m: elliptic.jacobi(0.8, m)[1]),
                              ("cn", lambda m: elliptic.jacobi(0.8, m)[2])):
        p = _params(family)
        w = surfaces.snapshots(p, range(-5, 6), [0.4])
        geo = frames.extract_geometry(*surfaces.curve_frames(p, w.ms, w.ts[0]))
        assert np.abs(geo.torsion_cos - target_fn(p.mod)).max() < 1e-12


@pytest.mark.parametrize("family,twisted", ALL)
def test_curvature_matches_field_difference(family, twisted):
    p = _params(family, twisted)
    sgn = -1.0 if twisted else 1.0
    w = surfaces.snapshots(p, range(-8, 9), [0.45])
    geo = frames.extract_geometry(*surfaces.curve_frames(p, w.ms, w.ts[0]))
    for j, m in enumerate(range(-8, 8)):
        h0 = surfaces.half_angles(p, m, 0.45)
        h2 = surfaces.half_angles(p, m + 2, 0.45)
        assert geo.curvature_cos[j] == pytest.approx(h2.c * h0.c + h2.s * h0.s, abs=1e-10)
        assert geo.curvature_sin[j] == pytest.approx(sgn * (h2.s * h0.c - h2.c * h0.s),
                                                     abs=1e-10)


def test_dn_curvature_sine_expanded_form():
    # -sin K_{m+1} = k sn(psi_{m+2}) dn(psi_m) - k sn(psi_m) dn(psi_{m+2})
    p = _params("dn")
    w = surfaces.snapshots(p, range(-6, 7), [0.45])
    geo = frames.extract_geometry(*surfaces.curve_frames(p, w.ms, w.ts[0]))
    for j, m in enumerate(range(-6, 6)):
        _, psi0 = p.phases(m, 0.45)
        _, psi2 = p.phases(m + 2, 0.45)
        s0, _, d0 = elliptic.jacobi(psi0, p.mod)
        s2, _, d2 = elliptic.jacobi(psi2, p.mod)
        k = p.mod.k
        assert -geo.curvature_sin[j] == pytest.approx(k * s2 * d0 - k * s0 * d2, abs=1e-11)


@pytest.mark.parametrize("family,twisted", ALL)
def test_flow_velocity(family, twisted):
    p = _params(family, twisted)
    h = 1e-4
    rho = p.beta_rate * (1.0 if family == "dn" else p.mod.k)
    for t in (0.2, 1.1):
        w = surfaces.snapshots(p, range(-8, 8), [t])
        tangents, normals, _ = surfaces.curve_frames(p, w.ms, w.ts[:, None])
        for m, T, N in zip(w.ms, tangents[0], normals[0]):
            v = surfaces.flow_velocity(p, m, t)
            fd = (surfaces.gamma_point(p, m, t + h)
                  - surfaces.gamma_point(p, m, t - h)) / (2.0 * h)
            assert np.abs(v - fd).max() < 1e-6
            assert abs(float(np.dot(v, surfaces.b_point(p, m, t)))) < 1e-10
            w = surfaces.flow_angle(p, m, t)
            assert float(np.dot(v, T)) == pytest.approx(p.sigma * rho * w.c, abs=1e-10)
            assert float(np.dot(v, N)) == pytest.approx(p.sigma * rho * w.s, abs=1e-10)


@pytest.mark.parametrize("family,twisted", ALL)
def test_field_solves_lattice_equations(family, twisted):
    # the surface's own lattice fixes the field and the coefficients
    p = _params(family, twisted)
    for m in range(-12, 12):
        for t in (0.0, 0.45, 1.3):
            r1, r2 = sg.semi_residuals(p, m, t)
            assert abs(r1) < 1e-9 and abs(r2) < 1e-9


def test_dn_periodic_z_component():
    # gamma = K: the z-coordinate is the same at every even site
    p = surfaces.SurfaceParams(mod=MOD, family="dn", gamma_step=MOD.K, beta_rate=1.0)
    z = [surfaces.gamma_point(p, 2 * n, 0.6)[2] for n in range(5)]
    assert np.ptp(z) < 1e-12


def test_snapshot_assembly():
    p = _params("dn")
    w = surfaces.snapshots(p, range(-3, 4), [0.5])
    assert w.points.shape == (1, 7, 3)
    assert w.binormals.shape == (1, 7, 3)
    # the window holds the CSV columns; frames come from curve_frames
    assert [f.name for f in dataclasses.fields(w)] == ["ts", "ms", "points", "binormals"]
    assert all(a.shape == (1, 7, 3) for a in surfaces.curve_frames(p, w.ms, w.ts[:, None]))
    assert list(w.ms) == list(range(-3, 4)) and list(w.ts) == [0.5]
    # invariants are only checked across consecutive sites, so gaps are fine
    sparse = surfaces.snapshots(p, [0, 2, 4], [0.5])
    assert sparse.points.shape == (1, 3, 3)


@pytest.mark.parametrize("family,twisted", ALL)
def test_small_modulus_edge_identity(family, twisted):
    # k = 1e-6: z needs the sn^2 primitive to full relative precision; with
    # (u - eps(u)) / k^2 the z component of the edge identity was off by 1e-9
    p = _params(family, twisted, k=1e-6)
    ms = np.arange(-10, 11)
    g, b = surfaces.gamma_point(p, ms, 0.3), surfaces.b_point(p, ms, 0.3)
    res = g[1:] - g[:-1] - p.epsilon_sign * np.cross(b[1:], b[:-1])
    assert np.abs(res[:, 2]).max() < 1e-13
    if family == "cn":
        # the whole snapshot check; dn points lie at radius 1/k = 1e6, where
        # one ulp of x and y is already 1.2e-10
        assert surfaces.snapshots(p, ms, [0.3]).points.shape == (1, 21, 3)


def test_snapshot_validation_report(monkeypatch):
    from sgsurf.errors import ValidationError
    p = _params("dn")
    monkeypatch.setattr(surfaces, "_SNAPSHOT_TOL", 0.0)
    with pytest.raises(ValidationError) as exc:
        surfaces.snapshots(p, range(0, 4), [0.5])
    assert set(exc.value.report) == {"edge_identity", "constant_speed"}


def test_snapshot_fails_on_a_nan_residual():
    from sgsurf.errors import ValidationError
    with pytest.raises(ValidationError):
        surfaces.snapshots(_params("dn"), range(3), [math.nan])


@pytest.mark.parametrize("family", ["dn", "cn"])
def test_a_window_peaks_under_seven_window_arrays(family):
    """A window evaluates its own sites once and forms no frame: while a
    64 x 4096 window is built, numpy holds at most seven (T, M, 3) float64
    arrays at once (6.34); a window that also formed frames read 8.02."""
    p, ts = _params(family), np.linspace(0.0, 2.0, 64)
    surfaces.snapshots(p, range(4096), ts)   # warm-up: caches and lazy imports
    tracemalloc.start()
    try:
        surfaces.snapshots(p, range(4096), ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * (64 * 4096 * 3 * 8), peak / (64 * 4096 * 3 * 8)


def test_kaleidocycle_params_and_closure():
    # a non-integer order's dn ring does not close after 2n sites (3.5 closes at 14)
    for n in (2, 3.5):
        with pytest.raises(DomainError):
            surfaces.kaleidocycle_params(n)
    for n in (3, 8):
        p = surfaces.kaleidocycle_params(n)
        assert p.mod.k == pytest.approx(math.sin(math.pi / n))
        assert p.mod.kp == pytest.approx(math.cos(math.pi / n))
        assert p.gamma_step == pytest.approx(p.mod.K)
        assert p.alpha_step == pytest.approx(math.pi / n, abs=1e-13)
        worst = 0.0
        for t in (0.0, 0.3, 0.9, 1.4, 2.2):
            for m in range(0, 2 * n + 4):
                d = surfaces.gamma_point(p, m + 2 * n, t) - surfaces.gamma_point(p, m, t)
                worst = max(worst, float(np.linalg.norm(d)))
        assert worst < 1e-9


@pytest.mark.parametrize("n, family", [(2, "dn"), (5, "xx"), (2.5, "dn")])
def test_kaleidocycle_period_refuses_what_kaleidocycle_params_refuses(n, family):
    with pytest.raises(DomainError):
        surfaces.kaleidocycle_period(n, family)
    with pytest.raises(DomainError):
        surfaces.kaleidocycle_params(n, family=family)


def test_cn_family_short_closure():
    p = surfaces.kaleidocycle_params(4, family="cn")
    assert p.alpha_step == pytest.approx(math.pi / 2)
    worst = 0.0
    for t in (0.0, 0.3, 1.4):
        for m in range(0, 8):
            d = surfaces.gamma_point(p, m + 2, t) - surfaces.gamma_point(p, m, t)
            worst = max(worst, float(np.linalg.norm(d)))
    assert worst < 1e-9


def test_random_parameter_sweep():
    # conventions must hold over the whole admissible parameter space, not
    # just the fixed grids: random modulus, signed gamma, signed beta
    rng = np.random.default_rng(77)
    tried = 0
    while tried < 30:
        k = float(rng.uniform(0.05, 0.97))
        mod = elliptic.make_modulus(k)
        g = float(rng.uniform(-1.9, 1.9)) * mod.K
        if abs(elliptic.jacobi(g, mod)[0]) < 0.05:
            continue
        b = float(rng.uniform(-2.0, 2.0))
        if abs(b) < 0.05:
            continue
        family = str(rng.choice(["dn", "cn"]))
        twisted = bool(rng.integers(0, 2))
        p = surfaces.SurfaceParams(mod=mod, family=family, gamma_step=g, beta_rate=b,
                                   twisted=twisted)
        tried += 1
        rho = b * (1.0 if family == "dn" else k)
        for t in (0.0, 0.61):
            w = surfaces.snapshots(p, (-5, 0, 4), [t])
            tangents, normals, _ = surfaces.curve_frames(p, w.ms, w.ts[:, None])
            for m, T, N in zip(w.ms, tangents[0], normals[0]):
                e = surfaces.gamma_point(p, m + 1, t) - surfaces.gamma_point(p, m, t)
                bx = np.cross(surfaces.b_point(p, m + 1, t), surfaces.b_point(p, m, t))
                assert np.abs(e - p.epsilon_sign * bx).max() < 1e-11
                v = surfaces.flow_velocity(p, m, t)
                w = surfaces.flow_angle(p, m, t)
                assert float(np.dot(v, T)) == pytest.approx(p.sigma * rho * w.c, abs=1e-11)
                assert float(np.dot(v, N)) == pytest.approx(p.sigma * rho * w.s, abs=1e-11)

"""The array evaluation of the closed forms and the bulk writers, against
independent per-site references.

The references below evaluate the module docstring formulas one site at a
time with math.cos/math.sin and scalar jacobi calls, and format one line at a
time with f-strings.  The array code must reproduce them bit for bit.
"""

import math

import numpy as np
import pytest

from sgsurf import cli, elliptic, ksurf, surfaces
from sgsurf.frames import Frame

MODULI = (0.3, 0.6, 0.9)
FAMILIES = ("dn", "cn")
CURVES = [(f, tw) for f in FAMILIES for tw in (False, True)]


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def _same(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    assert _bits(a) == _bits(b), float(np.nanmax(np.abs(a - b)))


# --------------------------------------------------------------- references --

def _ref_k_vertex(p, m, n):
    mod, k = p.mod, p.mod.k
    phi = p.alpha_step * m + p.beta_step * n
    psi = p.gamma_step * m + p.delta_step * n
    sn, cn, dn = elliptic.jacobi(psi, mod)
    z = (elliptic.sn2_integral(psi, mod) - m * elliptic.sn2_integral(p.gamma_step, mod)
         - n * elliptic.sn2_integral(p.delta_step, mod))
    pre = (-1.0) ** (n % 2)
    c, s = math.cos(phi), math.sin(phi)
    if p.family == "dn":
        return ([pre * c * dn / k, pre * s * dn / k, -k * z],
                [pre * c * sn, pre * s * sn, -cn])
    return ([pre * k * c * cn, pre * k * s * cn, -k * k * z],
            [pre * k * c * sn, pre * k * s * sn, -dn])


def _ref_curve_site(p, m, t):
    mod, k = p.mod, p.mod.k
    rate = p.beta_rate * (k if p.family == "dn" else 1.0)
    phi = m * p.alpha_step + rate * t
    psi = m * p.gamma_step + p.beta_rate * t
    sn, cn, dn = elliptic.jacobi(psi, mod)
    z = elliptic.sn2_integral(psi, mod) - m * elliptic.sn2_integral(p.gamma_step, mod)
    pre = (-1.0) ** (m % 2) if p.twisted else 1.0
    c, s = math.cos(phi), math.sin(phi)
    if p.family == "dn":
        return ([pre * c * dn / k, pre * s * dn / k, -k * z],
                [pre * c * sn, pre * s * sn, -cn])
    return ([pre * k * c * cn, pre * k * s * cn, -k * k * z],
            [-pre * k * c * sn, -pre * k * s * sn, dn])


def _ref_frame(p, m, t):
    b0 = np.array(_ref_curve_site(p, m, t)[1])
    b1 = np.array(_ref_curve_site(p, m + 1, t)[1])
    T = p.sigma * np.cross(b1, b0) / p.edge_speed_signed()
    return Frame(T=T, N=np.cross(b0, T), B=b0)


def _curve_params(family, twisted, k, gamma=0.8):
    return surfaces.SurfaceParams(
        mod=elliptic.make_modulus(k), family=family, gamma_step=gamma, beta_rate=1.0,
        twisted=twisted, frame_sign="-" if twisted else "+")


def _ref_obj(points):
    M, N, _ = points.shape
    lines = [f"v {float(x):.17g} {float(y):.17g} {float(z):.17g}"
             for x, y, z in points.reshape(-1, 3)]
    for i in range(M - 1):
        for j in range(N - 1):
            a = i * N + j + 1
            lines.append(f"f {a} {a + N} {a + N + 1} {a + 1}")
    return "\n".join(lines) + "\n"


def _ref_csv(snaps):
    lines = ["t,m,x,y,z,Bx,By,Bz"]
    for s in snaps:
        for m, pt, b in zip(s.m_values, s.points, s.binormals):
            lines.append(",".join([f"{float(s.t):.17g}", str(int(m))]
                                  + [f"{float(v):.17g}" for v in [*pt, *b]]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- evaluator --

@pytest.mark.parametrize("k", MODULI)
@pytest.mark.parametrize("family", FAMILIES)
def test_k_grid_matches_per_vertex_reference(family, k):
    p = ksurf.KParams(mod=elliptic.make_modulus(k), family=family,
                      gamma_step=0.8, delta_step=0.55)
    ms, ns = range(-6, 5), range(-3, 9)
    grid = ksurf.k_grid(p, ms, ns)
    ref = [[_ref_k_vertex(p, m, n) for n in ns] for m in ms]
    _same(grid.points, [[F for F, _ in row] for row in ref])
    _same(grid.normals, [[N for _, N in row] for row in ref])
    F, N = ksurf.k_point(p, -4, 7)
    _same(F, ref[2][10][0])
    _same(N, ref[2][10][1])


@pytest.mark.parametrize("k", MODULI)
@pytest.mark.parametrize("family,twisted", CURVES)
@pytest.mark.parametrize("ms", [range(-9, 10), [-7, -3, -2, 0, 5, 6, 11], [4, 3, 3, -1, 0]],
                         ids=["contiguous", "gapped", "unordered"])
def test_snapshot_matches_per_site_reference(family, twisted, k, ms):
    p = _curve_params(family, twisted, k)
    for t in (0.0, 0.37, 1.7):
        snap = surfaces.snapshot(p, ms, t)
        ref = [_ref_curve_site(p, m, t) for m in ms]
        _same(snap.points, [g for g, _ in ref])
        _same(snap.binormals, [b for _, b in ref])
        for m, fr in zip(ms, snap.frames):
            want = _ref_frame(p, m, t)
            for got_v, want_v in ((fr.T, want.T), (fr.N, want.N), (fr.B, want.B)):
                _same(got_v, want_v)
        _same(surfaces.gamma_point(p, ms[1], t), ref[1][0])
        _same(surfaces.b_point(p, ms[1], t), ref[1][1])
        fr = surfaces.frame_at(p, ms[1], t)
        _same(fr.T, snap.frames[1].T)
        _same(fr.N, snap.frames[1].N)


@pytest.mark.parametrize("family,n", [("dn", 3), ("dn", 6), ("cn", 4)])
def test_kaleidocycle_frames_and_closure_match_reference(tmp_path, capsys, family, n):
    out = tmp_path / "anim"
    rc = cli.main(["kaleidocycle", "--n", str(n), "--family", family, "--t-steps", "3",
                   "--t-stop", "1.4", "--out", str(out)])
    assert rc == 0
    p = surfaces.kaleidocycle_params(n, family=family)
    period = 2 * n if family == "dn" else 2
    worst = 0.0
    for idx, t in enumerate(np.linspace(0.0, 1.4, 3)):
        ms = np.arange(period + 1)
        ref = [_ref_curve_site(p, int(m), float(t)) for m in ms]
        snap = surfaces.CurveSnapshot(
            t=float(t), m_values=ms, points=np.array([g for g, _ in ref]),
            binormals=np.array([b for _, b in ref]), frames=())
        assert (out / f"frame_{idx:04d}.csv").read_text() == _ref_csv([snap])
        for m in ms:
            d = (np.array(_ref_curve_site(p, int(m) + period, float(t))[0])
                 - np.array(_ref_curve_site(p, int(m), float(t))[0]))
            worst = max(worst, float(np.linalg.norm(d)))
    assert f"closure defect {worst:.3e}" in capsys.readouterr().out


def test_k_grid_jacobi_calls_do_not_grow_with_the_window(monkeypatch):
    p = ksurf.KParams(mod=elliptic.make_modulus(0.6), family="dn",
                      gamma_step=0.8, delta_step=0.55)
    calls = []
    real = elliptic.jacobi

    def counting(u, mod):
        calls.append(np.size(u))
        return real(u, mod)

    monkeypatch.setattr(elliptic, "jacobi", counting)
    monkeypatch.setattr(ksurf, "jacobi", counting)
    counts = []
    for size in (2, 8, 32):
        calls.clear()
        ksurf.k_grid(p, range(size), range(size))
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2] == 1
    assert calls == [32 * 32]


# ------------------------------------------------------------------ writers --

SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e-300, -5e-324, 1.7976931348623157e308,
           0.1, 1 / 3, -2.5, 123456789.0]


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (6, 1), (4, 7)])
def test_write_obj_matches_per_line_format(tmp_path, monkeypatch, shape):
    monkeypatch.setattr(cli, "_CHUNK_LINES", 3)   # exercise the chunk boundaries
    rng = np.random.default_rng(5)
    pts = rng.normal(size=shape + (3,)) * 10.0 ** rng.integers(-8, 8, size=shape + (3,))
    flat = pts.reshape(-1)
    flat[:min(len(flat), len(SPECIAL))] = SPECIAL[:len(flat)]
    out = tmp_path / "m.obj"
    cli.write_obj(out, pts)
    assert out.read_bytes() == _ref_obj(pts).encode()


def test_write_obj_single_chunk_default(tmp_path):
    pts = np.arange(5 * 4 * 3, dtype=float).reshape(5, 4, 3) / 7.0
    cli.write_obj(tmp_path / "m.obj", pts)
    assert (tmp_path / "m.obj").read_text() == _ref_obj(pts)


@pytest.mark.parametrize("chunk", [1, 2, 4096])
def test_write_curve_csv_matches_per_line_format(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(cli, "_CHUNK_LINES", chunk)
    rng = np.random.default_rng(11)
    snaps = []
    for t, ms in ((-0.0, [-3, -2, -1, 0, 1]), (math.inf, [7]), (1e-300, [0, 2, 5])):
        vals = rng.normal(size=(len(ms), 6))
        vals.reshape(-1)[:len(SPECIAL)] = SPECIAL[:vals.size]
        snaps.append(surfaces.CurveSnapshot(
            t=t, m_values=np.array(ms), points=vals[:, :3], binormals=vals[:, 3:], frames=()))
    out = tmp_path / "c.csv"
    cli.write_curve_csv(out, snaps)
    assert out.read_bytes() == _ref_csv(snaps).encode()


def test_percent_format_equals_format_spec():
    values = SPECIAL + list(np.random.default_rng(2).normal(size=2000)
                            * 10.0 ** np.random.default_rng(3).integers(-300, 300, 2000))
    for x in values:
        assert "%.17g" % x == f"{x:.17g}"

"""The array evaluation of the closed forms and the bulk writers, against
independent per-site references.

The references below evaluate the module docstring formulas one site at a
time with math.cos/math.sin and scalar jacobi calls, and format one line at a
time with f-strings.  The array code must reproduce them bit for bit.
"""

import math

import numpy as np
import pytest

from sgsurf import _text, cli, elliptic, ksurf, surfaces
from sgsurf.errors import ValidationError

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
    """(T, N, B) at site m."""
    b0 = np.array(_ref_curve_site(p, m, t)[1])
    b1 = np.array(_ref_curve_site(p, m + 1, t)[1])
    T = p.sigma * np.cross(b1, b0) / p.edge_speed
    return T, np.cross(b0, T), b0


def _curve_params(family, twisted, k, gamma=0.8):
    return surfaces.SurfaceParams(
        mod=elliptic.make_modulus(k), family=family, gamma_step=gamma, beta_rate=1.0,
        twisted=twisted)


def _ref_obj(points):
    M, N, _ = points.shape
    lines = [f"v {float(x):.17g} {float(y):.17g} {float(z):.17g}"
             for x, y, z in points.reshape(-1, 3)]
    for i in range(M - 1):
        for j in range(N - 1):
            a = i * N + j + 1
            lines.append(f"f {a} {a + N} {a + N + 1} {a + 1}")
    return "\n".join(lines) + "\n"


def _ref_csv(w, times=None):
    """The CSV of a curve window's times (all of them by default), a line at a time."""
    lines = ["t,m,x,y,z,Bx,By,Bz"]
    for i in range(len(w.ts)) if times is None else times:
        for m, pt, b in zip(w.ms, w.points[i], w.binormals[i]):
            lines.append(",".join([f"{float(w.ts[i]):.17g}", str(int(m))]
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
    ts = (0.0, 0.37, 1.7)
    w = surfaces.snapshots(p, ms, ts)
    assert w.ts.tolist() == list(ts) and w.ms.tolist() == list(ms)
    for rows in (w.points, w.binormals, w.tangents, w.normals):
        assert rows.shape == (len(ts), len(ms), 3)
    for i, t in enumerate(ts):
        ref = [_ref_curve_site(p, m, t) for m in ms]
        # the window's slice i, and the one-time window of t alone
        for window, row in ((w, i), (surfaces.snapshots(p, ms, [t]), 0)):
            _same(window.points[row], [g for g, _ in ref])
            _same(window.binormals[row], [b for _, b in ref])
            frames = zip(ms, window.tangents[row], window.normals[row], window.binormals[row])
            for m, *got in frames:
                for got_v, want_v in zip(got, _ref_frame(p, m, t)):
                    _same(got_v, want_v)
        _same(surfaces.gamma_point(p, ms[1], t), ref[1][0])
        _same(surfaces.b_point(p, ms[1], t), ref[1][1])


def test_snapshots_fail_on_one_nan_time():
    p = _curve_params("dn", False, 0.6)
    with pytest.raises(ValidationError) as exc:
        surfaces.snapshots(p, range(-3, 4), [0.0, 0.5, math.nan, 1.0])
    assert "nan" in str(exc.value)
    assert set(exc.value.report) == {"edge_identity", "constant_speed"}


@pytest.mark.parametrize("family,twisted", CURVES)
def test_flow_fields_on_arrays_equal_per_site_calls(family, twisted):
    p = _curve_params(family, twisted, 0.6)
    ms = np.array([-9, -4, -3, 0, 1, 2, 7, 12])
    for t in (0.0, 0.45, 1.7):
        v, w = surfaces.flow_velocity(p, ms, t), surfaces.flow_angle(p, ms, t)
        assert v.shape == (len(ms), 3)
        _same(v, [surfaces.flow_velocity(p, int(m), t) for m in ms])
        _same(w.c, [surfaces.flow_angle(p, int(m), t).c for m in ms])
        _same(w.s, [surfaces.flow_angle(p, int(m), t).s for m in ms])
    # a column of times against a row of sites: one row per time
    ts = np.array([[0.0], [0.45]])
    v, w = surfaces.flow_velocity(p, ms, ts), surfaces.flow_angle(p, ms, ts)
    assert v.shape == (2, len(ms), 3) and w.c.shape == w.s.shape == (2, len(ms))
    for i, t in enumerate((0.0, 0.45)):
        _same(v[i], surfaces.flow_velocity(p, ms, t))
        _same(w.c[i], surfaces.flow_angle(p, ms, t).c)
        _same(w.s[i], surfaces.flow_angle(p, ms, t).s)


@pytest.mark.parametrize("family,n", [("dn", 3), ("dn", 6), ("cn", 4)])
def test_kaleidocycle_frames_and_closure_match_reference(tmp_path, capsys, family, n):
    out = tmp_path / "anim"
    rc = cli.main(["kaleidocycle", "--n", str(n), "--family", family, "--t-steps", "3",
                   "--t-stop", "1.4", "--out", str(out)])
    assert rc == 0
    p = surfaces.kaleidocycle_params(n, family=family)
    period = 2 * n if family == "dn" else 2
    ts, ms = np.linspace(0.0, 1.4, 3), np.arange(period + 1)
    ref = [[_ref_curve_site(p, int(m), float(t)) for m in ms] for t in ts]
    w = surfaces.CurveWindow(ts=ts, ms=ms, points=np.array([[g for g, _ in r] for r in ref]),
                             binormals=np.array([[b for _, b in r] for r in ref]),
                             tangents=(), normals=())
    assert sorted(f.name for f in out.iterdir()) == [f"frame_{i:04d}.csv" for i in range(3)]
    worst = 0.0
    for idx, t in enumerate(ts):
        assert (out / f"frame_{idx:04d}.csv").read_text() == _ref_csv(w, [idx])
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

    def counting(u, mod, **kwargs):
        calls.append(np.size(u))
        return real(u, mod, **kwargs)

    monkeypatch.setattr(elliptic, "jacobi", counting)
    monkeypatch.setattr(ksurf, "jacobi", counting, raising=False)   # if ksurf binds it
    counts = []
    for size in (2, 8, 32):
        calls.clear()
        ksurf.k_grid(p, range(size), range(size))
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2] == 1
    assert calls == [32 * 32]


@pytest.mark.parametrize("argv", [
    ["curve", "--k", "0.6", "--gamma", "0.8", "--m-min", "-5", "--m-max", "5"],
    ["kaleidocycle", "--n", "5"],
], ids=["curve", "kaleidocycle"])
def test_curve_jacobi_calls_do_not_grow_with_the_time_steps(tmp_path, monkeypatch, argv):
    calls = []
    real = elliptic.jacobi

    def counting(u, mod, **kwargs):
        calls.append(np.size(u))
        return real(u, mod, **kwargs)

    for mod in (elliptic, surfaces, cli):
        monkeypatch.setattr(mod, "jacobi", counting, raising=False)   # where it is bound
    counts = []
    for steps in (1, 4, 16):
        calls.clear()
        stop = ["--t-stop", "2.0"] if steps > 1 else []   # one step samples t-start only
        assert cli.main(argv + ["--t-steps", str(steps), *stop,
                                "--out", str(tmp_path / f"out{steps}")]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2]


def _count_landen_passes(monkeypatch) -> list:
    passes = []
    real = elliptic._landen

    def counting(u, mod, **parts):
        passes.append(np.size(u))
        return real(u, mod, **parts)

    monkeypatch.setattr(elliptic, "_landen", counting)
    return passes


def test_each_lattice_step_costs_one_landen_pass(monkeypatch):
    passes = _count_landen_passes(monkeypatch)
    mod = elliptic.make_modulus(0.6)
    surfaces.SurfaceParams(mod=mod, family="cn", gamma_step=0.8, beta_rate=1.0)
    assert len(passes) == 1
    passes.clear()
    ksurf.KParams(mod=mod, family="dn", gamma_step=0.8, delta_step=0.55)
    assert len(passes) == 2


def test_the_closure_rule_makes_no_landen_pass(monkeypatch):
    # the rule reads the lattice constants, never a point
    kp = ksurf.periodic_cases(3)["1a"]
    curve = surfaces.kaleidocycle_params(5, twisted=True)
    passes = _count_landen_passes(monkeypatch)
    assert kp.closure_defect(np.arange(7)[:, None], np.arange(-6, 7)).shape == (7, 13)
    assert curve.closure_defect(np.arange(12)).shape == (12,)
    assert passes == []


@pytest.mark.parametrize("argv, count", [
    (["ksurface", "--k", "0.8", "--m", "6", "--n", "6"], 3),
    (["curve", "--k", "0.6", "--gamma", "0.8", "--t-steps", "3", "--t-stop", "1.0"], 2),
    (["kaleidocycle", "--n", "5", "--t-steps", "3", "--t-stop", "1.0"], 3),
], ids=["ksurface", "curve", "kaleidocycle"])
def test_landen_passes_per_command(tmp_path, monkeypatch, argv, count):
    # the step constants (one pass per step), the closed form (one jacobi call
    # that also returns the sn^2 primitive) and, for kaleidocycle, the closure
    # check's closed form
    passes = _count_landen_passes(monkeypatch)
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert len(passes) == count


def test_verify_evaluates_each_suite_window_once(tmp_path, monkeypatch):
    # counted by wrapping, not timed: 1,160 compat_matrices calls and 970 Landen
    # passes when the suites evaluated one quad, or one time, per call
    passes = _count_landen_passes(monkeypatch)
    calls = []
    real = ksurf.compat_matrices
    monkeypatch.setattr(ksurf, "compat_matrices", lambda *a: calls.append(1) or real(*a))
    assert cli.main(["verify", "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) <= 10
    assert len(passes) <= 600


# ------------------------------------------------------------------ writers --

SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e-300, -5e-324, 1.7976931348623157e308,
           0.1, 1 / 3, -2.5, 123456789.0]


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (6, 1), (4, 7)])
def test_write_obj_matches_per_line_format(tmp_path, monkeypatch, shape):
    monkeypatch.setattr(cli, "_BLOCK_VALUES", 8)   # blocks of 2 rows: exercise their boundaries
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


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
def test_write_curve_csv_matches_per_line_format(tmp_path, monkeypatch, chunk):
    # blocks of chunk rows of 8 fields: 3 rows cut a time's 7 rows off-block
    monkeypatch.setattr(cli, "_BLOCK_VALUES", 8 * chunk)
    rng = np.random.default_rng(11)
    ts = np.array([-0.0, math.inf, 1e-300])
    ms = np.array([4, -3, 9, 9, 0, -2 ** 63, 2 ** 63 - 1])   # gapped, unordered, a repeat
    vals = rng.normal(size=(len(ts), len(ms), 6))
    vals.reshape(len(ts), -1)[:, :len(SPECIAL)] = SPECIAL   # at every time
    w = surfaces.CurveWindow(ts=ts, ms=ms, points=vals[..., :3], binormals=vals[..., 3:],
                             tangents=(), normals=())
    out = tmp_path / "c.csv"
    cli.write_curve_csv(out, w)
    assert out.read_bytes() == _ref_csv(w).encode()
    cli.write_frames(tmp_path, w)
    files = sorted(tmp_path.glob("frame_*.csv"))
    assert [f.name for f in files] == [f"frame_{i:04d}.csv" for i in range(len(ts))]
    for i, f in enumerate(files):
        assert f.read_bytes() == _ref_csv(w, [i]).encode()


def test_percent_format_equals_format_spec():
    values = SPECIAL + list(np.random.default_rng(2).normal(size=2000)
                            * 10.0 ** np.random.default_rng(3).integers(-300, 300, 2000))
    for x in values:
        assert "%.17g" % x == f"{x:.17g}"


# ------------------------------------------------------------- text kernel --

def _kernel_lines(values, block=1 << 16):
    """One value per line through the writers' kernel, in blocks of rows."""
    return b"".join(_text.format_rows((b"", b"\n"), [values[i:i + block]]).tobytes()
                    for i in range(0, len(values), block))


def _stride(count, lo=0, hi=1 << 64):
    """count bit patterns spread evenly over [lo, hi), as uint64."""
    step = (hi - lo) // count
    return np.uint64(lo) + np.arange(count, dtype=np.uint64) * np.uint64(step)


def _float_corpus():
    edges = [float(f"1e{k}") for k in range(-8, 18)]
    ties = ([2.0 ** 50 + j / 4 for j in range(-64, 64)]
            + [2.0 ** 51 + j / 2 for j in range(-64, 64)])
    special = [9.9999999999999995e-5, 0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
               1.7976931348623157e308, -1.7976931348623157e308]
    x = np.array(edges + ties + special)
    x = np.concatenate([np.nextafter(x[:len(edges)], 0.0), x,
                        np.nextafter(x[:len(edges)], math.inf)])
    return np.concatenate([x, -x])


@pytest.mark.filterwarnings("error")
def test_text_kernel_prints_percent_17g_byte_for_byte():
    # a stride over every float64 bit pattern (mostly the "%.17g" fallback),
    # a million patterns inside the fixed window 1e-4 <= |x| < 1e16, both signs,
    # and the decade edges, their neighbours and exact ties
    lo, hi = (int(b) for b in np.array([1e-4, 1e16]).view(np.uint64))
    window = _stride(10 ** 6, lo, hi).view(np.float64)
    values = np.concatenate([_stride(1 << 16).view(np.float64), window, -window[::97],
                             _float_corpus()])
    assert len(values) >= 10 ** 6
    expected = ("%.17g\n" * len(values)) % tuple(values.tolist())
    assert _kernel_lines(values) == expected.encode()


@pytest.mark.filterwarnings("error")
def test_text_kernel_prints_percent_d_byte_for_byte():
    powers = [s * (10 ** k + d) for k in range(19) for d in (-1, 0, 1) for s in (1, -1)]
    values = np.concatenate([_stride(1 << 16).view(np.int64),
                             np.array([2 ** 63 - 1, -2 ** 63, -2 ** 63 + 1, 0] + powers,
                                      dtype=np.int64)])
    expected = ("%d\n" * len(values)) % tuple(values.tolist())
    assert _kernel_lines(values) == expected.encode()


def _decade_block(top):
    """Floats whose largest value inside the fixed window lies in decade top:
    the edges of every decade -4..top, a stride through each, an exact tie of
    each (odd / 2^(17 - e), whose 18th significant digit is the last, a 5),
    both signs, and one value outside the window."""
    x = []
    for e in range(-4, top + 1):
        lo, hi = 10.0 ** e, np.nextafter(10.0 ** (e + 1), 0.0)
        q = 2.0 ** (17 - e)
        x += [lo, hi, *np.linspace(lo, hi, 7)[1:-1]]
        x += [(2 * round(0.75 * lo * q) + j) / q for j in (-3, -1, 1, 3)]
    x.append((0.0, math.nan, 1e-300, 1e300)[top % 4])
    x = np.array(x)
    return np.concatenate([x, -x[::3]])


@pytest.mark.parametrize("top", range(-4, 16))
def test_text_kernel_sizes_float_slots_to_the_block(top):
    values = _decade_block(top)
    assert max(abs(v) for v in values if 1e-4 <= abs(v) < 1e16) >= 10.0 ** top
    expected = ("%.17g\n" * len(values)) % tuple(values.tolist())
    assert _text.format_rows((b"", b"\n"), [values]).tobytes() == expected.encode()


@pytest.mark.parametrize("digits", [*range(1, 20), "min"])
def test_text_kernel_sizes_integer_slots_to_the_block(digits):
    if digits == "min":
        values = [-2 ** 63, -2 ** 63 + 1, 0, 7]
    else:
        top = 2 ** 63 - 1 if digits == 19 else 10 ** digits - 1
        values = [0, 1, -1, top, -top, top // 7] + [s * 10 ** k for k in range(digits)
                                                     for s in (1, -1)]
    expected = ("%d\n" * len(values)) % tuple(values)
    block = np.array(values, dtype=np.int64)
    assert _text.format_rows((b"", b"\n"), [block]).tobytes() == expected.encode()


def test_text_kernel_sizes_each_column_of_a_block():
    # columns of every width side by side in one call, each slot sized to its own column
    rng = np.random.default_rng(7)
    rows = 300
    floats = [rng.choice(_decade_block(top), rows) for top in (-4, 0, 4, 9, 15)]
    ints = [rng.integers(-10 ** d, 10 ** d, rows) for d in (1, 5, 18)]
    ints.append(np.full(rows, -2 ** 63))
    columns = [floats[0], ints[0], floats[1], floats[4], ints[1], floats[2], ints[3], floats[3],
               ints[2]]
    text = _text.format_rows((b"r ",) + (b",",) * 8 + (b";\n",), columns)
    fmt = "r " + ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in columns) + ";\n"
    expected = "".join(fmt % row for row in zip(*(c.tolist() for c in columns)))
    assert text.tobytes() == expected.encode()


def test_text_kernel_tables_are_built_on_first_write_only(tmp_path):
    # the shared tables on the first write, and a width's masks on the first
    # block that reaches it
    _text._tables.cache_clear()
    _text._masks.cache_clear()
    assert cli.main(["verify", "--out", str(tmp_path / "report.json")]) == 0
    assert _text._tables.cache_info().currsize == 0   # verify writes no geometry
    assert _text._masks.cache_info().currsize == 0
    cli.write_obj(tmp_path / "m.obj", np.zeros((2, 2, 3)))
    assert _text._tables.cache_info().currsize == 1
    assert _text._masks.cache_info().currsize == 2   # one float width, one integer width
    cli.write_obj(tmp_path / "m.obj", np.full((2, 2, 3), 12345.0))
    assert _text._masks.cache_info().currsize == 3


@pytest.mark.parametrize("argv, writes", [
    (["ksurface", "--k", "0.8", "--m", "30", "--n", "20"], [(600, 3), (29 * 19, 4)]),
    (["curve", "--k", "0.6", "--m-min", "-50", "--m-max", "50", "--t-steps", "3",
      "--t-stop", "1.0"], [(101 * 3, 8)]),
    (["kaleidocycle", "--n", "5", "--t-steps", "40", "--t-stop", "6.0"], [(11 * 40, 8)]),
    # the cut between times: at every row, at every block's end, and inside blocks
    (["curve", "--k", "0.6", "--m-min", "0", "--m-max", "0", "--t-steps", "50",
      "--t-stop", "1.0"], [(50, 8)]),
    (["kaleidocycle", "--n", "5", "--m-max", "23", "--t-steps", "4", "--t-stop", "1.0"],
     [(24 * 4, 8)]),
    (["kaleidocycle", "--n", "5", "--m-max", "60", "--t-steps", "4", "--t-stop", "1.0"],
     [(61 * 4, 8)]),
], ids=["ksurface", "curve", "kaleidocycle", "curve-one-site", "kaleidocycle-one-block",
        "kaleidocycle-three-blocks"])
def test_writers_format_whole_blocks_of_rows(tmp_path, monkeypatch, argv, writes):
    # one kernel call per block of rows, (rows, fields) per writer: kaleidocycle
    # formats all its frames in one pass instead of one call per frame, and
    # the bytes do not depend on the block size
    out = tmp_path / "default"
    assert cli.main(argv + ["--out", str(out)]) == 0
    calls = []
    real = _text.format_rows
    monkeypatch.setattr(_text, "format_rows", lambda *a: calls.append(len(a[1][0])) or real(*a))
    monkeypatch.setattr(cli, "_BLOCK_VALUES", 192)
    blocks = tmp_path / "blocks"
    assert cli.main(argv + ["--out", str(blocks)]) == 0
    expected = []
    for rows, fields in writes:
        block = 192 // fields
        expected += [block] * (rows // block) + [rows % block] * (rows % block > 0)
    assert calls == expected
    if out.is_dir():
        assert ([f.read_bytes() for f in sorted(blocks.iterdir())]
                == [f.read_bytes() for f in sorted(out.iterdir())])
    else:
        assert blocks.read_bytes() == out.read_bytes()

"""Array evaluation of the theta, tau, sg and ksurf layers against per-site references.

The theta reference is the DLMF 20.2 q-series summed one site at a time with
cmath and Python complex arithmetic, with the same band reduction as the
library and a per-site truncation test.  The library sums a fixed number of
terms per lattice with sin and cos built from real functions, and numpy may
fuse the two products of a complex product where Python rounds each, so the
array evaluation agrees with the reference within THETA_ULPS ulps of the
series' magnitude, not bit for bit.  What is pinned bit for bit is batch
invariance: every array entry point gives each site the same bits in a batch
of any size, in a strided view and in a one-site call.
"""

import cmath
import functools
import math

import numpy as np
import pytest

from sgsurf import elliptic, ksurf, sg, suites, surfaces, tau, theta
from sgsurf.errors import PoleError, ThetaOverflowError

# measured worst case 2.58 ulps over the arguments of the DLMF test below
THETA_ULPS = 4
# the compat defects are norms of sums of products of entries of modulus <= 1;
# measured worst case 2 ulps of 1
COMPAT_ULPS = 4
ULP = 2.0 ** -52


def _bits(z):
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real.view(np.int64), z.imag.view(np.int64)])


def _same(a, b):
    assert np.array_equal(_bits(a), _bits(b))


# ------------------------------------------------------ theta reference --

def _ref_series(j, v, q, eps):
    """DLMF 20.2.1-20.2.4 with theta_0 = theta_4: value, v-derivative, and the
    sums of the moduli of their terms."""
    if j in (1, 2):
        val = dval = 0j
        mag = dmag = 0.0
        for n in range(64):
            a = q ** ((n + 0.5) ** 2)
            w = (2 * n + 1) * math.pi
            if j == 1:
                t = 2.0 * (-1) ** n * a * cmath.sin(w * v)
                dt = 2.0 * (-1) ** n * a * w * cmath.cos(w * v)
            else:
                t = 2.0 * a * cmath.cos(w * v)
                dt = -2.0 * a * w * cmath.sin(w * v)
            val += t
            dval += dt
            mag, dmag = mag + abs(t), dmag + abs(dt)
            if n >= 2 and abs(t) + abs(dt) <= eps * (abs(val) + abs(dval) + 1e-300):
                break
        return val, dval, mag, dmag
    val, dval = 1.0 + 0j, 0j
    mag, dmag = 1.0, 0.0
    for n in range(1, 64):
        a = q ** (n * n)
        s = -1.0 if (j == 0 and n % 2) else 1.0
        w = 2 * n * math.pi
        t = 2.0 * s * a * cmath.cos(w * v)
        dt = -2.0 * s * a * w * cmath.sin(w * v)
        val += t
        dval += dt
        mag, dmag = mag + abs(t), dmag + abs(dt)
        if n >= 2 and abs(t) + abs(dt) <= eps * (abs(val) + abs(dval)):
            break
    return val, dval, mag, dmag


def _ref_theta_scaled(j, v, p):
    """Single-site (theta_j(v), theta_j'(v)) and the magnitudes their rounding
    errors scale with: |prefactor| times the sum of the moduli of the terms."""
    v = complex(v)
    c = round(v.imag / p.tau.imag)
    v1 = v - c * p.tau
    n1 = round(v1.real)
    v0 = v1 - n1
    sign = -1.0 if (j in (1, 2) and n1 % 2) else 1.0
    if j in (0, 1) and c % 2:
        sign = -sign
    pref = sign * cmath.exp(-1j * math.pi * c * c * p.tau - 2j * math.pi * c * v0)
    val, dval, mag, dmag = _ref_series(j, v0, p.q, theta._TRUNC_EPS)
    scales = abs(pref) * mag, abs(pref) * (dmag + 2.0 * math.pi * abs(c) * mag)
    return (pref * val, pref * (dval - 2j * math.pi * c * val)), scales


def _arguments(p, rng, count):
    """Random arguments up to Im v = +-2.5 Im tau, near the band edge, and special points."""
    T = p.tau.imag
    edge = 0.999 * theta._BAND_LIMIT * T / math.pi
    v = rng.uniform(-3, 3, count) + 1j * rng.uniform(-2.5, 2.5, count) * T
    special = [0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
               complex(-0.0, -0.1), complex(-0.3, -0.0), complex(-1.0, -0.0),
               0.5, -0.5, 0.5 * p.tau, -0.5 * p.tau, 0.5 + 0.5 * p.tau, 1.0,
               edge * 1j, -edge * 1j, 0.25 + 0.9 * edge * 1j]
    return np.concatenate([v, special])


def _lattices(mod):
    """tau', tau, 2 tau' and a lattice whose real part lies within the admitted
    1e-15, so that q and the series weights are not real."""
    return mod.taup, mod.tau, 2 * mod.taup, complex(-8e-16, mod.taup.imag)


def _term(j, n, v, q):
    """Term n of the theta_j series at v and its v-derivative (DLMF 20.2.1-20.2.4)."""
    if j in (1, 2):
        a, w = 2.0 * q ** ((n + 0.5) ** 2), (2 * n + 1) * math.pi
        if j == 1:
            return (-1) ** n * a * cmath.sin(w * v), (-1) ** n * a * w * cmath.cos(w * v)
        return a * cmath.cos(w * v), -a * w * cmath.sin(w * v)
    a, w = 2.0 * (-1.0 if j == 0 and n % 2 else 1.0) * q ** (n * n), 2 * n * math.pi
    return a * cmath.cos(w * v), -a * w * cmath.sin(w * v)


@pytest.mark.parametrize("k", [0.05, 0.3, 0.6, 0.7, 0.9, 0.99])
def test_array_theta_matches_per_site_dlmf_series(k):
    mod = elliptic.make_modulus(k)
    rng = np.random.default_rng(int(k * 1000))
    for tau_ in _lattices(mod):
        p = theta.ThetaParams(tau_)
        v = _arguments(p, rng, 60)
        for j in range(4):
            ref, scales, keep = [], [], []
            for x in v.tolist():
                try:
                    values, bounds = _ref_theta_scaled(j, x, p)
                    ref.append(values)
                    scales.append(bounds)
                    keep.append(True)
                except OverflowError:   # the restored prefactor overflows
                    with pytest.raises(OverflowError):
                        theta.theta_with_prime(j, x, p)
                    keep.append(False)
            val, dval = theta.theta_with_prime(j, v[keep].reshape(-1, 1), p)
            assert val.shape == (len(ref), 1)
            ref, scales = np.array(ref), np.array(scales)
            for got, want, scale in zip((val[:, 0], dval[:, 0]), ref.T, scales.T):
                assert (np.abs(got - want) <= THETA_ULPS * ULP * scale).all()


@pytest.mark.parametrize("k", [0.05, 0.3, 0.6, 0.9, 0.99])
def test_the_first_omitted_term_moves_no_sum_by_an_ulp(k):
    for tau_ in _lattices(elliptic.make_modulus(k)):
        p = theta.ThetaParams(tau_)
        half = 0.5 * p.tau.imag
        v = np.array([x + s * 1j * half for x in (-0.5, 0.0, 0.25, 0.5) for s in (1, -1)])
        for j in range(4):
            # theta_1, theta_2 start at n = 0; theta_0, theta_3 add 1 to n >= 1
            first, const = (0, 0.0) if j in (1, 2) else (1, 1.0)
            count = len(theta._term_table(p.tau, j)[0])
            assert 2 <= count <= 8
            [(val, dval)] = theta._series((j,), v, p)
            for i, x in enumerate(v.tolist()):
                kept = [_term(j, n, x, p.q) for n in range(first, first + count)]
                mag = const + sum(abs(t) for t, _ in kept)
                dmag = sum(abs(dt) for _, dt in kept)
                t, dt = _term(j, first + count, x, p.q)
                assert abs(t) <= ULP * mag and abs(dt) <= ULP * dmag
                # the library sums exactly the kept terms
                assert abs(val[i] - const - sum(t for t, _ in kept)) <= THETA_ULPS * ULP * mag
                assert abs(dval[i] - sum(dt for _, dt in kept)) <= THETA_ULPS * ULP * dmag


def test_single_arguments_give_python_complex():
    p = theta.ThetaParams(elliptic.make_modulus(0.6).taup)
    val, dval = theta.theta_with_prime(2, 0.1 + 0.05j, p)
    assert type(val) is complex and type(dval) is complex
    want, scales = _ref_theta_scaled(2, 0.1 + 0.05j, p)
    for got, ref, scale in zip((val, dval), want, scales):
        assert abs(got - ref) <= THETA_ULPS * ULP * scale
    sn, cn, dn = theta.jacobi_complex(0.7, elliptic.make_modulus(0.6))
    assert type(sn) is complex


def test_one_out_of_band_element_raises():
    p = theta.ThetaParams(elliptic.make_modulus(0.6).taup)
    v = np.full(5, 0.1 + 0.1j)
    v[3] = 40j * p.tau.imag
    for j in range(4):
        with pytest.raises(ThetaOverflowError):
            theta.theta_with_prime(j, v, p)


def test_one_pole_element_raises():
    mod = elliptic.make_modulus(0.6)
    u = np.array([0.3, 0.5, 1j * mod.Kp, 1.1])   # sn, cn and dn have a pole at iK'
    with pytest.raises(PoleError):
        theta.jacobi_complex(u, mod)


def test_jacobi_complex_and_weierstrass_arrays_match_single_values():
    mod = elliptic.make_modulus(0.9)
    u = np.random.default_rng(8).uniform(-8, 8, 30) + 0.3j
    arrays = theta.jacobi_complex(u, mod)
    for i, x in enumerate(u.tolist()):
        for a, b in zip(arrays, theta.jacobi_complex(x, mod)):
            _same(a[i], b)
    z = np.array([0.3, 0.213 + 0.11j, 0.9 - 0.2j])
    _same(theta.weierstrass_p(z, mod), [theta.weierstrass_p(x, mod) for x in z.tolist()])


# ------------------------------------------------------- batch invariance --

def _assert_batch_invariant(evaluate, *sites):
    """evaluate(*sites) is a tuple of arrays whose leading axis runs over the
    sites; every window of 1 to 64 consecutive sites, and every third site
    (a strided view), must give the same bits as the full batch."""
    full = evaluate(*sites)
    count = len(sites[0])
    for size in range(1, 65):
        lo = (7 * size) % (count - size + 1)   # windows at varying offsets
        for whole, part in zip(full, evaluate(*(x[lo:lo + size] for x in sites))):
            _same(whole[lo:lo + size], part)
    for whole, part in zip(full, evaluate(*(x[::3] for x in sites))):
        _same(whole[::3], part)


def _curve_lattices(k=0.6):
    """The four curve lattices (dn, cn; untwisted, twisted) that the tau route reads."""
    mod = elliptic.make_modulus(k)
    return [surfaces.SurfaceParams(mod=mod, family=f, gamma_step=0.8, beta_rate=1.0, twisted=tw)
            for f in ("dn", "cn") for tw in (False, True)]


def _tau_sites(count=97):
    rng = np.random.default_rng(12)
    return (rng.integers(-9, 10, count), rng.uniform(0, 1.5, count),
            rng.uniform(-0.8, 0.8, count), rng.uniform(-0.5, 0.5, count))


def test_theta_entry_points_are_batch_invariant():
    mod = elliptic.make_modulus(0.7)
    p = theta.lattice_params(mod)
    rng = np.random.default_rng(13)
    v = rng.uniform(-3, 3, 97) + 1j * rng.uniform(-2.5, 2.5, 97) * p.tau.imag
    for j in range(4):
        _assert_batch_invariant(lambda x: theta.theta_with_prime(j, x, p), v)
    u = rng.uniform(-8, 8, 97) + 1j * rng.uniform(-0.5, 0.5, 97)
    _assert_batch_invariant(lambda x: theta.jacobi_complex(x, mod), u)
    _assert_batch_invariant(lambda x: (theta.weierstrass_p(x, mod),), 0.2 * u + 0.1j)


@pytest.mark.parametrize("p", [_curve_lattices()[i] for i in (0, 3)],
                         ids=["dn-untwisted", "cn-twisted"])
def test_tau_entry_points_are_batch_invariant(p):
    names = ("f", "g", "fstar", "gstar", "F", "H", "dlog")
    m, t, lam, z = _tau_sites()

    def sample(*args):
        s = tau.tau_sample(p, *args[:2], lam=args[2], z=args[3])
        return tuple(getattr(s, name) for name in names)

    _assert_batch_invariant(sample, m, t, lam, z)
    _assert_batch_invariant(lambda a, b: (tau.i_r_m(p, a, b),), m, t)
    _assert_batch_invariant(lambda a, b: tau.gamma_from_tau(p, a, b), m, t)
    _assert_batch_invariant(lambda a, b: tau.bilinear_checks(p, a, b), m, t)
    _assert_batch_invariant(lambda a, b: (tau.cauchy_riemann(p, a, b),), m, t)


def _field_lattices(family, k, omega, rho, rate=0.31):
    """The curve lattice (omega, rate) and the KParams (omega, rho), in units of 4K."""
    mod = elliptic.make_modulus(k)
    K4 = 4.0 * mod.K
    return (surfaces.CurveLattice(mod=mod, family=family, gamma_step=omega * K4,
                                  beta_rate=rate * K4),
            ksurf.KParams(mod=mod, family=family, gamma_step=omega * K4, delta_step=rho * K4))


@pytest.mark.parametrize("family", elliptic.FAMILIES)
def test_sg_and_compat_entry_points_are_batch_invariant(family):
    sp = _field_lattices(family, 0.7, 0.23, 0.19)[0]
    dp = _field_lattices(family, 0.7, 0.13, 0.19)[1]
    m, t = _tau_sites()[:2]
    n = m[::-1].copy()

    def semi(a, b):
        w = surfaces.half_angles(sp, a, b)
        return (w.c, w.s, w.dwdt, w.half_exponential(), w.quarter_exponential(),
                *sg.semi_residuals(sp, a, b))

    _assert_batch_invariant(semi, m, t)
    _assert_batch_invariant(lambda a, b: (sg.discrete_sg_residual(dp, a, b),), m, n)
    quads = sg.discrete_quad(dp, m, n)
    corners = [x for w in quads for x in (w.c, w.s)]

    def compat(*cs):
        ws = [sg.HalfAngle(c=c, s=s) for c, s in zip(cs[0::2], cs[1::2])]
        return (ksurf.compat_matrices(*ws, 0.4, -0.3, ("+", "-")),)

    _assert_batch_invariant(compat, *corners)
    one = compat(*(x[5] for x in corners))[0]
    assert np.ndim(one) == 0
    _same(one, compat(*corners)[0][5])


# ------------------------------------------------------------------ tau --

@pytest.mark.parametrize("p", _curve_lattices(), ids=lambda c: f"{c.family}-{c.twisted}")
def test_tau_arrays_match_per_site_calls(p):
    rng = np.random.default_rng(9)
    m = rng.integers(-9, 10, 12)
    t = rng.uniform(0, 1.5, 12)
    lam = rng.uniform(-0.8, 0.8, 12)
    z = rng.uniform(-0.5, 0.5, 12)
    z[:2] = (0.0, -0.0)
    s = tau.tau_sample(p, m, t, lam=lam, z=z)
    g, b = tau.gamma_from_tau(p, m, t)
    checks = (*tau.bilinear_checks(p, m, t), tau.cauchy_riemann(p, m, t))
    r = tau.i_r_m(p, m, t)
    for i in range(12):
        one = tau.tau_sample(p, int(m[i]), float(t[i]), lam=float(lam[i]), z=float(z[i]))
        for name in ("f", "g", "fstar", "gstar", "F", "H", "dlog"):
            _same(getattr(s, name)[i], getattr(one, name))
        _same(r[i], tau.i_r_m(p, int(m[i]), float(t[i])))
        g1, b1 = tau.gamma_from_tau(p, int(m[i]), float(t[i]))
        _same(g[i], g1)
        _same(b[i], b1)
        mi, ti = int(m[i]), float(t[i])
        singles = (*tau.bilinear_checks(p, mi, ti), tau.cauchy_riemann(p, mi, ti))
        for arr, single in zip(checks, singles):
            _same(arr[i], single)
    one = tau.tau_sample(p, 2, 0.3)
    assert np.ndim(one.F) == 0 and np.iscomplexobj(one.F)


def test_tau_context_builds_its_lattices_once(monkeypatch):
    # the tau' and 2 tau' theta lattices of a modulus are memoized: a second
    # evaluation on the same curve lattice builds no ThetaParams
    p = _curve_lattices()[0]
    tau.gamma_from_tau(p, np.arange(-5, 6), 0.3)
    tau.bilinear_checks(p, np.arange(3), 0.3)
    built = []
    real = theta.ThetaParams.__post_init__
    monkeypatch.setattr(theta.ThetaParams, "__post_init__",
                        lambda self: built.append(self) or real(self))
    tau.gamma_from_tau(p, np.arange(-5, 6), 0.3)
    tau.bilinear_checks(p, np.arange(3), 0.3)
    assert built == []


# ------------------------------------------------------------------- sg --

@pytest.mark.parametrize("family", elliptic.FAMILIES)
def test_sg_arrays_match_per_site_calls(family):
    sp, dp = _field_lattices(family, 0.7, 0.23, 0.17)
    ms, ts = np.arange(-6, 6)[:, None], np.array([0.0, 0.3, 1.3])
    w = surfaces.half_angles(sp, ms, ts)
    r1, r2 = sg.semi_residuals(sp, ms, ts)
    ns = np.arange(-4, 5)
    d = sg.discrete_sg_residual(dp, ms, ns)
    quads = sg.discrete_quad(dp, ms, ns)
    zq = [q.quarter_exponential() for q in quads]
    for i, m in enumerate(range(-6, 6)):
        for j, t in enumerate(ts.tolist()):
            one = surfaces.half_angles(sp, m, t)
            _same([w.c[i, j], w.s[i, j], w.dwdt[i, j]], [one.c, one.s, one.dwdt])
            _same([r1[i, j], r2[i, j]], sg.semi_residuals(sp, m, t))
        for j, n in enumerate(ns.tolist()):
            _same(d[i, j], sg.discrete_sg_residual(dp, m, n))
            corners = ((m + 1, n + 1), (m, n), (m + 1, n), (m, n + 1))
            for q, z, (a, b) in zip(quads, zq, corners):
                one = surfaces.half_angles(dp, a, b)
                _same([q.c[i, j], q.s[i, j]], [one.c, one.s])
                _same(z[i, j], one.quarter_exponential())


def test_half_angle_array_checks_every_element():
    with pytest.raises(ValueError):
        sg.HalfAngle(c=np.array([0.6, 0.8, 1.0]), s=np.array([0.8, 0.6, 0.1]))


# ---------------------------------------------------------------- ksurf --

def _compat_per_quad(wA, wB, wC, wD, nu1, nu2, signs):
    """The zero-curvature defect of one quad from Python scalars: two pairs of
    2x2 matrix products and the Frobenius norm of their difference."""
    s1 = 1.0 if signs[0] == "+" else -1.0
    s2 = 1.0 if signs[1] == "+" else -1.0

    def half(w):
        return complex(w.c, w.s)

    def l_step(b, c):
        d = half(c).conjugate() * half(b)
        cv, sv = math.cos(0.5 * nu1), math.sin(0.5 * nu1)
        return np.array([[cv * d, s1 * sv], [-s1 * sv, cv * d.conjugate()]])

    def lhat_step(b, d):
        u = half(d) * half(b)
        cv, sv = math.cos(0.5 * nu2), math.sin(0.5 * nu2)
        return np.array([[cv, s2 * sv * u], [-s2 * sv * u.conjugate(), cv]])

    defect = l_step(wB, wC) @ lhat_step(wC, wA) - lhat_step(wB, wD) @ l_step(wD, wA)
    return float(np.linalg.norm(defect))


@pytest.mark.parametrize("family", elliptic.FAMILIES)
def test_array_compat_matrices_match_the_per_quad_formula(family):
    p = _field_lattices(family, 0.6, 0.13, 0.19)[1]
    quads = sg.discrete_quad(p, np.arange(-6, 6)[:, None], np.arange(-6, 6))
    rng = np.random.default_rng(14)
    # the solution's own torsion angles give defects near 0; random ones near 1
    for nu1, nu2 in [(0.5, 0.3), *rng.uniform(-3, 3, (4, 2))]:
        for signs in (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")):
            got = ksurf.compat_matrices(*quads, nu1, nu2, signs)
            assert got.shape == (12, 12)
            for i, j in np.ndindex(got.shape):
                corners = [sg.HalfAngle(c=float(w.c[i, j]), s=float(w.s[i, j])) for w in quads]
                want = _compat_per_quad(*corners, nu1, nu2, signs)
                assert abs(got[i, j] - want) <= COMPAT_ULPS * ULP


# --------------------------------------------------------------- suites --

@pytest.mark.parametrize("suite, calls, sums, sites", [
    # two moduli x one lattice, four indices each; 100 samples at 6 arguments, and 0
    (suites.suite_theta_addition, 2, 8, 601),
    # three moduli x two twists x (2 tau': theta_2, theta_3; tau': theta_3 for dn,
    # theta_0 and theta_3 for cn); 25 sites x 3 times
    (suites.suite_tau_equivalence, 3 * 2 * (2 + 2), 3 * 2 * (3 + 4), 75),
])
def test_suite_theta_series_calls_do_not_grow_with_samples(monkeypatch, suite, calls, sums, sites):
    sizes, indices = [], []
    real = theta._series

    def counting(js, v, p):
        sizes.append(v.size)
        indices.extend(js)
        return real(js, v, p)

    monkeypatch.setattr(theta, "_series", counting)
    assert suite().passed
    # one series call per (modulus, lattice, context), each over all samples
    # and every index at once
    assert len(sizes) == calls
    assert len(indices) == sums
    assert min(sizes) >= sites


def test_verify_builds_each_term_table_once(monkeypatch):
    built, sums = [], []
    build, series = theta._term_table.__wrapped__, theta._series

    def counting_build(tau_, j):
        built.append((tau_, j))
        return build(tau_, j)

    def counting_series(js, v, p):
        sums.extend(v.size for _ in js)
        return series(js, v, p)

    monkeypatch.setattr(theta, "_term_table", functools.lru_cache(maxsize=256)(counting_build))
    monkeypatch.setattr(theta, "_series", counting_series)
    assert all(r.passed for r in suites.run_suites())
    # every lattice and index builds its table once, however many ThetaParams
    # and index sums share it
    assert len(built) == len(set(built))
    assert 3 * len(built) < len(sums)


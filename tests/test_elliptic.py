import math

import numpy as np
import pytest
from scipy.integrate import quad

from sgsurf import elliptic
from sgsurf.errors import DomainError

MODULI = (0.3, 0.6, 0.9)
MODULI_WIDE = (0.3, 0.6, 0.9, 0.99)


@pytest.mark.parametrize("k", [0.0, 1.0, -0.2, 1.5])
def test_make_modulus_rejects_degenerate(k):
    with pytest.raises(DomainError):
        elliptic.make_modulus(k)


def test_equal_moduli_share_one_pack_with_a_float_k():
    mod = elliptic.make_modulus(np.float64(0.123456))
    assert type(mod.k) is float
    assert elliptic.make_modulus(0.123456) is mod
    assert elliptic.make_modulus(0.6) is elliptic.make_modulus(np.float64(0.6))
    assert type(elliptic.make_modulus(0.6).k) is float


@pytest.mark.parametrize("k", [0.0, 1.0, math.nan])
def test_an_invalid_modulus_raises_on_every_call(k):
    for _ in range(2):
        with pytest.raises(DomainError):
            elliptic.make_modulus(k)
        with pytest.raises(DomainError):
            elliptic.make_modulus(np.float64(k))


@pytest.mark.parametrize("k", MODULI)
def test_complete_integral_vs_quadrature(k):
    # independent oracle: adaptive quadrature of the defining integral
    ref, _ = quad(lambda th: 1.0 / math.sqrt(1.0 - k * k * math.sin(th) ** 2),
                  0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
    assert abs(elliptic.make_modulus(k).K - ref) < 1e-12
    ref_e, _ = quad(lambda th: math.sqrt(1.0 - k * k * math.sin(th) ** 2),
                    0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
    assert abs(elliptic.make_modulus(k).E - ref_e) < 1e-12


def test_complementary_modulus():
    assert elliptic.make_modulus(0.6).kp == pytest.approx(0.8, abs=1e-15)


def test_agm_terminates_on_stalling_gap():
    # for these moduli the gap (a_n - b_n)/2 freezes one ulp above any
    # relative tolerance; the recursion c_n^2/(4 a_{n+1}) must still stop
    for k in (0.9766044267448025, 0.9776737197529178, 0.9843121248979555):
        mod = elliptic.make_modulus(k)
        assert mod.legendre_residual() < 1e-12


@pytest.mark.parametrize("k", MODULI_WIDE)
def test_legendre_relation(k):
    mod = elliptic.make_modulus(k)
    assert mod.legendre_residual() < 1e-12
    assert mod.K > 0 and mod.Kp > 0 and mod.E > 0 and mod.Ep > 0
    assert mod.E < mod.K


def test_modulus_lattice_constants():
    mod = elliptic.make_modulus(0.6)
    assert mod.tau == pytest.approx(1j * mod.Kp / mod.K)
    assert mod.taup == pytest.approx(1j * mod.K / mod.Kp)
    assert 0.0 < mod.q < 1.0
    assert mod.q == pytest.approx(math.exp(-math.pi * mod.K / mod.Kp))


def test_jacobi_special_points():
    mod = elliptic.make_modulus(0.6)
    sn, cn, dn = elliptic.jacobi(0.0, mod)
    assert (sn, cn, dn) == pytest.approx((0.0, 1.0, 1.0), abs=1e-15)
    sn, cn, dn = elliptic.jacobi(mod.K, mod)
    assert sn == pytest.approx(1.0, abs=1e-14)
    assert cn == pytest.approx(0.0, abs=1e-14)
    assert dn == pytest.approx(mod.kp, abs=1e-14)


@pytest.mark.parametrize("k", MODULI_WIDE)
def test_jacobi_pythagorean_identities(k):
    mod = elliptic.make_modulus(k)
    u = np.linspace(-4.0 * mod.K, 4.0 * mod.K, 101)
    sn, cn, dn = elliptic.jacobi(u, mod)
    assert np.abs(sn * sn + cn * cn - 1.0).max() < 1e-12
    assert np.abs(dn * dn + mod.m * sn * sn - 1.0).max() < 1e-12


def test_jacobi_quasi_periodicity():
    mod = elliptic.make_modulus(0.6)
    rng = np.random.default_rng(0)
    for u in rng.uniform(-3, 3, 20):
        s0, c0, d0 = elliptic.jacobi(u, mod)
        s1, c1, d1 = elliptic.jacobi(u + 2.0 * mod.K, mod)
        assert s1 == pytest.approx(-s0, abs=1e-13)
        assert c1 == pytest.approx(-c0, abs=1e-13)
        assert d1 == pytest.approx(d0, abs=1e-13)


def test_jacobi_large_argument_stability():
    mod = elliptic.make_modulus(0.9)
    u = 1.0e6
    r = u - 4.0 * mod.K * round(u / (4.0 * mod.K))
    sn_big, _, _ = elliptic.jacobi(u, mod)
    sn_red, _, _ = elliptic.jacobi(r, mod)
    assert sn_big == pytest.approx(sn_red, abs=1e-12)


@pytest.mark.parametrize("k", MODULI)
def test_addition_formulae(k):
    mod = elliptic.make_modulus(k)
    rng = np.random.default_rng(1)
    for _ in range(100):
        u, g = rng.uniform(-2.0 * mod.K, 2.0 * mod.K, 2)
        su, cu, du = elliptic.jacobi(u, mod)
        sv, cv, dv = elliptic.jacobi(g, mod)
        den = 1.0 - mod.m * sv * sv * su * su
        sn, cn, dn = elliptic.jacobi(u + g, mod)
        assert sn == pytest.approx((cv * dv * su + sv * cu * du) / den, abs=1e-11)
        assert cn == pytest.approx((cv * cu - sv * dv * su * du) / den, abs=1e-11)
        assert dn == pytest.approx((dv * du - mod.m * sv * cv * su * cu) / den, abs=1e-11)


def test_shifted_identity_corpus_spot():
    # items (iv) and (vii) of the nine-identity corpus at fixed points;
    # the full 200-sample sweep runs in the acceptance suite
    mod = elliptic.make_modulus(0.6)
    for g, psi in ((0.8, 0.3), (1.3, -1.1), (-0.4, 2.2)):
        s0, c0, d0 = elliptic.jacobi(psi, mod)
        s1, c1, d1 = elliptic.jacobi(psi + g, mod)
        sg_, cg, dg = elliptic.jacobi(g, mod)
        assert sg_ * d1 + s0 * c1 == pytest.approx(dg * s1 * c0, abs=1e-12)
        assert cg * c1 + sg_ * s1 * d0 == pytest.approx(c0, abs=1e-12)


def test_sn2_integral_values():
    mod = elliptic.make_modulus(0.6)
    assert elliptic.sn2_integral(0.0, mod) == 0.0
    # one period: oracle by quadrature, closed form 2(K - E)/k^2
    ref = quad(lambda x: elliptic.jacobi(x, mod)[0] ** 2, 0.0, 2.0 * mod.K, limit=200)[0]
    val = float(elliptic.sn2_integral(2.0 * mod.K, mod))
    assert val == pytest.approx(ref, abs=1e-12)
    assert val == pytest.approx(2.0 * (mod.K - mod.E) / mod.m, abs=1e-13)


def test_sn2_integral_parity_and_quasi_period():
    mod = elliptic.make_modulus(0.6)
    inc = 2.0 * (mod.K - mod.E) / mod.m
    for u in (0.4, 1.7, 3.3):
        assert float(elliptic.sn2_integral(-u, mod)) == pytest.approx(
            -float(elliptic.sn2_integral(u, mod)), abs=1e-13)
        assert float(elliptic.sn2_integral(u + 2.0 * mod.K, mod)) == pytest.approx(
            float(elliptic.sn2_integral(u, mod)) + inc, abs=1e-12)


@pytest.mark.parametrize("k", MODULI)
def test_sn2_integral_vs_quadrature(k):
    mod = elliptic.make_modulus(k)
    for u in np.linspace(-4.0 * mod.K, 4.0 * mod.K, 13):
        ref = quad(lambda x: elliptic.jacobi(x, mod)[0] ** 2, 0.0, float(u), limit=200)[0]
        assert float(elliptic.sn2_integral(float(u), mod)) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("k", [1e-8, 1e-4, 0.3, 0.6, 0.9, 0.99])
def test_jacobi_matches_scipy_ellipj(k):
    # scipy's descending-Landen ellipj as an independent oracle, fed the same
    # argument reduced mod 4K: unreduced, its own error grows to ~3e-14 at |u| = 30
    from scipy.special import ellipj
    mod = elliptic.make_modulus(k)
    u = np.linspace(-30.0, 30.0, 1201)
    r = u - 4.0 * mod.K * np.round(u / (4.0 * mod.K))
    for got, want in zip(elliptic.jacobi(u, mod), ellipj(r, k * k)[:3]):
        assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("k", [1e-8, 1e-6, 1e-4, 0.6, 0.999999])
def test_sn2_integral_relative_error_vs_mpmath(k):
    # (u - eps(u)) / k^2 at 40 digits, eps(u) = 2 n E + E(am r | k^2) on
    # r = u - 2 n K in [-K, K], am r = atan2(sn r, cn r); the k -> 0
    # cancellation is harmless at that precision
    mp = pytest.importorskip("mpmath")
    mod = elliptic.make_modulus(k)
    with mp.workdps(40):
        m = mp.mpf(k) ** 2
        K, E = mp.ellipk(m), mp.ellipe(m)
        for u in [*np.linspace(-4.0 * mod.K, -0.5 * mod.K, 8), 0.37, 2.9, 11.3, 40.0]:
            U = mp.mpf(float(u))
            n = mp.nint(U / (2 * K))
            r = U - 2 * n * K
            am = mp.atan2(mp.ellipfun("sn", r, m=m), mp.ellipfun("cn", r, m=m))
            ref = (U - 2 * n * E - mp.ellipe(am, m)) / m
            got = elliptic.sn2_integral(float(u), mod)
            assert abs((got - ref) / ref) <= 1e-14, (u, float(abs((got - ref) / ref)))


@pytest.mark.parametrize("family", ["dn", "cn"])
@pytest.mark.parametrize("k", [1e-6, 0.6, 0.999])
def test_lattice_step_equals_the_separate_evaluations(family, k):
    # one Landen pass gives what atan2 of jacobi, sn2_integral and sn used to
    mod = elliptic.make_modulus(k)
    for step in (0.0, 0.1247, -0.8, mod.K, 2.0 * mod.K, -7.3, 41.0):
        sn, cn, dn = elliptic.jacobi(step, mod)
        for flipped in (False, True):
            if family == "dn":
                angle, scale = math.atan2(k * sn, -dn if flipped else dn), sn
            else:
                angle, scale = math.atan2(sn, -cn if flipped else cn), k * sn
            got = elliptic._lattice_step(mod, family, step, flipped)
            ref = (angle, elliptic.sn2_integral(step, mod), scale)
            assert [repr(float(x)) for x in got] == [repr(float(x)) for x in ref]

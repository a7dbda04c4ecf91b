import dataclasses
import math

import numpy as np
import pytest

from sgsurf import elliptic, ksurf, sg, surfaces
from sgsurf.errors import DomainError

MOD = elliptic.make_modulus(0.6)


def _params(family="dn", gamma=0.8, delta=0.55, k=0.6):
    return ksurf.KParams(mod=elliptic.make_modulus(k), family=family,
                         gamma_step=gamma, delta_step=delta)


def test_origin_points():
    F, N = ksurf.k_point(_params("dn"), 0, 0)
    assert F == pytest.approx([1 / 0.6, 0.0, 0.0])
    assert N == pytest.approx([0.0, 0.0, -1.0])
    F, N = ksurf.k_point(_params("cn"), 0, 0)
    assert F == pytest.approx([0.6, 0.0, 0.0])
    assert N == pytest.approx([0.0, 0.0, -1.0])


def test_angle_constraints():
    p = _params("dn")
    sng, cng, dng = elliptic.jacobi(p.gamma_step, p.mod)
    snd, cnd, dnd = elliptic.jacobi(p.delta_step, p.mod)
    assert math.cos(p.alpha_step) == pytest.approx(dng)
    assert math.sin(p.alpha_step) == pytest.approx(0.6 * sng)
    assert math.cos(p.beta_step) == pytest.approx(-dnd)
    assert math.sin(p.beta_step) == pytest.approx(0.6 * snd)
    p = _params("cn")
    assert math.cos(p.alpha_step) == pytest.approx(cng)
    assert math.cos(p.beta_step) == pytest.approx(-cnd)


@pytest.mark.parametrize("family", ["dn", "cn"])
def test_rows_are_the_curve_moved_rigidly(family):
    # row n of the K-surface is the untwisted curve of beta_rate 1 at t = n delta,
    # rotated about z by n (beta + pi) - rate n delta and lifted along z
    p = _params(family)
    curve = surfaces.SurfaceParams(mod=p.mod, family=family, gamma_step=p.gamma_step,
                                   beta_rate=1.0)
    k = p.mod.k
    rate, lift = (k, k) if family == "dn" else (1.0, k * k)
    ms = np.arange(-40, 41)
    for n in range(-6, 7):
        t = n * p.delta_step
        theta = n * (p.beta_step + math.pi) - rate * t
        c, s = math.cos(theta), math.sin(theta)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        F, N = ksurf.k_point(p, ms, n)
        G = surfaces.gamma_point(curve, ms, t) @ R.T
        G[:, 2] += lift * n * p.delta_integral
        B = surfaces.b_point(curve, ms, t) @ R.T
        assert np.abs(F - G).max() < 1e-13
        assert np.abs(N - (B if family == "dn" else -B)).max() < 1e-13


def test_kparams_takes_no_twist_or_rate():
    assert [f.name for f in dataclasses.fields(ksurf.KParams) if f.init] == [
        "mod", "family", "gamma_step", "delta_step"]
    for knob in ({"twisted": True}, {"beta_rate": 2.0}):
        with pytest.raises(TypeError):
            ksurf.KParams(mod=MOD, family="dn", gamma_step=0.8, delta_step=0.55, **knob)
    p = _params("cn")
    assert (p.twisted, p.beta_rate, p.epsilon_sign) == (False, 1.0, 1)


@pytest.mark.parametrize("family", ["dn", "cn"])
def test_normals_unit(family):
    p = _params(family)
    rng = np.random.default_rng(40)
    for _ in range(30):
        _, N = ksurf.k_point(p, int(rng.integers(-12, 12)), int(rng.integers(-12, 12)))
        assert np.linalg.norm(N) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("family", ["dn", "cn"])
def test_edge_identities(family):
    # F_{m+1,n} - F = N_{m+1,n} x N and F_{m,n+1} - F = -N_{m,n+1} x N at every
    # vertex (m, n) of -10..9 x -10..9
    grid = ksurf.k_grid(_params(family), range(-10, 11), range(-10, 11))
    F, N = grid.points, grid.normals
    res_m = F[1:, :-1] - F[:-1, :-1] - np.cross(N[1:, :-1], N[:-1, :-1])
    res_n = F[:-1, 1:] - F[:-1, :-1] + np.cross(N[:-1, 1:], N[:-1, :-1])
    assert np.linalg.norm(res_m, axis=-1).max() < 1e-10
    assert np.linalg.norm(res_n, axis=-1).max() < 1e-10


def test_edge_sign_sensitivity():
    # flipping the sign in the n-direction identity must fail loudly
    p = _params("dn")
    worst = 0.0
    for m in range(-5, 5):
        F, N = ksurf.k_point(p, m, 0)
        Fn, Nn = ksurf.k_point(p, m, 1)
        worst = max(worst, float(np.linalg.norm(Fn - F - np.cross(Nn, N))))
    assert worst > 1e-2


@pytest.mark.parametrize("family", ["dn", "cn"])
def test_grid_axioms(family):
    grid = ksurf.k_grid(_params(family), range(-10, 10), range(-10, 10))
    rep = grid.invariant_residuals()
    assert rep["planarity"] < 1e-10
    assert rep["opposite_edges"] < 1e-10
    assert rep["length_spread"] < 1e-10  # A_m only depends on m, B_n only on n


@pytest.mark.parametrize("vertex", [(5, 4), (0, 0), (2, 4)])
def test_a_nan_vertex_fails_every_residual(vertex):
    grid = ksurf.k_grid(_params("dn"), range(6), range(5))
    pts = grid.points.copy()
    pts[vertex + (1,)] = np.nan
    rep = ksurf.KGrid(params=grid.params, m_values=grid.m_values, n_values=grid.n_values,
                      points=pts, normals=grid.normals).invariant_residuals()
    assert all(math.isnan(v) for v in rep.values()), rep


@pytest.mark.parametrize("family", ["dn", "cn"])
def test_direction_torsions(family):
    p = _params(family)
    sng, cng, dng = elliptic.jacobi(p.gamma_step, p.mod)
    snd, cnd, dnd = elliptic.jacobi(p.delta_step, p.mod)
    tg = cng if family == "dn" else dng
    td = cnd if family == "dn" else dnd
    for m in range(-8, 8):
        for n in range(-8, 8):
            _, N = ksurf.k_point(p, m, n)
            _, Nm = ksurf.k_point(p, m + 1, n)
            _, Nn = ksurf.k_point(p, m, n + 1)
            assert abs(float(np.dot(N, Nm)) - tg) < 1e-12
            assert abs(float(np.dot(N, Nn)) - td) < 1e-12


def _tan_half(nu):
    """tan(nu/2) = sin(nu) / (1 + cos(nu))."""
    return math.sin(nu) / (1.0 + math.cos(nu))


def _compat_inputs(family):
    p = _params(family, gamma=4 * MOD.K * 0.13, delta=4 * MOD.K * 0.19)
    sng, cng, dng = elliptic.jacobi(p.gamma_step, MOD)
    snd, cnd, dnd = elliptic.jacobi(p.delta_step, MOD)
    if family == "dn":
        nu1, nu2 = math.atan2(sng, cng), math.atan2(snd, cnd)
    else:
        nu1, nu2 = math.atan2(MOD.k * sng, dng), math.atan2(MOD.k * snd, dnd)
    return p, nu1, nu2


def _quads(p):
    """The field on the quads (m, n), m and n in -6..5, as corners (A, B, C, D)."""
    return sg.discrete_quad(p, np.arange(-6, 6)[:, None], np.arange(-6, 6))


@pytest.mark.parametrize("family", ["dn", "cn"])
def test_compat_same_sign(family):
    # coupling equals -tan(nu1/2) tan(nu2/2): the same-sign condition
    p, nu1, nu2 = _compat_inputs(family)
    assert sg.discrete_sg_coeff(p) == pytest.approx(-_tan_half(nu1) * _tan_half(nu2), abs=1e-12)
    corners = _quads(p)
    for s in ("+", "-"):
        assert ksurf.compat_matrices(*corners, nu1, nu2, (s, s)).max() < 1e-11


@pytest.mark.parametrize("family", ["dn", "cn"])
def test_compat_mixed_sign(family):
    # mixed signs need the opposite n-direction torsion angle, so that the
    # coupling equals +tan(nu1/2) tan(nu2/2)
    p, nu1, nu2 = _compat_inputs(family)
    assert sg.discrete_sg_coeff(p) == pytest.approx(_tan_half(nu1) * _tan_half(-nu2), abs=1e-12)
    corners = _quads(p)
    for signs in (("+", "-"), ("-", "+")):
        assert ksurf.compat_matrices(*corners, nu1, -nu2, signs).max() < 1e-11


def test_compat_sensitivity():
    p, nu1, nu2 = _compat_inputs("dn")
    wA, wB, wC, wD = sg.discrete_quad(p, np.arange(-4, 4), 0)
    s = 1.01 * wA.s
    nrm = np.hypot(wA.c, s)
    wAp = sg.HalfAngle(c=wA.c / nrm, s=s / nrm)
    assert ksurf.compat_matrices(wAp, wB, wC, wD, nu1, nu2, ("+", "+")).max() > 1e-3


@pytest.mark.parametrize("family", ["dn", "cn"])
def test_compat_angle_identity(family):
    # -sin(V) = tan(nu1/2) tan(nu2/2) sin(U), U = (A+B+C+D)/4, V = (A+B-C-D)/4
    p, nu1, nu2 = _compat_inputs(family)
    t1, t2 = _tan_half(nu1), _tan_half(nu2)
    zA, zB, zC, zD = (w.quarter_exponential() for w in _quads(p))
    sinU = (zA * zB * zC * zD).imag
    sinV = (zA * zB * zC.conjugate() * zD.conjugate()).imag
    assert np.abs(-sinV - t1 * t2 * sinU).max() < 1e-10


@pytest.mark.parametrize("family", ["dn", "cn"])
def test_rendered_lattice_carries_a_compatible_field(family):
    # the very KParams that k_grid renders fixes the field: it solves the discrete
    # sG equation, and it passes the zero-curvature condition with the torsion
    # angles of the other family, whose cosines are the mesh's normal dot products
    p = _params(family)
    ms, ns = np.arange(-6, 6)[:, None], np.arange(-6, 6)
    assert np.abs(sg.discrete_sg_residual(p, ms, ns)).max() < 1e-9
    other = "cn" if family == "dn" else "dn"
    nu1, nu2 = (elliptic._lattice_step(p.mod, other, step, False)[0]
                for step in (p.gamma_step, p.delta_step))
    assert ksurf.compat_matrices(*_quads(p), nu1, nu2).max() < 1e-11
    N = ksurf.k_grid(p, range(-6, 7), range(-6, 7)).normals
    along_m = (N[:-1] * N[1:]).sum(axis=-1)
    along_n = (N[:, :-1] * N[:, 1:]).sum(axis=-1)
    assert np.abs(along_m - math.cos(nu1)).max() < 1e-12
    assert np.abs(along_n - math.cos(nu2)).max() < 1e-12


def test_periodicity_case_1a():
    rep = ksurf.k_periodicity("1a", order=3, window=12)
    assert rep["max_defect"] < 1e-9
    assert rep["family"] == "dn"
    assert rep["modulus"] == pytest.approx(math.sin(math.pi / 3))
    assert "(6,6)" in rep["shifts"]


@pytest.mark.parametrize("case", ["1b", "1c", "2a", "2b", "2c"])
def test_periodicity_other_cases(case):
    rep = ksurf.k_periodicity(case, order=3, window=8)
    assert rep["max_defect"] < 1e-9


def test_periodicity_case_2c_shifts():
    rep = ksurf.k_periodicity("2c", order=3, window=8)
    assert set(rep["shifts"]) == {"(2,0)", "(0,4)", "(1,2)"}


def test_periodicity_defect_keeps_a_nan(monkeypatch):
    real = ksurf.k_point

    def nan_point(p, m, n):
        F, N = real(p, m, n)
        F = F.copy()
        F[1, 1] = np.nan
        return F, N

    monkeypatch.setattr(ksurf, "k_point", nan_point)
    rep = ksurf.k_periodicity("2a", order=3, window=8)
    assert all(math.isnan(d) for d in rep["shifts"].values())
    assert math.isnan(rep["max_defect"])


def test_periodicity_validation():
    with pytest.raises(DomainError):
        ksurf.k_periodicity("3a")
    with pytest.raises(DomainError):
        ksurf.k_periodicity("1a", order=2)
    # order 0 would divide by zero; an empty window would check nothing
    for kwargs in ({"order": 0}, {"window": 0}, {"window": -2}):
        with pytest.raises(DomainError):
            ksurf.k_periodicity("2a", **kwargs)


# ------------------------------------------- residuals against the plain forms --

def _oracle_edge_lengths(pts):
    a = np.linalg.norm(pts[1:, :, :] - pts[:-1, :, :], axis=2)
    b = np.linalg.norm(pts[:, 1:, :] - pts[:, :-1, :], axis=2)
    return a, b


def _oracle_residuals(pts, nrm):
    """The residuals with every star edge formed apart and four np.cross calls."""
    d = [
        ((pts[1:, :] - pts[:-1, :]) * nrm[:-1, :]).sum(axis=2),
        ((pts[:-1, :] - pts[1:, :]) * nrm[1:, :]).sum(axis=2),
        ((pts[:, 1:] - pts[:, :-1]) * nrm[:, :-1]).sum(axis=2),
        ((pts[:, :-1] - pts[:, 1:]) * nrm[:, 1:]).sum(axis=2),
    ]
    planarity = max((float(np.abs(x).max()) for x in d if x.size), default=0.0)
    triple = 0.0
    if pts.shape[0] > 2 and pts.shape[1] > 2:
        c = pts[1:-1, 1:-1]
        edges = [pts[2:, 1:-1] - c, pts[:-2, 1:-1] - c,
                 pts[1:-1, 2:] - c, pts[1:-1, :-2] - c]
        for a in range(4):
            for b in range(a + 1, 4):
                for e in range(b + 1, 4):
                    det = (np.cross(edges[a], edges[b]) * edges[e]).sum(axis=2)
                    triple = max(triple, float(np.abs(det).max()))
    planarity = max(planarity, triple)
    a, b = _oracle_edge_lengths(pts)
    opp = 0.0
    spread = 0.0
    if a.size and a.shape[1] > 1:
        opp = max(opp, float(np.abs(np.diff(a, axis=1)).max()))
        spread = max(spread, float((a.max(axis=1) - a.min(axis=1)).max()))
    if b.size and b.shape[0] > 1:
        opp = max(opp, float(np.abs(np.diff(b, axis=0)).max()))
        spread = max(spread, float((b.max(axis=0) - b.min(axis=0)).max()))
    return {"planarity": planarity, "opposite_edges": opp, "length_spread": spread}


@pytest.mark.parametrize("family", ["dn", "cn"])
@pytest.mark.parametrize("k", [1e-6, 0.6, 0.999])
@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (2, 2), (3, 3), (40, 37)])
def test_shared_edge_residuals_equal_the_plain_forms(family, k, shape):
    g = ksurf.k_grid(_params(family, gamma=0.7, delta=0.45, k=k),
                     range(-3, shape[0] - 3), range(2, shape[1] + 2))
    assert g.invariant_residuals() == _oracle_residuals(g.points, g.normals)
    for got, ref in zip(g.edge_lengths(), _oracle_edge_lengths(g.points)):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("family", ["dn", "cn"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (8, 1), (40, 37)])
def test_first_edge_lengths_are_the_edge_length_slices(family, shape):
    # the ksurface sidecar's A_m and B_n, formed from the first column and row only
    g = ksurf.k_grid(_params(family, gamma=0.7, delta=0.45), range(-3, shape[0] - 3),
                     range(2, shape[1] + 2))
    a, b = g.edge_lengths()
    first_a, first_b = g.first_edge_lengths()
    assert first_a.tobytes() == a[:, 0].tobytes() and first_a.shape == (shape[0] - 1,)
    assert first_b.tobytes() == b[0, :].tobytes() and first_b.shape == (shape[1] - 1,)


@pytest.mark.parametrize("shape", [(3, 3), (4, 5), (7, 3)])
def test_shared_edge_residuals_equal_the_plain_forms_off_the_surface(shape):
    # on a K-surface every residual is near 1e-15; random stars make each
    # dot and triple product the largest one in turn
    rng = np.random.default_rng(sum(shape))
    for _ in range(24):
        pts = rng.normal(size=shape + (3,)) * 10.0 ** rng.integers(-3, 4, size=shape + (1,))
        g = ksurf.KGrid(params=_params(), m_values=np.arange(shape[0]),
                        n_values=np.arange(shape[1]), points=pts,
                        normals=rng.normal(size=shape + (3,)))
        assert g.invariant_residuals() == _oracle_residuals(g.points, g.normals)
        for got, ref in zip(g.edge_lengths(), _oracle_edge_lengths(g.points)):
            assert got.tobytes() == ref.tobytes()

"""The isoperimetric flow and the tau-function cross-check, side by side.

Every curve in the package deforms without stretching: d Gamma / dt stays in
the (T, N) plane with components (cos w, sin w) of a half-angle built from
the carried lattice field.  The same curves are reproduced through a second,
very different pipeline (theta-function bilinears); this script prints the
agreement between the two routes.

Run:  python3 demos/flow_and_oracle.py
"""

import numpy as np

from sgsurf import elliptic, surfaces, tau


def main():
    mod = elliptic.make_modulus(0.6)

    print("flow decomposition (dn family, untwisted)")
    p = surfaces.SurfaceParams(mod=mod, family="dn", gamma_step=0.8, beta_rate=1.0)
    for m in range(4):
        v = surfaces.flow_velocity(p, m, 0.5)
        T, N, B = surfaces.curve_frames(p, m, 0.5)
        w = surfaces.flow_angle(p, m, 0.5)
        print(f"  m={m}: <v,T>={np.dot(v, T):+.6f} (cos w = {w.c:+.6f}) "
              f"<v,N>={np.dot(v, N):+.6f} (sin w = {w.s:+.6f}) "
              f"<v,B>={np.dot(v, B):+.1e}")

    print("tau-function route vs closed forms (worst componentwise gap)")
    for family in ("dn", "cn"):
        for twisted in (False, True):
            # one lattice feeds both routes
            sp = surfaces.SurfaceParams(mod=mod, family=family, gamma_step=0.8,
                                        beta_rate=1.0, twisted=twisted)
            worst = 0.0
            for m in range(-10, 11):
                for t in (0.0, 0.7):
                    g1, b1 = tau.gamma_from_tau(sp, m, t)
                    worst = max(worst,
                                float(np.abs(g1 - surfaces.gamma_point(sp, m, t)).max()),
                                float(np.abs(b1 - surfaces.b_point(sp, m, t)).max()))
            fh, fr_res, cr = tau.bilinear_checks(sp, 2, 0.3)
            tag = "twisted" if twisted else "untwisted"
            print(f"  {family} {tag:9s}: gap {worst:.2e}, bilinear residuals "
                  f"{fh:.1e} / {fr_res:.1e}, analytic pairing {cr:.1e}")


if __name__ == "__main__":
    main()

"""Generate discrete K-surface meshes and certify their defining axioms.

Each surface is a quad lattice F_{m,n} whose vertex stars are planar and
whose opposite quad edges match in length.  Both closed-form families are
sampled, the axiom residuals are printed, and the large fine-step dn mesh
(sin(alpha) = 0.8 sn(K/16), 128 x 128) is exported as OBJ.  Last, the six
periodic surfaces print the least periods that ``KParams.closure_defect``
derives from their lattice constants, each checked on evaluated points.

Run:  python3 demos/ksurface_gallery.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from sgsurf import elliptic, ksurf
from sgsurf.cli import write_obj


def report(name, grid):
    rep = grid.invariant_residuals()
    a, b = grid.edge_lengths()
    print(f"  {name}: {grid.points.shape[0]}x{grid.points.shape[1]} vertices, "
          f"A_0 = {a[0, 0]:.4f}, B_0 = {b[0, 0]:.4f}")
    for key, val in rep.items():
        print(f"    {key:15s} {val:.2e}")
    return rep


def least_periods(p, reach=6):
    """The shortest shift that closure_defect accepts and the shortest one not
    parallel to it: a basis of the lattice of periods."""
    shifts = sorted(((dm, dn) for dm in range(reach + 1) for dn in range(-reach, reach + 1)
                     if (dm, dn) > (0, 0)), key=lambda s: s[0] ** 2 + s[1] ** 2)
    periods = [s for s in shifts if p.closure_defect(*s) < 1e-9]
    first = periods[0]
    return first, next(s for s in periods if s[0] * first[1] != s[1] * first[0])


def shift_defect(p, dm, dn, window=8):
    """max |F(m + dm, n + dn) - F(m, n)| over a window x window block."""
    ms, ns = np.arange(window)[:, None], np.arange(window)
    return float(np.abs(ksurf.k_point(p, ms + dm, ns + dn)[0] - ksurf.k_point(p, ms, ns)[0]).max())


def main():
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("ksurface_out")
    out.mkdir(parents=True, exist_ok=True)

    mod = elliptic.make_modulus(0.6)
    print("axiom residuals on 20x20 windows")
    for family in ("dn", "cn"):
        p = ksurf.KParams(mod=mod, family=family, gamma_step=0.8, delta_step=0.55)
        grid = ksurf.k_grid(p, range(-10, 10), range(-10, 10))
        report(f"{family} family", grid)
        write_obj(out / f"{family}_window.obj", grid.points)

    # fine-step pseudospherical sheet: k = 0.8, gamma = delta = K/16,
    # so sin(alpha) = k sn(K/16) = 0.8 sn(K/16)
    mod8 = elliptic.make_modulus(0.8)
    p = ksurf.KParams(mod=mod8, family="dn",
                      gamma_step=mod8.K / 16, delta_step=mod8.K / 16)
    grid = ksurf.k_grid(p, range(128), range(128))
    report("fine dn sheet", grid)
    write_obj(out / "dn_sheet_128.obj", grid.points)
    print(f"meshes written to {out}/")

    print("periodic K-surfaces of order 3: least periods (evaluated defect)")
    for case, p in ksurf.periodic_cases(3).items():
        periods = ", ".join(f"({dm},{dn}) {shift_defect(p, dm, dn):.1e}"
                            for dm, dn in least_periods(p))
        print(f"  case {case} ({p.family}): {periods}")


if __name__ == "__main__":
    main()

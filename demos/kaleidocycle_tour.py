"""Tour of the closed-linkage configurations.

For k = sin(pi/n) and step gamma = K the dn-family discrete curve closes up:
Gamma_{m+2n} = Gamma_m at every time, so the 2n segments form a ring of
hinged links (a kaleidocycle).  The time flow rotates every field sample
through the elliptic wave while all edge lengths and all hinge angles stay
fixed; the binormals B_m are the hinge axes.

Run:  python3 demos/kaleidocycle_tour.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from sgsurf import elliptic, surfaces


def evaluated_defect(p, period, t_values, window):
    worst = 0.0
    for t in t_values:
        for m in range(window):
            d = surfaces.gamma_point(p, m + period, t) - surfaces.gamma_point(p, m, t)
            worst = max(worst, float(np.linalg.norm(d)))
    return worst


def main():
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("kaleidocycle_out")
    out.mkdir(parents=True, exist_ok=True)
    t_values = np.linspace(0.0, 4.0, 9)

    print("closed dn-family linkages, gamma = K, k = sin(pi/n)")
    for n in (3, 4, 5, 6, 8):
        p = surfaces.kaleidocycle_params(n)
        period = surfaces.kaleidocycle_period(n, "dn")
        defect = evaluated_defect(p, period, t_values, period + 2)
        sn, cn, dn = elliptic.jacobi(p.gamma_step, p.mod)
        print(f"  n={n}: {period} segments, edge length {abs(sn):.3f}, "
              f"hinge cosine {cn:+.3f}, closure defect {defect:.2e}")

    # the cn family closes after just two steps for any modulus
    pc = surfaces.kaleidocycle_params(4, family="cn")
    period = surfaces.kaleidocycle_period(4, "cn")
    print(f"  cn family: period-{period} closure defect "
          f"{evaluated_defect(pc, period, t_values, 8):.2e}")

    # write an animation of the n = 6 ring (12 hinges), one CSV per frame
    n = 6
    p = surfaces.kaleidocycle_params(n)
    w = surfaces.snapshots(p, range(surfaces.kaleidocycle_period(n, "dn") + 1), t_values)
    for idx in range(len(t_values)):
        lines = ["m,x,y,z,Bx,By,Bz"]
        for m, pt, b in zip(w.ms, w.points[idx], w.binormals[idx]):
            lines.append(",".join([str(int(m))] + [f"{v:.17g}" for v in (*pt, *b)]))
        (out / f"ring6_{idx:03d}.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(t_values)} animation frames for n=6 to {out}/")


if __name__ == "__main__":
    main()

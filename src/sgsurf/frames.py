"""su(2) machinery and discrete Frenet frames.

The isomorphism phi maps R^3 onto su(2) through the basis
E1 = [[0,-i],[-i,0]], E2 = [[0,-1],[1,0]], E3 = [[-i,0],[0,i]]; cross
products become half-commutators, phi(A x B) = [phi(A), phi(B)] / 2.

Two SU(2) transfer matrices propagate unitary frames along a half-angle
field, one per sign convention of the discrete curvature:

  variant "plus_k"  (curvature (w_{m+2} - w_m)/2):
      [[cos(nu/2) e^{-i(w1-w0)/4},  +-sin(nu/2) e^{-i(w1+w0)/4}],
       [-+sin(nu/2) e^{ i(w1+w0)/4},  cos(nu/2) e^{ i(w1-w0)/4}]]
  variant "minus_k":
      [[cos(nu/2) e^{ i(w1+w0)/4},  +-sin(nu/2) e^{ i(w1-w0)/4}],
       [-+sin(nu/2) e^{-i(w1-w0)/4},  cos(nu/2) e^{-i(w1+w0)/4}]]

Both satisfy B_{m+1} x B_m = sin(nu) T_m for the frame vectors they carry.
For "plus_k" the adjoint action on (E1, E2, E3) is exactly the SO(3) step
of transfer_so3 at curvature (w_{m+2} - w_m)/2; the "minus_k" adjoint action
realizes curvature -(w_{m+2} + w_m)/2 instead (see tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFrameError
from .sg import HalfAngle

E1 = np.array([[0.0, -1j], [-1j, 0.0]])
E2 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
E3 = np.array([[-1j, 0.0], [0.0, 1j]])

VARIANTS = ("plus_k", "minus_k")
SIGNS = ("+", "-")


def phi_iso(v) -> np.ndarray:
    """R^3 -> su(2): x1 E1 + x2 E2 + x3 E3 (traceless anti-Hermitian)."""
    x1, x2, x3 = v
    return np.array([[-1j * x3, -1j * x1 - x2], [-1j * x1 + x2, 1j * x3]])


def vector_from_su2(M: np.ndarray) -> np.ndarray:
    """Inverse of phi_iso on su(2) elements."""
    return np.array([
        (0.5j * (M[0, 1] + M[1, 0])).real,
        (0.5 * (M[1, 0] - M[0, 1])).real,
        (1j * M[0, 0]).real,
    ])


def transfer_su2(wm: HalfAngle, wm1: HalfAngle, nu: float,
                 variant: str, sign: str) -> np.ndarray:
    """SU(2) step matrix for the field pair (w_m, w_{m+1}) and torsion angle nu."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if sign not in SIGNS:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    e0 = wm.quarter_exponential()
    e1 = wm1.quarter_exponential()
    cv, sv = math.cos(0.5 * nu), math.sin(0.5 * nu)
    sg = 1.0 if sign == "+" else -1.0
    if variant == "plus_k":
        diag = e1.conjugate() * e0        # e^{-i(w1-w0)/4}
        off = e1.conjugate() * e0.conjugate()  # e^{-i(w1+w0)/4}
    else:
        diag = e1 * e0                    # e^{ i(w1+w0)/4}
        off = e1 * e0.conjugate()         # e^{ i(w1-w0)/4}
    return np.array([
        [cv * diag, sg * sv * off],
        [-sg * sv * off.conjugate(), cv * diag.conjugate()],
    ])


def frame_generators(w_next: HalfAngle, variant: str = "plus_k") -> tuple[np.ndarray, np.ndarray]:
    """su(2) generators whose conjugation by the unitary frame gives (T_m, N_m).

    The tangent/normal at site m are driven by the field value at m+1.
    """
    c, s = w_next.c, w_next.s
    if variant == "plus_k":
        return -s * E1 + c * E2, -c * E1 - s * E2
    return s * E1 + c * E2, -c * E1 + s * E2


def frame_from_unitary(U: np.ndarray, w_next: HalfAngle,
                       variant: str, sign: str) -> "Frame":
    """Assemble the SO(3) frame carried by a unitary frame matrix U."""
    gT, gN = frame_generators(w_next, variant)
    sg = 1.0 if sign == "+" else -1.0
    Ui = U.conj().T
    return Frame(
        T=sg * vector_from_su2(U @ gT @ Ui),
        N=sg * vector_from_su2(U @ gN @ Ui),
        B=vector_from_su2(U @ E3 @ Ui),
    )


def transfer_so3(curv: float, nu: float) -> np.ndarray:
    """SO(3) step of the frame recursion (T N B)_{m+1} = (T N B)_m L."""
    cK, sK = math.cos(curv), math.sin(curv)
    cn, sn = math.cos(nu), math.sin(nu)
    return np.array([
        [cK, -sK, 0.0],
        [cn * sK, cn * cK, sn],
        [-sn * sK, -sn * cK, cn],
    ])


@dataclass(frozen=True)
class Frame:
    """Orthonormal right-handed triple (T, N, B)."""

    T: np.ndarray
    N: np.ndarray
    B: np.ndarray

    def matrix(self) -> np.ndarray:
        """Columns (T N B)."""
        return np.column_stack([self.T, self.N, self.B])

    def validate(self, tol: float = 1e-10) -> None:
        M = self.matrix()
        g = M.T @ M
        if np.abs(g - np.eye(3)).max() > tol:
            raise DegenerateFrameError("frame not orthonormal")
        if abs(np.linalg.det(M) - 1.0) > tol:
            raise DegenerateFrameError("frame not right-handed")


@dataclass(frozen=True)
class FrameGeometry:
    """Inner-product sequences of a frame chain; entry j couples frames j and j+1.

    curvature_cos[j] = <T_{j+1}, T_j>, curvature_sin[j] = -<N_{j+1}, T_j>,
    torsion_cos[j] = <B_{j+1}, B_j>, torsion_sin[j] = <B_{j+1}, N_j>.
    """

    curvature_cos: np.ndarray
    curvature_sin: np.ndarray
    torsion_cos: np.ndarray
    torsion_sin: np.ndarray


def extract_geometry(frames: Sequence[Frame]) -> FrameGeometry:
    """Curvature/torsion cosine-sine sequences of consecutive frames."""
    cc, cs, tc, ts = [], [], [], []
    for f0, f1 in zip(frames[:-1], frames[1:]):
        c = float(np.dot(f1.T, f0.T))
        if c < -1.0 + 1e-12:
            raise DegenerateFrameError("consecutive tangents antiparallel")
        cc.append(c)
        cs.append(-float(np.dot(f1.N, f0.T)))
        tc.append(float(np.dot(f1.B, f0.B)))
        ts.append(float(np.dot(f1.B, f0.N)))
    return FrameGeometry(np.array(cc), np.array(cs), np.array(tc), np.array(ts))

"""Discrete Frenet frames as row arrays: curvature and torsion of a chain.

A chain is three arrays T, N, B of shape (..., M, 3) holding one orthonormal
right-handed frame per row: the ``tangents``, ``normals`` and ``binormals``
of a curve window (one chain per time), or the rows of a mesh.  Consecutive
frames j and j + 1 give the cosine and sine of the discrete curvature and
torsion angles, formed for the whole chain at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrameError


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


def extract_geometry(T, N, B) -> FrameGeometry:
    """Curvature/torsion cosine-sine sequences of consecutive frames.

    T, N and B are row arrays of shape (..., M, 3); every sequence has shape
    (..., M-1).  Raises DegenerateFrameError if any two consecutive tangents
    are antiparallel; a NaN row gives NaN entries instead.
    """
    T, N, B = (np.asarray(a, dtype=float) for a in (T, N, B))

    def couple(later, earlier):   # <later_{j+1}, earlier_j> over the trailing axis
        return (later[..., 1:, :] * earlier[..., :-1, :]).sum(axis=-1)

    curvature_cos = couple(T, T)
    if (curvature_cos < -1.0 + 1e-12).any():
        raise DegenerateFrameError("consecutive tangents antiparallel")
    return FrameGeometry(curvature_cos, -couple(N, T), couple(B, B), couple(B, N))

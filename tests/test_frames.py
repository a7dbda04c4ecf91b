"""extract_geometry on row arrays: a batch of chains equals one call per chain
bit for bit and a per-pair reference within rounding, a degenerate pair
raises wherever it sits, and a NaN propagates."""

import numpy as np
import pytest

from sgsurf import elliptic, frames, ksurf, surfaces
from sgsurf.errors import DegenerateFrameError

FIELDS = ("curvature_cos", "curvature_sin", "torsion_cos", "torsion_sin")


def _ref_geometry(T, N, B):
    """The four sequences of one chain, one float(np.dot) per frame pair."""
    pairs = range(len(T) - 1)
    return [[float(np.dot(T[j + 1], T[j])) for j in pairs],
            [-float(np.dot(N[j + 1], T[j])) for j in pairs],
            [float(np.dot(B[j + 1], B[j])) for j in pairs],
            [float(np.dot(B[j + 1], N[j])) for j in pairs]]


def _constant_chains(shape):
    """(T, N, B) = (e1, e2, e3) at every site of a chain block of the given shape."""
    return [np.broadcast_to(e, shape + (3,)).copy() for e in np.eye(3)]


def _snapshot_rows():
    """A (2, 17, 3) window: two times of one twisted cn curve."""
    p = surfaces.SurfaceParams(mod=elliptic.make_modulus(0.6), family="cn", gamma_step=0.8,
                               beta_rate=1.0, twisted=True)
    w = surfaces.snapshots(p, range(-8, 9), (0.0, 0.45))
    return [w.tangents, w.normals, w.binormals]


def _mesh_rows():
    """A (64, 65, 3) block: along each K-surface row, T is the unit edge to the
    next vertex, B the surface normal and N = B x T."""
    p = ksurf.KParams(mod=elliptic.make_modulus(0.8), family="dn", gamma_step=0.1247,
                      delta_step=0.1247)
    grid = ksurf.k_grid(p, range(66), range(64))
    pts, nrm = grid.points.transpose(1, 0, 2), grid.normals.transpose(1, 0, 2)
    edge = pts[:, 1:] - pts[:, :-1]
    T = edge / np.linalg.norm(edge, axis=-1, keepdims=True)
    B = nrm[:, :-1]
    return [T, np.cross(B, T), B]


@pytest.mark.parametrize("chains, expect", [
    (_snapshot_rows, None),
    (_mesh_rows, None),
    # one frame repeated: no curvature and no torsion
    (lambda: _constant_chains((3,)), (1.0, 0.0, 1.0, 0.0)),
], ids=["snapshot_stack", "mesh_rows", "constant_chain"])
def test_extract_geometry_batch_equals_row_by_row(chains, expect):
    T, N, B = chains()
    geo = frames.extract_geometry(T, N, B)
    for name in FIELDS:
        assert getattr(geo, name).shape == T.shape[:-2] + (T.shape[-2] - 1,)
    for idx in np.ndindex(T.shape[:-2]):
        one = frames.extract_geometry(T[idx], N[idx], B[idx])
        for name, ref in zip(FIELDS, _ref_geometry(T[idx], N[idx], B[idx])):
            assert getattr(geo, name)[idx].tobytes() == getattr(one, name).tobytes()
            # the sum of three products may round in another order than np.dot
            assert np.abs(getattr(one, name) - ref).max() <= 4 * np.finfo(float).eps
    if expect is not None:
        for name, value in zip(FIELDS, expect):
            assert np.all(getattr(geo, name) == value)


def test_extract_geometry_antiparallel_raises():
    # reversing T and B at one site makes that tangent antiparallel to the previous one
    for idx in np.ndindex(3, 5):
        if idx[1] == 0:
            continue
        T, N, B = _constant_chains((3, 5))
        T[idx], B[idx] = -T[idx], -B[idx]
        with pytest.raises(DegenerateFrameError):
            frames.extract_geometry(T, N, B)


def test_a_nan_row_gives_nan_sequences():
    T, N, B = _constant_chains((2, 5))
    for rows in (T, N, B):
        rows[1, 2] = np.nan
    geo = frames.extract_geometry(T, N, B)
    for name in FIELDS:
        values = getattr(geo, name)
        # the pairs (1, 2) and (2, 3) of the second chain hold site 2
        assert np.isnan(values[1, 1:3]).all()
        assert np.isfinite(np.delete(values.ravel(), [5, 6])).all()

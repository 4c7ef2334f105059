"""Point-cloud fidelity: the symmetric point-to-point chamfer distance.

The metric sums, over both clouds, the SQUARED euclidean distance from each
point to its nearest neighbor in the other cloud:

    CD(D, E) = sum_{d in D} min_{e in E} ||d - e||^2
             + sum_{e in E} min_{d in D} ||d - e||^2

Note the squared distances are NOT square-rooted and the two directional
terms are sums, not means. Implementations in the wild differ on both
points; everything downstream (mode presets, reward bounds) assumes this
exact form.

Two interchangeable implementations are provided: `chamfer_sym` does the
dense pairwise computation and is the reference; `chamfer_sym_accelerated`
uses a k-d tree and handles 120k-point clouds in seconds.
"""

from __future__ import annotations

import numpy as np

from .errors import read_utf8

# Element budget per temporary difference block in the dense path; chunking
# the source rows bounds memory without changing any result.
_BLOCK_ELEMENTS = 4_000_000


def as_point_cloud(points) -> np.ndarray:
    """Validate and convert input to an (N, 3) float64 array.

    Raises ValueError for empty input, wrong shape, or non-finite values.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"point cloud must have shape (N, 3), got {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("point cloud is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point cloud contains non-finite coordinates")
    return np.ascontiguousarray(arr)


def _directed_sq_sum(src: np.ndarray, dst: np.ndarray) -> float:
    """Sum over src of the squared distance to the nearest point of dst.

    Differences are formed explicitly (not via the norm expansion) so that
    coincident points yield an exact 0 and the identity property holds to
    the last bit.
    """
    total = 0.0
    chunk = max(1, _BLOCK_ELEMENTS // max(dst.shape[0], 1))
    for start in range(0, src.shape[0], chunk):
        block = src[start : start + chunk]
        diff = block[:, None, :] - dst[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        total += float(d2.min(axis=1).sum())
    return total


def chamfer_sym(reference, candidate) -> float:
    """Symmetric chamfer distance via dense pairwise distances.

    Exact for any cloud sizes but O(|D|*|E|) time; intended for clouds up
    to a few thousand points and as the oracle for the accelerated path.
    """
    ref = as_point_cloud(reference)
    cand = as_point_cloud(candidate)
    return _directed_sq_sum(ref, cand) + _directed_sq_sum(cand, ref)


def chamfer_sym_accelerated(reference, candidate) -> float:
    """Symmetric chamfer distance via k-d tree nearest-neighbor queries.

    Matches `chamfer_sym` to within 1e-9 relative; use this for large
    clouds (a 120k-point frame completes in seconds). scipy is imported
    here, not at module level, so `import pqossim` does not pay for it.
    """
    from scipy.spatial import cKDTree

    ref = as_point_cloud(reference)
    cand = as_point_cloud(candidate)
    d_ref, _ = cKDTree(cand).query(ref, k=1)
    d_cand, _ = cKDTree(ref).query(cand, k=1)
    return float(np.sum(d_ref * d_ref) + np.sum(d_cand * d_cand))


def load_point_cloud(path) -> np.ndarray:
    """Read a plain-text cloud: one point per line, three numbers each."""
    text = read_utf8(path)
    if not text.strip():
        raise ValueError(f"{path}: point-cloud file is empty")
    try:
        arr = np.loadtxt(text.splitlines(), dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed point-cloud file: {exc}") from exc
    if arr.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns per line, got {arr.shape[1]}")
    return as_point_cloud(arr)

"""k-nearest-neighbor search and bipartite connectivity between clouds and grids.

Every search returns, per query, the k targets ordered by the pair (squared
distance, target index), with squared distances from one vectorized
expression.  Small target sets are scanned exhaustively: every distance is
computed, ``np.argpartition`` selects k per row, and the rows where more than
k targets lie at or below the k-th distance are answered by the fully sorting
oracle ``knn_brute``.  Larger sets ask ``scipy.spatial.cKDTree`` for a few
more than k candidates, re-rank them exactly by (squared distance, index), and
rescan exhaustively every row where a target outside the candidates could tie
or beat the k-th.  Both searches therefore match the oracle index-for-index,
including on inputs with duplicated coordinates or clouds that sit on the
lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError, InvariantError

# below this many targets an exhaustive scan with partial selection answers,
# so a process that only searches small sets never imports scipy.spatial
EXHAUSTIVE_CUTOFF = 512

# candidates the tree returns beyond k, so that a tie at the k-th distance
# is usually settled without the exhaustive fallback
_TIE_SLACK = 4


class Direction(Enum):
    CLOUD_TO_GRID = "cloud_to_grid"
    GRID_TO_CLOUD = "grid_to_cloud"
    CLOUD_TO_CLOUD = "cloud_to_cloud"


_INVERTED = {
    Direction.CLOUD_TO_GRID: Direction.GRID_TO_CLOUD,
    Direction.GRID_TO_CLOUD: Direction.CLOUD_TO_GRID,
    Direction.CLOUD_TO_CLOUD: Direction.CLOUD_TO_CLOUD,
}


@dataclass(frozen=True)
class EdgeSet:
    """Directed edges src -> dst between two indexed point sets.

    Edges are stored deduplicated and sorted by (dst, src), which fixes the
    iteration order for deterministic aggregation downstream.
    """

    src: np.ndarray
    dst: np.ndarray
    direction: Direction
    n_src: int
    n_dst: int

    def __post_init__(self):
        src = np.ascontiguousarray(self.src, dtype=np.int64)
        dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise DataError(f"src/dst must be 1-d and equal length, got {src.shape} vs {dst.shape}")
        if src.size:
            if src.min() < 0 or src.max() >= self.n_src:
                raise DataError(f"src index out of bounds [0, {self.n_src})")
            if dst.min() < 0 or dst.max() >= self.n_dst:
                raise DataError(f"dst index out of bounds [0, {self.n_dst})")
            key = dst * self.n_src + src
            if not np.all(np.diff(key) > 0):
                raise InvariantError("edges must be unique and sorted by (dst, src)")
        src.setflags(write=False)
        dst.setflags(write=False)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)

    @property
    def n_edges(self) -> int:
        return self.src.size

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.n_src)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.n_dst)

    def pairs(self) -> np.ndarray:
        """Edges as an (E, 2) array of (src, dst) rows."""
        return np.stack([self.src, self.dst], axis=1)


def _dedup_sorted(src, dst, direction, n_src, n_dst) -> EdgeSet:
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    key = np.unique(dst * n_src + src)
    return EdgeSet(key % n_src, key // n_src, direction, n_src, n_dst)


def invert_edges(edges: EdgeSet) -> EdgeSet:
    """Swap edge endpoints and flip the direction tag; cardinality preserved."""
    return _dedup_sorted(
        edges.dst, edges.src, _INVERTED[edges.direction], edges.n_dst, edges.n_src
    )


# ---------------------------------------------------------------------------
# nearest-neighbor search
# ---------------------------------------------------------------------------


def _check_knn_args(queries, targets, k):
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    if queries.ndim != 2 or targets.ndim != 2 or queries.shape[1] != targets.shape[1]:
        raise DataError(
            f"queries {queries.shape} and targets {targets.shape} must be 2-d with equal width"
        )
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > targets.shape[0]:
        raise ConfigError(f"k={k} exceeds number of targets {targets.shape[0]}")
    if not (np.all(np.isfinite(queries)) and np.all(np.isfinite(targets))):
        raise DataError("non-finite coordinates in knn input")
    return queries, targets


def knn_brute(queries: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
    """Exhaustive k-NN: row m holds the k targets nearest query m.

    Ties in distance break toward the smaller target index; each row is sorted
    by (distance, index).  This is the reference ``knn_tree`` must match exactly.
    """
    queries, targets = _check_knn_args(queries, targets, k)
    m, t = queries.shape[0], targets.shape[0]
    out = np.empty((m, k), dtype=np.int64)
    chunk = max(1, (1 << 22) // max(t, 1))
    for lo in range(0, m, chunk):
        q = queries[lo : lo + chunk]
        d2 = ((targets[None, :, :] - q[:, None, :]) ** 2).sum(axis=2)
        out[lo : lo + chunk] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out


def knn_tree(queries: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
    """k-NN through ``scipy.spatial.cKDTree``, equal to ``knn_brute`` index-for-index.

    The tree proposes a few more than k candidates per query.  Their squared
    distances are recomputed with the ``knn_brute`` expression and each row is
    ordered by (squared distance, index).  A row whose last tree candidate is
    not strictly farther than its k-th exact distance may have an equally near
    target outside the candidates (duplicated points, clouds on the lattice),
    so it is recomputed exhaustively.
    """
    from scipy.spatial import cKDTree  # imported on first use, see EXHAUSTIVE_CUTOFF

    queries, targets = _check_knn_args(queries, targets, k)
    m, t = queries.shape[0], targets.shape[0]
    n_cand = min(k + _TIE_SLACK, t)
    tree_dist, idx = cKDTree(targets).query(queries, k=n_cand)
    # cKDTree drops the candidate axis when n_cand == 1
    tree_dist = tree_dist.reshape(m, n_cand)
    idx = idx.reshape(m, n_cand)

    d2 = ((targets[idx] - queries[:, None, :]) ** 2).sum(axis=2)
    by_index = np.argsort(idx, axis=1, kind="stable")
    idx = np.take_along_axis(idx, by_index, axis=1)
    d2 = np.take_along_axis(d2, by_index, axis=1)
    by_dist = np.argsort(d2, axis=1, kind="stable")[:, :k]
    out = np.take_along_axis(idx, by_dist, axis=1)

    if n_cand < t:
        kth_d2 = np.take_along_axis(d2, by_dist[:, -1:], axis=1)[:, 0]
        unsure = np.flatnonzero(tree_dist[:, -1] ** 2 <= kth_d2 * (1.0 + 1e-9))
        if unsure.size:
            out[unsure] = knn_brute(queries[unsure], targets, k)
    return out


def _knn_partition(queries: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
    """Exhaustive k-NN through partial selection, equal to ``knn_brute`` index-for-index.

    Squared distances come from the ``knn_brute`` expression in the same
    chunks.  ``np.argpartition`` selects k nearest targets per row, which are
    then ordered by (squared distance, index).  The selection is exact unless
    more than k targets lie at or below the k-th squared distance, where it
    may have kept a larger index of a tie; those rows go to ``knn_brute``.
    """
    m, t = queries.shape[0], targets.shape[0]
    out = np.empty((m, k), dtype=np.int64)
    chunk = max(1, (1 << 22) // max(t, 1))
    for lo in range(0, m, chunk):
        q = queries[lo : lo + chunk]
        d2 = ((targets[None, :, :] - q[:, None, :]) ** 2).sum(axis=2)
        idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
        near = np.take_along_axis(d2, idx, axis=1)
        order = np.lexsort((idx, near), axis=1)
        out[lo : lo + chunk] = np.take_along_axis(idx, order, axis=1)
        kth = near.max(axis=1, keepdims=True)
        tied = np.flatnonzero(np.count_nonzero(d2 <= kth, axis=1) > k)
        if tied.size:
            out[lo + tied] = knn_brute(q[tied], targets, k)
    return out


def knn(queries: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
    """k nearest targets per query, rows ordered by (squared distance, index).

    Below ``EXHAUSTIVE_CUTOFF`` targets every distance is computed and the k
    nearest are found by partial selection, with ``knn_brute`` answering rows
    that tie at the k-th distance; at or above it, ``knn_tree``: cKDTree
    candidates, an exact re-rank, and an exhaustive fallback for rows with a
    tie at the candidate boundary.  Both return the indices ``knn_brute`` does.
    """
    queries, targets = _check_knn_args(queries, targets, k)
    if targets.shape[0] < EXHAUSTIVE_CUTOFF:
        return _knn_partition(queries, targets, k)
    return knn_tree(queries, targets, k)


# ---------------------------------------------------------------------------
# connectivity construction
# ---------------------------------------------------------------------------


def bilateral_knn(cloud_coords: np.ndarray, grid_coords: np.ndarray, k: int) -> EdgeSet:
    """Two-pass cloud->grid connectivity: the deduplicated union of

    (a) for each grid point, edges from its k nearest cloud points, and
    (b) for each cloud point, edges to its k nearest grid points.

    Every cloud point then has out-degree >= k, every grid point in-degree
    >= k, and no node on either side is left disconnected; the union holds at
    most k*(n_cloud + n_grid) edges.  There is no per-node upper bound: a
    point may be selected by arbitrarily many counterparts (e.g. an isolated
    cloud point near an otherwise empty grid region), so individual degrees
    can exceed 2k.
    """
    cloud_coords = np.ascontiguousarray(cloud_coords, dtype=np.float64)
    grid_coords = np.ascontiguousarray(grid_coords, dtype=np.float64)
    n_p, n_g = cloud_coords.shape[0], grid_coords.shape[0]
    if k > min(n_p, n_g):
        raise ConfigError(f"k={k} exceeds min(cloud={n_p}, grid={n_g})")

    near_cloud = knn(grid_coords, cloud_coords, k)  # (N_G, k) cloud indices
    near_grid = knn(cloud_coords, grid_coords, k)  # (N_P, k) grid indices

    src = np.concatenate([near_cloud.ravel(), np.repeat(np.arange(n_p), k)])
    dst = np.concatenate([np.repeat(np.arange(n_g), k), near_grid.ravel()])
    return _dedup_sorted(src, dst, Direction.CLOUD_TO_GRID, n_p, n_g)


def self_knn(coords: np.ndarray, k: int) -> EdgeSet:
    """k-NN edges of a cloud onto itself (each point is its own 0-distance
    neighbor, so neighborhoods include a self-loop for k >= 1)."""
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    n = coords.shape[0]
    idx = knn(coords, coords, k)
    src = idx.ravel()
    dst = np.repeat(np.arange(n), k)
    return _dedup_sorted(src, dst, Direction.CLOUD_TO_CLOUD, n, n)

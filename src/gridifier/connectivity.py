"""k-nearest-neighbor search and bipartite connectivity between clouds and grids.

Every search returns, per query, the k targets ordered by the pair (squared
distance, target index), with squared distances equal bit for bit to the
``knn_brute`` expression.  ``knn`` picks one of three strategies:

- Targets that form a lattice in ``make_grid_coords`` order are searched in
  a window of nodes around each query's cell.  A row is kept when its k-th
  distance is provably below every node outside the window; the other rows
  (points far outside the lattice, mostly) go to one of the two scans below.
- Small target sets are scanned exhaustively: every distance is computed,
  ``np.argpartition`` selects k per row, and the rows where more than k
  targets lie at or below the k-th distance take a stable sort of the row.
- Larger sets ask ``scipy.spatial.cKDTree`` for a few more than k
  candidates, re-rank the rows the tree did not already return in exact
  (squared distance, index) order, and rescan exhaustively every row where a
  target outside the candidates could tie or beat the k-th.

All three match the oracle index-for-index, including on inputs with
duplicated coordinates or clouds that sit on the lattice.  Edge sets are then
deduplicated and ordered with one sort of their (dst, src) keys.
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

# nodes per axis in the first window of the lattice search
_WINDOW = 4


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
    key = np.sort(np.asarray(dst, dtype=np.int64) * n_src + np.asarray(src, dtype=np.int64))
    if key.size:
        first = np.empty(key.size, dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        key = key[first]
    dst, src = np.divmod(key, n_src)
    return EdgeSet(src, dst, direction, n_src, n_dst)


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


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between broadcast rows of ``a`` and ``b``, one axis at a time.

    ``(d0 + d1) + d2`` is numpy's order for a sum over an axis of D < 8, so the
    bits equal ``knn_brute``'s expression without its (..., D) temporary.
    """
    d2 = np.square(a[..., 0] - b[..., 0])
    for c in range(1, a.shape[-1]):
        d2 += np.square(a[..., c] - b[..., c])
    return d2


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
    distances are recomputed exactly (``_squared_distances``) and each row is
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

    d2 = _squared_distances(targets[idx], queries[:, None, :])
    # the tree's float order agrees with (exact d², index) on almost every
    # row; the two stable sorts run only on the rows where it does not
    d_prev, d_next = d2[:, :-1], d2[:, 1:]
    in_order = (d_prev < d_next) | ((d_prev == d_next) & (idx[:, :-1] < idx[:, 1:]))
    unordered = np.flatnonzero(~in_order.all(axis=1))
    if unordered.size:
        rows_idx, rows_d2 = idx[unordered], d2[unordered]
        by_index = np.argsort(rows_idx, axis=1, kind="stable")
        rows_idx = np.take_along_axis(rows_idx, by_index, axis=1)
        rows_d2 = np.take_along_axis(rows_d2, by_index, axis=1)
        by_dist = np.argsort(rows_d2, axis=1, kind="stable")
        idx[unordered] = np.take_along_axis(rows_idx, by_dist, axis=1)
        d2[unordered] = np.take_along_axis(rows_d2, by_dist, axis=1)
    out = np.ascontiguousarray(idx[:, :k], dtype=np.int64)

    if n_cand < t:
        unsure = np.flatnonzero(tree_dist[:, -1] ** 2 <= d2[:, k - 1] * (1.0 + 1e-9))
        if unsure.size:
            out[unsure] = knn_brute(queries[unsure], targets, k)
    return out


def _select_k(d2: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the k smallest entries of each row of ``d2``, ordered by
    (value, column), and each row's k-th value.

    ``np.argpartition`` selects k columns per row.  It may keep a larger
    column of a tie at the k-th value, so rows where more than k entries lie
    at or below it take the first k of a stable sort of the whole row.
    """
    pos = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
    near = np.take_along_axis(d2, pos, axis=1)
    order = np.argsort(near, axis=1, kind="stable")
    pos = np.take_along_axis(pos, order, axis=1)
    kth = np.take_along_axis(near, order[:, -1:], axis=1)
    tied = np.flatnonzero(np.count_nonzero(d2 <= kth, axis=1) > k)
    if tied.size:
        pos[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    return pos, kth[:, 0]


def _knn_partition(queries: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
    """Exhaustive k-NN through partial selection, equal to ``knn_brute`` index-for-index.

    Squared distances come from ``_squared_distances`` in ``knn_brute``'s
    chunks, and ``_select_k`` picks and orders k targets per row.
    """
    m, t = queries.shape[0], targets.shape[0]
    out = np.empty((m, k), dtype=np.int64)
    chunk = max(1, (1 << 22) // max(t, 1))
    for lo in range(0, m, chunk):
        q = queries[lo : lo + chunk]
        out[lo : lo + chunk] = _select_k(_squared_distances(targets[None, :, :], q[:, None, :]), k)[0]
    return out


def _lattice_axes(targets: np.ndarray) -> list[np.ndarray] | None:
    """Per-axis coordinates of ``targets`` if they form a rectilinear lattice
    in ``make_grid_coords`` order (row-major, last axis fastest), else None.

    Each axis holds the sorted distinct values of its column, and the targets
    must equal the meshgrid of those axes exactly, row for row.
    """
    t, d = targets.shape
    axes, size = [], 1
    for c in range(d):
        axes.append(np.unique(targets[:, c]))
        size *= axes[-1].size
        if size > t:
            return None
    if size != t:
        return None
    mesh = np.meshgrid(*axes, indexing="ij")
    if all(np.array_equal(m.ravel(), targets[:, c]) for c, m in enumerate(mesh)):
        return axes
    return None


def _knn_lattice(queries: np.ndarray, targets: np.ndarray, axes, k: int) -> np.ndarray:
    """k-NN against a lattice through a window of nodes around each query's cell.

    Per axis, the window holds ``width`` nodes starting ``width // 2 - 1``
    below the query's cell, clamped into the lattice; ``width`` starts at
    ``_WINDOW`` (cell - 1 to cell + 2) and widens by two until the window
    holds more than k nodes or the whole lattice.  Per-axis squared offsets
    over the window are summed as ``(d0 + d1) + d2``, the bits of
    ``knn_brute``.  Window positions run in ascending lattice index, so
    ``_select_k`` orders each row by (squared distance, index).  A row is exact
    when its k-th squared distance lies strictly below the squared offset to
    the nearest lattice coordinate outside the window on any axis: a sum of
    non-negative floats is at least each of its terms, so every node outside
    the window is farther.  Other rows go to ``_knn_scan``.
    """
    counts = np.array([a.size for a in axes])
    strides = np.append(np.cumprod(counts[:0:-1])[::-1], 1)
    width = _WINDOW
    while np.prod(np.minimum(width, counts)) <= k and width < counts.max():
        width += 2
    win = np.minimum(width, counts)
    rel = np.indices(win).reshape(len(axes), -1).T @ strides  # ascending
    padded = [np.concatenate(([-np.inf], a, [np.inf])) for a in axes]
    m = queries.shape[0]
    out = np.empty((m, k), dtype=np.int64)
    chunk = max(1, (1 << 22) // rel.size)
    for lo_row in range(0, m, chunk):
        q = queries[lo_row : lo_row + chunk]
        n = q.shape[0]
        base = np.zeros(n, dtype=np.int64)
        bound = np.full(n, np.inf)
        d2 = None
        for c, (a, a_pad) in enumerate(zip(axes, padded)):
            qc = q[:, c]
            cell = np.searchsorted(a, qc, side="right") - 1
            lo = np.clip(cell - (width // 2 - 1), 0, a.size - win[c])
            # the window plus the nearest coordinate on each side of it,
            # infinitely far where the window reaches the lattice edge
            sq = np.square(a_pad[lo[:, None] + np.arange(win[c] + 2)] - qc[:, None])
            bound = np.minimum(bound, np.minimum(sq[:, 0], sq[:, -1]))
            sq = sq[:, 1:-1]
            base += lo * strides[c]
            d2 = sq if d2 is None else d2[..., None] + sq.reshape((n,) + (1,) * c + (win[c],))
        pos, kth = _select_k(d2.reshape(n, rel.size), k)
        exact = kth < bound
        rows = out[lo_row : lo_row + n]
        rows[exact] = base[exact, None] + rel[pos[exact]]
        if not exact.all():
            rows[~exact] = _knn_scan(q[~exact], targets, k)
    return out


def _knn_scan(queries: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
    if targets.shape[0] < EXHAUSTIVE_CUTOFF:
        return _knn_partition(queries, targets, k)
    return knn_tree(queries, targets, k)


def knn(queries: np.ndarray, targets: np.ndarray, k: int) -> np.ndarray:
    """k nearest targets per query, rows ordered by (squared distance, index).

    Three strategies, each returning the indices ``knn_brute`` does:

    - targets that form a lattice in ``make_grid_coords`` order: a window of
      nodes around each query's cell (``_knn_lattice``), with the rows the
      window cannot prove exact answered by one of the two scans below;
    - fewer than ``EXHAUSTIVE_CUTOFF`` targets: every distance, partial
      selection, and a stable sort of the rows that tie at the k-th distance;
    - otherwise ``knn_tree``: cKDTree candidates, an exact re-rank, and an
      exhaustive fallback for rows with a tie at the candidate boundary.
    """
    queries, targets = _check_knn_args(queries, targets, k)
    axes = _lattice_axes(targets)
    if axes is not None:
        return _knn_lattice(queries, targets, axes, k)
    return _knn_scan(queries, targets, k)


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
    # a row's k targets are distinct, so sorting each row gives (dst, src) order
    src = np.sort(knn(coords, coords, k), axis=1)
    return EdgeSet(src.ravel(), np.repeat(np.arange(n), k), Direction.CLOUD_TO_CLOUD, n, n)

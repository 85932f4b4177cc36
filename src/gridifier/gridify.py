"""Learned mapping between point clouds and grids via bipartite message passing.

Each destination node i aggregates messages from its edge neighborhood:

    out_i = phi_upd( agg_{j -> i} phi_msg( [phi_node(x_j) ; phi_pos(c_i - c_j)] ) )

phi_node, phi_msg and phi_upd are MLPs; phi_pos is a ``nn.PositionalNet``, a
sinusoid of learnable frequencies followed by an MLP, so every message can
carry high-frequency functions of the offset.

Gridification runs this cloud->grid; de-gridification runs the mirror image
grid->cloud over the inverted edge set.  phi_node and phi_upd run once per
point; everything per edge (the offsets, phi_pos, phi_msg and the
aggregation) is one ``autodiff.message_aggregate`` node.  It splits phi_msg's
first layer by linearity, [n ; p] @ W0 = n @ W0[:H] + p @ W0[H:], so the node
half runs once per source point and is gathered per edge, and it runs the
edges in blocks cut between destinations, recomputing them in the backward:
no (E, H) array outlives its block, and the bits equal the unblocked chain's.
Message aggregation follows a canonical order keyed on source coordinates and
features (not indices): one lexsort ranks the source points, and edges sort on
(dst, rank), so re-ordering the input points reproduces the output bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .connectivity import Direction, EdgeSet
from .errors import ConfigError, ShapeError
from .nn import MlpParams, PositionalNet, init_mlp, init_positional_net, mlp_forward
from .pccore import Grid, GridSpec, PointCloud, make_grid_coords

AGGREGATIONS = ("mean", "max")


@dataclass
class GridifierParams:
    """The four learnable networks plus the aggregation mode and hidden width.

    phi_node embeds source features (F_in -> H), phi_pos embeds relative
    positions (D -> H), phi_msg mixes their concatenation (2H -> H), and
    phi_upd produces destination features (H -> F_out).
    """

    phi_node: MlpParams
    phi_pos: PositionalNet
    phi_msg: MlpParams
    phi_upd: MlpParams
    aggregation: str
    hidden: int

    def __post_init__(self):
        h = self.hidden
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"aggregation must be one of {AGGREGATIONS}, got {self.aggregation!r}")
        if self.phi_node.out_width != h:
            raise ConfigError(f"phi_node must output width {h}, got {self.phi_node.out_width}")
        if self.phi_pos.out_width != h:
            raise ConfigError(f"phi_pos must output width {h}, got {self.phi_pos.out_width}")
        if self.phi_msg.in_width != 2 * h:
            raise ConfigError(
                f"phi_msg consumes [node ; positional] so its input width must be "
                f"{2 * h}, got {self.phi_msg.in_width}"
            )
        if self.phi_msg.out_width != h:
            raise ConfigError(f"phi_msg must output width {h}, got {self.phi_msg.out_width}")
        if self.phi_upd.in_width != h:
            raise ConfigError(f"phi_upd must take width {h}, got {self.phi_upd.in_width}")

    @property
    def f_in(self) -> int:
        return self.phi_node.in_width

    @property
    def f_out(self) -> int:
        return self.phi_upd.out_width

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = self.phi_node.named_parameters(f"{prefix}phi_node.")
        out.update(self.phi_pos.named_parameters(f"{prefix}phi_pos."))
        out.update(self.phi_msg.named_parameters(f"{prefix}phi_msg."))
        out.update(self.phi_upd.named_parameters(f"{prefix}phi_upd."))
        return out


def init_gridifier(
    f_in: int,
    f_out: int,
    hidden: int,
    dim: int,
    rng: np.random.Generator,
    omega: float = 0.1,
    n_frequencies: int | None = None,
    aggregation: str = "mean",
) -> GridifierParams:
    """Default architecture: every phi is a two-layer MLP with hidden width H."""
    if n_frequencies is None:
        n_frequencies = max(4, hidden // 2)
    return GridifierParams(
        phi_node=init_mlp([f_in, hidden, hidden], rng),
        phi_pos=init_positional_net(omega, n_frequencies, dim, [hidden], hidden, rng),
        phi_msg=init_mlp([2 * hidden, hidden, hidden], rng),
        phi_upd=init_mlp([hidden, hidden, f_out], rng),
        aggregation=aggregation,
        hidden=hidden,
    )


def _canonical_edge_order(
    src_idx: np.ndarray, dst_idx: np.ndarray, src_coords: np.ndarray, src_feats: np.ndarray
) -> np.ndarray:
    """Aggregation order keyed on (dst, source coords, source features).

    Keying on source values instead of source indices makes the float
    accumulation sequence, and so the output bits, independent of how the input
    points are numbered.  One lexsort ranks the N source points (coords, then
    features; full ties by index, as the stored (dst, src) order would break
    them) and the edges sort on ``dst * N + rank[src]``.
    """
    n_src = src_coords.shape[0]
    by_value = np.lexsort((*src_feats.T[::-1], *src_coords.T[::-1]))
    rank = np.empty(n_src, dtype=np.int64)
    rank[by_value] = np.arange(n_src)
    return np.argsort(dst_idx * n_src + rank[src_idx])


def _message_passing(
    src_coords: np.ndarray,
    src_feats: Tensor,
    dst_coords: np.ndarray,
    edges: EdgeSet,
    params: GridifierParams,
) -> Tensor:
    """phi_upd of the aggregated messages, one row per destination.

    phi_node runs once per source point and phi_upd once per destination, as
    taped MLPs.  The per-edge chain between them (offsets, phi_pos, phi_msg
    and the aggregation) is the one ``autodiff.message_aggregate`` node,
    which runs it in edge blocks and recomputes them in the backward, so no
    (E, H) array outlives its block.  Edges reach it in canonical order.
    """
    if edges.direction is Direction.GRID_TO_CLOUD:
        # lattice sources have intrinsic indices (a fixed bijection with their
        # coordinates), so the stored (dst, src) order is already value-keyed
        src, dst = edges.src, edges.dst
    else:
        order = _canonical_edge_order(edges.src, edges.dst, src_coords, src_feats.data)
        src, dst = edges.src[order], edges.dst[order]

    node = mlp_forward(params.phi_node, src_feats)
    pos, msg = params.phi_pos, params.phi_msg
    agg = ad.message_aggregate(
        node, src_coords, dst_coords, src, dst, pos.freq,
        list(zip(pos.head.weights, pos.head.biases)), list(zip(msg.weights, msg.biases)),
        params.aggregation,
    )
    return mlp_forward(params.phi_upd, agg)


def _check_widths(edges: EdgeSet, expect_dir: Direction, n_src: int, n_dst: int, params, f_in: int):
    if edges.direction is not expect_dir:
        raise ConfigError(f"edge set direction {edges.direction} unusable here, need {expect_dir}")
    if (edges.n_src, edges.n_dst) != (n_src, n_dst):
        raise ShapeError(
            f"edge set bounds ({edges.n_src}, {edges.n_dst}) do not match "
            f"instance sizes ({n_src}, {n_dst})"
        )
    if params.f_in != f_in:
        raise ShapeError(f"phi_node expects width {params.f_in}, features have {f_in}")


def gridify_features(
    cloud_feats: Tensor,
    cloud_coords: np.ndarray,
    grid_coords: np.ndarray,
    edges: EdgeSet,
    params: GridifierParams,
) -> Tensor:
    """Differentiable cloud->grid pass; returns grid features (N_G, F_out)."""
    cloud_feats = ad.as_tensor(cloud_feats)
    _check_widths(
        edges, Direction.CLOUD_TO_GRID, cloud_coords.shape[0], grid_coords.shape[0],
        params, cloud_feats.shape[1],
    )
    return _message_passing(cloud_coords, cloud_feats, grid_coords, edges, params)


def degridify_features(
    grid_feats: Tensor,
    grid_coords: np.ndarray,
    cloud_coords: np.ndarray,
    edges: EdgeSet,
    params: GridifierParams,
) -> Tensor:
    """Differentiable grid->cloud pass; returns cloud features (N_P, F_out)."""
    grid_feats = ad.as_tensor(grid_feats)
    _check_widths(
        edges, Direction.GRID_TO_CLOUD, grid_coords.shape[0], cloud_coords.shape[0],
        params, grid_feats.shape[1],
    )
    return _message_passing(grid_coords, grid_feats, cloud_coords, edges, params)


def gridify(cloud: PointCloud, spec: GridSpec, edges: EdgeSet, params: GridifierParams) -> Grid:
    """Map a point cloud onto the regular lattice defined by ``spec``."""
    if spec.dim != cloud.dim:
        raise ShapeError(f"grid dim {spec.dim} != cloud dim {cloud.dim}")
    grid_coords = make_grid_coords(spec)
    feats = gridify_features(Tensor(cloud.feats), cloud.coords, grid_coords, edges, params)
    return Grid(spec, feats.data)


def degridify(
    grid: Grid, cloud_coords: np.ndarray, edges: EdgeSet, params: GridifierParams
) -> np.ndarray:
    """Map grid features back onto cloud coordinates; returns (N_P, F_out)."""
    out = degridify_features(Tensor(grid.feats), grid.coords, np.asarray(cloud_coords, float), edges, params)
    return out.data


# ---------------------------------------------------------------------------
# configuration requirement checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One unmet construction requirement, named for reporting/filtering."""

    requirement: str
    message: str

    def __str__(self):
        return f"{self.requirement}: {self.message}"


def _hidden_bottleneck(mlp: MlpParams) -> int | None:
    """Narrowest hidden layer, or None for a single affine layer (no bottleneck)."""
    hidden = mlp.widths[1:-1]
    return min(hidden) if hidden else None


def check_requirements(
    n_points: int,
    n_feats: int,
    spec: GridSpec,
    params: GridifierParams | None = None,
    k: int = 1,
    edges: EdgeSet | None = None,
) -> list[Violation]:
    """Report which information-preservation requirements a configuration violates.

    Checks, in order: the grid must hold at least as many points as the cloud;
    no phi network may bottleneck below its input information content
    (phi_node under F_P, phi_pos under D, phi_msg/phi_upd under F_P + D); and
    no point on either side may be disconnected (verified on ``edges`` when
    given).  Networks without hidden layers are not flagged for width.  The
    positional network's ability to express high-frequency functions of
    position needs no check here: ``PositionalNet`` refuses to exist without
    at least one sinusoid frequency.
    """
    out: list[Violation] = []
    n_grid = spec.n_points
    d = spec.dim
    if n_grid < n_points:
        out.append(
            Violation(
                "grid-capacity",
                f"grid holds {n_grid} points but the cloud has {n_points}; "
                f"a lossless map needs at least as many grid points",
            )
        )
    if params is not None:
        for tag, net, bound, what in (
            ("node-width", params.phi_node, n_feats, f"feature width {n_feats}"),
            ("positional-width", params.phi_pos.head, d, f"spatial dimension {d}"),
            ("message-width", params.phi_msg, n_feats + d, f"combined width {n_feats + d}"),
            ("update-width", params.phi_upd, n_feats + d, f"combined width {n_feats + d}"),
        ):
            narrow = _hidden_bottleneck(net)
            if narrow is not None and narrow < bound:
                out.append(
                    Violation(tag, f"hidden width {narrow} is below the {what} it must carry")
                )
    if k < 1:
        out.append(Violation("cloud-connected", f"k={k} leaves points unmatched; need k >= 1"))
    if edges is not None:
        if (edges.out_degrees() == 0).any():
            idx = int(np.argmin(edges.out_degrees() > 0))
            out.append(Violation("cloud-connected", f"cloud point {idx} has no edges"))
        if (edges.in_degrees() == 0).any():
            idx = int(np.argmin(edges.in_degrees() > 0))
            out.append(Violation("grid-connected", f"grid point {idx} has no edges"))
    return out

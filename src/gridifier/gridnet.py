"""Networks that operate on grid features.

The centerpiece is a dense D-dimensional cross-correlation whose kernel is a
*neural field*: a positional network evaluated on the K^D lattice of integer
offsets scaled to the grid spacing, as one ``autodiff.positional`` node.
Because the grid is regular, that evaluation happens once per forward pass and
the rendered kernel is reused at every cell: ``autodiff.grid_correlate``
applies it as shifted matmuls over one windowed copy of its input, with no
per-cell window matrix, and tapes only that input.  A byte budget picks the
window: up to ``autodiff._WINDOW_BYTES`` it covers the trailing D-1 axes and
the first axis is a loop over K shifted row blocks; past it a 3-d lattice
windows its last axis only and loops over the K^2 taps of the first two, each
one matmul over a stack of first-axis planes cropped on both leading axes.
``conv_point_native`` is the irregular counterpart — the same positional
network evaluated once per edge — kept as a baseline so the two cost profiles
can be compared directly.  It renders one kernel matrix per edge, in
``autodiff.edge_conv``'s blocks of edges that are applied and summed as they
are rendered, so no (|E|, c_in * c_out) array exists.  Both paths hand the
kernel net itself to ``autodiff``: ``positional(rel, net)`` on the lattice
offsets and ``edge_conv(coords, x, src, dst, net)`` on the edges, which an
``EdgeSet`` keeps sorted by destination.

Residual blocks and the classification head complete the grid network; the
head is a one-layer ``nn.MlpParams``, so every learned map here is a
``PositionalNet`` or an MLP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .connectivity import Direction, EdgeSet
from .errors import ConfigError, InvariantError, ShapeError
from .nn import MlpParams, PositionalNet, init_positional_net, mlp_forward, positional_forward
from .pccore import GridSpec

__all__ = [
    "ConvBlock",
    "ConvSpec",
    "KernelCache",
    "KernelEvalCounter",
    "block_forward",
    "classify_head",
    "conv_grid_features",
    "conv_point_native",
    "init_affine_head",
    "init_conv",
    "init_conv_block",
    "offset_lattice",
]


# --------------------------------------------------------------------------
# bookkeeping


@dataclass
class KernelEvalCounter:
    """Monotone cost counters for kernel work.

    pos_evals counts rows pushed through a positional network, materializations
    counts kernel tensors rendered from one, and applications counts
    convolutions applied.  Counts only increase; ``bump`` guards against
    accidental negative increments.
    """

    pos_evals: int = 0
    materializations: int = 0
    applications: int = 0

    def bump(self, pos_evals: int = 0, materializations: int = 0, applications: int = 0) -> None:
        if min(pos_evals, materializations, applications) < 0:
            raise InvariantError("kernel counters are monotone; negative increments are not allowed")
        self.pos_evals += pos_evals
        self.materializations += materializations
        self.applications += applications

    def snapshot(self) -> tuple[int, int, int]:
        return (self.pos_evals, self.materializations, self.applications)


class KernelCache(dict):
    """Kernels rendered during one forward pass, as (id(conv), spacing) ->
    (conv, kernel).

    Repeated applications of the same convolution at the same grid spacing
    reuse a single rendered tensor, so gradients from every application
    accumulate into one set of kernel-network parameters.  Each entry keeps
    its convolution, whose id no later object can then reuse.  Create a
    fresh cache per forward pass; a stale cache would reuse graph nodes
    across backward calls.
    """


# --------------------------------------------------------------------------
# offset lattice


@cache
def offset_lattice(kernel_size: int, dim: int) -> np.ndarray:
    """Integer offsets covering the kernel window, shape (K**dim, dim).

    Rows run in row-major order with the last axis fastest, from
    -(K-1)/2 to +(K-1)/2 along each axis; this ordering defines how flat
    kernel rows map onto spatial taps everywhere in this module.  Built once
    per (K, dim) and returned read-only.
    """
    half = (kernel_size - 1) // 2
    axes = [np.arange(-half, half + 1)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    offsets = np.stack(mesh, axis=-1).reshape(-1, dim).astype(np.int64)
    offsets.setflags(write=False)
    return offsets


# --------------------------------------------------------------------------
# convolution specs


@dataclass
class ConvSpec:
    """A resolution-preserving convolution: K odd per axis, zero padding (K-1)/2.

    The kernel comes from ``kernel_net``, a positional network with output
    width c_in * c_out that is rendered on the scaled offset lattice; the
    convolution is as many-dimensional as the offsets the kernel net takes.
    """

    kernel_size: int
    in_channels: int
    out_channels: int
    kernel_net: PositionalNet

    def __post_init__(self):
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel size must be odd and positive, got {self.kernel_size}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if min(self.in_channels, self.out_channels) < 1:
            raise ConfigError("channel counts must be >= 1")
        if self.kernel_net.out_width != self.in_channels * self.out_channels:
            raise ConfigError(
                f"kernel net emits {self.kernel_net.out_width} values per offset, "
                f"need c_in*c_out = {self.in_channels * self.out_channels}"
            )

    @property
    def dim(self) -> int:
        return self.kernel_net.dim

    @property
    def n_taps(self) -> int:
        return self.kernel_size**self.dim

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return self.kernel_net.named_parameters(f"{prefix}pos.")


def init_conv(
    kernel_size: int,
    dim: int,
    in_channels: int,
    out_channels: int,
    rng: np.random.Generator,
    omega: float = 1.0,
    n_frequencies: int = 8,
    hidden: list[int] | None = None,
) -> ConvSpec:
    """Neural-field convolution: kernel values come from a positional network."""
    hidden = [32] if hidden is None else hidden
    net = init_positional_net(omega, n_frequencies, dim, hidden, in_channels * out_channels, rng)
    return ConvSpec(kernel_size, in_channels, out_channels, kernel_net=net)


def _render_kernel(
    conv: ConvSpec,
    spacing: float,
    counter: KernelEvalCounter | None,
    cache: KernelCache | None,
) -> Tensor:
    """Kernel rows (taps, c_in * c_out) for one grid spacing, rendered at most once.

    Tap t is evaluated at the relative position of the target as seen from the
    source cell, c_target - c_source = -offset(t) * spacing, matching the
    convention used on irregular edges.  The offsets are constants, and the
    render is one ``autodiff.positional`` node, the same positional network
    ``edge_conv`` runs per edge, whose rows ``grid_correlate`` takes as they
    are.
    """
    key = (id(conv), float(spacing))
    owner, kernel = (None, None) if cache is None else cache.get(key, (None, None))
    if owner is conv:
        return kernel
    rel = -offset_lattice(conv.kernel_size, conv.dim).astype(np.float64) * spacing
    kernel = positional_forward(conv.kernel_net, rel)
    if counter is not None:
        counter.bump(pos_evals=conv.n_taps, materializations=1)
    if cache is not None:
        cache[key] = (conv, kernel)
    return kernel


def conv_grid_features(
    feats: Tensor,
    spec: GridSpec,
    conv: ConvSpec,
    counter: KernelEvalCounter | None = None,
    cache: KernelCache | None = None,
) -> Tensor:
    """Dense cross-correlation over grid features, (r**D, c_in) -> (r**D, c_out).

    The kernel is rendered once per call (or fetched from ``cache``) and
    applied at every cell by ``autodiff.grid_correlate``, zero padding
    (K-1)/2 per axis, so the positional network never sees per-cell queries.
    """
    feats = ad.as_tensor(feats)
    if spec.dim != conv.dim:
        raise ShapeError(f"grid is {spec.dim}-d but convolution is {conv.dim}-d")
    if feats.shape != (spec.n_points, conv.in_channels):
        raise ShapeError(
            f"conv expects features ({spec.n_points}, {conv.in_channels}), got {feats.shape}"
        )
    kernel = _render_kernel(conv, spec.spacing, counter, cache)
    out = ad.grid_correlate(feats, kernel, spec.resolution, spec.dim, conv.kernel_size)
    if counter is not None:
        counter.bump(applications=1)
    return out


def conv_point_native(
    coords: np.ndarray,
    feats: Tensor,
    edges: EdgeSet,
    kernel_net: PositionalNet,
    counter: KernelEvalCounter | None = None,
) -> Tensor:
    """Continuous convolution on an irregular point set, kernel re-rendered per edge.

    Each edge evaluates the positional network at c_dst - c_src, reshapes the
    resulting row into a (c_in, c_out) mixing matrix, applies it to the source
    features, and sums contributions per destination in edge order.  The whole
    chain is one ``autodiff.edge_conv`` node that runs in cache-sized blocks
    of edges, so no (|E|, c_in * c_out) array is formed.  Costs |E|
    positional evaluations per call — the quantity the grid path amortizes
    away.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if edges.direction is not Direction.CLOUD_TO_CLOUD:
        raise ConfigError(f"native convolution needs cloud self-edges, got {edges.direction.name}")
    n = coords.shape[0]
    if (edges.n_src, edges.n_dst) != (n, n):
        raise ShapeError(
            f"edges join {edges.n_src} sources to {edges.n_dst} destinations, "
            f"but the cloud has {n} points"
        )
    out = ad.edge_conv(coords, feats, edges.src, edges.dst, kernel_net)
    if counter is not None:
        counter.bump(pos_evals=edges.src.size, applications=1)
    return out


# --------------------------------------------------------------------------
# blocks and heads


@dataclass
class ConvBlock:
    """One residual unit: channel norm -> conv -> GELU -> dropout, plus the
    input.  The convolution keeps its channel count, so the sum is defined."""

    conv: ConvSpec
    gamma: Tensor
    beta: Tensor
    dropout: float = 0.0

    def __post_init__(self):
        c = self.conv.in_channels
        if self.conv.out_channels != c:
            raise ConfigError(
                f"a residual block's convolution must keep its channel count, "
                f"got {c} -> {self.conv.out_channels}"
            )
        if self.gamma.shape != (c,) or self.beta.shape != (c,):
            raise ShapeError(f"norm parameters must have shape ({c},)")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {self.dropout}")

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = {f"{prefix}gamma": self.gamma, f"{prefix}beta": self.beta}
        out.update(self.conv.named_parameters(f"{prefix}conv."))
        return out


def init_conv_block(
    channels: int,
    kernel_size: int,
    dim: int,
    rng: np.random.Generator,
    dropout: float = 0.0,
) -> ConvBlock:
    """A block around ``init_conv``'s channels -> channels convolution (omega
    1, a kernel net of 4 frequencies under one hidden layer of 16), with the
    norm at unit scale and zero shift."""
    conv = init_conv(kernel_size, dim, channels, channels, rng, n_frequencies=4, hidden=[16])
    return ConvBlock(conv, Tensor(np.ones(channels)), Tensor(np.zeros(channels)), dropout)


def block_forward(
    feats: Tensor,
    spec: GridSpec,
    block: ConvBlock,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """channel norm -> conv -> GELU -> dropout, plus the input.

    With a zero kernel the conv emits zeros, GELU maps 0 to 0, and the block
    therefore returns its input bit-for-bit.
    """
    h = ad.channel_norm(feats, block.gamma, block.beta)
    h = conv_grid_features(h, spec, block.conv)
    h = ad.gelu(h)
    if training and block.dropout > 0.0:
        if rng is None:
            raise ConfigError("dropout during training needs an rng")
        h = ad.dropout(h, block.dropout, rng)
    return ad.add(feats, h)


def init_affine_head(in_width: int, out_width: int, rng: np.random.Generator) -> MlpParams:
    """The classification head: one affine layer, weights ~ U(-1/sqrt(in_width),
    1/sqrt(in_width)) and a zero bias."""
    bound = 1.0 / np.sqrt(in_width)
    return MlpParams(
        [Tensor(rng.uniform(-bound, bound, size=(in_width, out_width)))],
        [Tensor(np.zeros(out_width))],
    )


def classify_head(grid_feats: Tensor, head: MlpParams) -> Tensor:
    """Global mean pool over all cells, then the head; returns (1, n_classes) logits."""
    return mlp_forward(head, ad.reduce_mean(grid_feats, axis=0))

"""Synthetic datasets, training harnesses, and the scaling benchmark.

Three runnable studies live here:

* feature reconstruction — map a random cloud onto a grid and straight back,
  trained with mean squared error, swept over grid resolutions and channel
  widths;
* sphere-vs-cube classification — a small end-to-end pipeline (gridify, a few
  convolution blocks, global classification head) on synthetic surfaces;
* the scaling benchmark — wall-clock and allocation cost of the gridified
  pipeline against the per-edge continuous convolution baseline as the cloud
  grows, with positional-evaluation counters as a machine-independent cost
  measure.

Everything except wall-clock times is reproducible bit-for-bit from
(seed, config).
"""

from __future__ import annotations

import csv
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import save_checkpoint
from .connectivity import bilateral_knn, invert_edges, self_knn
from .errors import ConfigError, TrainingError
from .gridify import (
    AGGREGATIONS,
    GridifierParams,
    degridify_features,
    gridify_features,
    init_gridifier,
)
from .gridnet import (
    ConvBlock,
    KernelEvalCounter,
    block_forward,
    classify_head,
    conv_grid_features,
    conv_point_native,
    init_affine_head,
    init_conv,
    init_conv_block,
)
from .nn import MlpParams, init_positional_net
from .optim import adamw_init, adamw_step, lr_at, zero_grads
from .pccore import GridSpec, PointCloud, make_grid_coords

__all__ = [
    "BenchReport",
    "BenchRow",
    "ClassifyConfig",
    "ReconConfig",
    "ReconRow",
    "bench_scaling",
    "gen_random_cloud",
    "gen_shape_cloud",
    "train_classify_synth",
    "train_reconstruction",
    "write_recon_csv",
]


# --------------------------------------------------------------------------
# data synthesis


def gen_random_cloud(n: int, seed) -> PointCloud:
    """Coordinates uniform on [-1, 1]^3 with one uniform scalar feature each."""
    if n < 1:
        raise ConfigError(f"cloud needs at least one point, got {n}")
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-1.0, 1.0, (n, 3)), rng.uniform(-1.0, 1.0, (n, 1)))


def gen_shape_cloud(n: int, shape: str, seed, noise: float = 0.02) -> PointCloud:
    """Noisy samples from a sphere or cube surface of matched size.

    Both shapes share the bounding half-width 0.7 so the classes differ in
    geometry (corners and flat faces versus constant curvature), not in scale,
    and the per-point scalar feature stays uninformative uniform noise.
    """
    if n < 1:
        raise ConfigError(f"cloud needs at least one point, got {n}")
    rng = np.random.default_rng(seed)
    extent = 0.7
    if shape == "sphere":
        v = rng.normal(size=(n, 3))
        v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)
        pts = extent * v
    elif shape == "cube":
        axis = rng.integers(0, 3, size=n)
        side = rng.choice([-1.0, 1.0], size=n)
        pts = rng.uniform(-extent, extent, (n, 3))
        pts[np.arange(n), axis] = side * extent
    else:
        raise ConfigError(f"unknown shape {shape!r}; expected 'sphere' or 'cube'")
    pts = pts + rng.normal(0.0, noise, (n, 3))
    return PointCloud(pts, rng.uniform(-1.0, 1.0, (n, 1)))


# --------------------------------------------------------------------------
# shared training plumbing


def _check_finite_loss(loss: Tensor, epoch: int) -> float:
    value = loss.item()
    if not np.isfinite(value):
        raise TrainingError(f"training diverged: non-finite loss at epoch {epoch}")
    return value


def _check_common(cfg, n_cells: int) -> None:
    """Reject settings shared by both studies before any data exists."""
    for name in ("epochs", "batch_size", "k", "n_points"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    if not 0 <= cfg.warmup < cfg.epochs:
        raise ConfigError(f"warmup must be in [0, epochs={cfg.epochs}), got {cfg.warmup}")
    if not (np.isfinite(cfg.omega) and cfg.omega > 0):
        raise ConfigError(f"omega must be finite and > 0, got {cfg.omega}")
    if not (np.isfinite(cfg.lr) and cfg.lr > 0):
        raise ConfigError(f"lr must be finite and > 0, got {cfg.lr}")
    if not (np.isfinite(cfg.weight_decay) and cfg.weight_decay >= 0):
        raise ConfigError(f"weight_decay must be finite and >= 0, got {cfg.weight_decay}")
    if cfg.k > min(cfg.n_points, n_cells):
        raise ConfigError(f"k={cfg.k} exceeds min(n_points={cfg.n_points}, grid cells={n_cells})")


def _fit(cfg, params: dict[str, Tensor], loss_of, order_rng: np.random.Generator) -> None:
    """Train ``params`` with AdamW on the ``cfg.n_train`` training clouds.

    ``loss_of(i)`` builds the scalar loss of training cloud ``i``.  Every epoch
    visits the clouds in one fresh ``order_rng`` permutation, ``cfg.batch_size``
    at a time (the last batch may be shorter), and takes one AdamW step on the
    batch-mean gradient at the warmup + cosine learning rate.  The final
    parameters and optimizer state go to ``cfg.checkpoint_path`` when set.
    """
    state = adamw_init(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg.epochs, cfg.warmup, cfg.lr)
        order = order_rng.permutation(cfg.n_train)
        for start in range(0, cfg.n_train, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            for i in batch:
                loss = loss_of(i)
                _check_finite_loss(loss, epoch)
                loss.backward()
            adamw_step(state, params, lr=lr, scale=1.0 / batch.size)
            zero_grads(params)
    if cfg.checkpoint_path is not None:
        save_checkpoint(cfg.checkpoint_path, params, state)


# --------------------------------------------------------------------------
# reconstruction study


@dataclass(frozen=True)
class ReconConfig:
    """Sweep settings for the reconstruction study; loss is MSE over features."""

    n_train: int = 200
    n_val: int = 50
    n_points: int = 256
    resolutions: tuple[int, ...] = (6,)
    channels: tuple[int, ...] = (16,)
    epochs: int = 30
    k: int = 4
    lr: float = 0.01
    warmup: int = 3
    weight_decay: float = 1e-4
    batch_size: int = 1
    omega: float = 1.0
    aggregation: str = "mean"
    seed: int = 0
    checkpoint_path: str | None = None

    def __post_init__(self):
        for name in ("n_train", "n_val"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if min(self.resolutions, default=0) < 2:
            raise ConfigError(f"resolutions must all be >= 2, got {self.resolutions}")
        if not self.channels or min(self.channels) < 1:
            raise ConfigError(f"channel widths must be >= 1, got {self.channels}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"aggregation must be one of {AGGREGATIONS}, got {self.aggregation!r}")
        if self.checkpoint_path is not None and len(self.resolutions) * len(self.channels) > 1:
            raise ConfigError("checkpoint_path needs a sweep of one resolution and one width")
        _check_common(self, min(self.resolutions) ** 3)


@dataclass(frozen=True)
class ReconRow:
    resolution: int
    channels: int
    seed: int
    val_mse: float
    untrained_val_mse: float


def _round_trip_loss(cloud, grid_coords, edges, inv_edges, enc, dec):
    grid_feats = gridify_features(Tensor(cloud.feats), cloud.coords, grid_coords, edges, enc)
    back = degridify_features(grid_feats, grid_coords, cloud.coords, inv_edges, dec)
    return ad.mse(back, Tensor(cloud.feats))


def _mean_val_loss(clouds, grid_coords, edge_pairs, enc, dec, epoch):
    losses = [
        _check_finite_loss(
            _round_trip_loss(c, grid_coords, fwd, inv, enc, dec), epoch
        )
        for c, (fwd, inv) in zip(clouds, edge_pairs)
    ]
    return float(np.mean(losses))


def train_reconstruction(cfg: ReconConfig, out_csv: str | None = None) -> list[ReconRow]:
    """Train gridify -> degridify (no layers in between) per sweep setting.

    The same clouds and, per resolution, the same cached edge sets serve every
    channel width, so rows differ only in model capacity.  Returns one row per
    (resolution, channels) with validation MSE before and after training.
    """
    root = np.random.SeedSequence(cfg.seed)
    data_seeds = root.spawn(cfg.n_train + cfg.n_val)
    clouds = [gen_random_cloud(cfg.n_points, s) for s in data_seeds]
    train, val = clouds[: cfg.n_train], clouds[cfg.n_train :]

    rows = []
    for resolution in cfg.resolutions:
        spec = GridSpec(resolution=resolution, dim=3)
        grid_coords = make_grid_coords(spec)
        edge_pairs = []
        for cloud in clouds:
            fwd = bilateral_knn(cloud.coords, grid_coords, cfg.k)
            edge_pairs.append((fwd, invert_edges(fwd)))
        train_edges, val_edges = edge_pairs[: cfg.n_train], edge_pairs[cfg.n_train :]

        for width in cfg.channels:
            run_ss = np.random.SeedSequence((cfg.seed, resolution, width))
            init_rng, order_rng = (np.random.default_rng(s) for s in run_ss.spawn(2))
            enc = init_gridifier(
                1, width, width, 3, init_rng, omega=cfg.omega, aggregation=cfg.aggregation
            )
            dec = init_gridifier(
                width, 1, width, 3, init_rng, omega=cfg.omega, aggregation=cfg.aggregation
            )
            params = enc.named_parameters("enc.")
            params.update(dec.named_parameters("dec."))

            def loss_of(i):
                fwd, inv = train_edges[i]
                return _round_trip_loss(train[i], grid_coords, fwd, inv, enc, dec)

            untrained = _mean_val_loss(val, grid_coords, val_edges, enc, dec, epoch=0)
            _fit(cfg, params, loss_of, order_rng)
            val_mse = _mean_val_loss(val, grid_coords, val_edges, enc, dec, epoch=cfg.epochs - 1)
            rows.append(ReconRow(resolution, width, cfg.seed, val_mse, untrained))

    if out_csv is not None:
        write_recon_csv(rows, out_csv)
    return rows


def write_recon_csv(rows: list[ReconRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["resolution", "channels", "seed", "val_mse"])
        for row in rows:
            writer.writerow([row.resolution, row.channels, row.seed, f"{row.val_mse:.10g}"])


# --------------------------------------------------------------------------
# classification study


@dataclass(frozen=True)
class ClassifyConfig:
    """Sphere-vs-cube surface classification at desk scale."""

    n_train: int = 60
    n_val: int = 30
    n_points: int = 100
    resolution: int = 5
    channels: int = 8
    kernel_size: int = 3
    n_blocks: int = 3
    k: int = 3
    epochs: int = 20
    lr: float = 0.01
    warmup: int = 2
    weight_decay: float = 1e-4
    dropout: float = 0.0
    noise: float = 0.02
    omega: float = 1.0
    seed: int = 0
    batch_size: int = 1
    shuffle_labels: bool = False
    checkpoint_path: str | None = None

    def __post_init__(self):
        for name in ("n_train", "n_val"):
            value = getattr(self, name)
            if value < 2:
                raise ConfigError(f"{name} must be >= 2 so the split holds both classes, got {value}")
        if self.resolution < 1:
            raise ConfigError(f"resolution must be >= 1, got {self.resolution}")
        if self.n_blocks < 1:
            raise ConfigError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd and positive, got {self.kernel_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not (np.isfinite(self.noise) and self.noise >= 0.0):
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")
        _check_common(self, self.resolution**3)


_SHAPES = ("sphere", "cube")


@dataclass
class _ClassifyModel:
    spec: GridSpec
    grid_coords: np.ndarray
    enc: GridifierParams
    blocks: list[ConvBlock]
    head: MlpParams

    def named_parameters(self) -> dict[str, Tensor]:
        params = self.enc.named_parameters("enc.")
        for i, block in enumerate(self.blocks):
            params.update(block.named_parameters(f"blocks.{i}."))
        params.update(self.head.named_parameters("head."))
        return params


def _classify_logits(model, cloud, edges, rng=None, training=False):
    h = gridify_features(Tensor(cloud.feats), cloud.coords, model.grid_coords, edges, model.enc)
    for block in model.blocks:
        h = block_forward(h, model.spec, block, rng, training)
    return classify_head(h, model.head)


def train_classify_synth(cfg: ClassifyConfig) -> float:
    """Train gridify -> conv blocks -> global head; returns validation accuracy.

    With ``shuffle_labels`` the training labels are permuted (validation labels
    stay true), which destroys the learnable signal and pins expected accuracy
    at chance level on the balanced validation split.
    """
    root = np.random.SeedSequence(cfg.seed)
    data_ss, init_ss, order_ss, shuffle_ss, drop_ss = root.spawn(5)

    n_total = cfg.n_train + cfg.n_val
    labels = np.arange(n_total) % 2
    cloud_seeds = data_ss.spawn(n_total)
    clouds = [
        gen_shape_cloud(cfg.n_points, _SHAPES[labels[i]], s, cfg.noise)
        for i, s in enumerate(cloud_seeds)
    ]
    train, val = clouds[: cfg.n_train], clouds[cfg.n_train :]
    train_labels = labels[: cfg.n_train].copy()
    val_labels = labels[cfg.n_train :]
    if cfg.shuffle_labels:
        train_labels = np.random.default_rng(shuffle_ss).permutation(train_labels)

    spec = GridSpec(resolution=cfg.resolution, dim=3)
    grid_coords = make_grid_coords(spec)
    edges = [bilateral_knn(c.coords, grid_coords, cfg.k) for c in clouds]
    train_edges, val_edges = edges[: cfg.n_train], edges[cfg.n_train :]

    init_rng = np.random.default_rng(init_ss)
    enc = init_gridifier(1, cfg.channels, cfg.channels, 3, init_rng, omega=cfg.omega)
    blocks = [
        init_conv_block(cfg.channels, cfg.kernel_size, 3, init_rng, cfg.dropout)
        for _ in range(cfg.n_blocks)
    ]
    head = init_affine_head(cfg.channels, 2, init_rng)
    model = _ClassifyModel(spec, grid_coords, enc, blocks, head)
    params = model.named_parameters()
    drop_rng = np.random.default_rng(drop_ss)

    def loss_of(i):
        logits = _classify_logits(model, train[i], train_edges[i], rng=drop_rng, training=True)
        return ad.softmax_cross_entropy(logits, train_labels[i : i + 1])

    _fit(cfg, params, loss_of, np.random.default_rng(order_ss))

    hits = 0
    for cloud, cloud_edges, label in zip(val, val_edges, val_labels):
        logits = _classify_logits(model, cloud, cloud_edges)
        hits += int(np.argmax(logits.data[0]) == label)
    return hits / cfg.n_val


# --------------------------------------------------------------------------
# scaling benchmark


@dataclass(frozen=True)
class BenchRow:
    """One measured configuration; ``pos_evals`` counts one layer's positional
    network rows (every layer in the stack costs the same count)."""

    path: str
    n_points: int
    channels: int
    k: int
    time_ms_median: float
    allocs_bytes: int
    pos_evals: int


@dataclass
class BenchReport:
    rows: list[BenchRow]

    def slope(self, path: str, channels: int) -> float:
        """Least-squares log-log slope of median time versus cloud size."""
        pts = [(r.n_points, r.time_ms_median) for r in self.rows
               if r.path == path and r.channels == channels]
        if len(pts) < 2:
            raise ConfigError(f"need >= 2 sizes to fit a slope for path {path!r}")
        ns, ts = zip(*sorted(pts))
        return float(np.polyfit(np.log(ns), np.log(ts), 1)[0])

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", "N", "C", "k", "time_ms_median", "allocs_bytes", "pos_evals"])
            for r in self.rows:
                writer.writerow(
                    [r.path, r.n_points, r.channels, r.k,
                     f"{r.time_ms_median:.6g}", r.allocs_bytes, r.pos_evals]
                )


def _median_seconds(fns, repetitions: int) -> list[float]:
    """Median seconds of ``repetitions`` timed calls of each function in
    ``fns``, after three untimed calls of each.

    Each repetition times every function once, and odd repetitions run them
    in reverse order, so what one function leaves behind (freed pages, a warm
    cache) weighs on the others' readings evenly instead of on one side only.
    """
    for _ in range(3):
        for fn in fns:
            fn()
    samples = [[] for _ in fns]
    for rep in range(repetitions):
        order = range(len(fns)) if rep % 2 == 0 else reversed(range(len(fns)))
        for i in order:
            t0 = time.perf_counter()
            fns[i]()
            samples[i].append(time.perf_counter() - t0)
    return [statistics.median(s) for s in samples]


def _peak_alloc_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def bench_scaling(
    n_list,
    c_list,
    k: int = 9,
    repetitions: int = 5,
    resolution: int = 9,
    kernel_size: int = 9,
    n_layers: int = 3,
    omega: float = 1.0,
    seed: int = 0,
    out_csv: str | None = None,
) -> BenchReport:
    """Time the gridified pipeline against the per-edge baseline over cloud sizes.

    Both paths run ``n_layers`` continuous-kernel convolutions on identical
    clouds: the grid path first maps the cloud onto a resolution**3 lattice and
    then convolves there with one kernel materialization per layer; the native
    path convolves directly over self-neighborhood edges, re-evaluating its
    kernel network once per edge.  Peak allocation and positional-evaluation
    counts come from one untimed traced and counted pass; the timed calls of
    the two paths alternate (``_median_seconds``).
    """
    n_list = [int(n) for n in n_list]
    if repetitions < 5:
        raise ConfigError(f"need >= 5 repetitions for stable medians, got {repetitions}")
    if len(n_list) < 1 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError(f"sizes (--sizes) must be strictly increasing, got {n_list}")
    if n_list[0] < 1:
        raise ConfigError(f"sizes (--sizes) must be >= 1, got {n_list}")
    if not 1 <= k <= min(n_list[0], resolution**3):
        raise ConfigError(
            f"nr_neighbors (--k) must be in [1, min(smallest size {n_list[0]}, "
            f"resolution**3 = {resolution**3})], got {k}"
        )
    if n_layers < 1:
        raise ConfigError(f"need at least one convolution layer, got n_layers={n_layers}")

    spec = GridSpec(resolution=resolution, dim=3)
    grid_coords = make_grid_coords(spec)
    rows = []
    for width in c_list:
        rng = np.random.default_rng(np.random.SeedSequence((seed, width)))
        enc = init_gridifier(1, width, width, 3, rng, omega=omega)
        grid_convs = [
            init_conv(kernel_size, 3, width, width, rng, omega=omega, n_frequencies=8, hidden=[32])
            for _ in range(n_layers)
        ]
        native_widths = [(1, width)] + [(width, width)] * (n_layers - 1)
        native_nets = [
            init_positional_net(omega, 8, 3, [32], c_in * c_out, rng)
            for c_in, c_out in native_widths
        ]

        for n in n_list:
            cloud = gen_random_cloud(n, np.random.SeedSequence((seed, n)))

            def run_grid(counter=None):
                edges = bilateral_knn(cloud.coords, grid_coords, k)
                h = gridify_features(
                    Tensor(cloud.feats), cloud.coords, grid_coords, edges, enc
                )
                for conv in grid_convs:
                    h = conv_grid_features(h, spec, conv, counter)
                return h

            def run_native(counter=None):
                edges = self_knn(cloud.coords, k)
                h = Tensor(cloud.feats)
                for net in native_nets:
                    h = conv_point_native(cloud.coords, h, edges, net, counter)
                return h

            paths = (("grid", run_grid), ("native", run_native))
            medians = _median_seconds([fn for _, fn in paths], repetitions)
            for (path, fn), med in zip(paths, medians):
                counter = KernelEvalCounter()
                alloc = _peak_alloc_bytes(lambda: fn(counter))
                if counter.pos_evals % n_layers:
                    raise TrainingError("positional evaluations unevenly split across layers")
                per_layer = counter.pos_evals // n_layers
                rows.append(BenchRow(path, n, width, k, med * 1e3, alloc, per_layer))

    report = BenchReport(rows)
    if out_csv is not None:
        report.to_csv(out_csv)
    return report

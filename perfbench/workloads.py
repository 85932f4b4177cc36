"""The benchmark's workloads: set-up, one operation, and the checks on its output.

Each workload is a closed loop of one client in one process.  Everything an
operation consumes is generated here from the workload seed.  ``op`` runs one
operation and ``check`` verifies its output, raising ``CheckFailed``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from gridifier import autodiff, checkpoint, connectivity, experiments, gridify, gridnet, nn, pccore
from gridifier.autodiff import Tensor
from gridifier.experiments import ClassifyConfig, ReconConfig


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _finite(a: np.ndarray, shape: tuple, what: str) -> None:
    _require(a.shape == shape, f"{what}: shape {a.shape}, expected {shape}")
    _require(np.all(np.isfinite(a)), f"{what}: non-finite values")


# --------------------------------------------------------------------------
# infer


class Infer:
    """Cloud -> grid -> 3 convolutions -> cloud, then the per-edge baseline.

    One operation is a round of four clouds, alternating small (N~1000) and
    large (N~8000) and, within each size, a uniform cube and a noisy surface,
    so that every round does the same work and its time is unimodal.  Each
    cloud's N is jittered by up to 10% from the seed; the two clouds of one
    size get opposite jitter, so a round's total point count does not depend
    on the seed.
    """

    RESOLUTION = 9
    KERNEL = 9
    CHANNELS = 16
    K = 9
    LAYERS = 3
    SIZES = {"small": 1000, "large": 8000}
    JITTER = 0.10
    # (size class, layout, sign of the size's jitter), in the order a round runs
    ROUND = (("small", "cube", 1), ("large", "cube_surface", 1),
             ("small", "sphere", -1), ("large", "cube", -1))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.spec = pccore.GridSpec(resolution=self.RESOLUTION, dim=3)
        self.grid_coords = pccore.make_grid_coords(self.spec)
        self.union_checked: set[str] = set()

    def setup(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        delta = {size: rng.uniform(-self.JITTER, self.JITTER) for size in self.SIZES}
        self.clouds = []  # (size class, layout, n, path), in round order
        for size, layout, sign in self.ROUND:
            n = int(round(self.SIZES[size] * (1.0 + sign * delta[size])))
            cloud_seed = int(rng.integers(2**63))
            if layout == "cube":
                cloud = experiments.gen_random_cloud(n, cloud_seed)
            else:
                shape = "cube" if layout == "cube_surface" else "sphere"
                cloud = experiments.gen_shape_cloud(n, shape, cloud_seed, noise=0.05)
            path = self.workdir / f"{size}-{layout}.pcb"
            pccore.write_cloud(cloud, path)
            self.clouds.append((size, layout, n, path))

        c = self.CHANNELS
        self.enc = gridify.init_gridifier(1, c, c, 3, rng, omega=1.0)
        self.dec = gridify.init_gridifier(c, 1, c, 3, rng, omega=1.0)
        self.grid_convs = [
            gridnet.init_conv(self.KERNEL, 3, c, c, rng, omega=1.0, n_frequencies=8, hidden=[32])
            for _ in range(self.LAYERS)
        ]
        widths = [(1, c)] + [(c, c)] * (self.LAYERS - 1)
        self.native_nets = [
            nn.init_positional_net(1.0, 8, 3, [32], ci * co, rng) for ci, co in widths
        ]
        # warm-up: one small cloud through both paths
        self._cloud_op(*self.clouds[0])

    def _grid_path(self, path: Path, out_path: Path, counter):
        cloud = pccore.read_cloud(path)
        edges = connectivity.bilateral_knn(cloud.coords, self.grid_coords, self.K)
        inv = connectivity.invert_edges(edges)
        h0 = gridify.gridify_features(Tensor(cloud.feats), cloud.coords, self.grid_coords, edges, self.enc)
        cache = gridnet.KernelCache()
        h = h0
        for conv in self.grid_convs:
            h = gridnet.conv_grid_features(h, self.spec, conv, counter, cache)
        back = gridify.degridify_features(h, self.grid_coords, cloud.coords, inv, self.dec)
        pccore.write_cloud(pccore.PointCloud(cloud.coords, back.data), out_path)
        # plain arrays, so the autodiff graph is freed before the next cloud
        return {"cloud": cloud, "edges": edges, "inv": inv, "h0": h0.data, "h": h.data, "back": back.data}

    def _native_path(self, cloud, counter):
        edges = connectivity.self_knn(cloud.coords, self.K)
        h = Tensor(cloud.feats)
        for net in self.native_nets:
            h = gridnet.conv_point_native(cloud.coords, h, edges, net, counter)
        return {"self_edges": edges, "native_out": h.data}

    def _cloud_op(self, size, layout, n, path, tracer=None) -> dict:
        if tracer is not None:
            tracer.tag = size
        out = {"size": size, "n": n, "path": path}
        out["grid_counter"] = gridnet.KernelEvalCounter()
        out["native_counter"] = gridnet.KernelEvalCounter()
        t0 = time.perf_counter()
        out.update(self._grid_path(path, self.workdir / f"out-{size}-{layout}.pcb", out["grid_counter"]))
        t1 = time.perf_counter()
        out.update(self._native_path(out["cloud"], out["native_counter"]))
        t2 = time.perf_counter()
        if tracer is not None:
            tracer.tag = None
        out["grid_s"], out["native_s"] = t1 - t0, t2 - t1
        return out

    def op(self, tracer=None) -> dict:
        clouds = [self._cloud_op(*c, tracer=tracer) for c in self.clouds]
        return {
            "points": sum(c["n"] for c in clouds),
            "model_s": sum(c["grid_s"] for c in clouds),
            "clouds": clouds,
        }

    def check(self, result: dict) -> dict:
        """Raises CheckFailed on a wrong output; returns the op's timings and
        counts without the arrays."""
        n_g, c, k, layers = self.spec.n_points, self.CHANNELS, self.K, self.LAYERS
        taps = self.KERNEL**3
        for r in result["clouds"]:
            n, edges, self_edges = r["n"], r["edges"], r["self_edges"]
            _require(r["cloud"].n_points == n, f"{r['path'].name}: read {r['cloud'].n_points} points, wrote {n}")
            _finite(r["h0"], (n_g, c), "gridified features")
            _finite(r["h"], (n_g, c), "convolved grid features")
            _finite(r["back"], (n, 1), "degridified features")
            _finite(r["native_out"], (n, c), "per-edge convolution output")
            _require(np.bincount(edges.src, minlength=n).min() >= k, "a cloud point has out-degree < k")
            _require(np.bincount(edges.dst, minlength=n_g).min() >= k, "a grid node has in-degree < k")
            _require(r["inv"].n_edges == edges.n_edges, "inverted edge set changed size")
            _require(np.bincount(self_edges.dst, minlength=n).min() >= k, "a cloud point has < k self-edges")
            _require(
                r["grid_counter"].snapshot() == (taps * layers, layers, layers),
                f"grid kernel counter {r['grid_counter'].snapshot()}, expected {taps} evaluations, "
                f"1 materialization and 1 application per layer",
            )
            _require(
                r["native_counter"].snapshot() == (self_edges.n_edges * layers, 0, layers),
                f"per-edge kernel counter {r['native_counter'].snapshot()}, expected "
                f"{self_edges.n_edges} evaluations per layer",
            )
            if r["size"] not in self.union_checked:
                self._check_brute_union(r["cloud"].coords, edges)
                self.union_checked.add(r["size"])
        clouds = [
            {"size": r["size"], "n": r["n"], "grid_s": r["grid_s"], "native_s": r["native_s"],
             "pos_evals_grid": r["grid_counter"].pos_evals,
             "pos_evals_native": r["native_counter"].pos_evals,
             "materializations": r["grid_counter"].materializations}
            for r in result["clouds"]
        ]
        return dict(result, clouds=clouds)

    def _check_brute_union(self, coords, edges) -> None:
        """The cloud->grid edges equal the union of two exhaustive k-NN passes."""
        g, k = self.grid_coords, self.K
        n_p, n_g = coords.shape[0], g.shape[0]
        near_cloud = connectivity.knn_brute(g, coords, k)
        near_grid = connectivity.knn_brute(coords, g, k)
        src = np.concatenate([near_cloud.ravel(), np.repeat(np.arange(n_p), k)])
        dst = np.concatenate([np.repeat(np.arange(n_g), k), near_grid.ravel()])
        expected = np.unique(dst * n_p + src)
        _require(
            np.array_equal(expected, edges.dst * n_p + edges.src),
            "bilateral_knn edges differ from the exhaustive two-pass union",
        )


# --------------------------------------------------------------------------
# training


class _CheckpointCapture:
    """Stands in for ``experiments.save_checkpoint`` to keep a copy of what the
    training loop saved, so the file can be compared with the model."""

    def __init__(self):
        self.saved = None

    def install(self):
        self.original = experiments.save_checkpoint
        experiments.save_checkpoint = self

    def __call__(self, path, params, optimizer=None):
        self.saved = {name: p.data.copy() for name, p in params.items()}
        return self.original(path, params, optimizer)


class _Training:
    """Shared plumbing of the two training workloads: every operation trains
    at the workload seed, so all results within a run must be bit-identical."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.ckpt = workdir / f"{self.name}.ckpt"
        self.capture = _CheckpointCapture()
        self.capture.install()
        self.first = None

    def setup(self) -> None:
        # warm-up: a tiny run through the same code paths
        self._train(replace(self.config(), n_train=2, n_val=2, epochs=1, warmup=0))

    def _check_checkpoint(self) -> str:
        saved = self.capture.saved
        _require(saved is not None, "training saved no checkpoint")
        params, state = checkpoint.load_checkpoint(self.ckpt)
        _require(sorted(params) == sorted(saved), "checkpoint parameter names differ from the model")
        for name, arr in saved.items():
            _require(params[name].shape == arr.shape, f"checkpoint {name}: shape differs from the model")
            _require(np.array_equal(params[name], arr), f"checkpoint {name}: values differ from the model")
        _require(state is not None, "checkpoint lacks optimizer state")
        self.capture.saved = None
        return hashlib.sha256(self.ckpt.read_bytes()).hexdigest()

    def op(self, tracer=None) -> dict:
        cfg = self.config()
        clouds = cfg.n_train * cfg.epochs
        return {"points": clouds * cfg.n_points, "n_clouds": clouds, "result": self._train(cfg)}

    def check(self, result: dict) -> dict:
        self._check_result(result["result"])
        digest = self._check_checkpoint()
        if self.first is None:
            self.first = (result["result"], digest)
        _require(
            result["result"] == self.first[0],
            f"result {result['result']} differs from {self.first[0]} at the same seed",
        )
        _require(digest == self.first[1], "checkpoint bytes differ from the first run at the same seed")
        return result


class TrainClassify(_Training):
    """``train_classify_synth`` with its defaults: 1200 steps at batch 1."""

    name = "train-classify"

    def config(self) -> ClassifyConfig:
        return ClassifyConfig(seed=self.seed, checkpoint_path=str(self.ckpt))

    def _train(self, cfg):
        return experiments.train_classify_synth(cfg)

    def _check_result(self, accuracy) -> None:
        # deliberately no threshold: some seeds stay at chance (see NOTES.md)
        _require(0.0 <= accuracy <= 1.0, f"accuracy {accuracy} outside [0, 1]")


class TrainRecon(_Training):
    """``train_reconstruction`` through max aggregation, no convolutions."""

    name = "train-recon"

    def config(self) -> ReconConfig:
        return ReconConfig(
            n_train=100, n_val=25, n_points=256, resolutions=(6,), channels=(16,), k=3,
            epochs=5, batch_size=2, aggregation="max", seed=self.seed,
            checkpoint_path=str(self.ckpt),
        )

    def _train(self, cfg):
        (row,) = experiments.train_reconstruction(cfg)
        return (row.val_mse, row.untrained_val_mse)

    def _check_result(self, result) -> None:
        val_mse, untrained = result
        _require(np.isfinite(val_mse) and np.isfinite(untrained), "non-finite validation MSE")
        _require(val_mse < untrained, f"trained MSE {val_mse} is not below untrained {untrained}")


WORKLOADS = {"infer": Infer, "train-classify": TrainClassify, "train-recon": TrainRecon}


def _count_edges(args, result):
    yield "edges", result.n_edges


def _count_rows(args, result):
    yield "rows", args[1].shape[0]


def _count_bytes(args, result):
    yield "bytes", os.path.getsize(args[0])


def trace_targets():
    """(owner, attribute, span name, counter, peak) for every traced call site."""
    e = experiments
    return [
        (pccore, "read_cloud", "pccore.read_cloud", None, False),
        (pccore, "write_cloud", "pccore.write_cloud", None, False),
        (connectivity, "bilateral_knn", "connectivity.bilateral_knn", _count_edges, False),
        (e, "bilateral_knn", "connectivity.bilateral_knn", _count_edges, False),
        (connectivity, "invert_edges", "connectivity.invert_edges", None, False),
        (e, "invert_edges", "connectivity.invert_edges", None, False),
        (connectivity, "self_knn", "connectivity.self_knn", None, False),
        (gridify, "gridify_features", "gridify.gridify_features", None, False),
        (e, "gridify_features", "gridify.gridify_features", None, False),
        (gridify, "degridify_features", "gridify.degridify_features", None, False),
        (e, "degridify_features", "gridify.degridify_features", None, False),
        (gridnet, "conv_grid_features", "gridnet.conv_grid_features", None, True),
        (e, "block_forward", "gridnet.block_forward", None, False),
        (e, "classify_head", "gridnet.classify_head", None, False),
        (gridnet, "conv_point_native", "gridnet.conv_point_native", None, True),
        (gridnet, "positional_forward", "nn.positional_forward.gridnet", _count_rows, False),
        (gridify, "positional_forward", "nn.positional_forward.gridify", _count_rows, False),
        (autodiff.Tensor, "backward", "autodiff.Tensor.backward", None, False),
        (e, "adamw_step", "optim.adamw_step", None, False),
        (e, "zero_grads", "optim.zero_grads", None, False),
        (e, "save_checkpoint", "checkpoint.save_checkpoint", _count_bytes, False),
        (e, "gen_shape_cloud", "experiments.gen_shape_cloud", None, False),
        (e, "gen_random_cloud", "experiments.gen_random_cloud", None, False),
    ]

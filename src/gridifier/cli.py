"""Command-line interface: gridify/degridify files, run studies, benchmark.

Every flag has a config-file equivalent: ``--config FILE`` reads a flat
``key=value`` file whose keys use the long hyperparameter-table names
(``nr_neighbors=9``, ``learning_rate=0.005``); the matching command-line flag
always wins over the file.  Every command but ``inspect``, which draws no
random numbers, takes a seed; it falls back, in order, to ``--seed``, a
``seed=`` file entry, the ``GRIDIFIER_SEED`` environment variable, and finally
0.  The effective configuration of every run is echoed to stderr, then a
one-line summary of the result goes to stdout.

Exit codes: 0 success, 1 validation error (bad flags, bad config values,
missing or malformed inputs, output paths that cannot be written), 2 runtime
error (diverged training and other mid-run failures).  Output paths
(``--out``, ``--checkpoint``) are checked before any data is read or
generated: their directory must exist, and they must not name a directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .autodiff import Tensor
from .connectivity import bilateral_knn, invert_edges
from .errors import (
    ConfigError,
    DataError,
    GridifierError,
    ParseError,
    ShapeError,
)
from .experiments import (
    ClassifyConfig,
    ReconConfig,
    bench_scaling,
    train_classify_synth,
    train_reconstruction,
)
from .gridify import (
    AGGREGATIONS,
    check_requirements,
    degridify_features,
    gridify_features,
    init_gridifier,
)
from .pccore import GridSpec, PointCloud, make_grid_coords, read_cloud, write_cloud

__all__ = ["main", "run"]


# --------------------------------------------------------------------------
# option tables

def _int_list(s: str) -> tuple[int, ...]:
    items = tuple(int(t) for t in s.split(",") if t.strip())
    if not items:
        raise ValueError(f"empty list {s!r}")
    return items


def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


@dataclass(frozen=True)
class _Opt:
    """One option: config-file key, CLI flag, value parser, default."""

    key: str
    flag: str
    parse: Callable
    default: object = None
    help: str = ""

    @property
    def is_switch(self) -> bool:
        return self.parse is _bool and self.default in (False, None)


_SEED = _Opt("seed", "--seed", int, None, "random seed (falls back to GRIDIFIER_SEED, then 0)")
_STRICT = _Opt("strict", "--strict", _bool, False, "treat requirement violations as fatal")

_K = _Opt("nr_neighbors", "--k", int, 9, "neighbors per node in the bilateral k-NN pass")
_RES = _Opt("grid_resolution", "--resolution", int, 9, "lattice points per axis")
_KSIZE = _Opt("conv_kernel_size", "--kernel-size", int, 9, "convolution kernel width per axis")
_BLOCKS = _Opt("nr_conv_blocks", "--blocks", int, 3, "number of convolution blocks/layers")
_WIDTH = _Opt("hidden_channels", "--channels", int, 128, "channel width")
_EPOCHS = _Opt("nr_epochs", "--epochs", int, 60, "training epochs")
_NPOINTS = _Opt("nr_input_points", "--n-points", int, 1000, "points per generated cloud")
_LR = _Opt("learning_rate", "--lr", float, 0.005, "peak learning rate")
_WARMUP = _Opt("learning_rate_warmup", "--warmup", int, 10, "linear warm-up epochs")
_BATCH = _Opt("batch_size", "--batch-size", int, 32, "clouds per optimizer step")
_WD = _Opt("weight_decay", "--weight-decay", float, 0.0, "decoupled weight decay")
_DROPOUT = _Opt("dropout", "--dropout", float, 0.1, "dropout rate inside conv blocks")
_OMEGA = _Opt("omega", "--omega", float, 0.1, "initial frequency scale of the positional embedding")
_AGG = _Opt("aggregation", "--aggregation", str, "mean",
            "message aggregation: " + " or ".join(AGGREGATIONS))

_COMMANDS: dict[str, list[_Opt]] = {
    "gridify": [
        _Opt("in", "--in", str, help="input point cloud (csv or pcb)"),
        _Opt("out", "--out", str, help="output grid file (csv or pcb)"),
        _RES, _K, _WIDTH, _OMEGA, _AGG, _SEED, _STRICT,
    ],
    "degridify": [
        _Opt("in", "--in", str, help="input grid file written by gridify"),
        _Opt("cloud", "--cloud", str, help="target point cloud supplying output coordinates"),
        _Opt("out", "--out", str, help="output point cloud file"),
        _Opt("grid_resolution", "--resolution", int, None,
             "lattice points per axis (default: inferred from the grid file)"),
        _K, _WIDTH, _OMEGA, _AGG, _SEED, _STRICT,
    ],
    "train-recon": [
        _Opt("grid_resolution", "--resolution", _int_list, (9,), "resolutions to sweep"),
        _Opt("hidden_channels", "--channels", _int_list, (128,), "channel widths to sweep"),
        _NPOINTS, _EPOCHS, _LR, _WARMUP, _WD, _BATCH, _K, _OMEGA, _AGG,
        _Opt("n_train", "--n-train", int, 200, "training clouds"),
        _Opt("n_val", "--n-val", int, 50, "validation clouds"),
        _Opt("out", "--out", str, help="CSV of per-setting validation MSE"),
        _Opt("checkpoint", "--checkpoint", str, help="write final parameters here"),
        _SEED,
    ],
    "train-classify": [
        _RES, _WIDTH, _KSIZE, _BLOCKS, _NPOINTS, _EPOCHS, _LR, _WARMUP, _WD,
        _DROPOUT, _BATCH, _K, _OMEGA,
        _Opt("n_train", "--n-train", int, 60, "training clouds"),
        _Opt("n_val", "--n-val", int, 30, "validation clouds"),
        _Opt("noise", "--noise", float, 0.02, "surface jitter of the generated shapes"),
        _Opt("shuffle_labels", "--shuffle-labels", _bool, False,
             "permute training labels (chance-level control)"),
        _Opt("out", "--out", str, help="CSV holding the validation accuracy"),
        _Opt("checkpoint", "--checkpoint", str, help="write final parameters here"),
        _SEED,
    ],
    "bench": [
        _Opt("sizes", "--sizes", _int_list, (1000, 2000, 4000, 8000),
             "cloud sizes, comma-separated and increasing"),
        _Opt("hidden_channels", "--channels", _int_list, (16,), "channel widths"),
        _K, _RES, _KSIZE, _BLOCKS, _OMEGA,
        _Opt("repetitions", "--repetitions", int, 5, "timed repetitions per measurement"),
        _Opt("out", "--out", str, help="CSV of timings, allocations, and kernel-eval counts"),
        _SEED,
    ],
    "inspect": [
        _Opt("in", "--in", str, help="point cloud to describe (csv or pcb)"),
        _RES, _K,
        _Opt("edges", "--edges", _bool, False, "print the bilateral edge list as src,dst lines"),
        _STRICT,
    ],
}


# --------------------------------------------------------------------------
# config assembly


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file {path!r} does not exist") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start}: not UTF-8 text") from None
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{ln}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridifier",
        description="Map point clouds onto regular grids, convolve there, and map back.",
    )
    subs = parser.add_subparsers(dest="task", required=True)
    for task, opts in _COMMANDS.items():
        sub = subs.add_parser(task, help=f"run the {task} pipeline")
        sub.add_argument("--config", default=None, metavar="FILE",
                         help="flat key=value file; flags override its entries")
        for opt in opts:
            if opt.is_switch:
                sub.add_argument(opt.flag, dest=opt.key, action="store_true",
                                 default=None, help=opt.help)
            else:
                sub.add_argument(opt.flag, dest=opt.key, default=None,
                                 type=str, metavar=opt.key.upper(), help=opt.help)
    return parser


def _resolve(task: str, args: argparse.Namespace) -> dict:
    """Merge defaults, config file, flags, and, where the command takes a seed,
    the seed fallback chain."""
    opts = {o.key: o for o in _COMMANDS[task]}
    eff = {o.key: o.default for o in opts.values()}

    if args.config is not None:
        for key, raw in _read_config_file(args.config).items():
            if key not in opts:
                known = ", ".join(sorted(opts))
                raise ConfigError(f"unknown config key {key!r} for {task} (known: {known})")
            try:
                eff[key] = opts[key].parse(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from None

    for key, opt in opts.items():
        given = getattr(args, key)
        if given is None:
            continue
        if opt.is_switch:
            eff[key] = True
        else:
            try:
                eff[key] = opt.parse(given)
            except ValueError as exc:
                raise ConfigError(f"flag {opt.flag}: {exc}") from None

    if "seed" in eff and eff["seed"] is None:
        env = os.environ.get("GRIDIFIER_SEED")
        if env is not None:
            if not env.strip().isdecimal():
                raise ConfigError(f"GRIDIFIER_SEED must be a non-negative integer, got {env!r}")
            eff["seed"] = int(env)
        else:
            eff["seed"] = 0
    _check_values(eff)
    return eff


def _check_values(eff: dict) -> None:
    """Reject values the command would only trip over after reading its input."""
    seed = eff.get("seed")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    resolutions = eff.get("grid_resolution")
    if resolutions is not None and min(np.atleast_1d(resolutions)) < 1:
        raise ConfigError(
            f"grid_resolution (--resolution) must be >= 1, got {_show(resolutions)}"
        )
    for key, flag in (("nr_neighbors", "--k"), ("nr_conv_blocks", "--blocks")):
        value = eff.get(key)
        if value is not None and value < 1:
            raise ConfigError(f"{key} ({flag}) must be >= 1, got {value}")
    widths = eff.get("hidden_channels")
    if widths is not None and min(np.atleast_1d(widths)) < 1:
        raise ConfigError(f"hidden_channels (--channels) must be >= 1, got {_show(widths)}")
    omega = eff.get("omega")
    if omega is not None and not (np.isfinite(omega) and omega > 0):
        raise ConfigError(f"omega must be finite and > 0, got {omega}")
    for key, flag in (("out", "--out"), ("checkpoint", "--checkpoint")):
        if eff.get(key) is None:
            continue
        target = Path(eff[key])
        if target.is_dir():
            raise ConfigError(f"{key} ({flag}): {str(target)!r} is a directory")
        if not target.parent.is_dir():
            raise ConfigError(f"{key} ({flag}): directory {str(target.parent)!r} does not exist")


def _show(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _echo_config(task: str, eff: dict) -> None:
    pairs = " ".join(f"{k}={_show(v)}" for k, v in sorted(eff.items()) if v is not None)
    print(f"config[{task}]: {pairs}", file=sys.stderr)


def _require(eff: dict, key: str, flag: str):
    if eff.get(key) is None:
        raise ConfigError(f"missing required {flag} (or {key}= in --config)")
    return eff[key]


def _warn_requirements(violations, strict: bool) -> None:
    for v in violations:
        print(f"warning: {v}", file=sys.stderr)
    if strict and violations:
        raise ConfigError(f"{len(violations)} unmet requirements (--strict)")


# --------------------------------------------------------------------------
# subcommands


def _cmd_gridify(eff: dict) -> None:
    cloud = read_cloud(_require(eff, "in", "--in"))
    out = _require(eff, "out", "--out")
    spec = GridSpec(resolution=eff["grid_resolution"], dim=cloud.dim)
    grid_coords = make_grid_coords(spec)
    width, k = eff["hidden_channels"], eff["nr_neighbors"]
    rng = np.random.default_rng(eff["seed"])
    params = init_gridifier(cloud.n_feats, width, width, cloud.dim, rng,
                            omega=eff["omega"], aggregation=eff["aggregation"])
    edges = bilateral_knn(cloud.coords, grid_coords, k)
    _warn_requirements(
        check_requirements(cloud.n_points, cloud.n_feats, spec, params, k, edges),
        eff["strict"],
    )
    feats = gridify_features(Tensor(cloud.feats), cloud.coords, grid_coords, edges, params)
    write_cloud(PointCloud(grid_coords, feats.data), out)
    print(f"wrote {out}: {spec.n_points} cells, {width} channels")


def _infer_resolution(n_cells: int, dim: int) -> int:
    r = round(n_cells ** (1.0 / dim))
    for candidate in (r - 1, r, r + 1):
        if candidate >= 1 and candidate**dim == n_cells:
            return candidate
    raise ConfigError(f"{n_cells} cells is not a full lattice in {dim}-d; pass --resolution")


def _cmd_degridify(eff: dict) -> None:
    grid_file = read_cloud(_require(eff, "in", "--in"))
    target = read_cloud(_require(eff, "cloud", "--cloud"))
    out = _require(eff, "out", "--out")
    if target.dim != grid_file.dim:
        raise ShapeError(
            f"grid is {grid_file.dim}-d but target cloud is {target.dim}-d"
        )
    resolution = eff["grid_resolution"]
    if resolution is None:
        resolution = _infer_resolution(grid_file.n_points, grid_file.dim)
    spec = GridSpec(resolution=resolution, dim=grid_file.dim)
    lattice = make_grid_coords(spec)
    if grid_file.coords.shape != lattice.shape or not np.allclose(
        grid_file.coords, lattice, atol=1e-5
    ):
        raise DataError(
            f"{eff['in']}: coordinates do not form the centered "
            f"resolution-{resolution} lattice; was this file written by gridify?"
        )

    width, k = eff["hidden_channels"], eff["nr_neighbors"]
    rng = np.random.default_rng(eff["seed"])
    params = init_gridifier(grid_file.n_feats, target.n_feats, width, target.dim, rng,
                            omega=eff["omega"], aggregation=eff["aggregation"])
    fwd = bilateral_knn(target.coords, lattice, k)
    _warn_requirements(
        check_requirements(target.n_points, grid_file.n_feats, spec, params, k, fwd),
        eff["strict"],
    )
    feats = degridify_features(
        Tensor(grid_file.feats), lattice, target.coords, invert_edges(fwd), params
    )
    write_cloud(PointCloud(target.coords, feats.data), out)
    print(f"wrote {out}: {target.n_points} points, {target.n_feats} channels")


def _cmd_train_recon(eff: dict) -> None:
    cfg = ReconConfig(
        n_train=eff["n_train"],
        n_val=eff["n_val"],
        n_points=eff["nr_input_points"],
        resolutions=eff["grid_resolution"],
        channels=eff["hidden_channels"],
        epochs=eff["nr_epochs"],
        k=eff["nr_neighbors"],
        lr=eff["learning_rate"],
        warmup=eff["learning_rate_warmup"],
        weight_decay=eff["weight_decay"],
        batch_size=eff["batch_size"],
        omega=eff["omega"],
        aggregation=eff["aggregation"],
        seed=eff["seed"],
        checkpoint_path=eff["checkpoint"],
    )
    rows = train_reconstruction(cfg, out_csv=eff["out"])
    best = min(rows, key=lambda r: r.val_mse)
    print(
        f"train-recon: {len(rows)} settings, best val_mse={best.val_mse:.6g} "
        f"(resolution={best.resolution}, channels={best.channels})"
    )


def _cmd_train_classify(eff: dict) -> None:
    cfg = ClassifyConfig(
        n_train=eff["n_train"],
        n_val=eff["n_val"],
        n_points=eff["nr_input_points"],
        resolution=eff["grid_resolution"],
        channels=eff["hidden_channels"],
        kernel_size=eff["conv_kernel_size"],
        n_blocks=eff["nr_conv_blocks"],
        k=eff["nr_neighbors"],
        epochs=eff["nr_epochs"],
        lr=eff["learning_rate"],
        warmup=eff["learning_rate_warmup"],
        weight_decay=eff["weight_decay"],
        dropout=eff["dropout"],
        noise=eff["noise"],
        omega=eff["omega"],
        seed=eff["seed"],
        batch_size=eff["batch_size"],
        shuffle_labels=bool(eff["shuffle_labels"]),
        checkpoint_path=eff["checkpoint"],
    )
    accuracy = train_classify_synth(cfg)
    if eff["out"] is not None:
        Path(eff["out"]).write_text(f"val_accuracy\n{accuracy:.10g}\n")
    print(f"train-classify: val_accuracy={accuracy:.3f}")


def _cmd_bench(eff: dict) -> None:
    report = bench_scaling(
        n_list=eff["sizes"],
        c_list=eff["hidden_channels"],
        k=eff["nr_neighbors"],
        repetitions=eff["repetitions"],
        resolution=eff["grid_resolution"],
        kernel_size=eff["conv_kernel_size"],
        n_layers=eff["nr_conv_blocks"],
        omega=eff["omega"],
        seed=eff["seed"],
        out_csv=eff["out"],
    )
    sizes = eff["sizes"]
    if len(sizes) >= 2:
        parts = [
            f"c={c}: grid slope {report.slope('grid', c):.2f}, "
            f"native slope {report.slope('native', c):.2f}"
            for c in eff["hidden_channels"]
        ]
        print(f"bench N={sizes[0]}..{sizes[-1]}: " + "; ".join(parts))
    else:
        print(f"bench N={sizes[0]}: {len(report.rows)} measurements")


def _cmd_inspect(eff: dict) -> None:
    cloud = read_cloud(_require(eff, "in", "--in"))
    spec = GridSpec(resolution=eff["grid_resolution"], dim=cloud.dim)
    grid_coords = make_grid_coords(spec)
    k = eff["nr_neighbors"]
    edges = bilateral_knn(cloud.coords, grid_coords, k)
    _warn_requirements(
        check_requirements(cloud.n_points, cloud.n_feats, spec, None, k, edges),
        eff["strict"],
    )
    if eff["edges"]:
        for s, d in zip(edges.src, edges.dst):
            print(f"{s},{d}")
        return
    out_deg = edges.out_degrees()
    print(
        f"{eff['in']}: {cloud.n_points} points, {cloud.n_feats} features, "
        f"{spec.n_points} cells, {edges.src.size} edges, "
        f"cloud degree {out_deg.min()}..{out_deg.max()}"
    )


_HANDLERS = {
    "gridify": _cmd_gridify,
    "degridify": _cmd_degridify,
    "train-recon": _cmd_train_recon,
    "train-classify": _cmd_train_classify,
    "bench": _cmd_bench,
    "inspect": _cmd_inspect,
}


# --------------------------------------------------------------------------
# entry points


def run(argv=None) -> int:
    """Parse, run, and translate failures into the documented exit codes."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        eff = _resolve(args.task, args)
        _echo_config(args.task, eff)
        _HANDLERS[args.task](eff)
        return 0
    except SystemExit as exc:  # argparse already printed usage/help
        code = 0 if exc.code is None else exc.code
        return 1 if code == 2 else int(code)
    except (ConfigError, DataError, ParseError, ShapeError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GridifierError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

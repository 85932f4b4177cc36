"""Benchmark runner for the gridifier package.

    python3 perfbench/run.py --workload infer --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  Workloads are described in
``perfbench/NOTES.md``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
run whose operations alternate untraced and traced.
The line before it is a report with the environment, the per-workload
metrics under their descriptive names and, when traced, every span statistic.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()

# BLAS/OpenMP threads are pinned before numpy loads.  One thread: the kernels
# here are small, and a second thread made operation times noisier.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5

# Spans, in the order they are reported.  ``ms_p50`` is published only for
# spans that run on every workload; elsewhere it would read 0 on the workloads
# that skip the span (the report line still carries it wherever it ran).
SPANS = [
    "op",
    "pccore.read_cloud",
    "pccore.write_cloud",
    "connectivity.bilateral_knn",
    "connectivity.invert_edges",
    "connectivity.self_knn",
    "gridify.gridify_features",
    "gridify.degridify_features",
    "gridnet.conv_grid_features",
    "gridnet.block_forward",
    "gridnet.classify_head",
    "gridnet.conv_point_native",
    "nn.positional_forward.gridnet",
    "nn.positional_forward.gridify",
    "autodiff.Tensor.backward",
    "optim.adamw_step",
    "optim.zero_grads",
    "checkpoint.save_checkpoint",
    "experiments.gen_shape_cloud",
    "experiments.gen_random_cloud",
]
SPANS_EVERYWHERE = ["op", "connectivity.bilateral_knn", "gridify.gridify_features",
                    "nn.positional_forward.gridify"]

END_TO_END = {"op_ms": "ms", "points_per_s": "points/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        if name in SPANS_EVERYWHERE:
            units[f"{name}.ms_p50"] = "ms"
        units[f"{name}.self_share"] = "fraction"
    units.update({
        "connectivity.edges": "count",
        "gridnet.conv_grid_features.peak_bytes": "B",
        "gridnet.conv_point_native.peak_bytes": "B",
        "gridnet.pos_evals_grid": "count",
        "gridnet.pos_evals_native": "count",
        "gridnet.materializations": "count",
        "nn.positional_forward.gridnet.rows": "count",
        "nn.positional_forward.gridify.rows": "count",
        "nn.positional_forward.gridnet.per_step": "count",
        "checkpoint.save_checkpoint.bytes": "B",
        "perfbench.trace_overhead_ms": "ms",
    })
    return units


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _tail(values: list[float], beyond: int = 10):
    """Highest nearest-rank percentile with at least ``beyond`` samples above it."""
    n = len(values)
    if n <= beyond:
        return None
    rank = n - beyond  # 1-based rank of the reported sample
    return {"value": sorted(values)[rank - 1], "percentile": 100.0 * rank / n, "n": n, "beyond": beyond}


def _import_package():
    if not (SRC / "gridifier" / "__init__.py").is_file():
        raise SystemExit(f"error: no gridifier package under {SRC}; run from a source checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import gridifier

    if Path(gridifier.__file__).resolve().parent != (SRC / "gridifier").resolve():
        raise SystemExit(f"error: imported gridifier from {gridifier.__file__}, not {SRC}")


def _environment(seed: int, workload: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def _run_op(wl, tracer, targets, index: int):
    """One operation; returns (result, seconds).  Tracing covers only the op."""
    if tracer is None:
        t0 = time.perf_counter()
        raw = wl.op()
        return raw, time.perf_counter() - t0
    tracer.op = index
    with tracer.installed(targets), tracer.span("op"):
        t0 = time.perf_counter()
        raw = wl.op(tracer)
        seconds = time.perf_counter() - t0
    return raw, seconds


def _workload_report(name: str, ops: list[dict], setup_s: float, rss_mb: float) -> dict:
    """The workload's own metrics, under their descriptive names."""
    out = {"setup_s": {"value": setup_s, "unit": "s"}, "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    if not ops:
        return out
    if name == "infer":
        clouds = [c for op in ops for c in op["raw"]["clouds"]]
        for path in ("grid", "native"):
            for size in ("small", "large"):
                times = [c[f"{path}_s"] * 1e3 for c in clouds if c["size"] == size]
                out[f"{path}_{size}_ms"] = {"value": _median(times), "unit": "ms", "n": len(times)}
        tail = _tail([c["grid_s"] * 1e3 for c in clouds])
        out["grid_ms_tail"] = dict(tail or {"value": None, "n": len(clouds)}, unit="ms")
        out["grid_points_per_s"] = {
            "value": sum(c["n"] for c in clouds) / sum(c["grid_s"] for c in clouds),
            "unit": "points/s",
        }
    else:
        prefix = "classify" if name == "train-classify" else "recon"
        out[f"{prefix}_clouds_per_s"] = {
            "value": _median([op["raw"]["n_clouds"] / op["seconds"] for op in ops]), "unit": "clouds/s",
        }
        result = ops[0]["raw"]["result"]
        if prefix == "classify":
            out["classify_val_accuracy"] = {"value": result, "unit": "fraction"}
        else:
            out["recon_val_mse"] = {"value": result[0], "unit": "MSE", "untrained": result[1]}
    return out


def _per_layer(tracer, traced_ops: list[dict], untraced_ops: list[dict]) -> tuple[dict, dict]:
    stats = tracer.stats()
    counts = tracer.counts
    n_ops = max(len(traced_ops), 1)
    values = {}
    for name in SPANS:
        s = stats.get(name, {"calls": 0.0, "ms_p50": 0.0, "self_share": 0.0})
        values[f"{name}.calls"] = s["calls"]
        values[f"{name}.ms_p50"] = s["ms_p50"]
        values[f"{name}.self_share"] = s["self_share"]
    knn_calls = stats.get("connectivity.bilateral_knn", {}).get("calls", 0.0) * n_ops
    values["connectivity.edges"] = (
        counts[("connectivity.bilateral_knn", "edges")] / knn_calls if knn_calls else 0.0
    )
    for name in ("gridnet.conv_grid_features", "gridnet.conv_point_native"):
        values[f"{name}.peak_bytes"] = tracer.peaks.get(name, 0)
    clouds = [c for op in traced_ops for c in op["raw"].get("clouds", ())]
    for key in ("pos_evals_grid", "pos_evals_native", "materializations"):
        values[f"gridnet.{key}"] = sum(c[key] for c in clouds) / n_ops
    for caller in ("gridnet", "gridify"):
        values[f"nn.positional_forward.{caller}.rows"] = (
            counts[(f"nn.positional_forward.{caller}", "rows")] / n_ops
        )
    steps = values["optim.adamw_step.calls"]
    values["nn.positional_forward.gridnet.per_step"] = (
        values["nn.positional_forward.gridnet.calls"] / steps if steps else 0.0
    )
    saves = values["checkpoint.save_checkpoint.calls"] * n_ops
    values["checkpoint.save_checkpoint.bytes"] = (
        counts[("checkpoint.save_checkpoint", "bytes")] / saves if saves else 0.0
    )
    traced_ms = _median([op["seconds"] for op in traced_ops]) * 1e3
    untraced_ms = _median([op["seconds"] for op in untraced_ops]) * 1e3
    values["perfbench.trace_overhead_ms"] = traced_ms - untraced_ms

    units = per_layer_units()
    published = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    detail = {
        "spans": {name: s for name, s in stats.items()},
        "missing_spans": tracer.missing,
        "traced_ops": len(traced_ops),
        "untraced_ops": len(untraced_ops),
        "traced_op_ms": traced_ms,
        "untraced_op_ms": untraced_ms,
    }
    return published, detail


def run(args) -> dict:
    _import_package()
    import_s = time.perf_counter() - START

    from tracing import Tracer
    from workloads import WORKLOADS, CheckFailed, trace_targets

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        tracer = Tracer() if args.trace else None
        targets = trace_targets()
        ops, attempted, failed = [], 0, 0
        loop_times: dict[bool, list[float]] = {False: [], True: []}
        min_ops = 2 if args.trace else 1
        begin = time.perf_counter()
        while True:
            # a traced run alternates traced and untraced operations, starting
            # traced, so both medians come from the same stretch of time
            traced = bool(args.trace) and attempted % 2 == 0
            t0 = time.perf_counter()
            attempted += 1
            try:
                raw, seconds = _run_op(wl, tracer if traced else None, targets, attempted)
                raw = wl.check(raw)
            except CheckFailed as exc:
                failed += 1
                print(f"operation {attempted} failed its check: {exc}", file=sys.stderr)
            except Exception:  # any error inside the package counts as a failed operation
                failed += 1
                print(f"operation {attempted} raised:", file=sys.stderr)
                traceback.print_exc()
            else:
                ops.append({"raw": raw, "seconds": seconds, "traced": traced})
            loop_times[traced].append(time.perf_counter() - t0)

            elapsed = time.perf_counter() - begin
            next_traced = bool(args.trace) and attempted % 2 == 0
            expected = _median(loop_times[next_traced] or loop_times[not next_traced])
            if attempted >= min_ops and elapsed + expected > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    report = {
        "env": _environment(args.seed, args.workload),
        "operations": {"attempted": attempted, "failed": failed, "untraced": len(untraced),
                       "traced": len(traced), "measured_s": time.perf_counter() - begin,
                       "untraced_op_s": [op["seconds"] for op in untraced],
                       "setup_rep_s": setup_times, "import_s": import_s},
        "metrics": _workload_report(args.workload, untraced, setup_s, rss_mb),
    }
    if args.trace:
        metrics, report["trace"] = _per_layer(tracer, traced, untraced)
    else:
        # means over the run, not medians: on a shared host the speed can
        # change from one operation to the next, and a mean averages over
        # those changes where a median of a few operations jumps between them
        op_s = [op["seconds"] for op in untraced]
        model_s = sum(op["raw"].get("model_s", op["seconds"]) for op in untraced)
        metrics = {
            "op_ms": statistics.fmean(op_s) * 1e3 if op_s else 0.0,
            "points_per_s": sum(op["raw"]["points"] for op in untraced) / model_s if op_s else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    print(json.dumps({"report": report}))
    return {
        "correct": failed == 0 and bool(ops),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["infer", "train-classify", "train-recon"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every committed ``BENCH_*.json`` holds the fields a before/after comparison
reads: the commit and host it was measured on, the last two stdout lines of
``perfbench/run.py`` untraced and traced for each workload, and the rows of
``gridifier bench``.  README's "Benchmark records" section has the commands.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("infer", "train-classify", "train-recon")
END_TO_END = ("op_ms", "points_per_s", "setup_s", "peak_rss_mb")
BENCH_COLUMNS = {"path", "N", "C", "k", "time_ms_median", "allocs_bytes", "pos_evals"}


def test_baseline_is_committed():
    assert (ROOT / "BENCH_baseline.json").is_file()


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_fields(path):
    record = json.loads(path.read_text())
    assert len(record["commit"]) == 40
    assert set(record["host"]) >= {"nproc", "cpu_model", "python", "numpy", "scipy"}

    workloads = record["perfbench"]["workloads"]
    assert set(workloads) == set(WORKLOADS)
    for name in WORKLOADS:
        for trace in ("trace0", "trace1"):
            report, result = workloads[name][trace]
            assert report["report"]["env"]["workload"] == name
            assert result["correct"] is True and result["failed"] == 0
        assert set(workloads[name]["trace0"][1]["metrics"]) == set(END_TO_END)
        assert "op.ms_p50" in workloads[name]["trace1"][1]["metrics"]

    rows = record["bench"]["rows"]
    assert {r["path"] for r in rows} == {"grid", "native"}
    for row in rows:
        assert set(row) == BENCH_COLUMNS

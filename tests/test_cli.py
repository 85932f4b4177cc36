"""Exercises the command-line layer: flag/file/env precedence, exit codes,
file round trips, and one tiny run of each training subcommand."""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import checkout_env

from gridifier.cli import _build_parser, _resolve, run
from gridifier.connectivity import bilateral_knn
from gridifier.gridify import gridify_features, init_gridifier
from gridifier.autodiff import Tensor
from gridifier.pccore import GridSpec, PointCloud, make_grid_coords, read_cloud, write_cloud


@pytest.fixture()
def cloud_file(tmp_path):
    rng = np.random.default_rng(42)
    path = tmp_path / "cloud.pcb"
    write_cloud(PointCloud(rng.uniform(-1, 1, (30, 3)), rng.uniform(-1, 1, (30, 1))), path)
    return str(path)


def gridify_args(cloud_file, tmp_path, *extra):
    out = str(tmp_path / "grid.pcb")
    return ["gridify", "--in", cloud_file, "--out", out,
            "--resolution", "3", "--k", "2", "--channels", "4", *extra], out


class TestGridifyCommand:
    def test_writes_grid_file(self, cloud_file, tmp_path, capsys):
        args, out = gridify_args(cloud_file, tmp_path)
        assert run(args) == 0
        grid = read_cloud(out)
        assert grid.n_points == 27
        assert grid.n_feats == 4
        assert "27 cells" in capsys.readouterr().out

    def test_matches_library_composition(self, cloud_file, tmp_path):
        args, out = gridify_args(cloud_file, tmp_path, "--seed", "7")
        assert run(args) == 0
        produced = read_cloud(out)

        cloud = read_cloud(cloud_file)
        spec = GridSpec(resolution=3, dim=3)
        grid_coords = make_grid_coords(spec)
        params = init_gridifier(1, 4, 4, 3, np.random.default_rng(7),
                                omega=0.1, aggregation="mean")
        edges = bilateral_knn(cloud.coords, grid_coords, 2)
        expected = gridify_features(Tensor(cloud.feats), cloud.coords, grid_coords, edges, params)
        # the pcb file stores float32, so compare at that precision
        np.testing.assert_allclose(produced.feats, expected.data, rtol=1e-6, atol=1e-7)

    def test_seeded_runs_reproduce_files(self, cloud_file, tmp_path):
        args1, out1 = gridify_args(cloud_file, tmp_path, "--seed", "3")
        run(args1)
        first = (tmp_path / "grid.pcb").read_bytes()
        run(args1)
        assert (tmp_path / "grid.pcb").read_bytes() == first

    def test_missing_input_flag(self, tmp_path, capsys):
        assert run(["gridify", "--out", str(tmp_path / "g.pcb")]) == 1
        assert "missing required --in" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        assert run(["gridify", "--in", str(tmp_path / "nope.pcb"),
                    "--out", str(tmp_path / "g.pcb")]) == 1

    def test_unknown_flag_exits_1(self, cloud_file, tmp_path, capsys):
        args, _ = gridify_args(cloud_file, tmp_path)
        assert run(args + ["--wat"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_invalid_value_exits_1(self, cloud_file, tmp_path):
        args, _ = gridify_args(cloud_file, tmp_path)
        args[args.index("--resolution") + 1] = "0"
        assert run(args) == 1

    def test_nan_feature_exits_1(self, tmp_path, capsys):
        src = tmp_path / "nan.csv"
        rows = [f"{x},{y},{z},{f}" for x, y, z, f in
                [(0, 0, 0, 1.0), (0.5, 0, 0, "nan"), (0, 0.5, 0, 2.0)]]
        src.write_text("D=3,F=1\n" + "\n".join(rows) + "\n")
        out = tmp_path / "grid.csv"
        assert run(["gridify", "--in", str(src), "--out", str(out),
                    "--resolution", "3", "--k", "2", "--channels", "2"]) == 1
        assert "features must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_strict_promotes_warnings(self, cloud_file, tmp_path, capsys):
        # 30 points cannot fit losslessly on a 2**3 grid
        args, _ = gridify_args(cloud_file, tmp_path)
        args[args.index("--resolution") + 1] = "2"
        assert run(args) == 0
        assert "warning: grid-capacity" in capsys.readouterr().err
        assert run(args + ["--strict"]) == 1
        err = capsys.readouterr().err
        assert "warning: grid-capacity" in err and "error:" in err

    def test_aggregation_help_lists_only_accepted_modes(self, capsys):
        assert run(["gridify", "--help"]) == 0
        assert "message aggregation: mean or max" in " ".join(capsys.readouterr().out.split())

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out or True


class TestDegridifyCommand:
    def test_round_trip_shapes(self, cloud_file, tmp_path, capsys):
        args, grid_out = gridify_args(cloud_file, tmp_path)
        assert run(args) == 0
        back = str(tmp_path / "back.pcb")
        # resolution is inferred from the 27-cell file
        assert run(["degridify", "--in", grid_out, "--cloud", cloud_file,
                    "--k", "2", "--channels", "4", "--out", back]) == 0
        restored = read_cloud(back)
        original = read_cloud(cloud_file)
        assert restored.n_feats == original.n_feats
        np.testing.assert_allclose(restored.coords, original.coords, atol=1e-7)
        assert "30 points" in capsys.readouterr().out

    def test_rejects_non_lattice_input(self, cloud_file, tmp_path, capsys):
        assert run(["degridify", "--in", cloud_file, "--cloud", cloud_file,
                    "--out", str(tmp_path / "x.pcb")]) == 1
        assert "lattice" in capsys.readouterr().err

    def test_resolution_override_must_match(self, cloud_file, tmp_path):
        args, grid_out = gridify_args(cloud_file, tmp_path)
        run(args)
        assert run(["degridify", "--in", grid_out, "--cloud", cloud_file,
                    "--resolution", "4", "--out", str(tmp_path / "x.pcb")]) == 1


class TestInspectCommand:
    def test_single_point_edge_list(self, tmp_path, capsys):
        path = tmp_path / "one.pcb"
        write_cloud(PointCloud(np.zeros((1, 3)), np.ones((1, 1))), path)
        assert run(["inspect", "--in", str(path), "--resolution", "1", "--k", "1",
                    "--edges"]) == 0
        assert capsys.readouterr().out == "0,0\n"

    def test_negative_header_count_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("D=3,F=-1\n0.5,0.25\n1.0,2.0\n")
        assert run(["inspect", "--in", str(path)]) == 1
        assert "line 1: negative count" in capsys.readouterr().err

    def test_summary_line(self, cloud_file, capsys):
        assert run(["inspect", "--in", cloud_file, "--resolution", "3", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "30 points" in out and "edges" in out

    def test_seed_not_accepted(self, cloud_file, tmp_path, capsys):
        # inspect draws no random numbers, so it takes no seed by any route
        assert run(["inspect", "--in", cloud_file, "--seed", "3"]) == 1
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=3\n")
        assert run(["inspect", "--in", cloud_file, "--config", str(cfg)]) == 1
        assert "unknown config key 'seed'" in capsys.readouterr().err

    def test_bad_env_seed_ignored(self, cloud_file, monkeypatch, capsys):
        monkeypatch.setenv("GRIDIFIER_SEED", "abc")
        assert run(["inspect", "--in", cloud_file, "--resolution", "3", "--k", "2"]) == 0
        assert "seed=" not in capsys.readouterr().err


class TestConfigPrecedence:
    def test_config_file_supplies_values(self, cloud_file, tmp_path, capsys):
        out = str(tmp_path / "g.pcb")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep settings\n"
            f"in = {cloud_file}\n"
            f"out = {out}\n"
            "grid_resolution = 3\n"
            "nr_neighbors = 2\n"
            "hidden_channels = 4\n"
        )
        assert run(["gridify", "--config", str(cfg)]) == 0
        assert read_cloud(out).n_points == 27
        assert "grid_resolution=3" in capsys.readouterr().err

    def test_flag_overrides_file(self, cloud_file, tmp_path):
        out = str(tmp_path / "g.pcb")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"in={cloud_file}\nout={out}\ngrid_resolution=3\n"
                       "nr_neighbors=2\nhidden_channels=4\n")
        assert run(["gridify", "--config", str(cfg), "--resolution", "2"]) == 0
        assert read_cloud(out).n_points == 8

    def test_unknown_config_key(self, cloud_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wat=1\n")
        assert run(["gridify", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid_resolution\n")
        assert run(["gridify", "--config", str(cfg)]) == 1
        assert "key=value" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert run(["gridify", "--config", str(tmp_path / "none.cfg")]) == 1

    def test_env_seed_fallback(self, cloud_file, tmp_path, monkeypatch):
        args, out = gridify_args(cloud_file, tmp_path)
        monkeypatch.setenv("GRIDIFIER_SEED", "5")
        run(args)
        env_bytes = (tmp_path / "grid.pcb").read_bytes()
        monkeypatch.delenv("GRIDIFIER_SEED")
        run(args + ["--seed", "5"])
        assert (tmp_path / "grid.pcb").read_bytes() == env_bytes

    def test_flag_seed_beats_env(self, cloud_file, tmp_path, monkeypatch):
        args, out = gridify_args(cloud_file, tmp_path)
        run(args + ["--seed", "2"])
        flag_bytes = (tmp_path / "grid.pcb").read_bytes()
        monkeypatch.setenv("GRIDIFIER_SEED", "1")
        run(args + ["--seed", "2"])
        assert (tmp_path / "grid.pcb").read_bytes() == flag_bytes

    def test_bad_env_seed(self, cloud_file, tmp_path, monkeypatch, capsys):
        args, _ = gridify_args(cloud_file, tmp_path)
        monkeypatch.setenv("GRIDIFIER_SEED", "many")
        assert run(args) == 1
        assert "GRIDIFIER_SEED" in capsys.readouterr().err


class TestTrainingCommands:
    def test_train_recon_tiny(self, tmp_path, capsys):
        csv_out = tmp_path / "recon.csv"
        code = run(["train-recon", "--n-train", "4", "--n-val", "2", "--n-points", "24",
                    "--resolution", "3", "--channels", "3", "--epochs", "2",
                    "--warmup", "1", "--k", "2", "--batch-size", "2",
                    "--out", str(csv_out)])
        assert code == 0
        assert "val_mse=" in capsys.readouterr().out
        header, row = csv_out.read_text().splitlines()[:2]
        assert header == "resolution,channels,seed,val_mse"
        assert np.isfinite(float(row.split(",")[-1]))

    def test_train_recon_divergence_exits_2(self, tmp_path):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["train-recon", "--n-train", "4", "--n-val", "2",
                        "--n-points", "24", "--resolution", "3", "--channels", "3",
                        "--epochs", "2", "--warmup", "1", "--k", "2", "--lr", "1e150"])
        assert code == 2

    def test_train_classify_tiny(self, tmp_path, capsys):
        csv_out = tmp_path / "cls.csv"
        code = run(["train-classify", "--n-train", "4", "--n-val", "2",
                    "--n-points", "30", "--resolution", "3", "--channels", "3",
                    "--kernel-size", "3", "--blocks", "1", "--k", "2",
                    "--epochs", "1", "--warmup", "0", "--out", str(csv_out)])
        assert code == 0
        assert "val_accuracy=" in capsys.readouterr().out
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "val_accuracy"
        assert 0.0 <= float(lines[1]) <= 1.0

    BAD_CONFIGS = [
        ("train-classify", ["--epochs", "5"], "warmup"),
        ("train-classify", ["--channels", "0"], "channels"),
        ("train-classify", ["--noise", "-1"], "noise"),
        ("train-classify", ["--noise", "inf"], "noise"),
        ("train-classify", ["--k", "0"], "k"),
        ("train-classify", ["--kernel-size", "4"], "kernel_size"),
        ("train-classify", ["--dropout", "1.5"], "dropout"),
        ("train-classify", ["--omega", "0"], "omega"),
        ("train-classify", ["--lr", "-1"], "lr"),
        ("train-classify", ["--lr", "nan"], "lr"),
        ("train-classify", ["--weight-decay", "-5"], "weight_decay"),
        # reported before k, which the zero-cell grid would otherwise fail
        ("train-classify", ["--resolution", "0"], "resolution"),
        ("train-recon", ["--k", "0"], "k"),
        ("train-recon", ["--omega", "0"], "omega"),
        ("train-recon", ["--lr", "-1"], "lr"),
        ("train-recon", ["--lr", "nan"], "lr"),
        ("train-recon", ["--weight-decay", "-5"], "weight_decay"),
        ("train-recon", ["--aggregation", "sum"], "aggregation"),
        ("train-recon", ["--n-train", "0"], "n_train"),
        ("train-recon", ["--n-val", "0"], "n_val"),
        ("train-classify", ["--n-train", "1"], "n_train"),
        ("train-classify", ["--n-val", "1"], "n_val"),
        # each setting of a sweep would overwrite the one checkpoint file
        ("train-recon", ["--resolution", "3,4", "--checkpoint", "x.ckpt"], "checkpoint"),
    ]

    @pytest.mark.parametrize(
        "task, flags, field", BAD_CONFIGS, ids=[f"{t}-{f}" for t, _, f in BAD_CONFIGS]
    )
    def test_bad_config_exits_1_before_data(
        self, task, flags, field, tmp_path, monkeypatch, capsys
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("clouds generated before the config was validated")

        monkeypatch.setattr("gridifier.experiments.gen_shape_cloud", no_data)
        monkeypatch.setattr("gridifier.experiments.gen_random_cloud", no_data)
        monkeypatch.chdir(tmp_path)
        assert run([task, *flags]) == 1
        # the config echo on stderr names every field, so look at the error line only
        (error,) = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert field in error
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("task", ["train-recon", "train-classify", "bench"])
    def test_strict_not_accepted_where_unused(self, task, capsys):
        # the bad seed stops the run early should the flag ever be accepted again
        assert run([task, "--strict", "--seed", "none"]) == 1
        assert "unrecognized arguments: --strict" in capsys.readouterr().err

    def test_bench_channels_default_is_16(self):
        # 128 channels would make the per-edge baseline render a
        # (N*k, 128*128) kernel tensor: 9.4 GB at N=8000, k=9
        eff = _resolve("bench", _build_parser().parse_args(["bench"]))
        assert eff["hidden_channels"] == (16,)

    def test_bench_tiny(self, tmp_path, capsys):
        csv_out = tmp_path / "bench.csv"
        code = run(["bench", "--sizes", "16,32", "--channels", "2", "--k", "2",
                    "--resolution", "3", "--kernel-size", "3", "--blocks", "1",
                    "--repetitions", "5", "--out", str(csv_out)])
        assert code == 0
        assert "slope" in capsys.readouterr().out
        assert csv_out.read_text().splitlines()[0] == \
            "path,N,C,k,time_ms_median,allocs_bytes,pos_evals"


SEEDED = ["gridify", "degridify", "train-recon", "train-classify", "bench"]
# (task, flags, config file lines, GRIDIFIER_SEED, word the error names)
BAD_VALUES = [
    *[(task, ["--channels", "0"], [], None, "channels")
      for task in ("gridify", "degridify", "bench")],
    *[(task, ["--omega", value], [], None, "omega")
      for task in ("gridify", "degridify", "bench") for value in ("nan", "inf")],
    *[(task, ["--resolution", "0"], [], None, "resolution")
      for task in ("gridify", "degridify", "train-classify", "bench", "inspect")],
    *[("train-recon", ["--resolution", value], [], None, "resolution") for value in ("0", "4,0")],
    ("degridify", [], ["grid_resolution=-2"], None, "resolution"),
    *[(task, ["--k", "0"], [], None, "nr_neighbors (--k)")
      for task in ("gridify", "degridify", "train-recon", "train-classify", "bench", "inspect")],
    ("inspect", [], ["nr_neighbors=-1"], None, "nr_neighbors (--k)"),
    ("bench", ["--sizes", "0,10"], [], None, "sizes (--sizes)"),
    ("bench", ["--sizes", "5", "--k", "9"], [], None, "nr_neighbors (--k)"),
    ("bench", ["--resolution", "1"], [], None, "nr_neighbors (--k)"),
    *[(task, ["--blocks", value], [], None, "nr_conv_blocks (--blocks)")
      for task in ("train-classify", "bench") for value in ("0", "-1")],
    *[(task, ["--seed", "-1"], [], None, "seed") for task in SEEDED],
    *[(task, [], ["seed=-1"], None, "seed") for task in SEEDED],
    *[(task, [], [], "-3", "GRIDIFIER_SEED") for task in SEEDED],
]


@pytest.mark.parametrize(
    "task, flags, lines, env_seed, field", BAD_VALUES,
    ids=[f"{t}-{' '.join(f) or (c[0] if c else 'env')}" for t, f, c, _, _ in BAD_VALUES],
)
def test_bad_value_exits_1_before_input(
    task, flags, lines, env_seed, field, cloud_file, tmp_path, monkeypatch, capsys
):
    def no_input(*args, **kwargs):
        raise AssertionError("input read before the values were validated")

    for name in ("gridifier.cli.read_cloud", "gridifier.experiments.gen_shape_cloud",
                 "gridifier.experiments.gen_random_cloud"):
        monkeypatch.setattr(name, no_input)
    if env_seed is None:
        monkeypatch.delenv("GRIDIFIER_SEED", raising=False)
    else:
        monkeypatch.setenv("GRIDIFIER_SEED", env_seed)
    files = {
        "gridify": ["--in", cloud_file, "--out", str(tmp_path / "g.pcb")],
        "degridify": ["--in", cloud_file, "--cloud", cloud_file, "--out", str(tmp_path / "c.pcb")],
    }.get(task, [])
    if lines:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        files += ["--config", str(cfg)]
    assert run([task, *files, *flags]) == 1
    (error,) = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert field in error


# (task, output flag); every other required flag is given, so only the path can fail
OUTPUT_FLAGS = [
    ("gridify", "--out"),
    ("train-recon", "--out"),
    ("train-recon", "--checkpoint"),
    ("train-classify", "--out"),
    ("train-classify", "--checkpoint"),
    ("bench", "--out"),
]


@pytest.mark.parametrize("bad", ["missing_dir", "directory"])
@pytest.mark.parametrize("task, flag", OUTPUT_FLAGS, ids=[f"{t}{f}" for t, f in OUTPUT_FLAGS])
def test_bad_output_path_exits_1_before_work(
    task, flag, bad, cloud_file, tmp_path, monkeypatch, capsys
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    for name in ("read_cloud", "train_classify_synth", "train_reconstruction", "bench_scaling"):
        monkeypatch.setattr(f"gridifier.cli.{name}", no_work)
    path = tmp_path / "nonexistent" / "x.out" if bad == "missing_dir" else tmp_path
    files = ["--in", cloud_file] if task == "gridify" else []
    assert run([task, *files, flag, str(path)]) == 1
    (error,) = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert flag in error


def test_directory_as_input_exits_1(tmp_path):
    # a directory, or a path below a file, is a malformed input, not a mid-run failure
    (tmp_path / "d.pcb").mkdir()
    (tmp_path / "f").write_text("")
    for path in (tmp_path / "d.pcb", tmp_path / "f" / "c.pcb"):
        assert run(["inspect", "--in", str(path)]) == 1
    for path in (tmp_path, tmp_path / "f" / "run.cfg"):
        assert run(["inspect", "--config", str(path)]) == 1


def test_non_utf8_input_exits_1_naming_the_file(tmp_path, capsys):
    # byte 0xff starts no UTF-8 sequence; it sits on line 3 of the cloud
    cloud = tmp_path / "bad.csv"
    cloud.write_bytes(b"D=3,F=1\n0,0,0,1\n0,0,\xff,1\n")
    config = tmp_path / "run.cfg"
    config.write_bytes(b"nr_neighbors=2\n# \xff\n")
    cases = ((["--in", str(cloud)], f"{cloud}: line 3"), (["--config", str(config)], str(config)))
    for args, where in cases:
        assert run(["inspect", *args]) == 1
        (error,) = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert where in error and "UTF-8" in error


def test_module_is_runnable():
    proc = subprocess.run([sys.executable, "-m", "gridifier.cli", "--help"],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0
    assert "gridify" in proc.stdout


def test_console_script_entry_point_runs(monkeypatch, capsys):
    # the [project.scripts] entry an install turns into the `gridifier` command
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["gridifier"]
    module, attr = target.split(":")
    main = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["gridifier", "--help"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert "train-classify" in capsys.readouterr().out


def test_suite_tests_the_checkout_source():
    # pyproject puts src/ on pytest's path, so `python -m pytest` from a
    # checkout tests this tree without an editable install
    import gridifier

    src = Path(__file__).resolve().parents[1] / "src"
    assert Path(gridifier.__file__).resolve().is_relative_to(src)

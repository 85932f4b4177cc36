"""Tiny-scale checks for the data generators, training loops, and benchmark.

Every training run here is deliberately small (a handful of clouds, a few
epochs) so the whole module stays fast; the full-scale claims live in
test_acceptance.py.
"""

import csv
import math

import numpy as np
import pytest

from gridifier import autodiff as ad
from gridifier import experiments, gridnet
from gridifier.checkpoint import load_checkpoint
from gridifier.connectivity import bilateral_knn
from gridifier.errors import ConfigError, TrainingError
from gridifier.experiments import (
    ClassifyConfig,
    ReconConfig,
    _ClassifyModel,
    _classify_logits,
    _median_seconds,
    bench_scaling,
    gen_random_cloud,
    gen_shape_cloud,
    train_classify_synth,
    train_reconstruction,
)
from gridifier.gridify import init_gridifier
from gridifier.gridnet import init_affine_head, init_conv_block
from gridifier.pccore import GridSpec, make_grid_coords


# --------------------------------------------------------------------------
# data generators


class TestDataGen:
    def test_random_cloud_shapes_and_bounds(self):
        cloud = gen_random_cloud(1000, seed=3)
        assert cloud.coords.shape == (1000, 3)
        assert cloud.feats.shape == (1000, 1)
        assert np.all(np.abs(cloud.coords) <= 1.0)
        assert np.all(np.abs(cloud.feats) <= 1.0)

    def test_random_cloud_seeded(self):
        a = gen_random_cloud(64, seed=11)
        b = gen_random_cloud(64, seed=11)
        c = gen_random_cloud(64, seed=12)
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.feats, b.feats)
        assert not np.array_equal(a.coords, c.coords)

    def test_random_cloud_is_centered(self):
        cloud = gen_random_cloud(100_000, seed=0)
        # mean of U(-1,1) is 0 with sem ~ 0.0018 at this sample size
        assert np.all(np.abs(cloud.coords.mean(axis=0)) < 0.02)

    def test_random_cloud_rejects_empty(self):
        with pytest.raises(ConfigError):
            gen_random_cloud(0, seed=0)

    def test_sphere_points_sit_on_sphere(self):
        cloud = gen_shape_cloud(500, "sphere", seed=5, noise=0.0)
        radii = np.linalg.norm(cloud.coords, axis=1)
        np.testing.assert_allclose(radii, 0.7, atol=1e-9)

    def test_cube_points_sit_on_faces(self):
        cloud = gen_shape_cloud(500, "cube", seed=5, noise=0.0)
        # every point has one coordinate pinned to a face and none outside it
        far = np.max(np.abs(cloud.coords), axis=1)
        np.testing.assert_allclose(far, 0.7, atol=1e-12)

    def test_shape_cloud_seeded(self):
        a = gen_shape_cloud(64, "cube", seed=7)
        b = gen_shape_cloud(64, "cube", seed=7)
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.feats, b.feats)

    def test_shape_cloud_rejects_unknown_shape(self):
        with pytest.raises(ConfigError, match="shape"):
            gen_shape_cloud(10, "torus", seed=0)

    def test_shapes_actually_differ(self):
        sphere = gen_shape_cloud(400, "sphere", seed=2, noise=0.0)
        cube = gen_shape_cloud(400, "cube", seed=2, noise=0.0)
        # corner points reach sqrt(3)*0.7 on the cube but never on the sphere
        assert np.max(np.linalg.norm(cube.coords, axis=1)) > 0.8
        assert np.max(np.linalg.norm(sphere.coords, axis=1)) < 0.71


# --------------------------------------------------------------------------
# reconstruction study

TINY_RECON = dict(
    n_train=6,
    n_val=3,
    n_points=32,
    resolutions=(3,),
    channels=(4,),
    epochs=5,
    k=2,
    warmup=1,
    batch_size=2,
    seed=0,
)


class TestReconConfig:
    def test_rejects_degenerate_resolution(self):
        with pytest.raises(ConfigError, match="resolutions"):
            ReconConfig(**{**TINY_RECON, "resolutions": (1,)})

    def test_rejects_empty_channels(self):
        with pytest.raises(ConfigError):
            ReconConfig(**{**TINY_RECON, "channels": ()})

    def test_rejects_empty_splits(self):
        with pytest.raises(ConfigError):
            ReconConfig(**{**TINY_RECON, "n_val": 0})

    def test_rejects_zero_epochs(self):
        with pytest.raises(ConfigError):
            ReconConfig(**{**TINY_RECON, "epochs": 0})

    def test_rejects_warmup_not_below_epochs(self):
        with pytest.raises(ConfigError, match="warmup"):
            ReconConfig(**{**TINY_RECON, "epochs": 3, "warmup": 3})

    def test_rejects_k_above_smallest_grid(self):
        # the resolution-2 lattice has 8 cells, fewer than k
        with pytest.raises(ConfigError, match="grid cells=8"):
            ReconConfig(**{**TINY_RECON, "resolutions": (2, 3), "k": 9})

    def test_rejects_k_above_n_points(self):
        with pytest.raises(ConfigError, match="n_points"):
            ReconConfig(**{**TINY_RECON, "n_points": 3, "k": 4})

    @pytest.mark.parametrize("omega", [np.inf, np.nan])
    def test_rejects_non_finite_omega(self, omega):
        with pytest.raises(ConfigError, match="omega must be finite"):
            ReconConfig(**{**TINY_RECON, "omega": omega})

    def test_rejects_one_checkpoint_for_a_sweep(self):
        # every setting would overwrite the same file, keeping only the last
        with pytest.raises(ConfigError, match="checkpoint"):
            ReconConfig(**{**TINY_RECON, "channels": (2, 4), "checkpoint_path": "x.ckpt"})


class TestReconTraining:
    def test_training_reduces_validation_mse(self):
        rows = train_reconstruction(ReconConfig(**TINY_RECON))
        assert len(rows) == 1
        row = rows[0]
        assert row.resolution == 3 and row.channels == 4 and row.seed == 0
        assert row.val_mse < row.untrained_val_mse

    def test_runs_are_deterministic(self):
        a = train_reconstruction(ReconConfig(**TINY_RECON))
        b = train_reconstruction(ReconConfig(**TINY_RECON))
        assert a[0].val_mse == b[0].val_mse
        assert a[0].untrained_val_mse == b[0].untrained_val_mse

    def test_sweep_order_is_resolution_major(self):
        cfg = ReconConfig(**{**TINY_RECON, "resolutions": (3, 4), "channels": (2, 4), "epochs": 1, "warmup": 0})
        rows = train_reconstruction(cfg)
        assert [(r.resolution, r.channels) for r in rows] == [(3, 2), (3, 4), (4, 2), (4, 4)]

    def test_csv_output(self, tmp_path):
        out = tmp_path / "recon.csv"
        rows = train_reconstruction(ReconConfig(**{**TINY_RECON, "epochs": 1, "warmup": 0}), out_csv=str(out))
        with open(out, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["resolution", "channels", "seed", "val_mse"]
        assert len(parsed) == 1 + len(rows)
        assert parsed[1][:3] == ["3", "4", "0"]
        assert float(parsed[1][3]) == pytest.approx(rows[0].val_mse, rel=1e-9)

    def test_divergence_raises_with_epoch(self):
        cfg = ReconConfig(**{**TINY_RECON, "lr": 1e150, "epochs": 2})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="epoch"):
                train_reconstruction(cfg)

    @pytest.mark.parametrize("field", ["omega", "noise"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_omega_and_noise(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            ClassifyConfig(**{**TINY_CLASSIFY, field: value})

    def test_checkpoint_written(self, tmp_path):
        path = tmp_path / "recon.ckpt"
        train_reconstruction(ReconConfig(**{**TINY_RECON, "epochs": 1, "warmup": 0, "checkpoint_path": str(path)}))
        params, state = load_checkpoint(path)
        assert any(name.startswith("enc.") for name in params)
        assert any(name.startswith("dec.") for name in params)
        assert state is not None and state.step > 0


# --------------------------------------------------------------------------
# classification study

TINY_CLASSIFY = dict(
    n_train=6,
    n_val=4,
    n_points=40,
    resolution=4,
    channels=4,
    kernel_size=3,
    n_blocks=1,
    k=2,
    epochs=2,
    warmup=1,
    seed=0,
)


class TestClassify:
    def test_accuracy_is_a_valid_fraction(self):
        acc = train_classify_synth(ClassifyConfig(**TINY_CLASSIFY))
        assert 0.0 <= acc <= 1.0
        assert acc * TINY_CLASSIFY["n_val"] == pytest.approx(round(acc * TINY_CLASSIFY["n_val"]))

    def test_runs_are_deterministic(self):
        a = train_classify_synth(ClassifyConfig(**TINY_CLASSIFY))
        b = train_classify_synth(ClassifyConfig(**TINY_CLASSIFY))
        assert a == b

    def test_shuffled_labels_still_run(self):
        acc = train_classify_synth(ClassifyConfig(**{**TINY_CLASSIFY, "shuffle_labels": True}))
        assert 0.0 <= acc <= 1.0

    def test_dropout_path_runs(self):
        acc = train_classify_synth(ClassifyConfig(**{**TINY_CLASSIFY, "dropout": 0.2}))
        assert 0.0 <= acc <= 1.0

    def test_rejects_single_cloud_split(self):
        with pytest.raises(ConfigError):
            ClassifyConfig(**{**TINY_CLASSIFY, "n_train": 1})

    def test_rejects_zero_blocks(self):
        with pytest.raises(ConfigError):
            ClassifyConfig(**{**TINY_CLASSIFY, "n_blocks": 0})

    def test_rejects_warmup_not_below_epochs(self):
        with pytest.raises(ConfigError, match="warmup"):
            ClassifyConfig(**{**TINY_CLASSIFY, "epochs": 2, "warmup": 5})

    def test_rejects_k_above_grid_cells(self):
        with pytest.raises(ConfigError, match="grid cells=8"):
            ClassifyConfig(**{**TINY_CLASSIFY, "resolution": 2, "k": 9})

    def test_rejects_k_above_n_points(self):
        with pytest.raises(ConfigError, match="n_points"):
            ClassifyConfig(**{**TINY_CLASSIFY, "n_points": 5, "k": 6})

    @pytest.mark.parametrize("field", ["omega", "noise"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_omega_and_noise(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            ClassifyConfig(**{**TINY_CLASSIFY, field: value})

    def test_checkpoint_written(self, tmp_path):
        path = tmp_path / "cls.ckpt"
        train_classify_synth(ClassifyConfig(**{**TINY_CLASSIFY, "checkpoint_path": str(path)}))
        params, state = load_checkpoint(path)
        assert any(name.startswith("blocks.0.") for name in params)
        assert any(name.startswith("head.") for name in params)
        assert state is not None

    def test_divergence_raises_with_epoch(self):
        cfg = ClassifyConfig(**{**TINY_CLASSIFY, "lr": 1e150})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="epoch"):
                train_classify_synth(cfg)


def test_classify_forward_renders_each_kernel_once_per_block(monkeypatch):
    # no kernel is shared between blocks, so one forward pass pushes exactly
    # K^D offsets per block through the kernel nets
    rows = []
    render = gridnet.positional_forward

    def counting(net, rel):
        rows.append(rel.shape[0])
        return render(net, rel)

    monkeypatch.setattr(gridnet, "positional_forward", counting)
    rng = np.random.default_rng(0)
    spec = GridSpec(resolution=4, dim=3)
    grid_coords = make_grid_coords(spec)
    blocks = [init_conv_block(3, 3, 3, rng) for _ in range(2)]
    model = _ClassifyModel(
        spec, grid_coords, init_gridifier(1, 3, 3, 3, rng), blocks, init_affine_head(3, 2, rng)
    )
    cloud = gen_shape_cloud(40, "sphere", seed=1)
    logits = _classify_logits(model, cloud, bilateral_knn(cloud.coords, grid_coords, 3))
    assert logits.shape == (1, 2)
    assert rows == [3**3] * len(blocks)


def test_classify_loss_tape_records_five_nodes_per_block():
    # at the train-classify shape, gridify tapes 7 nodes, each block 5 (norm,
    # kernel render, correlation, GELU, residual sum), the head 2 (mean pool,
    # affine) and the loss 1
    rng = np.random.default_rng(0)
    spec = GridSpec(resolution=5, dim=3)
    grid_coords = make_grid_coords(spec)
    blocks = [init_conv_block(8, 3, 3, rng) for _ in range(3)]
    model = _ClassifyModel(
        spec, grid_coords, init_gridifier(1, 8, 8, 3, rng), blocks, init_affine_head(8, 2, rng)
    )
    cloud = gen_shape_cloud(100, "sphere", seed=1)
    logits = _classify_logits(model, cloud, bilateral_knn(cloud.coords, grid_coords, 3))
    stack, seen = [ad.softmax_cross_entropy(logits, np.array([0]))], {}
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    assert sum(node._backward is not None for node in seen.values()) == 7 + 3 * 5 + 2 + 1


@pytest.mark.parametrize("study", ["recon", "classify"])
def test_fit_steps_once_per_batch_including_the_partial_last(study, tmp_path):
    path = tmp_path / "fit.ckpt"
    shared = dict(n_train=5, batch_size=2, epochs=2, warmup=1, checkpoint_path=str(path))
    if study == "recon":
        train_reconstruction(ReconConfig(**{**TINY_RECON, **shared}))
    else:
        train_classify_synth(ClassifyConfig(**{**TINY_CLASSIFY, **shared}))
    _, state = load_checkpoint(path)
    assert state.step == shared["epochs"] * math.ceil(shared["n_train"] / shared["batch_size"])


# --------------------------------------------------------------------------
# scaling benchmark


@pytest.fixture(scope="module")
def tiny_report():
    return bench_scaling(
        n_list=(20, 40),
        c_list=(2,),
        k=2,
        repetitions=5,
        resolution=3,
        kernel_size=3,
        n_layers=2,
    )


class TestBench:
    def test_row_grid(self, tiny_report):
        assert len(tiny_report.rows) == 4
        assert [(r.path, r.n_points) for r in tiny_report.rows] == [
            ("grid", 20), ("native", 20), ("grid", 40), ("native", 40),
        ]

    def test_grid_eval_count_ignores_cloud_size(self, tiny_report):
        # K^D per layer at every size: each of the two layers renders its own
        # kernel once, with no kernel shared between them
        grid_rows = [r for r in tiny_report.rows if r.path == "grid"]
        assert [r.pos_evals for r in grid_rows] == [3**3, 3**3]

    def test_native_eval_count_tracks_edges(self, tiny_report):
        native_rows = [r for r in tiny_report.rows if r.path == "native"]
        assert [r.pos_evals for r in native_rows] == [20 * 2, 40 * 2]

    def test_rows_carry_measurements(self, tiny_report):
        for row in tiny_report.rows:
            assert row.time_ms_median > 0
            assert row.allocs_bytes > 0
            assert row.k == 2 and row.channels == 2

    def test_slope_fits(self, tiny_report):
        s = tiny_report.slope("native", 2)
        assert np.isfinite(s)
        with pytest.raises(ConfigError):
            tiny_report.slope("grid", 99)

    def test_csv_schema(self, tiny_report, tmp_path):
        out = tmp_path / "bench.csv"
        tiny_report.to_csv(str(out))
        with open(out, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["path", "N", "C", "k", "time_ms_median", "allocs_bytes", "pos_evals"]
        assert len(parsed) == 1 + len(tiny_report.rows)
        assert parsed[1][0] == "grid" and parsed[1][1] == "20"

    def test_rejects_few_repetitions(self):
        with pytest.raises(ConfigError, match="repetitions"):
            bench_scaling(n_list=(20, 40), c_list=(2,), repetitions=3)

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ConfigError, match="increasing"):
            bench_scaling(n_list=(40, 20), c_list=(2,))

    @pytest.mark.parametrize("n_layers", [0, -1])
    def test_rejects_no_layers_before_any_cloud(self, n_layers, monkeypatch):
        def no_cloud(*args, **kwargs):
            raise AssertionError("a cloud was generated before n_layers was checked")

        monkeypatch.setattr("gridifier.experiments.gen_random_cloud", no_cloud)
        with pytest.raises(ConfigError, match="n_layers"):
            bench_scaling(n_list=(20, 40), c_list=(2,), n_layers=n_layers)

    def test_timer_warms_up_three_calls_then_times_each(self):
        calls = []
        (med,) = _median_seconds([lambda: calls.append(None)], repetitions=5)
        assert len(calls) == 3 + 5
        assert med >= 0

    def test_paths_alternate_which_is_timed_first(self, monkeypatch):
        # each grid call runs gridify_features once, each per-edge call
        # self_knn once: three untimed calls of each path, then per
        # repetition one timed call of each, grid first on even repetitions
        # and per-edge first on odd ones, then each path's one counted and
        # traced pass
        calls = []
        for name, tag in (("gridify_features", "g"), ("self_knn", "n")):
            original = getattr(experiments, name)

            def recording(*args, _original=original, _tag=tag, **kwargs):
                calls.append(_tag)
                return _original(*args, **kwargs)

            monkeypatch.setattr(experiments, name, recording)
        bench_scaling(n_list=(20,), c_list=(2,), k=2, repetitions=5, resolution=3,
                      kernel_size=3, n_layers=1)
        timed = "".join(("gn", "ng", "gn", "ng", "gn"))
        assert "".join(calls) == "gn" * 3 + timed + "g" + "n"

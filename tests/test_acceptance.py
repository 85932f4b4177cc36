"""The package's headline guarantees, one test per numbered claim.

Each test pins its tolerance and, where the claim carries a budget, asserts
wall-clock time.  Claims 5, 6, and 9 train or benchmark at full scale and
take minutes; everything else finishes in seconds.  Claims 3, 5, 6, 8 and 9
train or time a run and carry the ``slow`` marker, so ``-m "not slow"``
keeps the quick exactness claims 1, 2, 4 and 7.  Claim 1's per-node upper
degree bound gets a strict xfail companion instead of an assertion: no such
bound exists (every cloud point whose nearest cell is the same grid node
donates an edge to it), so the passing test pins the bounds that do hold.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import naive_mlp, naive_pos

from gridifier import autodiff as ad
from gridifier.autodiff import Tensor
from gridifier.checkpoint import load_checkpoint, save_checkpoint
from gridifier.connectivity import bilateral_knn, invert_edges, knn_brute
from gridifier.experiments import (
    ClassifyConfig,
    ReconConfig,
    bench_scaling,
    train_classify_synth,
    train_reconstruction,
)
from gridifier.gridify import (
    check_requirements,
    degridify_features,
    gridify_features,
    init_gridifier,
)
from gridifier.nn import init_mlp
from gridifier.pccore import GridSpec, PointCloud, make_grid_coords, read_cloud, write_cloud


# --------------------------------------------------------------------------
# 1. bilateral connectivity: exact union, no node below k neighbors


def two_pass_union(cloud: np.ndarray, grid: np.ndarray, k: int) -> set[tuple[int, int]]:
    """Independent oracle: both k-NN passes joined as a Python set of pairs."""
    pairs = set()
    for i, row in enumerate(knn_brute(grid, cloud, k)):
        for j in row:
            pairs.add((int(j), int(i)))
    for j, row in enumerate(knn_brute(cloud, grid, k)):
        for i in row:
            pairs.add((int(j), int(i)))
    return pairs


def connectivity_instances():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(50, 2001))
        r = int(rng.integers(3, 11))
        k = int(rng.integers(1, 10))
        yield rng.uniform(-1.0, 1.0, (n, 3)), make_grid_coords(GridSpec(r, dim=3)), k


def test_criterion_1_bilateral_connectivity_exact_and_nowhere_sparse():
    start = time.perf_counter()
    for cloud, grid, k in connectivity_instances():
        edges = bilateral_knn(cloud, grid, k)
        expected = two_pass_union(cloud, grid, k)
        assert set(zip(edges.src.tolist(), edges.dst.tolist())) == expected
        assert edges.src.size == len(expected)  # union holds no duplicates
        assert edges.out_degrees().min() >= k   # every cloud point keeps its k picks
        assert edges.in_degrees().min() >= k    # every grid node keeps its k picks
        assert edges.src.size <= k * (cloud.shape[0] + grid.shape[0])
    assert time.perf_counter() - start < 30.0


@pytest.mark.xfail(
    strict=True,
    reason="a per-node 2k degree cap cannot hold: when the cloud outnumbers the "
    "grid, some grid node is the nearest of far more than k cloud points and "
    "keeps every one of those union edges",
)
def test_criterion_1_companion_no_per_node_degree_cap():
    for cloud, grid, k in connectivity_instances():
        edges = bilateral_knn(cloud, grid, k)
        assert edges.out_degrees().max() <= 2 * k
        assert edges.in_degrees().max() <= 2 * k


# --------------------------------------------------------------------------
# 2. message passing equals naive double loops


def naive_message_pass(src_coords, src_feats, dst_coords, pairs, params, n_dst):
    """Per-edge loops and per-destination buckets; no vectorized shortcuts."""
    buckets = {i: [] for i in range(n_dst)}
    for j, i in pairs:
        node = naive_mlp(params.phi_node, src_feats[j])
        pos = naive_pos(params.phi_pos, dst_coords[i] - src_coords[j])
        buckets[i].append(naive_mlp(params.phi_msg, np.concatenate([node, pos])))
    out = np.zeros((n_dst, params.phi_upd.out_width))
    for i, msgs in buckets.items():
        stack = np.stack(msgs)
        agg = stack.mean(axis=0) if params.aggregation == "mean" else stack.max(axis=0)
        out[i] = naive_mlp(params.phi_upd, agg)
    return out


def test_criterion_2_gridify_and_degridify_match_naive_evaluation():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for trial in range(20):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(3, 13))
        r = int(rng.integers(2, 4))
        spec = GridSpec(resolution=r, dim=dim)
        k = int(rng.integers(1, 1 + min(3, n, spec.n_points)))
        agg = ("mean", "max")[trial % 2]
        coords = rng.uniform(-1.0, 1.0, (n, dim))
        feats = rng.normal(size=(n, int(rng.integers(1, 4))))
        grid = make_grid_coords(spec)
        edges = bilateral_knn(coords, grid, k)

        enc = init_gridifier(feats.shape[1], 3, 4, dim, rng, omega=0.7, aggregation=agg)
        got = gridify_features(Tensor(feats), coords, grid, edges, enc).data
        want = naive_message_pass(
            coords, feats, grid, zip(edges.src, edges.dst), enc, spec.n_points
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

        dec = init_gridifier(3, 2, 4, dim, rng, omega=0.7, aggregation=agg)
        inv = invert_edges(edges)
        back = degridify_features(Tensor(got), grid, coords, inv, dec).data
        want_back = naive_message_pass(grid, got, coords, zip(inv.src, inv.dst), dec, n)
        np.testing.assert_allclose(back, want_back, rtol=1e-12, atol=1e-12)
    assert time.perf_counter() - start < 10.0


# --------------------------------------------------------------------------
# 3. end-to-end gradients against central finite differences


@pytest.mark.slow
def test_criterion_3_pipeline_gradients_match_finite_differences():
    start = time.perf_counter()
    step = 1e-5
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        dim = (seed % 3) + 1
        agg = ("mean", "max")[seed % 2]
        n, f_in = 5, 2
        coords = rng.uniform(-1.0, 1.0, (n, dim))
        feats = Tensor(rng.normal(size=(n, f_in)))
        target = rng.normal(size=(n, f_in))
        grid = make_grid_coords(GridSpec(resolution=2, dim=dim))
        edges = bilateral_knn(coords, grid, 2)
        inv = invert_edges(edges)
        enc = init_gridifier(f_in, 3, 3, dim, rng, omega=0.6, aggregation=agg)
        dec = init_gridifier(3, f_in, 3, dim, rng, omega=0.6, aggregation=agg)

        tensors = {"feats": feats}
        tensors.update(enc.named_parameters("enc."))
        tensors.update(dec.named_parameters("dec."))

        def forward() -> Tensor:
            h = gridify_features(feats, coords, grid, edges, enc)
            back = degridify_features(h, grid, coords, inv, dec)
            return ad.mse(back, Tensor(target))

        loss = forward()
        loss.backward()
        for name, p in tensors.items():
            analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
            numeric = np.zeros_like(p.data)
            flat = p.data.ravel()
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + step
                hi = forward().item()
                flat[idx] = keep - step
                lo = forward().item()
                flat[idx] = keep
                numeric.ravel()[idx] = (hi - lo) / (2.0 * step)
            denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
            rel = np.abs(analytic - numeric) / denom
            assert rel.max() < 1e-4, f"seed {seed}, {name}: max rel err {rel.max():.3g}"
    assert time.perf_counter() - start < 60.0


# --------------------------------------------------------------------------
# 4. permutation and translation invariance, bit for bit


def test_criterion_4_permutation_and_translation_leave_output_bits_unchanged():
    rng = np.random.default_rng(404)
    for trial in range(20):
        dim = (trial % 3) + 1
        r = (2, 3, 5)[trial % 3]
        n = int(rng.integers(4, 41))
        grid = make_grid_coords(GridSpec(resolution=r, dim=dim))
        k = int(rng.integers(1, 1 + min(3, n, grid.shape[0])))
        agg = ("mean", "max")[trial % 2]
        feats = rng.normal(size=(n, 2))
        params = init_gridifier(2, 3, 4, dim, rng, omega=0.9, aggregation=agg)

        # permutation: continuous coordinates, so neighbor ties cannot occur
        coords = rng.uniform(-1.0, 1.0, (n, dim))
        edges = bilateral_knn(coords, grid, k)
        base = gridify_features(Tensor(feats), coords, grid, edges, params).data
        perm = rng.permutation(n)
        p_edges = bilateral_knn(coords[perm], grid, k)
        permuted = gridify_features(
            Tensor(feats[perm]), coords[perm], grid, p_edges, params
        ).data
        np.testing.assert_array_equal(permuted, base)

        # translation: dyadic coordinates, shifts, and lattice spacings make
        # every coordinate sum exact, so no bit may move
        dyadic = rng.integers(-64, 65, (n, dim)) / 64.0
        d_edges = bilateral_knn(dyadic, grid, k)
        d_base = gridify_features(Tensor(feats), dyadic, grid, d_edges, params).data
        shift = rng.integers(-16, 17, dim) / 4.0
        t_edges = bilateral_knn(dyadic + shift, grid + shift, k)
        translated = gridify_features(
            Tensor(feats), dyadic + shift, grid + shift, t_edges, params
        ).data
        np.testing.assert_array_equal(translated, d_base)


# --------------------------------------------------------------------------
# 5. reconstruction error falls with capacity


@pytest.mark.slow
def test_criterion_5_reconstruction_error_improves_with_capacity():
    start = time.perf_counter()
    shared = dict(n_train=200, n_val=50, n_points=256, epochs=30, k=3,
                  batch_size=2, warmup=3)
    wins = 0
    for seed in (0, 1, 2):
        rows = train_reconstruction(
            ReconConfig(resolutions=(6,), channels=(4, 16), seed=seed, **shared)
        )
        rows += train_reconstruction(
            ReconConfig(resolutions=(4, 8), channels=(8,), seed=seed, **shared)
        )
        mse = {(r.resolution, r.channels): r.val_mse for r in rows}
        wider_helps = mse[(6, 16)] < mse[(6, 4)]
        finer_never_hurts = mse[(8, 8)] <= mse[(4, 8)]
        wins += int(wider_helps and finer_never_hurts)
    assert wins >= 2, f"capacity trends held in only {wins} of 3 seeds"
    assert time.perf_counter() - start < 600.0


# --------------------------------------------------------------------------
# 6. kernel reuse: constant evaluation count and flatter time scaling


@pytest.mark.slow
def test_criterion_6_grid_path_reuses_kernels_and_scales_flatter():
    start = time.perf_counter()
    sizes = (1000, 2000, 4000, 8000)
    report = bench_scaling(n_list=sizes, c_list=(16,))
    for row in report.rows:
        if row.path == "native":
            assert row.pos_evals == row.n_points * row.k
        else:
            assert row.pos_evals == 9**3  # kernel taps only, independent of N
    assert report.slope("grid", 16) < report.slope("native", 16)
    assert time.perf_counter() - start < 300.0


# --------------------------------------------------------------------------
# 7. requirement checker scenarios


def test_criterion_7_requirement_checker_reports_exactly_the_unmet_items():
    # 1000 points cannot sit losslessly on a 9**3 grid
    undersized = check_requirements(1000, 3, GridSpec(resolution=9, dim=3))
    assert [v.requirement for v in undersized] == ["grid-capacity"]
    assert "729" in undersized[0].message and "1000" in undersized[0].message

    # a 10**3 grid holds them
    assert check_requirements(1000, 3, GridSpec(resolution=10, dim=3)) == []

    # a node network squeezed below the feature width is the only complaint
    rng = np.random.default_rng(7)
    params = init_gridifier(4, 6, 7, 3, rng)
    narrow = replace(params, phi_node=init_mlp([4, 3, 7], rng))
    flagged = check_requirements(1000, 4, GridSpec(resolution=10, dim=3), narrow, k=3)
    assert [v.requirement for v in flagged] == ["node-width"]


# --------------------------------------------------------------------------
# 8. determinism and persistence


@pytest.mark.slow
def test_criterion_8_seeds_checkpoints_and_files_reproduce_bitwise(tmp_path):
    cfg = ReconConfig(n_train=4, n_val=2, n_points=24, resolutions=(3,),
                      channels=(3,), epochs=2, k=2, warmup=1,
                      checkpoint_path=str(tmp_path / "a.ckpt"))
    train_reconstruction(cfg)
    train_reconstruction(replace(cfg, checkpoint_path=str(tmp_path / "b.ckpt")))
    first = (tmp_path / "a.ckpt").read_bytes()
    assert (tmp_path / "b.ckpt").read_bytes() == first

    params, state = load_checkpoint(tmp_path / "a.ckpt")
    save_checkpoint(tmp_path / "c.ckpt", {k: Tensor(v) for k, v in params.items()}, state)
    assert (tmp_path / "c.ckpt").read_bytes() == first

    rng = np.random.default_rng(88)
    stored = PointCloud(
        rng.uniform(-1, 1, (40, 3)).astype(np.float32).astype(np.float64),
        rng.normal(size=(40, 2)).astype(np.float32).astype(np.float64),
    )
    write_cloud(stored, tmp_path / "cloud.pcb")
    loaded = read_cloud(tmp_path / "cloud.pcb")
    np.testing.assert_array_equal(loaded.coords, stored.coords)
    np.testing.assert_array_equal(loaded.feats, stored.feats)


# --------------------------------------------------------------------------
# 9. end-to-end classification with a chance-level control


@pytest.mark.slow
def test_criterion_9_classification_beats_ninety_percent_and_controls_at_chance():
    start = time.perf_counter()
    accuracy = train_classify_synth(ClassifyConfig())
    shuffled = train_classify_synth(ClassifyConfig(shuffle_labels=True))
    assert accuracy >= 0.9, f"clean-label accuracy {accuracy:.3f}"
    assert 0.4 <= shuffled <= 0.6, f"shuffled-label accuracy {shuffled:.3f}"
    assert time.perf_counter() - start < 300.0

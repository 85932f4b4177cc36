import itertools
import tracemalloc

import numpy as np
import pytest
from helpers import assert_grads_match, naive_pos, rand, taped_positional

from gridifier import autodiff as ad
from gridifier.autodiff import Tensor
from gridifier.connectivity import Direction, EdgeSet, self_knn
from gridifier.errors import ConfigError, InvariantError, ShapeError
from gridifier.gridnet import (
    AffineHead,
    BlockSpec,
    ConvBlock,
    ConvSpec,
    KernelCache,
    KernelEvalCounter,
    block_forward,
    classify_head,
    conv_grid_features,
    conv_point_native,
    init_affine_head,
    init_conv,
    init_conv_block,
    offset_lattice,
)
from gridifier.nn import MlpParams, PositionalNet, init_positional_net
from gridifier.pccore import GridSpec, make_grid_coords


def conv_oracle(feats, resolution, dim, kernel_size, kernel):
    """Nested-loop cross-correlation with zero padding, written from scratch.

    Mixed-radix index arithmetic is spelled out per point instead of reusing
    any lattice helper from the package.
    """
    half = (kernel_size - 1) // 2
    n = resolution**dim
    out = np.zeros((n, kernel.shape[2]))
    taps = list(itertools.product(range(-half, half + 1), repeat=dim))
    for flat in range(n):
        digits = []
        rem = flat
        for _ in range(dim):
            digits.append(rem % resolution)
            rem //= resolution
        cell = digits[::-1]
        for t, off in enumerate(taps):
            src = [c + o for c, o in zip(cell, off)]
            if any(s < 0 or s >= resolution for s in src):
                continue
            sflat = 0
            for s in src:
                sflat = sflat * resolution + s
            out[flat] += feats[sflat] @ kernel[t]
    return out


def window_pairs(resolution, dim, kernel_size):
    """All (source, target) lattice pairs with source inside target's window."""
    half = (kernel_size - 1) // 2
    pairs = []
    for cell in itertools.product(range(resolution), repeat=dim):
        flat = 0
        for c in cell:
            flat = flat * resolution + c
        for off in itertools.product(range(-half, half + 1), repeat=dim):
            src = [c + o for c, o in zip(cell, off)]
            if any(s < 0 or s >= resolution for s in src):
                continue
            sflat = 0
            for s in src:
                sflat = sflat * resolution + s
            pairs.append((sflat, flat))
    return pairs


def to_edge_set(pairs, n):
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    order = np.lexsort((src, dst))
    return EdgeSet(src[order], dst[order], Direction.CLOUD_TO_CLOUD, n, n)


def rebuild_kernel_net(tensors):
    """PositionalNet from a flat tensor list [freq, w0, b0, w1, b1, ...]."""
    return PositionalNet(tensors[0], MlpParams(list(tensors[1::2]), list(tensors[2::2])))


def kernel_net_arrays(net):
    arrs = [net.freq.data.copy()]
    for w, b in zip(net.head.weights, net.head.biases):
        arrs.extend([w.data.copy(), b.data.copy()])
    return arrs


# ---------------------------------------------------------------------------
# lattice plumbing
# ---------------------------------------------------------------------------


class TestLatticeTables:
    def test_offset_ordering_is_row_major_last_fastest(self):
        offs = offset_lattice(3, 2)
        assert offs.shape == (9, 2)
        np.testing.assert_array_equal(offs[0], [-1, -1])
        np.testing.assert_array_equal(offs[1], [-1, 0])
        np.testing.assert_array_equal(offs[-1], [1, 1])

    def test_offset_lattice_k1_is_origin(self):
        np.testing.assert_array_equal(offset_lattice(1, 3), [[0, 0, 0]])

    def test_offset_lattice_is_built_once_and_read_only(self):
        first = offset_lattice(5, 3)
        np.testing.assert_array_equal(offset_lattice(5, 3), first)
        assert offset_lattice(5, 3) is first
        with pytest.raises(ValueError):
            first[0, 0] = 7


# ---------------------------------------------------------------------------
# convolution vs the nested-loop oracle
# ---------------------------------------------------------------------------


class TestConvAgainstOracle:
    @pytest.mark.parametrize(
        "dim,resolution,kernel_size,c_in,c_out,seed",
        [
            (1, 7, 3, 2, 2, 0),
            (1, 5, 5, 1, 3, 1),
            (2, 4, 3, 2, 3, 2),
            (2, 5, 5, 3, 1, 3),
            (3, 3, 3, 2, 2, 4),
            (3, 4, 3, 1, 2, 5),
            # kernels wider than the grid: first-axis taps with |shift| >= r
            # crop to nothing
            (1, 3, 7, 2, 3, 40),
            (2, 3, 7, 2, 2, 41),
            (3, 3, 7, 1, 2, 42),
            # a single cell sees only the centre tap
            (1, 1, 3, 2, 2, 43),
            (2, 1, 5, 2, 3, 44),
            (3, 1, 3, 3, 2, 45),
            # the infer geometry
            (3, 9, 9, 2, 1, 46),
        ],
    )
    def test_explicit_kernel_matches_oracle(self, dim, resolution, kernel_size, c_in, c_out, seed):
        rng = np.random.default_rng(seed)
        spec = GridSpec(resolution=resolution, dim=dim)
        feats = rand(rng, spec.n_points, c_in)
        kernel = rand(rng, kernel_size**dim, c_in, c_out)
        out = ad.grid_correlate(Tensor(feats), Tensor(kernel), resolution, dim, kernel_size)
        expected = conv_oracle(feats, resolution, dim, kernel_size, kernel)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_one_dimensional_hand_case(self):
        # signal [0,1,0], taps [1,2,3]: cross-correlation slides the window
        # without flipping, so out[i] = sum_t k[t] * x[i + t - 1] with zero pad
        spec = GridSpec(resolution=3, lo=0.0, hi=1.0, dim=1)
        kernel = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1)
        signal = np.array([[0.0], [1.0], [0.0]])
        out = ad.grid_correlate(Tensor(signal), Tensor(kernel), spec.resolution, 1, 3)
        expected = conv_oracle(signal, 3, 1, 3, kernel)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(out.data, [[3.0], [2.0], [1.0]])

    def test_k1_identity_kernel_is_identity(self):
        rng = np.random.default_rng(6)
        spec = GridSpec(resolution=4, dim=3)
        feats = rand(rng, spec.n_points, 5)
        out = ad.grid_correlate(Tensor(feats), Tensor(np.eye(5).reshape(1, 5, 5)), 4, 3, 1)
        np.testing.assert_array_equal(out.data, feats)

    def test_neural_kernel_matches_oracle_with_counter(self):
        # 4^3 grid, 2 -> 3 channels, K=3: the rendered kernel must agree with
        # a per-offset re-computation through the loop-level network oracle,
        # and exactly 27 offsets go through the positional network
        rng = np.random.default_rng(7)
        spec = GridSpec(resolution=4, dim=3)
        feats = rand(rng, spec.n_points, 2)
        conv = init_conv(3, 3, 2, 3, rng, omega=0.7, n_frequencies=4, hidden=[10])
        counter = KernelEvalCounter()
        out = conv_grid_features(Tensor(feats), spec, conv, counter)
        assert counter.snapshot() == (27, 1, 1)

        offsets = itertools.product((-1, 0, 1), repeat=3)
        kernel = np.stack(
            [
                naive_pos(conv.kernel_net, -np.array(off, dtype=float) * spec.spacing).reshape(2, 3)
                for off in offsets
            ]
        )
        expected = conv_oracle(feats, 4, 3, 3, kernel)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_rendered_layer_stays_below_window_matrix_size(self):
        # an (r^D * K^D, C) window matrix at r=9, K=9, C=16 alone is 68 MB;
        # windowing only the trailing axes needs (r^D * K^(D-1), C), 7.5 MB
        rng = np.random.default_rng(47)
        spec = GridSpec(resolution=9, dim=3)
        conv = init_conv(9, 3, 16, 16, rng, n_frequencies=8, hidden=[32])
        cache = KernelCache()
        feats = Tensor(rand(rng, spec.n_points, 16))
        conv_grid_features(feats, spec, conv, cache=cache)
        tracemalloc.start()
        try:
            conv_grid_features(feats, spec, conv, cache=cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestConvValidation:
    def test_even_kernel_size_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            init_conv(4, 1, 1, 1, np.random.default_rng(0), n_frequencies=2, hidden=[4])

    def test_kernel_net_dim_and_width_checked(self):
        rng = np.random.default_rng(0)
        net = init_positional_net(1.0, 2, 2, [4], 6, rng)
        with pytest.raises(ConfigError, match="offsets"):
            ConvSpec(3, 3, 2, 3, kernel_net=net)
        with pytest.raises(ConfigError, match="c_in\\*c_out"):
            ConvSpec(3, 2, 2, 2, kernel_net=net)

    def test_feature_shape_mismatch(self):
        spec = GridSpec(resolution=3, dim=2)
        conv = init_conv(3, 2, 2, 2, np.random.default_rng(0), n_frequencies=2, hidden=[4])
        with pytest.raises(ShapeError, match="conv expects"):
            conv_grid_features(Tensor(np.zeros((9, 3))), spec, conv)

    def test_grid_conv_dim_mismatch(self):
        spec = GridSpec(resolution=3, dim=3)
        conv = init_conv(3, 2, 2, 2, np.random.default_rng(0), n_frequencies=2, hidden=[4])
        with pytest.raises(ShapeError, match="-d"):
            conv_grid_features(Tensor(np.zeros((27, 2))), spec, conv)

    def test_counter_rejects_negative_increments(self):
        counter = KernelEvalCounter()
        with pytest.raises(InvariantError):
            counter.bump(pos_evals=-1)


# ---------------------------------------------------------------------------
# kernel reuse accounting
# ---------------------------------------------------------------------------


class TestKernelReuse:
    def test_repeated_applications_render_once(self):
        rng = np.random.default_rng(9)
        spec = GridSpec(resolution=5, dim=2)
        conv = init_conv(3, 2, 3, 3, rng, n_frequencies=4, hidden=[8])
        counter, cache = KernelEvalCounter(), KernelCache()
        h = Tensor(rand(rng, spec.n_points, 3))
        for _ in range(4):
            h = conv_grid_features(h, spec, conv, counter, cache)
        assert counter.snapshot() == (9, 1, 4)
        assert len(cache) == 1

    def test_without_cache_each_application_rerenders(self):
        rng = np.random.default_rng(10)
        spec = GridSpec(resolution=4, dim=2)
        conv = init_conv(3, 2, 2, 2, rng, n_frequencies=4, hidden=[8])
        counter = KernelEvalCounter()
        h = Tensor(rand(rng, spec.n_points, 2))
        for _ in range(3):
            h = conv_grid_features(h, spec, conv, counter)
        assert counter.snapshot() == (27, 3, 3)

    def test_distinct_convs_do_not_share_cache_entries(self):
        rng = np.random.default_rng(11)
        spec = GridSpec(resolution=4, dim=2)
        a = init_conv(3, 2, 2, 2, rng, n_frequencies=4, hidden=[8])
        b = init_conv(3, 2, 2, 2, rng, n_frequencies=4, hidden=[8])
        counter, cache = KernelEvalCounter(), KernelCache()
        h = Tensor(rand(rng, spec.n_points, 2))
        h = conv_grid_features(h, spec, a, counter, cache)
        h = conv_grid_features(h, spec, b, counter, cache)
        assert counter.snapshot() == (18, 2, 2)
        assert len(cache) == 2

    def test_cached_reuse_matches_uncached_values(self):
        rng = np.random.default_rng(12)
        spec = GridSpec(resolution=4, dim=2)
        conv = init_conv(3, 2, 2, 2, rng, n_frequencies=4, hidden=[8])
        x = rand(rng, spec.n_points, 2)
        cached = conv_grid_features(
            conv_grid_features(Tensor(x), spec, conv, cache=KernelCache()), spec, conv
        )
        plain = conv_grid_features(conv_grid_features(Tensor(x), spec, conv), spec, conv)
        np.testing.assert_array_equal(cached.data, plain.data)

    def test_gradients_flow_through_shared_kernel(self):
        # two chained applications reuse one rendered kernel; finite
        # differences see the same reuse because the cache is rebuilt per call
        rng = np.random.default_rng(13)
        spec = GridSpec(resolution=4, dim=1)
        template = init_conv(3, 1, 1, 1, rng, n_frequencies=3, hidden=[6])
        x = rand(rng, 4, 1)

        def build(ts):
            net = rebuild_kernel_net(ts[:-1])
            conv = ConvSpec(3, 1, 1, 1, kernel_net=net)
            cache = KernelCache()
            h = conv_grid_features(ts[-1], spec, conv, cache=cache)
            h = conv_grid_features(h, spec, conv, cache=cache)
            assert len(cache) == 1
            return ad.reduce_mean(ad.mul(h, h))

        assert_grads_match(build, [*kernel_net_arrays(template.kernel_net), x], tol=2e-4)


# ---------------------------------------------------------------------------
# the irregular baseline
# ---------------------------------------------------------------------------


class TestNativePointConv:
    def test_eval_count_is_edges(self):
        rng = np.random.default_rng(14)
        coords = rng.uniform(-1, 1, (30, 3))
        edges = self_knn(coords, 4)
        net = init_positional_net(1.0, 4, 3, [8], 2 * 2, rng)
        counter = KernelEvalCounter()
        conv_point_native(coords, Tensor(rand(rng, 30, 2)), edges, net, counter)
        assert counter.pos_evals == 30 * 4
        assert counter.snapshot() == (120, 0, 1)

    def test_single_point_self_loop_costs_one_eval(self):
        rng = np.random.default_rng(15)
        coords = np.zeros((1, 2))
        edges = self_knn(coords, 1)
        net = init_positional_net(1.0, 2, 2, [4], 1, rng)
        counter = KernelEvalCounter()
        out = conv_point_native(coords, Tensor(np.array([[2.0]])), edges, net, counter)
        assert counter.pos_evals == 1
        expected = naive_pos(net, np.zeros(2)).reshape(1, 1) * 2.0
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_native_matches_per_edge_oracle(self):
        rng = np.random.default_rng(16)
        coords = rng.uniform(-1, 1, (12, 2))
        feats = rand(rng, 12, 3)
        edges = self_knn(coords, 3)
        net = init_positional_net(0.8, 3, 2, [8], 3 * 2, rng)
        out = conv_point_native(coords, Tensor(feats), edges, net)
        expected = np.zeros((12, 2))
        for j, i in edges.pairs():
            w = naive_pos(net, coords[i] - coords[j]).reshape(3, 2)
            expected[i] += feats[j] @ w
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim,resolution", [(1, 7), (2, 5), (3, 4)])
    def test_matches_grid_conv_on_lattice_interiors(self, dim, resolution):
        # a "cloud" placed exactly on the lattice, connected by the same
        # 3^dim windows the dense path uses, must agree wherever no padding
        # is involved
        rng = np.random.default_rng(17 + dim)
        spec = GridSpec(resolution=resolution, dim=dim)
        coords = make_grid_coords(spec)
        c_in, c_out = 2, 3
        feats = rand(rng, spec.n_points, c_in)
        net = init_positional_net(0.5, 4, dim, [12], c_in * c_out, rng)

        grid_out = conv_grid_features(
            Tensor(feats), spec, ConvSpec(3, dim, c_in, c_out, kernel_net=net)
        )
        native_out = conv_point_native(
            coords, Tensor(feats), to_edge_set(window_pairs(resolution, dim, 3), spec.n_points), net
        )

        digits = np.stack(
            np.meshgrid(*[np.arange(resolution)] * dim, indexing="ij"), axis=-1
        ).reshape(-1, dim)
        interior = np.all((digits >= 1) & (digits <= resolution - 2), axis=1)
        assert interior.sum() > 0
        np.testing.assert_allclose(
            native_out.data[interior], grid_out.data[interior], rtol=0, atol=1e-10
        )

    def test_eval_count_ratio_native_over_grid(self):
        rng = np.random.default_rng(20)
        coords = rng.uniform(-1, 1, (64, 2))
        net = init_positional_net(1.0, 4, 2, [8], 4, rng)
        native, gridded = KernelEvalCounter(), KernelEvalCounter()
        conv_point_native(coords, Tensor(rand(rng, 64, 2)), self_knn(coords, 9), net, native)
        spec = GridSpec(resolution=8, dim=2)
        conv_grid_features(
            Tensor(rand(rng, 64, 2)), spec, ConvSpec(3, 2, 2, 2, kernel_net=net), gridded
        )
        assert native.pos_evals == 64 * 9
        assert gridded.pos_evals == 9
        assert native.pos_evals / gridded.pos_evals == 64 * 9 / 3**2

    def test_wrong_edge_direction_rejected(self):
        rng = np.random.default_rng(21)
        edges = EdgeSet(np.array([0]), np.array([0]), Direction.CLOUD_TO_GRID, 1, 1)
        net = init_positional_net(1.0, 2, 2, [4], 1, rng)
        with pytest.raises(ConfigError, match="self-edges"):
            conv_point_native(np.zeros((1, 2)), Tensor(np.ones((1, 1))), edges, net)

    @staticmethod
    def unblocked_native(coords, feats, edges, net):
        """Every kernel row rendered at once, applied with one einsum and
        summed in edge order: the composition the blocked node replaces."""
        rows = taped_positional(net, coords[edges.dst] - coords[edges.src]).data
        per_edge = rows.reshape(edges.n_edges, feats.shape[1], -1)
        msgs = np.einsum("nio,ni->no", per_edge, feats[edges.src])
        return ad._sum_rows_at(msgs, edges.dst, coords.shape[0])

    @pytest.mark.parametrize("c_in", [1, 16])
    @pytest.mark.parametrize(
        "n_blocks,halves,extra",
        [(1, 1, 0), (1, 2, 0), (3, 5, 0), (2, 4, 1)],
        ids=["below-one-block", "one-block", "partial-last-block", "one-row-tail"],
    )
    def test_forward_bits_match_unblocked_composition(self, c_in, n_blocks, halves, extra):
        c_out, k = 16, 8
        rows = ad._RENDER_BLOCK_BYTES // (8 * c_in * c_out)
        assert rows % (2 * k) == 0  # blocks end where a destination's edges do
        n_edges = halves * rows // 2 + extra
        rng = np.random.default_rng(c_in + halves)
        n = n_edges // k + 1
        coords = rng.uniform(-1, 1, (n, 3))
        # the first n_edges of a sorted edge set are a sorted edge set
        full = self_knn(coords, k)
        edges = EdgeSet(full.src[:n_edges], full.dst[:n_edges], Direction.CLOUD_TO_CLOUD, n, n)
        starts = np.concatenate([[0], np.cumsum(np.bincount(edges.dst, minlength=n))])
        blocks = ad._segment_blocks(starts, c_in * c_out, ad._RENDER_BLOCK_BYTES)
        assert len(blocks) == n_blocks
        feats = rand(rng, n, c_in)
        net = init_positional_net(1.0, 8, 3, [32], c_in * c_out, rng)
        out = conv_point_native(coords, Tensor(feats), edges, net)
        np.testing.assert_array_equal(out.data, self.unblocked_native(coords, feats, edges, net))

    def test_forward_holds_no_hidden_layer(self):
        # the positional network runs on one block of edges at a time, so
        # not even one (E, 32) array of its hidden layer exists at once
        rng = np.random.default_rng(28)
        n, k, c = 2222, 9, 16
        coords = rng.uniform(-1, 1, (n, 3))
        edges = self_knn(coords, k)
        feats = Tensor(rand(rng, n, c))
        net = init_positional_net(1.0, 8, 3, [32], c * c, rng)
        tracemalloc.start()
        try:
            conv_point_native(coords, feats, edges, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < edges.n_edges * 32 * 8, f"traced peak {peak / 2**20:.1f} MiB"

    def test_forward_holds_no_kernel_rows(self):
        # a two-frequency net with no hidden layer keeps the per-edge
        # activations to a few columns, so what remains are the (E, C)
        # messages; all (E, C*C) kernel rows would be four times the bound
        rng = np.random.default_rng(26)
        n, k, c = 2222, 9, 16
        coords = rng.uniform(-1, 1, (n, 3))
        edges = self_knn(coords, k)
        feats = Tensor(rand(rng, n, c))
        net = init_positional_net(1.0, 2, 3, [], c * c, rng)
        tracemalloc.start()
        try:
            conv_point_native(coords, feats, edges, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < edges.n_edges * c * c * 8 / 4, f"traced peak {peak / 2**20:.1f} MiB"

    def test_edges_of_another_cloud_rejected(self):
        rng = np.random.default_rng(27)
        edges = self_knn(rng.uniform(-1, 1, (10, 3)), 3)
        net = init_positional_net(1.0, 2, 3, [4], 2, rng)
        with pytest.raises(ShapeError, match=r"10 sources to 10 destinations.*12 points"):
            conv_point_native(rng.uniform(-1, 1, (12, 3)), Tensor(np.ones((12, 2))), edges, net)

    def test_kernel_width_must_divide(self):
        rng = np.random.default_rng(22)
        coords = np.zeros((2, 2))
        edges = to_edge_set([(0, 0), (0, 1), (1, 0), (1, 1)], 2)
        net = init_positional_net(1.0, 2, 2, [4], 5, rng)
        with pytest.raises(ShapeError, match="multiple"):
            conv_point_native(coords, Tensor(np.ones((2, 3))), edges, net)


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------


class TestConvGradients:
    def test_explicit_kernel_weights(self):
        rng = np.random.default_rng(23)
        spec = GridSpec(resolution=4, dim=2)
        arrays = [rand(rng, 9, 2, 3), rand(rng, spec.n_points, 2)]

        def build(ts):
            out = ad.grid_correlate(ts[1], ts[0], spec.resolution, 2, 3)
            return ad.reduce_mean(ad.mul(out, out))

        assert_grads_match(build, arrays)

    @pytest.mark.parametrize(
        "dim,resolution,kernel_size,c_in,c_out,seed",
        [
            (1, 5, 3, 2, 2, 50),
            (1, 3, 7, 2, 1, 51),
            (2, 4, 3, 1, 2, 52),
            (2, 3, 5, 2, 1, 53),
            (3, 3, 3, 2, 1, 54),
            (3, 2, 5, 1, 1, 55),
        ],
    )
    def test_explicit_kernel_and_input_across_dims(
        self, dim, resolution, kernel_size, c_in, c_out, seed
    ):
        rng = np.random.default_rng(seed)
        spec = GridSpec(resolution=resolution, dim=dim)
        arrays = [rand(rng, kernel_size**dim, c_in, c_out), rand(rng, spec.n_points, c_in)]

        def build(ts):
            out = ad.grid_correlate(ts[1], ts[0], resolution, dim, kernel_size)
            return ad.reduce_mean(ad.mul(out, out))

        assert_grads_match(build, arrays)

    def test_neural_kernel_parameters(self):
        rng = np.random.default_rng(24)
        spec = GridSpec(resolution=3, dim=2)
        template = init_conv(3, 2, 2, 2, rng, n_frequencies=3, hidden=[6])
        x = rand(rng, spec.n_points, 2)

        def build(ts):
            conv = ConvSpec(3, 2, 2, 2, kernel_net=rebuild_kernel_net(ts[:-1]))
            out = conv_grid_features(ts[-1], spec, conv)
            return ad.reduce_mean(ad.mul(out, out))

        assert_grads_match(build, [*kernel_net_arrays(template.kernel_net), x], tol=2e-4)

    def test_neural_kernel_bits_match_taped_composition(self):
        # one kernel net applied at two spacings: the outputs, the input
        # gradients and every kernel-net gradient carry the bits of the taped
        # chain that the positional node fuses
        rng = np.random.default_rng(26)
        template = init_conv(3, 3, 2, 3, rng, omega=0.8, n_frequencies=4, hidden=[8])
        specs = [GridSpec(resolution=4, dim=3), GridSpec(resolution=5, dim=3)]
        assert specs[0].spacing != specs[1].spacing
        feats = [rand(rng, s.n_points, 2) for s in specs]
        weights = [rand(rng, s.n_points, 3) for s in specs]

        def fused(net, x, spec):
            return conv_grid_features(x, spec, ConvSpec(3, 3, 2, 3, kernel_net=net))

        def taped(net, x, spec):
            rel = -offset_lattice(3, 3).astype(np.float64) * spec.spacing
            kernel = ad.reshape(taped_positional(net, rel), (27, 2, 3))
            return ad.grid_correlate(x, kernel, spec.resolution, 3, 3)

        def run(conv):
            arrays = kernel_net_arrays(template.kernel_net)
            net = rebuild_kernel_net([Tensor(a) for a in arrays])
            xs = [Tensor(f) for f in feats]
            outs = [conv(net, x, spec) for x, spec in zip(xs, specs)]
            losses = [ad.reduce_mean(ad.mul(o, w)) for o, w in zip(outs, weights)]
            ad.add(*losses).backward()
            params = net.named_parameters().values()
            return [o.data for o in outs] + [x.grad for x in xs] + [p.grad for p in params]

        for got, want in zip(run(fused), run(taped), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_native_kernel_parameters(self):
        rng = np.random.default_rng(25)
        coords = rng.uniform(-1, 1, (8, 2))
        edges = self_knn(coords, 3)
        template = init_positional_net(0.8, 3, 2, [6], 4, rng)
        x = rand(rng, 8, 2)

        def build(ts):
            net = rebuild_kernel_net(ts[:-1])
            out = conv_point_native(coords, ts[-1], edges, net)
            return ad.reduce_mean(ad.mul(out, out))

        assert_grads_match(build, [*kernel_net_arrays(template), x], tol=2e-4)


# ---------------------------------------------------------------------------
# blocks and heads
# ---------------------------------------------------------------------------


class TestBlocks:
    def zero_block(self, channels, kernel_size, dim, dropout=0.0):
        """A block whose kernel net has a zero last layer, so every rendered
        kernel value is exactly 0."""
        spec = BlockSpec(channels, kernel_size, dropout=dropout)
        block = init_conv_block(spec, dim, np.random.default_rng(0), n_frequencies=2, hidden=[4])
        head = block.conv.kernel_net.head
        head.weights[-1].data[...] = 0.0
        head.biases[-1].data[...] = 0.0
        return block

    def test_zero_conv_residual_is_identity(self):
        rng = np.random.default_rng(26)
        spec = GridSpec(resolution=4, dim=2)
        x = rand(rng, spec.n_points, 3)
        out = block_forward(Tensor(x), spec, self.zero_block(3, 3, 2))
        np.testing.assert_array_equal(out.data, x)

    def test_block_conv_channel_agreement_checked(self):
        spec = BlockSpec(2, 3)
        conv = init_conv(3, 2, 2, 3, np.random.default_rng(0), n_frequencies=2, hidden=[4])
        with pytest.raises(ConfigError, match="disagree"):
            ConvBlock(spec, conv, Tensor(np.ones(2)), Tensor(np.zeros(2)))

    def test_dropout_only_active_in_training(self):
        rng = np.random.default_rng(28)
        gspec = GridSpec(resolution=4, dim=2)
        block = init_conv_block(
            BlockSpec(2, 3, dropout=0.5), 2, np.random.default_rng(1), n_frequencies=4, hidden=[8]
        )
        x = Tensor(rand(rng, gspec.n_points, 2))
        eval_a = block_forward(x, gspec, block)
        eval_b = block_forward(x, gspec, block)
        np.testing.assert_array_equal(eval_a.data, eval_b.data)
        trained = block_forward(x, gspec, block, rng=np.random.default_rng(2), training=True)
        assert not np.array_equal(trained.data, eval_a.data)

    def test_training_dropout_without_rng_rejected(self):
        gspec = GridSpec(resolution=3, dim=1)
        block = self.zero_block(1, 3, 1, dropout=0.3)
        with pytest.raises(ConfigError, match="rng"):
            block_forward(Tensor(np.ones((3, 1))), gspec, block, training=True)

    def test_block_matches_manual_composition(self):
        rng = np.random.default_rng(29)
        gspec = GridSpec(resolution=4, dim=2)
        block = init_conv_block(
            BlockSpec(3, 3), 2, np.random.default_rng(3), n_frequencies=4, hidden=[8]
        )
        x = Tensor(rand(rng, gspec.n_points, 3))
        out = block_forward(x, gspec, block)
        h = ad.channel_norm(x, block.gamma, block.beta)
        h = conv_grid_features(h, gspec, block.conv)
        h = ad.gelu(h)
        expected = ad.add(x, h)
        np.testing.assert_array_equal(out.data, expected.data)

    def test_block_gradients(self):
        rng = np.random.default_rng(30)
        gspec = GridSpec(resolution=3, dim=2)
        template = init_conv(3, 2, 2, 2, rng, n_frequencies=3, hidden=[6])
        net_arrays = kernel_net_arrays(template.kernel_net)
        arrays = [*net_arrays, np.full(2, 1.1), np.full(2, -0.2), rand(rng, 9, 2)]

        def build(ts):
            net = rebuild_kernel_net(ts[: len(net_arrays)])
            gamma, beta, x = ts[len(net_arrays) :]
            block = ConvBlock(BlockSpec(2, 3), ConvSpec(3, 2, 2, 2, kernel_net=net), gamma, beta)
            out = block_forward(x, gspec, block)
            return ad.reduce_mean(ad.mul(out, out))

        assert_grads_match(build, arrays, tol=2e-4)

    def test_block_parameter_names(self):
        block = init_conv_block(BlockSpec(2, 3), 2, np.random.default_rng(4))
        names = set(block.named_parameters("blocks.0.").keys())
        assert "blocks.0.gamma" in names
        assert "blocks.0.conv.pos.rff.freq" in names
        assert "blocks.0.conv.pos.head.w0" in names


class TestHeads:
    def test_classify_head_on_constant_grid(self):
        rng = np.random.default_rng(31)
        head = init_affine_head(3, 5, rng)
        feats = np.full((16, 3), 0.75)
        logits = classify_head(Tensor(feats), head)
        expected = np.full((1, 3), 0.75) @ head.w.data + head.b.data
        np.testing.assert_allclose(logits.data, expected, rtol=0, atol=1e-12)

    def test_logit_shape_for_forty_classes(self):
        rng = np.random.default_rng(32)
        head = init_affine_head(8, 40, rng)
        logits = classify_head(Tensor(rand(rng, 27, 8)), head)
        assert logits.shape == (1, 40)

    def test_classify_head_pools_before_affine(self):
        rng = np.random.default_rng(33)
        head = init_affine_head(4, 3, rng)
        feats = rand(rng, 10, 4)
        logits = classify_head(Tensor(feats), head)
        expected = feats.mean(axis=0) @ head.w.data + head.b.data
        np.testing.assert_allclose(logits.data[0], expected, rtol=0, atol=1e-12)

    def test_head_gradients(self):
        rng = np.random.default_rng(35)
        arrays = [rand(rng, 4, 3), np.zeros(3), rand(rng, 10, 4)]

        def build(ts):
            out = classify_head(ts[2], AffineHead(ts[0], ts[1]))
            return ad.reduce_mean(ad.mul(out, out))

        assert_grads_match(build, arrays)

    def test_head_shape_validation(self):
        with pytest.raises(ShapeError, match="affine head"):
            AffineHead(Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))

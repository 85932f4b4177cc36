import itertools
import tracemalloc

import numpy as np
import pytest
from helpers import (
    assert_directional_grads_match,
    assert_grads_match,
    naive_pos,
    rand,
    taped_edge_sinusoid,
    taped_head,
    taped_positional,
)

from gridifier import autodiff as ad
from gridifier.autodiff import Tensor
from gridifier.connectivity import Direction, EdgeSet, bilateral_knn, self_knn
from gridifier.errors import ConfigError, InvariantError, ShapeError
from gridifier.experiments import gen_random_cloud
from gridifier.gridify import gridify_features, init_gridifier
from gridifier.gridnet import (
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


def lattice_taps(resolution, dim, kernel_size):
    """(p, t, s) for every cell p and tap t whose source s = p + offset(t) exists.

    Mixed-radix index arithmetic is spelled out per point instead of reusing
    any lattice helper from the package.
    """
    half = (kernel_size - 1) // 2
    taps = list(itertools.product(range(-half, half + 1), repeat=dim))
    for flat in range(resolution**dim):
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
            yield flat, t, sflat


def conv_oracle(feats, resolution, dim, kernel_size, kernel):
    """Nested-loop cross-correlation with zero padding, written from scratch."""
    out = np.zeros((resolution**dim, kernel.shape[2]))
    for p, t, s in lattice_taps(resolution, dim, kernel_size):
        out[p] += feats[s] @ kernel[t]
    return out


def conv_grad_oracle(feats, g, resolution, dim, kernel_size, kernel):
    """Loop-level gradients of ``conv_oracle`` for the output gradient g.

    dx[q] = sum_t g[q - offset(t)] @ kernel[t]^T and
    dK[t] = sum_p x[p + offset(t)]^T g[p], one (cell, tap) pair at a time.
    """
    dx, dk = np.zeros(feats.shape), np.zeros(kernel.shape)
    for p, t, s in lattice_taps(resolution, dim, kernel_size):
        dx[s] += g[p] @ kernel[t].T
        dk[t] += np.outer(feats[s], g[p])
    return dx, dk


def window_pairs(resolution, dim, kernel_size):
    """All (source, target) lattice pairs with source inside target's window."""
    return [(s, p) for p, _, s in lattice_taps(resolution, dim, kernel_size)]


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
    for w, b in net.head.layers:
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


ORACLE_GEOMETRIES = pytest.mark.parametrize(
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
        # around the 2 MiB window budget: 1.8 MiB keeps the trailing-axes
        # window; 2.3 MiB windows the last axis only, in the forward and the
        # backward
        (3, 9, 9, 4, 4, 70),
        (3, 9, 9, 5, 5, 71),
        # the last-axis form in one direction only: forward (c_in=6,
        # 2.7 MiB) or backward (c_out=6)
        (3, 9, 9, 6, 2, 72),
        (3, 9, 9, 2, 6, 73),
        # the last-axis form with a kernel wider than the grid (2.3 MiB)
        (3, 5, 11, 20, 20, 74),
    ],
)


class TestConvAgainstOracle:
    @ORACLE_GEOMETRIES
    def test_explicit_kernel_matches_oracle(self, dim, resolution, kernel_size, c_in, c_out, seed):
        rng = np.random.default_rng(seed)
        spec = GridSpec(resolution=resolution, dim=dim)
        feats = rand(rng, spec.n_points, c_in)
        kernel = rand(rng, kernel_size**dim, c_in, c_out)
        out = ad.grid_correlate(Tensor(feats), Tensor(kernel), resolution, dim, kernel_size)
        expected = conv_oracle(feats, resolution, dim, kernel_size, kernel)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    @ORACLE_GEOMETRIES
    def test_gradients_match_loop_oracle(self, dim, resolution, kernel_size, c_in, c_out, seed):
        # the kernel gradient reads shifted output-gradient rows against the
        # plain input; the loops sum x[p + offset(t)]^T g[p] pair by pair
        rng = np.random.default_rng(seed + 100)
        spec = GridSpec(resolution=resolution, dim=dim)
        x = Tensor(rand(rng, spec.n_points, c_in))
        kernel = Tensor(rand(rng, kernel_size**dim, c_in, c_out))
        weights = rand(rng, spec.n_points, c_out)
        out = ad.grid_correlate(x, kernel, resolution, dim, kernel_size)
        ad.reduce_mean(ad.mul(out, Tensor(weights))).backward()
        dx, dk = conv_grad_oracle(x.data, out.grad, resolution, dim, kernel_size, kernel.data)
        np.testing.assert_allclose(x.grad, dx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(kernel.grad, dk, rtol=0, atol=1e-12)

    @ORACLE_GEOMETRIES
    def test_gradients_match_directional_finite_differences(
        self, dim, resolution, kernel_size, c_in, c_out, seed
    ):
        rng = np.random.default_rng(seed + 200)
        arrays = [rand(rng, kernel_size**dim, c_in, c_out), rand(rng, resolution**dim, c_in)]

        def build(ts):
            out = ad.grid_correlate(ts[1], ts[0], resolution, dim, kernel_size)
            return ad.reduce_mean(ad.mul(out, out))

        assert_directional_grads_match(build, arrays, rng)

    def test_window_budget_picks_the_form(self):
        # the trailing-axes window is 8 r^3 K^2 C bytes; only a 3-d lattice
        # past the budget windows the last axis alone
        assert ad._WINDOW_BYTES == 2 << 20
        assert ad._lead_axes(5, 3, 3, 8) == 1  # train-classify, 72 KB
        assert ad._lead_axes(9, 3, 9, 4) == 1  # 1.8 MiB
        assert ad._lead_axes(9, 3, 9, 5) == 2  # 2.3 MiB
        assert ad._lead_axes(9, 3, 9, 16) == 2  # infer and bench, 7.2 MiB
        assert ad._lead_axes(729, 1, 9, 128) == 1
        assert ad._lead_axes(27, 2, 9, 128) == 1

    def test_both_forms_agree_at_the_window_budget(self, monkeypatch):
        # a budget equal to this geometry's window keeps the trailing-axes
        # form; one byte less switches it to the last-axis form
        r, k, c_in, c_out = 4, 5, 3, 3
        window = 8 * r**3 * k**2 * c_in
        rng = np.random.default_rng(75)
        feats = rand(rng, r**3, c_in)
        kernel_data = rand(rng, k**3, c_in, c_out)
        weights = rand(rng, r**3, c_out)
        results = []
        for budget, lead in ((window, 1), (window - 1, 2)):
            monkeypatch.setattr(ad, "_WINDOW_BYTES", budget)
            assert ad._lead_axes(r, 3, k, c_in) == lead
            x, kernel = Tensor(feats), Tensor(kernel_data)
            out = ad.grid_correlate(x, kernel, r, 3, k)
            ad.reduce_mean(ad.mul(out, Tensor(weights))).backward()
            results.append((out.data, x.grad, kernel.grad))
        for trailing, last in zip(*results):
            np.testing.assert_allclose(last, trailing, rtol=0, atol=1e-12)

    def test_one_dimensional_hand_case(self):
        # signal [0,1,0], taps [1,2,3]: cross-correlation slides the window
        # without flipping, so out[i] = sum_t k[t] * x[i + t - 1] with zero pad
        spec = GridSpec(resolution=3, dim=1)
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
        # windowing the trailing axes would need (r^D * K^(D-1), C), 7.6 MB,
        # and windowing the last axis needs (r^D * K, C), 0.84 MB
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


class TestConvTape:
    """The grid correlation tapes its input, not a window of it."""

    def test_forward_holds_only_its_output(self):
        # the last-axis window at r=9, K=9, C=16 is 0.8 MiB; with only x on
        # the tape, a forward leaves its 0.09 MiB output
        rng = np.random.default_rng(60)
        x = Tensor(rand(rng, 9**3, 16))
        kernel = Tensor(rand(rng, 9**3, 16, 16))
        tracemalloc.start()
        try:
            out = ad.grid_correlate(x, kernel, 9, 3, 9)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.shape == (9**3, 16)
        assert held < 2**20, f"held {held / 2**20:.2f} MiB"

    def test_forward_peak_is_below_the_trailing_axes_window(self):
        # at r=9, K=9, C=16 the trailing-axes window alone is 7.2 MiB; the
        # last-axis window, its zero-padded input and one tap's product come
        # to 1.1 MiB
        rng = np.random.default_rng(63)
        x = Tensor(rand(rng, 9**3, 16))
        kernel = Tensor(rand(rng, 9**3, 16, 16))
        ad.grid_correlate(x, kernel, 9, 3, 9)
        tracemalloc.start()
        try:
            ad.grid_correlate(x, kernel, 9, 3, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"

    def test_grid_training_step_peak(self):
        # bilateral k-NN, gridify, three r=9, K=9, C=16 layers at N=8000,
        # then the backward: 46.5 MiB traced while the tape kept each
        # layer's window
        rng = np.random.default_rng(61)
        spec = GridSpec(resolution=9, dim=3)
        grid_coords = make_grid_coords(spec)
        cloud = gen_random_cloud(8000, 62)
        enc = init_gridifier(1, 16, 16, 3, rng)
        convs = [init_conv(9, 3, 16, 16, rng, n_frequencies=8, hidden=[32]) for _ in range(3)]

        def step():
            edges = bilateral_knn(cloud.coords, grid_coords, 9)
            h = gridify_features(Tensor(cloud.feats), cloud.coords, grid_coords, edges, enc)
            for conv in convs:
                h = conv_grid_features(h, spec, conv)
            ad.reduce_mean(h).backward()

        step()  # the first step imports the k-d tree outside the trace
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 36 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestConvValidation:
    def test_even_kernel_size_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            init_conv(4, 1, 1, 1, np.random.default_rng(0), n_frequencies=2, hidden=[4])

    def test_kernel_net_width_checked(self):
        rng = np.random.default_rng(0)
        net = init_positional_net(1.0, 2, 2, [4], 6, rng)
        with pytest.raises(ConfigError, match="c_in\\*c_out"):
            ConvSpec(3, 2, 2, kernel_net=net)

    def test_dim_is_the_kernel_nets(self):
        net = init_positional_net(1.0, 2, 2, [4], 6, np.random.default_rng(0))
        conv = ConvSpec(3, 2, 3, kernel_net=net)
        assert conv.dim == net.dim == 2
        assert conv.n_taps == 9

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

    def test_a_dropped_conv_does_not_lend_its_kernel(self):
        # a conv built right after another is dropped can take over its id;
        # the cache keeps each conv it renders, so the id stays that conv's
        rng = np.random.default_rng(14)
        spec = GridSpec(resolution=4, dim=2)
        nets = [init_positional_net(1.0, 4, 2, [8], 4, rng) for _ in range(2)]
        cache = KernelCache()
        x = Tensor(rand(rng, spec.n_points, 2))
        conv_grid_features(x, spec, ConvSpec(3, 2, 2, kernel_net=nets[0]), cache=cache)
        conv = ConvSpec(3, 2, 2, kernel_net=nets[1])
        out = conv_grid_features(x, spec, conv, cache=cache)
        assert len(cache) == 2
        np.testing.assert_array_equal(out.data, conv_grid_features(x, spec, conv).data)

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
            conv = ConvSpec(3, 1, 1, kernel_net=net)
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
        for j, i in zip(edges.src, edges.dst):
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
            Tensor(feats), spec, ConvSpec(3, c_in, c_out, kernel_net=net)
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

    def test_translation_bit_identity_on_dyadic_coords(self):
        # coordinates on a 2^-20 lattice make every offset from the phase
        # origin exact, so translating the cloud cannot change a single bit
        rng = np.random.default_rng(23)
        coords = rng.integers(-(2**20), 2**20, size=(60, 3)) * 2.0**-20
        feats = rand(rng, 60, 2)
        net = init_positional_net(1.0, 4, 3, [8], 2 * 3, rng)
        edges = self_knn(coords, 5)
        base = conv_point_native(coords, Tensor(feats), edges, net).data
        for t in ([0.375, -1.25, 0.5], [2.0, 2.0, 2.0], [-0.0625, 0.03125, 7.0]):
            shifted = coords + np.asarray(t)
            shifted_edges = self_knn(shifted, 5)
            np.testing.assert_array_equal(shifted_edges.src, edges.src)
            np.testing.assert_array_equal(shifted_edges.dst, edges.dst)
            got = conv_point_native(shifted, Tensor(feats), shifted_edges, net)
            np.testing.assert_array_equal(got.data, base)

    def test_eval_count_ratio_native_over_grid(self):
        rng = np.random.default_rng(20)
        coords = rng.uniform(-1, 1, (64, 2))
        net = init_positional_net(1.0, 4, 2, [8], 4, rng)
        native, gridded = KernelEvalCounter(), KernelEvalCounter()
        conv_point_native(coords, Tensor(rand(rng, 64, 2)), self_knn(coords, 9), net, native)
        spec = GridSpec(resolution=8, dim=2)
        conv_grid_features(
            Tensor(rand(rng, 64, 2)), spec, ConvSpec(3, 2, 2, kernel_net=net), gridded
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
        summed in edge order: the composition the blocked node runs in
        blocks."""
        x = taped_edge_sinusoid(net.freq, coords, coords, edges.src, edges.dst)
        rows = taped_head(net.head, x).data
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

    def test_feature_rows_must_match_the_cloud(self):
        rng = np.random.default_rng(23)
        coords = rng.uniform(-1, 1, (10, 3))
        net = init_positional_net(1.0, 2, 3, [4], 2, rng)
        with pytest.raises(ShapeError, match=r"edge_conv shapes incompatible.*x \(9, 1\)"):
            conv_point_native(coords, Tensor(np.ones((9, 1))), self_knn(coords, 3), net)

    def test_kernel_width_must_divide(self):
        rng = np.random.default_rng(22)
        coords = np.zeros((2, 2))
        edges = to_edge_set([(0, 0), (0, 1), (1, 0), (1, 1)], 2)
        net = init_positional_net(1.0, 2, 2, [4], 5, rng)
        with pytest.raises(ShapeError, match=r"edge_conv shapes incompatible.*x \(2, 3\)"):
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
            conv = ConvSpec(3, 2, 2, kernel_net=rebuild_kernel_net(ts[:-1]))
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
            return conv_grid_features(x, spec, ConvSpec(3, 2, 3, kernel_net=net))

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
        block = init_conv_block(channels, kernel_size, dim, np.random.default_rng(0), dropout)
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
        # the residual sum needs the convolution to keep its channel count
        conv = init_conv(3, 2, 2, 3, np.random.default_rng(0), n_frequencies=2, hidden=[4])
        with pytest.raises(ConfigError, match="2 -> 3"):
            ConvBlock(conv, Tensor(np.ones(2)), Tensor(np.zeros(2)))

    def test_dropout_only_active_in_training(self):
        rng = np.random.default_rng(28)
        gspec = GridSpec(resolution=4, dim=2)
        block = init_conv_block(2, 3, 2, np.random.default_rng(1), 0.5)
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
        block = init_conv_block(3, 3, 2, np.random.default_rng(3))
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
            block = ConvBlock(ConvSpec(3, 2, 2, kernel_net=net), gamma, beta)
            out = block_forward(x, gspec, block)
            return ad.reduce_mean(ad.mul(out, out))

        assert_grads_match(build, arrays, tol=2e-4)

    def test_block_architecture(self):
        # the one block the classification study trains: 4 kernel-net
        # frequencies under one hidden layer of 16
        net = init_conv_block(5, 3, 3, np.random.default_rng(4)).conv.kernel_net
        assert (net.n_frequencies, net.dim) == (4, 3)
        assert net.head.widths == [8, 16, 25]

    def test_block_parameter_names(self):
        block = init_conv_block(2, 3, 2, np.random.default_rng(4))
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
        expected = np.full((1, 3), 0.75) @ head.weights[0].data + head.biases[0].data
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
        expected = feats.mean(axis=0) @ head.weights[0].data + head.biases[0].data
        np.testing.assert_allclose(logits.data[0], expected, rtol=0, atol=1e-12)

    def test_head_gradients(self):
        rng = np.random.default_rng(35)
        arrays = [rand(rng, 4, 3), np.zeros(3), rand(rng, 10, 4)]

        def build(ts):
            out = classify_head(ts[2], MlpParams([ts[0]], [ts[1]]))
            return ad.reduce_mean(ad.mul(out, out))

        assert_grads_match(build, arrays)

    def test_head_shape_validation(self):
        with pytest.raises(ShapeError, match=r"bias of its output width.*w \(3, 2\), b \(3,\)"):
            MlpParams([Tensor(np.zeros((3, 2)))], [Tensor(np.zeros(3))])

    def test_head_is_one_layer_with_zero_bias(self):
        head = init_affine_head(4, 3, np.random.default_rng(36))
        assert head.widths == [4, 3]
        assert list(head.named_parameters("head.")) == ["head.w0", "head.b0"]
        assert np.abs(head.weights[0].data).max() <= 0.5
        np.testing.assert_array_equal(head.biases[0].data, np.zeros(3))

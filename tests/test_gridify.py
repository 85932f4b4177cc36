import tracemalloc

import numpy as np
import pytest
from helpers import assert_grads_match, identity_mlp, naive_mlp, naive_pos, taped_positional

from gridifier import autodiff as ad
from gridifier.autodiff import Tensor
from gridifier.connectivity import Direction, EdgeSet, bilateral_knn, invert_edges
from gridifier.errors import ConfigError, InvariantError
from gridifier.gridify import (
    GridifierParams,
    Violation,
    _canonical_edge_order,
    check_requirements,
    degridify,
    degridify_features,
    gridify,
    gridify_features,
    init_gridifier,
)
from gridifier.nn import MlpParams, PositionalNet, mlp_forward
from gridifier.pccore import Grid, GridSpec, PointCloud, make_grid_coords

# ---------------------------------------------------------------------------
# naive per-edge oracle: plain numpy, explicit python loops, no shared code
# with the implementation under test (row-level pieces live in helpers)
# ---------------------------------------------------------------------------


def naive_pass(src_coords, src_feats, dst_coords, pairs, params, n_dst):
    buckets = {i: [] for i in range(n_dst)}
    for j, i in pairs:
        node = naive_mlp(params.phi_node, src_feats[j])
        pos = naive_pos(params.phi_pos, dst_coords[i] - src_coords[j])
        buckets[i].append(naive_mlp(params.phi_msg, np.concatenate([node, pos])))
    out = np.zeros((n_dst, params.f_out))
    for i, msgs in buckets.items():
        stack = np.stack(msgs)
        agg = stack.mean(axis=0) if params.aggregation == "mean" else stack.max(axis=0)
        out[i] = naive_mlp(params.phi_upd, agg)
    return out


# ---------------------------------------------------------------------------
# fixtures and small builders
# ---------------------------------------------------------------------------


def projection_params(width, dim=2):
    """phi_node/phi_upd identity, phi_msg projecting the node half of its
    input, and phi_pos one frequency under a zero head, so every message is
    its source's features."""
    proj = np.vstack([np.eye(width), np.zeros((width, width))])
    zero_head = MlpParams([Tensor(np.zeros((2, width)))], [Tensor(np.zeros(width))])
    return GridifierParams(
        phi_node=identity_mlp(width),
        phi_pos=PositionalNet(Tensor(np.ones((1, dim))), zero_head),
        phi_msg=MlpParams([Tensor(proj)], [Tensor(np.zeros(width))]),
        phi_upd=identity_mlp(width),
        aggregation="mean",
        hidden=width,
    )


def edge_set(pairs, direction, n_src, n_dst):
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    order = np.lexsort((src, dst))
    return EdgeSet(src[order], dst[order], direction, n_src, n_dst)


def random_instance(seed, n=64, res=4, k=3, f_in=2, f_out=3, hidden=6, aggregation="mean"):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.uniform(-1, 1, (n, 3)), rng.normal(size=(n, f_in)))
    spec = GridSpec(resolution=res, dim=3)
    edges = bilateral_knn(cloud.coords, make_grid_coords(spec), k)
    params = init_gridifier(f_in, f_out, hidden, 3, rng, omega=0.8, aggregation=aggregation)
    return cloud, spec, edges, params


class TestTrivialConfigurations:
    def test_mean_of_connected_features(self):
        # two cloud features feeding one grid cell through identity networks
        cloud = PointCloud(np.array([[0.2], [0.8]]), np.array([[1.0], [3.0]]))
        spec = GridSpec(resolution=1, lo=0.0, hi=1.0, dim=1)
        edges = edge_set([(0, 0), (1, 0)], Direction.CLOUD_TO_GRID, 2, 1)
        grid = gridify(cloud, spec, edges, projection_params(1, dim=1))
        np.testing.assert_array_equal(grid.feats, [[2.0]])

    def test_single_point_passthrough(self):
        cloud = PointCloud(np.array([[0.3, 0.3]]), np.array([[7.5]]))
        spec = GridSpec(resolution=1, lo=0.0, hi=1.0, dim=2)
        edges = edge_set([(0, 0)], Direction.CLOUD_TO_GRID, 1, 1)
        grid = gridify(cloud, spec, edges, projection_params(1))
        np.testing.assert_array_equal(grid.feats, [[7.5]])

    def test_one_grid_cell_feeds_two_cloud_points(self):
        grid = Grid(GridSpec(resolution=1, lo=0.0, hi=1.0, dim=2), np.array([[4.25]]))
        edges = edge_set([(0, 0), (0, 1)], Direction.GRID_TO_CLOUD, 1, 2)
        out = degridify(grid, np.array([[0.1, 0.1], [0.9, 0.9]]), edges, projection_params(1))
        np.testing.assert_array_equal(out, [[4.25], [4.25]])

    def test_relative_positions_change_sign_between_directions(self):
        # phi_msg projects the positional half; phi_pos reads the sine half
        # of one unit frequency per axis, sin(2 pi r), which is odd in the
        # offset r, so the outputs change sign with the direction
        width = 2
        sine_half = np.vstack([np.zeros((width, width)), np.eye(width)])
        params = GridifierParams(
            phi_node=identity_mlp(width),
            phi_pos=PositionalNet(
                Tensor(np.eye(width)), MlpParams([Tensor(sine_half)], [Tensor(np.zeros(width))])
            ),
            phi_msg=MlpParams(
                [Tensor(np.vstack([np.zeros((width, width)), np.eye(width)]))],
                [Tensor(np.zeros(width))],
            ),
            phi_upd=identity_mlp(width),
            aggregation="mean",
            hidden=width,
        )
        cloud_coords = np.array([[0.25, 0.75]])
        cloud = PointCloud(cloud_coords, np.zeros((1, 2)))
        spec = GridSpec(resolution=1, lo=0.0, hi=1.0, dim=2)  # lattice point (0.5, 0.5)
        fwd = edge_set([(0, 0)], Direction.CLOUD_TO_GRID, 1, 1)
        grid = gridify(cloud, spec, fwd, params)
        np.testing.assert_allclose(grid.feats, [[1.0, -1.0]])  # sin(2 pi (0.25, -0.25))
        back = degridify(Grid(spec, np.zeros((1, 2))), cloud_coords, invert_edges(fwd), params)
        np.testing.assert_allclose(back, [[-1.0, 1.0]])


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("aggregation", ["mean", "max"])
    def test_gridify_matches_naive_loop(self, seed, aggregation):
        cloud, spec, edges, params = random_instance(seed, aggregation=aggregation)
        grid = gridify(cloud, spec, edges, params)
        want = naive_pass(
            cloud.coords, cloud.feats, make_grid_coords(spec),
            list(zip(edges.src, edges.dst)), params, spec.n_points,
        )
        np.testing.assert_allclose(grid.feats, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4, 7))
    @pytest.mark.parametrize("aggregation", ["mean", "max"])
    def test_degridify_matches_naive_loop(self, seed, aggregation):
        cloud, spec, edges, params = random_instance(seed, aggregation=aggregation)
        grid = gridify(cloud, spec, edges, params)
        # the reverse map gets its own networks: grid channels in, cloud features out
        back_params = init_gridifier(
            params.f_out, 2, 6, 3, np.random.default_rng(seed + 100),
            omega=0.8, aggregation=aggregation,
        )
        inv = invert_edges(edges)
        out = degridify(grid, cloud.coords, inv, back_params)
        want = naive_pass(
            grid.coords, grid.feats, cloud.coords,
            list(zip(inv.src, inv.dst)), back_params, cloud.n_points,
        )
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)


def reindex_cloud(cloud, edges, perm):
    """Renumber cloud points by ``perm`` and rewrite edge endpoints to match."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    permuted = PointCloud(cloud.coords[perm], cloud.feats[perm])
    pairs = [(inv[s], d) for s, d in zip(edges.src, edges.dst)]
    return permuted, edge_set(pairs, edges.direction, edges.n_src, edges.n_dst)


class TestInvariances:
    @pytest.mark.parametrize("aggregation", ["mean", "max"])
    def test_permutation_bit_identity(self, aggregation):
        rng = np.random.default_rng(21)
        cloud, spec, edges, params = random_instance(21, aggregation=aggregation)
        base = gridify(cloud, spec, edges, params)
        for _ in range(5):
            perm = rng.permutation(cloud.n_points)
            permuted, pedges = reindex_cloud(cloud, edges, perm)
            got = gridify(permuted, spec, pedges, params)
            np.testing.assert_array_equal(got.feats, base.feats)

    def test_permutation_bit_identity_with_rebuilt_edges(self):
        # the full pipeline: connectivity is reconstructed from the permuted
        # coordinates instead of being reindexed
        rng = np.random.default_rng(22)
        cloud, spec, edges, params = random_instance(22)
        base = gridify(cloud, spec, edges, params)
        grid_coords = make_grid_coords(spec)
        for _ in range(3):
            perm = rng.permutation(cloud.n_points)
            permuted = PointCloud(cloud.coords[perm], cloud.feats[perm])
            pedges = bilateral_knn(permuted.coords, grid_coords, 3)
            got = gridify(permuted, spec, pedges, params)
            np.testing.assert_array_equal(got.feats, base.feats)

    def test_translation_bit_identity_on_dyadic_coords(self):
        # coordinates on a 2^-20 lattice make every relative position exact,
        # so translating cloud and grid together cannot change a single bit
        rng = np.random.default_rng(23)
        scale = 2.0**-20
        coords = rng.integers(-(2**20), 2**20, size=(50, 3)) * scale
        feats = rng.normal(size=(50, 2))
        grid_coords = make_grid_coords(GridSpec(resolution=5, dim=3))
        edges = bilateral_knn(coords, grid_coords, 3)
        params = init_gridifier(2, 3, 6, 3, rng, omega=0.5)
        base = gridify_features(Tensor(feats), coords, grid_coords, edges, params)
        for t in ([0.375, -1.25, 0.5], [2.0, 2.0, 2.0], [-0.0625, 0.03125, 7.0]):
            shift = np.asarray(t)
            shifted_edges = bilateral_knn(coords + shift, grid_coords + shift, 3)
            np.testing.assert_array_equal(shifted_edges.src, edges.src)
            np.testing.assert_array_equal(shifted_edges.dst, edges.dst)
            got = gridify_features(
                Tensor(feats), coords + shift, grid_coords + shift, shifted_edges, params
            )
            np.testing.assert_array_equal(got.data, base.data)


def lexsort_edge_order(src, dst, coords, feats):
    """The per-edge oracle: one lexsort of the E edges on (dst, coords, feats)."""
    coord_keys = [coords[src][:, c] for c in reversed(range(coords.shape[1]))]
    feat_keys = [feats[src][:, c] for c in reversed(range(feats.shape[1]))]
    return np.lexsort((*feat_keys, *coord_keys, dst))


def _order_cases():
    rng = np.random.default_rng(24)
    base = rng.uniform(-1, 1, (30, 3))
    lattice = make_grid_coords(GridSpec(resolution=4, dim=3))
    on_lattice = lattice[rng.integers(0, lattice.shape[0], 60)]
    dup_rows = np.concatenate([base, base[:12], base[:5]])
    dup_feats = rng.integers(-1, 2, (30, 2)).astype(float)
    return {
        "duplicated_coords": (np.concatenate([base, base]), rng.normal(size=(60, 2)), 4),
        "duplicated_coord_feature_rows": (
            dup_rows, np.concatenate([dup_feats, dup_feats[:12], dup_feats[:5]]), 4
        ),
        "one_dimensional": (rng.integers(-8, 9, (40, 1)) / 8.0, rng.normal(size=(40, 1)), 6),
        "two_dimensional": (rng.integers(-4, 5, (50, 2)) / 4.0, rng.integers(0, 2, (50, 3)) * 1.0, 3),
        "on_lattice": (on_lattice, rng.integers(0, 2, (60, 1)) * 1.0, 4),
    }


_ORDER_CASES = _order_cases()


@pytest.mark.parametrize("coords, feats, res", list(_ORDER_CASES.values()), ids=list(_ORDER_CASES))
def test_rank_keyed_order_matches_edge_lexsort(coords, feats, res):
    grid = make_grid_coords(GridSpec(resolution=res, dim=coords.shape[1]))
    edges = bilateral_knn(coords, grid, 3)
    got = _canonical_edge_order(edges.src, edges.dst, coords, feats)
    want = lexsort_edge_order(edges.src, edges.dst, coords, feats)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n_rows", [3, 17, 40, 125, 256, 729])
@pytest.mark.parametrize("width", [2, 4, 16])
def test_split_layer_row_bits_follow_the_row_not_its_position(n_rows, width):
    # phi_msg's split first layer multiplies all N source rows before the
    # gather, so permutation invariance (criterion 4) needs each row of
    # node @ W_a to come out the same wherever the row sits in the matrix
    rng = np.random.default_rng(n_rows * width)
    node, coords = rng.normal(size=(n_rows, width)), rng.normal(size=(n_rows, 3))
    dst_coords = rng.normal(size=(50, 3))
    freq = rng.normal(size=(1, 3))
    pos = [(rng.normal(size=(2, width)), rng.normal(size=width))]
    msg = [(rng.normal(size=(2 * width, width)), rng.normal(size=width))]
    src, dst = rng.integers(0, n_rows, 50), np.arange(50)
    base = ad.message_aggregate(node, coords, dst_coords, src, dst, freq, pos, msg, "mean").data
    w = msg[0][0]
    for perm in (rng.permutation(n_rows), np.roll(np.arange(n_rows), 1), np.arange(n_rows)[::-1]):
        slot = np.empty_like(perm)
        slot[perm] = np.arange(n_rows)
        moved = ad.message_aggregate(
            node[perm], coords[perm], dst_coords, slot[src], dst, freq, pos, msg, "mean"
        ).data
        np.testing.assert_array_equal(moved, base)
        np.testing.assert_array_equal(node[perm] @ w[:width], (node @ w[:width])[perm])


# ---------------------------------------------------------------------------
# the fused, edge-blocked node against the unfused composition it replaced
# ---------------------------------------------------------------------------


def unfused_gather_concat_affine(rows, index, x, w, b):
    """[rows[index] ; x] @ w + b with the rows' product taken once per row."""
    split = rows.shape[1]
    w_rows, w_x = w.data[:split], w.data[split:]
    data = (rows.data @ w_rows)[index]
    data += x.data @ w_x
    data += b.data
    out = Tensor(data, (rows, x, w, b))

    def backward(g):
        g_rows = ad._sum_rows_at(g, index, rows.shape[0])
        rows.accumulate(g_rows @ w_rows.T)
        x.accumulate(g @ w_x.T)
        w.accumulate(np.concatenate([rows.data.T @ g_rows, x.data.T @ g]))
        b.accumulate(g.sum(axis=0))

    out._backward = backward
    return out


def unfused_aggregate(values, dst, n_dst, mode):
    """Mean or max over destination-sorted rows; max gradients go to the first
    row attaining the maximum."""
    counts = np.bincount(dst, minlength=n_dst)
    if mode == "mean":
        data = ad._sum_rows_at(values.data, dst, n_dst)
        data /= counts[:, None]
        out = Tensor(data, (values,))
        out._backward = lambda g: values.accumulate((g / counts[:, None])[dst])
        return out
    n = values.shape[0]
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    data = np.maximum.reduceat(values.data, starts, axis=0)
    hits = np.where(values.data == np.repeat(data, counts, axis=0), np.arange(n)[:, None], n)
    winner = np.minimum.reduceat(hits, starts, axis=0)
    out = Tensor(data, (values,))

    def backward(g):
        grad = np.zeros_like(values.data)
        hit = winner < n
        grad[winner[hit], np.nonzero(hit)[1]] += g[hit]
        values.accumulate(grad)

    out._backward = backward
    return out


def unfused_pass(src_feats, src_coords, dst_coords, edges, params):
    """The taped composition ``degridify_features`` ran before the fused node:
    every per-edge array of the whole edge set exists at once."""
    node = mlp_forward(params.phi_node, src_feats)
    pos = taped_positional(params.phi_pos, dst_coords[edges.dst] - src_coords[edges.src])
    w, b = params.phi_msg.weights, params.phi_msg.biases
    msg = unfused_gather_concat_affine(node, edges.src, pos, w[0], b[0])
    for i in range(1, len(w)):
        msg = ad.affine(ad.gelu(msg), w[i], b[i])
    agg = unfused_aggregate(msg, edges.dst, edges.n_dst, params.aggregation)
    return mlp_forward(params.phi_upd, agg)


BLOCK_ROWS, HIDDEN = 8, 4
# edges per destination; blocks hold BLOCK_ROWS edges
BLOCK_CASES = {
    "below-one-block": [2, 3, 2],
    "exactly-one-block": [3, 3, 2],
    "many-blocks": [1, 3, 2, 4, 1, 2, 3, 3, 1, 4, 2, 2, 1, 3, 4, 2, 1, 1, 3, 2],
    "destination-over-budget": [2, 13, 3, 1, 2],
    "one-edge-before-a-large-destination": [1, 12, 3],
    "one-row-tail": [4, 4, 1],
}
EXPECTED_BLOCKS = {
    "below-one-block": [(0, 3)],
    "exactly-one-block": [(0, 3)],
    "destination-over-budget": [(0, 1), (1, 2), (2, 5)],
    "one-edge-before-a-large-destination": [(0, 2), (2, 3)],
    # the one-edge tail joins the block before it
    "one-row-tail": [(0, 3)],
}


def block_instance(counts, aggregation, seed=50):
    rng = np.random.default_rng(seed)
    n_src, n_dst = 16, len(counts)
    src = np.concatenate([np.sort(rng.choice(n_src, c, replace=False)) for c in counts])
    dst = np.repeat(np.arange(n_dst), counts)
    edges = EdgeSet(src, dst, Direction.GRID_TO_CLOUD, n_src, n_dst)
    h = HIDDEN
    params = init_gridifier(2, 3, h, 3, rng, omega=0.8, aggregation=aggregation)
    coords = (rng.uniform(-1, 1, (n_src, 3)), rng.uniform(-1, 1, (n_dst, 3)))
    return rng.normal(size=(n_src, 2)), coords, edges, params


class TestFusedMessagePassing:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(ad, "_MESSAGE_BLOCK_BYTES", BLOCK_ROWS * 8 * HIDDEN)

    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_blocks_are_cut_between_destinations(self, case):
        counts = BLOCK_CASES[case]
        starts = np.concatenate([[0], np.cumsum(counts)])
        blocks = ad._segment_blocks(starts, HIDDEN, ad._MESSAGE_BLOCK_BYTES)
        assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
        assert blocks[-1][1] == len(counts)
        assert min(starts[b] - starts[a] for a, b in blocks) >= 2
        if case in EXPECTED_BLOCKS:
            assert blocks == EXPECTED_BLOCKS[case]
        else:
            assert len(blocks) > 2
            assert max(starts[b] - starts[a] for a, b in blocks) <= BLOCK_ROWS

    @pytest.mark.parametrize("aggregation", ["mean", "max"])
    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_forward_bits_and_gradients_match_unfused(self, case, aggregation):
        feats, (src_coords, dst_coords), edges, params = block_instance(
            BLOCK_CASES[case], aggregation
        )
        weight = np.random.default_rng(51).normal(size=(edges.n_dst, params.f_out))
        results = []
        for run in (degridify_features, unfused_pass):
            x = Tensor(feats)
            tensors = [x, *params.named_parameters().values()]
            for t in tensors:
                t.grad = None
            out = run(x, src_coords, dst_coords, edges, params)
            ad.reduce_mean(ad.mul(out, weight)).backward()
            results.append((out.data, [t.grad for t in tensors]))
        (fused, fused_grads), (want, want_grads) = results
        np.testing.assert_array_equal(fused, want)
        for got, expected in zip(fused_grads, want_grads):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


def test_gridify_forward_holds_less_than_one_edge_array():
    # the parent composition held about a dozen (E, H) float64 arrays at once
    # (110 MB here); the fused node holds a few blocks of them.  phi_node runs
    # taped over the N source rows, so its own peak is measured and set aside
    rng = np.random.default_rng(60)
    n, h = 8000, 16
    coords, feats = rng.uniform(-1, 1, (n, 3)), Tensor(rng.normal(size=(n, 1)))
    grid_coords = make_grid_coords(GridSpec(resolution=9, dim=3))
    edges = bilateral_knn(coords, grid_coords, 9)
    params = init_gridifier(1, h, h, 3, rng, omega=1.0)

    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    node_peak = traced_peak(lambda: mlp_forward(params.phi_node, feats))
    peak = traced_peak(lambda: gridify_features(feats, coords, grid_coords, edges, params))
    assert peak - node_peak < edges.n_edges * h * 8


# ---------------------------------------------------------------------------
# end-to-end gradients
# ---------------------------------------------------------------------------


def collect_arrays(params: GridifierParams) -> list[np.ndarray]:
    return [p.data.copy() for p in params.named_parameters().values()]


def rebuild_mlp(template: MlpParams, it) -> MlpParams:
    ws, bs = [], []
    for _ in template.weights:
        ws.append(next(it))
        bs.append(next(it))
    return MlpParams(ws, bs)


def rebuild_params(template: GridifierParams, tensors: list[Tensor]) -> GridifierParams:
    it = iter(tensors)
    phi_node = rebuild_mlp(template.phi_node, it)
    phi_pos = PositionalNet(next(it), rebuild_mlp(template.phi_pos.head, it))
    phi_msg = rebuild_mlp(template.phi_msg, it)
    phi_upd = rebuild_mlp(template.phi_upd, it)
    return GridifierParams(
        phi_node, phi_pos, phi_msg, phi_upd, template.aggregation, template.hidden
    )


@pytest.mark.parametrize("aggregation", ["mean", "max"])
def test_end_to_end_gradient_matches_finite_differences(aggregation):
    rng = np.random.default_rng(31)
    n, f_in = 6, 1
    cloud_coords = rng.uniform(-1, 1, (n, 2))
    cloud_feats = rng.normal(size=(n, f_in))
    grid_coords = make_grid_coords(GridSpec(resolution=2, dim=2))
    edges = bilateral_knn(cloud_coords, grid_coords, 2)
    inv = invert_edges(edges)
    template = init_gridifier(f_in, f_in, 2, 2, rng, omega=0.7, n_frequencies=2,
                              aggregation=aggregation)
    target = rng.normal(size=(n, f_in))

    def build(ts):
        params = rebuild_params(template, ts[1:])
        on_grid = gridify_features(ts[0], cloud_coords, grid_coords, edges, params)
        back = degridify_features(on_grid, grid_coords, cloud_coords, inv, params)
        return ad.mse(back, target)

    assert_grads_match(build, [cloud_feats] + collect_arrays(template))


# ---------------------------------------------------------------------------
# guards and the requirement checker
# ---------------------------------------------------------------------------


class TestGuards:
    def test_wrong_direction_rejected(self):
        cloud, spec, edges, params = random_instance(40)
        with pytest.raises(ConfigError):
            gridify(cloud, spec, invert_edges(edges), params)

    def test_disconnected_destination_rejected(self):
        cloud = PointCloud(np.array([[0.1, 0.1], [0.9, 0.9]]), np.ones((2, 1)))
        spec = GridSpec(resolution=2, lo=0.0, hi=1.0, dim=2)
        edges = edge_set(
            [(0, 0), (1, 1), (0, 2)], Direction.CLOUD_TO_GRID, 2, 4
        )  # grid point 3 unreached
        with pytest.raises(InvariantError, match="3"):
            gridify(cloud, spec, edges, projection_params(1))


class TestRequirements:
    def test_undersized_grid_flagged(self):
        got = check_requirements(1000, 1, GridSpec(resolution=9, dim=3))
        assert [v.requirement for v in got] == ["grid-capacity"]
        assert "729" in got[0].message and "1000" in got[0].message

    def test_matching_grid_clean(self):
        assert check_requirements(1000, 1, GridSpec(resolution=10, dim=3)) == []

    def test_narrow_node_net_flagged(self):
        rng = np.random.default_rng(0)
        params = init_gridifier(4, 4, 8, 3, rng)
        from gridifier.nn import init_mlp

        params.phi_node = init_mlp([4, 3, 8], rng)  # hidden 3 < feature width 4
        got = check_requirements(100, 4, GridSpec(resolution=5, dim=3), params)
        assert [v.requirement for v in got] == ["node-width"]

    def test_narrow_message_and_update_nets_flagged(self):
        rng = np.random.default_rng(1)
        params = init_gridifier(4, 4, 6, 3, rng)  # hidden 6 < 4 + 3
        got = check_requirements(100, 4, GridSpec(resolution=5, dim=3), params)
        assert {v.requirement for v in got} == {"message-width", "update-width"}

    def test_positional_net_without_frequencies_rejected(self):
        # the high-frequency requirement holds by construction: a positional
        # network with no sinusoid frequency cannot be built
        empty_head = MlpParams([Tensor(np.zeros((0, 2)))], [Tensor(np.zeros(2))])
        with pytest.raises(ConfigError, match="at least one frequency"):
            PositionalNet(Tensor(np.zeros((0, 2))), empty_head)

    def test_connectivity_verified_on_edges(self):
        edges = edge_set([(0, 0), (0, 1)], Direction.CLOUD_TO_GRID, 2, 2)
        got = check_requirements(2, 1, GridSpec(resolution=2, dim=1), None, 1, edges)
        assert [v.requirement for v in got] == ["cloud-connected"]
        assert "1" in got[0].message

    def test_bilateral_edges_clean(self):
        cloud, spec, edges, params = random_instance(41)
        got = check_requirements(cloud.n_points, 2, spec, None, 3, edges)
        assert got == []

    def test_violation_formats(self):
        v = Violation("grid-capacity", "too small")
        assert str(v) == "grid-capacity: too small"

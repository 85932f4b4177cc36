import tracemalloc

import numpy as np
import pytest
from helpers import assert_grads_match, rand

from gridifier import autodiff as ad
from gridifier.autodiff import Tensor
from gridifier.errors import InvariantError, ShapeError


def aggregate_rows(values, dst, n_dst, mode):
    """``message_aggregate`` whose message on edge e is row e of ``values``:
    one source row per edge, one frequency under a zero positional head, and
    a one-layer message network that passes the node half through unchanged."""
    values = ad.as_tensor(values)
    n_rows, width = values.shape
    pass_node = np.vstack([np.eye(width), np.zeros((1, width))])
    return ad.message_aggregate(
        values, np.zeros((n_rows, 1)), np.zeros((n_dst, 1)), np.arange(n_rows), dst,
        np.ones((1, 1)), [(np.zeros((2, 1)), np.zeros(1))], [(pass_node, np.zeros(width))], mode,
    )


def sum_rows(values, dst):
    """``edge_conv`` whose message on edge e is row e of ``values``: one
    source row per edge, and one frequency under a zero-weight kernel layer
    whose bias is the identity kernel."""
    values = ad.as_tensor(values)
    n_rows, width = values.shape
    identity = np.eye(width).ravel()
    return ad.edge_conv(
        np.zeros((n_rows, 1)), values, np.arange(n_rows), dst, np.ones((1, 1)),
        [(np.zeros((2, width * width)), identity)],
    )


def sinusoid(rel, freq):
    """[cos 2 pi B r ; sin 2 pi B r] per row, in the positional node's
    operation order."""
    z = rel @ freq.T
    z *= 2.0 * np.pi
    return np.concatenate([np.cos(z), np.sin(z)], axis=1)


def edge_conv_inputs(rng, n=6, c_in=2, c_out=3, freqs=2, hidden=4):
    """Tensor inputs of ``edge_conv`` in a fixed order: source rows,
    frequencies, then (w, b) of a hidden layer and of the kernel layer."""
    shapes = [(n, c_in), (freqs, 2), (2 * freqs, hidden), (hidden,),
              (hidden, c_in * c_out), (c_in * c_out,)]
    return [rand(rng, *shape) for shape in shapes]


def apply_edge_conv(ts, coords, edges):
    x, freq, *layers = ts
    return ad.edge_conv(coords, x, *edges, freq, [layers[:2], layers[2:]])


def message_inputs(rng, n_src=5, n_dst=4, dim=2, width=3, freqs=2, hidden=4):
    """Tensor inputs of ``message_aggregate`` in a fixed order: node rows,
    frequencies, then (w, b) of a two-layer positional head and a two-layer
    message network."""
    shapes = [(n_src, width), (freqs, dim),
              (2 * freqs, hidden), (hidden,), (hidden, width), (width,),
              (2 * width, hidden), (hidden,), (hidden, width), (width,)]
    return [rand(rng, *shape) for shape in shapes]


def apply_message_aggregate(ts, coords, edges, mode):
    (src_coords, dst_coords), (src, dst) = coords, edges
    node, freq, *layers = ts
    pos = [(layers[0], layers[1]), (layers[2], layers[3])]
    msg = [(layers[4], layers[5]), (layers[6], layers[7])]
    return ad.message_aggregate(node, src_coords, dst_coords, src, dst, freq, pos, msg, mode)


class TestForwardValues:
    def test_scatter_mean_pair(self):
        out = aggregate_rows([[1.0], [3.0]], np.array([0, 0]), 1, "mean")
        np.testing.assert_array_equal(out.data, [[2.0]])

    def test_scatter_max_pair_and_subgradient(self):
        values = Tensor([[1.0], [3.0]])
        out = aggregate_rows(values, np.array([0, 0]), 1, "max")
        np.testing.assert_array_equal(out.data, [[3.0]])
        ad.reduce_mean(out).backward()
        np.testing.assert_array_equal(values.grad, [[0.0], [1.0]])

    def test_scatter_max_tie_goes_to_first_row(self):
        # the first row in canonical (destination-sorted) order wins a tie
        values = Tensor([[5.0], [5.0], [5.0]])
        out = aggregate_rows(values, np.array([0, 1, 0]), 2, "max")
        ad.reduce_mean(out).backward()
        np.testing.assert_array_equal(values.grad, [[0.5], [0.5], [0.0]])

    def test_scatter_max_nan_has_no_winner(self):
        # destination 0's maximum is NaN, so neither of its rows gets a gradient
        values = Tensor([[np.nan], [2.0], [3.0]])
        out = aggregate_rows(values, np.array([0, 0, 1]), 2, "max")
        np.testing.assert_array_equal(out.data, [[np.nan], [3.0]])
        ad.reduce_mean(out).backward()
        np.testing.assert_array_equal(values.grad, [[0.0], [0.0], [0.5]])

    @pytest.mark.parametrize("layout", ["sorted", "unsorted"])
    def test_scatter_max_bits_match_per_destination_loop(self, layout):
        rng = np.random.default_rng(41)
        # few distinct values tie across several rows of a destination
        values = rng.integers(-2, 3, size=(60, 4)).astype(float)
        values[::3] += rng.normal(size=(20, 4))
        # destination 0 receives row 0 only
        idx = np.concatenate([np.arange(8), rng.integers(1, 8, size=52)])
        if layout == "sorted":
            idx = np.sort(idx)
        g = rng.normal(size=(8, 4))

        expected = np.empty((8, 4))
        expected_grad = np.zeros_like(values)
        for d in range(8):
            rows = [r for r in range(60) if idx[r] == d]
            for c in range(4):
                best = rows[0]
                for r in rows[1:]:
                    if values[r, c] > values[best, c]:
                        best = r
                expected[d, c] = values[best, c]
                expected_grad[best, c] += g[d, c] / g.size

        t = Tensor(values)
        out = aggregate_rows(t, idx, 8, "max")
        ad.reduce_mean(ad.mul(out, g)).backward()
        np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(t.grad, expected_grad)

    def test_scatter_mean_constant_identity(self):
        # aggregating a constant yields that constant at every destination
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 5, size=40)
        idx[:5] = np.arange(5)  # cover every destination
        values = Tensor(np.full((40, 3), 2.5))
        out = aggregate_rows(values, idx, 5, "mean")
        np.testing.assert_allclose(out.data, 2.5, rtol=0, atol=1e-15)

    def test_scatter_empty_destination_rejected(self):
        with pytest.raises(InvariantError, match="destination 1"):
            aggregate_rows(Tensor([[1.0]]), np.array([0]), 2, "mean")

    def test_message_aggregate_rejects_bad_shapes_and_indices(self):
        rng = np.random.default_rng(42)
        ts = message_inputs(rng)
        coords = (rand(rng, 5, 2), rand(rng, 4, 2))
        edges = (np.array([0, 4, 2, 1]), np.array([0, 1, 2, 3]))
        apply_message_aggregate(ts, coords, edges, "mean")
        bad_shapes = {
            "node rows != source coords": (ts, (coords[0][:4], coords[1]), edges),
            "destination coords in 3-d": (ts, (coords[0], rand(rng, 4, 3)), edges),
            "edge arrays of two lengths": (ts, coords, (edges[0], edges[1][:3])),
            "frequencies in 3-d": ([ts[0], rand(rng, 2, 3), *ts[2:]], coords, edges),
            "head width != node width": (
                ts[:4] + [rand(rng, 4, 2), rand(rng, 2)] + ts[6:], coords, edges
            ),
            "msg layers that do not chain": (ts[:8] + [rand(rng, 3, 3)] + ts[9:], coords, edges),
            "bias of the wrong width": (ts[:9] + [rand(rng, 2)], coords, edges),
        }
        for what, (inputs, cs, es) in bad_shapes.items():
            with pytest.raises(ShapeError, match="message_aggregate"):
                apply_message_aggregate(inputs, cs, es, "mean")
                pytest.fail(what)
        src, dst = edges
        for bad in ((src + 1, dst), (src, dst - 1), (src, dst + 1)):
            with pytest.raises(InvariantError, match="out of bounds"):
                apply_message_aggregate(ts, coords, bad, "mean")
        with pytest.raises(InvariantError, match="mode 'sum'"):
            apply_message_aggregate(ts, coords, edges, "sum")

    @pytest.mark.parametrize("node", ["positional", "message_aggregate", "edge_conv"])
    def test_missing_frequencies_rejected(self, node):
        # every positional network starts with the sinusoid: a node given no
        # frequency matrix, or a 1-d one, fails its shape check
        rng = np.random.default_rng(45)

        def call(freq):
            if node == "positional":
                return ad.positional(rand(rng, 4, 2), freq, [(rand(rng, 4, 3), rand(rng, 3))])
            if node == "message_aggregate":
                ts = message_inputs(rng)
                coords = (rand(rng, 5, 2), rand(rng, 4, 2))
                edges = (np.array([0, 4, 2, 1]), np.array([0, 1, 2, 3]))
                return apply_message_aggregate([ts[0], freq, *ts[2:]], coords, edges, "mean")
            ts = edge_conv_inputs(rng, n=4)
            edges = (np.array([0, 1, 3]), np.array([1, 1, 2]))
            return apply_edge_conv([ts[0], freq, *ts[2:]], rand(rng, 4, 2), edges)

        call(rand(rng, 2, 2))
        for freq in (None, rand(rng, 4)):
            with pytest.raises(ShapeError, match=f"{node} shapes incompatible.*freq"):
                call(freq)

    def test_edge_conv_sums_bits_match_sequential_loop(self, monkeypatch):
        # the per-destination sums must reproduce a left-to-right
        # accumulation exactly, bit for bit, not merely to rounding error,
        # also with a budget of 8 rows, so each destination is a block of
        # its own (np.add.reduceat over the destination segments does not:
        # its sums differ in the last bits)
        rng = np.random.default_rng(40)
        values = rand(rng, 200, 4)
        idx = rng.integers(0, 7, size=200)
        expected = np.zeros((200, 4))
        for i in range(200):
            expected[idx[i]] += values[i]
        np.testing.assert_array_equal(sum_rows(values, idx).data, expected)
        monkeypatch.setattr(ad, "_RENDER_BLOCK_BYTES", 8 * 8 * 16)
        np.testing.assert_array_equal(sum_rows(values, idx).data, expected)

    def test_edge_conv_rejects_out_of_range_indices(self):
        ts = edge_conv_inputs(np.random.default_rng(43), n=2)
        coords = np.zeros((2, 2))
        for bad in (([1, -1, 0], [0, 1, 1]), ([0, 0, 1], [0, 2, 1])):
            with pytest.raises(InvariantError, match="edge_conv index out of bounds"):
                apply_edge_conv(ts, coords, [np.array(e) for e in bad])

    def test_edge_conv_rejects_bad_shapes(self):
        rng = np.random.default_rng(44)
        ts = edge_conv_inputs(rng, n=4)
        coords = rand(rng, 4, 2)
        edges = (np.array([0, 1, 3]), np.array([1, 1, 2]))
        apply_edge_conv(ts, coords, edges)
        bad_shapes = {
            # 6 kernel values per row do not fill (4, c_out) matrices
            "a width that is no kernel": ([rand(rng, 4, 4), *ts[1:]], coords, edges),
            "source rows != points": ([rand(rng, 3, 2), *ts[1:]], coords, edges),
            "coords in 3-d": (ts, rand(rng, 4, 3), edges),
            "edge arrays of two lengths": (ts, coords, (edges[0], edges[1][:2])),
            "layers that do not chain": (ts[:4] + [rand(rng, 3, 6)] + ts[5:], coords, edges),
            "bias of the wrong width": (ts[:5] + [rand(rng, 5)], coords, edges),
        }
        for what, (inputs, cs, es) in bad_shapes.items():
            with pytest.raises(ShapeError, match="edge_conv"):
                apply_edge_conv(inputs, cs, es)
                pytest.fail(what)

    @pytest.mark.parametrize("n_rows", [1, 2, 9, 10, 11, 13])
    def test_edge_conv_matches_row_products(self, monkeypatch, n_rows):
        # one edge per destination and blocks of 3 rows: one block, several,
        # and a one-row tail that is folded into the block before it
        monkeypatch.setattr(ad, "_RENDER_BLOCK_BYTES", 3 * 8 * 6)
        starts = np.arange(n_rows + 1)
        blocks = ad._segment_blocks(starts, 6, ad._RENDER_BLOCK_BYTES)
        assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
        assert blocks[-1][1] == n_rows
        assert n_rows == 1 or min(b - a for a, b in blocks) >= 2
        rng = np.random.default_rng(21)
        coords, w, b, x = rand(rng, n_rows, 2), rand(rng, 2, 6), rand(rng, 6), rand(rng, n_rows, 2)
        freq = rand(rng, 1, 2)
        src = rng.integers(0, n_rows, size=n_rows)
        out = ad.edge_conv(coords, Tensor(x), src, np.arange(n_rows), freq, [(w, b)])
        expected = np.stack([
            x[s] @ (sinusoid(coords[[d]] - coords[[s]], freq) @ w + b).reshape(2, 3)
            for d, s in enumerate(src)
        ])
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-13)

    def test_gelu_matches_definition(self):
        from scipy.special import erf

        x = np.linspace(-3, 3, 13)
        out = ad.gelu(Tensor(x))
        np.testing.assert_allclose(out.data, x * 0.5 * (1 + erf(x / np.sqrt(2))), atol=1e-15)

    def test_softmax_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 3)))
        loss = ad.softmax_cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert abs(loss.item() - np.log(3.0)) < 1e-12

    def test_backward_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros(3)).backward()

    def test_grid_correlate_shape_error_names_geometry(self):
        x = Tensor(np.zeros((9, 2)))
        for kernel in (np.zeros((9, 3, 1)), np.zeros((3, 2, 1)), np.zeros((9, 2))):
            with pytest.raises(ShapeError, match="r=3, D=2, K=3"):
                ad.grid_correlate(x, Tensor(kernel), 3, 2, 3)
        with pytest.raises(ShapeError, match="r=4"):
            ad.grid_correlate(x, Tensor(np.zeros((9, 2, 1))), 4, 2, 3)

    def test_positional_shape_error_names_offsets_and_layers(self):
        with pytest.raises(ShapeError, match=r"offsets \(4, 3\).*\(6, 2\)"):
            ad.positional(np.zeros((4, 3)), np.zeros((2, 3)), [(np.zeros((6, 2)), np.zeros(2))])
        with pytest.raises(ShapeError, match=r"offsets \(4,\)"):
            ad.positional(np.zeros(4), np.zeros((2, 4)), [(np.zeros((4, 2)), np.zeros(2))])


class TestGradients:
    def test_add_mul_with_bias_broadcast(self):
        rng = np.random.default_rng(2)
        arrays = [rand(rng, 6, 4), rand(rng, 4), rand(rng, 6, 4)]
        assert_grads_match(
            lambda ts: ad.reduce_mean(ad.mul(ad.add(ts[0], ts[1]), ts[2])), arrays
        )

    def test_sub_and_scalar_ops(self):
        rng = np.random.default_rng(3)
        arrays = [rand(rng, 5, 2)]
        assert_grads_match(
            lambda ts: ad.reduce_mean(ad.sub(ad.add(ad.mul(2.5, ts[0]), 1.0), ad.mul(ts[0], ts[0]))),
            arrays,
        )

    def test_message_aggregate_one_layer_message_and_one_layer_head(self):
        # one affine message layer on [node ; sinusoid(r) @ P + p] with one
        # frequency; rows 0 and 3 are gathered twice, row 2 never, and each
        # destination has one edge, so the mean is the message itself
        rng = np.random.default_rng(4)
        src = np.array([3, 0, 1, 3, 0, 4])
        src_coords, dst_coords = rand(rng, 5, 2), rand(rng, 6, 2)
        freq = 0.5 * rand(rng, 1, 2)
        arrays = [rand(rng, 5, 2), rand(rng, 2, 3), rand(rng, 3), rand(rng, 5, 4), rand(rng, 4),
                  freq]

        def build(ts):
            out = ad.message_aggregate(
                ts[0], src_coords, dst_coords, src, np.arange(6), ts[5],
                [(ts[1], ts[2])], [(ts[3], ts[4])], "mean",
            )
            return ad.reduce_mean(ad.mul(out, out))

        assert_grads_match(build, arrays)
        out = build([Tensor(a) for a in arrays])
        pos = sinusoid(dst_coords - src_coords[src], freq) @ arrays[1] + arrays[2]
        joined = np.concatenate([arrays[0][src], pos], axis=1)
        want = joined @ arrays[3] + arrays[4]
        np.testing.assert_allclose(out.data, np.mean(want * want), rtol=1e-14)

    def test_reshape(self):
        rng = np.random.default_rng(5)
        arrays = [rand(rng, 4, 6)]
        assert_grads_match(
            lambda ts: ad.reduce_mean(ad.mul(ad.reshape(ts[0], (2, 12)), 3.0)), arrays
        )

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_reduce_mean_axes(self, axis):
        rng = np.random.default_rng(6)
        arrays = [rand(rng, 4, 3)]
        assert_grads_match(
            lambda ts: ad.reduce_mean(ad.mul(ad.reduce_mean(ts[0], axis=axis), 2.0)),
            arrays,
        )

    @pytest.mark.parametrize("mode", ["mean", "max"])
    def test_message_aggregate(self, monkeypatch, mode):
        # blocks of 4 edges of width 3, so the backward recomputes blocks and
        # sums the source-row and weight gradients across them; destination 2
        # has more edges than a block
        monkeypatch.setattr(ad, "_MESSAGE_BLOCK_BYTES", 4 * 8 * 3)
        rng = np.random.default_rng(10)
        dst = np.repeat(np.arange(6), [2, 1, 6, 3, 2, 3])
        src = rng.integers(0, 5, size=dst.size)
        starts = np.concatenate([[0], np.cumsum(np.bincount(dst))])
        assert len(ad._segment_blocks(starts, 3, ad._MESSAGE_BLOCK_BYTES)) >= 4
        coords = (rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (6, 2)))
        arrays = message_inputs(rng, n_dst=6)
        weight = rand(rng, 6, 3)
        def build(ts):
            out = apply_message_aggregate(ts, coords, (src, dst), mode)
            return ad.reduce_mean(ad.mul(out, weight))

        assert_grads_match(build, arrays)

    def test_edge_conv(self, monkeypatch):
        # blocks of 3 edges of 6 kernel values, so the backward recomputes
        # blocks and sums every gradient across them; destination 2 has more
        # edges than a block, point 5 receives none, source rows 1 and 3 are
        # unused, and the edges arrive unsorted
        monkeypatch.setattr(ad, "_RENDER_BLOCK_BYTES", 3 * 8 * 6)
        rng = np.random.default_rng(11)
        dst = np.repeat(np.arange(5), [2, 1, 4, 3, 2])
        src = np.array([0, 5, 2, 2, 4, 0, 2, 5, 0, 2, 4, 5])
        order = rng.permutation(dst.size)
        starts = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=6))])
        assert len(ad._segment_blocks(starts, 6, ad._RENDER_BLOCK_BYTES)) >= 4
        coords = rng.uniform(-1, 1, (6, 2))
        arrays = edge_conv_inputs(rng)
        weight = rand(rng, 6, 3)
        assert_grads_match(
            lambda ts: ad.reduce_mean(
                ad.mul(apply_edge_conv(ts, coords, (src[order], dst[order])), weight)
            ),
            arrays,
        )

    def test_affine(self):
        rng = np.random.default_rng(20)
        arrays = [rand(rng, 6, 3), rand(rng, 3, 4), rand(rng, 4)]
        assert_grads_match(
            lambda ts: ad.reduce_mean(ad.affine(ts[0], ts[1], ts[2])), arrays
        )

    def test_affine_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(22)
        x, w, b = rand(rng, 5, 3), rand(rng, 3, 2), rand(rng, 2)
        fused = ad.affine(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
        np.testing.assert_array_equal(fused.data, x @ w + b)

    @pytest.mark.parametrize("op", [ad.gelu], ids=["gelu"])
    def test_nonlinearities(self, op):
        rng = np.random.default_rng(12)
        arrays = [rand(rng, 5, 4)]
        assert_grads_match(lambda ts: ad.reduce_mean(op(ts[0])), arrays)

    def test_channel_norm(self):
        rng = np.random.default_rng(14)
        arrays = [rand(rng, 6, 5), rand(rng, 5), rand(rng, 5)]
        assert_grads_match(
            lambda ts: ad.reduce_mean(ad.channel_norm(ts[0], ts[1], ts[2])), arrays
        )

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(15)
        arrays = [rand(rng, 6, 4)]
        labels = rng.integers(0, 4, size=6)
        assert_grads_match(
            lambda ts: ad.softmax_cross_entropy(ts[0], labels), arrays
        )

    def test_dropout_mask_is_gradient_mask(self):
        rng = np.random.default_rng(16)
        x = Tensor(rand(rng, 10, 4))
        out = ad.dropout(x, 0.5, np.random.default_rng(7))
        ad.reduce_mean(out).backward()
        mask = out.data / np.where(x.data == 0.0, 1.0, x.data)
        np.testing.assert_allclose(x.grad, mask / x.data.size, atol=1e-12)

    def test_reused_subexpression_accumulates(self):
        # diamond graph: y = x*x + x*x must give dy/dx = 4x
        x = Tensor(np.array([[3.0]]))
        sq = ad.mul(x, x)
        ad.reduce_mean(ad.add(sq, sq)).backward()
        np.testing.assert_allclose(x.grad, [[12.0]])

    def test_composed_network(self):
        rng = np.random.default_rng(17)
        arrays = [rand(rng, 7, 3), rand(rng, 3, 5), rand(rng, 5), rand(rng, 5, 2)]
        idx = np.concatenate([np.arange(3), rng.integers(0, 3, size=4)])

        def build(ts):
            h = ad.gelu(ad.affine(ts[0], ts[1], ts[2]))
            pooled = aggregate_rows(h, idx, 3, "mean")
            out = ad.affine(pooled, ts[3], np.zeros(2))
            return ad.reduce_mean(ad.mul(out, out))

        assert_grads_match(build, arrays)


class TestBuffers:
    """Each node allocates its full-size output once; gradients are adopted,
    shared where a rule hands one array on, and never written in place."""

    @staticmethod
    def _peak_bytes(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_affine_peak_is_one_output(self):
        rng = np.random.default_rng(30)
        x, w, b = Tensor(rand(rng, 20000, 32)), Tensor(rand(rng, 32, 64)), Tensor(rand(rng, 64))
        out, peak = self._peak_bytes(lambda: ad.affine(x, w, b))
        np.testing.assert_array_equal(out.data, x.data @ w.data + b.data)
        assert peak < 1.1 * out.data.nbytes

    def test_message_aggregate_keeps_the_sum_order(self):
        # the split first layer: (node @ w[:H])[src] + pos @ w[H:] + b, in that
        # order; one edge per destination makes the mean the message itself
        rng = np.random.default_rng(32)
        node, p, pb = rand(rng, 5, 3), rand(rng, 2, 2), rand(rng, 2)
        w, b = rand(rng, 5, 4), rand(rng, 4)
        src = rng.integers(0, 5, size=9)
        src_coords, dst_coords = rand(rng, 5, 2), rand(rng, 9, 2)
        freq = rand(rng, 1, 2)
        out = ad.message_aggregate(
            node, src_coords, dst_coords, src, np.arange(9), freq, [(p, pb)], [(w, b)], "mean"
        )
        pos = sinusoid(dst_coords - src_coords[src], freq) @ p + pb
        np.testing.assert_array_equal(out.data, (node @ w[:3])[src] + pos @ w[3:] + b)

    def test_first_gradient_is_adopted_without_copy(self):
        leaf = Tensor(np.zeros(3))
        fresh = np.arange(3.0)
        Tensor(0.0, (leaf,), lambda g: leaf.accumulate(fresh)).backward()
        assert leaf.grad is fresh

    def test_shared_gradient_survives_a_later_backward(self):
        # add hands one array to both parents; a second backward that reaches
        # only ``a`` must leave ``b``'s copy of that array as it was
        rng = np.random.default_rng(33)
        a, b = Tensor(rand(rng, 4, 3)), Tensor(rand(rng, 4, 3))
        ad.reduce_mean(ad.add(a, b)).backward()
        first = b.grad.copy()
        ad.reduce_mean(ad.mul(a, 3.0)).backward()
        np.testing.assert_array_equal(b.grad, first)
        np.testing.assert_array_equal(a.grad, first + np.full((4, 3), 3.0 / 12))

    def test_add_of_a_tensor_with_itself_doubles_the_gradient(self):
        x = Tensor(rand(np.random.default_rng(34), 2, 5))
        ad.reduce_mean(ad.add(x, x)).backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 5), 2.0 / 10))

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import assert_grads_match, rand
from scipy.special import erf

import gridifier
from gridifier import autodiff as ad
from gridifier.autodiff import Tensor
from gridifier.errors import ConfigError, InvariantError, ShapeError
from gridifier.nn import MlpParams, PositionalNet


def mlp(*arrays):
    """``MlpParams`` of its layers' weights and biases, w0, b0, w1, b1, ..."""
    ts = [ad.as_tensor(a) for a in arrays]
    return MlpParams(ts[::2], ts[1::2])


def pos_net(freq, *arrays):
    """``PositionalNet`` of the frequencies and its head's layers, as ``mlp``."""
    return PositionalNet(ad.as_tensor(freq), mlp(*arrays))


def aggregate_rows(values, dst, n_dst, mode):
    """``message_aggregate`` whose message on edge e is row e of ``values``:
    one source row per edge, one frequency under a zero positional head, and
    a one-layer message network that passes the node half through unchanged."""
    values = ad.as_tensor(values)
    n_rows, width = values.shape
    pass_node = np.vstack([np.eye(width), np.zeros((1, width))])
    return ad.message_aggregate(
        values, np.zeros((n_rows, 1)), np.zeros((n_dst, 1)), np.arange(n_rows), dst,
        pos_net(np.ones((1, 1)), np.zeros((2, 1)), np.zeros(1)), mlp(pass_node, np.zeros(width)),
        mode,
    )


def sum_rows(values, dst):
    """``edge_conv`` whose message on edge e is row e of ``values``: one
    source row per edge, and one frequency under a zero-weight kernel layer
    whose bias is the identity kernel."""
    values = ad.as_tensor(values)
    n_rows, width = values.shape
    identity = np.eye(width).ravel()
    return ad.edge_conv(
        np.zeros((n_rows, 1)), values, np.arange(n_rows), dst,
        pos_net(np.ones((1, 1)), np.zeros((2, width * width)), identity),
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
    return ad.edge_conv(coords, x, *edges, pos_net(freq, *layers))


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
    pos, msg = pos_net(freq, *layers[:4]), mlp(*layers[4:])
    return ad.message_aggregate(node, src_coords, dst_coords, src, dst, pos, msg, mode)


def assert_passes_accumulate(build, arrays, weights):
    """Backward passes of ``build(ts, weight)`` for each weight into the same
    tensors, as ``_fit`` accumulates a batch, leave every gradient at the sum
    of the passes' own gradients."""
    shared = [Tensor(a) for a in arrays]
    want = [np.zeros(np.shape(a)) for a in arrays]
    for weight in weights:
        build(shared, weight).backward()
        alone = [Tensor(a) for a in arrays]
        build(alone, weight).backward()
        for w, t in zip(want, alone):
            w += t.grad
    for w, t in zip(want, shared):
        np.testing.assert_allclose(t.grad, w, rtol=1e-12, atol=1e-12)


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
        # the first of a destination's rows wins a tie
        values = Tensor([[5.0], [5.0], [5.0]])
        out = aggregate_rows(values, np.array([0, 0, 1]), 2, "max")
        ad.reduce_mean(out).backward()
        np.testing.assert_array_equal(values.grad, [[0.5], [0.0], [0.5]])

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
        else:
            # the node takes edges sorted by destination: rows move with
            # their destinations, keeping their order within each
            order = np.argsort(idx, kind="stable")
            values, idx = values[order], idx[order]
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
        idx.sort()
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
            "edge arrays in 2-d": (ts, coords, (edges[0][None], edges[1][None])),
            "frequencies in 3-d": ([ts[0], rand(rng, 2, 3), *ts[2:]], coords, edges),
            "head width != node width": (
                ts[:4] + [rand(rng, 4, 2), rand(rng, 2)] + ts[6:], coords, edges
            ),
        }
        for what, (inputs, cs, es) in bad_shapes.items():
            with pytest.raises(ShapeError, match="message_aggregate"):
                apply_message_aggregate(inputs, cs, es, "mean")
                pytest.fail(what)
        # the message network checks its own layers when it is built
        bad_layers = {
            "msg layers that do not chain": (ts[:8] + [rand(rng, 3, 3)] + ts[9:], ConfigError),
            "bias of the wrong width": (ts[:9] + [rand(rng, 2)], ShapeError),
        }
        for what, (inputs, error) in bad_layers.items():
            with pytest.raises(error, match="layer 1"):
                apply_message_aggregate(inputs, coords, edges, "mean")
                pytest.fail(what)
        src, dst = edges
        for bad in ((src + 1, dst), (src, dst - 1), (src, dst + 1)):
            with pytest.raises(InvariantError, match="out of bounds"):
                apply_message_aggregate(ts, coords, bad, "mean")
        with pytest.raises(InvariantError, match="mode 'sum'"):
            apply_message_aggregate(ts, coords, edges, "sum")

    @pytest.mark.parametrize("node", ["positional", "message_aggregate", "edge_conv"])
    def test_missing_frequencies_rejected(self, node):
        # every positional network starts with the sinusoid: the network a
        # node would take is refused when it is built without a frequency
        # matrix, or with a 1-d one
        rng = np.random.default_rng(45)

        def call(freq):
            if node == "positional":
                return ad.positional(rand(rng, 4, 2), pos_net(freq, rand(rng, 4, 3), rand(rng, 3)))
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
            with pytest.raises(ConfigError, match="needs at least one frequency"):
                call(freq)

    @pytest.mark.parametrize("node", ["message_aggregate", "edge_conv"])
    def test_unsorted_edges_rejected(self, node):
        # the per-edge nodes take edges sorted by destination and do not
        # sort them
        rows, dst = Tensor(np.ones((3, 2))), np.array([0, 1, 0])
        with pytest.raises(InvariantError, match=f"{node} needs edges sorted by destination"):
            if node == "message_aggregate":
                aggregate_rows(rows, dst, 2, "mean")
            else:
                sum_rows(rows, dst)

    def test_edge_conv_sums_bits_match_sequential_loop(self, monkeypatch):
        # the per-destination sums must reproduce a left-to-right
        # accumulation exactly, bit for bit, not merely to rounding error,
        # also with a budget of 8 rows, so each destination is a block of
        # its own (np.add.reduceat over the destination segments does not:
        # its sums differ in the last bits)
        rng = np.random.default_rng(40)
        values = rand(rng, 200, 4)
        idx = np.sort(rng.integers(0, 7, size=200))
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
            "no input channels": ([rand(rng, 4, 0), *ts[1:]], coords, edges),
            "source rows != points": ([rand(rng, 3, 2), *ts[1:]], coords, edges),
            "coords in 3-d": (ts, rand(rng, 4, 3), edges),
            "edge arrays of two lengths": (ts, coords, (edges[0], edges[1][:2])),
            "edge arrays in 2-d": (ts, coords, (edges[0][None], edges[1][None])),
        }
        for what, (inputs, cs, es) in bad_shapes.items():
            with pytest.raises(ShapeError, match="edge_conv"):
                apply_edge_conv(inputs, cs, es)
                pytest.fail(what)
        # the kernel net checks its own layers when it is built
        bad_layers = {
            "layers that do not chain": (ts[:4] + [rand(rng, 3, 6)] + ts[5:], ConfigError),
            "bias of the wrong width": (ts[:5] + [rand(rng, 5)], ShapeError),
        }
        for what, (inputs, error) in bad_layers.items():
            with pytest.raises(error, match="layer 1"):
                apply_edge_conv(inputs, coords, edges)
                pytest.fail(what)

    def test_edge_conv_without_points_or_edges(self):
        # no points gives no rows; points without edges get zero rows
        rng = np.random.default_rng(46)
        ts = edge_conv_inputs(rng, n=4)
        no_edges = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        out = apply_edge_conv([ts[0][:0], *ts[1:]], np.zeros((0, 2)), no_edges)
        assert out.shape == (0, 3)
        out = apply_edge_conv(ts, rand(rng, 4, 2), no_edges)
        np.testing.assert_array_equal(out.data, np.zeros((4, 3)))

    @pytest.mark.parametrize("mode", ["mean", "max"])
    def test_message_aggregate_without_points(self, mode):
        ts = message_inputs(np.random.default_rng(47), n_src=0)
        no_edges = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        out = apply_message_aggregate(ts, (np.zeros((0, 2)), np.zeros((0, 2))), no_edges, mode)
        assert out.shape == (0, 3)

    @pytest.mark.parametrize("omega", [0.1, 1.0, 10.0, 30.0])
    def test_edge_sinusoids_match_direct_trig(self, omega):
        # both edge nodes form each edge's sinusoid from two per-point
        # phases; identity layers pass it through to the output, one edge
        # per destination, for comparison with cos and sin of 2 pi B (d - s)
        rng = np.random.default_rng(48)
        n_src, n_dst, freqs = 300, 200, 8
        src_coords, dst_coords = rng.uniform(-1, 1, (n_src, 3)), rng.uniform(-1, 1, (n_dst, 3))
        freq = rng.normal(0.0, omega, (freqs, 3))
        src = rng.integers(0, n_src, n_dst)
        z = 2.0 * np.pi * (dst_coords - src_coords[src]) @ freq.T
        want = np.concatenate([np.cos(z), np.sin(z)], axis=1)
        eye, zero = np.eye(2 * freqs), np.zeros(2 * freqs)
        got = ad.message_aggregate(
            np.zeros((n_src, 2 * freqs)), src_coords, dst_coords, src, np.arange(n_dst),
            pos_net(freq, eye, zero), mlp(np.vstack([0 * eye, eye]), zero), "mean",
        )
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)
        # edge_conv's points are both ends of its edges
        coords = np.concatenate([src_coords, dst_coords])
        got = ad.edge_conv(
            coords, np.ones((n_src + n_dst, 1)), src, n_src + np.arange(n_dst),
            pos_net(freq, eye, zero),
        )
        np.testing.assert_allclose(got.data[n_src:], want, rtol=0, atol=1e-12)

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
        out = ad.edge_conv(coords, Tensor(x), src, np.arange(n_rows), pos_net(freq, w, b))
        expected = np.stack([
            x[s] @ (sinusoid(coords[[d]] - coords[[s]], freq) @ w + b).reshape(2, 3)
            for d, s in enumerate(src)
        ])
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-13)

    def test_gelu_matches_definition(self):
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

    def test_only_the_constructor_records_the_tape(self):
        # a node is complete when it is built: no code in the package sets a
        # node's parents or backward rule but ``Tensor.__init__``
        found = []
        for path in sorted(Path(gridifier.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            allowed = set()
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef) and cls.name == "Tensor":
                    for fn in cls.body:
                        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                            allowed |= {id(n) for n in ast.walk(fn)}
            found += [
                f"{path.name}:{node.lineno} .{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and node.attr in ("_backward", "_parents")
                and id(node) not in allowed
            ]
        assert found == []

    def test_grid_correlate_shape_error_names_geometry(self):
        x = Tensor(np.zeros((9, 2)))
        for kernel in (np.zeros((9, 2, 1)), np.zeros((3, 2))):
            with pytest.raises(ShapeError, match="r=3, D=2, K=3"):
                ad.grid_correlate(x, Tensor(kernel), 3, 2, 3)
        with pytest.raises(ShapeError, match="r=4"):
            ad.grid_correlate(x, Tensor(np.zeros((9, 2))), 4, 2, 3)

    def test_grid_correlate_reads_each_kernel_row_as_c_in_by_c_out(self):
        # as in edge_conv, a row of width c_in * c_out is one (c_in, c_out)
        # matrix, and a width c_in does not divide is refused
        x = Tensor(np.ones((9, 2)))
        assert ad.grid_correlate(x, Tensor(np.ones((9, 6))), 3, 2, 3).shape == (9, 3)
        with pytest.raises(ShapeError, match=r"x \(9, 2\), kernel \(9, 5\)"):
            ad.grid_correlate(x, Tensor(np.ones((9, 5))), 3, 2, 3)

    def test_positional_shape_error_names_offsets_and_layers(self):
        # a head that does not read the 2F sinusoid columns is refused when
        # the network is built; the node refuses offsets that are not rows of
        # the network's dimension
        with pytest.raises(ConfigError, match="head expects input 4, got 6"):
            pos_net(np.zeros((2, 3)), np.zeros((6, 2)), np.zeros(2))
        net = pos_net(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))
        with pytest.raises(ShapeError, match=r"offsets \(4, 2\), freq \(2, 3\), layers \[4, 2\]"):
            ad.positional(np.zeros((4, 2)), net)
        with pytest.raises(ShapeError, match=r"offsets \(4,\)"):
            ad.positional(np.zeros(4), pos_net(np.zeros((2, 4)), np.zeros((4, 2)), np.zeros(2)))


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
                ts[0], src_coords, dst_coords, src, np.arange(6),
                pos_net(ts[5], ts[1], ts[2]), mlp(ts[3], ts[4]), "mean",
            )
            return ad.reduce_mean(ad.mul(out, out))

        assert_grads_match(build, arrays)
        out = build([Tensor(a) for a in arrays])
        pos = sinusoid(dst_coords - src_coords[src], freq) @ arrays[1] + arrays[2]
        joined = np.concatenate([arrays[0][src], pos], axis=1)
        want = joined @ arrays[3] + arrays[4]
        np.testing.assert_allclose(out.data, np.mean(want * want), rtol=1e-14)

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_reduce_mean_axes(self, axis):
        rng = np.random.default_rng(6)
        arrays = [rand(rng, 4, 3)]
        assert_grads_match(
            lambda ts: ad.reduce_mean(ad.mul(ad.reduce_mean(ts[0], axis=axis), 2.0)),
            arrays,
        )

    def test_reduce_mean_keeps_the_reduced_axis(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        np.testing.assert_array_equal(ad.reduce_mean(x, axis=0).data, [[4.5, 5.5, 6.5]])
        assert ad.reduce_mean(x, axis=1).shape == (4, 1)
        assert ad.reduce_mean(x).shape == ()

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
        weights = [rand(rng, 6, 3), rand(rng, 6, 3)]

        def build(ts, weight=weights[0]):
            out = apply_message_aggregate(ts, coords, (src, dst), mode)
            return ad.reduce_mean(ad.mul(out, weight))

        assert_grads_match(build, arrays)
        assert_passes_accumulate(build, arrays, weights)

    @pytest.mark.parametrize("msg_depth", [1, 2, 3])
    def test_message_aggregate_mean_against_loop(self, monkeypatch, msg_depth):
        # under mean, a phi_msg with a hidden layer runs its last layer once
        # per destination on the mean of its inputs, and a one-layer phi_msg
        # runs per edge; both agree with a per-edge loop and with finite
        # differences, over blocks of 4 edges
        monkeypatch.setattr(ad, "_MESSAGE_BLOCK_BYTES", 4 * 8 * 3)
        rng = np.random.default_rng(msg_depth)
        dst = np.repeat(np.arange(6), [2, 1, 6, 3, 2, 3])
        src = rng.integers(0, 5, size=dst.size)
        src_coords, dst_coords = rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (6, 2))
        widths = [6] + [4] * (msg_depth - 1) + [3]
        msg_shapes = [s for a, b in zip(widths[:-1], widths[1:]) for s in ((a, b), (b,))]
        arrays = message_inputs(rng)[:6] + [rand(rng, *shape) for shape in msg_shapes]

        def layers(arrs):
            return mlp(*arrs).layers

        def forward(ts):
            pos, msg = pos_net(ts[1], *ts[2:6]), mlp(*ts[6:])
            return ad.message_aggregate(ts[0], src_coords, dst_coords, src, dst, pos, msg, "mean")

        def chain(ls, row):
            for i, (w, b) in enumerate(ls):
                row = row @ w.data + b.data
                if i < len(ls) - 1:
                    row = row * 0.5 * (1.0 + erf(row / np.sqrt(2.0)))
            return row

        pos, msg = layers(arrays[2:6]), layers(arrays[6:])
        want = np.zeros((6, 3))
        for s, d in zip(src, dst):
            z = 2.0 * np.pi * arrays[1] @ (dst_coords[d] - src_coords[s])
            p = chain(pos, np.concatenate([np.cos(z), np.sin(z)]))
            want[d] += chain(msg, np.concatenate([arrays[0][s], p]))
        want /= np.bincount(dst)[:, None]
        got = forward([Tensor(a) for a in arrays])
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=1e-12)
        weight = rand(rng, 6, 3)
        assert_grads_match(lambda ts: ad.reduce_mean(ad.mul(forward(ts), weight)), arrays)

    def test_edge_conv(self, monkeypatch):
        # blocks of 3 edges of 6 kernel values, so the backward recomputes
        # blocks and sums every gradient across them; destination 2 has more
        # edges than a block, point 5 receives none, source rows 1 and 3 are
        # unused, and each destination's edges arrive shuffled
        monkeypatch.setattr(ad, "_RENDER_BLOCK_BYTES", 3 * 8 * 6)
        rng = np.random.default_rng(11)
        dst = np.repeat(np.arange(5), [2, 1, 4, 3, 2])
        src = np.array([0, 5, 2, 2, 4, 0, 2, 5, 0, 2, 4, 5])
        order = rng.permutation(dst.size)
        order = order[np.argsort(dst[order], kind="stable")]
        starts = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=6))])
        assert len(ad._segment_blocks(starts, 6, ad._RENDER_BLOCK_BYTES)) >= 4
        coords = rng.uniform(-1, 1, (6, 2))
        arrays = edge_conv_inputs(rng)
        weights = [rand(rng, 6, 3), rand(rng, 6, 3)]

        def build(ts, weight=weights[0]):
            out = apply_edge_conv(ts, coords, (src[order], dst[order]))
            return ad.reduce_mean(ad.mul(out, weight))

        assert_grads_match(build, arrays)
        assert_passes_accumulate(build, arrays, weights)

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
        idx = np.sort(np.concatenate([np.arange(3), rng.integers(0, 3, size=4)]))

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
        # the split first layer with the positional output layer (p, pb)
        # folded into its positional half: (node @ w[:H])[src] + x @ (p @ w[H:])
        # + (pb @ w[H:] + b), in that order, x the sinusoid from per-point
        # phases; one edge per destination makes the mean the message itself
        rng = np.random.default_rng(32)
        node, p, pb = rand(rng, 5, 3), rand(rng, 2, 2), rand(rng, 2)
        w, b = rand(rng, 5, 4), rand(rng, 4)
        src = rng.integers(0, 5, size=9)
        src_coords, dst_coords = rand(rng, 5, 2), rand(rng, 9, 2)
        freq = rand(rng, 1, 2)
        out = ad.message_aggregate(
            node, src_coords, dst_coords, src, np.arange(9), pos_net(freq, p, pb), mlp(w, b), "mean"
        )
        x = ad._edge_sinusoid(ad._edge_phases(src_coords, dst_coords, freq), np.arange(9), src)
        want = (node @ w[:3])[src] + x @ (p @ w[3:]) + (pb @ w[3:] + b)
        np.testing.assert_array_equal(out.data, want)

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

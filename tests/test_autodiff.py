import numpy as np
import pytest
from helpers import assert_grads_match, rand

from gridifier import autodiff as ad
from gridifier.autodiff import Tensor
from gridifier.errors import InvariantError, ShapeError


class TestForwardValues:
    def test_scatter_mean_pair(self):
        out = ad.scatter_aggregate(Tensor([[1.0], [3.0]]), np.array([0, 0]), 1, "mean")
        np.testing.assert_array_equal(out.data, [[2.0]])

    def test_scatter_max_pair_and_subgradient(self):
        values = Tensor([[1.0], [3.0]])
        out = ad.scatter_aggregate(values, np.array([0, 0]), 1, "max")
        np.testing.assert_array_equal(out.data, [[3.0]])
        ad.reduce_mean(out).backward()
        np.testing.assert_array_equal(values.grad, [[0.0], [1.0]])

    def test_scatter_max_tie_goes_to_first_row(self):
        values = Tensor([[5.0], [5.0]])
        out = ad.scatter_aggregate(values, np.array([0, 0]), 1, "max")
        ad.reduce_mean(out).backward()
        np.testing.assert_array_equal(values.grad, [[1.0], [0.0]])

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
        out = ad.scatter_aggregate(t, idx, 8, "max")
        ad.reduce_mean(ad.mul(out, g)).backward()
        np.testing.assert_array_equal(out.data, expected)
        np.testing.assert_array_equal(t.grad, expected_grad)

    def test_scatter_mean_constant_identity(self):
        # aggregating a constant yields that constant at every destination
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 5, size=40)
        idx[:5] = np.arange(5)  # cover every destination
        values = Tensor(np.full((40, 3), 2.5))
        out = ad.scatter_aggregate(values, idx, 5, "mean")
        np.testing.assert_allclose(out.data, 2.5, rtol=0, atol=1e-15)

    def test_scatter_empty_destination_rejected(self):
        with pytest.raises(InvariantError, match="destination 1"):
            ad.scatter_aggregate(Tensor([[1.0]]), np.array([0]), 2, "mean")

    def test_scatter_sum_bits_match_sequential_loop(self):
        # the vectorized row summation must reproduce a left-to-right
        # accumulation exactly, bit for bit, not merely to rounding error
        rng = np.random.default_rng(40)
        values = rand(rng, 200, 4)
        idx = rng.integers(0, 7, size=200)
        expected = np.zeros((7, 4))
        for i in range(200):
            expected[idx[i]] += values[i]
        out = ad.scatter_sum(Tensor(values), idx, 7)
        np.testing.assert_array_equal(out.data, expected)

    def test_gather_rows_rejects_out_of_range_indices(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.gather_rows(t, np.array([1, 0, 1])).data,
                                      [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]])
        for bad in ([1, -1, 0], [2]):
            with pytest.raises(InvariantError, match="out of bounds"):
                ad.gather_rows(t, np.array(bad))

    def test_reduce_max_tie_first_flat_index(self):
        t = Tensor([[2.0, 7.0], [7.0, 1.0]])
        out = ad.reduce_max(t)
        out.backward()
        np.testing.assert_array_equal(t.grad, [[0.0, 1.0], [0.0, 0.0]])

    def test_gelu_matches_definition(self):
        from scipy.special import erf

        x = np.linspace(-3, 3, 13)
        out = ad.nonlinearity(Tensor(x), "gelu")
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

    def test_matmul_shape_error_names_both(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestGradients:
    def test_matmul_tight_tolerance(self):
        rng = np.random.default_rng(1)
        arrays = [rand(rng, 4, 5), rand(rng, 5, 3)]
        assert_grads_match(
            lambda ts: ad.reduce_mean(ts[0] @ ts[1]), arrays, tol=1e-6
        )

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
            lambda ts: ad.reduce_mean(2.5 * ts[0] - ts[0] * ts[0]), arrays
        )

    def test_concat_last_axis(self):
        rng = np.random.default_rng(4)
        arrays = [rand(rng, 3, 2), rand(rng, 3, 4)]

        def build(ts):
            joined = ad.concat_last_axis([ts[0], ts[1]])
            return ad.reduce_mean(ad.mul(joined, joined))

        assert_grads_match(build, arrays)

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

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_reduce_max_axes(self, axis):
        rng = np.random.default_rng(7)
        arrays = [rand(rng, 5, 4)]
        assert_grads_match(
            lambda ts: ad.reduce_mean(ad.reduce_max(ts[0], axis=axis)), arrays
        )

    def test_gather_rows_repeated_indices(self):
        rng = np.random.default_rng(8)
        arrays = [rand(rng, 6, 3)]
        idx = np.array([0, 5, 2, 2, 4, 0, 2])
        assert_grads_match(
            lambda ts: ad.reduce_mean(ad.mul(ad.gather_rows(ts[0], idx), 1.5)), arrays
        )

    def test_scatter_sum(self):
        rng = np.random.default_rng(9)
        arrays = [rand(rng, 8, 3)]
        idx = rng.integers(0, 4, size=8)
        assert_grads_match(
            lambda ts: ad.reduce_mean(ad.scatter_sum(ts[0], idx, 4)), arrays
        )

    @pytest.mark.parametrize("mode", ["mean", "max"])
    def test_scatter_aggregate(self, mode):
        rng = np.random.default_rng(10)
        arrays = [rand(rng, 12, 3)]
        idx = np.concatenate([np.arange(4), rng.integers(0, 4, size=8)])
        assert_grads_match(
            lambda ts: ad.reduce_mean(
                ad.mul(ad.scatter_aggregate(ts[0], idx, 4, mode), 2.0)
            ),
            arrays,
        )

    def test_pairwise_apply(self):
        rng = np.random.default_rng(11)
        arrays = [rand(rng, 5, 2, 3), rand(rng, 5, 2)]
        assert_grads_match(
            lambda ts: ad.reduce_mean(ad.pairwise_apply(ts[0], ts[1])), arrays
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

    def test_pairwise_apply_matches_row_products(self):
        rng = np.random.default_rng(21)
        w, x = rand(rng, 4, 3, 2), rand(rng, 4, 3)
        out = ad.pairwise_apply(ad.Tensor(w), ad.Tensor(x))
        expected = np.stack([x[r] @ w[r] for r in range(4)])
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("tag", ["gelu", "relu"])
    def test_nonlinearities(self, tag):
        rng = np.random.default_rng(12)
        # keep values away from the relu kink where FD is ill-defined
        arrays = [rand(rng, 5, 4) + np.sign(rand(rng, 5, 4)) * 0.05]
        assert_grads_match(
            lambda ts: ad.reduce_mean(ad.nonlinearity(ts[0], tag)), arrays
        )

    def test_trig(self):
        rng = np.random.default_rng(13)
        arrays = [rand(rng, 4, 3)]
        assert_grads_match(
            lambda ts: ad.reduce_mean(ad.add(ad.cos(ts[0]), ad.sin(ts[0]))), arrays
        )

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
            h = ad.nonlinearity(ad.add(ts[0] @ ts[1], ts[2]), "gelu")
            pooled = ad.scatter_aggregate(h, idx, 3, "mean")
            return ad.reduce_mean(ad.mul(pooled @ ts[3], pooled @ ts[3]))

        assert_grads_match(build, arrays)

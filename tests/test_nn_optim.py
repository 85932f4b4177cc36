import numpy as np
import pytest
from scipy.special import erf
from helpers import assert_grads_match, identity_mlp, rand

from gridifier import autodiff as ad
from gridifier.autodiff import Tensor
from gridifier import checkpoint
from gridifier.checkpoint import load_checkpoint, restore_params, save_checkpoint
from gridifier.errors import ConfigError, ParseError, ShapeError, TrainingError
from gridifier.nn import (
    decays_weight,
    init_mlp,
    init_positional_net,
    mlp_forward,
    positional_forward,
)
from gridifier.optim import AdamWState, adamw_init, adamw_step, lr_at, zero_grads


def adamw_reference(p0, grads, lr, wd=0.0, b1=0.9, b2=0.999, eps=1e-8, decayed=True):
    """Scalar-loop transcription of the published decoupled-decay recurrence."""
    m = v = 0.0
    p = p0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        if decayed:
            p = p * (1 - lr * wd)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p


class TestMlp:
    def test_identity_layer_passes_through(self):
        params = identity_mlp(4)
        x = np.random.default_rng(0).normal(size=(6, 4))
        out = mlp_forward(params, Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_output_shape(self):
        params = init_mlp([2, 8, 3], np.random.default_rng(1))
        assert mlp_forward(params, Tensor(np.zeros((5, 2)))).shape == (5, 3)
        assert params.widths == [2, 8, 3]

    def test_width_mismatch(self):
        params = init_mlp([2, 8, 3], np.random.default_rng(1))
        with pytest.raises(ShapeError):
            mlp_forward(params, Tensor(np.zeros((5, 3))))

    def test_bad_layer_chain(self):
        with pytest.raises(ConfigError):
            init_mlp([2], np.random.default_rng(0))

    @pytest.mark.parametrize("widths", [[0, 4], [3, 0, 2]])
    def test_zero_width_rejected(self, widths):
        with pytest.raises(ConfigError, match="each >= 1"):
            init_mlp(widths, np.random.default_rng(0))

    def test_gradient_of_all_weights(self):
        rng = np.random.default_rng(2)
        arrays = [rand(rng, 4, 2), rand(rng, 2, 6), rand(rng, 6), rand(rng, 6, 3), rand(rng, 3)]

        def build(ts):
            from gridifier.nn import MlpParams

            params = MlpParams([ts[1], ts[3]], [ts[2], ts[4]])
            return ad.reduce_mean(mlp_forward(params, ts[0]))

        assert_grads_match(build, arrays)

    def test_seeded_init_is_reproducible(self):
        a = init_mlp([3, 5, 2], np.random.default_rng(42))
        b = init_mlp([3, 5, 2], np.random.default_rng(42))
        for pa, pb in zip(a.named_parameters().values(), b.named_parameters().values()):
            np.testing.assert_array_equal(pa.data, pb.data)


def init_freq(omega, n_frequencies, dim, rng):
    """The frequencies ``init_positional_net`` draws, which come before its
    head's layers."""
    return init_positional_net(omega, n_frequencies, dim, [], 1, rng).freq


def sinusoid(freq, rel):
    """[cos 2 pi B r ; sin 2 pi B r] per row: the positional node with one
    identity layer, which passes its input through exactly."""
    width = 2 * freq.shape[0]
    return ad.positional(rel, freq, [(np.eye(width), np.zeros(width))])


_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def taped_chain_bits(x, freq, w0, b0, w1, b1, g):
    """The taped chain the positional node replaced, restated in numpy in its
    operation order: the phase, [cos ; sin], affine, exact GELU, affine; then
    each node's backward for the output gradient ``g``.  Returns the output
    and the gradients of freq, w0, b0, w1 and b1."""
    phase = (x @ freq.T) * (2.0 * np.pi)
    emb = np.concatenate([np.cos(phase), np.sin(phase)], axis=1)
    pre = emb @ w0 + b0
    cdf = (erf(pre * (1.0 / np.sqrt(2.0))) + 1.0) * 0.5
    hidden = pre * cdf
    out = hidden @ w1 + b1
    g_pre = (np.exp(np.square(pre) * -0.5) * _INV_SQRT2PI * pre + cdf) * (g @ w1.T)
    g_emb = g_pre @ w0.T
    f = freq.shape[0]
    g_phase = (-g_emb[:, :f] * np.sin(phase) + g_emb[:, f:] * np.cos(phase)) * (2.0 * np.pi)
    grads = [(x.T @ g_phase).T, emb.T @ g_pre, g_pre.sum(axis=0), hidden.T @ g, g.sum(axis=0)]
    return out, grads


class TestRff:
    def test_zero_offset(self):
        freq = init_freq(0.5, 6, 3, np.random.default_rng(0))
        out = sinusoid(freq, np.zeros((4, 3)))
        np.testing.assert_array_equal(out.data[:, :6], 1.0)
        np.testing.assert_array_equal(out.data[:, 6:], 0.0)

    def test_deterministic_per_seed(self):
        x = np.random.default_rng(3).normal(size=(5, 2))
        a = sinusoid(init_freq(1.0, 8, 2, np.random.default_rng(7)), x)
        b = sinusoid(init_freq(1.0, 8, 2, np.random.default_rng(7)), x)
        np.testing.assert_array_equal(a.data, b.data)

    def test_bounded(self):
        freq = init_freq(2.0, 16, 3, np.random.default_rng(1))
        out = sinusoid(freq, np.random.default_rng(2).normal(size=(50, 3)))
        assert out.data.min() >= -1.0 and out.data.max() <= 1.0

    def test_frequency_scale(self):
        # the sampler's standard deviation should track omega
        freq = init_freq(0.7, 5000, 2, np.random.default_rng(11))
        std = freq.data.std()
        assert abs(std - 0.7) / 0.7 < 0.05

    def test_gradient_through_embedding_and_frequencies(self):
        # the offsets are constants: the node differentiates the frequencies
        # and every layer
        rng = np.random.default_rng(8)
        rel, weight = rand(rng, 5, 3), rand(rng, 5, 2)
        arrays = [rand(rng, 4, 3), rand(rng, 8, 6), rand(rng, 6), rand(rng, 6, 2), rand(rng, 2)]

        def build(ts):
            freq, w0, b0, w1, b1 = ts
            out = ad.positional(rel, freq, [(w0, b0), (w1, b1)])
            return ad.reduce_mean(ad.mul(out, weight))

        assert_grads_match(build, arrays)

    def test_bits_equal_cos_sin_concat_composition(self):
        rng = np.random.default_rng(9)
        x, freq = rand(rng, 7, 3), rand(rng, 5, 3)
        arrays = [rand(rng, 10, 6), rand(rng, 6), rand(rng, 6, 4), rand(rng, 4)]
        weight = rand(rng, 7, 4)
        params = [Tensor(freq), *(Tensor(a) for a in arrays)]
        out = ad.positional(x, params[0], [params[1:3], params[3:]])
        ad.reduce_mean(ad.mul(out, weight)).backward()
        g = np.full(out.shape, 1.0 / out.data.size) * weight
        want, grads = taped_chain_bits(x, freq, *arrays, g)
        np.testing.assert_array_equal(out.data, want)
        for p, grad in zip(params, grads, strict=True):
            np.testing.assert_array_equal(p.grad, grad)


class TestPositionalNet:
    def test_shapes_and_gradient(self):
        rng = np.random.default_rng(9)
        net = init_positional_net(
            omega=1.0, n_frequencies=4, dim=3, hidden=[8], out_width=5, rng=rng
        )
        x = np.random.default_rng(10).normal(size=(7, 3))
        out = positional_forward(net, x)
        assert out.shape == (7, 5)

        params = list(net.named_parameters().values())
        loss = ad.reduce_mean(positional_forward(net, x))
        loss.backward()
        assert all(p.grad is not None for p in params)

    def test_head_width_must_match(self):
        from gridifier.nn import PositionalNet

        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match="head expects input 8, got 5"):
            PositionalNet(init_freq(1.0, 4, 3, rng), init_mlp([5, 2], rng))

    @pytest.mark.parametrize("omega,n_frequencies", [(0.0, 4), (-1.0, 4), (np.nan, 4), (1.0, 0)])
    def test_init_rejects_bad_scale_or_no_frequencies(self, omega, n_frequencies):
        with pytest.raises(ConfigError):
            init_positional_net(omega, n_frequencies, 3, [8], 5, np.random.default_rng(0))

    def test_frequencies_keep_their_checkpoint_name(self):
        net = init_positional_net(1.0, 4, 3, [8], 5, np.random.default_rng(0))
        assert list(net.named_parameters("pos.")) == [
            "pos.rff.freq", "pos.head.w0", "pos.head.b0", "pos.head.w1", "pos.head.b1"
        ]


class TestDecayRule:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("phi_node.w0", True),
            ("phi_node.b0", False),
            ("pos.rff.freq", False),
            ("head.w", True),
            ("blocks.0.gamma", False),
            ("blocks.0.beta", False),
        ],
    )
    def test_names(self, name, expected):
        assert decays_weight(name) is expected


class TestAdamW:
    def test_single_step_matches_reference(self):
        p = {"w0": Tensor(np.array([0.0]))}
        p["w0"].grad = np.array([1.0])
        state = adamw_init(p, lr=0.1)
        adamw_step(state, p)
        expected = adamw_reference(0.0, [1.0], lr=0.1)
        assert abs(p["w0"].data[0] - expected) < 1e-12
        # frozen from the reference recurrence
        assert abs(p["w0"].data[0] - (-0.09999999900000002)) < 1e-15

    def test_decay_only_step(self):
        p = {"w0": Tensor(np.array([1.0]))}
        p["w0"].grad = np.array([0.0])
        state = adamw_init(p, lr=0.1, weight_decay=0.1)
        adamw_step(state, p)
        assert abs(p["w0"].data[0] - 0.99) < 1e-15

    def test_zero_grad_zero_decay_is_identity(self):
        p = {"w0": Tensor(np.array([0.7, -0.3]))}
        p["w0"].grad = np.zeros(2)
        state = adamw_init(p, lr=0.05)
        adamw_step(state, p)
        np.testing.assert_array_equal(p["w0"].data, [0.7, -0.3])

    def test_multi_step_trajectory_matches_reference(self):
        rng = np.random.default_rng(13)
        grads = rng.normal(size=(10, 3, 2))
        p0 = rng.normal(size=(3, 2))
        p = {"layer.w0": Tensor(p0.copy())}
        state = adamw_init(p, lr=0.01, weight_decay=0.05)
        for g in grads:
            p["layer.w0"].grad = g.copy()
            adamw_step(state, p)
        for i in range(3):
            for j in range(2):
                want = adamw_reference(p0[i, j], grads[:, i, j], lr=0.01, wd=0.05)
                assert abs(p["layer.w0"].data[i, j] - want) < 1e-12

    def test_biases_not_decayed(self):
        p = {"layer.b0": Tensor(np.array([1.0]))}
        p["layer.b0"].grad = np.array([0.0])
        state = adamw_init(p, lr=0.1, weight_decay=0.5)
        adamw_step(state, p)
        assert p["layer.b0"].data[0] == 1.0

    def test_nonfinite_gradient_names_parameter(self):
        # the first non-finite parameter is named, not a later one
        p = {name: Tensor(np.zeros(2)) for name in ("phi_msg.w0", "phi_msg.w1", "phi_msg.w2")}
        p["phi_msg.w0"].grad = np.ones(2)
        p["phi_msg.w1"].grad = np.array([1.0, np.nan])
        p["phi_msg.w2"].grad = np.array([np.inf, 1.0])
        state = adamw_init(p, lr=0.1)
        with pytest.raises(TrainingError, match="phi_msg.w1"):
            adamw_step(state, p)

    def test_flat_step_bits_equal_a_per_parameter_step(self):
        # the per-parameter update the flat step replaces, operation for
        # operation: batch-mean scale, moments, decoupled decay, step
        def per_parameter_step(params, grads, m, v, t, lr, wd, scale):
            bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for name, p in params.items():
                g = np.zeros_like(p) if grads[name] is None else grads[name] * scale
                m[name] = m[name] * 0.9 + (1.0 - 0.9) * g
                v[name] = v[name] * 0.999 + (1.0 - 0.999) * g * g
                if decays_weight(name):
                    p *= 1.0 - lr * wd
                p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-8)

        rng = np.random.default_rng(21)
        shapes = {"mlp.w0": (3, 4), "mlp.b0": (4,), "head.w": (2, 3), "pos.rff.freq": (5, 3)}
        init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        params = {name: Tensor(a.copy()) for name, a in init.items()}
        want = {name: a.copy() for name, a in init.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        state = adamw_init(params, lr=0.01, weight_decay=0.05)
        for t in range(1, 5):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            grads["mlp.b0"] = None if t == 2 else grads["mlp.b0"]
            for name, p in params.items():
                p.grad = grads[name]
            lr = 0.01 * t
            adamw_step(state, params, lr=lr, scale=1.0 / 3)
            per_parameter_step(want, grads, m, v, t, lr, 0.05, 1.0 / 3)
        for name, p in params.items():
            assert p.data.tobytes() == want[name].tobytes()
            assert state.m[name].tobytes() == m[name].tobytes()
            assert state.v[name].tobytes() == v[name].tobytes()
            assert np.shares_memory(state.m[name], state.m_flat)

    def test_zero_grads(self):
        p = {"w0": Tensor(np.zeros(2))}
        p["w0"].grad = np.ones(2)
        zero_grads(p)
        assert p["w0"].grad is None


class TestSchedule:
    def test_peak_at_end_of_warmup(self):
        assert lr_at(10, 60, 10, 0.005) == 0.005

    def test_warmup_midpoint(self):
        assert lr_at(5, 60, 10, 0.005) == 0.005 / 2

    def test_epoch_zero_is_zero(self):
        assert lr_at(0, 60, 10, 0.005) == 0.0

    def test_cosine_tail_closed_form(self):
        t, w, base = 60, 10, 0.005
        want = base * 0.5 * (1 + np.cos(np.pi * (t - 1 - w) / (t - w)))
        assert abs(lr_at(t - 1, t, w, base) - want) < 1e-18

    def test_monotone_decay_after_warmup(self):
        vals = [lr_at(e, 50, 10, 1.0) for e in range(10, 50)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_warmup_must_be_shorter_than_total(self):
        with pytest.raises(ConfigError):
            lr_at(0, 10, 10, 0.1)

    def test_epoch_out_of_range(self):
        with pytest.raises(ConfigError):
            lr_at(60, 60, 10, 0.1)


class TestCheckpoint:
    def _tree(self, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "phi_node.w0": Tensor(rng.normal(size=(3, 8))),
            "phi_node.b0": Tensor(rng.normal(size=8)),
            "pos.rff.freq": Tensor(rng.normal(size=(4, 3))),
        }

    def test_round_trip_exact(self, tmp_path):
        params = self._tree()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded, opt = load_checkpoint(path)
        assert opt is None
        assert set(loaded) == set(params)
        for name, p in params.items():
            np.testing.assert_array_equal(loaded[name], p.data)

    def test_round_trip_with_optimizer(self, tmp_path):
        params = self._tree(1)
        state = adamw_init(params, lr=0.005, weight_decay=0.01)
        for p in params.values():
            p.grad = np.random.default_rng(2).normal(size=p.data.shape)
        adamw_step(state, params)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, state)
        loaded, opt = load_checkpoint(path)
        assert opt.step == 1
        assert (opt.lr, opt.weight_decay) == (0.005, 0.01)
        for name in params:
            np.testing.assert_array_equal(opt.m[name], state.m[name])
            np.testing.assert_array_equal(opt.v[name], state.v[name])

    def test_resumed_training_bits_equal_an_uninterrupted_run(self, tmp_path):
        # the loaded state lays names out in sorted order, not the model's
        rng = np.random.default_rng(22)
        grads = [{name: rng.normal(size=p.data.shape) for name, p in self._tree(0).items()}
                 for _ in range(6)]
        grads[1]["phi_node.b0"] = None

        def train(params, state, steps):
            for g in steps:
                for name, p in params.items():
                    p.grad = g[name]
                adamw_step(state, params, lr=0.01, scale=0.5)

        straight = self._tree(13)
        straight_state = adamw_init(straight, lr=0.01, weight_decay=0.1)
        train(straight, straight_state, grads)

        first = self._tree(13)
        first_state = adamw_init(first, lr=0.01, weight_decay=0.1)
        train(first, first_state, grads[:3])
        save_checkpoint(tmp_path / "half.ckpt", first, first_state)
        resumed = self._tree(14)
        loaded, state = load_checkpoint(tmp_path / "half.ckpt")
        restore_params(resumed, loaded)
        train(resumed, state, grads[3:])

        save_checkpoint(tmp_path / "straight.ckpt", straight, straight_state)
        save_checkpoint(tmp_path / "resumed.ckpt", resumed, state)
        assert (tmp_path / "resumed.ckpt").read_bytes() == (tmp_path / "straight.ckpt").read_bytes()

    def test_moments_that_name_different_parameters(self, tmp_path):
        params = self._tree(15)
        state = adamw_init(params, lr=0.01)
        del state.v["pos.rff.freq"]
        save_checkpoint(tmp_path / "model.ckpt", params, state)
        with pytest.raises(ParseError, match="moments"):
            load_checkpoint(tmp_path / "model.ckpt")

    def test_identical_saves_are_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, self._tree(3))
        save_checkpoint(b, self._tree(3))
        assert a.read_bytes() == b.read_bytes()

    def test_restore_into_model(self, tmp_path):
        params = self._tree(4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        fresh = self._tree(5)
        restore_params(fresh, load_checkpoint(path)[0])
        for name in params:
            np.testing.assert_array_equal(fresh[name].data, params[name].data)

    def test_restore_name_mismatch(self, tmp_path):
        params = self._tree(6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        del loaded["phi_node.b0"]
        with pytest.raises(ParseError, match="phi_node.b0"):
            restore_params(params, loaded)

    def test_restore_shape_mismatch_changes_nothing(self, tmp_path):
        # the mismatch sits on the last name restore visits, so a copy loop
        # that checks as it goes would already have overwritten the others
        params = self._tree(9)
        before = {name: p.data for name, p in params.items()}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._tree(10))
        loaded, _ = load_checkpoint(path)
        loaded["pos.rff.freq"] = np.zeros((3, 4))
        with pytest.raises(ParseError, match="pos.rff.freq"):
            restore_params(params, loaded)
        for name, p in params.items():
            assert p.data is before[name]
            np.testing.assert_array_equal(p.data, self._tree(9)[name].data)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._tree(11))
        first = path.read_bytes()
        real_write_blob = checkpoint._write_blob
        calls = []

        def failing_write_blob(fh, name, arr):
            calls.append(name)
            if len(calls) == 2:
                raise OSError("disk full")
            real_write_blob(fh, name, arr)

        monkeypatch.setattr(checkpoint, "_write_blob", failing_write_blob)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, self._tree(12))
        assert path.read_bytes() == first
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTAFILE")
        with pytest.raises(ParseError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._tree(7))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, self._tree(8))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ParseError, match="trailing"):
            load_checkpoint(path)

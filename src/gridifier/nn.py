"""MLPs and the sinusoidal positional network used for relative coordinates.

Naming convention for checkpoints and optimizers: every learnable array has a
dotted path like ``phi_msg.w0`` or ``pos.head.b1``.  Weight matrices are
``w<i>``, biases ``b<i>``, normalization scales ``gamma``/``beta``, and the
frequency matrix of a positional net ``freq``.  Weight decay applies only to
``w<i>`` entries (and explicit convolution kernels); see ``decays_weight``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError

TWO_PI = 2.0 * np.pi


def decays_weight(name: str) -> bool:
    """Whether the named parameter participates in weight decay."""
    leaf = name.rsplit(".", 1)[-1]
    return leaf.startswith("w") or leaf == "kernel"


@dataclass
class MlpParams:
    """Affine layers with a shared hidden nonlinearity; the last layer is linear."""

    weights: list[Tensor]
    biases: list[Tensor]
    nonlinearity: str = "gelu"

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ConfigError("mlp needs one bias per weight and at least one layer")
        for i in range(len(self.weights) - 1):
            if self.weights[i].shape[1] != self.weights[i + 1].shape[0]:
                raise ConfigError(
                    f"layer {i} output width {self.weights[i].shape[1]} does not chain "
                    f"into layer {i + 1} input width {self.weights[i + 1].shape[0]}"
                )

    @property
    def widths(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def in_width(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_width(self) -> int:
        return self.weights[-1].shape[1]

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}w{i}"] = w
            out[f"{prefix}b{i}"] = b
        return out


def init_mlp(widths: list[int], rng: np.random.Generator, nonlinearity: str = "gelu") -> MlpParams:
    """Uniform fan-in initialization: each layer ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    if len(widths) < 2:
        raise ConfigError(f"mlp needs at least [in, out] widths, got {widths}")
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(Tensor(rng.uniform(-bound, bound, (fan_in, fan_out))))
        biases.append(Tensor(rng.uniform(-bound, bound, fan_out)))
    return MlpParams(weights, biases, nonlinearity)


def mlp_forward(params: MlpParams, x: Tensor) -> Tensor:
    x = ad.as_tensor(x)
    if x.shape[-1] != params.in_width:
        raise ShapeError(
            f"mlp expects last axis {params.in_width}, got input shape {x.shape}"
        )
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        x = ad.affine(x, w, b)
        if i != last:
            x = ad.nonlinearity(x, params.nonlinearity)
    return x


@dataclass
class RffConfig:
    """Sinusoidal input featurization with frequencies B ~ Normal(0, omega^2).

    omega controls the frequency content the downstream head can express;
    ``trainable`` decides whether B itself receives optimizer updates.
    """

    omega: float
    freq: Tensor  # (n_frequencies, dim)
    trainable: bool = True

    @property
    def n_frequencies(self) -> int:
        return self.freq.shape[0]

    @property
    def dim(self) -> int:
        return self.freq.shape[1]

    @property
    def out_width(self) -> int:
        return 2 * self.n_frequencies

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        return {f"{prefix}freq": self.freq} if self.trainable else {}


def init_rff(
    omega: float, n_frequencies: int, dim: int, rng: np.random.Generator, trainable: bool = True
) -> RffConfig:
    if omega <= 0 or n_frequencies < 1:
        raise ConfigError(f"rff needs omega > 0 and n_frequencies >= 1, got {omega}, {n_frequencies}")
    return RffConfig(omega, Tensor(rng.normal(0.0, omega, (n_frequencies, dim))), trainable)


def rff_embed(cfg: RffConfig, rel_pos: Tensor) -> Tensor:
    """[cos(2 pi B p) ; sin(2 pi B p)] per row; bounded in [-1, 1] elementwise."""
    rel_pos = ad.as_tensor(rel_pos)
    if rel_pos.shape[-1] != cfg.dim:
        raise ShapeError(f"rff expects width {cfg.dim}, got input shape {rel_pos.shape}")
    # a frozen frequency matrix is detached so it never collects gradient
    freq = cfg.freq if cfg.trainable else Tensor(cfg.freq.data)
    return ad.cos_sin(ad.mul(ad.matmul(rel_pos, ad.transpose2d(freq)), TWO_PI))


@dataclass
class PositionalNet:
    """Relative-coordinate network: sinusoidal features followed by an MLP head.

    Maps (m, dim) offsets to (m, head.out_width) values; the default head width
    makes it the message-side positional embedding, and with out_width set to
    c_in * c_out it doubles as a convolution-kernel generator.
    """

    rff: RffConfig
    head: MlpParams

    def __post_init__(self):
        if self.head.in_width != self.rff.out_width:
            raise ConfigError(
                f"positional head expects input {self.rff.out_width}, got {self.head.in_width}"
            )

    @property
    def out_width(self) -> int:
        return self.head.out_width

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = self.rff.named_parameters(f"{prefix}rff.")
        out.update(self.head.named_parameters(f"{prefix}head."))
        return out


def init_positional_net(
    omega: float,
    n_frequencies: int,
    dim: int,
    hidden: list[int],
    out_width: int,
    rng: np.random.Generator,
    trainable_freq: bool = True,
    nonlinearity: str = "gelu",
) -> PositionalNet:
    rff = init_rff(omega, n_frequencies, dim, rng, trainable_freq)
    head = init_mlp([rff.out_width, *hidden, out_width], rng, nonlinearity)
    return PositionalNet(rff, head)


def positional_forward(net: PositionalNet, rel_pos: Tensor) -> Tensor:
    return mlp_forward(net.head, rff_embed(net.rff, rel_pos))

"""MLPs and the sinusoidal positional network used for relative coordinates.

Naming convention for checkpoints and optimizers: every learnable array has a
dotted path like ``phi_msg.w0`` or ``pos.head.b1``.  Weight matrices are
``w<i>``, biases ``b<i>``, normalization scales ``gamma``/``beta``, and the
frequency matrix of a positional net ``freq``.  Weight decay applies only to
``w<i>`` entries (and the classification head's ``w``); see ``decays_weight``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


def decays_weight(name: str) -> bool:
    """Whether the named parameter participates in weight decay."""
    leaf = name.rsplit(".", 1)[-1]
    return leaf.startswith("w")


@dataclass
class MlpParams:
    """Affine layers with GELU between them; the last layer is linear."""

    weights: list[Tensor]
    biases: list[Tensor]

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


def init_mlp(widths: list[int], rng: np.random.Generator) -> MlpParams:
    """Uniform fan-in initialization: each layer ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    if len(widths) < 2:
        raise ConfigError(f"mlp needs at least [in, out] widths, got {widths}")
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(Tensor(rng.uniform(-bound, bound, (fan_in, fan_out))))
        biases.append(Tensor(rng.uniform(-bound, bound, fan_out)))
    return MlpParams(weights, biases)


def mlp_forward(params: MlpParams, x: Tensor) -> Tensor:
    x = ad.as_tensor(x)
    if x.shape[-1] != params.in_width:
        raise ShapeError(
            f"mlp expects last axis {params.in_width}, got input shape {x.shape}"
        )
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        x = ad.gelu(ad.affine(x, w, b))
    return ad.affine(x, params.weights[-1], params.biases[-1])


@dataclass
class RffConfig:
    """Sinusoidal input featurization with frequencies B ~ Normal(0, omega^2).

    omega controls the frequency content the downstream head can express; B
    itself is a learnable parameter.
    """

    omega: float
    freq: Tensor  # (n_frequencies, dim)

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
        return {f"{prefix}freq": self.freq}


def init_rff(omega: float, n_frequencies: int, dim: int, rng: np.random.Generator) -> RffConfig:
    if not (np.isfinite(omega) and omega > 0) or n_frequencies < 1:
        raise ConfigError(
            f"rff needs a finite omega > 0 and n_frequencies >= 1, got {omega}, {n_frequencies}"
        )
    return RffConfig(omega, Tensor(rng.normal(0.0, omega, (n_frequencies, dim))))


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
) -> PositionalNet:
    rff = init_rff(omega, n_frequencies, dim, rng)
    head = init_mlp([rff.out_width, *hidden, out_width], rng)
    return PositionalNet(rff, head)


def positional_forward(net: PositionalNet, rel_pos: np.ndarray) -> Tensor:
    """The network on the constant (m, dim) offsets ``rel_pos``, as one
    ``autodiff.positional`` node: [cos 2 pi B p ; sin 2 pi B p] per row, then
    the head."""
    head = net.head
    return ad.positional(rel_pos, net.rff.freq, zip(head.weights, head.biases))

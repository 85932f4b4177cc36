"""MLPs and the positional network used for relative coordinates.

A positional network has one form: a sinusoid of learnable frequencies
followed by an MLP head (``PositionalNet``), run forward and backward as one
``autodiff.positional`` node.

Naming convention for checkpoints and optimizers: every learnable array has a
dotted path like ``phi_msg.w0`` or ``pos.head.b1``.  Weight matrices are
``w<i>``, biases ``b<i>``, normalization scales ``gamma``/``beta``, and the
frequency matrix of a positional net ``rff.freq``.  Weight decay applies only
to ``w<i>`` entries (and the classification head's ``w``); see
``decays_weight``.
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
    if len(widths) < 2 or min(widths) < 1:
        raise ConfigError(f"mlp needs at least [in, out] widths, each >= 1, got {widths}")
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
class PositionalNet:
    """Relative-coordinate network: sinusoidal features followed by an MLP head.

    The head reads [cos 2 pi B p ; sin 2 pi B p] with B = ``freq``
    (n_frequencies, dim), a learnable parameter; at least one frequency is
    required, since the sinusoid is what lets the network express
    high-frequency functions of position.  Maps (m, dim) offsets to
    (m, head.out_width) values; the default head width makes it the
    message-side positional embedding, and with out_width set to c_in * c_out
    it doubles as a convolution-kernel generator.
    """

    freq: Tensor  # (n_frequencies, dim)
    head: MlpParams

    def __post_init__(self):
        if self.freq.ndim != 2 or self.freq.shape[0] < 1:
            raise ConfigError(
                f"positional net needs at least one frequency, got freq of shape {self.freq.shape}"
            )
        if self.head.in_width != 2 * self.n_frequencies:
            raise ConfigError(
                f"positional head expects input {2 * self.n_frequencies}, got {self.head.in_width}"
            )

    @property
    def n_frequencies(self) -> int:
        return self.freq.shape[0]

    @property
    def dim(self) -> int:
        return self.freq.shape[1]

    @property
    def out_width(self) -> int:
        return self.head.out_width

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = {f"{prefix}rff.freq": self.freq}
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
    """Frequencies B ~ Normal(0, omega^2), drawn before the head's layers."""
    if not (np.isfinite(omega) and omega > 0):
        raise ConfigError(f"positional net needs a finite omega > 0, got {omega}")
    freq = Tensor(rng.normal(0.0, omega, (n_frequencies, dim)))
    head = init_mlp([2 * n_frequencies, *hidden, out_width], rng)
    return PositionalNet(freq, head)


def positional_forward(net: PositionalNet, rel_pos: np.ndarray) -> Tensor:
    """The network on the constant (m, dim) offsets ``rel_pos``, as one
    ``autodiff.positional`` node: [cos 2 pi B p ; sin 2 pi B p] per row, then
    the head."""
    head = net.head
    return ad.positional(rel_pos, net.freq, zip(head.weights, head.biases))

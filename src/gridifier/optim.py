"""AdamW with decoupled weight decay, plus the warmup/cosine schedule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, TrainingError
from .nn import decays_weight


@dataclass
class AdamWState:
    """Moment estimates for every parameter and the shared hyperparameters.

    ``m`` and ``v`` are each stored as one flat vector (``m_flat``,
    ``v_flat``), laid out name by name in the order of the ``m`` dict given at
    construction; ``layout`` maps each name to its slice.  The per-name ``m``
    and ``v`` dicts are views into those vectors, so a step updates them
    without copying and a checkpoint still reads them by name.

    Weight decay is decoupled from the gradient step and skipped for biases,
    normalization scales, and frequency matrices (anything ``decays_weight``
    rejects); ``decay`` is that choice as a mask over the flat layout.
    """

    lr: float
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    m_flat: np.ndarray = field(init=False, repr=False)
    v_flat: np.ndarray = field(init=False, repr=False)
    layout: dict[str, slice] = field(init=False, repr=False)
    decay: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.layout = {}
        end = 0
        for name, m in self.m.items():
            self.layout[name] = slice(end, end + m.size)
            end += m.size
        self.m_flat = _pack(self.m, self.layout, end)
        self.v_flat = _pack(self.v, self.layout, end)
        self.decay = np.zeros(end, dtype=bool)
        for name, sl in self.layout.items():
            self.decay[sl] = decays_weight(name)


def _pack(arrays: dict[str, np.ndarray], layout: dict[str, slice], size: int) -> np.ndarray:
    """Copy ``arrays`` into one flat vector and make ``arrays`` views of it."""
    flat = np.empty(size)
    for name, sl in layout.items():
        flat[sl] = np.ravel(arrays[name])
        arrays[name] = flat[sl].reshape(np.shape(arrays[name]))
    return flat


def adamw_init(params: dict[str, Tensor], lr: float, weight_decay: float = 0.0) -> AdamWState:
    """Zero moments for every parameter, with the default betas and eps."""
    m = {name: np.zeros_like(p.data) for name, p in params.items()}
    v = {name: np.zeros_like(p.data) for name, p in params.items()}
    return AdamWState(lr, weight_decay, m=m, v=v)


def adamw_step(state: AdamWState, params: dict[str, Tensor], lr: float | None = None,
               scale: float = 1.0) -> None:
    """One in-place update on ``scale`` times the stored gradients.

    ``lr`` overrides the stored rate (for schedules); ``scale`` turns summed
    gradients into a batch mean.  A ``None`` gradient counts as zeros.  All
    parameters are updated as one flat vector, with the same elementwise
    operations a per-parameter step would apply.
    """
    lr = state.lr if lr is None else lr
    g = np.zeros(state.m_flat.size)
    flat = np.empty_like(g)
    for name, sl in state.layout.items():
        p = params[name]
        flat[sl] = np.ravel(p.data)
        if p.grad is not None:
            g[sl] = np.ravel(p.grad)
    g *= scale
    if not np.all(np.isfinite(g)):
        name = next(n for n in params if not np.all(np.isfinite(g[state.layout[n]])))
        raise TrainingError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    m, v = state.m_flat, state.v_flat
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    if state.weight_decay:
        flat[state.decay] *= 1.0 - lr * state.weight_decay
    flat -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    for name, sl in state.layout.items():
        p = params[name]
        p.data[...] = flat[sl].reshape(p.data.shape)


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def lr_at(epoch: int, total_epochs: int, warmup_epochs: int, base_lr: float) -> float:
    """Linear ramp to base_lr over the warmup epochs, then cosine decay toward 0.

    lr(epoch) = base_lr * epoch / warmup  for epoch < warmup (so the midpoint
    sits at exactly base_lr / 2), reaching base_lr at epoch == warmup, then
    base_lr * 0.5 * (1 + cos(pi * (epoch - warmup) / (total - warmup))).
    """
    if warmup_epochs >= total_epochs:
        raise ConfigError(f"warmup {warmup_epochs} must be < total epochs {total_epochs}")
    if not 0 <= epoch < total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {total_epochs})")
    if epoch < warmup_epochs:
        return base_lr * epoch / warmup_epochs
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * (epoch - warmup_epochs) / (total_epochs - warmup_epochs)))

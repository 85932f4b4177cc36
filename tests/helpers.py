"""Shared numeric oracles for the test suite.

The gradient checker evaluates the model function itself at perturbed inputs,
so it stays valid no matter how the analytic backward rules are implemented.
"""

import os
from pathlib import Path

import numpy as np
from scipy.special import erf

from gridifier import autodiff as ad
from gridifier.autodiff import Tensor
from gridifier.nn import MlpParams, PositionalNet

FD_STEP = 1e-5

SRC = Path(__file__).resolve().parents[1] / "src"


def checkout_env() -> dict:
    """This process's environment with the checkout's ``src/`` first on
    PYTHONPATH: pytest's ``pythonpath`` setting does not reach a subprocess,
    and a checkout runs without an install."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def identity_mlp(width: int) -> MlpParams:
    """Single linear layer with W=I, b=0, for pinning tests."""
    return MlpParams([Tensor(np.eye(width))], [Tensor(np.zeros(width))])


def naive_mlp(params, row):
    """One input row through an MLP, written with plain loops and ndarray math."""
    h = row
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.data + b.data
        if i != last:
            h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
    return h


def naive_pos(net, rel_row):
    """Positional value for one offset row; accepts a plain MLP as well."""
    if isinstance(net, PositionalNet):
        z = 2.0 * np.pi * (net.rff.freq.data @ rel_row)
        return naive_mlp(net.head, np.concatenate([np.cos(z), np.sin(z)]))
    return naive_mlp(net, rel_row)


def _phase(rel, freq):
    """rel @ B^T with B = ``freq``; the offsets are constants."""
    out = Tensor(rel @ freq.data.T, (freq,))
    out._backward = lambda g: freq.accumulate((rel.T @ g).T)
    return out


def _cos_sin(t):
    """[cos t ; sin t] along the last axis; the backward reads both halves."""
    width = t.shape[1]
    c, s = np.cos(t.data), np.sin(t.data)
    out = Tensor(np.concatenate([c, s], axis=1), (t,))
    out._backward = lambda g: t.accumulate(-g[:, :width] * s + g[:, width:] * c)
    return out


def taped_positional(net, rel):
    """The positional network on the offsets ``rel`` as a chain of small taped
    nodes: [cos ; sin] of (rel @ B^T) * 2 pi, then ``ad.affine`` layers with
    ``ad.gelu`` between them.  It is the composition ``ad.positional`` fuses,
    in the same operation order, so both give the same bits.  A plain MLP
    runs on the offsets themselves."""
    if isinstance(net, PositionalNet):
        x = _cos_sin(ad.mul(_phase(rel, net.rff.freq), 2.0 * np.pi))
        net = net.head
    else:
        x = Tensor(rel)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        x = ad.affine(ad.gelu(x) if i else x, w, b)
    return x


def numeric_grad(f, arrays, which, h=FD_STEP):
    """Central finite differences of scalar f w.r.t. arrays[which]."""
    grad = np.zeros_like(arrays[which])
    for j in range(grad.size):
        hi = [a.copy() for a in arrays]
        lo = [a.copy() for a in arrays]
        hi[which].ravel()[j] += h
        lo[which].ravel()[j] -= h
        grad.ravel()[j] = (f(hi) - f(lo)) / (2.0 * h)
    return grad


def assert_grads_match(build, arrays, tol=1e-4, skip=()):
    """Compare analytic gradients of build(tensors) against finite differences.

    build maps a list of Tensors to a scalar Tensor; the same callable is
    reused for the numeric probe so both sides evaluate identical code.
    """
    tensors = [Tensor(a) for a in arrays]
    out = build(tensors)
    out.backward()

    def scalar(arrs):
        return build([Tensor(a) for a in arrs]).item()

    for i, t in enumerate(tensors):
        if i in skip:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(arrays[i])
        numeric = numeric_grad(scalar, arrays, i)
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() < tol, f"arg {i}: max rel err {rel.max():.3g}"


def rand(rng, *shape):
    return rng.normal(size=shape)

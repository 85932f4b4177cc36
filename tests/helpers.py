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
    for i, (w, b) in enumerate(params.layers):
        h = h @ w.data + b.data
        if i != last:
            h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
    return h


def naive_pos(net: PositionalNet, rel_row):
    """Positional value for one offset row."""
    z = 2.0 * np.pi * (net.freq.data @ rel_row)
    return naive_mlp(net.head, np.concatenate([np.cos(z), np.sin(z)]))


def _phase(rel, freq):
    """rel @ B^T with B = ``freq``; the offsets are constants."""
    return Tensor(rel @ freq.data.T, (freq,), lambda g: freq.accumulate((rel.T @ g).T))


def _cos_sin(t):
    """[cos t ; sin t] along the last axis; the backward reads both halves."""
    width = t.shape[1]
    c, s = np.cos(t.data), np.sin(t.data)

    def backward(g):
        t.accumulate(-g[:, :width] * s + g[:, width:] * c)

    return Tensor(np.concatenate([c, s], axis=1), (t,), backward)


def taped_head(head: MlpParams, x):
    """``head``'s layers on ``x`` as taped ``ad.affine`` nodes with
    ``ad.gelu`` between them."""
    for i, (w, b) in enumerate(head.layers):
        x = ad.affine(ad.gelu(x) if i else x, w, b)
    return x


def taped_positional(net: PositionalNet, rel):
    """The positional network on the offsets ``rel`` as a chain of small taped
    nodes: [cos ; sin] of (rel @ B^T) * 2 pi, then ``ad.affine`` layers with
    ``ad.gelu`` between them.  It is the composition ``ad.positional`` fuses,
    in the same operation order, so both give the same bits."""
    return taped_head(net.head, _cos_sin(ad.mul(_phase(rel, net.freq), 2.0 * np.pi)))


def taped_edge_sinusoid(freq: Tensor, src_coords, dst_coords, src, dst):
    """[cos 2 pi B r ; sin 2 pi B r] of every edge's offset r = dst - src at
    once, formed as the edge nodes form it, from the per-point phases of
    ``ad._edge_phases``.  Its backward is the gradient of
    B = ``freq`` through r."""
    x = ad._edge_sinusoid(ad._edge_phases(src_coords, dst_coords, freq.data), dst, src)
    rel = dst_coords[dst] - src_coords[src]
    f = freq.shape[0]

    def backward(g):
        gz = -g[:, :f] * x[:, f:] + g[:, f:] * x[:, :f]
        freq.accumulate((rel.T @ (gz * (2.0 * np.pi))).T)

    return Tensor(x, (freq,), backward)


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


def assert_directional_grads_match(build, arrays, rng, tol=1e-6):
    """Compare each argument's analytic gradient with one central difference
    along a random direction: <grad, v> against (f(a + h v) - f(a - h v)) / 2h.

    Two evaluations per argument, so it probes arguments too large for
    ``assert_grads_match``'s element-by-element differences.
    """
    tensors = [Tensor(a) for a in arrays]
    build(tensors).backward()
    for i, t in enumerate(tensors):
        v = rng.normal(size=arrays[i].shape)
        hi = [a + FD_STEP * v if j == i else a for j, a in enumerate(arrays)]
        lo = [a - FD_STEP * v if j == i else a for j, a in enumerate(arrays)]
        numeric = (build([Tensor(a) for a in hi]).item() - build([Tensor(a) for a in lo]).item()) / (
            2.0 * FD_STEP
        )
        analytic = float(np.sum(t.grad * v))
        rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-6)
        assert rel < tol, f"arg {i}: directional derivative {analytic} vs {numeric}"


def rand(rng, *shape):
    return rng.normal(size=shape)

"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps an ndarray plus an optional backward closure and parent links.
Calling ``backward()`` on a scalar output walks the graph in reverse
topological order and accumulates ``grad`` on every tensor that contributed.
Only the operations the gridification pipeline needs are implemented; each op
defines its exact backward rule, and the whole set is validated against
central finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from .errors import InvariantError, ShapeError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """Node in the differentiation graph: value, gradient slot, backward rule."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            if isinstance(g, np.ndarray) and g.shape == self.data.shape:
                self.grad = g.astype(np.float64, copy=True)
            else:
                self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=np.float64)
        else:
            self.grad += g

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into every reachable node's ``grad``."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar output, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, (a, b))

    def backward(g):
        a.accumulate(_unbroadcast(g, a.shape))
        b.accumulate(_unbroadcast(g, b.shape))

    out._backward = backward
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data, (a, b))

    def backward(g):
        a.accumulate(_unbroadcast(g, a.shape))
        b.accumulate(_unbroadcast(-g, b.shape))

    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, (a, b))

    def backward(g):
        a.accumulate(_unbroadcast(g * b.data, a.shape))
        b.accumulate(_unbroadcast(g * a.data, b.shape))

    out._backward = backward
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, (a, b))

    def backward(g):
        a.accumulate(g @ b.data.T)
        b.accumulate(a.data.T @ g)

    out._backward = backward
    return out


def affine(x, w, b) -> Tensor:
    """Fused x @ w + row-broadcast bias; one node instead of matmul-then-add."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"affine shapes incompatible: {x.shape} @ {w.shape} + {b.shape}")
    out = Tensor(x.data @ w.data + b.data, (x, w, b))

    def backward(g):
        x.accumulate(g @ w.data.T)
        w.accumulate(x.data.T @ g)
        b.accumulate(g.sum(axis=0))

    out._backward = backward
    return out


def concat_last_axis(parts: list[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.shape[:-1] != lead:
            raise ShapeError(
                f"concat_last_axis leading shapes differ: {parts[0].shape} vs {p.shape}"
            )
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1), parts)
    widths = [p.shape[-1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def backward(g):
        for p, piece in zip(parts, np.split(g, splits, axis=-1)):
            p.accumulate(piece)

    out._backward = backward
    return out


def transpose2d(t: Tensor) -> Tensor:
    t = as_tensor(t)
    if t.ndim != 2:
        raise ShapeError(f"transpose2d expects a 2-d tensor, got {t.shape}")
    out = Tensor(t.data.T, (t,))

    def backward(g):
        t.accumulate(g.T)

    out._backward = backward
    return out


def reshape(t: Tensor, shape) -> Tensor:
    t = as_tensor(t)
    out = Tensor(t.data.reshape(shape), (t,))

    def backward(g):
        t.accumulate(g.reshape(t.shape))

    out._backward = backward
    return out


def reduce_mean(t: Tensor, axis: int | None = None) -> Tensor:
    t = as_tensor(t)
    out = Tensor(t.data.mean(axis=axis), (t,))
    count = t.data.size if axis is None else t.shape[axis]

    def backward(g):
        if axis is None:
            t.accumulate(np.full(t.shape, g / count))
        else:
            t.accumulate(np.broadcast_to(np.expand_dims(g, axis), t.shape) / count)

    out._backward = backward
    return out


def reduce_max(t: Tensor, axis: int | None = None) -> Tensor:
    t = as_tensor(t)
    out = Tensor(t.data.max(axis=axis), (t,))

    def backward(g):
        grad = np.zeros_like(t.data)
        if axis is None:
            # route to the first maximum in flat order
            grad.ravel()[int(np.argmax(t.data))] = g
        else:
            idx = np.expand_dims(np.argmax(t.data, axis=axis), axis)
            np.put_along_axis(grad, idx, np.expand_dims(g, axis), axis)
        t.accumulate(grad)

    out._backward = backward
    return out


def _sum_rows_at(values: np.ndarray, indices: np.ndarray, n_dst: int) -> np.ndarray:
    """Row-wise indexed summation, out[indices[i]] += values[i].

    Implemented as one flattened bincount, which walks rows in ascending order
    exactly like a sequential loop would — so per-destination accumulation
    order (and hence the result bits) matches the naive formulation — but
    without the per-element dispatch cost of ``np.add.at``.
    """
    width = values.shape[1]
    flat_idx = (indices[:, None] * width + np.arange(width)).ravel()
    flat = np.bincount(flat_idx, weights=values.ravel(), minlength=n_dst * width)
    return flat.reshape(n_dst, width)


def gather_rows(t: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a 2-d tensor; gradients of repeated rows are summed."""
    t = as_tensor(t)
    if t.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-d tensor, got {t.shape}")
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= t.shape[0]):
        raise InvariantError(f"gather_rows index out of bounds [0, {t.shape[0]})")
    out = Tensor(t.data[indices], (t,))

    def backward(g):
        t.accumulate(_sum_rows_at(g, indices, t.shape[0]))

    out._backward = backward
    return out


def _check_scatter(values: Tensor, indices: np.ndarray, n_dst: int):
    if values.ndim != 2:
        raise ShapeError(f"scatter expects 2-d values, got {values.shape}")
    indices = np.asarray(indices, dtype=np.int64)
    if indices.shape != (values.shape[0],):
        raise ShapeError(
            f"scatter indices shape {indices.shape} != values rows ({values.shape[0]},)"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= n_dst):
        raise InvariantError(f"scatter index out of bounds [0, {n_dst})")
    return indices


def scatter_sum(values: Tensor, indices: np.ndarray, n_dst: int) -> Tensor:
    values = as_tensor(values)
    indices = _check_scatter(values, indices, n_dst)
    out = Tensor(_sum_rows_at(values.data, indices, n_dst), (values,))

    def backward(g):
        values.accumulate(g[indices])

    out._backward = backward
    return out


def scatter_aggregate(values: Tensor, indices: np.ndarray, n_dst: int, mode: str) -> Tensor:
    """Reduce value rows onto destination rows: per-destination mean or max.

    Every destination in [0, n_dst) must receive at least one row — an empty
    neighborhood is treated as a wiring bug, not silently zero-filled.  Under
    ``max`` the gradient flows to the first contributing row on ties.
    """
    values = as_tensor(values)
    indices = _check_scatter(values, indices, n_dst)
    counts = np.bincount(indices, minlength=n_dst)
    if (counts == 0).any():
        empty = int(np.argmin(counts))
        raise InvariantError(f"destination {empty} receives no values in scatter_aggregate")

    if mode == "mean":
        data = _sum_rows_at(values.data, indices, n_dst)
        data /= counts[:, None]
        out = Tensor(data, (values,))

        def backward(g):
            values.accumulate((g / counts[:, None])[indices])

        out._backward = backward
        return out

    if mode == "max":
        n_rows = values.shape[0]
        # reduce over contiguous destination segments; message passing already
        # passes indices sorted by destination, so the stable sort is rarely paid
        if np.any(indices[1:] < indices[:-1]):
            row_ids = np.argsort(indices, kind="stable")
            seg_values = values.data[row_ids]
        else:
            row_ids = np.arange(n_rows)
            seg_values = values.data
        starts = np.zeros(n_dst, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        data = np.maximum.reduceat(seg_values, starts, axis=0)
        # first row index attaining the per-destination maximum, per column
        candidates = np.where(
            seg_values == np.repeat(data, counts, axis=0), row_ids[:, None], n_rows
        )
        winner = np.minimum.reduceat(candidates, starts, axis=0)
        out = Tensor(data, (values,))

        def backward(g):
            grad = np.zeros_like(values.data)
            # a NaN maximum has no winner (n_rows).  Destinations own disjoint
            # rows, so each (winner, column) pair occurs once; adding onto the
            # zeros keeps the bits of a summed 0.0 + g, signed zeros included
            hit = winner < n_rows
            grad[winner[hit], np.nonzero(hit)[1]] += g[hit]
            values.accumulate(grad)

        out._backward = backward
        return out

    raise InvariantError(f"unknown scatter_aggregate mode {mode!r}")


def pairwise_apply(weights: Tensor, x: Tensor) -> Tensor:
    """Per-row vector-matrix product: (n, in, out) applied to (n, in) -> (n, out).

    Row r of the result is x[r] @ weights[r]; used where every row carries its
    own mixing matrix (per-edge kernels).
    """
    weights, x = as_tensor(weights), as_tensor(x)
    if weights.ndim != 3 or x.ndim != 2 or weights.shape[:2] != x.shape:
        raise ShapeError(f"pairwise_apply shapes incompatible: {weights.shape} vs {x.shape}")
    out = Tensor(np.einsum("nio,ni->no", weights.data, x.data), (weights, x))

    def backward(g):
        weights.accumulate(np.einsum("ni,no->nio", x.data, g))
        x.accumulate(np.einsum("nio,no->ni", weights.data, g))

    out._backward = backward
    return out


def _window_cols(x: np.ndarray, resolution: int, dim: int, kernel_size: int) -> np.ndarray:
    """Windows over every axis but the first, shape (r, r**(D-1), K**(D-1) * C).

    Axes 1..D-1 are zero-padded by (K-1)/2 and each cell's K**(D-1) window is
    copied once, taps in row-major order with the channel axis fastest, so
    slicing the leading axis yields contiguous row blocks.
    """
    half = (kernel_size - 1) // 2
    r, c = resolution, x.shape[1]
    padded = np.zeros((r,) + (r + 2 * half,) * (dim - 1) + (c,))
    padded[(slice(None),) + (slice(half, half + r),) * (dim - 1)] = x.reshape((r,) * dim + (c,))
    win = sliding_window_view(padded, (kernel_size,) * (dim - 1), axis=tuple(range(1, dim)))
    win = win.transpose(*range(dim), *range(dim + 1, 2 * dim), dim)
    return np.ascontiguousarray(win).reshape(r, r ** (dim - 1), kernel_size ** (dim - 1) * c)


def _tap_blocks(resolution: int, rows: int, kernel_size: int):
    """(tap, dst, src) row slices for each first-axis tap that stays in range.

    Tap a shifts the first axis by a - (K-1)/2; the slices cover the output
    rows whose shifted source row exists, in blocks of ``rows`` flat rows.
    """
    half = (kernel_size - 1) // 2
    for a in range(kernel_size):
        shift = a - half
        lo, hi = max(0, -shift), min(resolution, resolution - shift)
        if lo < hi:
            yield a, slice(lo * rows, hi * rows), slice((lo + shift) * rows, (hi + shift) * rows)


def _correlate_cols(cols: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum over first-axis taps a of the shifted row block of ``cols`` @ w[a].

    ``cols`` comes from ``_window_cols``; ``w`` is (K, K**(D-1) * C_in, C_out),
    one matrix per first-axis tap.  Each tap is one 2-d matmul.
    """
    r, rows, width = cols.shape
    kernel_size = w.shape[0]
    half = (kernel_size - 1) // 2
    flat = cols.reshape(r * rows, width)
    # the centre tap covers every row, so it initializes the output
    out = flat @ w[half]
    for a, dst, src in _tap_blocks(r, rows, kernel_size):
        if a != half:
            out[dst] += flat[src] @ w[a]
    return out


def grid_correlate(x, kernel, resolution: int, dim: int, kernel_size: int) -> Tensor:
    """Zero-padded D-d cross-correlation on a lattice, (r**D, c_in) -> (r**D, c_out).

    ``kernel`` is (K**D, c_in, c_out) with taps in row-major order (last axis
    fastest) running from -(K-1)/2 to +(K-1)/2 per axis, and
    out[p] = sum_t x[p + offset(t)] @ kernel[t].  Only the trailing D-1 axes
    are windowed into memory; the first axis is a loop over K shifted row
    blocks.  The input gradient is the same correlation of the output gradient
    with the tap-reversed, channel-transposed kernel, exact for odd K with
    symmetric zero padding.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    n_taps = kernel_size**dim
    if (
        x.ndim != 2
        or kernel.ndim != 3
        or x.shape[0] != resolution**dim
        or kernel.shape[:2] != (n_taps, x.shape[1])
    ):
        raise ShapeError(
            f"grid_correlate shapes incompatible: x {x.shape}, kernel {kernel.shape} "
            f"for r={resolution}, D={dim}, K={kernel_size}"
        )
    c_in, c_out = kernel.shape[1:]
    per_lead = n_taps // kernel_size
    cols = _window_cols(x.data, resolution, dim, kernel_size)
    w = kernel.data.reshape(kernel_size, per_lead * c_in, c_out)
    out = Tensor(_correlate_cols(cols, w), (x, kernel))

    def backward(g):
        flipped = kernel.data[::-1].transpose(0, 2, 1).reshape(kernel_size, per_lead * c_out, c_in)
        x.accumulate(_correlate_cols(_window_cols(g, resolution, dim, kernel_size), flipped))
        _, rows, width = cols.shape
        flat = cols.reshape(-1, width)
        dw = np.zeros((kernel_size, width, c_out))
        for a, dst, src in _tap_blocks(resolution, rows, kernel_size):
            dw[a] = flat[src].T @ g[dst]
        kernel.accumulate(dw.reshape(kernel.shape))

    out._backward = backward
    return out


def nonlinearity(t: Tensor, tag: str) -> Tensor:
    t = as_tensor(t)
    if tag == "identity":
        return t
    if tag == "relu":
        out = Tensor(np.maximum(t.data, 0.0), (t,))

        def backward(g):
            t.accumulate(g * (t.data > 0.0))

        out._backward = backward
        return out
    if tag == "gelu":
        # cdf = 0.5 * (1 + erf(x / sqrt 2)), finished in the erf output
        cdf = erf(t.data * _INV_SQRT2)
        cdf += 1.0
        cdf *= 0.5
        out = Tensor(t.data * cdf, (t,))

        def backward(g):
            # g * (cdf + x * pdf), pdf = exp(-x**2 / 2) / sqrt(2 pi), in one buffer
            d = np.square(t.data)
            d *= -0.5
            np.exp(d, out=d)
            d *= _INV_SQRT2PI
            d *= t.data
            d += cdf
            d *= g
            t.accumulate(d)

        out._backward = backward
        return out
    raise InvariantError(f"unknown nonlinearity {tag!r}")


def cos(t: Tensor) -> Tensor:
    t = as_tensor(t)
    out = Tensor(np.cos(t.data), (t,))

    def backward(g):
        t.accumulate(-g * np.sin(t.data))

    out._backward = backward
    return out


def sin(t: Tensor) -> Tensor:
    t = as_tensor(t)
    out = Tensor(np.sin(t.data), (t,))

    def backward(g):
        t.accumulate(g * np.cos(t.data))

    out._backward = backward
    return out


def channel_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization over the channel axis with learnable scale/shift."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 2 or gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ShapeError(
            f"channel_norm shapes incompatible: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}"
        )
    mean = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv_std
    out = Tensor(xhat * gamma.data + beta.data, (x, gamma, beta))

    def backward(g):
        gamma.accumulate((g * xhat).sum(axis=0))
        beta.accumulate(g.sum(axis=0))
        gy = g * gamma.data
        n = x.shape[1]
        x.accumulate(
            inv_std
            * (gy - gy.mean(axis=1, keepdims=True) - xhat * (gy * xhat).mean(axis=1, keepdims=True))
        )

    out._backward = backward
    return out


def dropout(t: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; pass rate 0 (or omit at evaluation time) for identity."""
    t = as_tensor(t)
    if rate == 0.0:
        return t
    mask = (rng.uniform(size=t.shape) >= rate) / (1.0 - rate)
    out = Tensor(t.data * mask, (t,))

    def backward(g):
        t.accumulate(g * mask)

    out._backward = backward
    return out


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer labels under softmax of the logits."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(f"labels {labels.shape} do not match logits {logits.shape}")
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    out = Tensor(-log_probs[np.arange(n), labels].mean(), (logits,))

    def backward(g):
        grad = np.exp(log_probs)
        grad[np.arange(n), labels] -= 1.0
        logits.accumulate(g * grad / n)

    out._backward = backward
    return out


def mse(a: Tensor, b) -> Tensor:
    """Mean squared difference over all elements."""
    d = sub(a, b)
    return reduce_mean(mul(d, d))

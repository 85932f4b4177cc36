"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps an ndarray plus an optional backward closure and parent links.
Calling ``backward()`` on a scalar output walks the graph in reverse
topological order and accumulates ``grad`` on every tensor that contributed.
Only the operations the gridification pipeline needs are implemented; each op
defines its exact backward rule, and the whole set is validated against
central finite differences in the test suite.

Each forward op builds its full-size output in one buffer.  A tensor adopts
the first gradient array it receives without copying it, and that array may
be shared (``add`` hands one array to both parents, ``reshape`` hands down a
view), so a stored ``grad`` is never written in place: later contributions
replace it with a new sum.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from .errors import InvariantError, ShapeError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
_TWO_PI = 2.0 * np.pi
# bytes of one H-wide array of a ``message_aggregate`` edge block; 256 KiB
# gave the fastest gridify + degridify forward in a sweep from 32 KiB to
# 8 MiB at H=16 and N=1000 and 8000, and a training step at H=128 as fast as
# 512 KiB (CHANGES.md)
_MESSAGE_BLOCK_BYTES = 256 << 10
# bytes of the kernel rows of an ``edge_conv`` edge block; 512 KiB ran the
# per-edge baseline (C=16, k=9) as fast as 256 KiB at N=1000 and 4-5% faster
# at N=2000 and 8000, and 1 MiB was 16% slower at N=1000 (CHANGES.md)
_RENDER_BLOCK_BYTES = 512 << 10


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
        """Add ``g`` to ``grad``.

        The first full-shape gradient is adopted as given, so it may be shared
        with other tensors; a stored ``grad`` is therefore never written in
        place, and each later contribution makes a new sum.
        """
        if self.grad is None:
            if isinstance(g, np.ndarray) and g.shape == self.data.shape:
                self.grad = np.asarray(g, dtype=np.float64)
            else:
                self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=np.float64)
        else:
            self.grad = self.grad + g

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


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = x @ w
    out += b
    return out


def affine(x, w, b) -> Tensor:
    """x @ w plus a row-broadcast bias, as one node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"affine shapes incompatible: {x.shape} @ {w.shape} + {b.shape}")
    out = Tensor(_affine(x.data, w.data, b.data), (x, w, b))

    def backward(g):
        x.accumulate(g @ w.data.T)
        w.accumulate(x.data.T @ g)
        b.accumulate(g.sum(axis=0))

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


def _sum_rows_at(values: np.ndarray, indices: np.ndarray, n_dst: int) -> np.ndarray:
    """Row-wise indexed summation, out[indices[i]] += values[i].

    Implemented as one flattened bincount, which walks rows in ascending order
    exactly like a sequential loop would — so per-destination accumulation
    order (and hence the result bits) matches the naive formulation — but
    without the per-element dispatch cost of ``np.add.at``.  ``np.add.reduceat``
    over destination segments does not keep that order: its sums differ from
    the loop's in the last bits.
    """
    width = values.shape[1]
    flat_idx = (indices[:, None] * width + np.arange(width)).ravel()
    flat = np.bincount(flat_idx, weights=values.ravel(), minlength=n_dst * width)
    return flat.reshape(n_dst, width)


def _by_destination(op: str, src, dst, n_src: int, n_dst: int):
    """Edges stably sorted by destination, after a bounds check naming ``op``.

    Returns src, dst, each destination's edge count, and each destination's
    first edge row followed by the edge count.
    """
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    if src.size and (min(src.min(), dst.min()) < 0 or src.max() >= n_src or dst.max() >= n_dst):
        raise InvariantError(
            f"{op} index out of bounds: sources [0, {n_src}), destinations [0, {n_dst})"
        )
    counts = np.bincount(dst, minlength=n_dst)
    if np.any(dst[1:] < dst[:-1]):
        order = np.argsort(dst, kind="stable")
        src, dst = src[order], dst[order]
    starts = np.zeros(n_dst + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return src, dst, counts, starts


def _segment_blocks(starts: np.ndarray, width: int, budget: int) -> list[tuple[int, int]]:
    """Destination ranges [a, b) whose edges, rows starts[a]:starts[b], form
    blocks of about ``budget`` bytes for ``width`` float64 columns.

    ``starts`` holds each destination's first edge row, then the edge count.
    Blocks end only between destinations; a destination with more edges than
    the budget gets a block of its own.  No block has one row unless there is
    one edge in all: numpy runs a one-row matrix product as a vector-matrix
    product, whose sums can round differently from the same row of a larger
    product.
    """
    step = max(2, budget // (8 * width))
    n_dst = starts.size - 1
    cuts = [0]
    while cuts[-1] < n_dst:
        lo = starts[cuts[-1]]
        # the last destination boundary within the budget, but two rows at least
        fit = np.searchsorted(starts, lo + step, side="right") - 1
        cuts.append(min(max(fit, np.searchsorted(starts, lo + 2)), n_dst))
    if len(cuts) > 2 and starts[cuts[-1]] - starts[cuts[-2]] == 1:
        del cuts[-2]
    return list(zip(cuts[:-1], cuts[1:]))


def _chain_width(layers, width: int) -> int | None:
    """Output width of the affine ``layers`` on ``width`` columns, None if they do not chain."""
    for w, b in layers:
        if w.ndim != 2 or w.shape[0] != width or b.shape != w.shape[1:]:
            return None
        width = w.shape[1]
    return width


def _positional_width(freq: Tensor, dim: int, layers) -> int | None:
    """Output width of the positional network on ``dim``-d offsets: the
    sinusoid of ``freq`` (F, dim) feeds 2F columns to ``layers``.  None if
    the shapes do not fit."""
    if freq.ndim != 2 or freq.shape[1] != dim:
        return None
    return _chain_width(layers, 2 * freq.shape[0])


def _positional(rel: np.ndarray, freq, layers):
    """The positional network on the offsets ``rel``, for one edge block.

    Its input is [cos 2 pi B r ; sin 2 pi B r] with B = ``freq``; ``layers``
    are (w, b) affine layers with exact GELU between them.  Returns the input
    of each layer, (pre-activation, cdf) of each GELU, and the output.
    """
    z = rel @ freq.data.T
    z *= _TWO_PI
    x = np.empty((z.shape[0], 2 * z.shape[1]))
    np.cos(z, out=x[:, : z.shape[1]])
    np.sin(z, out=x[:, z.shape[1] :])
    ins, acts = [x], []
    for w, b in layers[:-1]:
        pre = _affine(x, w.data, b.data)
        cdf = _gelu_cdf(pre)
        x = pre * cdf
        ins.append(x)
        acts.append((pre, cdf))
    w, b = layers[-1]
    return ins, acts, _affine(x, w.data, b.data)


def _positional_grad(rel: np.ndarray, freq, layers, ins, acts, g: np.ndarray, sums) -> None:
    """Backward of ``_positional`` for the gradient ``g`` of its output: adds
    the gradient of every layer and of ``freq`` to ``sums``."""
    for j in reversed(range(len(layers))):
        w, b = layers[j]
        sums.add(w, ins[j].T @ g)
        sums.add(b, g.sum(axis=0))
        g = g @ w.data.T
        if j:
            g = _gelu_grad(*acts[j - 1], g)
    f = freq.shape[0]
    cs = ins[0]
    gz = -g[:, :f] * cs[:, f:] + g[:, f:] * cs[:, :f]
    gz *= _TWO_PI
    sums.add(freq, (rel.T @ gz).T)


class _GradSums:
    """Gradient parts summed across edge blocks, handed to each tensor once."""

    def __init__(self):
        self.parts: dict[int, list] = {}  # id -> [tensor, gradient]

    def add(self, t: Tensor, part: np.ndarray) -> None:
        # every part is a fresh array, so later blocks add onto the first
        if id(t) in self.parts:
            self.parts[id(t)][1] += part
        else:
            self.parts[id(t)] = [t, part]

    def accumulate(self) -> None:
        for t, part in self.parts.values():
            t.accumulate(part)


def positional(rel, freq, layers) -> Tensor:
    """The positional network on the offsets ``rel`` (m, D), as one node.

    It is ``message_aggregate``'s and ``edge_conv``'s positional network: the
    sinusoid of ``freq`` (F, D), then the (w, b) ``layers`` with exact GELU
    between them.  ``rel`` is a constant: gradients reach ``freq`` and the
    layers only.
    """
    freq = as_tensor(freq)
    layers = [(as_tensor(w), as_tensor(b)) for w, b in layers]
    rel = np.asarray(rel, dtype=np.float64)
    width = _positional_width(freq, rel.shape[-1], layers)
    if width is None or rel.ndim != 2:
        raise ShapeError(
            f"positional shapes incompatible: offsets {rel.shape}, "
            f"freq {freq.shape}, layers {[w.shape for w, _ in layers]}"
        )
    ins, acts, data = _positional(rel, freq, layers)
    out = Tensor(data, [freq, *(t for layer in layers for t in layer)])

    def backward(g):
        sums = _GradSums()
        _positional_grad(rel, freq, layers, ins, acts, g, sums)
        sums.accumulate()

    out._backward = backward
    return out


def message_aggregate(
    node, src_coords, dst_coords, src, dst, freq, pos_layers, msg_layers, mode: str
) -> Tensor:
    """Per-destination mean or max of edge messages, computed in blocks of edges.

    Edge e from source s to destination d carries the message
    msg([node[s] ; pos(dst_coords[d] - src_coords[s])]).  ``pos`` is an MLP
    over [cos 2 pi B r ; sin 2 pi B r] with B = ``freq`` (F, D);
    ``pos_layers`` and ``msg_layers`` are (w, b) affine layers with exact GELU
    between them.  msg's first layer is split by linearity: node @ w0[:H]
    runs once per source row and is gathered per edge, so no (E, 2H)
    concatenation exists.

    Edges are stably sorted by destination and run through the chain in blocks
    of about ``_MESSAGE_BLOCK_BYTES`` per H-wide array, cut only between
    destinations: each mean or max is reduced in edge order inside one block,
    so the bits equal those of the chain run over all edges at once.  Only the
    last block's intermediates are kept; the backward walks the blocks from
    last to first and recomputes the others.  Every destination must receive
    an edge.  Under ``max`` the gradient goes to the first edge attaining the
    maximum, and a NaN maximum has no winner.
    """
    node = as_tensor(node)
    freq = as_tensor(freq)
    pos_layers = [(as_tensor(w), as_tensor(b)) for w, b in pos_layers]
    msg_layers = [(as_tensor(w), as_tensor(b)) for w, b in msg_layers]
    src_coords = np.asarray(src_coords, dtype=np.float64)
    dst_coords = np.asarray(dst_coords, dtype=np.float64)
    dim = src_coords.shape[-1]
    pos_width = _positional_width(freq, dim, pos_layers)
    width = node.shape[-1]
    out_width = None if pos_width is None else _chain_width(msg_layers, width + pos_width)
    if (
        out_width is None
        or (node.ndim, src_coords.ndim, dst_coords.ndim) != (2, 2, 2)
        or node.shape[0] != src_coords.shape[0]
        or dst_coords.shape[1] != dim
        or np.shape(src) != np.shape(dst)
        or np.ndim(src) != 1
    ):
        raise ShapeError(
            f"message_aggregate shapes incompatible: node {node.shape}, coords "
            f"{src_coords.shape} -> {dst_coords.shape}, edges {np.shape(src)} -> "
            f"{np.shape(dst)}, freq {freq.shape}, "
            f"pos {[w.shape for w, _ in pos_layers]}, msg {[w.shape for w, _ in msg_layers]}"
        )
    n_src, n_dst = node.shape[0], dst_coords.shape[0]
    src, dst, counts, starts = _by_destination("message_aggregate", src, dst, n_src, n_dst)
    if mode not in ("mean", "max"):
        raise InvariantError(f"unknown message_aggregate mode {mode!r}")
    if (counts == 0).any():
        empty = int(np.argmin(counts))
        raise InvariantError(f"destination {empty} receives no edges in message_aggregate")
    blocks = _segment_blocks(starts, width, _MESSAGE_BLOCK_BYTES)

    w0, b0 = msg_layers[0]
    w0_node, w0_pos = w0.data[:width], w0.data[width:]

    def messages(a: int, b: int, proj: np.ndarray):
        """The chain over destinations [a, b): their edge rows, source rows
        and offsets, the positional network's layer inputs, GELUs and
        output, (pre-activation, cdf, output) of each msg GELU, and the
        messages.  ``proj`` is node @ w0[:H]."""
        rows = slice(starts[a], starts[b])
        s = src[rows]
        rel = dst_coords[dst[rows]] - src_coords[s]
        pos_in, pos_act, pos = _positional(rel, freq, pos_layers)
        m = proj[s]
        m += pos @ w0_pos
        m += b0.data
        msg_act = []
        for w, bias in msg_layers[1:]:
            cdf = _gelu_cdf(m)
            h = m * cdf
            msg_act.append((m, cdf, h))
            m = _affine(h, w.data, bias.data)
        return rows, s, rel, pos_in, pos_act, pos, msg_act, m

    data = np.empty((n_dst, out_width))
    proj = node.data @ w0_node
    kept = None
    for a, b in blocks:
        kept = None  # free the previous block before computing this one
        kept = messages(a, b, proj)
        rows, m = kept[0], kept[-1]
        if mode == "mean":
            data[a:b] = _sum_rows_at(m, dst[rows] - a, b - a)
        else:
            np.maximum.reduceat(m, starts[a:b] - starts[a], axis=0, out=data[a:b])
    if mode == "mean":
        data /= counts[:, None]
    out = Tensor(data, [node, freq, *(t for layer in pos_layers + msg_layers for t in layer)])

    def backward(g):
        sums = _GradSums()
        g_mean = g / counts[:, None] if mode == "mean" else None
        # the forward keeps only the last block, and not the projected rows
        proj = node.data @ w0_node if len(blocks) > 1 else None
        g_rows = g_w0_pos = None
        for i in reversed(range(len(blocks))):
            a, b = blocks[i]
            parts = kept if i == len(blocks) - 1 else messages(a, b, proj)
            rows, s, rel, pos_in, pos_act, pos, msg_act, m = parts
            if mode == "mean":
                gm = g_mean[dst[rows]]
            else:
                # first row attaining each maximum; a NaN maximum has no
                # winner (n).  Winners are distinct rows, so adding onto the
                # zeros keeps the bits of g, signed zeros included
                n = m.shape[0]
                maxima = np.repeat(data[a:b], counts[a:b], axis=0)
                hit_rows = np.where(m == maxima, np.arange(n)[:, None], n)
                winner = np.minimum.reduceat(hit_rows, starts[a:b] - starts[a], axis=0)
                gm = np.zeros_like(m)
                hit = winner < n
                gm[winner[hit], np.nonzero(hit)[1]] += g[a:b][hit]
            for (w, bias), (pre, cdf, h) in zip(msg_layers[:0:-1], msg_act[::-1]):
                sums.add(w, h.T @ gm)
                sums.add(bias, gm.sum(axis=0))
                gm = _gelu_grad(pre, cdf, gm @ w.data.T)
            # the split first layer: the node half is summed onto source rows
            if g_rows is None:
                g_rows, g_w0_pos = _sum_rows_at(gm, s, n_src), pos.T @ gm
            else:
                g_rows += _sum_rows_at(gm, s, n_src)
                g_w0_pos += pos.T @ gm
            sums.add(b0, gm.sum(axis=0))
            _positional_grad(rel, freq, pos_layers, pos_in, pos_act, gm @ w0_pos.T, sums)
        if g_rows is not None:
            node.accumulate(g_rows @ w0_node.T)
            sums.add(w0, np.concatenate([node.data.T @ g_rows, g_w0_pos]))
        sums.accumulate()

    out._backward = backward
    return out


def edge_conv(coords, x, src, dst, freq, layers) -> Tensor:
    """Per-destination sums of source rows mixed by per-edge kernels, in blocks of edges.

    Edge e from source s to destination d renders the kernel row
    pos(coords[d] - coords[s]), reshaped to a (c_in, c_out) matrix, and
    carries x[s] @ that matrix; row d of the result sums the messages of the
    edges into d in edge order, and a point without edges gets zeros.
    ``pos`` is ``message_aggregate``'s positional network: the sinusoid of
    ``freq``, then the (w, b) ``layers`` with exact GELU between them, the
    last one rendering c_in*c_out kernel values per edge.

    Edges are stably sorted by destination and run in blocks of about
    ``_RENDER_BLOCK_BYTES`` of kernel rows, cut only between destinations,
    so the bits equal those of rendering every kernel row at once and no
    (E, c_in*c_out) array is formed.  Only the last block's intermediates are
    kept; the backward walks the blocks from last to first and recomputes the
    others.
    """
    x = as_tensor(x)
    freq = as_tensor(freq)
    layers = [(as_tensor(w), as_tensor(b)) for w, b in layers]
    coords = np.asarray(coords, dtype=np.float64)
    width = _positional_width(freq, coords.shape[-1], layers)
    if (
        width is None
        or (coords.ndim, x.ndim) != (2, 2)
        or x.shape[0] != coords.shape[0]
        or width % x.shape[1]
        or np.shape(src) != np.shape(dst)
        or np.ndim(src) != 1
    ):
        raise ShapeError(
            f"edge_conv shapes incompatible: coords {coords.shape}, x {x.shape}, edges "
            f"{np.shape(src)} -> {np.shape(dst)}, freq {freq.shape}, "
            f"layers {[w.shape for w, _ in layers]}"
        )
    n, c_in = x.shape
    c_out = width // c_in
    src, dst, _, starts = _by_destination("edge_conv", src, dst, n, n)
    blocks = _segment_blocks(starts, width, _RENDER_BLOCK_BYTES)

    def kernels(a: int, b: int):
        """Edge rows, source rows and offsets of destinations [a, b), the
        positional network's layer inputs and GELUs, and the kernel rows
        as (rows, c_in, c_out) matrices."""
        rows = slice(starts[a], starts[b])
        s = src[rows]
        rel = coords[dst[rows]] - coords[s]
        ins, acts, k = _positional(rel, freq, layers)
        return rows, s, rel, ins, acts, k.reshape(-1, c_in, c_out)

    data = np.empty((n, c_out))
    kept = None
    for a, b in blocks:
        kept = None  # free the previous block before computing this one
        kept = kernels(a, b)
        rows, s, k = kept[0], kept[1], kept[-1]
        msgs = np.einsum("nio,ni->no", k, x.data[s])
        data[a:b] = _sum_rows_at(msgs, dst[rows] - a, b - a)
    out = Tensor(data, [x, freq, *(t for layer in layers for t in layer)])

    def backward(g):
        sums = _GradSums()
        g_x = np.zeros(x.shape)
        for i in reversed(range(len(blocks))):
            a, b = blocks[i]
            parts = kept if i == len(blocks) - 1 else kernels(a, b)
            rows, s, rel, ins, acts, k = parts
            gm = g[dst[rows]]
            g_x += _sum_rows_at(np.einsum("nio,no->ni", k, gm), s, n)
            # d(message)/d(kernel row) is the outer product of the source row and g
            g_k = (x.data[s][:, :, None] * gm[:, None, :]).reshape(-1, width)
            _positional_grad(rel, freq, layers, ins, acts, g_k, sums)
        x.accumulate(g_x)
        sums.accumulate()

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


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt 2)), finished in the erf output."""
    cdf = erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_grad(x: np.ndarray, cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g * (cdf + x * pdf), pdf = exp(-x**2 / 2) / sqrt(2 pi), in one buffer."""
    d = np.square(x)
    d *= -0.5
    np.exp(d, out=d)
    d *= _INV_SQRT2PI
    d *= x
    d += cdf
    d *= g
    return d


def gelu(t: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x) with Phi the standard normal CDF."""
    t = as_tensor(t)
    cdf = _gelu_cdf(t.data)
    out = Tensor(t.data * cdf, (t,))

    def backward(g):
        t.accumulate(_gelu_grad(t.data, cdf, g))

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

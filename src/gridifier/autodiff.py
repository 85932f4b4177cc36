"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps an ndarray plus an optional backward closure and parent links,
and its constructor, ``Tensor(data, parents, backward)``, is the one place a
node records them: each op defines its backward and returns the node it builds.
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

The positional network starts with the sinusoid [cos 2 pi B r ; sin 2 pi B r]
of an offset r.  ``positional`` takes it of constant offsets; the two per-edge
nodes, ``message_aggregate`` and ``edge_conv``, take it of every edge's offset
d - s as the product e^{2 pi i B (d - o)} * conj(e^{2 pi i B (s - o)}) of two
per-point phases (``_edge_phases``), so cos and sin run once per point, not
once per edge, and the offsets themselves are formed only in the backward,
for the gradient of B.

The three positional nodes rest on two contracts, each checked once:
- they take the networks themselves, an ``nn.PositionalNet`` and, for
  ``message_aggregate``, an ``nn.MlpParams``; those check their own shapes
  when they are built (every layer chains into the next, a positional head
  reads the 2F sinusoid columns), so a node checks only what relates one
  object to another: the offsets' dimension against the network's, the
  message network's input width against the node and positional widths,
  and the kernel width against the input channels;
- the per-edge nodes take edges sorted by destination, as
  ``connectivity.EdgeSet`` stores them and ``gridify`` orders them; one
  check, ``_by_destination``, requires the edge arrays to be 1-d, of one
  length and in bounds, and raises ``InvariantError`` on any other order
  instead of sorting them.
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
# 512 KiB.  Swept again with per-point phases (64 KiB to 2 MiB, medians of
# 15 interleaved rounds, 2-vCPU Xeon, one BLAS thread), no budget was faster
# at both sizes: 64/128/512 KiB/1/2 MiB ran 1.02/1.07/1.27/1.30/1.34 of
# 256 KiB at N=1000 and 1.11/0.98/1.05/1.03/1.14 at N=8000 (CHANGES.md)
_MESSAGE_BLOCK_BYTES = 256 << 10
# bytes of the kernel rows of an ``edge_conv`` edge block; 512 KiB ran the
# per-edge baseline (C=16, k=9) as fast as 256 KiB at N=1000 and 4-5% faster
# at N=2000 and 8000, and 1 MiB was 16% slower at N=1000.  Swept again with
# per-point phases, it is still the fastest at both sizes: 64/128/256 KiB/
# 1/2 MiB ran 1.76/1.22/1.08/1.01/1.15 of it at N=1000 and
# 2.06/1.29/1.01/1.05/1.17 at N=8000 (CHANGES.md)
_RENDER_BLOCK_BYTES = 512 << 10
# bytes of the trailing-axes window ``grid_correlate`` may copy of its
# argument; past it a 3-d correlation windows only the last axis.  Swept over
# 40 geometries (r 5-11, K 3-11, C 2-40; forward + backward medians, 2-vCPU
# Xeon with 2 MiB of L2 per core, one BLAS thread), the last-axis form ran
# 0.50-0.81 of the trailing-axes form at every window above 2 MiB and
# 1.50-2.55 at every window below 0.6 MiB (train-classify's r=5, K=3, C=8,
# 0.07 MiB: 2.04).  Between, it ran 0.74-1.14 at C >= 6 but 1.90-3.79 at
# C <= 4 (r=9, K=9, C=2/3/4, 0.90/1.35/1.80 MiB: 3.79/2.11/1.90), where its
# up to K**2 * r small matmuls cost more than the window saves (CHANGES.md)
_WINDOW_BYTES = 2 << 20


class Tensor:
    """Node in the differentiation graph: value, gradient slot, backward rule;
    the constructor is the one place a node records its parents and backward."""

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

    def backward(g):
        a.accumulate(_unbroadcast(g, a.shape))
        b.accumulate(_unbroadcast(g, b.shape))

    return Tensor(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        a.accumulate(_unbroadcast(g, a.shape))
        b.accumulate(_unbroadcast(-g, b.shape))

    return Tensor(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        a.accumulate(_unbroadcast(g * b.data, a.shape))
        b.accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor(a.data * b.data, (a, b), backward)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = x @ w
    out += b
    return out


def affine(x, w, b) -> Tensor:
    """x @ w plus a row-broadcast bias, as one node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"affine shapes incompatible: {x.shape} @ {w.shape} + {b.shape}")

    def backward(g):
        x.accumulate(g @ w.data.T)
        w.accumulate(x.data.T @ g)
        b.accumulate(g.sum(axis=0))

    return Tensor(_affine(x.data, w.data, b.data), (x, w, b), backward)


def reshape(t: Tensor, shape) -> Tensor:
    t = as_tensor(t)

    def backward(g):
        t.accumulate(g.reshape(t.shape))

    return Tensor(t.data.reshape(shape), (t,), backward)


def reduce_mean(t: Tensor, axis: int | None = None) -> Tensor:
    t = as_tensor(t)
    count = t.data.size if axis is None else t.shape[axis]

    def backward(g):
        if axis is None:
            t.accumulate(np.full(t.shape, g / count))
        else:
            t.accumulate(np.broadcast_to(np.expand_dims(g, axis), t.shape) / count)

    return Tensor(t.data.mean(axis=axis), (t,), backward)


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
    """Edges checked, naming ``op``, to be two 1-d arrays of one length, in
    bounds and sorted by destination.

    Returns src, dst, each destination's edge count, and each destination's
    first edge row followed by the edge count.
    """
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise ShapeError(f"{op} edges {src.shape} -> {dst.shape} are not 1-d of one length")
    if src.size and (min(src.min(), dst.min()) < 0 or src.max() >= n_src or dst.max() >= n_dst):
        raise InvariantError(
            f"{op} index out of bounds: sources [0, {n_src}), destinations [0, {n_dst})"
        )
    if np.any(dst[1:] < dst[:-1]):
        raise InvariantError(f"{op} needs edges sorted by destination")
    counts = np.bincount(dst, minlength=n_dst)
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


def _phases(coords: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """e^{2 pi i B p} for each row p of ``coords`` (m, D), B = ``freq``
    (F, D), as complex128 (m, F): one cos and one sin per point and
    frequency."""
    z = coords @ freq.T
    z *= _TWO_PI
    ph = np.empty(z.shape, dtype=np.complex128)
    np.cos(z, out=ph.real)
    np.sin(z, out=ph.imag)
    return ph


def _edge_phases(src_coords: np.ndarray, dst_coords: np.ndarray, freq: np.ndarray):
    """Per-point phases e^{2 pi i B (p - o)} of the destinations and of the
    sources, from which ``_edge_sinusoid`` forms every edge's sinusoid.

    o is the per-axis minimum of the source coordinates.  It moves with a
    translation and p - o is exact on dyadic coordinates, so the phases, and
    every edge sinusoid formed from them, keep their bits under translation.
    """
    origin = src_coords.min(axis=0) if src_coords.size else np.zeros(src_coords.shape[1])
    ph_src = _phases(src_coords - origin, freq)
    ph_dst = ph_src if dst_coords is src_coords else _phases(dst_coords - origin, freq)
    return ph_dst, ph_src


def _edge_sinusoid(phases, d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """[cos 2 pi B r ; sin 2 pi B r] of the offsets r = dst - src of the edges
    s -> d, as the phase products ph_dst[d] * conj(ph_src[s]) of the
    ``_edge_phases`` ``phases``."""
    ph_dst, ph_src = phases
    e = ph_src[s]
    np.conjugate(e, out=e)
    np.multiply(ph_dst[d], e, out=e)
    return _sinusoid(e)


def _sinusoid(ph: np.ndarray) -> np.ndarray:
    """The positional network's input [cos ; sin], (m, 2F), of the phases
    ``ph`` (m, F)."""
    f = ph.shape[1]
    x = np.empty((ph.shape[0], 2 * f))
    x[:, :f] = ph.real
    x[:, f:] = ph.imag
    return x


def _hidden(x: np.ndarray, layers):
    """``x`` through the (w, b) affine ``layers``, each followed by exact
    GELU.  Returns the input of each layer, (pre-activation, cdf) of each
    GELU, and the output."""
    ins, acts = [], []
    for w, b in layers:
        ins.append(x)
        pre = _affine(x, w.data, b.data)
        cdf = _gelu_cdf(pre)
        x = pre * cdf
        acts.append((pre, cdf))
    return ins, acts, x


def _hidden_grad(layers, ins, acts, g: np.ndarray, sums) -> np.ndarray:
    """Backward of ``_hidden`` for the gradient ``g`` of its output: adds the
    gradient of every layer to ``sums`` and returns that of the input."""
    for (w, b), x, (pre, cdf) in zip(layers[::-1], ins[::-1], acts[::-1]):
        g = _gelu_grad(pre, cdf, g)
        sums.add(w, x.T @ g)
        sums.add(b, g.sum(axis=0))
        g = g @ w.data.T
    return g


def _head(x: np.ndarray, layers):
    """``layers`` with exact GELU between them, the last one linear, on
    ``x``.  Returns the input of each layer, (pre-activation, cdf) of each
    GELU, and the output."""
    ins, acts, h = _hidden(x, layers[:-1])
    w, b = layers[-1]
    return ins + [h], acts, _affine(h, w.data, b.data)


def _head_grad(layers, ins, acts, g: np.ndarray, sums) -> np.ndarray:
    """Backward of ``_head``, as ``_hidden_grad`` is of ``_hidden``."""
    w, b = layers[-1]
    sums.add(w, ins[-1].T @ g)
    sums.add(b, g.sum(axis=0))
    return _hidden_grad(layers[:-1], ins[:-1], acts, g @ w.data.T, sums)


def _freq_grad(rel: np.ndarray, freq, x: np.ndarray, g: np.ndarray, sums) -> None:
    """Adds to ``sums`` the gradient of ``freq`` through the sinusoid
    ``x`` = [cos 2 pi B r ; sin 2 pi B r] of the offsets ``rel``, given the
    gradient ``g`` of x."""
    f = freq.shape[0]
    gz = -g[:, :f] * x[:, f:] + g[:, f:] * x[:, :f]
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


def positional(rel, net) -> Tensor:
    """The positional network ``net`` on the offsets ``rel`` (m, D), as one node.

    ``net`` is an ``nn.PositionalNet``, the network ``message_aggregate`` and
    ``edge_conv`` run per edge: the sinusoid of ``net.freq`` (F, D), then the
    head's layers with exact GELU between them.  ``rel`` is a constant:
    gradients reach the frequencies and the layers only.
    """
    rel = np.asarray(rel, dtype=np.float64)
    if rel.ndim != 2 or rel.shape[1] != net.dim:
        raise ShapeError(
            f"positional shapes incompatible: offsets {rel.shape}, "
            f"freq {net.freq.shape}, layers {net.head.widths}"
        )
    freq, layers = net.freq, net.head.layers
    ins, acts, data = _head(_sinusoid(_phases(rel, freq.data)), layers)

    def backward(g):
        sums = _GradSums()
        _freq_grad(rel, freq, ins[0], _head_grad(layers, ins, acts, g, sums), sums)
        sums.accumulate()

    return Tensor(data, [freq, *(t for layer in layers for t in layer)], backward)


def message_aggregate(node, src_coords, dst_coords, src, dst, pos, msg, mode: str) -> Tensor:
    """Per-destination mean or max of edge messages, computed in blocks of edges.

    Edge e from source s to destination d carries the message
    msg([node[s] ; pos(dst_coords[d] - src_coords[s])]).  ``pos`` is an
    ``nn.PositionalNet``, an MLP over [cos 2 pi B r ; sin 2 pi B r] with
    B = ``pos.freq`` (F, D), and ``msg`` an ``nn.MlpParams``; both have exact
    GELU between their layers.

    Nothing per edge is computed that can run per point, per destination or
    per call:
    - each edge's sinusoid is the product of two per-point phases
      (``_edge_phases``), so cos and sin run once per point, not per edge;
    - msg's first layer is split by linearity: node @ w0[:H] runs once per
      source row and is gathered per edge, so no (E, 2H) concatenation
      exists;
    - pos's output layer is folded into the positional half of msg's first
      layer, W' = W_pos @ w0[H:] and b' = b_pos @ w0[H:] + b0, once per call,
      so each edge does one matmul there instead of two;
    - under ``mean``, when msg has a hidden layer, its last layer runs once
      per destination on the mean of its inputs, since a mean commutes with
      an affine map.

    Edges arrive sorted by destination and run through the chain in blocks
    of about ``_MESSAGE_BLOCK_BYTES`` per H-wide array, cut only between
    destinations: each mean or max is reduced in edge order inside one block,
    so the bits equal those of the chain run over all edges at once.  Only the
    last block's intermediates are kept; the backward walks the blocks from
    last to first and recomputes the others, and forms a block's offsets only
    there, for the gradient of ``freq``.  Every destination must receive an
    edge.  Under ``max`` the gradient goes to the first edge attaining the
    maximum, and a NaN maximum has no winner.
    """
    node = as_tensor(node)
    src_coords = np.asarray(src_coords, dtype=np.float64)
    dst_coords = np.asarray(dst_coords, dtype=np.float64)
    if (
        (node.ndim, src_coords.ndim, dst_coords.ndim) != (2, 2, 2)
        or node.shape[0] != src_coords.shape[0]
        or src_coords.shape[1] != pos.dim
        or dst_coords.shape[1] != pos.dim
        or msg.in_width != node.shape[1] + pos.out_width
    ):
        raise ShapeError(
            f"message_aggregate shapes incompatible: node {node.shape}, coords "
            f"{src_coords.shape} -> {dst_coords.shape}, freq {pos.freq.shape}, "
            f"pos {pos.head.widths}, msg {msg.widths}"
        )
    freq, pos_layers, msg_layers = pos.freq, pos.head.layers, msg.layers
    (n_src, width), n_dst = node.shape, dst_coords.shape[0]
    src, dst, counts, starts = _by_destination("message_aggregate", src, dst, n_src, n_dst)
    if mode not in ("mean", "max"):
        raise InvariantError(f"unknown message_aggregate mode {mode!r}")
    if (counts == 0).any():
        empty = int(np.argmin(counts))
        raise InvariantError(f"destination {empty} receives no edges in message_aggregate")
    blocks = _segment_blocks(starts, width, _MESSAGE_BLOCK_BYTES)

    w0, b0 = msg_layers[0]
    w0_node, w0_pos = w0.data[:width], w0.data[width:]
    pos_hidden, (w_pos, b_pos) = pos_layers[:-1], pos_layers[-1]
    w_fold = w_pos.data @ w0_pos
    b_fold = b_pos.data @ w0_pos
    b_fold += b0.data
    # under mean, msg's last layer runs per destination, after the reduction
    per_destination = mode == "mean" and len(msg_layers) > 1
    msg_edge = msg_layers[1:-1] if per_destination else msg_layers[1:]

    def messages(a: int, b: int, proj: np.ndarray, phases):
        """The chain over destinations [a, b): their edge rows and source
        rows, the sinusoid, the positional hidden layers' inputs, GELUs and
        output, msg's layer inputs and GELUs, and the values reduced per
        destination.  ``proj`` is node @ w0[:H], ``phases`` the
        ``_edge_phases``."""
        rows = slice(starts[a], starts[b])
        s = src[rows]
        x = _edge_sinusoid(phases, dst[rows], s)
        pos_ins, pos_acts, hp = _hidden(x, pos_hidden)
        m = proj[s]
        m += hp @ w_fold
        m += b_fold
        msg_ins, msg_acts = [], []
        if len(msg_layers) > 1:
            msg_acts.append((m, _gelu_cdf(m)))
            h = m * msg_acts[0][1]
            msg_ins, acts, m = (_hidden if per_destination else _head)(h, msg_edge)
            msg_acts += acts
        return rows, s, x, pos_ins, pos_acts, hp, msg_ins, msg_acts, m

    reduced = np.empty((n_dst, msg_layers[-1][0].shape[0] if per_destination else msg.out_width))
    proj = node.data @ w0_node
    phases = _edge_phases(src_coords, dst_coords, freq.data)
    kept = None
    for a, b in blocks:
        kept = None  # free the previous block before computing this one
        kept = messages(a, b, proj, phases)
        rows, v = kept[0], kept[-1]
        if mode == "mean":
            reduced[a:b] = _sum_rows_at(v, dst[rows] - a, b - a)
        else:
            np.maximum.reduceat(v, starts[a:b] - starts[a], axis=0, out=reduced[a:b])
    if mode == "mean":
        reduced /= counts[:, None]
    data = reduced
    if per_destination:
        w_last, b_last = msg_layers[-1]
        data = _affine(reduced, w_last.data, b_last.data)

    def backward(g):
        sums = _GradSums()
        if per_destination:
            sums.add(w_last, reduced.T @ g)
            sums.add(b_last, g.sum(axis=0))
            g = g @ w_last.data.T
        g_mean = g / counts[:, None] if mode == "mean" else None
        # the forward keeps only the last block, not the projected rows or
        # the phases
        proj = node.data @ w0_node if len(blocks) > 1 else None
        phases = _edge_phases(src_coords, dst_coords, freq.data) if len(blocks) > 1 else None
        g_rows = g_fold = g_bias = None
        for i in reversed(range(len(blocks))):
            a, b = blocks[i]
            parts = kept if i == len(blocks) - 1 else messages(a, b, proj, phases)
            rows, s, x, pos_ins, pos_acts, hp, msg_ins, msg_acts, v = parts
            if mode == "mean":
                gm = g_mean[dst[rows]]
            else:
                # first row attaining each maximum; a NaN maximum has no
                # winner (n).  Winners are distinct rows, so adding onto the
                # zeros keeps the bits of g, signed zeros included
                n = v.shape[0]
                maxima = np.repeat(data[a:b], counts[a:b], axis=0)
                hit_rows = np.where(v == maxima, np.arange(n)[:, None], n)
                winner = np.minimum.reduceat(hit_rows, starts[a:b] - starts[a], axis=0)
                gm = np.zeros_like(v)
                hit = winner < n
                gm[winner[hit], np.nonzero(hit)[1]] += g[a:b][hit]
            if len(msg_layers) > 1:
                grad = _hidden_grad if per_destination else _head_grad
                gm = _gelu_grad(*msg_acts[0], grad(msg_edge, msg_ins, msg_acts[1:], gm, sums))
            # the split first layer: the node half is summed onto source rows
            if g_rows is None:
                g_rows, g_fold, g_bias = _sum_rows_at(gm, s, n_src), hp.T @ gm, gm.sum(axis=0)
            else:
                g_rows += _sum_rows_at(gm, s, n_src)
                g_fold += hp.T @ gm
                g_bias += gm.sum(axis=0)
            g_x = _hidden_grad(pos_hidden, pos_ins, pos_acts, gm @ w_fold.T, sums)
            _freq_grad(dst_coords[dst[rows]] - src_coords[s], freq, x, g_x, sums)
        if g_rows is not None:
            node.accumulate(g_rows @ w0_node.T)
            # the folded layer: W' = W_pos @ w0[H:], b' = b_pos @ w0[H:] + b0
            sums.add(w_pos, g_fold @ w0_pos.T)
            sums.add(b_pos, g_bias @ w0_pos.T)
            g_w0_pos = w_pos.data.T @ g_fold
            g_w0_pos += np.outer(b_pos.data, g_bias)
            sums.add(w0, np.concatenate([node.data.T @ g_rows, g_w0_pos]))
            sums.add(b0, g_bias)
        sums.accumulate()

    parents = [node, freq, *(t for layer in pos_layers + msg_layers for t in layer)]
    return Tensor(data, parents, backward)


def edge_conv(coords, x, src, dst, net) -> Tensor:
    """Per-destination sums of source rows mixed by per-edge kernels, in blocks of edges.

    Edge e from source s to destination d renders the kernel row
    pos(coords[d] - coords[s]), reshaped to a (c_in, c_out) matrix, and
    carries x[s] @ that matrix; row d of the result sums the messages of the
    edges into d in edge order, and a point without edges gets zeros.
    ``pos`` is the ``nn.PositionalNet`` ``net``, as in ``message_aggregate``:
    the sinusoid of ``net.freq``, then the head's layers with exact GELU
    between them, the last one rendering c_in*c_out kernel values per edge.
    As there, each edge's sinusoid is the product of two per-point phases,
    so cos and sin run once per point.

    Edges arrive sorted by destination and run in blocks of about
    ``_RENDER_BLOCK_BYTES`` of kernel rows, cut only between destinations,
    so the bits equal those of rendering every kernel row at once and no
    (E, c_in*c_out) array is formed.  Only the last block's intermediates are
    kept; the backward walks the blocks from last to first, recomputes the
    others, and forms a block's offsets only there, for the gradient of
    ``freq``.
    """
    x = as_tensor(x)
    coords = np.asarray(coords, dtype=np.float64)
    width = net.out_width
    if (
        (coords.ndim, x.ndim) != (2, 2)
        or coords.shape[1] != net.dim
        or x.shape[0] != coords.shape[0]
        or x.shape[1] < 1
        or width % x.shape[1]
    ):
        raise ShapeError(
            f"edge_conv shapes incompatible: coords {coords.shape}, x {x.shape}, "
            f"freq {net.freq.shape}, layers {net.head.widths}"
        )
    freq, layers = net.freq, net.head.layers
    n, c_in = x.shape
    c_out = width // c_in
    src, dst, _, starts = _by_destination("edge_conv", src, dst, n, n)
    blocks = _segment_blocks(starts, width, _RENDER_BLOCK_BYTES)

    def kernels(a: int, b: int, phases):
        """Edge rows and source rows of destinations [a, b), the positional
        network's layer inputs (the sinusoid first) and GELUs, and the
        kernel rows as (rows, c_in, c_out) matrices.  ``phases`` are the
        ``_edge_phases``."""
        rows = slice(starts[a], starts[b])
        s = src[rows]
        ins, acts, k = _head(_edge_sinusoid(phases, dst[rows], s), layers)
        return rows, s, ins, acts, k.reshape(-1, c_in, c_out)

    data = np.empty((n, c_out))
    phases = _edge_phases(coords, coords, freq.data)
    kept = None
    for a, b in blocks:
        kept = None  # free the previous block before computing this one
        kept = kernels(a, b, phases)
        rows, s, k = kept[0], kept[1], kept[-1]
        msgs = np.einsum("nio,ni->no", k, x.data[s])
        data[a:b] = _sum_rows_at(msgs, dst[rows] - a, b - a)

    def backward(g):
        sums = _GradSums()
        g_x = np.zeros(x.shape)
        # the forward keeps only the last block, not the phases
        phases = _edge_phases(coords, coords, freq.data) if len(blocks) > 1 else None
        for i in reversed(range(len(blocks))):
            a, b = blocks[i]
            parts = kept if i == len(blocks) - 1 else kernels(a, b, phases)
            rows, s, ins, acts, k = parts
            gm = g[dst[rows]]
            g_x += _sum_rows_at(np.einsum("nio,no->ni", k, gm), s, n)
            # d(message)/d(kernel row) is the outer product of the source row and g
            g_k = (x.data[s][:, :, None] * gm[:, None, :]).reshape(-1, width)
            g_in = _head_grad(layers, ins, acts, g_k, sums)
            _freq_grad(coords[dst[rows]] - coords[s], freq, ins[0], g_in, sums)
        x.accumulate(g_x)
        sums.accumulate()

    return Tensor(data, [x, freq, *(t for layer in layers for t in layer)], backward)


def _lead_axes(resolution: int, dim: int, kernel_size: int, channels: int) -> int:
    """Leading axes ``grid_correlate`` loops over for a ``channels``-wide array:
    one, or two on a 3-d lattice whose trailing-axes window would take more
    than ``_WINDOW_BYTES``."""
    window = 8 * resolution**dim * kernel_size ** (dim - 1) * channels
    return 2 if dim == 3 and window > _WINDOW_BYTES else 1


def _crops(resolution: int, kernel_size: int):
    """(a, lo, hi, shift) for each tap a of one axis that keeps some rows in
    range, centre first, then ascending: tap a shifts the axis by
    shift = a - (K-1)/2, and output rows lo..hi-1 read source rows
    lo + shift..hi + shift - 1."""
    half = (kernel_size - 1) // 2
    for a in [half, *range(half), *range(half + 1, kernel_size)]:
        shift = a - half
        lo, hi = max(0, -shift), min(resolution, resolution - shift)
        if lo < hi:
            yield a, lo, hi, shift


def _window(x: np.ndarray, resolution: int, dim: int, kernel_size: int, lead: int) -> np.ndarray:
    """Windows over the last D - lead axes, shape (r, r**(D-1), K**(D-lead) * C).

    The windowed axes are zero-padded by (K-1)/2 and each cell's window is
    copied once, taps in row-major order with the channel axis fastest, so
    slicing the leading axes yields contiguous row blocks.
    """
    half = (kernel_size - 1) // 2
    r, c = resolution, x.shape[1]
    axes = tuple(range(lead, dim))
    padded = np.zeros((r,) * lead + (r + 2 * half,) * len(axes) + (c,))
    padded[(slice(None),) * lead + (slice(half, half + r),) * len(axes)] = x.reshape((r,) * dim + (c,))
    win = sliding_window_view(padded, (kernel_size,) * len(axes), axis=axes)
    win = win.transpose(*range(dim), *range(dim + 1, dim + 1 + len(axes)), dim)
    return np.ascontiguousarray(win).reshape(r, r ** (dim - 1), kernel_size ** len(axes) * c)


def _taps(v: np.ndarray, resolution: int, dim: int, kernel_size: int, lead: int):
    """(a, dst, rows) for each tap on the ``lead`` leading axes that keeps
    some rows in range, the centre tap first (``_crops`` per axis).

    ``a`` is the flat index of the leading taps (row-major), and ``rows``
    are the windows of ``v`` (``_window``) at the shifted sources of the
    output rows ``dst``.  For lead 1, ``rows`` is one (rows, K**(D-1) * C)
    block and ``dst`` slices the flat output.  For lead 2, ``rows`` is a
    stack of cropped axis-0 planes, each a block of cropped axis-1 rows of
    width K**(D-2) * C, and ``dst`` slices the output viewed as
    (r, r**(D-1), C).  The first tap covers every output row.
    """
    win = _window(v, resolution, dim, kernel_size, lead)
    r, plane, width = win.shape
    if lead == 1:
        flat = win.reshape(r * plane, width)
        for a0, lo, hi, shift in _crops(r, kernel_size):
            yield a0, slice(lo * plane, hi * plane), flat[(lo + shift) * plane : (hi + shift) * plane]
        return
    step = plane // r
    for a0, lo0, hi0, s0 in _crops(r, kernel_size):
        planes = win[lo0 + s0 : hi0 + s0]
        for a1, lo1, hi1, s1 in _crops(r, kernel_size):
            dst = (slice(lo0, hi0), slice(lo1 * step, hi1 * step))
            yield a0 * kernel_size + a1, dst, planes[:, (lo1 + s1) * step : (hi1 + s1) * step]


def _outer_sum(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum over every axis but the last of x[..., i] * rows[..., j].

    A stack of planes is summed plane by plane, so only one (i, j) product
    exists at a time; all of a tap's plane products at once would take
    10.6 MB at r=9, K=9, C=128.
    """
    if x.ndim == 2:
        return x.T @ rows
    out = x[0].T @ rows[0]
    for x_plane, rows_plane in zip(x[1:], rows[1:]):
        out += x_plane.T @ rows_plane
    return out


def grid_correlate(x, kernel, resolution: int, dim: int, kernel_size: int) -> Tensor:
    """Zero-padded D-d cross-correlation on a lattice, (r**D, c_in) -> (r**D, c_out).

    ``kernel`` is (K**D, c_in, c_out) with taps in row-major order (last axis
    fastest) running from -(K-1)/2 to +(K-1)/2 per axis, and
    out[p] = sum_t x[p + offset(t)] @ kernel[t].  The correlation windows a
    copy of its argument over the trailing axes and loops over the taps of
    the leading ones (``_taps``).  Up to ``_WINDOW_BYTES`` of window it
    windows the D-1 trailing axes and loops over the K first-axis taps, each
    one matmul over a row block; past that budget a 3-d lattice windows only
    its last axis and loops over the K**2 taps of the first two, each one
    matmul over the stack of first-axis planes that tap keeps, cropped on
    axis 1 too.  The tape keeps only the input: the backward windows the
    output gradient g, and its shifted rows give both gradients, the input's
    with the tap-reversed, channel-transposed kernel (exact for odd K with
    symmetric zero padding) and the kernel's with the plain input, as
    sum_p x[p + offset(t)]^T g[p] = sum_q x[q]^T g[q - offset(t)].
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
    lead = _lead_axes(resolution, dim, kernel_size, c_in)
    w = kernel.data.reshape(kernel_size**lead, -1, c_out)
    taps = _taps(x.data, resolution, dim, kernel_size, lead)
    a, _, rows = next(taps)
    data = rows @ w[a]
    for a, dst, rows in taps:
        data[dst] += rows @ w[a]

    def backward(g):
        lead = _lead_axes(resolution, dim, kernel_size, c_out)
        n_lead = kernel_size**lead
        per_lead = n_taps // n_lead
        flipped = kernel.data[::-1].transpose(0, 2, 1).reshape(n_lead, per_lead * c_out, c_in)
        taps = _taps(g, resolution, dim, kernel_size, lead)
        a, _, rows = next(taps)
        g_x = rows @ flipped[a]
        xs = x.data.reshape(g_x.shape[:-1] + (c_in,))
        # dw[n_lead-1-a] is leading tap a reversed; taps cropped away stay zero
        dw = np.zeros((n_lead, c_in, per_lead * c_out))
        dw[n_lead - 1 - a] = _outer_sum(xs, rows)
        for a, dst, rows in taps:
            g_x[dst] += rows @ flipped[a]
            dw[n_lead - 1 - a] = _outer_sum(xs[dst], rows)
        x.accumulate(g_x.reshape(x.shape))
        # reversing the flat trailing-tap index reverses every trailing axis
        dw = dw.reshape(n_lead, c_in, per_lead, c_out)[:, :, ::-1].transpose(0, 2, 1, 3)
        kernel.accumulate(dw.reshape(kernel.shape))

    return Tensor(data.reshape(x.shape[0], c_out), (x, kernel), backward)


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

    def backward(g):
        t.accumulate(_gelu_grad(t.data, cdf, g))

    return Tensor(t.data * cdf, (t,), backward)


def channel_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row normalization over the channel axis with learnable scale/shift;
    the variance is offset by 1e-5 before its square root."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 2 or gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ShapeError(
            f"channel_norm shapes incompatible: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}"
        )
    mean = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.data - mean) * inv_std

    def backward(g):
        gamma.accumulate((g * xhat).sum(axis=0))
        beta.accumulate(g.sum(axis=0))
        gy = g * gamma.data
        x.accumulate(
            inv_std
            * (gy - gy.mean(axis=1, keepdims=True) - xhat * (gy * xhat).mean(axis=1, keepdims=True))
        )

    return Tensor(xhat * gamma.data + beta.data, (x, gamma, beta), backward)


def dropout(t: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; pass rate 0 (or omit at evaluation time) for identity."""
    t = as_tensor(t)
    if rate == 0.0:
        return t
    mask = (rng.uniform(size=t.shape) >= rate) / (1.0 - rate)

    def backward(g):
        t.accumulate(g * mask)

    return Tensor(t.data * mask, (t,), backward)


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

    def backward(g):
        grad = np.exp(log_probs)
        grad[np.arange(n), labels] -= 1.0
        logits.accumulate(g * grad / n)

    return Tensor(-log_probs[np.arange(n), labels].mean(), (logits,), backward)


def mse(a: Tensor, b) -> Tensor:
    """Mean squared difference over all elements."""
    d = sub(a, b)
    return reduce_mean(mul(d, d))

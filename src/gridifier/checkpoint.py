"""Single-file checkpoint format: named float64 blobs plus optimizer state.

Layout (all little-endian):
  magic "GRIDCKPT" | u32 version | u32 n_blobs | blobs...
  blob: u32 name_len | name utf-8 | u32 ndim | u32 dims... | f64 data row-major
  u8 has_optimizer; if set: u64 step | f64 lr, weight_decay, beta1, beta2, eps
  then moment blobs named "m:<param>" and "v:<param>" (u32 count + blobs).

A loaded file holds no blob name twice, and its moments name exactly its
parameters, each moment shaped like its parameter, as ``adamw_init`` makes
them; anything else is a ``ParseError``.

Float64 bytes round-trip exactly, so save/load reproduces training state
bit-for-bit.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import ParseError
from .optim import AdamWState

MAGIC = b"GRIDCKPT"
_VERSION = 1


def _write_blob(fh, name: str, arr: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.astype("<f8").tobytes())


class _Reader:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.path = path
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.raw):
            raise ParseError(f"{self.path}: offset {self.off}: truncated checkpoint")
        piece = self.raw[self.off : self.off + n]
        self.off += n
        return piece

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def blob(self) -> tuple[str, np.ndarray]:
        size = self.u32()
        try:
            name = self.take(size).decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{self.path}: offset {self.off - size}: blob name is not UTF-8")
        shape = tuple(self.u32() for _ in range(self.u32()))
        # math.prod does not wrap, so a huge shape reads as a truncated file
        count = math.prod(shape)
        data = np.frombuffer(self.take(8 * count), dtype="<f8").reshape(shape)
        return name, data.astype(np.float64)

    def blobs(self) -> dict[str, np.ndarray]:
        """A u32 count, then that many blobs, by name; a name read twice is
        an error at the offset of its second blob."""
        out = {}
        for _ in range(self.u32()):
            at = self.off
            name, data = self.blob()
            if name in out:
                raise ParseError(f"{self.path}: offset {at}: duplicate blob name {name!r}")
            out[name] = data
        return out


def save_checkpoint(
    path: str | Path,
    params: dict[str, Tensor],
    optimizer: AdamWState | None = None,
) -> None:
    """Write the checkpoint to a temporary file beside ``path``, then rename it.

    A save that fails part-way leaves any earlier file at ``path`` untouched
    and removes its temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        _write_checkpoint(tmp, params, optimizer)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_checkpoint(path: Path, params: dict[str, Tensor], optimizer: AdamWState | None) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(params)))
        for name in sorted(params):
            _write_blob(fh, name, params[name].data)
        fh.write(struct.pack("<B", optimizer is not None))
        if optimizer is not None:
            fh.write(struct.pack("<Q", optimizer.step))
            fh.write(
                struct.pack(
                    "<5d",
                    optimizer.lr,
                    optimizer.weight_decay,
                    optimizer.beta1,
                    optimizer.beta2,
                    optimizer.eps,
                )
            )
            moments = [("m:" + k, v) for k, v in sorted(optimizer.m.items())]
            moments += [("v:" + k, v) for k, v in sorted(optimizer.v.items())]
            fh.write(struct.pack("<I", len(moments)))
            for name, arr in moments:
                _write_blob(fh, name, arr)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], AdamWState | None]:
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise ParseError(f"{path}: offset 0: bad magic {raw[:8]!r}, expected {MAGIC!r}")
    r = _Reader(raw, path)
    r.off = len(MAGIC)
    version = r.u32()
    if version != _VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    params = r.blobs()

    optimizer = None
    if struct.unpack("<B", r.take(1))[0]:
        step = struct.unpack("<Q", r.take(8))[0]
        lr, wd, b1, b2, eps = struct.unpack("<5d", r.take(40))
        moments = {"m": {}, "v": {}}
        for name, arr in r.blobs().items():
            kind, _, pname = name.partition(":")
            if kind not in moments:
                raise ParseError(f"{path}: unknown optimizer blob {name!r}")
            moments[kind][pname] = arr
        # adamw_init makes both moments of every parameter, shaped like it
        shapes = {k: a.shape for k, a in params.items()}
        for kind in "mv":
            got = {k: a.shape for k, a in moments[kind].items()}
            if got != shapes:
                first = min(k for k in got.keys() | shapes.keys() if got.get(k) != shapes.get(k))
                raise ParseError(
                    f"{path}: optimizer moments {kind!r} do not match the saved parameters "
                    f"in names and shapes, first at {first!r}"
                )
        optimizer = AdamWState(lr, wd, b1, b2, eps, step, m=moments["m"], v=moments["v"])
    if r.off != len(raw):
        raise ParseError(f"{path}: offset {r.off}: {len(raw) - r.off} trailing bytes")
    return params, optimizer


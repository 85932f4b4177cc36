"""Point cloud data model, the [-1, 1]^dim lattice, and cloud file I/O.

Coordinates and features are float64 in memory.  The binary ``pcb`` file format
stores float32, so a write/read round trip is bit-exact only for values that are
exactly representable in float32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError

SUPPORTED_DIMS = (1, 2, 3)

PCB_MAGIC = b"PCB1"


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of ``a``: the caller's array stays writeable."""
    out = np.array(a, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PointCloud:
    """Unordered set of coordinate/feature pairs on an irregular domain.

    coords: (n, d) float64, finite.
    feats:  (n, f) float64, finite.
    """

    coords: np.ndarray
    feats: np.ndarray

    def __post_init__(self):
        coords = _frozen(np.atleast_2d(self.coords))
        feats = _frozen(np.atleast_2d(self.feats))
        if coords.ndim != 2 or feats.ndim != 2:
            raise DataError("coords and feats must be 2-d arrays")
        if coords.shape[0] != feats.shape[0]:
            raise DataError(
                f"coords rows ({coords.shape[0]}) != feats rows ({feats.shape[0]})"
            )
        if coords.shape[0] < 1:
            raise DataError("point cloud must contain at least one point")
        if coords.shape[1] not in SUPPORTED_DIMS:
            raise ConfigError(f"unsupported spatial dimension {coords.shape[1]}")
        if not np.all(np.isfinite(coords)):
            raise DataError("point cloud coordinates must be finite")
        if not np.all(np.isfinite(feats)):
            raise DataError("point cloud features must be finite")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "feats", feats)

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def n_feats(self) -> int:
        return self.feats.shape[1]


@dataclass(frozen=True)
class GridSpec:
    """Regular lattice of resolution**dim points spanning [-1, 1]**dim."""

    resolution: int
    dim: int = 3

    def __post_init__(self):
        if self.resolution < 1:
            raise ConfigError(f"grid resolution must be >= 1, got {self.resolution}")
        if self.dim not in SUPPORTED_DIMS:
            raise ConfigError(f"unsupported spatial dimension {self.dim}")

    @property
    def n_points(self) -> int:
        return self.resolution**self.dim

    @property
    def spacing(self) -> float:
        """Distance between adjacent lattice points along one axis."""
        if self.resolution == 1:
            return 2.0
        return 2.0 / (self.resolution - 1)


def make_grid_coords(spec: GridSpec) -> np.ndarray:
    """Lattice coordinates for ``spec``, shape (resolution**dim, dim).

    Flat ordering is row-major with the last axis fastest, so index i decodes
    by mixed-radix decomposition in base ``resolution``.  Axis endpoints are
    exactly -1 and 1 for resolution >= 2; a single-point axis sits at 0.
    """
    if spec.resolution == 1:
        axis = np.array([0.0])
    else:
        axis = np.linspace(-1.0, 1.0, spec.resolution)
    mesh = np.meshgrid(*([axis] * spec.dim), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, spec.dim)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def write_cloud(cloud: PointCloud, path: str | Path) -> None:
    """Write ``cloud`` to ``path`` as ``csv`` or ``pcb``, chosen by the suffix."""
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    if fmt == "csv":
        _write_csv(cloud, path)
    elif fmt == "pcb":
        _write_pcb(cloud, path)
    else:
        raise ConfigError(f"unknown point cloud format {fmt!r} (expected csv or pcb)")


def read_cloud(path: str | Path) -> PointCloud:
    """Read a point cloud from ``path`` (``csv`` or ``pcb``, chosen by the suffix)."""
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    if fmt == "csv":
        return _read_csv(path)
    if fmt == "pcb":
        return _read_pcb(path)
    raise ConfigError(f"unknown point cloud format {fmt!r} (expected csv or pcb)")


def _write_csv(cloud: PointCloud, path: Path) -> None:
    with open(path, "w") as fh:
        fh.write(f"D={cloud.dim},F={cloud.n_feats}\n")
        rows = np.concatenate([cloud.coords, cloud.feats], axis=1)
        np.savetxt(fh, rows, fmt="%.10g", delimiter=",")


def _read_csv(path: Path) -> PointCloud:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].strip()
    try:
        d_part, f_part = header.split(",")
        if not (d_part.startswith("D=") and f_part.startswith("F=")):
            raise ValueError
        d = int(d_part[2:])
        f = int(f_part[2:])
    except ValueError:
        raise ParseError(f"{path}: line 1: malformed header {header!r}, expected 'D=<d>,F=<f>'")
    if d < 0 or f < 0:
        raise ParseError(f"{path}: line 1: negative count in header {header!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != d + f:
            raise ParseError(
                f"{path}: line {lineno}: expected {d + f} values, got {len(fields)}"
            )
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric field in {line!r}")
    if not rows:
        raise ParseError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    return PointCloud(data[:, :d], data[:, d:])


def _write_pcb(cloud: PointCloud, path: Path) -> None:
    # a finite float64 beyond the float32 range casts to inf; refuse it
    # before the file exists
    with np.errstate(over="ignore"):
        arrays = {"coords": cloud.coords.astype("<f4"), "feats": cloud.feats.astype("<f4")}
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{path}: {name} exceed the float32 range of the pcb format")
    with open(path, "wb") as fh:
        fh.write(PCB_MAGIC)
        fh.write(struct.pack("<III", cloud.n_points, cloud.dim, cloud.n_feats))
        fh.write(arrays["coords"].tobytes())
        fh.write(arrays["feats"].tobytes())


def _read_pcb(path: Path) -> PointCloud:
    raw = Path(path).read_bytes()
    if raw[:4] != PCB_MAGIC:
        raise ParseError(f"{path}: offset 0: bad magic {raw[:4]!r}, expected {PCB_MAGIC!r}")
    if len(raw) < 16:
        raise ParseError(f"{path}: offset 4: truncated header ({len(raw)} bytes)")
    n, d, f = struct.unpack_from("<III", raw, 4)
    want = 16 + 4 * n * (d + f)
    if len(raw) != want:
        raise ParseError(f"{path}: offset 16: expected {want} bytes total, got {len(raw)}")
    coords = np.frombuffer(raw, dtype="<f4", count=n * d, offset=16)
    feats = np.frombuffer(raw, dtype="<f4", count=n * f, offset=16 + 4 * n * d)
    return PointCloud(
        coords.astype(np.float64).reshape(n, d),
        feats.astype(np.float64).reshape(n, f),
    )

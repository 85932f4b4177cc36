"""Trainable mapping between irregular point clouds and compact regular grids.

The package maps point clouds onto regular grids with a learned message-passing
step, runs grid-side continuous-kernel convolutions whose kernels are rendered
once per forward pass, and maps the result back onto the original cloud.
"""

from .errors import (
    ConfigError,
    DataError,
    GridifierError,
    InvariantError,
    ParseError,
    ShapeError,
    TrainingError,
)
from .pccore import (
    GridSpec,
    PointCloud,
    make_grid_coords,
    read_cloud,
    write_cloud,
)

__all__ = [
    "ConfigError",
    "DataError",
    "GridifierError",
    "InvariantError",
    "ParseError",
    "ShapeError",
    "TrainingError",
    "GridSpec",
    "PointCloud",
    "make_grid_coords",
    "read_cloud",
    "write_cloud",
]

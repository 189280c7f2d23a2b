"""Dense feature maps, binary masks, and the arithmetic every other module shares.

A feature map is a C x H x W grid of finite float32 values stored row-major
(channel, then row, then column) so that serialization is reproducible
byte-for-byte. Masked-out cells are exactly 0.0, which makes them neutral
under the max fusion used downstream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeMismatchError, frozen_array, require_int

_FMAP_MAGIC = b"FMAP"
_FMAP_HEADER = struct.Struct("<4sHHH")


@dataclass(frozen=True)
class FeatureMap:
    """Immutable C x H x W grid of finite reals (float32 storage)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = frozen_array("feature map", self.values, np.float32, (None, None, None))
        object.__setattr__(self, "values", arr)

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    @classmethod
    def zeros(cls, channels: int, height: int, width: int) -> "FeatureMap":
        return cls(np.zeros((channels, height, width), dtype=np.float32))

    def cell_vectors(self) -> np.ndarray:
        """Per-cell channel vectors, shape (H*W, C), float64, row-major cells."""
        c = self.channels
        return self.values.reshape(c, -1).T.astype(np.float64)


@dataclass(frozen=True)
class Mask:
    """Immutable H x W boolean gate, row-major."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", frozen_array("mask", self.bits, bool, (None, None)))

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @classmethod
    def ones(cls, height: int, width: int) -> "Mask":
        return cls(np.ones((height, width), dtype=bool))

    @classmethod
    def zeros(cls, height: int, width: int) -> "Mask":
        return cls(np.zeros((height, width), dtype=bool))

    def count(self) -> int:
        return int(self.bits.sum())


def require_spatial_match(f: FeatureMap, m: Mask) -> None:
    """Raise ShapeMismatchError unless the mask is H x W of the map."""
    if (f.height, f.width) != (m.height, m.width):
        raise ShapeMismatchError(
            f"mask {m.height}x{m.width} does not match map spatial dims "
            f"{f.height}x{f.width}"
        )


def require_same_shape(a: FeatureMap, b: FeatureMap) -> None:
    """Raise ShapeMismatchError unless both maps are C x H x W alike."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"feature map shapes differ: {a.shape} vs {b.shape}")


def apply_mask(f: FeatureMap, m: Mask) -> FeatureMap:
    """Zero every channel of the cells where the mask bit is off."""
    require_spatial_match(f, m)
    return FeatureMap(f.values * m.bits[np.newaxis, :, :])


def elementwise_max(a: FeatureMap, b: FeatureMap) -> FeatureMap:
    """Cell-wise maximum of two same-shape maps."""
    require_same_shape(a, b)
    return FeatureMap(np.maximum(a.values, b.values))


def mse(a: FeatureMap, b: FeatureMap) -> float:
    """Mean squared difference over all C*H*W cells."""
    require_same_shape(a, b)
    diff = a.values.astype(np.float64) - b.values.astype(np.float64)
    return float(np.mean(diff * diff))


def raw_payload_bytes(channels: int, height: int, width: int, bits_per_scalar: int) -> int:
    """Bytes needed to ship the map uncompressed: ceil(C*H*W*b / 8)."""
    for name, value in (
        ("channels", channels),
        ("height", height),
        ("width", width),
        ("bits_per_scalar", bits_per_scalar),
    ):
        require_int(name, value, 1)
    total_bits = int(channels) * int(height) * int(width) * int(bits_per_scalar)
    return (total_bits + 7) // 8


def save_feature_map(f: FeatureMap, path) -> None:
    """Write the FMAP container: 'FMAP' | u16 C | u16 H | u16 W | C*H*W f32 LE."""
    with open(path, "wb") as fh:
        fh.write(_FMAP_HEADER.pack(_FMAP_MAGIC, f.channels, f.height, f.width))
        fh.write(f.values.astype("<f4").tobytes())


def load_feature_map(path) -> FeatureMap:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _FMAP_HEADER.size:
        raise FormatError("feature map file too short for header")
    magic, c, h, w = _FMAP_HEADER.unpack_from(data, 0)
    if magic != _FMAP_MAGIC:
        raise FormatError(f"bad feature map magic {magic!r}")
    expected = _FMAP_HEADER.size + 4 * c * h * w
    if len(data) != expected:
        raise FormatError(
            f"feature map file length {len(data)} != expected {expected} for "
            f"{c}x{h}x{w}"
        )
    values = np.frombuffer(data, dtype="<f4", offset=_FMAP_HEADER.size)
    return FeatureMap(values.reshape(c, h, w))

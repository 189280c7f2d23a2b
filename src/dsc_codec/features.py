"""Dense feature maps, binary masks, and the arithmetic every other module shares.

A feature map is a C x H x W grid of finite float32 values stored row-major
(channel, then row, then column) so that serialization is reproducible
byte-for-byte. Masked-out cells are exactly 0.0. That zero is not neutral
under the max fusion used downstream: about half of all feature values are
negative, so a pruned cell fused by max clamps the receiver's value up to 0
there (ROADMAP.md, item 1).

FeatureMap(values) copies and checks its input. The maps this package
builds for itself (masking, fusion, zeros, shifts, decoder reconstructions)
are frozen in place around the array just allocated for them, with no copy
and no rescan.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, frozen_array, read_container, require_int, write_container

_FMAP_MAGIC = b"FMAP"
_FMAP_HEADER = struct.Struct("<4sHHH")


@dataclass(frozen=True, eq=False)
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
        for name, size in (("channels", channels), ("height", height), ("width", width)):
            require_int(name, size, 1)
        return _frozen_map(np.zeros((channels, height, width), dtype=np.float32))

    def cell_vectors(self, mask: Mask | None = None) -> np.ndarray:
        """Channel vectors of mask's kept cells, or of every cell without a mask.

        Returns a fresh C-order (n, C) float64 block in row-major cell order,
        n the mask's kept count or H*W. The kept columns of the float32 map
        are gathered straight into it, with no float64 copy of every cell.
        A mask that is not H x W of the map raises ShapeMismatchError.
        """
        cols = self.values.reshape(self.channels, -1)
        if mask is not None:
            require_spatial_match(self, mask)
            flat = mask.bits.ravel()
            if not flat.all():
                cols = cols[:, flat]
        return cols.T.astype(np.float64, order="C")


def _frozen_map(values: np.ndarray) -> FeatureMap:
    """Freeze values in place as a FeatureMap, with no copy and no check.

    Only for an array this package has just allocated and keeps no other
    reference to: fresh, C-order float32 of shape (C, H, W) with every size
    >= 1, and all finite. Any other input goes through FeatureMap(values).
    """
    values.flags.writeable = False
    f = object.__new__(FeatureMap)
    object.__setattr__(f, "values", values)
    return f


@dataclass(frozen=True, eq=False)
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
        return int(np.count_nonzero(self.bits))


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
    return _frozen_map(f.values * m.bits[np.newaxis, :, :])


def elementwise_max(a: FeatureMap, b: FeatureMap) -> FeatureMap:
    """Cell-wise maximum of two same-shape maps."""
    require_same_shape(a, b)
    return _frozen_map(np.maximum(a.values, b.values))


def mse(a: FeatureMap, b: FeatureMap) -> float:
    """Mean squared difference over all C*H*W cells, in float64."""
    require_same_shape(a, b)
    diff = np.subtract(a.values, b.values, dtype=np.float64)
    np.square(diff, out=diff)
    return float(np.mean(diff))


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
    write_container(path, _FMAP_HEADER, _FMAP_MAGIC, f.shape, [("<f4", f.values)])


def load_feature_map(path) -> FeatureMap:
    """Read an FMAP container; a malformed file raises FormatError."""
    return read_container(
        path, "feature map", _FMAP_HEADER, _FMAP_MAGIC,
        lambda c, h, w: [("<f4", (c, h, w))],
        lambda c, h, w, values: FeatureMap(values),
    )

"""Spatial pruning: energy scores, threshold masks, occupancy accounting.

The score of a cell is the L2 norm of its channel vector, max-normalized to
[0, 1], so a threshold tau has a scale-free meaning across scenes. Cells are
kept iff score > tau (strict), hence occupancy is non-increasing in tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, frozen_array, require_unit_interval
from .features import FeatureMap, Mask


@dataclass(frozen=True, eq=False)
class ScoreMap:
    """Immutable H x W grid of scores in [0, 1]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = frozen_array("score map", self.values, np.float64, (None, None))
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ConfigError("score map values must be in [0,1]")
        object.__setattr__(self, "values", arr)


def score_map(f: FeatureMap) -> ScoreMap:
    """Per-cell channel-vector norm divided by the map's maximum cell norm."""
    norms = np.sqrt(np.sum(np.square(f.values, dtype=np.float64), axis=0))
    peak = float(norms.max())
    if peak == 0.0:
        return ScoreMap(norms)
    return ScoreMap(np.minimum(norms / peak, 1.0))


def mask_from_scores(s: ScoreMap, tau: float) -> Mask:
    """Keep cells whose score strictly exceeds tau; ties at tau are pruned."""
    require_unit_interval("tau", tau)
    return Mask(s.values > tau)


def occupancy(m: Mask) -> float:
    """Fraction of set bits."""
    return m.count() / (m.height * m.width)

"""Plug-in entropy and mutual-information estimators over index sequences.

All quantities are in bits per symbol. Conditional entropy is computed from
the empirical joint table as H(X,Y) - H(Y), so the chain rule holds to
floating-point precision by construction. These plug-in estimates carry the
usual small-sample bias; callers that assert rate savings should use at
least ~10^4 symbols for alphabets up to 64.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeMismatchError, index_array

_MI_DUST = 1e-12


def _as_symbols(idx, name: str) -> np.ndarray:
    arr = index_array(name, idx)
    if arr.size < 1:
        raise ConfigError(f"{name} must contain at least one symbol")
    if arr.min() < 0:
        raise ConfigError(f"{name} contains negative symbols")
    return arr


def _entropy_from_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    probs = counts[counts > 0] / total
    return float(-np.sum(probs * np.log2(probs)))


def empirical_entropy(idx) -> float:
    """H(X) of the empirical symbol distribution, in bits."""
    x = _as_symbols(idx, "idx")
    return _entropy_from_counts(np.bincount(x))


def conditional_entropy(x, y) -> float:
    """H(X|Y) = H(X,Y) - H(Y) from the empirical joint table."""
    xs = _as_symbols(x, "x")
    ys = _as_symbols(y, "y")
    if xs.size != ys.size:
        raise ShapeMismatchError(f"sequences differ in length: {xs.size} vs {ys.size}")
    ky = int(ys.max()) + 1
    joint = np.bincount(xs * ky + ys, minlength=(int(xs.max()) + 1) * ky)
    h_joint = _entropy_from_counts(joint)
    h_y = _entropy_from_counts(joint.reshape(-1, ky).sum(axis=0))
    return h_joint - h_y


def mutual_information(x, y) -> float:
    """I(X;Y) = H(X) - H(X|Y), clamped at zero against floating-point dust."""
    info = empirical_entropy(x) - conditional_entropy(x, y)
    return 0.0 if info < _MI_DUST else info

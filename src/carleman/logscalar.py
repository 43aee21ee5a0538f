"""Deterministic log-domain reductions.

Carleman weights reach e^{alpha(4+1/R)^2} with alpha = c R log R, far beyond
float range, so every weighted magnitude is carried as its natural log, a
plain float (-inf for zero); every such magnitude is nonnegative, so no sign
is carried.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

NEG_INF = float("-inf")


def tree_logaddexp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) along the last axis, for nonnegative terms, via a
    pairwise tree.

    Deterministic: pads the last axis to a power of two with -inf and folds
    halves, so the association pattern depends only on its length and every
    leading index is reduced exactly as it would be on its own.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n == 0:
        return np.full(x.shape[:-1], NEG_INF)
    size = 1 << (n - 1).bit_length()
    if size != n:
        x = np.concatenate([x, np.full(x.shape[:-1] + (size - n,), NEG_INF)], axis=-1)
    while x.shape[-1] > 1:
        x = np.logaddexp(x[..., 0::2], x[..., 1::2])
    return x[..., 0]


def tree_logsumexp(logs: np.ndarray | Sequence[float]) -> float:
    """log(sum(exp(logs))) over every entry: the 1-d case of tree_logaddexp."""
    return float(tree_logaddexp(np.asarray(logs, dtype=float).ravel()))


def logsumexp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(x))) along a nonempty axis, shifted by the max along it;
    -inf where every term is -inf."""
    top = np.max(x, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = shift + np.log(np.sum(np.exp(x - shift), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)

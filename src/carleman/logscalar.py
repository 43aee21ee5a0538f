"""Signed log-domain scalars and deterministic log-domain reductions.

Carleman weights reach e^{alpha(4+1/R)^2} with alpha = c R log R, far beyond
float range, so every weighted magnitude is carried as (log magnitude, sign).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

NEG_INF = float("-inf")


@dataclass(frozen=True)
class LogScalar:
    """A real number stored as natural-log magnitude plus sign in {-1, 0, +1}.

    sign == 0 iff log_mag == -inf.  The float a value was constructed from is
    cached so from_float/to_float round-trips are bit-exact (log/exp composed
    in doubles alone is not); arithmetic results drop the cache.
    """

    log_mag: float
    sign: int
    _origin: float | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if (self.sign == 0) != (self.log_mag == NEG_INF):
            raise ValueError("sign == 0 iff log_mag == -inf")

    @staticmethod
    def zero() -> "LogScalar":
        return LogScalar(NEG_INF, 0, 0.0)

    @staticmethod
    def one() -> "LogScalar":
        return LogScalar(0.0, 1, 1.0)

    @staticmethod
    def from_float(x: float) -> "LogScalar":
        x = float(x)
        if x == 0.0:
            return LogScalar(NEG_INF, 0, x)
        if not math.isfinite(x):
            raise ValueError(f"cannot represent non-finite value {x}")
        return LogScalar(math.log(abs(x)), 1 if x > 0 else -1, x)

    @staticmethod
    def from_log(log_mag: float, sign: int = 1) -> "LogScalar":
        if sign == 0 or log_mag == NEG_INF:
            return LogScalar.zero()
        return LogScalar(float(log_mag), sign)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def to_float(self) -> float:
        if self._origin is not None:
            return self._origin
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_mag)

    def __mul__(self, other: "LogScalar") -> "LogScalar":
        if self.sign == 0 or other.sign == 0:
            return LogScalar.zero()
        return LogScalar(self.log_mag + other.log_mag, self.sign * other.sign)

    def __truediv__(self, other: "LogScalar") -> "LogScalar":
        if other.sign == 0:
            raise ZeroDivisionError("LogScalar division by zero")
        if self.sign == 0:
            return LogScalar.zero()
        return LogScalar(self.log_mag - other.log_mag, self.sign * other.sign)

    def __neg__(self) -> "LogScalar":
        if self.sign == 0:
            return self
        return LogScalar(self.log_mag, -self.sign)

    def __add__(self, other: "LogScalar") -> "LogScalar":
        return log_add(self, other)

    def __sub__(self, other: "LogScalar") -> "LogScalar":
        return log_add(self, -other)

    def __abs__(self) -> "LogScalar":
        if self.sign == 0:
            return self
        return LogScalar(self.log_mag, 1)

    def sqrt(self) -> "LogScalar":
        if self.sign < 0:
            raise ValueError("sqrt of negative LogScalar")
        if self.sign == 0:
            return self
        return LogScalar(0.5 * self.log_mag, 1)

    def scaled(self, power: float) -> "LogScalar":
        """|self|^power * sign(self); power need not be integral for sign >= 0."""
        if self.sign == 0:
            return self
        return LogScalar(power * self.log_mag, self.sign)

    def __lt__(self, other: "LogScalar") -> bool:
        return _cmp(self, other) < 0

    def __le__(self, other: "LogScalar") -> bool:
        return _cmp(self, other) <= 0

    def __gt__(self, other: "LogScalar") -> bool:
        return _cmp(self, other) > 0

    def __ge__(self, other: "LogScalar") -> bool:
        return _cmp(self, other) >= 0


def _cmp(a: LogScalar, b: LogScalar) -> int:
    if a.sign != b.sign:
        return -1 if a.sign < b.sign else 1
    if a.sign == 0:
        return 0
    if a.log_mag == b.log_mag:
        return 0
    bigger_mag = 1 if a.log_mag > b.log_mag else -1
    return bigger_mag * a.sign


def log_add(a: LogScalar, b: LogScalar) -> LogScalar:
    """Exact-sign signed addition in the log domain.

    Cancellation of equal magnitudes with opposite signs yields exact zero.
    """
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    if a.log_mag >= b.log_mag:
        hi, lo = a, b
    else:
        hi, lo = b, a
    diff = lo.log_mag - hi.log_mag
    if hi.sign == lo.sign:
        return LogScalar(hi.log_mag + math.log1p(math.exp(diff)), hi.sign)
    if diff == 0.0:
        return LogScalar.zero()
    t = -math.expm1(diff)  # 1 - e^diff, accurate for diff near 0
    if t <= 0.0:
        return LogScalar.zero()
    return LogScalar(hi.log_mag + math.log(t), hi.sign)


def log_sum(items: Iterable[LogScalar]) -> LogScalar:
    """Fixed pairwise (tree) reduction of LogScalars, deterministic for a
    given input order and independent of any outer chunking."""
    vals = list(items)
    if not vals:
        return LogScalar.zero()
    while len(vals) > 1:
        nxt = [log_add(vals[i], vals[i + 1]) for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


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

"""The log-domain primitives, each defined once: logsumexp, log_abs_sq,
log_sinh and log_cosh.

Carleman weights reach e^{alpha(4+1/R)^2} with alpha = c R log R, far beyond
float range, so every weighted magnitude is carried as its natural log, a
plain float (-inf for zero); every such magnitude is nonnegative, so no sign
is carried.  Each primitive works entrywise on arrays (logsumexp along one
axis), and a batch of rows reduced along the last axis gets exactly the values
the rows would get one at a time.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")
_LOG_2 = math.log(2.0)


def logsumexp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(x))) along a nonempty axis, shifted by the max along it;
    -inf where every term is -inf."""
    top = np.max(x, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(top), top, 0.0)
    terms = x - shift  # the one x-sized temporary: exp overwrites it
    np.exp(terms, out=terms)
    with np.errstate(divide="ignore"):
        out = shift + np.log(np.sum(terms, axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def log_abs_sq(values: np.ndarray) -> np.ndarray:
    """log |v|^2 per entry as 2 log |v|, so magnitudes whose squares would
    underflow keep their digits; -inf for exact zeros."""
    mag = np.abs(values)
    own = isinstance(mag, np.ndarray) and mag.dtype.kind == "f"  # not a scalar or integers
    with np.errstate(divide="ignore"):
        out = np.log(mag, out=mag if own else None)
    out *= 2.0
    return out


def log_sinh(x):
    """log sinh x = x + log(1 - e^{-2x}) - log 2 per entry; every x must be > 0."""
    x = np.asarray(x, dtype=float)
    if x.size and x.min() <= 0:
        raise ValueError("log_sinh needs x > 0")
    return (x + np.log(-np.expm1(-2.0 * x)) - _LOG_2)[()]


def log_cosh(x):
    """log cosh x = |x| + log(1 + e^{-2|x|}) - log 2 per entry."""
    x = np.abs(x)
    return (x + np.log1p(np.exp(-2.0 * x)) - _LOG_2)[()]

"""Gauss-Legendre quadrature for the integrands known in closed form.

Those integrands (polynomial time bumps and the hyperbolic K-Bessel kernels)
are smooth, so a fixed Gauss-Legendre rule, applied by its callers as weights
times integrand values at the nodes, is sufficient and fast.  Stored
trajectories are not integrated here: their nodes are the equispaced store
times, so ``evolution._simpson_weights`` gives them composite Simpson weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for integration over an interval."""

    nodes: np.ndarray
    weights: np.ndarray


_NEWTON_STEPS = 20  # three or four reach 1e-14 from Tricomi's seeds for n <= 800


@lru_cache(maxsize=32)
def _reference_rule(n: int):
    """Read-only n-node Gauss-Legendre nodes and weights on [-1, 1], from
    ``_newton_rule`` for every n; callers ask for a few distinct n many times."""
    x, w = _newton_rule(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _newton_rule(n: int):
    """numpy's ``leggauss`` without its companion matrix.

    ``leggauss`` seeds its roots with the eigenvalues of the dense n x n
    companion matrix (5 MB at n = 800, a transient that sets the peak memory
    of a K-Bessel check).  Here the seeds are Newton iterates on the
    three-term recurrence, vectorised over the roots and started from
    Tricomi's approximation; numpy's final Newton step, weight formula and
    symmetrisation follow unchanged.  The nodes agree with ``leggauss`` to an
    ulp and the weights to 1.3e-11 relative at n = 800, the last bits only.
    Against 30-digit mpmath the weights are off by 4.7e-15 relative at n = 7
    and 9.6e-14 at n = 24 (``leggauss``: 8.9e-16 and 1.2e-13).
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))  # ascending
    for _ in range(_NEWTON_STEPS):
        p_prev, p = np.ones_like(x), x
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        dx = p * (x * x - 1.0) / (n * (x * p - p_prev))
        x = x - dx
        if np.max(np.abs(dx)) < 1e-14:
            break
    c = np.zeros(n + 1)
    c[-1] = 1.0
    dy = legendre.legval(x, c)
    df = legendre.legval(x, legendre.legder(c))
    x -= dy / df
    fm = legendre.legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1.0 / (fm * df)
    w = (w + w[::-1]) / 2.0
    x = (x - x[::-1]) / 2.0
    w *= 2.0 / w.sum()
    return x, w


def gauss_legendre(n: int, a: float = 0.0, b: float = 1.0) -> QuadratureRule:
    """n-node Gauss-Legendre rule on [a, b]; exact on polynomials up to 2n-1."""
    x, w = _reference_rule(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return QuadratureRule(mid + half * x, half * w)

"""Gauss-Legendre quadrature, the single quadrature family used everywhere.

All integrands in the toolkit (polynomial time bumps, Bessel integral
representations, hyperbolic weight kernels) are smooth, so Gauss-Legendre
with node-doubling error control is sufficient and fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteError


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for integration over [a, b]."""

    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)


@lru_cache(maxsize=32)
def _reference_rule(n: int):
    """Read-only n-node Gauss-Legendre nodes and weights on [-1, 1]; each
    costs an eigensolve, and callers ask for a few distinct n many times."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(n: int, a: float = 0.0, b: float = 1.0) -> QuadratureRule:
    """n-node Gauss-Legendre rule on [a, b]; exact on polynomials up to 2n-1."""
    x, w = _reference_rule(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return QuadratureRule(a, b, mid + half * x, half * w)


def integrate(f, rule: QuadratureRule):
    """Quadrature of a callable; f may be scalar- or numpy-vectorized."""
    try:
        vals = np.asarray(f(rule.nodes))
        if vals.shape != rule.nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.asarray([f(t) for t in rule.nodes])
    if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
        raise NonFiniteError("integrand evaluated to NaN/inf at a quadrature node")
    total = np.dot(rule.weights, vals)
    return complex(total) if np.iscomplexobj(vals) else float(total)


def integrate_with_error(f, rule: QuadratureRule):
    """Quadrature value plus a node-doubling error estimate |I_n - I_2n|."""
    coarse = integrate(f, rule)
    fine = integrate(f, gauss_legendre(2 * rule.n, rule.a, rule.b))
    return fine, abs(fine - coarse)

"""Bessel J and Macdonald K evaluations.

J comes from its ascending series with exactly-rounded summation; it is the
exact free propagator e^{-2it} i^j J_j(2t) that evolutions are checked
against.  K is evaluated by log-domain quadrature of its cosh integral, so
huge orders stay representable, and is returned as its log magnitude; it is
the weight kernel of the K-Bessel check.  No external special-function
library is used at runtime.
"""

from __future__ import annotations

import math

import numpy as np

from .logscalar import log_cosh, logsumexp
from .quadrature import gauss_legendre

_MAX_SERIES_TERMS = 400  # n + 2k cap; desk-scale arguments converge long before
_K_NODES = 400  # Gauss-Legendre nodes of bessel_k's cutoff interval
_COSH_NODES = 800  # and of weighted_cosh_integral's bracket around its peak


def bessel_j(n: int, z: float) -> float:
    """J_n(z) by the alternating series; real for real z.

    J_n(z) = i^n I_n(-iz) collapses to sum (-1)^k (z/2)^(n+2k) / (k! (n+k)!).
    """
    n = int(n)
    z = float(z)
    if abs(z) > 700:
        raise OverflowError("bessel_j limited to |z| <= 700")
    sign = 1.0
    if n < 0:
        n = -n
        sign *= (-1.0) ** n  # J_{-n} = (-1)^n J_n
    if z < 0:
        z = -z
        sign *= (-1.0) ** n
    if z == 0.0:
        return sign if n == 0 else 0.0
    half = z / 2.0
    term = half**n / math.factorial(n)
    terms = [term]
    peak = abs(term)
    for k in range(1, _MAX_SERIES_TERMS):
        term *= -(half * half) / (k * (n + k))
        terms.append(term)
        peak = max(peak, abs(term))
        if abs(term) < 5e-324 or (k > half and abs(term) < 1e-20 * peak):
            break
    return sign * math.fsum(terms)


def bessel_k(nu: float, x: float) -> float:
    """log K_nu(x), K_nu(x) = int_0^inf e^{-x cosh t} cosh(nu t) dt, by
    log-domain quadrature.

    The cutoff extends past the integrand peak until the log-integrand has
    dropped by 46 (tail < 1e-16 of the result is guaranteed by the integrand's
    superexponential right flank).
    """
    nu = abs(float(nu))
    x = float(x)
    if x <= 0:
        raise ValueError("bessel_k requires x > 0")

    def log_f(t):
        return log_cosh(nu * t) - x * np.cosh(t)

    t_peak = math.asinh(nu / x) if nu > 0 else 0.0
    peak = float(log_f(np.array([t_peak]))[0])
    t_hi = max(t_peak + 1.0, 1.0)
    while float(log_f(np.array([t_hi]))[0]) > peak - 46.0:
        t_hi += 1.0
    rule = gauss_legendre(_K_NODES, 0.0, t_hi)
    logs = log_f(rule.nodes) + np.log(rule.weights)
    return float(logsumexp(logs))


def weighted_cosh_integral(j: float, mu: float) -> float:
    """log of int_R e^{j b - 2 cosh(b/mu) / e} db by direct log-domain
    quadrature.

    Independent route used to pin the substitution constant relating this
    integral to K_{mu j}(2/e); the substitution t = b/mu gives exactly
    2 mu K_{mu j}(2/e).
    """
    mu = float(mu)
    j = float(j)
    if mu <= 0:
        raise ValueError("mu must be positive")
    c = 2.0 / math.e

    def log_f(b):
        return j * b - c * np.cosh(b / mu)

    b_peak = mu * math.asinh(j * mu / c) if j != 0 else 0.0
    peak = float(log_f(np.array([b_peak]))[0])
    lo, hi = b_peak - mu, b_peak + mu
    while float(log_f(np.array([lo]))[0]) > peak - 46.0:
        lo -= mu
    while float(log_f(np.array([hi]))[0]) > peak - 46.0:
        hi += mu
    rule = gauss_legendre(_COSH_NODES, lo, hi)
    logs = log_f(rule.nodes) + np.log(rule.weights)
    return float(logsumexp(logs))

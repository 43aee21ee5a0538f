"""Exact construction of a Z^2 stationary solution that equals 1 at the
origin, vanishes on the diamond {|j1| + |j2 - R| <= 2}, and solves
Delta_d u + V u = 0 with sup|V| independent of R.

Representation: every value of u is 0 or +-2^{-e}.  The five closed-form rows
give that, and so do the repaired ring values (h, -h/2, h/2, -h) with
h = 2^{-(R-4)}.  A field's window is therefore held as two int64 arrays,
sign in {-1, 0, 1} and exponent e, on the padded square |j|_inf <= M + 1 (one
extra ring, so every window site has its four neighbors).  They are built
once per DyadicField by ``_sign_exponent`` and cached; the float field, V,
sup|V| and the equation check all come from them.

Why the int64 arithmetic is exact: on a site with u != 0,
    V = -Delta u / u = 4 - s_0 sum_k s_k 2^{e_0 - e_k}
over its nonzero neighbors k.  With shift = max(0, max(e_k - e_0)), V is
num / 2^shift and every term of num is an integer power of two.  Neighboring
exponents differ by a few units only (the row regimes and the ring values),
so shift and the terms are small; before summing, the code checks that every
term is at most 2^50, so the five-term sum stays below 2^53, and raises
ExactRangeError otherwise.  Integers below 2^53 are exact float64 values,
so ldexp(num, -shift) and ldexp(sign, -e) equal the correctly rounded
Fractions bit for bit.  On the vanishing set u = 0 the equation reads
Delta u = 0; those sites (the 13 diamond sites) are checked with exact
Fraction Laplacians.

The per-site definitions (``literal_value``, ``DyadicField.value``,
``laplacian``, ``potential_value``) stay as the exact reference; the exact
sidecar and the diamond checks use them.

Two value modes: "literal_paper" transcribes the five-row piecewise formula
as printed (its axis-extreme diamond neighbors are inconsistent, which the
verifier reports as exact residuals at (0, R+-2) and (+-2, R)); "repaired"
re-solves the twelve ring values {|j1| + |j2 - R| = 3} as the exact
minimum-norm perturbation enforcing harmonicity on the whole diamond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ExactRangeError
from .lattice import LatticeField, LatticeWindow, Potential


def _dyadic(sign: int, exponent: int) -> Fraction:
    """sign * 2^{-exponent} as an exact rational."""
    if exponent >= 0:
        return Fraction(sign, 2**exponent)
    return Fraction(sign * 2 ** (-exponent), 1)


@dataclass(frozen=True)
class CounterexampleSpec:
    R: int
    margin: int = 60
    value_mode: str = "repaired"

    def __post_init__(self):
        if self.R < 8:
            raise ValueError("R >= 8 required")
        if self.value_mode not in ("literal_paper", "repaired"):
            raise ValueError(f"unknown value_mode {self.value_mode!r}")
        if self.margin < self.R:
            raise ValueError("margin >= R required so the window covers |j2| <= 2R")

    @property
    def half_width(self) -> int:
        return self.R + self.margin

    def window(self) -> LatticeWindow:
        return LatticeWindow(2, self.half_width)


def literal_value(R: int, j1: int, j2: int) -> Fraction:
    """The five-row piecewise formula; zero on the diamond."""
    a1 = abs(j1)
    if a1 + abs(j2 - R) <= 2:
        return Fraction(0)
    if j2 <= R - 3:
        return _dyadic(+1, a1 + abs(j2))
    if j2 >= R + 3:
        return _dyadic(+1, a1 + abs(j2) - 6)
    if j2 in (R - 2, R + 2):
        return _dyadic(-1, a1 + R - 5)
    if j2 in (R - 1, R + 1):
        return _dyadic(+1, a1 + R - 6)
    return _dyadic(-1, a1 + R - 6)  # j2 == R


def _ring_orbits(R: int) -> list:
    """The twelve ring-3 sites grouped into mirror orbits (j1 -> -j1 and
    j2 -> 2R - j2); one representative plus the orbit's site list each."""
    return [
        ((0, R + 3), [(0, R + 3), (0, R - 3)]),
        ((1, R + 2), [(1, R + 2), (-1, R + 2), (1, R - 2), (-1, R - 2)]),
        ((2, R + 1), [(2, R + 1), (-2, R + 1), (2, R - 1), (-2, R - 1)]),
        ((3, R), [(3, R), (-3, R)]),
    ]


def repaired_ring_values(R: int) -> dict:
    """Exact minimum-perturbation ring values enforcing Delta u = 0 on the
    diamond boundary; solved on the mirror fundamental domain.

    Unknowns (x0..x3) = u at (0, R+3), (1, R+2), (2, R+1), (3, R) with orbit
    weights w = (2, 4, 4, 2); constraints from the boundary diamond sites:
        (0, R+2):  x0 + 2 x1          = 0
        (1, R+1):       x1 + x2       = 0
        (2, R):              2 x2 + x3 = 0
    Their solutions are the multiples of v = (-2, 1, -1, 2), so the minimizer
    of sum_i w_i (x_i - p_i)^2 over them is the W-orthogonal projection of
    the literal values p onto v: x = v sum(w v p) / sum(w v^2).
    """
    v = (-2, 1, -1, 2)
    orbits = _ring_orbits(R)
    p = [literal_value(R, *rep) for rep, _ in orbits]
    weights = [len(sites) for _, sites in orbits]
    scale = (sum(w * vi * pi for w, vi, pi in zip(weights, v, p))
             / sum(w * vi * vi for w, vi in zip(weights, v)))
    x = [vi * scale for vi in v]
    overrides = {}
    for (rep, sites), val in zip(orbits, x):
        for s in sites:
            overrides[s] = val
    return overrides


def _dyadic_exponent(val) -> int:
    """e with |val| = 2^{-e}; raises ValueError unless val is +-2^{-e}."""
    q = Fraction(val)
    num, den = abs(q.numerator), q.denominator
    if num & (num - 1) or den & (den - 1):
        raise ValueError(f"{val} is not 0 or a signed power of two")
    return den.bit_length() - num.bit_length()


def _sign_exponent(spec: CounterexampleSpec, overrides: dict):
    """(sign, exponent) int64 arrays of u = sign * 2^{-exponent} on the padded
    square |j|_inf <= M + 1, axis 0 = j1; exponent means nothing where
    sign = 0."""
    R, P = spec.R, spec.half_width + 1
    j1, j2 = np.meshgrid(np.arange(-P, P + 1), np.arange(-P, P + 1), indexing="ij")
    a1, a2 = np.abs(j1), np.abs(j2)
    rows = [j2 <= R - 3, j2 >= R + 3, (j2 == R - 2) | (j2 == R + 2),
            (j2 == R - 1) | (j2 == R + 1)]
    exponent = np.select(rows, [a1 + a2, a1 + a2 - 6, a1 + R - 5, a1 + R - 6],
                         default=a1 + R - 6).astype(np.int64)
    sign = np.where(rows[2] | (j2 == R), -1, 1).astype(np.int64)
    sign[a1 + np.abs(j2 - R) <= 2] = 0
    for (k1, k2), val in overrides.items():
        if max(abs(k1), abs(k2)) > P:
            continue
        idx = (k1 + P, k2 + P)
        if val == 0:
            sign[idx] = 0
        else:
            sign[idx], exponent[idx] = (1 if val > 0 else -1), _dyadic_exponent(val)
    return sign, exponent


def _potential_numerators(sign: np.ndarray, exponent: np.ndarray):
    """(num, shift): V = num / 2^shift on the window (the padded square less
    its outer ring), with V = 0 where u = 0; see the module docstring."""
    s0, e0 = sign[1:-1, 1:-1], exponent[1:-1, 1:-1]
    live = s0 != 0
    neighbors = [(sign[2:, 1:-1], exponent[2:, 1:-1]), (sign[:-2, 1:-1], exponent[:-2, 1:-1]),
                 (sign[1:-1, 2:], exponent[1:-1, 2:]), (sign[1:-1, :-2], exponent[1:-1, :-2])]
    gaps = [np.where(live & (s != 0), e0 - e, 0) for s, e in neighbors]
    shift = max(0, -min(int(g.min()) for g in gaps))
    top = shift + max(2, max(int(g.max()) for g in gaps))
    if top > 50:
        raise ExactRangeError(f"V numerator term 2^{top} leaves the exact int64/float range")
    num = np.where(live, np.int64(4) << shift, 0)
    for (s, _), g in zip(neighbors, gaps):
        num -= s0 * s * (np.int64(1) << (shift + g))
    return num, shift


@dataclass
class DyadicField:
    """Exact-valued counterexample field; values come from the closed-form
    rows plus any repair overrides, so neighbors outside the stored window
    are still exact.  The window's sign/exponent arrays and V numerators are
    computed on first use and cached (do not mutate ``overrides`` after)."""

    spec: CounterexampleSpec
    overrides: dict = field(default_factory=dict)

    def value(self, j1: int, j2: int) -> Fraction:
        key = (j1, j2)
        if key in self.overrides:
            return self.overrides[key]
        return literal_value(self.spec.R, j1, j2)

    def laplacian(self, j1: int, j2: int) -> Fraction:
        v = self.value
        return (v(j1 + 1, j2) + v(j1 - 1, j2) + v(j1, j2 + 1) + v(j1, j2 - 1)
                - 4 * v(j1, j2))

    def potential_value(self, j1: int, j2: int) -> Fraction:
        """V = -Delta u / u where u != 0, and 0 on the vanishing set."""
        u = self.value(j1, j2)
        if u == 0:
            return Fraction(0)
        return -self.laplacian(j1, j2) / u

    @cached_property
    def _arrays(self):
        return _sign_exponent(self.spec, self.overrides)

    @cached_property
    def _v_numerators(self):
        return _potential_numerators(*self._arrays)

    def to_lattice_field(self) -> LatticeField:
        sign, exponent = self._arrays
        vals = np.ldexp(sign[1:-1, 1:-1], -exponent[1:-1, 1:-1]).astype(complex)
        return LatticeField(self.spec.window(), vals)

    def exact_sidecar(self) -> dict:
        """Sign/numerator/denominator-exponent per nonzero near-diamond site."""
        R = self.spec.R
        out = {}
        for j1 in range(-4, 5):
            for off in range(-4, 5):
                if abs(j1) + abs(off) > 4:
                    continue
                val = self.value(j1, R + off)
                if val == 0:
                    continue
                num, den = val.numerator, val.denominator
                out[f"{j1},{R + off}"] = {
                    "sign": 1 if num > 0 else -1,
                    "numerator": abs(num),
                    "log2_denominator": den.bit_length() - 1,
                }
        return out


def _field(spec: CounterexampleSpec) -> DyadicField:
    return DyadicField(spec, repaired_ring_values(spec.R) if spec.value_mode == "repaired"
                       else {})


def _sup_v(u: DyadicField) -> Fraction:
    """sup |V| over the window, exact."""
    num, shift = u._v_numerators
    return Fraction(int(np.max(np.abs(num))), 2**shift)


def build_counterexample(spec: CounterexampleSpec):
    """(u, V): the exact field and its bounded potential on the spec window."""
    u = _field(spec)
    num, shift = u._v_numerators
    return u, Potential(spec.window(), np.ldexp(num, -shift))


def diamond_sites(R: int) -> list:
    return [(j1, R + off) for j1 in range(-2, 3) for off in range(-2, 3)
            if abs(j1) + abs(off) <= 2]


def tail_mass_bound(spec: CounterexampleSpec) -> Fraction:
    """Exact geometric bound on the ell^2 mass outside the stored square.

    Every value satisfies |u| <= 2^8 * 2^{-(|j1|+|j2|)} (the -5/-6 row offsets
    and the repaired ring values are absorbed by 2^8), and sites off the
    square |j|_inf <= N have |j1| + |j2| >= N + 1, so
        tail <= 2^16 sum_{l >= N+1} 4 l 4^{-l},
    summed in closed form.
    """
    N = spec.half_width
    L = N + 1
    x = Fraction(1, 4)
    geom = x**L * (L + x * (1 - L)) / (1 - x) ** 2  # sum_{l>=L} l x^l
    return Fraction(2**16) * 4 * geom


def verify_counterexample(u: DyadicField, V: Potential, spec: CounterexampleSpec) -> dict:
    """Exact checks: (a) vanishing diamond, (b) Delta u = 0 on it, (c) the
    equation with V everywhere in the window, (d) the ell^2 tail certificate,
    (e) u(0,0) = 1.  Residuals are exact rationals; nothing is rounded.

    V = -Delta u / u satisfies the equation identically where u != 0, so (c)
    only has to check Delta u = 0 on the zero set, site by site in row-major
    order; sup|V| comes from u's exact V numerators (the V argument is not
    read)."""
    if u.spec != spec:
        raise ValueError(f"field built for {u.spec}, asked to verify {spec}")
    R, M = spec.R, spec.half_width
    report = {"R": R, "mode": spec.value_mode}
    diamond = diamond_sites(R)
    vanish_fail = [s for s in diamond if u.value(*s) != 0]
    residuals = {s: u.laplacian(*s) for s in diamond}
    harmonic_fail = [(s, r) for s, r in residuals.items() if r != 0]
    sign, _ = u._arrays
    zero_set = [(int(i1) - M, int(i2) - M) for i1, i2 in np.argwhere(sign[1:-1, 1:-1] == 0)]
    equation_fail = [(s, lap) for s in zero_set if (lap := u.laplacian(*s)) != 0]
    sup_v = _sup_v(u)
    tail = tail_mass_bound(spec)
    report.update({
        "vanishing_diamond": {"pass": not vanish_fail, "failures": vanish_fail},
        "diamond_harmonic": {
            "pass": not harmonic_fail,
            "residual_sites": [list(s) for s, _ in harmonic_fail],
            "residuals": {f"{s[0]},{s[1]}": str(r) for s, r in harmonic_fail},
        },
        "equation_everywhere": {"pass": not equation_fail,
                                "failures": [list(s) for s, _ in equation_fail[:20]]},
        "l2_tail_certificate": {
            "pass": tail < Fraction(1, 2**spec.margin),
            "log2_bound": math.log2(float(tail)) if tail > 0 else -math.inf,
            "threshold_log2": -spec.margin,
        },
        "origin_is_one": {"pass": u.value(0, 0) == 1},
        "sup_V": str(sup_v),
        "sup_V_float": float(sup_v),
    })
    report["pass"] = all(report[k]["pass"] for k in
                         ("vanishing_diamond", "diamond_harmonic", "equation_everywhere",
                          "l2_tail_certificate", "origin_is_one"))
    return report


def potential_bound_scan(R_list, margin: int | None = None, value_mode: str = "repaired") -> dict:
    """sup|V| per R (exact); boundedness uniform in R means exact equality."""
    sups = {}
    for R in R_list:
        spec = CounterexampleSpec(int(R), margin if margin is not None else max(60, int(R)),
                                  value_mode)
        sups[int(R)] = _sup_v(_field(spec))
    values = list(sups.values())
    return {
        "sup_by_R": {str(k): str(v) for k, v in sups.items()},
        "sup_float": float(values[0]) if values else 0.0,
        "identical_across_R": all(v == values[0] for v in values),
    }

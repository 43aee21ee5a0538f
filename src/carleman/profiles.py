"""Weight parameters and the smooth time profile.

The C-infinity gluing h(s) = e^{-1/s} / (e^{-1/s} + e^{-1/(1-s)}) supplies
every transition: the time profile (0 on [0,1/4] and [3/4,1], 3 on
[3/8,5/8]) and the inward ramp of the admissible sites of the Carleman
check.  h has closed-form first and second derivatives, whose exact
sup-norms are located once by golden-section search and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

_PHI_PLATEAU = 3.0
_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def _glue(s, order: int):
    """h(s) = sigma(-u(s)) with u = 1/s - 1/(1-s) (0 at s<=0, 1 at s>=1), or
    its first or second derivative for order 1 or 2."""
    s = np.asarray(s, dtype=float)
    shape = s.shape
    s = np.atleast_1d(s)
    out = np.zeros_like(s)
    if order == 0:
        out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    u = 1.0 / sm - 1.0 / (1.0 - sm)
    with np.errstate(over="ignore"):
        h = np.where(u > 700, 0.0, np.where(u < -700, 1.0, 1.0 / (1.0 + np.exp(np.clip(u, -700, 700)))))
    if order == 0:
        out[mid] = h
    else:
        du = -1.0 / sm**2 - 1.0 / (1.0 - sm) ** 2
        if order == 1:
            out[mid] = -du * h * (1.0 - h)
        else:
            ddu = 2.0 / sm**3 - 2.0 / (1.0 - sm) ** 3
            hw = h * (1.0 - h)
            out[mid] = -ddu * hw + du * du * hw * (1.0 - 2.0 * h)
    return out.reshape(shape)


def _golden_max(f, a: float, b: float) -> float:
    """Max of f on [a, b] by golden-section refinement over a coarse bracket."""
    grid = np.linspace(a, b, 4001)
    vals = f(grid)
    i = int(np.argmax(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    x1 = hi - _GOLD * (hi - lo)
    x2 = lo + _GOLD * (hi - lo)
    f1, f2 = float(f(np.array([x1]))[0]), float(f(np.array([x2]))[0])
    for _ in range(90):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLD * (hi - lo)
            f2 = float(f(np.array([x2]))[0])
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLD * (hi - lo)
            f1 = float(f(np.array([x1]))[0])
    return max(f1, f2)


@lru_cache(maxsize=None)
def _glue_sup_derivatives() -> tuple:
    return tuple(_golden_max(lambda s: np.abs(_glue(s, order)), 0.0, 1.0) for order in (1, 2))


@dataclass(frozen=True)
class TimeProfile:
    """Smooth phi : [0,1] -> R with closed-form derivatives and exact sups.

    kinds: "paper_phi" (0/3 plateaus with smooth transitions), "constant"
    (phi == level), "zero".
    """

    kind: str
    level: float = 0.0
    sup_d1: float = field(init=False, default=0.0)
    sup_d2: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.kind not in ("paper_phi", "constant", "zero"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "paper_phi":
            s1, s2 = _glue_sup_derivatives()
            # transitions are h scaled by 3 over width 1/8
            object.__setattr__(self, "sup_d1", _PHI_PLATEAU * 8.0 * s1)
            object.__setattr__(self, "sup_d2", _PHI_PLATEAU * 64.0 * s2)

    @staticmethod
    def zero() -> "TimeProfile":
        return TimeProfile("zero")

    @staticmethod
    def constant(level: float) -> "TimeProfile":
        return TimeProfile("constant", float(level))

    @staticmethod
    def paper() -> "TimeProfile":
        return TimeProfile("paper_phi")

    @property
    def max_value(self) -> float:
        if self.kind == "paper_phi":
            return _PHI_PLATEAU
        if self.kind == "constant":
            return self.level
        return 0.0

    def value(self, t):
        return self._derivative(t, 0)

    def d1(self, t):
        return self._derivative(t, 1)

    def d2(self, t):
        return self._derivative(t, 2)

    def _derivative(self, t, order: int):
        """phi or its order-th derivative: the transitions 3 h(8(t - 1/4)) and
        3 h(8(3/4 - t)), so the chain rule gives 8^order and, on the falling
        one, the sign (-1)^order."""
        t = np.asarray(t, dtype=float)
        if self.kind != "paper_phi":
            return np.full_like(t, self.max_value if order == 0 else 0.0)
        up = 8.0**order * _glue((t - 0.25) * 8.0, order)
        down = (-1) ** order * 8.0**order * _glue((0.75 - t) * 8.0, order)
        return _PHI_PLATEAU * np.where(t < 0.5, up, down)


@dataclass(frozen=True)
class WeightSpec:
    """(alpha, R, phi, d): the Carleman weight exp(alpha |j/R + phi(t) e_1|^2)."""

    alpha: float
    R: float
    phi: TimeProfile
    d: int

    def __post_init__(self):
        if self.alpha < 0 or self.R <= 0:
            raise ValueError("need alpha >= 0 and R > 0")
        if self.d < 1:
            raise ValueError("d >= 1 required")

    @staticmethod
    def from_rule(R: float, phi: TimeProfile, d: int, c_rule: float = 2.0) -> "WeightSpec":
        """The weight at alpha = c_rule R log R, the evolution regime."""
        return WeightSpec(c_rule * R * math.log(R), R, phi, d)


def weight_log_magnitude(spec: WeightSpec, coords, phi_t) -> np.ndarray:
    """alpha * |j/R + phi(t) e_1|^2 for coordinate arrays and phi values.

    coords: sequence of d broadcastable coordinate arrays; phi_t broadcasts
    against them (scalar for one time, or a leading time axis).
    """
    shifted = coords[0] / spec.R + phi_t
    total = shifted**2
    for k in range(1, spec.d):
        total = total + (coords[k] / spec.R) ** 2
    return spec.alpha * total

"""Truncated Z^d windows, complex lattice fields, the discrete Laplacian,
log-domain weighted norms, and ring masses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RingOutsideWindowError
from .logscalar import NEG_INF, log_abs_sq, logsumexp


@dataclass(frozen=True)
class LatticeWindow:
    """Sites j in Z^d with max_k |j_k| <= M; out-of-window neighbors read as 0."""

    d: int
    M: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if self.M < 2:
            raise ValueError("half-width M must be >= 2")

    @property
    def shape(self) -> tuple:
        return (2 * self.M + 1,) * self.d

    @property
    def site_count(self) -> int:
        return (2 * self.M + 1) ** self.d

    @cached_property
    def axes(self) -> np.ndarray:
        return np.arange(-self.M, self.M + 1)

    def coordinate(self, k: int) -> np.ndarray:
        """Coordinate j_k broadcast over the window shape."""
        shape = [1] * self.d
        shape[k] = 2 * self.M + 1
        return self.axes.reshape(shape)

    @cached_property
    def radius_sq(self) -> np.ndarray:
        """Euclidean |j|^2 per site."""
        out = np.zeros(self.shape)
        for k in range(self.d):
            out = out + self.coordinate(k).astype(float) ** 2
        return out

    @cached_property
    def inf_norm(self) -> np.ndarray:
        """max_k |j_k| per site."""
        out = np.zeros(self.shape, dtype=int)
        for k in range(self.d):
            out = np.maximum(out, np.abs(self.coordinate(k)))
        return out

    @property
    def boundary_shell(self) -> np.ndarray:
        """Mask of the outer shell max_k |j_k| > M-2."""
        return self.inf_norm > self.M - 2

    @cached_property
    def radial_bins(self) -> tuple:
        """Sites grouped by integer |j|^2: (flat site order sorted by |j|^2,
        the distinct |j|^2 values, the start of each group in that order, the
        group sizes)."""
        r_sq = self.radius_sq.ravel()
        order = np.argsort(r_sq, kind="stable")
        values, starts, counts = np.unique(r_sq[order], return_index=True, return_counts=True)
        return order, values, starts, counts

    def index_of(self, j) -> tuple:
        return tuple(int(jk) + self.M for jk in np.atleast_1d(j))


@dataclass(frozen=True)
class LatticeField:
    """One time slice of a complex field on a window."""

    window: LatticeWindow
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.window.shape:
            raise ValueError(f"values shape {self.values.shape} != window {self.window.shape}")
        if not np.all(np.isfinite(self.values.real)) or not np.all(np.isfinite(self.values.imag)):
            raise ValueError("field values must be finite")

    @staticmethod
    def from_values(window: LatticeWindow, values) -> "LatticeField":
        return LatticeField(window, np.asarray(values, dtype=complex))

    @staticmethod
    def delta(window: LatticeWindow, j=None) -> "LatticeField":
        values = np.zeros(window.shape, dtype=complex)
        idx = window.index_of(j if j is not None else [0] * window.d)
        values[idx] = 1.0
        return LatticeField(window, values)

    def norm_sq(self) -> float:
        return float(mass_sq(self.values, self.window.d))

    def __getitem__(self, j):
        return self.values[self.window.index_of(j)]


@dataclass(frozen=True)
class Potential:
    """Bounded static potential on a window."""

    window: LatticeWindow
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape[-self.window.d:] != self.window.shape:
            raise ValueError("potential shape incompatible with window")

    @staticmethod
    def zero(window: LatticeWindow) -> "Potential":
        return Potential(window, np.zeros(window.shape))

    @staticmethod
    def alternating(window: LatticeWindow, amplitude: float = 1.0) -> "Potential":
        """V_j = amplitude * (-1)^(j_1+...+j_d); sup norm exactly |amplitude|."""
        parity = np.zeros(window.shape)
        for k in range(window.d):
            parity = parity + window.coordinate(k)
        return Potential(window, amplitude * np.where(parity % 2 == 0, 1.0, -1.0))


def laplacian_values(values: np.ndarray, d: int) -> np.ndarray:
    """(Delta_d u)_j = sum_k (u_{j+e_k} + u_{j-e_k} - 2 u_j), zero padding."""
    out = (-2.0 * d) * values
    for k in range(values.ndim - d, values.ndim):
        lo = [slice(None)] * values.ndim
        hi = [slice(None)] * values.ndim
        lo[k] = slice(None, -1)
        hi[k] = slice(1, None)
        out[tuple(lo)] += values[tuple(hi)]
        out[tuple(hi)] += values[tuple(lo)]
    return out


def discrete_laplacian(u: LatticeField) -> LatticeField:
    return LatticeField(u.window, laplacian_values(u.values.astype(complex, copy=True), u.window.d))


def weighted_log_norm(values: np.ndarray, log_weights, d: int,
                      time_weights: np.ndarray | None = None) -> np.ndarray:
    """log sqrt( sum_j w_j^2 |u_j|^2 ) over the trailing d lattice axes of
    values, time-integrated over the axis before them when time_weights are
    given; any axes before those are batch axes and are kept.  -inf for a zero
    norm.

    log_weights broadcast against values.  The sites, then the time nodes, go
    through one max-shifted logsumexp each along the last axis, so a batch
    entry gets exactly the value it would get on its own.
    """
    x = 2.0 * np.asarray(log_weights, dtype=float) + log_abs_sq(values)
    lead = x.shape[:x.ndim - d]
    total = logsumexp(x.reshape(lead + (math.prod(x.shape[x.ndim - d:]),)))
    if time_weights is not None:
        total = logsumexp(total + np.log(time_weights))
    return 0.5 * total


def radial_log_sums(window: LatticeWindow, log_mass: np.ndarray) -> tuple:
    """One max-shifted log-sum of log_mass per integer |j|^2 bin.

    Returns (r_sq, bin_logs): the distinct |j|^2 values in increasing order and
    log of the summed e^{log_mass} over the sites of each; -inf for a bin with
    no mass.
    """
    order, r_sq, starts, counts = window.radial_bins
    x = log_mass.ravel()[order]
    top = np.maximum.reduceat(x, starts)
    shift = np.where(np.isfinite(top), top, 0.0)
    sums = np.add.reduceat(np.exp(x - np.repeat(shift, counts)), starts)
    with np.errstate(divide="ignore"):
        return r_sq, shift + np.log(sums)


def ring_masses(u, R_list, time_weights: np.ndarray | None = None) -> list:
    """log lambda(R) for every R in R_list, -inf for an empty ring: the ell^2
    mass on the ring R-2 <= |j| <= R+1 (Euclidean), time-integrated for
    space-time input.

    u: LatticeField (stationary variant), or (Trajectory-like) object exposing
    window and a values array with leading time axis; time_weights then gives
    the time integration weights.  Each snapshot is read once: its log-mass is
    folded into a per-site time integral, which is summed per |j|^2 bin, and
    each ring is a contiguous range of bins.
    """
    window = u.window
    for R in R_list:
        if R + 1 >= window.M:
            raise RingOutsideWindowError(f"ring R={R} needs R+1 < M={window.M}")
    if isinstance(u, LatticeField):
        log_mass = log_abs_sq(u.values)
    else:
        if time_weights is None:
            raise ValueError("space-time ring masses need time integration weights")
        with np.errstate(divide="ignore"):
            log_tw = np.log(time_weights)
        log_mass = log_abs_sq(u.values[0]) + log_tw[0]
        for n in range(1, len(log_tw)):
            np.logaddexp(log_mass, log_abs_sq(u.values[n]) + log_tw[n], out=log_mass)
    r_sq, bin_logs = radial_log_sums(window, log_mass)
    out = []
    for R in R_list:
        lo = np.searchsorted(r_sq, (R - 2) ** 2, side="left")
        hi = np.searchsorted(r_sq, (R + 1) ** 2, side="right")
        total = float(logsumexp(bin_logs[lo:hi])) if hi > lo else NEG_INF
        out.append(0.5 * total)
    return out


def mass_sq(values: np.ndarray, d: int, weights=None):
    """sum_j w_j |u_j|^2 over the trailing d lattice axes of values (w_j = 1
    when weights is None; weights broadcast against those d axes); any axes
    before them are batch axes and are kept.

    numpy's einsum loops sum each row of the last axis, on the float view of
    complex values, and a pairwise sum adds the row sums; apart from a copy of
    non-contiguous input, the only temporary holds one sum per row.  No BLAS
    call is made: a BLAS dot product (np.vdot, np.linalg.norm) on a
    window-sized vector wakes OpenBLAS's worker thread, which then busy-waits
    between calls and, in a stepping loop, doubles the CPU time for no wall
    time.
    """
    values = np.ascontiguousarray(values)
    rows = values.view(values.real.dtype) if np.iscomplexobj(values) else values
    if weights is None:
        row_sums = np.einsum("...i,...i->...", rows, rows)
    else:
        w = np.broadcast_to(weights, values.shape[values.ndim - d:])
        if rows is not values:  # one weight per float of the complex view
            w = np.repeat(w, 2, axis=-1)
        row_sums = np.einsum("...i,...i,...i->...", w, rows, rows)
    return row_sums.sum(axis=tuple(range(1 - d, 0))) if d > 1 else row_sums


def boundary_mass_fraction(values: np.ndarray, window: LatticeWindow) -> np.ndarray:
    """Mass fraction of a field in the outer shell max_k |j_k| > M-2, 0 for
    a zero field; any axes before the d lattice axes are batch axes, each
    entry the fraction of its own field.

    Reported with every experiment; runs above 1e-12 * ||u||^2 are flagged so
    window-truncation error is visible instead of silent.
    """
    total = mass_sq(values, window.d)
    shell = mass_sq(values[..., window.boundary_shell], 1)
    return np.divide(shell, total, out=np.zeros_like(shell), where=total > 0)


def star_log_weight(r, rate):
    """rate * r log(r + 1): the log of the e^{-mu |j| log(|j|+1)} decay profile
    at rate = -mu, and of its inverse weight at rate = 2 mu'."""
    return rate * r * np.log(r + 1.0)

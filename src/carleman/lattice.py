"""Truncated Z^d windows, their symmetry orbits, complex lattice fields, the
discrete Laplacian, log-domain weighted norms, and ring masses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RingOutsideWindowError
from .logscalar import NEG_INF, log_abs_sq, logsumexp

# blocked passes: ring_masses reduces its time axis in column blocks of about
# _BLOCK_VALUES floats (256 KB; blocks of 4096 took 1.2 ms more of a 6 ms
# d = 2, M = 64 scan), and SiteOrbits ranks its orbit map in blocks of about
# _MAP_BLOCK_SITES sites, each with about six int64 temporaries
_BLOCK_VALUES = 1 << 15
_MAP_BLOCK_SITES = 1 << 12


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

    def index_of(self, j) -> tuple:
        return tuple(int(jk) + self.M for jk in np.atleast_1d(j))


def nonincreasing_tuples(n: int, top: int) -> np.ndarray:
    """Every n-tuple top >= t_1 >= ... >= t_n >= 0 (n >= 1), one per column
    of an (n, comb(top + n, n)) array, in C order: the tuples with t_1 <= v
    are the first comb(v + n, n) columns.  Built entry by entry, each column
    of the first k entries repeated once for every value the next entry
    takes under it."""
    columns = []  # the tuples' first k entries, then one more per pass
    for _ in range(n):
        counts = (columns[-1] if columns else np.full(1, top)) + 1
        prefix = np.repeat(np.arange(counts.size), counts)
        start = np.cumsum(counts) - counts
        columns = [c[prefix] for c in columns] + [np.arange(prefix.size) - start[prefix]]
    return np.array(columns)


@dataclass(frozen=True)
class SiteOrbits:
    """The window's sites grouped into the orbits of one of two symmetry
    groups: with ``symmetric``, the window's full group, generated by the
    reflections j_k -> -j_k and the swaps j_k <-> j_l of two axes; without
    it, the trivial group, each site its own orbit.

    An orbit's canonical key is |j| sorted in decreasing order (the site
    itself for the trivial group).  Its representative is the site whose
    coordinates are the key, and orbits are numbered in the C order of their
    representatives.  Every orbit-invariant field is known from its values
    at the representatives, and a sum over the window is the sum over the
    representatives weighted by the orbit sizes.  The full group has
    comb(M + d, d) orbits: 2145 for the 16641 sites at d = 2, M = 64, and
    6545 for the 274625 at d = 3, M = 32, where 21 stored nodes take 2.2 MB
    as orbit values and 92 MB unfolded.

    Everything but the orbit map is built from the keys alone, at the size
    of the quotient.  ``keys`` enumerates them in C order: for the full group
    every M >= k_1 >= ... >= k_d >= 0 (nonincreasing_tuples), for the trivial
    one every window site.  A full-group orbit holds 2^(nonzero coordinates)
    times d! / prod(run length!) sites, the runs being those of equal
    coordinates in its key.  ``radial_bins`` and ``boundary_shell`` read
    |j|^2 and max_k |j_k| off the keys, and ``orbit_of`` ranks any site by
    its key's flat index among the representatives' (np.searchsorted).
    ``site_orbit``, the window-sized orbit map, exists only once something
    unfolds orbit values to the window (``unfold``: the trajectory files and
    the log-convexity sweep); it is then ranked in blocks of rows of about
    _MAP_BLOCK_SITES sites.
    """

    window: LatticeWindow
    symmetric: bool = False

    @cached_property
    def keys(self) -> np.ndarray:
        """The representatives' coordinates, (d, count), in C order."""
        w = self.window
        if self.symmetric:
            return nonincreasing_tuples(w.d, w.M)
        return np.indices(w.shape).reshape(w.d, -1) - w.M

    @cached_property
    def representatives(self) -> np.ndarray:
        """The flat window index of each orbit's representative, increasing."""
        return np.ravel_multi_index(tuple(self.keys + self.window.M), self.window.shape)

    def orbit_of(self, sites) -> np.ndarray:
        """The orbit number of each in-window site, given as d integer
        coordinate arrays that broadcast together (or one (d, ...) array)."""
        key = list(sites)
        if self.symmetric:  # |j| in decreasing order, by a network of max/min
            key = [np.abs(j) for j in key]
            for end in range(len(key) - 1, 0, -1):
                for a in range(end):
                    key[a], key[a + 1] = (np.maximum(key[a], key[a + 1]),
                                          np.minimum(key[a], key[a + 1]))
        M = self.window.M
        flat = key[0] + M
        for j in key[1:]:
            flat = flat * (2 * M + 1) + (j + M)
        return np.searchsorted(self.representatives, flat)

    @cached_property
    def site_orbit(self) -> np.ndarray:
        """Each window site's orbit number, in the window's shape."""
        w = self.window
        out = np.empty(w.shape, dtype=np.intp)
        rows = max(1, _MAP_BLOCK_SITES * w.shape[0] // w.site_count)  # of the first axis, per block
        rest = [w.coordinate(k) for k in range(1, w.d)]
        for lo in range(0, w.shape[0], rows):
            first = w.axes[lo:lo + rows].reshape((-1,) + (1,) * (w.d - 1))
            out[lo:lo + rows] = self.orbit_of([first] + rest)
        return out

    @property
    def count(self) -> int:
        return self.representatives.size

    @cached_property
    def sizes(self) -> np.ndarray:
        """The number of window sites in each orbit, as floats."""
        if not self.symmetric:
            return np.ones(self.count)
        keys = self.keys
        run = np.ones(self.count, dtype=np.int64)
        runs = np.ones(self.count, dtype=np.int64)  # prod(run length!) over equal runs
        for a, b in zip(keys, keys[1:]):
            run = np.where(b == a, run + 1, 1)
            runs *= run
        signs = np.left_shift(1, np.count_nonzero(keys, axis=0))
        return (signs * math.factorial(self.window.d) // runs).astype(float)

    @cached_property
    def boundary_shell(self) -> np.ndarray:
        """Whether each orbit lies in the outer shell max_k |j_k| > M-2."""
        return np.max(np.abs(self.keys), axis=0) > self.window.M - 2

    @cached_property
    def radial_bins(self) -> tuple:
        """The orbits grouped by integer |j|^2: (orbit order sorted by |j|^2,
        the distinct |j|^2 values, the start of each group in that order, the
        group sizes)."""
        r_sq = np.sum(self.keys.astype(float) ** 2, axis=0)
        order = np.argsort(r_sq, kind="stable")
        values, starts, counts = np.unique(r_sq[order], return_index=True, return_counts=True)
        return order, values, starts, counts

    def gather(self, values: np.ndarray) -> np.ndarray:
        """The values at the representatives, one per orbit along the last
        axis, from values over the trailing d window axes; any axes before
        those are kept.  For the trivial group this is a view."""
        d = self.window.d
        flat = values.reshape(values.shape[:values.ndim - d] + (-1,))
        return np.take(flat, self.representatives, axis=-1) if self.symmetric else flat

    def unfold(self, orbit_values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The window's values of orbit-invariant values given one per orbit
        along the last axis: that axis becomes the d window axes (written to
        out when given)."""
        # every orbit number is in range, and np.take buffers out unless the
        # mode lets it skip the range check
        return np.take(orbit_values, self.site_orbit, axis=-1, out=out, mode="clip")

    def log_mass(self, orbit_values: np.ndarray) -> np.ndarray:
        """log of each orbit's ell^2 mass, log|u_rep|^2 + log(orbit size),
        from values given one per orbit along the last axis."""
        out = log_abs_sq(orbit_values)
        out += np.log(self.sizes)
        return out


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
        if self.values.shape != self.window.shape:
            raise ValueError(f"potential shape {self.values.shape} != window shape {self.window.shape}")

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


def shifted(values: np.ndarray, axis: int, step: int, edge: float = 0.0) -> np.ndarray:
    """out[..., j, ...] = values[..., j+step, ...] along axis (step +-1), with
    edge where j+step leaves the window: one contiguous copy, whose edge slab
    alone is then set."""
    def at(index) -> tuple:
        key = [slice(None)] * values.ndim
        key[axis] = index
        return tuple(key)

    out = np.empty_like(values)
    if step == 1:
        out[at(slice(None, -1))] = values[at(slice(1, None))]
        out[at(-1)] = edge
    elif step == -1:
        out[at(slice(1, None))] = values[at(slice(None, -1))]
        out[at(0)] = edge
    else:
        raise ValueError("step must be +-1")
    return out


def laplacian_values(values: np.ndarray, d: int) -> np.ndarray:
    """(Delta_d u)_j = sum_k (u_{j+e_k} + u_{j-e_k} - 2 u_j), zero padding.

    Each neighbour comes in as a whole shifted copy with a -0.0 edge: x +
    (-0.0) is x bit for bit, the sign of a zero included, so every sum is
    the one that adds only the in-window neighbours, in the same order."""
    out = (-2.0 * d) * values
    for k in range(values.ndim - d, values.ndim):
        out += shifted(values, k, +1, edge=-0.0)
        out += shifted(values, k, -1, edge=-0.0)
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


def radial_log_sums(orbits: SiteOrbits, log_mass: np.ndarray) -> tuple:
    """One max-shifted log-sum of log_mass, one entry per orbit, per integer
    |j|^2 bin.

    Returns (r_sq, bin_logs): the distinct |j|^2 values in increasing order and
    log of the summed e^{log_mass} over the orbits of each; -inf for a bin with
    no mass.
    """
    order, r_sq, starts, counts = orbits.radial_bins
    x = log_mass[order]
    top = np.maximum.reduceat(x, starts)
    shift = np.where(np.isfinite(top), top, 0.0)
    sums = np.add.reduceat(np.exp(x - np.repeat(shift, counts)), starts)
    with np.errstate(divide="ignore"):
        return r_sq, shift + np.log(sums)


def check_rings(R_list, M: int) -> None:
    """Raise RingOutsideWindowError unless every ring R-2 <= |j| <= R+1 of
    R_list lies inside the window of half-width M, that is R+1 < M."""
    for R in R_list:
        if R + 1 >= M:
            raise RingOutsideWindowError(f"ring R={R} needs R+1 < M={M}")


def ring_masses(u, R_list) -> list:
    """log lambda(R) for every R in R_list, -inf for an empty ring: the ell^2
    mass on the ring R-2 <= |j| <= R+1 (Euclidean), time-integrated for
    space-time input.

    u: LatticeField (stationary variant), or a Trajectory, whose values are
    e^{scale_log} times its orbit_values, one per orbit of its SiteOrbits,
    integrated in time with its own time_weights().  Each orbit's
    log-mass is integrated in time by one max-shifted logsumexp over the
    snapshots, in blocks of orbits that hold about _BLOCK_VALUES entries
    (each orbit's sum is the same in any block); the orbits are then summed
    per |j|^2 bin, each ring is a contiguous range of bins, and scale_log is
    added to each ring's log.
    """
    window = u.window
    check_rings(R_list, window.M)
    if isinstance(u, LatticeField):
        orbits, scale_log = SiteOrbits(window), 0.0
        log_mass = orbits.log_mass(orbits.gather(u.values))
    else:
        orbits, scale_log, values = u.orbits, u.scale_log, u.orbit_values
        with np.errstate(divide="ignore"):
            log_tw = np.log(u.time_weights())[:, None]
        log_sizes = np.log(orbits.sizes)
        log_mass = np.empty(orbits.count)
        # near-equal column blocks of at least two columns: numpy adds the rows
        # of such a block one after another, as in one block, but sums the rows
        # of a single column pairwise
        n_blocks = max(1, min(orbits.count // 2, -(-values.size // _BLOCK_VALUES)))
        bounds = np.linspace(0, orbits.count, n_blocks + 1).astype(int)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            block = log_abs_sq(values[:, lo:hi])
            block += log_sizes[lo:hi]
            block += log_tw
            log_mass[lo:hi] = logsumexp(block, axis=0)
    r_sq, bin_logs = radial_log_sums(orbits, log_mass)
    out = []
    for R in R_list:
        lo = np.searchsorted(r_sq, (R - 2) ** 2, side="left")
        hi = np.searchsorted(r_sq, (R + 1) ** 2, side="right")
        total = float(logsumexp(bin_logs[lo:hi])) if hi > lo else NEG_INF
        out.append(0.5 * total + scale_log)
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


def boundary_mass_fraction(orbit_values: np.ndarray, orbits: SiteOrbits) -> np.ndarray:
    """Mass fraction of an orbit-invariant field in the outer shell
    max_k |j_k| > M-2, 0 for a zero field.  The field is given one value per
    orbit along the last axis, each weighted by its orbit size (the shell is a
    union of orbits); any axes before it are batch axes, each entry the
    fraction of its own field.

    Reported with every experiment; runs above 1e-12 * ||u||^2 are flagged so
    window-truncation error is visible instead of silent.
    """
    shell = orbits.boundary_shell
    total = mass_sq(orbit_values, 1, orbits.sizes)
    shell_mass = mass_sq(orbit_values[..., shell], 1, orbits.sizes[shell])
    return np.divide(shell_mass, total, out=np.zeros_like(shell_mass), where=total > 0)


def star_log_weight(r, rate):
    """rate * r log(r + 1): the log of the e^{-mu |j| log(|j|+1)} decay profile
    at rate = -mu, and of its inverse weight at rate = 2 mu'."""
    return rate * r * np.log(r + 1.0)

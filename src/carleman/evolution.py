"""Unitary time integration of i d_t u + Delta_d u + V u = 0 on a window.

Trapezoidal (Crank-Nicolson) stepping: exactly unitary for Hermitian
H = Delta_d + V, which the log-convexity experiments rely on.  One step
solves A u' = B u with A = I - i dt/2 H and B = I + i dt/2 H = 2I - A, so
the right-hand side is B u = 2u - A u and B is never built.  A is sparse
with a symmetric pattern (2d+1 nonzeros per row), so it is factored once
with a minimum-degree ordering of A^T + A, which keeps the LU fill about
half of scipy's default column ordering at d = 2.  Each step is one reuse
of that factor checked by a verified residual contract (relative residual
at most 1e-12, with up to three refinement solves before
SolverDivergenceError); the product A u' the check computes is the next
step's A u, so a step costs one solve and one sparse matvec.

Blocks of steps.  A and B are both polynomials in H, so they commute, and k
CN steps are exactly u -> (A^k)^{-1} B^k u.  ``evolve`` advances a block of
up to 16 steps per solve at d = 1, where one step on a few hundred sites
costs call overhead rather than arithmetic: at M = 128 one solve with the
banded factor of A^16 (bandwidth 16) costs about two solves with that of A
(34 and 14 us on a vector of normal values) and advances 16 steps.  A block is one
matvec for B^k u, one solve and the same residual contract on the block
system.  Blocks never cross a stored node, and ``evolve`` factors each
block length it needs once, before the first step.  At d >= 2 the block is one
step, the carried-A u step above, because the LU fill of A^k grows faster
than k there (d = 2, M = 24: 67 k, 211 k and 571 k nonzeros at k = 1, 2, 4;
at M = 64, k = 2 ran 1.7x slower than k = 1).

What blocks cost is relative accuracy far out in the tail of the first
blocks from a compact datum.  There a block's values come out of an order-k
recurrence in the triangular solves, which the rounding of A^k's entries
perturbs; refinement does not mend it.  Against the CN recurrence in 40-digit
arithmetic (d = 1, M = 48, dt = 1e-3, delta datum, blocks of 10 steps), max
|d log|u|| is 1.6e-8 at |u| = 1.4e-146 after the first block (one step per
solve: 3.5e-13); it is 1.4e-13 by the tenth block and below 1.5e-14 at every
site of the final snapshot.  With blocks of 16 at dt = 1e-2 and an
alternating potential, a dense-solve oracle sees 7.1e-12 (M = 34) and
5.3e-10 (M = 50), but that oracle is accurate only relative to the norm, so
it cannot see the deep tail.  CN single steps in 60-digit mpmath (delta
datum, sites with |u| > 1e-300) find the first 16-step block losing up to
5.1e-4 at M = 128, dt = 1e-4, free, and 2.7e-3 at M = 80, dt = 1e-2,
alternating V (4.5e-7 and 1.7e-6 after the second block; single steps stay
within 5.7e-14).  Choosing the block lengths so the deep tail keeps its
digits is open (ROADMAP.md, P0); reports at the CLI defaults are not affected.

The symmetry quotient.  The data the lower bound is tested on (delta,
Gaussian, e^{-mu |j| log(|j|+1)}) and the zero and alternating potentials are
invariant under every reflection j_k -> -j_k and every swap j_k <-> j_l of
two axes, and CN keeps every symmetry that the datum and the potential share.
So at d >= 2 ``evolve`` takes the group generated by the reflections of the
axes on which both are exactly even and the swaps of the pairs of those axes
on which both are exactly symmetric, and steps on its quotient
(lattice.SiteOrbits): one unknown per orbit, held at its representative,
whose coordinates are |j_k|, sorted in decreasing order within each class of
swapped axes.  The quotient matrix is A_q = R A S, where R picks the
representatives' rows and S sums each orbit's columns; its Laplacian part is
assembled from each representative's in-window neighbours (quotient_laplacian),
never from the window's matrix.  A site's neighbour is never in the site's own
orbit (sum_k |j_k| is constant on an orbit and changes by 1 between
neighbours), so every entry of A_q is a diagonal entry of A or an integer
multiple of an off-diagonal one, exact in floating point: A_q is the full
system restricted to orbit-invariant fields, factored the same way.  The
residual contract weights each unknown by its orbit size, so it bounds the
full-window residual.  With reflections only, the unknowns are the sites
j_k >= 0 of the folded axes in C order and A_q is entry for entry the folded
1-d second differences' kron sum, so the steps are bit for bit those of a
reflection-only fold.  An axis on which the datum or the potential is not
even is neither folded nor swapped; with no symmetry at all the steps are the
unfolded ones above, bit for bit.

A Trajectory keeps the quotient's values, one per orbit (3.5 MB for 101
nodes at d = 2, M = 64, against 27 MB unfolded), and the scans read them as
they are.  Trajectory.values is the one place they are unfolded through the
orbit map: a read-only view that unfolds only the snapshots it is indexed
with, so reading the last of those 101 allocates one 0.27 MB snapshot.  Two
callers index it, where a full-window array leaves the program: the
trajectory files and the log-convexity sweep, whose e^{2 beta.j} weights no
symmetry keeps, each one snapshot at a time.

What the quotient saves (alternating V, dt = 1e-2, bessel_like datum; medians
on 2 vCPUs):

    window          group               unknowns   nnz(L+U)   factor    one step
    d = 2, M = 64   reflections             4225      132 k    19 ms     1.00 ms
    d = 2, M = 64   reflections, swap       2145       53 k     7 ms     0.52 ms
    d = 3, M = 16   reflections             4913      777 k   134 ms     3.0 ms
    d = 3, M = 16   reflections, swaps       969       44 k     8 ms     0.41 ms
    d = 3, M = 24   reflections            15625     4.77 M   1.24 s    19.9 ms
    d = 3, M = 24   reflections, swaps      2925      234 k    34 ms     1.33 ms

A step is one solve and one matvec; at d = 2, M = 64 the solve takes 0.35 ms
instead of 0.82 ms and the matvec 0.046 ms instead of 0.085 ms.

The quotient keeps the sitewise accuracy that FFT or DST solvers lose: those
mix every site into every coefficient, so their rounding error is about 1e-16
times the norm at every site and swamps a tail below that, while the sparse
LU solves the same nearest-neighbour recurrence on fewer unknowns.  Against
the reflection-only and the unfolded steppers (alternating V, dt = 1e-2,
T = 1) the trajectories keep the same zero pattern, and max |d log|u|| is
1.1e-13 down to |u| = 1.8e-241 from a delta at d = 2, M = 64, and at most
8.9e-13 at d = 3, M = 6.  From the bessel_like datum at d = 2, M = 24 the
swap quotient differs from the reflection-only stepper by 4.2e-8 and from the
unfolded one by 8.2e-8, at |u| near 3e-49 in the corner of the window.  There
float CN itself loses digits: against the CN recurrence in 40-digit
arithmetic, the reflection-only stepper is off by 1.8e-8 and the unfolded one
by 6.3e-8 at t = 1 (ROADMAP.md, Direction 1, "If measurement rejects this
direction").

At d = 1 ``evolve`` steps on the trivial group.  The minimum-degree ordering of
the folded A^k is not the natural one, and it costs relative accuracy deep in
the tail of a first block: against a dense-solve oracle (M = 34, dt = 1e-3,
alternating V, delta datum) max |d log|u|| after one block rises from 2.6e-10
to 2.4e-9 with 10 steps and from 7.4e-9 to 1.3e-7 with 16, while the fold
saves only about 10 % of the d = 1 evolve time (M = 128, 10^4 steps: 73
against 80 ms).

Lattice sums avoid BLAS.  Every squared norm of a lattice-sized vector here
(the stored norm_logs, the residual contract's norms, the boundary mass, the
datum's normalization) is lattice.mass_sq, which sums in numpy's own einsum
loops.  A BLAS dot product (np.vdot, np.linalg.norm) on a vector above
OpenBLAS's threading cutoff wakes numpy's second BLAS thread, which then
busy-waits between calls for the rest of the stepping loop: at d = 2, M = 64
(alternating V, dt = 1e-2, T = 1, then the ring and log-convexity scans)
that cost 1.9-2.0 s of CPU per second of wall time and saved no wall time;
through mass_sq it is 1.0-1.15.  The SuperLU factor and solves call scipy's
own BLAS, whose pool stays asleep at d = 2 and at d = 3, M = 16 (969
unknowns); at d = 3, M = 24 (2925 unknowns) an evolve wakes it (ROADMAP.md).

scipy is imported only when a stepper or a quotient Laplacian is built, so
the subcommands that never evolve do not pay its import.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverDivergenceError, ZeroObservationError
from .lattice import (LatticeField, LatticeWindow, Potential, SiteOrbits, boundary_mass_fraction,
                      mass_sq, star_log_weight)

_RESIDUAL_TOL = 1e-12
_MAX_BLOCK_STEPS_D1 = 16  # CN steps per solve at d = 1; one step at d >= 2


def quotient_laplacian(orbits: SiteOrbits) -> "scipy.sparse.csc_matrix":
    """R Delta_d S with zero padding (Delta_d itself for the trivial group):
    row o has -2d on the diagonal and, at the orbit of each in-window
    neighbour j +- e_k of o's representative j, the count of such neighbours;
    no neighbour is in the site's own orbit (see the module docstring)."""
    import scipy.sparse as sp

    window, n = orbits.window, orbits.count
    reps = np.unravel_index(orbits.representatives, window.shape)
    rows, cols = [np.arange(n)], [np.arange(n)]
    for k in range(window.d):
        for shift in (-1, 1):
            moved = reps[k] + shift
            inside = (moved >= 0) & (moved <= 2 * window.M)
            rows.append(np.flatnonzero(inside))
            cols.append(orbits.site_orbit[tuple(moved[inside] if axis == k else c[inside]
                                                for axis, c in enumerate(reps))])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    # the COO -> CSC conversion sums the duplicates and sorts each column
    return sp.csc_matrix((np.where(rows == cols, -2.0 * window.d, 1.0), (rows, cols)),
                         shape=(n, n))


def _symmetry(u0: LatticeField, potential: Potential) -> SiteOrbits:
    """The orbits of the group generated by the reflections j_k -> -j_k and
    the swaps j_k <-> j_l of reflected axes that keep both the datum and the
    potential exactly; evolution keeps that symmetry."""
    d = u0.window.d

    def keeps(move) -> bool:
        return all(np.array_equal(v, move(v)) for v in (u0.values, potential.values))

    folded = tuple(k for k in range(d) if keeps(lambda v: np.flip(v, k)))
    swapped = tuple((k, l) for k, l in itertools.combinations(folded, 2)
                    if keeps(lambda v: np.swapaxes(v, k, l)))
    return SiteOrbits(u0.window, folded, swapped)


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    T: float
    window: LatticeWindow
    potential: Potential
    store_every: int = 1

    def __post_init__(self):
        if not (0 < self.dt <= 0.01):
            raise ValueError("dt must satisfy 0 < dt <= 0.01")
        if not self.T > 0:
            raise ValueError("T must be > 0")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("T/dt must be integral")
        if self.store_every < 1:
            raise ValueError("store_every >= 1")

    @property
    def n_steps(self) -> int:
        return round(self.T / self.dt)

    def potential_hash(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.potential.values).tobytes()).hexdigest()


@dataclass
class Trajectory:
    """Stored snapshots of one evolution, one value per orbit of the symmetry
    group they are invariant under, plus per-node conserved-norm logs."""

    orbits: SiteOrbits
    times: np.ndarray
    orbit_values: np.ndarray  # (n_stored, orbits.count): the values at the representatives
    norm_logs: np.ndarray
    config: EvolutionConfig
    scale_log: float = 0.0  # log of any normalization applied afterwards
    # CN solver: {"refinement_solves": total, "max_relative_residual": max over
    # solves, "block_steps": most CN steps advanced by one solve, the symmetry:
    # "folded_axes", "swapped_axes", "quotient_sites"}
    solver_stats: dict = field(default_factory=dict)

    @property
    def window(self) -> LatticeWindow:
        return self.orbits.window

    @property
    def values(self) -> "Snapshots":
        """The snapshots unfolded to the full window, as a read-only view
        that unfolds only what it is indexed with (see Snapshots)."""
        return Snapshots(self.orbits, self.orbit_values)

    @property
    def n_stored(self) -> int:
        return len(self.times)

    def time_weights(self) -> np.ndarray:
        """Composite Simpson weights on the stored uniform grid."""
        return _simpson_weights(len(self.times), float(self.times[1] - self.times[0]))

    def boundary_mass(self) -> float:
        """The largest boundary_mass_fraction over the stored snapshots."""
        return float(np.max(boundary_mass_fraction(self.orbit_values, self.orbits)))

    def norm_drift(self) -> float:
        return float(np.max(np.abs(np.exp(self.norm_logs - self.norm_logs[0]) - 1.0)))

    def scaled(self, factor: float) -> "Trajectory":
        return Trajectory(self.orbits, self.times, factor * self.orbit_values,
                          self.norm_logs + math.log(abs(factor)), self.config,
                          self.scale_log + math.log(abs(factor)), self.solver_stats)


class Snapshots:
    """Stacked orbit values read as the window's snapshots, (n_stored,
    *window.shape), unfolded on demand.  ``view[key]`` means
    ``np.asarray(view)[key]`` but unfolds only the snapshots that the first
    index of key selects; each read is a new array."""

    def __init__(self, orbits: SiteOrbits, orbit_values: np.ndarray):
        self._orbits, self._orbit_values = orbits, orbit_values

    def __len__(self) -> int:
        return len(self._orbit_values)

    @property
    def shape(self) -> tuple:
        return (len(self),) + self._orbits.window.shape

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, key) -> np.ndarray:
        key = key if isinstance(key, tuple) else (key,)
        if not key or key[0] is Ellipsis or key[0] is None:
            return np.asarray(self)[key]  # the first index is not on the snapshot axis
        first, rest = key[0], key[1:]
        if not rest:
            return self._orbits.unfold(self._orbit_values[first])
        if isinstance(first, slice):
            return self._orbits.unfold(self._orbit_values[first])[(slice(None),) + rest]
        # an integer or an index array: unfold the snapshots it picks, then index
        # them with one of the same shape, so rest means what it means in numpy
        picked = np.arange(len(self))[first]
        local = np.arange(picked.size).reshape(picked.shape)
        return self._orbits.unfold(self._orbit_values[picked.ravel()])[(local,) + rest]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("unfolding the snapshots makes a new array: copy=False is impossible")
        out = self._orbits.unfold(self._orbit_values)
        return out if dtype is None else out.astype(dtype, copy=False)


def _simpson_weights(n_nodes: int, h: float) -> np.ndarray:
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    w = np.zeros(n_nodes)
    n_int = n_nodes - 1
    even_end = n_int if n_int % 2 == 0 else n_int - 1
    for i in range(0, even_end, 2):  # Simpson over pairs of intervals
        w[i] += h / 3.0
        w[i + 1] += 4.0 * h / 3.0
        w[i + 2] += h / 3.0
    if n_int % 2 == 1:  # trailing trapezoid when the count is odd
        w[-2] += h / 2.0
        w[-1] += h / 2.0
    return w


class Stepper:
    """CN steps u -> A^{-1} (2u - A u), A = I - i dt/2 H, on one window.

    ``step`` carries A u from one step to the next when the caller passes
    it.  The CN step at -dt swaps A and B, so it inverts a step.
    ``refinement_solves`` and ``max_relative_residual`` accumulate over
    every step taken.

    With ``steps`` = k > 1 a stepper advances k CN steps at once: ``A`` is
    A^k, factored the same way, and ``step`` solves A^k u' = B^k u.

    With ``orbits`` (a SiteOrbits whose group keeps the potential) the
    stepper acts on the symmetry quotient: vectors hold one value per orbit,
    at its representative, and residual norms weight each orbit by its size,
    so they are the norms of the full-window system.
    """

    def __init__(self, window: LatticeWindow, potential: Potential, dt: float,
                 steps: int = 1, orbits: SiteOrbits | None = None):
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        orbits = orbits or SiteOrbits(window)
        # R A S = I - i dt/2 (R Delta S + V at the representatives): the
        # identity and V are diagonal and constant on each orbit
        V = potential.values.ravel()[orbits.representatives]
        H = quotient_laplacian(orbits) + sp.diags(V.astype(complex))
        eye = sp.identity(H.shape[0], format="csc", dtype=complex)
        A = (eye - 0.5j * dt * H).tocsc()
        self.A, self._B = A, None
        if steps > 1:
            B = (2.0 * eye - A).tocsc()
            self.A, self._B = _power(A, steps), _power(B, steps)
        self._lu = splu(self.A, permc_spec="MMD_AT_PLUS_A")
        self.steps = steps
        # per float of a vector's float view: its orbit's size, twice
        self._weights = None if orbits.trivial else np.repeat(orbits.sizes, 2)
        self.refinement_solves = 0
        self.max_relative_residual = 0.0

    def _norm(self, v: np.ndarray) -> float:
        return math.sqrt(mass_sq(v.view(float), 1, self._weights))

    def step(self, u: np.ndarray, Au: np.ndarray | None = None) -> tuple:
        """``steps`` CN steps from u, given A u when the caller carries it
        (one step only); returns (u', A u')."""
        if self._B is not None:
            rhs = self._B @ u
        else:
            rhs = 2.0 * u - (self.A @ u if Au is None else Au)
        scale = self._norm(rhs)
        u = self._lu.solve(rhs)
        Au = self.A @ u
        if scale == 0.0:
            return u, Au
        res = rhs - Au
        rel = self._norm(res) / scale
        refinements = 0
        while rel > _RESIDUAL_TOL:
            if refinements == 3:
                raise SolverDivergenceError("CN solve residual stalled above 1e-12")
            u = u + self._lu.solve(res)
            Au = self.A @ u
            res = rhs - Au
            rel = self._norm(res) / scale
            refinements += 1
        self.refinement_solves += refinements
        self.max_relative_residual = max(self.max_relative_residual, rel)
        return u, Au


def _power(matrix, k: int):
    """matrix^k by repeated sparse products."""
    out = matrix
    for _ in range(k - 1):
        out = out @ matrix
    return out.tocsc()


def evolve(u0: LatticeField, cfg: EvolutionConfig) -> Trajectory:
    """Integrate to T, storing every store_every-th node (endpoints always).

    The steps run on the quotient of the symmetry group that keeps both the
    datum and the potential (see the module docstring), and each stored node
    keeps the quotient's values: one per orbit of that group."""
    window = cfg.window
    if u0.window != window:
        raise ValueError("datum window != config window")
    n_steps = cfg.n_steps
    nodes = np.arange(0, n_steps + 1, cfg.store_every)
    if nodes[-1] != n_steps:
        nodes = np.append(nodes, n_steps)
    norm_logs = np.empty(len(nodes))
    max_block = _MAX_BLOCK_STEPS_D1 if window.d == 1 else 1
    gaps = [int(g) for g in np.diff(nodes)]
    # every block length: whole blocks between stored nodes, then the remainder
    lengths = {min(g, max_block) for g in gaps} | {g % max_block for g in gaps if g % max_block}
    # d = 1 stays on the trivial group: see the module docstring
    orbits = _symmetry(u0, cfg.potential) if window.d > 1 else SiteOrbits(window)
    steppers = {steps: Stepper(window, cfg.potential, cfg.dt, steps, orbits)
                for steps in lengths}
    u = orbits.gather(u0.values).astype(complex)
    orbit_values = np.empty((len(nodes), orbits.count), dtype=complex)
    weights = None if orbits.trivial else orbits.sizes  # the window's mass from u's
    stepper = steppers.get(1)
    Au = None if stepper is None else stepper.A @ u  # carried by one-step blocks
    for k, gap in enumerate([0] + gaps):
        while gap:
            steps = min(gap, max_block)
            previous, stepper = stepper, steppers[steps]
            u, Au = stepper.step(u, Au if stepper is previous else None)
            gap -= steps
        orbit_values[k] = u
        norm_logs[k] = 0.5 * math.log(mass_sq(u, 1, weights))
    solver_stats = {"refinement_solves": sum(s.refinement_solves for s in steppers.values()),
                    "max_relative_residual": max((s.max_relative_residual
                                                  for s in steppers.values()), default=0.0),
                    "block_steps": max(steppers, default=0),
                    "folded_axes": list(orbits.folded),
                    "swapped_axes": [list(pair) for pair in orbits.swapped],
                    "quotient_sites": orbits.count}
    return Trajectory(orbits, nodes * cfg.dt, orbit_values, norm_logs, cfg,
                      solver_stats=solver_stats)


def make_decaying_datum(window: LatticeWindow, profile: tuple) -> LatticeField:
    """Initial data at the uniqueness-threshold decay scales, ell^2-normalized.

    profile: ("delta",) | ("gaussian", a) | ("bessel_like", mu) with
    bessel_like giving u_j proportional to e^{-mu |j| log(|j|+1)}.
    """
    kind = profile[0]
    if kind == "delta":
        return LatticeField.delta(window)
    r = np.sqrt(window.radius_sq)
    if kind == "gaussian":
        a = float(profile[1])
        if a <= 0:
            raise ValueError("gaussian profile needs a > 0")
        log_vals = -a * window.radius_sq
    elif kind == "bessel_like":
        mu = float(profile[1])
        if mu <= 0:
            raise ValueError("bessel_like profile needs mu > 0")
        log_vals = star_log_weight(r, -mu)
    else:
        raise ValueError(f"unknown datum profile {kind!r}")
    vals = np.exp(np.maximum(log_vals, -745.0))
    vals[log_vals < -745.0] = 0.0
    vals = vals / math.sqrt(mass_sq(vals, window.d))
    return LatticeField.from_values(window, vals)


def observation_integral(traj: Trajectory) -> float:
    """The normalization functional int_{3/8}^{5/8} |u_{j=0}(t)|^2 dt, with
    the paper's "u(0,t)" read as the lattice site j = 0."""
    t = traj.times
    sel = (t >= 0.375 - 1e-12) & (t <= 0.625 + 1e-12)
    if np.count_nonzero(sel) < 3:
        raise ZeroObservationError("too few stored nodes inside [3/8, 5/8]")
    sub_t = t[sel]
    origin = traj.orbits.site_orbit[traj.window.index_of([0] * traj.window.d)]  # its own orbit
    series = np.abs(traj.orbit_values[sel, origin]) ** 2
    w = _simpson_weights(len(sub_t), float(sub_t[1] - sub_t[0]))
    return float(np.dot(w, series))


def normalize_observation(traj: Trajectory) -> Trajectory:
    """Rescale so the observation integral equals exactly 1."""
    integral = observation_integral(traj)
    if not (integral > 1e-300):
        raise ZeroObservationError("observation integral below 1e-300")
    return traj.scaled(1.0 / math.sqrt(integral))

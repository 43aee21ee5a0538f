"""Unitary time integration of i d_t u + Delta_d u + V u = 0 on a window.

Trapezoidal (Crank-Nicolson) stepping: exactly unitary for Hermitian
H = Delta_d + V, which the log-convexity experiments rely on.  One step
solves A u' = B u with A = I - i dt/2 H and B = I + i dt/2 H = 2I - A, so
the right-hand side is B u = 2u - A u and B is never built.  A is sparse
with a symmetric pattern (2d+1 nonzeros per row).  At d >= 2 it is factored
once with a minimum-degree ordering of A^T + A, which keeps the LU fill about
half of scipy's default column ordering at d = 2; at d = 1 it is a band
matrix, factored in its natural order (below).  Each step is one reuse of
that factor checked by a verified residual contract (relative residual at
most 1e-12, with up to three refinement solves before
SolverDivergenceError); the product A u' the check computes is the next
step's A u, so a step costs one solve and one sparse matvec.

Blocks of steps.  A and B are both polynomials in H, so they commute, and k
CN steps are exactly u -> (A^k)^{-1} B^k u.  At d = 1, where one step on a
few hundred sites costs call overhead rather than arithmetic, ``evolve``
advances a block of up to 16 steps per solve: at M = 128 one solve with the
banded factor of A^16 (bandwidth 16) costs about two solves with that of A
(34 and 14 us on a vector of normal values) and advances 16 steps.  A block
is one matvec for B^k u, one solve and the same residual contract on the
block system.  Blocks never cross a stored node, and the block lengths ramp
up from one step: the i-th block of a run takes at most min(2^(i // 4), 16)
steps, so four blocks of one step come first, then four each of two, four
and eight steps (60 steps in all), then blocks of 16.  One Stepper per
evolve builds A^k and B^k for every block length of the run from a single
chain of squares (A^2, A^4, A^8, A^16), each square of A index-sorted as it
is built so that A^k does not depend on which lengths the run takes or in
what order, and factors each length once, before the first step.  At
d >= 2 the block is one step, the carried-A u step above, because the LU
fill of A^k grows faster than k there (d = 2, M = 24: 67 k, 211 k and 571 k
nonzeros at k = 1, 2, 4; at M = 64, k = 2 ran 1.7x slower than k = 1).

Why the ramp.  A block's values come out of an order-k recurrence in the
triangular solves, which the rounding of A^k's entries perturbs; refinement
does not mend it.  That costs relative accuracy far out in the tail while
the field is still close to a compact datum, whose tail falls off steeply
from site to site.  Against CN single steps in 60-digit mpmath (delta datum,
every site with |u| > 1e-300, stored every 16th step), max |d log|u|| over
the nodes up to step 160:

    case                        16 from step 1   ramp 1, 2, 4, 8   4 blocks each
    M = 128, dt = 1e-4, free        6.7e-5           2.8e-7           6.6e-11
    M = 80, dt = 1e-2, alt. V       8.2e-5           1.3e-7           1.8e-11
    M = 48, dt = 1e-3, alt. V       5.2e-8           6.8e-10          3.4e-13

Single steps stay within 1.1e-13.  The worst node is where the first block
of 16 ends, at step 32 after the ramp of one block each and at step 80 after
four blocks each, when the tail has spread.  The longer ramp costs 12 more
solves, about 0.5 ms of the 30-40 ms a 10^4-step run at M = 128 takes, which
timings on a shared 2-vCPU host do not resolve.

The symmetry quotient.  The data the lower bound is tested on (delta,
Gaussian, e^{-mu |j| log(|j|+1)}) and the zero and alternating potentials are
invariant under the window's full symmetry group, generated by the
reflections j_k -> -j_k and the swaps j_k <-> j_l of two axes, and CN keeps
every symmetry that the datum and the potential share.  So ``evolve`` checks
the d reflections and the d - 1 adjacent swaps, which generate the group, on
both.  If both keep all of them it steps on the group's quotient
(lattice.SiteOrbits): one unknown per orbit, held at its representative,
whose coordinates are |j| sorted in decreasing order.  Otherwise it steps on
the window itself, the trivial group's quotient, bit for bit the unfolded
steps above.  The quotient matrix is A_q = R A S, where R picks the
representatives' rows and S sums each orbit's columns; its Laplacian part is
assembled from each representative's in-window neighbours (quotient_laplacian),
never from the window's matrix.  A site's neighbour is never in the site's own
orbit (sum_k |j_k| is constant on an orbit and changes by 1 between
neighbours), so every entry of A_q is a diagonal entry of A or an integer
multiple of an off-diagonal one, exact in floating point: A_q is the full
system restricted to orbit-invariant fields, factored the same way.  The
residual contract weights each unknown by its orbit size, so it bounds the
full-window residual.

A Trajectory keeps the quotient's values, one per orbit (3.5 MB for 101
nodes at d = 2, M = 64, against 27 MB unfolded), once: ``orbit_values`` is
the array evolve stored, and a rescaled trajectory (normalize_observation)
shares it and carries the factor as a log offset, ``scale_log``, which the
ring scan adds to each log lambda and the observation integral folds in.
The scans read the orbit values as they are, the ring scan in column blocks
of about lattice._BLOCK_VALUES entries.  Trajectory.values is the one
place they are unfolded through the orbit map, which SiteOrbits builds only
then: a read-only view that unfolds only the snapshots it is indexed with
and scales each by e^{scale_log}, so reading the last of those 101
allocates one 0.27 MB snapshot.  Two callers read it, where a full-window
array leaves the program, each one snapshot at a time into one reused
buffer: the trajectory files and the log-convexity sweep, whose
e^{2 beta.j} weights no symmetry keeps.

What the quotient saves (alternating V, dt = 1e-2, bessel_like datum; the
stepper's build and one step, medians on 2 vCPUs):

    window          group     unknowns   nnz(L+U)   factor    one step
    d = 2, M = 64   trivial      16641      691 k    93 ms     3.6 ms
    d = 2, M = 64   full          2145       53 k     6 ms     0.22 ms
    d = 3, M = 12   trivial      15625     4.77 M   0.73 s     7.8 ms
    d = 3, M = 12   full           455       14 k     3 ms     0.06 ms
    d = 3, M = 24   full          2925      234 k    22 ms     0.57 ms

The quotient keeps the sitewise accuracy that FFT or DST solvers lose: those
mix every site into every coefficient, so their rounding error is about 1e-16
times the norm at every site and swamps a tail below that, while the sparse
LU solves the same nearest-neighbour recurrence on fewer unknowns.  Against
the unfolded steps (alternating V, dt = 1e-2, T = 1) the trajectories keep
the same zero pattern, and max |d log|u|| is 1.1e-13 down to
|u| = 1.8e-241 from a delta at d = 2, M = 64, and at most 8.9e-13 at
d = 3, M = 6.  From the bessel_like datum at d = 2, M = 24 the quotient
differs from the unfolded steps by 8.2e-8, at |u| near 3e-49 in the corner
of the window.  There float CN itself loses digits: against the CN
recurrence in 40-digit arithmetic, the unfolded steps are off by 6.3e-8 at
t = 1 (ROADMAP.md, Direction 1, "If measurement rejects this direction").

At d = 1 the full group is the reflection j -> -j, whose quotient is the
sites j >= 0, 129 unknowns of the 257 at M = 128, and A_q is tridiagonal (its
row 0 holds twice A's off-diagonal entry), so A_q^k is a band matrix of
bandwidth k.  Its natural order factors it without fill.  A minimum-degree
order of the folded band is not the natural one, and it costs relative
accuracy deep in the tail of the first blocks: with blocks of 16 from the
first step, against the mpmath single steps above, it lost 8.8e-2 at M = 80
and 3.1e-4 at M = 128, against 8.2e-5 and 6.7e-5 in the natural order; after
the ramp of one block each, 4.9e-7 and 8.2e-6 against 1.3e-7 and 2.8e-7.

The power-of-two carry.  ``evolve`` steps on 2^n u, with n chosen so that
the datum's orbit-weighted ell^2 norm lies in [2^499, 2^500), and stores
2^-n times the carried values at each node.  norm_logs come from the
carried values: their mass m 2^e (math.frexp) gives log m / 2 + (e/2 - n)
log 2, for a datum of any norm.  Both scalings are exact unless a value
leaves the normal range.
CN is unitary, so no sum of squares the residual contract forms passes
about 2^1001, while the tail keeps 500 more binary orders above the
subnormal range.  From a compact datum the unscaled tail does reach that
range, and each product of it with the small far off-diagonal entries of
A^k and B^k then costs many times a normal one: at d = 1, M = 128,
dt = 1e-4 (free), the median of the first 150 blocks of 16 steps took
110-158 us unscaled and 44-79 us carried, against 44-75 us for later blocks
(5 runs on 2 shared vCPUs), and the final snapshots were identical.  Wherever the unscaled steps meet no
subnormal value, the carried steps are bit for bit the same: at d = 2 the
stored values, norm logs and solver stats of M = 64 and M = 24 runs are
identical, and a datum 2^600 or 2^-600 times another evolves to exactly
2^600 or 2^-600 times its values.

Lattice sums avoid BLAS.  Every squared norm of a lattice-sized vector here
sums in numpy's own einsum loops: the stored norm_logs, the boundary mass and
the datum's normalization through lattice.mass_sq, and the residual
contract's norms through one np.einsum on the weights its stepper holds:
2.9 us a call on the 129 unknowns of d = 1, M = 128, against 8.7 us through
mass_sq, whose checks and reshapes cost more than the sum at that size.  A BLAS dot product (np.vdot, np.linalg.norm) on a vector above
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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SolverDivergenceError, ZeroObservationError
from .lattice import (LatticeField, LatticeWindow, Potential, SiteOrbits, boundary_mass_fraction,
                      mass_sq, star_log_weight)

_RESIDUAL_TOL = 1e-12
_MAX_BLOCK_STEPS_D1 = 16  # CN steps per solve at d = 1; one step at d >= 2
_RAMP_BLOCKS = 4  # the first blocks take 1, 2, 4 and 8 steps, four blocks each
_CARRY_LOG2_NORM = 500  # evolve carries the field with an ell^2 norm near 2^500


def quotient_laplacian(orbits: SiteOrbits) -> "scipy.sparse.csc_matrix":
    """R Delta_d S with zero padding (Delta_d itself for the trivial group):
    row o has -2d on the diagonal and, at the orbit of each in-window
    neighbour j +- e_k of o's representative j, the count of such neighbours;
    no neighbour is in the site's own orbit (see the module docstring)."""
    import scipy.sparse as sp

    window, n, keys = orbits.window, orbits.count, orbits.keys
    rows, cols = [np.arange(n)], [np.arange(n)]
    for k in range(window.d):
        for shift in (-1, 1):
            inside = np.flatnonzero(np.abs(keys[k] + shift) <= window.M)
            moved = keys[:, inside]
            moved[k] += shift
            rows.append(inside)
            cols.append(orbits.orbit_of(moved))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    # the COO -> CSC conversion sums the duplicates and sorts each column
    return sp.csc_matrix((np.where(rows == cols, -2.0 * window.d, 1.0), (rows, cols)),
                         shape=(n, n))


def _symmetry(u0: LatticeField, potential: Potential) -> SiteOrbits:
    """The orbits of the window's full group when the datum and the
    potential both keep its generators, the d reflections j_k -> -j_k and
    the d - 1 swaps j_k <-> j_(k+1), exactly; of the trivial group
    otherwise.  Evolution keeps that symmetry."""
    d = u0.window.d

    def keeps(v: np.ndarray) -> bool:
        return (all(np.array_equal(v, np.flip(v, k)) for k in range(d))
                and all(np.array_equal(v, np.swapaxes(v, k, k + 1)) for k in range(d - 1)))

    return SiteOrbits(u0.window, symmetric=keeps(u0.values) and keeps(potential.values))


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

    @property
    def stored_steps(self) -> np.ndarray:
        """The step of each stored node: every store_every-th, and the last."""
        return np.union1d(np.arange(0, self.n_steps, self.store_every), self.n_steps)

    @property
    def times(self) -> np.ndarray:
        """The stored nodes' times, known before any step."""
        return self.stored_steps * self.dt

    def potential_hash(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.potential.values).tobytes()).hexdigest()


@dataclass
class Trajectory:
    """Stored snapshots of one evolution, one value per orbit of the symmetry
    group they are invariant under, plus per-node conserved-norm logs.

    The trajectory's values are e^{scale_log} times orbit_values: evolve
    stores the values it computes with scale_log = 0, and ``scaled`` shares
    that array and moves scale_log (and norm_logs, the log norms of the
    values) by the log of its factor, so a normalized trajectory adds no
    second copy.  Readers fold the factor in where they use the values: the
    ring masses add scale_log to each log lambda, the observation integral
    multiplies by e^{2 scale_log}, ``values`` scales each snapshot it
    unfolds, and the boundary mass and the log-convexity ratios do not
    depend on it."""

    orbits: SiteOrbits
    times: np.ndarray
    orbit_values: np.ndarray  # (n_stored, orbits.count): at the representatives, before scale_log
    norm_logs: np.ndarray
    config: EvolutionConfig
    scale_log: float = 0.0  # the log of the factor the values carry beyond orbit_values
    # CN solver: {"refinement_solves": total, "max_relative_residual": max over
    # solves, "block_steps": most CN steps advanced by one solve, the group:
    # "symmetric" (the window's full group, or else the trivial one) and its
    # orbit count "quotient_sites"}
    solver_stats: dict = field(default_factory=dict)

    @property
    def window(self) -> LatticeWindow:
        return self.orbits.window

    @property
    def values(self) -> "Snapshots":
        """The snapshots unfolded to the full window, as a read-only view
        that unfolds only what it is indexed with (see Snapshots)."""
        return Snapshots(self.orbits, self.orbit_values, self.scale_log)

    @property
    def n_stored(self) -> int:
        return len(self.times)

    def time_weights(self) -> np.ndarray:
        """Composite Simpson weights on the stored nodes, h = times[1] -
        times[0] apart but for a shorter last interval (store_every not
        dividing the step count), which gets the trapezoid."""
        t = self.times
        h, tail = float(t[1] - t[0]), float(t[-1] - t[-2])
        if math.isclose(tail, h, rel_tol=1e-9):
            return _simpson_weights(len(t), h)
        w = np.append(_simpson_weights(len(t) - 1, h), 0.0)
        w[-2:] += 0.5 * tail
        return w

    def boundary_mass(self) -> float:
        """The largest boundary_mass_fraction over the stored snapshots."""
        return float(np.max(boundary_mass_fraction(self.orbit_values, self.orbits)))

    def norm_drift(self) -> float:
        return float(np.max(np.abs(np.expm1(self.norm_logs - self.norm_logs[0]))))

    def scaled(self, factor: float) -> "Trajectory":
        """The trajectory times factor > 0, sharing orbit_values (a log
        offset carries no sign)."""
        if not factor > 0:
            raise ValueError(f"a trajectory scales by a factor > 0 only, not {factor}")
        shift = math.log(factor)
        return Trajectory(self.orbits, self.times, self.orbit_values, self.norm_logs + shift,
                          self.config, self.scale_log + shift, self.solver_stats)


class Snapshots:
    """Stacked orbit values read as the window's snapshots, (n_stored,
    *window.shape), unfolded on demand and multiplied by e^{scale_log}.
    ``view[key]`` indexes the snapshot axis only, with an integer, a slice,
    an index array or a boolean mask, and unfolds only the snapshots it
    picks; each read is a new array, and ``read`` unfolds one snapshot into
    a buffer the caller reuses."""

    def __init__(self, orbits: SiteOrbits, orbit_values: np.ndarray, scale_log: float = 0.0):
        self._orbits, self._orbit_values = orbits, orbit_values
        self._scale = math.exp(scale_log)

    def __len__(self) -> int:
        return len(self._orbit_values)

    @property
    def shape(self) -> tuple:
        return (len(self),) + self._orbits.window.shape

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def _unfold(self, orbit_values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = self._orbits.unfold(orbit_values, out=out)
        if self._scale != 1.0:
            out *= self._scale
        return out

    def read(self, i: int, out: np.ndarray) -> np.ndarray:
        """Snapshot i, unfolded into out (complex, the window's shape)."""
        return self._unfold(self._orbit_values[i], out=out)

    def __getitem__(self, key) -> np.ndarray:
        if isinstance(key, tuple):  # it would index the orbit axis, not the window's
            raise TypeError("snapshots are indexed on the snapshot axis only")
        return self._unfold(self._orbit_values[key])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("unfolding the snapshots makes a new array: copy=False is impossible")
        out = self._unfold(self._orbit_values)
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
    """The CN steps of one evolve on the symmetry quotient of ``orbits``:
    ``step(u, k)`` advances k steps, u -> (A^k)^{-1} B^k u, for each block
    length k in ``lengths``, with A = I - i dt/2 (R Delta S + V) the
    quotient's matrix and B = 2I - A.

    A^k and B^k are the products of the squares A^(2^i) and B^(2^i) at k's
    binary digits, from one chain of squares built once.  A sparse product
    sums each entry in the stored order of its right factor, and splu sorts
    the indices of the matrix it factors in place, so each square of A is
    index-sorted as it is built: A^k is then the same whatever lengths the
    stepper holds and in whatever order they come.  B is never factored, so
    its squares keep the order their products give them.  Each A^k is
    factored once, in its natural order at d = 1, where it is a band matrix
    (see the module docstring).  A block of one step builds no B: its
    right-hand side is 2u - A u, and the A u that a one-step block computes
    for its residual is carried into the next one-step block when its result
    is passed back unchanged.  The CN step at -dt swaps A and B, so it
    inverts a step at dt.

    Vectors hold one value per orbit, at its representative, and residual
    norms weight each orbit by its size, so they are the norms of the
    full-window system.  ``blocks`` maps each length to (A^k, B^k or None
    at k = 1, the LU factor of A^k); ``refinement_solves`` and
    ``max_relative_residual`` accumulate over every block taken.
    """

    def __init__(self, orbits: SiteOrbits, potential: Potential, dt: float, lengths):
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        V = potential.values.ravel()[orbits.representatives]  # constant on each orbit
        H = quotient_laplacian(orbits) + sp.diags(V.astype(complex))
        eye = sp.identity(H.shape[0], format="csc", dtype=complex)
        A = (eye - 0.5j * dt * H).tocsc()
        A.sort_indices()
        top = max(lengths, default=1)
        squares = [(A, None if top == 1 else 2.0 * eye - A)]
        while len(squares) < top.bit_length():
            a, b = squares[-1]
            squares.append((a @ a, b @ b))
            squares[-1][0].sort_indices()
        order = "NATURAL" if orbits.window.d == 1 else "MMD_AT_PLUS_A"
        self.blocks = {}
        for k in lengths:
            digits = [pair for j, pair in enumerate(squares) if k >> j & 1]
            a, b = digits[0]
            for x, y in digits[1:]:
                a, b = a @ x, b @ y
            self.blocks[k] = (a, None if k == 1 else b, splu(a, permc_spec=order))
        # per float of a vector's float view: its orbit's size, twice
        self._weights = np.repeat(orbits.sizes, 2)
        self._carried = (None, None)  # (u, A u) of the last one-step block
        self.refinement_solves = 0
        self.max_relative_residual = 0.0

    def _norm(self, v: np.ndarray) -> float:
        f = v.view(float)
        return math.sqrt(np.einsum("i,i,i->", self._weights, f, f))

    def step(self, u: np.ndarray, k: int) -> np.ndarray:
        """k CN steps from u, one solve of A^k u' = B^k u under the residual
        contract (see the module docstring)."""
        A, B, lu = self.blocks[k]
        last, Au = self._carried
        rhs = B @ u if B is not None else 2.0 * u - (Au if u is last else A @ u)
        scale = self._norm(rhs)
        u = lu.solve(rhs)
        Au = A @ u
        if scale != 0.0:
            res = rhs - Au
            rel = self._norm(res) / scale
            refinements = 0
            while rel > _RESIDUAL_TOL:
                if refinements == 3:
                    raise SolverDivergenceError("CN solve residual stalled above 1e-12")
                u = u + lu.solve(res)
                Au = A @ u
                res = rhs - Au
                rel = self._norm(res) / scale
                refinements += 1
            self.refinement_solves += refinements
            self.max_relative_residual = max(self.max_relative_residual, rel)
        self._carried = (u, Au) if B is None else (None, None)
        return u


def _block_schedule(gaps: list, max_block: int) -> list:
    """The CN steps of each block, per stored interval: blocks never cross a
    stored node, and the i-th block of the run takes at most
    min(2^(i // _RAMP_BLOCKS), max_block) steps."""
    schedule, i = [], 0
    for gap in gaps:
        blocks = []
        while gap:
            blocks.append(min(gap, 1 << (i // _RAMP_BLOCKS), max_block))
            gap -= blocks[-1]
            i += 1
        schedule.append(blocks)
    return schedule


def _ldexp(z: np.ndarray, n: int) -> np.ndarray:
    """2^n z for a contiguous complex array, exact unless a value leaves
    the normal range."""
    return np.ldexp(z.view(float), n).view(complex)


def _carry_exponent(u: np.ndarray, sizes: np.ndarray) -> int:
    """n such that 2^n u has an orbit-weighted ell^2 norm in [2^(C-1),
    2^C), C = _CARRY_LOG2_NORM; 0 for u = 0.  Found without squaring u, so
    no norm over- or underflows."""
    top = float(np.max(np.abs(u.view(float)), initial=0.0))
    if top == 0.0:
        return 0
    e = math.frexp(top)[1]
    f = math.frexp(math.sqrt(mass_sq(_ldexp(u, -e), 1, sizes)))[1]
    return _CARRY_LOG2_NORM - e - f


def evolve(u0: LatticeField, cfg: EvolutionConfig) -> Trajectory:
    """Integrate to T, storing every store_every-th node (endpoints always).

    The steps run on the quotient of the window's full symmetry group when
    the datum and the potential both keep it, on the window otherwise
    (_symmetry), on the field carried as 2^n u (see the module docstring),
    and each stored node keeps the quotient's values: one per orbit of that
    group."""
    window = cfg.window
    if u0.window != window:
        raise ValueError("datum window != config window")
    nodes = cfg.stored_steps
    norm_logs = np.empty(len(nodes))
    schedule = _block_schedule([int(g) for g in np.diff(nodes)],
                               _MAX_BLOCK_STEPS_D1 if window.d == 1 else 1)
    orbits = _symmetry(u0, cfg.potential)
    stepper = Stepper(orbits, cfg.potential, cfg.dt, {k for blocks in schedule for k in blocks})
    u = orbits.gather(u0.values).astype(complex)
    carry = _carry_exponent(u, orbits.sizes)
    u = _ldexp(u, carry)
    orbit_values = np.empty((len(nodes), orbits.count), dtype=complex)
    weights = orbits.sizes if orbits.symmetric else None  # the window's mass from u's
    for k, blocks in enumerate([[]] + schedule):
        for steps in blocks:
            u = stepper.step(u, steps)
        np.ldexp(u.view(float), -carry, out=orbit_values[k].view(float))
        # the carried mass is near 2^1000; 2^-2n times it may leave the float range
        m, e = math.frexp(mass_sq(u, 1, weights))
        norm_logs[k] = 0.5 * math.log(m) + (0.5 * e - carry) * math.log(2.0)
    solver_stats = {"refinement_solves": stepper.refinement_solves,
                    "max_relative_residual": stepper.max_relative_residual,
                    "block_steps": max(stepper.blocks, default=0),
                    "symmetric": orbits.symmetric,
                    "quotient_sites": orbits.count}
    return Trajectory(orbits, cfg.times, orbit_values, norm_logs, cfg,
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


def observation_nodes(times: np.ndarray) -> np.ndarray:
    """The mask of the stored times inside [3/8, 5/8]; Simpson over fewer
    than 3 of them is a config error."""
    sel = (times >= 0.375 - 1e-12) & (times <= 0.625 + 1e-12)
    if np.count_nonzero(sel) < 3:
        raise ConfigError(f"too few stored nodes inside [3/8, 5/8]: {np.count_nonzero(sel)} "
                          f"of {len(times)}, Simpson's rule needs 3")
    return sel


def observation_integral(traj: Trajectory) -> float:
    """The normalization functional int_{3/8}^{5/8} |u_{j=0}(t)|^2 dt, with
    the paper's "u(0,t)" read as the lattice site j = 0."""
    sel = observation_nodes(traj.times)
    sub_t = traj.times[sel]
    origin = traj.orbits.orbit_of(np.zeros(traj.window.d, dtype=int))  # its own orbit
    series = np.abs(traj.orbit_values[sel, origin]) ** 2
    w = _simpson_weights(len(sub_t), float(sub_t[1] - sub_t[0]))
    return float(np.dot(w, series)) * math.exp(2.0 * traj.scale_log)


def normalize_observation(traj: Trajectory) -> Trajectory:
    """Rescale so the observation integral equals exactly 1."""
    integral = observation_integral(traj)
    if not (integral > 1e-300):
        raise ZeroObservationError("observation integral below 1e-300")
    return traj.scaled(1.0 / math.sqrt(integral))

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

The reflection fold.  The data the lower bound is tested on (delta,
Gaussian, e^{-mu |j| log(|j|+1)}) and the zero and alternating potentials are
even under every reflection j_k -> -j_k, and CN keeps that symmetry.  So at
d >= 2 ``evolve`` folds every axis on which both the datum and the potential
are exactly even and steps on the quotient: the sites j_k >= 0 of a folded
axis, M + 1 of them instead of 2M + 1.  There the 1-d second difference is
the ordinary one except for the entry (0, 1), which is 2, because
u_1 + u_{-1} = 2 u_1.  That entry is exact in floating point, so the quotient
system is the full one restricted to the quotient, still a sparse kron sum,
factored the same way; a matvec differs from the full one only in the order
in which the rows at j_k = 0 are summed.
Each stored node is unfolded by indexing with |j_k|, and the residual
contract weights each quotient site by the number of window sites it stands
for (1 or 2 per folded axis), so it bounds the full-window residual.  A
datum or potential that is not even on an axis leaves that axis unfolded,
and with no axis folded the steps are the unfolded ones above, bit for bit.

The fold keeps the sitewise accuracy that FFT or DST solvers lose: those mix
every site into every coefficient, so their rounding error is about 1e-16
times the norm at every site and swamps a tail below that, while the sparse
LU solves the same nearest-neighbour recurrence on fewer unknowns.  Against
the unfolded stepper (alternating V, dt = 1e-2, T = 1), the trajectories keep
the same zero pattern, and max |d log|u|| is 1.1e-13 down to |u| = 1.4e-257
from a delta at d = 2, M = 64.  From the bessel_like datum at M = 24 the two
differ by 8.3e-8 at |u| = 1.7e-47 in the corner of the window, where each
differs from a dense LAPACK recurrence by about 9e-8 (9.5e-8 unfolded,
8.6e-8 folded).  The quotient has 4225 unknowns at d = 2, M = 64 instead of
16641: 1000 steps there (dt = 1e-3, alternating V, delta datum) take 1.06 s
instead of 6.7 s (CPU 2.0 s, was 12.5 s), and at d = 3, M = 12 1.06 s
instead of 42 s (2 vCPUs).

At d = 1 nothing is folded.  The minimum-degree ordering of the folded A^k is
not the natural one, and it costs relative accuracy deep in the tail of a
first block: against a dense-solve oracle (M = 34, dt = 1e-3, alternating
V, delta datum) max |d log|u|| after one block rises from 2.6e-10 to 2.4e-9
with 10 steps and from 7.4e-9 to 1.3e-7 with 16, while the fold saves only
about 10 % of the d = 1 evolve time (M = 128, 10^4 steps: 73 against 80 ms).

Lattice sums avoid BLAS.  Every squared norm of a lattice-sized vector here
(the stored norm_logs, the residual contract's norms, the boundary mass, the
datum's normalization) is lattice.mass_sq, which sums in numpy's own einsum
loops.  A BLAS dot product (np.vdot, np.linalg.norm) on a vector above
OpenBLAS's threading cutoff wakes numpy's second BLAS thread, which then
busy-waits between calls for the rest of the stepping loop: at d = 2, M = 64
(alternating V, dt = 1e-2, T = 1, then the ring and log-convexity scans)
that cost 1.9-2.0 s of CPU per second of wall time and saved no wall time;
through mass_sq it is 1.0-1.15.  The SuperLU factor and solves call scipy's
own BLAS, whose pool stays asleep at d = 2; at d = 3 the solves wake it
(ROADMAP.md).

scipy is imported only when a stepper or a Laplacian matrix is built, so
the subcommands that never evolve do not pay its import.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverDivergenceError, ZeroObservationError
from .lattice import (LatticeField, LatticeWindow, Potential, boundary_mass_fraction, mass_sq,
                      star_log_weight)

_RESIDUAL_TOL = 1e-12
_MAX_BLOCK_STEPS_D1 = 16  # CN steps per solve at d = 1; one step at d >= 2


def laplacian_matrix(window: LatticeWindow, folded: tuple = ()) -> "scipy.sparse.csc_matrix":
    """Sparse Delta_d with zero padding: kron sum of 1-d second differences.

    On each axis k in ``folded`` the matrix acts on fields even in j_k, stored
    on the sites j_k >= 0 (M + 1 of them): the 1-d second difference there is
    the ordinary one except for the entry (0, 1), which is 2, since
    u_1 + u_{-1} = 2 u_1.
    """
    import scipy.sparse as sp

    factors = []
    for k in range(window.d):
        n = window.M + 1 if k in folded else 2 * window.M + 1
        ones = np.ones(n)
        upper = ones[:-1].copy()
        if k in folded:
            upper[0] = 2.0
        factors.append(sp.diags([ones[:-1], -2.0 * ones, upper], [-1, 0, 1], format="csc"))
    total = None
    for k in range(window.d):
        term = None
        for pos, lap1 in enumerate(factors):
            factor = lap1 if pos == k else sp.identity(lap1.shape[0], format="csc")
            term = factor if term is None else sp.kron(term, factor, format="csc")
        total = term if total is None else total + term
    return total.tocsc()


def _quotient(window: LatticeWindow, folded: tuple) -> tuple:
    """The sites j_k >= 0 of each folded axis, every site of the others."""
    return tuple(slice(window.M, None) if k in folded else slice(None) for k in range(window.d))


def _orbit_sizes(window: LatticeWindow, folded: tuple) -> np.ndarray:
    """Per quotient site, the number of window sites it stands for: 2 for
    each folded axis on which j_k != 0, flattened in the quotient's order."""
    sizes = 2.0 ** sum(window.coordinate(k) != 0 for k in folded)
    return np.broadcast_to(sizes, window.shape)[_quotient(window, folded)].ravel()


def _even_axes(u0: LatticeField, potential: Potential) -> tuple:
    """The lattice axes k on which both the datum and the potential are
    exactly even under j_k -> -j_k; evolution keeps that symmetry."""
    d = u0.window.d
    return tuple(k for k in range(d)
                 if np.array_equal(u0.values, np.flip(u0.values, k))
                 and np.array_equal(potential.values, np.flip(potential.values, k - d)))


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
    """Stored snapshots of one evolution plus per-node conserved-norm logs."""

    window: LatticeWindow
    times: np.ndarray
    values: np.ndarray  # (n_stored, *window.shape)
    norm_logs: np.ndarray
    config: EvolutionConfig
    scale_log: float = 0.0  # log of any normalization applied afterwards
    # CN solver: {"refinement_solves": total, "max_relative_residual": max over
    # solves, "block_steps": most CN steps advanced by one solve}
    solver_stats: dict = field(default_factory=dict)

    @property
    def n_stored(self) -> int:
        return len(self.times)

    def site_series(self, j) -> np.ndarray:
        idx = (slice(None),) + self.window.index_of(j)
        return self.values[idx]

    def time_weights(self) -> np.ndarray:
        """Composite Simpson weights on the stored uniform grid."""
        return _simpson_weights(len(self.times), float(self.times[1] - self.times[0]))

    def boundary_mass(self) -> float:
        """The largest boundary_mass_fraction over the stored snapshots."""
        return float(np.max(boundary_mass_fraction(self.values, self.window)))

    def norm_drift(self) -> float:
        return float(np.max(np.abs(np.exp(self.norm_logs - self.norm_logs[0]) - 1.0)))

    def scaled(self, factor: float) -> "Trajectory":
        return Trajectory(self.window, self.times, factor * self.values,
                          self.norm_logs + math.log(abs(factor)),
                          self.config, self.scale_log + math.log(abs(factor)),
                          self.solver_stats)


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

    With ``folded`` axes (on which the potential must be even) the stepper
    acts on the reflection quotient: vectors hold the sites j_k >= 0 of each
    folded axis, flattened in C order, and residual norms weight each site
    by the number of window sites it stands for, so they are the norms of
    the full-window system.
    """

    def __init__(self, window: LatticeWindow, potential: Potential, dt: float,
                 steps: int = 1, folded: tuple = ()):
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        V = potential.values[_quotient(window, folded)]
        H = laplacian_matrix(window, folded) + sp.diags(V.ravel().astype(complex))
        eye = sp.identity(H.shape[0], format="csc", dtype=complex)
        A = (eye - 0.5j * dt * H).tocsc()
        self.A, self._B = A, None
        if steps > 1:
            B = (2.0 * eye - A).tocsc()
            self.A, self._B = _power(A, steps), _power(B, steps)
        self._lu = splu(self.A, permc_spec="MMD_AT_PLUS_A")
        self.steps, self.folded = steps, tuple(folded)
        # per float of a vector's float view: its site's orbit size, twice
        self._orbit = np.repeat(_orbit_sizes(window, self.folded), 2) if self.folded else None
        self.refinement_solves = 0
        self.max_relative_residual = 0.0

    def _norm(self, v: np.ndarray) -> float:
        return math.sqrt(mass_sq(v.view(float), 1, self._orbit))

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

    The steps run on the reflection quotient of every axis on which the datum
    and the potential are both even; each stored node is unfolded into the
    full window."""
    window = cfg.window
    if u0.window != window:
        raise ValueError("datum window != config window")
    n_steps = cfg.n_steps
    nodes = np.arange(0, n_steps + 1, cfg.store_every)
    if nodes[-1] != n_steps:
        nodes = np.append(nodes, n_steps)
    values = np.empty((len(nodes),) + window.shape, dtype=complex)
    norm_logs = np.empty(len(nodes))
    max_block = _MAX_BLOCK_STEPS_D1 if window.d == 1 else 1
    gaps = [int(g) for g in np.diff(nodes)]
    # every block length: whole blocks between stored nodes, then the remainder
    lengths = {min(g, max_block) for g in gaps} | {g % max_block for g in gaps if g % max_block}
    # d = 1 stays unfolded: see the module docstring
    folded = _even_axes(u0, cfg.potential) if window.d > 1 else ()
    steppers = {steps: Stepper(window, cfg.potential, cfg.dt, steps, folded)
                for steps in lengths}
    quotient = u0.values[_quotient(window, folded)]
    # window site -> its quotient site, |j_k| on the folded axes
    unfold = np.arange(quotient.size).reshape(quotient.shape)[np.ix_(*(
        np.abs(window.axes) if k in folded else np.arange(2 * window.M + 1)
        for k in range(window.d)))]
    u = quotient.ravel().astype(complex)
    stepper = steppers.get(1)
    Au = None if stepper is None else stepper.A @ u  # carried by one-step blocks
    for k, gap in enumerate([0] + gaps):
        while gap:
            steps = min(gap, max_block)
            previous, stepper = stepper, steppers[steps]
            u, Au = stepper.step(u, Au if stepper is previous else None)
            gap -= steps
        np.take(u, unfold, out=values[k])
        norm_logs[k] = 0.5 * math.log(mass_sq(values[k], window.d))
    solver_stats = {"refinement_solves": sum(s.refinement_solves for s in steppers.values()),
                    "max_relative_residual": max((s.max_relative_residual
                                                  for s in steppers.values()), default=0.0),
                    "block_steps": max(steppers, default=0),
                    "folded_axes": list(folded)}
    return Trajectory(window, nodes * cfg.dt, values, norm_logs, cfg,
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
    series = np.abs(traj.site_series([0] * traj.window.d)[sel]) ** 2
    w = _simpson_weights(len(sub_t), float(sub_t[1] - sub_t[0]))
    return float(np.dot(w, series))


def normalize_observation(traj: Trajectory) -> Trajectory:
    """Rescale so the observation integral equals exactly 1."""
    integral = observation_integral(traj)
    if not (integral > 1e-300):
        raise ZeroObservationError("observation integral below 1e-300")
    return traj.scaled(1.0 / math.sqrt(integral))

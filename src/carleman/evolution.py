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
alternating potential, a dense-solve oracle sees 7.1e-12 for tails down to
5e-53 (M = 34) and 5.3e-10 down to 2e-84 (M = 50).

scipy is imported only when a stepper or a Laplacian matrix is built, so
the subcommands that never evolve do not pay its import.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverDivergenceError, ZeroObservationError
from .lattice import LatticeField, LatticeWindow, Potential, boundary_mass_fraction

_RESIDUAL_TOL = 1e-12
_MAX_BLOCK_STEPS_D1 = 16  # CN steps per solve at d = 1; one step at d >= 2


def laplacian_matrix(window: LatticeWindow) -> "scipy.sparse.csc_matrix":
    """Sparse Delta_d with zero padding: kron sum of 1-d second differences."""
    import scipy.sparse as sp

    n = 2 * window.M + 1
    ones = np.ones(n)
    lap1 = sp.diags([ones[:-1], -2.0 * ones, ones[:-1]], [-1, 0, 1], format="csc")
    eye = sp.identity(n, format="csc")
    total = None
    for k in range(window.d):
        term = None
        for pos in range(window.d):
            factor = lap1 if pos == k else eye
            term = factor if term is None else sp.kron(term, factor, format="csc")
        total = term if total is None else total + term
    return total.tocsc()


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    T: float
    window: LatticeWindow
    potential: Potential
    scheme_tag: str = "trapezoidal_unitary"
    store_every: int = 1

    def __post_init__(self):
        if self.scheme_tag != "trapezoidal_unitary":
            raise ValueError("only the trapezoidal_unitary scheme is implemented")
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

    def snapshot(self, i: int) -> LatticeField:
        return LatticeField(self.window, self.values[i])

    def site_series(self, j) -> np.ndarray:
        idx = (slice(None),) + self.window.index_of(j)
        return self.values[idx]

    def time_weights(self) -> np.ndarray:
        """Composite Simpson weights on the stored uniform grid."""
        return _simpson_weights(len(self.times), float(self.times[1] - self.times[0]))

    def boundary_mass(self) -> float:
        return max(boundary_mass_fraction(self.values[i], self.window) for i in range(self.n_stored))

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

    ``step`` carries A u from one step to the next; ``apply`` is a single
    step from u alone.  The inverse step solves B x = A u, which is the CN
    step at -dt (A and B swap), so ``apply_inverse`` uses a second stepper
    at -dt, built on first use.  ``refinement_solves`` and
    ``max_relative_residual`` accumulate over every step taken.

    With ``steps`` = k > 1 a stepper advances k CN steps at once: ``A`` is
    A^k, factored the same way, and ``step`` solves A^k u' = B^k u.
    """

    def __init__(self, window: LatticeWindow, potential: Potential, dt: float,
                 steps: int = 1):
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        if potential.is_time_dependent:
            raise ValueError("Stepper handles static potentials; pass slices per step")
        H = laplacian_matrix(window) + sp.diags(potential.values.ravel().astype(complex))
        eye = sp.identity(window.site_count, format="csc", dtype=complex)
        A = (eye - 0.5j * dt * H).tocsc()
        self.A, self._B = A, None
        if steps > 1:
            B = (2.0 * eye - A).tocsc()
            self.A, self._B = _power(A, steps), _power(B, steps)
        self._lu = splu(self.A, permc_spec="MMD_AT_PLUS_A")
        self._window, self._potential, self._dt = window, potential, dt
        self.steps = steps
        self._inverse = None
        self.refinement_solves = 0
        self.max_relative_residual = 0.0

    def step(self, u: np.ndarray, Au: np.ndarray | None = None) -> tuple:
        """``steps`` CN steps from u, given A u when the caller carries it
        (one step only); returns (u', A u')."""
        if self._B is not None:
            rhs = self._B @ u
        else:
            rhs = 2.0 * u - (self.A @ u if Au is None else Au)
        scale = math.sqrt(np.vdot(rhs, rhs).real)
        u = self._lu.solve(rhs)
        Au = self.A @ u
        if scale == 0.0:
            return u, Au
        res = rhs - Au
        rel = math.sqrt(np.vdot(res, res).real) / scale
        refinements = 0
        while rel > _RESIDUAL_TOL:
            if refinements == 3:
                raise SolverDivergenceError("CN solve residual stalled above 1e-12")
            u = u + self._lu.solve(res)
            Au = self.A @ u
            res = rhs - Au
            rel = math.sqrt(np.vdot(res, res).real) / scale
            refinements += 1
        self.refinement_solves += refinements
        self.max_relative_residual = max(self.max_relative_residual, rel)
        return u, Au

    def apply(self, u_flat: np.ndarray) -> np.ndarray:
        return self.step(u_flat)[0]

    def apply_inverse(self, u_flat: np.ndarray) -> np.ndarray:
        if self._inverse is None:
            self._inverse = Stepper(self._window, self._potential, -self._dt, self.steps)
        return self._inverse.apply(u_flat)


def _power(matrix, k: int):
    """matrix^k by repeated sparse products."""
    out = matrix
    for _ in range(k - 1):
        out = out @ matrix
    return out.tocsc()


def evolve(u0: LatticeField, cfg: EvolutionConfig) -> Trajectory:
    """Integrate to T, storing every store_every-th node (endpoints always)."""
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
    steppers = {steps: Stepper(window, cfg.potential, cfg.dt, steps) for steps in lengths}
    u = u0.values.ravel().astype(complex)
    stepper = steppers.get(1)
    Au = None if stepper is None else stepper.A @ u  # carried by one-step blocks
    values[0] = u.reshape(window.shape)
    norm_logs[0] = math.log(np.linalg.norm(u))
    for k, gap in enumerate(gaps, start=1):
        while gap:
            steps = min(gap, max_block)
            previous, stepper = stepper, steppers[steps]
            u, Au = stepper.step(u, Au if stepper is previous else None)
            gap -= steps
        values[k] = u.reshape(window.shape)
        norm_logs[k] = math.log(np.linalg.norm(u))
    solver_stats = {"refinement_solves": sum(s.refinement_solves for s in steppers.values()),
                    "max_relative_residual": max((s.max_relative_residual
                                                  for s in steppers.values()), default=0.0),
                    "block_steps": max(steppers, default=0)}
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
        log_vals = -mu * r * np.log(r + 1.0)
    else:
        raise ValueError(f"unknown datum profile {kind!r}")
    vals = np.exp(np.maximum(log_vals, -745.0))
    vals[log_vals < -745.0] = 0.0
    vals = vals / np.linalg.norm(vals)
    return LatticeField.from_values(window, vals)


def observation_integral(traj: Trajectory, mode: str = "origin_site") -> float:
    """The normalization functional.

    origin_site (default): int_{3/8}^{5/8} |u_{j=0}(t)|^2 dt -- "u(0,t)" read
    as the lattice site j = 0.  initial_norm: ||u(0)||^2, the alternative
    reading, kept behind this flag.
    """
    if mode == "initial_norm":
        return float(np.sum(np.abs(traj.values[0]) ** 2))
    if mode != "origin_site":
        raise ValueError(f"unknown observation mode {mode!r}")
    t = traj.times
    sel = (t >= 0.375 - 1e-12) & (t <= 0.625 + 1e-12)
    if np.count_nonzero(sel) < 3:
        raise ZeroObservationError("too few stored nodes inside [3/8, 5/8]")
    sub_t = t[sel]
    series = np.abs(traj.site_series([0] * traj.window.d)[sel]) ** 2
    w = _simpson_weights(len(sub_t), float(sub_t[1] - sub_t[0]))
    return float(np.dot(w, series))


def normalize_observation(traj: Trajectory, mode: str = "origin_site") -> Trajectory:
    """Rescale so the observation integral equals exactly 1."""
    integral = observation_integral(traj, mode)
    if not (integral > 1e-300):
        raise ZeroObservationError("observation integral below 1e-300")
    return traj.scaled(1.0 / math.sqrt(integral))

"""Quantitative scans: lambda(R) lower bounds, log-convexity ratios, weighted
norm equivalences, uniqueness thresholds, and the weighted K-kernel identity.

Desk scale is d in {1,2}, window half-widths <= 128 (d=1) / 64 (d=2), R <= 40;
every report carries fitted constants and the boundary-mass diagnostic, never
an asserted asymptotic constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bessel import bessel_k, weighted_cosh_integral
from .errors import ConfigError
from .fitting import best_model
from .lattice import (LatticeField, SiteOrbits, boundary_mass_fraction, nonincreasing_tuples,
                      radial_log_sums, ring_masses, star_log_weight)
from .logscalar import NEG_INF, log_abs_sq, logsumexp
from .profiles import sinh_factor_log

if TYPE_CHECKING:  # annotations only: a scan reads a trajectory without evolution code
    from .evolution import Trajectory


@dataclass(frozen=True)
class ExperimentConfig:
    A: float = 1.0
    L: float = 0.0
    R_list: tuple = tuple(range(8, 29))
    c_rule: float = 2.0
    mu: float = 0.0

    def __post_init__(self):
        if self.A < 0 or self.L < 0:
            raise ValueError("A and L must be nonnegative")
        Rs = tuple(float(r) for r in self.R_list)
        if any(b <= a for a, b in zip(Rs, Rs[1:])):
            raise ValueError("R_list must be increasing")
        object.__setattr__(self, "R_list", Rs)


@dataclass(frozen=True)
class ScanRow:
    R: float
    log_lambda: float  # natural log; -inf for an empty ring
    alpha: float
    log_lhs_growth: float
    pass_absorption: bool
    boundary_mass: float


def growth_factor_log(c: float, R: float, d: int) -> float:
    """log of sqrt(2c log R) R^{2c/sqrt(d) - 1/2}, the large-R form of the
    sinh product at alpha = c R log R."""
    return 0.5 * math.log(2.0 * c * math.log(R)) + (2.0 * c / math.sqrt(d) - 0.5) * math.log(R)


def lambda_scan(source, cfg: ExperimentConfig) -> dict:
    """lambda(R) rows plus decay-model fits and the absorption bookkeeping.

    source: a Trajectory (normalize via normalize_observation first) or a
    stationary LatticeField.  Row columns follow the TSV contract
    (R, log_lambda, alpha, log_lhs_growth, pass_absorption, boundary_mass).
    """
    window = source.window
    if isinstance(source, LatticeField):
        orbits = SiteOrbits(window)
        bmass = float(boundary_mass_fraction(orbits.gather(source.values), orbits))
    else:
        bmass = source.boundary_mass()
    lams = ring_masses(source, cfg.R_list)

    d = window.d
    c = cfg.c_rule

    def make_row(R, log_lam):
        alpha = c * R * math.log(R)
        log_growth = growth_factor_log(c, R, d)
        # absorption of the A-term: the e^{alpha(2+1/R)^2} scale cancels, so
        # the condition is sinh-product >= 2 c_d A, with c_d = 1
        absorbed = (cfg.A == 0.0) or sinh_factor_log(alpha, R, d) >= math.log(2.0 * cfg.A)
        return ScanRow(
            R=float(R),
            log_lambda=log_lam,
            alpha=alpha,
            log_lhs_growth=log_growth,
            pass_absorption=bool(absorbed),
            boundary_mass=bmass,
        )

    rows = [make_row(R, log_lam) for R, log_lam in zip(cfg.R_list, lams)]
    fit_rows = [(r.R, r.log_lambda) for r in rows if r.log_lambda != NEG_INF]
    fits = best_model(fit_rows) if len(fit_rows) >= 3 else None
    out = {"rows": rows, "boundary_mass": bmass, "c_rule": c, "d": d}
    if fits is not None:
        out["fits"] = {tag: fits["fits"][tag] for tag in fits["fits"]}
        out["best_model"] = fits["best"]
        c_fit = fits["fits"]["R_logR"].exponent_constant
        out["lower_bound_holds_per_row"] = [
            bool(r.log_lambda >= -c_fit * r.R * math.log(r.R) - 1e-9)
            for r in rows if r.log_lambda != NEG_INF
        ]
    else:
        out["vacuous"] = True
    return out


def interior_indices(times: np.ndarray, n_times: int = 9) -> list:
    """The distinct stored nodes nearest to n_times interior times in
    [0.1, 0.9], in time order; an endpoint among them would compare a
    snapshot with itself, so it is a config error, found from the stored
    times before any step."""
    targets = np.linspace(0.1, 0.9, n_times)
    idxs = list(dict.fromkeys(int(np.argmin(np.abs(times - t))) for t in targets))
    if 0 in idxs or len(times) - 1 in idxs:
        raise ConfigError(f"an interior time lands on an endpoint of {len(times)} stored nodes")
    return idxs


def _directional_log_sums(log_mass: np.ndarray, axis_values: np.ndarray, betas_per_axis) -> np.ndarray:
    """log sum_j e^{2 beta.j + log_mass_j} for every beta in the product of the
    per-axis beta values; shape (len(betas_per_axis[0]), ..., len(betas_per_axis[d-1])).

    The weight separates by coordinate, so the sum is contracted one axis at
    a time, each a max-shifted log-sum-exp over that axis for every beta_k.
    """
    x = log_mass
    for b in betas_per_axis:
        x = np.moveaxis(x, 0, -1)  # next uncontracted axis last
        x = logsumexp(x[..., None, :] + 2.0 * np.asarray(b)[:, None] * axis_values, axis=-1)
    return x


def _log_rho(traj: Trajectory, beta_list) -> tuple:
    """(betas, one row of d per beta; the interior node indices; log rho
    at each of those nodes and each beta, (n_times, n_betas)).  The
    snapshots read are unfolded one at a time into one window buffer."""
    window, snapshots = traj.window, traj.values
    idxs = interior_indices(traj.times)
    betas = [np.atleast_1d(np.asarray(b, dtype=float)) for b in beta_list]
    betas = np.array(betas).reshape(len(betas), window.d)
    per_axis = [np.unique(betas[:, k], return_inverse=True) for k in range(window.d)]
    values = [v for v, _ in per_axis]
    pick = tuple(inv for _, inv in per_axis)
    buffer = np.empty(window.shape, dtype=complex)

    def log_sums(i):
        return _directional_log_sums(log_abs_sq(snapshots.read(i, buffer)), window.axes,
                                     values)[pick]

    den = np.logaddexp(log_sums(0), log_sums(-1))
    return betas, idxs, np.array([log_sums(i) - den for i in idxs])


def log_convexity_check(traj: Trajectory, beta_list, cfg: ExperimentConfig) -> dict:
    """rho(beta, t) = sum e^{2 beta.j} |u(t)|^2 / sum e^{2 beta.j}(|u(0)|^2+|u(1)|^2)
    at interior stored times, in the log domain; the empirical constant is
    C_emp = max log rho / L, which the two-endpoint bound keeps finite
    uniformly in beta.  No symmetry keeps e^{2 beta.j}, so the snapshots read
    are unfolded to the full window, one at a time."""
    betas, idxs, log_rho = _log_rho(traj, beta_list)
    times = [float(traj.times[i]) for i in idxs]
    rows = [{"beta": beta, "t": t, "log_rho": float(lr)}
            for beta, column in zip(betas.tolist(), log_rho.T)  # one beta list per beta
            for t, lr in zip(times, column)]
    max_log_rho = float(np.max(log_rho, initial=-math.inf))
    out = {"rows": rows, "max_log_rho": max_log_rho,
           "max_rho_minus_one": math.expm1(max_log_rho),
           "boundary_mass": traj.boundary_mass()}
    if cfg.L > 0:
        out["C_emp"] = max_log_rho / cfg.L
    return out


def beta_grid(beta_max: float, d: int) -> list:
    """Axis-aligned beta grid with |beta|_inf <= beta_max, 17 values an axis
    (d = 1 or 2)."""
    line = np.linspace(-beta_max, beta_max, 17)
    if d == 1:
        return [np.array([b]) for b in line]
    if d == 2:
        return [np.array([b1, b2]) for b1 in line for b2 in line]
    raise ConfigError(f"beta grids are implemented for d <= 2, not d = {d}")


def log_convexity_stability(traj: Trajectory, beta_max: float, cfg: ExperimentConfig) -> dict:
    """C_emp at beta_max and at 2 beta_max; the beta-independence claim says
    the change stays small (20% is the acceptance gate)."""
    if cfg.L <= 0:
        raise ValueError("stability check needs L > 0")
    d = traj.window.d
    c1, c2 = (float(np.max(_log_rho(traj, beta_grid(b, d))[2], initial=-math.inf)) / cfg.L
              for b in (beta_max, 2.0 * beta_max))
    rel = abs(c2 - c1) / max(abs(c1), 1e-300)
    # with C_emp <= 0 no ratio exceeds 1, so the relative change says nothing
    return {"C_emp_base": c1, "C_emp_doubled": c2, "relative_change": rel,
            "stable": rel < 0.2, "vacuous": c1 <= 0}


def weighted_uniqueness_threshold(traj: Trajectory, cfg: ExperimentConfig) -> dict:
    """Fits the lambda(R) decay constant of an evolved trajectory against the
    weighted-sum bound.

    With decay rate mu in the data, the scan reports the fitted lower
    constant, the largest weight rate mu' the two-endpoint bound tolerates,
    and their quotient (the empirical critical ratio).
    """
    if cfg.mu <= 0:
        return {"contradiction": False,
                "reason": "decay hypothesis unmet (mu = 0 gives no decay beyond ell^2)"}
    scan = lambda_scan(traj, cfg)
    if scan.get("vacuous"):
        return {"vacuous": True, "mu": cfg.mu, "scan": scan,
                "reason": "fewer than three nonempty rings: no decay constant to fit"}
    c_low = scan["fits"]["R_logR"].exponent_constant
    # largest mu' <= mu whose weighted two-endpoint ratio stays bounded
    tol = math.log(2.0) if cfg.L == 0 else cfg.L * 10.0
    grid = np.linspace(cfg.mu / 16.0, cfg.mu, 16)
    mu_ok = 0.0
    for mu_p, sup_log_rho in zip(grid, star_weight_sup_log_rho(traj, grid)):
        if sup_log_rho <= tol:
            mu_ok = float(mu_p)
    c0_emp = mu_ok / cfg.mu
    out = {"mode": "evolution", "c_low_fit": c_low, "mu": cfg.mu,
           "c0_emp": c0_emp, "scan": scan}
    out["critical_ratio"] = c_low / (cfg.mu * c0_emp) if c0_emp > 0 else math.inf
    return out


def star_weight_sup_log_rho(traj: Trajectory, mu_grid) -> np.ndarray:
    """Per mu' in mu_grid, the sup over interior stored times of
    log( sum w |u(t)|^2 / sum w (|u(0)|^2 + |u(1)|^2) ), w = e^{2 mu' |j| log(|j|+1)}.

    The weight is radial, so each snapshot is reduced once to its |j|^2 bins,
    reading only the representatives of the trajectory's orbits.
    """
    orbits = traj.orbits

    def bins(i):
        return radial_log_sums(orbits, orbits.log_mass(traj.orbit_values[i]))

    r_sq, first = bins(0)
    last = bins(-1)[1]
    inner = np.array([bins(i)[1] for i in interior_indices(traj.times)])
    r = np.sqrt(r_sq)
    w = star_log_weight(r, 2.0 * np.asarray(mu_grid, dtype=float)[:, None])
    den = logsumexp(w + np.logaddexp(first, last))
    num = logsumexp(w[:, None, :] + inner)
    return np.max(num - den[:, None], axis=1)


def norm_star_equivalence(d: int, j_max: int) -> dict:
    """Exhaustive ratio scan of |j| log(|j|+1) against sum_k |j_k| log(|j_k|+1).

    d = 1 is the identity (ratios exactly 1).  For d >= 2 symmetry reduces
    the scan to the octant j_max >= j_1 >= j_2 >= ... >= j_d >= 0, j_1 >= 1:
    one row per j_1, vectorised over its tails (j_2, ..., j_d) in
    lexicographic order (lattice.nonincreasing_tuples), so arg_sup and
    arg_inf are the first sites in that order to attain the extremes.  A row
    holds comb(j_1 + d - 1, d - 1) tails, so memory grows like j_max^(d-1).
    """
    if j_max < 10:
        raise ValueError("j_max >= 10 required")
    if d < 1:
        raise ValueError("d >= 1 required")
    if d == 1:
        return {"d": 1, "sup_ratio": 1.0, "inf_ratio": 1.0, "c_d": 1.0, "exact": True}
    tails = nonincreasing_tuples(d - 1, j_max)
    k = np.arange(j_max + 1)
    star_terms = [(k * np.log(k + 1.0))[col] for col in tails]
    tail_sq = np.sum(tails.astype(float) ** 2, axis=0)  # exact integers
    sup_r, inf_r = -math.inf, math.inf
    arg_sup = arg_inf = None
    for j1 in range(1, j_max + 1):
        n = math.comb(j1 + d - 1, d - 1)
        r = np.sqrt(float(j1 * j1) + tail_sq[:n])
        star = j1 * math.log(j1 + 1.0) + star_terms[0][:n]
        for terms in star_terms[1:]:
            star = star + terms[:n]
        ratios = r * np.log(r + 1.0) / star
        i_hi = int(np.argmax(ratios))
        i_lo = int(np.argmin(ratios))
        if ratios[i_hi] > sup_r:
            sup_r, arg_sup = float(ratios[i_hi]), (j1, *(int(t) for t in tails[:, i_hi]))
        if ratios[i_lo] < inf_r:
            inf_r, arg_inf = float(ratios[i_lo]), (j1, *(int(t) for t in tails[:, i_lo]))
    return {"d": d, "j_max": j_max, "sup_ratio": sup_r, "inf_ratio": inf_r,
            "arg_sup": arg_sup, "arg_inf": arg_inf,
            "c_d": max(sup_r, 1.0 / inf_r)}


def k_bessel_weight_check(mu: float, j_list, growth_j) -> dict:
    """The weighted cosh integral against 2 mu K_{mu j}(2/e) at each j of
    j_list, plus the mu |j| log |j| growth fit over the j of growth_j.

    log K_{mu j}(2/e) = mu j log j + (mu log mu) j + O(log j), so the linear
    term is removed before fitting (j log j, 1), whose slope is then mu.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    rows = []
    for j in j_list:
        lhs = weighted_cosh_integral(float(j), mu)
        rhs = bessel_k(mu * float(j), 2.0 / math.e)
        defect = abs(math.expm1(lhs - (math.log(2.0 * mu) + rhs)))
        rows.append({"j": float(j), "relative_defect": defect})
    js = np.asarray(list(growth_j), dtype=float)
    logs = np.array([bessel_k(mu * j, 2.0 / math.e) for j in js]) - mu * math.log(mu) * js
    m = js * np.log(js)
    A = np.column_stack([m, np.ones_like(m)])
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    return {"mu": mu, "substitution_constant": 2.0 * mu, "rows": rows,
            "max_defect": max(r["relative_defect"] for r in rows),
            "growth_exponent": float(coef[0]), "growth_target": mu}

"""The one-pass ring-mass, log-convexity and weighted-threshold scans against
the direct per-R / per-beta / per-mu' loops they replace, kept here as
oracles: every value must agree within 1e-12 in log.  The scans that read
only orbit representatives are also held to the full-window scans they
replace (per-snapshot logaddexp over every site), within 1e-14 relative."""

import math

import numpy as np
import pytest

from carleman.evolution import Trajectory
from carleman.experiments import (ExperimentConfig, interior_indices, log_convexity_check,
                                  star_weight_sup_log_rho)
from carleman.lattice import LatticeField, LatticeWindow, SiteOrbits, ring_masses
from carleman.logscalar import NEG_INF, log_abs_sq, logsumexp

LOG_TOL = 1e-12


# --- oracles: one full log-sum per ring, per (beta, t), per (mu', t) ---


def log_total(logs):
    """log(sum(exp(logs))) over every entry."""
    return float(logsumexp(np.ravel(logs)))


def oracle_ring_mask(window, R):
    r_sq = window.radius_sq
    return ((R - 2) ** 2 <= r_sq) & (r_sq <= (R + 1) ** 2)


def oracle_ring_log_mass(u, R, time_weights=None):
    """log lambda(R)^2: log-sum over the ring mask at each node, then
    over nodes with the log time weights."""
    mask = oracle_ring_mask(u.window, R)
    if time_weights is None:
        return log_total(log_abs_sq(u.values[mask]))
    per_node = np.array([log_total(log_abs_sq(u.values[n][mask]))
                         for n in range(u.values.shape[0])])
    return log_total(per_node + np.log(time_weights))


def oracle_log_rho_rows(traj, beta_list, n_times=9):
    window = traj.window
    idxs = interior_indices(traj.times, n_times)
    l0 = log_abs_sq(traj.values[0])
    l1 = log_abs_sq(traj.values[-1])
    rows = []
    for beta in beta_list:
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        w = np.zeros(window.shape)
        for k in range(window.d):
            w = w + 2.0 * float(beta[k]) * window.coordinate(k)
        den = log_total(np.concatenate([(w + l0).ravel(), (w + l1).ravel()]))
        for i in idxs:
            num = log_total(w + log_abs_sq(traj.values[i]))
            rows.append({"beta": beta.tolist(), "t": float(traj.times[i]), "log_rho": num - den})
    return rows


def oracle_star_sup_log_rho(traj, mu_grid):
    window = traj.window
    idxs = interior_indices(traj.times)
    l0 = log_abs_sq(traj.values[0])
    l1 = log_abs_sq(traj.values[-1])
    r = np.sqrt(window.radius_sq)
    out = []
    for mu_p in mu_grid:
        w = 2.0 * float(mu_p) * r * np.log(r + 1.0)
        den = log_total(np.concatenate([(w + l0).ravel(), (w + l1).ravel()]))
        out.append(max(log_total(w + log_abs_sq(traj.values[i])) - den for i in idxs))
    return np.array(out)


# --- inputs ------------------------------------------------------------------


def random_values(window, rng, n_time=None, zero_frac=0.1):
    """Complex values whose magnitudes span hundreds of e-folds, with some
    exact zeros."""
    lead = () if n_time is None else (n_time,)
    return random_array(lead + window.shape, rng, zero_frac)


def random_array(shape, rng, zero_frac=0.1):
    log_mag = -rng.uniform(0.0, 370.0, size=shape)
    phase = np.exp(2j * np.pi * rng.uniform(size=shape))
    values = np.exp(log_mag) * phase
    values[rng.uniform(size=shape) < zero_frac] = 0.0
    return values


def random_trajectory(window, rng, n_time=21):
    """A trajectory of random values on the trivial group: one site an orbit."""
    orbits = SiteOrbits(window)
    orbit_values = random_array((n_time, orbits.count), rng)
    return Trajectory(orbits, np.linspace(0.0, 1.0, n_time), orbit_values, np.zeros(n_time),
                      config=None)


def assert_log_close(got, want):
    if want == NEG_INF:
        assert got == NEG_INF
    else:
        assert got == pytest.approx(want, abs=LOG_TOL, rel=0)


# --- ring masses ---------------------------------------------------------------


@pytest.mark.parametrize("d,M", [(1, 40), (2, 18)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ring_masses_match_per_ring_loop_stationary(d, M, seed):
    window = LatticeWindow(d, M)
    field = LatticeField(window, random_values(window, np.random.default_rng(seed)))
    R_list = (1.0, 2.5, 3.0, 7.0, 8.0, 11.5, float(M - 3))
    for R, log_lam in zip(R_list, ring_masses(field, R_list)):
        assert_log_close(2.0 * log_lam, oracle_ring_log_mass(field, R))


@pytest.mark.parametrize("d,M", [(1, 40), (2, 14)])
@pytest.mark.parametrize("seed", [0, 1])
def test_ring_masses_match_per_ring_loop_space_time(d, M, seed):
    rng = np.random.default_rng(10 + seed)
    u = random_trajectory(LatticeWindow(d, M), rng, n_time=13)
    R_list = tuple(float(R) for R in range(3, M - 1))
    for R, log_lam in zip(R_list, ring_masses(u, R_list)):
        assert_log_close(2.0 * log_lam, oracle_ring_log_mass(u, R, u.time_weights()))


@pytest.mark.parametrize("d", [1, 2])
def test_ring_masses_empty_rings(d):
    # mass only on |j| <= 2: rings with R - 2 > 2 are empty, the others are not
    window = LatticeWindow(d, 16)
    values = random_values(window, np.random.default_rng(3), zero_frac=0.0)
    values[np.sqrt(window.radius_sq) > 2.0] = 0.0
    field = LatticeField(window, values)
    R_list = (2.0, 4.0, 4.5, 6.0, 10.0, 14.0)
    log_lams = ring_masses(field, R_list)
    for R, log_lam in zip(R_list, log_lams):
        assert_log_close(2.0 * log_lam, oracle_ring_log_mass(field, R))
    assert [x == NEG_INF for x in log_lams] == [False, False, True, True, True, True]


# --- log-convexity ---------------------------------------------------------------


def ragged_betas(d, rng, n=23, beta_max=2.5):
    """Random, non-grid beta lists with a few repeated per-axis values."""
    betas = rng.uniform(-beta_max, beta_max, size=(n, d))
    betas[::4, 0] = betas[0, 0]
    betas[5] = 0.0
    return [b for b in betas]


@pytest.mark.parametrize("d,M", [(1, 30), (2, 12)])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("beta_max", [2.5, 40.0])  # 40: e^{2 beta.j} overflows a double
def test_log_convexity_matches_per_beta_loop(d, M, seed, beta_max):
    rng = np.random.default_rng(20 + seed)
    traj = random_trajectory(LatticeWindow(d, M), rng)
    betas = ragged_betas(d, rng, beta_max=beta_max)
    got = log_convexity_check(traj, betas, ExperimentConfig(L=1.0))
    want = oracle_log_rho_rows(traj, betas)
    assert [(r["beta"], r["t"]) for r in got["rows"]] == [(r["beta"], r["t"]) for r in want]
    assert all(set(r) == {"beta", "t", "log_rho"} for r in got["rows"])
    for g, w in zip(got["rows"], want):
        assert_log_close(g["log_rho"], w["log_rho"])
    assert_log_close(got["max_log_rho"], max(r["log_rho"] for r in want))


def test_log_convexity_scalar_betas_d1():
    rng = np.random.default_rng(30)
    traj = random_trajectory(LatticeWindow(1, 20), rng)
    betas = [-1.5, 0.25, 2.0]
    got = log_convexity_check(traj, betas, ExperimentConfig())
    want = oracle_log_rho_rows(traj, betas)
    for g, w in zip(got["rows"], want):
        assert g["beta"] == w["beta"]
        assert_log_close(g["log_rho"], w["log_rho"])


# --- weighted uniqueness threshold ------------------------------------------------


@pytest.mark.parametrize("d,M", [(1, 30), (2, 12)])
@pytest.mark.parametrize("mu", [3.0, 40.0])  # 40: the weight overflows a double
def test_star_weight_sweep_matches_per_mu_loop(d, M, mu):
    traj = random_trajectory(LatticeWindow(d, M), np.random.default_rng(40 + d))
    mu_grid = np.linspace(mu / 16.0, mu, 16)
    got = star_weight_sup_log_rho(traj, mu_grid)
    want = oracle_star_sup_log_rho(traj, mu_grid)
    assert got.shape == want.shape
    for g, w in zip(got, want):
        assert math.isfinite(w)
        assert_log_close(float(g), float(w))


# --- orbit representatives against the full-window scans ---------------------

REL_TOL = 1e-14


def full_window_radial_log_sums(window, log_mass):
    """One max-shifted log-sum of a per-site log_mass per integer |j|^2 bin,
    over every site of the window."""
    r_sq = window.radius_sq.ravel()
    order = np.argsort(r_sq, kind="stable")
    values, starts, counts = np.unique(r_sq[order], return_index=True, return_counts=True)
    x = log_mass.ravel()[order]
    top = np.maximum.reduceat(x, starts)
    shift = np.where(np.isfinite(top), top, 0.0)
    sums = np.add.reduceat(np.exp(x - np.repeat(shift, counts)), starts)
    with np.errstate(divide="ignore"):
        return values, shift + np.log(sums)


def full_window_ring_masses(u, R_list, time_weights):
    """The ring scan that reads every site of every snapshot, joining the
    snapshots by one np.logaddexp pass each."""
    with np.errstate(divide="ignore"):
        log_tw = np.log(time_weights)
    log_mass = log_abs_sq(u.values[0]) + log_tw[0]
    for n in range(1, len(log_tw)):
        np.logaddexp(log_mass, log_abs_sq(u.values[n]) + log_tw[n], out=log_mass)
    r_sq, bin_logs = full_window_radial_log_sums(u.window, log_mass)
    out = []
    for R in R_list:
        lo = np.searchsorted(r_sq, (R - 2) ** 2, side="left")
        hi = np.searchsorted(r_sq, (R + 1) ** 2, side="right")
        out.append(0.5 * float(logsumexp(bin_logs[lo:hi])) if hi > lo else NEG_INF)
    return out


def full_window_boundary_mass(traj):
    window = traj.window
    mass = np.abs(traj.values) ** 2
    total = mass.reshape(len(mass), -1).sum(axis=1)
    shell = mass[:, window.inf_norm > window.M - 2].sum(axis=1)
    return float(np.max(shell / total))


def full_window_star_sup_log_rho(traj, mu_grid):
    window = traj.window

    def bins(i):
        return full_window_radial_log_sums(window, log_abs_sq(traj.values[i]))

    r_sq, first = bins(0)
    last = bins(-1)[1]
    inner = np.array([bins(i)[1] for i in interior_indices(traj.times)])
    w = 2.0 * np.asarray(mu_grid)[:, None] * np.sqrt(r_sq) * np.log(np.sqrt(r_sq) + 1.0)
    den = logsumexp(w + np.logaddexp(first, last))
    return np.max(logsumexp(w[:, None, :] + inner) - den[:, None], axis=1)


def invariant_trajectory(window, rng, full_group, n_time=21):
    """A trajectory of random orbit values, under every reflection and axis
    swap when full_group and under the trivial group otherwise."""
    orbits = SiteOrbits(window, full_group)
    orbit_values = random_array((n_time, orbits.count), rng)
    # magnitudes down to e^-370 and a snapshot with one zero orbit
    orbit_values[3, origin_orbit(orbits)] = 0.0
    return Trajectory(orbits, np.linspace(0.0, 1.0, n_time), orbit_values, np.zeros(n_time),
                      config=None)


def origin_orbit(orbits):
    return orbits.site_orbit[(orbits.window.M,) * orbits.window.d]


def assert_rel_close(got, want):
    if want == NEG_INF:
        assert got == NEG_INF
    else:
        assert abs(got - want) <= REL_TOL * abs(want), (got, want)


ORBIT_CASES = [(d, M, full) for d, M in ((1, 40), (2, 14), (3, 7)) for full in (False, True)]


@pytest.mark.parametrize("d, M, full_group", ORBIT_CASES)
def test_orbit_ring_masses_match_full_window_logaddexp_scan(d, M, full_group):
    rng = np.random.default_rng(50 + 2 * d + full_group)
    traj = invariant_trajectory(LatticeWindow(d, M), rng, full_group)
    R_list = tuple(float(R) for R in range(3, M - 1))
    got = ring_masses(traj, R_list)
    want = full_window_ring_masses(traj, R_list, traj.time_weights())
    for g, w in zip(got, want):
        assert_rel_close(g, w)


@pytest.mark.parametrize("d, M, full_group", ORBIT_CASES)
def test_orbit_boundary_mass_matches_full_window_sum(d, M, full_group):
    rng = np.random.default_rng(60 + 2 * d + full_group)
    traj = invariant_trajectory(LatticeWindow(d, M), rng, full_group)
    # mass at the origin and at the corners, in the shell, so that the
    # fraction is well inside (0, 1)
    traj.orbit_values[:, origin_orbit(traj.orbits)] = 2.0 ** d
    traj.orbit_values[:, traj.orbits.site_orbit[np.ix_(*[[0, -1]] * d)].ravel()] = 1.0
    assert_rel_close(traj.boundary_mass(), full_window_boundary_mass(traj))


@pytest.mark.parametrize("d, M, full_group", ORBIT_CASES)
def test_orbit_star_weight_sweep_matches_full_window_sweep(d, M, full_group):
    rng = np.random.default_rng(70 + 2 * d + full_group)
    traj = invariant_trajectory(LatticeWindow(d, M), rng, full_group)
    mu_grid = np.linspace(3.0 / 16.0, 3.0, 16)
    got = star_weight_sup_log_rho(traj, mu_grid)
    want = full_window_star_sup_log_rho(traj, mu_grid)
    for g, w in zip(got, want):
        assert_rel_close(float(g), float(w))

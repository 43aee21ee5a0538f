import itertools
import math
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import carleman
from carleman.bessel import bessel_j
from carleman.errors import SolverDivergenceError, ZeroObservationError
from carleman.evolution import (EvolutionConfig, Stepper, Trajectory, _block_schedule,
                                _simpson_weights, evolve, make_decaying_datum,
                                normalize_observation, observation_integral, quotient_laplacian)
from carleman.lattice import (LatticeField, LatticeWindow, Potential, SiteOrbits,
                              boundary_mass_fraction, laplacian_values, mass_sq)


def dense_cn_oracle(u0, cfg):
    """The CN recurrence with dense LAPACK solves (one LU factor of A, as
    gesv would compute it) on the full window, at the stored nodes of cfg."""
    from scipy.linalg import lu_factor, lu_solve

    window, potential = cfg.window, cfg.potential
    n = 2 * window.M + 1
    lap1 = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    H = np.diag(potential.values.ravel()).astype(complex)
    for k in range(window.d):
        H += np.kron(np.kron(np.eye(n ** k), lap1), np.eye(n ** (window.d - 1 - k)))
    A = np.eye(n ** window.d) - 0.5j * cfg.dt * H
    B = np.eye(n ** window.d) + 0.5j * cfg.dt * H
    lu = lu_factor(A)
    u = u0.values.ravel().astype(complex)
    out = [u]
    for step in range(1, cfg.n_steps + 1):
        u = lu_solve(lu, B @ u)
        if step % cfg.store_every == 0 or step == cfg.n_steps:
            out.append(u)
    return np.array(out).reshape((len(out),) + window.shape)


def max_log_deviation(values, oracle):
    """max |d log|u|| over the nonzero sites, after checking the zero pattern."""
    assert np.array_equal(values == 0, oracle == 0)
    nz = oracle != 0
    return float(np.max(np.abs(np.log(np.abs(values[nz])) - np.log(np.abs(oracle[nz])))))


def free_config(M=24, dt=2e-3, store_every=1, d=1):
    window = LatticeWindow(d, M)
    return window, EvolutionConfig(dt=dt, T=1.0, window=window,
                                   potential=Potential.zero(window),
                                   store_every=store_every)


def test_norm_conserved_free_evolution():
    window, cfg = free_config()
    traj = evolve(LatticeField.delta(window), cfg)
    assert traj.norm_drift() < 1e-10


def test_norm_conserved_real_potential_random_datum():
    window = LatticeWindow(1, 16)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(window.shape) + 1j * rng.standard_normal(window.shape)
    vals[:2] = vals[-2:] = 0.0
    u0 = LatticeField.from_values(window, vals / np.linalg.norm(vals))
    cfg = EvolutionConfig(dt=2e-3, T=1.0, window=window,
                          potential=Potential.alternating(window))
    traj = evolve(u0, cfg)
    assert traj.norm_drift() < 1e-10


def test_fundamental_solution_matches_bessel_j():
    # exact free solution: u_j(t) = e^{-2it} i^j J_j(2t); convention fixed by
    # the small-t oracle (see test_small_t_phase_convention below).
    window, cfg = free_config(M=40, dt=5e-4)
    traj = evolve(LatticeField.delta(window), cfg)
    final = traj.values[-1]
    j = window.axes
    exact = np.exp(-2.0j) * (1j) ** j * np.array([bessel_j(int(jj), 2.0) for jj in j])
    sel = np.abs(j) <= 20
    dev = np.max(np.abs(final - exact)[sel])
    assert dev < 1e-6


def test_small_t_phase_convention():
    # one CN step from delta_0: u_{+-1}(dt) ~ i dt (the semigroup Taylor
    # series), which selects i^{j} J_j over the conjugate conventions.
    window, cfg = free_config(M=8, dt=1e-3)
    stepper = Stepper(SiteOrbits(window), cfg.potential, cfg.dt, (1,))
    u = LatticeField.delta(window).values.ravel().astype(complex)
    u1 = stepper.step(u, 1).reshape(window.shape)
    neighbor = u1[window.index_of([1])]
    assert neighbor.imag > 0 and abs(neighbor - 1j * cfg.dt) < 5e-6
    # and the exact formula agrees at first order: i^1 J_1(2 dt) ~ i dt
    assert abs(1j * bessel_j(1, 2 * cfg.dt) - 1j * cfg.dt) < 1e-8


def test_eigenvector_pure_phase_rotation():
    # Dirichlet (zero-padded) eigenvectors of the 1-d window Laplacian:
    # v_j = sin(p pi (j + M + 1)/(2M + 2)), eigenvalue 2 cos(p pi/(2M+2)) - 2
    window, cfg = free_config(M=12, dt=1e-3)
    n = 2 * window.M + 1
    p = 3
    v = np.sin(p * math.pi * np.arange(1, n + 1) / (n + 1)).astype(complex)
    v /= np.linalg.norm(v)
    traj = evolve(LatticeField.from_values(window, v), cfg)
    mags = np.abs(traj.values[-1])
    assert np.max(np.abs(mags - np.abs(v))) < 1e-10
    lam = 2.0 * math.cos(p * math.pi / (n + 1)) - 2.0
    cn_phase_step = np.angle((1 + 0.5j * cfg.dt * lam) / (1 - 0.5j * cfg.dt * lam))
    expected = v * np.exp(1j * cn_phase_step * cfg.n_steps)
    assert np.max(np.abs(traj.values[-1] - expected)) < 1e-9


def test_time_reversal():
    window, cfg = free_config(M=16, dt=2e-3)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(window.shape) + 1j * rng.standard_normal(window.shape)
    vals[:3] = vals[-3:] = 0.0
    u0 = vals / np.linalg.norm(vals)
    # the CN step at -dt swaps A and B, so it inverts a step at dt
    orbits = SiteOrbits(window)
    forward = Stepper(orbits, cfg.potential, cfg.dt, (1,))
    backward = Stepper(orbits, cfg.potential, -cfg.dt, (1,))
    u = u0.copy()
    for _ in range(cfg.n_steps):
        u = forward.step(u, 1)
    for _ in range(cfg.n_steps):
        u = backward.step(u, 1)
    assert np.max(np.abs(u - u0)) < 1e-8


def test_second_order_convergence():
    # each dt against ITS dt/4 reference: defect ratio in [3.6, 4.4]
    window = LatticeWindow(1, 12)
    u0 = LatticeField.delta(window)

    def final(dt):
        cfg = EvolutionConfig(dt=dt, T=0.48, window=window, potential=Potential.zero(window))
        return evolve(u0, cfg).values[-1]

    defect_coarse = np.linalg.norm(final(8e-3) - final(2e-3))
    defect_fine = np.linalg.norm(final(4e-3) - final(1e-3))
    ratio = defect_coarse / defect_fine
    assert 3.6 <= ratio <= 4.4


def test_decaying_datum_profiles():
    window = LatticeWindow(1, 30)
    delta = make_decaying_datum(window, ("delta",))
    assert delta[[0]] == 1.0
    bes = make_decaying_datum(window, ("bessel_like", 1.0))
    assert bes.norm_sq() == pytest.approx(1.0, rel=1e-12)
    # origin amplitude equals the normalization constant (weight 1 at origin)
    j = window.axes
    r = np.abs(j).astype(float)
    raw = np.exp(-1.0 * r * np.log(r + 1.0))
    assert bes[[0]].real == pytest.approx(1.0 / np.linalg.norm(raw), rel=1e-12)


def test_bessel_like_tail_mass_matches_direct_sum():
    # extended-precision tail oracle: sum of e^{-2 mu |j| log(|j|+1)} beyond 20
    import mpmath

    mpmath.mp.dps = 30
    window = LatticeWindow(1, 60)
    mu = 1.0
    bes = make_decaying_datum(window, ("bessel_like", mu))
    j = window.axes
    tail_ours = float(np.sum(np.abs(bes.values[np.abs(j) > 20]) ** 2))
    norm_sq = mpmath.mpf(1)  # |j|=0 term
    tail = mpmath.mpf(0)
    for jj in range(1, 2000):
        term = 2 * mpmath.e ** (-2 * mu * jj * mpmath.log(jj + 1))
        norm_sq += term
        if jj > 20:
            tail += term
    oracle = float(tail / norm_sq)
    assert tail_ours == pytest.approx(oracle, rel=1e-8)


def test_observation_normalization():
    window, cfg = free_config(M=24, dt=1e-3)
    traj = evolve(LatticeField.delta(window), cfg)
    scaled = normalize_observation(traj)
    assert observation_integral(scaled) == pytest.approx(1.0, rel=1e-12)
    again = normalize_observation(scaled)
    assert np.max(np.abs(np.asarray(again.values) - np.asarray(scaled.values))) < 1e-12


def test_observation_scaling_homogeneity():
    window, cfg = free_config(M=16, dt=2e-3)
    traj = evolve(LatticeField.delta(window), cfg)
    assert observation_integral(traj.scaled(2.0)) == pytest.approx(
        4.0 * observation_integral(traj), rel=1e-12)


def test_normalized_trajectory_shares_the_stored_values():
    window, cfg = free_config(M=16, dt=2e-3)
    traj = evolve(LatticeField.delta(window), cfg)
    normed = normalize_observation(traj)
    assert np.shares_memory(normed.orbit_values, traj.orbit_values)
    assert normed.scale_log == math.log(1.0 / math.sqrt(observation_integral(traj)))
    # the factor rides along in the unfolded snapshots and the norm logs
    factor = math.exp(normed.scale_log)
    assert np.allclose(normed.values[-1], factor * traj.values[-1], rtol=1e-15, atol=0.0)
    assert np.allclose(normed.norm_logs, traj.norm_logs + normed.scale_log, rtol=0.0, atol=1e-14)


def test_normalizing_twice_moves_scale_log_by_rounding_only():
    window, cfg = free_config(M=24, dt=1e-3)
    once = normalize_observation(evolve(LatticeField.delta(window), cfg))
    twice = normalize_observation(once)
    assert abs(twice.scale_log - once.scale_log) <= 1e-12


@pytest.mark.parametrize("factor", [0.0, -2.0, -0.5, float("nan")])
def test_scaled_rejects_a_factor_that_is_not_positive(factor):
    window, cfg = free_config(M=8, dt=1e-2)
    traj = evolve(LatticeField.delta(window), cfg)
    with pytest.raises(ValueError):
        traj.scaled(factor)


def test_ring_scan_of_a_normalized_trajectory_stays_below_its_stored_values():
    # d = 2, M = 32, every step stored: 101 nodes x 561 orbits, 0.91 MB of
    # orbit values.  Normalizing once copied them and the ring scan held
    # (nodes x orbits) float temporaries, 1.9 MB at peak; now the normalized
    # trajectory shares them and the scan reduces them in column blocks
    # (0.60 MB at peak)
    import tracemalloc

    from carleman.experiments import ExperimentConfig, lambda_scan

    window = LatticeWindow(2, 32)
    cfg = EvolutionConfig(dt=1e-2, T=1.0, window=window, potential=Potential.alternating(window),
                          store_every=1)
    traj = evolve(LatticeField.delta(window), cfg)
    assert traj.n_stored == 101
    tracemalloc.start()
    try:
        scan = lambda_scan(normalize_observation(traj), ExperimentConfig(R_list=range(8, 29)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "fits" in scan
    assert peak < traj.orbit_values.nbytes, peak


def test_zero_observation_raises():
    window, cfg = free_config(M=16, dt=2e-3)
    traj = evolve(LatticeField.delta(window), cfg)
    dead = traj.scaled(1.0)
    dead.orbit_values = np.zeros_like(dead.orbit_values)
    with pytest.raises(ZeroObservationError):
        normalize_observation(dead)


def test_laplacian_matrix_matches_pointwise_operator():
    from carleman.lattice import discrete_laplacian

    window = LatticeWindow(2, 5)
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(window.shape) + 1j * rng.standard_normal(window.shape)
    u = LatticeField.from_values(window, vals)
    direct = discrete_laplacian(u).values
    via_matrix = (quotient_laplacian(SiteOrbits(window)) @ vals.ravel()).reshape(window.shape)
    assert np.max(np.abs(direct - via_matrix)) < 1e-14


def test_store_every_thins_snapshots():
    window, cfg = free_config(M=12, dt=2e-3, store_every=10)
    traj = evolve(LatticeField.delta(window), cfg)
    assert traj.n_stored == 51
    assert traj.times[1] - traj.times[0] == pytest.approx(0.02, rel=1e-12)


def test_tail_matches_dense_solve_oracle():
    # the CN recurrence with dense LAPACK solves.  The far tail is 3.5e-41
    # after one step and 2.7e-27 at T, so agreement in log|u| asks for
    # relative accuracy at every site, which a normwise residual stop on a
    # truncated series does not give.
    window = LatticeWindow(2, 10)
    potential = Potential.alternating(window)
    cfg = EvolutionConfig(dt=1e-2, T=0.2, window=window, potential=potential)
    traj = evolve(LatticeField.delta(window), cfg)
    oracle = dense_cn_oracle(LatticeField.delta(window), cfg)
    assert np.min(np.abs(oracle[oracle != 0])) < 1e-26
    assert max_log_deviation(np.asarray(traj.values), oracle) < 1e-10


def test_off_centre_delta_stays_unfolded_and_matches_dense_oracle():
    # a delta at j = (1, 0) is odd under the reflection of axis 0 and the
    # swap: the steps run on all 21 x 21 sites
    window = LatticeWindow(2, 10)
    cfg = EvolutionConfig(dt=1e-2, T=0.2, window=window, potential=Potential.alternating(window))
    u0 = LatticeField.delta(window, [1, 0])
    traj = evolve(u0, cfg)
    assert traj.solver_stats["symmetric"] is False
    assert traj.solver_stats["quotient_sites"] == window.site_count
    oracle = dense_cn_oracle(u0, cfg)
    assert np.min(np.abs(oracle[oracle != 0])) < 1e-26
    assert max_log_deviation(np.asarray(traj.values), oracle) < 1e-10


def test_bessel_like_d2_matches_dense_oracle():
    # measured max |d log|u|| against this oracle at these nodes: 1.7e-10 on
    # the full group's quotient, 4.5e-11 on the reflections' (ReflectionOrbits)
    # and 7.0e-11 unfolded, in the corner where |u| is near 1e-27; at M = 24
    # all three reach 8.0e-8 to
    # 9.5e-8 in the corner (|u| from 3e-49 to 2e-47), where the oracle itself
    # is accurate only relative to the norm
    window = LatticeWindow(2, 16)
    cfg = EvolutionConfig(dt=1e-2, T=1.0, window=window, potential=Potential.alternating(window),
                          store_every=10)
    u0 = make_decaying_datum(window, ("bessel_like", 1.0))
    traj = evolve(u0, cfg)
    assert traj.solver_stats["symmetric"] is True
    oracle = dense_cn_oracle(u0, cfg)
    assert np.min(np.abs(oracle[oracle != 0])) < 1e-30
    assert max_log_deviation(np.asarray(traj.values), oracle) <= 1e-9


class CountingLU:
    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


def test_refinement_solves_counted_then_bounded():
    # swap in a slightly different A, so the LU factor becomes an approximate
    # inverse: refinement must close the gap, and give up after three solves
    window, cfg = free_config(M=12, dt=1e-2)
    orbits = SiteOrbits(window)
    u0 = LatticeField.delta(window).values.ravel().astype(complex)
    stepper = Stepper(orbits, cfg.potential, cfg.dt, (1,))
    exact_A, _, lu = stepper.blocks[1]
    near_A = Stepper(orbits, cfg.potential, cfg.dt * (1 + 1e-3), (1,)).blocks[1][0]
    stepper.blocks[1] = (near_A, None, lu)
    stepper.step(u0, 1)
    assert 1 <= stepper.refinement_solves <= 3
    refined_residual = stepper.max_relative_residual
    assert 0.0 < refined_residual <= 1e-12
    stepper.blocks[1] = (exact_A, None, lu)  # a smaller residual leaves the maximum in place
    stepper.step(u0, 1)
    assert stepper.max_relative_residual == refined_residual

    far_A = Stepper(orbits, cfg.potential, 2 * cfg.dt, (1,)).blocks[1][0]
    stepper.blocks[1] = (far_A, None, CountingLU(lu))
    with pytest.raises(SolverDivergenceError):
        stepper.step(u0, 1)
    assert stepper.blocks[1][2].solves == 4  # the solve and three refinements


def test_trajectory_records_solver_stats():
    window, cfg = free_config(M=12, dt=1e-2)
    traj = evolve(LatticeField.delta(window), cfg)
    assert traj.solver_stats["refinement_solves"] == 0
    assert 0.0 < traj.solver_stats["max_relative_residual"] <= 1e-12
    assert traj.scaled(2.0).solver_stats == traj.solver_stats


def test_store_every_keeps_final_node():
    # 500 steps stored every 7th: nodes 0, 7, ..., 497, then T itself
    window, cfg = free_config(M=12, dt=2e-3, store_every=7)
    traj = evolve(LatticeField.delta(window), cfg)
    full = evolve(LatticeField.delta(window), free_config(M=12, dt=2e-3)[1])
    assert traj.n_stored == 73
    assert traj.times[-2] == pytest.approx(0.994) and traj.times[-1] == pytest.approx(1.0)
    # blocks follow the stored interval (7 steps per solve here, 1 in the
    # full run), so the two agree to rounding, not bit for bit
    for thinned, every in ((traj.values[-1], full.values[-1]), (traj.values[1], full.values[7])):
        assert np.array_equal(thinned == 0, every == 0)
        nz = every != 0
        assert np.max(np.abs(np.log(np.abs(thinned[nz])) - np.log(np.abs(every[nz])))) <= 1e-11


@pytest.mark.parametrize("store_every", [3, 7])
def test_time_weights_cover_a_shorter_last_interval(store_every):
    # 1000 steps stored every 3rd (7th) leave a last interval of 1 (6) steps,
    # which the weights used to give the full width: they summed to 1.002
    # (1.001)
    window, cfg = free_config(M=4, dt=1e-3, store_every=store_every)
    traj = evolve(LatticeField.delta(window), cfg)
    assert traj.times[-1] - traj.times[-2] < traj.times[1] - traj.times[0]
    w = traj.time_weights()
    assert w.sum() == pytest.approx(1.0, rel=1e-13, abs=0)
    assert w @ traj.times == pytest.approx(0.5, rel=1e-13, abs=0)
    # Simpson over the uniform nodes, the trapezoid over the last interval
    uniform = Trajectory(traj.orbits, traj.times[:-1], traj.orbit_values[:-1],
                         traj.norm_logs[:-1], cfg)
    assert np.array_equal(w[:-2], uniform.time_weights()[:-1])


def test_time_weights_on_a_uniform_grid_are_composite_simpson():
    window, cfg = free_config(M=4, dt=1e-3, store_every=8)  # 125 intervals
    traj = evolve(LatticeField.delta(window), cfg)
    w = traj.time_weights()
    assert np.array_equal(w, _simpson_weights(126, float(traj.times[1] - traj.times[0])))


def test_norm_drift_keeps_digits_below_the_spacing_of_doubles_at_one():
    # e^x - 1 at x = 1e-14 is quantized to steps of 2.2e-16: it read 9.992e-15
    window = LatticeWindow(1, 3)
    traj = Trajectory(SiteOrbits(window), np.array([0.0, 1.0]), np.zeros((2, 7), complex),
                      np.array([0.0, 1e-14]), config=None)
    assert traj.norm_drift() == pytest.approx(1e-14, rel=1e-12, abs=0)


def test_d1_blocks_match_dense_solve_oracle():
    # 100 steps stored every 37th: the ramp of four blocks each of 1, 2 and 4
    # steps, then 8 and 1 before the first node, 8, 8, 16 and 5 before the
    # second and 16, 10 before T, against the CN recurrence with one dense
    # solve per step
    window = LatticeWindow(1, 34)
    potential = Potential.alternating(window)
    cfg = EvolutionConfig(dt=1e-2, T=1.0, window=window, potential=potential, store_every=37)
    traj = evolve(LatticeField.delta(window), cfg)
    assert traj.solver_stats["block_steps"] == 16
    assert traj.solver_stats["symmetric"] is True  # 0 <= j <= 34
    assert traj.solver_stats["quotient_sites"] == 35
    oracle = dense_cn_oracle(LatticeField.delta(window), cfg)
    assert traj.n_stored == len(oracle) == 4
    assert np.min(np.abs(oracle[oracle != 0])) < 1e-50
    assert max_log_deviation(np.asarray(traj.values), oracle) <= 1e-10


def mpmath_cn_oracle(cfg, dps=50):
    """The CN recurrence from a delta at j = 0, d = 1, one step per solve in
    dps-digit mpmath on the full window (the Thomas recurrence for the
    tridiagonal A), at the stored nodes of cfg: mpc values."""
    import mpmath

    with mpmath.workdps(dps):
        h = mpmath.mpf(cfg.dt) / 2
        diag = [1 - 1j * h * (v - 2) for v in cfg.potential.values]  # A's diagonal
        off = -1j * h  # A's off-diagonals; B = 2I - A
        pivots = [diag[0]]
        for a in diag[1:]:
            pivots.append(a - off * off / pivots[-1])
        n, M = len(diag), cfg.window.M
        u = [mpmath.mpc(0)] * n
        u[M] = mpmath.mpc(1)
        nodes = [u]
        for step in range(1, cfg.n_steps + 1):
            y = []
            for j in range(n):
                rhs = (2 - diag[j]) * u[j] - off * ((u[j - 1] if j else 0)
                                                    + (u[j + 1] if j < n - 1 else 0))
                y.append(rhs - off / pivots[j - 1] * y[-1] if j else rhs)
            u = [None] * n
            u[-1] = y[-1] / pivots[-1]
            for j in range(n - 2, -1, -1):
                u[j] = (y[j] - off * u[j + 1]) / pivots[j]
            if step % cfg.store_every == 0 or step == cfg.n_steps:
                nodes.append(u)
        return nodes


def test_d1_ramped_blocks_keep_the_deep_tail():
    # Blocks of up to 16 steps, against single CN steps in 50-digit mpmath at
    # every site with |u| > 1e-300, down to 3.3e-141 here.  Stored every
    # 16th step to step 80, where the first 16-step block ends.  Measured max
    # |d log|u||: 3.4e-13 with the ramp of four blocks each of 1, 2, 4 and 8
    # steps; 6.9e-7 at step 16 and 1.6e-9 at step 32 with blocks of 16 from the
    # first step, and 6.8e-10 with a ramp of one block each.
    import mpmath

    window = LatticeWindow(1, 48)
    cfg = EvolutionConfig(dt=1e-3, T=0.08, window=window, potential=Potential.alternating(window),
                          store_every=16)
    traj = evolve(LatticeField.delta(window), cfg)
    assert traj.solver_stats["block_steps"] == 16
    oracle = mpmath_cn_oracle(cfg)
    assert traj.n_stored == len(oracle) == 6
    worst, smallest = 0.0, 1.0
    for values, exact in zip(traj.values, oracle):
        for got, z in zip(values, exact):
            if abs(z) > 1e-300:
                smallest = min(smallest, float(abs(z)))
                worst = max(worst, abs(math.log(abs(got)) - float(mpmath.log(abs(z)))))
    assert smallest < 1e-140
    assert worst <= 1e-11


def test_block_schedule_ramps_then_caps():
    # the i-th block takes at most 2^(i // 4) steps, up to 16 at d = 1 and one
    # step at d >= 2; no block crosses a stored node
    assert _block_schedule([37, 37, 26], 16) == [
        [1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 4, 4, 8, 1], [8, 8, 16, 5], [16, 10]]
    assert _block_schedule([3, 2], 1) == [[1, 1, 1], [1, 1]]


def test_stepper_builds_every_block_length_from_squares():
    window = LatticeWindow(1, 6)
    orbits, potential = SiteOrbits(window, symmetric=True), Potential.alternating(window)
    stepper = Stepper(orbits, potential, 1e-2, (16, 5, 1, 11, 2))
    A, B, _ = stepper.blocks[1]
    assert B is None  # one step carries A u and builds no B
    # the quotient's A = I - i dt/2 (R Delta S + V), V at the representatives j >= 0
    H = quotient_laplacian(orbits).toarray() + np.diag(potential.values[window.M:])
    dense = A.toarray()
    assert np.array_equal(dense, np.eye(len(H)) - 0.5j * 1e-2 * H)
    for k in (16, 5, 11, 2):
        Ak, Bk, _ = stepper.blocks[k]
        for got, base in ((Ak, dense), (Bk, 2 * np.eye(len(dense)) - dense)):
            want = np.linalg.matrix_power(base, k)
            assert np.max(np.abs(got.toarray() - want)) <= 1e-14 * np.max(np.abs(want))


def test_stepper_systems_do_not_depend_on_the_order_of_the_lengths():
    # splu sorts the indices of the matrix it factors in place, and a sparse
    # product sums in the stored order of its right factor: with the squares
    # shared unsorted, A^8 came out 2.2e-16 apart (d = 1, M = 34) when the
    # 8-step system was factored before the 1-, 2- and 4-step ones
    window = LatticeWindow(1, 34)
    orbits, potential = SiteOrbits(window, symmetric=True), Potential.alternating(window)
    longest_first = Stepper(orbits, potential, 1e-2, [8, 1, 2, 4])
    ascending = Stepper(orbits, potential, 1e-2, [1, 2, 4, 8])
    u = orbits.gather(make_decaying_datum(window, ("bessel_like", 1.0)).values).astype(complex)
    for k in (1, 2, 4, 8):
        for got, want in zip(longest_first.blocks[k][:2], ascending.blocks[k][:2]):
            assert (got is None and want is None) or np.array_equal(got.toarray(), want.toarray())
        assert np.array_equal(longest_first.step(u, k), ascending.step(u, k))


@pytest.mark.parametrize("d, M", [(1, 34), (2, 8)])
@pytest.mark.parametrize("exponent", [600, -600])
def test_evolve_of_a_power_of_two_times_the_datum(d, M, exponent):
    # evolve carries every datum with a norm near 2^500, so 2^+-600 u0 runs the
    # same steps as u0, bit for bit: the carry neither overflows nor moves a
    # digit, and the norm logs shift by 600 log 2
    window = LatticeWindow(d, M)
    cfg = EvolutionConfig(dt=1e-2, T=0.5, window=window, potential=Potential.alternating(window),
                          store_every=10)
    u0 = make_decaying_datum(window, ("bessel_like", 1.0))
    traj = evolve(u0, cfg)
    scaled = evolve(LatticeField.from_values(window, u0.values * 2.0 ** exponent), cfg)
    assert np.min(np.abs(traj.orbit_values)) > 2.0 ** (-1021 + 600)  # no subnormal once scaled
    assert np.array_equal(scaled.orbit_values, traj.orbit_values * 2.0 ** exponent)
    assert np.allclose(scaled.norm_logs, traj.norm_logs + exponent * math.log(2.0),
                       rtol=0, atol=1e-12)
    assert scaled.solver_stats == traj.solver_stats


def per_step_loop(u0, cfg, orbits):
    """evolve's stored nodes from a plain loop of one-step solves on the
    quotient of the orbits: one value per orbit at each node."""
    stepper = Stepper(orbits, cfg.potential, cfg.dt, (1,))
    u = orbits.gather(u0.values).astype(complex)
    nodes = [u]
    for step in range(1, cfg.n_steps + 1):
        u = stepper.step(u, 1)
        if step % cfg.store_every == 0 or step == cfg.n_steps:
            nodes.append(u)
    return np.array(nodes)


class ReflectionOrbits(SiteOrbits):
    """The quotient of the reflections j_k -> -j_k alone, a reference for
    the full group's: the sites 0 <= j_k <= M in C order, each orbit
    2^(nonzero coordinates) sites.  A stepper on it solves the folded 1-d
    second differences' kron sum."""

    @cached_property
    def keys(self):
        return np.indices((self.window.M + 1,) * self.window.d).reshape(self.window.d, -1)

    def orbit_of(self, sites):
        return np.ravel_multi_index(tuple(np.abs(j) for j in sites),
                                    (self.window.M + 1,) * self.window.d)

    @cached_property
    def sizes(self):
        return np.left_shift(1, np.count_nonzero(self.keys, axis=0)).astype(float)


def test_d2_evolve_is_the_per_step_loop_bit_for_bit():
    window = LatticeWindow(2, 8)
    cfg = EvolutionConfig(dt=1e-2, T=0.2, window=window,
                          potential=Potential.alternating(window), store_every=3)
    traj = evolve(LatticeField.delta(window), cfg)
    assert traj.solver_stats["block_steps"] == 1
    assert traj.solver_stats["symmetric"] is True
    assert traj.solver_stats["quotient_sites"] == 45  # 0 <= j_2 <= j_1 <= 8
    assert traj.orbits == SiteOrbits(window, symmetric=True)
    loop = per_step_loop(LatticeField.delta(window), cfg, traj.orbits)
    assert np.array_equal(traj.orbit_values, loop)
    assert np.array_equal(traj.values, traj.orbits.unfold(loop))


def broken_generators(values):
    """The generators of the window's full group that values do not keep:
    ("flip", k) for the reflection of axis k, ("swap", k) for the swap of
    axes k and k + 1."""
    d = values.ndim
    return ({("flip", k) for k in range(d) if not np.array_equal(values, np.flip(values, k))}
            | {("swap", k) for k in range(d - 1)
               if not np.array_equal(values, np.swapaxes(values, k, k + 1))})


@pytest.mark.parametrize("case", ["random_datum", "ramp_potential", "one_flip_d1",
                                  "one_swap_d2", "one_swap_d3"])
def test_uneven_axes_stay_unfolded(case):
    # the steps fold only when the datum and the potential both keep every
    # generator of the full group: a random datum keeps none, a potential
    # 0.1 j_1 breaks the reflection of axis 0 and the swap at d = 2 and the
    # only reflection at d = 1, and e^{-(j_1^2 + 2 j_2^2 + ...)} breaks only
    # the swap of axes 0 and 1; evolve is then the unfolded per-step loop bit
    # for bit
    d = {"one_flip_d1": 1, "one_swap_d3": 3}.get(case, 2)
    window = LatticeWindow(d, 8 if d < 3 else 5)
    j = [window.coordinate(k) for k in range(d)]
    potential = Potential.alternating(window)
    u0 = LatticeField.delta(window)
    if case == "random_datum":
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(window.shape) + 1j * rng.standard_normal(window.shape)
        u0 = LatticeField.from_values(window, vals / np.linalg.norm(vals))
    elif case in ("ramp_potential", "one_flip_d1"):
        potential = Potential(window, 0.1 * j[0] + np.zeros(window.shape))
    else:
        u0 = LatticeField.from_values(window, np.exp(-sum((1.0 + (k > 0)) * jk ** 2
                                                          for k, jk in enumerate(j))))
    broken = broken_generators(u0.values) | broken_generators(potential.values)
    assert (len(broken) == 1) is case.startswith("one_"), broken
    # every step stored at d = 1, so that each block is one step
    cfg = EvolutionConfig(dt=1e-2, T=0.2, window=window, potential=potential,
                          store_every=1 if d == 1 else 3)
    traj = evolve(u0, cfg)
    assert traj.solver_stats["symmetric"] is False
    assert traj.solver_stats["quotient_sites"] == window.site_count
    loop = per_step_loop(u0, cfg, SiteOrbits(window))
    assert np.array_equal(traj.orbit_values, loop)
    assert np.array_equal(traj.values, traj.orbits.unfold(loop))


def test_a_stacked_potential_is_rejected():
    # (2, 21) at d = 1, M = 10 has the window's trailing shape, but a stepper
    # would read only its first slice and evolve as if V were 0 there
    window = LatticeWindow(1, 10)
    stacked = np.stack([np.zeros(window.shape), np.full(window.shape, 5.0)])
    with pytest.raises(ValueError, match="potential shape"):
        Potential(window, stacked)


# Measured max |d log|u|| of the swap quotient (alternating V, dt = 1e-2,
# T = 1, every 10th step): against the reflection-only loop 2.7e-14 (delta)
# and 1.6e-10 (bessel_like, at |u| = 9.5e-28) at d = 2, M = 16, 1.5e-13 and
# 3.0e-13 at d = 3, M = 6; against the unfolded loop 2.2e-14, 1.5e-10, 2.2e-13
# and 8.9e-13.  The bessel_like corner at d = 2 is where float CN itself
# loses digits (see the evolution module docstring); the bounds leave a
# margin of about 3.
SWAP_QUOTIENT_BOUNDS = {(2, "delta"): 1e-13, (2, "bessel_like"): 5e-10,
                        (3, "delta"): 1e-12, (3, "bessel_like"): 3e-12}


@pytest.mark.parametrize("d, M", [(2, 16), (3, 6)])
@pytest.mark.parametrize("datum", [("delta",), ("bessel_like", 1.0)])
def test_swap_quotient_matches_reflection_and_unfolded_loops(d, M, datum):
    window = LatticeWindow(d, M)
    cfg = EvolutionConfig(dt=1e-2, T=1.0, window=window, potential=Potential.alternating(window),
                          store_every=10)
    u0 = make_decaying_datum(window, datum)
    traj = evolve(u0, cfg)
    assert traj.orbits == SiteOrbits(window, symmetric=True)
    assert traj.solver_stats["quotient_sites"] == math.comb(M + d, d)
    bound = SWAP_QUOTIENT_BOUNDS[(d, datum[0])]
    for orbits in (ReflectionOrbits(window, symmetric=True), SiteOrbits(window)):
        loop = orbits.unfold(per_step_loop(u0, cfg, orbits))
        assert max_log_deviation(np.asarray(traj.values), loop) <= bound


def symmetrized(vals):
    """vals summed over the window's full group: each reflection, then every
    permutation of the axes."""
    for k in range(vals.ndim):
        vals = vals + np.flip(vals, k)
    return sum(np.transpose(vals, perm) for perm in itertools.permutations(range(vals.ndim)))


def test_folded_laplacian_is_the_window_laplacian_on_even_fields():
    # the quotient matrix applied to the representatives of a field invariant
    # under the full group gives the pointwise window Laplacian there, up to
    # summation order
    rng = np.random.default_rng(4)
    for d, M in [(1, 6), (2, 5), (3, 3), (4, 2)]:
        window = LatticeWindow(d, M)
        orbits = SiteOrbits(window, symmetric=True)
        vals = rng.standard_normal(window.shape) + 1j * rng.standard_normal(window.shape)
        vals = symmetrized(vals)
        vals /= np.max(np.abs(vals))  # the sums grow with the group's order
        # the field is constant on every orbit, up to the summation order of
        # the symmetrization: the orbits are the group's
        assert np.max(np.abs(np.take(orbits.gather(vals), orbits.site_orbit) - vals)) < 1e-13
        assert orbits.sizes.sum() == window.site_count
        full = orbits.gather(laplacian_values(vals, d))
        quotient = quotient_laplacian(orbits) @ orbits.gather(vals)
        assert np.max(np.abs(quotient - full)) < 1e-13


def test_quotient_laplacian_entries_are_neighbour_counts():
    # R L S counts, per representative, its neighbours in each orbit: at d = 2
    # under the full group the origin sees its 4 neighbours in one orbit
    window = LatticeWindow(2, 4)
    orbits = SiteOrbits(window, symmetric=True)
    lap = quotient_laplacian(orbits).toarray()
    assert set(np.unique(lap)) <= {-4.0, 0.0, 1.0, 2.0, 4.0}
    assert lap[0, 0] == -4.0 and lap[0, orbits.site_orbit[5, 4]] == 4.0
    assert np.array_equal(lap.sum(axis=1)[:3], [0.0, 0.0, 0.0])


def test_folded_residual_norm_is_the_window_norm():
    # each quotient site stands for 1, 4 or 8 window sites, so the residual
    # contract bounds the residual of the full-window system
    window = LatticeWindow(2, 6)
    orbits = SiteOrbits(window, symmetric=True)
    stepper = Stepper(orbits, Potential.zero(window), 1e-2, (1,))
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(window.shape) + 1j * rng.standard_normal(window.shape)
    vals = symmetrized(vals)
    assert stepper._norm(orbits.gather(vals)) == pytest.approx(np.linalg.norm(vals), rel=1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_orbit_weighted_quotient_mass_is_the_window_mass(d):
    window = LatticeWindow(d, 7)
    orbits = SiteOrbits(window, symmetric=True)
    rng = np.random.default_rng(11 * d)
    vals = symmetrized(rng.standard_normal(window.shape) + 1j * rng.standard_normal(window.shape))
    full = mass_sq(vals, d)
    assert abs(mass_sq(orbits.gather(vals), 1, orbits.sizes) - full) <= (
        10 * np.finfo(float).eps * full)


def test_trajectory_boundary_mass_is_the_per_snapshot_maximum():
    window, cfg = free_config(M=10, dt=1e-2, d=2)
    traj = evolve(LatticeField.delta(window), cfg)
    traj.orbit_values[0] = 0.0  # a zero snapshot counts as no boundary mass
    trivial = SiteOrbits(window)  # the full-window fraction of each unfolded snapshot
    per_snapshot = max(boundary_mass_fraction(trivial.gather(v), trivial) for v in traj.values)
    assert per_snapshot > 1e-12
    assert traj.boundary_mass() == pytest.approx(per_snapshot, rel=1e-13)


def test_block_refinement_solves_counted_then_bounded():
    # the block system A^k u' = B^k u keeps the residual contract of one step
    window, cfg = free_config(M=12, dt=1e-2)
    orbits = SiteOrbits(window)
    u0 = LatticeField.delta(window).values.ravel().astype(complex)
    stepper = Stepper(orbits, cfg.potential, cfg.dt, (16,))
    _, B, lu = stepper.blocks[16]
    near_A = Stepper(orbits, cfg.potential, cfg.dt * (1 + 1e-4), (16,)).blocks[16][0]
    stepper.blocks[16] = (near_A, B, lu)
    stepper.step(u0, 16)
    assert 1 <= stepper.refinement_solves <= 3
    assert 0.0 < stepper.max_relative_residual <= 1e-12

    far_A = Stepper(orbits, cfg.potential, 2 * cfg.dt, (16,)).blocks[16][0]
    stepper.blocks[16] = (far_A, B, CountingLU(lu))
    with pytest.raises(SolverDivergenceError):
        stepper.step(u0, 16)
    assert stepper.blocks[16][2].solves == 4  # the solve and three refinements


# The benchmark's d = 2 chain: its lattice sums must not wake a BLAS thread
# pool, whose woken thread busy-waits between calls and doubles the CPU time.
# scipy is imported before the clock starts: loading its own BLAS is a
# once-per-process cost that this does not guard.  Loading numpy's and
# scipy's BLAS starts their worker threads busy-waiting for 50-100 ms, so the
# clock starts after they have gone idle; a chain of about 0.2 s would
# otherwise read up to 1.35 from that load alone.
_CPU_PROBE = """
import time
import scipy.sparse.linalg
from carleman import experiments as xp
from carleman.evolution import EvolutionConfig, evolve, make_decaying_datum, normalize_observation
from carleman.lattice import LatticeWindow, Potential
time.sleep(0.5)
wall, cpu = time.perf_counter(), time.process_time()
window = LatticeWindow(2, 64)
cfg = EvolutionConfig(dt=1e-2, T=1.0, window=window, potential=Potential.alternating(window))
traj = evolve(make_decaying_datum(window, ("delta",)), cfg)
xp.lambda_scan(normalize_observation(traj), xp.ExperimentConfig())
xp.log_convexity_check(traj, xp.beta_grid(2.0, 2), xp.ExperimentConfig(L=1.0))
print((time.process_time() - cpu) / (time.perf_counter() - wall))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one core: no idle thread to spin")
def test_d2_evolution_and_scans_use_about_one_core():
    src = str(Path(carleman.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    result = subprocess.run([sys.executable, "-c", _CPU_PROBE], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert float(result.stdout) < 1.3


@pytest.mark.parametrize("d, M", [(1, 10), (2, 8), (3, 5)])
def test_values_view_unfolds_what_it_indexes_bit_for_bit(d, M):
    window = LatticeWindow(d, M)
    cfg = EvolutionConfig(dt=1e-2, T=0.1, window=window, potential=Potential.alternating(window),
                          store_every=2)
    traj = evolve(make_decaying_datum(window, ("bessel_like", 1.0)), cfg)
    assert traj.orbits.symmetric  # the radial datum keeps the full group
    full = traj.orbits.unfold(traj.orbit_values)
    view = traj.values
    assert len(view) == traj.n_stored == 6
    assert view.shape == full.shape == (6,) + window.shape
    assert np.array_equal(np.asarray(view), full)
    for got, want in itertools.zip_longest(view, full):
        assert np.array_equal(got, want)
    mid = (M,) * d  # the site j = 0
    for key in [0, 3, -1, -6, np.int64(2), slice(None), slice(1, 5), slice(None, None, -2),
                [0, 5, 2, 2], np.array([[1, 0], [4, 4]]), np.arange(6) % 2 == 0]:
        assert np.array_equal(view[key], full[key]), key
    with pytest.raises(IndexError):
        view[6]
    with pytest.raises(TypeError):  # a tuple would index the orbit axis
        view[(2, *mid)]


def test_values_view_refuses_a_copy_free_array():
    window, cfg = free_config(M=6, dt=1e-2, d=2)
    view = evolve(LatticeField.delta(window), cfg).values
    assert np.array(view, copy=True).shape == view.shape
    with pytest.raises(ValueError):
        np.asarray(view, copy=False)


def test_reading_one_snapshot_allocates_one_snapshot():
    # d = 2, M = 64, 101 stored nodes: all of them unfolded are 26.9 MB
    import tracemalloc

    window, cfg = free_config(M=64, dt=1e-2, d=2)
    traj = evolve(LatticeField.delta(window), cfg)
    assert traj.n_stored == 101
    tracemalloc.start()
    try:
        last = traj.values[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(last, traj.orbits.unfold(traj.orbit_values[-1]))
    assert peak <= 2 * window.site_count * 16

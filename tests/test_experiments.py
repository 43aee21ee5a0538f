import itertools
import math

import numpy as np
import pytest

from carleman.evolution import (EvolutionConfig, Trajectory, evolve, make_decaying_datum,
                                normalize_observation)
from carleman.experiments import (ExperimentConfig, beta_grid, k_bessel_weight_check,
                                  lambda_scan, log_convexity_check,
                                  log_convexity_stability, norm_star_equivalence,
                                  weighted_uniqueness_threshold)
from carleman.lattice import LatticeField, LatticeWindow, Potential, SiteOrbits, star_log_weight
from carleman.logscalar import NEG_INF


def free_delta_trajectory(M=34, dt=1e-3, store_every=5):
    window = LatticeWindow(1, M)
    cfg = EvolutionConfig(dt=dt, T=1.0, window=window,
                          potential=Potential.zero(window), store_every=store_every)
    return normalize_observation(evolve(LatticeField.delta(window), cfg))


def star_decay_field(window, mu):
    """u_j = e^{-mu |j| log(|j|+1)}, exact zeros where that underflows."""
    log_vals = star_log_weight(np.sqrt(window.radius_sq), -mu)
    return LatticeField.from_values(window, np.where(log_vals >= -745.0, np.exp(log_vals), 0.0))


def resting_trajectory(window, n_times=11):
    """A trajectory that stays at the delta datum: every ring R >= 3 is empty."""
    times = np.linspace(0.0, 1.0, n_times)
    orbits = SiteOrbits(window)
    delta = orbits.gather(LatticeField.delta(window).values)
    orbit_values = np.repeat(delta[None], n_times, axis=0)
    return Trajectory(orbits, times, orbit_values, np.zeros(n_times), config=None)


def test_lambda_scan_zero_field_vacuous():
    window = LatticeWindow(1, 20)
    field = LatticeField.from_values(window, np.zeros(window.shape))
    out = lambda_scan(field, ExperimentConfig(R_list=(8, 12, 16)))
    assert out.get("vacuous", False)
    assert all(r.log_lambda == NEG_INF for r in out["rows"])


def test_lambda_scan_free_evolution_prefers_RlogR(free_traj=None):
    traj = free_traj or free_delta_trajectory()
    out = lambda_scan(traj, ExperimentConfig(R_list=tuple(range(8, 29))))
    fits = out["fits"]
    assert fits["R_logR"].residual < fits["R_sq"].residual
    assert out["best_model"] == "R_logR"
    assert all(out["lower_bound_holds_per_row"])
    assert out["boundary_mass"] < 1e-12


def test_lambda_scan_scaling_covariance():
    traj = free_delta_trajectory(M=20, dt=2e-3)
    cfg = ExperimentConfig(R_list=(8, 10, 12, 14, 16))
    base = lambda_scan(traj, cfg)
    scaled = lambda_scan(traj.scaled(7.5), cfg)
    for a, b in zip(base["rows"], scaled["rows"]):
        assert b.log_lambda == pytest.approx(a.log_lambda + math.log(7.5), abs=1e-10)
    assert scaled["fits"]["R_logR"].exponent_constant == pytest.approx(
        base["fits"]["R_logR"].exponent_constant, abs=1e-9)


def test_lambda_monotone_under_domination():
    window = LatticeWindow(1, 20)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(window.shape)
    v = np.abs(u) + np.abs(rng.standard_normal(window.shape))
    cfg = ExperimentConfig(R_list=(5, 9, 13))
    su = lambda_scan(LatticeField.from_values(window, u), cfg)
    sv = lambda_scan(LatticeField.from_values(window, v), cfg)
    for a, b in zip(su["rows"], sv["rows"]):
        assert a.log_lambda <= b.log_lambda + 1e-12


def test_lambda_scan_window_doubling_invariance():
    mu = 1.0
    cfg = ExperimentConfig(R_list=(8, 12, 16, 20), mu=mu)
    small = lambda_scan(star_decay_field(LatticeWindow(1, 24), mu), cfg)
    big = lambda_scan(star_decay_field(LatticeWindow(1, 48), mu), cfg)
    for a, b in zip(small["rows"], big["rows"]):
        assert a.log_lambda == pytest.approx(b.log_lambda, abs=1e-10)


def test_stationary_geometric_field_prefers_linear_model():
    # 2^{-(|j1|+|j2|)}-type decay shows the plain-exponential signature
    window = LatticeWindow(2, 26)
    r1 = np.abs(window.coordinate(0))
    r2 = np.abs(window.coordinate(1))
    field = LatticeField.from_values(window, np.exp2(-(r1 + r2)).astype(complex))
    out = lambda_scan(field, ExperimentConfig(R_list=tuple(range(6, 24, 2))))
    assert out["best_model"] == "R_linear"


def test_synthetic_star_decay_slope_matches_mu():
    mu = 2.0
    window = LatticeWindow(1, 44)
    cfg = ExperimentConfig(R_list=tuple(range(10, 41, 2)), mu=mu)
    out = lambda_scan(star_decay_field(window, mu), cfg)
    assert out["fits"]["R_logR"].exponent_constant == pytest.approx(mu, rel=0.05)


def test_threshold_mu_zero_reports_no_contradiction():
    out = weighted_uniqueness_threshold(resting_trajectory(LatticeWindow(1, 20)),
                                        ExperimentConfig(mu=0.0))
    assert out["contradiction"] is False


def test_threshold_evolved_bessel_datum_finite_ratio():
    window = LatticeWindow(1, 34)
    cfg_e = EvolutionConfig(dt=2e-3, T=1.0, window=window,
                            potential=Potential.zero(window), store_every=5)
    datum = make_decaying_datum(window, ("bessel_like", 3.0))
    traj = normalize_observation(evolve(datum, cfg_e))
    cfg = ExperimentConfig(R_list=tuple(range(10, 29, 2)), mu=3.0, L=0.0)
    out = weighted_uniqueness_threshold(traj, cfg)
    assert out["mode"] == "evolution"
    assert math.isfinite(out["critical_ratio"])
    assert 0.0 < out["c0_emp"] <= 1.0


def test_log_convexity_free_evolution_never_exceeds_one():
    traj = free_delta_trajectory(M=48, dt=1e-3, store_every=10)
    cfg = ExperimentConfig(L=0.0)
    out = log_convexity_check(traj, beta_grid(2.0, 1), cfg)
    assert out["max_rho_minus_one"] <= 1e-10


def test_log_convexity_beta_zero_is_half():
    traj = free_delta_trajectory(M=24, dt=2e-3)
    out = log_convexity_check(traj, [np.array([0.0])], ExperimentConfig(L=0.0))
    # norm conservation: rho(0, t) = 1/2 exactly
    for row in out["rows"]:
        assert row["log_rho"] == pytest.approx(math.log(0.5), abs=1e-9)


def test_log_convexity_stability_under_beta_doubling():
    window = LatticeWindow(1, 48)
    cfg_e = EvolutionConfig(dt=1e-3, T=1.0, window=window,
                            potential=Potential.alternating(window), store_every=10)
    traj = evolve(LatticeField.delta(window), cfg_e)
    out = log_convexity_stability(traj, 1.0, ExperimentConfig(L=1.0))
    assert out["stable"]
    # the evolution never exceeds its endpoints (C_emp <= 0), so the gate says nothing
    assert out["C_emp_base"] <= 0 and out["vacuous"] is True


def test_norm_star_d1_exact():
    out = norm_star_equivalence(1, 100)
    assert out["sup_ratio"] == 1.0 and out["inf_ratio"] == 1.0 and out["c_d"] == 1.0


def test_norm_star_d2_axis_attains_sup():
    out = norm_star_equivalence(2, 300)
    assert out["sup_ratio"] == pytest.approx(1.0, abs=1e-12)  # axis points give exactly 1
    assert out["arg_sup"][1] == 0
    # diagonal points are the extremal candidates for the infimum
    assert out["arg_inf"][0] == out["arg_inf"][1] == 300
    expected_inf = math.sqrt(2) * 300 * math.log(math.sqrt(2) * 300 + 1) / (2 * 300 * math.log(301))
    assert out["inf_ratio"] == pytest.approx(expected_inf, rel=1e-12)
    assert out["c_d"] == pytest.approx(1.0 / expected_inf, rel=1e-12)


def octant_oracle(d, j_max):
    """Brute force over every site j_max >= j_1 >= ... >= j_d >= 0, j_1 >= 1,
    in lexicographic order; the args are the first sites to attain the
    extremes."""
    sites = np.array([j for j in itertools.product(range(j_max + 1), repeat=d)
                      if j[0] >= 1 and all(a >= b for a, b in zip(j, j[1:]))], dtype=float)
    r = np.sqrt(np.sum(sites**2, axis=1))
    star = sites[:, 0] * np.log(sites[:, 0] + 1.0)
    for k in range(1, d):
        star = star + sites[:, k] * np.log(sites[:, k] + 1.0)
    ratios = r * np.log(r + 1.0) / star
    hi, lo = int(np.argmax(ratios)), int(np.argmin(ratios))
    sup_r, inf_r = float(ratios[hi]), float(ratios[lo])
    return {"d": d, "j_max": j_max, "sup_ratio": sup_r, "inf_ratio": inf_r,
            "arg_sup": tuple(int(x) for x in sites[hi]),
            "arg_inf": tuple(int(x) for x in sites[lo]), "c_d": max(sup_r, 1.0 / inf_r)}


def test_norm_star_d3_runs():
    out = norm_star_equivalence(3, 24)
    assert out == octant_oracle(3, 24)
    assert out["sup_ratio"] >= 1.0 - 1e-12
    assert 0.4 < out["inf_ratio"] < 1.0


@pytest.mark.parametrize("d, j_max", [(2, 10), (2, 57), (3, 13), (4, 10), (4, 14)])
def test_norm_star_matches_octant_oracle(d, j_max):
    assert norm_star_equivalence(d, j_max) == octant_oracle(d, j_max)


@pytest.mark.parametrize("d, j_max, arg_sup, arg_inf", [
    (2, 10_000, (1, 0), (10_000, 10_000)),  # normstar's defaults
    (3, 200, (1, 0, 0), (200, 200, 200)),
])
def test_norm_star_extremes_at_the_cli_scales(d, j_max, arg_sup, arg_inf):
    # too large for the brute-force octant oracle: the sup on the first axis
    # site, the inf at the diagonal corner, as the scan has always reported
    out = norm_star_equivalence(d, j_max)
    assert (out["arg_sup"], out["arg_inf"]) == (arg_sup, arg_inf)
    r = math.sqrt(d) * j_max
    assert out["inf_ratio"] == pytest.approx(r * math.log1p(r) / (d * j_max * math.log1p(j_max)),
                                             rel=1e-12)


def test_k_bessel_identity_and_growth():
    out = k_bessel_weight_check(1.0, (5, 10, 20), growth_j=range(20, 201, 10))
    assert out["max_defect"] < 1e-8
    assert out["substitution_constant"] == 2.0
    assert abs(out["growth_exponent"] - 1.0) < 0.1


def test_threshold_vacuous_scan_reported_not_raised():
    # a trajectory resting at the origin has empty rings
    for d in (1, 2):
        traj = resting_trajectory(LatticeWindow(d, 20))
        out = weighted_uniqueness_threshold(traj, ExperimentConfig(R_list=(8, 12, 16), mu=1.0))
        assert out["vacuous"] is True and out["reason"]
        assert "c_low_fit" not in out


def test_log_convexity_stability_vacuous_flag():
    # |u(t)| = f(t) |u(0)| with f larger inside (0, 1) than at the ends gives
    # log rho = log(f^2 / (f(0)^2 + f(1)^2)) > 0, so the gate is not vacuous
    window = LatticeWindow(1, 12)
    times = np.linspace(0.0, 1.0, 21)
    f = 1.0 + 4.0 * times * (1.0 - times)
    orbit_values = f[:, None] * LatticeField.delta(window).values[None]  # d = 1: one site an orbit
    traj = Trajectory(SiteOrbits(window), times, orbit_values.astype(complex), np.log(f),
                      config=None)
    out = log_convexity_stability(traj, 1.0, ExperimentConfig(L=1.0))
    assert out["C_emp_base"] == pytest.approx(math.log(4.0 / 2.0), abs=1e-12)
    assert out["vacuous"] is False and out["stable"]

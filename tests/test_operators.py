import math

import numpy as np
import pytest

from carleman.errors import SupportViolationError
from carleman.lattice import LatticeWindow, laplacian_values
from carleman.operators import (OperatorCoefficients, SpaceTimeField,
                                absorption_threshold, apply_a, apply_s,
                                apply_s_plus_a, carleman_constant_batch,
                                carleman_ratio, commutator_check,
                                commutator_lhs, commutator_quadratic_form,
                                conjugation_check, conjugation_oracle,
                                hiding_sides, inner,
                                log_cosh, log_sinh, make_time_grid,
                                minimal_hiding_constant, phi_rate_scan,
                                random_admissible_field, random_tensor_field,
                                symmetry_check, symmetry_defects)
from carleman.profiles import TimeProfile, WeightSpec


def make_setup(d=1, R=6.0, M=12, phi=None, alpha=None, c_rule=2.0, n_nodes=20, seed=0):
    phi = phi if phi is not None else TimeProfile.zero()
    alpha = alpha if alpha is not None else c_rule * R * math.log(R)
    spec = WeightSpec(alpha=alpha, R=R, phi=phi, d=d, c_rule=c_rule)
    window = LatticeWindow(d, M)
    grid = make_time_grid(n_nodes)
    co = OperatorCoefficients(spec, window, grid)
    rng = np.random.default_rng(seed)
    f = random_tensor_field(window, grid, rng)
    return spec, window, grid, co, f


def test_alpha_zero_S_collapses_to_free_operator():
    spec, window, grid, co, f = make_setup(alpha=0.0, phi=TimeProfile.paper())
    sf = apply_s(f, co)
    expected = 1j * f.dvalues + laplacian_values(f.values.astype(complex, copy=True), window.d)
    assert np.max(np.abs(sf.values - expected)) < 1e-12 * np.max(np.abs(expected))


def test_alpha_zero_A_vanishes():
    spec, window, grid, co, f = make_setup(alpha=0.0, phi=TimeProfile.paper())
    af = apply_a(f, co)
    assert np.max(np.abs(af.values)) == 0.0


def test_constant_phi_A_diagonal_vanishes():
    spec, window, grid, co, f = make_setup(phi=TimeProfile.constant(3.0), d=1, R=5.0, M=8)
    assert np.max(np.abs(co.theta)) == 0.0
    assert np.max(np.abs(co.theta_dot)) == 0.0


def test_stationary_coefficients_time_independent():
    spec, window, grid, co, f = make_setup(phi=TimeProfile.constant(1.0))
    h = f.values[0]
    still = SpaceTimeField(window, grid, np.broadcast_to(h, f.values.shape).copy(),
                           np.zeros_like(f.values))
    sf = apply_s(still, co)
    spread = np.max(np.abs(sf.values - sf.values[0]))
    assert spread <= 1e-12 * np.max(np.abs(sf.values))


def test_conjugation_identity_zero_profile_absolute():
    spec, window, grid, co, f = make_setup(d=1, R=6.0, M=10, phi=TimeProfile.zero())
    lhs = apply_s_plus_a(f, co)
    rhs = conjugation_oracle(f, spec)
    diff = np.sqrt(np.dot(grid.weights, np.sum(np.abs(lhs.values - rhs.values) ** 2, axis=1)))
    assert diff <= 1e-9 * f.norm()


def test_conjugation_identity_paper_profile_relative():
    spec, window, grid, co, f = make_setup(d=1, R=6.0, M=10, phi=TimeProfile.paper())
    lhs = apply_s_plus_a(f, co)
    rhs = conjugation_oracle(f, spec)
    num = np.sqrt(np.dot(grid.weights, np.sum(np.abs(lhs.values - rhs.values) ** 2, axis=1)))
    assert num <= 1e-9 * max(lhs.norm(), rhs.norm())


def test_conjugation_check_api_d2():
    phi = TimeProfile.paper()
    spec = WeightSpec.from_rule(5.0, phi, 2)
    report = conjugation_check(spec, LatticeWindow(2, 9), trials=5, seed=11, n_nodes=16)
    assert report["defect_relative"] < 1e-9


def test_symmetry_and_skew_defects_zero_profile_zero_alpha():
    spec, window, grid, co, _ = make_setup(alpha=0.0)
    rng = np.random.default_rng(3)
    f = random_tensor_field(window, grid, rng)
    g = random_tensor_field(window, grid, rng)
    s_def, a_def = symmetry_defects(f, g, co)
    assert s_def < 1e-12
    assert a_def == 0.0


def test_skew_diagonal_means_real_part_vanishes():
    # A skew => Re<Af, f> = 0 relative to |<Af, f>|
    spec, window, grid, co, f = make_setup(d=1, R=8.0, M=12, phi=TimeProfile.paper())
    af = apply_a(f, co)
    val = inner(af, f)
    assert abs(val.real) <= 1e-12 * abs(val)


def test_symmetry_check_passes_on_rule_alpha():
    phi = TimeProfile.paper()
    spec = WeightSpec.from_rule(8.0, phi, 2)
    report = symmetry_check(spec, LatticeWindow(2, 12), trials=8, seed=5, n_nodes=16)
    assert report["symmetry"]["pass"] and report["skewness"]["pass"]
    assert report["symmetry"]["defect"] < 1e-9


def test_symmetry_defect_detects_broken_half_shift():
    # corrupting the half-integer shift must blow the bond pairing up
    spec, window, grid, co, _ = make_setup(d=1, R=6.0, M=10, phi=TimeProfile.constant(1.0))
    co.bm[0] = co.bm[0] * (1.0 + 1e-7)
    rng = np.random.default_rng(9)
    f = random_tensor_field(window, grid, rng)
    g = random_tensor_field(window, grid, rng)
    s_def, _ = symmetry_defects(f, g, co)
    assert s_def > 1e-9


def test_commutator_identity_random_fields():
    for d, R, M in ((1, 6.0, 10), (2, 5.0, 9)):
        phi = TimeProfile.paper()
        spec = WeightSpec.from_rule(R, phi, d)
        window = LatticeWindow(d, M)
        grid = make_time_grid(16)
        co = OperatorCoefficients(spec, window, grid)
        for seed in range(3):
            f = random_tensor_field(window, grid, np.random.default_rng(seed))
            lhs = commutator_lhs(f, co)
            rhs = commutator_quadratic_form(f, co)
            assert abs(lhs - rhs) <= 1e-8 * (abs(lhs) + f.norm_sq())


def test_commutator_form_constant_phi_nonnegative():
    spec, window, grid, co, _ = make_setup(d=1, R=7.0, M=10, phi=TimeProfile.constant(3.0))
    for seed in range(20):
        f = random_tensor_field(window, grid, np.random.default_rng(seed))
        form = commutator_quadratic_form(f, co)
        assert form >= -1e-12 * f.norm_sq()


def test_commutator_form_vanishes_linearly_with_alpha():
    # every term carries sinh(2 alpha/R^2) or an explicit alpha factor
    _, window, grid, _, f = make_setup(alpha=1.0, phi=TimeProfile.paper())
    forms = []
    for alpha in (1e-4, 1e-6, 1e-8):
        spec = WeightSpec(alpha=alpha, R=6.0, phi=TimeProfile.paper(), d=1)
        co = OperatorCoefficients(spec, window, grid)
        forms.append(abs(commutator_quadratic_form(f, co)))
    assert forms[1] <= 1.01e-2 * forms[0]
    assert forms[2] <= 1.01e-2 * forms[1]


def test_commutator_check_api():
    phi = TimeProfile.paper()
    spec = WeightSpec.from_rule(6.0, phi, 1)
    report = commutator_check(spec, LatticeWindow(1, 10), trials=6, seed=2, n_nodes=16)
    assert report["identity"]["pass"]
    assert report["lower_bound"]["pass"]


# --- hiding inequalities and the absorption threshold ---------------------


def test_hiding_reduction_alpha_equals_R_squared():
    # at alpha = R^2, s = 1 inequality A reduces to
    # e^{alpha/R^2 + 2 alpha/R} >= 16 (alpha/R) sup_d1: direct log comparison
    R, sup1 = 40.0, 48.0
    alpha = R * R
    lhs = alpha / R**2 + 2.0 * alpha / R
    rhs = math.log(16.0 * alpha / R * sup1)
    assert lhs >= rhs
    sides = hiding_sides(alpha, R, 1, sup1, 1843.0, 1.0)
    assert sides["log_lhs"] >= sides["log_rhs_A"]


def test_hiding_vacuous_for_constant_phi():
    scan = minimal_hiding_constant(1, 10.0, TimeProfile.constant(3.0), np.linspace(1.0, 4.0, 50))
    assert scan == {"min_c": 0.0, "vacuous": True}


def test_minimal_c_nonincreasing_in_R():
    phi = TimeProfile.paper()
    grid_s = np.linspace(1.0, 5.0, 200)
    cs = [minimal_hiding_constant(1, R, phi, grid_s)["min_c"] for R in (10.0, 20.0, 40.0, 80.0)]
    assert all(math.isfinite(c) for c in cs)
    assert all(b <= a + 1e-9 for a, b in zip(cs[1:], cs[2:]))


def test_absorption_threshold_alpha_R_squared():
    # alpha = R^2, d=1: left side sinh(2) sinh^2(2R) ultimately beats any L
    assert absorption_threshold(100.0**2, 100.0, 10.0, 1)


def test_phi_rate_scan_dichotomy_d2():
    Rs = [10.0**k for k in range(2, 7)]
    sqrt_rows = phi_rate_scan("sqrt_log", 1.0, 1.0, 2, Rs)
    log_rows = phi_rate_scan("log", 1.0, 1.0, 2, Rs)
    assert all(not r["holds"] for r in sqrt_rows if r["R"] >= 1e4)
    assert all(r["holds"] for r in log_rows)


def test_log_sinh_cosh_helpers():
    for x in (1e-6, 0.5, 5.0, 400.0):
        if x <= 350:
            assert log_sinh(x) == pytest.approx(math.log(math.sinh(x)), rel=1e-12)
            assert log_cosh(x) == pytest.approx(math.log(math.cosh(x)), rel=1e-12)
        else:
            assert log_sinh(x) == pytest.approx(x - math.log(2), rel=1e-14)


# --- empirical Carleman constant ------------------------------------------


def test_carleman_ratio_support_violation():
    spec = WeightSpec.from_rule(6.0, TimeProfile.zero(), 1)
    window = LatticeWindow(1, 12)
    grid = make_time_grid(12)
    f = random_tensor_field(window, grid, np.random.default_rng(0))  # mass at origin
    with pytest.raises(SupportViolationError):
        carleman_ratio(spec, f)


def test_carleman_batch_stable_across_seeds():
    spec = WeightSpec.from_rule(6.0, TimeProfile.zero(), 1)
    window = LatticeWindow(1, 14)
    a = carleman_constant_batch(spec, window, trials=60, seed=101, n_nodes=12)
    b = carleman_constant_batch(spec, window, trials=60, seed=202, n_nodes=12)
    assert abs(a["c_emp"] - b["c_emp"]) <= 0.1 * max(a["c_emp"], b["c_emp"])


def test_carleman_stationary_profile_admits_near_origin_support():
    # phi == 3 keeps sites near the origin admissible: |j/R + 3 e_1| >= 1 there
    spec = WeightSpec(alpha=3.0, R=6.0, phi=TimeProfile.constant(3.0), d=1, c_rule=2.0)
    window = LatticeWindow(1, 10)
    grid = make_time_grid(12)
    g = random_admissible_field(spec, window, grid, np.random.default_rng(4))
    origin = window.index_of([0])
    assert np.any(np.abs(g.values[(slice(None),) + origin]) > 0)
    assert carleman_ratio(spec, g) > 0


def test_carleman_batch_deterministic():
    spec = WeightSpec.from_rule(6.0, TimeProfile.zero(), 1)
    window = LatticeWindow(1, 12)
    a = carleman_constant_batch(spec, window, trials=10, seed=7, n_nodes=10)
    b = carleman_constant_batch(spec, window, trials=10, seed=7, n_nodes=10)
    assert a["ratios"] == b["ratios"]

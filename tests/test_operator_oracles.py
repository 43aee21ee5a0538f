"""The trial-batched operator checks against the per-trial loops they replaced.

The oracles below draw each trial's fields with np.polynomial.Polynomial,
project them onto the admissible set explicitly and evaluate the weighted
norms one time node at a time, then loop over trials exactly as the checks
used to.  Carleman ratios and minimal hiding constants must agree bit for bit.
The identity-check defects are rounding residuals already normalized by the
fields' own scale, so they must agree to 1e-15 in that unit: their leading
digits can move when a block's numpy temporaries round differently.
"""

import math

import numpy as np
import pytest

from carleman import operators
from carleman.errors import SupportViolationError, ToleranceExceededError
from carleman.lattice import LatticeWindow, laplacian_values, log_abs_sq
from carleman.logscalar import tree_logsumexp
from carleman.operators import (OperatorCoefficients, SpaceTimeField, admissible_site_mask,
                                apply_a, apply_s, apply_s_plus_a, carleman_constant_batch,
                                carleman_ratio, commutator_check, commutator_lhs,
                                commutator_quadratic_form, conjugation_check,
                                conjugation_oracle, hiding_sides, log_cosh, log_sinh,
                                make_time_grid, minimal_hiding_constant, symmetry_check,
                                symmetry_defects)
from carleman.profiles import TimeProfile, WeightSpec, weight_log_magnitude

N_NODES = 8
PROFILES = {"zero": TimeProfile.zero(), "paper": TimeProfile.paper(),
            "constant": TimeProfile.constant(1.0)}
WINDOWS = {1: (6.0, 12), 2: (4.0, 6)}  # d: (R, M)
DEFECT_TOL = 1e-15


def old_tensor_field(window, grid, rng, support_margin=3, site_mask=None):
    poly = np.polynomial.Polynomial
    psi = poly([0.0, 0.0, 1.0, -2.0, 1.0]) * poly(rng.standard_normal(4)
                                                  + 1j * rng.standard_normal(4))
    h = rng.standard_normal(window.shape) + 1j * rng.standard_normal(window.shape)
    inf_norm = np.zeros(window.shape)
    for k in range(window.d):
        inf_norm = np.maximum(inf_norm, np.abs(window.coordinate(k)))
    h[inf_norm > window.M - support_margin] = 0.0
    if site_mask is not None:
        h = h * site_mask
    t = grid.nodes
    return SpaceTimeField(window, grid, np.multiply.outer(psi(t), h),
                          np.multiply.outer(psi.deriv(1)(t), h),
                          np.multiply.outer(psi.deriv(2)(t), h))


def old_admissible_field(spec, window, grid, rng):
    hard, ramp = admissible_site_mask(spec, window)
    f = old_tensor_field(window, grid, rng, support_margin=2, site_mask=ramp)
    for values in (f.values, f.dvalues, f.ddvalues):
        values[:, ~hard] = 0.0
    return f


def old_carleman_ratio(spec, g):
    window, grid = g.window, g.grid
    hard, _ = admissible_site_mask(spec, window)
    total = np.sum(np.abs(g.values) ** 2)
    if total == 0.0:
        raise SupportViolationError("g vanishes identically")
    if float(np.sum(np.abs(g.values[:, ~hard]) ** 2)) / float(total) > 1e-14:
        raise SupportViolationError("mass outside the admissible set")
    coords = [window.coordinate(k).astype(float)[np.newaxis, ...] for k in range(window.d)]
    phi_t = np.asarray(spec.phi.value(grid.nodes)).reshape((len(grid.nodes),) + (1,) * window.d)
    log_w = weight_log_magnitude(spec, coords, phi_t) + np.zeros((len(grid.nodes),) + window.shape)
    pg = 1j * g.dvalues + laplacian_values(g.values.astype(complex, copy=True), window.d)

    def log_norm(values):
        per_node = [tree_logsumexp(2.0 * log_w[n] + log_abs_sq(values[n]))
                    for n in range(len(grid.nodes))]
        return 0.5 * tree_logsumexp(np.array(per_node) + np.log(grid.weights))

    factor_log = 0.5 * log_sinh(2.0 * spec.alpha / spec.R**2) + log_sinh(
        2.0 * spec.alpha / (math.sqrt(spec.d) * spec.R))
    return math.exp(factor_log + log_norm(g.values) - log_norm(pg))


def old_carleman_ratios(spec, window, trials, seed):
    grid = make_time_grid(N_NODES)
    ratios = []
    for trial in range(trials):
        g = old_admissible_field(spec, window, grid, np.random.default_rng((seed, trial)))
        if np.sum(np.abs(g.values) ** 2) == 0.0:
            continue
        ratios.append(old_carleman_ratio(spec, g))
    return ratios


def old_symmetry(spec, window, trials, seed):
    grid = make_time_grid(N_NODES)
    co = OperatorCoefficients(spec, window, grid)
    worst_sym = worst_skew = 0.0
    worst_trial = -1
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        f = old_tensor_field(window, grid, rng)
        g = old_tensor_field(window, grid, rng)
        s_def, a_def = symmetry_defects(f, g, co)
        if max(s_def, a_def) > max(worst_sym, worst_skew):
            worst_trial = trial
        worst_sym = max(worst_sym, s_def)
        worst_skew = max(worst_skew, a_def)
    return worst_sym, worst_skew, worst_trial


def old_commutator(spec, window, trials, seed, rel_tolerance=1e-8):
    grid = make_time_grid(N_NODES)
    co = OperatorCoefficients(spec, window, grid)
    worst_ratio, worst_trial, cs_ok = 0.0, -1, True
    for trial in range(trials):
        f = old_tensor_field(window, grid, np.random.default_rng((seed, trial)))
        lhs = commutator_lhs(f, co)
        rhs = commutator_quadratic_form(f, co)
        scale = abs(lhs) + f.norm_sq()
        ratio = abs(lhs - rhs) / scale
        if ratio > worst_ratio:
            worst_ratio, worst_trial = ratio, trial
        total = SpaceTimeField(window, grid, apply_s(f, co).values + apply_a(f, co).values)
        if total.norm_sq() < lhs - rel_tolerance * scale:
            cs_ok = False
    return worst_ratio, worst_trial, cs_ok


def old_conjugation(spec, window, trials, seed):
    grid = make_time_grid(N_NODES)
    co = OperatorCoefficients(spec, window, grid)
    worst_abs = worst_rel = 0.0
    for trial in range(trials):
        f = old_tensor_field(window, grid, np.random.default_rng((seed, trial)))
        lhs = apply_s_plus_a(f, co)
        rhs = conjugation_oracle(f, spec)
        nd = SpaceTimeField(window, grid, lhs.values - rhs.values).norm()
        worst_abs = max(worst_abs, nd / f.norm())
        worst_rel = max(worst_rel, nd / max(lhs.norm(), rhs.norm()))
    return worst_abs, worst_rel


def old_hiding_constant(d, R, phi, s_grid, c_lo=1e-3, c_hi=64.0):
    """The scalar bisection, testing every grid point at every step."""
    def sides(alpha, s):
        lhs = log_sinh(2.0 * alpha / R**2) + 2.0 * log_sinh(2.0 * alpha * s / R)
        rhs_a = (math.log(8.0 * alpha * phi.sup_d1 / R) + log_cosh(alpha / R**2)
                 + log_cosh(2.0 * alpha * s / R)) if phi.sup_d1 > 0 else -math.inf
        rhs_b = math.log(2.0 * alpha * phi.sup_d2 * s) if phi.sup_d2 > 0 else -math.inf
        return lhs, rhs_a, rhs_b

    def holds(c):
        alpha = c * R * math.log(R)
        for s in s_grid:
            lhs, rhs_a, rhs_b = sides(alpha, float(s))
            if lhs < max(rhs_a, rhs_b):
                return False
        return True

    if phi.sup_d1 == 0.0 and phi.sup_d2 == 0.0:
        return 0.0
    if not holds(c_hi):
        return math.inf
    lo, hi = c_lo, c_hi
    if holds(lo):
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def setup(d, phi):
    R, M = WINDOWS[d]
    return WeightSpec.from_rule(R, PROFILES[phi], d), LatticeWindow(d, M)


@pytest.fixture
def block_of_four(monkeypatch):
    """Blocks of four trials on any window the test passes."""
    def use(window):
        monkeypatch.setattr(operators, "BLOCK_VALUES", 4 * N_NODES * window.site_count)
    return use


CASES = [(d, phi, trials) for d in (1, 2) for phi in PROFILES for trials in (3, 4, 5)]


@pytest.mark.parametrize("d, phi, trials", CASES)
def test_carleman_batch_matches_per_trial_loop(d, phi, trials, block_of_four):
    spec, window = setup(d, phi)
    block_of_four(window)
    batch = carleman_constant_batch(spec, window, trials, seed=31, n_nodes=N_NODES)
    assert batch["ratios"] == old_carleman_ratios(spec, window, trials, seed=31)
    assert len(batch["ratios"]) == trials


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_carleman_batch_across_the_default_block(offset):
    spec, window = setup(1, "zero")
    trials = operators.BLOCK_VALUES // (N_NODES * window.site_count) + offset
    batch = carleman_constant_batch(spec, window, trials, seed=5, n_nodes=N_NODES)
    assert batch["ratios"] == old_carleman_ratios(spec, window, trials, seed=5)


def test_all_zero_admissible_fields_are_skipped(block_of_four):
    # phi = 0.700269 leaves one admissible site inside the margin (j = 3), whose
    # ramp ~1e-161 makes |g|^2 underflow to 0 for most draws: trial 0 is all zero
    spec = WeightSpec(alpha=3.0, R=10.0, phi=TimeProfile.constant(0.700269), d=1)
    window = LatticeWindow(1, 5)
    block_of_four(window)
    grid = make_time_grid(N_NODES)
    first = old_admissible_field(spec, window, grid, np.random.default_rng((0, 0)))
    assert np.sum(np.abs(first.values) ** 2) == 0.0
    batch = carleman_constant_batch(spec, window, 12, seed=0, n_nodes=N_NODES)
    oracle = old_carleman_ratios(spec, window, 12, seed=0)
    assert batch["ratios"] == oracle
    assert 0 < len(oracle) < 12


def test_no_admissible_field_raises():
    # phi == 0, R = 6 on M = 7: the admissible |j| >= 6 lies inside the margin
    spec = WeightSpec.from_rule(6.0, TimeProfile.zero(), 1)
    with pytest.raises(SupportViolationError, match="no admissible trial fields"):
        carleman_constant_batch(spec, LatticeWindow(1, 7), 5, seed=0, n_nodes=N_NODES)


def test_carleman_ratio_batch_support_violation():
    spec, window = setup(1, "zero")
    grid = make_time_grid(N_NODES)
    (admissible,) = operators._trial_fields(window, grid, 3, range(3), support_margin=2,
                                            site_mask=admissible_site_mask(spec, window)[1])
    ratios = carleman_ratio(spec, admissible)
    for trial, ratio in enumerate(ratios):
        one = SpaceTimeField(window, grid, admissible.values[trial], admissible.dvalues[trial])
        assert carleman_ratio(spec, one) == ratio
    (spread,) = operators._trial_fields(window, grid, 3, range(3))  # mass at the origin
    mixed = SpaceTimeField(window, grid, np.concatenate([admissible.values, spread.values[:1]]),
                           np.concatenate([admissible.dvalues, spread.dvalues[:1]]))
    with pytest.raises(SupportViolationError, match="outside the admissible set"):
        carleman_ratio(spec, mixed)
    with pytest.raises(SupportViolationError, match="outside the admissible set"):
        old_carleman_ratio(spec, old_tensor_field(window, grid, np.random.default_rng((3, 0))))


@pytest.mark.parametrize("d, phi, trials", CASES)
def test_identity_checks_match_per_trial_loops(d, phi, trials, block_of_four):
    spec, window = setup(d, phi)
    block_of_four(window)
    sym = symmetry_check(spec, window, trials, seed=7, n_nodes=N_NODES)
    worst_sym, worst_skew, _ = old_symmetry(spec, window, trials, seed=7)
    assert abs(sym["symmetry"]["defect"] - worst_sym) <= DEFECT_TOL
    assert abs(sym["skewness"]["defect"] - worst_skew) <= DEFECT_TOL

    com = commutator_check(spec, window, trials, seed=7, n_nodes=N_NODES)
    worst_ratio, _, cs_ok = old_commutator(spec, window, trials, seed=7)
    assert abs(com["identity"]["defect"] - worst_ratio) <= DEFECT_TOL
    assert com["lower_bound"]["pass"] is cs_ok is True

    conj = conjugation_check(spec, window, trials, seed=7, n_nodes=N_NODES)
    worst_abs, worst_rel = old_conjugation(spec, window, trials, seed=7)
    assert abs(conj["defect_over_norm_f"] - worst_abs) <= DEFECT_TOL
    assert abs(conj["defect_relative"] - worst_rel) <= DEFECT_TOL


@pytest.mark.parametrize("d", [1, 2])
def test_tolerance_errors_name_the_oracle_trial(d, block_of_four):
    spec, window = setup(d, "paper")
    block_of_four(window)
    _, _, worst_trial = old_symmetry(spec, window, 9, seed=3)
    with pytest.raises(ToleranceExceededError) as err:
        symmetry_check(spec, window, 9, seed=3, n_nodes=N_NODES, tolerance=1e-30)
    assert err.value.trial == worst_trial
    assert str(err.value) == f"symmetry/skewness defect above 1e-30 (trial {worst_trial})"

    _, worst_trial, _ = old_commutator(spec, window, 9, seed=3)
    with pytest.raises(ToleranceExceededError) as err:
        commutator_check(spec, window, 9, seed=3, n_nodes=N_NODES, rel_tolerance=1e-30)
    assert err.value.trial == worst_trial
    assert str(err.value) == f"commutator defect above 1e-30 (trial {worst_trial})"


HIDING_GRIDS = [np.linspace(1.0, 5.0, 200), np.linspace(1.0, 5.0, 20), np.linspace(1.0, 2.0, 7),
                np.random.default_rng(4).uniform(1.0, 6.0, 50),  # unsorted
                np.array([3.0, 1.5, 2.5])]


@pytest.mark.parametrize("grid_index", range(len(HIDING_GRIDS)))
def test_minimal_hiding_constant_matches_scalar_bisection(grid_index):
    s_grid = HIDING_GRIDS[grid_index]
    for phi in PROFILES.values():
        for d in (1, 2, 3):
            for R in (1.5, 2.0, 5.0, 10.0, 17.0, 20.0, 40.0, 57.0, 80.0, 1e3, 1e6):
                scan = minimal_hiding_constant(d, R, phi, s_grid)
                assert scan["min_c"] == old_hiding_constant(d, R, phi, s_grid), (phi.kind, d, R)


def test_hiding_sides_on_an_array_match_scalar_calls():
    phi = TimeProfile.paper()
    s_grid = np.linspace(1.0, 5.0, 40)
    sides = hiding_sides(50.0, 10.0, 1, phi.sup_d1, phi.sup_d2, s_grid)
    for i, s in enumerate(s_grid):
        one = hiding_sides(50.0, 10.0, 1, phi.sup_d1, phi.sup_d2, float(s))
        for key, value in one.items():
            assert sides[key][i] == value
    assert isinstance(one["log_lhs"], float)


def test_empty_hiding_grid_rejected():
    with pytest.raises(ValueError):
        minimal_hiding_constant(1, 10.0, TimeProfile.paper(), [])

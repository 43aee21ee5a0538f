import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman.errors import RingOutsideWindowError
from carleman.lattice import (LatticeField, LatticeWindow, Potential, SiteOrbits,
                              boundary_mass_fraction, discrete_laplacian, mass_sq,
                              ring_masses, weighted_log_norm)
from carleman.logscalar import NEG_INF, log_abs_sq


def random_field(window, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(window.shape) + 1j * rng.standard_normal(window.shape)
    return LatticeField(window, vals)


def test_constant_field_interior_zero():
    w = LatticeWindow(2, 6)
    u = LatticeField.from_values(w, np.full(w.shape, 3.0 - 1.0j))
    lap = discrete_laplacian(u)
    interior = lap.values[1:-1, 1:-1]
    assert np.max(np.abs(interior)) == 0.0


def test_delta_stencil_d1():
    w = LatticeWindow(1, 5)
    lap = discrete_laplacian(LatticeField.delta(w))
    assert lap[[0]] == -2.0
    assert lap[[1]] == 1.0 and lap[[-1]] == 1.0
    assert np.sum(np.abs(lap.values)) == 4.0


def test_linear_function_discretely_harmonic_d2():
    w = LatticeWindow(2, 7)
    j1 = w.coordinate(0) + np.zeros(w.shape)
    lap = discrete_laplacian(LatticeField.from_values(w, j1))
    assert np.max(np.abs(lap.values[1:-1, 1:-1])) == 0.0


def test_laplacian_symmetric_bilinear():
    w = LatticeWindow(2, 5)
    u, v = random_field(w, 1), random_field(w, 2)
    lhs = np.vdot(v.values, discrete_laplacian(u).values)
    rhs = np.vdot(discrete_laplacian(v).values, u.values)
    scale = math.sqrt(u.norm_sq() * v.norm_sq())
    assert abs(lhs - rhs) <= 1e-14 * scale * w.d * 4


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_spectrum_containment(seed):
    w = LatticeWindow(1, 8)
    u = random_field(w, seed)
    quad = -np.vdot(u.values, discrete_laplacian(u).values).real
    assert -1e-12 * u.norm_sq() <= quad <= (4 * w.d + 1e-12) * u.norm_sq()


def test_weighted_l2_delta_unit_weight():
    w = LatticeWindow(1, 5)
    out = weighted_log_norm(LatticeField.delta(w).values, np.zeros(w.shape), w.d)
    assert out == pytest.approx(0.0, abs=1e-15)


def test_weighted_l2_weight_one_at_origin():
    w = LatticeWindow(2, 5)
    log_w = 2000.0 * w.radius_sq / 100.0  # e^{alpha |j/R|^2}, alpha=2000, R=10
    out = weighted_log_norm(LatticeField.delta(w).values, log_w, w.d)
    assert out == pytest.approx(0.0, abs=1e-15)


def test_weighted_l2_huge_weight_matches_rational_oracle():
    # u = delta at (R,0), w = e^{alpha |j/R|^2}, alpha=2000, R=10:
    # the weighted norm is exactly e^{2000} in the log domain.
    w = LatticeWindow(2, 12)
    alpha, R = 2000.0, 10.0
    log_w = alpha * w.radius_sq / R**2
    u = LatticeField.delta(w, [10, 0])
    out = weighted_log_norm(u.values, log_w, w.d)
    assert out == pytest.approx(2000.0, rel=1e-15)


def test_weighted_l2_time_integration():
    from carleman.quadrature import gauss_legendre

    w = LatticeWindow(1, 4)
    rule = gauss_legendre(8, 0.0, 1.0)
    vals = np.ones((len(rule.nodes),) + w.shape, dtype=complex)
    out = weighted_log_norm(vals, np.zeros(w.shape), w.d, rule.weights)
    assert out == pytest.approx(0.5 * math.log(w.site_count), rel=1e-13)


def test_ring_mass_delta_not_in_ring():
    w = LatticeWindow(1, 10)
    assert ring_masses(LatticeField.delta(w), [5.0])[0] == NEG_INF


def test_ring_mass_counts_sites_d1():
    w = LatticeWindow(1, 10)
    u = LatticeField.from_values(w, np.ones(w.shape))
    (out,) = ring_masses(u, [5.0])
    assert out == pytest.approx(0.5 * math.log(8.0), rel=1e-13)


def test_ring_outside_window_raises():
    w = LatticeWindow(1, 10)
    with pytest.raises(RingOutsideWindowError):
        ring_masses(LatticeField.delta(w), [9.5])


def test_ring_partition_bounded_by_total_mass():
    w = LatticeWindow(2, 20)
    u = random_field(w, 3)
    total = u.norm_sq()
    parts = 0.0
    for log_lam in ring_masses(u, (3.0, 7.0, 11.0, 15.0)):
        parts += math.exp(2.0 * log_lam)
    assert parts <= total * (1.0 + 1e-12)


def test_ring_mass_window_doubling_invariance():
    small = LatticeWindow(1, 16)
    big = LatticeWindow(1, 32)
    rng = np.random.default_rng(5)
    core = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    vs = np.zeros(small.shape, complex)
    vb = np.zeros(big.shape, complex)
    vs[small.index_of([-4])[0]:small.index_of([4])[0] + 1] = core
    vb[big.index_of([-4])[0]:big.index_of([4])[0] + 1] = core
    (a,) = ring_masses(LatticeField(small, vs), [4.0])
    (b,) = ring_masses(LatticeField(big, vb), [4.0])
    assert a == pytest.approx(b, abs=1e-10)


def test_boundary_mass_diagnostic():
    # at d = 1 the trivial group's orbit values are the window's values
    w = LatticeWindow(1, 6)
    trivial = SiteOrbits(w)
    inner = LatticeField.delta(w)
    assert boundary_mass_fraction(inner.values, trivial) == 0.0
    edge = LatticeField.delta(w, [w.M])
    assert boundary_mass_fraction(edge.values, trivial) == 1.0
    # the shell is the two outer rings max_k |j_k| in {M-1, M}
    assert boundary_mass_fraction(LatticeField.delta(w, [w.M - 2]).values, trivial) == 0.0
    assert boundary_mass_fraction(LatticeField.delta(w, [1 - w.M]).values, trivial) == 1.0
    # on the reflection quotient the orbit {M, -M} holds both shell sites
    even = LatticeField.delta(w, [w.M]).values + LatticeField.delta(w, [-w.M]).values
    folded = SiteOrbits(w, (0,))
    assert boundary_mass_fraction(folded.gather(even + inner.values), folded) == 2.0 / 3.0


@pytest.mark.parametrize("d, M", [(1, 40), (1, 128), (2, 12), (2, 64)])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_mass_sq_matches_blas_and_pairwise_sums(d, M, batch):
    rng = np.random.default_rng(d * 1000 + M)
    shape = batch + LatticeWindow(d, M).shape
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = mass_sq(values, d)
    assert got.shape == batch
    for field, ours in zip(values.reshape((-1,) + shape[len(batch):]), np.ravel(got)):
        v = field.ravel()
        exact = math.fsum(np.concatenate([v.real ** 2, v.imag ** 2]).tolist())
        for ref in (np.vdot(v, v).real, np.linalg.norm(v) ** 2, np.sum(np.abs(v) ** 2), exact):
            assert abs(ours - ref) <= 10 * np.finfo(float).eps * ref
    weights = rng.uniform(0.5, 4.0, shape[len(batch):])
    weighted = mass_sq(values, d, weights)
    for field, ours in zip(values.reshape((-1,) + weights.shape), np.ravel(weighted)):
        ref = np.vdot(field, weights * field).real
        assert abs(ours - ref) <= 10 * np.finfo(float).eps * ref


def test_mass_sq_of_zero_and_real_fields():
    w = LatticeWindow(2, 5)
    assert mass_sq(np.zeros(w.shape, complex), 2) == 0.0
    assert mass_sq(np.zeros(w.shape, complex), 2, np.full(w.shape, 2.0)) == 0.0
    assert np.array_equal(mass_sq(np.zeros((4,) + w.shape), 2), np.zeros(4))
    real = np.arange(w.site_count, dtype=float).reshape(w.shape)
    assert mass_sq(real, 2) == float(np.sum(real ** 2))  # integers: every sum is exact
    assert LatticeField.from_values(w, real).norm_sq() == float(np.sum(real ** 2))


def test_potential_sup_norm_exact():
    # the alternating potential's sup norm is exactly |amplitude|
    w = LatticeWindow(1, 4)
    assert np.max(np.abs(Potential.alternating(w, amplitude=-1.5).values)) == 1.5


def test_log_mass_leaves_the_orbit_values_alone():
    orbits = SiteOrbits(LatticeWindow(2, 6), (0, 1), ((0, 1),))
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((3, orbits.count)) + 1j * rng.standard_normal((3, orbits.count))
    vals[0, :5] = 0.0
    before = vals.copy()
    out = orbits.log_mass(vals)
    assert np.array_equal(vals, before)
    assert np.array_equal(out, log_abs_sq(before) + np.log(orbits.sizes))


# --- SiteOrbits built from its representatives, against the window-wide build --

def window_wide_layout(orbits):
    """(representatives, site_orbit) the window-wide way: every site's
    canonical key from np.indices, and np.unique over their flat indices."""
    w = orbits.window
    key = np.indices(w.shape) - w.M
    for k in orbits.folded:
        key[k] = np.abs(key[k])
    classes = [{k} for k in orbits.folded]
    for k, l in orbits.swapped:
        a, b = (next(c for c in classes if axis in c) for axis in (k, l))
        if a is not b:
            a |= b
            classes.remove(b)
    for axes in (sorted(c) for c in classes if len(c) > 1):
        key[axes] = np.sort(key[axes], axis=0)[::-1]
    flat = np.ravel_multi_index(tuple(key + w.M), w.shape).ravel()
    representatives, site_orbit = np.unique(flat, return_inverse=True)
    return representatives, site_orbit.reshape(w.shape)


def window_wide_quotient_laplacian(orbits, representatives, site_orbit):
    import scipy.sparse as sp

    window, n = orbits.window, representatives.size
    reps = np.unravel_index(representatives, window.shape)
    rows, cols = [np.arange(n)], [np.arange(n)]
    for k in range(window.d):
        for shift in (-1, 1):
            moved = reps[k] + shift
            inside = (moved >= 0) & (moved <= 2 * window.M)
            rows.append(np.flatnonzero(inside))
            cols.append(site_orbit[tuple(moved[inside] if axis == k else c[inside]
                                         for axis, c in enumerate(reps))])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return sp.csc_matrix((np.where(rows == cols, -2.0 * window.d, 1.0), (rows, cols)),
                         shape=(n, n))


def reflection_swap_subgroups(d):
    """Every (folded, swapped) pair: a set of reflected axes and a set of
    pairs of them to swap."""
    for n in range(d + 1):
        for folded in itertools.combinations(range(d), n):
            pairs = list(itertools.combinations(folded, 2))
            for m in range(len(pairs) + 1):
                for swapped in itertools.combinations(pairs, m):
                    yield folded, swapped


@pytest.mark.parametrize("d, M", [(1, 5), (2, 5), (3, 4), (4, 3)])
def test_site_orbits_match_the_window_wide_build(d, M):
    from carleman.evolution import quotient_laplacian

    window = LatticeWindow(d, M)
    r_sq = window.radius_sq.ravel()
    for folded, swapped in reflection_swap_subgroups(d):
        orbits = SiteOrbits(window, folded, swapped)
        representatives, site_orbit = window_wide_layout(orbits)
        assert np.array_equal(orbits.representatives, representatives), (folded, swapped)
        assert np.array_equal(orbits.site_orbit, site_orbit)
        assert np.array_equal(orbits.sizes,
                              np.bincount(site_orbit.ravel(), minlength=orbits.count)
                              .astype(float))
        order = np.argsort(r_sq[representatives], kind="stable")
        want = (order,) + np.unique(r_sq[representatives][order], return_index=True,
                                    return_counts=True)
        for got, wanted in zip(orbits.radial_bins, want):
            assert np.array_equal(got, wanted)
        assert np.array_equal(orbits.boundary_shell,
                              (window.inf_norm > window.M - 2).ravel()[representatives])
        lap = quotient_laplacian(orbits)
        oracle = window_wide_quotient_laplacian(orbits, representatives, site_orbit)
        assert (lap != oracle).nnz == 0 and lap.nnz == oracle.nnz


def test_building_site_orbits_stays_at_quotient_size():
    # d = 3, M = 32, every reflection and swap: 274625 sites, 6545 orbits.  The
    # window-wide build (np.indices, a sorted key, np.unique) peaked at 20 MB;
    # built from the representatives, everything a scan reads takes 0.65 MB
    import tracemalloc

    window = LatticeWindow(3, 32)
    tracemalloc.start()
    try:
        orbits = SiteOrbits(window, (0, 1, 2), ((0, 1), (0, 2), (1, 2)))
        orbits.representatives, orbits.sizes, orbits.radial_bins, orbits.boundary_shell
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orbits.count == math.comb(32 + 3, 3)
    assert peak < 2e6, peak


def test_ring_mass_blocks_match_one_block_bit_for_bit(monkeypatch):
    from carleman import lattice
    from carleman.evolution import Trajectory

    window = LatticeWindow(2, 40)
    orbits = SiteOrbits(window, (0, 1), ((0, 1),))
    rng = np.random.default_rng(8)
    n_time = 21
    vals = rng.standard_normal((n_time, orbits.count)) + 1j * rng.standard_normal((n_time, orbits.count))
    vals *= np.exp(-rng.uniform(0.0, 300.0, orbits.count))
    vals[4, :7] = 0.0
    traj = Trajectory(orbits, np.linspace(0.0, 1.0, n_time), vals, np.zeros(n_time), config=None)
    R_list = tuple(float(R) for R in range(3, 39))
    whole = ring_masses(traj, R_list, time_weights=traj.time_weights())
    assert vals.size <= lattice._BLOCK_VALUES  # one block
    for budget in (1 << 10, 1000, n_time):  # 18, 19 and 430 blocks
        monkeypatch.setattr(lattice, "_BLOCK_VALUES", budget)
        assert ring_masses(traj, R_list, time_weights=traj.time_weights()) == whole

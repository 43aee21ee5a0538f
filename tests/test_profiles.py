import math

import numpy as np
import pytest

from carleman.profiles import TimeProfile, WeightSpec, weight_log_magnitude


def test_paper_phi_plateaus_exact():
    phi = TimeProfile.paper()
    for t in (0.0, 0.1, 0.25, 0.75, 0.9, 1.0):
        assert float(phi.value(t)) == 0.0
    for t in (0.375, 0.5, 0.625):
        assert float(phi.value(t)) == 3.0
    t = np.linspace(0, 1, 2001)
    v = phi.value(t)
    assert np.all(v >= 0.0) and np.all(v <= 3.0)


def test_paper_phi_derivatives_vanish_on_plateaus():
    phi = TimeProfile.paper()
    for t in (0.1, 0.4, 0.5, 0.6, 0.9):
        assert float(phi.d1(t)) == 0.0
        assert float(phi.d2(t)) == 0.0


def test_paper_phi_c2_smooth_numerically():
    # the rising and the falling transition: the falling one's derivatives
    # carry the chain rule's sign (-1)^order, which the operator identities
    # cannot see, since they read the same phi' on both sides
    phi = TimeProfile.paper()
    h = 1e-6
    for t in (np.linspace(0.2501, 0.3749, 400), np.linspace(0.6251, 0.7499, 400)):
        num_d1 = (phi.value(t + h) - phi.value(t - h)) / (2 * h)
        assert np.max(np.abs(num_d1 - phi.d1(t))) < 1e-4 * max(1.0, phi.sup_d1)
        num_d2 = (phi.d1(t + h) - phi.d1(t - h)) / (2 * h)
        assert np.max(np.abs(num_d2 - phi.d2(t))) < 1e-3 * max(1.0, phi.sup_d2)


def test_sup_norms_are_attained_suprema():
    phi = TimeProfile.paper()
    t = np.linspace(0.0, 1.0, 200_001)
    grid_d1 = float(np.max(np.abs(phi.d1(t))))
    grid_d2 = float(np.max(np.abs(phi.d2(t))))
    assert phi.sup_d1 >= grid_d1 - 1e-9 * grid_d1
    assert phi.sup_d1 == pytest.approx(grid_d1, rel=1e-6)
    assert phi.sup_d2 >= grid_d2 - 1e-6 * grid_d2
    assert phi.sup_d2 == pytest.approx(grid_d2, rel=1e-4)


def test_phi_d1_known_peak():
    # transitions are 3 h(8(t-1/4)) with sup h' = 2 at the midpoint, so
    # sup phi' = 3 * 8 * 2 = 48
    phi = TimeProfile.paper()
    assert phi.sup_d1 == pytest.approx(48.0, rel=1e-10)


def test_constant_and_zero_profiles():
    for prof, val in ((TimeProfile.zero(), 0.0), (TimeProfile.constant(3.0), 3.0)):
        t = np.linspace(0, 1, 11)
        assert np.all(prof.value(t) == val)
        assert np.all(prof.d1(t) == 0.0)
        assert prof.sup_d1 == 0.0 and prof.sup_d2 == 0.0


def test_weight_log_magnitude_examples():
    def at(j, t, spec):
        phi_t = float(spec.phi.value(t))
        return float(weight_log_magnitude(spec, [np.array(float(jk)) for jk in j], phi_t))

    spec = WeightSpec(alpha=7.0, R=4.0, phi=TimeProfile.zero(), d=2)
    assert at([0, 0], 0.5, spec) == 0.0
    spec0 = WeightSpec(alpha=0.0, R=4.0, phi=TimeProfile.paper(), d=2)
    assert at([3, -2], 0.5, spec0) == 0.0
    # j = (R, 0), phi = 3 at plateau: exponent alpha (1+3)^2 = 16 alpha
    spec3 = WeightSpec(alpha=5.5, R=4.0, phi=TimeProfile.constant(3.0), d=2)
    assert at([4, 0], 0.5, spec3) == pytest.approx(16.0 * 5.5, rel=1e-14)
    # the rule weight: alpha = c R log R
    assert WeightSpec.from_rule(10.0, TimeProfile.zero(), 1, c_rule=2.0).alpha == \
        2.0 * 10.0 * math.log(10.0)

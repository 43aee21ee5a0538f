import math

import mpmath
import numpy as np
import pytest

from carleman.bessel import bessel_j, bessel_k, weighted_cosh_integral

mpmath.mp.dps = 40


def test_j0_at_zero():
    assert bessel_j(0, 0.0) == 1.0


def test_j_is_real_valued_series():
    val = bessel_j(4, 7.3)
    assert isinstance(val, float)
    assert val == pytest.approx(float(mpmath.besselj(4, 7.3)), rel=1e-10)


def test_j1_of_2_against_series_oracle():
    oracle = float(mpmath.besselj(1, 2))  # 0.57672480775687338...
    assert bessel_j(1, 2.0) == pytest.approx(oracle, rel=1e-12)


def test_j_negative_order_symmetry():
    assert bessel_j(-3, 2.0) == pytest.approx(-bessel_j(3, 2.0), rel=1e-14)


def test_k_even_in_order():
    a = bessel_k(2.5, 0.7)
    b = bessel_k(-2.5, 0.7)
    assert a == pytest.approx(b, rel=1e-15)


def test_k_against_mpmath_moderate_orders():
    for nu, x in ((0.0, 2.0 / math.e), (3.0, 2.0 / math.e), (10.5, 1.3)):
        oracle = mpmath.besselk(nu, x)
        assert bessel_k(nu, x) == pytest.approx(float(mpmath.log(oracle)), rel=1e-10, abs=1e-10)


def test_weighted_cosh_integral_scaling_identity():
    # int_R e^{j b - 2 cosh(b/mu)/e} db = 2 mu K_{mu j}(2/e); the substitution
    # t = b/mu fixes the 2 mu factor, pinned here for mu=1, j=3.
    mu, j = 1.0, 3
    lhs = weighted_cosh_integral(j, mu)
    rhs = bessel_k(mu * j, 2.0 / math.e)
    assert lhs == pytest.approx(math.log(2.0 * mu) + rhs, rel=1e-10)


def test_weighted_cosh_integral_j0():
    for mu in (1.0, 2.5):
        lhs = weighted_cosh_integral(0, mu)
        rhs = bessel_k(0.0, 2.0 / math.e)
        assert lhs == pytest.approx(math.log(2.0 * mu) + rhs, rel=1e-10)


def test_k_growth_rate_approaches_mu_j_log_j():
    mu = 1.0
    js = np.arange(20, 201, 20)
    logs = np.array([bessel_k(mu * j, 2.0 / math.e) for j in js])
    ratio = logs / (mu * js * np.log(js))
    # leading growth mu |j| log |j|: the ratio tends to mu from below
    assert abs(ratio[-1] - mu) < 0.1
    assert np.all(np.diff(ratio) > 0)

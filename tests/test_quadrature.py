import math

import numpy as np
import pytest

from carleman.quadrature import _newton_rule, _reference_rule, gauss_legendre


def integrate(f, rule):
    """The rule applied as its callers apply it: weights times values at the nodes."""
    return rule.weights @ f(rule.nodes)


def test_weights_sum_to_interval_length():
    for n in (3, 8, 33):
        for a, b in ((0.0, 1.0), (0.0, math.pi), (-2.0, 5.0)):
            rule = gauss_legendre(n, a, b)
            assert np.sum(rule.weights) == pytest.approx(b - a, abs=1e-14)


def test_constant_on_unit_interval():
    rule = gauss_legendre(5)
    assert integrate(lambda t: np.ones_like(t), rule) == pytest.approx(1.0, abs=1e-15)


def test_cosine_over_zero_pi_vanishes():
    rule = gauss_legendre(20, 0.0, math.pi)
    assert integrate(np.cos, rule) == pytest.approx(0.0, abs=1e-14)


def test_matches_modified_bessel_integral_oracle():
    # (1/pi) int_0^pi e^{2 cos t} cos t dt = I_1(2); adaptive-refinement oracle
    # (mpmath.quad at 50 digits) gives:
    oracle = 1.5906368546373290650940733
    rule = gauss_legendre(60, 0.0, math.pi)
    val = integrate(lambda t: np.exp(2.0 * np.cos(t)) * np.cos(t), rule) / math.pi
    assert val == pytest.approx(oracle, rel=1e-12)


def test_polynomial_exactness_degree_2n_minus_1():
    rng = np.random.default_rng(7)
    for n in (4, 9, 16):
        coeffs = rng.normal(size=2 * n)  # degree 2n-1
        p = np.polynomial.Polynomial(coeffs)
        exact = p.integ()(1.0) - p.integ()(0.0)
        rule = gauss_legendre(n)
        got = integrate(p, rule)
        assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_complex_integrand():
    rule = gauss_legendre(24)
    val = integrate(lambda t: np.exp(2j * math.pi * t), rule)
    assert abs(val) < 1e-13


def test_cached_reference_rule_is_not_shared_with_callers():
    n = 7
    x, w = _newton_rule(n)
    rule = gauss_legendre(n, -1.0, 1.0)
    rule.nodes[0] = 99.0
    rule.weights[:] = 0.0
    again = gauss_legendre(n, -1.0, 1.0)
    assert again.nodes.tobytes() == x.tobytes() and again.weights.tobytes() == w.tobytes()
    assert gauss_legendre(n, 2.0, 4.0).nodes.tobytes() == (3.0 + 1.0 * x).tobytes()


def _mpmath_rule_at(n, x0):
    """Node near x0 and its weight, by Newton on mpmath's P_n at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        x = mpmath.mpf(x0)
        for _ in range(2):
            p, q = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
            x -= p * (x * x - 1) / (n * (x * p - q))
        return float(x), float(2 * (1 - x * x) / (n * mpmath.legendre(n - 1, x)) ** 2)


# weight tolerance: numpy's own weight formula, which the rule keeps, is off
# by 1.4e-9 relative at n = 800 (leggauss too); measured 4.7e-15 at n = 7 and
# 9.6e-14 at n = 24
@pytest.mark.parametrize("n, weight_rel", [(7, 1e-14), (24, 1e-12), (400, 2e-9), (800, 4e-9)])
def test_reference_rule_matches_mpmath(n, weight_rel):
    rule = gauss_legendre(n, -1.0, 1.0)
    assert np.all(np.diff(rule.nodes) > 0)
    # every node up to n = 24, else an even spread with both ends and the middle
    picked = range(n) if n <= 24 else sorted({*range(0, n, n // 16), n // 2, n - 1})
    for i in picked:
        node, weight = _mpmath_rule_at(n, rule.nodes[i])
        assert abs(rule.nodes[i] - node) <= 2.3e-16
        assert abs(rule.weights[i] / weight - 1.0) <= weight_rel


@pytest.mark.parametrize("n", [7, 24, 400, 800])
def test_reference_rule_integrates_test_functions(n):
    rule = gauss_legendre(n, -1.0, 1.0)
    for k in range(0, min(2 * n, 41), 2):  # exact on monomials up to degree 2n - 1
        assert integrate(lambda t: t**k, rule) == pytest.approx(2.0 / (k + 1), abs=1e-13)
    assert integrate(np.exp, rule) == pytest.approx(math.e - 1.0 / math.e, abs=1e-13)
    if n >= 400:
        assert integrate(lambda t: np.cos(50.0 * t), rule) == pytest.approx(
            2.0 * math.sin(50.0) / 50.0, abs=1e-13)


@pytest.mark.parametrize("n", [7, 24, 101])
def test_newton_rule_is_leggauss_to_the_last_bits(n):
    x, w = _newton_rule(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - x_ref)) <= 2.3e-16
    assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-11


def test_large_rules_build_no_companion_matrix(monkeypatch):
    # leggauss's dense 800 x 800 companion matrix set the peak memory of a
    # K-Bessel check
    def refuse(*args):
        raise AssertionError("n x n companion matrix built")

    monkeypatch.setattr(np.polynomial.legendre, "legcompanion", refuse)
    x, w = _reference_rule.__wrapped__(800)
    assert len(x) == len(w) == 800

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman.logscalar import NEG_INF, log_abs_sq, log_cosh, log_sinh, logsumexp


def test_huge_sum_matches_extended_precision_oracle():
    # e^1000 + e^999 -> log-magnitude 1000 + log(1 + e^-1); oracle value from
    # mpmath.log1p(mpmath.exp(-1)) at 50 digits:
    oracle = 0.31326168751822286417206268393495
    assert logsumexp(np.array([1000.0, 999.0])) == pytest.approx(1000.0 + oracle, rel=1e-15)


@given(st.lists(st.floats(min_value=1e-30, max_value=1e30), min_size=1, max_size=40))
@settings(max_examples=200)
def test_monotone_and_associative_to_tolerance(vals):
    logs = np.log(vals)
    total = logsumexp(logs)
    assert total >= np.max(logs) - 1e-14
    # max-shifted sum vs sequential log-adds agree to 1e-14 in log magnitude
    seq = logs[0]
    for x in logs[1:]:
        seq = np.logaddexp(seq, x)
    assert total == pytest.approx(seq, abs=1e-14 * max(1.0, abs(seq)))


def test_logsumexp_matches_numpy():
    rng = np.random.default_rng(0)
    logs = rng.normal(size=257) * 50
    assert logsumexp(logs) == pytest.approx(np.logaddexp.reduce(np.sort(logs)), abs=1e-12)


@pytest.mark.parametrize("n", [3, 5, 7, 24, 45, 100, 257, 1000, 4097])
def test_logsumexp_rows_of_a_batch_reduce_as_alone(n):
    # the weighted norms batch trials along leading axes; a trial must get the
    # same bits as on its own, whatever the length and with all-zero rows
    rng = np.random.default_rng(n)
    batch = rng.normal(size=(3, 5, n)) * 40
    batch[0, 1] = NEG_INF
    batch[2, 3, ::3] = NEG_INF
    together = logsumexp(batch)
    assert together.shape == (3, 5)
    assert together[0, 1] == NEG_INF
    for idx in np.ndindex(3, 5):
        assert together[idx] == logsumexp(batch[idx].copy())


def test_log_abs_sq_keeps_magnitudes_whose_squares_underflow():
    assert log_abs_sq(1e-200) == 2.0 * math.log(1e-200)
    values = np.array([0.0, 1e-300j, 3.0 + 4.0j, -1e-257])
    out = log_abs_sq(values)
    assert out[0] == NEG_INF
    assert out[1] == 2.0 * math.log(1e-300)
    assert out[2] == pytest.approx(math.log(25.0), rel=1e-15)
    assert out[3] == 2.0 * math.log(1e-257)


def test_log_sinh_and_log_cosh_match_mpmath_on_arrays():
    import mpmath

    x = np.concatenate([np.logspace(-12, 3, 241), [math.asinh(1.0), 0.88137, 0.8814]])
    ours_sinh, ours_cosh = log_sinh(x), log_cosh(x)
    assert ours_sinh.shape == ours_cosh.shape == x.shape
    with mpmath.workdps(40):
        for xi, s, c in zip(x.tolist(), ours_sinh.tolist(), ours_cosh.tolist()):
            ref_s = float(mpmath.log(mpmath.sinh(mpmath.mpf(xi))))
            ref_c = float(mpmath.log(mpmath.cosh(mpmath.mpf(xi))))
            # absolute near the roots of log sinh and of log cosh, else relative
            assert abs(s - ref_s) <= 1e-15 * max(1.0, abs(ref_s))
            assert abs(c - ref_c) <= 1e-15 * max(1.0, abs(ref_c))
    assert np.array_equal(log_cosh(-x), ours_cosh)


def test_log_sinh_and_log_cosh_of_scalars_are_floats():
    assert isinstance(log_sinh(2.0), float)
    assert isinstance(log_cosh(-2.0), float)
    assert log_sinh(2.0) == log_sinh(np.array([2.0]))[0]


@pytest.mark.parametrize("x", [0.0, -1.0, np.array([1.0, 0.0]), np.array([[2.0], [-3.0]])])
def test_log_sinh_rejects_nonpositive_arguments(x):
    with pytest.raises(ValueError, match="x > 0"):
        log_sinh(x)


def test_logsumexp_and_log_abs_sq_leave_their_input_alone():
    # both work in a temporary of their own, in place
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 33)) * 40
    x[1] = NEG_INF
    x[2, ::4] = NEG_INF
    before = x.copy()
    logsumexp(x)
    logsumexp(x, axis=0)
    log_abs_sq(x)
    assert np.array_equal(x, before)
    assert isinstance(log_abs_sq(1e-200), float)

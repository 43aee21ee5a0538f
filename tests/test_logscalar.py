import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman.logscalar import LogScalar, log_add, log_sum, tree_logaddexp, tree_logsumexp

finite_floats = st.floats(min_value=-1e300, max_value=1e300,
                          allow_nan=False, allow_infinity=False)


def test_one_plus_one():
    two = log_add(LogScalar.one(), LogScalar.one())
    assert two.sign == 1
    assert two.log_mag == pytest.approx(math.log(2.0), abs=1e-15)


def test_additive_identity():
    x = LogScalar.from_float(-3.25)
    assert log_add(x, LogScalar.zero()) == x
    assert log_add(LogScalar.zero(), x) == x


def test_huge_sum_matches_extended_precision_oracle():
    # e^1000 + e^999 -> log-magnitude 1000 + log(1 + e^-1); oracle value from
    # mpmath.log1p(mpmath.exp(-1)) at 50 digits:
    oracle = 0.31326168751822286417206268393495
    a = LogScalar.from_log(1000.0)
    b = LogScalar.from_log(999.0)
    out = log_add(a, b)
    assert out.sign == 1
    assert out.log_mag == pytest.approx(1000.0 + oracle, rel=1e-15)


def test_exact_cancellation_gives_sign_zero():
    x = LogScalar.from_log(123.456, 1)
    y = LogScalar.from_log(123.456, -1)
    assert log_add(x, y).is_zero


def test_round_trip_exact():
    for v in (1.0, -2.5, 3.7e-87, -8.1e204, 0.0):
        assert LogScalar.from_float(v).to_float() == v


@given(finite_floats, finite_floats)
@settings(max_examples=300)
def test_commutative(a, b):
    x, y = LogScalar.from_float(a), LogScalar.from_float(b)
    lhs, rhs = log_add(x, y), log_add(y, x)
    assert lhs.sign == rhs.sign
    assert lhs.log_mag == rhs.log_mag


@given(st.lists(st.floats(min_value=1e-30, max_value=1e30), min_size=1, max_size=40))
@settings(max_examples=200)
def test_monotone_and_associative_to_tolerance(vals):
    items = [LogScalar.from_float(v) for v in vals]
    total = log_sum(items)
    biggest = max(items, key=lambda x: x.log_mag)
    assert total.log_mag >= biggest.log_mag - 1e-14
    # tree order vs sequential order agree to 1e-14 in log magnitude
    seq = items[0]
    for it in items[1:]:
        seq = log_add(seq, it)
    assert total.log_mag == pytest.approx(seq.log_mag, abs=1e-14 * max(1.0, abs(seq.log_mag)))


def test_tree_logsumexp_matches_numpy():
    rng = np.random.default_rng(0)
    logs = rng.normal(size=257) * 50
    ours = tree_logsumexp(logs)
    ref = np.logaddexp.reduce(np.sort(logs))
    assert ours == pytest.approx(ref, abs=1e-12)


def test_tree_logsumexp_chunk_invariance():
    rng = np.random.default_rng(1)
    logs = rng.normal(size=100) * 30
    full = tree_logsumexp(logs)
    assert full == tree_logsumexp(np.array(list(logs)))


def test_mul_and_sqrt():
    x = LogScalar.from_float(3.0) * LogScalar.from_float(-4.0)
    assert x.sign == -1
    assert x.log_mag == pytest.approx(math.log(12.0), rel=1e-15)
    assert abs(x).sqrt().log_mag == pytest.approx(0.5 * math.log(12.0), rel=1e-15)


def test_tree_logaddexp_pads_at_the_end_and_reduces_rows_alone():
    # 5 terms pad to 8 with -inf after them: ((x0 x1)(x2 x3))((x4 -inf)(-inf -inf))
    rows = np.random.default_rng(2).normal(size=(8, 5))
    lae = np.logaddexp
    for row, out in zip(rows, tree_logaddexp(rows)):
        assert out == lae(lae(lae(row[0], row[1]), lae(row[2], row[3])), row[4])
        assert out == tree_logsumexp(row)

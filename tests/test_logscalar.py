import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman.logscalar import tree_logaddexp, tree_logsumexp


def test_huge_sum_matches_extended_precision_oracle():
    # e^1000 + e^999 -> log-magnitude 1000 + log(1 + e^-1); oracle value from
    # mpmath.log1p(mpmath.exp(-1)) at 50 digits:
    oracle = 0.31326168751822286417206268393495
    assert tree_logsumexp([1000.0, 999.0]) == pytest.approx(1000.0 + oracle, rel=1e-15)


@given(st.lists(st.floats(min_value=1e-30, max_value=1e30), min_size=1, max_size=40))
@settings(max_examples=200)
def test_monotone_and_associative_to_tolerance(vals):
    logs = np.log(vals)
    total = tree_logsumexp(logs)
    assert total >= np.max(logs) - 1e-14
    # tree order vs sequential order agree to 1e-14 in log magnitude
    seq = logs[0]
    for x in logs[1:]:
        seq = np.logaddexp(seq, x)
    assert total == pytest.approx(seq, abs=1e-14 * max(1.0, abs(seq)))


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


def test_tree_logaddexp_pads_at_the_end_and_reduces_rows_alone():
    # 5 terms pad to 8 with -inf after them: ((x0 x1)(x2 x3))((x4 -inf)(-inf -inf))
    rows = np.random.default_rng(2).normal(size=(8, 5))
    lae = np.logaddexp
    for row, out in zip(rows, tree_logaddexp(rows)):
        assert out == lae(lae(lae(row[0], row[1]), lae(row[2], row[3])), row[4])
        assert out == tree_logsumexp(row)

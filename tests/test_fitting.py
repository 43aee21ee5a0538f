import numpy as np
import pytest

from carleman.errors import DegenerateFitError
from carleman.fitting import best_model, fit_decay
from carleman.logscalar import NEG_INF


def synthetic(rows_R, c, model):
    from carleman.fitting import model_abscissa

    m = model_abscissa(np.asarray(rows_R, float), model)
    return [(R, -c * mi) for R, mi in zip(rows_R, m)]


def test_exact_exponent_recovery():
    rows = synthetic(range(8, 30, 2), 2.0, "R_logR")
    fit = fit_decay(rows, "R_logR")
    assert fit.exponent_constant == pytest.approx(2.0, rel=1e-10)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)
    assert fit.residual <= 1e-10


def test_model_mismatch_has_larger_residual():
    rows = synthetic(range(10, 41, 2), 1.0, "R_sq")  # lambda = e^{-R^2}
    wrong = fit_decay(rows, "R_logR")
    right = fit_decay(rows, "R_sq")
    assert right.residual < wrong.residual
    assert wrong.residual > 1e-2


def test_best_model_ranking():
    rows = synthetic(range(8, 29), 1.5, "R_linear")
    sel = best_model(rows)
    assert sel["best"] == "R_linear"
    assert sel["fits"]["R_linear"].residual <= 1e-10


def test_degenerate_abscissae():
    rows = [(10, -3.0)] * 4
    with pytest.raises(DegenerateFitError):
        fit_decay(rows, "R_logR")


def test_needs_three_rows():
    with pytest.raises(ValueError):
        fit_decay([(8, 0.0), (9, 0.0)], "R_logR")


def test_rejects_empty_ring():
    rows = [(R, -0.5 * R) for R in range(5, 15)] + [(15, NEG_INF)]
    with pytest.raises(ValueError):
        fit_decay(rows, "R_linear")


def test_halved_grid_consistency():
    # refit on every other row recovers the same constant on exact data
    rows = synthetic(range(8, 40), 2.0, "R_logR")
    full = fit_decay(rows, "R_logR")
    half = fit_decay(rows[::2], "R_logR")
    assert full.exponent_constant == pytest.approx(half.exponent_constant, rel=1e-9)

"""Least-squares decay-model fitting for lower-bound scans.

Fits -log lambda(R) = c * m(R) + b where m is one of three abscissa models;
comparing RMS log-residuals across models is the decision rule for the decay
type (R log R vs Gaussian vs plain exponential).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFitError

MODELS = ("R_logR", "R_sq", "R_linear")


def model_abscissa(R: np.ndarray, model_tag: str) -> np.ndarray:
    R = np.asarray(R, dtype=float)
    if model_tag == "R_logR":
        return R * np.log(R)
    if model_tag == "R_sq":
        return R * R
    if model_tag == "R_linear":
        return R
    raise ValueError(f"unknown model_tag {model_tag!r}; expected one of {MODELS}")


@dataclass(frozen=True)
class FitResult:
    exponent_constant: float
    intercept: float
    residual: float  # RMS of log-residuals
    model_tag: str


def fit_decay(rows: Sequence[tuple], model_tag: str) -> FitResult:
    """Least squares of -log lambda against the model abscissa.

    rows: (R, log_lambda) pairs; log_lambda must be finite (lambda > 0).
    """
    if len(rows) < 3:
        raise ValueError(f"need >= 3 rows, got {len(rows)}")
    R = np.array([float(r) for r, _ in rows])
    y = -np.array([float(log_lam) for _, log_lam in rows])
    if not np.all(np.isfinite(y)):
        raise ValueError("fit_decay requires finite log lambda (lambda > 0)")
    m = model_abscissa(R, model_tag)
    if np.ptp(m) == 0.0:
        raise DegenerateFitError("all abscissae equal")
    A = np.column_stack([m, np.ones_like(m)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return FitResult(float(coef[0]), float(coef[1]), rms, model_tag)


def best_model(rows: Sequence[tuple]) -> dict:
    """Fit every model of MODELS and rank by RMS log-residual."""
    fits = {tag: fit_decay(rows, tag) for tag in MODELS}
    order = sorted(fits, key=lambda tag: fits[tag].residual)
    return {"fits": fits, "ranking": order, "best": order[0]}

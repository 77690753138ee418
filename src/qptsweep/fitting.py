"""Least-squares fits on transformed coordinates: power-law and exponential.

Plain OLS, no weights; the quantities of interest here are exponents, not
error bars.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class FitResult:
    exponent: float  # power-law exponent or exponential rate
    prefactor: float
    r_squared: float


def _check(xs, ys, positive_x=False):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if len(xs) < 4:
        raise ValueError(f"need at least 4 points, got {len(xs)}")
    if len(np.unique(xs)) < 2:
        raise ValueError("xs are degenerate")
    if np.any(ys <= 0.0):
        raise ValueError("ys must be positive for a log fit")
    if positive_x and np.any(xs <= 0.0):
        raise ValueError("xs must be positive for a log fit")
    return xs, ys


def _ols(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return slope, intercept, r2


def fit_power_law(xs, ys):
    """y = prefactor * x^exponent via OLS in log-log coordinates."""
    xs, ys = _check(xs, ys, positive_x=True)
    slope, intercept, r2 = _ols(np.log(xs), np.log(ys))
    return FitResult(
        exponent=float(slope),
        prefactor=float(np.exp(intercept)),
        r_squared=r2,
    )


def fit_exponential(xs, ys):
    """y = prefactor * exp(rate * x) via OLS in semilog coordinates."""
    xs, ys = _check(xs, ys)
    slope, intercept, r2 = _ols(xs, np.log(ys))
    return FitResult(
        exponent=float(slope),
        prefactor=float(np.exp(intercept)),
        r_squared=r2,
    )

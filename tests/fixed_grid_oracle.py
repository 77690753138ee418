"""The fixed-grid rules that ``response.total_error`` used before its grids
were certified, kept as test oracles: the phase-free bounds by the total of
the cumulative Simpson rule on one fixed grid, and the bath windows by the
trapezoid rule."""

import numpy as np

from qptsweep import bath, ising
from qptsweep._kernels import _SIMPSON_BODY, _SIMPSON_LAST


def simpson_weights(n_nodes, dt):
    """Weights w with w @ y equal to ``cumulative_simpson_uniform(y, dt)[-1]``
    up to rounding: the total of the same rule as one weighted sum."""
    w = np.zeros(n_nodes)
    if n_nodes == 2:
        w[:] = 6.0  # the trapezoid
    elif n_nodes > 2:
        for j, coef in enumerate(_SIMPSON_BODY):
            w[j:n_nodes - 2 + j] += coef
        w[-3:] += _SIMPSON_LAST
    return dt / 12.0 * w


def composite_simpson(n_nodes, dt):
    """Weights dt/3 (1, 4, 2, 4, ..., 2, 4, 1) of the composite Simpson rule,
    n_nodes odd: the rule of ``_kernels.nested_simpson``."""
    w = np.full(n_nodes, 2.0)
    w[1::2] = 4.0
    w[[0, -1]] = 1.0
    return dt / 3.0 * w


def bound_grid(schedule, n_points, rule=simpson_weights):
    """g on n_points evenly spaced times over [0, T], and the weights of
    ``rule`` there."""
    t = np.linspace(0.0, schedule.T, n_points)
    return np.asarray(schedule.g_of(t), dtype=float), rule(n_points, t[1] - t[0])


def fixed_bound(ka, envelope, grid):
    """int_0^T envelope(ka, g, E_k) dt on a grid of ``bound_grid``."""
    g, w = grid
    return float(w @ envelope(ka, g, ising.dispersion(ka, g)))


def fixed_window(sf, lo, hi, n_points):
    """int_lo^hi |f| by the trapezoid rule on n_points nodes; a dirac_comb
    sums its atoms in [lo, hi)."""
    if sf.kind == "dirac_comb":
        w0, wt = sf.probes
        return float(np.sum(wt[(w0 >= lo) & (w0 < hi)]))
    grid = np.linspace(lo, hi, n_points)
    return float(np.trapezoid(np.abs(np.asarray(bath.evaluate(sf, grid), dtype=float)), grid))

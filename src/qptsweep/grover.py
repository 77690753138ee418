"""Effective two-level treatment of the adiabatic search algorithm.

Closed-form gap, and the weak-coupling excitation-error quadrature plus its
order-of-magnitude estimate.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import QuadratureError, default_n0, filon_integral, refine, stream_filon
# unused here, but the traced benchmark (perfbench/layers.py) looks it up in this module
from ._kernels import cumulative_simpson_uniform  # noqa: F401
from .bath import SpectralFunction, evaluate as bath_evaluate

_SOFT_LAMBDA = 0.1


@dataclass
class GroverParams:
    n_qubits: int
    coupling: float
    schedule: object
    spectral_function: SpectralFunction | None = None
    marked_state: str | None = None

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.coupling < 0.0:
            raise ValueError(f"coupling must be nonnegative, got {self.coupling}")
        if self.coupling > _SOFT_LAMBDA:
            warnings.warn(
                f"coupling {self.coupling} above {_SOFT_LAMBDA}: first-order "
                "response is only reliable for weak coupling",
                stacklevel=2,
            )
        if self.marked_state is None:
            self.marked_state = "0" * self.n_qubits
        if len(self.marked_state) != self.n_qubits or set(self.marked_state) - {"0", "1"}:
            raise ValueError(f"marked_state must be a {self.n_qubits}-bit string")

    @property
    def dim(self):
        return 2**self.n_qubits

    @property
    def min_gap(self):
        return self.dim**-0.5


def grover_gap(g, dim):
    """Gap sqrt(1 - 4g(1-g)(1 - 1/D)); minimum 1/sqrt(D) at g=1/2."""
    g = np.asarray(g, dtype=float)
    if np.any(g < 0.0) or np.any(g > 1.0):
        raise ValueError(f"g must lie in [0, 1], got {g!r}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    val = np.sqrt(1.0 - 4.0 * g * (1.0 - g) * (1.0 - 1.0 / dim))
    return val if val.ndim else float(val)


def _amplitude_fixed_grid(params, omega, n):
    def nodes(t):
        g = np.asarray(params.schedule.g_of(t), dtype=float)
        gap = grover_gap(g, params.dim)
        return -(1.0 - g) / (np.sqrt(params.dim) * gap), gap

    return stream_filon(params.schedule.T, n, omega, nodes, filon_integral)


def amplitude_omega(params, omega, rel_tol=1e-4, n_max=2**21):
    """Per-frequency amplitude integral with a grid-doubling certificate."""
    n0 = default_n0(params.schedule.T, abs(omega) + 1.0)
    value, err, ok = refine(lambda n: _amplitude_fixed_grid(params, omega, n), n0, rel_tol, n_max)
    if not ok:
        raise QuadratureError(f"amplitude at omega={omega} not converged by n={n_max}")
    return value, err


def error_probability(params, omega_grid=None, rel_tol=1e-4):
    """Excitation error lambda^2 * int dw f(w) |amplitude(w)|^2.

    A dirac_comb spectral function reduces to the weighted sum over its
    atoms; continuous kinds are integrated on ``omega_grid`` (trapezoid).
    """
    sf = params.spectral_function
    if sf is None:
        raise ValueError("params.spectral_function is required")
    lam2 = params.coupling**2
    if sf.kind == "dirac_comb":
        total = 0.0
        for w0, wt in zip(*sf.probes):
            amp, _ = amplitude_omega(params, w0, rel_tol=rel_tol)
            total += wt * abs(amp) ** 2
        return lam2 * total
    if omega_grid is None:
        raise ValueError("omega_grid is required for a continuous spectral function")
    omega_grid = np.asarray(omega_grid, dtype=float)
    fvals = np.asarray(bath_evaluate(sf, omega_grid), dtype=float)
    mods = np.zeros_like(omega_grid)
    for i, w in enumerate(omega_grid):
        if fvals[i] == 0.0:
            continue
        amp, _ = amplitude_omega(params, w, rel_tol=rel_tol)
        mods[i] = abs(amp) ** 2
    return float(lam2 * np.trapezoid(fvals * mods, omega_grid))


def error_estimate(params):
    """Order-of-magnitude error lambda^2 * f(gap_min) / gap_min."""
    sf = params.spectral_function
    if sf is None:
        raise ValueError("params.spectral_function is required")
    gap_min = params.min_gap
    fval = float(bath_evaluate(sf, gap_min))
    if not np.isfinite(fval):
        raise ValueError(f"f({gap_min}) is not finite")
    return params.coupling**2 * fval / gap_min

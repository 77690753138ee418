"""Effective two-level treatment of the adiabatic search algorithm.

Closed-form gap, and the weak-coupling excitation-error quadrature plus its
order-of-magnitude estimate.

The bath couples through lambda * |w><w|, the marked-state projector, not
through sum_j sigma^x_j (``projector_element``).
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


def projector_element(g, dim):
    """(<1|w><w|0>, gap) at g: the element -(1-g)/(sqrt(D)*gap) of the
    marked-state projector between the instantaneous ground and first
    excited states, to O(1/D), and the gap that sets its phase rate."""
    gap = grover_gap(g, dim)
    return -(1.0 - g) / (np.sqrt(dim) * gap), gap


def _amplitude_fixed_grid(params, omega, n):
    def nodes(t):
        return projector_element(np.asarray(params.schedule.g_of(t), dtype=float), params.dim)

    return stream_filon(params.schedule.T, n, omega, nodes, filon_integral)


def amplitude_omega(params, omega, rel_tol=1e-4, n_max=2**21):
    """Per-frequency amplitude integral with a grid-doubling certificate."""
    n0 = default_n0(params.schedule.T, abs(omega) + 1.0)
    value, err, ok = refine(lambda n: _amplitude_fixed_grid(params, omega, n), n0, rel_tol, n_max)
    if not ok:
        raise QuadratureError(f"amplitude at omega={omega} not converged by n={n_max}")
    return value, err


def error_probability(params):
    """Excitation error lambda^2 * int dw f(w) |amplitude(w)|^2 of a
    dirac_comb spectral function: the weighted sum over its atoms."""
    sf = params.spectral_function
    if sf is None:
        raise ValueError("params.spectral_function is required")
    if sf.kind != "dirac_comb":
        raise ValueError(f"error_probability needs a dirac_comb spectral function, got {sf.kind!r}")
    total = 0.0
    for w0, wt in zip(*sf.probes):
        amp, _ = amplitude_omega(params, w0)
        total += wt * abs(amp) ** 2
    return params.coupling**2 * total


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

"""Effective two-level treatment of the adiabatic search algorithm.

Closed-form gap, and the weak-coupling excitation-error quadrature plus its
order-of-magnitude estimate.  Each amplitude is certified by the grid doubling
of the Ising amplitudes, ``_kernels.filon_refined``, at -omega (see amplitude_omega).

The bath couples through lambda * |w><w|, the marked-state projector, not
through sum_j sigma^x_j (``projector_element``).
"""

import logging
from dataclasses import dataclass

import numpy as np

from ._kernels import QuadratureError, filon_integral, filon_refined
# unused here, but the traced benchmark (perfbench/layers.py) looks it up in this module
from ._kernels import cumulative_simpson_uniform  # noqa: F401
from .bath import SpectralFunction, evaluate as bath_evaluate
from .ising import _check_count, _check_g, _two_level_gap

_SOFT_LAMBDA = 0.1
_N_MAX = 1023  # largest n_qubits whose dimension 2^N is a float

log = logging.getLogger("qptsweep")


@dataclass
class GroverParams:
    n_qubits: int
    coupling: float
    schedule: object
    spectral_function: SpectralFunction | None = None

    def __post_init__(self):
        _check_count(self.n_qubits, "n_qubits", 1, _N_MAX)
        if not 0.0 <= self.coupling < np.inf:  # NaN fails both comparisons
            raise ValueError(f"coupling must be nonnegative and finite, got {self.coupling}")
        if self.coupling > _SOFT_LAMBDA:
            log.warning("coupling %s above %s: first-order response is only reliable for weak coupling",
                        self.coupling, _SOFT_LAMBDA)

    @property
    def dim(self):
        return 2**self.n_qubits

    @property
    def min_gap(self):
        return grover_gap(0.5, self.dim)


def grover_gap(g, dim):
    """Gap sqrt(1/D + (1 - 2g)^2 (1 - 1/D)) (``ising._two_level_gap``),
    exact to rounding; minimum 1/sqrt(D) at g=1/2, also for D above 2^53."""
    g = _check_g(g)
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    val = _two_level_gap(dim**-0.5, np.sqrt(1.0 - 1.0 / dim), g)
    return val if val.ndim else float(val)


def projector_element(g, dim):
    """(<1|w><w|0>, gap) at g: the element -(1-g)/(sqrt(D)*gap) of the
    marked-state projector between the instantaneous ground and first
    excited states, to O(1/D), and the gap that sets its phase rate."""
    gap = grover_gap(g, dim)
    return -(1.0 - g) / (np.sqrt(dim) * gap), gap


def amplitude_omega(params, omega, rel_tol=1e-4, n_max=2**21):
    """int_0^T element e^{i(int gap + w t)} dt at w = ``omega``, certified by
    ``filon_refined`` at -w: (value, error).  The gap, the rate of its nodes,
    lies in (0, 1], so the phase rate gap + w lies in (w, 1 + w], and the
    first grid resolves the larger of |w| and |1 + w| (1 + w at every w > 0,
    as at the benchmark's probes)."""

    def nodes(t):
        return projector_element(np.asarray(params.schedule.g_of(t), dtype=float), params.dim)

    # -omega: whether the bath pairs with this sign or response's is open (ROADMAP: one frequency convention)
    value, err, ok = filon_refined(nodes, params.schedule.T, -omega, 1.0, filon_integral, rel_tol, n_max)
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

"""Analytic machinery for the transverse Ising ring.

Momentum grid, quasi-particle dispersion, Bogoliubov coefficients (adiabatic
closed form, and the equations of motion integrated for many modes at once),
ground-state energy and gap.  Units: lattice spacing a=1, hbar=1, energies
in units of the coupling, so momenta appear as the dimensionless combination
``ka``.
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import gauss_legendre_times, magnus4_modes
# unused here, but the traced benchmark (perfbench/layers.py) looks them up in this module
from ._kernels import cumulative_simpson_uniform, rk4_mode  # noqa: F401

DEGENERATE_NORM_THRESHOLD = 1e-10


class InvalidChainError(ValueError):
    """N out of range or odd."""


class DegenerateNormalizationError(ArithmeticError):
    """Bogoliubov normalization below threshold (g=1/2 with |ka| -> pi)."""


@dataclass(frozen=True)
class ChainParams:
    """Ring of ``n_spins`` spins with periodic boundary conditions."""

    n_spins: int

    def __post_init__(self):
        n = self.n_spins
        if not isinstance(n, (int, np.integer)) or n < 2 or n % 2 != 0:
            raise InvalidChainError(f"n_spins must be an even integer >= 2, got {n!r}")


@dataclass
class ChainSpectrum:
    """Per-mode energies and (phase-free) Bogoliubov pairs at fixed g."""

    params: ChainParams
    momenta: np.ndarray
    g: float
    energies: np.ndarray
    bogoliubov: np.ndarray  # shape (N, 2), columns (u, v)


@dataclass(frozen=True)
class ModeCoefficients:
    alpha: float
    beta: float


@dataclass
class ModeEndpoint:
    """State at t=T of modes integrated from the t=0 ground state.

    Fields are floats for a scalar ``ka`` and arrays of shape (K,) for a
    1-D ``ka``.
    """

    ka: float | np.ndarray
    schedule: object
    u: complex | np.ndarray
    v: complex | np.ndarray
    norm_defect: float | np.ndarray  # max |(|u|^2+|v|^2) - 1| along the path
    endpoint_error: float | np.ndarray  # step-halving estimate at t=T

    def _ground_at_end(self):
        g_end = self.schedule.g_of(self.schedule.T)
        pairs = [instantaneous_bogoliubov(ka, g_end) for ka in np.atleast_1d(self.ka)]
        u_inst, v_inst = np.array(pairs).T
        return (u_inst, v_inst) if np.ndim(self.ka) else (u_inst[0], v_inst[0])

    def excitation_probability(self):
        """Overlap of the endpoint with the instantaneous excited state at t=T."""
        u_inst, v_inst = self._ground_at_end()
        p = np.abs(self.u * np.conj(v_inst) - self.v * np.conj(u_inst)) ** 2
        return p if np.ndim(p) else float(p)

    def adiabatic_mismatch(self):
        """max(| |u|-|u_ad| |, | |v|-|v_ad| |) at t=T.

        The adiabatic pair differs from the instantaneous ground pair only by
        the phase exp(-i Phi), which the magnitudes drop.
        """
        u_ad, v_ad = self._ground_at_end()
        m = np.maximum(np.abs(np.abs(self.u) - np.abs(u_ad)), np.abs(np.abs(self.v) - np.abs(v_ad)))
        return m if np.ndim(m) else float(m)


def _check_g(g):
    g = np.asarray(g, dtype=float)
    if np.any(g < 0.0) or np.any(g > 1.0):
        raise ValueError(f"g must lie in [0, 1], got {g!r}")
    return g


def _check_ka(ka):
    ka = np.asarray(ka, dtype=float)
    if np.any(np.abs(ka) > np.pi):
        raise ValueError(f"|ka| must not exceed pi, got {ka!r}")
    return ka


def momentum_grid(params):
    """Half-integer momenta (2m+1)*pi/N with |ka| < pi, sorted ascending."""
    n = params.n_spins
    m = np.arange(-n // 2, n // 2)
    return (2 * m + 1) * np.pi / n


def dispersion(ka, g):
    """Single-particle energy 2*sqrt(1 - 4g(1-g)cos^2(ka/2))."""
    ka = _check_ka(ka)
    g = _check_g(g)
    val = 2.0 * np.sqrt(1.0 - 4.0 * g * (1.0 - g) * np.cos(ka / 2.0) ** 2)
    return val if val.ndim else float(val)


def mode_coefficients(ka, g):
    ka = float(_check_ka(ka))
    g = float(_check_g(g))
    alpha = 2.0 - 4.0 * g * np.cos(ka / 2.0) ** 2
    beta = 2.0 * g * np.sin(ka)
    return ModeCoefficients(alpha=float(alpha), beta=float(beta))


def instantaneous_bogoliubov(ka, g):
    """Phase-free Bogoliubov pair ((alpha+E)/norm, beta/norm) at fixed g."""
    coeff = mode_coefficients(ka, g)
    energy = dispersion(ka, g)
    norm_sq = 2.0 * energy**2 + 2.0 * coeff.alpha * energy
    if norm_sq < DEGENERATE_NORM_THRESHOLD**2 or np.sqrt(norm_sq) < DEGENERATE_NORM_THRESHOLD:
        raise DegenerateNormalizationError(
            f"normalization {np.sqrt(norm_sq):.3e} below threshold at ka={ka}, g={g}"
        )
    norm = np.sqrt(norm_sq)
    return (coeff.alpha + energy) / norm, coeff.beta / norm


def adiabatic_bogoliubov(ka, schedule, t):
    """Adiabatic closed-form (u_k, v_k) at time t, phase exp(-i Phi) included."""
    g, _ = schedule.evaluate(t)
    u0, v0 = instantaneous_bogoliubov(ka, g)
    phase = np.exp(-1j * schedule.phase_integral(ka, t))
    return u0 * phase, v0 * phase


def _default_steps(total_time):
    # sets the accuracy only: the Magnus step is unitary, so the norm defect
    # is rounding (<= 3e-13) at any step count; this rule gives Richardson
    # endpoint estimates <= 3e-12 on the perfbench sweeps (bound 1e-6)
    return max(8192, int(np.ceil(256.0 * max(total_time, 1.0))))


def _propagate(ka, schedule, steps):
    times = gauss_legendre_times(schedule.T, steps)
    g_nodes = np.asarray(schedule.g_of(times), dtype=float)
    g_start = float(schedule.g_of(0.0))
    u0, v0 = np.array([instantaneous_bogoliubov(k, g_start) for k in ka], dtype=complex).T
    return magnus4_modes(g_nodes, ka, schedule.T / steps, u0, v0)


def integrate_bogoliubov(ka, schedule, steps=None):
    """Integrate the mode equations of motion from the t=0 ground state.

    ``ka`` is a scalar or a 1-D array; all modes share one fourth-order
    Magnus propagation.  The endpoint error estimate compares it with a
    rerun at half the steps (Richardson comparison).
    """
    ka = _check_ka(ka)
    if ka.ndim > 1:
        raise ValueError(f"ka must be a scalar or 1-D, got shape {ka.shape}")
    if steps is None:
        steps = _default_steps(schedule.T)
    if steps < 16:
        raise ValueError(f"steps must be at least 16, got {steps}")
    modes = np.atleast_1d(ka)
    u, v, norm_defect = _propagate(modes, schedule, steps)
    u_half, v_half, _ = _propagate(modes, schedule, max(steps // 2, 8))
    endpoint_error = np.abs(u - u_half) + np.abs(v - v_half)
    if ka.ndim:
        return ModeEndpoint(ka, schedule, u, v, norm_defect, endpoint_error)
    return ModeEndpoint(
        float(ka), schedule, complex(u[0]), complex(v[0]),
        float(norm_defect[0]), float(endpoint_error[0]),
    )


def adiabatic_mismatch(ka, schedule, steps=None):
    """Endpoint mismatch between the integrated and adiabatic Bogoliubov pairs.

    Compares the component magnitudes max(| |u|-|u_ad| |, | |v|-|v_ad| |) at
    t=T.  The closed-form adiabatic phase is only accurate to O(1/T) (the
    ansatz omits a subleading dynamical-phase correction), so magnitudes are
    the meaningful convergence measure; they are also what the response
    amplitudes consume.
    """
    return integrate_bogoliubov(ka, schedule, steps=steps).adiabatic_mismatch()


def ground_energy_analytic(params, g):
    """-(1/2) * sum_k E_k(g) over the half-integer grid."""
    g = float(_check_g(g))
    grid = momentum_grid(params)
    return float(-0.5 * np.sum(dispersion(grid, g)))


def min_gap(params, g):
    """Fundamental gap 2*E_{ka=pi/N}(g)."""
    return 2.0 * dispersion(np.pi / params.n_spins, g)


def global_min_gap(params):
    """Minimum of the fundamental gap over g, attained at g=1/2."""
    return float(4.0 * np.sin(np.pi / (2.0 * params.n_spins)))


def spectrum(params, g):
    """ChainSpectrum at fixed g with phase-free Bogoliubov pairs."""
    grid = momentum_grid(params)
    energies = dispersion(grid, g)
    pairs = np.array([instantaneous_bogoliubov(ka, g) for ka in grid], dtype=complex)
    return ChainSpectrum(params=params, momenta=grid, g=float(g), energies=energies, bogoliubov=pairs)


def excitation_probability_mode(ka, schedule, steps=None):
    """Closed-system excitation probability of mode ka after the sweep.

    Overlap of the integrated (u, v) with the instantaneous excited state at
    t=T; vanishes for a frozen schedule and decreases with slower sweeps.
    """
    return integrate_bogoliubov(ka, schedule, steps=steps).excitation_probability()

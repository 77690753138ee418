"""Analytic machinery for the transverse Ising ring.

Momentum grid, quasi-particle dispersion, Bogoliubov coefficients (the
instantaneous pair, and the equations of motion, each for many modes at
once), ground-state energy and gap.  Units: lattice spacing a=1, hbar=1,
energies in units of the coupling, so momenta appear as the dimensionless
combination ``ka``.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import gauss_legendre_times, magnus4_modes, refine
# unused here, but the traced benchmark (perfbench/layers.py) looks them up in this module
from ._kernels import cumulative_simpson_uniform, rk4_mode  # noqa: F401

DEGENERATE_NORM_THRESHOLD = 1e-10
# Without explicit steps, each mode's Magnus grid doubles until the endpoints
# of two successive grids differ by |du| + |dv| < ENDPOINT_TOL, 1000x below
# the bound a ``sweep`` row must meet, from a first grid of at least
# _STEPS_PER_TIME steps per unit time.
ENDPOINT_TOL = 1e-9
_STEPS_PER_TIME = 16


@dataclass(frozen=True)
class ChainParams:
    """Ring of ``n_spins`` spins with periodic boundary conditions; N at most
    2^53, so that pi/N is a float."""

    n_spins: int

    def __post_init__(self):
        if _check_count(self.n_spins, "n_spins", 2, 2**53) % 2:
            raise ValueError(f"n_spins must be even, got {self.n_spins}")


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
    norm_defect: float | np.ndarray  # max |(|u|^2+|v|^2) - 1| at block ends and |q|^2 - 1 of step products
    endpoint_error: float | np.ndarray  # |du| + |dv| between the last two grids at t=T
    n_grid: int | np.ndarray  # Magnus steps of the last grid

    def _ground_at_end(self):
        g_end = self.schedule.g_of(self.schedule.T)
        return bogoliubov_pair(self.ka, g_end, dispersion(self.ka, g_end))

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


def _check_count(value, name, lo, hi=np.inf):
    """``value`` if it is an integer in [lo, hi]; a float such as 6.0 is not one."""
    if not isinstance(value, (int, np.integer)) or not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return value


def _check_g(g):
    g = np.asarray(g, dtype=float)
    inside = (g >= 0.0) & (g <= 1.0)  # NaN fails both comparisons
    if not np.all(inside):
        raise ValueError(f"g must lie in [0, 1], got {float(g[~inside][0])!r}")
    return g


def _check_ka(ka):
    ka = np.asarray(ka, dtype=float)
    if not np.all(np.abs(ka) <= np.pi):  # NaN fails the comparison
        raise ValueError(f"|ka| must not exceed pi, got {ka!r}")
    return ka


def momentum_grid(params):
    """Half-integer momenta (2m+1)*pi/N with |ka| < pi, sorted ascending."""
    n = params.n_spins
    m = np.arange(-n // 2, n // 2)
    return (2 * m + 1) * np.pi / n


def _two_level_gap(s, c, g):
    """sqrt(s^2 + ((1 - 2g) c)^2), c^2 = 1 - s^2: the gap of a two-level crossing
    of minimum s at g = 1/2, exact to rounding there, where the equivalent
    sqrt(1 - 4g(1-g) c^2) cancels.  Not ``np.hypot``: 3x slower per Filon block."""
    d = (1.0 - 2.0 * g) * c
    return np.sqrt(s * s + d * d)


def dispersion(ka, g):
    """Single-particle energy 2*sqrt(sin^2(ka/2) + (1 - 2g)^2 cos^2(ka/2)),
    exact to rounding, also at g = 1/2 (see ``_two_level_gap``)."""
    ka = _check_ka(ka)
    g = _check_g(g)
    val = 2.0 * _two_level_gap(np.sin(ka / 2.0), np.cos(ka / 2.0), g)
    return val if val.ndim else float(val)


def bogoliubov_pair(ka, g, energy):
    """Instantaneous ground pair (u_k, v_k) of modes ``ka`` at couplings ``g``
    and energies E = ``energy`` (``dispersion(ka, g)``); all three broadcast.

    With alpha = 2 sin^2(ka/2) + 2(1 - 2g) cos^2(ka/2) for g >= 1/4 (not
    2 - 4g cos^2(ka/2), which cancels near g = 1/2) and 2 - 4g cos^2(ka/2)
    below (exactly 2 at g = 0, so the pair is exactly (1, 0) there),
    beta = 2g sin(ka), E^2 = alpha^2 + beta^2:
    u = sqrt((E + alpha)/2E) >= 0 and v = sign(beta) sqrt((E - alpha)/2E), so
    u^2 + v^2 = 1, 2E u v = beta and E (u^2 - v^2) = alpha.  The smaller of
    E +- alpha cancels, but it is beta^2/(E + |alpha|), so the larger
    of |u|, |v| is (E + |alpha|)/R and the smaller |beta|/R, with
    R^2 = 2E(E + |alpha|): no digits lost.  The pair is undefined where E = 0,
    which ``dispersion`` gives only at ka = 0 (and g = 1/2); R below
    DEGENERATE_NORM_THRESHOLD raises ``ValueError``.
    """
    ka, g = np.asarray(ka, dtype=float), np.asarray(g, dtype=float)
    sin_ka, sin_half, cos_half = np.sin(ka), np.sin(ka / 2.0), np.cos(ka / 2.0)
    # in place: a fresh temporary per Filon block costs about as much as the operation filling it
    shape = np.broadcast(ka, g, energy).shape
    four_cos2 = 4.0 * cos_half * cos_half  # not ** 2: a scalar's is pow()
    n_u = np.empty(shape)  # alpha
    if g.min() >= 0.25:
        np.subtract(0.5, g, out=n_u)  # exact for g >= 1/4
        n_u *= four_cos2
        n_u += 2.0 * sin_half * sin_half
    else:
        np.multiply(g, -four_cos2, out=n_u)
        n_u += 2.0
        if g.max() >= 0.25:  # a block that straddles g = 1/4
            n_u = np.where(np.less(g, 0.25), n_u, (0.5 - g) * four_cos2 + 2.0 * sin_half * sin_half)
    swap = n_u < 0.0  # there u is the smaller side
    np.abs(n_u, out=n_u)
    n_u += energy  # E + |alpha|
    n_v = np.multiply(2.0 * np.abs(sin_ka), g, out=np.empty(shape))  # |beta|
    scale = np.multiply(n_u, energy, out=np.empty(shape))  # R^2/2
    if scale.min() < 0.5 * DEGENERATE_NORM_THRESHOLD**2:
        raise ValueError(f"E_k down to {np.min(energy):.3e}: no pair at E_k = 0")
    np.divide(0.5, scale, out=scale)
    np.sqrt(scale, out=scale)  # 1/R
    n_u *= scale
    n_v *= scale
    n_u, n_v = np.where(swap, n_v, n_u), np.where(swap, n_u, n_v)  # np.copyto(where=) faults in 64 kB more
    n_v *= np.copysign(1.0, sin_ka)
    return n_u, n_v


def _mode_coefficients(ka):
    """The equations of motion of the modes ``ka`` as rows (a0, a1, b0, b1),
    shape ka.shape + (4,), of the two-level propagators: a = a0 + a1 g =
    2 - 4g cos^2(ka/2) and b = b0 + b1 g = 2g sin(ka)."""
    ka = np.asarray(ka, dtype=float)
    return np.stack((np.full(ka.shape, 2.0), -4.0 * np.cos(ka / 2.0) ** 2, np.zeros(ka.shape), 2.0 * np.sin(ka)),
                    axis=-1)


def _default_steps(total_time):
    # the cap of the certified step doubling: a mode not certified on this
    # grid is reported with the difference from the grid before it
    return max(8192, int(np.ceil(256.0 * max(total_time, 1.0))))


def _propagate(coef, u0, v0, schedule, steps):
    times = gauss_legendre_times(schedule.T, steps)
    g_nodes = np.asarray(schedule.g_of(times), dtype=float)
    return magnus4_modes(g_nodes, coef, schedule.T / steps, u0, v0)


def _doubled(coef, u0, v0, schedule):
    """Each row of ``coef``, from its start state (``u0``, ``v0``), on grids
    n0, 2*n0, ... up to the cap, stopped by ``refine`` at the first grid
    within ENDPOINT_TOL of the grid before it.

    n0 is the cap over the largest power of two (at least 2) that leaves at
    least _STEPS_PER_TIME steps per unit time, so the last grid is the cap
    rounded up to a multiple of that power.  Every row is propagated alone
    of the others (``magnus4_modes`` is elementwise in the rows), so its
    result does not depend on which rows share the call.
    """
    cap = _default_steps(schedule.T)
    first = max(8, int(np.ceil(_STEPS_PER_TIME * schedule.T)))
    doublings = max(1, (cap // first).bit_length() - 1)
    norm_defect = np.zeros(u0.shape)
    n_grid = np.zeros(u0.shape, dtype=int)

    def eval_at(n, rows):
        u, v, norm_defect[rows] = _propagate(coef[rows], u0[rows], v0[rows], schedule, n)
        n_grid[rows] = n
        return np.stack((u, v), axis=1)

    # the state has unit norm, so refine's relative difference is |du| + |dv|
    pair, endpoint_error, _ = refine(eval_at, -(-cap >> doublings), ENDPOINT_TOL, cap)
    return pair[:, 0], pair[:, 1], norm_defect, endpoint_error, n_grid


def integrate_bogoliubov(ka, schedule, steps=None):
    """Integrate the mode equations of motion from the t=0 ground state.

    ``ka`` is a scalar or a 1-D array; all modes share one fourth-order
    Magnus propagation per grid.  With ``steps`` the endpoint error compares
    that grid with one of half the steps (at least 8).  Without, each mode's
    grid doubles until two successive grids agree to ENDPOINT_TOL in
    |du| + |dv| (see ``_doubled``), and the endpoint error is the difference
    between its last two grids.
    """
    ka = _check_ka(ka)
    if ka.ndim > 1:
        raise ValueError(f"ka must be a scalar or 1-D, got shape {ka.shape}")
    modes = np.atleast_1d(ka)
    g_start = float(schedule.g_of(0.0))
    start = bogoliubov_pair(modes, g_start, dispersion(modes, g_start))
    coef = _mode_coefficients(modes)
    if steps is None:
        u, v, norm_defect, endpoint_error, n_grid = _doubled(coef, *start, schedule)
    else:
        if steps < 16:
            raise ValueError(f"steps must be at least 16, got {steps}")
        u, v, norm_defect = _propagate(coef, *start, schedule, steps)
        u_half, v_half, _ = _propagate(coef, *start, schedule, max(steps // 2, 8))
        endpoint_error = np.abs(u - u_half) + np.abs(v - v_half)
        n_grid = np.full(modes.shape, steps)
    if ka.ndim:
        return ModeEndpoint(ka, schedule, u, v, norm_defect, endpoint_error, n_grid)
    return ModeEndpoint(
        float(ka), schedule, complex(u[0]), complex(v[0]),
        float(norm_defect[0]), float(endpoint_error[0]), int(n_grid[0]),
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
    """Minimum of the fundamental gap over g, 4*sin(pi/2N), attained at g=1/2."""
    return min_gap(params, 0.5)


def excitation_probability_mode(ka, schedule, steps=None):
    """Closed-system excitation probability of mode ka after the sweep.

    Overlap of the integrated (u, v) with the instantaneous excited state at
    t=T; decreases with slower sweeps.
    """
    return integrate_bogoliubov(ka, schedule, steps=steps).excitation_probability()

"""Interpolation schedules g(t) and run-time estimation.

Three families: constant-speed, gap-adapted (dg/dt proportional to the
fundamental gap) and gap-squared-adapted.  The adapted kinds are tabulated by
integrating dg/dt = c * gap(g)^p with c fixed by g(T) = 1.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from ._kernels import cumulative_simpson_uniform
from .ising import ChainParams, dispersion, global_min_gap, min_gap

KINDS = ("linear", "gap_adapted", "gap_squared_adapted", "frozen")

_TAB_POINTS = 8193  # >= 4096 per contract; odd for Simpson
_PHASE_POINTS = 16385


@dataclass
class Schedule:
    """Monotone interpolation with g(0)=0 and g(T)=1 (except ``frozen``).

    ``frozen`` holds g constant; it violates the boundary conditions on
    purpose and exists only as a diagnostic for the closed-system tests.
    """

    kind: str
    T: float
    n_spins: int | None = None
    g_frozen: float | None = None
    t_tab: np.ndarray | None = None
    g_tab: np.ndarray | None = None
    gdot_tab: np.ndarray | None = None
    _g_interp: object = field(default=None, repr=False)
    _t_interp: object = field(default=None, repr=False)
    _phase_cache: dict = field(default_factory=dict, repr=False)

    def _check_t(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.T * (1.0 + 1e-12)):
            raise ValueError(f"t must lie in [0, {self.T}], got {t!r}")
        return np.clip(t, 0.0, self.T)

    def g_of(self, t):
        t = self._check_t(t)
        if self.kind == "frozen":
            out = np.full_like(t, self.g_frozen)
        elif self.kind == "linear":
            out = t / self.T
        else:
            out = np.clip(self._g_interp(t), 0.0, 1.0)
        return out if out.ndim else float(out)

    def gdot_of(self, t):
        t = self._check_t(t)
        if self.kind == "frozen":
            out = np.zeros_like(t)
        elif self.kind == "linear":
            out = np.full_like(t, 1.0 / self.T)
        else:
            out = self._c * min_gap(ChainParams(self.n_spins), self.g_of(t)) ** self._p
        return out if out.ndim else float(out)

    def evaluate(self, t):
        """(g, dg/dt) at time t."""
        return self.g_of(t), self.gdot_of(t)

    def invert(self, g):
        """Time at which the schedule reaches g."""
        g = np.asarray(g, dtype=float)
        if np.any(g < 0.0) or np.any(g > 1.0):
            raise ValueError(f"g must lie in [0, 1], got {g!r}")
        if self.kind == "frozen":
            raise ValueError("frozen schedule is not invertible")
        if self.kind == "linear":
            out = g * self.T
        else:
            out = np.clip(self._t_interp(g), 0.0, self.T)
        return out if out.ndim else float(out)

    def phase_integral(self, ka, t, n_points=_PHASE_POINTS):
        """Accumulated single-particle phase int_0^t E_k(g(t')) dt'."""
        key = (float(ka), n_points)
        interp = self._phase_cache.get(key)
        if interp is None:
            t_grid = np.linspace(0.0, self.T, n_points)
            g_grid = np.asarray(self.g_of(t_grid), dtype=float)
            energies = dispersion(np.full(n_points, float(ka)), g_grid)
            cum = cumulative_simpson_uniform(energies, t_grid[1] - t_grid[0])
            interp = PchipInterpolator(t_grid, cum)
            self._phase_cache[key] = interp
        t = self._check_t(t)
        out = interp(t)
        return out if np.ndim(t) else float(out)


def make_schedule(kind, T, n_spins=None, g_frozen=None):
    if kind not in KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}; expected one of {KINDS}")
    if T <= 0.0 and kind != "frozen":
        raise ValueError(f"T must be positive, got {T}")
    if kind == "frozen":
        if g_frozen is None:
            raise ValueError("frozen schedule needs g_frozen")
        return Schedule(kind=kind, T=float(T), g_frozen=float(g_frozen))
    if kind == "linear":
        sched = Schedule(kind=kind, T=float(T))
        t_tab = np.linspace(0.0, T, _TAB_POINTS)
        sched.t_tab = t_tab
        sched.g_tab = t_tab / T
        sched.gdot_tab = np.full(_TAB_POINTS, 1.0 / T)
        return sched
    if n_spins is None:
        raise ValueError(f"{kind} schedule needs n_spins")
    p = 1 if kind == "gap_adapted" else 2
    g_grid = np.linspace(0.0, 1.0, _TAB_POINTS)
    gap = min_gap(ChainParams(int(n_spins)), g_grid)
    inv = gap ** (-p)
    cum = cumulative_simpson_uniform(inv, g_grid[1] - g_grid[0])
    c = cum[-1] / T  # boundary condition g(T) = 1
    t_tab = cum / c
    t_tab[0] = 0.0
    t_tab[-1] = T
    sched = Schedule(kind=kind, T=float(T), n_spins=int(n_spins))
    sched.t_tab = t_tab
    sched.g_tab = g_grid
    sched.gdot_tab = c * gap**p
    sched._g_interp = PchipInterpolator(t_tab, g_grid)
    sched._t_interp = PchipInterpolator(g_grid, t_tab)
    sched._c = c
    sched._p = p
    return sched


# runtime_estimate uses a unit matrix-element normalization: the adiabatic
# condition is an inequality, so only the gap scaling is meaningful.
def runtime_estimate(model, n_spins):
    """Required run-time max|<1|dH/dg|0>| / min(gap)^2 with unit numerator."""
    if model == "ising":
        gap_min = global_min_gap(ChainParams(n_spins))
    elif model == "grover":
        gap_min = 2.0 ** (-n_spins / 2.0)
    else:
        raise ValueError(f"model must be 'ising' or 'grover', got {model!r}")
    return float(1.0 / gap_min**2)

"""Interpolation schedules g(t).

Three families: constant-speed, gap-adapted (dg/dt proportional to the
fundamental gap) and gap-squared-adapted.  The adapted kinds solve
dg/dt = c * gap(g)^p with c fixed by g(T) = 1.  The fundamental gap
2E_{pi/N}(g) = 4*sqrt(4c^2 x^2 + s^2), with c = cos(pi/2N), s = sin(pi/2N)
and x = g - 1/2, makes both exactly solvable: t(g) is proportional to
F(g) - F(0) with F(g) = asinh(2cx/s)/(8c) for p=1 and
F(g) = arctan(2cx/s)/(32cs) for p=2, and g(t) inverts it in closed form.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import cumulative_simpson_uniform
from .ising import ChainParams, _check_ka, dispersion, min_gap

KINDS = ("linear", "gap_adapted", "gap_squared_adapted", "frozen")

_PHASE_POINTS = 16385

# F(g) = outer(2cx/s) / k: outer and its inverse per power p of the gap
_OUTER = {1: (np.arcsinh, np.sinh), 2: (np.arctan, np.tan)}


def _cot_half_step(n_spins):
    """c/s = cot(pi/2N)."""
    half = math.pi / (2 * n_spins)
    return math.cos(half) / math.sin(half)


def _linear_phase(ka, x):
    """G(x), odd in x, with int E_k dg over [-1/2, x] (in x = g - 1/2) equal
    to G(x) + G(1/2).

    E_k = 2*sqrt(4c^2 x^2 + s^2) with c = cos(ka/2), s = sin(ka/2), so
    G(x) = x*sqrt(4c^2 x^2 + s^2) + (s^2/2c)*asinh(2cx/s).  The second term
    is written as s*x*asinh(z)/z, which stays finite as c -> 0 (ka -> pi,
    E = 2s); at s = 0 (ka = 0, E = 4c|x|) it vanishes.
    """
    ka = float(_check_ka(ka))
    c, s = abs(math.cos(ka / 2.0)), abs(math.sin(ka / 2.0))
    root = x * np.sqrt(4.0 * c * c * x * x + s * s)
    if s == 0.0:
        return root
    z = 2.0 * c * x / s
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(z == 0.0, 1.0, np.arcsinh(z) / z)
    return root + s * x * ratio


def _hermite(t_grid, y, dy, t):
    """Cubic Hermite interpolant of nodes (t_grid, y) with slopes dy, at t."""
    i = np.clip(np.searchsorted(t_grid, t, side="right") - 1, 0, len(t_grid) - 2)
    h = t_grid[i + 1] - t_grid[i]
    u = (t - t_grid[i]) / h
    v = 1.0 - u
    return (
        v * v * ((1.0 + 2.0 * u) * y[i] + u * h * dy[i])
        + u * u * ((1.0 + 2.0 * v) * y[i + 1] - v * h * dy[i + 1])
    )


@dataclass
class Schedule:
    """Monotone interpolation with g(0)=0 and g(T)=1 (except ``frozen``).

    ``frozen`` holds g constant; it violates the boundary conditions on
    purpose and exists only as a diagnostic for the closed-system tests.
    The adapted kinds carry ``_c`` and ``_p`` of dg/dt = _c * gap^_p.
    """

    kind: str
    T: float
    n_spins: int | None = None
    g_frozen: float | None = None
    _c: float | None = None
    _p: int | None = None
    _phase_cache: dict = field(default_factory=dict, repr=False)

    def _check_t(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.T * (1.0 + 1e-12)):
            raise ValueError(f"t must lie in [0, {self.T}], got {t!r}")
        return np.clip(t, 0.0, self.T)

    def _adapted(self):
        """(outer, inverse, A, inverse(A)) of an adapted kind, A = outer(c/s).

        In u = 2t/T - 1, F(0) + _c*t = u*F(1), so g(t) = 1/2 + (s/2c)*inverse(u*A).
        Dividing by inverse(A), which is c/s up to rounding, keeps both maps
        odd about the midpoint and exact at the ends: g(0) = 0, g(T) = 1.
        """
        outer, inverse = _OUTER[self._p]
        a = outer(_cot_half_step(self.n_spins))
        return outer, inverse, a, inverse(a)

    def g_of(self, t):
        t = self._check_t(t)
        if self.kind == "frozen":
            out = np.full_like(t, self.g_frozen)
        elif self.kind == "linear":
            out = t / self.T
        else:
            _, inverse, a, ratio = self._adapted()
            u = 2.0 * t / self.T - 1.0
            out = np.clip(0.5 + 0.5 * inverse(u * a) / ratio, 0.0, 1.0)
        return out if out.ndim else float(out)

    def gdot_of(self, t):
        t = self._check_t(t)
        if self.kind == "frozen":
            out = np.zeros_like(t)
        elif self.kind == "linear":
            out = np.full_like(t, 1.0 / self.T)
        else:
            out = self._c * np.asarray(min_gap(ChainParams(self.n_spins), self.g_of(t))) ** self._p
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
            outer, _, _, ratio = self._adapted()
            u = outer((2.0 * g - 1.0) * ratio) / outer(ratio)
            out = np.clip(0.5 * self.T * (1.0 + u), 0.0, self.T)
        return out if out.ndim else float(out)

    def phase_integral(self, ka, t):
        """Accumulated single-particle phase int_0^t E_k(g(t')) dt'.

        Closed form for the linear and frozen kinds.  The adapted kinds
        tabulate it by cumulative Simpson on ``_PHASE_POINTS`` nodes and
        interpolate by cubic Hermite with the exact slope E_k(g(t)).
        """
        t = self._check_t(t)
        if self.kind == "frozen":
            out = dispersion(ka, self.g_frozen) * t
        elif self.kind == "linear":
            out = self.T * (_linear_phase(ka, t / self.T - 0.5) + _linear_phase(ka, 0.5))
        else:
            # keyed by a tuple with ka first, which perfbench/layers.py reads
            key = (float(ka),)
            nodes = self._phase_cache.get(key)
            if nodes is None:
                t_grid = np.linspace(0.0, self.T, _PHASE_POINTS)
                g_grid = np.asarray(self.g_of(t_grid), dtype=float)
                energies = dispersion(np.full(_PHASE_POINTS, float(ka)), g_grid)
                cum = cumulative_simpson_uniform(energies, t_grid[1] - t_grid[0])
                nodes = self._phase_cache[key] = (t_grid, cum, energies)
            out = _hermite(*nodes, t)
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
        return Schedule(kind=kind, T=float(T))
    if n_spins is None:
        raise ValueError(f"{kind} schedule needs n_spins")
    n = ChainParams(int(n_spins)).n_spins
    p = 1 if kind == "gap_adapted" else 2
    c, s = math.cos(math.pi / (2 * n)), math.sin(math.pi / (2 * n))
    f1 = float(_OUTER[p][0](_cot_half_step(n))) / (8.0 * c if p == 1 else 32.0 * c * s)
    # g(T) = 1: _c = (F(1) - F(0))/T, and F(0) = -F(1)
    return Schedule(kind=kind, T=float(T), n_spins=n, _c=2.0 * f1 / T, _p=p)

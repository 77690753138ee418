"""Interpolation schedules g(t).

Three families of dg/dt = c * gap(g)^p with c fixed by g(T) = 1:
constant-speed (p = 0), gap-adapted (p = 1) and gap-squared-adapted
(p = 2).  An adapted kind follows the gap 4*sqrt(s^2 + 4c^2 x^2),
x = g - 1/2, of a two-level crossing (s, c) with s^2 + c^2 = 1
(``ising._two_level_gap``); the chain's fundamental gap 2E_{pi/N}(g) is the
crossing (s, c) = (sin, cos)(pi/2N).  The adapted kinds are closed form:
t(g) is proportional to F(g) - F(0) with F(g) = asinh(2cx/s)/(8c) for p=1
and F(g) = arctan(2cx/s)/(32cs) for p=2, so g(t) and its inverse depend on
the crossing only through c/s.  The phase integral int E_k dt is closed
form for the linear kind and a certified ``nested_simpson`` integral for
the adapted ones.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import QuadratureError, nested_simpson
# unused here, but the traced benchmark (perfbench/layers.py) looks it up in this module
from ._kernels import cumulative_simpson_uniform  # noqa: F401
from .ising import ChainParams, _check_g, _check_ka, _two_level_gap, dispersion

KINDS = ("linear", "gap_adapted", "gap_squared_adapted")

_PHASE_FIRST = 64  # intervals of the first grid of an adapted kind's phase integral

# F(g) = outer(2cx/s) / k: outer and its inverse per power p of the gap
_OUTER = {1: (np.arcsinh, np.sinh), 2: (np.arctan, np.tan)}


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


@dataclass
class Schedule:
    """Monotone interpolation with g(0)=0, g(T)=1 and dg/dt = _c * gap(g)^_p.

    An adapted kind's gap is that of its ``crossing`` (s, c); ``linear`` has
    _p = 0, _c = 1/T and no crossing.
    """

    kind: str
    T: float
    _c: float
    _p: int = 0
    crossing: tuple[float, float] | None = None

    def _check_t(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.T * (1.0 + 1e-12)):
            raise ValueError(f"t must lie in [0, {self.T}], got {t!r}")
        return np.clip(t, 0.0, self.T)

    def g_of(self, t):
        """In u = 2t/T - 1, F(0) + _c*t = u*F(1), so g(t) = 1/2 + (s/2c)*inverse(u*A)
        with A = outer(c/s).  Dividing by inverse(A), which is c/s up to rounding,
        keeps g odd about the midpoint and exact at the ends: g(0) = 0, g(T) = 1."""
        t = self._check_t(t)
        if not self._p:
            out = t / self.T
        else:
            outer, inverse = _OUTER[self._p]
            s, c = self.crossing
            a = outer(c / s)
            u = 2.0 * t / self.T - 1.0
            out = np.clip(0.5 + 0.5 * inverse(u * a) / inverse(a), 0.0, 1.0)
        return out if out.ndim else float(out)

    def rate(self, g):
        """dg/dt where the schedule reaches g."""
        g = _check_g(g)
        if not self._p:
            out = np.full_like(g, self._c)
        else:
            out = self._c * (4.0 * _two_level_gap(*self.crossing, g)) ** self._p
        return out if out.ndim else float(out)

    def invert(self, g):
        """Time at which the schedule reaches g."""
        g = _check_g(g)
        if not self._p:
            out = g * self.T
        else:
            outer, inverse = _OUTER[self._p]
            s, c = self.crossing
            ratio = inverse(outer(c / s))
            u = outer((2.0 * g - 1.0) * ratio) / outer(ratio)
            out = np.clip(0.5 * self.T * (1.0 + u), 0.0, self.T)
        return out if out.ndim else float(out)

    def phase_integral(self, ka, t):
        """Accumulated single-particle phase int_0^t E_k(g(t')) dt'.

        Closed form for the linear kind.  The adapted kinds
        integrate t E_k(g(t u)) over u in [0, 1] for every t at once, by
        ``nested_simpson``; a value it does not certify raises
        ``QuadratureError``.
        """
        t = self._check_t(t)
        if not self._p:
            out = self.T * (_linear_phase(ka, t / self.T - 0.5) + _linear_phase(ka, 0.5))
        else:
            upper = t.reshape(-1, 1)
            out, _, ok = nested_simpson(
                lambda u: u, lambda rows, u: upper[rows] * dispersion(ka, self.g_of(upper[rows] * u)),
                upper.shape[0], _PHASE_FIRST,
            )
            if not ok.all():
                raise QuadratureError(f"phase integral to t={upper[~ok][0, 0]} at ka={ka} not certified")
            out = out.reshape(t.shape)
        return out if np.ndim(t) else float(out)


def make_schedule(kind, T, n_spins=None):
    """Schedule ``kind`` of run-time T; an adapted kind follows the fundamental
    gap of the ring of ``n_spins`` spins, the crossing (sin, cos)(pi/2N)."""
    if kind not in KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}; expected one of {KINDS}")
    if not 0.0 < T < math.inf:  # NaN fails both comparisons
        raise ValueError(f"T must be positive and finite, got {T}")
    T = float(T)
    if kind == "linear":
        return Schedule(kind, T, 1.0 / T)
    if n_spins is None:
        raise ValueError(f"{kind} schedule needs n_spins")
    n = ChainParams(n_spins).n_spins
    p = 1 if kind == "gap_adapted" else 2
    s, c = math.sin(math.pi / (2 * n)), math.cos(math.pi / (2 * n))
    f1 = float(_OUTER[p][0](c / s)) / (8.0 * c if p == 1 else 32.0 * c * s)
    # g(T) = 1: _c = (F(1) - F(0))/T, and F(0) = -F(1)
    return Schedule(kind, T, 2.0 * f1 / T, p, (s, c))

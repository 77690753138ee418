"""A schedule stand-in that holds g constant, for closed-system checks of
the mode propagator and the channel amplitudes at one coupling.  A sweep
schedule always runs g from 0 to 1, so the library has no such kind."""

import numpy as np


class ConstantG:
    """g(t) = ``g`` for t in [0, ``T``]: the ``T`` and ``g_of`` that
    ``ising.integrate_bogoliubov`` and ``response.amplitude_bitflip`` read."""

    def __init__(self, T, g):
        self.T, self.g = float(T), float(g)

    def g_of(self, t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self.g) if t.ndim else self.g

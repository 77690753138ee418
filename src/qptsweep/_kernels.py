"""Hot numeric kernels: oscillatory quadrature and the two-level mode propagators.

Every kernel is plain numpy.  ``magnus4_modes`` propagates the mode
equations of motion; ``rk4_mode`` is the brute-force integrator the tests
use as its oracle.
"""

import numpy as np

# Taylor switch-over for the Filon moments; below this |dphase| the closed
# form loses digits to cancellation.
_SMALL_PHASE = 1e-3
_ABS_FLOOR = 1e-13  # quadrature results below this sit in roundoff noise


class QuadratureError(RuntimeError):
    """Oscillatory quadrature failed its grid-doubling certificate."""


def filon_integral(env, phase, dt):
    """Integral of env(t) * exp(i*phase(t)) on a uniform grid, env real.

    Per interval the envelope is taken linear and the phase linear, so each
    segment integrates in closed form regardless of how many radians the
    phase advances across it.  With E = e^{i phase} at the nodes, c the
    phase step, a0 the envelope at the left node and da its step, a segment
    contributes

        dt [a0 (E1 - E0)/(ic) + da (E1 (ic - 1) + E0)/(ic)^2],

    that is dt E0 (a0 e0 + da e1) with e0 = (e^{ic} - 1)/(ic) and
    e1 = (e^{ic}(ic - 1) + 1)/(ic)^2.  Below ``_SMALL_PHASE`` the difference
    quotients cancel, and e0, e1 come from their Taylor series instead.  All
    in real arithmetic, with cos and sin taken once per node; written in
    node differences, the rounding of each E enters neighbouring segments
    with opposite signs and largely cancels in the sum.
    """
    cos_p = np.cos(phase)
    sin_p = np.sin(phase)
    dcos = cos_p[1:] - cos_p[:-1]
    dsin = sin_p[1:] - sin_p[:-1]
    c = phase[1:] - phase[:-1]
    a0 = env[:-1]
    da = env[1:] - a0

    small = np.abs(c) < _SMALL_PHASE
    inv = 1.0 / np.where(small, 1.0, c)
    f = da * inv
    re = (a0 * dsin + f * dcos) * inv + f * sin_p[1:]
    im = (f * dsin - a0 * dcos) * inv - f * cos_p[1:]
    if np.any(small):
        cs = c[small]
        c2 = cs * cs
        a0s, das = a0[small], da[small]
        wr = a0s * (1.0 - c2 / 6.0 + c2 * c2 / 120.0) + das * (0.5 - c2 / 8.0 + c2 * c2 / 144.0)
        wi = a0s * (cs / 2.0 - cs * c2 / 24.0) + das * (cs / 3.0 - cs * c2 / 30.0)
        c0, s0 = cos_p[:-1][small], sin_p[:-1][small]
        re[small] = c0 * wr - s0 * wi
        im[small] = c0 * wi + s0 * wr
    return complex(dt * np.sum(re), dt * np.sum(im))


def refine(eval_at, n0, rel_tol, n_max):
    """Grid-doubling driver; returns (value, error_estimate, converged).

    ``eval_at(n)`` evaluates the quadrature on n intervals, n = n0, 2*n0, ... <= n_max.
    """
    n = n0
    prev = eval_at(n)
    while n < n_max:
        n *= 2
        cur = eval_at(n)
        diff = abs(cur - prev)
        scale = max(abs(cur), _ABS_FLOOR)
        if diff / scale < rel_tol or (abs(cur) < _ABS_FLOOR and diff < _ABS_FLOOR):
            return cur, diff / scale, True
        prev = cur
    return prev, abs(prev), False


def rk4_mode(g2, ka, dt, u0=1.0 + 0.0j, v0=0.0 + 0.0j):
    """RK4 for i u' = a u + b v, i v' = -a v + b u with a, b functions of g.

    ``g2`` holds g at the step points and midpoints (length 2n+1).  Returns
    the full (u, v) trajectory at the n+1 step points, starting from
    (u0, v0).  A step-by-step Python loop: the brute-force oracle the tests
    check ``magnus4_modes`` against.
    """
    n = (g2.shape[0] - 1) // 2
    chalf = np.cos(ka / 2.0) ** 2
    ska = np.sin(ka)
    u = np.empty(n + 1, dtype=complex)
    v = np.empty(n + 1, dtype=complex)
    u[0] = u0
    v[0] = v0
    uc, vc = complex(u0), complex(v0)
    for i in range(n):
        g0 = g2[2 * i]
        gm = g2[2 * i + 1]
        g1 = g2[2 * i + 2]
        a0 = 2.0 - 4.0 * g0 * chalf
        b0 = 2.0 * g0 * ska
        am = 2.0 - 4.0 * gm * chalf
        bm = 2.0 * gm * ska
        a1 = 2.0 - 4.0 * g1 * chalf
        b1 = 2.0 * g1 * ska

        k1u = -1j * (a0 * uc + b0 * vc)
        k1v = -1j * (-a0 * vc + b0 * uc)
        u2 = uc + 0.5 * dt * k1u
        v2 = vc + 0.5 * dt * k1v
        k2u = -1j * (am * u2 + bm * v2)
        k2v = -1j * (-am * v2 + bm * u2)
        u3 = uc + 0.5 * dt * k2u
        v3 = vc + 0.5 * dt * k2v
        k3u = -1j * (am * u3 + bm * v3)
        k3v = -1j * (-am * v3 + bm * u3)
        u4 = uc + dt * k3u
        v4 = vc + dt * k3v
        k4u = -1j * (a1 * u4 + b1 * v4)
        k4v = -1j * (-a1 * v4 + b1 * u4)

        uc = uc + dt * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
        vc = vc + dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        u[i + 1] = uc
        v[i + 1] = vc
    return u, v


# The Gauss-Legendre nodes of a step sit at (1/2 -+ sqrt(3)/6) dt, and the
# same sqrt(3)/6 weighs the commutator term of the fourth-order exponent.
_GL_OFFSET = np.sqrt(3.0) / 6.0
# Steps per block of the streamed prefix product; a block's states are the
# only per-step values the propagator holds at any time.
MAGNUS_BLOCK = 2048


def gauss_legendre_times(total_time, steps):
    """Both Gauss-Legendre nodes of each of ``steps`` equal steps on [0, T].

    Shape (steps, 2); sample g there to feed ``magnus4_modes``.
    """
    offsets = np.array([0.5 - _GL_OFFSET, 0.5 + _GL_OFFSET])
    return (total_time / steps) * (np.arange(steps)[:, None] + offsets)


def _quat_mul(a, b):
    """Hamilton product of quaternions stacked on axis 0.

    With U(q) = q0 - i(q1 sx + q2 sy + q3 sz) this is the matrix product:
    U(a*b) = U(a) U(b).
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.stack((
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + b0 * a1 + a2 * b3 - a3 * b2,
        a0 * b2 + b0 * a2 + a3 * b1 - a1 * b3,
        a0 * b3 + b0 * a3 + a1 * b2 - a2 * b1,
    ))


def _apply(q, u, v):
    """U(q) applied to the state (u, v)."""
    q0, q1, q2, q3 = q
    return (q0 - 1j * q3) * u - (q2 + 1j * q1) * v, (q2 - 1j * q1) * u + (q0 + 1j * q3) * v


def magnus4_modes(g_nodes, ka, dt, u0, v0):
    """Fourth-order Magnus propagation of i u' = a u + b v, i v' = -a v + b u.

    a = 2 - 4 g cos^2(ka/2) and b = 2 g sin(ka), for every mode of the 1-D
    ``ka`` at once.  ``g_nodes`` holds g at both Gauss-Legendre nodes of each
    step, shape (steps, 2) (see ``gauss_legendre_times``); ``u0`` and ``v0``
    hold one start state per mode.  Each step applies the exact SU(2)
    exponential, kept as a unit quaternion, of

        -i [ (dt/2)(a1+a2) sz + (dt/2)(b1+b2) sx + (sqrt(3)/6) dt^2 (a2 b1 - a1 b2) sy ],

    so the norm changes only by rounding.  The step products are formed in
    blocks of ``MAGNUS_BLOCK`` steps, by a log-depth scan within a block and
    one quaternion per mode carried across blocks, so memory does not grow
    with the number of steps.

    Returns (u_T, v_T, norm_defect), each of shape (K,): the endpoint and
    the largest | |u|^2 + |v|^2 - 1 | over the start state and every step.
    """
    g_nodes = np.asarray(g_nodes, dtype=float)
    ka = np.asarray(ka, dtype=float)[:, None]
    u0 = np.asarray(u0, dtype=complex)
    v0 = np.asarray(v0, dtype=complex)
    c = 4.0 * np.cos(ka / 2.0) ** 2
    s = 2.0 * np.sin(ka)
    carry = np.zeros((4, ka.shape[0]))
    carry[0] = 1.0
    defect = np.abs(np.abs(u0) ** 2 + np.abs(v0) ** 2 - 1.0)
    for start in range(0, g_nodes.shape[0], MAGNUS_BLOCK):
        g1, g2 = g_nodes[start:start + MAGNUS_BLOCK].T
        a1, a2 = 2.0 - c * g1, 2.0 - c * g2
        b1, b2 = s * g1, s * g2
        # exponent as -i w.(sx, sy, sz); exp(-i w.sigma) = cos|w| - i sin|w| w.sigma/|w|
        w = np.stack((
            0.5 * dt * (b1 + b2), _GL_OFFSET * dt * dt * (a2 * b1 - a1 * b2), 0.5 * dt * (a1 + a2),
        ))
        theta = np.sqrt(np.sum(w * w, axis=0))
        q = np.concatenate((np.cos(theta)[None], np.sinc(theta / np.pi) * w))
        # inclusive scan, later steps multiplying from the left
        d = 1
        while d < q.shape[2]:
            q[:, :, d:] = _quat_mul(q[:, :, d:], q[:, :, :-d])
            d *= 2
        q = _quat_mul(q, carry[:, :, None])
        u, v = _apply(q, u0[:, None], v0[:, None])
        defect = np.maximum(defect, np.max(np.abs(np.abs(u) ** 2 + np.abs(v) ** 2 - 1.0), axis=1))
        carry = q[:, :, -1]
    u_end, v_end = _apply(carry, u0, v0)
    return u_end, v_end, defect


def cumulative_simpson_uniform(y, dt):
    """Cumulative integral of samples on a uniform grid, 4th order.

    Each increment uses the parabola through the three nearest nodes
    (matches scipy's cumulative_simpson for uniform spacing).
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    out = np.zeros(n)
    if n < 2:
        return out
    if n == 2:
        out[1] = 0.5 * dt * (y[0] + y[1])
        return out
    inc = np.empty(n - 1)
    # interval [i, i+1] integrated with the parabola through (i, i+1, i+2)
    inc[:-1] = dt / 12.0 * (5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:])
    # last interval uses the parabola through the final three nodes
    inc[-1] = dt / 12.0 * (-y[-3] + 8.0 * y[-2] + 5.0 * y[-1])
    out[1:] = np.cumsum(inc)
    return out

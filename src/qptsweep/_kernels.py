"""Hot numeric kernels: oscillatory quadrature and the two-level propagators.

Every kernel is plain numpy.  ``stream_filon`` evaluates an oscillatory
amplitude block by block on a uniform grid, one frequency per call, and
``filon_refined`` certifies every such amplitude, of any model, by ``refine``;
``linear_fourier`` evaluates one at every frequency of an evenly spaced
grid at once, through the chirp-z transform ``chirp_z``; ``nested_simpson``
integrates many smooth integrands at once, each certified by grid doubling;
``magnus4_modes`` propagates two-level rows, i u' = a u + b v,
i v' = -a v + b u with a and b affine in a coupling g, each row given by its
coefficients (a0, a1, b0, b1); ``rk4_mode`` is the brute-force integrator
the tests use as its oracle.
"""

import numpy as np

# Taylor switch-over for the Filon moments, where the two forms round alike.
# The closed form's e0 and e1 are cancellations divided by c and c^2 (rounding
# ~eps/c and ~eps/c^2); the series of ``_series_segments``, through c^6, is
# truncated at ~c^7/40320.  Against 40-digit values they round alike (1.8e-15
# rms per segment) near c = 0.035 for an envelope that moves by O(dt) per
# segment, as on every amplitude grid, and near c = 0.047 for one that moves
# by O(1).  Below 0.035 the series is the better form for both.
_SMALL_PHASE = 3.5e-2
_ABS_FLOOR = 1e-13  # quadrature results below this sit in roundoff noise
# Segments per block of ``stream_filon``: a block's twenty-odd node arrays
# fit in a 2 MB L2 cache, a whole grid of 1e5-1e6 nodes does not.  Blocks of
# 2048-16384 segments measured the same.
_QUAD_BLOCK = 8192
# ``nested_simpson`` doubles grids until two successive half-grid differences
# are below _NESTED_TOL, relative, up to _NESTED_N_MAX intervals.
_NESTED_TOL = 1e-9
_NESTED_N_MAX = 2**21
# ``nested_simpson`` samples at most this many values at a time (64 kB of
# float64, a few dozen temporaries of which fit in L2): larger blocks ran no
# faster, and at 2^17 the temporaries added 3 MB to the peak RSS.
_NESTED_BLOCK = 2**13


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
    quotients cancel, and e0, e1 come from their Taylor series (through c^6)
    instead; each segment goes through one of the two forms only, a run of
    one form as one slice.  Every amplitude's phase rate is unimodal in t,
    so its small steps form at most two runs: 2E_k - w for the Ising
    channels, gap + w for Grover's (called at -w), and -w alone for
    single_site_z's a1, which has no dynamical phase.  All in real
    arithmetic, with cos and sin taken once per node; written in node
    differences, the rounding of each E enters neighbouring segments with
    opposite signs and largely cancels in the sum.
    """
    cos_p = np.cos(phase)
    sin_p = np.sin(phase)
    c = phase[1:] - phase[:-1]
    small = np.abs(c) < _SMALL_PHASE
    bounds = [0, *(np.flatnonzero(small[1:] != small[:-1]) + 1).tolist(), c.shape[0]]
    total = 0j
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        args = c[lo:hi], env[lo:hi], env[lo + 1:hi + 1], cos_p[lo:hi], sin_p[lo:hi]
        if small[lo]:
            total += _series_segments(*args)
        else:
            total += _closed_segments(*args, cos_p[lo + 1:hi + 1], sin_p[lo + 1:hi + 1])
    return dt * total


def _closed_segments(c, a0, a1, cos0, sin0, cos1, sin1):
    """Sum of the closed-form segments of ``filon_integral``, over dt."""
    # the arithmetic is done in place where it can be: at a few thousand
    # segments a fresh temporary costs about as much as the operation
    dcos = cos1 - cos0
    dsin = sin1 - sin0
    inv = 1.0 / c
    f = a1 - a0
    f *= inv
    # re = (a0 dsin + f dcos)/c + f sin1, im = (f dsin - a0 dcos)/c - f cos1
    re = a0 * dsin
    tmp = f * dcos
    re += tmp
    re *= inv
    np.multiply(f, sin1, out=tmp)
    re += tmp
    im = f * dsin
    np.multiply(a0, dcos, out=tmp)
    im -= tmp
    im *= inv
    np.multiply(f, cos1, out=tmp)
    im -= tmp
    return complex(np.sum(re), np.sum(im))


def _series_segments(c, a0, a1, cos0, sin0):
    """Sum of the small-phase segments of ``filon_integral``, over dt."""
    c2 = c * c
    da = a1 - a0
    # e0 = 1 + ic/2 - c^2/6 - ..., e1 = 1/2 + ic/3 - c^2/8 - ...: real parts
    # and imaginary parts over c as series in c^2, through c^6
    wr = _series(c2, _E0_REAL)
    wr *= a0
    tmp = _series(c2, _E1_REAL)
    tmp *= da
    wr += tmp
    wi = _series(c2, _E0_IMAG)
    wi *= a0
    tmp = _series(c2, _E1_IMAG)
    tmp *= da
    wi += tmp
    wi *= c
    # E0 (wr + i wi)
    re = cos0 * wr
    np.multiply(sin0, wi, out=tmp)
    re -= tmp
    wi *= cos0
    wr *= sin0
    wi += wr
    return complex(np.sum(re), np.sum(wi))


# Taylor coefficients in c^2 of e0 = sum (ic)^k/(k+1)! and
# e1 = sum (ic)^k/(k!(k+2)): real parts, and imaginary parts divided by c
_E0_REAL = (1.0, -1.0 / 6.0, 1.0 / 120.0, -1.0 / 5040.0)
_E1_REAL = (0.5, -1.0 / 8.0, 1.0 / 144.0, -1.0 / 5760.0)
_E0_IMAG = (0.5, -1.0 / 24.0, 1.0 / 720.0)
_E1_IMAG = (1.0 / 3.0, -1.0 / 30.0, 1.0 / 840.0)


def _series(x, coefs):
    """sum_k coefs[k] x^k by Horner's rule, in one buffer."""
    out = x * coefs[-1]
    for coef in coefs[-2:0:-1]:
        out += coef
        out *= x
    out += coefs[0]
    return out


def stream_filon(total_time, n, freq, nodes, filon):
    """Filon quadrature on n uniform intervals of [0, total_time], in blocks.

    The integrand is env(t) e^{i phase(t)}, phase = freq*t + the cumulative
    Simpson integral of a rate (the rule of ``cumulative_simpson_uniform``).
    ``nodes(t)`` returns (env, rate) at the node times t, or (env, None) for
    phase = freq*t.  The grid is walked in blocks of ``_QUAD_BLOCK``
    segments (a remainder of one segment joins the last block); per block
    this takes the node times (the values of np.linspace, the last
    one exactly total_time), the Simpson increments with one node of
    look-ahead, and the phase from a cumulative sum seeded with the value
    carried over from the previous block, so that the phase equals the
    whole-grid one bit for bit.  Returns the sum over blocks of
    ``filon(env, phase, dt)``; only the association of the segment sum
    differs from one call on the whole grid.
    """
    dt = total_time / n
    total = 0j
    carry = 0.0
    start = 0
    while start < n:
        stop = n if n - start <= _QUAD_BLOCK + 1 else start + _QUAD_BLOCK
        ahead = min(stop + 1, n)
        t = np.arange(start, ahead + 1, dtype=float)
        t *= dt
        if ahead == n:
            t[-1] = total_time
        env, rate = nodes(t)
        m = stop - start
        phase = freq * t[:m + 1]
        if rate is not None:
            cum = np.empty(m + 1)
            cum[0] = carry
            inc = cum[1:]
            # the node after the block is the look-ahead of its last interval
            _simpson_increments(rate, dt, inc, last=stop == n)
            inc[0] += carry
            np.cumsum(inc, out=inc)
            carry = cum[-1]
            phase += cum
        total += filon(env[:m + 1], phase, dt)
        start = stop
    return total


def default_n0(total_time, phase_rate):
    """First grid of the doubling sequence: 16 intervals per cycle of a phase
    advancing at ``phase_rate`` (a bound on |phase'| over [0, total_time];
    ``filon_refined`` passes the largest modulus of its phase rate's range),
    and at least 4096."""
    cycles = total_time * phase_rate / (2.0 * np.pi)
    return int(max(4096, 16 * cycles))


def refine(eval_at, n0, rel_tol, n_max):
    """Grid-doubling driver; returns (values, error_estimates, converged) arrays.

    ``eval_at(n, rows)`` returns the values on n intervals, n = min(n0, n_max)
    first, then doubled while below n_max, of the elements ``rows``: all
    (``slice(None)``) on the first grid, then those still running, for each
    element stops on its own and keeps the value and relative difference of
    the grid where it first converged (its last ones, or inf when no
    doubling ran, if it never does).
    Axes after the first hold an element's components (say a state (u, v)),
    whose difference is the sum of their moduli, relative to their Euclidean
    norm.  A scalar quadrature is one element; its caller takes element 0.
    """
    n = min(n0, n_max)
    value = np.array(eval_at(n, slice(None)))
    parts = tuple(range(1, value.ndim))
    err = np.full(value.shape[:1], np.inf)
    done = np.zeros(err.shape, dtype=bool)
    while n < n_max and not done.all():
        n *= 2
        rows = np.flatnonzero(~done)
        cur = np.asarray(eval_at(n, rows))
        diff = abs(cur - value[rows])
        size = abs(cur)
        if parts:
            diff = diff.sum(axis=parts)
            size = np.sqrt(np.sum(size * size, axis=parts))
        err[rows] = rel = diff / np.maximum(size, _ABS_FLOOR)
        done[rows] = (rel < rel_tol) | ((size < _ABS_FLOOR) & (diff < _ABS_FLOOR))
        value[rows] = cur
    return value, err, done


def filon_refined(nodes, total_time, omega, rate_bound, filon, rel_tol, n_max):
    """int_0^T env e^{i(phase - w t)} dt at w = ``omega`` by ``refine`` over
    ``stream_filon(..., nodes, filon)``: (value, error, converged).

    The premise: the rate of ``nodes`` lies in [0, ``rate_bound``] (2E_k in
    [0, 4] for the Ising channels, the gap in (0, 1] for Grover's, none,
    that is 0, for single_site_z's a1).  So the phase rate, rate - w, lies
    in [-w, rate_bound - w], and the first grid is ``default_n0`` at its
    largest modulus, max(|w|, |rate_bound - w|); for w <= 0 that is
    |w| + rate_bound to the bit.  Filon integrates a linear phase exactly,
    so its error comes from the phase's curvature, not from w (Iserles &
    Norsett, Proc. R. Soc. A 461, 1383 (2005)), and 16 intervals per cycle
    of the fastest phase over-resolve it; the doubling certifies the rest.
    """
    n0 = default_n0(total_time, max(abs(omega), abs(rate_bound - omega)))
    (value,), (err,), (ok,) = refine(
        lambda n, rows: np.array([stream_filon(total_time, n, -omega, nodes, filon)])[rows],
        n0, rel_tol, n_max)
    return value.item(), err.item(), bool(ok)


def chirp_z(x, theta0, dtheta, m):
    """X_k = sum_j x_j e^{-i(theta0 + k dtheta) j} for k < m, by Bluestein's
    chirp-z transform (Rabiner, Schafer & Rader, IEEE Trans. Audio
    Electroacoust. 17, 1969).

    With jk = (j^2 + k^2 - (k - j)^2)/2 the sum is the chirp e^{-i dtheta k^2/2}
    times the convolution of a_j = x_j e^{-i(theta0 j + dtheta j^2/2)} with
    b_l = e^{i dtheta l^2/2}, -len(x) < l < m, taken by zero-padded FFTs of
    the smallest power-of-two length that holds it without wrap-around:
    O((n + m) log(n + m)) for n = len(x), where the direct sum is O(nm).
    """
    x = np.asarray(x)
    n = x.shape[0]
    size = 1 << (n + m - 2).bit_length()
    j = np.arange(max(n, m), dtype=float)
    chirp = np.exp(-0.5j * dtheta * (j * j))
    a = np.zeros(size, dtype=complex)
    a[:n] = x * np.exp(-1j * theta0 * j[:n])
    a[:n] *= chirp[:n]
    b = np.zeros(size, dtype=complex)
    b[:m] = chirp[:m].conj()
    b[size - n + 1:] = chirp[n - 1:0:-1].conj()
    # in place: at n = 2^21 each of the two padded arrays holds 64 MB
    np.fft.fft(a, out=a)
    a *= np.fft.fft(b, out=b)
    return np.fft.ifft(a, out=a)[:m] * chirp[:m]


def _linear_weights(theta):
    """p = int_0^1 (1-u) e^{-i theta u} du and q = int_0^1 u e^{-i theta u} du.

    The closed forms, with x = -i theta, are p = (e^x - 1 - x)/x^2 and
    q = (e^x (x - 1) + 1)/x^2.  They are ``filon_integral``'s e0 - e1 and e1
    at c = -theta, so below ``_SMALL_PHASE`` they come from the same Taylor
    series, through theta^6.
    """
    x = -1j * theta
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.exp(x)
        p = (e - 1.0 - x) / (x * x)
        q = (e * (x - 1.0) + 1.0) / (x * x)
    small = np.abs(theta) < _SMALL_PHASE
    th = theta[small]
    t2 = th * th
    e0 = _series(t2, _E0_REAL) - 1j * th * _series(t2, _E0_IMAG)
    e1 = _series(t2, _E1_REAL) - 1j * th * _series(t2, _E1_IMAG)
    p[small] = e0 - e1
    q[small] = e1
    return p, q


def linear_fourier(h, dt, omegas):
    """int_0^T hhat(t) e^{-i w t} dt at every w of the evenly spaced ``omegas``.

    hhat is the piecewise-linear interpolant of the samples h (real or
    complex) on the uniform grid t_j = j dt, T = (len(h) - 1) dt.  On
    [t_j, t_j+1], hhat = h_j (1 - u) + h_{j+1} u with u = t/dt - j, so with
    theta = w dt and the exact weights p, q of ``_linear_weights`` the
    integral is

        dt [W S - p h_n e^{-i w T} - q e^{i theta} h_0],  W = p + q e^{i theta},

    where S = sum_j h_j e^{-i theta j} comes for every w at once from one
    ``chirp_z`` (Press et al., Numerical Recipes, 3rd ed., sec. 13.9).  W is
    the attenuation factor 2(1 - cos theta)/theta^2; the two other terms
    correct the endpoints.  The step of ``omegas`` is taken from its ends.
    """
    omegas = np.asarray(omegas, dtype=float)
    m = omegas.shape[0]
    n = h.shape[0] - 1
    step = (omegas[-1] - omegas[0]) / (m - 1) if m > 1 else 0.0
    s = chirp_z(h, omegas[0] * dt, step * dt, m)
    theta = omegas * dt
    p, q = _linear_weights(theta)
    q *= np.exp(1j * theta)
    s *= p + q
    s -= p * h[-1] * np.exp(-1j * omegas * (n * dt))
    s -= q * h[0]
    return dt * s


def rk4_mode(g2, coef, dt):
    """RK4 for i u' = a u + b v, i v' = -a v + b u, with a = a0 + a1 g and
    b = b0 + b1 g for the row ``coef`` = (a0, a1, b0, b1).

    ``g2`` holds g at the step points and midpoints (length 2n+1).  Returns
    the full (u, v) trajectory at the n+1 step points, starting from
    (1, 0).  A step-by-step Python loop: the brute-force oracle the tests
    check ``magnus4_modes`` against.
    """
    n = (g2.shape[0] - 1) // 2
    a0, a1, b0, b1 = coef
    u = np.empty(n + 1, dtype=complex)
    v = np.empty(n + 1, dtype=complex)
    uc, vc = 1.0 + 0.0j, 0.0 + 0.0j
    u[0], v[0] = uc, vc
    for i in range(n):
        # a and b at the start, middle and end of the step
        gl = g2[2 * i]
        gm = g2[2 * i + 1]
        gr = g2[2 * i + 2]
        al = a0 + a1 * gl
        bl = b0 + b1 * gl
        am = a0 + a1 * gm
        bm = b0 + b1 * gm
        ar = a0 + a1 * gr
        br = b0 + b1 * gr

        k1u = -1j * (al * uc + bl * vc)
        k1v = -1j * (-al * vc + bl * uc)
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
        k4u = -1j * (ar * u4 + br * v4)
        k4v = -1j * (-ar * v4 + br * u4)

        uc = uc + dt * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
        vc = vc + dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        u[i + 1] = uc
        v[i + 1] = vc
    return u, v


# The Gauss-Legendre nodes of a step sit at (1/2 -+ sqrt(3)/6) dt, and the
# same sqrt(3)/6 weighs the commutator term of the fourth-order exponent.
_GL_OFFSET = np.sqrt(3.0) / 6.0
# Steps per block of the streamed tree product; a block's step quaternions
# are the only per-step values the propagator holds at any time.
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
    p = a[:, None] * b[None, :]  # p[i, j] = a_i b_j
    return np.array((
        p[0, 0] - p[1, 1] - p[2, 2] - p[3, 3],
        p[0, 1] + p[1, 0] + p[2, 3] - p[3, 2],
        p[0, 2] + p[2, 0] + p[3, 1] - p[1, 3],
        p[0, 3] + p[3, 0] + p[1, 2] - p[2, 1],
    ))


def _apply(q, u, v):
    """U(q) applied to the state (u, v)."""
    q0, q1, q2, q3 = q
    return (q0 - 1j * q3) * u - (q2 + 1j * q1) * v, (q2 - 1j * q1) * u + (q0 + 1j * q3) * v


def magnus4_modes(g_nodes, coef, dt, u0, v0):
    """Fourth-order Magnus propagation of i u' = a u + b v, i v' = -a v + b u.

    a = a0 + a1 g and b = b0 + b1 g, for every row (a0, a1, b0, b1) of
    ``coef``, shape (K, 4), at once.  ``g_nodes`` holds g at both
    Gauss-Legendre nodes of each step, shape (steps, 2) (see
    ``gauss_legendre_times``); ``u0`` and ``v0`` hold one start state per
    row.  Each step applies the exact SU(2) exponential, kept as a unit
    quaternion, of

        -i [ (dt/2)(A1+A2) sz + (dt/2)(B1+B2) sx + (sqrt(3)/6) dt^2 (A2 B1 - A1 B2) sy ],

    A1, B1 and A2, B2 being a and b at the step's first and second node, so
    the norm changes only by rounding.  The steps of each block of
    ``MAGNUS_BLOCK`` are multiplied by a pairwise tree, later steps from the
    left, and one quaternion per row is carried across blocks, so memory
    does not grow with the number of steps.

    Returns (u_T, v_T, norm_defect), each of shape (K,): the endpoint and
    the largest of | |u|^2 + |v|^2 - 1 | at the start and at each block end
    and of | |q|^2 - 1 | over every node q of the trees (steps included).
    """
    g_nodes = np.asarray(g_nodes, dtype=float)
    # each coefficient as a column, shape (K, 1), against a block's nodes
    c_a0, c_a1, c_b0, c_b1 = np.asarray(coef, dtype=float).T[:, :, None]
    u0 = np.asarray(u0, dtype=complex)
    v0 = np.asarray(v0, dtype=complex)
    carry = np.repeat(np.eye(4)[:, :1], c_a0.shape[0], axis=1)  # the identity, per row
    u, v = u0, v0
    defect = np.abs(np.abs(u) ** 2 + np.abs(v) ** 2 - 1.0)
    for start in range(0, g_nodes.shape[0], MAGNUS_BLOCK):
        g1, g2 = g_nodes[start:start + MAGNUS_BLOCK].T
        # A1, A2, B1 and B2 of each row and step
        a1, a2 = c_a0 + c_a1 * g1, c_a0 + c_a1 * g2
        b1, b2 = c_b0 + c_b1 * g1, c_b0 + c_b1 * g2
        # exponent as -i w.(sx, sy, sz); exp(-i w.sigma) = cos|w| - i sin|w| w.sigma/|w|
        w = np.stack((
            0.5 * dt * (b1 + b2), _GL_OFFSET * dt * dt * (a2 * b1 - a1 * b2), 0.5 * dt * (a1 + a2),
        ))
        theta = np.sqrt(np.sum(w * w, axis=0))
        # sin(theta)/theta, not np.sinc(theta/pi): sin at the rounded angle
        # pi*(theta/pi) would break |q| = 1 by about theta*eps
        sinc = np.divide(np.sin(theta), theta, out=np.ones_like(theta), where=theta > 0.0)
        q = np.concatenate((np.cos(theta)[None], sinc * w))
        # pairwise tree; an odd last node waits for the next level
        while True:
            defect = np.maximum(defect, np.abs((q * q).sum(axis=0) - 1.0).max(axis=1))
            if q.shape[2] == 1:
                break
            q = np.concatenate((_quat_mul(q[:, :, 1::2], q[:, :, 0:-1:2]), q[:, :, q.shape[2] & ~1:]), axis=2)
        # the carry enters renormalised, so that the norm rounding of each
        # block's steps does not add up over the blocks (identity: exact)
        carry /= np.sqrt(np.sum(carry * carry, axis=0))
        carry = _quat_mul(q[:, :, 0], carry)
        u, v = _apply(carry, u0, v0)
        defect = np.maximum(defect, np.abs(np.abs(u) ** 2 + np.abs(v) ** 2 - 1.0))
    return u, v, defect


# The rule of ``cumulative_simpson_uniform``, in units of dt/12: interval
# [i, i+1] by the parabola through nodes (i, i+1, i+2), and the last interval
# by the parabola through the final three nodes.
_SIMPSON_BODY = (5.0, 8.0, -1.0)
_SIMPSON_LAST = (-1.0, 8.0, 5.0)


def _simpson_increments(y, dt, out, last):
    """Increments of the Simpson rule over the intervals of the nodes y.

    Writes the len(y) - 2 intervals that have a node after them to the start
    of ``out`` and, with ``last``, the final interval to out[-1] (the
    trapezoid when y has only two nodes).
    """
    scale = dt / 12.0
    b0, b1, b2 = _SIMPSON_BODY
    body = out[:y.shape[0] - 2]
    np.multiply(y[:-2], b0, out=body)
    body += b1 * y[1:-1]
    body += b2 * y[2:]
    body *= scale
    if last:
        l0, l1, l2 = _SIMPSON_LAST
        out[-1] = (scale * (l0 * y[-3] + l1 * y[-2] + l2 * y[-1]) if y.shape[0] > 2
                   else 0.5 * dt * (y[0] + y[1]))


def cumulative_simpson_uniform(y, dt):
    """Cumulative integral of samples on a uniform grid, 4th order.

    Each increment uses the parabola through the three nearest nodes
    (matches scipy's cumulative_simpson for uniform spacing).
    """
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape[0])
    if y.shape[0] > 1:
        _simpson_increments(y, dt, out[1:], last=True)
        np.cumsum(out[1:], out=out[1:])
    return out


def nested_simpson(grid, integrand, count, n0):
    """Integrals over [0, 1] of ``count`` integrands by the composite Simpson
    rule, h/3 (f_0 + 4 f_1 + 2 f_2 + ... + 4 f_n-1 + f_n), each certified
    by ``refine`` on nested grids.

    ``grid(u)`` returns what every integrand needs at the nodes u (say g(t)
    of a schedule), and ``integrand(rows, x)`` a new array of the values
    there of the integrands ``rows``, shape (len(rows), len(x)).  The first
    grid has n0 intervals, rounded up to a multiple of 4.  Simpson's rule is
    Romberg's step on trapezoid sums, S_n = (4 T_n - T_n/2)/3 (Press et al.,
    Numerical Recipes, 3rd ed., sec. 4.3), so each integral keeps its T_n
    and S_n: on the first grid the sums at strides 1, 2 and 4, end samples
    halved in place, give T_n, T_n/2 and T_n/4, and grid 2n samples only
    its new, odd nodes.  One agreement of two grids can be a coincidence
    (Lyness, SIAM Rev. 25, 1983), so ``refine`` gets the pair (S_n, S_n/2):
    an integral stops, and reports S_2n, once S_2n - S_n and S_n - S_n/2
    are both below ``_NESTED_TOL`` relative (or the absolute floor of one
    that vanishes), and is not sampled again.  Samples are taken in blocks
    of about ``_NESTED_BLOCK`` values, long grids in blocks of nodes.
    Returns (values, errors, converged), arrays of length ``count``.
    """
    trap = np.zeros(count)  # T_n of the last grid each integral was sampled on
    rule = np.zeros(count)  # S_n of that grid
    first_n = min(n0 + (-n0) % 4, _NESTED_N_MAX)  # refine starts at n_max at most

    def eval_at(n, rows):
        first = n == first_n
        rows = np.arange(count)[rows]
        u = np.arange(n + 1) / n if first else np.arange(1, n, 2) / n
        sums = np.zeros((3, rows.shape[0]))  # at strides 1, 2 and 4
        # blocks start at nodes 0 mod 4, so a block's strides 2 and 4 are on grids n/2, n/4
        for start in range(0, u.shape[0], _NESTED_BLOCK):
            x = grid(u[start:start + _NESTED_BLOCK])
            step = _NESTED_BLOCK // min(_NESTED_BLOCK, u.shape[0] - start)
            for a in range(0, rows.shape[0], step):
                vals = integrand(rows[a:a + step], x)
                part = sums[:, a:a + step]
                if first:
                    if start == 0:
                        vals[:, 0] *= 0.5
                    if start + _NESTED_BLOCK >= u.shape[0]:
                        vals[:, -1] *= 0.5
                    part[1] += vals[:, ::2].sum(axis=1)
                    part[2] += vals[:, ::4].sum(axis=1)
                part[0] += vals.sum(axis=1)
        if first:
            t_n, coarse, coarser = sums * (np.array([[1.0], [2.0], [4.0]]) / n)
            half = (4.0 * coarse - coarser) / 3.0
        else:
            coarse, half = trap[rows], rule[rows]
            t_n = 0.5 * coarse + sums[0] / n
        trap[rows] = t_n
        rule[rows] = (4.0 * t_n - coarse) / 3.0
        return np.stack((rule[rows], half), axis=1)

    values, errors, converged = refine(eval_at, first_n, _NESTED_TOL, _NESTED_N_MAX)
    return values[:, 0], errors, converged

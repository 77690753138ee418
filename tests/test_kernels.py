import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from fixed_grid_oracle import composite_simpson, simpson_weights
from qptsweep import _kernels, grover, response
from qptsweep.ising import _mode_coefficients
from qptsweep._kernels import (
    _QUAD_BLOCK,
    _SMALL_PHASE,
    MAGNUS_BLOCK,
    chirp_z,
    cumulative_simpson_uniform,
    default_n0,
    filon_integral,
    gauss_legendre_times,
    linear_fourier,
    magnus4_modes,
    refine,
    nested_simpson,
    rk4_mode,
    stream_filon,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# a row (a0, a1, b0, b1) of no Ising mode: those have a0 = 2, b0 = 0 and
# (a1 + 2)^2 + b1^2 = 4
ROW = np.array([0.3, -1.7, 0.45, 0.9])


def linear_nodes(total_time, steps):
    return gauss_legendre_times(total_time, steps) / total_time


def magnus_one(g_nodes, ka, dt, u0=1.0, v0=0.0):
    """Single-mode call; returns (u_T, v_T, norm_defect) as scalars."""
    u, v, d = magnus4_modes(g_nodes, _mode_coefficients(np.array([ka])), dt, np.array([u0]), np.array([v0]))
    return u[0], v[0], d[0]


def test_filon_matches_closed_form_oscillatory():
    # int_0^10 e^{i w t} dt = (e^{10iw}-1)/(iw), fast phase vs grid spacing
    w = 37.0
    t = np.linspace(0.0, 10.0, 20001)
    env = np.ones_like(t)
    got = filon_integral(env, w * t, t[1] - t[0])
    want = (np.exp(1j * w * 10.0) - 1.0) / (1j * w)
    assert abs(got - want) < 1e-12


def test_filon_linear_envelope_exact():
    # linear envelope and linear phase are integrated exactly per segment
    w = 5.0
    t = np.linspace(0.0, 4.0, 3)  # deliberately coarse
    env = 2.0 * t + 1.0
    got = filon_integral(env, w * t, t[1] - t[0])
    tt = np.linspace(0.0, 4.0, 400001)
    want = np.trapezoid((2.0 * tt + 1.0) * np.exp(1j * w * tt), tt)
    assert abs(got - want) < 1e-7


def test_filon_small_phase_taylor_branch():
    # nearly stationary phase exercises the Taylor switch-over
    t = np.linspace(0.0, 1.0, 101)
    env = np.cos(t)
    got = filon_integral(env, 1e-6 * t, t[1] - t[0])
    # the envelope is interpolated linearly, so accuracy is O(h^2)
    assert_allclose(got.real, np.sin(1.0), rtol=1e-4)
    assert abs(got.imag) < 1e-5


def filon_oracle(env, phase, dt):
    """The complex-exponential form of the Filon rule, two complex
    exponentials and two complex divisions per segment; below _SMALL_PHASE
    a Taylor series through c^11, exact to ~1e-26 there even in long double."""
    a0 = env[:-1]
    da = env[1:] - env[:-1]
    c = phase[1:] - phase[:-1]
    small = np.abs(c) < _SMALL_PHASE
    ic = 1j * c
    with np.errstate(divide="ignore", invalid="ignore"):
        eic = np.exp(ic)
        e0 = np.where(small, 1.0, (eic - 1.0) / np.where(small, 1.0, ic))
        e1 = np.where(small, 0.5, (eic * (ic - 1.0) + 1.0) / np.where(small, 1.0, ic * ic))
    if np.any(small):
        # e0 = sum (ic)^k/(k+1)!, e1 = sum (ic)^k/(k!(k+2)), through k = 11
        ics = ic[small]
        e0 = e0.astype(complex)
        e1 = e1.astype(complex)
        e0[small] = sum(ics**k / math.factorial(k + 1) for k in range(12))
        e1[small] = sum(ics**k / (math.factorial(k) * (k + 2)) for k in range(12))
    return complex(np.sum(dt * np.exp(1j * phase[:-1]) * (a0 * e0 + da * e1)))


def smooth_random(rng, t, terms=4):
    """A random trigonometric polynomial on t in [0, 1]."""
    freq = rng.uniform(0.5, 6.0, terms)
    amp = rng.normal(size=terms)
    shift = rng.uniform(0.0, 2.0 * np.pi, terms)
    return np.sin(np.outer(t, freq) + shift) @ amp


def closed_form_rounding(env, phase, dt):
    """Rounding bound of the Filon closed form: e0 and e1 come out of a
    cancellation of O(1) terms, divided by c and by c^2 respectively, so any
    two ways of evaluating them may differ by eps/|c| and eps/c^2 per
    segment.  Just above _SMALL_PHASE that is about 2e-13 in e1."""
    c = np.abs(np.diff(phase))
    a0 = np.abs(env[:-1])
    da = np.abs(np.diff(env))
    big = c >= _SMALL_PHASE
    per_segment = np.sum(a0[big] / c[big] + da[big] / c[big] ** 2)
    return np.finfo(float).eps * dt * (np.sum(a0) + per_segment)


@pytest.mark.parametrize("lo,hi,taylor", [
    (1e-3 * _SMALL_PHASE, 0.9 * _SMALL_PHASE, "all"),
    (1.1 * _SMALL_PHASE, 2.0, "none"),
    (1e-2 * _SMALL_PHASE, 5.0 * _SMALL_PHASE, "some"),
], ids=["all_small", "none_small", "mixed"])
@pytest.mark.parametrize("seed", range(8))
def test_filon_matches_complex_exponential_oracle(lo, hi, taylor, seed):
    # |phase step| drawn from [lo, hi] with smoothly alternating sign, so the
    # Taylor branch takes every segment, none, or some
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 5000))
    t = np.linspace(0.0, 1.0, n + 1)
    dt = t[1] - t[0]
    env = 1.0 + 0.5 * smooth_random(rng, t)
    c = rng.uniform(lo, hi, n) * np.sign(smooth_random(rng, t[:-1], 2))
    phase = 40.0 * rng.normal() + np.concatenate(([0.0], np.cumsum(c)))
    n_small = np.count_nonzero(np.abs(np.diff(phase)) < _SMALL_PHASE)
    assert {"all": n_small == n, "none": n_small == 0, "some": 0 < n_small < n}[taylor]
    got = filon_integral(env, phase, dt)
    want = filon_oracle(env, phase, dt)
    assert abs(got - want) <= 1e-13 * abs(want) + closed_form_rounding(env, phase, dt)


@pytest.mark.parametrize("seed", range(6))
def test_filon_runs_of_small_steps_match_oracle(seed):
    # |phase step| swings smoothly across _SMALL_PHASE a few times, as on a
    # response grid near a stationary point, so the kernel takes a few runs
    # of small and large steps, each as a slice
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1000, 5000))
    t = np.linspace(0.0, 1.0, n + 1)
    dt = t[1] - t[0]
    env = 1.0 + 0.5 * smooth_random(rng, t)
    swing = np.sin(2.0 * np.pi * rng.uniform(0.5, 3.0) * t[:-1] + rng.uniform(0.0, 6.0))
    phase = 40.0 * rng.normal() + np.concatenate(([0.0], np.cumsum(_SMALL_PHASE * (1.0 + 0.9 * swing))))
    small = np.abs(np.diff(phase)) < _SMALL_PHASE
    runs = 1 + np.count_nonzero(small[1:] != small[:-1])
    assert 1 < runs <= 8
    got = filon_integral(env, phase, dt)
    want = filon_oracle(env, phase, dt)
    assert abs(got - want) <= 1e-13 * abs(want) + closed_form_rounding(env, phase, dt)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
def test_filon_rounding_no_worse_than_oracle():
    # long grids with 0.02-0.4 rad per segment, as in the response
    # amplitudes; both forms are measured against the oracle evaluated in
    # long double, which is the exact value of the same rule to ~1e-19
    got_err = oracle_err = 0.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = 50_000
        t = np.linspace(0.0, 1.0, n + 1)
        dt = t[1] - t[0]
        env = 1.0 + 0.5 * smooth_random(rng, t)
        rate = 1e3 + 1.9e4 * (0.5 + 0.5 * np.sin(3.0 * t + rng.uniform(0.0, 6.0)))
        phase = 300.0 + np.concatenate(([0.0], np.cumsum(rate[:-1] * dt)))
        wide = np.longdouble
        exact = filon_oracle(env.astype(wide), phase.astype(wide), wide(dt))
        got_err += abs(filon_integral(env, phase, dt) - exact)
        oracle_err += abs(filon_oracle(env, phase, dt) - exact)
    assert got_err <= oracle_err

    # every step near one of the old switches (1e-3 and 1e-2), or straddling
    # the present one, with a rough envelope so that da = O(1) and e1's
    # cancellation would show.  The kernel stays within one ulp of int |env|
    # (and so within the rule's own rounding allowance) on each: at 1e-2 the
    # closed form was 1.8e-14 off, 9x that ulp, where the series is 1e-16 off
    eps = np.finfo(float).eps
    for lo, hi in ((9e-4, 1.2e-3), (9e-3, 1.1e-2), (0.8 * _SMALL_PHASE, 1.2 * _SMALL_PHASE)):
        got_err = allowance = ulp = 0.0
        n_small = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = 5000
            t = np.linspace(0.0, 1.0, n + 1)
            dt = t[1] - t[0]
            env = 1.0 + 0.5 * smooth_random(rng, t) + 0.3 * rng.normal(size=n + 1)
            c = rng.uniform(lo, hi, n) * np.sign(smooth_random(rng, t[:-1], 2))
            phase = 300.0 + np.concatenate(([0.0], np.cumsum(c)))
            n_small += np.count_nonzero(np.abs(np.diff(phase)) < _SMALL_PHASE)
            wide = np.longdouble
            exact = filon_oracle(env.astype(wide), phase.astype(wide), wide(dt))
            got_err += abs(filon_integral(env, phase, dt) - exact)
            allowance += closed_form_rounding(env, phase, dt)
            ulp += eps * dt * np.sum(np.abs(env))
        assert n_small == 8 * n if hi < _SMALL_PHASE else 0 < n_small < 8 * n  # the series, or both forms
        assert got_err <= min(allowance, ulp)


def smooth_nodes(total_time, with_rate=True):
    """``stream_filon`` nodes of a smooth test integrand on [0, total_time]."""

    def nodes(t):
        x = t / total_time
        env = 1.0 + 0.5 * np.sin(3.0 * x) - x**2
        return env, (20.0 + 5.0 * np.cos(7.0 * x) if with_rate else None)

    return nodes


def whole_grid_filon(total_time, n, freq, nodes):
    """One Filon call on the whole grid, the oracle of ``stream_filon``;
    returns the value, the node times, the envelope and the phase."""
    t = np.linspace(0.0, total_time, n + 1)
    env, rate = nodes(t)
    phase = freq * t
    if rate is not None:
        phase = phase + cumulative_simpson_uniform(rate, t[1] - t[0])
    return filon_integral(env, phase, t[1] - t[0]), t, env, phase


@pytest.mark.parametrize("with_rate", [True, False], ids=["phase_rate", "linear_phase"])
@pytest.mark.parametrize("n", [
    1, 2, 3, 100, _QUAD_BLOCK - 1, _QUAD_BLOCK, _QUAD_BLOCK + 1, _QUAD_BLOCK + 2,
    2 * _QUAD_BLOCK + 1, 3 * _QUAD_BLOCK + 517,
])
def test_stream_filon_matches_whole_grid(n, with_rate):
    # the blocks see the whole grid's node times, envelope and phase bit for
    # bit; the shared node of two blocks is the same, and one block gives the
    # whole-grid value exactly
    total_time, freq = 50.0, -0.7
    nodes = smooth_nodes(total_time, with_rate)
    blocks = []

    def record(env, phase, dt):
        blocks.append((env.copy(), phase.copy(), dt))
        return filon_integral(env, phase, dt)

    got = stream_filon(total_time, n, freq, nodes, record)
    want, t, env, phase = whole_grid_filon(total_time, n, freq, nodes)
    assert all(dt == t[1] - t[0] for _, _, dt in blocks)
    assert all(len(b_env) <= _QUAD_BLOCK + 2 for b_env, _, _ in blocks)
    assert len(blocks) == max(1, -(-(n - 1) // _QUAD_BLOCK))
    for (prev_env, prev_phase, _), (next_env, next_phase, _) in zip(blocks, blocks[1:]):
        assert prev_phase[-1] == next_phase[0] and prev_env[-1] == next_env[0]
    streamed_phase = np.concatenate([blocks[0][1]] + [p[1:] for _, p, _ in blocks[1:]])
    streamed_env = np.concatenate([blocks[0][0]] + [e[1:] for e, _, _ in blocks[1:]])
    assert np.array_equal(streamed_phase, phase)
    assert np.array_equal(streamed_env, env)
    if len(blocks) == 1:
        assert got == want
    else:
        # only the association of the segment sum differs
        scale = (t[1] - t[0]) * np.sum(np.abs(env))
        assert abs(got - want) <= 8.0 * len(blocks) * np.finfo(float).eps * scale


@pytest.mark.parametrize("n_nodes", [2, 3, 4, 5, 6, 17, 16385])
def test_simpson_weights_total_the_cumulative_rule(n_nodes):
    rng = np.random.default_rng(n_nodes)
    y = rng.normal(size=n_nodes)
    w = simpson_weights(n_nodes, 0.37)
    want = cumulative_simpson_uniform(y, 0.37)[-1]
    assert abs(w @ y - want) <= 1e-14 * 0.37 * np.sum(np.abs(y)) * 12.0
    assert w.sum() == pytest.approx(0.37 * (n_nodes - 1), rel=1e-14)


def test_default_n0_matches_both_former_rules():
    # the response rule (rate |w| + 4) and the grover rule (rate |w| + 1)
    for total_time in (50.0, 2000.0, 5000.0):
        for omega in (-0.4, 0.01, 1.0, 2.6):
            cycles = total_time * (abs(omega) + 2.0 * 2.0) / (2.0 * np.pi)
            assert default_n0(total_time, abs(omega) + 2.0 * 2.0) == int(max(4096, 16 * cycles))
            cycles = total_time * (abs(omega) + 1.0) / (2.0 * np.pi)
            assert default_n0(total_time, abs(omega) + 1.0) == int(max(4096, 16 * cycles))


def test_cumulative_simpson_quartic_accuracy():
    t = np.linspace(0.0, 2.0, 201)
    y = t**3
    got = cumulative_simpson_uniform(y, t[1] - t[0])
    assert_allclose(got, t**4 / 4.0, atol=1e-6)
    # halving the step should cut the error by at least 2^3
    t2 = np.linspace(0.0, 2.0, 401)
    got2 = cumulative_simpson_uniform(t2**3, t2[1] - t2[0])
    err = np.max(np.abs(got - t**4 / 4.0))
    err2 = np.max(np.abs(got2 - t2**4 / 4.0))
    assert err2 < err / 7.0


def test_cumulative_simpson_short_arrays():
    assert cumulative_simpson_uniform(np.array([1.0]), 0.1)[0] == 0.0
    out = cumulative_simpson_uniform(np.array([1.0, 3.0]), 0.5)
    assert_allclose(out, [0.0, 1.0])


def test_rk4_paths_agree_and_conserve_norm():
    # the Magnus propagator against the brute-force RK4 oracle at 10x its
    # resolution; both conserve the norm
    total_time, ka = 20.0, np.pi / 8
    fine = 20000
    u_ref, v_ref = rk4_mode(np.linspace(0.0, 1.0, 2 * fine + 1), _mode_coefficients(ka), total_time / fine)
    assert np.max(np.abs(np.abs(u_ref) ** 2 + np.abs(v_ref) ** 2 - 1.0)) < 1e-9
    steps = 2000
    u, v, defect = magnus_one(linear_nodes(total_time, steps), ka, total_time / steps)
    assert abs(u - u_ref[-1]) + abs(v - v_ref[-1]) < 1e-9
    assert defect < 1e-12


def test_magnus4_fourth_order():
    # halving dt must cut the endpoint error 16x; a wrong sign on the
    # commutator term drops the method to 2nd order (ratio 4)
    total_time, ka = 40.0, np.pi / 8

    def endpoint(steps):
        u, v, _ = magnus_one(linear_nodes(total_time, steps), ka, total_time / steps)
        return np.array([u, v])

    ref = endpoint(16384)
    err = [np.sum(np.abs(endpoint(n) - ref)) for n in (512, 1024)]
    assert 14.0 <= err[0] / err[1] <= 18.0


def test_rk4_frozen_coupling_is_pure_phase():
    # g fixed at 0: u(t) = e^{-2it}, v stays empty
    steps = 1000
    g2 = np.zeros(2 * steps + 1)
    dt = 5.0 / steps
    u, v = rk4_mode(g2, _mode_coefficients(np.pi / 3), dt)
    assert np.max(np.abs(v)) < 1e-12
    t = np.linspace(0.0, 5.0, steps + 1)
    assert np.max(np.abs(u - np.exp(-2j * t))) < 1e-9
    # the Magnus step is exact for a constant Hamiltonian
    u, v, defect = magnus_one(np.zeros((steps, 2)), np.pi / 3, dt)
    assert abs(v) < 1e-12
    assert abs(u - np.exp(-10j)) < 1e-12
    assert defect < 1e-12
    # a row of no Ising mode at a constant g: H = a sz + b sx, so from (1, 0)
    # the state is exp(-iHt) (1, 0) = (cos Et - i (a/E) sin Et, -i (b/E) sin Et)
    g = 0.35
    a0, a1, b0, b1 = ROW
    a, b = a0 + a1 * g, b0 + b1 * g
    energy = np.hypot(a, b)
    want_u = np.cos(energy * t) - 1j * (a / energy) * np.sin(energy * t)
    want_v = -1j * (b / energy) * np.sin(energy * t)
    u, v = rk4_mode(np.full(2 * steps + 1, g), ROW, dt)
    assert np.max(np.abs(u - want_u)) + np.max(np.abs(v - want_v)) < 1e-9
    u, v, defect = magnus4_modes(np.full((steps, 2), g), ROW[None], dt, np.ones(1), np.zeros(1))
    assert abs(u[0] - want_u[-1]) + abs(v[0] - want_v[-1]) < 1e-12
    assert defect[0] < 1e-12


def test_magnus4_modes_match_single_mode_calls():
    # every row propagates alone of the others: four Ising modes, and a row
    # with b0 != 0 and slopes unlike any mode's
    total_time, steps = 30.0, 3000
    g_nodes = linear_nodes(total_time, steps)
    coef = np.vstack((_mode_coefficients(np.array([np.pi / 64, 0.7, -1.9, np.pi])), ROW))
    u0 = np.array([1.0, 0.6, 0.8j, np.sqrt(0.5), 0.6j], dtype=complex)
    v0 = np.array([0.0, 0.8, 0.6, np.sqrt(0.5) * 1j, -0.8], dtype=complex)
    u, v, defect = magnus4_modes(g_nodes, coef, total_time / steps, u0, v0)
    for k in range(len(coef)):
        uk, vk, dk = magnus4_modes(g_nodes, coef[k:k + 1], total_time / steps, u0[k:k + 1], v0[k:k + 1])
        assert abs(u[k] - uk[0]) < 1e-14 and abs(v[k] - vk[0]) < 1e-14
        assert abs(defect[k] - dk[0]) < 1e-14


# 1, 3 and 2^k + 1 steps, and the last blocks of 2 * MAGNUS_BLOCK + 37 and
# 3 * MAGNUS_BLOCK - 1, leave an odd node at one or more levels of a block's tree
@pytest.mark.parametrize("steps", [
    1, 3, 2**5 + 1, 2**9 + 1, MAGNUS_BLOCK - 1, MAGNUS_BLOCK, 2 * MAGNUS_BLOCK + 37, 3 * MAGNUS_BLOCK - 1])
def test_magnus4_blocks_match_sequential_product(steps):
    # reference: each step's exponent exponentiated by expm, applied in turn
    total_time, ka = 25.0, 0.9
    dt = total_time / steps
    g_nodes = np.sin(0.5 * np.pi * linear_nodes(total_time, steps)) ** 2
    a = 2.0 - 4.0 * g_nodes * np.cos(ka / 2.0) ** 2
    b = 2.0 * g_nodes * np.sin(ka)
    psi = np.array([1.0, 0.0], dtype=complex)
    defect = 0.0
    for (a1, a2), (b1, b2) in zip(a, b):
        omega = -1j * (
            0.5 * dt * (a1 + a2) * SZ + 0.5 * dt * (b1 + b2) * SX
            + np.sqrt(3.0) / 6.0 * dt**2 * (a2 * b1 - a1 * b2) * SY
        )
        psi = expm(omega) @ psi
        defect = max(defect, abs(np.vdot(psi, psi).real - 1.0))
    u, v, got_defect = magnus_one(g_nodes, ka, dt)
    assert abs(u - psi[0]) + abs(v - psi[1]) < 1e-12
    assert got_defect < 1e-12 and defect < 1e-12


def test_quat_mul_is_the_written_out_hamilton_product():
    # bit for bit the component formula, summed left to right, and U(a b) = U(a) U(b)
    a, b = np.random.default_rng(5).standard_normal((2, 4, 3, 7))
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    want = np.stack((
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + b0 * a1 + a2 * b3 - a3 * b2,
        a0 * b2 + b0 * a2 + a3 * b1 - a1 * b3,
        a0 * b3 + b0 * a3 + a1 * b2 - a2 * b1,
    ))
    got = _kernels._quat_mul(a, b)
    assert np.array_equal(got, want)

    def matrix(q):
        return q[0] * np.eye(2) - 1j * (q[1] * SX + q[2] * SY + q[3] * SZ)

    assert_allclose(matrix(got[:, 1, 4]), matrix(a[:, 1, 4]) @ matrix(b[:, 1, 4]), rtol=0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    knots=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8),
    ka=st.floats(min_value=-np.pi, max_value=np.pi),
    total_time=st.floats(min_value=1.0, max_value=400.0),
    steps=st.integers(min_value=1, max_value=3 * MAGNUS_BLOCK),
)
# one step of a large rotation: sin taken at the rounded angle pi*(theta/pi)
# leaves a defect of 3.3e-12 here
@example(knots=[0.0, 0.5], ka=0.90625, total_time=332.0, steps=1)
# thousands of identical steps: without renormalising the carry at each block
# boundary, the norm rounding of the blocks added up to 9.9e-13 here
@example(knots=[0.96875, 0.96875], ka=np.pi - 1.0, total_time=1.133, steps=5373)
def test_magnus4_norm_defect_on_monotone_profiles(knots, ka, total_time, steps):
    # any monotone g(t) on a piecewise-linear profile, any step size
    _, _, defect = magnus_one(profile_nodes(knots, total_time, steps), ka, total_time / steps)
    assert defect < 1e-12


def profile_nodes(knots, total_time, steps):
    profile = np.sort(knots)
    t = gauss_legendre_times(total_time, steps) / total_time
    return np.interp(t, np.linspace(0.0, 1.0, len(profile)), profile)


def test_magnus4_norm_does_not_drift_across_blocks():
    # a constant profile repeats one step quaternion and its norm rounding;
    # the carry renormalised at each block boundary keeps the defect at the
    # level of one block (9.4e-13 without)
    steps, total_time = 3 * MAGNUS_BLOCK, 1.133
    g_nodes = profile_nodes([0.96875, 0.96875], total_time, steps)
    _, _, defect = magnus_one(g_nodes, np.pi - 1.0, total_time / steps)
    assert defect < 5e-13


@pytest.mark.parametrize("n", [3, 11, 101])
def test_cumulative_simpson_monotone_for_positive(n):
    y = np.abs(np.sin(np.linspace(0.0, 3.0, n))) + 0.1
    out = cumulative_simpson_uniform(y, 0.01)
    assert np.all(np.diff(out) > 0.0)


def _one(f):
    """A scalar sequence f(n) as one element, in ``refine``'s convention."""
    return lambda n, rows: np.array([f(n)])[rows]


def test_refine_converges_on_settling_sequence():
    # 1 + 1/n: successive values differ by about 1/(2n) relative, first below 1e-3 at 512 -> 1024
    grids = []

    def f(n):
        grids.append(n)
        return 1.0 + 1.0 / n

    (value,), (err,), (ok,) = refine(_one(f), 16, 1e-3, 2**21)
    assert ok
    assert grids == [16, 32, 64, 128, 256, 512, 1024]
    assert value == 1.0 + 1.0 / 1024
    assert err == (1.0 / 512 - 1.0 / 1024) / value


def test_refine_reports_nonconvergence_at_n_max():
    grids = []

    def f(n):
        grids.append(n)
        return float(n)

    value, err, ok = refine(_one(f), 4, 1e-3, 64)
    assert not ok[0]
    assert grids == [4, 8, 16, 32, 64]
    # the last value comes back, with its last relative difference as the error
    assert (value.tolist(), err.tolist()) == ([64.0], [(64.0 - 32.0) / 64.0])
    # with no doubling there is no difference to report
    value, err, ok = refine(_one(f), 128, 1e-3, 64)
    assert (value.tolist(), err.tolist(), ok.tolist()) == ([128.0], [math.inf], [False])


def test_refine_accepts_values_below_roundoff_floor():
    vals = iter([3e-14, -4e-14])
    (value,), (err,), (ok,) = refine(_one(lambda n: next(vals)), 8, 1e-6, 2**10)
    assert ok and value == -4e-14
    assert err == pytest.approx(7e-14 / 1e-13)


def test_one_quadrature_error():
    assert grover.QuadratureError is response.QuadratureError


def test_refine_converges_each_element_on_its_own():
    # a constant settles at the first doubling, 1 + 1/n at 512 -> 1024 and
    # 1 + 64/n at 32768 -> 65536; n itself never does
    sequences = [lambda n: 2.0, lambda n: 1.0 + 1.0 / n, lambda n: 1.0 + 64.0 / n, float]
    calls = []

    def eval_at(n, rows):
        rows = np.arange(len(sequences))[rows]
        calls.append((n, rows.tolist()))
        return np.array([sequences[r](n) for r in rows])

    value, err, ok = refine(eval_at, 16, 1e-3, 2**17)
    assert [n for n, _ in calls] == [16 * 2**k for k in range(14)]
    assert ok.tolist() == [True, True, True, False]
    assert value.tolist()[:3] == [2.0, 1.0 + 1.0 / 1024, 1.0 + 64.0 / 65536]
    # a converged element is not evaluated again
    assert calls[1] == (32, [0, 1, 2, 3]) and calls[2] == (64, [1, 2, 3])
    assert calls[-1] == (2**17, [3])
    # each element gets exactly what a run on it alone gets
    for f, v, e, c in zip(sequences, value.tolist(), err.tolist(), ok.tolist()):
        assert [x.tolist() for x in refine(_one(f), 16, 1e-3, 2**17)] == [[v], [e], [c]]
    # once every element has converged the doubling stops
    calls.clear()
    sequences.pop()
    assert refine(eval_at, 16, 1e-3, 2**17)[2].all()
    assert calls[-1][0] == 65536


def test_refine_converges_elements_with_components():
    # axes after the first hold an element's components: its difference is
    # summed over them, relative to their Euclidean norm
    calls = []

    def eval_at(n, rows):
        rows = np.arange(3)[rows]
        calls.append((n, rows.tolist()))
        # element r is (3, 4) * (1 + 2^r / n): its difference from grid n/2
        # sums to 7 * 2^r / n, its norm is 5 * (1 + 2^r / n)
        return np.array([3.0, 4.0]) * (1.0 + 2.0 ** rows[:, None] / n)

    value, err, ok = refine(eval_at, 8, 1e-3, 2**14)
    assert value.shape == (3, 2) and err.shape == ok.shape == (3,)
    assert ok.all()
    # 1.4 * 2^r / n < 1e-3 first at n = 2048 * 2^r
    assert calls[-3:] == [(2048, [0, 1, 2]), (4096, [1, 2]), (8192, [2])]
    for r, n in enumerate((2048, 4096, 8192)):
        assert value[r].tolist() == (np.array([3.0, 4.0]) * (1.0 + 2.0**r / n)).tolist()
        assert err[r] == pytest.approx(7.0 * 2.0**r / n / (5.0 * (1.0 + 2.0**r / n)), rel=1e-12)


@pytest.mark.parametrize("block", [2**13, 16])
def test_nested_simpson_is_composite_simpson_on_the_grid_it_stopped_on(monkeypatch, block):
    # block 16 streams every grid in blocks of nodes and of integrands
    monkeypatch.setattr(_kernels, "_NESTED_BLOCK", block)
    rates = np.array([0.0, 1.0, 3.0, 40.0])
    sampled = []

    def integrand(rows, u):
        sampled.append((rows.tolist(), u))
        return np.exp(np.sin(rates[rows, None] * u))

    values, errors, ok = nested_simpson(lambda u: u, integrand, len(rates), 7)
    assert ok.all() and np.all(errors < 1e-9)
    # no node of any integrand is sampled twice, and each stops on its own
    nodes = {r: [] for r in range(len(rates))}
    for rows, u in sampled:
        for r in rows:
            nodes[r].extend(u.tolist())
    for r, v, err in zip(range(len(rates)), values, errors):
        n = len(nodes[r]) - 1
        assert sorted(nodes[r]) == (np.arange(n + 1) / n).tolist()
        grid = np.linspace(0.0, 1.0, n + 1)
        want = composite_simpson(n + 1, 1.0 / n) @ np.exp(np.sin(rates[r] * grid))
        assert v == pytest.approx(want, rel=1e-13)
        # the first grid (7 rounded up to 8 intervals) and one doubling at least
        assert n >= 16
    assert len(nodes[0]) < len(nodes[3])


def test_nested_simpson_floor_and_failure():
    # an integral that vanishes stops at the first doubling; one that cannot
    # converge reports so at the finest grid
    def integrand(rows, u):
        return np.where(rows[:, None] == 0, 0.0, np.sin(1e6 * u))

    values, errors, ok = nested_simpson(lambda u: u, integrand, 2, 64)
    assert ok.tolist() == [True, False]
    assert values[0] == 0.0 and errors[1] > 1e-9


def direct_dft(x, theta0, dtheta, ks):
    j = np.arange(len(x))
    return np.array([np.sum(x * np.exp(-1j * (theta0 + k * dtheta) * j)) for k in ks])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 400), m=st.integers(2, 400),
    theta0=st.floats(-4.0, 4.0), dtheta=st.floats(-0.5, 0.5), seed=st.integers(0, 2**32 - 1),
)
@example(n=5, m=300, theta0=0.3, dtheta=0.01, seed=0)  # n < m
@example(n=300, m=5, theta0=-1.0, dtheta=0.2, seed=1)  # n > m
@example(n=64, m=2, theta0=0.0, dtheta=-0.05, seed=2)
def test_chirp_z_matches_direct_dft(n, m, theta0, dtheta, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = chirp_z(x, theta0, dtheta, m)
    want = direct_dft(x, theta0, dtheta, range(m))
    assert got.shape == (m,)
    # rounding of the chirp phases, which reach |dtheta| (n + m)^2 / 2, and of the FFTs
    assert np.max(np.abs(got - want)) <= 1e-10 * np.sum(np.abs(x))


def test_chirp_z_on_a_long_grid():
    # n = 2^21 intervals of T = 5000 and an omega step of 0.03: the chirp
    # phases reach 1.6e8 rad
    n, m = 2**21, 101
    rng = np.random.default_rng(7)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    dt = 5000.0 / n
    theta0, dtheta = -0.5 * dt, 0.03 * dt
    got = chirp_z(x, theta0, dtheta, m)
    ks = [0, 1, 50, m - 1]
    want = direct_dft(x, theta0, dtheta, ks)
    assert np.max(np.abs(got[ks] - want)) <= 1e-10 * np.sum(np.abs(x))


@pytest.mark.parametrize("n,dt,omegas", [
    # theta = w dt on both sides of the Taylor switch, and w = 0
    (200, 0.1, np.linspace(-0.3, 0.3, 13)),  # |theta| = 0, 0.005, 0.01, ..., 0.03
    (1000, 0.01, np.linspace(0.0, 2.5, 51)),
    (3, 0.7, np.linspace(-9.0, 9.0, 41)),
    (1, 0.2, np.linspace(-1.0, 1.0, 2)),
    (64, 0.05, np.array([0.4])),
], ids=["across_switch", "from_zero", "coarse_fast", "one_interval", "one_frequency"])
def test_linear_fourier_matches_filon_on_linear_data(n, dt, omegas):
    # Filon integrates a linear envelope against a linear phase exactly, so
    # on the interpolant's own data both give the same integral
    rng = np.random.default_rng(n)
    h = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    t = dt * np.arange(n + 1)
    got = linear_fourier(h, dt, omegas)
    want = [filon_integral(h.real, -w * t, dt) + 1j * filon_integral(h.imag, -w * t, dt)
            for w in omegas]
    # both lose about eps/theta^2 of a segment near the switch
    assert np.max(np.abs(got - want)) <= 1e-11 * dt * np.sum(np.abs(h))

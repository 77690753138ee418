import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from qptsweep._kernels import (
    MAGNUS_BLOCK,
    cumulative_simpson_uniform,
    filon_integral,
    gauss_legendre_times,
    magnus4_modes,
    rk4_mode,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def linear_nodes(total_time, steps):
    return gauss_legendre_times(total_time, steps) / total_time


def magnus_one(g_nodes, ka, dt, u0=1.0, v0=0.0):
    """Single-mode call; returns (u_T, v_T, norm_defect) as scalars."""
    u, v, d = magnus4_modes(g_nodes, np.array([ka]), dt, np.array([u0]), np.array([v0]))
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
    u_ref, v_ref = rk4_mode(np.linspace(0.0, 1.0, 2 * fine + 1), ka, total_time / fine)
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
    u, v = rk4_mode(g2, np.pi / 3, dt)
    assert np.max(np.abs(v)) < 1e-12
    t = np.linspace(0.0, 5.0, steps + 1)
    assert np.max(np.abs(u - np.exp(-2j * t))) < 1e-9
    # the Magnus step is exact for a constant Hamiltonian
    u, v, defect = magnus_one(np.zeros((steps, 2)), np.pi / 3, dt)
    assert abs(v) < 1e-12
    assert abs(u - np.exp(-10j)) < 1e-12
    assert defect < 1e-12


def test_magnus4_modes_match_single_mode_calls():
    total_time, steps = 30.0, 3000
    g_nodes = linear_nodes(total_time, steps)
    ka = np.array([np.pi / 64, 0.7, -1.9, np.pi])
    u0 = np.array([1.0, 0.6, 0.8j, np.sqrt(0.5)], dtype=complex)
    v0 = np.array([0.0, 0.8, 0.6, np.sqrt(0.5) * 1j], dtype=complex)
    u, v, defect = magnus4_modes(g_nodes, ka, total_time / steps, u0, v0)
    for k in range(len(ka)):
        uk, vk, dk = magnus_one(g_nodes, ka[k], total_time / steps, u0[k], v0[k])
        assert abs(u[k] - uk) < 1e-14 and abs(v[k] - vk) < 1e-14
        assert abs(defect[k] - dk) < 1e-14


@pytest.mark.parametrize("steps", [MAGNUS_BLOCK - 1, MAGNUS_BLOCK, 2 * MAGNUS_BLOCK + 37])
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


@settings(max_examples=40, deadline=None)
@given(
    knots=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8),
    ka=st.floats(min_value=-np.pi, max_value=np.pi),
    total_time=st.floats(min_value=1.0, max_value=400.0),
    steps=st.integers(min_value=1, max_value=3 * MAGNUS_BLOCK),
)
def test_magnus4_norm_defect_on_monotone_profiles(knots, ka, total_time, steps):
    # any monotone g(t) on a piecewise-linear profile, any step size
    profile = np.sort(knots)
    t = gauss_legendre_times(total_time, steps) / total_time
    g_nodes = np.interp(t, np.linspace(0.0, 1.0, len(profile)), profile)
    _, _, defect = magnus_one(g_nodes, ka, total_time / steps)
    assert defect < 1e-12


@pytest.mark.parametrize("n", [3, 11, 101])
def test_cumulative_simpson_monotone_for_positive(n):
    y = np.abs(np.sin(np.linspace(0.0, 3.0, n))) + 0.1
    out = cumulative_simpson_uniform(y, 0.01)
    assert np.all(np.diff(out) > 0.0)

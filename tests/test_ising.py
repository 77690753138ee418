import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qptsweep import ising, schedules
from qptsweep._kernels import rk4_mode


def test_chain_params_validation():
    ising.ChainParams(2)
    ising.ChainParams(64)
    with pytest.raises(ising.InvalidChainError):
        ising.ChainParams(3)
    with pytest.raises(ising.InvalidChainError):
        ising.ChainParams(0)


def test_momentum_grid_half_integer():
    grid = ising.momentum_grid(ising.ChainParams(8))
    want = np.array([-7, -5, -3, -1, 1, 3, 5, 7]) * np.pi / 8
    assert_allclose(grid, want)
    assert np.all(np.abs(grid) < np.pi)


def test_dispersion_known_values():
    # g=0: flat band at 2; g=1/2, ka=pi/N: gap edge 2 sin(ka/2)
    assert ising.dispersion(0.3, 0.0) == pytest.approx(2.0)
    ka = np.pi / 16
    assert ising.dispersion(ka, 0.5) == pytest.approx(2.0 * np.sin(ka / 2.0))
    assert ising.dispersion(np.pi, 0.5) == pytest.approx(2.0)


@settings(max_examples=200, deadline=None)
@given(
    ka=st.floats(min_value=-np.pi, max_value=np.pi),
    g=st.floats(min_value=0.0, max_value=1.0),
)
def test_dispersion_identity_alpha_beta(ka, g):
    # alpha^2 + beta^2 = E^2 everywhere on the domain
    coeff = ising.mode_coefficients(ka, g)
    energy = ising.dispersion(ka, g)
    assert coeff.alpha**2 + coeff.beta**2 == pytest.approx(energy**2, abs=1e-10)
    assert 0.0 <= energy <= 2.0 + 1e-12


@settings(max_examples=100, deadline=None)
@given(
    ka=st.floats(min_value=0.05, max_value=3.0),
    g=st.floats(min_value=0.0, max_value=1.0),
)
def test_instantaneous_bogoliubov_normalized(ka, g):
    u, v = ising.instantaneous_bogoliubov(ka, g)
    assert u**2 + v**2 == pytest.approx(1.0, abs=1e-12)


def test_degenerate_normalization_raises():
    # at g=1/2 and ka -> 0 the quasi-particle branch touches zero
    with pytest.raises(ising.DegenerateNormalizationError):
        ising.instantaneous_bogoliubov(1e-12, 0.5)


def test_ground_energy_closed_form_n2():
    # N=2 even sector: E0 = -2 sqrt(1 - 2g + 2g^2)
    p = ising.ChainParams(2)
    for g in (0.0, 0.25, 0.5, 1.0):
        want = -2.0 * np.sqrt(1.0 - 2.0 * g + 2.0 * g**2)
        assert ising.ground_energy_analytic(p, g) == pytest.approx(want, abs=1e-12)


def test_gap_formulas():
    p = ising.ChainParams(32)
    assert ising.min_gap(p, 0.5) == pytest.approx(ising.global_min_gap(p))
    assert ising.global_min_gap(p) == pytest.approx(4.0 * np.sin(np.pi / 64.0))
    # the fundamental gap is minimal at the transition
    gs = np.linspace(0.0, 1.0, 41)
    gaps = [ising.min_gap(p, g) for g in gs]
    assert np.argmin(gaps) == 20


def test_integrate_bogoliubov_norm_and_error_certificates():
    sched = schedules.make_schedule("linear", 40.0)
    end = ising.integrate_bogoliubov(np.pi / 8, sched)
    assert end.norm_defect < 1e-9
    assert end.endpoint_error < 1e-6
    # the g=0 ground state is (1, 0): the RK4 oracle started there lands on the same endpoint
    steps = 40000
    u, v = rk4_mode(np.linspace(0.0, 1.0, 2 * steps + 1), np.pi / 8, 40.0 / steps)
    assert abs(end.u - u[-1]) + abs(end.v - v[-1]) < 1e-8


def test_vector_ka_matches_scalar_calls():
    sched = schedules.make_schedule("gap_adapted", 30.0, n_spins=16)
    ka = np.array([np.pi / 16, 3 * np.pi / 16, 7 * np.pi / 16])
    end = ising.integrate_bogoliubov(ka, sched, steps=4096)
    assert end.u.shape == end.norm_defect.shape == end.endpoint_error.shape == (3,)
    pexc = end.excitation_probability()
    mis = end.adiabatic_mismatch()
    for i, k in enumerate(ka):
        one = ising.integrate_bogoliubov(k, sched, steps=4096)
        assert isinstance(one.norm_defect, float) and isinstance(one.u, complex)
        assert abs(end.u[i] - one.u) < 1e-14 and abs(end.v[i] - one.v) < 1e-14
        assert abs(end.endpoint_error[i] - one.endpoint_error) < 1e-14
        want_p = ising.excitation_probability_mode(k, sched, steps=4096)
        assert pexc[i] == pytest.approx(want_p, abs=1e-14)
        assert mis[i] == pytest.approx(ising.adiabatic_mismatch(k, sched, steps=4096), abs=1e-14)
    with pytest.raises(ValueError):
        ising.integrate_bogoliubov(ka[None, :], sched)


def test_frozen_schedule_no_excitation():
    sched = schedules.make_schedule("frozen", 10.0, g_frozen=0.3)
    p = ising.excitation_probability_mode(np.pi / 8, sched)
    assert p < 1e-10


def test_excitation_probability_decreases_with_t():
    ps = [
        ising.excitation_probability_mode(np.pi / 16, schedules.make_schedule("linear", T))
        for T in (20.0, 80.0, 320.0)
    ]
    assert ps[0] > ps[1] > ps[2]


def test_adiabatic_bogoliubov_satisfies_equations_of_motion():
    # finite-difference time derivative of the closed form vs i(alpha u + beta v)
    sched = schedules.make_schedule("linear", 200.0)
    ka = np.pi / 8
    t0, h = 90.0, 1e-4
    um, vm = ising.adiabatic_bogoliubov(ka, sched, t0 - h)
    up, vp = ising.adiabatic_bogoliubov(ka, sched, t0 + h)
    u0, v0 = ising.adiabatic_bogoliubov(ka, sched, t0)
    coeff = ising.mode_coefficients(ka, sched.g_of(t0))
    du = (up - um) / (2.0 * h)
    dv = (vp - vm) / (2.0 * h)
    # adiabatic ansatz obeys the mode equations up to O(gdot) corrections
    assert abs(1j * du - (coeff.alpha * u0 + coeff.beta * v0)) < 0.02
    assert abs(1j * dv - (-coeff.alpha * v0 + coeff.beta * u0)) < 0.02


def test_spectrum_bundle():
    p = ising.ChainParams(8)
    spec = ising.spectrum(p, 0.4)
    assert spec.energies.shape == (8,)
    assert np.all(spec.energies > 0.0)
    norms = np.sum(np.abs(spec.bogoliubov) ** 2, axis=1)
    assert_allclose(norms, 1.0, atol=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        ising.dispersion(0.5, 1.5)
    with pytest.raises(ValueError):
        ising.dispersion(4.0, 0.5)

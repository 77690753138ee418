"""``response.total_error`` on certified grids against the fixed-grid path it
replaced, kept here as the oracle."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixed_grid_oracle import bound_grid, composite_simpson, fixed_bound, fixed_window
from qptsweep import bath, ising, response, schedules
from qptsweep._kernels import _ABS_FLOOR

SCHEDULES = ("linear", "gap_adapted", "gap_squared_adapted")


# the phase-free integrands in their closed forms: |2 u_k v_k| = 2g|sin(ka)|/E,
# v_k/sin(ka) = 2g/sqrt(2E^2 + 2 alpha E) and u_k = sqrt(1/2 + alpha/2E)
def near_gap_env(ka, g, energy):
    return np.abs(2.0 * g * np.sin(ka) / energy)


def a1_env(ka, g, energy):
    alpha = 2.0 - 4.0 * g * np.cos(ka / 2.0) ** 2
    return 2.0 * g / np.sqrt(2.0 * energy**2 + 2.0 * alpha * energy)


def pair_env(ka, g, energy):
    return np.sqrt(0.5 + (1.0 - 2.0 * g * np.cos(ka / 2.0) ** 2) / energy)


@functools.lru_cache(maxsize=None)
def _window(sf_key, lo, hi, n_points):
    return fixed_window(BATHS[sf_key](), lo, hi, n_points)


def _oracle_total(channel, schedule, sf_key, n_spins, bound_points, window_points):
    """``total_error`` as it was on fixed grids: every phase-free bound on
    ``bound_points`` nodes, every window by a trapezoid on ``window_points``
    nodes, and a scalar loop over the saddle samples of each intermediate
    window (never narrower than 2% for the N used here)."""
    lam = channel.coupling
    ka_positive = (2 * np.arange(n_spins // 2) + 1) * np.pi / n_spins
    total = 0.0
    grid = bound_grid(schedule, bound_points)
    if channel.kind == "single_site_z":
        weight = _window(sf_key, -2.0, 2.0, window_points)
        for ka in ka_positive:
            b1 = abs(np.sin(ka)) * fixed_bound(ka, a1_env, grid)
            b2 = fixed_bound(ka, pair_env, grid)
            total += 2.0 * lam / np.sqrt(n_spins) * (b1 + b2) * weight
        return total
    T = schedule.T
    for ka in ka_positive:
        bounds = response.regime_bounds(ka)
        for regime in response.REGIMES:
            lo, hi = getattr(bounds, regime)
            lo = max(lo, -2.0)
            if hi <= lo:
                continue
            weight = _window(sf_key, lo, hi, window_points)
            if weight == 0.0:
                continue
            if regime == "negative":
                amp = np.exp(-np.pi * T * ka**2 / 16.0)
            elif regime == "sub_gap":
                amp = np.exp(-T * ka**2 / 2.0)
            else:
                amp, used_saddle = 0.0, False
                if regime == "intermediate":
                    omegas = np.linspace(lo * 1.01, hi * 0.99, 9)
                    assert omegas[0] < omegas[-1]
                    for w in omegas:
                        try:
                            res = response.amplitude_saddle_uniform(w, ka, schedule)
                        except ValueError:
                            continue
                        amp, used_saddle = max(amp, res.modulus), True
                if not used_saddle:
                    amp = fixed_bound(ka, near_gap_env, grid)
            total += lam * amp * weight
    return total


def _thermal(beta, epsilon=1.0):
    return bath.SpectralFunction(kind="thermal_bosonic", theta=0.5, epsilon=epsilon, omega_c=2.0, beta=beta)


def _cold_table():
    # the cold window of acceptance criterion 12
    hi = 0.9 * ising.global_min_gap(ising.ChainParams(256)) / 3.0
    w = np.linspace(0.0, hi, 101)
    return bath.load_tabulated(np.column_stack([w, np.sin(np.pi * w / hi) ** 2]))


BATHS = {
    "warm": lambda: _thermal(1.0 / ising.global_min_gap(ising.ChainParams(32))),
    "zero_temperature": lambda: _thermal(np.inf),
    # f not smooth at 0, where every sub_gap window starts: a jump for a flat
    # bath, and |w|^0.5 next to 0 in the two others
    "flat_zero_temperature": lambda: _thermal(np.inf, epsilon=0.0),
    "sub_ohmic_zero_temperature": lambda: _thermal(np.inf, epsilon=0.5),
    "super_ohmic_warm": lambda: _thermal(1.0, epsilon=1.5),
    "cold_table": _cold_table,
    "table": lambda: bath.load_tabulated([(-1.5, 0.0), (-0.5, 0.4), (0.3, 1.0), (1.2, 0.2), (1.9, 0.0)]),
    "dirac_comb": lambda: bath.dirac_probe([-0.7, 0.05, 0.4, 1.1], [0.5, 1.0, 2.0, 0.25]),
}


@pytest.mark.parametrize("n_spins", [8, 16, 64])
@pytest.mark.parametrize("kind", SCHEDULES)
@pytest.mark.parametrize("channel", ["uniform_x", "single_site_z"])
def test_total_error_matches_the_fixed_grid_oracle(channel, kind, n_spins):
    # the reference is the oracle on a 4x finer bound grid and 2^18+1 window
    # nodes; the certified total must be as close to it as the oracle, or
    # within 1e-9
    ch = response.Channel(kind=channel, coupling=0.01)
    T = ising.global_min_gap(ising.ChainParams(n_spins)) ** -2.0
    sched = schedules.make_schedule(kind, float(T), n_spins=n_spins)
    for sf_key, make in BATHS.items():
        new = response.total_error(ch, sched, make(), n_spins)[0]
        oracle = _oracle_total(ch, sched, sf_key, n_spins, 16385, 4097)
        ref = _oracle_total(ch, sched, sf_key, n_spins, 4 * 16384 + 1, 2**18 + 1)
        assert ref > 0.0
        assert abs(new - ref) <= max(abs(oracle - ref), 1e-9 * abs(ref)), sf_key


def test_saddle_samples_stay_inside_a_narrow_window():
    # at N=256, ka = 27pi/256 has the intermediate window [1.988, 2.0], under
    # 2% wide: lo*1.01 .. hi*0.99 would run backwards and past both ends
    lo, hi = response.regime_bounds(27 * np.pi / 256).intermediate
    assert hi / lo < 1.01 / 0.99
    omegas = response._saddle_samples(lo, hi)
    assert len(omegas) == 9
    assert np.all(np.diff(omegas) > 0.0)
    assert lo < omegas[0] and omegas[-1] < hi
    # a wide window keeps its samples 1% in from either end
    assert response._saddle_samples(0.5, 2.0).tolist() == np.linspace(0.505, 1.98, 9).tolist()


def _finest_grid(monkeypatch):
    """Record the finest grid, in intervals of [0, 1], that the phase-free
    bounds sample from here on."""
    finest = [0]
    nested = response.nested_simpson

    def recording(grid, integrand, count, n0):
        def grid_seen(u):
            finest[0] = max(finest[0], round(1.0 / u[u > 0.0].min()))
            return grid(u)

        return nested(grid_seen, integrand, count, n0)

    monkeypatch.setattr(response, "nested_simpson", recording)
    return finest


@settings(max_examples=25, deadline=None)
@given(
    ka=st.floats(min_value=np.pi / 512, max_value=np.pi, exclude_max=True),
    T=st.floats(min_value=1.0, max_value=100.0),
    kind=st.sampled_from(SCHEDULES),
    n_spins=st.sampled_from([8, 64, 256]),
)
@example(ka=np.nextafter(np.pi, 0.0), T=100.0, kind="gap_squared_adapted", n_spins=256)
@example(ka=np.pi / 512, T=100.0, kind="linear", n_spins=8)
# two grids agree here by coincidence: one agreement alone certifies a 4.4e-9 error as 7.4e-10
@example(ka=0.8834936416076431, T=1.0, kind="gap_squared_adapted", n_spins=64)
def test_phase_free_bounds_lie_within_their_certificate(ka, T, kind, n_spins):
    # each bound, against its rule on a grid 4x finer than the one it stopped
    # on; a bound that vanishes (ka next to pi) is certified by the absolute
    # floor instead, and a rounding allowance covers a difference of exactly 0
    sched = schedules.make_schedule(kind, T, n_spins=n_spins)
    with pytest.MonkeyPatch.context() as mp:
        finest = _finest_grid(mp)
        near = response.amplitude_bound_near_gap(ka, sched)
        n_near = finest[0]
        finest[0] = 0
        flip = response.amplitude_bitflip(ka, 0.5, sched)
        n_flip = finest[0]
    cases = [
        (near.modulus, near.quad_error, near.converged, near_gap_env, n_near),
        (flip.a2_bound, flip.a2_bound_error, flip.converged, pair_env, n_flip),
    ]
    for value, err, ok, envelope, n in cases:
        assert ok
        fine = fixed_bound(ka, envelope, bound_grid(sched, 4 * n + 1, composite_simpson))
        if abs(value) < _ABS_FLOOR:
            assert abs(value - fine) < _ABS_FLOOR
        else:
            assert abs(value - fine) <= (err + 1e-12) * abs(value)
            assert abs(value - fine) <= 1e-9 * abs(fine)


def test_bitflip_bound_failure_reaches_its_flag(monkeypatch):
    # a bound whose certificate fails clears the amplitudes' converged flag
    def uncertified(grid, integrand, count, n0):
        return np.ones(count), np.full(count, math.inf), np.zeros(count, dtype=bool)

    monkeypatch.setattr(response, "nested_simpson", uncertified)
    sched = schedules.make_schedule("linear", 5.0)
    assert not response.amplitude_bitflip(0.4, 0.5, sched).converged
    assert not response.amplitude_bound_near_gap(0.4, sched).converged
    sf = _thermal(5.0)
    with pytest.raises(response.QuadratureError):
        response.total_error(response.Channel(kind="single_site_z", coupling=0.01), sched, sf, 8)

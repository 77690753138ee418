import numpy as np
import pytest

from constant_g import ConstantG
from qptsweep import bath, response, schedules
from qptsweep._kernels import cumulative_simpson_uniform
from qptsweep.ising import ChainParams, dispersion, momentum_grid


def linear(T):
    return schedules.make_schedule("linear", T)


def test_classify_regime():
    assert response.classify_regime(-0.1, 0.3) == "negative"
    ka = np.pi / 8
    assert response.classify_regime(2.0 * ka, ka) == "near_gap"
    assert response.classify_regime(0.5, np.pi / 64) == "intermediate"
    assert response.classify_regime(0.01, np.pi / 8) == "sub_gap"
    with pytest.raises(ValueError):
        response.classify_regime(0.5, 3.5)


def test_regime_bounds_partition():
    # every mode's windows tile (-inf, 2): none reversed, none past the
    # initial energy (for |ka| > 3, 2|ka|/3 lies past 2)
    for ka in momentum_grid(ChainParams(256)):
        b = response.regime_bounds(ka)
        windows = [b.negative, b.sub_gap, b.near_gap, b.intermediate]
        assert all(lo <= hi for lo, hi in windows), (ka, windows)
        assert b.negative[0] == -np.inf and b.negative[1] == b.sub_gap[0] == 0.0
        assert b.sub_gap[1] == b.near_gap[0]
        assert b.near_gap[1] == b.intermediate[0]
        assert b.intermediate[1] == 2.0


def test_amplitude_direct_t0_limit():
    r = response.amplitude_direct_uniform(np.pi / 8, 0.3, linear(1e-6))
    assert abs(r.value) < 1e-5


def test_quadrature_self_consistency():
    r1 = response.amplitude_direct_uniform(np.pi / 16, 0.5, linear(200.0), rel_tol=1e-3)
    r2 = response.amplitude_direct_uniform(np.pi / 16, 0.5, linear(200.0), rel_tol=1e-6)
    assert r1.converged and r2.converged
    assert abs(r1.value - r2.value) / abs(r2.value) < max(r1.quad_error, 1e-6)


@pytest.mark.parametrize("ka", [np.pi / 256, 3 * np.pi / 256])
def test_positive_frequency_rows_stay_within_their_certificates(ka):
    # the benchmark's uniform_x rows at w > 0, whose first Filon grid
    # resolves max(w, 4 - w) rather than w + 4: each value is within its
    # quad_error of a fine reference (whose own error is far smaller;
    # at pi/256, w = 0.2 it stops at n_max, 1.8e-8)
    omegas = np.array([0.2, 0.8, 1.4, 2.0, 2.6])
    sched = schedules.make_schedule("linear", 5000.0, n_spins=256)
    values, errors, converged = response.amplitudes_on_grid("uniform_x", ka, ka, omegas, 256, sched, 2)
    assert converged.all()
    for omega, value, err in zip(omegas, values, errors):
        ref = response.amplitude_direct_uniform(ka, omega, sched, rel_tol=1e-8, endpoint_order=2)
        assert ref.quad_error < 1e-2 * err
        assert abs(value - ref.value) <= err * abs(value)


def test_saddle_points():
    gp, gm = response.saddle_points_uniform(2.0, 1e-6)
    assert gp == pytest.approx(0.75, abs=1e-6)
    assert gm == pytest.approx(0.25, abs=1e-6)
    ka = np.pi / 7
    w0 = 4.0 * np.sin(ka / 2.0)
    gp, gm = response.saddle_points_uniform(w0, ka)
    assert gp == pytest.approx(0.5) and gm == pytest.approx(0.5)
    # back-substitution: the pair gap matches omega at the roots
    gp, gm = response.saddle_points_uniform(1.0, np.pi / 16)
    for g in (gp, gm):
        assert 2.0 * dispersion(np.pi / 16, g) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        response.saddle_points_uniform(0.1, np.pi / 4)


def test_saddle_vs_quadrature_benchmark():
    ka, w = np.pi / 64, 0.4
    mis = []
    for T in (2500.0, 5000.0):
        q = response.amplitude_direct_uniform(ka, w, linear(T), rel_tol=1e-5)
        s = response.amplitude_saddle_uniform(w, ka, linear(T))
        mis.append(abs(s.modulus - q.modulus) / q.modulus)
    assert mis[1] < 0.25
    assert mis[1] < mis[0]


def test_saddle_sweep_rate_scaling():
    # per-saddle modulus scales as gdot^{-1/2}: halving the sweep rate
    # multiplies it by sqrt(2).  Checked on the single-saddle envelope
    # (the coherent two-saddle sum carries interference fringes).
    ka, w = np.pi / 64, 0.5
    gp, _ = response.saddle_points_uniform(w, ka)

    def single_saddle_modulus(T):
        gdot = 1.0 / T
        env = 2.0 * gp * np.sin(ka) / (w / 2.0)
        ddphase = 2.0 * gdot * 8.0 * np.cos(ka / 2.0) ** 2 * (2.0 * gp - 1.0) / (w / 2.0)
        return env * np.sqrt(2.0 * np.pi / abs(ddphase))

    ratio = single_saddle_modulus(8000.0) / single_saddle_modulus(4000.0)
    assert ratio == pytest.approx(np.sqrt(2.0), rel=0.05)
    a = response.amplitude_saddle_uniform(w, ka, linear(4000.0))
    b = response.amplitude_saddle_uniform(w, ka, linear(8000.0))
    assert b.validity < a.validity
    assert a.converged and b.converged


def test_saddle_collision_flagged():
    ka = np.pi / 16
    w0 = 4.0 * np.sin(ka / 2.0)
    with pytest.raises(ValueError):
        response.amplitude_saddle_uniform(w0 * (1.0 + 1e-9), ka, linear(1000.0))


def test_near_gap_bound_symmetry_and_linearity_in_t():
    ka = np.pi / 32
    b1 = response.amplitude_bound_near_gap(ka, linear(100.0)).modulus
    b2 = response.amplitude_bound_near_gap(-ka, linear(100.0)).modulus
    assert b1 == pytest.approx(b2, rel=1e-12)
    b4 = response.amplitude_bound_near_gap(ka, linear(400.0)).modulus
    assert b4 == pytest.approx(4.0 * b1, rel=1e-9)


def test_near_gap_bound_grid_size():
    # the benchmark's reference tables ask for a finer grid than the default
    ka = np.pi / 16
    coarse = response.amplitude_bound_near_gap(ka, linear(100.0)).modulus
    fine = response.amplitude_bound_near_gap(ka, linear(100.0), n_points=4 * 16384 + 1).modulus
    assert fine == pytest.approx(coarse, rel=1e-9)


def test_nonuniform_reduces_to_uniform_shape_at_equal_momenta():
    # C_{k,k}/norm_k equals the uniform envelope 2g sin(ka)/E up to a
    # constant: the ratio of integrands must be constant in g
    rng = np.random.default_rng(5)
    for _ in range(100):
        ka = rng.uniform(0.05, 3.0)
        g = rng.uniform(0.01, 1.0)
        e = dispersion(ka, g)
        alpha = 2.0 - 4.0 * g * np.cos(ka / 2.0) ** 2
        norm = np.sqrt(2.0 * e**2 + 2.0 * alpha * e)
        c_kk = 4.0 * g * np.sin(ka) * np.sqrt(0.5 + (1.0 - 2.0 * g * np.cos(ka / 2.0) ** 2) / e)
        ratio = (c_kk / norm) / (2.0 * g * np.sin(ka) / e)
        assert ratio == pytest.approx(1.0, abs=1e-10)


def test_nonuniform_one_over_n_prefactor():
    ka, kpa, w = np.pi / 16, 3.0 * np.pi / 16, 0.5
    a = response.amplitude_direct_nonuniform(ka, kpa, w, 64, linear(300.0))
    b = response.amplitude_direct_nonuniform(ka, kpa, w, 128, linear(300.0))
    assert b.modulus == pytest.approx(a.modulus / 2.0, rel=1e-9)


def test_bitflip_frozen_g0():
    ka, w = np.pi / 16, 0.6
    b = response.amplitude_bitflip(ka, w, ConstantG(50.0, 0.0))
    assert abs(b.a1) < 1e-12  # Xi vanishes with g
    # envelope is exactly 1; |int_0^T e^{i(4-w)t} dt| <= 2/|4-w|
    assert abs(b.a2) <= 2.0 / abs(4.0 - w) + 1e-9


def test_bitflip_bound_linear_in_t():
    ka, w = np.pi / 16, 0.6
    b1 = response.amplitude_bitflip(ka, w, linear(500.0))
    b2 = response.amplitude_bitflip(ka, w, linear(1000.0))
    assert b2.a2_bound == pytest.approx(2.0 * b1.a2_bound, rel=1e-9)
    assert abs(b2.a2) >= b2.a2_bound * 0.0  # bound is nonnegative
    assert b1.a2_bound >= abs(b1.a2) - 1e-6  # bound dominates the quadrature


def test_suppression_rates():
    ka = np.pi / 8
    rate, mods = response.suppression_rate_uniform(ka, 0.0, [100, 150, 200])
    assert np.all(np.diff(mods) < 0.0)
    assert rate > 0.25 * 0.5 * ka**2
    nrate, nmods = response.suppression_rate_uniform(ka, -0.2, [60, 100, 140])
    assert np.all(np.diff(nmods) < 0.0)
    assert nrate >= np.pi * ka**2 / 32.0


def test_energy_conservation_locality():
    # >= 80% of the amplitude accumulates near the saddle window
    ka, w, T = np.pi / 64, 0.4, 5000.0
    sched = linear(T)
    gp, gm = response.saddle_points_uniform(w, ka)
    lo, hi = max(gm - 0.1, 0.0), min(gp + 0.1, 1.0)
    n = 2**18
    t = np.linspace(0.0, T, n + 1)
    g = np.asarray(sched.g_of(t))
    e = dispersion(np.full(n + 1, ka), g)
    phase = -w * t + 2.0 * cumulative_simpson_uniform(e, t[1] - t[0])
    env = 2.0 * g * np.sin(ka) / e
    from qptsweep._kernels import filon_integral

    total = filon_integral(env, phase, t[1] - t[0])
    mask = (g >= lo) & (g <= hi)
    i0, i1 = np.argmax(mask), n - np.argmax(mask[::-1])
    window = filon_integral(env[i0:i1], phase[i0:i1], t[1] - t[0])
    assert abs(window) >= 0.8 * abs(total)


def test_channel_parity_bookkeeping():
    with pytest.raises(ValueError):
        response.Channel(kind="uniform_y", coupling=0.1)
    for coupling in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            response.Channel(kind="uniform_x", coupling=coupling)


def test_total_error_zero_bath():
    ch = response.Channel(kind="uniform_x", coupling=0.1)
    sf = bath.load_tabulated([(0.0, 0.0), (1.0, 0.0)])
    total, breakdown = response.total_error(ch, linear(50.0), sf, 16)
    assert total == 0.0
    assert all(v == 0.0 for v in breakdown.values())


def test_total_error_integrates_each_bath_window_once(monkeypatch):
    # the negative window [omega_floor, 0] is shared by every mode, and at
    # n=16 the intermediate window of ka=pi/16 is the near_gap window of 9pi/16
    windows = []
    integrate_abs = response.integrate_abs

    def record(sf, lo, hi):
        windows.extend(zip(np.atleast_1d(lo).tolist(), np.atleast_1d(hi).tolist()))
        return integrate_abs(sf, lo, hi)

    monkeypatch.setattr(response, "integrate_abs", record)
    sf = bath.SpectralFunction(kind="thermal_bosonic", theta=0.5, epsilon=1.0, omega_c=2.0, beta=5.0)
    ch = response.Channel(kind="uniform_x", coupling=0.01)
    total, breakdown = response.total_error(ch, linear(50.0), sf, 16)
    assert windows.count((-2.0, 0.0)) == 1
    assert len(windows) == len(set(windows))
    assert breakdown["negative"] > 0.0 and total > 0.0


@pytest.mark.parametrize("kind", ["uniform_x", "single_site_z"])
def test_total_error_of_a_warm_subohmic_bath(kind):
    # f diverges at w = 0 as |w|^-1/2 but is integrable; every window that
    # ends at 0 is graded there and never evaluates f(0)
    sf = bath.SpectralFunction(kind="thermal_bosonic", epsilon=0.5, beta=1.0, omega_c=2.0)
    total, breakdown = response.total_error(response.Channel(kind=kind, coupling=1.0), linear(50.0), sf, 16)
    assert np.isfinite(total) and total > 0.0
    assert total == pytest.approx(sum(breakdown.values()), rel=1e-12)


def test_total_error_monotone_in_n():
    beta = 1.0 / (4.0 * np.sin(np.pi / 64.0))
    sf = bath.SpectralFunction(kind="thermal_bosonic", theta=0.5, epsilon=1.0, omega_c=2.0, beta=beta)
    ch = response.Channel(kind="uniform_x", coupling=0.01)
    totals = []
    for n in (16, 32, 64):
        T = (4.0 * np.sin(np.pi / (2.0 * n))) ** -2.0
        totals.append(response.total_error(ch, linear(T), sf, n)[0])
    assert totals[0] < totals[1] < totals[2]


def test_total_error_bitflip_channel_runs():
    ch = response.Channel(kind="single_site_z", coupling=0.01)
    sf = bath.SpectralFunction(kind="thermal_bosonic", theta=0.5, epsilon=1.0, omega_c=1.0, beta=10.0)
    total, breakdown = response.total_error(ch, linear(30.0), sf, 8)
    assert total > 0.0


def test_total_error_nonuniform_not_supported():
    ch = response.Channel(kind="nonuniform_x", coupling=0.01)
    sf = bath.load_tabulated([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        response.total_error(ch, linear(10.0), sf, 8)


def test_total_error_takes_n_through_chain_params():
    ch = response.Channel(kind="uniform_x", coupling=0.01)
    sf = bath.load_tabulated([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError, match="n_spins"):
        response.total_error(ch, linear(10.0), sf, 16.0)


def _filon_oracle(kind, ka, kpa, omega, n_spins, schedule):
    """(value, quad_error) of one frequency by Filon grid doubling to 1e-8."""
    if kind == "uniform_x":
        r = response.amplitude_direct_uniform(ka, omega, schedule, rel_tol=1e-8)
    elif kind == "nonuniform_x":
        r = response.amplitude_direct_nonuniform(ka, kpa, omega, n_spins, schedule, rel_tol=1e-8)
    else:
        b = response.amplitude_bitflip(ka, omega, schedule, rel_tol=1e-8)
        return b.a1 + b.a2, b.quad_error
    return r.value, r.quad_error


@pytest.mark.parametrize("schedule_kind", ["linear", "gap_adapted", "gap_squared_adapted"])
@pytest.mark.parametrize("kind", response.CHANNEL_KINDS)
def test_all_omega_amplitudes_match_per_omega_filon(kind, schedule_kind):
    n_spins, ka, kpa = 32, 3.0 * np.pi / 32, 5.0 * np.pi / 32
    sched = schedules.make_schedule(schedule_kind, 50.0, n_spins=n_spins)
    omegas = np.linspace(-0.5, 2.5, 7)  # every regime of ka
    values, errors, converged = response.amplitudes_on_grid(kind, ka, kpa, omegas, n_spins, sched)
    assert converged.all()
    for omega, value, err in zip(omegas, values, errors):
        want, want_err = _filon_oracle(kind, ka, kpa, omega, n_spins, sched)
        # each certificate bounds the relative error of its own value
        assert abs(value - want) <= (err + want_err) * abs(want)


# The channel terms in the closed forms they had before the channel table,
# as the oracle: factor * envelope and the phase rate of every term
def _alpha(ka, g):
    return 2.0 - 4.0 * g * np.cos(ka / 2.0) ** 2


def _pair_envelope(ka, g, e_k):
    return np.sqrt(0.5 + (1.0 - 2.0 * g * np.cos(ka / 2.0) ** 2) / e_k)


def _norm(ka, g, e_k):
    return np.sqrt(2.0 * e_k**2 + 2.0 * _alpha(ka, g) * e_k)


def _oracle_terms(kind, ka, kpa, n_spins, g, e_k):
    if kind == "uniform_x":
        return [(2.0 * g * np.sin(ka) / e_k, 2.0 * e_k)]
    if kind == "nonuniform_x":
        e_kp = dispersion(kpa, g)
        env = 4.0 * g * np.sin(kpa) * _pair_envelope(ka, g, e_k) / _norm(kpa, g, e_kp) / n_spins
        return [(env, 2.0 * e_k)]
    return [
        (1j * np.exp(-1j * ka) * np.sin(ka) * 2.0 * g / _norm(ka, g, e_k), None),
        (np.exp(1j * ka) * _pair_envelope(ka, g, e_k), 2.0 * e_k),
    ]


@pytest.mark.parametrize("kind", response.CHANNEL_KINDS)
def test_channel_table_matches_the_closed_forms(kind):
    # every mode of N = 1024 against every coupling in one call, the modes
    # on the first axis; g -> 1 at small ka is alpha -> -E, where the closed
    # forms of u_k and of 2g/norm lose digits that the table keeps
    n_spins, kpa = 1024, 3 * np.pi / 1024
    ka = (2 * np.arange(n_spins // 2) + 1)[:, None] * np.pi / n_spins
    g = np.concatenate([np.linspace(0.0, 1.0, 201), 1.0 - np.logspace(-12, -2, 11)])
    e_k = dispersion(ka, g)
    terms = response._channel_terms(kind, kpa, n_spins)
    oracle = _oracle_terms(kind, ka, kpa, n_spins, g, e_k)
    assert len(terms) == len(oracle)
    for (factor, integrand), (want, want_rate) in zip(terms, oracle):
        env, rate = integrand(ka, g, e_k)
        assert env.shape == (n_spins // 2, g.size)
        np.testing.assert_allclose(factor(ka) * env, want, rtol=1e-9, atol=0)
        if want_rate is None:
            assert rate is None
        else:
            assert rate.tobytes() == want_rate.tobytes()

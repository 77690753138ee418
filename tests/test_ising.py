import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from constant_g import ConstantG
from qptsweep import ising, schedules
from qptsweep._kernels import rk4_mode


def test_chain_params_validation():
    ising.ChainParams(2)
    ising.ChainParams(64)
    with pytest.raises(ValueError):
        ising.ChainParams(3)
    with pytest.raises(ValueError):
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
    # the gap closes at ka = 0 alone
    assert ising.dispersion(0.0, 0.5) == 0.0
    assert ising.dispersion(1e-8, 0.5) == pytest.approx(1e-8, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(half=st.integers(1, 2048), g=st.floats(0.0, 1.0))
@example(half=256, g=0.0)
@example(half=256, g=0.5)
@example(half=1, g=1.0)
def test_dispersion_is_even_in_ka_bit_for_bit(half, g):
    # the spectrum table takes its energies on the ka > 0 half of the grid
    # and reads each ka < 0 row off its mirror, so the two must be the same bits
    grid = ising.momentum_grid(ising.ChainParams(2 * half))
    assert np.array_equal(-grid[::-1], grid)
    energies = ising.dispersion(grid, g)
    assert energies.view(np.int64).tolist() == energies[::-1].view(np.int64).tolist()


def _within_ulps(x, k=3):
    """x and the k floats on either side of it."""
    out = [x]
    for toward in (-np.inf, np.inf):
        y = x
        for _ in range(k):
            y = float(np.nextafter(y, toward))
            out.append(y)
    return out


@settings(max_examples=200, deadline=None)
@given(ka=st.floats(min_value=-np.pi, max_value=np.pi), g=st.floats(min_value=0.0, max_value=1.0))
@example(ka=np.pi / 3, g=-0.0)
@example(ka=np.pi / 3, g=1e-20)  # 1 - 2g rounds to 1, as at g = 0 and g = 1
@example(ka=0.0, g=0.5)
def test_dispersion_depends_on_g_only_through_abs_one_minus_two_g_bit_for_bit(ka, g):
    # the spectrum table computes its energies once per distinct |1 - 2g| and shares
    # them among the g of that class, g and 1 - g included, so they must be the same bits
    fold = abs(1 - 2 * g)
    same = [g2 for c in (g, 1.0 - g, 0.0, 1.0) for g2 in _within_ulps(c)
            if 0.0 <= g2 <= 1.0 and abs(1 - 2 * g2) == fold]
    want = np.float64(ising.dispersion(ka, g)).view(np.int64)
    assert [np.float64(ising.dispersion(ka, g2)).view(np.int64) for g2 in same] == [want] * len(same)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("g", [0.5, 0.5 + 1e-9])
@pytest.mark.parametrize("ka", [1e-3, np.pi / 1024, np.pi / 8192])
def test_dispersion_is_exact_to_rounding_near_the_gap(ka, g):
    # E in long double; the equivalent 2 sqrt(1 - 4g(1-g)cos^2(ka/2)) cancels
    # here, to eps/E^2 relative (2.3e-10 at g = 1/2, ka = 1e-3)
    wide = np.longdouble
    exact = 2.0 * np.sqrt(np.sin(wide(ka) / 2) ** 2 + ((1 - 2 * wide(g)) * np.cos(wide(ka) / 2)) ** 2)
    assert abs(ising.dispersion(ka, g) - exact) <= 4 * np.finfo(float).eps * exact


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("ka,g", [(1e-3, 0.5), (1e-6, 0.5), (1e-6, 0.5 + 1e-7)])
def test_bogoliubov_pair_is_exact_to_rounding_near_the_gap(ka, g):
    # (u, v) in long double; alpha = 2 - 4g cos^2(ka/2) cancels here, to
    # 2.2e-11 relative at ka = 1e-6, g = 1/2
    wide = np.longdouble
    s, c = np.sin(wide(ka) / 2), np.cos(wide(ka) / 2)
    alpha, beta = 2 * s * s + 2 * (1 - 2 * wide(g)) * c * c, 2 * wide(g) * np.sin(wide(ka))
    e = np.sqrt(alpha * alpha + beta * beta)
    exact_u, exact_v = np.sqrt((e + alpha) / (2 * e)), np.sqrt((e - alpha) / (2 * e))
    u, v = ising.bogoliubov_pair(ka, g, ising.dispersion(ka, g))
    eps = np.finfo(float).eps
    assert abs(u - exact_u) <= 4 * eps * exact_u
    assert abs(v - exact_v) <= 4 * eps * exact_v
    assert abs(wide(u) ** 2 + wide(v) ** 2 - 1) <= 4 * eps


def _alpha_beta(ka, g):
    return 2.0 - 4.0 * g * np.cos(ka / 2.0) ** 2, 2.0 * g * np.sin(ka)


@settings(max_examples=200, deadline=None)
@given(
    ka=st.floats(min_value=-np.pi, max_value=np.pi),
    g=st.floats(min_value=0.0, max_value=1.0),
)
def test_dispersion_identity_alpha_beta(ka, g):
    # alpha^2 + beta^2 = E^2 everywhere on the domain
    alpha, beta = _alpha_beta(ka, g)
    energy = ising.dispersion(ka, g)
    assert alpha**2 + beta**2 == pytest.approx(energy**2, abs=1e-10)
    assert 0.0 <= energy <= 2.0 + 1e-12


_MODE = st.tuples(
    st.floats(min_value=0.0, max_value=np.pi, exclude_min=True, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=200, deadline=None)
@given(modes=st.lists(_MODE, min_size=1, max_size=8))
@example(modes=[(np.pi / 1024, 1.0)])
def test_bogoliubov_pair_identities(modes):
    # at the energy E = |alpha + i beta| of each (ka, g), the pair is the
    # rotation that diagonalizes alpha sz + beta sx: u^2 + v^2 = 1,
    # 2E u v = beta and E (u^2 - v^2) = alpha, with u >= 0; g = 1 at small
    # ka is alpha -> -E, where u^2 = (E + alpha)/2E cancels
    ka, g = np.array(modes).T
    alpha, beta = _alpha_beta(ka, g)
    energy = np.hypot(alpha, beta)
    degenerate = np.sqrt(2.0 * energy * (energy + np.abs(alpha))) < ising.DEGENERATE_NORM_THRESHOLD
    for k, gg, e in zip(ka[degenerate], g[degenerate], energy[degenerate]):
        with pytest.raises(ValueError):
            ising.bogoliubov_pair(k, gg, e)
    ka, g, alpha, beta, energy = (x[~degenerate] for x in (ka, g, alpha, beta, energy))
    if not ka.size:
        return
    u, v = ising.bogoliubov_pair(ka, g, energy)
    assert np.all(u >= 0.0)
    np.testing.assert_allclose(u**2 + v**2, 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(2.0 * energy * u * v, beta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(energy * (u**2 - v**2), alpha, rtol=0, atol=1e-12)
    # an array call is the per-element calls, bit for bit
    single = np.array([ising.bogoliubov_pair(*x) for x in zip(ka, g, energy)], dtype=float)
    assert single[:, 0].tobytes() == u.tobytes() and single[:, 1].tobytes() == v.tobytes()


def test_bogoliubov_pair_broadcasts_modes_against_couplings():
    ka = np.pi * np.arange(1, 16, 2)[:, None] / 16
    g = np.linspace(0.0, 1.0, 11)
    u, v = ising.bogoliubov_pair(ka, g, ising.dispersion(ka, g))
    assert u.shape == v.shape == (8, 11)
    for i in range(8):
        row = ising.bogoliubov_pair(ka[i, 0], g, ising.dispersion(ka[i, 0], g))
        assert row[0].tobytes() == u[i].tobytes() and row[1].tobytes() == v[i].tobytes()


@pytest.mark.parametrize("g", [0.0, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("ka", [np.pi / 1024, -np.pi / 1024, 0.7, np.pi])
def test_pair_is_the_eigenvector_of_the_propagated_row(ka, g):
    # the pair of bogoliubov_pair and the row that the propagators integrate
    # write the mode twice: (u, v) is the eigenvector of [[a, b], [b, -a]]
    # with eigenvalue E, up to the rounding of a = a0 + a1 g
    energy = ising.dispersion(ka, g)
    pair = np.array(ising.bogoliubov_pair(ka, g, energy))
    a0, a1, b0, b1 = ising._mode_coefficients(ka)
    a, b = a0 + a1 * g, b0 + b1 * g
    residual = np.array([[a, b], [b, -a]]) @ pair - energy * pair
    assert np.max(np.abs(residual)) <= 4.0 * np.finfo(float).eps * (abs(a0) + abs(a1))


def test_degenerate_normalization_raises():
    # at g=1/2 and ka -> 0 the quasi-particle branch touches zero
    with pytest.raises(ValueError):
        ising.bogoliubov_pair(1e-12, 0.5, ising.dispersion(1e-12, 0.5))


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
    # one gap formula: the global minimum is the fundamental gap at g = 1/2,
    # bit for bit, and is 4 sin(pi/2N) to the last bit
    for n in range(2, 8193, 2):
        chain = ising.ChainParams(n)
        assert ising.global_min_gap(chain) == ising.min_gap(chain, 0.5) == 4.0 * np.sin(np.pi / (2.0 * n))
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
    u, v = rk4_mode(np.linspace(0.0, 1.0, 2 * steps + 1), ising._mode_coefficients(np.pi / 8), 40.0 / steps)
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


@pytest.mark.parametrize("n", [16, 256])
def test_bogoliubov_pair_is_exact_at_g_zero(n):
    # every schedule starts at g = 0, where the ground pair is (1, 0) exactly;
    # also as one column of a block of couplings, as the amplitudes call it
    ka = ising.momentum_grid(ising.ChainParams(n))
    u, v = ising.bogoliubov_pair(ka, 0.0, ising.dispersion(ka, 0.0))
    assert u.tolist() == [1.0] * n and v.tolist() == [0.0] * n
    g = np.array([0.0, 0.2, 0.25, 0.7])
    u, v = ising.bogoliubov_pair(ka[:, None], g, ising.dispersion(ka[:, None], g))
    assert u[:, 0].tolist() == [1.0] * n and v[:, 0].tolist() == [0.0] * n
    assert_allclose(u**2 + v**2, 1.0, rtol=0, atol=4 * np.finfo(float).eps)


def test_explicit_steps_keep_the_fixed_pair():
    # steps=2048 and its half grid, 1024, against values recorded before the
    # certified doubling; both fit one Magnus block, where the renormalised
    # carry changes nothing.  Every mode starts from the exact pair (1, 0) at
    # g = 0 (see test_bogoliubov_pair_is_exact_at_g_zero).  norm_defect
    # was re-recorded when each block's product became a pairwise tree: it is
    # the largest defect of the tree's nodes and of the state at the block
    # ends, no longer of the state after every step (u, v did not move)
    sched = schedules.make_schedule("gap_adapted", 30.0, n_spins=16)
    ka = np.array([np.pi / 16, 3 * np.pi / 16, 7 * np.pi / 16])
    end = ising.integrate_bogoliubov(ka, sched, steps=2048)
    assert end.u.tolist() == [
        (0.21958145000488974-0.08925707591519977j), (0.025501383521483303-0.28999124090448364j),
        (-0.24360144006513174+0.5925963100570504j)]
    assert end.v.tolist() == [
        (0.35006007310533993-0.9062423000667756j), (0.037018535416757425-0.9559730057238867j),
        (-0.26093567104220416+0.7220806930549418j)]
    assert end.norm_defect.tolist() == [1.7319479184152442e-14, 5.218048215738236e-15, 1.199040866595169e-14]
    assert end.endpoint_error.tolist() == [
        1.4420573021244102e-09, 4.246397202849734e-09, 8.213796901823625e-09]
    assert end.n_grid.tolist() == [2048] * 3


def test_certified_vector_ka_matches_scalar_calls_bitwise():
    # the modes stop on different grids, and each mode's result does not
    # depend on which modes share the call
    sched = schedules.make_schedule("linear", 20.0)
    ka = np.array([np.pi / 16, 3 * np.pi / 16, 7 * np.pi / 16, -2.5, np.pi])
    end = ising.integrate_bogoliubov(ka, sched)
    assert len(set(end.n_grid.tolist())) > 1
    assert np.all(end.endpoint_error < ising.ENDPOINT_TOL)
    for i, k in enumerate(ka):
        one = ising.integrate_bogoliubov(k, sched)
        assert isinstance(one.n_grid, int)
        assert (one.u, one.v, one.norm_defect, one.endpoint_error, one.n_grid) == (
            end.u[i], end.v[i], end.norm_defect[i], end.endpoint_error[i], end.n_grid[i])
        pair = ising.integrate_bogoliubov(ka[[i, -1 - i]], sched)
        assert (pair.u[0], pair.v[0], pair.n_grid[0]) == (end.u[i], end.v[i], end.n_grid[i])


@pytest.mark.parametrize("kind,total_time,ka", [
    ("linear", 20.0, [np.pi / 64, 3 * np.pi / 64, 5 * np.pi / 64]),
    ("linear", 100.0, [np.pi / 64, 3 * np.pi / 64, 5 * np.pi / 64]),
    ("gap_adapted", 50.0, [np.pi / 64]),
])
def test_certified_grids_are_in_the_fourth_order_regime(kind, total_time, ka):
    # two grids can agree by chance; on a certified grid n the difference
    # n/4 -> n/2 must exceed the certified one n/2 -> n by 8x or more (16x for
    # a fourth-order method), and the certified grid is the one reported
    sched = schedules.make_schedule(kind, total_time, n_spins=64)
    end = ising.integrate_bogoliubov(np.array(ka), sched)
    assert np.all(end.endpoint_error < ising.ENDPOINT_TOL)
    assert np.all(end.norm_defect < 1e-12)
    g_start = float(sched.g_of(0.0))
    for i, k in enumerate(ka):
        n = int(end.n_grid[i])
        assert n % 4 == 0 and n <= ising._default_steps(total_time)
        mode = np.array([k])
        row = ising._mode_coefficients(mode), *ising.bogoliubov_pair(mode, g_start, ising.dispersion(mode, g_start))
        u, v, _ = zip(*(ising._propagate(*row, sched, m) for m in (n, n // 2, n // 4)))
        assert (u[0][0], v[0][0]) == (end.u[i], end.v[i])
        last = abs(u[0][0] - u[1][0]) + abs(v[0][0] - v[1][0])
        before = abs(u[1][0] - u[2][0]) + abs(v[1][0] - v[2][0])
        assert last == pytest.approx(end.endpoint_error[i], rel=1e-12)
        assert before >= 8.0 * last


@pytest.mark.parametrize("total_time", [200.0, 800.0])
@pytest.mark.parametrize("ka", [np.pi / 256, np.pi / 128, 3 * np.pi / 128])
def test_linear_sweep_excitation_is_landau_zener(total_time, ka):
    # a linear sweep through g = 1/2 excites mode ka with the Landau-Zener
    # probability exp(-pi T (ka)^2 / 4) (Dziarmaga, PRL 95, 245701 (2005)),
    # up to corrections that the sweep's finite start and end leave
    p = ising.excitation_probability_mode(ka, schedules.make_schedule("linear", total_time))
    assert abs(p - np.exp(-np.pi * total_time * ka**2 / 4.0)) < 5e-5


@pytest.mark.parametrize("total_time,tol", [(25.0, 2e-3), (100.0, 2e-4), (400.0, 2e-4)])
def test_linear_sweep_density_is_kibble_zurek(total_time, tol):
    # summed over the chain, the Landau-Zener probabilities give the density
    # of excited modes n = (2/N) sum_{k>0} p_k -> 1/(pi sqrt(T)) (Dziarmaga,
    # PRL 95, 245701 (2005); Zurek, Dorner & Zoller, PRL 95, 105701 (2005))
    n_spins = 256
    ka = ising.momentum_grid(ising.ChainParams(n_spins))
    end = ising.integrate_bogoliubov(ka[ka > 0], schedules.make_schedule("linear", total_time))
    assert np.all(end.endpoint_error < ising.ENDPOINT_TOL)
    density = 2.0 / n_spins * np.sum(end.excitation_probability())
    assert abs(density * np.pi * np.sqrt(total_time) - 1.0) < tol


def test_frozen_schedule_no_excitation():
    # at constant g the ground pair only gathers a phase
    p = ising.excitation_probability_mode(np.pi / 8, ConstantG(10.0, 0.3))
    assert p < 1e-10


def test_excitation_probability_decreases_with_t():
    ps = [
        ising.excitation_probability_mode(np.pi / 16, schedules.make_schedule("linear", T))
        for T in (20.0, 80.0, 320.0)
    ]
    assert ps[0] > ps[1] > ps[2]


def test_domain_errors():
    with pytest.raises(ValueError):
        ising.dispersion(0.5, 1.5)
    with pytest.raises(ValueError):
        ising.dispersion(4.0, 0.5)

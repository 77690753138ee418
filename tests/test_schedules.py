import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from qptsweep import ising, schedules
from qptsweep._kernels import cumulative_simpson_uniform


@pytest.mark.parametrize("kind", ["linear", "gap_adapted", "gap_squared_adapted"])
def test_boundary_conditions(kind):
    sched = schedules.make_schedule(kind, 25.0, n_spins=16)
    assert sched.g_of(0.0) == pytest.approx(0.0, abs=1e-12)
    assert sched.g_of(25.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["linear", "gap_adapted", "gap_squared_adapted"])
def test_monotone_gdot_positive(kind):
    sched = schedules.make_schedule(kind, 10.0, n_spins=16)
    t = np.linspace(0.0, 10.0, 4096)
    g = sched.g_of(t)
    assert np.all(np.diff(g) > 0.0)
    assert np.all(np.asarray(sched.gdot_of(t)) > 0.0)


def test_linear_examples():
    sched = schedules.make_schedule("linear", 10.0)
    assert sched.g_of(5.0) == pytest.approx(0.5)
    assert sched.gdot_of(3.3) == pytest.approx(0.1)
    assert sched.invert(0.25) == pytest.approx(2.5)


def test_gap_adapted_symmetry():
    # gap symmetric under g <-> 1-g forces g(T/2) = 1/2
    sched = schedules.make_schedule("gap_adapted", 1.0, n_spins=16)
    assert sched.g_of(0.5) == pytest.approx(0.5, abs=1e-9)


def test_gap_squared_adapted_min_rate_at_midpoint():
    sched = schedules.make_schedule("gap_squared_adapted", 30.0, n_spins=16)
    t = np.linspace(0.0, 30.0, 2001)
    gdot = np.asarray(sched.gdot_of(t))
    assert abs(t[np.argmin(gdot)] - 15.0) < 0.1
    gap_min = ising.min_gap(ising.ChainParams(16), 0.5)
    assert gdot.min() == pytest.approx(sched._c * gap_min**2, rel=1e-6)


@pytest.mark.parametrize("kind,p", [("gap_adapted", 1), ("gap_squared_adapted", 2)])
def test_adapted_defining_relation(kind, p):
    sched = schedules.make_schedule(kind, 12.0, n_spins=32)
    t = np.linspace(0.0, 12.0, 4096)
    ratio = np.asarray(sched.gdot_of(t)) / ising.min_gap(ising.ChainParams(32), sched.g_of(t)) ** p
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-6


@pytest.mark.parametrize("kind", ["linear", "gap_adapted", "gap_squared_adapted"])
def test_invert_roundtrip(kind):
    sched = schedules.make_schedule(kind, 7.0, n_spins=16)
    t = np.linspace(0.0, 7.0, 301)
    back = np.asarray(sched.invert(np.asarray(sched.g_of(t))))
    assert np.max(np.abs(back - t)) < 1e-8 * 7.0


def test_phase_integral_frozen():
    sched = schedules.make_schedule("frozen", 9.0, g_frozen=0.0)
    assert sched.phase_integral(np.pi / 3, 9.0) == pytest.approx(18.0, rel=1e-10)


def test_phase_integral_grid_stability():
    sched = schedules.make_schedule("linear", 1.0)
    t = np.linspace(0.0, 1.0, 50)
    phi = np.asarray(sched.phase_integral(np.pi / 2, t))
    assert np.all(np.diff(phi) > 0.0)


def test_runtime_ordering_at_fixed_time():
    # adapted schedules excite less at equal T, so they need shorter runs
    ps = []
    for kind in ("linear", "gap_adapted", "gap_squared_adapted"):
        sched = schedules.make_schedule(kind, 50.0, n_spins=32)
        ps.append(ising.excitation_probability_mode(np.pi / 32, sched))
    assert ps[0] > ps[1] > ps[2]


def test_validation_errors():
    with pytest.raises(ValueError):
        schedules.make_schedule("cubic", 1.0)
    with pytest.raises(ValueError):
        schedules.make_schedule("linear", -1.0)
    with pytest.raises(ValueError):
        schedules.make_schedule("gap_adapted", 1.0)  # missing n_spins
    with pytest.raises(ValueError):
        schedules.make_schedule("frozen", 1.0)  # missing g_frozen
    sched = schedules.make_schedule("linear", 1.0)
    with pytest.raises(ValueError):
        sched.g_of(2.0)
    with pytest.raises(ValueError):
        sched.invert(1.5)
    frozen = schedules.make_schedule("frozen", 1.0, g_frozen=0.5)
    with pytest.raises(ValueError):
        frozen.invert(0.5)


def simpson_table(kind, T, n_spins, points):
    """Brute-force oracle: (g, t) nodes of an adapted schedule.

    Integrates dt/dg = 1 / (c * gap(g)^p) by cumulative Simpson on a uniform
    g grid and fixes c by g(T) = 1 (the tabulation the closed form replaced).
    """
    p = 1 if kind == "gap_adapted" else 2
    g = np.linspace(0.0, 1.0, points)
    inv = ising.min_gap(ising.ChainParams(n_spins), g) ** (-p)
    cum = cumulative_simpson_uniform(inv, g[1] - g[0])
    t = cum / (cum[-1] / T)
    t[0], t[-1] = 0.0, T
    return g, t


def test_closed_form_matches_simpson_oracle():
    # the oracle on 2^17+1 nodes is itself good to 3e-8*T in t and 7e-11 in g;
    # the old 8193-point table misses both bounds at N=1024 (1.2e-5*T and
    # 1.8e-7 for gap_adapted, 1.0e-4*T and 3.5e-7 for gap_squared_adapted)
    T = 3.0
    for kind in ("gap_adapted", "gap_squared_adapted"):
        for n in (8, 64, 1024):
            sched = schedules.make_schedule(kind, T, n_spins=n)
            g, t = simpson_table(kind, T, n, 2**17 + 1)
            assert np.max(np.abs(sched.invert(g) - t)) < 1e-7 * T
            assert np.max(np.abs(sched.g_of(t) - g)) < 1e-9
            if n == 1024:
                g_old, t_old = simpson_table(kind, T, n, 8193)
                assert np.max(np.abs(t_old - t[::16])) > 1e-7 * T
                old_g = PchipInterpolator(t_old, g_old)(t)
                assert np.max(np.abs(old_g - g)) > 1e-9


_kinds = st.sampled_from(["linear", "gap_adapted", "gap_squared_adapted"])
_n_spins = st.integers(1, 2048).map(lambda m: 2 * m)
_run_time = st.floats(1e-2, 1e6)
# fractions of T (or of the g range) that reach the ends and the midpoint closely
_fraction = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(-16.0, 0.0).map(lambda e: 10.0**e),
    st.floats(-16.0, 0.0).map(lambda e: 1.0 - 10.0**e),
    st.floats(-1e-3, 1e-3).map(lambda d: 0.5 + d),
)


@settings(max_examples=300, deadline=None)
@given(kind=_kinds, n=_n_spins, T=_run_time, fractions=st.lists(_fraction, min_size=1, max_size=8))
def test_schedule_inverse_property(kind, n, T, fractions):
    sched = schedules.make_schedule(kind, T, n_spins=n)
    frac = np.asarray(fractions)
    assert sched.g_of(0.0) == 0.0 and sched.g_of(T) == 1.0
    assert sched.invert(0.0) == 0.0 and sched.invert(1.0) == T
    t = frac * T
    assert np.max(np.abs(sched.invert(sched.g_of(t)) - t)) <= 1e-12 * T
    # g(t(g)) carries t's rounding times the slope dg/d(t/T), which reaches ~N
    # at the ends of gap_squared_adapted
    back = sched.g_of(sched.invert(frac))
    slope = T * np.asarray(sched.gdot_of(sched.invert(frac)))
    assert np.all(np.abs(back - frac) <= 4.0 * np.finfo(float).eps * (1.0 + slope))


@settings(max_examples=200, deadline=None)
@given(kind=_kinds, n=_n_spins, T=_run_time, frac=st.floats(1e-3, 1.0 - 1e-3))
def test_gdot_property(kind, n, T, frac):
    sched = schedules.make_schedule(kind, T, n_spins=n)
    p = {"linear": 0, "gap_adapted": 1, "gap_squared_adapted": 2}[kind]
    t = np.linspace(0.0, T, 33)
    ratio = np.asarray(sched.gdot_of(t)) / ising.min_gap(ising.ChainParams(n), sched.g_of(t)) ** p
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) <= 1e-13
    # dg/dt is the derivative of g(t): central difference, step h = T/2^20
    h = T * 2.0**-20
    t0 = frac * T
    fd = (sched.g_of(t0 + h) - sched.g_of(t0 - h)) / (2.0 * h)
    assert fd == pytest.approx(sched.gdot_of(t0), rel=1e-6)


@pytest.mark.parametrize("ka", [0.0, np.pi / 64, np.pi / 2, np.pi])
def test_linear_phase_closed_form_matches_simpson(ka):
    T = 37.0
    sched = schedules.make_schedule("linear", T)
    t = np.linspace(0.0, T, 2**16 + 1)
    oracle = cumulative_simpson_uniform(ising.dispersion(np.full(t.size, ka), t / T), t[1] - t[0])
    # at ka = 0 the energy 4c|g - 1/2| has a kink at g = 1/2, where the
    # oracle's parabola rule spans it once with an O(h^2) error
    tol = 1e-12 + (2.0**-16) ** 2 * (ka == 0.0)
    assert np.max(np.abs(sched.phase_integral(ka, t) - oracle)) <= tol * T
    assert sched.phase_integral(ka, 0.0) == 0.0


def _simpson_from_nodes(sched, ka, a, b, points=129):
    """int_a^b E_k(g(t)) dt per pair of rows of a and b, by a fine Simpson rule."""
    sub = a[:, None] + np.linspace(0.0, 1.0, points) * (b - a)[:, None]
    e = ising.dispersion(np.full(sub.size, ka), sched.g_of(sub.ravel())).reshape(sub.shape)
    weights = np.where(np.arange(points) % 2, 4.0, 2.0)
    weights[0] = weights[-1] = 1.0
    return (b - a) / (3.0 * (points - 1)) * (e @ weights)


@pytest.mark.parametrize("nodes", [257, 16385])
@pytest.mark.parametrize("kind", ["gap_adapted", "gap_squared_adapted"])
def test_hermite_phase_against_pchip_oracle(kind, nodes):
    T, n = 50.0, 64
    ka = np.pi / n
    sched = schedules.make_schedule(kind, T, n_spins=n)
    t_grid = np.linspace(0.0, T, nodes)
    energy = ising.dispersion(np.full(nodes, ka), sched.g_of(t_grid))
    cum = cumulative_simpson_uniform(energy, t_grid[1] - t_grid[0])
    rng = np.random.default_rng(3)
    i = rng.integers(0, nodes - 1, 200)
    t = t_grid[i] + rng.uniform(0.05, 0.95, 200) * (t_grid[1] - t_grid[0])
    if nodes == schedules._PHASE_POINTS:  # the table phase_integral builds
        assert np.array_equal(sched.phase_integral(ka, t_grid), cum)
        herm = sched.phase_integral(ka, t)
    else:
        herm = schedules._hermite(t_grid, cum, energy, t)
    # the interpolant adds less error than the node values carry: the
    # Simpson rule's own error over one node interval
    exact = cum[i] + _simpson_from_nodes(sched, ka, t_grid[i], t)
    node_err = np.max(np.abs(cum[i + 1] - cum[i] - _simpson_from_nodes(sched, ka, t_grid[i], t_grid[i + 1])))
    assert np.max(np.abs(herm - exact)) <= node_err
    if nodes == 16385:  # the default table: PCHIP and Hermite agree to 1e-9 of the phase
        pchip = PchipInterpolator(t_grid, cum)(t)
        assert np.max(np.abs(herm - pchip)) <= 1e-9 * cum[-1]

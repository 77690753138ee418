import numpy as np
import pytest
from numpy.testing import assert_allclose

from qptsweep import ising, schedules


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
    a = sched.phase_integral(np.pi / 2, 1.0, n_points=16385)
    b = sched.phase_integral(np.pi / 2, 1.0, n_points=32769)
    assert abs(a - b) < 1e-10
    t = np.linspace(0.0, 1.0, 50)
    phi = np.asarray(sched.phase_integral(np.pi / 2, t))
    assert np.all(np.diff(phi) > 0.0)


def test_runtime_estimate_scalings():
    # ising quadratic growth, grover one bit per qubit
    r = [schedules.runtime_estimate("ising", n) for n in (64, 128, 256)]
    assert r[1] / r[0] == pytest.approx(4.0, rel=0.01)
    assert r[2] / r[1] == pytest.approx(4.0, rel=0.005)
    lg = [np.log2(schedules.runtime_estimate("grover", n)) for n in (10, 11, 12)]
    assert lg[1] - lg[0] == pytest.approx(1.0)
    assert schedules.runtime_estimate("ising", 4) == pytest.approx(
        1.0 / (4.0 * np.sin(np.pi / 8.0)) ** 2
    )


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


def test_tabulation_density():
    sched = schedules.make_schedule("gap_adapted", 5.0, n_spins=8)
    assert len(sched.t_tab) >= 4096
    assert_allclose(sched.g_tab[0], 0.0)
    assert_allclose(sched.g_tab[-1], 1.0)

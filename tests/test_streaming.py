"""The streamed amplitudes against their whole-grid forms.

Every oscillatory amplitude of ``response`` and ``grover`` is evaluated by
``_kernels.stream_filon`` block by block.  The whole-grid evaluations they
replaced live here as the oracle: one ``linspace`` grid, one cumulative
Simpson phase and one Filon call per evaluation.
"""

import tracemalloc

import numpy as np
import pytest

from qptsweep import _kernels, grover, response, schedules
from qptsweep._kernels import _QUAD_BLOCK, cumulative_simpson_uniform, filon_integral
from qptsweep.ising import bogoliubov_pair, dispersion

GRID_SIZES = [4096, _QUAD_BLOCK, _QUAD_BLOCK + 1, 3 * _QUAD_BLOCK + 517]
SCHEDULES = [("linear", None), ("gap_adapted", 64)]


def _time_grid(schedule, ka, omega, n):
    t = np.linspace(0.0, schedule.T, n + 1)
    g = np.asarray(schedule.g_of(t), dtype=float)
    energy = dispersion(np.full(n + 1, float(ka)), g)
    phase = -omega * t + 2.0 * cumulative_simpson_uniform(energy, t[1] - t[0])
    return t, g, energy, phase


def oracle_uniform(ka, omega, schedule, n):
    t, g, energy, phase = _time_grid(schedule, ka, omega, n)
    env = 2.0 * g * np.sin(ka) / energy
    return filon_integral(env, phase, t[1] - t[0]), env, t[1] - t[0]


def oracle_nonuniform(ka, kpa, omega, n_spins, schedule, n):
    t, g, e_k, phase = _time_grid(schedule, ka, omega, n)
    e_kp = dispersion(np.full(n + 1, float(kpa)), g)
    # 2 u_k v_k'/N
    env = 2.0 * bogoliubov_pair(ka, g, e_k)[0] * bogoliubov_pair(kpa, g, e_kp)[1] / n_spins
    return filon_integral(env, phase, t[1] - t[0]), env, t[1] - t[0]


def oracle_bitflip_a1(ka, omega, schedule, n):
    t = np.linspace(0.0, schedule.T, n + 1)
    g = np.asarray(schedule.g_of(t), dtype=float)
    energy = dispersion(np.full(n + 1, float(ka)), g)
    env = bogoliubov_pair(ka, g, energy)[1]  # v_k
    return filon_integral(env, -omega * t, t[1] - t[0]), env, t[1] - t[0]


def oracle_bitflip_a2(ka, omega, schedule, n):
    t, g, energy, phase = _time_grid(schedule, ka, omega, n)
    env = bogoliubov_pair(ka, g, energy)[0]  # u_k
    return filon_integral(env, phase, t[1] - t[0]), env, t[1] - t[0]


def oracle_grover(params, omega, n):
    t = np.linspace(0.0, params.schedule.T, n + 1)
    g = np.asarray(params.schedule.g_of(t), dtype=float)
    gap = grover.grover_gap(g, params.dim)
    cum = cumulative_simpson_uniform(gap, t[1] - t[0])
    env = -(1.0 - g) / (np.sqrt(params.dim) * gap)
    return filon_integral(env, omega * t + cum, t[1] - t[0]), env, t[1] - t[0]


def grid_evaluations(monkeypatch, call):
    """The evaluations on n intervals that ``call`` hands to ``refine``
    through ``filon_refined``, each as a function of n alone
    (its one element).  Other ``refine`` runs, such as the ``nested_simpson``
    of a phase-free bound, go through unchanged."""
    seen = []
    refine = _kernels.refine

    def capture(eval_at, n0, rel_tol, n_max):
        if not eval_at.__qualname__.startswith("filon_refined."):
            return refine(eval_at, n0, rel_tol, n_max)
        seen.append(lambda n: eval_at(n, slice(None))[0])
        return np.zeros(1, dtype=complex), np.zeros(1), np.ones(1, dtype=bool)

    monkeypatch.setattr(_kernels, "refine", capture)
    call()
    return seen


def assert_streamed_matches(got, oracle, n):
    # the same node values and phase; only the association of the segment
    # sum differs between blocks
    want, env, dt = oracle
    blocks = max(1, -(-(n - 1) // _QUAD_BLOCK))
    assert abs(got - want) <= 8.0 * blocks * np.finfo(float).eps * dt * np.sum(np.abs(env))


def make(kind, n_spins, T):
    return schedules.make_schedule(kind, T, n_spins=n_spins)


@pytest.mark.parametrize("n", GRID_SIZES)
@pytest.mark.parametrize("kind,n_spins", SCHEDULES)
def test_uniform_amplitude_streams_the_whole_grid_rule(monkeypatch, kind, n_spins, n):
    ka, omega, sched = np.pi / 64, 0.4, make(kind, n_spins, 500.0)
    (eval_at,) = grid_evaluations(monkeypatch, lambda: response.amplitude_direct_uniform(ka, omega, sched))
    assert_streamed_matches(eval_at(n), oracle_uniform(ka, omega, sched, n), n)


@pytest.mark.parametrize("n", GRID_SIZES)
@pytest.mark.parametrize("kind,n_spins", SCHEDULES)
def test_nonuniform_amplitude_streams_the_whole_grid_rule(monkeypatch, kind, n_spins, n):
    ka, kpa, omega, sched = np.pi / 64, 3 * np.pi / 64, 0.08, make(kind, n_spins, 500.0)
    (eval_at,) = grid_evaluations(monkeypatch, lambda: response.amplitude_direct_nonuniform(
        ka, kpa, omega, 64, sched))
    want = oracle_nonuniform(ka, kpa, omega, 64, sched, n)
    assert_streamed_matches(eval_at(n), want, n)


@pytest.mark.parametrize("n", GRID_SIZES)
@pytest.mark.parametrize("kind,n_spins", SCHEDULES)
def test_bitflip_amplitudes_stream_the_whole_grid_rule(monkeypatch, kind, n_spins, n):
    ka, omega, sched = np.pi / 64, -0.2, make(kind, n_spins, 500.0)
    eval_a1, eval_a2 = grid_evaluations(monkeypatch, lambda: response.amplitude_bitflip(ka, omega, sched))
    assert_streamed_matches(eval_a1(n), oracle_bitflip_a1(ka, omega, sched, n), n)
    assert_streamed_matches(eval_a2(n), oracle_bitflip_a2(ka, omega, sched, n), n)


@pytest.mark.parametrize("n", GRID_SIZES)
def test_grover_amplitude_streams_the_whole_grid_rule(monkeypatch, n):
    params = grover.GroverParams(n_qubits=8, coupling=0.01, schedule=make("linear", None, 500.0))
    (eval_at,) = grid_evaluations(monkeypatch, lambda: grover.amplitude_omega(params, 0.5))
    assert_streamed_matches(eval_at(n), oracle_grover(params, 0.5, n), n)


def test_streamed_evaluation_memory_does_not_grow_with_the_grid(monkeypatch):
    # the whole-grid form peaked at about 135 MB here (some twenty arrays of
    # 2^20 doubles); the streamed one holds a block's arrays at a time
    ka, omega, sched = np.pi / 256, -0.4, make("linear", None, 5000.0)
    (eval_at,) = grid_evaluations(monkeypatch, lambda: response.amplitude_direct_uniform(ka, omega, sched))
    tracemalloc.start()
    try:
        eval_at(2**20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_benchmark_lookup_sites_stay(monkeypatch):
    # perfbench/layers.py wraps these names where the amplitudes look them
    # up, so the streamed quadrature must call Filon through the module
    # attribute of response and grover
    for name in ("filon_integral", "cumulative_simpson_uniform", "integrate_abs",
                 "amplitude_direct_uniform", "amplitude_direct_nonuniform", "amplitude_bitflip",
                 "amplitude_bound_near_gap", "amplitude_saddle_uniform", "total_error"):
        assert callable(getattr(response, name))
    for name in ("filon_integral", "cumulative_simpson_uniform", "amplitude_omega", "bath_evaluate"):
        assert callable(getattr(grover, name))

    calls = []
    for module in (response, grover):
        def counting(env, phase, dt, _inner=module.filon_integral, _name=module.__name__):
            calls.append(_name)
            return _inner(env, phase, dt)

        monkeypatch.setattr(module, "filon_integral", counting)
    sched = make("linear", None, 5.0)
    response.amplitude_direct_uniform(0.4, 0.5, sched)
    response.amplitude_direct_nonuniform(0.4, 0.8, 0.5, 16, sched)
    response.amplitude_bitflip(0.4, 0.5, sched)
    grover.amplitude_omega(grover.GroverParams(n_qubits=4, coupling=0.01, schedule=sched), 0.5)
    # two grids of one block each per amplitude, the bitflip pair counting twice
    assert calls == ["qptsweep.response"] * 8 + ["qptsweep.grover"] * 2

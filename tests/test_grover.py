import numpy as np
import pytest

from qptsweep import bath, exact, grover, schedules


def params(n=8, coupling=0.01, T=50.0, sf=None):
    return grover.GroverParams(
        n_qubits=n, coupling=coupling,
        schedule=schedules.make_schedule("linear", T),
        spectral_function=sf,
    )


def test_gap_known_values():
    assert grover.grover_gap(0.0, 1024) == pytest.approx(1.0)
    assert grover.grover_gap(1.0, 1024) == pytest.approx(1.0)
    assert grover.grover_gap(0.5, 16) == pytest.approx(0.25)
    g = np.linspace(0.0, 1.0, 101)
    vals = grover.grover_gap(g, 64)
    assert vals.min() == pytest.approx(1.0 / np.sqrt(64))
    assert g[np.argmin(vals)] == pytest.approx(0.5)


def test_gap_matches_exact_diagonalization():
    for n in (2, 3, 4):
        for g in np.linspace(0.0, 1.0, 21):
            levels = exact.low_spectrum(exact.build_hamiltonian("grover", n, float(g)), 2).eigenvalues
            got = levels[1] - levels[0]
            assert got == pytest.approx(grover.grover_gap(float(g), 2**n), abs=1e-10)


def test_gap_validation():
    with pytest.raises(ValueError):
        grover.grover_gap(1.2, 16)
    with pytest.raises(ValueError):
        grover.grover_gap(0.5, 1)


def test_coupling_warning():
    with pytest.warns(UserWarning):
        params(coupling=0.2)


def test_error_probability_needs_a_dirac_comb():
    for sf in (None, bath.load_tabulated([(0.0, 0.0), (1.0, 0.0)])):
        with pytest.raises(ValueError):
            grover.error_probability(params(sf=sf))


def test_positive_frequency_suppressed_vs_gap_probe():
    n, T = 6, 300.0
    gap_min = 2.0 ** (-n / 2)
    hot = params(n=n, T=T, sf=bath.dirac_probe(0.8, 1.0))
    res = params(n=n, T=T, sf=bath.dirac_probe(-gap_min, 1.0))
    assert grover.error_probability(res) / grover.error_probability(hot) >= 10.0


def test_error_probability_linear_in_f():
    n, T = 5, 80.0
    p1 = params(n=n, T=T, sf=bath.dirac_probe(-0.3, 1.0))
    p2 = params(n=n, T=T, sf=bath.dirac_probe(0.2, 2.0))
    p12 = params(n=n, T=T, sf=bath.dirac_probe([-0.3, 0.2], [1.0, 2.0]))
    total = grover.error_probability(p1) + grover.error_probability(p2)
    assert grover.error_probability(p12) == pytest.approx(total, rel=1e-9)


def test_error_estimate_examples():
    # f(w) = w (ohmic, no cutoff): estimate = lambda^2, independent of D
    sf = bath.SpectralFunction(kind="thermal_bosonic", theta=0.5, epsilon=1.0)
    vals = [grover.error_estimate(params(n=n, sf=sf)) for n in (6, 10, 14)]
    assert np.allclose(vals, 0.01**2)
    # f = const: estimate grows like sqrt(D)
    flat = bath.SpectralFunction(kind="thermal_bosonic", theta=0.5, epsilon=0.0)
    v6 = grover.error_estimate(params(n=6, sf=flat))
    v8 = grover.error_estimate(params(n=8, sf=flat))
    assert v8 / v6 == pytest.approx(2.0, rel=1e-10)
    # lambda = 0
    assert grover.error_estimate(params(coupling=0.0, sf=flat)) == 0.0


def test_scalability_dichotomy_slopes():
    for eta in (0.0, 0.5, 1.0, 2.0):
        sf = bath.SpectralFunction(kind="thermal_bosonic", theta=0.5, epsilon=eta)
        ests, dims = [], []
        for n in (6, 8, 10, 12):
            ests.append(grover.error_estimate(params(n=n, sf=sf)))
            dims.append(2.0**n)
        slope = np.polyfit(np.log(dims), np.log(ests), 1)[0]
        assert abs(slope - (1.0 - eta) / 2.0) < 0.05

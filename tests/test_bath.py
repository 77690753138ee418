import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from qptsweep import bath


def ohmic(beta=np.inf, omega_c=np.inf, theta=0.5, eps=1.0):
    return bath.SpectralFunction(
        kind="thermal_bosonic", theta=theta, omega_ph=1.0, epsilon=eps,
        omega_c=omega_c, beta=beta,
    )


def test_spectral_density_hand_values():
    sf = ohmic()
    assert bath.spectral_density(sf, 2.0) == pytest.approx(2.0)
    assert bath.spectral_density(sf, 0.0) == 0.0
    flat = ohmic(eps=0.0)
    assert bath.spectral_density(flat, 0.0) == pytest.approx(2.0 * 0.5 * 1.0)
    with pytest.raises(ValueError):
        bath.spectral_density(sf, -1.0)


def test_zero_temperature_absorbs_only():
    sf = ohmic(beta=np.inf)
    assert bath.evaluate(sf, -0.4) == 0.0
    assert bath.evaluate(sf, 0.4) == pytest.approx(bath.spectral_density(sf, 0.4))


def test_classical_limit_at_zero_frequency():
    # ohmic, theta=1/2, beta=1: f(w -> 0) -> 2*theta/beta = 1
    sf = ohmic(beta=1.0)
    assert bath.evaluate(sf, 0.0) == pytest.approx(1.0)
    assert bath.evaluate(sf, 1e-8) == pytest.approx(1.0, rel=1e-6)


def test_subohmic_divergence_is_an_error():
    sf = ohmic(beta=2.0, eps=0.5)
    with pytest.raises(ValueError):
        bath.evaluate(sf, 0.0)
    # away from zero it is finite
    assert np.isfinite(bath.evaluate(sf, 0.01))


@settings(max_examples=100, deadline=None)
@given(
    omega=st.floats(min_value=0.01, max_value=5.0),
    beta=st.floats(min_value=0.1, max_value=50.0),
)
def test_detailed_balance(omega, beta):
    sf = ohmic(beta=beta, omega_c=3.0)
    ratio = bath.evaluate(sf, -omega) / bath.evaluate(sf, omega)
    assert ratio == pytest.approx(np.exp(-beta * omega), rel=1e-12)


def test_nonnegativity_sampled():
    rng = np.random.default_rng(11)
    sf = ohmic(beta=5.0, omega_c=2.0)
    w = rng.uniform(-10.0, 10.0, 100_000)
    w = w[w != 0.0]
    assert np.all(np.asarray(bath.evaluate(sf, w)) >= 0.0)


def test_cutoff_decay():
    sf = ohmic(omega_c=0.5)
    assert bath.evaluate(sf, 25.0) < 1e-12 * bath.evaluate(sf, 0.5)


def test_large_beta_converges_to_zero_temperature():
    cold = ohmic(beta=1e4, omega_c=2.0)
    zero = ohmic(beta=np.inf, omega_c=2.0)
    for w in (0.1, 0.5, 1.3):
        assert bath.evaluate(cold, w) == pytest.approx(bath.evaluate(zero, w), rel=1e-4)


def test_tabulated_zero_function():
    sf = bath.load_tabulated([(0.0, 0.0), (1.0, 0.0)])
    assert bath.evaluate(sf, 0.5) == 0.0
    assert bath.evaluate(sf, 2.0) == 0.0  # outside range


def test_tabulated_matches_closed_form():
    ref = ohmic(beta=2.0, omega_c=5.0)
    w = np.linspace(0.001, 4.0, 1001)
    sf = bath.load_tabulated(np.column_stack([w, bath.evaluate(ref, w)]))
    probe = np.linspace(0.05, 3.9, 137)
    got = np.asarray(bath.evaluate(sf, probe))
    want = np.asarray(bath.evaluate(ref, probe))
    assert np.max(np.abs(got - want)) < 1e-6


def test_tabulated_csv_loading(tmp_path):
    path = tmp_path / "bath.csv"
    path.write_text("omega,f\n0.0,0.0\n0.5,1.0\n1.0,0.0\n")
    sf = bath.load_tabulated(str(path))
    assert bath.evaluate(sf, 0.5) == pytest.approx(1.0)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        bath.load_tabulated([(0.0, 0.0), (0.0, 1.0)])  # not ascending
    with pytest.raises(ValueError):
        bath.load_tabulated([(0.0, -1.0), (1.0, 0.0)])  # negative


def test_dirac_probe():
    sf = bath.dirac_probe(0.5, 1.0)
    assert sf.kind == "dirac_comb"
    assert bath.integrate_abs(sf, 0.0, 1.0) == (1.0, 0.0)
    assert bath.integrate_abs(sf, 0.6, 1.0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        bath.dirac_probe(0.5, -1.0)


def test_integrate_abs_window():
    sf = ohmic(omega_c=1.0)
    full, err = bath.integrate_abs(sf, 0.0, 20.0)
    # int_0^inf w e^{-w} dw = 1 times 2*theta = 1
    assert full == pytest.approx(1.0, rel=1e-4)
    assert 0.0 < err < 1e-9
    assert bath.integrate_abs(sf, 0.3, 0.2) == (0.0, 0.0)


@pytest.mark.parametrize("epsilon", [0.0, 0.01, 0.25, 0.5, 2.5])
def test_integrate_abs_at_a_power_law_edge(epsilon):
    # f = 2*theta*w^epsilon for w > 0 and 0 below at zero temperature: a jump
    # at 0 for epsilon = 0, and no bounded derivative there for epsilon < 1;
    # each window is certified on a modest grid all the same
    sf = bath.SpectralFunction(kind="thermal_bosonic", theta=0.5, epsilon=epsilon)
    finest = [0]
    nested = bath.nested_simpson

    def recording(grid, integrand, count, n0):
        def grid_seen(u):
            finest[0] = max(finest[0], round(1.0 / u[u > 0.0].min()))
            return grid(u)

        return nested(grid_seen, integrand, count, n0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bath, "nested_simpson", recording)
        values, errors = bath.integrate_abs(sf, np.array([0.0, -2.0, -1.0, 0.5]), np.array([0.3, 2.0, 0.0, 1.5]))
    exact = np.array([0.3, 2.0, 0.0, 1.5]) ** (1.0 + epsilon) - np.array([0.0, 0.0, 0.0, 0.5]) ** (1.0 + epsilon)
    np.testing.assert_allclose(values, exact / (1.0 + epsilon), rtol=1e-9, atol=0.0)
    assert np.all(errors < 1e-9)
    # two successive agreements: one doubling past the first grid that agrees
    assert finest[0] <= 4096


def test_integrate_abs_at_a_thermal_edge():
    # at finite beta, f = J(|w|)(n_B(|w|) + step(w)) goes as |w|^(epsilon-1)
    # next to 0; for epsilon = 1.5 and omega_c = inf, the integral of J n_B
    # over w > 0 is 2*theta*Gamma(5/2)*zeta(5/2)/beta^(5/2); e^-60 is dropped
    sf = bath.SpectralFunction(kind="thermal_bosonic", theta=0.5, epsilon=1.5, beta=1.0)
    below, err_below = bath.integrate_abs(sf, -60.0, 0.0)
    assert below == pytest.approx(0.75 * np.sqrt(np.pi) * 1.341487257250917, rel=1e-9)
    assert err_below < 1e-9
    # above 0, f = J n_B + J: by detailed balance the J n_B part equals the part below
    both, _ = bath.integrate_abs(sf, -60.0, 60.0)
    assert both == pytest.approx(2.0 * below + 60.0**2.5 / 2.5, rel=1e-9)
    # at epsilon = 0.5 f diverges at 0 as |w|^-1/2, but the graded rule
    # weighs the node at 0 by 0 and never evaluates f there; the oracle is
    # quad on w = x^2, where the integrand is smooth
    sub = bath.SpectralFunction(kind="thermal_bosonic", epsilon=0.5, beta=1.0)
    value, err = bath.integrate_abs(sub, 0.0, 1.0)
    want, _ = quad(lambda x: 2.0 * x * bath.evaluate(sub, x * x), 0.0, 1.0, epsabs=1e-15, epsrel=1e-13)
    assert value == pytest.approx(want, rel=1e-10)
    assert err < 1e-9

import numpy as np
import pytest

from qptsweep.fitting import fit_exponential, fit_power_law


def test_power_law_exact():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_power_law(xs, xs**2)
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_exponential_exact():
    xs = np.linspace(0.0, 5.0, 9)
    fit = fit_exponential(xs, 3.0 * np.exp(-0.7 * xs))
    assert fit.exponent == pytest.approx(-0.7, abs=1e-9)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-9)


def test_refit_on_emitted_values_is_stable():
    xs = np.array([8.0, 16.0, 32.0, 64.0])
    ys = 0.3 * xs**-1.0
    fit1 = fit_power_law(xs, ys)
    # 17-significant-digit round trip must reproduce the exponent
    ys2 = np.array([float("%.17g" % y) for y in ys])
    fit2 = fit_power_law(xs, ys2)
    assert abs(fit1.exponent - fit2.exponent) < 1e-9


def test_validation():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])  # too few
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0, 4.0], [1.0, -2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        fit_exponential([1.0] * 4, [1.0, 2.0, 3.0, 4.0])

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qptsweep import exact, ising


def test_ising_n2_hand_diagonalization():
    h = exact.build_hamiltonian("ising_ring", 2, 0.0)
    spec = exact.low_spectrum(h, 4)
    assert spec.eigenvalues[0] == pytest.approx(-2.0)
    assert spec.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)


def test_grover_projector_spectrum_at_g0():
    h = exact.build_hamiltonian("grover", 3, 0.0)
    spec = exact.low_spectrum(h, 8)
    assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    assert_allclose(spec.eigenvalues[1:], 1.0, atol=1e-12)


def test_mixed_ferromagnetic_ground_space():
    h = exact.build_hamiltonian("mixed_grover_ising", 2, 1.0)
    spec = exact.low_spectrum(h, 4)
    assert_allclose(spec.eigenvalues[:2], 0.0, atol=1e-12)
    assert spec.eigenvalues[2] > 1.0
    # ground space spanned by |00> and |11>
    weight = np.sum(spec.eigenvectors[[0, 3], :2] ** 2)
    assert weight == pytest.approx(2.0, abs=1e-10)


def test_hermiticity_and_parity_commutation():
    for model in ("ising_ring", "mixed_grover_ising"):
        h = exact.build_hamiltonian(model, 6, 0.37)
        assert np.max(np.abs(h.matrix - h.matrix.T)) == 0.0
        perm = exact.bitflip_parity_operator_indices(6)
        comm = h.matrix[perm][:, perm] - h.matrix
        assert np.max(np.abs(comm)) < 1e-12


def test_parity_labels_ising():
    h0 = exact.build_hamiltonian("ising_ring", 6, 0.0)
    s0 = exact.low_spectrum(h0, 1, resolve_parity=True)
    assert s0.parity_labels[0] == 1.0
    h1 = exact.build_hamiltonian("ising_ring", 6, 1.0)
    s1 = exact.low_spectrum(h1, 2, resolve_parity=True)
    assert sorted(s1.parity_labels) == [-1.0, 1.0]
    hm = exact.build_hamiltonian("mixed_grover_ising", 6, 0.5)
    sm = exact.low_spectrum(hm, 2, resolve_parity=True)
    assert set(np.abs(sm.parity_labels)) == {1.0}


def test_parity_resolve_rejects_generic_grover():
    h = exact.build_hamiltonian("grover", 4, 0.5, marked_state="0110")
    spec = exact.low_spectrum(h, 2)
    with pytest.raises(ValueError):
        exact.parity_resolve(h, spec)


def test_even_sector_matches_analytic_ground_energy():
    p = ising.ChainParams(6)
    for g in np.linspace(0.0, 1.0, 11):
        diff = abs(
            exact.even_parity_ground_energy("ising_ring", 6, float(g))
            - ising.ground_energy_analytic(p, float(g))
        )
        assert diff < 1e-9


def test_grover_gap_closed_form_grid():
    for n in (2, 4, 6):
        dim = 2**n
        for g in np.linspace(0.0, 1.0, 101):
            got = exact.gap("grover", n, float(g))
            want = np.sqrt(1.0 - 4.0 * g * (1.0 - g) * (1.0 - 1.0 / dim))
            assert abs(got - want) < 1e-10


def test_iterative_path_matches_dense():
    # N=12 goes through the matrix-free solver
    h = exact.build_hamiltonian("ising_ring", 12, 0.5)
    assert h.matrix is None
    e0 = exact.low_spectrum(h, 1).eigenvalues[0]
    want = ising.ground_energy_analytic(ising.ChainParams(12), 0.5)
    assert e0 == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("model", exact.MODELS)
@pytest.mark.parametrize("n", [8, 11, 12])
def test_block_apply_matches_column_applies(model, n):
    # N=8 is the dense path, N=11 and 12 the matrix-free one
    h = exact.build_hamiltonian(model, n, 0.37)
    assert (h.matrix is None) == (n > exact.DENSE_MAX)
    block = np.random.default_rng(n).standard_normal((h.dim, 3))
    cols = np.column_stack([h.apply(block[:, i]) for i in range(3)])
    got = h.apply(block)
    assert got.shape == (h.dim, 3)
    assert_allclose(got, cols, rtol=0.0, atol=1e-13 * np.max(np.abs(cols)))
    one = h.apply(block[:, :1])
    assert one.shape == (h.dim, 1)
    assert_allclose(one[:, 0], cols[:, 0], rtol=0.0, atol=1e-13 * np.max(np.abs(cols)))


def test_variational_stability():
    h = exact.build_hamiltonian("mixed_grover_ising", 6, 0.4)
    e3 = exact.low_spectrum(h, 3).eigenvalues
    e5 = exact.low_spectrum(h, 5).eigenvalues
    assert_allclose(e3, e5[:3], atol=1e-10)


def test_residual_contract():
    h = exact.build_hamiltonian("ising_ring", 8, 0.7)
    spec = exact.low_spectrum(h, 4)
    assert np.all(spec.residuals < 1e-8)
    assert np.all(np.diff(spec.eigenvalues) >= -1e-12)


def test_energy_derivatives_grover_step_sharpens():
    g_grid = np.arange(0.4, 0.6001, 1e-3)
    jumps = {}
    for n in (6, 8):
        _, d1, _ = exact.energy_derivatives("grover", g_grid, n)
        jumps[n] = np.max(np.abs(np.diff(d1)))
    assert jumps[8] > jumps[6]


def test_energy_derivatives_ising_second_order():
    g_grid = np.arange(0.4, 0.6001, 1e-3)
    _, d1, d2 = exact.energy_derivatives("ising_ring", g_grid, 8)
    loc = g_grid[np.argmax(np.abs(d2[1:-1])) + 1]
    assert abs(loc - 0.5) <= 0.02
    # first derivative stays continuous: no macroscopic jump
    assert np.max(np.abs(np.diff(d1))) < 0.5


def test_energy_derivatives_smooth_in_analytic_region():
    g_grid = np.arange(0.0, 0.2001, 2e-3)
    _, _, d2 = exact.energy_derivatives("ising_ring", g_grid, 6)
    inner = d2[2:-2]
    assert np.max(np.abs(np.diff(inner, 2))) < 1e-3


def test_mixed_gap_scaling_exponential():
    fit, gaps = exact.mixed_gap_scaling([4, 6, 8, 10], coarse_points=21)
    assert fit.exponent < 0.0
    assert fit.r_squared > 0.98
    vals = np.array(list(gaps.values()))
    assert np.all(np.diff(vals) < 0.0)


@pytest.mark.parametrize("model", ["ising_ring", "mixed_grover_ising"])
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
@pytest.mark.parametrize("g", [0.0, 0.3, 0.5, 1.0])
def test_sector_solve_matches_full_oracle(model, n, g):
    h = exact.build_hamiltonian(model, n, g)
    dim = h.dim
    vals, vecs = np.linalg.eigh(h.matrix)
    oracle = exact.LowSpectrum(vals.copy(), vecs, None, np.zeros(dim))
    oracle_labels = exact.parity_resolve(h, oracle)
    # a level is outside a degenerate multiplet if both neighbours are 1e-6 away
    gaps = np.diff(vals)
    isolated = np.ones(dim, dtype=bool)
    isolated[1:] &= gaps > 1e-6
    isolated[:-1] &= gaps > 1e-6
    perm = exact.bitflip_parity_operator_indices(n)
    for m in sorted({1, 4, dim // 2 + 1, dim}):
        spec = exact.low_spectrum(h, m, resolve_parity=True)
        assert len(spec.eigenvalues) == m
        assert_allclose(spec.eigenvalues, vals[:m], rtol=0, atol=1e-12)
        assert np.all(spec.residuals <= 1e-8)
        assert np.max(np.abs(spec.eigenvectors[perm] - spec.parity_labels * spec.eigenvectors)) < 1e-12
        keep = isolated[:m]
        assert np.array_equal(spec.parity_labels[keep], oracle_labels[:m][keep])


def test_subset_solve_matches_full_oracle():
    for model in exact.MODELS:
        h = exact.build_hamiltonian(model, 8, 0.45)
        vals = np.linalg.eigvalsh(h.matrix)
        for m in (1, 3, h.dim):
            spec = exact.low_spectrum(h, m)
            assert spec.parity_labels is None
            assert_allclose(spec.eigenvalues, vals[:m], rtol=0, atol=1e-12)
            assert np.all(spec.residuals <= 1e-8)


def test_grover_rejects_parity_resolution():
    for n in (4, 12):
        h = exact.build_hamiltonian("grover", n, 0.5)
        with pytest.raises(ValueError):
            exact.low_spectrum(h, 2, resolve_parity=True)


def _brute_even_levels(n, g, m):
    h = exact.build_hamiltonian("mixed_grover_ising", n, g)
    spec = exact.low_spectrum(h, min(m, h.dim), resolve_parity=True)
    return spec.eigenvalues[spec.parity_labels > 0]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
def test_mixed_reduction_is_the_whole_even_sector(n):
    # dense: the full spectrum, so every even level is compared
    for g in (0.0, 0.25, 0.5, 0.8, 1.0):
        levels = exact.mixed_even_levels(n, g, 2**n)
        assert len(levels) == 2 ** (n - 1)
        assert_allclose(levels, _brute_even_levels(n, g, 2**n), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [11, 12])
def test_mixed_reduction_matches_iterative_path(n):
    for g in (0.3, 0.7):
        brute = _brute_even_levels(n, g, 8)
        assert len(brute) >= 2
        assert_allclose(exact.mixed_even_levels(n, g, len(brute)), brute, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([4, 6, 8]), g=st.floats(min_value=0.02, max_value=0.98))
def test_mixed_reduction_property(n, g):
    brute = _brute_even_levels(n, g, 12)
    assert_allclose(exact.mixed_even_levels(n, g, len(brute)), brute, rtol=0, atol=1e-12)


def test_mixed_gap_scaling_matches_brute_force(monkeypatch):
    _, reduced = exact.mixed_gap_scaling([4, 6, 8, 10], coarse_points=13)
    # the same coarse scan and refinement, with every gap from the full sector solve
    monkeypatch.setattr(
        exact, "_even_gap", lambda model, n, g: exact.gap(model, n, g, even_sector=True)
    )
    _, brute = exact.mixed_gap_scaling([4, 6, 8, 10], coarse_points=13)
    for n, want in brute.items():
        assert reduced[n] == pytest.approx(want, rel=1e-10)


def test_build_validation():
    with pytest.raises(ValueError):
        exact.build_hamiltonian("xy_model", 4, 0.5)
    with pytest.raises(ValueError):
        exact.build_hamiltonian("ising_ring", 16, 0.5)
    with pytest.raises(ValueError):
        exact.build_hamiltonian("ising_ring", 4, 1.5)
    with pytest.raises(ValueError):
        exact.build_hamiltonian("grover", 4, 0.5, marked_state="012")
    with pytest.raises(ValueError):
        exact.mixed_even_levels(1, 0.5, 2)
    with pytest.raises(ValueError):
        exact.mixed_even_levels(6, 1.5, 2)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qptsweep import exact, grover, ising


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
    h = exact.build_hamiltonian("grover", 4, 0.5)
    spec = exact.low_spectrum(h, 2)
    with pytest.raises(ValueError):
        exact.parity_resolve(h, spec)


@pytest.mark.parametrize("n,g", [(6, 1e-8), (10, 1e-8), (10, 5e-9)])
def test_parity_oracle_keeps_multiplets_whole(n, g):
    # near g = 0 the mixed model's multiplets sit g*d apart, on the oracle's
    # own degeneracy scale; a run measured from its first level cut one
    h = exact.build_hamiltonian("mixed_grover_ising", n, g)
    vals, vecs = np.linalg.eigh(h.matrix)
    labels = exact.parity_resolve(h, exact.LowSpectrum(vals, vecs, None, None))
    want = exact.low_spectrum(h, h.dim, resolve_parity=True).parity_labels
    assert np.array_equal(np.sort(labels), np.sort(want))


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
            levels = exact.low_spectrum(exact.build_hamiltonian("grover", n, float(g)), 2).eigenvalues
            got = levels[1] - levels[0]
            want = np.sqrt(1.0 - 4.0 * g * (1.0 - g) * (1.0 - 1.0 / dim))
            assert abs(got - want) < 1e-10


def test_iterative_path_matches_dense():
    # N=12 has no dense matrix; the ring is solved by its translation x bitflip blocks
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


_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])


def _on_site(op, j, n):
    """``op`` on qubit j of n; the leftmost Kronecker factor is the highest bit."""
    out = np.eye(1)
    for site in reversed(range(n)):
        out = np.kron(out, op if site == j else np.eye(2))
    return out


def _pauli_hamiltonian(model, n, g):
    """The model written out in Pauli matrices and explicit projectors;
    grover's marked state is |0...0>."""
    dim = 2**n
    one = np.eye(dim)
    bonds = sum(_on_site(_Z, j, n) @ _on_site(_Z, (j + 1) % n, n) for j in range(n))
    if model == "ising_ring":
        return -(1.0 - g) * sum(_on_site(_X, j, n) for j in range(n)) - g * bonds
    s = np.full(dim, 1.0 / np.sqrt(dim))
    search = (1.0 - g) * (one - np.outer(s, s))
    if model == "grover":
        w = one[0]
        return search + g * (one - np.outer(w, w))
    # each bond with unequal spins is one domain wall
    return search + g * 0.5 * (n * one - bonds)


@pytest.mark.parametrize("model", exact.MODELS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_operator_form_matches_pauli_oracle(model, n):
    for g in (0.0, 0.2, 0.5, 0.83, 1.0):
        h = exact.build_hamiltonian(model, n, g)
        assert_allclose(h.matrix, _pauli_hamiltonian(model, n, g), rtol=0, atol=1e-14)


@pytest.mark.parametrize("model", exact.MODELS)
@pytest.mark.parametrize("n", [2, 5, 8, 10])
def test_apply_to_identity_is_the_matrix(model, n):
    for g in (0.0, 0.37, 1.0):
        h = exact.build_hamiltonian(model, n, g)
        assert np.array_equal(h.apply(np.eye(h.dim)), h.matrix)


@pytest.mark.parametrize("shift,labels", [(1e-14, [1.0, -1.0]), (1e-9, [-1.0, 1.0])])
def test_cross_sector_near_tie_lists_even_first(monkeypatch, shift, labels):
    # at g=1 the ring's two ferromagnetic states tie exactly across the sectors;
    # every odd block is lowered by a rounding-sized shift, then by a resolved one
    block = exact._block

    def nudged(ham, j, sign):
        mat, sec = block(ham, j, sign)
        return (mat - shift * np.eye(len(mat)) if sign < 0 else mat), sec

    monkeypatch.setattr(exact, "_block", nudged)
    h = exact.build_hamiltonian("ising_ring", 6, 1.0)
    spec = exact.low_spectrum(h, 2, resolve_parity=True)
    assert list(spec.parity_labels) == labels


def test_even_first_runs_span_at_most_the_tie_tolerance():
    # levels 0.9e-12 apart chain across more than _TIE_TOL; each run starts at
    # its lowest level, so the even level of a run goes ahead of a lower odd
    # one of the same run only
    vals = np.array([0.0, 0.9e-12, 1.8e-12, 2.7e-12])
    labels = np.array([-1.0, 1.0, -1.0, 1.0])
    for m in range(1, 5):
        assert exact._even_first(vals, labels, m).tolist() == [1, 0, 3, 2][:m]


@settings(max_examples=200, deadline=None)
@given(
    gaps=st.lists(st.sampled_from([0.0, 0.4e-12, 0.9e-12, 1.1e-12, 5e-12]), min_size=1, max_size=40),
    odd=st.lists(st.booleans(), min_size=40, max_size=40),
    perm_seed=st.integers(0, 2**32 - 1),
)
def test_even_first_matches_greedy_runs(gaps, odd, perm_seed):
    # the order against a level-by-level walk: a run starts at its lowest
    # level and takes every level within _TIE_TOL above it; every m keeps
    # the first m of the whole order
    vals = 0.25 + np.cumsum(gaps)
    vals = vals[np.random.default_rng(perm_seed).permutation(vals.shape[0])]
    labels = np.where(odd[:vals.shape[0]], -1.0, 1.0)
    order = np.argsort(vals, kind="stable")
    run, count, lowest = [], -1, -np.inf
    for v in vals[order]:
        if v - lowest > exact._TIE_TOL:
            count, lowest = count + 1, v
        run.append(count)
    want = order[np.lexsort((-labels[order], run))]
    for m in range(1, vals.shape[0] + 1):
        assert exact._even_first(vals, labels, m).tolist() == want[:m].tolist()


def test_block_solve_listed_levels_never_fall_beyond_the_tie_tolerance():
    # at g=1e-12 the mixed ring's spectrum is chains of near-ties, which a run
    # built from neighbour gaps alone lists out of order by up to 2e-12
    vals = exact._block_solve(exact.build_hamiltonian("mixed_grover_ising", 10, 1e-12), 1024)[0]
    assert np.diff(vals).min() >= -exact._TIE_TOL


def _group_images(n):
    """g(s) for every state s, one row per element e = t + N*f (rotate by t, then flip f)."""
    full = 2**n - 1
    rows = [np.arange(2**n)]
    for _ in range(n - 1):
        s = rows[-1]
        rows.append(((s << 1) | (s >> (n - 1))) & full)
    return np.array(rows + [r ^ full for r in rows])


def _projected_states(n, j, sign, reps):
    """P|r>/|P|r>| for each r, P the projector onto momentum 2*pi*j/N and parity sign,
    by summing conj(chi(g)) g|r> over the whole group."""
    t = np.arange(2 * n) % n
    chi = np.exp(2j * np.pi * j * t / n) * np.where(np.arange(2 * n) < n, 1.0, sign)
    u = np.zeros((2**n, len(reps)), dtype=complex)
    np.add.at(u, (_group_images(n)[:, reps], np.arange(len(reps))), np.conj(chi)[:, None])
    return u / np.linalg.norm(u, axis=0)


@pytest.mark.parametrize("model", ["ising_ring", "mixed_grover_ising"])
@pytest.mark.parametrize("n", range(2, 9))
@settings(max_examples=4, deadline=None)
@given(g=st.floats(min_value=0.0, max_value=1.0))
def test_blocks_match_projected_oracle(model, n, g):
    # each block is H in the projected momentum states, rotated by the weights of its
    # real basis; for 0 < k < pi the rotated block must come out real
    h = exact.build_hamiltonian(model, n, g)
    reps = exact._orbits(n).reps
    size = 0
    for j in range(n // 2 + 1):
        copies = 1 if (2 * j) % n == 0 else 2
        for sign in (1.0, -1.0):
            mat, sec = exact._block(h, j, sign)
            d = len(sec.keep)
            w = np.zeros((d, d), dtype=complex)
            for p in (0, 1):
                np.add.at(w, (np.arange(d), sec.col[:, p]), sec.weight[:, p])
            v = _projected_states(n, j, sign, reps[sec.keep]) @ w
            assert_allclose(v.conj().T @ v, np.eye(d), rtol=0, atol=1e-12)
            rotated = v.conj().T @ h.matrix @ v
            assert np.max(np.abs(rotated.imag), initial=0.0) <= 1e-12
            assert_allclose(mat, rotated.real, rtol=0, atol=1e-12)
            assert np.max(np.abs(sec.flip.imag), initial=0.0) <= 1e-12
            size += copies * d
    assert size == h.dim


@pytest.mark.parametrize("model", ["ising_ring", "mixed_grover_ising"])
@pytest.mark.parametrize("n", range(2, 11))
@settings(max_examples=4, deadline=None)
@given(g=st.floats(min_value=0.0, max_value=1.0))
def test_block_solve_matches_full_oracle(model, n, g):
    # odd N has no k = pi block
    h = exact.build_hamiltonian(model, n, g)
    vals, full = np.linalg.eigh(h.matrix)
    spec = exact.low_spectrum(h, h.dim, resolve_parity=True)
    # listing even levels first inside a run of near-ties (near g = 0 for the
    # mixed model) may put a level ahead of a lower odd one
    assert_allclose(np.sort(spec.eigenvalues), vals, rtol=0, atol=1e-12)
    assert np.all(np.diff(spec.eigenvalues) >= -1e-10)
    vecs = spec.eigenvectors
    assert vecs.dtype == np.float64
    assert np.all(spec.residuals <= 1e-12)
    perm = exact.bitflip_parity_operator_indices(n)
    assert np.max(np.abs(vecs[perm] - spec.parity_labels * vecs)) <= 1e-12
    oracle_labels = exact.parity_resolve(h, exact.LowSpectrum(vals.copy(), full, None, None))
    gaps = np.diff(vals)
    isolated = np.ones(h.dim, dtype=bool)
    isolated[1:] &= gaps > 1e-6
    isolated[:-1] &= gaps > 1e-6
    assert np.array_equal(spec.parity_labels[isolated], oracle_labels[isolated])


@pytest.mark.parametrize("n", [11, 12])
def test_block_solve_mixed_matches_both_reductions(n):
    # the even sector is the wall-class reduction; the odd sector is diagonal,
    # C(N, d) states at 1 - g + g*d for every even wall count d
    m = 8
    h0 = exact.build_hamiltonian("mixed_grover_ising", n, 0.0)
    assert h0.matrix is None
    walls = np.arange(0, n + 1, 2)
    for g in np.linspace(0.0, 1.0, 6):
        h = exact.build_hamiltonian("mixed_grover_ising", n, float(g))
        vals, vecs, labels = exact._block_solve(h, m)
        even = exact.even_levels("mixed_grover_ising", n, float(g), m)
        odd = np.repeat(1.0 - g + g * walls, [min(math.comb(n, int(d)), m) for d in walls])
        want = np.concatenate([even, odd])
        want_labels = np.concatenate([np.ones(len(even)), -np.ones(len(odd))])
        order = exact._even_first(want, want_labels, m)
        assert_allclose(vals, want[order], rtol=0, atol=1e-12)
        assert np.array_equal(labels, want_labels[order])
        residuals = np.linalg.norm(h.apply(vecs) - vecs * vals, axis=0)
        assert np.all(residuals <= 1e-12)
    g1 = exact._block_solve(exact.build_hamiltonian("mixed_grover_ising", n, 1.0), 4)
    assert_allclose(g1[0], [0.0, 0.0, 2.0, 2.0], rtol=0, atol=1e-12)
    assert list(g1[2][:2]) == [1.0, -1.0]


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


def _energy_derivatives(model, g_grid, n):
    """dE0/dg and d2E0/dg2 of the ED ground energy on the uniform ``g_grid``."""
    e0 = [exact.low_spectrum(exact.build_hamiltonian(model, n, float(g)), 1).eigenvalues[0]
          for g in g_grid]
    h = g_grid[1] - g_grid[0]
    d1 = np.gradient(e0, h, edge_order=2)
    return d1, np.gradient(d1, h, edge_order=2)


def test_energy_derivatives_grover_step_sharpens():
    g_grid = np.arange(0.4, 0.6001, 1e-3)
    jumps = {}
    for n in (6, 8):
        d1, _ = _energy_derivatives("grover", g_grid, n)
        jumps[n] = np.max(np.abs(np.diff(d1)))
    assert jumps[8] > jumps[6]


def test_energy_derivatives_ising_second_order():
    g_grid = np.arange(0.4, 0.6001, 1e-3)
    d1, d2 = _energy_derivatives("ising_ring", g_grid, 8)
    loc = g_grid[np.argmax(np.abs(d2[1:-1])) + 1]
    assert abs(loc - 0.5) <= 0.02
    # first derivative stays continuous: no macroscopic jump
    assert np.max(np.abs(np.diff(d1))) < 0.5


def test_energy_derivatives_smooth_in_analytic_region():
    g_grid = np.arange(0.0, 0.2001, 2e-3)
    _, d2 = _energy_derivatives("ising_ring", g_grid, 6)
    inner = d2[2:-2]
    assert np.max(np.abs(np.diff(inner, 2))) < 1e-3


def test_mixed_gap_scaling_exponential():
    fit, gaps = exact.mixed_gap_scaling([4, 6, 8, 10], coarse_points=21)
    assert fit.exponent < 0.0
    assert fit.r_squared > 0.98
    vals = np.array(list(gaps.values()))
    assert np.all(np.diff(vals) < 0.0)


def test_mixed_gap_scaling_rate_at_large_n():
    # far beyond ED's reach the gap closes as 2^(-N/2), the Grover rate
    fit, gaps = exact.mixed_gap_scaling(range(40, 62, 2))
    assert fit.exponent == pytest.approx(-np.log(2.0) / 2.0, rel=0.01)
    assert fit.r_squared > 0.9999
    assert 2e-9 < gaps[60] < 3e-9


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


@pytest.mark.parametrize("n", range(2, 11))
def test_grover_reduction_matches_dense_solve(n):
    dim = 2**n
    for g in np.linspace(0.0, 1.0, 11):
        h = exact.build_hamiltonian("grover", n, float(g))
        m = dim if n <= 4 else 8
        spec = exact.low_spectrum(h, m)
        assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(h.matrix)[:m], rtol=0, atol=1e-12)
        vecs = spec.eigenvectors
        assert_allclose(vecs.T @ vecs, np.eye(m), rtol=0, atol=1e-12)
        assert_allclose(h.matrix @ vecs, vecs * spec.eigenvalues, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [11, 12, 13, 14])
def test_grover_levels_above_dense_max_match_the_closed_gap(n):
    # beyond the dense matrix; g = 0 and 1 are where a Krylov solve from the
    # uniform state breaks down (it is an eigenvector at g = 0)
    for g in (0.0, 0.25, 0.5, 0.75, 1.0):
        spec = exact.low_spectrum(exact.build_hamiltonian("grover", n, g), 4)
        gap = grover.grover_gap(g, 2**n)
        assert_allclose(spec.eigenvalues, [0.5 - gap / 2, 0.5 + gap / 2, 1.0, 1.0], rtol=0, atol=1e-12)
        assert np.all(spec.residuals <= 1e-12)


def test_grover_rejects_parity_resolution():
    for n in (4, 12):
        h = exact.build_hamiltonian("grover", n, 0.5)
        with pytest.raises(ValueError):
            exact.low_spectrum(h, 2, resolve_parity=True)


def _brute_even_levels(n, g, m):
    h = exact.build_hamiltonian("mixed_grover_ising", n, g)
    spec = exact.low_spectrum(h, min(m, h.dim), resolve_parity=True)
    return spec.eigenvalues[spec.parity_labels > 0]


def _dense_even_levels(model, n, g):
    """Every even level of the dense H, from the eigenvalues of its restriction
    to the states (|x> + |~x>)/sqrt(2), ~x the bitflip of x."""
    h = exact.build_hamiltonian(model, n, g).matrix
    half = np.arange(2 ** (n - 1))
    flip = exact.bitflip_parity_operator_indices(n)[half]
    even = h[np.ix_(half, half)] + h[np.ix_(half, flip)]
    return np.linalg.eigvalsh(even)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
def test_mixed_reduction_is_the_whole_even_sector(n):
    # both reductions, the ring's even blocks and the mixed model's wall classes,
    # against dense ED on every even level
    for model in ("ising_ring", "mixed_grover_ising"):
        for g in (0.0, 0.25, 0.5, 0.8, 1.0):
            levels = exact.even_levels(model, n, g, 2**n)
            assert len(levels) == 2 ** (n - 1)
            assert_allclose(levels, _dense_even_levels(model, n, g), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [11, 12])
def test_mixed_reduction_matches_iterative_path(n):
    for g in (0.3, 0.7):
        brute = _brute_even_levels(n, g, 8)
        assert len(brute) >= 2
        assert_allclose(exact.even_levels("mixed_grover_ising", n, g, len(brute)), brute, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([4, 6, 8]), g=st.floats(min_value=0.02, max_value=0.98))
def test_mixed_reduction_property(n, g):
    brute = _brute_even_levels(n, g, 12)
    assert_allclose(exact.even_levels("mixed_grover_ising", n, g, len(brute)), brute, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(4, 13, 2))
def test_ring_gap_is_the_analytic_gap(n):
    # at small g the N odd single flips lie below the second even level
    for g in np.linspace(0.0, 1.0, 11):
        assert exact.gap("ising_ring", n, float(g)) == pytest.approx(
            ising.min_gap(ising.ChainParams(n), float(g)), rel=0, abs=1e-12)


@pytest.mark.parametrize("n", range(4, 11))
def test_ring_minimal_even_gap_is_the_critical_gap(n):
    assert exact.minimal_even_gap("ising_ring", n) == pytest.approx(4.0 * np.sin(np.pi / (2 * n)), rel=1e-9)


@pytest.mark.parametrize("n", [11, 12])
def test_mixed_gap_above_dense_max_ends_at_one_and_two(n):
    # g = 0 and 1 are where a Krylov solve breaks down: the uniform state is an
    # eigenvector at g = 0, and the ferromagnetic states tie across the sectors at g = 1
    assert exact.gap("mixed_grover_ising", n, 0.0) == pytest.approx(1.0, rel=0, abs=1e-12)
    assert exact.gap("mixed_grover_ising", n, 1.0) == pytest.approx(2.0, rel=0, abs=1e-12)


def test_mixed_gap_scaling_matches_brute_force(monkeypatch):
    _, reduced = exact.mixed_gap_scaling([4, 6, 8, 10], coarse_points=13)
    # the same coarse scan and refinement, with every gap from the full sector solve
    monkeypatch.setattr(exact, "gap", lambda model, n, g: float(np.diff(_brute_even_levels(n, g, 2**n)[:2])[0]))
    _, brute = exact.mixed_gap_scaling([4, 6, 8, 10], coarse_points=13)
    for n, want in brute.items():
        assert reduced[n] == pytest.approx(want, rel=1e-10)


def _bounded_brent_oracle(n, coarse_points=41):
    """The same coarse scan, refined by scipy's bounded Brent search at xatol 1e-6."""
    from scipy.optimize import minimize_scalar

    g_coarse = np.linspace(0.02, 0.98, coarse_points)
    vals = np.array([exact.gap("mixed_grover_ising", n, g) for g in g_coarse])
    i = int(np.argmin(vals))
    res = minimize_scalar(
        lambda g: exact.gap("mixed_grover_ising", n, float(g)),
        bounds=(g_coarse[max(i - 1, 0)], g_coarse[min(i + 1, coarse_points - 1)]),
        method="bounded", options={"xatol": 1e-6},
    )
    return float(min(res.fun, vals[i]))


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14, 20, 30])
def test_golden_section_matches_bounded_brent(n):
    got = exact.minimal_even_gap("mixed_grover_ising", n)
    want = _bounded_brent_oracle(n)
    if n <= 14:
        assert got == pytest.approx(want, rel=1e-9)
    else:
        # the avoided crossing is narrower than xatol there; every evaluated
        # gap bounds the minimum from above, so the lower value is the better one
        assert got <= want * (1.0 + 1e-12)


def test_minimal_gap_left_of_the_scan():
    # at N=100 the avoided crossing (g ~ 0.0198) lies left of the coarse
    # scan's first point 0.02, which was returned as 9.7e-3; a plain scan of
    # the exact reduction already finds 3.0e-4 there
    g = np.linspace(1e-4, 0.03, 300)
    scan = min(exact.gap("mixed_grover_ising", 100, x) for x in g)
    assert scan < 4e-4
    assert exact.minimal_even_gap("mixed_grover_ising", 100) <= scan


def test_build_validation():
    with pytest.raises(ValueError):
        exact.build_hamiltonian("xy_model", 4, 0.5)
    with pytest.raises(ValueError):
        exact.build_hamiltonian("ising_ring", 16, 0.5)
    with pytest.raises(ValueError):
        exact.build_hamiltonian("ising_ring", 4, 1.5)
    for model in ("ising_ring", "mixed_grover_ising"):
        with pytest.raises(ValueError):
            exact.even_levels(model, 1, 0.5, 2)
        with pytest.raises(ValueError):
            exact.even_levels(model, 6, 1.5, 2)
    with pytest.raises(ValueError, match="not bitflip symmetric"):
        exact.gap("grover", 6, 0.5)


@pytest.mark.parametrize("call,name", [
    (lambda: exact.even_levels("mixed_grover_ising", 6.7, 0.3, 2), "n_qubits"),
    (lambda: exact.mixed_gap_scaling([4.5, 6, 8, 10]), "n_list"),
    (lambda: exact.minimal_even_gap("mixed_grover_ising", 6, coarse_points=0), "coarse_points"),
    (lambda: exact.minimal_even_gap("mixed_grover_ising", 6, coarse_points=-3), "coarse_points"),
    (lambda: exact.build_hamiltonian("ising_ring", 4.0, 0.5), "n_qubits"),
    (lambda: exact.even_levels("mixed_grover_ising", 1100, 0.3, 2), "n_qubits"),
    (lambda: exact.even_levels("ising_ring", 6, 0.3, 0), "m"),
    (lambda: exact.even_levels("mixed_grover_ising", 6, 0.3, 2.0), "m"),
], ids=["mixed_levels_fractional_n", "mixed_scaling_fractional_n",
        "coarse_points_0", "coarse_points_negative", "build_float_n", "mixed_levels_n_beyond_float",
        "even_levels_m_0", "even_levels_float_m"])
def test_counts_are_not_coerced(call, name):
    with pytest.raises(ValueError, match=name):
        call()

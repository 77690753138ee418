"""Channel matrix elements against exact diagonalization.

The closed-form envelopes that ``response._channel_integrals`` hands to the
quadrature carry the overall factor of every amplitude, which the energy
and scaling criteria cannot see.  Here the eigenvectors of
``SpinHamiltonian.matrix`` fix that factor for the Ising ring, and those of
``exact._grover_solve`` fix it for Grover's ``grover.projector_element``.
"""

import numpy as np
import pytest

from qptsweep import exact, grover, ising, response


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("g", [0.3, 0.5, 0.7])
def test_uniform_x_envelope_is_half_the_sigma_x_pair_element(n, g):
    levels, vecs = np.linalg.eigh(exact.build_hamiltonian("ising_ring", n, g).matrix)
    flip = exact.bitflip_parity_operator_indices(n)
    i0 = int(np.flatnonzero(np.einsum("ij,ij->j", vecs, vecs[flip]) > 0.5)[0])
    # sum_j sigma^x_j |0>, with sigma^x_j flipping bit j
    states = np.arange(2**n)
    reach = sum(vecs[states ^ (1 << j), i0] for j in range(n))
    overlaps = vecs.T @ reach
    excitations = levels - levels[i0]
    reached = np.abs(overlaps) > 1e-9
    reached[i0] = False  # <0|sum_j sigma^x_j|0>, not a transition

    ka = np.pi * np.arange(1, n, 2) / n  # the positive even-sector momenta; +-k is one pair state
    e_k = ising.dispersion(ka, g)
    pair_of = np.argmin(np.abs(excitations[reached, None] - 2.0 * e_k), axis=1)
    # every state reached is a pair state at 2 E_k, and every pair is reached
    assert np.max(np.abs(excitations[reached] - 2.0 * e_k[pair_of])) < 1e-10
    assert set(pair_of) == set(range(len(ka)))
    # summed over each pair energy's eigenspace, so a degenerate level is split any way
    element = np.sqrt(np.bincount(pair_of, weights=overlaps[reached] ** 2, minlength=len(ka)))
    envelope = np.abs(response._uniform_env(ka, g, e_k))
    np.testing.assert_allclose(element, 2.0 * envelope, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", range(4, 13))
def test_grover_envelope_is_the_marked_projector_element(n):
    # grover's bath couples through |w><w|, w = |0...0>; its envelope is the
    # large-D form of <1|w><w|0>, off by O(1/D)
    dim = 2**n
    # the gauge that turns continuously from g=0 to g=1: both levels have a
    # positive component along the part of |s> orthogonal to |w>
    r = np.ones(dim)
    r[0] = 0.0
    for g in np.arange(1, 10) / 10:
        vecs = exact._grover_solve(exact.build_hamiltonian("grover", n, g), 2)[1]
        vecs = vecs * np.sign(r @ vecs)
        element = vecs[0, 1] * vecs[0, 0]
        envelope, _ = grover.projector_element(g, dim)
        assert abs(envelope - element) <= abs(element) / dim

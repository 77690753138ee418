"""Brute-force oracle: diagonalization of the three model Hamiltonians.

Dense full solves up to N=10 (dimension 1024), matrix-free Lanczos-type
iteration (ARPACK with a fixed start vector) up to N=14.  Includes
bitflip-parity resolution and ground-energy derivative diagnostics.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.sparse.linalg import LinearOperator, eigsh

# fit_power_law is unused here, but the traced benchmark (perfbench/layers.py) looks it up here
from .fitting import fit_exponential, fit_power_law  # noqa: F401

MODELS = ("ising_ring", "grover", "mixed_grover_ising")
DENSE_MAX = 10
ITER_MAX = 14


class NonConvergenceError(RuntimeError):
    """Iterative eigensolver failed to reach the residual contract."""

    def __init__(self, message, achieved_residual=None):
        super().__init__(message)
        self.achieved_residual = achieved_residual


@dataclass
class SpinHamiltonian:
    n_qubits: int
    model: str
    g: float
    marked_state: str | None = None
    matrix: np.ndarray | None = None  # dense path only
    _op: LinearOperator | None = field(default=None, repr=False)

    @property
    def dim(self):
        return 2**self.n_qubits

    def apply(self, x):
        if self.matrix is not None:
            return self.matrix @ x
        return self._op @ x


@dataclass
class LowSpectrum:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    parity_labels: np.ndarray | None
    residuals: np.ndarray


def _domain_wall_counts(n):
    """Number of unequal adjacent bit pairs (periodic) for every basis state."""
    states = np.arange(2**n, dtype=np.int64)
    rot = ((states >> 1) | ((states & 1) << (n - 1))) & (2**n - 1)
    diff = states ^ rot
    counts = np.zeros(2**n, dtype=np.int64)
    for j in range(n):
        counts += (diff >> j) & 1
    return counts


def _ising_diag(n, g):
    # -g * sum_j z_j z_{j+1} with z = +-1; walls d give sum = N - 2d
    d = _domain_wall_counts(n)
    return -g * (n - 2.0 * d)


def build_hamiltonian(model, n_qubits, g, marked_state=None):
    """H(g) for one of the three models; dense for N <= 10, matrix-free above."""
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    if not (2 <= n_qubits <= ITER_MAX):
        raise ValueError(f"n_qubits must lie in [2, {ITER_MAX}], got {n_qubits}")
    if not (0.0 <= g <= 1.0):
        raise ValueError(f"g must lie in [0, 1], got {g}")
    if model == "grover":
        if marked_state is None:
            marked_state = "0" * n_qubits
        if len(marked_state) != n_qubits or set(marked_state) - {"0", "1"}:
            raise ValueError(f"marked_state must be an {n_qubits}-bit string, got {marked_state!r}")

    dim = 2**n_qubits
    ham = SpinHamiltonian(n_qubits=n_qubits, model=model, g=float(g), marked_state=marked_state)

    if model == "ising_ring":
        diag = _ising_diag(n_qubits, g)
        flips = [np.arange(dim) ^ (1 << j) for j in range(n_qubits)]
        if n_qubits <= DENSE_MAX:
            mat = np.diag(diag).astype(float)
            for flip in flips:
                mat[np.arange(dim), flip] += -(1.0 - g)
            ham.matrix = mat
        else:
            def matvec(x, diag=diag, flips=flips, g=g):
                y = diag * x
                for flip in flips:
                    y = y - (1.0 - g) * x[flip]
                return y

            ham._op = LinearOperator((dim, dim), matvec=matvec, dtype=float)
        return ham

    if model == "grover":
        w_index = int(marked_state, 2)
        if n_qubits <= DENSE_MAX:
            mat = np.full((dim, dim), -(1.0 - g) / dim)
            np.fill_diagonal(mat, np.diag(mat) + 1.0)
            mat[w_index, w_index] -= g
            ham.matrix = mat
        else:
            def matvec(x, g=g, dim=dim, w=w_index):
                y = x - (1.0 - g) * np.full(dim, np.sum(x) / dim)
                y[w] -= g * x[w]
                return y

            ham._op = LinearOperator((dim, dim), matvec=matvec, dtype=float)
        return ham

    # mixed_grover_ising: H0 from the search problem, ferromagnetic projector H_f
    walls = _domain_wall_counts(n_qubits).astype(float)
    if n_qubits <= DENSE_MAX:
        mat = np.full((dim, dim), -(1.0 - g) / dim)
        np.fill_diagonal(mat, np.diag(mat) + 1.0 - g + g * walls)
        ham.matrix = mat
    else:
        def matvec(x, g=g, dim=dim, walls=walls):
            return (1.0 - g) * x - (1.0 - g) * np.full(dim, np.sum(x) / dim) + g * walls * x

        ham._op = LinearOperator((dim, dim), matvec=matvec, dtype=float)
    return ham


def bitflip_parity_operator_indices(n_qubits):
    """Index permutation realizing the global bitflip X on every qubit."""
    return np.arange(2**n_qubits) ^ (2**n_qubits - 1)


def low_spectrum(ham, m, want_vectors=True, resolve_parity=False):
    """Lowest m eigenpairs with residual certificates.

    With ``resolve_parity`` a few extra states are solved for and the window
    is trimmed to spectrally complete degenerate blocks, since parity labels
    are only well defined on a whole multiplet.
    """
    dim = ham.dim
    if not (1 <= m <= dim):
        raise ValueError(f"m must lie in [1, {dim}], got {m}")
    m_req = min(m + 8, dim) if resolve_parity else m
    precomputed_labels = None
    if ham.matrix is not None:
        vals, vecs = np.linalg.eigh(ham.matrix)
        if resolve_parity:
            # extend the window to the end of any degenerate block it cuts
            while m_req < dim and vals[m_req] - vals[m_req - 1] < 1e-8:
                m_req += 1
        vals = vals[:m_req]
        vecs = vecs[:, :m_req]
    elif resolve_parity:
        # Lanczos recovers only one vector per degenerate cluster, so a
        # multiplet spanning both parity sectors surfaces as a single
        # parity-mixed vector.  Diagonalize each sector separately instead,
        # via symmetry-projected operators that shift the other sector out
        # of the search window.
        if ham.model == "grover":
            raise ValueError("grover with a generic marked state is not bitflip symmetric")
        perm = bitflip_parity_operator_indices(ham.n_qubits)
        shift = 4.0 * ham.n_qubits + 8.0

        def sector_op(sign):
            def matvec(x):
                xs = 0.5 * (x + sign * x[perm])
                y = ham.apply(xs)
                y = 0.5 * (y + sign * y[perm])
                return y + shift * (x - xs)

            return LinearOperator((dim, dim), matvec=matvec, dtype=float)

        k = min(m_req, dim // 2 - 2)
        sector_vals, sector_vecs, sector_labels = [], [], []
        for sign in (1.0, -1.0):
            v0 = np.ones(dim)
            if sign < 0:
                v0 = np.arange(dim, dtype=float)
            v0 = 0.5 * (v0 + sign * v0[perm])
            v0 /= np.linalg.norm(v0)
            try:
                sv, svec = eigsh(
                    sector_op(sign), k=k, which="SA", v0=v0,
                    maxiter=20000, tol=1e-10, ncv=min(dim, max(4 * k, 40)),
                )
            except Exception as exc:  # ArpackNoConvergence and friends
                raise NonConvergenceError(f"eigsh failed: {exc}") from exc
            sector_vals.append(sv)
            sector_vecs.append(svec)
            sector_labels.append(np.full(len(sv), sign))
        vals = np.concatenate(sector_vals)
        vecs = np.concatenate(sector_vecs, axis=1)
        labels = np.concatenate(sector_labels)
        order = np.argsort(vals, kind="stable")
        vals = vals[order][:m]
        vecs = vecs[:, order][:, :m]
        precomputed_labels = labels[order][:m]
    else:
        k = min(m_req, dim - 2)
        v0 = np.full(dim, 1.0 / np.sqrt(dim))
        try:
            vals, vecs = eigsh(ham._op, k=k, which="SA", v0=v0, maxiter=5000)
        except Exception as exc:  # ArpackNoConvergence and friends
            raise NonConvergenceError(f"eigsh failed: {exc}") from exc
        order = np.argsort(vals)
        vals = vals[order][:m]
        vecs = vecs[:, order][:, :m]
    if not resolve_parity:
        vals = vals[:m]
        vecs = vecs[:, :m]
    residuals = np.array(
        [np.linalg.norm(ham.apply(vecs[:, i]) - vals[i] * vecs[:, i]) for i in range(len(vals))]
    )
    if np.any(residuals > 1e-8):
        raise NonConvergenceError(
            f"residuals above contract: {residuals.max():.3e}", achieved_residual=float(residuals.max())
        )
    spec = LowSpectrum(
        eigenvalues=vals,
        eigenvectors=vecs if want_vectors else None,
        parity_labels=None,
        residuals=residuals,
    )
    if resolve_parity:
        if precomputed_labels is not None:
            spec.parity_labels = precomputed_labels
        else:
            spec.parity_labels = parity_resolve(ham, spec)
        spec.eigenvalues = spec.eigenvalues[:m]
        spec.eigenvectors = spec.eigenvectors[:, :m]
        spec.parity_labels = spec.parity_labels[:m]
        spec.residuals = spec.residuals[:m]
    return spec


def parity_resolve(ham, spectrum, degeneracy_tol=1e-8):
    """Label each eigenvector by the global-bitflip expectation value +-1.

    Degenerate subspaces are rotated to diagonalize the parity operator
    first, since their raw eigenvectors are basis-ambiguous.
    """
    if ham.model == "grover":
        raise ValueError("grover with a generic marked state is not bitflip symmetric")
    if spectrum.eigenvectors is None:
        raise ValueError("parity resolution needs eigenvectors")
    perm = bitflip_parity_operator_indices(ham.n_qubits)
    vals = spectrum.eigenvalues
    vecs = spectrum.eigenvectors
    labels = np.zeros(len(vals))
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and abs(vals[j] - vals[i]) < degeneracy_tol:
            j += 1
        block = vecs[:, i:j]
        pblock = block[perm, :]
        small = block.T @ pblock
        small = 0.5 * (small + small.T)
        pvals, pvecs = np.linalg.eigh(small)
        # even states first within the block, so a later trim of the window
        # cannot discard the even member of a multiplet
        order = np.argsort(-pvals)
        pvals = pvals[order]
        rotated = block @ pvecs[:, order]
        # the rotation can reorder a split near-degenerate block, so refresh
        # each energy from its own Rayleigh quotient
        for col, pv in enumerate(pvals):
            if abs(abs(pv) - 1.0) > 1e-8:
                raise NonConvergenceError(
                    f"parity expectation {pv:.6f} not within 1e-8 of +-1"
                )
            vals[i + col] = float(rotated[:, col] @ ham.apply(rotated[:, col]))
            labels[i + col] = np.sign(pv)
        vecs[:, i:j] = rotated
        i = j
    return labels


def ground_energy(model, n_qubits, g, marked_state=None):
    ham = build_hamiltonian(model, n_qubits, g, marked_state)
    return float(low_spectrum(ham, 1, want_vectors=False).eigenvalues[0])


def even_parity_ground_energy(model, n_qubits, g, m=6):
    """Lowest eigenvalue whose bitflip parity is +1."""
    ham = build_hamiltonian(model, n_qubits, g)
    spec = low_spectrum(ham, min(m, ham.dim), resolve_parity=True)
    even = spec.eigenvalues[spec.parity_labels > 0]
    if len(even) == 0:
        raise NonConvergenceError("no even-parity state among the computed eigenpairs")
    return float(even[0])


def gap(model, n_qubits, g, marked_state=None, even_sector=False, m=6):
    """E1 - E0, optionally restricted to the even bitflip-parity sector."""
    ham = build_hamiltonian(model, n_qubits, g, marked_state)
    if even_sector:
        spec = low_spectrum(ham, min(m, ham.dim), resolve_parity=True)
        even = spec.eigenvalues[spec.parity_labels > 0]
        if len(even) < 2:
            raise NonConvergenceError("fewer than two even-parity states found")
        return float(even[1] - even[0])
    spec = low_spectrum(ham, 2, want_vectors=False)
    return float(spec.eigenvalues[1] - spec.eigenvalues[0])


def energy_derivatives(model, g_grid, n_qubits, marked_state=None, check_tol=1e-4):
    """Central-difference dE0/dg and d2E0/dg2 of the ED ground energy.

    The grid must be uniform; a half-step Richardson comparison guards
    against too-coarse grids near the transition.
    """
    g_grid = np.asarray(g_grid, dtype=float)
    h = g_grid[1] - g_grid[0]
    if not np.allclose(np.diff(g_grid), h, rtol=0, atol=1e-12):
        raise ValueError("g_grid must be uniform")
    e0 = np.array([ground_energy(model, n_qubits, g, marked_state) for g in g_grid])
    d1 = np.gradient(e0, h, edge_order=2)
    d2 = np.empty_like(e0)
    d2[1:-1] = (e0[2:] - 2.0 * e0[1:-1] + e0[:-2]) / h**2
    d2[0] = d2[1]
    d2[-1] = d2[-2]
    return e0, d1, d2


def mixed_gap_scaling(n_list, coarse_points=41):
    """Fit ln(min even-sector gap) = c0 - c1*N for the mixed model.

    The avoided-crossing location moves with N, so the minimum is located
    by a coarse scan refined with a bounded scalar minimization.
    """
    n_list = sorted(int(n) for n in n_list)
    if any(n % 2 or n < 4 or n > ITER_MAX for n in n_list):
        raise ValueError(f"n_list must hold even values in [4, {ITER_MAX}], got {n_list}")
    gaps = []
    for n in n_list:
        gmin = minimal_even_gap("mixed_grover_ising", n, coarse_points=coarse_points)
        gaps.append(gmin)
    gaps = np.asarray(gaps)
    if np.any(np.diff(gaps) >= 0):
        raise NonConvergenceError(f"mixed minimal gap not monotone decreasing: {gaps}")
    fit = fit_exponential(np.asarray(n_list, dtype=float), gaps)
    return fit, dict(zip(n_list, gaps))


def minimal_even_gap(model, n_qubits, coarse_points=41, refine_tol=1e-6):
    """Minimum over g of the even-sector gap, with local refinement."""
    g_coarse = np.linspace(0.02, 0.98, coarse_points)
    vals = np.array([gap(model, n_qubits, g, even_sector=True) for g in g_coarse])
    i = int(np.argmin(vals))
    lo = g_coarse[max(i - 1, 0)]
    hi = g_coarse[min(i + 1, coarse_points - 1)]
    res = minimize_scalar(
        lambda g: gap(model, n_qubits, float(g), even_sector=True),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": refine_tol},
    )
    return float(min(res.fun, vals[i]))


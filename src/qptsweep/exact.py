"""Exact diagonalization of the three model Hamiltonians.

Dense subset solves (lowest m levels only) up to N=10 (dimension 1024),
matrix-free Lanczos-type iteration (ARPACK with a fixed start vector) up to
N=14.  Bitflip-parity sectors are solved separately: dense as the two
half-dimension blocks H[x,x] ± H[x,x̄], iterative through
symmetry-projected operators.  The even sector of the mixed
search/ferromagnet model is computed exactly from its wall-class
reduction, which the minimal-gap scaling study uses; ``parity_resolve``
and the full solves stay as test oracles.  Also ground-energy derivative
diagnostics.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
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


def _along_rows(v, x):
    """The per-state vector ``v`` shaped to scale ``x``, a 1-D vector or a
    (dim, k) block, row by row."""
    return v if x.ndim == 1 else v[:, None]


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
            def apply(x, diag=diag, flips=flips, g=g):
                y = _along_rows(diag, x) * x
                for flip in flips:
                    y = y - (1.0 - g) * x[flip]
                return y

            ham._op = LinearOperator((dim, dim), matvec=apply, matmat=apply, dtype=float)
        return ham

    if model == "grover":
        w_index = int(marked_state, 2)
        if n_qubits <= DENSE_MAX:
            mat = np.full((dim, dim), -(1.0 - g) / dim)
            np.fill_diagonal(mat, np.diag(mat) + 1.0)
            mat[w_index, w_index] -= g
            ham.matrix = mat
        else:
            def apply(x, g=g, dim=dim, w=w_index):
                y = x - (1.0 - g) * (np.sum(x, axis=0) / dim)
                y[w] -= g * x[w]
                return y

            ham._op = LinearOperator((dim, dim), matvec=apply, matmat=apply, dtype=float)
        return ham

    # mixed_grover_ising: H0 from the search problem, ferromagnetic projector H_f
    walls = _domain_wall_counts(n_qubits).astype(float)
    if n_qubits <= DENSE_MAX:
        mat = np.full((dim, dim), -(1.0 - g) / dim)
        np.fill_diagonal(mat, np.diag(mat) + 1.0 - g + g * walls)
        ham.matrix = mat
    else:
        def apply(x, g=g, dim=dim, walls=walls):
            return (
                (1.0 - g) * x - (1.0 - g) * (np.sum(x, axis=0) / dim) + g * _along_rows(walls, x) * x
            )

        ham._op = LinearOperator((dim, dim), matvec=apply, matmat=apply, dtype=float)
    return ham


def bitflip_parity_operator_indices(n_qubits):
    """Index permutation realizing the global bitflip X on every qubit."""
    return np.arange(2**n_qubits) ^ (2**n_qubits - 1)


def _dense_sector(ham, sign, m):
    """Lowest min(m, dim/2) levels of the sector with bitflip parity ``sign``.

    With representatives x (top bit 0) and their flips x̄ the sector is the
    block H[x,x] + sign*H[x,x̄] of half the dimension; each of its vectors v
    is lifted back as (v at x, sign*v at x̄)/√2.
    """
    dim = ham.dim
    half = dim // 2
    reps = np.arange(half)
    flips = reps ^ (dim - 1)
    top = ham.matrix[:half]
    vals, v = eigh(top[:, reps] + sign * top[:, flips], subset_by_index=[0, min(m, half) - 1])
    vecs = np.empty((dim, len(vals)))
    vecs[reps] = v / np.sqrt(2.0)
    vecs[flips] = sign * vecs[reps]
    return vals, vecs


def _lanczos_sector(ham, sign, m):
    """Lowest levels of the sector with bitflip parity ``sign``, matrix-free.

    Lanczos recovers only one vector per degenerate cluster, so a multiplet
    spanning both parity sectors would surface as a single parity-mixed
    vector.  The symmetry-projected operator shifts the other sector out of
    the search window instead.
    """
    dim = ham.dim
    perm = bitflip_parity_operator_indices(ham.n_qubits)
    shift = 4.0 * ham.n_qubits + 8.0

    def matvec(x):
        xs = 0.5 * (x + sign * x[perm])
        y = ham.apply(xs)
        y = 0.5 * (y + sign * y[perm])
        return y + shift * (x - xs)

    k = min(m + 8, dim // 2 - 2)
    v0 = np.ones(dim) if sign > 0 else np.arange(dim, dtype=float)
    v0 = 0.5 * (v0 + sign * v0[perm])
    v0 /= np.linalg.norm(v0)
    try:
        return eigsh(
            LinearOperator((dim, dim), matvec=matvec, dtype=float), k=k, which="SA", v0=v0,
            maxiter=20000, tol=1e-10, ncv=min(dim, max(4 * k, 40)),
        )
    except Exception as exc:  # ArpackNoConvergence and friends
        raise NonConvergenceError(f"eigsh failed: {exc}") from exc


def low_spectrum(ham, m, want_vectors=True, resolve_parity=False):
    """Lowest m eigenpairs with residual certificates.

    With ``resolve_parity`` each bitflip-parity sector is solved on its own
    and the two are merged, even states first on exact ties, so every level
    carries an exact parity label, even inside a multiplet that spans both
    sectors.
    """
    dim = ham.dim
    if not (1 <= m <= dim):
        raise ValueError(f"m must lie in [1, {dim}], got {m}")
    labels = None
    if resolve_parity:
        if ham.model == "grover":
            raise ValueError("grover with a generic marked state is not bitflip symmetric")
        solve = _dense_sector if ham.matrix is not None else _lanczos_sector
        sectors = [(sign, *solve(ham, sign, m)) for sign in (1.0, -1.0)]
        vals = np.concatenate([sv for _, sv, _ in sectors])
        order = np.argsort(vals, kind="stable")[:m]
        vals = vals[order]
        vecs = np.concatenate([svec for _, _, svec in sectors], axis=1)[:, order]
        labels = np.concatenate([np.full(len(sv), sign) for sign, sv, _ in sectors])[order]
    elif ham.matrix is not None:
        vals, vecs = eigh(ham.matrix, subset_by_index=[0, m - 1])
    else:
        k = min(m, dim - 2)
        v0 = np.full(dim, 1.0 / np.sqrt(dim))
        try:
            vals, vecs = eigsh(ham._op, k=k, which="SA", v0=v0, maxiter=5000)
        except Exception as exc:  # ArpackNoConvergence and friends
            raise NonConvergenceError(f"eigsh failed: {exc}") from exc
        order = np.argsort(vals)[:m]
        vals = vals[order]
        vecs = vecs[:, order]
    residuals = np.array(
        [np.linalg.norm(ham.apply(vecs[:, i]) - vals[i] * vecs[:, i]) for i in range(len(vals))]
    )
    if np.any(residuals > 1e-8):
        raise NonConvergenceError(
            f"residuals above contract: {residuals.max():.3e}", achieved_residual=float(residuals.max())
        )
    return LowSpectrum(
        eigenvalues=vals,
        eigenvectors=vecs if want_vectors else None,
        parity_labels=labels,
        residuals=residuals,
    )


# Test oracle for the sector solve; the traced benchmark (perfbench/layers.py) looks it up here
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
        # even states first within the block, as the sector solve orders ties
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


def mixed_even_levels(n_qubits, g, m):
    """Lowest m even-sector levels of ``mixed_grover_ising``, from its wall-class reduction.

    H = (1-g)(1 - |s><s|) + g*W, with W the domain-wall count.  The
    normalized class states |c_d> (all 2*C(N,d) states with d walls, d even)
    span an invariant space of dimension floor(N/2)+1 on which
    H_r = (1-g)(1 - a a^T) + g*diag(d), a_d = sqrt(2*C(N,d)/2^N).  Its
    orthogonal complement is diagonal: within class d it holds C(N,d)-1
    even states at energy 1-g+g*d.  Returns the levels in ascending order;
    all 2^(N-1) of them when m is at least that.
    """
    n = int(n_qubits)
    if n < 2:
        raise ValueError(f"n_qubits must be at least 2, got {n_qubits}")
    if not (0.0 <= g <= 1.0):
        raise ValueError(f"g must lie in [0, 1], got {g}")
    d = np.arange(0, n + 1, 2)
    counts = [math.comb(n, int(k)) for k in d]
    a = np.sqrt(2.0 * np.array(counts, dtype=float) / 2.0**n)
    h_r = (1.0 - g) * (np.eye(len(d)) - np.outer(a, a)) + g * np.diag(d.astype(float))
    # C(N,d) grows like 2^N, so each closed-form level is repeated at most m times
    rest = np.repeat(1.0 - g + g * d, [min(c - 1, m) for c in counts])
    return np.sort(np.concatenate([np.linalg.eigvalsh(h_r), rest]))[:m]


def _even_gap(model, n_qubits, g):
    if model == "mixed_grover_ising":
        e0, e1 = mixed_even_levels(n_qubits, g, 2)
        return float(e1 - e0)
    return gap(model, n_qubits, g, even_sector=True)


def minimal_even_gap(model, n_qubits, coarse_points=41, refine_tol=1e-6):
    """Minimum over g of the even-sector gap, with local refinement.

    The mixed model takes its gap from the exact reduction
    (``mixed_even_levels``); the other models from ``gap(..., even_sector=True)``.
    """
    g_coarse = np.linspace(0.02, 0.98, coarse_points)
    vals = np.array([_even_gap(model, n_qubits, g) for g in g_coarse])
    i = int(np.argmin(vals))
    lo = g_coarse[max(i - 1, 0)]
    hi = g_coarse[min(i + 1, coarse_points - 1)]
    res = minimize_scalar(
        lambda g: _even_gap(model, n_qubits, float(g)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": refine_tol},
    )
    return float(min(res.fun, vals[i]))

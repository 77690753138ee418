"""Exact diagonalization of the three model Hamiltonians.

Every model is one operator form, H = diag(d) - f*sum_j X_j - r*|s><s|
with |s> the uniform state (``SpinHamiltonian``); the dense matrix (up to
N=10, dimension 1024) and the matrix-free product are both read off it.
Grover's H is solved exactly by its two-level reduction on span{|w>, |s>}.
The bitflip-symmetric models are solved completely by translation x
bitflip symmetry blocks (momentum k, parity sigma), each a real symmetric
matrix of at most a few hundred rows at N=14, with numpy's dense
eigensolvers; only the parity-resolved mixed model above N=10 still goes
through symmetry-projected ARPACK.  The even sector, where the gap and the
minimal-gap scaling study are read, comes from each model's exact
reduction (``even_levels``): the ring's even blocks and the mixed model's
wall classes.  ``parity_resolve`` and the dense matrix stay as test oracles.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

# fit_power_law is unused here, but the traced benchmark (perfbench/layers.py) looks it up here
from .fitting import fit_exponential, fit_power_law  # noqa: F401
from .ising import _check_count, _check_g

MODELS = ("ising_ring", "grover", "mixed_grover_ising")
DENSE_MAX = 10
ITER_MAX = 14
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_TIE_TOL = 1e-12  # levels this close to a neighbour are ordered even parity first
# mixed_gap_scaling's largest N: its cost does not grow like 2^N, but its gap is a difference
# of O(1) levels, off by 1.4e-8 relative at N=60 (gap 2.5e-9), 8e-7 at N=70 and 4e-5 at N=80
_MIXED_N_MAX = 60


class NonConvergenceError(RuntimeError):
    """Iterative eigensolver failed to reach the residual contract."""


@dataclass
class SpinHamiltonian:
    """H = diag(diag) - flip * sum_j X_j - rank_one * |s><s|, |s> the uniform state."""

    n_qubits: int
    model: str
    diag: np.ndarray
    flip: float
    rank_one: float

    @property
    def dim(self):
        return 2**self.n_qubits

    @cached_property
    def matrix(self):
        """The dense H for N <= DENSE_MAX, else None."""
        if self.n_qubits > DENSE_MAX:
            return None
        mat = np.diag(self.diag)
        if self.flip:
            states = np.arange(self.dim)
            for j in range(self.n_qubits):
                mat[states, states ^ (1 << j)] -= self.flip
        if self.rank_one:
            mat -= self.rank_one / self.dim
        return mat

    def apply(self, x):
        """H x for a vector or a (dim, k) block, without the dense matrix."""
        y = (self.diag if x.ndim == 1 else self.diag[:, None]) * x
        if self.flip:
            for j in range(self.n_qubits):
                # X_j reverses the axis of bit j
                xj = x.reshape((-1, 2, 2**j) + x.shape[1:])[:, ::-1].reshape(x.shape)
                y = y - self.flip * xj
        if self.rank_one:
            y = y - self.rank_one * (np.sum(x, axis=0) / self.dim)
        return y


@dataclass
class LowSpectrum:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
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


def build_hamiltonian(model, n_qubits, g):
    """H(g) of one of the three models in the operator form of ``SpinHamiltonian``."""
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    _check_count(n_qubits, "n_qubits", 2, ITER_MAX)
    g = float(_check_g(g))
    if model == "ising_ring":
        # -g * sum_j z_j z_{j+1} with z = +-1; walls d give sum = N - 2d
        walls = _domain_wall_counts(n_qubits)
        return SpinHamiltonian(n_qubits, model, -g * (n_qubits - 2.0 * walls), 1.0 - g, 0.0)
    if model == "grover":
        marked = np.arange(2**n_qubits) == 0  # |w> = |0...0>; any choice has the same spectrum
        return SpinHamiltonian(n_qubits, model, 1.0 - g * marked, 0.0, 1.0 - g)
    # mixed_grover_ising: (1-g)(1 - |s><s|) + g * (domain walls)
    walls = _domain_wall_counts(n_qubits)
    return SpinHamiltonian(n_qubits, model, (1.0 - g) + g * walls, 0.0, 1.0 - g)


def bitflip_parity_operator_indices(n_qubits):
    """Index permutation realizing the global bitflip X on every qubit."""
    return np.arange(2**n_qubits) ^ (2**n_qubits - 1)


def _eigsh(matvec, dim, k, v0, **opts):
    """Lowest k eigenpairs of the symmetric operator ``matvec`` by ARPACK from ``v0``."""
    try:
        op = LinearOperator((dim, dim), matvec=matvec, dtype=float)
        return eigsh(op, k=k, which="SA", v0=v0, **opts)
    except Exception as exc:  # ArpackNoConvergence and friends
        raise NonConvergenceError(f"eigsh failed: {exc}") from exc


class _Orbits(NamedTuple):
    """Orbits of the 2^N basis states under translation x global bitflip.

    Group element e = t + N*f rotates a state by t bits, then flips every
    bit if f = 1.  Each orbit is represented by its minimum state.
    """

    rep: np.ndarray  # per state: index of its representative in ``reps``
    elem: np.ndarray  # per state: the element that maps it onto its representative
    reps: np.ndarray  # the representatives, ascending
    orbit: np.ndarray  # orbit size of each representative
    stab: np.ndarray  # (representatives, 2N): the element fixes the representative
    flip_rep: np.ndarray  # (representatives, N): ``rep`` of the representative with bit b flipped
    flip_elem: np.ndarray  # (representatives, N): ``elem`` of that state
    mirror_rep: np.ndarray  # ``rep`` of the bit-reversed representative
    mirror_elem: np.ndarray  # ``elem`` of the bit-reversed representative


@lru_cache(maxsize=None)
def _orbits(n):
    """The ``_Orbits`` of N = n qubits, from all 2N images of every state."""
    dim = 2**n
    full = dim - 1
    states = np.arange(dim, dtype=np.int64)
    images = np.empty((2 * n, dim), dtype=np.int64)
    rot = states
    for t in range(n):
        images[t] = rot
        images[n + t] = rot ^ full
        rot = ((rot << 1) | (rot >> (n - 1))) & full
    elem = np.argmin(images, axis=0)
    reps, rep = np.unique(images[elem, states], return_inverse=True)
    stab = (images[:, reps] == reps).T
    flipped = reps[:, None] ^ (1 << np.arange(n))
    mirror = np.zeros_like(reps)
    for b in range(n):
        mirror |= ((reps >> b) & 1) << (n - 1 - b)
    return _Orbits(
        rep=rep, elem=elem, reps=reps, orbit=2 * n // stab.sum(axis=1), stab=stab,
        flip_rep=rep[flipped], flip_elem=elem[flipped],
        mirror_rep=rep[mirror], mirror_elem=elem[mirror],
    )


class _Sector(NamedTuple):
    """One block (k = 2*pi*j/N, bitflip parity sigma) in its real basis.

    The momentum state of a representative r is u_r = sqrt(|O_r|) P|r>,
    P the projector onto the block; its amplitude on a state s of the
    orbit is chi(h_s)/sqrt(|O_r|), h_s the element that maps s onto r.
    It is nonzero for the representatives whose stabiliser sum of chi is
    nonzero.  Basis vector a of the block is sum_r W[r, a] u_r, and each
    u_r enters at most two of them: W[r, col[r, p]] = weight[r, p].
    """

    keep: np.ndarray  # the representatives u_r of the block, as indices into _Orbits.reps
    chi: np.ndarray  # chi(e) for every group element e
    col: np.ndarray  # (len(keep), 2)
    weight: np.ndarray  # (len(keep), 2)
    flip_index: np.ndarray  # flat indices into the block of the entries of sum_j X_j
    flip: np.ndarray  # their values; complex, but real to rounding


@lru_cache(maxsize=None)
def _sector(n, j, sign):
    """The g-independent part of block (k = 2*pi*j/N, parity ``sign``).

    At k = 0 and pi chi is real and the basis is u_r itself.  For
    0 < k < pi the basis is the one fixed by A = K R, K complex
    conjugation and R bit reversal.  A maps u_r to phi_r u_r*, r* the
    representative of R(r); the basis vectors are (u_r + phi_r u_r*)/sqrt(2)
    and i(u_r - phi_r u_r*)/sqrt(2) for r < r*, and e^{i theta} u_r with
    e^{2 i theta} = phi_r for r = r*.  H commutes with A, so it is real
    in this basis.
    """
    orb = _orbits(n)
    phase = np.exp(2j * np.pi * j * np.arange(n) / n)
    real = (2 * j) % n == 0
    if real:
        phase = np.rint(phase.real)
    chi = np.concatenate([phase, sign * phase])
    keep = np.flatnonzero(np.abs(orb.stab @ chi) > 0.5)
    pos = np.full(len(orb.reps), -1)
    pos[keep] = idx = np.arange(len(keep))
    col = np.column_stack([idx, idx])
    weight = np.zeros((len(keep), 2), dtype=chi.dtype)
    weight[:, 0] = 1.0
    if not real:
        mirror = pos[orb.mirror_rep[keep]]
        phi = np.conj(chi[orb.mirror_elem[keep]])
        one = mirror == idx
        weight[one, 0] = np.sqrt(phi[one])
        r = np.flatnonzero(idx < mirror)
        rs = mirror[r]
        col[r, 1] = col[rs, 1] = rs
        col[rs, 0] = r
        weight[r] = [1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)]
        weight[rs] = phi[r, None] * np.array([1.0, -1j]) / np.sqrt(2.0)
    # sum_j X_j maps u_r onto conj(chi(h_s)) sqrt(|O_r|/|O_s|) u_s for each flip s of r
    src = np.broadcast_to(idx[:, None], orb.flip_rep[keep].shape)
    dst = pos[orb.flip_rep[keep]]
    amp = np.sqrt(orb.orbit[keep][:, None] / orb.orbit[orb.flip_rep[keep]])
    amp = amp * np.conj(chi[orb.flip_elem[keep]])
    inside = dst >= 0
    src, dst, amp = src[inside], dst[inside], amp[inside]
    # W^H X W, expanded entry by entry: each u_r enters two basis vectors at most
    rows = col[dst][:, :, None] + np.zeros(2, dtype=int)
    cols = col[src][:, None, :] + np.zeros((2, 1), dtype=int)
    vals = np.conj(weight[dst])[:, :, None] * amp[:, None, None] * weight[src][:, None, :]
    flip_index, inverse = np.unique((rows * len(keep) + cols).ravel(), return_inverse=True)
    flip = np.zeros(len(flip_index), dtype=complex)
    np.add.at(flip, inverse, vals.ravel())
    return _Sector(keep, chi, col, weight, flip_index, flip)


def _block(ham, j, sign):
    """Real symmetric block (k = 2*pi*j/N, parity ``sign``) of H, and its ``_Sector``."""
    orb = _orbits(ham.n_qubits)
    sec = _sector(ham.n_qubits, j, sign)
    size = len(sec.keep)
    block = np.zeros(size * size)
    block[sec.flip_index] = -ham.flip * sec.flip.real
    block = block.reshape(size, size)
    block[np.diag_indices(size)] += ham.diag[orb.reps[sec.keep]]
    if ham.rank_one and j == 0 and sign > 0:
        # |s> lies in this block alone, with <u_r|s> = sqrt(|O_r|/2^N)
        a = np.sqrt(orb.orbit[sec.keep] / ham.dim)
        block -= ham.rank_one * np.outer(a, a)
    return block, sec


def _lift(n, sec, y):
    """The vectors on all 2^N states of the block vectors ``y`` (columns)."""
    orb = _orbits(n)
    c = sec.weight[:, :1] * y[sec.col[:, 0]] + sec.weight[:, 1:] * y[sec.col[:, 1]]
    pos = np.full(len(orb.reps), -1)
    pos[sec.keep] = np.arange(len(sec.keep))
    inside = np.flatnonzero(pos[orb.rep] >= 0)
    x = np.zeros((2**n, y.shape[1]), dtype=c.dtype)
    amp = sec.chi[orb.elem[inside]] / np.sqrt(orb.orbit[orb.rep[inside]])
    x[inside] = c[pos[orb.rep[inside]]] * amp[:, None]
    return x


def _blocks(ham, signs):
    """(j, sign, copies, block) of every block with parity in ``signs``.

    Blocks k and -k are complex conjugates, so only k = 2*pi*j/N with
    j <= N/2 is built, and each level of a 0 < k < pi block counts
    ``copies`` = 2 times.
    """
    n = ham.n_qubits
    for j in range(n // 2 + 1):
        for sign in signs:
            yield j, sign, 1 if (2 * j) % n == 0 else 2, _block(ham, j, sign)[0]


def _block_solve(ham, m):
    """Lowest m levels of H over every translation x bitflip block (``_blocks``).

    The two real eigenvectors of a level of a 0 < k < pi block are
    sqrt(2) Re x and sqrt(2) Im x of the lifted vector x.  Only the blocks
    that hold a picked level get eigenvectors, and each picked level is
    its Rayleigh quotient in the block in extended precision, which leaves
    only the rounding of the block's entries.  Returns the levels, real
    eigenvectors and parity labels.
    """
    n = ham.n_qubits
    blocks, vals, labels, where = [], [], [], []
    for j, sign, copies, block in _blocks(ham, (1.0, -1.0)):
        levels = np.linalg.eigvalsh(block)
        vals.append(np.repeat(levels, copies))
        labels.append(np.full(copies * len(levels), sign))
        level = np.repeat(np.arange(len(levels)), copies)
        part = np.tile(np.arange(copies), len(levels))
        where.append(np.column_stack([np.full(len(level), len(blocks)), level, part]))
        blocks.append((j, sign))
    vals, labels, where = map(np.concatenate, (vals, labels, where))
    order = _even_first(vals, labels, m)
    vals, labels, where = vals[order], labels[order], where[order]
    vecs = np.empty((ham.dim, m))
    for b in np.unique(where[:, 0]):
        picked = np.flatnonzero(where[:, 0] == b)
        # rebuilt rather than kept: all blocks together hold 46 MB at N=14
        block, sec = _block(ham, *blocks[b])
        y = np.linalg.eigh(block)[1][:, where[picked, 1]]
        yl = y.astype(np.longdouble)
        hy = block.astype(np.longdouble) @ yl
        vals[picked] = np.sum(yl * hy, axis=0) / np.sum(yl * yl, axis=0)
        x = _lift(n, sec, y)
        if np.iscomplexobj(x):
            x = np.sqrt(2.0) * np.where(where[picked, 2] == 0, x.real, x.imag)
        vecs[:, picked] = x
    return vals, vecs, labels


def _grover_solve(ham, m):
    """Lowest m levels of grover's H = 1 - g|w><w| - (1-g)|s><s|, exactly.

    H is 1 on the states orthogonal to |w> and |s>, so only its 2x2 block
    on span{|w>, |s>} needs a solve; in the orthonormal basis |w>, |r> with
    |s> = c|w> + c'|r>, c = 1/sqrt(2^N), its levels are 1/2 -+ gap/2.  The
    marked state |w> is basis state 0.  The vectors of the level 1 come
    from a QR factorisation of |w>, |s> and the basis states 1, 2, ...
    """
    dim = ham.dim
    w = 0
    c = 1.0 / np.sqrt(dim)
    cr = np.sqrt(1.0 - 1.0 / dim)
    block = np.diag([ham.diag[w], 1.0]) - ham.rank_one * np.outer([c, cr], [c, cr])
    pair, y = np.linalg.eigh(block)
    # |r> = (|s> - c|w>)/c' is c/c' on every state but w
    vecs = np.broadcast_to(c / cr * y[1], (dim, 2)).copy()
    vecs[w] = y[0]
    k = max(m - 2, 0)
    if k:
        span = np.zeros((dim, k + 2))
        span[w, 0] = 1.0
        span[:, 1] = c
        span[np.arange(1, k + 1), np.arange(2, k + 2)] = 1.0
        vecs = np.column_stack([vecs, np.linalg.qr(span)[0][:, 2:]])
    vals = np.concatenate([pair, np.ones(k)])
    order = np.argsort(vals, kind="stable")[:m]
    return vals[order], vecs[:, order]


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
    return _eigsh(matvec, dim, k, v0, maxiter=20000, tol=1e-10, ncv=min(dim, max(4 * k, 40)))


def _check_bitflip_symmetric(model):
    if model == "grover":
        raise ValueError("grover is not bitflip symmetric: the flip takes its marked |0...0> to |1...1>")


def _even_first(vals, labels, m):
    """The indices of the lowest m of ``vals``, ascending, each run of tied
    levels listing its even levels first.  A run holds every level within
    ``_TIE_TOL`` above its lowest one, and the next run starts at the first
    level beyond, so no listed level lies more than ``_TIE_TOL`` below the
    one before it.  The walk stops at the first run that starts past the
    m-th level."""
    order = np.argsort(vals, kind="stable")
    s = vals[order]
    run = []  # per sorted level, the position where its run starts
    while len(run) < min(m, s.shape[0]):
        a = len(run)
        # s[a + 1:] - s[a] ascends as s does, so the run is its prefix within _TIE_TOL
        b = a + 1 + int(np.searchsorted(s[a + 1:] - s[a], _TIE_TOL, side="right"))
        run += [a] * (b - a)
    kept = order[:len(run)]
    return kept[np.lexsort((-labels[kept], run))][:m]


def low_spectrum(ham, m, resolve_parity=False):
    """Lowest m eigenpairs with residual certificates.

    Grover goes through its two-level reduction (``_grover_solve``), the
    other models through ``_block_solve``: every translation x bitflip
    block is solved on its own and the levels are merged, even states first
    among levels that tie to within ``_TIE_TOL``.  With ``resolve_parity``
    every level carries that exact parity label, even inside a multiplet
    that spans both sectors.
    """
    _check_count(m, "m", 1, ham.dim)
    labels = None
    if resolve_parity:
        _check_bitflip_symmetric(ham.model)
    if ham.model == "grover":
        vals, vecs = _grover_solve(ham, m)
    elif resolve_parity and ham.model == "mixed_grover_ising" and ham.n_qubits > DENSE_MAX:
        # stays on ARPACK while perfbench/reference/ed_scaling.json holds this path's levels
        sectors = [(sign, *_lanczos_sector(ham, sign, m)) for sign in (1.0, -1.0)]
        vals = np.concatenate([sv for _, sv, _ in sectors])
        labels = np.concatenate([np.full(len(sv), sign) for sign, sv, _ in sectors])
        order = _even_first(vals, labels, m)
        vals = vals[order]
        vecs = np.concatenate([svec for _, _, svec in sectors], axis=1)[:, order]
        labels = labels[order]
    else:
        vals, vecs, labels = _block_solve(ham, m)
        if not resolve_parity:
            labels = None
    residuals = np.linalg.norm(ham.apply(vecs) - vecs * vals, axis=0)
    if np.any(residuals > 1e-8):
        raise NonConvergenceError(f"residuals above contract: {residuals.max():.3e}")
    return LowSpectrum(eigenvalues=vals, eigenvectors=vecs, parity_labels=labels, residuals=residuals)


# Test oracle for the block solve; the traced benchmark (perfbench/layers.py) looks it up here
def parity_resolve(ham, spectrum):
    """Label each eigenvector by the global-bitflip expectation value +-1.

    Degenerate subspaces (runs of levels each within 1e-8 of the one
    before) are rotated to diagonalize the parity operator first, since
    their raw eigenvectors are basis-ambiguous; a run is never cut inside
    a multiplet, even where g*d spaces the levels by the tolerance itself.
    """
    _check_bitflip_symmetric(ham.model)
    perm = bitflip_parity_operator_indices(ham.n_qubits)
    vals = spectrum.eigenvalues
    vecs = spectrum.eigenvectors
    labels = np.zeros(len(vals))
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and abs(vals[j] - vals[j - 1]) < 1e-8:
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


def even_levels(model, n_qubits, g, m):
    """Lowest m levels of the even (bitflip parity +1) sector of H(g), ascending.

    Each model's exact reduction gives them; all 2^(N-1) come back when m is at least that.
    The Ising ring's come from its even translation blocks (``_blocks``).  The mixed model
    H = (1-g)(1 - |s><s|) + g*W, W the domain-wall count, reduces to wall classes: the
    normalized class states |c_d> (all 2*C(N,d) states with d walls, d even) span an
    invariant space of dimension floor(N/2)+1 on which H_r = (1-g)(1 - a a^T) + g*diag(d),
    a_d = sqrt(2*C(N,d)/2^N).  Its orthogonal complement is diagonal: within class d it
    holds C(N,d)-1 even states at energy 1-g+g*d.  Nothing grows like 2^N, so N reaches 1023.
    """
    _check_bitflip_symmetric(model)
    _check_count(m, "m", 1)
    if model != "mixed_grover_ising":
        ham = build_hamiltonian(model, n_qubits, g)
        levels = [np.repeat(np.linalg.eigvalsh(block), copies) for _, _, copies, block in _blocks(ham, (1.0,))]
        return np.sort(np.concatenate(levels))[:m]
    n = _check_count(n_qubits, "n_qubits", 2, 1023)  # 2^N a float
    g = float(_check_g(g))
    d = np.arange(0, n + 1, 2)
    counts = [math.comb(n, int(k)) for k in d]
    a = np.sqrt(2.0 * np.array(counts, dtype=float) / 2.0**n)
    h_r = (1.0 - g) * (np.eye(len(d)) - np.outer(a, a)) + g * np.diag(d.astype(float))
    # C(N,d) grows like 2^N, so each closed-form level is repeated at most m times
    rest = np.repeat(1.0 - g + g * d, [min(c - 1, m) for c in counts])
    return np.sort(np.concatenate([np.linalg.eigvalsh(h_r), rest]))[:m]


def even_parity_ground_energy(model, n_qubits, g):
    """Lowest eigenvalue whose bitflip parity is +1."""
    return float(even_levels(model, n_qubits, g, 1)[0])


def gap(model, n_qubits, g):
    """E1 - E0 within the even bitflip-parity sector."""
    e0, e1 = even_levels(model, n_qubits, g, 2)
    return float(e1 - e0)


def mixed_gap_scaling(n_list, coarse_points=41):
    """Fit ln(min even-sector gap) = c0 - c1*N for the mixed model.

    The avoided-crossing location moves with N, so the minimum is located
    by a coarse scan refined with a golden-section search.
    """
    n_list = sorted(n_list)
    if any(not isinstance(n, (int, np.integer)) or n % 2 or not 4 <= n <= _MIXED_N_MAX for n in n_list):
        raise ValueError(f"n_list must hold even integers in [4, {_MIXED_N_MAX}], got {n_list}")
    if len(set(n_list)) < len(n_list):
        raise ValueError(f"n_list must not repeat a value, got {n_list}")
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
    """Minimum over g of the even-sector gap, with local refinement.

    A coarse scan on [0.02, 0.98] brackets the minimum between the
    neighbours of its lowest point; when that point is the first (last) of
    the scan, the bracket reaches out to g = 0 (g = 1), since the avoided
    crossing of a large system can lie outside the scan.  A golden-section
    search then shrinks the bracket until its width is below ``refine_tol``
    * min(1, gap), so the sharp avoided crossing of a large system is
    resolved relative to its own width.  Every evaluated gap bounds the
    minimum from above, so the lowest one is returned.  Every gap is read
    from the model's exact even-sector reduction (``gap``).
    """
    g_coarse = np.linspace(0.02, 0.98, _check_count(coarse_points, "coarse_points", 1))
    vals = np.array([gap(model, n_qubits, g) for g in g_coarse])
    i = int(np.argmin(vals))
    a = float(g_coarse[i - 1]) if i > 0 else 0.0
    b = float(g_coarse[i + 1]) if i < coarse_points - 1 else 1.0
    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    fc, fd = gap(model, n_qubits, c), gap(model, n_qubits, d)
    best = min(float(vals[i]), fc, fd)
    # the rounding floor ends the search where the bracket cannot shrink further
    while b - a > max(refine_tol * min(1.0, best), 8.0 * np.finfo(float).eps * b):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = gap(model, n_qubits, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = gap(model, n_qubits, d)
        best = min(best, fc, fd)
    return best

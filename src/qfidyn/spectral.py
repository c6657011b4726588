"""Exact diagonalization and Gibbs thermal ensembles.

Everything downstream works in the energy eigenbasis, so the decomposition
is certified once here (orthonormality and reconstruction) and then trusted.
A Hamiltonian with no imaginary part, which every preset has, is
diagonalized in real arithmetic and keeps real eigenvectors, so operators
without an imaginary part stay real in the eigenbasis too.

Block rule: the basis states split into the connected components of H's
exact nonzero pattern (H_ij != 0 or H_ji != 0 links i and j).  H has no
entry between two components, so each component is an invariant subspace
and is diagonalized on its own; for a chain conserving total S^z these are
the magnetization sectors.  The eigenvector matrix stays the dense unitary,
with exact zeros outside the blocks, and to_eigenbasis multiplies only the
block pairs an operator links.  Selection-rule zeros are therefore exact:
an eigenbasis entry between blocks the operator does not link is 0.0, not
rounding.  A matrix with a connected pattern is one block and takes the
same single dense solve as before.

Thermal weights are stored together with their logarithms; the logs keep
weight ratios exact even when the weights themselves underflow.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DomainError, NumericError
from .operators import _as_matrix, _real_if_exact

# Level pairs whose combined weight falls below this floor carry no
# statistical weight and are skipped in all downstream pair sums.
PAIR_WEIGHT_FLOOR = 1e-15

# Relative tolerance for the eigendecomposition certificate.
DECOMP_RTOL = 1e-10


def default_energy_tol(energies):
    """Degeneracy threshold scaled to the spectral norm: 1e-9 * max(1, |E|_max)."""
    energies = np.asarray(energies, dtype=float)
    scale = float(np.abs(energies).max()) if energies.size else 0.0
    return 1e-9 * max(1.0, scale)


def _ix(rows, cols, shape):
    """Index of the rows x cols sub-block of an array of this shape: a plain
    view (...) when the index sets cover the whole array."""
    if rows.size == shape[0] and cols.size == shape[1]:
        return ...
    return rows[:, None], cols


def _index_pair(pair, dim):
    """One block's (basis, eigen-column) index sets as sorted intp arrays."""
    try:
        rows, cols = (np.asarray(idx) for idx in pair)
    except (TypeError, ValueError):
        raise DomainError("a block must be a (basis indices, eigen-column indices) pair") from None
    integer = rows.dtype.kind in "iu" and cols.dtype.kind in "iu"
    if rows.ndim != 1 or rows.shape != cols.shape or not integer:
        raise DomainError("a block needs two 1-d integer index arrays of one size")
    pair = (np.sort(rows).astype(np.intp), np.sort(cols).astype(np.intp))
    for idx in pair:
        idx.setflags(write=False)
    return pair


def _pattern_blocks(mat):
    """Basis index sets of the connected components of mat's nonzero
    pattern, symmetrized with its transpose: each set ascending, the sets
    ordered by their smallest index.

    Breadth-first search over rows of the boolean pattern, so no edge list
    is built: each state is a frontier row once, O(dim^2) work in all.
    """
    linked = mat != 0
    linked = linked | linked.T
    unseen = np.ones(mat.shape[0], dtype=bool)
    blocks = []
    while unseen.any():
        frontier = np.array([np.argmax(unseen)])
        member = np.zeros_like(unseen)
        member[frontier] = True
        while frontier.size:
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & ~member)
            member[frontier] = True
        unseen &= ~member
        blocks.append(np.flatnonzero(member))
    return blocks


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending), the unitary of eigencolumns, degeneracy tol.

    vectors is float64 when it is real (the real-symmetric case of
    diagonalize) and complex128 otherwise.  blocks records the invariant
    subspaces as (basis indices, eigen-column indices) pairs: vectors is
    zero outside the rows x columns of its blocks, and each index kind
    partitions range(dim).  The default is one block holding everything.
    vectors is copied before it is frozen, except when diagonalize hands
    over a fresh array of its own (_fresh).
    """

    energies: np.ndarray
    vectors: np.ndarray
    energy_tol: float = field(default=None)
    blocks: tuple = field(default=None)
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        e = np.array(self.energies, dtype=float)
        u = _real_if_exact(self.vectors if _fresh else np.array(self.vectors))
        if e.ndim != 1 or u.shape != (e.size, e.size):
            raise DomainError(
                f"inconsistent decomposition shapes: energies {e.shape}, vectors {u.shape}"
            )
        if np.any(np.diff(e) < 0):
            raise DomainError("energies must be sorted ascending")
        whole = np.arange(e.size)
        blocks = ((whole, whole),) if self.blocks is None else self.blocks
        blocks = tuple(_index_pair(pair, e.size) for pair in blocks)
        for kind, sets in (("basis", 0), ("eigen-column", 1)):
            covered = np.sort(np.concatenate([whole[:0]] + [pair[sets] for pair in blocks]))
            if not np.array_equal(covered, whole):
                raise DomainError(f"block {kind} indices must partition range({e.size})")
        if len(blocks) > 1:
            inside = sum(np.count_nonzero(u[rows[:, None], cols]) for rows, cols in blocks)
            if inside != np.count_nonzero(u):
                raise DomainError("vectors must vanish outside their blocks")
        e.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "vectors", u)
        object.__setattr__(self, "blocks", blocks)
        tol = self.energy_tol
        object.__setattr__(
            self, "energy_tol", default_energy_tol(e) if tol is None else float(tol)
        )

    @property
    def dim(self):
        return self.energies.size

    def degeneracy_groups(self, tol=None):
        """Partition level indices into degenerate groups.

        Greedy split of the sorted spectrum: a gap above tol opens a new
        group.  Returns (start, stop) index ranges.
        """
        tol = self.energy_tol if tol is None else float(tol)
        groups = []
        start = 0
        for i in range(1, self.dim):
            if self.energies[i] - self.energies[i - 1] > tol:
                groups.append((start, i))
                start = i
        groups.append((start, self.dim))
        return groups

    def to_eigenbasis(self, op):
        """Conjugate an operator into the eigenbasis: V^dag O V.

        Real vectors and an operator with no imaginary part give a float64
        result, multiplied in real arithmetic; otherwise it is complex.
        """
        mat = _real_if_exact(_as_matrix(op))
        if mat.shape != (self.dim, self.dim):
            raise DomainError(f"operator shape {mat.shape} does not match dim {self.dim}")
        row_block = np.empty(self.dim, dtype=np.intp)
        col_block = np.empty(self.dim, dtype=np.intp)
        for k, (rows, cols) in enumerate(self.blocks):
            row_block[rows] = k
            col_block[cols] = k
        # links[a, b]: O has a nonzero entry in block a's rows, block b's columns
        nonzero = mat != 0
        links = np.zeros((len(self.blocks),) * 2, dtype=bool)
        for a, (rows, _) in enumerate(self.blocks):
            links[a, row_block[nonzero[rows].any(axis=0)]] = True
        del nonzero
        # (V^dag O) V, grouped as the dense product: V^dag O is built from
        # the linked block pairs only, then multiplied by V column block by
        # column block.
        vs = [self.vectors[_ix(rows, cols, self.vectors.shape)] for rows, cols in self.blocks]
        dtype = np.result_type(self.vectors, mat)
        left = np.zeros((self.dim, self.dim), dtype)
        for (rows, cols), v, linked in zip(self.blocks, vs, links):
            near = np.flatnonzero(linked[row_block])
            left[_ix(cols, near, left.shape)] = v.conj().T @ mat[_ix(rows, near, mat.shape)]
        out = np.zeros((self.dim, self.dim), dtype)
        for (rows, cols), v, linked in zip(self.blocks, vs, links.T):
            near = np.flatnonzero(linked[col_block])
            out[_ix(near, cols, out.shape)] = left[_ix(near, rows, left.shape)] @ v
        return out

    def summary(self, tol=None):
        return {
            "dim": int(self.dim),
            "energies": [float(e) for e in self.energies],
            "degeneracies": [int(b - a) for a, b in self.degeneracy_groups(tol)],
        }


def diagonalize(hamiltonian, energy_tol=None):
    """Exact diagonalization with a posteriori certificates.

    The Hamiltonian is solved block by block over the connected components
    of its nonzero pattern (the block rule above), and the eigenvalues are
    merged in ascending order; ties keep block order.  A Hamiltonian with no
    imaginary part goes to the real-symmetric solver and yields float64
    eigenvectors; any other goes to the complex Hermitian one.  Each block's
    eigenvector matrix is checked to be unitary and to reconstruct its block
    of the input, both to DECOMP_RTOL relative to the global spectral scale,
    in the arithmetic of the solve.  Off the blocks both the input and the
    reconstruction are exactly zero, so these are the full-matrix maxima.
    Failure raises NumericError since it signals lost accuracy, not bad
    input.  energy_tol seeds the decomposition's degeneracy threshold.
    """
    mat = _real_if_exact(_as_matrix(hamiltonian, "hamiltonian"))
    dim = mat.shape[0]
    if dim == 0:
        raise DomainError("hamiltonian must not be empty")
    basis = _pattern_blocks(mat)
    subs = [mat[_ix(rows, rows, mat.shape)] for rows in basis]
    solved = [np.linalg.eigh(sub) for sub in subs]
    merged = np.concatenate([e for e, _ in solved])
    order = np.argsort(merged, kind="stable")
    energies = merged[order]
    column = np.empty(dim, dtype=np.intp)
    column[order] = np.arange(dim)
    scale = max(1.0, float(np.abs(energies).max()))
    unit_dev = rec_dev = 0.0
    vectors = np.zeros((dim, dim), dtype=solved[0][1].dtype)
    blocks = []
    start = 0
    for rows, sub, (e, v) in zip(basis, subs, solved):
        gram = v.conj().T @ v
        gram.flat[:: e.size + 1] -= 1.0
        unit_dev = max(unit_dev, float(np.abs(gram).max()))
        rec = v @ (e[:, None] * v.conj().T) - sub
        rec_dev = max(rec_dev, float(np.abs(rec).max()))
        cols = column[start : start + e.size]
        start += e.size
        vectors[_ix(rows, cols, vectors.shape)] = v
        blocks.append((rows, cols))
    if unit_dev > DECOMP_RTOL:
        raise NumericError(f"eigenvector matrix not unitary: max deviation {unit_dev:.3e}")
    if rec_dev > DECOMP_RTOL * scale:
        raise NumericError(
            f"eigendecomposition does not reconstruct the input: "
            f"max deviation {rec_dev:.3e} against scale {scale:.3e}"
        )
    return SpectralDecomposition(energies, vectors, energy_tol, tuple(blocks), _fresh=True)


@dataclass(frozen=True)
class ThermalEnsemble:
    """Gibbs weights p_n over a spectrum at fixed inverse temperature.

    log_weights holds ln p_n with -inf for exact zeros; spectral keeps the
    originating decomposition when the ensemble was built from one.
    """

    beta: float
    energies: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray
    spectral: SpectralDecomposition = None

    def __post_init__(self):
        e = np.array(self.energies, dtype=float)
        w = np.array(self.weights, dtype=float)
        lw = np.array(self.log_weights, dtype=float)
        if not (e.shape == w.shape == lw.shape) or e.ndim != 1 or e.size == 0:
            raise DomainError("energies, weights and log_weights must share one 1-d shape")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-12 * e.size or w.min() < 0:
            raise NumericError(f"thermal weights invalid: sum {total!r}, min {w.min()!r}")
        for arr in (e, w, lw):
            arr.setflags(write=False)
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "log_weights", lw)

    @property
    def dim(self):
        return self.energies.size

    def summary(self):
        return {
            "beta": self.beta if math.isfinite(self.beta) else "inf",
            "energies": [float(e) for e in self.energies],
            "weights": [float(w) for w in self.weights],
        }


def gibbs_weights(spectral, beta):
    """Gibbs ensemble p_n = exp(-beta(E_n - E_min)) / Z at inverse temperature beta.

    Accepts a SpectralDecomposition or a bare energy vector.  beta = math.inf
    puts uniform weight on the ground degeneracy group (within the
    decomposition's energy tolerance); negative beta is rejected.
    """
    if isinstance(spectral, SpectralDecomposition):
        energies, tol, ref = spectral.energies, spectral.energy_tol, spectral
    else:
        energies = np.asarray(spectral, dtype=float)
        tol, ref = default_energy_tol(energies), None
    if energies.ndim != 1 or energies.size == 0:
        raise DomainError(f"energies must be a nonempty 1-d array, got shape {energies.shape}")
    beta = float(beta)
    if beta < 0:
        raise DomainError(f"inverse temperature must be nonnegative, got {beta}")
    if math.isinf(beta):
        ground = energies <= energies.min() + tol
        g = int(np.count_nonzero(ground))
        weights = np.where(ground, 1.0 / g, 0.0)
        logw = np.where(ground, -math.log(g), -np.inf)
    else:
        shifted = -beta * (energies - energies.min())
        logw = shifted - float(np.logaddexp.reduce(shifted))
        weights = np.exp(logw)
    return ThermalEnsemble(beta, energies, weights, logw, spectral=ref)


def thermal_expectation(op_eig, ensemble):
    """<O> = sum_n p_n O_nn for an operator expressed in the eigenbasis.

    Returns a float when the weighted diagonal is real to rounding (the
    Hermitian case), otherwise the complex value.
    """
    mat = _as_matrix(op_eig)
    if mat.shape != (ensemble.dim, ensemble.dim):
        raise DomainError(f"operator shape {mat.shape} does not match dim {ensemble.dim}")
    val = complex(np.dot(ensemble.weights, np.diagonal(mat)))
    if abs(val.imag) <= 1e-12 * max(1.0, abs(val)):
        return val.real
    return val

"""Exact diagonalization and Gibbs thermal ensembles.

Everything downstream works in the energy eigenbasis, so the decomposition
is certified once here (orthonormality and reconstruction) and then trusted.
A Hamiltonian with no imaginary part, which every preset has, is
diagonalized in real arithmetic and keeps real eigenvectors, so operators
without an imaginary part stay real in the eigenbasis too.

Block rule: the basis states split into the connected components of H's
exact nonzero pattern (H_ij != 0 or H_ji != 0 links i and j), found from
H's entries: a SparseOperator's own, or np.nonzero of a dense matrix a
row block at a time.  H has no entry between two components, so each
component is an invariant subspace and is diagonalized on its own; for a
chain conserving total S^z these are the magnetization sectors.  A dense
matrix's blocks are slices of it; a matrix with a connected pattern is one
block and goes to the solver as it is.  The decomposition keeps
one eigenvector matrix V_a per block, over the block's basis states and
its eigen-columns; the dense unitary is assembled only when vectors is
read.  An operator goes to the eigenbasis one linked block pair at a time,
V_a^dag O_ab V_b, over the ordered pairs (a, b) between which it has an
entry (to_eigenblocks); to_eigenbasis scatters those products into a dense
matrix.  Selection-rule zeros are therefore exact: an eigenbasis entry
between blocks the operator does not link is 0.0, not rounding.

Thermal weights are stored together with their logarithms; the logs keep
weight ratios exact even when the weights themselves underflow.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._frozen import Frozen
from .errors import DomainError, NumericError
from .operators import (
    _ROW_CHUNK,
    SparseOperator,
    _as_matrix,
    _hermitian_deviation,
    _real_if_exact,
    _require_hermitian,
)

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


def _operand(op, what="operator"):
    """op as a SparseOperator, or as a square matrix that is float64 when it
    has no imaginary part."""
    if isinstance(op, SparseOperator):
        return op
    return _real_if_exact(_as_matrix(op, what))


def _edge_chunks(op):
    """The positions of op's entries as (rows, cols) chunks: a
    SparseOperator's own, or np.nonzero of a matrix over row blocks of
    _ROW_CHUNK entries, so that no dim^2 index list is made."""
    if isinstance(op, SparseOperator):
        yield op.rows, op.cols
        return
    step = max(1, _ROW_CHUNK // op.shape[1])
    for lo in range(0, op.shape[0], step):
        rows, cols = np.nonzero(op[lo : lo + step])
        yield rows + lo, cols


def _components(op):
    """Basis index sets of the connected components of op's pattern, an
    entry at (i, j) joining i and j: each set ascending, the sets ordered by
    their smallest index.

    Union-find on arrays: every edge hooks the larger of its two roots
    under the smaller, then pointer jumping flattens the forest, until a
    pass over all edge chunks finds each edge joining one root.  A root is
    then its component's smallest index.
    """
    root = np.arange(op.shape[0])
    joined = False
    while not joined:
        joined = True
        for rows, cols in _edge_chunks(op):
            ra, rb = root[rows], root[cols]
            if np.array_equal(ra, rb):
                continue
            joined = False
            low = np.minimum(ra, rb)
            np.minimum.at(root, ra, low)
            np.minimum.at(root, rb, low)
            while not np.array_equal(root[root], root):
                root = root[root]
    order = np.argsort(root, kind="stable")
    return _runs(order, root[order])


def _runs(order, sorted_keys):
    """order cut into its runs of equal sorted_keys."""
    cuts = [0, *(np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1).tolist(), order.size]
    return [order[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]


def _block_index(sets, dim):
    """(block of each basis state, its position within the block)."""
    order = np.concatenate(sets)
    sizes = np.array([idx.size for idx in sets])
    block_of = np.empty(dim, dtype=np.intp)
    local = np.empty(dim, dtype=np.intp)
    block_of[order] = np.repeat(np.arange(len(sets)), sizes)
    local[order] = np.arange(dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return block_of, local


def _linked_blocks(op, sets, block_of, local):
    """{(a, b): the dense sub-matrix of op between basis blocks a and b}
    over every ordered block pair holding an entry of op.  A matrix is
    sliced with the blocks' index sets (itself when there is one block); a
    SparseOperator's entries are scattered into zeroed sub-matrices."""
    if isinstance(op, np.ndarray):
        if len(sets) == 1:
            return {(0, 0): op} if op.any() else {}
        # links[a, b]: op has a nonzero entry in block a's rows, block b's
        # columns; the pattern is permuted into block order and or-reduced
        order = np.concatenate(sets)
        starts = np.flatnonzero(np.diff(block_of[order], prepend=-1))
        links = (op != 0)[order[:, None], order]
        links = np.logical_or.reduceat(np.logical_or.reduceat(links, starts, 0), starts, 1)
        linked = zip(*map(list, np.nonzero(links)))
        return {(a, b): op[sets[a][:, None], sets[b]] for a, b in linked}
    a, b = block_of[op.rows], block_of[op.cols]
    link = a * len(sets) + b
    order = np.argsort(link, kind="stable")
    subs = {}
    for idx in _runs(order, link[order]):
        pair = int(a[idx[0]]), int(b[idx[0]])
        sub = np.zeros((sets[pair[0]].size, sets[pair[1]].size), dtype=op.dtype)
        sub[local[op.rows[idx]], local[op.cols[idx]]] = op.values[idx]
        subs[pair] = sub
    return subs


def _index_pair(pair):
    """One block's (basis, eigen-column) index sets as sorted intp arrays."""
    try:
        rows, cols = (np.asarray(idx) for idx in pair)
    except (TypeError, ValueError):
        raise DomainError("a block must be a (basis indices, eigen-column indices) pair") from None
    integer = rows.dtype.kind in "iu" and cols.dtype.kind in "iu"
    if rows.ndim != 1 or rows.shape != cols.shape or not integer:
        raise DomainError("a block needs two 1-d integer index arrays of one size")
    return np.sort(rows).astype(np.intp), np.sort(cols).astype(np.intp)


class BlockOperator(Frozen):
    """An eigenbasis operator as dense blocks: products[(a, b)] is its
    sub-matrix between the eigen-columns of blocks a and b (columns[a] and
    columns[b], each ascending), and every entry outside these blocks is
    exactly 0."""

    _fields = ("columns", "products", "dim", "dtype")

    def __init__(self, columns, products, dim, dtype):
        self.__dict__.update(columns=columns, products=products, dim=dim, dtype=dtype)

    def dense(self):
        out = np.zeros((self.dim, self.dim), dtype=self.dtype)
        for (a, b), block in self.products.items():
            out[self.columns[a][:, None], self.columns[b]] = block
        return out

    def pairs(self, name="operator"):
        """(rows, cols, values) over the pairs m <= n where O_mn or O_nm is
        nonzero, with the entries O_mn, ascending in m * dim + n.  Each block
        pair {a, b} adds only a key m * dim + n and a value per pair
        (_linked_entries), so its index arrays die with it; one argsort of
        the keys orders them and np.divmod splits them into rows and cols.
        The operator is certified Hermitian by the eigenbasis rule of
        _require_hermitian on the way."""
        dev = scale = 0.0
        keys, values = [np.zeros(0, np.int64)], [np.zeros(0, self.dtype)]
        for lo, hi in sorted({(min(a, b), max(a, b)) for a, b in self.products}):
            fwd, bwd = self.products.get((lo, hi)), self.products.get((hi, lo))
            if fwd is None:
                fwd = np.zeros_like(bwd.T)
            if bwd is None:
                bwd = np.zeros_like(fwd.T)
            dev_pair, scale_pair = _hermitian_deviation(fwd, bwd)
            if lo != hi:
                scale_pair = max(scale_pair, float(np.abs(bwd).max()))
            dev, scale = max(dev, dev_pair), max(scale, scale_pair)
            key, value = _linked_entries(fwd, bwd, self.columns[lo], self.columns[hi], self.dim)
            keys.append(key)
            values.append(value)
        _require_hermitian(dev, scale, name)
        # each list is freed as its concatenation replaces it
        keys = np.concatenate(keys)
        values = np.concatenate(values)
        # each block pair adds ascending runs of keys, which a stable sort
        # merges; the keys are distinct, so the order is the same either way
        order = np.argsort(keys, kind="stable")
        values = _real_if_exact(values[order])
        keys = keys[order]
        del order
        rows, cols = np.divmod(keys, self.dim)
        return rows, cols, values


def _linked_entries(fwd, bwd, rows_of, cols_of, dim):
    """(keys m * dim + n, values O_mn) of the pairs m <= n that one block
    pair links: fwd holds O between the eigen-columns rows_of and cols_of,
    bwd the block between cols_of and rows_of (for a diagonal block both
    are the one block and rows_of is cols_of), and a pair is linked when
    O_mn or O_nm is nonzero."""
    linked = (fwd != 0) | (bwd.T != 0)
    # eigen-columns ascend within a block, so i <= j is m <= n there
    i, j = np.nonzero(np.triu(linked) if rows_of is cols_of else linked)
    del linked
    m = rows_of[i].astype(np.int64, copy=False)
    n = cols_of[j].astype(np.int64, copy=False)
    value = fwd[i, j]
    below = np.flatnonzero(m > n)
    value[below] = bwd[j[below], i[below]]
    m[below], n[below] = n[below], m[below]
    m *= dim
    m += n
    return m, value


class SpectralDecomposition(Frozen):
    """Eigenvalues (ascending), eigenvectors per invariant block, degeneracy
    tol.

    blocks records the invariant subspaces as (basis indices, eigen-column
    indices) pairs, each ascending; each index kind partitions range(dim).
    block_vectors[k] is block k's eigenvector matrix, rows over its basis
    states and columns over its eigen-columns: float64 when real (the
    real-symmetric case of diagonalize), complex128 otherwise.  vectors is
    the dense unitary, zero outside the blocks, assembled on first read.

    Built from dense vectors, with blocks defaulting to one block holding
    everything, the vectors are copied and must vanish outside their
    blocks; diagonalize hands over the blocks it solved instead.
    Instances are immutable.
    """

    _fields = ("energies", "energy_tol", "blocks", "block_vectors")

    def __init__(self, energies, vectors, energy_tol=None, blocks=None):
        e = np.array(energies, dtype=float)
        u = _real_if_exact(np.array(vectors))
        if e.ndim != 1 or u.shape != (e.size, e.size):
            raise DomainError(
                f"inconsistent decomposition shapes: energies {e.shape}, vectors {u.shape}"
            )
        whole = np.arange(e.size)
        pairs = ((whole, whole),) if blocks is None else tuple(map(_index_pair, blocks))
        for kind, sets in (("basis", 0), ("eigen-column", 1)):
            covered = np.sort(np.concatenate([whole[:0]] + [pair[sets] for pair in pairs]))
            if not np.array_equal(covered, whole):
                raise DomainError(f"block {kind} indices must partition range({e.size})")
        if len(pairs) == 1:
            parts = [u]
        else:
            parts = [u[rows[:, None], cols] for rows, cols in pairs]
            if sum(np.count_nonzero(v) for v in parts) != np.count_nonzero(u):
                raise DomainError("vectors must vanish outside their blocks")
        self._freeze(e, energy_tol, pairs, parts)

    @classmethod
    def _from_blocks(cls, energies, energy_tol, blocks, block_vectors):
        """A decomposition from solved blocks, trusted as given."""
        self = cls.__new__(cls)
        self._freeze(energies, energy_tol, blocks, block_vectors)
        return self

    def _freeze(self, energies, energy_tol, blocks, block_vectors):
        if np.any(np.diff(energies) < 0):
            raise DomainError("energies must be sorted ascending")
        for arr in (energies, *block_vectors, *(idx for pair in blocks for idx in pair)):
            arr.setflags(write=False)
        tol = default_energy_tol(energies) if energy_tol is None else float(energy_tol)
        self.__dict__.update(energies=energies, energy_tol=tol, blocks=tuple(blocks),
                             block_vectors=tuple(block_vectors))

    @property
    def dim(self):
        return self.energies.size

    @cached_property
    def vectors(self):
        if len(self.blocks) == 1:
            return self.block_vectors[0]
        out = np.zeros((self.dim, self.dim), dtype=self.block_vectors[0].dtype)
        for (rows, cols), v in zip(self.blocks, self.block_vectors):
            out[rows[:, None], cols] = v
        out.setflags(write=False)
        return out

    @cached_property
    def _basis_index(self):
        sets = [rows for rows, _ in self.blocks]
        return (sets, *_block_index(sets, self.dim))

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

    def to_eigenblocks(self, op):
        """op (a matrix or a SparseOperator) in the eigenbasis as a
        BlockOperator: (V_a^dag O_ab) V_b for every ordered block pair
        (a, b) between whose basis states op has an entry.  Real vectors
        and an operator with no imaginary part multiply in real arithmetic
        and give float64 blocks; otherwise they are complex."""
        op = _operand(op)
        if op.shape[0] != self.dim:
            raise DomainError(f"operator dim {op.shape[0]} does not match dim {self.dim}")
        vs = self.block_vectors
        products = {
            (a, b): (vs[a].conj().T @ sub) @ vs[b]
            for (a, b), sub in _linked_blocks(op, *self._basis_index).items()
        }
        columns = tuple(cols for _, cols in self.blocks)
        return BlockOperator(columns, products, self.dim, np.result_type(vs[0], op.dtype))

    def to_eigenbasis(self, op):
        """Conjugate an operator into the eigenbasis, V^dag O V, as a dense
        matrix: to_eigenblocks scattered into place."""
        return self.to_eigenblocks(op).dense()

    def summary(self, tol=None):
        return {
            "dim": int(self.dim),
            "energies": [float(e) for e in self.energies],
            "degeneracies": [int(b - a) for a, b in self.degeneracy_groups(tol)],
        }


def diagonalize(hamiltonian, energy_tol=None):
    """Exact diagonalization with a posteriori certificates.

    hamiltonian is a matrix or a SparseOperator.  It is solved block by
    block over the connected components of its nonzero pattern (the block
    rule above), and the eigenvalues are merged in ascending order; ties
    keep block order.  A Hamiltonian with no imaginary part goes to the
    real-symmetric solver and yields float64 eigenvectors; any other goes to
    the complex Hermitian one.  Each block's eigenvector matrix is checked
    to be unitary and to reconstruct its block of the input, both to
    DECOMP_RTOL relative to the global spectral scale, in the arithmetic of
    the solve.  Off the blocks both the input and the reconstruction are
    exactly zero, so these are the full-matrix maxima.  Failure raises
    NumericError since it signals lost accuracy, not bad input.  energy_tol
    seeds the decomposition's degeneracy threshold.
    """
    h = _operand(hamiltonian, "hamiltonian")
    dim = h.shape[0]
    if dim == 0:
        raise DomainError("hamiltonian must not be empty")
    basis = _components(h)
    linked = _linked_blocks(h, basis, *_block_index(basis, dim))
    subs = [
        linked.get((k, k), np.zeros((rows.size,) * 2, dtype=h.dtype))
        for k, rows in enumerate(basis)
    ]
    solved = [np.linalg.eigh(sub) for sub in subs]
    merged = np.concatenate([e for e, _ in solved])
    order = np.argsort(merged, kind="stable")
    energies = merged[order]
    column = np.empty(dim, dtype=np.intp)
    column[order] = np.arange(dim)
    scale = max(1.0, float(np.abs(energies).max()))
    unit_dev = rec_dev = 0.0
    blocks = []
    start = 0
    for rows, sub, (e, v) in zip(basis, subs, solved):
        gram = v.conj().T @ v
        gram.flat[:: e.size + 1] -= 1.0
        unit_dev = max(unit_dev, float(np.abs(gram).max()))
        rec = v @ (e[:, None] * v.conj().T) - sub
        rec_dev = max(rec_dev, float(np.abs(rec).max()))
        blocks.append((rows, column[start : start + e.size]))
        start += e.size
    if unit_dev > DECOMP_RTOL:
        raise NumericError(f"eigenvector matrix not unitary: max deviation {unit_dev:.3e}")
    if rec_dev > DECOMP_RTOL * scale:
        raise NumericError(
            f"eigendecomposition does not reconstruct the input: "
            f"max deviation {rec_dev:.3e} against scale {scale:.3e}"
        )
    vectors = [v for _, v in solved]
    return SpectralDecomposition._from_blocks(energies, energy_tol, blocks, vectors)


class ThermalEnsemble(Frozen):
    """Gibbs weights p_n over a spectrum at fixed inverse temperature.

    log_weights holds ln p_n with -inf for exact zeros; spectral keeps the
    originating decomposition when the ensemble was built from one.
    Energies and weights must be finite, the weights nonnegative with sum 1.
    """

    _fields = ("beta", "energies", "weights", "log_weights", "spectral")

    def __init__(self, beta, energies, weights, log_weights, spectral=None):
        e = np.array(energies, dtype=float)
        w = np.array(weights, dtype=float)
        lw = np.array(log_weights, dtype=float)
        if not (e.shape == w.shape == lw.shape) or e.ndim != 1 or e.size == 0:
            raise DomainError("energies, weights and log_weights must share one 1-d shape")
        if not np.isfinite(e).all():
            raise DomainError("energies must be finite")
        total = float(w.sum())
        # negated, so that a NaN or infinite weight, which makes the sum NaN
        # or infinite, fails it too
        if not (abs(total - 1.0) <= 1e-12 * e.size and w.min() >= 0):
            raise NumericError(f"thermal weights invalid: sum {total!r}, min {w.min()!r}")
        for arr in (e, w, lw):
            arr.setflags(write=False)
        self.__dict__.update(beta=float(beta), energies=e, weights=w, log_weights=lw,
                             spectral=spectral)

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
    decomposition's energy tolerance); a negative or NaN beta is rejected.
    """
    if isinstance(spectral, SpectralDecomposition):
        energies, tol, ref = spectral.energies, spectral.energy_tol, spectral
    else:
        energies = np.asarray(spectral, dtype=float)
        tol, ref = default_energy_tol(energies), None
    if energies.ndim != 1 or energies.size == 0:
        raise DomainError(f"energies must be a nonempty 1-d array, got shape {energies.shape}")
    beta = float(beta)
    if not beta >= 0:
        raise DomainError(f"inverse temperature beta must be nonnegative, got {beta}")
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

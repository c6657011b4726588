"""Exact diagonalization and Gibbs thermal ensembles.

Everything downstream works in the energy eigenbasis, so the decomposition
is certified once here (orthonormality and reconstruction) and then trusted.
A Hamiltonian with no imaginary part, which every preset has, is
diagonalized in real arithmetic and keeps real eigenvectors, so operators
without an imaginary part stay real in the eigenbasis too.

Every site-basis input is a SparseOperator: a dense matrix is read once as
its nonzero entries (SparseOperator.from_dense).  Block rule, in two steps.
First the basis states split into the connected components of H's exact
nonzero pattern (H_ij != 0 or H_ji != 0 links i and j).  H has no entry
between two components, so each is an invariant subspace; for a chain
conserving total S^z these are the magnetization sectors.  Second, on a
chain of n sites (dim 2^n), when H commutes with the site reflection
P: j -> n-1-j to within REFLECTION_RTOL, each component that P maps onto
itself splits into a P-even and a P-odd block over the orthonormal basis
(|s> + |Ps>)/sqrt(2) and (|s> - |Ps>)/sqrt(2), s < Ps, with |s> alone,
P-even, for a state P fixes.  Every block is diagonalized on its own, its
matrix summed straight from H's entries.  The two parity blocks of a
component share its basis states: SpectralDecomposition keys the basis sets
by component and the eigen-columns by block, and keeps one eigenvector
matrix per block over the block's own basis, never the dense unitary.

An operator goes to the eigenbasis one linked block pair at a time,
W_a^dag (B_a^T O B_b) W_b, over the ordered pairs (a, b) between whose
components it has an entry (to_eigenblocks): B_a is block a's basis, so the
middle factor is again summed from O's entries, and each product is made
on each call of BlockOperator.block and never stored; to_eigenbasis
scatters them into a dense matrix.  An operator with P O P = sigma O (sigma = +-1, to within
REFLECTION_RTOL) has no entry between parities whose product is -sigma, so
those block pairs are never linked.  Selection-rule zeros, of S^z and of
the reflection, are therefore exact: an eigenbasis entry between blocks the
operator does not link is 0.0, not rounding, and degenerate levels are
parity eigenstates, so which pairs are linked does not depend on how eigh
mixes a degenerate subspace.

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
    SparseOperator,
    _chunks,
    _hermitian_deviation,
    _keys,
    _operand,
    _real_if_exact,
    _require_hermitian,
    _square,
)

# Level pairs whose combined weight falls below this floor carry no
# statistical weight and are skipped in all downstream pair sums.
PAIR_WEIGHT_FLOOR = 1e-15

# Relative tolerance for the eigendecomposition certificate.
DECOMP_RTOL = 1e-10

# Tolerance of the reflection test, max |O_{Ps,Pt} - sigma O_st| against
# the operator's largest entry max |O|, so that the test does not depend on
# the operator's scale: a sum of Pauli strings adds its terms in string
# order, so the field sum of a state and that of its mirror image can
# differ in the last bit (by at most 9.3e-17 of max |H| on the chain
# presets up to 12 sites).
REFLECTION_RTOL = 1e-12

# |coefficient| of an entry O_xy in a block pair's matrix B_a^T O B_b, by
# how many of x and y lie in a reflection pair: 1, 1/sqrt(2) or exactly 1/2.
_SCALES = np.array([1.0, math.sqrt(0.5), 0.5])


def default_energy_tol(energies):
    """Degeneracy threshold scaled to the spectral norm: 1e-9 * max(1, |E|_max)."""
    energies = np.asarray(energies, dtype=float)
    scale = float(np.abs(energies).max()) if energies.size else 0.0
    return 1e-9 * max(1.0, scale)


def _components(op):
    """Basis index sets of the connected components of op's entries, one at
    (i, j) joining i and j: each set ascending, ordered by smallest index.

    Union-find on arrays: every entry hooks the larger of its two roots
    under the smaller, then pointer jumping flattens the forest, until each
    entry joins one root; a root is then its component's smallest index.
    """
    root = np.arange(op.shape[0])
    while True:
        ra, rb = root[op.rows], root[op.cols]
        if np.array_equal(ra, rb):
            break
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
    """(set of each basis state, its position within the set) for disjoint
    basis sets covering range(dim)."""
    order = np.concatenate(sets)
    sizes = np.array([idx.size for idx in sets])
    block_of = np.empty(dim, dtype=np.intp)
    local = np.empty(dim, dtype=np.intp)
    block_of[order] = np.repeat(np.arange(len(sets)), sizes)
    local[order] = np.arange(dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return block_of, local


def _links(op, set_of, count):
    """{(g, h): the indices of op's entries from basis set g to set h} over
    every ordered pair of the count sets that holds an entry."""
    a, b = set_of[op.rows], set_of[op.cols]
    link = a * count + b
    order = np.argsort(link, kind="stable")
    return {(int(a[idx[0]]), int(b[idx[0]])): idx for idx in _runs(order, link[order])}


def _reflection(dim):
    """P s for every basis state s of a chain, its n bits in reverse order,
    or None when dim is not 2^n: only a chain has a site reflection."""
    n = dim.bit_length() - 1
    if dim != 1 << n:
        return None
    states = np.arange(dim)
    out = np.zeros_like(states)
    for k in range(n):
        out |= (states >> k & 1) << (n - 1 - k)
    return out


def _reflection_sign(op, mirror):
    """(sigma, deviation): sigma = +1 or -1 when P O P = sigma O to within
    REFLECTION_RTOL (+1 tried first), else None, as it is when mirror, the
    reflection of _reflection, is None; deviation is max |O_{Ps,Pt} -
    sigma O_st| for the sigma returned.  Every entry is compared with the
    entry at its mirror position, or with 0 where op has none."""
    if mirror is None:
        return None, math.inf
    partner = op.at(mirror[op.rows], mirror[op.cols])
    bound = REFLECTION_RTOL * float(np.abs(op.values).max(initial=0.0))
    for sign in (1, -1):
        dev = float(np.abs(partner - sign * op.values).max(initial=0.0))
        if dev <= bound:
            return sign, dev
    return None, math.inf


def _parity_bases(states, mirror):
    """[(parity, basis)] of the blocks of the component over states: one
    block [(0, None)] over the states themselves when mirror (P s for every
    state s) is None or P does not map the states onto themselves; else the
    P-even block (+1,
    basis) and, unless P fixes every state, the P-odd one (-1, basis).

    A basis is (index, level, sign) over the states: the basis vector each
    state enters (-1 for none: a fixed state in the odd basis), level 1 for
    a state of a reflection pair (weight 1/sqrt(2)) and 0 for a fixed one
    (weight 1), and sign -1 for the larger state of a pair in the odd basis.
    The vectors are numbered in the order of their smallest state."""
    if mirror is None:
        return [(0, None)]
    partner = mirror[states]
    if not np.array_equal(np.sort(partner), states):
        return [(0, None)]
    at = np.searchsorted(states, partner)
    fixed = partner == states
    lead = states <= partner
    level = (~fixed).astype(np.intp)
    bases = []
    for parity, member in ((1, lead), (-1, lead & ~fixed)):
        if not member.any():
            break
        rank = np.cumsum(member) - 1
        index = np.where(lead, rank, rank[at])
        index[~member & lead] = -1
        sign = np.where(lead, 1.0, -1.0) if parity < 0 else np.ones(states.size)
        bases.append((parity, (index, level, sign)))
    return bases


def _expand(basis, size):
    """basis, or for None the identity basis over size states."""
    if basis is not None:
        return basis
    return np.arange(size), np.zeros(size, dtype=np.intp), np.ones(size)


def _block_matrix(op, idx, local, bases, shape):
    """B_a^T O B_b as a dense matrix of the given shape: op's entries idx,
    between the basis sets of blocks a and b, each added at the basis
    vectors its states enter with the product of their weights, into a
    zeroed matrix.  bases is (basis of a, basis of b); None stands for a
    set's own states.  Over two such sets each entry lands on its own
    place, exactly as given."""
    x, y = local[op.rows[idx]], local[op.cols[idx]]
    (ia, la, sa), (ib, lb, sb) = (_expand(basis, n) for basis, n in zip(bases, shape))
    i, j = ia[x], ib[y]
    weight = _SCALES[la[x] + lb[y]] * (sa[x] * sb[y])
    keep = (i >= 0) & (j >= 0)
    out = np.zeros(shape, dtype=op.dtype)
    np.add.at(out, (i[keep], j[keep]), (weight * op.values[idx])[keep])
    return out


def _on_states(vectors, basis):
    """A block's eigenvectors over its basis states, B W, from W over its
    own basis."""
    if basis is None:
        return vectors
    index, level, sign = basis
    out = np.zeros((index.size, vectors.shape[1]), dtype=vectors.dtype)
    on = index >= 0
    out[on] = vectors[index[on]] * (_SCALES[level[on]] * sign[on])[:, None]
    return out


class BlockOperator(Frozen):
    """An eigenbasis operator as dense blocks: for each linked pair (a, b)
    of links, block(a, b) is its sub-matrix between the eigen-columns of
    blocks a and b (columns[a] and columns[b], each ascending, together
    covering range(dim)), and every entry outside these blocks is exactly
    0.  SpectralDecomposition.to_eigenblocks makes one; it has no public
    constructor."""

    _fields = ("columns", "links", "dim", "dtype")

    def _freeze(self, columns, links, make, dim, dtype):
        """Store the fields, with the columns arrays read-only; make(a, b)
        makes the block of a linked pair."""
        for cols in columns:
            cols.setflags(write=False)
        self._set(columns=tuple(columns), links=tuple(links), _make=make, dim=dim, dtype=dtype)

    def block(self, a, b):
        """The block of the linked pair (a, b); an operator of
        to_eigenblocks makes it on each call and never stores it."""
        return self._make(a, b)

    def entries(self, shell=None):
        """The nonzero entries as a SparseOperator: every one, or with
        shell = (energies, omega, tol) only those with E_n within tol of
        E_m - omega.  Each block is made once.  A block's energies ascend,
        so a shell's window in each row is one searchsorted, and no mask of
        a whole product is made."""
        keys, values = [np.zeros(0, np.int64)], [np.zeros(0, self.dtype)]
        for a, b in self.links:
            product = self.block(a, b)
            rows_of, cols_of = self.columns[a], self.columns[b]
            if shell is None:
                i, j = np.nonzero(product)
            else:
                energies, omega, tol = shell
                target, levels = energies[rows_of] - omega, energies[cols_of]
                lo = np.searchsorted(levels, target - tol, "left")
                count = np.searchsorted(levels, target + tol, "right") - lo
                i = np.repeat(np.arange(rows_of.size), count)
                j = np.arange(i.size) + np.repeat(lo - (np.cumsum(count) - count), count)
                nonzero = product[i, j] != 0
                i, j = i[nonzero], j[nonzero]
            keys.append(_keys(rows_of[i], cols_of[j], self.dim))
            values.append(product[i, j])
            del product, i, j
        return SparseOperator._adopt(*_in_key_order(keys, values, self.dim), self.dim)

    def dense(self):
        out = np.zeros((self.dim, self.dim), dtype=self.dtype)
        for a, b in self.links:
            out[self.columns[a][:, None], self.columns[b]] = self.block(a, b)
        return out

    def pairs(self, name="operator"):
        """(rows, cols, values) over the pairs m <= n where O_mn or O_nm is
        nonzero, with the entries O_mn, ascending in m * dim + n; rows and
        cols are int32, so dim must be below 2**31.  Each block pair {a, b}
        makes its linked blocks (a diagonal one once), adds only a key
        m * dim + n and a value per pair (_linked_entries) and drops them,
        and _in_key_order orders the pairs.  The operator is certified
        Hermitian by the eigenbasis rule of _require_hermitian on the way."""
        dev = scale = 0.0
        keys, values = [np.zeros(0, np.int64)], [np.zeros(0, self.dtype)]
        linked = set(self.links)
        for lo, hi in sorted({(min(a, b), max(a, b)) for a, b in linked}):
            fwd = self.block(lo, hi) if (lo, hi) in linked else None
            bwd = fwd if lo == hi else self.block(hi, lo) if (hi, lo) in linked else None
            if fwd is None:
                fwd = np.zeros_like(bwd.T)
            if bwd is None:
                bwd = np.zeros_like(fwd.T)
            dev_pair, scale_pair = _hermitian_deviation(fwd, bwd)
            if lo != hi:
                scale_pair = np.maximum(scale_pair, np.abs(bwd).max())
            # np.maximum keeps a NaN, and a NaN fails _require_hermitian
            dev, scale = np.maximum(dev, dev_pair), np.maximum(scale, scale_pair)
            key, value = _linked_entries(fwd, bwd, self.columns[lo], self.columns[hi], self.dim)
            del fwd, bwd
            keys.append(key)
            values.append(value)
        _require_hermitian(dev, scale, name)
        return _in_key_order(keys, values, self.dim)


def _eigen_operand(op, dim=None, name="operator"):
    """op as a BlockOperator: itself, or a matrix or SparseOperator of
    eigenbasis entries as the operator of one block over every level (a
    read-only copy), of dimension dim when that is given."""
    if not isinstance(op, BlockOperator):
        mat = op.dense() if isinstance(op, SparseOperator) else op
        mat = _real_if_exact(np.array(_square(mat, name)))
        mat.setflags(write=False)
        op = BlockOperator._adopt((np.arange(len(mat)),), [(0, 0)], lambda a, b: mat,
                                  len(mat), mat.dtype)
    if dim is not None and op.dim != dim:
        raise DomainError(f"{name} dim {op.dim} does not match dim {dim}")
    return op


def _in_key_order(keys, values, dim):
    """(rows, cols, values) in ascending key order, rows and cols int32 and
    values as _real_if_exact gives them, of entries given as lists of
    ascending runs of distinct keys m * dim + n, which a stable sort merges,
    and of their values.  The lists are emptied as they are joined; an int32
    order and quotients, and the keys dropped before the values are
    reordered, hold this stage to 28 B an entry."""
    joined = np.concatenate(keys)
    keys.clear()
    order = np.argsort(joined, kind="stable").astype(np.int32)
    rows, cols = np.empty(joined.size, np.int32), np.empty(joined.size, np.int32)
    for s in _chunks(joined.size):
        np.divmod(joined.take(order[s]), dim, out=(rows[s], cols[s]), casting="unsafe")
    del joined
    joined = np.concatenate(values)
    values.clear()
    return rows, cols, _real_if_exact(joined[order])


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
    m, n, value = rows_of[i], cols_of[j], fwd[i, j]
    below = np.flatnonzero(m > n)
    value[below] = bwd[j[below], i[below]]
    m[below], n[below] = n[below], m[below]
    return _keys(m, n, dim), value


class SpectralDecomposition(Frozen):
    """Eigenvalues (ascending), eigenvectors per invariant block, and the
    degeneracy threshold energy_tol, default_energy_tol of the energies.

    blocks records the invariant subspaces as (basis indices, eigen-column
    indices) pairs, each ascending.  The eigen-columns partition range(dim).
    Blocks may share one basis set, as the two parity blocks of a component
    do; the blocks over a set have as many eigen-columns as it has states,
    and the distinct sets partition range(dim).  block_vectors[k] is block
    k's eigenvector matrix, rows over its basis states and columns over its
    eigen-columns: float64 when real (the real-symmetric case of
    diagonalize), complex128 otherwise.  A parity block keeps its
    eigenvectors over its own basis (half as many rows), so block_vectors
    makes its matrix on each read.

    Built from energies and a dense eigenvector matrix, which is copied, it
    holds one block over every level; diagonalize hands over the blocks it
    solved instead.  Instances are immutable.
    """

    _fields = ("energies", "energy_tol", "blocks", "block_vectors")

    def __init__(self, energies, vectors):
        e = np.array(energies, dtype=float)
        u = _real_if_exact(np.array(vectors))
        if e.ndim != 1 or u.shape != (e.size, e.size):
            raise DomainError(
                f"inconsistent decomposition shapes: energies {e.shape}, vectors {u.shape}"
            )
        whole = np.arange(e.size)
        self._freeze(e, [(whole, whole)], [u], [(0, None)], [0])

    def _freeze(self, energies, blocks, vectors, bases, group):
        """Store the fields, and the arrays nested in them, read-only;
        vectors[k] is block k's eigenvector matrix over its own basis,
        bases[k] its (parity, basis) as _parity_bases gives it, and group[k]
        the number of its basis set, the sets numbered 0, 1, ... in order of
        first use."""
        if np.any(energies[1:] < energies[:-1]):
            raise DomainError("energies must be sorted ascending")
        arrays = [idx for pair in blocks for idx in pair]
        arrays += [arr for _, basis in bases if basis is not None for arr in basis]
        for arr in (*vectors, *arrays):
            arr.setflags(write=False)
        self._set(energies=energies, energy_tol=default_energy_tol(energies),
                  blocks=tuple(blocks), _vectors=tuple(vectors), _bases=tuple(bases),
                  _group=tuple(group))

    @property
    def dim(self):
        return self.energies.size

    @property
    def block_vectors(self):
        return tuple(_on_states(v, basis) for v, (_, basis) in zip(self._vectors, self._bases))

    @cached_property
    def _basis_index(self):
        """(sets, set of each basis state, its position in the set, blocks
        of each set)."""
        members = [[] for _ in range(self._group[-1] + 1)]
        for k, g in enumerate(self._group):
            members[g].append(k)
        sets = [self.blocks[ks[0]][0] for ks in members]
        return (sets, *_block_index(sets, self.dim), members)

    def to_eigenblocks(self, op):
        """op (a matrix or a SparseOperator) in the eigenbasis as a
        BlockOperator: W_a^dag (B_a^T O B_b) W_b for every ordered block
        pair (a, b) between whose basis sets op has an entry, made on each
        call of block and never stored.  When P O P = sigma O
        (_reflection_sign), parity blocks a and b of parities with product
        -sigma are not linked: their block is exactly 0.  Real vectors and
        an operator with no imaginary part multiply in real arithmetic and
        give float64 blocks; otherwise they are complex."""
        op = _operand(op)
        if op.shape[0] != self.dim:
            raise DomainError(f"operator dim {op.shape[0]} does not match dim {self.dim}")
        sets, set_of, local, members = self._basis_index
        parity = [p for p, _ in self._bases]
        sign = _reflection_sign(op, _reflection(self.dim))[0] if any(parity) else None
        links = {}
        for (g, h), idx in _links(op, set_of, len(sets)).items():
            for a in members[g]:
                for b in members[h]:
                    if sign is None or parity[a] * parity[b] != -sign:
                        links[(a, b)] = idx
        ws = self._vectors
        bases = [basis for _, basis in self._bases]

        def product(a, b):
            shape = (ws[a].shape[0], ws[b].shape[0])
            block = _block_matrix(op, links[a, b], local, (bases[a], bases[b]), shape)
            return (ws[a].conj().T @ block) @ ws[b]

        columns = [cols for _, cols in self.blocks]
        dtype = np.result_type(ws[0], op.dtype)
        return BlockOperator._adopt(columns, links, product, self.dim, dtype)

    def to_eigenbasis(self, op):
        """Conjugate an operator into the eigenbasis, V^dag O V, as a dense
        matrix: to_eigenblocks scattered into place."""
        return self.to_eigenblocks(op).dense()


def diagonalize(hamiltonian):
    """Exact diagonalization with a posteriori certificates.

    hamiltonian is a matrix or a SparseOperator.  It is solved block by
    block (the block rule above): over the connected components of its
    nonzero pattern, each split by reflection parity when H commutes with
    the site reflection; the eigenvalues are merged in ascending order, and
    ties keep block order (a component's even block before its odd one).  A
    Hamiltonian with no imaginary part goes to the real-symmetric solver
    and yields float64 eigenvectors; any other goes to the complex Hermitian
    one.  Each block's eigenvector matrix is checked, right after its solve
    and in the arithmetic of the solve, to be unitary and to reconstruct
    its block of the input, both to DECOMP_RTOL relative to the global
    spectral scale; then the block's matrix is dropped.  Off the blocks both
    the input and the reconstruction are exactly zero, so for unsplit
    blocks these are the full-matrix maxima.  A parity block is checked in
    its own basis: a site-basis entry of its component is one entry of each
    parity block weighted 1/2, or one of the even block weighted at most
    1/sqrt(2), so the blocks' largest deviation bounds the site-basis one,
    and the deviation of H from P H P, which the split drops, is added to
    the reconstruction deviation.  Failure raises
    NumericError since it signals lost accuracy, not bad input.
    """
    h = _operand(hamiltonian, "hamiltonian")
    dim = h.shape[0]
    if dim == 0:
        raise DomainError("hamiltonian must not be empty")
    basis = _components(h)
    set_of, local = _block_index(basis, dim)
    links = _links(h, set_of, len(basis))
    mirror = _reflection(dim)
    sign, asymmetry = _reflection_sign(h, mirror)
    if sign != 1:
        mirror = None
    none = np.zeros(0, dtype=np.intp)
    solved, blocks, bases, group = [], [], [], []
    unit_dev = rec_dev = 0.0
    for k, rows in enumerate(basis):
        for parity, own in _parity_bases(rows, mirror):
            size = rows.size if own is None else int(own[0].max()) + 1
            sub = _block_matrix(h, links.get((k, k), none), local, (own,) * 2, (size,) * 2)
            e, v = np.linalg.eigh(sub)
            gram = v.conj().T @ v
            gram.flat[:: e.size + 1] -= 1.0
            unit_dev = np.maximum(unit_dev, np.abs(gram).max())  # keeps a NaN
            rec = float(np.abs(v @ (e[:, None] * v.conj().T) - sub).max())
            rec_dev = np.maximum(rec_dev, rec if own is None else rec + asymmetry)
            del sub, gram
            solved.append((e, v))
            blocks.append(rows)
            bases.append((parity, own))
            group.append(k)
    merged = np.concatenate([e for e, _ in solved])
    order = np.argsort(merged, kind="stable")
    energies = merged[order]
    column = np.empty(dim, dtype=np.intp)
    column[order] = np.arange(dim)
    scale = max(1.0, float(np.abs(energies).max()))
    if not unit_dev <= DECOMP_RTOL:
        raise NumericError(f"eigenvector matrix not unitary: max deviation {unit_dev:.3e}")
    # an overflowed energy leaves no scale to measure against
    if not rec_dev <= DECOMP_RTOL * scale < math.inf:
        raise NumericError(
            f"eigendecomposition does not reconstruct the input: "
            f"max deviation {rec_dev:.3e} against scale {scale:.3e}"
        )
    starts = np.cumsum([0] + [e.size for e, _ in solved])
    blocks = [(rows, column[lo:hi]) for rows, lo, hi in zip(blocks, starts[:-1], starts[1:])]
    vectors = [v for _, v in solved]
    return SpectralDecomposition._adopt(energies, blocks, vectors, bases, group)


class ThermalEnsemble(Frozen):
    """Gibbs weights p_n over a spectrum at fixed inverse temperature.

    log_weights holds ln p_n with -inf for exact zeros; spectral keeps the
    originating decomposition when the ensemble was built from one.
    Energies and weights must be finite, the weights nonnegative with sum 1.
    The constructor copies its arrays; gibbs_weights hands over arrays it
    owns instead, checked the same way and frozen in place.
    """

    _fields = ("beta", "energies", "weights", "log_weights", "spectral")

    def __init__(self, beta, energies, weights, log_weights, spectral=None):
        self._freeze(beta, np.array(energies, dtype=float), np.array(weights, dtype=float),
                     np.array(log_weights, dtype=float), spectral)

    def _freeze(self, beta, e, w, lw, spectral):
        if not (e.shape == w.shape == lw.shape) or e.ndim != 1 or e.size == 0:
            raise DomainError("energies, weights and log_weights must share one 1-d shape")
        if not np.isfinite(e).all():
            raise DomainError("energies must be finite")
        total = float(w.sum())
        # negated, so that a NaN or infinite weight, which makes the sum NaN
        # or infinite, fails it too
        if not (abs(total - 1.0) <= 1e-12 * e.size and w.min() >= 0):
            raise NumericError(f"thermal weights invalid: sum {total!r}, min {w.min()!r}")
        self._set(beta=float(beta), energies=e, weights=w, log_weights=lw, spectral=spectral)

    @property
    def dim(self):
        return self.energies.size


def gibbs_weights(spectral, beta):
    """Gibbs ensemble p_n = exp(-beta(E_n - E_min)) / Z at inverse temperature beta.

    Accepts a SpectralDecomposition or a bare energy vector.  beta = math.inf
    puts uniform weight on the ground degeneracy group (within
    default_energy_tol of the energies); a negative or NaN beta is rejected.
    """
    if isinstance(spectral, SpectralDecomposition):
        energies, ref = spectral.energies, spectral
    else:
        # a copy, since the ensemble freezes what it is given
        energies, ref = np.array(spectral, dtype=float), None
    if energies.ndim != 1 or energies.size == 0:
        raise DomainError(f"energies must be a nonempty 1-d array, got shape {energies.shape}")
    beta = float(beta)
    if not beta >= 0:
        raise DomainError(f"inverse temperature beta must be nonnegative, got {beta}")
    if math.isinf(beta):
        ground = energies <= energies.min() + default_energy_tol(energies)
        g = int(np.count_nonzero(ground))
        weights = np.where(ground, 1.0 / g, 0.0)
        logw = np.where(ground, -math.log(g), -np.inf)
    else:
        shifted = -beta * (energies - energies.min())
        logw = shifted - float(np.logaddexp.reduce(shifted))
        weights = np.exp(logw)
    return ThermalEnsemble._adopt(beta, energies, weights, logw, ref)


def thermal_expectation(op_eig, ensemble):
    """<O> = sum_n p_n O_nn for an eigenbasis operator (_eigen_operand),
    with O_nn read from the diagonal blocks.

    Returns a float when the weighted diagonal is real to rounding (the
    Hermitian case), otherwise the complex value.
    """
    op = _eigen_operand(op_eig, ensemble.dim)
    diagonal = np.zeros(ensemble.dim, dtype=op.dtype)
    for a, b in op.links:
        if a == b:
            diagonal[op.columns[a]] = np.diagonal(op.block(a, a))
    val = complex(np.dot(ensemble.weights, diagonal))
    if abs(val.imag) <= 1e-12 * max(1.0, abs(val)):
        return val.real
    return val

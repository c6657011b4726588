"""Dynamical symmetries: eigenoperators A of a Hamiltonian with [H, A] = omega A.

The sign convention [H, A] = omega A is fixed package-wide: a raising
eigenoperator (one that adds energy omega when applied to a state) carries
positive omega.  Conserved quantities are the omega = 0 case.

A symmetry set is a PairPartition, a list of OperatorBlocks, or a list
mixing the two:

* OperatorBlock holds explicit member matrices sharing one frequency.  For
  thermal Gram machinery the members must be expressed in the energy
  eigenbasis (verified_blocks handles verification, transformation and
  frequency grouping in one step).
* PairPartition stands for the eigenpair operators |E_m><E_n| at
  omega = E_m - E_n without materializing them.  It lists level pairs
  m <= n, each standing for (m, n) and its mirror (n, m), with the
  frequency-cluster label of (m, n); the mirror lies in the sign-mirrored
  cluster.  Their Gram is diagonal, so every per-cluster sum is one pass
  over the pairs (PairPartition.bin).  A pair is listed once, so no pair
  can be counted twice.

The weighted pair set is the PairPartition that trivial_complete_set builds
for a generator O: only the pairs with O_mn != 0, each with its entry O_mn,
clustered over their own gaps.  It is built and certified Hermitian once,
straight from the generator's eigenbasis blocks (to_eigenblocks) with no
dim x dim array, and every pair sum over O (QFI routes, bounds, combs) is
then an elementwise pass over it at each temperature.

Memory rule: the finished set holds five arrays of one entry per pair
(rows, cols, labels, keys and values: 40 B a pair for real values), and
building it holds no more than those five and a boolean mask at any time
beside its inputs.  The eigenbasis blocks hand over one key m * dim + n
and one value per pair (BlockOperator.pairs); the gaps are clustered from
one array of -|omega_mn|, sorted in place, and its argsort order, never
from a mirrored copy; PairPartition keeps the arrays trivial_complete_set
hands it instead of copying them.  Passes that bin per-pair terms by
cluster form them a chunk of pairs at a time (PairPartition.bin_chunks).

A set is complete for every operator whose nonzero entries it covers, so
bounds built on it alone are saturated for exactly those operators; the
set of all pairs is complete for every operator.

Thermal correlators use the inner product <X, Y> = tr(rho X^dag Y).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._frozen import Frozen
from .errors import DomainError, NumericError
from .operators import (
    GeneralOperator,
    _as_matrix,
    _chunks,
    _real_if_exact,
    operator_support,
)
from .spectral import BlockOperator

# Residual tolerance below which an operator counts as a dynamical symmetry.
TAU_DYN = 1e-9
# Relative pseudo-inverse cutoff for Gram eigenvalues.
TAU_RANK = 1e-12
# Gram matrices more negative than this (relative) are reported, not clamped.
GRAM_NEG_RTOL = 1e-10
# Slack on the strict-locality cap certificate.
LOCAL_CAP_SLACK = 1e-9


def default_omega_tol(energies):
    """Frequency clustering tolerance: 1e-8 * max(1, spectral width)."""
    energies = np.asarray(energies, dtype=float)
    width = float(energies.max() - energies.min()) if energies.size else 0.0
    return 1e-8 * max(1.0, width)


def _checked_omega_tol(omega_tol, exact_ties=False):
    """omega_tol as a float, or DomainError unless it is finite and > 0
    (>= 0 with exact_ties, where 0 clusters equal values only).  A NaN or
    infinite tolerance would merge every gap into one cluster, and a
    negative one would split equal gaps."""
    tol = float(omega_tol)
    if not (math.isfinite(tol) and (tol > 0.0 or exact_ties and tol == 0.0)):
        bound = ">= 0" if exact_ties else "> 0"
        raise DomainError(f"omega_tol must be finite and {bound}, got {omega_tol!r}")
    return tol


def fit_frequency(hamiltonian, op):
    """Least-squares eigenfrequency of op against H.

    Returns (omega, residual) with omega = Re<A, [H,A]> / <A, A> in the
    Hilbert-Schmidt inner product and residual = |[H,A] - omega A| / |A|
    (Frobenius norms).  Both operators must share one basis; the result is
    basis independent.
    """
    h = _as_matrix(hamiltonian)
    a = _as_matrix(op)
    if h.shape != a.shape:
        raise DomainError(f"dimension mismatch {h.shape} vs {a.shape}")
    norm_sq = float(np.vdot(a, a).real)
    if norm_sq == 0.0:
        raise DomainError("cannot fit a frequency to the zero operator")
    comm = h @ a - a @ h
    omega = float(np.vdot(a, comm).real) / norm_sq
    residual = float(np.linalg.norm(comm - omega * a)) / np.sqrt(norm_sq)
    return omega, residual


class DynamicalSymmetry(Frozen):
    """A verified eigenoperator with its fitted frequency and residual."""

    _fields = ("op", "omega", "residual")

    def __init__(self, op, omega, residual):
        self.__dict__.update(op=op, omega=omega, residual=residual)


def dynamical_symmetry(hamiltonian, op, tol=TAU_DYN):
    """Verify [H, op] = omega op within tol and package the result.

    Raises DomainError when the best-fit residual exceeds tol: the operator
    simply is not an eigenoperator of this Hamiltonian.
    """
    omega, residual = fit_frequency(hamiltonian, op)
    if residual > tol:
        raise DomainError(
            f"operator is not a dynamical symmetry: residual {residual:.3e} "
            f"exceeds tolerance {tol:.1e} (best-fit omega {omega:.6g})"
        )
    if not isinstance(op, GeneralOperator):
        op = GeneralOperator(np.asarray(op, dtype=complex))
    return DynamicalSymmetry(op, omega, residual)


def cluster_values(values, tol, symmetric=False):
    """Greedy 1-d clustering: a gap above tol (finite, >= 0) in the sorted
    values opens a new cluster.

    Returns (reps, labels): cluster representatives (member means, ascending)
    and a label array mapping each input value to its cluster.  With
    symmetric=True the input multiset must be symmetric under negation (as
    energy differences E_m - E_n are); representatives are then canonicalized
    to an exactly sign-symmetric set, and the middle one to exactly 0.0.
    """
    tol = _checked_omega_tol(tol, exact_ties=True)
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise DomainError(f"values must be a nonempty 1-d array, got shape {values.shape}")
    # equal values always share a cluster, so the order among ties cannot
    # change reps or labels and the sort need not be stable
    order = np.argsort(values)
    sorted_v = values[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_v) > tol) + 1))
    counts = np.diff(np.concatenate((starts, [sorted_v.size])))
    reps = np.add.reduceat(sorted_v, starts) / counts
    if symmetric:
        if not np.array_equal(counts, counts[::-1]):
            raise NumericError(
                "cluster structure is not symmetric under negation; "
                "input was expected to be a sign-symmetric multiset"
            )
        reps = (reps - reps[::-1]) / 2.0
    labels = np.empty(values.size, dtype=np.intp)
    labels[order] = np.repeat(np.arange(reps.size), counts)
    return reps, labels


class OperatorBlock(Frozen):
    """Explicit dynamical symmetries sharing one frequency.

    Member matrices must be in the energy eigenbasis for the thermal Gram
    machinery (block_gram, mazur_weight) to be meaningful.
    """

    _fields = ("omega", "members")

    def __init__(self, omega, members):
        if not members:
            raise DomainError("a symmetry block needs at least one member")
        mats = []
        dim = None
        for member in members:
            mat = np.array(_as_matrix(member), dtype=complex)
            mat.setflags(write=False)
            if dim is None:
                dim = mat.shape[0]
            elif mat.shape[0] != dim:
                raise DomainError("block members must share one dimension")
            mats.append(mat)
        self.__dict__.update(omega=float(omega), members=tuple(mats))

    @property
    def size(self):
        return len(self.members)

    @property
    def dim(self):
        return self.members[0].shape[0]


class PairPartition(Frozen):
    """Eigenpair operators |E_m><E_n| over a set of level pairs, grouped
    into frequency clusters, optionally weighted by one operator.

    omegas holds the K cluster representatives, strictly ascending and
    sign-symmetric, so the middle one is exactly 0.0.  rows and cols list
    the pairs m <= n, each once, in ascending order of m * dim + n; a pair
    stands for both |E_m><E_n| and |E_n><E_m|.  labels[i] is the cluster of
    omega_mn = E_m - E_n, so the mirrored (n, m) lies in cluster
    K - 1 - labels[i].  keys holds m * dim + n per pair.  values holds
    O_mn on the pairs when the set was built for an operator O
    (trivial_complete_set with op_eig), else None.
    """

    _fields = ("omegas", "rows", "cols", "labels", "dim", "values")

    def __init__(self, omegas, rows, cols, labels, dim, values=None):
        self._freeze(omegas, rows, cols, labels, dim, values, copy=True)

    @classmethod
    def _adopt(cls, omegas, rows, cols, labels, dim, values=None):
        """A partition over arrays that no caller can still write (made for
        it, or another partition's): checked like any other, then frozen in
        place instead of copied."""
        self = cls.__new__(cls)
        self._freeze(omegas, rows, cols, labels, dim, values, copy=False)
        return self

    def _freeze(self, omegas, rows, cols, labels, dim, values, copy):
        """Validate the fields, then store them read-only: copies of the
        caller's arrays when copy is set, else the arrays themselves."""
        # np.asarray copies only to change a dtype; np.array(copy=None)
        # would say the same, but NumPy before 2.0 rejects copy=None
        conv = np.array if copy else np.asarray
        om = conv(omegas, dtype=float)
        if (
            om.ndim != 1
            or om.size % 2 == 0
            or np.any(np.diff(om) <= 0)
            or not np.array_equal(om, -om[::-1])
        ):
            raise DomainError(
                "omegas must be strictly ascending and sign-symmetric about an exact 0.0"
            )
        if int(dim) < 1:
            raise DomainError(f"dim must be positive, got {dim}")
        dim = int(dim)
        fields = [np.asarray(f) for f in (rows, cols, labels)]
        if any(f.ndim != 1 or f.shape != fields[0].shape for f in fields):
            raise DomainError("rows, cols and labels must be 1-d arrays of one size")
        if not all(np.issubdtype(f.dtype, np.integer) for f in fields):
            raise DomainError("rows, cols and labels must be integers")
        rows, cols, labels = (conv(f, dtype=np.intp) for f in fields)
        if rows.size and (rows.min() < 0 or cols.max() >= dim or np.any(rows > cols)):
            raise DomainError(f"pairs must satisfy 0 <= m <= n < {dim}")
        keys = rows.astype(np.int64)
        keys *= dim
        keys += cols
        if np.any(keys[1:] <= keys[:-1]):
            raise DomainError("pairs must be distinct and ascending in m * dim + n")
        if labels.size and (labels.min() < 0 or labels.max() >= om.size):
            raise DomainError(f"labels must lie in [0, {om.size}), one cluster per pair")
        if values is not None:
            values = _real_if_exact(conv(values))
            if values.shape != rows.shape:
                raise DomainError("values must hold one entry per pair")
        for arr in (om, rows, cols, labels, keys, values):
            if arr is not None:
                arr.setflags(write=False)
        self.__dict__.update(omegas=om, rows=rows, cols=cols, labels=labels, dim=dim,
                             values=values, keys=keys)

    @property
    def complete(self):
        """True when the set holds every pair, so it spans operator space."""
        return self.rows.size == self.dim * (self.dim + 1) // 2

    @property
    def mirror(self):
        """Cluster of each mirrored pair (n, m); K for a diagonal pair, which
        has no mirror."""
        return self._mirror(slice(None))

    def _mirror(self, s):
        """mirror on the pairs s."""
        k = self.omegas.size
        out = k - 1 - self.labels[s]
        out[self.rows[s] == self.cols[s]] = k
        return out

    def bin(self, forward, backward):
        """Per-cluster sums of real per-pair terms: forward[i] is the term of
        (m, n) and goes to labels[i], backward[i] is that of (n, m) and goes
        to the mirrored cluster; a diagonal pair's backward term is dropped.
        Returns an array of length K aligned with omegas."""
        forward, backward = np.asarray(forward), np.asarray(backward)
        if forward.shape != self.rows.shape or backward.shape != self.rows.shape:
            raise DomainError(f"pair terms must hold {self.rows.size} entries each")
        return self.bin_chunks((s, forward[s], backward[s]) for s in _chunks(self.rows.size))

    def bin_chunks(self, terms, count=None):
        """bin over terms that come a chunk of pairs at a time, as
        (s, forward[s], backward[s]) for consecutive slices s covering the
        pairs, so that no per-pair array outlives its chunk.  With count
        set, forward and backward hold count rows of terms, binned side by
        side into a (count, K) result.  Each cluster adds its terms in pair
        order from 0.0, as np.bincount does, so the sums do not depend on
        the chunks.  (np.add.at takes this fast from NumPy 1.25 on; 1.24
        runs it through a much slower generic loop.)"""
        k = self.omegas.size
        n = 1 if count is None else count
        out, back = np.zeros((n, k)), np.zeros((n, k + 1))
        for s, forward, backward in terms:
            labels, mirror = self.labels[s], self._mirror(s)
            for o, bk, f, b in zip(out, back, forward.reshape(n, -1), backward.reshape(n, -1)):
                np.add.at(o, labels, f)
                np.add.at(bk, mirror, b)
        out += back[:, :k]
        return out[0] if count is None else out

    def aligned(self, op, name="operator"):
        """(values, covered): op's entries O_mn on this set's pairs, 0 where
        op has none, and whether every pair of op lies in the set, so that
        op has no nonzero entry outside it.

        op is a dense Hermitian eigenbasis matrix, certified here, or a
        PairPartition carrying values; for the set itself this is free.
        """
        if op is self and self.values is not None:
            return self.values, True
        return _align(*_operator_pairs(op, self.dim, name), self.keys, self.dim)

    @cached_property
    def abs2(self):
        """|O_mn|^2 over the pairs, for a set that carries values."""
        out = np.abs(self.values) ** 2
        out.setflags(write=False)
        return out

    def squared(self, values):
        """|values|^2 for values on the set's pairs: abs2 for its own."""
        return self.abs2 if values is self.values else np.abs(values) ** 2

    def cluster_weights(self, ensemble, values):
        """Mazur weight of every cluster for an operator with these values on
        the set's pairs: the sum of p_n |O_mn|^2 over the cluster's ordered
        pairs, the Gram of eigenpair operators being diagonal."""
        p = ensemble.weights
        abs2 = self.squared(values)
        return self.bin_chunks(
            (s, p[self.cols[s]] * abs2[s], p[self.rows[s]] * abs2[s])
            for s in _chunks(self.rows.size)
        )


def _operator_pairs(op, dim, name="operator"):
    """(rows, cols, values) of an operator over its pairs m <= n, ascending
    in m * dim + n: a PairPartition's own values, or a BlockOperator or
    dense matrix certified Hermitian, over the pairs where O_mn or O_nm is
    nonzero, with the entries O_mn (those below the diagonal are their
    conjugates)."""
    if isinstance(op, (PairPartition, BlockOperator)) and op.dim != dim:
        raise DomainError(f"{name} dim {op.dim} does not match dim {dim}")
    if isinstance(op, PairPartition):
        if op.values is None:
            raise DomainError(f"{name}: the pair set carries no operator values")
        return op.rows, op.cols, op.values
    if not isinstance(op, BlockOperator):
        # a dense matrix is the operator of one block over every level
        mat = _real_if_exact(np.asarray(op))
        if mat.shape != (dim, dim):
            raise DomainError(f"{name} shape {mat.shape} does not match dim {dim}")
        op = BlockOperator((np.arange(dim),), {(0, 0): mat}, dim, mat.dtype)
    return op.pairs(name)


def _align(rows, cols, values, onto, dim):
    """(aligned, covered): values of the pairs (rows, cols) placed on the
    pairs with ascending keys onto (m * dim + n), 0 where absent, and
    whether every pair found its place."""
    keys = rows.astype(np.int64) * dim + cols
    pos = np.searchsorted(onto, keys)
    found = pos < onto.size
    found[found] = onto[pos[found]] == keys[found]
    out = np.zeros(onto.size, dtype=values.dtype)
    out[pos[found]] = values[found]
    return out, bool(found.all())


def _dense(rows, cols, values, dim):
    """The Hermitian matrix with these entries on pairs m <= n."""
    mat = np.zeros((dim, dim), dtype=values.dtype)
    mat[cols, rows] = values.conj()
    mat[rows, cols] = values
    return mat


def _diagonal(rows, cols, values):
    """(levels n, Re O_nn) over the diagonal pairs of an operator."""
    diag = rows == cols
    return rows[diag], values[diag].real


def trivial_complete_set(spectral, omega_tol=None, op_eig=None):
    """The eigenpair operators as one PairPartition.

    Without op_eig the set holds every pair m <= n and spans operator
    space.  With op_eig (an eigenbasis BlockOperator or matrix, certified
    Hermitian here) it holds only the pairs where O_mn or O_nm is nonzero,
    with the entries O_mn as values: the weighted pair set that every pair
    sum over O needs, and complete for O and for any operator whose nonzero
    entries it covers.  Either way the clusters are the greedy clusters
    within omega_tol of the set's own gaps +-omega_mn, omega_mn = E_m - E_n,
    and an exact 0.0, which gives the zero cluster even when no pair has a
    zero gap; it collects the diagonal projectors and any degenerate pairs.
    Only spectral.energies is read, so a ThermalEnsemble works too.
    """
    energies = spectral.energies
    dim = energies.size
    if omega_tol is None:
        omega_tol = default_omega_tol(energies)
    omega_tol = _checked_omega_tol(omega_tol)
    if op_eig is None:
        rows, cols = np.triu_indices(dim)
        values = None
    else:
        rows, cols, values = _operator_pairs(op_eig, dim)
    n = rows.size
    # -|omega_mn| per pair, and which omega_mn are positive, a chunk at a time
    half = np.empty(n)
    positive = np.empty(n, dtype=bool)
    for s in _chunks(n):
        gaps = energies[rows[s]] - energies[cols[s]]
        np.greater(gaps, 0.0, out=positive[s])
        np.negative(np.abs(gaps, out=gaps), out=half[s])
    order = np.argsort(half)
    # half[order] in place: no second array of gaps
    half.sort()
    reps, bounds = _mirrored_clusters(half, omega_tol)
    del half
    # sorted position j lies in the cluster k with bounds[k] <= j < bounds[k + 1];
    # scattered a chunk of positions at a time, so no sorted label array is made
    labels = np.empty(n, dtype=np.intp)
    for s in _chunks(n):
        first = np.searchsorted(bounds, s.start, "right") - 1
        last = np.searchsorted(bounds, s.stop, "left")
        counts = np.diff(np.clip(bounds[first : last + 1], s.start, s.stop))
        labels[order[s]] = np.repeat(np.arange(first, last), counts)
    del order
    # a positive gap is the mirror of -|gap|, in the mirrored cluster
    np.subtract(reps.size - 1, labels, out=labels, where=positive)
    return PairPartition._adopt(reps, rows, cols, labels, dim, values)


def _mirrored_clusters(half, tol):
    """cluster_values(concat(half, [0.0], -half[::-1]), tol, symmetric=True)
    for ascending half <= 0, bit for bit, without forming that multiset:
    (reps, bounds), where half's clusters span bounds[k] <= j < bounds[k + 1]
    and carry labels k, the last one being the zero cluster when its values
    lie within tol of 0.0.  The multiset sums a cluster of -half in the
    mirrored order, so that sum is np.add.reduceat over half's reversed
    view."""
    n = half.size
    cuts = [np.flatnonzero(np.diff(half[s.start : s.stop + 1]) > tol) + s.start + 1
            for s in _chunks(n - 1)]
    bounds = np.concatenate([[0] if n else [], *cuts, [n]]).astype(np.intp)
    # the clusters below the zero cluster: all of half's unless its last
    # one reaches 0.0
    below = bounds.size - 1 - (n > 0 and not 0.0 - half[-1] > tol)
    counts = np.diff(bounds)[:below]
    sums = np.add.reduceat(half, bounds[:-1])[:below]
    back_sums = np.add.reduceat(half[::-1], n - bounds[below:0:-1])[::-1]
    raw = np.concatenate((sums / counts, [0.0], (-back_sums / counts)[::-1]))
    return (raw - raw[::-1]) / 2.0, bounds


def _pair_set(op_eig, spectral, omega_tol=None, name="operator"):
    """op_eig as a weighted pair set: itself when it is one, else
    trivial_complete_set over its nonzero pairs.  A pair set's clusters are
    fixed when it is built, so omega_tol applies to a dense op_eig only."""
    if not isinstance(op_eig, PairPartition):
        return trivial_complete_set(spectral, omega_tol, op_eig)
    if omega_tol is not None:
        raise DomainError("omega_tol cannot re-cluster a pair set; build the set with it")
    _operator_pairs(op_eig, spectral.energies.size, name)
    return op_eig


def _block_list(blocks):
    """A symmetry set as a list: a lone PairPartition becomes [partition]."""
    return [blocks] if isinstance(blocks, PairPartition) else list(blocks)


def _is_saturating(blocks, covered):
    """True only for exactly one PairPartition that covers every nonzero
    entry of the operator: the set for which every bound is an equality."""
    return len(blocks) == 1 and isinstance(blocks[0], PairPartition) and covered


def group_into_blocks(symmetries, omega_tol=None):
    """Cluster verified symmetries by frequency into OperatorBlocks.

    Representatives within omega_tol of zero are snapped to exactly 0.0 so
    conserved quantities land in a genuine zero block (fitted frequencies
    carry rounding noise).  Default omega_tol is 1e-8 * max(1, |omega|_max).
    """
    symmetries = list(symmetries)
    if omega_tol is not None:
        omega_tol = _checked_omega_tol(omega_tol)
    if not symmetries:
        return []
    omegas = np.array([s.omega for s in symmetries], dtype=float)
    if omega_tol is None:
        omega_tol = 1e-8 * max(1.0, float(np.abs(omegas).max()))
    reps, labels = cluster_values(omegas, omega_tol)
    blocks = []
    for k in range(reps.size):
        members = [symmetries[i].op for i in np.flatnonzero(labels == k)]
        omega = 0.0 if abs(reps[k]) <= omega_tol else float(reps[k])
        blocks.append(OperatorBlock(omega, tuple(members)))
    return blocks


def verified_blocks(hamiltonian, spectral, ops, tol=TAU_DYN, omega_tol=None):
    """Verify candidate operators against H, transform them into the energy
    eigenbasis and group them into frequency blocks.

    hamiltonian and ops are given in the site basis; a DomainError from
    verification names the failing operator by position.
    """
    symmetries = []
    for i, op in enumerate(ops):
        try:
            sym = dynamical_symmetry(hamiltonian, op, tol)
        except DomainError as exc:
            raise DomainError(f"operator {i}: {exc}") from None
        symmetries.append(
            DynamicalSymmetry(
                GeneralOperator(spectral.to_eigenbasis(sym.op)), sym.omega, sym.residual
            )
        )
    if omega_tol is None:
        omega_tol = default_omega_tol(spectral.energies)
    return group_into_blocks(symmetries, omega_tol)


def block_gram(block, ensemble, op_eig):
    """Thermal Gram matrix and correlator vector of an OperatorBlock against O.

    Returns (V, corr) with V[i, j] = <A_i^dag A_j> and corr[j] = <A_j^dag O>;
    op_eig is the generator in the energy eigenbasis, a dense matrix or a
    weighted PairPartition, and corr runs over its pairs.  A PairPartition's
    own Gram is diagonal, so its weights come from cluster_weights instead.
    """
    if not isinstance(block, OperatorBlock):
        raise DomainError(f"block_gram takes an OperatorBlock, got {type(block).__name__}")
    dim = ensemble.dim
    p = ensemble.weights
    arr = np.stack(block.members)
    if arr.shape[1] != dim:
        raise DomainError(f"block dim {arr.shape[1]} does not match ensemble dim {dim}")
    rows, cols, values = _operator_pairs(op_eig, dim)
    conj = arr.conj()
    gram = np.einsum("imn,jmn,n->ij", conj, arr, p, optimize=True)
    # (m, n) carries O_mn and, off the diagonal, (n, m) carries conj(O_mn)
    off = rows != cols
    corr = conj[:, rows, cols] @ (values * p[cols])
    corr += conj[:, cols[off], rows[off]] @ (values[off].conj() * p[rows[off]])
    return gram, corr


def _pinv_quadratic(gram, rows):
    """The matrix [c_a^dag V^+ c_b] over correlator rows c_a, with an
    eigendecomposition pseudo-inverse of the Gram V.

    Eigenvalues below TAU_RANK relative to the largest are discarded;
    eigenvalues negative beyond GRAM_NEG_RTOL (relative) mean the Gram lost
    positive semidefiniteness and raise NumericError.
    """
    gram = np.asarray(gram, dtype=complex)
    rows = np.asarray(rows, dtype=complex)
    herm_dev = np.abs(gram - gram.conj().T).max()
    scale = max(np.abs(gram).max(), 1e-300)
    if herm_dev > 1e-12 * scale:
        raise NumericError(f"Gram matrix not Hermitian: deviation {herm_dev:.3e}")
    evals, evecs = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    top = float(evals.max())
    if top <= 0.0:
        # zero Gram: every member annihilates the populated states
        return np.zeros((rows.shape[0], rows.shape[0]), dtype=complex)
    if float(evals.min()) < -GRAM_NEG_RTOL * top:
        raise NumericError(
            f"Gram matrix indefinite: eigenvalue {evals.min():.3e} "
            f"against scale {top:.3e}"
        )
    keep = evals > TAU_RANK * top
    proj = rows @ evecs[:, keep].conj()
    return (proj.conj() / evals[keep]) @ proj.T


def mazur_weight(block, ensemble, op_eig):
    """Mazur weight D(O) of an OperatorBlock: the thermal projection of O
    onto the span of its members.

    The pseudo-inverse quadratic form makes the weight invariant under
    invertible recombination of members and tolerant of dependent members.
    A PairPartition's weights are its cluster_weights, one per cluster.
    """
    gram, corr = block_gram(block, ensemble, op_eig)
    return float(_pinv_quadratic(gram, corr[None, :])[0, 0].real)


def conserved_mazur_bound(conserved_set, ensemble, op_eig):
    """Zero-frequency Mazur weight D_0(O) from explicit conserved quantities.

    Members are matrices in the energy eigenbasis; each must commute with H
    within TAU_DYN (checked against diag(energies)), a violator is named by
    position.  The weight is Gram-orthogonalized, so dependent or overlapping
    conserved sets are handled.
    """
    members = []
    energies = ensemble.energies
    for i, member in enumerate(conserved_set):
        mat = _as_matrix(member)
        if mat.shape != (ensemble.dim, ensemble.dim):
            raise DomainError(f"conserved quantity {i}: dimension mismatch")
        norm = float(np.linalg.norm(mat))
        if norm == 0.0:
            raise DomainError(f"conserved quantity {i}: zero operator")
        # [diag(E), A]_mn = (E_m - E_n) A_mn, so no matmul is needed
        comm = (energies[:, None] - energies[None, :]) * mat
        residual = float(np.linalg.norm(comm)) / norm
        if residual > TAU_DYN:
            raise DomainError(
                f"conserved quantity {i} does not commute with H: "
                f"residual {residual:.3e} exceeds {TAU_DYN:.1e}"
            )
        members.append(mat)
    block = OperatorBlock(0.0, tuple(members))
    return mazur_weight(block, ensemble, op_eig)


def projector_mazur_weight(ensemble, op_eig):
    """D_0(O) for the complete eigenprojector set: sum_n p_n O_nn^2.

    This is the classic zero-frequency Mazur weight with every |E_n><E_n| as
    a conserved quantity; closed form, no Gram inversion.  op_eig is a dense
    eigenbasis matrix or a weighted PairPartition.
    """
    levels, diag = _diagonal(*_operator_pairs(op_eig, ensemble.dim))
    return float(np.dot(ensemble.weights[levels], diag**2))


def local_cap(a_loc, op, ensemble):
    """Certificate for the strict-locality cap on a Mazur projection.

    a_loc and op are site-basis operators on a chain of n spins (dim = 2^n).
    With r + 1 the width of a_loc's contiguous support, returns
    ((r+1)^2 / 4, holds) where holds certifies

        |<A^dag O>|^2 / <A^dag A>  <=  (r+1)^2/4 + 1e-9.

    The cap is rigorous when O is a sum of zero-mean single-site terms of
    unit spectral width and the thermal state carries no correlations across
    the support boundary (or A is itself a dynamical symmetry); the caller
    owns those preconditions, this function only certifies the inequality.
    The ensemble must carry its spectral decomposition.
    """
    if ensemble.spectral is None:
        raise DomainError("ensemble must carry its spectral decomposition")
    a_mat = _as_matrix(a_loc)
    o_mat = _as_matrix(op)
    dim = ensemble.dim
    if a_mat.shape != (dim, dim) or o_mat.shape != (dim, dim):
        raise DomainError("operator dimensions do not match the ensemble")
    n_sites = dim.bit_length() - 1
    if 2**n_sites != dim:
        raise DomainError(f"dimension {dim} is not a power of 2")
    support = operator_support(a_mat, n_sites)
    if not support:
        raise DomainError("operator acts as a scalar; the cap is undefined")
    lo, hi = min(support), max(support)
    if len(support) != hi - lo + 1:
        raise DomainError(f"support {sorted(support)} is not contiguous")
    r = hi - lo
    cap = (r + 1) ** 2 / 4.0
    spectral = ensemble.spectral
    a_eig = spectral.to_eigenbasis(a_mat)
    o_eig = spectral.to_eigenbasis(o_mat)
    p = ensemble.weights
    norm = float(np.einsum("mn,mn,n->", a_eig.conj(), a_eig, p).real)
    if norm <= 0.0:
        raise DomainError("thermal norm <A^dag A> vanishes on this ensemble")
    overlap = complex(np.einsum("mn,mn,n->", a_eig.conj(), o_eig, p))
    holds = bool(abs(overlap) ** 2 / norm <= cap + LOCAL_CAP_SLACK)
    return cap, holds

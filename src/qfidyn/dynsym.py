"""Dynamical symmetries: eigenoperators A of a Hamiltonian with [H, A] = omega A.

The sign convention [H, A] = omega A is fixed package-wide: a raising
eigenoperator (one that adds energy omega when applied to a state) carries
positive omega.  Conserved quantities are the omega = 0 case.

A symmetry set is a PairPartition on its own or a list of OperatorBlocks
at distinct frequencies: the symmetries at one frequency form one block,
since two would count their shared span twice.  _frequency_sums is the one
place that tells the two forms apart: it checks a set and gives every
bound, Mazur weight and comb check its per-frequency weights.

* OperatorBlock holds explicit members sharing one frequency, each as a
  SparseOperator of its eigenbasis entries.  verified_blocks verifies each
  operator, keeps only its entries on its omega-shell
  |E_m - E_n - omega| <= omega_tol, where an exact eigenoperator has all
  of them, certifies the cut, and groups by frequency.  block_gram is a
  p_n-weighted sum over the positions the members hold, with the generator
  joined there once per pair set; the Gram is made once per block, however
  many generators are joined (_gram_and_correlators).
* PairPartition stands for the eigenpair operators |E_m><E_n| at
  omega = E_m - E_n without materializing them.  It lists level pairs
  m <= n, each standing for (m, n) and its mirror (n, m), with the
  frequency-cluster label of (m, n); the mirror lies in the sign-mirrored
  cluster.  Their Gram is diagonal, so every per-cluster sum is one pass
  over the pairs (PairPartition._cluster_sums).  A pair is listed once, so
  no pair can be counted twice.

The weighted pair set is the PairPartition that trivial_complete_set builds
for a generator O: only the pairs with O_mn != 0, each with its entry O_mn,
clustered over their own gaps.  It is built and certified Hermitian once,
straight from the generator's eigenbasis blocks (to_eigenblocks) with no
dim x dim array, and every pair sum over O (QFI routes, bounds, combs) is
then an elementwise pass over it at each temperature.

Memory rule: the finished set holds rows, cols and labels as int32 and
values, 20 B a pair for real values.  BlockOperator.pairs makes the
eigenbasis blocks one block pair at a time and hands over one key
m * dim + n and one value per pair.  The gaps are clustered from one array
of -|omega_mn|, sorted in place; each pair is then labelled by searching
its -|omega_mn| among the clusters' first values.  PairPartition keeps the
arrays trivial_complete_set hands it instead of copying them.  Every pass
over the pairs forms its terms a chunk of pairs at a time, binned per
cluster (PairPartition.bin_chunks) or summed in one term array
(metrology._pair_sum: 8.4 to 9.3 B a pair at 12 sites); np.take gathers
as fast with int32 indices as a fancy index with intp ones.  An
explicit member holds only its shell: at 12 sites a Jordan-Wigner mode
keeps 8,388 of the 2.5M entries its linked blocks have, the rest being
rounding, and a block keeps O at those positions per pair set.

A set is complete for every operator whose nonzero entries it covers, so
bounds built on it alone are saturated for exactly those operators; the
set of all pairs is complete for every operator.

Thermal correlators use the inner product <X, Y> = tr(rho X^dag Y).
"""

from __future__ import annotations

import math
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from ._frozen import Frozen
from .errors import DomainError, NumericError
from .operators import _INDEX_LIMIT, SparseOperator, _chunks, _finite, _key_union, _keys
from .operators import _operand, _real_if_exact, _whole, operator_support
from .spectral import PAIR_WEIGHT_FLOOR, BlockOperator, _eigen_operand

# Residual tolerance below which an operator counts as a dynamical symmetry.
TAU_DYN = 1e-9
# Relative pseudo-inverse cutoff for Gram eigenvalues.
TAU_RANK = 1e-12
# Gram matrices more negative than this (relative) are reported, not clamped.
GRAM_NEG_RTOL = 1e-10
# Slack on the strict-locality cap certificate.
LOCAL_CAP_SLACK = 1e-9
# Largest residual / omega_tol that verified_blocks accepts as the bound on
# the relative Frobenius norm of a member's part off its omega-shell.  On
# the open chain at the default omega_tol, the Jordan-Wigner modes reach
# 3.5e-8 at 12 sites and 2.5e-7 at 14, their bilinears 2.1e-7 and 1.04e-6.
SHELL_CUT_RTOL = 1e-5


def default_omega_tol(energies):
    """Frequency clustering tolerance: 1e-8 * max(1, spectral width).  Also
    models.at_level_crossing's default, on the two-qubit spectrum +-2J, +-2h,
    so that its window is the one where group_into_blocks snaps to 0."""
    energies = np.asarray(energies, dtype=float)
    width = float(energies.max() - energies.min()) if energies.size else 0.0
    return 1e-8 * max(1.0, width)


def _checked_omega_tol(omega_tol):
    """omega_tol as a float, or DomainError unless it is finite and > 0.  A
    NaN or infinite tolerance would merge every gap into one cluster, and a
    negative one would split equal gaps."""
    tol = float(omega_tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"omega_tol must be finite and > 0, got {omega_tol!r}")
    return tol


def fit_frequency(hamiltonian, op):
    """Least-squares eigenfrequency of op against H.

    Returns (omega, residual) with omega = Re<A, [H,A]> / <A, A> in the
    Hilbert-Schmidt inner product and residual = |[H,A] - omega A| / |A|
    (Frobenius norms), both summed over the entries of [H, A].  Both
    operators, SparseOperators or matrices, share one basis; the result is
    basis independent.  <A, A> must be a finite normal float (DomainError).
    """
    h, a = _operand(hamiltonian, "hamiltonian"), _operand(op)
    if h.shape != a.shape:
        raise DomainError(f"dimension mismatch {h.shape} vs {a.shape}")
    norm_sq = float(np.vdot(a.values, a.values).real)
    if not np.finfo(float).tiny <= norm_sq < math.inf:
        raise DomainError(f"operator norm^2 {norm_sq:.3e} is out of range (0, subnormal or inf)")
    comm, at_a = _commutator(h, a)
    omega = float(np.vdot(a.values, comm[at_a]).real) / norm_sq
    comm[at_a] -= omega * a.values
    residual = float(np.linalg.norm(comm)) / math.sqrt(norm_sq)
    return omega, residual


def _commutator(h, a):
    """(comm, at_a): the entries of [H, A], one per position, A's own
    positions among them (0 where the commutator vanishes), and the index
    of each of A's entries in comm.  H's entries with one flip mask
    f = row ^ col, H_f, hold at most one per column: h_f[c] = H_{c^f, c}.
    So H_f A has A_rc h_f[r] at (r ^ f, c) and A H_f has A_rc h_f[c ^ f] at
    (r, c ^ f); the terms at one position are summed."""
    flips = h.rows ^ h.cols
    keys, terms = [_keys(a.rows, a.cols, a.dim)], [np.zeros(a.values.size, a.dtype)]
    for f in np.unique(flips).tolist():
        h_f = np.zeros(a.dim, h.dtype)
        on = flips == f
        h_f[h.cols[on]] = h.values[on]
        for rows, cols, value in ((a.rows ^ f, a.cols, h_f[a.rows] * a.values),
                                  (a.rows, a.cols ^ f, -a.values * h_f[a.cols ^ f])):
            keys.append(_keys(rows, cols, a.dim)[value != 0])
            terms.append(value[value != 0])
    positions, index = np.unique(np.concatenate(keys), return_inverse=True)
    comm = np.zeros(positions.size, np.result_type(h.dtype, a.dtype))
    np.add.at(comm, index, np.concatenate(terms))
    return comm, index[: a.values.size]


class DynamicalSymmetry(Frozen):
    """A verified eigenoperator, held as given (a SparseOperator or an
    eigenbasis BlockOperator) or as a copy of a matrix, with its fitted
    frequency and residual."""

    _fields = ("op", "omega", "residual")

    def __init__(self, op, omega, residual):
        if not isinstance(op, (SparseOperator, BlockOperator)):
            op = np.array(op)
        self._set(op=op, omega=omega, residual=residual)


def dynamical_symmetry(hamiltonian, op):
    """Verify [H, op] = omega op within TAU_DYN and package the result.

    Raises DomainError unless the best-fit residual is at most TAU_DYN (NaN
    is not): the operator is not an eigenoperator of this Hamiltonian.
    """
    omega, residual = fit_frequency(hamiltonian, op)
    if not residual <= TAU_DYN:
        raise DomainError(
            f"operator is not a dynamical symmetry: residual {residual:.3e} "
            f"exceeds tolerance {TAU_DYN:.1e} (best-fit omega {omega:.6g})"
        )
    return DynamicalSymmetry(op, omega, residual)


def cluster_values(values, tol):
    """Greedy 1-d clustering: a gap above tol (finite, > 0) in the sorted
    values opens a new cluster.

    Returns (reps, labels): cluster representatives (member means, ascending)
    and a label array mapping each input value to its cluster.
    """
    tol = _checked_omega_tol(tol)
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
    labels = np.empty(values.size, dtype=np.intp)
    labels[order] = np.repeat(np.arange(reps.size), counts)
    return reps, labels


class OperatorBlock(Frozen):
    """Explicit dynamical symmetries sharing one frequency.

    Each member is held as its eigenbasis entries, a SparseOperator: a
    SparseOperator is taken as such and a matrix as its nonzero entries; a
    BlockOperator gives its own with entries(), and verified_blocks hands
    over entries already cut to their omega-shell.  block_gram reads every
    member at the positions any member holds (_entries) and the generator
    there (_joined).
    """

    _fields = ("omega", "members")

    def __init__(self, omega, members):
        members = tuple(_operand(m, f"member {i}") for i, m in enumerate(members))
        if not members:
            raise DomainError("a symmetry block needs at least one member")
        if len({m.dim for m in members}) != 1:
            raise DomainError("block members must share one dimension")
        omega = float(omega)
        if not math.isfinite(omega):
            raise DomainError(f"block frequency must be finite, got {omega}")
        self._set(omega=omega, members=members, _joins={})

    @property
    def dim(self):
        return self.members[0].dim

    @cached_property
    def _entries(self):
        """(rows, cols, values): the positions any member holds, ascending in
        row * dim + col, and each member's entries there, one row per
        member (0 where it has none)."""
        keys = _key_union([_keys(m.rows, m.cols, self.dim) for m in self.members])
        rows, cols = np.divmod(keys, self.dim)
        return rows, cols, np.stack([m.at(rows, cols) for m in self.members])

    def _joined(self, op_eig):
        """O_mn at the positions of _entries, for O as _operator_pairs reads
        it; kept per PairPartition, whose arrays are read-only, so that a
        temperature sweep joins each pair set once."""
        cached = self._joins.get(id(op_eig))
        if cached is not None and cached[0] is op_eig:
            return cached[1]
        pairs = SparseOperator._adopt(*_operator_pairs(op_eig, self.dim), self.dim)
        rows, cols, _ = self._entries
        joined = pairs.at(np.minimum(rows, cols), np.maximum(rows, cols))
        # a position below the diagonal reads the conjugate of its mirror
        below = rows > cols
        joined[below] = joined[below].conj()
        if isinstance(op_eig, PairPartition):
            self._joins[id(op_eig)] = (op_eig, joined)
        return joined

    @cached_property
    def _gram_floor(self):
        """tau * s: s is the largest column norm^2 sum_m |(A_i)_mn|^2 among
        the members and tau = (dim eps)^2 (see _pinv_quadratic)."""
        s = max(float(np.bincount(m.cols, _abs2(m.values), self.dim).max(initial=0.0))
                for m in self.members)
        return (self.dim * np.finfo(float).eps) ** 2 * s


class PairPartition(Frozen):
    """Eigenpair operators |E_m><E_n| over a set of level pairs, grouped
    into frequency clusters, optionally weighted by one operator.

    omegas holds the K cluster representatives, strictly ascending and
    sign-symmetric, so the middle one is exactly 0.0.  rows and cols list
    the pairs m <= n, each once, in ascending order of m * dim + n; a pair
    stands for both |E_m><E_n| and |E_n><E_m|.  labels[i] is the cluster of
    omega_mn = E_m - E_n, so the mirrored (n, m) lies in cluster
    K - 1 - labels[i].  rows, cols and labels are stored as int32, so dim
    must be below 2**31 (operators._keys gives m * dim + n).  values holds
    O_mn on the pairs when the set was built for an operator O
    (trivial_complete_set with op_eig), else None.
    """

    _fields = ("omegas", "rows", "cols", "labels", "dim", "values")

    def __init__(self, omegas, rows, cols, labels, dim, values=None):
        self._freeze(*map(np.array, (omegas, rows, cols, labels)), dim,
                     None if values is None else _finite(np.array(values), "values"))

    def _freeze(self, omegas, rows, cols, labels, dim, values=None):
        """Validate the fields, then store them; the index arrays as int32,
        copied only when they are of another type."""
        om = np.asarray(omegas, dtype=float)
        if (
            om.ndim != 1
            or om.size % 2 == 0
            or np.any(np.diff(om) <= 0)
            or not np.array_equal(om, -om[::-1])
        ):
            raise DomainError(
                "omegas must be strictly ascending and sign-symmetric about an exact 0.0"
            )
        dim = _whole(dim, "dim")
        if not 1 <= dim < _INDEX_LIMIT:
            raise DomainError(f"dim must be positive and below 2**31 (int32 indices), got {dim}")
        fields = [np.asarray(f) for f in (rows, cols, labels)]
        if any(f.ndim != 1 or f.shape != fields[0].shape for f in fields):
            raise DomainError("rows, cols and labels must be 1-d arrays of one size")
        if not all(np.issubdtype(f.dtype, np.integer) for f in fields):
            raise DomainError("rows, cols and labels must be integers")
        rows, cols, labels = fields
        if rows.size and (rows.min() < 0 or cols.max() >= dim):
            raise DomainError(f"pairs must satisfy 0 <= m <= n < {dim}")
        if labels.size and (labels.min() < 0 or labels.max() >= om.size):
            raise DomainError(f"labels must lie in [0, {om.size}), one cluster per pair")
        # in range, every index fits in int32
        rows, cols, labels = (np.asarray(f, dtype=np.int32) for f in fields)
        del fields
        for s in _chunks(rows.size):
            lo = max(s.start - 1, 0)
            if np.any(rows[s] > cols[s]):
                raise DomainError(f"pairs must satisfy 0 <= m <= n < {dim}")
            keys = _keys(rows[lo : s.stop], cols[lo : s.stop], dim)
            if np.any(keys[1:] <= keys[:-1]):
                raise DomainError("pairs must be distinct and ascending in m * dim + n")
        if values is not None:
            values = _real_if_exact(np.asarray(values))
            if values.shape != rows.shape:
                raise DomainError("values must hold one entry per pair")
        self._set(omegas=om, rows=rows, cols=cols, labels=labels, dim=dim, values=values)

    def _mirror(self, s, labels):
        """The cluster of each mirrored pair (n, m) of the pairs s, K for a
        diagonal pair, which has no mirror, written over labels, their own
        clusters."""
        k = self.omegas.size
        np.subtract(k - 1, labels, out=labels)
        labels[self.rows[s] == self.cols[s]] = k
        return labels

    def bin_chunks(self, terms, count):
        """Per-cluster sums of real per-pair terms that come a chunk of pairs
        at a time, as (s, forward[:, s], backward[:, s]) for consecutive slices s
        covering the pairs, so that no per-pair array outlives its chunk.
        forward and backward hold count rows of terms: forward[r, i] is a
        term of (m, n) and goes to labels[i], backward[r, i] one of (n, m)
        and goes to the mirrored cluster; a diagonal pair's backward terms
        are dropped.  Returns the (count, K) sums, aligned with omegas.
        Each cluster adds its terms in pair order from 0.0, as np.bincount
        does, so the sums do not depend on the chunks."""
        k = self.omegas.size
        out, back = np.zeros((count, k)), np.zeros((count, k + 1))
        for s, forward, backward in terms:
            # the labels, then their mirrors, in one intp array
            index = self.labels[s].astype(np.intp)
            for o, f in zip(out, forward.reshape(count, -1)):
                np.add.at(o, index, f)
            self._mirror(s, index)
            for bk, b in zip(back, backward.reshape(count, -1)):
                np.add.at(bk, index, b)
        out += back[:, :k]
        return out

    def _cluster_sums(self, ensemble, vals, ab, coeff=None):
        """bin_chunks of c p_n Re[(O_a)_mn (O_b)_mn^*] for each pair (m, n)
        and c p_m times the same for its mirror, one row per (a, b) in ab,
        O_a having the values vals[a] (a = b takes _abs2, bit for bit the
        |O_mn|^2 terms).  Without coeff c = 1; with it c is coeff of the
        pair's _PairRatios, or 0 below PAIR_WEIGHT_FLOOR.  Each coefficient
        is even in (t, x) and s is symmetric, so a mirror shares it."""
        p, lw = ensemble.weights, ensemble.log_weights

        # one call per chunk, so that its temporaries are freed before the
        # terms are binned
        def terms(s):
            rows, cols = self.rows[s], self.cols[s]
            pm, pn = p.take(rows), p.take(cols)
            if coeff is not None:
                tot = pn + pm
                light = tot < PAIR_WEIGHT_FLOOR
                np.copyto(tot, 1.0, where=light)
                with np.errstate(invalid="ignore"):
                    c = coeff(_PairRatios(lw, rows, cols, pm, pn, tot))
                np.copyto(c, 0.0, where=light)  # c is a fresh array
                pn *= c
                pm *= c
                del tot, light, c
            cross = np.empty((len(ab), pn.size))
            for row, (a, b) in zip(cross, ab):
                if a == b:
                    _abs2(vals[a][s], out=row)
                else:
                    row[:] = (vals[a][s] * vals[b][s].conj()).real
            return s, cross * pn, np.multiply(cross, pm, out=cross)

        return self.bin_chunks((terms(s) for s in _chunks(self.rows.size)), len(ab))

    def aligned(self, op):
        """(values, covered): op's entries O_mn on this set's pairs, 0 where
        op has none, and whether every pair of op lies in the set, so that
        op has no nonzero entry outside it.  Both pair lists ascend in
        m * dim + n, so one searchsorted of op's keys places them all.

        op is a dense Hermitian eigenbasis matrix, certified here, or a
        PairPartition carrying values; for the set itself this is free.
        """
        if op is self and self.values is not None:
            return self.values, True
        rows, cols, values = _operator_pairs(op, self.dim)
        keys, onto = _keys(rows, cols, self.dim), _keys(self.rows, self.cols, self.dim)
        pos = np.searchsorted(onto, keys)
        found = pos < onto.size
        found[found] = onto[pos[found]] == keys[found]
        aligned = np.zeros(onto.size, dtype=values.dtype)
        aligned[pos[found]] = values[found]
        return aligned, bool(found.all())

    def cluster_weights(self, ensemble, values):
        """Mazur weight of every cluster for an operator with these values on
        the set's pairs: the sum of p_n |O_mn|^2 over the cluster's ordered
        pairs, the Gram of eigenpair operators being diagonal."""
        return self._cluster_sums(ensemble, (values,), [(0, 0)])[0]


class _PairRatios:
    """tanh x, sech x and x at x = beta omega_mn / 2 over a chunk of pairs,
    from the weights: t = (p_n - p_m)/(p_n + p_m), s = 2 sqrt(p_n p_m)/(p_n
    + p_m), x = (ln p_n - ln p_m)/2.  Each is formed on first use, in as few
    arrays as it takes: most bound kinds read only one of them."""

    def __init__(self, log_weights, rows, cols, pm, pn, tot):
        self._lw, self._rows, self._cols = log_weights, rows, cols
        self._pm, self._pn, self._tot = pm, pn, tot

    @cached_property
    def t(self):
        t = self._pn - self._pm
        t /= self._tot
        return t

    @cached_property
    def s(self):
        s = self._pn * self._pm
        np.sqrt(s, out=s)
        s *= 2.0
        s /= self._tot
        return s

    @cached_property
    def x(self):
        x = self._lw.take(self._cols)
        x -= self._lw.take(self._rows)
        x /= 2.0
        return x


def _abs2(values, out=None):
    """|values|^2, as np.abs(values) ** 2 gives it, into out if given; for
    real values that is their square, bit for bit, without np.abs."""
    mag = values if values.dtype.kind == "f" else np.abs(values, out=out)
    return np.square(mag, out=out)


def _operator_pairs(op, dim, name="operator"):
    """(rows, cols, values) of an operator over its pairs m <= n, ascending
    in m * dim + n: a PairPartition's own values, or a BlockOperator,
    matrix or SparseOperator (_eigen_operand) certified Hermitian, over the
    pairs where O_mn or O_nm is nonzero, with the entries O_mn (those below
    the diagonal are their conjugates)."""
    if not isinstance(op, PairPartition):
        return _eigen_operand(op, dim, name).pairs(name)
    if op.dim != dim:
        raise DomainError(f"{name} dim {op.dim} does not match dim {dim}")
    if op.values is None:
        raise DomainError(f"{name}: the pair set carries no operator values")
    return op.rows, op.cols, op.values


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


def _thermal_mean(p, rows, cols, values):
    """<O> = sum_n p_n O_nn over the diagonal pairs of an operator."""
    levels, diag = _diagonal(rows, cols, values)
    return float(np.dot(p[levels], diag))


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
        rows, cols = (idx.astype(np.int32) for idx in np.triu_indices(dim))
        values = None
    else:
        rows, cols, values = _operator_pairs(op_eig, dim)
    n = rows.size
    # -|omega_mn| per pair, a chunk at a time, then sorted in place
    half = np.empty(n)
    for s in _chunks(n):
        _negative_abs(_gaps(energies, rows[s], cols[s]), half[s])
    half.sort()
    reps, bounds = _mirrored_clusters(half, omega_tol)
    # the clusters are runs of half cut where a step exceeds omega_tol > 0,
    # so a value lies in the last cluster whose first value is <= it
    firsts = half[bounds[:-1]]
    del half
    labels = np.empty(n, dtype=np.int32)
    for s in _chunks(n):
        gaps = _gaps(energies, rows[s], cols[s])
        positive = gaps > 0.0
        label = np.searchsorted(firsts, _negative_abs(gaps, gaps), "right") - 1
        # a positive gap is the mirror of -|gap|, in the mirrored cluster
        np.subtract(reps.size - 1, label, out=label, where=positive)
        labels[s] = label
    return PairPartition._adopt(reps, rows, cols, labels, dim, values)


def _gaps(energies, rows, cols):
    """omega_mn = E_m - E_n over a chunk of pairs."""
    return energies.take(rows) - energies.take(cols)


def _negative_abs(gaps, out):
    """-|gaps| written into out."""
    return np.negative(np.abs(gaps, out=gaps), out=out)


def _mirrored_clusters(half, tol):
    """The sign-symmetric clusters of the multiset concat(half, [0.0],
    -half[::-1]) for ascending half <= 0, bit for bit those that
    cluster_oracle in tests/oracles.py gives for a sign-symmetric multiset,
    but without forming that multiset: (reps, bounds), where half's clusters
    span bounds[k] <= j < bounds[k + 1] and carry labels k, the last one
    being the zero cluster when its values lie within tol of 0.0.  The
    multiset sums a cluster of -half in the mirrored order, so that sum is
    np.add.reduceat over half's reversed view."""
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


def _pair_set(op_eig, spectral):
    """op_eig as a weighted pair set: itself when it is one, else
    trivial_complete_set over its nonzero pairs at the default tolerance."""
    if not isinstance(op_eig, PairPartition):
        return trivial_complete_set(spectral, op_eig=op_eig)
    _operator_pairs(op_eig, spectral.energies.size)
    return op_eig


def group_into_blocks(symmetries, omega_tol):
    """Cluster verified symmetries by frequency into OperatorBlocks.

    Representatives within omega_tol of zero are snapped to exactly 0.0 so
    conserved quantities land in a genuine zero block (fitted frequencies
    carry rounding noise), all in one block; verified_blocks passes the
    spectrum's default_omega_tol.  Each block keeps its members in order.
    """
    symmetries = list(symmetries)
    omega_tol = _checked_omega_tol(omega_tol)
    if not symmetries:
        return []
    omegas = np.array([s.omega for s in symmetries], dtype=float)
    reps, labels = cluster_values(omegas, omega_tol)
    reps[np.abs(reps) <= omega_tol] = 0.0
    snapped = reps[labels]
    return [OperatorBlock(omega, [symmetries[i].op for i in np.flatnonzero(snapped == omega)])
            for omega in np.unique(reps).tolist()]


def verified_blocks(hamiltonian, spectral, ops, omega_tol=None):
    """Verify candidate operators against H, take them to the energy
    eigenbasis on their omega-shell (_on_shell) and group them into
    frequency blocks.

    hamiltonian and ops are given in the site basis; a DomainError from
    verification, or a NumericError from the shell cut, names the failing
    operator by position.
    """
    omega_tol = default_omega_tol(spectral.energies) if omega_tol is None else omega_tol
    omega_tol = _checked_omega_tol(omega_tol)
    symmetries = []
    for i, op in enumerate(ops):
        try:
            sym = dynamical_symmetry(hamiltonian, op)
            member = _on_shell(spectral, op, sym.omega, sym.residual, omega_tol)
        except (DomainError, NumericError) as exc:
            raise type(exc)(f"operator {i}: {exc}") from None
        symmetries.append(DynamicalSymmetry(member, sym.omega, sym.residual))
    return group_into_blocks(symmetries, omega_tol)


def _on_shell(spectral, op, omega, residual, omega_tol):
    """The eigenbasis entries of a site-basis eigenoperator A on its shell
    |E_m - E_n - omega| <= omega_tol (BlockOperator.entries), omega and
    residual being its fit_frequency.  Off the shell
    (E_m - E_n - omega) A_mn is the entry R_mn of R = [H, A] - omega A, so
    the part cut off has a relative Frobenius norm of at most
    residual / omega_tol; above SHELL_CUT_RTOL that is no certificate, and
    NumericError is raised."""
    cut = residual / omega_tol
    if not cut <= SHELL_CUT_RTOL:
        raise NumericError(
            f"the part off its omega-shell is bounded only by residual / omega_tol = "
            f"{cut:.3e}, above {SHELL_CUT_RTOL:.1e}"
        )
    return spectral.to_eigenblocks(op).entries((spectral.energies, omega, omega_tol))


def block_gram(block, ensemble, op_eig):
    """Thermal Gram matrix and correlator vector of an OperatorBlock against O.

    Returns (V, corr) with V[i, j] = <A_i^dag A_j> and corr[j] = <A_j^dag O>,
    both sums over the positions (m, n) the members hold, weighted by p_n:
    V = sum conj(A_i)_mn p_n (A_j)_mn and corr = sum conj(A_j)_mn p_n O_mn,
    with O_mn joined from op_eig, the generator in the eigenbasis as
    _operator_pairs reads it, once per pair set (OperatorBlock._joined).
    A PairPartition's own Gram is diagonal, so its weights come from
    cluster_weights instead.
    """
    gram, corr = _gram_and_correlators(block, ensemble, [op_eig])
    return gram, corr[0]


def _gram_and_correlators(block, ensemble, ops):
    """block_gram against several operators: the Gram V once and one
    correlator row per operator, stacked."""
    if not isinstance(block, OperatorBlock):
        raise DomainError(f"block_gram takes an OperatorBlock, got {type(block).__name__}")
    if block.dim != ensemble.dim:
        raise DomainError(f"block dim {block.dim} does not match ensemble dim {ensemble.dim}")
    _, cols, values = block._entries
    weighted = values.conj() * ensemble.weights[cols]
    return weighted @ values.T, np.stack([weighted @ block._joined(op) for op in ops])


def _pinv_quadratic(gram, rows, floor):
    """The matrix [c_a^dag V^+ c_b] over correlator rows c_a, with an
    eigendecomposition pseudo-inverse of the Gram V.

    Eigenvalues at or below max(TAU_RANK * top, floor) are discarded, top
    being the largest; eigenvalues negative beyond GRAM_NEG_RTOL (relative)
    mean the Gram lost positive semidefiniteness and raise NumericError.
    For a block's Gram the floor is OperatorBlock._gram_floor, tau * s
    with tau = (dim eps)^2: a member's eigenbasis entries are made by
    products over dim states, so a column of them, of norm at most sqrt(s),
    carries a rounding error of norm up to about dim eps sqrt(s), and a
    Gram eigenvalue at or below (dim eps)^2 s, a p-weighted mean of such
    norms^2, can be made of rounding alone.  Its correlators are then
    rounding too, and their ratio, of the order of <O^2>, is no bound: on
    the 6-site chain with its Jordan-Wigner modes at low temperature such
    directions (Gram eigenvalues near 1e-31 s) lifted the bound above the
    QFI.  With members cut to their omega-shell no such rounding is left to
    keep: over the Jordan-Wigner mode sets at 4 to 10 sites and T from 0.05
    to 5 and beta = inf, the bound on the parity split and on a rotated
    dense eigh differ by at most 1.5e-13 of the bound where it is above
    1e-3 of the QFI, and by 1.8e-14 of the QFI anywhere.
    """
    gram = np.asarray(gram, dtype=complex)
    rows = np.asarray(rows, dtype=complex)
    herm_dev = np.abs(gram - gram.conj().T).max()
    scale = max(np.abs(gram).max(), 1e-300)
    if herm_dev > 1e-12 * scale:
        raise NumericError(f"Gram matrix not Hermitian: deviation {herm_dev:.3e}")
    evals, evecs = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    top = float(evals.max())
    if top <= max(floor, 0.0):
        # zero Gram, or rounding only: every member annihilates the
        # populated states
        return np.zeros((rows.shape[0], rows.shape[0]), dtype=complex)
    if float(evals.min()) < -GRAM_NEG_RTOL * top:
        raise NumericError(
            f"Gram matrix indefinite: eigenvalue {evals.min():.3e} "
            f"against scale {top:.3e}"
        )
    keep = evals > max(TAU_RANK * top, floor)
    proj = rows @ evecs[:, keep].conj()
    return (proj.conj() / evals[keep]) @ proj.T


def _block_coefficient(coeff, beta, omega):
    """coeff at x = beta omega / 2; zero frequency contributes 0 for every kind."""
    if omega == 0.0:
        return 0.0
    x = beta * omega / 2.0
    with np.errstate(over="ignore"):
        t, s = np.array(np.tanh(x)), np.array(1.0 / np.cosh(x))
        return float(coeff(SimpleNamespace(t=t, s=s, x=x)))


def _frequency_sums(blocks, ensemble, generators, coeff=None):
    """(omegas, summed, covered) of a symmetry set against a list of
    generators: one column of summed per cluster or block, in the set's own
    order, and one row per generator pair (a, b), a <= b, as np.triu_indices
    lists them, holding c_k [D_k]_ab.  [D_k]_ab is the Gram-orthogonalized
    cross correlator, the Mazur weight D_k when a = b; c_k = 1 without coeff.
    covered marks a PairPartition covering every generator.

    A PairPartition's clusters come from one binned pass with coeff per pair
    (_cluster_sums); each explicit block is a pseudo-inverse quadratic form
    with coeff at its frequency (_block_coefficient), a zero column where
    that is 0.  DomainError for anything else: a PairPartition inside a
    list, an item that is no OperatorBlock, or two blocks at one frequency,
    whose weights would count their shared span twice.
    """
    d = len(generators)
    ab = [(a, b) for a in range(d) for b in range(a, d)]
    if isinstance(blocks, PairPartition):
        vals, covers = zip(*(blocks.aligned(g) for g in generators))
        return blocks.omegas, blocks._cluster_sums(ensemble, vals, ab, coeff), all(covers)
    blocks = list(blocks)
    for i, block in enumerate(blocks):
        if not isinstance(block, OperatorBlock):
            raise DomainError(f"block {i}: a list holds OperatorBlocks only, got "
                              f"{type(block).__name__}; a PairPartition is passed alone")
    if len({block.omega for block in blocks}) != len(blocks):
        raise DomainError("two blocks share a frequency; group_into_blocks makes them one")
    summed = np.zeros((len(ab), len(blocks)))
    for k, block in enumerate(blocks):
        c = 1.0 if coeff is None else _block_coefficient(coeff, ensemble.beta, block.omega)
        if c != 0.0:
            gram, corr = _gram_and_correlators(block, ensemble, generators)
            quad = _pinv_quadratic(gram, corr, block._gram_floor).real
            summed[:, k] = [c * quad[a, b] for a, b in ab]
    return np.array([block.omega for block in blocks], dtype=float), summed, False


def mazur_weight(block, ensemble, op_eig):
    """Mazur weight D(O) of an OperatorBlock: the thermal projection of O
    onto the span of its members, the one-block case of _frequency_sums.

    The pseudo-inverse quadratic form makes the weight invariant under
    invertible recombination of members and tolerant of dependent members;
    Gram directions at the rounding floor are dropped (_pinv_quadratic).
    A PairPartition's weights are its cluster_weights, one per cluster.
    """
    if not isinstance(block, OperatorBlock):
        raise DomainError(f"mazur_weight takes an OperatorBlock, got {type(block).__name__}")
    return float(_frequency_sums([block], ensemble, [op_eig])[1][0, 0])


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

    a_loc and op are site-basis SparseOperators or matrices on a chain of n
    spins (dim = 2^n).
    With r + 1 the width of a_loc's contiguous support, returns
    ((r+1)^2 / 4, holds) where holds certifies

        |<A^dag O>|^2 / <A^dag A>  <=  (r+1)^2/4 + 1e-9.

    The cap is rigorous when O is a sum of zero-mean single-site terms of
    unit spectral width and the thermal state carries no correlations across
    the support boundary (or A is itself a dynamical symmetry); the caller
    owns those preconditions, this function only certifies the inequality.
    The ensemble must carry its spectral decomposition; A_loc is the one
    member of a block_gram, which gives the norm and the overlap.
    """
    if ensemble.spectral is None:
        raise DomainError("ensemble must carry its spectral decomposition")
    a_op, o_op, dim = _operand(a_loc), _operand(op), ensemble.dim
    if a_op.shape != (dim, dim) or o_op.shape != (dim, dim):
        raise DomainError("operator dimensions do not match the ensemble")
    # a dim that is not a power of 2 matches no chain: operator_support refuses it
    support = operator_support(a_op, dim.bit_length() - 1)
    to_eigenblocks = ensemble.spectral.to_eigenblocks
    return _local_cap(support, to_eigenblocks(a_op).entries(), to_eigenblocks(o_op), ensemble)


def _local_cap(support, a_eig, o_eig, ensemble):
    """local_cap of A_loc with the given support, held in the eigenbasis as
    an OperatorBlock member, against O in the eigenbasis as _operator_pairs
    reads it (such as the weighted pair set of solve_preset), so that a
    caller capping many operators against one O finds each support once and
    takes O to the eigenbasis once."""
    if not support:
        raise DomainError("operator acts as a scalar; the cap is undefined")
    lo, hi = min(support), max(support)
    if len(support) != hi - lo + 1:
        raise DomainError(f"support {sorted(support)} is not contiguous")
    cap = (hi - lo + 1) ** 2 / 4.0
    gram, corr = block_gram(OperatorBlock(0.0, (a_eig,)), ensemble, o_eig)
    norm = float(gram[0, 0].real)
    if norm <= 0.0:
        raise DomainError("thermal norm <A^dag A> vanishes on this ensemble")
    holds = bool(abs(corr[0]) ** 2 / norm <= cap + LOCAL_CAP_SLACK)
    return cap, holds

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
  omega = E_m - E_n without materializing them: one frequency-cluster label
  per pair, laid out like O in the eigenbasis.  Their Gram is diagonal, so
  every per-cluster sum is one np.bincount (PairPartition.bin).  The
  partition of all dim^2 pairs (trivial_complete_set) spans operator space,
  so bounds built on it are saturated; a pair carries one label, so no pair
  can be counted twice.

Thermal correlators use the inner product <X, Y> = tr(rho X^dag Y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .operators import GeneralOperator, _as_matrix, operator_support

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


@dataclass(frozen=True)
class DynamicalSymmetry:
    """A verified eigenoperator with its fitted frequency and residual."""

    op: GeneralOperator
    omega: float
    residual: float


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
    """Greedy 1-d clustering: a gap above tol in the sorted values opens a
    new cluster.

    Returns (reps, labels): cluster representatives (member means, ascending)
    and a label array mapping each input value to its cluster.  With
    symmetric=True the input multiset must be symmetric under negation (as
    energy differences E_m - E_n are); representatives are then canonicalized
    to an exactly sign-symmetric set, and the middle one to exactly 0.0.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise DomainError(f"values must be a nonempty 1-d array, got shape {values.shape}")
    # equal values always share a cluster, so the order among ties cannot
    # change reps or labels and the sort need not be stable
    order = np.argsort(values)
    sorted_v = values[order]
    starts = np.flatnonzero(np.diff(sorted_v) > tol) + 1
    starts = np.concatenate(([0], starts))
    counts = np.diff(np.concatenate((starts, [values.size])))
    reps = np.add.reduceat(sorted_v, starts) / counts
    if symmetric:
        if not np.array_equal(counts, counts[::-1]):
            raise NumericError(
                "cluster structure is not symmetric under negation; "
                "input was expected to be a sign-symmetric multiset"
            )
        reps = (reps - reps[::-1]) / 2.0
    labels_sorted = np.repeat(np.arange(reps.size), counts)
    labels = np.empty(values.size, dtype=np.intp)
    labels[order] = labels_sorted
    return reps, labels


@dataclass(frozen=True)
class OperatorBlock:
    """Explicit dynamical symmetries sharing one frequency.

    Member matrices must be in the energy eigenbasis for the thermal Gram
    machinery (block_gram, mazur_weight) to be meaningful.
    """

    omega: float
    members: tuple

    def __post_init__(self):
        if not self.members:
            raise DomainError("a symmetry block needs at least one member")
        mats = []
        dim = None
        for member in self.members:
            mat = np.array(_as_matrix(member), dtype=complex)
            mat.setflags(write=False)
            if dim is None:
                dim = mat.shape[0]
            elif mat.shape[0] != dim:
                raise DomainError("block members must share one dimension")
            mats.append(mat)
        object.__setattr__(self, "members", tuple(mats))
        object.__setattr__(self, "omega", float(self.omega))

    @property
    def size(self):
        return len(self.members)

    @property
    def dim(self):
        return self.members[0].shape[0]


@dataclass(frozen=True)
class PairPartition:
    """Eigenpair operators |E_m><E_n| grouped into frequency clusters.

    omegas holds the K cluster representatives, strictly ascending and
    sign-symmetric, so the middle one is exactly 0.0.  labels is an integer
    (dim, dim) array laid out like O in the eigenbasis: labels[m, n] = k puts
    the pair (m, n) in cluster k, and -1 leaves it out.
    """

    omegas: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        om = np.array(self.omegas, dtype=float)
        if (
            om.ndim != 1
            or om.size % 2 == 0
            or np.any(np.diff(om) <= 0)
            or not np.array_equal(om, -om[::-1])
        ):
            raise DomainError(
                "omegas must be strictly ascending and sign-symmetric about an exact 0.0"
            )
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or labels.shape[0] != labels.shape[1] or labels.size == 0:
            raise DomainError(f"labels must be a square matrix, got shape {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise DomainError(f"labels must be integers, got dtype {labels.dtype}")
        if labels.min() < -1 or labels.max() >= om.size:
            raise DomainError(f"labels must lie in [-1, {om.size}), one per cluster or -1")
        labels = np.array(labels, dtype=np.intp)
        om.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self):
        return self.labels.shape[0]

    @property
    def complete(self):
        """True when every pair is in some cluster."""
        return bool(self.labels.min() >= 0)

    def bin(self, values):
        """Per-cluster sums of a real (dim, dim) array of per-pair values,
        left-out pairs dropped: an array of length K aligned with omegas."""
        values = np.asarray(values)
        if values.shape != self.labels.shape:
            raise DomainError(
                f"pair values shape {values.shape} does not match partition dim {self.dim}"
            )
        shifted = self.labels.ravel() + 1
        return np.bincount(shifted, weights=values.ravel(), minlength=self.omegas.size + 1)[1:]


def trivial_complete_set(spectral, omega_tol=None):
    """All dim^2 eigenpair operators as one PairPartition.

    Clusters are the greedy clusters of omega_mn = E_m - E_n within omega_tol;
    the zero cluster collects the diagonal projectors and any degenerate
    pairs.  Only spectral.energies is read, so a ThermalEnsemble works too.
    """
    energies = spectral.energies
    if omega_tol is None:
        omega_tol = default_omega_tol(energies)
    gaps = energies[:, None] - energies[None, :]
    reps, labels = cluster_values(gaps.ravel(), omega_tol, symmetric=True)
    return PairPartition(reps, labels.reshape(gaps.shape))


def _block_list(blocks):
    """A symmetry set as a list: a lone PairPartition becomes [partition]."""
    return [blocks] if isinstance(blocks, PairPartition) else list(blocks)


def _is_saturating(blocks, dim):
    """True only for exactly one complete PairPartition of this dim: the
    set for which every bound is an equality."""
    return (
        len(blocks) == 1
        and isinstance(blocks[0], PairPartition)
        and blocks[0].dim == dim
        and blocks[0].complete
    )


def group_into_blocks(symmetries, omega_tol=None):
    """Cluster verified symmetries by frequency into OperatorBlocks.

    Representatives within omega_tol of zero are snapped to exactly 0.0 so
    conserved quantities land in a genuine zero block (fitted frequencies
    carry rounding noise).  Default omega_tol is 1e-8 * max(1, |omega|_max).
    """
    symmetries = list(symmetries)
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
    op_eig is the generator in the energy eigenbasis.  A PairPartition's
    Gram is diagonal, so its weights come from PairPartition.bin instead.
    """
    if not isinstance(block, OperatorBlock):
        raise DomainError(f"block_gram takes an OperatorBlock, got {type(block).__name__}")
    mat = np.asarray(op_eig, dtype=complex)
    dim = ensemble.dim
    if mat.shape != (dim, dim):
        raise DomainError(f"operator shape {mat.shape} does not match dim {dim}")
    p = ensemble.weights
    arr = np.stack(block.members)
    if arr.shape[1] != dim:
        raise DomainError(f"block dim {arr.shape[1]} does not match ensemble dim {dim}")
    conj = arr.conj()
    gram = np.einsum("imn,jmn,n->ij", conj, arr, p, optimize=True)
    corr = np.einsum("jmn,mn,n->j", conj, mat, p, optimize=True)
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
    A PairPartition's weights are partition.bin(p_n |O_mn|^2), one per cluster.
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
    a conserved quantity; closed form, no Gram inversion.
    """
    mat = np.asarray(op_eig)
    if mat.shape != (ensemble.dim, ensemble.dim):
        raise DomainError(f"operator shape {mat.shape} does not match dim {ensemble.dim}")
    diag = np.real(np.diagonal(mat))
    return float(np.dot(ensemble.weights, diag**2))


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

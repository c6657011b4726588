"""Exact diagonalization and Gibbs thermal ensembles.

Everything downstream works in the energy eigenbasis, so the decomposition
is certified once here (orthonormality and reconstruction) and then trusted.
A Hamiltonian with no imaginary part, which every preset has, is
diagonalized in real arithmetic and keeps real eigenvectors, so operators
without an imaginary part stay real in the eigenbasis too.
Thermal weights are stored together with their logarithms; the logs keep
weight ratios exact even when the weights themselves underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending), the unitary of eigencolumns, degeneracy tol.

    vectors is float64 when it is real (the real-symmetric case of
    diagonalize) and complex128 otherwise.
    """

    energies: np.ndarray
    vectors: np.ndarray
    energy_tol: float = field(default=None)

    def __post_init__(self):
        e = np.array(self.energies, dtype=float)
        u = _real_if_exact(np.array(self.vectors))
        if e.ndim != 1 or u.shape != (e.size, e.size):
            raise DomainError(
                f"inconsistent decomposition shapes: energies {e.shape}, vectors {u.shape}"
            )
        if np.any(np.diff(e) < 0):
            raise DomainError("energies must be sorted ascending")
        e.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "vectors", u)
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
        return self.vectors.conj().T @ mat @ self.vectors

    def summary(self, tol=None):
        return {
            "dim": int(self.dim),
            "energies": [float(e) for e in self.energies],
            "degeneracies": [int(b - a) for a, b in self.degeneracy_groups(tol)],
        }


def diagonalize(hamiltonian, energy_tol=None):
    """Exact diagonalization with a posteriori certificates.

    A Hamiltonian with no imaginary part goes to the real-symmetric solver
    and yields float64 eigenvectors; any other goes to the complex Hermitian
    one.  Either way the eigenvector matrix is checked to be unitary and to
    reconstruct the input, both to DECOMP_RTOL relative to the spectral
    scale, in the arithmetic of the solve; failure raises NumericError since
    it signals lost accuracy, not bad input.  energy_tol seeds the
    decomposition's degeneracy threshold.
    """
    mat = _real_if_exact(_as_matrix(hamiltonian, "hamiltonian"))
    energies, vectors = np.linalg.eigh(mat)
    dim = energies.size
    scale = max(1.0, float(np.abs(energies).max()) if dim else 0.0)
    unit_dev = np.abs(vectors.conj().T @ vectors - np.eye(dim)).max()
    if unit_dev > DECOMP_RTOL:
        raise NumericError(f"eigenvector matrix not unitary: max deviation {unit_dev:.3e}")
    rec_dev = np.abs(vectors @ (energies[:, None] * vectors.conj().T) - mat).max()
    if rec_dev > DECOMP_RTOL * scale:
        raise NumericError(
            f"eigendecomposition does not reconstruct the input: "
            f"max deviation {rec_dev:.3e} against scale {scale:.3e}"
        )
    return SpectralDecomposition(energies, vectors, energy_tol)


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

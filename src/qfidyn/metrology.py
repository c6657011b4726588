"""Quantum Fisher information and generalized variances of thermal states.

Every function takes the generator as a matrix in the energy eigenbasis plus
a ThermalEnsemble.  Pair sums run over ordered eigenlevel pairs (m, n) with
the convention omega_mn = E_m - E_n; pairs whose combined weight falls below
PAIR_WEIGHT_FLOOR are skipped.

Lower bounds decompose over frequency blocks, each kind with one coefficient
function of (t, s, x) = (tanh x, sech x, x) at x = beta omega / 2.  A
PairPartition evaluates it per pair from the weights themselves,
t = (p_n - p_m)/(p_n + p_m), s = 2 sqrt(p_n p_m)/(p_n + p_m) and
x = (ln p_n - ln p_m)/2, and sums each cluster with one bincount; this keeps
the bounds exactly saturated for the complete partition even when frequency
clustering merges nearby gaps, and it is well defined at beta = inf where
beta * omega arithmetic is not.  Explicit OperatorBlocks use their block
frequency, which is the honest choice for a user-supplied symmetry set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynsym import (
    OperatorBlock,
    PairPartition,
    _block_list,
    _is_saturating,
    _pinv_quadratic,
    block_gram,
    mazur_weight,
    trivial_complete_set,
)
from .errors import DomainError, NumericError
from .operators import _hermitian
from .spectral import PAIR_WEIGHT_FLOOR, default_energy_tol

# Slack for internal inequality certificates (ETH gap assertion).
INEQ_SLACK = 1e-9
# Witness tolerance on the strict inequality f_Q > kappa.
WITNESS_TOL = 1e-9


def _pair_weights(ensemble):
    """Masked QFI pair weights w_mn = 2 (p_n - p_m)^2 / (p_n + p_m)."""
    p = ensemble.weights
    pn = p[None, :]
    pm = p[:, None]
    tot = pn + pm
    mask = tot >= PAIR_WEIGHT_FLOOR
    safe = np.where(mask, tot, 1.0)
    return np.where(mask, 2.0 * (pn - pm) ** 2 / safe, 0.0)


def _pair_tanh(ensemble):
    """tanh(beta omega_mn / 2) over all pairs, computed from beta and the gaps.

    At beta = inf every gap within the degeneracy tolerance is 0, the rule
    gibbs_weights uses to spread the ground weight, so inf * 0 never occurs
    and a numerically split level counts as the one level it is.  At finite
    beta a tiny gap gives a tiny, exact tanh and is left alone.
    """
    e = ensemble.energies
    omega = e[:, None] - e[None, :]
    with np.errstate(invalid="ignore", over="ignore"):
        t = np.tanh(ensemble.beta * omega / 2.0)
    if math.isinf(ensemble.beta):
        spectral = ensemble.spectral
        tol = default_energy_tol(e) if spectral is None else spectral.energy_tol
        t[np.abs(omega) <= tol] = 0.0
    return t


def qfi_spectral(op_eig, ensemble):
    """QFI of the thermal state under the generator O:
    sum over pairs of 2 (p_n - p_m)^2 / (p_n + p_m) |<E_m|O|E_n>|^2."""
    mat = _hermitian(op_eig, ensemble.dim)
    return float(np.sum(_pair_weights(ensemble) * np.abs(mat) ** 2))


def qfi_via_susceptibility(op_eig, ensemble):
    """QFI through the dissipative-susceptibility route:
    sum of 2 tanh(beta omega_mn / 2) (p_n - p_m) |O_mn|^2.

    Distinct floating-point path from qfi_spectral (tanh is evaluated from
    beta and the gaps); equality of the two routes is the
    fluctuation-dissipation consistency check.
    """
    mat = _hermitian(op_eig, ensemble.dim)
    p = ensemble.weights
    t = _pair_tanh(ensemble)
    return float(np.sum(2.0 * t * (p[None, :] - p[:, None]) * np.abs(mat) ** 2))


def qfi_via_structure_factor(op_eig, ensemble):
    """QFI through the structure-factor route:
    sum of 4 tanh^2(beta omega_mn / 2) p_n |O_mn|^2."""
    mat = _hermitian(op_eig, ensemble.dim)
    t = _pair_tanh(ensemble)
    return float(np.sum(4.0 * t**2 * ensemble.weights[None, :] * np.abs(mat) ** 2))


def qfi_from_structure_comb(comb, beta):
    """QFI from a structure-factor comb: 2 sum_k tanh^2(beta w_k / 2) s_k.

    Cluster representatives stand in for the exact gaps, so this agrees with
    the pair routes up to the clustering tolerance.
    """
    if comb.kind != "structure":
        raise DomainError(f"expected a structure comb, got kind {comb.kind!r}")
    nz = comb.omegas != 0.0
    with np.errstate(over="ignore"):
        t = np.tanh(beta * comb.omegas[nz] / 2.0)
    return float(np.sum(2.0 * t**2 * comb.weights[nz].real))


def qfi_from_susceptibility_comb(comb, beta):
    """QFI from a susceptibility comb: 2 sum_k tanh(beta w_k / 2) x_k."""
    if comb.kind != "susceptibility":
        raise DomainError(f"expected a susceptibility comb, got kind {comb.kind!r}")
    nz = comb.omegas != 0.0
    with np.errstate(over="ignore"):
        t = np.tanh(beta * comb.omegas[nz] / 2.0)
    return float(np.sum(2.0 * t * comb.weights[nz].real))


# ---------------------------------------------------------------------------
# frequency-block lower bounds

def _qv_coeff_from_x(x):
    """1 - tanh(x)/x elementwise with a series for small |x| (limit 0 at 0)."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    with np.errstate(invalid="ignore", over="ignore"):
        exact = 1.0 - np.tanh(safe) / safe
    # keep the series off the large entries: at beta = inf x is +-inf there
    # and inf**2 - inf**4 would emit spurious invalid-value warnings
    xs = np.where(small, x, 0.0)
    series = xs**2 / 3.0 - 2.0 * xs**4 / 15.0
    return np.where(small, series, exact)


# Coefficient of each bound kind as a function of (t, s, x) = (tanh x, sech x, x).
_COEFFS = {
    "qfi": lambda t, s, x: 4.0 * t**2,
    "skew": lambda t, s, x: 1.0 - s,
    "qv": lambda t, s, x: _qv_coeff_from_x(x),
    "eth_lower": lambda t, s, x: 4.0,
    "eth_gap": lambda t, s, x: 4.0 * s**2,
}

# Entries per row chunk of the pair coefficients: bounds the temporaries.
_PAIR_CHUNK = 1 << 16


def _block_coefficient(coeff, beta, omega):
    """coeff at x = beta omega / 2; zero frequency contributes 0 for every kind."""
    if omega == 0.0:
        return 0.0
    x = beta * omega / 2.0
    with np.errstate(over="ignore"):
        return float(coeff(np.tanh(x), 1.0 / np.cosh(x), x))


def _pair_coefficients(coeff, ensemble):
    """coeff(t, s, x) * p_n over all pairs (m, n), 0 below PAIR_WEIGHT_FLOOR,
    with t, s and x taken from the weights (module docstring)."""
    p, lw = ensemble.weights, ensemble.log_weights
    pn, ln = p[None, :], lw[None, :]
    out = np.empty((p.size, p.size))
    step = max(1, _PAIR_CHUNK // p.size)
    for lo in range(0, p.size, step):
        pm, lm = p[lo : lo + step, None], lw[lo : lo + step, None]
        tot = pn + pm
        mask = tot >= PAIR_WEIGHT_FLOOR
        tot = np.where(mask, tot, 1.0)
        with np.errstate(invalid="ignore"):
            t = (pn - pm) / tot
            s = 2.0 * np.sqrt(pn * pm) / tot
            x = (ln - lm) / 2.0
            out[lo : lo + step] = np.where(mask, coeff(t, s, x) * pn, 0.0)
    return out


def _bound_over_blocks(blocks, ensemble, op_eig, kind):
    """Shared engine: sum coefficient(omega_k) * D_k over blocks.

    The zero cluster or block contributes 0 for every kind (its coefficient
    vanishes).  Returns (total, per-frequency dict in ascending omega,
    saturated flag).
    """
    mat = _hermitian(op_eig, ensemble.dim)
    coeff = _COEFFS[kind]
    blocks = _block_list(blocks)
    per = {}
    for block in blocks:
        if isinstance(block, PairPartition):
            terms = block.bin(_pair_coefficients(coeff, ensemble) * np.abs(mat) ** 2)
            terms[block.omegas == 0.0] = 0.0
            items = zip(block.omegas.tolist(), terms.tolist())
        elif isinstance(block, OperatorBlock):
            c = _block_coefficient(coeff, ensemble.beta, block.omega)
            items = [(block.omega, c * mazur_weight(block, ensemble, mat) if c != 0.0 else 0.0)]
        else:
            raise DomainError(f"unknown block type {type(block).__name__}")
        for omega, term in items:
            per[omega] = per.get(omega, 0.0) + term
    per = dict(sorted(per.items()))
    total = float(sum(per.values()))
    return total, per, _is_saturating(blocks, ensemble.dim)


@dataclass(frozen=True)
class QfiReport:
    """A dynamical-symmetry QFI lower bound with its frequency breakdown.

    value is the bound; per_frequency maps each block frequency to its
    contribution 4 tanh^2(beta omega_k / 2) D_k; saturated marks a single
    complete PairPartition, for which the bound equals the QFI.
    """

    value: float
    per_frequency: dict
    saturated: bool

    def to_jsonable(self):
        return {
            "value": self.value,
            "saturated": self.saturated,
            "per_frequency": [
                {"omega": o, "contribution": c} for o, c in self.per_frequency.items()
            ],
        }


def qfi_from_dynsym(blocks, ensemble, op_eig):
    """QFI lower bound sum_k 4 tanh^2(beta omega_k / 2) D_k(O).

    blocks is a PairPartition, or a list of OperatorBlocks and
    PairPartitions.  Equality holds for the trivial complete set alone
    (saturated flag); any verified subset yields a certified lower bound.
    Conserved quantities (omega = 0) contribute nothing.
    """
    value, per, saturated = _bound_over_blocks(blocks, ensemble, op_eig, "qfi")
    return QfiReport(value, per, saturated)


def skew_lower_bound(blocks, ensemble, op_eig):
    """Lower bound on I_1/2: sum_k [1 - sech(beta omega_k / 2)] D_k(O)."""
    value, _, _ = _bound_over_blocks(blocks, ensemble, op_eig, "skew")
    return value


def qv_lower_bound(blocks, ensemble, op_eig):
    """Lower bound on the quantum variance:
    sum_k [1 - tanh(x_k)/x_k] D_k(O) with x_k = beta omega_k / 2."""
    value, _, _ = _bound_over_blocks(blocks, ensemble, op_eig, "qv")
    return value


def eth_lower_bound(blocks, ensemble, op_eig):
    """Lower bound on the ETH QFI from nonzero frequencies: sum 4 D_k."""
    value, _, _ = _bound_over_blocks(blocks, ensemble, op_eig, "eth_lower")
    return value


def eth_thermal_gap(blocks, ensemble, op_eig):
    """Lower bound on F_ETH - F_Q: sum over nonzero frequencies of
    4 D_k / cosh^2(beta omega_k / 2).

    Also certifies the inequality against the directly computed gap and
    raises NumericError when it fails beyond slack, since for verified
    blocks that would signal a numerics problem, not physics.
    """
    value, _, _ = _bound_over_blocks(blocks, ensemble, op_eig, "eth_gap")
    gap = eth_qfi(op_eig, ensemble) - qfi_spectral(op_eig, ensemble)
    if gap < value - INEQ_SLACK:
        raise NumericError(
            f"ETH gap bound {value:.12e} exceeds the computed gap {gap:.12e}"
        )
    return value


# ---------------------------------------------------------------------------
# generalized variances

def skew_information(op_eig, ensemble, alpha):
    """Skew information of order alpha:
    sum over pairs of |O_mn|^2 (p_n - p_n^alpha p_m^(1-alpha)), 0 < alpha < 1."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    mat = _hermitian(op_eig, ensemble.dim)
    p = ensemble.weights
    cross = (p**alpha)[None, :] * (p ** (1.0 - alpha))[:, None]
    return float(np.sum(np.abs(mat) ** 2 * (p[None, :] - cross)))


def quantum_variance(op_eig, ensemble):
    """Quantum variance: the alpha-average of the skew information, in
    closed form sum over m != n of |O_mn|^2 [p_n - (p_n - p_m)/ln(p_n/p_m)].

    The log ratio comes from the stored log weights, with a series around
    p_n = p_m; pairs below the weight floor are skipped.
    """
    mat = _hermitian(op_eig, ensemble.dim)
    p = ensemble.weights
    lw = ensemble.log_weights
    pn = p[None, :]
    pm = p[:, None]
    tot = pn + pm
    mask = tot >= PAIR_WEIGHT_FLOOR
    with np.errstate(invalid="ignore"):
        r = lw[None, :] - lw[:, None]
    small = np.abs(r) < 1e-6
    safe = np.where(small, 1.0, r)
    with np.errstate(invalid="ignore", divide="ignore"):
        exact = pn - (pn - pm) / safe
    rs = np.where(small & mask, r, 0.0)
    series = pm * (rs / 2.0 + rs**2 / 3.0 + rs**3 / 8.0)
    terms = np.where(mask, np.where(small, series, exact), 0.0)
    return float(np.sum(np.abs(mat) ** 2 * terms))


# ---------------------------------------------------------------------------
# QFI matrix

@dataclass(frozen=True)
class QfiMatrix:
    """Real symmetric PSD matrix of QFI elements over a generator list.

    commuting records whether all generator pairs commuted within tolerance;
    a False value means the multi-parameter interpretation is not certified.
    """

    matrix: np.ndarray
    commuting: bool = True

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"QFI matrix must be square, got shape {m.shape}")
        if np.abs(m - m.T).max() > 1e-10 * max(1.0, np.abs(m).max()):
            raise NumericError("QFI matrix lost symmetry")
        evals = np.linalg.eigvalsh((m + m.T) / 2.0)
        scale = max(1.0, float(np.abs(evals).max()) if evals.size else 0.0)
        if evals.size and float(evals.min()) < -1e-9 * scale:
            raise NumericError(
                f"QFI matrix indefinite: eigenvalue {evals.min():.3e} against {scale:.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def to_jsonable(self):
        return {"matrix": self.matrix.tolist(), "commuting": self.commuting}


def _check_commuting(gens):
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            ga, gb = gens[a], gens[b]
            dev = np.abs(ga @ gb - gb @ ga).max()
            scale = max(1.0, float(np.abs(ga).max() * np.abs(gb).max()))
            if dev > 1e-10 * scale:
                warnings.warn(
                    f"generators {a} and {b} do not commute (deviation {dev:.3e}); "
                    "the multi-parameter QFI interpretation needs commuting generators",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return False
    return True


def qfi_matrix(generators, ensemble):
    """QFI matrix over a list of eigenbasis generators:
    [F]_ab = sum over pairs of 2 (p_n-p_m)^2/(p_n+p_m) Re[(O_a)_mn (O_b)_nm]."""
    gens = [_hermitian(g, ensemble.dim, f"generator {i}") for i, g in enumerate(generators)]
    if not gens:
        raise DomainError("need at least one generator")
    commuting = _check_commuting(gens)
    w = _pair_weights(ensemble)
    d = len(gens)
    out = np.zeros((d, d))
    for a in range(d):
        for b in range(a, d):
            val = float(np.sum(w * (gens[a] * gens[b].conj()).real))
            out[a, b] = out[b, a] = val
    return QfiMatrix(out, commuting)


def qfi_matrix_from_dynsym(blocks, ensemble, generators):
    """Frequency-decomposed QFI matrix:
    sum_k 4 tanh^2(beta omega_k / 2) Re[D_k] with
    [D_k]_ab the block's Gram-orthogonalized cross correlators.

    Equals qfi_matrix for the trivial complete set; any verified set gives a
    matrix M with qfi_matrix - M positive semidefinite.
    """
    gens = [_hermitian(g, ensemble.dim, f"generator {i}") for i, g in enumerate(generators)]
    if not gens:
        raise DomainError("need at least one generator")
    commuting = _check_commuting(gens)
    d = len(gens)
    coeff = _COEFFS["qfi"]
    total = np.zeros((d, d))
    for block in _block_list(blocks):
        if isinstance(block, PairPartition):
            pair_coeff = _pair_coefficients(coeff, ensemble)
            nonzero = block.omegas != 0.0
            for a in range(d):
                for b in range(a, d):
                    binned = block.bin(pair_coeff * (gens[a] * gens[b].conj()).real)
                    val = float(binned[nonzero].sum())
                    total[a, b] += val
                    if b != a:
                        total[b, a] += val
        elif isinstance(block, OperatorBlock):
            c = _block_coefficient(coeff, ensemble.beta, block.omega)
            if c == 0.0:
                continue
            grams = [block_gram(block, ensemble, g) for g in gens]
            rows = np.stack([corr for _, corr in grams])
            total += c * _pinv_quadratic(grams[0][0], rows).real
        else:
            raise DomainError(f"unknown block type {type(block).__name__}")
    return QfiMatrix((total + total.T) / 2.0, commuting)


# ---------------------------------------------------------------------------
# ETH quantities

def eth_qfi(op_eig, ensemble):
    """QFI of an ETH pure state at this canonical temperature:
    4 (<O^2> - <O>^2), the t = 0 value of the structure-factor integral."""
    mat = _hermitian(op_eig, ensemble.dim)
    p = ensemble.weights
    second = float(np.einsum("mn,mn,n->", mat.conj(), mat, p).real)
    mean = float(np.dot(p, np.real(np.diagonal(mat))))
    return 4.0 * (second - mean**2)


def eth_qfi_from_comb(comb):
    """ETH QFI by summing a structure-factor comb: 2 sum_k s_k."""
    if comb.kind != "structure":
        raise DomainError(f"expected a structure comb, got kind {comb.kind!r}")
    return 2.0 * float(comb.total())


def eth_zero_frequency_correction(op_eig, ensemble, omega_tol=None):
    """The omega = 0 correction 4 (D_0^complete - <O>^2) separating eth_qfi
    from the nonzero-frequency sum: eth_qfi = eth_lower_bound(trivial set)
    + this value.  D_0^complete is the trivial set's zero-cluster weight,
    degenerate pairs included."""
    mat = _hermitian(op_eig, ensemble.dim)
    part = trivial_complete_set(ensemble, omega_tol)
    weights = part.bin(ensemble.weights[None, :] * np.abs(mat) ** 2)
    d0 = float(weights[part.omegas == 0.0].sum())
    mean = float(np.dot(ensemble.weights, np.real(np.diagonal(mat))))
    return 4.0 * (d0 - mean**2)


# ---------------------------------------------------------------------------
# entanglement witness

@dataclass(frozen=True)
class WitnessReport:
    """Entanglement-depth certificate from the QFI density."""

    n_particles: int
    f_q: float
    depth: int


def entanglement_depth(qfi_value, n_particles, witness_tol=WITNESS_TOL):
    """Certified entanglement depth from F_Q on n particles.

    depth = 1 + max{integer kappa >= 0 with f_Q > kappa + witness_tol},
    floored at 1: a density at or below 1 certifies nothing.
    """
    n = int(n_particles)
    if n < 1:
        raise DomainError(f"need at least one particle, got {n}")
    f = float(qfi_value) / n
    if f < -1e-12:
        raise DomainError(f"QFI must be nonnegative, got {qfi_value}")
    f = max(f, 0.0)
    kappa = max(0, math.ceil(f - witness_tol) - 1)
    return WitnessReport(n, f, kappa + 1)

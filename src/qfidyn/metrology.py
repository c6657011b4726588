"""Quantum Fisher information and generalized variances of thermal states.

Every function takes the generator in the energy eigenbasis plus a
ThermalEnsemble.  The generator is a dense matrix or a weighted
PairPartition (trivial_complete_set with op_eig): the pairs m <= n with
O_mn != 0 and their entries.  A dense matrix is certified Hermitian and
gathered into the same pairs on each call, so both take one code path; a
sweep over temperatures builds the set once and passes it every time.
Each pair (m, n) stands for the ordered pairs (m, n) and, off the
diagonal, (n, m), with O_nm = conj(O_mn) and omega_mn = E_m - E_n; pairs
whose combined weight falls below PAIR_WEIGHT_FLOOR are skipped.

Every total over the pairs that is not binned per cluster is one pass,
_pair_sum: 8.4 to 9.3 B a pair above the set at 12 sites (tracemalloc).

Lower bounds decompose over the frequencies of a symmetry set (a
PairPartition alone, or OperatorBlocks at distinct frequencies), each kind
with one coefficient function of (t, s, x) = (tanh x, sech x, x) at
x = beta omega / 2.  One engine forms them for a list of generators
(_bound_over_blocks); the scalar bounds are its 1 x 1 case, so each is bit
for bit the diagonal entry of the QFI-matrix bound.  The engine never looks
at the form of the set: dynsym._frequency_sums, the one place that does,
hands it one coefficient-weighted column per frequency.  A PairPartition
evaluates the coefficient per pair from the weights themselves
(dynsym._PairRatios) in the one binned pass that also gives its Mazur
weights; this keeps the bounds exactly saturated for a complete set even
when frequency clustering merges nearby gaps, the zero cluster included,
and it is well defined at beta = inf where beta * omega arithmetic is not.
Explicit OperatorBlocks use their block frequency, which is the honest
choice for a user-supplied symmetry set.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

from ._frozen import Frozen, FrozenRecord
from .dynsym import _abs2, _dense, _frequency_sums, _operator_pairs, _thermal_mean
from .errors import DomainError, NumericError
from .operators import _chunks, _key_union, _keys, _values_at, _whole
from .spectral import PAIR_WEIGHT_FLOOR, default_energy_tol

# Slack for internal inequality certificates (ETH gap assertion).
INEQ_SLACK = 1e-9
# Witness tolerance on the strict inequality f_Q > kappa.
WITNESS_TOL = 1e-9


def _pair_sum(weight, ensemble, rows, cols, values, other=None):
    """The sum over pairs m <= n of weight(ensemble, m, n) |O_mn|^2, or with
    other of weight(ensemble, m, n) Re[O_mn other_mn^*], formed a chunk at a
    time into one float64 array summed whole: the whole-array total, bit for bit."""
    terms = np.empty(rows.size)
    for s in _chunks(rows.size):
        terms[s] = weight(ensemble, rows[s], cols[s])
        terms[s] *= _abs2(values[s]) if other is None else (values[s] * other[s].conj()).real
    return float(np.sum(terms))


def _qfi_pair_weights(ensemble, rows, cols):
    """(p_n - p_m)^2 / (p_n + p_m) over the pairs, 0 below PAIR_WEIGHT_FLOOR."""
    pm, pn = ensemble.weights.take(rows), ensemble.weights.take(cols)
    tot = pm + pn
    pn -= pm
    pn *= pn
    return np.divide(pn, tot, out=np.zeros_like(tot), where=tot >= PAIR_WEIGHT_FLOOR)


def _half_tanh(ensemble, rows, cols):
    """tanh(beta omega_mn / 2) over the pairs, computed from beta and the gaps.

    At beta = inf every gap within default_energy_tol is 0, the rule
    gibbs_weights uses to spread the ground weight, so inf * 0 never occurs
    and a numerically split level counts as the one level it is.  At finite
    beta a tiny gap gives a tiny, exact tanh and is left alone.
    """
    e = ensemble.energies
    omega = e.take(rows) - e.take(cols)
    with np.errstate(invalid="ignore", over="ignore"):
        t = np.tanh(ensemble.beta * omega / 2.0)
    if math.isinf(ensemble.beta):
        t[np.abs(omega) <= default_energy_tol(e)] = 0.0
    return t


def qfi_spectral(op_eig, ensemble):
    """QFI of the thermal state under the generator O:
    sum over ordered pairs of 2 (p_n - p_m)^2 / (p_n + p_m) |<E_m|O|E_n>|^2,
    that is 4 sum over pairs m <= n of the same (diagonal terms vanish)."""
    return 4.0 * _pair_sum(_qfi_pair_weights, ensemble, *_operator_pairs(op_eig, ensemble.dim))


def qfi_via_susceptibility(op_eig, ensemble):
    """QFI through the dissipative-susceptibility route:
    sum over ordered pairs of 2 tanh(beta omega_mn / 2) (p_n - p_m) |O_mn|^2.

    Distinct floating-point path from qfi_spectral (tanh is evaluated from
    beta and the gaps); equality of the two routes is the
    fluctuation-dissipation consistency check.
    """
    def weight(e, rows, cols):
        return _half_tanh(e, rows, cols) * (e.weights.take(cols) - e.weights.take(rows))

    return 4.0 * _pair_sum(weight, ensemble, *_operator_pairs(op_eig, ensemble.dim))


def qfi_via_structure_factor(op_eig, ensemble):
    """QFI through the structure-factor route:
    sum over ordered pairs of 4 tanh^2(beta omega_mn / 2) p_n |O_mn|^2."""
    def weight(e, rows, cols):
        return _half_tanh(e, rows, cols) ** 2 * (e.weights.take(cols) + e.weights.take(rows))

    return 4.0 * _pair_sum(weight, ensemble, *_operator_pairs(op_eig, ensemble.dim))


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


def _four_squared(a):
    """4 a^2, formed in a's own memory."""
    np.square(a, out=a)
    a *= 4.0
    return a


# Coefficient of each bound kind as a function of r.t, r.s, r.x =
# tanh x, sech x, x, as arrays (dynsym._PairRatios).  r forms each of them
# for one coefficient alone, so a coefficient may overwrite the one it
# reads, and a temperature's pass makes fewer temporaries.
_COEFFS = {
    "qfi": lambda r: _four_squared(r.t),
    "skew": lambda r: np.subtract(1.0, r.s, out=r.s),
    "qv": lambda r: _qv_coeff_from_x(r.x),
    "eth_lower": lambda r: np.full_like(r.t, 4.0),
    "eth_gap": lambda r: _four_squared(r.s),
}
# Kinds whose coefficient does not vanish at omega = 0 and which count the
# nonzero frequencies only: the zero cluster of a PairPartition is dropped
# for them.  For the others a pair of equal weights (t = 0, s = 1, x = 0)
# has coefficient 0, and a nearby gap merged into the zero cluster keeps
# its own term, which at large beta is not small.
_NONZERO_FREQUENCIES_ONLY = {"eth_lower", "eth_gap"}


def _bound_over_blocks(blocks, ensemble, generators, kind):
    """The frequency-block engine: sum_k coefficient(omega_k) [D_k]_ab over
    the frequencies of a symmetry set for each generator pair (a, b),
    a <= b, row by row as np.triu_indices lists them; [D_k]_ab is the
    Gram-orthogonalized cross correlator, the Mazur weight D_k when a = b.
    The QFI-matrix bound reads every pair; a scalar bound is the 1 x 1 case.

    dynsym._frequency_sums gives one column per cluster or block, each
    already times its coefficient; a zero-frequency column contributes 0
    for the kinds in _NONZERO_FREQUENCIES_ONLY, and for the others holds
    the terms of the gaps clustered to 0, each 0 at an exact degeneracy
    (an explicit block at omega = 0 contributes 0 for every kind).  The
    columns are put in ascending frequency and each total is the Python sum
    of its row.  Returns (totals, frequencies, contributions, one row per
    pair, saturated: a PairPartition covering every generator).
    """
    omegas, summed, saturated = _frequency_sums(blocks, ensemble, generators, _COEFFS[kind])
    if kind in _NONZERO_FREQUENCIES_ONLY:
        summed[:, omegas == 0.0] = 0.0
    order = np.argsort(omegas, kind="stable")
    omegas, summed = omegas[order], summed[:, order]
    totals = [float(sum(row.tolist())) for row in summed]
    return totals, omegas, summed, saturated


class QfiReport(Frozen):
    """A dynamical-symmetry QFI lower bound with its frequency breakdown.

    value is the bound; omegas holds the block frequencies, ascending, and
    contributions the term 4 tanh^2(beta omega_k / 2) D_k at each, both
    copied; per_frequency maps one to the other, a new dict on each read.
    saturated marks a single PairPartition covering the generator, for
    which the bound equals the QFI.
    """

    _fields = ("value", "omegas", "contributions", "saturated")

    def __init__(self, value, omegas, contributions, saturated):
        self._set(value=value, omegas=np.array(omegas, dtype=float),
                  contributions=np.array(contributions, dtype=float), saturated=saturated)

    @property
    def per_frequency(self):
        return dict(zip(self.omegas.tolist(), self.contributions.tolist()))


def qfi_from_dynsym(blocks, ensemble, op_eig):
    """QFI lower bound sum_k 4 tanh^2(beta omega_k / 2) D_k(O).

    blocks is a PairPartition alone, or a list of OperatorBlocks at
    distinct frequencies (as group_into_blocks makes); anything else raises
    DomainError.  Equality holds for a PairPartition covering O, such as the
    trivial complete set (saturated flag); any verified subset yields a
    certified lower bound.  Conserved quantities (omega = 0) contribute
    nothing.
    """
    totals, omegas, summed, saturated = _bound_over_blocks(blocks, ensemble, [op_eig], "qfi")
    return QfiReport(totals[0], omegas, summed[0], saturated)


def skew_lower_bound(blocks, ensemble, op_eig):
    """Lower bound on I_1/2: sum_k [1 - sech(beta omega_k / 2)] D_k(O)."""
    return _bound_over_blocks(blocks, ensemble, [op_eig], "skew")[0][0]


def qv_lower_bound(blocks, ensemble, op_eig):
    """Lower bound on the quantum variance:
    sum_k [1 - tanh(x_k)/x_k] D_k(O) with x_k = beta omega_k / 2."""
    return _bound_over_blocks(blocks, ensemble, [op_eig], "qv")[0][0]


def eth_lower_bound(blocks, ensemble, op_eig):
    """Lower bound on the ETH QFI from nonzero frequencies: sum 4 D_k."""
    return _bound_over_blocks(blocks, ensemble, [op_eig], "eth_lower")[0][0]


def eth_thermal_gap(blocks, ensemble, op_eig):
    """Lower bound on F_ETH - F_Q: sum over nonzero frequencies of
    4 D_k / cosh^2(beta omega_k / 2).

    Also certifies the inequality against the directly computed gap and
    raises NumericError when it fails beyond slack, since for verified
    blocks that would signal a numerics problem, not physics.
    """
    value = _bound_over_blocks(blocks, ensemble, [op_eig], "eth_gap")[0][0]
    gap = eth_qfi(op_eig, ensemble) - qfi_spectral(op_eig, ensemble)
    if gap < value - INEQ_SLACK:
        raise NumericError(
            f"ETH gap bound {value:.12e} exceeds the computed gap {gap:.12e}"
        )
    return value


# ---------------------------------------------------------------------------
# generalized variances

def _ordered(term):
    """The pair weight of a sum over ordered pairs (a, b) of term(p_a, p_b,
    ln p_a, ln p_b) |O_ab|^2: a pair m <= n is (m, n) and, if m < n, (n, m)."""
    def weight(e, rows, cols):
        p, lw = e.weights, e.log_weights
        pm, pn, lm, ln = p.take(rows), p.take(cols), lw.take(rows), lw.take(cols)
        return term(pm, pn, lm, ln) + np.where(rows != cols, term(pn, pm, ln, lm), 0.0)

    return weight


def skew_information(op_eig, ensemble, alpha):
    """Skew information of order alpha:
    sum over pairs of |O_mn|^2 (p_n - p_n^alpha p_m^(1-alpha)), 0 < alpha < 1."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return _pair_sum(_ordered(lambda pm, pn, lm, ln: pn - pn**alpha * pm ** (1.0 - alpha)),
                     ensemble, *_operator_pairs(op_eig, ensemble.dim))


def _qv_term(pm, pn, lm, ln):
    """p_n - (p_n - p_m)/ln(p_n/p_m), with a series around p_n = p_m and 0
    below the weight floor."""
    mask = pn + pm >= PAIR_WEIGHT_FLOOR
    with np.errstate(invalid="ignore"):
        r = ln - lm
    small = np.abs(r) < 1e-6
    safe = np.where(small, 1.0, r)
    with np.errstate(invalid="ignore", divide="ignore"):
        exact = pn - (pn - pm) / safe
    rs = np.where(small & mask, r, 0.0)
    series = pm * (rs / 2.0 + rs**2 / 3.0 + rs**3 / 8.0)
    return np.where(mask, np.where(small, series, exact), 0.0)


def quantum_variance(op_eig, ensemble):
    """Quantum variance: the alpha-average of the skew information, in
    closed form sum over m != n of |O_mn|^2 [p_n - (p_n - p_m)/ln(p_n/p_m)].

    The log ratio comes from the stored log weights, with a series around
    p_n = p_m; pairs below the weight floor are skipped.
    """
    return _pair_sum(_ordered(_qv_term), ensemble, *_operator_pairs(op_eig, ensemble.dim))


# ---------------------------------------------------------------------------
# QFI matrix

class QfiMatrix(Frozen):
    """Real symmetric PSD matrix of QFI elements over a generator list.

    commuting records whether all generator pairs commuted within tolerance;
    a False value means the multi-parameter interpretation is not certified.
    """

    _fields = ("matrix", "commuting")

    def __init__(self, matrix, commuting):
        m = np.array(matrix, dtype=float)
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
        self._set(matrix=m, commuting=commuting)


def _check_commuting(gens):
    for (a, ga), (b, gb) in itertools.combinations(enumerate(gens), 2):
        dev = np.abs(ga @ gb - gb @ ga).max()
        scale = max(1.0, float(np.abs(ga).max() * np.abs(gb).max()))
        if dev > 1e-10 * scale:
            warnings.warn(
                f"generators {a} and {b} do not commute (deviation {dev:.3e}); "
                "the multi-parameter QFI interpretation needs commuting generators",
                RuntimeWarning,
                # past _generator_pairs and the public function, to its caller
                stacklevel=4,
            )
            return False
    return True


def _generator_pairs(generators, dim):
    """Each generator's (rows, cols, values) and the commuting flag."""
    gens = [_operator_pairs(g, dim, f"generator {i}") for i, g in enumerate(generators)]
    if not gens:
        raise DomainError("need at least one generator")
    # one generator has no pair to check, so it is never made dense
    return gens, len(gens) < 2 or _check_commuting([_dense(*g, dim) for g in gens])


def qfi_matrix(generators, ensemble):
    """QFI matrix over a list of eigenbasis generators:
    [F]_ab = sum over pairs of 2 (p_n-p_m)^2/(p_n+p_m) Re[(O_a)_mn (O_b)_nm],
    summed over the union of the generators' pairs."""
    dim = ensemble.dim
    gens, commuting = _generator_pairs(generators, dim)
    rows, cols = np.divmod(_key_union([_keys(r, c, dim) for r, c, _ in gens]), dim)
    vals = [_values_at(g, rows, cols, dim) for g in gens]
    out = np.zeros((len(gens),) * 2)
    for a, b in zip(*np.triu_indices(len(gens))):
        out[a, b] = out[b, a] = _pair_sum(lambda e, r, c: 4.0 * _qfi_pair_weights(e, r, c),
                                          ensemble, rows, cols, vals[a], vals[b])
    return QfiMatrix(out, commuting)


def qfi_matrix_from_dynsym(blocks, ensemble, generators):
    """Frequency-decomposed QFI matrix:
    sum_k 4 tanh^2(beta omega_k / 2) Re[D_k] with
    [D_k]_ab the block's Gram-orthogonalized cross correlators.

    blocks takes the two forms of qfi_from_dynsym.  Equals qfi_matrix for
    the trivial complete set; any verified set gives a matrix M with
    qfi_matrix - M positive semidefinite.  A PairPartition sums over its
    own pairs, so a generator entry outside it is left out.
    qfi_from_dynsym is the 1 x 1 case of the same engine
    (_bound_over_blocks), so each diagonal entry is that bound bit for bit.
    """
    generators = list(generators)
    # a lone generator has no pair to check, so only the engine reads it
    commuting = len(generators) == 1 or _generator_pairs(generators, ensemble.dim)[1]
    totals = _bound_over_blocks(blocks, ensemble, generators, "qfi")[0]
    out = np.zeros((len(generators),) * 2)
    upper = np.triu_indices(len(generators))
    out[upper] = out.T[upper] = totals
    return QfiMatrix(out, commuting)


# ---------------------------------------------------------------------------
# ETH quantities

def eth_qfi(op_eig, ensemble):
    """QFI of an ETH pure state at this canonical temperature:
    4 (<O^2> - <O>^2), the t = 0 value of the structure-factor integral."""
    pairs = _operator_pairs(op_eig, ensemble.dim)
    second = _pair_sum(_ordered(lambda pm, pn, lm, ln: pn), ensemble, *pairs)
    mean = _thermal_mean(ensemble.weights, *pairs)
    return 4.0 * (second - mean**2)


def eth_qfi_from_comb(comb):
    """ETH QFI by summing a structure-factor comb: 2 sum_k s_k."""
    if comb.kind != "structure":
        raise DomainError(f"expected a structure comb, got kind {comb.kind!r}")
    return 2.0 * float(comb.total())


# ---------------------------------------------------------------------------
# entanglement witness

class WitnessReport(FrozenRecord):
    """Entanglement-depth certificate from the QFI density."""

    _fields = ("n_particles", "f_q", "depth")

    def __init__(self, n_particles, f_q, depth):
        self._set(n_particles=n_particles, f_q=f_q, depth=depth)


def entanglement_depth(qfi_value, n_particles):
    """Certified entanglement depth from F_Q on n particles.

    depth = 1 + max{integer kappa >= 0 with f_Q > kappa + WITNESS_TOL},
    floored at 1: a density at or below 1 certifies nothing.
    """
    n = _whole(n_particles, "number of particles")
    if n < 1:
        raise DomainError(f"need at least one particle, got {n}")
    try:
        f = float(qfi_value) / n
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise DomainError(f"QFI must be finite, got {qfi_value}")
    if f < -1e-12:
        raise DomainError(f"QFI must be nonnegative, got {qfi_value}")
    f = max(f, 0.0)
    kappa = max(0, math.ceil(f - WITNESS_TOL) - 1)
    return WitnessReport(n, f, kappa + 1)

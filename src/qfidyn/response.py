"""Delta-comb representations of thermal response functions.

Finite systems have purely discrete spectra, so the dynamical response
G(omega) and the structure factor S(omega) are sums of delta peaks.  A
FrequencyComb stores the Kronecker-side weights (one finite number per
frequency cluster); the Dirac-side densities follow from the documented
conversion S(omega) = 2 pi sum_k s_k delta(omega - w_k), and likewise for
the response, so no 2 pi factors live in the data.  The dissipative
susceptibility comb is the structure comb's weights times
tanh(beta omega_k / 2), by the fluctuation-dissipation relation.

Every comb bins its per-pair weights over a weighted pair set: the operator
itself when it is one, else trivial_complete_set over its nonzero pairs with
the same tolerance as the dynamical-symmetry machinery.  Comb frequencies
therefore align bin-for-bin with the trivial complete set's cluster
frequencies, and pairs where O_mn = 0, which carry no weight, are never
visited.  comb_bound_check takes the Mazur weights of a symmetry set, in
either form, from dynsym._frequency_sums, the one place that tells the
forms apart, and matches every block frequency to its nearest tooth in one
search over the sorted teeth.
"""

from __future__ import annotations

import numpy as np

from ._frozen import Frozen, FrozenRecord
from .dynsym import _frequency_sums, _pair_set, _thermal_mean, default_omega_tol
from .errors import DomainError, NumericError
from .operators import _ordered

KINDS = ("response", "structure")

# Rounding can push mathematically nonnegative weights slightly below zero;
# values in [-NEG_WEIGHT_TOL, 0) are clamped to 0 and counted.
NEG_WEIGHT_TOL = 1e-12

# Tolerance for the structure comb's omega -> -omega symmetry certificate.
MIRROR_RTOL = 1e-9

# Largest shortfall g - D_k of a comb weight below its Mazur weight that
# comb_bound_check reads as rounding rather than a violation.
BOUND_CHECK_ATOL = 1e-10


class FrequencyComb(Frozen):
    """Sorted frequencies with one weight per frequency.

    Weights are stored complex and validated real.  clamped counts tiny negative weights zeroed at build time.
    """

    _fields = ("omegas", "weights", "kind", "clamped")

    def __init__(self, omegas, weights, kind, clamped=0):
        if kind not in KINDS:
            raise DomainError(f"unknown comb kind {kind!r}; valid kinds are {KINDS}")
        om = np.array(omegas, dtype=float)
        w = np.array(weights, dtype=complex)
        if om.ndim != 1 or om.shape != w.shape:
            raise DomainError("omegas and weights must be matching 1-d arrays")
        _ordered(om, "omegas", strict=True)
        scale = float(np.abs(w).max()) if w.size else 0.0
        if w.size and np.abs(w.imag).max() > 1e-12 * max(1.0, scale):
            raise NumericError(f"{kind} comb has complex weights")
        if kind == "response" and w.size:
            if w.real.min() < -NEG_WEIGHT_TOL * max(1.0, scale):
                raise NumericError(
                    f"response weights must be nonnegative, found {w.real.min():.3e}"
                )
        if kind == "structure":
            self._check_mirror(om, w, scale)
        self._set(omegas=om, weights=w, kind=kind, clamped=clamped)

    @staticmethod
    def _check_mirror(om, w, scale):
        if not np.array_equal(om, -om[::-1]):
            raise NumericError("structure comb frequencies are not symmetric about 0")
        dev = np.abs(w - w[::-1]).max() if w.size else 0.0
        if dev > MIRROR_RTOL * max(1.0, scale):
            raise NumericError(f"structure comb weights asymmetric by {dev:.3e}")

    def total(self):
        """Sum of all weights."""
        return complex(self.weights.sum()).real


def _weights_at(comb, omegas, tol):
    """The comb's weight at each frequency of the array omegas, 0 where no
    tooth lies within tol: the tooth np.argmin of the distance over every
    tooth picks, the first of any tie.  One searchsorted finds the tooth at
    or above each frequency, which then steps down while the tooth below is
    as near (rounded distances can tie over more than one step)."""
    teeth = comb.omegas
    if not teeth.size:
        return np.zeros(omegas.size)
    best = np.minimum(np.searchsorted(teeth, omegas), teeth.size - 1)
    while True:
        gap = np.abs(teeth[best] - omegas)
        down = (best > 0) & (np.abs(teeth[best - 1] - omegas) <= gap)
        if not down.any():
            return np.where(gap <= tol, comb.weights.real[best], 0.0)
        best[down] -= 1


def response_comb(op_eig, ensemble):
    """Dynamical-response comb: g(omega_k) = sum over the cluster of
    p_n |<E_m|O|E_n>|^2.

    op_eig is a dense eigenbasis matrix, clustered at the default
    tolerance, or a weighted pair set, which brings its own clusters.
    Zero-weight entries are dropped except at omega = 0, which is always
    kept (as in structure_factor_comb); weights are nonnegative by
    construction.
    """
    part = _pair_set(op_eig, ensemble)
    binned = part.cluster_weights(ensemble, part.values)
    keep = (binned != 0.0) | (part.omegas == 0.0)
    return FrequencyComb(part.omegas[keep], binned[keep], "response")


def structure_factor_comb(op_eig, ensemble):
    """Structure-factor comb: s(omega_k) = g(omega_k) + g(-omega_k) for
    omega_k != 0 and s(0) = 2 g(0) - 2 <O>^2.

    op_eig is as for response_comb.  The connected zero peak can round
    slightly negative; values within NEG_WEIGHT_TOL (relative) are clamped
    to 0 and counted in clamped.  Dirac-side convention:
    S(omega) = 2 pi sum_k s_k delta(omega - omega_k).
    """
    part = _pair_set(op_eig, ensemble)
    reps = part.omegas
    g = part.cluster_weights(ensemble, part.values)
    s = g + g[::-1]
    mean = _thermal_mean(ensemble.weights, part.rows, part.cols, part.values)
    zero = np.flatnonzero(reps == 0.0)
    if zero.size != 1:
        raise NumericError("clustering produced no unique zero-frequency bin")
    s[zero[0]] = 2.0 * g[zero[0]] - 2.0 * mean**2
    clamped = 0
    scale = max(1.0, float(np.abs(s).max()))
    if -NEG_WEIGHT_TOL * scale <= s[zero[0]] < 0.0:
        s[zero[0]] = 0.0
        clamped = 1
    keep = (s != 0.0) | (reps == 0.0)
    return FrequencyComb(reps[keep], s[keep], "structure", clamped)


class BoundCheckReport(FrozenRecord):
    """Outcome of comparing a response comb against Mazur weights.

    rows holds (omega_k, g, D_k, margin) with margin = g - D_k, one row per
    partition cluster or per OperatorBlock, in the order given; equality is
    set when the set is a pair partition that covers every nonzero entry of
    the operator, in which case every margin is zero up to rounding.
    """

    _fields = ("rows", "equality")

    def __init__(self, rows, equality):
        self._set(rows=rows, equality=equality)


def comb_bound_check(comb, blocks, ensemble, op_eig):
    """Certify g(omega_k) >= D_k(O) for every block against a response comb.

    blocks is a PairPartition on its own, or a list of OperatorBlocks at
    distinct frequencies, as for qfi_from_dynsym (DomainError otherwise).
    Block frequencies are matched to comb entries within the shared
    clustering tolerance (an absent entry counts as g = 0), all blocks at
    once (_weights_at).  A violation beyond BOUND_CHECK_ATOL raises
    NumericError listing every offending frequency; otherwise a
    BoundCheckReport is returned.
    """
    if comb.kind != "response":
        raise DomainError(f"bound check needs a response comb, got kind {comb.kind!r}")
    omegas, mazur, equality = _frequency_sums(blocks, ensemble, [op_eig])
    mazur = mazur[0]
    g = _weights_at(comb, omegas, default_omega_tol(ensemble.energies))
    rows = tuple(zip(omegas.tolist(), g.tolist(), mazur.tolist(), (g - mazur).tolist()))
    bad = [r for r in rows if r[3] < -BOUND_CHECK_ATOL]
    if bad:
        listing = "; ".join(f"omega={o:.6g}: g={g:.6e} < D={d:.6e}" for o, g, d, _ in bad)
        raise NumericError(f"response comb violates the Mazur bound at {listing}")
    return BoundCheckReport(rows, equality)

"""Delta-comb representations of thermal response functions.

Finite systems have purely discrete spectra, so the dynamical response
G(omega), the structure factor S(omega) and the dissipative susceptibility
are sums of delta peaks.  A FrequencyComb stores the Kronecker-side weights
(one finite number per frequency cluster); the Dirac-side densities follow
from the documented conversion S(omega) = 2 pi sum_k s_k delta(omega - w_k),
and likewise for the other kinds, so no 2 pi factors live in the data.

Every comb bins its per-pair weights over a weighted pair set: the operator
itself when it is one, else trivial_complete_set over its nonzero pairs with
the same tolerance as the dynamical-symmetry machinery.  Comb frequencies
therefore align bin-for-bin with the trivial complete set's cluster
frequencies, and pairs where O_mn = 0, which carry no weight, are never
visited.
"""

from __future__ import annotations

import numpy as np

from ._frozen import Frozen, FrozenRecord
from .dynsym import (
    OperatorBlock,
    PairPartition,
    _block_list,
    _diagonal,
    _is_saturating,
    _pair_set,
    default_omega_tol,
    mazur_weight,
)
from .errors import DomainError, NumericError

KINDS = ("response", "structure", "susceptibility", "cross")

# Rounding can push mathematically nonnegative weights slightly below zero;
# values in [-NEG_WEIGHT_TOL, 0) are clamped to 0 and counted.
NEG_WEIGHT_TOL = 1e-12

# Tolerance for the structure comb's omega -> -omega symmetry certificate.
MIRROR_RTOL = 1e-9


class FrequencyComb(Frozen):
    """Sorted frequencies with one weight per frequency.

    Weights are stored complex; for every kind except cross they are real
    (validated).  clamped counts tiny negative weights zeroed at build time.
    """

    _fields = ("omegas", "weights", "kind", "clamped")

    def __init__(self, omegas, weights, kind, clamped=0):
        if kind not in KINDS:
            raise DomainError(f"unknown comb kind {kind!r}; valid kinds are {KINDS}")
        om = np.array(omegas, dtype=float)
        w = np.array(weights, dtype=complex)
        if om.ndim != 1 or om.shape != w.shape:
            raise DomainError("omegas and weights must be matching 1-d arrays")
        if om.size > 1 and np.any(np.diff(om) <= 0):
            raise DomainError("omegas must be strictly increasing")
        scale = float(np.abs(w).max()) if w.size else 0.0
        if kind != "cross" and w.size:
            if np.abs(w.imag).max() > 1e-12 * max(1.0, scale):
                raise NumericError(f"{kind} comb has complex weights")
        if kind == "response" and w.size:
            if w.real.min() < -NEG_WEIGHT_TOL * max(1.0, scale):
                raise NumericError(
                    f"response weights must be nonnegative, found {w.real.min():.3e}"
                )
        if kind == "structure":
            self._check_mirror(om, w, scale)
        om.setflags(write=False)
        w.setflags(write=False)
        self.__dict__.update(omegas=om, weights=w, kind=kind, clamped=clamped)

    @staticmethod
    def _check_mirror(om, w, scale):
        if not np.array_equal(om, -om[::-1]):
            raise NumericError("structure comb frequencies are not symmetric about 0")
        dev = np.abs(w - w[::-1]).max() if w.size else 0.0
        if dev > MIRROR_RTOL * max(1.0, scale):
            raise NumericError(f"structure comb weights asymmetric by {dev:.3e}")

    @property
    def size(self):
        return self.omegas.size

    def total(self):
        """Sum of all weights (real for real-weight kinds)."""
        val = complex(self.weights.sum())
        if self.kind != "cross":
            return val.real
        return val

    def weight_at(self, omega, tol=0.0):
        """Weight at a frequency, 0 when absent; nearest match within tol."""
        if self.size == 0:
            return 0.0 if self.kind != "cross" else 0j
        i = int(np.argmin(np.abs(self.omegas - omega)))
        if abs(self.omegas[i] - omega) <= tol:
            w = self.weights[i]
            return complex(w) if self.kind == "cross" else float(w.real)
        return 0.0 if self.kind != "cross" else 0j

    def prune(self, atol):
        """Drop entries with |weight| <= atol; structure keeps its 0 entry."""
        keep = np.abs(self.weights) > atol
        if self.kind == "structure":
            keep |= self.omegas == 0.0
        return FrequencyComb(self.omegas[keep], self.weights[keep], self.kind, self.clamped)

    def to_csv(self):
        """Comb as CSV text with columns omega, weight_re, weight_im, kind."""
        lines = ["omega,weight_re,weight_im,kind"]
        for om, w in zip(self.omegas, self.weights):
            lines.append(f"{om:.12e},{w.real:.12e},{w.imag:.12e},{self.kind}")
        return "\n".join(lines) + "\n"


def response_comb(op_eig, ensemble, omega_tol=None):
    """Dynamical-response comb: g(omega_k) = sum over the cluster of
    p_n |<E_m|O|E_n>|^2.

    op_eig is a dense eigenbasis matrix or a weighted pair set, which
    brings its own clusters (omega_tol then stays None).  Zero-weight
    entries are dropped except at omega = 0, which is always kept (as in
    structure_factor_comb); weights are nonnegative by construction.
    """
    part = _pair_set(op_eig, ensemble, omega_tol)
    binned = part.cluster_weights(ensemble, part.values)
    keep = (binned != 0.0) | (part.omegas == 0.0)
    return FrequencyComb(part.omegas[keep], binned[keep], "response")


def structure_factor_comb(op_eig, ensemble, omega_tol=None):
    """Structure-factor comb: s(omega_k) = g(omega_k) + g(-omega_k) for
    omega_k != 0 and s(0) = 2 g(0) - 2 <O>^2.

    op_eig and omega_tol are as for response_comb.  The connected zero peak
    can round slightly negative; values within NEG_WEIGHT_TOL (relative)
    are clamped to 0 and counted in clamped.  Dirac-side convention:
    S(omega) = 2 pi sum_k s_k delta(omega - omega_k).
    """
    part = _pair_set(op_eig, ensemble, omega_tol)
    p = ensemble.weights
    reps = part.omegas
    g = part.cluster_weights(ensemble, part.values)
    s = g + g[::-1]
    levels, diag = _diagonal(part.rows, part.cols, part.values)
    mean = float(np.dot(p[levels], diag))
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


def susceptibility_comb(op_eig, ensemble, omega_tol=None):
    """Dissipative-susceptibility comb via the fluctuation-dissipation
    relation: x(omega_k) = tanh(beta omega_k / 2) s(omega_k).

    Entries mirror the structure comb's frequencies (so zeros are kept);
    the omega = 0 entry is exactly 0.
    """
    s = structure_factor_comb(op_eig, ensemble, omega_tol)
    factor = np.zeros_like(s.omegas)
    nz = s.omegas != 0.0
    with np.errstate(over="ignore"):
        factor[nz] = np.tanh(ensemble.beta * s.omegas[nz] / 2.0)
    return FrequencyComb(s.omegas, factor * s.weights, "susceptibility", s.clamped)


def cross_response_comb(opa_eig, opb_eig, ensemble, omega_tol=None):
    """Cross-response comb with complex weights
    sum over the cluster of p_n <E_m|O_a|E_n><E_n|O_b|E_m>.

    The sum runs over the pair set of O_a (O_a itself when it is one; every
    other term vanishes) with O_b's entries aligned onto it.  Reduces to
    response_comb when both operators coincide; swapping the operators
    conjugates every weight.
    """
    part = _pair_set(opa_eig, ensemble, omega_tol, "first operator")
    a = part.values
    b, _ = part.aligned(opb_eig, "second operator")
    p = ensemble.weights
    # (m, n) carries p_n a_mn conj(b_mn) and (n, m) p_m conj(a_mn) b_mn
    forward = p[part.cols] * a * b.conj()
    backward = p[part.rows] * (a.conj() * b)
    w = part.bin(forward.real, backward.real) + 1j * part.bin(forward.imag, backward.imag)
    keep = w != 0.0
    return FrequencyComb(part.omegas[keep], w[keep], "cross")


class BoundCheckReport(FrozenRecord):
    """Outcome of comparing a response comb against Mazur weights.

    rows holds (omega_k, g, D_k, margin) with margin = g - D_k, one row per
    OperatorBlock and per partition cluster; equality is set when the
    blocks are one pair partition alone that covers every nonzero entry of
    the operator, in which case every margin is zero up to rounding.
    """

    _fields = ("rows", "equality")

    def __init__(self, rows, equality):
        self.__dict__.update(rows=rows, equality=equality)

    @property
    def max_violation(self):
        return max((-(m) for *_, m in self.rows), default=0.0)


def comb_bound_check(comb, blocks, ensemble, op_eig, atol=1e-10):
    """Certify g(omega_k) >= D_k(O) for every block against a response comb.

    blocks is a PairPartition, or a list of OperatorBlocks and
    PairPartitions.  Block frequencies are matched to comb entries within
    the shared clustering tolerance (an absent entry counts as g = 0).  A
    violation beyond atol raises NumericError listing every offending
    frequency; otherwise a BoundCheckReport is returned.
    """
    if comb.kind != "response":
        raise DomainError(f"bound check needs a response comb, got kind {comb.kind!r}")
    blocks = _block_list(blocks)
    match_tol = default_omega_tol(ensemble.energies)
    rows = []
    covered = False
    for block in blocks:
        if isinstance(block, PairPartition):
            values, covered = block.aligned(op_eig)
            weights = block.cluster_weights(ensemble, values)
            items = zip(block.omegas.tolist(), weights.tolist())
        elif isinstance(block, OperatorBlock):
            items = [(block.omega, mazur_weight(block, ensemble, op_eig))]
        else:
            raise DomainError(f"unknown block type {type(block).__name__}")
        for omega, d_k in items:
            g = comb.weight_at(omega, tol=match_tol)
            rows.append((float(omega), float(g), float(d_k), float(g - d_k)))
    bad = [r for r in rows if r[3] < -atol]
    if bad:
        listing = "; ".join(f"omega={o:.6g}: g={g:.6e} < D={d:.6e}" for o, g, d, _ in bad)
        raise NumericError(f"response comb violates the Mazur bound at {listing}")
    return BoundCheckReport(tuple(rows), _is_saturating(blocks, covered))

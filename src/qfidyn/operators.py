"""Operator construction and algebra for small spin-1/2 chains.

Basis convention, fixed once for the whole package: site 0 is the most
significant qubit (the leftmost Kronecker factor) and spin-up is basis
index 0, so sigma^z = diag(+1, -1) on every site and sigma^+ raises toward
index 0.  The chain length is capped (default 12 sites, overridable via the
QFIDYN_MAX_SITES environment variable or an explicit max_sites argument).

Every operator is built from bit operations on basis indices, never from
Kronecker products.  Site s is bit n - 1 - s of the index and spin-up is
bit value 0.  A PauliString maps input state c to the single output state
c ^ flip, where flip holds the bits of its x, y, + and - factors, so it has
at most one nonzero entry per column.  That entry is the coefficient times
one phase per factor, read off the input bit b: i (-1)^b for y, (-1)^b for
z, [b = 1] for + and [b = 0] for -.  PauliString.entries returns these
(rows, cols, values).  SparseOperator.from_strings adds a sum of strings
entry by entry into one SparseOperator, the form the exact pipeline works
on; operator_from_strings and every dense builder here scatter those same
entries into a dense complex128 matrix.
"""

from __future__ import annotations

import os

import numpy as np

from ._frozen import Frozen, FrozenRecord
from .errors import DomainError

AXES = ("I", "x", "y", "z", "+", "-")
BOUNDARIES = ("open", "periodic")

DEFAULT_SITE_CAP = 12
SITE_CAP_ENV = "QFIDYN_MAX_SITES"

# Relative tolerance for the Hermiticity certificate on construction.
HERMITICITY_RTOL = 1e-12
# Absolute elementwise tolerance for support detection by partial trace.
SUPPORT_ATOL = 1e-10

# Powers of i: a string's y factors contribute i ** (number of y factors).
_I_POWERS = (1.0, 1j, -1.0, -1j)
# Entries per row block of the Hermiticity check: bounds its temporaries.
_ROW_CHUNK = 1 << 16
# Pairs per chunk of a pass over level pairs: 128 KiB per float64
# temporary, which stays in cache and small beside the pair set (at 10 and
# 12 sites this beat 1 << 16 on peak memory and on sweep time).
_PAIR_CHUNK = 1 << 14


def _chunks(n):
    """Slices covering range(n) in runs of _PAIR_CHUNK."""
    return [slice(lo, min(lo + _PAIR_CHUNK, n)) for lo in range(0, n, _PAIR_CHUNK)]


def site_cap(max_sites=None):
    """Effective chain-length cap: explicit argument, else env var, else 12."""
    if max_sites is not None:
        return int(max_sites)
    env = os.environ.get(SITE_CAP_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise DomainError(f"{SITE_CAP_ENV} must be an integer, got {env!r}") from exc
    return DEFAULT_SITE_CAP


def _check_sites(n_sites, max_sites=None):
    n = int(n_sites)
    if n < 1:
        raise DomainError(f"need at least one site, got {n}")
    cap = site_cap(max_sites)
    if n > cap:
        raise DomainError(
            f"{n} sites exceeds the cap of {cap} (dim {2**n}); raise it with "
            f"max_sites= or the {SITE_CAP_ENV} environment variable"
        )
    return n


def _as_matrix(op, what="operator"):
    """Accept a wrapped operator or a bare ndarray and return the ndarray."""
    if isinstance(op, GeneralOperator):
        return op.mat
    arr = np.asarray(op, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError(f"{what} must be a square matrix, got shape {arr.shape}")
    return arr


def _real_if_exact(mat):
    """mat as float64 when it has no imaginary part, else as complex128."""
    if np.iscomplexobj(mat):
        if not mat.imag.any():
            return np.ascontiguousarray(mat.real)
        return mat.astype(complex, copy=False)
    return mat.astype(float, copy=False)


def _hermitian_deviation(mat, partner=None):
    """(max |M - P^dag|, max |M|) for M = mat and P = partner (default: M
    itself, which must then be square), in row blocks of _ROW_CHUNK entries
    so that no full-size temporary is made."""
    partner = mat if partner is None else partner
    step = max(1, _ROW_CHUNK // max(1, mat.shape[1]))
    dev = scale = 0.0
    for lo in range(0, mat.shape[0], step):
        rows = mat[lo : lo + step]
        scale = max(scale, float(np.abs(rows).max()))
        dev = max(dev, float(np.abs(rows - partner[:, lo : lo + step].conj().T).max()))
    return dev, scale


def _require_hermitian(dev, scale, name, rtol=1e-10):
    """DomainError unless max |M - M^dag| = dev lies within rtol of
    max(1, scale), scale = max |M|.  The default rtol is the eigenbasis
    rule: rounding costs an eigenbasis operator a little Hermiticity."""
    if dev > rtol * max(1.0, scale):
        raise DomainError(
            f"{name} is not Hermitian: max |M - M^dag| = {dev:.3e} against scale {scale:.3e}"
        )


class GeneralOperator(Frozen):
    """A square complex matrix, immutable after construction."""

    _fields = ("mat",)

    def __init__(self, mat):
        arr = np.array(mat, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"operator must be a square matrix, got shape {arr.shape}")
        arr.setflags(write=False)
        self.__dict__.update(mat=arr)

    @property
    def dim(self):
        return self.mat.shape[0]

    def dagger(self):
        return GeneralOperator(self.mat.conj().T)

    def hs_norm(self):
        """Frobenius (Hilbert-Schmidt) norm."""
        return float(np.linalg.norm(self.mat))

    def __array__(self, dtype=None):
        return np.asarray(self.mat, dtype=dtype)


class HermitianOperator(GeneralOperator):
    """A GeneralOperator certified Hermitian at construction time."""

    def __init__(self, mat):
        super().__init__(mat)
        _require_hermitian(*_hermitian_deviation(self.mat), "matrix", HERMITICITY_RTOL)

    def dagger(self):
        return self


class PauliString(FrozenRecord):
    """A scalar coefficient times a product of single-site Pauli factors.

    factors is a tuple of (site, axis) pairs; sites must be distinct, which
    makes the factor order irrelevant.
    """

    _fields = ("coefficient", "factors")

    def __init__(self, coefficient, factors):
        coefficient = complex(coefficient)
        facs = tuple((int(s), str(a)) for s, a in factors)
        for site, axis in facs:
            if axis not in AXES:
                raise DomainError(f"unknown Pauli axis {axis!r}; valid axes are {AXES}")
            if site < 0:
                raise DomainError(f"negative site index {site}")
        sites = [s for s, _ in facs]
        if len(sites) != len(set(sites)):
            raise DomainError(f"repeated site index in factors {facs}")
        self.__dict__.update(coefficient=coefficient, factors=tuple(sorted(facs)))

    def entries(self, n_sites, max_sites=None):
        """Nonzero entries (rows, cols, values) of the matrix on n_sites,
        one per column the ladder factors do not annihilate (module
        docstring)."""
        n = _check_sites(n_sites, max_sites)
        flip = sign = up = down = n_y = 0
        for site, axis in self.factors:
            if site >= n:
                raise DomainError(f"factor site {site} out of range for {n} sites")
            bit = 1 << (n - 1 - site)
            if axis in ("x", "y", "+", "-"):
                flip |= bit
            if axis in ("y", "z"):
                sign |= bit
            n_y += axis == "y"
            if axis == "+":
                up |= bit
            elif axis == "-":
                down |= bit
        cols = np.arange(2**n)
        if up or down:
            cols = cols[((cols & up) == up) & ((cols & down) == 0)]
        parity = np.zeros_like(cols)
        for k in range(n):
            if sign >> k & 1:
                parity ^= cols >> k
        signs = np.where(parity & 1, -1.0, 1.0)
        values = (self.coefficient * _I_POWERS[n_y % 4]) * signs
        return cols ^ flip, cols, values

    def matrix(self, n_sites, max_sites=None):
        dense = SparseOperator.from_strings((self,), n_sites, max_sites=max_sites).dense()
        return dense.astype(complex)

    def to_record(self):
        c = complex(self.coefficient)
        return {
            "coefficient": [c.real, c.imag],
            "factors": [{"site": s, "axis": a} for s, a in self.factors],
        }

    @classmethod
    def from_record(cls, record):
        try:
            re, im = record["coefficient"]
            factors = tuple((f["site"], f["axis"]) for f in record["factors"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed Pauli-string record: {record!r}") from exc
        return cls(complex(re, im), factors)


class SparseOperator(Frozen):
    """The nonzero entries of a dim x dim matrix: rows, cols and values,
    ascending in row * dim + col with each position once.  values is
    float64 when no entry has an imaginary part, else complex128."""

    _fields = ("rows", "cols", "values", "dim")

    def __init__(self, rows, cols, values, dim):
        rows, cols = (np.asarray(idx, dtype=np.intp) for idx in (rows, cols))
        values, dim = np.asarray(values), int(dim)
        if not rows.ndim == 1 or not rows.shape == cols.shape == values.shape:
            raise DomainError("rows, cols and values must be 1-d arrays of one size")
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= dim):
            raise DomainError(f"entry index out of range for dim {dim}")
        if np.any(rows[1:] * dim + cols[1:] <= rows[:-1] * dim + cols[:-1]):
            raise DomainError("entries must be distinct and ascending in row * dim + col")
        self._set(rows, cols, values, dim)

    def _set(self, rows, cols, values, dim):
        values = _real_if_exact(values)
        for arr in (rows, cols, values):
            arr.setflags(write=False)
        self.__dict__.update(rows=rows, cols=cols, values=values, dim=dim)

    @classmethod
    def _trusted(cls, rows, cols, values, dim):
        """An instance from entries that meet the invariants by construction."""
        op = object.__new__(cls)
        op._set(rows, cols, values, dim)
        return op

    @classmethod
    def from_dense(cls, mat):
        """The nonzero entries of a square matrix."""
        mat = _real_if_exact(_as_matrix(mat))
        rows, cols = np.nonzero(mat)
        return cls._trusted(rows, cols, mat[rows, cols], mat.shape[0])

    @classmethod
    def from_strings(cls, strings, n_sites, hermitian=False, max_sites=None):
        """Sum of PauliStrings.  Strings with one flip mask share their
        positions (c ^ flip, c), so each mask's strings are added column by
        column, in string order as a dense scatter would add them, and
        exact zeros (such as the cancelling x x + y y flips) are dropped.
        With hermitian=True the sum is certified Hermitian to
        HERMITICITY_RTOL (DomainError otherwise): the transpose of a mask's
        entry at column c sits at column c ^ flip of the same mask."""
        n = _check_sites(n_sites, max_sites)
        dim = 2**n
        entries = [ps.entries(n, max_sites) for ps in strings]
        flips = [int(rows[0] ^ cols[0]) for rows, cols, _ in entries]
        masks = sorted(set(flips))
        sums = np.zeros((len(masks), dim), dtype=complex)
        for flip, (_, cols, values) in zip(flips, entries):
            sums[masks.index(flip), cols] += values
        masks = np.array(masks, dtype=np.intp)[:, None]
        if hermitian:
            partner = sums[np.arange(masks.size)[:, None], np.arange(dim) ^ masks]
            dev = float(np.abs(sums - partner.conj()).max(initial=0.0))
            scale = float(np.abs(sums).max(initial=0.0))
            _require_hermitian(dev, scale, "operator", HERMITICITY_RTOL)
        which, cols = np.nonzero(sums)
        rows = cols ^ masks[which, 0]
        order = np.argsort(rows * dim + cols)
        return cls._trusted(rows[order], cols[order], sums[which, cols][order], dim)

    @property
    def shape(self):
        return (self.dim, self.dim)

    @property
    def dtype(self):
        return self.values.dtype

    def dense(self):
        out = np.zeros(self.shape, dtype=self.dtype)
        out[self.rows, self.cols] = self.values
        return out


def pauli_matrix(axis):
    """The 2x2 matrix for a single axis."""
    return PauliString(1.0, ((0, axis),)).matrix(1, max_sites=1)


def pauli_site(axis, site, n_sites, max_sites=None):
    """Single-site Pauli operator embedded in an n_sites chain.

    Returns a HermitianOperator for axes I, x, y, z and a GeneralOperator for
    the ladder axes +, -.
    """
    n = _check_sites(n_sites, max_sites)
    site = int(site)
    if not 0 <= site < n:
        raise DomainError(f"site {site} out of range for {n} sites")
    m = PauliString(1.0, ((site, axis),)).matrix(n, max_sites)
    if axis in ("+", "-"):
        return GeneralOperator(m)
    return HermitianOperator(m)


def operator_from_strings(strings, n_sites, hermitian=False, max_sites=None):
    """Sum of PauliStrings as a dense operator.

    With hermitian=True the result is validated and wrapped as a
    HermitianOperator (DomainError if the sum fails the certificate).
    """
    total = SparseOperator.from_strings(strings, n_sites, max_sites=max_sites).dense()
    return HermitianOperator(total) if hermitian else GeneralOperator(total)


def pauli_strings_from_json(data):
    """Parse the operator interchange format: a list of term records.

    Accepts a JSON string, a parsed list, or a file path ending in .json.
    """
    if isinstance(data, str):
        import json

        if data.lstrip().startswith("["):
            data = json.loads(data)
        else:
            with open(data, encoding="utf-8") as fh:
                data = json.load(fh)
    if not isinstance(data, list):
        raise DomainError("operator JSON must be a list of term records")
    return tuple(PauliString.from_record(rec) for rec in data)


def pauli_strings_to_records(strings):
    return [ps.to_record() for ps in strings]


class SpinChainSpec(FrozenRecord):
    """Parameters of the XX chain builder."""

    _fields = ("sites", "coupling", "field", "boundary")

    def __init__(self, sites, coupling=1.0, field=0.0, boundary="open"):
        if int(sites) < 2:
            raise DomainError(f"chain needs at least 2 sites, got {sites}")
        if boundary not in BOUNDARIES:
            raise DomainError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
        self.__dict__.update(
            sites=int(sites), coupling=float(coupling), field=float(field), boundary=boundary
        )


def xx_hamiltonian_strings(spec, max_sites=None):
    """The terms of H = J sum_i (x_i x_{i+1} + y_i y_{i+1}) + h sum_i z_i.

    Periodic boundary adds the wrap bond (N-1, 0) for N > 2; at N = 2 the
    wrap bond would duplicate the single existing bond, so it is omitted.
    """
    n = _check_sites(spec.sites, max_sites)
    bonds = [(i, i + 1) for i in range(n - 1)]
    if spec.boundary == "periodic" and n > 2:
        bonds.append((n - 1, 0))
    strings = [
        PauliString(spec.coupling, ((i, axis), (j, axis))) for i, j in bonds for axis in ("x", "y")
    ]
    if spec.field != 0.0:
        strings += [PauliString(spec.field, ((i, "z"),)) for i in range(n)]
    return strings


def build_xx_hamiltonian(spec, max_sites=None):
    """The XX chain Hamiltonian of xx_hamiltonian_strings, dense."""
    strings = xx_hamiltonian_strings(spec, max_sites)
    return operator_from_strings(strings, spec.sites, hermitian=True, max_sites=max_sites)


GENERATOR_KINDS = ("antisymmetric-x", "staggered-x", "uniform-x", "uniform-z")


def local_generator_strings(kind, n_sites, max_sites=None):
    """The terms of a sum of unit-width single-site terms (each term has
    eigenvalues +-1/2).

    antisymmetric-x : (x_0 - x_1)/2, two sites only
    staggered-x     : sum_i (-1)^i x_i / 2
    uniform-x       : sum_i x_i / 2
    uniform-z       : sum_i z_i / 2
    Custom sums go through operator_from_strings / pauli_strings_from_json.
    """
    n = _check_sites(n_sites, max_sites)
    if kind == "antisymmetric-x":
        if n != 2:
            raise DomainError(f"kind 'antisymmetric-x' is defined for 2 sites, got {n}")
        terms = [(0.5, 0, "x"), (-0.5, 1, "x")]
    elif kind == "staggered-x":
        terms = [((-1) ** i * 0.5, i, "x") for i in range(n)]
    elif kind == "uniform-x":
        terms = [(0.5, i, "x") for i in range(n)]
    elif kind == "uniform-z":
        terms = [(0.5, i, "z") for i in range(n)]
    else:
        raise DomainError(f"unknown generator kind {kind!r}; valid kinds are {GENERATOR_KINDS}")
    return [PauliString(c, ((i, axis),)) for c, i, axis in terms]


def local_generator(kind, n_sites, max_sites=None):
    """The generator of local_generator_strings, dense."""
    strings = local_generator_strings(kind, n_sites, max_sites)
    return operator_from_strings(strings, n_sites, hermitian=True, max_sites=max_sites)


def commutator(a, b):
    """[A, B] = AB - BA as a GeneralOperator."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise DomainError(f"dimension mismatch {ma.shape} vs {mb.shape}")
    return GeneralOperator(ma @ mb - mb @ ma)


def anticommutator(a, b):
    """{A, B} = AB + BA as a GeneralOperator."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise DomainError(f"dimension mismatch {ma.shape} vs {mb.shape}")
    return GeneralOperator(ma @ mb + mb @ ma)


def operator_support(op, n_sites, atol=SUPPORT_ATOL):
    """Set of sites on which the operator acts nontrivially.

    A site lies outside the support iff tracing it out and re-tensoring the
    identity reproduces the operator elementwise (within atol, scaled by the
    largest entry).  The identity and the zero operator have empty support.
    """
    n = _check_sites(n_sites, max_sites=n_sites)  # support check never caps
    mat = _as_matrix(op)
    if mat.shape[0] != 2**n:
        raise DomainError(f"operator dim {mat.shape[0]} does not match {n} sites")
    tol = atol * max(1.0, float(np.abs(mat).max()))
    tensor = mat.reshape((2,) * (2 * n))
    support = set()
    for s in range(n):
        reduced = np.trace(tensor, axis1=s, axis2=n + s) / 2.0
        # re-tensor the identity at site s and compare
        rebuilt = np.zeros_like(tensor)
        idx_in = [slice(None)] * (2 * n)
        for b in range(2):
            idx_in[s] = b
            idx_in[n + s] = b
            rebuilt[tuple(idx_in)] = reduced
        if np.abs(rebuilt - tensor).max() > tol:
            support.add(s)
    return frozenset(support)

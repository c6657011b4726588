"""Dense operator construction and algebra for small spin-1/2 chains.

Basis convention, fixed once for the whole package: site 0 is the most
significant qubit (the leftmost Kronecker factor) and spin-up is basis
index 0, so sigma^z = diag(+1, -1) on every site and sigma^+ raises toward
index 0.  All operators are dense complex128 matrices; the chain length is
capped (default 12 sites, overridable via the QFIDYN_MAX_SITES environment
variable or an explicit max_sites argument).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

AXES = ("I", "x", "y", "z", "+", "-")
BOUNDARIES = ("open", "periodic")

DEFAULT_SITE_CAP = 12
SITE_CAP_ENV = "QFIDYN_MAX_SITES"

# Relative tolerance for the Hermiticity certificate on construction.
HERMITICITY_RTOL = 1e-12
# Absolute elementwise tolerance for support detection by partial trace.
SUPPORT_ATOL = 1e-10

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "+": np.array([[0, 1], [0, 0]], dtype=complex),
    "-": np.array([[0, 0], [1, 0]], dtype=complex),
}


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


def _hermitian(op, dim, name="operator"):
    """The (dim, dim) complex matrix of op, certified Hermitian to 1e-10
    relative; eigenbasis operators lose a little Hermiticity to rounding."""
    mat = np.asarray(op, dtype=complex)
    if mat.shape != (dim, dim):
        raise DomainError(f"{name} shape {mat.shape} does not match dim {dim}")
    scale = float(np.abs(mat).max()) if mat.size else 0.0
    if np.abs(mat - mat.conj().T).max() > 1e-10 * max(1.0, scale):
        raise DomainError(f"{name} must be Hermitian")
    return mat


@dataclass(frozen=True)
class GeneralOperator:
    """A square complex matrix, immutable after construction."""

    mat: np.ndarray

    def __post_init__(self):
        arr = np.array(self.mat, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"operator must be a square matrix, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

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


@dataclass(frozen=True)
class HermitianOperator(GeneralOperator):
    """A GeneralOperator certified Hermitian at construction time."""

    def __post_init__(self):
        super().__post_init__()
        scale = np.abs(self.mat).max() if self.mat.size else 0.0
        dev = np.abs(self.mat - self.mat.conj().T).max() if self.mat.size else 0.0
        if dev > HERMITICITY_RTOL * max(1.0, scale):
            raise DomainError(
                f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e} "
                f"against scale {scale:.3e}"
            )

    def dagger(self):
        return self


@dataclass(frozen=True)
class PauliString:
    """A scalar coefficient times a product of single-site Pauli factors.

    factors is a tuple of (site, axis) pairs; sites must be distinct, which
    makes the factor order irrelevant.
    """

    coefficient: complex
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        facs = tuple((int(s), str(a)) for s, a in self.factors)
        for site, axis in facs:
            if axis not in AXES:
                raise DomainError(f"unknown Pauli axis {axis!r}; valid axes are {AXES}")
            if site < 0:
                raise DomainError(f"negative site index {site}")
        sites = [s for s, _ in facs]
        if len(sites) != len(set(sites)):
            raise DomainError(f"repeated site index in factors {facs}")
        object.__setattr__(self, "factors", tuple(sorted(facs)))

    def matrix(self, n_sites, max_sites=None):
        n = _check_sites(n_sites, max_sites)
        for site, _ in self.factors:
            if site >= n:
                raise DomainError(f"factor site {site} out of range for {n} sites")
        out = np.array([[self.coefficient]], dtype=complex)
        by_site = dict(self.factors)
        for site in range(n):
            out = np.kron(out, _PAULI[by_site.get(site, "I")])
        return out

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


def pauli_matrix(axis):
    """The 2x2 matrix for a single axis (copy)."""
    if axis not in AXES:
        raise DomainError(f"unknown Pauli axis {axis!r}; valid axes are {AXES}")
    return _PAULI[axis].copy()


def pauli_site(axis, site, n_sites, max_sites=None):
    """Single-site Pauli operator embedded in an n_sites chain.

    Returns a HermitianOperator for axes I, x, y, z and a GeneralOperator for
    the ladder axes +, -.
    """
    n = _check_sites(n_sites, max_sites)
    site = int(site)
    if not 0 <= site < n:
        raise DomainError(f"site {site} out of range for {n} sites")
    if axis not in AXES:
        raise DomainError(f"unknown Pauli axis {axis!r}; valid axes are {AXES}")
    m = np.kron(np.kron(np.eye(2**site), _PAULI[axis]), np.eye(2 ** (n - site - 1)))
    if axis in ("+", "-"):
        return GeneralOperator(m)
    return HermitianOperator(m)


def operator_from_strings(strings, n_sites, hermitian=False, max_sites=None):
    """Sum of PauliStrings as a dense operator.

    With hermitian=True the result is validated and wrapped as a
    HermitianOperator (DomainError if the sum fails the certificate).
    """
    n = _check_sites(n_sites, max_sites)
    total = np.zeros((2**n, 2**n), dtype=complex)
    for ps in strings:
        total += ps.matrix(n, max_sites=max_sites)
    return HermitianOperator(total) if hermitian else GeneralOperator(total)


def pauli_strings_from_json(data):
    """Parse the operator interchange format: a list of term records.

    Accepts a JSON string, a parsed list, or a file path ending in .json.
    """
    if isinstance(data, str):
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


@dataclass(frozen=True)
class SpinChainSpec:
    """Parameters of the XX chain builder."""

    sites: int
    coupling: float = 1.0
    field: float = 0.0
    boundary: str = "open"

    def __post_init__(self):
        if int(self.sites) < 2:
            raise DomainError(f"chain needs at least 2 sites, got {self.sites}")
        if self.boundary not in BOUNDARIES:
            raise DomainError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        object.__setattr__(self, "sites", int(self.sites))
        object.__setattr__(self, "coupling", float(self.coupling))
        object.__setattr__(self, "field", float(self.field))


def build_xx_hamiltonian(spec, max_sites=None):
    """H = J sum_i (x_i x_{i+1} + y_i y_{i+1}) + h sum_i z_i.

    Periodic boundary adds the wrap bond (N-1, 0) for N > 2; at N = 2 the
    wrap bond would duplicate the single existing bond, so it is omitted.
    """
    n = _check_sites(spec.sites, max_sites)
    dim = 2**n
    H = np.zeros((dim, dim), dtype=complex)
    bonds = [(i, i + 1) for i in range(n - 1)]
    if spec.boundary == "periodic" and n > 2:
        bonds.append((n - 1, 0))
    for i, j in bonds:
        for axis in ("x", "y"):
            H += spec.coupling * (
                pauli_site(axis, i, n, max_sites).mat @ pauli_site(axis, j, n, max_sites).mat
            )
    if spec.field != 0.0:
        for i in range(n):
            H += spec.field * pauli_site("z", i, n, max_sites).mat
    return HermitianOperator(H)


GENERATOR_KINDS = ("antisymmetric-x", "staggered-x", "uniform-x", "uniform-z")


def local_generator(kind, n_sites, max_sites=None):
    """Sum of unit-width single-site terms (each term has eigenvalues +-1/2).

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
        mat = 0.5 * (pauli_site("x", 0, n, max_sites).mat - pauli_site("x", 1, n, max_sites).mat)
    elif kind == "staggered-x":
        mat = sum((-1) ** i * 0.5 * pauli_site("x", i, n, max_sites).mat for i in range(n))
    elif kind == "uniform-x":
        mat = sum(0.5 * pauli_site("x", i, n, max_sites).mat for i in range(n))
    elif kind == "uniform-z":
        mat = sum(0.5 * pauli_site("z", i, n, max_sites).mat for i in range(n))
    else:
        raise DomainError(f"unknown generator kind {kind!r}; valid kinds are {GENERATOR_KINDS}")
    return HermitianOperator(mat)


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

"""Operator construction and algebra for small spin-1/2 chains.

Basis convention, fixed once for the whole package: site 0 is the most
significant qubit (the leftmost Kronecker factor) and spin-up is basis
index 0, so sigma^z = diag(+1, -1) on every site and sigma^+ raises toward
index 0.  The chain length is capped at 12 sites; the QFIDYN_MAX_SITES
environment variable sets another cap.

Every operator is built from bit operations on basis indices, never from
Kronecker products.  Site s is bit n - 1 - s of the index and spin-up is
bit value 0.  A PauliString maps input state c to the single output state
c ^ flip, where flip holds the bits of its x, y, + and - factors, so it has
at most one nonzero entry per column.  That entry is the coefficient times
one phase per factor, read off the input bit b: i (-1)^b for y, (-1)^b for
z, [b = 1] for + and [b = 0] for -.  PauliString.entries returns these
(rows, cols, values).  SparseOperator.from_strings adds a sum of strings
entry by entry into one SparseOperator, the one site-basis operator type:
the exact pipeline works on its entries, and SparseOperator.dense scatters
them into a matrix where a dense one is needed.
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
# Tolerance of the support test, relative to the operator's largest entry
# max |O|: an entry or a difference of entries within it counts as zero.
SUPPORT_ATOL = 1e-10

# Powers of i: a string's y factors contribute i ** (number of y factors).
_I_POWERS = (1.0, 1j, -1.0, -1j)
# Entries per row block of the Hermiticity check: bounds its temporaries.
_ROW_CHUNK = 1 << 16
# SparseOperator and PairPartition store int32 indices: dim must lie below.
_INDEX_LIMIT = 2**31
# Pairs per chunk of a pass over level pairs: 128 KiB per float64
# temporary, which stays in cache and small beside the pair set (at 10 and
# 12 sites this beat 1 << 16 on peak memory and on sweep time).
_PAIR_CHUNK = 1 << 14


def _keys(rows, cols, dim):
    """row * dim + col over positions (rows, cols), as int64."""
    keys = np.asarray(rows).astype(np.int64)
    keys *= dim
    keys += cols
    return keys


def _key_union(keys):
    """The distinct integers >= 0 of a list of arrays (keys, say), ascending, by
    a sort: np.unique hashes integers on NumPy 2.4 (1.1 s against 18 ms at 1.25M keys)."""
    keys = np.sort(np.concatenate(keys))
    return keys[np.diff(keys, prepend=-1) != 0]


def _chunks(n):
    """Slices covering range(n) in runs of _PAIR_CHUNK."""
    return [slice(lo, min(lo + _PAIR_CHUNK, n)) for lo in range(0, n, _PAIR_CHUNK)]


def _find(keys, want):
    """(pos, found): which of want the ascending keys hold, pos[found] where."""
    pos = np.searchsorted(keys, want)
    # a key above them all lands at keys.size, where clip reads a smaller one
    return pos, keys.take(pos, mode="clip") == want if keys.size else np.zeros(pos.shape, bool)


def _values_at(entries, rows, cols, dim):
    """An entry list's values at positions (rows, cols), 0 where it has none."""
    held_rows, held_cols, values = entries
    pos, found = _find(_keys(held_rows, held_cols, dim), _keys(rows, cols, dim))
    out = np.zeros(found.shape, dtype=values.dtype)
    out[found] = values[pos[found]]
    return out


def _in_key_order(keys, values, dim):
    """(rows, cols, values) in ascending key order, rows and cols int32 and
    values as _real_if_exact gives them, of entries given as lists of
    distinct keys m * dim + n, which a stable sort orders (merging ascending
    runs cheaply), and of their values.  The lists are emptied as they are joined; an int32
    order and quotients, and the keys dropped before the values are
    reordered, hold this stage to 28 B an entry."""
    joined = np.concatenate(keys)
    keys.clear()
    order = np.argsort(joined, kind="stable").astype(np.int32)
    rows, cols = np.empty(joined.size, np.int32), np.empty(joined.size, np.int32)
    for s in _chunks(joined.size):
        np.divmod(joined.take(order[s]), dim, out=(rows[s], cols[s]), casting="unsafe")
    del joined
    joined = np.concatenate(values)
    values.clear()
    return rows, cols, _real_if_exact(joined[order])


def _checked_entries(rows, cols, dim, pairs=False):
    """(rows, cols, dim) of an entry list (SparseOperator), row <= col for
    pairs, rows and cols as int32, or DomainError.  Each chunk is range-checked
    before its keys are formed and the narrowing, which wraps 2**32 + 1 to 1."""
    dim, rows, cols = _whole(dim, "dim"), np.asarray(rows), np.asarray(cols)
    if not 0 <= dim < _INDEX_LIMIT:
        raise DomainError(f"dim must be nonnegative and below 2**31 for int32 indices, got {dim}")
    if rows.ndim != 1 or rows.shape != cols.shape or rows.size and not all(
            np.issubdtype(idx.dtype, np.integer) for idx in (rows, cols)):
        raise DomainError("rows and cols must be integers, in 1-d arrays of one size")
    for s in _chunks(rows.size):
        r, c = rows[s], cols[s]
        if min(r.min(), c.min()) < 0 or max(r.max(), c.max()) >= dim or pairs and np.any(r > c):
            span = "0 <= m <= n" if pairs else "0 <= m, n"
            raise DomainError(f"entries (m, n) must satisfy {span} < {dim}")
        run = slice(max(s.start - 1, 0), s.stop)  # from the chunk before's last key
        keys = _keys(rows[run], cols[run], dim)
        if np.any(keys[1:] <= keys[:-1]):
            raise DomainError("entries must be distinct and ascending in m * dim + n")
    return rows.astype(np.int32, copy=False), cols.astype(np.int32, copy=False), dim


def site_cap():
    """Chain-length cap: the QFIDYN_MAX_SITES environment variable, else 12."""
    env = os.environ.get(SITE_CAP_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise DomainError(f"{SITE_CAP_ENV} must be an integer, got {env!r}") from exc
    return DEFAULT_SITE_CAP


def _whole(value, what):
    """value as an int; DomainError unless it is a whole number (4 and 4.0
    are, 2.5 and "4" are not)."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise DomainError(f"{what} must be a whole number, got {value!r}")
    return n


def _sites(n_sites):
    """n_sites as an int; DomainError unless it is a whole number >= 1."""
    n = _whole(n_sites, "number of sites")
    if n < 1:
        raise DomainError(f"need at least one site, got {n}")
    return n


def _check_sites(n_sites):
    """_sites, and DomainError above site_cap or, whatever the cap, at a dim
    2^n that int32 indices cannot hold."""
    n = _sites(n_sites)
    if n >= _INDEX_LIMIT.bit_length() - 1:
        raise DomainError(f"{n} sites: dim 2**{n} is not below the int32 index limit 2**31")
    cap = site_cap()
    if n > cap:
        raise DomainError(
            f"{n} sites exceeds the cap of {cap} (dim {2**n}); raise it with "
            f"the {SITE_CAP_ENV} environment variable"
        )
    return n


def _square(op, what="operator"):
    """A bare square array of finite entries as float64, or as complex128
    when it is complex; DomainError for anything else."""
    try:
        arr = np.asarray(op, dtype=complex if np.iscomplexobj(op) else float)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a matrix, got {type(op).__name__}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError(f"{what} must be a square matrix, got shape {arr.shape}")
    return _finite(arr, what)


def _finite(values, what):
    """The array values, or DomainError unless its entries are numbers and
    none is NaN or infinite."""
    if values.dtype.kind not in "biufc" or not np.isfinite(values).all():
        raise DomainError(f"{what} must be finite numbers, got a NaN, inf or non-number")
    return values


def _ordered(values, what, strict=False):
    """The 1-d array values, or DomainError unless they are finite
    (_finite) and ascending, strictly with strict: neighbours are compared,
    not subtracted, so no difference of finite values can overflow."""
    _finite(values, what)
    if np.any(values[1:] <= values[:-1] if strict else values[1:] < values[:-1]):
        order = "strictly increasing" if strict else "sorted ascending"
        raise DomainError(f"{what} must be {order}")
    return values


def _operand(op, what="operator"):
    """op as a SparseOperator: itself, or a square matrix's nonzero entries."""
    return op if isinstance(op, SparseOperator) else SparseOperator.from_dense(op, what)


def _real_if_exact(mat):
    """mat as float64 when it has no imaginary part, else as complex128."""
    if np.iscomplexobj(mat):
        if not mat.imag.any():
            return np.ascontiguousarray(mat.real)
        return mat.astype(complex, copy=False)
    return mat.astype(float, copy=False)


def _hermitian_deviation(mat, partner):
    """(max |M - P^dag|, max |M|) for M = mat and P = partner, in row blocks
    of _ROW_CHUNK entries so that no full-size temporary is made."""
    step = max(1, _ROW_CHUNK // max(1, mat.shape[1]))
    dev = scale = 0.0
    for lo in range(0, mat.shape[0], step):
        rows = mat[lo : lo + step]
        scale = np.maximum(scale, np.abs(rows).max())  # keeps a NaN
        dev = np.maximum(dev, np.abs(rows - partner[:, lo : lo + step].conj().T).max())
    return float(dev), float(scale)


def _require_hermitian(dev, scale, name, rtol=1e-10):
    """DomainError unless max |M - M^dag| = dev lies within rtol of
    max(1, scale), scale = max |M|; a NaN dev never does.  The default rtol
    is the eigenbasis rule: rounding costs an eigenbasis operator a little
    Hermiticity."""
    if not dev <= rtol * max(1.0, scale):
        raise DomainError(
            f"{name} is not Hermitian: max |M - M^dag| = {dev:.3e} against scale {scale:.3e}"
        )


class PauliString(FrozenRecord):
    """A finite scalar coefficient times a product of single-site Pauli factors.

    factors is a tuple of (site, axis) pairs; sites must be distinct whole
    numbers, which makes the factor order irrelevant.
    """

    _fields = ("coefficient", "factors")

    def __init__(self, coefficient, factors):
        coefficient = complex(coefficient)
        if not np.isfinite(coefficient):
            raise DomainError(f"coefficient must be finite, got {coefficient!r}")
        facs = tuple((_whole(s, "site index"), str(a)) for s, a in factors)
        for site, axis in facs:
            if axis not in AXES:
                raise DomainError(f"unknown Pauli axis {axis!r}; valid axes are {AXES}")
            if site < 0:
                raise DomainError(f"negative site index {site}")
        sites = [s for s, _ in facs]
        if len(sites) != len(set(sites)):
            raise DomainError(f"repeated site index in factors {facs}")
        self._set(coefficient=coefficient, factors=tuple(sorted(facs)))

    def entries(self, n_sites):
        """Nonzero entries (rows, cols, values) of the matrix on n_sites,
        one per column the ladder factors do not annihilate (module
        docstring)."""
        n = _check_sites(n_sites)
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
            return cls(complex(re, im), factors)
        except DomainError:
            raise  # a DomainError is a ValueError: keep its own message
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed Pauli-string record: {record!r}") from exc


class SparseOperator(Frozen):
    """The nonzero entries of a dim x dim matrix as an entry list: int32
    positions (rows, cols), each once, ascending in row * dim + col (so dim
    < 2**31), and values: complex128 if one has an imaginary part, else float64."""

    _fields = ("rows", "cols", "values", "dim")

    def __init__(self, rows, cols, values, dim):
        self._freeze(*(np.array(a) for a in (rows, cols, values)), dim)

    def _freeze(self, rows, cols, values, dim):
        """Check the entries, a builder's as a caller's (_checked_entries,
        and finite values, one per position), and store them: a faulty
        builder raises DomainError here, and at never reads a wrong value."""
        rows, cols, dim = _checked_entries(rows, cols, dim)
        values = _finite(np.asarray(values), "values")
        if values.shape != rows.shape:
            raise DomainError("values must hold one entry per position")
        self._set(rows=rows, cols=cols, values=_real_if_exact(values), dim=dim)

    @classmethod
    def from_dense(cls, mat, what="operator"):
        """The nonzero entries of a square matrix (what, in errors), in its own type."""
        mat = _square(mat, what)
        rows, cols = np.nonzero(mat)
        return cls._adopt(rows, cols, mat[rows, cols], mat.shape[0])

    @classmethod
    def from_strings(cls, strings, n_sites, hermitian=False):
        """Sum of PauliStrings.  Strings with one flip mask share their
        positions (c ^ flip, c), so each mask's strings are added column by
        column, in string order as a dense scatter would add them, and
        exact zeros (such as the cancelling x x + y y flips) are dropped.
        With hermitian=True the sum is certified Hermitian to
        HERMITICITY_RTOL (DomainError otherwise): the transpose of a mask's
        entry at column c sits at column c ^ flip of the same mask."""
        n = _check_sites(n_sites)
        dim = 2**n
        entries = [ps.entries(n) for ps in strings]
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
        keys = _keys(cols ^ masks[which, 0], cols, dim)
        return cls._adopt(*_in_key_order([keys], [sums[which, cols]], dim), dim)

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

    def at(self, rows, cols):
        """The entries at positions (rows, cols), 0 where there is none."""
        return _values_at((self.rows, self.cols, self.values), rows, cols, self.dim)


def read_symmetry_file(path):
    """The operators of a symmetry file as tuples of PauliStrings: a flat list
    of term records is one operator, a list of lists is several.  Errors are
    DomainErrors naming the file, and the operator index where there is one."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read symmetry file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON in {path!r} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, list):
        raise DomainError(f"{path!r} must hold a list of operators or of term records")
    if not data:
        raise DomainError(f"symmetry file {path!r} contains no operators")
    if isinstance(data[0], dict):
        data = [data]
    ops = []
    for i, records in enumerate(data):
        if not isinstance(records, list) or not records:
            raise DomainError(f"{path!r}: operator {i} must be a nonempty list of term records")
        try:
            ops.append(tuple(PauliString.from_record(rec) for rec in records))
        except DomainError as exc:
            raise DomainError(f"{path!r}: operator {i}: {exc}") from None
    return ops


def pauli_strings_to_records(strings):
    return [ps.to_record() for ps in strings]


class SpinChainSpec(FrozenRecord):
    """Parameters of the XX chain builder."""

    _fields = ("sites", "coupling", "field", "boundary")

    def __init__(self, sites, coupling=1.0, field=0.0, boundary="open"):
        sites = _whole(sites, "number of sites")
        if sites < 2:
            raise DomainError(f"chain needs at least 2 sites, got {sites}")
        if boundary not in BOUNDARIES:
            raise DomainError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
        coupling, field = float(coupling), float(field)
        if not (np.isfinite(coupling) and np.isfinite(field)):
            raise DomainError(f"coupling and field must be finite, got {coupling} and {field}")
        self._set(sites=sites, coupling=coupling, field=field, boundary=boundary)


def xx_hamiltonian_strings(spec):
    """The terms of H = J sum_i (x_i x_{i+1} + y_i y_{i+1}) + h sum_i z_i.

    Periodic boundary adds the wrap bond (N-1, 0) for N > 2; at N = 2 the
    wrap bond would duplicate the single existing bond, so it is omitted.
    """
    n = _check_sites(spec.sites)
    bonds = [(i, i + 1) for i in range(n - 1)]
    if spec.boundary == "periodic" and n > 2:
        bonds.append((n - 1, 0))
    strings = [
        PauliString(spec.coupling, ((i, axis), (j, axis))) for i, j in bonds for axis in ("x", "y")
    ]
    if spec.field != 0.0:
        strings += [PauliString(spec.field, ((i, "z"),)) for i in range(n)]
    return strings


GENERATOR_KINDS = ("antisymmetric-x", "staggered-x", "uniform-x", "uniform-z")


def local_generator_strings(kind, n_sites):
    """The terms of a sum of unit-width single-site terms (each term has
    eigenvalues +-1/2).

    antisymmetric-x : (x_0 - x_1)/2, two sites only
    staggered-x     : sum_i (-1)^i x_i / 2
    uniform-x       : sum_i x_i / 2
    uniform-z       : sum_i z_i / 2
    Custom sums go through SparseOperator.from_strings (read_symmetry_file).
    """
    n = _check_sites(n_sites)
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


def operator_support(op, n_sites):
    """Set of sites on which the operator acts nontrivially.

    Site s lies outside it when O = tr_s(O) / 2 (x) 1_s: every entry that
    flips bit s is 0, and every other one equals its partner with bit s
    flipped in both row and column.  Zero means within SUPPORT_ATOL of
    max |O|; a partner may differ by twice that, as O differs from the
    rebuilt operator by half of it.  The identity and the zero operator
    have empty support.
    """
    n = _sites(n_sites)  # the support check is never capped
    op = _operand(op)
    if op.dim != 2**n:
        raise DomainError(f"operator dim {op.dim} does not match {n} sites")
    size, flips = np.abs(op.values), op.rows ^ op.cols
    tol = SUPPORT_ATOL * float(size.max(initial=0.0))
    support = set()
    for s in range(n):
        bit = 1 << (n - 1 - s)
        off = (flips & bit) != 0
        on = ~off
        partner = op.at(op.rows[on] ^ bit, op.cols[on] ^ bit)
        if size[off].max(initial=0.0) > tol or (
            np.abs(partner - op.values[on]).max(initial=0.0) > 2.0 * tol
        ):
            support.add(s)
    return frozenset(support)

"""Operator construction, Pauli algebra, support detection, and the site cap."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfidyn import (
    DomainError,
    PauliString,
    SparseOperator,
    SpinChainSpec,
    entanglement_depth,
    operator_support,
    read_symmetry_file,
)
from qfidyn.models import preset
from qfidyn.operators import (
    AXES,
    BOUNDARIES,
    GENERATOR_KINDS,
    SITE_CAP_ENV,
    _check_sites,
    local_generator_strings,
    pauli_strings_to_records,
    site_cap,
    xx_hamiltonian_strings,
)
from qfidyn.dynsym import _operator_pairs
from oracles import operator_support_oracle, pauli_string_oracle, xx_hamiltonian_oracle

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def dense(strings, n_sites, **kwargs):
    """A sum of PauliStrings as a dense matrix, through SparseOperator."""
    return SparseOperator.from_strings(strings, n_sites, **kwargs).dense()


def pauli_on(axis, site, n_sites, **kwargs):
    """One Pauli factor at site of an n_sites chain, dense."""
    return dense([PauliString(1.0, ((site, axis),))], n_sites, **kwargs)


def hamiltonian(spec):
    return dense(xx_hamiltonian_strings(spec), spec.sites, hermitian=True)


def generator(kind, n_sites):
    return dense(local_generator_strings(kind, n_sites), n_sites, hermitian=True)


# ---------------------------------------------------------------------------
# single-site embeddings

def test_pauli_site_single_site_z():
    assert np.array_equal(pauli_on("z", 0, 1), SZ)


def test_pauli_site_second_of_two():
    assert np.array_equal(pauli_on("x", 1, 2), np.kron(np.eye(2), SX))


def test_pauli_site_first_of_two():
    assert np.array_equal(pauli_on("x", 0, 2), np.kron(SX, np.eye(2)))


def test_pauli_site_ladder_is_general_operator():
    # a ladder factor is not Hermitian: it fails the certificate
    with pytest.raises(DomainError):
        pauli_on("+", 0, 1, hermitian=True)
    assert np.array_equal(pauli_on("+", 0, 1), np.array([[0, 1], [0, 0]], dtype=complex))


def test_pauli_site_hermitian_axes_wrapped():
    for axis in ("I", "x", "y", "z"):
        mat = pauli_on(axis, 0, 2, hermitian=True)
        assert np.array_equal(mat, mat.conj().T)


def test_pauli_site_rejects_bad_input():
    with pytest.raises(DomainError):
        pauli_on("w", 0, 2)
    with pytest.raises(DomainError):
        pauli_on("x", 2, 2)
    with pytest.raises(DomainError):
        pauli_on("x", -1, 2)


def test_spin_up_is_index_zero():
    # convention check: sigma^+ raises toward basis index 0
    up = np.array([1, 0], dtype=complex)
    down = np.array([0, 1], dtype=complex)
    assert np.array_equal(pauli_on("+", 0, 1) @ down, up)
    assert np.array_equal(pauli_on("z", 0, 1) @ up, up)


# ---------------------------------------------------------------------------
# Pauli algebra

AXIS_IDX = {"x": 0, "y": 1, "z": 2}


@given(a=st.sampled_from("xyz"), b=st.sampled_from("xyz"))
def test_pauli_product_algebra(a, b):
    # sigma_a sigma_b = delta_ab I + i eps_abc sigma_c
    prod = pauli_on(a, 0, 1) @ pauli_on(b, 0, 1)
    if a == b:
        expected = np.eye(2)
    else:
        c = ({"x", "y", "z"} - {a, b}).pop()
        eps = 1.0 if (a, b) in (("x", "y"), ("y", "z"), ("z", "x")) else -1.0
        expected = 1j * eps * pauli_on(c, 0, 1)
    assert np.allclose(prod, expected)


@given(
    a=st.sampled_from("xyz"),
    b=st.sampled_from("xyz"),
    i=st.integers(0, 2),
    j=st.integers(0, 2),
)
def test_distinct_sites_commute(a, b, i, j):
    if i == j:
        return
    pa = pauli_on(a, i, 3)
    pb = pauli_on(b, j, 3)
    assert np.abs(pa @ pb - pb @ pa).max() == 0.0


def test_commutator_example():
    sx, sy, sz = (pauli_on(axis, 0, 1) for axis in "xyz")
    assert np.allclose(sx @ sy - sy @ sx, 2j * sz)
    assert np.abs(sx @ sy + sy @ sx).max() == 0.0


# ---------------------------------------------------------------------------
# Pauli strings

def test_pauli_string_matrix():
    ps = PauliString(2.0, ((1, "x"), (0, "z")))
    assert np.array_equal(dense([ps], 2), 2.0 * np.kron(SZ, SX))


def test_pauli_string_factor_order_is_irrelevant():
    a = PauliString(1.0, ((0, "z"), (1, "x")))
    b = PauliString(1.0, ((1, "x"), (0, "z")))
    assert a == b


def test_pauli_string_rejects_repeated_site():
    with pytest.raises(DomainError):
        PauliString(1.0, ((0, "x"), (0, "z")))


def test_pauli_string_rejects_bad_axis_and_site():
    with pytest.raises(DomainError):
        PauliString(1.0, ((0, "q"),))
    with pytest.raises(DomainError):
        PauliString(1.0, ((-1, "x"),))


def test_pauli_string_site_out_of_range():
    with pytest.raises(DomainError):
        dense([PauliString(1.0, ((3, "x"),))], 2)


def test_pauli_string_record_roundtrip():
    ps = PauliString(0.5 - 2j, ((0, "z"), (2, "-")))
    assert PauliString.from_record(ps.to_record()) == ps


def test_pauli_string_record_is_json_serializable(tmp_path):
    ps = PauliString(1.5, ((1, "y"),))
    path = tmp_path / "op.json"
    path.write_text(json.dumps(pauli_strings_to_records([ps])), encoding="utf-8")
    assert read_symmetry_file(str(path)) == [(ps,)]


def test_read_symmetry_file_flat_list_is_one_operator(tmp_path):
    path = tmp_path / "op.json"
    records = pauli_strings_to_records(
        [PauliString(1.0, ((0, "x"),)), PauliString(-1.0, ((1, "x"),))]
    )
    path.write_text(json.dumps(records), encoding="utf-8")
    (strings,) = read_symmetry_file(str(path))
    assert len(strings) == 2
    assert strings[1].coefficient == -1.0


def test_read_symmetry_file_list_of_lists_is_several_operators(tmp_path):
    ops = [
        (PauliString(1.0, ((0, "-"),)), PauliString(-1.0, ((0, "z"), (1, "-")))),
        (PauliString(0.5j, ((1, "+"),)),),
    ]
    path = tmp_path / "ops.json"
    path.write_text(json.dumps([pauli_strings_to_records(op) for op in ops]), encoding="utf-8")
    assert read_symmetry_file(str(path)) == ops


def test_read_symmetry_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    garbage = (
        ('{"not": "a list"}', "must hold a list"),
        ("[]", "contains no operators"),
        ('[{"nope": 1}]', "operator 0: malformed Pauli-string record"),
        ('[[{"coefficient": [1, 0], "factors": []}], 3]', "operator 1 must be a nonempty list"),
        ('[{"coefficient": [1, 0], "factors": [{"site": 0, "axis": "w"}]}]',
         "operator 0: unknown Pauli axis"),
        ('[{"coefficient": [1', "malformed JSON"),
    )
    for text, message in garbage:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DomainError, match=message) as info:
            read_symmetry_file(str(path))
        assert repr(str(path)) in str(info.value)


@pytest.mark.parametrize(
    "coefficient, factors, message",
    [
        (complex("nan"), ((0, "x"),), "coefficient must be finite"),
        (complex(0.0, float("inf")), ((0, "x"),), "coefficient must be finite"),
        (1.0, ((1.5, "x"),), "whole number"),
        (1.0, (("1", "x"),), "whole number"),
    ],
)
def test_pauli_string_rejects_non_finite_coefficients_and_fractional_sites(
    coefficient, factors, message
):
    with pytest.raises(DomainError, match=message):
        PauliString(coefficient, factors)


def test_pauli_string_accepts_a_whole_float_site():
    assert PauliString(1.0, ((1.0, "x"),)) == PauliString(1.0, ((1, "x"),))


# Coefficients stay finite so that the oracle's Kronecker products never
# meet 0 * inf; every entry is then exact on both routes.
coefficients = st.builds(
    complex,
    st.floats(-4.0, 4.0, allow_nan=False),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@st.composite
def pauli_strings(draw, n_sites):
    sites = draw(st.lists(st.integers(0, n_sites - 1), unique=True, max_size=n_sites))
    axes = draw(st.lists(st.sampled_from(AXES), min_size=len(sites), max_size=len(sites)))
    return PauliString(draw(coefficients), tuple(zip(sites, axes)))


@given(data=st.data(), n=st.integers(1, 6))
def test_bitwise_builders_match_kron_oracle(data, n):
    strings = data.draw(st.lists(pauli_strings(n), max_size=4))
    expected = np.zeros((2**n, 2**n), dtype=complex)
    for ps in strings:
        single = pauli_string_oracle(ps.coefficient, ps.factors, n)
        assert np.array_equal(dense([ps], n), single)
        rows, cols, values = ps.entries(n)
        assert np.array_equal(single[rows, cols], values)
        assert np.count_nonzero(single) <= rows.size  # no nonzero entry is missed
        expected += single
    assert np.array_equal(dense(strings, n), expected)
    site = data.draw(st.integers(0, n - 1))
    axis = data.draw(st.sampled_from(AXES))
    assert np.array_equal(pauli_on(axis, site, n), pauli_string_oracle(1.0, ((site, axis),), n))


def test_builders_need_no_numpy_2_bit_count(monkeypatch):
    # np.bitwise_count first appeared in NumPy 2.0; the package supports 1.25
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    factors = ((0, "y"), (2, "z"), (3, "+"), (4, "y"))
    assert np.array_equal(
        dense([PauliString(0.7, factors)], 5), pauli_string_oracle(0.7, factors, 5)
    )
    h = hamiltonian(SpinChainSpec(5, 0.9, 0.3, "periodic"))
    assert np.array_equal(h, xx_hamiltonian_oracle(5, 0.9, 0.3, "periodic"))


def test_operator_from_strings_hermitian_certificate():
    sx = (PauliString(1.0, ((0, "x"),)),)
    assert isinstance(SparseOperator.from_strings(sx, 1, hermitian=True), SparseOperator)
    ladder = (PauliString(1.0, ((0, "+"),)),)
    with pytest.raises(DomainError):
        SparseOperator.from_strings(ladder, 1, hermitian=True)


# ---------------------------------------------------------------------------
# Hamiltonian builder

def test_two_site_hamiltonian_matches_hand_assembly():
    spec = SpinChainSpec(2, coupling=1.0, field=0.5)
    h = hamiltonian(spec)
    manual = (
        np.kron(SX, SX)
        + np.kron(SY, SY)
        + 0.5 * (np.kron(SZ, np.eye(2)) + np.kron(np.eye(2), SZ))
    )
    assert np.allclose(h, manual)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_hamiltonian_is_the_kron_assembly_bit_for_bit(boundary):
    h = hamiltonian(SpinChainSpec(7, 0.9, 0.3, boundary))
    assert np.array_equal(h, xx_hamiltonian_oracle(7, 0.9, 0.3, boundary))


def test_two_site_spectrum():
    # J = 1, h = 0.5: outer states at +-1, the xx + yy doublet at +-2
    h = hamiltonian(SpinChainSpec(2, 1.0, 0.5))
    assert np.allclose(np.linalg.eigvalsh(h), [-2.0, -1.0, 1.0, 2.0])


def test_periodic_two_sites_omits_duplicate_bond():
    open_h = hamiltonian(SpinChainSpec(2, 1.0, 0.3, "open"))
    per_h = hamiltonian(SpinChainSpec(2, 1.0, 0.3, "periodic"))
    assert np.array_equal(open_h, per_h)


def test_periodic_three_sites_adds_wrap_bond():
    open_h = hamiltonian(SpinChainSpec(3, 1.0, 0.0, "open"))
    per_h = hamiltonian(SpinChainSpec(3, 1.0, 0.0, "periodic"))
    wrap = (
        pauli_on("x", 2, 3) @ pauli_on("x", 0, 3)
        + pauli_on("y", 2, 3) @ pauli_on("y", 0, 3)
    )
    assert np.allclose(per_h - open_h, wrap)


def test_total_z_is_conserved():
    h = hamiltonian(SpinChainSpec(7, 1.0, 0.3))
    sz_total = generator("uniform-z", 7)
    assert np.abs(h @ sz_total - sz_total @ h).max() < 1e-12


def test_chain_spec_validation():
    with pytest.raises(DomainError):
        SpinChainSpec(1)
    with pytest.raises(DomainError):
        SpinChainSpec(3, boundary="twisted")
    for coupling, field in ((math.nan, 0.3), (math.inf, 0.3), (1.0, math.nan), (1.0, -math.inf)):
        with pytest.raises(DomainError, match="must be finite"):
            SpinChainSpec(3, coupling, field)


# ---------------------------------------------------------------------------
# generators

def test_generator_kinds_cover_known_forms():
    anti = generator("antisymmetric-x", 2)
    assert np.allclose(anti, 0.5 * (np.kron(SX, np.eye(2)) - np.kron(np.eye(2), SX)))
    stag = generator("staggered-x", 3)
    expected = 0.5 * (pauli_on("x", 0, 3) - pauli_on("x", 1, 3) + pauli_on("x", 2, 3))
    assert np.allclose(stag, expected)
    uz = generator("uniform-z", 2)
    assert np.allclose(np.diagonal(uz), [1.0, 0.0, 0.0, -1.0])


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generators_are_the_kron_assembly_bit_for_bit(kind):
    n = 2 if kind == "antisymmetric-x" else 5
    axis = "z" if kind == "uniform-z" else "x"
    signs = {"antisymmetric-x": (1, -1), "staggered-x": (1, -1, 1, -1, 1)}.get(kind, (1,) * n)
    expected = np.zeros((2**n, 2**n), dtype=complex)
    for i, sign in enumerate(signs):
        expected += pauli_string_oracle(0.5 * sign, ((i, axis),), n)
    assert np.array_equal(generator(kind, n), expected)


def test_antisymmetric_generator_needs_two_sites():
    with pytest.raises(DomainError):
        local_generator_strings("antisymmetric-x", 3)


def test_unknown_generator_kind():
    with pytest.raises(DomainError) as err:
        local_generator_strings("bogus", 2)
    for kind in GENERATOR_KINDS:
        assert kind in str(err.value)


# ---------------------------------------------------------------------------
# entry lookup

@given(dim=st.integers(1, 9), seed=st.integers(0, 10_000), complex_values=st.booleans())
def test_at_reads_each_entry_and_zero_off_them(dim, seed, complex_values):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(dim, dim)) * (rng.random((dim, dim)) < 0.4)
    if complex_values:
        mat = mat + 1j * mat[::-1]
    op = SparseOperator.from_dense(mat)
    rows, cols = (idx.ravel() for idx in np.indices((dim, dim)))
    order = rng.permutation(rows.size)
    got = op.at(rows[order], cols[order])
    assert got.dtype == op.dtype
    assert np.array_equal(got, mat[rows[order], cols[order]])


def test_at_on_an_operator_without_entries():
    got = SparseOperator.from_dense(np.zeros((4, 4))).at([0, 3], [1, 3])
    assert got.tolist() == [0.0, 0.0]


def test_entry_indices_are_int32_with_int64_keys():
    dim = 2**31 - 1
    op = SparseOperator(np.array([1, 2]), np.array([dim - 1, 0]), [1.0, 2.0], dim)
    assert op.rows.dtype == op.cols.dtype == np.int32
    assert op.at([2, 1, 0], [0, dim - 1, 0]).tolist() == [2.0, 1.0, 0.0]
    # the order check is made on int64 keys: 2 * dim overflows int32
    with pytest.raises(DomainError, match="ascending"):
        SparseOperator([2, 1], [0, 0], [1.0, 1.0], dim)
    for dim in (2**31, 2**40):
        with pytest.raises(DomainError, match=r"below 2\*\*31"):
            SparseOperator([0], [0], [1.0], dim)
    assert SparseOperator.from_dense(np.eye(3)).rows.dtype == np.int32
    assert SparseOperator.from_strings([PauliString(1.0, ((0, "x"),))], 2).cols.dtype == np.int32


# ---------------------------------------------------------------------------
# support detection

def test_support_of_single_site_operator():
    for i in range(4):
        op = SparseOperator.from_strings([PauliString(1.0, ((i, "x"),))], 4)
        assert operator_support(op, 4) == frozenset({i})


def test_support_of_identity_and_zero():
    assert operator_support(np.eye(8), 3) == frozenset()
    assert operator_support(np.zeros((8, 8)), 3) == frozenset()


def test_support_skips_identity_factors():
    op = pauli_on("z", 0, 3) @ pauli_on("z", 2, 3)
    assert operator_support(op, 3) == frozenset({0, 2})


def test_support_does_not_depend_on_the_scale():
    # the tolerance is relative to max |O| alone, so tiny operators keep
    # their sites; the partial-trace oracle agrees
    op = dense([PauliString(1.0, ((0, "x"), (2, "z"))), PauliString(0.5, ((1, "+"),))], 3)
    for scale in (1.0, 1e-100, 1e-150, 1e100):
        assert operator_support(scale * op, 3) == frozenset({0, 1, 2})
        assert operator_support_oracle(scale * op, 3) == frozenset({0, 1, 2})


def test_support_dimension_mismatch():
    with pytest.raises(DomainError):
        operator_support(np.eye(6), 3)


# ---------------------------------------------------------------------------
# chain-length cap

def test_site_cap_env_override(monkeypatch):
    monkeypatch.setenv(SITE_CAP_ENV, "3")
    assert site_cap() == 3
    z0 = [PauliString(1.0, ((0, "z"),))]
    with pytest.raises(DomainError):
        SparseOperator.from_strings(z0, 4)
    monkeypatch.setenv(SITE_CAP_ENV, "4")
    assert SparseOperator.from_strings(z0, 4).dim == 16


def test_site_cap_applies_on_every_builder_path(monkeypatch):
    ps = PauliString(1.0, ((0, "x"),))
    builds = (
        lambda: ps.entries(4),
        lambda: SparseOperator.from_strings([ps], 4),
        lambda: SparseOperator.from_strings([], 4),
        lambda: xx_hamiltonian_strings(SpinChainSpec(4)),
        lambda: local_generator_strings("uniform-x", 4),
    )
    for build in builds:
        monkeypatch.setenv(SITE_CAP_ENV, "3")
        with pytest.raises(DomainError):
            build()
        monkeypatch.setenv(SITE_CAP_ENV, "4")
        build()
    # a single 2x2 factor lies within any cap, and the support check is
    # never capped
    monkeypatch.setenv(SITE_CAP_ENV, "1")
    assert np.array_equal(pauli_on("x", 0, 1), SX)
    assert operator_support(np.eye(16), 4) == frozenset()


# each entry point's count, read back as the count it built on
WHOLE_COUNTS = {
    "preset": lambda n: preset("chain", sites=n).spec.sites,
    "SparseOperator.from_strings": lambda n: SparseOperator.from_strings([], n).dim.bit_length() - 1,
    "SpinChainSpec": lambda n: SpinChainSpec(n).sites,
    "entanglement_depth": lambda n: entanglement_depth(5.0, n).n_particles,
}


@pytest.mark.parametrize("entry", sorted(WHOLE_COUNTS))
def test_fractional_counts_are_refused(entry):
    # refused, not truncated: 7.9 sites is not a 7-site chain, and 2.5
    # particles must not certify a depth of 3 on n_particles 2
    build = WHOLE_COUNTS[entry]
    for count in (2.5, 7.9):
        with pytest.raises(DomainError, match="whole number"):
            build(count)
    got = build(4.0)
    assert got == 4 and type(got) is int


def test_site_cap_stops_below_the_int32_index_limit(monkeypatch):
    # only the count is checked: nothing of dim 2**31 is built
    monkeypatch.setenv(SITE_CAP_ENV, "64")
    assert _check_sites(30) == 30
    with pytest.raises(DomainError, match=r"int32 index limit 2\*\*31"):
        _check_sites(31)


def test_site_cap_env_must_be_integer(monkeypatch):
    monkeypatch.setenv(SITE_CAP_ENV, "many")
    with pytest.raises(DomainError):
        site_cap()


def test_site_cap_error_names_the_overrides():
    with pytest.raises(DomainError) as err:
        xx_hamiltonian_strings(SpinChainSpec(13))
    msg = str(err.value)
    assert SITE_CAP_ENV in msg and "max_sites" not in msg


# ---------------------------------------------------------------------------
# coercion and the Hermitian certificate

def test_hermitian_operator_rejects_nonhermitian():
    with pytest.raises(DomainError):
        _operator_pairs(np.array([[0, 1], [0, 0]], dtype=complex), 2)


def test_hermitian_check_covers_every_row_block():
    dim = 300  # more than one row block of the check
    mat = np.zeros((dim, dim), dtype=complex)
    mat[dim - 1, dim - 2] = mat[dim - 2, dim - 1] = 1j  # symmetric, not Hermitian
    with pytest.raises(DomainError):
        _operator_pairs(mat, dim)
    mat[dim - 2, dim - 1] = -1j
    assert _operator_pairs(mat, dim)[2].dtype == np.complex128
    real = np.zeros((dim, dim))
    real[0, dim - 1] = real[dim - 1, 0] = 2.0
    assert _operator_pairs(real, dim)[2].dtype == np.float64
    # imaginary part all 0
    assert _operator_pairs(real.astype(complex), dim)[2].dtype == np.float64
    real[dim - 1, 0] = 1.0
    with pytest.raises(DomainError):
        _operator_pairs(real, dim)


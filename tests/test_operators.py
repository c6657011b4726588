"""Operator construction, Pauli algebra, support detection, and the site cap."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfidyn import (
    DomainError,
    GeneralOperator,
    HermitianOperator,
    PauliString,
    SpinChainSpec,
    anticommutator,
    build_xx_hamiltonian,
    commutator,
    local_generator,
    operator_from_strings,
    operator_support,
    pauli_site,
    pauli_strings_from_json,
)
from qfidyn.operators import (
    AXES,
    BOUNDARIES,
    GENERATOR_KINDS,
    SITE_CAP_ENV,
    pauli_matrix,
    pauli_strings_to_records,
    site_cap,
)
from qfidyn.dynsym import _operator_pairs
from oracles import pauli_string_oracle, xx_hamiltonian_oracle

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# single-site embeddings

def test_pauli_site_single_site_z():
    assert np.array_equal(pauli_site("z", 0, 1).mat, SZ)


def test_pauli_site_second_of_two():
    assert np.array_equal(pauli_site("x", 1, 2).mat, np.kron(np.eye(2), SX))


def test_pauli_site_first_of_two():
    assert np.array_equal(pauli_site("x", 0, 2).mat, np.kron(SX, np.eye(2)))


def test_pauli_site_ladder_is_general_operator():
    op = pauli_site("+", 0, 1)
    assert isinstance(op, GeneralOperator)
    assert not isinstance(op, HermitianOperator)
    assert np.array_equal(op.mat, np.array([[0, 1], [0, 0]], dtype=complex))


def test_pauli_site_hermitian_axes_wrapped():
    for axis in ("I", "x", "y", "z"):
        assert isinstance(pauli_site(axis, 0, 2), HermitianOperator)


def test_pauli_site_rejects_bad_input():
    with pytest.raises(DomainError):
        pauli_site("w", 0, 2)
    with pytest.raises(DomainError):
        pauli_site("x", 2, 2)
    with pytest.raises(DomainError):
        pauli_site("x", -1, 2)


def test_spin_up_is_index_zero():
    # convention check: sigma^+ raises toward basis index 0
    up = np.array([1, 0], dtype=complex)
    down = np.array([0, 1], dtype=complex)
    assert np.array_equal(pauli_site("+", 0, 1).mat @ down, up)
    assert np.array_equal(pauli_site("z", 0, 1).mat @ up, up)


# ---------------------------------------------------------------------------
# Pauli algebra

AXIS_IDX = {"x": 0, "y": 1, "z": 2}


@given(a=st.sampled_from("xyz"), b=st.sampled_from("xyz"))
def test_pauli_product_algebra(a, b):
    # sigma_a sigma_b = delta_ab I + i eps_abc sigma_c
    prod = pauli_matrix(a) @ pauli_matrix(b)
    if a == b:
        expected = np.eye(2)
    else:
        c = ({"x", "y", "z"} - {a, b}).pop()
        eps = 1.0 if (a, b) in (("x", "y"), ("y", "z"), ("z", "x")) else -1.0
        expected = 1j * eps * pauli_matrix(c)
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
    pa = pauli_site(a, i, 3)
    pb = pauli_site(b, j, 3)
    assert np.abs(commutator(pa, pb).mat).max() == 0.0


def test_commutator_example():
    assert np.allclose(commutator(SX, SY).mat, 2j * SZ)
    assert np.abs(anticommutator(SX, SY).mat).max() == 0.0


def test_commutator_shape_mismatch():
    with pytest.raises(DomainError):
        commutator(SX, np.eye(4))


# ---------------------------------------------------------------------------
# Pauli strings

def test_pauli_string_matrix():
    ps = PauliString(2.0, ((1, "x"), (0, "z")))
    assert np.array_equal(ps.matrix(2), 2.0 * np.kron(SZ, SX))


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
        PauliString(1.0, ((3, "x"),)).matrix(2)


def test_pauli_string_record_roundtrip():
    ps = PauliString(0.5 - 2j, ((0, "z"), (2, "-")))
    assert PauliString.from_record(ps.to_record()) == ps


def test_pauli_string_record_is_json_serializable():
    ps = PauliString(1.5, ((1, "y"),))
    text = json.dumps(pauli_strings_to_records([ps]))
    (back,) = pauli_strings_from_json(text)
    assert back == ps


def test_pauli_strings_from_json_file(tmp_path):
    path = tmp_path / "op.json"
    records = pauli_strings_to_records(
        [PauliString(1.0, ((0, "x"),)), PauliString(-1.0, ((1, "x"),))]
    )
    path.write_text(json.dumps(records), encoding="utf-8")
    strings = pauli_strings_from_json(str(path))
    assert len(strings) == 2
    assert strings[1].coefficient == -1.0


def test_pauli_strings_from_json_rejects_garbage():
    with pytest.raises(DomainError):
        pauli_strings_from_json('[{"nope": 1}]')
    with pytest.raises(DomainError):
        pauli_strings_from_json({"not": "a list"})


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
        assert np.array_equal(ps.matrix(n), single)
        rows, cols, values = ps.entries(n)
        assert np.array_equal(single[rows, cols], values)
        assert np.count_nonzero(single) <= rows.size  # no nonzero entry is missed
        expected += single
    assert np.array_equal(operator_from_strings(strings, n).mat, expected)
    site = data.draw(st.integers(0, n - 1))
    axis = data.draw(st.sampled_from(AXES))
    assert np.array_equal(pauli_site(axis, site, n).mat, pauli_string_oracle(1.0, ((site, axis),), n))


def test_builders_need_no_numpy_2_bit_count(monkeypatch):
    # np.bitwise_count first appeared in NumPy 2.0; the package supports 1.24
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    factors = ((0, "y"), (2, "z"), (3, "+"), (4, "y"))
    assert np.array_equal(
        PauliString(0.7, factors).matrix(5), pauli_string_oracle(0.7, factors, 5)
    )
    h = build_xx_hamiltonian(SpinChainSpec(5, 0.9, 0.3, "periodic")).mat
    assert np.array_equal(h, xx_hamiltonian_oracle(5, 0.9, 0.3, "periodic"))


def test_operator_from_strings_hermitian_certificate():
    sx = (PauliString(1.0, ((0, "x"),)),)
    assert isinstance(operator_from_strings(sx, 1, hermitian=True), HermitianOperator)
    ladder = (PauliString(1.0, ((0, "+"),)),)
    with pytest.raises(DomainError):
        operator_from_strings(ladder, 1, hermitian=True)


# ---------------------------------------------------------------------------
# Hamiltonian builder

def test_two_site_hamiltonian_matches_hand_assembly():
    spec = SpinChainSpec(2, coupling=1.0, field=0.5)
    h = build_xx_hamiltonian(spec).mat
    manual = (
        np.kron(SX, SX)
        + np.kron(SY, SY)
        + 0.5 * (np.kron(SZ, np.eye(2)) + np.kron(np.eye(2), SZ))
    )
    assert np.allclose(h, manual)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_hamiltonian_is_the_kron_assembly_bit_for_bit(boundary):
    h = build_xx_hamiltonian(SpinChainSpec(7, 0.9, 0.3, boundary)).mat
    assert np.array_equal(h, xx_hamiltonian_oracle(7, 0.9, 0.3, boundary))


def test_two_site_spectrum():
    # J = 1, h = 0.5: outer states at +-1, the xx + yy doublet at +-2
    h = build_xx_hamiltonian(SpinChainSpec(2, 1.0, 0.5)).mat
    assert np.allclose(np.linalg.eigvalsh(h), [-2.0, -1.0, 1.0, 2.0])


def test_periodic_two_sites_omits_duplicate_bond():
    open_h = build_xx_hamiltonian(SpinChainSpec(2, 1.0, 0.3, "open")).mat
    per_h = build_xx_hamiltonian(SpinChainSpec(2, 1.0, 0.3, "periodic")).mat
    assert np.array_equal(open_h, per_h)


def test_periodic_three_sites_adds_wrap_bond():
    open_h = build_xx_hamiltonian(SpinChainSpec(3, 1.0, 0.0, "open")).mat
    per_h = build_xx_hamiltonian(SpinChainSpec(3, 1.0, 0.0, "periodic")).mat
    wrap = (
        pauli_site("x", 2, 3).mat @ pauli_site("x", 0, 3).mat
        + pauli_site("y", 2, 3).mat @ pauli_site("y", 0, 3).mat
    )
    assert np.allclose(per_h - open_h, wrap)


def test_total_z_is_conserved():
    h = build_xx_hamiltonian(SpinChainSpec(7, 1.0, 0.3))
    sz_total = local_generator("uniform-z", 7)
    assert np.abs(commutator(h, sz_total).mat).max() < 1e-12


def test_chain_spec_validation():
    with pytest.raises(DomainError):
        SpinChainSpec(1)
    with pytest.raises(DomainError):
        SpinChainSpec(3, boundary="twisted")


# ---------------------------------------------------------------------------
# generators

def test_generator_kinds_cover_known_forms():
    anti = local_generator("antisymmetric-x", 2).mat
    assert np.allclose(anti, 0.5 * (np.kron(SX, np.eye(2)) - np.kron(np.eye(2), SX)))
    stag = local_generator("staggered-x", 3).mat
    expected = 0.5 * (
        pauli_site("x", 0, 3).mat - pauli_site("x", 1, 3).mat + pauli_site("x", 2, 3).mat
    )
    assert np.allclose(stag, expected)
    uz = local_generator("uniform-z", 2).mat
    assert np.allclose(np.diagonal(uz), [1.0, 0.0, 0.0, -1.0])


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generators_are_the_kron_assembly_bit_for_bit(kind):
    n = 2 if kind == "antisymmetric-x" else 5
    axis = "z" if kind == "uniform-z" else "x"
    signs = {"antisymmetric-x": (1, -1), "staggered-x": (1, -1, 1, -1, 1)}.get(kind, (1,) * n)
    expected = np.zeros((2**n, 2**n), dtype=complex)
    for i, sign in enumerate(signs):
        expected += pauli_string_oracle(0.5 * sign, ((i, axis),), n)
    assert np.array_equal(local_generator(kind, n).mat, expected)


def test_antisymmetric_generator_needs_two_sites():
    with pytest.raises(DomainError):
        local_generator("antisymmetric-x", 3)


def test_unknown_generator_kind():
    with pytest.raises(DomainError) as err:
        local_generator("bogus", 2)
    for kind in GENERATOR_KINDS:
        assert kind in str(err.value)


# ---------------------------------------------------------------------------
# support detection

def test_support_of_single_site_operator():
    for i in range(4):
        assert operator_support(pauli_site("x", i, 4), 4) == frozenset({i})


def test_support_of_identity_and_zero():
    assert operator_support(np.eye(8), 3) == frozenset()
    assert operator_support(np.zeros((8, 8)), 3) == frozenset()


def test_support_skips_identity_factors():
    op = pauli_site("z", 0, 3).mat @ pauli_site("z", 2, 3).mat
    assert operator_support(op, 3) == frozenset({0, 2})


def test_support_dimension_mismatch():
    with pytest.raises(DomainError):
        operator_support(np.eye(6), 3)


# ---------------------------------------------------------------------------
# chain-length cap

def test_site_cap_env_override(monkeypatch):
    monkeypatch.setenv(SITE_CAP_ENV, "3")
    assert site_cap() == 3
    with pytest.raises(DomainError):
        pauli_site("z", 0, 4)
    # the explicit argument wins over the environment
    assert pauli_site("z", 0, 4, max_sites=4).dim == 16


def test_site_cap_applies_on_every_builder_path(monkeypatch):
    monkeypatch.setenv(SITE_CAP_ENV, "3")
    ps = PauliString(1.0, ((0, "x"),))
    builds = (
        lambda **kw: ps.entries(4, **kw),
        lambda **kw: ps.matrix(4, **kw),
        lambda **kw: pauli_site("x", 0, 4, **kw),
        lambda **kw: operator_from_strings([ps], 4, **kw),
        lambda **kw: operator_from_strings([], 4, **kw),
        lambda **kw: build_xx_hamiltonian(SpinChainSpec(4), **kw),
        lambda **kw: local_generator("uniform-x", 4, **kw),
    )
    for build in builds:
        with pytest.raises(DomainError):
            build()
        build(max_sites=4)  # the explicit argument wins over the environment
    # a single 2x2 factor is never capped
    assert np.array_equal(pauli_matrix("x"), SX)


def test_site_cap_env_must_be_integer(monkeypatch):
    monkeypatch.setenv(SITE_CAP_ENV, "many")
    with pytest.raises(DomainError):
        site_cap()


def test_site_cap_error_names_the_overrides():
    with pytest.raises(DomainError) as err:
        build_xx_hamiltonian(SpinChainSpec(13))
    msg = str(err.value)
    assert SITE_CAP_ENV in msg and "max_sites" in msg


# ---------------------------------------------------------------------------
# wrappers

def test_hermitian_operator_rejects_nonhermitian():
    with pytest.raises(DomainError):
        HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_check_covers_every_row_block():
    dim = 300  # more than one row block of the check
    mat = np.zeros((dim, dim), dtype=complex)
    mat[dim - 1, dim - 2] = mat[dim - 2, dim - 1] = 1j  # symmetric, not Hermitian
    with pytest.raises(DomainError):
        _operator_pairs(mat, dim)
    with pytest.raises(DomainError):
        HermitianOperator(mat)
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


def test_general_operator_dagger_and_norm():
    op = GeneralOperator(np.array([[0, 2], [0, 0]], dtype=complex))
    assert np.array_equal(op.dagger().mat, np.array([[0, 0], [2, 0]]))
    assert op.hs_norm() == 2.0
    herm = HermitianOperator(SX)
    assert herm.dagger() is herm


def test_operators_coerce_via_asarray():
    op = GeneralOperator(SY)
    assert np.array_equal(np.asarray(op), SY)

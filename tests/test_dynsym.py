"""Dynamical-symmetry verification, frequency blocks, and Mazur weights."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qfidyn import (
    DomainError,
    OperatorBlock,
    PairPartition,
    PauliString,
    SparseOperator,
    block_gram,
    diagonalize,
    fit_frequency,
    gibbs_weights,
    local_cap,
    mazur_weight,
    projector_mazur_weight,
    thermal_expectation,
    trivial_complete_set,
    verified_blocks,
)
from qfidyn.dynsym import (
    _local_cap,
    _mirrored_clusters,
    cluster_values,
    default_omega_tol,
)
from qfidyn.models import preset, preset_operators, solve_preset, two_qubit_symmetry_operators
from qfidyn.operators import AXES, SpinChainSpec, operator_support, xx_hamiltonian_strings
from oracles import (
    block_gram_oracle,
    cluster_oracle,
    fit_frequency_oracle,
    fit_frequency_reference,
    local_cap_oracle,
    operator_support_oracle,
    random_hermitian,
    thermal_state,
)
from test_cli import fermion_modes
from test_sectors import (
    BETAS,
    block_case,
    block_sparse_operator,
    case,
    chain,
    chain_case,
    pair_keys,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SMINUS = np.array([[0, 0], [1, 0]], dtype=complex)


def dense_preset(name, **overrides):
    """Hamiltonian and generator of a preset as dense matrices."""
    return tuple(op.dense() for op in preset_operators(preset(name, **overrides)))


def two_qubit_setup(field=0.5, beta=1.0):
    h_op, gen = dense_preset("two-qubit", field=field)
    spectral = diagonalize(h_op)
    ens = gibbs_weights(spectral, beta)
    o_eig = spectral.to_eigenbasis(gen)
    return h_op, gen, spectral, ens, o_eig


# ---------------------------------------------------------------------------
# frequency fitting

def test_fit_frequency_lowering_operator():
    omega, residual = fit_frequency(SZ, SMINUS)
    assert omega == -2.0
    assert residual < 1e-15


def test_fit_frequency_non_eigenoperator():
    omega, residual = fit_frequency(SZ, np.array([[0, 1], [1, 0]], dtype=complex))
    assert omega == 0.0
    assert math.isclose(residual, 2.0)


def test_fit_frequency_rejects_zero_operator():
    with pytest.raises(DomainError):
        fit_frequency(SZ, np.zeros((2, 2)))
    # <A, A> overflowed or subnormal leaves no meaningful residual
    for scale in (1e160, 1e-160):
        with pytest.raises(DomainError, match="out of range"):
            fit_frequency(SZ, scale * SMINUS)
    # a NaN entry is refused on the way in
    with pytest.raises(DomainError, match="must be finite"):
        fit_frequency(SZ, np.nan * SMINUS)


@st.composite
def pauli_sums_and_hamiltonians(draw):
    """(H, A, n): A a sum of 1-6 random Pauli strings over all six axes with
    complex coefficients on 2-6 sites, H an open or periodic XX chain with
    random coupling and field, or a random dense Hermitian matrix on 2-4
    sites."""
    kind = draw(st.sampled_from(("open", "periodic", "dense")))
    n = draw(st.integers(2, 4 if kind == "dense" else 6))
    part = st.floats(-2.0, 2.0, allow_nan=False)
    coefficient = st.builds(complex, part, part)
    factors = st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from(AXES)),
        max_size=n,
        unique_by=lambda factor: factor[0],
    )
    strings = draw(st.lists(st.builds(PauliString, coefficient, factors), min_size=1, max_size=6))
    if kind == "dense":
        h = random_hermitian(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 2**n)
    else:
        spec = SpinChainSpec(n, draw(part), draw(part), kind)
        h = SparseOperator.from_strings(xx_hamiltonian_strings(spec), n)
    return h, SparseOperator.from_strings(strings, n), n


@given(pauli_sums_and_hamiltonians())
def test_entry_fit_and_support_match_the_dense_oracles(case):
    h, a, n = case
    h_mat = h.dense() if isinstance(h, SparseOperator) else h
    assume(a.values.size and np.finfo(float).tiny <= np.vdot(a.values, a.values).real)
    omega, residual = fit_frequency(h, a)
    want_omega, want_residual = fit_frequency_oracle(h_mat, a.dense())
    # both are bounded by 2 |H| in the operator norm
    scale = max(1.0, float(np.linalg.norm(h_mat, 2)))
    assert abs(omega - want_omega) <= 1e-12 * scale
    assert abs(residual - want_residual) <= 1e-12 * scale
    assert operator_support(a, n) == operator_support_oracle(a.dense(), n)


def test_fit_counts_omega_a_where_the_commutator_vanishes():
    # [H, s-_0] = -2h s-_0 and [H, z_1] = 0 under the field H = h (z_0 + z_1),
    # so the fit's residual holds omega z_1 on positions where [H, A] is 0
    h = SparseOperator.from_strings(xx_hamiltonian_strings(SpinChainSpec(2, 0.0, 0.7)), 2)
    a = SparseOperator.from_strings(
        [PauliString(1.0, ((0, "-"),)), PauliString(1.0, ((1, "z"),))], 2
    )
    omega, residual = fit_frequency(h, a)
    # <A, A> = 2 + 4: omega = -2h 2 / 6, residual^2 = (2 (4h/3)^2 + 4 (2h/3)^2) / 6
    assert math.isclose(omega, -2.0 * 0.7 / 3.0, rel_tol=1e-15)
    assert math.isclose(residual, 2.0 * math.sqrt(2.0) * 0.7 / 3.0, rel_tol=1e-15)
    want = fit_frequency_oracle(h.dense(), a.dense())
    assert math.isclose(omega, want[0], rel_tol=1e-15)
    assert math.isclose(residual, want[1], rel_tol=1e-15)


@pytest.mark.parametrize("dim", [3, 5, 6, 7])
@pytest.mark.parametrize("is_complex", [False, True])
def test_fit_frequency_at_a_dim_that_is_no_power_of_two(dim, is_complex):
    # a flip mask row ^ col can reach past dim when dim is not 2^n, where
    # H has no entry: the fit once raised IndexError there
    rng = np.random.default_rng(dim)
    h = random_hermitian(rng, dim)
    h = h if is_complex else h.real
    corner = np.zeros((dim, dim))
    corner[0, dim - 1] = 1.0
    dense = random_hermitian(rng, dim) * (rng.random((dim, dim)) < 0.5)
    for a in (corner, dense if is_complex else dense.real):
        omega, residual = fit_frequency(h, a)
        want_omega, want_residual = fit_frequency_oracle(h, a)
        scale = max(1.0, float(np.linalg.norm(h, 2)))
        assert abs(omega - want_omega) <= 1e-12 * scale
        assert abs(residual - want_residual) <= 1e-12 * scale


def test_fit_frequency_is_the_unique_merge_bit_for_bit():
    # merging the commutator's terms by sort and search places them where
    # np.unique did, so np.add.at adds them in the same order
    h2 = preset_operators(preset("two-qubit"))[0]
    cases = [(h2, list(two_qubit_symmetry_operators().values()))]
    for sites in range(2, 9):
        for boundary in ("open", "periodic"):
            for field in (0.0, 0.3):
                h, gen = preset_operators(preset("chain", sites=sites, field=field,
                                                 boundary=boundary))
                modes = [SparseOperator.from_strings(m, sites) for m in fermion_modes(sites)]
                cases.append((h, [gen, *modes]))
    for h, ops in cases:
        for op in ops:
            got, want = fit_frequency(h, op), fit_frequency_reference(h, op)
            assert [x.hex() for x in got] == [x.hex() for x in want]


def test_verified_blocks_verifies_and_rejects():
    spectral = diagonalize(SZ)
    (block,) = verified_blocks(SZ, spectral, [SMINUS])
    # in the eigenbasis, levels ascending, SMINUS lowers level 1 to level 0
    assert block.omega == -2.0 and block.members[0].dense().tolist() == [[0, 1], [0, 0]]
    with pytest.raises(DomainError, match="operator 0: operator is not a dynamical symmetry"):
        verified_blocks(SZ, spectral, [np.array([[0, 1], [1, 0]], dtype=complex)])
    # a NaN Hamiltonian is refused before any fit
    with pytest.raises(DomainError, match="operator 0: hamiltonian must be finite"):
        verified_blocks(np.diag([1.0, np.nan]), spectral, [SMINUS])


# ---------------------------------------------------------------------------
# clustering

def test_cluster_values_merges_within_tol():
    reps, labels = cluster_values(np.array([1.0, 1.0 + 1e-12, 5.0]), 1e-9)
    assert reps.size == 2
    assert np.array_equal(labels, [0, 0, 1])
    assert math.isclose(reps[0], 1.0, abs_tol=1e-12)


def test_mirrored_clusters_are_sign_symmetric():
    half = np.array([-1.0 - 1e-12, -1.0 + 1e-12])
    reps, bounds = _mirrored_clusters(half, 1e-9)
    assert reps.size == 3 and bounds.tolist() == [0, 2]
    assert reps[1] == 0.0
    assert reps[0] == -reps[2]
    want, _ = cluster_oracle(np.concatenate((half, [0.0], -half[::-1])), 1e-9, symmetric=True)
    assert np.array_equal(reps.view(np.int64), want.view(np.int64))


def test_cluster_values_rejects_empty():
    with pytest.raises(DomainError):
        cluster_values(np.array([]), 1e-9)


@given(
    pool=st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-12, -1e-12, 2.5, 3.0 + 1e-10, 1e300]),
        min_size=1,
        max_size=12,
    ),
    size=st.integers(1, 3000),
    tol=st.sampled_from([1e-9, 0.6]),
    seed=st.integers(0, 10_000),
)
def test_cluster_values_ignores_the_order_among_ties(pool, size, tol, seed):
    # many exact ties and both signed zeros, long enough for numpy's
    # unstable sort paths; reps and labels must match a stable sort bit for bit
    values = np.random.default_rng(seed).choice(np.array(pool), size)
    reps, labels = cluster_values(values, tol)
    want_reps, want_labels = cluster_oracle(values, tol)
    assert np.array_equal(reps.view(np.int64), want_reps.view(np.int64))
    assert np.array_equal(labels, want_labels)


def test_default_omega_tol_scales_with_width():
    assert default_omega_tol(np.array([0.0, 200.0])) == 2e-6
    assert default_omega_tol(np.array([0.0, 0.5])) == 1e-8


# ---------------------------------------------------------------------------
# trivial complete set

def test_trivial_set_partitions_all_pairs():
    _, _, spectral, _, _ = two_qubit_setup()
    part = trivial_complete_set(spectral)
    assert part.dim == 4
    assert part.labels.shape == (10,)  # the pairs m <= n of 4 levels
    omegas = part.omegas.tolist()
    assert omegas == sorted(omegas)
    assert np.allclose(omegas, [-4, -3, -2, -1, 0, 1, 2, 3, 4])
    zero = np.flatnonzero(part.omegas == 0.0)
    assert zero.size == 1 and np.count_nonzero(part.labels == zero[0]) == 4
    gaps = spectral.energies[:, None] - spectral.energies[None, :]
    tol = default_omega_tol(spectral.energies)
    assert np.abs(gaps[part.rows, part.cols] - part.omegas[part.labels]).max() <= tol
    # the mirrored pair (n, m) lies in the mirrored cluster
    off = part.rows != part.cols
    mirrored = part.omegas[part.omegas.size - 1 - part.labels[off]]
    assert np.abs(gaps[part.cols[off], part.rows[off]] - mirrored).max() <= tol


@given(dim=st.integers(2, 12), seed=st.integers(0, 10_000))
def test_trivial_set_complete_for_random_spectra(dim, seed):
    rng = np.random.default_rng(seed)
    spectral = diagonalize(random_hermitian(rng, dim))
    part = trivial_complete_set(spectral)
    assert part.dim == dim and part.rows.size == dim * (dim + 1) // 2
    assert np.count_nonzero(part.omegas == 0.0) == 1
    # every ordered pair lands in exactly one cluster, so the sizes add up
    ones = np.ones(part.rows.size)
    assert part.bin_chunks([(slice(0, ones.size), ones, ones)], 1)[0].sum() == dim * dim


def test_trivial_set_accepts_an_ensemble():
    _, _, spectral, ens, _ = two_qubit_setup()
    from_ens = trivial_complete_set(ens)
    from_spec = trivial_complete_set(spectral)
    assert np.array_equal(from_ens.omegas, from_spec.omegas)
    assert np.array_equal(from_ens.labels, from_spec.labels)


def test_trivial_set_for_an_operator_holds_its_nonzero_pairs():
    _, _, spectral, _, o_eig = two_qubit_setup()
    full = trivial_complete_set(spectral)
    pairs = trivial_complete_set(spectral, op_eig=o_eig)
    upper = np.triu(o_eig != 0)
    assert np.array_equal(pair_keys(pairs), np.flatnonzero(upper))
    assert np.array_equal(pairs.values, o_eig[pairs.rows, pairs.cols])
    assert pairs.rows.size < full.rows.size
    # the set clusters its own gaps: each pair's cluster frequency is the
    # full set's frequency of the same pair, and there are fewer clusters
    at = np.searchsorted(pair_keys(full), pair_keys(pairs))
    assert np.array_equal(pairs.omegas[pairs.labels], full.omegas[full.labels[at]])
    assert pairs.omegas.size < full.omegas.size
    with pytest.raises(DomainError):
        trivial_complete_set(spectral, op_eig=o_eig + np.triu(o_eig, 1))


def test_partition_bin_drops_left_out_pairs():
    # pairs (0, 1) and (1, 1) of dim 2; (0, 0) is left out
    part = PairPartition(np.array([-1.0, 0.0, 1.0]), [0, 1], [1, 1], [2, 1], 2)
    # (0, 1) -> cluster 2, its mirror (1, 0) -> cluster 0; (1, 1) has no mirror
    both = slice(0, 2)
    binned = part.bin_chunks([(both, np.array([10.0, 1000.0]), np.array([100.0, 7.0]))], 1)[0]
    assert binned.tolist() == [100.0, 1000.0, 10.0]
    # rows of terms are binned side by side, each as it is alone, chunk by chunk
    forward, backward = np.array([[10.0, 1000.0], [1.0, 2.0]]), np.array([[100.0, 7.0], [3.0, 4.0]])
    chunks = [(slice(i, i + 1), forward[:, i], backward[:, i]) for i in range(2)]
    binned = part.bin_chunks(chunks, 2)
    alone = [part.bin_chunks([(both, f, b)], 1)[0].tolist() for f, b in zip(forward, backward)]
    assert binned.tolist() == alone
    assert part.bin_chunks([], 2).shape == (2, 3)


OMEGAS = np.array([-1.0, 0.0, 1.0])
GOOD_PAIRS = ([0, 0], [0, 1], [1, 0], 2)
BAD_PARTITIONS = [
    (np.array([-1.0, 0.5, 1.0]), *GOOD_PAIRS),  # not sign-symmetric
    (np.array([-1.0, 1.0]), *GOOD_PAIRS),  # no zero cluster
    (OMEGAS, [0, 0], [0, 1], [1.0, 0.0], 2),  # float labels
    (OMEGAS, [0, 0], [0, 1, 1], [1, 0], 2),  # unequal sizes
    (OMEGAS, [0, 0], [0, 1], [1, 3], 2),  # label out of range
    (OMEGAS, [0, 0], [0, 1], [1, -1], 2),  # negative label
    (OMEGAS, [1, 0], [0, 1], [1, 0], 2),  # m > n
    (OMEGAS, [0, 0], [1, 0], [0, 1], 2),  # not ascending
    (OMEGAS, [0, 0], [1, 1], [0, 0], 2),  # a pair twice
    (OMEGAS, [0, 0], [0, 2], [1, 0], 2),  # n out of range
    (OMEGAS, [0, 0], [0, 1], [1, 0], 0),  # no levels
    (OMEGAS, [0, 0], [0, 1], [1, 0], 2.5),  # a fractional dim
]


def test_partition_validates_its_fields():
    assert PairPartition(OMEGAS, *GOOD_PAIRS).rows.size == 2
    for args in BAD_PARTITIONS:
        with pytest.raises(DomainError):
            PairPartition(*args)
    with pytest.raises(DomainError):
        PairPartition(OMEGAS, *GOOD_PAIRS, values=np.ones(3))
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(DomainError, match="values must be finite"):
            PairPartition(OMEGAS, *GOOD_PAIRS, values=[1.0, bad])


def test_partition_stores_int32_copies_of_its_indices():
    # intp and int64 indices are stored as int32 copies, 4 B each
    for dtype in (np.intp, np.int64):
        given = [np.array(a, dtype=dtype) for a in GOOD_PAIRS[:3]]
        for make in (PairPartition, PairPartition._adopt):
            part = make(OMEGAS.copy(), *given, 2)
            for name, arr in zip(("rows", "cols", "labels"), given):
                got = getattr(part, name)
                assert got.dtype == np.int32 and got is not arr and np.array_equal(got, arr)
            assert pair_keys(part).tolist() == [0, 1]
    # an index is range-checked before it is narrowed: 2**32 + 1 would
    # wrap to the valid int32 index 1
    with pytest.raises(DomainError, match="0 <= m <= n < 3"):
        PairPartition(OMEGAS, [0, 0], np.array([0, 2**32 + 1]), [1, 0], 3)
    # int32 indices need dim below 2**31; the arrays stay tiny
    for dim in (2**31, 2**40):
        with pytest.raises(DomainError, match=r"below 2\*\*31"):
            PairPartition(OMEGAS, *GOOD_PAIRS[:3], dim)
    top = 2**31 - 2
    part = PairPartition(OMEGAS, [0, top], [top, top], [1, 1], top + 1)
    assert pair_keys(part).tolist() == [top, top * (top + 1) + top]


def test_adopted_arrays_pass_the_same_checks():
    # trivial_complete_set hands its own arrays over without copies; they
    # are checked as a caller's are, then frozen in place
    for args in BAD_PARTITIONS:
        arrays = [np.array(a) if isinstance(a, list) else a for a in args]
        with pytest.raises(DomainError):
            PairPartition._adopt(*arrays)
    with pytest.raises(DomainError):
        PairPartition._adopt(OMEGAS.copy(), *map(np.array, GOOD_PAIRS[:3]), 2, np.ones(3))
    rows, cols, labels = (np.array(a, dtype=np.int32) for a in GOOD_PAIRS[:3])
    part = PairPartition._adopt(OMEGAS.copy(), rows, cols, labels, 2, np.array([1.0, 2.0]))
    assert part.rows is rows and part.labels is labels
    assert not rows.flags.writeable and not part.values.flags.writeable
    copied = PairPartition(OMEGAS, *GOOD_PAIRS, values=[1.0, 2.0])
    for name in ("omegas", "rows", "cols", "labels", "values", "dim"):
        assert np.array_equal(getattr(part, name), getattr(copied, name))


def test_partitions_need_no_numpy_2_copy_modes(monkeypatch):
    # np.array(copy=None) and np.asarray(copy=...) first appeared in NumPy
    # 2.0; the package supports 1.25, where np.array rejects copy=None with
    # a ValueError and np.asarray takes no copy argument.  Only the
    # package's own calls are held to that: NumPy 2 uses both internally.
    array, asarray = np.array, np.asarray

    def from_package():
        return sys._getframe(2).f_globals.get("__name__", "").startswith("qfidyn")

    def array_1x(*args, **kwargs):
        if "copy" in kwargs and kwargs["copy"] is None and from_package():
            raise ValueError("NoneType copy mode not allowed.")
        return array(*args, **kwargs)

    def asarray_1x(*args, **kwargs):
        if "copy" in kwargs and from_package():
            raise TypeError("asarray() got an unexpected keyword argument 'copy'")
        return asarray(*args, **kwargs)

    _, _, spectral, _, o_eig = two_qubit_setup()
    monkeypatch.setattr(np, "array", array_1x)
    monkeypatch.setattr(np, "asarray", asarray_1x)
    for part in (trivial_complete_set(spectral), trivial_complete_set(spectral, None, o_eig)):
        assert not part.rows.flags.writeable
    _, pairs, _ = solve_preset(preset("chain", sites=4))
    assert pairs.rows.size and not pairs.values.flags.writeable
    rows, cols, labels = (array(a, dtype=np.int32) for a in GOOD_PAIRS[:3])
    values = array([1.0, 2.0])
    adopted = PairPartition._adopt(OMEGAS.copy(), rows, cols, labels, 2, values)
    assert adopted.rows is rows and adopted.labels is labels and adopted.values is values
    copied = PairPartition(OMEGAS, rows.copy(), cols, labels, 2, values)
    assert copied.rows is not rows and np.array_equal(copied.rows, rows)


def test_a_partition_keeps_copies_of_the_caller_arrays():
    omegas = OMEGAS.copy()
    rows, cols, labels = (np.array(a) for a in GOOD_PAIRS[:3])
    values = np.array([1.0, 2.0])
    part = PairPartition(omegas, rows, cols, labels, 2, values)
    given = (omegas, rows, cols, labels, values)
    assert all(arr.flags.writeable for arr in given)
    kept = [getattr(part, name).copy() for name in ("omegas", "rows", "cols", "labels", "values")]
    omegas[:] = [-2.0, 0.0, 2.0]
    rows[:] = [1, 1]
    cols[:] = [1, 1]
    labels[:] = [2, 2]
    values[:] = [-7.0, -8.0]
    for name, want in zip(("omegas", "rows", "cols", "labels", "values"), kept):
        got = getattr(part, name)
        assert np.array_equal(got, want) and not got.flags.writeable
    assert pair_keys(part).tolist() == [0, 1]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_omega_tol_must_be_finite_and_positive(tol):
    # a NaN or infinite tolerance once put every gap into the zero cluster,
    # whose coefficient is 0, and certified a bound of 0 as saturated
    _, _, spectral, _, o_eig = two_qubit_setup()
    sz_spectral = diagonalize(SZ)
    for call in (
        lambda: trivial_complete_set(spectral, tol),
        lambda: trivial_complete_set(spectral, tol, o_eig),
        lambda: verified_blocks(SZ, sz_spectral, [SMINUS], tol),
        lambda: verified_blocks(SZ, sz_spectral, [], tol),
        lambda: cluster_values(np.array([-1.0, 0.0, 1.0, 1.0]), tol),
    ):
        with pytest.raises(DomainError, match="omega_tol must be finite and > 0"):
            call()


# ---------------------------------------------------------------------------
# grouping and verification

def test_verified_blocks_snaps_near_zero_frequencies():
    # just below the level crossing A3 and A4 sit at +-2(|J| - |h|) = +-1e-4:
    # with omega_tol 1.5e-4 they are two clusters, both within omega_tol of
    # zero, and form the one zero block, in the order given
    h_op, _, spectral, _, _ = two_qubit_setup(field=1.0 - 5e-5)
    ops = two_qubit_symmetry_operators(("A3", "A4", "A1"))
    a3, a4, a1 = (ops[k] for k in ("A3", "A4", "A1"))
    assert [round(fit_frequency(h_op, op)[0], 9) for op in (a3, a4)] == [1e-4, -1e-4]
    blocks = verified_blocks(h_op, spectral, [a3, a4, a1], 1.5e-4)
    assert [round(b.omega, 9) for b in blocks] == [-3.9999, 0.0]
    assert blocks[1].omega == 0.0
    assert [len(b.members) for b in blocks] == [1, 2]
    for got, op in zip(blocks[1].members, (a3, a4)):
        (alone,) = verified_blocks(h_op, spectral, [op], 1.5e-4)
        want = alone.members[0]
        assert alone.omega == 0.0
        assert all(np.array_equal(getattr(got, f), getattr(want, f))
                   for f in ("rows", "cols", "values"))
    # at the spectrum's default_omega_tol, 4e-8 here, they stay apart
    blocks = verified_blocks(h_op, spectral, [a3, a4, a1])
    assert [round(b.omega, 9) for b in blocks] == [-3.9999, -1e-4, 1e-4]
    assert verified_blocks(h_op, spectral, [], 1.5e-4) == []


def test_verified_blocks_two_qubit_analytic_set():
    h_op, _, spectral, _, _ = two_qubit_setup()
    ops = [op.dense() for op in two_qubit_symmetry_operators().values()]
    blocks = verified_blocks(h_op, spectral, ops)
    assert len(blocks) == 4
    assert [len(b.members) for b in blocks] == [2, 2, 2, 2]
    assert np.allclose(sorted(b.omega for b in blocks), [-3.0, -1.0, 1.0, 3.0])


def test_verified_blocks_names_failing_operator():
    h_op, _, spectral, _, _ = two_qubit_setup()
    a1 = two_qubit_symmetry_operators(("A1",))["A1"].dense()
    bad = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)).astype(complex)
    with pytest.raises(DomainError) as err:
        verified_blocks(h_op, spectral, [a1, bad])
    assert str(err.value).startswith("operator 1:")


# ---------------------------------------------------------------------------
# Gram machinery and Mazur weights

def test_block_gram_eigenpair_members_closed_form():
    # eigenpair operators |E_m><E_n| have a diagonal Gram p_n and
    # correlators p_n O_mn
    _, _, spectral, ens, o_eig = two_qubit_setup()
    members = []
    for m, n in ((2, 1), (3, 2)):
        op = np.zeros((4, 4), dtype=complex)
        op[m, n] = 1.0
        members.append(op)
    gram, corr = block_gram(OperatorBlock(1.0, tuple(members)), ens, o_eig)
    assert np.allclose(gram, np.diag(ens.weights[[1, 2]]))
    assert np.allclose(corr, ens.weights[[1, 2]] * o_eig[[2, 3], [1, 2]])
    with pytest.raises(DomainError):
        block_gram(trivial_complete_set(spectral), ens, o_eig)


def test_mazur_weight_matches_dense_trace_oracle():
    h_op, gen, spectral, ens, o_eig = two_qubit_setup(beta=1.0)
    a1 = two_qubit_symmetry_operators(("A1",))["A1"].dense()
    a1_eig = spectral.to_eigenbasis(a1)
    block = OperatorBlock(-3.0, (a1_eig,))
    got = mazur_weight(block, ens, o_eig)

    rho = thermal_state(h_op, 1.0)
    overlap = np.trace(rho @ a1.conj().T @ gen)
    norm = np.trace(rho @ a1.conj().T @ a1).real
    assert math.isclose(got, abs(overlap) ** 2 / norm, rel_tol=1e-12)
    # one block, not a symmetry set: a pair set or a list is refused
    for wrong in (trivial_complete_set(spectral), [block]):
        with pytest.raises(DomainError, match="mazur_weight takes an OperatorBlock"):
            mazur_weight(wrong, ens, o_eig)


def test_mazur_weight_invariant_under_recombination():
    h_op, _, spectral, ens, o_eig = two_qubit_setup()
    ops = two_qubit_symmetry_operators(("A2", "B2"))
    a = spectral.to_eigenbasis(ops["A2"].dense())
    b = spectral.to_eigenbasis(ops["B2"].dense())
    direct = mazur_weight(OperatorBlock(3.0, (a, b)), ens, o_eig)
    mixed = mazur_weight(OperatorBlock(3.0, (a + b, a - b)), ens, o_eig)
    assert math.isclose(direct, mixed, rel_tol=1e-10, abs_tol=1e-12)


def test_mazur_weight_tolerates_dependent_members():
    h_op, _, spectral, ens, o_eig = two_qubit_setup()
    a = spectral.to_eigenbasis(two_qubit_symmetry_operators(("A2",))["A2"].dense())
    single = mazur_weight(OperatorBlock(3.0, (a,)), ens, o_eig)
    doubled = mazur_weight(OperatorBlock(3.0, (a, 2.0 * a)), ens, o_eig)
    assert math.isclose(single, doubled, rel_tol=1e-10, abs_tol=1e-12)


def test_mazur_weight_grows_with_members():
    # adding a member can only grow the projection
    h_op, _, spectral, ens, o_eig = two_qubit_setup()
    ops = two_qubit_symmetry_operators(("A2", "B2"))
    a = spectral.to_eigenbasis(ops["A2"].dense())
    b = spectral.to_eigenbasis(ops["B2"].dense())
    one = mazur_weight(OperatorBlock(3.0, (a,)), ens, o_eig)
    two = mazur_weight(OperatorBlock(3.0, (a, b)), ens, o_eig)
    assert two >= one - 1e-12


def test_mazur_weight_zero_thermal_norm():
    spectral = diagonalize(np.diag([0.0, 1.0]))
    ens = gibbs_weights(spectral, math.inf)
    # supported entirely on the unoccupied excited level
    a = np.array([[0, 0], [0, 1]], dtype=complex)
    assert mazur_weight(OperatorBlock(2.0, (a,)), ens, np.eye(2)) == 0.0


def test_conserved_identity_gives_mean_squared():
    _, _, spectral, ens, o_eig = two_qubit_setup()
    d0 = mazur_weight(OperatorBlock(0.0, (np.eye(4),)), ens, o_eig)
    mean = float(np.dot(ens.weights, np.real(np.diagonal(o_eig))))
    assert math.isclose(d0, mean**2, rel_tol=1e-12, abs_tol=1e-15)


def test_conserved_projector_set_matches_closed_form(rng):
    spectral = diagonalize(random_hermitian(rng, 5))
    ens = gibbs_weights(spectral, 0.8)
    o_eig = spectral.to_eigenbasis(random_hermitian(rng, 5))
    projectors = [np.diag(row).astype(complex) for row in np.eye(5)]
    d0 = mazur_weight(OperatorBlock(0.0, tuple(projectors)), ens, o_eig)
    assert math.isclose(d0, projector_mazur_weight(ens, o_eig), rel_tol=1e-12)


def test_eigenbasis_block_operators_read_as_their_dense_matrices():
    model = preset("chain", sites=6)
    spectral, pairs, h = solve_preset(model)
    ens = gibbs_weights(spectral, 1.0)
    flip = SparseOperator.from_strings([PauliString(1.0 - 0.5j, ((1, "+"), (2, "-")))], 6)
    ops = [preset_operators(model)[1], flip, h]
    blocks = [spectral.to_eigenblocks(op) for op in ops]
    entries = [block.entries() for block in blocks]
    dense = [spectral.to_eigenbasis(op) for op in ops]
    got, want = (mazur_weight(OperatorBlock(0.0, tuple(m)), ens, pairs) for m in (entries, dense))
    assert math.isclose(got, want, rel_tol=1e-12)
    total_z = spectral.to_eigenblocks(preset_operators(preset("chain", sites=6,
                                                              generator="uniform-z"))[1])
    got, want = (mazur_weight(OperatorBlock(0.0, (z, hh)), ens, pairs)
                 for z, hh in ((total_z.entries(), entries[2]), (total_z.dense(), dense[2])))
    assert math.isclose(got, want, rel_tol=1e-12)
    for block, mat in zip(blocks, dense):
        assert abs(thermal_expectation(block, ens) - thermal_expectation(mat, ens)) <= 1e-12
    # entry and dense members mix; members of two dimensions do not, and a
    # BlockOperator is a member only as its entries
    mixed = mazur_weight(OperatorBlock(0.0, (entries[0], dense[1])), ens, pairs)
    assert math.isclose(mixed, mazur_weight(OperatorBlock(0.0, dense[:2]), ens, pairs),
                        rel_tol=1e-12)
    with pytest.raises(DomainError, match="one dimension"):
        OperatorBlock(0.0, (entries[0], np.eye(4)))
    with pytest.raises(DomainError, match="member 0 must be a matrix"):
        OperatorBlock(0.0, (blocks[0],))
    # a block's frequency orders the set and is matched to comb teeth
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="frequency must be finite"):
            OperatorBlock(bad, dense[:1])


@pytest.mark.parametrize("bad", ["x", None, object(), np.zeros(3)])
def test_a_non_operator_is_a_domain_error(bad):
    _, _, spectral, ens, o_eig = two_qubit_setup()
    with pytest.raises(DomainError):
        OperatorBlock(0.0, (bad,))
    with pytest.raises(DomainError):
        thermal_expectation(bad, ens)


def assert_block_gram_is_the_oracle(spectral, site_members, o_site, beta):
    """block_gram, _gram_floor and _local_cap of eigenbasis members against
    the dense oracles on the same eigenbasis matrices."""
    ens = gibbs_weights(spectral, beta)
    p = ens.weights
    o_dense = spectral.to_eigenbasis(o_site)
    pairs = trivial_complete_set(spectral, op_eig=spectral.to_eigenblocks(o_site))
    block = OperatorBlock(1.0, tuple(spectral.to_eigenblocks(m).entries() for m in site_members))
    dense = [spectral.to_eigenbasis(m) for m in site_members]
    gram, corr = block_gram(block, ens, pairs)
    want_gram, want_corr, want_floor = block_gram_oracle(dense, p, o_dense)
    assert np.abs(gram - want_gram).max() <= 1e-12 * np.abs(want_gram).max()
    # |<A_j^dag O>|^2 <= <A_j^dag A_j> <O^2>, the scale of corr's rounding
    o_sq = float(np.einsum("mn,mn,n->", o_dense.conj(), o_dense, p).real)
    scale = math.sqrt(float(np.abs(np.diag(want_gram)).max()) * o_sq)
    assert np.abs(corr - want_corr).max() <= 1e-12 * scale
    assert math.isclose(block._gram_floor, want_floor, rel_tol=1e-12)
    if want_gram[0, 0].real > 0.0:
        want_cap = local_cap_oracle(2, dense[0], o_dense, p)
        assert _local_cap({0, 1}, block.members[0], pairs, ens) == want_cap
    else:
        with pytest.raises(DomainError, match="vanishes"):
            _local_cap({0, 1}, block.members[0], pairs, ens)


@given(params=case, beta=st.sampled_from(BETAS), count=st.integers(1, 3))
def test_block_gram_on_planted_blocks_is_the_dense_oracle(params, beta, count):
    h, sets = block_case(**params)
    spectral = diagonalize(h)
    rng = np.random.default_rng(params["seed"])
    dim = h.shape[0]
    members = []
    for _ in range(count):
        # complex and non-Hermitian, each member with its own zero set pairs
        member = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for a in sets:
            for b in sets:
                if rng.random() < 0.5:
                    member[np.ix_(a, b)] = 0.0
        members.append(member)
    o = block_sparse_operator(rng, sets, params["is_complex"])
    assert_block_gram_is_the_oracle(spectral, members, o, beta)


@given(case=chain_case.filter(lambda c: c["sites"] <= 6), beta=st.sampled_from(BETAS))
def test_block_gram_on_parity_blocks_is_the_dense_oracle(case, beta):
    model = chain(case)
    spectral, _, _ = solve_preset(model)
    n, gen = case["sites"], preset_operators(model)[1]
    dim = 2**n
    rng = np.random.default_rng(case["seed"])
    scattered = np.zeros((dim, dim), dtype=complex)
    picks = rng.integers(dim, size=(2, 2 * dim))
    scattered[picks[0], picks[1]] = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
    # the scaled generator keeps its reflection parity and links half the
    # parity pairs, the lowering operator links every parity pair of
    # neighbouring sectors, the scattered entries link random pairs
    lower = SparseOperator.from_strings([PauliString(1.0 + 2.0j, ((0, "-"),))], n)
    members = [(0.3 - 1.0j) * gen.dense(), lower, scattered]
    assert_block_gram_is_the_oracle(spectral, members, gen, beta)


# ---------------------------------------------------------------------------
# locality cap

def test_local_cap_two_site_symmetry_holds():
    h_op, gen, spectral, ens, _ = two_qubit_setup()
    a1 = two_qubit_symmetry_operators(("A1",))["A1"].dense()
    cap, holds = local_cap(a1, gen, ens)
    assert cap == 1.0 and holds


def test_local_cap_single_site_violation():
    # sigma^x on one site of the correlated pair overlaps the generator
    # beyond the single-site cap: locality alone does not bound the weight
    h_op, gen, spectral, ens, _ = two_qubit_setup(beta=1.0)
    sx0 = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)).astype(complex)
    cap, holds = local_cap(sx0, gen, ens)
    assert cap == 0.25
    assert not holds


def test_local_cap_rejects_noncontiguous_support():
    h_op, gen = dense_preset("chain", sites=3)
    spectral = diagonalize(h_op)
    ens = gibbs_weights(spectral, 1.0)
    gap = SparseOperator.from_strings([PauliString(1.0, ((0, "z"), (2, "z")))], 3).dense()
    with pytest.raises(DomainError) as err:
        local_cap(gap, gen, ens)
    assert "not contiguous" in str(err.value)


def test_local_cap_rejects_scalars_and_bare_ensembles():
    h_op, gen, spectral, ens, _ = two_qubit_setup()
    with pytest.raises(DomainError):
        local_cap(np.eye(4), gen, ens)
    bare = gibbs_weights(spectral.energies, 1.0)
    with pytest.raises(DomainError):
        local_cap(np.kron(SZ, np.eye(2)), gen, bare)


def test_local_cap_rejects_non_power_of_two(rng):
    spectral = diagonalize(random_hermitian(rng, 3))
    ens = gibbs_weights(spectral, 1.0)
    with pytest.raises(DomainError):
        local_cap(np.eye(3), np.eye(3), ens)


def test_local_cap_vanishing_norm():
    h_op, gen = dense_preset("two-qubit", field=1.5)
    spectral = diagonalize(h_op)
    ens = gibbs_weights(spectral, math.inf)
    minus = np.array([[0, 0], [1, 0]], dtype=complex)
    both_down = np.kron(minus, minus)  # annihilates the polarized ground state
    with pytest.raises(DomainError) as err:
        local_cap(both_down, gen, ens)
    assert "vanishes" in str(err.value)

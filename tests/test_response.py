"""Frequency combs: sum rules, detailed balance, and the Mazur bound check."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfidyn import (
    BoundCheckReport,
    DomainError,
    FrequencyComb,
    NumericError,
    OperatorBlock,
    PairPartition,
    comb_bound_check,
    diagonalize,
    gibbs_weights,
    response_comb,
    structure_factor_comb,
    thermal_expectation,
    trivial_complete_set,
    verified_blocks,
)
from qfidyn.dynsym import default_omega_tol
from qfidyn.models import preset, preset_operators, two_qubit_symmetry_operators
from qfidyn.operators import _keys
from qfidyn.response import _weights_at
from oracles import (
    comb_weight_reference,
    correlation_oracle,
    eigenvector_matrix,
    random_hermitian,
    thermal_state,
)


def random_setup(rng, dim=8, beta=1.0):
    h = random_hermitian(rng, dim)
    spectral = diagonalize(h)
    ens = gibbs_weights(spectral, beta)
    o_eig = spectral.to_eigenbasis(random_hermitian(rng, dim))
    return h, spectral, ens, o_eig


# ---------------------------------------------------------------------------
# response comb

def test_response_sum_rule(rng):
    _, spectral, ens, o_eig = random_setup(rng)
    comb = response_comb(o_eig, ens)
    second_moment = thermal_expectation(o_eig @ o_eig, ens)
    assert math.isclose(comb.total(), second_moment, rel_tol=1e-12)


def test_response_weights_nonnegative(rng):
    _, _, ens, o_eig = random_setup(rng)
    comb = response_comb(o_eig, ens)
    assert comb.weights.real.min() >= 0.0
    assert comb.kind == "response"


def test_response_comb_keeps_a_zero_weight_omega_zero_tooth():
    # a non-degenerate spectrum and an exactly zero diagonal: the omega = 0
    # cluster holds only the diagonal pairs, so its weight is exactly 0, and
    # the tooth must stay, as in the structure comb
    ens = gibbs_weights(np.array([0.0, 1.0, 3.0]), 0.7)
    o_eig = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 2.0], [0.5, 2.0, 0.0]])
    comb = response_comb(o_eig, ens)
    zero = np.flatnonzero(comb.omegas == 0.0)
    assert zero.size == 1
    assert comb.weights[zero[0]] == 0.0
    assert comb.omegas.size == 7  # every gap of the three levels, both signs, plus 0


def test_detailed_balance(rng):
    _, spectral, ens, o_eig = random_setup(rng, dim=6, beta=0.9)
    comb = response_comb(o_eig, ens)
    tol = default_omega_tol(spectral.energies)
    for omega, weight in zip(comb.omegas, comb.weights):
        if omega <= 0:
            continue
        mirrored = comb_weight_reference(comb.omegas, comb.weights, -omega, tol)
        assert math.isclose(mirrored, math.exp(-0.9 * omega) * weight.real, rel_tol=1e-9)


def test_comb_fourier_transform_matches_time_oracle(rng):
    h, spectral, ens, o_eig = random_setup(rng, dim=8, beta=1.0)
    comb = response_comb(o_eig, ens)
    rho = thermal_state(h, 1.0)
    v = eigenvector_matrix(spectral)
    o_site = v @ o_eig @ v.conj().T
    for t in (0.0, 0.1, 0.7, 1.3):
        model = complex(np.sum(comb.weights * np.exp(-1j * comb.omegas * t)))
        direct = correlation_oracle(h, rho, o_site, t)
        # clustering replaces exact gaps by representatives, hence the loose tol
        assert abs(model - direct) < 1e-6


# ---------------------------------------------------------------------------
# structure factor

def test_structure_factor_total_is_twice_connected_variance(rng):
    _, _, ens, o_eig = random_setup(rng)
    s = structure_factor_comb(o_eig, ens)
    second = thermal_expectation(o_eig @ o_eig, ens)
    mean = thermal_expectation(o_eig, ens)
    assert math.isclose(s.total(), 2.0 * (second - mean**2), rel_tol=1e-10)


def test_structure_factor_is_mirror_symmetric(rng):
    _, _, ens, o_eig = random_setup(rng)
    s = structure_factor_comb(o_eig, ens)
    assert np.array_equal(s.omegas, -s.omegas[::-1])
    assert np.allclose(s.weights, s.weights[::-1])
    zero = comb_weight_reference(s.omegas, s.weights, 0.0, 0.0)
    assert zero >= 0.0


def test_combs_cluster_a_dense_operator_as_its_pair_set(rng):
    # no comb takes a tolerance of its own: a dense operator gets the
    # default clusters, the ones its weighted pair set is built with
    _, spectral, ens, o_eig = random_setup(rng)
    pairs = trivial_complete_set(spectral, op_eig=o_eig)
    for comb in (response_comb, structure_factor_comb):
        dense, paired = comb(o_eig, ens), comb(pairs, ens)
        assert np.array_equal(dense.omegas, paired.omegas)
        assert np.array_equal(dense.weights, paired.weights)
        with pytest.raises(TypeError):
            comb(o_eig, ens, omega_tol=1e-3)


def test_comb_rejects_unknown_kind():
    with pytest.raises(DomainError):
        FrequencyComb(np.array([0.0]), np.array([1.0]), "spectral")
    # the susceptibility is tanh(beta omega / 2) times the structure weights,
    # not a comb kind of its own
    with pytest.raises(DomainError):
        FrequencyComb(np.array([0.0]), np.array([0.0]), "susceptibility")
    # no comb has complex weights, so there is no cross kind
    with pytest.raises(DomainError):
        FrequencyComb(np.array([0.0]), np.array([1.0j]), "cross")


def test_comb_rejects_unsorted_frequencies():
    with pytest.raises(DomainError):
        FrequencyComb(np.array([1.0, 1.0]), np.array([1.0, 1.0]), "response")


def test_comb_frequencies_near_the_float_limit_are_ordered_without_overflow():
    # -1e308 and 1e308 are finite, their difference is not
    comb = FrequencyComb([-1e308, 1e308], [1.0, 1.0], "response")
    assert comb.omegas.tolist() == [-1e308, 1e308]
    with pytest.raises(DomainError, match="strictly increasing"):
        FrequencyComb([1e308, -1e308], [1.0, 1.0], "response")


def test_comb_rejects_complex_or_negative_response_weights():
    with pytest.raises(NumericError):
        FrequencyComb(np.array([1.0]), np.array([1.0 + 1e-3j]), "response")
    with pytest.raises(NumericError):
        FrequencyComb(np.array([1.0]), np.array([-1e-3]), "response")


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True)


@given(
    teeth=st.lists(finite, max_size=12, unique=True),
    queries=st.lists(finite, max_size=12),
    tol=st.sampled_from([0.0, 1e-12, 0.1, 1.0, 1e4]),
)
def test_one_search_matches_every_frequency_as_argmin_does(teeth, queries, tol):
    # the teeth, the midpoint of each neighbouring pair, frequencies below
    # and above every tooth and arbitrary ones: one searchsorted must pick
    # the tooth np.argmin over every tooth picks, ties to the lower one
    omegas = np.sort(np.array(teeth, dtype=float))
    comb = FrequencyComb(omegas, np.arange(1.0, omegas.size + 1.0), "response")
    mids = (omegas[:-1] + omegas[1:]) / 2.0
    ends = [omegas[0] - 1.0, omegas[-1] + 1.0] if omegas.size else [0.0]
    at = np.concatenate([omegas, mids, ends, queries])
    got = _weights_at(comb, at, tol)
    want = [comb_weight_reference(comb.omegas, comb.weights, w, tol) for w in at.tolist()]
    assert got.tolist() == want


def test_one_search_follows_argmin_through_rounding_ties():
    # 1 - 5 and (1 + 2**-52) - 5 both round to -4: argmin takes the first
    # tooth, not the nearer neighbour, and so must the search
    comb = FrequencyComb(np.array([1.0, 1.0 + 2.0**-52, 10.0]), np.array([1.0, 2.0, 3.0]), "response")
    assert comb_weight_reference(comb.omegas, comb.weights, 5.0, 4.0) == 1.0
    assert _weights_at(comb, np.array([5.0]), 4.0).tolist() == [1.0]
    # an exact midpoint goes to the lower tooth; an empty comb gives 0
    comb = FrequencyComb(np.array([0.0, 2.0]), np.array([1.0, 2.0]), "response")
    assert _weights_at(comb, np.array([1.0]), 1.0).tolist() == [1.0]
    empty = FrequencyComb(np.zeros(0), np.zeros(0), "response")
    assert _weights_at(empty, np.array([0.0, 1.0]), 1.0).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# Mazur bound certification

def test_bound_check_equality_on_complete_set(rng):
    _, spectral, ens, o_eig = random_setup(rng)
    comb = response_comb(o_eig, ens)
    report = comb_bound_check(comb, trivial_complete_set(spectral), ens, o_eig)
    assert isinstance(report, BoundCheckReport)
    assert report.equality
    assert max((-margin for *_, margin in report.rows), default=0.0) <= 1e-12
    worst = max(abs(m) for *_, m in report.rows)
    assert worst <= 1e-10 * max(1.0, comb.total())


def test_bound_check_strict_subset_margins():
    h_op, gen = (op.dense() for op in preset_operators(preset("two-qubit")))
    spectral = diagonalize(h_op)
    ens = gibbs_weights(spectral, 1.0)
    o_eig = spectral.to_eigenbasis(gen)
    ops = [op.dense() for op in two_qubit_symmetry_operators(("A2", "A3")).values()]
    blocks = verified_blocks(h_op, spectral, ops)
    comb = response_comb(o_eig, ens)
    report = comb_bound_check(comb, blocks, ens, o_eig)
    assert not report.equality
    assert all(margin >= -1e-12 for *_, margin in report.rows)


def test_bound_check_rejects_wrong_comb_kind(rng):
    _, spectral, ens, o_eig = random_setup(rng)
    s = structure_factor_comb(o_eig, ens)
    with pytest.raises(DomainError):
        comb_bound_check(s, trivial_complete_set(spectral), ens, o_eig)


def test_bound_check_flags_inflated_block(rng):
    # one block holding eigenpair operators from two clusters, labelled at
    # one of them, carries more Mazur weight than that comb entry
    _, spectral, ens, o_eig = random_setup(rng, dim=4)
    part = trivial_complete_set(spectral)
    gaps = spectral.energies[:, None] - spectral.energies[None, :]
    (m1, n1), (m2, n2) = np.argwhere(gaps > 0)[:2]
    # the cluster of (m, n) mirrors that of its pair (n, m) with n < m
    k = part.omegas.size
    keys = _keys(part.rows, part.cols, part.dim)
    cluster = {(m, n): k - 1 - part.labels[np.searchsorted(keys, n * 4 + m)] for m, n in
               ((m1, n1), (m2, n2))}
    assert cluster[m1, n1] != cluster[m2, n2]
    members = []
    for m, n in ((m1, n1), (m2, n2)):
        op = np.zeros((4, 4), dtype=complex)
        op[m, n] = 1.0
        members.append(op)
    mixed = OperatorBlock(part.omegas[cluster[m1, n1]], tuple(members))
    comb = response_comb(o_eig, ens)
    with pytest.raises(NumericError) as err:
        comb_bound_check(comb, [mixed], ens, o_eig)
    assert "violates" in str(err.value)


def test_bound_check_equality_needs_one_complete_partition(rng):
    _, spectral, ens, o_eig = random_setup(rng, dim=5)
    part = trivial_complete_set(spectral)
    comb = response_comb(o_eig, ens)
    assert comb_bound_check(comb, part, ens, o_eig).equality
    with pytest.raises(DomainError, match="got PairPartition"):
        comb_bound_check(comb, [part], ens, o_eig)
    kept = part.labels != part.labels.min()
    partial = PairPartition(
        part.omegas, part.rows[kept], part.cols[kept], part.labels[kept], part.dim
    )
    assert not comb_bound_check(comb, partial, ens, o_eig).equality
    # an explicit block never certifies equality, even one that is exact
    gaps = spectral.energies[:, None] - spectral.energies[None, :]
    op = np.zeros((5, 5), dtype=complex)
    op[4, 0] = 1.0
    exact = OperatorBlock(gaps[4, 0], (op,))
    assert not comb_bound_check(comb, [exact], ens, o_eig).equality
    with pytest.raises(DomainError):
        comb_bound_check(comb, [42], ens, o_eig)


def test_bound_check_on_a_generic_spectrum_gives_the_reference_rows(rng):
    # generic H and O at dim 256: the set of all pairs has 65,261 clusters.
    # O is zero on about half the pairs, so the comb lacks some of those
    # frequencies and they read g = 0.  The rows are checked against the
    # per-frequency argmin rule every 16th row: that rule scans every tooth
    # for each row, which over all 65,261 rows takes seconds.
    _, spectral, ens, o_eig = random_setup(rng, dim=256)
    keep = np.triu(rng.random((256, 256)) < 0.5)
    o_eig = np.where(keep | keep.T, o_eig, 0.0)
    part = trivial_complete_set(spectral)
    comb = response_comb(o_eig, ens)
    report = comb_bound_check(comb, part, ens, o_eig)
    assert [row[0] for row in report.rows] == part.omegas.tolist()
    assert comb.omegas.size < part.omegas.size
    tol = default_omega_tol(spectral.energies)
    for omega, g, d_k, margin in report.rows[::16]:
        assert g == comb_weight_reference(comb.omegas, comb.weights, omega, tol)
        assert margin == g - d_k

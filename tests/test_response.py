"""Frequency combs: sum rules, detailed balance, and the Mazur bound check."""

import math

import numpy as np
import pytest

from qfidyn import (
    BoundCheckReport,
    DomainError,
    FrequencyComb,
    NumericError,
    OperatorBlock,
    PairPartition,
    comb_bound_check,
    diagonalize,
    eth_zero_frequency_correction,
    gibbs_weights,
    response_comb,
    structure_factor_comb,
    susceptibility_comb,
    thermal_expectation,
    trivial_complete_set,
    verified_blocks,
)
from qfidyn.dynsym import default_omega_tol
from qfidyn.models import preset, preset_operators, two_qubit_symmetry_operators
from oracles import correlation_oracle, eigenvector_matrix, random_hermitian, thermal_state


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
    assert comb.size == 7  # every gap of the three levels, both signs, plus 0


def test_detailed_balance(rng):
    _, spectral, ens, o_eig = random_setup(rng, dim=6, beta=0.9)
    comb = response_comb(o_eig, ens)
    tol = default_omega_tol(spectral.energies)
    for omega, weight in zip(comb.omegas, comb.weights):
        if omega <= 0:
            continue
        mirrored = comb.weight_at(-omega, tol=tol)
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
# structure factor and susceptibility

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
    zero = s.weight_at(0.0)
    assert zero >= 0.0


def test_susceptibility_is_odd_and_zero_at_origin(rng):
    _, spectral, ens, o_eig = random_setup(rng, beta=1.7)
    x = susceptibility_comb(o_eig, ens)
    assert x.weight_at(0.0) == 0.0
    tol = default_omega_tol(spectral.energies)
    for omega, weight in zip(x.omegas, x.weights):
        assert math.isclose(
            x.weight_at(-omega, tol=tol), -weight.real, rel_tol=1e-9, abs_tol=1e-12
        )
    # omega > 0 entries carry the sign of tanh
    positive = x.omegas > 0
    assert np.all(x.weights[positive].real >= 0.0)


def test_susceptibility_vanishes_at_beta_zero(rng):
    spectral = diagonalize(random_hermitian(rng, 8))
    ens = gibbs_weights(spectral, 0.0)
    x = susceptibility_comb(spectral.to_eigenbasis(random_hermitian(rng, 8)), ens)
    assert np.abs(x.weights).max() == 0.0


def test_combs_cluster_a_dense_operator_as_its_pair_set(rng):
    # no comb takes a tolerance of its own: a dense operator gets the
    # default clusters, the ones its weighted pair set is built with
    _, spectral, ens, o_eig = random_setup(rng)
    pairs = trivial_complete_set(spectral, op_eig=o_eig)
    for comb in (response_comb, structure_factor_comb, susceptibility_comb):
        dense, paired = comb(o_eig, ens), comb(pairs, ens)
        assert np.array_equal(dense.omegas, paired.omegas)
        assert np.array_equal(dense.weights, paired.weights)
    calls = (
        (response_comb, (o_eig, ens)),
        (structure_factor_comb, (o_eig, ens)),
        (susceptibility_comb, (o_eig, ens)),
        (eth_zero_frequency_correction, (o_eig, ens)),
    )
    for fn, args in calls:
        with pytest.raises(TypeError):
            fn(*args, omega_tol=1e-3)


def test_comb_rejects_unknown_kind():
    with pytest.raises(DomainError):
        FrequencyComb(np.array([0.0]), np.array([1.0]), "spectral")
    # no comb has complex weights, so there is no cross kind
    with pytest.raises(DomainError):
        FrequencyComb(np.array([0.0]), np.array([1.0j]), "cross")


def test_comb_rejects_unsorted_frequencies():
    with pytest.raises(DomainError):
        FrequencyComb(np.array([1.0, 1.0]), np.array([1.0, 1.0]), "response")


def test_comb_rejects_complex_or_negative_response_weights():
    with pytest.raises(NumericError):
        FrequencyComb(np.array([1.0]), np.array([1.0 + 1e-3j]), "response")
    with pytest.raises(NumericError):
        FrequencyComb(np.array([1.0]), np.array([-1e-3]), "response")


def test_comb_weight_at_and_prune():
    comb = FrequencyComb(np.array([-1.0, 1.0]), np.array([0.5, 2.0]), "response")
    assert comb.weight_at(1.0) == 2.0
    assert comb.weight_at(0.9) == 0.0
    assert comb.weight_at(0.9, tol=0.2) == 2.0


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
    cluster = {(m, n): k - 1 - part.labels[np.searchsorted(part.keys, n * 4 + m)] for m, n in
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
    assert comb_bound_check(comb, [part], ens, o_eig).equality
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

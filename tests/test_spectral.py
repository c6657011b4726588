"""Diagonalization certificates and Gibbs weight construction."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfidyn import (
    DomainError,
    NumericError,
    PauliString,
    SparseOperator,
    SpectralDecomposition,
    ThermalEnsemble,
    diagonalize,
    gibbs_weights,
    thermal_expectation,
)
from qfidyn.models import preset, preset_operators
from qfidyn.metrology import qfi_spectral
from oracles import (
    degeneracy_groups,
    eigenvector_matrix,
    random_hermitian,
    thermal_state,
    xx_hamiltonian_oracle,
)


def test_diagonalize_sorts_and_reconstructs():
    spectral = diagonalize(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(spectral.energies, [1.0, 2.0, 3.0])
    h_eig = spectral.to_eigenbasis(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(h_eig, np.diag(spectral.energies), atol=1e-12)


def test_diagonalize_rejects_nonsquare():
    with pytest.raises(DomainError):
        diagonalize(np.ones((2, 3)))


def test_diagonalize_rejects_empty():
    with pytest.raises(DomainError):
        diagonalize(np.zeros((0, 0)))


def test_degeneracy_groups():
    spectral = diagonalize(np.diag([1.0, 1.0, 2.0]))
    groups = degeneracy_groups(spectral.energies, spectral.energy_tol)
    assert groups == [(0, 2), (2, 3)]
    assert [stop - start for start, stop in groups] == [2, 1]


def test_decomposition_validates_inputs():
    with pytest.raises(DomainError):
        SpectralDecomposition(np.array([2.0, 1.0]), np.eye(2))
    with pytest.raises(DomainError):
        SpectralDecomposition(np.array([1.0, 2.0]), np.eye(3))


def test_energies_near_the_float_limit_are_ordered_without_overflow():
    # E = -+1.414e308 are finite, but their difference is not: the order
    # check compares neighbours instead of subtracting them
    spectral = diagonalize(np.array([[1e308, 1e308], [1e308, -1e308]]))
    assert spectral.energies[0] < 0.0 < spectral.energies[1] < math.inf
    with pytest.raises(DomainError, match="ascending"):
        SpectralDecomposition(spectral.energies[::-1], np.eye(2))


def _chain_with_dm_term(n):
    """The n-site XX chain plus a Dzyaloshinskii-Moriya bond x0 y1 - y0 x1,
    which is Hermitian and purely imaginary."""
    h = xx_hamiltonian_oracle(n, 1.0, 0.3, "open")
    dm = SparseOperator.from_strings(
        [PauliString(0.4, ((0, "x"), (1, "y"))), PauliString(-0.4, ((0, "y"), (1, "x")))],
        n,
        hermitian=True,
    ).dense()
    return h + dm


def test_real_hamiltonian_gives_real_vectors():
    h = xx_hamiltonian_oracle(4, 1.0, 0.3, "open")
    assert h.dtype == np.complex128 and not h.imag.any()
    spectral = diagonalize(h)
    assert eigenvector_matrix(spectral).dtype == np.float64
    o_eig = spectral.to_eigenbasis(preset_operators(preset("chain", sites=4))[1])
    assert o_eig.dtype == np.float64
    # an operator with an imaginary part stays complex on real vectors
    y_eig = spectral.to_eigenbasis(
        SparseOperator.from_strings([PauliString(1.0, ((2, "y"),))], 4).dense()
    )
    assert y_eig.dtype == np.complex128 and np.abs(y_eig.imag).max() > 0.1
    v = eigenvector_matrix(spectral)
    assert np.allclose(v @ np.diag(spectral.energies) @ v.T, h, atol=1e-12)


@pytest.mark.parametrize("beta", [0.3, 2.0])
def test_complex_hamiltonian_stays_complex_and_matches_oracle(beta):
    h = _chain_with_dm_term(4)
    assert np.abs(h.imag).max() > 0.1
    spectral = diagonalize(h)
    assert eigenvector_matrix(spectral).dtype == np.complex128
    ens = gibbs_weights(spectral, beta)
    rho_eig = spectral.to_eigenbasis(thermal_state(h, beta))
    assert rho_eig.dtype == np.complex128
    assert np.allclose(rho_eig, np.diag(ens.weights), atol=1e-12)


@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize(
    "perturbation, message", [("noise", "not unitary"), ("reversed columns", "reconstruct")]
)
def test_certificates_catch_bad_eigenvectors(monkeypatch, complex_input, perturbation, message):
    h = _chain_with_dm_term(3) if complex_input else xx_hamiltonian_oracle(3, 1.0, 0.0, "open")
    exact_eigh = np.linalg.eigh
    seen = []

    def bad_eigh(mat):
        seen.append(mat.dtype)
        energies, vectors = exact_eigh(mat)
        if perturbation == "noise":
            vectors = vectors + 1e-6  # no longer unitary
        else:
            vectors = vectors[:, ::-1]  # unitary, but pairs vectors with wrong energies
        return energies, vectors

    monkeypatch.setattr(np.linalg, "eigh", bad_eigh)
    with pytest.raises(NumericError, match=message):
        diagonalize(h)
    # both chains conserve total S^z (sectors of 1, 3, 3 and 1 states); the
    # XX chain commutes with the site reflection too, so each 3-state
    # sector is solved as parity blocks of 2 and 1 states, while the
    # Dzyaloshinskii-Moriya bond breaks the reflection: six solves or four
    solves = [np.float64] * 6 if not complex_input else [np.complex128] * 4
    assert seen == solves


def test_to_eigenbasis_dimension_check(rng):
    spectral = diagonalize(random_hermitian(rng, 4))
    with pytest.raises(DomainError):
        spectral.to_eigenbasis(np.eye(5))


# ---------------------------------------------------------------------------
# Gibbs weights

@pytest.mark.parametrize("sites", [2, 5])
def test_block_operator_entries_are_the_dense_eigenbasis_entries(sites):
    # the generator links half the parity pairs of neighbouring sectors, the
    # lowering operator every parity pair of them, the zero operator none
    h, gen = preset_operators(preset("chain", sites=sites))
    spectral = diagonalize(h)
    lower = SparseOperator.from_strings([PauliString(1.0 + 2.0j, ((0, "-"),))], sites)
    dim = 2**sites
    e = spectral.energies
    gaps = e[:, None] - e[None, :]
    for op in (gen, lower, SparseOperator.from_dense(np.zeros((dim, dim)))):
        blocks = spectral.to_eigenblocks(op)
        dense = spectral.to_eigenbasis(op)
        entries = blocks.entries()
        assert entries.rows.dtype == entries.cols.dtype == np.int32
        want = SparseOperator.from_dense(dense)
        for got, ref in zip((entries.rows, entries.cols, entries.values),
                            (want.rows, want.cols, want.values)):
            assert np.array_equal(got, ref)
        # a shell keeps the entries whose gap lies within tol of omega
        for omega, tol in ((gaps.max() / 3.0, 0.5), (0.0, 1e-9), (-1.0, np.inf)):
            shell = blocks.entries((e, omega, tol))
            assert np.array_equal(shell.dense(),
                                  np.where(np.abs(gaps - omega) <= tol, dense, 0.0))


def test_weight_ratio_matches_boltzmann(rng):
    energies = np.sort(rng.normal(size=6))
    ens = gibbs_weights(energies, 0.7)
    # compare through logs so underflow cannot blur the ratio
    expected = -0.7 * (energies - energies[0])
    assert np.allclose(
        ens.log_weights - ens.log_weights[0], expected - expected[0], atol=1e-12
    )
    assert math.isclose(float(ens.weights.sum()), 1.0, abs_tol=1e-13)


def test_beta_zero_is_uniform():
    ens = gibbs_weights(np.array([0.0, 1.0, 5.0]), 0.0)
    assert np.allclose(ens.weights, 1.0 / 3.0)


def test_beta_inf_spreads_over_ground_group():
    ens = gibbs_weights(np.array([0.0, 1e-12, 1.0]), math.inf)
    assert np.allclose(ens.weights, [0.5, 0.5, 0.0])
    assert ens.log_weights[2] == -math.inf


def test_beta_inf_uses_decomposition_tolerance():
    spectral = diagonalize(np.diag([0.0, 2.0, 2.0, 5.0]))
    ens = gibbs_weights(spectral, math.inf)
    assert np.allclose(ens.weights, [1.0, 0.0, 0.0, 0.0])
    assert ens.spectral is spectral


def test_negative_beta_rejected():
    with pytest.raises(DomainError):
        gibbs_weights(np.array([0.0, 1.0]), -0.5)


def test_nan_beta_rejected():
    # a NaN beta once passed the sign check and gave NaN weights, so the
    # 6-site chain reported QFI 0.0 and a NaN bound marked saturated
    spectral = diagonalize(preset_operators(preset("chain", sites=6))[0])
    with pytest.raises(DomainError, match="beta"):
        gibbs_weights(spectral, math.nan)


def test_extreme_spectra_stay_finite():
    ens = gibbs_weights(np.array([0.0, 2000.0]), 10.0)
    assert ens.weights[0] == 1.0 and ens.weights[1] == 0.0
    assert ens.log_weights[1] == -20000.0
    assert np.all(np.isfinite(ens.log_weights[:1]))


def test_thermal_ensemble_validates_weights():
    e = np.array([0.0, 1.0])
    with pytest.raises(NumericError):
        ThermalEnsemble(1.0, e, np.array([0.9, 0.3]), np.log([0.9, 0.3]))
    with pytest.raises(DomainError):
        ThermalEnsemble(1.0, e, np.array([1.0]), np.array([0.0]))


@pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.nan, math.nan], [math.inf, 0.0]])
def test_thermal_ensemble_rejects_nonfinite_weights(weights):
    with pytest.raises(NumericError):
        ThermalEnsemble(1.0, np.array([0.0, 1.0]), np.array(weights), np.zeros(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_thermal_ensemble_rejects_nonfinite_energies(bad):
    with pytest.raises(DomainError, match="finite"):
        ThermalEnsemble(1.0, np.array([0.0, bad]), np.array([1.0, 0.0]), np.array([0.0, -math.inf]))


@pytest.mark.parametrize("beta", [0.0, 1.0, math.inf])
def test_gibbs_weights_freezes_its_own_arrays_in_place(beta):
    spectral = diagonalize(np.diag([0.0, 2.0, 2.0, 5.0]))
    ens = gibbs_weights(spectral, beta)
    assert ens.energies is spectral.energies
    assert not (ens.weights.flags.writeable or ens.log_weights.flags.writeable)
    # a bare energy vector is the caller's, so it is copied, not frozen
    energies = np.array([0.0, 1.0, 5.0])
    ens = gibbs_weights(energies, beta)
    assert energies.flags.writeable and not np.shares_memory(ens.energies, energies)
    assert not ens.energies.flags.writeable


def test_thermal_ensemble_copies_caller_arrays():
    arrays = np.array([0.0, 1.0]), np.array([0.75, 0.25]), np.log([0.75, 0.25])
    ens = ThermalEnsemble(1.0, *arrays)
    for given_arr, kept in zip(arrays, (ens.energies, ens.weights, ens.log_weights)):
        assert given_arr.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(given_arr, kept)
        np.testing.assert_array_equal(given_arr, kept)


@given(
    dim=st.integers(2, 8),
    beta=st.floats(0.0, 5.0),
    seed=st.integers(0, 10_000),
)
def test_weights_match_expm_oracle(dim, beta, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    spectral = diagonalize(h)
    ens = gibbs_weights(spectral, beta)
    rho_eig = spectral.to_eigenbasis(thermal_state(h, beta))
    assert np.allclose(np.real(np.diagonal(rho_eig)), ens.weights, atol=1e-12)


# ---------------------------------------------------------------------------
# expectations

def test_thermal_expectation_diagonal(rng):
    spectral = diagonalize(random_hermitian(rng, 5))
    ens = gibbs_weights(spectral, 1.3)
    diag = np.diag(rng.normal(size=5))
    expected = float(np.dot(ens.weights, np.diagonal(diag)))
    assert math.isclose(thermal_expectation(diag, ens), expected, rel_tol=1e-13)


def test_thermal_expectation_keeps_complex_values():
    ens = gibbs_weights(np.array([0.0, 1.0]), 1.0)
    val = thermal_expectation(np.diag([1j, 1j]), ens)
    assert isinstance(val, complex) and math.isclose(val.imag, 1.0)


def test_thermal_expectation_dimension_check():
    ens = gibbs_weights(np.array([0.0, 1.0]), 1.0)
    with pytest.raises(DomainError):
        thermal_expectation(np.eye(3), ens)


def test_non_finite_input_fails_the_certificates():
    # a NaN entry once passed both: diagonalize gave +-sqrt(2) for this
    # Hamiltonian, and qfi_spectral 0.854 for this generator
    with pytest.raises(DomainError, match="hamiltonian must be finite"):
        diagonalize(np.array([[np.nan, 1.0], [1.0, 0.0]]))
    ens = gibbs_weights(diagonalize(np.diag([0.0, 1.0])), 1.0)
    with pytest.raises(DomainError, match="operator must be finite"):
        qfi_spectral(np.array([[0.0, 1.0], [np.nan, 0.0]]), ens)
    # finite entries whose energies overflow leave no scale to certify against
    with pytest.raises(NumericError, match="does not reconstruct"):
        diagonalize(np.full((2, 2), 1.7e308))

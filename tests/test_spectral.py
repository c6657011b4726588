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
    SpectralDecomposition,
    SpinChainSpec,
    ThermalEnsemble,
    build_xx_hamiltonian,
    diagonalize,
    gibbs_weights,
    local_generator,
    operator_from_strings,
    thermal_expectation,
)
from oracles import random_hermitian, thermal_state


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
    assert spectral.degeneracy_groups() == [(0, 2), (2, 3)]
    assert spectral.summary()["degeneracies"] == [2, 1]


def test_decomposition_validates_inputs():
    with pytest.raises(DomainError):
        SpectralDecomposition(np.array([2.0, 1.0]), np.eye(2))
    with pytest.raises(DomainError):
        SpectralDecomposition(np.array([1.0, 2.0]), np.eye(3))


def _chain_with_dm_term(n):
    """The n-site XX chain plus a Dzyaloshinskii-Moriya bond x0 y1 - y0 x1,
    which is Hermitian and purely imaginary."""
    h = build_xx_hamiltonian(SpinChainSpec(n, 1.0, 0.3)).mat
    dm = operator_from_strings(
        [PauliString(0.4, ((0, "x"), (1, "y"))), PauliString(-0.4, ((0, "y"), (1, "x")))],
        n,
        hermitian=True,
    ).mat
    return h + dm


def test_real_hamiltonian_gives_real_vectors():
    h = build_xx_hamiltonian(SpinChainSpec(4, 1.0, 0.3)).mat
    assert h.dtype == np.complex128 and not h.imag.any()
    spectral = diagonalize(h)
    assert spectral.vectors.dtype == np.float64
    o_eig = spectral.to_eigenbasis(local_generator("staggered-x", 4))
    assert o_eig.dtype == np.float64
    # an operator with an imaginary part stays complex on real vectors
    y_eig = spectral.to_eigenbasis(PauliString(1.0, ((2, "y"),)).matrix(4))
    assert y_eig.dtype == np.complex128 and np.abs(y_eig.imag).max() > 0.1
    v = spectral.vectors
    assert np.allclose(v @ np.diag(spectral.energies) @ v.T, h, atol=1e-12)


@pytest.mark.parametrize("beta", [0.3, 2.0])
def test_complex_hamiltonian_stays_complex_and_matches_oracle(beta):
    h = _chain_with_dm_term(4)
    assert np.abs(h.imag).max() > 0.1
    spectral = diagonalize(h)
    assert spectral.vectors.dtype == np.complex128
    ens = gibbs_weights(spectral, beta)
    rho_eig = spectral.to_eigenbasis(thermal_state(h, beta))
    assert rho_eig.dtype == np.complex128
    assert np.allclose(rho_eig, np.diag(ens.weights), atol=1e-12)


@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize(
    "perturbation, message", [("noise", "not unitary"), ("reversed columns", "reconstruct")]
)
def test_certificates_catch_bad_eigenvectors(monkeypatch, complex_input, perturbation, message):
    h = _chain_with_dm_term(3) if complex_input else build_xx_hamiltonian(SpinChainSpec(3)).mat
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
    # both chains conserve total S^z: one solve per sector (sizes 1, 3, 3, 1)
    assert seen == [np.complex128 if complex_input else np.float64] * 4


def test_to_eigenbasis_dimension_check(rng):
    spectral = diagonalize(random_hermitian(rng, 4))
    with pytest.raises(DomainError):
        spectral.to_eigenbasis(np.eye(5))


# ---------------------------------------------------------------------------
# Gibbs weights

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
    spectral = diagonalize(build_xx_hamiltonian(SpinChainSpec(6, 1.0, 0.3)).mat)
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

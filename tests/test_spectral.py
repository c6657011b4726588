"""Diagonalization certificates and Gibbs weight construction."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfidyn import (
    DomainError,
    NumericError,
    SpectralDecomposition,
    ThermalEnsemble,
    diagonalize,
    gibbs_weights,
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


def test_degeneracy_groups():
    spectral = diagonalize(np.diag([1.0, 1.0, 2.0]))
    assert spectral.degeneracy_groups() == [(0, 2), (2, 3)]
    assert spectral.summary()["degeneracies"] == [2, 1]


def test_decomposition_validates_inputs():
    with pytest.raises(DomainError):
        SpectralDecomposition(np.array([2.0, 1.0]), np.eye(2))
    with pytest.raises(DomainError):
        SpectralDecomposition(np.array([1.0, 2.0]), np.eye(3))


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

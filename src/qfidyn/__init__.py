"""Quantum Fisher information of thermal spin systems via exact
diagonalization, decomposed and bounded through dynamical symmetries."""

from .dynsym import (
    DynamicalSymmetry,
    OperatorBlock,
    PairPartition,
    block_gram,
    conserved_mazur_bound,
    dynamical_symmetry,
    fit_frequency,
    group_into_blocks,
    local_cap,
    mazur_weight,
    projector_mazur_weight,
    trivial_complete_set,
    verified_blocks,
)
from .errors import DomainError, NumericError
from .metrology import (
    QfiMatrix,
    QfiReport,
    WitnessReport,
    entanglement_depth,
    eth_lower_bound,
    eth_qfi,
    eth_qfi_from_comb,
    eth_thermal_gap,
    eth_zero_frequency_correction,
    qfi_from_dynsym,
    qfi_from_structure_comb,
    qfi_from_susceptibility_comb,
    qfi_matrix,
    qfi_matrix_from_dynsym,
    qfi_spectral,
    qfi_via_structure_factor,
    qfi_via_susceptibility,
    quantum_variance,
    qv_lower_bound,
    skew_information,
    skew_lower_bound,
)
from .operators import (
    GeneralOperator,
    HermitianOperator,
    PauliString,
    SparseOperator,
    SpinChainSpec,
    anticommutator,
    build_xx_hamiltonian,
    commutator,
    local_generator,
    operator_from_strings,
    operator_support,
    pauli_site,
    pauli_strings_from_json,
    pauli_strings_to_records,
)
from .response import (
    BoundCheckReport,
    FrequencyComb,
    comb_bound_check,
    cross_response_comb,
    response_comb,
    structure_factor_comb,
    susceptibility_comb,
)
from .spectral import (
    BlockOperator,
    SpectralDecomposition,
    ThermalEnsemble,
    diagonalize,
    gibbs_weights,
    thermal_expectation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

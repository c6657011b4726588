"""Worked-model checks: analytic two-qubit symmetry set and chain presets."""

import math
import tracemalloc

import numpy as np
import pytest

from qfidyn import (
    DomainError,
    SparseOperator,
    SpinChainSpec,
    diagonalize,
    fit_frequency,
    gibbs_weights,
    qfi_from_dynsym,
    qfi_spectral,
    verified_blocks,
)
from qfidyn.models import (
    HIGH_FIELD_SUBSET,
    LOW_FIELD_SUBSET,
    PRESETS,
    preset,
    preset_operators,
    regime_subset,
    solve_preset,
    two_qubit_frequencies,
    two_qubit_symmetry_operators,
)
from qfidyn.operators import local_generator_strings
from oracles import xx_hamiltonian_oracle

LABELS = ("A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4")


@pytest.mark.parametrize("coupling,field", [(1.0, 0.5), (1.0, 1.5), (0.7, 0.2)])
def test_analytic_set_solves_the_eigenoperator_equation(coupling, field):
    h_op, _ = preset_operators(preset("two-qubit", coupling=coupling, field=field))
    expected = two_qubit_frequencies(coupling, field)
    for label, op in two_qubit_symmetry_operators().items():
        omega, residual = fit_frequency(h_op.dense(), op.dense())
        assert residual < 1e-12, label
        assert abs(omega - expected[label]) < 1e-10, label


def test_two_qubit_frequency_values():
    freqs = two_qubit_frequencies(1.0, 0.5)
    assert freqs == {
        "A1": -3.0, "A2": 3.0, "A3": 1.0, "A4": -1.0,
        "B1": -3.0, "B2": 3.0, "B3": 1.0, "B4": -1.0,
    }


def test_labels_and_dagger_pairs():
    ops = two_qubit_symmetry_operators()
    assert tuple(ops) == LABELS
    for lowering, raising in (("A1", "A2"), ("A3", "A4"), ("B1", "B2"), ("B3", "B4")):
        assert ops[lowering].dense().shape == (4, 4)
        np.testing.assert_allclose(
            ops[raising].dense(), ops[lowering].dense().conj().T, atol=1e-15
        )


def test_mirror_partners_are_distinct_operators():
    ops = two_qubit_symmetry_operators()
    for k in "1234":
        assert np.abs(ops[f"A{k}"].dense() - ops[f"B{k}"].dense()).max() > 0.5


def test_operator_lookup_rejects_unknown_label():
    with pytest.raises(DomainError, match="Z9"):
        two_qubit_symmetry_operators(("A1", "Z9"))


def test_regime_subset():
    assert regime_subset(0.5) == LOW_FIELD_SUBSET == ("A2", "A3")
    assert regime_subset(-0.5) == LOW_FIELD_SUBSET
    assert regime_subset(1.5) == HIGH_FIELD_SUBSET == ("A4",)
    assert regime_subset(-1.5) == HIGH_FIELD_SUBSET
    assert regime_subset(0.8, coupling=0.5) == HIGH_FIELD_SUBSET
    for field, coupling in ((1.0, 1.0), (-1.0, 1.0), (0.5, 0.5)):
        with pytest.raises(DomainError, match="crossing"):
            regime_subset(field, coupling)
    # inf is no crossing, and a NaN field falls to neither side of it
    for field, coupling in ((math.inf, 1.0), (math.nan, 1.0), (0.5, math.nan)):
        with pytest.raises(DomainError, match="must be finite"):
            regime_subset(field, coupling)


def test_subset_bound_saturates_at_low_temperature():
    # the regime subsets are what make the low-T bound tight on each side
    # of the crossing; 0.99 of the QFI at T = 0.05 is the working criterion
    beta = 1.0 / 0.05
    for field in (0.5, 1.5):
        h_op, gen = (op.dense() for op in preset_operators(preset("two-qubit", field=field)))
        spectral = diagonalize(h_op)
        ens = gibbs_weights(spectral, beta)
        o_eig = spectral.to_eigenbasis(gen)
        ops = two_qubit_symmetry_operators(regime_subset(field))
        blocks = verified_blocks(h_op, spectral, [op.dense() for op in ops.values()])
        bound = qfi_from_dynsym(blocks, ens, o_eig).value
        direct = qfi_spectral(o_eig, ens)
        assert bound <= direct + 1e-9, field
        assert bound >= 0.99 * direct, field


def test_preset_defaults():
    assert set(PRESETS) == {"two-qubit", "chain"}
    chain = PRESETS["chain"]
    assert chain.spec == SpinChainSpec(7, 1.0, 0.3, "open")
    assert chain.generator == "staggered-x"
    pair = PRESETS["two-qubit"]
    assert pair.spec == SpinChainSpec(2, 1.0, 0.5, "open")
    assert pair.generator == "antisymmetric-x"


def test_preset_overrides():
    m = preset("chain", sites=5, field=0.7, generator="uniform-x")
    assert m.name == "chain"
    assert m.spec.sites == 5
    assert math.isclose(m.spec.field, 0.7)
    assert math.isclose(m.spec.coupling, 1.0)
    assert m.generator == "uniform-x"

    m = preset("two-qubit", coupling=0.4, boundary="periodic")
    assert math.isclose(m.spec.coupling, 0.4)
    assert m.spec.boundary == "periodic"

    with pytest.raises(DomainError, match="two-qubit"):
        preset("nope")


def test_build_preset_matches_direct_builders():
    m = preset("two-qubit")
    h_op, gen = preset_operators(m)
    spec = m.spec
    want = xx_hamiltonian_oracle(spec.sites, spec.coupling, spec.field, spec.boundary)
    np.testing.assert_array_equal(h_op.dense(), want)
    direct = SparseOperator.from_strings(local_generator_strings("antisymmetric-x", 2), 2)
    np.testing.assert_array_equal(gen.dense(), direct.dense())


def test_build_preset_respects_site_cap():
    with pytest.raises(DomainError):
        preset_operators(preset("chain", sites=13))
    h_op, _ = preset_operators(preset("chain", sites=4), max_sites=4)
    assert h_op.dense().shape == (16, 16)


def test_preset_set_up_peaks_near_the_size_of_its_pair_set():
    # The finished weighted pair set keeps 40 B a pair (rows, cols, labels,
    # keys and values, 8 B each).  Above its inputs, solve_preset's traced
    # peak on the 10-site chain is about 70 B a pair with the eigenbasis
    # blocks and eigenvectors it holds on the way; a set-up that built the
    # set through a mirrored copy of every gap and copies of its own arrays
    # peaked at about 165.
    model = preset("chain", sites=10)
    tracemalloc.start()
    try:
        _, pairs, _ = solve_preset(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # half of the 167,960 pairs the S^z blocks link: the reflection parity
    # of the staggered generator forbids the other half
    assert pairs.rows.size == 83_980
    assert peak / pairs.rows.size <= 90.0

"""Worked models: the two-qubit XX pair with its analytic symmetry set, and
the seven-site chain preset behind the frequency-comb studies.

Every operator here is a SparseOperator built from Pauli strings.
solve_preset is the exact pipeline every preset command runs: a per-block
diagonalization of the preset's Hamiltonian, and the generator's weighted
pair set from its eigenbasis blocks, with no dim x dim array."""

from __future__ import annotations

from ._frozen import FrozenRecord
from .dynsym import default_omega_tol, trivial_complete_set
from .errors import DomainError
from .operators import (
    PauliString,
    SparseOperator,
    SpinChainSpec,
    local_generator_strings,
    xx_hamiltonian_strings,
)
from .spectral import diagonalize


def two_qubit_symmetry_strings():
    """The eight analytic eigenoperators of the two-site XX model, by label.

    A1 = s0- - z0 s1-, A2 = A1^dag, A3 = s0- + z0 s1-, A4 = A3^dag; under
    [H, A] = omega A their frequencies are -+2(J+h) for A1, A2 and
    +-2(J-h) for A3, A4.  Each frequency eigenspace of the commutator map is
    two dimensional, and B1..B4 are the site-mirrored partners of A1..A4 at
    the same frequencies; a frequency block {Ak, Bk} spans its eigenspace,
    which is what makes the block bounds saturate.
    """

    def lowering(site, other, sign):
        return (
            PauliString(1.0, ((site, "-"),)),
            PauliString(sign, ((site, "z"), (other, "-"))),
        )

    def raising(site, other, sign):
        # dagger of lowering: ladder factors flip, the z factor stays
        return (
            PauliString(1.0, ((site, "+"),)),
            PauliString(sign, ((site, "z"), (other, "+"))),
        )

    return {
        "A1": lowering(0, 1, -1.0),
        "A2": raising(0, 1, -1.0),
        "A3": lowering(0, 1, +1.0),
        "A4": raising(0, 1, +1.0),
        "B1": lowering(1, 0, -1.0),
        "B2": raising(1, 0, -1.0),
        "B3": lowering(1, 0, +1.0),
        "B4": raising(1, 0, +1.0),
    }


def two_qubit_frequencies(coupling=1.0, field=0.5):
    """Expected eigenfrequencies under [H, A] = omega A, keyed by label."""
    j, h = float(coupling), float(field)
    return {
        "A1": -2.0 * (j + h),
        "A2": +2.0 * (j + h),
        "A3": +2.0 * (j - h),
        "A4": -2.0 * (j - h),
        "B1": -2.0 * (j + h),
        "B2": +2.0 * (j + h),
        "B3": +2.0 * (j - h),
        "B4": -2.0 * (j - h),
    }


def two_qubit_symmetry_operators(labels=None):
    """SparseOperators on two sites for the requested labels (default: all
    eight)."""
    strings = two_qubit_symmetry_strings()
    if labels is None:
        labels = tuple(strings)
    ops = {}
    for label in labels:
        if label not in strings:
            raise DomainError(
                f"unknown symmetry label {label!r}; valid labels are {tuple(strings)}"
            )
        ops[label] = SparseOperator.from_strings(strings[label], 2)
    return ops


LOW_FIELD_SUBSET = ("A2", "A3")
HIGH_FIELD_SUBSET = ("A4",)


def at_level_crossing(field, coupling=1.0, omega_tol=None):
    """Whether the subset frequency +-2(|J| - |h|) lies within omega_tol
    (default: verified_blocks' default for the spectrum +-2J, +-2h) of 0,
    where group_into_blocks snaps it to 0.0 and the subset bound vanishes."""
    if omega_tol is None:
        omega_tol = default_omega_tol([2.0 * coupling, -2.0 * coupling, 2.0 * field, -2.0 * field])
    return abs(2.0 * (abs(coupling) - abs(field))) <= omega_tol


def regime_subset(field, coupling=1.0, omega_tol=None):
    """Labels of the symmetry subset whose bound saturates the QFI at low T.

    Below the level crossing |h| = |J| the ground state is the singlet and
    the two operators with nonzero thermal norm on it sit at the two gap
    frequencies; above the crossing the polarized ground state leaves a
    single such operator.  At the crossing (at_level_crossing) the
    frequencies collide and no proper subset is distinguished.
    """
    if not all(abs(x) < float("inf") for x in (field, coupling)):
        raise DomainError(f"field and coupling must be finite, got {field} and {coupling}")
    if at_level_crossing(field, coupling, omega_tol):
        raise DomainError("no saturating subset at the level crossing |field| = |coupling|")
    return LOW_FIELD_SUBSET if abs(field) < abs(coupling) else HIGH_FIELD_SUBSET


class ModelPreset(FrozenRecord):
    """A named starting point: chain spec plus the generator used with it."""

    _fields = ("name", "spec", "generator")

    def __init__(self, name, spec, generator):
        self._set(name=name, spec=spec, generator=generator)


# The chain field 0.3 lifts all degeneracies between levels the staggered
# generator connects, so the zero-frequency comb weight is exhausted by the
# eigenprojector Mazur weight (at h = 0 it is not).
PRESETS = {
    "two-qubit": ModelPreset("two-qubit", SpinChainSpec(2, 1.0, 0.5, "open"), "antisymmetric-x"),
    "chain": ModelPreset("chain", SpinChainSpec(7, 1.0, 0.3, "open"), "staggered-x"),
}


def preset(name, sites=None, coupling=None, field=None, boundary=None, generator=None):
    """Look up a preset and apply parameter overrides."""
    if name not in PRESETS:
        raise DomainError(f"unknown preset {name!r}; valid presets are {tuple(PRESETS)}")
    base = PRESETS[name]
    spec = SpinChainSpec(
        base.spec.sites if sites is None else sites,
        base.spec.coupling if coupling is None else float(coupling),
        base.spec.field if field is None else float(field),
        base.spec.boundary if boundary is None else str(boundary),
    )
    gen = base.generator if generator is None else str(generator)
    return ModelPreset(base.name, spec, gen)


def preset_operators(model):
    """Hamiltonian and generator of a ModelPreset as SparseOperators in the
    site basis, each certified Hermitian on its entries."""
    n = model.spec.sites
    strings = (xx_hamiltonian_strings(model.spec), local_generator_strings(model.generator, n))
    return tuple(SparseOperator.from_strings(terms, n, hermitian=True) for terms in strings)


def solve_preset(model, omega_tol=None):
    """(spectral, pairs, h): the diagonalized Hamiltonian, the generator's
    weighted pair set (trivial_complete_set over its eigenbasis blocks) and
    the site-basis Hamiltonian as a SparseOperator."""
    h, gen = preset_operators(model)
    spectral = diagonalize(h)
    return spectral, trivial_complete_set(spectral, omega_tol, spectral.to_eigenblocks(gen)), h

"""Contract of the public immutable types: no field can be assigned or
deleted, records of scalars and tuples compare and hash by value, types
that hold arrays compare by identity, and repr names the class."""

import inspect

import numpy as np
import pytest

import qfidyn
from qfidyn.cli import RunConfig
from qfidyn.models import ModelPreset, preset, solve_preset, two_qubit_symmetry_operators

SPECTRAL, PAIRS, H = solve_preset(preset("two-qubit"))
ENSEMBLE = qfidyn.gibbs_weights(SPECTRAL, 1.0)
GENERATOR = qfidyn.local_generator("antisymmetric-x", 2)

# type name -> a function that builds a fresh instance of it
VALUE_RECORDS = {
    "SpinChainSpec": lambda: qfidyn.SpinChainSpec(4, 1.0, 0.3),
    "ModelPreset": lambda: preset("chain", sites=4),
    "PauliString": lambda: qfidyn.PauliString(0.5, ((1, "z"), (0, "x"))),
    "RunConfig": lambda: RunConfig(
        "chain", 4, 1.0, 0.3, "open", "staggered-x", (1.0,), (1.0,), "trivial", None, None, "csv"
    ),
    "WitnessReport": lambda: qfidyn.entanglement_depth(3.0, 2),
    "BoundCheckReport": lambda: qfidyn.comb_bound_check(
        qfidyn.response_comb(PAIRS, ENSEMBLE), PAIRS, ENSEMBLE, PAIRS
    ),
}
ARRAY_HOLDERS = {
    "GeneralOperator": lambda: qfidyn.GeneralOperator(np.eye(2)),
    "HermitianOperator": lambda: qfidyn.HermitianOperator(np.eye(2)),
    "SparseOperator": lambda: qfidyn.SparseOperator.from_dense(np.eye(2)),
    "SpectralDecomposition": lambda: qfidyn.diagonalize(H),
    "ThermalEnsemble": lambda: qfidyn.gibbs_weights(SPECTRAL, 1.0),
    "BlockOperator": lambda: SPECTRAL.to_eigenblocks(GENERATOR),
    "PairPartition": lambda: qfidyn.trivial_complete_set(SPECTRAL),
    "DynamicalSymmetry": lambda: qfidyn.dynamical_symmetry(
        H.dense(), two_qubit_symmetry_operators(["A1"])["A1"]
    ),
    "OperatorBlock": lambda: qfidyn.OperatorBlock(0.0, (np.eye(2),)),
    "QfiReport": lambda: qfidyn.qfi_from_dynsym(PAIRS, ENSEMBLE, PAIRS),
    "QfiMatrix": lambda: qfidyn.QfiMatrix(np.eye(2)),
    "FrequencyComb": lambda: qfidyn.response_comb(PAIRS, ENSEMBLE),
}
ALL_TYPES = {**VALUE_RECORDS, **ARRAY_HOLDERS}


def test_every_public_immutable_type_is_covered():
    public = {
        name for name in dir(qfidyn)
        if inspect.isclass(getattr(qfidyn, name))
        and not issubclass(getattr(qfidyn, name), Exception)
    }
    assert public | {"ModelPreset", "RunConfig"} == set(ALL_TYPES)


@pytest.mark.parametrize("name", sorted(ALL_TYPES))
def test_fields_cannot_be_assigned(name):
    obj = ALL_TYPES[name]()
    assert type(obj).__name__ == name
    fields = [p for p in inspect.signature(type(obj)).parameters if hasattr(obj, p)]
    assert fields
    for field in fields:
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is before
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_compare_and_hash_by_value(name):
    a, b = VALUE_RECORDS[name](), VALUE_RECORDS[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_by_identity(name):
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert a == a and a != b
    assert len({a, a, b}) == 2


@pytest.mark.parametrize("name", sorted(ALL_TYPES))
def test_repr_names_the_class(name):
    assert repr(ALL_TYPES[name]()).startswith(f"{name}(")


def test_value_records_differ_by_field_and_by_type():
    spec = qfidyn.SpinChainSpec(4, 1.0, 0.3)
    assert spec != qfidyn.SpinChainSpec(4, 1.0, 0.4)
    assert spec != ModelPreset("chain", spec, "staggered-x")
    assert preset("chain", sites=4).spec == spec

"""Contract of the public immutable types: no field can be assigned or
deleted, every array they hold is read-only and none is a caller's,
records of scalars and tuples compare and hash by value, types that hold
arrays compare by identity, and repr names the class."""

import functools
import inspect
import pathlib
import tokenize

import numpy as np
import pytest

import qfidyn
from qfidyn._frozen import Frozen
from qfidyn.models import (
    ModelPreset,
    preset,
    preset_operators,
    solve_preset,
    two_qubit_symmetry_operators,
)
from qfidyn.spectral import _eigen_operand

SPECTRAL, PAIRS, H = solve_preset(preset("two-qubit"))
ENSEMBLE = qfidyn.gibbs_weights(SPECTRAL, 1.0)
_, GENERATOR = preset_operators(preset("two-qubit"))

# type name -> a function that builds a fresh instance of it
VALUE_RECORDS = {
    "SpinChainSpec": lambda: qfidyn.SpinChainSpec(4, 1.0, 0.3),
    "ModelPreset": lambda: preset("chain", sites=4),
    "PauliString": lambda: qfidyn.PauliString(0.5, ((1, "z"), (0, "x"))),
    "WitnessReport": lambda: qfidyn.entanglement_depth(3.0, 2),
    "BoundCheckReport": lambda: qfidyn.comb_bound_check(
        qfidyn.response_comb(PAIRS, ENSEMBLE), PAIRS, ENSEMBLE, PAIRS
    ),
}
ARRAY_HOLDERS = {
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
    "QfiMatrix": lambda: qfidyn.QfiMatrix(np.eye(2), True),
    "FrequencyComb": lambda: qfidyn.response_comb(PAIRS, ENSEMBLE),
}
ALL_TYPES = {**VALUE_RECORDS, **ARRAY_HOLDERS}


def _built(cls, *args):
    """An instance from args, and the arrays among them (or in a tuple)."""
    given = [a for arg in args for a in (arg if isinstance(arg, tuple) else (arg,))]
    return cls(*args), tuple(a for a in given if isinstance(a, np.ndarray))


def _sparse_over_a_view():
    # a view's base is given too, so that a write through either would show
    base = np.array([1.0, 2.0, 3.0])
    op, given = _built(qfidyn.SparseOperator, np.array([0, 1]), np.array([1, 0]), base[:2], 2)
    return op, (*given, base)


def _stored_arrays(obj):
    """Every ndarray an instance stores, in tuples and in the immutable
    instances it holds too; a cached_property is a derived cache, not a
    field, and is passed over."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _stored_arrays(item)
    elif isinstance(obj, Frozen):
        for name, value in vars(obj).items():
            if not isinstance(getattr(type(obj), name, None), functools.cached_property):
                yield from _stored_arrays(value)


# type name -> a function that builds an instance from fresh arrays and
# returns it with them
ARRAY_TAKERS = {
    "SparseOperator": _sparse_over_a_view,
    "PairPartition": lambda: _built(qfidyn.PairPartition, np.array([-1.0, 0.0, 1.0]),
                                    np.array([0, 0], dtype=np.int32), np.array([0, 1]),
                                    np.array([1, 0]), 2, np.array([1.0, 2.0])),
    "ThermalEnsemble": lambda: _built(qfidyn.ThermalEnsemble, 1.0, np.array([0.0, 1.0]),
                                      np.array([0.75, 0.25]), np.log([0.75, 0.25])),
    "SpectralDecomposition": lambda: _built(qfidyn.SpectralDecomposition,
                                            np.array([0.0, 1.0]), np.eye(2)),
    "FrequencyComb": lambda: _built(qfidyn.FrequencyComb, np.array([-1.0, 1.0]),
                                    np.array([0.5, 0.5]), "response"),
    "QfiMatrix": lambda: _built(qfidyn.QfiMatrix, np.eye(2), True),
    "QfiReport": lambda: _built(qfidyn.QfiReport, 1.0, np.array([-1.0, 1.0]),
                                np.array([0.5, 0.5]), False),
    "DynamicalSymmetry": lambda: _built(qfidyn.DynamicalSymmetry, np.eye(2), 0.0, 0.0),
    "OperatorBlock": lambda: _built(qfidyn.OperatorBlock, 0.0, (np.eye(2),)),
}


def test_every_public_immutable_type_is_covered():
    public = {
        name for name in dir(qfidyn)
        if inspect.isclass(getattr(qfidyn, name))
        and not issubclass(getattr(qfidyn, name), Exception)
    }
    assert public | {"ModelPreset"} == set(ALL_TYPES)


@pytest.mark.parametrize("name", sorted(ALL_TYPES))
def test_fields_cannot_be_assigned(name):
    obj = ALL_TYPES[name]()
    assert type(obj).__name__ == name
    # the fields an instance stores: _fields holds every constructor
    # parameter that is a field, and SpectralDecomposition.block_vectors, a
    # property made on each read, which is passed over
    fields = [f for f in type(obj)._fields if f in vars(obj)]
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


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_every_stored_array_is_read_only(name):
    arrays = list(_stored_arrays(ARRAY_HOLDERS[name]()))
    assert arrays
    for arr in arrays:
        assert not arr.flags.writeable


@pytest.mark.parametrize("name", sorted(ARRAY_TAKERS))
def test_public_constructors_keep_copies_of_the_caller_arrays(name):
    obj, given = ARRAY_TAKERS[name]()
    assert type(obj).__name__ == name
    stored = list(_stored_arrays(obj))
    assert stored and given
    for arr in given:
        assert arr.flags.writeable
        assert not any(np.shares_memory(arr, kept) for kept in stored)


def test_block_operators_have_no_public_constructor():
    columns, block = np.arange(2), np.eye(2)
    with pytest.raises(TypeError):
        qfidyn.BlockOperator((columns,), {(0, 0): block}, 2, block.dtype)


def test_an_eigenbasis_matrix_operand_keeps_a_copy():
    given = np.array([[1.0, 0.5], [0.5, 2.0]])
    op = _eigen_operand(given)
    before = op.entries()
    given[0, 1] = 5.0
    after = op.entries()
    for name in ("rows", "cols", "values"):
        assert np.array_equal(getattr(after, name), getattr(before, name))
    assert np.array_equal(op.dense(), [[1.0, 0.5], [0.5, 2.0]])
    for arr in (*_stored_arrays(op), op.block(0, 0)):
        assert not arr.flags.writeable


def test_per_frequency_is_a_new_dict_on_each_read():
    report = qfidyn.qfi_from_dynsym(PAIRS, ENSEMBLE, PAIRS)
    first = report.per_frequency
    want = dict(first)
    first[next(iter(first))] = -1.0
    first[123.0] = 4.0
    assert report.per_frequency == want


def test_only_frozen_bypasses_the_attribute_guard():
    # an instance's fields are stored only through Frozen._set and made
    # only through __init__ or Frozen._adopt, which freeze their arrays
    package = pathlib.Path(qfidyn.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "_frozen.py":
            continue
        with tokenize.open(path) as f:
            names = {tok.string for tok in tokenize.generate_tokens(f.readline)
                     if tok.type == tokenize.NAME}
        assert not names & {"__dict__", "__new__", "__setattr__"}, path.name

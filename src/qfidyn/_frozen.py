"""Immutable classes with no generated code.

Frozen is the base of the package's immutable types, and this module holds
the one rule by which they take their arrays.  A subclass names its fields
in _fields, in constructor order, and stores every field through _set,
which makes each ndarray among them read-only; assigning or deleting an
attribute afterwards raises AttributeError.  A public constructor copies
the arrays it is given, so no caller keeps a writable handle on what an
instance holds; a type that defines none has none, and calling it raises
TypeError.  A package builder whose arrays no one else can write
hands them over with _adopt instead: the type's _freeze runs the same
checks on them and stores them through _set, frozen in place.  Arrays
nested in a tuple field are frozen by the type that nests them.

Instances compare and hash by identity, which suits types that hold arrays.
FrozenRecord compares and hashes by value over the fields, for records of
scalars, strings and tuples.
"""

import numpy as np


class Frozen:
    _fields = ()

    def __init__(self, *args, **kwargs):
        """A type with no public constructor of its own has none at all."""
        raise TypeError(f"{type(self).__name__} has no public constructor")

    @classmethod
    def _adopt(cls, *fields):
        """An instance over fields no caller can still write, checked and
        stored by the type's _freeze without copies."""
        self = object.__new__(cls)
        self._freeze(*fields)
        return self

    def _set(self, **fields):
        """Store fields, making every ndarray among them read-only."""
        for value in fields.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Frozen):
    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

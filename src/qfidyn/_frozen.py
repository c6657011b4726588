"""Immutable classes with no generated code.

Frozen is the base of the package's immutable types.  A subclass names its
fields in _fields, in constructor order, and its __init__ stores them with
self.__dict__.update, which bypasses the __setattr__ guard; assigning or
deleting an attribute afterwards raises AttributeError.  Instances compare
and hash by identity, which suits types that hold arrays.  FrozenRecord
compares and hashes by value over the fields, for records of scalars,
strings and tuples.
"""


class Frozen:
    _fields = ()

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

"""The base of crepant's value types, and the one conversion to Fraction.

``Record`` gives a class immutable fields that are compared, hashed and
shown by value.  The value types are not dataclasses, since importing
``dataclasses`` imports ``inspect``, a fixed cost of every run.
``_rational`` is the one conversion to Fraction, and rejects a float
with TypeError.  This module stands apart from ``algebra``, so
``verify crc`` and ``localization``, which build their own values on
``Record``, never compile Q(zeta_m).
"""
from __future__ import annotations

from fractions import Fraction


def _rational(x) -> Fraction:
    """x as a Fraction.  Floats are rejected: no quantity here is inexact."""
    if isinstance(x, float):
        raise TypeError(f"a float is not an exact rational: {x!r}")
    return Fraction(x)


class Record:
    """An immutable record of the fields named in ``_fields``.

    A subclass's ``__init__`` stores them once through ``_init``; no
    attribute can be set or deleted after that.  Records of one class
    compare and hash by their field values, and the repr shows them in
    order.
    """
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by setting fields
        return type(self), self._values()

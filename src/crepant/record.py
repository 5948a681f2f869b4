"""The bases of crepant's value types, and the one conversion to Fraction.

``Record`` gives a class immutable fields that are compared, hashed and
shown by value.  The value types are not dataclasses, since importing
``dataclasses`` imports ``inspect``, a fixed cost of every run.
``Ring`` is the one base of the exact arithmetic types: it defines
subtraction, once, for Q(w) (``potentials.Cyc3``), the t-linear
polynomials (``potentials.LinT``), Q(zeta_m) (``algebra.CycElement``)
and the oracle series (``oracles.USeries`` and ``BiSeries``).  Its
refinement ``Number``, the base of the two fields' elements, adds
square-and-multiply powers and the one rule of equality across types: a
rational element equals and hashes like its Fraction, whatever its
field.  ``_rational`` is the one conversion to Fraction, and rejects a
float with TypeError.  This module stands apart from ``algebra`` and
``potentials``, and neither field module imports the other: ``verify
crc`` and ``localization``, which build their own values on these
bases, never compile Q(zeta_m), and ``duval`` never compiles Q(w).
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


class Ring(Record):
    """A Record that is a ring element: ``-`` from its ``+`` and unary ``-``.

    A subclass defines ``__add__``, ``__neg__`` and ``__mul__`` (with the
    ``__radd__`` and ``__rmul__`` aliases); ``a - b`` is ``a + (-b)`` and
    ``b - a`` is ``-a + b``, so ``-`` accepts the operands ``+`` accepts.
    """
    __slots__ = ()

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other


class Number(Ring):
    """An element of an exact number field, Q(w) or Q(zeta_m): powers and equality.

    A subclass supplies ``_one()``, the 1 of its field, and
    ``_fraction()``, its value as a Fraction, or None when it is
    irrational.  ``x ** n`` is square-and-multiply for n >= 0; nothing
    divides in these fields, so a negative n raises ValueError.

    Two elements of one class and one ``field`` (None where the class is a
    single field, as Q(w) is) compare by their stored values, with no
    Fraction formed: the forms are canonical.  Any other pair, an int or a Fraction included, is equal
    exactly when both are rational with one value, and a rational element
    hashes like its Fraction, so equality among ints, Fractions and the
    elements of every field is transitive.  Irrational elements of two
    different fields are unequal, even where they name the same complex
    number.
    """
    __slots__ = ()
    field = None

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative powers are not supported in {type(self).__name__}")
        result, base = self._one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__ and other.field == self.field:
            return self._values() == other._values()
        if isinstance(other, Number):
            other = other._fraction()
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        value = self._fraction()
        return value is not None and value == other

    def __hash__(self) -> int:
        value = self._fraction()
        return hash(self._values() if value is None else value)

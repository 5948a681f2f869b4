"""Exact scalar arithmetic in the cyclotomic fields Q(zeta_m).

``CycField(m)`` is Q[x]/Phi_m(x), used for the cyclic DuVal
transforms: an element is an integer numerator vector over one positive
denominator, in lowest terms, reduced in ints through one table of the
powers zeta^e, 0 <= e < m (Phi_m is monic with integer coefficients, so
no polynomial is divided).  Its elements are ``Number`` values, whose
base defines their subtraction, powers and equality with rationals and
with Q(w), and rationals enter through ``_rational``, both from
``record``, so the subcommands that never touch Q(zeta_m) (``verify
crc`` and ``localization`` among them) never compile this module.  Q(w)
(``Cyc3``), the t-linear polynomials over it and the multi-cover series
live in ``potentials``, their only production consumer, so ``duval``
never compiles them; the series arithmetic that tests compare against
lives in ``oracles``.  Neither field module imports the other; the
module ``__getattr__`` below serves only names the benchmark's tracer
still looks up here.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .record import Number, _rational


# ---------------------------------------------------------------------------
# CycField(m): Q[x]/Phi_m(x), reduced by a table of powers of zeta
# ---------------------------------------------------------------------------

def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, computed by dividing x^m - 1 by all Phi_d, d|m, d<m.

    Every Phi_d is monic with integer coefficients, so each quotient is
    found exactly in ints, leading term first.

    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError("m must be positive")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            divisor = cyclotomic_polynomial(d)
            k = len(divisor) - 1
            quotient = [0] * (len(poly) - k)
            for i in reversed(range(len(quotient))):
                c = quotient[i] = poly[i + k]
                for j, dc in enumerate(divisor):
                    poly[i + j] -= c * dc
            if any(poly[:k]):
                raise ArithmeticError(f"Phi_{d} does not divide x^{m} - 1")
            poly = quotient
    return tuple(poly)


class CycField:
    """The cyclotomic field Q(zeta_m) in the power basis 1, zeta, ..., zeta^(degree-1).

    ``powers[e]`` is zeta^e in that basis for 0 <= e < m, an integer
    vector.  Row e+1 is row e shifted up one place, with zeta^degree
    replaced by -(Phi_m - x^degree); Phi_m is monic with integer
    coefficients, so the table needs no division.  It is the only way an
    element is reduced: an integer vector c of any length becomes
    sum_e c_e * powers[e mod m], since zeta^m = 1.  Elements are integer
    numerators over one denominator (``CycElement``), so the reduction
    and every product are done in ints.
    """

    def __init__(self, m: int):
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = len(self.modulus) - 1
        top_image = [-c for c in self.modulus[:-1]]  # zeta^degree in the basis
        row = [1] + [0] * (self.degree - 1)
        powers = []
        for _ in range(m):
            powers.append(tuple(row))
            carry = row[-1]
            row = [carry * t + r for t, r in zip(top_image, [0] + row[:-1])]
        self.powers = tuple(powers)

    def __eq__(self, other) -> bool:
        return isinstance(other, CycField) and other.m == self.m

    def __hash__(self) -> int:
        return hash(("CycField", self.m))

    def __repr__(self) -> str:
        return f"CycField({self.m})"

    def _reduce(self, nums: Sequence[int]) -> list[int]:
        """The integer vector sum_e nums[e] * zeta^e in the power basis."""
        d, m, powers = self.degree, self.m, self.powers
        out = list(nums[:d])
        out += [0] * (d - len(out))
        for e in range(d, len(nums)):
            c = nums[e]
            if c:
                for i, p in enumerate(powers[e % m]):
                    if p:
                        out[i] += c * p
        return out

    def _canonical(self, nums: Sequence[int], den: int) -> CycElement:
        """The element nums/den with den > 0 and gcd(den, *nums) == 1."""
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        return CycElement(self, tuple(nums), den)

    def element(self, coeffs: Sequence, den: int = 1) -> CycElement:
        """The element (sum_e coeffs[e] * zeta^e) / den.

        ``coeffs`` has any length and int or Fraction entries; ``den`` is
        a nonzero int.  Floats are rejected with TypeError.
        """
        if type(den) is not int:
            raise TypeError(f"denominator must be an int, got {den!r}")
        if not den:
            raise ZeroDivisionError("element with denominator 0")
        nums = list(coeffs)
        if not {int}.issuperset(map(type, nums)):
            nums = [_rational(c) for c in nums]
            scale = math.lcm(*(c.denominator for c in nums))
            nums = [(c * scale).numerator for c in nums]
            den *= scale
        return self._canonical(self._reduce(nums), den)

    def zero(self) -> CycElement:
        return CycElement(self, (0,) * self.degree, 1)

    def one(self) -> CycElement:
        return self.zeta_pow(0)

    def from_rational(self, q) -> CycElement:
        return self.element([q])

    def zeta(self) -> CycElement:
        return self.zeta_pow(1)

    def zeta_pow(self, e: int) -> CycElement:
        """zeta^e for any integer e; zeta^m = 1 so the exponent reduces mod m."""
        return CycElement(self, self.powers[e % self.m], 1)


class CycElement(Number):
    """An element of Q(zeta_m): the integer vector ``nums`` over ``den``.

    The form is canonical: ``den > 0``, gcd(den, *nums) == 1, and zero is
    all zeros over 1.  Build elements through ``CycField``; every
    operation reduces its result to canonical form once, so equal
    elements of one field have equal ``nums`` and ``den``.  Subtraction,
    powers and equality are ``Number``'s: rational elements compare and
    hash like their Fraction value, whatever their field (Q(w) included),
    and irrational elements of two different fields are unequal.
    """
    __slots__ = _fields = ("field", "nums", "den")

    def __init__(self, field: CycField, nums: tuple[int, ...], den: int):
        self._init(field, nums, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients nums[i]/den as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def _check(self, other: CycElement) -> None:
        if self.field != other.field:
            raise ValueError(f"mixed fields: {self.field} vs {other.field}")

    @staticmethod
    def _coerce(x, field: CycField) -> "CycElement | None":
        if isinstance(x, CycElement):
            return x
        if isinstance(x, (int, Fraction)):
            return field.from_rational(x)
        return None

    def __add__(self, other) -> CycElement:
        o = self._coerce(other, self.field)
        if o is None:
            return NotImplemented
        self._check(o)
        d1, d2 = self.den, o.den
        return self.field._canonical(
            [a * d2 + b * d1 for a, b in zip(self.nums, o.nums)], d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> CycElement:
        return CycElement(self.field, tuple(-c for c in self.nums), self.den)

    def __mul__(self, other) -> CycElement:
        o = self._coerce(other, self.field)
        if o is None:
            return NotImplemented
        self._check(o)
        prod = [0] * (2 * self.field.degree - 1)
        for i, c in enumerate(self.nums):
            if c:
                for j, d in enumerate(o.nums, i):
                    prod[j] += c * d
        return self.field._canonical(self.field._reduce(prod), self.den * o.den)

    __rmul__ = __mul__

    def _one(self) -> CycElement:
        return self.field.one()

    def _fraction(self) -> Fraction | None:
        return None if any(self.nums[1:]) else Fraction(self.nums[0], self.den)

    def __bool__(self) -> bool:
        return any(self.nums)

    def to_coeff_strings(self) -> list[str]:
        """``str(c)`` for each Fraction coefficient c, without forming the Fractions."""
        den, out = self.den, []
        for c in self.nums:
            g = math.gcd(c, den)
            out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
        return out

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.to_coeff_strings()):
            if c == "0":
                continue
            term = "1" if i == 0 else ("z" if i == 1 else f"z^{i}")
            parts.append(f"{c}*{term}" if i > 0 else f"{c}")
        return " + ".join(parts) if parts else "0"


def __getattr__(name: str):
    # perfbench/tracer.py still traces these two under algebra; importing
    # potentials on that lookup keeps Q(w) out of every run that never asks.
    if name in ("Cyc3", "geometric_exp_series"):
        from . import potentials
        return getattr(potentials, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

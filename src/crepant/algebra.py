"""Exact scalar arithmetic and the multi-cover series.

Every quantity in this package is computed exactly, over one of the
following rings of arbitrary-precision rationals:

- ``Cyc3``: the field Q(w) for a primitive cube root of unity w, an
  element a + b*w stored as integer numerators over one positive
  denominator, in lowest terms, and multiplied in ints with the
  reduction rule w^2 = -1 - w.  The square root of -3 lives here as
  2w + 1, so i/sqrt(3) is encoded as (2w + 1)/3.
- ``CycField(m)``: the general cyclotomic field Q[x]/Phi_m(x), used for
  the cyclic DuVal transforms.  An element is an integer numerator
  vector over one positive denominator, in lowest terms.  Phi_m is
  monic with integer coefficients, so elements are reduced in ints
  through one table of the powers zeta^e, 0 <= e < m, and no
  polynomial division is done.
- ``LinT``: polynomials c0 + c1*t1 + c2*t2 of t-degree at most one over
  Cyc3.  Products that would create t-degree two are rejected: every
  stable potential coefficient is t-linear, so such a product is a bug.

A series in production is the plain tuple of its coefficients.  The one
quotient of series that production needs, the multi-cover series
G_q = q e^u / (1 - q e^u), is built in integers from Eulerian numbers
and checked against its defining equation (``geometric_exp_series``);
no series is multiplied or divided.  No floating point appears
anywhere: ``Cyc3`` and ``CycField`` reject a float with TypeError.  The
value types are plain classes on ``Record`` (immutable fields, compared,
hashed and shown by value), not dataclasses: importing ``dataclasses``
imports ``inspect``, a fixed cost of every run.  Only what a production
path runs is here: the series classes ``USeries`` and ``BiSeries``, the
composition with a linear form, the Q(w) inverse and the series
arithmetic that tests compare against live in ``oracles``, which no
production module imports.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


class DegreeOverflowError(ArithmeticError):
    """Raised when a product would exceed t-degree one in LinT."""


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


# ---------------------------------------------------------------------------
# Cyc3: the field Q(w), w^2 + w + 1 = 0
# ---------------------------------------------------------------------------

class Cyc3(Record):
    """An element (na + nb*w)/den of Q(w), w a primitive cube root of unity.

    ``Cyc3(a, b)`` is a + b*w for ints or Fractions a and b.  It is stored
    as integer numerators over one positive denominator in lowest terms,
    gcd(na, nb, den) == 1 with zero as 0/1, and every operation reduces
    its result once, so equal elements have equal fields.  ``a`` and
    ``b`` are the Fraction views na/den and nb/den.  A rational element
    compares and hashes like its Fraction, and equals a rational
    ``CycElement`` of the same value; an irrational element never equals
    a ``CycElement``, not even zeta_3 in ``CycField(3)``.  Nothing divides
    in Q(w), so there is no inverse and no negative power (ValueError).

    >>> OMEGA * OMEGA == OMEGA_BAR
    True
    >>> Cyc3(1, 2) * Cyc3(1, 2)
    Cyc3('-3')
    """
    __slots__ = ("na", "nb", "den")

    def __new__(cls, a, b=0) -> Cyc3:
        if type(a) is int and type(b) is int:
            return _cyc3(a, b, 1)
        a, b = _rational(a), _rational(b)
        den = math.lcm(a.denominator, b.denominator)
        return _cyc3(a.numerator * (den // a.denominator),
                     b.numerator * (den // b.denominator), den)

    @property
    def a(self) -> Fraction:
        return Fraction(self.na, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.nb, self.den)

    @staticmethod
    def _coerce(x) -> "Cyc3 | None":
        if isinstance(x, Cyc3):
            return x
        if isinstance(x, (int, Fraction)):
            return _cyc3(x.numerator, 0, x.denominator)
        return None

    def __add__(self, other) -> Cyc3:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self.den, o.den
        if d == e:
            return _cyc3(self.na + o.na, self.nb + o.nb, d)
        return _cyc3(self.na * e + o.na * d, self.nb * e + o.nb * d, d * e)

    __radd__ = __add__

    def __sub__(self, other) -> Cyc3:
        return self + (-other)

    def __rsub__(self, other) -> Cyc3:
        return -self + other

    def __neg__(self) -> Cyc3:
        return _cyc3(-self.na, -self.nb, self.den)

    def __mul__(self, other) -> Cyc3:
        if type(other) is int:
            return _cyc3(self.na * other, self.nb * other, self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + bw)(c + dw) with w^2 = -1 - w
        a, b, c, d = self.na, self.nb, o.na, o.nb
        bd = b * d
        return _cyc3(a * c - bd, a * d + b * c - bd, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Cyc3:
        if n < 0:
            raise ValueError("negative powers are not supported in Q(w)")
        result = _cyc3(1, 0, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyc3):
            return self.na == other.na and self.nb == other.nb and self.den == other.den
        if isinstance(other, CycElement):
            # Q(w) and Q(zeta_m) are compared only where both are rational.
            if any(other.nums[1:]):
                return False
            other = Fraction(other.nums[0], other.den)
        if isinstance(other, (int, Fraction)):
            return (self.nb == 0 and self.na == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        # Rational elements must hash like their Fraction value.
        if self.nb == 0:
            return hash(Fraction(self.na, self.den))
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self.na or self.nb)

    def conjugate(self) -> Cyc3:
        """Complex conjugation: w -> w-bar, i.e. (a, b) -> (a - b, -b)."""
        return _cyc3(self.na - self.nb, -self.nb, self.den)

    def as_rational(self) -> Fraction:
        if self.nb:
            raise ValueError(f"{self!r} has a nonzero w-part")
        return self.a

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b)}

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if b == 1:
            wpart = "w"
        elif b == -1:
            wpart = "-w"
        else:
            wpart = f"{b}w"
        if a == 0:
            return wpart
        sign = "+" if b > 0 else "-"
        mag = wpart.lstrip("-")
        return f"{a} {sign} {mag}"

    def __repr__(self) -> str:
        return f"Cyc3('{self}')"

    def __reduce__(self):
        return _cyc3, (self.na, self.nb, self.den)


# Record refuses attribute assignment, so _cyc3 sets the slots through
# their descriptors, the cheapest route for the hot constructor.
_new_cyc3 = object.__new__
_set_na, _set_nb, _set_den = Cyc3.na.__set__, Cyc3.nb.__set__, Cyc3.den.__set__


def _cyc3(x: int, y: int, d: int) -> Cyc3:
    """The element (x + y*w)/d for ints x, y and d > 0, in lowest terms."""
    g = math.gcd(x, y, d)
    if g != 1:
        x, y, d = x // g, y // g, d // g
    z = _new_cyc3(Cyc3)
    _set_na(z, x)
    _set_nb(z, y)
    _set_den(z, d)
    return z


OMEGA = Cyc3(0, 1)
OMEGA_BAR = Cyc3(-1, -1)
I_OVER_SQRT3 = Cyc3(Fraction(1, 3), Fraction(2, 3))  # i/sqrt(3) = (2w + 1)/3


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


class CycElement(Record):
    """An element of Q(zeta_m): the integer vector ``nums`` over ``den``.

    The form is canonical: ``den > 0``, gcd(den, *nums) == 1, and zero is
    all zeros over 1.  Build elements through ``CycField``; every
    operation reduces its result to canonical form once, so equal
    elements have equal ``nums`` and ``den``.  Rational elements compare
    and hash like their Fraction value, whatever their field, and equal a
    rational ``Cyc3`` of the same value.  Irrational elements of two
    different fields are unequal, and an irrational element never equals
    a ``Cyc3``.
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

    def __sub__(self, other) -> CycElement:
        return self + (-other)

    def __rsub__(self, other) -> CycElement:
        return (-self) + other

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

    def __pow__(self, n: int) -> CycElement:
        if n < 0:
            raise ValueError("negative powers are not supported in CycField")
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, CycElement):
            if self.field == other.field:
                return self.den == other.den and self.nums == other.nums
            # Two fields share only the rationals.
            if any(other.nums[1:]):
                return False
            other = Fraction(other.nums[0], other.den)
        elif isinstance(other, Cyc3):
            if other.nb:
                return False
            other = other.a
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator and self.nums[0] == other.numerator
                    and not any(self.nums[1:]))
        return NotImplemented

    def __hash__(self) -> int:
        # Rational elements must hash like their Fraction value.
        if not any(self.nums[1:]):
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.field.m, self.nums, self.den))

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


# ---------------------------------------------------------------------------
# LinT: c0 + c1*t1 + c2*t2 over Cyc3, t-degree <= 1
# ---------------------------------------------------------------------------

class LinT(Record):
    """A polynomial c0 + c1*t1 + c2*t2 of degree at most one in (t1, t2).

    The equivariant parameters only ever appear linearly in stable
    coefficients, so a product of two elements with nonzero t-parts
    raises DegreeOverflowError instead of widening the type.
    """
    __slots__ = _fields = ("c0", "c1", "c2")

    def __init__(self, c0: Cyc3, c1: Cyc3, c2: Cyc3):
        self._init(c0, c1, c2)

    @classmethod
    def of(cls, c0=0, c1=0, c2=0) -> LinT:
        conv = lambda x: x if isinstance(x, Cyc3) else Cyc3(x)
        return cls(conv(c0), conv(c1), conv(c2))

    @classmethod
    def zero(cls) -> LinT:
        return cls.of()

    def has_t_part(self) -> bool:
        return bool(self.c1) or bool(self.c2)

    @staticmethod
    def _coerce(x) -> "LinT | None":
        if isinstance(x, LinT):
            return x
        if isinstance(x, (int, Fraction, Cyc3)):
            return LinT.of(x)
        return None

    def __add__(self, other) -> LinT:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LinT(self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2)

    __radd__ = __add__

    def __sub__(self, other) -> LinT:
        return self + (-other)

    def __rsub__(self, other) -> LinT:
        return (-self) + other

    def __neg__(self) -> LinT:
        return LinT(-self.c0, -self.c1, -self.c2)

    def __mul__(self, other) -> LinT:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.has_t_part() and o.has_t_part():
            raise DegreeOverflowError(f"t-degree 2 product: ({self}) * ({o})")
        if o.has_t_part():
            return LinT(self.c0 * o.c0, self.c0 * o.c1, self.c0 * o.c2)
        return LinT(self.c0 * o.c0, self.c1 * o.c0, self.c2 * o.c0)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"c0": self.c0.to_json(), "c1": self.c1.to_json(), "c2": self.c2.to_json()}

    def __str__(self) -> str:
        parts = []
        if bool(self.c0):
            parts.append(f"({self.c0})")
        if bool(self.c1):
            parts.append(f"({self.c1})*t1")
        if bool(self.c2):
            parts.append(f"({self.c2})*t2")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"LinT('{self}')"


# ---------------------------------------------------------------------------
# The multi-cover series
# ---------------------------------------------------------------------------

def _geometric_numerators(N: int) -> list[tuple[int, int]]:
    """h_n = w A_n(w) (2 + w)^(n+1) for 0 <= n <= N, each as the pair (a, b) of a + b*w.

    A_n(x) = sum_k A(n, k) x^k is the Eulerian polynomial (A_0 = 1), run
    by A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1); since w^3 = 1,
    A_n(w) folds its coefficients by k mod 3.  Everything is an integer.
    """
    numerators = []
    row = [1]          # A(n, k), 0 <= k < max(n, 1)
    power = (2, 1)     # (2 + w)^(n+1)
    for n in range(N + 1):
        if n:
            padded = [0] + row + [0]
            row = [(k + 1) * padded[k + 1] + (n - k) * padded[k] for k in range(n)]
        s0, s1, s2 = (sum(row[r::3]) for r in range(3))
        a, b = s2 - s1, s0 - s1          # w (s0 + s1 w + s2 w^2)
        c, d = power
        numerators.append((a * c - b * d, a * d + b * c - b * d))
        power = (2 * c - d, c + d)
    return numerators


def _check_geometric_numerators(h: Sequence[tuple[int, int]]) -> None:
    """Raise ArithmeticError at the first n where h breaks (1 - w e^u) G_w = w e^u.

    With G_w = sum_n h_n u^n / (3^(n+1) n!), the u^n coefficient of that
    equation times 3^(n+1) n! reads

        h_n - w * sum_(k <= n) C(n, k) 3^(n-k) h_k = 3^(n+1) w.

    The coefficient 1 - w of h_n is a unit, so the equation has one
    solution, and the pairs that pass it through n are G_w through u^n.
    """
    weights = [1]      # C(n, k) 3^(n-k), 0 <= k <= n
    power = 3          # 3^(n+1)
    for n, (a, b) in enumerate(h):
        sa = sum(wk * hk[0] for wk, hk in zip(weights, h))
        sb = sum(wk * hk[1] for wk, hk in zip(weights, h))
        # h_n - w (sa + sb w) = (a + sb) + (b - sa + sb) w
        if a + sb != 0 or b - sa + sb != power:
            raise ArithmeticError(
                f"geometric series numerator h_{n} = {(a, b)} breaks (1 - w e^u) G = w e^u")
        weights = [3 * x + y for x, y in zip(weights + [0], [0] + weights)]
        power *= 3


def geometric_exp_series(q: Cyc3, N: int) -> tuple[Cyc3, ...]:
    """The coefficients of u^0..u^N of G_q(u) = q e^u / (1 - q e^u) over Q(w), q in {w, w-bar}.

    The thrice-differentiated multi-cover sum sum_d (1/d^3) (q e^u)^d.  Its
    coefficients are n! [u^n] G_q = Li_(-n)(q) = q A_n(q) / (1 - q)^(n+1),
    A_n the Eulerian polynomial; since 1/(1 - w) = (2 + w)/3, at q = w that
    is h_n / 3^(n+1) for the integer pairs h_n of ``_geometric_numerators``.
    The pairs are checked against the defining equation (1 - w e^u) G_w =
    w e^u (``_check_geometric_numerators``, ArithmeticError) before any
    rational is formed, so no series is divided.  G_(w-bar) is the
    conjugate.  q = 1 raises ZeroDivisionError (1 - q e^u has constant
    term 0); any other q raises ValueError.
    """
    if q == 1:
        raise ZeroDivisionError("geometric series denominator has constant term 0")
    if q not in (OMEGA, OMEGA_BAR):
        raise ValueError(f"geometric series is built for q in {{w, w-bar}}, not {q}")
    h = _geometric_numerators(N)
    _check_geometric_numerators(h)
    if q == OMEGA_BAR:
        h = [(a - b, -b) for a, b in h]
    coeffs = []
    den = 3            # 3^(n+1) n!
    for n, (a, b) in enumerate(h):
        if n:
            den *= 3 * n
        coeffs.append(_cyc3(a, b, den))
    return tuple(coeffs)

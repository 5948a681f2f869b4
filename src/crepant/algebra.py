"""Exact scalar and truncated-series arithmetic.

Every quantity in this package is computed over one of the following
rings, all built on arbitrary-precision `fractions.Fraction`:

- ``Cyc3``: the field Q(w) for a primitive cube root of unity w, stored
  as a + b*w with the reduction rule w^2 = -1 - w.  The square root of
  -3 lives here as 2w + 1, so i/sqrt(3) is encoded as (2w + 1)/3.
- ``CycField(m)``: the general cyclotomic field Q[x]/Phi_m(x), used for
  the cyclic DuVal transforms.
- ``LinT``: polynomials c0 + c1*t1 + c2*t2 of t-degree at most one over
  Cyc3.  Products that would create t-degree two are rejected: every
  stable potential coefficient is t-linear, so such a product is a bug.
- ``USeries`` / ``BiSeries``: truncated power series in one or two
  variables over any of the above.  The truncation order is fixed at
  construction and mixing orders is an error; silent truncation
  mismatches are the dominant bug class in series code.

No floating point appears anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence


class DegreeOverflowError(ArithmeticError):
    """Raised when a product would exceed t-degree one in LinT."""


# ---------------------------------------------------------------------------
# Cyc3: the field Q(w), w^2 + w + 1 = 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Cyc3:
    """An element a + b*w of Q(w), w a primitive cube root of unity.

    >>> OMEGA * OMEGA == OMEGA_BAR
    True
    >>> I_SQRT3 * I_SQRT3
    Cyc3('-3')
    """
    a: Fraction
    b: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    @staticmethod
    def _coerce(x) -> "Cyc3 | None":
        if isinstance(x, Cyc3):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyc3(Fraction(x))
        return None

    def __add__(self, other) -> Cyc3:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc3(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other) -> Cyc3:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc3(self.a - o.a, self.b - o.b)

    def __rsub__(self, other) -> Cyc3:
        return -self + other

    def __neg__(self) -> Cyc3:
        return Cyc3(-self.a, -self.b)

    def __mul__(self, other) -> Cyc3:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + bw)(c + dw) with w^2 = -1 - w
        return Cyc3(self.a * o.a - self.b * o.b,
                    self.a * o.b + self.b * o.a - self.b * o.b)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Cyc3:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> Cyc3:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> Cyc3:
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyc3(Fraction(1))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        # Rational elements must hash like their Fraction value.
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def conjugate(self) -> Cyc3:
        """Complex conjugation: w -> w-bar, i.e. (a, b) -> (a - b, -b)."""
        return Cyc3(self.a - self.b, -self.b)

    def norm(self) -> Fraction:
        """z * conj(z) = a^2 - ab + b^2, a nonnegative rational."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> Cyc3:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        c = self.conjugate()
        return Cyc3(c.a / n, c.b / n)

    def is_rational(self) -> bool:
        return self.b == 0

    def as_rational(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} has a nonzero w-part")
        return self.a

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b)}

    @classmethod
    def from_json(cls, d: dict) -> Cyc3:
        return cls(Fraction(d["a"]), Fraction(d["b"]))

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            wpart = "w"
        elif self.b == -1:
            wpart = "-w"
        else:
            wpart = f"{self.b}w"
        if self.a == 0:
            return wpart
        sign = "+" if self.b > 0 else "-"
        mag = wpart.lstrip("-")
        return f"{self.a} {sign} {mag}"

    def __repr__(self) -> str:
        return f"Cyc3('{self}')"


OMEGA = Cyc3(Fraction(0), Fraction(1))
OMEGA_BAR = Cyc3(Fraction(-1), Fraction(-1))
I_SQRT3 = Cyc3(Fraction(1), Fraction(2))          # i*sqrt(3) = 2w + 1
I_OVER_SQRT3 = Cyc3(Fraction(1, 3), Fraction(2, 3))  # i/sqrt(3) = (2w + 1)/3


# ---------------------------------------------------------------------------
# CycField(m): Q[x]/Phi_m(x)
# ---------------------------------------------------------------------------

def _poly_trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        if c == 0:
            continue
        for j, d in enumerate(q):
            out[i + j] += c * d
    return _poly_trim(out)


def _poly_sub(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    n = max(len(p), len(q))
    p = list(p) + [Fraction(0)] * (n - len(p))
    q = list(q) + [Fraction(0)] * (n - len(q))
    return _poly_trim([a - b for a, b in zip(p, q)])


def _poly_divmod(n: Sequence[Fraction], d: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    n = list(n)
    d = _poly_trim(list(d))
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(n) - len(d) + 1, 0)
    r = _poly_trim(n)
    while len(r) >= len(d):
        t = r[-1] / d[-1]
        deg = len(r) - len(d)
        q[deg] = t
        for i, c in enumerate(d):
            r[deg + i] -= t * c
        r = _poly_trim(r)
    return _poly_trim(q), r


def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_m, computed by dividing x^m - 1 by all Phi_d, d|m, d<m.

    >>> [int(c) for c in cyclotomic_polynomial(6)]
    [1, -1, 1]
    """
    if m < 1:
        raise ValueError("m must be positive")
    poly: list[Fraction] = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            q, r = _poly_divmod(poly, cyclotomic_polynomial(d))
            if r:
                raise ArithmeticError(f"Phi_{d} does not divide x^{m} - 1")
            poly = q
    return tuple(poly)


class CycField:
    """The cyclotomic field Q(zeta_m), with elements reduced mod Phi_m."""

    def __init__(self, m: int):
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = len(self.modulus) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, CycField) and other.m == self.m

    def __hash__(self) -> int:
        return hash(("CycField", self.m))

    def __repr__(self) -> str:
        return f"CycField({self.m})"

    def _reduce(self, coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
        _, r = _poly_divmod(list(coeffs), list(self.modulus))
        r = r + [Fraction(0)] * (self.degree - len(r))
        return tuple(r)

    def element(self, coeffs: Sequence) -> CycElement:
        return CycElement(self, self._reduce([Fraction(c) for c in coeffs]))

    def zero(self) -> CycElement:
        return self.element([])

    def one(self) -> CycElement:
        return self.element([1])

    def from_rational(self, q) -> CycElement:
        return self.element([Fraction(q)])

    def zeta(self) -> CycElement:
        return self.element([0, 1])

    def zeta_pow(self, e: int) -> CycElement:
        """zeta^e for any integer e; zeta^m = 1 so the exponent reduces mod m."""
        e %= self.m
        return self.element([0] * e + [1])


@dataclass(frozen=True)
class CycElement:
    field: CycField
    coeffs: tuple[Fraction, ...]

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
        return CycElement(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other) -> CycElement:
        return self + (-other)

    def __rsub__(self, other) -> CycElement:
        return (-self) + other

    def __neg__(self) -> CycElement:
        return CycElement(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> CycElement:
        o = self._coerce(other, self.field)
        if o is None:
            return NotImplemented
        self._check(o)
        prod = _poly_mul(list(self.coeffs), list(o.coeffs))
        return CycElement(self.field, self.field._reduce(prod))

    __rmul__ = __mul__

    def __truediv__(self, other) -> CycElement:
        o = self._coerce(other, self.field)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n: int) -> CycElement:
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def inverse(self) -> CycElement:
        """Inverse mod Phi_m by the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        r0, r1 = list(self.field.modulus), _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]  # multipliers of self in r0, r1
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 is now the gcd, a nonzero constant since Phi_m is irreducible
        if len(r0) != 1:
            raise ArithmeticError("modulus not coprime to element")
        inv = [c / r0[0] for c in s0]
        return CycElement(self.field, self.field._reduce(inv))

    def to_coeff_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = "1" if i == 0 else ("z" if i == 1 else f"z^{i}")
            parts.append(f"{c}*{term}" if i > 0 else f"{c}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# LinT: c0 + c1*t1 + c2*t2 over Cyc3, t-degree <= 1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinT:
    """A polynomial c0 + c1*t1 + c2*t2 of degree at most one in (t1, t2).

    The equivariant parameters only ever appear linearly in stable
    coefficients, so a product of two elements with nonzero t-parts
    raises DegreeOverflowError instead of widening the type.
    """
    c0: Cyc3
    c1: Cyc3
    c2: Cyc3

    @classmethod
    def of(cls, c0=0, c1=0, c2=0) -> LinT:
        conv = lambda x: x if isinstance(x, Cyc3) else Cyc3(Fraction(x))
        return cls(conv(c0), conv(c1), conv(c2))

    @classmethod
    def zero(cls) -> LinT:
        return cls.of()

    def has_t_part(self) -> bool:
        return bool(self.c1) or bool(self.c2)

    def is_zero(self) -> bool:
        return not (bool(self.c0) or self.has_t_part())

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

    def evaluate(self, t1, t2) -> Cyc3:
        return self.c0 + self.c1 * t1 + self.c2 * t2

    def swap_t(self) -> LinT:
        """Exchange the roles of t1 and t2."""
        return LinT(self.c0, self.c2, self.c1)

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


T1 = LinT.of(0, 1, 0)
T2 = LinT.of(0, 0, 1)


# ---------------------------------------------------------------------------
# Truncated univariate series
# ---------------------------------------------------------------------------

def _inverse_of(c):
    if isinstance(c, Fraction):
        return Fraction(1) / c
    if isinstance(c, int):
        return Fraction(1, c)
    inv = getattr(c, "inverse", None)
    if inv is None:
        raise TypeError(f"no inverse for coefficient of type {type(c).__name__}")
    return inv()


@dataclass(frozen=True)
class USeries:
    """A power series truncated at a fixed order N: coefficients c_0..c_N.

    All arithmetic truncates at N.  Operands of different orders are
    rejected rather than silently truncated.
    """
    order: int
    coeffs: tuple

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(f"expected {self.order + 1} coefficients, got {len(self.coeffs)}")

    @classmethod
    def from_coeffs(cls, coeffs: Sequence, order: int | None = None) -> USeries:
        cs = list(coeffs)
        if not cs:
            raise ValueError("need at least one coefficient to fix the ring")
        if order is None:
            order = len(cs) - 1
        zero = cs[0] * 0
        cs = (cs + [zero] * (order + 1 - len(cs)))[:order + 1]
        return cls(order, tuple(cs))

    @classmethod
    def constant(cls, value, order: int) -> USeries:
        return cls.from_coeffs([value], order)

    def coefficient(self, k: int):
        return self.coeffs[k]

    def _zero(self):
        return self.coeffs[0] * 0

    def _check(self, other: USeries) -> None:
        if self.order != other.order:
            raise ValueError(f"mixed-order series arithmetic: {self.order} vs {other.order}")

    def __add__(self, other) -> USeries:
        if isinstance(other, USeries):
            self._check(other)
            return USeries(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        cs = list(self.coeffs)
        cs[0] = cs[0] + other
        return USeries(self.order, tuple(cs))

    __radd__ = __add__

    def __sub__(self, other) -> USeries:
        return self + (-other if isinstance(other, USeries) else (other * -1))

    def __rsub__(self, other) -> USeries:
        return (-self) + other

    def __neg__(self) -> USeries:
        return USeries(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> USeries:
        if not isinstance(other, USeries):
            return USeries(self.order, tuple(c * other for c in self.coeffs))
        self._check(other)
        zero = self._zero()
        out = [zero] * (self.order + 1)
        for i, c in enumerate(self.coeffs):
            if c == zero:
                continue
            for j in range(self.order + 1 - i):
                out[i + j] = out[i + j] + c * other.coeffs[j]
        return USeries(self.order, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> USeries:
        if not isinstance(other, USeries):
            inv = _inverse_of(other) if not isinstance(other, (int, Fraction)) else None
            if inv is not None:
                return self * inv
            return USeries(self.order, tuple(c / other for c in self.coeffs))
        self._check(other)
        return self * other.reciprocal()

    def __rtruediv__(self, other) -> USeries:
        return self.reciprocal() * other

    def reciprocal(self) -> USeries:
        """Multiplicative inverse; requires an invertible constant term."""
        try:
            h0 = _inverse_of(self.coeffs[0])
        except ZeroDivisionError:
            raise ZeroDivisionError("series divisor has non-invertible constant term") from None
        out = [h0] + [h0 * 0] * self.order
        for n in range(1, self.order + 1):
            acc = h0 * 0
            for k in range(1, n + 1):
                acc = acc + self.coeffs[k] * out[n - k]
            out[n] = -(h0 * acc)
        return USeries(self.order, tuple(out))

    def differentiate(self) -> USeries:
        """d/du; the result is known one order lower."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 truncation")
        return USeries(self.order - 1,
                       tuple(self.coeffs[k + 1] * (k + 1) for k in range(self.order)))

    def truncate(self, order: int) -> USeries:
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return USeries(order, self.coeffs[:order + 1])

    def scale_variable(self, lam) -> USeries:
        """The series f(lam * u)."""
        out = []
        p = None
        for k, c in enumerate(self.coeffs):
            p = (self.coeffs[0] * 0 + 1) if k == 0 else p * lam
            out.append(c * p)
        return USeries(self.order, tuple(out))

    def map_coeffs(self, fn: Callable) -> USeries:
        return USeries(self.order, tuple(fn(c) for c in self.coeffs))

    def __str__(self) -> str:
        parts = [f"({c})u^{k}" for k, c in enumerate(self.coeffs) if not (c == c * 0)]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(u^{self.order + 1})"


# ---------------------------------------------------------------------------
# Truncated bivariate series (truncation by total degree)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiSeries:
    """A power series in (x1, x2) truncated at total degree N.

    Coefficients are stored in triangular rows: rows[i][j] is the
    coefficient of x1^i x2^j, for i + j <= N.
    """
    order: int
    rows: tuple

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if len(self.rows) != self.order + 1:
            raise ValueError("row count must be order + 1")
        for i, row in enumerate(self.rows):
            if len(row) != self.order - i + 1:
                raise ValueError(f"row {i} must have {self.order - i + 1} entries")

    @classmethod
    def build(cls, order: int, fn: Callable[[int, int], object]) -> BiSeries:
        return cls(order, tuple(tuple(fn(i, j) for j in range(order - i + 1))
                                for i in range(order + 1)))

    @classmethod
    def zeros(cls, order: int, zero) -> BiSeries:
        return cls.build(order, lambda i, j: zero)

    def coefficient(self, i: int, j: int):
        return self.rows[i][j]

    def constant_term(self):
        return self.rows[0][0]

    def _zero(self):
        return self.rows[0][0] * 0

    def _check(self, other: BiSeries) -> None:
        if self.order != other.order:
            raise ValueError(f"mixed-order series arithmetic: {self.order} vs {other.order}")

    def __add__(self, other) -> BiSeries:
        if isinstance(other, BiSeries):
            self._check(other)
            return BiSeries.build(self.order,
                                  lambda i, j: self.rows[i][j] + other.rows[i][j])
        out = [list(r) for r in self.rows]
        out[0][0] = out[0][0] + other
        return BiSeries(self.order, tuple(tuple(r) for r in out))

    __radd__ = __add__

    def __sub__(self, other) -> BiSeries:
        return self + (-other if isinstance(other, BiSeries) else (other * -1))

    def __rsub__(self, other) -> BiSeries:
        return (-self) + other

    def __neg__(self) -> BiSeries:
        return self.map_coeffs(lambda c: -c)

    def __mul__(self, other) -> BiSeries:
        if not isinstance(other, BiSeries):
            return self.map_coeffs(lambda c: c * other)
        self._check(other)
        zero = self._zero()
        out = [[zero] * (self.order - i + 1) for i in range(self.order + 1)]
        for i1 in range(self.order + 1):
            for j1 in range(self.order - i1 + 1):
                c = self.rows[i1][j1]
                if c == zero:
                    continue
                for i2 in range(self.order - i1 - j1 + 1):
                    for j2 in range(self.order - i1 - j1 - i2 + 1):
                        out[i1 + i2][j1 + j2] = out[i1 + i2][j1 + j2] + c * other.rows[i2][j2]
        return BiSeries(self.order, tuple(tuple(r) for r in out))

    __rmul__ = __mul__

    def d_dx1(self) -> BiSeries:
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 truncation")
        return BiSeries.build(self.order - 1,
                              lambda i, j: self.rows[i + 1][j] * (i + 1))

    def d_dx2(self) -> BiSeries:
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 truncation")
        return BiSeries.build(self.order - 1,
                              lambda i, j: self.rows[i][j + 1] * (j + 1))

    def swap(self) -> BiSeries:
        """The series with x1 and x2 exchanged."""
        return BiSeries.build(self.order, lambda i, j: self.rows[j][i])

    def truncate(self, order: int) -> BiSeries:
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return BiSeries.build(order, lambda i, j: self.rows[i][j])

    def map_coeffs(self, fn: Callable) -> BiSeries:
        return BiSeries.build(self.order, lambda i, j: fn(self.rows[i][j]))

    def items(self):
        for i in range(self.order + 1):
            for j in range(self.order - i + 1):
                yield (i, j), self.rows[i][j]


# ---------------------------------------------------------------------------
# Series constructors
# ---------------------------------------------------------------------------

def exp_series(N: int) -> USeries:
    """exp(u) to order N over the rationals."""
    return USeries.from_coeffs([Fraction(1, math.factorial(k)) for k in range(N + 1)])


def tangent_series(N: int) -> USeries:
    """Maclaurin series of tan(u) to order N, computed as sin/cos exactly.

    >>> tangent_series(5).coeffs == (0, 1, 0, Fraction(1, 3), 0, Fraction(2, 15))
    True
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    sin = USeries.from_coeffs(
        [Fraction(0) if k % 2 == 0 else Fraction((-1) ** (k // 2), math.factorial(k))
         for k in range(N + 1)])
    cos = USeries.from_coeffs(
        [Fraction((-1) ** (k // 2), math.factorial(k)) if k % 2 == 0 else Fraction(0)
         for k in range(N + 1)])
    return sin / cos


def tau_series(N: int) -> USeries:
    """The rational odd series tau(u) = sqrt(3) * tan(u / sqrt(12)).

    Substituting u/sqrt(12) into tan and clearing one factor of sqrt(3)
    leaves rational coefficients: the u^(2k+1) coefficient is the tan
    coefficient times 3^(-k) * 2^(-(2k+1)).  tau carries the entire
    trigonometric content of the closed-form generating functions while
    staying inside Q.
    """
    tan = tangent_series(N)
    out = [Fraction(0)] * (N + 1)
    for k in range(N + 1):
        if k % 2 == 1:
            half = (k - 1) // 2
            out[k] = tan.coeffs[k] * Fraction(1, 3 ** half * 2 ** k)
    return USeries.from_coeffs(out)


def compose_linear(f: USeries, a, b, N: int) -> BiSeries:
    """The bivariate truncation of f(a*x1 + b*x2) to total degree N.

    The coefficient of x1^i x2^j is f_{i+j} * C(i+j, i) * a^i * b^j;
    requires f to be known at least to order N.
    """
    if f.order < N:
        raise ValueError(f"series of order {f.order} cannot be composed to degree {N}")
    one = f.coeffs[0] * 0 + 1
    apow = [one]
    bpow = [one]
    for _ in range(N):
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
    return BiSeries.build(
        N, lambda i, j: f.coeffs[i + j] * math.comb(i + j, i) * apow[i] * bpow[j])


def geometric_exp_series(q: Cyc3, N: int) -> USeries:
    """G_q(u) = q e^u / (1 - q e^u) over Q(w), truncated at order N.

    This is the thrice-differentiated closed form of the multi-cover sum
    sum_d (1/d^3) (q e^u)^d; it is a legitimate formal series whenever
    1 - q is invertible, which holds for q in {w, w-bar}.
    """
    e = exp_series(N).map_coeffs(Cyc3)
    num = e * q
    den = 1 - num
    if not bool(Cyc3(1) - q):
        raise ZeroDivisionError("geometric series denominator has constant term 0")
    return num / den

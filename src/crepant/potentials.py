"""The two genus-0 potentials and the coefficientwise comparison.

The resolution-side potential has two kinds of stable data: a cubic
polynomial in y0..y2 whose coefficients are the ten triple products of
1, C1, C2 (computed here by localization over the three fixed points,
each class by its number: 0 for 1, i for C_i),
and a multi-cover sum whose third derivative collapses to the geometric
series G_q(L) = q e^L / (1 - q e^L).  Its exponential coefficients are
the polylogarithms Li_(-n)(q), which ``geometric_exp_series`` builds
in integers from Eulerian numbers.  The orbifold-side potential
consists of cubic terms, the three-point values of
``orbifold_invariant``, plus the symmetrized Hurwitz-Hodge series.

The comparison works at the level of third partial derivatives: the raw
substitution q = w into the undifferentiated multi-cover sum is not a
formal power series, but after three derivatives the geometric form has
an invertible denominator (1 - w is a unit in Q(w)) and everything lives
in honest truncated series over t-linear coefficients, each held as the
plain tuple of its coefficients.  Equality of all
third partials pins every coefficient of total degree >= 3, and terms
with fewer than three insertions are zero by definition on both sides.

Each series-valued third partial, on either side, is a cubic constant
plus (t1 + t2) times a sum of univariate series composed with linear
forms in (x1, x2), each times its chain-rule factor u1^n1 u2^n2 for the
form u1 x1 + u2 x2 and n_i the count of i in the index.  On the orbifold
side the forms are the three L_k = w^k x1 + wbar^k x2, each carrying
A(-u)/6 with the unit factor w^(k(n1 - n2)); on the resolution side,
under the standard change of variables, the multi-cover pieces y1, y2
and y1 + y2 are multiples lam L_k, and a piece G_q(lam L_k) has the
factor lam^3 w^(k(n1 - n2)), the same unit times lam^3.  For d >= 2 the
d-th powers of three pairwise non-proportional binary forms are
linearly independent, so for every index at once degree d agrees
exactly when, for each k, the sum of lam^(d+3) G_q[d] over the pieces
on L_k equals [u^d] A(-u)/6: O(N) univariate comparisons per call
instead of O(N^2) bivariate ones per index.  Degrees 0 and 1, which hold
the cubic constants (and L_0 + L_1 + L_2 = 0), are compared index by
index, each side read to degree 1 from ``_coefficient_walk``, which
yields the x1^i x2^j coefficients of a side one at a time.  That one
read also gives a failing index's report: the walk yields x1^0 x2^j for
every j before x1^1 x2^0, so when the forms agree its first mismatch is
one of the three coefficients of degree <= 1.  A change of variables
whose pieces are not multiples of the L_k, or whose forms disagree, is
compared coefficient by coefficient on the same walks read to degree N.
Either read stops at the first mismatching monomial, which the report
gives.  No bivariate series is built and no two series are multiplied
here; the full bivariate partials ``fy_third_partial`` and
``fx_third_partial`` are the test oracle, in ``oracles``.

Degree bookkeeping: every stable coefficient is t-linear and lives in
LinT; the two degree -2 exceptions (the triple product of identity
classes on either side) travel on the dedicated InverseT1T2 channel and
are compared as literal multiples of 1/(t1*t2).

The comparison's own rings live here, beside their only production
consumer, so ``duval`` (which needs only ``algebra``'s Q(zeta_m)) never
compiles them: the field Q(w) (``Cyc3``, with i/sqrt(3) = (2w + 1)/3),
the t-linear polynomials over it (``LinT``) and ``geometric_exp_series``.
Their subtraction, and the powers and equality of ``Cyc3``, come from the
bases ``Ring`` and ``Number`` in ``record``, which also define how Q(w)
compares with Q(zeta_m), so this module never imports ``algebra``.  It
loads only ``record`` itself: ``HodgeTable`` is named in annotations
alone, so ``localization`` never compiles ``hurwitz``.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache, cached_property
from typing import TYPE_CHECKING, Sequence

from .record import Number, Record, Ring, _rational

if TYPE_CHECKING:
    from .hurwitz import HodgeTable


class DegreeOverflowError(ArithmeticError):
    """Raised when a product would exceed t-degree one in LinT."""


# ---------------------------------------------------------------------------
# Cyc3: the field Q(w), w^2 + w + 1 = 0
# ---------------------------------------------------------------------------

class Cyc3(Number):
    """An element (na + nb*w)/den of Q(w), w a primitive cube root of unity.

    ``Cyc3(a, b)`` is a + b*w for ints or Fractions a and b.  It is stored
    as integer numerators over one positive denominator in lowest terms,
    gcd(na, nb, den) == 1 with zero as 0/1, and every operation reduces
    its result once, so equal elements have equal fields.  ``a`` and
    ``b`` are the Fraction views na/den and nb/den.  Subtraction, powers
    and equality are ``Number``'s: a rational element compares and hashes
    like its Fraction, and equals a rational ``CycElement`` of the same
    value; an irrational element never equals a ``CycElement``, not even
    zeta_3 in ``CycField(3)``.  Nothing divides in Q(w), so there is no
    inverse and no negative power (ValueError).

    >>> OMEGA * OMEGA == OMEGA_BAR
    True
    >>> Cyc3(1, 2) * Cyc3(1, 2)
    Cyc3('-3')
    """
    __slots__ = _fields = ("na", "nb", "den")

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

    def _one(self) -> Cyc3:
        return _cyc3(1, 0, 1)

    def _fraction(self) -> Fraction | None:
        return None if self.nb else Fraction(self.na, self.den)

    def __hash__(self) -> int:
        # An irrational element hashes like its pair of coordinates.
        return hash((self.a, self.b)) if self.nb else super().__hash__()

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
# LinT: c0 + c1*t1 + c2*t2 over Cyc3, t-degree <= 1
# ---------------------------------------------------------------------------

class LinT(Ring):
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



class InverseT1T2(Record):
    """A rational multiple of 1/(t1*t2): the single degree -2 value."""
    __slots__ = _fields = ("scale",)

    def __init__(self, scale: Fraction):
        self._init(scale)

    def to_json(self) -> dict:
        return {"inverse_t1t2_scale": str(self.scale)}

    def __str__(self) -> str:
        return f"({self.scale})/(t1*t2)"


# ---------------------------------------------------------------------------
# Fixed-point data and localization
# ---------------------------------------------------------------------------

class FixedPointData(Record):
    """Torus weights at the three fixed points of the resolved surface.

    ``tangent_weights[p]`` is the pair of tangent-space weights at fixed
    point p; ``bundle_weights[i][p]`` is the weight of the line bundle
    dual to the i-th exceptional curve at fixed point p.  No
    ``__slots__``: ``sample_values`` is cached in the instance dict.
    ``standard()`` returns one shared instance, so its sample values are
    computed once per process.
    """
    _fields = ("tangent_weights", "bundle_weights")

    def __init__(self, tangent_weights: tuple[tuple[LinT, LinT], ...],
                 bundle_weights: tuple[tuple[LinT, LinT, LinT], ...]):
        self._init(tangent_weights, bundle_weights)

    @classmethod
    @cache
    def standard(cls) -> FixedPointData:
        w = LinT.of
        return cls(
            tangent_weights=(
                (w(0, 3, 0), w(0, -2, 1)),
                (w(0, 2, -1), w(0, -1, 2)),
                (w(0, 1, -2), w(0, 0, 3)),
            ),
            bundle_weights=(
                (w(0, -2, 0), w(0, 0, -1), w(0, 0, -1)),
                (w(0, -1, 0), w(0, -1, 0), w(0, 0, -2)),
            ),
        )

    @cached_property
    def sample_values(self) -> tuple[dict[tuple[int, int], list[tuple[tuple[int, ...], int]]], int]:
        """The localization terms at every verify point, over one denominator.

        Classes are numbered as in ``CLASS_IDS``: 0 for the class 1, of
        weight 1, and i for C_i.  Every class weight, at every verify point
        and fixed point, is W[i]/D, and every 1/(e1*e2) is R/L, for integers
        W[i] and R and common denominators D and L.  The triple product of
        classes i, j, k at a point is then sum_p W[i] W[j] W[k] R / (D^3 L).
        The value is ({point: [(W, R) per fixed point]}, D^3 L), with each
        W the tuple of class weights, evaluated once for all triple products.
        """
        weights, tangents = {}, {}
        for t1, t2 in _VERIFY_POINTS:
            at = lambda w: (w.c0 + w.c1 * t1 + w.c2 * t2).as_rational()
            weights[t1, t2] = [(Fraction(1), *(at(bundle[p]) for bundle in self.bundle_weights))
                               for p in range(len(self.tangent_weights))]
            tangents[t1, t2] = [at(e1) * at(e2) for e1, e2 in self.tangent_weights]
            if 0 in tangents[t1, t2]:
                raise ZeroDivisionError(f"tangent weight vanishes at {(t1, t2)}")
        D = math.lcm(*(v.denominator for ws in weights.values() for w in ws for v in w))
        L = math.lcm(*(e.numerator for es in tangents.values() for e in es))
        terms = {point: [(tuple(v.numerator * (D // v.denominator) for v in w),
                          L * e.denominator // e.numerator)
                         for w, e in zip(weights[point], tangents[point])]
                 for point in _VERIFY_POINTS}
        return terms, D ** 3 * L


CLASS_IDS = ("1", "C1", "C2")

# Verify points (t1, t2) avoiding every tangent-weight zero t1 = 0,
# t2 = 0, t2 = 2 t1, t1 = 2 t2.  Three of them, (3, 1), (4, 1) and
# (1, 4), reconstruct a t-linear value; the sum of localization
# fractions times the common denominator is homogeneous of degree <= 7,
# so agreement at the eight points on the t2 = 1 line proves the
# identity, not merely samples it.
_VERIFY_POINTS = [(k, 1) for k in range(3, 11)] + [(1, 4), (1, 7)]


def triple_intersection(a: str, b: str, c: str,
                        data: FixedPointData | None = None) -> LinT | InverseT1T2:
    """The equivariant triple product of classes in {1, C1, C2}.

    Computed purely from the fixed-point weights as a localization sum f
    at every verify point, and read off as scale/(t1*t2), scale =
    3 f(3, 1), for three identity classes, else as c0 + c1 t1 + c2 t2
    with c1 = f(4, 1) - f(3, 1), c2 = (f(1, 4) - f(3, 1) + 2 c1)/3 and
    c0 = f(3, 1) - 3 c1 - c2; a miss at any point raises ArithmeticError.
    The class names are turned into their numbers in ``CLASS_IDS`` once,
    and each f is one sum over the (W, R) terms of ``sample_values``,
    an integer F = sum W[i] W[j] W[k] R over its one denominator den, so
    the fit and its checks run on F, and on 3 den (c0, c1, c2), in
    integers.
    """
    if data is None:
        data = FixedPointData.standard()
    classes = (a, b, c)
    for cls_id in classes:
        if cls_id not in CLASS_IDS:
            raise ValueError(f"unknown class id {cls_id!r}")
    i, j, k = map(CLASS_IDS.index, classes)
    terms, den = data.sample_values
    F = {point: sum(W[i] * W[j] * W[k] * R for W, R in terms[point]) for point in _VERIFY_POINTS}

    if classes == ("1", "1", "1"):
        scale = F[3, 1] * 3
        if any(value * t1 * t2 != scale for (t1, t2), value in F.items()):
            raise ArithmeticError(
                "localization sum is not a multiple of 1/(t1*t2)")
        return InverseT1T2(Fraction(scale, den))

    c1 = 3 * (F[4, 1] - F[3, 1])
    c2 = F[1, 4] - F[3, 1] + 2 * (F[4, 1] - F[3, 1])
    c0 = 3 * F[3, 1] - 3 * c1 - c2
    for (t1, t2), value in F.items():
        if 3 * value != c0 + c1 * t1 + c2 * t2:
            raise ArithmeticError(
                f"localization sum for {classes} does not simplify to a "
                "t-linear value; fixed-point weights are corrupted")
    return LinT.of(*(Fraction(x, 3 * den) for x in (c0, c1, c2)))


def orbifold_invariant(n1: int, n2: int, table: HodgeTable, *, n0: int = 0) -> LinT | InverseT1T2:
    """The genus-0 orbifold invariant with n0, n1, n2 insertions of 1, D1, D2.

    For pure twisted insertions with n1 + n2 > 3 the value is
    (t1 + t2)/2 * (-1)^(g-1) * A_g with g = n1 + n2 - 2, vanishing unless
    n1 = n2 (mod 3).  Identity insertions survive only in the two cubic
    cases (the point axiom kills the rest); the triple identity product
    is the degree -2 value 1/(3 t1 t2).
    """
    if min(n0, n1, n2) < 0:
        raise ValueError("insertion counts must be nonnegative")
    total = n0 + n1 + n2
    if total < 3:
        raise ValueError("unstable invariant (fewer than three insertions)")
    if n0 > 0:
        if total > 3:
            return LinT.zero()
        if n0 == 3:
            return InverseT1T2(Fraction(1, 3))
        if (n0, n1, n2) == (1, 1, 1):
            return LinT.of(Fraction(1, 3))
        return LinT.zero()
    if (n1 - n2) % 3 != 0:
        return LinT.zero()
    if total == 3:
        return LinT.of(0, Fraction(1, 3), 0) if n1 == 3 else LinT.of(0, 0, Fraction(1, 3))
    g = n1 + n2 - 2
    if table.max_genus < g:
        raise ValueError(f"table holds genus <= {table.max_genus}, need {g}")
    half = table.A[g] * Fraction((-1) ** (g - 1), 2)
    return LinT.of(0, half, half)


# ---------------------------------------------------------------------------
# Change of variables
# ---------------------------------------------------------------------------

class ChangeOfVars(Record):
    """The cyclotomic substitution identifying the two sets of variables.

    jacobian[a][i] = dy_{a+1}/dx_{i+1} (constant); the identity-sector
    variable maps through unchanged and the quantum parameters are set to
    the primitive cube root of unity.
    """
    __slots__ = _fields = ("jacobian", "q_values")

    def __init__(self, jacobian: tuple[tuple[Cyc3, Cyc3], tuple[Cyc3, Cyc3]],
                 q_values: tuple[Cyc3, Cyc3]):
        self._init(jacobian, q_values)

    @classmethod
    def standard(cls) -> ChangeOfVars:
        c = I_OVER_SQRT3
        return cls(
            jacobian=((c * OMEGA, c * OMEGA_BAR), (c * OMEGA_BAR, c * OMEGA)),
            q_values=(OMEGA, OMEGA),
        )


# ---------------------------------------------------------------------------
# Series-valued third partials
# ---------------------------------------------------------------------------

# The orbifold-side linear forms L_k = w^k x1 + wbar^k x2, as (w^k, wbar^k).
_FORMS = ((Cyc3(1), Cyc3(1)), (OMEGA, OMEGA_BAR), (OMEGA_BAR, OMEGA))


def _form_of(u1: Cyc3, u2: Cyc3) -> tuple[int, Cyc3] | None:
    """(k, lam) with u1 x1 + u2 x2 = lam * L_k, or None when it is off every L_k.

    w^k is a unit with inverse conj(w^k) = wbar^k, so lam = u1 wbar^k.
    """
    for k, (_, wbar_k) in enumerate(_FORMS):
        lam = u1 * wbar_k
        if lam * wbar_k == u2:
            return k, lam
    return None


def _chain(idx: tuple[int, int, int], u1: Cyc3, u2: Cyc3) -> Cyc3:
    """u1^n1 u2^n2, n_i the count of i in idx: the chain-rule factor of f(u1 x1 + u2 x2)."""
    return u1 ** idx.count(1) * u2 ** idx.count(2)


def _coefficient_walk(idx: tuple[int, int, int], cubic: LinT, terms, N: int):
    """Yield ((i, j), c) for cubic + (t1 + t2) * sum of chain * series(u1 x1 + u2 x2).

    c is the coefficient of x1^i x2^j, for i + j <= N, in the order
    i = 0..N and then j = 0..N - i.  The sum runs over (u1, u2, series) in
    terms, chain is ``_chain``, and the coefficient of one term is
    chain * series[i+j] * C(i+j, i) * u1^i * u2^j.  Every series-valued
    third partial of either potential has this shape.  Each coefficient is
    formed when it is read, and only series[:N + 1] is scaled, so a
    reader that stops early, or reads to a low N, pays only for what it
    read.
    """
    zero = Cyc3(0)
    factors = []
    for u1, u2, series in terms:
        chain = _chain(idx, u1, u2)
        p1, p2 = [Cyc3(1)], [Cyc3(1)]
        for _ in range(N):
            p1.append(p1[-1] * u1)
            p2.append(p2[-1] * u2)
        factors.append(([chain * c for c in series[:N + 1]], p1, p2))
    for i in range(N + 1):
        for j in range(N - i + 1):
            n = i + j
            binom = math.comb(n, i)
            z = zero
            for scaled, p1, p2 in factors:
                z = z + scaled[n] * binom * p1[i] * p2[j]
            c = LinT(zero, z, z)
            yield (i, j), c + cubic if n == 0 else c


# ---------------------------------------------------------------------------
# The resolution potential
# ---------------------------------------------------------------------------

# The ten sorted third-partial indices, (0, 0, 0) through (2, 2, 2); 0 is the class 1.
ALL_INDICES = list(itertools.combinations_with_replacement(range(3), 3))


def _triple_products(data: FixedPointData) -> dict[tuple[int, int, int], LinT | InverseT1T2]:
    """The ten triple products of 1, C1, C2, keyed by the indices of ``ALL_INDICES``."""
    return {key: triple_intersection(*(CLASS_IDS[i] for i in key), data=data)
            for key in ALL_INDICES}


def _cubic_partial(idx: tuple[int, int, int], J, products) -> LinT | InverseT1T2:
    """The constant third partial sum <a,b,c> Je[a][i] Je[b][j] Je[c][k] of F^Y.

    Je is the jacobian extended by y0 = x0, summed over its nonzero
    entries only; idx (0, 0, 0) alone reaches the degree -2 <1,1,1>.
    """
    if idx == (0, 0, 0):
        return products[idx]
    one, zero = Cyc3(1), Cyc3(0)
    extended = ((one, zero, zero), (zero, *J[0]), (zero, *J[1]))
    columns = [[(a, extended[a][i]) for a in range(3) if extended[a][i]] for i in idx]
    cubic = LinT.zero()
    for (a, fa), (b, fb), (c, fc) in itertools.product(*columns):
        cubic = cubic + products[tuple(sorted((a, b, c)))] * (fa * fb * fc)
    return cubic


def _multicover_pieces(cov: ChangeOfVars, N: int) -> list[tuple[Cyc3, Cyc3, tuple]]:
    """The pieces (q1, y1), (q2, y2), (q1 q2, y1 + y2) as (u1, u2, G_q).

    (u1, u2) is the piece's linear form in x and G_q the coefficients of
    u^0..u^N of the geometric series.  Each distinct q builds its
    geometric series once, and G_(conj q) is the conjugate of G_q (e^u is
    rational), so G_w and G_(w-bar) share one build and check.
    """
    J = cov.jacobian
    q1, q2 = cov.q_values
    geometric = {}
    pieces = []
    for q, u1, u2 in ((q1, J[0][0], J[0][1]), (q2, J[1][0], J[1][1]),
                      (q1 * q2, J[0][0] + J[1][0], J[0][1] + J[1][1])):
        if q not in geometric:
            conj = geometric.get(q.conjugate())
            geometric[q] = (geometric_exp_series(q, N) if conj is None
                            else tuple(c.conjugate() for c in conj))
        pieces.append((u1, u2, geometric[q]))
    return pieces


def _coefficients_on_forms(pieces, N: int) -> list[list[Cyc3]] | None:
    """For each L_k, sum of lam^(d+3) G_q[d] over the pieces G_q(lam L_k), d <= N.

    A piece on lam L_k enters every index with chain factor
    lam^3 w^(k(n1-n2)), so these lists times that unit are its
    coefficients along L_k.  None when some piece lies off every L_k.
    """
    sums = [[Cyc3(0)] * (N + 1) for _ in _FORMS]
    for u1, u2, G in pieces:
        form = _form_of(u1, u2)
        if form is None:
            return None
        k, lam = form
        row, scale = sums[k], lam ** 3
        for d, c in enumerate(G):
            row[d] = row[d] + scale * c
            scale = scale * lam
    return sums


# ---------------------------------------------------------------------------
# The orbifold potential
# ---------------------------------------------------------------------------

def _orbifold_series(table: HodgeTable, N: int) -> tuple[Cyc3, ...]:
    """The coefficients of u^0..u^N of A(-u)/6 without its constant term, over Q(w).

    1/6 is the 1/3 of the average over the three forms times the 1/2 of
    the (t1 + t2)/2 weight.  The constant (genus-1) term is carried by the
    explicit cubic part of the potential instead, which is
    t1/t2-asymmetric where the symmetrized series is not.
    """
    if table.max_genus < N + 1:
        raise ValueError(
            f"table holds genus <= {table.max_genus}, need {N + 1} for order {N}")
    return (Cyc3(0), *(Cyc3(table.A[m + 1] * Fraction((-1) ** m, 6 * math.factorial(m)))
                       for m in range(1, N + 1)))


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------

def _first_mismatch(fy, fx):
    """The first difference of two scalars, or of two coefficient walks read in step.

    The scalars of one index are of one type: InverseT1T2 for 000 and
    LinT for every other index, on both sides.

    A walk yields ((i, j), coefficient) (``_coefficient_walk``); reading
    stops at the first coefficient that differs.  None when they agree.
    """
    if isinstance(fy, (LinT, InverseT1T2)):
        if fy != fx:
            return {"monomial": "1", "fy": fy.to_json(), "fx": fx.to_json()}
        return None
    for ((i, j), a), (_, b) in zip(fy, fx):
        if a != b:
            return {"monomial": f"x1^{i} x2^{j}", "fy": a.to_json(), "fx": b.to_json()}
    return None


def verify_crc(N: int, table: HodgeTable, cov: ChangeOfVars | None = None,
               data: FixedPointData | None = None) -> dict:
    """Compare every third partial of the two potentials to truncation N.

    Series-valued indices are compared to total degree N - 3 (third
    derivatives of degree-N potential coefficients); scalar indices are
    compared exactly.  Passing every index certifies the identity of the
    potentials to order N, the sub-cubic terms being zero by definition.

    The ten triple products, the geometric series and the orbifold series
    do not depend on the index and are built once per call.  Degrees
    d >= 2 are compared once for every series index, form by form: for
    each L_k, the sum of lam^(d+3) G_q[d] over the pieces G_q(lam L_k)
    against [u^d] A(-u)/6, since the chain factors of both sides on L_k
    differ from those by the same unit w^(k(n1-n2)) (see the module
    docstring).  Degrees 0 and 1, which hold the cubic constants, are
    compared index by index, reading both sides' ``_coefficient_walk``
    once, to degree min(N - 3, 1).  A failing index is reported from that
    same read: the walk yields x1^0 x2^j for every j before x1^1 x2^0,
    and the forms agree in every degree >= 2, so the first mismatch of
    the full walk is its first mismatch of degree <= 1.  When a piece of
    the change of variables lies off every L_k, or the forms disagree,
    every series index is read once to degree N - 3 instead, coefficient
    by coefficient in the order of ``_coefficient_walk``.  Either read
    stops at the first mismatching monomial, which the report gives; no
    bivariate series is built.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    order = N - 3
    if cov is None:
        cov = ChangeOfVars.standard()
    if data is None:
        data = FixedPointData.standard()
    products = _triple_products(data)
    pieces = _multicover_pieces(cov, order)
    orbifold = _orbifold_series(table, order)
    orbifold_terms = [(a, b, orbifold) for a, b in _FORMS]
    on_forms = _coefficients_on_forms(pieces, order)
    high = list(orbifold[2:])
    forms_agree = on_forms is not None and all(c[2:] == high for c in on_forms)
    depth = min(order, 1) if forms_agree else order
    checks = []
    all_pass = True
    for idx in ALL_INDICES:
        fy_cubic = _cubic_partial(idx, cov.jacobian, products)
        fx_cubic = orbifold_invariant(idx.count(1), idx.count(2), table, n0=idx.count(0))
        if 0 in idx:
            mismatch = _first_mismatch(fy_cubic, fx_cubic)
        else:
            mismatch = _first_mismatch(_coefficient_walk(idx, fy_cubic, pieces, depth),
                                       _coefficient_walk(idx, fx_cubic, orbifold_terms, depth))
        ok = mismatch is None
        all_pass = all_pass and ok
        checks.append({
            "idx": "".join(str(i) for i in idx),
            "status": "pass" if ok else "fail",
            "first_mismatch": mismatch,
        })
    return {"order": N, "checks": checks, "all_pass": all_pass}

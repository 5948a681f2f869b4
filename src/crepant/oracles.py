"""Test oracles: the series arithmetic, closed forms and bivariate partials the tests compare against.

The production modules compute the Hodge table on integers
(``hurwitz``), the multi-cover series from Eulerian numbers
(``potentials.geometric_exp_series``) and compare the potentials form by
form, or coefficient by coefficient up to the first mismatch
(``potentials``), on plain coefficient tuples.  The routes here are the
slower, more literal ones they are checked against:

- the truncated series classes ``USeries`` and ``BiSeries`` with their
  arithmetic, the composition f(a x1 + b x2) (``compose_linear``), the
  one series reciprocal and the Q(w) inverse it needs;
- tan as sin/cos, the tau quotients of the Appendix's closed formulas,
  the multi-cover series as 1/(1 - q e^u) - 1, the term-by-term theta
  double sum and the substitution f(lam u);
- gamma_g by enumerating all 2^(g+2) subsets of the markings
  (``gamma_bruteforce``), and delta_g as the literal alternating binomial
  sum over the admissible labels (``delta_direct``), against the one walk
  of subset counts by size mod 6 of ``hurwitz.marking_counts``;
- two integer statements that ``hurwitz.build_hodge_table`` no longer
  checks, because a kept check decides each: the A-bullet WDVV recursion
  (``_abullet_scaled_recursive``), which reproduces beta = 2b - 1/b for
  every b with b_0 = 1, and the ODE of B (``_ode_residuals``), whose
  residual at order n is the B recursion's at genus n + 2; these and the
  theta double sum take their binomials from ``math.comb``, so no oracle
  shares a Pascal walk with the kernel it checks;
- the weights of one pair (r, s) by a three-term recurrence in k
  (``_mod3_weights``), and the weighted sums of one degree on them
  (``_degree_sums``), the (X, Y) form of the theta totals that the
  component systems below sum; production decides theta in (P, Q) with
  no weights (``components._pq_coefficients``) and imports neither;
- the per-component integrals A_g^l of each genus g >= 4, solved from
  their linear system (``solve_components``, with ``solve_chain`` and
  ``_over_common_denominator``), which must give A_g at every label where
  the table's component line, decided on the theta totals, passes;
- the full bivariate third partials ``fy_third_partial`` and
  ``fx_third_partial``, each summed from composed series, with the
  bivariate product, derivatives and the t1 <-> t2 swap.

No production module imports this one, and no production module
multiplies or divides a series; ``tests/test_cli.py`` checks that no
subcommand loads it and that no production module imports it.  It
imports nothing from ``components``, so no oracle here shares the theta
kernel it is compared with.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .hurwitz import HodgeTable, _nu, _scaled_series
from .potentials import (_FORMS, ChangeOfVars, Cyc3, FixedPointData, LinT, _chain,
                         _cubic_partial, _cyc3, _multicover_pieces, _orbifold_series,
                         _triple_products, orbifold_invariant)
from .record import Record


# ---------------------------------------------------------------------------
# Truncated univariate series
# ---------------------------------------------------------------------------

class USeries(Record):
    """A power series truncated at a fixed order N: coefficients c_0..c_N.

    All arithmetic truncates at N.  Operands of different orders are
    rejected rather than silently truncated.
    """
    __slots__ = _fields = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple):
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(coeffs)}")
        self._init(order, coeffs)

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

    def map_coeffs(self, fn: Callable) -> USeries:
        return USeries(self.order, tuple(fn(c) for c in self.coeffs))


# ---------------------------------------------------------------------------
# Truncated bivariate series (truncation by total degree)
# ---------------------------------------------------------------------------

class BiSeries(Record):
    """A power series in (x1, x2) truncated at total degree N.

    Coefficients are stored in triangular rows: rows[i][j] is the
    coefficient of x1^i x2^j, for i + j <= N.
    """
    __slots__ = _fields = ("order", "rows")

    def __init__(self, order: int, rows: tuple):
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(rows) != order + 1:
            raise ValueError("row count must be order + 1")
        for i, row in enumerate(rows):
            if len(row) != order - i + 1:
                raise ValueError(f"row {i} must have {order - i + 1} entries")
        self._init(order, rows)

    @classmethod
    def build(cls, order: int, fn: Callable[[int, int], object]) -> BiSeries:
        return cls(order, tuple(tuple(fn(i, j) for j in range(order - i + 1))
                                for i in range(order + 1)))

    @classmethod
    def zeros(cls, order: int, zero) -> BiSeries:
        return cls.build(order, lambda i, j: zero)

    def coefficient(self, i: int, j: int):
        return self.rows[i][j]

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
        """A scalar multiple; the series product is ``biseries_product``."""
        if isinstance(other, BiSeries):
            return NotImplemented
        return self.map_coeffs(lambda c: c * other)

    __rmul__ = __mul__

    def map_coeffs(self, fn: Callable) -> BiSeries:
        return BiSeries.build(self.order, lambda i, j: fn(self.rows[i][j]))

    def items(self):
        for i in range(self.order + 1):
            for j in range(self.order - i + 1):
                yield (i, j), self.rows[i][j]


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


# ---------------------------------------------------------------------------
# The Q(w) inverse, the closed forms and the series operations
# ---------------------------------------------------------------------------

def cyc3_inverse(z: Cyc3) -> Cyc3:
    """1/z in Q(w), as conj(z) / (z * conj(z)); the norm x^2 - xy + y^2 of x + yw is positive."""
    x, y = z.na, z.nb
    norm = x * x - x * y + y * y
    if norm == 0:
        raise ZeroDivisionError("inverse of zero in Q(w)")
    return _cyc3((x - y) * z.den, -y * z.den, norm)


def series_reciprocal(f: USeries) -> USeries:
    """1/f to the order of f, over Q or Q(w); the constant term must be invertible."""
    c0 = f.coeffs[0]
    if not c0:
        raise ZeroDivisionError("series divisor has non-invertible constant term")
    h0 = cyc3_inverse(c0) if isinstance(c0, Cyc3) else 1 / Fraction(c0)
    out = [h0]
    for n in range(1, f.order + 1):
        acc = h0 * 0
        for k in range(1, n + 1):
            acc = acc + f.coeffs[k] * out[n - k]
        out.append(-(h0 * acc))
    return USeries(f.order, tuple(out))


def geometric_series_by_reciprocal(q: Cyc3, N: int) -> USeries:
    """G_q(u) = q e^u / (1 - q e^u) to order N as 1/(1 - q e^u) - 1.

    The series-division route of ``potentials.geometric_exp_series``, for any
    q != 1 in Q(w).
    """
    exp = USeries.from_coeffs([Cyc3(Fraction(1, math.factorial(k))) for k in range(N + 1)])
    return series_reciprocal(1 - exp * q) - 1


def scale_variable(f: USeries, lam) -> USeries:
    """The series f(lam * u)."""
    return USeries(f.order, tuple(c * lam ** k for k, c in enumerate(f.coeffs)))


def tangent_series(N: int) -> USeries:
    """Maclaurin series of tan(u) to order N, computed as sin/cos exactly.

    The Fraction oracle of ``hurwitz.tangent_numbers``.

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
    return sin * series_reciprocal(cos)


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


def b_closed(N: int) -> USeries:
    """B(u) to order N as the rational quotient (1 + tau/3)/(1 - tau)."""
    tau = tau_series(N)
    return (tau * Fraction(1, 3) + 1) * series_reciprocal(1 - tau)


def a_closed(N: int) -> USeries:
    """A(u) to order N as the rational quotient (1 + tau)/(3 - tau)."""
    tau = tau_series(N)
    return (tau + 1) * series_reciprocal(3 - tau)


def abullet_functional(N: int) -> USeries:
    """A-bullet(u) to order N as (2B - 1/B)/3, i.e. 1 + 3*Ab*B = 2*B^2."""
    B = b_closed(N)
    return (B * 2 - series_reciprocal(B)) * Fraction(1, 3)


def theta_pair(N: int) -> tuple[BiSeries, BiSeries]:
    """The double-sum series theta_0 and theta_1 to total degree N.

    theta_{i,r,s} sums C(r,x) C(s,y) A_{1+x+y} A_{1+(r-x)+(s-y)} over
    pairs with x - y = i (mod 3); coefficients are stored divided by
    r! s! (exponential normalization), and vanish unless r = s (mod 3).
    The sum runs in integers on alpha_k = 3 * 6^k A_(k+1) from
    ``hurwitz._scaled_series``: the two A indices of every term sum to
    r + s + 2, so each coefficient is one Fraction(total, 9 * 6^(r+s) r! s!).
    Its binomials come from ``math.comb``, not from a Pascal walk.

    It is the test oracle of ``components.theta_check``, which sums no
    double sum: it decides the same statement on e_2 in the coordinates
    (P, Q), by the identity in the ``hurwitz`` module docstring.
    """
    _, alpha, _ = _scaled_series(N)
    fact = [math.factorial(n) for n in range(N + 1)]

    def entry(i_residue: int, r: int, s: int) -> Fraction:
        if (r - s) % 3 != 0:
            return Fraction(0)
        total = 0
        for x in range(r + 1):
            total += math.comb(r, x) * sum(
                math.comb(s, y) * alpha[x + y] * alpha[r + s - x - y]
                for y in range((x - i_residue) % 3, s + 1, 3))
        return Fraction(total, 9 * 6 ** (r + s) * fact[r] * fact[s])

    theta0 = BiSeries.build(N, lambda r, s: entry(0, r, s))
    theta1 = BiSeries.build(N, lambda r, s: entry(1, r, s))
    return theta0, theta1


def biseries_product(f: BiSeries, g: BiSeries) -> BiSeries:
    """f * g to their common total degree; each coefficient sums over its splits."""
    f._check(g)
    zero = f.rows[0][0] * 0
    return BiSeries.build(f.order, lambda i, j: sum(
        (f.rows[a][b] * g.rows[i - a][j - b] for a in range(i + 1) for b in range(j + 1)), zero))


def d_dx1(f: BiSeries) -> BiSeries:
    """d/dx1; the result is known to one total degree lower."""
    if f.order == 0:
        raise ValueError("cannot differentiate an order-0 truncation")
    return BiSeries.build(f.order - 1, lambda i, j: f.rows[i + 1][j] * (i + 1))


def d_dx2(f: BiSeries) -> BiSeries:
    """d/dx2; the result is known to one total degree lower."""
    if f.order == 0:
        raise ValueError("cannot differentiate an order-0 truncation")
    return BiSeries.build(f.order - 1, lambda i, j: f.rows[i][j + 1] * (j + 1))


def swap_t(value: LinT) -> LinT:
    """Exchange the roles of t1 and t2."""
    return LinT(value.c0, value.c2, value.c1)


def swap_series(series: BiSeries) -> BiSeries:
    """Apply the simultaneous swap x1 <-> x2, t1 <-> t2 to a LinT series."""
    return BiSeries.build(series.order, lambda i, j: swap_t(series.rows[j][i]))


# ---------------------------------------------------------------------------
# The marking counts by subset enumeration and by binomial sum
# ---------------------------------------------------------------------------

GAMMA_ENUMERATION_CAP = 20  # 2^(g+2) subsets: about 4 million at the cap


def gamma_bruteforce(g: int) -> int:
    """Count unordered marking partitions S | S' with |S| = |S'| (mod 3).

    Enumerates all subsets of a (g+2)-element set and halves the ordered
    count; each unordered partition is hit exactly twice because S never
    equals its own complement.
    """
    if g < 0:
        raise ValueError("g must be >= 0")
    if g > GAMMA_ENUMERATION_CAP:
        raise ValueError(f"enumeration capped at g = {GAMMA_ENUMERATION_CAP}")
    n = g + 2
    ordered = sum(1 for mask in range(1 << n) if (2 * mask.bit_count() - n) % 3 == 0)
    if ordered % 2 != 0:
        raise ArithmeticError("ordered partition count is odd; enumeration corrupted")
    return ordered // 2


def delta_direct(g: int) -> int:
    """The alternating binomial sum over admissible labels 3i + nu."""
    if g < 1:
        raise ValueError("g must be >= 1")
    nu = _nu(g)
    n = (g + 2 - 2 * nu) // 3
    return sum(math.comb(g + 2, 3 * i + nu) * (-1) ** (3 * i + nu) for i in range(n + 1))


# ---------------------------------------------------------------------------
# The Hodge-table restatements and the weights of one pair
# ---------------------------------------------------------------------------

def _abullet_scaled_recursive(G: int, b: list) -> list:
    """beta_0..beta_(G-1) (beta_n = 3 * 6^n Ab_(n+1)) from the second recursion.

    For g >= 1 the recursion reads

        delta_{g,1} + sum_{h1+h2=g} 3 C(g-1, h1-1) Ab_{h1} B_{h2}
            = sum_{h1+h2=g-1} 2 C(g-1, h1) B_{h1} B_{h2},

    where the unknown Ab_g has coefficient 3 C(g-1, g-1) B_0 = 3.  Scaled
    by 6^(g-1), it reads

        beta_(g-1) = 2 sum_{h<g} C(g-1, h) b_h b_(g-1-h)
                     - sum_{0<h<g} C(g-1, h-1) beta_(h-1) b_(g-h) - [g = 1],

    with no division; it needs b_0..b_(G-1).  This is 1 + 3 Ab B = 2 B^2
    coefficientwise, so for b_0 = 1 it equals 2b - 1/b for any b.
    """
    beta: list = []
    for g in range(1, G + 1):
        beta.append(2 * sum(math.comb(g - 1, h) * b[h] * b[g - 1 - h] for h in range(g))
                    - sum(math.comb(g - 1, h - 1) * beta[h - 1] * b[g - h]
                          for h in range(1, g))
                    - (g == 1))
    return beta


def _ode_residuals(b: list[int], order: int) -> list[int]:
    """2b' + b b'' - 2(b')^2, the ODE of B at 6u, as EGF coefficients of u^0..u^order."""
    return [2 * b[n + 1] + sum(math.comb(n, k) * b[k] * b[n + 2 - k] for k in range(n + 1))
            - 2 * sum(math.comb(n, k) * b[k + 1] * b[n + 1 - k] for k in range(n + 1))
            for n in range(order + 1)]


def _mod3_weights(r: int, s: int) -> list[int]:
    """w(k) = V_0(k) - V_1(k) for k = 0..r+s, in integers and O(r + s) steps.

    V_d(k) sums C(r, x) C(s, y) over x + y = k with x - y = d (mod 3).
    With omega = exp(2 pi i/3), c_k = [u^k] (1 + omega u)^r (1 + omega^2 u)^s
    is V_0 + V_1 omega + V_2 omega^2 = (V_0 - V_2) + (V_1 - V_2) omega, so
    w(k) = a_k - b_k for c_k = a_k + b_k omega.  Since
    (1 + omega u)(1 + omega^2 u) = 1 - u + u^2, the coefficients obey

        (k + 1) c_(k+1) = ((k - s) + (r - s) omega) c_k + (r + s + 1 - k) c_(k-1),

    and the division is exact because c_(k+1) lies in Z[omega].
    """
    n, q = r + s, r - s
    a, b, a_prev, b_prev = 1, 0, 0, 0
    weights = [1]
    for k in range(n):
        p, t = k - s, n + 1 - k
        a, b, a_prev, b_prev = ((p * a - q * b + t * a_prev) // (k + 1),
                                (p * b + q * a - q * b + t * b_prev) // (k + 1), a, b)
        weights.append(a - b)
    return weights


def _degree_sums(values: list[int], n: int) -> list[int]:
    """sum_k w(k) values[k] values[n-k], w the ``_mod3_weights``, for r + s = n, r = s (mod 3).

    One entry for each r = 2n mod 3, ..., n in steps of 3, ascending;
    on alpha they are the theta totals T(r, s) of ``hurwitz``.
    """
    products = [values[k] * values[n - k] for k in range(n + 1)]
    return [sum(map(mul, _mod3_weights(r, n - r), products))
            for r in range((2 * n) % 3, n + 1, 3)]


# ---------------------------------------------------------------------------
# The per-component systems
# ---------------------------------------------------------------------------

class ComponentMismatchError(ArithmeticError):
    """A solved component system disagrees with itself or with A_g."""


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of ``values`` (ints or Fractions) over D = their lcm denominator.

    D is the least common multiple of the denominators, so the scaling
    is exact for any rationals, 3-adic or not.
    """
    values = list(values)
    D = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (D // v.denominator) for v in values], D


def solve_chain(rhs: list[int], scale: int, closure: list[int],
                closure_rhs: Fraction | int) -> tuple[list[int], int]:
    """Solve scale (x_i + x_(i+1)) = rhs[i] for i < n and sum_i closure[i] x_i = closure_rhs.

    Returns integers (X, E) with x_i = X[i] / E; E may be negative and
    the fractions are not reduced.  With c_i = rhs[i] / scale, the chain
    gives x_i = p_i + (-1)^i x_0 for p_0 = 0 and p_(i+1) = c_i - p_i, and
    the closure row fixes x_0 through its coefficient
    lead = sum_i (-1)^i closure[i], which must be nonzero.  The p_i are
    carried as the integers P_i = scale * p_i; for closure_rhs = a / d,

        E = d * scale * lead,    X_i = d * lead * P_i + (-1)^i t,
        t = scale * a - d * sum_i closure[i] P_i = E x_0,

    so no Fraction is formed.
    """
    p = [0]
    for b in rhs:
        p.append(b - p[-1])
    lead = sum(closure[::2]) - sum(closure[1::2])
    a, d = closure_rhs.numerator, closure_rhs.denominator
    t = scale * a - d * sum(map(mul, closure, p))
    dl = d * lead
    return [dl * v + (-t if i % 2 else t) for i, v in enumerate(p)], scale * dl


def solve_components(g: int, table: HodgeTable) -> list[Fraction]:
    """Solve for the per-component integrals x_i = A_g^(3i+nu), i = 0..n, of one genus g >= 4.

    Each WDVV comparison at genus g+1 with l = r + 2 leading markings and
    s = g + 1 - l others (r + s = g - 1, r = s mod 3) produces one linear
    equation.  Its terms are products of a genus 1 + x + y and a genus
    g - x - y factor over 0 <= x <= r, 0 <= y <= s; the two at (0, 0) and
    (r, s) are "principal", with the unknowns A_g^r and A_g^(r+3) times the
    genus-1 value.  Both have x - y = 0 (mod 3), and only the phi side has
    residue-0 terms, so equation i reads

        3 D f_1 (x_i + x_(i+1)) = rhs_i,

    and ``solve_chain`` solves the chain in O(n) steps.  It is closed by
    the unordered symmetry x_0 = x_n (g odd, so n is odd and the closure
    fixes x_0 with coefficient 2) or by the completed A-bullet evaluation
    (g even, coefficient (-1)^nu delta_g = -+2 * 3^(g/2)); neither is 0.

    Every other term is known.  Each lower genus h < g is read with one
    lookup in ``table.components`` (never from ``table.A``, which would
    make the comparison with A_g circular), else ``ValueError``.  The
    factors of a term then depend only on k = x + y, the phi side (sign +1)
    sums the residues x - y = 0 and 2, and the theta side (sign -1) the
    residues 1 and 2, so the residue-2 sums cancel and the known part of
    the equation is

        3 sum_(k=1..g-2) w(k) F_(1+k) F_(g-k),   w the weights of (r, s),

    which costs O(g) per equation.  It is summed in integers: the F_h are
    scaled to numerators f_h = D F_h over one common denominator D, so a
    known product is an integer over D^2 and so is 3 D f_1.  ``_degree_sums``
    forms it, with 0 in the unknown genus-g slot to drop the principal terms.

    This function alone judges its result: the closure equation not used
    during solving must hold, the solved values must all be equal, and
    they must equal A_g.  Otherwise it raises ``ComponentMismatchError``.
    The checks run on the integers (X, E) of ``solve_chain``, x_i = X_i / E,
    against the rationals cross-multiplied; the one Fraction formed is the
    common value X_0 / E, returned once for each label.
    """
    if g < 4:
        raise ValueError("solve_components applies for g >= 4")
    if g > table.max_genus:
        raise ValueError(f"table holds genus <= {table.max_genus}, need {g}")
    nu = _nu(g)
    n = (g + 2 - 2 * nu) // 3          # unknowns x_0..x_n, x_i = A_g^{3i+nu}

    try:
        lower = [table.components[h] for h in range(1, g)]
    except KeyError as missing:
        raise ValueError(f"table.components lacks genus {missing.args[0]}; "
                         f"genus {g} needs genera 1..{g - 1}") from None
    nums, D = _over_common_denominator(lower)   # nums[h - 1] = D * F_h
    rhs = [-3 * total for total in _degree_sums(nums + [0], g - 1)]

    # Closure: one more independent equation.
    vvv_row = [math.comb(g + 2, 3 * i + nu) for i in range(n + 1)]
    vvv_rhs = 2 * table.Abullet[g]
    if g % 2 == 1:
        X, E = solve_chain(rhs, 3 * D * nums[0], [1] + [0] * (n - 1) + [-1], 0)
    else:
        X, E = solve_chain(rhs, 3 * D * nums[0], vvv_row, vvv_rhs)

    # Post-checks: the unused closure must hold redundantly, all values
    # must agree, and the common value must be A_g.
    if g % 2 == 1:
        if vvv_rhs.denominator * sum(map(mul, vvv_row, X)) != vvv_rhs.numerator * E:
            raise ComponentMismatchError(f"genus {g}: A-bullet closure fails redundancy")
    else:
        if any(X[i] != X[n - i] for i in range(n + 1)):
            raise ComponentMismatchError(f"genus {g}: label symmetry fails redundancy")
    if any(v != X[0] for v in X):
        raise ComponentMismatchError(
            f"genus {g}: component values are not constant: {[Fraction(v, E) for v in X]}")
    A = table.A[g]
    if X[0] * A.denominator != A.numerator * E:
        raise ComponentMismatchError(
            f"genus {g}: components equal {Fraction(X[0], E)}, expected A_g = {A}")

    return [Fraction(X[0], E)] * (n + 1)


# ---------------------------------------------------------------------------
# The bivariate third partials
# ---------------------------------------------------------------------------

def _validate_index(idx) -> tuple[int, int, int]:
    idx = tuple(idx)
    if len(idx) != 3 or any(i not in (0, 1, 2) for i in idx):
        raise ValueError(f"partial index must be three entries in {{0,1,2}}: {idx}")
    return tuple(sorted(idx))


def _series_partial(idx: tuple[int, int, int], cubic: LinT, terms, N: int) -> BiSeries:
    """cubic + (t1 + t2) * sum of chain * series(u1 x1 + u2 x2), truncated at degree N.

    The sum runs over (u1, u2, series) in terms, series the coefficients
    of u^0..u^N, and chain is ``potentials._chain``; each term is composed
    as a whole bivariate series.  Its ``items()`` are what
    ``potentials._coefficient_walk`` yields.
    """
    acc = BiSeries.zeros(N, Cyc3(0))
    for u1, u2, series in terms:
        acc = acc + compose_linear(USeries(N, series) * _chain(idx, u1, u2), u1, u2, N)
    return acc.map_coeffs(lambda z: LinT(Cyc3(0), z, z)) + cubic


def fy_third_partial(idx, cov: ChangeOfVars | None = None, N: int = 12,
                     data: FixedPointData | None = None):
    """d^3 F^Y / dx_idx after the change of variables, truncated at degree N.

    The constant part contracts the ten triple products of ``data``
    (``potentials._cubic_partial``); an index containing 0 is that
    constant alone.  Indices wholly in {1, 2} give a BiSeries over LinT,
    adding for each multi-cover piece chain-factor times G_q(linear form).
    """
    idx = _validate_index(idx)
    if cov is None:
        cov = ChangeOfVars.standard()
    if data is None:
        data = FixedPointData.standard()
    cubic = _cubic_partial(idx, cov.jacobian, _triple_products(data))
    if 0 in idx:
        return cubic
    return _series_partial(idx, cubic, _multicover_pieces(cov, N), N)


def fx_third_partial(idx, table: HodgeTable, N: int = 12):
    """d^3 F^X / dx_idx, truncated at total degree N.

    The constant part is ``orbifold_invariant`` with n_i the count of i in
    idx; an index containing 0 is that constant alone.  Indices wholly in
    {1, 2} add the (t1+t2)/2-weighted symmetrization of A composed with
    the three linear forms -(x1+x2), -(w x1 + wbar x2), -(wbar x1 + w x2),
    each with its cube-root-of-unity chain factor.
    """
    idx = _validate_index(idx)
    n1, n2 = idx.count(1), idx.count(2)
    if 0 in idx:
        return orbifold_invariant(n1, n2, table, n0=idx.count(0))
    series = _orbifold_series(table, N)
    return _series_partial(idx, orbifold_invariant(n1, n2, table),
                           [(a, b, series) for a, b in _FORMS], N)

"""Test oracles: the Fraction closed forms and series operations the tests compare against.

The production modules compute the Hodge table on integers
(``hurwitz``), the multi-cover series from Eulerian numbers
(``algebra.geometric_exp_series``) and compare the potentials form by
form (``potentials``).  The routes here are the slower, more literal
ones they are checked against: the one series reciprocal, tan as
sin/cos, the tau quotients of the Appendix's closed formulas, the
multi-cover series as 1/(1 - q e^u) - 1, the term-by-term theta double
sum, the substitution f(lam u), and the bivariate series product,
derivatives and swap.  No
production module imports this one, and no production module divides a
series; ``tests/test_cli.py`` checks that no subcommand loads it.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .algebra import BiSeries, Cyc3, USeries
from .hurwitz import _binomial_rows, _scaled_series


def series_reciprocal(f: USeries) -> USeries:
    """1/f to the order of f, over Q or Q(w); the constant term must be invertible."""
    c0 = f.coeffs[0]
    if not c0:
        raise ZeroDivisionError("series divisor has non-invertible constant term")
    h0 = c0.inverse() if isinstance(c0, Cyc3) else 1 / Fraction(c0)
    out = [h0]
    for n in range(1, f.order + 1):
        acc = h0 * 0
        for k in range(1, n + 1):
            acc = acc + f.coeffs[k] * out[n - k]
        out.append(-(h0 * acc))
    return USeries(f.order, tuple(out))


def geometric_series_by_reciprocal(q: Cyc3, N: int) -> USeries:
    """G_q(u) = q e^u / (1 - q e^u) to order N as 1/(1 - q e^u) - 1.

    The series-division route of ``algebra.geometric_exp_series``, for any
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
    It is the term-by-term double sum that ``hurwitz.theta_check`` groups
    by degree.
    """
    binom = _binomial_rows(N)
    _, alpha, _ = _scaled_series(N, binom)
    fact = [math.factorial(n) for n in range(N + 1)]

    def entry(i_residue: int, r: int, s: int) -> Fraction:
        if (r - s) % 3 != 0:
            return Fraction(0)
        binom_s = binom[s]
        total = 0
        for x, cx in enumerate(binom[r]):
            total += cx * sum(binom_s[y] * alpha[x + y] * alpha[r + s - x - y]
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


def swap_series(series: BiSeries) -> BiSeries:
    """Apply the simultaneous swap x1 <-> x2, t1 <-> t2 to a LinT series."""
    return BiSeries.build(series.order, lambda i, j: series.rows[j][i].swap_t())

"""Trigonal Hurwitz-Hodge integral tables and their cross-checks.

Conventions.  All generating functions are exponential:

    B(u) = sum_{g>=0} B_g u^g / g!
    A(u) = sum_{g>=1} A_g u^(g-1) / (g-1)!     (same shape for A-bullet)

The closed forms are tangent shifts; with tau(u) = sqrt(3) tan(u/sqrt(12))
the tangent addition formula turns them into the rational quotients

    B = (1 + tau/3) / (1 - tau),        A = (1 + tau) / (3 - tau),

so no square root ever appears.

Every quantity is computed twice, by independent routes, and the pair is
compared exactly.  ``build_hodge_table`` is the one place these checks
are defined; it records them, in this order, in ``HodgeTable.checks``,
and ``crepant verify recursions`` prints that dict as its report:

    B recursion vs closed form             B_g: WDVV recursion vs B(u)
    gamma formula vs enumeration           gamma_g: closed form vs subsets by size mod 6
    delta closed form vs direct sum        delta_g: closed form vs subsets by size mod 6
    A-bullet = gamma * A (functional equation)
                                           Ab_g = (2B - 1/B)/3 vs gamma_g A_g, that is
                                           (2B - 1/B)/3 = (4/3)A(2u) - (1/3)A(-u)

and, for a table of genus G >= 4 with its component line,

    components independent of label        A_g^l = A_g for every label l, g <= G

The last line is decided on the theta totals, not by solving the
per-component linear systems; that solver is the test oracle
``oracles.solve_components``.  The two are one statement.  For a pair
r + s = n with r = s (mod 3), the theta total is the double sum

    T(r, s) = sum C(r, x) C(s, y) e(x - y) alpha_(x+y) alpha_(n-x-y)

over 0 <= x <= r, 0 <= y <= s, with e = 1, -1, 0 at residues 0, 1, 2
(mod 3); it is 9 * 6^n r! s! (theta_0 - theta_1)_(r,s).  At genus
g >= 4, with n = g - 1, suppose every lower genus has A_h^l = A_h:

- Totals: with the lower values over one denominator D, f_1 = D A_1,
  the equation 3 D f_1 (x_i + x_(i+1)) = rhs_i of a pair r + s = n has
  rhs_i = -3 D^2/(9 * 6^n) (T(r, s) - 2 alpha_0 alpha_n).  As
  3 D f_1 = D^2 alpha_0, x_i = x_(i+1) = A_g solves it exactly when
  T(r, s) = 0.
- Closure: the closure row C(g + 2, 3i + nu) sums to 2 gamma_g, so with
  every x_i = A_g it reads Ab_g = gamma_g A_g, the A-bullet comparison
  at genus g.
- Lead: the chain leaves x_i = p_i + (-1)^i x_0, and the closure fixes
  x_0 with the lead 2 (g odd) or (-1)^nu delta_g (g even), which the
  delta line shows is -+2 * 3^(g/2).  It is never 0, so the system has
  one solution.

By induction on g, A_g^l = A_g at every label of genus 4..G exactly
when the totals vanish at degrees 3..G - 1 and Ab_g = gamma_g A_g at
g = 4..G.  The totals are not summed as written:

- e_2: with w = exp(2 pi i/3), L_k = w^k X + w^(-k) Y and
  alpha(u) = sum_k alpha_k u^k/k!, the roots-of-unity filter gives
  sum T(r, s) X^r Y^s/(r! s!) = e_2(alpha(L_0), alpha(L_1), alpha(L_2))/3,
  e_2(a, b, c) = ab + bc + ca, with T(r, s) = 0 for r != s (mod 3).
- Coordinates: (X, Y) -> (P, Q) = (L_0, L_1) is linear with determinant
  w^2 - w = -sqrt(-3) != 0, so it is invertible over Q(w), and
  L_2 = -P - Q.  It maps the polynomials of degree n to themselves, so
  each degree's part of e_2 vanishes in one coordinate system exactly
  when it does in the other.

The line is ``components._theta_holds`` on alpha_0..alpha_(G-1), which
decides e_2 degree by degree in (P, Q), and whose degrees 0..2 are the
same statement at genus 1..3, and the A-bullet comparisons at g = 4..G,
read from the list that the A-bullet line takes ``all`` of.  When it
passes, ``table.components`` holds A_g at every genus.

Each line is a statement that no other line decides.  The ODE
2b' + b b'' = 2(b')^2 of B at 6u is not a line: its residual at order n
is the B recursion's residual at genus n + 2.  Nor is the A-bullet WDVV
recursion: it is the identity 1 + 3 Ab B = 2 B^2, which (2B - 1/B)/3
already solves by division.  Both are test oracles (``_ode_residuals``
and ``_abullet_scaled_recursive`` in ``oracles``).  Ab_g = gamma_g A_g and
the functional equation are one line, since with
gamma_g = (2^(g+1) + (-1)^g)/3 they are one equation at each genus.

Integer kernel.  The table is computed in plain ints up to its boundary.

- Series: scaled to 6u, tau(6u) = sqrt(3) tan(sqrt(3) u) has the integer
  EGF coefficients 3^(k+1) T_(2k+1) (``tangent_numbers``), so
  b_n = 6^n B_n, alpha_n = 3 * 6^n A_(n+1) and beta_n = 3 * 6^n Ab_(n+1)
  are integer EGFs, and each quotient, with constant term 1 in its
  denominator, is an integer binomial convolution (``_scaled_series``).
- Recursion and checks: the B recursion runs on b with no division, one
  product b_h b_(g-h) per term of weight c_h = 2 C(g-2, h-1) - C(g-2, h),
  and the functional equation is compared on alpha and beta.
- Binomials: each division and the recursion walk one Pascal row of
  their own, stepped upward; no triangle is stored.
- Counts: ``marking_counts`` walks the counts of marking subsets by size
  mod 6 once, with Pascal's rule, and reads gamma_g and delta_g off the
  walk at every genus, O(G) additions for the whole table.

Fraction re-enters only at the boundary: in ``_unscale_b`` and
``_unscale_a`` (B_g = b_g / 6^g, A_g = alpha_(g-1) / (3 * 6^(g-1))).
``build_hodge_table`` is the only producer of B_g, A_g and Ab_g.

The theta kernel, ``theta_check`` and the table export live in
``components``.  ``build_hodge_table`` imports it only for the
component line, so ``verify crc`` and ``verify recursions``, whose
tables have none, never compile it.  This module imports nothing
from ``algebra``.  Its test oracles, the Fraction series ``b_closed``,
``a_closed`` and ``abullet_functional`` over ``tau_series``, the
enumeration of all 2^(g+2) marking subsets and the literal alternating
binomial sum that ``marking_counts`` is tested against, the two
restatements above and the per-component solver, live in ``oracles``,
which no production module imports.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add


# ---------------------------------------------------------------------------
# The integer kernel: EGFs of B(6u), 3A(6u) and 3A-bullet(6u)
# ---------------------------------------------------------------------------

def tangent_numbers(N: int) -> list[int]:
    """The tangent numbers T_0..T_N, T_n = n! [u^n] tan(u), in integers.

    The derivative polynomials P_0 = x, P_(n+1) = (1 + x^2) P_n' give
    d^n/du^n tan(u) = P_n(tan u), so T_n = P_n(0) (Knuth and Buckholtz,
    Math. Comp. 21, 1967).  No division is done.

    >>> tangent_numbers(7)
    [0, 1, 0, 2, 0, 16, 0, 272]
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    P = [0, 1]                          # coefficients of P_n in x
    T = [0]
    for _ in range(N):
        dP = [k * c for k, c in enumerate(P)][1:]
        P = dP + [0, 0]
        for k, c in enumerate(dP):
            P[k + 2] += c
        T.append(P[0])
    return T


def _egf_divide(num: list[int], den: list[int]) -> list[int]:
    """EGF coefficients of num/den for den[0] = 1, with no division.

    q_n = num_n - sum_{k=1}^n C(n, k) den_k q_(n-k), walking one row of
    Pascal's triangle: row n at step n.
    """
    out: list[int] = []
    row = [1]                           # C(n, k) for k = 0..n
    for n, x in enumerate(num):
        out.append(x - sum(row[k] * den[k] * out[n - k] for k in range(1, n + 1)))
        row = [1, *map(add, row, row[1:]), 1]
    return out


def _scaled_series(N: int) -> tuple[list[int], list[int], list[int]]:
    """EGF coefficients 0..N of B(6u), 3A(6u) and 3A-bullet(6u): (b, alpha, beta).

    tau(6u) = sqrt(3) tan(sqrt(3) u) has the u^(2k+1) EGF coefficient
    3^(k+1) T_(2k+1), so b_n = 6^n B_n, alpha_n = 3 * 6^n A_(n+1) and
    beta_n = 3 * 6^n Ab_(n+1) are the integer EGFs of

        (1 + tau/3)/(1 - tau),    (1 + tau)/(1 - tau/3),    2b - 1/b.
    """
    one = [1] + [0] * N
    third = _tau_third(N)
    b = _egf_divide([x + y for x, y in zip(one, third)],
                    [x - 3 * y for x, y in zip(one, third)])
    beta = [2 * x - y for x, y in zip(b, _egf_divide(one, b))]
    return b, _scaled_alpha(third), beta


def _tau_third(N: int) -> list[int]:
    """EGF coefficients 0..N of tau(6u)/3: 3^k T_(2k+1) at u^(2k+1), 0 at even degrees."""
    return [3 ** (n // 2) * t for n, t in enumerate(tangent_numbers(N))]


def _scaled_alpha(third: list[int]) -> list[int]:
    """alpha, the EGF of 3A(6u) = (1 + tau)/(1 - tau/3), from ``third`` = ``_tau_third(N)``."""
    one = [1] + [0] * (len(third) - 1)
    return _egf_divide([x + 3 * y for x, y in zip(one, third)],
                       [x - y for x, y in zip(one, third)])


def _b_scaled_recursive(G: int) -> list[int]:
    """b_0..b_G (b_g = 6^g B_g) from the degeneration recursion.

    Seeded with B_0 = 1 and B_1 = 2/3, for g >= 2 the recursion reads

        B_{g-1} + sum_{h1+h2=g} 3 C(g-2, h1) B_{h1} B_{h2}
            = sum_{h1+h2=g} 6 C(g-2, h1-1) B_{h1} B_{h2},

    and the unknown B_g appears only in the summand 3 B_0 B_g on the left.
    Scaled by 6^g and divided by 3, it needs no division, and its two sums
    are one, each product b_h b_(g-h) formed once, walking one Pascal row:

        b_g = sum_{0<h<g} c_h b_h b_(g-h) - 2 b_(g-1),  c_h = 2 C(g-2, h-1) - C(g-2, h).
    """
    b, row = [1, 4], [1]                # row: C(g - 2, k) for k = 0..g - 2
    for g in range(2, G + 1):
        c = [2 * x - y for x, y in zip(row, [*row[1:], 0])]     # c[h - 1] = c_h
        b.append(sum(c[h - 1] * b[h] * b[g - h] for h in range(1, g)) - 2 * b[g - 1])
        row = [1, *map(add, row, row[1:]), 1]
    return b[:G + 1]


# ---------------------------------------------------------------------------
# Fraction values at the boundary
# ---------------------------------------------------------------------------

def _unscale_b(b: list, genera: range) -> dict[int, Fraction]:
    """B_g = b_g / 6^g for g in ``genera``."""
    return {g: Fraction(b[g], 6 ** g) for g in genera}


def _unscale_a(scaled: list, genera: range) -> dict[int, Fraction]:
    """A_g = alpha_(g-1) / (3 * 6^(g-1)) for g in ``genera``; the same for A-bullet and beta."""
    return {g: Fraction(scaled[g - 1], 3 * 6 ** (g - 1)) for g in genera}


# ---------------------------------------------------------------------------
# Component counts
# ---------------------------------------------------------------------------

def gamma_formula(g: int) -> int:
    """Number of components of the genus-g trigonal space: (2^(g+1) + (-1)^g)/3."""
    if g < 0:
        raise ValueError("g must be >= 0")
    num = 2 ** (g + 1) + (-1) ** g
    q, r = divmod(num, 3)
    if r != 0:
        raise ArithmeticError(f"gamma_{g} is not an integer; arithmetic corrupted")
    return q


def _nu(g: int) -> int:
    """The smallest nonnegative residue of 1 - g mod 3."""
    return (1 - g) % 3


def delta(g: int) -> int:
    """Closed form: -2*(-3)^(g/2) for even g, 0 for odd g."""
    if g < 1:
        raise ValueError("g must be >= 1")
    if g % 2 == 1:
        return 0
    return -2 * (-3) ** (g // 2)


def marking_counts(G: int) -> tuple[list[int], list[int]]:
    """gamma_0..gamma_G and delta_0..delta_G from one walk of subset counts by size mod 6.

    The subsets of n markings fall into six classes by size mod 6.  Their
    counts c_r(n) step by Pascal's rule C(n+1, k) = C(n, k) + C(n, k-1),
    that is c_r(n+1) = c_r(n) + c_(r-1)(n).  At n = g + 2, with nu = _nu(g):

    - gamma_g: |S| = |S'| (mod 3) reads |S| = nu (mod 3), so the ordered
      partitions S | S' number c_nu + c_(nu+3); each unordered one is
      counted twice, since S never equals its complement.
    - delta_g: the alternating sum of C(g + 2, l) over the labels
      l = 3i + nu is (-1)^nu (c_nu - c_(nu+3)), as (-1)^(3i) = (-1)^i.

    O(G) additions in all.

    >>> marking_counts(5)
    ([1, 1, 3, 5, 11, 21], [-2, 0, 6, 0, -18, 0])
    """
    if G < 0:
        raise ValueError("G must be >= 0")
    gamma, delta = [], []
    c = [1, 2, 1, 0, 0, 0]              # c_r(2): C(2, 0), C(2, 1), C(2, 2)
    for g in range(G + 1):
        nu = _nu(g)
        ordered = c[nu] + c[nu + 3]
        if ordered % 2 != 0:
            raise ArithmeticError("ordered partition count is odd; count corrupted")
        gamma.append(ordered // 2)
        delta.append((-1) ** nu * (c[nu] - c[nu + 3]))
        c = [c[r] + c[r - 1] for r in range(6)]
    return gamma, delta


# ---------------------------------------------------------------------------
# The table and its construction
# ---------------------------------------------------------------------------

class HodgeTable:
    """Computed Hurwitz-Hodge values with their cross-check status.

    ``components`` maps a genus g to the value A_g^l that every label l
    of ``components.component_labels(g)`` shares: A_g at every genus when
    the component line passes, at g <= 3 alone otherwise; ``checks``
    records the outcome of every dual-oracle comparison run while
    building.  The table starts empty and ``build_hodge_table`` fills it.
    """

    def __init__(self, max_genus: int):
        self.max_genus = max_genus
        self.B: dict[int, Fraction] = {}
        self.Abullet: dict[int, Fraction] = {}
        self.A: dict[int, Fraction] = {}
        self.gamma: dict[int, int] = {}
        self.components: dict[int, Fraction] = {}
        self.checks: dict[str, bool] = {}

    def __eq__(self, other) -> bool:
        return type(other) is HodgeTable and vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"HodgeTable({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


COMPONENT_CHECK = "components independent of label"


def build_hodge_table(max_genus: int, *, components: bool = True) -> HodgeTable:
    """Compute every quantity to ``max_genus`` and run every dual-oracle check.

    The checks, listed in the module docstring, are recorded in order in
    ``table.checks``: the B recursion, gamma, delta, A-bullet = gamma * A
    and, with ``components`` and ``max_genus`` >= 4, the component line.
    Each runs at every genus up to ``max_genus``, gamma and delta on the
    one walk ``marking_counts(max_genus)``, and A-bullet = gamma * A also
    at ``max_genus + 1``, the last coefficient of alpha and beta.  The
    component line decides the theta identity on alpha_0..alpha_(G-1) and
    the A-bullet comparisons at g = 4..G; when it passes,
    ``table.components`` holds A_g for every genus.  Without
    ``components`` it holds the genera <= 3 alone.
    """
    if max_genus < 0:
        raise ValueError(f"max_genus must be >= 0, got {max_genus}")
    G = max_genus
    table = HodgeTable(max_genus=G)
    genera = range(1, G + 1)

    b, alpha, beta = _scaled_series(G)
    b_rec = _b_scaled_recursive(G)
    gammas, deltas = marking_counts(G)
    table.gamma = {g: gamma_formula(g) for g in range(G + 1)}

    checks = table.checks
    checks["B recursion vs closed form"] = b_rec == b
    checks["gamma formula vs enumeration"] = list(table.gamma.values()) == gammas
    checks["delta closed form vs direct sum"] = all(delta(g) == deltas[g] for g in genera)
    # 3Ab(6u) = 4A(12u) - A(-6u) coefficientwise on the EGFs, that is
    # Ab_(n+1) = gamma_(n+1) A_(n+1), as 3 gamma_(n+1) = 4 * 2^n - (-1)^n
    abullet = [3 * beta[n] == (4 * 2 ** n - (-1) ** n) * alpha[n] for n in range(G + 1)]
    checks["A-bullet = gamma * A (functional equation)"] = all(abullet)

    # the table boundary: Fraction re-enters here
    table.B = _unscale_b(b, range(G + 1))
    table.Abullet = _unscale_a(beta, genera)
    table.A = _unscale_a(alpha, genera)

    # each genus <= 3 has one component class, of value A_g
    table.components = {h: table.A[h] for h in range(1, min(G, 3) + 1)}
    if components and G >= 4:
        # imported here, so a table without the line never compiles the theta kernel
        from .components import _theta_holds

        # abullet[g - 1] is the closure Ab_g = gamma_g A_g of genus g
        checks[COMPONENT_CHECK] = all(abullet[3:G]) and _theta_holds(alpha[:G])
        if checks[COMPONENT_CHECK]:
            table.components = dict(table.A)

    return table

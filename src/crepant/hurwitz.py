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
    gamma formula vs enumeration           gamma_g: closed form vs subsets by size mod 3
    delta closed form vs direct sum        delta_g: closed form vs binomial sum
    A-bullet = gamma * A (functional equation)
                                           Ab_g = (2B - 1/B)/3 vs gamma_g A_g, that is
                                           (2B - 1/B)/3 = (4/3)A(2u) - (1/3)A(-u)

and, when component systems of genus >= 4 are solved,

    components independent of label        A_g^l vs A_g for every label l

The last one is decided by ``solve_components`` alone: it checks the
closure equation it did not solve with, that the solved A_g^l are all
equal, and that they equal A_g, and raises ``ComponentMismatchError``
otherwise; ``build_hodge_table`` records that and keeps the one value.

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
- Recursion and checks: the B recursion runs on b with no division, and
  the functional equation is compared on alpha and beta.
- Counts: ``gamma_direct`` counts marking subsets by size mod 3 with
  Pascal's rule, O(g) per genus, so the gamma check runs at every genus.
- Weights: in both double sums below, a term with x + y = k pairs the
  values of index 1 + k and 1 + r + s - k, so each sum groups by k with
  the integer weight w(k) = V_0(k) - V_1(k), where V_d(k) sums
  C(r, x) C(s, y) over x + y = k with x - y = d (mod 3).
  ``_weight_rows`` walks these rows along the diagonals r - s = const in
  upward degree, each from the one two degrees below by
  w(k) - w(k-1) + w(k-2) with no division, and ``_degree_sums`` forms the
  sums, O(r + s) each, half of them mirrored.
- Component systems: ``table.components`` holds one value F_h per genus;
  each lower genus is read once and put over one common denominator D by
  ``_over_common_denominator`` (a power of 3 for every table value, but
  any D stays exact).  The known part of each degeneration equation is
  3 sum_k w(k) F_(1+k) F_(g-k) in integers, O(g) per equation, on the
  walked weights.  Every equation reads 3 D f_1 (x_i + x_(i+1)) = rhs_i
  for neighbouring labels, so ``solve_chain`` writes x_i = p_i + (-1)^i x_0
  with integer partial sums p_i, lets the closure equation fix x_0, and
  returns integer numerators over one denominator; ``solve_components``
  runs its checks on those integers.
- Theta: ``theta_check`` decides theta_0 - theta_1 on the integer totals
  sum_k w(k) alpha_k alpha_(r+s-k), O(N^3) through degree N, with no
  Fraction and no BiSeries; it builds alpha alone, not b or beta.

Fraction re-enters only at the boundary: in ``_unscale_b`` and
``_unscale_a`` (B_g = b_g / 6^g, A_g = alpha_(g-1) / (3 * 6^(g-1))), and
in ``solve_components``, which forms one Fraction per solved genus, the
common value A_g^l, once its checks have passed.  ``build_hodge_table``
is the only producer of B_g, A_g and Ab_g, and ``theta_check`` the only
place the theta identity is decided.  The module imports nothing from
``algebra``.  Its test oracles, the Fraction series ``b_closed``,
``a_closed`` and ``abullet_functional`` over ``tau_series``, the
term-by-term double sum ``theta_pair``, the enumeration of all 2^(g+2)
marking subsets that ``gamma_direct`` is tested against, the two
restatements above and the weights of one pair by a recurrence
(``_mod3_weights``, ``_half_rows``) that the walk is tested against,
live in ``oracles``, which no production module imports.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from operator import mul



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


def _binomial_rows(N: int) -> list[list[int]]:
    """Pascal's triangle: rows[n][k] = C(n, k) for 0 <= k <= n <= N."""
    rows = [[1]]
    for n in range(1, N + 1):
        prev = rows[-1]
        rows.append([1, *(prev[k - 1] + prev[k] for k in range(1, n)), 1])
    return rows


def _egf_divide(num: list[int], den: list[int], binom: list[list[int]]) -> list[int]:
    """EGF coefficients of num/den for den[0] = 1, with no division.

    q_n = num_n - sum_{k=1}^n C(n, k) den_k q_(n-k).
    """
    out: list[int] = []
    for n, row in enumerate(binom[:len(num)]):
        out.append(num[n] - sum(row[k] * den[k] * out[n - k] for k in range(1, n + 1)))
    return out


def _scaled_series(N: int, binom: list[list[int]]) -> tuple[list[int], list[int], list[int]]:
    """EGF coefficients 0..N of B(6u), 3A(6u) and 3A-bullet(6u): (b, alpha, beta).

    tau(6u) = sqrt(3) tan(sqrt(3) u) has the u^(2k+1) EGF coefficient
    3^(k+1) T_(2k+1), so b_n = 6^n B_n, alpha_n = 3 * 6^n A_(n+1) and
    beta_n = 3 * 6^n Ab_(n+1) are the integer EGFs of

        (1 + tau/3)/(1 - tau),    (1 + tau)/(1 - tau/3),    2b - 1/b.
    """
    one = [1] + [0] * N
    third = _tau_third(N)
    b = _egf_divide([x + y for x, y in zip(one, third)],
                    [x - 3 * y for x, y in zip(one, third)], binom)
    beta = [2 * x - y for x, y in zip(b, _egf_divide(one, b, binom))]
    return b, _scaled_alpha(third, binom), beta


def _tau_third(N: int) -> list[int]:
    """EGF coefficients 0..N of tau(6u)/3: 3^k T_(2k+1) at u^(2k+1), 0 at even degrees."""
    return [3 ** (n // 2) * t for n, t in enumerate(tangent_numbers(N))]


def _scaled_alpha(third: list[int], binom: list[list[int]]) -> list[int]:
    """alpha, the EGF of 3A(6u) = (1 + tau)/(1 - tau/3), from ``third`` = ``_tau_third(N)``."""
    one = [1] + [0] * (len(third) - 1)
    return _egf_divide([x + 3 * y for x, y in zip(one, third)],
                       [x - y for x, y in zip(one, third)], binom)


def _b_scaled_recursive(G: int, binom: list[list[int]]) -> list[int]:
    """b_0..b_G (b_g = 6^g B_g) from the degeneration recursion.

    Seeded with B_0 = 1 and B_1 = 2/3, for g >= 2 the recursion reads

        B_{g-1} + sum_{h1+h2=g} 3 C(g-2, h1) B_{h1} B_{h2}
            = sum_{h1+h2=g} 6 C(g-2, h1-1) B_{h1} B_{h2},

    and the unknown B_g appears only in the summand 3 B_0 B_g on the left.
    Scaled by 6^g and divided by 3, it needs no division:

        b_g = 2 sum_h C(g-2, h-1) b_h b_(g-h) - sum_h C(g-2, h) b_h b_(g-h) - 2 b_(g-1).
    """
    b = [1, 4]
    for g in range(2, G + 1):
        row = binom[g - 2]
        b.append(2 * sum(row[h - 1] * b[h] * b[g - h] for h in range(1, g))
                 - sum(row[h] * b[h] * b[g - h] for h in range(1, g - 1))
                 - 2 * b[g - 1])
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


def gamma_direct(g: int) -> int:
    """Count unordered marking partitions S | S' with |S| = |S'| (mod 3), by size class.

    The subsets of n markings fall into three classes by size mod 3.
    Their counts c_r(n) start at c(0) = (1, 0, 0), and Pascal's rule
    C(n+1, k) = C(n, k) + C(n, k-1) gives c_r(n+1) = c_r(n) + c_(r-1)(n).
    With n = g + 2, |S| = |S'| (mod 3) reads |S| = nu (mod 3), so the
    ordered count is c_nu(g + 2), O(g) additions.  Each unordered
    partition is counted twice, since S never equals its complement.

    >>> [gamma_direct(g) for g in range(6)]
    [1, 1, 3, 5, 11, 21]
    """
    if g < 0:
        raise ValueError("g must be >= 0")
    c = (1, 0, 0)
    for _ in range(g + 2):
        c = (c[0] + c[2], c[1] + c[0], c[2] + c[1])
    ordered = c[_nu(g)]
    if ordered % 2 != 0:
        raise ArithmeticError("ordered partition count is odd; count corrupted")
    return ordered // 2


def delta(g: int) -> int:
    """Closed form: -2*(-3)^(g/2) for even g, 0 for odd g."""
    if g < 1:
        raise ValueError("g must be >= 1")
    if g % 2 == 1:
        return 0
    return -2 * (-3) ** (g // 2)


def delta_direct(g: int) -> int:
    """The alternating binomial sum over admissible labels 3i + nu."""
    if g < 1:
        raise ValueError("g must be >= 1")
    nu = _nu(g)
    n = (g + 2 - 2 * nu) // 3
    return sum(math.comb(g + 2, 3 * i + nu) * (-1) ** (3 * i + nu) for i in range(n + 1))


# ---------------------------------------------------------------------------
# Component labels and table
# ---------------------------------------------------------------------------

def component_labels(g: int) -> list[int]:
    """The labels min(l, g + 2 - l) of the component classes of genus g.

    A raw label l counts markings of one monodromy type, with 2l = g + 2
    (mod 3), and l and g + 2 - l name the same unordered class.

    >>> component_labels(4)
    [0, 3]
    """
    return sorted({min(l, g + 2 - l) for l in range(_nu(g), g + 3, 3)})


class HodgeTable:
    """Computed Hurwitz-Hodge values with their cross-check status.

    ``components`` maps each solved genus g to the value A_g^l that every
    label l of ``component_labels(g)`` shares; ``checks`` records the
    outcome of every dual-oracle comparison run while building.  The
    table starts empty and ``build_hodge_table`` fills it.
    """

    def __init__(self, max_genus: int):
        self.max_genus = max_genus
        self.B: dict[int, Fraction] = {}
        self.Abullet: dict[int, Fraction] = {}
        self.A: dict[int, Fraction] = {}
        self.gamma: dict[int, int] = {}
        self.delta: dict[int, int] = {}
        self.components: dict[int, Fraction] = {}
        self.checks: dict[str, bool] = {}

    def __eq__(self, other) -> bool:
        return type(other) is HodgeTable and vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"HodgeTable({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


COMPONENT_CHECK = "components independent of label"


# ---------------------------------------------------------------------------
# The per-component system
# ---------------------------------------------------------------------------

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


def _weight_rows(N: int):
    """Yield, for n = 0..N, the weight rows of the pairs (r, n - r), r <= n - r, r = 2n (mod 3).

    The rows of degree n come in ascending r, each w(k) = V_0(k) - V_1(k)
    for k = 0..n as in the module docstring.  With omega = exp(2 pi i/3),
    c_k = [u^k] (1 + omega u)^r (1 + omega^2 u)^s is
    V_0 + V_1 omega + V_2 omega^2 = (V_0 - V_2) + (V_1 - V_2) omega, so
    w(k) = a_k - b_k for c_k = a_k + b_k omega.  The row of (0, n) is
    w(k) = C(n, k) (1, 0, -1)[k mod 3], since (omega^2)^k is 1,
    -1 - omega or omega for k = 0, 1, 2 (mod 3).  Raising r and s by one
    multiplies c by the real (1 + omega u)(1 + omega^2 u) = 1 - u + u^2,
    so the row of (r, s) is w(k) - w(k-1) + w(k-2) on the row of
    (r-1, s-1), one of the rows of degree n - 2, and no division is done.
    Every row of degree n - 2 steps to one of degree n, and (0, n) is
    added when 3 divides n; only the rows of the last two degrees are
    kept.  ``oracles._mod3_weights`` forms one row by a recurrence in k
    and is the walk's test oracle.
    """
    pascal = [1]
    older: list[list[int]] = []         # the rows of degree n - 2
    old: list[list[int]] = []           # the rows of degree n - 1
    for n in range(N + 1):
        rows = [[x - y + z for x, y, z in zip(w + [0, 0], [0, *w, 0], [0, 0, *w])]
                for w in older]
        if n % 3 == 0:
            row = pascal[:]
            row[1::3] = [0] * len(row[1::3])
            row[2::3] = [-c for c in row[2::3]]
            rows.insert(0, row)
        yield rows
        older, old = old, rows
        pascal = [x + y for x, y in zip([0, *pascal], [*pascal, 0])]


def _degree_sums(values: list[int], n: int, rows: list[list[int]]) -> list[int]:
    """sum_k w(k) values[k] values[n-k], w the weights of (r, s), for r + s = n, r = s (mod 3).

    The entries run over r = 2n mod 3, ..., n in steps of 3 and form a
    palindrome: (x, y) -> (s - y, r - x) keeps x - y mod 3 as r = s (mod 3),
    so the weights of (s, r) are those of (r, s) reversed in k, and the
    products are symmetric in k.  Only the first half is summed, one entry
    for each of ``rows``, the weights of r <= s in ascending r that
    ``_weight_rows`` yields at degree n; when n is even the middle entry,
    r = s, is not mirrored.
    """
    products = [values[k] * values[n - k] for k in range(n + 1)]
    half = [sum(map(mul, w, products)) for w in rows]
    return half + (half[:-1] if n % 2 == 0 else half)[::-1]


def solve_components(g: int, table: HodgeTable,
                     rows: list[list[int]] | None = None) -> list[Fraction]:
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
    forms it, with 0 in the unknown genus-g slot to drop the principal terms,
    on ``rows``, the weight rows of degree g - 1 that ``_weight_rows``
    yields; ``build_hodge_table`` passes them from its one walk, and a lone
    call, with ``rows`` not given, walks to degree g - 1 and takes the last.

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
    if rows is None:
        *_, rows = _weight_rows(g - 1)
    rhs = [-3 * total for total in _degree_sums(nums + [0], g - 1, rows)]

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
# Table construction
# ---------------------------------------------------------------------------

def build_hodge_table(max_genus: int, *, component_max_genus: int | None = None) -> HodgeTable:
    """Compute every quantity to ``max_genus`` and run every dual-oracle check.

    The checks, listed in the module docstring, are recorded in order in
    ``table.checks``: the B recursion, gamma, delta, A-bullet = gamma * A
    and, with component systems, the component check.  Each runs at every
    genus up to ``max_genus``, the gamma count by size class
    (``gamma_direct``) included, and A-bullet = gamma * A also at
    ``max_genus + 1``, the last coefficient of alpha and beta.  Component
    systems are solved up to ``component_max_genus`` (defaults to
    ``max_genus``).
    """
    if max_genus < 0:
        raise ValueError(f"max_genus must be >= 0, got {max_genus}")
    if component_max_genus is None:
        component_max_genus = max_genus
    if component_max_genus > max_genus:
        raise ValueError("component_max_genus cannot exceed max_genus")
    G = max_genus
    table = HodgeTable(max_genus=G)
    genera = range(1, G + 1)

    binom = _binomial_rows(G)
    b, alpha, beta = _scaled_series(G, binom)
    b_rec = _b_scaled_recursive(G, binom)
    table.gamma = {g: gamma_formula(g) for g in range(G + 1)}
    table.delta = {g: delta(g) for g in genera}

    checks = table.checks
    checks["B recursion vs closed form"] = b_rec == b
    checks["gamma formula vs enumeration"] = all(
        table.gamma[g] == gamma_direct(g) for g in range(G + 1))
    checks["delta closed form vs direct sum"] = all(
        table.delta[g] == delta_direct(g) for g in genera)
    # 3Ab(6u) = 4A(12u) - A(-6u) coefficientwise on the EGFs, that is
    # Ab_(n+1) = gamma_(n+1) A_(n+1), as 3 gamma_(n+1) = 4 * 2^n - (-1)^n
    checks["A-bullet = gamma * A (functional equation)"] = all(
        3 * beta[n] == (4 * 2 ** n - (-1) ** n) * alpha[n] for n in range(G + 1))

    # the table boundary: Fraction re-enters here
    table.B = _unscale_b(b, range(G + 1))
    table.Abullet = _unscale_a(beta, genera)
    table.A = _unscale_a(alpha, genera)

    # each genus <= 3 has one component class, of value A_g
    table.components = {h: table.A[h] for h in range(1, min(G, 3) + 1)}
    if component_max_genus >= 4:
        checks[COMPONENT_CHECK] = True
        walk = islice(_weight_rows(component_max_genus - 1), 3, None)   # degrees 3, 4, ...
        try:
            for g, rows in zip(range(4, component_max_genus + 1), walk):
                table.components[g] = solve_components(g, table, rows)[0]
        except ComponentMismatchError:
            checks[COMPONENT_CHECK] = False

    return table


# ---------------------------------------------------------------------------
# The theta identity
# ---------------------------------------------------------------------------

def _theta_totals(N: int):
    """Yield ((r, s), 9 * 6^(r+s) r! s! (theta_0 - theta_1)_(r,s)) for r = s (mod 3), r + s <= N.

    A term of theta_i with x + y = k has the A indices 1 + k and
    1 + r + s - k, so the difference is sum_k w(k) alpha_k alpha_(r+s-k)
    with w the weights of (r, s): the ``_degree_sums`` of alpha at
    degree r + s on the rows of ``_weight_rows``, walked once in upward
    degree, O(r + s) per entry.  Only alpha is built, not b or beta.  The
    entries with r != s (mod 3) are 0 by definition (see
    ``oracles.theta_pair``) and are not yielded.
    """
    alpha = _scaled_alpha(_tau_third(N), _binomial_rows(N))
    for n, rows in enumerate(_weight_rows(N)):
        for r, total in zip(range((2 * n) % 3, n + 1, 3), _degree_sums(alpha, n, rows)):
            yield (r, n - r), total


def theta_check(N: int) -> bool:
    """Whether theta_0 - theta_1 is the constant 1/9 through total degree N.

    True when the difference is 1/9 at (0, 0) and 0 at every other
    (r, s) with r + s <= N; this is the one definition of the identity.
    It is decided on the integer totals of ``_theta_totals``, which are 1
    at (0, 0) exactly when the difference is 1/9 there, in O(N^3) steps.

    >>> theta_check(4)
    True
    """
    return all(total == (1 if rs == (0, 0) else 0) for rs, total in _theta_totals(N))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def component_entries(table: HodgeTable, g: int) -> list[dict]:
    """[{"l": l, "value": A_g^l as a string}] for the labels of genus g; [] if unsolved."""
    if g not in table.components:
        return []
    value = str(table.components[g])
    return [{"l": l, "value": value} for l in component_labels(g)]


def table_rows(table: HodgeTable) -> list[dict]:
    """Per-genus rows matching the JSON export schema."""
    rows = []
    for g in range(table.max_genus + 1):
        rows.append({
            "g": g,
            "B": str(table.B[g]),
            "Abullet": str(table.Abullet[g]) if g >= 1 else None,
            "A": str(table.A[g]) if g >= 1 else None,
            "gamma": table.gamma[g],
            "components": component_entries(table, g),
        })
    return rows


def table_csv(table: HodgeTable) -> str:
    lines = ["g,B,Abullet,A,gamma,components"]
    for row in table_rows(table):
        comps = ";".join(f"{c['l']}={c['value']}" for c in row["components"])
        lines.append(",".join([
            str(row["g"]), row["B"], row["Abullet"] or "", row["A"] or "",
            str(row["gamma"]), comps]))
    return "\n".join(lines) + "\n"

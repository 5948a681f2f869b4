"""Component systems, the theta identity and the table export, over ``hurwitz``'s table.

The integer kernels that only the component systems of genus >= 4 and
the theta identity run.  ``hurwitz.build_hodge_table`` imports this
module only when it solves component systems, and the ``tables``,
``components`` and ``verify theta`` subcommands import it for the rest;
``verify crc`` and ``verify recursions`` never compile it.

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
  runs its checks on those integers and forms one Fraction per solved
  genus, the common value A_g^l, once they have passed.
- Theta: ``theta_check`` decides theta_0 - theta_1 on the integer totals
  sum_k w(k) alpha_k alpha_(r+s-k), O(N^3) through degree N, with no
  Fraction and no BiSeries; it builds alpha alone, not b or beta.  It is
  the only place the theta identity is decided.
- Export: ``table_rows`` and ``table_csv`` give the per-genus rows of the
  ``tables`` output, and ``component_entries`` the labels of one genus.

Their test oracles, the term-by-term double sum ``theta_pair`` and the
weights of one pair by a recurrence (``_mod3_weights``, ``_half_rows``)
that the walk is tested against, live in ``oracles``.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING

from .hurwitz import ComponentMismatchError, _binomial_rows, _nu, _scaled_alpha, _tau_third

if TYPE_CHECKING:
    from .hurwitz import HodgeTable


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of ``values`` (ints or Fractions) over D = their lcm denominator.

    D is the least common multiple of the denominators, so the scaling
    is exact for any rationals, 3-adic or not.
    """
    values = list(values)
    D = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (D // v.denominator) for v in values], D


def component_labels(g: int) -> list[int]:
    """The labels min(l, g + 2 - l) of the component classes of genus g.

    A raw label l counts markings of one monodromy type, with 2l = g + 2
    (mod 3), and l and g + 2 - l name the same unordered class.

    >>> component_labels(4)
    [0, 3]
    """
    return sorted({min(l, g + 2 - l) for l in range(_nu(g), g + 3, 3)})


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

"""The theta identity, which also decides the component line, and the table export.

The integer kernels of the theta identity.  ``hurwitz.build_hodge_table``
imports this module only when its table has a component line, and the
``tables``, ``components`` and ``verify theta`` subcommands import it for
the rest; ``verify crc`` and ``verify recursions`` never compile it.

- Weights: in the theta double sums, a term with x + y = k pairs the
  values of index 1 + k and 1 + r + s - k, so each sum groups by k with
  the integer weight w(k) = V_0(k) - V_1(k), where V_d(k) sums
  C(r, x) C(s, y) over x + y = k with x - y = d (mod 3).
  ``_weight_rows`` walks these rows along the diagonals r - s = const in
  upward degree, each from the one two degrees below by
  w(k) - w(k-1) + w(k-2) with no division, and ``_degree_sums`` forms the
  sums, O(r + s) each, half of them mirrored.
- Theta: ``_theta_totals`` gives the integer totals
  sum_k w(k) alpha_k alpha_(r+s-k) of theta_0 - theta_1, O(N^3) through
  degree N, with no Fraction and no BiSeries, and ``_theta_holds`` is
  the only place they are compared.  ``theta_check`` decides it on alpha
  built alone, not b or beta; the table's component line decides it on
  the table's own alpha (see ``hurwitz``).
- Export: ``table_rows`` and ``table_csv`` give the per-genus rows of the
  ``tables`` output, and ``component_entries`` the labels of one genus.

Their test oracles live in ``oracles``: the term-by-term double sum
``theta_pair``, the weights of one pair by a recurrence (``_mod3_weights``,
``_half_rows``) that the walk is tested against, and the per-component
linear systems (``solve_components``), whose solutions the component line
stands for.
"""
from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING

from .hurwitz import _binomial_rows, _nu, _scaled_alpha, _tau_third

if TYPE_CHECKING:
    from .hurwitz import HodgeTable


def component_labels(g: int) -> list[int]:
    """The labels min(l, g + 2 - l) of the component classes of genus g.

    A raw label l counts markings of one monodromy type, with 2l = g + 2
    (mod 3), and l and g + 2 - l name the same unordered class.

    >>> component_labels(4)
    [0, 3]
    """
    return sorted({min(l, g + 2 - l) for l in range(_nu(g), g + 3, 3)})


# ---------------------------------------------------------------------------
# The weights and the theta identity
# ---------------------------------------------------------------------------

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


def _theta_totals(alpha: list[int]):
    """Yield ((r, s), 9 * 6^(r+s) r! s! (theta_0 - theta_1)_(r,s)) for r + s < len(alpha).

    ``alpha`` holds alpha_k = 3 * 6^k A_(k+1), the EGF of 3A(6u).  A term
    of theta_i with x + y = k has the A indices 1 + k and 1 + r + s - k,
    so the difference is sum_k w(k) alpha_k alpha_(r+s-k) with w the
    weights of (r, s): the ``_degree_sums`` of alpha at degree r + s on
    the rows of ``_weight_rows``, walked once in upward degree, O(r + s)
    per entry.  The entries with r != s (mod 3) are 0 by definition (see
    ``oracles.theta_pair``) and are not yielded.
    """
    for n, rows in enumerate(_weight_rows(len(alpha) - 1)):
        for r, total in zip(range((2 * n) % 3, n + 1, 3), _degree_sums(alpha, n, rows)):
            yield (r, n - r), total


def _theta_holds(alpha: list[int]) -> bool:
    """Whether theta_0 - theta_1 on ``alpha`` is the constant 1/9 through degree len(alpha) - 1.

    True when every total of ``_theta_totals`` is 1 at (0, 0), where the
    difference is then 1/9, and 0 at every other (r, s); this is the one
    definition of the identity.  ``theta_check`` applies it to alpha
    built to degree N, and ``hurwitz.build_hodge_table`` to the table's
    alpha_0..alpha_(G-1) for its component line.
    """
    return all(total == (1 if rs == (0, 0) else 0) for rs, total in _theta_totals(alpha))


def theta_check(N: int) -> bool:
    """Whether theta_0 - theta_1 is the constant 1/9 through total degree N, in O(N^3) steps.

    It builds alpha alone, not b or beta, and decides ``_theta_holds``.

    >>> theta_check(4)
    True
    """
    return _theta_holds(_scaled_alpha(_tau_third(N), _binomial_rows(N)))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def component_entries(table: HodgeTable, g: int) -> list[dict]:
    """[{"l": l, "value": A_g^l as a string}] for the labels of genus g; [] if no value."""
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

"""The theta identity, which also decides the component line, and the table export.

The integer kernel of the theta identity.  ``hurwitz.build_hodge_table``
imports this module only when its table has a component line, and the
``tables``, ``components`` and ``verify theta`` subcommands import it for
the rest; ``verify crc`` and ``verify recursions`` never compile it.

- Theta: at (6X, 6Y), theta_0 - theta_1 is e_2(alpha(L_0), alpha(L_1),
  alpha(L_2))/27 with L_k = w^k X + w^(-k) Y (see ``hurwitz``).  In the
  coordinates (P, Q) = (L_0, L_1), where L_2 = -P - Q, each coefficient
  of e_2 is a product plus two binomial transforms of the products
  alpha_l alpha_(n-l), formed by Pascal additions (``_pq_coefficients``),
  O(N^3) through degree N in integers, with no weights and no Fraction.
  ``_theta_holds`` is the only place they are compared.  ``theta_check``
  decides it on alpha built alone, not b or beta; the table's component
  line decides it on the table's own alpha (see ``hurwitz``).
- Export: all three formats of the ``tables`` output.  ``table_rows``
  gives the per-genus rows, written as they are for JSON, and
  ``table_text`` and ``table_csv`` yield the text and CSV lines of those
  same rows one at a time, so no format holds its whole text;
  ``component_entries`` gives the labels of one genus.

Their test oracles live in ``oracles``: the term-by-term double sum
``theta_pair`` in (X, Y), and the per-component linear systems
(``solve_components``, summed with weights of its own), whose solutions
the component line stands for.  Neither shares a kernel with this module.
"""
from __future__ import annotations

from operator import add
from typing import TYPE_CHECKING, Iterator

from .hurwitz import _nu, _scaled_alpha, _tau_third

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
# The theta identity
# ---------------------------------------------------------------------------

def _pq_coefficients(alpha: list[int], n: int) -> list[int]:
    """The coefficients of P^i Q^(n-i)/(i! (n-i)!), i <= n/2, in e_2(alpha(P), alpha(Q), alpha(R)).

    Here R = -P - Q and e_2(a, b, c) = ab + bc + ca.  With p_l the
    product alpha_l alpha_(n-l), alpha(P) alpha(Q) gives p_i, and
    alpha(Q) alpha(R), with R^m expanded by the binomial theorem, gives
    S_(n-i) with

        S_m = sum_(l<=m) C(m, l) (-1)^(n-l) p_l;

    alpha(R) alpha(P) gives S_i, so the coefficient is p_i + S_i + S_(n-i).
    S_m is the first entry after m rounds of pairwise sums of the signed
    p_l (Pascal's rule), n + 1 products and about n^2/2 additions, with
    no weights and no division.  The coefficients of i and n - i are
    equal, as p_l = p_(n-l), so only i <= n/2 is formed.
    """
    p = [alpha[l] * alpha[n - l] for l in range(n + 1)]
    d = [v if (n - l) % 2 == 0 else -v for l, v in enumerate(p)]
    S = [d[0]]
    for _ in range(n):
        d = list(map(add, d, d[1:]))
        S.append(d[0])
    return [p[i] + S[i] + S[n - i] for i in range(n // 2 + 1)]


def _theta_holds(alpha: list[int]) -> bool:
    """Whether theta_0 - theta_1 on ``alpha`` is the constant 1/9 through degree len(alpha) - 1.

    At (6X, 6Y), theta_0 - theta_1 is e_2 of alpha(L_0), alpha(L_1),
    alpha(L_2) over 27 (see ``hurwitz``), so it is 1/9 through degree N
    exactly when every coefficient of ``_pq_coefficients`` is 3 at degree
    0 and 0 at degrees 1..N; this is the one definition of the identity.
    ``theta_check`` applies it to alpha built to degree N, and
    ``hurwitz.build_hodge_table`` to the table's alpha_0..alpha_(G-1) for
    its component line.
    """
    return all(c == (3 if n == 0 else 0)
               for n in range(len(alpha)) for c in _pq_coefficients(alpha, n))


def theta_check(N: int) -> bool:
    """Whether theta_0 - theta_1 is the constant 1/9 through total degree N, in O(N^3) additions.

    It builds alpha alone, not b or beta, and decides ``_theta_holds``.

    >>> theta_check(4)
    True
    """
    return _theta_holds(_scaled_alpha(_tau_third(N)))


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


def table_text(rows: list[dict]) -> Iterator[str]:
    """The lines of the ``tables`` text output of ``rows`` (``table_rows``), header first."""
    yield f"{'g':>3} {'B':>16} {'Abullet':>16} {'A':>16} {'gamma':>10}  components"
    for row in rows:
        comps = " ".join(f"A^{c['l']}={c['value']}" for c in row["components"])
        yield (f"{row['g']:>3} {row['B']:>16} {row['Abullet'] or '-':>16} "
               f"{row['A'] or '-':>16} {row['gamma']:>10}  {comps}")


def table_csv(rows: list[dict]) -> Iterator[str]:
    """The lines of the ``tables`` CSV output of ``rows`` (``table_rows``), header first."""
    yield "g,B,Abullet,A,gamma,components"
    for row in rows:
        comps = ";".join(f"{c['l']}={c['value']}" for c in row["components"])
        yield ",".join([str(row["g"]), row["B"], row["Abullet"] or "", row["A"] or "",
                        str(row["gamma"]), comps])

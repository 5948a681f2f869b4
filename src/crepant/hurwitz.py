"""Trigonal Hurwitz-Hodge integral tables and their cross-checks.

Conventions.  All generating functions are exponential:

    B(u) = sum_{g>=0} B_g u^g / g!
    A(u) = sum_{g>=1} A_g u^(g-1) / (g-1)!     (same shape for A-bullet)

The closed forms are tangent shifts; with tau(u) = sqrt(3) tan(u/sqrt(12))
(a purely rational series, see ``algebra.tau_series``) the tangent
addition formula turns them into the rational quotients

    B = (1 + tau/3) / (1 - tau),        A = (1 + tau) / (3 - tau),

which is how they are computed here: no square root ever appears.

Every quantity is computed twice, by independent routes, and the pair is
compared exactly:

    B_g        WDVV recursion            vs  coefficients of B(u)
    A-bullet_g WDVV recursion            vs  (2B^2 - 1) / (3B)
    gamma_g    closed form               vs  subset enumeration
    delta_g    closed form               vs  alternating binomial sum
    A_g^l      per-component linear systems  vs  coefficients of A(u)
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import USeries, BiSeries, tau_series, format_rational


class LabelParityError(ValueError):
    """A component label violating l = l' (mod 3); always an indexing bug."""


class SingularSystemError(ArithmeticError):
    """The component system lost rank; always an indexing bug."""


def _binom(n: int, k: int) -> int:
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# Closed-form series
# ---------------------------------------------------------------------------

def b_closed(N: int) -> USeries:
    """B(u) to order N as the rational quotient (1 + tau/3)/(1 - tau)."""
    tau = tau_series(N)
    return (tau * Fraction(1, 3) + 1) / (1 - tau)


def a_closed(N: int) -> USeries:
    """A(u) to order N as the rational quotient (1 + tau)/(3 - tau)."""
    tau = tau_series(N)
    return (tau + 1) / (3 - tau)


def b_values(max_genus: int) -> dict[int, Fraction]:
    """B_g for 0 <= g <= max_genus, read off the closed-form series."""
    ser = b_closed(max_genus)
    return {g: ser.coefficient(g) * math.factorial(g) for g in range(max_genus + 1)}


def a_values(max_genus: int) -> dict[int, Fraction]:
    """A_g for 1 <= g <= max_genus, read off the closed-form series."""
    ser = a_closed(max_genus - 1) if max_genus >= 1 else None
    return {g: ser.coefficient(g - 1) * math.factorial(g - 1)
            for g in range(1, max_genus + 1)}


def abullet_functional(N: int) -> USeries:
    """A-bullet(u) to order N via the functional relation 1 + 3*Ab*B = 2*B^2."""
    B = b_closed(N)
    return (B * B * 2 - 1) / (B * 3)


def abullet_values(max_genus: int) -> dict[int, Fraction]:
    ser = abullet_functional(max_genus - 1) if max_genus >= 1 else None
    return {g: ser.coefficient(g - 1) * math.factorial(g - 1)
            for g in range(1, max_genus + 1)}


# ---------------------------------------------------------------------------
# WDVV recursions
# ---------------------------------------------------------------------------

def b_recursive(max_genus: int) -> list[Fraction]:
    """B_0..B_G from the degeneration recursion, seeded with B_0 = 1, B_1 = 2/3.

    For g >= 2 the recursion reads

        B_{g-1} + sum_{h1+h2=g} 3 C(g-2, h1) B_{h1} B_{h2}
            = sum_{h1+h2=g} 6 C(g-2, h1-1) B_{h1} B_{h2},

    and the unknown B_g appears only in the summand 3 B_0 B_g on the left.
    """
    if max_genus < 0:
        raise ValueError("max_genus must be >= 0")
    B = [Fraction(1), Fraction(2, 3)]
    for g in range(2, max_genus + 1):
        lhs_known = B[g - 1] + 3 * sum(
            _binom(g - 2, h) * B[h] * B[g - h] for h in range(1, g))
        rhs = 6 * sum(
            _binom(g - 2, h - 1) * B[h] * B[g - h] for h in range(1, g))
        B.append((rhs - lhs_known) / 3)
    return B[:max_genus + 1]


def abullet_recursive(max_genus: int, B: list[Fraction] | None = None) -> list[Fraction]:
    """A-bullet_1..A-bullet_G (index 0 unused) from the second recursion.

    For g >= 1:

        delta_{g,1} + sum_{h1+h2=g} 3 C(g-1, h1-1) Ab_{h1} B_{h2}
            = sum_{h1+h2=g-1} 2 C(g-1, h1) B_{h1} B_{h2},

    where the unknown Ab_g has coefficient 3 C(g-1, g-1) B_0 = 3.
    """
    if B is None:
        B = b_recursive(max_genus)
    Ab: list[Fraction] = [Fraction(0)]  # index by genus; g = 0 has no entry
    for g in range(1, max_genus + 1):
        kron = 1 if g == 1 else 0
        lhs_known = kron + 3 * sum(
            _binom(g - 1, h - 1) * Ab[h] * B[g - h] for h in range(1, g))
        rhs = 2 * sum(
            _binom(g - 1, h) * B[h] * B[g - 1 - h] for h in range(0, g))
        Ab.append((rhs - lhs_known) / 3)
    return Ab[:max_genus + 1]


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


def gamma_bruteforce(g: int, cap: int = 20) -> int:
    """Count unordered marking partitions S | S' with |S| = |S'| (mod 3).

    Enumerates all subsets of a (g+2)-element set and halves the ordered
    count; each unordered partition is hit exactly twice because S never
    equals its own complement.
    """
    if g < 0:
        raise ValueError("g must be >= 0")
    if g > cap:
        raise ValueError(f"enumeration capped at g = {cap}")
    n = g + 2
    ordered = sum(1 for mask in range(1 << n) if (2 * mask.bit_count() - n) % 3 == 0)
    if ordered % 2 != 0:
        raise ArithmeticError("ordered partition count is odd; enumeration corrupted")
    return ordered // 2


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


def delta_direct(g: int) -> int:
    """The alternating binomial sum over admissible labels 3i + nu."""
    if g < 1:
        raise ValueError("g must be >= 1")
    nu = _nu(g)
    n = (g + 2 - 2 * nu) // 3
    return sum(_binom(g + 2, 3 * i + nu) * (-1) ** (3 * i + nu) for i in range(n + 1))


# ---------------------------------------------------------------------------
# Component labels and table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentLabel:
    """A connected-component class of the genus-g trigonal space.

    The raw label l counts markings of one monodromy type; l and g+2-l
    name the same (unordered) component class, so labels are normalized
    to l <= g+2-l.  The parity l = g+2-l (mod 3) must hold.
    """
    g: int
    l: int

    def __post_init__(self) -> None:
        if self.g < 1:
            raise ValueError("component labels require g >= 1")
        if not 0 <= self.l <= self.g + 2:
            raise LabelParityError(f"label {self.l} out of range for genus {self.g}")
        if (2 * self.l - (self.g + 2)) % 3 != 0:
            raise LabelParityError(
                f"label {self.l} violates parity for genus {self.g}")
        object.__setattr__(self, "l", min(self.l, self.g + 2 - self.l))


@dataclass
class HodgeTable:
    """Computed Hurwitz-Hodge values with their cross-check status.

    ``components`` maps normalized labels to the per-component integrals
    A_g^l; ``checks`` records the outcome of every dual-oracle comparison
    run while building.
    """
    max_genus: int
    B: dict[int, Fraction] = field(default_factory=dict)
    Abullet: dict[int, Fraction] = field(default_factory=dict)
    A: dict[int, Fraction] = field(default_factory=dict)
    gamma: dict[int, int] = field(default_factory=dict)
    delta: dict[int, int] = field(default_factory=dict)
    components: dict[ComponentLabel, Fraction] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)

    def component_value(self, g: int, l: int) -> Fraction:
        return self.components[ComponentLabel(g, l)]


_BASE_LABELS = {1: 0, 2: 2, 3: 1}  # the unique component class per genus <= 3


# ---------------------------------------------------------------------------
# Exact linear solving
# ---------------------------------------------------------------------------

def solve_exact_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a square system exactly by fraction-free (Bareiss) elimination.

    Rows are scaled to integers, eliminated with exact integer divisions,
    and back-substituted over Fraction.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("system must be square")
    aug: list[list[int]] = []
    for row, b in zip(matrix, rhs):
        entries = [Fraction(x) for x in row] + [Fraction(b)]
        scale = math.lcm(*(e.denominator for e in entries))
        aug.append([int(e * scale) for e in entries])

    prev = 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if aug[r][k] != 0), None)
        if pivot_row is None:
            raise SingularSystemError(f"no pivot in column {k}")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                num = aug[i][j] * aug[k][k] - aug[i][k] * aug[k][j]
                q, r = divmod(num, prev)
                if r != 0:
                    raise ArithmeticError("fraction-free step produced a remainder")
                aug[i][j] = q
            aug[i][k] = 0
        prev = aug[k][k]

    sol = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        if aug[i][i] == 0:
            raise SingularSystemError(f"zero pivot in row {i}")
        acc = Fraction(aug[i][n])
        for j in range(i + 1, n):
            acc -= aug[i][j] * sol[j]
        sol[i] = acc / aug[i][i]
    return sol


# ---------------------------------------------------------------------------
# The per-component system
# ---------------------------------------------------------------------------

def _node_indicators(d: int, side: str) -> tuple[int, int]:
    """Node-monodromy indicators for a term with x - y = d (mod 3).

    ``side`` is "phi" for the (p1 p2 | q1 q2) degeneration and "theta"
    for (p1 q1 | p2 q2).  The excluded residue corresponds to a trivial
    node monodromy, which cannot occur on a connected cover.
    """
    if side == "phi":
        if d == 0:
            return 1, 0
        if d == 2:
            return 0, 1
    else:
        if d == 1:
            return 0, 1
        if d == 2:
            return 1, 0
    raise LabelParityError(f"residue {d} is excluded on the {side} side")


def solve_components(g: int, table: HodgeTable) -> dict[ComponentLabel, Fraction]:
    """Solve for all per-component integrals A_g^l of a single genus g >= 4.

    Each WDVV comparison at genus g+1 with l leading markings produces one
    linear equation whose genus-g ("principal") unknowns are A_g^{l-2} and
    A_g^{l+1}; every other term is a known lower-genus product.  The chain
    of principal equations is closed by the unordered symmetry (g odd) or
    by the completed A-bullet evaluation (g even), and the resulting square
    system is solved exactly.

    The closure equation not used during solving is verified afterwards,
    never assumed.
    """
    if g < 4:
        raise ValueError("solve_components applies for g >= 4")
    nu = _nu(g)
    n = (g + 2 - 2 * nu) // 3          # unknowns x_0..x_n, x_i = A_g^{3i+nu}

    def lookup(h: int, m: int):
        """A_h^m: a table value for h < g, or the unknown index for h = g.

        Unknowns keep their raw label: the system is solved in the n+1
        formal variables x_i = A_g^{3i+nu} with the symmetry x_i = x_{n-i}
        imposed (g odd) or verified (g even) separately, exactly as the
        principal-term bookkeeping requires.
        """
        if h > g:
            raise SingularSystemError(f"genus {h} term above principal genus {g}")
        if h == g:
            if not 0 <= m <= g + 2 or (m - nu) % 3 != 0:
                raise LabelParityError(f"label {m} invalid for principal genus {g}")
            return ("x", (m - nu) // 3)
        return ("v", table.components[ComponentLabel(h, m)])

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(n):
        l = 3 * i + nu + 2
        r, s = l - 2, g + 1 - l
        coeff = [Fraction(0)] * (n + 1)
        const = Fraction(0)
        for sign, side, excluded in ((1, "phi", 1), (-1, "theta", 0)):
            for x in range(r + 1):
                for y in range(s + 1):
                    d = (x - y) % 3
                    if d == excluded:
                        continue
                    ind, ind_bar = _node_indicators(d, side)
                    if side == "phi":
                        m1, m2 = 2 + x + ind, (r - x) + ind_bar
                    else:
                        m1, m2 = 1 + x + ind, 1 + (r - x) + ind_bar
                    f1 = lookup(1 + x + y, m1)
                    f2 = lookup(1 + (r - x) + (s - y), m2)
                    c = Fraction(sign * 3 * _binom(r, x) * _binom(s, y))
                    if f1[0] == "x" and f2[0] == "x":
                        raise SingularSystemError("two principal factors in one term")
                    if f1[0] == "x":
                        coeff[f1[1]] += c * f2[1]
                    elif f2[0] == "x":
                        coeff[f2[1]] += c * f1[1]
                    else:
                        const += c * f1[1] * f2[1]
        rows.append(coeff)
        rhs.append(-const)

    # Closure: one more independent equation.
    symmetry_row = [Fraction(0)] * (n + 1)
    symmetry_row[0], symmetry_row[n] = Fraction(1), Fraction(-1)
    vvv_row = [Fraction(_binom(g + 2, 3 * i + nu)) for i in range(n + 1)]
    vvv_rhs = 2 * table.Abullet[g]
    if g % 2 == 1:
        rows.append(symmetry_row)
        rhs.append(Fraction(0))
    else:
        rows.append(vvv_row)
        rhs.append(vvv_rhs)

    sol = solve_exact_linear(rows, rhs)

    # Post-checks: the unused closure must hold redundantly, all values
    # must agree, and the common value must be A_g.
    if g % 2 == 1:
        if sum(c * v for c, v in zip(vvv_row, sol)) != vvv_rhs:
            raise ArithmeticError(f"genus {g}: A-bullet closure fails redundancy")
    else:
        if any(sol[i] != sol[n - i] for i in range(n + 1)):
            raise ArithmeticError(f"genus {g}: label symmetry fails redundancy")
    if any(v != sol[0] for v in sol):
        raise ArithmeticError(f"genus {g}: component values are not constant: {sol}")
    if g in table.A and sol[0] != table.A[g]:
        raise ArithmeticError(
            f"genus {g}: components equal {sol[0]}, expected A_g = {table.A[g]}")

    return {ComponentLabel(g, 3 * i + nu): sol[i] for i in range(n + 1)}


# ---------------------------------------------------------------------------
# Table construction
# ---------------------------------------------------------------------------

def build_hodge_table(max_genus: int, *, component_max_genus: int | None = None,
                      enumeration_cap: int = 20) -> HodgeTable:
    """Compute every quantity to ``max_genus`` and record cross-check status.

    Component systems are solved up to ``component_max_genus`` (defaults
    to ``max_genus``); the gamma enumeration checks genera up to 12 and
    never above ``enumeration_cap``.
    """
    if component_max_genus is None:
        component_max_genus = max_genus
    if component_max_genus > max_genus:
        raise ValueError("component_max_genus cannot exceed max_genus")
    table = HodgeTable(max_genus=max_genus)

    b_rec = b_recursive(max_genus)
    table.B = b_values(max_genus)
    table.checks["B recursion vs closed form"] = all(
        b_rec[g] == table.B[g] for g in range(max_genus + 1))

    ab_rec = abullet_recursive(max_genus, b_rec)
    table.Abullet = abullet_values(max_genus)
    table.checks["A-bullet recursion vs functional form"] = all(
        ab_rec[g] == table.Abullet[g] for g in range(1, max_genus + 1))

    table.A = a_values(max_genus)
    table.gamma = {g: gamma_formula(g) for g in range(max_genus + 1)}
    table.delta = {g: delta(g) for g in range(1, max_genus + 1)}
    table.checks["delta closed form vs direct sum"] = all(
        delta(g) == delta_direct(g) for g in range(1, max_genus + 1))
    table.checks["gamma formula vs enumeration"] = all(
        gamma_formula(g) == gamma_bruteforce(g, cap=enumeration_cap)
        for g in range(0, min(max_genus, 12, enumeration_cap) + 1))
    table.checks["A-bullet = gamma * A"] = all(
        table.Abullet[g] == table.gamma[g] * table.A[g]
        for g in range(1, max_genus + 1))

    for h, l in _BASE_LABELS.items():
        if h <= max_genus:
            table.components[ComponentLabel(h, l)] = table.A[h]
    components_ok = True
    for g in range(4, component_max_genus + 1):
        solved = solve_components(g, table)
        table.components.update(solved)
        components_ok = components_ok and all(v == table.A[g] for v in solved.values())
    if component_max_genus >= 4:
        table.checks["components independent of label"] = components_ok

    return table


# ---------------------------------------------------------------------------
# The theta identity
# ---------------------------------------------------------------------------

def theta_pair(N: int, avals: dict[int, Fraction] | None = None) -> tuple[BiSeries, BiSeries]:
    """The double-sum series theta_0 and theta_1 to total degree N.

    theta_{i,r,s} sums C(r,x) C(s,y) A_{1+x+y} A_{1+(r-x)+(s-y)} over
    pairs with x - y = i (mod 3); coefficients are stored divided by
    r! s! (exponential normalization), and vanish unless r = s (mod 3).
    """
    if avals is None:
        avals = a_values(N + 1)

    def entry(i_residue: int, r: int, s: int) -> Fraction:
        if (r - s) % 3 != 0:
            return Fraction(0)
        total = Fraction(0)
        for x in range(r + 1):
            for y in range(s + 1):
                if (x - y) % 3 != i_residue:
                    continue
                total += (_binom(r, x) * _binom(s, y)
                          * avals[1 + x + y] * avals[1 + (r - x) + (s - y)])
        return total / (math.factorial(r) * math.factorial(s))

    theta0 = BiSeries.build(N, lambda r, s: entry(0, r, s))
    theta1 = BiSeries.build(N, lambda r, s: entry(1, r, s))
    return theta0, theta1


def theta_check(N: int, avals: dict[int, Fraction] | None = None) -> BiSeries:
    """theta_0 - theta_1 to total degree N; must be the constant 1/9."""
    theta0, theta1 = theta_pair(N, avals)
    return theta0 - theta1


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def table_rows(table: HodgeTable) -> list[dict]:
    """Per-genus rows matching the JSON export schema."""
    rows = []
    for g in range(table.max_genus + 1):
        comps = sorted((label.l, value) for label, value in table.components.items()
                       if label.g == g)
        rows.append({
            "g": g,
            "B": format_rational(table.B[g]),
            "Abullet": format_rational(table.Abullet[g]) if g >= 1 else None,
            "A": format_rational(table.A[g]) if g >= 1 else None,
            "gamma": table.gamma[g],
            "components": [{"l": l, "value": format_rational(v)} for l, v in comps],
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

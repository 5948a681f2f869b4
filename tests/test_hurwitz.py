"""Hurwitz-Hodge quantities: dual oracles, component systems, the theta identity."""
from fractions import Fraction as F
from math import comb as binom, factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crepant import hurwitz
from crepant.hurwitz import (ComponentMismatchError, build_hodge_table,
                             component_entries, component_labels, delta,
                             delta_direct, gamma_direct, gamma_formula,
                             solve_chain, solve_components, table_csv,
                             table_rows, theta_check)
from crepant.hurwitz import (_b_scaled_recursive, _binomial_rows, _degree_sums,
                             _egf_divide, _scaled_series, _theta_totals, _weight_rows)
from crepant.oracles import (_abullet_scaled_recursive, _half_rows, _mod3_weights,
                             _ode_residuals, a_closed, abullet_functional,
                             b_closed, biseries_product, compose_linear,
                             gamma_bruteforce, scale_variable, series_reciprocal,
                             theta_pair)
from crepant.potentials import OMEGA, OMEGA_BAR, Cyc3


# ---------------------------------------------------------------------------
# B series
# ---------------------------------------------------------------------------

def test_b_initial_values():
    B = build_hodge_table(3).B
    assert B[0] == 1
    assert B[1] == F(2, 3)
    assert B[2] == F(2, 3)
    assert B[3] == F(10, 9)


def test_b_recursion_genus_two_instance():
    # the g = 2 specialization: B_1 + 3 B_2 = 6 B_1^2
    B = build_hodge_table(2).B
    assert B[1] + 3 * B[2] == 6 * B[1] ** 2
    assert B[2] == F(2, 3)


def test_b_ode():
    B = b_closed(30)
    Bp = B.differentiate()
    Bpp = Bp.differentiate()
    assert Bp.truncate(28) + B.truncate(28) * Bpp * 3 \
        == Bp.truncate(28) * Bp.truncate(28) * 6


# ---------------------------------------------------------------------------
# A-bullet series
# ---------------------------------------------------------------------------

def test_abullet_genus_one_instance():
    # 1 + 3 Ab_1 B_0 = 2 B_0^2 forces Ab_1 = 1/3
    Ab = build_hodge_table(2).Abullet
    assert Ab[1] == F(1, 3)
    assert Ab[2] == F(2, 3)


def test_abullet_functional_low_coefficients():
    ser = abullet_functional(4)
    assert ser.coefficient(0) == F(1, 3)
    assert ser.coefficient(1) == F(2, 3)


def test_abullet_defining_relation():
    B = b_closed(25)
    Ab = abullet_functional(25)
    assert (1 + Ab * B * 3 - B * B * 2) == B * 0


# ---------------------------------------------------------------------------
# gamma and delta
# ---------------------------------------------------------------------------

def test_gamma_values():
    assert gamma_formula(0) == 1
    assert gamma_formula(1) == 1
    assert gamma_formula(2) == 3


def test_gamma_counting_recursion():
    assert all(2 ** (g + 1) == 2 * gamma_formula(g) + 2 * gamma_formula(g - 1)
               for g in range(1, 31))


def test_gamma_bruteforce_small():
    assert gamma_bruteforce(0) == 1  # the single partition {p}|{q} of two markings
    assert gamma_bruteforce(2) == 3


def test_gamma_dual_oracle():
    assert all(gamma_formula(g) == gamma_bruteforce(g) for g in range(0, 13))


def test_gamma_cap():
    with pytest.raises(ValueError, match="capped"):
        gamma_bruteforce(21)


def test_gamma_direct_matches_enumeration():
    assert all(gamma_direct(g) == gamma_bruteforce(g) for g in range(19))


def test_gamma_direct_matches_formula_to_500():
    assert all(gamma_direct(g) == gamma_formula(g) for g in range(501))


def test_delta_values():
    assert delta(2) == 6
    assert delta(3) == 0
    assert delta(4) == -18
    assert delta_direct(2) == 6  # the single term C(4,2)(-1)^2


def test_delta_dual_oracle_to_40():
    assert all(delta(g) == delta_direct(g) for g in range(1, 41))


# ---------------------------------------------------------------------------
# A series
# ---------------------------------------------------------------------------

def test_a_initial_values():
    A = build_hodge_table(4, component_max_genus=3).A
    assert A[1] == F(1, 3)
    assert A[2] == F(2, 9)
    assert A[3] == F(2, 27)
    assert A[4] == F(2, 27)  # 3! times the u^3 coefficient 1/81


def test_abullet_equals_gamma_times_a(table30):
    A, Ab = table30.A, table30.Abullet
    assert all(Ab[g] == gamma_formula(g) * A[g] for g in range(1, 31))


def test_functional_equation():
    # (2/3)B - (1/3)B^{-1} = (4/3)A(2u) - (1/3)A(-u)
    N = 30
    B = b_closed(N)
    A = a_closed(N)
    lhs = B * F(2, 3) - series_reciprocal(B) * F(1, 3)
    rhs = scale_variable(A, F(2)) * F(4, 3) - scale_variable(A, F(-1)) * F(1, 3)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# The chain solver
# ---------------------------------------------------------------------------

def _dense_solve(matrix, rhs):
    """Gauss-Jordan elimination over Fraction for a nonsingular square system."""
    n = len(matrix)
    rows = [[F(v) for v in row] + [F(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col] / rows[col][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


@st.composite
def chain_systems(draw):
    """A chain scale (x_i + x_(i+1)) = rhs_i, i < n, with one of the two closure kinds."""
    n = draw(st.integers(1, 8))
    rhs = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n))
    scale = draw(st.integers(-10 ** 3, 10 ** 3).filter(bool))
    if n % 2 == 1 and draw(st.booleans()):
        closure, closure_rhs = [1] + [0] * (n - 1) + [-1], 0      # x_0 = x_n, odd g
    else:                                                          # an A-bullet row, even g
        closure = draw(st.lists(st.integers(-50, 50), min_size=n + 1, max_size=n + 1)
                       .filter(lambda c: sum(c[::2]) != sum(c[1::2])))
        closure_rhs = draw(st.fractions(max_denominator=10 ** 4))
    return rhs, scale, closure, closure_rhs


@given(chain_systems())
def test_chain_solver_matches_dense_solver(system):
    rhs, scale, closure, closure_rhs = system
    n = len(rhs)
    matrix = [[scale if j in (i, i + 1) else 0 for j in range(n + 1)] for i in range(n)]
    X, E = solve_chain(rhs, scale, closure, closure_rhs)
    assert all(isinstance(v, int) for v in [*X, E])
    assert [F(v, E) for v in X] == _dense_solve(matrix + [closure], rhs + [closure_rhs])


def test_closure_fixes_x0(monkeypatch):
    # the chain leaves x_i = p_i + (-1)^i x_0, so the closure fixes x_0 with
    # coefficient sum_i (-1)^i closure_i: 2 for odd g, (-1)^nu delta(g) for even g
    leads = []
    real = hurwitz.solve_chain

    def spy(rhs, scale, closure, closure_rhs):
        leads.append(sum((-1) ** i * c for i, c in enumerate(closure)))
        return real(rhs, scale, closure, closure_rhs)

    monkeypatch.setattr(hurwitz, "solve_chain", spy)
    assert build_hodge_table(60).checks["components independent of label"]
    assert leads == [2 if g % 2 else (-1) ** ((1 - g) % 3) * delta(g) for g in range(4, 61)]


# ---------------------------------------------------------------------------
# The integer route against the Fraction oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("G", [0, 1, 2, 5, 30, 60])
def test_integer_route_matches_fraction_oracles(G):
    B, A, Ab = b_closed(G), a_closed(G), abullet_functional(G)
    closed_b = {g: B.coefficient(g) * factorial(g) for g in range(G + 1)}
    closed_a = {g: A.coefficient(g - 1) * factorial(g - 1) for g in range(1, G + 1)}
    closed_ab = {g: Ab.coefficient(g - 1) * factorial(g - 1) for g in range(1, G + 1)}
    table = build_hodge_table(G, component_max_genus=min(G, 3))
    assert all(table.checks.values())
    assert table.B == closed_b
    assert table.A == closed_a
    assert table.Abullet == closed_ab


# ---------------------------------------------------------------------------
# The statements the table no longer checks, and the merged line
# ---------------------------------------------------------------------------

def _b_recursion_residual(b, g, rows):
    """b_g minus what the recursion of ``_b_scaled_recursive`` forms from b_0..b_(g-1)."""
    row = rows[g - 2]
    return b[g] - (2 * sum(row[h - 1] * b[h] * b[g - h] for h in range(1, g))
                   - sum(row[h] * b[h] * b[g - h] for h in range(1, g - 1))
                   - 2 * b[g - 1])


_TAILS = st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=40)


@given(_TAILS.filter(bool))
def test_ode_residual_is_the_b_recursion_residual(tail):
    # so the ODE holds through u^n whenever the B check passes through genus
    # n + 2; the B check also pins b_0 = 1 and b_1 = 4
    b = [1, 4, *tail]
    order = len(b) - 3
    rows = _binomial_rows(len(b))
    assert _ode_residuals(b, order, rows) == [
        _b_recursion_residual(b, n + 2, rows) for n in range(order + 1)]


def test_the_b_recursion_and_the_ode_hold_on_the_closed_form():
    rows = _binomial_rows(40)
    b, _, _ = _scaled_series(40, rows)
    assert _b_scaled_recursive(40, rows) == b
    assert [_b_recursion_residual(b, g, rows) for g in range(2, 41)] == [0] * 39
    assert _ode_residuals(b, 38, rows) == [0] * 39


@given(_TAILS)
def test_abullet_recursion_is_two_b_minus_one_over_b(tail):
    # the WDVV recursion solves 1 + 3 Ab B = 2 B^2 for any B with B_0 = 1,
    # so it agrees with beta = 2b - 1/b of _scaled_series by construction
    b = [1, *tail]
    rows = _binomial_rows(len(tail))
    one = [1] + [0] * len(tail)
    assert _abullet_scaled_recursive(len(b), b, rows) == [
        2 * x - y for x, y in zip(b, _egf_divide(one, b, rows))]


_MERGED = "A-bullet = gamma * A (functional equation)"


@given(st.integers(0, 60).flatmap(lambda G: st.tuples(
    st.just(G), st.integers(0, G), st.integers(-2, 2), st.integers(-2, 2), st.booleans())))
def test_merged_line_holds_exactly_when_both_old_lines_hold(case):
    """The merged line against "A-bullet = gamma * A" and "functional equation for A and B".

    alpha_n and beta_n are moved by (d, e), or, when ``along`` is set, by
    (d, gamma_(n+1) d), which keeps both old lines; the checks read the
    moved series through ``_scaled_series``.
    """
    G, n, d, e, along = case
    b, alpha, beta = _scaled_series(G, _binomial_rows(G))
    alpha[n] += d
    beta[n] += gamma_formula(n + 1) * d if along else e
    gamma_line = all(beta[g - 1] == gamma_formula(g) * alpha[g - 1] for g in range(1, G + 1))
    functional = all(3 * beta[k] == (4 * 2 ** k - (-1) ** k) * alpha[k] for k in range(G + 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hurwitz, "_scaled_series", lambda N, rows: (b, alpha, beta))
        table = build_hodge_table(G, component_max_genus=min(G, 3))
    assert table.checks[_MERGED] == (gamma_line and functional)


def test_table_checks_are_the_four_lines_and_the_components():
    for G, extra in ((0, []), (1, []), (3, []), (4, ["components independent of label"])):
        assert list(build_hodge_table(G).checks) == [
            "B recursion vs closed form", "gamma formula vs enumeration",
            "delta closed form vs direct sum", _MERGED, *extra]


# ---------------------------------------------------------------------------
# Component labels and systems
# ---------------------------------------------------------------------------

def test_component_labels_are_the_parity_classes():
    # raw labels 0 <= l <= g + 2 with 2l = g + 2 (mod 3), l ~ g + 2 - l
    for g in range(1, 61):
        classes = {min(l, g + 2 - l) for l in range(g + 3) if (2 * l - g - 2) % 3 == 0}
        assert component_labels(g) == sorted(classes), g


def test_base_lookup(table30):
    assert table30.components[1] == F(1, 3)
    assert table30.components[2] == F(2, 9)
    assert table30.components[3] == F(2, 27)
    assert [component_labels(g) for g in (1, 2, 3)] == [[0], [2], [1]]


def test_genus_four_components(table30):
    # raw labels 0, 3, 6 with 6 ~ 0
    assert component_entries(table30, 4) == [{"l": 0, "value": "2/27"},
                                             {"l": 3, "value": "2/27"}]


def test_genus_five_components(table30):
    # x_0 = A^2 and x_1 = A^5 name the one class l = 2
    solved = solve_components(5, table30)
    assert (len(solved), component_labels(5)) == (2, [2])
    assert all(v == table30.A[5] for v in solved)


def test_components_match_a_through_14(table30):
    assert table30.components == {g: table30.A[g] for g in range(1, 15)}


def test_solve_components_requires_lower_table(table30):
    # a fresh partial table lacking genus-4 entries cannot serve genus 5
    partial = build_hodge_table(6, component_max_genus=3)
    with pytest.raises(ValueError, match="table.components lacks genus 4; "
                                         "genus 5 needs genera 1..4"):
        solve_components(5, partial)


def test_solve_components_requires_table_genus():
    with pytest.raises(ValueError, match="table holds genus <= 6, need 7"):
        solve_components(7, build_hodge_table(6))


@pytest.mark.parametrize("g, message", [
    (5, "genus 5: A-bullet closure fails redundancy"),
    (6, "genus 6: label symmetry fails redundancy"),
])
def test_solve_components_rejects_corrupted_solution(table30, corrupt_component_solver,
                                                     g, message):
    with pytest.raises(ComponentMismatchError, match=message):
        solve_components(g, table30)


def test_solve_components_rejects_symmetric_nonconstant_solution(table30, monkeypatch):
    # 1 added to the middle of x_0, x_1, x_2 at genus 6 keeps the label
    # symmetry, so only the constancy check sees it
    real = hurwitz.solve_chain

    def bump_middle(*args):
        X, E = real(*args)
        return [X[0], X[1] + E, *X[2:]], E

    monkeypatch.setattr(hurwitz, "solve_chain", bump_middle)
    with pytest.raises(ComponentMismatchError) as raised:
        solve_components(6, table30)
    assert str(raised.value) == ("genus 6: component values are not constant: "
                                 "[Fraction(26, 243), Fraction(269, 243), Fraction(26, 243)]")


@pytest.mark.parametrize("g, shift, message", [
    (5, F(1, 7), "genus 5: components equal 2/27, expected A_g = 41/189"),
    (8, F(1), "genus 8: components equal 82/243, expected A_g = 325/243"),
])
def test_solve_components_rejects_wrong_a(g, shift, message):
    # the system never reads A_g, so a wrong A_g fails only the last check
    table = build_hodge_table(8)
    table.A[g] += shift
    with pytest.raises(ComponentMismatchError) as raised:
        solve_components(g, table)
    assert str(raised.value) == message


def test_solve_components_rejects_consistent_lower_corruption():
    # a non-3-adic corruption of the genus-4 value must reach genus 5:
    # the system is built from table.components, not from A_4
    table = build_hodge_table(8, component_max_genus=4)
    table.components[4] += F(1, 7)
    with pytest.raises(ComponentMismatchError,
                       match="genus 5: A-bullet closure fails redundancy"):
        solve_components(5, table)


def _mod3_weights_double_loop(r, s):
    w = [0] * (r + s + 1)
    for x in range(r + 1):
        for y in range(s + 1):
            w[x + y] += binom(r, x) * binom(s, y) * {0: 1, 1: -1, 2: 0}[(x - y) % 3]
    return w


def test_mod3_weights_match_double_loop():
    pairs = [(r, s) for r in range(25) for s in range(25 - r) if (r - s) % 3 == 0]
    for r, s in pairs:
        assert _mod3_weights(r, s) == _mod3_weights_double_loop(r, s), (r, s)


def _degree_sums_double_loop(values, n):
    w = {0: 1, 1: -1, 2: 0}
    return [sum(binom(r, x) * binom(n - r, y) * w[(x - y) % 3] * values[x + y] * values[n - x - y]
                for x in range(r + 1) for y in range(n - r + 1))
            for r in range(n + 1) if (2 * r - n) % 3 == 0]


@given(st.integers(0, 24).flatmap(
    lambda n: st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n + 1, max_size=n + 1)))
@example(list(range(1, 26)))
def test_degree_sums_match_double_loop(values):
    """Every r = s (mod 3) at degree n = len(values) - 1, both r < s and r > s.

    The values are arbitrary, so the entries for different r differ and a
    mirror that is not reversed fails; on table values every entry of a
    degree is the same, and no end-to-end test sees it.
    """
    n = len(values) - 1
    expected = _degree_sums_double_loop(values, n)
    assert _degree_sums(values, n, _half_rows(n)) == expected
    *_, walked = _weight_rows(n)
    assert _degree_sums(values, n, walked) == expected


def test_weight_walk_matches_mod3_weights():
    # one row per r <= n - r with r = 2n (mod 3), ascending, at every degree
    degrees = list(_weight_rows(60))
    assert len(degrees) == 61
    for n, rows in enumerate(degrees):
        pairs = [(r, n - r) for r in range(n // 2 + 1) if (r - 2 * n) % 3 == 0]
        assert rows == [_mod3_weights(r, s) for r, s in pairs], n


def test_lone_solve_matches_walked_table():
    # a lone solve_components walks the weights to degree g - 1 itself; the
    # table hands each genus its rows from one walk
    table = build_hodge_table(40)
    assert table.checks["components independent of label"]
    for g in range(4, 41):
        assert solve_components(g, table)[0] == table.components[g], g


def test_failed_component_system_is_recorded(corrupt_component_solver):
    table = build_hodge_table(6)
    assert table.checks["components independent of label"] is False
    assert all(ok for name, ok in table.checks.items()
               if name != "components independent of label")


def test_table_checks_pass(table30):
    assert table30.checks
    assert all(table30.checks.values())


@pytest.mark.parametrize("kwargs, message", [
    ({"max_genus": -1}, "max_genus must be >= 0, got -1"),
    ({"max_genus": 5, "component_max_genus": 6}, "component_max_genus cannot exceed max_genus"),
])
def test_build_hodge_table_rejects_bad_input(enumerated_genera, kwargs, message):
    with pytest.raises(ValueError, match=message):
        build_hodge_table(**kwargs)
    assert enumerated_genera == []      # rejected before any work


# ---------------------------------------------------------------------------
# Theta identity
# ---------------------------------------------------------------------------

def test_theta_degree_zero():
    # theta_0 is A_1^2 = 1/9 and theta_1 has no (0, 0) term
    t0, t1 = theta_pair(0)
    assert (t0.coefficient(0, 0), t1.coefficient(0, 0)) == (F(1, 9), 0)
    assert theta_check(0) is True


def test_theta_one_one_terms():
    A = build_hodge_table(3).A
    t0, t1 = theta_pair(2)
    assert t0.coefficient(1, 1) == 2 * A[1] * A[3] == F(4, 81)
    assert t1.coefficient(1, 1) == A[2] ** 2 == F(4, 81)


def test_theta_constant_to_degree_12():
    assert theta_check(12) is True


@pytest.mark.parametrize("N", range(11))
def test_theta_pair_matches_fraction_double_sum(N):
    """theta_pair against its docstring's double sum, written over Fraction.

    A_1..A_(N+1) come from the Fraction oracle ``a_closed``, not from the
    integer kernel that theta_pair sums on.
    """
    aser = a_closed(N)
    A = {g: aser.coefficient(g - 1) * factorial(g - 1) for g in range(1, N + 2)}

    def entry(i, r, s):
        if (r - s) % 3 != 0:
            return 0
        total = sum(binom(r, x) * binom(s, y) * A[1 + x + y] * A[1 + (r - x) + (s - y)]
                    for x in range(r + 1) for y in range(s + 1) if (x - y) % 3 == i)
        return F(total) / (factorial(r) * factorial(s))

    t0, t1 = theta_pair(N)
    for i, theta in ((0, t0), (1, t1)):
        assert all(theta.coefficient(r, s) == entry(i, r, s)
                   for r in range(N + 1) for s in range(N + 1 - r))


def test_theta_totals_match_theta_pair():
    """The degree-grouped totals against theta_pair's term-by-term double sum.

    Each total is (theta_0 - theta_1)_(r,s) times 9 * 6^(r+s) r! s!; the
    entries off r = s (mod 3) are zero and not yielded.
    """
    N = 30
    t0, t1 = theta_pair(N)
    totals = dict(_theta_totals(N))
    assert set(totals) == {(r, s) for r in range(N + 1) for s in range(N + 1 - r)
                           if (r - s) % 3 == 0}
    for r in range(N + 1):
        for s in range(N + 1 - r):
            scaled = ((t0.coefficient(r, s) - t1.coefficient(r, s))
                      * 9 * 6 ** (r + s) * factorial(r) * factorial(s))
            assert scaled == totals.get((r, s), 0), (r, s)
    assert dict(_theta_totals(13)) == {rs: v for rs, v in totals.items() if sum(rs) <= 13}


def test_theta_factorization_over_cyc3():
    """The double sums factor as Q_0^2 and Q_1 Q_{-1} for the twisted averages.

    Q_i = (1/3) (A[0] + wbar^i A[1] + w^i A[2]) with A[k] the composition
    of the A series with w^k x1 + wbar^k x2; checked against the direct
    double-sum construction through total degree 10.
    """
    N = 10
    aser = a_closed(N).map_coeffs(Cyc3)
    comp = [compose_linear(aser, OMEGA ** k, OMEGA_BAR ** k, N) for k in range(3)]

    def Q(i):
        return (comp[0] + comp[1] * OMEGA_BAR ** (i % 3) + comp[2] * OMEGA ** (i % 3)) * F(1, 3)

    t0, t1 = theta_pair(N)
    assert biseries_product(Q(0), Q(0)) == t0.map_coeffs(Cyc3)
    assert biseries_product(Q(1), Q(2)) == t1.map_coeffs(Cyc3)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def test_table_rows_schema(table30):
    rows = table_rows(table30)
    assert rows[0] == {"g": 0, "B": "1", "Abullet": None, "A": None,
                       "gamma": 1, "components": []}
    row4 = rows[4]
    assert row4["g"] == 4
    assert row4["B"] == "22/9"
    assert row4["A"] == "2/27"
    assert row4["gamma"] == 11
    assert {"l": 0, "value": "2/27"} in row4["components"]


def test_table_csv_header_and_rows(table30):
    text = table_csv(table30)
    lines = text.strip().splitlines()
    assert lines[0] == "g,B,Abullet,A,gamma,components"
    assert lines[1] == "0,1,,,1,"
    assert lines[2] == "1,2/3,1/3,1/3,1,0=1/3"

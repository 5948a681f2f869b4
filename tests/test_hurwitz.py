"""Hurwitz-Hodge quantities: dual oracles, component systems, the theta identity."""
from fractions import Fraction as F

import pytest

from crepant.algebra import Cyc3, OMEGA, OMEGA_BAR, compose_linear
from crepant.hurwitz import (ComponentLabel, LabelParityError,
                             SingularSystemError, a_closed, a_values,
                             abullet_functional, abullet_recursive,
                             abullet_values, b_closed, b_recursive, b_values,
                             build_hodge_table, delta, delta_direct,
                             gamma_bruteforce, gamma_formula,
                             solve_components, solve_exact_linear, table_csv,
                             table_rows, theta_check, theta_pair)


# ---------------------------------------------------------------------------
# B series
# ---------------------------------------------------------------------------

def test_b_initial_values():
    B = b_values(3)
    assert B[0] == 1
    assert B[1] == F(2, 3)
    assert B[2] == F(2, 3)
    assert B[3] == F(10, 9)


def test_b_recursion_genus_two_instance():
    # the g = 2 specialization: B_1 + 3 B_2 = 6 B_1^2
    B = b_recursive(2)
    assert B[1] + 3 * B[2] == 6 * B[1] ** 2
    assert B[2] == F(2, 3)


def test_b_dual_oracle_to_30():
    rec = b_recursive(30)
    closed = b_values(30)
    assert all(rec[g] == closed[g] for g in range(31))


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
    Ab = abullet_recursive(2)
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


def test_abullet_dual_oracle_to_30():
    rec = abullet_recursive(30)
    fn = abullet_values(30)
    assert all(rec[g] == fn[g] for g in range(1, 31))


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
    A = a_values(4)
    assert A[1] == F(1, 3)
    assert A[2] == F(2, 9)
    assert A[3] == F(2, 27)
    assert A[4] == F(2, 27)  # 3! times the u^3 coefficient 1/81


def test_abullet_equals_gamma_times_a():
    A = a_values(30)
    Ab = abullet_values(30)
    assert all(Ab[g] == gamma_formula(g) * A[g] for g in range(1, 31))


def test_functional_equation():
    # (2/3)B - (1/3)B^{-1} = (4/3)A(2u) - (1/3)A(-u)
    N = 30
    B = b_closed(N)
    A = a_closed(N)
    lhs = B * F(2, 3) - B.reciprocal() * F(1, 3)
    rhs = A.scale_variable(F(2)) * F(4, 3) - A.scale_variable(F(-1)) * F(1, 3)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Exact linear solver
# ---------------------------------------------------------------------------

def test_solver_known_system():
    sol = solve_exact_linear(
        [[F(1), F(1)], [F(1, 2), F(-1)]], [F(3), F(0)])
    assert sol == [F(2), F(1)]


def test_solver_rejects_singular():
    with pytest.raises(SingularSystemError):
        solve_exact_linear([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)])


def test_solver_fractional_entries():
    m = [[F(1, 3), F(2, 7), F(1)], [F(0), F(5, 2), F(-1, 4)], [F(2), F(0), F(1, 9)]]
    x = [F(3, 5), F(-7, 2), F(11, 13)]
    rhs = [sum(row[j] * x[j] for j in range(3)) for row in m]
    assert solve_exact_linear(m, rhs) == x


# ---------------------------------------------------------------------------
# Component labels and systems
# ---------------------------------------------------------------------------

def test_label_normalization():
    assert ComponentLabel(1, 3) == ComponentLabel(1, 0)
    assert ComponentLabel(4, 6) == ComponentLabel(4, 0)
    assert ComponentLabel(4, 3).l == 3


def test_label_parity_is_hard_error():
    with pytest.raises(LabelParityError):
        ComponentLabel(4, 1)
    with pytest.raises(LabelParityError):
        ComponentLabel(5, 3)
    with pytest.raises(LabelParityError):
        ComponentLabel(4, 9)


def test_base_lookup(table30):
    assert table30.component_value(1, 0) == F(1, 3)
    assert table30.component_value(2, 2) == F(2, 9)
    assert table30.component_value(3, 1) == F(2, 27)


def test_genus_four_components(table30):
    comps = {k.l: v for k, v in table30.components.items() if k.g == 4}
    assert set(comps) == {0, 3}  # raw labels 0, 3, 6 with 6 ~ 0
    assert all(v == F(2, 27) for v in comps.values())


def test_genus_five_components(table30):
    comps = {k.l: v for k, v in table30.components.items() if k.g == 5}
    A5 = a_values(5)[5]
    assert all(v == A5 for v in comps.values())


def test_components_match_a_through_14(table30):
    A = a_values(14)
    for g in range(4, 15):
        comps = [v for k, v in table30.components.items() if k.g == g]
        assert comps and all(v == A[g] for v in comps)


def test_solve_components_requires_lower_table(table30):
    # a fresh partial table lacking genus-4 entries cannot serve genus 5
    partial = build_hodge_table(6, component_max_genus=3)
    with pytest.raises(KeyError):
        solve_components(5, partial)


def test_table_checks_pass(table30):
    assert table30.checks
    assert all(table30.checks.values())


def test_enumeration_cap_limits_gamma_enumeration(enumerated_genera):
    # the enumeration stops at the cap instead of raising above it
    capped = build_hodge_table(8, component_max_genus=3, enumeration_cap=5)
    assert enumerated_genera == [0, 1, 2, 3, 4, 5]
    assert capped.checks["gamma formula vs enumeration"] is True
    full = build_hodge_table(8, component_max_genus=3)
    assert enumerated_genera[6:] == list(range(9))
    assert capped.checks == full.checks
    assert table_rows(capped) == table_rows(full)


# ---------------------------------------------------------------------------
# Theta identity
# ---------------------------------------------------------------------------

def test_theta_degree_zero():
    diff = theta_check(0)
    assert diff.coefficient(0, 0) == F(1, 9)


def test_theta_one_one_terms():
    A = a_values(3)
    t0, t1 = theta_pair(2)
    assert t0.coefficient(1, 1) == 2 * A[1] * A[3] == F(4, 81)
    assert t1.coefficient(1, 1) == A[2] ** 2 == F(4, 81)


def test_theta_constant_to_degree_12():
    diff = theta_check(12)
    assert diff.coefficient(0, 0) == F(1, 9)
    assert all(v == 0 for (r, s), v in diff.items() if (r, s) != (0, 0))


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
    assert Q(0) * Q(0) == t0.map_coeffs(Cyc3)
    assert Q(1) * Q(2) == t1.map_coeffs(Cyc3)


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

"""Hurwitz-Hodge quantities: dual oracles, component systems, the theta identity."""
from fractions import Fraction as F
from math import comb as binom, factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crepant import hurwitz, oracles
from crepant.components import (_pq_coefficients, component_entries, component_labels,
                                table_csv, table_rows, theta_check)
from crepant.hurwitz import build_hodge_table, delta, gamma_formula, marking_counts
from crepant.hurwitz import (_b_scaled_recursive, _egf_divide, _nu,
                             _scaled_alpha, _scaled_series, _tau_third)
from crepant.oracles import (ComponentMismatchError, _abullet_scaled_recursive,
                             _degree_sums, _mod3_weights, _ode_residuals, a_closed,
                             abullet_functional, b_closed, biseries_product,
                             compose_linear, delta_direct, gamma_bruteforce,
                             scale_variable, series_reciprocal, solve_chain,
                             solve_components, theta_pair)
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


def test_walked_gamma_matches_enumeration():
    assert marking_counts(18)[0] == [gamma_bruteforce(g) for g in range(19)]


def test_walked_gamma_matches_formula_to_500():
    assert marking_counts(500)[0] == [gamma_formula(g) for g in range(501)]


def test_delta_values():
    assert delta(2) == 6
    assert delta(3) == 0
    assert delta(4) == -18
    assert delta_direct(2) == 6  # the single term C(4,2)(-1)^2
    assert marking_counts(2)[1][2] == 6


def test_delta_dual_oracle_to_40():
    assert all(delta(g) == delta_direct(g) for g in range(1, 41))


def test_walked_delta_matches_the_binomial_sum_to_300():
    assert marking_counts(300)[1][1:] == [delta_direct(g) for g in range(1, 301)]


def test_walked_delta_matches_closed_form_to_500():
    assert marking_counts(500)[1][1:] == [delta(g) for g in range(1, 501)]


def test_walk_with_a_wrong_residue_raises(monkeypatch):
    # |S| = -g (mod 3) is not |S| = |S'| (mod 3): at g = 0 it counts C(2, 0) = 1, odd
    monkeypatch.setattr(hurwitz, "_nu", lambda g: (-g) % 3)
    with pytest.raises(ArithmeticError, match="odd"):
        marking_counts(5)


def test_walk_rejects_negative_genus():
    with pytest.raises(ValueError, match="G must be >= 0"):
        marking_counts(-1)


# ---------------------------------------------------------------------------
# A series
# ---------------------------------------------------------------------------

def test_a_initial_values():
    A = build_hodge_table(4, components=False).A
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
# The chain solver (an oracle)
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
    real = oracles.solve_chain

    def spy(rhs, scale, closure, closure_rhs):
        leads.append(sum((-1) ** i * c for i, c in enumerate(closure)))
        return real(rhs, scale, closure, closure_rhs)

    monkeypatch.setattr(oracles, "solve_chain", spy)
    table = build_hodge_table(60)
    assert table.checks["components independent of label"]
    for g in range(4, 61):
        solve_components(g, table)
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
    table = build_hodge_table(G, components=False)
    assert all(table.checks.values())
    assert table.B == closed_b
    assert table.A == closed_a
    assert table.Abullet == closed_ab


# ---------------------------------------------------------------------------
# The statements the table no longer checks, and the merged line
# ---------------------------------------------------------------------------

def _b_recursion_residual(b, g):
    """b_g minus what the recursion forms from b_0..b_(g-1), in the paper's two sums.

    ``_b_scaled_recursive`` adds the two sums as one, with the weight
    c_h = 2 C(g-2, h-1) - C(g-2, h); this is the literal form it is tested
    against.
    """
    return b[g] - (2 * sum(binom(g - 2, h - 1) * b[h] * b[g - h] for h in range(1, g))
                   - sum(binom(g - 2, h) * b[h] * b[g - h] for h in range(1, g - 1))
                   - 2 * b[g - 1])


_TAILS = st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=40)


@given(_TAILS.filter(bool))
def test_ode_residual_is_the_b_recursion_residual(tail):
    # so the ODE holds through u^n whenever the B check passes through genus
    # n + 2; the B check also pins b_0 = 1 and b_1 = 4
    b = [1, 4, *tail]
    order = len(b) - 3
    assert _ode_residuals(b, order) == [
        _b_recursion_residual(b, n + 2) for n in range(order + 1)]


def test_the_b_recursion_and_the_ode_hold_on_the_closed_form():
    b, _, _ = _scaled_series(120)
    assert _b_scaled_recursive(120) == b
    assert [_b_recursion_residual(b, g) for g in range(2, 121)] == [0] * 119
    assert _ode_residuals(b, 118) == [0] * 119


@given(_TAILS)
def test_abullet_recursion_is_two_b_minus_one_over_b(tail):
    # the WDVV recursion solves 1 + 3 Ab B = 2 B^2 for any B with B_0 = 1,
    # so it agrees with beta = 2b - 1/b of _scaled_series by construction
    b = [1, *tail]
    one = [1] + [0] * len(tail)
    assert _abullet_scaled_recursive(len(b), b) == [
        2 * x - y for x, y in zip(b, _egf_divide(one, b))]


@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=n, max_size=n),
    st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=n - 1, max_size=n - 1))))
def test_egf_divide_inverts_the_binomial_convolution(case):
    # q = num/den as EGFs exactly when num_n = sum_k C(n, k) den_k q_(n-k)
    num, tail = case
    den = [1, *tail]
    q = _egf_divide(num, den)
    assert len(q) == len(num)
    assert [sum(binom(n, k) * den[k] * q[n - k] for k in range(n + 1))
            for n in range(len(num))] == num


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
    b, alpha, beta = _scaled_series(G)
    alpha[n] += d
    beta[n] += gamma_formula(n + 1) * d if along else e
    gamma_line = all(beta[g - 1] == gamma_formula(g) * alpha[g - 1] for g in range(1, G + 1))
    functional = all(3 * beta[k] == (4 * 2 ** k - (-1) ** k) * alpha[k] for k in range(G + 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hurwitz, "_scaled_series", lambda N: (b, alpha, beta))
        table = build_hodge_table(G, components=False)
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


def test_components_match_a_through_30(table30):
    assert table30.components == {g: table30.A[g] for g in range(1, 31)}


def test_solve_components_requires_lower_table(table30):
    # a fresh partial table lacking genus-4 entries cannot serve genus 5
    partial = build_hodge_table(6, components=False)
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
    real = oracles.solve_chain

    def bump_middle(*args):
        X, E = real(*args)
        return [X[0], X[1] + E, *X[2:]], E

    monkeypatch.setattr(oracles, "solve_chain", bump_middle)
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
    table = build_hodge_table(8)
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

    The values are arbitrary, so the entries for different r differ; on
    table values every entry of a degree is 0 past degree 0, and no
    end-to-end test sees a wrong weight that keeps it 0.
    """
    n = len(values) - 1
    assert _degree_sums(values, n) == _degree_sums_double_loop(values, n)


def test_oracle_solves_a_on_a_passing_table():
    # the line passed on the theta totals, so every system has the one
    # solution A_g at every label
    table = build_hodge_table(60)
    assert table.checks["components independent of label"]
    for g in range(4, 61):
        assert solve_components(g, table) == [table.A[g]] * len(range(_nu(g), g + 3, 3)), g


@given(st.tuples(st.integers(-10 ** 6, 10 ** 6).filter(bool),
                 st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=30, max_size=30)))
def test_system_rhs_is_the_theta_total_less_its_principal_terms(draw):
    """Each right-hand side of the oracle's genus-g systems, g = 4..31, from the theta totals.

    With A_h = alpha_(h-1)/(3 * 6^(h-1)) as the lower values and D their
    common denominator, the pair r + s = n = g - 1 has
    rhs = -3 D^2/(9 * 6^n) (T(r, s) - 2 alpha_0 alpha_n), T(r, s) its
    theta total on alpha by the literal double sum; alpha_n, the genus-g
    slot, is free.
    """
    alpha = [draw[0], *draw[1]]
    G = len(alpha)
    table = hurwitz.HodgeTable(G)
    table.components = {h: F(alpha[h - 1], 3 * 6 ** (h - 1)) for h in range(1, G)}
    table.A = table.Abullet = dict.fromkeys(range(4, G + 1), F(0))
    seen = []

    def spy(rhs, scale, closure, closure_rhs):
        seen.append(rhs)
        return [0] * (len(rhs) + 1), 1      # x_i = 0 = A_g passes every check

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "solve_chain", spy)
        for g in range(4, G + 1):
            solve_components(g, table)
    for g, rhs in zip(range(4, G + 1), seen, strict=True):
        n = g - 1
        D = oracles._over_common_denominator(table.components[h] for h in range(1, g))[1]
        assert rhs == [F(-3 * D * D, 9 * 6 ** n) * (t - 2 * alpha[0] * alpha[n])
                       for t in _degree_sums_double_loop(alpha, n)], g


def test_closure_row_sums_to_two_gamma():
    # so with every label at A_g the closure reads Ab_g = gamma_g A_g
    for g in range(4, 201):
        assert sum(binom(g + 2, l) for l in range(_nu(g), g + 3, 3)) == 2 * gamma_formula(g), g


def test_failed_component_system_is_recorded(corrupt_theta_totals):
    table = build_hodge_table(6)
    assert table.checks["components independent of label"] is False
    assert all(ok for name, ok in table.checks.items()
               if name != "components independent of label")


def test_table_checks_pass(table30):
    assert table30.checks
    assert all(table30.checks.values())


@pytest.mark.parametrize("kwargs, message", [
    ({"max_genus": -1}, "max_genus must be >= 0, got -1"),
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
    """The literal degree-grouped totals against theta_pair's term-by-term double sum.

    Each total is (theta_0 - theta_1)_(r,s) times 9 * 6^(r+s) r! s!; the
    entries off r = s (mod 3) are zero and have no total.
    """
    N = 30
    t0, t1 = theta_pair(N)
    alpha = _scaled_alpha(_tau_third(N))
    totals = {(r, n - r): total for n in range(N + 1) for r, total in
              zip(range((2 * n) % 3, n + 1, 3), _degree_sums_double_loop(alpha, n))}
    for r in range(N + 1):
        for s in range(N + 1 - r):
            scaled = ((t0.coefficient(r, s) - t1.coefficient(r, s))
                      * 9 * 6 ** (r + s) * factorial(r) * factorial(s))
            assert scaled == totals.get((r, s), 0), (r, s)


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=16))
def test_pq_coefficients_are_three_times_the_theta_totals(alpha):
    """The (P, Q) kernel, substituted back into (X, Y), is 3 times the literal totals.

    With P = X + Y and Q = w X + w^2 Y, the term of P^i Q^(n-i)/(i! (n-i)!)
    gives C(r, a) C(s, b) w^((r-a) + 2(s-b)) to X^r Y^s/(r! s!) for each
    a + b = i.  Z[w] is held as integer pairs x + y w, with w^2 = -1 - w.
    The kernel forms i <= n/2; the coefficients of i and n - i are equal.
    """
    for n in range(len(alpha)):
        half = _pq_coefficients(alpha, n)
        c = [half[min(i, n - i)] for i in range(n + 1)]
        totals = iter(_degree_sums_double_loop(alpha, n))
        for r in range(n + 1):
            s = n - r
            x = y = 0
            for a in range(r + 1):
                for b in range(s + 1):
                    term = c[a + b] * binom(r, a) * binom(s, b)
                    k = ((r - a) + 2 * (s - b)) % 3
                    x += (term, 0, -term)[k]
                    y += (0, term, -term)[k]
            assert (x, y) == ((3 * next(totals) if (r - s) % 3 == 0 else 0), 0), (n, r)


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
    # so theta_0 - theta_1 = Q_0^2 - Q_1 Q_2 = e_2(comp)/3, the kernel's reading
    e2 = (biseries_product(comp[0], comp[1]) + biseries_product(comp[1], comp[2])
          + biseries_product(comp[2], comp[0]))
    assert e2 * F(1, 3) == (t0 - t1).map_coeffs(Cyc3)


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
    text = "\n".join(table_csv(table_rows(table30)))
    lines = text.strip().splitlines()
    assert lines[0] == "g,B,Abullet,A,gamma,components"
    assert lines[1] == "0,1,,,1,"
    assert lines[2] == "1,2/3,1/3,1/3,1,0=1/3"

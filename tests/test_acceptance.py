"""Acceptance suite: one test per criterion, one printed line per outcome.

Every comparison is exact (arbitrary-precision rational or cyclotomic);
the only tolerances here are the stated runtime budgets.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""
import functools
import math
import random
import time
from fractions import Fraction as F

from crepant.components import theta_check
from crepant.hurwitz import build_hodge_table, delta, gamma_formula
from crepant.mckay import check_n3_specialization
from crepant.oracles import (USeries, _abullet_scaled_recursive, a_closed, b_closed,
                             cyc3_inverse, delta_direct, fx_third_partial,
                             fy_third_partial, gamma_bruteforce, scale_variable,
                             series_reciprocal, solve_components, swap_series, swap_t,
                             tangent_series)
from crepant.potentials import (OMEGA, OMEGA_BAR, Cyc3, FixedPointData, InverseT1T2, LinT,
                                geometric_exp_series, triple_intersection, verify_crc)


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:>2}: FAIL - {desc}")
                raise
            print(f"criterion {num:>2}: PASS - {desc}")
        return inner
    return wrap


@criterion(1, "B-series dual oracle to genus 30 (< 5 s)")
def test_criterion_1_b_dual_oracle():
    start = time.monotonic()
    table = build_hodge_table(30, components=False)
    elapsed = time.monotonic() - start
    assert table.checks["B recursion vs closed form"] is True
    B = table.B
    assert B[0] == 1 and B[1] == F(2, 3)
    assert B[2] == F(2, 3) and B[3] == F(10, 9)
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


@criterion(2, "A-bullet dual oracle to genus 30")
def test_criterion_2_abullet_dual_oracle():
    table = build_hodge_table(30, components=False)
    assert table.checks["A-bullet = gamma * A (functional equation)"] is True
    # the WDVV recursion itself, run on the table's B
    b = [B * 6 ** g for g, B in sorted(table.B.items())]
    beta = _abullet_scaled_recursive(30, b)
    assert {g: F(beta[g - 1], 3 * 6 ** (g - 1)) for g in range(1, 31)} == table.Abullet
    assert table.Abullet[1] == F(1, 3) and table.Abullet[2] == F(2, 3)


@criterion(3, "gamma enumeration vs closed form for g <= 18 (< 30 s)")
def test_criterion_3_gamma_cross_check():
    start = time.monotonic()
    for g in range(0, 19):
        formula = gamma_formula(g)
        assert formula == gamma_bruteforce(g)
        assert formula == (2 ** (g + 1) + (-1) ** g) // 3
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"


@criterion(4, "delta direct sum vs closed form for g <= 40")
def test_criterion_4_delta_cross_check():
    assert all(delta_direct(g) == delta(g) for g in range(1, 41))
    assert delta(2) == 6
    assert all(delta(g) == 0 for g in range(1, 41) if g % 2 == 1)
    assert delta(4) == -18


@criterion(5, "component systems constant and equal to A_g for 4 <= g <= 14 (< 60 s)")
def test_criterion_5_component_independence():
    start = time.monotonic()
    table = build_hodge_table(14, components=False)
    A = table.A
    for g in range(4, 15):
        solved = solve_components(g, table)
        table.components[g] = solved[0]
        assert solved and all(v == solved[0] for v in solved)
        assert solved[0] == A[g]
        # the closure not used during solving, recomputed from the solution
        nu = (1 - g) % 3
        n = (g + 2 - 2 * nu) // 3
        assert len(solved) == n + 1
        vvv = sum(math.comb(g + 2, 3 * i + nu) * solved[i] for i in range(n + 1))
        assert vvv == 2 * table.Abullet[g]
        assert table.Abullet[g] == gamma_formula(g) * A[g]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f} s"


@criterion(6, "functional equation linking A and B to order 30")
def test_criterion_6_functional_equation():
    B = b_closed(30)
    A = a_closed(30)
    diff = (B * F(2, 3) - series_reciprocal(B) * F(1, 3)
            - scale_variable(A, F(2)) * F(4, 3) + scale_variable(A, F(-1)) * F(1, 3))
    assert diff == B * 0


@criterion(7, "theta_0 - theta_1 is the constant 1/9 to degree 20 (< 10 s)")
def test_criterion_7_theta_identity():
    start = time.monotonic()
    ok = theta_check(20)
    elapsed = time.monotonic() - start
    assert ok is True
    assert elapsed < 10.0, f"took {elapsed:.2f} s"


@criterion(8, "localization reproduces all ten triple intersections")
def test_criterion_8_localization_table():
    data = FixedPointData.standard()
    expected = {
        ("1", "1", "1"): InverseT1T2(F(1, 3)),
        ("1", "1", "C1"): LinT.zero(),
        ("1", "1", "C2"): LinT.zero(),
        ("1", "C1", "C1"): LinT.of(F(-2, 3)),
        ("1", "C2", "C2"): LinT.of(F(-2, 3)),
        ("1", "C1", "C2"): LinT.of(F(-1, 3)),
        ("C1", "C1", "C1"): LinT.of(0, F(4, 3), F(2, 3)),
        ("C1", "C1", "C2"): LinT.of(0, F(2, 3), F(1, 3)),
        ("C2", "C2", "C2"): LinT.of(0, F(2, 3), F(4, 3)),
        ("C2", "C2", "C1"): LinT.of(0, F(1, 3), F(2, 3)),
    }
    for classes, value in expected.items():
        assert triple_intersection(*classes, data=data) == value, classes


@criterion(9, "third partials of the two potentials agree at order 15 (< 120 s)")
def test_criterion_9_crc_identity(table30):
    start = time.monotonic()
    report = verify_crc(15, table30)
    elapsed = time.monotonic() - start
    assert report["all_pass"] is True
    assert len(report["checks"]) == 10
    assert all(c["status"] == "pass" for c in report["checks"])
    assert elapsed < 120.0, f"took {elapsed:.2f} s"


@criterion(10, "cyclic transform at n = 3 reproduces the explicit substitution")
def test_criterion_10_duval_specialization():
    assert check_n3_specialization() is True


@criterion(11, "property suites: field axioms, ODEs, geometric identity, symmetry")
def test_criterion_11_property_suites(table30):
    # field axioms on 10^4 random Cyc3 samples
    rng = random.Random(20260808)

    def sample():
        return Cyc3(F(rng.randint(-60, 60), rng.randint(1, 20)),
                    F(rng.randint(-60, 60), rng.randint(1, 20)))

    for _ in range(10_000):
        x, y, z = sample(), sample(), sample()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if bool(x):
            assert x * cyc3_inverse(x) == 1

    # ODE B' + 3BB'' = 6(B')^2 termwise to order 28
    B = b_closed(30)
    Bp = B.differentiate()
    Bpp = Bp.differentiate()
    assert Bp.truncate(28) + B.truncate(28) * Bpp * 3 \
        == Bp.truncate(28) * Bp.truncate(28) * 6

    # tan' = 1 + tan^2 termwise to order 28
    tan = tangent_series(29)
    assert tan.differentiate() == (1 + tan * tan).truncate(28)

    # G_q' = G_q + G_q^2 termwise to order 12
    for q in (OMEGA, OMEGA_BAR):
        G = USeries(13, geometric_exp_series(q, 13))
        assert G.differentiate() == (G + G * G).truncate(12)

    # x1 <-> x2, t1 <-> t2 symmetry of all third partials
    for idx in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]:
        mirror = tuple(sorted(3 - i for i in idx))
        assert swap_series(fy_third_partial(idx, N=8)) == fy_third_partial(mirror, N=8)
        assert swap_series(fx_third_partial(idx, table30, N=8)) \
            == fx_third_partial(mirror, table30, N=8)
    for idx in [(0, 0, 0), (0, 1, 2)]:
        fy = fy_third_partial(idx)
        fx = fx_third_partial(idx, table30)
        if isinstance(fy, LinT):
            assert swap_t(fy) == fy and swap_t(fx) == fx
    assert fy_third_partial((0, 0, 1)) == swap_t(fy_third_partial((0, 0, 2)))
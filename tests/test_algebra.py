"""Scalar and series arithmetic: frozen examples and ring-axiom properties."""
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crepant.algebra import (BiSeries, Cyc3, CycField, DegreeOverflowError,
                             I_OVER_SQRT3, I_SQRT3, LinT, OMEGA, OMEGA_BAR,
                             T1, T2, USeries, compose_linear,
                             cyclotomic_polynomial, geometric_exp_series,
                             tangent_series, tau_series)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
cyc3s = st.builds(Cyc3, rationals, rationals)


def series(coeffs, order=None):
    return USeries.from_coeffs([F(c) for c in coeffs], order)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_cyc3_json_roundtrip():
    z = Cyc3(F(-2, 7), F(5, 3))
    assert Cyc3.from_json(z.to_json()) == z
    assert z.to_json() == {"a": "-2/7", "b": "5/3"}


# ---------------------------------------------------------------------------
# Cyc3
# ---------------------------------------------------------------------------

def test_omega_relations():
    assert OMEGA ** 3 == 1
    assert 1 + OMEGA + OMEGA ** 2 == 0
    assert OMEGA ** 2 == OMEGA_BAR
    assert OMEGA.conjugate() == OMEGA_BAR


def test_i_sqrt3_squares_to_minus_three():
    assert I_SQRT3 * I_SQRT3 == -3
    assert I_OVER_SQRT3 == I_SQRT3 / 3


def test_one_minus_omega_inverse():
    assert (1 - OMEGA).inverse() == (1 - OMEGA_BAR) / 3


@given(cyc3s)
def test_conjugation_involution(z):
    assert z.conjugate().conjugate() == z


@given(cyc3s)
def test_norm_is_rational_and_nonnegative(z):
    prod = z * z.conjugate()
    assert prod.is_rational()
    assert prod.as_rational() >= 0
    assert (prod.as_rational() == 0) == (z == Cyc3(F(0)))


@given(cyc3s, cyc3s, cyc3s)
def test_cyc3_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(cyc3s)
def test_cyc3_inverse(z):
    if z == Cyc3(F(0)):
        with pytest.raises(ZeroDivisionError):
            z.inverse()
    else:
        assert z * z.inverse() == 1


@given(st.fractions(min_value=-30, max_value=30, max_denominator=12),
       st.fractions(min_value=-30, max_value=30, max_denominator=12))
def test_rational_field_axioms(x, y):
    assert x + y == y + x
    assert x * y == y * x
    if y != 0:
        assert (x / y) * y == x


# ---------------------------------------------------------------------------
# CycField
# ---------------------------------------------------------------------------

def test_cyclotomic_polynomials():
    assert [int(c) for c in cyclotomic_polynomial(1)] == [-1, 1]
    assert [int(c) for c in cyclotomic_polynomial(3)] == [1, 1, 1]
    assert [int(c) for c in cyclotomic_polynomial(4)] == [1, 0, 1]
    assert [int(c) for c in cyclotomic_polynomial(6)] == [1, -1, 1]
    assert [int(c) for c in cyclotomic_polynomial(12)] == [1, 0, -1, 0, 1]


def test_cycfield_inverse_and_powers():
    K = CycField(10)
    z = K.zeta()
    assert z ** 10 == K.one()
    assert z ** -1 == z.inverse()
    elt = z * 3 + K.one() * F(1, 2)
    assert elt * elt.inverse() == K.one()


@given(rationals, rationals, rationals, rationals)
def test_cycfield3_matches_cyc3(a1, b1, a2, b2):
    K = CycField(3)
    x, y = Cyc3(a1, b1), Cyc3(a2, b2)
    ex, ey = K.element([a1, b1]), K.element([a2, b2])
    assert (ex + ey).coeffs == ((x + y).a, (x + y).b)
    assert (ex * ey).coeffs == ((x * y).a, (x * y).b)
    assert (ex - ey).coeffs == ((x - y).a, (x - y).b)


# ---------------------------------------------------------------------------
# LinT
# ---------------------------------------------------------------------------

def test_lint_rejects_t_degree_two():
    with pytest.raises(DegreeOverflowError):
        T1 * T2
    with pytest.raises(DegreeOverflowError):
        (T1 + T2) * (T1 + LinT.of(5))


def test_lint_scalar_products():
    v = T1 * OMEGA + T2 * F(1, 2) + LinT.of(3)
    assert v.evaluate(F(2), F(4)) == OMEGA * 2 + 5
    assert v.swap_t() == T2 * OMEGA + T1 * F(1, 2) + LinT.of(3)
    assert LinT.of(F(1, 3)) * v == v * F(1, 3)


# ---------------------------------------------------------------------------
# USeries: multiplication and division
# ---------------------------------------------------------------------------

def test_geometric_series():
    assert (1 / series([1, -1], 3)).coeffs == (1, 1, 1, 1)


def test_multiplicative_identity():
    f = series([2, F(1, 3), 0, 7])
    assert f * series([1], 3) == f


def test_quotient_example():
    # (1 + tau/3)/(1 - tau) with tau = u/2 + u^3/72 matches the hand expansion
    tau = series([0, F(1, 2), 0, F(1, 72)])
    q = (tau / 3 + 1) / (1 - tau)
    assert q.coeffs == (1, F(2, 3), F(1, 3), F(5, 27))


def test_mixed_order_rejected():
    with pytest.raises(ValueError, match="mixed-order"):
        series([1], 3) + series([1], 4)
    with pytest.raises(ValueError, match="mixed-order"):
        series([1], 3) * series([1], 4)


def test_division_requires_invertible_constant():
    with pytest.raises(ZeroDivisionError, match="non-invertible"):
        series([1, 1], 3) / series([0, 1], 3)


@given(st.lists(rationals, min_size=1, max_size=6),
       st.lists(rationals, min_size=1, max_size=6))
def test_mul_div_roundtrip(fs, gs):
    order = 6
    f = series(fs, order)
    g = series(gs, order)
    if gs[0] == 0:
        return
    assert f * g / g == f


# ---------------------------------------------------------------------------
# Tangent machinery
# ---------------------------------------------------------------------------

def tan_coeffs_by_ode(N):
    """Independent oracle: grow tan coefficientwise from tan' = 1 + tan^2."""
    cs = [F(0)]
    for k in range(N):
        sq = sum(cs[i] * cs[k - i] for i in range(len(cs)) if 0 <= k - i < len(cs))
        cs.append((int(k == 0) + sq) / (k + 1))
    return tuple(cs)


def test_tangent_series_against_ode_oracle():
    assert tangent_series(12).coeffs == tan_coeffs_by_ode(12)


def test_tangent_series_examples():
    t = tangent_series(5)
    assert t.coeffs == (0, 1, 0, F(1, 3), 0, F(2, 15))
    assert t.coefficient(0) == 0
    assert t.coefficient(2) == 0


def test_tangent_derivative_identity():
    t = tangent_series(29)
    assert t.differentiate() == (1 + t * t).truncate(28)


def test_tau_series_examples():
    tau = tau_series(5)
    assert tau.coeffs == (0, F(1, 2), 0, F(1, 72), 0, F(1, 2160))
    assert (tau * tau).coefficient(2) == F(1, 4)


def test_tau_transported_derivative():
    tau = tau_series(20)
    assert tau.differentiate() * 6 == (tau * tau + 3).truncate(19)


def test_scale_variable():
    f = series([1, 2, 3])
    assert f.scale_variable(F(-1)).coeffs == (1, -2, 3)
    assert f.scale_variable(F(2)).coeffs == (1, 4, 12)


# ---------------------------------------------------------------------------
# compose_linear and BiSeries
# ---------------------------------------------------------------------------

def test_compose_linear_affine():
    f = USeries.from_coeffs([Cyc3(F(1)), Cyc3(F(1))])
    b = compose_linear(f, Cyc3(F(1)), Cyc3(F(1)), 1)
    assert b.coefficient(0, 0) == 1
    assert b.coefficient(1, 0) == 1
    assert b.coefficient(0, 1) == 1


def test_compose_linear_square_of_omega_form():
    f = USeries.from_coeffs([Cyc3(F(0)), Cyc3(F(0)), Cyc3(F(1))])
    b = compose_linear(f, OMEGA, OMEGA_BAR, 2)
    assert b.coefficient(2, 0) == OMEGA_BAR
    assert b.coefficient(1, 1) == 2
    assert b.coefficient(0, 2) == OMEGA


def test_compose_linear_constant():
    f = USeries.from_coeffs([Cyc3(F(5, 7))])
    b = compose_linear(f, OMEGA, OMEGA, 0)
    assert b.coefficient(0, 0) == F(5, 7)


def test_compose_linear_order_guard():
    f = USeries.from_coeffs([Cyc3(F(1))], 2)
    with pytest.raises(ValueError, match="order"):
        compose_linear(f, Cyc3(F(1)), Cyc3(F(1)), 3)


def test_biseries_product_and_division():
    g = compose_linear(geometric_exp_series(OMEGA, 6), OMEGA, OMEGA_BAR, 6)
    with pytest.raises(ValueError, match="mixed-order"):
        g * g.truncate(4)


def test_biseries_swap_and_derivatives():
    g = compose_linear(geometric_exp_series(OMEGA, 5), OMEGA, OMEGA_BAR, 5)
    assert g.swap().swap() == g
    # d/dx1 then d/dx2 commutes
    assert g.d_dx1().d_dx2() == g.d_dx2().d_dx1()


def test_geometric_series_functional_identity():
    for q in (OMEGA, OMEGA_BAR):
        g = geometric_exp_series(q, 12)
        assert g.coefficient(0) == q / (1 - q)
        assert g.differentiate() == (g + g * g).truncate(11)


def test_geometric_series_rejects_unit_q():
    with pytest.raises(ZeroDivisionError):
        geometric_exp_series(Cyc3(F(1)), 4)

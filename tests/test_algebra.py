"""Scalar and series arithmetic: frozen examples and ring-axiom properties."""
import copy
import itertools
import math
import pickle
import operator
import random
from fractions import Fraction as F
from functools import reduce
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crepant import potentials
from crepant.algebra import CycField, cyclotomic_polynomial
from crepant.potentials import (Cyc3, DegreeOverflowError, I_OVER_SQRT3, LinT, OMEGA,
                                OMEGA_BAR, _check_geometric_numerators,
                                _geometric_numerators, geometric_exp_series)
from crepant.hurwitz import tangent_numbers
from crepant.oracles import (BiSeries, USeries, compose_linear, cyc3_inverse, d_dx1, d_dx2,
                             geometric_series_by_reciprocal, scale_variable,
                             series_reciprocal, swap_series, swap_t, tangent_series,
                             tau_series)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
cyc3s = st.builds(Cyc3, rationals, rationals)

I_SQRT3 = Cyc3(1, 2)      # i*sqrt(3) = 2w + 1
T1 = LinT.of(0, 1, 0)
T2 = LinT.of(0, 0, 1)


def series(coeffs, order=None):
    return USeries.from_coeffs([F(c) for c in coeffs], order)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_cyc3_json_roundtrip():
    z = Cyc3(F(-2, 7), F(5, 3))
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
    assert I_OVER_SQRT3 == I_SQRT3 * F(1, 3)


def test_one_minus_omega_inverse():
    assert cyc3_inverse(1 - OMEGA) == (1 - OMEGA_BAR) * F(1, 3)


@given(cyc3s)
def test_conjugation_involution(z):
    assert z.conjugate().conjugate() == z


@given(cyc3s)
def test_norm_is_rational_and_nonnegative(z):
    prod = z * z.conjugate()
    assert prod.b == 0
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
            cyc3_inverse(z)
    else:
        assert z * cyc3_inverse(z) == 1


# The Fraction formulas of Q(w) on pairs (a, b) = a + b*w, the reference
# for the integer numerators of Cyc3.

def _ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c - b * d


def _ref_pow(x, n):
    out = (F(1), F(0))
    for _ in range(n):
        out = _ref_mul(out, x)
    return out


def _ref_str(a, b):
    if b == 0:
        return str(a)
    wpart = "w" if b == 1 else "-w" if b == -1 else f"{b}w"
    if a == 0:
        return wpart
    return f"{a} {'+' if b > 0 else '-'} {wpart.lstrip('-')}"


def _is_canonical_cyc3(z):
    return (all(type(v) is int for v in (z.na, z.nb, z.den)) and z.den > 0
            and math.gcd(z.na, z.nb, z.den) == 1 and (bool(z) or (z.na, z.den) == (0, 1)))


@given(rationals, rationals, rationals, rationals, st.integers(min_value=-3, max_value=4))
def test_integer_cyc3_matches_fraction_formulas(a, b, c, d, n):
    x, y = Cyc3(a, b), Cyc3(c, d)
    cases = [(x, (a, b)), (y, (c, d)), (x + y, (a + c, b + d)), (x - y, (a - c, b - d)),
             (x * y, _ref_mul((a, b), (c, d))), (-x, (-a, -b)), (x.conjugate(), (a - b, -b))]
    if n >= 0:
        cases.append((x ** n, _ref_pow((a, b), n)))
    else:
        with pytest.raises(ValueError, match="negative powers"):
            x ** n
    for z, (p, q) in cases:
        assert _is_canonical_cyc3(z)
        assert (z.a, z.b) == (p, q)
        assert z == Cyc3(p, q) and (z == y) == ((p, q) == (c, d))
        assert hash(z) == (hash(p) if q == 0 else hash((p, q)))
        assert str(z) == _ref_str(p, q)
        assert z.to_json() == {"a": str(p), "b": str(q)}


@given(rationals)
def test_rational_cyc3_is_its_fraction(q):
    z = Cyc3(q)
    assert z == q and q == z and hash(z) == hash(q)
    assert z.as_rational() == q and (z.na, z.den) == (q.numerator, q.denominator)
    assert Cyc3(q, 1) != q
    assert OMEGA * q == Cyc3(0, q) and OMEGA + q == Cyc3(q, 1)


def test_cyc3_zero_and_floats():
    for zero in (Cyc3(0), Cyc3(F(0, 7), 0), OMEGA - OMEGA, Cyc3(F(1, 3)) * 0):
        assert (zero.na, zero.nb, zero.den) == (0, 0, 1)
    for bad in (lambda: Cyc3(0.5), lambda: Cyc3(1, 0.5), lambda: OMEGA + 0.5,
                lambda: OMEGA * 0.5, lambda: OMEGA - 0.5, lambda: LinT.of(0.5)):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(AttributeError):
        OMEGA.na = 1


def test_values_copy_and_pickle_by_value():
    # Record fields cannot be set, so copy and pickle go through the constructors
    values = [I_OVER_SQRT3, T1 * OMEGA, USeries.from_coeffs([OMEGA, F(1, 2)]),
              CycField(6).zeta() * F(2, 3)]
    for z in values:
        for twin in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
            assert twin == z and hash(twin) == hash(z) and repr(twin) == repr(z)


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
    assert K.zeta_pow(-1) * z == K.one()
    with pytest.raises(ValueError):
        z ** -1


def test_cycfield_matches_sympy():
    """Phi_m and the reduction by the power table against sympy's own routes."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(expected), m
    rng = random.Random(20261018)
    for m in (1, 2, 3, 4, 6, 12, 24, 30, 60):
        K = CycField(m)
        phi = sympy.Poly(list(reversed(cyclotomic_polynomial(m))), x, domain="QQ")
        for _ in range(5):
            v = [F(rng.randint(-50, 50), rng.randint(1, 12))
                 for _ in range(rng.randint(0, 3 * m))]
            rem = sympy.Poly(list(reversed(v)) or [0], x, domain="QQ").rem(phi)
            expected = [F(int(c.p), int(c.q)) for c in rem.all_coeffs()[::-1]]
            expected += [F(0)] * (K.degree - len(expected))
            assert K.element(v).coeffs == tuple(expected), (m, v)


@given(rationals, rationals, rationals, rationals)
def test_cycfield3_matches_cyc3(a1, b1, a2, b2):
    K = CycField(3)
    x, y = Cyc3(a1, b1), Cyc3(a2, b2)
    ex, ey = K.element([a1, b1]), K.element([a2, b2])
    assert (ex + ey).coeffs == ((x + y).a, (x + y).b)
    assert (ex * ey).coeffs == ((x * y).a, (x * y).b)
    assert (ex - ey).coeffs == ((x - y).a, (x - y).b)


def test_cycelement_equals_rationals():
    K = CycField(6)
    assert K.one() == 1 and 1 == K.one()
    assert K.one() + 1 == 2
    assert K.from_rational(F(-3, 4)) == F(-3, 4)
    assert K.zeta() != 1 and K.zeta() != K.one() and K.zero() == 0
    assert hash(K.one()) == hash(1)
    assert hash(K.from_rational(F(-3, 4))) == hash(F(-3, 4))
    assert {K.one() + 1: "two"}[2] == "two"


def test_rationals_compare_alike_across_fields():
    elements = [CycField(6).one(), CycField(10).one(), 1]
    for order in itertools.permutations(elements):
        assert len(set(order)) == 1
    assert CycField(6).from_rational(F(-3, 4)) == CycField(12).from_rational(F(-3, 4))
    assert CycField(6).from_rational(F(-3, 4)) != CycField(12).from_rational(F(3, 4))
    # irrational elements of different fields stay unequal
    assert CycField(6).zeta() != CycField(10).zeta()
    assert CycField(3).zeta() != CycField(6).zeta_pow(2)
    assert CycField(6).zeta() != CycField(10).one() and CycField(6).one() != CycField(10).zeta()


def test_rational_cyc3_and_cycelement_compare_equal():
    # equality stays transitive, so the set is one element in every insertion order
    for order in itertools.permutations([1, Cyc3(1), CycField(6).one()]):
        assert len(set(order)) == 1
    for order in itertools.permutations([F(-3, 4), Cyc3(F(-3, 4)), CycField(12).from_rational(F(-3, 4))]):
        assert len(set(order)) == 1
    assert Cyc3(0) == CycField(5).zero() and CycField(5).zero() == Cyc3(0)
    assert Cyc3(1) != CycField(6).from_rational(2) and CycField(6).from_rational(2) != Cyc3(1)
    # irrational elements of the two types stay unequal, even where they name the same number
    assert OMEGA != CycField(3).zeta() and CycField(3).zeta() != OMEGA
    assert Cyc3(1) != CycField(6).zeta() and CycField(6).zeta() != Cyc3(1)
    assert OMEGA != CycField(6).one() and CycField(6).one() != OMEGA
    assert Cyc3(1) == CycField(6).one() and CycField(6).one() == Cyc3(1)
    assert not Cyc3(1) != CycField(6).one() and not CycField(6).one() != Cyc3(1)
    assert Cyc3(1, 1) != CycField(4).from_rational(1) and CycField(4).from_rational(1) != Cyc3(1, 1)
    assert I_OVER_SQRT3 != CycField(12).zeta() and CycField(12).zeta() != I_OVER_SQRT3
    for q in (F(0), F(1), F(-3, 4), F(10 ** 20, 7)):
        assert hash(Cyc3(q)) == hash(CycField(12).from_rational(q)) == hash(q)


def test_floats_are_rejected():
    K = CycField(10)
    with pytest.raises(TypeError):
        K.element([0.5])
    with pytest.raises(TypeError):
        K.element([1, F(1, 2), 0.5])
    with pytest.raises(TypeError):
        K.element([1], 2.0)
    with pytest.raises(TypeError):
        K.one() + 0.5
    with pytest.raises(TypeError):
        Cyc3(0.1)
    with pytest.raises(TypeError):
        Cyc3(1, 0.5)


CYC_ORDERS = (1, 2, 3, 4, 5, 6, 10, 12, 30, 60)


def _is_canonical(x):
    return (len(x.nums) == x.field.degree and type(x.den) is int and x.den > 0
            and all(type(c) is int for c in x.nums)
            and math.gcd(x.den, *x.nums) == 1)


def _fraction_mod_phi(coeffs, m):
    """Fraction coefficients, lowest first, reduced modulo Phi_m by long division."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    out = [F(c) for c in coeffs]
    for e in range(len(out) - 1, d - 1, -1):
        c = out[e]
        for i, p in enumerate(phi):
            out[e - d + i] -= c * p
    return tuple(out[:d] + [F(0)] * (d - len(out)))


def _fraction_product(x, y, m):
    prod = [F(0)] * (len(x) + len(y))
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    return _fraction_mod_phi(prod, m)


@st.composite
def cyc_vectors(draw):
    m = draw(st.sampled_from(CYC_ORDERS))
    vectors = st.lists(rationals, max_size=m + 2)
    return m, draw(vectors), draw(vectors)


@given(cyc_vectors(), st.integers(min_value=0, max_value=3))
def test_cycfield_kernel_matches_fraction_reference(mvw, k):
    m, v, w = mvw
    K = CycField(m)
    x, y = K.element(v), K.element(w)
    X, Y = _fraction_mod_phi(v, m), _fraction_mod_phi(w, m)
    power = _fraction_mod_phi([1], m)
    for _ in range(k):
        power = _fraction_product(power, X, m)
    cases = [(x, X), (y, Y),
             (x + y, tuple(a + b for a, b in zip(X, Y))),
             (x - y, tuple(a - b for a, b in zip(X, Y))),
             (x * y, _fraction_product(X, Y, m)),
             (x ** k, power)]
    for z, expected in cases:
        assert _is_canonical(z)
        assert z.coeffs == expected
        assert z.to_coeff_strings() == [str(c) for c in z.coeffs]
    assert x - x == K.zero() and (x - x).den == 1
    # The same element from integer numerators over a common denominator.
    den = math.lcm(*(c.denominator for c in v))
    assert K.element([int(c * den) for c in v], den) == x


@given(rationals, st.sampled_from(CYC_ORDERS))
def test_cycfield_routes_to_a_rational_agree(q, m):
    K = CycField(m)
    routes = [K.element([q]), K.from_rational(q), K.one() * q, q * K.zeta_pow(m),
              K.zeta_pow(-1) * K.zeta() * q, K.element([2 * q], 2),
              K.zero() + q]
    for z in routes:
        assert _is_canonical(z)
        assert z == routes[0] and z == q and q == z
        assert hash(z) == hash(routes[0]) == hash(q)


# ---------------------------------------------------------------------------
# The shared bases: subtraction (record.Ring), powers and equality (record.Number)
# ---------------------------------------------------------------------------

scalars = st.one_of(st.integers(min_value=-20, max_value=20), rationals)


def _cyc_elements(m):
    return st.builds(CycField(m).element, st.lists(rationals, max_size=m))


cyc_elements = st.sampled_from((3, 6, 12)).flatmap(_cyc_elements)
lints = st.builds(LinT.of, cyc3s, cyc3s, cyc3s)
useries = st.builds(USeries.from_coeffs, st.lists(cyc3s, min_size=4, max_size=4))
biseries = st.builds(lambda cs: BiSeries.build(2, lambda i, j, it=iter(cs): next(it)),
                     st.lists(cyc3s, min_size=6, max_size=6))
# two values of one type, and of one field
ring_pairs = st.one_of(*(st.tuples(kind, kind) for kind in (cyc3s, lints, useries, biseries)),
                       st.sampled_from((3, 6, 12)).flatmap(
                           lambda m: st.tuples(_cyc_elements(m), _cyc_elements(m))))


@given(ring_pairs, scalars)
def test_subtraction_is_adding_the_negative(pair, k):
    x, y = pair
    assert x - y == x + (-y)
    assert x - k == x + (-k)
    assert k - x == -(x - k)


@given(st.one_of(cyc3s, cyc_elements), st.integers(min_value=-3, max_value=6))
def test_powers_are_repeated_products(x, n):
    if n < 0:
        with pytest.raises(ValueError, match="negative powers"):
            x ** n
    else:
        assert x ** n == reduce(operator.mul, [x] * n, 1)


@given(st.one_of(lints, useries, biseries))
def test_linear_and_series_types_have_no_powers(x):
    with pytest.raises(TypeError):
        x ** 2


@st.composite
def mixed_values(draw):
    """Rationals and irrational elements, each given in several types or routes.

    Returns the values and, for each, the key it should be equal by: the
    Fraction of a rational value, or the element's type, field and form
    for an irrational one.
    """
    values = []
    for q in draw(st.lists(rationals, min_size=1, max_size=3)):
        routes = [q, Cyc3(q), *(CycField(m).from_rational(q) for m in (3, 6, 12))]
        if q.denominator == 1:
            routes.append(int(q))
        values += [(v, q) for v in routes]
    for z in draw(st.lists(cyc3s.filter(lambda z: z.nb), max_size=2)):
        values += [(v, ("Cyc3", z.a, z.b)) for v in (z, (z + 1) - 1)]
    for z in draw(st.lists(cyc_elements.filter(lambda z: z._fraction() is None), max_size=2)):
        values += [(v, ("CycElement", z.field.m, z.coeffs)) for v in (z, z * 2 * F(1, 2))]
    return draw(st.permutations(values))


@given(mixed_values(), st.randoms(use_true_random=False))
def test_equality_across_types_is_transitive_and_hashes_agree(values, rng):
    for x, kx in values:
        for y, ky in values:
            assert (x == y) == (kx == ky) and (x != y) == (kx != ky), (x, y)
            if kx == ky:
                assert hash(x) == hash(y), (x, y)
    distinct = len({key for _, key in values})
    for _ in range(5):
        order = [v for v, _ in values]
        rng.shuffle(order)
        assert len(set(order)) == distinct


@given(cyc_elements)
def test_cycelement_is_true_exactly_when_nonzero(x):
    # as for Cyc3, int and Fraction: zero, however it is reached, is falsy
    assert bool(x) == (x != 0)
    assert not x.field.zero() and not x - x and not x * 0


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
    assert (v.c0, v.c1, v.c2) == (3, OMEGA, F(1, 2))
    assert swap_t(v) == T2 * OMEGA + T1 * F(1, 2) + LinT.of(3)
    assert LinT.of(F(1, 3)) * v == v * F(1, 3)


# ---------------------------------------------------------------------------
# USeries: multiplication, and division by the oracle reciprocal
# ---------------------------------------------------------------------------

def test_geometric_series():
    assert series_reciprocal(series([1, -1], 3)).coeffs == (1, 1, 1, 1)


def test_multiplicative_identity():
    f = series([2, F(1, 3), 0, 7])
    assert f * series([1], 3) == f


def test_quotient_example():
    # (1 + tau/3)/(1 - tau) with tau = u/2 + u^3/72 matches the hand expansion
    tau = series([0, F(1, 2), 0, F(1, 72)])
    q = (tau * F(1, 3) + 1) * series_reciprocal(1 - tau)
    assert q.coeffs == (1, F(2, 3), F(1, 3), F(5, 27))


def test_mixed_order_rejected():
    with pytest.raises(ValueError, match="mixed-order"):
        series([1], 3) + series([1], 4)
    with pytest.raises(ValueError, match="mixed-order"):
        series([1], 3) * series([1], 4)


def test_division_requires_invertible_constant():
    with pytest.raises(ZeroDivisionError, match="non-invertible"):
        series([1, 1], 3) * series_reciprocal(series([0, 1], 3))


@given(st.lists(rationals, min_size=1, max_size=6),
       st.lists(rationals, min_size=1, max_size=6))
def test_mul_div_roundtrip(fs, gs):
    order = 6
    f = series(fs, order)
    g = series(gs, order)
    if gs[0] == 0:
        return
    assert f * g * series_reciprocal(g) == f


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


def test_tangent_numbers_match_tangent_series():
    # the integer recurrence against the Fraction quotient sin/cos
    for N in (0, 1, 2, 7, 60):
        tan = tangent_series(N)
        assert tangent_numbers(N) == [tan.coefficient(n) * factorial(n) for n in range(N + 1)]


def test_tangent_numbers_match_sympy_bernoulli():
    sympy = pytest.importorskip("sympy")
    T = tangent_numbers(61)
    for k in range(31):
        n = 2 * k + 2
        expected = (-1) ** k * 2 ** n * (2 ** n - 1) * sympy.bernoulli(n) / n
        assert T[2 * k + 1] == expected
    assert all(T[n] == 0 for n in range(0, 62, 2))


def test_tangent_numbers_reject_negative_order():
    with pytest.raises(ValueError):
        tangent_numbers(-1)


def test_tau_series_examples():
    tau = tau_series(5)
    assert tau.coeffs == (0, F(1, 2), 0, F(1, 72), 0, F(1, 2160))
    assert (tau * tau).coefficient(2) == F(1, 4)


def test_tau_transported_derivative():
    tau = tau_series(20)
    assert tau.differentiate() * 6 == (tau * tau + 3).truncate(19)


def test_scale_variable():
    f = series([1, 2, 3])
    assert scale_variable(f, F(-1)).coeffs == (1, -2, 3)
    assert scale_variable(f, F(2)).coeffs == (1, 4, 12)


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
    G = USeries(6, geometric_exp_series(OMEGA, 6))
    g = compose_linear(G, OMEGA, OMEGA_BAR, 6)
    with pytest.raises(ValueError, match="mixed-order"):
        g + compose_linear(G, OMEGA, OMEGA_BAR, 4)
    # a BiSeries multiplies by scalars only; the product is an oracle
    with pytest.raises(TypeError):
        g * g


def test_biseries_swap_and_derivatives():
    g = compose_linear(USeries(5, geometric_exp_series(OMEGA, 5)), OMEGA, OMEGA_BAR, 5)
    h = g.map_coeffs(lambda z: LinT.of(z, z, 2 * z))
    assert swap_series(swap_series(h)) == h
    # d/dx1 then d/dx2 commutes
    assert d_dx1(d_dx2(g)) == d_dx2(d_dx1(g))


def test_geometric_series_functional_identity():
    for q in (OMEGA, OMEGA_BAR):
        g = USeries(12, geometric_exp_series(q, 12))
        assert g.coefficient(0) == q * cyc3_inverse(1 - q)
        assert g.differentiate() == (g + g * g).truncate(11)


def test_geometric_series_rejects_unit_q():
    with pytest.raises(ZeroDivisionError):
        geometric_exp_series(Cyc3(F(1)), 4)


def test_eulerian_geometric_series_matches_reciprocal():
    for N in (0, 1, 2, 30, 60):
        for q in (OMEGA, OMEGA_BAR):
            assert geometric_exp_series(q, N) == geometric_series_by_reciprocal(q, N).coeffs, \
                (q, N)


def test_geometric_series_rejects_other_q():
    with pytest.raises(ValueError, match="w-bar"):
        geometric_exp_series(Cyc3(F(2)), 4)


def test_geometric_numerator_check_rejects_off_by_one(monkeypatch):
    h = _geometric_numerators(12)
    _check_geometric_numerators(h)
    a, b = h[7]
    bad = h[:7] + [(a, b + 1)] + h[8:]
    with pytest.raises(ArithmeticError, match="h_7 "):
        _check_geometric_numerators(bad)
    # geometric_exp_series runs the check on the numerators it builds
    monkeypatch.setattr(potentials, "_geometric_numerators", lambda N: bad[:N + 1])
    with pytest.raises(ArithmeticError, match="h_7 "):
        geometric_exp_series(OMEGA_BAR, 12)

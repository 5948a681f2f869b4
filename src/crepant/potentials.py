"""The two genus-0 potentials and the coefficientwise comparison.

The resolution-side potential has three kinds of stable data: a cubic
polynomial in y0..y2 with t-linear coefficients (triple intersections,
computed here by localization over the three fixed points), and a
multi-cover sum whose third derivative collapses to the geometric series
G_q(L) = q e^L / (1 - q e^L).  The orbifold-side potential consists of
cubic terms plus the symmetrized Hurwitz-Hodge series.

The comparison works at the level of third partial derivatives: the raw
substitution q = w into the undifferentiated multi-cover sum is not a
formal power series, but after three derivatives the geometric form has
an invertible denominator (1 - w is a unit in Q(w)) and everything lives
in honest truncated series over t-linear coefficients.  Equality of all
third partials pins every coefficient of total degree >= 3, and terms
with fewer than three insertions are zero by definition on both sides.

Each series-valued third partial, on either side, is a cubic constant
plus (t1 + t2) times a sum of univariate series composed with linear
forms in (x1, x2).  On the orbifold side the forms are the three
L_k = w^k x1 + wbar^k x2; on the resolution side, under the standard
change of variables, the multi-cover pieces y1, y2 and y1 + y2 are
scalar multiples of L_1, L_2 and L_0.  For
d >= 2 the d-th powers of three pairwise non-proportional binary forms
are linearly independent, so the degree-d parts of the two sides agree
exactly when, direction by direction, the degree-d coefficients of the
univariate series agree: O(N) univariate comparisons instead of O(N^2)
bivariate ones.  Degrees 0 and 1 are compared in aggregate on the
bivariate coefficients, since the cubic constants live there and
L_0 + L_1 + L_2 = 0.  A change of variables whose pieces are not
multiples of the L_k is compared coefficient by coefficient on the
bivariate series, which also serve as the low-order test oracle and
give the first mismatching monomial of a failing partial.

Degree bookkeeping: every stable coefficient is t-linear and lives in
LinT; the two degree -2 exceptions (the triple product of identity
classes on either side) travel on the dedicated InverseT1T2 channel and
are compared as literal multiples of 1/(t1*t2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .algebra import (BiSeries, Cyc3, LinT, OMEGA, OMEGA_BAR, I_OVER_SQRT3,
                      USeries, compose_linear, geometric_exp_series)
from .hurwitz import HodgeTable, solve_exact_linear


@dataclass(frozen=True)
class InverseT1T2:
    """A rational multiple of 1/(t1*t2): the single degree -2 value."""
    scale: Fraction

    def to_json(self) -> dict:
        return {"inverse_t1t2_scale": str(self.scale)}

    def __str__(self) -> str:
        return f"({self.scale})/(t1*t2)"


# ---------------------------------------------------------------------------
# Fixed-point data and localization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointData:
    """Torus weights at the three fixed points of the resolved surface.

    ``tangent_weights[p]`` is the pair of tangent-space weights at fixed
    point p; ``bundle_weights[i][p]`` is the weight of the line bundle
    dual to the i-th exceptional curve at fixed point p.
    """
    tangent_weights: tuple[tuple[LinT, LinT], ...]
    bundle_weights: tuple[tuple[LinT, LinT, LinT], ...]

    @classmethod
    def standard(cls) -> FixedPointData:
        w = LinT.of
        return cls(
            tangent_weights=(
                (w(0, 3, 0), w(0, -2, 1)),
                (w(0, 2, -1), w(0, -1, 2)),
                (w(0, 1, -2), w(0, 0, 3)),
            ),
            bundle_weights=(
                (w(0, -2, 0), w(0, 0, -1), w(0, 0, -1)),
                (w(0, -1, 0), w(0, -1, 0), w(0, 0, -2)),
            ),
        )


CLASS_IDS = ("1", "C1", "C2")

# Sample points (t1, t2) avoiding every tangent-weight zero t1 = 0,
# t2 = 0, t2 = 2 t1, t1 = 2 t2.  Three points reconstruct a t-linear
# value; the sum of localization fractions times the common denominator
# is homogeneous of degree <= 7, so agreement at the eight points on the
# t2 = 1 line proves the identity, not merely samples it.
_SOLVE_POINTS = [(Fraction(3), Fraction(1)), (Fraction(1), Fraction(3)),
                 (Fraction(5), Fraction(1))]
_VERIFY_POINTS = ([(Fraction(k), Fraction(1)) for k in range(3, 11)]
                  + [(Fraction(1), Fraction(4)), (Fraction(1), Fraction(7))])


def _class_weight(cls_id: str, p: int, data: FixedPointData) -> LinT:
    if cls_id == "1":
        return LinT.of(1)
    if cls_id == "C1":
        return data.bundle_weights[0][p]
    if cls_id == "C2":
        return data.bundle_weights[1][p]
    raise ValueError(f"unknown class id {cls_id!r}")


def _localization_sum(classes, data: FixedPointData, t1: Fraction, t2: Fraction) -> Fraction:
    total = Fraction(0)
    for p in range(3):
        num = Fraction(1)
        for cls_id in classes:
            num *= _class_weight(cls_id, p, data).evaluate(t1, t2).as_rational()
        e1, e2 = data.tangent_weights[p]
        den = (e1.evaluate(t1, t2) * e2.evaluate(t1, t2)).as_rational()
        if den == 0:
            raise ZeroDivisionError(f"tangent weight vanishes at {(t1, t2)}")
        total += num / den
    return total


def triple_intersection(a: str, b: str, c: str,
                        data: FixedPointData | None = None) -> LinT | InverseT1T2:
    """The equivariant triple product of classes in {1, C1, C2}.

    Computed purely from the fixed-point weights as a localization sum,
    then recognized exactly against a t-linear polynomial (or against
    scale/(t1*t2) when all three classes are the identity).
    """
    if data is None:
        data = FixedPointData.standard()
    classes = (a, b, c)
    for cls_id in classes:
        if cls_id not in CLASS_IDS:
            raise ValueError(f"unknown class id {cls_id!r}")
    degree = sum(1 for cls_id in classes if cls_id != "1")

    if degree == 0:
        t1, t2 = _VERIFY_POINTS[0]
        scale = _localization_sum(classes, data, t1, t2) * t1 * t2
        for t1, t2 in _VERIFY_POINTS:
            if _localization_sum(classes, data, t1, t2) * t1 * t2 != scale:
                raise ArithmeticError(
                    "localization sum is not a multiple of 1/(t1*t2)")
        return InverseT1T2(scale)

    matrix = [[Fraction(1), t1, t2] for t1, t2 in _SOLVE_POINTS]
    rhs = [_localization_sum(classes, data, t1, t2) for t1, t2 in _SOLVE_POINTS]
    c0, c1, c2 = solve_exact_linear(matrix, rhs)
    for t1, t2 in _VERIFY_POINTS:
        if _localization_sum(classes, data, t1, t2) != c0 + c1 * t1 + c2 * t2:
            raise ArithmeticError(
                f"localization sum for {classes} does not simplify to a "
                "t-linear value; fixed-point weights are corrupted")
    return LinT.of(c0, c1, c2)


def multicover_invariant(d1: int, d2: int) -> LinT:
    """The degree-(d1, d2) zero-point invariant of the resolution.

    (t1 + t2)/d^3 on the classes (d, d), (d, 0), (0, d); zero otherwise.
    """
    if d1 < 0 or d2 < 0 or (d1, d2) == (0, 0):
        raise ValueError("degrees must be nonnegative and not both zero")
    if d1 == d2 or d1 == 0 or d2 == 0:
        d = max(d1, d2)
        return LinT.of(0, Fraction(1, d ** 3), Fraction(1, d ** 3))
    return LinT.zero()


def orbifold_invariant(n1: int, n2: int, table: HodgeTable, *, n0: int = 0) -> LinT | InverseT1T2:
    """The genus-0 orbifold invariant with n0, n1, n2 insertions of 1, D1, D2.

    For pure twisted insertions with n1 + n2 > 3 the value is
    (t1 + t2)/2 * (-1)^(g-1) * A_g with g = n1 + n2 - 2, vanishing unless
    n1 = n2 (mod 3).  Identity insertions survive only in the two cubic
    cases (the point axiom kills the rest); the triple identity product
    is the degree -2 value 1/(3 t1 t2).
    """
    if min(n0, n1, n2) < 0:
        raise ValueError("insertion counts must be nonnegative")
    total = n0 + n1 + n2
    if total < 3:
        raise ValueError("unstable invariant (fewer than three insertions)")
    if n0 > 0:
        if total > 3:
            return LinT.zero()
        if n0 == 3:
            return InverseT1T2(Fraction(1, 3))
        if (n0, n1, n2) == (1, 1, 1):
            return LinT.of(Fraction(1, 3))
        return LinT.zero()
    if (n1 - n2) % 3 != 0:
        return LinT.zero()
    if total == 3:
        return LinT.of(0, Fraction(1, 3), 0) if n1 == 3 else LinT.of(0, 0, Fraction(1, 3))
    g = n1 + n2 - 2
    half = table.A[g] * Fraction((-1) ** (g - 1), 2)
    return LinT.of(0, half, half)


# ---------------------------------------------------------------------------
# Change of variables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChangeOfVars:
    """The cyclotomic substitution identifying the two sets of variables.

    jacobian[a][i] = dy_{a+1}/dx_{i+1} (constant); the identity-sector
    variable maps through unchanged and the quantum parameters are set to
    the primitive cube root of unity.
    """
    jacobian: tuple[tuple[Cyc3, Cyc3], tuple[Cyc3, Cyc3]]
    q_values: tuple[Cyc3, Cyc3]

    @classmethod
    def standard(cls) -> ChangeOfVars:
        c = I_OVER_SQRT3
        return cls(
            jacobian=((c * OMEGA, c * OMEGA_BAR), (c * OMEGA_BAR, c * OMEGA)),
            q_values=(OMEGA, OMEGA),
        )


def _validate_index(idx) -> tuple[int, int, int]:
    idx = tuple(idx)
    if len(idx) != 3 or any(i not in (0, 1, 2) for i in idx):
        raise ValueError(f"partial index must be three entries in {{0,1,2}}: {idx}")
    return tuple(sorted(idx))


# ---------------------------------------------------------------------------
# Sides of a series-valued third partial
# ---------------------------------------------------------------------------

# The orbifold-side linear forms L_k = w^k x1 + wbar^k x2, as (w^k, wbar^k).
_FORMS = ((Cyc3(1), Cyc3(1)), (OMEGA, OMEGA_BAR), (OMEGA_BAR, OMEGA))


class _Side(NamedTuple):
    """cubic + (t1 + t2) * sum of series(a x1 + b x2) over (a, b, series) in terms.

    Every series-valued third partial of either potential has this shape;
    the series are univariate over Q(w), all of one order.
    """
    cubic: LinT
    terms: tuple


def _on_form(u1: Cyc3, u2: Cyc3, series: USeries) -> tuple[Cyc3, Cyc3, USeries]:
    """series(u1 x1 + u2 x2) as (a, b, series') with series'(a x1 + b x2) equal.

    When u1 x1 + u2 x2 = lam * L_k, (a, b) is the k-th of ``_FORMS`` and
    series' is series(lam u); otherwise the input comes back unchanged.
    """
    for a, b in _FORMS:
        lam = u1 / a
        if lam * b == u2:
            return a, b, series.scale_variable(lam)
    return u1, u2, series


def _assemble(side: _Side, N: int) -> BiSeries:
    """The bivariate series of a side, truncated at total degree N."""
    acc = BiSeries.zeros(N, Cyc3(0))
    for a, b, series in side.terms:
        acc = acc + compose_linear(series, a, b, N)
    return acc.map_coeffs(lambda z: LinT(Cyc3(0), z, z)) + side.cubic


def _coefficients_by_form(side: _Side, N: int) -> list[list[Cyc3]] | None:
    """For each L_k, the summed coefficients of the terms on L_k.

    None when some term lies on a form outside ``_FORMS``.
    """
    sums = [[Cyc3(0)] * (N + 1) for _ in _FORMS]
    for a, b, series in side.terms:
        if (a, b) not in _FORMS:
            return None
        row = sums[_FORMS.index((a, b))]
        for d, c in enumerate(series.coeffs):
            row[d] = row[d] + c
    return sums


def _agree_by_direction(fy: _Side, fx: _Side, N: int) -> bool:
    """True when the two sides are certified equal to total degree N.

    Degrees 0 and 1 are compared in aggregate, on the bivariate
    coefficients.  For 2 <= d <= N the d-th powers of the pairwise
    non-proportional L_0, L_1, L_2 are linearly independent, so the
    degree-d parts agree if and only if each form's degree-d coefficients
    do.  False means a mismatch or a term off every L_k; the bivariate
    comparison then decides.
    """
    by_form_y = _coefficients_by_form(fy, N)
    by_form_x = _coefficients_by_form(fx, N)
    if by_form_y is None or by_form_x is None:
        return False
    low = min(N, 1)
    if _assemble(fy, low) != _assemble(fx, low):
        return False
    return all(cy[2:] == cx[2:] for cy, cx in zip(by_form_y, by_form_x))


# ---------------------------------------------------------------------------
# Third partials of the resolution potential
# ---------------------------------------------------------------------------

def _triple_products(data: FixedPointData) -> dict[tuple[int, ...], LinT]:
    """The four triple products of C1 and C2, keyed by sorted class numbers."""
    return {key: triple_intersection(*(f"C{i}" for i in key), data=data)
            for key in ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2))}


def _multicover_pieces(cov: ChangeOfVars, N: int) -> list[tuple]:
    """The pieces (q1, y1), (q2, y2), (q1 q2, y1 + y2) as (u1, u2, a, b, G).

    (u1, u2) is the piece's linear form in x, which gives the chain
    factors; (a, b, G) is G_q on that form, rewritten by ``_on_form``.
    Each distinct q builds its geometric series once.
    """
    J = cov.jacobian
    q1, q2 = cov.q_values
    geometric = {}
    pieces = []
    for q, u1, u2 in ((q1, J[0][0], J[0][1]), (q2, J[1][0], J[1][1]),
                      (q1 * q2, J[0][0] + J[1][0], J[0][1] + J[1][1])):
        if q not in geometric:
            geometric[q] = geometric_exp_series(q, N)
        pieces.append((u1, u2, *_on_form(u1, u2, geometric[q])))
    return pieces


def _fy_side(idx: tuple[int, int, int], J, products, pieces) -> _Side:
    """The resolution side of a partial with every index in {1, 2}.

    The constant jacobian chain rule contracts the localization cubic,
    and each multi-cover piece contributes chain-factor times G_q(form).
    """
    cubic = LinT.zero()
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                factor = (J[a - 1][idx[0] - 1] * J[b - 1][idx[1] - 1]
                          * J[c - 1][idx[2] - 1])
                cubic = cubic + products[tuple(sorted((a, b, c)))] * factor
    terms = []
    for u1, u2, a, b, G in pieces:
        chain = Cyc3(1)
        for m in idx:
            chain = chain * (u1 if m == 1 else u2)
        terms.append((a, b, G * chain))
    return _Side(cubic, tuple(terms))


def fy_third_partial(idx, cov: ChangeOfVars | None = None, N: int = 12,
                     data: FixedPointData | None = None):
    """d^3 F^Y / dx_idx after the change of variables, truncated at degree N.

    Indices wholly in {1, 2} give a BiSeries over LinT: the constant
    jacobian chain rule contracts the localization cubic, and each
    multi-cover piece contributes chain-factor times G_q(linear form).
    An index containing 0 gives the exact constant from the identity-
    sector terms; the triple-0 index is the degree -2 channel.
    """
    idx = _validate_index(idx)
    if cov is None:
        cov = ChangeOfVars.standard()
    if data is None:
        data = FixedPointData.standard()
    J = cov.jacobian
    zeros = idx.count(0)

    if zeros == 3:
        # y0^3 / (18 t1 t2), three derivatives in x0 = y0
        return InverseT1T2(Fraction(math.factorial(3), 18))
    if zeros == 2:
        return LinT.zero()
    if zeros == 1:
        # -(y0/3)(y1^2 + y1 y2 + y2^2) with the y's as linear forms in x
        y1 = BiSeries.build(2, lambda i, j: {(1, 0): J[0][0], (0, 1): J[0][1]}.get((i, j), Cyc3(0)))
        y2 = BiSeries.build(2, lambda i, j: {(1, 0): J[1][0], (0, 1): J[1][1]}.get((i, j), Cyc3(0)))
        quad = y1 * y1 + y1 * y2 + y2 * y2
        j, k = idx[1], idx[2]
        if j == k:
            second = quad.coefficient(2 if j == 1 else 0, 0 if j == 1 else 2) * 2
        else:
            second = quad.coefficient(1, 1)
        return LinT.of(second * Fraction(-1, 3))

    side = _fy_side(idx, J, _triple_products(data), _multicover_pieces(cov, N))
    return _assemble(side, N)


# ---------------------------------------------------------------------------
# Third partials of the orbifold potential
# ---------------------------------------------------------------------------

def _a_series_negated(table: HodgeTable, N: int) -> USeries:
    """A(-u) without its constant term, over Q(w), to order N.

    The constant (genus-1) term is carried by the explicit cubic part of
    the potential instead, which is t1/t2-asymmetric where the
    symmetrized series is not.
    """
    if table.max_genus < N + 1:
        raise ValueError(
            f"table holds genus <= {table.max_genus}, need {N + 1} for order {N}")
    coeffs = [Cyc3(0)] + [
        Cyc3(table.A[m + 1] * Fraction((-1) ** m, math.factorial(m)))
        for m in range(1, N + 1)]
    return USeries.from_coeffs(coeffs)


def _fx_series(table: HodgeTable, N: int) -> list[USeries]:
    """w^e A(-u) / 6 for e = 0, 1, 2.

    1/6 is the 1/3 of the average over the three forms times the 1/2 of
    the (t1 + t2)/2 weight; w^e is a chain-rule prefactor.
    """
    ser = _a_series_negated(table, N)
    return [ser * (OMEGA ** e * Fraction(1, 6)) for e in range(3)]


def _fx_side(idx: tuple[int, int, int], series: list[USeries]) -> _Side:
    """The orbifold side of a partial with every index in {1, 2}."""
    n1, n2 = idx.count(1), idx.count(2)
    if n1 == 3:
        cubic = LinT.of(0, Fraction(1, 3), 0)
    elif n2 == 3:
        cubic = LinT.of(0, 0, Fraction(1, 3))
    else:
        cubic = LinT.zero()
    return _Side(cubic, tuple((a, b, series[(k * (n1 - n2)) % 3])
                              for k, (a, b) in enumerate(_FORMS)))


def fx_third_partial(idx, table: HodgeTable, N: int = 12):
    """d^3 F^X / dx_idx, truncated at total degree N.

    Indices wholly in {1, 2} assemble the cubic constants t1/3, t2/3 with
    the (t1+t2)/2-weighted symmetrization of A composed with the three
    linear forms -(x1+x2), -(w x1 + wbar x2), -(wbar x1 + w x2); mixed
    indices pick up cube-root-of-unity prefactors from the chain rule.
    """
    idx = _validate_index(idx)
    zeros = idx.count(0)
    if zeros == 3:
        # x0^3 / (18 t1 t2)
        return InverseT1T2(Fraction(math.factorial(3), 18))
    if zeros > 0:
        if idx == (0, 1, 2):
            return LinT.of(Fraction(1, 3))  # from (1/3) x0 x1 x2
        return LinT.zero()
    return _assemble(_fx_side(idx, _fx_series(table, N)), N)


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------

ALL_INDICES = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2),
               (0, 2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]


def _value_json(v) -> dict:
    return v.to_json()


def _first_mismatch(fy, fx):
    if type(fy) is not type(fx):
        return {"monomial": None, "fy": str(fy), "fx": str(fx)}
    if isinstance(fy, BiSeries):
        for (i, j), a in fy.items():
            b = fx.coefficient(i, j)
            if a != b:
                return {"monomial": f"x1^{i} x2^{j}",
                        "fy": _value_json(a), "fx": _value_json(b)}
        return None
    if fy != fx:
        return {"monomial": "1", "fy": _value_json(fy), "fx": _value_json(fx)}
    return None


def verify_crc(N: int, table: HodgeTable, cov: ChangeOfVars | None = None,
               data: FixedPointData | None = None) -> dict:
    """Compare every third partial of the two potentials to truncation N.

    Series-valued indices are compared to total degree N - 3 (third
    derivatives of degree-N potential coefficients); scalar indices are
    compared exactly.  Passing every index certifies the identity of the
    potentials to order N, the sub-cubic terms being zero by definition.

    The triple products, the geometric series and the orbifold series do
    not depend on the index and are built once per call.  A series index
    is compared direction by direction (see the module docstring): degrees
    0 and 1 in aggregate on the bivariate coefficients, each degree d >= 2
    on the univariate coefficients along each L_k.  When a piece of the
    change of variables lies off every L_k, or an index fails, the index
    is compared on the bivariate series that ``fy_third_partial`` and
    ``fx_third_partial`` return, which gives the first mismatching
    monomial.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    order = N - 3
    if cov is None:
        cov = ChangeOfVars.standard()
    if data is None:
        data = FixedPointData.standard()
    products = _triple_products(data)
    pieces = _multicover_pieces(cov, order)
    fx_series = _fx_series(table, order)
    checks = []
    all_pass = True
    for idx in ALL_INDICES:
        if 0 in idx:
            mismatch = _first_mismatch(fy_third_partial(idx, cov, order, data),
                                       fx_third_partial(idx, table, order))
        else:
            fy = _fy_side(idx, cov.jacobian, products, pieces)
            fx = _fx_side(idx, fx_series)
            mismatch = None if _agree_by_direction(fy, fx, order) else \
                _first_mismatch(_assemble(fy, order), _assemble(fx, order))
        ok = mismatch is None
        all_pass = all_pass and ok
        checks.append({
            "idx": "".join(str(i) for i in idx),
            "status": "pass" if ok else "fail",
            "first_mismatch": mismatch,
        })
    return {"order": N, "checks": checks, "all_pass": all_pass}


def swap_series(series: BiSeries) -> BiSeries:
    """Apply the simultaneous swap x1 <-> x2, t1 <-> t2 to a LinT series."""
    return series.swap().map_coeffs(lambda c: c.swap_t())

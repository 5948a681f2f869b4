"""Localization, invariants, and the third-partial comparison."""
import copy
from fractions import Fraction as F

import pytest

from crepant import potentials
from crepant.hurwitz import build_hodge_table
from crepant.potentials import (ALL_INDICES, OMEGA, OMEGA_BAR, ChangeOfVars, Cyc3,
                                FixedPointData, InverseT1T2, LinT, _first_mismatch,
                                geometric_exp_series, orbifold_invariant,
                                triple_intersection, verify_crc)
from crepant.oracles import (BiSeries, d_dx1, d_dx2, fx_third_partial, fy_third_partial,
                             swap_series)


# ---------------------------------------------------------------------------
# Localization table
# ---------------------------------------------------------------------------

EXPECTED_TRIPLES = {
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


def test_all_ten_triple_intersections():
    data = FixedPointData.standard()
    for classes, expected in EXPECTED_TRIPLES.items():
        assert triple_intersection(*classes, data=data) == expected, classes


def test_halved_weights_give_the_products_at_half_the_parameters():
    # Fractional weights: the class weights at the verify points share the
    # denominator D = 2, where the standard weights give D = 1.  Halving
    # every weight evaluates each product at (t1/2, t2/2): c1 and c2 halve,
    # c0 stays, and the scale of <1,1,1> over t1*t2 is multiplied by 4.
    data = FixedPointData.standard()
    half = lambda weights: tuple(tuple(w * F(1, 2) for w in ws) for ws in weights)
    halved = FixedPointData(tangent_weights=half(data.tangent_weights),
                            bundle_weights=half(data.bundle_weights))
    # C2's weight at the first fixed point, -t1/2, is -3/2 at (3, 1)
    assert halved.bundle_weights[1][0] == LinT.of(0, F(-1, 2), 0)
    for classes, expected in EXPECTED_TRIPLES.items():
        if isinstance(expected, InverseT1T2):
            expected = InverseT1T2(expected.scale * 4)
        else:
            expected = LinT(expected.c0, expected.c1 * F(1, 2), expected.c2 * F(1, 2))
        assert triple_intersection(*classes, data=halved) == expected, classes


def test_standard_fixed_point_data_is_shared():
    # one instance, so its sample values are evaluated once per process
    assert FixedPointData.standard() is FixedPointData.standard()
    assert FixedPointData.standard().sample_values is FixedPointData.standard().sample_values


def test_triple_intersection_rejects_unknown_class():
    with pytest.raises(ValueError, match="unknown class"):
        triple_intersection("1", "1", "C3")


def test_triple_intersection_detects_corrupted_weights():
    data = FixedPointData.standard()
    broken = FixedPointData(
        tangent_weights=data.tangent_weights,
        bundle_weights=((LinT.of(0, -2, 0), LinT.of(0, 0, -1), LinT.of(0, 0, -2)),
                        data.bundle_weights[1]))
    with pytest.raises(ArithmeticError, match="does not simplify"):
        triple_intersection("C1", "C1", "C1", data=broken)


def test_triple_identity_product_detects_corrupted_tangent_weight():
    # 3 t1 -> 3 t1 + t2 at the first fixed point: the localization sum of
    # <1,1,1> is no longer a multiple of 1/(t1*t2)
    data = FixedPointData.standard()
    (e1, e2), *rest = data.tangent_weights
    broken = FixedPointData(
        tangent_weights=((LinT.of(0, 3, 1), e2), *rest),
        bundle_weights=data.bundle_weights)
    assert e1 == LinT.of(0, 3, 0)
    with pytest.raises(ArithmeticError, match=r"not a multiple of 1/\(t1\*t2\)"):
        triple_intersection("1", "1", "1", data=broken)


# ---------------------------------------------------------------------------
# Orbifold invariants
# ---------------------------------------------------------------------------

def test_orbifold_cubic_cases(table16):
    assert orbifold_invariant(3, 0, table16) == LinT.of(0, F(1, 3), 0)
    assert orbifold_invariant(0, 3, table16) == LinT.of(0, 0, F(1, 3))
    assert orbifold_invariant(0, 0, table16, n0=3) == InverseT1T2(F(1, 3))
    assert orbifold_invariant(1, 1, table16, n0=1) == LinT.of(F(1, 3))


def test_orbifold_vanishing(table16):
    assert orbifold_invariant(3, 1, table16) == LinT.zero()      # monodromy
    assert orbifold_invariant(2, 2, table16, n0=1) == LinT.zero()  # point axiom
    assert orbifold_invariant(1, 1, table16, n0=2) == LinT.zero()


def test_orbifold_stable_value(table16):
    # (n1, n2) = (4, 1): g = 3, value (t1+t2)/2 * A_3 = (t1+t2)/27
    assert orbifold_invariant(4, 1, table16) == LinT.of(0, F(1, 27), F(1, 27))
    # g = 2 flips the sign
    assert orbifold_invariant(2, 2, table16) == LinT.of(0, F(-1, 9), F(-1, 9))


def test_orbifold_unstable_rejected(table16):
    with pytest.raises(ValueError, match="unstable"):
        orbifold_invariant(1, 1, table16)


def test_orbifold_invariant_rejects_short_table():
    # (3, 3) needs A_4; a genus-3 table must say so instead of a KeyError
    short = build_hodge_table(3)
    with pytest.raises(ValueError, match="table holds genus <= 3, need 4"):
        orbifold_invariant(3, 3, short)


# ---------------------------------------------------------------------------
# Third partials: scalar channels
# ---------------------------------------------------------------------------

def test_identity_sector_channels(table16):
    assert fy_third_partial((0, 0, 0)) == InverseT1T2(F(1, 3))
    assert fx_third_partial((0, 0, 0), table16) == InverseT1T2(F(1, 3))
    assert fy_third_partial((0, 1, 2)) == LinT.of(F(1, 3))
    assert fx_third_partial((0, 1, 2), table16) == LinT.of(F(1, 3))
    for idx in [(0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 2, 2)]:
        assert fy_third_partial(idx) == LinT.zero()
        assert fx_third_partial(idx, table16) == LinT.zero()


def test_index_validation(table16):
    with pytest.raises(ValueError, match="partial index"):
        fx_third_partial((0, 1), table16)
    with pytest.raises(ValueError, match="partial index"):
        fy_third_partial((1, 2, 3))
    # unsorted input is normalized
    assert fx_third_partial((2, 1, 0), table16) == LinT.of(F(1, 3))


def test_fx_constant_terms(table16):
    fx = fx_third_partial((1, 1, 1), table16, N=4)
    assert fx.coefficient(0, 0) == LinT.of(0, F(1, 3), 0)
    # at t1 = t2 = t the t-coefficient is 1/3 = A(0)
    const = fx.coefficient(0, 0)
    assert const.c1 + const.c2 == Cyc3(F(1, 3))
    fx222 = fx_third_partial((2, 2, 2), table16, N=4)
    assert fx222.coefficient(0, 0) == LinT.of(0, 0, F(1, 3))


def test_fy_constant_matches_cubic_contraction(table16):
    fy = fy_third_partial((1, 1, 1), N=4)
    assert fy.coefficient(0, 0) == LinT.of(0, F(1, 3), 0)


def test_higher_coefficients_match_hand_expansion(table16):
    """Frozen from expanding the symmetrized series by hand.

    Averaging over the three twisted linear forms kills x1, x2, x1^2 and
    x2^2 in the triple-1 partial; x1 x2 survives with (t1+t2) A_3 / 2 and
    x1^3 with -(t1+t2) A_4 / 12.
    """
    fx = fx_third_partial((1, 1, 1), table16, N=4)
    fy = fy_third_partial((1, 1, 1), N=4)
    for series in (fx, fy):
        assert series.coefficient(1, 0) == LinT.zero()
        assert series.coefficient(2, 0) == LinT.zero()
        assert series.coefficient(1, 1) == LinT.of(0, F(1, 27), F(1, 27))
        assert series.coefficient(3, 0) == LinT.of(0, F(-1, 162), F(-1, 162))


# ---------------------------------------------------------------------------
# Properties of the series-valued partials
# ---------------------------------------------------------------------------

SERIES_INDICES = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]


def _swap_idx(idx):
    return tuple(sorted(3 - i for i in idx))


@pytest.mark.parametrize("idx", SERIES_INDICES)
def test_swap_symmetry(idx, table16):
    N = 8
    assert swap_series(fy_third_partial(idx, N=N)) == fy_third_partial(_swap_idx(idx), N=N)
    assert swap_series(fx_third_partial(idx, table16, N=N)) \
        == fx_third_partial(_swap_idx(idx), table16, N=N)


def test_mixed_partial_consistency():
    N = 9
    f112 = fy_third_partial((1, 1, 2), N=N)
    f111 = fy_third_partial((1, 1, 1), N=N)
    assert d_dx1(f112) == d_dx2(f111)


def test_t1_equals_minus_t2_specialization(table16):
    N = 8
    for idx in SERIES_INDICES:
        fy = fy_third_partial(idx, N=N)
        fx = fx_third_partial(idx, table16, N=N)
        for (i, j), a in fy.items():
            b = fx.coefficient(i, j)
            # the value at t1 = 1, t2 = -1
            assert a.c0 + a.c1 - a.c2 == b.c0 + b.c1 - b.c2, (idx, i, j)


def test_series_coefficients_are_t_linear(table16):
    fy = fy_third_partial((1, 1, 2), N=6)
    for (i, j), c in fy.items():
        assert c.c0 == Cyc3(F(0)) or (i, j) == (0, 0)


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------

def test_verify_crc_small(table16):
    report = verify_crc(8, table16)
    assert report["all_pass"] is True
    assert report["order"] == 8
    assert len(report["checks"]) == len(ALL_INDICES) == 10
    assert {c["idx"] for c in report["checks"]} == {
        "000", "001", "002", "011", "012", "022", "111", "112", "122", "222"}
    assert all(c["first_mismatch"] is None for c in report["checks"])


def test_verify_crc_reports_mismatch(table16):
    import copy
    broken = copy.deepcopy(table16)
    broken.A[5] = broken.A[5] + 1  # corrupt one Hodge value
    report = verify_crc(9, broken)
    assert report["all_pass"] is False
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert failed
    mismatch = failed[0]["first_mismatch"]
    assert mismatch is not None
    assert "monomial" in mismatch and "fy" in mismatch and "fx" in mismatch


def _c1_doubled():
    """Fixed-point data with C1's three bundle weights doubled.

    The localization stays t-linear, with <1,C1,C1> = -8/3 instead of -2/3.
    """
    data = FixedPointData.standard()
    c1, c2 = data.bundle_weights
    return FixedPointData(tangent_weights=data.tangent_weights,
                          bundle_weights=(tuple(w * 2 for w in c1), c2))


def test_identity_sector_partials_follow_the_fixed_point_data(table16):
    data = _c1_doubled()
    assert triple_intersection("1", "C1", "C1", data=data) == LinT.of(F(-8, 3))
    report = verify_crc(6, table16, data=data)
    status = {c["idx"]: c["status"] for c in report["checks"]}
    assert status == {"000": "pass", "001": "pass", "002": "pass",
                      "011": "fail", "012": "fail", "022": "fail",
                      "111": "fail", "112": "fail", "122": "fail", "222": "fail"}
    assert fy_third_partial((0, 1, 1), data=data) != fy_third_partial((0, 1, 1))
    # doubled tangent weights quarter every localization sum, <1,1,1> included
    std = FixedPointData.standard()
    doubled = FixedPointData(
        tangent_weights=tuple((e1 * 2, e2 * 2) for e1, e2 in std.tangent_weights),
        bundle_weights=std.bundle_weights)
    assert fy_third_partial((0, 0, 0), data=doubled) == InverseT1T2(F(1, 12))


def test_verify_crc_minimum_order(table16):
    with pytest.raises(ValueError):
        verify_crc(2, table16)


def test_corrupted_q_values_hit_division_guard(table16):
    # q1 q2 = 1 makes the third multi-cover denominator non-invertible
    cov = ChangeOfVars.standard()
    bad = ChangeOfVars(jacobian=cov.jacobian, q_values=(OMEGA, OMEGA_BAR))
    with pytest.raises(ZeroDivisionError):
        verify_crc(6, table16, cov=bad)


def test_wrong_q_values_break_identity(table16):
    # conjugating both q values keeps every series well-defined but must fail
    cov = ChangeOfVars.standard()
    bad = ChangeOfVars(jacobian=cov.jacobian, q_values=(OMEGA_BAR, OMEGA_BAR))
    report = verify_crc(6, table16, cov=bad)
    assert report["all_pass"] is False


# ---------------------------------------------------------------------------
# Direction-wise route against the bivariate oracle
# ---------------------------------------------------------------------------

def _items(partial):
    """A scalar partial as it is, a bivariate one as its walk of ((i, j), coefficient)."""
    return partial.items() if isinstance(partial, BiSeries) else partial


def _bivariate_report(N, table, cov=None):
    """verify_crc's report, built from the full bivariate partials."""
    checks = []
    for idx in ALL_INDICES:
        mismatch = _first_mismatch(_items(fy_third_partial(idx, cov, N - 3)),
                                   _items(fx_third_partial(idx, table, N - 3)))
        checks.append({"idx": "".join(str(i) for i in idx),
                       "status": "pass" if mismatch is None else "fail",
                       "first_mismatch": mismatch})
    return {"order": N, "checks": checks,
            "all_pass": all(c["status"] == "pass" for c in checks)}


def _with_jacobian(jacobian, q_values=None):
    std = ChangeOfVars.standard()
    return ChangeOfVars(jacobian=jacobian, q_values=q_values or std.q_values)


_STD_J = ChangeOfVars.standard().jacobian


@pytest.mark.parametrize("N", range(3, 13))
def test_direction_route_matches_bivariate_oracle(N, table16):
    # N = 3 and 4 leave only degrees 0 and 1, the aggregate comparison
    report = verify_crc(N, table16)
    assert report["all_pass"] is True
    assert report == _bivariate_report(N, table16)


@pytest.mark.parametrize("g", range(2, 10))
def test_direction_route_matches_oracle_on_corrupted_a(g, table16):
    # A_g enters the orbifold series in degree g - 1: g = 2 breaks the
    # aggregate degree-1 check, g >= 3 a direction-wise degree
    broken = copy.deepcopy(table16)
    broken.A[g] = broken.A[g] + 1
    report = verify_crc(g + 3, broken)
    assert report["all_pass"] is False
    assert report == _bivariate_report(g + 3, broken)


_OTHER_COVS = [
    _with_jacobian(_STD_J, (OMEGA_BAR, OMEGA_BAR)),
    # every piece still a multiple of some L_k, with other scales
    _with_jacobian(tuple(tuple(-u for u in row) for row in _STD_J)),
    _with_jacobian((_STD_J[1], _STD_J[0])),
    # on-form pieces with lam != +-1, which weight G_q[d] by lam^(d+3)
    _with_jacobian(tuple(tuple(u * 2 for u in row) for row in _STD_J)),
    _with_jacobian(tuple(tuple(u * OMEGA for u in row) for row in _STD_J)),
    # y1 off every L_k: the coefficient walk
    _with_jacobian(((_STD_J[0][0] + Cyc3(F(1, 7)), _STD_J[0][1]), _STD_J[1])),
]
_OTHER_COV_IDS = ["q_wbar_wbar", "jacobian_negated", "jacobian_rows_swapped",
                  "jacobian_doubled", "jacobian_times_w", "jacobian_off_direction"]


@pytest.mark.parametrize("cov", _OTHER_COVS, ids=_OTHER_COV_IDS)
def test_direction_route_matches_oracle_on_other_changes_of_variables(cov, table16):
    assert verify_crc(8, table16, cov=cov) == _bivariate_report(8, table16, cov)


@pytest.mark.parametrize("cov", [ChangeOfVars.standard(), *_OTHER_COVS],
                         ids=["standard", *_OTHER_COV_IDS])
def test_coefficient_walk_matches_bivariate_oracle(cov, table16):
    """Both walks yield the oracle partials' items(), in order, for every series index."""
    products = potentials._triple_products(FixedPointData.standard())
    for N in range(11):
        pieces = potentials._multicover_pieces(cov, N)
        orbifold = potentials._orbifold_series(table16, N)
        forms = [(a, b, orbifold) for a, b in potentials._FORMS]
        for idx in SERIES_INDICES:
            fy_cubic = potentials._cubic_partial(idx, cov.jacobian, products)
            fx_cubic = orbifold_invariant(idx.count(1), idx.count(2), table16)
            assert list(potentials._coefficient_walk(idx, fy_cubic, pieces, N)) \
                == list(fy_third_partial(idx, cov, N).items()), (idx, N)
            assert list(potentials._coefficient_walk(idx, fx_cubic, forms, N)) \
                == list(fx_third_partial(idx, table16, N).items()), (idx, N)


def test_first_mismatch_stops_at_the_first_difference():
    def walk(*coefficients):
        yield from (((i, 0), c) for i, c in enumerate(coefficients))
        raise AssertionError("read past the first difference")

    fy = walk(LinT.zero(), LinT.of(0, 1, 1))
    fx = walk(LinT.zero(), LinT.of(0, 2, 2))
    assert _first_mismatch(fy, fx) == {
        "monomial": "x1^1 x2^0", "fy": LinT.of(0, 1, 1).to_json(),
        "fx": LinT.of(0, 2, 2).to_json()}


def test_route_follows_the_linear_forms(table16, monkeypatch):
    """Standard variables walk each series index to degree 1; off-form ones walk it in full."""
    walked = []
    walk = potentials._coefficient_walk

    def spy(idx, cubic, terms, N):
        walked.append((idx, N))
        return walk(idx, cubic, terms, N)

    monkeypatch.setattr(potentials, "_coefficient_walk", spy)
    assert verify_crc(10, table16)["all_pass"] is True
    # degrees >= 2 on the forms; degrees 0 and 1, one walk per side for each series index
    assert walked == [(idx, 1) for idx in SERIES_INDICES for _ in range(2)]
    walked.clear()
    off = _with_jacobian(((_STD_J[0][0] + Cyc3(F(1, 7)), _STD_J[0][1]), _STD_J[1]))
    verify_crc(10, table16, cov=off)
    # one walk per side for each series index, to degree 7
    assert walked == [(idx, 7) for idx in SERIES_INDICES for _ in range(2)]
    walked.clear()
    # A_2 enters the orbifold series in degree 1 only, so the forms agree
    # and the failing indices are reported from the degree-1 walks
    broken = copy.deepcopy(table16)
    broken.A[2] = broken.A[2] + 1
    report = verify_crc(10, broken)
    assert walked == [(idx, 1) for idx in SERIES_INDICES for _ in range(2)]
    assert report["all_pass"] is False
    assert report == _bivariate_report(10, broken)


@pytest.mark.parametrize("q", [OMEGA, OMEGA_BAR])
def test_geometric_series_is_built_and_checked_once(q, table16, monkeypatch):
    """G_w and G_(w-bar) share one build and one check of the integer pairs per call."""
    checked = []
    check = potentials._check_geometric_numerators

    def spy(h):
        checked.append(len(h))
        return check(h)

    monkeypatch.setattr(potentials, "_check_geometric_numerators", spy)
    report = verify_crc(10, table16, cov=_with_jacobian(_STD_J, (q, q)))
    assert report["all_pass"] is (q == OMEGA)
    assert checked == [8]
    pieces = potentials._multicover_pieces(_with_jacobian(_STD_J, (q, q)), 7)
    assert [G for _, _, G in pieces] == [geometric_exp_series(p, 7) for p in (q, q, q * q)]

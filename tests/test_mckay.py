"""Cyclic DuVal transforms and the n = 3 specialization."""
import math
from fractions import Fraction as F

import pytest

from crepant.algebra import Cyc3, CycField, I_OVER_SQRT3, OMEGA, OMEGA_BAR
from crepant.mckay import (check_n3_specialization, duval_transform,
                           embed_cyc3, entry_square_identity,
                           galois_row_action, transform_json)


def test_n3_specializes_to_the_explicit_jacobian():
    assert check_n3_specialization() is True


def test_n3_entries():
    t = duval_transform(3)
    assert len(t.matrix) == 2 and all(len(row) == 2 for row in t.matrix)
    # (R1, gamma) carries (i/sqrt3) w = (-2 - w)/3
    val = I_OVER_SQRT3 * OMEGA
    assert val == Cyc3(F(-2, 3), F(-1, 3))
    assert t.matrix[0][0] == embed_cyc3(val, t.field)
    # (R1, gamma^2) carries (i/sqrt3) w-bar
    assert t.matrix[0][1] == embed_cyc3(I_OVER_SQRT3 * OMEGA_BAR, t.field)


def test_n3_q_values():
    t = duval_transform(3)
    omega_image = embed_cyc3(OMEGA, t.field)
    assert t.q_values == (omega_image, omega_image)


def test_n2_single_entry_is_minus_i():
    t = duval_transform(2)
    K = t.field
    assert K.m == 4
    # (1/2)(zeta4 - zeta4^{-1}) chi_R(gamma) = (1/2)(2 zeta4)(-1) = -zeta4
    assert t.matrix == ((K.zero() - K.zeta(),),)


def test_entry_squares_are_branch_free():
    for n in [*range(2, 9), 12, 15, 20, 30]:
        assert entry_square_identity(duval_transform(n)), n


def test_galois_action_permutes_columns_up_to_branch_sign():
    for n in [*range(2, 9), 12, 15, 20, 30]:
        t = duval_transform(n)
        for a in range(3, 2 * n, 2):
            if math.gcd(a, 2 * n) == 1:
                assert galois_row_action(t, a), (n, a)


def test_galois_action_rejects_non_automorphisms():
    t = duval_transform(5)
    with pytest.raises(ValueError):
        galois_row_action(t, 2)
    with pytest.raises(ValueError):
        galois_row_action(t, 5)


def test_embed_requires_cube_roots():
    with pytest.raises(ValueError, match="embed"):
        embed_cyc3(OMEGA, CycField(4))


def test_duval_rejects_trivial_group():
    with pytest.raises(ValueError):
        duval_transform(1)


def test_transform_json_shape():
    payload = transform_json(duval_transform(4))
    assert payload["n"] == 4
    assert payload["cyclotomic_order"] == 8
    assert len(payload["matrix"]) == 3
    assert all(len(row) == 3 for row in payload["matrix"])
    # Q(zeta_8) has degree 4, so coefficient vectors have four entries
    assert all(len(entry) == 4 for row in payload["matrix"] for entry in row)
    assert len(payload["q_values"]) == 3


def _entry_by_exponents(field, n, j, k):
    """Entry (j, k) from its exponent vector: +1 at k(2j+1), -1 at k(2j-1) mod 2n, over n."""
    m = 2 * n
    exponents = [0] * m
    exponents[k * (2 * j + 1) % m] += 1
    exponents[k * (2 * j - 1) % m] -= 1
    return field.element(exponents, n)


def test_entries_match_the_exponent_vector_construction():
    for n in range(2, 41):
        t = duval_transform(n)
        for j, row in enumerate(t.matrix, start=1):
            for k, entry in enumerate(row, start=1):
                expected = _entry_by_exponents(t.field, n, j, k)
                assert (entry.nums, entry.den) == (expected.nums, expected.den), (n, j, k)


def test_transform_json_matches_each_entry_strings():
    for n in [2, 3, 5, 12, 30]:
        t = duval_transform(n)
        payload = transform_json(t)
        assert payload["matrix"] == [[e.to_coeff_strings() for e in row] for row in t.matrix]
        assert payload["q_values"] == [q.to_coeff_strings() for q in t.q_values]

"""The cyclic change-of-variables ansatz over general cyclotomic fields.

For the cyclic group of order n acting on the plane with opposite
characters, the McKay correspondence pairs nontrivial irreducible
characters R_1..R_{n-1} with nontrivial conjugacy classes, and suggests
the substitution matrix with entries

    (1/n) * (chi_rho(g) - 2)^(1/2) * chi_R(g),

rho being the two-dimensional standard representation.  Everything lives
in Q(zeta_2n): with zeta = zeta_2n one has chi_rho(gamma^k) =
zeta^(2k) + zeta^(-2k), and the square root is realized on the fixed
branch

    (chi_rho(gamma^k) - 2)^(1/2) := zeta^k - zeta^(-k),

which squares to the right thing identically and reproduces the n = 3
jacobian exactly (``check_n3_specialization`` is the guard for that
choice).  The branch is written in one place, ``duval_transform``: entry
(j, k) = (zeta^k - zeta^(-k)) zeta^(2jk) / n = (zeta^a - zeta^b) / n with
a = k(2j+1) and b = k(2j-1) mod 2n, the difference of rows a and b of the
field's integer ``powers`` table over the denominator n.  Many (j, k)
share one pair (a, b) (432 pairs for the 841 entries at n = 30), so each
pair's element is built once and shared by its entries, and
``transform_json`` forms each shared element's coefficient strings once.
The oracle ``entry_square_identity`` is built from the characters instead.
Q(zeta_2n) is ``algebra.CycField``.  The Q(w) values that
``check_n3_specialization`` embeds (``Cyc3``) live in ``potentials``,
which that check imports when it runs, so ``duval`` never compiles Q(w).
The quantum parameters are zeta_n^(n_R) with n_R = 1 for every
nontrivial R, all marks of the A_{n-1} diagram being 1.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import CycField
from .record import Record

if TYPE_CHECKING:
    from .algebra import CycElement
    from .potentials import Cyc3


class DuValTransform(Record):
    """The substitution matrix for the cyclic group of order n.

    ``matrix[j-1][k-1]`` is the coefficient of the class variable of
    gamma^k in the resolution variable of R_j, an element of Q(zeta_2n).
    """
    __slots__ = _fields = ("n", "field", "matrix", "q_values")

    def __init__(self, n: int, field: CycField, matrix: tuple[tuple[CycElement, ...], ...],
                 q_values: tuple[CycElement, ...]):
        self._init(n, field, matrix, q_values)


def character_rho(field: CycField, k: int) -> CycElement:
    """chi of the standard two-dimensional representation at gamma^k."""
    return field.zeta_pow(2 * k) + field.zeta_pow(-2 * k)


def character_irrep(field: CycField, j: int, k: int) -> CycElement:
    """chi of the one-dimensional character R_j at gamma^k."""
    return field.zeta_pow(2 * j * k)


def duval_transform(n: int) -> DuValTransform:
    """Build the substitution matrix and quantum parameters for order n >= 2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    m = 2 * n
    field = CycField(m)
    powers = field.powers
    entries: dict[tuple[int, int], CycElement] = {}

    def entry(j: int, k: int) -> CycElement:
        pair = (k * (2 * j + 1) % m, k * (2 * j - 1) % m)
        elt = entries.get(pair)
        if elt is None:
            a, b = pair
            elt = entries[pair] = field.element(
                [x - y for x, y in zip(powers[a], powers[b])], n)
        return elt

    matrix = tuple(tuple(entry(j, k) for k in range(1, n)) for j in range(1, n))
    q = field.zeta_pow(2)  # the primitive n-th root of unity
    return DuValTransform(n=n, field=field, matrix=matrix,
                          q_values=tuple(q for _ in range(1, n)))


def embed_cyc3(z: Cyc3, field: CycField) -> CycElement:
    """The canonical embedding of Q(w) into Q(zeta_m) for 3 | m, w -> zeta^(m/3)."""
    if field.m % 3 != 0:
        raise ValueError(f"Q(w) does not embed into Q(zeta_{field.m})")
    exponents = [0] * field.m
    exponents[0], exponents[field.m // 3] = z.na, z.nb
    return field.element(exponents, z.den)


def check_n3_specialization() -> bool:
    """True iff the n = 3 transform equals the explicit cyclotomic jacobian."""
    from .potentials import ChangeOfVars

    transform = duval_transform(3)
    cov = ChangeOfVars.standard()
    field = transform.field
    for j in range(2):
        for k in range(2):
            expected = embed_cyc3(cov.jacobian[j][k], field)
            if transform.matrix[j][k] != expected:
                return False
    q_expected = embed_cyc3(cov.q_values[0], field)
    return all(q == q_expected for q in transform.q_values)


def entry_square_identity(transform: DuValTransform) -> bool:
    """Branch-free consistency: each entry squares to (chi_rho - 2) chi_R^2 / n^2."""
    field, n = transform.field, transform.n
    inv_n2 = Fraction(1, n * n)
    rho_part = [(character_rho(field, k) - 2) * inv_n2 for k in range(1, n)]
    for j in range(1, n):
        for k in range(1, n):
            entry = transform.matrix[j - 1][k - 1]
            target = rho_part[k - 1] * character_irrep(field, j, k) ** 2
            if entry * entry != target:
                return False
    return True


def galois_row_action(transform: DuValTransform, a: int) -> bool:
    """Check the Galois action zeta -> zeta^a against column permutation.

    For a odd and coprime to n (so that sigma_a is an automorphism of
    Q(zeta_2n)) the image of an entry equals the entry in column a*k mod n
    times the explicit branch sign (-1)^floor(a*k/n).
    """
    n, field = transform.n, transform.field
    if a % 2 == 0 or math.gcd(a, n) != 1:
        raise ValueError("need a odd and coprime to n")

    def sigma(elt: CycElement) -> CycElement:
        # Move the numerator of zeta^e to zeta^(a*e); the denominator is fixed.
        exponents = [0] * field.m
        for e, c in enumerate(elt.nums):
            exponents[(a * e) % field.m] += c
        return field.element(exponents, elt.den)

    for j in range(1, n):
        for k in range(1, n):
            image = sigma(transform.matrix[j - 1][k - 1])
            kk = (a * k) % n
            target = transform.matrix[j - 1][kk - 1]
            sign = (-1) ** ((a * k) // n)
            if image != target * sign:
                return False
    return True


def transform_json(transform: DuValTransform) -> dict:
    """Matrix and q-values as coefficient vectors over the power basis of zeta_2n.

    An element shared by several entries has its strings formed once, and
    its entries share the one list.
    """
    strings: dict[int, list[str]] = {}

    def coeffs(elt: CycElement) -> list[str]:
        out = strings.get(id(elt))
        if out is None:
            out = strings[id(elt)] = elt.to_coeff_strings()
        return out

    return {
        "n": transform.n,
        "cyclotomic_order": 2 * transform.n,
        "matrix": [[coeffs(entry) for entry in row] for row in transform.matrix],
        "q_values": [coeffs(q) for q in transform.q_values],
    }

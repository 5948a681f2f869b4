"""A fixed piece of pure-Python work that measures how fast the host runs right now.

The benchmark runs this script as a child process once per pass, next to
the crepant invocations it times.  Its work never changes: exact
rational arithmetic (Bernoulli numbers by their recurrence, as
``fractions.Fraction``) and a sparse bivariate polynomial product held in
a dict, the same kinds of work crepant does.  So the time it takes moves
only with the host, and ``run.py`` divides the workload's times by it.
It prints one checksum line, which ``run.py`` checks.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

BERNOULLI_N = 120
POLY_TERMS = 32
MODULUS = 1_000_003


def bernoulli(n: int) -> list[Fraction]:
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def poly_square(terms: int) -> dict[tuple[int, int], int]:
    p = {(i, j): (i * 31 + j * 17 + 1) % MODULUS for i in range(terms) for j in range(terms - i)}
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in p.items():
            if i1 + i2 < terms and j1 + j2 < terms:
                key = (i1 + i2, j1 + j2)
                out[key] = (out.get(key, 0) + c1 * c2) % MODULUS
    return out


def checksum() -> str:
    b = bernoulli(BERNOULLI_N)
    p = poly_square(POLY_TERMS)
    return f"{b[BERNOULLI_N].numerator % MODULUS} {b[BERNOULLI_N].denominator} {sum(p.values()) % MODULUS} {len(p)}"


if __name__ == "__main__":
    print(checksum())

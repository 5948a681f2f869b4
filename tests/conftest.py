import pytest

from crepant import components, hurwitz, oracles
from crepant.hurwitz import build_hodge_table


@pytest.fixture(scope="session")
def table30():
    """Full table to genus 30 with its component line, so components through genus 30."""
    return build_hodge_table(30)


@pytest.fixture(scope="session")
def table16():
    """Light table for the potential tests; no component line."""
    return build_hodge_table(16, components=False)


@pytest.fixture
def enumerated_genera(monkeypatch):
    """The top genus G of each ``hurwitz.marking_counts(G)`` walk during a test, in call order."""
    seen = []
    real = hurwitz.marking_counts

    def spy(G):
        seen.append(G)
        return real(G)

    monkeypatch.setattr(hurwitz, "marking_counts", spy)
    return seen


@pytest.fixture
def corrupt_component_solver(monkeypatch):
    """The oracle ``oracles.solve_chain`` with 1 added to x_0 of its solution.

    The solver returns numerators X over one denominator E, x_i = X[i] / E,
    so adding E to X[0] adds exactly 1 to x_0.
    """
    real = oracles.solve_chain

    def corrupted(*args):
        X, E = real(*args)
        return [X[0] + E] + X[1:], E

    monkeypatch.setattr(oracles, "solve_chain", corrupted)


@pytest.fixture
def corrupt_theta_totals(monkeypatch):
    """``components._pq_coefficients`` with 1 added to its first coefficient at degree 3.

    Degree 3 is the genus-4 statement, the first that the component line
    reads beyond genus 3, and ``verify theta`` reads it from order 3 on.
    """
    real = components._pq_coefficients

    def corrupted(alpha, n):
        coefficients = real(alpha, n)
        if n == 3:
            coefficients[0] += 1
        return coefficients

    monkeypatch.setattr(components, "_pq_coefficients", corrupted)

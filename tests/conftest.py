import pytest

from crepant import components, hurwitz
from crepant.hurwitz import build_hodge_table


@pytest.fixture(scope="session")
def table30():
    """Full table to genus 30 with components solved through genus 14."""
    return build_hodge_table(30, component_max_genus=14)


@pytest.fixture(scope="session")
def table16():
    """Light table for the potential tests; no component systems."""
    return build_hodge_table(16, component_max_genus=3)


@pytest.fixture
def enumerated_genera(monkeypatch):
    """The genera passed to ``hurwitz.gamma_direct`` during a test, in call order."""
    seen = []
    real = hurwitz.gamma_direct

    def spy(g, *args, **kwargs):
        seen.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(hurwitz, "gamma_direct", spy)
    return seen


@pytest.fixture
def corrupt_component_solver(monkeypatch):
    """``components.solve_chain`` with 1 added to x_0 of its solution.

    The solver returns numerators X over one denominator E, x_i = X[i] / E,
    so adding E to X[0] adds exactly 1 to x_0.
    """
    real = components.solve_chain

    def corrupted(*args):
        X, E = real(*args)
        return [X[0] + E] + X[1:], E

    monkeypatch.setattr(components, "solve_chain", corrupted)

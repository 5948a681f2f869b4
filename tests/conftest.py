import pytest

from crepant import hurwitz
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
    """The genera passed to ``hurwitz.gamma_bruteforce`` during a test, in call order."""
    seen = []
    real = hurwitz.gamma_bruteforce

    def spy(g, *args, **kwargs):
        seen.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(hurwitz, "gamma_bruteforce", spy)
    return seen

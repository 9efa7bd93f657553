"""Shared test settings and fixtures.

Hypothesis runs derandomized, so every run draws the same examples, with a
bounded number of examples per test, no deadline (big jet shapes are slow on
a loaded machine) and no example database.
"""

import pytest
from hypothesis import HealthCheck, settings

from jetcocycles.jets import Jet

settings.register_profile(
    "tier1",
    derandomize=True,
    deadline=None,
    max_examples=10,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("tier1")


@pytest.fixture
def jet_products(monkeypatch):
    """The right operand of every ``Jet.__mul__`` call made during the test."""
    calls = []
    mul = Jet.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    monkeypatch.setattr(Jet, "__rmul__", counted)
    return calls


@pytest.fixture
def zero_jet_partials(monkeypatch):
    """The axis of every ``Jet.partial`` call on a zero jet during the test."""
    calls = []
    partial = Jet.partial

    def counted(self, axis):
        if self.is_zero():
            calls.append(axis)
        return partial(self, axis)

    monkeypatch.setattr(Jet, "partial", counted)
    return calls

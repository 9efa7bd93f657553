"""Shared test settings and fixtures.

Hypothesis runs derandomized, so every run draws the same examples, with a
bounded number of examples per test, no deadline (big jet shapes are slow on
a loaded machine) and no example database.
"""

import pytest
from hypothesis import HealthCheck, settings

from jetcocycles import jets
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
    """The right operand of every product made during the test, each counted
    once: every ``Jet.__mul__`` call, and every pair that ``dot`` sums in its
    exact integer buffer (``jets._exact_dot``) without calling ``__mul__``."""
    calls = []
    inside_mul = []
    mul, exact_dot = Jet.__mul__, jets._exact_dot

    def counted(self, other):
        calls.append(other)
        inside_mul.append(True)
        try:
            return mul(self, other)
        finally:
            inside_mul.pop()

    def counted_dot(pairs, acc):
        out = exact_dot(pairs, acc)
        if out is not None and not inside_mul:  # None: dot multiplies the pairs itself
            calls.extend(y for _, y in pairs)
        return out

    monkeypatch.setattr(Jet, "__mul__", counted)
    monkeypatch.setattr(Jet, "__rmul__", counted)
    monkeypatch.setattr(jets, "_exact_dot", counted_dot)
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

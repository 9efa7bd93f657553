"""Shared test settings.

Hypothesis runs derandomized, so every run draws the same examples, with a
bounded number of examples per test, no deadline (big jet shapes are slow on
a loaded machine) and no example database.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "tier1",
    derandomize=True,
    deadline=None,
    max_examples=10,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("tier1")

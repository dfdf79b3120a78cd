"""Shared pytest configuration.

Property tests run under one hypothesis profile: examples are derived from
each test's own source (``derandomize``), so a tier-1 run checks the same
cases every time, and a bounded example count keeps them to a few seconds.
Failing examples are not stored between runs.
"""

from hypothesis import settings

settings.register_profile(
    "hierpolar", deadline=None, derandomize=True, max_examples=40, database=None
)
settings.load_profile("hierpolar")

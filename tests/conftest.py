"""Hypothesis draws the same examples on every run and keeps no example
database, so the property and fuzz tests are reproducible."""

from hypothesis import settings

settings.register_profile("rankguard", derandomize=True, deadline=None, database=None)
settings.load_profile("rankguard")

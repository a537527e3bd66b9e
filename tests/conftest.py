"""Hypothesis draws the same examples on every run and keeps no example
database, so the property and fuzz tests are reproducible.  Every test
starts with an empty profile memo, so no test sees another's tables."""

import pytest
from hypothesis import settings

from rankguard import rank_metrics

settings.register_profile("rankguard", derandomize=True, deadline=None, database=None)
settings.load_profile("rankguard")


@pytest.fixture(autouse=True)
def empty_profile_memo():
    rank_metrics._profiles.clear()

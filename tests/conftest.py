"""Shared test settings: one deterministic hypothesis profile.

Property tests draw their examples from a seed derived from each test, so
every run of the suite checks the same cases and takes the same time.
"""

from hypothesis import settings

settings.register_profile("hperim", derandomize=True, deadline=None, max_examples=40, database=None)
settings.load_profile("hperim")

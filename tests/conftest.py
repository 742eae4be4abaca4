"""Shared test settings: hypothesis runs derandomized and small, so the
property tests replay the same examples on every run and stay fast."""

from hypothesis import settings

settings.register_profile("qconsist", derandomize=True, deadline=None, max_examples=50, database=None)
settings.load_profile("qconsist")

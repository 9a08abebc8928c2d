"""Deterministic property tests: the same examples on every run, no database."""

from hypothesis import settings

settings.register_profile("firngas", max_examples=60, deadline=None, derandomize=True,
                          database=None)
settings.load_profile("firngas")

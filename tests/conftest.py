"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run and have no per-example
# deadline, so a slow or busy host cannot turn them red.
settings.register_profile("vcgp", derandomize=True, deadline=None)
settings.load_profile("vcgp")

"""Shared test settings.

Property tests run under one hypothesis profile: no deadline, because the
wall time of one example varies with host load, and derandomized, so every
run draws the same examples.  Explicit per-test @settings still apply on top.
"""

from hypothesis import settings

settings.register_profile("sclab", deadline=None, derandomize=True)
settings.load_profile("sclab")

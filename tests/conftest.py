"""Shared test settings.

Property tests draw a fixed set of examples (derandomize), so every run
checks the same cases, and take as long as they need (no deadline).  Each
test's own @settings only sets its max_examples.
"""

from hypothesis import settings

settings.register_profile("fixed", deadline=None, derandomize=True)
settings.load_profile("fixed")

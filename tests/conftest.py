"""One hypothesis profile for the whole suite: each property test draws the same examples on every run.

With ``derandomize=True`` the draws are seeded from the test itself, so the
suite's wall time and outcome depend on the code under test, not on the run.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

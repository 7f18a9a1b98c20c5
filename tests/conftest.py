"""Hypothesis profiles for the test suite.

HYPOTHESIS_PROFILE=ci selects "ci": the same examples on every run, drawn
from a seed derived from each test, so a workflow run cannot fail on an
example that no earlier run has tried.  Without the variable, runs draw
fresh random examples.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

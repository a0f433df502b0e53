"""Hypothesis profiles for the test suite.

``HYPOTHESIS_PROFILE=ci`` drops the per-example deadline, so a slow
runner cannot fail a property test on timing alone, and prints the blob
that reproduces a failing example.  Example counts are the same in
every profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

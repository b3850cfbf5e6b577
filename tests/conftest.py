"""Shared test configuration: one reproducible hypothesis profile.

Derandomized, so every run of the suite draws the same examples; no
deadline, so timing drift on a loaded machine cannot fail an example.
"""

from hypothesis import settings

settings.register_profile("aaqpt", derandomize=True, deadline=None)
settings.load_profile("aaqpt")

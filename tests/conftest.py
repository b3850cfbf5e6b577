"""Shared test configuration: one reproducible hypothesis profile.

Derandomized, so every run of the suite draws the same examples; no
deadline, so timing drift on a loaded machine cannot fail an example.

Hypothesis also mixes the literal constants of every loaded local module
into its draws, so a test file would draw other examples alone than in the
full suite, which loads the other test files too.  Importing every test
file before any test runs gives each run the same modules and so each test
the same examples.  The import waits for the end of configuration, because
``@given`` takes its settings when a test is defined, and hypothesis's
command-line options (``--hypothesis-verbosity``) are applied at
configuration.
"""

import importlib
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("aaqpt", derandomize=True, deadline=None)
settings.load_profile("aaqpt")


@pytest.hookimpl(trylast=True)
def pytest_configure(config):
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        importlib.import_module(path.stem)

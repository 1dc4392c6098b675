"""pytest plumbing for the benchmark's own harness tests.

Run with ``python -m pytest benchmarks/e2e/tests -q`` (outside tier-1).
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for _entry in (HERE.parents[1] / "src", HERE):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))


@pytest.fixture(scope="session", autouse=True)
def _warm_datasets():
    """Overrides ``benchmarks/conftest.py``'s fixture of the same name:
    the harness tests never touch the paper stand-ins, so building them
    (tens of seconds) would only slow these tests down."""

"""Every test here must leave /dev/shm the way it found it.

The process-sharded executor allocates a POSIX shared-memory segment
per run; the root ``shm_leak_check`` fixture (``tests/conftest.py``)
fails the test that leaks one.  Applied to the whole directory.
"""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def shm_leak_check(shm_leak_check):
    yield

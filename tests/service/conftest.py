"""Service-suite fixtures: /dev/shm leak check for the sharded engine.

A sharded :class:`~repro.service.PlacementService` owns a
``ShardedScorePool`` whose shared-memory segments must be unlinked on
*every* teardown path — graceful close, boot failure, worker-pool
failure, chaos crash-stop.  The root ``shm_leak_check`` fixture
(``tests/conftest.py``) fails any test that leaves a ``psm_*``/``shm_*``
segment behind; it is applied to every test here.
"""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def shm_leak_check(shm_leak_check):
    yield

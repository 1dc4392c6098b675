"""The shared-memory leak check polices this process's segments only."""

from __future__ import annotations

from multiprocessing import shared_memory

import pytest

from repro.parallel.shared import SharedArrayBlock
from tests.conftest import shm_leak_guard

SPEC = [("lane", (8,), "int64")]


def test_a_leaked_block_fails_the_check():
    block = None
    try:
        with pytest.raises(AssertionError, match="leaked 1"):
            with shm_leak_guard():
                block = SharedArrayBlock.create(SPEC)
    finally:
        if block is not None:
            block.close()


def test_a_closed_block_passes():
    with shm_leak_guard():
        SharedArrayBlock.create(SPEC).close()


def test_a_segment_made_elsewhere_is_not_ours():
    """A concurrent run's segment appears in /dev/shm mid-test; it was
    not made through this process's blocks, so it fails nothing."""
    other = None
    try:
        with shm_leak_guard():
            other = shared_memory.SharedMemory(create=True, size=64)
    finally:
        if other is not None:
            other.close()
            other.unlink()

"""Shared-memory plumbing for the process-sharded executor.

:class:`SharedArrayBlock` is one ``multiprocessing.shared_memory``
segment carved into named numpy views from a declarative layout spec.
The parent creates the block; workers attach by name and rebuild the
identical views, so a single segment carries the route table, the
per-partition tallies, the heuristic's Γ lanes, the record ring, and
the RCT's counter, in-flight and per-worker conflict lanes — one
``shm_open`` per worker instead of a dozen.  The parent's
:class:`~repro.parallel.rct.ReversedCountingTable` runs over the
counter and in-flight views; workers read the in-flight lane to filter
their notes and write only their own conflict lane, which the parent
folds into the table at each group barrier
(:func:`~repro.parallel.process.fold_lanes`).
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedArrayBlock", "attach_shared_memory"]


def attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    Workers only *view* the parent's segment; registering the attachment
    with their own ``resource_tracker`` would make the tracker unlink
    the segment when a worker exits (the well-known CPython 3.8–3.12
    over-tracking wart, fixed by ``track=False`` in 3.13).  The parent
    created the block, the parent unlinks it.
    """
    try:  # Python >= 3.13
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Pre-3.13: attaching registers with the resource tracker too.
        # Suppress the registration instead of unregistering after the
        # fact — under fork the tracker process is shared, and a second
        # worker's unregister of the same name raises KeyError noise in
        # the tracker.
        from multiprocessing import resource_tracker
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SharedArrayBlock:
    """One shared-memory segment holding several named numpy arrays.

    ``spec`` is an ordered list of ``(name, shape, dtype)`` triples; the
    arrays are packed back-to-back with 64-byte alignment (so no view
    straddles a cache line shared with its neighbor — workers bump their
    conflict lanes while the parent reads other views).  Both sides must
    build from the *same* spec; the creating side embeds nothing in the
    segment, the spec travels to workers as a plain picklable list.
    """

    _ALIGN = 64

    def __init__(self, spec, shm: shared_memory.SharedMemory,
                 *, owner: bool) -> None:
        self.spec = list(spec)
        self._shm = shm
        self._owner = owner
        self._closed = False
        try:
            needed = self.layout_size(self.spec)
            if needed > shm.size:
                raise ValueError(
                    f"layout needs {needed} bytes but the segment holds "
                    f"{shm.size} (spec mismatch between creator and "
                    "attacher?)")
            self.views: dict[str, np.ndarray] = {}
            offset = 0
            for name, shape, dtype in self.spec:
                dt = np.dtype(dtype)
                size = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
                self.views[name] = np.ndarray(
                    shape, dtype=dt, buffer=shm.buf, offset=offset)
                offset += -(-size // self._ALIGN) * self._ALIGN
        except BaseException:
            # A half-constructed block still holds the segment: release
            # the mapping (and the name, when this side created it) so a
            # spec mismatch or bad dtype cannot leak a /dev/shm entry.
            self.views = {}
            self.close()
            raise

    # ------------------------------------------------------------------
    @classmethod
    def layout_size(cls, spec) -> int:
        """Total bytes the packed layout of ``spec`` occupies."""
        total = 0
        for _name, shape, dtype in spec:
            size = int(np.prod(shape, dtype=np.int64)) \
                * np.dtype(dtype).itemsize
            total += -(-size // cls._ALIGN) * cls._ALIGN
        return max(total, 1)

    @classmethod
    def create(cls, spec) -> "SharedArrayBlock":
        """Allocate a fresh zero-filled segment for ``spec``."""
        shm = shared_memory.SharedMemory(
            create=True, size=cls.layout_size(spec))
        try:
            return cls(spec, shm, owner=True)
        except BaseException:
            # ``__init__`` unlinks on its own failure paths, but guard
            # against anything raised before it took ownership.
            try:
                shm.close()
            except BufferError:
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            raise

    @classmethod
    def attach(cls, name: str, spec) -> "SharedArrayBlock":
        """Attach to the segment ``name`` created from the same ``spec``."""
        return cls(spec, attach_shared_memory(name), owner=False)

    @property
    def name(self) -> str:
        """Segment name workers attach by."""
        return self._shm.name

    def close(self) -> None:
        """Drop this process's mapping (and the segment name, if owner).

        Idempotent: every teardown path — normal shutdown, SIGTERM
        drain, chaos crash-style teardown, ``__del__`` as a last resort —
        may call it without coordination.  Unlinking is attempted even
        when a live external view blocks the ``close()`` (BufferError):
        POSIX keeps the segment alive until every mapping drops, so
        unlink-first can never corrupt a reader, while skipping it would
        leak the name in ``/dev/shm``.
        """
        if self._closed:
            return
        self._closed = True
        self.views.clear()
        try:
            self._shm.close()
        except BufferError:
            pass  # a live external view keeps the mapping; harmless
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        # Backstop only: deterministic teardown paths call close()
        # explicitly; this catches owner blocks dropped by an exception
        # before any try/finally could run.
        try:
            self.close()
        except Exception:
            pass

"""Placement-WAL unit tests: durability, rotation, pruning, replay."""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.wal import (
    PlacementLog,
    WalEntry,
    replay_entries,
    wal_segments,
)


def entries(start, count, *, neighbors=None):
    return [WalEntry(seq=start + i, vertex=start + i,
                     neighbors=neighbors, pid=i % 4)
            for i in range(count)]


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        log = PlacementLog(tmp_path)
        batch = entries(0, 5)
        log.append_batch(batch)
        log.close()
        assert list(replay_entries(tmp_path)) == batch
        assert log.appended == 5

    def test_explicit_neighbors_survive(self, tmp_path):
        log = PlacementLog(tmp_path)
        log.append_batch([WalEntry(0, 7, [1, 2, 9], 3)])
        log.close()
        (entry,) = replay_entries(tmp_path)
        assert entry.neighbors == [1, 2, 9]
        assert entry.pid == 3

    def test_empty_batch_is_a_noop(self, tmp_path):
        log = PlacementLog(tmp_path)
        log.append_batch([])
        log.close()
        assert list(replay_entries(tmp_path)) == []
        assert log.appended == 0

    def test_from_position_skips_snapshotted_prefix(self, tmp_path):
        log = PlacementLog(tmp_path)
        log.append_batch(entries(0, 10))
        log.close()
        tail = list(replay_entries(tmp_path, from_position=7))
        assert [e.seq for e in tail] == [7, 8, 9]


class TestRotation:
    def test_rotate_starts_a_new_segment(self, tmp_path):
        log = PlacementLog(tmp_path)
        log.append_batch(entries(0, 3))
        first = log.active_path
        log.rotate(3)
        assert log.active_path != first
        assert log.active_path.name == "wal-000000000003.jsonl"
        log.append_batch(entries(3, 2))
        log.close()
        assert [e.seq for e in replay_entries(tmp_path)] == list(range(5))

    def test_reopening_a_base_appends_instead_of_clobbering(self, tmp_path):
        # A crash-reboot before any snapshot reopens segment base 0; the
        # durable lines already in it must survive.
        log = PlacementLog(tmp_path)
        log.append_batch(entries(0, 3))
        log.close()
        log = PlacementLog(tmp_path, start=0)
        log.append_batch(entries(3, 2))
        log.close()
        assert [e.seq for e in replay_entries(tmp_path)] == list(range(5))

    def test_prune_drops_only_wholly_covered_segments(self, tmp_path):
        log = PlacementLog(tmp_path)
        log.append_batch(entries(0, 3))
        log.rotate(3)
        log.append_batch(entries(3, 3))
        log.rotate(6)
        log.append_batch(entries(6, 2))
        # Snapshot at position 6 covers segments [0,3) and [3,6).
        removed = log.prune(6)
        log.close()
        assert removed == 2
        assert [base for base, _ in wal_segments(tmp_path)] == [6]
        assert [e.seq for e in replay_entries(tmp_path,
                                              from_position=6)] == [6, 7]

    def test_prune_never_removes_the_active_segment(self, tmp_path):
        log = PlacementLog(tmp_path)
        log.append_batch(entries(0, 2))
        assert log.prune(10) == 0
        log.close()
        assert len(wal_segments(tmp_path)) == 1


class TestCorruption:
    def test_torn_final_line_is_silently_dropped(self, tmp_path):
        log = PlacementLog(tmp_path)
        log.append_batch(entries(0, 4))
        log.close()
        path = wal_segments(tmp_path)[0][1]
        with open(path, "ab") as fh:  # the crash landed mid-write
            fh.write(b'{"s":4,"v":4,"n":nu')
        assert [e.seq for e in replay_entries(tmp_path)] == [0, 1, 2, 3]

    def test_corruption_followed_by_data_raises(self, tmp_path):
        log = PlacementLog(tmp_path)
        log.append_batch(entries(0, 2))
        path = log.active_path
        log.close()
        raw = path.read_bytes()
        lines = raw.strip().split(b"\n")
        path.write_bytes(lines[0] + b"\n" + b"garbage\n" + lines[1] + b"\n")
        with pytest.raises(ValueError, match="corrupt WAL line"):
            list(replay_entries(tmp_path))

    def test_sequence_gap_raises(self, tmp_path):
        log = PlacementLog(tmp_path)
        log.append_batch([WalEntry(0, 0, None, 0), WalEntry(2, 2, None, 1)])
        log.close()
        with pytest.raises(ValueError, match="sequence gap"):
            list(replay_entries(tmp_path))

    def test_missing_prefix_is_a_gap_not_a_silent_skip(self, tmp_path):
        # Replay from position 0 against a log whose first entry is 5:
        # a deleted segment must be loud, not quietly absorbed.
        log = PlacementLog(tmp_path, start=5)
        log.append_batch(entries(5, 2))
        log.close()
        with pytest.raises(ValueError, match="sequence gap"):
            list(replay_entries(tmp_path, from_position=0))

    def test_empty_directory_replays_nothing(self, tmp_path):
        assert list(replay_entries(tmp_path / "nowhere")) == []


class TestRotationEdgeCases:
    """Crash/corruption cases at segment boundaries — the places where
    'torn tail is fine, mid-stream damage is not' gets subtle."""

    def test_torn_final_line_of_active_segment_after_rotation(
            self, tmp_path):
        # Crash mid-write *after* a rotation: only the torn tail of the
        # newest segment drops; the rotated-away prefix stays whole.
        log = PlacementLog(tmp_path)
        log.append_batch(entries(0, 4))
        log.rotate(4)
        log.append_batch(entries(4, 2))
        log.close()
        with open(log.active_path, "ab") as fh:
            fh.write(b'{"s":6,"v":6,"n":nul')
        assert [e.seq for e in replay_entries(tmp_path)] == [0, 1, 2, 3,
                                                             4, 5]

    def test_torn_line_at_rotation_boundary_followed_by_data_raises(
            self, tmp_path):
        # A torn line at the END of a rotated-away segment is not a
        # mid-write crash tail — valid lines follow in the next segment,
        # so replaying past it would silently drop an acked placement.
        log = PlacementLog(tmp_path)
        log.append_batch(entries(0, 3))
        first_segment = log.active_path
        log.rotate(4)
        log.append_batch(entries(4, 2))
        log.close()
        with open(first_segment, "ab") as fh:
            fh.write(b'{"s":3,"v":3,"n":nu')
        with pytest.raises(ValueError, match="followed by"):
            list(replay_entries(tmp_path))

    def test_sequence_gap_across_rotation_boundary_raises(self, tmp_path):
        # Segment files individually valid, but a whole commit vanished
        # between them (rotate skipped seq 3): replay must refuse.
        log = PlacementLog(tmp_path)
        log.append_batch(entries(0, 3))
        log.rotate(4)
        log.append_batch(entries(4, 2))
        log.close()
        with pytest.raises(ValueError, match="sequence gap"):
            list(replay_entries(tmp_path))


class TestFlakyWALGroupCommit:
    """Injected fsync failure mid-group-commit (the FlakyWAL model):
    a failed commit leaves zero bytes behind and a later retry of the
    same entries lands cleanly."""

    def test_failed_commit_writes_nothing(self, tmp_path):
        from repro.recovery.chaos import FlakyWAL

        log = FlakyWAL(tmp_path)
        log.append_batch(entries(0, 2))
        log.fail()
        with pytest.raises(OSError, match="injected WAL append"):
            log.append_batch(entries(2, 2))
        log.close()
        assert log.injected_failures == 1
        # Nothing of the failed group reached disk: replay is clean.
        assert [e.seq for e in replay_entries(tmp_path)] == [0, 1]

    def test_restore_then_reflush_is_gapless(self, tmp_path):
        from repro.recovery.chaos import FlakyWAL

        log = FlakyWAL(tmp_path)
        log.append_batch(entries(0, 2))
        log.fail()
        with pytest.raises(OSError):
            log.append_batch(entries(2, 2))
        log.restore()
        assert not log.armed
        log.append_batch(entries(2, 2))  # the recovery flush
        log.close()
        assert [e.seq for e in replay_entries(tmp_path)] == [0, 1, 2, 3]

    def test_fail_at_seq_fires_once(self, tmp_path):
        from repro.recovery.chaos import FlakyWAL

        log = FlakyWAL(tmp_path, fail_at={1})
        with pytest.raises(OSError, match="seq \\[1\\]"):
            log.append_batch(entries(0, 3))
        log.append_batch(entries(0, 3))  # same batch, second try: clean
        log.close()
        assert log.injected_failures == 1
        assert [e.seq for e in replay_entries(tmp_path)] == [0, 1, 2]


def json_lines(batch):
    """The WAL bytes of ``batch`` as ``json.dumps`` writes them."""
    return "".join(
        json.dumps({"s": e.seq, "v": e.vertex, "n": e.neighbors,
                    "p": e.pid}, separators=(",", ":")) + "\n"
        for e in batch).encode()


_BIG = st.integers(0, 2 ** 62)
_NEIGHBORS = st.none() | st.lists(_BIG, max_size=50)


class TestLineFormat:
    """``append_batch`` formats lines itself; they must stay the bytes
    ``json.dumps`` wrote, and a bad field must never reach the file."""

    @settings(max_examples=150, deadline=None)
    @given(start=st.integers(0, 2 ** 62 - 64),
           rows=st.lists(st.tuples(_BIG, _NEIGHBORS, _BIG),
                         min_size=1, max_size=64))
    def test_bytes_equal_json_and_replay_round_trips(self, start, rows):
        batch = [WalEntry(start + i, vertex, neighbors, pid)
                 for i, (vertex, neighbors, pid) in enumerate(rows)]
        with tempfile.TemporaryDirectory() as tmp:
            log = PlacementLog(tmp, start=start, fsync=False)
            log.append_batch(batch)
            log.close()
            assert log.active_path.read_bytes() == json_lines(batch)
            assert list(replay_entries(tmp, from_position=start)) == batch

    @pytest.mark.parametrize("bad", [1.0, 2.5, "7", None, np.int64(1)])
    @pytest.mark.parametrize("field", ["seq", "vertex", "pid", "neighbor"])
    def test_non_integral_field_raises_and_writes_nothing(
            self, tmp_path, field, bad):
        good = WalEntry(0, 0, [1, 2], 3)
        fields = {"seq": 1, "vertex": 1, "neighbors": None, "pid": 1}
        if field == "neighbor":
            fields["neighbors"] = [4, bad]
        else:
            fields[field] = bad
        log = PlacementLog(tmp_path, fsync=False)
        with pytest.raises(TypeError):
            log.append_batch([good, WalEntry(**fields)])
        log.close()
        assert log.active_path.read_bytes() == b""
        assert log.appended == 0
        assert list(replay_entries(tmp_path)) == []

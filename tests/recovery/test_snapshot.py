"""Snapshot codec and atomic-write guarantees."""

import io
import json
import struct
import zlib

import numpy as np
import pytest

from repro.recovery import (
    SnapshotError,
    atomic_write_text,
    atomic_writer,
    read_snapshot,
    write_snapshot,
)
from repro.memory.tracker import measure_peak
from repro.recovery.chaos import corrupt_snapshot, tear_snapshot


def _payload():
    return {
        "position": 1234,
        "elapsed_seconds": 0.75,
        "partitioner": "SPNL",
        "partition_state": {
            "route": np.arange(50, dtype=np.int32),
            "vertex_counts": np.array([20, 30], dtype=np.int64),
            "capacity": 27.0,
            "balance": "vertex",
            "edge_capacity": None,
        },
        "heuristic": {
            "lt_counts": np.array([5, 7], dtype=np.int64),
            "store": {"kind": "full",
                      "table": np.zeros((50, 2), dtype=np.int32)},
        },
    }


class TestRoundTrip:
    def test_nested_payload_survives(self, tmp_path):
        path = tmp_path / "s.snap"
        original = _payload()
        write_snapshot(path, original)
        loaded = read_snapshot(path)
        assert loaded["position"] == 1234
        assert loaded["partitioner"] == "SPNL"
        assert loaded["partition_state"]["edge_capacity"] is None
        np.testing.assert_array_equal(
            loaded["partition_state"]["route"],
            original["partition_state"]["route"])
        np.testing.assert_array_equal(
            loaded["heuristic"]["store"]["table"],
            original["heuristic"]["store"]["table"])

    def test_empty_heuristic_dict_round_trips(self, tmp_path):
        path = tmp_path / "s.snap"
        write_snapshot(path, {"position": 0, "heuristic": {}})
        loaded = read_snapshot(path)
        assert loaded["heuristic"] == {}

    def test_big_int_scalars_survive(self, tmp_path):
        # RandomPartitioner's PCG64 state holds 128-bit ints.
        path = tmp_path / "s.snap"
        state = json.dumps({"state": {"state": 2**127 + 3}})
        write_snapshot(path, {"rng_state": state})
        assert read_snapshot(path)["rng_state"] == state

    def test_slash_in_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="/"):
            write_snapshot(tmp_path / "s.snap", {"a/b": 1})


class TestIntegrity:
    def test_torn_snapshot_rejected(self, tmp_path):
        path = tmp_path / "s.snap"
        write_snapshot(path, _payload())
        tear_snapshot(path, keep_fraction=0.6)
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(path)

    def test_bitflip_fails_crc(self, tmp_path):
        path = tmp_path / "s.snap"
        write_snapshot(path, _payload())
        for seed in range(5):
            blob = path.read_bytes()
            corrupt_snapshot(path, seed=seed)
            with pytest.raises(SnapshotError):
                read_snapshot(path)
            path.write_bytes(blob)  # restore for the next flip

    def test_not_a_snapshot_rejected(self, tmp_path):
        path = tmp_path / "s.snap"
        path.write_bytes(b"definitely not a snapshot file")
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(path)

    def test_future_version_rejected(self, tmp_path):
        import struct

        path = tmp_path / "s.snap"
        write_snapshot(path, _payload())
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from(">I", blob, 10)
        header = json.loads(blob[14:14 + header_len])
        header["version"] = 99
        raw = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(blob[:10] + struct.pack(">I", len(raw)) + raw
                         + blob[14 + header_len:])
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(path)


    @pytest.mark.parametrize("header", [b"[]", b'"x"', b"1"])
    def test_header_that_is_not_an_object(self, tmp_path, header):
        path = tmp_path / "s.snap"
        path.write_bytes(b"REPROSNAP\x01" + struct.pack(">I", len(header))
                         + header)
        with pytest.raises(SnapshotError, match="not an object"):
            read_snapshot(path)

    def test_meta_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "s.snap"
        write_snapshot(path, _payload())
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from(">I", blob, 10)
        header = json.loads(blob[14:14 + header_len])
        header["meta"] = []
        raw = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(blob[:10] + struct.pack(">I", len(raw)) + raw
                         + blob[14 + header_len:])
        with pytest.raises(SnapshotError, match="meta"):
            read_snapshot(path)


def _served_size_payload():
    """The benchmark server's snapshot: a 20 000-vertex route table and
    SPNL's dense Γ at K = 32, about 2.6 MB of arrays."""
    return {
        "position": 20_000,
        "partition_state": {"route": np.arange(20_000, dtype=np.int32),
                            "vertex_counts": np.zeros(32, dtype=np.int64)},
        "heuristic": {"store": {"kind": "full",
                                "table": np.ones((20_000, 32),
                                                 dtype=np.int32)}},
    }


def _old_write(path, payload):
    """The writer before it streamed: the whole ``.npz`` in a buffer,
    then magic + header + body concatenated."""
    from repro.recovery.snapshot import _flatten

    meta, arrays = {}, {}
    _flatten(payload, "", meta, arrays)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    body = buf.getvalue()
    header = json.dumps({"format": "repro-snapshot", "version": 1,
                         "crc32": zlib.crc32(body), "body_len": len(body),
                         "meta": meta}, sort_keys=True).encode("utf-8")
    path.write_bytes(b"REPROSNAP\x01" + struct.pack(">I", len(header))
                     + header + body)


def _old_read(path):
    """The reader before it streamed: the whole file, the body sliced
    out and decoded from memory.  Returns ``(meta, arrays)``."""
    blob = path.read_bytes()
    assert blob.startswith(b"REPROSNAP\x01")
    (header_len,) = struct.unpack_from(">I", blob, 10)
    header = json.loads(blob[14:14 + header_len].decode("utf-8"))
    assert header["format"] == "repro-snapshot" and header["version"] == 1
    body = blob[14 + header_len:]
    assert len(body) == header["body_len"]
    assert zlib.crc32(body) == header["crc32"]
    with np.load(io.BytesIO(body), allow_pickle=False) as npz:
        return header["meta"], {key: npz[key] for key in npz.files}


class TestStreamedCodec:
    def test_write_holds_no_copy_of_the_payload(self, tmp_path):
        # Allocations above what the payload already holds: the chunk
        # buffer and bookkeeping, never a buffer the size of the body.
        payload = _served_size_payload()
        path = tmp_path / "s.snap"
        write_snapshot(path, payload)  # warm every import
        _, peak = measure_peak(lambda: write_snapshot(path, payload))
        assert path.stat().st_size > 2_600_000
        assert peak <= 256 * 1024, peak

    def test_read_holds_the_result_and_a_bounded_buffer(self, tmp_path):
        path = tmp_path / "s.snap"
        write_snapshot(path, _served_size_payload())
        read_snapshot(path)
        loaded, peak = measure_peak(lambda: read_snapshot(path))
        result = (loaded["partition_state"]["route"].nbytes
                  + loaded["partition_state"]["vertex_counts"].nbytes
                  + loaded["heuristic"]["store"]["table"].nbytes)
        assert peak <= result + (1 << 20), peak - result

    def test_snapshot_op_peaks_at_the_state_dict_copies(self, tmp_path):
        from repro import PartitionConfig
        from repro.graph import community_web_graph
        from repro.service.protocol import PROTOCOL_VERSION, encode_message
        from repro.service.server import PlacementService

        n = 5000
        service = PlacementService(
            community_web_graph(n, seed=7),
            config=PartitionConfig(method="spnl", num_partitions=32),
            snapshot_dir=tmp_path / "state", wal_fsync=False)
        try:
            for lo in range(0, n, 64):
                _, reply = service._handle_line(encode_message({
                    "protocol": PROTOCOL_VERSION, "id": lo,
                    "op": "place_batch",
                    "items": list(range(lo, min(lo + 64, n)))}))
                assert reply["ok"], reply
            state = service._checkpointer.partitioner.state_dict(
                service._state)
            copies = state["partition_state"]["route"].nbytes \
                + state["heuristic"]["store"]["table"].nbytes
            line = encode_message({"protocol": PROTOCOL_VERSION, "id": 0,
                                   "op": "snapshot"})
            (_, reply), peak = measure_peak(
                lambda: service._handle_line(line))
        finally:
            service.close()
        assert reply["ok"], reply
        assert peak <= copies + 512 * 1024, (peak, copies)

    def test_old_files_load_with_the_streamed_reader(self, tmp_path):
        path = tmp_path / "old.snap"
        original = _payload()
        _old_write(path, original)
        loaded = read_snapshot(path)
        assert loaded["position"] == 1234
        assert loaded["partition_state"]["edge_capacity"] is None
        np.testing.assert_array_equal(
            loaded["heuristic"]["store"]["table"],
            original["heuristic"]["store"]["table"])

    def test_streamed_files_load_with_the_old_reader(self, tmp_path):
        path = tmp_path / "new.snap"
        write_snapshot(path, _payload())
        meta, arrays = _old_read(path)
        assert meta["position"] == 1234
        assert meta["partition_state/edge_capacity"] is None
        np.testing.assert_array_equal(arrays["partition_state/route"],
                                      np.arange(50, dtype=np.int32))
        old = tmp_path / "old.snap"
        _old_write(old, _payload())
        assert _old_read(old)[0] == meta

    def test_body_equals_savez_for_every_array_shape(self, tmp_path):
        arrays = {
            "zero_d": np.array(3.5),
            "empty_2d": np.zeros((0, 3)),
            "flags": np.array([True, False]),
            "days": np.array(["2020-01-01"], dtype="datetime64[D]"),
            "records": np.ones(2, dtype=[("a", "<i4"), ("b", "<f8")]),
            "big_endian": np.arange(5, dtype=">i8"),
            "text": np.array(["ab", "c"]),
        }
        path = tmp_path / "s.snap"
        write_snapshot(path, {"strided": np.arange(10)[::2],
                              "fortran": np.asfortranarray(
                                  np.arange(6).reshape(2, 3)),
                              **arrays})
        loaded = read_snapshot(path)
        np.testing.assert_array_equal(loaded["strided"], np.arange(0, 10, 2))
        assert loaded["fortran"].tolist() == [[0, 1, 2], [3, 4, 5]]
        for key, value in arrays.items():
            assert loaded[key].dtype == value.dtype, key
            assert loaded[key].shape == value.shape, key
            np.testing.assert_array_equal(loaded[key], value)
        write_snapshot(path, arrays)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from(">I", blob, 10)
        savez = io.BytesIO()
        np.savez(savez, **arrays)
        assert blob[14 + header_len:] == savez.getvalue()

    def test_damaged_header_length_is_refused_unread(self, tmp_path):
        path = tmp_path / "s.snap"
        write_snapshot(path, _payload())
        blob = bytearray(path.read_bytes())
        blob[10:14] = struct.pack(">I", 0xFFFFFFF0)
        path.write_bytes(bytes(blob))

        def refused():
            # read(n) allocates n bytes up front: the length is checked
            # against the file before the header is read.
            with pytest.raises(SnapshotError,
                               match="truncated snapshot header"):
                read_snapshot(path)

        _, peak = measure_peak(refused)
        assert peak < 1 << 20, peak

    def test_failure_mid_body_keeps_the_previous_snapshot(self, tmp_path):
        path = tmp_path / "s.snap"
        write_snapshot(path, _payload())
        before = path.read_bytes()
        # The first array is written before the second is refused.
        broken = {"first": np.arange(1000),
                  "second": np.array([object()], dtype=object)}
        with pytest.raises(ValueError, match="Python objects"):
            write_snapshot(path, broken)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestAtomicWriter:
    def test_failure_leaves_previous_contents(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous complete version\n")
        with pytest.raises(RuntimeError):
            with atomic_writer(path) as fh:
                fh.write("half-written")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "previous complete version\n"
        assert list(tmp_path.iterdir()) == [path]  # tmp file cleaned up

    def test_success_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_gzip_transparent(self, tmp_path):
        import gzip

        path = tmp_path / "out.txt.gz"
        atomic_write_text(path, "compressed payload")
        with gzip.open(path, "rt") as fh:
            assert fh.read() == "compressed payload"

"""Checkpoint wire-format tests."""

import struct

import numpy as np
import pytest

from restyle import checkpoint
from restyle.errors import CheckpointError


def sample_table():
    rng = np.random.default_rng(0)
    return {
        "a.weight": rng.standard_normal((2, 3, 1, 1)).astype(np.float32),
        "b": rng.standard_normal(5).astype(np.float32),
        "scalarish": np.float32(3.5).reshape(()) * np.ones((), dtype=np.float32),
    }


class TestRoundTrip:
    def test_bit_identical(self):
        table = sample_table()
        blob = checkpoint.dumps(table)
        back = checkpoint.loads(blob)
        assert list(back) == list(table)
        for k in table:
            np.testing.assert_array_equal(back[k], table[k])
        assert checkpoint.dumps(back) == blob

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.ckpt"
        table = sample_table()
        checkpoint.write(path, table)
        back = checkpoint.read(path)
        assert checkpoint.dumps(back) == checkpoint.dumps(table)

    def test_header_layout(self):
        blob = checkpoint.dumps({"x": np.zeros((2, 2), dtype=np.float32)})
        assert blob[:4] == b"ETNT"
        assert int.from_bytes(blob[4:8], "little") == checkpoint.VERSION
        assert int.from_bytes(blob[8:12], "little") == 1


class TestErrors:
    def test_wrong_magic(self):
        with pytest.raises(CheckpointError, match="magic"):
            checkpoint.loads(b"NOPE" + b"\x00" * 20)

    def test_wrong_version(self):
        blob = bytearray(checkpoint.dumps({"x": np.zeros(1, dtype=np.float32)}))
        blob[4] = 99
        with pytest.raises(CheckpointError, match="version"):
            checkpoint.loads(bytes(blob))

    def test_truncated(self):
        blob = checkpoint.dumps({"x": np.zeros(4, dtype=np.float32)})
        with pytest.raises(CheckpointError):
            checkpoint.loads(blob[:-3])

    def test_trailing_garbage(self):
        blob = checkpoint.dumps({"x": np.zeros(4, dtype=np.float32)})
        with pytest.raises(CheckpointError, match="trailing"):
            checkpoint.loads(blob + b"zz")

    def test_non_utf8_name(self):
        blob = bytearray(checkpoint.dumps({"x": np.zeros(1, dtype=np.float32)}))
        blob[14] = 0xFF  # the name's only byte, after magic, version, count, name_len
        with pytest.raises(CheckpointError, match="UTF-8"):
            checkpoint.loads(bytes(blob))

    def test_entry_size_does_not_wrap(self):
        # 65536^4 floats: 2^66 bytes, which wraps to 0 in 64-bit arithmetic
        blob = b"ETNT" + struct.pack("<IIHB4I", 1, 1, 0, 4, *[65536] * 4)
        assert len(blob) == 31
        with pytest.raises(CheckpointError, match="truncated"):
            checkpoint.loads(blob)

    def test_rank_beyond_numpy(self):
        blob = (b"ETNT" + struct.pack("<IIHB", 1, 1, 0, 65) + struct.pack("<65I", *[1] * 65)
                + bytes(4))
        with pytest.raises(CheckpointError, match="shape"):
            checkpoint.loads(blob)


class TestAtomicWrite:
    def test_failed_write_keeps_old_bytes(self, tmp_path):
        path = tmp_path / "t.ckpt"
        checkpoint.write(path, sample_table())
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match="too long"):
            checkpoint.write(path, {"n" * 0x10000: np.zeros(1, dtype=np.float32)})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.ckpt"]

"""Binary checkpoint serialization for named tensor tables.

Layout (all integers little-endian):

    magic   4 bytes  b"ETNT"
    version u32
    count   u32
    entries, each:
        name_len u16, name bytes (utf-8)
        rank     u8,  dims u32 * rank
        data     float32 little-endian, row-major

Entry order is preserved, so save(load(x)) and load(save(x)) are both
bit-exact.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import CheckpointError

MAGIC = b"ETNT"
VERSION = 1


def dumps(named) -> bytes:
    """Serialize a name -> array mapping (insertion order preserved)."""
    names = list(named)
    if len(set(names)) != len(names):
        raise CheckpointError("duplicate tensor names")
    parts = [MAGIC, struct.pack("<II", VERSION, len(names))]
    for name in names:
        arr = np.ascontiguousarray(np.asarray(named[name], dtype="<f4"))
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise CheckpointError(f"name too long: {name!r}")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    return b"".join(parts)


def loads(data: bytes):
    """Parse checkpoint bytes back into an ordered name -> float32 array dict."""
    if data[:4] != MAGIC:
        raise CheckpointError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < 12:
        raise CheckpointError("truncated header")
    version, count = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}, expected {VERSION}")
    pos = 12
    out = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", data, pos)
            pos += 2
            name = data[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<B", data, pos)
            pos += 1
            dims = struct.unpack_from(f"<{rank}I", data, pos)
            pos += 4 * rank
        except (struct.error, UnicodeDecodeError) as exc:
            raise CheckpointError(f"bad entry table (truncated, or a name not UTF-8): "
                                  f"{exc}") from exc
        nbytes = 4 * math.prod(dims)  # Python ints: no wrap-around
        if pos + nbytes > len(data):
            raise CheckpointError(f"truncated data for {name!r}")
        try:
            arr = np.frombuffer(data[pos:pos + nbytes], dtype="<f4").reshape(dims)
        except ValueError as exc:  # rank beyond what numpy supports
            raise CheckpointError(f"bad shape {dims} for {name!r}: {exc}") from exc
        pos += nbytes
        if name in out:
            raise CheckpointError(f"duplicate tensor name {name!r}")
        out[name] = np.ascontiguousarray(arr)
    if pos != len(data):
        raise CheckpointError(f"{len(data) - pos} trailing bytes")
    return out


def write_atomic(path, data: bytes):
    """Replace the file at `path` with `data` through a temporary file in the
    same directory, so the path holds the old bytes or the new, never a part.

    An `OSError` names `path`, not the temporary file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write(path, named):
    write_atomic(path, dumps(named))


def read(path):
    """`loads` of the file at `path`; a `CheckpointError` names the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return loads(data)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc

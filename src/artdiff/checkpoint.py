"""Versioned binary container for named float64 arrays.

Layout (all integers little-endian):
  8 bytes   magic (``DENOISER_MAGIC``)
  u32       format version (1)
  u32       number of arrays
  per array: u16 name length, utf-8 name (unique), u8 ndim (at most 32),
            u64 * ndim extents
  payload   float64 little-endian array data, in table order
  u64       checksum: first 8 bytes of SHA-256 over everything before it

``write_file`` is the one function of the package that writes a file:
every CLI output, ``manifest.json`` and a saved checkpoint go through it.
It rewrites a file in place and cuts it to the new length, so a rerun
into the same directory leaves no stale bytes. A write that fails
part-way leaves the new bytes over the old ones; nothing is fsynced, so
neither form is durable.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1
DENOISER_MAGIC = b"ARTDNSR1"
MAX_NDIM = 32


class CheckpointError(ValueError):
    pass


def write_file(path, data: bytes) -> bytes:
    """Make ``data`` the whole of the file at ``path`` and return it. The
    file is opened without O_TRUNC, since on ext4 emptying a file that holds
    data costs more than writing it, and cut at the end of ``data`` after
    the write when it is longer (a device such as /dev/null has no length
    to cut, and refuses ftruncate)."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
    return data


def encode_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    """The checkpoint file of ``arrays``, in the layout above."""
    head = bytearray()
    head += DENOISER_MAGIC
    head += struct.pack("<I", FORMAT_VERSION)
    head += struct.pack("<I", len(arrays))
    payload = bytearray()
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype="<f8")  # tobytes() emits C order regardless
        encoded = name.encode("utf-8")
        head += struct.pack("<H", len(encoded)) + encoded
        head += struct.pack("<B", arr.ndim)
        head += struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
        payload += arr.tobytes()
    body = bytes(head) + bytes(payload)
    return body + hashlib.sha256(body).digest()[:8]


def save_arrays(path, arrays: dict[str, np.ndarray]) -> bytes:
    """Write the checkpoint file of ``arrays`` at ``path``; returns its bytes."""
    return write_file(path, encode_arrays(arrays))


def load_arrays(path) -> dict[str, np.ndarray]:
    """The arrays of the checkpoint file at ``path`` by name, in table
    order. The payload is copied once, into one writable float64 array, and
    each array is a view into that copy (its ``base``): the arrays share no
    memory with the file's bytes, only with each other's payload. A fault
    in the file raises CheckpointError naming ``path``."""
    blob = Path(path).read_bytes()
    if len(blob) < 24:
        raise CheckpointError(f"{path}: truncated checkpoint")
    body, checksum = blob[:-8], blob[-8:]
    if hashlib.sha256(body).digest()[:8] != checksum:
        raise CheckpointError(f"{path}: checksum mismatch")
    if body[:8] != DENOISER_MAGIC:
        raise CheckpointError(f"{path}: magic {body[:8]!r} does not match "
                              f"expected {DENOISER_MAGIC!r}")
    (version,) = struct.unpack_from("<I", body, 8)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (count,) = struct.unpack_from("<I", body, 12)
    offset = 16
    table = {}      # name -> shape, in file order
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", body, offset)
            offset += 2
            name = body[offset:offset + name_len].decode("utf-8")
            offset += name_len
            if name in table:
                raise CheckpointError(f"{path}: array name {name!r} appears more than once")
            (ndim,) = struct.unpack_from("<B", body, offset)
            offset += 1
            if ndim > MAX_NDIM:
                raise CheckpointError(f"{path}: array {name!r} has {ndim} dimensions, "
                                      f"at most {MAX_NDIM} are allowed")
            shape = struct.unpack_from(f"<{ndim}Q", body, offset)
            offset += 8 * ndim
            table[name] = shape
    except struct.error:
        raise CheckpointError(f"{path}: shape table is cut short") from None
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: an array name is not valid UTF-8") from None
    # the payload copied once, whole float64 values only; each array is a
    # view into the copy, cut and checked in table order
    rest = len(body) - offset
    payload = np.frombuffer(body, dtype="<f8", count=rest // 8, offset=offset).copy()
    arrays, end = {}, 0
    for name, shape in table.items():
        start, end = end, end + math.prod(shape)    # Python ints: no overflow
        if end > len(payload):
            raise CheckpointError(f"{path}: payload shorter than shape table promises")
        try:
            arrays[name] = payload[start:end].reshape(shape)
        except ValueError:      # an empty array with an extent numpy cannot index
            raise CheckpointError(f"{path}: array {name!r} has shape {shape}, "
                                  f"which numpy cannot hold") from None
    if 8 * end != rest:
        raise CheckpointError(f"{path}: trailing bytes after payload")
    return arrays

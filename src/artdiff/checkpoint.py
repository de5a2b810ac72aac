"""Versioned binary container for named float64 arrays.

Layout (all integers little-endian):
  8 bytes   magic (``DENOISER_MAGIC``)
  u32       format version (1)
  u32       number of arrays
  per array: u16 name length, utf-8 name, u8 ndim (at most 32), u64 * ndim extents
  payload   float64 little-endian array data, in table order
  u64       checksum: first 8 bytes of SHA-256 over everything before it
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1
DENOISER_MAGIC = b"ARTDNSR1"
MAX_NDIM = 32


class CheckpointError(ValueError):
    pass


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
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
    checksum = hashlib.sha256(body).digest()[:8]
    Path(path).write_bytes(body + checksum)


def load_arrays(path) -> dict[str, np.ndarray]:
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
    table = []
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", body, offset)
            offset += 2
            name = body[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", body, offset)
            offset += 1
            if ndim > MAX_NDIM:
                raise CheckpointError(f"{path}: array {name!r} has {ndim} dimensions, "
                                      f"at most {MAX_NDIM} are allowed")
            shape = struct.unpack_from(f"<{ndim}Q", body, offset)
            offset += 8 * ndim
            table.append((name, shape))
    except struct.error:
        raise CheckpointError(f"{path}: shape table is cut short") from None
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: an array name is not valid UTF-8") from None
    arrays = {}
    for name, shape in table:
        count = math.prod(shape)    # Python ints: no overflow
        end = offset + 8 * count
        if end > len(body):
            raise CheckpointError(f"{path}: payload shorter than shape table promises")
        try:
            arrays[name] = np.frombuffer(body, dtype="<f8", count=count,
                                         offset=offset).reshape(shape).copy()
        except ValueError:      # an empty array with an extent numpy cannot index
            raise CheckpointError(f"{path}: array {name!r} has shape {shape}, "
                                  f"which numpy cannot hold") from None
        offset = end
    if offset != len(body):
        raise CheckpointError(f"{path}: trailing bytes after payload")
    return arrays

"""ICCW parameter checkpoints: bit-exact little-endian array records."""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"ICCW"
VERSION = 1
_DTYPE_TAGS = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


def save_checkpoint(path, params: dict[str, np.ndarray]) -> None:
    """Write name -> array records in dict order; values stored little-endian."""
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    for name, arr in params.items():
        arr = np.asarray(arr)
        dt = arr.dtype.newbyteorder("<")
        if dt not in _DTYPE_TAGS:
            raise ValueError(f"checkpoint: unsupported dtype {arr.dtype} for {name!r}")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BI", _DTYPE_TAGS[dt], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype=dt).tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from e
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise DataError(f"{path}: not an ICCW checkpoint")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    pos = 8
    params: dict[str, np.ndarray] = {}
    while pos < len(raw):
        try:
            (name_len,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            name = raw[pos : pos + name_len].decode("utf-8")
            pos += name_len
            tag, rank = struct.unpack_from("<BI", raw, pos)
            pos += 5
            shape = struct.unpack_from(f"<{rank}I", raw, pos)
            pos += 4 * rank
            dtype = _TAG_DTYPES.get(tag)
            if dtype is None:
                raise DataError(f"{path}: unknown dtype tag {tag} for {name!r}")
            nbytes = math.prod(shape) * dtype.itemsize
            body = raw[pos : pos + nbytes]
            if len(body) != nbytes:
                raise DataError(f"{path}: truncated data for {name!r}")
            pos += nbytes
        except struct.error:
            raise DataError(f"{path}: truncated checkpoint record") from None
        except UnicodeDecodeError:
            raise DataError(f"{path}: parameter name at byte {pos} is not UTF-8") from None
        if name in params:
            raise DataError(f"{path}: parameter {name!r} appears twice")
        params[name] = np.frombuffer(body, dtype=dtype).reshape(shape).copy()
    return params

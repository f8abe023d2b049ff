"""Flat binary parameter container.

Layout (all integers little-endian u32):

    magic "MDL1"
    meta_len, meta (UTF-8 JSON; zero length when absent)
    repeated until EOF:
        name_len, name (UTF-8)
        rank, dims[rank]
        payload (little-endian float64, row-major)

The meta blob carries run-level facts such as the flow kind and its
schedule constants.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"MDL1"


class CheckpointError(ValueError):
    pass


def save_params(path, named: dict[str, np.ndarray], meta: dict | None = None) -> None:
    chunks = [MAGIC]
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8") if meta else b""
    chunks.append(struct.pack("<I", len(meta_bytes)))
    chunks.append(meta_bytes)
    for name, arr in named.items():
        arr = np.asarray(arr, dtype=np.float64)
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_params(path) -> tuple[dict[str, np.ndarray], dict]:
    """The named arrays and the meta object of a checkpoint. A file that
    breaks the layout above raises :class:`CheckpointError`."""
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}")
    pos = 4

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(f"{path}: truncated at byte {pos}")
        piece = blob[pos:pos + n]
        pos += n
        return piece

    def text(n: int) -> str:
        try:
            return take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: {exc}") from None

    (meta_len,) = struct.unpack("<I", take(4))
    try:
        meta = json.loads(text(meta_len)) if meta_len else {}
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: meta is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: meta is a JSON {type(meta).__name__}, not an object")

    named: dict[str, np.ndarray] = {}
    while pos < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        name = text(name_len)
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        count = int(np.prod(dims)) if rank else 1
        data = np.frombuffer(take(8 * count), dtype="<f8").astype(np.float64)
        named[name] = data.reshape(dims)
    return named, meta

"""Atomic file writes and the named-tensor container that holds both
training checkpoints and gate logs.

A container is a single binary file: magic, version, a canonical-JSON
metadata block, then each array as (name, dtype tag, shape, little-endian
payload). Serialization is exact, so save -> load -> forward reproduces
outputs bit for bit. All writes in this package go through a temp file in
the target directory followed by os.replace, so readers never observe a
half-written file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

MAGIC = b"GNCP"
VERSION = 1
_NUMERIC_KINDS = "biufc"  # bool, signed, unsigned, float, complex


class CheckpointError(RuntimeError):
    """Unreadable, truncated, or incompatible checkpoint."""


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(path: str | Path, fieldnames, rows) -> None:
    """Header plus one line per row dict, each ending in a bare newline,
    written atomically."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def dict_hash(d: dict) -> str:
    """sha256 over a canonical JSON encoding; key order never matters."""
    blob = json.dumps(d, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _to_little_endian(arr: np.ndarray) -> np.ndarray:
    # astype keeps 0-d shapes intact; tobytes() below handles layout
    return arr.astype(arr.dtype.newbyteorder("<"), copy=False)


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Write arrays plus JSON metadata; atomic and deterministic."""
    chunks: list[bytes] = [MAGIC, struct.pack("<I", VERSION)]
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    chunks.append(struct.pack("<Q", len(meta_blob)))
    chunks.append(meta_blob)
    chunks.append(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = _to_little_endian(np.asarray(tensors[name]))
        name_b = name.encode("utf-8")
        dtype_b = arr.dtype.str.encode("ascii")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<B", len(dtype_b)))
        chunks.append(dtype_b)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        payload = arr.tobytes()
        chunks.append(struct.pack("<Q", len(payload)))
        chunks.append(payload)
    atomic_write_bytes(path, b"".join(chunks))


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"{path}: file not found")
    blob = path.read_bytes()
    view = memoryview(blob)
    off = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(view):
            raise CheckpointError(f"{path}: truncated at byte {off}")
        chunk = view[off : off + n]
        off += n
        return chunk

    if bytes(take(4)) != MAGIC:
        raise CheckpointError(f"{path}: not a {MAGIC.decode()} container (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported container version {version}")
    (meta_len,) = struct.unpack("<Q", take(8))
    try:
        meta = json.loads(bytes(take(meta_len)).decode("utf-8"))
    except ValueError as e:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path}: unreadable metadata: {e}") from e
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: tensor name is not UTF-8") from e
        (dtype_len,) = struct.unpack("<B", take(1))
        tag = bytes(take(dtype_len))
        # numpy raises SyntaxError on some malformed tags, such as "(1,"
        try:
            dtype = np.dtype(tag.decode("ascii"))
        except (TypeError, ValueError, SyntaxError) as e:
            raise CheckpointError(
                f"{path}: tensor {name}: unknown dtype {tag!r}"
            ) from e
        if dtype.kind not in _NUMERIC_KINDS:
            raise CheckpointError(f"{path}: tensor {name}: unsupported dtype {dtype}")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim)) if ndim else ()
        (payload_len,) = struct.unpack("<Q", take(8))
        if payload_len != math.prod(shape) * dtype.itemsize:
            raise CheckpointError(
                f"{path}: tensor {name}: {payload_len} payload bytes do not fit "
                f"{dtype} {shape}"
            )
        try:
            arr = np.frombuffer(take(payload_len), dtype=dtype).reshape(shape)
        except ValueError as e:  # more than 64 dims, or a dim past intp
            raise CheckpointError(f"{path}: tensor {name}: bad shape {shape}") from e
        if name in tensors:
            raise CheckpointError(f"{path}: tensor {name} appears twice")
        tensors[name] = arr.copy()
    if off != len(view):
        raise CheckpointError(f"{path}: {len(view) - off} trailing bytes")
    return tensors, meta

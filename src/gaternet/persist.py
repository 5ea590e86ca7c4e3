"""Atomic file writes and the named-tensor container that holds both
training checkpoints and gate logs.

A container is a single binary file: magic, version, a canonical-JSON
metadata block, then each array as (name, dtype tag, shape, little-endian
payload). Serialization is exact, so save -> load -> forward reproduces
outputs bit for bit. All writes in this package go through a temp file in
the target directory followed by os.replace, so readers never observe a
half-written file.

CSV files are formatted a column at a time and never quoted: %d and %.8e
columns in numpy, as fixed-width byte blocks padded with 0xFF (a byte
UTF-8 never produces) and dropped after the blocks are joined; %s
columns value by value.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import secrets
import struct
from pathlib import Path

import numpy as np

MAGIC = b"GNCP"
VERSION = 1
# A numeric dtype as dtype.str spells it: byte order, kind (bool, signed,
# unsigned, float, complex) and item size. Only such tags reach np.dtype,
# which would also parse structured forms and aliases, some deprecated.
_DTYPE_TAG = re.compile(rb"[<>|=][biufc][0-9]{1,2}")


class CheckpointError(RuntimeError):
    """Unreadable, truncated, or incompatible checkpoint."""


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write payload to <name>.<random>.tmp beside path, then rename it over
    path. The temp file is created with mode 0o666, which the umask trims
    as it does for open(path, "w"), so the target gets the permissions a
    plain write would give it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.with_name(f"{path.name}.{secrets.token_hex(4)}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# A write_csv field spec: the three %-conversions a CSV column may use.
_FIELD_SPECS = ("%d", "%.8e", "%s")
# Pads every formatted field to its column's width; UTF-8 never produces
# this byte, so the padding is dropped from the joined text by value.
_PAD = 0xFF
# _DIGITS4[i] is i as four ASCII digits, "0000" to "9999", packed in one
# little-endian uint32, so a uint8 view of gathered words reads in order.
_DIGITS4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10_000)), "<u4")
# 10**k for k <= 22, each exact in float64, so one multiply or divide by it
# rounds the scaled value once.
_POW10 = np.array([float(10**k) for k in range(23)])
_E8_WIDTH = 16  # "-d.dddddddde-ddd"


def _word(text: bytes) -> int:
    """Four bytes as the little-endian uint32 that views back to them."""
    return int.from_bytes(text, "little")


def _text_block(fields: list[str], width: int | None = None) -> np.ndarray:
    """uint8 [len(fields), width]: each field's UTF-8 bytes, left-aligned
    and padded with _PAD; width defaults to the longest field."""
    encoded = [f.encode("utf-8") for f in fields]
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    if width is None:
        width = int(lengths.max(initial=0))
    block = np.full((len(encoded), width), _PAD, dtype=np.uint8)
    # a boolean mask assigns in row-major order, the order of the joined bytes
    block[np.arange(width) < lengths[:, None]] = np.frombuffer(
        b"".join(encoded), dtype=np.uint8)
    return block


def _int_block(column) -> np.ndarray:
    """'%d' % v for each v of an integer array, as a padded uint8 block."""
    v = np.asarray(column)
    if v.dtype.kind not in "iu":
        raise ValueError(f"%d needs an integer column, got dtype {v.dtype}")
    neg = v < 0
    u = v.astype(np.uint64)
    np.negative(u, out=u, where=neg)  # |v|, wrapping, so exact for int64 min
    width = len(str(int(u.max(initial=0))))
    chunks = -(-width // 4)
    words = np.empty((len(u), 1 + chunks), dtype="<u4")
    words[:, 0] = np.where(neg, _word(b"\xff\xff\xff-"), 0xFFFFFFFF)
    for i in range(chunks, 0, -1):
        u, low = np.divmod(u, 10_000)
        words[:, i] = _DIGITS4[low]
    digits = words.view(np.uint8)[:, 4:]
    leading = np.logical_and.accumulate(digits == ord("0"), axis=1)
    leading[:, -1] = False  # zero itself keeps its one digit
    digits[leading] = _PAD
    return words.view(np.uint8)


def _e8_block(column) -> np.ndarray:
    """'%.8e' % x for each x, as a padded uint8 block [n, 16].

    A value is scaled by 10**k into [1e8, 1e9), where its nine significant
    digits are the integer part rounded to nearest. Values that are zero,
    not finite, need |k| > 22, land outside that range or on a rounding
    tie are formatted by Python instead."""
    x = np.asarray(column, dtype=np.float64)
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        exp = np.floor(np.log10(a))  # -inf at 0, nan at nan: both fail `fast`
    fast = np.abs(8 - exp) <= len(_POW10) - 1
    exp = np.where(fast, exp, 0).astype(np.int64)
    k = 8 - exp
    a = np.where(fast, a, 1e8)
    scaled = np.where(k >= 0, a * _POW10[np.abs(k)], a / _POW10[np.abs(k)])
    whole = np.floor(scaled)
    frac = scaled - whole
    # scaled is the exact a * 10**k rounded once, and every half-integer
    # below 1e9 is a float64, so scaled lies on the same side of each
    # rounding tie as the exact product, unless it lands on the tie itself
    fast &= (scaled >= 1e8) & (scaled < 1e9) & (frac != 0.5)
    m = np.where(fast, whole + (frac > 0.5), 1e8).astype(np.uint32)
    carry = m == 10**9  # 999999999.5 and up round to 1.00000000 at exp + 1
    m[carry] = 10**8
    exp += carry
    lead, rest = np.divmod(m, 10**8)
    # words: "-d.\xff", 4 digits, 4 digits, "e+dd" (|exp| <= 31 here)
    words = np.empty((len(x), 4), dtype="<u4")
    words[:, 0] = (np.where(np.signbit(x), _word(b"-0.\xff"), _word(b"\xff0.\xff"))
                   + (lead << 8))
    words[:, 1] = _DIGITS4[rest // 10_000]
    words[:, 2] = _DIGITS4[rest % 10_000]
    words[:, 3] = ((_DIGITS4[np.abs(exp)] & 0xFFFF0000)
                   + np.where(exp < 0, _word(b"e-\0\0"), _word(b"e+\0\0")))
    block = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if len(slow):
        block[slow] = _text_block(["%.8e" % v for v in x[slow].tolist()],
                                  _E8_WIDTH)
    return block


def write_csv(path: str | Path, header, row_format: str, columns) -> None:
    """The header, then one line per row, each ending in a bare newline,
    written atomically. columns holds one sequence or array per header
    field, all of one length; row_format is the row's %-template, and each
    of its comma-separated specs is %d (integer arrays only), %.8e or %s.

    Each column is formatted once: %d and %.8e in numpy, byte for byte as
    Python's %-operator would, into a uint8 block padded with 0xFF; %s as
    "%s" % v per value. The blocks are joined with comma and newline
    columns and the padding is dropped. Nothing is quoted: a header or %s
    field holding a comma, a double quote or a line break raises
    ValueError naming the path, and nothing is written."""
    specs = row_format.split(",")
    if len(specs) != len(header) or len(columns) != len(header):
        raise ValueError(f"{path}: {len(header)} header fields, {len(specs)} "
                         f"specs in {row_format!r} and {len(columns)} columns")
    unknown = sorted(set(specs) - set(_FIELD_SPECS))
    if unknown:
        raise ValueError(f"{path}: unknown field spec {unknown[0]!r}; "
                         f"write_csv takes {', '.join(_FIELD_SPECS)}")
    n = len(columns[0]) if len(columns) else 0
    texts = list(header)
    blocks = []
    for spec, column in zip(specs, columns):
        if len(column) != n:
            raise ValueError(f"{path}: columns of {n} and {len(column)} rows")
        if spec == "%s":
            fields = ["%s" % (v,) for v in column]
            texts += fields
            blocks.append(_text_block(fields))
        else:
            blocks.append((_int_block if spec == "%d" else _e8_block)(column))
        blocks.append(np.full((n, 1), ord(","), dtype=np.uint8))
    joined = "".join(texts)
    if any(ch in joined for ch in ',"\r\n'):
        raise ValueError(f"{path}: a field holds a comma, a double quote or "
                         f"a line break, which write_csv does not quote")
    body = b""
    if blocks:  # else there are no columns, so no rows
        blocks[-1].fill(ord("\n"))
        table = np.concatenate(blocks, axis=1).ravel()
        body = table[table != _PAD].tobytes()
    atomic_write_bytes(path, (",".join(header) + "\n").encode("utf-8") + body)


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
        if not name.isprintable():  # later messages print it on one line
            raise CheckpointError(f"{path}: tensor name {name!r} is not printable")
        (dtype_len,) = struct.unpack("<B", take(1))
        tag = bytes(take(dtype_len))
        try:
            dtype = np.dtype(tag.decode("ascii")) if _DTYPE_TAG.fullmatch(tag) else None
        except TypeError:  # a size numpy lacks, such as <f3
            dtype = None
        if dtype is None:
            raise CheckpointError(f"{path}: tensor {name}: unsupported dtype {tag!r}")
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

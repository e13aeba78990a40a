"""Binary file formats.

TTE1 (tensorized embedding, version 1), all little-endian:

    magic   4 bytes  b"TTE1"
    kind    u8       0 = TT chain, 1 = TR ring
    dtype   u8       0 = float64 (1 is reserved for float32, rejected)
    n       u16      number of cores
    dims    n x 4*u32  (r_in, i_dim, j_dim, r_out) per core
    vocab   u64      served row count I <= prod(i_dim)
    payload concatenated cores, each row-major over (r_in, i, j, r_out)
            with r_out fastest, float64

DMAT is a bare dense matrix: b"DMAT", dtype u8, rows u64, cols u64,
row-major float64 payload.

Loading checks magic, dtype, rank chain, boundary/closure ranks and the
exact payload length before reading any core, each with its own message;
plan and finiteness violations found while building the model are
reported as FileFormatError too.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .planning import FactorizationPlan
from .trmatrix import TRMatrix
from .ttmatrix import TTMatrix

TT_MAGIC = b"TTE1"
DMAT_MAGIC = b"DMAT"
DTYPE_FLOAT64 = 0


class FileFormatError(ValueError):
    """Malformed or corrupt TTE1/DMAT payload."""


def _take(buf: bytes, offset: int, size: int, what: str):
    if offset + size > len(buf):
        raise FileFormatError(
            f"truncated file: expected {offset + size} bytes for {what}, "
            f"got {len(buf)}"
        )
    return buf[offset : offset + size], offset + size


def save_tt(path, m) -> None:
    """Write a chain (kind 0) or a ring (kind 1, m.closed) losslessly."""
    if not isinstance(m, TTMatrix):
        raise TypeError("expected TTMatrix or TRMatrix")
    parts = [TT_MAGIC, struct.pack("<BBH", int(m.closed), DTYPE_FLOAT64, len(m.cores))]
    for c in m.cores:
        parts.append(struct.pack("<4I", *c.shape))
    parts.append(struct.pack("<Q", m.plan.requested_rows))
    for c in m.cores:
        parts.append(np.ascontiguousarray(c, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_tt(path):
    """Read a TTE1 file back into a TTMatrix or TRMatrix."""
    with open(path, "rb") as fh:
        buf = fh.read()
    raw, off = _take(buf, 0, 4, "magic")
    if raw != TT_MAGIC:
        raise FileFormatError(f"bad magic at offset 0: {raw!r}")
    raw, off = _take(buf, off, 4, "header")
    kind, dtype, n = struct.unpack("<BBH", raw)
    if kind not in (0, 1):
        raise FileFormatError(f"unknown kind byte {kind}")
    if dtype != DTYPE_FLOAT64:
        raise FileFormatError(f"unsupported dtype byte {dtype}")
    if n < 1:
        raise FileFormatError("core count must be >= 1")
    dims = []
    for k in range(n):
        raw, off = _take(buf, off, 16, f"core {k} dims")
        d = struct.unpack("<4I", raw)
        if min(d) < 1:
            raise FileFormatError(f"core {k} has a zero extent")
        dims.append(d)
    raw, off = _take(buf, off, 8, "vocab")
    (vocab,) = struct.unpack("<Q", raw)
    for k in range(n - 1):
        if dims[k][3] != dims[k + 1][0]:
            raise FileFormatError(f"rank chain broken between cores {k} and {k + 1}")
    if kind == 0 and (dims[0][0] != 1 or dims[-1][3] != 1):
        raise FileFormatError("kind 0 requires boundary ranks of 1")
    if kind == 1 and dims[0][0] != dims[-1][3]:
        raise FileFormatError("kind 1 requires matching closure ranks")
    expected = sum(r_in * i * j * r_out for r_in, i, j, r_out in dims) * 8
    if len(buf) - off != expected:
        raise FileFormatError(
            f"payload length mismatch: expected {expected} bytes, "
            f"got {len(buf) - off}"
        )
    cores = []
    for d in dims:
        size = d[0] * d[1] * d[2] * d[3] * 8
        raw, off = _take(buf, off, size, "core payload")
        cores.append(np.frombuffer(raw, dtype="<f8").reshape(d).copy())
    row_factors = tuple(d[1] for d in dims)
    col_factors = tuple(d[2] for d in dims)
    padded = math.prod(row_factors)
    if not 1 <= vocab <= padded:
        raise FileFormatError(f"vocab {vocab} outside [1, {padded}]")
    try:
        plan = FactorizationPlan(
            row_factors=row_factors,
            col_factors=col_factors,
            requested_rows=int(vocab),
            ranks=tuple(d[3] for d in dims[:-1]),
        )
        return (TRMatrix if kind else TTMatrix)(cores=cores, plan=plan)
    except ValueError as exc:  # plan or chain rules the header breaks
        raise FileFormatError(f"invalid model: {exc}") from exc


def save_dmat(path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("DMAT stores matrices only")
    with open(path, "wb") as fh:
        fh.write(DMAT_MAGIC)
        fh.write(struct.pack("<BQQ", DTYPE_FLOAT64, m.shape[0], m.shape[1]))
        fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def load_dmat(path) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    raw, off = _take(buf, 0, 4, "magic")
    if raw != DMAT_MAGIC:
        raise FileFormatError(f"bad magic at offset 0: {raw!r}")
    raw, off = _take(buf, off, 17, "header")
    dtype, rows, cols = struct.unpack("<BQQ", raw)
    if dtype != DTYPE_FLOAT64:
        raise FileFormatError(f"unsupported dtype byte {dtype}")
    expected = rows * cols * 8
    if len(buf) - off != expected:
        raise FileFormatError(
            f"payload length mismatch: expected {expected} bytes, "
            f"got {len(buf) - off}"
        )
    return np.frombuffer(buf[off:], dtype="<f8").reshape(rows, cols).copy()

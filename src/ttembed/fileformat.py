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

Loading reads the header, then checks magic, dtype, rank chain and
boundary/closure ranks, each with its own message.  It checks the exact
payload length against the file's size before it allocates anything the
header sizes, then reads each array straight into its memory.  Plan and
finiteness violations found while building the model are reported as
FileFormatError too.
"""

from __future__ import annotations

import math
import os
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


def _take(fh, size: int, what: str) -> bytes:
    """The next `size` header bytes of fh; fewer raise FileFormatError."""
    raw = fh.read(size)
    if len(raw) != size:
        end = fh.tell()
        raise FileFormatError(
            f"truncated file: expected {end - len(raw) + size} bytes for {what}, "
            f"got {end}"
        )
    return raw


def _payload(fh, shapes) -> list:
    """One C-ordered little-endian float64 array per shape, read from fh
    straight into its memory.  The bytes left in the file must be exactly
    the arrays' total; that is checked against the file's size before any
    array is allocated, so a header claiming a huge payload allocates
    nothing, and again by the reads."""
    expected = sum(math.prod(shape) for shape in shapes) * 8
    got = os.fstat(fh.fileno()).st_size - fh.tell()
    if got == expected:
        arrays = [np.empty(shape, dtype="<f8") for shape in shapes]
        got = sum(fh.readinto(arr) for arr in arrays) + len(fh.read(1))
        if got == expected:
            return arrays
    raise FileFormatError(f"payload length mismatch: expected {expected} bytes, got {got}")


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
        raw = _take(fh, 4, "magic")
        if raw != TT_MAGIC:
            raise FileFormatError(f"bad magic at offset 0: {raw!r}")
        kind, dtype, n = struct.unpack("<BBH", _take(fh, 4, "header"))
        if kind not in (0, 1):
            raise FileFormatError(f"unknown kind byte {kind}")
        if dtype != DTYPE_FLOAT64:
            raise FileFormatError(f"unsupported dtype byte {dtype}")
        if n < 1:
            raise FileFormatError("core count must be >= 1")
        dims = []
        for k in range(n):
            d = struct.unpack("<4I", _take(fh, 16, f"core {k} dims"))
            if min(d) < 1:
                raise FileFormatError(f"core {k} has a zero extent")
            dims.append(d)
        (vocab,) = struct.unpack("<Q", _take(fh, 8, "vocab"))
        for k in range(n - 1):
            if dims[k][3] != dims[k + 1][0]:
                raise FileFormatError(f"rank chain broken between cores {k} and {k + 1}")
        if kind == 0 and (dims[0][0] != 1 or dims[-1][3] != 1):
            raise FileFormatError("kind 0 requires boundary ranks of 1")
        if kind == 1 and dims[0][0] != dims[-1][3]:
            raise FileFormatError("kind 1 requires matching closure ranks")
        cores = _payload(fh, dims)
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
        raw = _take(fh, 4, "magic")
        if raw != DMAT_MAGIC:
            raise FileFormatError(f"bad magic at offset 0: {raw!r}")
        dtype, rows, cols = struct.unpack("<BQQ", _take(fh, 17, "header"))
        if dtype != DTYPE_FLOAT64:
            raise FileFormatError(f"unsupported dtype byte {dtype}")
        (m,) = _payload(fh, [(rows, cols)])
    return m

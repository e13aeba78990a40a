"""Shape errors, the SVD, the R factor and the numerical rank used by
every other module.

The SVD is numpy's LAPACK driver.  A fixed sign convention on top makes
its factors independent of the signs the driver happens to pick.  The R
factor of a tall matrix is a tall-skinny QR by row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "SvdResult",
    "svd",
    "r_factor",
    "numerical_rank",
]

DEFAULT_RANK_TOL = 1e-9
# float64 entries in one row block of r_factor (256 KiB): a block's QR
# runs from cache, where one QR of a tall matrix streams it from memory
QR_BLOCK_ENTRIES = 1 << 15


class ShapeError(ValueError):
    """Dimension bookkeeping violation (mismatched sizes, bad axes...)."""


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``m = u @ diag(s) @ vt`` with orthonormal u-columns/vt-rows."""

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray


def _matrix(m, what: str) -> np.ndarray:
    """m as a finite float64 matrix; otherwise an error naming `what`."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{what} expects a matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} input contains non-finite entries")
    return m


def svd(m: np.ndarray) -> SvdResult:
    """Thin SVD by LAPACK (``np.linalg.svd(full_matrices=False)``).

    Singular values come in descending order.  Deterministic sign
    convention: the largest-magnitude entry of every u-column is made
    positive, and the matching vt-row is flipped with it.
    """
    u, s, vt = np.linalg.svd(_matrix(m, "svd"), full_matrices=False)
    if u.size == 0:
        return SvdResult(u=u, singular_values=s, vt=vt)  # no column to sign
    piv = np.argmax(np.abs(u), axis=0)
    flip = u[piv, np.arange(u.shape[1])] < 0.0
    u[:, flip] *= -1.0
    vt[flip, :] *= -1.0
    return SvdResult(u=u, singular_values=s, vt=vt)


def r_factor(a: np.ndarray) -> np.ndarray:
    """R of ``a = QR`` (``np.linalg.qr(a, mode="r")``), so that
    ``R^T R = a^T a``; R has ``min(rows, cols)`` rows and forms no Q.

    Tall-skinny QR by row blocks (Demmel, Grigori, Hoemmen and Langou,
    SIAM J. Sci. Comput. 34(1), 2012): QR each block of rows, stack the
    blocks' R factors and repeat until one block is left.  A block holds
    about QR_BLOCK_ENTRIES entries and at least ``2 * cols`` rows, so
    every round at least halves the rows of each full block.  R may
    differ from the unblocked one by the sign of each row and by
    rounding.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError("r_factor expects a matrix")
    cols = a.shape[1]
    block = max(QR_BLOCK_ENTRIES // max(cols, 1), 2 * cols)
    while a.shape[0] > block:
        a = np.concatenate(
            [np.linalg.qr(a[i : i + block], mode="r") for i in range(0, a.shape[0], block)]
        )
    return np.linalg.qr(a, mode="r")


def numerical_rank(m: np.ndarray, tol_factor: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above tol_factor * sigma_max * max(rows, cols)."""
    if not 0.0 < tol_factor < np.inf:
        raise ValueError(f"tol_factor must be positive and finite, got {tol_factor!r}")
    m = _matrix(m, "numerical_rank")
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    thresh = tol_factor * s[0] * max(m.shape)
    return int(np.count_nonzero(s > thresh))

"""Dense tensor/matrix kernels used by every other module.

Index convention: column-major, i.e. the *first* index varies fastest.
All reshapes in this package go through :func:`reshape` (or pass
``order="F"`` to numpy directly) so that reinterpreting dimensions never
reorders the underlying flat data.  Serialization converts to row-major
at the file boundary (see :mod:`ttembed.fileformat`).

The SVD is numpy's LAPACK driver.  A fixed sign convention on top makes
its factors independent of the signs the driver happens to pick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "SvdResult",
    "reshape",
    "svd",
    "numerical_rank",
]

DEFAULT_RANK_TOL = 1e-9


class ShapeError(ValueError):
    """Dimension bookkeeping violation (mismatched sizes, bad axes...)."""


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``m = u @ diag(s) @ vt`` with orthonormal u-columns/vt-rows."""

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray


def reshape(t: np.ndarray, new_dims) -> np.ndarray:
    """Reinterpret dims of `t` without reordering its column-major data."""
    new_dims = tuple(int(d) for d in new_dims)
    if any(d <= 0 for d in new_dims):
        raise ShapeError(f"non-positive extent in {new_dims}")
    if int(np.prod(new_dims, dtype=np.int64)) != t.size:
        raise ShapeError(f"cannot reshape size {t.size} into {new_dims}")
    return np.reshape(t, new_dims, order="F")


def svd(m: np.ndarray) -> SvdResult:
    """Thin SVD by LAPACK (``np.linalg.svd(full_matrices=False)``).

    Singular values come in descending order.  Deterministic sign
    convention: the largest-magnitude entry of every u-column is made
    positive, and the matching vt-row is flipped with it.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError("svd expects a matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("svd input contains non-finite entries")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if u.size == 0:
        return SvdResult(u=u, singular_values=s, vt=vt)  # no column to sign
    piv = np.argmax(np.abs(u), axis=0)
    flip = u[piv, np.arange(u.shape[1])] < 0.0
    u[:, flip] *= -1.0
    vt[flip, :] *= -1.0
    return SvdResult(u=u, singular_values=s, vt=vt)


def numerical_rank(m: np.ndarray, tol_factor: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above tol_factor * sigma_max * max(rows, cols)."""
    if tol_factor <= 0.0:
        raise ValueError("tol_factor must be positive")
    s = svd(m).singular_values
    if s.size == 0 or s[0] == 0.0:
        return 0
    thresh = tol_factor * s[0] * max(m.shape)
    return int(np.count_nonzero(s > thresh))

"""Shape errors, the SVD and the numerical rank used by every other module.

The SVD is numpy's LAPACK driver.  A fixed sign convention on top makes
its factors independent of the signs the driver happens to pick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "SvdResult",
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

"""Tensor-train representation of a (padded_rows x cols) matrix.

A TTMatrix is a chain of 4-way cores G^(k) of shape
(R_{k-1}, I_k, J_k, R_k) with R_0 = R_N = 1.  Entry (i, j) of the
represented matrix is the chain product of the slices G^(k)[:, i_k, j_k, :]
where (i_1..i_N) and (j_1..j_N) are the mixed-radix digits of i and j
(first digit fastest).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from math import prod

import numpy as np

from .indexing import MixedRadix
from .linalg import ShapeError, svd
from .planning import FactorizationPlan

DEFAULT_MATERIALIZE_CAP = 1 << 24
MATERIALIZE_CAP_ENV = "TTEMBED_MATERIALIZE_CAP"
TT_SVD_TRUNCATION_TOL = 1e-12
KERNEL_BLOCK = 1 << 17  # entries of a row block's largest intermediates


def materialize_cap() -> int:
    """Entry budget for materialize(); overridable via environment."""
    raw = os.environ.get(MATERIALIZE_CAP_ENV)
    try:
        return int(raw) if raw else DEFAULT_MATERIALIZE_CAP
    except ValueError:
        raise ValueError(
            f"{MATERIALIZE_CAP_ENV} must be an integer entry count, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class CompressionStats:
    tt_params: int
    dense_params: int
    ratio: float
    tied_ratio: float

    @classmethod
    def from_counts(cls, tt_params: int, dense_params: int) -> "CompressionStats":
        ratio = dense_params / tt_params  # int / int is correctly rounded
        return cls(tt_params, dense_params, ratio, dense_params / (2 * tt_params))


def _validate_chain(cores, plan: FactorizationPlan, ring: bool) -> None:
    if len(cores) != plan.n_cores:
        raise ShapeError(f"expected {plan.n_cores} cores, got {len(cores)}")
    for k, c in enumerate(cores):
        if c.ndim != 4:
            raise ShapeError(f"core {k} is not 4-way")
        if c.shape[1] != plan.row_factors[k] or c.shape[2] != plan.col_factors[k]:
            raise ShapeError(
                f"core {k} mode dims {c.shape[1:3]} disagree with plan "
                f"({plan.row_factors[k]}, {plan.col_factors[k]})"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError(f"core {k} contains non-finite entries")
    for k, r in enumerate(plan.ranks):
        if cores[k].shape[3] != r or cores[k + 1].shape[0] != r:
            raise ShapeError(f"bond {k} between cores {k} and {k + 1} is not plan rank {r}")
    first, last = cores[0].shape[0], cores[-1].shape[3]
    if ring:
        if first != last:
            raise ShapeError(f"ring closure violated: R_0={first}, R_N={last}")
    elif first != 1 or last != 1:
        raise ShapeError(f"boundary ranks must be 1, got {first} and {last}")


class TTMatrix:
    """Cores plus plan.  TRMatrix closes the chain into a ring; a chain is
    the ring with closure rank c = R_0 = R_N = 1, so one kernel serves both."""

    closed = False  # True on TRMatrix: R_0 == R_N may exceed 1

    def __init__(self, cores, plan: FactorizationPlan):
        self.cores = [np.asarray(c, dtype=np.float64) for c in cores]
        self.plan = plan
        _validate_chain(self.cores, plan, ring=self.closed)

    @property
    def bond_ranks(self) -> tuple:
        """Ranks R_1..R_{N-1} of the chain; the cores match plan.ranks."""
        return tuple(c.shape[3] for c in self.cores[:-1])

    @property
    def ring_rank(self) -> int:
        return self.cores[0].shape[0]

    @property
    def shape(self) -> tuple:
        return (self.plan.padded_rows, self.plan.cols)

    def element(self, i: int, j: int) -> float:
        """Entry (i, j): trace of the product of the core slices."""
        ii = MixedRadix(self.plan.row_factors).to_multi(i)
        jj = MixedRadix(self.plan.col_factors).to_multi(j)
        acc = self.cores[0][:, ii[0], jj[0], :]
        for k in range(1, len(self.cores)):
            acc = acc @ self.cores[k][:, ii[k], jj[k], :]
        return float(np.trace(acc))

    def _blocks(self, indices):
        """Yield (rows, their digits) for blocks of the rows at `indices`
        whose intermediates, about c * R_{k-1} * J_k * R_k entries a row,
        stay small enough for the allocator to reuse."""
        digits = MixedRadix(self.plan.row_factors).to_multi(np.ravel(indices))
        per_row = self.ring_rank * max(c.size // c.shape[1] for c in self.cores)
        step = max(1, KERNEL_BLOCK // per_row)
        for s in range(0, digits[0].size, step):
            yield slice(s, s + step), [x[s : s + step] for x in digits]

    def _slices(self, k: int, digits) -> np.ndarray:
        """Core k's slices at the rows' digits: (B, R_{k-1}, J_k, R_k)."""
        return np.take(self.cores[k], digits[k], axis=1).transpose(1, 0, 2, 3)

    def _prefixes(self, digits):
        """Yield the products of each row's first k = 0..N-1 slices,
        (B, c * J_1..J_k, R_k) with c slowest and J_1 fastest.  A row's
        result does not depend on the other rows of its block."""
        b, c = digits[0].size, self.ring_rank
        acc = np.broadcast_to(np.eye(c), (b, c, c))
        for k in range(len(self.cores) - 1):
            yield acc
            g = self._slices(k, digits)
            r, jk, rk = g.shape[1:]
            p = acc.shape[1] // c
            nxt = (acc @ g.reshape(b, r, jk * rk)).reshape(b, c, p, jk, rk)
            acc = nxt.transpose(0, 1, 3, 2, 4).reshape(b, c * jk * p, rk)
        yield acc

    def rows(self, indices) -> np.ndarray:
        """Rows at an index array, (B, cols), one batched matmul per core.
        The last also contracts c, which takes the trace."""
        c = self.ring_rank
        out = np.empty((np.size(indices), self.plan.cols))
        for blk, d in self._blocks(indices):
            for acc in self._prefixes(d):
                pass
            g = self._slices(-1, d)  # (B, R_{N-1}, J_N, c)
            b, r, jn = g.shape[:3]
            p = acc.shape[1] // c
            acc = acc.reshape(b, c, p, r).transpose(0, 2, 1, 3).reshape(b, p, c * r)
            acc = acc @ g.transpose(0, 3, 1, 2).reshape(b, c * r, jn)
            out[blk] = acc.transpose(0, 2, 1).reshape(b, jn * p)
        return out

    def row(self, i: int) -> np.ndarray:
        """Row i; output entry j has j_1 fastest."""
        return self.rows([i])[0]

    def row_grads(self, indices, upstream) -> list:
        """Gradient of sum_b <upstream[b], rows(indices)[b]> w.r.t. each core.
        Row b's core-k gradient contracts its prefix, its upstream viewed as
        (suffix cols, J_k, prefix cols) and its suffix; a one-hot matmul
        sums the rows by digit i_k."""
        c = self.ring_rank
        upstream = np.asarray(upstream, dtype=np.float64)
        grads = [np.zeros_like(x) for x in self.cores]
        for blk, d in self._blocks(indices):
            u = upstream[blk]
            b = u.shape[0]
            left = list(self._prefixes(d))
            right = np.broadcast_to(np.eye(c), (b, c, c))  # (B, c * J_{k+1}..J_N, R_k)
            for k in reversed(range(len(self.cores))):
                a, _, jk, rk = self.cores[k].shape
                lk = left.pop()
                p, q = lk.shape[1] // c, right.shape[1] // c
                if k:
                    t = u.reshape(b, 1, q * jk, p) @ lk.reshape(b, c, p, a)
                    g = right.transpose(0, 2, 1) @ t.reshape(b, c * q, jk * a)
                else:  # the prefix is the identity: skip the (c, cols, c) product
                    g = right.reshape(b, c, q, rk).transpose(0, 1, 3, 2) @ u.reshape(b, 1, q, jk)
                    g = g.transpose(0, 2, 3, 1)
                vals, inv = np.unique(d[k], return_inverse=True)
                g = (np.arange(vals.size)[:, None] == inv) @ g.reshape(b, rk * jk * a)
                grads[k][:, vals] += g.reshape(-1, rk, jk, a).transpose(3, 0, 2, 1)
                if k:
                    s = self._slices(k, d).reshape(b, a * jk, rk)
                    right = (right @ s.transpose(0, 2, 1)).reshape(b, c, q, a, jk)
                    right = right.transpose(0, 1, 2, 4, 3).reshape(b, c * q * jk, a)
        return grads

    def materialize(self, cap: int | None = None) -> np.ndarray:
        """Full dense (padded_rows x cols) matrix; guarded by an entry cap.
        A chain contracts whole cores into an F-ordered result; a ring runs
        the row kernel.  rows(arange) would give a chain the same entries,
        but C-ordered, which moves the low-order bits of reductions that
        callers run on the result."""
        cap = materialize_cap() if cap is None else cap
        rows, cols = self.shape
        if rows * cols > cap:
            raise MemoryError(
                f"materialize of {rows}x{cols} exceeds cap of {cap} entries"
            )
        if self.ring_rank > 1:
            return self.rows(np.arange(rows))
        acc = self.cores[0][0]  # (I_1, J_1, R_1)
        for core in self.cores[1:]:
            acc = np.tensordot(acc, core, axes=([-1], [0]))
        acc = acc[..., 0]  # dims (I_1, J_1, ..., I_N, J_N)
        n = len(self.cores)
        perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        return np.transpose(acc, perm).reshape((rows, cols), order="F")

    def stats(self) -> CompressionStats:
        return CompressionStats.from_counts(
            sum(c.size for c in self.cores), self.plan.padded_rows * self.plan.cols
        )


def _random_cores(plan: FactorizationPlan, ring_rank: int, std: float, seed: int) -> list:
    """Cores with i.i.d. Normal(0, std^2) entries from a seeded generator,
    drawn core by core, and boundary ranks R_0 = R_N = ring_rank."""
    if not std > 0.0:
        raise ValueError("std must be positive")
    if ring_rank < 1:
        raise ValueError("ring_rank must be >= 1")
    rng = np.random.default_rng(seed)
    ranks = (ring_rank,) + plan.ranks + (ring_rank,)
    return [
        rng.normal(0.0, std, size=(ranks[k], plan.row_factors[k], plan.col_factors[k], ranks[k + 1]))
        for k in range(plan.n_cores)
    ]


def random_tt(plan: FactorizationPlan, std: float, seed: int) -> TTMatrix:
    """Cores with i.i.d. Normal(0, std^2) entries from a seeded generator."""
    return TTMatrix(cores=_random_cores(plan, 1, std, seed), plan=plan)


def glorot_tt(plan: FactorizationPlan, seed: int, std: float | None = None) -> TTMatrix:
    """Variance-calibrated init: materialized entries have variance std^2.

    Default std is the Glorot target sqrt(2 / (padded_rows + cols)).  The
    product of a chain of independent cores has entry variance
    (per-core variance)^N * prod(ranks), so each core gets the N-th root
    of std^2 / prod(ranks).
    """
    if std is None:
        std = float(np.sqrt(2.0 / (plan.padded_rows + plan.cols)))
    if not std > 0.0:
        raise ValueError("std must be positive")
    big_sigma_sq = float(prod(plan.ranks))
    core_std = (std**2 / big_sigma_sq) ** (1.0 / (2 * plan.n_cores))
    return random_tt(plan, core_std, seed)


def delta_identity_tt(plan: FactorizationPlan) -> TTMatrix:
    """Rank-1 chain of Kronecker-delta cores; materializes to the
    rectangular identity, which has maximal matrix rank."""
    cores = []
    for ik, jk in zip(plan.row_factors, plan.col_factors):
        c = np.zeros((1, ik, jk, 1))
        d = min(ik, jk)
        c[0, range(d), range(d), 0] = 1.0
        cores.append(c)
    return TTMatrix(cores=cores, plan=replace(plan, ranks=(1,) * (plan.n_cores - 1)))


def tt_svd(dense: np.ndarray, plan: FactorizationPlan) -> TTMatrix:
    """Compress a dense (padded_rows x cols) matrix by sequential
    truncated SVDs; ranks are capped at plan.ranks and at the numerical
    rank of each unfolding (tiny singular values are always dropped).
    The result's plan carries the ranks kept."""
    dense = np.asarray(dense, dtype=np.float64)
    n = plan.n_cores
    if dense.shape != (plan.padded_rows, plan.cols):
        raise ShapeError(
            f"matrix shape {dense.shape} disagrees with plan "
            f"({plan.padded_rows}, {plan.cols})"
        )
    t = dense.reshape(plan.row_factors + plan.col_factors, order="F")
    interleave = [ax for k in range(n) for ax in (k, n + k)]
    rest = np.transpose(t, interleave)
    cores = []
    r = 1
    for k in range(n - 1):
        ik, jk = plan.row_factors[k], plan.col_factors[k]
        mat = rest.reshape((r * ik * jk, -1), order="F")
        res = svd(mat)
        smax = res.singular_values[0] if res.singular_values.size else 0.0
        thresh = TT_SVD_TRUNCATION_TOL * smax * max(mat.shape)
        nrank = int(np.count_nonzero(res.singular_values > thresh))
        if nrank == 0:  # zero unfolding: keep the chain alive with zero cores
            cores.append(np.zeros((r, ik, jk, 1)))
            rest = np.zeros((1, mat.shape[1]))
            r = 1
            continue
        rank = min(plan.ranks[k], nrank)
        cores.append(res.u[:, :rank].reshape((r, ik, jk, rank), order="F"))
        rest = res.singular_values[:rank, None] * res.vt[:rank, :]
        r = rank
    cores.append(rest.reshape((r, plan.row_factors[-1], plan.col_factors[-1], 1), order="F"))
    kept = tuple(c.shape[3] for c in cores[:-1])
    return TTMatrix(cores=cores, plan=replace(plan, ranks=kept))

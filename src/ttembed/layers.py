"""Trainable embedding layers.

Both layers start backward from the batch's distinct rows and each
row's summed upstream.  backward returns one gradient per parameter, as
a list in the order of parameters(), which apply_gradients takes.

TTEmbedding serves a batch from TT or TR weights (TT is the ring with
closure rank 1) through their batched chain kernel.  forward contracts
the distinct rows of the batch; backward lets the kernel build prefix
and suffix products for all distinct rows at once and add each row's
gradient into every core.

LowRankEmbedding is the U V^T baseline the TT layer is compared against.
"""

from __future__ import annotations

import numpy as np

from .linalg import ShapeError
from .planning import _as_int, _as_int_array
from .ttmatrix import TTMatrix


class _Layer:
    """Checks and the SGD step shared by the embedding layers."""

    def _check_indices(self, indices) -> np.ndarray:
        idx = _as_int_array(indices, "indices").ravel()
        if idx.size and (idx.min() < 0 or idx.max() >= self.vocab):
            raise IndexError(f"index outside vocabulary [0, {self.vocab})")
        return idx

    def _summed_upstream(self, indices, upstream):
        """The batch's distinct rows, sorted, and each row's summed upstream."""
        idx = self._check_indices(indices)
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != (idx.size, self.dim):
            raise ShapeError(
                f"upstream shape {upstream.shape} != ({idx.size}, {self.dim})"
            )
        rows, inverse = np.unique(idx, return_inverse=True)
        # sum the upstream of repeated rows: bin (row, column) pairs
        bins = (inverse[:, None] * self.dim + np.arange(self.dim)).ravel()
        summed = np.bincount(bins, upstream.ravel(), rows.size * self.dim)
        return rows, summed.reshape(rows.size, self.dim)

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def apply_gradients(self, grads, step: float) -> None:
        """In-place SGD step: parameter -= step * grad, with grads listed
        in the order of parameters()."""
        if not np.isfinite(step):
            raise ValueError("step must be finite")
        params = self.parameters()
        if [p.shape for p in params] != [g.shape for g in grads]:
            raise ShapeError("gradients do not match the parameters")
        for p, g in zip(params, grads):
            p -= step * g


class TTEmbedding(_Layer):
    """Embedding layer over TT or TR weights; serves rows [0, vocab)."""

    def __init__(self, weights, vocab: int | None = None):
        if not isinstance(weights, TTMatrix):
            raise TypeError("weights must be a TTMatrix or TRMatrix")
        self.weights = weights
        self.vocab = weights.plan.requested_rows if vocab is None else _as_int(vocab, "vocab")
        if not 1 <= self.vocab <= weights.plan.padded_rows:
            raise ShapeError(
                f"vocab {self.vocab} exceeds padded capacity {weights.plan.padded_rows}"
            )

    @property
    def dim(self) -> int:
        return self.weights.plan.cols

    def parameters(self) -> list:
        return self.weights.cores

    def forward(self, indices) -> np.ndarray:
        rows, inverse = np.unique(self._check_indices(indices), return_inverse=True)
        return self.weights.rows(rows)[inverse]

    def backward(self, indices, upstream) -> list:
        """Gradients of sum_b <upstream[b], forward(indices)[b]>, one per core."""
        rows, summed = self._summed_upstream(indices, upstream)
        return self.weights.row_grads(rows, summed)


class LowRankEmbedding(_Layer):
    """Baseline E = U V^T with U (I x D) and V (J x D)."""

    def __init__(self, u: np.ndarray, v: np.ndarray):
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
            raise ShapeError("U and V must be matrices with a shared inner dim")
        self.u = u
        self.v = v
        self.vocab = u.shape[0]

    @property
    def dim(self) -> int:
        return self.v.shape[0]

    def parameters(self) -> list:
        return [self.u, self.v]

    def materialize(self) -> np.ndarray:
        return self.u @ self.v.T

    def forward(self, indices) -> np.ndarray:
        idx = self._check_indices(indices)
        return self.u[idx] @ self.v.T

    def backward(self, indices, upstream) -> list:
        """Gradients of sum_b <upstream[b], forward(indices)[b]>: [dU, dV]."""
        rows, summed = self._summed_upstream(indices, upstream)
        du = np.zeros_like(self.u)
        du[rows] = summed @ self.v
        return [du, summed.T @ self.u[rows]]


def random_lowrank(vocab: int, dim: int, d: int, std: float, seed: int) -> LowRankEmbedding:
    rng = np.random.default_rng(seed)
    return LowRankEmbedding(
        u=rng.normal(0.0, std, size=(vocab, d)),
        v=rng.normal(0.0, std, size=(dim, d)),
    )

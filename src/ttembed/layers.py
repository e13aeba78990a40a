"""Trainable embedding layers.

Both layers start backward from the batch's distinct rows and each
row's summed upstream.  backward returns one gradient per parameter, as
a list in the order of parameters(), which apply_gradients takes.

TTEmbedding serves a batch from TT or TR weights (TT is the ring with
closure rank 1) through their batched chain kernel.  forward contracts
the distinct rows of the batch; backward runs the kernel's products in
reverse for all distinct rows at once, from the last core to the
first, and sums each core's gradient by the rows' digits.

forward hands the kernel a one-batch tape: what the chain kernel built
for the batch's distinct rows as one block (digits and prefixes), and a
workspace for both passes' temporaries, in buffers reused from step to
step, so in a steady step the kernel allocates no batch-sized
temporary.  backward hands the same tape to row_grads, which starts
from it only when it holds these distinct rows and the cores' values
now, and otherwise recomputes, with bitwise the same result
(TTMatrix.row_grads owns that rule), whatever wrote to the cores in
between.

LowRankEmbedding is the U V^T baseline the TT layer is compared against.
"""

from __future__ import annotations

import numpy as np

from .linalg import ShapeError
from .planning import _as_int, _as_int_array, _positive_finite
from .ttmatrix import Tape, TTMatrix


class _Layer:
    """Checks and the SGD step shared by the embedding layers."""

    def _check_indices(self, indices) -> np.ndarray:
        idx = _as_int_array(indices, "indices").ravel()
        bad = (idx < 0) | (idx >= self.vocab)
        if bad.any():
            raise IndexError(f"index {idx[bad][0]} outside vocabulary [0, {self.vocab})")
        return idx

    def _summed_upstream(self, idx, upstream):
        """The batch's distinct rows, sorted, and each row's summed upstream."""
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
        self._tape = Tape()

    @property
    def dim(self) -> int:
        return self.weights.plan.cols

    def parameters(self) -> list:
        return self.weights.cores

    def materialize(self) -> np.ndarray:
        return self.weights.materialize()[: self.vocab]

    def forward(self, indices) -> np.ndarray:
        idx = self._check_indices(indices)
        rows, inverse = np.unique(idx, return_inverse=True)
        return self.weights.rows(rows, self._tape)[inverse]

    def backward(self, indices, upstream) -> list:
        """Gradients of sum_b <upstream[b], forward(indices)[b]>, one per core.

        It starts from forward's tape when that served the same distinct
        rows from cores of the values held now; otherwise it recomputes,
        with the same bits."""
        rows, summed = self._summed_upstream(self._check_indices(indices), upstream)
        return self.weights.row_grads(rows, summed, self._tape)


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
        rows, summed = self._summed_upstream(self._check_indices(indices), upstream)
        du = np.zeros_like(self.u)
        du[rows] = summed @ self.v
        return [du, summed.T @ self.u[rows]]


def random_lowrank(vocab: int, dim: int, d: int, std: float, seed: int) -> LowRankEmbedding:
    _positive_finite(std, "std")
    rng = np.random.default_rng(seed)
    return LowRankEmbedding(
        u=rng.normal(0.0, std, size=(vocab, d)),
        v=rng.normal(0.0, std, size=(dim, d)),
    )

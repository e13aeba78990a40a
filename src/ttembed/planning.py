"""Automatic selection of TT-shapes.

Given a vocabulary size I and embedding size J, pick factorizations
I_1 * ... * I_N >= I (padding allowed on the row side) and
J_1 * ... * J_N == J (exact) with the factors as balanced as possible.
"Balanced" is max(factors) - min(factors); ties are broken by the
smaller (padded) product, then the lexicographically smallest factor
tuple, so the planner is fully deterministic.  The search is exhaustive
over candidate products in [size, size * 1.2], which is cheap at the
sizes this package targets and makes optimality directly testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import prod

from .linalg import ShapeError

PAD_SLACK = 0.2


@dataclass(frozen=True)
class FactorizationPlan:
    row_factors: tuple
    col_factors: tuple
    requested_rows: int
    ranks: tuple

    def __post_init__(self):
        rows = tuple(int(f) for f in self.row_factors)
        cols = tuple(int(f) for f in self.col_factors)
        ranks = tuple(int(r) for r in self.ranks)
        object.__setattr__(self, "row_factors", rows)
        object.__setattr__(self, "col_factors", cols)
        object.__setattr__(self, "ranks", ranks)
        n = len(rows)
        if n == 0 or len(cols) != n:
            raise ShapeError("row and column factor lists must be equal, non-empty")
        if len(ranks) != n - 1:
            raise ShapeError(f"need {n - 1} ranks for {n} cores, got {len(ranks)}")
        if n >= 2 and (min(rows) < 2 or min(cols) < 2):
            raise ShapeError("degenerate 1-factors are only allowed when N == 1")
        if any(r < 1 for r in ranks):
            raise ShapeError("ranks must be >= 1")
        if not 1 <= self.requested_rows <= prod(rows):
            raise ShapeError(
                f"requested rows {self.requested_rows} exceeds capacity {prod(rows)}"
            )

    @property
    def n_cores(self) -> int:
        return len(self.row_factors)

    @property
    def padded_rows(self) -> int:
        return prod(self.row_factors)

    @property
    def cols(self) -> int:
        return prod(self.col_factors)

    @property
    def parameter_count(self) -> int:
        """Core entries at the planned ranks: sum of R_{k-1} I_k J_k R_k."""
        r = (1,) + self.ranks + (1,)
        return sum(
            r[k] * i * j * r[k + 1]
            for k, (i, j) in enumerate(zip(self.row_factors, self.col_factors))
        )


def _factorizations(s: int, n: int, lo: int):
    """Ascending n-tuples of factors >= lo with product exactly s."""
    if n == 1:
        if s >= lo:
            yield (s,)
        return
    f = lo
    while f**n <= s:
        if s % f == 0:
            for rest in _factorizations(s // f, n - 1, f):
                yield (f,) + rest
        f += 1


def _best_exact(s: int, n: int):
    lo = 1 if n == 1 else 2
    best = None
    for cand in _factorizations(s, n, lo):
        key = (cand[-1] - cand[0], cand)
        if best is None or key < best:
            best = key
    return None if best is None else best[1]


def factorize_balanced(size: int, n: int, allow_padding: bool = False) -> tuple:
    """n near-equal factors with product == size (or >= size when padding)."""
    size, n = int(size), int(n)
    if size < 1 or n < 1:
        raise ShapeError("size and n must be >= 1")
    hi = math.ceil(size * (1.0 + PAD_SLACK)) if allow_padding else size
    best = None
    for s in range(size, hi + 1):
        cand = _best_exact(s, n)
        if cand is None:
            continue
        key = (cand[-1] - cand[0], s, cand)
        if best is None or key < best:
            best = key
        if best[0] == 0:
            break  # imbalance 0 at the smallest product so far is optimal
    if best is None:
        what = f"[{size}, {hi}]" if allow_padding else str(size)
        raise ShapeError(f"no {n}-way factorization with factors >= 2 in {what}")
    return best[2]


def plan_embedding(vocab: int, dim: int, n: int, ranks) -> FactorizationPlan:
    """Plan a TT-embedding: balanced row/col factors plus broadcast ranks."""
    vocab, dim, n = int(vocab), int(dim), int(n)
    if vocab < 1:
        raise ShapeError("vocab must be >= 1")
    try:
        col_factors = factorize_balanced(dim, n, allow_padding=False)
    except ShapeError as exc:
        raise ShapeError(f"embedding dim {dim} does not factor into {n} parts >= 2") from exc
    row_factors = factorize_balanced(vocab, n, allow_padding=True)
    if isinstance(ranks, int):
        ranks = (ranks,) * (n - 1)
    return FactorizationPlan(
        row_factors=row_factors,
        col_factors=col_factors,
        requested_rows=vocab,
        ranks=tuple(ranks),
    )

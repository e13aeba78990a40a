"""Automatic selection of TT-shapes.

Given a vocabulary size I and embedding size J, pick factorizations
I_1 * ... * I_N >= I (padding allowed on the row side) and
J_1 * ... * J_N == J (exact) with the factors as balanced as possible.
"Balanced" is max(factors) - min(factors); ties are broken by the
smaller (padded) product, then the lexicographically smallest factor
tuple, so the planner is fully deterministic.

The search is exact branch and bound over ascending factor tuples whose
product lies in [size, hi], with hi = ceil(size * 1.2) when padding and
hi = size otherwise.  The smallest factor a runs downward from at most
c = ceil(size ** (1/n)): either (c,) * n fits under hi and beats every
tuple with a larger smallest factor, or no such tuple fits.  For each
prefix only the smallest feasible last factor is tried, since it wins
on both spread and product.  Once a tuple with spread d is known, no
other factor may exceed a + d (a tie may still win on product or
tuple).  A prefix is kept only if some multiple of its product lies in
[size, hi] (divisibility when hi == size), and the scan over a stops
when (a + d) ** n < size, as no smaller tuple can reach size.  Every
cut discards only tuples with a larger key, so the result is the
optimum of the full enumeration, which the tests check against a
brute-force oracle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from math import prod

import numpy as np

from .linalg import ShapeError

PAD_SLACK = 0.2


def _as_int(value, what: str) -> int:
    """value as an int; a non-integral value (4.5, 4.0, "4") raises a
    TypeError naming `what` instead of being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} {value!r} is not an integer") from None


def _as_int_array(values, what: str) -> np.ndarray:
    """values as an int64 array; floats or bools raise a TypeError naming
    `what`, except in an empty sequence, which has no value to truncate."""
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"{what} of dtype {arr.dtype} are not integers")
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class FactorizationPlan:
    row_factors: tuple
    col_factors: tuple
    requested_rows: int
    ranks: tuple

    def __post_init__(self):
        rows = tuple(_as_int(f, "row_factors") for f in self.row_factors)
        cols = tuple(_as_int(f, "col_factors") for f in self.col_factors)
        ranks = tuple(_as_int(r, "ranks") for r in self.ranks)
        requested = _as_int(self.requested_rows, "requested_rows")
        object.__setattr__(self, "row_factors", rows)
        object.__setattr__(self, "col_factors", cols)
        object.__setattr__(self, "requested_rows", requested)
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


def _iroot(x: int, n: int) -> int:
    """floor(x ** (1/n)) for an integer x >= 0; the float guess is
    corrected in exact integer arithmetic."""
    r = int(round(x ** (1.0 / n)))
    while r**n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def _search(size: int, hi: int, n: int):
    """Least key (max - min, product, factors) over ascending n-tuples
    (n >= 2) of factors >= 2 whose product lies in [size, hi], or None."""
    slack = hi - size
    best = None
    spread = hi  # best[0] once a tuple is found; above any spread before

    def extend(factors, p, m):
        # complete the prefix `factors` (product p) with m more factors
        nonlocal best, spread
        a, f = factors[0], factors[-1]
        if m == 1:
            g = max(f, -(-size // p))  # smallest feasible last factor
            if p * g <= hi:
                key = (g - a, p * g, factors + (g,))
                if best is None or key < best:
                    best, spread = key, key[0]
            return
        for f in range(f, _iroot(hi // p, m) + 1):
            if f > a + spread:
                break
            q = p * f
            if -size % q <= slack:  # some multiple of q lies in [size, hi]
                extend(factors + (f,), q, m - 1)

    top = min(_iroot(hi, n), _iroot(size - 1, n) + 1)
    for a in range(top, 1, -1):
        if (a + spread) ** n < size:
            break  # every factor of a smaller tuple is at most a + spread
        if -size % a <= slack:
            extend((a,), a, n - 1)
    return best


def factorize_balanced(size: int, n: int, allow_padding: bool = False) -> tuple:
    """n near-equal factors with product == size (or >= size when padding)."""
    size, n = _as_int(size, "size"), _as_int(n, "n")
    if size < 1 or n < 1:
        raise ShapeError("size and n must be >= 1")
    if n == 1:
        return (size,)
    hi = math.ceil(size * (1.0 + PAD_SLACK)) if allow_padding else size
    best = _search(size, hi, n)
    if best is None:
        what = f"[{size}, {hi}]" if allow_padding else str(size)
        raise ShapeError(f"no {n}-way factorization with factors >= 2 in {what}")
    return best[2]


def plan_embedding(vocab: int, dim: int, n: int, ranks) -> FactorizationPlan:
    """Plan a TT-embedding: balanced row/col factors plus ranks, where an
    integral scalar rank is broadcast to all n - 1 bonds."""
    vocab, dim, n = _as_int(vocab, "vocab"), _as_int(dim, "dim"), _as_int(n, "n")
    if vocab < 1:
        raise ShapeError("vocab must be >= 1")
    try:
        col_factors = factorize_balanced(dim, n, allow_padding=False)
    except ShapeError as exc:
        raise ShapeError(f"embedding dim {dim} does not factor into {n} parts >= 2") from exc
    row_factors = factorize_balanced(vocab, n, allow_padding=True)
    if np.ndim(ranks) == 0:
        ranks = (_as_int(ranks, "rank"),) * (n - 1)
    else:
        ranks = tuple(_as_int(r, "rank") for r in ranks)
    return FactorizationPlan(
        row_factors=row_factors,
        col_factors=col_factors,
        requested_rows=vocab,
        ranks=ranks,
    )

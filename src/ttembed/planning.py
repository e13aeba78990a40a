"""Automatic selection of TT-shapes.

Given a vocabulary size I and embedding size J, pick factorizations
I_1 * ... * I_N >= I (padding allowed on the row side) and
J_1 * ... * J_N == J (exact) with the factors as balanced as possible.
"Balanced" is max(factors) - min(factors); ties are broken by the
smaller (padded) product, then the lexicographically smallest factor
tuple, so the planner is fully deterministic.

The search is exact branch and bound over ascending factor tuples whose
product lies in [size, hi], with hi = ceil(size * 6/5), exact at any
size, when padding and hi = size otherwise.  The smallest factor a runs
downward from at most c = ceil(size ** (1/n)): either (c,) * n fits
under hi and beats every tuple with a larger smallest factor, or no such
tuple fits.  For each prefix only the smallest feasible last factor is
tried, since it wins on both spread and product.  Once a tuple with
spread d is known, no other factor may exceed a + d (a tie may still
win on product or tuple).  A prefix is kept only if some multiple of its
product lies in [size, hi] (divisibility when hi == size), and the scan
over a stops when (a + d) ** n < size, as no smaller tuple can reach
size.  Every cut discards only tuples with a larger key, so the result
is the optimum of the full enumeration, which the tests check against a
brute-force oracle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .linalg import ShapeError

PAD_SLACK = Fraction(1, 5)  # exact, so the padding window is exact at any size


def _as_int(value, what: str) -> int:
    """value as an int; a non-integral value (4.5, 4.0, "4") or a bool
    raises a TypeError naming `what` instead of being truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} {value!r} is not an integer")


def _positive_finite(value, what: str) -> None:
    """A value outside (0, inf), such as 0, a NaN or inf, raises a
    ValueError naming `what`."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")


def _as_int_array(values, what: str) -> np.ndarray:
    """values as an int64 array; floats or bools raise a TypeError naming
    `what`, except in an empty sequence, which has no value to truncate.
    Integers past int64, which numpy holds as uint64, as Python ints in an
    object array or as floats, come back as an object array of Python
    ints, for the caller's range check to name."""
    arr = np.asarray(values)
    if not arr.size or arr.dtype.kind == "i":
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind == "u" and arr.max() <= np.iinfo(np.int64).max:
        return arr.astype(np.int64)
    ints = np.array(values, dtype=object)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in ints.flat):
        raise TypeError(f"{what} of dtype {arr.dtype} are not integers")
    return ints


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
    """floor(x ** (1/n)) for an integer x >= 0, in exact integer
    arithmetic: Newton's iteration from 2 ** ceil(bits / n) >= the root
    falls monotonically onto it."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        nxt = ((n - 1) * r + x // r ** (n - 1)) // n
        if nxt >= r:
            return r
        r = nxt


def _search(size: int, hi: int, n: int):
    """Least key (max - min, product, factors) over ascending n-tuples
    (n >= 2) of factors >= 2 whose product lies in [size, hi], or None.
    The prefixes are walked depth-first, each one's next factor in
    ascending order, over an explicit stack, so n is not bounded by the
    recursion limit."""
    slack = hi - size
    best = None
    spread = hi  # best[0] once a tuple is found; above any spread before
    stack = []  # (prefix, its product, factors still to add, next factor candidates)

    def visit(factors, p, m):
        # a prefix `factors` (product p) that m more factors complete
        nonlocal best, spread
        f = factors[-1]
        if m > 1:
            stack.append((factors, p, m, iter(range(f, _iroot(hi // p, m) + 1))))
            return
        g = max(f, -(-size // p))  # smallest feasible last factor
        if p * g <= hi:
            key = (g - factors[0], p * g, factors + (g,))
            if best is None or key < best:
                best, spread = key, key[0]

    top = min(_iroot(hi, n), _iroot(size - 1, n) + 1)
    for a in range(top, 1, -1):
        if (a + spread) ** n < size:
            break  # every factor of a smaller tuple is at most a + spread
        if -size % a <= slack:
            visit((a,), a, n - 1)
        while stack:
            factors, p, m, candidates = stack[-1]
            f = next(candidates, None)
            if f is None or f > factors[0] + spread:
                stack.pop()
            elif -size % (p * f) <= slack:  # some multiple of p f lies in [size, hi]
                visit(factors + (f,), p * f, m - 1)
    return best


def factorize_balanced(size: int, n: int, allow_padding: bool = False) -> tuple:
    """n near-equal factors with product == size (or >= size when padding)."""
    size, n = _as_int(size, "size"), _as_int(n, "n")
    if size < 1 or n < 1:
        raise ShapeError("size and n must be >= 1")
    if n == 1:
        return (size,)
    hi = math.ceil(size * (1 + PAD_SLACK)) if allow_padding else size
    # n factors >= 2 need 2 ** n <= hi; a larger n is refused before any root
    best = _search(size, hi, n) if n < hi.bit_length() else None
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

"""Bijection between flat indices and mixed-radix multi-indices.

The digit i_1 is the *least* significant (fastest varying), as in
numpy's order="F"; the dense layout of the represented matrix follows
it.  Which rows end up sharing core slices is fixed by this choice, so
don't change it without re-deriving the serialization layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .planning import _as_int, _as_int_array


@dataclass(frozen=True)
class MixedRadix:
    """Factors (I_1..I_N) of the digits (i_1..i_N), i_1 fastest."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(_as_int(f, "factors") for f in self.factors)
        if not factors or any(f < 1 for f in factors):
            raise ValueError(f"factors must be positive, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def capacity(self) -> int:
        return prod(self.factors)

    def to_multi(self, i):
        """Flat index -> digits (i_1..i_N), i_1 fastest; an index array
        gives one digit array per factor."""
        i = _as_int_array(i, "indices") if np.ndim(i) else _as_int(i, "index")
        bad = (i < 0) | (i >= self.capacity)
        if np.any(bad):
            first = int(np.ravel(i)[np.ravel(bad)][0])
            raise IndexError(f"index {first} out of range [0, {self.capacity})")
        return np.unravel_index(i, self.factors, order="F")

    def from_multi(self, idx) -> int:
        """Digits (i_1..i_N) -> flat index sum(i_k * I_1 * ... * I_{k-1})."""
        idx = tuple(_as_int(d, "digit") for d in idx)
        if len(idx) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} digits, got {len(idx)}")
        for d, f in zip(idx, self.factors):
            if not 0 <= d < f:
                raise IndexError(f"digit {d} out of range [0, {f})")
        return int(np.ravel_multi_index(idx, self.factors, order="F"))

"""Bijection between flat indices and mixed-radix multi-indices.

The digit i_1 is the *least* significant (fastest varying), matching the
column-major convention used everywhere else in the package.  Which rows
end up sharing core slices is fixed by this choice, so don't change it
without re-deriving the serialization layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np


@dataclass(frozen=True)
class MixedRadix:
    """Factors (I_1..I_N) plus precomputed strides L = (1, I_1, I_1*I_2, ...)."""

    factors: tuple
    strides: tuple = field(init=False)

    def __post_init__(self):
        factors = tuple(int(f) for f in self.factors)
        if not factors or any(f < 1 for f in factors):
            raise ValueError(f"factors must be positive, got {factors}")
        strides = [1]
        for f in factors[:-1]:
            strides.append(strides[-1] * f)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "strides", tuple(strides))

    @property
    def capacity(self) -> int:
        return prod(self.factors)

    def to_multi(self, i):
        """Flat index -> digits (i_1..i_N), i_1 fastest; an index array
        gives one digit array per factor."""
        i = np.asarray(i, dtype=np.int64) if np.ndim(i) else int(i)
        bad = (i < 0) | (i >= self.capacity)
        if np.any(bad):
            first = int(np.ravel(i)[np.ravel(bad)][0])
            raise IndexError(f"index {first} out of range [0, {self.capacity})")
        digits = [0] * len(self.factors)
        for k in reversed(range(len(self.factors))):
            digits[k], i = divmod(i, self.strides[k])
        return tuple(digits)

    def from_multi(self, idx) -> int:
        """Digits (i_1..i_N) -> flat index sum(i_k * L[k])."""
        idx = tuple(int(d) for d in idx)
        if len(idx) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} digits, got {len(idx)}")
        for d, f in zip(idx, self.factors):
            if not 0 <= d < f:
                raise IndexError(f"digit {d} out of range [0, {f})")
        return sum(d * s for d, s in zip(idx, self.strides))

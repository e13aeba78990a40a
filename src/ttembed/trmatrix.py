"""Tensor-ring matrices: the TT chain closed into a loop.

Cores have the same 4-way layout as TT cores, but the first input rank
and last output rank are equal to a closure rank R >= 1 and an element
is the *trace* of the slice product.  TRMatrix runs TTMatrix's kernel,
which takes that trace, so R == 1 computes exactly what TT does.
"""

from __future__ import annotations

from .planning import FactorizationPlan
from .ttmatrix import TTMatrix, _random_cores


class TRMatrix(TTMatrix):
    closed = True


def random_tr(plan: FactorizationPlan, ring_rank: int, std: float, seed: int) -> TRMatrix:
    """Seeded i.i.d. Normal(0, std^2) cores with ring closure."""
    return TRMatrix(cores=_random_cores(plan, ring_rank, std, seed), plan=plan)

"""Tensor-ring matrices: the TT chain closed into a loop.

Cores have the same 4-way layout as TT cores, but the first input rank
and last output rank are equal to a closure rank R >= 1 and an element
is the *trace* of the slice product.  TRMatrix runs TTMatrix's kernel,
which takes that trace, so R == 1 computes exactly what TT does.
"""

from __future__ import annotations

from .planning import FactorizationPlan, _as_int
from .ttmatrix import TTMatrix, _random_cores


class TRMatrix(TTMatrix):
    closed = True


def random_tr(plan: FactorizationPlan, ring_rank: int, std: float, seed: int) -> TRMatrix:
    """Seeded i.i.d. Normal(0, std^2) cores with ring closure."""
    return TRMatrix(cores=_random_cores(plan, ring_rank, std, seed), plan=plan)


def circular_shift(m: TRMatrix, s: int) -> TRMatrix:
    """Rotate the core loop left by s.

    The result represents the tensor whose mode tuples (i_k, j_k) are the
    s-rotations of the original ones; the trace closure makes this exact
    (trace(AB...Z) == trace(B...ZA)).  Served-row bookkeeping does not
    survive rotation, so the shifted plan serves every padded row.
    """
    n, s = len(m.cores), _as_int(s, "shift")
    if not 0 <= s <= n:
        raise ValueError(f"shift must be in [0, {n}]")
    s = s % n
    cores = m.cores[s:] + m.cores[:s]
    rows = m.plan.row_factors[s:] + m.plan.row_factors[:s]
    cols = m.plan.col_factors[s:] + m.plan.col_factors[:s]
    plan = FactorizationPlan(
        row_factors=rows,
        col_factors=cols,
        requested_rows=m.plan.padded_rows,
        ranks=tuple(c.shape[3] for c in cores[:-1]),
    )
    return TRMatrix(cores=[c.copy() for c in cores], plan=plan)

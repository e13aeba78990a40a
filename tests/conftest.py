import numpy as np

from ttembed.planning import FactorizationPlan
from ttembed.ttmatrix import TTMatrix


def random_plan(rng, n=None, max_factor=4, max_rank=3, vocab_exact=True):
    """Small random plan for property tests (total size stays tiny)."""
    n = int(rng.integers(2, 5)) if n is None else n
    rows = tuple(int(rng.integers(2, max_factor + 1)) for _ in range(n))
    cols = tuple(int(rng.integers(2, max_factor + 1)) for _ in range(n))
    ranks = tuple(int(rng.integers(1, max_rank + 1)) for _ in range(n - 1))
    requested = int(np.prod(rows)) if vocab_exact else int(rng.integers(1, np.prod(rows) + 1))
    return FactorizationPlan(rows, cols, requested, ranks)


def random_tt_from(rng, plan, std=1.0):
    ranks = (1,) + plan.ranks + (1,)
    cores = [
        rng.normal(0.0, std, size=(ranks[k], plan.row_factors[k], plan.col_factors[k], ranks[k + 1]))
        for k in range(plan.n_cores)
    ]
    return TTMatrix(cores=cores, plan=plan)

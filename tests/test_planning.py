import math
import time
from math import prod

import numpy as np
import pytest

from ttembed.analysis import compression_table, init_statistics
from ttembed.indexing import MixedRadix
from ttembed.layers import TTEmbedding
from ttembed.linalg import ShapeError
from ttembed.planning import (
    PAD_SLACK,
    FactorizationPlan,
    factorize_balanced,
    plan_embedding,
)
from ttembed.ttmatrix import random_tt


def oracle_factorizations(s, n):
    """Independent enumeration of ascending factor tuples of s (>= 2 each,
    unless n == 1)."""
    results = []

    def rec(remaining, k, lo, acc):
        if k == 1:
            if remaining >= lo:
                results.append(tuple(acc) + (remaining,))
            return
        for f in range(lo, remaining + 1):
            if f**k > remaining:
                break
            if remaining % f == 0:
                rec(remaining // f, k - 1, f, acc + [f])

    rec(s, n, 1 if n == 1 else 2, [])
    return results


def oracle_best(size, n, allow_padding):
    hi = math.ceil(size * (1 + PAD_SLACK)) if allow_padding else size
    best = None
    for s in range(size, hi + 1):
        for cand in oracle_factorizations(s, n):
            key = (cand[-1] - cand[0], s, cand)
            if best is None or key < best:
                best = key
    return None if best is None else best[2]


def test_reference_factorizations():
    assert factorize_balanced(512, 3) == (8, 8, 8)
    assert factorize_balanced(480, 4) == (4, 4, 5, 6)


def test_padded_search_matches_oracle():
    got = factorize_balanced(25_000, 3, allow_padding=True)
    assert got == oracle_best(25_000, 3, True)
    assert got == (30, 30, 30)  # only perfect cube in the slack window


def test_exact_error_when_unfactorable():
    with pytest.raises(ShapeError):
        factorize_balanced(7, 2)  # prime, no 2-way factors >= 2


def test_n1_passthrough():
    assert factorize_balanced(7, 1) == (7,)


def test_determinism():
    assert factorize_balanced(960, 4, allow_padding=True) == factorize_balanced(
        960, 4, allow_padding=True
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matches_oracle_sampled_sizes(n):
    rng = np.random.default_rng(n)
    for size in rng.integers(2, 10_000, size=25):
        size = int(size)
        want = oracle_best(size, n, True)
        got = factorize_balanced(size, n, allow_padding=True)
        assert got == want, (size, n)
        assert prod(got) >= size


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("allow_padding", [False, True])
def test_matches_oracle_sampled_sizes_n1_n5(n, allow_padding):
    rng = np.random.default_rng(10 + n)
    for size in rng.integers(1, 10_000, size=25):
        size = int(size)
        want = oracle_best(size, n, allow_padding)
        if want is None:
            with pytest.raises(ShapeError):
                factorize_balanced(size, n, allow_padding=allow_padding)
        else:
            assert factorize_balanced(size, n, allow_padding=allow_padding) == want


def test_padded_large_vocabularies():
    cases = [
        (25_000, 3, (30, 30, 30)),
        (100_000, 4, (18,) * 4),
        (1_000_001, 3, (101,) * 3),
        (1_048_577, 5, (16, 16, 16, 16, 17)),
        (30_000_000, 4, (75,) * 4),
    ]
    t0 = time.perf_counter()
    for size, n, want in cases:
        assert factorize_balanced(size, n, allow_padding=True) == want, (size, n)
    assert time.perf_counter() - t0 < 1.0


def test_plan_reference_case():
    plan = plan_embedding(512, 512, 3, 16)
    assert plan.row_factors == (8, 8, 8)
    assert plan.col_factors == (8, 8, 8)
    assert plan.ranks == (16, 16)
    assert plan.padded_rows == 512


def test_plan_n1_dense():
    plan = plan_embedding(7, 8, 1, 1)
    assert plan.row_factors == (7,)
    assert plan.col_factors == (8,)
    assert plan.ranks == ()


def test_plan_padding():
    plan = plan_embedding(1000, 64, 3, 8)
    assert plan.row_factors == (10, 10, 10)
    assert plan.col_factors == (4, 4, 4)
    assert plan.padded_rows == 1000
    assert plan.requested_rows == 1000


def test_plan_accepts_integral_scalar_ranks():
    assert plan_embedding(512, 512, 3, np.int64(16)).ranks == (16, 16)
    assert plan_embedding(512, 512, 3, (np.int32(4), 8)).ranks == (4, 8)


@pytest.mark.parametrize(
    "rank", [16.0, np.float64(16.0), (4, 2.5)], ids=["float", "np-float64", "tuple"]
)
def test_plan_rejects_non_integral_rank(rank):
    with pytest.raises(TypeError, match="rank .* is not an integer"):
        plan_embedding(512, 512, 3, rank)


@pytest.mark.parametrize("field, build", [
    ("row_factors", lambda: FactorizationPlan((4.9, 4), (2, 2), 4, (2,))),
    ("col_factors", lambda: FactorizationPlan((4, 4), (2.5, 2), 4, (2,))),
    ("requested_rows", lambda: FactorizationPlan((4, 4), (2, 2), 4.5, (2,))),
    ("ranks", lambda: FactorizationPlan((4, 4), (2, 2), 4, (2.7,))),
    ("size", lambda: factorize_balanced(25000.9, 3, True)),
    ("n", lambda: factorize_balanced(25000, 3.0, True)),
    ("vocab", lambda: plan_embedding(25000.9, 256, 3, 16)),
    ("dim", lambda: plan_embedding(25000, 256.5, 3, 16)),
    ("n", lambda: plan_embedding(25000, 256, 3.2, 16)),
    ("vocab", lambda: TTEmbedding(
        random_tt(FactorizationPlan((3, 3), (2, 2), 9, (2,)), 1.0, 0), vocab=7.9)),
], ids=[
    "plan-row_factors", "plan-col_factors", "plan-requested_rows", "plan-ranks",
    "factorize-size", "factorize-n", "embedding-vocab", "embedding-dim",
    "embedding-n", "layer-vocab",
])
def test_non_integral_input_raises_naming_the_field(field, build):
    with pytest.raises(TypeError, match=f"^{field} .* is not an integer"):
        build()


_SMALL = FactorizationPlan((3, 3), (2, 2), 9, (2,))


@pytest.mark.parametrize("name, call", [
    ("indices", lambda: TTEmbedding(random_tt(_SMALL, 1.0, 0)).forward([2.7, 0.9])),
    ("indices", lambda: random_tt(_SMALL, 1.0, 0).rows([1.5])),
    ("factors", lambda: MixedRadix((2.5, 3))),
    ("index", lambda: MixedRadix((2, 3)).to_multi(4.9)),
    ("indices", lambda: MixedRadix((2, 3)).to_multi([4.9])),
    ("digit", lambda: MixedRadix((2, 3)).from_multi((1.9, 2.2))),
    ("index", lambda: random_tt(_SMALL, 1.0, 0).element(1.9, 0)),
    ("rank", lambda: compression_table(512, 512, 3, [2.5])),
    ("rank", lambda: init_statistics(_SMALL, [2.5], 1)),
], ids=[
    "layer-forward", "matrix-rows", "radix-factors", "radix-to_multi",
    "radix-to_multi-array", "radix-from_multi", "matrix-element",
    "compression_table", "init_statistics",
])
def test_non_integer_index_or_rank_raises_naming_it(name, call):
    with pytest.raises(TypeError, match=f"^{name} .* integer"):
        call()


def test_plan_rejects_unfactorable_dim():
    with pytest.raises(ShapeError):
        plan_embedding(100, 7, 2, 4)  # 7 has no 2-way factorization >= 2


def test_plan_invariants():
    with pytest.raises(ShapeError):
        FactorizationPlan((4, 1), (2, 2), 4, (2,))
    with pytest.raises(ShapeError):
        FactorizationPlan((4, 4), (2, 2), 4, (0,))
    with pytest.raises(ShapeError):
        FactorizationPlan((4, 4), (2, 2), 17, (2,))

import numpy as np
import pytest

from ttembed import ttmatrix
from ttembed.analysis import (
    check_full_rank,
    compression_table,
    gradient_audit,
    init_statistics,
    pooled_moments,
)
from ttembed.layers import TTEmbedding, random_lowrank
from ttembed.planning import FactorizationPlan, plan_embedding
from ttembed.trmatrix import random_tr
from ttembed.ttmatrix import glorot_tt


class TestFullRankCheck:
    def test_delta_witness_full_rank_matched_factors(self):
        plan = FactorizationPlan((4, 4), (2, 2), 16, (2,))
        reports = check_full_rank(plan, seeds=[])
        assert len(reports) == 1
        assert reports[0].label == "delta-witness"
        # rank = prod of min(I_k, J_k) = 4, which is min(16, 4): full
        assert reports[0].numerical_rank == 4
        assert reports[0].full_rank

    def test_random_draws_full_rank(self):
        plan = FactorizationPlan((4, 4), (4, 4), 16, (4,))
        reports = check_full_rank(plan, seeds=[0, 1, 2])
        assert len(reports) == 4
        assert all(r.full_rank for r in reports)
        assert all(r.max_possible_rank == 16 for r in reports)

    def test_bond_rank_one_is_kronecker_full_rank(self):
        # with bond rank 1 the matrix is a Kronecker product of the two
        # core slices; generic draws are full rank despite only 32 params
        plan = FactorizationPlan((4, 4), (4, 4), 16, (1,))
        reports = check_full_rank(plan, seeds=[0])
        witness, rnd = reports
        assert witness.full_rank
        assert rnd.parameters == 32
        assert rnd.full_rank

    def test_wide_matrix(self):
        plan = FactorizationPlan((2, 2), (4, 4), 4, (2,))
        reports = check_full_rank(plan, seeds=[5])
        assert all(r.max_possible_rank == 4 for r in reports)
        assert reports[0].full_rank

    def test_dimension_cap(self):
        plan = plan_embedding(2**13, 4, 2, 1)
        with pytest.raises(MemoryError):
            check_full_rank(plan, seeds=[])

    def test_report_metadata(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        r = check_full_rank(plan, seeds=[3])[1]
        assert r.label == "seed=3"
        assert r.row_factors == (2, 2)
        assert r.parameters == 1 * 2 * 2 * 2 + 2 * 2 * 2 * 1


class TestPooledMoments:
    def test_constant_sample(self):
        mean, var, kurt = pooled_moments(np.full(10, 3.0))
        assert mean == 3.0
        assert var == 0.0
        assert kurt == 0.0

    def test_two_point_sample(self):
        # {-1, +1}: mean 0, var 1, kurtosis 1 so excess -2
        mean, var, kurt = pooled_moments(np.array([-1.0, 1.0, -1.0, 1.0]))
        assert mean == 0.0
        assert var == 1.0
        assert kurt == pytest.approx(-2.0)

    def test_gaussian_sample(self):
        v = np.random.default_rng(0).standard_normal(200_000)
        mean, var, kurt = pooled_moments(v)
        assert abs(mean) < 0.01
        assert abs(var - 1.0) < 0.02
        assert abs(kurt) < 0.05


class TestInitStatistics:
    def test_variance_calibrated_across_ranks(self):
        plan = FactorizationPlan((5, 5, 5), (5, 5, 5), 125, (1, 1))
        reports = init_statistics(plan, [1, 2, 4], draws=24, sigma=1.0, seed=0)
        assert [r.rank for r in reports] == [1, 2, 4]
        for r in reports:
            assert abs(r.mean) < 0.05
            assert abs(r.variance - 1.0) < 0.15
            assert r.target_var == 1.0
            assert r.sample_count == 24 * 125 * 125

    def test_kurtosis_decreases_with_rank(self):
        plan = FactorizationPlan((5, 5, 5), (5, 5, 5), 125, (1, 1))
        reports = init_statistics(plan, [1, 4, 16], draws=8, sigma=1.0, seed=1)
        kurts = [r.excess_kurtosis for r in reports]
        assert kurts[0] > kurts[1] > kurts[2]
        assert kurts[0] > 1.0  # rank 1 is strongly heavy tailed

    def test_sigma_scaling(self):
        plan = FactorizationPlan((4, 4), (4, 4), 16, (2,))
        (r,) = init_statistics(plan, [2], draws=64, sigma=0.25, seed=2)
        assert r.target_var == pytest.approx(0.0625)
        assert abs(r.variance - 0.0625) / 0.0625 < 0.15

    def test_draws_validation(self):
        plan = FactorizationPlan((4, 4), (4, 4), 16, (2,))
        with pytest.raises(ValueError):
            init_statistics(plan, [2], draws=0)

    def test_deterministic(self):
        plan = FactorizationPlan((4, 4), (4, 4), 16, (2,))
        a = init_statistics(plan, [1, 2], draws=4, seed=7)
        b = init_statistics(plan, [1, 2], draws=4, seed=7)
        assert a == b


class TestCompressionTable:
    def test_reference_row(self):
        rows = compression_table(512, 512, 3, [16])
        (r,) = rows
        assert r.tt_params == 18432
        assert r.dense_params == 262144
        assert r.ratio == pytest.approx(262144 / 18432)
        assert r.tied_ratio == pytest.approx(262144 / 36864)
        assert r.lowrank_d == 18432 // 1024
        assert r.lowrank_max_rank == 18

    def test_params_grow_with_rank(self):
        rows = compression_table(512, 512, 3, [1, 2, 4, 8, 16])
        params = [r.tt_params for r in rows]
        assert params == sorted(params)
        assert all(a < b for a, b in zip(params, params[1:]))

    def test_lowrank_budget_never_exceeds_tt(self):
        for r in compression_table(1000, 64, 3, [2, 4, 8]):
            # D chosen so (I + J) * D <= tt_params
            assert (1000 + 64) * r.lowrank_d <= r.tt_params
            assert r.lowrank_max_rank <= min(1000, 64)


def _audit_case(kind):
    """A small layer of each kind plus a batch with a repeated index."""
    plan = FactorizationPlan((3, 4), (2, 3), 12, (2,))
    if kind == "tt":
        layer = TTEmbedding(glorot_tt(plan, 0, std=1.0))
    elif kind == "tr":
        layer = TTEmbedding(random_tr(plan, 2, 0.8, 1))
    else:
        layer = random_lowrank(12, 6, 3, 1.0, 2)
    upstream = np.random.default_rng(3).standard_normal((4, layer.dim))
    return layer, np.array([0, 5, 5, 11]), upstream


class TestGradientAudit:
    @pytest.mark.parametrize("kind", ["tt", "tr", "lowrank"])
    def test_exact_gradient_passes_and_restores_parameters(self, kind):
        layer, idx, upstream = _audit_case(kind)
        before = [p.copy() for p in layer.parameters()]
        assert gradient_audit(layer, idx, upstream) < 1e-5
        for p, q in zip(layer.parameters(), before):
            assert np.array_equal(p, q)

    @pytest.mark.parametrize("kind", ["tt", "tr", "lowrank"])
    def test_scaled_gradient_is_caught(self, kind):
        layer, idx, upstream = _audit_case(kind)
        exact = layer.backward
        layer.backward = lambda i, u: [(1.0 + 1e-4) * g for g in exact(i, u)]
        assert gradient_audit(layer, idx, upstream) > 1e-5

    @pytest.mark.parametrize("kind", ["tt", "tr", "lowrank"])
    def test_repeated_audit_is_identical(self, kind, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)  # a chain-kernel tape
        layer, idx, upstream = _audit_case(kind)
        first = gradient_audit(layer, idx, upstream)
        assert gradient_audit(layer, idx, upstream) == first

import numpy as np
import pytest
from conftest import random_plan, random_tt_from

from ttembed.fileformat import load_tt, save_tt
from ttembed.linalg import ShapeError
from ttembed.planning import FactorizationPlan
from ttembed.ttmatrix import (
    MATERIALIZE_CAP_ENV,
    CompressionStats,
    TTMatrix,
    delta_identity_tt,
    glorot_tt,
    random_tt,
    tt_svd,
)


def ones_tt(plan):
    ranks = (1,) + plan.ranks + (1,)
    cores = [
        np.ones((ranks[k], plan.row_factors[k], plan.col_factors[k], ranks[k + 1]))
        for k in range(plan.n_cores)
    ]
    return TTMatrix(cores=cores, plan=plan)


class TestElement:
    def test_all_ones_rank_one(self):
        plan = FactorizationPlan((2, 3), (3, 2), 6, (1,))
        m = ones_tt(plan)
        for i in range(6):
            for j in range(6):
                assert m.element(i, j) == 1.0

    def test_delta_cores_give_identity(self):
        plan = FactorizationPlan((2, 4), (2, 4), 8, (1,))
        m = delta_identity_tt(plan)
        for i in range(8):
            for j in range(8):
                assert m.element(i, j) == (1.0 if i == j else 0.0)

    def test_matches_materialize_exhaustively(self):
        rng = np.random.default_rng(0)
        plan = FactorizationPlan((2, 3), (3, 2), 6, (2,))
        m = random_tt_from(rng, plan)
        dense = m.materialize()
        for i in range(6):
            for j in range(6):
                assert m.element(i, j) == pytest.approx(dense[i, j], rel=1e-12, abs=1e-14)

    def test_out_of_range(self):
        m = ones_tt(FactorizationPlan((2, 2), (2, 2), 4, (1,)))
        with pytest.raises(IndexError):
            m.element(4, 0)
        with pytest.raises(IndexError):
            m.element(0, 4)


class TestRow:
    def test_delta_identity_row(self):
        plan = FactorizationPlan((2, 4), (2, 4), 8, (1,))
        m = delta_identity_tt(plan)
        e3 = np.zeros(8)
        e3[3] = 1.0
        assert np.array_equal(m.row(3), e3)

    def test_constant_rank_one_slices(self):
        plan = FactorizationPlan((2, 2), (3, 2), 4, (1,))
        cores = [
            np.full((1, 2, 3, 1), 2.0),
            np.full((1, 2, 2, 1), -1.5),
        ]
        m = TTMatrix(cores=cores, plan=plan)
        assert np.allclose(m.row(1), 2.0 * -1.5)

    def test_matches_element(self):
        rng = np.random.default_rng(1)
        plan = FactorizationPlan((3, 2), (6, 6), 6, (3,))
        m = random_tt_from(rng, plan)
        for i in range(6):
            row = m.row(i)
            for j in range(36):
                assert row[j] == pytest.approx(m.element(i, j), rel=1e-12, abs=1e-14)


class TestMaterialize:
    def test_identity_construction(self):
        plan = FactorizationPlan((3, 3), (3, 3), 9, (1,))
        assert np.array_equal(delta_identity_tt(plan).materialize(), np.eye(9))

    def test_single_core_bit_identical(self):
        rng = np.random.default_rng(2)
        core = rng.standard_normal((1, 5, 4, 1))
        plan = FactorizationPlan((5,), (4,), 5, ())
        m = TTMatrix(cores=[core], plan=plan)
        assert np.array_equal(m.materialize(), core[0, :, :, 0])

    def test_small_random_per_element(self):
        rng = np.random.default_rng(3)
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        m = random_tt_from(rng, plan)
        dense = m.materialize()
        for i in range(4):
            for j in range(4):
                assert dense[i, j] == pytest.approx(m.element(i, j), rel=1e-12)

    def test_bad_cap_value_is_named(self, monkeypatch):
        m = ones_tt(FactorizationPlan((2, 2), (2, 2), 4, (1,)))
        monkeypatch.setenv(MATERIALIZE_CAP_ENV, "abc")
        with pytest.raises(ValueError, match=f"{MATERIALIZE_CAP_ENV}.*'abc'"):
            m.materialize()

    def test_cap_enforced(self, monkeypatch):
        plan = FactorizationPlan((8, 8), (8, 8), 64, (1,))
        m = ones_tt(plan)
        with pytest.raises(MemoryError):
            m.materialize(cap=100)
        monkeypatch.setenv(MATERIALIZE_CAP_ENV, "100")
        with pytest.raises(MemoryError):
            m.materialize()


class TestOracleEquivalence:
    def test_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            plan = random_plan(rng)
            if plan.padded_rows * plan.cols > 4096:
                continue
            m = random_tt_from(rng, plan)
            dense = m.materialize()
            scale = max(1.0, np.abs(dense).max())
            for i in range(plan.padded_rows):
                row = m.row(i)
                assert np.max(np.abs(row - dense[i])) <= 1e-12 * scale
            i = int(rng.integers(plan.padded_rows))
            j = int(rng.integers(plan.cols))
            assert abs(m.element(i, j) - dense[i, j]) <= 1e-12 * scale


class TestTTSvd:
    def test_roundtrip_true_ranks(self):
        rng = np.random.default_rng(5)
        plan = FactorizationPlan((4, 4, 4), (2, 3, 2), 64, (3, 3))
        dense = random_tt_from(rng, plan).materialize()
        rec = tt_svd(dense, plan).materialize()
        assert np.linalg.norm(rec - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_zero_matrix(self):
        plan = FactorizationPlan((2, 3), (3, 2), 6, (2,))
        m = tt_svd(np.zeros((6, 6)), plan)
        assert all(np.all(c == 0) for c in m.cores)
        assert np.all(m.materialize() == 0)

    def test_full_rank_lossless(self):
        rng = np.random.default_rng(6)
        dense = rng.standard_normal((64, 64))
        plan = FactorizationPlan((4, 4, 4), (4, 4, 4), 64, (16, 16))
        rec = tt_svd(dense, plan).materialize()
        assert np.linalg.norm(rec - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_error_monotone_in_rank(self):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((64, 64))
        errs = []
        for r in [1, 2, 4, 8, 16]:
            plan = FactorizationPlan((4, 4, 4), (4, 4, 4), 64, (r, r))
            rec = tt_svd(dense, plan).materialize()
            errs.append(np.linalg.norm(rec - dense))
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-10 * np.linalg.norm(dense)

    def test_shape_mismatch(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        with pytest.raises(ShapeError):
            tt_svd(np.zeros((5, 4)), plan)

    def test_repeat_call_bitwise_identical(self):
        # the compress checksum relies on tt_svd being a pure function
        rng = np.random.default_rng(8)
        plan = FactorizationPlan((4, 4, 4), (4, 4, 4), 64, (5, 5))
        dense = random_tt_from(rng, plan).materialize()
        dense += 1e-3 * rng.standard_normal(dense.shape)
        first = tt_svd(dense.copy(), plan)
        second = tt_svd(dense.copy(), plan)
        assert first.bond_ranks == second.bond_ranks == (5, 5)
        for a, b in zip(first.cores, second.cores):
            assert a.tobytes() == b.tobytes()

    def test_truncated_plan_carries_kept_ranks(self, tmp_path):
        rng = np.random.default_rng(9)
        rank3 = FactorizationPlan((4, 4, 4), (4, 4, 4), 64, (3, 3))
        dense = random_tt_from(rng, rank3).materialize()
        m = tt_svd(dense, FactorizationPlan((4, 4, 4), (4, 4, 4), 64, (16, 16)))
        assert m.plan.ranks == m.bond_ranks == (3, 3)
        assert m.plan.parameter_count == m.stats().tt_params == 240
        save_tt(tmp_path / "m.tte", m)
        assert load_tt(tmp_path / "m.tte").plan == m.plan


class TestRandomInit:
    def test_seed_reproducible(self):
        plan = FactorizationPlan((3, 3), (3, 3), 9, (2,))
        a = random_tt(plan, 1.0, 42)
        b = random_tt(plan, 1.0, 42)
        assert all(np.array_equal(x, y) for x, y in zip(a.cores, b.cores))

    def test_different_seeds_differ(self):
        plan = FactorizationPlan((3, 3), (3, 3), 9, (2,))
        a = random_tt(plan, 1.0, 1)
        b = random_tt(plan, 1.0, 2)
        assert not np.array_equal(a.cores[0], b.cores[0])

    def test_std_must_be_positive(self):
        plan = FactorizationPlan((3, 3), (3, 3), 9, (2,))
        with pytest.raises(ValueError):
            random_tt(plan, 0.0, 0)

    def test_unit_std_entry_variance_is_rank_product(self):
        plan = FactorizationPlan((5, 5, 5, 5), (5, 5, 5, 5), 625, (4, 4, 4))
        vals = np.concatenate(
            [random_tt(plan, 1.0, s).materialize().ravel() for s in range(32)]
        )
        assert abs(vals.var() - 64.0) / 64.0 < 0.15


class TestGlorot:
    def test_per_core_variance_formula(self):
        # target sigma = 1, Sigma^2 = 4^3 = 64, N = 4 -> core var (1/64)^(1/4)
        plan = FactorizationPlan((5, 5, 5, 5), (5, 5, 5, 5), 625, (4, 4, 4))
        m = glorot_tt(plan, 0, std=1.0)
        want_std = ((1.0 / 64.0) ** 0.25) ** 0.5
        pooled = np.concatenate([c.ravel() for c in m.cores])
        assert abs(pooled.std() - want_std) / want_std < 0.1

    def test_dense_case_uses_target_directly(self):
        plan = FactorizationPlan((1000,), (64,), 1000, ())
        m = glorot_tt(plan, 0, std=0.5)
        assert abs(m.cores[0].std() - 0.5) / 0.5 < 0.02

    def test_default_target_is_glorot(self):
        plan = FactorizationPlan((8, 8), (8, 8), 64, (4,))
        vals = np.concatenate(
            [glorot_tt(plan, s).materialize().ravel() for s in range(64)]
        )
        target = 2.0 / (64 + 64)
        assert abs(vals.var() - target) / target < 0.1

    def test_gaussianization_with_rank(self):
        def excess_kurtosis(v):
            v = v - v.mean()
            m2 = np.mean(v**2)
            return np.mean(v**4) / m2**2 - 3.0

        kurt = {}
        for r in (1, 16):
            plan = FactorizationPlan((5, 5, 5, 5), (5, 5, 5, 5), 625, (r, r, r))
            vals = np.concatenate(
                [glorot_tt(plan, 7 + s, std=1.0).materialize().ravel() for s in range(4)]
            )
            kurt[r] = excess_kurtosis(vals)
        assert kurt[1] > kurt[16]


class TestStats:
    def test_reference_parameter_count(self):
        plan = FactorizationPlan((8, 8, 8), (8, 8, 8), 512, (16, 16))
        assert plan.parameter_count == 18432
        s = random_tt(plan, 1.0, 0).stats()
        assert s.tt_params == 18432
        assert s.dense_params == 262144
        assert s.ratio == pytest.approx(262144 / 18432)
        assert s.tied_ratio == pytest.approx(262144 / (2 * 18432))

    def test_dense_ratio_one(self):
        plan = FactorizationPlan((12,), (5,), 12, ())
        s = random_tt(plan, 1.0, 0).stats()
        assert s.ratio == 1.0
        assert s.tied_ratio == 0.5

    def test_rank_one_counts(self):
        plan = FactorizationPlan((4, 4), (4, 4), 16, (1, ))
        s = random_tt(plan, 1.0, 0).stats()
        assert s.tt_params == 32
        assert s.dense_params == 256
        assert s.ratio == 8.0


class TestValidation:
    def test_boundary_ranks(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        cores = [np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 2, 1))]
        with pytest.raises(ShapeError):
            TTMatrix(cores=cores, plan=plan)

    def test_chain_mismatch(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        cores = [np.zeros((1, 2, 2, 3)), np.zeros((2, 2, 2, 1))]
        with pytest.raises(ShapeError):
            TTMatrix(cores=cores, plan=plan)

    def test_core_ranks_must_match_plan(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (7,))
        cores = [np.zeros((1, 2, 2, 1)), np.zeros((1, 2, 2, 1))]
        with pytest.raises(ShapeError, match="bond 0 between cores 0 and 1"):
            TTMatrix(cores=cores, plan=plan)

    def test_nonfinite_rejected(self):
        plan = FactorizationPlan((2,), (2,), 2, ())
        core = np.full((1, 2, 2, 1), np.inf)
        with pytest.raises(ValueError):
            TTMatrix(cores=[core], plan=plan)


def test_compression_stats_exact_rational():
    s = CompressionStats.from_counts(3, 7)
    assert s.ratio == 7 / 3
    assert s.tied_ratio == 7 / 6

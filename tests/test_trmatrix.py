import numpy as np
import pytest
from conftest import random_plan

from ttembed import ttmatrix
from ttembed.indexing import MixedRadix
from ttembed.linalg import ShapeError
from ttembed.planning import FactorizationPlan
from ttembed.trmatrix import TRMatrix, random_tr
from ttembed.ttmatrix import random_tt


def trace_oracle(m, i, j):
    """Element via explicit per-core slice product and trace."""
    ii = MixedRadix(m.plan.row_factors).to_multi(i)
    jj = MixedRadix(m.plan.col_factors).to_multi(j)
    acc = np.eye(m.ring_rank)
    for k, core in enumerate(m.cores):
        acc = acc @ core[:, ii[k], jj[k], :]
    return float(np.trace(acc))


class TestElement:
    def test_matches_trace_oracle(self):
        plan = FactorizationPlan((2, 3), (3, 2), 6, (2,))
        m = random_tr(plan, 3, 1.0, 0)
        for i in range(6):
            for j in range(6):
                want = trace_oracle(m, i, j)
                assert m.element(i, j) == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_ring_identity_slices(self):
        # every slice the 2x2 identity -> every element trace(I) = 2
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        eye = np.zeros((2, 2, 2, 2))
        eye[:, :, :, :] = np.eye(2)[:, None, None, :]
        m = TRMatrix(cores=[eye.copy(), eye.copy()], plan=plan)
        for i in range(4):
            for j in range(4):
                assert m.element(i, j) == 2.0


class TestDegeneracy:
    def test_ring_rank_one_is_tt_bitwise(self):
        plan = FactorizationPlan((2, 3, 2), (2, 2, 3), 12, (2, 3))
        tt = random_tt(plan, 1.0, 11)
        tr = TRMatrix(cores=[c.copy() for c in tt.cores], plan=plan)
        assert tr.ring_rank == 1
        for i in range(12):
            assert np.array_equal(tr.row(i), tt.row(i))
        assert np.array_equal(tr.materialize(), tt.materialize())
        for i in range(12):
            for j in range(12):
                assert tr.element(i, j) == tt.element(i, j)


class TestRow:
    def test_matches_element(self):
        plan = FactorizationPlan((2, 2, 3), (3, 2, 2), 12, (2, 2))
        m = random_tr(plan, 2, 1.0, 3)
        for i in range(12):
            row = m.row(i)
            for j in range(12):
                assert row[j] == pytest.approx(m.element(i, j), rel=1e-12, abs=1e-14)

    def test_materialize_matches_rows(self):
        plan = FactorizationPlan((2, 3), (2, 3), 6, (2,))
        m = random_tr(plan, 2, 1.0, 4)
        dense = m.materialize()
        for i in range(6):
            assert np.array_equal(dense[i], m.row(i))


class TestBatchedKernel:
    def test_ring_rank_four_rows_match_element(self):
        plan = FactorizationPlan((2, 3, 2), (3, 2, 2), 12, (3, 2))
        m = random_tr(plan, 4, 1.0, 21)
        rows = m.rows(np.arange(12))
        for i in range(12):
            for j in range(12):
                assert rows[i, j] == pytest.approx(m.element(i, j), rel=1e-12, abs=1e-14)

    def test_materialize_blocks_equal_rows_bitwise(self, monkeypatch):
        plan = FactorizationPlan((2, 3, 2), (3, 2, 2), 12, (3, 2))
        m = random_tr(plan, 4, 1.0, 22)
        # blocks of 5, 5 and 2 rows
        monkeypatch.setattr(ttmatrix, "KERNEL_BLOCK", 5 * max(m._row_entries()))
        dense = m.materialize()
        for i in range(12):
            assert dense[i].tobytes() == m.row(i).tobytes()


class TestRandomAndStats:
    def test_seed_reproducible(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        a = random_tr(plan, 3, 1.0, 42)
        b = random_tr(plan, 3, 1.0, 42)
        assert all(np.array_equal(x, y) for x, y in zip(a.cores, b.cores))

    def test_bad_args(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        with pytest.raises(ValueError):
            random_tr(plan, 0, 1.0, 0)
        with pytest.raises(ValueError):
            random_tr(plan, 2, -1.0, 0)

    @pytest.mark.parametrize("std", [np.inf, np.nan])
    def test_std_must_be_finite(self, std):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        with pytest.raises(ValueError, match=f"^std must be positive and finite, got {std}$"):
            random_tr(plan, 2, std, 0)

    def test_param_count(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        s = random_tr(plan, 3, 1.0, 0).stats()
        # cores (3,2,2,2) and (2,2,2,3): 24 + 24
        assert s.tt_params == 48
        assert s.dense_params == 16


class TestValidation:
    def test_closure_mismatch(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        cores = [np.zeros((3, 2, 2, 2)), np.zeros((2, 2, 2, 2))]
        with pytest.raises(ShapeError):
            TRMatrix(cores=cores, plan=plan)

    def test_property_random_plans(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            plan = random_plan(rng, max_factor=3, max_rank=2)
            if plan.padded_rows * plan.cols > 1024:
                continue
            m = random_tr(plan, int(rng.integers(1, 4)), 1.0, int(rng.integers(100)))
            i = int(rng.integers(plan.padded_rows))
            j = int(rng.integers(plan.cols))
            assert m.element(i, j) == pytest.approx(
                trace_oracle(m, i, j), rel=1e-12, abs=1e-14
            )
            assert m.row(i)[j] == pytest.approx(m.element(i, j), rel=1e-12, abs=1e-14)

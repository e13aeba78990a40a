import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import random_plan, random_tt_from

from ttembed.fileformat import load_tt, save_tt
from ttembed import linalg, ttmatrix
from ttembed.indexing import MixedRadix
from ttembed.linalg import ShapeError
from ttembed.planning import FactorizationPlan, plan_embedding
from ttembed.trmatrix import random_tr
from ttembed.ttmatrix import (
    MATERIALIZE_CAP_ENV,
    CompressionStats,
    TTMatrix,
    delta_identity_tt,
    glorot_tt,
    half_rows,
    half_split,
    half_tables,
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


HALF_PLANS = [
    FactorizationPlan((2, 3), (3, 2), 6, (2,)),
    FactorizationPlan((3, 2, 2), (2, 2, 3), 12, (3, 2)),
    FactorizationPlan((2, 3, 2, 2), (2, 2, 3, 2), 24, (2, 3, 2)),
]


def half_models(plan):
    """The TT chain and the TR rings of closure rank 1 and 3 on a plan."""
    return [random_tt(plan, 1.0, 30), random_tr(plan, 1, 1.0, 31), random_tr(plan, 3, 1.0, 32)]


class TestHalfKernel:
    @pytest.mark.parametrize("plan", HALF_PLANS)
    def test_every_split_matches_element(self, plan):
        idx = np.arange(plan.padded_rows)[::-1]
        for m in half_models(plan):
            for s in range(1, plan.n_cores):
                rows = half_rows(m, idx, s)
                for b, i in enumerate(idx):
                    for j in range(plan.cols):
                        assert rows[b, j] == pytest.approx(
                            m.element(int(i), j), rel=1e-12, abs=1e-14
                        )

    def test_table_layout(self):
        plan = HALF_PLANS[2]
        for m in half_models(plan):
            ltab, rtab = half_tables(m, 2)
            c = m.ring_rank * plan.ranks[1]
            assert ltab.shape == (6, c, 4) and rtab.shape == (4, 6, c)

    def test_empty_batch(self):
        plan = HALF_PLANS[1]
        m = random_tr(plan, 3, 1.0, 33)
        assert half_split(m, 0) == 0
        assert m.rows([]).shape == (0, 12)
        for s in (1, 2):
            assert half_rows(m, [], s).shape == (0, 12)

    def test_single_core_takes_the_chain(self):
        m = random_tr(FactorizationPlan((7,), (5,), 7, ()), 2, 1.0, 34)
        assert all(half_split(m, b) == 0 for b in (0, 1, 7, 10**6))
        assert m.rows(np.arange(7)).shape == (7, 5)

    def test_index_errors(self):
        m = random_tt(HALF_PLANS[0], 1.0, 35)
        with pytest.raises(IndexError, match=r"index 9 out of range \[0, 6\)"):
            half_rows(m, [1, 9], 1)
        with pytest.raises(TypeError, match="indices of dtype float64 are not integers"):
            half_rows(m, np.array([1.0, 2.0]), 1)

    @pytest.mark.parametrize("big", [2**63, 2**64, 10**23, -(10**23)])
    def test_an_index_past_int64_is_named(self, big):
        m = random_tt(HALF_PLANS[0], 1.0, 35)
        calls = [m.rows, lambda i: half_rows(m, i, 1),
                 lambda i: m.row_grads(i, np.zeros((2, m.plan.cols)))]
        for call in calls:
            with pytest.raises(IndexError, match=rf"^index {big} out of range \[0, 6\)$"):
                call([1, big])
        with pytest.raises(IndexError, match=r"^index 9223372036854775808 out of range"):
            m.rows(np.array([1, 2**63], dtype=np.uint64))

    def test_blocks_do_not_change_rows(self, monkeypatch):
        plan = HALF_PLANS[2]
        idx = np.random.default_rng(36).integers(plan.padded_rows, size=50)
        for m in half_models(plan):
            for s in (1, 2, 3):
                whole = half_rows(m, idx, s)
                ltab, rtab = half_tables(m, s)
                per_row = ltab[0].size + rtab[0].size + plan.cols
                monkeypatch.setattr(ttmatrix, "KERNEL_BLOCK", 7 * per_row)  # blocks of 7
                assert half_rows(m, idx, s).tobytes() == whole.tobytes()
                monkeypatch.undo()


class TestHalfDispatch:
    """The bench shapes: half_split picks the kernel from the plan, the
    ranks and the number of distinct rows."""

    def test_lookup_shape_takes_halves(self):
        m = glorot_tt(plan_embedding(100000, 64, 4, 8), seed=0)
        assert half_split(m, 1514) == 2

    def test_train_shapes_take_the_chain(self):
        assert half_split(glorot_tt(plan_embedding(25000, 256, 3, 16), seed=0), 254) == 0
        ring = random_tr(plan_embedding(512, 512, 3, 16), 4, 0.1, 0)
        assert half_split(ring, 40) == 0
        assert half_split(ring, 512) == 0  # materialize of the ring

    def test_bench_materialize_splits(self):
        """The kernel each bench workload's materialize() takes over all its
        padded rows, so a dispatch change cannot silently move a checksum."""
        compress = random_tt(plan_embedding(512, 512, 3, 16), 1.0, 0)
        train = glorot_tt(plan_embedding(25000, 256, 3, 16), seed=0)
        lookup = glorot_tt(plan_embedding(100000, 64, 4, 8), seed=0)
        assert [m.plan.padded_rows for m in (compress, train, lookup)] == [512, 27000, 104976]
        assert half_split(compress, 512) == 1
        assert half_split(train, 27000) == 2
        assert half_split(lookup, 104976) == 2

    def test_tables_stay_within_the_result(self):
        models = [
            glorot_tt(plan_embedding(100000, 64, 4, 8), seed=0),
            glorot_tt(plan_embedding(25000, 256, 3, 16), seed=0),
            random_tr(plan_embedding(512, 512, 3, 16), 4, 0.1, 0),
        ] + [m for plan in HALF_PLANS for m in half_models(plan)]
        chosen = 0
        for m in models:
            for b in (1, 4, 16, 40, 254, 512, 1514, 4096, 25000):
                s = half_split(m, b)
                if s:
                    chosen += 1
                    ltab, rtab = half_tables(m, s)
                    assert ltab.size + rtab.size <= b * m.plan.cols
        assert chosen  # the rule picks halves somewhere in this sweep


RULE_PLAN = FactorizationPlan((3, 4, 2), (2, 3, 4), 24, (3, 2))


def rule_case(monkeypatch, ring):
    """A TT chain (ring 1) or a ring on the chain kernel in blocks of 4
    rows, a tape, two index arrays of the same size and their upstream."""
    monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
    m = random_tt(RULE_PLAN, 0.9, 40) if ring == 1 else random_tr(RULE_PLAN, ring, 0.9, 40)
    monkeypatch.setattr(ttmatrix, "KERNEL_BLOCK", 4 * max(m._row_entries()))
    rng = np.random.default_rng(41)
    a = rng.integers(RULE_PLAN.padded_rows, size=10)
    b = (a + 5) % RULE_PLAN.padded_rows
    return m, ttmatrix.Tape(), a, b, rng.standard_normal((a.size, RULE_PLAN.cols))


def count_decodes(monkeypatch) -> list:
    """Wrap MixedRadix.to_multi so that each call appends to the returned list."""
    decodes, to_multi = [], MixedRadix.to_multi
    monkeypatch.setattr(
        MixedRadix, "to_multi", lambda self, i: decodes.append(i) or to_multi(self, i)
    )
    return decodes


def same_bits(got, want) -> bool:
    return [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("ring", [1, 3])
class TestTapeRule:
    """row_grads starts from a tape only when it holds the same indices and
    the core arrays held now; from any other tape it recomputes, with
    bitwise the result of a call given no tape."""

    def test_a_tape_of_other_rows_is_not_used(self, ring, monkeypatch):
        m, tape, a, b, up = rule_case(monkeypatch, ring)
        m.rows(a, tape)
        assert same_bits(m.row_grads(b, up, tape), m.row_grads(b, up))

    def test_a_tape_filled_before_a_core_was_replaced_is_not_used(self, ring, monkeypatch):
        m, tape, a, _, up = rule_case(monkeypatch, ring)
        m.rows(a, tape)
        m.cores[1] = 2.0 * m.cores[1]  # a new array, not an in-place write
        assert same_bits(m.row_grads(a, up, tape), m.row_grads(a, up))

    @pytest.mark.parametrize("write", ["scale", "sgd", "view"])
    def test_an_in_place_write_is_not_taken_from_the_tape(self, ring, write, monkeypatch):
        m, tape, a, _, up = rule_case(monkeypatch, ring)
        view = m.cores[2].reshape(-1)  # a view of the core, taken before rows()
        m.rows(a, tape)
        if write == "scale":
            m.cores[1] *= 2.0
        elif write == "sgd":
            for p, g in zip(m.cores, m.row_grads(a, up)):
                p -= 0.1 * g
        else:
            view[::2] += 1.0
        assert same_bits(m.row_grads(a, up, tape), m.row_grads(a, up))

    def test_a_nan_in_a_core_is_not_taken_from_the_tape(self, ring, monkeypatch):
        m, tape, a, _, up = rule_case(monkeypatch, ring)
        m.cores[0][0, 0, 0, 0] = np.nan
        m.rows(a, tape)
        decodes = count_decodes(monkeypatch)
        m.row_grads(a, up, tape)
        assert len(decodes) == 1  # NaN != NaN: the blocks were built again

    def test_a_write_of_the_same_values_keeps_the_tape(self, ring, monkeypatch):
        m, tape, a, _, up = rule_case(monkeypatch, ring)
        want = m.row_grads(a, up)
        m.rows(a, tape)
        for g in m.cores:
            g[...] = g.copy()
        decodes = count_decodes(monkeypatch)
        assert same_bits(m.row_grads(a, up, tape), want)
        assert decodes == []  # the blocks came from the tape

    def test_a_cleared_tape_is_not_used(self, ring, monkeypatch):
        m, tape, a, _, up = rule_case(monkeypatch, ring)
        m.rows(a, tape)
        tape.clear()
        assert same_bits(m.row_grads(a, up, tape), m.row_grads(a, up))

    def test_a_half_kernel_call_leaves_the_tape_empty(self, ring, monkeypatch):
        m, tape, a, _, up = rule_case(monkeypatch, ring)
        m.rows(a, tape)
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 2)
        m.rows(a, tape)
        assert tape.block is None and tape.indices is None
        assert same_bits(m.row_grads(a, up, tape), m.row_grads(a, up))

    def test_a_matching_tape_is_used(self, ring, monkeypatch):
        m, tape, a, _, up = rule_case(monkeypatch, ring)
        want = m.row_grads(a, up)
        m.rows(a, tape)
        decodes = count_decodes(monkeypatch)
        assert same_bits(m.row_grads(a, up, tape), want)
        assert decodes == []  # the blocks came from the tape

    def test_float_indices_raise_even_with_a_matching_tape(self, ring, monkeypatch):
        m, tape, a, _, up = rule_case(monkeypatch, ring)
        m.rows(a, tape)
        with pytest.raises(TypeError):
            m.row_grads(a.astype(float), up, tape)


@pytest.mark.parametrize("ring", [1, 3])
@pytest.mark.parametrize("plan", [RULE_PLAN, FactorizationPlan((2, 3, 2, 3), (3, 2, 2, 2), 36, (2, 3, 2))])
def test_gradient_does_not_depend_on_the_blocking(plan, ring, monkeypatch):
    """row_grads from a tape, after a tape miss and without a tape gives the
    same bits whatever KERNEL_BLOCK is: a taped batch is one block."""
    monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
    m = random_tt(plan, 0.9, 40) if ring == 1 else random_tr(plan, ring, 0.9, 40)
    rng = np.random.default_rng(43)
    idx = rng.integers(plan.padded_rows, size=14)
    idx[-4:] = idx[:4]  # repeats
    assert all(np.any(x[1:] < x[:-1]) for x in MixedRadix(plan.row_factors).to_multi(idx))
    up = rng.standard_normal((idx.size, plan.cols))
    want = m.row_grads(idx, up)
    per_row = max(m._row_entries())
    decodes = count_decodes(monkeypatch)
    for block in (1, 2 * per_row, 5 * per_row, 1 << 20):
        monkeypatch.setattr(ttmatrix, "KERNEL_BLOCK", block)
        tape = ttmatrix.Tape()
        assert same_bits(m.row_grads(idx, up), want)
        m.rows(idx, tape)
        seen = len(decodes)
        assert same_bits(m.row_grads(idx, up, tape), want)
        assert len(decodes) == seen  # a tape hit
        m.rows((idx + 1) % plan.padded_rows, tape)
        assert same_bits(m.row_grads(idx, up, tape), want)
        assert len(decodes) == seen + 2  # a miss: the batch was built again


@pytest.mark.parametrize("ring", [1, 3])
@pytest.mark.parametrize("plan", [RULE_PLAN, FactorizationPlan((2, 3, 2, 3), (3, 2, 2, 2), 36, (2, 3, 2))])
def test_rows_without_a_tape_match_a_taped_call(plan, ring, monkeypatch):
    """rows() without a tape, decoded once and built _block_rows() rows at
    a time on a tape of its own, gives the bits of a taped call, which
    builds the batch as one block, whatever KERNEL_BLOCK is."""
    monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
    m = random_tt(plan, 0.9, 44) if ring == 1 else random_tr(plan, ring, 0.9, 44)
    rng = np.random.default_rng(45)
    idx = rng.integers(plan.padded_rows, size=14)
    idx[-4:] = idx[:4]  # repeats
    assert np.any(idx[1:] < idx[:-1])
    want = m.rows(idx, ttmatrix.Tape())
    per_row = max(m._row_entries())
    decodes = count_decodes(monkeypatch)
    blocks, prefixes = [], ttmatrix.TTMatrix._prefixes
    monkeypatch.setattr(ttmatrix.TTMatrix, "_prefixes",
                        lambda self, d, tape: blocks.append(d[0].size) or prefixes(self, d, tape))
    for block, rows in ((1, 1), (2 * per_row, 2), (5 * per_row, 5), (1 << 20, 14)):
        monkeypatch.setattr(ttmatrix, "KERNEL_BLOCK", block)
        del decodes[:], blocks[:]
        assert m.rows(idx).tobytes() == want.tobytes()
        assert len(decodes) == 1
        assert blocks == [rows] * (14 // rows) + [14 % rows] * (14 % rows > 0)
        assert m.rows(idx, ttmatrix.Tape()).tobytes() == want.tobytes()


@pytest.mark.parametrize("ring", [1, 3])
def test_a_steady_row_grads_holds_each_gradient_once(ring, monkeypatch):
    """A warm row_grads from a tape allocates little beyond the gradients
    it returns: each is summed straight into an array of its core's shape,
    not into a second layout that is then copied."""
    monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
    plan = FactorizationPlan((8, 8, 8), (16, 16, 2), 512, (32, 32))
    m = random_tt(plan, 0.9, 46) if ring == 1 else random_tr(plan, ring, 0.9, 46)
    idx = np.array([5, 300])
    up = np.random.default_rng(47).standard_normal((idx.size, plan.cols))
    tape = ttmatrix.Tape()
    m.rows(idx, tape)
    for _ in range(2):  # warm-up
        m.row_grads(idx, up, tape)
    tracemalloc.start()
    try:
        m.row_grads(idx, up, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cores = sum(c.nbytes for c in m.cores)
    assert cores > 1 << 20  # the gradients dwarf numpy's fixed-size buffers
    assert peak < 1.5 * cores


def reference_prefixes(self, digits, tape):
    """TTMatrix._prefixes as it was before the products landed in place:
    each middle core's slices gathered along its axis 1, one batched
    matmul into scratch, and a transposing copy into the next prefix."""
    b, c = digits[0].size, self.ring_rank
    flats = ttmatrix._carve(tape, "buffer", [b * e for e in self._prefix_entries()])
    out = [np.broadcast_to(np.eye(c), (b, c, c))]
    if len(self.cores) > 1:
        first = np.ascontiguousarray(self.cores[0].transpose(1, 2, 0, 3))
        _, j, _, r = first.shape
        acc = np.take(first, digits[0], axis=0, out=flats[0].reshape(b, j, c, r), mode="clip")
        out.append(acc.reshape(b, j * c, r))
    step = self._block_rows()
    for g, x, flat in zip(self.cores[1:-1], digits[1:-1], flats[1:]):
        acc = out[-1]
        r, _, jk, rk = g.shape
        p = acc.shape[1] // c
        nxt = flat.reshape(b, jk * p * c, rk)
        for s in range(0, b, step):
            xs = x[s : s + step]
            n = xs.size
            sl, mul = tape.scratch(n * r * jk * rk, n * p * c * jk * rk)
            sl = np.take(g, xs, axis=1, out=sl.reshape(r, n, jk, rk), mode="clip")
            sl = sl.transpose(1, 0, 2, 3).reshape(n, r, jk * rk)
            mul = np.matmul(acc[s : s + step], sl, out=mul.reshape(n, p * c, jk * rk))
            nxt[s : s + step].reshape(n, jk, p, c, rk)[...] = (
                mul.reshape(n, p, c, jk, rk).transpose(0, 3, 1, 2, 4))
        out.append(nxt)
    return out


PREFIX_PLANS = [
    FactorizationPlan((3, 4), (2, 3), 12, (3,)),
    RULE_PLAN,
    FactorizationPlan((3, 4, 2), (2, 3, 4), 24, (3, 1)),  # a rank-1 bond after a middle core
    FactorizationPlan((2, 3, 2, 3), (3, 2, 2, 2), 36, (2, 3, 2)),
    FactorizationPlan((2, 3, 2, 3), (3, 2, 2, 2), 36, (3, 1, 2)),
]


@pytest.mark.parametrize("ring", [1, 3])
@pytest.mark.parametrize("plan", PREFIX_PLANS, ids=["n2", "n3", "n3-rank1", "n4", "n4-rank1"])
@pytest.mark.parametrize("order", ["sorted", "unsorted", "repeated"])
def test_chain_kernel_matches_the_reference_prefixes(plan, ring, order, monkeypatch):
    """rows and row_grads, with and without a tape and in several blocks,
    give the bytes they give on the reference prefixes."""
    monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
    m = random_tt(plan, 0.9, 48) if ring == 1 else random_tr(plan, ring, 0.9, 48)
    monkeypatch.setattr(ttmatrix, "KERNEL_BLOCK", 3 * max(m._row_entries()))  # blocks of 3 rows
    rng = np.random.default_rng(49)
    idx = {"sorted": np.arange(plan.padded_rows), "unsorted": rng.permutation(plan.padded_rows),
           "repeated": rng.integers(plan.padded_rows, size=20)}[order]
    up = rng.standard_normal((idx.size, plan.cols))

    def outputs():
        tape = ttmatrix.Tape()
        return [m.rows(idx), m.rows(idx, tape), *m.row_grads(idx, up, tape), *m.row_grads(idx, up)]

    got = outputs()
    monkeypatch.setattr(ttmatrix.TTMatrix, "_prefixes", reference_prefixes)
    assert same_bits(got, outputs())


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

    def test_is_rows_over_all_padded_rows(self):
        models = [m for plan in HALF_PLANS for m in half_models(plan)]
        models.append(glorot_tt(plan_embedding(512, 512, 3, 16), seed=0))  # the compress table
        for m in models:
            dense = m.materialize()
            assert dense.flags.c_contiguous
            assert dense.tobytes() == m.rows(np.arange(m.plan.padded_rows)).tobytes()
        assert any(half_split(m, m.plan.padded_rows) for m in models)  # the half kernel ran

    def test_bad_cap_value_is_named(self, monkeypatch):
        m = ones_tt(FactorizationPlan((2, 2), (2, 2), 4, (1,)))
        monkeypatch.setenv(MATERIALIZE_CAP_ENV, "abc")
        with pytest.raises(ValueError, match=f"{MATERIALIZE_CAP_ENV}.*'abc'"):
            m.materialize()

    @pytest.mark.parametrize("raw", ["0", "-5"])
    def test_non_positive_cap_is_named(self, monkeypatch, raw):
        m = ones_tt(FactorizationPlan((2, 2), (2, 2), 4, (1,)))
        monkeypatch.setenv(MATERIALIZE_CAP_ENV, raw)
        with pytest.raises(ValueError, match=f"{MATERIALIZE_CAP_ENV} must be a positive.*'{raw}'"):
            m.materialize()

    def test_cap_enforced(self, monkeypatch):
        plan = FactorizationPlan((8, 8), (8, 8), 64, (1,))
        m = ones_tt(plan)
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


def reference_half_tables(m, s):
    """half_tables as it was before the merge step: a left-to-right loop
    and a mirrored right-to-left loop, each with its own GEMM and
    interleaving transpose."""
    left = m.cores[0]  # (c, I_L, J_L, R_k)
    for g in m.cores[1:s]:
        a, il, jl, r = left.shape
        _, ik, jk, rn = g.shape
        nxt = (left.reshape(-1, r) @ g.reshape(r, -1)).reshape(a, il, jl, ik, jk, rn)
        left = nxt.transpose(0, 3, 1, 4, 2, 5).reshape(a, ik * il, jk * jl, rn)
    right = m.cores[-1]  # (R_k, I_R, J_R, c)
    for g in reversed(m.cores[s:-1]):
        r, ik, jk, rn = g.shape
        _, ir, jr, a = right.shape
        nxt = (g.reshape(-1, rn) @ right.reshape(rn, -1)).reshape(r, ik, jk, ir, jr, a)
        right = nxt.transpose(0, 3, 1, 4, 2, 5).reshape(r, ir * ik, jr * jk, a)
    a, il, jl, r = left.shape
    ltab = left.transpose(1, 0, 3, 2).reshape(il, a * r, jl)
    rtab = right.transpose(1, 2, 3, 0).reshape(right.shape[1], right.shape[2], a * r)
    return ltab, rtab


MERGE_MODELS = {
    "lookup": lambda: glorot_tt(plan_embedding(100000, 64, 4, 8), seed=0),
    "train-uniform": lambda: glorot_tt(plan_embedding(25000, 256, 3, 16), seed=0),
    "train-ring": lambda: random_tr(plan_embedding(512, 512, 3, 16), 4, 0.1, 0),
    "compress": lambda: random_tt(plan_embedding(512, 512, 3, 16), 1.0, 0),
} | {
    f"{name}-ring{ring}": (lambda plan=plan, ring=ring: random_tt(plan, 0.9, 48)
                           if ring == 1 else random_tr(plan, ring, 0.9, 48))
    for name, plan in zip(["n2", "n3", "n3-rank1", "n4", "n4-rank1"], PREFIX_PLANS)
    for ring in (1, 3)
}


@pytest.mark.parametrize("name", MERGE_MODELS)
def test_half_tables_match_the_reference_on_every_split(name):
    """The merge step builds the tables the two loops built, byte for
    byte: on the bench models and the chain kernel's reference plans."""
    m = MERGE_MODELS[name]()
    for s in range(1, m.plan.n_cores):
        got, want = half_tables(m, s), reference_half_tables(m, s)
        assert [t.shape for t in got] == [t.shape for t in want] and same_bits(got, want)


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

    def test_zero_matrix_wide_unfolding(self):
        # first unfolding 16 x 256: the zero table through the QR route
        plan = FactorizationPlan((4, 4, 4), (4, 4, 4), 64, (5, 5))
        m = tt_svd(np.zeros((64, 64)), plan)
        assert all(np.all(c == 0) for c in m.cores)
        assert m.plan.ranks == m.bond_ranks == (1, 1)
        assert np.all(m.materialize() == 0)

    def test_threshold_scales_with_unfolding_not_r_factor(self):
        # first unfolding 16 x 256 with singular values 1 and 1e-10: the
        # threshold 1e-12 * 256 drops the second, 1e-12 * 16 (R's shape) would not
        plan = FactorizationPlan((4, 4, 4), (4, 4, 4), 64, (5, 5))
        rng = np.random.default_rng(10)
        u = np.linalg.qr(rng.standard_normal((16, 2)))[0]
        v = np.linalg.qr(rng.standard_normal((256, 2)))[0]
        mat = u @ np.diag([1.0, 1e-10]) @ v.T
        t = mat.reshape((4,) * 6, order="F")  # (i1, j1, i2, j2, i3, j3)
        dense = np.transpose(t, np.argsort([0, 3, 1, 4, 2, 5])).reshape((64, 64), order="F")
        assert tt_svd(dense, plan).plan.ranks[0] == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "plan",
        [
            FactorizationPlan((4, 4, 4), (4, 4, 4), 64, (5, 5)),  # 16 x 256
            FactorizationPlan((8, 2, 4), (8, 2, 4), 64, (5, 5)),  # 64 x 64
        ],
        ids=["wide", "square"],
    )
    def test_nonfinite_rejected_before_lapack(self, monkeypatch, plan, bad):
        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called on non-finite input")

        monkeypatch.setattr(ttmatrix, "svd", no_lapack)
        monkeypatch.setattr(np.linalg, "qr", no_lapack)
        dense = np.ones((64, 64))
        dense[37, 5] = bad
        with pytest.raises(ValueError, match="^tt_svd input contains non-finite entries$"):
            tt_svd(dense, plan)

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


def interleaved(dense, plan):
    """The (i_1, j_1, ..., i_N, j_N) tensor of a dense table."""
    n = plan.n_cores
    t = dense.reshape(plan.row_factors + plan.col_factors, order="F")
    return np.transpose(t, [ax for k in range(n) for ax in (k, n + k)])


def reference_tt_svd(dense, plan):
    """TT-SVD as Oseledets (2011, Alg. 1) writes it: a thin SVD of every
    unfolding, and s_r vt_r as the remainder."""
    rest, cores, r = interleaved(dense, plan), [], 1
    for k in range(plan.n_cores - 1):
        ik, jk = plan.row_factors[k], plan.col_factors[k]
        mat = rest.reshape((r * ik * jk, -1), order="F")
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        thresh = ttmatrix.TT_SVD_TRUNCATION_TOL * s[0] * max(mat.shape)
        rank = min(plan.ranks[k], int(np.count_nonzero(s > thresh)))
        cores.append(u[:, :rank].reshape((r, ik, jk, rank), order="F"))
        rest, r = s[:rank, None] * vt[:rank], rank
    cores.append(rest.reshape((r, plan.row_factors[-1], plan.col_factors[-1], 1), order="F"))
    return TTMatrix(cores=cores, plan=replace(plan, ranks=tuple(c.shape[3] for c in cores[:-1])))


def best_unfolding_errors_sq(dense, plan, ranks):
    """eps_k^2: the squared best rank-r_k error of the table's k-th unfolding."""
    t = interleaved(dense, plan)
    rows = np.cumprod(np.multiply(plan.row_factors, plan.col_factors))
    return [
        float(np.sum(np.linalg.svd(t.reshape((m, -1), order="F"), compute_uv=False)[r:] ** 2))
        for m, r in zip(rows, ranks)
    ]


# the first unfolding's transpose spans several of r_factor's row blocks
# and ends in a ragged one: 16 x 6000 (blocks of 2048 rows) and 4 x 16000
# (blocks of 8192)
MULTI_BLOCK_CASES = [
    (FactorizationPlan((4, 150), (4, 40), 600, (6,)), 1e-2),
    (FactorizationPlan((2, 50, 4), (2, 10, 8), 390, (4, 6)), None),
]
# first unfolding wide, square or tall; N = 2..4; padded rows where
# requested_rows < prod(row_factors); noise None is a Gaussian table
CONTRACT_CASES = [
    (FactorizationPlan((2, 8), (2, 8), 16, (3,)), 1e-2),
    (FactorizationPlan((4, 4), (4, 4), 16, (5,)), 1e-2),
    (FactorizationPlan((8, 2), (8, 2), 16, (3,)), 1e-2),
    (FactorizationPlan((5, 5), (3, 4), 23, (4,)), None),
    (FactorizationPlan((4, 4, 4), (2, 4, 4), 64, (4, 6)), 1e-2),
    (FactorizationPlan((3, 4, 4), (4, 4, 4), 40, (5, 5)), 1e-2),
    (FactorizationPlan((8, 2, 4), (8, 2, 4), 64, (5, 4)), 1e-2),
    (FactorizationPlan((8, 2, 2), (8, 2, 2), 32, (6, 3)), None),
    (FactorizationPlan((8, 2, 2), (8, 2, 2), 30, (6, 3)), 1e-2),
    (FactorizationPlan((2, 2, 2, 2), (4, 2, 2, 2), 16, (3, 4, 3)), 1e-2),
    (FactorizationPlan((3, 3, 3, 3), (3, 3, 3, 3), 70, (4, 6, 4)), None),
    (FactorizationPlan((9, 2, 2, 2), (8, 2, 2, 2), 68, (4, 5, 3)), 1e-2),
] + MULTI_BLOCK_CASES


def contract_table(plan, noise, seed):
    rng = np.random.default_rng(seed)
    shape = (plan.padded_rows, plan.cols)
    if noise is None:
        dense = rng.standard_normal(shape)
    else:
        dense = random_tt_from(rng, plan).materialize()
        dense += noise * np.linalg.norm(dense) / np.sqrt(dense.size) * rng.standard_normal(shape)
    dense[plan.requested_rows:] = 0.0  # padding rows, as `compress` fills them
    return dense


@pytest.fixture
def svd_shapes(monkeypatch):
    """The shapes of the matrices tt_svd hands to svd, in call order."""
    shapes = []
    real_svd = ttmatrix.svd

    def recording_svd(m):
        shapes.append(m.shape)
        return real_svd(m)

    monkeypatch.setattr(ttmatrix, "svd", recording_svd)
    return shapes


class TestTTSvdContract:
    @pytest.mark.parametrize("case", range(len(CONTRACT_CASES)))
    def test_error_bound_and_reference(self, svd_shapes, case):
        plan, noise = CONTRACT_CASES[case]
        dense = contract_table(plan, noise, seed=100 + case)
        m = tt_svd(dense, plan)
        rec = m.materialize()
        norm = np.linalg.norm(dense)
        # Oseledets 2011, Thm 2.2: ||A - TT||_F^2 <= sum_k eps_k^2.  At N = 2
        # it holds with equality (Eckart-Young), so allow rounding room.
        err_sq = np.linalg.norm(dense - rec) ** 2
        bound_sq = sum(best_unfolding_errors_sq(dense, plan, m.plan.ranks))
        assert err_sq <= bound_sq + 1e-12 * norm**2
        ref = reference_tt_svd(dense, plan)
        assert m.plan.ranks == ref.plan.ranks
        assert np.linalg.norm(rec - ref.materialize()) <= 1e-12 * norm
        # wide unfoldings reach svd as their square R^T factor
        assert len(svd_shapes) == plan.n_cores - 1
        assert all(rows >= cols for rows, cols in svd_shapes)

    @pytest.mark.parametrize("plan", [plan for plan, _ in MULTI_BLOCK_CASES])
    def test_multi_block_cases_end_in_a_ragged_block(self, plan):
        rows = plan.row_factors[0] * plan.col_factors[0]
        cols = plan.padded_rows * plan.cols // rows
        block = max(linalg.QR_BLOCK_ENTRIES // rows, 2 * rows)
        assert cols > block and cols % block

    def test_compress_plan_route(self, svd_shapes):
        plan = plan_embedding(512, 512, 3, 16)
        tt_svd(np.random.default_rng(3).standard_normal((512, 512)), plan)
        assert svd_shapes == [(64, 64), (1024, 64)]


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

    @pytest.mark.parametrize("std", [np.inf, np.nan])
    def test_std_must_be_finite(self, std):
        plan = FactorizationPlan((3, 3), (3, 3), 9, (2,))
        with pytest.raises(ValueError, match=f"^std must be positive and finite, got {std}$"):
            random_tt(plan, std, 0)

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

    @pytest.mark.parametrize("std", [np.inf, np.nan, 0.0])
    def test_std_must_be_positive_and_finite(self, std):
        plan = FactorizationPlan((3, 3), (3, 3), 9, (2,))
        with pytest.raises(ValueError, match=f"^std must be positive and finite, got {std}$"):
            glorot_tt(plan, 0, std=std)

    def test_std_whose_square_overflows_is_named(self):
        plan = FactorizationPlan((3, 3), (3, 3), 9, (2,))
        with pytest.raises(ValueError, match=r"^std must have a finite square, got 1e\+200$"):
            glorot_tt(plan, 0, std=1e200)
        # just inside the range the formula is unchanged
        want = random_tt(plan, (1e150**2 / 2.0) ** 0.25, 0)
        assert same_bits(glorot_tt(plan, 0, 1e150).cores, want.cores)

    def test_std_whose_core_std_underflows_is_named(self):
        plan = FactorizationPlan((3, 3), (3, 3), 9, (2,))
        with pytest.raises(ValueError, match=r"^std must have a per-core std above 0.0, got 1e-170$"):
            glorot_tt(plan, 0, std=1e-170)
        # just inside the range the formula is unchanged
        want = random_tt(plan, (1e-150**2 / 2.0) ** 0.25, 0)
        assert same_bits(glorot_tt(plan, 0, 1e-150).cores, want.cores)

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

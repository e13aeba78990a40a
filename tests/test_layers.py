import copy
import tracemalloc

import numpy as np
import pytest
from conftest import random_plan

from ttembed import ttmatrix
from ttembed.analysis import gradient_audit
from ttembed.indexing import MixedRadix
from ttembed.layers import LowRankEmbedding, TTEmbedding, random_lowrank
from ttembed.linalg import ShapeError
from ttembed.planning import FactorizationPlan
from ttembed.trmatrix import random_tr
from ttembed.ttmatrix import glorot_tt, random_tt


def single_row(m, i):
    """Row i of a chain contracted one core at a time: the op sequence the
    batched kernel must reproduce bit for bit."""
    ii = MixedRadix(m.plan.row_factors).to_multi(i)
    acc = m.cores[0][0, ii[0], :, :]
    for k in range(1, len(m.cores)):
        g = m.cores[k][:, ii[k], :, :]
        p, r = acc.shape
        jk, rk = g.shape[1], g.shape[2]
        nxt = (acc @ g.reshape(r, jk * rk)).reshape(p, jk, rk)
        acc = nxt.transpose(1, 0, 2).reshape(jk * p, rk)
    return acc[:, 0]


def single_row_halves(m, i, s):
    """Row i of the chain split after core s: each half contracted one core
    slice at a time, then one matrix product, the op sequence the half
    kernel must reproduce bit for bit."""
    ii = MixedRadix(m.plan.row_factors).to_multi(i)
    left = m.cores[0][:, ii[0]]  # (c, J_1..J_k, R_k)
    for k in range(1, s):
        g = m.cores[k][:, ii[k]]
        a, p, r = left.shape
        nxt = (left.reshape(a * p, r) @ g.reshape(r, -1)).reshape(a, p, *g.shape[1:])
        left = nxt.transpose(0, 2, 1, 3).reshape(a, -1, g.shape[2])
    right = m.cores[-1][:, ii[-1]]  # (R_k, J_{k+1}..J_N, c)
    for k in reversed(range(s, len(m.cores) - 1)):
        g = m.cores[k][:, ii[k]]
        r, jk, rn = g.shape
        _, q, a = right.shape
        nxt = (g.reshape(r * jk, rn) @ right.reshape(rn, q * a)).reshape(r, jk, q, a)
        right = nxt.transpose(0, 2, 1, 3).reshape(r, q * jk, a)
    a, p, r = left.shape
    rmat = right.transpose(1, 2, 0).reshape(-1, a * r)  # (J_{s+1}..J_N, c R_s)
    return (rmat @ left.transpose(0, 2, 1).reshape(a * r, p)).ravel()


def loop_backward(m, idx, upstream):
    """Core gradients accumulated one batch item at a time from explicit
    left and right environments: the reference for the batched backward."""
    grads = [np.zeros_like(c) for c in m.cores]
    ring = m.cores[0].shape[0]
    eye = np.eye(ring).reshape(ring, 1, ring)
    for i, u in zip(idx, upstream):
        digits = MixedRadix(m.plan.row_factors).to_multi(int(i))
        slices = [c[:, d, :, :] for c, d in zip(m.cores, digits)]
        left, right = [eye], [eye]
        for a in slices[:-1]:
            p = left[-1]
            left.append(np.einsum("cpa,ajb->cjpb", p, a).reshape(ring, -1, a.shape[2]))
        for a in reversed(slices[1:]):
            r = right[0]
            right.insert(0, np.einsum("ajb,bqc->aqjc", a, r).reshape(a.shape[0], -1, ring))
        for k, (lk, rk) in enumerate(zip(left, right)):
            u3 = np.reshape(u, (lk.shape[1], m.plan.col_factors[k], rk.shape[1]), order="F")
            grads[k][:, digits[k], :, :] += np.einsum("cpa,pjq,bqc->ajb", lk, u3, rk)
    return grads


class TestForward:
    def test_rows_match_weights(self):
        plan = FactorizationPlan((2, 3), (3, 2), 6, (2,))
        layer = TTEmbedding(random_tt(plan, 1.0, 0))
        out = layer.forward([0, 3, 5, 3])
        assert out.shape == (4, 6)
        for b, i in enumerate([0, 3, 5, 3]):
            assert np.array_equal(out[b], layer.weights.row(i))

    def test_vocab_smaller_than_padding(self):
        plan = FactorizationPlan((2, 3), (3, 2), 5, (2,))
        layer = TTEmbedding(random_tt(plan, 1.0, 1))
        assert layer.vocab == 5
        layer.forward([4])
        with pytest.raises(IndexError):
            layer.forward([5])  # padded row exists but is not served

    def test_negative_index(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (1,))
        layer = TTEmbedding(random_tt(plan, 1.0, 2))
        with pytest.raises(IndexError):
            layer.forward([-1])

    @pytest.mark.parametrize("big", [2**63, 2**64, 10**23, -(10**23)])
    def test_an_index_past_int64_is_named_as_outside_the_vocabulary(self, big):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (1,))
        for layer in (TTEmbedding(random_tt(plan, 1.0, 2)), random_lowrank(4, 4, 2, 1.0, 3)):
            with pytest.raises(IndexError, match=rf"^index {big} outside vocabulary \[0, 4\)$"):
                layer.forward([1, big])

    def test_vocab_override_validation(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (1,))
        w = random_tt(plan, 1.0, 3)
        with pytest.raises(ShapeError):
            TTEmbedding(w, vocab=5)


    def test_empty_batch(self):
        plan = FactorizationPlan((2, 3), (3, 2), 6, (2,))
        for layer in (TTEmbedding(random_tt(plan, 1.0, 12)),
                      TTEmbedding(random_tr(plan, 3, 1.0, 13)),
                      random_lowrank(6, 6, 2, 1.0, 14)):
            assert layer.forward([]).shape == (0, 6)
            grads = layer.backward([], np.zeros((0, 6)))
            assert len(grads) == len(layer.parameters())
            assert all(g.shape == p.shape and not g.any()
                       for g, p in zip(grads, layer.parameters()))


KERNEL_PLANS = [
    FactorizationPlan((7,), (5,), 7, ()),
    FactorizationPlan((3, 4, 2), (2, 3, 4), 24, (3, 2)),
    FactorizationPlan((2, 3, 2, 3), (3, 2, 2, 2), 36, (2, 3, 2)),
]


def kernel_case(plan):
    layer = TTEmbedding(glorot_tt(plan, 14, std=1.0))
    return layer, np.random.default_rng(8).integers(layer.vocab, size=40)


class TestBatchedKernel:
    @pytest.mark.parametrize("plan", KERNEL_PLANS)
    def test_tt_forward_bitwise_equals_row_loop(self, plan, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)  # the chain kernel
        layer, idx = kernel_case(plan)
        want = np.stack([single_row(layer.weights, int(i)) for i in idx])
        assert layer.forward(idx).tobytes() == want.tobytes()

    @pytest.mark.parametrize("plan", KERNEL_PLANS[1:])
    def test_tt_forward_halves_bitwise_equal_half_loop(self, plan, monkeypatch):
        layer, idx = kernel_case(plan)
        assert ttmatrix.half_split(layer.weights, np.unique(idx).size) == 2
        for s in range(1, plan.n_cores):
            if s != 2:  # force the other splits
                monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: s)
            want = np.stack([single_row_halves(layer.weights, int(i), s) for i in idx])
            assert layer.forward(idx).tobytes() == want.tobytes()
            monkeypatch.undo()

    @pytest.mark.parametrize("plan", KERNEL_PLANS[1:])
    def test_chain_and_halves_agree(self, plan):
        layer, idx = kernel_case(plan)
        m = layer.weights
        chain = np.stack([single_row(m, int(i)) for i in idx])
        for s in range(1, plan.n_cores):
            err = np.linalg.norm(ttmatrix.half_rows(m, idx, s) - chain, axis=1)
            assert np.all(err <= 1e-13 * np.linalg.norm(chain, axis=1))

    @pytest.mark.parametrize("ring", [1, 4])
    def test_backward_matches_item_loop(self, ring):
        plan = FactorizationPlan((2, 3, 2), (2, 2, 3), 12, (2, 3))
        layer = TTEmbedding(random_tr(plan, ring, 0.8, 17))
        idx = np.array([5, 0, 5, 11, 5, 0, 7])
        upstream = np.random.default_rng(11).standard_normal((7, 12))
        got = layer.backward(idx, upstream)
        for g, want in zip(got, loop_backward(layer.weights, idx, upstream)):
            assert np.allclose(g, want, rtol=1e-12, atol=1e-13)

    def test_fd_tt_repeated_indices(self):
        plan = FactorizationPlan((2, 3, 2), (2, 2, 3), 12, (2, 3))
        layer = TTEmbedding(random_tt(plan, 1.0, 15))
        idx = np.array([3, 7, 3, 11, 3, 7])
        upstream = np.random.default_rng(9).standard_normal((6, 12))
        assert gradient_audit(layer, idx, upstream) < 1e-5

    def test_fd_ring_rank_four_repeated_indices(self):
        plan = FactorizationPlan((2, 3, 2), (2, 2, 3), 12, (2, 3))
        layer = TTEmbedding(random_tr(plan, 4, 0.6, 16))
        idx = np.array([5, 0, 5, 11, 5, 0])
        upstream = np.random.default_rng(10).standard_normal((6, 12))
        assert gradient_audit(layer, idx, upstream) < 1e-5


GRAD_PLANS = [
    FactorizationPlan((7,), (5,), 7, ()),
    FactorizationPlan((3, 4), (2, 3), 12, (3,)),
    FactorizationPlan((3, 4, 2), (2, 3, 4), 24, (3, 2)),
    FactorizationPlan((2, 3, 2, 3), (3, 2, 2, 2), 36, (2, 3, 2)),
]


def grad_model(plan, ring):
    return random_tt(plan, 0.9, 40) if ring == 1 else random_tr(plan, ring, 0.9, 40)


def assert_grads_close(got, want):
    assert [g.shape for g in got] == [w.shape for w in want]
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


class TestRowGrads:
    """row_grads called directly, on rows in no order and with repeats, so
    that each core groups its rows by a sort: against the item loop."""

    @pytest.mark.parametrize("plan", GRAD_PLANS)
    @pytest.mark.parametrize("ring", [1, 3, 4])
    @pytest.mark.parametrize("block_rows", [None, 5])
    def test_unsorted_rows_with_repeats(self, plan, ring, block_rows, monkeypatch):
        m = grad_model(plan, ring)
        rng = np.random.default_rng(41)
        idx = rng.integers(plan.padded_rows, size=24)
        idx[-4:] = idx[:4]  # repeats
        digits = MixedRadix(plan.row_factors).to_multi(idx)
        assert all(np.any(x[1:] < x[:-1]) for x in digits)  # every core sorts
        upstream = rng.standard_normal((idx.size, plan.cols))
        if block_rows:
            monkeypatch.setattr(ttmatrix, "KERNEL_BLOCK", block_rows * max(m._row_entries()))
        assert_grads_close(m.row_grads(idx, upstream), loop_backward(m, idx, upstream))

    @pytest.mark.parametrize("ring", [1, 3])
    @pytest.mark.parametrize("idx", [[7, 7, 7], [2, 14, 8, 20], [17, 15, 16, 15], [11]])
    def test_shared_digits_and_one_row(self, ring, idx):
        # one row repeated, rows sharing their first digit, rows sharing
        # digits 2 and 3, and a single row
        plan = GRAD_PLANS[2]
        m = grad_model(plan, ring)
        upstream = np.random.default_rng(42).standard_normal((len(idx), plan.cols))
        assert_grads_close(m.row_grads(np.array(idx), upstream),
                           loop_backward(m, idx, upstream))

    def test_upstream_of_another_shape_is_named(self):
        plan = GRAD_PLANS[2]
        m = grad_model(plan, 3)
        upstream = np.zeros((4, plan.cols))
        with pytest.raises(ShapeError, match=rf"\(4, {plan.cols}\) != \(2, {plan.cols}\)"):
            m.row_grads(np.array([3, 5]), upstream)

    def test_extra_upstream_rows_are_not_dropped(self, monkeypatch):
        plan = GRAD_PLANS[2]
        m = grad_model(plan, 3)
        monkeypatch.setattr(ttmatrix, "KERNEL_BLOCK", 2 * max(m._row_entries()))  # 2-row blocks
        upstream = np.ones((6, plan.cols))
        with pytest.raises(ShapeError, match=rf"\(6, {plan.cols}\) != \(4, {plan.cols}\)"):
            m.row_grads(np.array([1, 2, 3, 4]), upstream)

    @pytest.mark.parametrize("plan", GRAD_PLANS)
    def test_empty_batch(self, plan):
        m = grad_model(plan, 3)
        grads = m.row_grads(np.array([], dtype=np.int64), np.zeros((0, plan.cols)))
        assert [g.shape for g in grads] == [c.shape for c in m.cores]
        assert not any(g.any() for g in grads)


class TestBackwardTT:
    def test_finite_difference(self):
        plan = FactorizationPlan((2, 3), (3, 2), 6, (2,))
        layer = TTEmbedding(random_tt(plan, 1.0, 4))
        rng = np.random.default_rng(0)
        idx = np.array([0, 2, 5])
        upstream = rng.standard_normal((3, 6))
        assert gradient_audit(layer, idx, upstream) < 1e-5

    def test_repeated_indices_accumulate(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        layer = TTEmbedding(random_tt(plan, 1.0, 5))
        u = np.random.default_rng(1).standard_normal((1, 4))
        single = layer.backward([1], u)
        double = layer.backward([1, 1], np.vstack([u, u]))
        for a, b in zip(single, double):
            assert np.allclose(2.0 * a, b)
        for a, b in zip(layer.backward([1], 2.0 * u), double):
            assert np.array_equal(a, b)  # repeated rows enter as one summed row

    def test_shape_validation(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        layer = TTEmbedding(random_tt(plan, 1.0, 6))
        with pytest.raises(ShapeError):
            layer.backward([0, 1], np.zeros((2, 3)))

    def test_property_random_layers(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            plan = random_plan(rng, n=int(rng.integers(2, 4)), max_factor=3, max_rank=2)
            layer = TTEmbedding(glorot_tt(plan, int(rng.integers(100)), std=1.0))
            idx = rng.integers(layer.vocab, size=2)
            upstream = rng.standard_normal((2, layer.dim))
            assert gradient_audit(layer, idx, upstream) < 1e-5


class TestBackwardTR:
    def test_finite_difference(self):
        plan = FactorizationPlan((2, 3), (3, 2), 6, (2,))
        layer = TTEmbedding(random_tr(plan, 2, 0.8, 7))
        rng = np.random.default_rng(3)
        idx = np.array([1, 4])
        upstream = rng.standard_normal((2, 6))
        assert gradient_audit(layer, idx, upstream) < 1e-5

    def test_ring_rank_three(self):
        plan = FactorizationPlan((2, 2, 2), (2, 2, 2), 8, (2, 2))
        layer = TTEmbedding(random_tr(plan, 3, 0.5, 8))
        rng = np.random.default_rng(4)
        idx = np.array([0, 7, 3])
        upstream = rng.standard_normal((3, 8))
        assert gradient_audit(layer, idx, upstream) < 1e-5


class TestApplyGradients:
    def test_descends_inner_product(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        layer = TTEmbedding(random_tt(plan, 1.0, 9))
        idx = [0, 3]
        u = np.random.default_rng(5).standard_normal((2, 4))

        def objective():
            return float(np.sum(layer.forward(idx) * u))

        before = objective()
        layer.apply_gradients(layer.backward(idx, u), 1e-3)
        assert objective() < before

    def test_mismatched_buffer(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        layer = TTEmbedding(random_tt(plan, 1.0, 10))
        bad = [np.zeros((1, 2, 2, 2))]
        with pytest.raises(ShapeError):
            layer.apply_gradients(bad, 0.1)

    def test_nonfinite_step(self):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
        layer = TTEmbedding(random_tt(plan, 1.0, 11))
        grads = layer.backward([0], np.ones((1, 4)))
        with pytest.raises(ValueError):
            layer.apply_gradients(grads, np.nan)


class TestLowRank:
    def test_forward_matches_materialize(self):
        layer = random_lowrank(10, 6, 3, 1.0, 0)
        dense = layer.materialize()
        out = layer.forward([0, 9, 4])
        for b, i in enumerate([0, 9, 4]):
            assert np.allclose(out[b], dense[i])

    def test_finite_difference(self):
        layer = random_lowrank(8, 5, 3, 1.0, 1)
        rng = np.random.default_rng(6)
        idx = np.array([0, 3, 3, 7])
        upstream = rng.standard_normal((4, 5))
        assert gradient_audit(layer, idx, upstream) < 1e-5

    def test_exact_gradients(self):
        layer = random_lowrank(6, 4, 2, 1.0, 2)
        rng = np.random.default_rng(7)
        idx = np.array([1, 1, 5])
        upstream = rng.standard_normal((3, 4))
        grads = layer.backward(idx, upstream)
        du = np.zeros_like(layer.u)
        dv = np.zeros_like(layer.v)
        for b, i in enumerate(idx):
            du[i] += upstream[b] @ layer.v
            dv += np.outer(upstream[b], layer.u[i])
        assert np.allclose(grads[0], du)
        assert np.allclose(grads[1], dv)

    def test_oov(self):
        layer = random_lowrank(4, 3, 2, 1.0, 3)
        with pytest.raises(IndexError):
            layer.forward([4])

    def test_param_count(self):
        layer = random_lowrank(10, 6, 3, 1.0, 4)
        assert layer.parameter_count() == 10 * 3 + 6 * 3

    @pytest.mark.parametrize("std", [np.inf, np.nan, 0.0, -1.0])
    def test_std_must_be_positive_and_finite(self, std):
        with pytest.raises(ValueError, match=f"^std must be positive and finite, got {std}$"):
            random_lowrank(10, 6, 3, std, 4)


def fresh_grads(layer, idx, upstream):
    """Gradients from a layer over the same weights that has run no
    forward, so it has no tape and recomputes everything."""
    return TTEmbedding(layer.weights, layer.vocab).backward(idx, upstream)


def assert_bitwise(got, want):
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def several_blocks(monkeypatch, m, rows):
    """Shrink KERNEL_BLOCK so the chain kernel serves `rows` rows a block."""
    monkeypatch.setattr(ttmatrix, "KERNEL_BLOCK", rows * max(m._row_entries()))


TAPE_PLAN = FactorizationPlan((3, 4, 2), (2, 3, 4), 24, (3, 2))


def tape_case(ring, seed=30):
    """A TT chain (ring 1) or a TR ring, and a batch with repeated rows."""
    m = random_tt(TAPE_PLAN, 0.9, seed) if ring == 1 else random_tr(TAPE_PLAN, ring, 0.9, seed)
    layer = TTEmbedding(m)
    rng = np.random.default_rng(seed)
    idx = rng.integers(layer.vocab, size=30)
    return layer, idx, rng.standard_normal((idx.size, layer.dim))


def test_materialize_serves_the_vocabulary():
    m = random_tr(TAPE_PLAN, 3, 0.9, 32)
    layer = TTEmbedding(m, vocab=20)
    assert layer.materialize().tobytes() == m.materialize()[:20].tobytes()


class TestTape:
    """forward keeps what the chain kernel built; backward of the same
    indices starts from it and must give the bits a recompute gives."""

    @pytest.mark.parametrize("ring", [1, 3])
    @pytest.mark.parametrize("block_rows", [None, 4])
    def test_tape_and_recompute_agree_bitwise(self, ring, block_rows, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)  # the chain kernel
        layer, idx, upstream = tape_case(ring)
        if block_rows:
            several_blocks(monkeypatch, layer.weights, block_rows)
        layer.forward(idx)
        digits, _ = layer._tape.block
        assert digits[0].size == np.unique(idx).size  # one block, whatever KERNEL_BLOCK is
        assert_bitwise(layer.backward(idx, upstream), fresh_grads(layer, idx, upstream))

    def test_half_kernel_batch_keeps_no_blocks(self):
        layer, idx = kernel_case(KERNEL_PLANS[1])
        assert ttmatrix.half_split(layer.weights, np.unique(idx).size) == 2
        upstream = np.random.default_rng(31).standard_normal((idx.size, layer.dim))
        layer.forward(idx)
        assert layer._tape.block is None
        assert_bitwise(layer.backward(idx, upstream), fresh_grads(layer, idx, upstream))

    @pytest.mark.parametrize("ring", [1, 3])
    def test_other_indices_recompute(self, ring, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(ring)
        other = (idx + 1) % layer.vocab  # same size, other rows
        layer.forward(idx)
        assert_bitwise(layer.backward(other, upstream), fresh_grads(layer, other, upstream))
        assert_bitwise(layer.backward(idx[:-1], upstream[:-1]),
                       fresh_grads(layer, idx[:-1], upstream[:-1]))

    def test_forward_copies_the_indices(self, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(3)
        layer.forward(idx)
        idx[0] = (idx[0] + 1) % layer.vocab  # the caller reuses its index array
        assert_bitwise(layer.backward(idx, upstream), fresh_grads(layer, idx, upstream))

    @pytest.mark.parametrize("ring", [1, 3])
    def test_apply_gradients_drops_the_tape(self, ring, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(ring)
        layer.forward(idx)
        before = layer.backward(idx, upstream)
        layer.apply_gradients(before, 0.1)
        after = layer.backward(idx, upstream)
        assert_bitwise(after, fresh_grads(layer, idx, upstream))
        assert not all(np.array_equal(a, b) for a, b in zip(before, after))

    @pytest.mark.parametrize("ring", [1, 3])
    @pytest.mark.parametrize("write", ["scale", "sgd", "view"])
    def test_an_in_place_write_after_forward_is_seen(self, ring, write, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(ring)
        view = layer.parameters()[1][:, 1:]  # a view taken before forward
        layer.forward(idx)
        if write == "scale":
            layer.parameters()[1] *= 2.0
        elif write == "sgd":  # an optimizer outside the layer
            for p, g in zip(layer.parameters(), fresh_grads(layer, idx, upstream)):
                p -= 0.1 * g
        else:
            view += 1.0
        assert_bitwise(layer.backward(idx, upstream), fresh_grads(layer, idx, upstream))

    @pytest.mark.parametrize("ring", [1, 3])
    def test_a_write_of_the_same_values_keeps_the_tape(self, ring, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(ring)
        want = fresh_grads(layer, idx, upstream)
        layer.forward(idx)
        for p in layer.parameters():
            p[...] = p.copy()
        decodes = count_calls(monkeypatch, MixedRadix, "to_multi")
        assert_bitwise(layer.backward(idx, upstream), want)
        assert decodes == []  # backward ran from the tape

    def test_replaced_cores_drop_the_tape(self, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(3)
        layer.forward(idx)
        layer.weights.cores[1] = 2.0 * layer.weights.cores[1]  # a new array, not a write
        assert_bitwise(layer.backward(idx, upstream), fresh_grads(layer, idx, upstream))

    def test_a_tape_refilled_by_a_shallow_copy_is_not_used(self, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(3)
        twin = copy.copy(layer)  # shares the weights and the tape
        layer.forward(idx)
        twin.forward((idx + 1) % layer.vocab)
        assert_bitwise(layer.backward(idx, upstream), fresh_grads(layer, idx, upstream))

    def test_a_tape_refilled_by_a_twin_with_the_same_batch_is_used(self, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(3)
        twin = copy.copy(layer)  # shares the weights and the tape
        want = fresh_grads(layer, idx, upstream)
        layer.forward(idx)
        twin.forward(idx.copy())
        decodes = count_calls(monkeypatch, MixedRadix, "to_multi")
        assert_bitwise(layer.backward(idx, upstream), want)
        assert decodes == []  # backward ran from the tape

    @pytest.mark.parametrize("ring", [1, 3])
    def test_rows_given_the_tape_drop_the_record(self, ring, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(ring)
        want = fresh_grads(layer, idx, upstream)
        layer.forward(idx)
        layer.weights.rows(np.arange(layer.vocab)[::-1], layer._tape)
        assert np.array_equal(layer._tape.indices, np.arange(layer.vocab)[::-1])
        decodes = count_calls(monkeypatch, MixedRadix, "to_multi")
        assert_bitwise(layer.backward(idx, upstream), want)
        assert len(decodes) == 1  # backward recomputed

    @pytest.mark.parametrize("ring", [1, 3])
    def test_backward_leaves_the_tape_unchanged(self, ring, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(ring)
        several_blocks(monkeypatch, layer.weights, 4)
        layer.forward(idx)
        kept = layer._tape.buffer.copy()
        first = layer.backward(idx, upstream)
        assert_bitwise(layer.backward(idx, upstream), first)
        assert layer._tape.buffer.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("ring", [1, 3])
    def test_other_row_calls_leave_the_tape_alone(self, ring, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(ring)
        several_blocks(monkeypatch, layer.weights, 4)
        want = fresh_grads(layer, idx, upstream)
        layer.forward(idx)
        decodes = count_calls(monkeypatch, MixedRadix, "to_multi")
        layer.weights.materialize()
        layer.weights.rows(np.arange(layer.vocab)[::-1])
        assert len(decodes) == 2
        assert_bitwise(layer.backward(idx, upstream), want)
        assert len(decodes) == 2  # backward ran from the tape


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap owner.name so that each call appends to the returned list."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestTapeTraffic:
    @pytest.mark.parametrize("ring", [1, 3])
    def test_only_a_tape_handed_in_copies_the_cores(self, ring, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(ring)
        several_blocks(monkeypatch, layer.weights, 4)
        rows = np.unique(idx)
        records = count_calls(monkeypatch, ttmatrix.Tape, "record")
        layer.weights.rows(idx)
        layer.weights.row_grads(rows, upstream[: rows.size])
        assert records == []  # the tapes these calls made for themselves
        layer.forward(idx)
        assert len(records) == 1
        layer.backward(idx, upstream)
        assert len(records) == 1  # backward ran from the tape

    def test_step_decodes_and_sweeps_once(self, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(3)
        several_blocks(monkeypatch, layer.weights, 4)
        decodes = count_calls(monkeypatch, MixedRadix, "to_multi")
        sweeps = count_calls(monkeypatch, ttmatrix.TTMatrix, "_prefixes")
        layer.forward(idx)
        layer.backward(idx, upstream)
        assert len(decodes) == 1
        assert len(sweeps) == 1  # the taped batch is one block

    @pytest.mark.parametrize("ring", [1, 3])
    def test_repeated_step_reuses_the_buffer(self, ring, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(ring)
        several_blocks(monkeypatch, layer.weights, 4)

        def step():
            layer.forward(idx)
            layer.apply_gradients(layer.backward(idx, upstream), 1e-3)
            return layer._tape.buffer

        first = step()
        assert step() is first
        layer.forward(idx[:5])  # a smaller batch fits in the same buffer
        assert layer._tape.buffer is first

    @pytest.mark.parametrize("ring", [1, 3])
    def test_repeated_step_reuses_the_workspace(self, ring, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(ring)

        def step(n):
            layer.forward(idx[:n])
            layer.apply_gradients(layer.backward(idx[:n], upstream[:n]), 1e-3)
            return layer._tape.work

        first = step(idx.size)  # warm-up
        assert step(idx.size) is first
        assert step(5) is first  # a smaller batch fits in the same workspace

    @pytest.mark.parametrize("ring", [1, 3])
    def test_a_steady_step_allocates_no_batch_sized_array(self, ring, monkeypatch):
        # each row: 512 columns and a last prefix of 512 * ring entries, so
        # an array of either for 32 rows takes 128 KiB; the cores 3 KiB
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        plan = FactorizationPlan((4, 4, 4), (16, 16, 2), 64, (2, 2))
        m = random_tt(plan, 0.9, 50) if ring == 1 else random_tr(plan, ring, 0.9, 50)
        upstream = np.random.default_rng(51).standard_normal((64, plan.cols))
        tape = ttmatrix.Tape()

        def peaks(b):
            """Traced peaks of a steady rows() and row_grads() on b rows,
            beyond the rows returned."""
            idx = np.arange(b) * 64 // b
            for _ in range(2):  # warm-up
                m.rows(idx, tape)
                m.row_grads(idx, upstream[:b], tape)
            tracemalloc.start()
            try:
                out = m.rows(idx, tape)
                forward = tracemalloc.get_traced_memory()[1] - out.nbytes
                tracemalloc.reset_peak()
                m.row_grads(idx, upstream[:b], tape)
                return forward, tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()

        big = peaks(64)
        small = peaks(32)
        # twice the rows, the same allocations: only numpy's fixed-size
        # ufunc buffers, no array that grows with the batch
        assert big[0] - small[0] < 16_000 and big[1] - small[1] < 16_000

    @pytest.mark.parametrize("ring", [1, 3])
    def test_repeated_step_reuses_the_core_copies(self, ring, monkeypatch):
        monkeypatch.setattr(ttmatrix, "half_split", lambda m, b: 0)
        layer, idx, upstream = tape_case(ring)

        def step():
            layer.forward(idx)
            layer.apply_gradients(layer.backward(idx, upstream), 1e-3)
            return list(layer._tape.cores)

        first = step()
        assert all(a is b for a, b in zip(step(), first)) and len(first) == 3
        layer.forward(idx[:5])  # another batch copies into the same arrays
        assert all(a is b for a, b in zip(layer._tape.cores, first))

"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE <n> PASS`` line once its assertions hold (run pytest with
``-s`` to see the lines as they happen; a failing test reports FAIL
through pytest itself).
"""

import math
import struct
import time

import numpy as np
import pytest

from ttembed.analysis import check_full_rank, gradient_audit, init_statistics
from ttembed.fileformat import FileFormatError, load_tt, save_tt
from ttembed.indexing import MixedRadix
from ttembed.layers import TTEmbedding, random_lowrank
from ttembed.linalg import ShapeError, numerical_rank
from ttembed.planning import PAD_SLACK, FactorizationPlan, factorize_balanced, plan_embedding
from ttembed.training import TrainConfig, run
from ttembed.trmatrix import random_tr
from ttembed.ttmatrix import TTMatrix, delta_identity_tt, glorot_tt, random_tt, tt_svd


def report(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


def small_random_plan(rng, n, max_entries):
    while True:
        rows = tuple(int(rng.integers(2, 5)) for _ in range(n))
        cols = tuple(int(rng.integers(2, 5)) for _ in range(n))
        if math.prod(rows) * math.prod(cols) <= max_entries:
            break
    ranks = tuple(int(rng.integers(1, 4)) for _ in range(n - 1))
    return FactorizationPlan(rows, cols, math.prod(rows), ranks)


def random_cores(rng, plan, closure=1):
    ranks = (closure,) + plan.ranks + (closure,)
    return [
        rng.standard_normal(
            (ranks[k], plan.row_factors[k], plan.col_factors[k], ranks[k + 1])
        )
        for k in range(plan.n_cores)
    ]


def test_acceptance_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(50):
        n = int(rng.integers(2, 5))
        plan = small_random_plan(rng, n, max_entries=2**12)
        m = TTMatrix(cores=random_cores(rng, plan), plan=plan)
        dense = m.materialize()
        scale = np.abs(dense).max()
        for i in range(plan.padded_rows):
            assert np.max(np.abs(m.row(i) - dense[i])) <= 1e-12 * scale
        for _ in range(10):
            i = int(rng.integers(plan.padded_rows))
            j = int(rng.integers(plan.cols))
            assert abs(m.element(i, j) - dense[i, j]) <= 1e-12 * scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"50 instances, element/row/materialize agree at 1e-12 ({elapsed:.2f}s)")


def test_acceptance_2_index_bijection():
    t0 = time.perf_counter()
    r = MixedRadix((2, 3, 4))
    assert r.to_multi(17) == (1, 2, 2)
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 20:
        n = int(rng.integers(1, 5))
        factors = tuple(int(rng.integers(1, 12)) for _ in range(n))
        radix = MixedRadix(factors)
        if radix.capacity > 10_000:
            continue
        seen = set()
        for i in range(radix.capacity):
            multi = radix.to_multi(i)
            assert radix.from_multi(multi) == i
            seen.add(multi)
        assert len(seen) == radix.capacity
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"20 exhaustive roundtrips plus hand trace ({elapsed:.2f}s)")


def oracle_balanced(size, n):
    """Brute force: best (imbalance, product, lexicographic) ascending
    factor tuple of exactly `size`, or None."""
    best = None

    def rec(remaining, k, lo, acc):
        nonlocal best
        if k == 1:
            if remaining >= lo:
                cand = tuple(acc) + (remaining,)
                key = (cand[-1] - cand[0], size, cand)
                if best is None or key < best:
                    best = key
            return
        f = lo
        while f**k <= remaining:
            if remaining % f == 0:
                rec(remaining // f, k - 1, f, acc + [f])
            f += 1

    rec(size, n, 1 if n == 1 else 2, [])
    return None if best is None else best[2]


def test_acceptance_3_shape_planner():
    t0 = time.perf_counter()
    assert factorize_balanced(512, 3) == (8, 8, 8)
    assert factorize_balanced(480, 4) == (4, 4, 5, 6)
    for n in (2, 3, 4):
        for size in range(2, 10_001):
            want = oracle_balanced(size, n)
            if want is None:
                with pytest.raises(ShapeError):
                    factorize_balanced(size, n)
            else:
                assert factorize_balanced(size, n) == want, (size, n)
    # padded mode sampled against a windowed oracle
    rng = np.random.default_rng(103)
    for n in (2, 3, 4):
        for size in rng.integers(2, 10_001, size=10):
            size = int(size)
            hi = math.ceil(size * (1 + PAD_SLACK))
            best = None
            for s in range(size, hi + 1):
                cand = oracle_balanced(s, n)
                if cand is None:
                    continue
                key = (cand[-1] - cand[0], s, cand)
                if best is None or key < best:
                    best = key
            if best is None:
                with pytest.raises(ShapeError):
                    factorize_balanced(size, n, allow_padding=True)
            else:
                assert factorize_balanced(size, n, allow_padding=True) == best[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, f"reference cases plus brute-force agreement to 10^4 ({elapsed:.2f}s)")


def test_acceptance_4_parameter_accounting():
    plan = FactorizationPlan((8, 8, 8), (8, 8, 8), 512, (16, 16))
    s = random_tt(plan, 1.0, 0).stats()
    assert s.tt_params == 18432
    assert s.dense_params == 262144
    assert float(s.ratio) == pytest.approx(14.222222222222221)
    rank1 = FactorizationPlan((8, 8, 8), (8, 8, 8), 512, (1, 1))
    assert random_tt(rank1, 1.0, 0).stats().tt_params == 3 * 64
    dense = FactorizationPlan((512,), (512,), 512, ())
    sd = random_tt(dense, 1.0, 0).stats()
    assert sd.tt_params == sd.dense_params == 262144
    assert sd.ratio == 1.0
    report(4, "18432/262144 params, ratio 14.222..., edge cases exact")


def test_acceptance_5_tt_svd_losslessness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        plan = small_random_plan(rng, n, max_entries=2**12)
        dense = TTMatrix(cores=random_cores(rng, plan), plan=plan).materialize()
        rec = tt_svd(dense, plan).materialize()
        assert np.linalg.norm(rec - dense) <= 1e-10 * np.linalg.norm(dense)
    fixed = np.random.default_rng(1055).standard_normal((64, 64))
    errs = []
    for r in (1, 2, 4, 8, 16):
        plan = FactorizationPlan((4, 4, 4), (4, 4, 4), 64, (r, r))
        errs.append(np.linalg.norm(tt_svd(fixed, plan).materialize() - fixed))
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, f"20 lossless roundtrips, monotone rank ladder ({elapsed:.2f}s)")


def test_acceptance_6_gradient_audit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    for trial in range(20):
        n = int(rng.integers(2, 4))
        while True:
            plan = small_random_plan(rng, n, max_entries=2**10)
            if sum(c.size for c in random_cores(rng, plan)) <= 2000:
                break
        if trial % 3 == 2:
            weights = random_tr(plan, 2, 0.8, int(rng.integers(10_000)))
        else:
            weights = glorot_tt(plan, int(rng.integers(10_000)), std=1.0)
        layer = TTEmbedding(weights)
        batch = int(rng.integers(1, 5))
        idx = rng.integers(0, layer.vocab, size=batch)
        if batch >= 2:
            idx[1] = idx[0]  # force a repeated index
        upstream = rng.standard_normal((batch, layer.dim))
        assert gradient_audit(layer, idx, upstream) < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, f"20 layers incl. repeats and TR within 1e-5 ({elapsed:.2f}s)")


def test_acceptance_7_full_rank_contrast():
    t0 = time.perf_counter()
    plan = FactorizationPlan((4, 4, 4), (4, 4, 4), 64, (2, 2))
    witness = delta_identity_tt(plan).materialize()
    assert np.array_equal(witness, np.eye(64))
    reports = check_full_rank(plan, seeds=range(100), tol_factor=1e-9)
    assert reports[0].full_rank  # the witness report
    assert all(r.numerical_rank == 64 for r in reports[1:])
    assert len(reports) == 101
    baseline = random_lowrank(64, 64, 1, 1.0, 0)
    assert numerical_rank(baseline.materialize()) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, f"identity witness, 100/100 full rank vs low-rank 1 ({elapsed:.2f}s)")


def test_acceptance_8_init_calibration():
    t0 = time.perf_counter()
    plan = FactorizationPlan((5, 5, 5, 5), (5, 5, 5, 5), 625, (1, 1, 1))
    reports = init_statistics(plan, [1, 16], draws=32, sigma=1.0, seed=108)
    r1, r16 = reports
    assert r1.sample_count >= 1_000_000
    for r in reports:
        assert abs(r.mean) < 0.01
        assert abs(r.variance - 1.0) < 0.10
    assert r1.excess_kurtosis > r16.excess_kurtosis
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(
        8,
        f"|mean|<0.01, |var-1|<0.10, kurtosis {r1.excess_kurtosis:.2f} -> "
        f"{r16.excess_kurtosis:.2f} ({elapsed:.2f}s)",
    )


def test_acceptance_9_trainability():
    t0 = time.perf_counter()
    # matrix fit at maximal ranks
    fit_plan = FactorizationPlan((4, 4), (4, 4), 16, (16,))
    fit_cfg = TrainConfig(plan=fit_plan, task="matrix-fit", steps=2000, batch=16,
                          lr=0.05, seed=109)
    trace = run(fit_cfg)
    ratio = trace.metadata["final_full_mse"] / trace.metadata["initial_full_mse"]
    assert ratio < 0.01

    # classification beats 0.95 at >= 2x parameter reduction
    cls_plan = plan_embedding(64, 64, 2, 8)
    cls_cfg = TrainConfig(plan=cls_plan, task="toy-classify", steps=400, batch=16,
                          lr=0.5, seed=109)
    cls = run(cls_cfg)
    dense_params = 64 * 64
    assert cls.metadata["heldout_accuracy"] > 0.95
    assert cls.metadata["embedding_parameters"] * 2 <= dense_params

    # frozen trace at lr=0
    frozen = run(TrainConfig(plan=fit_plan, task="matrix-fit", steps=50, batch=4,
                             lr=0.0, seed=1))
    assert frozen.metadata["final_full_mse"] == frozen.metadata["initial_full_mse"]
    assert len(set(frozen.losses)) <= len(frozen.losses)  # losses vary only by batch

    # bitwise determinism
    again = run(fit_cfg)
    assert again.losses == trace.losses
    assert again.final_checksum == trace.final_checksum
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(
        9,
        f"mse ratio {ratio:.4f}, accuracy {cls.metadata['heldout_accuracy']:.3f} at "
        f"{dense_params / cls.metadata['embedding_parameters']:.1f}x reduction, "
        f"frozen and bitwise-reproducible ({elapsed:.2f}s)",
    )


def test_acceptance_10_serialization(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    path = tmp_path / "m.tte"
    for trial in range(100):
        n = int(rng.integers(2, 5))
        plan = small_random_plan(rng, n, max_entries=2**10)
        if trial % 2:
            m = random_tr(plan, int(rng.integers(1, 4)), 1.0, trial)
        else:
            m = random_tt(plan, 1.0, trial)
        save_tt(path, m)
        back = load_tt(path)
        assert type(back) is type(m)
        assert all(np.array_equal(a, b) for a, b in zip(back.cores, m.cores))
        assert back.plan == m.plan
        second = tmp_path / "second.tte"
        save_tt(second, back)
        assert second.read_bytes() == path.read_bytes()

    plan = FactorizationPlan((2, 2), (2, 2), 4, (2,))
    save_tt(path, random_tt(plan, 1.0, 0))
    base = path.read_bytes()

    def expect(mutate, snippet):
        bad = tmp_path / "bad.tte"
        buf = bytearray(base)
        bad.write_bytes(bytes(mutate(buf)))
        with pytest.raises(FileFormatError) as err:
            load_tt(bad)
        assert snippet in str(err.value)
        return str(err.value)

    def nan_payload(buf):
        struct.pack_into("<d", buf, len(buf) - 8, float("nan"))
        return buf

    def break_chain(buf):
        struct.pack_into("<I", buf, 8 + 12, 9)
        return buf

    messages = {
        expect(lambda b: bytearray(b"WRNG") + b[4:], "bad magic"),
        expect(lambda b: b[:-8], "payload length mismatch"),
        expect(break_chain, "rank chain"),
        expect(nan_payload, "non-finite"),
    }
    assert len(messages) == 4  # each corruption class gets its own error
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(10, f"100 bitwise roundtrips, 4 distinct corruption errors ({elapsed:.2f}s)")

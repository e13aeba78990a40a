import numpy as np
import pytest

from ttembed.planning import FactorizationPlan, plan_embedding
from ttembed.training import (
    DivergenceError,
    TrainConfig,
    run,
    run_matrix_fit,
    run_toy_classify,
)

SMALL = FactorizationPlan((4, 4), (4, 4), 16, (2,))


class TestConfig:
    def test_rejects_bad_task(self):
        with pytest.raises(ValueError):
            TrainConfig(plan=SMALL, task="mnist")

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            TrainConfig(plan=SMALL, kind="cp")

    def test_rejects_negative_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(plan=SMALL, lr=-0.1)

    def test_zero_lr_allowed(self):
        TrainConfig(plan=SMALL, lr=0.0)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            TrainConfig(plan=SMALL, steps=0)

    @pytest.mark.parametrize("name", ["steps", "batch", "seed", "ring_rank", "lowrank_dim"])
    def test_rejects_a_non_integer(self, name):
        with pytest.raises(TypeError, match=f"^{name} 2.5 is not an integer$"):
            TrainConfig(plan=SMALL, **{name: 2.5})

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            TrainConfig(plan=SMALL, seed=-1)
        assert TrainConfig(plan=SMALL, seed=0).seed == 0

    def test_takes_numpy_integers_as_ints(self):
        cfg = TrainConfig(plan=SMALL, steps=np.int64(3), seed=np.uint8(4))
        assert (type(cfg.steps), type(cfg.seed)) == (int, int)

    @pytest.mark.parametrize("kind, std", [
        ("lowrank", np.nan), ("tt", np.inf), ("tr", 0.0), ("dense", -0.5),
    ])
    def test_rejects_an_init_std_outside_zero_to_inf(self, kind, std):
        # a NaN lowrank std used to diverge at step 0, an inf tt std to fail
        # as "core 0 contains non-finite entries"
        with pytest.raises(ValueError, match=f"^init_std must be positive and finite, got {std}$"):
            TrainConfig(plan=SMALL, kind=kind, init_std=std)

    @pytest.mark.parametrize("name", ["ring_rank", "lowrank_dim"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_rejects_rank_below_one(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            TrainConfig(plan=SMALL, **{name: value})


class TestMatrixFit:
    def test_loss_decreases(self):
        # bond rank 16 = full unfolding rank, so the target is representable
        plan = FactorizationPlan((4, 4), (4, 4), 16, (16,))
        cfg = TrainConfig(plan=plan, steps=600, batch=8, lr=0.05, seed=0)
        trace = run_matrix_fit(cfg)
        assert len(trace.losses) == 600
        head = np.mean(trace.losses[:20])
        tail = np.mean(trace.losses[-20:])
        assert tail < 0.1 * head
        assert trace.metadata["final_full_mse"] < 0.1 * trace.metadata["initial_full_mse"]

    def test_capacity_limited_plan_still_improves(self):
        cfg = TrainConfig(plan=SMALL, steps=300, batch=8, lr=0.05, seed=0)
        trace = run_matrix_fit(cfg)
        assert trace.metadata["final_full_mse"] < trace.metadata["initial_full_mse"]

    def test_zero_lr_is_constant(self):
        cfg = TrainConfig(plan=SMALL, steps=50, batch=4, lr=0.0, seed=1)
        trace = run_matrix_fit(cfg)
        assert trace.metadata["final_full_mse"] == trace.metadata["initial_full_mse"]

    def test_bitwise_reproducible(self):
        cfg = TrainConfig(plan=SMALL, steps=40, batch=4, lr=0.05, seed=2)
        a = run_matrix_fit(cfg)
        b = run_matrix_fit(cfg)
        assert a.losses == b.losses
        assert a.final_checksum == b.final_checksum

    def test_whole_trace_reproducible(self):
        cfg = TrainConfig(plan=SMALL, steps=20, batch=4, lr=0.05, seed=2, kind="tr")
        assert run(cfg) == run(cfg)

    def test_seed_changes_trace(self):
        a = run_matrix_fit(TrainConfig(plan=SMALL, steps=10, seed=3))
        b = run_matrix_fit(TrainConfig(plan=SMALL, steps=10, seed=4))
        assert a.final_checksum != b.final_checksum

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reported_with_step(self):
        cfg = TrainConfig(plan=SMALL, steps=500, batch=4, lr=50.0, seed=5)
        with pytest.raises(DivergenceError) as err:
            run_matrix_fit(cfg)
        assert 0 <= err.value.step < 500

    @pytest.mark.parametrize("kind", ["tt", "tr", "lowrank", "dense"])
    def test_all_kinds_trainable(self, kind):
        cfg = TrainConfig(plan=SMALL, task="matrix-fit", steps=300, batch=8,
                          lr=0.05, seed=6, kind=kind, lowrank_dim=16)
        trace = run_matrix_fit(cfg)
        assert trace.metadata["final_full_mse"] < trace.metadata["initial_full_mse"]

    def test_wrong_task_guard(self):
        with pytest.raises(ValueError):
            run_matrix_fit(TrainConfig(plan=SMALL, task="toy-classify"))


class TestToyClassify:
    def test_learns_separable_task(self):
        plan = plan_embedding(64, 16, 2, 4)
        cfg = TrainConfig(plan=plan, task="toy-classify", steps=400, batch=16,
                          lr=0.5, seed=0)
        trace = run_toy_classify(cfg)
        assert trace.metadata["heldout_accuracy"] >= 0.95
        assert trace.metadata["heldout_accuracy"] > trace.metadata["initial_accuracy"]
        assert trace.metadata["embedding_parameters"] == 2 * (8 * 4 * 4)

    def test_reproducible(self):
        plan = plan_embedding(16, 8, 2, 2)
        cfg = TrainConfig(plan=plan, task="toy-classify", steps=30, batch=8,
                          lr=0.3, seed=1)
        a = run_toy_classify(cfg)
        b = run_toy_classify(cfg)
        assert a.losses == b.losses
        assert a.final_checksum == b.final_checksum

    def test_whole_trace_reproducible(self):
        plan = plan_embedding(16, 8, 2, 2)
        cfg = TrainConfig(plan=plan, task="toy-classify", steps=30, batch=8, lr=0.3, seed=1)
        assert run(cfg) == run(cfg)

    def test_large_margins_do_not_overflow(self):
        # at lr 50 the margins y*z pass 709, where exp(y*z) overflows
        plan = plan_embedding(64, 64, 2, 8)
        cfg = TrainConfig(plan=plan, task="toy-classify", lr=50.0, seed=1)
        with np.errstate(over="raise"):
            trace = run_toy_classify(cfg)
        assert np.all(np.isfinite(trace.losses))

    def test_wrong_task_guard(self):
        with pytest.raises(ValueError):
            run_toy_classify(TrainConfig(plan=SMALL, task="matrix-fit"))

    def test_dispatch(self):
        plan = plan_embedding(16, 8, 2, 2)
        cfg = TrainConfig(plan=plan, task="toy-classify", steps=5, batch=4, seed=2)
        trace = run(cfg)
        assert "heldout_accuracy" in trace.metadata
        cfg2 = TrainConfig(plan=SMALL, task="matrix-fit", steps=5, batch=4, seed=2)
        assert "final_full_mse" in run(cfg2).metadata

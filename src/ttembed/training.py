"""Desk-scale training demos.

Two tasks prove the layers are trainable by plain SGD:

* matrix-fit: regress the layer onto a fixed random target matrix with
  batched mean-squared error;
* toy-classify: sentences of 8 tokens drawn from one half of the
  vocabulary, mean-pooled embedding, linear head, logistic loss, head
  and cores trained jointly.

Both run through one SGD loop, _sgd.  Each task hands it a function
that draws one batch and returns its loss, indices and upstream
gradient; the loop owns the step count, the finite-loss check that
raises DivergenceError, the list of losses and the layer's update.  The
classifier's head steps inside its task's batch function.

Everything is driven by a seeded generator, single-threaded, so
identical configs produce bitwise-identical traces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .layers import TTEmbedding, random_lowrank
from .planning import FactorizationPlan, _as_int, _positive_finite
from .trmatrix import random_tr
from .ttmatrix import glorot_tt

TASKS = ("matrix-fit", "toy-classify")
KINDS = ("tt", "tr", "lowrank", "dense")
_RANDOM_STD = 0.3  # entry std of the tr and lowrank initializers when none is given


class DivergenceError(RuntimeError):
    """Loss became non-finite; carries the offending step number."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


@dataclass
class TrainConfig:
    plan: FactorizationPlan
    task: str = "matrix-fit"
    steps: int = 1000
    batch: int = 16
    lr: float = 0.05
    seed: int = 0
    kind: str = "tt"
    ring_rank: int = 2
    lowrank_dim: int = 8
    init_std: float | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        for name in ("steps", "batch", "seed", "ring_rank", "lowrank_dim"):
            setattr(self, name, _as_int(getattr(self, name), name))
        if self.steps < 1 or self.batch < 1:
            raise ValueError("steps and batch must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("ring_rank", "lowrank_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (np.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError("learning rate must be finite and >= 0")
        if self.init_std is not None:
            _positive_finite(self.init_std, "init_std")


@dataclass
class TrainTrace:
    losses: list
    final_checksum: str
    metadata: dict = field(default_factory=dict)


def _weights(plan: FactorizationPlan, kind: str, seed: int, std, ring_rank: int):
    """Seeded weights of a ``tt`` chain (``glorot_tt``, Glorot std unless
    given) or a ``tr`` ring (``random_tr``, ``_RANDOM_STD`` unless given)."""
    if kind == "tt":
        return glorot_tt(plan, seed, std=std)
    return random_tr(plan, ring_rank, _RANDOM_STD if std is None else std, seed)


def _make_layer(cfg: TrainConfig, vocab: int):
    plan, seed, kind = cfg.plan, cfg.seed + 1, cfg.kind
    if kind == "lowrank":
        std = _RANDOM_STD if cfg.init_std is None else cfg.init_std
        return random_lowrank(plan.padded_rows, plan.cols, cfg.lowrank_dim, std, seed)
    if kind == "dense":  # a one-core chain is the whole table
        plan = FactorizationPlan((plan.padded_rows,), (plan.cols,), plan.requested_rows, ())
        kind = "tt"
    return TTEmbedding(_weights(plan, kind, seed, cfg.init_std, cfg.ring_rank), vocab=vocab)


def _checksum(layer) -> str:
    h = hashlib.sha256()
    for p in layer.parameters():
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _sgd(cfg: TrainConfig, layer, batch_step) -> list:
    """cfg.steps SGD steps on the layer; returns the losses.

    batch_step() draws one batch and returns (loss, indices, upstream),
    upstream being d loss / d forward(indices); it updates any parameters
    of its own.  A non-finite loss raises DivergenceError(step) before the
    layer takes that step.
    """
    losses = []
    for step in range(cfg.steps):
        loss, idx, upstream = batch_step()
        if not np.isfinite(loss):
            raise DivergenceError(step)
        losses.append(loss)
        layer.apply_gradients(layer.backward(idx, upstream), cfg.lr)
    return losses


def run_matrix_fit(cfg: TrainConfig) -> TrainTrace:
    """SGD on the MSE between looked-up rows and a fixed random target."""
    if cfg.task != "matrix-fit":
        raise ValueError("config task is not matrix-fit")
    rng = np.random.default_rng(cfg.seed)
    rows, cols = cfg.plan.padded_rows, cfg.plan.cols
    target = rng.standard_normal((rows, cols))
    layer = _make_layer(cfg, vocab=rows)

    def full_mse():
        return float(np.mean(np.sum((layer.materialize() - target) ** 2, axis=1)))

    def batch_step():
        idx = rng.integers(0, rows, size=cfg.batch)
        diff = layer.forward(idx) - target[idx]
        # per-row squared error, averaged over the batch
        return float(np.mean(np.sum(diff**2, axis=1))), idx, (2.0 / cfg.batch) * diff

    initial_mse = full_mse()
    losses = _sgd(cfg, layer, batch_step)
    metadata = {"initial_full_mse": initial_mse, "final_full_mse": full_mse()}
    return TrainTrace(losses, _checksum(layer), metadata)


def _make_sentences(rng, vocab: int, count: int, length: int = 8):
    half = vocab // 2
    labels = rng.integers(0, 2, size=count)
    lows = np.where(labels == 0, 0, half)
    tokens = lows[:, None] + rng.integers(0, half, size=(count, length))
    return tokens, 2.0 * labels - 1.0  # labels in {-1, +1}


def _accuracy(layer, w, b, tokens, y) -> float:
    emb = layer.forward(tokens.ravel()).reshape(tokens.shape[0], tokens.shape[1], -1)
    z = emb.mean(axis=1) @ w + b
    return float(np.mean(np.sign(z) == y))


def run_toy_classify(cfg: TrainConfig) -> TrainTrace:
    """Joint SGD on embedding cores plus a linear head, logistic loss."""
    if cfg.task != "toy-classify":
        raise ValueError("config task is not toy-classify")
    rng = np.random.default_rng(cfg.seed)
    vocab = cfg.plan.requested_rows
    if vocab < 2:
        raise ValueError("toy-classify needs a vocabulary of at least 2")
    train_x, train_y = _make_sentences(rng, vocab, count=512)
    test_x, test_y = _make_sentences(rng, vocab, count=256)
    layer = _make_layer(cfg, vocab=vocab)
    w = rng.normal(0.0, 0.1, size=cfg.plan.cols)
    b = 0.0
    initial_acc = _accuracy(layer, w, b, test_x, test_y)
    length = train_x.shape[1]

    def batch_step():
        nonlocal w, b
        pick = rng.integers(0, train_x.shape[0], size=cfg.batch)
        toks, y = train_x[pick].ravel(), train_y[pick]
        pooled = layer.forward(toks).reshape(cfg.batch, length, -1).mean(axis=1)
        z = pooled @ w + b
        # log(1 + e^{-yz}) and its derivative -y sigmoid(-yz) = -y e^{-log(1 + e^{yz})},
        # both without overflow for any finite margin
        loss = float(np.mean(np.logaddexp(0.0, -y * z)))
        dz = -y * np.exp(-np.logaddexp(0.0, y * z)) / cfg.batch
        upstream = np.repeat(np.outer(dz, w) / length, length, axis=0)
        # the head steps after upstream took its old w; _sgd steps the cores
        w -= cfg.lr * (pooled.T @ dz)
        b -= cfg.lr * float(dz.sum())
        return loss, toks, upstream

    losses = _sgd(cfg, layer, batch_step)
    metadata = {
        "initial_accuracy": initial_acc,
        "heldout_accuracy": _accuracy(layer, w, b, test_x, test_y),
        "embedding_parameters": layer.parameter_count(),
    }
    return TrainTrace(losses, _checksum(layer), metadata)


def run(cfg: TrainConfig) -> TrainTrace:
    return run_matrix_fit(cfg) if cfg.task == "matrix-fit" else run_toy_classify(cfg)

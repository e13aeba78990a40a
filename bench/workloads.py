"""The four benchmark workloads.

Each workload makes its inputs from the seed when constructed (this is the
benchmark's own work and is not timed), builds or loads its model in
``setup`` (timed as set-up), and then runs closed-loop steps: ``step(j)``
runs step ``j`` of an episode of ``episode`` steps, and the inputs repeat
with that period.  Train workloads restart every episode from the initial
cores, so each episode is the same computation and must give the same
checksum; that keeps the checksum independent of how many steps fit in a
run.
"""

from __future__ import annotations

from math import prod, sqrt
from pathlib import Path

import numpy as np

ZIPF_EXPONENT = 1.1
# lookup rows must match the dense oracle row by row to this relative norm
LOOKUP_RTOL = 1e-12


def zipf_batches(rng, vocab: int, batch: int, count: int) -> list:
    """Batches of row ids where row r has weight (r + 1) ** -1.1."""
    cdf = np.cumsum(np.arange(1, vocab + 1, dtype=np.float64) ** -ZIPF_EXPONENT)
    cdf /= cdf[-1]
    return [
        np.minimum(np.searchsorted(cdf, rng.random(batch), side="right"), vocab - 1)
        for _ in range(count)
    ]


def chain_row_flops(plan, bond_ranks) -> int:
    """Floating-point operations of one TTMatrix.row call, computed from the plan:
    step k multiplies a (J_1..J_k) x R_k block by an R_k x (J_{k+1} R_{k+1})
    core slice."""
    ranks = tuple(bond_ranks) + (1,)
    cols = plan.col_factors
    return sum(
        2 * prod(cols[: k + 1]) * ranks[k] * cols[k + 1] * ranks[k + 1]
        for k in range(len(cols) - 1)
    )


def _seed(rng) -> int:
    return int(rng.integers(2**31))


class LookupZipf:
    """Read path: TTEmbedding.forward of Zipf batches against a loaded chain."""

    name = "lookup-zipf"
    vocab, dim, n_cores, rank = 100000, 64, 4, 8
    batch = 4096
    episode = 16

    def __init__(self, mods, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        plan = mods.planning.plan_embedding(self.vocab, self.dim, self.n_cores, self.rank)
        model = mods.ttmatrix.glorot_tt(plan, seed=_seed(rng))
        self.path = workdir / "lookup.tte"
        mods.fileformat.save_tt(self.path, model)
        self.oracle = model.materialize()
        self.batches = zipf_batches(rng, self.vocab, self.batch, self.episode)
        self.rows_per_step = self.batch
        self.row_flops = chain_row_flops(plan, model.bond_ranks)

    def setup(self, mods) -> None:
        self.emb = mods.layers.TTEmbedding(mods.fileformat.load_tt(self.path))

    def reset(self) -> None:
        pass

    def step(self, j: int):
        return self.emb.forward(self.batches[j])

    def check(self, j: int, out) -> bool:
        ref = self.oracle[self.batches[j]]
        if out.shape != ref.shape:
            return False
        err = np.linalg.norm(out - ref, axis=1)
        return bool(np.all(err <= LOOKUP_RTOL * np.linalg.norm(ref, axis=1)))

    def digest(self, h, j: int, out) -> None:
        h.update(np.ascontiguousarray(out, dtype="<f8").tobytes())

    def end_episode(self, h) -> None:
        pass

    def indices(self, j: int):
        return self.batches[j]

    def dense_gather(self, j: int):
        return self.oracle[self.batches[j]]

    def quality(self):
        """Nothing is fitted here: (final_loss, recon_rel_err) do not apply."""
        return None


class Train:
    """One SGD step: forward, MSE against a fixed target, backward, update."""

    lr = 200.0

    def __init__(self, mods, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.model_seed = _seed(rng)
        scale = sqrt(2.0 / (self.vocab + self.dim))  # Glorot scale of the table
        self.target = rng.normal(0.0, scale, size=(self.vocab, self.dim))
        self.batches = self.make_batches(rng)
        self.targets = [self.target[idx] for idx in self.batches]
        self.rows_per_step = self.batch

    def setup(self, mods) -> None:
        plan = mods.planning.plan_embedding(self.vocab, self.dim, self.n_cores, self.rank)
        self.emb = mods.layers.TTEmbedding(self.build(mods, plan))
        self.initial = [c.copy() for c in self.emb.weights.cores]
        self.row_flops = self.flops(plan)

    def reset(self) -> None:
        for core, initial in zip(self.emb.weights.cores, self.initial):
            core[...] = initial

    def step(self, j: int):
        idx = self.batches[j]
        diff = self.emb.forward(idx) - self.targets[j]
        loss = float(np.mean(diff * diff))
        grads = self.emb.backward(idx, (2.0 / diff.size) * diff)
        self.emb.apply_gradients(grads, self.lr)
        return loss

    def check(self, j: int, out) -> bool:
        return bool(np.isfinite(out))

    def digest(self, h, j: int, out) -> None:
        h.update(np.float64(out).tobytes())

    def end_episode(self, h) -> None:
        for core in self.emb.weights.cores:
            h.update(np.ascontiguousarray(core, dtype="<f8").tobytes())

    def indices(self, j: int):
        return self.batches[j]

    def dense_gather(self, j: int):
        return self.target[self.batches[j]]

    def quality(self):
        """Mean squared and relative Frobenius error of the whole model
        against the whole target table after the episode."""
        diff = self.emb.weights.materialize()[: self.vocab] - self.target
        mse = float(np.mean(diff * diff))
        return mse, float(np.sqrt(mse / np.mean(self.target * self.target)))


class TrainUniform(Train):
    """TT chain; uniform batches, so almost no row repeats within a batch."""

    name = "train-uniform"
    vocab, dim, n_cores, rank = 25000, 256, 3, 16
    batch = 256
    episode = 16

    def make_batches(self, rng) -> list:
        return [rng.integers(0, self.vocab, self.batch) for _ in range(self.episode)]

    def build(self, mods, plan):
        return mods.ttmatrix.glorot_tt(plan, seed=self.model_seed)

    def flops(self, plan) -> int:
        return chain_row_flops(plan, plan.ranks)


class TrainRingZipf(Train):
    """TR ring; Zipf batches, so about 43% of each batch repeats a row."""

    name = "train-ring-zipf"
    vocab, dim, n_cores, rank = 512, 512, 3, 16
    ring_rank = 4
    # entries of the product have variance std**6 * ring_rank * rank**2,
    # 1e-3 at std 0.1: the order of the Glorot variance 2 / (vocab + dim)
    core_std = 0.1
    batch = 64
    episode = 16

    def make_batches(self, rng) -> list:
        return zipf_batches(rng, self.vocab, self.batch, self.episode)

    def build(self, mods, plan):
        return mods.trmatrix.random_tr(plan, self.ring_rank, self.core_std, seed=self.model_seed)

    def flops(self, plan) -> int:
        return 0  # TTMatrix.row is not called on a ring


class Compress:
    """load_dmat -> tt_svd -> save_tt -> load_tt -> materialize of a noisy
    exact-rank TT table.  The SVD's work barely depends on the seed (its
    Jacobi rounds vary by about 2% between tables), so every step
    compresses the same table."""

    name = "compress"
    rows, cols, n_cores, rank = 512, 512, 3, 16
    noise = 1e-3
    episode = 1

    def __init__(self, mods, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        plan = mods.planning.plan_embedding(self.rows, self.cols, self.n_cores, self.rank)
        exact = mods.ttmatrix.random_tt(plan, 1.0, seed=_seed(rng)).materialize()
        exact /= np.sqrt(np.mean(exact * exact))  # unit RMS entries
        noise = rng.standard_normal(exact.shape)
        noise *= self.noise * np.linalg.norm(exact) / np.linalg.norm(noise)
        self.table = exact + noise
        # TT-SVD quasi-optimality: error <= sqrt(N - 1) * best rank-r error,
        # and the exact-rank part bounds the best error by the noise
        self.bound = sqrt(self.n_cores - 1) * np.linalg.norm(noise) / np.linalg.norm(self.table)
        self.path = workdir / "table.dmat"
        mods.fileformat.save_dmat(self.path, self.table)
        self.out_path = workdir / "compressed.tte"
        self.rows_per_step = self.rows
        self.row_flops = 0  # materialize contracts whole cores, not rows
        self.error = None

    def setup(self, mods) -> None:
        self.mods = mods
        self.plan = mods.planning.plan_embedding(self.rows, self.cols, self.n_cores, self.rank)

    def reset(self) -> None:
        pass

    def step(self, j: int):
        fileformat, ttmatrix = self.mods.fileformat, self.mods.ttmatrix
        compressed = ttmatrix.tt_svd(fileformat.load_dmat(self.path), self.plan)
        fileformat.save_tt(self.out_path, compressed)
        loaded = fileformat.load_tt(self.out_path)
        return compressed, loaded, loaded.materialize()

    def check(self, j: int, out) -> bool:
        compressed, loaded, recon = out
        if recon.shape != self.table.shape or not all(
            np.array_equal(a, b) for a, b in zip(compressed.cores, loaded.cores)
        ):
            return False
        self.error = float(np.linalg.norm(self.table - recon) / np.linalg.norm(self.table))
        return self.error <= self.bound

    def digest(self, h, j: int, out) -> None:
        h.update(np.ascontiguousarray(out[2], dtype="<f8").tobytes())

    def end_episode(self, h) -> None:
        pass

    def indices(self, j: int):
        return None

    def dense_gather(self, j: int):
        return self.table[np.arange(self.rows)]

    def quality(self):
        """Mean squared and relative Frobenius error of the reconstruction."""
        return self.error**2 * float(np.mean(self.table * self.table)), self.error


WORKLOADS = {w.name: w for w in (LookupZipf, TrainUniform, TrainRingZipf, Compress)}

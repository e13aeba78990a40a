"""Verification instruments: full-rank checks, initialization statistics,
compression-vs-rank tables and the finite-difference gradient audit."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import numerical_rank
from .planning import FactorizationPlan, _as_int, plan_embedding
from .ttmatrix import CompressionStats, delta_identity_tt, glorot_tt, random_tt

RANK_CHECK_DIM_CAP = 4096
FD_STEP = 1e-6  # relative central-difference step, floored at 1 in |p|
FD_ABS_FLOOR = 1e-8  # differences below this are not scored


@dataclass(frozen=True)
class RankReport:
    label: str
    row_factors: tuple
    col_factors: tuple
    ranks: tuple
    parameters: int
    rows: int
    cols: int
    numerical_rank: int
    tol_factor: float

    @property
    def max_possible_rank(self) -> int:
        return min(self.rows, self.cols)

    @property
    def full_rank(self) -> bool:
        return self.numerical_rank == self.max_possible_rank


@dataclass(frozen=True)
class InitReport:
    rank: int
    draws: int
    sample_count: int
    target_var: float
    mean: float
    variance: float
    excess_kurtosis: float


def _rank_report(label, m, tol_factor) -> RankReport:
    dense = m.materialize()
    return RankReport(
        label=label,
        row_factors=m.plan.row_factors,
        col_factors=m.plan.col_factors,
        ranks=m.bond_ranks,
        parameters=m.stats().tt_params,
        rows=dense.shape[0],
        cols=dense.shape[1],
        numerical_rank=numerical_rank(dense, tol_factor),
        tol_factor=tol_factor,
    )


def check_full_rank(plan: FactorizationPlan, seeds, tol_factor: float = 1e-9):
    """Rank reports for the deterministic delta-core witness plus one
    random initialization per seed.  The witness must always be full
    rank; random draws are full rank except on a measure-zero set."""
    rows, cols = plan.padded_rows, plan.cols
    if max(rows, cols) > RANK_CHECK_DIM_CAP:
        raise MemoryError(f"rank check capped at {RANK_CHECK_DIM_CAP} per dim")
    reports = [_rank_report("delta-witness", delta_identity_tt(plan), tol_factor)]
    for seed in seeds:
        reports.append(
            _rank_report(f"seed={seed}", random_tt(plan, 1.0, seed), tol_factor)
        )
    return reports


def pooled_moments(values: np.ndarray):
    """(mean, variance, excess kurtosis) of a pooled sample."""
    mean = float(values.mean())
    centered = values - mean
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    kurt = m4 / m2**2 - 3.0 if m2 > 0.0 else 0.0
    return mean, m2, kurt


def init_statistics(
    plan: FactorizationPlan,
    rank_ladder,
    draws: int,
    sigma: float = 1.0,
    seed: int = 0,
):
    """Materialized-entry statistics of the calibrated initializer, one
    InitReport per rank in the ladder, pooling entries across draws."""
    if draws < 1:
        raise ValueError("draws must be >= 1")
    reports = []
    for t, rank in enumerate(rank_ladder):
        rank = _as_int(rank, "rank")
        p = replace(plan, ranks=(rank,) * (plan.n_cores - 1))
        chunks = [
            glorot_tt(p, seed + t * draws + d, std=sigma).materialize().ravel()
            for d in range(draws)
        ]
        pooled = np.concatenate(chunks)
        mean, var, kurt = pooled_moments(pooled)
        reports.append(
            InitReport(
                rank=rank,
                draws=draws,
                sample_count=pooled.size,
                target_var=sigma**2,
                mean=mean,
                variance=var,
                excess_kurtosis=kurt,
            )
        )
    return reports


@dataclass(frozen=True)
class CompressionRow:
    rank: int
    tt_params: int
    dense_params: int
    ratio: float
    tied_ratio: float
    lowrank_d: int
    lowrank_max_rank: int


def compression_table(vocab: int, dim: int, n: int, rank_ladder):
    """For each rank: TT parameter count, compression ratios, and the
    equal-budget low-rank baseline (its inner dim D and matrix rank cap)."""
    rows = []
    for rank in rank_ladder:
        rank = _as_int(rank, "rank")
        plan = plan_embedding(vocab, dim, n, rank)
        tt_params = plan.parameter_count
        stats = CompressionStats.from_counts(tt_params, plan.padded_rows * plan.cols)
        d = tt_params // (plan.padded_rows + plan.cols)
        rows.append(
            CompressionRow(
                rank=rank,
                tt_params=tt_params,
                dense_params=stats.dense_params,
                ratio=stats.ratio,
                tied_ratio=stats.tied_ratio,
                lowrank_d=d,
                lowrank_max_rank=min(d, plan.padded_rows, plan.cols),
            )
        )
    return rows


def gradient_audit(layer, idx, upstream) -> float:
    """Worst relative mismatch between the analytic gradient of
    sum(forward(idx) * upstream) and its central finite difference, over
    every entry of layer.parameters() (perturbed in place and restored)."""
    grads = layer.backward(idx, upstream)

    def total():
        return float(np.sum(layer.forward(idx) * upstream))

    worst = 0.0
    for p, g in zip(layer.parameters(), grads):
        for mi in np.ndindex(p.shape):
            p0 = p[mi]
            h = FD_STEP * max(1.0, abs(p0))
            p[mi] = p0 + h
            lp = total()
            p[mi] = p0 - h
            lm = total()
            p[mi] = p0
            fd = (lp - lm) / (2.0 * h)
            diff = abs(g[mi] - fd)
            if diff > FD_ABS_FLOOR:
                worst = max(worst, diff / max(abs(fd), abs(g[mi])))
    return worst

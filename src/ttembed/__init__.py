"""Tensorized embedding layers: TT/TR compressed lookup tables with
exact row evaluation, calibrated initialization, TT-SVD compression,
analytic gradients, and a small CLI."""

from .indexing import MixedRadix
from .layers import LowRankEmbedding, TTEmbedding, random_lowrank
from .linalg import ShapeError, SvdResult, numerical_rank, svd
from .planning import FactorizationPlan, factorize_balanced, plan_embedding
from .trmatrix import TRMatrix, random_tr
from .ttmatrix import (
    CompressionStats,
    TTMatrix,
    delta_identity_tt,
    glorot_tt,
    random_tt,
    tt_svd,
)

__all__ = [
    "CompressionStats",
    "FactorizationPlan",
    "LowRankEmbedding",
    "MixedRadix",
    "ShapeError",
    "SvdResult",
    "TRMatrix",
    "TTEmbedding",
    "TTMatrix",
    "delta_identity_tt",
    "factorize_balanced",
    "glorot_tt",
    "numerical_rank",
    "plan_embedding",
    "random_lowrank",
    "random_tr",
    "random_tt",
    "svd",
    "tt_svd",
]

__version__ = "0.1.0"

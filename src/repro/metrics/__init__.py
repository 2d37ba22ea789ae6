"""Evaluation metrics.

The paper uses three attack-effectiveness metrics — ER@5, ER@10 (exposure
ratio, Eq. 8) and NDCG@10 of the target items — and HR@10 for recommendation
accuracy (the side-effect / stealthiness analysis of Figure 3 and
Table VIII).  All of them are implemented here on top of shared ranking
utilities.
"""

from repro.metrics.accuracy import (
    AccuracyReport,
    draw_ranking_negatives_batched,
    hit_ratio_at_k,
    ndcg_at_k_leave_one_out,
    evaluate_accuracy,
)
from repro.metrics.evaluation import (
    DEFAULT_BLOCK_SIZE,
    EVAL_ENGINES,
    EVAL_PATHS,
    EvaluationResult,
    evaluate_snapshot,
    resolve_score_block,
    resolve_score_candidates,
    user_blocks,
)
from repro.metrics.topk_cache import TopKCache
from repro.metrics.exposure import (
    ExposureReport,
    exposure_ratio_at_k,
    target_ndcg_at_k,
    evaluate_exposure,
)
from repro.metrics.ranking import cumulative_discounts, rank_of_items, top_k_items

__all__ = [
    "AccuracyReport",
    "ExposureReport",
    "EvaluationResult",
    "EVAL_ENGINES",
    "EVAL_PATHS",
    "DEFAULT_BLOCK_SIZE",
    "TopKCache",
    "evaluate_snapshot",
    "resolve_score_block",
    "resolve_score_candidates",
    "user_blocks",
    "exposure_ratio_at_k",
    "target_ndcg_at_k",
    "evaluate_exposure",
    "hit_ratio_at_k",
    "ndcg_at_k_leave_one_out",
    "evaluate_accuracy",
    "draw_ranking_negatives_batched",
    "rank_of_items",
    "top_k_items",
    "cumulative_discounts",
]

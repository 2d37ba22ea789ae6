"""Recommendation-accuracy metrics: HR@K and NDCG@K (leave-one-out).

These measure the *side effects* of an attack (Figure 3, Table VIII): a
stealthy attack must leave the hit ratio of held-out test items essentially
unchanged.  Both a full-ranking protocol and the common sampled protocol
(rank the test item against ``num_negatives`` sampled negatives, as in the
NCF paper the authors follow) are supported.

This module is the *loop* evaluation engine: one user at a time through a
``score_fn(user)`` callback.  It is kept as the equivalence oracle for the
vectorized engine in :mod:`repro.metrics.evaluation`, which must reproduce
its full-rank metrics bit-identically and its sampled-protocol metrics under
the identical RNG stream.  The sampled protocol's negatives come from one
stream: :func:`draw_ranking_negatives_batched` draws a score block's
negatives in a single stacked pass, and the per-user loop only ranks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.negative_sampling import sample_ranking_negatives_batched
from repro.data.store import InteractionStore
from repro.exceptions import ModelError
from repro.rng import ensure_rng

__all__ = [
    "AccuracyReport",
    "hit_ratio_at_k",
    "ndcg_at_k_leave_one_out",
    "evaluate_accuracy",
    "draw_ranking_negatives_batched",
]

ScoreFunction = Callable[[int], np.ndarray]


@dataclass(frozen=True)
class AccuracyReport:
    """Leave-one-out recommendation accuracy of one model snapshot."""

    hr_at_10: float
    ndcg_at_10: float
    num_evaluated_users: int

    def as_dict(self) -> dict[str, float]:
        """The metrics as a plain dictionary."""
        return {"HR@10": self.hr_at_10, "NDCG@10": self.ndcg_at_10}


def hit_ratio_at_k(
    score_fn: ScoreFunction,
    train: InteractionDataset,
    test_items: np.ndarray,
    k: int = 10,
    num_negatives: int | None = 99,
    rng: np.random.Generator | int | None = None,
) -> float:
    """HR@k: fraction of users whose held-out item ranks in the top ``k``."""
    hits, _, count = _ranking_pass(score_fn, train, test_items, k, num_negatives, rng)
    return hits / count if count else 0.0


def ndcg_at_k_leave_one_out(
    score_fn: ScoreFunction,
    train: InteractionDataset,
    test_items: np.ndarray,
    k: int = 10,
    num_negatives: int | None = 99,
    rng: np.random.Generator | int | None = None,
) -> float:
    """NDCG@k of the single held-out item per user."""
    _, ndcg_sum, count = _ranking_pass(score_fn, train, test_items, k, num_negatives, rng)
    return ndcg_sum / count if count else 0.0


def evaluate_accuracy(
    score_fn: ScoreFunction,
    train: InteractionDataset,
    test_items: np.ndarray,
    k: int = 10,
    num_negatives: int | None = 99,
    rng: np.random.Generator | int | None = None,
    predrawn_negatives: tuple[np.ndarray, np.ndarray] | None = None,
) -> AccuracyReport:
    """HR@k and NDCG@k in a single ranking pass.

    ``predrawn_negatives`` optionally supplies the sampled protocol's
    negatives as a ``(values, offsets)`` CSR pair indexed by user id (user
    ``u``'s candidates are ``values[offsets[u]:offsets[u + 1]]``) instead of
    drawing them here — the mechanism through which the loop engine of
    :func:`~repro.metrics.evaluation.evaluate_snapshot` consumes the
    evaluation stream block by block, exactly like the vectorized engine.
    Without it, the sampled protocol draws every user's negatives in one
    stacked :func:`draw_ranking_negatives_batched` pass from ``rng``.
    Ignored under the full-ranking protocol (``num_negatives=None``).
    """
    hits, ndcg_sum, count = _ranking_pass(
        score_fn, train, test_items, k, num_negatives, rng, predrawn_negatives
    )
    return AccuracyReport(
        hr_at_10=hits / count if count else 0.0,
        ndcg_at_10=ndcg_sum / count if count else 0.0,
        num_evaluated_users=count,
    )


def _validate_test_items(test_items: np.ndarray, num_users: int, k: int) -> np.ndarray:
    """Shared validation of the per-user held-out item column."""
    if k <= 0:
        raise ModelError(f"k must be positive, got {k}")
    test_items = np.asarray(test_items, dtype=np.int64)
    if test_items.shape[0] != num_users:
        raise ModelError(
            "test_items must have one entry per user "
            f"({num_users}), got {test_items.shape[0]}"
        )
    return test_items


def _ranking_pass(
    score_fn: ScoreFunction,
    train: InteractionDataset,
    test_items: np.ndarray,
    k: int,
    num_negatives: int | None,
    rng: np.random.Generator | int | None,
    predrawn_negatives: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, float, int]:
    """Shared evaluation loop returning (hit count, NDCG sum, user count).

    The per-user NDCG contributions (0 for misses) are collected into one
    array and reduced with a single :func:`numpy.sum`, so the vectorized
    engine — which concatenates the same per-user values block by block —
    arrives at the bit-identical total.
    """
    test_items = _validate_test_items(test_items, train.num_users, k)
    store = train.interaction_store()
    if num_negatives is None:
        predrawn_negatives = None
    elif predrawn_negatives is None:
        predrawn_negatives = draw_ranking_negatives_batched(
            ensure_rng(rng),
            store,
            np.arange(train.num_users, dtype=np.int64),
            test_items,
            num_negatives,
        )
    hits = 0
    contributions: list[float] = []
    for user in range(train.num_users):
        test_item = int(test_items[user])
        if test_item < 0:
            continue
        scores = score_fn(user)
        if predrawn_negatives is None:
            rank = _full_rank(scores, test_item, store.positives(user))
        else:
            values, offsets = predrawn_negatives
            negatives = values[offsets[user] : offsets[user + 1]]
            rank = 1 + int(np.sum(scores[negatives] > scores[test_item]))
        if rank <= k:
            hits += 1
            contributions.append(1.0 / float(np.log2(rank + 1.0)))
        else:
            contributions.append(0.0)
    count = len(contributions)
    ndcg_sum = float(np.sum(np.asarray(contributions, dtype=np.float64)))
    return float(hits), ndcg_sum, count


def _full_rank(scores: np.ndarray, test_item: int, positives: np.ndarray) -> int:
    """Rank of the test item against every non-interacted item."""
    masked = scores.astype(np.float64, copy=True)
    if positives.shape[0] > 0:
        masked[positives] = -np.inf
    test_score = scores[test_item]
    return 1 + int(np.sum(masked > test_score))


def draw_ranking_negatives_batched(
    rng: np.random.Generator,
    store: InteractionStore,
    users: np.ndarray,
    test_items: np.ndarray,
    num_negatives: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The sampled protocol's stacked negative draw for one block of users.

    This is the evaluation stream's only entry point: one call draws the
    ranking negatives of a whole score block through a single stacked
    rejection-sampling pass of
    :func:`~repro.data.negative_sampling.sample_ranking_negatives_batched`,
    testing candidates directly against the shared
    :class:`~repro.data.store.InteractionStore` mask rows (a contiguous
    read-only :meth:`~repro.data.store.InteractionStore.mask_block` view
    when ``users`` is a contiguous range — no per-user mask allocation).

    **RNG contract of the evaluation stream.**  The stream is consumed one
    stacked draw per user block, blocks in user order; within a block, each
    rejection round draws one flat candidate vector covering every pending
    row (rows in user order), so the realization depends only on the block
    partitioning, the blocks' mask rows, the test items and ``num_negatives``
    — never on which evaluation engine consumes it.

    Users whose ``test_items`` entry is negative are skipped (they request
    zero negatives and consume no randomness); users whose positives plus
    test item cover the catalog receive zero negatives (their test item
    ranks first).  Everyone else receives exactly
    ``num_negatives`` draws (with replacement), so the CSR segments of the
    returned ``(negatives, offsets)`` have length ``num_negatives`` or 0.
    """
    if num_negatives < 0:
        raise ModelError(f"num_negatives must be non-negative, got {num_negatives}")
    users = np.asarray(users, dtype=np.int64)
    test_items = np.asarray(test_items, dtype=np.int64)
    if users.shape != test_items.shape:
        raise ModelError(
            f"users and test_items must align, got {users.shape} vs {test_items.shape}"
        )
    if users.shape[0] == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    lo = int(users[0])
    if np.array_equal(users, np.arange(lo, lo + users.shape[0], dtype=np.int64)):
        masks = store.mask_block(lo, lo + users.shape[0])
        degrees = store.degrees[lo : lo + users.shape[0]]
    else:
        masks = store.mask_rows(users)
        degrees = store.degrees[users]
    counts = np.where(test_items >= 0, int(num_negatives), 0)
    return sample_ranking_negatives_batched(
        rng, store.num_items, counts, masks, test_items, num_positives=degrees
    )

"""Vectorized evaluation engine.

The loop engine (:mod:`repro.metrics.accuracy` / :mod:`repro.metrics.exposure`)
evaluates one user at a time through a ``score_fn(user)`` callback — four
Python loops per snapshot before this module existed.  The vectorized engine
computes HR@K, NDCG@K, ER@5, ER@10 and target-NDCG@10 in **one pass over
user blocks**:

* a block of users is scored with a single stacked ``U_block @ V.T``-style
  matrix product through the ``score_block(users)`` callback,
* positives are masked via contiguous row slices of the shared
  :class:`~repro.data.store.InteractionStore` mask matrix (views, no copies),
* top-K membership is decided by comparing each candidate's score against
  the block's K-th-largest masked score (one ``np.partition`` per block):
  with the optimistic rank ``r(v) = 1 + #{j : masked_j > s_v}`` used
  throughout the metrics, ``r(v) <= K``  iff  ``s_v >= kth_largest(masked)``,
  exactly — ties included — so exact ranks only ever need to be counted for
  the (typically few) items that actually made a top-K list.

Equivalence contract with the loop engine (``engine="loop"`` here runs it):

* both engines read their scores from the *same* ``score_block`` calls over
  the *same* block partitioning (the loop path materialises the blocks into
  a matrix first), so the floats being ranked are identical by construction
  — BLAS results are not row-stable across different GEMM shapes, so this,
  not re-computation, is what makes bit-identity possible;
* full-rank HR/NDCG/ER values are bit-identical: integer rank counts feed
  per-user contribution values collected in user order and reduced with the
  same ``np.sum`` / ``np.mean`` calls;
* the sampled protocol draws one stacked
  :func:`~repro.metrics.accuracy.draw_ranking_negatives_batched` pass per
  block, blocks in user order (the loop engine predraws through the
  identical blocked calls), so both engines consume the evaluation RNG
  identically and report identical sampled metrics;
* the sampled protocol's candidate *scores* come from one of two paths
  selected by ``eval_path`` — ``"block"`` gathers them out of the full
  blocked pass, ``"candidates"`` scores only the drawn candidate sets
  through :func:`resolve_score_candidates` (the
  :class:`~repro.models.base.CandidateScorerProtocol` gather, or a
  ``score_block`` slice for sources without one) — with identical draws and
  rank comparisons either way, and both engines dispatching through the
  same candidate calls;
* every fresh score block and every candidate gather is checked for
  non-finite scores *before* masking, and a NaN or infinity raises
  :class:`~repro.exceptions.ModelError` in both engines, on both paths and
  under both protocols — a diverged model fails loudly instead of ranking
  NaN as a perfect hit.

The per-block full-rank/exposure pipeline is factored into
:func:`_measure_block` returning :class:`_BlockMetrics`, which is also the
cache unit of the incremental :class:`~repro.metrics.topk_cache.TopKCache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.exceptions import ModelError
from repro.metrics.accuracy import (
    AccuracyReport,
    _validate_test_items,
    draw_ranking_negatives_batched,
    evaluate_accuracy,
)
from repro.metrics.exposure import ExposureReport, _validate_targets, evaluate_exposure
from repro.metrics.ranking import cumulative_discounts
from repro.models.base import CandidateScorerProtocol, ScorerProtocol
from repro.rng import ensure_rng

if TYPE_CHECKING:
    from repro.data.store import InteractionStore

__all__ = [
    "EvaluationResult",
    "evaluate_snapshot",
    "resolve_score_block",
    "resolve_score_candidates",
    "user_blocks",
    "EVAL_ENGINES",
    "EVAL_PATHS",
    "DEFAULT_BLOCK_SIZE",
]

ScoreBlockFunction = Callable[[np.ndarray], np.ndarray]
ScoreCandidatesFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: A scoring source: either a model implementing the formal id-based
#: :class:`~repro.models.base.ScorerProtocol`, or a bare block-score callback
#: (the legacy surface, still used for precomputed score matrices in tests).
ScoreSource = ScorerProtocol | ScoreBlockFunction


def resolve_score_block(source: ScoreSource) -> ScoreBlockFunction:
    """Normalise a scoring source into a block-score callback.

    Protocol objects dispatch through their bound ``score_block`` method;
    plain callables pass through unchanged.  This structural check is the
    *only* sanctioned model dispatch outside ``models/`` — repro-lint R8
    forbids ``isinstance`` checks against concrete model classes, which is
    what keeps MF, the MLP adapter and any future scorer on one code path.
    """
    if isinstance(source, ScorerProtocol):
        return source.score_block
    return source


def resolve_score_candidates(source: ScoreSource) -> ScoreCandidatesFunction:
    """Normalise a scoring source into a candidate-gather callback.

    Sources implementing the optional
    :class:`~repro.models.base.CandidateScorerProtocol` (MF, the MLP
    adapter, factor snapshots' models) dispatch through their bound
    ``score_candidates`` — the fast path that never touches the full
    catalog.  Every other source gets the generic fallback: one
    ``score_block`` call over the user block, sliced at the candidate
    columns.  The fallback's floats *coincide with the block engines by
    construction* — it reads the very same block product the ``"block"``
    path would gather from — so switching ``eval_path`` on a
    block-only source changes wall clock, never a metric bit.
    """
    if isinstance(source, CandidateScorerProtocol):
        return source.score_candidates
    resolved = resolve_score_block(source)

    def fallback(users: np.ndarray, candidate_items: np.ndarray, /) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        candidate_items = np.asarray(candidate_items, dtype=np.int64)
        scores = np.asarray(resolved(users), dtype=np.float64)
        return scores[np.arange(users.shape[0])[:, None], candidate_items]

    return fallback

#: The valid values of every ``eval_engine`` switch in the package.
EVAL_ENGINES = ("loop", "vectorized")

#: The valid values of every ``eval_path`` switch in the package: how the
#: *sampled* ranking protocol obtains its candidate scores.  ``"block"``
#: (default) scores whole ``(B, num_items)`` catalog blocks and gathers the
#: candidate columns — the historical realization every seed history pins;
#: ``"candidates"`` scores only each user's ``1 + num_negatives`` drawn
#: candidates through :func:`resolve_score_candidates` gathers.  The draws,
#: their stream order and every rank comparison are identical — only the
#: arithmetic route to the candidate scores changes.  Ignored under the
#: full-ranking protocol, which inherently needs the whole catalog.
EVAL_PATHS = ("block", "candidates")

#: Default user-block size.  Small enough that a block's score matrix stays
#: cache-resident through the mask/partition/compare pipeline; both engines
#: must use the same value for their floats to coincide.
DEFAULT_BLOCK_SIZE = 128


@dataclass(frozen=True)
class EvaluationResult:
    """Accuracy and exposure reports of one model snapshot."""

    accuracy: AccuracyReport | None
    exposure: ExposureReport | None


def evaluate_snapshot(
    score_block: ScoreSource,
    train: InteractionDataset,
    *,
    test_items: np.ndarray | None = None,
    target_items: np.ndarray | None = None,
    k: int = 10,
    num_negatives: int | None = 99,
    rng: np.random.Generator | int | None = None,
    engine: str = "vectorized",
    eval_path: str = "block",
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> EvaluationResult:
    """Evaluate accuracy and/or exposure of one model snapshot.

    Parameters
    ----------
    score_block:
        The scoring source: a model implementing the id-based
        :class:`~repro.models.base.ScorerProtocol` (dispatched through
        :func:`resolve_score_block`), or a bare callback mapping an array of
        user ids to their stacked ``(B, num_items)`` score matrix.  Both
        engines obtain every score through the resolved callback, block by
        block.
    train:
        Training interactions; positives are masked out of the rankings and
        the shared :class:`~repro.data.store.InteractionStore` provides the
        masks.
    test_items:
        Per-user held-out items for HR@k / NDCG@k (``-1`` skips a user);
        ``None`` disables accuracy evaluation.
    target_items:
        Attack targets for ER@5 / ER@10 / target-NDCG@10; ``None`` disables
        exposure evaluation.
    k:
        Accuracy cutoff (the paper reports ``k=10``).
    num_negatives:
        Sampled-protocol negatives per user (``None`` ranks against the full
        catalog).
    rng:
        Randomness for the sampled protocol: one stacked
        :func:`~repro.metrics.accuracy.draw_ranking_negatives_batched` draw
        per score block.  Both engines consume it identically, so the
        metrics per seed never depend on the engine.
    engine:
        ``"vectorized"`` (default) or ``"loop"`` — the per-user oracle.
    eval_path:
        How the sampled protocol obtains its candidate scores:
        ``"block"`` (default) gathers candidate columns out of the full
        ``(B, num_items)`` blocked pass; ``"candidates"`` scores only the
        drawn candidates through :func:`resolve_score_candidates` — same
        draws, same comparisons, a fraction of the arithmetic.  Ignored
        under the full-ranking protocol (and the exposure metrics always
        rank against the whole catalog, so they keep the blocked pass
        either way).
    block_size:
        Users per scoring block (both engines share the partitioning, and
        the sampled protocol draws one stacked pass per block).

    Raises :class:`~repro.exceptions.ModelError` when any score the
    evaluation reads is NaN or infinite.
    """
    if engine not in EVAL_ENGINES:
        raise ModelError(f"engine must be one of {EVAL_ENGINES}, got {engine!r}")
    if eval_path not in EVAL_PATHS:
        raise ModelError(f"eval_path must be one of {EVAL_PATHS}, got {eval_path!r}")
    if block_size <= 0:
        raise ModelError(f"block_size must be positive, got {block_size}")
    if test_items is None and target_items is None:
        return EvaluationResult(accuracy=None, exposure=None)
    if engine == "loop":
        return _evaluate_loop(
            score_block, train, test_items, target_items, k, num_negatives, rng,
            eval_path, block_size,
        )
    return _evaluate_vectorized(
        score_block, train, test_items, target_items, k, num_negatives, rng,
        eval_path, block_size,
    )


def user_blocks(num_users: int, block_size: int) -> list[tuple[int, int]]:
    """The canonical ``(lo, hi)`` block partitioning shared by both engines.

    Public because bit-reproducible serving depends on it: BLAS results are
    not row-stable across GEMM shapes, so any consumer that wants its floats
    to coincide with :func:`evaluate_snapshot` (the serving layer's block
    cache does) must score *whole* blocks of exactly this partitioning.
    """
    return [
        (start, min(num_users, start + block_size))
        for start in range(0, num_users, block_size)
    ]


def _check_finite(scores: np.ndarray, source: str) -> None:
    """Raise :class:`ModelError` when ``scores`` holds a NaN or an infinity.

    Masking writes ``-inf`` over positives and every rank count compares
    with ``>``, against which NaN is never larger: an unchecked NaN row
    ranks its test item first and reports a perfect hit.
    """
    if not np.isfinite(scores).all():
        bad = int(np.count_nonzero(~np.isfinite(scores)))
        raise ModelError(f"{source} produced {bad} non-finite score(s)")


def _score_block_checked(
    score_block: ScoreBlockFunction,
    lo: int,
    hi: int,
    num_items: int,
    *,
    writable: bool = True,
) -> np.ndarray:
    """Score one canonical block and validate its shape *as it is produced*.

    A wrong-width block used to surface only later — as a confusing
    ``np.concatenate`` error in the loop engine, or the vectorized engine's
    own post-hoc check — so every scoring path now funnels through this one
    call, which also rejects non-finite scores before anything masks them.
    ``writable=True`` additionally guarantees the caller owns a writable
    array (the vectorized pipeline masks blocks in place); fresh products
    pass through without a copy.
    """
    users = np.arange(lo, hi, dtype=np.int64)
    scores = np.asarray(score_block(users), dtype=np.float64)
    if scores.shape != (hi - lo, num_items):
        raise ModelError(
            f"score_block must produce a ({hi - lo}, {num_items}) matrix for "
            f"users [{lo}, {hi}), got {scores.shape}"
        )
    _check_finite(scores, f"score_block for users [{lo}, {hi})")
    if writable and (scores.base is not None or not scores.flags.writeable):
        scores = scores.copy()
    return scores


class _BlockStreamScores:
    """Row-score callback that materialises one canonical block at a time.

    Single-consumer loop evaluations (accuracy only, or exposure only) scan
    users in ascending order, so holding the full ``(num_users, num_items)``
    float64 matrix — which OOMs at the ml-10m shape — buys nothing.  This
    adapter scores the canonical block containing the requested user on
    demand and serves rows out of it until the scan moves past the block.
    The floats are identical to the materialised path: same ``score_block``
    calls over the same canonical partitioning, each validated as produced.
    """

    def __init__(
        self,
        score_block: ScoreBlockFunction,
        num_users: int,
        num_items: int,
        block_size: int,
    ) -> None:
        self._score_block = score_block
        self._num_users = num_users
        self._num_items = num_items
        self._block_size = block_size
        self._lo = 0
        self._hi = 0
        self._scores = np.empty((0, num_items), dtype=np.float64)

    def __call__(self, user: int) -> np.ndarray:
        user = int(user)
        if not self._lo <= user < self._hi:
            lo = (user // self._block_size) * self._block_size
            hi = min(self._num_users, lo + self._block_size)
            self._scores = _score_block_checked(
                self._score_block, lo, hi, self._num_items, writable=False
            )
            self._lo, self._hi = lo, hi
        return self._scores[user - self._lo]


def _evaluate_loop(
    source: ScoreSource,
    train: InteractionDataset,
    test_items: np.ndarray | None,
    target_items: np.ndarray | None,
    k: int,
    num_negatives: int | None,
    rng: np.random.Generator | int | None,
    eval_path: str,
    block_size: int,
) -> EvaluationResult:
    """The per-user oracle, fed block-materialised scores.

    Scores are materialised through the same ``score_block`` calls the
    vectorized engine makes (same block boundaries), then handed to the
    per-user loop metrics as a row-indexing callback — streamed one block at
    a time when only a single consumer needs them, concatenated only when
    both accuracy and exposure read the same scores.  The sampled protocol's
    negatives are predrawn here — one stacked draw per block, blocks in user
    order, exactly the stream consumption of the vectorized engine — and the
    per-user pass only ranks them.  Under ``eval_path="candidates"`` the
    sampled accuracy pass never block-scores at all: it draws the same
    negatives, scores them through the same ``score_candidates`` calls as
    the vectorized engine, and ranks each user in its own Python loop — a
    genuine oracle for the
    candidate-gather path.
    """
    generator = ensure_rng(rng)
    resolved = resolve_score_block(source)
    gather = (
        test_items is not None and num_negatives is not None
        and eval_path == "candidates"
    )
    accuracy_needs_blocks = test_items is not None and not gather
    score_fn: Callable[[int], np.ndarray] | None = None
    if accuracy_needs_blocks and target_items is not None:
        # Two consumers scan the same scores; materialise once.
        scores = np.concatenate(
            [
                _score_block_checked(resolved, lo, hi, train.num_items, writable=False)
                for lo, hi in user_blocks(train.num_users, block_size)
            ],
            axis=0,
        )
        score_fn = lambda user: scores[user]  # noqa: E731 - tiny adapter
    elif accuracy_needs_blocks or target_items is not None:
        score_fn = _BlockStreamScores(
            resolved, train.num_users, train.num_items, block_size
        )
    accuracy: AccuracyReport | None = None
    if test_items is not None and num_negatives is not None and gather:
        accuracy = _loop_accuracy_candidates(
            source, train, test_items, k, num_negatives, generator, block_size,
        )
    elif test_items is not None and score_fn is not None:
        predrawn = None
        if num_negatives is not None:
            predrawn = _predraw_negatives(
                train, _validate_test_items(test_items, train.num_users, k),
                num_negatives, generator, block_size,
            )
        accuracy = evaluate_accuracy(
            score_fn, train, test_items, k=k, num_negatives=num_negatives,
            rng=generator, predrawn_negatives=predrawn,
        )
    exposure = (
        evaluate_exposure(score_fn, train, target_items)
        if target_items is not None and score_fn is not None
        else None
    )
    return EvaluationResult(accuracy=accuracy, exposure=exposure)


def _loop_accuracy_candidates(
    source: ScoreSource,
    train: InteractionDataset,
    test_items: np.ndarray,
    k: int,
    num_negatives: int,
    generator: np.random.Generator,
    block_size: int,
) -> AccuracyReport:
    """The loop oracle's sampled accuracy pass under ``eval_path="candidates"``.

    Draws and scores exactly like the vectorized candidates pass (same
    stream order, same ``score_candidates`` calls over the same rectangular
    sets, hence identical floats) but ranks each user with its own scalar
    comparison loop.  The per-user contributions are collected in user order
    and reduced with the same ``np.sum`` over the same concatenation as the
    vectorized reducer, so the engines stay bit-identical by construction.
    """
    test_items = _validate_test_items(test_items, train.num_users, k)
    store = train.interaction_store()
    score_candidates = resolve_score_candidates(source)
    hits = 0
    parts: list[np.ndarray] = []
    for lo, hi in user_blocks(train.num_users, block_size):
        block_hits, contributions = _accuracy_block_candidates(
            score_candidates, store, lo, hi, test_items, k, num_negatives,
            generator, per_user_ranks=True,
        )
        hits += block_hits
        parts.append(contributions)
    evaluated = int(sum(part.shape[0] for part in parts))
    ndcg_sum = float(np.sum(np.concatenate(parts))) if parts else 0.0
    return AccuracyReport(
        hr_at_10=float(hits) / evaluated if evaluated else 0.0,
        ndcg_at_10=ndcg_sum / evaluated if evaluated else 0.0,
        num_evaluated_users=evaluated,
    )


def _predraw_negatives(
    train: InteractionDataset,
    test_items: np.ndarray,
    num_negatives: int,
    generator: np.random.Generator,
    block_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Consume the evaluation stream for every block upfront.

    Returns the whole population's ranking negatives as one ``(values,
    offsets)`` CSR pair indexed by user id.  The stream consumption — one
    stacked :func:`draw_ranking_negatives_batched` call per block, blocks in
    user order — is identical to the vectorized engine's interleaved
    draws, which is what keeps the loop engine the equivalence oracle for
    the sampled protocol.
    """
    store = train.interaction_store()
    values_parts: list[np.ndarray] = []
    counts_parts: list[np.ndarray] = []
    for lo, hi in user_blocks(train.num_users, block_size):
        values, offsets = draw_ranking_negatives_batched(
            generator, store, np.arange(lo, hi, dtype=np.int64),
            test_items[lo:hi], num_negatives,
        )
        values_parts.append(values)
        counts_parts.append(np.diff(offsets))
    all_offsets = np.zeros(train.num_users + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts_parts), out=all_offsets[1:])
    return np.concatenate(values_parts), all_offsets


def _top_k_thresholds(masked: np.ndarray, cutoffs: Sequence[int]) -> dict[int, np.ndarray]:
    """Per-row ``k``-th largest masked score for every requested cutoff.

    ``cutoffs`` must be sorted strictly descending with every value in
    ``[1, N]`` — checked here, because a silently violated precondition
    yields *wrong thresholds*, not an error (the partition index arithmetic
    below is only meaningful under it).  One full-width **in-place**
    partition at the largest cutoff — ``masked`` is reordered within each
    row, never copied; smaller cutoffs are derived by partitioning the
    resulting ``(B, k_max)`` top slice, which is far cheaper than a second
    full-width partition.  Row reordering is safe for every later consumer
    because exact rank counts (``#{j : masked_j > v}``) only depend on each
    row's multiset of values.
    """
    num_items = masked.shape[1]
    thresholds: dict[int, np.ndarray] = {}
    if not cutoffs:
        return thresholds
    for position, kk in enumerate(cutoffs):
        if kk < 1 or kk > num_items:
            raise ModelError(
                f"top-K cutoffs must lie in [1, {num_items}], got {kk}"
            )
        if position > 0 and kk >= cutoffs[position - 1]:
            raise ModelError(
                f"top-K cutoffs must be sorted strictly descending, got {list(cutoffs)}"
            )
    k_max = cutoffs[0]
    masked.partition(num_items - k_max, axis=1)
    thresholds[k_max] = masked[:, num_items - k_max]
    top_slice = masked[:, num_items - k_max :]
    for kk in cutoffs[1:]:
        thresholds[kk] = np.partition(top_slice, k_max - kk, axis=1)[:, k_max - kk]
    return thresholds


def _membership(
    scores_at: np.ndarray,
    thresholds: dict[int, np.ndarray],
    kk: int,
    num_items: int,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """``optimistic_rank <= kk`` for candidate scores, via the threshold rule.

    ``r(v) <= kk``  iff  ``s_v >= kth_largest(masked)`` when ``kk <= N`` (a
    candidate at least ties the ``kk``-th slot); for ``kk > N`` every rank
    fits.  Exact for members and non-members of the masked row alike.
    """
    if kk > num_items:
        return np.ones(scores_at.shape, dtype=bool)
    threshold = thresholds[kk] if rows is None else thresholds[kk][rows]
    if scores_at.ndim == 2:
        return scores_at >= threshold[:, None]
    return scores_at >= threshold


@dataclass(frozen=True)
class _BlockMetrics:
    """Every metric contribution of one canonical user block.

    The unit the vectorized engine reduces over — and the unit
    :class:`~repro.metrics.topk_cache.TopKCache` caches between evaluation
    epochs: a block whose users' factors did not change contributes the
    bit-identical ``_BlockMetrics`` it contributed last epoch, so caching
    them *is* skipping the rescore.

    ``contributions`` is ``None`` when accuracy was not requested (not
    merely empty — an empty valid set still contributes a zero-length
    array, keeping the reduction's concatenation order stable); ``er`` /
    ``target_ndcg`` are ``None`` when exposure was not requested or the
    block had no contributing users (matching the historical
    append-only-when-contributing reduction exactly).
    """

    hits: int
    contributions: np.ndarray | None
    er: dict[int, np.ndarray] | None
    target_ndcg: np.ndarray | None


def _threshold_cutoffs(
    test_items: np.ndarray | None,
    target_items: np.ndarray | None,
    num_negatives: int | None,
    k: int,
    exposure_ks: tuple[int, int],
    exposure_ndcg_k: int,
    num_items: int,
) -> list[int]:
    """The descending top-K cutoffs one evaluation's thresholds must cover."""
    threshold_ks: set[int] = set()
    if test_items is not None and num_negatives is None:
        threshold_ks.add(k)
    if target_items is not None:
        threshold_ks.update(exposure_ks)
        threshold_ks.add(exposure_ndcg_k)
    return sorted({kk for kk in threshold_ks if kk <= num_items}, reverse=True)


def _measure_block(
    scores: np.ndarray,
    lo: int,
    hi: int,
    store: "InteractionStore",
    test_items: np.ndarray | None,
    target_items: np.ndarray | None,
    k: int,
    cutoffs: Sequence[int],
    exposure_ks: tuple[int, int],
    exposure_ndcg_k: int,
    ideal: np.ndarray,
    *,
    num_negatives: int | None = None,
    generator: np.random.Generator | None = None,
    sampled_result: tuple[int, np.ndarray] | None = None,
) -> _BlockMetrics:
    """Mask, rank and measure one fresh pre-mask score block.

    The single per-block pipeline shared by :func:`_evaluate_vectorized`
    and the incremental :class:`~repro.metrics.topk_cache.TopKCache` (which
    calls it with the full-rank protocol only): positives are masked to
    ``-inf`` in place, raw test/target gathers happen at the documented
    points relative to the in-place partition, and the block's metric
    contributions come back as one :class:`_BlockMetrics`.  Under the
    sampled protocol, ``sampled_result`` carries a precomputed
    ``(hits, contributions)`` pair from the candidate-gather pass —
    otherwise the block-path sampled helpers draw and rank here, reading
    candidate scores out of the masked matrix.
    """
    mask_block = store.masks[lo:hi]
    indptr, indices = store.indptr, store.indices

    # Raw-score gathers happen before masking: the loop oracle reads the
    # test item's *unmasked* score, and sampled negatives are never
    # positives, so everything else survives the in-place write.
    block_tests = test_items[lo:hi] if test_items is not None else None
    valid = np.flatnonzero(block_tests >= 0) if block_tests is not None else None
    test_scores = (
        scores[valid, block_tests[valid]] if block_tests is not None else None
    )

    # Mask positives to -inf through the store's CSR coordinates — a
    # sparse scatter (~density * B * N writes), far cheaper than a dense
    # np.where pass.  ``scores`` is the masked matrix from here on.
    masked_cols = indices[indptr[lo] : indptr[hi]]
    masked_rows = np.repeat(
        np.arange(hi - lo, dtype=np.int64), store.degrees[lo:hi]
    )
    scores[masked_rows, masked_cols] = -np.inf

    # Everything that needs score *positions* runs before the in-place
    # partition reorders the rows: the sampled protocol reads the drawn
    # negatives' scores, the exposure metrics the targets' columns.
    hits = 0
    contributions: np.ndarray | None = None
    if block_tests is not None and num_negatives is not None:
        if sampled_result is not None:
            hits, contributions = sampled_result
        elif generator is not None:
            hits, contributions = _accuracy_block_sampled_batched(
                scores, valid, test_scores, block_tests, lo, hi, k,
                num_negatives, generator, store,
            )
    target_scores = scores[:, target_items] if target_items is not None else None

    thresholds = _top_k_thresholds(scores, cutoffs)

    if block_tests is not None and num_negatives is None:
        hits, contributions = _accuracy_block_full(
            scores, valid, test_scores, thresholds, k
        )

    er: dict[int, np.ndarray] | None = None
    target_ndcg: np.ndarray | None = None
    if target_items is not None:
        exposure_parts = _exposure_block(
            scores, target_scores, mask_block, thresholds, target_items,
            exposure_ks, exposure_ndcg_k, ideal,
        )
        if exposure_parts is not None:
            er, target_ndcg = exposure_parts
    return _BlockMetrics(
        hits=hits, contributions=contributions, er=er, target_ndcg=target_ndcg
    )


def _reduce_blocks(
    blocks: Sequence[_BlockMetrics],
    test_items: np.ndarray | None,
    target_items: np.ndarray | None,
    exposure_ks: tuple[int, int],
) -> EvaluationResult:
    """Reduce per-block contributions into the final reports.

    Concatenates the per-block arrays in block order and reduces with the
    same ``np.sum`` / ``np.mean`` calls the engines always used — which is
    what lets a cached block's :class:`_BlockMetrics` stand in for a
    recomputed one bit-identically.
    """
    accuracy = None
    if test_items is not None:
        hits = sum(block.hits for block in blocks)
        accuracy_parts = [
            block.contributions for block in blocks if block.contributions is not None
        ]
        evaluated = int(sum(part.shape[0] for part in accuracy_parts))
        ndcg_sum = float(np.sum(np.concatenate(accuracy_parts))) if accuracy_parts else 0.0
        accuracy = AccuracyReport(
            hr_at_10=float(hits) / evaluated if evaluated else 0.0,
            ndcg_at_10=ndcg_sum / evaluated if evaluated else 0.0,
            num_evaluated_users=evaluated,
        )
    exposure = None
    if target_items is not None:
        er_means = {
            kk: float(np.mean(np.concatenate(parts))) if parts else 0.0
            for kk, parts in (
                (kk, [block.er[kk] for block in blocks if block.er is not None])
                for kk in exposure_ks
            )
        }
        target_ndcg_parts = [
            block.target_ndcg for block in blocks if block.target_ndcg is not None
        ]
        ndcg = (
            float(np.mean(np.concatenate(target_ndcg_parts))) if target_ndcg_parts else 0.0
        )
        exposure = ExposureReport(
            er_at_5=er_means[exposure_ks[0]],
            er_at_10=er_means[exposure_ks[1]],
            ndcg_at_10=ndcg,
        )
    return EvaluationResult(accuracy=accuracy, exposure=exposure)


def _evaluate_vectorized(
    source: ScoreSource,
    train: InteractionDataset,
    test_items: np.ndarray | None,
    target_items: np.ndarray | None,
    k: int,
    num_negatives: int | None,
    rng: np.random.Generator | int | None,
    eval_path: str,
    block_size: int,
    exposure_ks: tuple[int, int] = (5, 10),
    exposure_ndcg_k: int = 10,
) -> EvaluationResult:
    """Single blocked pass computing every requested metric."""
    store = train.interaction_store()
    num_users, num_items = store.num_users, store.num_items
    generator = ensure_rng(rng)
    if test_items is not None:
        test_items = _validate_test_items(test_items, num_users, k)
    if target_items is not None:
        target_items = _validate_targets(target_items, num_items)
    ideal = cumulative_discounts(exposure_ndcg_k)
    cutoffs = _threshold_cutoffs(
        test_items, target_items, num_negatives, k, exposure_ks,
        exposure_ndcg_k, num_items,
    )

    sampled = test_items is not None and num_negatives is not None
    gather = sampled and eval_path == "candidates"
    score_candidates = resolve_score_candidates(source) if gather else None
    resolved = resolve_score_block(source)
    # The full-catalog blocked pass survives whenever anything still needs
    # it: the "block" sampled path gathers candidate columns from it, the
    # full-rank protocol ranks against it, and the exposure metrics rank
    # the whole catalog by definition.  A pure candidates-path accuracy
    # evaluation skips it entirely — that is the point of the switch.
    need_blocks = (
        eval_path == "block"
        or (test_items is not None and num_negatives is None)
        or target_items is not None
    )

    blocks: list[_BlockMetrics] = []
    for lo, hi in user_blocks(num_users, block_size):
        sampled_result = None
        if gather and score_candidates is not None and test_items is not None and num_negatives is not None:
            sampled_result = _accuracy_block_candidates(
                score_candidates, store, lo, hi, test_items, k, num_negatives,
                generator, per_user_ranks=False,
            )
        if need_blocks:
            scores = _score_block_checked(resolved, lo, hi, num_items)
            blocks.append(
                _measure_block(
                    scores, lo, hi, store, test_items, target_items, k,
                    cutoffs, exposure_ks, exposure_ndcg_k, ideal,
                    num_negatives=num_negatives, generator=generator,
                    sampled_result=sampled_result,
                )
            )
        elif sampled_result is not None:
            block_hits, contributions = sampled_result
            blocks.append(
                _BlockMetrics(
                    hits=block_hits, contributions=contributions,
                    er=None, target_ndcg=None,
                )
            )
    return _reduce_blocks(blocks, test_items, target_items, exposure_ks)


def _accuracy_block_full(
    partitioned: np.ndarray,
    valid: np.ndarray,
    test_scores: np.ndarray,
    thresholds: dict[int, np.ndarray],
    k: int,
) -> tuple[int, np.ndarray]:
    """Full-rank HR/NDCG contributions of one user block.

    ``partitioned`` is the block's masked score matrix after the in-place
    partition — row-reordered but value-preserving, which is all the exact
    rank count needs.  ``test_scores`` are the *raw* test-item scores
    gathered before masking (the loop oracle reads the unmasked score too).
    Returns the block's hit count and the per-evaluated-user NDCG
    contributions (0 for misses), in user order — the same values the loop
    oracle appends one by one.
    """
    num_items = partitioned.shape[1]
    contributions = np.zeros(valid.shape[0], dtype=np.float64)
    if valid.shape[0] == 0:
        return 0, contributions
    hit = _membership(test_scores, thresholds, k, num_items, rows=valid)
    block_hits = int(np.count_nonzero(hit))
    for position in np.flatnonzero(hit):
        rank = 1 + int(
            np.count_nonzero(partitioned[valid[position]] > test_scores[position])
        )
        contributions[position] = 1.0 / float(np.log2(rank + 1.0))
    return block_hits, contributions


def _accuracy_block_sampled_batched(
    masked: np.ndarray,
    valid: np.ndarray,
    test_scores: np.ndarray,
    block_tests: np.ndarray,
    block_start: int,
    block_stop: int,
    k: int,
    num_negatives: int,
    generator: np.random.Generator,
    store: InteractionStore,
) -> tuple[int, np.ndarray]:
    """Sampled-protocol HR/NDCG of one block on the ``"block"`` path.

    One stacked :func:`draw_ranking_negatives_batched` call draws the
    block's negatives, and one blocked broadcast comparison ranks every
    user's test item.  Runs *before* the block's partition: it reads scores
    at the drawn negatives' positions (never positives, so the in-place
    masking left them untouched).  Because the draw is with replacement,
    every valid user's candidate segment has exactly ``num_negatives``
    entries — except saturated users (positives + test item cover the
    catalog), whose empty segment yields rank 1.  The gather below is
    driven by the stream's own CSR offsets rather than a blind reshape, so a
    drawer that violates the segment invariant (a short segment, or
    negatives attached to an invalid user) is a hard
    :class:`~repro.exceptions.ModelError`, never a silent row-misalignment
    of every subsequent user's candidates.
    """
    contributions = np.zeros(valid.shape[0], dtype=np.float64)
    users = np.arange(block_start, block_stop, dtype=np.int64)
    negatives, offsets = draw_ranking_negatives_batched(
        generator, store, users, block_tests, num_negatives
    )
    counts = np.diff(offsets)
    if valid.shape[0] == 0:
        return 0, contributions
    segment_lengths = counts[valid]
    full = np.flatnonzero(segment_lengths == num_negatives)
    saturated = np.flatnonzero(segment_lengths == 0)
    if full.shape[0] + saturated.shape[0] != valid.shape[0]:
        raise ModelError(
            "ranking-negative segments must be empty (saturated "
            f"user) or exactly num_negatives={num_negatives} long, got "
            f"segment lengths {np.unique(segment_lengths).tolist()}"
        )
    # Saturated users rank their test item against nothing: rank 1, a hit.
    block_hits = int(saturated.shape[0])
    contributions[saturated] = 1.0  # 1 / log2(1 + 1)
    if full.shape[0] > 0:
        starts = offsets[:-1][valid[full]]
        candidate_sets = negatives[
            starts[:, None] + np.arange(num_negatives, dtype=np.int64)[None, :]
        ]
        rows = valid[full]
        candidate_scores = masked[rows[:, None], candidate_sets]
        ranks = 1 + np.count_nonzero(
            candidate_scores > test_scores[full][:, None], axis=1
        )
        hit = ranks <= k
        block_hits += int(np.count_nonzero(hit))
        contributions[full[hit]] = 1.0 / np.log2(ranks[hit] + 1.0)
    return block_hits, contributions


def _accuracy_block_candidates(
    score_candidates: ScoreCandidatesFunction,
    store: InteractionStore,
    block_start: int,
    block_stop: int,
    test_items: np.ndarray,
    k: int,
    num_negatives: int,
    generator: np.random.Generator,
    *,
    per_user_ranks: bool,
) -> tuple[int, np.ndarray]:
    """Sampled-protocol HR/NDCG of one block through candidate gathers.

    The ``eval_path="candidates"`` realization: draws the block's negatives
    exactly like the block path (one stacked draw over the whole block from
    the same stream), assembles the rectangular ``(B_full, 1 + num_negatives)``
    candidate-id sets with the test item in column 0, scores them in **one**
    ``score_candidates`` call, and counts each test item's rank among its
    own negatives.  Saturated users (empty draw) rank 1, as on the block
    path.  ``per_user_ranks=True`` is the loop
    oracle: identical draws and scoring calls, but every rank and
    contribution comes from its own scalar comparison loop.

    Segment lengths are validated against the ``{0, num_negatives}``
    invariant exactly like the block path — short segments fail loudly
    instead of corrupting the rectangular gather — and the gathered scores
    are checked for non-finite values before any comparison.
    """
    block_tests = test_items[block_start:block_stop]
    valid = np.flatnonzero(block_tests >= 0)
    contributions = np.zeros(valid.shape[0], dtype=np.float64)
    users = np.arange(block_start, block_stop, dtype=np.int64)
    negatives, offsets = draw_ranking_negatives_batched(
        generator, store, users, block_tests, num_negatives
    )
    if valid.shape[0] == 0:
        return 0, contributions
    segment_lengths = np.diff(offsets)[valid]
    segment_starts = offsets[:-1][valid]
    full = np.flatnonzero(segment_lengths == num_negatives)
    saturated = np.flatnonzero(segment_lengths == 0)
    if full.shape[0] + saturated.shape[0] != valid.shape[0]:
        raise ModelError(
            "ranking-negative segments must be empty (saturated user) or "
            f"exactly num_negatives={num_negatives} long, got segment "
            f"lengths {np.unique(segment_lengths).tolist()}"
        )
    # Saturated users rank their test item against nothing: rank 1, a hit.
    block_hits = int(saturated.shape[0])
    contributions[saturated] = 1.0  # 1 / log2(1 + 1)
    if full.shape[0] == 0:
        return block_hits, contributions
    candidate_sets = np.empty((full.shape[0], 1 + num_negatives), dtype=np.int64)
    candidate_sets[:, 0] = block_tests[valid[full]]
    candidate_sets[:, 1:] = negatives[
        segment_starts[full][:, None]
        + np.arange(num_negatives, dtype=np.int64)[None, :]
    ]
    full_users = block_start + valid[full].astype(np.int64)
    candidate_scores = np.asarray(
        score_candidates(full_users, candidate_sets), dtype=np.float64
    )
    if candidate_scores.shape != candidate_sets.shape:
        raise ModelError(
            f"score_candidates must produce a {candidate_sets.shape} matrix, "
            f"got {candidate_scores.shape}"
        )
    _check_finite(
        candidate_scores, f"score_candidates for users [{block_start}, {block_stop})"
    )
    if per_user_ranks:
        for index in range(full.shape[0]):
            rank = 1 + int(
                np.sum(candidate_scores[index, 1:] > candidate_scores[index, 0])
            )
            if rank <= k:
                block_hits += 1
                contributions[full[index]] = 1.0 / float(np.log2(rank + 1.0))
    else:
        ranks = 1 + np.count_nonzero(
            candidate_scores[:, 1:] > candidate_scores[:, :1], axis=1
        )
        hit = ranks <= k
        block_hits += int(np.count_nonzero(hit))
        contributions[full[hit]] = 1.0 / np.log2(ranks[hit] + 1.0)
    return block_hits, contributions


def _exposure_block(
    partitioned: np.ndarray,
    target_scores: np.ndarray,
    mask_block: np.ndarray,
    thresholds: dict[int, np.ndarray],
    target_items: np.ndarray,
    exposure_ks: tuple[int, int],
    exposure_ndcg_k: int,
    ideal: np.ndarray,
) -> tuple[dict[int, np.ndarray], np.ndarray] | None:
    """ER / target-NDCG contributions of one user block.

    ``target_scores`` is the ``(B, T)`` gather of the masked target columns
    taken before the partition (interacted targets read ``-inf``, exactly
    like the loop oracle's masked row); ``partitioned`` is the row-reordered
    masked matrix, used only for the value-multiset rank counts.  Returns
    ``(per-cutoff ER contributions, target-NDCG contributions)`` in user
    order, or ``None`` when no user in the block contributes (every target
    already interacted) — the caller appends nothing then, exactly like the
    historical in-place reduction.
    """
    num_items = partitioned.shape[1]
    uninteracted = ~mask_block[:, target_items]
    denominators = uninteracted.sum(axis=1)
    contributing = np.flatnonzero(denominators > 0)
    if contributing.shape[0] == 0:
        return None
    er: dict[int, np.ndarray] = {}
    for kk in exposure_ks:
        member = _membership(target_scores, thresholds, kk, num_items) & uninteracted
        er[kk] = member[contributing].sum(axis=1) / denominators[contributing]
    in_list = (
        _membership(target_scores, thresholds, exposure_ndcg_k, num_items) & uninteracted
    )[contributing]
    scores_contributing = target_scores[contributing]
    discounts = np.zeros_like(scores_contributing)
    pair_rows, pair_cols = np.nonzero(in_list)
    if pair_rows.shape[0] > 0:
        # Exact ranks, grouped by row: np.nonzero returns row-major order,
        # so each row's in-list targets form one slice ranked with a single
        # broadcast comparison.  Under a successful attack nearly every
        # (user, target) pair is in-list, and this keeps the work at one
        # vectorized row pass per user instead of one per pair.
        ranks = np.empty(pair_rows.shape[0], dtype=np.int64)
        row_ids, row_starts = np.unique(pair_rows, return_index=True)
        row_stops = np.append(row_starts[1:], pair_rows.shape[0])
        for index, local_row in enumerate(row_ids):
            row = int(contributing[local_row])
            start, stop = int(row_starts[index]), int(row_stops[index])
            values = scores_contributing[local_row, pair_cols[start:stop]]
            ranks[start:stop] = 1 + np.count_nonzero(
                partitioned[row][None, :] > values[:, None], axis=1
            )
        discounts[pair_rows, pair_cols] = 1.0 / np.log2(ranks + 1.0)
    dcg = discounts.sum(axis=1)
    idcg = ideal[np.minimum(denominators[contributing], exposure_ndcg_k)]
    return er, dcg / idcg

"""``eval_path`` equivalence: candidate-gather scoring vs the block path.

The contract under test (see ``docs/architecture.md``):

* ``score_candidates`` agrees with the candidate columns of ``score_block``
  on every scoring surface — the MF einsum, the MLP gathered forward, the
  snapshot delegation and the generic column-slicing fallback (the fallback
  bit-identically; the native kernels exactly on integer-valued parameters,
  where every contraction is exact regardless of summation order);
* ``evaluate_snapshot(eval_path="candidates")`` reports the same sampled
  metrics as ``eval_path="block"`` under either evaluation engine — the
  negative draws, their stream order and the rank comparisons are shared,
  only the arithmetic route to the candidate scores differs;
* the incremental :class:`~repro.metrics.TopKCache` is bit-identical to a
  cold :func:`~repro.metrics.evaluation.evaluate_snapshot` across
  multi-epoch (attacked) training histories while provably *not* rescoring
  clean blocks;
* the regression fixes ride along: the evaluation stream survives mixed
  empty/full draw segments and invalid users mid-block (and rejects short
  segments loudly), ``_top_k_thresholds`` enforces its cutoff
  precondition, and the loop engine validates each score block's shape as
  it is produced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.exceptions import ModelError
from repro.federated.config import FederatedConfig
from repro.federated.simulation import FederatedSimulation
from repro.metrics.evaluation import (
    _top_k_thresholds,
    evaluate_snapshot,
    resolve_score_candidates,
    user_blocks,
)
from repro.metrics.topk_cache import TopKCache
from repro.models.base import CandidateScorerProtocol
from repro.models.mf import MatrixFactorizationModel
from repro.models.neural import MLPRecommender, MLPScorer
from repro.serving.snapshot import FactorSnapshot


def _integer_mf(num_users: int, num_items: int, num_factors: int = 6, seed: int = 0):
    """An MF model with small integer-valued factors.

    Integer inputs make every dot product exact (sums of small integers are
    exactly representable), so the einsum candidate kernel and the GEMM
    block kernel must agree bitwise — equality assertions below are exact,
    not tolerance-based.
    """
    rng = np.random.default_rng(seed)
    model = MatrixFactorizationModel(num_users, num_items, num_factors, rng=1)
    model.user_factors = rng.integers(-4, 5, size=(num_users, num_factors)).astype(
        np.float64
    )
    model.item_factors = rng.integers(-4, 5, size=(num_items, num_factors)).astype(
        np.float64
    )
    return model


def _integer_mlp(num_users: int, num_items: int, num_factors: int = 4, seed: int = 3):
    """An MLP adapter whose factors and scorer weights are small integers."""
    rng = np.random.default_rng(seed)
    scorer = MLPScorer(num_factors, hidden_units=5, rng=2)
    scorer.set_parameters(
        rng.integers(-3, 4, size=scorer.num_parameters).astype(np.float64)
    )
    user_factors = rng.integers(-3, 4, size=(num_users, num_factors)).astype(np.float64)
    item_factors = rng.integers(-3, 4, size=(num_items, num_factors)).astype(np.float64)
    return MLPRecommender(user_factors, item_factors, scorer)


def _candidate_grid(rng, num_users: int, num_items: int, rows: int, width: int):
    users = rng.integers(0, num_users, size=rows).astype(np.int64)
    candidates = rng.integers(0, num_items, size=(rows, width)).astype(np.int64)
    return users, candidates


class TestScoreCandidatesSurfaces:
    """score_candidates == gathered score_block columns, per surface."""

    def test_mf_matches_block_columns(self):
        model = _integer_mf(40, 30)
        rng = np.random.default_rng(9)
        users, candidates = _candidate_grid(rng, 40, 30, rows=17, width=8)
        gathered = model.score_block(users)[
            np.arange(users.shape[0])[:, None], candidates
        ]
        np.testing.assert_array_equal(model.score_candidates(users, candidates), gathered)

    def test_mlp_matches_block_columns(self):
        model = _integer_mlp(25, 20)
        rng = np.random.default_rng(11)
        users, candidates = _candidate_grid(rng, 25, 20, rows=13, width=6)
        gathered = model.score_block(users)[
            np.arange(users.shape[0])[:, None], candidates
        ]
        np.testing.assert_array_equal(model.score_candidates(users, candidates), gathered)

    def test_mlp_chunked_forward_matches_unchunked(self):
        model = _integer_mlp(25, 20)
        rng = np.random.default_rng(13)
        users, candidates = _candidate_grid(rng, 25, 20, rows=13, width=6)
        whole = model.scorer.score_candidate_sets(
            model.user_factors[users], model.item_factors[candidates]
        )
        chunked = model.scorer.score_candidate_sets(
            model.user_factors[users],
            model.item_factors[candidates],
            max_chunk_elements=1,
        )
        np.testing.assert_array_equal(chunked, whole)

    @pytest.mark.parametrize("with_scorer", [False, True])
    def test_snapshot_delegates(self, with_scorer):
        if with_scorer:
            inner = _integer_mlp(15, 12)
            snapshot = FactorSnapshot(
                inner.user_factors, inner.item_factors, scorer=inner.scorer
            )
        else:
            inner = _integer_mf(15, 12)
            snapshot = FactorSnapshot(inner.user_factors, inner.item_factors)
        rng = np.random.default_rng(17)
        users, candidates = _candidate_grid(rng, 15, 12, rows=9, width=5)
        np.testing.assert_array_equal(
            snapshot.score_candidates(users, candidates),
            inner.score_candidates(users, candidates),
        )
        assert isinstance(snapshot.model(), CandidateScorerProtocol)

    def test_fallback_bit_identical_to_block_columns(self):
        """A bare score_block callback (floats!) falls back to exact slicing."""
        rng = np.random.default_rng(19)
        scores_matrix = rng.normal(size=(30, 25))

        def score_block(users):
            return scores_matrix[users]

        score_candidates = resolve_score_candidates(score_block)
        users, candidates = _candidate_grid(rng, 30, 25, rows=14, width=7)
        gathered = scores_matrix[users][np.arange(users.shape[0])[:, None], candidates]
        np.testing.assert_array_equal(score_candidates(users, candidates), gathered)

    def test_protocol_sources_dispatch_natively(self):
        model = _integer_mf(10, 8)
        assert isinstance(model, CandidateScorerProtocol)
        assert resolve_score_candidates(model) == model.score_candidates

    def test_validation_rejects_malformed_sets(self):
        model = _integer_mf(10, 8)
        users = np.array([0, 1], dtype=np.int64)
        with pytest.raises(ModelError):
            model.score_candidates(users, np.array([0, 1], dtype=np.int64))  # 1-D
        with pytest.raises(ModelError):
            model.score_candidates(users, np.zeros((3, 2), dtype=np.int64))  # rows
        with pytest.raises(ModelError):
            model.score_candidates(users, np.array([[0, 99], [1, 2]]))  # item range
        with pytest.raises(ModelError):
            model.score_candidates(np.array([0, 55]), np.zeros((2, 2), dtype=np.int64))


def _edge_dataset() -> InteractionDataset:
    """Mixed block content: a saturated user, invalid users, normal users.

    User 1 interacted with *every* item, so its sampled draw has zero
    negatives (an empty segment mid-block); every third user is skipped by
    ``test_items`` (-1).  This is exactly the shape that broke the batched
    stream's reshape-based gather.
    """
    num_users, num_items = 11, 9
    interactions = [(1, item) for item in range(num_items)]
    rng = np.random.default_rng(23)
    for user in range(num_users):
        if user == 1:
            continue
        for item in rng.choice(num_items, size=3, replace=False):
            interactions.append((user, int(item)))
    return InteractionDataset(num_users, num_items, interactions, name="edge")


def _edge_test_items(dataset: InteractionDataset) -> np.ndarray:
    rng = np.random.default_rng(29)
    items = rng.integers(0, dataset.num_items, size=dataset.num_users)
    items[::3] = -1
    items[1] = 0  # the saturated user still carries a test item
    return items.astype(np.int64)


#: Both evaluation engines; within each, "block" and "candidates" must
#: realize the same metrics.
ENGINES = ["loop", "vectorized"]


class TestEvalPathEquivalence:
    """evaluate_snapshot: eval_path="candidates" vs eval_path="block"."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("num_negatives", [3, 19])
    def test_paths_agree_across_grid(self, engine, num_negatives):
        dataset = _edge_dataset()
        model = _integer_mf(dataset.num_users, dataset.num_items)
        test_items = _edge_test_items(dataset)
        results = {}
        for eval_path in ("block", "candidates"):
            results[eval_path] = evaluate_snapshot(
                model,
                dataset,
                test_items=test_items,
                target_items=np.array([0, 4], dtype=np.int64),
                num_negatives=num_negatives,
                rng=np.random.default_rng(31),
                engine=engine,
                eval_path=eval_path,
                block_size=4,
            )
        assert results["block"].accuracy == results["candidates"].accuracy
        assert results["block"].exposure == results["candidates"].exposure

    @pytest.mark.parametrize("engine", ["loop", "vectorized"])
    def test_paths_agree_under_ties(self, engine):
        """Constant scores: every comparison ties, both paths rank alike."""
        dataset = _edge_dataset()
        model = _integer_mf(dataset.num_users, dataset.num_items)
        model.user_factors[:] = 1.0
        model.item_factors[:] = 1.0
        results = [
            evaluate_snapshot(
                model,
                dataset,
                test_items=_edge_test_items(dataset),
                num_negatives=4,
                rng=np.random.default_rng(37),
                engine=engine,
                eval_path=eval_path,
                block_size=4,
            )
            for eval_path in ("block", "candidates")
        ]
        assert results[0].accuracy == results[1].accuracy
        # All-ties ranks are 1: every evaluated user is a hit.
        assert results[0].accuracy is not None
        assert results[0].accuracy.hr_at_10 == 1.0

    def test_candidates_path_irrelevant_under_full_ranking(self):
        dataset = _edge_dataset()
        model = _integer_mf(dataset.num_users, dataset.num_items)
        results = [
            evaluate_snapshot(
                model,
                dataset,
                test_items=_edge_test_items(dataset),
                num_negatives=None,
                engine="vectorized",
                eval_path=eval_path,
                block_size=4,
            )
            for eval_path in ("block", "candidates")
        ]
        assert results[0].accuracy == results[1].accuracy

    @pytest.mark.parametrize("use_learnable_scorer", [False, True])
    def test_end_to_end_through_config(
        self, small_split, small_targets, use_learnable_scorer
    ):
        """FederatedConfig.eval_path reroutes evaluation, not training."""
        histories = {}
        for eval_path in ("block", "candidates"):
            config = FederatedConfig(
                num_factors=4,
                num_epochs=2,
                clients_per_round=32,
                use_learnable_scorer=use_learnable_scorer,
                eval_path=eval_path,
            )
            simulation = FederatedSimulation(
                small_split.train,
                config,
                test_items=small_split.test_items,
                target_items=small_targets,
                seed=20220426,
                evaluate_every=1,
                eval_num_negatives=9,
            )
            result = simulation.run()
            histories[eval_path] = (
                [record.training_loss for record in result.history.records],
                [
                    record.accuracy.hr_at_10
                    for record in result.history.records
                    if record.accuracy is not None
                ],
            )
        assert histories["block"] == histories["candidates"]


class TestTopKCache:
    """Incremental full-rank evaluation vs the cold engines."""

    def test_bit_identical_across_attacked_history(self, small_split, small_targets):
        """Cache-backed vectorized full-rank == cold loop oracle, per epoch."""
        from repro.attacks.shilling import RandomAttack

        series = {}
        for eval_engine in ("vectorized", "loop"):
            simulation = FederatedSimulation(
                small_split.train,
                FederatedConfig(
                    num_factors=4,
                    num_epochs=3,
                    clients_per_round=24,
                    eval_engine=eval_engine,
                ),
                test_items=small_split.test_items,
                target_items=small_targets,
                attack=RandomAttack(kappa=10),
                num_malicious=4,
                seed=77,
                evaluate_every=1,
                eval_num_negatives=None,
            )
            result = simulation.run()
            assert simulation._topk_cache is not None or eval_engine == "loop"
            series[eval_engine] = [
                (record.accuracy, record.exposure) for record in result.history.records
            ]
        assert series["vectorized"] == series["loop"]

    def test_clean_blocks_are_not_rescored(self):
        dataset = _edge_dataset()
        model = _integer_mf(dataset.num_users, dataset.num_items)
        test_items = _edge_test_items(dataset)
        cache = TopKCache(dataset, test_items=test_items, k=3, block_size=4)
        calls: list[tuple[int, int]] = []

        def counting(users):
            calls.append((int(users[0]), int(users[-1]) + 1))
            return model.score_block(users)

        first = cache.evaluate(counting)
        assert calls == user_blocks(dataset.num_users, 4)  # cold: full pass

        dirty = np.array([5], dtype=np.int64)
        model.user_factors[5] += 1.0
        calls.clear()
        warm = cache.evaluate(counting, dirty_users=dirty, item_factors_changed=False)
        assert calls == [(4, 8)]  # only user 5's block rescored
        cold = evaluate_snapshot(
            model, dataset, test_items=test_items, k=3,
            num_negatives=None, engine="vectorized", block_size=4,
        )
        assert (warm.accuracy, warm.exposure) == (cold.accuracy, cold.exposure)
        assert first.accuracy is not None  # the cold pass produced a report too

    def test_item_factor_change_forces_full_pass(self):
        dataset = _edge_dataset()
        model = _integer_mf(dataset.num_users, dataset.num_items)
        cache = TopKCache(dataset, test_items=_edge_test_items(dataset), block_size=4)
        cache.evaluate(model)
        calls: list[int] = []

        def counting(users):
            calls.append(int(users[0]))
            return model.score_block(users)

        model.item_factors += 1.0
        cache.evaluate(
            counting,
            dirty_users=np.array([], dtype=np.int64),
            item_factors_changed=True,
        )
        assert len(calls) == cache.num_blocks

    def test_unknown_dirty_state_forces_full_pass(self):
        dataset = _edge_dataset()
        model = _integer_mf(dataset.num_users, dataset.num_items)
        cache = TopKCache(dataset, test_items=_edge_test_items(dataset), block_size=4)
        cache.evaluate(model)
        calls: list[int] = []

        def counting(users):
            calls.append(int(users[0]))
            return model.score_block(users)

        cache.evaluate(counting, dirty_users=None, item_factors_changed=False)
        assert len(calls) == cache.num_blocks
        calls.clear()
        cache.evaluate(
            counting, dirty_users=np.array([0]), item_factors_changed=False
        )
        assert len(calls) == 1  # known-clean state: only block 0
        cache.invalidate()
        calls.clear()
        cache.evaluate(
            counting, dirty_users=np.array([0]), item_factors_changed=False
        )
        assert len(calls) == cache.num_blocks  # invalidate dropped everything

    def test_dirty_ids_validated(self):
        dataset = _edge_dataset()
        cache = TopKCache(dataset, test_items=_edge_test_items(dataset), block_size=4)
        model = _integer_mf(dataset.num_users, dataset.num_items)
        with pytest.raises(ModelError):
            cache.evaluate(
                model,
                dirty_users=np.array([dataset.num_users]),
                item_factors_changed=False,
            )


class TestStreamSegmentRegression:
    """The mixed empty/full segment gather of the sampled stream."""

    @pytest.mark.parametrize("eval_path", ["block", "candidates"])
    def test_mixed_segments_mid_block(self, eval_path):
        """Saturated + invalid users mid-block: engines agree, nothing raises."""
        dataset = _edge_dataset()
        model = _integer_mf(dataset.num_users, dataset.num_items)
        test_items = _edge_test_items(dataset)
        results = [
            evaluate_snapshot(
                model,
                dataset,
                test_items=test_items,
                num_negatives=5,
                rng=np.random.default_rng(41),
                engine=engine,
                eval_path=eval_path,
                block_size=4,
            )
            for engine in ("loop", "vectorized")
        ]
        assert results[0].accuracy == results[1].accuracy
        # The saturated user ranks 1 by convention and still counts.
        assert results[0].accuracy is not None
        expected = int(np.sum(test_items >= 0))
        assert results[0].accuracy.num_evaluated_users == expected

    def test_short_segment_raises(self, monkeypatch):
        """A drawer returning neither 0 nor num_negatives per user is a bug."""
        import repro.metrics.evaluation as evaluation_module

        dataset = _edge_dataset()
        model = _integer_mf(dataset.num_users, dataset.num_items)
        real = evaluation_module.draw_ranking_negatives_batched

        def truncating(generator, store, users, tests, num_negatives):
            values, offsets = real(generator, store, users, tests, num_negatives)
            if values.shape[0] > 0:
                values = values[:-1]
                offsets = np.minimum(offsets, values.shape[0])
            return values, offsets

        monkeypatch.setattr(
            evaluation_module, "draw_ranking_negatives_batched", truncating
        )
        with pytest.raises(ModelError):
            evaluate_snapshot(
                model,
                dataset,
                test_items=_edge_test_items(dataset),
                num_negatives=5,
                rng=np.random.default_rng(43),
                engine="vectorized",
                block_size=4,
            )


class TestTopKThresholdGuards:
    """_top_k_thresholds validates its cutoff precondition."""

    def test_k_equals_num_items(self):
        scores = np.arange(12, dtype=np.float64).reshape(3, 4)
        thresholds = _top_k_thresholds(scores.copy(), [4])
        np.testing.assert_array_equal(thresholds[4], scores.min(axis=1))

    def test_single_cutoff_of_one(self):
        scores = np.arange(12, dtype=np.float64).reshape(3, 4)
        thresholds = _top_k_thresholds(scores.copy(), [1])
        np.testing.assert_array_equal(thresholds[1], scores.max(axis=1))

    def test_descending_cutoffs(self):
        scores = np.random.default_rng(47).normal(size=(5, 8))
        thresholds = _top_k_thresholds(scores.copy(), [6, 3, 1])
        for kk in (6, 3, 1):
            expected = np.sort(scores, axis=1)[:, -kk]
            np.testing.assert_array_equal(thresholds[kk], expected)

    @pytest.mark.parametrize("cutoffs", [[0], [9], [-1], [3, 3], [2, 5], [5, 2, 2]])
    def test_invalid_cutoffs_raise(self, cutoffs):
        scores = np.zeros((2, 8))
        with pytest.raises(ModelError):
            _top_k_thresholds(scores, cutoffs)

    def test_empty_cutoffs_allowed(self):
        assert _top_k_thresholds(np.zeros((2, 4)), []) == {}


class TestLoopBlockValidation:
    """The loop engine validates each block's shape as it is produced."""

    @pytest.mark.parametrize("engine", ["loop", "vectorized"])
    def test_wrong_width_block_names_offender(self, engine):
        dataset = _edge_dataset()
        model = _integer_mf(dataset.num_users, dataset.num_items)

        def bad_block(users):
            scores = model.score_block(users)
            if int(users[0]) >= 4:
                return scores[:, :-1]  # second block loses a column
            return scores

        with pytest.raises(ModelError, match=r"\[4, 8\)"):
            evaluate_snapshot(
                bad_block,
                dataset,
                test_items=_edge_test_items(dataset),
                num_negatives=None,
                engine=engine,
                block_size=4,
            )

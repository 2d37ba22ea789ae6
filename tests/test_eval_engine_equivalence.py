"""Loop / vectorized evaluation-engine equivalence.

The contract under test (see ``docs/architecture.md``):

* full-rank HR@10 / NDCG@10 / ER@5 / ER@10 / target-NDCG@10 are
  **bit-identical** between ``evaluate_snapshot(engine="loop")`` and
  ``engine="vectorized"`` — both engines read the same score blocks and
  reduce per-user contributions identically;
* under the sampled protocol both engines consume the evaluation stream
  (one stacked draw per score block) through the same draws, so from equal
  seeds the metrics are equal;
* a NaN or infinite score fails loudly with ``ModelError`` in both engines,
  on both scoring paths and under both protocols — never a perfect metric;
* the equivalence holds at realistic dataset shapes (the calibrated ml-100k
  and steam-200k miniatures), on handcrafted edge users (empty positives,
  all-items positives), under score ties, through the generic
  ``Recommender.score_block`` fallback, and end-to-end through
  ``FederatedConfig.eval_engine`` for both the MF and the MLP-scorer model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.data.presets import get_preset
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.exceptions import ModelError
from repro.federated.config import FederatedConfig
from repro.federated.simulation import FederatedSimulation
from repro.metrics.evaluation import evaluate_snapshot
from repro.models.mf import MatrixFactorizationModel
from repro.rng import SeedSequenceFactory


def _mf_score_block(dataset: InteractionDataset, seed: int = 0):
    model = MatrixFactorizationModel(
        dataset.num_users, dataset.num_items, num_factors=16, init_scale=1.0, rng=seed
    )
    return model.score_block


def _test_items(dataset: InteractionDataset, rng: np.random.Generator) -> np.ndarray:
    """One held-out candidate per user; every third user skipped (-1)."""
    items = rng.integers(0, dataset.num_items, size=dataset.num_users)
    items[::3] = -1
    return items


def _targets(dataset: InteractionDataset, count: int = 5) -> np.ndarray:
    return np.arange(min(count, dataset.num_items), dtype=np.int64)


def _both_engines(dataset, score_block, *, block_size=7, seed=123, **kwargs):
    results = []
    for engine in ("loop", "vectorized"):
        results.append(
            evaluate_snapshot(
                score_block,
                dataset,
                engine=engine,
                block_size=block_size,
                rng=np.random.default_rng(seed),
                **kwargs,
            )
        )
    return results


#: Both protocols: full ranking, and 99 sampled negatives per user.
PROTOCOLS = [None, 99]


def _assert_identical(loop_result, vectorized_result):
    if loop_result.accuracy is None:
        assert vectorized_result.accuracy is None
    else:
        assert loop_result.accuracy == vectorized_result.accuracy
    if loop_result.exposure is None:
        assert vectorized_result.exposure is None
    else:
        assert loop_result.exposure == vectorized_result.exposure


class TestEdgeUsers:
    """Handcrafted users: no positives, all-items positives, normal."""

    @pytest.fixture()
    def dataset(self):
        num_items = 12
        interactions = [(1, item) for item in range(num_items)]  # user 1: everything
        interactions += [(2, 0), (2, 4), (3, 7)]
        return InteractionDataset(4, num_items, interactions, name="edges")

    @pytest.mark.parametrize("num_negatives", PROTOCOLS)
    def test_engines_agree(self, dataset, num_negatives):
        rng = np.random.default_rng(5)
        score_block = _mf_score_block(dataset)
        loop_result, vectorized_result = _both_engines(
            dataset,
            score_block,
            block_size=3,
            test_items=_test_items(dataset, rng),
            target_items=_targets(dataset, 3),
            num_negatives=num_negatives,
        )
        _assert_identical(loop_result, vectorized_result)
        # user 1 interacted with every target -> never in the ER denominator;
        # its test item (if any) still ranks, matching the loop semantics.
        assert loop_result.exposure is not None

    def test_all_positive_user_alone_yields_empty_exposure(self, dataset):
        only_full_user = InteractionDataset(
            1, 4, [(0, 0), (0, 1), (0, 2), (0, 3)], name="full"
        )
        loop_result, vectorized_result = _both_engines(
            only_full_user,
            _mf_score_block(only_full_user),
            test_items=np.array([2]),
            target_items=np.array([1, 3]),
            num_negatives=None,
        )
        _assert_identical(loop_result, vectorized_result)
        assert loop_result.exposure.er_at_10 == 0.0
        # full-catalog positives: the masked ranking is all -inf, the test
        # item still wins by its raw score (rank 1).
        assert loop_result.accuracy.hr_at_10 == 1.0

    def test_sampled_protocol_with_saturated_user(self, dataset):
        """A user whose positives cover the catalog draws nothing usable.

        The stacked draw requests zero negatives for the saturated row, so
        the test item ranks first against an empty candidate set in both
        engines.
        """
        only_full_user = InteractionDataset(
            1, 4, [(0, 0), (0, 1), (0, 2), (0, 3)], name="full"
        )
        loop_result, vectorized_result = _both_engines(
            only_full_user,
            _mf_score_block(only_full_user),
            test_items=np.array([2]),
            num_negatives=10,
        )
        _assert_identical(loop_result, vectorized_result)
        assert loop_result.accuracy.hr_at_10 == 1.0
        assert loop_result.accuracy.ndcg_at_10 == 1.0


class TestScoreTies:
    """Exact score ties must not split the engines."""

    def test_constant_scores(self):
        dataset = InteractionDataset(3, 8, [(0, 1), (1, 2), (1, 3)], name="ties")
        constant = np.zeros((3, 8))
        score_block = lambda users: constant[users]  # noqa: E731
        loop_result, vectorized_result = _both_engines(
            dataset,
            score_block,
            test_items=np.array([4, 5, 6]),
            target_items=np.array([0, 7]),
            num_negatives=None,
        )
        _assert_identical(loop_result, vectorized_result)
        # Optimistic ranks: every target ties for rank 1, so all are exposed.
        assert loop_result.exposure.er_at_5 == 1.0
        assert loop_result.accuracy.hr_at_10 == 1.0

    def test_partial_ties_at_the_boundary(self):
        dataset = InteractionDataset(2, 20, [(0, 0)], name="boundary")
        scores = np.zeros((2, 20))
        scores[:, :12] = 1.0  # 12 items tie above the rest
        score_block = lambda users: scores[users]  # noqa: E731
        loop_result, vectorized_result = _both_engines(
            dataset,
            score_block,
            test_items=np.array([11, 19]),
            target_items=np.array([5, 19]),
            num_negatives=None,
        )
        _assert_identical(loop_result, vectorized_result)

    def test_sampled_protocol_under_ties(self):
        """All-ties scores through the sampled protocol."""
        dataset = InteractionDataset(3, 8, [(0, 1), (1, 2), (1, 3)], name="ties")
        constant = np.zeros((3, 8))
        score_block = lambda users: constant[users]  # noqa: E731
        loop_result, vectorized_result = _both_engines(
            dataset,
            score_block,
            test_items=np.array([4, 5, 6]),
            num_negatives=5,
        )
        _assert_identical(loop_result, vectorized_result)
        # Optimistic ranks: the test item ties every sampled negative -> rank 1.
        assert loop_result.accuracy.hr_at_10 == 1.0
        assert loop_result.accuracy.ndcg_at_10 == 1.0


@pytest.mark.parametrize("shape", ["ml-100k-mini", "steam-200k-mini"])
@pytest.mark.parametrize("num_negatives", PROTOCOLS)
class TestRealisticShapes:
    def test_engines_agree(self, shape, num_negatives):
        preset = get_preset(shape)
        dataset = generate_synthetic_dataset(
            SyntheticConfig.from_preset(preset),
            SeedSequenceFactory(11).generator(f"eval-eq-{shape}"),
        )
        rng = np.random.default_rng(17)
        loop_result, vectorized_result = _both_engines(
            dataset,
            _mf_score_block(dataset, seed=3),
            block_size=64,
            test_items=_test_items(dataset, rng),
            target_items=_targets(dataset, 5),
            num_negatives=num_negatives,
        )
        _assert_identical(loop_result, vectorized_result)
        assert loop_result.accuracy.num_evaluated_users > 0


class TestEvaluationStreamContract:
    """Direct contract tests of the evaluation stream."""

    @pytest.fixture()
    def setup(self):
        rng = np.random.default_rng(31)
        num_users, num_items = 40, 60
        pairs = [
            (user, item)
            for user in range(num_users)
            for item in rng.choice(num_items, size=int(rng.integers(0, 9)), replace=False)
        ]
        dataset = InteractionDataset(num_users, num_items, pairs, name="stream")
        test_items = rng.integers(0, num_items, size=num_users)
        test_items[::5] = -1
        return dataset, test_items

    def test_standalone_loop_draws_one_block(self, setup):
        """Without predrawn negatives the loop metrics draw every user in one
        stacked pass: the realization of a single whole-population block."""
        from repro.metrics.accuracy import evaluate_accuracy

        dataset, test_items = setup
        score_block = _mf_score_block(dataset, seed=9)
        scores = score_block(np.arange(dataset.num_users, dtype=np.int64))
        standalone = evaluate_accuracy(
            lambda user: scores[user],
            dataset,
            test_items,
            num_negatives=25,
            rng=np.random.default_rng(3),
        )
        one_block = evaluate_snapshot(
            score_block,
            dataset,
            test_items=test_items,
            num_negatives=25,
            rng=np.random.default_rng(3),
            block_size=dataset.num_users,
        )
        assert standalone == one_block.accuracy

    def test_first_round_draws_are_partition_independent(self, setup):
        """``rng.integers`` consumes the bit stream sequentially, so when
        every row finishes in its first oversampled rejection round (the
        common regime) the concatenated candidate stream — and therefore the
        realization — does not depend on where the block boundaries fall.
        Same seed + same block size is always bit-identical."""
        dataset, test_items = setup
        score_block = _mf_score_block(dataset, seed=9)

        def run(block_size):
            return evaluate_snapshot(
                score_block,
                dataset,
                test_items=test_items,
                num_negatives=25,
                rng=np.random.default_rng(3),
                block_size=block_size,
            )

        reference = run(16)
        assert run(16).accuracy == reference.accuracy
        for block_size in (1, 7, 13, dataset.num_users):
            assert run(block_size).accuracy == reference.accuracy

    def test_draw_reproducible_and_engine_free(self, setup):
        """The stacked draw itself: same seed -> same CSR, contiguous and
        gathered user blocks give the same realization."""
        from repro.metrics.accuracy import draw_ranking_negatives_batched

        dataset, test_items = setup
        store = dataset.interaction_store()
        for users in (
            np.arange(8, 24, dtype=np.int64),  # contiguous: mask_block view path
            np.arange(3, 33, 2, dtype=np.int64),  # strided: mask_rows gather path
        ):
            first = draw_ranking_negatives_batched(
                np.random.default_rng(7), store, users, test_items[users], 30
            )
            second = draw_ranking_negatives_batched(
                np.random.default_rng(7), store, users.tolist(), test_items[users], 30
            )
            np.testing.assert_array_equal(first[0], second[0])
            np.testing.assert_array_equal(first[1], second[1])
            counts = np.diff(first[1])
            valid = test_items[users] >= 0
            assert np.all(counts[valid] == 30)
            assert np.all(counts[~valid] == 0)
            for local, user in enumerate(users):
                segment = first[0][first[1][local] : first[1][local + 1]]
                assert not store.mask_row(user)[segment].any()
                assert not np.any(segment == test_items[user])


class TestValidation:
    def test_unknown_engine_rejected(self):
        dataset = InteractionDataset(2, 3, [(0, 0)])
        with pytest.raises(ModelError):
            evaluate_snapshot(
                lambda users: np.zeros((users.shape[0], 3)),
                dataset,
                test_items=np.array([1, 1]),
                engine="warp",
            )

    def test_eval_sampler_is_not_a_parameter(self):
        dataset = InteractionDataset(2, 3, [(0, 0)])
        with pytest.raises(TypeError):
            evaluate_snapshot(
                lambda users: np.zeros((users.shape[0], 3)),
                dataset,
                test_items=np.array([1, 1]),
                eval_sampler="batched",
            )

    def test_bad_block_size_rejected(self):
        dataset = InteractionDataset(2, 3, [(0, 0)])
        with pytest.raises(ModelError):
            evaluate_snapshot(
                lambda users: np.zeros((users.shape[0], 3)),
                dataset,
                test_items=np.array([1, 1]),
                block_size=0,
            )

    def test_wrong_score_shape_rejected(self):
        dataset = InteractionDataset(2, 3, [(0, 0)])
        for engine in ("loop", "vectorized"):
            with pytest.raises(ModelError):
                evaluate_snapshot(
                    lambda users: np.zeros((users.shape[0], 5)),
                    dataset,
                    test_items=np.array([1, 1]),
                    engine=engine,
                )

    def test_nothing_requested_is_a_no_op(self):
        dataset = InteractionDataset(2, 3, [(0, 0)])
        calls = []

        def score_block(users):  # pragma: no cover - must not run
            calls.append(users)
            return np.zeros((users.shape[0], 3))

        result = evaluate_snapshot(score_block, dataset)
        assert result.accuracy is None and result.exposure is None
        assert not calls


class TestGenericScorerFallback:
    """``evaluate_snapshot`` through the generic ``Recommender.score_block``.

    A custom scorer that only implements ``score_items`` must work through
    the base class's row-by-row ``score_block`` fallback (now a deprecated
    shim — the warning itself is covered in ``test_scorer_protocol.py``),
    and — when its per-row arithmetic matches MF exactly — must reproduce
    the id-based MF protocol path's metrics.  Integer-valued factors keep
    every dot product exact, so the row-by-row fallback (vector-matrix
    products) and the MF block path (one matrix-matrix product) cannot
    drift apart in floating point.
    """

    @pytest.fixture()
    def setup(self):
        from repro.models.base import Recommender

        rng = np.random.default_rng(41)
        num_users, num_items, num_factors = 18, 26, 6
        user_factors = rng.integers(-3, 4, size=(num_users, num_factors)).astype(np.float64)
        item_factors = rng.integers(-3, 4, size=(num_items, num_factors)).astype(np.float64)

        class DotScorer(Recommender):
            """Minimal custom scorer: ``score_items`` only, no overrides."""

            @property
            def num_users(self):
                return num_users

            @property
            def num_items(self):
                return num_items

            @property
            def num_factors(self):
                return num_factors

            def score_items(self, user_vector, items=None):
                scores = item_factors @ np.asarray(user_vector, dtype=np.float64)
                if items is None:
                    return scores
                return scores[np.asarray(items, dtype=np.int64)]

        pairs = [
            (user, item)
            for user in range(num_users)
            for item in rng.choice(num_items, size=3, replace=False)
        ]
        dataset = InteractionDataset(num_users, num_items, pairs, name="fallback")
        test_items = rng.integers(0, num_items, size=num_users)
        test_items[::4] = -1
        return DotScorer(), user_factors, item_factors, dataset, test_items

    @pytest.mark.parametrize("num_negatives", PROTOCOLS)
    def test_fallback_matches_mf_path(self, setup, num_negatives):
        scorer, user_factors, item_factors, dataset, test_items = setup
        model = MatrixFactorizationModel(
            dataset.num_users, dataset.num_items, user_factors.shape[1], rng=0
        )
        model.user_factors = user_factors.copy()
        model.item_factors = item_factors.copy()
        kwargs = dict(
            test_items=test_items,
            target_items=_targets(dataset, 4),
            num_negatives=num_negatives,
            block_size=5,
        )
        results = {}
        for name, score_block in (
            ("fallback", lambda users: scorer.score_block(user_factors[users])),
            ("mf", model.score_block),
        ):
            for engine in ("loop", "vectorized"):
                results[(name, engine)] = evaluate_snapshot(
                    score_block,
                    dataset,
                    engine=engine,
                    rng=np.random.default_rng(19),
                    **kwargs,
                )
        reference = results[("mf", "loop")]
        for key, result in results.items():
            assert result.accuracy == reference.accuracy, key
            assert result.exposure == reference.exposure, key

    def test_fallback_accepts_single_row_blocks(self, setup):
        scorer, user_factors, _, dataset, test_items = setup
        result = evaluate_snapshot(
            lambda users: scorer.score_block(user_factors[users]),
            dataset,
            test_items=test_items,
            num_negatives=None,
            block_size=1,
        )
        assert result.accuracy.num_evaluated_users > 0


class TestSimulationIntegration:
    """`FederatedConfig.eval_engine` end to end, MF and MLP-scorer models."""

    @pytest.fixture()
    def small_setup(self):
        rng = np.random.default_rng(29)
        num_users, num_items = 24, 30
        pairs = [
            (user, item)
            for user in range(num_users)
            for item in rng.choice(num_items, size=4, replace=False)
        ]
        dataset = InteractionDataset(num_users, num_items, pairs, name="sim-eq")
        test_items = rng.integers(0, num_items, size=num_users)
        targets = np.array([0, 1], dtype=np.int64)
        return dataset, test_items, targets

    def _run(self, dataset, test_items, targets, eval_engine, **config_kwargs):
        config = FederatedConfig(
            num_factors=8,
            clients_per_round=8,
            num_epochs=4,
            eval_engine=eval_engine,
            **config_kwargs,
        )
        simulation = FederatedSimulation(
            train=dataset,
            config=config,
            test_items=test_items,
            target_items=targets,
            seed=7,
            evaluate_every=2,
            eval_num_negatives=9,
        )
        return simulation.run()

    @pytest.mark.parametrize("use_scorer", [False, True])
    def test_histories_identical_across_eval_engines(self, small_setup, use_scorer):
        dataset, test_items, targets = small_setup
        loop_run = self._run(
            dataset, test_items, targets, "loop", use_learnable_scorer=use_scorer
        )
        vectorized_run = self._run(
            dataset, test_items, targets, "vectorized", use_learnable_scorer=use_scorer
        )
        assert len(loop_run.history) == len(vectorized_run.history)
        for loop_epoch, vectorized_epoch in zip(
            loop_run.history.records, vectorized_run.history.records
        ):
            assert loop_epoch.training_loss == vectorized_epoch.training_loss
            assert loop_epoch.accuracy == vectorized_epoch.accuracy
            assert loop_epoch.exposure == vectorized_epoch.exposure

    def test_full_rank_histories_identical(self, small_setup):
        dataset, test_items, targets = small_setup
        runs = {}
        for engine in ("loop", "vectorized"):
            simulation = FederatedSimulation(
                train=dataset,
                config=FederatedConfig(
                    num_factors=8,
                    clients_per_round=8,
                    num_epochs=3,
                    eval_engine=engine,
                ),
                test_items=test_items,
                target_items=targets,
                seed=13,
                evaluate_every=1,
                eval_num_negatives=None,
            )
            runs[engine] = simulation.run()
        for loop_epoch, vectorized_epoch in zip(
            runs["loop"].history.records, runs["vectorized"].history.records
        ):
            assert loop_epoch.accuracy == vectorized_epoch.accuracy
            assert loop_epoch.exposure == vectorized_epoch.exposure


class TestNonFiniteScores:
    """NaN or infinite scores raise instead of ranking as perfect hits."""

    @pytest.fixture()
    def dataset(self):
        rng = np.random.default_rng(43)
        pairs = [
            (user, item)
            for user in range(12)
            for item in rng.choice(20, size=3, replace=False)
        ]
        return InteractionDataset(12, 20, pairs, name="non-finite")

    @staticmethod
    def _test_items(dataset):
        """Each user's lowest-id non-positive item."""
        store = dataset.interaction_store()
        return np.array(
            [np.flatnonzero(~store.mask_row(user))[0] for user in range(dataset.num_users)],
            dtype=np.int64,
        )

    def _scores(self, dataset, kind):
        scores = np.random.default_rng(0).normal(size=(dataset.num_users, dataset.num_items))
        if kind == "all-nan":
            scores[:] = np.nan
        else:
            # One +inf, on user 10's test item: every path reads that score.
            scores[10, self._test_items(dataset)[10]] = np.inf
        return scores

    @pytest.mark.parametrize("kind", ["all-nan", "one-inf"])
    @pytest.mark.parametrize("engine", ["loop", "vectorized"])
    @pytest.mark.parametrize("eval_path", ["block", "candidates"])
    @pytest.mark.parametrize("num_negatives", [None, 5])
    def test_accuracy_raises(self, dataset, kind, engine, eval_path, num_negatives):
        scores = self._scores(dataset, kind)
        with pytest.raises(ModelError, match="non-finite"):
            evaluate_snapshot(
                lambda users: scores[users],
                dataset,
                test_items=self._test_items(dataset),
                num_negatives=num_negatives,
                rng=np.random.default_rng(1),
                engine=engine,
                eval_path=eval_path,
                block_size=5,
            )

    @pytest.mark.parametrize("engine", ["loop", "vectorized"])
    def test_candidate_gather_is_checked(self, dataset, engine):
        """The candidates path never scores a block: its own gather is checked."""
        from repro.models.mf import MatrixFactorizationModel

        model = MatrixFactorizationModel(dataset.num_users, dataset.num_items, 4, rng=0)
        model.user_factors[10] = np.nan
        with pytest.raises(ModelError, match="score_candidates"):
            evaluate_snapshot(
                model,
                dataset,
                test_items=self._test_items(dataset),
                num_negatives=5,
                rng=np.random.default_rng(1),
                engine=engine,
                eval_path="candidates",
                block_size=5,
            )

    @pytest.mark.parametrize("kind", ["all-nan", "one-inf"])
    @pytest.mark.parametrize("engine", ["loop", "vectorized"])
    def test_exposure_raises(self, dataset, kind, engine):
        scores = self._scores(dataset, kind)
        with pytest.raises(ModelError, match="non-finite"):
            evaluate_snapshot(
                lambda users: scores[users],
                dataset,
                target_items=np.array([0, 1]),
                engine=engine,
                block_size=5,
            )

    def test_incremental_cache_raises(self, dataset):
        from repro.metrics.topk_cache import TopKCache

        scores = self._scores(dataset, "all-nan")
        cache = TopKCache(dataset, test_items=np.zeros(dataset.num_users, dtype=np.int64))
        with pytest.raises(ModelError, match="non-finite"):
            cache.evaluate(lambda users: scores[users])

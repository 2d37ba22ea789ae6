"""The recommendation serving layer: snapshots, the service, the caches.

The contracts under test (see ``docs/architecture.md``):

* **snapshot immutability** — a :class:`FactorSnapshot` is a frozen,
  read-only copy: mutating the source arrays (or a live simulation applying
  more rounds in a background thread) never changes what is served;
* **bit-reproducibility** — every served float comes from a whole-block
  GEMM at the canonical partitioning, so service responses coincide exactly
  with direct model scoring, batched queries are bit-identical to single
  queries, and :func:`exposure_under_serving` equals evaluating the
  snapshot's model directly;
* **cache discipline** — repeat queries are memoised (same object back),
  ``swap_snapshot`` atomically drops every cache entry and prewarms the new
  snapshot's blocks into the retired arrays, and the block cache honours its
  LRU bound;
* **error surface** — every invalid construction or query raises
  :class:`~repro.exceptions.ServingError` with an actionable message.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.data.dataset import InteractionDataset
from repro.exceptions import ServingError
from repro.metrics.evaluation import evaluate_snapshot, user_blocks
from repro.models.mf import MatrixFactorizationModel
from repro.models.neural import MLPScorer
from repro.serving import (
    FactorSnapshot,
    Recommendation,
    RecommenderService,
    exposure_under_serving,
)

NUM_USERS = 30
NUM_ITEMS = 41
NUM_FACTORS = 8


def _dataset(num_users: int = NUM_USERS, num_items: int = NUM_ITEMS, seed: int = 9):
    rng = np.random.default_rng(seed)
    interactions = []
    for user in range(num_users):
        count = int(rng.integers(2, 7))
        for item in rng.choice(num_items, size=count, replace=False):
            interactions.append((user, int(item)))
    return InteractionDataset(num_users, num_items, interactions, name="serving")


def _model(seed: int = 4, num_users: int = NUM_USERS, num_items: int = NUM_ITEMS):
    return MatrixFactorizationModel(
        num_users, num_items, NUM_FACTORS, init_scale=1.0, rng=seed
    )


def _snapshot(seed: int = 4, version: int = 0) -> FactorSnapshot:
    return FactorSnapshot.from_model(_model(seed), version=version)


def _reference_top_k(
    raw_row: np.ndarray, positives: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Independent oracle: stable sort of the masked row, lowest-id ties."""
    masked = raw_row.copy()
    masked[positives] = -np.inf
    order = np.lexsort((np.arange(masked.shape[0]), -masked))[:k]
    return order, raw_row[order]


class TestFactorSnapshot:
    def test_arrays_are_read_only(self):
        snapshot = _snapshot()
        with pytest.raises(ValueError):
            snapshot.user_factors[0, 0] = 1.0
        with pytest.raises(ValueError):
            snapshot.item_factors[0, 0] = 1.0

    def test_snapshot_is_a_copy_of_the_source(self):
        model = _model()
        snapshot = FactorSnapshot.from_model(model)
        before = snapshot.model().score_block(np.arange(NUM_USERS, dtype=np.int64))
        model.user_factors += 100.0
        model.item_factors += 100.0
        after = snapshot.model().score_block(np.arange(NUM_USERS, dtype=np.int64))
        np.testing.assert_array_equal(before, after)

    def test_scorer_is_a_frozen_copy(self):
        scorer = MLPScorer(num_factors=NUM_FACTORS, rng=1)
        model = _model()
        snapshot = FactorSnapshot(model.user_factors, model.item_factors, scorer=scorer)
        before = snapshot.model().score_block(np.arange(5, dtype=np.int64))
        scorer.w1 += 10.0
        after = snapshot.model().score_block(np.arange(5, dtype=np.int64))
        np.testing.assert_array_equal(before, after)
        assert snapshot.scorer is not scorer
        with pytest.raises(ValueError):
            snapshot.scorer.w1[0, 0] = 1.0

    def test_model_is_cached(self):
        snapshot = _snapshot()
        assert snapshot.model() is snapshot.model()

    @pytest.mark.parametrize("with_scorer", [False, True])
    def test_score_block_into_a_buffer_is_bit_identical(self, with_scorer):
        model = _model()
        scorer = MLPScorer(num_factors=NUM_FACTORS, rng=1) if with_scorer else None
        snapshot = FactorSnapshot(model.user_factors, model.item_factors, scorer=scorer)
        users = np.arange(3, 17, dtype=np.int64)
        buffer = np.full((users.shape[0], NUM_ITEMS), np.nan)
        written = snapshot.score_block(users, out=buffer)
        assert written is buffer
        np.testing.assert_array_equal(buffer, snapshot.model().score_block(users))

    def test_shape_and_version_properties(self):
        snapshot = _snapshot(version=7)
        assert (snapshot.n_users, snapshot.n_items) == (NUM_USERS, NUM_ITEMS)
        assert snapshot.num_factors == NUM_FACTORS
        assert snapshot.version == 7

    def test_validation(self):
        good = np.ones((3, 4))
        with pytest.raises(ServingError, match="2-D"):
            FactorSnapshot(np.ones(4), good)
        with pytest.raises(ServingError, match="non-empty"):
            FactorSnapshot(np.ones((0, 4)), good)
        with pytest.raises(ServingError, match="feature"):
            FactorSnapshot(np.ones((3, 5)), good)
        with pytest.raises(ServingError, match="version"):
            FactorSnapshot(good, good, version=-1)
        with pytest.raises(ServingError, match="scorer expects"):
            FactorSnapshot(good, good, scorer=MLPScorer(num_factors=8, rng=0))


class TestServiceValidation:
    def test_parameter_validation(self):
        snapshot, train = _snapshot(), _dataset()
        with pytest.raises(ServingError, match="top_k"):
            RecommenderService(snapshot, train, top_k=0)
        with pytest.raises(ServingError, match="block_size"):
            RecommenderService(snapshot, train, block_size=0)
        with pytest.raises(ServingError, match="max_cached_blocks"):
            RecommenderService(snapshot, train, max_cached_blocks=0)

    def test_exclude_seen_requires_train(self):
        with pytest.raises(ServingError, match="exclude_seen"):
            RecommenderService(_snapshot())
        # ...but opting out of masking is fine without interactions.
        service = RecommenderService(_snapshot(), exclude_seen=False)
        assert service.top_k(0).items.shape == (10,)

    def test_train_universe_must_match(self):
        with pytest.raises(ServingError, match="covers"):
            RecommenderService(_snapshot(), _dataset(num_users=NUM_USERS + 1))

    def test_query_validation(self):
        service = RecommenderService(_snapshot(), _dataset(), block_size=7)
        with pytest.raises(ServingError, match="out of range"):
            service.top_k(NUM_USERS)
        with pytest.raises(ServingError, match="out of range"):
            service.top_k(-1)
        with pytest.raises(ServingError, match="k must be positive"):
            service.top_k(0, k=0)
        with pytest.raises(ServingError, match="1-D"):
            service.top_k_batch(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ServingError, match="out of range"):
            service.top_k_batch([0, NUM_USERS])


class TestBitReproducibility:
    @pytest.mark.parametrize("block_size", [1, 7, 128])
    def test_served_floats_come_from_whole_block_gemms(self, block_size):
        snapshot, train = _snapshot(), _dataset()
        service = RecommenderService(snapshot, train, block_size=block_size)
        model = snapshot.model()
        blocks = user_blocks(NUM_USERS, block_size)
        store = train.interaction_store()
        for user in range(NUM_USERS):
            lo, hi = blocks[user // block_size]
            raw_row = model.score_block(np.arange(lo, hi, dtype=np.int64))[user - lo]
            items, scores = _reference_top_k(raw_row, store.positives(user), 10)
            answer = service.top_k(user)
            np.testing.assert_array_equal(answer.items, items)
            np.testing.assert_array_equal(answer.scores, scores)

    def test_batch_is_bit_identical_to_single_queries(self):
        # Two independent services (no shared memo): one answers a batch,
        # the other the same users one by one.
        users = [17, 0, 29, 5, 17, 12]
        batch_service = RecommenderService(_snapshot(), _dataset(), block_size=9)
        single_service = RecommenderService(_snapshot(), _dataset(), block_size=9)
        batched = batch_service.top_k_batch(users, k=6)
        for user, answer in zip(users, batched):
            single = single_service.top_k(user, k=6)
            assert answer.user == single.user == user
            np.testing.assert_array_equal(answer.items, single.items)
            np.testing.assert_array_equal(answer.scores, single.scores)

    def test_scores_are_descending_and_unmasked(self):
        service = RecommenderService(_snapshot(), _dataset(), block_size=9)
        store = _dataset().interaction_store()
        for user in (0, 13, 29):
            answer = service.top_k(user, k=5)
            assert np.all(np.diff(answer.scores) <= 0)
            assert np.isfinite(answer.scores).all()
            assert not np.isin(answer.items, store.positives(user)).any()

    def test_k_larger_than_catalog_is_clamped(self):
        service = RecommenderService(_snapshot(), exclude_seen=False)
        answer = service.top_k(2, k=NUM_ITEMS + 50)
        assert answer.items.shape == (NUM_ITEMS,)
        assert len(np.unique(answer.items)) == NUM_ITEMS

    def test_exposure_under_serving_equals_direct_evaluation(self):
        snapshot, train = _snapshot(), _dataset()
        service = RecommenderService(snapshot, train, block_size=13)
        targets = np.array([1, 4, 40], dtype=np.int64)
        served = exposure_under_serving(service, targets)
        direct = evaluate_snapshot(
            snapshot.model(), train, target_items=targets, rng=0, block_size=13
        ).exposure
        assert served == direct

    def test_exposure_under_serving_requires_train(self):
        service = RecommenderService(_snapshot(), exclude_seen=False)
        with pytest.raises(ServingError, match="training interactions"):
            exposure_under_serving(service, np.array([0], dtype=np.int64))

    def test_score_block_function_hands_out_owned_copies(self):
        service = RecommenderService(_snapshot(), _dataset(), block_size=9)
        score_block = service.score_block_function()
        users = np.arange(9, dtype=np.int64)
        first = score_block(users)
        first[:] = -np.inf  # evaluation masks in place; the cache must survive
        np.testing.assert_array_equal(
            score_block(users), service.snapshot.model().score_block(users)
        )


class TestCaches:
    def test_repeat_queries_are_memoised(self):
        service = RecommenderService(_snapshot(), _dataset())
        first = service.top_k(7)
        assert service.top_k(7) is first
        # Different k is a different memo entry.
        assert service.top_k(7, k=3) is not first
        stats = service.stats()
        assert stats["queries"] == 3
        assert stats["memo_hits"] == 1
        assert stats["memo_entries"] == 2

    def test_batch_reuses_the_memo(self):
        service = RecommenderService(_snapshot(), _dataset())
        single = service.top_k(4)
        batched = service.top_k_batch([4, 4, 8])
        assert batched[0] is single
        assert batched[1] is single
        assert service.stats()["memo_hits"] == 2

    def test_one_gemm_serves_a_whole_block(self):
        service = RecommenderService(_snapshot(), _dataset(), block_size=10)
        for user in range(10):  # all in block 0
            service.top_k(user)
        stats = service.stats()
        assert stats["blocks_scored"] == 1
        assert stats["cached_blocks"] == 1
        service.top_k(10)  # block 1
        assert service.stats()["blocks_scored"] == 2

    def test_lru_eviction_honours_max_cached_blocks(self):
        service = RecommenderService(
            _snapshot(), _dataset(), block_size=10, max_cached_blocks=1
        )
        service.top_k(0)  # block 0
        service.top_k(10)  # block 1 evicts block 0
        assert service.stats()["cached_blocks"] == 1
        assert service.stats()["blocks_scored"] == 2
        service.top_k(25, k=3)  # block 2 evicts block 1
        service.top_k(5, k=3)  # block 0 again: must be re-scored
        assert service.stats()["blocks_scored"] == 4
        assert service.stats()["cached_blocks"] == 1

    def test_recommendation_arrays_are_read_only(self):
        answer = RecommenderService(_snapshot(), _dataset()).top_k(0)
        with pytest.raises(ValueError):
            answer.items[0] = 0
        with pytest.raises(ValueError):
            answer.scores[0] = 0.0


class TestSnapshotSwap:
    def test_swap_invalidates_every_cache(self):
        service = RecommenderService(
            _snapshot(seed=4, version=1), _dataset(), block_size=10
        )
        stale = service.top_k(3)
        assert stale.snapshot_version == 1
        new_snapshot = _snapshot(seed=99, version=2)
        service.swap_snapshot(new_snapshot)
        stats = service.stats()
        assert stats["snapshot_swaps"] == 1
        assert stats["snapshot_version"] == 2
        assert stats["memo_entries"] == 0
        # The swap prewarmed every block, and every cached row is the new
        # snapshot's: none survives from the old one.
        blocks = user_blocks(NUM_USERS, 10)
        assert stats["cached_blocks"] == len(blocks)
        for index, (lo, hi) in enumerate(blocks):
            np.testing.assert_array_equal(
                service._block_scores[index],
                new_snapshot.model().score_block(np.arange(lo, hi, dtype=np.int64)),
            )
        fresh = service.top_k(3)
        assert fresh is not stale
        assert fresh.snapshot_version == 2
        # The stale answer keeps its provenance; the fresh one differs.
        assert stale.snapshot_version == 1
        assert not np.array_equal(fresh.scores, stale.scores)

    def test_swap_scores_every_block_into_the_retired_arrays(self):
        service = RecommenderService(
            _snapshot(seed=4, version=1), _dataset(), block_size=10
        )
        service.top_k_batch(list(range(NUM_USERS)))
        retired = dict(service._block_scores)
        scored = service.stats()["blocks_scored"]
        new_snapshot = _snapshot(seed=99, version=2)
        service.swap_snapshot(new_snapshot)
        blocks = user_blocks(NUM_USERS, 10)
        assert service.stats()["blocks_scored"] == scored + len(blocks)
        for index, (lo, hi) in enumerate(blocks):
            rows = service._block_scores[index]
            assert rows is retired[index]
            assert not rows.flags.writeable
            # Bit-identical to a fresh product of the new snapshot.
            np.testing.assert_array_equal(
                rows, new_snapshot.model().score_block(np.arange(lo, hi, dtype=np.int64))
            )
        for user in range(NUM_USERS):
            np.testing.assert_array_equal(
                service.top_k(user).items,
                RecommenderService(new_snapshot, _dataset(), block_size=10).top_k(user).items,
            )

    def test_bounded_cache_skips_the_prewarm(self):
        service = RecommenderService(
            _snapshot(seed=4, version=1), _dataset(), block_size=10, max_cached_blocks=2
        )
        service.top_k(0)
        service.swap_snapshot(_snapshot(seed=99, version=2))
        stats = service.stats()
        assert stats["blocks_scored"] == 1
        assert stats["cached_blocks"] == 0

    def test_newer_swap_stops_an_older_prewarm(self):
        service = RecommenderService(
            _snapshot(seed=4, version=1), _dataset(), block_size=10
        )
        newest = _snapshot(seed=7, version=3)
        original = service._block_rows
        superseded = []

        def block_rows(block_index):
            # A swap lands between the older prewarm's blocks.
            if block_index == 1 and not superseded:
                superseded.append(True)
                service.swap_snapshot(newest)
            return original(block_index)

        service._block_rows = block_rows
        service.swap_snapshot(_snapshot(seed=99, version=2))
        blocks = user_blocks(NUM_USERS, 10)
        # Block 0 of version 2, then every block of version 3; the version 2
        # prewarm stopped instead of scoring its blocks 1 and 2.
        assert service.stats()["blocks_scored"] == 1 + len(blocks)
        assert service.stats()["snapshot_version"] == 3
        for index, (lo, hi) in enumerate(blocks):
            np.testing.assert_array_equal(
                service._block_scores[index],
                newest.model().score_block(np.arange(lo, hi, dtype=np.int64)),
            )

    def test_swap_to_identical_factors_serves_identical_lists(self):
        service = RecommenderService(_snapshot(seed=4, version=1), _dataset())
        before = service.top_k(11)
        service.swap_snapshot(_snapshot(seed=4, version=2))
        after = service.top_k(11)
        np.testing.assert_array_equal(before.items, after.items)
        np.testing.assert_array_equal(before.scores, after.scores)
        assert (before.snapshot_version, after.snapshot_version) == (1, 2)

    def test_swap_rejects_a_different_universe(self):
        service = RecommenderService(_snapshot(), _dataset())
        other = FactorSnapshot.from_model(_model(num_users=NUM_USERS + 1))
        with pytest.raises(ServingError, match="swapped snapshot"):
            service.swap_snapshot(other)
        assert service.stats()["snapshot_swaps"] == 0

    def test_serving_is_consistent_under_concurrent_swaps(self):
        """Every answer matches one of the two snapshots, never a mixture."""
        train = _dataset()
        snapshots = {1: _snapshot(seed=4, version=1), 2: _snapshot(seed=99, version=2)}
        expected = {}
        for version, snapshot in snapshots.items():
            oracle = RecommenderService(snapshot, train)
            expected[version] = {user: oracle.top_k(user) for user in range(NUM_USERS)}

        service = RecommenderService(snapshots[1], train)
        failures: list[str] = []
        done = threading.Event()

        def query_loop() -> None:
            rng = np.random.default_rng(0)
            while not done.is_set():
                user = int(rng.integers(NUM_USERS))
                answer = service.top_k(user)
                want = expected[answer.snapshot_version][user]
                if not (
                    np.array_equal(answer.items, want.items)
                    and np.array_equal(answer.scores, want.scores)
                ):
                    failures.append(
                        f"user {user} mixed snapshot versions at v{answer.snapshot_version}"
                    )
                    return

        worker = threading.Thread(target=query_loop)
        worker.start()
        try:
            for _ in range(50):
                service.swap_snapshot(snapshots[2])
                service.swap_snapshot(snapshots[1])
        finally:
            done.set()
            worker.join()
        assert not failures, failures[0]


class TestRecommendationPayload:
    def test_to_json_dict_round_trips_plain_types(self):
        answer = RecommenderService(_snapshot(version=3), _dataset()).top_k(2, k=4)
        payload = answer.to_json_dict()
        assert payload["user"] == 2
        assert payload["snapshot_version"] == 3
        assert payload["items"] == [int(item) for item in answer.items]
        assert payload["scores"] == [float(score) for score in answer.scores]
        assert all(type(item) is int for item in payload["items"])
        assert all(type(score) is float for score in payload["scores"])

    def test_recommendation_is_frozen(self):
        answer = RecommenderService(_snapshot(), _dataset()).top_k(0)
        assert isinstance(answer, Recommendation)
        with pytest.raises(AttributeError):
            answer.user = 5

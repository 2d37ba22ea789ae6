"""Statistical and contract tests for the negative-sampling engines.

The two *training* draws — the stacked round draw and the one-user
permutation draw kept for fake-profile training and ``NegativeSampler`` —
claim the same distribution, an exact uniform draw without replacement from
the complement of the user's positives, while consuming different RNG
streams.  These tests check the distributional claim
(chi-square uniformity over the item catalog), the hard constraints
(positives never sampled, no duplicates, counts capped at the complement
size), and fixed-seed reproducibility, parametrized over both engines and
over empty / sparse / dense user histories.

The *evaluation* side's ranking stream
(:func:`sample_ranking_negatives_batched`, drawn **with** replacement and
excluding each row's test item) gets the same treatment: uniformity over the
free items, positives/test-item never sampled, and per-seed reproducibility.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.data.dataset import InteractionDataset
from repro.data.negative_sampling import (
    SAMPLER_ENGINES,
    NegativeSampler,
    sample_ranking_negatives_batched,
    sample_uniform_negatives,
    sample_uniform_negatives_batched,
)
from repro.exceptions import DataError

NUM_ITEMS = 60

#: Named user histories the constraint tests sweep over.
HISTORIES: dict[str, np.ndarray] = {
    "empty": np.empty(0, dtype=np.int64),
    "sparse": np.array([3, 17, 41], dtype=np.int64),
    "dense": np.arange(NUM_ITEMS - 2, dtype=np.int64),  # only 2 free items
}


def _mask(positives: np.ndarray, num_items: int = NUM_ITEMS) -> np.ndarray:
    mask = np.zeros(num_items, dtype=bool)
    mask[positives] = True
    return mask


def _draw(engine: str, rng: np.random.Generator, count: int, positives: np.ndarray) -> np.ndarray:
    """One draw of ``count`` negatives through the named engine."""
    if engine == "permutation":
        return sample_uniform_negatives(rng, NUM_ITEMS, count, _mask(positives))
    values, offsets = sample_uniform_negatives_batched(
        rng, NUM_ITEMS, np.array([count], dtype=np.int64), _mask(positives)[None, :]
    )
    assert offsets.shape == (2,)
    return values


@pytest.mark.parametrize("engine", SAMPLER_ENGINES)
@pytest.mark.parametrize("history", sorted(HISTORIES))
class TestSamplerConstraints:
    def test_positives_never_sampled(self, engine, history):
        positives = HISTORIES[history]
        rng = np.random.default_rng(3)
        for _ in range(50):
            negatives = _draw(engine, rng, 5, positives)
            assert not np.isin(negatives, positives).any()

    def test_no_duplicates_and_capped_counts(self, engine, history):
        positives = HISTORIES[history]
        free = NUM_ITEMS - positives.shape[0]
        negatives = _draw(engine, np.random.default_rng(4), NUM_ITEMS, positives)
        assert np.unique(negatives).shape[0] == negatives.shape[0]
        assert negatives.shape[0] == free

    def test_fixed_seed_reproducibility(self, engine, history):
        positives = HISTORIES[history]
        first = _draw(engine, np.random.default_rng(5), 7, positives)
        second = _draw(engine, np.random.default_rng(5), 7, positives)
        np.testing.assert_array_equal(first, second)


@pytest.mark.parametrize("engine", SAMPLER_ENGINES)
def test_chi_square_uniform_over_catalog(engine):
    """Sampled negatives are uniform over the non-positive catalog.

    2000 draws of 4 negatives each over 50 free items gives an expected count
    of 160 per item; the chi-square test must not reject uniformity at a
    significance level far below any plausible implementation bug.
    """
    positives = np.array([0, 7, 13, 21, 30, 44, 50, 55, 58, 59], dtype=np.int64)
    rng = np.random.default_rng(6)
    counts = np.zeros(NUM_ITEMS, dtype=np.int64)
    for _ in range(2000):
        counts[_draw(engine, rng, 4, positives)] += 1
    assert counts[positives].sum() == 0
    free = np.setdiff1d(np.arange(NUM_ITEMS), positives)
    _, p_value = stats.chisquare(counts[free])
    assert p_value > 1e-3, f"uniformity rejected (p={p_value:.2e})"


@pytest.mark.parametrize("engine", SAMPLER_ENGINES)
def test_engines_share_distribution_statistics(engine):
    """Per-user means of the sampled item ids match the complement's mean."""
    positives = HISTORIES["sparse"]
    free = np.setdiff1d(np.arange(NUM_ITEMS), positives)
    rng = np.random.default_rng(8)
    means = [float(_draw(engine, rng, 10, positives).mean()) for _ in range(500)]
    assert abs(np.mean(means) - free.mean()) < 1.0


def test_permutation_draw_owns_its_memory():
    """A slice would pin the whole filtered catalog permutation."""
    negatives = sample_uniform_negatives(
        np.random.default_rng(2), NUM_ITEMS, 3, _mask(HISTORIES["sparse"])
    )
    assert negatives.shape == (3,)
    assert negatives.base is None
    assert negatives.flags.owndata


class TestBatchedSpecifics:
    def test_batched_draws_whole_batch(self):
        rng = np.random.default_rng(9)
        masks = np.stack([_mask(h) for h in HISTORIES.values()])
        counts = np.array([4, NUM_ITEMS, 10], dtype=np.int64)
        values, offsets = sample_uniform_negatives_batched(rng, NUM_ITEMS, counts, masks)
        assert offsets.shape == (4,)
        for row, positives in enumerate(HISTORIES.values()):
            segment = values[offsets[row] : offsets[row + 1]]
            expected = min(int(counts[row]), NUM_ITEMS - positives.shape[0])
            assert segment.shape[0] == expected
            assert not np.isin(segment, positives).any()
            assert np.unique(segment).shape[0] == segment.shape[0]

    def test_batched_rejects_bad_shapes(self):
        rng = np.random.default_rng(10)
        with pytest.raises(DataError):
            sample_uniform_negatives_batched(
                rng, NUM_ITEMS, np.array([1, 2]), np.zeros((1, NUM_ITEMS), dtype=bool)
            )
        with pytest.raises(DataError):
            sample_uniform_negatives_batched(
                rng, NUM_ITEMS, np.array([-1]), np.zeros((1, NUM_ITEMS), dtype=bool)
            )

    def test_batched_cached_popcount_changes_nothing(self):
        # A caller-supplied popcount only skips the mask reduction: the draw
        # and the generator state afterwards are those of the default path.
        masks = np.stack([_mask(h) for h in HISTORIES.values()])
        counts = np.array([4, NUM_ITEMS, 10], dtype=np.int64)
        popcount = np.array([h.shape[0] for h in HISTORIES.values()], dtype=np.int64)
        plain, cached = np.random.default_rng(12), np.random.default_rng(12)
        expected = sample_uniform_negatives_batched(plain, NUM_ITEMS, counts, masks)
        result = sample_uniform_negatives_batched(
            cached, NUM_ITEMS, counts, masks, num_positives=popcount
        )
        np.testing.assert_array_equal(result[0], expected[0])
        np.testing.assert_array_equal(result[1], expected[1])
        assert cached.bit_generator.state == plain.bit_generator.state
        with pytest.raises(DataError):
            sample_uniform_negatives_batched(
                cached, NUM_ITEMS, counts, masks, num_positives=popcount[:2]
            )

    def test_batched_masks_not_mutated(self):
        rng = np.random.default_rng(11)
        masks = np.stack([_mask(HISTORIES["sparse"])])
        snapshot = masks.copy()
        sample_uniform_negatives_batched(rng, NUM_ITEMS, np.array([20]), masks)
        np.testing.assert_array_equal(masks, snapshot)


class TestBatchedRankingStream:
    """The evaluation side's stacked with-replacement draw."""

    def _masks(self) -> tuple[np.ndarray, np.ndarray]:
        masks = np.stack([_mask(h) for h in HISTORIES.values()])
        excluded = np.array([5, 9, -1], dtype=np.int64)  # dense row: no exclusion
        return masks, excluded

    def test_positives_and_test_item_never_sampled(self):
        masks, excluded = self._masks()
        rng = np.random.default_rng(21)
        for _ in range(50):
            values, offsets = sample_ranking_negatives_batched(
                rng, NUM_ITEMS, np.full(3, 7, dtype=np.int64), masks, excluded
            )
            for row, positives in enumerate(HISTORIES.values()):
                segment = values[offsets[row] : offsets[row + 1]]
                assert not np.isin(segment, positives).any()
                assert not np.any(segment == excluded[row])

    def test_counts_with_replacement_and_saturated_rows(self):
        """Non-saturated rows get their full request (duplicates allowed);
        rows whose positives + test item cover the catalog get zero."""
        positives = np.arange(NUM_ITEMS - 1, dtype=np.int64)  # one free item
        masks = np.stack([_mask(positives), _mask(positives), _mask(HISTORIES["sparse"])])
        # Row 0's single free item is also its test item -> saturated.
        excluded = np.array([NUM_ITEMS - 1, -1, 17], dtype=np.int64)
        values, offsets = sample_ranking_negatives_batched(
            np.random.default_rng(22), NUM_ITEMS, np.full(3, 9, dtype=np.int64), masks, excluded
        )
        counts = np.diff(offsets)
        assert counts.tolist() == [0, 9, 9]
        # Row 1 has one free item: all nine draws are that item (replacement).
        np.testing.assert_array_equal(
            values[offsets[1] : offsets[2]], np.full(9, NUM_ITEMS - 1)
        )

    def test_fixed_seed_reproducibility(self):
        masks, excluded = self._masks()
        counts = np.array([7, 4, 11], dtype=np.int64)
        first = sample_ranking_negatives_batched(
            np.random.default_rng(23), NUM_ITEMS, counts, masks, excluded
        )
        second = sample_ranking_negatives_batched(
            np.random.default_rng(23), NUM_ITEMS, counts, masks, excluded
        )
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_chi_square_uniform_over_free_items(self):
        """Every accepted draw is uniform over the row's free items (the
        catalog minus positives minus the test item)."""
        positives = np.array([0, 7, 13, 21, 30, 44, 50, 55, 58, 59], dtype=np.int64)
        test_item = 33
        masks = _mask(positives)[None, :]
        rng = np.random.default_rng(24)
        counts = np.zeros(NUM_ITEMS, dtype=np.int64)
        for _ in range(2000):
            values, _ = sample_ranking_negatives_batched(
                rng, NUM_ITEMS, np.array([4]), masks, np.array([test_item])
            )
            counts[values] += 1
        assert counts[positives].sum() == 0
        assert counts[test_item] == 0
        free = np.setdiff1d(np.arange(NUM_ITEMS), np.append(positives, test_item))
        _, p_value = stats.chisquare(counts[free])
        assert p_value > 1e-3, f"uniformity rejected (p={p_value:.2e})"

    def test_zero_count_rows_consume_no_randomness(self):
        """Rows requesting nothing (skipped users) draw nothing: the stream
        realization of the remaining rows is unchanged."""
        masks, excluded = self._masks()
        with_skip = sample_ranking_negatives_batched(
            np.random.default_rng(25), NUM_ITEMS,
            np.array([6, 0, 6]), masks, excluded,
        )
        # Note: identical masks layout, the middle row simply requests 0.
        without = sample_ranking_negatives_batched(
            np.random.default_rng(25), NUM_ITEMS,
            np.array([6, 6], dtype=np.int64),
            masks[[0, 2]], excluded[[0, 2]],
        )
        np.testing.assert_array_equal(with_skip[0], without[0])

    def test_rejects_bad_shapes(self):
        masks, excluded = self._masks()
        with pytest.raises(DataError):
            sample_ranking_negatives_batched(
                np.random.default_rng(26), NUM_ITEMS, np.array([1, 2]), masks, excluded
            )
        with pytest.raises(DataError):
            sample_ranking_negatives_batched(
                np.random.default_rng(26), NUM_ITEMS, np.array([-1, 1, 1]), masks, excluded
            )
        with pytest.raises(DataError):
            sample_ranking_negatives_batched(
                np.random.default_rng(26), NUM_ITEMS, np.array([1, 1, 1]), masks,
                np.array([0, NUM_ITEMS, 0]),
            )
        with pytest.raises(DataError):
            sample_ranking_negatives_batched(
                np.random.default_rng(26), NUM_ITEMS, np.array([1, 1]), masks, excluded[:2]
            )


@pytest.mark.parametrize("engine", SAMPLER_ENGINES)
def test_negative_sampler_facade(engine, tiny_dataset: InteractionDataset):
    """The data-layer NegativeSampler honours the engine switch."""
    sampler = NegativeSampler(tiny_dataset, rng=13, sampler=engine)
    for user in range(tiny_dataset.num_users):
        positives = tiny_dataset.positive_items(user)
        negatives = sampler.sample_for_user(user)
        assert negatives.shape[0] == positives.shape[0]
        assert not np.isin(negatives, positives).any()
    # Same seed, same call sequence -> same draws.
    repeat = NegativeSampler(tiny_dataset, rng=13, sampler=engine)
    np.testing.assert_array_equal(
        NegativeSampler(tiny_dataset, rng=13, sampler=engine).sample_for_user(0),
        repeat.sample_for_user(0),
    )


def test_negative_sampler_rejects_unknown_engine(tiny_dataset):
    with pytest.raises(DataError):
        NegativeSampler(tiny_dataset, sampler="magic")

"""Tests for clients, the server and the federated configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, FederationError
from repro.federated.client import BenignClient, MaliciousClient
from repro.federated.config import FederatedConfig
from repro.federated.server import Server
from repro.federated.updates import ClientUpdate
from repro.models.neural import MLPScorer

NUM_ITEMS = 30
NUM_FACTORS = 4


def _benign_client(positives=(0, 1, 2), seed=0, **kwargs):
    return BenignClient(
        client_id=0,
        positives=np.array(positives, dtype=np.int64),
        num_items=NUM_ITEMS,
        num_factors=NUM_FACTORS,
        learning_rate=0.1,
        rng=seed,
        **kwargs,
    )


class TestFederatedConfig:
    def test_defaults_are_paper_defaults(self):
        config = FederatedConfig()
        assert config.num_factors == 32
        assert config.learning_rate == pytest.approx(0.01)
        assert config.num_epochs == 200
        assert config.clip_norm == pytest.approx(1.0)
        config.validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_factors", 0),
            ("learning_rate", 0.0),
            ("clients_per_round", 0),
            ("num_epochs", 0),
            ("noise_scale", -0.1),
            ("clip_norm", 0.0),
            ("l2_reg", -1.0),
            ("init_scale", 0.0),
            ("scorer_hidden_units", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        from dataclasses import replace

        config = replace(FederatedConfig(), **{field: value})
        with pytest.raises(ConfigurationError):
            config.validate()


class TestBenignClient:
    def test_local_train_returns_update_with_touched_items(self, rng):
        client = _benign_client()
        item_factors = rng.normal(size=(NUM_ITEMS, NUM_FACTORS))
        update = client.local_train(item_factors)
        assert isinstance(update, ClientUpdate)
        assert not update.is_malicious
        # Positives must be among the touched rows.
        assert set([0, 1, 2]).issubset(set(update.item_ids.tolist()))

    def test_local_train_updates_private_vector(self, rng):
        client = _benign_client()
        before = client.user_vector.copy()
        client.local_train(rng.normal(size=(NUM_ITEMS, NUM_FACTORS)))
        assert not np.allclose(before, client.user_vector)

    def test_gradient_rows_bounded_by_twice_profile(self, rng):
        client = _benign_client(positives=range(5))
        update = client.local_train(rng.normal(size=(NUM_ITEMS, NUM_FACTORS)))
        assert update.num_nonzero_rows <= 2 * 5

    def test_loss_is_positive(self, rng):
        client = _benign_client()
        update = client.local_train(rng.normal(size=(NUM_ITEMS, NUM_FACTORS)))
        assert update.loss > 0.0

    def test_repeated_training_reduces_loss(self, rng):
        client = _benign_client(positives=range(6), seed=1)
        item_factors = rng.normal(size=(NUM_ITEMS, NUM_FACTORS), scale=0.1)
        losses = []
        for _ in range(30):
            update = client.local_train(item_factors)
            losses.append(update.loss)
            item_factors = item_factors - 0.1 * update.to_dense(NUM_ITEMS, NUM_FACTORS)
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_construction_leaves_the_stream_after_the_user_vector(self):
        # The constructor draws the user vector and nothing else: the first
        # round fills the negatives from the round stream.
        client = _benign_client(seed=7)
        expected = np.random.default_rng(7)
        expected.normal(0.0, 0.01, size=NUM_FACTORS)
        assert client._rng.bit_generator.state == expected.bit_generator.state
        assert client.needs_fresh_negatives
        fixed = _benign_client(seed=7, resample_negatives=False)
        assert fixed.needs_fresh_negatives

    def test_accepted_negatives_are_reused_without_resampling(self, rng):
        client = _benign_client(positives=range(4), resample_negatives=False)
        negatives = np.array([10, 11, 12, 13], dtype=np.int64)
        client.accept_negatives(negatives)
        assert not client.needs_fresh_negatives
        state = client._rng.bit_generator.state
        positives, drawn = client.draw_pairs()
        np.testing.assert_array_equal(drawn, negatives)
        np.testing.assert_array_equal(positives, np.arange(4))
        assert client._rng.bit_generator.state == state

    def test_participation_counter(self, rng):
        client = _benign_client()
        item_factors = rng.normal(size=(NUM_ITEMS, NUM_FACTORS))
        client.local_train(item_factors)
        client.local_train(item_factors)
        assert client.participation_count == 2

    def test_scorer_path_produces_theta_gradient(self, rng):
        client = _benign_client()
        scorer = MLPScorer(NUM_FACTORS, hidden_units=4, rng=0)
        update = client.local_train(rng.normal(size=(NUM_ITEMS, NUM_FACTORS)), scorer)
        assert update.theta_gradient is not None
        assert update.theta_gradient.shape == (scorer.num_parameters,)

    def test_invalid_construction(self):
        with pytest.raises(FederationError):
            BenignClient(0, np.array([0]), num_items=0, num_factors=4, learning_rate=0.1)
        with pytest.raises(FederationError):
            BenignClient(0, np.array([0]), num_items=5, num_factors=4, learning_rate=0.0)


class TestMaliciousClient:
    def test_default_profile_is_empty(self):
        client = MaliciousClient(10, NUM_ITEMS, NUM_FACTORS, 0.1, rng=0)
        assert client.is_malicious
        assert client.profile.shape == (0,)

    def test_empty_profile_training_uploads_nothing(self, rng):
        client = MaliciousClient(10, NUM_ITEMS, NUM_FACTORS, 0.1, rng=0)
        update = client.train_on_profile(rng.normal(size=(NUM_ITEMS, NUM_FACTORS)))
        assert update.num_nonzero_rows == 0
        assert update.is_malicious

    def test_set_profile_deduplicates(self):
        client = MaliciousClient(10, NUM_ITEMS, NUM_FACTORS, 0.1, rng=0)
        client.set_profile(np.array([3, 3, 5]))
        np.testing.assert_array_equal(client.profile, [3, 5])

    def test_set_profile_out_of_range(self):
        client = MaliciousClient(10, NUM_ITEMS, NUM_FACTORS, 0.1, rng=0)
        with pytest.raises(FederationError):
            client.set_profile(np.array([NUM_ITEMS]))

    def test_profile_training_touches_profile_items(self, rng):
        client = MaliciousClient(10, NUM_ITEMS, NUM_FACTORS, 0.1, rng=0)
        client.set_profile(np.array([2, 4, 6]))
        update = client.train_on_profile(rng.normal(size=(NUM_ITEMS, NUM_FACTORS)))
        assert set([2, 4, 6]).issubset(set(update.item_ids.tolist()))
        assert update.is_malicious


class TestServer:
    def test_initial_state(self):
        server = Server(NUM_ITEMS, FederatedConfig(num_factors=NUM_FACTORS), rng=0)
        assert server.item_factors.shape == (NUM_ITEMS, NUM_FACTORS)
        assert server.scorer is None
        assert server.rounds_applied == 0

    def test_learnable_scorer_enabled(self):
        config = FederatedConfig(num_factors=NUM_FACTORS, use_learnable_scorer=True)
        server = Server(NUM_ITEMS, config, rng=0)
        assert server.scorer is not None

    def test_apply_round_is_sgd_step(self):
        config = FederatedConfig(num_factors=NUM_FACTORS, learning_rate=0.5)
        server = Server(NUM_ITEMS, config, rng=0)
        before = server.item_factors.copy()
        update = ClientUpdate(
            client_id=0, item_ids=np.array([3]), item_gradients=np.array([[1.0, 0.0, 0.0, 0.0]])
        )
        server.apply_round([update])
        np.testing.assert_allclose(server.item_factors[3, 0], before[3, 0] - 0.5)
        np.testing.assert_allclose(server.item_factors[4], before[4])
        assert server.rounds_applied == 1

    def test_apply_round_sums_clients(self):
        config = FederatedConfig(num_factors=NUM_FACTORS, learning_rate=1.0)
        server = Server(NUM_ITEMS, config, rng=0)
        before = server.item_factors[2].copy()
        updates = [
            ClientUpdate(client_id=i, item_ids=np.array([2]), item_gradients=np.ones((1, NUM_FACTORS)))
            for i in range(3)
        ]
        server.apply_round(updates)
        np.testing.assert_allclose(server.item_factors[2], before - 3.0)

    def test_empty_round_leaves_parameters_untouched_but_counts(self):
        server = Server(NUM_ITEMS, FederatedConfig(num_factors=NUM_FACTORS), rng=0)
        before = server.item_factors.copy()
        server.apply_round([])
        np.testing.assert_array_equal(server.item_factors, before)
        # An empty round is still a protocol round: the authoritative counter
        # must advance so attack schedules cannot drift from it.
        assert server.rounds_applied == 1

    def test_scorer_updated_from_theta_gradient(self):
        config = FederatedConfig(
            num_factors=NUM_FACTORS, learning_rate=0.1, use_learnable_scorer=True
        )
        server = Server(NUM_ITEMS, config, rng=0)
        before = server.scorer.get_parameters().copy()
        update = ClientUpdate(
            client_id=0,
            item_ids=np.array([0]),
            item_gradients=np.zeros((1, NUM_FACTORS)),
            theta_gradient=np.ones(server.scorer.num_parameters),
        )
        server.apply_round([update])
        np.testing.assert_allclose(server.scorer.get_parameters(), before - 0.1)

    def test_snapshot_is_a_copy(self):
        server = Server(NUM_ITEMS, FederatedConfig(num_factors=NUM_FACTORS), rng=0)
        snapshot = server.snapshot_item_factors()
        snapshot[0, 0] += 10.0
        assert server.item_factors[0, 0] != snapshot[0, 0]

    def test_invalid_num_items(self):
        with pytest.raises(FederationError):
            Server(0, FederatedConfig(num_factors=NUM_FACTORS), rng=0)

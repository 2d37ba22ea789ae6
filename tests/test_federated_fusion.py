"""Cross-round fusion (``FederatedConfig.fuse_rounds``) semantics.

Fusion computes a window of consecutive same-epoch rounds' benign local
training in one stacked kernel against the item matrix at the window start,
then privatises / attack-extends / observes / aggregates strictly per round.
These tests pin the semantic guarantees:

* a fusion window of one is *exactly* the unfused round (bit-identical
  parameters and history),
* protocol bookkeeping (round counters, participation counts, observer
  cadence) is independent of the window size,
* DP clipping and noise still run per round in upload order,
* attack uploads are injected into their own round against the current
  parameters,
* the configuration is validated (vectorized MF only),
* fused training still converges on the small fixture.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.fedrecattack import FedRecAttack, FedRecAttackConfig
from repro.exceptions import ConfigurationError
from repro.federated.config import FederatedConfig
from repro.federated.simulation import FederatedSimulation
from repro.rng import SeedSequenceFactory

def _simulation(small_split, small_targets, fuse_rounds, attack=None, num_malicious=0, **kw):
    defaults = dict(
        num_factors=8,
        learning_rate=0.05,
        clients_per_round=32,
        num_epochs=4,
        fuse_rounds=fuse_rounds,
    )
    defaults.update(kw)
    return FederatedSimulation(
        train=small_split.train,
        config=FederatedConfig(**defaults),
        test_items=small_split.test_items,
        target_items=small_targets,
        attack=attack,
        num_malicious=num_malicious,
        seed=SeedSequenceFactory(41),
        eval_num_negatives=20,
    )


class TestFusionConfig:
    def test_fuse_rounds_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FederatedConfig(fuse_rounds=0).validate()

    def test_fusion_requires_vectorized_engine(self):
        with pytest.raises(ConfigurationError):
            FederatedConfig(engine="loop", fuse_rounds=2).validate()

    def test_fusion_rejects_scorer_path(self):
        with pytest.raises(ConfigurationError):
            FederatedConfig(use_learnable_scorer=True, fuse_rounds=2).validate()

    def test_default_is_exact(self):
        assert FederatedConfig().fuse_rounds == 1


class TestFusionKernel:
    def test_window_of_one_is_bit_identical(self, small_split, small_targets):
        """train_rounds([ids]) must reproduce train_round(ids) exactly."""
        sim_a = _simulation(small_split, small_targets, 1)
        sim_b = _simulation(small_split, small_targets, 1)
        batch = [int(c) for c in sorted(sim_a.benign_clients)[:16]]
        updates_a, loss_a = sim_a._trainer.train_round(
            batch, sim_a.server.item_factors, None
        )
        [(updates_b, loss_b)] = sim_b._trainer.train_rounds(
            [batch], sim_b.server.item_factors
        )
        assert loss_a == loss_b
        np.testing.assert_array_equal(updates_a.item_ids, updates_b.item_ids)
        np.testing.assert_array_equal(updates_a.coefficients, updates_b.coefficients)
        np.testing.assert_array_equal(updates_a.client_offsets, updates_b.client_offsets)
        np.testing.assert_array_equal(updates_a.user_vectors, updates_b.user_vectors)
        for cid in batch:
            np.testing.assert_array_equal(
                sim_a.benign_clients[cid].user_vector,
                sim_b.benign_clients[cid].user_vector,
            )

    def test_overlapping_windows_fall_back_to_sequential(self, small_split, small_targets):
        """A client in two rounds of a window forces the exact per-round path."""
        sim = _simulation(small_split, small_targets, 2)
        ref = _simulation(small_split, small_targets, 2)
        batch = [int(c) for c in sorted(sim.benign_clients)[:8]]
        fused = sim._trainer.train_rounds([batch, batch], sim.server.item_factors)
        expected_first, _ = ref._trainer.train_round(batch, ref.server.item_factors, None)
        assert len(fused) == 2
        np.testing.assert_array_equal(
            fused[0][0].coefficients, expected_first.coefficients
        )
        # The second round trained on user vectors already stepped once.
        assert not np.array_equal(
            fused[1][0].user_vectors, fused[0][0].user_vectors
        )

    def test_empty_rounds_in_window(self, small_split, small_targets):
        sim = _simulation(small_split, small_targets, 3)
        batch = [int(c) for c in sorted(sim.benign_clients)[:4]]
        results = sim._trainer.train_rounds([[], batch, []], sim.server.item_factors)
        assert len(results) == 3
        assert results[0][1] == 0.0 and results[2][1] == 0.0
        assert len(results[0][0]) == 0 and len(results[2][0]) == 0
        assert len(results[1][0]) == len(batch)


class TestFusionProtocol:
    @pytest.mark.parametrize("fuse_rounds", (2, 3))
    def test_bookkeeping_matches_unfused(self, small_split, small_targets, fuse_rounds):
        fused = _simulation(small_split, small_targets, fuse_rounds)
        plain = _simulation(small_split, small_targets, 1)
        result_fused = fused.run()
        result_plain = plain.run()
        assert fused.server.rounds_applied == plain.server.rounds_applied
        for user in range(small_split.train.num_users):
            assert (
                fused.benign_clients[user].participation_count
                == plain.benign_clients[user].participation_count
            )
        # Same number of epochs recorded, finite losses throughout.
        assert len(result_fused.history) == len(result_plain.history)
        assert np.all(np.isfinite(result_fused.history.training_loss()))

    def test_observer_sees_every_round(self, small_split, small_targets):
        seen: list[tuple[int, int]] = []
        simulation = FederatedSimulation(
            train=small_split.train,
            config=FederatedConfig(
                num_factors=8, clients_per_round=32, num_epochs=2, fuse_rounds=2
            ),
            test_items=small_split.test_items,
            target_items=small_targets,
            seed=SeedSequenceFactory(5),
            update_observer=lambda round_index, updates: seen.append(
                (round_index, len(updates))
            ),
        )
        simulation.run()
        rounds = [round_index for round_index, _ in seen]
        assert rounds == list(range(simulation.server.rounds_applied))
        assert all(count > 0 for _, count in seen)

    def test_dp_noise_runs_per_round(self, small_split, small_targets):
        """Noisy fused runs stay finite and clip rows like unfused ones."""
        simulation = _simulation(
            small_split,
            small_targets,
            2,
            noise_scale=0.05,
            clip_benign_gradients=True,
        )
        collected: list[float] = []
        simulation.update_observer = lambda _, updates: collected.extend(
            u.max_row_norm for u in updates
        )
        result = simulation.run(num_epochs=1)
        assert np.all(np.isfinite(result.history.training_loss()))
        assert collected  # the observer materialised every round's rows
        # Rows are clipped before noise; noise of scale 0.05 cannot push a
        # clipped row's norm far beyond the bound.
        assert max(collected) < 1.0 + 6 * 0.05 * np.sqrt(8)

    def test_clip_only_dp_stays_factored_and_bounded(self, small_split, small_targets):
        simulation = _simulation(
            small_split, small_targets, 2, clip_benign_gradients=True, clip_norm=0.05
        )
        norms: list[float] = []
        simulation.update_observer = lambda _, updates: norms.extend(
            u.max_row_norm for u in updates
        )
        simulation.run(num_epochs=1)
        assert norms and max(norms) <= 0.05 + 1e-12

    def test_attack_rounds_fused(self, small_split, small_public, small_targets):
        attack = FedRecAttack(
            small_public,
            FedRecAttackConfig(kappa=12, approx_epochs_initial=2, approx_epochs_per_round=1),
        )
        malicious_seen: list[int] = []
        simulation = _simulation(
            small_split,
            small_targets,
            3,
            attack=attack,
            num_malicious=4,
        )
        simulation.update_observer = lambda round_index, updates: malicious_seen.extend(
            round_index for u in updates if u.is_malicious
        )
        result = simulation.run()
        assert malicious_seen, "malicious uploads must appear in fused rounds"
        assert np.all(np.isfinite(result.history.training_loss()))
        assert result.final_er_at_5 >= 0.0

    def test_fused_training_converges(self, small_split, small_targets):
        result = _simulation(
            small_split,
            small_targets,
            4,
            num_epochs=60,
            learning_rate=0.1,
        ).run()
        losses = result.history.training_loss()
        assert losses[-1] < 0.5 * losses[0]

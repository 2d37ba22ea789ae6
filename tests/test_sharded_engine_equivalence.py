"""Sharded multi-worker round engine equivalence.

``FederatedConfig.workers = W > 1`` partitions each round's sampled clients
into contiguous shards trained by a process pool against a shared-memory
snapshot of ``V`` and the dataset's CSR arrays, then merges the per-shard
updates deterministically in shard order before DP clipping, attack injection
and aggregation.  All randomness is predrawn in the parent, the workers run
only exactly block-decomposable kernel stages, and the merge is a pure
concatenation — so for every engine realization the full training history
must be **bit-identical** to ``workers=1``.  This suite pins that contract
across the {engine} x {workers} x {scenario} grid,
including the edge partitions (more shards than clients, empty shards,
one-client shards).
"""

from __future__ import annotations

import numpy as np
import pytest

try:  # pragma: no cover - exercised only on crippled platforms
    import multiprocessing.synchronize  # noqa: F401
except ImportError:  # pragma: no cover
    pytest.skip("process pools unavailable on this platform", allow_module_level=True)

from repro.attacks.fedrecattack import FedRecAttack, FedRecAttackConfig
from repro.exceptions import FederationError
from repro.federated.config import FederatedConfig
from repro.federated.sharding import partition_clients
from repro.federated.simulation import FederatedSimulation
from repro.rng import SeedSequenceFactory

ENGINES = ("loop", "vectorized")
WORKERS = (1, 2, 3, 7)
SCENARIOS = ("benign", "fedrecattack")


def _run(small_split, small_public, small_targets, engine, scenario, workers, **kwargs):
    attack = None
    num_malicious = 0
    if scenario == "fedrecattack":
        attack = FedRecAttack(
            small_public,
            FedRecAttackConfig(kappa=12, approx_epochs_initial=3, approx_epochs_per_round=1),
        )
        num_malicious = 4
    defaults = dict(
        num_factors=8,
        learning_rate=0.05,
        clients_per_round=32,
        num_epochs=2,
        engine=engine,
        workers=workers,
    )
    defaults.update(kwargs)
    simulation = FederatedSimulation(
        train=small_split.train,
        config=FederatedConfig(**defaults),
        test_items=small_split.test_items,
        target_items=small_targets,
        attack=attack,
        num_malicious=num_malicious,
        seed=SeedSequenceFactory(41),
        eval_num_negatives=20,
    )
    try:
        result = simulation.run()
    finally:
        simulation.close()
    return result, simulation


def _assert_bit_identical(result_a, result_b):
    """Full-history bit equality: losses, parameters and metrics must match exactly."""
    np.testing.assert_array_equal(
        np.asarray(result_a.history.training_loss()),
        np.asarray(result_b.history.training_loss()),
    )
    np.testing.assert_array_equal(result_a.item_factors, result_b.item_factors)
    if result_a.accuracy is not None:
        assert result_a.accuracy.hr_at_10 == result_b.accuracy.hr_at_10
        assert result_a.accuracy.ndcg_at_10 == result_b.accuracy.ndcg_at_10
    else:
        assert result_b.accuracy is None
    if result_a.exposure is not None:
        assert result_a.exposure.er_at_5 == result_b.exposure.er_at_5
        assert result_a.exposure.er_at_10 == result_b.exposure.er_at_10
    else:
        assert result_b.exposure is None


#: Lazily filled (engine, scenario) -> workers=1 baseline cache so the six
#: sharded grid points reuse two baseline runs per scenario.
_BASELINES: dict[tuple[str, str], object] = {}


def _baseline(small_split, small_public, small_targets, engine, scenario):
    key = (engine, scenario)
    if key not in _BASELINES:
        result, _ = _run(
            small_split, small_public, small_targets, engine, scenario, workers=1
        )
        _BASELINES[key] = result
    return _BASELINES[key]


class TestShardedEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workers", [w for w in WORKERS if w > 1])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_grid_bit_identical(
        self, small_split, small_public, small_targets, engine, workers, scenario
    ):
        baseline = _baseline(small_split, small_public, small_targets, engine, scenario)
        sharded, simulation = _run(
            small_split, small_public, small_targets, engine, scenario, workers
        )
        _assert_bit_identical(baseline, sharded)
        assert simulation.round_index > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_more_workers_than_round_clients(
        self, small_split, small_public, small_targets, engine
    ):
        # Seven shards over four-client rounds: every shard holds at most one
        # client and three trailing shards are empty every round.
        baseline, _ = _run(
            small_split,
            small_public,
            small_targets,
            engine,
            "benign",
            workers=1,
            clients_per_round=4,
            num_epochs=1,
        )
        sharded, _ = _run(
            small_split,
            small_public,
            small_targets,
            engine,
            "benign",
            workers=7,
            clients_per_round=4,
            num_epochs=1,
        )
        _assert_bit_identical(baseline, sharded)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_client_shards(self, small_split, small_public, small_targets, engine):
        # workers == clients_per_round: every shard trains exactly one client.
        baseline, _ = _run(
            small_split,
            small_public,
            small_targets,
            engine,
            "benign",
            workers=1,
            clients_per_round=8,
            num_epochs=1,
        )
        sharded, _ = _run(
            small_split,
            small_public,
            small_targets,
            engine,
            "benign",
            workers=8,
            clients_per_round=8,
            num_epochs=1,
        )
        _assert_bit_identical(baseline, sharded)

    def test_l2_regularised_path(self, small_split, small_public, small_targets):
        baseline, _ = _run(
            small_split, small_public, small_targets,
            "vectorized", "benign", workers=1, l2_reg=0.01,
        )
        sharded, _ = _run(
            small_split, small_public, small_targets,
            "vectorized", "benign", workers=2, l2_reg=0.01,
        )
        _assert_bit_identical(baseline, sharded)

    def test_privacy_noise_path(self, small_split, small_public, small_targets):
        # DP noise is drawn in the parent after the merge, so even noisy
        # trajectories must coincide bit for bit.
        kwargs = dict(noise_scale=0.1, clip_benign_gradients=True)
        baseline, _ = _run(
            small_split, small_public, small_targets,
            "vectorized", "benign", workers=1, **kwargs,
        )
        sharded, _ = _run(
            small_split, small_public, small_targets,
            "vectorized", "benign", workers=3, **kwargs,
        )
        _assert_bit_identical(baseline, sharded)

    def test_scorer_loop_path(self, small_split, small_public, small_targets):
        # The MLP scorer shards only through the loop engine (the vectorized
        # combination is rejected at validation time).
        kwargs = dict(use_learnable_scorer=True, scorer_hidden_units=8)
        baseline, sim_base = _run(
            small_split, small_public, small_targets,
            "loop", "benign", workers=1, **kwargs,
        )
        sharded, sim_shard = _run(
            small_split, small_public, small_targets,
            "loop", "benign", workers=2, **kwargs,
        )
        _assert_bit_identical(baseline, sharded)
        np.testing.assert_array_equal(
            sim_base.server.scorer.get_parameters(),
            sim_shard.server.scorer.get_parameters(),
        )

    def test_participation_counts_agree(self, small_split, small_public, small_targets):
        _, sim_base = _run(
            small_split, small_public, small_targets,
            "vectorized", "benign", workers=1,
        )
        _, sim_shard = _run(
            small_split, small_public, small_targets,
            "vectorized", "benign", workers=3,
        )
        assert sim_base.server.rounds_applied == sim_shard.server.rounds_applied
        for user in range(small_split.train.num_users):
            assert (
                sim_base.benign_clients[user].participation_count
                == sim_shard.benign_clients[user].participation_count
            )


class TestPartitionEdges:
    def test_even_split_with_remainder(self):
        assert partition_clients(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_shards_than_clients(self):
        assert partition_clients(3, 7) == [
            (0, 1), (1, 2), (2, 3), (3, 3), (3, 3), (3, 3), (3, 3),
        ]

    def test_zero_clients(self):
        assert partition_clients(0, 2) == [(0, 0), (0, 0)]

    def test_one_client_per_shard(self):
        assert partition_clients(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_single_shard_is_identity(self):
        assert partition_clients(9, 1) == [(0, 9)]

    def test_rejects_negative_clients(self):
        with pytest.raises(FederationError):
            partition_clients(-1, 2)

    def test_rejects_zero_shards(self):
        with pytest.raises(FederationError):
            partition_clients(5, 0)

"""Tests for FedRecAttack: the g function, the attack loss, the user-matrix
approximation and the constrained gradient upload."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.attacks import fedrecattack
from repro.attacks.approximation import UserMatrixApproximator
from repro.attacks.base import AttackContext
from repro.attacks.fedrecattack import (
    FedRecAttack,
    FedRecAttackConfig,
    attack_loss_and_gradient,
    attack_loss_and_gradient_vectorized,
    g_derivative,
    g_function,
)
from repro.data.dataset import InteractionDataset
from repro.data.negative_sampling import sample_uniform_negatives_batched
from repro.data.public import sample_public_interactions
from repro.exceptions import AttackError
from repro.federated.client import MaliciousClient
from repro.models.losses import bpr_loss_and_gradients


class TestGFunction:
    def test_identity_for_non_negative(self):
        x = np.array([0.0, 0.5, 3.0])
        np.testing.assert_allclose(g_function(x), x)

    def test_exponential_minus_one_for_negative(self):
        x = np.array([-1.0, -5.0])
        np.testing.assert_allclose(g_function(x), np.expm1(x))

    def test_continuous_at_zero(self):
        assert g_function(np.array([1e-12]))[0] == pytest.approx(
            g_function(np.array([-1e-12]))[0], abs=1e-9
        )

    def test_derivative_matches_finite_difference(self):
        for x in (-2.0, -0.5, 0.5, 2.0):
            numerical = (g_function(np.array([x + 1e-6])) - g_function(np.array([x - 1e-6]))) / 2e-6
            assert g_derivative(np.array([x]))[0] == pytest.approx(numerical[0], rel=1e-4)

    def test_derivative_vanishes_for_very_negative_margins(self):
        # This is the property the paper credits for the attack's stealth.
        assert g_derivative(np.array([-30.0]))[0] < 1e-12

    def test_derivative_bounded_by_one(self):
        x = np.linspace(-10, 10, 101)
        assert np.all(g_derivative(x) <= 1.0 + 1e-12)


class TestFedRecAttackConfig:
    def test_defaults_match_paper(self):
        config = FedRecAttackConfig()
        assert config.kappa == 60
        assert config.step_size == pytest.approx(1.0)
        config.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kappa": 0},
            {"step_size": 0.0},
            {"clip_norm": 0.0},
            {"top_k": 0},
            {"approx_epochs_initial": -1},
            {"margin_mode": "bogus"},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(AttackError):
            FedRecAttackConfig(**kwargs).validate()

    def test_linear_margin_mode_accepted(self):
        FedRecAttackConfig(margin_mode="linear").validate()


class TestUserMatrixApproximator:
    def test_only_active_users_move(self, small_split, small_public, rng):
        approximator = UserMatrixApproximator(small_public, num_factors=8, rng=0)
        before = approximator.user_factors.copy()
        item_factors = rng.normal(size=(small_split.train.num_items, 8))
        approximator.refresh(item_factors, epochs=3)
        active = set(approximator.active_users.tolist())
        for user in range(small_split.train.num_users):
            moved = not np.allclose(before[user], approximator.user_factors[user])
            if user in active:
                assert moved
            else:
                assert not moved

    def test_refresh_reduces_public_bpr_loss(self, small_split, small_public, rng):
        from repro.models.losses import bpr_loss

        approximator = UserMatrixApproximator(small_public, num_factors=8, rng=0)
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.3)

        def total_loss():
            loss = 0.0
            for user in approximator.active_users:
                positives = small_public.positive_items(int(user))
                negatives = (positives + 1) % small_split.train.num_items
                loss += bpr_loss(
                    approximator.user_factors[int(user)], item_factors, positives, negatives
                )
            return loss

        before = total_loss()
        approximator.refresh(item_factors, epochs=30)
        assert total_loss() < before

    def test_wrong_item_matrix_shape_rejected(self, small_public):
        approximator = UserMatrixApproximator(small_public, num_factors=8, rng=0)
        with pytest.raises(AttackError):
            approximator.refresh(np.zeros((3, 8)), epochs=1)

    def test_approximation_aligns_with_true_users(self, small_split, rng):
        # With all interactions public and the item matrix of a trained model,
        # the approximated mean user direction must correlate with the true one.
        from repro.federated.config import FederatedConfig
        from repro.federated.simulation import FederatedSimulation
        from repro.rng import SeedSequenceFactory

        config = FederatedConfig(num_factors=8, learning_rate=0.05, clients_per_round=32, num_epochs=5)
        simulation = FederatedSimulation(
            train=small_split.train,
            config=config,
            seed=SeedSequenceFactory(0),
        )
        simulation.run()
        public = sample_public_interactions(small_split.train, 1.0, rng=0)
        approximator = UserMatrixApproximator(public, num_factors=8, rng=0)
        approximator.refresh(simulation.server.item_factors, epochs=30)
        true_mean = simulation.gather_user_factors().mean(axis=0)
        approx_mean = approximator.user_factors.mean(axis=0)
        cosine = true_mean @ approx_mean / (
            np.linalg.norm(true_mean) * np.linalg.norm(approx_mean) + 1e-12
        )
        assert cosine > 0.5


def _wide_public_and_items():
    """Public interactions of 600 users over 2,000 items and a k=32 ``V``."""
    gen = np.random.default_rng(21)
    num_users, num_items = 600, 2000
    pairs = np.column_stack(
        [np.repeat(np.arange(num_users), 12), gen.integers(0, num_items, 12 * num_users)]
    )
    public = sample_public_interactions(
        InteractionDataset(num_users, num_items, pairs), 0.4, rng=1
    )
    return public, gen.normal(size=(num_items, 32), scale=0.4)


class TestVectorizedAttackerEquivalence:
    """The stacked attacker implementations must match the loop references."""

    def test_approximator_engines_match(self, small_split, small_public, rng):
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.4)
        loop = UserMatrixApproximator(small_public, num_factors=8, rng=3, engine="loop")
        vec = UserMatrixApproximator(small_public, num_factors=8, rng=3, engine="vectorized")
        loop.refresh(item_factors, epochs=5)
        vec.refresh(item_factors, epochs=5)
        np.testing.assert_allclose(loop.user_factors, vec.user_factors, atol=1e-12)

    def test_approximator_engines_match_on_truncated_draws(self):
        # User 0's public positives cover 3 of 4 items, so its draw holds one
        # negative and both engines pair it with its first positive only.
        # User 3's cover all 4: no pairs, so no step at all (not even L2).
        dataset = InteractionDataset(
            4, 4, [(0, 0), (0, 1), (0, 2), (1, 3), (2, 1), (3, 0), (3, 1), (3, 2), (3, 3)]
        )
        public = sample_public_interactions(dataset, 1.0, rng=0)
        item_factors = np.random.default_rng(5).normal(size=(4, 3))
        loop = UserMatrixApproximator(public, num_factors=3, rng=3, engine="loop")
        vec = UserMatrixApproximator(public, num_factors=3, rng=3, engine="vectorized")
        loop.refresh(item_factors, epochs=4)
        vec.refresh(item_factors, epochs=4)
        np.testing.assert_allclose(loop.user_factors, vec.user_factors, atol=1e-12)

    def test_approximator_engines_match_at_paper_rank(self):
        # num_factors=32 (the paper's k) over >= 500 active users: the
        # per-pair margins and the segment-summed user gradients of the
        # vectorized epoch agree with the per-user reference.
        public, item_factors = _wide_public_and_items()
        loop = UserMatrixApproximator(public, num_factors=32, rng=3, engine="loop")
        vec = UserMatrixApproximator(public, num_factors=32, rng=3, engine="vectorized")
        assert vec.active_users.shape[0] >= 500
        loop.refresh(item_factors, epochs=5)
        vec.refresh(item_factors, epochs=5)
        np.testing.assert_allclose(loop.user_factors, vec.user_factors, atol=1e-12)

    def test_vectorized_epoch_never_allocates_a_score_matrix(self):
        # The epoch scores only its sampled pairs: its peak allocation stays
        # below one (active users x items) float64 matrix.
        public, item_factors = _wide_public_and_items()
        num_items = item_factors.shape[0]
        approximator = UserMatrixApproximator(public, num_factors=32, rng=3)
        approximator.refresh(item_factors, epochs=1)
        tracemalloc.start()
        try:
            approximator.refresh(item_factors, epochs=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < approximator.active_users.shape[0] * num_items * 8

    def test_approximator_engines_consume_identical_rng_streams(
        self, small_split, small_public, rng
    ):
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.4)
        loop = UserMatrixApproximator(small_public, num_factors=8, rng=3, engine="loop")
        vec = UserMatrixApproximator(small_public, num_factors=8, rng=3, engine="vectorized")
        loop.refresh(item_factors, epochs=2)
        vec.refresh(item_factors, epochs=2)
        # After identical work both private generators must be in the same
        # state — the property that keeps whole-simulation runs equivalent.
        assert loop._rng.integers(0, 2**60) == vec._rng.integers(0, 2**60)

    @pytest.mark.parametrize("engine", ["loop", "vectorized"])
    def test_approximator_epoch_consumes_one_stacked_draw(
        self, small_split, small_public, rng, engine
    ):
        # The RNG contract: the initialisation, then per refresh epoch exactly
        # one sample_uniform_negatives_batched call over the active users
        # (public positive counts as quotas, public masks), whatever the engine.
        num_items = small_split.train.num_items
        item_factors = rng.normal(size=(num_items, 8), scale=0.4)
        approximator = UserMatrixApproximator(
            small_public, num_factors=8, rng=np.random.default_rng(11), engine=engine
        )
        twin = np.random.default_rng(11)
        expected = twin.normal(0.0, 0.01, size=(small_split.train.num_users, 8))
        active = approximator.active_users
        publics = [small_public.positive_items(int(user)) for user in active]
        masks = np.zeros((active.shape[0], num_items), dtype=bool)
        for row, items in enumerate(publics):
            masks[row, items] = True
        counts = np.array([items.shape[0] for items in publics], dtype=np.int64)
        negatives, offsets = sample_uniform_negatives_batched(twin, num_items, counts, masks)

        approximator.refresh(item_factors, epochs=1)

        assert approximator._rng.bit_generator.state == twin.bit_generator.state
        for row, user in enumerate(active):
            user_negatives = negatives[offsets[row] : offsets[row + 1]]
            gradients = bpr_loss_and_gradients(
                expected[user], item_factors, publics[row][: user_negatives.shape[0]],
                user_negatives, l2_reg=approximator.l2_reg,
            )
            expected[user] = expected[user] - approximator.learning_rate * gradients.grad_user
        np.testing.assert_allclose(approximator.user_factors, expected, atol=1e-12)

    def test_attack_context_has_no_sampler(self, small_split, small_targets):
        # The attacker's draw does not depend on the clients' sampler switch.
        with pytest.raises(TypeError):
            AttackContext(
                num_items=small_split.train.num_items,
                num_factors=8,
                target_items=small_targets,
                malicious_client_ids=[0],
                learning_rate=0.05,
                clip_norm=1.0,
                sampler="batched",
            )

    def test_approximator_rejects_unknown_engine(self, small_public):
        with pytest.raises(AttackError):
            UserMatrixApproximator(small_public, num_factors=8, rng=0, engine="gpu")

    @pytest.mark.parametrize(
        "case",
        [
            "default",
            "ragged-row-blocks",
            "inf-in-top-k",
            "all-top-k-targets",
            "duplicate-targets",
            "tied-items",
        ],
    )
    @pytest.mark.parametrize("margin_mode", ["saturating", "linear"])
    def test_attack_loss_and_gradient_match(
        self, small_split, small_public, rng, margin_mode, case, monkeypatch
    ):
        num_items = small_split.train.num_items
        item_factors = rng.normal(size=(num_items, 6), scale=0.5)
        user_factors = rng.normal(size=(small_split.train.num_users, 6), scale=0.5)
        active = small_public.users_with_public_interactions()
        targets = np.array([1, 3, 7])
        top_k = 5
        if case == "ragged-row-blocks":
            # Several score-row blocks, the last one partial.
            monkeypatch.setattr(fedrecattack, "TOP_K_ROW_BLOCK", 7)
            assert active.shape[0] % 7 != 0
        elif case == "inf-in-top-k":
            # The most active public user leaves fewer than top_k unmasked
            # items, so -inf (publicly seen) entries enter its top-K while
            # top_k stays below the catalog size.
            most_public = max(small_public.positive_items(int(user)).shape[0] for user in active)
            top_k = num_items - most_public + 1
            assert top_k < num_items
        elif case == "all-top-k-targets":
            # The first active user's whole top-K are targets: no boundary.
            user = int(active[0])
            scores = item_factors @ user_factors[user]
            scores[small_public.positive_items(user)] = -np.inf
            targets = np.sort(np.argsort(-scores, kind="stable")[:top_k])
        elif case == "duplicate-targets":
            targets = np.array([7, 3, 3, 1, 7])
        elif case == "tied-items":
            # Every odd item duplicates its even neighbour's row, so scores
            # tie exactly and the top-K and boundary picks rest on tie-breaks.
            twins = np.arange(1, num_items, 2)
            item_factors[twins] = item_factors[twins - 1]
        user_before, item_before = user_factors.copy(), item_factors.copy()
        loss_loop, grad_loop = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, np.unique(targets),
            top_k=top_k, margin_mode=margin_mode,
        )
        loss_vec, grad_vec = attack_loss_and_gradient_vectorized(
            user_factors, item_factors, active, small_public, targets,
            top_k=top_k, margin_mode=margin_mode,
        )
        assert loss_vec == pytest.approx(loss_loop, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(grad_vec, grad_loop, atol=1e-12)
        # The same boundary items: outside the targets, the gradient's
        # non-zero rows are exactly the boundary items that get a push.
        non_target = np.setdiff1d(np.arange(num_items), targets)
        np.testing.assert_array_equal(
            non_target[grad_vec[non_target].any(axis=1)],
            non_target[grad_loop[non_target].any(axis=1)],
        )
        # The vectorized loss masks its own score matrix in place; the
        # factor matrices it was handed must come back untouched.
        np.testing.assert_array_equal(user_factors, user_before)
        np.testing.assert_array_equal(item_factors, item_before)

    def test_attack_loss_vectorized_deduplicates_targets(
        self, small_split, small_public, rng
    ):
        # AttackContext guarantees unique targets in-protocol, but the
        # exported function must not silently drop contributions when called
        # directly with duplicates: it canonicalises to the unique set.
        num_items = small_split.train.num_items
        item_factors = rng.normal(size=(num_items, 6), scale=0.5)
        user_factors = rng.normal(size=(small_split.train.num_users, 6), scale=0.5)
        active = small_public.users_with_public_interactions()
        loss_dup, grad_dup = attack_loss_and_gradient_vectorized(
            user_factors, item_factors, active, small_public, np.array([3, 3, 7]), top_k=5
        )
        loss_ref, grad_ref = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, np.array([3, 7]), top_k=5
        )
        assert loss_dup == pytest.approx(loss_ref, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(grad_dup, grad_ref, atol=1e-12)

    def test_attack_loss_vectorized_no_active_users(self, small_split, small_public):
        loss, gradient = attack_loss_and_gradient_vectorized(
            np.zeros((small_split.train.num_users, 6)),
            np.zeros((small_split.train.num_items, 6)),
            np.empty(0, dtype=np.int64),
            small_public,
            np.array([0]),
            top_k=5,
        )
        assert loss == 0.0
        np.testing.assert_allclose(gradient, 0.0)

    def test_attack_loss_match_when_top_k_exceeds_items(
        self, small_split, small_public, rng
    ):
        # top_k larger than the catalog exercises the -inf (public) entries
        # inside the top-K set on both implementations.
        num_items = small_split.train.num_items
        item_factors = rng.normal(size=(num_items, 4), scale=0.5)
        user_factors = rng.normal(size=(small_split.train.num_users, 4), scale=0.5)
        active = small_public.users_with_public_interactions()[:8]
        targets = np.array([2])
        loss_loop, grad_loop = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, targets, top_k=10 * num_items
        )
        loss_vec, grad_vec = attack_loss_and_gradient_vectorized(
            user_factors, item_factors, active, small_public, targets, top_k=10 * num_items
        )
        assert loss_vec == pytest.approx(loss_loop, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(grad_vec, grad_loop, atol=1e-12)


class TestAttackLossAndGradient:
    def _setup(self, small_split, small_public, rng):
        num_items = small_split.train.num_items
        item_factors = rng.normal(size=(num_items, 6), scale=0.5)
        user_factors = rng.normal(size=(small_split.train.num_users, 6), scale=0.5)
        active = small_public.users_with_public_interactions()
        return user_factors, item_factors, active

    def test_gradient_matches_finite_differences(self, small_split, small_public, rng):
        user_factors, item_factors, active = self._setup(small_split, small_public, rng)
        targets = np.array([1, 3])
        active = active[:5]
        loss, gradient = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, targets, top_k=5
        )
        epsilon = 1e-6
        # Check the gradient rows of the target items (the rows the attack uploads).
        for target in targets:
            for col in range(item_factors.shape[1]):
                shifted = item_factors.copy()
                shifted[target, col] += epsilon
                upper, _ = attack_loss_and_gradient(
                    user_factors, shifted, active, small_public, targets, top_k=5
                )
                shifted[target, col] -= 2 * epsilon
                lower, _ = attack_loss_and_gradient(
                    user_factors, shifted, active, small_public, targets, top_k=5
                )
                numerical = (upper - lower) / (2 * epsilon)
                assert gradient[target, col] == pytest.approx(numerical, abs=1e-4)

    def test_saturated_margins_give_vanishing_target_gradient(
        self, small_split, small_public, rng
    ):
        user_factors, item_factors, active = self._setup(small_split, small_public, rng)
        targets = np.array([0])
        # Make the target dominate every active user's ranking: positive user
        # vectors and a large positive target embedding.
        user_factors[active] = np.abs(user_factors[active]) + 0.1
        item_factors[0] = 50.0
        loss, gradient = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, targets, top_k=5
        )
        # g saturates at -1 per (user, target) pair and its derivative vanishes,
        # so the target row receives (essentially) no further push.
        assert loss <= 0.0
        assert np.linalg.norm(gradient[0]) == pytest.approx(0.0, abs=1e-6)

    def test_no_active_users_means_zero_gradient(self, small_split, small_public, rng):
        user_factors, item_factors, _ = self._setup(small_split, small_public, rng)
        loss, gradient = attack_loss_and_gradient(
            user_factors,
            item_factors,
            np.empty(0, dtype=np.int64),
            small_public,
            np.array([0]),
            top_k=5,
        )
        assert loss == 0.0
        np.testing.assert_allclose(gradient, 0.0)

    def test_gradient_nonzero_only_on_targets_and_boundaries(
        self, small_split, small_public, rng
    ):
        user_factors, item_factors, active = self._setup(small_split, small_public, rng)
        targets = np.array([2])
        _, gradient = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, targets, top_k=5
        )
        nonzero_rows = np.flatnonzero(np.linalg.norm(gradient, axis=1) > 0)
        # At most one boundary row per active user plus the target rows.
        assert nonzero_rows.shape[0] <= active.shape[0] + targets.shape[0]
        assert 2 in nonzero_rows

    def test_linear_margin_mode_keeps_unit_coefficients(self, small_split, small_public, rng):
        # With the linear ablation the per-pair derivative is exactly 1, so
        # the target-row gradient equals minus the sum of the contributing
        # approximated user vectors regardless of how large the margins are.
        user_factors, item_factors, active = self._setup(small_split, small_public, rng)
        targets = np.array([4])
        # Make the target dominate every active user's ranking, where the
        # saturating g stops pushing but the linear ablation does not.
        user_factors[active] = np.abs(user_factors[active]) + 0.1
        item_factors[4] = 50.0
        _, saturating = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, targets, top_k=5
        )
        _, linear = attack_loss_and_gradient(
            user_factors, item_factors, active, small_public, targets, top_k=5,
            margin_mode="linear",
        )
        assert np.linalg.norm(saturating[4]) == pytest.approx(0.0, abs=1e-6)
        assert np.linalg.norm(linear[4]) > 0.1

    def test_minimising_loss_raises_target_scores(self, small_split, small_public, rng):
        user_factors, item_factors, active = self._setup(small_split, small_public, rng)
        targets = np.array([4])
        initial_scores = user_factors[active] @ item_factors[4]
        factors = item_factors.copy()
        for _ in range(50):
            _, gradient = attack_loss_and_gradient(
                user_factors, factors, active, small_public, targets, top_k=5
            )
            factors -= 0.05 * gradient
        final_scores = user_factors[active] @ factors[4]
        assert final_scores.mean() > initial_scores.mean()


class TestFedRecAttackUpload:
    def _make_attack_and_context(self, small_split, small_public, small_targets, kappa=10):
        config = FedRecAttackConfig(kappa=kappa, approx_epochs_initial=3, approx_epochs_per_round=1)
        attack = FedRecAttack(small_public, config)
        context = AttackContext(
            num_items=small_split.train.num_items,
            num_factors=8,
            target_items=small_targets,
            malicious_client_ids=[100, 101],
            learning_rate=0.05,
            clip_norm=1.0,
            item_popularity=small_split.train.item_popularity,
            rng=np.random.default_rng(0),
        )
        clients = {
            cid: MaliciousClient(cid, small_split.train.num_items, 8, 0.05, rng=cid)
            for cid in (100, 101)
        }
        attack.setup(context, clients)
        return attack, context, clients

    def test_upload_respects_kappa(self, small_split, small_public, small_targets, rng):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets, kappa=10
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, None, [100])
        update = attack.craft_update(clients[100], item_factors, None, 0)
        assert update is not None
        assert update.num_nonzero_rows <= 10

    def test_upload_respects_clip_norm(self, small_split, small_public, small_targets, rng):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, None, [100])
        update = attack.craft_update(clients[100], item_factors, None, 0)
        assert update.max_row_norm <= 1.0 + 1e-9

    def test_target_items_always_in_upload(self, small_split, small_public, small_targets, rng):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, None, [100])
        update = attack.craft_update(clients[100], item_factors, None, 0)
        assert set(small_targets.tolist()).issubset(set(update.item_ids.tolist()))

    def test_assigned_items_persist_across_rounds(
        self, small_split, small_public, small_targets, rng
    ):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, None, [100])
        first = attack.craft_update(clients[100], item_factors, None, 0)
        attack.on_round_start(1, item_factors, None, [100])
        second = attack.craft_update(clients[100], item_factors, None, 1)
        np.testing.assert_array_equal(first.item_ids, second.item_ids)

    def test_remainder_subtracted_within_round(
        self, small_split, small_public, small_targets, rng
    ):
        # Eq. 24: the second malicious client of a round uploads only what the
        # first one did not cover.
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, None, [100, 101])
        total_before = np.linalg.norm(attack._poison_gradient)
        attack.craft_update(clients[100], item_factors, None, 0)
        total_middle = np.linalg.norm(attack._poison_gradient)
        attack.craft_update(clients[101], item_factors, None, 0)
        total_after = np.linalg.norm(attack._poison_gradient)
        assert total_middle <= total_before + 1e-9
        assert total_after <= total_middle + 1e-9

    def test_upload_marked_malicious(self, small_split, small_public, small_targets, rng):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        item_factors = rng.normal(size=(small_split.train.num_items, 8), scale=0.5)
        attack.on_round_start(0, item_factors, None, [100])
        update = attack.craft_update(clients[100], item_factors, None, 0)
        assert update.is_malicious

    def test_no_public_interactions_produces_zero_poison(
        self, small_split, small_targets, rng
    ):
        empty_public = sample_public_interactions(small_split.train, 0.0, rng=0)
        attack = FedRecAttack(empty_public, FedRecAttackConfig(approx_epochs_initial=1))
        context = AttackContext(
            num_items=small_split.train.num_items,
            num_factors=8,
            target_items=small_targets,
            malicious_client_ids=[100],
            learning_rate=0.05,
            clip_norm=1.0,
            rng=np.random.default_rng(0),
        )
        client = MaliciousClient(100, small_split.train.num_items, 8, 0.05, rng=0)
        attack.setup(context, {100: client})
        item_factors = rng.normal(size=(small_split.train.num_items, 8))
        attack.on_round_start(0, item_factors, None, [100])
        update = attack.craft_update(client, item_factors, None, 0)
        assert update.num_nonzero_rows == 0

    def test_setup_required_before_round(self, small_public):
        attack = FedRecAttack(small_public)
        with pytest.raises(AttackError):
            attack.on_round_start(0, np.zeros((10, 8)), None, [0])

    def test_craft_before_round_start_returns_none(
        self, small_split, small_public, small_targets
    ):
        attack, context, clients = self._make_attack_and_context(
            small_split, small_public, small_targets
        )
        assert attack.craft_update(clients[100], np.zeros((small_split.train.num_items, 8)), None, 0) is None

    def test_mismatched_item_universe_rejected(self, small_split, small_targets):
        public = sample_public_interactions(small_split.train, 0.1, rng=0)
        attack = FedRecAttack(public)
        context = AttackContext(
            num_items=small_split.train.num_items + 5,
            num_factors=8,
            target_items=small_targets,
            malicious_client_ids=[0],
            learning_rate=0.05,
            clip_norm=1.0,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(AttackError):
            attack.setup(context, {})

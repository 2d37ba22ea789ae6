"""Vectorized round engine.

:class:`BatchedRoundTrainer` performs one aggregation round's local training
for *all* selected benign clients with stacked numpy operations instead of a
per-client Python loop:

* every client's (positives, negatives) pairs for the round are drawn through
  :meth:`draw_round_pairs` — one stacked rejection-sampling pass over all
  selected clients from the shared round stream (both engines call this
  method, so loop/vectorized equivalence holds by construction),
* the user vectors are stacked into a ``(B, k)`` matrix, the positive and
  negative item vectors are gathered once, and the BPR margins, coefficients,
  per-user losses and all gradients are computed in bulk
  (:func:`repro.models.losses.bpr_coefficients_batched`),
* on the MF path the per-(client, item) item gradients stay in the *lazy
  factored* form — folded coefficients in CSR layout plus the stacked user
  matrix, packaged as
  :class:`~repro.federated.updates.FactoredRoundUpdates` — which the ``sum``
  / ``mean`` aggregators and the DP mechanism consume without ever
  materialising the ``(nnz, k)`` gradient-row array.

The MLP-scorer path is batched the same way through
:meth:`MLPScorer.score_and_segment_gradients`, which returns per-client
``Theta`` gradients in one call; its item-gradient rows are not rank-1, so it
emits the CSR-style :class:`~repro.federated.updates.SparseRoundUpdates`.

:meth:`BatchedRoundTrainer.train_round` is the vectorized engine's whole train
phase: the simulation calls it once per round and runs everything after
training (attack crafting, dispositions, observer, server step) itself, on
the same code path as the loop engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.data.negative_sampling import sample_uniform_negatives_batched
from repro.exceptions import FederationError
from repro.federated.client import BenignClient
from repro.federated.config import FederatedConfig
from repro.federated.privacy import GaussianNoiseMechanism
from repro.federated.sharding import ShardedRoundExecutor, build_mf_shard_tasks
from repro.federated.updates import (
    FactoredRoundUpdates,
    SparseRoundUpdates,
    merge_factored_rounds,
)
from repro.models.losses import (
    BatchedBPRGradients,
    bpr_coefficients_batched,
    fold_by_key,
    segment_sum,
    sigmoid,
)
from repro.models.neural import MLPScorer

if TYPE_CHECKING:
    from repro.data.store import InteractionStore

__all__ = ["BatchedRoundTrainer"]

Pairs = tuple[np.ndarray, np.ndarray]


class BatchedRoundTrainer:
    """Trains a round's benign clients in one batched computation.

    Parameters
    ----------
    clients, config, privacy, num_items:
        The benign client registry, the protocol configuration, the DP
        mechanism and the catalog size.
    round_rng:
        The shared round-sampler stream every round's negatives are drawn
        from (one stacked draw per round, in client selection order).
    store:
        The dataset's shared :class:`~repro.data.store.InteractionStore`.
        When given, the round sampler gathers its stacked positive masks
        straight out of the store's cached mask matrix (one fancy-index
        gather it may scribble on) instead of re-stacking per-client mask
        arrays every round.  Client ids must equal dataset user ids, which
        is how the simulation builds its benign registry.
    executor:
        The simulation's :class:`~repro.federated.sharding.ShardedRoundExecutor`
        when ``config.workers > 1``: the MF path then partitions each round's
        clients into contiguous shards, runs the kernel's decomposable stages
        in the executor's worker pool and merges the per-shard factored
        updates deterministically in shard order — bit-identical to the
        in-process kernel.  ``None`` keeps every round in-process.
    """

    def __init__(
        self,
        clients: dict[int, BenignClient],
        config: FederatedConfig,
        privacy: GaussianNoiseMechanism,
        num_items: int,
        round_rng: np.random.Generator,
        store: InteractionStore | None = None,
        executor: ShardedRoundExecutor | None = None,
    ) -> None:
        self._clients = clients
        self._config = config
        self._privacy = privacy
        self._num_items = int(num_items)
        self._round_rng = round_rng
        self._store = store
        self._executor = executor

    # ------------------------------------------------------------------ #
    # Pair drawing (shared by the loop and vectorized engines)
    # ------------------------------------------------------------------ #
    def draw_round_pairs(self, benign_ids: list[int]) -> list[Pairs]:
        """The round's (positives, negatives) pairs, aligned with ``benign_ids``.

        One stacked rejection-sampling draw from the round stream covers
        every selected client that needs fresh negatives (clients with a
        still-valid cached sample, e.g. under
        ``resample_negatives_each_epoch=False``, keep it).  Both engines call
        this method, so the realization never depends on the engine.
        """
        clients = [self._clients[cid] for cid in benign_ids]
        pairs: list[Pairs | None] = [None] * len(clients)
        fresh = [i for i, client in enumerate(clients) if client.needs_fresh_negatives]
        if fresh:
            counts = np.array(
                [clients[i].positives.shape[0] for i in fresh], dtype=np.int64
            )
            if self._store is not None:
                # One gather out of the persistent mask matrix.
                masks = self._store.mask_rows(
                    np.array([benign_ids[i] for i in fresh], dtype=np.int64)
                )
            else:
                # repro-lint: disable=R3 — no-store fallback: without a shared
                # InteractionStore there is no cached mask matrix to gather
                # from, so the per-client rows must be stacked once here.
                masks = np.stack([clients[i].positive_mask for i in fresh])
            # Either way ``masks`` is a fresh private array, so the sampler
            # may use it as its scratch bitmap instead of copying again.
            negatives, offsets = sample_uniform_negatives_batched(
                self._round_rng, self._num_items, counts, masks, copy=False
            )
            for row, i in enumerate(fresh):
                pairs[i] = clients[i].accept_negatives(
                    negatives[offsets[row] : offsets[row + 1]]
                )
        for i, client in enumerate(clients):
            if pairs[i] is None:
                # Still-valid cached sample: no draw.
                pairs[i] = client.draw_pairs()
        return pairs  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Single-round training
    # ------------------------------------------------------------------ #
    def train_round(
        self,
        benign_ids: list[int],
        item_factors: np.ndarray,
        scorer: MLPScorer | None,
    ) -> tuple["FactoredRoundUpdates | SparseRoundUpdates", float]:
        """One local-training round for ``benign_ids``.

        Returns the privatised round structure — the lazy
        :class:`FactoredRoundUpdates` on the MF path, the CSR-style
        :class:`SparseRoundUpdates` on the scorer path — plus the round's
        total benign training loss (measured before privacy noise, like the
        loop engine reports it).
        """
        num_clients = len(benign_ids)
        if num_clients == 0:
            return self._empty_round(), 0.0

        clients = [self._clients[cid] for cid in benign_ids]
        pair_lists = self.draw_round_pairs(benign_ids)
        segment_ids, positives, negatives = _stack_pairs(pair_lists)
        user_vectors = np.stack([client.user_vector for client in clients])

        round_updates: FactoredRoundUpdates | SparseRoundUpdates
        if scorer is None:
            l2_reg = self._config.l2_reg
            if self._executor is not None:
                round_updates, grad_users, losses = self._train_mf_sharded(
                    benign_ids, user_vectors, segment_ids, positives, negatives, item_factors
                )
                if round_updates.client_ids.shape[0] != num_clients:
                    # Quorum degradation dropped a failed shard: only the
                    # surviving shards' clients completed local training, so
                    # only they step their vectors and only their updates are
                    # privatised below.  ``grad_users``/``losses`` already
                    # align with the surviving (shard-ordered) client set.
                    surviving = {int(cid) for cid in round_updates.client_ids}
                    keep = [
                        index
                        for index, cid in enumerate(benign_ids)
                        if cid in surviving
                    ]
                    clients = [clients[index] for index in keep]
                    user_vectors = user_vectors[keep]
            else:
                batched = bpr_coefficients_batched(
                    user_vectors,
                    item_factors,
                    segment_ids,
                    positives,
                    negatives,
                    l2_reg=l2_reg,
                )
                round_updates = FactoredRoundUpdates(
                    client_ids=np.asarray(benign_ids, dtype=np.int64),
                    item_ids=batched.item_ids,
                    coefficients=batched.coefficients,
                    client_offsets=batched.segment_offsets,
                    user_vectors=user_vectors,
                    losses=batched.losses,
                    malicious_mask=np.zeros(num_clients, dtype=bool),
                    ridge=2.0 * l2_reg if l2_reg > 0.0 else 0.0,
                    ridge_matrix=item_factors if l2_reg > 0.0 else None,
                )
                grad_users = batched.grad_users
                losses = batched.losses
        else:
            scored, theta_gradients = self._scorer_round(
                user_vectors, item_factors, segment_ids, positives, negatives, scorer
            )
            round_updates = SparseRoundUpdates(
                client_ids=np.asarray(benign_ids, dtype=np.int64),
                item_ids=scored.item_ids,
                grad_rows=scored.grad_rows,
                client_offsets=scored.segment_offsets,
                losses=scored.losses,
                malicious_mask=np.zeros(num_clients, dtype=bool),
                theta_gradients=theta_gradients,
                theta_mask=np.ones(num_clients, dtype=bool),
            )
            grad_users = scored.grad_users
            losses = scored.losses

        self._step_clients(clients, user_vectors, grad_users)
        round_updates = self._privacy.apply_round(round_updates)
        return round_updates, float(losses.sum())

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _train_mf_sharded(
        self,
        benign_ids: list[int],
        user_vectors: np.ndarray,
        segment_ids: np.ndarray,
        positives: np.ndarray,
        negatives: np.ndarray,
        item_factors: np.ndarray,
    ) -> tuple[FactoredRoundUpdates, np.ndarray, np.ndarray]:
        """The batched MF kernel, sharded across the executor's worker pool.

        Returns ``(merged_updates, grad_users, losses)`` bit-identical to
        what :func:`bpr_coefficients_batched` produces in-process.  The GEMM
        stage runs *here*, in the parent — BLAS GEMMs are not bit-stable
        under row slicing, so the workers receive the exact margins of the
        unsharded kernel and run only its block-decomposable stages
        (:func:`repro.federated.sharding._run_mf_shard`); their factored
        shard updates are then merged strictly in shard order.
        """
        executor = self._executor
        if executor is None:  # pragma: no cover - guarded by the call sites
            raise FederationError("sharded training requires an executor")
        l2_reg = self._config.l2_reg
        num_clients = len(benign_ids)
        num_items = self._num_items
        # Mirror of the kernel's GEMM + margin-gather stage, bit for bit.
        scores = user_vectors @ item_factors.T
        flat_scores = scores.ravel()
        score_base = segment_ids * num_items
        margins = flat_scores[score_base + positives] - flat_scores[score_base + negatives]
        pair_counts = np.bincount(segment_ids, minlength=num_clients).astype(np.int64)
        tasks = build_mf_shard_tasks(
            executor.num_shards,
            np.asarray(benign_ids, dtype=np.int64),
            pair_counts,
            user_vectors,
            negatives,
            margins,
            l2_reg,
        )
        shard_results = executor.run_shards(tasks, item_factors)
        merged = merge_factored_rounds(
            [result.updates for result in shard_results],  # type: ignore[misc]
            ridge=2.0 * l2_reg if l2_reg > 0.0 else 0.0,
            ridge_matrix=item_factors if l2_reg > 0.0 else None,
        )
        grad_users = np.concatenate([result.grad_users for result in shard_results], axis=0)
        return merged, grad_users, merged.losses

    def _empty_round(self) -> SparseRoundUpdates:
        num_factors = self._config.num_factors
        return SparseRoundUpdates(
            client_ids=np.empty(0, dtype=np.int64),
            item_ids=np.empty(0, dtype=np.int64),
            grad_rows=np.empty((0, num_factors), dtype=np.float64),
            client_offsets=np.zeros(1, dtype=np.int64),
            losses=np.empty(0, dtype=np.float64),
            malicious_mask=np.empty(0, dtype=bool),
        )

    def _step_clients(
        self,
        clients: list[BenignClient],
        user_vectors: np.ndarray,
        grad_users: np.ndarray,
    ) -> None:
        """Apply every client's local SGD step on its private vector."""
        stepped = user_vectors - self._config.learning_rate * grad_users
        for index, client in enumerate(clients):
            client.user_vector = stepped[index].copy()
            client.participation_count += 1

    def _scorer_round(
        self,
        user_vectors: np.ndarray,
        item_factors: np.ndarray,
        segment_ids: np.ndarray,
        positives: np.ndarray,
        negatives: np.ndarray,
        scorer: MLPScorer,
    ) -> tuple[BatchedBPRGradients, np.ndarray]:
        """Batched BPR-through-the-scorer gradients for a whole round.

        Mirrors :meth:`Client._scorer_gradients` client by client: the same
        margins, the same clipped-log loss, and per-(client, item) gradient
        rows accumulated over the union of each client's positives and
        negatives.
        """
        num_clients = user_vectors.shape[0]
        num_factors = user_vectors.shape[1]
        if positives.shape[0] == 0:
            empty = BatchedBPRGradients(
                losses=np.zeros(num_clients, dtype=np.float64),
                grad_users=np.zeros((num_clients, num_factors), dtype=np.float64),
                item_ids=np.empty(0, dtype=np.int64),
                grad_rows=np.empty((0, num_factors), dtype=np.float64),
                segment_offsets=np.zeros(num_clients + 1, dtype=np.int64),
            )
            return empty, np.zeros((num_clients, scorer.num_parameters), dtype=np.float64)

        pair_users = user_vectors[segment_ids]
        pos_scores = scorer.score(pair_users, item_factors[positives])
        neg_scores = scorer.score(pair_users, item_factors[negatives])
        margins = pos_scores - neg_scores
        pair_losses = -np.log(np.clip(sigmoid(margins), 1e-12, 1.0))
        losses = np.bincount(segment_ids, weights=pair_losses, minlength=num_clients)
        coefficients = -sigmoid(-margins)

        _, pos_grad_user, pos_grad_item, pos_params = scorer.score_and_segment_gradients(
            pair_users, item_factors[positives], coefficients, segment_ids, num_clients
        )
        _, neg_grad_user, neg_grad_item, neg_params = scorer.score_and_segment_gradients(
            pair_users, item_factors[negatives], -coefficients, segment_ids, num_clients
        )
        grad_users = segment_sum(pos_grad_user + neg_grad_user, segment_ids, num_clients)
        theta_gradients = pos_params + neg_params

        # Accumulate item rows per (client, item) exactly like the MF path.
        num_items = self._num_items
        keys = np.concatenate([segment_ids, segment_ids]) * num_items
        keys += np.concatenate([positives, negatives])
        all_rows = np.concatenate([pos_grad_item, neg_grad_item], axis=0)
        unique_keys, grad_rows = fold_by_key(keys, all_rows)
        item_ids = unique_keys % num_items
        owners = unique_keys // num_items
        segment_offsets = np.searchsorted(owners, np.arange(num_clients + 1))

        batched = BatchedBPRGradients(
            losses=losses,
            grad_users=grad_users,
            item_ids=item_ids,
            grad_rows=grad_rows,
            segment_offsets=segment_offsets,
        )
        return batched, theta_gradients


def _stack_pairs(pair_lists: list[Pairs]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-client pairs into (segment_ids, positives, negatives)."""
    counts = np.array([pairs[0].shape[0] for pairs in pair_lists], dtype=np.int64)
    segment_ids = np.repeat(np.arange(len(pair_lists), dtype=np.int64), counts)
    if counts.sum() > 0:
        positives = np.concatenate([pairs[0] for pairs in pair_lists])
        negatives = np.concatenate([pairs[1] for pairs in pair_lists])
    else:
        positives = np.empty(0, dtype=np.int64)
        negatives = np.empty(0, dtype=np.int64)
    return segment_ids, positives, negatives

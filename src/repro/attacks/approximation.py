"""User feature-matrix approximation from public interactions.

The private user matrix ``U`` is the attacker's missing piece.  Eq. (19) of
the paper approximates it by minimising the recommender's own BPR loss over
the *public* interactions ``D'`` while keeping the shared item matrix ``V``
fixed:

    U^t  ~=  argmin_U  L_rec(U, V^t, Theta^t; D')

:class:`UserMatrixApproximator` performs that optimisation with SGD.  Only
users that have at least one public interaction are updated — for the others
no gradient exists, so their approximated vectors stay at their random
initialisation and contribute (essentially) nothing to the attack loss, which
matches the ablation result that the attack collapses at ``xi = 0``.

Two implementations of the SGD pass exist, selected by ``engine`` (the same
switch as :attr:`repro.federated.config.FederatedConfig.engine`):

* ``"vectorized"`` (default) — one stacked pass per epoch over all active
  users.  Each sampled pair's margin is ``(V[pos] - V[neg]) . u``, the
  per-user reference's own formula, evaluated for the sampled pairs only (no
  ``(A, N)`` score matrix is formed), and the user gradients are one
  weighted :func:`repro.models.losses.segment_sum` of the same difference
  rows.  Within an epoch the per-user updates are independent (each touches
  only its own row of ``U`` while ``V`` stays fixed), so batching the whole
  epoch is exact, not an approximation.
* ``"loop"`` — the original one-user-at-a-time reference implementation.

Each epoch's negatives are drawn up front for every active user in one
stacked rejection-sampling pass
(:func:`repro.data.negative_sampling.sample_uniform_negatives_batched`, active
users in row order, public positives as the masks) from the attack RNG.  Both
engines consume that one draw, so from identical seeds they produce matching
approximations up to floating-point summation order.  The simulation's
``sampler`` switch does not reach the attacker: it governs only the clients'
training draws.
"""

from __future__ import annotations

import numpy as np

from repro.data.negative_sampling import sample_uniform_negatives_batched
from repro.data.public import PublicInteractions
from repro.exceptions import AttackError
from repro.models.losses import bpr_loss_and_gradients, segment_sum, sigmoid
from repro.rng import ensure_rng

__all__ = ["UserMatrixApproximator"]


class UserMatrixApproximator:
    """SGD approximation of the private user matrix from public interactions.

    Parameters
    ----------
    public:
        The attacker's public interactions ``D'``.
    num_factors:
        Feature dimensionality ``k`` of the shared model.
    learning_rate:
        SGD learning rate of the inner approximation problem.
    l2_reg:
        L2 regularisation on the approximated vectors (keeps them bounded
        when a user has a single public interaction).
    init_scale:
        Scale of the random initialisation.
    rng:
        Attack-private randomness.
    engine:
        ``"vectorized"`` batches each SGD epoch over all active users;
        ``"loop"`` is the per-user reference path.  Identical RNG streams,
        matching results.
    """

    def __init__(
        self,
        public: PublicInteractions,
        num_factors: int,
        learning_rate: float = 0.05,
        l2_reg: float = 1e-4,
        init_scale: float = 0.01,
        rng: np.random.Generator | int | None = None,
        engine: str = "vectorized",
    ) -> None:
        if num_factors <= 0:
            raise AttackError("num_factors must be positive")
        if learning_rate <= 0:
            raise AttackError("learning_rate must be positive")
        if engine not in ("loop", "vectorized"):
            raise AttackError(f"engine must be 'loop' or 'vectorized', got {engine!r}")
        self.public = public
        self.num_factors = int(num_factors)
        self.learning_rate = float(learning_rate)
        self.l2_reg = float(l2_reg)
        self.engine = engine
        self._rng = ensure_rng(rng)
        num_users = public.dataset.num_users
        self.user_factors = self._rng.normal(0.0, init_scale, size=(num_users, num_factors))
        self._active_users = public.users_with_public_interactions()
        self._num_items = public.dataset.num_items
        # The public set is static, so each active user's positives and the
        # boolean mask the negative sampler consumes come from the public
        # dataset's shared InteractionStore: the per-user positives are
        # read-only views into its CSR indices, and the stacked masks of the
        # active users are gathered out of its cached mask matrix once.
        # Both engines share the cache, and it changes neither RNG stream
        # nor numerics — only the per-call mask rebuild goes away.  The
        # arrays are read-only: the masks and positives describe the same
        # interactions, so a mutation through :attr:`active_public_items`
        # would silently desynchronize them.
        store = public.dataset.interaction_store()
        self._positives: tuple[np.ndarray, ...] = tuple(
            store.positives(int(user)) for user in self._active_users
        )
        # Stacked over the *active* rows only — at realistic xi most users
        # have no public interactions, so building the store's full dense
        # mask matrix just to gather a small subset would waste memory.
        self._positive_masks = np.zeros(
            (self._active_users.shape[0], self._num_items), dtype=bool
        )
        for row, positives in enumerate(self._positives):
            self._positive_masks[row, positives] = True
        self._positive_masks.setflags(write=False)
        # The same positives in CSR form for the vectorized epoch: counts per
        # row (also the per-epoch negative quotas), the concatenated items
        # and each item's rank within its row (to truncate a row to a short
        # negative draw).
        self._positive_counts = np.array(
            [positives.shape[0] for positives in self._positives], dtype=np.int64
        )
        self._positive_values = (
            np.concatenate(self._positives)
            if self._positives
            else np.empty(0, dtype=np.int64)
        )
        row_starts = np.cumsum(self._positive_counts) - self._positive_counts
        self._positive_ranks = np.arange(
            self._positive_values.shape[0], dtype=np.int64
        ) - np.repeat(row_starts, self._positive_counts)

    @property
    def active_users(self) -> np.ndarray:
        """Users the attacker can actually approximate (>= 1 public interaction)."""
        return self._active_users

    @property
    def active_public_items(self) -> tuple[np.ndarray, ...]:
        """Cached public positives aligned with :attr:`active_users`.

        Consumers computing per-user statistics over the same active set
        (e.g. the vectorized attack loss) can reuse this instead of
        re-fetching each user's public items every round.  The arrays are
        read-only (the negative-sampling masks are derived from them).
        """
        return self._positives

    def refresh(self, item_factors: np.ndarray, epochs: int = 1) -> None:
        """Run ``epochs`` SGD passes of Eq. (19) against the current ``V``.

        The approximator keeps its state between calls, so each round's
        refresh warm-starts from the previous round's estimate — the same
        behaviour as re-running the inner optimisation to (near) convergence
        but far cheaper.
        """
        if item_factors.shape != (self._num_items, self.num_factors):
            raise AttackError(
                f"item_factors must have shape ({self._num_items}, {self.num_factors}), "
                f"got {item_factors.shape}"
            )
        if epochs <= 0 or self._active_users.shape[0] == 0:
            return
        for _ in range(epochs):
            # One stacked draw per epoch, consumed by either engine, so the
            # attack RNG stream does not depend on the engine.
            negatives, offsets = sample_uniform_negatives_batched(
                self._rng,
                self._num_items,
                self._positive_counts,
                self._positive_masks,
                num_positives=self._positive_counts,
            )
            if self.engine == "vectorized":
                self._epoch_vectorized(item_factors, negatives, offsets)
            else:
                for row in range(self._active_users.shape[0]):
                    self._update_user(
                        row, item_factors, negatives[offsets[row] : offsets[row + 1]]
                    )

    # ------------------------------------------------------------------ #
    # Vectorized epoch: every active user's sampled pairs at once
    # ------------------------------------------------------------------ #
    def _epoch_vectorized(
        self, item_factors: np.ndarray, negatives: np.ndarray, offsets: np.ndarray
    ) -> None:
        """One SGD pass over every active user in stacked numpy operations.

        ``negatives`` / ``offsets`` is the epoch's CSR draw.  A user whose
        complement is smaller than its positive set gets fewer negatives, and
        its positives are truncated to match, as in the loop engine.  Only
        the sampled pairs are scored: a user's gradient is
        ``sum_pairs c * (V[pos] - V[neg]) + 2 * l2 * u`` with
        ``c = -sigmoid(-margin)``, exactly the per-user reference's terms.
        """
        if negatives.shape[0] == 0:
            return
        num_active = self._active_users.shape[0]
        negative_counts = np.diff(offsets)
        keep = self._positive_ranks < np.repeat(negative_counts, self._positive_counts)
        segment_ids = np.repeat(np.arange(num_active, dtype=np.int64), negative_counts)
        users = self.user_factors[self._active_users]
        differences = item_factors[self._positive_values[keep]]
        differences -= item_factors[negatives]
        margins = np.einsum("ij,ij->i", differences, users[segment_ids])
        gradients = segment_sum(
            differences, segment_ids, num_active, weights=-sigmoid(-margins)
        )
        # Users left without pairs (an exhausted complement) get no gradient
        # at all, regularisation included, like the reference's empty call.
        has_pairs = negative_counts > 0
        gradients[has_pairs] += 2.0 * self.l2_reg * users[has_pairs]
        self.user_factors[self._active_users] -= self.learning_rate * gradients

    # ------------------------------------------------------------------ #
    # Loop reference path: one user at a time
    # ------------------------------------------------------------------ #
    def _update_user(
        self, row: int, item_factors: np.ndarray, negatives: np.ndarray
    ) -> None:
        user = int(self._active_users[row])
        # Truncated like the vectorized epoch when the complement is small.
        positives = self._positives[row][: negatives.shape[0]]
        gradients = bpr_loss_and_gradients(
            self.user_factors[user], item_factors, positives, negatives, l2_reg=self.l2_reg
        )
        self.user_factors[user] = (
            self.user_factors[user] - self.learning_rate * gradients.grad_user
        )

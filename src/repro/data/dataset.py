"""Implicit-feedback interaction dataset.

The paper works with implicit feedback: the training data ``D`` is a set of
(user, item) pairs and, for each user ``u_i``, ``V+_i`` is the set of items
the user interacted with and ``V-_i`` the complement (Section III-A).
:class:`InteractionDataset` stores exactly that, with fast per-user access
and the aggregate views (popularity counts, interaction matrix) the attacks
and baselines need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import DataError

if TYPE_CHECKING:
    from repro.data.store import InteractionStore

__all__ = ["InteractionDataset"]


class InteractionDataset:
    """A set of implicit user-item interactions.

    Parameters
    ----------
    num_users:
        Number of users ``n``; user ids are ``0 .. n-1``.
    num_items:
        Number of items ``m``; item ids are ``0 .. m-1``.
    interactions:
        Array-like of shape ``(N, 2)`` with ``(user, item)`` pairs.
        Duplicates are dropped (the paper drops duplicate interactions during
        preprocessing).
    name:
        Human-readable dataset name, e.g. ``"ml-100k"``.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        interactions: Iterable[tuple[int, int]] | np.ndarray,
        name: str = "dataset",
    ) -> None:
        if num_users <= 0 or num_items <= 0:
            raise DataError(
                f"num_users and num_items must be positive, got {num_users} and {num_items}"
            )
        pairs = np.asarray(list(interactions) if not isinstance(interactions, np.ndarray) else interactions)
        if pairs.size == 0:
            pairs = np.empty((0, 2), dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise DataError(f"interactions must have shape (N, 2), got {pairs.shape}")
        pairs = pairs.astype(np.int64, copy=False)
        if pairs.shape[0] > 0:
            if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= num_users:
                raise DataError("user id out of range")
            if pairs[:, 1].min() < 0 or pairs[:, 1].max() >= num_items:
                raise DataError("item id out of range")
        pairs = self._dedup_sorted(pairs, num_items)

        self._name = name
        self._num_users = int(num_users)
        self._num_items = int(num_items)
        self._pairs = pairs
        self._user_items: list[np.ndarray] = self._group_by_user(pairs, num_users)
        self._item_popularity = np.bincount(pairs[:, 1], minlength=num_items).astype(np.int64)
        self._store = None

    @staticmethod
    def _dedup_sorted(pairs: np.ndarray, num_items: int) -> np.ndarray:
        """``np.unique(pairs, axis=0)`` through sorted ``user * num_items + item`` keys.

        The keys order the pairs lexicographically, so sorting them and
        dropping adjacent repeats gives the same distinct pairs in the same
        order, without ``np.unique``'s row-wise void sort.  The ids were
        range-checked, and both dimensions are materialised (per-user lists,
        per-item counts), so the keys fit in int64.
        """
        keys = pairs[:, 0] * num_items
        keys += pairs[:, 1]
        keys.sort()
        if keys.shape[0] > 1:
            distinct = np.empty(keys.shape[0], dtype=bool)
            distinct[0] = True
            np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
            keys = keys[distinct]
        unique = np.empty((keys.shape[0], 2), dtype=np.int64)
        np.floor_divide(keys, num_items, out=unique[:, 0])
        np.remainder(keys, num_items, out=unique[:, 1])
        return unique

    @staticmethod
    def _group_by_user(pairs: np.ndarray, num_users: int) -> list[np.ndarray]:
        """Each user's items, sliced out of the (user, item)-sorted ``pairs``."""
        items = np.ascontiguousarray(pairs[:, 1])
        bounds = np.searchsorted(pairs[:, 0], np.arange(num_users + 1))
        return [items[bounds[user] : bounds[user + 1]] for user in range(num_users)]

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Dataset name."""
        return self._name

    @property
    def num_users(self) -> int:
        """Number of users ``n``."""
        return self._num_users

    @property
    def num_items(self) -> int:
        """Number of items ``m``."""
        return self._num_items

    @property
    def num_interactions(self) -> int:
        """Number of distinct (user, item) interactions ``|D|``."""
        return int(self._pairs.shape[0])

    @property
    def pairs(self) -> np.ndarray:
        """All interactions as an ``(N, 2)`` array of ``(user, item)`` pairs."""
        return self._pairs

    @property
    def item_popularity(self) -> np.ndarray:
        """Interaction count per item, shape ``(num_items,)``."""
        return self._item_popularity

    @property
    def sparsity(self) -> float:
        """Fraction of the user-item matrix that is empty (Table II)."""
        total = self._num_users * self._num_items
        return 1.0 - self.num_interactions / total

    @property
    def average_interactions_per_user(self) -> float:
        """Average number of interactions per user (Table II, "Avg.")."""
        return self.num_interactions / self._num_users

    # ------------------------------------------------------------------ #
    # Per-user access
    # ------------------------------------------------------------------ #
    def positive_items(self, user: int) -> np.ndarray:
        """Items the user interacted with, i.e. ``V+_i`` (sorted)."""
        self._check_user(user)
        return self._user_items[user]

    def user_degree(self, user: int) -> int:
        """Number of interactions of ``user``."""
        return int(self.positive_items(user).shape[0])

    def user_degrees(self) -> np.ndarray:
        """Number of interactions of every user, shape ``(num_users,)``."""
        return np.array([items.shape[0] for items in self._user_items], dtype=np.int64)

    def has_interaction(self, user: int, item: int) -> bool:
        """Whether ``(user, item)`` is in the dataset."""
        self._check_user(user)
        if item < 0 or item >= self._num_items:
            raise DataError(f"item id {item} out of range [0, {self._num_items})")
        items = self._user_items[user]
        idx = np.searchsorted(items, item)
        return bool(idx < items.shape[0] and items[idx] == item)

    def positive_mask(self, user: int) -> np.ndarray:
        """Boolean mask over items, True at the user's interacted items."""
        mask = np.zeros(self._num_items, dtype=bool)
        mask[self.positive_items(user)] = True
        return mask

    def iter_users(self) -> Iterator[int]:
        """Iterate over all user ids."""
        return iter(range(self._num_users))

    # ------------------------------------------------------------------ #
    # Aggregate views
    # ------------------------------------------------------------------ #
    def to_csr(self) -> sparse.csr_matrix:
        """The binary interaction matrix as a ``num_users x num_items`` CSR."""
        data = np.ones(self.num_interactions, dtype=np.float64)
        return sparse.csr_matrix(
            (data, (self._pairs[:, 0], self._pairs[:, 1])),
            shape=(self._num_users, self._num_items),
        )

    def interaction_store(self) -> InteractionStore:
        """The shared :class:`~repro.data.store.InteractionStore` of this dataset.

        Built on first access and cached, so the batched negative sampler,
        the attacker's user-matrix approximation and the evaluation engine
        all see the same CSR indices and mask rows (the dataset is immutable,
        which is what makes the cache safe).
        """
        if self._store is None:
            from repro.data.store import InteractionStore  # local import avoids a cycle

            self._store = InteractionStore.from_dataset(self)
        return self._store

    def popular_items(self, top_fraction: float = 0.1) -> np.ndarray:
        """Ids of the most-interacted items (top ``top_fraction`` of items).

        The Bandwagon baseline defines "popular items" as the top 10% of
        items by interaction count (Section V-A).
        """
        if not 0.0 < top_fraction <= 1.0:
            raise DataError(f"top_fraction must be in (0, 1], got {top_fraction}")
        count = max(1, int(round(top_fraction * self._num_items)))
        order = np.argsort(-self._item_popularity, kind="stable")
        return order[:count]

    def unpopular_items(self, count: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Sample ``count`` items from the least-popular half of the catalogue.

        Attack papers conventionally pick cold / unpopular items as targets so
        that ``ER@K`` starts at zero; this helper mirrors that choice.
        """
        if count <= 0:
            raise DataError(f"count must be positive, got {count}")
        if count > self._num_items:
            raise DataError("cannot sample more target items than items exist")
        order = np.argsort(self._item_popularity, kind="stable")
        pool = order[: max(count, self._num_items // 2)]
        if rng is None:
            return pool[:count]
        return rng.choice(pool, size=count, replace=False)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def with_interactions_removed(
        self, removals: Sequence[tuple[int, int]], name: str | None = None
    ) -> "InteractionDataset":
        """Return a copy with the given (user, item) pairs removed.

        Duplicate removals and pairs the dataset does not hold are ignored.
        """
        removed = np.asarray(removals, dtype=np.int64).reshape(-1, 2)
        # Out-of-range pairs are absent, and dropping them first keeps the
        # flattened keys below collision-free.
        in_range = (
            (removed[:, 0] >= 0)
            & (removed[:, 0] < self._num_users)
            & (removed[:, 1] >= 0)
            & (removed[:, 1] < self._num_items)
        )
        removed = removed[in_range]
        keys = self._pairs[:, 0] * self._num_items + self._pairs[:, 1]
        kept = ~np.isin(keys, removed[:, 0] * self._num_items + removed[:, 1])
        return InteractionDataset(
            self._num_users, self._num_items, self._pairs[kept], name=name or self._name
        )

    def with_extra_users(self, extra_profiles: Sequence[np.ndarray], name: str | None = None) -> "InteractionDataset":
        """Return a copy with additional users appended (fake-profile injection).

        Each entry of ``extra_profiles`` is an array of item ids forming the
        interaction profile of one new user.  Used by the centralized
        data-poisoning baselines (P1/P2) which inject fake users.
        """
        pairs = [self._pairs]
        for offset, profile in enumerate(extra_profiles):
            user_id = self._num_users + offset
            profile = np.asarray(profile, dtype=np.int64)
            pairs.append(np.column_stack([np.full(profile.shape[0], user_id), profile]))
        merged = np.concatenate(pairs, axis=0) if pairs else self._pairs
        return InteractionDataset(
            self._num_users + len(extra_profiles),
            self._num_items,
            merged,
            name=name or self._name,
        )

    def _check_user(self, user: int) -> None:
        if user < 0 or user >= self._num_users:
            raise DataError(f"user id {user} out of range [0, {self._num_users})")

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_interactions

    def __repr__(self) -> str:
        return (
            f"InteractionDataset(name={self._name!r}, users={self._num_users}, "
            f"items={self._num_items}, interactions={self.num_interactions}, "
            f"sparsity={self.sparsity:.4f})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionDataset):
            return NotImplemented
        return (
            self._num_users == other._num_users
            and self._num_items == other._num_items
            and np.array_equal(self._pairs, other._pairs)
        )

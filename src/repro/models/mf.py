"""Matrix-factorization recommender.

The interaction function is the fixed dot product of Eq. (1):
``x_ij = u_i . v_j``.  In the federated setting the server owns the item
matrix ``V`` while every client keeps its own row of ``U``; this class is the
parameter container plus the scoring/recommendation logic shared by both
sides and by the attacker.

The model implements the id-based
:class:`~repro.models.base.ScorerProtocol`: :meth:`score_block` takes user
*ids* and scores them in one ``U[users] @ V.T`` product — bit-identical to
the historical vector-based idiom ``score_block(user_factors[users])``,
since the gather and the GEMM are the same operations in the same order.
Vector-based block scoring remains available as :meth:`score_matrix`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.models.base import Recommender, check_candidate_sets
from repro.rng import ensure_rng

__all__ = ["MatrixFactorizationModel"]


class MatrixFactorizationModel(Recommender):
    """MF model with explicit user and item factor matrices.

    Parameters
    ----------
    num_users, num_items:
        Sizes of the factor matrices.
    num_factors:
        Dimensionality ``k`` of the feature vectors (paper default 32).
    init_scale:
        Standard deviation of the Gaussian initialisation.
    rng:
        Randomness for initialisation.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        num_factors: int = 32,
        init_scale: float = 0.01,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if num_users <= 0 or num_items <= 0:
            raise ModelError("num_users and num_items must be positive")
        if num_factors <= 0:
            raise ModelError("num_factors must be positive")
        if init_scale <= 0:
            raise ModelError("init_scale must be positive")
        generator = ensure_rng(rng)
        self._num_users = int(num_users)
        self._num_items = int(num_items)
        self._num_factors = int(num_factors)
        self.user_factors = generator.normal(0.0, init_scale, size=(num_users, num_factors))
        self.item_factors = generator.normal(0.0, init_scale, size=(num_items, num_factors))

    @classmethod
    def from_factors(
        cls, user_factors: np.ndarray, item_factors: np.ndarray
    ) -> "MatrixFactorizationModel":
        """A model wrapping existing factor matrices, without drawing RNG.

        The serving layer rebuilds a scorer around an immutable
        :class:`~repro.serving.FactorSnapshot`; routing that through
        ``__init__`` would burn generator draws (and copy) for factors that
        are immediately replaced.  The given arrays are adopted as-is (no
        copy), so read-only snapshot views stay read-only — every scoring
        path only reads them.
        """
        user_factors = np.asarray(user_factors, dtype=np.float64)
        item_factors = np.asarray(item_factors, dtype=np.float64)
        if user_factors.ndim != 2 or item_factors.ndim != 2:
            raise ModelError(
                "factor matrices must be 2-D, got shapes "
                f"{user_factors.shape} and {item_factors.shape}"
            )
        if user_factors.shape[1] != item_factors.shape[1]:
            raise ModelError(
                "user and item factors must share the feature dimension, got "
                f"{user_factors.shape} and {item_factors.shape}"
            )
        if min(user_factors.shape[0], item_factors.shape[0], user_factors.shape[1]) <= 0:
            raise ModelError("factor matrices must be non-empty")
        model = cls.__new__(cls)
        model._num_users = int(user_factors.shape[0])
        model._num_items = int(item_factors.shape[0])
        model._num_factors = int(user_factors.shape[1])
        model.user_factors = user_factors
        model.item_factors = item_factors
        return model

    # ------------------------------------------------------------------ #
    # Recommender interface
    # ------------------------------------------------------------------ #
    @property
    def num_users(self) -> int:
        return self._num_users

    @property
    def num_items(self) -> int:
        return self._num_items

    @property
    def num_factors(self) -> int:
        return self._num_factors

    # ------------------------------------------------------------------ #
    # ScorerProtocol surface (id-based)
    # ------------------------------------------------------------------ #
    @property
    def n_users(self) -> int:
        """Protocol alias of :attr:`num_users`."""
        return self._num_users

    @property
    def n_items(self) -> int:
        """Protocol alias of :attr:`num_items`."""
        return self._num_items

    def score(self, user: int, items: np.ndarray | None = None) -> np.ndarray:
        """Scores of ``items`` (all items if ``None``) for a stored user id."""
        return self.score_user(int(user), items)

    def score_items(self, user_vector: np.ndarray, items: np.ndarray | None = None) -> np.ndarray:
        """Predicted scores ``u . v_j`` for the requested items."""
        user_vector = np.asarray(user_vector, dtype=np.float64)
        if user_vector.shape != (self._num_factors,):
            raise ModelError(
                f"user_vector must have shape ({self._num_factors},), got {user_vector.shape}"
            )
        if items is None:
            return self.item_factors @ user_vector
        return self.item_factors[np.asarray(items, dtype=np.int64)] @ user_vector

    def score_block(
        self, users: np.ndarray, /, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Stacked scores ``U[users] V^T`` for a 1-D block of user *ids*.

        One matrix product replaces ``B`` :meth:`score_items` calls; this is
        the scoring primitive of the vectorized evaluation engine and the
        serving layer (:class:`~repro.models.base.ScorerProtocol`).  The
        floats are bit-identical to the historical vector-based call
        ``score_block(self.user_factors[users])`` — same gather, same GEMM.
        ``out`` is an optional C-contiguous ``(B, n_items)`` float64 buffer
        the product is written into (the same GEMM, so the same floats) —
        how the serving layer recycles a retired snapshot's blocks.
        """
        users = np.asarray(users, dtype=np.int64)
        if users.ndim != 1:
            raise ModelError(f"users must be a 1-D array of user ids, got shape {users.shape}")
        if users.size and (int(users.min()) < 0 or int(users.max()) >= self._num_users):
            raise ModelError(f"user ids out of range [0, {self._num_users})")
        return np.matmul(self.user_factors[users], self.item_factors.T, out=out)

    def score_candidates(self, users: np.ndarray, candidate_items: np.ndarray, /) -> np.ndarray:
        """``(B, C)`` scores of per-user candidate sets, without the full GEMM.

        Row ``b`` scores user ``users[b]`` on its own candidate row: one
        ``einsum`` over the gathered ``U[users]`` and ``V[candidate_items]``
        — ``B * C * k`` multiply-adds instead of the ``B * n_items * k`` of
        :meth:`score_block`.  This is the
        :class:`~repro.models.base.CandidateScorerProtocol` surface the
        sampled evaluation protocol's ``eval_path="candidates"`` dispatches
        through.
        """
        users, candidate_items = check_candidate_sets(
            users, candidate_items, n_users=self._num_users, n_items=self._num_items
        )
        return np.einsum(
            "bf,bcf->bc",
            self.user_factors[users],
            self.item_factors[candidate_items],
        )

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    def score_user(self, user: int, items: np.ndarray | None = None) -> np.ndarray:
        """Scores for the stored feature vector of ``user``."""
        self._check_user(user)
        return self.score_items(self.user_factors[user], items)

    def score_matrix(self, users: np.ndarray | None = None) -> np.ndarray:
        """Dense score matrix ``U V^T`` for the requested users."""
        factors = self.user_factors if users is None else self.user_factors[np.asarray(users)]
        return factors @ self.item_factors.T

    def recommend_for_user(
        self, user: int, k: int, exclude_items: np.ndarray | None = None
    ) -> np.ndarray:
        """Top-``k`` recommendation for a stored user."""
        self._check_user(user)
        return self.recommend(self.user_factors[user], k, exclude_items)

    def copy(self) -> "MatrixFactorizationModel":
        """Deep copy of the model (used to snapshot server state)."""
        clone = MatrixFactorizationModel(
            self._num_users, self._num_items, self._num_factors, rng=0
        )
        clone.user_factors = self.user_factors.copy()
        clone.item_factors = self.item_factors.copy()
        return clone

    def _check_user(self, user: int) -> None:
        if user < 0 or user >= self._num_users:
            raise ModelError(f"user id {user} out of range [0, {self._num_users})")

    def __repr__(self) -> str:
        return (
            f"MatrixFactorizationModel(users={self._num_users}, items={self._num_items}, "
            f"factors={self._num_factors})"
        )

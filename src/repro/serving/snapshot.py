"""Immutable, versioned exports of trained factors.

A :class:`FactorSnapshot` freezes one training state — the user matrix ``U``,
the item matrix ``V`` and the optional MLP scorer ``Theta`` — behind
read-only float64 arrays, so a :class:`~repro.serving.service.RecommenderService`
can cache scores computed from it without ever worrying about the simulation
mutating the factors underneath the cache.  The ``version`` field (the
server's authoritative ``rounds_applied`` counter when exported from a live
simulation) is what lets the service detect and invalidate on snapshot swaps.

The snapshot exposes its scoring surface only through the formal
:class:`~repro.models.base.ScorerProtocol`: :meth:`FactorSnapshot.model`
builds either a plain-MF model or the MLP adapter depending on whether a
scorer is present — a ``None`` check on the exported parameters, never an
``isinstance`` against model classes (repro-lint R8 enforces the latter
package-wide).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ServingError
from repro.models.base import CandidateScorerProtocol
from repro.models.mf import MatrixFactorizationModel
from repro.models.neural import MLPRecommender, MLPScorer

if TYPE_CHECKING:
    from repro.federated.server import Server
    from repro.federated.simulation import SimulationResult

__all__ = ["FactorSnapshot"]


def _frozen_copy(array: np.ndarray, name: str) -> np.ndarray:
    """A read-only float64 C-contiguous copy of a 2-D factor matrix."""
    copied = np.array(array, dtype=np.float64, order="C", copy=True)
    if copied.ndim != 2:
        raise ServingError(f"{name} must be a 2-D matrix, got shape {copied.shape}")
    if copied.shape[0] == 0 or copied.shape[1] == 0:
        raise ServingError(f"{name} must be non-empty, got shape {copied.shape}")
    copied.setflags(write=False)
    return copied


@dataclass(frozen=True, eq=False)
class FactorSnapshot:
    """One immutable export of trained factors.

    Attributes
    ----------
    user_factors:
        ``(num_users, num_factors)`` user matrix ``U`` (read-only copy).
    item_factors:
        ``(num_items, num_factors)`` item matrix ``V`` (read-only copy).
    scorer:
        The MLP interaction function ``Theta`` when the run used the
        learnable scorer, else ``None`` (plain MF dot product).  Stored as a
        private copy with read-only parameter arrays.
    version:
        Monotone identity of the training state — the server's
        ``rounds_applied`` counter when exported from a simulation.  Two
        snapshots of the same run with equal versions hold equal factors.
    """

    user_factors: np.ndarray
    item_factors: np.ndarray
    scorer: MLPScorer | None = None
    version: int = 0
    _model: list[MatrixFactorizationModel | MLPRecommender] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        user_factors = _frozen_copy(self.user_factors, "user_factors")
        item_factors = _frozen_copy(self.item_factors, "item_factors")
        if user_factors.shape[1] != item_factors.shape[1]:
            raise ServingError(
                "user_factors and item_factors must share the feature "
                f"dimension, got {user_factors.shape} and {item_factors.shape}"
            )
        scorer = self.scorer
        if scorer is not None:
            if scorer.num_factors != user_factors.shape[1]:
                raise ServingError(
                    f"scorer expects {scorer.num_factors} factors, "
                    f"snapshot has {user_factors.shape[1]}"
                )
            scorer = scorer.copy()
            for parameter in (scorer.w1, scorer.b1, scorer.w2):
                parameter.setflags(write=False)
        if int(self.version) < 0:
            raise ServingError(f"version must be non-negative, got {self.version}")
        object.__setattr__(self, "user_factors", user_factors)
        object.__setattr__(self, "item_factors", item_factors)
        object.__setattr__(self, "scorer", scorer)
        object.__setattr__(self, "version", int(self.version))

    @property
    def n_users(self) -> int:
        """Number of users covered by the snapshot."""
        return int(self.user_factors.shape[0])

    @property
    def n_items(self) -> int:
        """Number of items covered by the snapshot."""
        return int(self.item_factors.shape[0])

    @property
    def num_factors(self) -> int:
        """Feature-vector dimensionality ``k``."""
        return int(self.user_factors.shape[1])

    def model(self) -> CandidateScorerProtocol:
        """The scoring model over these factors (cached, protocol-typed).

        Plain MF adopts the frozen matrices directly
        (:meth:`~repro.models.mf.MatrixFactorizationModel.from_factors`);
        with a scorer present the :class:`~repro.models.neural.MLPRecommender`
        adapter wraps them.  Either way callers only see the structural
        protocol surface — both builders implement the candidate-gather
        extension, so the returned scorer is a
        :class:`~repro.models.base.CandidateScorerProtocol`.
        """
        return self._built_model()

    def _built_model(self) -> MatrixFactorizationModel | MLPRecommender:
        if not self._model:
            built: MatrixFactorizationModel | MLPRecommender
            if self.scorer is None:
                built = MatrixFactorizationModel.from_factors(
                    self.user_factors, self.item_factors
                )
            else:
                built = MLPRecommender(self.user_factors, self.item_factors, self.scorer)
            self._model.append(built)
        return self._model[0]

    def score_block(
        self, users: np.ndarray, /, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``(B, n_items)`` scores of a block of user ids, optionally into ``out``.

        Delegates to the cached :meth:`model`; ``out`` is a caller-owned
        ``(B, n_items)`` float64 buffer the scores are written into, with
        floats identical to a fresh call (the MF product runs the same GEMM
        into it, the MLP adapter copies).
        """
        return self._built_model().score_block(users, out=out)

    def score_candidates(self, users: np.ndarray, candidate_items: np.ndarray, /) -> np.ndarray:
        """``(B, C)`` scores of per-user candidate sets over the frozen factors.

        Delegates to the cached :meth:`model` — the MF einsum or the MLP
        gathered forward, depending on whether a scorer is present — so a
        snapshot is a :class:`~repro.models.base.CandidateScorerProtocol`
        source wherever a model is (the sampled evaluation protocol's
        ``eval_path="candidates"`` fast path included).
        """
        return self.model().score_candidates(users, candidate_items)

    @classmethod
    def from_model(
        cls, model: MatrixFactorizationModel, *, version: int = 0
    ) -> "FactorSnapshot":
        """Snapshot a standalone MF model's current factors."""
        return cls(
            user_factors=model.user_factors,
            item_factors=model.item_factors,
            version=version,
        )

    @classmethod
    def from_server(cls, server: "Server", user_factors: np.ndarray) -> "FactorSnapshot":
        """Snapshot a live federated server plus the gathered user matrix.

        The server only ever holds ``V`` (and ``Theta``); the caller supplies
        the user matrix gathered from the clients (e.g.
        ``FederatedSimulation.gather_user_factors()``).  The snapshot version
        is the server's authoritative ``rounds_applied`` counter.
        """
        return cls(
            user_factors=user_factors,
            item_factors=server.snapshot_item_factors(),
            scorer=server.snapshot_scorer(),
            version=server.rounds_applied,
        )

    @classmethod
    def from_result(cls, result: "SimulationResult") -> "FactorSnapshot":
        """Snapshot the final state of a finished simulation run."""
        return cls(
            user_factors=result.user_factors,
            item_factors=result.item_factors,
            scorer=result.scorer,
            version=result.rounds_applied,
        )

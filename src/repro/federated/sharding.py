"""Sharded multi-worker round execution.

With ``FederatedConfig.workers = W > 1`` each round's sampled benign clients
are partitioned into ``W`` contiguous shards and trained in a
``concurrent.futures.ProcessPoolExecutor`` pool.  The design is built around
one hard requirement: per-round histories must stay **bit-identical** to the
single-process engines for every engine realization.  Three contracts
make that hold:

* **Predrawn randomness.**  Workers never touch an RNG.  All of a round's
  (positives, negatives) pairs are drawn in the parent through the existing
  :meth:`~repro.federated.engine.BatchedRoundTrainer.draw_round_pairs` path
  and shipped to the shards, so the shard count never perturbs any seed
  stream.
* **Snapshot inputs, decomposable stages.**  Workers read the round's item
  matrix ``V`` and the dataset's CSR arrays from shared memory (one copy for
  the whole pool, refreshed via :meth:`ShardedRoundExecutor.run_shards` —
  never pickled per task).  On the vectorized MF path the parent additionally
  computes the kernel's GEMM stage (``U @ V.T`` and the pair margins) itself:
  BLAS GEMMs are *not* bit-stable under row slicing, so only the stages that
  are exactly block-decomposable over contiguous client shards — segment
  folds, per-segment reductions, CSR-times-dense products — run in the
  workers (:func:`_run_mf_shard` mirrors them operation for operation).
* **Deterministic merge.**  Results are collected in shard-submission order
  (never completion order) and concatenated by
  :func:`repro.federated.updates.merge_factored_rounds` /
  :func:`~repro.federated.updates.merge_sparse_rounds` before DP clipping,
  attack injection and aggregation — a worker that raises or hangs past the
  configured timeout aborts the round with the failing shard's id; a partial
  merge can never reach the server.

The client partition itself (:func:`partition_clients`) is a disjoint,
order-preserving, contiguous cover: shard sizes differ by at most one and
trailing shards may be empty when there are more workers than clients.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Sequence
from weakref import finalize

import numpy as np
from scipy import sparse as _sparse

from repro.data.store import InteractionStore, SharedArraySpec, attach_shared_array, share_array
from repro.exceptions import FederationError
from repro.federated.client import scorer_pair_gradients
from repro.federated.dynamics import (
    ShardIncident,
    TransientShardError,
    active_shard_fault_plan,
)
from repro.federated.updates import ClientUpdate, FactoredRoundUpdates, SparseRoundUpdates
from repro.models.losses import _log_sigmoid, bpr_loss_and_gradients, fold_by_key, sigmoid
from repro.models.neural import MLPScorer

__all__ = [
    "partition_clients",
    "MFShardTask",
    "LoopShardTask",
    "ShardResult",
    "ShardedRoundExecutor",
    "build_mf_shard_tasks",
    "build_loop_shard_tasks",
]


def partition_clients(num_clients: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` client bounds of every shard.

    The partition is a disjoint, order-preserving cover of
    ``range(num_clients)``: shard sizes differ by at most one (the first
    ``num_clients % num_shards`` shards take the extra client) and trailing
    shards are empty when there are more shards than clients.
    """
    if num_clients < 0:
        raise FederationError("num_clients must be non-negative")
    if num_shards < 1:
        raise FederationError("num_shards must be at least 1")
    base, extra = divmod(num_clients, num_shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for shard in range(num_shards):
        stop = start + base + (1 if shard < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


@dataclass(frozen=True)
class MFShardTask:
    """One shard of a vectorized-MF round (post-GEMM stages only).

    ``margins`` are the parent-computed BPR margins of the shard's pairs —
    the one stage whose BLAS GEMM is not row-slice bit-stable — so the worker
    only runs the exactly decomposable folds and reductions.  Positives are
    *not* shipped: the worker reconstructs them from the shared CSR arrays
    (each client's round positives are a prefix of its sorted CSR row).
    """

    shard_index: int
    user_ids: np.ndarray
    pair_counts: np.ndarray
    user_vectors: np.ndarray
    negatives: np.ndarray
    margins: np.ndarray
    l2_reg: float


@dataclass(frozen=True)
class LoopShardTask:
    """One shard of a loop-engine round: per-client reference training."""

    shard_index: int
    user_ids: np.ndarray
    pair_counts: np.ndarray
    user_vectors: np.ndarray
    negatives: np.ndarray
    l2_reg: float
    scorer: MLPScorer | None


@dataclass(frozen=True)
class ShardResult:
    """A worker's output for one shard, merged in shard order by the parent."""

    shard_index: int
    updates: FactoredRoundUpdates | SparseRoundUpdates
    grad_users: np.ndarray


def build_mf_shard_tasks(
    num_shards: int,
    user_ids: np.ndarray,
    pair_counts: np.ndarray,
    user_vectors: np.ndarray,
    negatives: np.ndarray,
    margins: np.ndarray,
    l2_reg: float,
) -> list[MFShardTask]:
    """Slice a round's stacked MF inputs into contiguous shard tasks."""
    bounds = partition_clients(int(user_ids.shape[0]), num_shards)
    offsets = np.zeros(user_ids.shape[0] + 1, dtype=np.int64)
    np.cumsum(pair_counts, out=offsets[1:])
    tasks: list[MFShardTask] = []
    for shard_index, (c0, c1) in enumerate(bounds):
        p0, p1 = int(offsets[c0]), int(offsets[c1])
        tasks.append(
            MFShardTask(
                shard_index=shard_index,
                user_ids=user_ids[c0:c1],
                pair_counts=pair_counts[c0:c1],
                user_vectors=user_vectors[c0:c1],
                negatives=negatives[p0:p1],
                margins=margins[p0:p1],
                l2_reg=l2_reg,
            )
        )
    return tasks


def build_loop_shard_tasks(
    num_shards: int,
    user_ids: np.ndarray,
    pair_counts: np.ndarray,
    user_vectors: np.ndarray,
    negatives: np.ndarray,
    l2_reg: float,
    scorer: MLPScorer | None,
) -> list[LoopShardTask]:
    """Slice a round's per-client loop inputs into contiguous shard tasks."""
    bounds = partition_clients(int(user_ids.shape[0]), num_shards)
    offsets = np.zeros(user_ids.shape[0] + 1, dtype=np.int64)
    np.cumsum(pair_counts, out=offsets[1:])
    tasks: list[LoopShardTask] = []
    for shard_index, (c0, c1) in enumerate(bounds):
        p0, p1 = int(offsets[c0]), int(offsets[c1])
        tasks.append(
            LoopShardTask(
                shard_index=shard_index,
                user_ids=user_ids[c0:c1],
                pair_counts=pair_counts[c0:c1],
                user_vectors=user_vectors[c0:c1],
                negatives=negatives[p0:p1],
                l2_reg=l2_reg,
                scorer=scorer,
            )
        )
    return tasks


# ---------------------------------------------------------------------- #
# Worker-side state and shard execution
# ---------------------------------------------------------------------- #
#: Read-only shared-memory views installed by :func:`_worker_init`:
#: ``item_factors`` (the round's ``V`` snapshot), ``indptr`` / ``indices``
#: (the dataset's CSR arrays), plus the attached segments keeping them alive.
_WORKER: dict[str, Any] = {}


def _worker_init(spec: dict[str, SharedArraySpec]) -> None:
    """Pool initializer: attach every shared array named in ``spec``."""
    segments = []
    for key, array_spec in spec.items():
        segment, view = attach_shared_array(array_spec)
        segments.append(segment)
        _WORKER[key] = view
    _WORKER["_segments"] = segments


def _shard_entry(
    task: "MFShardTask | LoopShardTask", attempt: int = 0, dispatch_round: int = 0
) -> ShardResult:
    """The picklable pool entry point.

    First consults the process-wide
    :class:`~repro.federated.dynamics.ShardFaultPlan` (installed in the
    parent before the pool forks, so every worker inherits it) — the public
    fault-injection surface — then dispatches through the *module attribute*
    ``_execute_shard``, which remains monkeypatchable the same pre-fork way.
    ``attempt`` is the 0-based retry attempt, ``dispatch_round`` the
    executor's 1-based round counter; both exist only for the plan.
    """
    plan = active_shard_fault_plan()
    if plan is not None:
        plan.apply(task.shard_index, attempt, dispatch_round)
    return _execute_shard(task)


def _execute_shard(task: "MFShardTask | LoopShardTask") -> ShardResult:
    if isinstance(task, MFShardTask):
        return _run_mf_shard(task)
    return _run_loop_shard(task)


def _shard_positives(user_ids: np.ndarray, pair_counts: np.ndarray) -> np.ndarray:
    """Reconstruct the shard's concatenated positives from the shared CSR.

    A client's round positives are always the first ``pair_counts[i]`` items
    of its sorted CSR row (clients truncate to the drawn negative count), so
    no positive ids ever cross the process boundary.
    """
    indptr: np.ndarray = _WORKER["indptr"]
    indices: np.ndarray = _WORKER["indices"]
    total = int(pair_counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.zeros(user_ids.shape[0] + 1, dtype=np.int64)
    np.cumsum(pair_counts, out=offsets[1:])
    starts = indptr[user_ids]
    flat = np.repeat(starts - offsets[:-1], pair_counts) + np.arange(total, dtype=np.int64)
    return indices[flat]


def _run_mf_shard(task: MFShardTask) -> ShardResult:
    """The batched MF kernel's post-GEMM stages for one contiguous shard.

    Mirrors :func:`repro.models.losses.bpr_coefficients_batched` operation
    for operation from the margins onward.  Every stage here is exactly
    block-decomposable over contiguous client shards — the losses/count
    bincounts are segment-aligned, the fold's combined keys differ from the
    global ones by a constant per-shard offset (so the stable sort is
    block-diagonal), and the CSR-times-dense products reduce row by row —
    which is why concatenating the shard outputs in shard order is
    bit-identical to the unsharded kernel.
    """
    item_factors: np.ndarray = _WORKER["item_factors"]
    num_items = int(item_factors.shape[0])
    num_clients = int(task.user_ids.shape[0])
    num_factors = int(item_factors.shape[1])
    user_vectors = task.user_vectors
    if task.margins.shape[0] == 0:
        updates = FactoredRoundUpdates(
            client_ids=task.user_ids,
            item_ids=np.empty(0, dtype=np.int64),
            coefficients=np.empty(0, dtype=np.float64),
            client_offsets=np.zeros(num_clients + 1, dtype=np.int64),
            user_vectors=user_vectors.reshape(num_clients, num_factors),
            losses=np.zeros(num_clients, dtype=np.float64),
            malicious_mask=np.zeros(num_clients, dtype=bool),
        )
        grad_users = np.zeros((num_clients, num_factors), dtype=np.float64)
        return ShardResult(task.shard_index, updates, grad_users)

    segment_ids = np.repeat(np.arange(num_clients, dtype=np.int64), task.pair_counts)
    positives = _shard_positives(task.user_ids, task.pair_counts)
    margins = task.margins
    losses = np.bincount(segment_ids, weights=-_log_sigmoid(margins), minlength=num_clients)
    coefficients = -sigmoid(-margins)

    score_base = segment_ids * num_items
    keys = np.concatenate([score_base + positives, score_base + task.negatives])
    signed = np.concatenate([coefficients, -coefficients])
    unique_keys, folded = fold_by_key(keys, signed)
    item_ids = unique_keys % num_items
    owners = unique_keys // num_items
    segment_offsets = np.searchsorted(owners, np.arange(num_clients + 1))

    coefficient_matrix = _sparse.csr_matrix(
        (folded, item_ids, segment_offsets), shape=(num_clients, num_items)
    )
    grad_users = np.asarray(coefficient_matrix @ item_factors)

    l2_reg = task.l2_reg
    if l2_reg > 0.0:
        touched = item_factors[item_ids]
        active = np.bincount(segment_ids, minlength=num_clients) > 0
        grad_users[active] += 2.0 * l2_reg * user_vectors[active]
        user_sq = np.einsum("ij,ij->i", user_vectors, user_vectors)
        item_sq = np.bincount(
            owners, weights=np.einsum("ij,ij->i", touched, touched), minlength=num_clients
        )
        losses = losses + np.where(active, l2_reg * user_sq, 0.0) + l2_reg * item_sq

    updates = FactoredRoundUpdates(
        client_ids=task.user_ids,
        item_ids=item_ids,
        coefficients=folded,
        client_offsets=segment_offsets,
        user_vectors=user_vectors,
        losses=losses,
        malicious_mask=np.zeros(num_clients, dtype=bool),
    )
    return ShardResult(task.shard_index, updates, grad_users)


def _run_loop_shard(task: LoopShardTask) -> ShardResult:
    """The loop engine's per-client reference training for one shard."""
    item_factors: np.ndarray = _WORKER["item_factors"]
    num_clients = int(task.user_ids.shape[0])
    num_factors = int(item_factors.shape[1])
    offsets = np.zeros(num_clients + 1, dtype=np.int64)
    np.cumsum(task.pair_counts, out=offsets[1:])
    positives = _shard_positives(task.user_ids, task.pair_counts)
    grad_users = np.zeros((num_clients, num_factors), dtype=np.float64)
    updates: list[ClientUpdate] = []
    for index in range(num_clients):
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        user_vector = task.user_vectors[index]
        if task.scorer is None:
            gradients = bpr_loss_and_gradients(
                user_vector,
                item_factors,
                positives[lo:hi],
                task.negatives[lo:hi],
                l2_reg=task.l2_reg,
            )
            loss = gradients.loss
            grad_user = gradients.grad_user
            item_ids = gradients.item_ids
            item_grads = gradients.grad_items
            theta_grad = None
        else:
            loss, grad_user, item_ids, item_grads, theta_grad = scorer_pair_gradients(
                user_vector,
                num_factors,
                positives[lo:hi],
                task.negatives[lo:hi],
                item_factors,
                task.scorer,
            )
        grad_users[index] = grad_user
        updates.append(
            ClientUpdate(
                client_id=int(task.user_ids[index]),
                item_ids=item_ids,
                item_gradients=item_grads,
                theta_gradient=theta_grad,
                loss=loss,
                is_malicious=False,
            )
        )
    packed = SparseRoundUpdates.from_client_updates(updates, num_factors=num_factors)
    return ShardResult(task.shard_index, packed, grad_users)


# ---------------------------------------------------------------------- #
# Parent-side executor
# ---------------------------------------------------------------------- #
def _release_executor_state(state: dict[str, Any]) -> None:
    """Tear down the pool and the owned shared-memory segments (idempotent)."""
    pool = state.get("pool")
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)
        state["pool"] = None
    for segment in state.get("segments", ()):
        for release in (segment.close, segment.unlink):
            try:
                release()
            except Exception:  # pragma: no cover - already-released segments
                pass
    state["segments"] = []


class ShardedRoundExecutor:
    """Owns the worker pool and the shared-memory snapshot of a simulation.

    Created once per simulation when ``config.workers > 1``: the dataset's
    CSR arrays are copied into shared memory a single time, a float64 buffer
    for the round's item-matrix snapshot is allocated next to them, and the
    process pool (lazily started on the first round, ``fork`` context where
    available) attaches read-only views of all three in its initializer.
    :meth:`run_shards` refreshes the ``V`` snapshot, dispatches one future
    per shard and returns the results **in shard-submission order** —
    completion order never influences the merge.  A shard exception or a
    timeout aborts the pool and raises ``RuntimeError`` naming the shard, so
    a partially trained round can never be merged.

    Parameters
    ----------
    num_shards:
        Worker count ``FederatedConfig.workers``.
    num_items, num_factors:
        Shape of the shared item-matrix snapshot buffer.
    store:
        The dataset's :class:`~repro.data.store.InteractionStore`, exported
        once to shared memory.
    timeout:
        ``FederatedConfig.worker_timeout`` — seconds to wait for a round's
        shards before declaring the pool hung (``None`` waits forever).
    retries:
        ``FederatedConfig.shard_retries`` — how many extra attempts a shard
        failing with :class:`~repro.federated.dynamics.TransientShardError`
        (or a broken pool) gets.  Deterministic shard exceptions are never
        retried: they would recompute the same failure, so they abort the
        round immediately with the shard id under either degradation mode.
    backoff:
        ``FederatedConfig.shard_backoff`` — base sleep before retry attempt
        ``n`` (0-based) of ``backoff * 2**n`` seconds.  Wall clock only.
    degradation:
        ``FederatedConfig.degradation`` — ``"strict"`` aborts the round on
        any shard that is still failing after its retries (or timed out);
        ``"quorum"`` records a :class:`~repro.federated.dynamics.ShardIncident`
        for the failed shard and returns the surviving results (the
        simulation then enforces the reporter quorum before merging — a
        degraded round is never silent).
    """

    def __init__(
        self,
        num_shards: int,
        num_items: int,
        num_factors: int,
        store: InteractionStore,
        timeout: float | None = None,
        retries: int = 0,
        backoff: float = 0.05,
        degradation: str = "strict",
    ) -> None:
        if num_shards < 1:
            raise FederationError("num_shards must be at least 1")
        if retries < 0:
            raise FederationError("retries must be non-negative")
        if degradation not in ("strict", "quorum"):
            raise FederationError(
                f"degradation must be 'strict' or 'quorum', got {degradation!r}"
            )
        self._num_shards = int(num_shards)
        self._timeout = timeout
        self._retries = int(retries)
        self._backoff = float(backoff)
        self._degradation = degradation
        self._dispatch_round = 0
        self._incidents: list[ShardIncident] = []
        self._spec: dict[str, SharedArraySpec] = {}
        segments = []
        factors_segment, factors_spec = share_array(
            np.zeros((int(num_items), int(num_factors)), dtype=np.float64)
        )
        segments.append(factors_segment)
        self._spec["item_factors"] = factors_spec
        self._item_factors_view: np.ndarray = np.ndarray(
            (int(num_items), int(num_factors)), dtype=np.float64, buffer=factors_segment.buf
        )
        for key, (segment, spec) in store.shared_memory_export().items():
            segments.append(segment)
            self._spec[key] = spec
        self._state: dict[str, Any] = {"pool": None, "segments": segments}
        self._finalizer = finalize(self, _release_executor_state, self._state)

    @property
    def num_shards(self) -> int:
        """Number of shards each round is partitioned into."""
        return self._num_shards

    def close(self) -> None:
        """Shut the pool down and release the shared-memory segments."""
        self._finalizer()

    def drain_incidents(self) -> list[ShardIncident]:
        """Return (and clear) the shard incidents recorded since last drained.

        The executor has no notion of training rounds or epochs; the
        simulation drains these after each :meth:`run_shards` call and
        converts them to :class:`~repro.federated.dynamics.RoundIncident`
        records with the round context attached.
        """
        drained = self._incidents
        self._incidents = []
        return drained

    def run_shards(
        self, tasks: "Sequence[MFShardTask | LoopShardTask]", item_factors: np.ndarray
    ) -> list[ShardResult]:
        """Execute every shard task and return results in shard order.

        ``item_factors`` is copied into the shared snapshot buffer before any
        task is dispatched, so all workers fold against the identical bits
        the parent's round uses.

        Failure handling distinguishes three classes:

        * **Transient** (:class:`TransientShardError`, or a broken pool):
          retried with exponential backoff up to ``retries`` extra attempts.
        * **Deterministic** (any other shard exception): never retried —
          aborts the round immediately with the shard id, in *both*
          degradation modes (retrying recomputes the same failure, and a
          quorum merge over a deterministic bug would hide it).
        * **Exhausted / timed out**: under ``"strict"`` the round aborts with
          no partial merge; under ``"quorum"`` the failed shard is dropped,
          a ``ShardIncident`` is recorded, and the surviving results are
          returned (still in shard order) for the caller's quorum check.
        """
        np.copyto(self._item_factors_view, item_factors)
        self._dispatch_round += 1
        total = len(tasks)
        results: list[ShardResult | None] = [None] * total
        any_failed = False
        pending = list(range(total))
        attempt = 0
        while pending:
            pool = self._ensure_pool()
            futures = {
                position: pool.submit(
                    _shard_entry, tasks[position], attempt, self._dispatch_round
                )
                for position in pending
            }
            _, not_done = wait(futures.values(), timeout=self._timeout)
            if not_done:
                hung_positions = sorted(
                    position for position, future in futures.items() if future in not_done
                )
                done_map = {
                    position: future
                    for position, future in futures.items()
                    if future not in not_done
                }
                self._abort_pool()
                if self._degradation == "strict":
                    hung = sorted(tasks[position].shard_index for position in hung_positions)
                    raise RuntimeError(
                        f"sharded round timed out after {self._timeout}s waiting for "
                        f"shard(s) {', '.join(str(index) for index in hung)}; "
                        "no partial merge was performed"
                    )
                # Quorum degradation: the hung shards are gone (the pool was
                # just killed), but shards that did finish still count.  No
                # further retries this round — the pool restart makes retry
                # accounting ambiguous, and the round is already degraded.
                for position in hung_positions:
                    any_failed = True
                    self._record_shard_failure(
                        tasks[position],
                        kind="shard-timeout",
                        detail=(
                            f"timed out after {self._timeout}s on attempt "
                            f"{attempt}; shard dropped under quorum degradation"
                        ),
                    )
                for position, future in done_map.items():
                    try:
                        results[position] = future.result()
                    except Exception as exc:
                        any_failed = True
                        self._record_shard_failure(
                            tasks[position],
                            kind="shard-failed",
                            detail=(
                                f"failed on attempt {attempt} alongside a pool "
                                f"timeout ({exc}); shard dropped under quorum "
                                "degradation"
                            ),
                        )
                pending = []
                break
            transient: list[int] = []
            pool_broken = False
            for position, future in futures.items():
                task = tasks[position]
                try:
                    results[position] = future.result()
                except (TransientShardError, BrokenProcessPool) as exc:
                    transient.append(position)
                    pool_broken = pool_broken or isinstance(exc, BrokenProcessPool)
                    if attempt < self._retries:
                        self._incidents.append(
                            ShardIncident(
                                kind="shard-retry",
                                shard_index=task.shard_index,
                                client_ids=tuple(int(cid) for cid in task.user_ids),
                                detail=(
                                    f"transient failure on attempt {attempt} "
                                    f"({exc}); retrying"
                                ),
                            )
                        )
                    elif self._degradation == "strict":
                        self._abort_pool()
                        raise RuntimeError(
                            f"shard {task.shard_index} failed: {exc}; "
                            f"retries exhausted after {attempt + 1} attempt(s); "
                            "no partial merge was performed"
                        ) from exc
                    else:
                        any_failed = True
                        self._record_shard_failure(
                            task,
                            kind="shard-failed",
                            detail=(
                                f"transient failure persisted through "
                                f"{attempt + 1} attempt(s) ({exc}); shard "
                                "dropped under quorum degradation"
                            ),
                        )
                except Exception as exc:
                    # Deterministic failure: fail fast with the shard id in
                    # both degradation modes — retrying recomputes the same
                    # bug, and a quorum merge over it would hide it.
                    self._abort_pool()
                    raise RuntimeError(
                        f"shard {task.shard_index} failed: {exc}; "
                        "no partial merge was performed"
                    ) from exc
            if pool_broken:
                self._abort_pool()
            if transient and attempt < self._retries:
                pending = sorted(transient)
                delay = self._backoff * (2.0**attempt)
                if delay > 0:
                    time.sleep(delay)
            else:
                pending = []
            attempt += 1
        surviving = [result for result in results if result is not None]
        if any_failed and not surviving:
            raise RuntimeError(
                f"all {total} shard(s) failed; no partial merge was performed"
            )
        return surviving

    def _record_shard_failure(
        self, task: "MFShardTask | LoopShardTask", kind: str, detail: str
    ) -> None:
        """Record a dropped shard as an incident (quorum degradation only)."""
        self._incidents.append(
            ShardIncident(
                kind=kind,
                shard_index=task.shard_index,
                client_ids=tuple(int(cid) for cid in task.user_ids),
                detail=detail,
            )
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        pool = self._state["pool"]
        if pool is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - platforms without fork
                context = multiprocessing.get_context()
            pool = ProcessPoolExecutor(
                max_workers=self._num_shards,
                mp_context=context,
                initializer=_worker_init,
                initargs=(self._spec,),
            )
            self._state["pool"] = pool
        return pool

    def _abort_pool(self) -> None:
        """Kill the pool (hung or poisoned workers included) for a clean error."""
        pool = self._state["pool"]
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead workers
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        self._state["pool"] = None

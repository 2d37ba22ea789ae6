"""The metric tables, the library calls a traced run wraps, and their figures.

Every workload reports every metric of both tables; a layer a workload does
not exercise reads 0 calls.  A percentile with fewer than ten samples beyond
it is not reported: it reads 0 and the run names it under ``absent``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from perfbench.tracing import LayerStats, Target, Tracer, self_times, summarize

#: End-to-end metrics: (name, unit).  Every workload reports every one.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("cell_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("hr_at_10", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

#: Per-layer metrics: (name, unit) in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("import.total_s", "s"),
    ("data.load.total_s", "s"),
    ("data.split.total_s", "s"),
    ("data.public.total_s", "s"),
    ("data.store.total_s", "s"),
    ("federated.build.total_s", "s"),
    ("federated.train_round.calls", "count"),
    ("federated.train_round.total_s", "s"),
    ("federated.train_round.p50_ms", "ms"),
    ("federated.apply_round.calls", "count"),
    ("federated.apply_round.total_s", "s"),
    ("federated.run.self_s", "s"),
    ("attacks.on_round_start.calls", "count"),
    ("attacks.on_round_start.self_s", "s"),
    ("attacks.refresh.calls", "count"),
    ("attacks.refresh.total_s", "s"),
    ("attacks.refresh.first_s", "s"),
    ("attacks.refresh.p50_ms", "ms"),
    ("attacks.loss_grad.calls", "count"),
    ("attacks.loss_grad.total_s", "s"),
    ("attacks.loss_grad.p50_ms", "ms"),
    ("attacks.craft_update.calls", "count"),
    ("attacks.craft_update.total_s", "s"),
    ("attacks.er_at_10", "ratio"),
    ("metrics.evaluate.calls", "count"),
    ("metrics.evaluate.total_s", "s"),
    ("metrics.evaluate.p50_ms", "ms"),
    ("serving.top_k.calls", "count"),
    ("serving.top_k.total_s", "s"),
    ("serving.top_k.p50_ms", "ms"),
    ("serving.swap.calls", "count"),
    ("serving.swap.total_s", "s"),
    ("serving.memo_hit_ratio", "ratio"),
    ("serving.blocks_scored", "count"),
    ("serving.gen_late_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.layer_self_s", "s"),
    ("trace.glue_s", "s"),
    ("trace.overhead_cell_s", "s"),
    ("trace.overhead_ops_per_s", "1/s"),
)

#: Root span of one traced session; its self time is harness glue.
ROOT_SPAN = "cell"


def training_targets() -> list[Target]:
    """Library calls wrapped in a traced training session.

    The data steps are wrapped where ``run_experiment`` looks them up, in
    ``repro.experiments.runner``.
    """
    from repro.attacks import fedrecattack
    from repro.attacks.approximation import UserMatrixApproximator
    from repro.data.dataset import InteractionDataset
    from repro.experiments import runner
    from repro.federated import simulation
    from repro.federated.engine import BatchedRoundTrainer
    from repro.federated.server import Server
    from repro.metrics.topk_cache import TopKCache

    return [
        (runner, "load_dataset", "data.load"),
        (runner, "leave_one_out_split", "data.split"),
        (runner, "sample_public_interactions", "data.public"),
        (InteractionDataset, "interaction_store", "data.store"),
        (simulation.FederatedSimulation, "__init__", "federated.build"),
        (simulation.FederatedSimulation, "run", "federated.run"),
        (BatchedRoundTrainer, "train_round", "federated.train_round"),
        (Server, "apply_round", "federated.apply_round"),
        (fedrecattack.FedRecAttack, "on_round_start", "attacks.on_round_start"),
        (UserMatrixApproximator, "refresh", "attacks.refresh"),
        (fedrecattack, "attack_loss_and_gradient_vectorized", "attacks.loss_grad"),
        (fedrecattack.FedRecAttack, "craft_update", "attacks.craft_update"),
        (simulation, "evaluate_snapshot", "metrics.evaluate"),
        (TopKCache, "evaluate", "metrics.evaluate"),
    ]


def serving_targets() -> list[Target]:
    """Library calls wrapped in a traced server process."""
    from repro.serving.service import RecommenderService

    return [
        (RecommenderService, "top_k", "serving.top_k"),
        (RecommenderService, "swap_snapshot", "serving.swap"),
    ]


def layer_figures(summary: dict[str, LayerStats]) -> tuple[dict[str, float], list[str]]:
    """Figures for every ``<span>.<stat>`` metric, plus the names left absent."""
    figures: dict[str, float] = {}
    absent: list[str] = []
    for name, _ in PER_LAYER:
        span_name, _, stat = name.rpartition(".")
        if span_name in ("attacks", "serving", "trace"):
            continue
        stats = summary.get(span_name, LayerStats())
        value: Any = getattr(stats, stat)
        if value is None:
            absent.append(f"{name}: {stats.calls} samples, fewer than 10 beyond p50")
            value = 0.0
        figures[name] = float(value)
    return figures, absent


@dataclass
class Report:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, float]
    samples: dict[str, Any] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_figures(tracer: Tracer, wall_s: float) -> tuple[dict[str, float], list[str]]:
    """Every per-layer figure the parent's spans give, serving ones at 0.

    ``trace.layer_self_s + trace.glue_s`` accounts for ``trace.wall_s``: the
    glue is the self time of the root span, the harness code that runs
    outside every layer call.
    """
    figures, absent = layer_figures(summarize(tracer.spans))
    own = self_times(tracer.spans)
    glue = sum(own[span.span_id] for span in tracer.spans if span.name == ROOT_SPAN)
    figures.update({name: 0.0 for name, _ in PER_LAYER if name not in figures})
    figures["trace.wall_s"] = wall_s
    figures["trace.glue_s"] = glue / 1e9
    figures["trace.layer_self_s"] = (sum(own.values()) - glue) / 1e9
    return figures, absent

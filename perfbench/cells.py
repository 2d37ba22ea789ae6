"""The training workloads: the FedRecAttack paper cell and clean training.

A cell is one call of the program's own ``run_experiment`` — synthetic
dataset, leave-one-out split, public interactions, target item, attack,
federated simulation, final evaluation — timed from outside: set-up ends on
entry to ``FederatedSimulation.run`` and every ``Server.apply_round`` marks a
round.  Every switch keeps its library default.
"""

from __future__ import annotations

import contextlib
import gc
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any
from unittest import mock

from perfbench.layers import ROOT_SPAN, Report, peak_rss_mb, trace_figures, training_targets
from perfbench.stats import honest_percentile, median, tail
from perfbench.tracing import Tracer, instrument, record_calls

#: ER@10 ceiling of the target item under clean training.  The target is an
#: unpopular item and train-ml1m measures its ER@10 at 0.0 (seeds 0-3 and
#: 100-109), while the attacked cell reaches about 0.55, so an attack that
#: took effect lifts it clearly above this.
CLEAN_ER_AT_10 = 0.01

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class CellSpec:
    attack: str
    epochs: int
    evaluate_every: int | None


SPECS = {
    # Paper defaults: xi=0.01, rho=0.05, kappa=60, k=32, 256 clients/round.
    "attack-ml1m": CellSpec(attack="fedrecattack", epochs=1, evaluate_every=None),
    "train-ml1m": CellSpec(attack="none", epochs=8, evaluate_every=1),
}


@dataclass
class Cell:
    """One measured cell; times exclude ``import repro``."""

    setup_s: float
    run_s: float
    wall_s: float
    rounds: int
    round_ms: list[float]
    er_at_10: float
    hr_at_10: float
    problems: list[str] = field(default_factory=list)

    @property
    def rounds_per_s(self) -> float:
        return self.rounds / self.run_s


def _config(spec: CellSpec, seed: int, scale: float) -> Any:
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(
        dataset="ml-1m",
        scale=scale,
        attack=spec.attack,
        num_epochs=spec.epochs,
        evaluate_every=spec.evaluate_every,
        seed=seed,
    )


def _check(spec: CellSpec, result: Any) -> list[str]:
    problems = []
    clients = result.train.num_users + result.num_malicious
    expected_rounds = spec.epochs * math.ceil(clients / result.config.clients_per_round)
    if result.snapshot.version != expected_rounds:
        problems.append(f"{result.snapshot.version} rounds applied, expected {expected_rounds}")
    reported = {}
    if result.accuracy is not None:
        reported.update(result.accuracy.as_dict())
    if result.exposure is not None:
        reported.update(result.exposure.as_dict())
    if "HR@10" not in reported or "ER@10" not in reported:
        problems.append(f"final metrics incomplete: {sorted(reported)}")
    for name, value in reported.items():
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            problems.append(f"{name} = {value!r} is not a finite ratio")
    if spec.attack != "none" and not reported.get("ER@10", 0.0) > CLEAN_ER_AT_10:
        problems.append(
            f"ER@10 = {reported.get('ER@10')!r} is not above the clean level {CLEAN_ER_AT_10}"
        )
    return problems


def run_cell(workload: str, seed: int, scale: float, tracer: Tracer) -> Cell:
    """Run ``run_experiment`` on the workload's config, then check its outputs."""
    from repro.experiments.runner import run_experiment
    from repro.federated.server import Server
    from repro.federated.simulation import FederatedSimulation

    spec = SPECS[workload]
    runs: list[tuple[int, int]] = []
    rounds: list[tuple[int, int]] = []
    start = time.perf_counter_ns()
    with tracer.span(ROOT_SPAN):
        with record_calls(FederatedSimulation, "run", runs), record_calls(
            Server, "apply_round", rounds
        ):
            result = run_experiment(_config(spec, seed, scale))
        problems = _check(spec, result)
    end = time.perf_counter_ns()
    (run_start, run_end), = runs
    marks = [run_start] + [exited for _, exited in rounds]
    return Cell(
        setup_s=(run_start - start) / 1e9,
        run_s=(run_end - run_start) / 1e9,
        wall_s=(end - start) / 1e9,
        rounds=result.snapshot.version,
        round_ms=[(later - earlier) / 1e6 for earlier, later in zip(marks, marks[1:])],
        er_at_10=result.er_at_10,
        hr_at_10=result.hr_at_10,
        problems=problems,
    )


class _SetUpDone(Exception):
    """Raised on entry to ``FederatedSimulation.run`` to end a set-up-only run."""


def setup_only(workload: str, seed: int, scale: float) -> float:
    """Time ``run_experiment`` up to the entry to ``FederatedSimulation.run``, then stop it."""
    from repro.experiments.runner import run_experiment
    from repro.federated.simulation import FederatedSimulation

    start = time.perf_counter()
    with mock.patch.object(FederatedSimulation, "run", side_effect=_SetUpDone), contextlib.suppress(
        _SetUpDone
    ):
        run_experiment(_config(SPECS[workload], seed, scale))
    elapsed = time.perf_counter() - start
    gc.collect()
    return elapsed


def round_latency(intervals: list[float], absent: list[str]) -> tuple[float, dict[str, Any]]:
    """Median round interval, and the tail at the highest honest level."""
    p50 = honest_percentile(intervals, 50.0)
    if p50 is None:
        absent.append(f"p50_ms: {len(intervals)} round intervals, fewer than 10 beyond p50")
    tail_figures: dict[str, Any] = {"round_intervals": len(intervals)}
    try:
        level, value = tail(intervals)
        tail_figures.update({"tail_level": level, "tail_ms": value})
    except ValueError:
        pass
    return p50 or 0.0, tail_figures


def training_workload(workload: str, seed: int, scale: float, import_s: float) -> Report:
    """Untraced: one cell, then set-ups only until ``SETUP_SAMPLES`` are timed.

    One cell takes longer than the run length the benchmark asks for, so
    ``--seconds`` does not repeat it; the traced run checks determinism by
    comparing two cells bit for bit.
    """
    cell = run_cell(workload, seed, scale, Tracer())
    gc.collect()
    setups = [cell.setup_s]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_only(workload, seed, scale))
    failed = int(bool(cell.problems))
    absent: list[str] = []
    p50_ms, tail_figures = round_latency(cell.round_ms, absent)
    return Report(
        attempted=1,
        failed=failed,
        problems=cell.problems,
        metrics={
            "setup_s": import_s + median(setups),
            "cell_s": import_s + cell.wall_s,
            "ops_per_s": cell.rounds_per_s,
            "p50_ms": p50_ms,
            "hr_at_10": cell.hr_at_10,
            "peak_rss_mb": peak_rss_mb(),
            "ok_ratio": 1.0 - failed,
        },
        samples={
            "setups": len(setups),
            "setup_post_import_s": setups,
            "cell_post_import_s": cell.wall_s,
            **tail_figures,
            "rounds": cell.rounds,
            "er_at_10": cell.er_at_10,
            "hr_at_10": cell.hr_at_10,
        },
        absent=absent,
    )


def traced_training_workload(
    workload: str, seed: int, scale: float, import_ns: tuple[int, int], spans_path: Path
) -> Report:
    """An untraced cell, then the same cell traced; they must agree bit for bit."""
    baseline = run_cell(workload, seed, scale, Tracer())
    gc.collect()
    tracer = Tracer()
    tracer.add("import", *import_ns)
    with instrument(tracer, training_targets()):
        traced = run_cell(workload, seed, scale, tracer)
    tracer.write_jsonl(spans_path)
    changed = (traced.rounds, traced.er_at_10, traced.hr_at_10) != (
        baseline.rounds,
        baseline.er_at_10,
        baseline.hr_at_10,
    )
    problems = baseline.problems + traced.problems
    if changed:
        problems.append("tracing changed the final metrics")
    import_s = (import_ns[1] - import_ns[0]) / 1e9
    figures, absent = trace_figures(tracer, import_s + traced.wall_s)
    figures.update(
        {
            "attacks.er_at_10": traced.er_at_10,
            "trace.overhead_cell_s": traced.wall_s - baseline.wall_s,
            "trace.overhead_ops_per_s": traced.rounds_per_s - baseline.rounds_per_s,
        }
    )
    return Report(
        attempted=2,
        failed=int(bool(baseline.problems)) + int(bool(traced.problems) or changed),
        problems=problems,
        metrics=figures,
        samples={
            "untraced_cell_post_import_s": baseline.wall_s,
            "traced_cell_post_import_s": traced.wall_s,
            "er_at_10": [baseline.er_at_10, traced.er_at_10],
            "hr_at_10": [baseline.hr_at_10, traced.hr_at_10],
        },
        absent=absent,
    )

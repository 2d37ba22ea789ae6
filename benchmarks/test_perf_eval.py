"""Benchmark: evaluation throughput (engines, protocols and scoring paths).

Three measurements share this module:

* **Full-ranking engines** — one model snapshot evaluated end to end (HR@10,
  NDCG@10, ER@5, ER@10, target-NDCG@10) at the synthetic paper shapes
  (Table II) under the full-ranking protocol, ``engine="loop"`` (the
  per-user reference) against ``engine="vectorized"`` (stacked scoring,
  shared InteractionStore masks, partition-based top-K thresholds).  Both
  engines read identical score blocks, so the benchmark asserts every
  full-rank metric is **bit-identical** before trusting the timing.
  Gate: vectorized >= 5x loop at the ml-100k shape.
* **Sampled protocol** — the paper's sampled ranking protocol (1 positive +
  99 sampled negatives, one stacked draw and one blocked broadcast ranking
  per score block), reported without a gate.  Loop/vectorized agreement is
  asserted before timing.
* **Sampled-protocol scoring paths** — ``eval_path="block"`` (the full
  ``(B, num_items)`` catalog product, candidate columns gathered from it)
  against ``eval_path="candidates"`` (gathered candidate scoring through
  ``score_candidates`` — ``B * (1 + num_negatives)`` dot products, no
  catalog GEMM).  Both paths share the negative draw, so the measured cell
  keeps the draw lean (9 negatives, 512-user blocks) to expose the scoring
  route itself; the paper's 99-negative protocol is reported alongside
  without a gate (there the shared draw dominates both paths).  Metrics are
  asserted identical across paths *and* engines before timing.
  Gate: candidates >= 3x block at the ml-1m shape (measured ~4.8x).

Fast smoke variants (reduced repeats, lower thresholds for noisy shared CI
runners) run in the CI perf job via ``-k smoke``.  Results land in
``benchmarks/results/perf_eval.json`` / ``.txt``.
"""

from __future__ import annotations

import json
import time

import numpy as np

from conftest import RESULTS_DIR, run_once

from repro.data.presets import get_preset
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.metrics.evaluation import evaluate_snapshot
from repro.models.mf import MatrixFactorizationModel
from repro.rng import SeedSequenceFactory

NUM_FACTORS = 32
NUM_TARGETS = 10
MIN_SPEEDUP = 5.0
GATE_SHAPE = "ml-100k"

#: dataset shape -> interleaved best-of repeats.  The large shapes keep the
#: sweep informative without making it slow; the gate shape is measured the
#: most carefully.
SHAPES: dict[str, int] = {
    "ml-100k": 5,
    "ml-1m": 2,
    "steam-200k": 2,
}

#: The sampled ranking protocol's shapes (reported, not gated).
NUM_EVAL_NEGATIVES = 99
SAMPLED_SHAPES: dict[str, int] = {
    "ml-100k": 5,
    "ml-1m": 2,
}

#: The scoring-path gate: candidate gathers beat the catalog GEMM hardest
#: where the item catalog is large and the candidate sets (and hence the
#: shared draw cost) are small.  The gate cell keeps the draw lean so the
#: measurement isolates the scoring route; the 99-negative cell is reported
#: for context (the shared draw caps its ratio well below the gate).
PATH_SHAPE = "ml-1m"
PATH_GATE_NUM_NEGATIVES = 9
PATH_BLOCK_SIZE = 512
PATH_MIN_SPEEDUP = 3.0
PATH_REPEATS = 3


def _build_snapshot(name: str):
    """Synthetic dataset at the paper shape plus a random MF snapshot."""
    preset = get_preset(name)
    dataset = generate_synthetic_dataset(
        SyntheticConfig.from_preset(preset),
        SeedSequenceFactory(2022).generator(f"perf-eval-data-{name}"),
    )
    model = MatrixFactorizationModel(
        dataset.num_users, dataset.num_items, NUM_FACTORS, init_scale=1.0, rng=7
    )
    rng = SeedSequenceFactory(2022).generator(f"perf-eval-tests-{name}")
    test_items = rng.integers(0, dataset.num_items, size=dataset.num_users)
    target_items = np.argsort(dataset.item_popularity, kind="stable")[:NUM_TARGETS]
    target_items = np.ascontiguousarray(target_items, dtype=np.int64)
    dataset.interaction_store().masks  # build once, outside the timings
    return preset, dataset, model, test_items, target_items


def _evaluate(engine: str, dataset, score_block, test_items, target_items):
    return evaluate_snapshot(
        score_block,
        dataset,
        test_items=test_items,
        target_items=target_items,
        num_negatives=None,
        engine=engine,
    )


def _measure_shape(name: str, repeats: int) -> dict:
    preset, dataset, model, test_items, target_items = _build_snapshot(name)
    score_block = model.score_block  # id-based ScorerProtocol surface

    results = {
        engine: _evaluate(engine, dataset, score_block, test_items, target_items)
        for engine in ("loop", "vectorized")
    }
    assert results["loop"].accuracy == results["vectorized"].accuracy, (
        "full-rank HR/NDCG must be bit-identical between the engines"
    )
    assert results["loop"].exposure == results["vectorized"].exposure, (
        "full-rank ER/target-NDCG must be bit-identical between the engines"
    )

    best = {engine: float("inf") for engine in ("loop", "vectorized")}
    for _ in range(repeats):
        for engine in best:
            # Two consecutive runs per turn: the first re-warms the caches
            # the other engine's working set evicted, so the best-of tracks
            # each engine's steady state rather than the interleaving order.
            for _ in range(2):
                start = time.perf_counter()
                _evaluate(engine, dataset, score_block, test_items, target_items)
                best[engine] = min(best[engine], time.perf_counter() - start)
    loop_eps = 1.0 / best["loop"]
    vectorized_eps = 1.0 / best["vectorized"]
    return {
        "dataset": preset.name,
        "num_users": preset.num_users,
        "num_items": preset.num_items,
        "num_targets": NUM_TARGETS,
        "num_factors": NUM_FACTORS,
        "protocol": "full-rank",
        "loop_evals_per_sec": loop_eps,
        "vectorized_evals_per_sec": vectorized_eps,
        "speedup": vectorized_eps / loop_eps,
        "hr_at_10": results["loop"].accuracy.hr_at_10,
        "er_at_10": results["loop"].exposure.er_at_10,
    }


def _evaluate_sampled(engine: str, dataset, score_block, test_items):
    return evaluate_snapshot(
        score_block,
        dataset,
        test_items=test_items,
        num_negatives=NUM_EVAL_NEGATIVES,
        rng=np.random.default_rng(2022),
        engine=engine,
    )


def _measure_sampled_shape(name: str, repeats: int) -> dict:
    """Sampled-protocol throughput at one shape (vectorized engine).

    Correctness first: the loop oracle and the vectorized engine must report
    identical metrics from the shared seed — only then is the throughput
    measured (best-of, two runs per repeat like the full-rank sweep).
    """
    preset, dataset, model, test_items, _ = _build_snapshot(name)
    score_block = model.score_block
    per_engine = {
        engine: _evaluate_sampled(engine, dataset, score_block, test_items)
        for engine in ("loop", "vectorized")
    }
    assert per_engine["loop"].accuracy == per_engine["vectorized"].accuracy, (
        "sampled metrics must be identical across engines"
    )
    best = float("inf")
    for _ in range(repeats * 2):
        start = time.perf_counter()
        _evaluate_sampled("vectorized", dataset, score_block, test_items)
        best = min(best, time.perf_counter() - start)
    return {
        "dataset": preset.name,
        "num_users": preset.num_users,
        "num_items": preset.num_items,
        "num_factors": NUM_FACTORS,
        "protocol": f"sampled-{NUM_EVAL_NEGATIVES}",
        "evals_per_sec": 1.0 / best,
        "hr_at_10": per_engine["vectorized"].accuracy.hr_at_10,
    }


def _evaluate_path(
    eval_path: str, engine: str, dataset, model, test_items, num_negatives: int
):
    return evaluate_snapshot(
        model,  # protocol source: the candidates path dispatches natively
        dataset,
        test_items=test_items,
        num_negatives=num_negatives,
        rng=np.random.default_rng(2022),
        engine=engine,
        eval_path=eval_path,
        block_size=PATH_BLOCK_SIZE,
    )


def _measure_path_shape(name: str, repeats: int, num_negatives: int) -> dict:
    """Block-product vs candidate-gather scoring at one sampled shape.

    Correctness first, in both directions: for each path the loop oracle
    must agree with the vectorized engine, and across paths the metrics
    must be identical (the draws, their stream order and the rank
    comparisons are shared — only the arithmetic route differs).  Only then
    is throughput measured, vectorized engine, interleaved best-of.
    """
    preset, dataset, model, test_items, _ = _build_snapshot(name)
    results = {}
    for eval_path in ("block", "candidates"):
        per_engine = {
            engine: _evaluate_path(
                eval_path, engine, dataset, model, test_items, num_negatives
            )
            for engine in ("loop", "vectorized")
        }
        assert per_engine["loop"].accuracy == per_engine["vectorized"].accuracy, (
            f"sampled metrics must be identical across engines under the "
            f"{eval_path!r} path"
        )
        results[eval_path] = per_engine["vectorized"]
    assert results["block"].accuracy == results["candidates"].accuracy, (
        "the candidate-gather path must report the same sampled metrics as "
        "the block path before its timing means anything"
    )

    best = {eval_path: float("inf") for eval_path in ("block", "candidates")}
    for _ in range(repeats):
        for eval_path in best:
            for _ in range(2):
                start = time.perf_counter()
                _evaluate_path(
                    eval_path, "vectorized", dataset, model, test_items, num_negatives
                )
                best[eval_path] = min(best[eval_path], time.perf_counter() - start)
    block_eps = 1.0 / best["block"]
    candidates_eps = 1.0 / best["candidates"]
    return {
        "dataset": preset.name,
        "num_users": preset.num_users,
        "num_items": preset.num_items,
        "num_factors": NUM_FACTORS,
        "protocol": f"sampled-{num_negatives}",
        "block_size": PATH_BLOCK_SIZE,
        "block_evals_per_sec": block_eps,
        "candidates_evals_per_sec": candidates_eps,
        "speedup": candidates_eps / block_eps,
        "hr_at_10": results["block"].accuracy.hr_at_10,
    }


def test_perf_eval(benchmark, save_result):
    payload = run_once(
        benchmark,
        lambda: {
            "shapes": [
                _measure_shape(name, repeats) for name, repeats in SHAPES.items()
            ],
            "sampled_shapes": [
                _measure_sampled_shape(name, repeats)
                for name, repeats in SAMPLED_SHAPES.items()
            ],
            "path_shapes": [
                _measure_path_shape(PATH_SHAPE, PATH_REPEATS, PATH_GATE_NUM_NEGATIVES),
                _measure_path_shape(PATH_SHAPE, PATH_REPEATS, NUM_EVAL_NEGATIVES),
            ],
        },
    )

    (RESULTS_DIR / "perf_eval.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    lines = [
        "Evaluation-engine throughput (full-rank protocol, "
        f"{NUM_TARGETS} targets, k={NUM_FACTORS})",
    ]
    for shape in payload["shapes"]:
        lines += [
            f"{shape['dataset']} ({shape['num_users']} users / {shape['num_items']} items)",
            f"  loop engine:       {shape['loop_evals_per_sec']:8.2f} evals/sec",
            f"  vectorized engine: {shape['vectorized_evals_per_sec']:8.2f} evals/sec"
            f"  ({shape['speedup']:.2f}x)",
        ]
    lines += [
        "",
        "Sampled protocol (1 positive + "
        f"{NUM_EVAL_NEGATIVES} negatives, vectorized engine)",
    ]
    for shape in payload["sampled_shapes"]:
        lines += [
            f"{shape['dataset']} ({shape['num_users']} users / {shape['num_items']} items)",
            f"  {shape['evals_per_sec']:8.2f} evals/sec",
        ]
    lines += [
        "",
        "Sampled-protocol scoring paths "
        f"({PATH_BLOCK_SIZE}-user blocks, vectorized engine)",
    ]
    for shape in payload["path_shapes"]:
        lines += [
            f"{shape['dataset']} {shape['protocol']} "
            f"({shape['num_users']} users / {shape['num_items']} items)",
            f"  block path:      {shape['block_evals_per_sec']:8.2f} evals/sec",
            f"  candidates path: {shape['candidates_evals_per_sec']:8.2f} evals/sec"
            f"  ({shape['speedup']:.2f}x)",
        ]
    save_result("perf_eval", "\n".join(lines))

    gate = next(s for s in payload["shapes"] if s["dataset"] == GATE_SHAPE)
    assert gate["speedup"] >= MIN_SPEEDUP, (
        f"vectorized evaluation is only {gate['speedup']:.2f}x faster than the loop "
        f"oracle at the {GATE_SHAPE} shape (required: {MIN_SPEEDUP}x)"
    )
    path_gate = next(
        s
        for s in payload["path_shapes"]
        if s["protocol"] == f"sampled-{PATH_GATE_NUM_NEGATIVES}"
    )
    assert path_gate["speedup"] >= PATH_MIN_SPEEDUP, (
        f"the candidate-gather path is only {path_gate['speedup']:.2f}x faster than "
        f"the block path at the {PATH_SHAPE} shape (required: {PATH_MIN_SPEEDUP}x)"
    )


# --------------------------------------------------------------------------- #
# CI smoke gate
# --------------------------------------------------------------------------- #

SMOKE_MIN_SPEEDUP = 3.0


def test_perf_eval_smoke(benchmark):
    """Fast evaluation-engine regression gate (run by CI via ``-k smoke``).

    One interleaved pass at the ml-100k shape; the threshold is deliberately
    lower than the full benchmark's so shared CI runners do not flake, while
    a genuine loss of the vectorized speedup (>5x when healthy) still fails
    the build.  Bit-identity of the full-rank metrics is asserted inside the
    measurement helper.
    """
    payload = run_once(benchmark, lambda: _measure_shape(GATE_SHAPE, 2))
    assert payload["speedup"] >= SMOKE_MIN_SPEEDUP, (
        f"vectorized evaluation is only {payload['speedup']:.2f}x faster than the "
        f"loop oracle in the smoke measurement (required: {SMOKE_MIN_SPEEDUP}x)"
    )


PATH_SMOKE_MIN_SPEEDUP = 2.0


def test_perf_eval_path_smoke(benchmark):
    """Fast candidate-gather regression gate (run by CI via ``-k smoke``).

    One interleaved pass at the ml-1m gate cell (9 negatives, 512-user
    blocks); the full benchmark requires >= 3x there (measured ~4.8x when
    healthy), this CI variant lowers the bar for noisy shared runners but
    still fails if the gather path ever degenerates back into a catalog
    GEMM.  Cross-path and cross-engine metric identity is asserted inside
    the measurement helper.
    """
    payload = run_once(
        benchmark, lambda: _measure_path_shape(PATH_SHAPE, 1, PATH_GATE_NUM_NEGATIVES)
    )
    assert payload["speedup"] >= PATH_SMOKE_MIN_SPEEDUP, (
        f"the candidate-gather path is only {payload['speedup']:.2f}x faster than "
        f"the block path in the smoke measurement "
        f"(required: {PATH_SMOKE_MIN_SPEEDUP}x)"
    )

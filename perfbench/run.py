"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload attack-ml1m --seed 0 --seconds 20 --trace 0

Workloads: ``attack-ml1m``, ``train-ml1m`` and ``serve-ml1m`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics with
no wrapper inside the library; ``--trace 1`` runs the same session untraced
and then traced, and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  The run record and any spans are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("attack-ml1m", "train-ml1m", "serve-ml1m")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset scale; below 1.0 only for the harness self-tests",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.record import pin_blas_threads, pin_to_first_cpu

    pin_to_first_cpu()
    blas_threads = pin_blas_threads()
    import_start = time.perf_counter_ns()
    import repro  # noqa: F401  (timed: the first import of numpy and the package)

    import_ns = (import_start, time.perf_counter_ns())
    import_s = (import_ns[1] - import_ns[0]) / 1e9

    from perfbench import cells, serve
    from perfbench.layers import END_TO_END, PER_LAYER
    from perfbench.record import machine_record

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"{stem}-spans.jsonl"
    if args.workload == "serve-ml1m":
        if args.trace:
            report = serve.traced_serving_workload(
                args.seed, args.seconds, args.scale, import_ns, spans_path
            )
        else:
            report = serve.serving_workload(args.seed, args.seconds, args.scale, import_s)
    elif args.trace:
        report = cells.traced_training_workload(
            args.workload, args.seed, args.scale, import_ns, spans_path
        )
    else:
        report = cells.training_workload(args.workload, args.seed, args.scale, import_s)

    table = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": report.metrics[name], "unit": unit} for name, unit in table}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "machine": machine_record(ROOT, blas_threads),
        "attempted": report.attempted,
        "failed": report.failed,
        "problems": report.problems,
        "samples": report.samples,
        "absent": report.absent,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for problem in report.problems:
        print(f"check failed: {problem}")
    for note in report.absent:
        print(f"absent: {note}")
    print(f"samples: {json.dumps(report.samples)}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"record: {OUT / (stem + '.json')}")
    result = {
        "correct": not report.problems and report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The serving workload: HTTP load on a ``RecommenderService``.

Set-up trains a short clean ml-1m run through ``run_experiment`` and keeps
one ``FactorSnapshot`` per epoch, then starts ``build_http_server`` over a
default service in a child process (a plain ``subprocess``, so no helper
process such as multiprocessing's resource tracker outlives the run).  A
deployment publishes a new snapshot after every training epoch, so the child
swaps to the next snapshot once per epoch interval measured in set-up; each
swap drops every cache, so the reads after it score cold blocks.  This process sends ``GET /recommend?user=U``
with users drawn in proportion to their training interactions, so the most
active users hit the memo and the rest miss it: open loop on a seeded
Poisson schedule at a nominal rate, interleaved with closed-loop saturation
windows, then up a short ladder of rates.  Every open-loop request is timed
from its due time.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from multiprocessing.connection import Connection, Pipe
from typing import Any
from unittest import mock

from perfbench.cells import SETUP_SAMPLES
from perfbench.layers import (
    ROOT_SPAN,
    Report,
    layer_figures,
    peak_rss_mb,
    serving_targets,
    trace_figures,
    training_targets,
)
from perfbench.stats import (
    Outcome,
    backlog_grows,
    honest_percentile,
    median,
    sender_loop,
)
from perfbench.tracing import LayerStats, Tracer, instrument, summarize

#: Clean epochs trained in set-up; one snapshot is exported after each.
SNAPSHOT_EPOCHS = 3
#: (requests per second, seconds) of the open-loop nominal phase of each cycle.
#: The rate is about a sixth of the closed-loop rate, so the backlog while
#: cold blocks are scored after a swap stays short (see the README).
NOMINAL = (200.0, 2.0)
#: Closed-loop saturation windows that close each cycle: (count, seconds).
#: Their rates scatter widely from window to window, so ``ops_per_s`` is the
#: median over many.
SATURATION = (2, 1.0)
#: Seconds of the unmeasured closed-loop warm-up before the first cycle.
WARM_UP_S = 1.0
#: (requests per second, seconds) of the open-loop ladder after the cycles.
LADDER = ((800.0, 1.5), (1200.0, 1.5))
#: p99 latency a rung must meet to count as sustained.
LIMIT_MS = 50.0
#: How much further behind (median lateness, last vs first quarter) a rung may fall.
BACKLOG_SLACK_S = 0.005
#: Responses compared against the numpy oracle per session.
ORACLE_SAMPLE = 300
#: Seconds a request, a server start or a server stop may take.
TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Plan:
    """How long each phase of a session lasts; the cycles fill ``--seconds``."""

    cycles: int
    stretch: float

    @classmethod
    def for_seconds(cls, seconds: float) -> "Plan":
        cycle_s = NOMINAL[1] + SATURATION[0] * SATURATION[1]
        return cls(max(1, round(seconds / cycle_s)), min(1.0, seconds / cycle_s))


@dataclass
class Model:
    """The set-up's output: snapshots as (U, V, version), the masking data,
    HR@10 of the last snapshot and the wall time of each training epoch."""

    snapshots: list[tuple[Any, Any, int]]
    train: Any
    hr_at_10: float
    epoch_s: list[float]

    @property
    def swap_every_s(self) -> float:
        return median(self.epoch_s)


def train_snapshots(seed: int, scale: float) -> Model:
    """Train ``SNAPSHOT_EPOCHS`` clean epochs with ``run_experiment``, keeping each epoch's factors.

    ``run_experiment`` trains with one ``FederatedSimulation.run`` call; here
    that call runs one epoch at a time (each ``run(1)`` continues where the
    last one stopped) and each epoch is timed.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment
    from repro.federated.simulation import FederatedSimulation

    config = ExperimentConfig(
        dataset="ml-1m",
        scale=scale,
        attack="none",
        num_epochs=SNAPSHOT_EPOCHS,
        evaluate_every=1,
        seed=seed,
    )
    run = FederatedSimulation.run
    snapshots: list[tuple[Any, Any, int]] = []
    epoch_s: list[float] = []

    def by_epoch(simulation: Any, num_epochs: int) -> Any:
        for _ in range(num_epochs):
            start = time.perf_counter()
            outcome = run(simulation, 1)
            epoch_s.append(time.perf_counter() - start)
            snapshots.append((outcome.user_factors, outcome.item_factors, outcome.rounds_applied))
        return outcome

    with mock.patch.object(FederatedSimulation, "run", by_epoch):
        result = run_experiment(config)
    return Model(snapshots, result.train, result.hr_at_10, epoch_s)


# --------------------------------------------------------------------------- #
# The server process
# --------------------------------------------------------------------------- #
def server_main(
    conn: Any, model: Model, trace: bool, spans_path: Path | None
) -> None:
    """Serve ``model`` until told to stop, swapping snapshots while load runs.

    Protocol on ``conn``: send ``("ready", port)``, swap to the next
    snapshot every ``model.swap_every_s`` seconds until ``"stop"`` arrives,
    then send the summary back.
    """
    from repro.serving.http import build_http_server
    from repro.serving.service import RecommenderService
    from repro.serving.snapshot import FactorSnapshot

    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        if trace:
            stack.enter_context(instrument(tracer, serving_targets()))
        snapshots = [
            FactorSnapshot(user_factors=users, item_factors=items, version=version)
            for users, items, version in model.snapshots
        ]
        current = len(snapshots) - 1
        service = RecommenderService(snapshots[current], model.train)
        server = build_http_server(service)
        serving = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
        serving.start()
        try:
            conn.send(("ready", server.server_address[1]))
            while not conn.poll(model.swap_every_s):
                current = (current + 1) % len(snapshots)
                service.swap_snapshot(snapshots[current])
            if (command := conn.recv()) != "stop":
                raise RuntimeError(f"the server was sent {command!r} instead of 'stop'")
        finally:
            server.shutdown()
            serving.join()
            server.server_close()
    if spans_path is not None:
        tracer.write_jsonl(spans_path)
    conn.send(
        {
            "stats": service.stats(),
            "peak_rss_mb": peak_rss_mb(),
            "layers": summarize(tracer.spans),
        }
    )
    conn.close()


def child_main(fd: int) -> None:
    """Entry point of the server child: read its arguments from ``fd``, then serve."""
    conn = Connection(fd)
    model, trace, spans_path = conn.recv()
    server_main(conn, model, trace, spans_path)


class ServerHandle:
    """A started server child: its port, how long it took to accept, its pipe.

    The child is a ``subprocess.Popen`` of this interpreter; ``stop`` and
    ``kill`` wait for it to end.  Should this process die first, the child
    reads end-of-file on its pipe and exits.
    """

    def __init__(self, model: Model, trace: bool, spans_path: Path | None) -> None:
        root = Path(__file__).resolve().parent.parent
        self.conn, child_conn = Pipe()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root), str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        fd = child_conn.fileno()
        code = "import sys; from perfbench.serve import child_main; child_main(int(sys.argv[1]))"
        started = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-c", code, str(fd)], pass_fds=(fd,), cwd=root, env=env
            )
        finally:
            child_conn.close()
        try:
            self.conn.send((model, trace, spans_path))
            if not self.conn.poll(TIMEOUT_S):
                raise RuntimeError("the server did not start in time")
            status, self.port = self.conn.recv()
            if status != "ready":
                raise RuntimeError(f"the server sent {status!r} instead of 'ready'")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def stop(self) -> dict[str, Any]:
        try:
            self.conn.send("stop")
            if not self.conn.poll(TIMEOUT_S):
                raise RuntimeError("the server did not report on stop")
            summary: dict[str, Any] = self.conn.recv()
        finally:
            self.kill(grace_s=TIMEOUT_S)
        return summary

    def kill(self, grace_s: float = 0.0) -> None:
        """Wait up to ``grace_s`` for the child to exit, then end it; always reap it."""
        self.conn.close()
        try:
            self.process.wait(grace_s)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


# --------------------------------------------------------------------------- #
# The load generator
# --------------------------------------------------------------------------- #
def fetch(port: int, user: int) -> tuple[bool, Any]:
    """One ``GET /recommend`` on a fresh connection; the body on a 200."""
    request = f"GET /recommend?user={user} HTTP/1.0\r\nHost: localhost\r\n\r\n".encode()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S) as sock:
            sock.sendall(request)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
    except OSError as error:
        return False, f"{type(error).__name__}: {error}"
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = head.split(b" ", 2)[1:2]
    if status != [b"200"]:
        return False, f"status {status[0].decode() if status else 'missing'}"
    return True, body


@dataclass
class Rung:
    rate: float
    users: Any
    outcomes: list[Outcome]

    @property
    def latencies_ms(self) -> list[float]:
        return [outcome.latency * 1e3 for outcome in self.outcomes]

    @property
    def achieved_per_s(self) -> float:
        start = min(outcome.due for outcome in self.outcomes)
        return len(self.outcomes) / (max(outcome.done for outcome in self.outcomes) - start)

    def meets_limit(self) -> bool:
        p99 = honest_percentile(self.latencies_ms, 99.0)
        return (
            all(outcome.ok for outcome in self.outcomes)
            and p99 is not None
            and p99 <= LIMIT_MS
            and not backlog_grows(self.outcomes, BACKLOG_SLACK_S)
        )


def run_rung(port: int, rate: float, users: Any, rng: Any, closed_s: float = 0.0) -> Rung:
    """Offer ``users`` at ``rate`` per second on a seeded Poisson schedule.

    One sender on one connection at a time: a request that falls due while
    the previous one is still out is sent late, and both its lateness and its
    latency count from its due time.  With ``closed_s`` the sender instead
    sends back to back for that many seconds (a closed loop; every request is
    due when it is taken).
    """
    start = time.perf_counter() + 0.05
    if closed_s:
        due, until = None, start + closed_s
    else:
        due = (start + rng.exponential(1.0 / rate, size=len(users)).cumsum()).tolist()
        until = math.inf
    outcomes = sender_loop(
        len(users),
        due,
        lambda index: fetch(port, int(users[index])),
        time.perf_counter,
        time.sleep,
        until,
    )
    return Rung(rate, users, outcomes)


def request_users(train: Any, count: int, rng: Any) -> Any:
    """Draw ``count`` users, each in proportion to their training interactions."""
    degrees = train.user_degrees()
    return rng.choice(train.num_users, size=count, p=degrees / degrees.sum())


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def response_problem(body: Any, user: int, model: Model, versions: dict[int, int]) -> str | None:
    """Why a 200 response is malformed, or ``None``."""
    try:
        payload = json.loads(body)
        items, scores = payload["items"], payload["scores"]
        version = payload["snapshot_version"]
        answered = payload["user"]
    except (ValueError, KeyError, TypeError) as error:
        return f"user {user}: unreadable response ({error})"
    if answered != user or version not in versions or len(items) != len(scores):
        return f"user {user}: response names user {answered}, version {version}"
    if len(items) != min(10, model.train.num_items):
        return f"user {user}: {len(items)} items"
    return None


def oracle_problem(body: Any, user: int, model: Model, versions: dict[int, int]) -> str | None:
    """Compare a response with the top-K of ``U[u] @ V.T`` with train positives masked.

    Float summation order may differ between the server's block product and
    this row product, so scores agree to a relative 1e-9 and near-ties at
    the K-th place may order either way.
    """
    import numpy as np

    payload = json.loads(body)
    users, items_matrix, _ = model.snapshots[versions[payload["snapshot_version"]]]
    scores = items_matrix @ users[user]
    scores[model.train.positive_items(user)] = -np.inf
    items = np.asarray(payload["items"], dtype=np.int64)
    got = np.asarray(payload["scores"], dtype=np.float64)
    expected = np.argsort(-scores, kind="stable")[: items.shape[0]]
    if np.array_equal(items, expected):
        return None
    tolerance = 1e-9 * (1.0 + np.abs(scores[expected]).max())
    others = np.delete(scores, items)
    if (
        np.isfinite(scores[items]).all()
        and np.allclose(got, scores[items], rtol=0.0, atol=tolerance)
        and (np.diff(got) <= tolerance).all()
        and got[-1] >= others.max() - tolerance
    ):
        return None
    return f"user {user}: items {items.tolist()} differ from the oracle's {expected.tolist()}"


# --------------------------------------------------------------------------- #
# Sessions
# --------------------------------------------------------------------------- #
@dataclass
class Session:
    prepare_s: float
    server_setup_s: list[float]
    session_s: float
    nominal: list[Rung]
    saturation: list[Rung]
    ladder: list[Rung]
    server: dict[str, Any]
    model: Model
    problems: list[str]
    checked: int

    @property
    def rungs(self) -> list[Rung]:
        return [*self.nominal, *self.saturation, *self.ladder]

    @property
    def nominal_latencies_ms(self) -> list[float]:
        return [ms for rung in self.nominal for ms in rung.latencies_ms]

    @property
    def saturation_per_s(self) -> float:
        return median([rung.achieved_per_s for rung in self.saturation])

    @property
    def attempted(self) -> int:
        return sum(len(rung.outcomes) for rung in self.rungs)

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def setup_s(self) -> float:
        return self.prepare_s + median(self.server_setup_s)

    @property
    def sustained_rate(self) -> float:
        """Highest ladder rate that, with the nominal rate and every rung below, meets the limit."""
        nominal = Rung(NOMINAL[0], None, [o for rung in self.nominal for o in rung.outcomes])
        best = 0.0
        for rung in (nominal, *self.ladder):
            if not rung.meets_limit():
                break
            best = rung.rate
        return best


def offer_load(handle: ServerHandle, train: Any, rng: Any, plan: Plan) -> list[list[Rung]]:
    """The session's load: warm-up, nominal/saturation cycles, then the ladder.

    Interleaving the nominal phases with the saturation windows spreads both
    over the whole session, so a slow spell of the machine and the snapshot
    swaps weigh on them alike.
    """

    def phase(rate: float, seconds: float) -> Rung:
        seconds *= plan.stretch
        if rate:
            return run_rung(handle.port, rate, request_users(train, int(rate * seconds), rng), rng)
        users = request_users(train, 20_000, rng)
        return run_rung(handle.port, 0.0, users, rng, closed_s=seconds)

    phase(0.0, WARM_UP_S)
    nominal, saturation = [], []
    windows, window_s = SATURATION
    for _ in range(plan.cycles):
        nominal.append(phase(*NOMINAL))
        saturation += [phase(0.0, window_s) for _ in range(windows)]
    ladder = [phase(rate, seconds) for rate, seconds in LADDER]
    return [nominal, saturation, ladder]


def check_responses(rungs: list[Rung], model: Model, rng: Any) -> tuple[list[str], int]:
    """Check every answer's shape and a seeded sample against the oracle."""
    versions = {version: index for index, (_, _, version) in enumerate(model.snapshots)}
    problems = []
    answered = [
        (outcome, int(rung.users[outcome.index])) for rung in rungs for outcome in rung.outcomes
    ]
    for outcome, user in answered:
        problem = (
            response_problem(outcome.payload, user, model, versions)
            if outcome.ok
            else f"user {user}: {outcome.payload}"
        )
        if problem is not None:
            problems.append(problem)
            outcome.ok = False
    sample = rng.choice(len(answered), size=min(ORACLE_SAMPLE, len(answered)), replace=False)
    for index in sample.tolist():
        outcome, user = answered[index]
        if outcome.ok and (problem := oracle_problem(outcome.payload, user, model, versions)):
            problems.append(problem)
    return problems, len(sample)


def run_session(
    seed: int,
    scale: float,
    plan: Plan,
    tracer: Tracer,
    starts: int,
    trace_server: bool = False,
    spans_path: Path | None = None,
) -> Session:
    """Set up (``starts`` server starts), offer the load, check the answers."""
    import numpy as np

    began = time.perf_counter()
    with tracer.span(ROOT_SPAN):
        model = train_snapshots(seed, scale)
        prepare_s = time.perf_counter() - began
        server_setup_s = []
        for _ in range(starts - 1):
            handle = ServerHandle(model, False, None)
            server_setup_s.append(handle.setup_s)
            handle.stop()
        handle = ServerHandle(model, trace_server, spans_path)
        server_setup_s.append(handle.setup_s)
        session_start = time.perf_counter()
        rng = np.random.default_rng([seed, 0x5E7E])
        try:
            gc.collect()
            gc.freeze()
            gc.disable()
            nominal, saturation, ladder = offer_load(handle, model.train, rng, plan)
        except BaseException:
            handle.kill()
            raise
        finally:
            gc.enable()
            gc.unfreeze()
        server = handle.stop()
        problems, checked = check_responses([*nominal, *saturation, *ladder], model, rng)
        session_s = time.perf_counter() - session_start
    return Session(
        prepare_s=prepare_s,
        server_setup_s=server_setup_s,
        session_s=session_s,
        nominal=nominal,
        saturation=saturation,
        ladder=ladder,
        server=server,
        model=model,
        problems=problems,
        checked=checked,
    )


def _latency(session: Session, absent: list[str]) -> tuple[float, dict[str, Any]]:
    """The p50 and p99 of every nominal-phase request pooled.

    The swaps fall at the epoch cadence, not at phase starts, so one phase
    may hold one swap and the next two; pooling the phases averages that out.
    The p99 is reported but not gated: on a shared two-CPU machine it moves
    by more than any bound a benchmark could hold.
    """
    pooled = session.nominal_latencies_ms
    p50 = honest_percentile(pooled, 50.0)
    if p50 is None:
        absent.append(f"p50_ms: {len(pooled)} nominal requests, fewer than 10 beyond p50")
    return p50 or 0.0, {
        "nominal_requests": len(pooled),
        "nominal_p99_ms": honest_percentile(pooled, 99.0),
        "nominal_p50_by_phase_ms": [
            honest_percentile(rung.latencies_ms, 50.0) for rung in session.nominal
        ],
    }


def _rung_samples(session: Session) -> list[dict[str, Any]]:
    return [
        {
            "rate": rung.rate or "closed loop",
            "requests": len(rung.outcomes),
            "achieved_per_s": rung.achieved_per_s,
            "p50_ms": honest_percentile(rung.latencies_ms, 50.0),
            "p90_ms": honest_percentile(rung.latencies_ms, 90.0),
            "p95_ms": honest_percentile(rung.latencies_ms, 95.0),
            "p99_ms": honest_percentile(rung.latencies_ms, 99.0),
            "late_p99_ms": honest_percentile(
                [outcome.lateness * 1e3 for outcome in rung.outcomes], 99.0
            ),
            "backlog_grows": backlog_grows(rung.outcomes, BACKLOG_SLACK_S),
            "meets_limit": rung.meets_limit(),
        }
        for rung in session.rungs
    ]


def serving_workload(seed: int, seconds: float, scale: float, import_s: float) -> Report:
    """Untraced: one session with ``SETUP_SAMPLES`` server starts."""
    session = run_session(seed, scale, Plan.for_seconds(seconds), Tracer(), starts=SETUP_SAMPLES)
    absent: list[str] = []
    p50_ms, latency = _latency(session, absent)
    setup_s = import_s + session.setup_s
    return Report(
        attempted=session.attempted,
        failed=session.failed,
        problems=session.problems[:20],
        metrics={
            "setup_s": setup_s,
            "cell_s": setup_s + session.session_s,
            "ops_per_s": session.saturation_per_s,
            "p50_ms": p50_ms,
            "hr_at_10": session.model.hr_at_10,
            "peak_rss_mb": session.server["peak_rss_mb"],
            "ok_ratio": 1.0 - session.failed / session.attempted,
        },
        samples={
            "prepare_s": session.prepare_s,
            "epoch_s": session.model.epoch_s,
            "swap_every_s": session.model.swap_every_s,
            "server_setup_s": session.server_setup_s,
            "session_s": session.session_s,
            **latency,
            "limit_ms": LIMIT_MS,
            "sustained_rate": session.sustained_rate,
            "oracle_checked": session.checked,
            "rungs": _rung_samples(session),
            "server_stats": session.server["stats"],
            "client_peak_rss_mb": peak_rss_mb(),
        },
        absent=absent,
    )


def traced_serving_workload(
    seed: int, seconds: float, scale: float, import_ns: tuple[int, int], spans_path: Path
) -> Report:
    """An untraced session, then the same session traced in both processes."""
    import numpy as np

    plan = Plan.for_seconds(seconds)
    baseline = run_session(seed, scale, plan, Tracer(), starts=1)
    gc.collect()
    tracer = Tracer()
    tracer.add("import", *import_ns)
    server_spans = spans_path.with_name(spans_path.name.replace("-spans", "-server-spans"))
    with instrument(tracer, training_targets()):
        traced = run_session(
            seed, scale, plan, tracer, 1, trace_server=True, spans_path=server_spans
        )
    tracer.write_jsonl(spans_path)
    problems = baseline.problems + traced.problems
    same_model = baseline.model.hr_at_10 == traced.model.hr_at_10 and all(
        np.array_equal(a, b)
        for old, new in zip(baseline.model.snapshots, traced.model.snapshots)
        for a, b in zip(old, new)
    )
    if not same_model:
        problems.append("tracing changed the trained snapshots")
    import_s = (import_ns[1] - import_ns[0]) / 1e9
    cell = traced.setup_s + traced.session_s
    figures, absent = trace_figures(tracer, import_s + cell)
    server_layers: dict[str, LayerStats] = traced.server["layers"]
    serving, serving_absent = layer_figures(server_layers)
    stats = traced.server["stats"]
    lateness = [o.lateness * 1e3 for rung in traced.nominal for o in rung.outcomes]
    figures.update({name: value for name, value in serving.items() if name.startswith("serving.")})
    figures.update(
        {
            "serving.memo_hit_ratio": stats["memo_hits"] / max(1, stats["queries"]),
            "serving.blocks_scored": float(stats["blocks_scored"]),
            "serving.gen_late_ms": honest_percentile(lateness, 99.0) or 0.0,
            "trace.overhead_cell_s": cell - (baseline.setup_s + baseline.session_s),
            "trace.overhead_ops_per_s": traced.saturation_per_s - baseline.saturation_per_s,
        }
    )
    absent = [note for note in absent if not note.startswith("serving.")]
    absent += [note for note in serving_absent if note.startswith("serving.")]
    return Report(
        attempted=baseline.attempted + traced.attempted,
        failed=baseline.failed + traced.failed,
        problems=problems[:20],
        metrics=figures,
        samples={
            "untraced_rungs": _rung_samples(baseline),
            "traced_rungs": _rung_samples(traced),
            "server_stats": stats,
        },
        absent=absent,
    )

"""Per-report overhead: shared-memory transport vs the old Manager-dict path,
and the metrics plane's cost on the event hot path.

Before the event-driven control plane, a process-backend worker paid two
cross-process costs on every ``trial.report(...)``: a ``multiprocessing``
queue put for the report itself and a ``Manager``-dict proxy lookup (one RPC
round trip) to check for a kill signal.  The shared-memory
:class:`~repro.automl.transport.TelemetryTransport` replaces both with a
lock-guarded ring write plus a single shared-array read.

The first benchmark reproduces the old path inline (a Manager dict +
``mp.Queue``, exactly the PR 3 wiring) and races it against the transport:
one worker process emits ``N_REPORTS`` report-plus-kill-check pairs while the
parent concurrently drains, which is the real serving topology.  The
acceptance bar is a >= 2x reports/sec advantage for the shared-memory path;
in practice the gap is far larger because the Manager RPC dominates.

The second benchmark gates the observability plane itself: it pushes
chunks of events through the real serving pipeline (bus publish →
durable log append → subscriber callback), alternating the metrics
registry between live and its ``set_enabled(False)`` kill switch from
chunk to chunk *within one process and one pipeline*, and fails if
instrumentation costs more than ``MAX_METRICS_OVERHEAD`` of throughput.
The paired design is deliberate: per-process memory layout and warm-up
effects on this path are the same order as the effect being measured, so
timing the two modes in separate processes (or even separate long blocks)
measures the layout, not the instrumentation.  Adjacent chunks share
layout, caches and (almost always) the same scheduling weather; comparing
low quantiles of the two per-mode chunk populations then cancels what the
modes share and keeps what they don't.  Scheduling noise is one-sided —
it only ever inflates a chunk — so a measurement attempt can bound the
true cost but never hide a real, evenly-paid regression; a failing
attempt is retried up to ``METRICS_ATTEMPTS`` times before the gate
fails.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import tempfile
import time

from common import save_result

from repro.automl import metrics
from repro.automl.eventlog import EventLog
from repro.automl.events import EventBus, TrialReport
from repro.automl.transport import TelemetryTransport
from repro.experiments import format_table

N_REPORTS = 20_000
REQUIRED_SPEEDUP = 2.0

EVENTS_PER_CHUNK = 1000
CHUNKS_PER_MODE = 40
QUANTILE_CHUNKS = 10  # mean of the 10 fastest chunks per mode (~p25)
MAX_METRICS_OVERHEAD = 0.05
METRICS_ATTEMPTS = 3


# --------------------------------------------------------------------------- #
# Old path: mp.Queue uplink + Manager-dict kill map (the PR 3 wiring)
# --------------------------------------------------------------------------- #
def _manager_worker(uplink, kills, n_reports, done):
    for step in range(n_reports):
        uplink.put((0, step, 0.5))
        kills.get(0)  # one proxy RPC per report, exactly as the old hook did
    done.put(True)


def _run_manager_path(n_reports):
    ctx = multiprocessing.get_context()
    with ctx.Manager() as manager:
        kills = manager.dict()
        uplink = ctx.Queue()
        done = ctx.Queue()
        worker = ctx.Process(target=_manager_worker,
                             args=(uplink, kills, n_reports, done))
        start = time.perf_counter()
        worker.start()
        drained = 0
        while drained < n_reports:
            try:
                uplink.get(timeout=60.0)
                drained += 1
            except queue_module.Empty:  # pragma: no cover - hung benchmark
                break
        done.get(timeout=60.0)
        elapsed = time.perf_counter() - start
        worker.join(timeout=60.0)
        uplink.cancel_join_thread()
        uplink.close()
    return elapsed, drained


# --------------------------------------------------------------------------- #
# New path: shared-memory ring + kill-flag read
# --------------------------------------------------------------------------- #
def _transport_worker(transport, slot, n_reports, done):
    for step in range(n_reports):
        transport.push(0, step, 0.5)
        transport.kill_reason(slot)  # one shared-array read per report
    done.put(True)


def _run_transport_path(n_reports):
    ctx = multiprocessing.get_context()
    transport = TelemetryTransport(ctx=ctx)
    slot = transport.allocate_kill_slot()
    done = ctx.Queue()
    worker = ctx.Process(target=_transport_worker,
                         args=(transport, slot, n_reports, done))
    start = time.perf_counter()
    worker.start()
    drained = 0
    deadline = time.monotonic() + 60.0
    while (drained + transport.dropped < n_reports
           and time.monotonic() < deadline):
        records = transport.drain()
        if records:
            drained += len(records)
        else:
            transport.wait(0.005)
    done.get(timeout=60.0)
    elapsed = time.perf_counter() - start
    worker.join(timeout=60.0)
    # A record shed to ring overflow (the parent briefly descheduled on a
    # loaded box) was still pushed — intended degraded-mode behaviour, and
    # part of the worker's measured report work either way.
    return elapsed, drained + transport.dropped, transport.dropped


def test_shared_memory_transport_beats_manager_dict_path():
    manager_elapsed, manager_drained = _run_manager_path(N_REPORTS)
    transport_elapsed, transport_pushed, dropped = _run_transport_path(N_REPORTS)

    assert manager_drained == N_REPORTS, "old path lost reports"
    assert transport_pushed == N_REPORTS, "new path lost reports"

    manager_rps = N_REPORTS / manager_elapsed
    transport_rps = N_REPORTS / transport_elapsed
    speedup = transport_rps / manager_rps

    rows = [
        {"path": "Manager dict + mp.Queue (old)",
         "reports": N_REPORTS,
         "seconds": round(manager_elapsed, 3),
         "reports_per_sec": int(manager_rps)},
        {"path": "shared-memory transport (new)",
         "reports": (N_REPORTS if not dropped
                     else f"{N_REPORTS} ({dropped} shed)"),
         "seconds": round(transport_elapsed, 3),
         "reports_per_sec": int(transport_rps)},
        {"path": "speedup",
         "reports": "",
         "seconds": "",
         "reports_per_sec": f"{speedup:.1f}x"},
    ]
    text = format_table(
        rows, title=("one worker process emitting report+kill-check pairs, "
                     "parent draining concurrently"))
    save_result("telemetry_overhead", text)

    assert speedup >= REQUIRED_SPEEDUP, (
        f"shared-memory transport only {speedup:.2f}x over the Manager-dict "
        f"path (required >= {REQUIRED_SPEEDUP}x)")


# --------------------------------------------------------------------------- #
# Metrics plane: instrumented vs kill-switched event pipeline
# --------------------------------------------------------------------------- #
def _timed_chunk(bus, base_step, enabled):
    """Time one chunk of events through the pipeline under one registry mode.

    The pipeline is the exact wiring :class:`AntTuneServer` uses per job — a
    durable :class:`EventLog` callback plus a consumer callback on the same
    bus — so every instrumented site on the path (publish histogram, drop
    counters, append/fsync/rotation histograms) is exercised per event.
    """
    metrics.set_enabled(enabled)
    try:
        start = time.perf_counter()
        for step in range(base_step, base_step + EVENTS_PER_CHUNK):
            bus.publish(TrialReport(trial_id=0, step=step, value=0.5, job_id=7))
        return time.perf_counter() - start
    finally:
        metrics.set_enabled(True)


def _measure_overhead(root):
    """One attempt: paired alternating chunks, low-quantile mode comparison.

    The log is the production one: every append flushes to the OS, and an
    fsync falls due at most once per ``FSYNC_INTERVAL`` (1 s), so the few
    chunks that pay one drop out of the fastest-chunk quantile and the
    comparison measures code, not the disk's sync jitter.  Chunk pairs
    alternate which mode goes first so a machine-wide slowdown cannot
    systematically tax one mode.
    """
    log = EventLog(root)
    seen = []
    bus = EventBus()
    bus.subscribe(7, callback=log.append)
    bus.subscribe(7, callback=seen.append)
    step = 0
    for _ in range(2):  # warm-up both modes: first-touch pages, warm caches
        _timed_chunk(bus, step, enabled=True)
        step += EVENTS_PER_CHUNK
        _timed_chunk(bus, step, enabled=False)
        step += EVENTS_PER_CHUNK
    enabled_times, disabled_times = [], []
    for pair in range(CHUNKS_PER_MODE):
        first_enabled = bool(pair % 2)
        for enabled in (first_enabled, not first_enabled):
            elapsed = _timed_chunk(bus, step, enabled)
            step += EVENTS_PER_CHUNK
            (enabled_times if enabled else disabled_times).append(elapsed)
    log.close()
    assert len(seen) == step, "pipeline lost events"
    enabled_times.sort()
    disabled_times.sort()
    enabled_q = sum(enabled_times[:QUANTILE_CHUNKS]) / QUANTILE_CHUNKS
    disabled_q = sum(disabled_times[:QUANTILE_CHUNKS]) / QUANTILE_CHUNKS
    return enabled_q, disabled_q


def test_metrics_instrumentation_costs_under_five_percent():
    for attempt in range(1, METRICS_ATTEMPTS + 1):
        with tempfile.TemporaryDirectory(prefix="bench_metrics_") as root:
            enabled_q, disabled_q = _measure_overhead(root)
        overhead = max(0.0, enabled_q / disabled_q - 1.0)
        if overhead <= MAX_METRICS_OVERHEAD:
            break

    disabled_eps = EVENTS_PER_CHUNK / disabled_q
    enabled_eps = EVENTS_PER_CHUNK / enabled_q
    rows = [
        {"mode": "registry disabled (set_enabled False)",
         "us_per_event": round(disabled_q / EVENTS_PER_CHUNK * 1e6, 2),
         "events_per_sec": int(disabled_eps)},
        {"mode": "registry enabled (instrumented)",
         "us_per_event": round(enabled_q / EVENTS_PER_CHUNK * 1e6, 2),
         "events_per_sec": int(enabled_eps)},
        {"mode": "instrumentation overhead",
         "us_per_event": "",
         "events_per_sec": f"{overhead * 100.0:.1f}%"},
    ]
    text = format_table(
        rows, title=(f"bus publish + durable append + subscriber; mean of the "
                     f"{QUANTILE_CHUNKS} fastest of {CHUNKS_PER_MODE} "
                     f"alternating {EVENTS_PER_CHUNK}-event chunks per mode, "
                     f"attempt {attempt}"))
    save_result("metrics_overhead", text)

    assert overhead <= MAX_METRICS_OVERHEAD, (
        f"metrics instrumentation costs {overhead * 100.0:.1f}% of event "
        f"throughput (allowed <= {MAX_METRICS_OVERHEAD * 100.0:.0f}%)")

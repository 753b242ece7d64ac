"""Per-layer numbers of the tune-service workload.

Two sources: the spans the traced backends, router and SDK client wrote
(see ``tracer.py``), and one read of each server's own ``/v1/metrics``
after the traced window (the edge's flush batches, loop lag, HTTP submit
latency and live-queue drops are instrumented there already).
"""

from __future__ import annotations

import re
import urllib.request
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.common import quantile
from perfbench.tracer import Trace

_LINE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')

Parsed = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]


def parse(text: str) -> Parsed:
    """Prometheus text exposition -> {(name, sorted labels): value}."""
    out: Parsed = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        match = _LINE.match(line)
        if match is None:
            continue
        labels = tuple(sorted(_LABEL.findall(match.group(3) or "")))
        out[(match.group(1), labels)] = float(match.group(4))
    return out


def _fetch(url: str) -> str:
    with urllib.request.urlopen(url + "/v1/metrics", timeout=30) as response:
        return response.read().decode("utf-8")


def scrape(backend_urls: Sequence[str], router_url: Optional[str] = None) -> List[Parsed]:
    """One ``/v1/metrics`` read per server process.

    A router's exposition appends every backend's after a ``# backend`` line;
    only its own part is kept, so no backend is counted twice.
    """
    texts = [_fetch(url) for url in backend_urls]
    if router_url:
        texts.append(_fetch(router_url).split("\n# backend ", 1)[0])
    return [parse(text) for text in texts]


def _series(scraped: Iterable[Parsed], name: str,
            where: Dict[str, str]) -> Dict[Tuple[Tuple[str, str], ...], float]:
    """Sum one family's samples over processes, keyed by the other labels."""
    out: Dict[Tuple[Tuple[str, str], ...], float] = {}
    for parsed in scraped:
        for (family, labels), value in parsed.items():
            if family != name:
                continue
            as_dict = dict(labels)
            if any(as_dict.get(k) != v for k, v in where.items()):
                continue
            key = tuple((k, v) for k, v in labels if k not in where)
            out[key] = out.get(key, 0.0) + value
    return out


def histogram_quantile(scraped: Sequence[Parsed], family: str, q: float,
                       where: Optional[Dict[str, str]] = None) -> Tuple[float, int]:
    """Quantile of a summed histogram, interpolated inside its bucket."""
    buckets = _series(scraped, family + "_bucket", where or {})
    bounds = sorted((float(dict(k)["le"]), v) for k, v in buckets.items())
    if not bounds or bounds[-1][1] == 0:
        return 0.0, 0
    total = bounds[-1][1]
    rank = q * total
    lower, below = 0.0, 0.0
    for bound, cumulative in bounds:
        if cumulative >= rank:
            if bound == float("inf"):
                return lower, int(total)
            inside = cumulative - below
            frac = (rank - below) / inside if inside else 1.0
            return lower + (bound - lower) * frac, int(total)
        lower, below = bound, cumulative
    return lower, int(total)


def dropped_frames(scraped: Sequence[Parsed]) -> float:
    """Events shed from full subscriber and stream queues, all processes."""
    return sum(_series(scraped, "anttune_event_queue_dropped_total", {}).values())


def edge_layer(scraped: Sequence[Parsed]) -> Dict[str, tuple]:
    out: Dict[str, tuple] = {}
    batch_sum = sum(_series(scraped, "anttune_edge_flush_batch_size_sum", {}).values())
    batch_n = sum(_series(scraped, "anttune_edge_flush_batch_size_count", {}).values())
    out["edge.flush_batch_mean"] = (batch_sum / batch_n if batch_n else 0.0,
                                    "frames", int(batch_n))
    lag, n = histogram_quantile(scraped, "anttune_edge_loop_lag_seconds", 0.99)
    out["edge.loop_lag_ms.p99"] = (lag * 1e3, "ms", n)
    submit, n = histogram_quantile(scraped, "anttune_http_request_seconds", 0.5,
                                   {"method": "POST", "endpoint": "/v1/jobs"})
    out["edge.http_submit_ms.p50"] = (submit * 1e3, "ms", n)
    dropped = dropped_frames(scraped)
    published = sum(_series(scraped, "anttune_event_publish_seconds_count", {}).values())
    out["edge.live_drop_frac"] = (dropped / published if published else 0.0,
                                  "fraction", int(published))
    return out


def _p(values: List[float], q: float, scale: float, unit: str) -> tuple:
    return (quantile(values, q) * scale if values else 0.0, unit, len(values))


def backend_layers(traces: Sequence[Trace], trials: int) -> Dict[str, tuple]:
    """server, storage, study, executors, scheduler, events, eventlog."""
    def durations(name: str) -> List[float]:
        return [d for t in traces for d in t.durations(name)]

    out: Dict[str, tuple] = {}
    out["server.submit_ms.p50"] = _p(durations("server.submit"), 0.5, 1e3, "ms")
    out["server.open_event_stream_ms.p50"] = _p(
        durations("server.open_event_stream"), 0.5, 1e3, "ms")
    for method in ("save_study", "record_trial", "set_status"):
        out[f"storage.{method}_ms.p50"] = _p(durations(f"storage.{method}"), 0.5,
                                             1e3, "ms")
    out["study.ask_us.p50"] = _p(durations("study.ask"), 0.5, 1e6, "us")
    out["study.tell_us.p50"] = _p(durations("study.tell"), 0.5, 1e6, "us")
    waits: List[float] = []
    for trace in traces:
        submitted: Dict[int, List[float]] = {}
        for span in trace.named("executors.submit"):
            submitted.setdefault(span[6], []).append(span[2])
        for span in trace.named("executors.execute_trial"):
            earlier = [t for t in submitted.get(span[6], []) if t <= span[2]]
            if earlier:
                waits.append(span[2] - max(earlier))
    out["executors.queue_wait_ms.p50"] = _p(waits, 0.5, 1e3, "ms")
    out["executors.run_ms.p50"] = _p(durations("executors.execute_trial"), 0.5, 1e3, "ms")
    observes = durations("scheduler.observe")
    out["scheduler.observe_us.p50"] = _p(observes, 0.5, 1e6, "us")
    out["scheduler.ticks_per_trial"] = (len(observes) / trials if trials else 0.0,
                                        "count", len(observes))
    publishes = [s for t in traces for s in t.named("events.publish")]
    to_publish = [s[2] - s[6][1] for s in publishes
                  if s[6] is not None and s[6][1] is not None]
    out["scheduler.report_to_publish_ms.p50"] = _p(to_publish, 0.5, 1e3, "ms")
    out["scheduler.flush_ms.p50"] = _p(durations("scheduler.flush"), 0.5, 1e3, "ms")
    publish_us = [s[3] - s[2] for s in publishes]
    out["events.publish_us.p50"] = _p(publish_us, 0.5, 1e6, "us")
    out["events.publish_us.p99"] = _p(publish_us, 0.99, 1e6, "us")
    out["events.wire_bytes_us.p50"] = _p(durations("events.wire_bytes"), 0.5, 1e6, "us")
    appends = durations("eventlog.append")
    out["eventlog.append_us.p50"] = _p(appends, 0.5, 1e6, "us")
    out["eventlog.append_us.p99"] = _p(appends, 0.99, 1e6, "us")
    out["eventlog.open_job_ms.p50"] = _p(durations("eventlog.open_job"), 0.5, 1e3, "ms")
    return out


def publish_starts(traces: Sequence[Trace]) -> Dict[Tuple[str, int], float]:
    """(trace id, seq) -> start of that event's publish span."""
    return {(s[5], s[6][0]): s[2] for t in traces for s in t.named("events.publish")
            if s[6] is not None}


def publish_to_client(traces: Sequence[Trace],
                      arrivals: Iterable[Tuple[str, int, float]]) -> Dict[str, tuple]:
    starts = publish_starts(traces)
    lags = [(arrived - starts[(rid, seq)]) * 1e3 for rid, seq, arrived in arrivals
            if (rid, seq) in starts]
    return {"edge.publish_to_client_ms.p50": _p(lags, 0.5, 1.0, "ms"),
            "edge.publish_to_client_ms.p99": _p(lags, 0.99, 1.0, "ms")}


def client_layers(trace: Trace, jobs: int) -> Dict[str, tuple]:
    submits = trace.durations("client.submit")
    opens = len(trace.named("client.open_stream"))
    return {"client.submit_ms.p50": _p(submits, 0.5, 1e3, "ms"),
            "client.submit_ms.p99": _p(submits, 0.99, 1e3, "ms"),
            "client.stream_reconnects": (float(max(0, opens - jobs)), "count", opens)}


def router_layers(trace: Trace, cpu_s: float, events: int) -> Dict[str, tuple]:
    submits = trace.durations("router.submit")
    return {"router.submit_ms.p50": _p(submits, 0.5, 1e3, "ms"),
            "router.cpu_us_per_event": (cpu_s * 1e6 / events if events else 0.0,
                                        "us", events)}

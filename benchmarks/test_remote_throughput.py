"""Remote tune service throughput: N concurrent SDK clients, one HTTP server.

The paper's tune service is a shared, network-facing product: many SDK
clients submit jobs into one server and follow them live.  This benchmark
stands up a loopback :class:`~repro.automl.remote.http_server.RemoteTuneServer`
and drives it with ``N_CLIENTS`` concurrent :class:`AntTuneClient` threads,
each submitting its own job and consuming the job's full NDJSON event stream
to the terminal event.  Reported: end-to-end wall clock, total events
delivered over HTTP, and aggregate streamed events/sec — with every stream
checked gapless (per-job ``seq`` is contiguous from 0), so the throughput
number never hides dropped events.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time

import pytest

from common import save_result

from repro.automl.events import JobStateChanged
from repro.automl.remote import (
    AntTuneClient,
    HashRing,
    RemoteRouterServer,
    RemoteTuneServer,
)
from repro.experiments import format_table

N_CLIENTS = 4
N_TRIALS = 6          # per client job
REPORTS_PER_TRIAL = 8

N_ROUTER_CLIENTS = 8  # router fan-out benchmark: clients across 2 backends

# C10k fan-out benchmark: many subscribers per job.
N_FAN_JOBS = 8
FAN_TRIALS = 2
FAN_REPORTS = 200
FAN_GATE = threading.Event()

# Importable by the server through the wire's module:attr references
# (benchmarks/conftest.py puts this directory on sys.path).
from repro.automl.search_space import SearchSpace, Uniform  # noqa: E402

SPACE = SearchSpace({"x": Uniform(0.0, 1.0)})


def objective(trial):
    for step in range(REPORTS_PER_TRIAL):
        trial.report(trial.params["x"] * (step + 1))
    return trial.params["x"]


def fanout_objective(trial):
    """Gated burst: subscribers attach first, then every event fans out live."""
    assert FAN_GATE.wait(120.0), "benchmark never released the objective"
    for step in range(FAN_REPORTS):
        trial.report(float(step))
    return trial.params["x"]


def _drive_one_client(url: str, tag: int, results: dict, errors: list,
                      study_name: str = "") -> None:
    try:
        client = AntTuneClient(url, timeout=15.0)
        job_id = client.submit("test_remote_throughput:SPACE",
                               "test_remote_throughput:objective",
                               config={"n_trials": N_TRIALS}, seed=tag,
                               study_name=study_name or f"bench-client-{tag}")
        events = list(client.subscribe(job_id))
        best = client.wait(job_id, timeout=60.0)
        results[tag] = (job_id, events, best)
    except Exception as exc:  # noqa: BLE001 - surface in the main thread
        errors.append((tag, exc))


def test_concurrent_clients_streaming_throughput():
    results: dict = {}
    errors: list = []
    with RemoteTuneServer(num_workers=4, max_concurrent_jobs=N_CLIENTS,
                          backend="thread") as remote:
        threads = [threading.Thread(target=_drive_one_client,
                                    args=(remote.url, tag, results, errors))
                   for tag in range(N_CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        elapsed = time.perf_counter() - start
        dropped = remote.tune_server._bus.dropped_total()

    assert not errors, errors
    assert len(results) == N_CLIENTS

    total_events = 0
    for tag, (job_id, events, best) in sorted(results.items()):
        assert best.value is not None
        seqs = [event.seq for event in events]
        assert seqs == list(range(len(events))), (
            f"client {tag}: stream has gaps or duplicates")
        assert isinstance(events[-1], JobStateChanged) and events[-1].terminal
        assert all(event.job_id == job_id for event in events)
        total_events += len(events)

    events_per_sec = total_events / elapsed
    trials_per_sec = (N_CLIENTS * N_TRIALS) / elapsed
    rows = [{
        "clients": N_CLIENTS,
        "trials": N_CLIENTS * N_TRIALS,
        "events_streamed": total_events,
        "seconds": round(elapsed, 3),
        "events_per_sec": round(events_per_sec, 1),
        "trials_per_sec": round(trials_per_sec, 1),
    }]
    text = format_table(
        rows, title=(f"{N_CLIENTS} concurrent SDK clients vs one HTTP tune "
                     f"server ({N_TRIALS} trials x {REPORTS_PER_TRIAL} "
                     f"reports each, loopback NDJSON streams); "
                     f"event_queue_dropped={dropped}"))
    save_result("remote_throughput", text)

    # Conservative floor: loopback HTTP + JSON should stream far more than
    # this; the assert only guards against pathological regressions.
    assert events_per_sec > 50, (
        f"remote event streaming collapsed to {events_per_sec:.1f} events/s")


def _split_names(ring: HashRing, count: int) -> list:
    """``count`` study names the ring places evenly across its nodes.

    The backends' URLs carry OS-chosen ports, so fixed names would land
    wherever those ports hash; picking the names from the ring itself keeps
    the split (and so the measured load) the same on every run.
    """
    share = count // len(ring)
    by_node: dict = {node: [] for node in sorted(ring.nodes)}
    serial = 0
    while any(len(names) < share for names in by_node.values()):
        name = f"bench-client-{serial}"
        serial += 1
        names = by_node[ring.lookup(name)]
        if len(names) < share:
            names.append(name)
    return [name for names in by_node.values() for name in names]


def test_router_fanout_streaming_throughput():
    """Same drive, but through the fleet router over two backend servers.

    Measures the cost of the extra hop: every submit is hashed to one of
    two thread-backend servers and every event stream is proxied through
    the router's journal, so gapless seqs here prove the proxy re-numbers
    without dropping.
    """
    results: dict = {}
    errors: list = []
    with RemoteTuneServer(num_workers=4, max_concurrent_jobs=N_ROUTER_CLIENTS,
                          backend="thread") as backend_a, \
         RemoteTuneServer(num_workers=4, max_concurrent_jobs=N_ROUTER_CLIENTS,
                          backend="thread") as backend_b, \
         RemoteRouterServer(backends=[backend_a.url, backend_b.url]) as router:
        ring = HashRing([backend_a.url, backend_b.url], replicas=64)  # default
        names = _split_names(ring, N_ROUTER_CLIENTS)
        threads = [threading.Thread(target=_drive_one_client,
                                    args=(router.url, tag, results, errors,
                                          names[tag]))
                   for tag in range(N_ROUTER_CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        elapsed = time.perf_counter() - start
        placements = {tag: router.router.status(job_id).get("backend")
                      for tag, (job_id, _, _) in results.items()}

    assert not errors, errors
    assert len(results) == N_ROUTER_CLIENTS
    # Every job lands where the ring puts its study name, on both backends.
    assert placements == {tag: ring.lookup(names[tag])
                          for tag in range(N_ROUTER_CLIENTS)}, placements
    assert len(set(placements.values())) == 2, placements

    total_events = 0
    for tag, (job_id, events, best) in sorted(results.items()):
        assert best.value is not None
        seqs = [event.seq for event in events]
        assert seqs == list(range(len(events))), (
            f"client {tag}: routed stream has gaps or duplicates")
        assert isinstance(events[-1], JobStateChanged) and events[-1].terminal
        assert all(event.job_id == job_id for event in events)
        total_events += len(events)

    events_per_sec = total_events / elapsed
    trials_per_sec = (N_ROUTER_CLIENTS * N_TRIALS) / elapsed
    rows = [{
        "clients": N_ROUTER_CLIENTS,
        "backends": 2,
        "trials": N_ROUTER_CLIENTS * N_TRIALS,
        "events_streamed": total_events,
        "seconds": round(elapsed, 3),
        "events_per_sec": round(events_per_sec, 1),
        "trials_per_sec": round(trials_per_sec, 1),
    }]
    text = format_table(
        rows, title=(f"{N_ROUTER_CLIENTS} concurrent SDK clients vs one "
                     f"router over 2 tune servers ({N_TRIALS} trials x "
                     f"{REPORTS_PER_TRIAL} reports each, proxied NDJSON "
                     f"streams)"))
    save_result("remote_router_throughput", text)

    # Same pathological-regression floor as the single-server benchmark:
    # the extra hop must not collapse streaming throughput.
    assert events_per_sec > 50, (
        f"routed event streaming collapsed to {events_per_sec:.1f} events/s")


# --------------------------------------------------------------------------- #
# C10k: high-client-count streaming fan-out
# --------------------------------------------------------------------------- #
class _StreamMux:
    """N concurrent NDJSON stream readers multiplexed on the caller's thread.

    One blocking SDK client per stream would need a thread per connection on
    the *client* side too — at 1000 streams the harness would melt before
    the server did.  Instead the benchmark's client plays by the server's
    rules: non-blocking sockets on one selector, each response accumulated
    until the server closes the (close-delimited) stream.
    """

    def __init__(self, address, requests) -> None:
        self._sel = selectors.DefaultSelector()
        self._requests = list(requests)
        self._sent = [False] * len(self._requests)
        self.buffers = [bytearray() for _ in self._requests]
        self.done = [False] * len(self._requests)
        self._socks = []
        for index in range(len(self._requests)):
            sock = socket.socket()
            sock.setblocking(False)
            sock.connect_ex(address)
            self._socks.append(sock)
            self._sel.register(sock, selectors.EVENT_WRITE, index)

    def close(self) -> None:
        for sock in self._socks:
            try:
                sock.close()
            except OSError:
                pass
        self._sel.close()

    def pump_until(self, predicate, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while not predicate(self):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            for key, mask in self._sel.select(min(remaining, 0.25)):
                index, sock = key.data, key.fileobj
                if mask & selectors.EVENT_WRITE and not self._sent[index]:
                    sock.sendall(self._requests[index])
                    self._sent[index] = True
                    self._sel.modify(sock, selectors.EVENT_READ, index)
                    continue
                if mask & selectors.EVENT_READ:
                    try:
                        data = sock.recv(1 << 16)
                    except BlockingIOError:
                        continue
                    except OSError:
                        data = b""
                    if data:
                        self.buffers[index] += data
                    else:
                        self.done[index] = True
                        self._sel.unregister(sock)
        return True

    def attached(self, timeout: float) -> bool:
        """Every stream has its response head: the subscription is live."""
        return self.pump_until(
            lambda mux: all(b"\r\n\r\n" in buf for buf in mux.buffers),
            timeout)

    def finished(self, timeout: float) -> bool:
        return self.pump_until(lambda mux: all(mux.done), timeout)


def _parse_stream(buf: bytes):
    head, _, body = bytes(buf).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    events = [json.loads(line) for line in body.split(b"\n") if line.strip()]
    return status, events


def _run_fanout(n_clients: int) -> dict:
    """One fan-out run: N subscribers over N_FAN_JOBS gated jobs."""
    FAN_GATE.clear()
    with RemoteTuneServer(num_workers=4, max_concurrent_jobs=N_FAN_JOBS,
                          backend="thread") as remote:
        client = AntTuneClient(remote.url, timeout=30.0)
        job_ids = [
            client.submit("test_remote_throughput:SPACE",
                          "test_remote_throughput:fanout_objective",
                          config={"n_trials": FAN_TRIALS}, seed=tag,
                          study_name=f"fan-{n_clients}-{tag}")
            for tag in range(N_FAN_JOBS)]
        requests = [
            (f"GET /v1/jobs/{job_ids[index % N_FAN_JOBS]}/events?last_seq=-1 "
             f"HTTP/1.1\r\nHost: b\r\n\r\n").encode()
            for index in range(n_clients)]
        mux = _StreamMux(remote.address, requests)
        try:
            attach_start = time.perf_counter()
            assert mux.attached(120.0), f"{n_clients}: attach timed out"
            attach_seconds = time.perf_counter() - attach_start
            start = time.perf_counter()
            FAN_GATE.set()
            assert mux.finished(300.0), f"{n_clients}: streams hung"
            elapsed = time.perf_counter() - start
            total_events = 0
            for index, buf in enumerate(mux.buffers):
                status, events = _parse_stream(buf)
                assert status == 200
                job_id = job_ids[index % N_FAN_JOBS]
                seqs = [event["seq"] for event in events]
                assert seqs == list(range(len(events))), (
                    f"{n_clients}: client {index} stream has gaps")
                assert events[-1]["type"] == "JobStateChanged"
                assert events[-1]["terminal"]
                assert all(event["job_id"] == job_id for event in events)
                total_events += len(events)
        finally:
            mux.close()
    return {
        "clients": n_clients,
        "jobs": N_FAN_JOBS,
        "events_streamed": total_events,
        "attach_seconds": round(attach_seconds, 3),
        "seconds": round(elapsed, 3),
        "events_per_sec": round(total_events / elapsed, 1),
    }


@pytest.mark.slow
def test_c10k_fanout_streaming():
    """64/256/1000 concurrent streams on one serving edge.

    Every stream is checked gapless to its terminal event, so the throughput
    never hides drops.  The edge must hold 1000 concurrent subscribers on
    its one event-loop thread.
    """
    rows = [_run_fanout(64), _run_fanout(256), _run_fanout(1000)]
    text = format_table(
        rows, title=(f"{N_FAN_JOBS} gated jobs ({FAN_TRIALS} trials x "
                     f"{FAN_REPORTS} reports), N subscribers multiplexed on "
                     f"one client thread; every stream gapless to terminal"))
    save_result("remote_c10k", text)

    # 1000 concurrent streams held, each asserted gapless above.
    assert rows[-1]["events_streamed"] > 0

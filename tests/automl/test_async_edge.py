"""Tests for the async serving edge: the C10k event plane.

The edge's whole point is holding many concurrent clients on a handful of
threads, so these tests drive it the way the threat model does: hundreds of
loopback NDJSON subscribers multiplexed from **one** client thread (a
``selectors`` mux mirroring the server's own loop), parked ``/wait``
continuations counted against the process's live thread population, a
stalled reader exhausting its send grace, and the wire taxonomy end to end
through the SDK and plain HTTP.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import textwrap
import threading
import time

import pytest

from repro.automl import metrics as _metrics
from repro.automl.events import TrialReport
from repro.automl.remote import AntTuneClient, RemoteTuneServer
from repro.automl.remote.edge import AsyncHTTPEdge

HELPER = "async_edge_helper"


@pytest.fixture
def helper_module(tmp_path, monkeypatch):
    """An importable module the server resolves module:attr refs against.

    ``RELEASE`` gates the objectives so tests control *when* events flow:
    subscribers attach first, the burst happens while they watch.
    """
    module_dir = tmp_path / "modules"
    module_dir.mkdir()
    (module_dir / f"{HELPER}.py").write_text(textwrap.dedent("""
        import threading

        from repro.automl.search_space import SearchSpace, Uniform

        SPACE = SearchSpace({"x": Uniform(0.0, 1.0)})
        RELEASE = threading.Event()

        def objective(trial):
            for step in range(3):
                trial.report(trial.params["x"] * (step + 1))
            return trial.params["x"]

        def gate_then_report(trial):
            assert RELEASE.wait(60.0), "test never released the objective"
            for step in range(30):
                trial.report(float(step))
            return trial.params["x"]

        def burst_then_gate(trial):
            for step in range(30):
                trial.report(float(step))
            assert RELEASE.wait(60.0), "test never released the objective"
            return trial.params["x"]
    """))
    monkeypatch.syspath_prepend(str(module_dir))
    yield HELPER
    sys.modules.pop(HELPER, None)


def _release(helper: str) -> None:
    sys.modules[helper].RELEASE.set()


def _stream_request(job_id: int, last_seq: int = -1,
                    max_queue: int | None = None) -> bytes:
    query = f"last_seq={last_seq}"
    if max_queue is not None:
        query += f"&max_queue={max_queue}"
    return (f"GET /v1/jobs/{job_id}/events?{query} HTTP/1.1\r\n"
            f"Host: t\r\n\r\n").encode()


def _wait_request(job_id: int, timeout: float) -> bytes:
    return (f"GET /v1/jobs/{job_id}/wait?timeout={timeout} HTTP/1.1\r\n"
            f"Host: t\r\nConnection: close\r\n\r\n").encode()


class _Mux:
    """N concurrent loopback HTTP requests multiplexed on the test's thread.

    One blocking thread per client would drown the signal (the server not
    spending a thread per connection), so the client side plays by the same
    rules: non-blocking sockets, one selector, responses accumulated per
    connection until the server closes it.
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
        """Drive the mux until ``predicate(self)`` or ``timeout``."""
        deadline = time.monotonic() + timeout
        while not predicate(self):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            for key, mask in self._sel.select(min(remaining, 0.25)):
                index, sock = key.data, key.fileobj
                if mask & selectors.EVENT_WRITE and not self._sent[index]:
                    sock.sendall(self._requests[index])  # tiny: fits at once
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

    def pump_all_done(self, timeout: float) -> bool:
        return self.pump_until(lambda mux: all(mux.done), timeout)

    def pump_headers(self, timeout: float) -> bool:
        """Every connection has its response head (stream attached)."""
        return self.pump_until(
            lambda mux: all(b"\r\n\r\n" in buf for buf in mux.buffers),
            timeout)


def _parse_response(buf: bytes):
    head, _, body = bytes(buf).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


def _parse_stream(buf: bytes):
    """(status, events) from one finished NDJSON stream response."""
    status, body = _parse_response(buf)
    events = [json.loads(line) for line in body.split(b"\n") if line.strip()]
    return status, events


def _assert_gapless(events, job_id: int) -> None:
    seqs = [event["seq"] for event in events]
    assert seqs == list(range(len(events))), "stream has gaps or duplicates"
    assert all(event["job_id"] == job_id for event in events)
    last = events[-1]
    assert last["type"] == "JobStateChanged" and last["terminal"]


def _gauge_value(name: str, **labels) -> float:
    for sample in _metrics.REGISTRY.snapshot()[name]["samples"]:
        if sample["labels"] == labels:
            return sample["value"]
    return 0.0


# --------------------------------------------------------------------------- #
# High concurrency: hundreds of streams, a handful of threads
# --------------------------------------------------------------------------- #
class TestManySubscribers:
    N_STREAMS = 300

    @pytest.mark.slow
    def test_hundreds_of_streams_gapless_without_thread_growth(
            self, helper_module):
        with RemoteTuneServer(num_workers=2, backend="thread") as remote:
            client = AntTuneClient(remote.url, timeout=10.0)
            job_id = client.submit(f"{helper_module}:SPACE",
                                   f"{helper_module}:gate_then_report",
                                   config={"n_trials": 2}, seed=7)
            baseline = threading.active_count()
            mux = _Mux(remote.address,
                       [_stream_request(job_id)] * self.N_STREAMS)
            try:
                assert mux.pump_headers(30.0), "streams never all attached"
                # The edge multiplexes every stream on its loop plus a small
                # bounded pool — thread population must not scale with
                # subscriber count the way thread-per-connection did.
                grown = threading.active_count() - baseline
                assert grown <= 12, (
                    f"{self.N_STREAMS} streams grew {grown} threads")
                open_streams = _gauge_value("anttune_http_open_connections",
                                            kind="stream")
                assert open_streams >= self.N_STREAMS
                _release(helper_module)
                assert mux.pump_all_done(60.0), "streams never all finished"
                counts = set()
                for buf in mux.buffers:
                    status, events = _parse_stream(buf)
                    assert status == 200
                    _assert_gapless(events, job_id)
                    counts.add(len(events))
                # Every subscriber saw the same complete story.
                assert len(counts) == 1
                assert counts.pop() >= 2 * 30  # at least the report burst
            finally:
                mux.close()
        assert _gauge_value("anttune_http_open_connections",
                            kind="stream") == 0.0
        assert _gauge_value("anttune_http_open_connections",
                            kind="control") == 0.0

    def test_smoke_128_clients(self, helper_module):
        """Fast CI gate: 128 concurrent streams, no gating, no slow marker."""
        n_streams = 128
        with RemoteTuneServer(num_workers=2, backend="thread") as remote:
            client = AntTuneClient(remote.url, timeout=10.0)
            job_id = client.submit(f"{helper_module}:SPACE",
                                   f"{helper_module}:objective",
                                   config={"n_trials": 2}, seed=3)
            mux = _Mux(remote.address, [_stream_request(job_id)] * n_streams)
            try:
                assert mux.pump_all_done(60.0), "streams never all finished"
                for buf in mux.buffers:
                    status, events = _parse_stream(buf)
                    assert status == 200
                    _assert_gapless(events, job_id)
            finally:
                mux.close()


# --------------------------------------------------------------------------- #
# Parked /wait: a continuation, not a thread
# --------------------------------------------------------------------------- #
class TestParkedWait:
    N_WAITERS = 50

    def test_parked_waits_complete_on_terminal_without_threads(
            self, helper_module):
        with RemoteTuneServer(num_workers=2, backend="thread") as remote:
            client = AntTuneClient(remote.url, timeout=10.0)
            job_id = client.submit(f"{helper_module}:SPACE",
                                   f"{helper_module}:gate_then_report",
                                   config={"n_trials": 1}, seed=5)
            baseline = threading.active_count()
            mux = _Mux(remote.address,
                       [_wait_request(job_id, 30.0)] * self.N_WAITERS)
            try:
                # All waiters sent and parked (nothing answered: the job is
                # gated), yet no thread blocks per waiter.
                assert mux.pump_until(lambda m: all(m._sent), 10.0)
                time.sleep(0.3)
                assert not any(mux.done)
                assert all(len(buf) == 0 for buf in mux.buffers)
                grown = threading.active_count() - baseline
                assert grown <= 10, (
                    f"{self.N_WAITERS} parked waits grew {grown} threads")
                _release(helper_module)
                assert mux.pump_all_done(30.0), "waits never completed"
                for buf in mux.buffers:
                    status, body = _parse_response(buf)
                    assert status == 200
                    payload = json.loads(body)
                    assert payload["done"] and payload["state"] == "completed"
                    assert payload["best"]["value"] is not None
            finally:
                mux.close()

    def test_wait_timeout_answers_not_done(self, helper_module):
        with RemoteTuneServer(num_workers=2, backend="thread") as remote:
            client = AntTuneClient(remote.url, timeout=10.0)
            job_id = client.submit(f"{helper_module}:SPACE",
                                   f"{helper_module}:gate_then_report",
                                   config={"n_trials": 1}, seed=6)
            mux = _Mux(remote.address, [_wait_request(job_id, 0.5)])
            try:
                assert mux.pump_all_done(10.0), "timed wait never answered"
                status, body = _parse_response(mux.buffers[0])
                assert status == 200
                payload = json.loads(body)
                assert payload["done"] is False
            finally:
                mux.close()
                _release(helper_module)
                client.wait(job_id, timeout=30.0)


# --------------------------------------------------------------------------- #
# Slow readers: bounded queues, counted drops, stall disconnect
# --------------------------------------------------------------------------- #
class TestSlowReaders:
    def test_bounded_live_queue_drops_counted_backfill_stays_gapless(
            self, helper_module, tmp_path):
        """A tiny ``?max_queue=`` bounds the live frame queue (drop-oldest,
        drops folded into the bus's accounting) while the durable-log
        backfill still delivers the complete story — drops cost duplicate
        suppression work, never data."""
        with RemoteTuneServer(num_workers=1, backend="thread",
                              storage=str(tmp_path / "tune.db")) as remote:
            client = AntTuneClient(remote.url, timeout=10.0)
            job_id = client.submit(f"{helper_module}:SPACE",
                                   f"{helper_module}:burst_then_gate",
                                   config={"n_trials": 1}, seed=9)
            # Let the 30-report burst publish (and hit the durable log)
            # before the late subscriber shows up.
            for event in client.subscribe(job_id):
                if isinstance(event, TrialReport) and event.step >= 29:
                    break
            before = remote.tune_server.server_status()[
                "telemetry"]["event_queue_dropped"]
            # max_queue=4 cannot hold the 30-event replay: the live queue
            # sheds oldest; the log backfill covers the gap.
            mux = _Mux(remote.address,
                       [_stream_request(job_id, max_queue=4)])
            try:
                assert mux.pump_headers(10.0)
                _release(helper_module)
                assert mux.pump_all_done(30.0), "stream never finished"
                status, events = _parse_stream(mux.buffers[0])
                assert status == 200
                _assert_gapless(events, job_id)
                assert len(events) >= 30
            finally:
                mux.close()
            after = remote.tune_server.server_status()[
                "telemetry"]["event_queue_dropped"]
            assert after > before, "shed live frames were not counted"

    def test_stalled_reader_disconnected_after_send_grace(self):
        """A client that stops *reading* is torn down once its write makes
        no progress for the send-timeout grace — bounded memory, freed
        resources, and the stream can resume later with ``last_seq``."""

        class StallApp:
            heartbeat_seconds = 5.0
            stream_send_timeout = 1.0

            def __init__(self):
                self.stalled = threading.Event()

            def check_auth(self, token):
                return True

            def classify(self, method, path):
                if method == "GET" and path == "/stream":
                    return ("events", "/stream", None)
                return None

            def stream_begin(self, args, params, request_id, sink):
                if not sink.start():
                    return
                chunk = b"x" * 65536 + b"\n"
                for _ in range(512):  # 32 MiB: beyond any kernel buffer pair
                    if not sink.emit(chunk):
                        self.stalled.set()
                        return
                sink.end()  # pragma: no cover - the client never drains it

        app = StallApp()
        edge = AsyncHTTPEdge(("127.0.0.1", 0), app,
                             write_buffer_limit=65536).start()
        try:
            sock = socket.socket()
            try:
                # Clamp the receive window *before* connecting: loopback
                # autotuning would otherwise absorb the whole payload into
                # kernel buffers and the reader would never look stalled.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
                sock.settimeout(10.0)
                sock.connect(edge.address)
                sock.sendall(b"GET /stream HTTP/1.1\r\nHost: t\r\n\r\n")
                start = time.monotonic()
                # Read the head plus a first chunk, then stop reading.
                sock.recv(4096)
                assert app.stalled.wait(10.0), (
                    "edge never gave up on the stalled reader")
                # The grace is 1s; the sweep runs at grace/4 granularity.
                assert time.monotonic() - start < 8.0
                # The server closed the connection: drains to EOF/reset.
                sock.settimeout(10.0)
                while True:
                    try:
                        if not sock.recv(1 << 20):
                            break
                    except (ConnectionResetError, OSError):
                        break
            finally:
                sock.close()
        finally:
            edge.stop()


# --------------------------------------------------------------------------- #
# The stream sink and the loop driven by hand (no server thread, no sleeps)
# --------------------------------------------------------------------------- #
class _FakeTune:
    """``open_event_stream`` whose subscription replays the log's newest
    events into the sink before the backfill is read — the overlap the sink
    must de-duplicate."""

    def __init__(self, events, live_from: int) -> None:
        self.events = events
        self.live_from = live_from

    def note_stream_drops(self, job_id, count) -> None:
        raise AssertionError("no live frame may be dropped")

    def open_event_stream(self, job_id, last_seq=-1, max_queue=1024,
                          callback=None):
        for event in self.events[self.live_from:]:
            callback(event)

        class Subscription:
            def close(self) -> None:
                pass

        return iter(self.events), Subscription()


class TestStreamSinkByHand:
    def test_backfill_ending_at_terminal_sends_each_seq_once(self):
        from repro.automl.events import JobStateChanged, TrialStarted
        from repro.automl.remote.edge import _Connection, _StreamSink
        from repro.automl.remote.http_server import _TuneApp

        last = 11
        events = [TrialStarted(trial_id=seq, params={"pad": "x" * 4096},
                               job_id=1, seq=seq) for seq in range(last)]
        events.append(JobStateChanged(state="completed", terminal=True,
                                      job_id=1, seq=last))

        class Remote:
            tune_server = _FakeTune(events, live_from=6)

            def log(self, line) -> None:
                pass

        app = _TuneApp(Remote())
        edge = AsyncHTTPEdge(("127.0.0.1", 0), app)
        server_side, client_side = socket.socketpair()
        try:
            # A small send buffer keeps most of the backfill in the edge's
            # own buffer when the backfill ends, as for a slow reader.
            server_side.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            server_side.setblocking(False)
            client_side.setblocking(False)
            conn = _Connection(server_side, "pair")
            edge._conns.add(conn)
            edge._selector.register(server_side, selectors.EVENT_READ,
                                    ("conn", conn))
            sink = _StreamSink(edge, conn, None, send_timeout=5.0)
            app.stream_begin("1", {"last_seq": "-1"}, None, sink)
            received = bytearray()
            for _ in range(200):
                edge._loop_pass()
                try:
                    while True:
                        chunk = client_side.recv(1 << 16)
                        if not chunk:
                            break
                        received += chunk
                except BlockingIOError:
                    continue
                break  # EOF: the edge closed the stream
            else:
                pytest.fail("the stream never closed")
        finally:
            client_side.close()
            edge.stop()
        status, frames = _parse_stream(received)
        assert status == 200
        assert [frame["seq"] for frame in frames] == list(range(last + 1))
        assert [frame["seq"] for frame in frames
                if frame["type"] == "JobStateChanged"] == [last]


# --------------------------------------------------------------------------- #
# Wire behaviour: one round trip and the error taxonomy
# --------------------------------------------------------------------------- #
class TestEdgeParity:
    """The taxonomy tests that matter most, through the SDK and raw HTTP."""

    def test_submit_stream_wait_roundtrip(self, helper_module):
        with RemoteTuneServer(num_workers=2, backend="thread") as remote:
            client = AntTuneClient(remote.url, timeout=10.0)
            job_id = client.submit(f"{helper_module}:SPACE",
                                   f"{helper_module}:objective",
                                   config={"n_trials": 2}, seed=1)
            events = list(client.subscribe(job_id))
            seqs = [event.seq for event in events]
            assert seqs == list(range(len(events)))
            best = client.wait(job_id, timeout=30.0)
            assert best.value is not None

    def test_error_taxonomy(self):
        import urllib.error
        import urllib.request

        with RemoteTuneServer(num_workers=1, backend="thread",
                              token="sesame") as remote:
            def fetch(path, token="sesame"):
                request = urllib.request.Request(remote.url + path)
                if token:
                    request.add_header("Authorization", f"Bearer {token}")
                try:
                    with urllib.request.urlopen(request, timeout=10.0) as rsp:
                        return rsp.status, json.loads(rsp.read())
                except urllib.error.HTTPError as exc:
                    return exc.code, json.loads(exc.read())

            assert fetch("/v1/health") == (
                200, {"ok": True, "protocol": 1})
            status, body = fetch("/v1/health", token=None)
            assert status == 401 and "bearer" in body["error"]
            status, body = fetch("/v1/jobs/999")
            assert status == 404 and "unknown job id" in body["error"]
            status, body = fetch("/v1/jobs/abc")
            assert status == 404 and "job id must be an integer" in \
                body["error"]
            status, body = fetch("/v1/jobs/0/events?last_seq=x")
            assert status == 400 and "last_seq" in body["error"]
            status, body = fetch("/v1/nope")
            assert status == 404 and "no such endpoint" in body["error"]

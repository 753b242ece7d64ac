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
import urllib.request

import pytest

from repro.automl import metrics as _metrics
from repro.automl.eventlog import EventLog
from repro.automl.events import (
    EventBus,
    JobStateChanged,
    TrialReport,
    TrialStarted,
    event_wire_bytes,
)
from repro.automl.remote import AntTuneClient, RemoteTuneServer
from repro.automl.remote.edge import AsyncHTTPEdge, _Connection, _StreamSink
from repro.automl.remote.http_server import _TuneApp
from repro.automl.server import EventWindow

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


def _stream_request(job_id: int, last_seq: int = -1) -> bytes:
    return (f"GET /v1/jobs/{job_id}/events?last_seq={last_seq} HTTP/1.1\r\n"
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
# Slow readers: log catch-up, stall disconnect, no pinned workers
# --------------------------------------------------------------------------- #
class TestSlowReaders:
    def test_late_reader_behind_the_history_is_gapless(self, helper_module,
                                                       tmp_path):
        """A reader further behind than the bus history catches up from the
        durable log, then follows the history: every seq once, none
        dropped."""
        with RemoteTuneServer(num_workers=1, backend="thread",
                              storage=str(tmp_path / "tune.db")) as remote:
            # Before any submit: a history far shorter than the burst.
            remote.tune_server._bus = EventBus(history_limit=8)
            client = AntTuneClient(remote.url, timeout=10.0)
            job_id = client.submit(f"{helper_module}:SPACE",
                                   f"{helper_module}:burst_then_gate",
                                   config={"n_trials": 1}, seed=9)
            # Let the 30-report burst publish (and hit the durable log)
            # before the late reader shows up.
            for event in client.subscribe(job_id):
                if isinstance(event, TrialReport) and event.step >= 29:
                    break
            mux = _Mux(remote.address, [_stream_request(job_id)])
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
            assert remote.tune_server._bus.dropped(job_id) == 0

    def test_stalled_reader_disconnected_after_send_grace(self):
        """A client that stops *reading* is torn down once its write makes
        no progress for the send-timeout grace — bounded memory, freed
        resources, and the stream can resume later with ``last_seq``."""

        class EndlessFeed:
            chunk = b"x" * 65536 + b"\n"

            def read(self, after_seq, max_bytes):
                frames = [self.chunk] * (max_bytes // len(self.chunk) + 1)
                return frames, after_seq + len(frames), False

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
                sink.on_close(self.stalled.set)
                sink.start(EndlessFeed(), -1)

        app = StallApp()
        edge = AsyncHTTPEdge(("127.0.0.1", 0), app,
                             write_buffer_limit=65536).start()
        try:
            sock = socket.socket()
            try:
                # Clamp the receive window *before* connecting: loopback
                # autotuning would otherwise absorb megabytes into kernel
                # buffers and the reader would never look stalled.
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

    def test_stalled_log_readers_do_not_pin_the_workers(self, tmp_path):
        """Twice as many stalled ``?last_seq=-1`` readers of a 20k-event job
        as the edge has workers: each log catch-up chunk is a task on the
        edge's backlog thread that never waits on its reader, so
        ``/v1/health`` still answers at once."""
        log = EventLog(str(tmp_path / "events"))
        bus = EventBus()
        bus.subscribe(1, callback=log.append)
        for seq in range(20_000):
            bus.publish(TrialReport(trial_id=seq // 100, step=seq % 100,
                                    value=float(seq), job_id=1))
        with RemoteTuneServer(_BareTune(bus, log), edge_workers=8) as remote:
            readers = []
            try:
                for _ in range(16):
                    sock = socket.socket()
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                    sock.settimeout(10.0)
                    sock.connect(remote.address)
                    sock.sendall(_stream_request(1))
                    readers.append(sock)  # never read
                time.sleep(0.5)  # let every stream read its first chunk
                start = time.monotonic()
                with urllib.request.urlopen(remote.url + "/v1/health",
                                            timeout=10.0) as response:
                    assert json.loads(response.read())["ok"] is True
                assert time.monotonic() - start < 1.0
            finally:
                for sock in readers:
                    sock.close()
        log.close()


# --------------------------------------------------------------------------- #
# The stream cursor, its loop driven by hand (log chunks on the backlog thread)
# --------------------------------------------------------------------------- #
class _BareTune:
    """The slice of AntTuneServer a stream uses, over a bare bus and log
    (None: a server without file-backed storage)."""

    def __init__(self, bus, log) -> None:
        self.bus = bus
        self.log = log

    def open_event_stream(self, job_id, wake=None):
        return EventWindow(self.bus, job_id, self.log, live=True, wake=wake)


class _Remote:
    """What an endpoint app reads off its front: the service and the hooks."""

    def __init__(self, tune_server=None, router=None) -> None:
        self.tune_server = tune_server
        self.router = router

    def log(self, line) -> None:
        pass

    def check_auth(self, token) -> bool:
        return True


class _HandDriven:
    """One stream over a socketpair on an edge whose loop the test runs.

    The server side has a 4-KB send buffer, so most of a burst waits in the
    edge's own write buffer, as for a slow reader.
    """

    def __init__(self, app) -> None:
        self.app = app
        self.edge = AsyncHTTPEdge(("127.0.0.1", 0), app,
                                  write_buffer_limit=16 * 1024)
        server_side, self.client = socket.socketpair()
        server_side.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        server_side.setblocking(False)
        self.client.setblocking(False)
        self.conn = _Connection(server_side, "pair")
        self.edge._conns.add(self.conn)
        self.edge._selector.register(server_side, selectors.EVENT_READ,
                                     ("conn", self.conn))
        self.received = bytearray()
        self.closed = False

    def open(self, job_id: int, last_seq: int = -1) -> None:
        self.app.stream_begin(str(job_id), {"last_seq": str(last_seq)}, None,
                              _StreamSink(self.edge, self.conn, None))

    def step(self) -> None:
        """One loop pass, then read whatever reached the client."""
        self.edge._loop_pass()
        self.read()

    def read(self) -> None:
        try:
            while True:
                chunk = self.client.recv(1 << 16)
                if not chunk:
                    self.closed = True
                    return
                self.received += chunk
        except BlockingIOError:
            pass

    def seqs(self):
        return [frame["seq"] for frame in self.frames()]

    def frames(self):
        status, frames = _parse_stream(self.received)
        assert status == 200
        return frames

    def finish(self, passes: int = 400):
        """Run the loop until the edge closes the stream; its frames."""
        for _ in range(passes):
            self.step()
            if self.closed:
                break
        else:
            pytest.fail("the stream never closed")
        return self.frames()

    def close(self) -> None:
        self.client.close()
        self.edge.stop()


def _report(n: int, job_id: int = 1, seq: int = -1) -> TrialReport:
    return TrialReport(trial_id=n, value=float(n), job_id=job_id, seq=seq)


def _assert_one_terminal_last(frames) -> None:
    terminals = [frame for frame in frames
                 if frame["type"] == "JobStateChanged" and frame["terminal"]]
    assert terminals == [frames[-1]]


class TestStreamSinkByHand:
    def _tune(self, tmp_path, logged: bool, history_limit: int = 8):
        bus = EventBus(history_limit=history_limit)
        log = EventLog(str(tmp_path / "events")) if logged else None
        if log is not None:
            bus.subscribe(1, callback=log.append)  # first, as on a server
        tune = _BareTune(bus, log)
        return tune, _TuneApp(_Remote(tune_server=tune))

    def test_backfill_ending_at_terminal_sends_each_seq_once(self, tmp_path):
        tune, app = self._tune(tmp_path, logged=True, history_limit=6)
        last = 11
        for seq in range(last):
            tune.bus.publish(TrialStarted(trial_id=seq,
                                          params={"pad": "x" * 4096},
                                          job_id=1))
        tune.bus.publish(JobStateChanged(state="completed", terminal=True,
                                         job_id=1))
        driven = _HandDriven(app)
        try:
            driven.open(1)
            frames = driven.finish()
        finally:
            driven.close()
            tune.log.close()
        assert [frame["seq"] for frame in frames] == list(range(last + 1))
        assert [frame["seq"] for frame in frames
                if frame["type"] == "JobStateChanged"] == [last]

    @pytest.mark.parametrize("logged", [True, False])
    def test_reader_behind_the_history(self, tmp_path, logged):
        """With a log: every seq once, in order, none dropped.  Without:
        in order, and the missing seqs are exactly the drops counted."""
        tune, app = self._tune(tmp_path, logged=logged)
        for seq in range(40):  # five histories' worth before the reader
            tune.bus.publish(_report(seq))
        driven = _HandDriven(app)
        try:
            driven.open(1)
            for seq in range(40, 80):
                tune.bus.publish(_report(seq))
                if seq % 10 == 0:
                    driven.step()
            tune.bus.publish(JobStateChanged(state="completed", terminal=True,
                                             job_id=1))
            frames = driven.finish()
        finally:
            driven.close()
            if tune.log is not None:
                tune.log.close()
        seqs = [frame["seq"] for frame in frames]
        assert seqs == sorted(set(seqs)), "out of order or repeated"
        _assert_one_terminal_last(frames)
        missing = 81 - len(seqs)
        assert missing == tune.bus.dropped(1)
        if logged:
            assert seqs == list(range(81))
        else:
            assert missing > 0  # the reader really was behind

    def test_router_reader_behind_gets_the_whole_journal(self):
        from repro.automl.remote.router import TuneRouter, _RouterApp, _RouterJob

        job = _RouterJob(3, "s", "t", "submit", {}, "http://backend", 0)

        def append(seq: int, terminal: bool = False) -> None:
            event = (JobStateChanged(state="completed", terminal=True,
                                     job_id=3, seq=seq) if terminal
                     else _report(seq, job_id=3, seq=seq))
            with job.cond:
                job.terminal = terminal
                TuneRouter._append_line(job, event_wire_bytes(event),
                                        terminal)

        class Router:
            def _job(self, job_id):
                assert job_id == 3
                return job

        app = _RouterApp(_Remote(router=Router()))
        for seq in range(9000):  # more than a bus history_limit
            append(seq)
        driven = _HandDriven(app)
        try:
            driven.open(3)
            for seq in range(9000, 9040):
                append(seq)
                driven.step()
            append(9040, terminal=True)
            frames = driven.finish(passes=2000)
        finally:
            driven.close()
        assert [frame["seq"] for frame in frames] == list(range(9041))
        _assert_one_terminal_last(frames)

    def test_stream_never_sends_a_seq_before_its_log_append_returns(
            self, tmp_path):
        """Each seq is already in the bus history while the log appends it;
        a flush forced in the middle of that append must not send it."""
        driven_box = []
        early = []  # the bus swallows a callback's exceptions: collect

        class CheckedLog(EventLog):
            def append(self, event):
                if driven_box:
                    driven = driven_box[0]
                    driven.edge._mark_dirty(driven.conn)
                    driven.step()
                    if event.seq in driven.seqs():
                        early.append(event.seq)
                super().append(event)

        bus = EventBus(history_limit=8)
        log = CheckedLog(str(tmp_path / "events"))
        bus.subscribe(1, callback=log.append)
        tune = _BareTune(bus, log)
        app = _TuneApp(_Remote(tune_server=tune))
        for seq in range(20):
            bus.publish(_report(seq))
        driven = _HandDriven(app)
        try:
            driven.open(1)
            for _ in range(400):  # catch up from the log first
                driven.step()
                if driven.received and driven.seqs()[-1:] == [19]:
                    break
            driven_box.append(driven)
            for seq in range(20, 60):
                bus.publish(_report(seq))
            bus.publish(JobStateChanged(state="completed", terminal=True,
                                        job_id=1))
            driven_box.clear()
            frames = driven.finish()
        finally:
            driven.close()
            log.close()
        assert early == [], "seqs sent before their log append returned"
        assert [frame["seq"] for frame in frames] == list(range(61))


class TestConcurrentPublishers:
    @pytest.mark.parametrize("logged", [True, False])
    def test_streams_stay_exact_under_concurrent_publishers(self, tmp_path,
                                                            logged):
        """Eight threads publish into one job with a 2-event history and a
        tiny switch interval, so events rotate out of the history between
        their stamp and their log append; live streams served by the real
        loop thread stay in order, and with a log they have no gap."""
        bus = EventBus(history_limit=2)
        log = EventLog(str(tmp_path / "events")) if logged else None
        if log is not None:
            bus.subscribe(1, callback=log.append)
        app = _TuneApp(_Remote(tune_server=_BareTune(bus, log)))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        edge = AsyncHTTPEdge(("127.0.0.1", 0), app,
                             write_buffer_limit=4096).start()
        mux = _Mux(edge.address, [_stream_request(1)] * 3)
        try:
            assert mux.pump_headers(10.0)

            def publish() -> None:
                for n in range(200):
                    bus.publish(_report(n))

            publishers = [threading.Thread(target=publish) for _ in range(8)]
            for thread in publishers:
                thread.start()
            for thread in publishers:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in publishers)
            bus.publish(JobStateChanged(state="completed", terminal=True,
                                        job_id=1))
            assert mux.pump_all_done(30.0), "streams never finished"
            streams = [_parse_stream(buf)[1] for buf in mux.buffers]
        finally:
            sys.setswitchinterval(previous)
            mux.close()
            edge.stop()
            if log is not None:
                log.close()
        missing = 0
        for frames in streams:
            seqs = [frame["seq"] for frame in frames]
            assert seqs == sorted(set(seqs)), "out of order or repeated"
            _assert_one_terminal_last(frames)
            missing += 1601 - len(seqs)
            if logged:
                assert seqs == list(range(1601))
        assert missing == bus.dropped(1)


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

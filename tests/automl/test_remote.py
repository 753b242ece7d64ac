"""Tests for the remote tune service: wire schema, HTTP server, SDK client.

Covers the wire layer end to end: every event type round-trips through
serialise/deserialise, malformed requests answer 4xx without crashing the
server, the NDJSON event stream replays from ``last_seq`` across a
mid-stream disconnect, and concurrent SDK clients share one server.
"""

from __future__ import annotations

import io
import json
import socket
import sys
import textwrap
import threading
import urllib.error
import urllib.request

import pytest

from repro.automl.events import (
    EVENT_TYPES,
    JobStateChanged,
    TrialFinished,
    TrialKilled,
    TrialReport,
    TrialStarted,
    event_from_wire,
    event_to_wire,
)
from repro.automl.remote import (
    AntTuneClient,
    ProtocolError,
    RemoteTuneServer,
    parse_config,
    parse_submit,
    trial_from_record,
)
from repro.automl.remote.api import load_ref, parse_resume
from repro.automl.study import StudyConfig
from repro.automl.trial import TrialState
from repro.exceptions import TrialError

HELPER = "remote_wire_helper"


@pytest.fixture
def helper_module(tmp_path, monkeypatch):
    """An importable module the server resolves module:attr refs against."""
    module_dir = tmp_path / "modules"
    module_dir.mkdir()
    (module_dir / f"{HELPER}.py").write_text(textwrap.dedent("""
        import threading
        import time

        from repro.automl.search_space import SearchSpace, Uniform

        SPACE = SearchSpace({"x": Uniform(0.0, 1.0)})
        RELEASE = threading.Event()

        def objective(trial):
            for step in range(3):
                trial.report(trial.params["x"] * (step + 1))
            return trial.params["x"]

        def gated(trial):
            assert RELEASE.wait(10.0), "test never released the objective"
            return trial.params["x"]

        def slow(trial):
            for step in range(50):
                trial.report(float(step))
                time.sleep(0.02)
            return trial.params["x"]

        NOT_CALLABLE = 42
    """))
    monkeypatch.syspath_prepend(str(module_dir))
    yield HELPER
    sys.modules.pop(HELPER, None)


@pytest.fixture
def remote():
    with RemoteTuneServer(num_workers=4, max_concurrent_jobs=2,
                          backend="thread") as server:
        yield server


@pytest.fixture
def client(remote):
    return AntTuneClient(remote.url, timeout=10.0)


SAMPLE_EVENTS = [
    TrialStarted(trial_id=3, params={"x": 0.5, "depth": 2}, worker="worker-1",
                 job_id=7, seq=0),
    TrialReport(trial_id=3, step=2, value=0.75, job_id=7, seq=1),
    TrialKilled(trial_id=3, reason="pruned", job_id=7, seq=2),
    TrialFinished(trial_id=3, state="pruned", value=None,
                  record={"trial_id": 3, "state": "pruned", "value": None},
                  job_id=7, seq=3),
    JobStateChanged(state="completed", error=None, terminal=True, job_id=7,
                    seq=4),
]


class TestWireSchema:
    @pytest.mark.parametrize("event", SAMPLE_EVENTS,
                             ids=[type(e).__name__ for e in SAMPLE_EVENTS])
    def test_every_event_type_round_trips(self, event):
        wire = event_to_wire(event)
        # Through an actual JSON encode/decode, as the network would.
        rebuilt = event_from_wire(json.loads(json.dumps(wire)))
        assert rebuilt == event
        assert type(rebuilt) is type(event)

    def test_registry_covers_every_event_type(self):
        assert set(EVENT_TYPES) == {"TrialStarted", "TrialReport",
                                    "TrialKilled", "TrialFinished",
                                    "JobStateChanged"}

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            event_from_wire({"type": "Nope", "trial_id": 1})
        with pytest.raises(ValueError, match="unknown event type"):
            event_from_wire({"trial_id": 1})
        with pytest.raises(ValueError, match="must be a dict"):
            event_from_wire(["TrialReport"])

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError, match="malformed TrialStarted"):
            event_from_wire({"type": "TrialStarted"})

    def test_unknown_keys_ignored_for_forward_compat(self):
        wire = event_to_wire(SAMPLE_EVENTS[1])
        wire["added_in_v2"] = "whatever"
        assert event_from_wire(wire) == SAMPLE_EVENTS[1]

    def test_non_event_object_rejected(self):
        with pytest.raises(TypeError):
            event_to_wire({"type": "TrialReport"})

    def test_load_ref_errors(self):
        with pytest.raises(ProtocolError, match="module:attr"):
            load_ref("no-colon")
        with pytest.raises(ProtocolError, match="cannot import"):
            load_ref("definitely_missing_module:attr")
        with pytest.raises(ProtocolError, match="no attribute"):
            load_ref("json:definitely_missing")
        with pytest.raises(ProtocolError, match="string"):
            load_ref(42)

    def test_parse_submit_validation(self, helper_module):
        good = {"space": f"{helper_module}:SPACE",
                "objective": f"{helper_module}:objective"}
        kwargs = parse_submit(dict(good, priority=2, preempt=True, seed=9,
                                   study_name="s", config={"n_trials": 3}))
        assert kwargs["priority"] == 2.0 and kwargs["preempt"] is True
        assert kwargs["seed"] == 9 and kwargs["config"].n_trials == 3
        for bad, match in [
            ({}, "missing required key"),
            ({"space": good["space"]}, "missing required key 'objective'"),
            (dict(good, priority=0), "priority"),
            (dict(good, priority="high"), "priority"),
            (dict(good, preempt="yes"), "preempt"),
            (dict(good, seed="seven"), "seed"),
            (dict(good, seed=True), "seed"),
            (dict(good, study_name=""), "study_name"),
            (dict(good, config={"bogus": 1}), "unknown config keys"),
            (dict(good, config=[1]), "config must be an object"),
            (dict(good, protocol=999), "speaks protocol"),
            (dict(good, objective=f"{helper_module}:NOT_CALLABLE"),
             "callable"),
            ("not-a-dict", "JSON object"),
        ]:
            with pytest.raises(ProtocolError, match=match):
                parse_submit(bad)

    def test_parse_resume_validation(self, helper_module):
        good = {"study_name": "s", "space": f"{helper_module}:SPACE",
                "objective": f"{helper_module}:objective"}
        assert parse_resume(good)["study_name"] == "s"
        with pytest.raises(ProtocolError, match="missing required key"):
            parse_resume({"space": good["space"],
                          "objective": good["objective"]})

    def test_parse_config_none_passthrough(self):
        assert parse_config(None) is None
        assert parse_config({"n_trials": 7}).n_trials == 7

    def test_trial_record_round_trip(self):
        record = {"trial_id": 4, "params": {"x": 0.25}, "state": "completed",
                  "value": 0.9, "duration_seconds": 1.5, "worker": "w-2",
                  "error": None, "intermediate_values": [0.1, 0.5, 0.9]}
        trial = trial_from_record(json.loads(json.dumps(record)))
        assert trial.trial_id == 4
        assert trial.state is TrialState.COMPLETED
        assert trial.value == 0.9
        assert trial.intermediate_values == [0.1, 0.5, 0.9]
        with pytest.raises(ProtocolError, match="malformed trial record"):
            trial_from_record({"params": {}})
        with pytest.raises(ProtocolError, match="must be an object"):
            trial_from_record(None)


class TestHttpEndpoints:
    def test_health_and_status(self, client):
        health = client.health()
        assert health["ok"] is True and health["protocol"] == 1
        status = client.server_status()
        assert status["num_workers"] == 4
        assert {"anttune_transport_dropped_total",
                "anttune_event_queue_dropped_total"} <= set(status["metrics"])

    def test_submit_wait_poll(self, client, helper_module):
        job_id = client.submit(f"{helper_module}:SPACE",
                               f"{helper_module}:objective",
                               config={"n_trials": 4}, seed=11)
        best = client.wait(job_id, timeout=30.0)
        assert best.value is not None
        assert best.state is TrialState.COMPLETED
        status = client.poll(job_id)
        assert status["state"] == "completed"
        assert status["num_trials"] == 4
        assert [j["job_id"] for j in client.jobs()] == [job_id]

    def test_submit_with_config_object_and_seed_is_deterministic(
            self, client, helper_module):
        config = StudyConfig(n_trials=3)
        a = client.submit(f"{helper_module}:SPACE",
                          f"{helper_module}:objective", config=config,
                          seed=123, study_name="det-a")
        b = client.submit(f"{helper_module}:SPACE",
                          f"{helper_module}:objective", config=config,
                          seed=123, study_name="det-b")
        assert client.wait(a, timeout=30.0).value == \
            client.wait(b, timeout=30.0).value

    def test_cancel(self, remote, client, helper_module):
        import remote_wire_helper
        remote_wire_helper.RELEASE.clear()
        job_id = client.submit(f"{helper_module}:SPACE",
                               f"{helper_module}:gated",
                               config={"n_trials": 4})
        try:
            assert client.cancel(job_id) is True
        finally:
            remote_wire_helper.RELEASE.set()
        with pytest.raises(TrialError, match="cancelled"):
            client.wait(job_id, timeout=30.0)
        assert client.cancel(job_id) is False  # already finished

    def test_malformed_requests_answer_4xx_not_crash(self, remote, client,
                                                     helper_module):
        url = remote.url

        def post(path, body, content_type="application/json"):
            request = urllib.request.Request(
                url + path, data=body, method="POST",
                headers={"Content-Type": content_type})
            with urllib.request.urlopen(request, timeout=5.0) as response:
                return response.status

        # Bad JSON body.
        with pytest.raises(urllib.error.HTTPError) as err:
            post("/v1/jobs", b"{not json")
        assert err.value.code == 400
        assert "not valid JSON" in json.loads(err.value.read())["error"]
        err.value.close()  # each error answer holds its connection open
        # No body at all.
        with pytest.raises(urllib.error.HTTPError) as err:
            post("/v1/jobs", b"")
        assert err.value.code == 400
        err.value.close()
        # Unimportable reference.
        with pytest.raises(ValueError, match="cannot import"):
            client.submit("missing_module:SPACE",
                          f"{helper_module}:objective")
        # Unknown endpoint / bad job ids.
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url + "/v1/nope", timeout=5.0)
        assert err.value.code == 404
        err.value.close()
        with pytest.raises(TrialError, match="unknown job"):
            client.poll(12345)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url + "/v1/jobs/abc", timeout=5.0)
        assert err.value.code == 404
        err.value.close()
        # Bad query parameter types.
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url + "/v1/jobs/0/events?last_seq=x",
                                   timeout=5.0)
        assert err.value.code == 400
        err.value.close()
        # The server survived all of that.
        job_id = client.submit(f"{helper_module}:SPACE",
                               f"{helper_module}:objective",
                               config={"n_trials": 2})
        assert client.wait(job_id, timeout=30.0).value is not None

    def test_resume_without_storage_409(self, client, helper_module):
        with pytest.raises(TrialError, match="409"):
            client.resume("ghost", f"{helper_module}:SPACE",
                          f"{helper_module}:objective")

    def test_duplicate_study_name_conflict(self, client, helper_module):
        import remote_wire_helper
        remote_wire_helper.RELEASE.clear()
        job_id = client.submit(f"{helper_module}:SPACE",
                               f"{helper_module}:gated",
                               config={"n_trials": 2}, study_name="dup")
        try:
            with pytest.raises(TrialError, match="409"):
                client.submit(f"{helper_module}:SPACE",
                              f"{helper_module}:gated", study_name="dup")
        finally:
            remote_wire_helper.RELEASE.set()
        client.wait(job_id, timeout=30.0)

    @pytest.mark.parametrize("body, code, expected", [
        (b'{"error": "unknown job id 3"}', 404, TrialError),
        (b"<html>bad gateway</html>", 502, TrialError),
        (b'{"error": "bad body"}', 400, ValueError),
    ])
    def test_sdk_closes_error_answers(self, body, code, expected):
        answer = io.BytesIO(body)
        error = urllib.error.HTTPError("http://x/v1", code, "error", {},
                                       answer)
        assert isinstance(AntTuneClient._to_error(error), expected)
        assert answer.closed  # the connection is released, not left to gc

    def test_bearer_auth(self, helper_module):
        with RemoteTuneServer(num_workers=1, backend="thread",
                              token="sesame") as remote:
            anonymous = AntTuneClient(remote.url, timeout=5.0)
            with pytest.raises(TrialError, match="401"):
                anonymous.health()
            wrong = AntTuneClient(remote.url, token="guess", timeout=5.0)
            with pytest.raises(TrialError, match="401"):
                wrong.health()
            authed = AntTuneClient(remote.url, token="sesame", timeout=5.0)
            assert authed.health()["ok"] is True

    def test_unreachable_server(self):
        stranded = AntTuneClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(TrialError, match="cannot reach"):
            stranded.health()

    def test_stop_without_start_returns(self):
        # BaseServer.shutdown() deadlocks unless serve_forever() is running;
        # stop() must guard that (cleanup paths call it before start()).
        never_started = RemoteTuneServer(num_workers=1, backend="thread")
        never_started.stop()  # must return promptly, not hang

    def test_error_responses_close_the_connection(self, remote):
        # Errors can be answered before the request body was read; closing
        # the connection keeps a keep-alive client from desyncing on the
        # unread bytes.
        import http.client

        host, port = remote.address
        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        try:
            conn.request("POST", "/v1/nope", body=b'{"leftover": 1}',
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()


class TestServerDiesMidRequest:
    """A server killed after reading a request, before answering it, is a
    connection-level failure: retryable, whatever urllib raises for it."""

    @staticmethod
    def _read_request_then_close(listener):
        conn, _ = listener.accept()
        with conn:
            data = b""
            while b"\r\n\r\n" not in data:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                data += chunk

    @pytest.mark.parametrize("call", ["request", "stream"])
    def test_close_without_answer_is_unreachable(self, call):
        from repro.automl.remote.client import _ServerUnreachable

        with socket.create_server(("127.0.0.1", 0)) as listener:
            server = threading.Thread(target=self._read_request_then_close,
                                      args=(listener,))
            server.start()
            client = AntTuneClient(
                f"http://127.0.0.1:{listener.getsockname()[1]}", timeout=5.0)
            with pytest.raises(_ServerUnreachable):
                if call == "request":
                    client._request("GET", "/v1/status")
                else:
                    client._open_stream(0, -1)
            server.join(timeout=5.0)
        assert not server.is_alive()


class TestEventStream:
    def _stream(self, client, job_id, **kwargs):
        return list(client.subscribe(job_id, **kwargs))

    def test_full_stream_ordered_and_typed(self, client, helper_module):
        job_id = client.submit(f"{helper_module}:SPACE",
                               f"{helper_module}:objective",
                               config={"n_trials": 3})
        events = self._stream(client, job_id)
        seqs = [e.seq for e in events]
        assert seqs == list(range(len(events)))  # gapless, monotonic, from 0
        assert all(e.job_id == job_id for e in events)
        assert isinstance(events[-1], JobStateChanged)
        assert events[-1].terminal
        kinds = {type(e).__name__ for e in events}
        assert {"TrialStarted", "TrialReport", "TrialFinished",
                "JobStateChanged"} <= kinds
        # Three trials, three reports each.
        assert sum(isinstance(e, TrialFinished) for e in events) == 3
        assert sum(isinstance(e, TrialReport) for e in events) == 9

    def test_last_seq_resumes_after_the_cut(self, client, helper_module):
        job_id = client.submit(f"{helper_module}:SPACE",
                               f"{helper_module}:objective",
                               config={"n_trials": 2})
        events = self._stream(client, job_id)
        cut = len(events) // 2
        resumed = self._stream(client, job_id, last_seq=events[cut - 1].seq)
        assert [e.seq for e in resumed] == [e.seq for e in events[cut:]]
        assert resumed == events[cut:]

    def test_mid_stream_disconnect_replays_via_last_seq(
            self, client, helper_module, monkeypatch):
        job_id = client.submit(f"{helper_module}:SPACE",
                               f"{helper_module}:objective",
                               config={"n_trials": 3})
        real_open = client._open_stream
        connections = []

        class Cutter:
            """First connection dies after 4 lines, mid-stream."""

            def __init__(self, response, lines_left):
                self._response = response
                self._lines_left = lines_left

            def __iter__(self):
                return self

            def __next__(self):
                if self._lines_left <= 0:
                    raise ConnectionResetError("injected disconnect")
                self._lines_left -= 1
                return next(self._response)

            def close(self):
                self._response.close()

        def flaky_open(job_id, last_seq):
            connections.append(last_seq)
            response = real_open(job_id, last_seq)
            if len(connections) == 1:
                return Cutter(response, 4)
            return response

        monkeypatch.setattr(client, "_open_stream", flaky_open)
        events = self._stream(client, job_id)
        assert len(connections) >= 2  # it really did reconnect
        assert connections[1] >= 0    # ... resuming from a seen seq
        seqs = [e.seq for e in events]
        assert seqs == list(range(len(events)))  # no gap, no duplicate
        assert isinstance(events[-1], JobStateChanged) and events[-1].terminal

    def test_stream_gives_up_without_progress(self, client, helper_module,
                                              monkeypatch):
        from repro.automl.remote.client import _ServerUnreachable

        job_id = client.submit(f"{helper_module}:SPACE",
                               f"{helper_module}:objective",
                               config={"n_trials": 1})
        client.wait(job_id, timeout=30.0)
        client.max_stream_retries = 2
        attempts = []

        def dead_open(job_id, last_seq):
            attempts.append(last_seq)
            raise _ServerUnreachable("injected: connection refused")

        monkeypatch.setattr(client, "_open_stream", dead_open)
        with pytest.raises(TrialError, match="injected"):
            self._stream(client, job_id)
        assert len(attempts) == 3  # initial try + max_stream_retries

    @staticmethod
    def _dropping_open(real_open, drop, connections):
        """An ``_open_stream`` that loses the events whose seq ``drop(seq, n)``
        selects on the n-th connection, as a lossy connection would."""

        class Dropper:
            def __init__(self, response, connection):
                self._response = response
                self._connection = connection

            def __iter__(self):
                for line in self._response:
                    if line.strip() and drop(json.loads(line)["seq"], self._connection):
                        continue
                    yield line

            def close(self):
                self._response.close()

        def dropping_open(job_id, last_seq):
            connections.append(last_seq)
            return Dropper(real_open(job_id, last_seq), len(connections))

        return dropping_open

    def test_gap_reconnects_and_backfills(self, client, helper_module, monkeypatch):
        job_id = client.submit(f"{helper_module}:SPACE",
                               f"{helper_module}:objective",
                               config={"n_trials": 3})
        client.wait(job_id, timeout=30.0)
        connections = []
        monkeypatch.setattr(client, "_open_stream", self._dropping_open(
            client._open_stream, lambda seq, n: n == 1 and 3 <= seq <= 5, connections))
        events = self._stream(client, job_id)
        assert connections == [-1, 2]  # reconnected from the last seq before the gap
        assert [e.seq for e in events] == list(range(len(events)))
        assert events[-1].terminal

    def test_persistent_gap_raises_naming_the_range(self, client, helper_module,
                                                    monkeypatch):
        job_id = client.submit(f"{helper_module}:SPACE",
                               f"{helper_module}:objective",
                               config={"n_trials": 1})
        client.wait(job_id, timeout=30.0)
        client.max_stream_retries = 2
        connections = []
        monkeypatch.setattr(client, "_open_stream", self._dropping_open(
            client._open_stream, lambda seq, n: seq in (2, 3), connections))
        seen = []
        with pytest.raises(TrialError, match=r"seqs 2\.\.3 missing"):
            for event in client.subscribe(job_id):
                seen.append(event.seq)
        assert seen == [0, 1]  # nothing past the gap was yielded
        # The first connection made progress; then the reconnect that found
        # the gap again plus max_stream_retries more.
        assert connections == [-1, 1, 1, 1]

    def test_permanent_errors_are_not_retried(self, client, monkeypatch):
        # An HTTP error *response* (unknown job -> 404) can never change:
        # subscribe must raise immediately instead of backing off through
        # max_stream_retries.
        real_open = client._open_stream
        attempts = []

        def counting_open(job_id, last_seq):
            attempts.append(last_seq)
            return real_open(job_id, last_seq)

        monkeypatch.setattr(client, "_open_stream", counting_open)
        with pytest.raises(TrialError, match="unknown job"):
            self._stream(client, 98765)
        assert len(attempts) == 1

    def test_concurrent_clients_one_server(self, remote, helper_module):
        results = {}
        errors = []

        def one_client(tag):
            try:
                client = AntTuneClient(remote.url, timeout=10.0)
                job_id = client.submit(f"{helper_module}:SPACE",
                                       f"{helper_module}:objective",
                                       config={"n_trials": 2},
                                       study_name=f"concurrent-{tag}")
                events = list(client.subscribe(job_id))
                best = client.wait(job_id, timeout=30.0)
                results[tag] = (job_id, events, best)
            except Exception as exc:  # noqa: BLE001 - surface in main thread
                errors.append((tag, exc))

        threads = [threading.Thread(target=one_client, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors, errors
        assert len(results) == 4
        assert len({job_id for job_id, _, _ in results.values()}) == 4
        for job_id, events, best in results.values():
            assert best.value is not None
            assert [e.seq for e in events] == list(range(len(events)))
            assert all(e.job_id == job_id for e in events)
            assert events[-1].terminal


class TestEndToEnd:
    def test_acceptance_flow(self, helper_module, monkeypatch):
        """The ISSUE acceptance path: two jobs (one preempting), both streams
        reach terminal with per-job monotonic seq, one surviving a mid-stream
        disconnect via last_seq replay."""
        with RemoteTuneServer(num_workers=2, max_concurrent_jobs=2,
                              backend="thread") as remote:
            client = AntTuneClient(remote.url, timeout=10.0)
            bulk = client.submit(f"{helper_module}:SPACE",
                                 f"{helper_module}:slow",
                                 config={"n_trials": 3,
                                         "total_time_limit": 20.0},
                                 study_name="bulk")
            urgent = client.submit(f"{helper_module}:SPACE",
                                   f"{helper_module}:objective",
                                   config={"n_trials": 2}, priority=4.0,
                                   preempt=True, study_name="urgent")
            # The urgent job's stream survives an injected disconnect.
            real_open = client._open_stream
            cut_once = {"done": False}

            class Cutter:
                def __init__(self, response):
                    self._response = response
                    self._lines_left = 2

                def __iter__(self):
                    return self

                def __next__(self):
                    if self._lines_left <= 0:
                        raise ConnectionResetError("injected")
                    self._lines_left -= 1
                    return next(self._response)

                def close(self):
                    self._response.close()

            def flaky_open(job_id, last_seq):
                response = real_open(job_id, last_seq)
                if job_id == urgent and not cut_once["done"]:
                    cut_once["done"] = True
                    return Cutter(response)
                return response

            monkeypatch.setattr(client, "_open_stream", flaky_open)
            urgent_events = list(client.subscribe(urgent))
            assert cut_once["done"]
            assert client.wait(urgent, timeout=30.0).value is not None
            client.cancel(bulk)  # don't sit out the slow sweep
            bulk_events = list(client.subscribe(bulk))
            for job_id, events in ((urgent, urgent_events),
                                   (bulk, bulk_events)):
                assert [e.seq for e in events] == list(range(len(events)))
                assert all(e.job_id == job_id for e in events)
                assert isinstance(events[-1], JobStateChanged)
                assert events[-1].terminal
            assert bulk_events[-1].state == "cancelled"

"""Fleet-tier tests: hash ring, ticket board, pull workers, router, drills.

The fast half runs everything in-process: property-style consistent-hash
ring checks, the ticket board's lease state machine, a pull worker against
a real ``backend="ticket"`` server, and the router's HTTP surface over
thread backends.

The drill half drives :mod:`fleet_harness` — real subprocess backends and
workers behind an in-process router — through the fault-injection
scenarios from the issue: backend crash with ``--recover`` reattach,
backend loss with migration (the acceptance drill: 6 jobs, 2 backends,
2 pull workers, SIGKILL one of each mid-flight), worker loss, split-brain
via SIGSTOP/SIGCONT, and a 30-round randomized chaos drill (marked
``slow``).  Every drill asserts the two fleet contracts: gapless per-job
seq streams and no lost or double-charged trials.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from random import Random

import pytest

from fleet_harness import (
    FLEET_HELPER,
    FLEET_HELPER_SOURCE,
    FleetHarness,
    assert_gapless,
    charged_trials,
    free_port,
    wait_for_health,
)
from repro.automl import cli
from repro.automl.events import (
    JobStateChanged,
    TrialFinished,
    TrialKilled,
    TrialReport,
    TrialStarted,
    event_wire_bytes,
)
from repro.automl.executors import make_executor
from repro.automl.remote.client import AntTuneClient, _reconnect_delay
from repro.automl.remote.http_server import RemoteTuneServer
from repro.automl.remote.router import (
    HashRing,
    RemoteRouterServer,
    TuneRouter,
    _RouterJob,
)
from repro.automl.remote.tickets import TicketTrialExecutor
from repro.automl.remote.worker import TuneWorker
from repro.automl.trial import KILL_CANCELLED, KILL_PREEMPTED, Trial, TrialState
from repro.exceptions import TrialError
from wire_reference import reference_relay_line


@pytest.fixture
def helper_module(tmp_path, monkeypatch):
    """An importable module for in-process servers/workers to resolve refs."""
    module_dir = tmp_path / "modules"
    module_dir.mkdir()
    (module_dir / f"{FLEET_HELPER}.py").write_text(FLEET_HELPER_SOURCE)
    monkeypatch.syspath_prepend(str(module_dir))
    yield FLEET_HELPER
    sys.modules.pop(FLEET_HELPER, None)


# --------------------------------------------------------------------- #
# Consistent-hash ring (property-style)
# --------------------------------------------------------------------- #
class TestHashRing:
    NAMES = [f"study-{i}" for i in range(1000)]

    def test_balance_within_bounds_across_1k_names(self):
        """Each of 4 backends owns a bounded share of 1000 study names."""
        nodes = [f"http://10.0.0.{i}:8123" for i in range(4)]
        ring = HashRing(nodes, replicas=128)
        counts = {node: 0 for node in nodes}
        for name in self.NAMES:
            counts[ring.lookup(name)] += 1
        expected = len(self.NAMES) / len(nodes)
        for node, count in counts.items():
            assert 0.4 * expected <= count <= 1.8 * expected, \
                f"{node} owns {count} of {len(self.NAMES)} (imbalanced)"

    def test_adding_backend_remaps_only_minimal_range(self):
        """New node only *gains* keys; nobody else's keys shuffle around."""
        nodes = [f"n{i}" for i in range(5)]
        ring = HashRing(nodes, replicas=128)
        before = {name: ring.lookup(name) for name in self.NAMES}
        ring.add("n5")
        after = {name: ring.lookup(name) for name in self.NAMES}
        moved = [name for name in self.NAMES if before[name] != after[name]]
        # Every remapped key moved TO the new node — no lateral churn.
        assert all(after[name] == "n5" for name in moved)
        # And only about 1/(n+1) of the key space moved (2x slack).
        assert 0 < len(moved) <= 2 * len(self.NAMES) / 6

    def test_removing_backend_restores_prior_assignment(self):
        """remove() is the exact inverse of add() for every key."""
        nodes = [f"n{i}" for i in range(5)]
        ring = HashRing(nodes, replicas=128)
        before = {name: ring.lookup(name) for name in self.NAMES}
        ring.add("n5")
        ring.remove("n5")
        assert {name: ring.lookup(name) for name in self.NAMES} == before

    def test_removal_only_remaps_removed_nodes_keys(self):
        nodes = [f"n{i}" for i in range(4)]
        ring = HashRing(nodes, replicas=128)
        before = {name: ring.lookup(name) for name in self.NAMES}
        ring.remove("n2")
        for name in self.NAMES:
            if before[name] != "n2":
                assert ring.lookup(name) == before[name]
            else:
                assert ring.lookup(name) != "n2"

    def test_deterministic_across_instances(self):
        """Placement survives router restarts: pure function of the nodes."""
        nodes = ["b", "a", "c"]
        one = HashRing(nodes, replicas=64)
        two = HashRing(sorted(nodes), replicas=64)  # insertion order moot
        for name in self.NAMES[:100]:
            assert one.lookup(name) == two.lookup(name)

    def test_empty_and_membership(self):
        ring = HashRing(replicas=8)
        assert ring.lookup("anything") is None
        assert len(ring) == 0
        ring.add("only")
        ring.add("only")  # idempotent
        assert len(ring) == 1 and "only" in ring
        assert ring.lookup("anything") == "only"
        ring.remove("only")
        ring.remove("only")  # idempotent
        assert "only" not in ring and ring.lookup("anything") is None

    def test_replicas_validated(self):
        with pytest.raises(ValueError, match="replicas"):
            HashRing(replicas=0)


# --------------------------------------------------------------------- #
# SDK reconnect backoff (satellite: jittered exponential)
# --------------------------------------------------------------------- #
class TestReconnectDelay:
    def test_bounded_by_exponential_ceiling(self):
        for attempt in range(12):
            ceiling = min(5.0, 0.1 * (2 ** attempt))
            for _ in range(50):
                delay = _reconnect_delay(attempt)
                assert 0.0 <= delay <= ceiling

    def test_ceiling_doubles_then_caps(self, monkeypatch):
        """With jitter pinned to the ceiling, the schedule is 0.1·2^n capped."""
        import repro.automl.remote.client as client_mod

        monkeypatch.setattr(client_mod.random, "uniform", lambda lo, hi: hi)
        delays = [_reconnect_delay(attempt) for attempt in range(8)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 5.0]

    def test_jitter_actually_spreads(self):
        """Two hundred draws at the same attempt must not collapse."""
        draws = {round(_reconnect_delay(6), 6) for _ in range(200)}
        assert len(draws) > 50  # uniform over [0, 5]: collisions are rare


# --------------------------------------------------------------------- #
# Ticket board (the server side of pull workers)
# --------------------------------------------------------------------- #
def board_objective(trial):
    """Module-level so register_objective can derive a module:attr ref."""
    return trial.params["x"]


def make_record(trial, state="completed", value=0.5, error=None,
                intermediate=(1.0, 2.0)):
    return {"state": state, "value": value, "error": error,
            "duration_seconds": 0.1,
            "intermediate_values": list(intermediate)}


class TestTicketBoard:
    def make_board(self, lease_seconds=5.0):
        return TicketTrialExecutor(2, lease_seconds=lease_seconds)

    def submit_one(self, board, trial_id=0):
        trial = Trial(trial_id=trial_id, params={"x": 0.5})
        future = board.submit(board_objective, trial, None)
        return trial, future

    def test_claim_report_complete_round_trip(self):
        board = self.make_board()
        trial, future = self.submit_one(board)
        lease = board.claim(worker="agent-1")
        assert lease is not None
        assert lease["trial_id"] == 0
        assert lease["params"] == {"x": 0.5}
        assert lease["objective"].endswith(":board_objective")
        assert trial.worker == "agent-1"
        assert board.report(lease["ticket"], lease["token"], 0, 1.0) is None
        assert trial.intermediate_values == [1.0]
        kill = board.complete(lease["ticket"], lease["token"],
                              make_record(trial))
        assert kill is None
        assert future.done() and future.result(timeout=0) is trial
        assert trial.state == TrialState.COMPLETED
        assert trial.value == 0.5
        assert trial.intermediate_values == [1.0, 2.0]
        board.close()

    def test_claim_empty_board_returns_none(self):
        board = self.make_board()
        assert board.claim(worker="idle") is None
        board.close()

    def test_expired_lease_requeues_as_preempted(self):
        """An unheard-from worker's trial cancels preempted = uncharged."""
        board = self.make_board(lease_seconds=0.05)
        trial, future = self.submit_one(board)
        lease = board.claim(worker="doomed")
        time.sleep(0.1)
        board.drain_telemetry()  # the scheduler tick that sweeps leases
        assert future.done()
        assert trial.state == TrialState.CANCELLED
        assert trial.kill_reason == KILL_PREEMPTED
        # The dead worker's late calls are refused, not merged.
        with pytest.raises(TrialError, match="unknown ticket"):
            board.report(lease["ticket"], lease["token"], 1, 2.0)
        with pytest.raises(TrialError, match="unknown ticket"):
            board.complete(lease["ticket"], lease["token"],
                           make_record(trial))
        assert board.board_status()["leases_lost"] == 1
        board.close()

    def test_heartbeat_renews_lease(self):
        board = self.make_board(lease_seconds=0.2)
        trial, future = self.submit_one(board)
        lease = board.claim(worker="beater")
        for _ in range(4):
            time.sleep(0.1)
            board.heartbeat(lease["ticket"], lease["token"])
            board.drain_telemetry()
        assert not future.done()  # 0.4s > lease, but the beats kept it alive
        board.complete(lease["ticket"], lease["token"], make_record(trial))
        assert trial.state == TrialState.COMPLETED
        board.close()

    def test_stale_token_rejected(self):
        board = self.make_board()
        trial, _ = self.submit_one(board)
        lease = board.claim(worker="w")
        with pytest.raises(TrialError, match="stale lease token"):
            board.report(lease["ticket"], "bogus", 0, 1.0)
        with pytest.raises(TrialError, match="stale lease token"):
            board.complete(lease["ticket"], "bogus", make_record(trial))
        board.close()

    def test_kill_open_ticket_resolves_without_worker(self):
        board = self.make_board()
        trial, future = self.submit_one(board)
        board.kill_trial(trial, KILL_CANCELLED)
        assert future.done()
        assert trial.state == TrialState.CANCELLED
        assert board.claim(worker="late") is None  # never handed out
        board.close()

    def test_kill_leased_ticket_delivered_on_next_call(self):
        """A kill lands cooperatively: the worker learns at its next report."""
        board = self.make_board()
        trial, _ = self.submit_one(board)
        lease = board.claim(worker="w")
        board.kill_trial(trial, KILL_CANCELLED)
        assert board.report(lease["ticket"], lease["token"], 0, 1.0) \
            == KILL_CANCELLED

    def test_invalid_record_state_refused_without_losing_ticket(self):
        board = self.make_board()
        trial, future = self.submit_one(board)
        lease = board.claim(worker="w")
        with pytest.raises(TrialError, match="invalid state"):
            board.complete(lease["ticket"], lease["token"],
                           make_record(trial, state="nope"))
        # The ticket survived the bad payload; a correct complete still lands.
        board.complete(lease["ticket"], lease["token"], make_record(trial))
        assert future.done() and trial.state == TrialState.COMPLETED
        board.close()

    def test_shutdown_preempts_open_tickets(self):
        board = self.make_board()
        trial, future = self.submit_one(board)
        board.shutdown()
        assert future.done()
        assert trial.state == TrialState.CANCELLED
        assert trial.kill_reason == KILL_PREEMPTED

    def test_unimportable_objective_refused_at_submit(self):
        board = self.make_board()
        trial = Trial(trial_id=0, params={"x": 0.5})
        with pytest.raises(ValueError, match="module:attr"):
            board.submit(lambda t: 0.0, trial, None)
        board.close()

    def test_make_executor_wires_ticket_backend(self):
        executor = make_executor(2, backend="ticket", lease_seconds=1.5)
        assert isinstance(executor, TicketTrialExecutor)
        assert executor.board_status()["lease_seconds"] == 1.5
        executor.close()
        with pytest.raises(ValueError, match="lease_seconds"):
            make_executor(2, backend="thread", lease_seconds=1.5)


# --------------------------------------------------------------------- #
# Pull worker against a real ticket server (in-process, fast)
# --------------------------------------------------------------------- #
@pytest.fixture
def ticket_remote():
    with RemoteTuneServer(num_workers=2, max_concurrent_jobs=4,
                          backend="ticket", lease_seconds=5.0) as server:
        yield server


class TestPullWorker:
    def run_worker(self, urls, **kwargs):
        kwargs.setdefault("poll_interval", 0.02)
        worker = TuneWorker(urls, **kwargs)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        return worker, thread

    def test_worker_executes_tickets_end_to_end(self, ticket_remote,
                                                helper_module):
        client = AntTuneClient(ticket_remote.url, timeout=10.0)
        worker, thread = self.run_worker([ticket_remote.url], name="w-e2e")
        try:
            job = client.submit(f"{helper_module}:SPACE",
                                f"{helper_module}:objective",
                                config={"n_trials": 2}, seed=1)
            best = client.wait(job, timeout=60.0)
            assert best.value is not None
            finished = [e for e in client.subscribe(job)
                        if isinstance(e, TrialFinished)
                        and e.state == "completed"]
            assert len(finished) == 2
            # Worker attribution flows through the ticket path.
            assert all(e.record.get("worker") == "w-e2e" for e in finished)
            # Intermediate values were mirrored report-by-report.
            assert all(len(e.record["intermediate_values"]) == 3
                       for e in finished)
            status = client.server_status()
            assert status["backend"] == "ticket"
            assert status["tickets"]["lease_seconds"] == 5.0
        finally:
            worker.stop()
            thread.join(timeout=10.0)

    def test_claim_on_non_ticket_backend_is_409(self):
        with RemoteTuneServer(num_workers=1, backend="thread") as remote:
            client = AntTuneClient(remote.url, timeout=5.0)
            with pytest.raises(TrialError, match="not 'ticket'"):
                client._request("POST", "/v1/tickets/claim", {"worker": "w"})

    def test_lost_lease_requeues_uncharged(self, helper_module):
        """A claimed-then-abandoned ticket re-runs; the budget is unharmed."""
        with RemoteTuneServer(num_workers=1, max_concurrent_jobs=2,
                              backend="ticket",
                              lease_seconds=0.3) as remote:
            client = AntTuneClient(remote.url, timeout=10.0)
            job = client.submit(f"{helper_module}:SPACE",
                                f"{helper_module}:objective",
                                config={"n_trials": 1}, seed=3)
            # A "worker" that claims and immediately dies.
            deadline = time.monotonic() + 10.0
            lease = None
            while lease is None and time.monotonic() < deadline:
                lease = client._request("POST", "/v1/tickets/claim",
                                        {"worker": "ghost"})["ticket"]
                if lease is None:
                    time.sleep(0.05)
            assert lease is not None
            # Now a real worker picks up the requeued config.
            worker, thread = self.run_worker([remote.url], name="survivor")
            try:
                client.wait(job, timeout=60.0)
                events = list(client.subscribe(job))
            finally:
                worker.stop()
                thread.join(timeout=10.0)
            assert_gapless(events)
            completed = [e for e in events if isinstance(e, TrialFinished)
                         and e.state == "completed"]
            assert len(completed) == 1  # exactly the budget, not double
            assert completed[0].record["worker"] == "survivor"

    def test_worker_requires_servers(self):
        with pytest.raises(ValueError, match="at least one server"):
            TuneWorker([])


# --------------------------------------------------------------------- #
# Router over in-process backends (fast HTTP surface coverage)
# --------------------------------------------------------------------- #
@pytest.fixture
def fleet2(helper_module):
    """Two self-executing backends behind an in-process router."""
    b1 = RemoteTuneServer(num_workers=2, max_concurrent_jobs=4,
                          backend="thread").start()
    b2 = RemoteTuneServer(num_workers=2, max_concurrent_jobs=4,
                          backend="thread").start()
    front = RemoteRouterServer([b1.url, b2.url], health_interval=0.2,
                               health_timeout=0.5,
                               unhealthy_after=2).start()
    try:
        yield front, (b1, b2)
    finally:
        front.stop()
        b1.stop()
        b2.stop()


class TestRouterSurface:
    def test_submit_stream_status_metrics(self, fleet2, helper_module):
        front, _ = fleet2
        client = AntTuneClient(front.url, timeout=10.0)
        job = client.submit(f"{helper_module}:SPACE",
                            f"{helper_module}:objective",
                            config={"n_trials": 2}, seed=2,
                            request_id="trace-surface")
        best = client.wait(job, timeout=60.0)
        assert best.value is not None
        events = list(client.subscribe(job))
        assert_gapless(events)
        assert all(e.trace_id == "trace-surface" for e in events)
        assert len(charged_trials(events)) == 2

        status = client.poll(job)
        assert status["job_id"] == job
        assert status["state"] == "completed"
        assert status["trace_id"] == "trace-surface"
        assert status["migrations"] == 0
        assert status["backend"].startswith("http://")
        assert status["num_trials"] == 2  # merged from the backend's view

        jobs = client.jobs()
        assert [j["job_id"] for j in jobs] == [job]
        wide = client.server_status()
        assert wide["role"] == "router"
        assert wide["num_backends"] == 2
        assert all(b["healthy"] for b in wide["backends"])

        text = client.metrics()
        assert "anttune_router_jobs_total" in text
        assert text.count("# backend http://") == 2

    def test_placement_follows_the_ring(self, fleet2, helper_module):
        front, (b1, b2) = fleet2
        client = AntTuneClient(front.url, timeout=10.0)
        ring = HashRing([b1.url, b2.url], replicas=64)  # router's default
        for i in range(4):
            name = f"pinned-{i}"
            job = client.submit(f"{helper_module}:SPACE",
                                f"{helper_module}:objective",
                                config={"n_trials": 1}, seed=i,
                                study_name=name)
            assert client.poll(job)["backend"] == ring.lookup(name)

    def test_stream_resumes_from_last_seq(self, fleet2, helper_module):
        front, _ = fleet2
        client = AntTuneClient(front.url, timeout=10.0)
        job = client.submit(f"{helper_module}:SPACE",
                            f"{helper_module}:objective",
                            config={"n_trials": 1}, seed=5)
        client.wait(job, timeout=60.0)
        full = list(client.subscribe(job))
        assert_gapless(full)
        tail = list(client.subscribe(job, last_seq=full[2].seq))
        assert [e.seq for e in tail] == [e.seq for e in full[3:]]

    def test_cancel_through_router(self, fleet2, helper_module):
        front, _ = fleet2
        client = AntTuneClient(front.url, timeout=10.0)
        job = client.submit(f"{helper_module}:SPACE",
                            f"{helper_module}:very_slow",
                            config={"n_trials": 2}, seed=6)
        assert client.cancel(job) is True
        with pytest.raises(TrialError, match="cancelled"):
            client.wait(job, timeout=60.0)
        events = list(client.subscribe(job))
        assert_gapless(events)
        assert events[-1].state == "cancelled"
        assert client.cancel(job) is False  # already terminal

    def test_bad_bodies_are_400(self, fleet2):
        front, _ = fleet2
        client = AntTuneClient(front.url, timeout=5.0)
        with pytest.raises(ValueError, match="module:attr"):
            client._request("POST", "/v1/jobs", {"space": "no-colon",
                                                 "objective": "x:y"})
        with pytest.raises(ValueError, match="study_name"):
            client._request("POST", "/v1/resume", {"space": "m:SPACE",
                                                   "objective": "m:obj"})
        with pytest.raises(ValueError, match="protocol"):
            client._request("POST", "/v1/jobs", {"space": "m:S",
                                                 "objective": "m:o",
                                                 "protocol": 99})

    def test_unknown_job_is_404(self, fleet2):
        front, _ = fleet2
        client = AntTuneClient(front.url, timeout=5.0)
        with pytest.raises(TrialError, match="unknown job"):
            client.poll(999)
        with pytest.raises(TrialError, match="unknown job"):
            client.cancel(999)


# --------------------------------------------------------------------- #
# Router relay: wire dicts re-stamped, one byte journal
# --------------------------------------------------------------------- #
#: A backend's stream for its job 5: every event type, nested values, NaN.
BACKEND_STREAM = [
    JobStateChanged(state="queued", job_id=5, seq=0, trace_id="trace-b"),
    JobStateChanged(state="running", job_id=5, seq=1, trace_id="trace-b"),
    TrialStarted(trial_id=0, params={"x": 0.5, "opt": {"lr": [1e-3, 2]}},
                 worker="worker-0", job_id=5, seq=2, trace_id="trace-b"),
    TrialReport(trial_id=0, step=0, value=float("nan"), job_id=5, seq=3,
                trace_id="trace-b"),
    TrialKilled(trial_id=0, reason="pruned", job_id=5, seq=4),
    TrialFinished(trial_id=0, state="pruned", value=None,
                  record={"trial_id": 0, "params": {"x": 0.5}, "value": None,
                          "intermediate_values": [float("nan")]},
                  job_id=5, seq=5, trace_id="trace-b"),
    JobStateChanged(state="completed", terminal=True, job_id=5, seq=6,
                    trace_id="trace-b"),
]
BACKEND_LINES = [event_wire_bytes(e) for e in BACKEND_STREAM]


class _CannedStream:
    """A backend event stream served from fixed NDJSON lines."""

    def __init__(self, lines):
        self._lines = list(lines)

    def __iter__(self):
        return iter(self._lines)

    def close(self):
        pass


def _with_key(line, key, value):
    payload = json.loads(line)
    payload[key] = value
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def _without_key(line, key):
    payload = json.loads(line)
    del payload[key]
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class TestRouterRelay:
    """The relay re-stamps wire dicts; its journal is the typed path's."""

    URL = "http://127.0.0.1:9"  # never contacted: streams are injected

    def _relay(self, monkeypatch, connections):
        """Run one relay over canned backend connections; return the job."""
        router = TuneRouter([self.URL])
        backend = router._backends[self.URL]
        job = _RouterJob(7, "relay-study", "trace-r", "submit", {}, self.URL,
                         5)
        opened = []

        def canned_open(job_id, last_seq):
            opened.append(last_seq)
            return _CannedStream(connections[len(opened) - 1])

        monkeypatch.setattr(backend.client, "_open_stream", canned_open)
        router._relay(job, backend, 5, incarnation=0, last_seq=-1)
        return job, opened

    @staticmethod
    def _typed_journal(lines):
        return [reference_relay_line(line, 7, seq, "trace-r")
                for seq, line in enumerate(lines)]

    def test_journal_lines_are_the_typed_path_bytes(self, monkeypatch):
        lines = list(BACKEND_LINES)
        # A newer backend's extra key is dropped, as the typed path drops it.
        lines[3] = _with_key(lines[3], "added_by_a_newer_backend", {"k": 1})
        job, opened = self._relay(monkeypatch, [lines])
        assert opened == [-1]
        assert job.journal_bytes == self._typed_journal(BACKEND_LINES)
        assert b"added_by_a_newer_backend" not in b"".join(job.journal_bytes)
        assert job.terminal and job.state == "completed"
        assert job.backend_last_seq == 6

    def test_bad_lines_and_gaps_reconnect_from_the_last_seq(self,
                                                             monkeypatch):
        lines = BACKEND_LINES
        connections = [
            # An unknown event type after seq 0.
            lines[:1] + [_with_key(lines[1], "type", "TrialExploded")],
            # Overlap replay, then seq 1, then a required field missing.
            lines[:2] + [_without_key(lines[2], "trial_id")],
            # seq 2, then a non-integer seq.
            lines[2:3] + [_with_key(lines[3], "seq", "3")],
            # seq 3, then a gap: 4 is missing.
            lines[3:4] + lines[5:],
            # The backfill heals it.
            lines[4:],
        ]
        job, opened = self._relay(monkeypatch, connections)
        assert opened == [-1, 0, 1, 2, 3]
        assert job.journal_bytes == self._typed_journal(BACKEND_LINES)
        assert job.terminal

    def test_best_from_journal_decodes_the_lines(self, monkeypatch):
        finished = TrialFinished(trial_id=1, state="completed", value=0.9,
                                 record={"trial_id": 1, "value": 0.9},
                                 job_id=5, seq=6, trace_id="trace-b")
        terminal = JobStateChanged(state="completed", terminal=True, job_id=5,
                                   seq=7, trace_id="trace-b")
        lines = BACKEND_LINES[:6] + [event_wire_bytes(finished),
                                     event_wire_bytes(terminal)]
        job, _ = self._relay(monkeypatch, [lines])
        router = TuneRouter([self.URL])
        assert router._best_from_journal(job) == {"trial_id": 1, "value": 0.9}


# --------------------------------------------------------------------- #
# Fault-injection drills (subprocess fleet behind the harness)
# --------------------------------------------------------------------- #
class TestFleetDrills:
    def submit_jobs(self, fleet, client, count, objective=None, n_trials=2):
        jobs = []
        for i in range(count):
            job = client.submit(fleet.space_ref,
                                objective or fleet.slow_ref,
                                config={"n_trials": n_trials}, seed=i,
                                request_id=f"trace-{i}")
            jobs.append(job)
        return jobs

    def test_acceptance_drill_backend_and_worker_loss(self, tmp_path):
        """The issue's acceptance drill, verbatim.

        6 jobs through the router to 2 ticket backends with 2 pull
        workers; SIGKILL one backend and one worker mid-flight.  Every job
        reaches a terminal state, migrated jobs keep their original job id
        and trace id, replayed streams have gapless seqs, and no trial is
        charged twice.
        """
        with FleetHarness(tmp_path, n_backends=2, n_workers=2,
                          backend="ticket", lease_seconds=2.0) as fleet:
            client = fleet.client()
            jobs = self.submit_jobs(fleet, client, 6)
            placed = {job: client.poll(job)["backend"] for job in jobs}
            # Kill once the victim's first job is genuinely mid-flight: a
            # worker claimed one of its tickets and is reporting from it.
            # A fixed sleep would race the workers' start-up time.
            stream = client.subscribe(jobs[0])
            for event in stream:
                if isinstance(event, TrialReport):
                    break
            stream.close()

            victim_url = placed[jobs[0]]
            fleet.kill_backend(fleet.backend_index_of(victim_url))
            fleet.kill_worker(0)

            for job in jobs:
                best = client.wait(job, timeout=120.0)
                assert best.value is not None

            migrated = 0
            for job in jobs:
                status = client.poll(job)
                assert status["state"] == "completed"
                # Identity survives migration: same router job id (we are
                # polling by it), same trace id end to end.
                assert status["trace_id"] == f"trace-{job}"
                if placed[job] == victim_url:
                    migrated += 1
                    assert status["migrations"] >= 1
                    assert status["backend"] != victim_url
                events = list(client.subscribe(job))
                assert_gapless(events)
                assert all(e.trace_id == f"trace-{job}" for e in events)
                assert len(charged_trials(events)) == 2
            assert migrated >= 1, "the killed backend hosted no job"

    def test_backend_crash_recover_reattaches_stream(self, tmp_path):
        """A lone backend dies and returns: recovery, not migration.

        With nowhere to migrate, the router must wait out the outage and
        reattach to the recovered job under its original backend id — the
        journal spans the crash gaplessly and the budget is uncharged.
        """
        with FleetHarness(tmp_path, n_backends=1, n_workers=0,
                          backend="thread") as fleet:
            client = fleet.client()
            job = client.submit(fleet.space_ref, fleet.very_slow_ref,
                                config={"n_trials": 2}, seed=0,
                                request_id="trace-crash")
            time.sleep(1.0)  # mid-trial
            fleet.kill_backend(0)
            time.sleep(0.5)  # let the router notice the outage
            fleet.restart_backend(0)

            best = client.wait(job, timeout=120.0)
            assert best.value is not None
            status = client.poll(job)
            assert status["state"] == "completed"
            assert status["migrations"] == 0  # reattached, never migrated
            events = list(client.subscribe(job))
            assert_gapless(events)
            assert len(charged_trials(events)) == 2

    def test_worker_loss_drill(self, tmp_path):
        """A worker dies holding leases; its configs requeue uncharged."""
        with FleetHarness(tmp_path, n_backends=1, n_workers=2,
                          backend="ticket", lease_seconds=1.5) as fleet:
            client = fleet.client()
            jobs = self.submit_jobs(fleet, client, 2)
            time.sleep(1.0)  # leases out on both workers
            fleet.kill_worker(0)
            for job in jobs:
                client.wait(job, timeout=120.0)
                events = list(client.subscribe(job))
                assert_gapless(events)
                assert len(charged_trials(events)) == 2

    def test_split_brain_drill(self, tmp_path):
        """A frozen (SIGSTOP) backend is migrated away from; its late
        wake-up (SIGCONT) must not corrupt the journal."""
        with FleetHarness(tmp_path, n_backends=2, n_workers=0,
                          backend="thread") as fleet:
            client = fleet.client()
            job = client.submit(fleet.space_ref, fleet.very_slow_ref,
                                config={"n_trials": 2}, seed=1,
                                request_id="trace-split")
            frozen_url = client.poll(job)["backend"]
            time.sleep(0.8)  # mid-trial
            frozen = fleet.backend_index_of(frozen_url)
            fleet.pause_backend(frozen)

            # The router must declare the frozen backend dead and migrate.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if client.poll(job)["migrations"] >= 1:
                    break
                time.sleep(0.2)
            status = client.poll(job)
            assert status["migrations"] >= 1, "job never migrated away"
            assert status["backend"] != frozen_url

            # Partition heals: the stale side wakes and keeps publishing
            # into its (now-detached) incarnation.
            fleet.resume_backend(frozen)

            best = client.wait(job, timeout=120.0)
            assert best.value is not None
            events = list(client.subscribe(job))
            assert_gapless(events)  # stale events would tear the seq line
            assert all(e.trace_id == "trace-split" for e in events)
            assert len(charged_trials(events)) == 2


@pytest.mark.slow
class TestChaosDrill:
    def test_thirty_rounds_of_kill_and_restart(self, tmp_path):
        """Satellite chaos drill: every round SIGKILLs one backend (then
        restarts it with --recover) and one worker (then replaces it);
        every job still reaches a terminal state with a gapless stream."""
        rng = Random(0xF1EE7)
        jobs = []
        with FleetHarness(tmp_path, n_backends=2, n_workers=2,
                          backend="ticket", lease_seconds=1.0,
                          run_seconds=600.0) as fleet:
            client = fleet.client()
            for round_no in range(30):
                job = client.submit(fleet.space_ref, fleet.objective_ref,
                                    config={"n_trials": 1}, seed=round_no,
                                    request_id=f"chaos-{round_no}")
                jobs.append(job)
                victim_backend = rng.randrange(len(fleet.backends))
                victim_worker = rng.randrange(len(fleet.workers))
                fleet.kill_backend(victim_backend)
                fleet.kill_worker(victim_worker)
                fleet.restart_backend(victim_backend)
                fleet.start_worker()
                # Bound each round: the fleet must absorb the double fault
                # and finish the round's job before the next one fires.
                deadline = time.monotonic() + 90.0
                while time.monotonic() < deadline:
                    if client.poll(job)["finished"]:
                        break
                    time.sleep(0.1)
                assert client.poll(job)["finished"], \
                    f"round {round_no}: job {job} never terminated"

            for job in jobs:
                status = client.poll(job)
                assert status["finished"], f"job {job} not terminal"
                events = list(client.subscribe(job))
                assert_gapless(events)
                charged_trials(events)  # asserts no double-charge


# --------------------------------------------------------------------- #
# CLI: route/work plumbing and the metrics --watch reconnect satellite
# --------------------------------------------------------------------- #
class TestFleetCli:
    def test_route_requires_backends(self):
        lines = []
        assert cli.main(["route", "--run-seconds", "0"],
                        out=lines.append) == 2
        assert any("--backend" in line for line in lines)

    def test_lease_seconds_needs_ticket_backend(self, tmp_path):
        lines = []
        code = cli.main(["--db", str(tmp_path / "x.db"), "serve",
                         "--backend", "thread", "--lease-seconds", "3",
                         "--run-seconds", "0"], out=lines.append)
        assert code == 2
        assert any("--backend ticket" in line for line in lines)

    def test_route_serves_and_work_drains(self, tmp_path, helper_module):
        """`route` + `work` end to end, in-process via cli.main threads."""
        backend = RemoteTuneServer(num_workers=1, backend="ticket",
                                   lease_seconds=5.0).start()
        try:
            port = free_port()
            route_lines = []
            route_thread = threading.Thread(
                target=cli.main,
                args=(["route", "--backend", backend.url,
                       "--port", str(port), "--run-seconds", "8"],),
                kwargs={"out": route_lines.append}, daemon=True)
            route_thread.start()
            url = f"http://127.0.0.1:{port}"
            wait_for_health(url)

            work_lines = []
            work_thread = threading.Thread(
                target=cli.main,
                args=(["work", backend.url, "--name", "cli-worker",
                       "--poll-interval", "0.02", "--run-seconds", "6",
                       "--max-tickets", "1"],),
                kwargs={"out": work_lines.append}, daemon=True)
            work_thread.start()

            client = AntTuneClient(url, timeout=10.0)
            job = client.submit(f"{helper_module}:SPACE",
                                f"{helper_module}:objective",
                                config={"n_trials": 1}, seed=0)
            best = client.wait(job, timeout=30.0)
            assert best.value is not None
            work_thread.join(timeout=30.0)
            route_thread.join(timeout=30.0)
            assert any("routing AntTune" in line for line in route_lines)
            assert any("completed=1" in line for line in work_lines)
        finally:
            backend.stop()

    def test_metrics_watch_survives_server_restart(self):
        """Satellite: --watch prints one warning per outage and recovers."""
        port = free_port()
        first = RemoteTuneServer(num_workers=1, backend="thread",
                                 port=port).start()
        url = f"http://127.0.0.1:{port}"
        lines = []
        done = []

        def watch():
            done.append(cli.main(
                ["metrics", "--server", url, "--watch", "0.1",
                 "--count", "40"], out=lines.append))

        thread = threading.Thread(target=watch, daemon=True)
        thread.start()
        # Let a few renders land, then yank the server mid-watch.
        deadline = time.monotonic() + 10.0
        while not any("anttune" in line for line in lines):
            assert time.monotonic() < deadline
            time.sleep(0.05)
        first.stop()
        # A few failed polls later, bring it back on the same port.
        time.sleep(0.5)
        second = RemoteTuneServer(num_workers=1, backend="thread",
                                  port=port).start()
        try:
            thread.join(timeout=30.0)
            assert done == [0], "watch loop died instead of reconnecting"
            warnings = [line for line in lines
                        if line.startswith("warning: cannot fetch")]
            assert len(warnings) == 1  # one line per outage, not per poll
            # Renders resumed after the warning.
            tail = lines[lines.index(warnings[0]) + 1:]
            assert any("anttune" in line for line in tail)
        finally:
            second.stop()

    def test_metrics_one_shot_still_fails_loudly(self):
        port = free_port()
        lines = []
        code = cli.main(["metrics", "--server",
                         f"http://127.0.0.1:{port}"], out=lines.append)
        assert code == 1
        assert any(line.startswith("error:") for line in lines)

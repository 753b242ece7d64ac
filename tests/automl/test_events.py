"""Tests for the event-driven control plane: the typed event bus, the
shared-memory telemetry transport, server-side subscriptions, and fair-share
preemption (``submit(..., preempt=True)``)."""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import threading
import time

import numpy as np
import pytest

from repro.automl import (
    AntTuneServer,
    EventBus,
    FairShareGovernor,
    JobState,
    JobStateChanged,
    RandomSearch,
    Study,
    StudyConfig,
    StudyStorage,
    TelemetryTransport,
    TrialFinished,
    TrialKilled,
    TrialReport,
    TrialStarted,
    make_executor,
)
from repro.automl.eventlog import EventLog
from repro.automl.events import (
    EventCursor,
    EventWindow,
    _canonical_wire,
    event_from_wire,
    event_to_wire,
    event_wire_bytes,
)
from repro.automl.scheduler import AsyncScheduler
from repro.automl.search_space import SearchSpace, Uniform
from repro.automl.pruners import MedianPruner
from repro.automl.trial import KILL_PREEMPTED, KILLED_STATES, TrialState
from repro.exceptions import TrialError
from wire_reference import (
    reference_event_from_wire,
    reference_event_to_wire,
    reference_line,
)


@pytest.fixture
def space():
    return SearchSpace({"x": Uniform(0.0, 1.0)})


def _study(space, seed=0, **config):
    return Study(space, algorithm=RandomSearch(rng=np.random.default_rng(seed)),
                 config=StudyConfig(**config), rng=np.random.default_rng(seed))


# ----------------------------------------------------------------------- #
# EventBus
# ----------------------------------------------------------------------- #
class TestEventBus:
    def test_publish_stamps_monotonic_per_job_seq(self):
        bus = EventBus()
        a0 = bus.publish(TrialStarted(trial_id=0, job_id=1))
        b0 = bus.publish(TrialStarted(trial_id=0, job_id=2))
        a1 = bus.publish(TrialReport(trial_id=0, step=0, value=0.5, job_id=1))
        assert (a0.seq, a1.seq) == (0, 1)
        assert b0.seq == 0  # independent stream per job

    def test_iterator_delivers_in_order_and_terminates(self):
        bus = EventBus()
        sub = bus.subscribe(7)
        bus.publish(TrialStarted(trial_id=0, job_id=7))
        bus.publish(TrialReport(trial_id=0, step=0, value=0.1, job_id=7))
        bus.publish(TrialFinished(trial_id=0, state="completed", value=0.1,
                                  job_id=7))
        bus.publish(JobStateChanged(state="completed", terminal=True, job_id=7))
        events = list(sub)
        assert [type(e).__name__ for e in events] == [
            "TrialStarted", "TrialReport", "TrialFinished", "JobStateChanged"]
        assert [e.seq for e in events] == [0, 1, 2, 3]
        assert events[-1].terminal is True
        assert list(sub) == []  # exhausted, does not block

    def test_subscribe_after_terminal_replays_and_terminates(self):
        bus = EventBus()
        bus.publish(TrialStarted(trial_id=0, job_id=3))
        bus.publish(JobStateChanged(state="cancelled", terminal=True, job_id=3))
        late = bus.subscribe(3)
        events = list(late)
        # Bounded replay: the late subscriber sees the whole stream, ending
        # with the terminal event.
        assert [type(e).__name__ for e in events] == ["TrialStarted",
                                                      "JobStateChanged"]
        assert events[-1].state == "cancelled"
        assert bus.terminated(3)

    def test_subscribe_mid_stream_replays_earlier_events(self):
        bus = EventBus()
        bus.publish(TrialStarted(trial_id=0, job_id=4))
        bus.publish(TrialReport(trial_id=0, step=0, value=0.5, job_id=4))
        sub = bus.subscribe(4)  # attached late, before the stream ends
        bus.publish(JobStateChanged(state="completed", terminal=True, job_id=4))
        events = list(sub)
        assert [e.seq for e in events] == [0, 1, 2]

    def test_history_limit_bounds_replay(self):
        bus = EventBus(history_limit=3)
        for step in range(10):
            bus.publish(TrialReport(trial_id=0, step=step, value=0.0, job_id=1))
        bus.publish(JobStateChanged(state="completed", terminal=True, job_id=1))
        events = list(bus.subscribe(1))
        assert len(events) == 3  # oldest shed, terminal kept
        assert isinstance(events[-1], JobStateChanged)

    def test_evicted_job_still_replays_terminal(self):
        # After retained_jobs terminated jobs, the oldest job's stream state
        # is evicted down to its terminal event — a late subscriber must
        # still observe termination (and must not hang).
        bus = EventBus(retained_jobs=2)
        for job_id in range(4):
            bus.publish(TrialStarted(trial_id=0, job_id=job_id))
            bus.publish(JobStateChanged(state="completed", terminal=True,
                                        job_id=job_id))
        evicted = list(bus.subscribe(0))  # jobs 0 and 1 evicted (keep 2)
        assert len(evicted) == 1
        assert isinstance(evicted[0], JobStateChanged)
        assert evicted[0].terminal is True
        retained = list(bus.subscribe(3))  # full replay still available
        assert [type(e).__name__ for e in retained] == ["TrialStarted",
                                                        "JobStateChanged"]

    def test_bounded_queue_sheds_oldest_but_keeps_terminal(self):
        # The bound is the bus history: without an event log, a reader
        # attached at the start but read only after the job ended skips
        # what the history shed, and counts every skipped seq.
        bus = EventBus(history_limit=4)
        sub = bus.subscribe(1)
        for step in range(10):
            bus.publish(TrialReport(trial_id=0, step=step, value=0.0, job_id=1))
        bus.publish(JobStateChanged(state="completed", terminal=True, job_id=1))
        events = list(sub)
        # Ordered subsequence, ending with the terminal event.
        seqs = [e.seq for e in events]
        assert seqs == [7, 8, 9, 10]
        assert isinstance(events[-1], JobStateChanged)
        assert bus.dropped(1) == 7

    def test_callback_form_runs_synchronously(self):
        bus = EventBus()
        seen = []
        bus.subscribe(5, callback=seen.append)
        bus.publish(TrialStarted(trial_id=0, job_id=5))
        bus.publish(JobStateChanged(state="failed", terminal=True, job_id=5))
        assert [type(e).__name__ for e in seen] == ["TrialStarted",
                                                    "JobStateChanged"]

    def test_events_for_other_jobs_not_delivered(self):
        bus = EventBus()
        sub = bus.subscribe(1)
        bus.publish(TrialStarted(trial_id=9, job_id=2))
        bus.publish(JobStateChanged(state="completed", terminal=True, job_id=1))
        events = list(sub)
        assert len(events) == 1 and isinstance(events[0], JobStateChanged)

    def test_close_wakes_blocked_consumer(self):
        bus = EventBus()
        sub = bus.subscribe(1)
        got = []
        thread = threading.Thread(target=lambda: got.extend(sub))
        thread.start()
        time.sleep(0.05)
        sub.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got == []

    def test_get_timeout(self):
        sub = EventBus().subscribe(1)
        with pytest.raises(TimeoutError):
            sub.get(timeout=0.01)

    def test_concurrent_subscribers_see_complete_ordered_stream(self):
        # Subscribers attaching at arbitrary points mid-stream must observe
        # the complete sequence 0..N — replay covers the past, the delivery
        # turnstile hands them everything still in flight — with no gaps and
        # no duplicates, while a second job's publisher churns in parallel.
        bus = EventBus()
        total = 400
        received = []
        received_lock = threading.Lock()

        def consume():
            events = list(bus.subscribe(1))
            with received_lock:
                received.append([e.seq for e in events])

        def publish_all():
            for step in range(total):
                bus.publish(TrialReport(trial_id=0, step=step, value=0.0,
                                        job_id=1))
                bus.publish(TrialReport(trial_id=9, step=step, value=0.0,
                                        job_id=2))  # co-tenant churn
            bus.publish(JobStateChanged(state="completed", terminal=True,
                                        job_id=1))

        consumers = [threading.Thread(target=consume) for _ in range(4)]
        publisher = threading.Thread(target=publish_all)
        consumers[0].start()
        publisher.start()
        for thread in consumers[1:]:
            time.sleep(0.005)  # stagger attachment mid-stream
            thread.start()
        publisher.join(timeout=30.0)
        for thread in consumers:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert len(received) == 4
        expected = list(range(total + 1))  # reports + terminal, seq 0..N
        for seqs in received:
            assert seqs == expected


class TestCursorUnderConcurrentPublishers:
    @pytest.mark.parametrize("logged", [True, False])
    def test_cursors_stay_exact_under_concurrent_publishers(self, tmp_path,
                                                            logged):
        """Eight threads publish into one job with a 2-event history and a
        tiny switch interval while three cursors read on threads of their
        own: every cursor stays in order and ends at the terminal event;
        with a log none has a gap, without one its gaps are the drops."""
        bus = EventBus(history_limit=2)
        log = EventLog(str(tmp_path / "events")) if logged else None
        if log is not None:
            bus.subscribe(1, callback=log.append)
        cursors = [EventCursor(bus, 1, log) for _ in range(3)]
        streams = [[] for _ in cursors]
        readers = [threading.Thread(target=lambda c=c, out=out: out.extend(
                       event.seq for event in c), daemon=True)
                   for c, out in zip(cursors, streams)]

        def publish():
            for step in range(200):
                bus.publish(TrialReport(trial_id=0, step=step, job_id=1))

        publishers = [threading.Thread(target=publish) for _ in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers + publishers:
                thread.start()
            for thread in publishers:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in publishers)
            bus.publish(JobStateChanged(state="completed", terminal=True,
                                        job_id=1))
            for thread in readers:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in readers)
        finally:
            sys.setswitchinterval(previous)
            for cursor in cursors:
                cursor.close()  # wakes a reader that never finished
            if log is not None:
                log.close()
        missing = 0
        for seqs in streams:
            assert seqs == sorted(set(seqs)), "out of order or repeated"
            assert seqs[-1] == 1600  # the terminal event, read last
            missing += 1601 - len(seqs)
            if logged:
                assert seqs == list(range(1601))
        assert missing == bus.dropped(1)

    def test_a_delivery_during_a_read_wakes_the_wait(self):
        """The race a stress run rarely hits, forced: the terminal event is
        delivered after the cursor's window read came back empty and
        before it waits, so a wake-up flag cleared late would sleep
        through it."""
        bus = EventBus()
        cursor = bus.subscribe(1)
        read = cursor._window.read

        def racing_read(after_seq, budget, frame=None):
            got = read(after_seq, budget, frame)
            if not bus.terminated(1):
                bus.publish(JobStateChanged(state="completed", terminal=True,
                                            job_id=1))
            return got

        cursor._window.read = racing_read
        try:
            assert cursor.get(timeout=2.0).terminal
            assert cursor.get(timeout=0.0) is None
        finally:
            cursor.close()


class TestWindowOpen:
    """A window reads the history by cursor: the replay at its open only
    sets the last delivered seq and the terminal's, and its ``wake`` runs
    for live deliveries alone."""

    @staticmethod
    def _replayed(bus, job_id):
        """``(seen, final)`` as a replaying callback subscriber ends up."""
        state = {"seen": -1, "final": None}

        def observe(event):
            state["seen"] = event.seq
            if isinstance(event, JobStateChanged) and event.terminal:
                state["final"] = event.seq

        bus.subscribe(job_id, callback=observe).close()
        return state["seen"], state["final"]

    @staticmethod
    def _open(bus, job_id):
        wakes = []
        window = EventWindow(bus, job_id, None, live=True,
                             wake=lambda: wakes.append(1))
        return window, wakes

    def test_open_over_a_full_history_makes_no_wake_call(self):
        bus = EventBus()
        for step in range(8192):
            bus.publish(TrialReport(trial_id=0, step=step, job_id=1))
        window, wakes = self._open(bus, 1)
        assert wakes == []
        assert (window.seen, window.final) == (8191, None)
        bus.publish(JobStateChanged(state="completed", terminal=True,
                                    job_id=1))
        assert len(wakes) == 1
        assert (window.seen, window.final) == (8192, 8192)
        window.close()

    @pytest.mark.parametrize("case", ["empty", "primed", "running", "shed",
                                      "finished", "evicted"])
    def test_seen_and_final_match_a_replaying_subscriber(self, case):
        bus = EventBus(history_limit=4, retained_jobs=1)
        if case == "primed":
            bus.prime(1, 50)
        if case not in ("empty", "primed"):
            for step in range(10 if case == "shed" else 3):
                bus.publish(TrialReport(trial_id=0, step=step, job_id=1))
        if case in ("finished", "evicted"):
            bus.publish(JobStateChanged(state="completed", terminal=True,
                                        job_id=1))
        if case == "evicted":
            bus.publish(JobStateChanged(state="completed", terminal=True,
                                        job_id=2))
        window, wakes = self._open(bus, 1)
        assert wakes == []
        assert (window.seen, window.final) == self._replayed(bus, 1)
        window.close()


# ----------------------------------------------------------------------- #
# Wire payload
# ----------------------------------------------------------------------- #
_RECORD = {"trial_id": 4, "state": "completed", "value": float("nan"),
           "params": {"x": 0.25, "layers": [64, 32], "opt": {"lr": 1e-3}},
           "intermediate_values": [0.5, float("nan"), float("inf")],
           "worker": "worker-1", "error": None}

#: Every event type, nested containers and NaN included, with and without
#: a trace id.
WIRE_EVENTS = [
    event
    for trace in ("trace-7", None)
    for event in (
        TrialStarted(trial_id=4, params={"x": 0.25, "layers": [64, 32],
                                         "opt": {"lr": 1e-3}},
                     worker="worker-1", job_id=7, seq=0, trace_id=trace),
        TrialReport(trial_id=4, step=3, value=float("nan"), job_id=7, seq=1,
                    trace_id=trace),
        TrialKilled(trial_id=4, reason="pruned", job_id=7, seq=2,
                    trace_id=trace),
        TrialFinished(trial_id=4, state="completed", value=float("nan"),
                      record=_RECORD, job_id=7, seq=3, trace_id=trace),
        JobStateChanged(state="failed", error="boom", terminal=True,
                        job_id=7, seq=4, trace_id=trace),
    )
]
WIRE_IDS = [f"{type(e).__name__}-{'traced' if e.trace_id else 'untraced'}"
            for e in WIRE_EVENTS]


def _json_equal(a, b):
    """Deep equality where NaN equals NaN (json text comparison)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestWirePayload:
    """The shallow wire payload is the asdict payload, byte for byte."""

    @pytest.mark.parametrize("event", WIRE_EVENTS, ids=WIRE_IDS)
    def test_payload_matches_asdict_reference(self, event):
        wire = event_to_wire(event)
        reference = reference_event_to_wire(event)
        assert sorted(wire) == sorted(reference)
        assert _json_equal(wire, reference)
        assert ("trace_id" in wire) is (event.trace_id is not None)

    @pytest.mark.parametrize("event", WIRE_EVENTS, ids=WIRE_IDS)
    def test_wire_bytes_match_asdict_reference(self, event):
        assert event_wire_bytes(event) == reference_line(event)
        # The cached buffer is the one every later caller gets.
        assert event_wire_bytes(event) is event_wire_bytes(event)

    def test_payload_is_shallow_and_leaves_the_event_intact(self):
        event = WIRE_EVENTS[3]
        wire = event_to_wire(event)
        assert wire["record"] is event.record  # shared, not copied
        json.dumps(wire, sort_keys=True)
        assert math.isnan(event.record["value"])
        assert event.record["params"] == {"x": 0.25, "layers": [64, 32],
                                          "opt": {"lr": 1e-3}}

    def test_event_log_lines_match_asdict_reference(self, tmp_path):
        log = EventLog(str(tmp_path / "events"))
        events = [dataclasses.replace(e, seq=i)
                  for i, e in enumerate(WIRE_EVENTS[:4] + WIRE_EVENTS[-1:])]
        for event in events:
            log.append(event)
        segment = sorted((tmp_path / "events" / "job-7").glob("*.ndjson"))[-1]
        assert segment.read_bytes() == b"".join(map(reference_line, events))

    @pytest.mark.parametrize("event", WIRE_EVENTS, ids=WIRE_IDS)
    def test_canonical_wire_is_the_typed_round_trip(self, event):
        line = json.loads(event_wire_bytes(event))
        line["added_by_a_newer_server"] = [1, 2]
        canonical = _canonical_wire(line)
        assert "added_by_a_newer_server" not in canonical
        assert _json_equal(
            canonical, reference_event_to_wire(reference_event_from_wire(line)))

    def test_canonical_wire_fills_defaults_like_the_typed_path(self):
        sparse = {"type": "TrialStarted", "trial_id": 1, "seq": 0}
        assert _canonical_wire(sparse) == reference_event_to_wire(
            reference_event_from_wire(sparse))
        assert _canonical_wire(sparse)["params"] == {}

    def test_canonical_wire_rejects_what_event_from_wire_rejects(self):
        for bad in ({"type": "Nope", "trial_id": 1}, {"trial_id": 1},
                    ["TrialReport"], {"type": "TrialStarted"},
                    {"type": "JobStateChanged", "seq": 3}):
            for parse in (reference_event_from_wire, event_from_wire,
                          _canonical_wire):
                with pytest.raises(ValueError):
                    parse(bad)


# ----------------------------------------------------------------------- #
# Shared-memory transport
# ----------------------------------------------------------------------- #
class TestTelemetryTransport:
    def test_push_drain_round_trip_in_order(self):
        transport = TelemetryTransport(capacity=16)
        for step in range(5):
            transport.push(3, step, step * 0.5)
        assert transport.pending == 5
        assert transport.drain() == [(3, s, s * 0.5) for s in range(5)]
        assert transport.drain() == []
        assert transport.dropped == 0

    def test_overflow_sheds_oldest_records(self):
        transport = TelemetryTransport(capacity=4)
        for step in range(10):
            transport.push(1, step, float(step))
        records = transport.drain()
        assert len(records) == 4
        assert [r[1] for r in records] == [6, 7, 8, 9]  # newest survive
        assert transport.dropped == 6

    def test_doorbell_rings_on_push(self):
        transport = TelemetryTransport()
        assert transport.wait(0.01) is False
        transport.push(0, 0, 1.0)
        assert transport.wait(0.01) is True
        transport.drain()  # clears the doorbell
        assert transport.wait(0.01) is False

    def test_kill_slot_lifecycle(self):
        transport = TelemetryTransport(kill_slots=2)
        slot = transport.allocate_kill_slot()
        assert transport.kill_reason(slot) is None
        transport.set_kill(slot, "pruned")
        assert transport.kill_reason(slot) == "pruned"
        transport.release_kill_slot(slot)
        assert transport.kill_reason(slot) is None  # cleared for reuse

    def test_kill_slot_exhaustion_degrades_to_no_slot(self):
        transport = TelemetryTransport(kill_slots=1)
        first = transport.allocate_kill_slot()
        assert first >= 0
        assert transport.allocate_kill_slot() == -1
        transport.set_kill(-1, "cancelled")       # no-op, must not raise
        assert transport.kill_reason(-1) is None
        transport.release_kill_slot(first)
        assert transport.allocate_kill_slot() == first

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            TelemetryTransport(capacity=0)
        with pytest.raises(ValueError):
            TelemetryTransport(kill_slots=0)


# ----------------------------------------------------------------------- #
# Server subscriptions
# ----------------------------------------------------------------------- #
def _reporting_objective(trial):
    for step in range(3):
        trial.report(0.1 * (step + 1))
        time.sleep(0.01)
    return trial.params["x"]


def assert_stream_contract(events) -> None:
    """The invariants of one job's event stream, whatever happened in it.

    Seqs run 0..n with no gap, and exactly one terminal event ends the
    stream.  Per trial: TrialStarted comes first and TrialFinished last,
    report steps strictly increase, and at most one TrialKilled carries a
    reason matching the trial's terminal state.
    """
    assert [event.seq for event in events] == list(range(len(events)))
    terminal = [index for index, event in enumerate(events)
                if isinstance(event, JobStateChanged) and event.terminal]
    assert terminal == [len(events) - 1], "not exactly one terminal, last"
    trials = {}
    for event in events:
        if not isinstance(event, JobStateChanged):
            trials.setdefault(event.trial_id, []).append(event)
    for trial_id, stream in trials.items():
        kinds = [type(event) for event in stream]
        assert kinds[0] is TrialStarted and kinds.count(TrialStarted) == 1, (
            trial_id, kinds)
        assert kinds[-1] is TrialFinished and kinds.count(TrialFinished) == 1, (
            trial_id, kinds)
        steps = [event.step for event in stream
                 if isinstance(event, TrialReport)]
        assert all(a < b for a, b in zip(steps, steps[1:])), (trial_id, steps)
        kills = [event for event in stream if isinstance(event, TrialKilled)]
        assert len(kills) <= 1, (trial_id, kills)
        if kills:
            assert KILLED_STATES[kills[0].reason].value == stream[-1].state, (
                trial_id, kills[0].reason, stream[-1].state)


class TestServerSubscribe:
    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_stream_is_per_trial_ordered_and_terminates(self, space, scheduler):
        with AntTuneServer(num_workers=2, backend="thread",
                           scheduler=scheduler) as server:
            job_id = server.submit(space, _reporting_objective,
                                   config=StudyConfig(n_trials=4))
            sub = server.subscribe(job_id)
            events = []
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                event = sub.get(timeout=30.0)
                if event is None:
                    break
                events.append(event)
            # The stream ends with the job's terminal event.
            assert isinstance(events[-1], JobStateChanged)
            assert events[-1].terminal is True
            assert events[-1].state == JobState.COMPLETED.value
            assert events[-1].job_id == job_id
            # Global sequencing is monotonic.
            seqs = [e.seq for e in events]
            assert seqs == sorted(seqs)
            # Per trial: started first, reports in step order, finished last.
            trial_ids = {e.trial_id for e in events
                         if isinstance(e, TrialStarted)}
            assert trial_ids == {0, 1, 2, 3}
            for trial_id in trial_ids:
                stream = [e for e in events
                          if getattr(e, "trial_id", None) == trial_id]
                assert isinstance(stream[0], TrialStarted)
                assert isinstance(stream[-1], TrialFinished)
                assert stream[-1].state == TrialState.COMPLETED.value
                steps = [e.step for e in stream if isinstance(e, TrialReport)]
                assert steps == sorted(steps)
                assert steps == [0, 1, 2]

    def test_process_backend_reports_reach_the_stream(self, space):
        # The acceptance path: remote workers' reports flow ring -> drain ->
        # bus -> subscription.
        with AntTuneServer(num_workers=2, backend="process",
                           scheduler="async") as server:
            job_id = server.submit(space, _reporting_objective,
                                   config=StudyConfig(n_trials=2))
            events = list(server.subscribe(job_id))
            server.wait(job_id, timeout=30.0)
            reports = [e for e in events if isinstance(e, TrialReport)]
            assert reports, "no remote report reached the event stream"
            finished = [e for e in events if isinstance(e, TrialFinished)]
            assert {e.state for e in finished} == {TrialState.COMPLETED.value}

    def test_cancel_terminates_stream_with_cancelled(self, space):
        release = threading.Event()

        def gated(trial):
            for _ in range(200):
                if release.wait(0.05):
                    break
                trial.report(trial.params["x"])
            return trial.params["x"]

        with AntTuneServer(num_workers=2, backend="thread") as server:
            job_id = server.submit(space, gated, config=StudyConfig(n_trials=4))
            sub = server.subscribe(job_id)
            deadline = time.monotonic() + 10.0
            while (time.monotonic() < deadline
                   and server.poll(job_id)["num_trials"] < 1):
                time.sleep(0.01)
            server.cancel(job_id)
            release.set()
            events = list(sub)
            assert isinstance(events[-1], JobStateChanged)
            assert events[-1].state == JobState.CANCELLED.value
            assert events[-1].terminal is True

    def test_cancelled_queued_job_stream_terminates(self, space):
        blocker = threading.Event()

        def gated(trial):
            assert blocker.wait(10.0)
            return trial.params["x"]

        with AntTuneServer(num_workers=1, max_concurrent_jobs=1) as server:
            running = server.submit(space, gated, config=StudyConfig(n_trials=1))
            queued = server.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=1))
            sub = server.subscribe(queued)
            try:
                server.cancel(queued)
                events = list(sub)
            finally:
                blocker.set()
            assert isinstance(events[-1], JobStateChanged)
            assert events[-1].state == JobState.CANCELLED.value
            server.wait(running, timeout=10.0)

    def test_subscribe_finished_job_replays_whole_stream(self, space):
        with AntTuneServer(num_workers=1) as server:
            job_id = server.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=1))
            server.wait(job_id, timeout=10.0)
            deadline = time.monotonic() + 5.0
            while (time.monotonic() < deadline
                   and not server._bus.terminated(job_id)):
                time.sleep(0.01)
            events = list(server.subscribe(job_id))
            kinds = [type(e).__name__ for e in events]
            assert kinds[-1] == "JobStateChanged"
            assert events[-1].state == JobState.COMPLETED.value
            assert "TrialStarted" in kinds and "TrialFinished" in kinds

    def test_subscribe_unknown_job_raises(self):
        with AntTuneServer(num_workers=1) as server:
            with pytest.raises(TrialError):
                server.subscribe(99)

    def test_callback_may_reenter_server_queries(self, space):
        # A progress callback naturally calls poll(); event publishing must
        # therefore never hold the study lock (TrialStarted used to publish
        # inside _new_trial's locked section, deadlocking this pattern).
        polls = []
        with AntTuneServer(num_workers=2, backend="thread",
                           scheduler="async") as server:
            job_id = server.submit(space, _reporting_objective,
                                   config=StudyConfig(n_trials=6))
            server.subscribe(
                job_id,
                callback=lambda e: polls.append(server.poll(job_id)["state"]))
            best = server.wait(job_id, timeout=30.0)  # hangs if re-locked
            assert best.value is not None
        assert polls

    def test_callback_subscription_sees_whole_lifecycle(self, space):
        seen = []
        with AntTuneServer(num_workers=1) as server:
            job_id = server.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=2))
            server.subscribe(job_id, callback=seen.append)
            server.wait(job_id, timeout=10.0)
            deadline = time.monotonic() + 5.0
            while (time.monotonic() < deadline
                   and not any(isinstance(e, JobStateChanged) and e.terminal
                               for e in seen)):
                time.sleep(0.01)
        kinds = [type(e).__name__ for e in seen]
        assert "TrialFinished" in kinds
        assert kinds[-1] == "JobStateChanged"


def _mixed_objective(trial):
    """Trials 0-1 complete strong, trial 2 overruns its time limit while
    reporting strong values, trial 3+ report weak values until pruned."""
    if trial.trial_id < 2:
        for _ in range(50):
            trial.report(1.0)
        return 1.0
    value = 1.0 if trial.trial_id == 2 else 0.0
    for _ in range(200):
        trial.report(value)  # raises once the loop kills the trial
        time.sleep(0.02)
    return value


class TestStreamContract:
    """One seeded run per policy through every way a trial can end."""

    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_mixed_run_streams_keep_the_contract(self, space, scheduler):
        release = threading.Event()

        def hold(trial):
            for step in range(1000):
                if release.is_set():
                    break
                trial.report(float(step))  # raises once killed
                time.sleep(0.01)
            return trial.params["x"]

        def until(predicate):
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and not predicate():
                time.sleep(0.01)
            assert predicate()

        def rng(seed):
            return np.random.default_rng(seed)

        with AntTuneServer(num_workers=2, max_concurrent_jobs=2,
                           backend="thread", scheduler=scheduler) as server:
            pruned = server.submit(
                space, _mixed_objective, rng=rng(1),
                config=StudyConfig(n_trials=4, trial_time_limit=0.6,
                                   max_retries=0, raise_on_all_failed=False),
                pruner=MedianPruner(warmup_steps=1, min_trials=2))
            server.wait(pruned, timeout=30.0)
            victim = server.submit(space, hold, rng=rng(2),
                                   config=StudyConfig(n_trials=3))
            until(lambda: server.poll(victim)["num_trials"] >= 2)
            preemptor = server.submit(space, lambda t: t.params["x"],
                                      rng=rng(3), preempt=True,
                                      config=StudyConfig(n_trials=1))
            server.wait(preemptor, timeout=30.0)
            release.set()
            server.wait(victim, timeout=30.0)
            release.clear()
            cancelled = server.submit(space, hold, rng=rng(4),
                                      config=StudyConfig(n_trials=2))
            until(lambda: server.poll(cancelled)["num_trials"] >= 1)
            assert server.cancel(cancelled)
            with pytest.raises(TrialError, match="was cancelled"):
                server.wait(cancelled, timeout=30.0)
            streams = {job_id: list(server.subscribe(job_id))
                       for job_id in (pruned, victim, preemptor, cancelled)}
        for events in streams.values():
            assert_stream_contract(events)
        reasons = {event.reason for events in streams.values()
                   for event in events if isinstance(event, TrialKilled)}
        assert reasons == set(KILLED_STATES), reasons
        assert streams[cancelled][-1].state == JobState.CANCELLED.value


class TestStorageOffTheStream:
    def test_trial_rows_persist_from_events_between_checkpoints(self, space,
                                                                tmp_path):
        path = str(tmp_path / "stream.db")
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=path) as server:
            job_id = server.submit(space, _reporting_objective,
                                   config=StudyConfig(n_trials=3),
                                   study_name="streamed")
            server.wait(job_id, timeout=20.0)
        with StudyStorage(path) as storage:
            payload = storage.load_payload("streamed")
            assert len(payload["trials"]) == 3
            assert {t["state"] for t in payload["trials"]} == {"completed"}
            listed = {row["name"]: row for row in storage.list_studies()}
            assert listed["streamed"]["status"] == JobState.COMPLETED.value

    def test_record_trial_upserts_single_row(self, space, tmp_path):
        with StudyStorage(str(tmp_path / "direct.db")) as storage:
            study = _study(space, n_trials=2)
            storage.save_study("direct", study, status="running")
            record = {"trial_id": 0, "params": {"x": 0.5}, "state": "completed",
                      "value": 0.5, "duration_seconds": 0.01, "worker": "w0",
                      "error": None, "intermediate_values": [0.5]}
            storage.record_trial("direct", record)
            payload = storage.load_payload("direct")
            assert payload["trials"] == [record]
            # Rows mirror the study history: a full save from a study that
            # never contained this trial treats the row as stale and
            # removes it.  (The server never calls record_trial: its rows
            # land with each save_study checkpoint.)
            storage.save_study("direct", study, status="running")
            assert storage.load_payload("direct")["trials"] == []


# ----------------------------------------------------------------------- #
# Preemption
# ----------------------------------------------------------------------- #
def _cooperative_sleeper(trial):
    """~2s per trial, reporting every 25 ms so kills land fast."""
    for step in range(80):
        trial.report(float(step))
        time.sleep(0.025)
    return trial.params["x"]


class TestPreemption:
    def test_governor_overage(self):
        governor = FairShareGovernor(4)
        governor.register("bulk", 1.0)
        governor.register("hot", 3.0)
        overage = governor.overage({"bulk": 4, "hot": 0})
        assert overage == {"bulk": 3, "hot": 0}
        assert governor.overage({"stranger": 2}) == {"stranger": 0}

    def test_preempting_job_acquires_slots_within_a_tick(self, space):
        with AntTuneServer(num_workers=4, max_concurrent_jobs=2,
                           backend="thread", scheduler="async") as server:
            bulk = server.submit(space, _cooperative_sleeper,
                                 config=StudyConfig(n_trials=8), priority=1.0)
            deadline = time.monotonic() + 10.0
            while (time.monotonic() < deadline
                   and server.poll(bulk)["num_trials"] < 4):
                time.sleep(0.01)
            assert server.poll(bulk)["num_trials"] >= 4, "bulk never saturated"

            submitted_at = time.monotonic()
            hot = server.submit(space, lambda t: t.params["x"],
                                config=StudyConfig(n_trials=3),
                                priority=3.0, preempt=True)
            # A *completed* hot trial proves a worker thread actually freed
            # up (trial objects are created instantly, queued behind the
            # pool, so num_trials alone would not discriminate).  Fresh
            # deadline: the saturation wait above must not eat this window.
            hot_deadline = time.monotonic() + 10.0
            while (time.monotonic() < hot_deadline
                   and server.poll(hot)["states"].get(
                       TrialState.COMPLETED.value, 0) < 1):
                time.sleep(0.01)
            acquired_after = time.monotonic() - submitted_at
            assert server.poll(hot)["states"].get(
                TrialState.COMPLETED.value, 0) >= 1, (
                "preempting job never completed a trial")
            # Without preemption the first bulk trial frees a slot only after
            # ~2s; with it the kill lands at the victims' next report (tens
            # of ms), so the hot job's instant objective finishes well first.
            assert acquired_after < 1.5, (
                f"slot acquired only after {acquired_after:.2f}s: "
                f"preemption did not kill bulk trials")
            assert server.wait(hot, timeout=30.0).value is not None

            # The killed bulk trials were requeued: the job still completes
            # its full budget, with the preempted attempts recorded CANCELLED.
            assert server.wait(bulk, timeout=60.0).value is not None
            study = server._jobs[bulk].study
            completed = [t for t in study.trials
                         if t.state is TrialState.COMPLETED]
            preempted = [t for t in study.trials
                         if t.state is TrialState.CANCELLED
                         and t.kill_reason == KILL_PREEMPTED]
            assert len(completed) == 8
            assert preempted, "no bulk trial was preempted"
            assert server.poll(bulk)["states"][
                TrialState.COMPLETED.value] == 8

    def test_preempt_kill_events_published_on_victims_stream(self, space):
        with AntTuneServer(num_workers=2, max_concurrent_jobs=2,
                           backend="thread", scheduler="async") as server:
            bulk = server.submit(space, _cooperative_sleeper,
                                 config=StudyConfig(n_trials=4), priority=1.0)
            bulk_events = []
            server.subscribe(bulk, callback=bulk_events.append)
            deadline = time.monotonic() + 10.0
            while (time.monotonic() < deadline
                   and server.poll(bulk)["num_trials"] < 2):
                time.sleep(0.01)
            hot = server.submit(space, lambda t: t.params["x"],
                                config=StudyConfig(n_trials=2),
                                priority=3.0, preempt=True)
            server.wait(hot, timeout=30.0)
            server.wait(bulk, timeout=60.0)
            kills = [e for e in bulk_events
                     if isinstance(e, TrialKilled)
                     and e.reason == KILL_PREEMPTED]
            assert kills, "no preemption kill event on the victim's stream"

    def test_preempt_with_empty_server_is_noop(self, space):
        with AntTuneServer(num_workers=2) as server:
            job_id = server.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=2),
                                   preempt=True)
            assert server.wait(job_id, timeout=10.0).value is not None
            assert server.poll(job_id)["preempt"] is True

    def test_scheduler_requeues_preempted_trial_directly(self, space):
        # Scheduler-level determinism: kill one in-flight trial with the
        # preempted reason and the async scheduler re-runs its configuration
        # without charging budget or retries.
        executor = make_executor(2, backend="thread")
        study = _study(space, n_trials=2)
        started = threading.Event()

        def objective(trial):
            started.set()
            for _ in range(100):
                trial.report(trial.params["x"])
                time.sleep(0.02)
            return trial.params["x"]

        def fast_after_first(trial):
            if any(t.kill_reason == KILL_PREEMPTED for t in study.trials):
                return trial.params["x"]  # post-preemption runs finish fast
            return objective(trial)

        runner = threading.Thread(
            target=lambda: study.optimize(fast_after_first, executor=executor,
                                          scheduler=AsyncScheduler()))
        runner.start()
        try:
            assert started.wait(5.0)
            victim = study.trials[0]
            executor.kill_trial(victim, KILL_PREEMPTED)
            runner.join(timeout=30.0)
            assert not runner.is_alive()
            assert victim.state is TrialState.CANCELLED
            assert victim.kill_reason == KILL_PREEMPTED
            completed = [t for t in study.trials
                         if t.state is TrialState.COMPLETED]
            assert len(completed) == 2  # full budget despite the kill
            # The preempted configuration re-ran with identical params.
            assert any(t.params == victim.params for t in completed)
        finally:
            executor.close()

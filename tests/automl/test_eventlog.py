"""Tests for the durable per-job event log (:mod:`repro.automl.eventlog`).

The log is the restart-survival layer under the remote event stream, so the
properties tested here are the ones recovery and ``?last_seq=`` replay lean
on: append/read round-trips in seq order, segment rotation by size, seq-aware
segment skipping and in-segment seeking on partial reads, retention of every
segment for the study's lifetime, torn-tail tolerance on read and on the
append that follows a crash, and metadata persistence.  Tests that need
small segments or a long fsync interval monkeypatch the module constants
``SEGMENT_MAX_BYTES`` and ``FSYNC_INTERVAL``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automl import eventlog
from repro.automl.eventlog import EventLog
from repro.automl.events import (
    EVENT_TYPES,
    EventBus,
    JobStateChanged,
    TrialFinished,
    TrialKilled,
    TrialReport,
    TrialStarted,
    event_from_wire,
    event_to_wire,
    event_wire_bytes,
)


def make_log(tmp_path):
    return EventLog(str(tmp_path / "events"))


@pytest.fixture
def small_segments(monkeypatch):
    """Rotate segments at 150 bytes: a few events each."""
    monkeypatch.setattr(eventlog, "SEGMENT_MAX_BYTES", 150)


@pytest.fixture
def hour_interval(monkeypatch):
    """An fsync interval no test outlasts: only forced fsyncs happen."""
    monkeypatch.setattr(eventlog, "FSYNC_INTERVAL", 3600.0)


def segment_paths(tmp_path, job_id=1):
    return sorted((tmp_path / "events" / f"job-{job_id}")
                  .glob("events-*.ndjson"))


def publish_stream(log, job_id, n_reports=5, terminal="completed"):
    """Drive a realistic stream through a bus into the log; return the bus."""
    bus = EventBus()
    bus.subscribe(job_id, callback=log.append)
    bus.publish(JobStateChanged(state="queued", job_id=job_id))
    bus.publish(JobStateChanged(state="running", job_id=job_id))
    bus.publish(TrialStarted(trial_id=0, params={"x": 0.5}, job_id=job_id))
    for step in range(n_reports):
        bus.publish(TrialReport(trial_id=0, step=step, value=float(step),
                                job_id=job_id))
    bus.publish(TrialFinished(trial_id=0, state="completed", value=1.0,
                              record={"trial_id": 0, "state": "completed"},
                              job_id=job_id))
    if terminal:
        bus.publish(JobStateChanged(state=terminal, terminal=True,
                                    job_id=job_id))
    return bus


class TestAppendRead:
    def test_round_trips_in_seq_order(self, tmp_path):
        log = make_log(tmp_path)
        log.open_job(1, "s")
        publish_stream(log, 1, n_reports=4)
        events = list(log.read(1))
        assert [e.seq for e in events] == list(range(len(events)))
        assert isinstance(events[0], JobStateChanged)
        assert events[0].state == "queued"
        assert isinstance(events[-1], JobStateChanged)
        assert events[-1].terminal

    def test_read_after_seq_filters(self, tmp_path):
        log = make_log(tmp_path)
        log.open_job(1, "s")
        publish_stream(log, 1)
        all_seqs = [e.seq for e in log.read(1)]
        assert [e.seq for e in log.read(1, after_seq=3)] == \
            [s for s in all_seqs if s > 3]
        assert list(log.read(1, after_seq=all_seqs[-1])) == []

    def test_last_seq_and_last_event(self, tmp_path):
        log = make_log(tmp_path)
        assert log.last_seq(1) == -1
        assert log.last_event(1) is None
        log.open_job(1, "s")
        publish_stream(log, 1)
        last = log.last_event(1)
        assert isinstance(last, JobStateChanged) and last.terminal
        assert log.last_seq(1) == last.seq

    def test_unstamped_event_rejected(self, tmp_path):
        log = make_log(tmp_path)
        with pytest.raises(ValueError, match="bus-stamped"):
            log.append(TrialReport(trial_id=0))  # no job_id, seq -1

    def test_lines_are_wire_payloads(self, tmp_path):
        """Each segment line is exactly one event_to_wire JSON object."""
        log = make_log(tmp_path)
        log.open_job(1, "s")
        publish_stream(log, 1, n_reports=1)
        job_dir = tmp_path / "events" / "job-1"
        lines = []
        for segment in sorted(job_dir.glob("events-*.ndjson")):
            lines.extend(segment.read_text().splitlines())
        events = list(log.read(1))
        assert [json.loads(line) for line in lines] == \
            [event_to_wire(e) for e in events]

    @pytest.mark.parametrize("trace_id", [None, "trace-7"])
    def test_read_events_carry_the_bytes_on_disk(self, tmp_path, trace_id):
        """A logged event's wire bytes are its line on disk, unserialised.

        They equal the bytes of the event that was published, for every
        event type, with and without a trace id.
        """
        originals = [
            JobStateChanged(state="running"),
            TrialStarted(trial_id=0, params={"x": 0.5, "depth": 3,
                                             "kind": "lstm"}, worker="w-1"),
            TrialReport(trial_id=0, step=0, value=float("nan")),
            TrialKilled(trial_id=0, reason="pruned"),
            TrialFinished(trial_id=0, state="pruned", value=None,
                          record={"trial_id": 0, "state": "pruned",
                                  "intermediate_values": [0.1 + 0.2,
                                                          float("inf")]}),
            JobStateChanged(state="failed", error="boom \u00e9",
                            terminal=True),
        ]
        assert {type(e) for e in originals} == set(EVENT_TYPES.values())
        log = make_log(tmp_path)
        log.open_job(1, "s")
        bus = EventBus()
        bus.subscribe(1, callback=log.append)
        published = [bus.publish(dataclasses.replace(e, job_id=1,
                                                     trace_id=trace_id))
                     for e in originals]
        job_dir = tmp_path / "events" / "job-1"
        on_disk = b"".join(segment.read_bytes() for segment
                           in sorted(job_dir.glob("events-*.ndjson")))
        logged = list(log.read(1))
        assert [(type(e), e.seq) for e in logged] == \
            [(type(e), e.seq) for e in published]  # NaN != NaN: no ==
        # read() hands each event its line as the cached wire bytes, so a
        # replay ships the bytes on disk without serialising them again.
        assert [e.__dict__.get("_wire_bytes") for e in logged] == \
            on_disk.splitlines(keepends=True)
        assert [event_wire_bytes(e) for e in logged] == \
            on_disk.splitlines(keepends=True)
        # A copy carries no cached bytes: this serialises afresh.
        assert [event_wire_bytes(e) for e in logged] == \
            [event_wire_bytes(dataclasses.replace(e)) for e in published]
        assert all(("trace_id" in json.loads(event_wire_bytes(e)))
                   == (trace_id is not None) for e in logged)

    def test_survives_reopen(self, tmp_path):
        """A fresh EventLog over the same root reads everything back."""
        log = make_log(tmp_path)
        log.open_job(1, "my-study", refs={"space": "m:SPACE"})
        publish_stream(log, 1)
        expected = list(log.read(1))
        log.close()
        reopened = make_log(tmp_path)
        assert list(reopened.read(1)) == expected
        assert reopened.meta(1)["study_name"] == "my-study"
        assert reopened.meta(1)["refs"] == {"space": "m:SPACE"}

    def test_append_resumes_newest_segment_after_reopen(self, tmp_path):
        log = make_log(tmp_path)
        log.open_job(1, "s")
        publish_stream(log, 1, terminal=None)
        last = log.last_seq(1)
        log.close()
        reopened = make_log(tmp_path)
        # Mirrors recovery: a fresh bus primed past the logged history.
        bus = EventBus()
        bus.prime(1, last + 1)
        bus.subscribe(1, callback=reopened.append)
        bus.publish(JobStateChanged(state="completed", terminal=True,
                                    job_id=1))
        seqs = [e.seq for e in reopened.read(1)]
        assert seqs == list(range(last + 2))


class TestSegments:
    def test_rotation_by_size(self, tmp_path, small_segments):
        log = make_log(tmp_path)
        log.open_job(1, "s")
        publish_stream(log, 1, n_reports=20)
        segments = sorted((tmp_path / "events" / "job-1")
                          .glob("events-*.ndjson"))
        assert len(segments) > 1
        assert log.stats()["rotations"] > 0
        # Still one contiguous ordered stream across segments.
        seqs = [e.seq for e in log.read(1)]
        assert seqs == list(range(len(seqs)))

    def test_segment_names_carry_first_seq(self, tmp_path, small_segments):
        log = make_log(tmp_path)
        log.open_job(1, "s")
        publish_stream(log, 1, n_reports=20)
        for segment in (tmp_path / "events" / "job-1").glob("events-*.ndjson"):
            first_named = int(segment.stem.split("-")[1])
            first_line = segment.read_text().splitlines()[0]
            assert json.loads(first_line)["seq"] == first_named

    def test_every_segment_is_kept(self, tmp_path, small_segments):
        """No segment is deleted while the job's log exists: with more than
        64 segments, the log still reads back from seq 0 to the terminal
        event."""
        log = make_log(tmp_path)
        log.open_job(1, "s")
        publish_stream(log, 1, n_reports=300)
        assert len(segment_paths(tmp_path)) > 64
        assert log.stats()["rotations"] == len(segment_paths(tmp_path)) - 1
        events = list(log.read(1))
        assert [e.seq for e in events] == list(range(len(events)))
        assert events[-1].terminal
        assert set(log.stats()) == {"root", "jobs", "appended", "rotations",
                                    "fsyncs"}

    def test_partial_read_skips_whole_segments(self, tmp_path,
                                               small_segments):
        """Resuming near the tail parses only the tail segments."""
        log = make_log(tmp_path)
        log.open_job(1, "s")
        publish_stream(log, 1, n_reports=30)
        last = log.last_seq(1)
        tail = list(log.read(1, after_seq=last - 1))
        assert [e.seq for e in tail] == [last]


class TestSeek:
    def test_read_from_a_late_cursor_parses_what_it_yields(self, tmp_path,
                                                         monkeypatch):
        """A read after seq 9000 binary-searches its segment.

        Reading 100 events after seq 9000 of a 20,001-event log parses at
        most 100 lines plus two per halving of the segment, not the 9,000
        lines before the cursor.
        """
        log = make_log(tmp_path)
        log.open_job(1, "s")
        for seq in range(20001):
            log.append(TrialReport(trial_id=0, step=seq, value=0.5, job_id=1,
                                   seq=seq))
        log.close()
        segment = [path for path in segment_paths(tmp_path)
                   if int(path.stem.split("-")[1]) <= 9001][-1]
        lines = len(segment.read_bytes().splitlines())
        assert lines > 9001  # the cursor lands mid-segment
        parsed = []

        def counting(payload):
            parsed.append(payload["seq"])
            return event_from_wire(payload)

        monkeypatch.setattr(eventlog, "event_from_wire", counting)
        events = list(itertools.islice(log.read(1, after_seq=9000), 100))
        assert [e.seq for e in events] == list(range(9001, 9101))
        assert len(parsed) <= 100 + 2 * math.ceil(math.log2(lines))

    @settings(max_examples=100, deadline=None)
    @given(n_events=st.integers(1, 40),
           segment_bytes=st.integers(100, 1500),
           junk=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                   st.sampled_from(["blank", "torn",
                                                    "glued"]),
                                   st.integers(1, 10 ** 6)),
                         max_size=12))
    def test_every_cursor_reads_the_suffix(self, n_events, segment_bytes,
                                           junk):
        """``read(job, a)`` is ``read(job)`` filtered to ``seq > a``.

        For every cursor ``a``, on a log with blank, torn and glued lines
        injected anywhere in its segments (a glued line is a torn record
        with a whole one appended, as a log written without the torn-tail
        cut can hold).
        """
        with tempfile.TemporaryDirectory() as root:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(eventlog, "SEGMENT_MAX_BYTES", segment_bytes)
                log = EventLog(root)
                for seq in range(n_events):
                    log.append(TrialReport(trial_id=0, step=seq,
                                           value=seq / 7, job_id=1, seq=seq))
                log.close()
            segments = sorted(Path(root, "job-1").glob("events-*.ndjson"))
            records = [line for segment in segments
                       for line in segment.read_bytes().splitlines()]
            for where, kind, cut in junk:
                segment = segments[where % len(segments)]
                lines = segment.read_bytes().splitlines(keepends=True)
                victim = records[cut % len(records)]
                torn = victim[:1 + cut % (len(victim) - 1)]
                bad = {"blank": b"  \n", "torn": torn + b"\n",
                       "glued": torn + victim + b"\n"}[kind]
                lines.insert(where % (len(lines) + 1), bad)
                segment.write_bytes(b"".join(lines))
            log = EventLog(root)
            everything = list(log.read(1))
            assert [e.seq for e in everything] == list(range(n_events))
            for after in range(-1, n_events + 1):
                assert list(log.read(1, after_seq=after)) == \
                    [e for e in everything if e.seq > after]


class TestDurability:
    def test_torn_tail_is_skipped(self, tmp_path):
        log = make_log(tmp_path)
        log.open_job(1, "s")
        publish_stream(log, 1, terminal=None)
        complete = list(log.read(1))
        segment = sorted((tmp_path / "events" / "job-1")
                         .glob("events-*.ndjson"))[-1]
        with open(segment, "ab") as handle:
            handle.write(b'{"type": "TrialReport", "trial_id')  # torn write
        assert list(log.read(1)) == complete
        assert log.last_event(1) == complete[-1]
        log.close()  # no terminal event closed the segment

    def test_append_after_a_torn_tail_starts_a_new_line(self, tmp_path):
        """A crash image cut at any byte of its last record reopens cleanly.

        The next append truncates the torn record instead of gluing itself
        onto it: the log reads back as the complete prefix plus the new
        event, and the new event is the last one.
        """
        log = make_log(tmp_path)
        log.open_job(1, "s")
        publish_stream(log, 1, terminal=None)
        log.close()
        (segment,) = segment_paths(tmp_path)
        image = segment.read_bytes()
        start = image.rstrip(b"\n").rfind(b"\n") + 1  # the last record
        for cut in range(start, len(image)):
            segment.write_bytes(image[:cut])
            reopened = make_log(tmp_path)
            prefix = list(reopened.read(1))
            assert [e.seq for e in prefix] == list(range(len(prefix)))
            nxt = JobStateChanged(state="failed", terminal=True, job_id=1,
                                  seq=reopened.last_seq(1) + 1)
            reopened.append(nxt)
            assert list(reopened.read(1)) == prefix + [nxt]
            assert reopened.last_event(1) == nxt
            reopened.close()

    def test_terminal_event_closes_the_segment(self, tmp_path, hour_interval):
        log = make_log(tmp_path)
        log.open_job(1, "s")
        bus = publish_stream(log, 1, terminal=None)
        handle = log._appenders[1].handle
        fsyncs = log.stats()["fsyncs"]
        bus.publish(JobStateChanged(state="completed", terminal=True,
                                    job_id=1))
        assert handle.closed and 1 not in log._appenders
        # Durable before the handle goes (nothing left for close() to do).
        assert log.stats()["fsyncs"] == fsyncs + 1
        assert log.last_event(1).terminal
        log.close()

    def test_append_after_terminal_reopens_the_newest_segment(self,
                                                             tmp_path):
        log = make_log(tmp_path)
        log.open_job(1, "s")
        publish_stream(log, 1)
        last = log.last_seq(1)
        assert log._appenders == {}
        # A recovered job publishes on past its logged terminal.
        log.append(JobStateChanged(state="running", job_id=1, seq=last + 1))
        segments = sorted((tmp_path / "events" / "job-1").glob("*.ndjson"))
        assert len(segments) == 1
        assert [e.seq for e in log.read(1)] == list(range(last + 2))
        log.close()

    def test_interval_clock_starts_when_the_job_opens(self, tmp_path,
                                                      hour_interval):
        """A job's first append waits for the interval like any other; only
        its terminal event forces an fsync."""
        log = EventLog(str(tmp_path / "events"))
        for job_id in range(20):
            log.open_job(job_id, f"s{job_id}")
            log.append(JobStateChanged(state="queued", job_id=job_id, seq=0))
            log.append(JobStateChanged(state="running", job_id=job_id, seq=1))
            for step in range(4):
                log.append(TrialReport(trial_id=0, step=step, value=0.5,
                                       job_id=job_id, seq=2 + step))
        assert log.stats()["appended"] == 20 * 6
        assert log.stats()["fsyncs"] == 0
        for job_id in range(20):
            log.append(JobStateChanged(state="completed", terminal=True,
                                       job_id=job_id, seq=6))
        assert log.stats()["fsyncs"] == 20
        log.close()

    def test_rotation_flush_and_close_fsync(self, tmp_path, small_segments,
                                            hour_interval):
        """Besides the interval and the terminal event, rotation, flush()
        and close() each fsync the open segments."""
        log = make_log(tmp_path)
        log.open_job(1, "s")
        publish_stream(log, 1, n_reports=10, terminal=None)
        rotations = log.stats()["rotations"]
        assert rotations > 0 and log.stats()["fsyncs"] == rotations
        log.flush()
        assert log.stats()["fsyncs"] == rotations + 1
        log.close()
        assert log.stats()["fsyncs"] == rotations + 2

    def test_create_false_requires_existing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EventLog(str(tmp_path / "missing"), create=False)
        make_log(tmp_path).close()
        assert EventLog(str(tmp_path / "events"), create=False).jobs() == []


class TestMetaAndRemoval:
    def test_meta_merges_on_reopen(self, tmp_path):
        log = make_log(tmp_path)
        log.open_job(1, "s", refs={"space": "m:SPACE"}, priority=2.0)
        log.open_job(1, "s", preempt=True)
        meta = log.meta(1)
        assert meta["refs"] == {"space": "m:SPACE"}
        assert meta["preempt"] is True

    def test_jobs_and_has_job(self, tmp_path):
        log = make_log(tmp_path)
        assert log.jobs() == []
        log.open_job(3, "a")
        log.open_job(1, "b")
        assert log.jobs() == [1, 3]
        assert log.has_job(3) and not log.has_job(2)

    def test_remove_job_and_remove_study(self, tmp_path):
        log = make_log(tmp_path)
        log.open_job(1, "keep")
        log.open_job(2, "drop")
        log.open_job(3, "drop")
        publish_stream(log, 2)
        assert sorted(log.remove_study("drop")) == [2, 3]
        assert log.jobs() == [1]
        log.remove_job(1)
        log.remove_job(1)  # idempotent
        assert log.jobs() == []


class TestStorageWiring:
    def test_file_storage_owns_sibling_event_log(self, tmp_path):
        from repro.automl.storage import StudyStorage

        db = tmp_path / "service.db"
        storage = StudyStorage(str(db))
        assert storage.events_dir == str(db) + ".events"
        log = storage.event_log
        assert log is storage.event_log  # cached
        assert (tmp_path / "service.db.events").is_dir()
        storage.close()

    def test_memory_storage_has_no_event_log(self):
        from repro.automl.storage import StudyStorage

        storage = StudyStorage()
        assert storage.event_log is None
        storage.close()

    def test_delete_study_removes_job_logs(self, tmp_path):
        from repro.automl.search_space import SearchSpace, Uniform
        from repro.automl.storage import StudyStorage
        from repro.automl.study import Study

        storage = StudyStorage(str(tmp_path / "s.db"))
        study = Study(SearchSpace({"x": Uniform(0.0, 1.0)}))
        storage.save_study("gone", study, status="completed")
        storage.event_log.open_job(5, "gone")
        storage.delete_study("gone")
        assert not storage.event_log.has_job(5)
        storage.close()

    def test_gc_removes_job_logs(self, tmp_path):
        from repro.automl.search_space import SearchSpace, Uniform
        from repro.automl.storage import StudyStorage
        from repro.automl.study import Study

        storage = StudyStorage(str(tmp_path / "s.db"))
        study = Study(SearchSpace({"x": Uniform(0.0, 1.0)}))
        storage.save_study("old", study, status="completed")
        storage.event_log.open_job(9, "old")
        assert storage.gc(max_age_days=0.0) == ["old"]
        assert not storage.event_log.has_job(9)
        storage.close()

    def test_delete_without_log_dir_does_not_create_one(self, tmp_path):
        from repro.automl.search_space import SearchSpace, Uniform
        from repro.automl.storage import StudyStorage
        from repro.automl.study import Study

        db = tmp_path / "s.db"
        storage = StudyStorage(str(db))
        study = Study(SearchSpace({"x": Uniform(0.0, 1.0)}))
        storage.save_study("rowonly", study, status="completed")
        storage.delete_study("rowonly")
        assert not (tmp_path / "s.db.events").exists()
        storage.close()


class TestBusPriming:
    def test_prime_continues_sequence(self):
        bus = EventBus()
        bus.prime(1, 10)
        stamped = bus.publish(TrialReport(trial_id=0, job_id=1))
        assert stamped.seq == 10

    def test_prime_rejects_existing_stream(self):
        bus = EventBus()
        bus.publish(TrialReport(trial_id=0, job_id=1))
        with pytest.raises(ValueError, match="already has events"):
            bus.prime(1, 5)

    def test_prime_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            EventBus().prime(1, -1)

    def test_primed_stream_replays_only_new_events(self):
        bus = EventBus()
        bus.prime(1, 100)
        bus.publish(TrialReport(trial_id=0, step=0, job_id=1))
        bus.publish(JobStateChanged(state="completed", terminal=True,
                                    job_id=1))
        seqs = [e.seq for e in bus.subscribe(1)]
        assert seqs == [100, 101]

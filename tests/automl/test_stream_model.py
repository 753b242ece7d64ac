"""A state-machine model of one job's event streams, without the edge.

Each stream is a cursor: the edge keeps the last seq it wrote, reads the
frames after it from the job's window (the bus history, up to what the
stream's subscription has seen) and, when the cursor is older than that
history, runs one catch-up chunk from the durable log.  An in-process
reader (``subscribe()`` without a callback) runs the same window read on
its consumer's thread, one ``get`` at a time.  Hypothesis interleaves
publishes, bounded reads, catch-up chunks, ``get`` calls and the job's end
across several readers of both kinds — no sockets, threads or sleeps — and
checks the guarantees after every step:

* every stream is an in-order run of seqs with no repeat, and a stream
  that ended ends with exactly one terminal event;
* with a log, no stream has a gap;
* without a log, the seqs the streams miss are exactly the drops counted.
"""

from __future__ import annotations

import json
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.automl.eventlog import EventLog
from repro.automl.events import (
    EventBus,
    EventCursor,
    JobStateChanged,
    TrialReport,
    event_to_wire,
)
from repro.automl.remote.http_server import _TuneFeed
from repro.automl.server import EventWindow

JOB = 1


class _Reader:
    """One stream as the edge holds it: a cursor plus what it has sent."""

    def __init__(self, feed: _TuneFeed) -> None:
        self.feed = feed
        self.cursor = -1
        self.catching_up = False
        self.ended = False
        self.frames = []

    def apply(self, got) -> None:
        frames, self.cursor, end = got
        self.frames.extend(json.loads(frame) for frame in frames)
        self.ended = self.ended or end


class _LocalReader:
    """One in-process reader: an :class:`EventCursor` read through ``get``."""

    def __init__(self, cursor: EventCursor) -> None:
        self.stream = cursor
        self.catching_up = False
        self.ended = False
        self.frames = []

    @property
    def cursor(self) -> int:
        # The seq before the next one get returns: every seq up to it was
        # returned or counted as a drop.  (A window read takes a contiguous
        # run of the history, so the buffered run starts right after it.)
        stream = self.stream
        return (stream._pending[0].seq - 1 if stream._pending
                else stream._cursor)

    def get(self, count: int, published: int) -> None:
        for _ in range(count):
            try:
                event = self.stream.get(timeout=0)
            except TimeoutError:
                # Publishing delivers synchronously here: get may wait only
                # once it has read every seq published so far.
                assert not self.ended, "an ended cursor waited"
                assert self.cursor == published - 1, "a cursor stalled"
                return
            if event is None:
                assert self.ended, "the cursor ended before the terminal"
                return
            self.frames.append(event_to_wire(event))
            self.ended = self.ended or (isinstance(event, JobStateChanged)
                                        and event.terminal)


class StreamModel(RuleBasedStateMachine):
    readers = Bundle("readers")
    local_readers = Bundle("local_readers")

    @initialize(logged=st.booleans(), history_limit=st.integers(2, 6))
    def open_job(self, logged, history_limit):
        self.root = tempfile.mkdtemp(prefix="stream-model-")
        self.bus = EventBus(history_limit=history_limit)
        self.log = EventLog(self.root) if logged else None
        if self.log is not None:
            # Registered before any stream, as the server does at submit.
            self.bus.subscribe(JOB, callback=self.log.append)
        self.windows = []
        self.cursors = []
        self.all_readers = []
        self.published = 0
        self.ended = False

    def teardown(self):
        for window in getattr(self, "windows", ()):
            window.close()
        for cursor in getattr(self, "cursors", ()):
            cursor.close()
        if getattr(self, "log", None) is not None:
            self.log.close()
        if hasattr(self, "root"):
            shutil.rmtree(self.root, ignore_errors=True)

    # -- the job -------------------------------------------------------- #
    @precondition(lambda self: not self.ended)
    @rule(count=st.integers(1, 8))
    def publish(self, count):
        for _ in range(count):
            self.bus.publish(TrialReport(trial_id=0, step=self.published,
                                         value=float(self.published),
                                         job_id=JOB))
            self.published += 1

    @precondition(lambda self: not self.ended)
    @rule()
    def end_job(self):
        self.bus.publish(JobStateChanged(state="completed", terminal=True,
                                         job_id=JOB))
        self.published += 1
        self.ended = True

    # -- the streams ---------------------------------------------------- #
    @rule(target=readers)
    def attach(self):
        window = EventWindow(self.bus, JOB, self.log, live=True, wake=None)
        self.windows.append(window)
        reader = _Reader(_TuneFeed(window))
        self.all_readers.append(reader)
        return reader

    @rule(reader=readers, max_bytes=st.integers(1, 400))
    def read(self, reader, max_bytes):
        if reader.ended or reader.catching_up:
            return
        got = reader.feed.read(reader.cursor, max_bytes)
        if got is None:
            reader.catching_up = True  # the edge would queue a chunk now
        else:
            reader.apply(got)

    @rule(reader=readers, max_bytes=st.integers(1, 400))
    def catch_up(self, reader, max_bytes):
        if not reader.catching_up:
            return
        reader.catching_up = False
        reader.apply(reader.feed.backlog(reader.cursor, max_bytes))

    @rule(target=local_readers, chunk=st.integers(1, 4))
    def attach_in_process(self, chunk):
        cursor = EventCursor(self.bus, JOB, self.log)
        cursor.CHUNK = chunk  # small chunks: a catch-up takes several reads
        self.cursors.append(cursor)
        reader = _LocalReader(cursor)
        self.all_readers.append(reader)
        return reader

    @rule(reader=local_readers, count=st.integers(1, 6))
    def get(self, reader, count):
        reader.get(count, self.published)

    # -- the guarantees ------------------------------------------------- #
    @invariant()
    def streams_are_ordered_and_end_once(self):
        for reader in getattr(self, "all_readers", ()):
            seqs = [frame["seq"] for frame in reader.frames]
            assert seqs == sorted(set(seqs)), f"out of order or repeated: {seqs}"
            assert all(seq < self.published for seq in seqs)
            terminals = [index for index, frame in enumerate(reader.frames)
                         if frame["type"] == "JobStateChanged"
                         and frame["terminal"]]
            assert terminals == ([len(seqs) - 1] if reader.ended else [])
            assert reader.cursor == (seqs[-1] if seqs else reader.cursor)

    @invariant()
    def gaps_are_counted(self):
        if not hasattr(self, "bus"):
            return
        missing = 0
        for reader in self.all_readers:
            seqs = [frame["seq"] for frame in reader.frames]
            if self.log is not None:
                assert seqs == list(range(len(seqs))), f"gap: {seqs}"
            missing += reader.cursor + 1 - len(seqs)
        assert missing == self.bus.dropped(JOB)

    @invariant()
    def an_ended_stream_reached_the_last_seq(self):
        for reader in getattr(self, "all_readers", ()):
            if reader.ended:
                assert reader.cursor == self.published - 1


StreamModel.TestCase.settings = settings(max_examples=60,
                                         stateful_step_count=40,
                                         deadline=None)
TestStreamModel = StreamModel.TestCase


def test_a_drained_reader_ends_with_the_terminal_event(tmp_path):
    """Reading to exhaustion after the end reaches the terminal event."""
    for logged in (True, False):
        bus = EventBus(history_limit=3)
        log = EventLog(str(tmp_path / f"log-{logged}")) if logged else None
        if log is not None:
            bus.subscribe(JOB, callback=log.append)
        for step in range(10):
            bus.publish(TrialReport(trial_id=0, step=step, job_id=JOB))
        window = EventWindow(bus, JOB, log, live=True, wake=None)
        reader = _Reader(_TuneFeed(window))
        bus.publish(JobStateChanged(state="completed", terminal=True,
                                    job_id=JOB))
        for _ in range(50):
            got = reader.feed.read(reader.cursor, 64)
            if got is None:
                got = reader.feed.backlog(reader.cursor, 64)
            reader.apply(got)
            if reader.ended:
                break
        assert reader.ended and reader.frames[-1]["terminal"]
        seqs = [frame["seq"] for frame in reader.frames]
        assert len(seqs) + bus.dropped(JOB) == 11
        window.close()
        if log is not None:
            log.close()

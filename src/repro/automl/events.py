"""Typed lifecycle events and the in-process event bus of the tune service.

The control plane used to be three parallel ad-hoc channels (an uplink queue
for reports, a kill map for stops, poll-loop mirroring into storage).  This
module replaces all of that fan-out with **one ordered stream per job**: every
layer publishes typed events onto an :class:`EventBus`, and every consumer —
client subscriptions (:meth:`repro.automl.server.AntTuneServer.subscribe`),
HTTP event streams, the durable event log, tests — reads the same stream.

Event types
-----------

* :class:`TrialStarted` — the scheduler created a trial and handed it to the
  executor.
* :class:`TrialReport` — one intermediate value became visible to the
  scheduler (streamed over the shared-memory transport for process workers,
  observed directly for thread/sync workers).
* :class:`TrialKilled` — a kill signal (deadline / prune / cancel / preempt)
  was delivered to an in-flight trial.
* :class:`TrialFinished` — the trial reached a terminal state; carries the
  full JSON-serialisable trial record.
* :class:`JobStateChanged` — the owning job moved through its lifecycle;
  ``terminal=True`` marks the last event a subscription will ever see.

Events are immutable.  ``job_id`` and ``seq`` are stamped by the bus at
publish time: ``seq`` increases monotonically *per job*, so any two consumers
of the same job observe the same total order.  ``trace_id`` is the owning
job's correlation id (stamped by the server's event sink, carried end-to-end
from the submitting HTTP request's ``X-Request-Id`` header — see
:mod:`repro.automl.metrics`); it is omitted from the wire payload while
unset, so pre-trace streams and documentation round-trip unchanged.

Delivery semantics
------------------

:meth:`EventBus.subscribe` has two forms.  With ``callback=`` the callable is
invoked synchronously on the publisher's thread (keep it fast, never call
back into the bus from inside it — publishing from a callback deadlocks the
job's delivery turnstile — and note that its exceptions are swallowed and
counted in :attr:`Subscription.callback_errors`).  Without a callback it
returns an :class:`EventCursor`: an iterator that keeps only the last seq it
returned and reads the events after it from the job's :class:`EventWindow`,
the same reader every HTTP event stream runs.

The bus keeps a bounded per-job **replay history**: a consumer subscribing
after a job already made progress receives the earlier events first, then
live ones — so ``submit()`` followed by ``subscribe()`` observes the whole
stream, and subscribing to an already-finished job replays it up to its
terminal event.  A window backed by the durable event log reads what the
history no longer holds from the log; without one, a reader more than
``history_limit`` events behind skips to the history, and the skipped events
count in :meth:`EventBus.dropped`.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
from collections import deque
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import (Callable, Deque, Dict, Iterable, Iterator, List, Optional,
                    Tuple, Union)

from repro.automl import metrics as _metrics

__all__ = [
    "TrialEvent",
    "TrialStarted",
    "TrialReport",
    "TrialKilled",
    "TrialFinished",
    "JobStateChanged",
    "Event",
    "EventBus",
    "EventCursor",
    "EventWindow",
    "Subscription",
    "EVENT_TYPES",
    "event_to_wire",
    "event_from_wire",
    "event_wire_bytes",
]


class TrialEvent:
    """Marker base class for per-trial lifecycle events."""


@dataclass(frozen=True)
class TrialStarted(TrialEvent):
    """A trial was created and submitted to the executor.

    Attributes:
        trial_id: the trial's study-local id.
        params: the sampled configuration (a copy).
        worker: the worker attribution label.
        job_id: owning job (stamped by the bus; None for bare studies).
        seq: per-job publish sequence number (stamped by the bus).
        trace_id: the owning job's trace id (stamped by the server's event
            sink; None for bare studies).
    """

    trial_id: int
    params: Dict[str, object] = field(default_factory=dict)
    worker: Optional[str] = None
    job_id: Optional[int] = None
    seq: int = -1
    trace_id: Optional[str] = None


@dataclass(frozen=True)
class TrialReport(TrialEvent):
    """One intermediate value became visible to the scheduler.

    ``step`` is the index into the trial's ``intermediate_values`` — for one
    trial, reports are always published in increasing step order.
    """

    trial_id: int
    step: int = 0
    value: float = 0.0
    job_id: Optional[int] = None
    seq: int = -1
    trace_id: Optional[str] = None


@dataclass(frozen=True)
class TrialKilled(TrialEvent):
    """A kill signal was delivered to an in-flight trial.

    ``reason`` is one of the kill reasons from :mod:`repro.automl.trial`
    (``deadline``, ``pruned``, ``cancelled``, ``preempted``).  The matching
    terminal state arrives later as a :class:`TrialFinished`.
    """

    trial_id: int
    reason: str = "cancelled"
    job_id: Optional[int] = None
    seq: int = -1
    trace_id: Optional[str] = None


@dataclass(frozen=True)
class TrialFinished(TrialEvent):
    """The trial reached a terminal state.

    Attributes:
        trial_id: the trial's study-local id.
        state: the terminal :class:`~repro.automl.trial.TrialState` value
            (as its string value, e.g. ``"completed"``).
        value: the objective value (None unless completed).
        record: the full JSON-serialisable trial snapshot
            (:meth:`~repro.automl.trial.Trial.as_record`).
    """

    trial_id: int
    state: str = "completed"
    value: Optional[float] = None
    record: Dict[str, object] = field(default_factory=dict)
    job_id: Optional[int] = None
    seq: int = -1
    trace_id: Optional[str] = None


@dataclass(frozen=True)
class JobStateChanged:
    """The owning job moved through its lifecycle.

    ``state`` is a :class:`~repro.automl.server.JobState` value string.  With
    ``terminal=True`` this is the final event of the job's stream: the bus
    closes every subscription after delivering it, and later subscribers
    receive it immediately.
    """

    state: str
    error: Optional[str] = None
    terminal: bool = False
    job_id: Optional[int] = None
    seq: int = -1
    trace_id: Optional[str] = None


Event = Union[TrialStarted, TrialReport, TrialKilled, TrialFinished,
              JobStateChanged]

#: Wire name -> event class, the registry both serialisation directions use.
EVENT_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (TrialStarted, TrialReport, TrialKilled, TrialFinished,
                JobStateChanged)
}

# Publish latency per event type; the histogram's _count doubles as the
# events-published-total counter.  Children are resolved once here — the
# publish hot path does a dict lookup, never a labels() call.
_PUBLISH_SECONDS = _metrics.REGISTRY.histogram(
    "anttune_event_publish_seconds",
    "EventBus.publish latency (stamp + ordered delivery) by event type.",
    labels=("type",))
_PUBLISH_CHILDREN = {name: _PUBLISH_SECONDS.labels(type=name)
                     for name in EVENT_TYPES}
_QUEUE_DROPPED = _metrics.REGISTRY.counter(
    "anttune_event_queue_dropped_total",
    "Events a stream reader (HTTP or in-process) skipped because no event "
    "log held them, by job. Cumulative for the process lifetime: never reset "
    "by consumer churn or bus re-priming.",
    labels=("job",))


#: Event class -> its dataclass fields, in declaration order: what a wire
#: payload carries besides ``type``.
_WIRE_FIELDS: Dict[type, Tuple[dataclasses.Field, ...]] = {
    cls: dataclasses.fields(cls) for cls in EVENT_TYPES.values()
}


def _finish_wire(payload: Dict[str, object], name: str) -> Dict[str, object]:
    """Finish a wire dict of field values: add ``type``, drop a null trace."""
    payload["type"] = name
    if payload["trace_id"] is None:
        # Keep pre-trace payloads byte-identical: streams logged before the
        # metrics plane existed (and documented NDJSON examples) round-trip
        # without a spurious null field.
        del payload["trace_id"]
    return payload


def event_to_wire(event: Event) -> Dict[str, object]:
    """Serialise an event into a JSON-compatible dict (``type`` + fields).

    The payload round-trips through :func:`event_from_wire`:
    ``event_from_wire(event_to_wire(e)) == e`` for every event type, so the
    remote layer can ship the exact in-process stream over HTTP.

    The dict is built one level deep: nested values (``params``,
    ``record``) are the event's own containers, not copies.  **The payload
    is read-only** — mutating a nested value would mutate the frozen event
    (and the wire bytes any later serialisation produces).

    Args:
        event: any :data:`Event` instance.

    Returns:
        A dict of the event's fields plus a ``"type"`` discriminator.

    Raises:
        TypeError: for an object that is not a known event type.
    """
    fields = _WIRE_FIELDS.get(type(event))
    if fields is None:
        raise TypeError(f"not a known event type: {type(event)!r}")
    values = event.__dict__
    return _finish_wire({f.name: values[f.name] for f in fields},
                  type(event).__name__)


def event_wire_bytes(event: Event) -> bytes:
    """The event's NDJSON wire line, serialised exactly once per event.

    One published event fans out to many consumers — the durable event log
    and every HTTP stream subscriber all ship the *same* bytes:
    ``json.dumps(event_to_wire(e), sort_keys=True) + "\\n"`` encoded UTF-8.
    The first call serialises and caches the buffer on the (frozen) event
    instance, so N subscribers cost one serialisation instead of N — the
    zero-copy half of the C10k serving edge.

    The returned ``bytes`` object is immutable and shared; callers must
    never mutate-in-place via ``memoryview`` tricks.

    Args:
        event: any :data:`Event` instance.

    Returns:
        The event's canonical NDJSON line (terminated by ``\\n``).

    Raises:
        TypeError: for an object that is not a known event type.
    """
    cached = event.__dict__.get("_wire_bytes")
    if cached is not None:
        return cached
    data = (json.dumps(event_to_wire(event), sort_keys=True) + "\n").encode(
        "utf-8")
    # Frozen dataclasses forbid normal attribute writes; the cache is not a
    # field (it never participates in __eq__/asdict/replace), so storing it
    # through object.__setattr__ keeps the event's value semantics intact.
    object.__setattr__(event, "_wire_bytes", data)
    return data


def _wire_values(payload: object) -> Tuple[type, Dict[str, object]]:
    """The event class a wire payload names, and its declared fields' values.

    Keys the class does not declare are dropped (a newer server may add
    fields; an older client must still parse the stream); an absent field
    takes its declared default.

    Raises:
        ValueError: not a dict, missing/unknown ``type``, or a required
            field missing.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"event payload must be a dict, got "
                         f"{type(payload).__name__}")
    name = payload.get("type")
    cls = EVENT_TYPES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(f"unknown event type {name!r}; expected one of "
                         f"{sorted(EVENT_TYPES)}")
    values: Dict[str, object] = {}
    for f in _WIRE_FIELDS[cls]:
        if f.name in payload:
            values[f.name] = payload[f.name]
        elif f.default is not dataclasses.MISSING:
            values[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            values[f.name] = f.default_factory()
        else:
            raise ValueError(f"malformed {name} event payload: missing "
                             f"required field {f.name!r}")
    return cls, values


def event_from_wire(payload: Dict[str, object]) -> Event:
    """Rebuild a typed event from its :func:`event_to_wire` dict.

    Unknown keys are ignored (a newer server may add fields; an older client
    must still parse the stream), but the ``type`` discriminator must name a
    known event class and its required fields must be present.

    Args:
        payload: a dict produced by :func:`event_to_wire` (possibly after a
            JSON round trip).

    Returns:
        The reconstructed event.

    Raises:
        ValueError: missing/unknown ``type`` or missing required fields.
    """
    cls, values = _wire_values(payload)
    return cls(**values)


def _canonical_wire(payload: object) -> Dict[str, object]:
    """``event_to_wire(event_from_wire(payload))``, without building the event.

    A new dict holding exactly the keys the typed round trip emits, so a
    relay can re-stamp it and serialise it once.  Nested values are shared
    with ``payload``.

    Raises:
        ValueError: as :func:`event_from_wire`.
    """
    cls, values = _wire_values(payload)
    return _finish_wire(values, cls.__name__)


class Subscription:
    """One callback consumer of a job's event stream.

    Made by :meth:`EventBus.subscribe` with ``callback=``: the callable runs
    synchronously on the publisher's thread, once per event in seq order.
    """

    def __init__(self, bus: "EventBus", job_id: Optional[int],
                 callback: Callable[[Event], None]) -> None:
        self._bus = bus
        self.job_id = job_id
        self._callback = callback
        #: Exceptions swallowed from the callback (observers must never be
        #: able to fail the publisher — e.g. mark an observed job FAILED or
        #: strand a wait() by breaking the terminal publish).
        self.callback_errors = 0

    def _deliver(self, event: Event) -> None:
        try:
            self._callback(event)
        except Exception:  # noqa: BLE001 - a broken observer must not
            # propagate into the publishing scheduler/dispatcher thread.
            self.callback_errors += 1

    def close(self) -> None:
        """Detach from the bus: the callback sees no later event."""
        self._bus._unsubscribe(self)


class _DeliveryTurnstile:
    """Per-job delivery gate: events leave the bus strictly in seq order.

    Stamping happens under the (global) bus lock; delivery happens outside
    it, serialised per job by this turnstile, so one job's slow consumer
    (e.g. an event-log append) never blocks other jobs' publishers.
    """

    def __init__(self, first_seq: int) -> None:
        self.cond = threading.Condition()
        self.next_seq = first_seq


class EventBus:
    """Per-job ordered publish/subscribe hub for lifecycle events.

    ``publish`` stamps the event with the job's next sequence number under
    the bus lock, then delivers it to that job's subscriptions through a
    per-job turnstile that releases events strictly in sequence order — so
    all consumers observe the same total order, while a slow consumer of one
    job never stalls another job's publishers.  A terminal
    :class:`JobStateChanged` closes the job's stream: existing subscriptions
    receive it as their last event, and later :meth:`subscribe` calls get the
    (bounded) replay ending in it.

    Memory stays bounded: each live job keeps at most ``history_limit``
    events for replay, and once more than ``retained_jobs`` jobs have
    terminated, the oldest-terminated jobs' stream state is evicted down to
    the terminal event alone (late subscribers still observe termination; a
    compact per-job terminal is the only thing retained for the bus's
    lifetime, mirroring the server's own job registry).
    """

    def __init__(self, history_limit: int = 8192,
                 retained_jobs: int = 128) -> None:
        if history_limit < 1:
            raise ValueError("history_limit must be >= 1")
        if retained_jobs < 1:
            raise ValueError("retained_jobs must be >= 1")
        self._lock = threading.Lock()
        self._history_limit = history_limit
        self._retained_jobs = retained_jobs
        self._seq: Dict[Optional[int], int] = {}
        self._subs: Dict[Optional[int], List[Subscription]] = {}
        self._terminal: Dict[Optional[int], JobStateChanged] = {}
        # Bounded replay buffer per job (deque(maxlen): O(1) shed-oldest on
        # the publish hot path), so subscribe() after submit() still observes
        # the whole stream.  The terminal event is always the last append and
        # can never be shed.
        self._history: Dict[Optional[int], Deque[Event]] = {}
        self._turnstiles: Dict[Optional[int], _DeliveryTurnstile] = {}
        self._finished_jobs: List[Optional[int]] = []  # terminal order
        # Events stream readers skipped, tallied per job across every reader
        # (including closed ones) so a skip stays observable after the
        # reader went away.
        self._dropped: Dict[Optional[int], int] = {}

    def publish(self, event: Event) -> Event:
        """Stamp ``event`` with its per-job sequence number and deliver it.

        Args:
            event: the event to publish; its ``job_id`` selects the stream.

        Returns:
            The stamped (sequenced) event that subscribers received.
        """
        publish_start = perf_counter()
        terminal = isinstance(event, JobStateChanged) and event.terminal
        with self._lock:
            job_id = event.job_id
            seq = self._seq.get(job_id, 0)
            self._seq[job_id] = seq + 1
            stamped = dataclasses.replace(event, seq=seq)
            history = self._history.get(job_id)
            if history is None:
                history = self._history[job_id] = deque(
                    maxlen=self._history_limit)
            history.append(stamped)
            if terminal:
                # The stream ends here: remember the terminal event for late
                # subscribers.  (The subscriber list is dropped at delivery
                # time below, so subscribers that register while this event
                # waits at the turnstile still receive it.)
                self._terminal[job_id] = stamped
                self._finished_jobs.append(job_id)
                if len(self._finished_jobs) > self._retained_jobs:
                    # Evict the oldest-terminated job's stream state: only
                    # its terminal event survives (late subscribers still
                    # observe termination), so bus memory is bounded by
                    # retained_jobs * history_limit plus one compact event
                    # per job ever run — a constant factor below the
                    # server's own job registry.
                    evicted = self._finished_jobs.pop(0)
                    self._history.pop(evicted, None)
                    self._seq.pop(evicted, None)
                    self._turnstiles.pop(evicted, None)
            turnstile = self._turnstiles.get(job_id)
            if turnstile is None:
                turnstile = self._turnstiles[job_id] = _DeliveryTurnstile(seq)
        # Delivery outside the bus lock, serialised per job in seq order:
        # concurrent publishers of the *same* job queue up at the turnstile,
        # publishers of other jobs (and seq stamping) are unaffected.
        with turnstile.cond:
            while turnstile.next_seq != seq:
                turnstile.cond.wait()
            with self._lock:
                # The subscriber list is re-read at delivery time: a consumer
                # that subscribed (and replayed) while this event waited at
                # the turnstile must not miss it.
                subs = list(self._subs.get(job_id, ()))
                if terminal:
                    self._subs.pop(job_id, None)
            try:
                for sub in subs:
                    sub._deliver(stamped)
            finally:
                turnstile.next_seq = seq + 1
                turnstile.cond.notify_all()
        _PUBLISH_CHILDREN[type(event).__name__].observe(
            perf_counter() - publish_start)
        return stamped

    def prime(self, job_id: Optional[int], next_seq: int) -> None:
        """Continue a job's sequence numbering across a process restart.

        A recovered server replays a job's history from the durable
        :class:`~repro.automl.eventlog.EventLog`, then publishes *new* events
        for it — those must be stamped after the last logged seq, or clients
        resuming with ``last_seq`` would silently drop them as duplicates.
        ``prime`` sets the next sequence number a fresh (event-less) job
        stream will stamp.  Priming touches *only* the seq numbering: the
        bus's drop counters (:meth:`dropped` / :meth:`dropped_total`) are
        cumulative and survive re-priming untouched.

        Args:
            job_id: the job stream to prime.
            next_seq: the first sequence number the next publish will get
                (one past the last durably logged seq).

        Raises:
            ValueError: negative ``next_seq``, or the job already has events
                on this bus (priming must happen before the first publish).
        """
        if next_seq < 0:
            raise ValueError("next_seq must be >= 0")
        with self._lock:
            if (self._seq.get(job_id, 0) > 0 or job_id in self._history
                    or job_id in self._terminal):
                raise ValueError(
                    f"job {job_id} already has events on this bus; "
                    f"prime() must run before the first publish")
            self._seq[job_id] = next_seq
            self._turnstiles[job_id] = _DeliveryTurnstile(next_seq)

    def subscribe(self, job_id: Optional[int],
                  callback: Optional[Callable[[Event], None]] = None
                  ) -> Union[Subscription, "EventCursor"]:
        """Attach a consumer to one job's event stream.

        The job's (bounded) history replays first, so a consumer attaching
        after the job made progress still observes the stream from its
        start; for an already-terminated job the replay ends with the
        terminal event and iteration stops there.

        Args:
            job_id: the stream to follow.
            callback: optional callable invoked synchronously per event.
                Must be fast and must not call back into the bus; its
                exceptions are swallowed (counted in
                :attr:`Subscription.callback_errors`).

        Returns:
            A :class:`Subscription` with ``callback``; without one, an
            :class:`EventCursor` over the bus history (no event log: a
            reader more than ``history_limit`` events behind skips, and the
            skipped events count in :meth:`dropped`).
        """
        if callback is None:
            return EventCursor(self, job_id)
        sub = Subscription(self, job_id, callback)
        with self._lock:
            turnstile = self._turnstiles.get(job_id)
            if turnstile is None:
                turnstile = self._turnstiles[job_id] = _DeliveryTurnstile(
                    self._seq.get(job_id, 0))
        # Holding the turnstile freezes this job's deliveries (stamping and
        # other jobs are unaffected): everything with seq < next_seq has been
        # delivered to the existing subscribers and is replayed to the new
        # one from history; everything >= next_seq is queued behind us and
        # reaches the new subscriber through publish()'s delivery-time
        # re-read.  No gaps, no duplicates, and replay (which may run user
        # callbacks) never holds the global bus lock.
        with turnstile.cond:
            with self._lock:
                watermark = turnstile.next_seq
                history = self._history.get(job_id)
                terminal = self._terminal.get(job_id)
                if history is None and terminal is not None:
                    # Stream state evicted (old terminated job): only the
                    # terminal event survives to replay.
                    replay: List[Event] = [terminal]
                else:
                    replay = [e for e in (history or ())
                              if e.seq < watermark]
                    if terminal is None or terminal.seq >= watermark:
                        # Stream still open (or its terminal event is still
                        # in flight and will be delivered live): register.
                        self._subs.setdefault(job_id, []).append(sub)
            for event in replay:
                sub._deliver(event)
        return sub

    def history(self, job_id: Optional[int], after_seq: int,
                upto_seq: int) -> Tuple[int, List[Event]]:
        """The job's retained events with ``after_seq < seq <= upto_seq``.

        A cursor reader's window onto the replay history: the history is
        contiguous in seq, so the read is a slice, not a scan.  An evicted
        job retains only its terminal event.

        Args:
            job_id: the stream to read.
            after_seq: the reader's cursor (the last seq it has).
            upto_seq: the newest seq to return.

        Returns:
            ``(oldest, events)``: the oldest seq the bus still holds (the
            next seq to stamp when it holds none) and the events in range,
            in seq order.  ``oldest > after_seq + 1`` means the events
            between the cursor and ``oldest`` are no longer held here.
        """
        with self._lock:
            history = self._history.get(job_id)
            if history is None:
                terminal = self._terminal.get(job_id)
                if terminal is None:
                    return self._seq.get(job_id, 0), []
                history = (terminal,)
            oldest = history[0].seq
            start = max(0, after_seq + 1 - oldest)
            stop = min(len(history), upto_seq + 1 - oldest)
            if start >= stop:
                return oldest, []
            # Walk from the nearer end: a reader near the tail (the common
            # case) costs the few events it reads, not the whole history.
            if start >= len(history) - stop:
                events = list(itertools.islice(reversed(history),
                                               len(history) - stop,
                                               len(history) - start))
                events.reverse()
            else:
                events = list(itertools.islice(history, start, stop))
        return oldest, events

    def _unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            subs = self._subs.get(sub.job_id)
            if subs and sub in subs:
                subs.remove(sub)
                if not subs:
                    self._subs.pop(sub.job_id, None)

    def note_drops(self, job_id: Optional[int], count: int) -> None:
        """Fold events a reader skipped into this job's drop accounting.

        A stream reader that skips events — an :class:`EventWindow` further
        behind than the history with no event log behind it — counts them
        here, so every skipped event lands in one place: the
        :meth:`dropped` tallies and the
        ``anttune_event_queue_dropped_total{job=...}`` metric.

        Args:
            job_id: the job whose stream shed events.
            count: how many events were shed (must be >= 1 to count).
        """
        if count < 1:
            return
        with self._lock:
            self._dropped[job_id] = self._dropped.get(job_id, 0) + count
        _QUEUE_DROPPED.labels(job="none" if job_id is None else job_id).inc(
            count)

    def dropped(self, job_id: Optional[int]) -> int:
        """Events ``job_id``'s stream readers skipped (all readers).

        Counts live and already-closed readers alike (every skip
        :meth:`note_drops` folds in), so a burst that outran a reader stays
        visible after the fact.  The
        tally is **cumulative for the bus's lifetime**: neither subscription
        churn nor :meth:`prime` (the recovery path re-priming a job's seq
        numbering) ever resets it.  The same counts are exported as the
        ``anttune_event_queue_dropped_total{job=...}`` metric.
        """
        with self._lock:
            return self._dropped.get(job_id, 0)

    def dropped_total(self) -> int:
        """Events stream readers skipped across every job on this bus.

        Like :meth:`dropped`, cumulative and never reset while the bus
        lives; monotonically equal to the sum of the per-job counts.
        """
        with self._lock:
            return sum(self._dropped.values())

    def terminated(self, job_id: Optional[int]) -> bool:
        """Whether ``job_id``'s stream has seen its terminal event."""
        with self._lock:
            return job_id in self._terminal


class EventWindow:
    """One stream reader's view of a job's events, read by seq cursor.

    Every event is kept once, indexed by seq: in the bus history (the newest
    ``history_limit`` events of each job this process knows) and, with
    file-backed storage, in the durable event log.  A window reads the bus
    history no further than :attr:`seen`, the last seq its own subscription
    was delivered; the log's callback subscription is delivered each event
    first, so a reader never gets ahead of the log.  A cursor older than the
    history reads the log instead (:meth:`logged`); without a log the reader
    jumps to the history and the events it skipped are counted as drops
    (:meth:`skip`).  A job known only to the log (finished before a
    restart) has no subscription: its whole stream is the log.

    :meth:`read` and :meth:`backlog` are the cursor reader every HTTP event
    stream and every :class:`EventCursor` runs.  Built by
    :meth:`~repro.automl.server.AntTuneServer.open_event_stream` and by
    :class:`EventCursor`; :meth:`close` detaches the subscription.
    """

    def __init__(self, bus: EventBus, job_id: Optional[int], log,
                 live: bool, wake: Optional[Callable[[], None]]) -> None:
        self.job_id = job_id
        #: The durable event log, or None (no file-backed storage).
        self.log = log
        #: The last seq this window's subscription was delivered.
        self.seen = -1
        #: The terminal event's seq, once delivered.
        self.final: Optional[int] = None
        self._bus = bus
        self._wake: Optional[Callable[[], None]] = None
        self._subscription = (bus.subscribe(job_id, callback=self._observe)
                              if live else None)
        # Armed after the replay, which only sets seen/final: every reader
        # reads before it waits, so no delivery before this line is lost.
        self._wake = wake

    @property
    def live(self) -> bool:
        """Whether the job is on this process's bus (not known only to the log)."""
        return self._subscription is not None

    def _observe(self, event: Event) -> None:
        self.seen = event.seq
        if isinstance(event, JobStateChanged) and event.terminal:
            self.final = event.seq
        if self._wake is not None:
            self._wake()

    def recent(self, after_seq: int) -> Optional[List[Event]]:
        """The history's events after ``after_seq``, up to :attr:`seen`.

        Returns None when the history no longer holds the event after the
        cursor (or the job is known only to the log).
        """
        if self._subscription is None:
            return None
        oldest, events = self._bus.history(self.job_id, after_seq, self.seen)
        return None if oldest > after_seq + 1 else events

    def logged(self, after_seq: int) -> Iterator[Event]:
        """The durable log's events after ``after_seq``."""
        return self.log.read(self.job_id, after_seq=after_seq)

    def skip(self, after_seq: int) -> int:
        """Jump the cursor to just before the history, counting the skip.

        Returns the new cursor.  The skipped events count in
        ``anttune_event_queue_dropped_total`` for the job.
        """
        oldest, _ = self._bus.history(self.job_id, after_seq, after_seq)
        self._bus.note_drops(self.job_id, oldest - after_seq - 1)
        return max(after_seq, oldest - 1)

    def read(self, after_seq: int, budget: int,
             frame: Optional[Callable[[Event], bytes]] = None):
        """The history's events after the cursor; None to read the log.

        Returns ``(items, cursor, end)``: events in seq order (or their
        ``frame`` bytes, ``budget`` then counting bytes) until ``budget``,
        the last seq taken, and whether the stream ended.  None: the log
        holds what the history lost, so run :meth:`backlog` instead.
        """
        events = self.recent(after_seq)
        if events is None:
            if self.log is not None:
                return None
            after_seq = self.skip(after_seq)
            events = self.recent(after_seq) or []
        return self._take(events, after_seq, budget, frame)

    def backlog(self, after_seq: int, budget: int,
                frame: Optional[Callable[[Event], bytes]] = None):
        """One chunk of the durable log after the cursor, as :meth:`read`.

        A chunk that leaves the cursor where it was means the next event is
        not logged yet: the window's next delivery wakes the reader.
        """
        # Read before the log: every seq up to it is in the log by now.
        seen = self.seen
        items, cursor, end = self._take(self.logged(after_seq), after_seq,
                                        budget, frame)
        if not items and not end:
            if not self.live:
                end = True  # a log-only job: the log was the whole story
            elif cursor < seen:
                cursor = self.skip(cursor)  # lost from the log as well
        return items, cursor, end

    def _take(self, events: Iterable[Event], cursor: int, budget: int,
              frame: Optional[Callable[[Event], bytes]]):
        items: list = []
        used = 0
        end = False
        for event in events:
            if event.seq > cursor + 1:
                # A hole in the log (an append that raised, which the bus
                # swallows): counted, like a skip.
                self._bus.note_drops(self.job_id, event.seq - cursor - 1)
            item = event if frame is None else frame(event)
            items.append(item)
            used += 1 if frame is None else len(item)
            cursor = event.seq
            if isinstance(event, JobStateChanged) and event.terminal:
                end = True
                break
            if used >= budget:
                break
        if self.final is not None and cursor >= self.final:
            end = True  # the reader already has the terminal event
        return items, cursor, end

    def close(self) -> None:
        """Detach from the bus (idempotent)."""
        if self._subscription is not None:
            self._subscription.close()


class EventCursor:
    """An iterator over one job's events: a seq cursor over its window.

    What ``subscribe()`` without a callback returns.  It reads the job's
    :class:`EventWindow` as an HTTP event stream does — the bus history,
    then the durable log when the window has one — so a reader never loses
    an event a log holds; without a log, what it skips counts in
    :meth:`EventBus.dropped`.  Iteration ends after the terminal
    :class:`JobStateChanged`; :meth:`close` may come from any thread.
    """

    #: Events one window read takes at most: bounds a log catch-up's memory.
    CHUNK = 512

    def __init__(self, bus: EventBus, job_id: Optional[int], log=None) -> None:
        self.job_id = job_id
        self._cursor = -1
        self._pending: Deque[Event] = deque()
        self._ended = self._closed = False
        self._ready = threading.Event()
        self._window = EventWindow(bus, job_id, log, live=True,
                                   wake=self._ready.set)

    def get(self, timeout: Optional[float] = None) -> Optional[Event]:
        """Next event in publish order; None once the stream ended.

        Args:
            timeout: seconds to wait for the next event.

        Returns:
            The next event, or None when the stream has ended (terminal
            event consumed, or :meth:`close` was called).

        Raises:
            TimeoutError: no event arrived within ``timeout``.
        """
        deadline = None if timeout is None else monotonic() + timeout
        while not self._closed:
            if self._pending:
                return self._pending.popleft()
            if self._ended:
                break
            self._ready.clear()  # a delivery after this sets it again
            got = self._window.read(self._cursor, self.CHUNK)
            if got is None:  # behind the history: read the log right here
                got = self._window.backlog(self._cursor, self.CHUNK)
            events, self._cursor, self._ended = got
            self._pending.extend(events)
            if not (events or self._ended or self._ready.wait(
                    None if deadline is None
                    else max(0.0, deadline - monotonic()))):
                raise TimeoutError(
                    f"no event within {timeout}s on job {self.job_id!r}")
        return None

    def __iter__(self) -> Iterator[Event]:
        return iter(self.get, None)

    def close(self) -> None:
        """Detach from the bus; a blocked :meth:`get` wakes and returns None."""
        self._closed = True
        self._window.close()
        self._ready.set()

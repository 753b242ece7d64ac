"""Durable per-job event log: segmented, append-only, seq-indexed.

The :class:`~repro.automl.events.EventBus` gives every job one ordered event
stream, but its replay history is a bounded in-memory ring — a restarted
server forgets every stream, so a client reconnecting with ``last_seq`` after
a crash used to find nothing to replay.  :class:`EventLog` closes that gap:
the tune server feeds every published event of a job into an append-only
on-disk log (one synchronous bus callback per job), and the remote event
endpoint ``GET /v1/jobs/{id}/events?last_seq=`` reads it transparently for
any seq the in-memory history no longer holds or a new process never had.

Log format
----------

One directory per job under the log root::

    <root>/
      job-<id>/
        meta.json                    # study name, code refs, priority, preempt
        events-0000000000.ndjson     # segment: events with seq >= 0
        events-0000000512.ndjson     # segment: events with seq >= 512
        ...

Each segment line is one :func:`~repro.automl.events.event_to_wire` payload —
exactly the bytes the remote NDJSON stream ships, so ``tail -f`` on a segment
shows the live wire format and the CLI ``log`` subcommand can print replayable
lines.  The segment file name carries the first sequence number it holds
(**seq-indexed**): a reader resuming from ``last_seq`` skips whole segments
below it without parsing a line, and compaction can drop whole old segments
while knowing exactly which seq range it sheds.

Durability policy
-----------------

Every append is flushed to the OS (``file.flush()``), so a killed *process*
(SIGKILL, OOM) loses nothing that was published.  ``fsync`` controls the
stronger machine-crash guarantee:

* ``"always"`` — fsync after every append (safest, slowest);
* ``"interval"`` (default) — fsync at most every ``fsync_interval`` seconds,
  plus on segment rotation, on a job's terminal event (which also closes
  the job's segment handle) and on close;
* ``"never"`` — leave flushing to the OS.

A torn final line (a crash mid-write) is tolerated on read: lines that fail
to parse are skipped, so recovery sees every *complete* record.

Bounded segments
----------------

A segment rotates once it reaches ``segment_max_bytes``; when a job exceeds
``max_segments`` segments, the oldest whole segments are deleted
(*seq-aware compaction*: the deleted range is exactly ``[0, first seq of the
oldest surviving segment)``, so a reader below that point sees a clean gap it
can report, never a half-segment).  The newest segment — which holds the
terminal event once the job ends — is never compacted away.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.automl import metrics as _metrics
from repro.automl.events import (
    Event,
    JobStateChanged,
    event_from_wire,
    event_wire_bytes,
)

__all__ = ["EventLog", "FSYNC_POLICIES"]

# Durability-path timings; each histogram's _count doubles as the operation
# counter (appends/fsyncs/rotations), matching EventLog.stats().
_APPEND_SECONDS = _metrics.REGISTRY.histogram(
    "anttune_eventlog_append_seconds",
    "EventLog.append latency (serialise + write + flush, fsync included "
    "when the policy triggers one).")
_FSYNC_SECONDS = _metrics.REGISTRY.histogram(
    "anttune_eventlog_fsync_seconds", "EventLog fsync latency.")
_ROTATION_SECONDS = _metrics.REGISTRY.histogram(
    "anttune_eventlog_rotation_seconds",
    "EventLog segment rotation latency (close + open + compaction).")

#: Accepted values for the ``fsync`` policy.
FSYNC_POLICIES = ("always", "interval", "never")

_SEGMENT_PREFIX = "events-"
_SEGMENT_SUFFIX = ".ndjson"
_JOB_PREFIX = "job-"


def _segment_name(first_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_seq:010d}{_SEGMENT_SUFFIX}"


def _segment_first_seq(path: Path) -> Optional[int]:
    name = path.name
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


@dataclass
class _Appender:
    """Open write state for one job's current segment."""

    handle: Optional[object] = None
    path: Optional[Path] = None
    size: int = 0
    last_fsync: float = 0.0
    events: int = 0
    pending_fsync: bool = field(default=False)


class EventLog:
    """Segmented append-only store of per-job wire events (see module docs).

    Args:
        root: directory holding one ``job-<id>/`` subdirectory per job.
        segment_max_bytes: rotate the active segment at this size.
        max_segments: per-job bound; the oldest whole segments beyond it are
            deleted on rotation (seq-aware compaction).
        fsync: durability policy — ``"always"``, ``"interval"`` or
            ``"never"`` (see module docs).  Appends always flush to the OS.
        fsync_interval: seconds between fsyncs under the ``"interval"``
            policy.
        create: create ``root`` if missing.  Pass False for read-only
            inspection (the CLI ``log`` subcommand) so a typo'd path errors
            instead of materialising an empty log.

    Raises:
        ValueError: unknown ``fsync`` policy or non-positive bounds.
        FileNotFoundError: ``create=False`` and ``root`` does not exist.
    """

    def __init__(self, root: str, segment_max_bytes: int = 1 << 20,
                 max_segments: int = 64, fsync: str = "interval",
                 fsync_interval: float = 1.0, create: bool = True) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r}; expected one "
                             f"of {FSYNC_POLICIES}")
        if segment_max_bytes < 1:
            raise ValueError("segment_max_bytes must be >= 1")
        if max_segments < 1:
            raise ValueError("max_segments must be >= 1")
        if fsync_interval < 0:
            raise ValueError("fsync_interval must be >= 0")
        self.root = Path(root)
        self.segment_max_bytes = int(segment_max_bytes)
        self.max_segments = int(max_segments)
        self.fsync = fsync
        self.fsync_interval = float(fsync_interval)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise FileNotFoundError(f"no event log at {self.root}")
        self._lock = threading.RLock()
        self._appenders: Dict[int, _Appender] = {}
        # Operator-facing counters (surfaced through server_status()).
        self.appended = 0
        self.rotations = 0
        self.compacted_segments = 0
        self.fsyncs = 0

    # ------------------------------------------------------------------ #
    # Layout helpers
    # ------------------------------------------------------------------ #
    def _job_dir(self, job_id: int) -> Path:
        return self.root / f"{_JOB_PREFIX}{int(job_id)}"

    def _segments(self, job_id: int) -> List[Tuple[int, Path]]:
        """Sorted ``(first_seq, path)`` pairs of one job's segments."""
        job_dir = self._job_dir(job_id)
        if not job_dir.is_dir():
            return []
        segments = []
        for path in job_dir.iterdir():
            first_seq = _segment_first_seq(path)
            if first_seq is not None:
                segments.append((first_seq, path))
        segments.sort()
        return segments

    def jobs(self) -> List[int]:
        """Every job id with a directory in this log, ascending."""
        ids = []
        if self.root.is_dir():
            for path in self.root.iterdir():
                name = path.name
                if (path.is_dir() and name.startswith(_JOB_PREFIX)
                        and name[len(_JOB_PREFIX):].isdigit()):
                    ids.append(int(name[len(_JOB_PREFIX):]))
        return sorted(ids)

    def has_job(self, job_id: int) -> bool:
        """Whether this log holds any state for ``job_id``."""
        return self._job_dir(job_id).is_dir()

    # ------------------------------------------------------------------ #
    # Job metadata
    # ------------------------------------------------------------------ #
    def open_job(self, job_id: int, study_name: str,
                 refs: Optional[Dict[str, str]] = None,
                 priority: float = 1.0, preempt: bool = False,
                 trace_id: Optional[str] = None) -> None:
        """Create (or update) a job's directory and recovery metadata.

        ``meta.json`` is what makes crash recovery possible: it maps the job
        id back to its storage ``study_name``, and — when the submit carried
        ``module:attr`` code references — records them so
        :meth:`~repro.automl.server.AntTuneServer.recover` can re-import the
        space/objective and auto-resume the job.  Re-opening an existing job
        (a recovered resume) merges the new values over the stored ones.

        Args:
            job_id: the bus job id the events are stamped with.
            study_name: the storage name the job persists under.
            refs: ``module:attr`` reference strings (``space``,
                ``objective``, optionally ``algorithm``/``pruner``), when
                known.
            priority: the job's fair-share weight, restored on auto-resume.
            preempt: the job's preempt flag, restored on auto-resume.
            trace_id: the job's trace id, when known — persisted so a
                recovered resume continues the *same* trace instead of
                starting a fresh one, keeping pre- and post-crash events
                correlated.
        """
        job_dir = self._job_dir(job_id)
        with self._lock:
            job_dir.mkdir(parents=True, exist_ok=True)
            meta = self.meta(job_id) or {}
            meta.update({"job_id": int(job_id), "study_name": study_name,
                         "priority": float(priority),
                         "preempt": bool(preempt)})
            if trace_id:
                meta["trace_id"] = str(trace_id)
            if refs:
                meta["refs"] = {key: str(value)
                                for key, value in dict(refs).items()}
            path = job_dir / "meta.json"
            tmp = job_dir / "meta.json.tmp"
            tmp.write_text(json.dumps(meta, sort_keys=True, indent=2))
            tmp.replace(path)  # atomic: recovery never reads a torn meta

    def meta(self, job_id: int) -> Optional[Dict[str, object]]:
        """The job's recovery metadata, or None when absent/torn."""
        path = self._job_dir(job_id) / "meta.json"
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    def append(self, event: Event) -> None:
        """Append one bus-stamped event to its job's active segment.

        Called synchronously from the bus's publish path (a callback
        subscription), so by the time any queue consumer sees an event it is
        already flushed to the OS — a killed process loses nothing it
        delivered.  Rotation and compaction happen inline when the active
        segment fills.  A job's terminal event also closes its segment (after
        an fsync, policy permitting): a long-lived server holds open handles
        only for jobs still running, and a later append (a recovered job)
        reopens the newest segment.

        Args:
            event: a published event — ``job_id`` set and ``seq`` stamped.

        Raises:
            ValueError: an unstamped event (no job id, or ``seq < 0``).
            OSError: the underlying write failed (the bus swallows callback
                exceptions, so a dying disk degrades durability, never the
                publisher).
        """
        job_id, seq = event.job_id, event.seq
        if job_id is None or seq < 0:
            raise ValueError("only bus-stamped events (job_id set, seq >= 0) "
                             "can be logged")
        append_start = perf_counter()
        # Shared wire bytes: the same buffer every stream subscriber ships,
        # serialised once per event (see events.event_wire_bytes).
        line = event_wire_bytes(event)
        terminal = isinstance(event, JobStateChanged) and event.terminal
        with self._lock:
            appender = self._appenders.get(job_id)
            if appender is None:
                appender = self._appenders[job_id] = self._open_appender(job_id)
            if appender.handle is None or appender.size >= self.segment_max_bytes:
                self._rotate(job_id, appender, first_seq=seq)
            appender.handle.write(line)
            appender.handle.flush()
            appender.size += len(line)
            appender.events += 1
            self.appended += 1
            if self.fsync == "always" or terminal:
                self._fsync(appender)  # a no-op under "never"
            elif self.fsync == "interval":
                now = time.monotonic()
                if now - appender.last_fsync >= self.fsync_interval:
                    self._fsync(appender)
                    appender.last_fsync = now
            if terminal:
                appender.handle.close()
                del self._appenders[job_id]
        _APPEND_SECONDS.observe(perf_counter() - append_start)

    def _open_appender(self, job_id: int) -> _Appender:
        """Resume appending to the job's newest segment (or start fresh)."""
        self._job_dir(job_id).mkdir(parents=True, exist_ok=True)
        segments = self._segments(job_id)
        # The interval clock starts now: a job's first append (its QUEUED
        # event, inside the submit request) waits for the interval like any
        # other instead of paying an fsync.
        appender = _Appender(last_fsync=time.monotonic())
        if segments:
            _, path = segments[-1]
            appender.path = path
            appender.size = path.stat().st_size
            appender.handle = open(path, "ab")
        return appender

    def _rotate(self, job_id: int, appender: _Appender, first_seq: int) -> None:
        """Close the active segment and open a new one starting at ``first_seq``."""
        with _ROTATION_SECONDS.time():
            self._rotate_locked(job_id, appender, first_seq)

    def _rotate_locked(self, job_id: int, appender: _Appender,
                       first_seq: int) -> None:
        if appender.handle is not None:
            self._fsync(appender)
            appender.handle.close()
            self.rotations += 1
        path = self._job_dir(job_id) / _segment_name(first_seq)
        appender.handle = open(path, "ab")
        appender.path = path
        appender.size = path.stat().st_size
        # Enforce the per-job segment bound, oldest first; the segment just
        # opened (and with it any terminal event to come) always survives.
        segments = self._segments(job_id)
        while len(segments) > self.max_segments:
            _, oldest = segments.pop(0)
            if oldest == appender.path:  # pragma: no cover - max_segments>=1
                break
            try:
                oldest.unlink()
                self.compacted_segments += 1
            except OSError:  # pragma: no cover - raced removal
                break

    def _fsync(self, appender: _Appender) -> None:
        if appender.handle is None or self.fsync == "never":
            return
        try:
            fsync_start = perf_counter()
            os.fsync(appender.handle.fileno())
            self.fsyncs += 1
            _FSYNC_SECONDS.observe(perf_counter() - fsync_start)
        except OSError:  # pragma: no cover - e.g. fsync on a pipe
            pass

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def read(self, job_id: int, after_seq: int = -1) -> Iterator[Event]:
        """Yield the job's logged events with ``seq > after_seq``, in order.

        Segments entirely below ``after_seq`` are skipped by file name
        (seq-indexed, no parsing); torn or corrupt lines are skipped; a
        segment deleted mid-read (concurrent compaction) is skipped whole.

        Args:
            job_id: the job to read.
            after_seq: resume point; -1 reads from the log's oldest record.

        Yields:
            Reconstructed typed events in ascending ``seq`` order.
        """
        segments = self._segments(job_id)
        for index, (first_seq, path) in enumerate(segments):
            next_first = (segments[index + 1][0] if index + 1 < len(segments)
                          else None)
            if next_first is not None and next_first <= after_seq + 1:
                continue  # every seq in this segment is <= after_seq
            try:
                raw_lines = path.read_bytes().splitlines()
            except OSError:
                continue  # compacted away under us
            for raw in raw_lines:
                if not raw.strip():
                    continue
                try:
                    event = event_from_wire(json.loads(raw.decode("utf-8")))
                except (ValueError, UnicodeDecodeError):
                    continue  # torn tail from a crash mid-write
                if event.seq > after_seq:
                    yield event

    def last_seq(self, job_id: int) -> int:
        """The highest logged sequence number for ``job_id`` (-1 if none)."""
        last = self.last_event(job_id)
        return -1 if last is None else last.seq

    def last_event(self, job_id: int) -> Optional[Event]:
        """The newest parseable logged event of ``job_id``, or None."""
        for first_seq, path in reversed(self._segments(job_id)):
            try:
                raw_lines = path.read_bytes().splitlines()
            except OSError:
                continue
            for raw in reversed(raw_lines):
                if not raw.strip():
                    continue
                try:
                    return event_from_wire(json.loads(raw.decode("utf-8")))
                except (ValueError, UnicodeDecodeError):
                    continue  # torn tail
        return None

    def first_seq(self, job_id: int) -> int:
        """The lowest seq still on disk (-1 if none) — compaction's floor."""
        for first_seq, path in self._segments(job_id):
            for event in self.read(job_id, after_seq=first_seq - 1):
                return event.seq
        return -1

    # ------------------------------------------------------------------ #
    # Compaction and removal
    # ------------------------------------------------------------------ #
    def compact(self, job_id: int, keep_after_seq: int) -> int:
        """Drop whole segments whose every seq is ``<= keep_after_seq``.

        Seq-aware: only segments fully below the keep point are deleted (a
        segment straddling it survives intact), and the newest segment is
        never deleted — the terminal event always remains replayable.

        Args:
            job_id: the job to compact.
            keep_after_seq: events with seq above this must survive.

        Returns:
            The number of segments deleted.
        """
        removed = 0
        with self._lock:
            segments = self._segments(job_id)
            for index, (first_seq, path) in enumerate(segments[:-1]):
                if segments[index + 1][0] <= keep_after_seq + 1:
                    try:
                        path.unlink()
                        removed += 1
                        self.compacted_segments += 1
                    except OSError:  # pragma: no cover - raced removal
                        pass
        return removed

    def remove_job(self, job_id: int) -> None:
        """Delete a job's directory (meta + all segments); idempotent."""
        with self._lock:
            appender = self._appenders.pop(job_id, None)
            if appender is not None and appender.handle is not None:
                appender.handle.close()
            shutil.rmtree(self._job_dir(job_id), ignore_errors=True)

    def remove_study(self, study_name: str) -> List[int]:
        """Delete every job log persisted for ``study_name``.

        This is how :meth:`StudyStorage.delete_study
        <repro.automl.storage.StudyStorage.delete_study>` and ``gc`` keep the
        log from outliving the rows it annotates.

        Returns:
            The removed job ids.
        """
        removed = []
        for job_id in self.jobs():
            meta = self.meta(job_id)
            if meta is not None and meta.get("study_name") == study_name:
                self.remove_job(job_id)
                removed.append(job_id)
        return removed

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Operator counters: appends, rotations, compactions, fsyncs."""
        with self._lock:
            return {
                "root": str(self.root),
                "jobs": len(self.jobs()),
                "appended": self.appended,
                "rotations": self.rotations,
                "compacted_segments": self.compacted_segments,
                "fsyncs": self.fsyncs,
            }

    def flush(self) -> None:
        """Flush (and, policy permitting, fsync) every open segment."""
        with self._lock:
            for appender in self._appenders.values():
                if appender.handle is not None:
                    appender.handle.flush()
                    self._fsync(appender)

    def close(self) -> None:
        """Flush and close every open segment handle (the log stays readable)."""
        with self._lock:
            for appender in self._appenders.values():
                if appender.handle is not None:
                    appender.handle.flush()
                    self._fsync(appender)
                    appender.handle.close()
                    appender.handle = None
            self._appenders.clear()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

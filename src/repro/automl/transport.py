"""Shared-memory telemetry transport between process workers and the parent.

The process backend used to move control traffic over two expensive channels:
reports went up through a ``multiprocessing.Queue`` (a pipe write + feeder
thread per message) and kill signals down through a ``multiprocessing.Manager``
dict — one proxy RPC round trip *per report* just to check "am I killed?".
:class:`TelemetryTransport` replaces both with plain shared memory:

* **Report ring.**  A fixed-capacity ring of ``(ticket, step, value)`` records
  in a shared ctypes array, guarded by one shared lock.  Workers
  :meth:`push`; the parent :meth:`drain`\\ s everything available.  When a
  burst outruns the parent, the *oldest* records are dropped (telemetry is
  advisory — the final trial record is authoritative) and counted in
  :attr:`dropped`.
* **Doorbell.**  A shared event set by every push.  The process executor's
  drain thread blocks in :meth:`wait` and drains each time it rings, so
  reports reach the trial loops without a poll.
* **Kill flags.**  A fixed table of per-submission reason codes.  The parent
  assigns each submission a *kill slot* (:meth:`allocate_kill_slot`) shipped
  to the worker with the task; the worker's per-report kill check is then a
  single shared-array read — no lock, no RPC.  Slots are recycled via
  :meth:`release_kill_slot` once the submission's record merged back.

The transport is built from ``multiprocessing`` shared ctypes primitives, so
it crosses the process boundary the same way the executor's worker-counter
``Value`` always has: passed once through the pool initializer, never through
a proxy.  Parent-only state (the slot free-list and its lock) is excluded
from pickling and rebuilt empty on the worker side.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Dict, List, Optional, Tuple

from repro.automl.trial import KILLED_STATES

__all__ = ["TelemetryTransport", "REASON_CODES", "CODE_REASONS"]

# Kill reasons wire-encoded as small positive ints; 0 means "alive".
REASON_CODES: Dict[str, int] = {
    reason: code for code, reason in enumerate(sorted(KILLED_STATES), start=1)
}
CODE_REASONS: Dict[int, str] = {code: reason
                                for reason, code in REASON_CODES.items()}

_FIELDS = 3  # (ticket, step, value) per ring record


class TelemetryTransport:
    """Lock-guarded shared-memory ring + doorbell + kill-flag table.

    Args:
        ctx: the ``multiprocessing`` context the worker pool uses (shared
            primitives must come from the same context).
        capacity: ring size in records; a burst larger than this between two
            parent drains sheds its oldest records.
        kill_slots: size of the kill-flag table — an upper bound on
            concurrently in-flight submissions (far above any real pool).
    """

    def __init__(self, ctx=None, capacity: int = 4096,
                 kill_slots: int = 1024) -> None:
        if capacity < 1 or kill_slots < 1:
            raise ValueError("capacity and kill_slots must be >= 1")
        ctx = ctx if ctx is not None else multiprocessing.get_context()
        self.capacity = int(capacity)
        self.kill_slots = int(kill_slots)
        # Raw (lock-free) shared arrays; every multi-field access goes through
        # self._lock.  Tickets/steps ride as float64 — exact up to 2**53,
        # far beyond any ticket counter's lifetime.
        self._ring = ctx.RawArray("d", _FIELDS * self.capacity)
        self._head = ctx.RawValue("q", 0)   # next write index (monotonic)
        self._tail = ctx.RawValue("q", 0)   # next read index (monotonic)
        self._dropped = ctx.RawValue("q", 0)
        self._lock = ctx.Lock()
        self._doorbell = ctx.Event()
        self._kills = ctx.RawArray("q", self.kill_slots)
        # Parent-only slot bookkeeping (never pickled to workers).
        self._slot_lock: Optional[threading.Lock] = threading.Lock()
        self._free_slots: Optional[List[int]] = list(
            range(self.kill_slots - 1, -1, -1))

    # ------------------------------------------------------------------ #
    # Pickling (pool initializer hands the transport to each worker)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state["_slot_lock"] = None
        state["_free_slots"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #
    # Report ring
    # ------------------------------------------------------------------ #
    def push(self, ticket: int, step: int, value: float) -> None:
        """Worker-side: append one ``(ticket, step, value)`` report record."""
        with self._lock:
            head = self._head.value
            if head - self._tail.value >= self.capacity:
                # Full: shed the oldest record so fresh telemetry wins.
                self._tail.value += 1
                self._dropped.value += 1
            base = (head % self.capacity) * _FIELDS
            self._ring[base] = float(ticket)
            self._ring[base + 1] = float(step)
            self._ring[base + 2] = float(value)
            self._head.value = head + 1
        self._doorbell.set()

    def drain(self) -> List[Tuple[int, int, float]]:
        """Parent-side: pop every available report record, in push order.

        Returns:
            ``(ticket, step, value)`` tuples; empty when nothing is pending.
        """
        self._doorbell.clear()
        with self._lock:
            tail, head = self._tail.value, self._head.value
            records = []
            for index in range(tail, head):
                base = (index % self.capacity) * _FIELDS
                records.append((int(self._ring[base]),
                                int(self._ring[base + 1]),
                                self._ring[base + 2]))
            self._tail.value = head
        return records

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the doorbell rings (a worker pushed a report).

        Returns:
            True when a report is (probably) pending, False on timeout.
        """
        return self._doorbell.wait(timeout)

    def ring(self) -> None:
        """Parent-side: ring the doorbell without a report (wakes a waiter)."""
        self._doorbell.set()

    @property
    def pending(self) -> int:
        """Records currently buffered in the ring (racy snapshot)."""
        return max(0, self._head.value - self._tail.value)

    @property
    def dropped(self) -> int:
        """Total records shed to overflow since the transport was created."""
        return self._dropped.value

    # ------------------------------------------------------------------ #
    # Kill flags
    # ------------------------------------------------------------------ #
    def allocate_kill_slot(self) -> int:
        """Parent-side: reserve a cleared kill slot for one submission.

        Returns:
            The slot index to ship with the task, or -1 when the table is
            exhausted (the submission then has no remote kill fast-path —
            local cooperative kills still apply).
        """
        assert self._slot_lock is not None, "allocate on the parent side only"
        with self._slot_lock:
            if not self._free_slots:
                return -1
            slot = self._free_slots.pop()
        self._kills[slot] = 0
        return slot

    def release_kill_slot(self, slot: int) -> None:
        """Parent-side: clear and recycle a slot once its submission merged."""
        if slot < 0:
            return
        assert self._slot_lock is not None, "release on the parent side only"
        self._kills[slot] = 0
        with self._slot_lock:
            self._free_slots.append(slot)

    def set_kill(self, slot: int, reason: str) -> None:
        """Parent-side: signal the worker running ``slot``'s submission.

        Args:
            slot: the submission's kill slot (no-op for -1).
            reason: a kill reason from :mod:`repro.automl.trial`.
        """
        if slot < 0:
            return
        self._kills[slot] = REASON_CODES[reason]

    def kill_reason(self, slot: int) -> Optional[str]:
        """Worker-side: the kill reason for ``slot``, or None while alive.

        A single aligned shared-array read — this is the per-report check
        that used to be a Manager-dict RPC.
        """
        if slot < 0:
            return None
        return CODE_REASONS.get(self._kills[slot])

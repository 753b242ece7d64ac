"""Pull-based trial execution: a lease board for remote worker agents.

The in-tree executors *push* work into a local pool; this module inverts
the arrow.  :class:`TicketTrialExecutor` implements the standard
:class:`~repro.automl.executors.TrialExecutor` interface, but ``submit()``
only parks the trial on a board as an open **ticket**.  Worker agents
(:mod:`repro.automl.remote.worker`) on other machines claim tickets over
HTTP (``POST /v1/tickets/claim``), run the objective locally, stream
intermediate values back (``/report`` — mirrored into the local trial
exactly like the process backend's shared-memory ring, so pruners and
``TrialReport`` events work unchanged), and ship the terminal record with
``/complete``.

Leases make worker loss survivable.  A claim grants a lease of
``lease_seconds``; every report or heartbeat renews it.  When a lease
expires — the worker was SIGKILLed, wedged, or partitioned — the board
finalises the trial as ``CANCELLED`` with the ``preempted`` kill reason,
which both schedulers already special-case: the configuration is requeued
**uncharged** (no budget slot, no retry), exactly like fair-share
preemption.  A zombie worker that finishes the stale attempt anyway gets
its ``/complete`` rejected (the ticket is gone), so a trial is never
charged twice.

Kill signals flow the other way on the same channel: ``kill_trial``
records the reason on the ticket, and the next report/heartbeat response
carries it back to the worker, whose local ``trial.report(...)`` then
raises — the cooperative-kill contract every other backend honours.

Objectives cross the wire as ``module:attr`` references only (the wire
rule everywhere in the remote layer): the tune server registers each
job's objective ref on the board via :meth:`register_objective` before
the first submit.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.automl import metrics as _metrics
from repro.automl.executors import TrialExecutor, TrialExecutorClosed
from repro.exceptions import TrialError
from repro.automl.trial import (
    KILL_PREEMPTED,
    KILLED_STATES,
    Trial,
    TrialState,
)

__all__ = ["TicketTrialExecutor", "DEFAULT_LEASE_SECONDS"]

#: Default lease duration.  Renewed on every report/heartbeat, so it only
#: needs to outlive a worker's longest silence, not a whole trial.
DEFAULT_LEASE_SECONDS = 15.0

_TICKETS_CLAIMED = _metrics.REGISTRY.counter(
    "anttune_tickets_claimed_total",
    "Trial tickets leased to pull workers.")
_TICKETS_COMPLETED = _metrics.REGISTRY.counter(
    "anttune_tickets_completed_total",
    "Trial tickets whose worker shipped a terminal record in time.")
_LEASES_LOST = _metrics.REGISTRY.counter(
    "anttune_ticket_leases_lost_total",
    "Leases that expired (dead/wedged worker); the config requeues uncharged.")
_STALE_RESULTS = _metrics.REGISTRY.counter(
    "anttune_ticket_stale_results_total",
    "Late /complete or /report calls rejected after the lease was lost.")

Objective = Callable[[Trial], float]


@dataclass
class _Ticket:
    """One parked submission: everything a worker needs, plus lease state."""

    ticket_id: int
    trial: Trial
    objective_ref: str
    trial_time_limit: Optional[float]
    future: "Future[Trial]"
    lease_seconds: float
    token: Optional[str] = None          # set when leased
    worker: Optional[str] = None
    deadline: float = 0.0                # monotonic; meaningful when leased
    kill_reason: Optional[str] = None    # parked kill, delivered on report
    reported_steps: int = 0

    @property
    def leased(self) -> bool:
        return self.token is not None


class TicketTrialExecutor(TrialExecutor):
    """A :class:`TrialExecutor` whose workers pull trials over HTTP.

    Construction takes no network arguments: the board is plain state, and
    the HTTP surface (``/v1/tickets/...`` in ``remote/http_server.py``)
    calls :meth:`claim` / :meth:`report` / :meth:`heartbeat` /
    :meth:`complete` on it.  Lease expiry is swept from
    :meth:`drain_telemetry`, which the trial loop calls when
    :meth:`sweep_due_in` says the earliest lease can have expired — no extra
    thread and no poll.
    """

    backend_name = "ticket"

    def __init__(self, n_workers: int,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be > 0")
        #: Bounds how many tickets the schedulers keep in flight at once —
        #: the pool width the fair-share governor apportions, not a local
        #: thread count (no trial ever executes in this process).
        self.n_workers = n_workers
        self.lease_seconds = float(lease_seconds)
        self._lock = threading.Lock()
        self._counter = itertools.count()
        self._tickets: Dict[int, _Ticket] = {}
        self._open: List[int] = []                 # claim order (FIFO)
        self._by_trial: Dict[int, int] = {}        # id(trial) -> ticket_id
        # ``module:attr`` refs pinned per objective; the objective is kept
        # as a strong reference so id() keys cannot be recycled while the
        # ref is live.
        self._objective_refs: Dict[int, "tuple[str, Objective]"] = {}
        self._closed = False
        self._mirrored_since_drain = 0
        self._leases_lost = 0

    # ------------------------------------------------------------------ #
    # Objective references (the server registers these per job)
    # ------------------------------------------------------------------ #
    def register_objective(self, objective: Objective,
                           ref: Optional[str] = None) -> str:
        """Pin the ``module:attr`` reference workers import for ``objective``.

        Raises:
            ValueError: the objective has no importable reference (lambda,
                closure, ``__main__`` callable) and none was supplied —
                pull workers run in other processes and can only import.
        """
        if ref is None:
            module = getattr(objective, "__module__", "") or ""
            qualname = getattr(objective, "__qualname__", "") or ""
            ref = f"{module}:{qualname}"
        if (":" not in ref or "<" in ref or not ref.split(":", 1)[0]
                or ref.startswith("__main__:")):
            raise ValueError(
                f"objective {ref!r} is not importable by pull workers; "
                f"submit it as a module:attr reference "
                f"(the remote SDK does this for you)")
        with self._lock:
            self._objective_refs[id(objective)] = (ref, objective)
        return ref

    def _ref_for(self, objective: Objective) -> str:
        with self._lock:
            entry = self._objective_refs.get(id(objective))
        if entry is not None:
            return entry[0]
        return self.register_objective(objective)

    # ------------------------------------------------------------------ #
    # TrialExecutor interface (the scheduler side)
    # ------------------------------------------------------------------ #
    def submit(self, objective: Objective, trial: Trial,
               trial_time_limit: Optional[float] = None) -> "Future[Trial]":
        """Park the trial as an open ticket; the future resolves when a
        worker completes it (or its lease is lost and the board finalises
        it as preempted).

        Raises:
            TrialExecutorClosed: the executor was permanently closed.
            ValueError: the objective has no importable reference.
        """
        ref = self._ref_for(objective)
        future: "Future[Trial]" = Future()
        ticket = _Ticket(
            ticket_id=next(self._counter), trial=trial, objective_ref=ref,
            trial_time_limit=trial_time_limit, future=future,
            lease_seconds=self.lease_seconds)
        with self._lock:
            if self._closed:
                raise TrialExecutorClosed("executor has been closed")
            self._tickets[ticket.ticket_id] = ticket
            self._open.append(ticket.ticket_id)
            self._by_trial[id(trial)] = ticket.ticket_id
        self._observe_trial(trial, future)
        return future

    def kill_trial(self, trial: Trial, reason: str) -> None:
        """Kill locally and signal the leasing worker at its next report.

        An **open** (unclaimed) ticket has no worker to deliver to: it is
        finalised on the spot, and its future's done-callback wakes the
        trial loop to settle it, instead of waiting out a lease that never
        starts.
        """
        trial.kill(reason)
        resolve: List[_Ticket] = []
        with self._lock:
            ticket_id = self._by_trial.get(id(trial))
            ticket = self._tickets.get(ticket_id) if ticket_id is not None else None
            if ticket is None:
                return
            ticket.kill_reason = reason
            if not ticket.leased:
                self._finalise_locked(ticket, reason, resolve)
        self._resolve(resolve)

    def drain_telemetry(self) -> int:
        """Sweep expired leases; report mirroring already happened inline.

        Reports land in the local trials synchronously inside
        :meth:`report` (the HTTP handler's thread), so unlike the process
        backend there is no ring to empty — this is where dead workers are
        noticed instead, when :meth:`sweep_due_in` falls due.
        """
        now = time.monotonic()
        resolve: List[_Ticket] = []
        with self._lock:
            for ticket in list(self._tickets.values()):
                if ticket.leased and now >= ticket.deadline:
                    reason = ticket.kill_reason or KILL_PREEMPTED
                    self._leases_lost += 1
                    _LEASES_LOST.inc()
                    self._finalise_locked(ticket, reason, resolve)
            mirrored, self._mirrored_since_drain = self._mirrored_since_drain, 0
        self._resolve(resolve)
        return mirrored

    def sweep_due_in(self) -> Optional[float]:
        """Seconds until the earliest lease can expire (None: no tickets).

        A leased ticket expires at its deadline.  An open one can expire no
        sooner than one lease after a claim that has not happened yet, so a
        loop that sleeps that long never misses a lease claimed meanwhile.
        """
        with self._lock:
            if not self._tickets:
                return None
            now = time.monotonic()
            return min(ticket.deadline - now if ticket.leased
                       else ticket.lease_seconds
                       for ticket in self._tickets.values())

    def _finalise_locked(self, ticket: _Ticket, reason: str,
                         resolve: List[_Ticket]) -> None:
        """Finalise a ticket without a worker record (kill or lost lease).

        Caller holds ``self._lock``.  The trial gets the reason's terminal
        state unless something else (deadline expiry, a completed record)
        already finished it — the first writer wins, like every backend.
        The future is resolved by the caller *after* releasing the board
        lock (``_resolve``): done-callbacks run inline on ``set_result``.
        """
        self._pop_locked(ticket)
        trial = ticket.trial
        # Inline kill: Trial.kill() would re-acquire the (non-reentrant)
        # state lock we must hold to make check-and-finalise atomic.
        with trial._state_lock:
            if not trial.is_finished:
                if trial._kill_reason is None:
                    trial._kill_reason = reason
                trial.state = KILLED_STATES.get(
                    trial._kill_reason, TrialState.CANCELLED)
        resolve.append(ticket)

    @staticmethod
    def _resolve(tickets: List[_Ticket]) -> None:
        for ticket in tickets:
            if not ticket.future.done():
                # An open ticket's future may also have been resolved by
                # expire_trial's cancel(); a leased one is running and only
                # resolves here or in complete().
                ticket.future.set_result(ticket.trial)

    def _pop_locked(self, ticket: _Ticket) -> None:
        self._tickets.pop(ticket.ticket_id, None)
        self._by_trial.pop(id(ticket.trial), None)
        try:
            self._open.remove(ticket.ticket_id)
        except ValueError:
            pass

    def shutdown(self) -> None:
        """Requeue open tickets back to the schedulers; leased ones finish."""
        resolve: List[_Ticket] = []
        with self._lock:
            for ticket_id in list(self._open):
                ticket = self._tickets.get(ticket_id)
                if ticket is not None:
                    self._finalise_locked(ticket, KILL_PREEMPTED, resolve)
        self._resolve(resolve)

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self.shutdown()

    # ------------------------------------------------------------------ #
    # The wire side (called by the /v1/tickets HTTP handlers)
    # ------------------------------------------------------------------ #
    def claim(self, worker: Optional[str] = None) -> Optional[dict]:
        """Lease the oldest open ticket to ``worker``; None when idle."""
        now = time.monotonic()
        with self._lock:
            while self._open:
                ticket = self._tickets.get(self._open.pop(0))
                if ticket is None:
                    continue
                if not ticket.future.set_running_or_notify_cancel():
                    # A canceller (expire_trial on a starved batch) beat the
                    # claim: the terminal state is already recorded.
                    self._pop_locked(ticket)
                    continue
                ticket.token = uuid.uuid4().hex
                ticket.worker = worker
                ticket.deadline = now + ticket.lease_seconds
                # The trial loop times the limit from here, not the submit.
                ticket.trial.started_at = time.perf_counter()
                if worker:
                    ticket.trial.worker = worker
                _TICKETS_CLAIMED.inc()
                return {
                    "ticket": ticket.ticket_id,
                    "token": ticket.token,
                    "trial_id": ticket.trial.trial_id,
                    "params": dict(ticket.trial.params),
                    "objective": ticket.objective_ref,
                    "trial_time_limit": ticket.trial_time_limit,
                    "lease_seconds": ticket.lease_seconds,
                    "kill": ticket.kill_reason,
                }
        return None

    def _leased_ticket_locked(self, ticket_id: int, token: str) -> _Ticket:
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            _STALE_RESULTS.inc()
            # "unknown ..." maps to HTTP 404 in the remote error taxonomy.
            raise TrialError(
                f"unknown ticket {ticket_id} (completed, or its lease was "
                f"lost and the trial requeued)")
        if not ticket.leased or ticket.token != token:
            _STALE_RESULTS.inc()
            # Anything else maps to 409: a conflict the worker must drop.
            raise TrialError(
                f"stale lease token for ticket {ticket_id}: the result of "
                f"this attempt is discarded")
        return ticket

    def report(self, ticket_id: int, token: str, step: int,
               value: float) -> Optional[str]:
        """Record one intermediate value; renew the lease; return any kill.

        Mirrors the value into the local trial with the process backend's
        NaN-padding discipline, so out-of-order or shed reports keep their
        true step index, then calls the trial's ``_report_hook`` so the
        trial loop publishes it as a ``TrialReport`` within one report
        batch.
        """
        landed = False
        with self._lock:
            ticket = self._leased_ticket_locked(ticket_id, token)
            ticket.deadline = time.monotonic() + ticket.lease_seconds
            trial = ticket.trial
            with trial._state_lock:
                if (not trial.is_finished
                        and step >= len(trial.intermediate_values)):
                    values = trial.intermediate_values
                    while len(values) < step:
                        values.append(float("nan"))
                    values.append(float(value))
                    self._mirrored_since_drain += 1
                    ticket.reported_steps += 1
                    landed = True
            kill = ticket.kill_reason or trial.kill_reason
        hook = trial._report_hook
        if landed and hook is not None:  # outside the board lock
            hook(trial, float(value), step)
        return kill

    def heartbeat(self, ticket_id: int, token: str) -> Optional[str]:
        """Renew the lease between reports; return any pending kill."""
        with self._lock:
            ticket = self._leased_ticket_locked(ticket_id, token)
            ticket.deadline = time.monotonic() + ticket.lease_seconds
            return ticket.kill_reason or ticket.trial.kill_reason

    def complete(self, ticket_id: int, token: str, record: dict) -> None:
        """Merge the worker's terminal record and resolve the future.

        A canceller that already recorded a terminal state wins (the
        process backend's merge rule); the record is otherwise
        authoritative — including its ``intermediate_values``, which
        backfill any NaN pads from shed reports.
        """
        try:
            state = TrialState(record["state"])
        except ValueError:
            raise TrialError(
                f"record for ticket {ticket_id} carries an invalid state "
                f"{record['state']!r}") from None
        with self._lock:
            ticket = self._leased_ticket_locked(ticket_id, token)
            self._pop_locked(ticket)
            trial = ticket.trial
        with trial._state_lock:
            if not trial.is_finished:
                trial.state = state
                trial.value = record["value"]
                trial.error = record["error"]
                trial.duration_seconds = float(record["duration_seconds"])
                trial.intermediate_values = [
                    float(v) for v in record["intermediate_values"]]
        _TICKETS_COMPLETED.inc()
        if not ticket.future.done():
            ticket.future.set_result(trial)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def board_status(self) -> dict:
        """Counts for ``server_status()`` and tests."""
        with self._lock:
            leased = sum(1 for t in self._tickets.values() if t.leased)
            return {
                "open": len(self._tickets) - leased,
                "leased": leased,
                "leases_lost": self._leases_lost,
                "lease_seconds": self.lease_seconds,
            }

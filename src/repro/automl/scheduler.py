"""Trial schedulers: how a study keeps its worker pool busy (Fig. 8 dispatch).

Every parallel run drives one event-driven trial loop over a job's in-flight
trials, and the two scheduling disciplines are its refill policies:

* :class:`RoundScheduler` — the deterministic default.  Up to ``n_workers``
  configurations are asked from the algorithm, evaluated concurrently as one
  batch, then told back in submission order.  Because the batch forms a
  barrier, a fixed seed always yields the same trial set, but one straggler
  idles every other worker until the round ends.
* :class:`AsyncScheduler` — slot refill.  All ``n_workers`` slots are kept
  busy at all times: the moment any trial finishes it is told back (under the
  study lock, so every sequential algorithm still works unchanged) and a new
  configuration is asked and submitted into the freed slot.  A straggler only
  occupies its own slot.  Completion order feeds the algorithm, so the trial
  *sequence* is not reproducible across runs — use the round scheduler when
  bit-identical replays matter.

Both policies share the study's retry policy (a failed configuration is
resubmitted up to ``max_retries`` times without consuming extra budget slots),
per-trial deadlines and the total time limit.  The loop never polls: it
sleeps until a trial finishes, a report lands in an in-flight trial, the
study is stopped, the job's fair share changes, or a timer falls due (a
trial deadline, the total-time deadline, the report batch or the executor's
sweep; ``docs/architecture.md`` lists the wake sources).  Its passes also:

* **publish live telemetry** (:class:`TelemetryMonitor`) — intermediate values
  streamed back by in-flight trials (including process-backend ones, over the
  shared-memory transport) are published to the study's event sink as
  :class:`~repro.automl.events.TrialReport` events at most
  :data:`REPORT_BATCH_SECONDS` after they arrive, and fed to the study's
  pruner; a futureless trial is killed mid-run instead of running to its
  deadline;
* **observe cancellation** — a :meth:`Study.request_stop` (e.g. the tune
  server's ``cancel(job_id)``) wakes the loop, which expires everything in
  flight with the ``CANCELLED`` terminal state at once;
* **requeue preempted trials** — a trial killed with
  :data:`~repro.automl.trial.KILL_PREEMPTED` (the tune server yielding slots
  to a ``preempt=True`` high-priority job) is resubmitted with the same
  configuration, without charging a budget slot or a retry.

Fair sharing of one pool between jobs is provided by
:class:`FairShareGovernor` and :class:`GovernedExecutor`: the governor
apportions the pool's slots among registered jobs by priority weight, and the
governed view caps each job's refill width at its current allowance, so a
latency-sensitive job overtakes a bulk sweep as slots free up instead of
queueing behind it FIFO.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from repro.automl import metrics as _metrics
from repro.automl.events import TrialKilled, TrialReport
from repro.automl.executors import TrialExecutor, expire_trial
from repro.automl.pruners import NoPruner
from repro.automl.trial import (
    KILL_CANCELLED,
    KILL_DEADLINE,
    KILL_PREEMPTED,
    KILL_PRUNED,
    KILLED_STATES,
    Trial,
    TrialState,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.automl.study import Study

__all__ = [
    "TrialScheduler",
    "RoundScheduler",
    "AsyncScheduler",
    "make_scheduler",
    "TelemetryMonitor",
    "FairShareGovernor",
    "GovernedExecutor",
    "REPORT_BATCH_SECONDS",
    "STARVATION_GRACE_FACTOR",
]

Objective = Callable[[Trial], float]
CheckpointFn = Optional[Callable[[], None]]
SchedulerLike = Union[None, str, "TrialScheduler"]

#: The longest a report waits before its job's loop publishes it.  Reports
#: arriving within one bound go out as one batch: one loop pass, one edge
#: flush.  A smaller bound cuts report lag but costs CPU per trial (the
#: sweep that chose 20 ms is in ``docs/architecture.md``).
REPORT_BATCH_SECONDS = 0.02

#: A queued trial waits on a pool that may be serving a co-tenant, so its
#: time limit only starts with the trial; it fails "never started" once this
#: many limits have passed since its submit, so a wedged pool cannot hang
#: the study.
STARVATION_GRACE_FACTOR = 5.0

# Pass work only (sweep, prune, deadlines, settle, refill): the histogram
# shows scheduling cost, not idleness.
_TICK_SECONDS = _metrics.REGISTRY.histogram(
    "anttune_scheduler_tick_seconds",
    "Trial-loop pass duration (sweep, prune, deadlines, settle, refill), "
    "excluding the wait between passes.", labels=("scheduler",))
_TICKS_TOTAL = _metrics.REGISTRY.counter(
    "anttune_scheduler_ticks_total", "Trial-loop passes run.",
    labels=("scheduler",))
_SLOTS_BUSY = _metrics.REGISTRY.gauge(
    "anttune_scheduler_slots_busy",
    "In-flight trials occupying executor slots (last loop pass's view).",
    labels=("scheduler",))


class TelemetryMonitor:
    """Turns live telemetry into events and prune decisions between passes.

    The trial loop calls :meth:`observe` once per pass.  Every newly visible
    intermediate value (executors mirror process-backend and remote reports
    into the local trial objects as they arrive) is published to the study's
    event sink as a :class:`~repro.automl.events.TrialReport` — one ordered
    stream regardless of backend — and any trial with new reports is judged
    by the study's pruner.  A futureless trial is killed with
    :data:`~repro.automl.trial.KILL_PRUNED` (published as
    :class:`~repro.automl.events.TrialKilled`), which its objective observes
    at the next ``report()`` — so even a remote straggler stops mid-run.

    With a :class:`~repro.automl.pruners.NoPruner` the monitor only
    publishes (keeping intermediate values visible to subscriptions mid-run)
    and never kills, so the round scheduler's determinism is unaffected.
    """

    def __init__(self, study: "Study", executor: TrialExecutor) -> None:
        self.study = study
        self.executor = executor
        self.prune_active = not isinstance(study.pruner, NoPruner)
        # Reports already published/judged per trial id, so each new report
        # hits the bus (and the pruner) exactly once.
        self._seen: Dict[int, int] = {}

    @property
    def active(self) -> bool:
        """Whether reports have anywhere to go: a pruner or an event sink."""
        return self.prune_active or self.study._event_sink is not None

    def _publish_new_reports(self, trial: Trial) -> bool:
        """Publish the trial's reports not yet on the stream (step order).

        The stream mirrors ``intermediate_values`` faithfully — including
        NaN entries, whether a user-reported diverged loss or a
        ring-overflow pad — so subscribers and ``status()`` agree.

        Returns:
            Whether any new report was published (i.e. the pruner has new
            evidence to judge).
        """
        seen = self._seen.get(trial.trial_id, 0)
        if len(trial.intermediate_values) <= seen:
            return False  # cheap pre-check before taking the lock
        with trial._state_lock:
            fresh = trial.intermediate_values[seen:]
        if not fresh:
            return False
        self._seen[trial.trial_id] = seen + len(fresh)
        for offset, value in enumerate(fresh):
            self.study.publish_event(TrialReport(
                trial_id=trial.trial_id, step=seen + offset, value=value))
        return True

    def observe(self, trials: Sequence[Trial]) -> None:
        """Publish new reports and prune futureless trials.

        Args:
            trials: the caller's in-flight trials (other jobs' trials on a
                shared executor are only published and judged by their own
                loop).
        """
        if not self.active:
            return  # bare study: nobody to publish to or judge for
        for trial in trials:
            if (trial.is_finished or trial.is_cancelled
                    or not self._publish_new_reports(trial)
                    or not self.prune_active):
                continue
            with self.study._lock:
                prune = self.study.pruner.should_prune(
                    trial, self.study.trials, self.study.config.maximize)
            if prune:
                self.executor.kill_trial(trial, KILL_PRUNED)
                if trial.kill_reason == KILL_PRUNED:
                    # First kill wins: only the reason that landed publishes,
                    # after the reports it was based on.
                    self._publish_new_reports(trial)
                    self.study.publish_event(TrialKilled(
                        trial_id=trial.trial_id, reason=KILL_PRUNED))

    def flush(self, trial: Trial) -> None:
        """Publish a settling trial's not-yet-published reports.

        Called right before the trial is told back (and its
        :class:`~repro.automl.events.TrialFinished` publishes), so even a
        trial that settles before its report batch is due gets every report
        onto the stream, in step order, ahead of its terminal event.
        """
        self._publish_new_reports(trial)

    def forget(self, trial: Trial) -> None:
        """Stop tracking a settled trial (frees the seen-report counter)."""
        self._seen.pop(trial.trial_id, None)


class TrialScheduler:
    """A refill policy for the trial loop, set by :attr:`barrier`."""

    name: str = "base"
    #: True: refill only once the loop is empty and tell each wave back in
    #: submission order (round).  False: refill every freed slot (async).
    barrier: Optional[bool] = None

    def run(self, study: "Study", objective: Objective, executor: TrialExecutor,
            remaining: int, worker_names: Sequence[str],
            checkpoint_fn: CheckpointFn = None) -> None:
        """Consume ``remaining`` budget slots of ``study`` on ``executor``.

        Args:
            study: the study whose algorithm is asked/told (under its lock).
            objective: the user callable evaluated per trial.
            executor: the worker pool to keep busy.
            remaining: how many budget slots are left to consume.
            worker_names: round-robin worker attribution labels.
            checkpoint_fn: invoked after every consumed budget slot (async
                policy) or every round (round policy).

        Raises:
            NotImplementedError: the class sets no refill policy.
        """
        if self.barrier is None:
            raise NotImplementedError(
                f"{type(self).__name__} sets no refill policy (barrier)")
        _TrialLoop(self, study, objective, executor, remaining, worker_names,
                   checkpoint_fn).run()


class RoundScheduler(TrialScheduler):
    """Round-barrier batches: deterministic, but stragglers idle the batch."""

    name = "round"
    barrier = True


class AsyncScheduler(TrialScheduler):
    """Slot refill: every finished trial immediately frees a slot for the next."""

    name = "async"
    barrier = False


@dataclass
class _Flight:
    """One in-flight trial: the asked params, its retry count and deadlines."""

    params: Dict[str, object]
    retries: int
    trial: Trial
    future: "Future[Trial]"
    deadline: Optional[float]
    submitted_at: float


class _TrialLoop:
    """One job's in-flight trials, woken by events instead of a poll.

    Every wake source rings one bell: a future's done-callback, a report
    landing in an in-flight trial (its ``_report_hook``), ``Study.request_stop``
    (``_on_stop``) and a fair-share change (``watch_capacity``).  The wait's
    timeout is the earliest timer.  A wake-up with nothing finished, nothing
    due and no slot to fill sleeps again without a pass.

    A pass that published reports keeps the batch timer armed for one more
    bound, so a steady report stream costs one wake-up per batch rather
    than two (arm, then fire); when that timer fires with nothing pending
    the loop sleeps on, untimed, without a pass.
    """

    def __init__(self, policy: TrialScheduler, study: "Study",
                 objective: Objective, executor: TrialExecutor, remaining: int,
                 worker_names: Sequence[str], checkpoint_fn: CheckpointFn) -> None:
        self.barrier = bool(policy.barrier)
        self.study = study
        self.objective = objective
        self.executor = executor
        self.remaining = remaining
        self.names = list(worker_names)
        self.checkpoint_fn = checkpoint_fn
        self.limit = study.config.trial_time_limit
        self.monitor = TelemetryMonitor(study, executor)
        self.tick_seconds = _TICK_SECONDS.labels(scheduler=policy.name)
        self.ticks_total = _TICKS_TOTAL.labels(scheduler=policy.name)
        self.slots_busy = _SLOTS_BUSY.labels(scheduler=policy.name)
        self.in_flight: Dict["Future[Trial]", _Flight] = {}  # submit order
        # Finished or expired, not yet told back: a round holds its wave.
        self.resolved: List[_Flight] = []
        # (params, retries) waiting for a slot — retries, preempted requeues
        # and the rest of a round's batch — so a requeue honours the job's
        # (possibly smaller) fair-share allowance.
        self.queue: List[Tuple[Dict[str, object], int]] = []
        self.asked = 0
        # A binary semaphore: a wake source releases it, the sleeping loop
        # acquires it.  Cheaper per wake-up than an Event's Condition.
        self._bell = threading.Lock()
        self._bell.acquire()
        self.report_due: Optional[float] = None
        self.reported = False  # a report landed since the last pass
        total = study.config.total_time_limit
        self.hard_deadline = None if total is None else time.perf_counter() + total

    def run(self) -> None:
        unwatch = self.executor.watch_capacity(self._ring)
        self.study._on_stop = self._ring
        try:
            self._refill()
            while self.in_flight:
                self._sleep()
                self._pass()
        finally:
            self.study._on_stop = None
            unwatch()
            self.slots_busy.set(0)

    def _ring(self, *_: object) -> None:
        try:
            self._bell.release()
        except RuntimeError:
            pass  # already rung

    def _report_arrived(self, trial: Trial, value: float,
                        step: Optional[int]) -> None:
        """The first report pending for this job arms the batch timer."""
        self.reported = True
        if self.report_due is None:
            self.report_due = time.perf_counter() + REPORT_BATCH_SECONDS
            self._ring()

    def _out_of_time(self, now: float) -> bool:
        return self.hard_deadline is not None and now >= self.hard_deadline

    def _sleep(self) -> None:
        """Block until a pass is due."""
        while True:
            now = time.perf_counter()
            if (self.study.stop_requested or self._out_of_time(now)
                    or any(f.done() for f in self.in_flight)):
                return
            if self.report_due is not None and self.report_due <= now:
                if self.reported:
                    return
                # The timer kept armed after the last batch fired unused.
                # Re-check after disarming: a report that saw it armed did
                # not ring.
                self.report_due = None
                if self.reported:
                    return
            sweep = self.executor.sweep_due_in()
            timers = [t for t in (self.report_due, self.hard_deadline,
                                  None if sweep is None else now + sweep)
                      if t is not None]
            timers += [f.deadline for f in self.in_flight.values()
                       if f.deadline is not None]
            wake_at = min(timers, default=None)
            if ((wake_at is not None and wake_at <= now)
                    or (not self.barrier and self._room()
                        and (self.queue or self.asked < self.remaining))):
                return
            # A ring since the last look leaves the bell released, so this
            # returns at once.
            self._bell.acquire(True, -1 if wake_at is None else wake_at - now)

    def _room(self) -> bool:
        return len(self.in_flight) < max(1, self.executor.n_workers)

    def _pass(self) -> None:
        start = time.perf_counter()
        sweep = self.executor.sweep_due_in()
        if sweep is not None and sweep <= 0:
            # The ticket board's lease sweep: it resolves lost leases'
            # futures before this pass collects them.  Reports need no drain
            # here; every backend mirrors them as they arrive.
            self.executor.drain_telemetry()
        for future in [f for f in self.in_flight if f.done()]:
            if not future.cancelled() and future.exception() is not None:
                # Only BaseExceptions such as KeyboardInterrupt escape
                # execute_trial: abort the study instead of spinning.
                raise future.exception()
            self.resolved.append(self.in_flight.pop(future))
        if self.study.stop_requested or self._out_of_time(start):
            reason = (KILL_CANCELLED if self.study.stop_requested
                      else KILL_DEADLINE)
            for flight in list(self.in_flight.values()):
                self._expire(flight, reason)
        else:
            self._enforce_deadlines(start)
        reported, self.reported = self.reported, False
        self.report_due = None  # observe() publishes everything pending
        self.monitor.observe([f.trial for f in self.in_flight.values()])
        if self.resolved and not (self.barrier and self.in_flight):
            self._settle_wave()
        self._refill()
        if reported and self.in_flight and self.report_due is None:
            self.report_due = start + REPORT_BATCH_SECONDS  # expect more
        self.slots_busy.set(len(self.in_flight))
        self.ticks_total.inc()
        self.tick_seconds.observe(time.perf_counter() - start)

    def _enforce_deadlines(self, now: float) -> None:
        """The one starvation rule: a trial's clock starts with the trial.

        A trial past ``start + limit`` times out.  A trial still queued is
        not failed for pool contention until ``STARVATION_GRACE_FACTOR``
        limits after its submit; then it fails "never started" (retryable).
        """
        for flight in list(self.in_flight.values()):
            if flight.deadline is None or now < flight.deadline:
                continue
            limit = self.limit or 0.0
            started = flight.trial.started_at
            running = flight.future.running()
            if started is None and running:
                # A process worker's start record not yet drained (or shed
                # by ring overflow): the future turning running is the best
                # proxy, and a later start record moves it.
                flight.trial.started_at = started = now
            if started is not None and now < started + limit:
                flight.deadline = started + limit
                continue
            grace = flight.submitted_at + limit * STARVATION_GRACE_FACTOR
            if started is None and not running and now < grace:
                flight.deadline = min(now + limit, grace)
                continue
            self._expire(flight, KILL_DEADLINE)

    def _expire(self, flight: _Flight, reason: str) -> None:
        """Kill one in-flight trial for ``reason`` and record its state."""
        del self.in_flight[flight.future]
        trial = flight.trial
        if not flight.future.done():
            # A future that already completed finished normally: a kill for
            # it would contradict its TrialFinished.
            self.executor.kill_trial(trial, reason)
        expire_trial(trial, flight.future, self.limit or 0.0, reason=reason)
        if (trial.kill_reason == reason
                and trial.state is KILLED_STATES.get(reason)):
            # Only a kill that decided the terminal state publishes (first
            # kill wins; a never-started trial recorded FAILED gets none),
            # after the reports it cut short.
            self.monitor.flush(trial)
            self.study.publish_event(TrialKilled(
                trial_id=trial.trial_id, reason=reason))
        self.resolved.append(flight)

    def _settle_wave(self) -> None:
        wave, self.resolved = self.resolved, []
        if self.barrier:
            wave.sort(key=lambda flight: flight.trial.trial_id)  # submit order
        self.queue[:0] = [entry for entry in map(self._settle, wave)
                          if entry is not None]
        if (self.barrier and self.checkpoint_fn is not None
                and not self.study.stop_requested
                and (not self.queue or self._out_of_time(time.perf_counter()))):
            self.checkpoint_fn()  # the round is over

    def _settle(self, flight: _Flight) -> Optional[Tuple[Dict[str, object], int]]:
        """Tell a resolved trial back; return its config if it reruns.

        A preempted configuration reruns charging neither a budget slot nor
        a retry; a failure reruns up to ``max_retries`` times; a cancelled
        slot is not charged (a resume re-runs it); anything else consumes a
        slot.  A rerun that a cancel or the time limit abandons is never
        charged.
        """
        trial = flight.trial
        trial._report_hook = None
        self.monitor.flush(trial)
        preempted = (trial.state is TrialState.CANCELLED
                     and trial.kill_reason == KILL_PREEMPTED)
        if preempted:
            # Published by the victim's own loop, never the preemptor's, so
            # no TrialKilled follows (or contradicts) a normal finish.
            self.study.publish_event(TrialKilled(
                trial_id=trial.trial_id, reason=KILL_PREEMPTED))
        self.study.tell(trial)
        self.monitor.forget(trial)
        if preempted:
            return flight.params, flight.retries
        if (trial.state is TrialState.FAILED
                and flight.retries < self.study.config.max_retries):
            return flight.params, flight.retries + 1
        if trial.state is not TrialState.CANCELLED:
            self.study._budget_used += 1
        if not self.barrier and self.checkpoint_fn is not None:
            self.checkpoint_fn()
        return None

    def _refill(self) -> None:
        if self.barrier and self.in_flight:
            return
        while (self._room() and not self.study.stop_requested
               and not self._out_of_time(time.perf_counter())):
            if not self.queue:
                if (self.asked >= self.remaining
                        or (self.barrier and self.in_flight)):
                    break
                # A round asks its whole batch before launching any of it.
                count = (min(max(1, self.executor.n_workers),
                             self.remaining - self.asked)
                         if self.barrier else 1)
                self.queue = [(self.study.ask_params(), 0)
                              for _ in range(count)]
                self.asked += count
            self._launch(*self.queue.pop(0))

    def _launch(self, params: Dict[str, object], retries: int) -> None:
        study = self.study
        with study._lock:
            trial = study._new_trial(
                dict(params), self.names[len(study.trials) % len(self.names)])
        if self.monitor.active:
            trial._report_hook = self._report_arrived
        # Outside the study lock (event delivery may block), before the
        # submit so TrialStarted precedes anything the worker produces.
        study._publish_started(trial)
        future = self.executor.submit(self.objective, trial, self.limit)
        now = time.perf_counter()
        self.in_flight[future] = _Flight(
            params, retries, trial, future,
            None if self.limit is None else now + self.limit, now)
        future.add_done_callback(self._ring)


# --------------------------------------------------------------------------- #
# Fair sharing of one executor between jobs
# --------------------------------------------------------------------------- #
class FairShareGovernor:
    """Weighted apportionment of a pool's slots among concurrently running jobs.

    Each registered owner (a tune-server job) holds a positive priority
    weight; :meth:`allowance` apportions ``total_slots`` proportionally to
    the weights using the largest-remainder method, with deterministic
    tie-breaking by registration order and a guaranteed minimum of one slot
    per owner (so a low-priority job is slowed, never starved).  Trial loops
    re-read their allowance on every refill through
    :class:`GovernedExecutor`, and every register/unregister wakes the
    watching loops, so shares rebalance as soon as a job arrives or leaves.
    """

    def __init__(self, total_slots: int) -> None:
        if total_slots < 1:
            raise ValueError("total_slots must be >= 1")
        self.total_slots = int(total_slots)
        self._lock = threading.Lock()
        # dicts preserve insertion order: registration order breaks ties.
        self._weights: Dict[object, float] = {}
        self._listeners: List[Callable[[], None]] = []

    def register(self, owner: object, weight: float = 1.0) -> None:
        """Add (or re-weight) an owner competing for slots.

        Args:
            owner: any hashable job identity.
            weight: positive priority weight; larger means a bigger share.

        Raises:
            ValueError: for a non-positive weight.
        """
        if weight <= 0:
            raise ValueError("priority weight must be > 0")
        with self._lock:
            self._weights[owner] = float(weight)
        self._notify()

    def unregister(self, owner: object) -> None:
        """Remove an owner; its slots redistribute on the next allowance call."""
        with self._lock:
            self._weights.pop(owner, None)
        self._notify()

    def _notify(self) -> None:
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            listener()  # outside the lock: a woken loop reads allowances

    def watch(self, listener: Callable[[], None]) -> Callable[[], None]:
        """Call ``listener`` after every register/unregister; returns the
        function that stops the calls."""
        with self._lock:
            self._listeners.append(listener)

        def unwatch() -> None:
            with self._lock:
                self._listeners.remove(listener)
        return unwatch

    def allowance(self, owner: object) -> int:
        """How many slots ``owner`` may keep in flight right now.

        Returns:
            The owner's current apportioned share (>= 1), or the full pool
            for an unregistered owner (no contention bookkeeping to honour).
        """
        with self._lock:
            if owner not in self._weights:
                return self.total_slots
            return self._apportion()[owner]

    def shares(self) -> Dict[object, int]:
        """The current slot apportionment over all registered owners."""
        with self._lock:
            return self._apportion()

    def overage(self, in_flight: Dict[object, int]) -> Dict[object, int]:
        """How many in-flight trials each owner holds beyond its fair share.

        The tune server uses this when a ``preempt=True`` job arrives: each
        owner's overage is the number of its youngest running trials to kill
        (and requeue) so the pool converges to the new apportionment as soon
        as the victims stop, instead of waiting for trials to finish.

        Args:
            in_flight: current in-flight trial count per owner.

        Returns:
            Per-owner counts to shed (0 for owners within their share; an
            unregistered owner is treated as entitled to the full pool).
        """
        shares = self.shares()
        return {owner: max(0, count - shares.get(owner, self.total_slots))
                for owner, count in in_flight.items()}

    def _apportion(self) -> Dict[object, int]:
        # Largest-remainder apportionment; caller holds the lock.
        total_weight = sum(self._weights.values())
        quotas = {owner: self.total_slots * weight / total_weight
                  for owner, weight in self._weights.items()}
        shares = {owner: int(quota) for owner, quota in quotas.items()}
        leftover = self.total_slots - sum(shares.values())
        remainders = sorted(
            quotas, key=lambda o: quotas[o] - shares[o], reverse=True)
        for owner in remainders[:leftover]:
            shares[owner] += 1
        for owner in shares:
            # Never starve: a job always gets at least one slot, even if that
            # briefly oversubscribes the pool (bounded by the number of jobs).
            shares[owner] = max(1, shares[owner])
        return shares


class GovernedExecutor(TrialExecutor):
    """A per-job view of a shared executor, capped at its fair-share allowance.

    ``n_workers`` is dynamic: it re-reads the governor's current apportionment
    on every access, so the trial loop, which checks its width on every
    refill, shrinks or grows its in-flight set as co-tenant jobs come and go,
    and :meth:`watch_capacity` wakes it when they do.  All execution,
    telemetry and kill traffic delegates to the shared inner executor;
    lifecycle calls are no-ops because the pool belongs to the server, not to
    any single job.
    """

    def __init__(self, inner: TrialExecutor, governor: FairShareGovernor,
                 owner: object) -> None:
        self.inner = inner
        self.governor = governor
        self.owner = owner

    @property
    def n_workers(self) -> int:  # type: ignore[override]
        """This job's current slot allowance (>= 1)."""
        return max(1, self.governor.allowance(self.owner))

    def submit(self, objective: Objective, trial: Trial,
               trial_time_limit: Optional[float] = None) -> "Future[Trial]":
        return self.inner.submit(objective, trial, trial_time_limit)

    def drain_telemetry(self) -> int:
        return self.inner.drain_telemetry()

    def sweep_due_in(self) -> Optional[float]:
        return self.inner.sweep_due_in()

    def watch_capacity(self, wake: Callable[[], None]) -> Callable[[], None]:
        return self.governor.watch(wake)

    @property
    def telemetry_dropped(self) -> int:  # type: ignore[override]
        return self.inner.telemetry_dropped

    def kill_trial(self, trial: Trial, reason: str = KILL_CANCELLED) -> None:
        self.inner.kill_trial(trial, reason)

    def shutdown(self) -> None:
        """No-op: the shared pool's lifecycle belongs to the server."""

    def close(self) -> None:
        """No-op: the shared pool's lifecycle belongs to the server."""


def make_scheduler(spec: SchedulerLike) -> TrialScheduler:
    """Resolve ``None``/``"round"``/``"async"``/instance into a scheduler.

    Args:
        spec: None (round default), a scheduler name, or an instance.

    Returns:
        A :class:`TrialScheduler` ready to ``run``.

    Raises:
        ValueError: for an unknown scheduler name.
    """
    if spec is None:
        return RoundScheduler()
    if isinstance(spec, TrialScheduler):
        return spec
    if spec == RoundScheduler.name:
        return RoundScheduler()
    if spec == AsyncScheduler.name:
        return AsyncScheduler()
    raise ValueError(f"unknown scheduler {spec!r}; expected 'round', 'async' "
                     f"or a TrialScheduler instance")

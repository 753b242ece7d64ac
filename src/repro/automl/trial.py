"""Trial bookkeeping for the AntTune-style hyper-parameter optimisation module.

A :class:`Trial` is the unit of work the whole tune stack moves around: the
study creates it, an executor runs the objective on it, the scheduler watches
it, and storage persists its record.  Two cooperative control surfaces live
here:

* **Reporting** — objectives call :meth:`Trial.report` with intermediate
  values (e.g. per-epoch validation AUC).  Each report is appended locally
  and passed to the trial's report hook: in a worker process that forwards
  it over the live telemetry channel, and on the caller's side it wakes the
  trial loop, which feeds pruners mid-trial even for remote trials.
* **Killing** — the scheduler (or a deadline) marks a trial killed with a
  *reason* (:data:`KILL_DEADLINE`, :data:`KILL_PRUNED`,
  :data:`KILL_CANCELLED`).  The next :meth:`Trial.report` raises inside the
  objective, which the executor maps to the matching terminal state
  (``TIMED_OUT``, ``PRUNED`` or ``CANCELLED``), so a remote straggler stops
  at its next report instead of running to its deadline.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = [
    "TrialState",
    "Trial",
    "PrunedTrial",
    "TrialCancelled",
    "KILL_DEADLINE",
    "KILL_PRUNED",
    "KILL_CANCELLED",
    "KILL_PREEMPTED",
]

# Why a trial was killed mid-flight; each maps to a distinct terminal state.
KILL_DEADLINE = "deadline"    # per-trial time limit passed     -> TIMED_OUT
KILL_PRUNED = "pruned"        # pruner judged it futureless     -> PRUNED
KILL_CANCELLED = "cancelled"  # its job was cancelled           -> CANCELLED
KILL_PREEMPTED = "preempted"  # slot yielded to a preempting    -> CANCELLED
#                               high-priority job; the scheduler requeues the
#                               configuration without charging the slot.


class PrunedTrial(Exception):
    """Raised inside an objective to signal that the trial was early-stopped.

    Objectives may raise it themselves after :meth:`Trial.should_prune`, and
    :meth:`Trial.report` raises it automatically once the scheduler killed the
    trial with :data:`KILL_PRUNED` (live-telemetry pruning).
    """


class TrialCancelled(Exception):
    """Raised inside an objective once its trial has been killed.

    Cooperative objectives hit this automatically through
    :meth:`Trial.report`; the executor maps it to ``TIMED_OUT`` (deadline
    kills) or ``CANCELLED`` (job cancellation).
    """


class TrialState(enum.Enum):
    """Lifecycle of one hyper-parameter evaluation.

    ``PENDING -> RUNNING`` and then exactly one terminal state::

        COMPLETED  objective returned a value
        FAILED     objective raised (retryable by the study)
        PRUNED     early-stopped as futureless (cooperatively or via telemetry)
        TIMED_OUT  per-trial deadline passed
        CANCELLED  its job was cancelled mid-flight
    """

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    PRUNED = "pruned"
    TIMED_OUT = "timed_out"
    CANCELLED = "cancelled"

# Terminal state recorded for a trial killed with the given reason.
KILLED_STATES = {
    KILL_DEADLINE: TrialState.TIMED_OUT,
    KILL_PRUNED: TrialState.PRUNED,
    KILL_CANCELLED: TrialState.CANCELLED,
    KILL_PREEMPTED: TrialState.CANCELLED,
}


@dataclass
class Trial:
    """One evaluated hyper-parameter configuration.

    Attributes:
        trial_id: monotonically increasing identifier within a study.
        params: the configuration handed to the objective.
        state: current lifecycle state (see :class:`TrialState`).
        value: objective value (None until completion).
        intermediate_values: values reported during the run (used for pruning).
        duration_seconds: wall-clock duration of the objective call.
        error: textual description of the failure, if any.
        worker: identifier of the (simulated) worker that executed the trial.
    """

    trial_id: int
    params: Dict[str, object]
    state: TrialState = TrialState.PENDING
    value: Optional[float] = None
    intermediate_values: List[float] = field(default_factory=list)
    duration_seconds: float = 0.0
    error: Optional[str] = None
    worker: Optional[str] = None
    # perf_counter timestamp of when the objective actually began executing
    # (None while queued) — deadline enforcement measures from here so queue
    # wait behind other work doesn't count against the trial's time limit.
    started_at: Optional[float] = field(default=None, repr=False, compare=False)

    # The study wires this to its pruner; objectives call trial.report(...)
    # and trial.should_prune() to cooperate with early stopping.
    _prune_check: Optional[object] = None
    # Called with (trial, value, step) after every report lands in this
    # object.  Worker-side, executors wire it to their telemetry channel (to
    # stream the value up and observe kill signals); caller-side, the trial
    # loop sets it to wake itself, and executors that mirror remote reports
    # call it after mirroring.
    _report_hook: Optional[Callable[["Trial", float, Optional[int]], None]] = \
        field(default=None, repr=False, compare=False)
    # Set (once, first writer wins) when the scheduler or a deadline kills the
    # trial; guarded writes to the lifecycle fields go through _state_lock so
    # a straggler worker thread and the dispatching thread never race on the
    # terminal state.
    _kill_reason: Optional[str] = field(default=None, repr=False, compare=False)
    _state_lock: threading.Lock = field(default_factory=threading.Lock,
                                        repr=False, compare=False)

    def kill(self, reason: str = KILL_CANCELLED) -> None:
        """Mark the trial killed for ``reason`` (cooperative, first kill wins).

        The objective observes the kill at its next :meth:`report` call, which
        raises :class:`PrunedTrial` (reason :data:`KILL_PRUNED`) or
        :class:`TrialCancelled` (any other reason).

        Args:
            reason: one of :data:`KILL_DEADLINE`, :data:`KILL_PRUNED`,
                :data:`KILL_CANCELLED`, :data:`KILL_PREEMPTED`.

        Raises:
            ValueError: for an unknown reason string.
        """
        if reason not in KILLED_STATES:
            raise ValueError(f"unknown kill reason {reason!r}; expected one of "
                             f"{sorted(KILLED_STATES)}")
        with self._state_lock:
            if self._kill_reason is None:
                self._kill_reason = reason

    @property
    def kill_reason(self) -> Optional[str]:
        """Why the trial was killed, or None while it is allowed to run."""
        return self._kill_reason

    @property
    def is_cancelled(self) -> bool:
        """Whether a kill signal (deadline, prune or cancel) has been set."""
        return self._kill_reason is not None

    @property
    def killed_state(self) -> Optional[TrialState]:
        """The terminal state the kill reason maps to (None when not killed)."""
        reason = self._kill_reason
        return None if reason is None else KILLED_STATES[reason]

    def report(self, value: float, step: Optional[int] = None) -> None:
        """Report an intermediate objective value (e.g. per-epoch validation AUC).

        Args:
            value: the intermediate metric at this step.
            step: optional explicit step index; defaults to the running count
                of reports.

        Raises:
            PrunedTrial: the scheduler killed this trial as futureless.
            TrialCancelled: the trial was killed by its deadline or because
                its job was cancelled.
        """
        self._raise_if_killed()
        self.intermediate_values.append(float(value))
        if self._report_hook is not None:
            self._report_hook(self, float(value), step)

    def _raise_if_killed(self) -> None:
        reason = self._kill_reason
        if reason is None:
            return
        if reason == KILL_PRUNED:
            raise PrunedTrial(f"trial {self.trial_id} pruned as futureless")
        if reason == KILL_CANCELLED:
            raise TrialCancelled(f"trial {self.trial_id} was cancelled")
        if reason == KILL_PREEMPTED:
            raise TrialCancelled(
                f"trial {self.trial_id} was preempted by a higher-priority job")
        raise TrialCancelled(f"trial {self.trial_id} exceeded its time limit")

    def should_prune(self) -> bool:
        """Whether the attached pruner recommends stopping this trial early."""
        if self._prune_check is None:
            return False
        return bool(self._prune_check(self))

    @property
    def is_finished(self) -> bool:
        """Whether the trial has reached a terminal state."""
        return self.state in (TrialState.COMPLETED, TrialState.FAILED,
                              TrialState.PRUNED, TrialState.TIMED_OUT,
                              TrialState.CANCELLED)

    def as_record(self) -> Dict[str, object]:
        """The JSON-serialisable snapshot persisted by checkpoints and storage."""
        return {
            "trial_id": self.trial_id,
            "params": dict(self.params),
            "state": self.state.value,
            "value": self.value,
            "duration_seconds": round(self.duration_seconds, 6),
            "worker": self.worker,
            "error": self.error,
            "intermediate_values": [float(v) for v in self.intermediate_values],
        }

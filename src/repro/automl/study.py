"""The study object: AntTune's trial-generation and bookkeeping loop (Fig. 8).

A :class:`Study` pairs a search space with a search algorithm, runs an
objective function over a sequence of trials and keeps the full trial history.
The systematic features described in the paper are modelled explicitly:

* per-trial time limit and an overall job time limit,
* early stopping of futureless trials (via a :class:`~repro.automl.pruners.Pruner`)
  — live trial telemetry streams intermediate reports back from every
  backend, including process-pool workers, so the scheduler prunes
  stragglers mid-run instead of waiting for their deadline,
* cooperative cancellation (:meth:`Study.request_stop`, driven by the tune
  server's ``cancel(job_id)``): the trial loop wakes at once, and in-flight
  trials are killed and recorded ``CANCELLED``,
* a fault-tolerant mechanism (failed trials are recorded and retried up to a
  configurable number of times without aborting the study),
* parallel trial execution on a worker pool (``optimize(..., n_workers=4)``),
  mirroring the paper's dispatch of trials to distributed executors,
* JSON checkpointing so an interrupted study can resume where it stopped —
  version 2 checkpoints capture the algorithm's and study's RNG state, so a
  resumed study replays *identically* to an uninterrupted one.

Parallel runs default to round-based scheduling: up to ``n_workers``
configurations are asked from the algorithm, evaluated concurrently, then
told back in submission order under a lock.  Because ask/tell stay
serialised, every sequential algorithm works unchanged and a fixed seed
gives a deterministic trial set.  ``scheduler="async"`` switches to the
slot-refill :class:`~repro.automl.scheduler.AsyncScheduler`, which keeps all
workers busy past stragglers at the cost of run-to-run reproducibility of
the trial sequence.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.automl import metrics as _metrics
from repro.automl.algorithms.base import SearchAlgorithm, completed_trials
from repro.automl.algorithms.racos import RACOS
from repro.automl.events import TrialEvent, TrialFinished, TrialStarted
from repro.automl.executors import TrialExecutor, make_executor
from repro.automl.pruners import NoPruner, Pruner
from repro.automl.scheduler import SchedulerLike, make_scheduler
from repro.automl.search_space import SearchSpace
from repro.automl.trial import Trial, TrialState
from repro.exceptions import TrialError
from repro.utils.rng import new_rng
from repro.utils.serialization import load_json, save_json

__all__ = ["StudyConfig", "Study", "CHECKPOINT_VERSION"]

Objective = Callable[[Trial], float]

# v1: config, budget and trial history only.
# v2: + algorithm internal state and RNG streams for bit-identical resume.
CHECKPOINT_VERSION = 2

# ask/tell run under the study lock on the scheduling path: their latency is
# exactly the serialised portion every parallel run pays per trial.
_ASK_SECONDS = _metrics.REGISTRY.histogram(
    "anttune_ask_seconds",
    "Search-algorithm ask latency (configuration proposal), by algorithm.",
    labels=("algorithm",))
_TELL_SECONDS = _metrics.REGISTRY.histogram(
    "anttune_tell_seconds",
    "Search-algorithm tell latency (result ingestion), by algorithm.",
    labels=("algorithm",))
# Synthesised per-trial span (the objective's runtime, wherever it ran).
_TRIAL_RUN_SPAN = _metrics.REGISTRY.histogram(
    "anttune_span_seconds", "Duration of named trace spans.",
    labels=("span",)).labels(span="trial.run")


@dataclass(frozen=True)
class StudyConfig:
    """Study-level limits and behaviour.

    Attributes:
        maximize: whether larger objective values are better (AUC: yes).
        n_trials: number of trials to run.
        trial_time_limit: wall-clock seconds allowed per trial (None = unlimited).
        total_time_limit: wall-clock seconds allowed for the whole study.
        max_retries: how many times a failed configuration is re-attempted.
        raise_on_all_failed: raise :class:`TrialError` if no trial completes.
    """

    maximize: bool = True
    n_trials: int = 10
    trial_time_limit: Optional[float] = None
    total_time_limit: Optional[float] = None
    max_retries: int = 1
    raise_on_all_failed: bool = True


class Study:
    """Hyper-parameter study: sequential by default, pooled with ``n_workers>1``."""

    def __init__(self, space: SearchSpace, algorithm: Optional[SearchAlgorithm] = None,
                 config: Optional[StudyConfig] = None, pruner: Optional[Pruner] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.space = space
        self._rng = new_rng(rng if rng is not None else 0)
        self.algorithm = algorithm if algorithm is not None else RACOS(rng=self._rng)
        self.config = config or StudyConfig()
        self.pruner = pruner or NoPruner()
        self.trials: List[Trial] = []
        # Serialises ask/tell and trial-list mutation between worker batches.
        self._lock = threading.RLock()
        # Trial-budget slots consumed: restored from a checkpoint so a resumed
        # study only runs the remainder; retries do not consume extra slots.
        self._budget_used = 0
        self._resume_offset = 0
        # Monotonic id source: len(self.trials) would collide after a resume
        # drops in-flight trials out of the middle of the history.
        self._next_trial_id = 0
        # Cooperative cancellation: set by request_stop() (e.g. the tune
        # server's cancel(job_id)), which also rings the running trial
        # loop's bell (_on_stop) so it acts at once.
        self._stop = threading.Event()
        self._on_stop: Optional[Callable[[], None]] = None
        # Event sink: the tune server wires this to its EventBus (stamping the
        # owning job id); None means lifecycle events are dropped.  The study,
        # monitor and schedulers publish through publish_event().
        self._event_sink: Optional[Callable[[TrialEvent], None]] = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def best_trial(self) -> Trial:
        finished = completed_trials(self.trials)
        if not finished:
            raise TrialError("no completed trials in the study")
        key = (lambda t: t.value) if self.config.maximize else (lambda t: -t.value)
        return max(finished, key=key)

    @property
    def best_params(self) -> Dict[str, object]:
        return dict(self.best_trial.params)

    @property
    def best_value(self) -> float:
        return float(self.best_trial.value)

    def history_records(self) -> List[Dict[str, object]]:
        """JSON-serialisable snapshots of every trial, in creation order."""
        return [t.as_record() for t in self.trials]

    # ------------------------------------------------------------------ #
    # Cancellation
    # ------------------------------------------------------------------ #
    def request_stop(self) -> None:
        """Ask a running :meth:`optimize` to stop now.

        The trial loop wakes at once: in-flight trials are killed and
        recorded ``CANCELLED`` (their objectives stop at their next
        ``report()``; an inline trial on one worker runs to its end first),
        and the cancelled slots are not charged, so a later :meth:`optimize`
        (after :meth:`reset_stop`) re-runs them.  Sticky until
        :meth:`reset_stop`.
        """
        self._stop.set()
        wake = self._on_stop
        if wake is not None:
            wake()

    def reset_stop(self) -> None:
        """Clear a previous :meth:`request_stop` so the study may run again."""
        self._stop.clear()

    @property
    def stop_requested(self) -> bool:
        """Whether cancellation has been requested (sticky)."""
        return self._stop.is_set()

    # ------------------------------------------------------------------ #
    # Optimisation loop
    # ------------------------------------------------------------------ #
    def optimize(self, objective: Objective, *,
                 n_workers: int = 1, executor: Optional[TrialExecutor] = None,
                 backend: str = "auto", base_seed: int = 0,
                 scheduler: SchedulerLike = None,
                 worker_names: Optional[Sequence[str]] = None,
                 checkpoint_path: Optional[str] = None,
                 checkpoint_fn: Optional[Callable[[], None]] = None) -> Optional[Trial]:
        """Run the configured number of trials and return the best one.

        Every run drives the trial loop (:mod:`repro.automl.scheduler`) on a
        worker pool: ``executor`` when given, else one built by
        :func:`repro.automl.executors.make_executor` from ``n_workers``,
        ``backend`` and ``base_seed`` (the process workers' RNG streams).
        With ``n_workers=1`` that pool is a
        :class:`~repro.automl.executors.SynchronousExecutor`, running each
        trial inline on the calling thread.  The requested scheduler is
        ``"round"`` (deterministic batches, the default) or ``"async"``
        (slot refill — stragglers don't idle the other workers); ask/tell
        stay serialised in both.

        ``checkpoint_path`` saves the study state as JSON after every round
        (round) or consumed budget slot (async); ``checkpoint_fn`` is an
        arbitrary callback invoked at the same points (e.g. persisting into a
        :class:`~repro.automl.storage.StudyStorage`).  See
        :meth:`restore_checkpoint`.  Returns ``None`` when no trial completed
        and ``raise_on_all_failed`` is False.
        """
        remaining = max(0, self.config.n_trials - self._resume_offset)
        self._budget_used, self._resume_offset = self._resume_offset, 0
        owns_executor = executor is None
        if owns_executor:
            executor = make_executor(n_workers, backend=backend,
                                     base_seed=base_seed)
        names = list(worker_names) if worker_names else [
            f"worker-{i}" for i in range(executor.n_workers)]
        try:
            make_scheduler(scheduler).run(
                self, objective, executor, remaining, names,
                self._checkpoint_callback(checkpoint_path, checkpoint_fn))
        finally:
            if owns_executor:
                executor.shutdown()
        if not completed_trials(self.trials):
            if self.config.raise_on_all_failed:
                raise TrialError("every trial in the study failed")
            return None
        return self.best_trial

    def _checkpoint_callback(self, checkpoint_path: Optional[str],
                             checkpoint_fn: Optional[Callable[[], None]]
                             ) -> Optional[Callable[[], None]]:
        if checkpoint_path is None and checkpoint_fn is None:
            return None

        def _checkpoint() -> None:
            if checkpoint_path is not None:
                self.save_checkpoint(checkpoint_path)
            if checkpoint_fn is not None:
                checkpoint_fn()
        return _checkpoint

    def publish_event(self, event: TrialEvent) -> None:
        """Publish one lifecycle event to the attached sink (no-op without one).

        The tune server attaches a sink that stamps the owning job id and
        forwards onto its :class:`~repro.automl.events.EventBus`; a bare study
        has no sink and events are dropped.
        """
        sink = self._event_sink
        if sink is not None:
            sink(event)

    def ask_params(self) -> Dict[str, object]:
        """Ask the algorithm for the next configuration (thread-safe, timed).

        The single ask entry point for every scheduling mode: the proposal is
        made under the study lock (sequential algorithms work unchanged) and
        its latency lands in ``anttune_ask_seconds{algorithm=...}``.
        """
        with self._lock:
            start = time.perf_counter()
            params = self.algorithm.ask(self.space, self.trials,
                                        self.config.maximize)
            _ASK_SECONDS.labels(algorithm=self.algorithm.name).observe(
                time.perf_counter() - start)
            return params

    def tell(self, trial: Trial) -> None:
        """Feed a finished trial back into the algorithm (thread-safe).

        Also publishes the trial's :class:`~repro.automl.events.TrialFinished`
        event (with the full record) — every terminal trial reaches the event
        stream through this single point, on every scheduler.  Tell latency
        lands in ``anttune_tell_seconds{algorithm=...}``, and the trial's
        runtime is recorded as a ``trial.run`` span
        (``anttune_span_seconds{span="trial.run"}``).
        """
        with self._lock:
            start = time.perf_counter()
            self.algorithm.tell(trial)
            _TELL_SECONDS.labels(algorithm=self.algorithm.name).observe(
                time.perf_counter() - start)
        if trial.duration_seconds:
            _TRIAL_RUN_SPAN.observe(trial.duration_seconds)
        with trial._state_lock:
            record = trial.as_record()
        self.publish_event(TrialFinished(
            trial_id=trial.trial_id, state=trial.state.value,
            value=trial.value, record=record))

    def _new_trial(self, params: Dict[str, object], worker: str) -> Trial:
        # No event publish here: callers hold the study lock, and event
        # delivery can block (turnstile, subscriber callbacks, storage
        # commits) — a callback that re-enters the server (e.g. poll())
        # would deadlock on the study lock.  Callers publish TrialStarted
        # via _publish_started() after releasing the lock.
        trial = Trial(trial_id=self._next_trial_id, params=params, worker=worker)
        self._next_trial_id += 1
        trial._prune_check = lambda t: self.pruner.should_prune(t, self.trials, self.config.maximize)
        trial.state = TrialState.RUNNING
        self.trials.append(trial)
        return trial

    def _publish_started(self, trial: Trial) -> None:
        """Publish a trial's TrialStarted event (call *outside* the lock)."""
        self.publish_event(TrialStarted(trial_id=trial.trial_id,
                                        params=dict(trial.params),
                                        worker=trial.worker))

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    def state_payload(self) -> Dict[str, object]:
        """The full JSON-serialisable study state (checkpoint v2 format).

        Besides the config, budget and trial history (v1), the payload carries
        the algorithm's internal state and the study RNG stream so a resumed
        study asks exactly the configurations an uninterrupted run would have.
        """
        with self._lock:
            return {
                "version": CHECKPOINT_VERSION,
                "algorithm": self.algorithm.name,
                "algorithm_state": self.algorithm.get_state(),
                "rng_state": self._rng.bit_generator.state,
                "config": asdict(self.config),
                "budget_used": self._budget_used,
                "trials": [t.as_record() for t in self.trials],
            }

    def load_state_payload(self, payload: Dict[str, object]) -> "Study":
        """Restore state produced by :meth:`state_payload` into this study.

        The study must be freshly constructed with the same space, algorithm
        and config as the original run.  The trial history is rebuilt, finished
        trials are re-told to the algorithm, and the next :meth:`optimize`
        call runs only the remaining trial budget.  Only
        :data:`CHECKPOINT_VERSION` payloads are accepted.

        Trials that were still in flight when the payload was captured (the
        async scheduler checkpoints while other slots keep running) carry no
        result and consumed no budget: they are dropped rather than kept as
        zombie RUNNING entries, and their slots re-run on resume.
        """
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise TrialError(f"unsupported study checkpoint version: {version!r}")
        saved_algorithm = payload.get("algorithm")
        if saved_algorithm != self.algorithm.name:
            raise TrialError(
                f"checkpoint was written by algorithm {saved_algorithm!r} but this "
                f"study uses {self.algorithm.name!r}")
        with self._lock:
            self.config = StudyConfig(**payload["config"])
            self.trials = [trial
                           for trial in (self._trial_from_record(r)
                                         for r in payload["trials"])
                           if trial.is_finished]
            self._next_trial_id = 1 + max(
                (t.trial_id for t in self.trials), default=-1)
            self._resume_offset = int(payload["budget_used"])
            for trial in self.trials:
                if trial.is_finished:
                    self.algorithm.tell(trial)
            # Saved state wins over whatever re-telling mutated — it was
            # captured *after* those tells in the original run.
            rng_state = payload.get("rng_state")
            if rng_state is not None:
                self._rng.bit_generator.state = rng_state
            algorithm_state = payload.get("algorithm_state")
            if algorithm_state is not None:
                self.algorithm.set_state(algorithm_state)
        return self

    def save_checkpoint(self, path: str) -> None:
        """Write the study state (config, budget, history, RNG state) as JSON."""
        save_json(path, self.state_payload())

    def restore_checkpoint(self, path: str) -> "Study":
        """Load a checkpoint written by :meth:`save_checkpoint` into this study."""
        return self.load_state_payload(load_json(path))

    def _trial_from_record(self, record: Dict[str, object]) -> Trial:
        trial = Trial(trial_id=int(record["trial_id"]), params=dict(record["params"]),
                      state=TrialState(record["state"]),
                      value=None if record["value"] is None else float(record["value"]),
                      duration_seconds=float(record.get("duration_seconds", 0.0)),
                      error=record.get("error"), worker=record.get("worker"))
        trial.intermediate_values = [float(v) for v in record.get("intermediate_values", [])]
        trial._prune_check = lambda t: self.pruner.should_prune(t, self.trials, self.config.maximize)
        return trial

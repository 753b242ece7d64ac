"""Tests for the trial schedulers: round-barrier default and async slot refill."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.automl import (
    RACOS,
    AsyncScheduler,
    ProcessPoolTrialExecutor,
    RandomSearch,
    RoundScheduler,
    Study,
    StudyConfig,
    TrialScheduler,
    make_scheduler,
)
from repro.automl import metrics as _metrics
from repro.automl.events import TrialFinished, TrialReport
from repro.automl.remote.tickets import TicketTrialExecutor
from repro.automl.search_space import SearchSpace, Uniform
from repro.automl.trial import KILL_DEADLINE, TrialState


@pytest.fixture
def space():
    return SearchSpace({"x": Uniform(0.0, 1.0)})


def _study(space, algorithm_cls=RandomSearch, seed=0, **config):
    return Study(space, algorithm=algorithm_cls(rng=np.random.default_rng(seed)),
                 config=StudyConfig(**config), rng=np.random.default_rng(seed))


def _loop_passes(scheduler: str) -> float:
    """``anttune_scheduler_ticks_total`` for one policy: trial-loop passes."""
    for sample in _metrics.REGISTRY.snapshot()[
            "anttune_scheduler_ticks_total"]["samples"]:
        if sample["labels"] == {"scheduler": scheduler}:
            return sample["value"]
    return 0.0


# Module-level objectives: the process backend requires picklable callables
# (and the ticket backend importable ones).
def _report_once_then_sleep(trial):
    trial.report(0.5)
    time.sleep(0.6)
    return trial.params["x"]


def _quick(trial):
    return trial.params["x"]


def _reporting_straggler(trial):
    """Reports every 20 ms for 3 s, so a deadline kill stops it early."""
    for step in range(150):
        trial.report(float(step))
        time.sleep(0.02)
    return trial.params["x"]


class TestMakeScheduler:
    def test_resolves_names_and_instances(self):
        assert isinstance(make_scheduler(None), RoundScheduler)
        assert isinstance(make_scheduler("round"), RoundScheduler)
        assert isinstance(make_scheduler("async"), AsyncScheduler)
        instance = AsyncScheduler()
        assert make_scheduler(instance) is instance
        with pytest.raises(ValueError):
            make_scheduler("fifo")

    def test_round_is_the_default(self, space):
        # Parallel optimize without a scheduler arg must stay deterministic:
        # two runs with the same seed produce the identical trial set.
        runs = []
        for _ in range(2):
            study = _study(space, RACOS, seed=7, n_trials=12)
            study.optimize(lambda t: t.params["x"], n_workers=4)
            runs.append([t.params for t in study.trials])
        assert runs[0] == runs[1]


class TestAsyncScheduler:
    def test_completes_all_trials(self, space):
        study = _study(space, n_trials=10)
        best = study.optimize(lambda t: t.params["x"], n_workers=4,
                              scheduler="async")
        assert len(study.trials) == 10
        assert all(t.state == TrialState.COMPLETED for t in study.trials)
        assert best.value == study.best_value

    def test_ask_order_matches_sequential_for_random_search(self, space):
        # Random search ignores history, and asks stay serialised under the
        # study lock, so even the async schedule samples the same sequence.
        sequential = _study(space, seed=3, n_trials=12)
        sequential.optimize(lambda t: t.params["x"])
        asynchronous = _study(space, seed=3, n_trials=12)
        asynchronous.optimize(lambda t: t.params["x"], n_workers=4,
                              scheduler="async")
        assert ([t.params for t in asynchronous.trials]
                == [t.params for t in sequential.trials])

    def test_straggler_does_not_idle_other_workers(self, space):
        # One trial sleeps 6x longer than the rest.  The round barrier would
        # pay the straggler price every batch; slot refill pays it once.
        concurrent_past_straggler = threading.Event()
        state = {"fast_done": 0}
        lock = threading.Lock()

        def objective(trial):
            if trial.trial_id == 0:
                time.sleep(0.3)
                with lock:
                    if state["fast_done"] >= 4:
                        # At least 4 fast trials finished while the straggler
                        # (which would end round 1) was still running.
                        concurrent_past_straggler.set()
            else:
                time.sleep(0.05)
                with lock:
                    state["fast_done"] += 1
            return trial.params["x"]

        study = _study(space, n_trials=8)
        study.optimize(objective, n_workers=2, scheduler="async")
        assert concurrent_past_straggler.is_set()
        assert all(t.state == TrialState.COMPLETED for t in study.trials)

    def test_retries_failed_trials_without_extra_budget(self, space):
        failed_once = set()
        lock = threading.Lock()

        def flaky(trial):
            key = round(trial.params["x"], 12)
            with lock:
                first = key not in failed_once
                failed_once.add(key)
            if first:
                raise RuntimeError("boom")
            return trial.params["x"]

        study = _study(space, n_trials=6, max_retries=1)
        best = study.optimize(flaky, n_workers=3, scheduler="async")
        assert best is not None
        completed = [t for t in study.trials if t.state == TrialState.COMPLETED]
        failed = [t for t in study.trials if t.state == TrialState.FAILED]
        assert len(completed) == 6
        assert len(failed) == 6
        assert study._budget_used == 6

    def test_trial_timeout_cancels_stragglers(self, space):
        def cooperative_straggler(trial):
            for _ in range(100):
                time.sleep(0.02)
                trial.report(0.0)  # raises TrialCancelled once past the deadline
            return 1.0

        study = _study(space, n_trials=4, trial_time_limit=0.1,
                       raise_on_all_failed=False)
        start = time.perf_counter()
        assert study.optimize(cooperative_straggler, n_workers=4,
                              scheduler="async") is None
        elapsed = time.perf_counter() - start
        assert all(t.state == TrialState.TIMED_OUT for t in study.trials)
        assert elapsed < 1.5  # did not wait 2 s per straggler

    def test_total_time_limit_stops_refilling(self, space):
        study = _study(space, n_trials=100, total_time_limit=0.2)
        study.optimize(lambda t: time.sleep(0.05) or t.params["x"],
                       n_workers=2, scheduler="async")
        assert 0 < len(study.trials) < 100

    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_wedged_pool_cannot_outlive_total_time_limit(self, space, scheduler):
        # Non-cooperative stragglers hold every worker thread far past their
        # per-trial deadline; later trials can never start.  The study must
        # still return within (roughly) its total time limit instead of
        # waiting on the wedged pool forever.
        study = _study(space, n_trials=4, trial_time_limit=0.2,
                       total_time_limit=1.0, raise_on_all_failed=False)
        start = time.perf_counter()
        study.optimize(lambda t: time.sleep(5.0) or 1.0, n_workers=2,
                       scheduler=scheduler)
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0
        assert all(t.state in (TrialState.TIMED_OUT, TrialState.FAILED)
                   for t in study.trials)

    def test_checkpointing_after_each_completion(self, space, tmp_path):
        ckpt = str(tmp_path / "async.json")
        study = _study(space, seed=1, n_trials=6)
        study.optimize(lambda t: t.params["x"], n_workers=2, scheduler="async",
                       checkpoint_path=ckpt)
        resumed = _study(space, seed=1, n_trials=6)
        resumed.restore_checkpoint(ckpt)
        # Budget fully consumed: nothing further runs.
        resumed.optimize(lambda t: t.params["x"])
        assert len(resumed.trials) == 6

    def test_checkpoint_fn_called(self, space):
        calls = {"n": 0}

        def count():
            calls["n"] += 1

        study = _study(space, n_trials=5)
        study.optimize(lambda t: t.params["x"], n_workers=2, scheduler="async",
                       checkpoint_fn=count)
        assert calls["n"] == 5

    def test_scheduler_instance_accepted_by_optimize(self, space):
        study = _study(space, n_trials=4)
        study.optimize(lambda t: t.params["x"], n_workers=2,
                       scheduler=AsyncScheduler())
        assert len(study.trials) == 4

    def test_base_scheduler_is_abstract(self, space):
        with pytest.raises(NotImplementedError):
            TrialScheduler().run(_study(space), lambda t: 0.0, None, 0, ["w"])


class TestEventDrivenLoop:
    """The loop wakes on events, not on a poll: counted in loop passes."""

    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_silent_trial_costs_no_polling_passes(self, space, scheduler):
        before = _loop_passes(scheduler)
        study = _study(space, n_trials=1)
        study.optimize(lambda t: time.sleep(0.6) or t.params["x"],
                       n_workers=2, scheduler=scheduler)
        assert study.trials[0].state == TrialState.COMPLETED
        assert _loop_passes(scheduler) - before <= 3

    def test_process_report_arrives_by_doorbell(self, space):
        study = _study(space, n_trials=1)
        published = []

        def sink(event):
            if isinstance(event, TrialReport):
                # Still running: the report came mid-trial, not in the flush
                # that precedes TrialFinished.
                published.append((event.step, study.trials[0].is_finished))
        study._event_sink = sink
        before = _loop_passes("round")
        study.optimize(_report_once_then_sleep, n_workers=1, backend="process")
        assert study.trials[0].state == TrialState.COMPLETED
        assert published == [(0, False)]
        assert _loop_passes("round") - before <= 4

    def test_report_burst_publishes_as_one_batch(self, space):
        study = _study(space, n_trials=1)
        published = []

        def sink(event):
            if isinstance(event, TrialReport):
                published.append((event.step, _loop_passes("round")))
            elif isinstance(event, TrialFinished):
                published.append(("finished", _loop_passes("round")))
        study._event_sink = sink

        def burst(trial):
            for step in range(50):
                trial.report(float(step))
            time.sleep(0.3)
            return trial.params["x"]

        before = _loop_passes("round")
        study.optimize(burst, n_workers=2)
        steps = [step for step, _ in published]
        assert steps == list(range(50)) + ["finished"]
        # Every report went out in one pass, ahead of the finish's pass.
        assert len({passes for step, passes in published[:50]}) == 1
        assert _loop_passes("round") - before <= 2


class TestLimitRunsFromStart:
    """A round-policy straggler times out one limit after it started, on the
    backends whose workers start trials out of the loop's sight."""

    LIMIT = 0.4

    def test_process_straggler_times_out_one_limit_after_start(self, space):
        executor = ProcessPoolTrialExecutor(1)
        try:
            # Warm the pool, so the straggler starts as soon as it is sent.
            _study(space, n_trials=1).optimize(_quick, executor=executor)
            study = _study(space, n_trials=1, trial_time_limit=self.LIMIT,
                           raise_on_all_failed=False)
            start = time.perf_counter()
            study.optimize(_reporting_straggler, executor=executor,
                           scheduler="round")
            elapsed = time.perf_counter() - start
        finally:
            executor.shutdown()
        assert study.trials[0].state == TrialState.TIMED_OUT
        assert elapsed < 1.5 * self.LIMIT

    def test_ticket_straggler_times_out_one_limit_after_claim(self, space):
        board = TicketTrialExecutor(1)
        study = _study(space, n_trials=1, trial_time_limit=self.LIMIT,
                       raise_on_all_failed=False)
        runner = threading.Thread(
            target=study.optimize, args=(_reporting_straggler,),
            kwargs={"executor": board, "scheduler": "round"})
        runner.start()
        give_up = time.perf_counter() + 10.0
        lease = None
        while lease is None and time.perf_counter() < give_up:
            lease = board.claim(worker="puller")
            time.sleep(0.005)
        assert lease is not None
        claimed = time.perf_counter()
        kill, step = None, 0
        while kill is None and time.perf_counter() < give_up:
            # The worker side of _reporting_straggler: a report every 20 ms.
            kill = board.report(lease["ticket"], lease["token"], step, 0.5)
            step += 1
            time.sleep(0.02)
        killed_after = time.perf_counter() - claimed
        runner.join(timeout=10.0)
        board.close()
        assert not runner.is_alive()
        assert kill == KILL_DEADLINE
        assert study.trials[0].state == TrialState.TIMED_OUT
        assert killed_after < 1.5 * self.LIMIT

"""Tests for the async multi-job tune service: submit/poll/wait, concurrency,
per-job seeds, fault isolation and persistence/resume."""

from __future__ import annotations

import os
import sqlite3
import threading
import time

import numpy as np
import pytest

from repro.automl import (
    AntTuneClient,
    AntTuneServer,
    JobState,
    MedianPruner,
    RandomSearch,
    StudyConfig,
    StudyStorage,
)
from repro.automl.events import (
    EventBus,
    JobStateChanged,
    TrialFinished,
    TrialReport,
    TrialStarted,
)
from repro.automl.search_space import SearchSpace, Uniform
from repro.automl.server import _StorageWriter
from repro.automl.trial import PrunedTrial, TrialState
from repro.exceptions import TrialError


@pytest.fixture
def space():
    return SearchSpace({"x": Uniform(0.0, 1.0)})


@pytest.fixture
def server():
    with AntTuneServer(num_workers=4, max_concurrent_jobs=2) as srv:
        yield srv


class TestSubmitPollWait:
    def test_submit_is_non_blocking(self, space, server):
        release = threading.Event()

        def gated(trial):
            assert release.wait(5.0), "job never released"
            return trial.params["x"]

        start = time.perf_counter()
        job_id = server.submit(space, gated, config=StudyConfig(n_trials=2))
        submit_elapsed = time.perf_counter() - start
        assert submit_elapsed < 0.5  # enqueue only; the objective blocks
        status = server.poll(job_id)
        assert status["state"] in (JobState.QUEUED.value, JobState.RUNNING.value)
        assert status["finished"] is False
        release.set()
        best = server.wait(job_id, timeout=10.0)
        assert best.value is not None
        assert server.poll(job_id)["state"] == JobState.COMPLETED.value

    def test_wait_timeout_raises_and_job_survives(self, space, server):
        release = threading.Event()

        def gated(trial):
            assert release.wait(5.0)
            return trial.params["x"]

        job_id = server.submit(space, gated, config=StudyConfig(n_trials=2))
        with pytest.raises(TrialError, match="still running"):
            server.wait(job_id, timeout=0.05)
        release.set()
        assert server.wait(job_id, timeout=10.0).value is not None

    def test_two_jobs_run_concurrently(self, space, server):
        intervals = {}
        lock = threading.Lock()

        def make_objective(tag):
            def objective(trial):
                start = time.monotonic()
                time.sleep(0.2)
                with lock:
                    intervals.setdefault(tag, []).append((start, time.monotonic()))
                return trial.params["x"]
            return objective

        a = server.submit(space, make_objective("a"), config=StudyConfig(n_trials=2))
        b = server.submit(space, make_objective("b"), config=StudyConfig(n_trials=2))
        server.wait(a, timeout=10.0)
        server.wait(b, timeout=10.0)
        overlap = any(
            sa < eb and sb < ea
            for sa, ea in intervals["a"] for sb, eb in intervals["b"])
        assert overlap, "jobs a and b never executed trials concurrently"

    def test_run_keeps_blocking_compatibility(self, space, server):
        job_id = server.submit(space, lambda t: t.params["x"],
                               config=StudyConfig(n_trials=4),
                               rng=np.random.default_rng(0))
        best = server.run(job_id)
        assert best.value is not None
        assert server.status(job_id)["finished"] is True

    def test_jobs_listing(self, space, server):
        ids = [server.submit(space, lambda t: t.params["x"],
                             config=StudyConfig(n_trials=2)) for _ in range(3)]
        for job_id in ids:
            server.wait(job_id, timeout=10.0)
        listing = server.jobs()
        assert [row["job_id"] for row in listing] == ids
        assert all(row["state"] == JobState.COMPLETED.value for row in listing)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            AntTuneServer(num_workers=0)
        with pytest.raises(ValueError):
            AntTuneServer(max_concurrent_jobs=0)
        # Typos fail fast at construction, not as a FAILED job later.
        with pytest.raises(ValueError):
            AntTuneServer(scheduler="asnyc")
        with pytest.raises(ValueError):
            AntTuneServer(backend="proces")

    def test_shutdown_drains_jobs_and_refuses_new_work(self, space):
        server = AntTuneServer(num_workers=2, max_concurrent_jobs=1)
        ids = [server.submit(space, lambda t: time.sleep(0.05) or t.params["x"],
                             config=StudyConfig(n_trials=2)) for _ in range(2)]
        server.shutdown()  # graceful: queued job drains before the pool closes
        for job_id in ids:
            assert server.wait(job_id, timeout=1.0).value is not None
        assert server._executor is None  # nothing leaked or rebuilt
        with pytest.raises(TrialError, match="shut down"):
            server.submit(space, lambda t: t.params["x"],
                          config=StudyConfig(n_trials=1))
        # The refused submit must not leave a zombie QUEUED job behind.
        assert len(server.jobs()) == len(ids)

    def test_all_failed_tolerated_job_reports_outcome_in_wait(self, space):
        def failing(trial):
            raise RuntimeError("nope")

        with AntTuneServer(num_workers=2) as server:
            job_id = server.submit(
                space, failing, config=StudyConfig(n_trials=2, max_retries=0,
                                                   raise_on_all_failed=False))
            with pytest.raises(TrialError, match="without any successful trial"):
                server.wait(job_id, timeout=10.0)
            # The study itself completed per its config; poll agrees.
            assert server.poll(job_id)["state"] == JobState.COMPLETED.value


class TestPerJobSeeds:
    def test_default_seeds_differ_per_job(self, space, server):
        # No rng= given: each job derives its stream from its job id, so two
        # identical submissions must not explore identical trial sequences.
        ids = [server.submit(space, lambda t: t.params["x"],
                             config=StudyConfig(n_trials=5)) for _ in range(2)]
        for job_id in ids:
            server.wait(job_id, timeout=10.0)
        sequences = [[t.params["x"] for t in server._jobs[job_id].study.trials]
                     for job_id in ids]
        assert sequences[0] != sequences[1]

    def test_explicit_rng_override_still_works(self, space, server):
        ids = [server.submit(space, lambda t: t.params["x"],
                             algorithm=RandomSearch(rng=np.random.default_rng(0)),
                             config=StudyConfig(n_trials=5),
                             rng=np.random.default_rng(0)) for _ in range(2)]
        for job_id in ids:
            server.wait(job_id, timeout=10.0)
        sequences = [[t.params["x"] for t in server._jobs[job_id].study.trials]
                     for job_id in ids]
        assert sequences[0] == sequences[1]


class TestStatusUnderConcurrency:
    def test_status_is_consistent_mid_run(self, space, server):
        job_id = server.submit(space,
                               lambda t: time.sleep(0.05) or t.params["x"],
                               config=StudyConfig(n_trials=8))
        # Poll while the job runs: counts must always sum to num_trials.
        deadline = time.monotonic() + 10.0
        snapshots = 0
        while time.monotonic() < deadline:
            status = server.poll(job_id)
            assert sum(status["states"].values()) == status["num_trials"]
            snapshots += 1
            if status["finished"]:
                break
            time.sleep(0.01)
        assert snapshots > 1
        final = server.poll(job_id)
        assert final["states"] == {TrialState.COMPLETED.value: 8}
        assert final["best_value"] == server._jobs[job_id].study.best_value

    def test_pruned_trials_are_counted(self, space, server):
        def objective(trial):
            trial.report(trial.params["x"])
            if trial.params["x"] < 0.7:
                raise PrunedTrial()
            return trial.params["x"]

        job_id = server.submit(space, objective,
                               pruner=MedianPruner(warmup_steps=0, min_trials=2),
                               config=StudyConfig(n_trials=10,
                                                  raise_on_all_failed=False),
                               rng=np.random.default_rng(0))
        server.wait(job_id, timeout=10.0)
        status = server.status(job_id)
        assert status["states"].get(TrialState.PRUNED.value, 0) >= 1
        assert sum(status["states"].values()) == 10

    def test_failed_job_leaves_server_usable(self, space, server):
        def failing(trial):
            raise RuntimeError("always fails")

        bad = server.submit(space, failing,
                            config=StudyConfig(n_trials=2, max_retries=0))
        with pytest.raises(TrialError, match="every trial failed"):
            server.wait(bad, timeout=10.0)
        assert server.status(bad)["state"] == JobState.FAILED.value
        assert server.status(bad)["error"] is not None

        good = server.submit(space, lambda t: t.params["x"],
                             config=StudyConfig(n_trials=4))
        best = server.wait(good, timeout=10.0)
        assert best.value is not None
        assert server.status(good)["state"] == JobState.COMPLETED.value

    def test_unknown_job_raises(self, server):
        with pytest.raises(TrialError):
            server.status(99)
        with pytest.raises(TrialError):
            server.wait(99)


class TestPersistence:
    def test_jobs_are_persisted_to_storage(self, space, tmp_path):
        path = str(tmp_path / "service.db")
        with AntTuneServer(num_workers=2, storage=path) as server:
            job_id = server.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=4),
                                   study_name="persisted")
            server.wait(job_id, timeout=10.0)
            listed = server.storage.list_studies()
            assert listed[0]["name"] == "persisted"
            assert listed[0]["status"] == JobState.COMPLETED.value
            assert listed[0]["completed"] == 4

    def test_study_resumes_in_fresh_server_process(self, space, tmp_path):
        path = str(tmp_path / "service.db")
        interrupted = {"n": 0}

        def dying(trial):
            interrupted["n"] += 1
            if interrupted["n"] > 3:
                raise KeyboardInterrupt  # the first server process dies
            return trial.params["x"]

        with AntTuneServer(num_workers=1, storage=path) as first:
            job_id = first.submit(space, dying, config=StudyConfig(n_trials=6),
                                  algorithm=RandomSearch(rng=np.random.default_rng(1)),
                                  study_name="restartable",
                                  rng=np.random.default_rng(1))
            with pytest.raises(TrialError):
                first.wait(job_id, timeout=10.0)

        # "Fresh process": a brand-new server over the same SQLite file.
        ran = {"n": 0}

        def counting(trial):
            ran["n"] += 1
            return trial.params["x"]

        with AntTuneServer(num_workers=1, storage=path) as second:
            assert second.storage.study_exists("restartable")
            job_id = second.resume("restartable", space, counting,
                                   algorithm=RandomSearch(rng=np.random.default_rng(1)))
            best = second.wait(job_id, timeout=10.0)
            study = second._jobs[job_id].study
        assert ran["n"] == 3  # only the remaining trial budget ran
        completed = [t for t in study.trials if t.state == TrialState.COMPLETED]
        assert len(completed) == 6
        assert best.value == max(t.value for t in completed)

    def test_resume_without_storage_raises(self, space, server):
        with pytest.raises(TrialError, match="storage"):
            server.resume("nope", space, lambda t: 0.0)

    def test_submit_refuses_to_overwrite_stored_study(self, space, tmp_path):
        path = str(tmp_path / "dup.db")
        with AntTuneServer(num_workers=1, storage=path) as server:
            job_id = server.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=2),
                                   study_name="once")
            server.wait(job_id, timeout=10.0)
            with pytest.raises(TrialError, match="already exists in storage"):
                server.submit(space, lambda t: t.params["x"],
                              config=StudyConfig(n_trials=2), study_name="once")
            # resume() is the sanctioned way to touch the stored study again.
            again = server.resume("once", space, lambda t: t.params["x"])
            server.wait(again, timeout=10.0)

    def test_duplicate_active_study_name_rejected(self, space, server):
        release = threading.Event()

        def gated(trial):
            assert release.wait(5.0)
            return trial.params["x"]

        job_id = server.submit(space, gated, config=StudyConfig(n_trials=2),
                               study_name="taken")
        try:
            with pytest.raises(TrialError, match="already in use"):
                server.submit(space, lambda t: t.params["x"],
                              config=StudyConfig(n_trials=2), study_name="taken")
        finally:
            release.set()
        server.wait(job_id, timeout=10.0)
        # Once the first job finished, the name may be reused (e.g. resume).
        again = server.submit(space, lambda t: t.params["x"],
                              config=StudyConfig(n_trials=2), study_name="taken")
        server.wait(again, timeout=10.0)

    @pytest.mark.parametrize("scheduler", ["round", "async"])
    def test_trial_deadline_excludes_queue_wait_across_jobs(self, space, scheduler):
        # Two single-trial jobs share a one-thread pool (backend='thread'
        # forces a real queue even with one worker): job B's trial waits
        # ~0.3s queued behind job A.  Its 0.5s time limit must measure from
        # when it starts running, not from submission, or it would be
        # spuriously expired by pool contention.
        with AntTuneServer(num_workers=1, max_concurrent_jobs=2,
                           backend="thread", scheduler=scheduler) as server:
            config = StudyConfig(n_trials=1, trial_time_limit=0.5, max_retries=0)
            ids = [server.submit(space,
                                 lambda t: time.sleep(0.3) or t.params["x"],
                                 config=config) for _ in range(2)]
            for job_id in ids:
                best = server.wait(job_id, timeout=10.0)
                assert best.value is not None
                status = server.status(job_id)
                assert status["states"] == {TrialState.COMPLETED.value: 1}

    def test_cotenant_straggler_does_not_starve_healthy_job(self, space):
        # Job A's non-cooperative trials hold the whole pool longer than job
        # B's time limit.  B's trials must not be failed/"never started" for
        # contention they didn't cause: their clocks start when they do.
        with AntTuneServer(num_workers=2, max_concurrent_jobs=2,
                           backend="thread") as server:
            slow = server.submit(
                space, lambda t: time.sleep(0.4) or t.params["x"],
                config=StudyConfig(n_trials=2))
            time.sleep(0.05)  # let A occupy both pool threads first
            fast = server.submit(
                space, lambda t: time.sleep(0.05) or t.params["x"],
                config=StudyConfig(n_trials=4, trial_time_limit=0.3,
                                   max_retries=1))
            assert server.wait(fast, timeout=10.0).value is not None
            assert (server.status(fast)["states"]
                    == {TrialState.COMPLETED.value: 4})
            assert server.wait(slow, timeout=10.0).value is not None

    def test_default_study_names_are_unique_per_server_process(self, space):
        # Two server "processes" over one job-id space must not collide on
        # their default study names (a restart would otherwise overwrite
        # persisted studies).
        with AntTuneServer(num_workers=1) as first, \
                AntTuneServer(num_workers=1) as second:
            a = first.submit(space, lambda t: t.params["x"],
                             config=StudyConfig(n_trials=1))
            b = second.submit(space, lambda t: t.params["x"],
                              config=StudyConfig(n_trials=1))
            first.wait(a, timeout=10.0)
            second.wait(b, timeout=10.0)
            assert (first.status(a)["study_name"]
                    != second.status(b)["study_name"])


class TestClient:
    def test_client_tune_end_to_end(self, space):
        client = AntTuneClient()
        try:
            best = client.tune(space, lambda t: 1.0 - abs(t.params["x"] - 0.7),
                               config=StudyConfig(n_trials=10),
                               rng=np.random.default_rng(0))
            assert best.value > 0.7
        finally:
            client.server.shutdown()

    def test_client_submit_poll_wait(self, space):
        client = AntTuneClient(server=AntTuneServer(num_workers=2))
        try:
            job_id = client.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=4))
            best = client.wait(job_id, timeout=10.0)
            assert best.value is not None
            assert client.poll(job_id)["finished"] is True
        finally:
            client.server.shutdown()

    def test_async_scheduler_service(self, space):
        with AntTuneServer(num_workers=4, scheduler="async") as server:
            job_id = server.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=8))
            best = server.wait(job_id, timeout=10.0)
            assert best.value is not None
            assert server.status(job_id)["num_trials"] == 8


class TestPreemptionVictimSelection:
    """The cost model: shed least-progressed work first, youngest id on ties."""

    @staticmethod
    def _trial(trial_id, reports):
        from repro.automl.trial import Trial
        trial = Trial(trial_id=trial_id, params={"x": 0.5})
        trial.intermediate_values = [float(i) for i in range(reports)]
        return trial

    def test_least_progress_killed_first(self):
        fresh = self._trial(0, reports=0)
        warm = self._trial(1, reports=2)
        done_soon = self._trial(2, reports=9)
        victims = AntTuneServer._select_victims([warm, done_soon, fresh], 2)
        assert [t.trial_id for t in victims] == [0, 1]

    def test_nearly_done_youngest_is_spared(self):
        # The *youngest* trial has streamed the most reports (nearly done):
        # the old id-based policy would have killed it; the cost model spares
        # it and sheds the idle older trial instead.
        old_idle = self._trial(3, reports=0)
        youngest_nearly_done = self._trial(7, reports=40)
        victims = AntTuneServer._select_victims(
            [old_idle, youngest_nearly_done], 1)
        assert [t.trial_id for t in victims] == [3]
        assert youngest_nearly_done not in victims

    def test_tie_broken_by_youngest_id(self):
        trials = [self._trial(i, reports=1) for i in range(3)]
        victims = AntTuneServer._select_victims(trials, 1)
        assert [t.trial_id for t in victims] == [2]

    def test_excess_larger_than_pool_takes_everything(self):
        trials = [self._trial(i, reports=i) for i in range(2)]
        assert len(AntTuneServer._select_victims(trials, 5)) == 2


class TestBackpressureObservability:
    """TelemetryTransport/EventBus drops surface as counters."""

    def test_status_exposes_telemetry_counters(self, space, server):
        job_id = server.submit(space, lambda t: t.params["x"],
                               config=StudyConfig(n_trials=2))
        server.wait(job_id, timeout=10.0)
        assert server._bus.dropped(job_id) == 0
        assert server.executor.telemetry_dropped == 0
        summary = server.server_status()
        assert summary["num_workers"] == 4
        assert summary["job_states"].get("completed", 0) >= 1
        assert {"anttune_transport_dropped_total",
                "anttune_event_queue_dropped_total"} <= set(summary["metrics"])

    def test_event_queue_drops_are_counted(self, space, server):
        release = threading.Event()

        def gated(trial):
            assert release.wait(5.0)
            for step in range(3):
                trial.report(float(step))
            return trial.params["x"]

        job_id = server.submit(space, gated, config=StudyConfig(n_trials=3))
        # A consumer that never reads: its 1-slot queue must shed events.
        subscription = server.subscribe(job_id, max_queue=1)
        release.set()
        server.wait(job_id, timeout=10.0)
        try:
            assert server._bus.dropped(job_id) > 0
            assert server._bus.dropped(job_id) == subscription.dropped
            samples = server.server_status()["metrics"][
                "anttune_event_queue_dropped_total"]["samples"]
            # Process-wide: other servers' jobs may share this job id.
            counted = sum(sample["value"] for sample in samples
                          if sample["labels"] == {"job": str(job_id)})
            assert counted >= subscription.dropped
        finally:
            subscription.close()


class TestStorageWriterThread:
    """Trial rows persist via a background writer, flushed before close."""

    def test_rows_flushed_by_shutdown(self, space, tmp_path):
        path = str(tmp_path / "writer.db")
        server = AntTuneServer(num_workers=2, backend="thread", storage=path)
        job_id = server.submit(space, lambda t: t.params["x"],
                               config=StudyConfig(n_trials=3),
                               study_name="writer-study")
        server.wait(job_id, timeout=10.0)
        server.shutdown()
        with StudyStorage(path) as storage:
            listed = {row["name"]: row for row in storage.list_studies()}
            assert listed["writer-study"]["status"] == "completed"
            assert listed["writer-study"]["num_trials"] == 3
            payload = storage.load_payload("writer-study")
            assert len(payload["trials"]) == 3

    def test_commits_run_on_the_writer_thread_not_the_publisher(self, space):
        storage = StudyStorage(":memory:")
        commit_threads = []
        original = storage.record_trial

        def spy(name, record):
            commit_threads.append(threading.current_thread().name)
            return original(name, record)

        storage.record_trial = spy  # type: ignore[method-assign]
        server = AntTuneServer(num_workers=2, backend="thread",
                               storage=storage)
        try:
            job_id = server.submit(space, lambda t: t.params["x"],
                                   config=StudyConfig(n_trials=2),
                                   study_name="bg-study")
            server.wait(job_id, timeout=10.0)
        finally:
            server.shutdown()
        assert commit_threads, "no trial rows were recorded off the stream"
        assert all(name.startswith("anttune-storage")
                   for name in commit_threads), commit_threads

    def test_cancelled_queued_job_status_persists(self, space, tmp_path):
        path = str(tmp_path / "cancel.db")
        release = threading.Event()

        def gated(trial):
            assert release.wait(5.0)
            return trial.params["x"]

        # max_concurrent_jobs=1: the second job stays QUEUED until cancel.
        server = AntTuneServer(num_workers=2, max_concurrent_jobs=1,
                               backend="thread", storage=path)
        try:
            running = server.submit(space, gated,
                                    config=StudyConfig(n_trials=2),
                                    study_name="running-study")
            queued = server.submit(space, gated,
                                   config=StudyConfig(n_trials=2),
                                   study_name="queued-study")
            assert server.cancel(queued) is True
            release.set()
            server.wait(running, timeout=10.0)
        finally:
            release.set()
            server.shutdown()
        with StudyStorage(path) as storage:
            listed = {row["name"]: row for row in storage.list_studies()}
            assert listed["queued-study"]["status"] == "cancelled"
            assert listed["running-study"]["status"] == "completed"


def _reporting(reports):
    def objective(trial):
        for step in range(reports):
            trial.report(float(step))
        return trial.params["x"]
    return objective


class _RecordingStorage:
    """Stands in for StudyStorage: records the writer's calls in order."""

    def __init__(self, gate=None):
        self.calls = []
        self._gate = gate
        self.entered = threading.Event()

    def record_trial(self, name, record):
        self.entered.set()
        if self._gate is not None:
            assert self._gate.wait(10.0)
        self.calls.append(("record_trial", name, record["trial_id"]))

    def set_status(self, name, status):
        self.calls.append(("set_status", name, status))


def _reference_writer(bus, job_id, storage, name):
    """The writer as it was: a thread draining an 8192-deep iterator
    subscription, woken for every event, writing two kinds of them."""
    subscription = bus.subscribe(job_id, max_queue=8192)

    def drain():
        for event in subscription:
            if isinstance(event, TrialFinished):
                storage.record_trial(name, event.record)
            elif isinstance(event, JobStateChanged):
                storage.set_status(name, event.state)

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    return thread


def _publish_job(bus, job_id, trials, reports):
    bus.publish(JobStateChanged(state="queued", job_id=job_id))
    bus.publish(JobStateChanged(state="running", job_id=job_id))
    for trial_id in range(trials):
        bus.publish(TrialStarted(trial_id=trial_id, job_id=job_id))
        for step in range(reports):
            bus.publish(TrialReport(trial_id=trial_id, step=step,
                                    job_id=job_id))
        bus.publish(TrialFinished(trial_id=trial_id,
                                  record={"trial_id": trial_id},
                                  job_id=job_id))
    bus.publish(JobStateChanged(state="completed", terminal=True,
                                job_id=job_id))


class TestStorageWriterHandoff:
    """The writer thread is handed only the events it persists."""

    def test_writes_what_the_iterator_writer_wrote(self):
        bus = EventBus()
        reference, changed = _RecordingStorage(), _RecordingStorage()
        thread = _reference_writer(bus, 1, reference, "s")
        writer = _StorageWriter(bus, 1, changed, "s")
        _publish_job(bus, 1, trials=3, reports=10)
        thread.join(10.0)
        writer.thread.join(10.0)
        assert not thread.is_alive() and not writer.thread.is_alive()
        assert changed.calls == reference.calls
        assert len(changed.calls) == 3 + 3  # rows + queued/running/completed

    def test_one_item_per_row_and_state_on_a_server(self, space, tmp_path,
                                                    monkeypatch):
        handed = []
        original = _StorageWriter._write

        def counting_write(writer, event):
            handed.append(event)
            original(writer, event)

        monkeypatch.setattr(_StorageWriter, "_write", counting_write)
        path = str(tmp_path / "handoff.db")
        server = AntTuneServer(num_workers=2, backend="thread", storage=path)
        try:
            job_id = server.submit(space, _reporting(6),
                                   config=StudyConfig(n_trials=4),
                                   study_name="handoff")
            server.wait(job_id, timeout=10.0)
            stream = list(server.subscribe(job_id))
            writers = list(server._writers)
        finally:
            server.shutdown()
        assert all(not w.thread.is_alive() for w in writers)
        persisted = [e for e in stream
                     if isinstance(e, (TrialFinished, JobStateChanged))]
        assert sum(isinstance(e, TrialReport) for e in stream) == 4 * 6
        assert [e.seq for e in handed] == [e.seq for e in persisted]
        assert sum(isinstance(e, TrialFinished) for e in handed) == 4
        with StudyStorage(path) as storage:
            row = {r["name"]: r for r in storage.list_studies()}["handoff"]
            assert row["status"] == "completed"
            assert row["num_trials"] == 4

    def test_bounded_queue_never_blocks_the_publisher(self):
        gate = threading.Event()
        storage = _RecordingStorage(gate)
        bus = EventBus()
        writer = _StorageWriter(bus, 1, storage, "s", max_queue=2)
        bus.publish(TrialFinished(trial_id=0, record={"trial_id": 0},
                                  job_id=1))
        assert storage.entered.wait(10.0)  # the writer holds row 0
        for trial_id in range(1, 6):
            bus.publish(TrialFinished(trial_id=trial_id,
                                      record={"trial_id": trial_id},
                                      job_id=1))
        bus.publish(JobStateChanged(state="completed", terminal=True,
                                    job_id=1))
        assert bus.dropped(1) == 4  # rows 1..4 shed; row 5 and terminal kept
        gate.set()
        writer.thread.join(10.0)
        assert not writer.thread.is_alive()
        assert storage.calls == [("record_trial", "s", 0),
                                 ("record_trial", "s", 5),
                                 ("set_status", "s", "completed")]

    def test_close_without_terminal_ends_the_writer(self):
        storage = _RecordingStorage()
        bus = EventBus()
        writer = _StorageWriter(bus, 1, storage, "s")
        bus.publish(TrialReport(trial_id=0, job_id=1))
        bus.publish(TrialFinished(trial_id=0, record={"trial_id": 0},
                                  job_id=1))
        writer.close()
        writer.thread.join(10.0)
        assert not writer.thread.is_alive()
        assert storage.calls == [("record_trial", "s", 0)]
        bus.publish(TrialFinished(trial_id=1, record={"trial_id": 1},
                                  job_id=1))  # detached: not handed over
        assert storage.calls == [("record_trial", "s", 0)]


def _open_paths_under(root):
    """Paths under ``root`` this process holds open (Linux /proc), or None."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        return None
    paths = []
    for fd in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, fd))
        except OSError:
            continue  # closed while listing
        if target.startswith(str(root)):
            paths.append(target)
    return paths


class TestResourceRelease:
    def test_finished_jobs_hold_no_segment_handles(self, space, tmp_path):
        path = str(tmp_path / "many.db")
        server = AntTuneServer(num_workers=4, max_concurrent_jobs=4,
                               backend="thread", storage=path)
        try:
            jobs = [server.submit(space, _reporting(2),
                                  config=StudyConfig(n_trials=2),
                                  study_name=f"many-{i}")
                    for i in range(24)]
            for job_id in jobs:
                server.wait(job_id, timeout=30.0)
            log = server.event_log
            assert log._appenders == {}
            assert _open_paths_under(log.root) in ([], None)
            assert all(log.last_event(job_id).terminal for job_id in jobs)
        finally:
            server.shutdown()

    def test_shutdown_closes_storage_it_built(self, space, tmp_path):
        path = str(tmp_path / "owned.db")
        server = AntTuneServer(num_workers=1, backend="thread", storage=path)
        job_id = server.submit(space, lambda t: t.params["x"],
                               config=StudyConfig(n_trials=1))
        server.wait(job_id, timeout=10.0)
        server.shutdown()
        with pytest.raises(sqlite3.ProgrammingError):
            server.storage.list_studies()
        server.shutdown()  # idempotent

    def test_shutdown_leaves_callers_storage_open(self, space, tmp_path):
        with StudyStorage(str(tmp_path / "shared.db")) as storage:
            with AntTuneServer(num_workers=1, backend="thread",
                               storage=storage) as server:
                job_id = server.submit(space, lambda t: t.params["x"],
                                       config=StudyConfig(n_trials=1),
                                       study_name="shared")
                server.wait(job_id, timeout=10.0)
            assert storage.study_status("shared") == "completed"

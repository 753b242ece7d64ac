"""Tests for the study loop (fault tolerance, pruning, time limits) and the AntTune server."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.automl.algorithms import RandomSearch
from repro.automl.pruners import MedianPruner, NoPruner
from repro.automl.search_space import SearchSpace, Uniform
from repro.automl.server import AntTuneServer
from repro.automl.study import Study, StudyConfig
from repro.automl.trial import PrunedTrial, Trial, TrialState
from repro.exceptions import TrialError


@pytest.fixture
def space():
    return SearchSpace({"x": Uniform(0.0, 1.0)})


class TestStudy:
    def test_best_trial_and_history(self, space):
        study = Study(space, algorithm=RandomSearch(rng=np.random.default_rng(0)),
                      config=StudyConfig(n_trials=10), rng=np.random.default_rng(0))
        best = study.optimize(lambda t: t.params["x"])
        assert best.value == study.best_value
        assert best.params == study.best_params
        assert len(study.trials) == 10
        assert all(record["state"] == "completed" for record in study.history_records())

    def test_best_trial_before_optimize_raises(self, space):
        with pytest.raises(TrialError):
            Study(space).best_trial

    def test_failed_trials_are_recorded_and_retried(self, space):
        calls = {"count": 0}

        def flaky(trial):
            calls["count"] += 1
            if trial.params["x"] < 0.5:
                raise RuntimeError("boom")
            return trial.params["x"]

        study = Study(space, algorithm=RandomSearch(rng=np.random.default_rng(3)),
                      config=StudyConfig(n_trials=8, max_retries=1),
                      rng=np.random.default_rng(3))
        best = study.optimize(flaky)
        states = {t.state for t in study.trials}
        assert TrialState.FAILED in states
        assert best.value >= 0.5
        failed = [t for t in study.trials if t.state == TrialState.FAILED]
        assert all(t.error is not None for t in failed)

    def test_all_failed_raises(self, space):
        study = Study(space, config=StudyConfig(n_trials=3, max_retries=0),
                      rng=np.random.default_rng(0))
        with pytest.raises(TrialError):
            study.optimize(lambda t: (_ for _ in ()).throw(RuntimeError("always fails")))

    def test_all_failed_tolerated_when_configured(self, space):
        study = Study(space, config=StudyConfig(n_trials=2, max_retries=0, raise_on_all_failed=False),
                      rng=np.random.default_rng(0))
        def failing(trial):
            raise RuntimeError("nope")
        assert study.optimize(failing) is None
        assert all(t.state == TrialState.FAILED for t in study.trials)

    def test_total_time_limit_stops_early(self, space):
        study = Study(space, config=StudyConfig(n_trials=100, total_time_limit=0.2),
                      rng=np.random.default_rng(0))
        study.optimize(lambda t: time.sleep(0.05) or t.params["x"])
        assert len(study.trials) < 100

    def test_trial_time_limit_marks_timed_out(self, space):
        study = Study(space, config=StudyConfig(n_trials=2, trial_time_limit=0.01),
                      rng=np.random.default_rng(0))
        def slow(trial):
            time.sleep(0.05)
            return 1.0
        with pytest.raises(TrialError):
            study.optimize(slow)
        assert all(t.state == TrialState.TIMED_OUT for t in study.trials)

    def test_pruned_trials(self, space):
        def objective(trial):
            trial.report(0.1)
            raise PrunedTrial()

        study = Study(space, config=StudyConfig(n_trials=3, raise_on_all_failed=False),
                      rng=np.random.default_rng(0))
        assert study.optimize(objective) is None
        assert all(t.state == TrialState.PRUNED for t in study.trials)


class TestPruners:
    def test_no_pruner_never_prunes(self):
        trial = Trial(0, {"x": 1.0})
        trial.report(0.0)
        assert not NoPruner().should_prune(trial, [], maximize=True)

    def test_median_pruner_prunes_below_median(self):
        completed = []
        for i, value in enumerate([0.8, 0.85, 0.9]):
            t = Trial(i, {"x": 0.0}, state=TrialState.COMPLETED, value=value)
            t.intermediate_values = [value, value]
            completed.append(t)
        bad = Trial(10, {"x": 0.0})
        bad.intermediate_values = [0.5, 0.5]
        pruner = MedianPruner(warmup_steps=1, min_trials=3)
        assert pruner.should_prune(bad, completed, maximize=True)
        good = Trial(11, {"x": 0.0})
        good.intermediate_values = [0.95, 0.95]
        assert not pruner.should_prune(good, completed, maximize=True)

    def test_median_pruner_respects_warmup(self):
        pruner = MedianPruner(warmup_steps=2, min_trials=1)
        trial = Trial(0, {})
        trial.intermediate_values = [0.0]
        assert not pruner.should_prune(trial, [], maximize=True)


class TestAntTuneServer:
    def test_submit_run_and_status(self, space):
        server = AntTuneServer(num_workers=3)
        job_id = server.submit(space, lambda t: t.params["x"],
                               config=StudyConfig(n_trials=6), rng=np.random.default_rng(0))
        best = server.wait(job_id)
        assert best.value is not None
        status = server.status(job_id)
        assert status["finished"] and status["num_trials"] == 6
        assert len(status["workers"]) == 3

    def test_trials_are_assigned_round_robin(self, space):
        server = AntTuneServer(num_workers=2)
        job_id = server.submit(space, lambda t: t.params["x"],
                               config=StudyConfig(n_trials=4), rng=np.random.default_rng(0))
        server.wait(job_id)
        workers = [t.worker for t in server._jobs[job_id].study.trials]
        assert set(workers) == {"worker-0", "worker-1"}

    def test_all_failed_job_marks_finished_and_wraps_error(self, space):
        server = AntTuneServer(num_workers=2)

        def failing(trial):
            raise RuntimeError("always fails")

        job_id = server.submit(space, failing,
                               config=StudyConfig(n_trials=2, max_retries=0),
                               rng=np.random.default_rng(0))
        with pytest.raises(TrialError, match="every trial failed"):
            server.wait(job_id)
        assert server.status(job_id)["finished"] is True

    def test_unknown_job_raises(self):
        server = AntTuneServer()
        with pytest.raises(TrialError):
            server.status(99)

    def test_client_tune_end_to_end(self, space):
        with AntTuneServer() as server:
            best = server.wait(server.submit(
                space, lambda t: 1.0 - abs(t.params["x"] - 0.7),
                config=StudyConfig(n_trials=10), rng=np.random.default_rng(0)))
        assert best.value > 0.7

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            AntTuneServer(num_workers=0)

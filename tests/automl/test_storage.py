"""Tests for the SQLite-backed study store (persist, list, reload, resume)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.automl import RandomSearch, Study, StudyConfig, StudyStorage
from repro.automl.search_space import SearchSpace, Uniform
from repro.automl.trial import TrialState
from repro.exceptions import TrialError


@pytest.fixture
def space():
    return SearchSpace({"x": Uniform(0.0, 1.0)})


def _study(space, seed=0, **config):
    return Study(space, algorithm=RandomSearch(rng=np.random.default_rng(seed)),
                 config=StudyConfig(**config), rng=np.random.default_rng(seed))


@pytest.fixture
def storage(tmp_path):
    with StudyStorage(str(tmp_path / "studies.db")) as store:
        yield store


class TestStudyStorage:
    def test_save_and_load_round_trip(self, space, storage):
        study = _study(space, seed=2, n_trials=5)
        study.optimize(lambda t: t.params["x"])
        storage.save_study("demo", study, status="completed")

        clone = storage.load_study("demo", space,
                                   algorithm=RandomSearch(rng=np.random.default_rng(2)))
        assert clone.history_records() == study.history_records()
        assert clone.best_value == study.best_value
        # Budget fully consumed: a further optimize call runs nothing new.
        clone.optimize(lambda t: t.params["x"])
        assert len(clone.trials) == 5

    def test_list_studies_reports_progress(self, space, storage):
        study = _study(space, seed=1, n_trials=4)
        study.optimize(lambda t: t.params["x"])
        storage.save_study("alpha", study, status="completed")
        storage.save_study("beta", _study(space, n_trials=3), status="queued")

        listed = {row["name"]: row for row in storage.list_studies()}
        assert set(listed) == {"alpha", "beta"}
        assert listed["alpha"]["num_trials"] == 4
        assert listed["alpha"]["completed"] == 4
        assert listed["alpha"]["best_value"] == study.best_value
        assert listed["alpha"]["status"] == "completed"
        assert listed["beta"]["num_trials"] == 0
        assert storage.study_exists("alpha")
        assert not storage.study_exists("gamma")

    def test_repeated_saves_upsert(self, space, storage):
        study = _study(space, seed=3, n_trials=4)
        storage.save_study("job", study, status="queued")
        study.optimize(lambda t: t.params["x"],
                       checkpoint_fn=lambda: storage.save_study("job", study))
        storage.save_study("job", study, status="completed")
        rows = storage.list_studies()
        assert len(rows) == 1
        assert rows[0]["num_trials"] == 4

    def test_persists_across_storage_instances(self, space, tmp_path):
        path = str(tmp_path / "durable.db")
        study = _study(space, seed=4, n_trials=6)
        calls = {"n": 0}

        def dying(trial):
            calls["n"] += 1
            if calls["n"] > 3:
                raise KeyboardInterrupt  # the original process dies mid-study
            return trial.params["x"]

        with StudyStorage(path) as first:
            with pytest.raises(KeyboardInterrupt):
                study.optimize(dying,
                               checkpoint_fn=lambda: first.save_study("crashy", study))

        # A fresh process opens the same file and resumes the remainder only.
        with StudyStorage(path) as second:
            resumed = second.load_study(
                "crashy", space, algorithm=RandomSearch(rng=np.random.default_rng(4)))
            assert len(resumed.trials) == 3
            ran = {"n": 0}

            def counting(trial):
                ran["n"] += 1
                return trial.params["x"]

            resumed.optimize(counting)
            assert ran["n"] == 3  # only the remaining budget
            completed = [t for t in resumed.trials if t.state == TrialState.COMPLETED]
            assert len(completed) == 6

    def test_resumed_study_replays_identically(self, space, tmp_path):
        path = str(tmp_path / "replay.db")
        full = _study(space, seed=5, n_trials=8)
        full.optimize(lambda t: t.params["x"])

        interrupted = _study(space, seed=5, n_trials=8)
        calls = {"n": 0}

        def dying(trial):
            calls["n"] += 1
            if calls["n"] > 4:
                raise KeyboardInterrupt
            return trial.params["x"]

        with StudyStorage(path) as store:
            with pytest.raises(KeyboardInterrupt):
                interrupted.optimize(
                    dying, checkpoint_fn=lambda: store.save_study("replay", interrupted))
            resumed = store.load_study(
                "replay", space, algorithm=RandomSearch(rng=np.random.default_rng(5)))
        resumed.optimize(lambda t: t.params["x"])
        assert [t.params for t in resumed.trials] == [t.params for t in full.trials]

    def test_delete_and_unknown_study_errors(self, space, storage):
        storage.save_study("doomed", _study(space, n_trials=2), status="queued")
        storage.delete_study("doomed")
        assert storage.list_studies() == []
        with pytest.raises(TrialError):
            storage.delete_study("doomed")
        with pytest.raises(TrialError):
            storage.load_payload("doomed")
        with pytest.raises(TrialError):
            storage.set_status("doomed", "failed")

    def test_list_studies_best_value_honours_minimize(self, space, storage):
        study = Study(space, algorithm=RandomSearch(rng=np.random.default_rng(1)),
                      config=StudyConfig(n_trials=5, maximize=False),
                      rng=np.random.default_rng(1))
        study.optimize(lambda t: t.params["x"])
        storage.save_study("minimise", study, status="completed")
        row = storage.list_studies()[0]
        assert row["maximize"] is False
        assert row["best_value"] == study.best_value  # the *smallest* value
        assert row["best_value"] == min(t.value for t in study.trials)

    def test_study_summary_is_the_listed_row(self, space, storage):
        for name, maximize, seed in (("up", True, 1), ("down", False, 2)):
            study = _study(space, seed=seed, n_trials=4, maximize=maximize)
            study.optimize(lambda t: t.params["x"])
            storage.save_study(name, study, status="completed")
        storage.save_study("empty", _study(space, n_trials=3), status="queued")
        listed = {row["name"]: row for row in storage.list_studies()}
        for name in ("up", "down", "empty"):
            assert storage.study_summary(name) == listed[name]
        assert listed["up"]["maximize"] and not listed["down"]["maximize"]
        assert storage.study_summary("unknown") is None

    def test_set_status(self, space, storage):
        storage.save_study("s", _study(space, n_trials=2), status="running")
        storage.set_status("s", "failed")
        assert storage.list_studies()[0]["status"] == "failed"

    def test_load_rejects_algorithm_mismatch(self, space, storage):
        from repro.automl import RACOS

        study = _study(space, n_trials=2)
        study.optimize(lambda t: t.params["x"])
        storage.save_study("mismatch", study)
        with pytest.raises(TrialError, match="algorithm"):
            storage.load_study("mismatch", space,
                               algorithm=RACOS(rng=np.random.default_rng(0)))


class TestStorageGC:
    @staticmethod
    def _age(storage, name, days):
        """Backdate a study's updated_at by ``days`` (test-only time travel)."""
        import time as _time
        storage._conn.execute(
            "UPDATE studies SET updated_at = ? WHERE name = ?",
            (_time.time() - days * 86400.0, name))
        storage._conn.commit()

    def _seed(self, space, storage):
        for name, status, days in (("old-done", "completed", 40),
                                   ("old-failed", "failed", 40),
                                   ("old-cancelled", "cancelled", 40),
                                   ("old-running", "running", 40),
                                   ("fresh-done", "completed", 1)):
            study = _study(space, n_trials=2)
            study.optimize(lambda t: t.params["x"])
            storage.save_study(name, study, status=status)
            self._age(storage, name, days)

    def test_gc_collects_old_terminal_studies_only(self, space, storage):
        self._seed(space, storage)
        deleted = storage.gc(max_age_days=30)
        assert sorted(deleted) == ["old-cancelled", "old-done", "old-failed"]
        remaining = {row["name"] for row in storage.list_studies()}
        # Non-terminal and fresh studies survive, with their trial rows.
        assert remaining == {"old-running", "fresh-done"}
        assert storage.load_payload("fresh-done")["trials"]
        # The collected studies' trial rows are gone too.
        with pytest.raises(TrialError):
            storage.load_payload("old-done")

    def test_gc_dry_run_deletes_nothing(self, space, storage):
        self._seed(space, storage)
        candidates = storage.gc(max_age_days=30, dry_run=True)
        assert sorted(candidates) == ["old-cancelled", "old-done", "old-failed"]
        assert len(storage.list_studies()) == 5  # untouched

    def test_gc_states_filter(self, space, storage):
        self._seed(space, storage)
        deleted = storage.gc(max_age_days=30, states=("failed",))
        assert deleted == ["old-failed"]
        # Explicit states may collect what the default never touches.
        deleted = storage.gc(max_age_days=30, states=("running",))
        assert deleted == ["old-running"]

    def test_gc_zero_age_collects_all_terminal(self, space, storage):
        self._seed(space, storage)
        deleted = storage.gc(max_age_days=0)
        assert "fresh-done" in deleted and "old-running" not in deleted

    def test_gc_validation(self, storage):
        with pytest.raises(ValueError):
            storage.gc(max_age_days=-1)
        with pytest.raises(ValueError):
            storage.gc(states=())

    def test_gc_empty_storage_is_noop(self, storage):
        assert storage.gc(max_age_days=0) == []

    def test_gc_ordering_oldest_first(self, space, storage):
        for days, name in ((5, "newer"), (50, "oldest"), (20, "middle")):
            study = _study(space, n_trials=1)
            study.optimize(lambda t: t.params["x"])
            storage.save_study(name, study, status="completed")
            self._age(storage, name, days)
        assert storage.gc(max_age_days=0) == ["oldest", "middle", "newer"]

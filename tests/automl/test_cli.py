"""Tests for the ``python -m repro.automl.cli`` storage management commands."""

from __future__ import annotations

import sys
import textwrap

import numpy as np
import pytest

from repro.automl import RandomSearch, Study, StudyConfig, StudyStorage
from repro.automl.cli import main
from repro.automl.search_space import SearchSpace, Uniform


@pytest.fixture
def space():
    return SearchSpace({"x": Uniform(0.0, 1.0)})


def _store_study(path, name, n_trials=3, run=None, status="completed"):
    """Persist a small study; ``run`` trials executed (default: all)."""
    space = SearchSpace({"x": Uniform(0.0, 1.0)})
    study = Study(space, algorithm=RandomSearch(rng=np.random.default_rng(0)),
                  config=StudyConfig(n_trials=n_trials),
                  rng=np.random.default_rng(0))
    if run is None:
        run = n_trials
    if run:
        budget = study.config
        study.config = StudyConfig(n_trials=run)
        study.optimize(lambda t: t.params["x"])
        study.config = budget
    with StudyStorage(path) as storage:
        storage.save_study(name, study, status=status)
    return study


def _run_cli(*argv):
    lines = []
    code = main(list(argv), out=lines.append)
    return code, "\n".join(lines)


def _empty_db(tmp_path, name="empty.db"):
    path = str(tmp_path / name)
    StudyStorage(path).close()
    return path


class TestListShow:
    def test_list_empty(self, tmp_path):
        code, output = _run_cli("--db", _empty_db(tmp_path), "list")
        assert code == 0
        assert "no studies stored" in output

    def test_missing_database_file_errors_instead_of_creating(self, tmp_path):
        missing = tmp_path / "typo.db"
        code, output = _run_cli("--db", str(missing), "list")
        assert code == 1
        assert "no such database" in output
        assert not missing.exists()  # nothing silently created

    def test_list_shows_stored_studies(self, tmp_path):
        path = str(tmp_path / "s.db")
        _store_study(path, "alpha")
        _store_study(path, "beta", status="running")
        code, output = _run_cli("--db", path, "list")
        assert code == 0
        assert "alpha" in output and "beta" in output
        assert "completed" in output and "running" in output

    def test_show_lists_trials(self, tmp_path):
        path = str(tmp_path / "s.db")
        study = _store_study(path, "alpha")
        code, output = _run_cli("--db", path, "show", "alpha")
        assert code == 0
        assert "study:      alpha" in output
        for trial in study.trials:
            assert str(trial.trial_id) in output
        assert "completed" in output

    def test_show_unknown_study_fails(self, tmp_path):
        code, output = _run_cli("--db", _empty_db(tmp_path), "show", "nope")
        assert code == 1
        assert "error" in output


class TestDelete:
    def test_delete_with_yes(self, tmp_path):
        path = str(tmp_path / "s.db")
        _store_study(path, "doomed")
        code, output = _run_cli("--db", path, "delete", "doomed", "--yes")
        assert code == 0
        with StudyStorage(path) as storage:
            assert not storage.study_exists("doomed")

    def test_delete_unknown_fails(self, tmp_path):
        code, output = _run_cli("--db", _empty_db(tmp_path),
                                "delete", "nope", "--yes")
        assert code == 1
        assert "error" in output


class TestResume:
    @pytest.fixture
    def helper_module(self, tmp_path, monkeypatch):
        # The CLI imports space/objective from module:attribute references;
        # code is never persisted.  Drop a helper module on sys.path.
        module_dir = tmp_path / "modules"
        module_dir.mkdir()
        (module_dir / "cli_helper.py").write_text(textwrap.dedent("""
            from repro.automl.search_space import SearchSpace, Uniform

            SPACE = SearchSpace({"x": Uniform(0.0, 1.0)})

            def objective(trial):
                return trial.params["x"]
        """))
        monkeypatch.syspath_prepend(str(module_dir))
        yield "cli_helper"
        sys.modules.pop("cli_helper", None)

    def test_resume_runs_remaining_budget(self, tmp_path, helper_module):
        path = str(tmp_path / "s.db")
        # 2 of 5 trials ran before the "crash"; resume must run the other 3.
        _store_study(path, "partial", n_trials=5, run=2, status="failed")
        code, output = _run_cli(
            "--db", path, "resume", "partial",
            "--space", f"{helper_module}:SPACE",
            "--objective", f"{helper_module}:objective",
            "--algorithm", "repro.automl:RandomSearch")
        assert code == 0, output
        assert "3 of 5 trial slots left" in output
        assert "best value" in output
        with StudyStorage(path) as storage:
            listed = {row["name"]: row for row in storage.list_studies()}
            assert listed["partial"]["status"] == "completed"
            assert listed["partial"]["completed"] == 5

    def test_resume_with_exhausted_budget(self, tmp_path, helper_module):
        path = str(tmp_path / "s.db")
        _store_study(path, "done", n_trials=2, run=2, status="completed")
        code, output = _run_cli(
            "--db", path, "resume", "done",
            "--space", f"{helper_module}:SPACE",
            "--objective", f"{helper_module}:objective",
            "--algorithm", "repro.automl:RandomSearch")
        assert code == 0
        assert "no remaining trial budget" in output

    def test_bad_import_spec_exits(self, tmp_path):
        path = str(tmp_path / "s.db")
        _store_study(path, "x")
        with pytest.raises(SystemExit):
            main(["--db", path, "resume", "x",
                  "--space", "not-a-spec", "--objective", "also:bad:spec"],
                 out=lambda line: None)


class TestEntrypoint:
    def test_module_is_runnable(self, tmp_path):
        import subprocess

        result = subprocess.run(
            [sys.executable, "-m", "repro.automl.cli",
             "--db", _empty_db(tmp_path, "e.db"), "list"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert "no studies stored" in result.stdout

    def test_import_leaves_scipy_unloaded(self):
        import subprocess

        # Only BayesianOptimization needs scipy: the serve/route/work
        # processes and ALT (through repro.system) start on numpy alone.
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.automl.cli, repro.system; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestGcCommand:
    @staticmethod
    def _backdate(path, name, days):
        import time as _time
        with StudyStorage(path) as storage:
            storage._conn.execute(
                "UPDATE studies SET updated_at = ? WHERE name = ?",
                (_time.time() - days * 86400.0, name))
            storage._conn.commit()

    def _seed(self, tmp_path):
        path = str(tmp_path / "gc.db")
        _store_study(path, "ancient", status="completed")
        _store_study(path, "stale-failed", status="failed")
        _store_study(path, "active", status="running")
        _store_study(path, "recent", status="completed")
        self._backdate(path, "ancient", 90)
        self._backdate(path, "stale-failed", 45)
        self._backdate(path, "active", 90)
        return path

    def test_gc_dry_run_lists_without_deleting(self, tmp_path):
        path = self._seed(tmp_path)
        code, output = _run_cli("--db", path, "gc", "--max-age-days", "30",
                                "--dry-run")
        assert code == 0
        assert "would delete 2 study(ies)" in output
        assert "ancient" in output and "stale-failed" in output
        assert "active" not in output and "recent" not in output
        with StudyStorage(path) as storage:
            assert len(storage.list_studies()) == 4

    def test_gc_deletes_with_yes(self, tmp_path):
        path = self._seed(tmp_path)
        code, output = _run_cli("--db", path, "gc", "--max-age-days", "30",
                                "--yes")
        assert code == 0
        assert "deleted 2 study(ies)" in output
        with StudyStorage(path) as storage:
            names = {row["name"] for row in storage.list_studies()}
            assert names == {"active", "recent"}

    def test_gc_prompt_abort(self, tmp_path, monkeypatch):
        path = self._seed(tmp_path)
        monkeypatch.setattr("builtins.input", lambda prompt: "n")
        code, output = _run_cli("--db", path, "gc", "--max-age-days", "30")
        assert code == 1
        assert "aborted" in output
        with StudyStorage(path) as storage:
            assert len(storage.list_studies()) == 4

    def test_gc_states_filter(self, tmp_path):
        path = self._seed(tmp_path)
        code, output = _run_cli("--db", path, "gc", "--max-age-days", "30",
                                "--states", "failed", "--yes")
        assert code == 0
        with StudyStorage(path) as storage:
            names = {row["name"] for row in storage.list_studies()}
            assert names == {"ancient", "active", "recent"}

    def test_gc_nothing_to_collect(self, tmp_path):
        path = str(tmp_path / "gc.db")
        _store_study(path, "fresh", status="completed")
        code, output = _run_cli("--db", path, "gc", "--max-age-days", "30")
        assert code == 0
        assert "nothing to collect" in output

    def test_gc_invalid_age_errors(self, tmp_path):
        path = str(tmp_path / "gc.db")
        _store_study(path, "x")
        code, output = _run_cli("--db", path, "gc", "--max-age-days", "-1",
                                "--yes")
        assert code == 2
        assert "error:" in output


class TestServerMode:
    """`serve` plus the --server client modes of resume/list/show/cancel."""

    @pytest.fixture
    def helper_module(self, tmp_path, monkeypatch):
        module_dir = tmp_path / "modules"
        module_dir.mkdir()
        (module_dir / "cli_remote_helper.py").write_text(textwrap.dedent("""
            from repro.automl.search_space import SearchSpace, Uniform

            SPACE = SearchSpace({"x": Uniform(0.0, 1.0)})

            def objective(trial):
                return trial.params["x"]
        """))
        monkeypatch.syspath_prepend(str(module_dir))
        yield "cli_remote_helper"
        sys.modules.pop("cli_remote_helper", None)

    @pytest.fixture
    def live_server(self, tmp_path):
        from repro.automl.remote import RemoteTuneServer

        path = str(tmp_path / "live.db")
        _store_study(path, "partial", n_trials=4, run=2, status="failed")
        with RemoteTuneServer(num_workers=2, backend="thread",
                              storage=path) as remote:
            yield remote

    def test_serve_command_serves_http(self, tmp_path):
        import threading
        import time
        import urllib.request

        lines = []
        runner = threading.Thread(
            target=main,
            args=(["--db", str(tmp_path / "serve.db"), "serve", "--port", "0",
                   "--workers", "1", "--backend", "thread",
                   "--run-seconds", "5"],),
            kwargs={"out": lines.append}, daemon=True)
        runner.start()
        deadline = time.time() + 5.0
        while not lines and time.time() < deadline:
            time.sleep(0.02)
        assert lines and lines[0].startswith("serving AntTune on http://")
        url = lines[0].split()[3]
        with urllib.request.urlopen(url + "/v1/health", timeout=5.0) as resp:
            assert resp.status == 200

    def test_remote_resume_streams_events_and_completes(self, live_server,
                                                        helper_module):
        code, output = _run_cli(
            "resume", "partial", "--server", live_server.url,
            "--space", f"{helper_module}:SPACE",
            "--objective", f"{helper_module}:objective",
            "--algorithm", "repro.automl:RandomSearch")
        assert code == 0, output
        assert "resumed 'partial' as job" in output
        assert "trial" in output          # streamed TrialFinished lines
        assert "job 0: completed" in output
        assert "done: best value" in output
        # The continuation ran *on the server*: its storage saw the trials.
        with StudyStorage(live_server.tune_server.storage.path) as storage:
            listed = {row["name"]: row for row in storage.list_studies()}
            assert listed["partial"]["status"] == "completed"
            assert listed["partial"]["completed"] == 4

    def test_remote_resume_no_wait(self, live_server, helper_module):
        code, output = _run_cli(
            "resume", "partial", "--server", live_server.url,
            "--space", f"{helper_module}:SPACE",
            "--objective", f"{helper_module}:objective",
            "--algorithm", "repro.automl:RandomSearch", "--no-wait")
        assert code == 0, output
        assert "resumed 'partial' as job 0" in output
        assert "done:" not in output
        live_server.tune_server.wait(0, timeout=10.0)

    def test_remote_list_show_cancel(self, live_server, helper_module):
        code, _ = _run_cli(
            "resume", "partial", "--server", live_server.url,
            "--space", f"{helper_module}:SPACE",
            "--objective", f"{helper_module}:objective",
            "--algorithm", "repro.automl:RandomSearch")
        assert code == 0
        code, output = _run_cli("list", "--server", live_server.url)
        assert code == 0
        assert "partial" in output and "completed" in output
        code, output = _run_cli("show", "0", "--server", live_server.url)
        assert code == 0
        assert "state:      completed" in output
        assert "backpressure" in output
        # Cancelling a finished job reports it and exits 1.
        code, output = _run_cli("cancel", "0", "--server", live_server.url)
        assert code == 1
        assert "already finished" in output

    def test_show_requires_numeric_job_id_with_server(self, live_server):
        with pytest.raises(SystemExit, match="numeric job id"):
            main(["show", "partial", "--server", live_server.url],
                 out=lambda line: None)

    def test_cancel_without_server_is_an_error(self, tmp_path):
        code, output = _run_cli("--db", _empty_db(tmp_path), "cancel", "0")
        assert code == 2
        assert "--server" in output

    def test_remote_error_paths(self, live_server):
        code, output = _run_cli("show", "99", "--server", live_server.url)
        assert code == 1
        assert "unknown job" in output
        code, output = _run_cli("list", "--server", "http://127.0.0.1:9")
        assert code == 1
        assert "cannot reach" in output

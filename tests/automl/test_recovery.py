"""Restart-recovery tests: ``recover()`` state machine and crash replay.

The unit half drives :meth:`AntTuneServer.recover` over crafted crash states
(a durable log plus storage rows frozen mid-job, exactly what a SIGKILL
leaves behind) and checks each reconciliation arm: terminal-logged jobs
re-register, lagged storage statuses reconcile, refs-bearing interrupted
jobs auto-resume under their original ids, refless ones finalise FAILED,
and orphan logs are dropped.

The end-to-end half is the acceptance drill from the issue: a ``serve``
subprocess is SIGKILLed mid-stream, restarted with ``--recover`` on the
same storage path, and the SDK's ``subscribe()`` iterator — still running —
must deliver one gapless, duplicate-free seq stream across the crash
through to a terminal event.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import textwrap
import time
import urllib.error
import urllib.request

import pytest

from repro.automl.events import (
    EventBus,
    JobStateChanged,
    TrialReport,
    TrialStarted,
)
from repro.automl.search_space import SearchSpace, Uniform
from repro.automl.server import AntTuneServer
from repro.automl.storage import StudyStorage
from repro.automl.study import Study, StudyConfig
from repro.exceptions import TrialError

HELPER = "recovery_helper"

HELPER_SOURCE = textwrap.dedent("""
    import time

    from repro.automl.search_space import SearchSpace, Uniform

    SPACE = SearchSpace({"x": Uniform(0.0, 1.0)})

    def objective(trial):
        for step in range(3):
            trial.report(trial.params["x"] * (step + 1))
        return trial.params["x"]

    def slow(trial):
        for step in range(60):
            trial.report(float(step))
            time.sleep(0.05)
        return trial.params["x"]
""")


@pytest.fixture
def helper_module(tmp_path, monkeypatch):
    """An importable module recover() resolves module:attr refs against."""
    module_dir = tmp_path / "modules"
    module_dir.mkdir()
    (module_dir / f"{HELPER}.py").write_text(HELPER_SOURCE)
    monkeypatch.syspath_prepend(str(module_dir))
    yield HELPER
    sys.modules.pop(HELPER, None)


def make_space():
    return SearchSpace({"x": Uniform(0.0, 1.0)})


def objective(trial):
    for step in range(3):
        trial.report(trial.params["x"] * (step + 1))
    return trial.params["x"]


def chatty(trial):
    for step in range(1000):
        trial.report(float(step))
    return trial.params["x"]


def craft_crash(db_path, job_id, name, refs=None, status="running"):
    """Freeze the exact on-disk state a SIGKILL mid-job leaves behind.

    A study row stuck at ``status`` plus a durable event log whose last
    record is non-terminal (queued → running → one trial started).
    """
    storage = StudyStorage(db_path)
    study = Study(make_space(), config=StudyConfig(n_trials=2))
    storage.save_study(name, study, status=status)
    log = storage.event_log
    log.open_job(job_id, name, refs=refs)
    bus = EventBus()
    bus.subscribe(job_id, callback=log.append)
    bus.publish(JobStateChanged(state="queued", job_id=job_id))
    bus.publish(JobStateChanged(state="running", job_id=job_id))
    bus.publish(TrialStarted(trial_id=0, params={"x": 0.5}, job_id=job_id))
    bus.publish(TrialReport(trial_id=0, step=0, value=0.5, job_id=job_id))
    last_seq = log.last_seq(job_id)
    storage.close()
    return last_seq


class TestRecoverStateMachine:
    def test_requires_file_backed_storage(self):
        server = AntTuneServer(num_workers=1, backend="thread")
        try:
            with pytest.raises(TrialError, match="file-backed storage"):
                server.recover()
        finally:
            server.shutdown()

    def test_completed_job_survives_restart(self, tmp_path):
        db = str(tmp_path / "svc.db")
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as first:
            job_id = first.submit(make_space(), objective,
                                  config=StudyConfig(n_trials=3),
                                  study_name="done")
            best = first.wait(job_id, timeout=30.0)
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as second:
            summary = second.recover()
            # Clean shutdown: terminal logged AND stored — nothing to fix.
            assert summary == {"resumed": [], "finalised": [],
                               "reconciled": [], "removed": []}
            status = second.status(job_id)
            assert status["state"] == "completed"
            assert status["finished"] is True
            assert status["recovered"] == "terminal"
            assert status["study_name"] == "done"
            assert job_id in [j["job_id"] for j in second.jobs()]
            # wait() reconstructs the same best trial from storage.
            again = second.wait(job_id)
            assert again.value == best.value
            assert again.params == best.params
            # In-process subscribe replays the terminal instead of hanging.
            events = list(second.subscribe(job_id))
            assert events[-1].terminal
            assert events[-1].state == "completed"

    def test_reconciles_lagged_storage_status(self, tmp_path):
        db = str(tmp_path / "svc.db")
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as first:
            job_id = first.submit(make_space(), objective,
                                  config=StudyConfig(n_trials=2),
                                  study_name="lagged")
            first.wait(job_id, timeout=30.0)
        # Simulate the status UPDATE losing the race with the kill.
        storage = StudyStorage(db)
        storage.set_status("lagged", "running")
        storage.close()
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as second:
            summary = second.recover()
            assert summary["reconciled"] == [
                {"job_id": job_id, "study_name": "lagged",
                 "state": "completed"}]
            assert second.storage.study_status("lagged") == "completed"
            assert second.status(job_id)["state"] == "completed"

    def test_interrupted_job_with_refs_auto_resumes(self, tmp_path,
                                                    helper_module):
        db = str(tmp_path / "svc.db")
        refs = {"space": f"{helper_module}:SPACE",
                "objective": f"{helper_module}:objective"}
        crash_seq = craft_crash(db, 7, "interrupted", refs=refs)
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as server:
            summary = server.recover()
            assert summary["resumed"] == [
                {"job_id": 7, "study_name": "interrupted"}]
            # Original id, not a fresh one.
            best = server.wait(7, timeout=30.0)
            assert best.value is not None
            assert server.status(7)["state"] == "completed"
            assert server.storage.study_status("interrupted") == "completed"
            # The durable stream extends the pre-crash history with no seq
            # reuse and no gap — the replay contract.
            seqs = [e.seq for e in server.event_log.read(7)]
            assert seqs == list(range(len(seqs)))
            assert seqs[-1] > crash_seq
            terminal = server.event_log.last_event(7)
            assert isinstance(terminal, JobStateChanged) and terminal.terminal

    def test_resumed_job_continues_the_same_trace(self, tmp_path,
                                                  helper_module):
        """The pre-crash trace id survives recovery: resumed events carry it.

        The trace id is persisted in the event log's meta.json at submit;
        recover() reads it back and stamps it on every post-restart event,
        so a trace viewer sees one continuous trace across the crash.
        """
        db = str(tmp_path / "svc.db")
        refs = {"space": f"{helper_module}:SPACE",
                "objective": f"{helper_module}:objective"}
        storage = StudyStorage(db)
        study = Study(make_space(), config=StudyConfig(n_trials=2))
        storage.save_study("traced", study, status="running")
        log = storage.event_log
        log.open_job(9, "traced", refs=refs, trace_id="trace-pre-crash")
        bus = EventBus()
        bus.subscribe(9, callback=log.append)
        bus.publish(JobStateChanged(state="running", job_id=9,
                                    trace_id="trace-pre-crash"))
        crash_seq = log.last_seq(9)
        storage.close()
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as server:
            summary = server.recover()
            assert summary["resumed"] == [
                {"job_id": 9, "study_name": "traced"}]
            server.wait(9, timeout=30.0)
            assert server.status(9)["trace_id"] == "trace-pre-crash"
            post_crash = [event for event in server.event_log.read(9)
                          if event.seq > crash_seq]
            assert post_crash
            assert {event.trace_id for event in post_crash} == \
                {"trace-pre-crash"}

    def test_interrupted_job_without_refs_finalises_failed(self, tmp_path):
        db = str(tmp_path / "svc.db")
        crash_seq = craft_crash(db, 3, "refless")
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as server:
            summary = server.recover()
            (entry,) = summary["finalised"]
            assert entry["job_id"] == 3
            assert entry["state"] == "failed"
            assert "not auto-resumable" in entry["error"]
            status = server.status(3)
            assert status["state"] == "failed"
            assert status["recovered"] == "finalised"
            assert server.storage.study_status("refless") == "failed"
            # The synthesized terminal lands on the durable log one past the
            # crash point and closes the bus stream.
            events = list(server.event_log.read(3))
            assert events[-1].seq == crash_seq + 1
            assert events[-1].terminal and events[-1].state == "failed"
            streamed = list(server.subscribe(3))
            assert streamed and streamed[-1].terminal
            # wait() on a failed recovered job raises like the live path.
            with pytest.raises(TrialError, match="not auto-resumable"):
                server.wait(3)
            assert server.cancel(3) is False

    def test_storage_terminal_outruns_log(self, tmp_path):
        db = str(tmp_path / "svc.db")
        craft_crash(db, 4, "stored-done", status="completed")
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as server:
            summary = server.recover()
            assert summary["finalised"] == [
                {"job_id": 4, "study_name": "stored-done",
                 "state": "completed"}]
            assert server.status(4)["state"] == "completed"
            terminal = server.event_log.last_event(4)
            assert terminal.terminal and terminal.state == "completed"

    def test_orphan_log_removed(self, tmp_path):
        db = str(tmp_path / "svc.db")
        storage = StudyStorage(db)
        storage.event_log.open_job(11, "deleted-study")
        storage.close()
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as server:
            summary = server.recover()
            assert summary["removed"] == [
                {"job_id": 11, "study_name": "deleted-study"}]
            assert not server.event_log.has_job(11)

    def test_new_ids_continue_past_recovered(self, tmp_path):
        db = str(tmp_path / "svc.db")
        craft_crash(db, 42, "old")
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as server:
            server.recover()
            new_id = server.submit(make_space(), objective,
                                   config=StudyConfig(n_trials=1),
                                   study_name="new")
            assert new_id == 43
            server.wait(new_id, timeout=30.0)

    def test_open_event_stream_serves_history_without_recover(self, tmp_path):
        """A fresh process answers ?last_seq= replay straight from disk."""
        db = str(tmp_path / "svc.db")
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as first:
            job_id = first.submit(make_space(), objective,
                                  config=StudyConfig(n_trials=2),
                                  study_name="history")
            first.wait(job_id, timeout=30.0)
            full = [e.seq for e in first.event_log.read(job_id)]
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as second:
            window = second.open_event_stream(job_id)
            assert not window.live  # log-only job: disk is complete
            assert window.recent(2) is None  # nothing in memory: read the log
            events = list(window.logged(2))
            assert [e.seq for e in events] == [s for s in full if s > 2]
            assert events[-1].terminal
            with pytest.raises(TrialError, match="unknown job"):
                second.open_event_stream(999)

    def test_server_status_counts_recovered_jobs(self, tmp_path):
        db = str(tmp_path / "svc.db")
        craft_crash(db, 1, "gone")
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as server:
            server.recover()
            status = server.server_status()
            assert status["num_jobs"] == 1
            assert status["job_states"].get("failed") == 1
            assert status["event_log"]["jobs"] >= 1


class TestLogAcrossRestarts:
    def test_record_cut_mid_line_is_finalised_once(self, tmp_path):
        """A crash image cut inside a record recovers once, not per restart.

        The first ``recover()`` appends its terminal event after the last
        complete record instead of gluing it to the torn one, so the log
        ends with that terminal and a second restart finds the job over.
        """
        db = str(tmp_path / "svc.db")
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as first:
            job_id = first.submit(make_space(), objective,
                                  config=StudyConfig(n_trials=1),
                                  study_name="torn")
            first.wait(job_id, timeout=30.0)
        (segment,) = (tmp_path / "svc.db.events" / f"job-{job_id}").glob(
            "events-*.ndjson")
        lines = segment.read_bytes().splitlines(keepends=True)
        assert len(lines) > 6
        # The crash image: cut in the middle of seq 5's line, before the
        # terminal status reached storage.
        segment.write_bytes(b"".join(lines[:5])
                            + lines[5][:len(lines[5]) // 2])
        storage = StudyStorage(db)
        storage.set_status("torn", "running")
        storage.close()
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as second:
            summary = second.recover()
            assert [entry["job_id"] for entry in summary["finalised"]] == \
                [job_id]
            events = list(second.event_log.read(job_id))
            assert [e.seq for e in events] == list(range(6))
            assert events[-1].terminal and events[-1].state == "failed"
            assert second.event_log.last_event(job_id) == events[-1]
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as third:
            summary = third.recover()
            assert summary["finalised"] == []
            assert third.status(job_id)["recovered"] == "terminal"
            assert third.status(job_id)["state"] == "failed"

    def test_a_log_past_64_segments_replays_through_the_sdk(
            self, tmp_path, monkeypatch):
        """No segment is deleted: a restarted server replays seq 0..n.

        With 4000-byte segments the job's log rotates more than 64 times,
        and the SDK's ``subscribe()`` from the recovered server still
        yields every seq once, from 0.
        """
        from repro.automl import eventlog
        from repro.automl.remote import AntTuneClient, RemoteTuneServer

        monkeypatch.setattr(eventlog, "SEGMENT_MAX_BYTES", 4000)
        db = str(tmp_path / "svc.db")
        with AntTuneServer(num_workers=2, backend="thread",
                           storage=db) as first:
            job_id = first.submit(make_space(), chatty,
                                  config=StudyConfig(n_trials=3),
                                  study_name="long")
            first.wait(job_id, timeout=60.0)
            assert first.event_log.stats()["rotations"] > 64
            last = first.event_log.last_seq(job_id)
        with RemoteTuneServer(num_workers=1, backend="thread", storage=db,
                              recover=True) as remote:
            client = AntTuneClient(remote.url, timeout=10.0)
            seqs = [event.seq for event in client.subscribe(job_id)]
        assert seqs == list(range(last + 1))


# --------------------------------------------------------------------- #
# End-to-end: SIGKILL the serving process mid-stream, restart, replay.
# --------------------------------------------------------------------- #

def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def serve_args(db, port, recover=False):
    args = [sys.executable, "-m", "repro.automl.cli", "--db", db,
            "serve", "--host", "127.0.0.1", "--port", str(port),
            "--workers", "2", "--max-jobs", "2", "--backend", "thread",
            "--run-seconds", "120"]
    if recover:
        args.append("--recover")
    return args


def spawn_serve(args, env, log_path):
    """Start ``cli serve`` with its output in ``log_path``, not a pipe.

    Nothing has to drain a file, and the child keeps its own descriptor:
    this process closes its copy at once, so no pipe outlives the drill.
    """
    with open(log_path, "ab") as log:
        return subprocess.Popen(args, env=env, stdout=log,
                                stderr=subprocess.STDOUT)


def wait_for_server(url, deadline=20.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            with urllib.request.urlopen(url + "/v1/health", timeout=2.0):
                return
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.1)
    raise AssertionError(f"server at {url} never came up")


@pytest.mark.slow
def test_subscribe_replays_gapless_across_sigkill_restart(tmp_path):
    """The issue's acceptance drill, verbatim.

    Kill the server mid-stream with SIGKILL, restart it with ``--recover``
    on the same storage path and port, and assert the *same* SDK
    ``subscribe()`` iterator resumes from its last seen seq with no gaps
    and no duplicates, through to a terminal event.
    """
    from repro.automl.remote import AntTuneClient

    module_dir = tmp_path / "modules"
    module_dir.mkdir()
    (module_dir / f"{HELPER}.py").write_text(HELPER_SOURCE)
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(module_dir)] + env.get("PYTHONPATH", "").split(os.pathsep))

    db = str(tmp_path / "svc.db")
    port = free_port()
    url = f"http://127.0.0.1:{port}"
    proc = spawn_serve(serve_args(db, port), env, tmp_path / "first.log")
    restarted = None
    try:
        wait_for_server(url)
        # A generous retry budget: the stream must survive the restart
        # window (connection refused until the new process binds).
        client = AntTuneClient(url, timeout=10.0, max_stream_retries=200)
        job_id = client.submit(space=f"{HELPER}:SPACE",
                               objective=f"{HELPER}:slow",
                               config={"n_trials": 2}, study_name="drill")

        seqs = []
        killed = False
        deadline = time.monotonic() + 90.0
        stream = client.subscribe(job_id)
        for event in stream:
            assert time.monotonic() < deadline, "stream never terminated"
            seqs.append(event.seq)
            if not killed and len(seqs) >= 6:
                # Mid-stream, mid-job: hard-kill the serving process.
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=10.0)
                restarted = spawn_serve(serve_args(db, port, recover=True),
                                        env, tmp_path / "restarted.log")
                killed = True
            if isinstance(event, JobStateChanged) and event.terminal:
                assert event.state == "completed"
                break
        else:  # pragma: no cover - diagnosing a hung drill
            raise AssertionError("stream ended without a terminal event")

        assert killed, "stream finished before the kill fired"
        # The contract: one contiguous, duplicate-free sequence spanning
        # the crash, exactly as if the server had never died.
        assert seqs == list(range(len(seqs)))
        assert len(seqs) > 6  # events arrived after the restart

        # The recovered server answers for the job and logged the recovery.
        status = client.poll(job_id)
        assert status["state"] == "completed"
        restarted.send_signal(signal.SIGINT)
        try:
            restarted.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            restarted.kill()
            restarted.wait(timeout=10.0)
        banner = (tmp_path / "restarted.log").read_text("utf-8", "replace")
        assert "recovery: resumed=1" in banner
        restarted = None
    finally:
        for p in (proc, restarted):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait(timeout=10.0)


@pytest.mark.slow
def test_replay_from_last_seq_spans_restart_with_new_client(tmp_path):
    """A client that reconnects *after* the restart gets disk history.

    Unlike the live-iterator drill above, this client asks for
    ``?last_seq=`` replay only once the recovered server is up — the
    backfill before the crash point must come from the durable log, not
    the (empty) in-memory ring of the new process.
    """
    from repro.automl.remote import AntTuneClient

    module_dir = tmp_path / "modules"
    module_dir.mkdir()
    (module_dir / f"{HELPER}.py").write_text(HELPER_SOURCE)
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(module_dir)] + env.get("PYTHONPATH", "").split(os.pathsep))

    db = str(tmp_path / "svc.db")
    port = free_port()
    url = f"http://127.0.0.1:{port}"
    proc = spawn_serve(serve_args(db, port), env, tmp_path / "first.log")
    second = None
    try:
        wait_for_server(url)
        client = AntTuneClient(url, timeout=10.0, max_stream_retries=50)
        job_id = client.submit(space=f"{HELPER}:SPACE",
                               objective=f"{HELPER}:objective",
                               config={"n_trials": 3}, study_name="replay")
        # Drain to terminal, then kill: the restart serves pure history.
        pre = [e.seq for e in client.subscribe(job_id)]
        assert pre == list(range(len(pre)))
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10.0)

        second = spawn_serve(serve_args(db, port, recover=True), env,
                             tmp_path / "second.log")
        wait_for_server(url)
        # Resume from an arbitrary mid-stream point: only the tail returns,
        # in order, ending with the same terminal event.
        resume_from = pre[len(pre) // 2]
        tail = [e.seq for e in client.subscribe(job_id, last_seq=resume_from)]
        assert tail == [s for s in pre if s > resume_from]
        # And the job listing still knows the pre-crash job.
        assert job_id in [j["job_id"] for j in client.jobs()]
        assert client.poll(job_id)["state"] == "completed"
    finally:
        for p in (proc, second):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait(timeout=10.0)

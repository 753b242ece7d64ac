"""Exactly-once event streams under a report burst with concurrent replays.

Each round submits two jobs to one file-backed
:class:`~repro.automl.remote.http_server.RemoteTuneServer`.  A job runs 4
trials that each call ``trial.report`` 400 times back to back, so it
publishes 1611 events.  Four raw-socket followers attach to each job as it
is submitted (``GET /v1/jobs/{id}/events?last_seq=-1``), and from the
second round on the last 12 finished jobs are replayed twice each at the
same time.  One SDK follower per job runs alongside.

Every raw stream must be the job's whole story: seqs ``0..n`` with no hole
and no duplicate, the one terminal event last.  Every SDK follower must
open its stream exactly once, so the SDK's seq-gap reconnect never fires.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from common import save_result

from repro.automl.remote import AntTuneClient, RemoteTuneServer
from repro.automl.search_space import SearchSpace, Uniform
from repro.experiments import format_table

ROUNDS = 10
JOBS_PER_ROUND = 2
TRIALS = 4
REPORTS = 400
FOLLOWERS = 4
REPLAYED_JOBS = 12
REPLAYS_PER_JOB = 2
EVENTS_PER_JOB = 3 + TRIALS * (REPORTS + 2)  # queued, running, terminal

# Importable by the server through the wire's module:attr references
# (benchmarks/conftest.py puts this directory on sys.path).
SPACE = SearchSpace({"x": Uniform(0.0, 1.0)})


def burst(trial):
    for step in range(REPORTS):
        trial.report(float(step))
    return trial.params["x"]


def _raw_stream(address, job_id: int, out: list) -> None:
    """Read one whole NDJSON stream over a plain socket into ``out``."""
    with socket.create_connection(address, timeout=60.0) as sock:
        sock.sendall(f"GET /v1/jobs/{job_id}/events?last_seq=-1 HTTP/1.1\r\n"
                     f"Host: t\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200"), head[:80]
    out.append((job_id, [json.loads(line) for line in body.split(b"\n")
                         if line.strip()]))


def _sdk_follow(client: AntTuneClient, job_id: int, out: list) -> None:
    out.append((job_id, [event.seq for event in client.subscribe(job_id)]))


def _check(job_id: int, frames: list) -> str:
    """'' for a clean stream, else what is wrong with it."""
    seqs = [frame["seq"] for frame in frames]
    if len(set(seqs)) != len(seqs):
        return f"job {job_id}: {len(seqs) - len(set(seqs))} duplicate frames"
    if seqs != list(range(len(seqs))):
        missing = sorted(set(range(max(seqs) + 1)) - set(seqs))
        return f"job {job_id}: {len(missing)} missing seqs"
    terminals = [i for i, frame in enumerate(frames)
                 if frame["type"] == "JobStateChanged" and frame["terminal"]]
    if terminals != [len(frames) - 1]:
        return f"job {job_id}: terminal events at {terminals}"
    if len(frames) != EVENTS_PER_JOB:
        return f"job {job_id}: {len(frames)} events, not {EVENTS_PER_JOB}"
    return ""


@pytest.mark.slow
def test_burst_streams_are_exactly_once(tmp_path, monkeypatch):
    opens: dict = {}
    real_open = AntTuneClient._open_stream

    def counting_open(self, job_id, *args):
        opens[job_id] = opens.get(job_id, 0) + 1
        return real_open(self, job_id, *args)

    monkeypatch.setattr(AntTuneClient, "_open_stream", counting_open)
    finished: list = []
    problems: list = []
    counts = {"live": 0, "replay": 0, "sdk": 0}
    with RemoteTuneServer(num_workers=4, max_concurrent_jobs=JOBS_PER_ROUND,
                          backend="thread",
                          storage=str(tmp_path / "burst.db")) as remote:
        client = AntTuneClient(remote.url, timeout=30.0)
        for round_no in range(ROUNDS):
            live: list = []
            replays: list = []
            sdk: list = []
            threads = []

            def start(target, *args) -> None:
                thread = threading.Thread(target=target, args=args)
                thread.start()
                threads.append(thread)

            replayed_jobs = finished[-REPLAYED_JOBS:]
            for replayed in replayed_jobs:
                for _ in range(REPLAYS_PER_JOB):
                    start(_raw_stream, remote.address, replayed, replays)
            jobs = []
            for index in range(JOBS_PER_ROUND):
                job_id = client.submit(
                    "test_stream_burst:SPACE", "test_stream_burst:burst",
                    config={"n_trials": TRIALS},
                    seed=100 * round_no + index,
                    study_name=f"burst-{round_no}-{index}")
                jobs.append(job_id)
                for _ in range(FOLLOWERS):
                    start(_raw_stream, remote.address, job_id, live)
                start(_sdk_follow, AntTuneClient(remote.url, timeout=30.0),
                      job_id, sdk)
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads), (
                f"round {round_no}: a follower hung")
            # A follower that raised never appended its stream.
            assert len(live) == JOBS_PER_ROUND * FOLLOWERS
            assert len(replays) == len(replayed_jobs) * REPLAYS_PER_JOB
            assert len(sdk) == JOBS_PER_ROUND
            for job_id, frames in live + replays:
                problem = _check(job_id, frames)
                if problem:
                    problems.append(f"round {round_no}: {problem}")
            for job_id, seqs in sdk:
                if seqs != list(range(EVENTS_PER_JOB)):
                    problems.append(f"round {round_no}: SDK job {job_id} "
                                    f"saw {len(seqs)} events")
            counts["live"] += len(live)
            counts["replay"] += len(replays)
            counts["sdk"] += len(sdk)
            finished.extend(jobs)
        dropped = remote.tune_server._bus.dropped_total()
    reopened = {job_id: n for job_id, n in opens.items() if n != 1}
    text = format_table(
        [{"rounds": ROUNDS, "live_streams": counts["live"],
          "replays": counts["replay"], "sdk_followers": counts["sdk"],
          "bad_streams": len(problems), "sdk_reopens": len(reopened),
          "drops_counted": dropped}],
        title=(f"Stream burst: {JOBS_PER_ROUND} jobs x {TRIALS} trials x "
               f"{REPORTS} back-to-back reports per round, {FOLLOWERS} raw "
               f"followers per job, last {REPLAYED_JOBS} jobs replayed "
               f"x{REPLAYS_PER_JOB} concurrently"))
    save_result("stream_burst", text)
    assert not problems, problems[:10]
    assert not reopened, f"SDK followers reopened streams: {reopened}"
    assert dropped == 0

"""Reusable fault-injection harness for the fleet tier.

Spawns a real fleet — N backend tune servers as **subprocesses** (so
``SIGKILL``/``SIGSTOP`` mean what they mean in production), M pull-worker
subprocesses, and one in-process :class:`RemoteRouterServer` fronting the
backends — then lets a test kill, hang, partition, restart and replace any
of them deterministically:

    with FleetHarness(tmp_path, n_backends=2, n_workers=2) as fleet:
        client = fleet.client()
        job = client.submit(fleet.space_ref, fleet.objective_ref, ...)
        fleet.kill_backend(0)          # SIGKILL, no cleanup
        fleet.kill_worker(1)           # a worker with leased tickets dies
        fleet.restart_backend(0)       # same db + port, serve --recover
        fleet.pause_backend(1)         # SIGSTOP: a partitioned backend
        fleet.resume_backend(1)        # SIGCONT: ...that later wakes up

Backends default to ``--backend ticket`` (trials run on the pull workers);
pass ``backend="thread"`` for self-executing backends when workers are not
under test.  The module also hosts the assertion helpers every drill
shares: :func:`assert_gapless` (the journal contract) and
:func:`charged_trials` (the no-double-charge contract — completed trials
counted only after the job's *final* ``queued`` marker, i.e. its last
placement, so work thrown away by a migration or lost lease is visibly
uncharged).

``tests/automl/test_fleet.py`` drives this harness through backend-crash,
worker-loss, split-brain and chaos drills.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import textwrap
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Sequence

from repro.automl.events import JobStateChanged, TrialFinished
from repro.automl.remote.client import AntTuneClient
from repro.automl.remote.router import RemoteRouterServer

__all__ = [
    "FLEET_HELPER", "FLEET_HELPER_SOURCE", "FleetHarness",
    "assert_gapless", "charged_trials", "free_port", "wait_for_health",
]

#: Module name the fleet's objectives are imported from (workers and
#: backends resolve it via PYTHONPATH; in-process tests via sys.path).
FLEET_HELPER = "fleet_helper"

FLEET_HELPER_SOURCE = textwrap.dedent("""
    import time

    from repro.automl.search_space import SearchSpace, Uniform

    SPACE = SearchSpace({"x": Uniform(0.0, 1.0)})

    def objective(trial):
        for step in range(3):
            trial.report(trial.params["x"] * (step + 1))
        return trial.params["x"]

    def slow(trial):
        for step in range(5):
            trial.report(float(step))
            time.sleep(0.05)
        return trial.params["x"]

    def very_slow(trial):
        for step in range(60):
            trial.report(float(step))
            time.sleep(0.05)
        return trial.params["x"]
""")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for_health(url: str, deadline: float = 20.0,
                    proc: Optional[subprocess.Popen] = None) -> None:
    """Poll ``/v1/health`` until it answers (or ``proc`` died, or timeout)."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if proc is not None and proc.poll() is not None:
            raise AssertionError(
                f"process for {url} exited with {proc.returncode} before "
                f"serving")
        try:
            with urllib.request.urlopen(url + "/v1/health", timeout=2.0):
                return
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.05)
    raise AssertionError(f"server at {url} never became healthy")


def assert_gapless(events: Sequence[object]) -> None:
    """The journal contract: seqs are exactly 0..n-1, ending terminal."""
    seqs = [e.seq for e in events]
    assert seqs == list(range(len(seqs))), f"seq gaps/dups: {seqs}"
    assert events, "empty stream"
    last = events[-1]
    assert isinstance(last, JobStateChanged) and last.terminal, \
        f"stream did not end terminal: {last}"


def charged_trials(events: Sequence[object]) -> List[TrialFinished]:
    """Completed trials after the job's final placement (``queued`` marker).

    A migration (or a backend restart's recovery resume) re-places the job,
    which shows up in the journal as another ``JobStateChanged(queued)``;
    everything before the last one is a discarded incarnation's work and
    must not count against the trial budget.  Asserts the charged trial ids
    are distinct — the "no trial charged twice" contract.
    """
    last_queued = 0
    for i, event in enumerate(events):
        if isinstance(event, JobStateChanged) and event.state == "queued":
            last_queued = i
    charged = [e for e in events[last_queued:]
               if isinstance(e, TrialFinished) and e.state == "completed"]
    ids = [e.trial_id for e in charged]
    assert len(ids) == len(set(ids)), f"trial charged twice: {ids}"
    return charged


class _Backend:
    """Bookkeeping for one backend subprocess."""

    def __init__(self, index: int, port: int, db: str) -> None:
        self.index = index
        self.port = port
        self.db = db
        self.url = f"http://127.0.0.1:{port}"
        self.proc: Optional[subprocess.Popen] = None
        self.paused = False


class _Worker:
    """Bookkeeping for one pull-worker subprocess."""

    def __init__(self, name: str, proc: subprocess.Popen) -> None:
        self.name = name
        self.proc = proc


class FleetHarness:
    """One router + N backend subprocesses + M worker subprocesses.

    Args:
        tmp_path: scratch directory (each backend gets its own SQLite file
            and event-log directory inside it).
        n_backends: backend tune servers to spawn.
        n_workers: pull workers to spawn (only useful with the default
            ``backend="ticket"``).
        backend: the backends' executor backend (``ticket`` for pull
            workers, ``thread`` for self-executing backends).
        lease_seconds: ticket lease duration (short, so lost workers
            requeue quickly in drills).
        max_jobs: per-backend concurrent job bound.
        run_seconds: subprocess lifetime bound — a harness crash never
            leaks servers past this.
        router_kwargs: overrides for :class:`RemoteRouterServer` (health
            cadence defaults are drill-fast already).
    """

    def __init__(self, tmp_path, n_backends: int = 2, n_workers: int = 0,
                 backend: str = "ticket", lease_seconds: float = 2.0,
                 max_jobs: int = 4, run_seconds: float = 300.0,
                 router_kwargs: Optional[Dict[str, object]] = None) -> None:
        self.tmp_path = tmp_path
        self.backend = backend
        self.lease_seconds = lease_seconds
        self.max_jobs = max_jobs
        self.run_seconds = run_seconds
        helper_dir = tmp_path / "fleet_modules"
        helper_dir.mkdir(exist_ok=True)
        (helper_dir / f"{FLEET_HELPER}.py").write_text(FLEET_HELPER_SOURCE)
        self.helper_dir = str(helper_dir)
        self.space_ref = f"{FLEET_HELPER}:SPACE"
        self.objective_ref = f"{FLEET_HELPER}:objective"
        self.slow_ref = f"{FLEET_HELPER}:slow"
        self.very_slow_ref = f"{FLEET_HELPER}:very_slow"
        self.env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src, self.helper_dir]
            + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep)
               if p])
        self.backends = [
            _Backend(i, free_port(), str(tmp_path / f"backend-{i}.db"))
            for i in range(n_backends)]
        self.workers: List[_Worker] = []
        self._n_workers = n_workers
        self._worker_serial = 0
        kwargs: Dict[str, object] = {
            "health_interval": 0.2, "health_timeout": 1.0,
            "unhealthy_after": 2, "request_timeout": 10.0}
        kwargs.update(router_kwargs or {})
        self._router_kwargs = kwargs
        self.router: Optional[RemoteRouterServer] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "FleetHarness":
        for backend in self.backends:
            self._spawn_backend(backend, recover=False)
        for backend in self.backends:
            wait_for_health(backend.url, proc=backend.proc)
        for _ in range(self._n_workers):
            self.start_worker()
        self.router = RemoteRouterServer(
            [b.url for b in self.backends],
            **self._router_kwargs).start()  # type: ignore[arg-type]
        return self

    def stop(self) -> None:
        if self.router is not None:
            self.router.stop()
            self.router = None
        for worker in self.workers:
            self._reap(worker.proc)
        self.workers = []
        for backend in self.backends:
            if backend.paused and backend.proc is not None:
                backend.proc.send_signal(signal.SIGCONT)
                backend.paused = False
            self._reap(backend.proc)
            backend.proc = None

    @staticmethod
    def _reap(proc: Optional[subprocess.Popen]) -> None:
        if proc is None or proc.poll() is not None:
            return
        proc.kill()
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
            pass

    def __enter__(self) -> "FleetHarness":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Spawning
    # ------------------------------------------------------------------ #
    def _spawn_backend(self, backend: _Backend, recover: bool) -> None:
        args = [sys.executable, "-m", "repro.automl.cli",
                "--db", backend.db, "serve",
                "--host", "127.0.0.1", "--port", str(backend.port),
                "--workers", "2", "--max-jobs", str(self.max_jobs),
                "--backend", self.backend,
                "--run-seconds", str(self.run_seconds)]
        if self.backend == "ticket":
            args += ["--lease-seconds", str(self.lease_seconds)]
        if recover:
            args.append("--recover")
        backend.proc = self._spawn(args, f"backend-{backend.index}")
        backend.paused = False

    def _spawn(self, args: List[str], name: str) -> subprocess.Popen:
        """Start a child whose output goes to ``<name>.log`` in the temp dir.

        A file, not a pipe: nothing has to drain it, so a chatty child can
        never block on a full pipe buffer.  The child holds its own copy of
        the descriptor; the harness closes its copy at once.
        """
        with open(self.tmp_path / f"{name}.log", "ab") as log:
            return subprocess.Popen(args, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)

    def start_worker(self) -> str:
        """Spawn one pull worker polling every backend; returns its name."""
        name = f"fleet-worker-{self._worker_serial}"
        self._worker_serial += 1
        args = [sys.executable, "-m", "repro.automl.cli", "work",
                *[b.url for b in self.backends],
                "--name", name, "--poll-interval", "0.05",
                "--run-seconds", str(self.run_seconds)]
        self.workers.append(_Worker(name, self._spawn(args, name)))
        return name

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #
    def kill_backend(self, index: int) -> str:
        """SIGKILL a backend (no cleanup, like a machine loss); its URL."""
        backend = self.backends[index]
        assert backend.proc is not None and backend.proc.poll() is None, \
            f"backend {index} is not running"
        backend.proc.send_signal(signal.SIGKILL)
        backend.proc.wait(timeout=10.0)
        return backend.url

    def restart_backend(self, index: int, wait: bool = True) -> str:
        """Bring a killed backend back: same db, same port, ``--recover``."""
        backend = self.backends[index]
        assert backend.proc is None or backend.proc.poll() is not None, \
            f"backend {index} is still running"
        self._spawn_backend(backend, recover=True)
        if wait:
            wait_for_health(backend.url, proc=backend.proc)
        return backend.url

    def pause_backend(self, index: int) -> str:
        """SIGSTOP a backend: alive but frozen — one side of a partition."""
        backend = self.backends[index]
        assert backend.proc is not None and backend.proc.poll() is None
        backend.proc.send_signal(signal.SIGSTOP)
        backend.paused = True
        return backend.url

    def resume_backend(self, index: int) -> str:
        """SIGCONT a paused backend: the partition heals, the stale side wakes."""
        backend = self.backends[index]
        assert backend.proc is not None and backend.paused
        backend.proc.send_signal(signal.SIGCONT)
        backend.paused = False
        return backend.url

    def kill_worker(self, index: int = 0) -> str:
        """SIGKILL a worker mid-lease; returns its name (it is forgotten)."""
        worker = self.workers.pop(index)
        if worker.proc.poll() is None:
            worker.proc.send_signal(signal.SIGKILL)
            worker.proc.wait(timeout=10.0)
        return worker.name

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def client(self, **kwargs: object) -> AntTuneClient:
        """An SDK client pointed at the router (the fleet's front door)."""
        assert self.router is not None, "harness not started"
        kwargs.setdefault("timeout", 10.0)
        kwargs.setdefault("max_stream_retries", 100)
        return AntTuneClient(self.router.url, **kwargs)  # type: ignore[arg-type]

    def backend_client(self, index: int, **kwargs: object) -> AntTuneClient:
        """An SDK client pointed directly at one backend."""
        kwargs.setdefault("timeout", 10.0)
        return AntTuneClient(self.backends[index].url, **kwargs)  # type: ignore[arg-type]

    def backend_index_of(self, url: str) -> int:
        for backend in self.backends:
            if backend.url == url:
                return backend.index
        raise AssertionError(f"no backend with url {url}")

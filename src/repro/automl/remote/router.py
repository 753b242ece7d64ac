"""The fleet front tier: one router, many backend tune servers.

A single :class:`~repro.automl.remote.http_server.RemoteTuneServer` is one
process with one worker pool.  :class:`TuneRouter` (and its HTTP wrapper
:class:`RemoteRouterServer`) scales that out: clients speak the exact same
``/v1`` protocol to the router, which

* **places** every ``submit``/``resume`` on a backend by consistent hashing
  on the study name (:class:`HashRing`), falling back to the least-loaded
  healthy backend (by ``server_status()`` job counts) when the ring's pick
  is down — so the same study keeps landing on the same backend across
  router restarts, and a dead backend never blackholes new work;
* **relays** each job's event stream through a per-job journal: every
  backend event is re-stamped with the router's own job id, a dense router
  ``seq`` and the original trace id, so the stream a client observes is
  gapless by construction even across a backend restart (where backend seqs
  may rewind) or a migration (where the backend itself changes);
* **migrates** non-terminal jobs off a dead backend: the original submit
  body is resubmitted — same study name, same trace id, same router job id —
  to a surviving backend, and the new stream is appended to the same
  journal.  A backend that merely restarted (``serve --recover``) is
  reattached instead, riding the SDK's ``last_seq`` replay off the durable
  event log;
* **aggregates** ``jobs``/``status`` across its own job table and
  ``metrics`` across every backend (each backend's exposition is prefixed
  with a ``# backend <url>`` comment).

Split-brain discipline: each (re)attachment of a job to a backend bumps the
job's *incarnation*.  A relay that learns it is stale — because the health
monitor migrated the job away while its backend was frozen — discards
everything it reads, so a backend that wakes from a partition cannot corrupt
the journal.  Resume jobs are pinned to the backend that holds their study
storage: the router reattaches when it returns but never re-runs them
elsewhere (the runbook answer is ``serve --recover`` on that backend).

Only the stdlib is used, like everywhere else in the remote layer.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import threading
import uuid
from time import monotonic
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.automl import metrics as _metrics
from repro.automl.events import JobStateChanged, event_wire_bytes
from repro.automl.remote.api import PROTOCOL_VERSION, ProtocolError
from repro.automl.remote.client import AntTuneClient, _ServerUnreachable
from repro.automl.remote import http_server as _http
from repro.automl.remote.edge import (
    Reply,
    _int_param,
    _job_id_segment,
    _json_bytes,
    json_reply,
)
from repro.exceptions import TrialError

__all__ = ["HashRing", "TuneRouter", "RemoteRouterServer"]

_ROUTER_JOBS = _metrics.REGISTRY.counter(
    "anttune_router_jobs_total",
    "Jobs placed through the router, by backend URL.",
    labels=("backend",))
_ROUTER_MIGRATIONS = _metrics.REGISTRY.counter(
    "anttune_router_migrations_total",
    "Jobs migrated off a dead backend (resubmitted elsewhere).")
_ROUTER_REATTACHES = _metrics.REGISTRY.counter(
    "anttune_router_reattaches_total",
    "Job streams reattached to a backend that came back (restart/partition).")
_BACKEND_DOWN = _metrics.REGISTRY.counter(
    "anttune_router_backend_down_total",
    "Times a backend was marked unhealthy by the router's health monitor.",
    labels=("backend",))


class HashRing:
    """Consistent-hash ring over backend URLs (or any string node ids).

    Each node is placed at ``replicas`` pseudo-random points (md5 of
    ``"{node}#{i}"``); a key maps to the first node clockwise from the key's
    own hash point.  Adding or removing one node therefore remaps only the
    arc segments that node owned — roughly ``1/n`` of the key space — while
    every other key keeps its assignment; ``replicas`` smooths the per-node
    share (the fleet tests bound the imbalance).

    Args:
        nodes: initial node ids.
        replicas: virtual points per node (>= 1).
    """

    def __init__(self, nodes: Iterable[str] = (), replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = int(replicas)
        self._points: List[Tuple[int, str]] = []  # sorted (hash, node)
        self._nodes: Set[str] = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(key: str) -> int:
        # md5 for dispersion, not security: stable across processes and
        # Python versions (unlike hash()), cheap, and 64 bits is plenty.
        return int.from_bytes(
            hashlib.md5(key.encode("utf-8")).digest()[:8], "big")

    def add(self, node: str) -> None:
        """Insert ``node`` (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.replicas):
            bisect.insort(self._points, (self._hash(f"{node}#{i}"), node))

    def remove(self, node: str) -> None:
        """Remove ``node`` (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [(h, n) for h, n in self._points if n != node]

    def lookup(self, key: str) -> Optional[str]:
        """The node owning ``key``; None for an empty ring."""
        if not self._points:
            return None
        # ("",) sorts below any node id, so bisect_left lands on the first
        # point with hash >= the key's point; wrap at the end of the ring.
        index = bisect.bisect_left(self._points, (self._hash(key), ""))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    @property
    def nodes(self) -> Set[str]:
        """A snapshot of the current node ids."""
        return set(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: object) -> bool:
        return node in self._nodes


class _Backend:
    """One backend tune server as the router sees it."""

    def __init__(self, url: str, client: AntTuneClient) -> None:
        self.url = url
        self.client = client
        self.healthy = True
        self.fails = 0  # consecutive failed health probes


class _RouterJob:
    """The router's authoritative record of one placed job.

    ``journal_bytes`` holds the re-stamped events as NDJSON lines, where
    index == router seq, so a stream is a cursor into it and gaplessness is
    structural; every streaming connection shares the same line objects
    (serialise once, fan out N times).  ``listeners`` are invoked under
    ``cond`` at append time: the edge streams' doorbells and parked waits.
    ``incarnation`` counts (re)attachments to a backend; a relay thread
    carries the incarnation it was started under and discards everything
    once the numbers diverge.
    """

    def __init__(self, job_id: int, study_name: str, trace_id: str,
                 kind: str, body: Dict[str, object], backend_url: str,
                 backend_job_id: int) -> None:
        self.job_id = job_id
        self.study_name = study_name
        self.trace_id = trace_id
        self.kind = kind  # "submit" | "resume"
        self.body = body  # the original wire body, for migration resubmits
        self.backend_url = backend_url
        self.backend_job_id = backend_job_id
        self.cond = threading.Condition()
        self.journal_bytes: List[bytes] = []
        self.listeners: List[Callable[[bytes, int, bool], None]] = []
        self.state = "queued"
        self.error: Optional[str] = None
        self.terminal = False
        self.incarnation = 0
        self.migrations = 0
        self.relay_alive = False
        self.migrating = False
        # Highest backend-side seq relayed for the *current* incarnation:
        # the reattach resume point after a backend restart.
        self.backend_last_seq = -1


class TuneRouter:
    """Fan jobs across backend tune servers; journal and heal their streams.

    Args:
        backends: backend base URLs (e.g. ``["http://a:8123", ...]``).
        token: bearer token forwarded to every backend request.
        replicas: virtual points per backend on the placement ring.
        health_interval: seconds between health sweeps.
        health_timeout: per-probe socket timeout — also the bound on how
            long placement waits on a slow backend's load query.
        unhealthy_after: consecutive probe failures before a backend is
            marked down (and its non-terminal jobs migrate).
        request_timeout: socket timeout for forwarded control requests.

    Use as a context manager, or call :meth:`start` / :meth:`close`.
    """

    def __init__(self, backends: Sequence[str], token: Optional[str] = None,
                 replicas: int = 64, health_interval: float = 0.5,
                 health_timeout: float = 2.0, unhealthy_after: int = 3,
                 request_timeout: float = 30.0) -> None:
        urls = [str(url).rstrip("/") for url in backends]
        if not urls:
            raise ValueError("at least one backend URL is required")
        if len(set(urls)) != len(urls):
            raise ValueError(f"duplicate backend URLs: {urls}")
        self.health_interval = float(health_interval)
        self.health_timeout = float(health_timeout)
        self.unhealthy_after = int(unhealthy_after)
        self._backends: Dict[str, _Backend] = {
            url: _Backend(url, AntTuneClient(url, token=token,
                                             timeout=request_timeout))
            for url in urls}
        self._ring = HashRing(urls, replicas=replicas)
        self._jobs: Dict[int, _RouterJob] = {}
        self._jobs_lock = threading.Lock()
        self._next_job_id = 0
        self._stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "TuneRouter":
        """Start the health monitor thread (idempotent)."""
        if self._health_thread is None:
            self._health_thread = threading.Thread(
                target=self._health_loop, name="anttune-router-health",
                daemon=True)
            self._health_thread.start()
        return self

    def close(self) -> None:
        """Stop the health monitor; relays die with their daemon threads."""
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=10.0)
            self._health_thread = None
        # Wake any caller blocked in wait() so shutdown is prompt.
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            with job.cond:
                job.cond.notify_all()

    def __enter__(self) -> "TuneRouter":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def submit(self, body: Dict[str, object],
               trace_id: Optional[str] = None,
               kind: str = "submit") -> Dict[str, object]:
        """Place one submit/resume body on a backend and start its relay.

        The body is forwarded verbatim (plus an injected ``study_name`` for
        anonymous submits, so a migration can resubmit the *same* study);
        the router never imports the referenced code — backends do.

        Args:
            body: the wire-shape request body.
            trace_id: correlation id; generated when omitted and stamped on
                every journalled event end to end.
            kind: ``"submit"`` (``/v1/jobs``) or ``"resume"``
                (``/v1/resume``).

        Returns:
            ``{"job_id", "trace_id", "backend", "protocol"}`` — the id is
            the *router's*, stable across migrations.

        Raises:
            ProtocolError: malformed body (no backend was contacted).
            ValueError: a backend rejected the request shape (400).
            TrialError: no healthy backend, duplicate study, or the chosen
                backend refused/vanished mid-request.
        """
        if kind not in ("submit", "resume"):
            raise ValueError(f"kind must be 'submit' or 'resume', not {kind!r}")
        body = self._checked_body(body, kind)
        with self._jobs_lock:
            job_id = self._next_job_id
            self._next_job_id += 1
        trace_id = trace_id or _metrics.new_trace_id()
        study_name = body.get("study_name")
        if not isinstance(study_name, str) or not study_name:
            # Name anonymous studies here: placement hashes the name, and a
            # migration must be able to resubmit the *same* study.
            study_name = f"fleet-{job_id}-{uuid.uuid4().hex[:8]}"
            body["study_name"] = study_name
        backend = self._pick_backend(study_name)
        if backend is None:
            raise TrialError("no healthy backend available to place the job")
        path = "/v1/jobs" if kind == "submit" else "/v1/resume"
        answer = backend.client._request("POST", path, body,
                                         request_id=trace_id)
        job = _RouterJob(job_id, study_name, trace_id, kind, body,
                         backend.url, int(answer["job_id"]))
        with self._jobs_lock:
            self._jobs[job_id] = job
        _ROUTER_JOBS.labels(backend=backend.url).inc()
        self._start_relay(job, backend, job.backend_job_id,
                          incarnation=0, last_seq=-1)
        return {"job_id": job_id, "trace_id": trace_id,
                "backend": backend.url, "protocol": PROTOCOL_VERSION}

    @staticmethod
    def _checked_body(body: object, kind: str) -> Dict[str, object]:
        """Light shape validation — never imports the referenced code."""
        if not isinstance(body, dict):
            raise ProtocolError("request body must be a JSON object")
        protocol = body.get("protocol")
        if protocol is not None and protocol != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol {protocol!r} not supported; this router speaks "
                f"{PROTOCOL_VERSION}")
        for key in ("space", "objective"):
            ref = body.get(key)
            if not isinstance(ref, str) or ":" not in ref:
                raise ProtocolError(
                    f"{key!r} must be a 'module:attr' reference string")
        if kind == "resume":
            name = body.get("study_name")
            if not isinstance(name, str) or not name:
                raise ProtocolError("resume requires a 'study_name' string")
        return dict(body)

    def _pick_backend(self, study_name: str,
                      exclude: Iterable[str] = ()) -> Optional[_Backend]:
        """The ring's pick when healthy, else the least-loaded healthy one."""
        excluded = set(exclude)
        healthy = [b for b in self._backends.values()
                   if b.healthy and b.url not in excluded]
        if not healthy:
            return None
        choice = self._ring.lookup(study_name)
        for backend in healthy:
            if backend.url == choice:
                return backend

        def load(backend: _Backend) -> float:
            try:
                status = backend.client._request(
                    "GET", "/v1/status", timeout=self.health_timeout)
            except Exception:  # noqa: BLE001 - treat as infinitely loaded
                return float("inf")
            states = status.get("job_states") or {}
            return sum(int(states.get(s, 0)) for s in ("queued", "running"))

        return min(healthy, key=load)

    # ------------------------------------------------------------------ #
    # Stream relay and journal
    # ------------------------------------------------------------------ #
    def _start_relay(self, job: _RouterJob, backend: _Backend,
                     backend_job_id: int, incarnation: int,
                     last_seq: int) -> None:
        with job.cond:
            job.relay_alive = True
        thread = threading.Thread(
            target=self._relay,
            args=(job, backend, backend_job_id, incarnation, last_seq),
            name=f"anttune-router-relay-{job.job_id}", daemon=True)
        thread.start()

    def _relay(self, job: _RouterJob, backend: _Backend, backend_job_id: int,
               incarnation: int, last_seq: int) -> None:
        """Copy one backend stream into the job's journal, re-stamped.

        The SDK's stream loop already absorbs reconnects, ``last_seq``
        replay (including across a ``serve --recover`` restart) and seq
        gaps, and checks every line as ``event_from_wire`` would; this
        thread only re-stamps the wire dict and appends its one
        serialisation.  Any exit without a terminal event — stream gave
        up, backend vanished, unknown job — hands the job to
        :meth:`_heal_job` for reattachment or migration.
        """
        try:
            for wire in backend.client._wire_stream(backend_job_id,
                                                    last_seq=last_seq):
                state_change = wire["type"] == "JobStateChanged"
                terminal = state_change and bool(wire["terminal"])
                with job.cond:
                    if job.incarnation != incarnation or job.terminal:
                        return  # stale relay (migrated away, or finished)
                    job.backend_last_seq = wire["seq"]
                    if state_change:
                        job.state = wire["state"]
                        job.error = wire["error"]
                        if terminal:
                            job.terminal = True
                    wire["job_id"] = job.job_id
                    wire["seq"] = len(job.journal_bytes)
                    wire["trace_id"] = job.trace_id
                    self._append_line(job, _json_bytes(wire), terminal)
        except Exception:  # noqa: BLE001 - the stream is gone; heal below
            pass
        finally:
            with job.cond:
                stale = job.incarnation != incarnation
                if not stale:
                    job.relay_alive = False
                done = job.terminal
            if not stale and not done and not self._stop.is_set():
                self._heal_job(job)

    # ------------------------------------------------------------------ #
    # Health and migration
    # ------------------------------------------------------------------ #
    def _health_loop(self) -> None:
        while not self._stop.wait(self.health_interval):
            for backend in list(self._backends.values()):
                self._probe(backend)
            self._sweep_jobs()

    def _probe(self, backend: _Backend) -> None:
        try:
            backend.client._request("GET", "/v1/health",
                                    timeout=self.health_timeout)
        except Exception:  # noqa: BLE001 - any failure is a failed probe
            backend.fails += 1
            if backend.healthy and backend.fails >= self.unhealthy_after:
                backend.healthy = False
                _BACKEND_DOWN.labels(backend=backend.url).inc()
        else:
            backend.fails = 0
            backend.healthy = True

    def _sweep_jobs(self) -> None:
        """Heal jobs with a dead relay — or a relay stuck on a frozen backend.

        A partitioned (e.g. SIGSTOPped) backend leaves its relay blocked in
        a socket read for up to the stream timeout; waiting that long to
        migrate is not acceptable, so an unhealthy backend triggers healing
        even while the relay thread is technically alive — the incarnation
        bump strands it.
        """
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            backend = self._backends.get(job.backend_url)
            backend_down = backend is None or not backend.healthy
            with job.cond:
                needs = (not job.terminal and not job.migrating
                         and (not job.relay_alive or backend_down))
            if needs:
                self._heal_job(job)

    def _heal_job(self, job: _RouterJob) -> None:
        """Reattach a job to its (returned) backend, or migrate it away."""
        with job.cond:
            if job.terminal or job.migrating or self._stop.is_set():
                return
            job.migrating = True
            old_url = job.backend_url
        try:
            backend = self._backends.get(old_url)
            if backend is not None and self._reattach(job, backend):
                return
            if job.kind == "resume":
                # The study's storage lives only on its original backend;
                # re-running elsewhere would silently fork the study.  Keep
                # waiting — the sweep retries until `serve --recover` brings
                # the backend (and the job, under its original id) back.
                return
            target = self._pick_backend(job.study_name, exclude={old_url})
            if target is None:
                return  # nowhere to go yet; the next sweep retries
            try:
                answer = target.client._request(
                    "POST", "/v1/jobs", job.body, request_id=job.trace_id)
            except _ServerUnreachable:
                return  # target died between pick and post; retry later
            except (TrialError, ValueError) as exc:
                # Permanent refusal (duplicate study on the target, schema
                # drift): surface it — this job cannot be placed anywhere.
                self._finish_locally(
                    job, "failed",
                    f"migration off {old_url} refused by {target.url}: {exc}")
                return
            with job.cond:
                if job.terminal:
                    return
                job.backend_url = target.url
                job.backend_job_id = int(answer["job_id"])
                job.backend_last_seq = -1
                job.incarnation += 1
                job.migrations += 1
                incarnation = job.incarnation
            _ROUTER_MIGRATIONS.inc()
            _ROUTER_JOBS.labels(backend=target.url).inc()
            self._start_relay(job, target, job.backend_job_id,
                              incarnation, last_seq=-1)
        finally:
            with job.cond:
                job.migrating = False

    def _reattach(self, job: _RouterJob, backend: _Backend) -> bool:
        """Resubscribe to the original backend if it still owns the job.

        True when a relay was (re)started.  A recovered backend resumes the
        job under its original backend id with seq numbering primed past the
        durable log, so the relay continues from ``backend_last_seq``.
        """
        try:
            status = backend.client.poll(job.backend_job_id)
        except Exception:  # noqa: BLE001 - down, or the job is gone
            return False
        if status.get("study_name") != job.study_name:
            return False  # a restarted (unrecovered) backend reused the id
        with job.cond:
            if job.terminal:
                return True
            job.incarnation += 1
            incarnation = job.incarnation
            last_seq = job.backend_last_seq
        _ROUTER_REATTACHES.inc()
        self._start_relay(job, backend, job.backend_job_id,
                          incarnation, last_seq)
        return True

    @staticmethod
    def _append_line(job: _RouterJob, data: bytes, terminal: bool) -> None:
        """Append one NDJSON line to the journal (caller holds ``job.cond``).

        The line is the buffer every streaming connection shares; it is
        pushed to the edge's listeners, and callers blocked in
        :meth:`TuneRouter.wait` wake.
        """
        seq = len(job.journal_bytes)
        job.journal_bytes.append(data)
        for listener in list(job.listeners):
            try:
                listener(data, seq, terminal)
            except Exception:  # noqa: BLE001 - one sink must not stop relay
                pass
        job.cond.notify_all()

    def _finish_locally(self, job: _RouterJob, state: str,
                        error: Optional[str]) -> None:
        """Terminate a job in the journal when no backend can anymore."""
        with job.cond:
            if job.terminal:
                return
            job.incarnation += 1  # strand any live relay
            event = JobStateChanged(state=state, error=error, terminal=True,
                                    job_id=job.job_id,
                                    seq=len(job.journal_bytes),
                                    trace_id=job.trace_id)
            job.state = state
            job.error = error
            job.terminal = True
            self._append_line(job, event_wire_bytes(event), True)

    # ------------------------------------------------------------------ #
    # Aggregated control surface (mirrors the backend API shapes)
    # ------------------------------------------------------------------ #
    def _job(self, job_id: int) -> _RouterJob:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise TrialError(f"unknown job id {job_id}")
        return job

    def status(self, job_id: int) -> Dict[str, object]:
        """One job's status: the backend's snapshot under router identity.

        The backend's view (trial counts, best value) is merged in when
        reachable; the router's own fields — id, state, trace id, backend,
        migrations — always win, so callers see stable identity across
        migrations even when the backend is gone.
        """
        job = self._job(job_id)
        with job.cond:
            own: Dict[str, object] = {
                "job_id": job.job_id, "state": job.state, "error": job.error,
                "finished": job.terminal, "study_name": job.study_name,
                "trace_id": job.trace_id, "backend": job.backend_url,
                "backend_job_id": job.backend_job_id,
                "migrations": job.migrations,
                "events": len(job.journal_bytes),
            }
            backend = self._backends.get(job.backend_url)
            backend_job_id = job.backend_job_id
        merged: Dict[str, object] = {
            "num_trials": 0, "states": {}, "best_value": None,
        }
        if backend is not None:
            try:
                # health_timeout, not the full request timeout: a frozen
                # backend must not stall a status call longer than a probe.
                merged.update(backend.client._request(
                    "GET", f"/v1/jobs/{backend_job_id}",
                    timeout=self.health_timeout))
            except Exception:  # noqa: BLE001 - backend view is best-effort
                pass
        merged.update(own)
        return merged

    def jobs(self) -> List[Dict[str, object]]:
        """Status snapshots of every routed job, oldest first."""
        with self._jobs_lock:
            ids = sorted(self._jobs)
        return [self.status(job_id) for job_id in ids]

    def wait(self, job_id: int,
             timeout: Optional[float] = None) -> Dict[str, object]:
        """Bounded wait on the journal; the SDK polls until ``done``.

        Returns the same wire shape as a backend's ``/wait``: the ``best``
        record is proxied from the current backend when reachable, else
        computed from the journal's ``TrialFinished`` records (so a client
        still gets its answer when the last backend died *after* the
        terminal event was relayed).
        """
        job = self._job(job_id)
        deadline = monotonic() + (timeout if timeout is not None else 10.0)
        with job.cond:
            while not job.terminal and not self._stop.is_set():
                remaining = deadline - monotonic()
                if remaining <= 0:
                    break
                job.cond.wait(remaining)
            if not job.terminal:
                return {"done": False, "state": job.state}
            state, error = job.state, job.error
            backend = self._backends.get(job.backend_url)
            backend_job_id = job.backend_job_id
        if backend is not None:
            try:
                answer = backend.client._request(
                    "GET", f"/v1/jobs/{backend_job_id}/wait?timeout=0",
                    timeout=self.health_timeout)
                if answer.get("done"):
                    answer.setdefault("error", error)
                    return answer
            except Exception:  # noqa: BLE001 - fall back to the journal
                pass
        return {"done": True, "state": state, "error": error,
                "best": self._best_from_journal(job)}

    def _best_from_journal(self, job: _RouterJob) -> Optional[Dict[str, object]]:
        """Best completed trial record in the journal (last write per id).

        The fallback when the backend's own ``/wait`` cannot answer, so it
        decodes the journal's lines here rather than keeping them decoded.
        """
        config = job.body.get("config")
        maximize = True
        if isinstance(config, dict):
            maximize = bool(config.get("maximize", True))
        records: Dict[int, Dict[str, object]] = {}
        with job.cond:
            lines = list(job.journal_bytes)
        for line in lines:
            wire = json.loads(line)
            if wire.get("type") != "TrialFinished":
                continue
            if wire.get("state") != "completed" or wire.get("value") is None:
                continue
            record = wire.get("record")
            if isinstance(record, dict):
                records[int(wire["trial_id"])] = record
        if not records:
            return None
        key = (lambda r: r.get("value")) if maximize \
            else (lambda r: -r.get("value"))
        return max(records.values(), key=key)

    def cancel(self, job_id: int) -> bool:
        """Cancel a routed job wherever it currently lives.

        When the backend is unreachable the job is finished locally as
        cancelled — an explicit cancel must not lose the race against the
        migration machinery resurrecting the job elsewhere.
        """
        job = self._job(job_id)
        with job.cond:
            if job.terminal:
                return False
            backend = self._backends.get(job.backend_url)
            backend_job_id = job.backend_job_id
        if backend is not None:
            try:
                return bool(backend.client.cancel(backend_job_id))
            except _ServerUnreachable:
                pass
            except TrialError:
                return False  # the backend knows it and says no
        self._finish_locally(job, "cancelled",
                             "cancelled while its backend was unreachable")
        return True

    def server_status(self) -> Dict[str, object]:
        """Router-wide snapshot: backend health plus routed-job counts."""
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        states: Dict[str, int] = {}
        migrations = 0
        for job in jobs:
            with job.cond:
                states[job.state] = states.get(job.state, 0) + 1
                migrations += job.migrations
        return {
            "role": "router",
            "num_backends": len(self._backends),
            "backends": [
                {"url": b.url, "healthy": b.healthy,
                 "consecutive_failures": b.fails}
                for b in self._backends.values()],
            "num_jobs": len(jobs),
            "job_states": states,
            "migrations": migrations,
        }

    def metrics_text(self) -> str:
        """The router's own exposition plus every backend's, sectioned.

        Each backend's text is prefixed with a ``# backend <url>`` comment
        line (comments are legal in the Prometheus text format), so one
        scrape of the router observes the whole fleet.
        """
        parts = [_metrics.REGISTRY.render()]
        for backend in self._backends.values():
            try:
                text = backend.client.metrics()
            except Exception:  # noqa: BLE001 - best-effort aggregation
                parts.append(f"# backend {backend.url} unreachable\n")
                continue
            parts.append(f"# backend {backend.url}\n{text}")
        return "".join(p if p.endswith("\n") else p + "\n" for p in parts)


class _RouterWaitParker:
    """A parked router ``/wait``: completed by the journal's terminal append.

    The continuation is a journal listener (fired under ``job.cond`` by
    :meth:`TuneRouter._append_line`); a job that went terminal before
    registration fires synchronously, so a finish racing the park is never
    lost.
    """

    def __init__(self, router: TuneRouter, job: _RouterJob,
                 timeout: float) -> None:
        self._router = router
        self._job = job
        self.timeout_seconds = timeout
        self._listener = None

    def register(self, fire: Callable[[], None]) -> None:
        job = self._job

        def listen(data: bytes, seq: int, terminal: bool) -> None:
            if terminal:
                fire()

        with job.cond:
            already = job.terminal
            if not already:
                job.listeners.append(listen)
                self._listener = listen
        if already:
            fire()

    def cancel(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            with self._job.cond:
                try:
                    self._job.listeners.remove(listener)
                except ValueError:
                    pass

    def terminal_payload(self) -> Dict[str, object]:
        # The journal is already terminal; the bounded wait only covers the
        # backend's best-trial proxy call inside router.wait().
        return self._router.wait(self._job.job_id, timeout=5.0)

    def timeout_payload(self) -> Dict[str, object]:
        return self._router.wait(self._job.job_id, timeout=0.0)


class _RouterApp(_http._EndpointApp):
    """The router's endpoint core: the backend protocol, served off journals.

    The tune server's route table and edge hooks, hitting the
    :class:`TuneRouter` instead of an in-process ``AntTuneServer``.  Submit
    and resume deliberately do *not* parse refs — the router forwards
    bodies; only backends import code.
    """

    # -- routing --------------------------------------------------------- #
    def classify(self, method: str, path: str):
        """The shared route table minus the ticket surface.

        Workers talk to backends directly, so a ticket route answers 404
        like any unknown path.
        """
        route = super().classify(method, path)
        if route is not None and route[1].startswith("/v1/tickets/"):
            return None
        return route

    # -- control --------------------------------------------------------- #
    def handle_control(self, method: str, template: str, args: object,
                       params: Dict[str, str],
                       read_body: Callable[[], object],
                       request_id: Optional[str]) -> Reply:
        router = self.remote.router
        if template == "/v1/health":
            return json_reply(200, {"ok": True, "role": "router",
                                    "protocol": PROTOCOL_VERSION})
        if template == "/v1/status":
            payload = router.server_status()
            payload["protocol"] = PROTOCOL_VERSION
            return json_reply(200, payload)
        if template == "/v1/metrics":
            return Reply(200, router.metrics_text().encode("utf-8"),
                         _http.METRICS_CONTENT_TYPE)
        if template == "/v1/jobs" and method == "GET":
            return json_reply(200, {"jobs": router.jobs()})
        if template == "/v1/jobs":  # POST: submit
            return self._place("submit", read_body(), request_id)
        if template == "/v1/resume":
            return self._place("resume", read_body(), request_id)
        if template == "/v1/jobs/{id}":
            return json_reply(200, router.status(_job_id_segment(args)))
        if template == "/v1/jobs/{id}/cancel":
            job_id = _job_id_segment(args)
            return json_reply(200, {"job_id": job_id,
                                    "cancelled": router.cancel(job_id)})
        raise ProtocolError(f"no such endpoint: {method} {template}",
                            status=404)  # pragma: no cover - classify gates

    def _place(self, kind: str, body: object,
               request_id: Optional[str]) -> Reply:
        try:
            answer = self.remote.router.submit(
                body, trace_id=request_id, kind=kind)  # type: ignore[arg-type]
        except ValueError as exc:
            # A backend's 400 surfaces as ValueError in the forwarding
            # client; keep it a 400 for our caller too.
            raise ProtocolError(str(exc)) from None
        return json_reply(200, answer)

    # -- wait ------------------------------------------------------------ #
    def wait_begin(self, args: object, params: Dict[str, str],
                   request_id: Optional[str]):
        job_id, timeout = self._wait_args(args, params)
        router = self.remote.router
        job = router._job(job_id)  # 404 for unknown ids
        with job.cond:
            terminal = job.terminal
        if terminal or timeout <= 0.0:
            return ("reply", router.wait(job_id, timeout=0.0))
        return ("park", _RouterWaitParker(router, job, timeout))

    # -- event streams --------------------------------------------------- #
    def stream_begin(self, args: object, params: Dict[str, str],
                     request_id: Optional[str], sink) -> None:
        """``/events``: a cursor over one job's journal, from ``last_seq``."""
        job_id = _job_id_segment(args)
        last_seq = _int_param(params, "last_seq", -1)
        job = self.remote.router._job(job_id)

        def listen(data: bytes, seq: int, terminal: bool) -> None:
            sink.wake()

        with job.cond:
            job.listeners.append(listen)

        def remove() -> None:
            with job.cond:
                try:
                    job.listeners.remove(listen)
                except ValueError:
                    pass

        sink.on_close(remove)
        sink.start(_JournalFeed(job), last_seq)


class _JournalFeed:
    """A router stream's frames: the job's journal lines, index == seq.

    The journal keeps every line for the job's life, so a cursor is never
    older than it and the edge never needs a backlog read.
    """

    def __init__(self, job: _RouterJob) -> None:
        self._job = job

    def read(self, after_seq: int, max_bytes: int):
        job = self._job
        frames: List[bytes] = []
        size = 0
        with job.cond:
            lines = job.journal_bytes
            cursor = max(after_seq, -1)
            while cursor + 1 < len(lines) and size < max_bytes:
                cursor += 1
                frames.append(lines[cursor])
                size += len(lines[cursor])
            end = job.terminal and cursor >= len(lines) - 1
        return frames, cursor, end


class RemoteRouterServer(_http._HTTPFront):
    """Serve a :class:`TuneRouter` over HTTP — a drop-in fleet front door.

    Clients (the SDK, the CLI, plain HTTP) talk to it exactly as they would
    to a single :class:`~repro.automl.remote.http_server.RemoteTuneServer`.

    Args:
        backends: backend base URLs (ignored when ``router`` is given).
        host: bind address (default loopback).
        port: bind port; 0 picks a free one.
        token: bearer token — required of *clients* and forwarded to every
            *backend* (a fleet shares one token).
        log: optional callable receiving one line per handled request.
        router: an externally owned :class:`TuneRouter` to serve instead of
            constructing one.
        **router_kwargs: forwarded to :class:`TuneRouter` when constructed
            here (``health_interval=``, ``replicas=``, ...).
    """

    def __init__(self, backends: Sequence[str] = (),
                 host: str = "127.0.0.1", port: int = 0,
                 token: Optional[str] = None,
                 log: Optional[Callable[[str], None]] = None,
                 router: Optional[TuneRouter] = None,
                 **router_kwargs: object) -> None:
        self._owns_router = router is None
        self.router = (router if router is not None
                       else TuneRouter(backends, token=token,
                                       **router_kwargs))  # type: ignore[arg-type]
        super().__init__(_RouterApp(self), (host, port), token, log,
                         name="anttune-router-edge")

    def _start_service(self) -> None:
        self.router.start()  # the health monitor, owned router or not

    def _close_owned(self) -> None:
        if self._owns_router:
            self.router.close()

"""Stdlib-only HTTP/JSON front end for the tune service.

:class:`RemoteTuneServer` exposes an in-process
:class:`~repro.automl.server.AntTuneServer` over the versioned wire schema
of :mod:`repro.automl.remote.api`:

====================================  =========================================
``GET  /v1/health``                   liveness + protocol version
``GET  /v1/status``                   server-wide snapshot (jobs, backpressure)
``GET  /v1/metrics``                  Prometheus text exposition of every
                                      instrumented hot path
``POST /v1/jobs``                     submit (space/objective refs, priority,
                                      preempt, seed) -> ``{"job_id": n}``
``GET  /v1/jobs``                     status snapshots of every job
``GET  /v1/jobs/{id}``                one job's status (incl. telemetry drops)
``GET  /v1/jobs/{id}/wait``           block (bounded) for the result
``POST /v1/jobs/{id}/cancel``         cancel a queued or running job
``GET  /v1/jobs/{id}/events``         NDJSON event stream, resumable via
                                      ``?last_seq=N``
``POST /v1/resume``                   resume a stored study as a new job
====================================  =========================================

The endpoint logic lives in :class:`_TuneApp`, served by
:class:`~repro.automl.remote.edge.AsyncHTTPEdge`: one ``selectors`` event
loop multiplexing every socket.  Event streams are per-connection write
buffers fed by event-bus callbacks (frames batched per loop flush, each
frame the event's shared pre-serialised wire bytes), and ``/wait`` parks as
a terminal-event continuation instead of pinning a thread per waiter.  The
fleet router (:mod:`~repro.automl.remote.router`) serves through the same
front (:class:`_HTTPFront`), route table and edge hooks
(:class:`_EndpointApp`).

The event stream is the server-side half of ``subscribe()``: each line is one
:func:`~repro.automl.events.event_to_wire` payload carrying the job's
monotonic ``seq``.  Each stream is a cursor: the edge keeps the last seq it
wrote and reads the lines after it from the job's window, the bus history,
no further than the stream's own subscription has been delivered (the
durable log's is delivered first, so a stream never runs ahead of the log).
A cursor older than that history — a client reconnecting with
``last_seq=<highest seq it saw>``, a job evicted from the bus or finished
before a restart, a reader more than ``history_limit`` events behind —
reads the **durable event log** in write-buffer-sized chunks, then returns
to the history (see :mod:`repro.automl.eventlog`).  Without a log such a
reader skips to the history, and the skipped events count in
``anttune_event_queue_dropped_total``; that is the only way a stream loses
events.  Query parameters other than ``last_seq`` are ignored.  Blank
heartbeat lines are emitted while the stream idles so dead connections are
noticed and their resources released.

Constructed with ``recover=True`` (the CLI's ``serve --recover``), the
wrapper runs :meth:`AntTuneServer.recover
<repro.automl.server.AntTuneServer.recover>` **before** binding the port, so
interrupted jobs are auto-resumed or finalised before the first client
request can observe the restarted server — reconnecting SDKs never race the
reconciliation.

Observability: every request is timed into the
``anttune_http_request_seconds{method,endpoint}`` histogram and counted in
``anttune_http_requests_total{method,endpoint,status}`` (endpoint labels are
the route *templates* — ``/v1/jobs/{id}`` — never raw paths, keeping label
cardinality bounded).  Each request's ``X-Request-Id`` header (generated when
absent) is echoed back on the response and, on submit/resume, becomes the
job's trace id — the correlation id stamped on every event the job publishes,
so one id follows a request from HTTP ingress through the whole trial
lifecycle and across crash-recovered resumes.  The edge also exposes
``anttune_http_open_connections{kind}``, ``anttune_edge_flush_batch_size``
and ``anttune_edge_loop_lag_seconds``.

Failure handling: schema violations answer 4xx JSON error bodies
(:class:`~repro.automl.remote.api.ProtocolError` carries the status), unknown
jobs/studies answer 404, conflicts (duplicate study names) 409, and anything
unexpected 500 — a bad request never takes the server down.  A ``token``
enables bearer auth (401 without it); override :meth:`RemoteTuneServer.check_auth`
for anything fancier.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.automl import metrics as _metrics
from repro.automl.events import JobStateChanged, event_wire_bytes
from repro.automl.remote.api import (
    PROTOCOL_VERSION,
    ProtocolError,
    parse_resume,
    parse_submit,
)
from repro.automl.remote.edge import (
    AsyncHTTPEdge,
    Reply,
    _float_param,
    _int_param,
    _job_id_segment,
    json_reply,
)
from repro.automl.server import AntTuneServer, EventWindow
from repro.exceptions import TrialError
from repro.utils.rng import new_rng

__all__ = ["RemoteTuneServer"]

# How long a single /wait request may stay parked; clients poll.
MAX_WAIT_SECONDS = 60.0
# Idle heartbeat period on event streams (blank NDJSON line): detects dead
# connections and keeps read timeouts from firing on quiet jobs.
HEARTBEAT_SECONDS = 5.0
# Grace for a connected client that stopped *reading*: the edge's
# no-progress stall sweep disconnects it after this long.
STREAM_SEND_TIMEOUT = 30.0
# The Prometheus text exposition content type served by GET /v1/metrics.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _wait_payload(tune: AntTuneServer, job_id: int,
                  timeout: float) -> Dict[str, object]:
    """The ``/wait`` response body after blocking up to ``timeout`` seconds.

    Raises TrialError (propagated as 404) only for unknown job ids; a
    finished-but-failed job is a *successful* wait whose payload carries the
    error, and a still-running one answers ``{"done": false}``.
    """
    try:
        best = tune.wait(job_id, timeout=timeout)
    except TrialError as exc:
        status = tune.status(job_id)  # raises 404 for unknown ids
        if not status["finished"]:
            return {"done": False, "state": status["state"]}
        if status["state"] == "completed":
            # The terminal event publishes *before* the job's done-flag
            # flips, so a zero/short wait can lose that race while status
            # already reads finished; a short bounded re-wait bridges it.
            try:
                best = tune.wait(job_id, timeout=5.0)
            except TrialError as exc2:
                return {"done": True, "state": status["state"],
                        "error": status["error"] or str(exc2), "best": None}
            return {"done": True, "state": "completed", "error": None,
                    "best": best.as_record()}
        return {"done": True, "state": status["state"],
                "error": status["error"] or str(exc), "best": None}
    return {"done": True, "state": "completed", "error": None,
            "best": best.as_record()}


class _WaitParker:
    """A parked ``/wait``: the continuation the async edge completes.

    ``register`` subscribes the fire callback to the job's terminal event on
    the bus — an already-terminal job fires synchronously during
    registration (bus replay), so the park never misses a finish that raced
    the initial "not done yet" check.
    """

    def __init__(self, tune: AntTuneServer, job_id: int,
                 timeout: float) -> None:
        self._tune = tune
        self.job_id = job_id
        self.timeout_seconds = timeout
        self._sub = None

    def register(self, fire: Callable[[], None]) -> None:
        self._sub = self._tune.on_terminal(self.job_id, fire)

    def cancel(self) -> None:
        sub, self._sub = self._sub, None
        if sub is not None:
            sub.close()

    def terminal_payload(self) -> Dict[str, object]:
        # The terminal event publishes *before* the job's done-flag is set;
        # a short bounded wait bridges that ordering without busy-waiting.
        return _wait_payload(self._tune, self.job_id, 10.0)

    def timeout_payload(self) -> Dict[str, object]:
        return _wait_payload(self._tune, self.job_id, 0.0)


class _EndpointApp:
    """What the tune server's and the router's endpoint cores share.

    The edge hooks of the app protocol (see :mod:`repro.automl.remote.edge`),
    the one ``/v1`` route table and ``/wait`` argument parsing; a subclass
    adds the control, wait and stream handlers for its own service.
    ``remote`` is the :class:`_HTTPFront` serving the app.
    """

    def __init__(self, remote: "_HTTPFront") -> None:
        self.remote = remote

    # -- edge hooks ------------------------------------------------------ #
    def log(self, line: str) -> None:
        self.remote.log(line)

    def check_auth(self, token: Optional[str]) -> bool:
        return self.remote.check_auth(token)

    @property
    def heartbeat_seconds(self) -> float:
        return HEARTBEAT_SECONDS  # read per stream: the constant is tunable

    @property
    def stream_send_timeout(self) -> float:
        return STREAM_SEND_TIMEOUT

    # -- routing --------------------------------------------------------- #
    def classify(self, method: str, path: str):
        """``(kind, route_template, args)`` for a request path, or None.

        ``kind`` picks the edge treatment: ``control`` requests answer from
        a worker and return; ``wait`` may park; ``events`` becomes a stream.
        The template doubles as the ``endpoint`` metric label, so per-route
        series never explode in cardinality with job ids.
        """
        parts = [p for p in path.split("/") if p]
        if not parts or parts[0] != "v1":
            return None
        parts = parts[1:]
        if method == "GET":
            if parts == ["health"]:
                return ("control", "/v1/health", None)
            if parts == ["status"]:
                return ("control", "/v1/status", None)
            if parts == ["metrics"]:
                return ("control", "/v1/metrics", None)
            if parts == ["jobs"]:
                return ("control", "/v1/jobs", None)
            if len(parts) == 2 and parts[0] == "jobs":
                return ("control", "/v1/jobs/{id}", parts[1])
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "wait":
                return ("wait", "/v1/jobs/{id}/wait", parts[1])
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
                return ("events", "/v1/jobs/{id}/events", parts[1])
        elif method == "POST":
            if parts == ["jobs"]:
                return ("control", "/v1/jobs", None)
            if parts == ["resume"]:
                return ("control", "/v1/resume", None)
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                return ("control", "/v1/jobs/{id}/cancel", parts[1])
            if parts == ["tickets", "claim"]:
                return ("control", "/v1/tickets/claim", None)
            if (len(parts) == 3 and parts[0] == "tickets"
                    and parts[2] in ("report", "heartbeat", "complete")):
                return ("control", f"/v1/tickets/{{id}}/{parts[2]}",
                        (parts[1], parts[2]))
        return None

    # -- wait ------------------------------------------------------------ #
    def _wait_args(self, args: object,
                   params: Dict[str, str]) -> Tuple[int, float]:
        job_id = _job_id_segment(args)
        timeout = min(_float_param(params, "timeout", 10.0), MAX_WAIT_SECONDS)
        return job_id, max(0.0, timeout)


class _TuneApp(_EndpointApp):
    """The tune service's endpoint core, over an in-process AntTuneServer.

    Serves the whole ``/v1`` route table, the pull-worker ticket surface
    included.
    """

    # -- control --------------------------------------------------------- #
    def handle_control(self, method: str, template: str, args: object,
                       params: Dict[str, str],
                       read_body: Callable[[], object],
                       request_id: Optional[str]) -> Reply:
        tune = self.remote.tune_server
        if template == "/v1/health":
            return json_reply(200, {"ok": True, "protocol": PROTOCOL_VERSION})
        if template == "/v1/status":
            payload = tune.server_status()
            payload["protocol"] = PROTOCOL_VERSION
            return json_reply(200, payload)
        if template == "/v1/metrics":
            return Reply(200, _metrics.REGISTRY.render().encode("utf-8"),
                         METRICS_CONTENT_TYPE)
        if template == "/v1/jobs" and method == "GET":
            return json_reply(200, {"jobs": tune.jobs()})
        if template == "/v1/jobs":  # POST: submit
            kwargs = parse_submit(read_body())
            seed = kwargs.pop("seed", None)
            if seed is not None:
                kwargs["rng"] = new_rng(seed)
            # The request's correlation id becomes the job's trace id: every
            # event the job publishes carries it, end to end.
            job_id = tune.submit(trace_id=request_id, **kwargs)
            return json_reply(200, {"job_id": job_id, "trace_id": request_id,
                                    "protocol": PROTOCOL_VERSION})
        if template == "/v1/resume":
            kwargs = parse_resume(read_body())
            job_id = tune.resume(trace_id=request_id, **kwargs)
            return json_reply(200, {"job_id": job_id, "trace_id": request_id,
                                    "protocol": PROTOCOL_VERSION})
        if template == "/v1/jobs/{id}":
            return json_reply(200, tune.status(_job_id_segment(args)))
        if template == "/v1/jobs/{id}/cancel":
            job_id = _job_id_segment(args)
            return json_reply(200, {"job_id": job_id,
                                    "cancelled": tune.cancel(job_id)})
        if template == "/v1/tickets/claim":
            return self._ticket_claim(read_body())
        if template.startswith("/v1/tickets/"):
            segment, action = args
            return self._ticket(segment, action, read_body())
        raise ProtocolError(f"no such endpoint: {method} {template}",
                            status=404)  # pragma: no cover - classify gates

    # -- ticket surface (pull workers; backend="ticket" only) ------------ #
    def _ticket_claim(self, body: object) -> Reply:
        """Lease the oldest open trial ticket to the calling worker.

        Answers ``{"ticket": null}`` when the board is idle — an idle
        board is a poll outcome, not an error, so workers can spin on a
        single status code.
        """
        if not isinstance(body, dict):
            raise ProtocolError("claim body must be a JSON object")
        worker = body.get("worker")
        if worker is not None and not isinstance(worker, str):
            raise ProtocolError("'worker' must be a string")
        board = self.remote.tune_server.ticket_board()
        return json_reply(200, {"ticket": board.claim(worker=worker),
                                "protocol": PROTOCOL_VERSION})

    def _ticket(self, segment: str, action: str, body: object) -> Reply:
        """``report``/``heartbeat``/``complete`` against a leased ticket.

        Every answer carries ``kill`` (a kill reason or null) so the
        worker observes cancellation/pruning/preemption at its next call —
        the same cooperative-kill contract the shared-memory flag table
        gives process workers.  Stale-lease calls get the 404/409 the
        board raises: the worker drops the attempt; the config already
        requeued server-side.
        """
        if not segment.isdigit():
            raise ProtocolError(
                f"ticket id must be an integer, got {segment!r}", status=404)
        ticket_id = int(segment)
        if not isinstance(body, dict):
            raise ProtocolError("ticket body must be a JSON object")
        token = body.get("token")
        if not isinstance(token, str) or not token:
            raise ProtocolError("'token' (the lease token) is required")
        board = self.remote.tune_server.ticket_board()
        if action == "report":
            step, value = body.get("step"), body.get("value")
            if not isinstance(step, int) or isinstance(step, bool) or step < 0:
                raise ProtocolError("'step' must be a non-negative integer")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ProtocolError("'value' must be a number")
            kill = board.report(ticket_id, token, step, float(value))
        elif action == "heartbeat":
            kill = board.heartbeat(ticket_id, token)
        else:  # complete
            record = body.get("record")
            if not isinstance(record, dict):
                raise ProtocolError("'record' (the trial record) is required")
            required = ("state", "value", "error", "duration_seconds",
                        "intermediate_values")
            missing = [key for key in required if key not in record]
            if missing:
                raise ProtocolError(
                    f"trial record is missing keys: {', '.join(missing)}")
            board.complete(ticket_id, token, record)
            kill = None
        return json_reply(200, {"ok": True, "kill": kill})

    # -- wait ------------------------------------------------------------ #
    def wait_begin(self, args: object, params: Dict[str, str],
                   request_id: Optional[str]):
        """``/wait``: answer now, or park a continuation.

        A job that is already done (or a zero timeout) answers immediately;
        otherwise no thread blocks — the edge holds the connection and the
        job's terminal bus event (or a loop timer) completes it.
        """
        job_id, timeout = self._wait_args(args, params)
        payload = _wait_payload(self.remote.tune_server, job_id, 0.0)
        if payload["done"] or timeout <= 0.0:
            return ("reply", payload)
        return ("park", _WaitParker(self.remote.tune_server, job_id, timeout))

    # -- event streams --------------------------------------------------- #
    def stream_begin(self, args: object, params: Dict[str, str],
                     request_id: Optional[str], sink) -> None:
        """``/events``: a cursor over one job's window, from ``last_seq``."""
        job_id = _job_id_segment(args)
        last_seq = _int_param(params, "last_seq", -1)
        window = self.remote.tune_server.open_event_stream(job_id,
                                                           wake=sink.wake)
        sink.on_close(window.close)
        sink.start(_TuneFeed(window), last_seq)


class _TuneFeed:
    """A tune-server stream's frames: its :class:`EventWindow` as wire lines.

    Each frame is the event's shared wire bytes
    (:func:`~repro.automl.events.event_wire_bytes`): serialised once, reused
    by every stream and the event log.
    """

    def __init__(self, window: EventWindow) -> None:
        self._window = window

    def read(self, after_seq: int, max_bytes: int):
        """The history's frames after the cursor; None to read the log."""
        window = self._window
        events = window.recent(after_seq)
        if events is None:
            if window.log is not None:
                return None
            after_seq = window.skip(after_seq)
            events = window.recent(after_seq) or []
        return self._frames(events, after_seq, max_bytes)

    def backlog(self, after_seq: int, max_bytes: int):
        """One chunk of the durable log after the cursor."""
        window = self._window
        # Read before the log: every seq up to it is in the log by now.
        seen = window.seen
        frames, cursor, end = self._frames(window.logged(after_seq),
                                           after_seq, max_bytes)
        if not frames and not end:
            if not window.live:
                end = True  # a log-only job: the log was the whole story
            elif cursor < seen:
                cursor = window.skip(cursor)  # lost from the log as well
            # else the next event is not logged yet: its delivery wakes us
        return frames, cursor, end

    def _frames(self, events, cursor: int, max_bytes: int):
        frames: List[bytes] = []
        size = 0
        end = False
        for event in events:
            if event.seq > cursor + 1:
                # A hole in the log (compacted or torn): counted, like a skip.
                self._window.dropped(event.seq - cursor - 1)
            data = event_wire_bytes(event)
            frames.append(data)
            size += len(data)
            cursor = event.seq
            if isinstance(event, JobStateChanged) and event.terminal:
                end = True
                break
            if size >= max_bytes:
                break
        final = self._window.final
        if final is not None and cursor >= final:
            end = True  # the client already has the terminal event
        return frames, cursor, end


class _HTTPFront:
    """One HTTP/JSON front: an :class:`AsyncHTTPEdge` serving an app.

    Binds at construction, serves from :meth:`start` (background thread) or
    :meth:`serve_forever` (calling thread) and closes in :meth:`stop`.  A
    subclass builds or adopts the service behind it, then calls this
    constructor with its app; it overrides :meth:`_start_service` and
    :meth:`_close_owned` to start that service before serving and to close
    it — when it built it — on stop or on a failed bind.
    """

    def __init__(self, app: _EndpointApp, address: Tuple[str, int],
                 token: Optional[str], log: Optional[Callable[[str], None]],
                 name: str, **edge_kwargs: int) -> None:
        self.token = token
        self._log = log
        try:
            self._edge = AsyncHTTPEdge(address, app, name=name, **edge_kwargs)
        except OSError:
            # Bind failure (port in use, bad host): whatever this front
            # built must not leak its threads or pool.
            self._close_owned()
            raise

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        return self._edge.address

    @property
    def url(self) -> str:
        """Base URL clients connect to (e.g. ``http://127.0.0.1:8123``)."""
        host, port = self.address
        return f"http://{host}:{port}"

    def log(self, line: str) -> None:
        """Request-log hook; default drops the line (override or pass log=)."""
        if self._log is not None:
            self._log(line)

    def check_auth(self, token: Optional[str]) -> bool:
        """Whether a request presenting ``token`` may proceed.

        The default accepts everything when the server has no token, and
        requires an exact bearer match otherwise.  Override for custom
        schemes (keys per client, allow-lists, ...).
        """
        if self.token is None:
            return True
        return token == self.token

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _start_service(self) -> None:
        """Start the service behind the front before serving (default: none)."""

    def _close_owned(self) -> None:
        """Close the service behind the front if this front built it."""
        raise NotImplementedError

    def start(self) -> "_HTTPFront":
        """Serve in a background thread and return self (idempotent)."""
        self._start_service()
        self._edge.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI ``serve``/``route`` mode)."""
        self._start_service()
        self._edge.serve_forever()

    def stop(self) -> None:
        """Stop accepting requests; close the service when owned here."""
        self._edge.stop()
        self._close_owned()

    def __enter__(self) -> "_HTTPFront":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class RemoteTuneServer(_HTTPFront):
    """Serve an :class:`AntTuneServer` over HTTP/JSON on a loopback (or any) port.

    Args:
        tune_server: the in-process server to expose; constructed from
            ``server_kwargs`` when omitted (and then owned — shut down with
            the HTTP layer).
        host: bind address (default loopback).
        port: bind port; 0 picks a free one (see :attr:`address`).
        token: when set, every request must carry
            ``Authorization: Bearer <token>`` (else 401).  Override
            :meth:`check_auth` for custom schemes.
        log: optional callable receiving one line per handled request.
        recover: run :meth:`AntTuneServer.recover
            <repro.automl.server.AntTuneServer.recover>` before binding the
            port — interrupted jobs are auto-resumed or finalised before any
            client can connect; the summary lands in :attr:`recovery`.
            Requires file-backed storage.
        edge_workers: bounded worker pool for control handlers (stream
            backlog reads run on one thread of their own).
        write_buffer_limit: per-connection cap (bytes) on buffered unsent
            output before backpressure engages.
        **server_kwargs: forwarded to :class:`AntTuneServer` when
            ``tune_server`` is omitted (``num_workers=``, ``storage=``, ...).

    Use as a context manager, or call :meth:`start` / :meth:`stop`::

        with RemoteTuneServer(num_workers=2) as remote:
            client = AntTuneClient(remote.url)
            ...
    """

    def __init__(self, tune_server: Optional[AntTuneServer] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 token: Optional[str] = None,
                 log: Optional[Callable[[str], None]] = None,
                 recover: bool = False,
                 edge_workers: int = 8,
                 write_buffer_limit: int = 256 * 1024,
                 **server_kwargs: object) -> None:
        self._owns_tune_server = tune_server is None
        self.tune_server = (tune_server if tune_server is not None
                            else AntTuneServer(**server_kwargs))  # type: ignore[arg-type]
        #: recover()'s summary when constructed with ``recover=True``.
        self.recovery: Optional[Dict[str, object]] = None
        if recover:
            # Reconcile *before* the socket exists: a reconnecting client is
            # held in the kernel backlog (or connection-refused and retried
            # by the SDK) rather than observing half-recovered state.
            try:
                self.recovery = self.tune_server.recover()
            except Exception:
                self._close_owned()
                raise
        super().__init__(_TuneApp(self), (host, port), token, log,
                         name="anttune-edge", workers=edge_workers,
                         write_buffer_limit=write_buffer_limit)

    def _close_owned(self) -> None:
        if self._owns_tune_server:
            self.tune_server.shutdown()

    def stop(self, shutdown_tune_server: Optional[bool] = None) -> None:
        """Stop accepting requests; optionally shut the tune server down.

        Args:
            shutdown_tune_server: defaults to whether this wrapper
                constructed (and so owns) the in-process server.
        """
        if shutdown_tune_server is not None:
            self._owns_tune_server = shutdown_tune_server
        super().stop()

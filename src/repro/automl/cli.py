"""Command-line interface for the tune service: local studies and live servers.

The tune service persists its studies into a SQLite file
(:class:`~repro.automl.storage.StudyStorage`); this module is the operator's
view onto that file — and, with ``--server URL``, onto a *live*
:class:`~repro.automl.remote.http_server.RemoteTuneServer`::

    python -m repro.automl.cli --db anttune.db list
    python -m repro.automl.cli --db anttune.db show my-study
    python -m repro.automl.cli --db anttune.db resume my-study \
        --space mypkg.search:SPACE --objective mypkg.search:objective
    python -m repro.automl.cli --db anttune.db delete my-study --yes
    python -m repro.automl.cli --db anttune.db gc --max-age-days 30 --dry-run

    # the service itself
    python -m repro.automl.cli --db anttune.db serve --port 8123
    python -m repro.automl.cli --db anttune.db serve --port 8123 --recover
    python -m repro.automl.cli --db anttune.db log
    python -m repro.automl.cli --db anttune.db log 3 --after-seq 17
    python -m repro.automl.cli --db anttune.db metrics
    python -m repro.automl.cli metrics --server http://127.0.0.1:8123
    python -m repro.automl.cli metrics --server http://127.0.0.1:8123 \
        --watch 1 --count 5
    python -m repro.automl.cli list --server http://127.0.0.1:8123
    python -m repro.automl.cli show 3 --server http://127.0.0.1:8123
    python -m repro.automl.cli resume my-study --server http://127.0.0.1:8123 \
        --space mypkg.search:SPACE --objective mypkg.search:objective
    python -m repro.automl.cli cancel 3 --server http://127.0.0.1:8123

    # the fleet tier: a router in front of many servers, pull workers behind
    python -m repro.automl.cli route --port 8123 \
        --backend http://127.0.0.1:8124 --backend http://127.0.0.1:8125
    python -m repro.automl.cli work http://127.0.0.1:8124 http://127.0.0.1:8125

``list`` and ``show`` are read-only (WAL mode lets them run while a server
checkpoints into the same file).  ``resume`` re-runs a study's remaining
trial budget: because only *state* is persisted — never code — the search
space and objective are imported from ``module:attribute`` references the
caller provides.  ``delete`` drops a study and its trial rows after a
confirmation prompt (``--yes`` skips it).  ``gc`` bulk-deletes terminal
studies older than ``--max-age-days`` (``--dry-run`` previews, ``--states``
narrows the statuses, ``--yes`` skips the prompt).

``serve`` starts the HTTP front end on this machine's storage file; with
``--recover`` it first reconciles the durable event log against storage —
auto-resuming or finalising jobs a previous process left RUNNING — before
binding the port (the restart drill in ``docs/operations.md``).  ``log``
inspects that event log directly: without arguments it tables every logged
job, with a job id it prints the job's events as NDJSON (one
``event_to_wire`` payload per line, ``--after-seq`` to start mid-stream) —
the exact bytes the ``/v1/jobs/{id}/events`` stream would serve.

``metrics`` prints service metrics: with ``--server`` the live server's
``/v1/metrics`` Prometheus text exposition verbatim (every instrumented hot
path — trial-loop passes, ask/tell latency, trial timings, event-log fsyncs,
HTTP routes); without it a storage-side snapshot derived from the local
``--db`` file and its event log (study/trial counts, logged seq high-water)
in the same exposition syntax.  ``--watch SECONDS`` re-renders on an
interval (``--count`` bounds the renders), making a poor-man's dashboard:
``watch -n1`` without leaving the CLI.

With ``--server URL`` the ``resume``/``list``/``show``/``cancel`` commands
talk to a live server through the SDK client instead of touching any local
file: ``resume`` *submits* the continuation into the live server (sharing
its worker pool, fair-share governor and event bus) and streams the job's
event feed until it finishes — completing the story where the old
in-process resume ran outside the service.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.automl.storage import StudyStorage
from repro.exceptions import TrialError

__all__ = ["main", "build_parser"]


def _load_object(spec: str) -> object:
    """Import ``module:attribute`` (e.g. ``mypkg.search:objective``).

    Args:
        spec: dotted module path and attribute name joined by ``:``.

    Returns:
        The imported attribute.

    Raises:
        SystemExit: malformed spec, unimportable module or missing attribute
            (argparse-style exit code 2).
    """
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise SystemExit(f"error: expected 'module:attribute', got {spec!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SystemExit(f"error: cannot import module {module_name!r}: {exc}")
    try:
        return getattr(module, attr)
    except AttributeError:
        raise SystemExit(
            f"error: module {module_name!r} has no attribute {attr!r}")


def _format_row(values: Sequence[object], widths: Sequence[int]) -> str:
    return "  ".join(str(v).ljust(w) for v, w in zip(values, widths)).rstrip()


def _print_table(headers: List[str], rows: List[List[object]],
                 out: Callable[[str], None]) -> None:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
              else len(str(h)) for i, h in enumerate(headers)]
    out(_format_row(headers, widths))
    out(_format_row(["-" * w for w in widths], widths))
    for row in rows:
        out(_format_row(row, widths))


def _cmd_list(storage: StudyStorage, args: argparse.Namespace,
              out: Callable[[str], None]) -> int:
    studies = storage.list_studies()
    if not studies:
        out("no studies stored")
        return 0
    rows = [[s["name"], s["algorithm"], s["status"],
             s["num_trials"], s["completed"] or 0,
             "-" if s["best_value"] is None else f"{s['best_value']:.6g}",
             time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(s["updated_at"]))]
            for s in studies]
    _print_table(["name", "algorithm", "status", "trials", "completed",
                  "best", "updated"], rows, out)
    return 0


def _cmd_show(storage: StudyStorage, args: argparse.Namespace,
              out: Callable[[str], None]) -> int:
    payload = storage.load_payload(args.name)
    config = payload.get("config", {})
    trials = payload.get("trials", [])
    out(f"study:      {args.name}")
    out(f"algorithm:  {payload.get('algorithm')}")
    out(f"checkpoint: v{payload.get('version')}")
    out(f"budget:     {payload.get('budget_used')}/{config.get('n_trials')} slots used")
    out(f"maximize:   {config.get('maximize')}")
    out("")
    if not trials:
        out("no trials recorded")
        return 0
    rows = [[t["trial_id"], t["state"],
             "-" if t["value"] is None else f"{t['value']:.6g}",
             f"{t.get('duration_seconds', 0.0):.3f}s",
             len(t.get("intermediate_values", [])),
             t.get("worker") or "-"]
            for t in trials]
    _print_table(["trial", "state", "value", "duration", "reports", "worker"],
                 rows, out)
    return 0


def _cmd_resume(storage: StudyStorage, args: argparse.Namespace,
                out: Callable[[str], None]) -> int:
    space = _load_object(args.space)
    objective = _load_object(args.objective)
    algorithm = _load_object(args.algorithm) if args.algorithm else None
    if isinstance(algorithm, type) or (
            callable(algorithm) and not hasattr(algorithm, "ask")):
        algorithm = algorithm()  # a class/factory reference, not an instance
    study = storage.load_study(args.name, space, algorithm=algorithm)
    remaining = study.config.n_trials - study._resume_offset
    if remaining <= 0:
        out(f"study {args.name!r} has no remaining trial budget")
        storage.set_status(args.name, "completed")
        return 0
    out(f"resuming {args.name!r}: {remaining} of {study.config.n_trials} "
        f"trial slots left")
    checkpoint = lambda: storage.save_study(args.name, study, status="running")
    try:
        study.optimize(objective, n_workers=args.workers, backend=args.backend,
                       checkpoint_fn=checkpoint)
    except TrialError as exc:
        storage.save_study(args.name, study, status="failed")
        out(f"study failed: {exc}")
        return 1
    storage.save_study(args.name, study, status="completed")
    best = study.best_trial
    out(f"done: best value {best.value:.6g} from trial {best.trial_id} "
        f"with params {best.params}")
    return 0


def _cmd_delete(storage: StudyStorage, args: argparse.Namespace,
                out: Callable[[str], None]) -> int:
    if not args.yes:
        answer = input(f"delete study {args.name!r} and all its trials? [y/N] ")
        if answer.strip().lower() not in ("y", "yes"):
            out("aborted")
            return 1
    storage.delete_study(args.name)
    out(f"deleted {args.name!r}")
    return 0


def _cmd_gc(storage: StudyStorage, args: argparse.Namespace,
            out: Callable[[str], None]) -> int:
    states = ([s.strip() for s in args.states.split(",") if s.strip()]
              if args.states else None)
    try:
        candidates = storage.gc(max_age_days=args.max_age_days, states=states,
                                dry_run=True)
    except ValueError as exc:
        out(f"error: {exc}")
        return 2
    if not candidates:
        out("nothing to collect")
        return 0
    label = "would delete" if args.dry_run else "deleting"
    out(f"{label} {len(candidates)} study(ies):")
    for name in candidates:
        out(f"  {name}")
    if args.dry_run:
        return 0
    if not args.yes:
        answer = input(f"delete these {len(candidates)} study(ies) and all "
                       f"their trials? [y/N] ")
        if answer.strip().lower() not in ("y", "yes"):
            out("aborted")
            return 1
    # Delete at most the names the user saw (and confirmed), re-checked
    # against the age/status predicate in the same transaction: a study that
    # crossed the cutoff while the prompt waited is not collected, and one
    # that was resumed (running again) or deleted meanwhile is skipped.
    deleted = storage.gc(max_age_days=args.max_age_days, states=states,
                         names=candidates)
    out(f"deleted {len(deleted)} study(ies)")
    return 0


def _cmd_log(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Inspect the durable event log that lives next to the storage file.

    Without a job id: one table row per logged job (segments on disk, last
    seq, how the stream ended).  With a job id: the job's events as NDJSON —
    byte-identical to what ``GET /v1/jobs/{id}/events`` would replay, so the
    output pipes straight into ``jq`` or a file for later comparison.
    """
    import json

    from repro.automl.eventlog import EventLog
    from repro.automl.events import JobStateChanged, event_to_wire

    events_dir = args.db + ".events"
    try:
        log = EventLog(events_dir, create=False)
    except FileNotFoundError:
        out(f"error: no event log at {events_dir} (has this --db ever "
            f"served jobs?)")
        return 1
    if args.job is None:
        rows = []
        for job_id in log.jobs():
            meta = log.meta(job_id) or {}
            last = log.last_event(job_id)
            if isinstance(last, JobStateChanged) and last.terminal:
                ended = last.state
            elif last is None:
                ended = "(empty)"
            else:
                ended = "(open)"
            rows.append([job_id, meta.get("study_name", "-"),
                         len(log._segments(job_id)), log.last_seq(job_id),
                         ended])
        if not rows:
            out("no jobs logged")
            return 0
        _print_table(["job", "study", "segments", "last_seq", "ended"],
                     rows, out)
        return 0
    if not str(args.job).isdigit():
        out(f"error: job id must be an integer, got {args.job!r}")
        return 2
    job_id = int(args.job)
    if not log.has_job(job_id):
        out(f"error: job {job_id} is not in the event log")
        return 1
    printed = 0
    for event in log.read(job_id, after_seq=args.after_seq):
        out(json.dumps(event_to_wire(event), sort_keys=True))
        printed += 1
        if args.limit is not None and printed >= args.limit:
            break
    return 0


def _local_metrics_lines(args: argparse.Namespace,
                         out: Callable[[str], None]) -> int:
    """A storage-side metrics snapshot in Prometheus exposition syntax.

    Derived purely from the ``--db`` file and its event log directory — no
    live process involved, so there are no hot-path timings here (scrape a
    running server's ``/v1/metrics`` for those); what the disk *can* answer
    is study/trial accounting and the durable log's shape.
    """
    from repro.automl.eventlog import EventLog

    if args.db != ":memory:" and not Path(args.db).exists():
        out(f"error: no such database file: {args.db}")
        return 1
    out(f"# Storage-side snapshot of {args.db} (no live timings; scrape a "
        f"running server's /v1/metrics for those).")
    with StudyStorage(args.db) as storage:
        studies = storage.list_studies()
        status_counts: dict = {}
        trials = completed = 0
        for study in studies:
            status = study["status"]
            status_counts[status] = status_counts.get(status, 0) + 1
            trials += study["num_trials"] or 0
            completed += study["completed"] or 0
        out("# TYPE anttune_db_studies gauge")
        for status in sorted(status_counts):
            out(f'anttune_db_studies{{status="{status}"}} '
                f'{status_counts[status]}')
        out("# TYPE anttune_db_trials gauge")
        out(f"anttune_db_trials {trials}")
        out(f'anttune_db_trials{{state="completed"}} {completed}')
    events_dir = args.db + ".events"
    try:
        log = EventLog(events_dir, create=False)
    except FileNotFoundError:
        return 0  # this --db never served jobs; the storage lines stand alone
    job_ids = log.jobs()
    segments = sum(len(log._segments(job_id)) for job_id in job_ids)
    out("# TYPE anttune_eventlog_jobs gauge")
    out(f"anttune_eventlog_jobs {len(job_ids)}")
    out("# TYPE anttune_eventlog_segments gauge")
    out(f"anttune_eventlog_segments {segments}")
    out("# TYPE anttune_eventlog_last_seq gauge")
    for job_id in job_ids:
        out(f'anttune_eventlog_last_seq{{job="{job_id}"}} '
            f'{log.last_seq(job_id)}')
    return 0


def _cmd_metrics(args: argparse.Namespace,
                 out: Callable[[str], None]) -> int:
    """Render metrics once, or repeatedly with ``--watch`` (see module docs).

    In watch mode an unreachable ``--server`` (restarting, briefly
    partitioned) is survived: one warning line per outage, then the loop
    keeps polling and resumes rendering when the server returns.  One-shot
    mode still fails loudly.
    """
    remaining = args.count
    warned = False
    while True:
        if args.server:
            try:
                out(_remote_client(args).metrics().rstrip("\n"))
                warned = False
            except TrialError as exc:
                if args.watch is None:
                    raise  # one-shot: main() renders this as an error exit
                if not warned:
                    out(f"warning: cannot fetch metrics from {args.server} "
                        f"({exc}); retrying every {args.watch}s")
                    warned = True
        else:
            code = _local_metrics_lines(args, out)
            if code != 0:
                return code
        if args.watch is None:
            return 0
        if remaining is not None:
            remaining -= 1
            if remaining <= 0:
                return 0
        time.sleep(args.watch)
        out("")  # blank separator between refreshes


# --------------------------------------------------------------------------- #
# Server-mode commands (--server URL): talk to a live RemoteTuneServer
# --------------------------------------------------------------------------- #
def _cmd_serve(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Start the HTTP front end over this storage file (blocks until ^C)."""
    from repro.automl.remote.http_server import RemoteTuneServer

    if args.recover and args.db == ":memory:":
        out("error: --recover needs a file-backed --db (the durable event "
            "log lives next to it)")
        return 2
    if args.lease_seconds is not None and args.backend != "ticket":
        out("error: --lease-seconds only applies to --backend ticket")
        return 2
    remote = RemoteTuneServer(
        host=args.host, port=args.port, token=args.token,
        num_workers=args.workers, max_concurrent_jobs=args.max_jobs,
        backend=args.backend, scheduler=args.scheduler,
        lease_seconds=args.lease_seconds,
        storage=args.db if args.db != ":memory:" else None,
        recover=args.recover, edge_workers=args.edge_workers,
        write_buffer_limit=args.write_buffer)
    if remote.recovery is not None:
        summary = remote.recovery
        out(f"recovery: resumed={len(summary['resumed'])} "
            f"finalised={len(summary['finalised'])} "
            f"reconciled={len(summary['reconciled'])} "
            f"removed={len(summary['removed'])}")
        for entry in summary["resumed"]:
            out(f"  resumed job {entry['job_id']} "
                f"(study {entry['study_name']!r})")
        for entry in summary["finalised"]:
            out(f"  finalised job {entry['job_id']} as {entry['state']} "
                f"(study {entry['study_name']!r})")
    remote.start()
    out(f"serving AntTune on {remote.url} "
        f"(workers={args.workers}, backend={args.backend}, "
        f"storage={args.db if args.db != ':memory:' else 'off'})")
    try:
        if args.run_seconds is not None:
            time.sleep(args.run_seconds)
        else:  # pragma: no cover - interactive mode, exercised manually
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        out("shutting down")
    finally:
        remote.stop()
    return 0


def _cmd_route(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Serve the fleet router over HTTP in front of backend tune servers."""
    from repro.automl.remote.router import RemoteRouterServer

    if not args.backend:
        out("error: route needs at least one --backend URL")
        return 2
    remote = RemoteRouterServer(
        args.backend, host=args.host, port=args.port, token=args.token,
        replicas=args.replicas, health_interval=args.health_interval,
        health_timeout=args.health_timeout)
    remote.start()
    out(f"routing AntTune on {remote.url} across "
        f"{len(args.backend)} backend(s): {' '.join(args.backend)}")
    try:
        if args.run_seconds is not None:
            time.sleep(args.run_seconds)
        else:  # pragma: no cover - interactive mode, exercised manually
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        out("shutting down")
    finally:
        remote.stop()
    return 0


def _cmd_work(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Run a pull worker against one or more ``--backend ticket`` servers."""
    from repro.automl.remote.worker import TuneWorker

    worker = TuneWorker(args.servers, name=args.name, token=args.token,
                        poll_interval=args.poll_interval)
    out(f"worker {args.name!r} pulling tickets from {len(args.servers)} "
        f"server(s): {' '.join(args.servers)}")
    try:
        worker.run(run_seconds=args.run_seconds,
                   max_tickets=args.max_tickets)
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        worker.stop()
    out(f"worker {args.name!r} done: completed={worker.completed} "
        f"lost={worker.lost}")
    return 0


def _remote_client(args: argparse.Namespace):
    from repro.automl.remote.client import AntTuneClient

    return AntTuneClient(args.server, token=getattr(args, "token", None))


def _cmd_remote_list(args: argparse.Namespace,
                     out: Callable[[str], None]) -> int:
    jobs = _remote_client(args).jobs()
    if not jobs:
        out("no jobs on the server")
        return 0
    rows = [[j["job_id"], j["study_name"], j["state"], j["num_trials"],
             "-" if j["best_value"] is None else f"{j['best_value']:.6g}",
             j["priority"]]
            for j in jobs]
    _print_table(["job", "study", "state", "trials", "best", "priority"],
                 rows, out)
    return 0


def _remote_job_id(args: argparse.Namespace) -> int:
    if not str(args.name).isdigit():
        raise SystemExit(
            f"error: with --server, expected a numeric job id, got {args.name!r} "
            f"(use 'list --server ...' to find job ids)")
    return int(args.name)


def _cmd_remote_show(args: argparse.Namespace,
                     out: Callable[[str], None]) -> int:
    status = _remote_client(args).poll(_remote_job_id(args))
    out(f"job:        {status['job_id']}")
    out(f"study:      {status['study_name']}")
    out(f"state:      {status['state']}")
    out(f"trials:     {status['num_trials']} {status['states']}")
    best = status["best_value"]
    out("best:       " + ("-" if best is None else f"{best:.6g}"))
    out(f"priority:   {status['priority']}")
    if status["error"]:
        out(f"error:      {status['error']}")
    return 0


def _cmd_remote_cancel(args: argparse.Namespace,
                       out: Callable[[str], None]) -> int:
    job_id = _remote_job_id(args)
    if _remote_client(args).cancel(job_id):
        out(f"job {job_id} cancelled")
        return 0
    out(f"job {job_id} had already finished")
    return 1


def _cmd_remote_resume(args: argparse.Namespace,
                       out: Callable[[str], None]) -> int:
    """Submit a stored study's continuation into the live server and follow it."""
    client = _remote_client(args)
    job_id = client.resume(args.name, args.space, args.objective,
                           algorithm=args.algorithm,
                           priority=args.priority, preempt=args.preempt)
    out(f"resumed {args.name!r} as job {job_id} on {args.server}")
    if args.no_wait:
        return 0
    from repro.automl.events import JobStateChanged, TrialFinished

    for event in client.subscribe(job_id):
        if isinstance(event, TrialFinished):
            value = "-" if event.value is None else f"{event.value:.6g}"
            out(f"  trial {event.trial_id}: {event.state} value={value}")
        elif isinstance(event, JobStateChanged):
            out(f"  job {job_id}: {event.state}")
    status = client.poll(job_id)
    if status["state"] != "completed":
        out(f"job {job_id} finished {status['state']}"
            + (f": {status['error']}" if status["error"] else ""))
        return 1
    best = client.wait(job_id, timeout=30.0)
    out(f"done: best value {best.value:.6g} from trial {best.trial_id} "
        f"with params {best.params}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.automl.cli`` argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.automl.cli",
        description="Inspect and manage studies stored by the AntTune service.")
    parser.add_argument("--db", default="anttune.db",
                        help="path to the StudyStorage SQLite file "
                             "(default: %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_server_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--server", metavar="URL",
                       help="talk to a live tune server at this base URL "
                            "instead of the local --db file")
        p.add_argument("--token",
                       help="bearer token for --server (when it requires one)")

    lst = sub.add_parser(
        "list", help="summarise every stored study (or, with --server, "
                     "every job on a live server)")
    add_server_options(lst)

    show = sub.add_parser(
        "show", help="per-trial detail of one study (with --server: one "
                     "job's live status by job id)")
    show.add_argument("name", help="study name (or job id with --server)")
    add_server_options(show)

    resume = sub.add_parser(
        "resume", help="re-run a study's remaining trial budget (with "
                       "--server: submit the continuation into a live "
                       "server and stream its events)")
    resume.add_argument("name", help="study name")
    resume.add_argument("--space", required=True, metavar="MODULE:ATTR",
                        help="import path of the SearchSpace the study used")
    resume.add_argument("--objective", required=True, metavar="MODULE:ATTR",
                        help="import path of the objective callable")
    resume.add_argument("--algorithm", metavar="MODULE:ATTR",
                        help="import path of the algorithm instance/factory "
                             "(required when the study used a non-default one)")
    resume.add_argument("--workers", type=int, default=1,
                        help="worker pool size (default: %(default)s; "
                             "local mode only)")
    resume.add_argument("--backend", default="auto",
                        choices=("auto", "sync", "thread", "process"),
                        help="executor backend (default: %(default)s; "
                             "local mode only)")
    resume.add_argument("--priority", type=float, default=1.0,
                        help="fair-share weight on the server "
                             "(default: %(default)s; --server only)")
    resume.add_argument("--preempt", action="store_true",
                        help="claim the fair share immediately on start "
                             "(--server only)")
    resume.add_argument("--no-wait", action="store_true",
                        help="print the job id and return instead of "
                             "streaming events (--server only)")
    add_server_options(resume)

    cancel = sub.add_parser(
        "cancel", help="cancel a queued or running job on a live server "
                       "(requires --server)")
    cancel.add_argument("name", help="job id")
    add_server_options(cancel)

    # No prefix matching: `--edge X` must be refused as unknown, not parsed
    # as --edge-workers.
    serve = sub.add_parser(
        "serve", help="serve the tune service over HTTP on this --db file",
        allow_abbrev=False)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8123,
                       help="bind port; 0 picks a free one "
                            "(default: %(default)s)")
    serve.add_argument("--workers", type=int, default=4,
                       help="shared trial worker pool size "
                            "(default: %(default)s)")
    serve.add_argument("--max-jobs", type=int, default=2,
                       help="jobs advancing concurrently "
                            "(default: %(default)s)")
    serve.add_argument("--backend", default="auto",
                       choices=("auto", "sync", "thread", "process",
                                "ticket"),
                       help="executor backend; 'ticket' publishes trials on "
                            "a board for pull workers ('work' command) "
                            "instead of running them locally "
                            "(default: %(default)s)")
    serve.add_argument("--lease-seconds", type=float, default=None,
                       help="ticket lease duration before an unheard-from "
                            "worker's trial is requeued "
                            "(--backend ticket only; default: 15)")
    serve.add_argument("--scheduler", default=None,
                       choices=("round", "async"),
                       help="trial scheduling discipline "
                            "(default: round)")
    serve.add_argument("--token", default=None,
                       help="require 'Authorization: Bearer <token>' on "
                            "every request")
    serve.add_argument("--run-seconds", type=float, default=None,
                       help="serve for this long then exit "
                            "(default: until interrupted; mainly for tests)")
    serve.add_argument("--recover", action="store_true",
                       help="before serving, reconcile the durable event log "
                            "with storage: auto-resume or finalise jobs a "
                            "previous process left RUNNING")
    serve.add_argument("--edge-workers", type=int, default=8,
                       help="bounded worker pool for control handlers "
                            "(default: %(default)s)")
    serve.add_argument("--write-buffer", type=int, default=256 * 1024,
                       help="per-connection cap in bytes on buffered unsent "
                            "output before backpressure engages "
                            "(default: %(default)s)")

    route = sub.add_parser(
        "route", help="serve a fleet router: fan submits across backend "
                      "tune servers, heal their streams, migrate jobs off "
                      "dead backends")
    route.add_argument("--backend", action="append", metavar="URL",
                       help="a backend tune server's base URL (repeat for "
                            "each backend; at least one required)")
    route.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    route.add_argument("--port", type=int, default=8123,
                       help="bind port; 0 picks a free one "
                            "(default: %(default)s)")
    route.add_argument("--token", default=None,
                       help="bearer token required of clients and forwarded "
                            "to every backend (a fleet shares one token)")
    route.add_argument("--replicas", type=int, default=64,
                       help="virtual points per backend on the placement "
                            "ring (default: %(default)s)")
    route.add_argument("--health-interval", type=float, default=0.5,
                       help="seconds between backend health sweeps "
                            "(default: %(default)s)")
    route.add_argument("--health-timeout", type=float, default=2.0,
                       help="per-probe timeout before a sweep counts a "
                            "failure (default: %(default)s)")
    route.add_argument("--run-seconds", type=float, default=None,
                       help="route for this long then exit "
                            "(default: until interrupted; mainly for tests)")

    work = sub.add_parser(
        "work", help="run a pull worker: claim trial tickets from "
                     "'serve --backend ticket' servers and execute them here")
    work.add_argument("servers", nargs="+", metavar="URL",
                      help="base URLs of the tune servers to poll "
                           "(round-robin)")
    work.add_argument("--name", default="pull-worker",
                      help="worker label stamped into claimed trials "
                           "(default: %(default)s)")
    work.add_argument("--token", default=None,
                      help="bearer token shared with the servers")
    work.add_argument("--poll-interval", type=float, default=0.2,
                      help="sleep between claim sweeps that found no work "
                           "(default: %(default)s)")
    work.add_argument("--run-seconds", type=float, default=None,
                      help="work for this long then exit "
                           "(default: until interrupted)")
    work.add_argument("--max-tickets", type=int, default=None,
                      help="exit after completing this many tickets "
                           "(default: unbounded)")

    metrics_cmd = sub.add_parser(
        "metrics", help="print service metrics: a live server's Prometheus "
                        "/v1/metrics exposition (--server), or a "
                        "storage-side snapshot of the local --db")
    metrics_cmd.add_argument("--watch", type=float, default=None,
                             metavar="SECONDS",
                             help="re-render every SECONDS (default: print "
                                  "once and exit)")
    metrics_cmd.add_argument("--count", type=int, default=None,
                             help="with --watch, stop after this many "
                                  "renders (default: until interrupted)")
    add_server_options(metrics_cmd)

    log_cmd = sub.add_parser(
        "log", help="inspect the durable event log next to --db "
                    "(<db>.events): list logged jobs, or dump one job's "
                    "events as NDJSON")
    log_cmd.add_argument("job", nargs="?", default=None,
                         help="job id to dump; omitted lists every logged job")
    log_cmd.add_argument("--after-seq", type=int, default=-1,
                         help="dump only events with seq greater than this "
                              "(default: the whole log)")
    log_cmd.add_argument("--limit", type=int, default=None,
                         help="stop after this many events")

    delete = sub.add_parser("delete", help="drop a study and its trial rows")
    delete.add_argument("name", help="study name")
    delete.add_argument("--yes", action="store_true",
                        help="skip the confirmation prompt")

    gc = sub.add_parser(
        "gc", help="bulk-delete old terminal studies (and their trials)")
    gc.add_argument("--max-age-days", type=float, default=30.0,
                    help="collect studies not updated for this many days "
                         "(default: %(default)s; 0 collects regardless of age)")
    gc.add_argument("--states", metavar="S1,S2,...",
                    help="comma-separated statuses eligible for collection "
                         "(default: completed,failed,cancelled)")
    gc.add_argument("--dry-run", action="store_true",
                    help="only report what would be deleted")
    gc.add_argument("--yes", action="store_true",
                    help="skip the confirmation prompt")
    return parser


def main(argv: Optional[Sequence[str]] = None,
         out: Callable[[str], None] = print) -> int:
    """CLI entry point.

    Args:
        argv: argument list (defaults to ``sys.argv[1:]``).
        out: line sink, injectable for tests.

    Returns:
        Process exit code (0 on success).
    """
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        # serve creates the storage file if missing (a fresh service).
        return _cmd_serve(args, out)
    if args.command == "route":
        return _cmd_route(args, out)
    if args.command == "work":
        return _cmd_work(args, out)
    if args.command == "log":
        # log reads the events directory next to --db, not the db itself.
        return _cmd_log(args, out)
    if args.command == "metrics":
        try:
            return _cmd_metrics(args, out)
        except KeyboardInterrupt:  # pragma: no cover - interactive --watch
            return 0
        except TrialError as exc:
            out(f"error: {exc}")
            return 1
    if getattr(args, "server", None):
        remote_commands = {"list": _cmd_remote_list, "show": _cmd_remote_show,
                           "resume": _cmd_remote_resume,
                           "cancel": _cmd_remote_cancel}
        try:
            return remote_commands[args.command](args, out)
        except TrialError as exc:
            out(f"error: {exc}")
            return 1
        except ValueError as exc:  # the server rejected the request shape
            out(f"error: {exc}")
            return 2
    if args.command == "cancel":
        out("error: cancel needs --server URL; jobs live on a running "
            "tune server, not in the storage file")
        return 2
    commands = {"list": _cmd_list, "show": _cmd_show,
                "resume": _cmd_resume, "delete": _cmd_delete, "gc": _cmd_gc}
    if args.db != ":memory:" and not Path(args.db).exists():
        # Opening a mistyped path would silently create an empty database
        # and report "no studies stored" — error out instead.
        out(f"error: no such database file: {args.db}")
        return 1
    with StudyStorage(args.db) as storage:
        try:
            return commands[args.command](storage, args, out)
        except TrialError as exc:
            out(f"error: {exc}")
            return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

"""Remote tune service: HTTP/JSON wire layer over :class:`AntTuneServer`.

The event-driven control plane (PR 4) publishes every job's lifecycle as one
ordered stream; this package puts that substrate on the network:

* :mod:`repro.automl.remote.api` — the versioned JSON wire schema: request
  validation, event serialisation (via :func:`repro.automl.events.event_to_wire`),
  ``module:attr`` code references and typed protocol errors.
* :mod:`repro.automl.remote.http_server` — :class:`RemoteTuneServer`, a
  stdlib-only HTTP server wrapping an in-process
  :class:`~repro.automl.server.AntTuneServer`: submit/resume/status/wait/
  cancel/list endpoints plus a resumable NDJSON event stream per job.
* :mod:`repro.automl.remote.edge` — :class:`AsyncHTTPEdge`, the one
  ``selectors`` event loop that serves every socket of the tune server and
  the router.
* :mod:`repro.automl.remote.client` — :class:`AntTuneClient`, the SDK-side
  mirror of the in-process API (``submit``/``poll``/``wait``/``cancel``/
  ``subscribe``) speaking the wire schema, with reconnect-and-replay on
  dropped event streams.

The fleet tier (PR 8) scales one server out to many:

* :mod:`repro.automl.remote.router` — :class:`TuneRouter` /
  :class:`RemoteRouterServer`, a front tier fanning submits across backends
  by consistent hashing (:class:`HashRing`), journalling each job's stream
  gaplessly and migrating jobs off dead backends under the original job and
  trace ids.
* :mod:`repro.automl.remote.tickets` — :class:`TicketTrialExecutor`
  (``backend="ticket"``), a trial board leasing work to remote agents with
  heartbeats and deadlines; a lost lease requeues the config uncharged.
* :mod:`repro.automl.remote.worker` — :class:`TuneWorker`, the pull-based
  agent claiming tickets over HTTP and streaming reports back.
"""

from repro.automl.remote.api import (
    PROTOCOL_VERSION,
    ProtocolError,
    load_ref,
    parse_config,
    parse_submit,
    trial_from_record,
)
from repro.automl.remote.client import AntTuneClient
from repro.automl.remote.http_server import RemoteTuneServer
from repro.automl.remote.router import (
    HashRing,
    RemoteRouterServer,
    TuneRouter,
)
from repro.automl.remote.tickets import TicketTrialExecutor
from repro.automl.remote.worker import TuneWorker

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "load_ref",
    "parse_config",
    "parse_submit",
    "trial_from_record",
    "AntTuneClient",
    "RemoteTuneServer",
    "HashRing",
    "RemoteRouterServer",
    "TuneRouter",
    "TicketTrialExecutor",
    "TuneWorker",
]

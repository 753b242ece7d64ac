"""The versioned JSON wire schema of the remote tune service.

Everything that crosses the network is defined here, shared by the server
(:mod:`repro.automl.remote.http_server`) and the SDK client
(:mod:`repro.automl.remote.client`):

* **Code references.**  Only *state* crosses the wire, never code: search
  spaces, objectives, algorithms and pruners travel as ``module:attr``
  references (the convention the CLI ``resume`` command established) and are
  imported server-side by :func:`load_ref`.
* **Requests.**  :func:`parse_submit` / :func:`parse_resume` validate a
  submit/resume body and resolve it into the keyword arguments of
  :meth:`~repro.automl.server.AntTuneServer.submit` /
  :meth:`~repro.automl.server.AntTuneServer.resume` — including
  ``priority``, ``preempt`` and a client-supplied ``seed``.
* **Events.**  The event stream serialises with
  :func:`repro.automl.events.event_to_wire` and reconstructs with
  :func:`~repro.automl.events.event_from_wire`; one event per NDJSON line,
  each carrying its per-job monotonic ``seq`` so a client can resume a
  dropped stream with ``last_seq``.
* **Errors.**  :class:`ProtocolError` carries the HTTP status a malformed or
  unauthorised request maps to; the server converts it to a JSON error body
  instead of crashing the connection handler.

``PROTOCOL_VERSION`` names the schema generation.  A server rejects requests
that declare a *newer* protocol than it speaks; requests without a version
field are treated as current (curl-friendliness beats strictness here).

Error taxonomy
--------------

Every failure a request can hit maps to exactly one of these classes, and
each class to one HTTP status range:

* **Schema violations** — malformed body, unknown config keys, bad
  reference strings, protocol mismatch: :class:`ProtocolError`, answered
  ``400`` (or the status the error carries: ``413`` oversized body,
  ``401``-style statuses come from the auth layer, not from here).
* **Unknown resources** — a job id or study name the server has never seen
  (including after a restart *without* ``--recover``):
  :class:`~repro.exceptions.TrialError` whose message starts with
  ``unknown``, answered ``404``.
* **Conflicts** — a valid request the current state refuses, e.g. a submit
  reusing an active study name: any other
  :class:`~repro.exceptions.TrialError`, answered ``409``.
* **Server faults** — anything else, answered ``500``; the handler thread
  survives and the JSON error body carries the exception class and message.

Code references double as the **crash-recovery contract**: because
submit/resume bodies name code rather than shipping it, the server can
persist the raw reference strings in its durable event log
(``refs`` in the parsed kwargs) and re-import them on
:meth:`~repro.automl.server.AntTuneServer.recover` to auto-resume jobs a
crash interrupted.
"""

from __future__ import annotations

import importlib
from dataclasses import fields as dataclass_fields
from typing import Dict, Optional

from repro.automl.study import StudyConfig
from repro.automl.trial import Trial, TrialState

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "load_ref",
    "instantiate_ref",
    "parse_config",
    "parse_submit",
    "parse_resume",
    "trial_from_record",
]

#: Wire-schema generation; bump on incompatible changes to request/response
#: shapes or the event serialisation.
PROTOCOL_VERSION = 1

_CONFIG_FIELDS = {f.name for f in dataclass_fields(StudyConfig)}


class ProtocolError(ValueError):
    """A request that violates the wire schema (maps to a 4xx response).

    Attributes:
        status: the HTTP status code the server answers with (default 400).
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = int(status)


def load_ref(spec: object, kind: str = "object") -> object:
    """Import a ``module:attr`` code reference (e.g. ``mypkg.search:SPACE``).

    Args:
        spec: the reference string from the request body.
        kind: what the reference names, for error messages.

    Returns:
        The imported attribute.

    Raises:
        ProtocolError: malformed spec, unimportable module, missing attribute.
    """
    if not isinstance(spec, str):
        raise ProtocolError(
            f"{kind} reference must be a 'module:attr' string, "
            f"got {type(spec).__name__}")
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise ProtocolError(
            f"{kind} reference must look like 'module:attr', got {spec!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ProtocolError(
            f"cannot import {kind} module {module_name!r}: {exc}") from None
    try:
        return getattr(module, attr)
    except AttributeError:
        raise ProtocolError(
            f"{kind} module {module_name!r} has no attribute {attr!r}") from None


def _instantiate(obj: object) -> object:
    """A referenced class/factory becomes an instance; instances pass through."""
    if isinstance(obj, type) or (callable(obj) and not hasattr(obj, "ask")
                                 and not hasattr(obj, "should_prune")):
        return obj()
    return obj


def instantiate_ref(spec: object, kind: str = "object") -> object:
    """Import a ``module:attr`` reference and instantiate it if needed.

    The composition the request parsers (and crash recovery's auto-resume)
    use: :func:`load_ref` resolves the reference, then a referenced class or
    zero-argument factory is called to produce the instance, while an
    already-constructed instance (a module-level ``SPACE``, a configured
    algorithm object) passes through untouched.

    Args:
        spec: the ``module:attr`` reference string.
        kind: what the reference names, for error messages.

    Returns:
        The imported (and, when applicable, constructed) object.

    Raises:
        ProtocolError: malformed/unimportable reference.
    """
    return _instantiate(load_ref(spec, kind))


def parse_config(payload: object) -> Optional[StudyConfig]:
    """Validate a request's ``config`` dict into a :class:`StudyConfig`.

    Args:
        payload: the ``config`` value of a submit body (None passes through).

    Returns:
        The constructed config, or None when the request carried none.

    Raises:
        ProtocolError: non-dict payload, unknown keys, or values the
            dataclass rejects.
    """
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"config must be an object, got {type(payload).__name__}")
    unknown = set(payload) - _CONFIG_FIELDS
    if unknown:
        raise ProtocolError(
            f"unknown config keys {sorted(unknown)}; "
            f"expected a subset of {sorted(_CONFIG_FIELDS)}")
    try:
        return StudyConfig(**payload)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid config: {exc}") from None


def _check_version(body: Dict[str, object]) -> None:
    version = body.get("protocol", PROTOCOL_VERSION)
    if not isinstance(version, int) or version < 1:
        raise ProtocolError(f"invalid protocol version {version!r}")
    if version > PROTOCOL_VERSION:
        raise ProtocolError(
            f"request speaks protocol {version}, this server speaks "
            f"{PROTOCOL_VERSION}", status=400)


def _common_kwargs(body: Dict[str, object]) -> Dict[str, object]:
    """The submit/resume keywords shared by both request shapes."""
    kwargs: Dict[str, object] = {}
    priority = body.get("priority", 1.0)
    if not isinstance(priority, (int, float)) or isinstance(priority, bool) \
            or priority <= 0:
        raise ProtocolError(f"priority must be a positive number, "
                            f"got {priority!r}")
    kwargs["priority"] = float(priority)
    preempt = body.get("preempt", False)
    if not isinstance(preempt, bool):
        raise ProtocolError(f"preempt must be a boolean, got {preempt!r}")
    kwargs["preempt"] = preempt
    if body.get("algorithm") is not None:
        kwargs["algorithm"] = _instantiate(
            load_ref(body["algorithm"], "algorithm"))
    if body.get("pruner") is not None:
        kwargs["pruner"] = _instantiate(load_ref(body["pruner"], "pruner"))
    return kwargs


def _collect_refs(body: Dict[str, object]) -> Dict[str, str]:
    """The raw reference strings of a request, for durable persistence.

    The server records these in its event log (``TuneJob.refs``) so
    :meth:`~repro.automl.server.AntTuneServer.recover` can re-import the
    job's code and auto-resume it after a crash — the one thing an
    in-process submit with bare callables cannot offer.
    """
    return {key: body[key]
            for key in ("space", "objective", "algorithm", "pruner")
            if isinstance(body.get(key), str)}


def _require_body(body: object) -> Dict[str, object]:
    if not isinstance(body, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(body).__name__}")
    _check_version(body)
    return body


def parse_submit(body: object) -> Dict[str, object]:
    """Validate a submit request body into ``AntTuneServer.submit`` kwargs.

    Required keys: ``space`` and ``objective`` (``module:attr`` references).
    Optional: ``algorithm``/``pruner`` references, ``config`` dict, ``seed``
    (int — the study RNG; without it the server derives one from the job id),
    ``study_name``, ``priority``, ``preempt``, ``protocol``.

    Args:
        body: the decoded JSON request body.

    Returns:
        Keyword arguments ready for
        :meth:`repro.automl.server.AntTuneServer.submit` (including the
        imported ``space`` and ``objective`` under those keys, and the raw
        reference strings under ``refs`` for durable crash-recovery
        metadata).

    Raises:
        ProtocolError: any schema violation, with the HTTP status to answer.
    """
    body = _require_body(body)
    for key in ("space", "objective"):
        if key not in body:
            raise ProtocolError(f"missing required key {key!r}")
    kwargs = _common_kwargs(body)
    kwargs["space"] = load_ref(body["space"], "space")
    kwargs["objective"] = load_ref(body["objective"], "objective")
    if not callable(kwargs["objective"]):
        raise ProtocolError("objective reference must name a callable")
    kwargs["config"] = parse_config(body.get("config"))
    seed = body.get("seed")
    if seed is not None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ProtocolError(f"seed must be an integer, got {seed!r}")
        kwargs["seed"] = seed
    study_name = body.get("study_name")
    if study_name is not None:
        if not isinstance(study_name, str) or not study_name:
            raise ProtocolError("study_name must be a non-empty string")
        kwargs["study_name"] = study_name
    kwargs["refs"] = _collect_refs(body)
    return kwargs


def parse_resume(body: object) -> Dict[str, object]:
    """Validate a resume request body into ``AntTuneServer.resume`` kwargs.

    Required keys: ``study_name`` plus the ``space`` and ``objective``
    references (code is never persisted, so the continuation must name it).
    Optional: ``algorithm``/``pruner`` references, ``priority``, ``preempt``.

    Raises:
        ProtocolError: any schema violation.
    """
    body = _require_body(body)
    for key in ("study_name", "space", "objective"):
        if key not in body:
            raise ProtocolError(f"missing required key {key!r}")
    study_name = body["study_name"]
    if not isinstance(study_name, str) or not study_name:
        raise ProtocolError("study_name must be a non-empty string")
    kwargs = _common_kwargs(body)
    kwargs["study_name"] = study_name
    kwargs["space"] = load_ref(body["space"], "space")
    kwargs["objective"] = load_ref(body["objective"], "objective")
    if not callable(kwargs["objective"]):
        raise ProtocolError("objective reference must name a callable")
    kwargs["refs"] = _collect_refs(body)
    return kwargs


def trial_from_record(record: Dict[str, object]) -> Trial:
    """Rebuild a client-side :class:`Trial` from its wire record.

    The record is a :meth:`~repro.automl.trial.Trial.as_record` snapshot (the
    same shape storage persists); the reconstructed trial carries the params,
    terminal state, value and intermediate values, so SDK code written
    against the in-process API (``best.params``, ``best.value``) works
    unchanged against a remote server.

    Raises:
        ProtocolError: a record missing required fields or with an unknown
            state.
    """
    if not isinstance(record, dict):
        raise ProtocolError(
            f"trial record must be an object, got {type(record).__name__}")
    try:
        trial = Trial(trial_id=int(record["trial_id"]),
                      params=dict(record["params"]),
                      state=TrialState(record["state"]),
                      value=(None if record.get("value") is None
                             else float(record["value"])),
                      duration_seconds=float(record.get("duration_seconds", 0.0)),
                      error=record.get("error"),
                      worker=record.get("worker"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed trial record: {exc}") from None
    trial.intermediate_values = [
        float(v) for v in record.get("intermediate_values", [])]
    return trial

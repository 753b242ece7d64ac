"""The typed wire path as it stood before the shallow payload: references.

``reference_event_to_wire`` builds the payload with ``dataclasses.asdict``
(a deep copy of every nested value) and ``reference_event_from_wire``
rebuilds an event by keyword construction.  Tests hold the shallow
``event_to_wire``, the event log and the router's dict relay to these, byte
for byte.
"""

from __future__ import annotations

import dataclasses
import json

from repro.automl.events import EVENT_TYPES


def reference_event_to_wire(event):
    name = type(event).__name__
    assert EVENT_TYPES[name] is type(event)
    payload = dataclasses.asdict(event)
    payload["type"] = name
    if payload.get("trace_id") is None:
        payload.pop("trace_id", None)
    return payload


def reference_event_from_wire(payload):
    if not isinstance(payload, dict):
        raise ValueError("event payload must be a dict")
    name = payload.get("type")
    cls = EVENT_TYPES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(f"unknown event type {name!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    try:
        return cls(**{k: v for k, v in payload.items() if k in known})
    except TypeError as exc:
        raise ValueError(f"malformed {name} event payload: {exc}") from None


def reference_line(event):
    """The NDJSON line of ``event`` on the reference path."""
    return (json.dumps(reference_event_to_wire(event), sort_keys=True)
            + "\n").encode("utf-8")


def reference_relay_line(line, job_id, seq, trace_id):
    """The journal line the typed router relay wrote for one backend line."""
    event = reference_event_from_wire(json.loads(line.decode("utf-8")))
    return reference_line(dataclasses.replace(
        event, job_id=job_id, seq=seq, trace_id=trace_id))

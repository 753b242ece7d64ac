"""Spans around the calls into each layer's public functions.

A :class:`Tracer` replaces selected functions and methods with wrappers that
record one span per call: ``(span_id, name, start, end, parent_id,
request_id, key)``.  Times come from ``time.monotonic()``, which every
process on the host shares, so spans from a server line up with a client's
timestamps.  The parent is the innermost wrapped call still open on the same
thread; a layer's self time is its duration minus that of its child spans.
Spans stay in memory until :meth:`Tracer.dump` writes them.

``install(role, tracer)`` wraps what one process of a workload calls:

* ``alt`` — meta, nas, training, nn, models and system, in-process;
* ``client`` — the SDK client in the load generator;
* ``router`` — ``TuneRouter.submit``;
* ``backend`` — server, storage, study, executors, scheduler, events and
  the event log.

Each wrapper patches the attribute its caller looks up (for example
``repro.system.specific_module.distill`` rather than
``repro.meta.distillation.distill``), so no call goes around it.
"""

from __future__ import annotations

import itertools
import json
import threading
from time import monotonic
from typing import Callable, Dict, List, Optional, Sequence, Tuple

KeyFn = Callable[[tuple, dict, object], object]


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: List[list] = []
        #: Plain counters, e.g. ``Tensor`` objects built.
        self.counters: Dict[str, List[int]] = {}

    def _thread_state(self) -> Tuple[list, list]:
        state = getattr(self._local, "state", None)
        if state is None:
            buffer: list = []
            with self._lock:
                self._buffers.append(buffer)
            state = self._local.state = ([], buffer)
        return state

    def counter(self, name: str) -> List[int]:
        return self.counters.setdefault(name, [0])

    def wrap(self, name: str, fn: Callable, rid: Optional[Callable] = None,
             key: Optional[KeyFn] = None,
             delta: Optional[List[int]] = None) -> Callable:
        """``fn`` recording one span per call.

        ``rid(args, kwargs)`` gives the request id; ``key(args, kwargs,
        result)`` any extra value; with ``delta`` the key is how much that
        counter grew during the call.
        """
        ids, state = self._ids, self._thread_state

        def wrapper(*args, **kwargs):
            stack, buffer = state()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            before = delta[0] if delta is not None else 0
            result = None
            start = monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = monotonic()
                stack.pop()
                if delta is not None:
                    extra = delta[0] - before
                elif key is not None:
                    extra = key(args, kwargs, result)
                else:
                    extra = None
                buffer.append((span_id, name, start, end, parent,
                               rid(args, kwargs) if rid else None, extra))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def patch(self, owner: object, attr: str, name: str, **options) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **options))

    def spans(self) -> List[tuple]:
        with self._lock:
            return [span for buffer in self._buffers for span in buffer]

    def dump(self, path: str) -> None:
        data = {"spans": self.spans(),
                "counters": {k: v[0] for k, v in self.counters.items()}}
        with open(path, "w") as handle:
            json.dump(data, handle, separators=(",", ":"))


class Trace:
    """One process's dumped spans, indexed for the per-layer numbers.

    With ``windows=[(start, end), ...]`` only spans starting inside one of
    them are kept, so set-up and warm-up work stays out of the per-layer
    numbers.
    """

    def __init__(self, data: Dict[str, object],
                 windows: Optional[Sequence[Tuple[float, float]]] = None) -> None:
        spans = [tuple(s) for s in data.get("spans", [])]
        if windows is not None:
            spans = [s for s in spans
                     if any(start <= s[2] <= end for start, end in windows)]
        self.spans = spans
        self._by_name: Dict[str, List[tuple]] = {}
        children: Dict[int, float] = {}
        for span in self.spans:
            self._by_name.setdefault(span[1], []).append(span)
            if span[4]:
                children[span[4]] = children.get(span[4], 0.0) + span[3] - span[2]
        self._child_time = children

    @classmethod
    def load(cls, path,
             windows: Optional[Sequence[Tuple[float, float]]] = None) -> "Trace":
        with open(path) as handle:
            return cls(json.load(handle), windows)

    def named(self, name: str) -> List[tuple]:
        return self._by_name.get(name, [])

    def durations(self, name: str) -> List[float]:
        return [s[3] - s[2] for s in self.named(name)]

    def self_time(self, span: tuple) -> float:
        return span[3] - span[2] - self._child_time.get(span[0], 0.0)

    def self_times(self, name: str) -> List[float]:
        return [self.self_time(s) for s in self.named(name)]


# --------------------------------------------------------------------- #
# What each role wraps
# --------------------------------------------------------------------- #
NN_CLASSES = ("LSTM", "MultiHeadSelfAttention", "Conv1d", "Linear", "Embedding")


def install_alt(tracer: Tracer) -> None:
    import repro.nn.layers as layers
    import repro.system.specific_module as specific
    from repro.meta.agnostic import MetaLearner
    from repro.models.base_model import ALTModel
    from repro.nas.search import BudgetLimitedNAS
    from repro.nn import optim
    from repro.nn.tensor import Tensor
    from repro.system.orchestrator import ALTSystem
    from repro.system.serving import ModelServer

    tensors = tracer.counter("nn.tensors")
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        tensors[0] += 1
        init(self, *args, **kwargs)

    Tensor.__init__ = counting_init
    tracer.patch(ALTSystem, "add_scenario", "system.add_scenario",
                 delta=tensors, rid=lambda a, k: a[1].scenario_id)
    tracer.patch(ALTSystem, "predict", "system.alt_predict", delta=tensors,
                 rid=lambda a, k: a[1])
    tracer.patch(ModelServer, "predict", "system.serve")
    tracer.patch(ALTModel, "predict_proba", "models.predict_proba")
    tracer.patch(MetaLearner, "adapt", "meta.adapt")
    tracer.patch(MetaLearner, "feedback", "meta.feedback")
    tracer.patch(specific, "distill", "meta.distill")
    tracer.patch(specific, "evaluate_auc", "training.evaluate_auc")
    tracer.patch(BudgetLimitedNAS, "search", "nas.search")
    for cls_name in NN_CLASSES:
        tracer.patch(getattr(layers, cls_name), "__call__",
                     f"nn.forward.{cls_name}")
    tracer.patch(Tensor, "backward", "nn.backward")
    for cls in (optim.SGD, optim.Adam):
        tracer.patch(cls, "step", "nn.optim_step")


def install_client(tracer: Tracer) -> None:
    from repro.automl.remote.client import AntTuneClient
    tracer.patch(AntTuneClient, "submit", "client.submit",
                 rid=lambda a, k: k.get("request_id"))
    tracer.patch(AntTuneClient, "_open_stream", "client.open_stream")


def install_router(tracer: Tracer) -> None:
    from repro.automl.remote.router import TuneRouter
    tracer.patch(TuneRouter, "submit", "router.submit",
                 rid=lambda a, k: k.get("trace_id"))


def _first_wire_bytes(tracer: Tracer, fn: Callable) -> Callable:
    """``event_wire_bytes`` timed only on its first call per event."""
    timed = tracer.wrap("events.wire_bytes", fn,
                        rid=lambda a, k: a[0].trace_id)

    def wire_bytes(event):
        if event.__dict__.get("_wire_bytes") is not None:
            return fn(event)
        return timed(event)

    return wire_bytes


def install_backend(tracer: Tracer) -> None:
    import repro.automl.eventlog as eventlog
    import repro.automl.executors as executors
    import repro.automl.remote.http_server as http_server
    from repro.automl.events import EventBus, TrialReport
    from repro.automl.scheduler import TelemetryMonitor
    from repro.automl.server import AntTuneServer
    from repro.automl.storage import StudyStorage
    from repro.automl.study import Study

    def publish_key(args, kwargs, result):
        if result is None:
            return None
        value = result.value if isinstance(result, TrialReport) else None
        return (result.seq, value)

    tracer.patch(AntTuneServer, "submit", "server.submit",
                 rid=lambda a, k: k.get("trace_id"))
    tracer.patch(AntTuneServer, "open_event_stream", "server.open_event_stream")
    for method in ("save_study", "record_trial", "set_status"):
        tracer.patch(StudyStorage, method, f"storage.{method}")
    tracer.patch(Study, "ask_params", "study.ask")
    tracer.patch(Study, "tell", "study.tell")
    tracer.patch(executors.ThreadPoolTrialExecutor, "submit", "executors.submit",
                 key=lambda a, k, r: id(a[2]))
    tracer.patch(executors, "execute_trial", "executors.execute_trial",
                 key=lambda a, k, r: id(a[1]))
    tracer.patch(TelemetryMonitor, "observe", "scheduler.observe")
    tracer.patch(TelemetryMonitor, "flush", "scheduler.flush")
    tracer.patch(EventBus, "publish", "events.publish",
                 rid=lambda a, k: a[1].trace_id, key=publish_key)
    for module in (eventlog, http_server):
        module.event_wire_bytes = _first_wire_bytes(tracer,
                                                    module.event_wire_bytes)
    tracer.patch(eventlog.EventLog, "append", "eventlog.append",
                 rid=lambda a, k: a[1].trace_id)
    tracer.patch(eventlog.EventLog, "open_job", "eventlog.open_job",
                 rid=lambda a, k: k.get("trace_id"))


INSTALLERS = {"alt": install_alt, "client": install_client,
              "router": install_router, "backend": install_backend}


def install(role: str, tracer: Tracer) -> None:
    INSTALLERS[role](tracer)

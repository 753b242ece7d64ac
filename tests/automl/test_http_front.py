"""Tests for the HTTP front shared by the tune server and the fleet router.

Both :class:`RemoteTuneServer` and :class:`RemoteRouterServer` bind, serve
and stop through one front; these tests pin what that front owns: a failed
bind releases exactly what it built (never what the caller passed in),
``stop()`` before ``start()`` returns, and the router's slice of the shared
route table leaves the ticket surface unmatched.
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.automl import cli
from repro.automl.remote import http_server, router as router_mod
from repro.automl.remote.edge import _HTTP_TOTAL
from repro.automl.remote.http_server import RemoteTuneServer
from repro.automl.remote.router import RemoteRouterServer, TuneRouter
from repro.automl.server import AntTuneServer

# A backend URL nothing listens on: the routers here never place a job.
NOWHERE = "http://127.0.0.1:9"


@pytest.fixture
def occupied_port():
    """A loopback port another socket is already listening on."""
    with socket.create_server(("127.0.0.1", 0)) as blocker:
        yield blocker.getsockname()[1]


class _RecordingTuneServer(AntTuneServer):
    built: list = []

    def __init__(self, **kwargs: object) -> None:
        super().__init__(**kwargs)
        self.shut_down = False
        _RecordingTuneServer.built.append(self)

    def shutdown(self, wait: bool = True) -> None:
        self.shut_down = True
        super().shutdown(wait=wait)


class _RecordingRouter(TuneRouter):
    built: list = []

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self.closed = False
        _RecordingRouter.built.append(self)

    def close(self) -> None:
        self.closed = True
        super().close()


class TestBindFailure:
    def test_tune_server_built_by_the_front_is_shut_down(self, occupied_port,
                                                         monkeypatch):
        _RecordingTuneServer.built = []
        monkeypatch.setattr(http_server, "AntTuneServer", _RecordingTuneServer)
        with pytest.raises(OSError):
            RemoteTuneServer(port=occupied_port, num_workers=1,
                             backend="thread")
        [built] = _RecordingTuneServer.built
        assert built.shut_down

    def test_supplied_tune_server_keeps_running(self, occupied_port):
        tune = _RecordingTuneServer(num_workers=1, backend="thread")
        try:
            with pytest.raises(OSError):
                RemoteTuneServer(tune, port=occupied_port)
            assert not tune.shut_down  # the caller owns its lifecycle
        finally:
            tune.shutdown()

    def test_router_built_by_the_front_is_closed(self, occupied_port,
                                                 monkeypatch):
        _RecordingRouter.built = []
        monkeypatch.setattr(router_mod, "TuneRouter", _RecordingRouter)
        with pytest.raises(OSError):
            RemoteRouterServer([NOWHERE], port=occupied_port)
        [built] = _RecordingRouter.built
        assert built.closed

    def test_supplied_router_keeps_running(self, occupied_port):
        router = _RecordingRouter([NOWHERE], health_interval=0.05).start()
        try:
            with pytest.raises(OSError):
                RemoteRouterServer(router=router, port=occupied_port)
            assert not router.closed
            assert router._health_thread is not None
            assert router._health_thread.is_alive()
        finally:
            router.close()


class TestRouterFront:
    def test_stop_without_start_returns(self):
        never_started = RemoteRouterServer([NOWHERE])
        never_started.stop()  # must return promptly, not hang

    def test_ticket_routes_are_unmatched(self):
        unmatched = _HTTP_TOTAL.labels(method="POST", endpoint="unmatched",
                                       status="404")
        before = unmatched.value
        with RemoteRouterServer([NOWHERE]) as front:
            request = urllib.request.Request(
                front.url + "/v1/tickets/claim", data=b'{"worker": "w"}',
                method="POST", headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=10.0)
            with caught.value as answer:
                assert answer.code == 404
                assert "no such endpoint" in json.loads(answer.read())["error"]
        assert unmatched.value == before + 1


@pytest.mark.parametrize("command", [["serve"], ["route", "--backend", NOWHERE]])
def test_edge_option_is_gone(command, capsys):
    with pytest.raises(SystemExit) as caught:
        cli.main([*command, "--edge", "async"], out=lambda line: None)
    assert caught.value.code == 2
    assert "unrecognized arguments: --edge async" in capsys.readouterr().err

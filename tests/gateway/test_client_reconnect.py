"""A ``GatewayClient`` refused before its server is up recovers once it is.

Regression: a refused connect used to leave the half-used connection
object behind, and every later call on the same client raised
``CannotSendRequest('Request-sent')`` even against a live server.
"""

import socket

import pytest

from repro.core.broker import Scalia
from repro.gateway.client import GatewayClient
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.server import ScaliaGateway


def _unused_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_refused_twice_then_health_answers_ok():
    port = _unused_port()
    client = GatewayClient("127.0.0.1", port)
    for _ in range(2):
        with pytest.raises(ConnectionRefusedError):
            client.health()
    frontend = BrokerFrontend(Scalia())
    gateway = ScaliaGateway(frontend, host="127.0.0.1", port=port).start()
    try:
        assert client.health()["status"] == "ok"
    finally:
        client.close()
        gateway.close()
        frontend.close()

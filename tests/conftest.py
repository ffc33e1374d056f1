from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from daxiot.broker_service import BrokerConfig, BrokerService, BrokerThread
from daxiot.scenario import ScenarioEnv, build_scenario
from daxiot.transport import LoopbackNetwork, run_handshake


@pytest.fixture
def env(tmp_path) -> ScenarioEnv:
    return build_scenario(tmp_path / "env")


@pytest.fixture
def loopback(env):
    """Engine plus loopback network with event capture, ready for handshakes."""
    events: list[dict] = []
    network = LoopbackNetwork(env.engine(event_sink=events.append))
    network.events = events
    return network


def establish(network: LoopbackNetwork, client, broker_did: str):
    connection = network.open()
    run_handshake(client, connection, broker_did)
    return connection


class LoggingBroker(BrokerThread):
    """A broker thread that writes its events to ``event_log``, by default
    an in-memory one that :meth:`events` reads back."""

    def __init__(self, config: BrokerConfig, event_log=None) -> None:
        self.event_log = io.StringIO() if event_log is None else event_log
        self.service = BrokerService(config.listen_address, config.engine, self.event_log)

    def events(self) -> list[dict]:
        return [json.loads(line) for line in self.event_log.getvalue().splitlines()]

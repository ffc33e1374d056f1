from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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


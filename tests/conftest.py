from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from typing import Iterator

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from daxiot.scenario import ScenarioEnv, build_scenario
from daxiot.transport import LoopbackNetwork, run_handshake


@pytest.fixture(scope="session", autouse=True)
def session_tempdir(tmp_path_factory) -> Iterator[Path]:
    """The directory ``tempfile`` hands out for the session: one pytest
    manages, so a directory the code under test keeps, as the demo does its
    work directory, is pruned with pytest's own."""
    kept, tempfile.tempdir = tempfile.tempdir, str(tmp_path_factory.mktemp("tempfile"))
    yield Path(tempfile.tempdir)
    tempfile.tempdir = kept


@pytest.fixture
def env(tmp_path) -> ScenarioEnv:
    return build_scenario(tmp_path / "env")


@pytest.fixture
def loopback(env):
    """Engine plus loopback network with event capture, ready for handshakes."""
    events: list[dict] = []
    network = LoopbackNetwork(env.config.engine(event_sink=events.append))
    network.events = events
    return network


def refusal(events: list[dict]) -> tuple:
    """The last event as (event, reason, step): a refusal's only record."""
    return events[-1]["event"], events[-1]["reason"], events[-1]["step"]


def establish(network: LoopbackNetwork, client, broker_did: str):
    connection = network.open()
    run_handshake(client, connection, broker_did)
    return connection


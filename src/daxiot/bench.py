"""Latency benchmark harness.

Reproduces the measurement methodology of the comparison table: establish N
connections and publish M messages, timing each from the client's first step
to its verified acknowledgement. Two scenarios run on the broker's own TCP
server: a plaintext baseline (no authentication, no encryption, no fan-out)
and the full authenticated handshake. Absolute numbers are machine-dependent;
the report exists for methodology and ordering, not to match any published
hardware figures.

Timing boundary: a daxiot connect runs from step A (the client building its
CONNECT) to the verified CONNACK; a publish runs from building the PUBLISH to
the verified PUBACK. The baseline times the same exchanges with raw fields.
"""

from __future__ import annotations

import itertools
import statistics
import tempfile
import time
from functools import partial

from .broker_service import BrokerService
from .errors import DaxiotError
from .protocol import Reply
from .scenario import HOST, build_scenario
from .transport import TcpClientConnection, run_handshake
from .wire import Packet, PacketKind, ReasonCode

MODES = ("plaintext", "daxiot")
_TOPIC = "bench/topic"
_PAYLOAD = b"bench-payload-0123456789abcdef"


# ---------------------------------------------------------------------------
# Plaintext baseline (no authentication, no encryption, no fan-out)
# ---------------------------------------------------------------------------

class PlaintextEngine:
    """Acknowledges CONNECT and PUBLISH; any other packet ends the connection."""

    def __init__(self) -> None:
        self._sessions = itertools.count()

    def handle_connect(self, packet: Packet) -> tuple[str | None, Reply]:
        if packet.kind is not PacketKind.CONNECT:
            return None, Reply(close=True)
        connack = Packet(kind=PacketKind.CONNACK, reason_code=ReasonCode.SUCCESS)
        return str(next(self._sessions)), Reply(packets=[connack])

    def handle_packet(self, session_id: str, packet: Packet) -> Reply:
        if packet.kind is not PacketKind.PUBLISH:
            return Reply(close=True)
        return Reply(packets=[Packet(kind=PacketKind.PUBACK, reason_code=ReasonCode.SUCCESS)])

    def handle_disconnect(self, session_id: str) -> Reply:
        return Reply(close=True)


class PlaintextBroker(BrokerService):
    """The baseline engine on the broker's own server, on an ephemeral loopback port."""

    def __init__(self) -> None:
        super().__init__(f"{HOST}:0", PlaintextEngine())


class _PlaintextClient:
    """The baseline's side of DaxiotClient's publish, ack and disconnect calls."""

    def publish(self, topic: str, payload: bytes) -> Packet:
        return Packet(kind=PacketKind.PUBLISH, topic=topic.encode("utf-8"), payload=payload)

    def handle_puback(self, packet: Packet) -> ReasonCode:
        return _expect(packet, PacketKind.PUBACK).reason_code

    def disconnect(self) -> Packet:
        return Packet(kind=PacketKind.DISCONNECT, reason_code=ReasonCode.SUCCESS)


def _plaintext_connect(client: _PlaintextClient, connection: TcpClientConnection) -> None:
    connection.send(Packet(kind=PacketKind.CONNECT, client_id="plain", auth_method="plain"))
    _expect(connection.recv(), PacketKind.CONNACK)


def _expect(packet: Packet, kind: PacketKind) -> Packet:
    if packet.kind is not kind:
        raise DaxiotError(f"benchmark expected {kind.name}, got {packet.kind.name}")
    return packet


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _measure(port: int, new_client, connect, iterations_connect: int, iterations_publish: int) -> dict:
    """Time each connect on a fresh connection, then each publish on one session."""
    connect_ms = []
    for _ in range(iterations_connect):
        client = new_client()
        with TcpClientConnection(HOST, port) as connection:
            started = time.perf_counter()
            connect(client, connection)
            connect_ms.append((time.perf_counter() - started) * 1000)
            connection.send(client.disconnect())

    publish_ms = []
    client = new_client()
    with TcpClientConnection(HOST, port) as connection:
        connect(client, connection)
        for _ in range(iterations_publish):
            started = time.perf_counter()
            connection.send(client.publish(_TOPIC, _PAYLOAD))
            if client.handle_puback(connection.recv()) is not ReasonCode.SUCCESS:
                raise DaxiotError("benchmark publish was rejected")
            publish_ms.append((time.perf_counter() - started) * 1000)
        connection.send(client.disconnect())
    return {"connect_ms": _summary(connect_ms), "publish_ms": _summary(publish_ms)}


def _summary(samples_ms: list[float]) -> dict:
    ordered = sorted(samples_ms)
    summary = {
        "count": len(ordered),
        "mean_ms": statistics.fmean(ordered),
        "median_ms": statistics.median(ordered),
        "p95_ms": ordered[round(0.95 * (len(ordered) - 1))],
        "min_ms": ordered[0],
        "max_ms": ordered[-1],
    }
    return {name: round(value, 4) for name, value in summary.items()}


def run_bench(mode: str, iterations_connect: int, iterations_publish: int) -> dict:
    """Run one scenario and return its report dictionary."""
    if mode not in MODES:
        raise DaxiotError(f"unknown benchmark mode {mode!r}")
    if iterations_connect < 1 or iterations_publish < 1:
        raise DaxiotError("iteration counts must be at least 1")
    iterations = (iterations_connect, iterations_publish)
    if mode == "plaintext":
        with PlaintextBroker() as broker:
            measured = _measure(broker.port, _PlaintextClient, _plaintext_connect, *iterations)
    else:
        with tempfile.TemporaryDirectory(prefix="daxiot-bench-") as tmp:
            env = build_scenario(tmp, topic=_TOPIC)
            with env.config.service() as broker:
                handshake = partial(run_handshake, broker_did=env.broker_did)
                measured = _measure(broker.port, env.publisher_client, handshake, *iterations)
    return {"mode": mode, "iterations_connect": iterations_connect, "iterations_publish": iterations_publish, **measured}


def render_table(reports: list[dict]) -> str:
    """Human-readable comparison table, one scenario per row."""
    headers = ["Scenario", "Connecting (ms)", "Message Publishing (ms)"]
    rows = [headers]
    for report in reports:
        connect, publish = report["connect_ms"], report["publish_ms"]
        rows.append(
            [
                report["mode"],
                f"{connect['mean_ms']:.2f} (p95 {connect['p95_ms']:.2f})",
                f"{publish['mean_ms']:.2f} (p95 {publish['p95_ms']:.2f})",
            ]
        )
    widths = [max(len(row[col]) for row in rows) for col in range(len(headers))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)

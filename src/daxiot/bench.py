"""Latency benchmark harness.

Reproduces the measurement methodology of the comparison table: establish N
connections and publish M messages, timing each round trip from the client's
send to its acknowledgement receipt. Two scenarios run against local
servers: a plaintext baseline (no authentication, no encryption) and the
full authenticated handshake. Absolute numbers are machine-dependent; the
report exists for methodology and ordering, not to match any published
hardware figures.

Timing boundary: connect latency covers CONNECT-send to CONNACK-receipt
(which spans the whole challenge/response for the authenticated mode), and
publish latency covers PUBLISH-send to PUBACK-receipt.
"""

from __future__ import annotations

import asyncio
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .broker_service import BrokerThread, EventLoopThread, read_frame
from .errors import DaxiotError
from .scenario import build_scenario
from .transport import TcpClientConnection, run_handshake
from .wire import Packet, PacketKind, ReasonCode, decode_frame, encode_frame

MODES = ("plaintext", "daxiot")
DEFAULT_CONNECTS = 1000
DEFAULT_PUBLISHES = 10000
_BENCH_PAYLOAD = b"bench-payload-0123456789abcdef"


@dataclass
class LatencyStats:
    count: int
    mean_ms: float
    median_ms: float
    p95_ms: float
    min_ms: float
    max_ms: float

    @classmethod
    def from_samples(cls, samples_ms: list[float]) -> "LatencyStats":
        if not samples_ms:
            raise DaxiotError("cannot summarize zero samples")
        ordered = sorted(samples_ms)
        p95_index = round(0.95 * (len(ordered) - 1))
        return cls(
            count=len(ordered),
            mean_ms=statistics.fmean(ordered),
            median_ms=statistics.median(ordered),
            p95_ms=ordered[p95_index],
            min_ms=ordered[0],
            max_ms=ordered[-1],
        )

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean_ms": round(self.mean_ms, 4),
            "median_ms": round(self.median_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "min_ms": round(self.min_ms, 4),
            "max_ms": round(self.max_ms, 4),
        }


# ---------------------------------------------------------------------------
# Plaintext baseline broker (no authentication, no encryption)
# ---------------------------------------------------------------------------

class PlaintextBroker(EventLoopThread):
    """Minimal pub/sub server speaking the same framing with raw fields."""

    def __init__(self, host: str = "127.0.0.1") -> None:
        super().__init__("plaintext-broker")
        self._host = host
        self.port: int | None = None
        self._topics: dict[bytes, set[asyncio.StreamWriter]] = {}
        self._server: asyncio.Server | None = None

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                    if frame is None:
                        break
                    packet = decode_frame(frame)
                except DaxiotError:
                    break
                if packet.kind is PacketKind.CONNECT:
                    writer.write(encode_frame(Packet(kind=PacketKind.CONNACK, reason_code=ReasonCode.SUCCESS)))
                elif packet.kind is PacketKind.SUBSCRIBE and packet.topic is not None:
                    self._topics.setdefault(packet.topic, set()).add(writer)
                    writer.write(encode_frame(Packet(kind=PacketKind.SUBACK, reason_code=ReasonCode.SUCCESS)))
                elif packet.kind is PacketKind.PUBLISH:
                    for subscriber in self._topics.get(packet.topic or b"", set()):
                        if not subscriber.is_closing():
                            subscriber.write(encode_frame(packet))
                    writer.write(encode_frame(Packet(kind=PacketKind.PUBACK, reason_code=ReasonCode.SUCCESS)))
                elif packet.kind is PacketKind.DISCONNECT:
                    break
                await writer.drain()
        finally:
            for subscribers in self._topics.values():
                subscribers.discard(writer)
            writer.close()

    async def _open(self) -> None:
        self._server = await asyncio.start_server(self._handle, self._host, 0)
        self.port = self._server.sockets[0].getsockname()[1]

    async def _close(self) -> None:
        self._server.close()
        await self._server.wait_closed()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _expect(connection: TcpClientConnection, kind: PacketKind) -> Packet:
    packet = connection.recv()
    if packet.kind is not kind:
        raise DaxiotError(f"benchmark expected {kind.name}, got {packet.kind.name}")
    return packet


def _run_plaintext(iterations_connect: int, iterations_publish: int, host: str) -> dict:
    broker = PlaintextBroker(host).start()
    try:
        connect_samples = []
        for index in range(iterations_connect):
            with TcpClientConnection(host, broker.port) as connection:
                started = time.perf_counter()
                connection.send(
                    Packet(kind=PacketKind.CONNECT, client_id=f"plain-{index}", auth_method="plain")
                )
                _expect(connection, PacketKind.CONNACK)
                connect_samples.append((time.perf_counter() - started) * 1000)
                connection.send(Packet(kind=PacketKind.DISCONNECT, reason_code=ReasonCode.SUCCESS))

        publish_samples = []
        with TcpClientConnection(host, broker.port) as connection:
            connection.send(Packet(kind=PacketKind.CONNECT, client_id="plain-pub", auth_method="plain"))
            _expect(connection, PacketKind.CONNACK)
            for _ in range(iterations_publish):
                started = time.perf_counter()
                connection.send(
                    Packet(kind=PacketKind.PUBLISH, topic=b"bench/topic", payload=_BENCH_PAYLOAD)
                )
                _expect(connection, PacketKind.PUBACK)
                publish_samples.append((time.perf_counter() - started) * 1000)
            connection.send(Packet(kind=PacketKind.DISCONNECT, reason_code=ReasonCode.SUCCESS))
    finally:
        broker.stop()
    return {"connect": connect_samples, "publish": publish_samples}


def _run_daxiot(iterations_connect: int, iterations_publish: int, host: str, workdir: Path) -> dict:
    env = build_scenario(workdir, topic="bench/topic", host=host)
    with BrokerThread(env.config):
        connect_samples = []
        for _ in range(iterations_connect):
            client = env.publisher_client()
            with TcpClientConnection(host, env.port) as connection:
                connect_packet = client.begin_connect(env.broker_did)
                started = time.perf_counter()
                connection.send(connect_packet)
                connection.send(client.handle_challenge(connection.recv()))
                client.handle_connack(connection.recv())
                connect_samples.append((time.perf_counter() - started) * 1000)
                connection.send(client.disconnect())

        publish_samples = []
        client = env.publisher_client()
        with TcpClientConnection(host, env.port) as connection:
            run_handshake(client, connection, env.broker_did)
            for _ in range(iterations_publish):
                publish_packet = client.publish("bench/topic", _BENCH_PAYLOAD)
                started = time.perf_counter()
                connection.send(publish_packet)
                ack = _expect(connection, PacketKind.PUBACK)
                publish_samples.append((time.perf_counter() - started) * 1000)
                if client.handle_puback(ack) is not ReasonCode.SUCCESS:
                    raise DaxiotError("benchmark publish was rejected")
            connection.send(client.disconnect())
    return {"connect": connect_samples, "publish": publish_samples}


def run_bench(
    mode: str,
    iterations_connect: int = DEFAULT_CONNECTS,
    iterations_publish: int = DEFAULT_PUBLISHES,
    host: str = "127.0.0.1",
    workdir: Path | str | None = None,
) -> dict:
    """Run one scenario and return its report dictionary."""
    if mode not in MODES:
        raise DaxiotError(f"unknown benchmark mode {mode!r}")
    if iterations_connect < 1 or iterations_publish < 1:
        raise DaxiotError("iteration counts must be at least 1")
    if mode == "plaintext":
        samples = _run_plaintext(iterations_connect, iterations_publish, host)
    else:
        if workdir is None:
            with tempfile.TemporaryDirectory(prefix="daxiot-bench-") as tmp:
                samples = _run_daxiot(iterations_connect, iterations_publish, host, Path(tmp))
        else:
            samples = _run_daxiot(iterations_connect, iterations_publish, host, Path(workdir))
    return {
        "mode": mode,
        "iterations_connect": iterations_connect,
        "iterations_publish": iterations_publish,
        "connect_ms": LatencyStats.from_samples(samples["connect"]).as_dict(),
        "publish_ms": LatencyStats.from_samples(samples["publish"]).as_dict(),
    }


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

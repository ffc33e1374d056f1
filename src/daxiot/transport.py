"""Client-side transports: a blocking TCP connection and an in-process
loopback that delivers through the TCP service's own router, so tests run
without sockets but through the wire codec and the delivery rules that serve
traffic."""

from __future__ import annotations

import socket
from collections import deque

from .broker_service import Router
from .errors import ConnectionRejected, FramingError, ProtocolOrderError
from .protocol import DaxiotBroker, DaxiotClient
from .wire import Packet, PacketKind, decode_frame, encode_frame, frame_length


class TcpClientConnection:
    """Blocking framed-packet connection to a broker service."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")

    def send(self, packet: Packet) -> None:
        self._sock.sendall(encode_frame(packet))

    def send_raw(self, frame: bytes) -> None:
        self._sock.sendall(frame)

    def recv(self) -> Packet:
        header = self._reader.read(4)
        if not header:
            raise FramingError("connection closed by the broker")
        if len(header) == 4:
            length = frame_length(header)
            body = self._reader.read(length)
            if len(body) == length:
                return decode_frame(header + body)
        raise FramingError("connection closed mid-frame")

    def close(self) -> None:
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "TcpClientConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LoopbackConnection:
    """One client's endpoint on a :class:`LoopbackNetwork`; to the router it
    is a connection, as an asyncio transport is on TCP."""

    def __init__(self, network: "LoopbackNetwork") -> None:
        self._network = network
        self.session_id: str | None = None
        self.inbox: deque[Packet] = deque()
        self.closed = False

    def send(self, packet: Packet) -> None:
        self.send_raw(encode_frame(packet))

    def send_raw(self, frame: bytes) -> None:
        if self.closed:
            raise ProtocolOrderError("connection is closed")
        self._network.captures.append(("c2b", frame))
        self.session_id, close = self._network.router.receive(self, self.session_id, frame)
        if close:
            self.close()

    def recv(self) -> Packet:
        if not self.inbox:
            raise ProtocolOrderError("no packet queued on the loopback connection")
        return self.inbox.popleft()

    def write(self, frame: bytes) -> None:
        self._network.captures.append(("b2c", frame))
        self.inbox.append(decode_frame(frame))

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._network.router.drop(self.session_id)


class LoopbackNetwork:
    """Socket-free transport around a broker engine.

    Frames are delivered by the same :class:`Router` the TCP service uses.
    Every frame is encoded and decoded through the real wire codec and
    recorded in ``captures`` as (direction, frame bytes), so passive-observer
    checks can scan exactly what the connections sent and received.
    """

    def __init__(self, engine: DaxiotBroker) -> None:
        self.engine = engine
        self.captures: list[tuple[str, bytes]] = []
        self.router = Router(engine)

    def open(self) -> LoopbackConnection:
        return LoopbackConnection(self)


def run_handshake(
    client: DaxiotClient,
    connection: TcpClientConnection | LoopbackConnection,
    broker_did: str,
) -> None:
    """Drive the full connect/challenge/response/ack exchange over a transport."""
    connection.send(client.begin_connect(broker_did))
    first = connection.recv()
    if first.kind is PacketKind.DISCONNECT:
        raise ConnectionRejected("broker disconnected instead of challenging", first.reason_code)
    connection.send(client.handle_challenge(first))
    client.handle_connack(connection.recv())

"""Client-side transports: a blocking TCP connection and an in-process
loopback that drives a broker engine directly, so integration tests and the
benchmark run without sockets while still passing every byte through the
wire codec.
"""

from __future__ import annotations

import socket
from collections import deque

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
    """One client's endpoint on a :class:`LoopbackNetwork`."""

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
        self._network.deliver(self, frame)

    def recv(self) -> Packet:
        if not self.inbox:
            raise ProtocolOrderError("no packet queued on the loopback connection")
        return self.inbox.popleft()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            if self.session_id is not None:
                self._network.engine.handle_disconnect(self.session_id)
                self._network.release(self.session_id)


class LoopbackNetwork:
    """Socket-free transport around a broker engine.

    Every frame is encoded and decoded through the real wire codec and
    recorded in ``captures`` as (direction, frame bytes), so passive-observer
    checks can scan exactly what would have crossed a network.
    """

    def __init__(self, engine: DaxiotBroker) -> None:
        self.engine = engine
        self.captures: list[tuple[str, bytes]] = []
        self._by_session: dict[str, LoopbackConnection] = {}

    def open(self) -> LoopbackConnection:
        return LoopbackConnection(self)

    def release(self, session_id: str) -> None:
        self._by_session.pop(session_id, None)

    def deliver(self, connection: LoopbackConnection, frame: bytes) -> None:
        self.captures.append(("c2b", frame))
        packet = decode_frame(frame)
        if connection.session_id is None:
            session_id, reply = self.engine.handle_connect(packet)
            if session_id is not None:
                connection.session_id = session_id
                self._by_session[session_id] = connection
        else:
            reply = self.engine.handle_packet(connection.session_id, packet)
        for out in reply.packets:
            out_frame = encode_frame(out)
            self.captures.append(("b2c", out_frame))
            connection.inbox.append(decode_frame(out_frame))
        for target_id, out in reply.forwards:
            out_frame = encode_frame(out)
            self.captures.append(("b2c", out_frame))
            target = self._by_session.get(target_id)
            if target is not None:
                target.inbox.append(decode_frame(out_frame))
                if out.kind is PacketKind.DISCONNECT:
                    target.closed = True
                    self.release(target_id)
        if reply.close:
            connection.closed = True
            if connection.session_id is not None:
                self.release(connection.session_id)


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

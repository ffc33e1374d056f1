"""Runnable broker: TCP listener, session registry, routing, and event log.

One object is the broker: :class:`BrokerService` binds in ``start``, serves
on its own event-loop thread and drops every connection in ``stop``. The
same server carries the DAXiot engine and the benchmark's plaintext
baseline; each connection is a small asyncio protocol with no task of its
own, which stops reading a peer whose replies back up. Trust files are
consulted on every verification and parsed again whenever they change, so
edits need no restart. Events go to an optional sink, a callable that takes
each event as a dict; :func:`json_lines` makes one that writes a stream.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Callable, TextIO

from .credential import RevocationRegistry, TrustedIssuerList
from .crypto import load_signing_key, to_agreement_keypair
from .did import DirectoryWebSource, Resolver
from .errors import BindError, ConfigError, CredentialError, DaxiotError, FramingError, decode_address, decode_json
from .protocol import DaxiotBroker
from .snapshot import replace_file
from .wire import Packet, PacketKind, ReasonCode, decode_frame, encode_frame, frame_length

EventSink = Callable[[dict], None]
LOG_LEVELS = ("debug", "info", "warning", "error")
_RECEIVE_AREA = 64 * 1024  # bytes one socket read may return
_EVENT_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass
class BrokerConfig:
    listen_address: str
    broker_did: str
    signing_key_path: str
    til_path: str
    rr_path: str
    did_web_dir: str
    log_level: str = "info"

    @classmethod
    def from_file(cls, path: Path | str) -> "BrokerConfig":
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read broker config {path}: {exc}") from exc
        data = decode_json(raw, ConfigError, f"broker config {path}")
        names = [f.name for f in fields(cls)]
        if not isinstance(data, dict) or not set(data) <= set(names) or not all(isinstance(v, str) for v in data.values()):
            raise ConfigError(f"broker config {path} must be a JSON object whose values are strings, keys among {names}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
        if missing:
            raise ConfigError(f"broker config missing fields: {sorted(missing)}")
        if data.get("log_level", cls.log_level) not in LOG_LEVELS:
            raise ConfigError(f"broker config {path}: log_level must be debug, info, warning or error")
        # Refused before the key and trust files are read.
        decode_address(data["listen_address"], ConfigError, "listen_address")
        return cls(**data)

    def save(self, path: Path | str) -> None:
        """Write the config as :meth:`from_file` reads it: every field, as an indented JSON object."""
        replace_file(path, json.dumps(asdict(self), indent=2).encode() + b"\n")

    def engine(self, event_sink: EventSink | None = None) -> DaxiotBroker:
        """Check the key, the broker's document and the trust files, then build
        the engine, which loads the trust files again on every verification.
        Any inconsistency raises :class:`ConfigError`."""
        keypair = load_signing_key(self.signing_key_path)
        resolver = Resolver(DirectoryWebSource(self.did_web_dir))
        try:
            document = resolver.resolve(self.broker_did)
        except DaxiotError as exc:
            raise ConfigError(f"broker DID does not resolve: {exc}") from exc
        if document.verification_key != keypair.public:
            raise ConfigError("broker document verification key does not match the signing key")
        if document.agreement_key != to_agreement_keypair(keypair).public:
            raise ConfigError("broker document agreement key does not match the signing key")

        try:
            TrustedIssuerList.load(self.til_path)
            RevocationRegistry.load(self.rr_path)
        except CredentialError as exc:
            raise ConfigError(f"issuer list or revocation registry unreadable: {exc}") from exc
        return DaxiotBroker(keypair, self.broker_did, resolver, self.til_path, self.rr_path, event_sink)

    def service(self, event_sink: EventSink | None = None) -> "BrokerService":
        """The engine, to be served at ``listen_address`` by ``start()`` or ``with``;
        engine and service send their events to one sink."""
        return BrokerService(self.listen_address, self.engine(event_sink), event_sink)


def json_lines(stream: TextIO) -> EventSink:
    """A sink that writes each event to ``stream`` as one flushed JSON line, with ``ts`` and sorted keys."""

    def write(record: dict) -> None:
        try:
            stream.write(_EVENT_ENCODER.encode({"ts": time.time(), **record}) + "\n")
            stream.flush()
        except (OSError, ValueError):  # a full disk, a broken pipe or a closed stream must not stop the broker
            pass

    return write


class Router:
    """Apply an engine's :class:`Reply`: the one copy of the delivery rules,
    used by the TCP service and by the in-process loopback.

    A connection is anything with ``write(frame)``, ``close()`` and
    ``is_closing()``: an asyncio transport, or a ``LoopbackConnection``.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.connections: dict[str, object] = {}

    def receive(self, connection, session_id: str | None, frame: bytes) -> tuple[str | None, bool]:
        """Hand one frame to the engine; return the connection's session id and whether to close it."""
        packet = decode_frame(frame)
        if session_id is None:
            session_id, reply = self.engine.handle_connect(packet)
            if session_id is not None:
                self.connections[session_id] = connection
        else:
            reply = self.engine.handle_packet(session_id, packet)
        for out in reply.packets:
            connection.write(encode_frame(out))
        for target_id, out in reply.forwards:
            target = self.connections.get(target_id)
            if target is not None and not target.is_closing():
                target.write(encode_frame(out))
                if out.kind is PacketKind.DISCONNECT:
                    # The engine ended that session; end its connection too.
                    target.close()
        return session_id, reply.close

    def drop(self, session_id: str | None) -> None:
        """Tell the engine a connection ended and forget it."""
        if session_id is not None:
            self.engine.handle_disconnect(session_id)
            self.connections.pop(session_id, None)


class _Connection(asyncio.BufferedProtocol):
    """One accepted TCP connection; while its replies back up, the peer is not read.

    The transport reads into the service's one receive area, and each read is
    copied out at once into this connection's buffer of unframed bytes.
    Without the area, asyncio would allocate a 256 KiB bytes object per read,
    which glibc serves with mmap and munmap: on a 2-vCPU VM a small read took
    about 20 µs that way and 2 µs into a kept buffer. Every asyncio transport
    calls :meth:`get_buffer`, fills the area and calls :meth:`buffer_updated`
    in one step, so connections can share the area.
    """

    __slots__ = ("_service", "_buffer", "_session_id", "transport", "lost")

    def __init__(self, service: "BrokerService") -> None:
        self._service = service
        self._buffer = bytearray()
        self._session_id: str | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.lost = asyncio.get_running_loop().create_future()
        self._service._connections.add(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._service._receive_area

    def buffer_updated(self, nbytes: int) -> None:
        buffer = self._buffer
        buffer += self._service._receive_area[:nbytes]
        try:
            while len(buffer) >= 4 and len(buffer) >= (end := 4 + frame_length(buffer[:4])):
                frame = bytes(buffer[:end])
                del buffer[:end]
                self._session_id, close = self._service.router.receive(self.transport, self._session_id, frame)
                if close:
                    break
            else:
                return  # wait for the rest of the frame
        except DaxiotError as exc:
            self._error(type(exc).__name__)
            self.transport.write(encode_frame(Packet(kind=PacketKind.DISCONNECT, reason_code=ReasonCode.PROTOCOL_ERROR)))
        buffer.clear()
        self.transport.close()

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def connection_lost(self, exc: Exception | None) -> None:
        if self._buffer:
            self._error(FramingError.__name__)  # the peer left mid-frame
        self._service.router.drop(self._session_id)
        self._service._connections.discard(self)
        self.lost.set_result(None)

    def _error(self, reason: str) -> None:
        self._service._emit("connection_error", self._session_id, reason)


class BrokerService:
    """Serve one protocol engine over TCP on a daemon event-loop thread, from
    :meth:`start` until :meth:`stop`.

    The engine is anything whose ``handle_connect``, ``handle_packet`` and
    ``handle_disconnect`` return a :class:`Reply`, such as a :class:`DaxiotBroker`.
    The service sends its own events, ``listening`` and ``connection_error``, to ``event_sink``.
    """

    def __init__(self, listen_address: str, engine, event_sink: EventSink | None = None) -> None:
        self._host, self._port = decode_address(listen_address, ConfigError, "listen_address")
        self._event_sink = event_sink
        self.engine = engine
        self.router = Router(self.engine)
        self._connections: set[_Connection] = set()
        self._receive_area = memoryview(bytearray(_RECEIVE_AREA))

    def _emit(self, event: str, session: str | None, reason: str) -> None:
        if self._event_sink is not None:
            self._event_sink({"event": event, "session": session, "reason": reason})

    @property
    def port(self) -> int:
        """Bound port; meaningful after start (resolves a configured port 0)."""
        return self._port

    @property
    def _address(self) -> str:
        """``host:port``, with an IPv6 host in brackets so the port can be split off."""
        host = f"[{self._host}]" if ":" in self._host else self._host
        return f"{host}:{self._port}"

    def start(self) -> "BrokerService":
        """Bind on the caller's thread, so a :class:`BindError` raises here;
        then emit ``listening`` and serve on the ``daxiot-broker`` thread.
        Whatever raises before the thread starts, a failing event sink
        included, leaves nothing running: the socket and the loop are closed.
        When it returns, the server is accepting."""
        self._loop = asyncio.new_event_loop()
        self._server = None
        try:
            try:
                self._server = self._loop.run_until_complete(
                    self._loop.create_server(lambda: _Connection(self), self._host, self._port)
                )
            except OSError as exc:
                raise BindError(f"cannot bind {self._address}: {exc}") from exc
            self._port = self._server.sockets[0].getsockname()[1]
            self._emit("listening", None, self._address)
            self._thread = threading.Thread(target=self._loop.run_forever, name="daxiot-broker", daemon=True)
            self._thread.start()
        except BaseException:
            if self._server is not None:
                self._server.close()
                self._loop.run_until_complete(self._server.wait_closed())
            self._loop.close()
            raise
        return self

    def stop(self) -> None:
        """Stop serving, drop every connection, end the thread and close the loop."""
        asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop).result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.run_until_complete(self._loop.shutdown_default_executor())
        self._loop.close()

    async def _shutdown(self) -> None:
        """Stop accepting, abort every connection (dropping unsent bytes, so a
        stalled peer cannot hold shutdown up) and wait until each is lost;
        ``wait_closed`` comes last, as since Python 3.12.1 it waits for them too."""
        self._server.close()
        connections = list(self._connections)
        for connection in connections:
            connection.transport.abort()
        await asyncio.gather(*(connection.lost for connection in connections))
        await self._server.wait_closed()

    def __enter__(self) -> "BrokerService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

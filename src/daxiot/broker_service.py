"""Runnable broker: TCP listener, session registry, routing, and event log.

The same server carries the DAXiot engine and the benchmark's plaintext
baseline; each connection is a small asyncio protocol with no task of its
own, which stops reading a peer whose replies back up. Trust files are
re-read on every verification, so edits need no restart. Events go to a
bounded ring and optionally to a stream, one JSON object per line.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Callable, TextIO

from .credential import RevocationRegistry, TrustedIssuerList
from .crypto import SigningKeyPair, generate_signing_keypair, to_agreement_keypair
from .did import DirectoryWebSource, Resolver
from .errors import BindError, ConfigError, CredentialError, DaxiotError, FramingError, decode_json
from .protocol import DaxiotBroker
from .wire import Packet, PacketKind, ReasonCode, decode_frame, encode_frame, frame_length

EXIT_CONFIG = 2
EXIT_BIND = 3

EventSink = Callable[[dict], None]


def load_signing_key(path: Path | str) -> SigningKeyPair:
    """Load an identity from a hex seed file written by the keygen command."""
    try:
        text = Path(path).read_text("utf-8").strip()
        seed = bytes.fromhex(text)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load signing key from {path}: {exc}") from exc
    return generate_signing_keypair(seed)


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
        if data.get("log_level", cls.log_level) not in ("debug", "info", "warning", "error"):
            raise ConfigError(f"broker config {path}: log_level must be debug, info, warning or error")
        return cls(**data)

    def engine(self, event_sink: EventSink | None = None) -> DaxiotBroker:
        """Check the key, the broker's document and the trust files, then build the engine.

        Any inconsistency raises :class:`ConfigError`. The trust files are
        re-read on every verification, so edits take effect without a restart.
        """
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

        til_path, rr_path = Path(self.til_path), Path(self.rr_path)
        try:
            TrustedIssuerList.load(til_path)
            RevocationRegistry.load(rr_path)
        except CredentialError as exc:
            raise ConfigError(f"issuer list or revocation registry unreadable: {exc}") from exc

        return DaxiotBroker(
            signing_keypair=keypair,
            broker_did=self.broker_did,
            resolver=resolver,
            til_source=lambda: TrustedIssuerList.load(til_path),
            rr_source=lambda: RevocationRegistry.load(rr_path),
            event_sink=event_sink,
        )


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


class _Connection(asyncio.Protocol):
    """One accepted TCP connection; while its replies back up, the peer is not read."""

    def __init__(self, service: "BrokerService") -> None:
        self._service = service
        self._buffer = bytearray()
        self._session_id: str | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.lost = asyncio.get_running_loop().create_future()
        self._service._connections.add(self)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
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
        self._service._record_event({"event": "connection_error", "session": self._session_id, "reason": reason})


class BrokerService:
    """Serve one protocol engine over TCP.

    ``make_engine`` is called once with the service's event sink and returns
    the engine: anything whose ``handle_connect``, ``handle_packet`` and
    ``handle_disconnect`` return a :class:`Reply`, such as the
    :class:`DaxiotBroker` that :meth:`BrokerConfig.engine` builds. Each event
    is written to ``event_log``, when given, as one JSON line and flushed.
    """

    def __init__(
        self, listen_address: str, make_engine: Callable[[EventSink], object], event_log: TextIO | None = None
    ) -> None:
        host, _, port = listen_address.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(f"listen_address must be host:port, got {listen_address!r}")
        self._host, self._port = host, int(port)
        self._event_log = event_log
        self.events: deque[dict] = deque(maxlen=1000)
        self.engine = make_engine(self._record_event)
        self.router = Router(self.engine)
        self._connections: set[_Connection] = set()
        self._server: asyncio.Server | None = None

    def _record_event(self, record: dict) -> None:
        record = {"ts": time.time(), **record}
        self.events.append(record)
        if self._event_log is not None:
            try:
                self._event_log.write(json.dumps(record, sort_keys=True) + "\n")
                self._event_log.flush()
            except OSError:  # a full disk or a closed pipe must not stop the broker
                pass

    @property
    def port(self) -> int:
        """Bound port; meaningful after start (resolves a configured port 0)."""
        return self._port

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            self._server = await loop.create_server(lambda: _Connection(self), self._host, self._port)
        except OSError as exc:
            raise BindError(f"cannot bind {self._host}:{self._port}: {exc}") from exc
        self._port = self._server.sockets[0].getsockname()[1]
        self._record_event({"event": "listening", "session": None, "reason": f"{self._host}:{self._port}"})

    async def shutdown(self) -> None:
        """Stop accepting, abort every connection (dropping unsent bytes, so a
        stalled peer cannot hold shutdown up) and wait until each is lost;
        ``wait_closed`` comes last, as since Python 3.12.1 it waits for them too."""
        if self._server is not None:
            self._server.close()
        connections = list(self._connections)
        for connection in connections:
            connection.transport.abort()
        await asyncio.gather(*(connection.lost for connection in connections))
        if self._server is not None:
            await self._server.wait_closed()

    def admin_status(self) -> dict:
        """Read-only point-in-time snapshot of sessions and topic registrations."""
        return {
            "listen": f"{self._host}:{self._port}",
            "sessions": self.engine.status(),
            "topics": {topic: len(subs) for topic, subs in list(self.engine.topics.items()) if subs},
        }


class BrokerThread:
    """Serve a :class:`BrokerService` on a daemon event-loop thread until :meth:`stop`.

    The engine is built, and the port bound, on the caller's thread, so a
    configuration or bind error raises there; after :meth:`start` returns
    the server is accepting.
    """

    def __init__(self, config: BrokerConfig) -> None:
        self.service = BrokerService(config.listen_address, config.engine)

    @property
    def port(self) -> int:
        return self.service.port

    def start(self) -> "BrokerThread":
        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(self.service.start())
        except BaseException:
            self._loop.close()
            raise
        self._thread = threading.Thread(target=self._loop.run_forever, name="daxiot-broker", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self.service.shutdown(), self._loop).result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.run_until_complete(self._loop.shutdown_default_executor())
        self._loop.close()

    def __enter__(self) -> "BrokerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

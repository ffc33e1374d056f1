"""Runnable broker: TCP listener, session registry, routing, and logging.

The service wraps a protocol engine with transport plumbing; the same server
carries the DAXiot engine and the benchmark's plaintext baseline. Trusted-issuer
and revocation files are re-read on every verification, so edits take effect
on the next connect without a restart. Events are logged as line-delimited
JSON objects {ts, session, event, reason} and kept in a bounded in-memory
ring for the status snapshot and for tooling.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from collections import deque
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Callable

from .credential import RevocationRegistry, TrustedIssuerList
from .crypto import SigningKeyPair, generate_signing_keypair, to_agreement_keypair
from .did import DirectoryWebSource, Resolver
from .errors import BindError, ConfigError, CredentialError, DaxiotError, FramingError, decode_json
from .protocol import DaxiotBroker
from .wire import Packet, PacketKind, ReasonCode, decode_frame, encode_frame, frame_length

logger = logging.getLogger("daxiot.broker")

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


async def read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """Read one length-checked frame; ``None`` when the peer closed between frames."""
    try:
        header = await reader.readexactly(4)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    try:
        body = await reader.readexactly(frame_length(header))
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise FramingError("connection closed mid-frame") from exc
    return header + body


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
    ``is_closing()``, such as an asyncio ``StreamWriter``.
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


class BrokerService:
    """Serve one protocol engine over TCP.

    ``make_engine`` is called once with the service's event sink and returns
    the engine: anything whose ``handle_connect``, ``handle_packet`` and
    ``handle_disconnect`` return a :class:`Reply`, such as the
    :class:`DaxiotBroker` that :meth:`BrokerConfig.engine` builds.
    """

    def __init__(self, listen_address: str, make_engine: Callable[[EventSink], object]) -> None:
        host, _, port = listen_address.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(f"listen_address must be host:port, got {listen_address!r}")
        self._host, self._port = host, int(port)
        self.events: deque[dict] = deque(maxlen=1000)
        self.engine = make_engine(self._record_event)
        self.router = Router(self.engine)
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._server: asyncio.Server | None = None

    def _record_event(self, record: dict) -> None:
        record = {"ts": time.time(), **record}
        self.events.append(record)
        logger.info("%s", json.dumps(record, sort_keys=True))

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        """Bound port; meaningful after start (resolves a configured port 0)."""
        return self._port

    async def start(self) -> None:
        try:
            self._server = await asyncio.start_server(self._handle_connection, self._host, self._port)
        except OSError as exc:
            raise BindError(f"cannot bind {self._host}:{self._port}: {exc}") from exc
        self._port = self._server.sockets[0].getsockname()[1]
        self._record_event(
            {"event": "listening", "session": None, "reason": f"{self._host}:{self._port}"}
        )

    async def shutdown(self) -> None:
        """Stop accepting, drop every open connection and wait for its handler.

        Aborting discards unsent bytes, so a peer that stopped reading cannot
        hold shutdown up; each handler then ends as on a peer's close, and no
        task is left for the event loop to cancel. ``wait_closed`` comes last:
        since Python 3.12.1 it also waits for every accepted connection.
        """
        if self._server is not None:
            self._server.close()
        handlers = list(self._connections)
        for writer in self._connections.values():
            writer.transport.abort()
        await asyncio.gather(*handlers, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    def admin_status(self) -> dict:
        """Read-only point-in-time snapshot of sessions and topic registrations."""
        return {
            "listen": f"{self._host}:{self._port}",
            "sessions": self.engine.status(),
            "topics": {topic: len(subs) for topic, subs in list(self.engine.topics.items()) if subs},
        }

    # -- connection handling ------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        session_id: str | None = None
        handler = asyncio.current_task()
        self._connections[handler] = writer
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                session_id, close = self.router.receive(writer, session_id, frame)
                await writer.drain()
                if close:
                    break
        except (DaxiotError, ConnectionError) as exc:
            self._record_event(
                {"event": "connection_error", "session": session_id, "reason": type(exc).__name__}
            )
            try:
                writer.write(
                    encode_frame(Packet(kind=PacketKind.DISCONNECT, reason_code=ReasonCode.PROTOCOL_ERROR))
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            self.router.drop(session_id)
            del self._connections[handler]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


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

"""Runnable broker: TCP listener, session registry, routing, and logging.

The service wraps the protocol engine with transport plumbing. Trusted-issuer
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
from dataclasses import dataclass
from pathlib import Path

from .credential import RevocationRegistry, TrustedIssuerList
from .crypto import SigningKeyPair, generate_signing_keypair, to_agreement_keypair
from .did import DirectoryWebSource, Resolver
from .errors import BindError, ConfigError, DaxiotError, FramingError
from .protocol import DaxiotBroker
from .wire import Packet, PacketKind, ReasonCode, decode_frame, encode_frame, frame_length

logger = logging.getLogger("daxiot.broker")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BIND = 3

_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING, "error": logging.ERROR}


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
            data = json.loads(Path(path).read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read broker config {path}: {exc}") from exc
        missing = {f for f in ("listen_address", "broker_did", "signing_key_path", "til_path", "rr_path", "did_web_dir")} - set(data)
        if missing:
            raise ConfigError(f"broker config missing fields: {sorted(missing)}")
        return cls(**data)

    def host_port(self) -> tuple[str, int]:
        host, _, port = self.listen_address.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(f"listen_address must be host:port, got {self.listen_address!r}")
        return host, int(port)


class BrokerService:
    """One broker process: validates its configuration, then serves TCP."""

    def __init__(self, config: BrokerConfig, plaintext_tap: list | None = None) -> None:
        self.config = config
        host, port = config.host_port()
        self._host, self._port = host, port

        keypair = load_signing_key(config.signing_key_path)
        self.resolver = Resolver(DirectoryWebSource(config.did_web_dir))
        try:
            document = self.resolver.resolve(config.broker_did)
        except DaxiotError as exc:
            raise ConfigError(f"broker DID does not resolve: {exc}") from exc
        if document.verification_key != keypair.public:
            raise ConfigError("broker document verification key does not match the signing key")
        if document.agreement_key != to_agreement_keypair(keypair).public:
            raise ConfigError("broker document agreement key does not match the signing key")

        til_path, rr_path = Path(config.til_path), Path(config.rr_path)
        try:
            TrustedIssuerList.load(til_path)
            RevocationRegistry.load(rr_path)
        except (OSError, ValueError, DaxiotError) as exc:
            raise ConfigError(f"issuer list or revocation registry unreadable: {exc}") from exc

        self.events: deque[dict] = deque(maxlen=1000)
        self.engine = DaxiotBroker(
            signing_keypair=keypair,
            broker_did=config.broker_did,
            resolver=self.resolver,
            til_source=lambda: TrustedIssuerList.load(til_path),
            rr_source=lambda: RevocationRegistry.load(rr_path),
            event_sink=self._record_event,
            plaintext_tap=plaintext_tap,
        )
        self._writers: dict[str, asyncio.StreamWriter] = {}
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._server: asyncio.Server | None = None
        logger.setLevel(_LOG_LEVELS.get(config.log_level.lower(), logging.INFO))

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
                packet = decode_frame(frame)
                if session_id is None:
                    session_id, reply = self.engine.handle_connect(packet)
                    if session_id is not None:
                        self._writers[session_id] = writer
                else:
                    reply = self.engine.handle_packet(session_id, packet)
                for out in reply.packets:
                    writer.write(encode_frame(out))
                for target_id, out in reply.forwards:
                    target = self._writers.get(target_id)
                    if target is not None and not target.is_closing():
                        target.write(encode_frame(out))
                        if out.kind is PacketKind.DISCONNECT:
                            # The engine ended that session; its handler
                            # reads EOF once the frame is flushed.
                            target.close()
                await writer.drain()
                if reply.close:
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
            if session_id is not None:
                self.engine.handle_disconnect(session_id)
                self._writers.pop(session_id, None)
            del self._connections[handler]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class EventLoopThread:
    """Serve on a background event-loop thread until :meth:`stop`.

    Subclasses bind in :meth:`_open` and release in :meth:`_close`. An error
    raised while binding re-raises in the caller's thread; after :meth:`start`
    returns the server is bound and accepting.
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    async def _open(self) -> None:
        raise NotImplementedError

    async def _close(self) -> None:
        raise NotImplementedError

    def start(self) -> EventLoopThread:
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), name=self._name, daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise ConfigError(f"{self._name} thread did not start in time")
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self._open()
        except BaseException as exc:  # surfaced to the starting thread
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self._close()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> EventLoopThread:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class BrokerThread(EventLoopThread):
    """Run a BrokerService on a background event-loop thread.

    Configuration errors raise in the caller's thread during construction.
    """

    def __init__(self, config: BrokerConfig, plaintext_tap: list | None = None) -> None:
        self.service = BrokerService(config, plaintext_tap=plaintext_tap)
        super().__init__("daxiot-broker")

    async def _open(self) -> None:
        await self.service.start()

    async def _close(self) -> None:
        await self.service.shutdown()

    @property
    def port(self) -> int:
        return self.service.port

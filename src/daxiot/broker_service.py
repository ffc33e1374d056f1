"""Runnable broker: TCP listener, session registry, routing, and event log.

One object is the broker: :class:`BrokerService` binds in ``start``, serves
on its own thread and drops every connection in ``stop``. The thread runs one
``selectors`` loop over the listening sockets and every connection, so the
broker process loads neither asyncio nor ssl. The same server carries the
DAXiot engine and the benchmark's plaintext baseline. Each connection is a
non-blocking socket with a buffer of the bytes the kernel has not yet taken:
the service stops reading a peer whose replies back up, and ends one that
leaves more than :data:`MAX_UNSENT` bytes unsent. Trust files are
consulted on every verification and parsed again whenever they change, so
edits need no restart. Events go to an optional sink, a callable that takes
each event as a dict; :func:`json_lines` makes one that writes a stream.
"""

from __future__ import annotations

import json
import logging
import selectors
import socket
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
from .wire import MAX_FRAME, Packet, PacketKind, ReasonCode, decode_frame, encode_frame, frame_length

EventSink = Callable[[dict], None]
LOG_LEVELS = ("debug", "info", "warning", "error")
MAX_UNSENT = 4 * MAX_FRAME  # unsent bytes past which a connection is ended, reason SlowConsumer
_HIGH_WATER = 64 * 1024  # unsent bytes above which the peer is not read (asyncio's mark)
_LOW_WATER = 16 * 1024  # unsent bytes at or below which it is read again
_RECEIVE_AREA = 64 * 1024  # bytes one socket read may return
_EVENT_ENCODER = json.JSONEncoder(sort_keys=True)
_log = logging.getLogger(__name__)


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
    ``is_closing()``: a service connection, or a ``LoopbackConnection``.
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


class _Connection:
    """One accepted TCP connection: a non-blocking socket served by the service's loop.

    Each read lands in the service's one receive area and is copied out at
    once into this connection's buffer of unframed bytes; the loop serves one
    connection at a time, so all of them can share the area. A fresh bytes
    object per read would cost more: glibc serves a 256 KiB one with mmap and
    munmap, and on a 2-vCPU VM a small read took about 20 µs that way and
    2 µs into a kept buffer.

    A frame is sent at once. What the kernel does not take waits in
    ``_unsent``, and the loop watches the socket for writability only while
    bytes wait there. Above 64 KiB unsent the peer is not read, and below
    16 KiB it is read again; past :data:`MAX_UNSENT` the connection is ended,
    so a subscriber that does not read cannot make the broker hold more.
    """

    __slots__ = ("_service", "sock", "_buffer", "_unsent", "_session_id", "_paused", "_closing")

    def __init__(self, service: "BrokerService", sock: socket.socket) -> None:
        self._service = service
        self.sock: socket.socket | None = sock  # None once the connection has ended
        self._buffer = bytearray()
        self._unsent = bytearray()
        self._session_id: str | None = None
        self._paused = False
        self._closing = False
        service._selector.register(sock, selectors.EVENT_READ, self)

    def ready(self, events: int) -> None:
        """Serve what the selector reported: send what waits, then read."""
        if events & selectors.EVENT_WRITE and self._unsent:
            self._flush()
        if events & selectors.EVENT_READ and not self._closing:
            self._read()

    def _read(self) -> None:
        service = self._service
        try:
            nbytes = self.sock.recv_into(service._receive_area)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:  # reset by the peer
            self.abort()
            return
        if not nbytes:  # the peer closed its side
            self.close()
            return
        buffer = self._buffer
        buffer += service._receive_area[:nbytes]
        try:
            while len(buffer) >= 4 and len(buffer) >= (end := 4 + frame_length(buffer[:4])):
                frame = bytes(buffer[:end])
                del buffer[:end]
                self._session_id, close = service.router.receive(self, self._session_id, frame)
                if close or self._closing:
                    break
            else:
                return  # wait for the rest of the frame
        except DaxiotError as exc:
            self._error(type(exc).__name__)
            self.write(encode_frame(Packet(kind=PacketKind.DISCONNECT, reason_code=ReasonCode.PROTOCOL_ERROR)))
        buffer.clear()
        self.close()

    def write(self, frame: bytes) -> None:
        """Send ``frame`` now, keeping what the kernel does not take; a closing connection takes nothing more."""
        if self._closing:
            return
        unsent = self._unsent
        if not unsent:
            try:
                sent = self.sock.send(frame)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:  # the peer is gone
                self.close()
                return
            if sent == len(frame):
                return
            unsent += memoryview(frame)[sent:]
            self._watch()
        else:
            unsent += frame
        if len(unsent) > MAX_UNSENT:
            self._error("SlowConsumer")
            unsent.clear()
            self.close()
        elif len(unsent) > _HIGH_WATER and not self._paused:
            self._paused = True
            self._watch()

    def _flush(self) -> None:
        unsent = self._unsent
        try:
            del unsent[: self.sock.send(unsent)]
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self.abort()
            return
        if self._closing and not unsent:
            self.abort()
            return
        if len(unsent) <= _LOW_WATER:
            self._paused = False
        self._watch()

    def _watch(self) -> None:
        """Watch for what this connection waits on: reads unless closing or
        paused, writability while bytes are unsent."""
        events = 0 if self._closing or self._paused else selectors.EVENT_READ
        if self._unsent:
            events |= selectors.EVENT_WRITE
        self._service._selector.modify(self.sock, events, self)

    def is_closing(self) -> bool:
        return self._closing

    def close(self) -> None:
        """Read no more, and end the connection once its unsent bytes are sent.
        With none unsent it ends after the loop's current callback, as it may
        run inside the router, while another connection's frame is applied."""
        if not self._closing:
            self._closing = True
            if self._unsent:
                self._watch()
            else:
                self._service._ending.append(self)

    def abort(self) -> None:
        """End the connection now, dropping its unsent bytes, and tell the
        router; only the first call does anything, and none raises."""
        sock = self.sock
        if sock is None:
            return
        self.sock = None
        self._closing = True
        self._unsent.clear()
        service = self._service
        service._selector.unregister(sock)
        sock.close()
        service._connections.discard(self)
        try:
            if self._buffer:
                self._error(FramingError.__name__)  # the peer left mid-frame
            service.router.drop(self._session_id)
        except Exception:
            _log.exception("ending the connection of session %s failed", self._session_id)

    def _error(self, reason: str) -> None:
        self._service._emit("connection_error", self._session_id, reason)


class BrokerService:
    """Serve one protocol engine over TCP on the daemon ``daxiot-broker``
    thread, from :meth:`start` until :meth:`stop`.

    The thread runs one ``selectors`` loop over the listening sockets and
    every connection. The engine is anything whose ``handle_connect``,
    ``handle_packet`` and ``handle_disconnect`` return a :class:`Reply`, such
    as a :class:`DaxiotBroker`. The service sends its own events,
    ``listening`` and ``connection_error``, to ``event_sink``.
    """

    def __init__(self, listen_address: str, engine, event_sink: EventSink | None = None) -> None:
        self._host, self._port = decode_address(listen_address, ConfigError, "listen_address")
        self._event_sink = event_sink
        self.engine = engine
        self.router = Router(self.engine)
        self._connections: set[_Connection] = set()
        self._ending: list[_Connection] = []  # closed with nothing unsent, to end after the current callback
        self._idle_listeners: list[socket.socket] = []  # not watched after a failed accept, until the loop next wakes
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
        Every address the host resolves to is bound, each with
        ``SO_REUSEADDR``, IPv6 only on an IPv6 socket, and a backlog of 100.
        Whatever raises before the thread starts, a failing event sink
        included, leaves nothing running: every socket and the selector are
        closed. When it returns, the server is accepting."""
        self._selector = selectors.DefaultSelector()
        self._wake, self._waker = socket.socketpair()
        self._listeners: list[socket.socket] = []
        try:
            self._selector.register(self._wake, selectors.EVENT_READ)
            try:
                infos = socket.getaddrinfo(self._host, self._port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE)
                for family, kind, proto, _, address in dict.fromkeys(infos):
                    listener = socket.socket(family, kind, proto)
                    self._listeners.append(listener)
                    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                    if family == socket.AF_INET6:
                        listener.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 1)
                    listener.bind(address)
                    listener.listen(100)
                    listener.setblocking(False)
                    self._selector.register(listener, selectors.EVENT_READ)
            except OSError as exc:
                raise BindError(f"cannot bind {self._address}: {exc}") from exc
            self._port = self._listeners[0].getsockname()[1]
            self._emit("listening", None, self._address)
            self._thread = threading.Thread(target=self._serve, name="daxiot-broker", daemon=True)
            self._thread.start()
        except BaseException:
            self._close()
            raise
        return self

    def _serve(self) -> None:
        """The loop, until :meth:`stop` wakes it; then it aborts every connection.

        A handler that raises anything but what the connection handles itself
        is logged with its traceback; its connection alone is ended, and the
        loop serves on."""
        selector, ending, idle = self._selector, self._ending, self._idle_listeners
        try:
            while True:
                ready = selector.select(1.0 if idle else None)
                while idle:
                    selector.register(idle.pop(), selectors.EVENT_READ)
                for key, events in ready:
                    connection = key.data
                    if connection is None:
                        if key.fileobj is self._wake:
                            return
                        self._accept(key.fileobj)
                        continue
                    try:
                        connection.ready(events)
                    except Exception:
                        _log.exception("session %s: unexpected error, its connection is ended", connection._session_id)
                        connection._buffer.clear()  # frames left unread, not a torn one
                        connection.abort()
                    while ending:
                        ending.pop().abort()
        finally:
            for connection in list(self._connections):
                connection.abort()

    def _accept(self, listener: socket.socket) -> None:
        try:
            sock, _ = listener.accept()
        except (BlockingIOError, InterruptedError, ConnectionAbortedError):
            return
        except OSError as exc:  # out of descriptors, say: leave the listener until the next wake-up, 1 s at most
            _log.error("cannot accept on %s: %s", self._address, exc)
            self._selector.unregister(listener)
            self._idle_listeners.append(listener)
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._connections.add(_Connection(self, sock))

    def stop(self) -> None:
        """Wake the loop, which aborts every connection, dropping unsent bytes
        so that a stalled peer cannot hold shutdown up; then end the thread and
        close the listeners, the wake-up pair and the selector."""
        self._waker.send(b"\0")
        self._thread.join()
        self._close()

    def _close(self) -> None:
        for sock in (*self._listeners, self._wake, self._waker):
            sock.close()
        self._selector.close()

    def __enter__(self) -> "BrokerService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

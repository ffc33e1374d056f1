"""Handshake and messaging state machines for client and broker roles.

The handshake runs over the connect/challenge/response exchange:

* the client connects under a fresh ephemeral identity and ships its static
  identity encrypted under an ephemeral-static agreement, so the wire never
  shows who is connecting and connections are unlinkable; from then until
  step E it keeps only the one-pass unified key, and no X25519 key object;
* the broker answers with a challenge nonce encrypted under the one-pass
  unified key; decrypting it authenticates the broker to the client;
* the client answers with a selective credential presentation encrypted
  under that key at exactly the challenge nonce; decrypting it authenticates
  the client's static identity to the broker, and the verified disclosures
  become the session's publish/subscribe grant.

A client's phase is which of its fields are set: idle without a session key,
CONNECT sent with the key alone, challenged once its sending channel exists,
established once its receiving channel does. Each step sets its field last, so
a step that raises leaves the phase as it was. A DISCONNECT in place of any
reply the client awaits is the broker's refusal, raised as
:class:`ConnectionRejected` with its reason code.

An envelope is bytes, exactly as the wire carries it: the 24-byte nonce,
then ciphertext and tag. Every envelope, the handshake's included, is sealed
and opened by a :class:`Channel`. Every fresh nonce (the connect's, the
challenge's and the one the challenge carries, the broker-to-client start) is
a random 16-byte prefix at counter zero, made by :func:`_fresh_nonce`, so a
channel the peer starts (the connect, the challenge, the success
acknowledgement) must begin at counter zero. A handshake envelope that does
not decrypt means its sender does not hold the key: an authentication failure.

Nonce discipline after the challenge: each direction of a session is one
channel under the session key. The client-to-broker channel starts at the
challenge nonce; the broker-to-client channel starts at a fresh prefix
announced in the success acknowledgement, so the two directions never share
nonce space under the one session key. Every envelope takes the next value of
its channel, and a receiver accepts exactly that value and nothing else; a
publish takes two consecutive values (topic at n, payload at n+1), which
proves both fields belong to the same message. :func:`_seal_publish` and
:func:`_open_publish` alone know that layout. The broker forwards each
message to the topic's sessions in subscription order.

Refusals: the broker's handlers only raise; :meth:`DaxiotBroker._refuse` alone
turns the error into a reply, the end of the session where the README's refusal
table says so, and one event, the refusal's only record: its ``reason`` is the
error's exact class name (None for ``session_exhausted``), its ``step`` the step
(A-J). A library caller who wants the cause passes an ``event_sink``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from .credential import (
    AuthorizationGrant,
    Disclosure,
    Presentation,
    RevocationRegistry,
    SdJwtCredential,
    TrustedIssuerList,
    present,
    verify_presentation,
)
from .crypto import (
    NONCE_LEN,
    NONCE_PREFIX_LEN,
    TAG_LEN,
    SessionKey,
    SigningKeyPair,
    XChaCha20Poly1305,
    aead_decrypt,
    aead_encrypt,
    agreement_secret,
    ecdh_1pu,
    ecdh_1pu_receiver,
    ecdh_es,
    generate_signing_keypair,
    load_agreement_key,
    to_agreement_keypair,
)
from .did import Did, Resolver, didkey_encode
from .errors import (
    AuthenticationError,
    ConnectionRejected,
    CredentialError,
    CryptoError,
    DaxiotError,
    DidError,
    IntegrityError,
    MalformedCredential,
    NonceOverflowError,
    ProtocolError,
    ProtocolMismatch,
    ProtocolOrderError,
    ReplayError,
    decode_text,
)
from .wire import Packet, PacketKind, ReasonCode

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

AUTH_METHOD = "DAXiot"

_ES_LABEL = b"DAXiot-ES"
_ONE_PU_LABEL = b"DAXiot-1PU"
_LAST_COUNTER = 2**64 - 1  # never used: a sender stops one short of it


def _es_context(ephemeral_did: str, broker_did: str) -> bytes:
    return _ES_LABEL + ephemeral_did.encode("utf-8") + broker_did.encode("utf-8")


def _one_pu_context(static_did: str, broker_did: str) -> bytes:
    return _ONE_PU_LABEL + static_did.encode("utf-8") + broker_did.encode("utf-8")


def _aad(kind: PacketKind, ephemeral_did: bytes) -> bytes:
    # Binds each envelope to its packet kind and session (the UTF-8 ephemeral
    # DID), blocking cross-context splicing of otherwise valid ciphertexts.
    return bytes([kind]) + ephemeral_did


def _fresh_nonce() -> bytes:
    """A random 16-byte prefix at counter zero."""
    return os.urandom(NONCE_PREFIX_LEN) + bytes(8)


class Channel:
    """One run of nonces under one key: its cipher, its AAD binding, its prefix and counter.

    The only code that seals or opens an envelope. The nonce at counter n is
    ``prefix || n`` as 8 big-endian bytes. :meth:`seal` encrypts under the
    next nonces and :meth:`open` accepts exactly those, so a nonce is never
    used twice under the key. A call that needs k nonces requires
    ``counter + k <= 2**64 - 1``, checked before anything is committed: the
    last counter is never used, and an exhausted channel raises
    :class:`NonceOverflowError` and keeps its counter. A one-shot handshake
    envelope is a channel of its own at a fresh nonce; :meth:`open_first`
    opens one the peer started, the one place that requires counter zero.
    """

    __slots__ = ("key", "cipher", "_did", "counter")

    def __init__(self, key: SessionKey, ephemeral_did: str, nonce: bytes) -> None:
        if len(nonce) != NONCE_LEN:
            raise CryptoError(f"nonce must be {NONCE_LEN} bytes, got {len(nonce)}")
        self.key = key
        self._did = ephemeral_did.encode("utf-8")
        self.cipher = XChaCha20Poly1305(key, nonce[:NONCE_PREFIX_LEN])
        self.counter = int.from_bytes(nonce[NONCE_PREFIX_LEN:], "big")

    @property
    def nonce(self) -> bytes:
        """The next nonce this channel uses or accepts."""
        return self.cipher.prefix + self.counter.to_bytes(8, "big")

    def _next(self, count: int) -> int:
        """The first of the next ``count`` counters; nothing is committed."""
        first = self.counter
        if first + count > _LAST_COUNTER:
            raise NonceOverflowError("nonce counter exhausted; terminate the session")
        return first

    def seal(self, kind: PacketKind, *plaintexts: bytes) -> list[bytes]:
        """Encrypt each plaintext into an envelope under the next consecutive nonce."""
        first = self._next(len(plaintexts))
        cipher, aad = self.cipher, _aad(kind, self._did)
        envelopes = [
            aead_encrypt(cipher, cipher.prefix + (first + offset).to_bytes(8, "big"), plaintext, aad)
            for offset, plaintext in enumerate(plaintexts)
        ]
        self.counter = first + len(plaintexts)
        return envelopes

    def open(self, kind: PacketKind, *envelopes: bytes | None) -> list[bytes]:
        """Decrypt the packet's envelopes, which must carry exactly the next
        consecutive nonces; each nonce is checked before its envelope's length."""
        if None in envelopes:
            raise ProtocolError(f"{kind.name.lower()} is missing an encrypted field")
        first = self._next(len(envelopes))
        prefix = self.cipher.prefix
        for offset, envelope in enumerate(envelopes):
            if envelope[:NONCE_LEN] != prefix + (first + offset).to_bytes(8, "big"):
                raise ReplayError(f"{kind.name.lower()} does not use the next expected nonce")
            _envelope(envelope, kind)
        cipher, aad = self.cipher, _aad(kind, self._did)
        plaintexts = [aead_decrypt(cipher, envelope, aad) for envelope in envelopes]
        self.counter = first + len(envelopes)
        return plaintexts

    def authenticate(self, kind: PacketKind, envelope: bytes | None) -> bytes:
        """Open one handshake envelope: only a holder of the key can have sealed
        it, so a failed decrypt means the sender is not who it claims to be."""
        try:
            (plaintext,) = self.open(kind, envelope)
        except IntegrityError as exc:
            raise AuthenticationError(
                f"{kind.name.lower()} does not decrypt; the sender does not hold the key"
            ) from exc
        return plaintext

    @classmethod
    def open_first(
        cls, key: SessionKey, ephemeral_did: str, kind: PacketKind, envelope: bytes | None
    ) -> tuple[Channel, bytes]:
        """Open the first envelope of a channel the peer started at a fresh
        nonce, so at counter zero; return the channel, now at one, and the plaintext."""
        nonce = _envelope(envelope, kind)[:NONCE_LEN]
        if nonce[NONCE_PREFIX_LEN:] != bytes(8):  # checked before the channel derives its subkey
            raise ProtocolOrderError(f"{kind.name.lower()} must start its channel at counter zero")
        channel = cls(key, ephemeral_did, nonce)
        return channel, channel.authenticate(kind, envelope)


def _envelope(data: bytes | None, kind: PacketKind) -> bytes:
    """The packet's envelope, present and long enough for a nonce and a tag."""
    if data is None:
        raise ProtocolError(f"{kind.name.lower()} is missing its encrypted field")
    if len(data) < NONCE_LEN + TAG_LEN:
        raise ProtocolError(f"{kind.name.lower()} carries an envelope of {len(data)} bytes, shorter than a nonce and a tag")
    return data


def _seal_publish(channel: Channel, topic: bytes, payload: bytes) -> Packet:
    """Step J on the sending side: the topic at counter n, the payload at n+1."""
    topic_envelope, payload_envelope = channel.seal(PacketKind.PUBLISH, topic, payload)
    return Packet(kind=PacketKind.PUBLISH, topic=topic_envelope, payload=payload_envelope)


def _open_publish(channel: Channel, packet: Packet) -> tuple[str, bytes]:
    """Step J on the receiving side: both envelopes, then a strict UTF-8 topic."""
    topic, payload = channel.open(PacketKind.PUBLISH, packet.topic, packet.payload)
    return decode_text(topic, ProtocolError, "publish topic"), payload


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class DaxiotClient:
    """Publisher/subscriber protocol engine, transport-agnostic.

    Consumes and produces :class:`Packet` values; a fresh ephemeral identity
    is generated per connection so successive connections are unlinkable.
    """

    def __init__(
        self,
        static_keypair: SigningKeyPair,
        credential: SdJwtCredential,
        disclosures: Iterable[Disclosure],
        resolver: Resolver,
    ) -> None:
        self._static_secret = agreement_secret(static_keypair)
        self.static_did = str(didkey_encode(static_keypair.public))
        self._credential = credential
        self._disclosures = list(disclosures)
        self._resolver = resolver
        self._reset_session()

    def _reset_session(self) -> None:
        self.ephemeral_did: str | None = None
        self.broker_did: str | None = None
        self._session_key: SessionKey | None = None  # the 1PU key, derived in begin_connect
        self._send: Channel | None = None  # set at step F
        self._recv: Channel | None = None  # set at step H
        self._pending = {PacketKind.SUBACK: 0, PacketKind.PUBACK: 0}  # acks the broker owes

    # -- handshake ----------------------------------------------------------

    def begin_connect(self, broker_did: Did | str) -> Packet:
        """Steps A and B: fresh ephemeral identity, encrypted static identity."""
        if self._session_key is not None:
            raise ProtocolOrderError("cannot connect: a session is already open; disconnect first")
        broker_did = str(Did.parse(broker_did))
        document = self._resolver.resolve(broker_did)

        ephemeral = generate_signing_keypair()
        ephemeral_key = load_agreement_key(to_agreement_keypair(ephemeral).secret)
        ephemeral_did = str(didkey_encode(ephemeral.public))

        k_es = ecdh_es(
            ephemeral_key,
            document.agreement_key,
            _es_context(ephemeral_did, broker_did),
        )
        (envelope,) = Channel(k_es, ephemeral_did, _fresh_nonce()).seal(
            PacketKind.CONNECT, self.static_did.encode("utf-8")
        )
        self._session_key = ecdh_1pu(
            load_agreement_key(self._static_secret),
            ephemeral_key,
            document.agreement_key,
            _one_pu_context(self.static_did, broker_did),
        )
        self.ephemeral_did = ephemeral_did
        self.broker_did = broker_did
        return Packet(
            kind=PacketKind.CONNECT,
            client_id=ephemeral_did,
            auth_method=AUTH_METHOD,
            auth_data=envelope,
        )

    def handle_challenge(self, packet: Packet) -> Packet:
        """Steps E and F: authenticate the broker, answer with a presentation."""
        if self._session_key is None or self._send is not None:
            raise ProtocolOrderError("cannot process a challenge: no CONNECT is awaiting one")
        self._reply(packet, PacketKind.AUTH_CHALLENGE)
        _, plaintext = Channel.open_first(
            self._session_key, self.ephemeral_did, PacketKind.AUTH_CHALLENGE, packet.auth_data
        )
        try:
            send = Channel(self._session_key, self.ephemeral_did, plaintext)
        except CryptoError as exc:
            raise ProtocolError(f"challenge payload is not a nonce: {exc}") from exc

        presentation = present(self._credential, self._disclosures, self.broker_did)
        (response,) = send.seal(PacketKind.AUTH_RESPONSE, presentation.compact().encode("utf-8"))
        self._send = send
        return Packet(kind=PacketKind.AUTH_RESPONSE, auth_data=response)

    def handle_connack(self, packet: Packet) -> None:
        """Step H, client side: confirm the broker accepted the credential."""
        if self._send is None or self._recv is not None:
            raise ProtocolOrderError("cannot process a connection ack: no authentication response is awaiting one")
        self._reply(packet, PacketKind.CONNACK)
        if packet.reason_code is not ReasonCode.SUCCESS:
            reason = packet.reason_code.name if packet.reason_code is not None else "no reason"
            raise ConnectionRejected(f"broker rejected the connection: {reason}", packet.reason_code)
        recv, status = Channel.open_first(
            self._session_key, self.ephemeral_did, PacketKind.CONNACK, packet.auth_data
        )
        if status != bytes([ReasonCode.SUCCESS]):
            raise AuthenticationError("connection ack payload contradicts its reason code")
        self._recv = recv

    # -- established-session operations --------------------------------------

    def subscribe(self, topic: str) -> Packet:
        if self._recv is None:
            raise ProtocolOrderError("cannot subscribe: no session is established")
        (envelope,) = self._send.seal(PacketKind.SUBSCRIBE, topic.encode("utf-8"))
        self._pending[PacketKind.SUBACK] += 1
        return Packet(kind=PacketKind.SUBSCRIBE, topic=envelope)

    def handle_suback(self, packet: Packet) -> ReasonCode:
        return self._reply(packet, PacketKind.SUBACK)

    def publish(self, topic: str, payload: bytes) -> Packet:
        """Step J, publisher side: topic at counter n, payload at n+1."""
        if self._recv is None:
            raise ProtocolOrderError("cannot publish: no session is established")
        packet = _seal_publish(self._send, topic.encode("utf-8"), payload)
        self._pending[PacketKind.PUBACK] += 1
        return packet

    def handle_puback(self, packet: Packet) -> ReasonCode:
        return self._reply(packet, PacketKind.PUBACK)

    def handle_publish(self, packet: Packet) -> tuple[str, bytes]:
        """Step J, subscriber side: decrypt a forwarded message."""
        if self._recv is None:
            raise ProtocolOrderError("cannot receive a publish: no session is established")
        self._reply(packet, PacketKind.PUBLISH)
        return _open_publish(self._recv, packet)

    def _reply(self, packet: Packet, kind: PacketKind) -> ReasonCode:
        """Check that the broker sent ``kind``, settling one request if it is an
        ack; a DISCONNECT in its place is the broker's refusal, with its reason code."""
        if packet.kind is not kind:
            if packet.kind is PacketKind.DISCONNECT:
                raise ConnectionRejected(f"broker disconnected instead of sending {kind.name}", packet.reason_code)
            raise ProtocolOrderError(f"expected {kind.name}, got {packet.kind.name}")
        if kind in self._pending:
            if self._pending[kind] == 0:
                raise ProtocolOrderError(f"{kind.name} without an outstanding request")
            self._pending[kind] -= 1
        return packet.reason_code if packet.reason_code is not None else ReasonCode.PROTOCOL_ERROR

    def disconnect(self) -> Packet:
        """Leave the session; the next connect gets a fresh ephemeral identity."""
        self._reset_session()
        return Packet(kind=PacketKind.DISCONNECT, reason_code=ReasonCode.SUCCESS)


# ---------------------------------------------------------------------------
# Broker
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class BrokerSession:
    """Per-client broker state keyed by the client's ephemeral DID.

    Step H sets ``grant`` and ``b2c`` together, and a failed step H ends the
    session, so a session is established exactly when ``b2c`` is set.
    """

    static_did: str
    c2b: Channel
    grant: AuthorizationGrant | None = None
    b2c: Channel | None = None
    topics: frozenset[str] = frozenset()  # what it subscribed to, so eviction visits only these


@dataclass(slots=True)
class Reply:
    """Broker reaction to one inbound packet: only what ``broker_service.Router``
    applies, on TCP and on the loopback. ``packets`` go back to the sender and
    ``forwards`` to other sessions, as (session id, packet); a forwarded
    DISCONNECT ends that session's connection, as ``close`` ends the sender's.
    A refusal's cause is not here: its event is the only record."""

    packets: list[Packet] = field(default_factory=list)
    forwards: list[tuple[str, Packet]] = field(default_factory=list)
    close: bool = False


# The acknowledgement a refused packet gets, for the kinds that have one.
_ACKS = {
    PacketKind.AUTH_RESPONSE: PacketKind.CONNACK,
    PacketKind.SUBSCRIBE: PacketKind.SUBACK,
    PacketKind.PUBLISH: PacketKind.PUBACK,
}
# The step of the exchange (A-J) that refuses or denies a packet of each kind;
# any other kind has none. A credential refusal of an AUTH_RESPONSE is step H's.
_STEPS = {
    PacketKind.CONNECT: "C",
    PacketKind.AUTH_RESPONSE: "G",
    PacketKind.SUBSCRIBE: "I",
    PacketKind.PUBLISH: "J",
}
# The handler of each kind a client may send on its session, but DISCONNECT.
_HANDLERS = {
    PacketKind.AUTH_RESPONSE: "handle_auth_response",
    PacketKind.SUBSCRIBE: "handle_subscribe",
    PacketKind.PUBLISH: "handle_publish",
}


class DaxiotBroker:
    """Broker protocol engine: sessions, authorization, and topic routing.

    Transport-agnostic and single-threaded by contract: callers must
    serialize invocations (an asyncio event loop or one lock suffices).
    The trusted-issuer list at ``til_path`` and the revocation registry at
    ``rr_path`` are loaded on every verification, so edits take effect
    without a restart; a file is parsed again only when it changed. A returning
    peer's issuer signature and static-key conversion are memoized in
    :mod:`daxiot.crypto`, while membership, revocation, the subject binding,
    the disclosure digests and the grant are checked on every connect.
    """

    def __init__(
        self,
        signing_keypair: SigningKeyPair,
        broker_did: Did | str,
        resolver: Resolver,
        til_path: str | os.PathLike,
        rr_path: str | os.PathLike,
        event_sink: Callable[[dict], None] | None = None,
    ) -> None:
        self._agreement_secret = agreement_secret(signing_keypair)
        self._static_key: X25519PrivateKey | None = None  # loaded on the first connect
        self.broker_did = str(Did.parse(broker_did))
        self._resolver = resolver
        self._til_path = til_path
        self._rr_path = rr_path
        self._event_sink = event_sink
        self.sessions: dict[str, BrokerSession] = {}
        self.topics: dict[str, dict[str, BrokerSession]] = {}
        self._seen_connect_nonces: set[bytes] = set()

    # -- helpers --------------------------------------------------------------

    def _emit(self, event: str, session: str | None = None, reason: str | None = None, **step: str | None) -> None:
        if self._event_sink is not None:
            self._event_sink({"event": event, "session": session, "reason": reason, **step})

    # -- refusal policy ------------------------------------------------------------

    def _refuse(self, session_id: str | None, kind: PacketKind, error: DaxiotError) -> Reply:
        """The one refusal policy: which event, which reply, whether the session ends.

        ``session_id`` is None for the first packet of a connection. A packet
        on a session the engine does not hold has nothing to refuse, so its
        error is raised. The rules apply in order; the README's refusal table
        lists them.
        """
        session = self.sessions.get(session_id)
        if session is None and session_id is not None:
            raise error
        reason: str | None = type(error).__name__
        code = (
            ReasonCode.NOT_AUTHORIZED if isinstance(error, CredentialError) else ReasonCode.PROTOCOL_ERROR
        )
        step = _STEPS.get(kind)
        if code is ReasonCode.NOT_AUTHORIZED and kind is PacketKind.AUTH_RESPONSE:
            step = "H"
        established = session is not None and session.b2c is not None
        ack = [Packet(kind=_ACKS[kind], reason_code=code)] if kind in _ACKS else []
        if isinstance(error, NonceOverflowError):
            event, reason, packets, ends = "session_exhausted", None, [], True
        elif session_id is None:
            event, packets, ends = "connect_rejected", [], True
        elif kind is PacketKind.AUTH_RESPONSE and established:
            # Only a replay or an injection gets here; a recorded frame must
            # not be able to kick a live session off the broker.
            event, packets, ends = "auth_rejected", [], False
        elif kind is PacketKind.AUTH_RESPONSE:
            event, packets, ends = "auth_rejected", ack, True
        elif kind in (PacketKind.SUBSCRIBE, PacketKind.PUBLISH) and established:
            event, packets, ends = f"{kind.name.lower()}_rejected", ack, False
        else:
            event, packets, ends = "protocol_error", ack, True
        self._emit(event, session_id, reason, step=step)
        if not ends:
            return Reply(packets=packets)
        if session_id is not None:
            self._evict(session_id)
        packets.append(Packet(kind=PacketKind.DISCONNECT, reason_code=code))
        return Reply(packets=packets, close=True)

    # -- dispatch --------------------------------------------------------------

    def handle_packet(self, session_id: str, packet: Packet) -> Reply:
        """Route one post-connect packet to its handler, which finds the session."""
        kind = packet.kind
        handler = _HANDLERS.get(kind)
        if handler is None and kind is PacketKind.DISCONNECT:
            return self.handle_disconnect(session_id)
        try:
            if handler is None:
                raise ProtocolOrderError(f"client must not send {kind.name} after its CONNECT")
            return getattr(self, handler)(session_id, packet)
        except DaxiotError as error:
            return self._refuse(session_id, kind, error)

    # -- handshake ---------------------------------------------------------------

    def handle_connect(self, packet: Packet) -> tuple[str | None, Reply]:
        """Steps C and D: authenticate the ephemeral identity, issue a challenge."""
        try:
            return self._process_connect(packet)
        except DaxiotError as error:
            return None, self._refuse(None, packet.kind, error)

    def _process_connect(self, packet: Packet) -> tuple[str, Reply]:
        if packet.kind is not PacketKind.CONNECT:
            raise ProtocolOrderError("first packet must be a connect")
        if packet.auth_method != AUTH_METHOD:
            raise ProtocolMismatch(
                f"authentication method {packet.auth_method!r} is not {AUTH_METHOD!r}"
            )
        if not packet.client_id:
            raise ProtocolError("connect carries no client id")
        if Did.parse(packet.client_id).method != "key":
            raise ProtocolError("client id must be a did:key")
        ephemeral_did = packet.client_id
        envelope = _envelope(packet.auth_data, PacketKind.CONNECT)

        # Replay detection comes first: an exactly re-delivered connect must
        # be classified as a replay even while its original session lives.
        nonce = envelope[:NONCE_LEN]
        if nonce in self._seen_connect_nonces:
            raise ReplayError("connect replays a previously seen nonce")

        if ephemeral_did in self.sessions:
            raise ProtocolOrderError(f"client id {ephemeral_did} already has a session")

        if self._static_key is None:
            self._static_key = load_agreement_key(self._agreement_secret)
        ephemeral_document = self._resolver.resolve(ephemeral_did, remember=False)
        k_es = ecdh_es(
            self._static_key,
            ephemeral_document.agreement_key,
            _es_context(ephemeral_did, self.broker_did),
        )
        _, static_did_raw = Channel.open_first(k_es, ephemeral_did, PacketKind.CONNECT, envelope)
        # Only a connect that decrypts is remembered, so garbage cannot grow the set.
        self._seen_connect_nonces.add(nonce)
        try:
            static = Did.parse(decode_text(static_did_raw, ProtocolError, "connect static DID"))
        except DidError as exc:
            raise ProtocolError(f"connect carries an invalid static DID: {exc}") from exc
        if static.method != "key":
            raise ProtocolError("static client identity must be a did:key")
        static_did = str(static)

        static_document = self._resolver.resolve(static_did)
        k_1pu = ecdh_1pu_receiver(
            self._static_key,
            ephemeral_document.agreement_key,
            static_document.agreement_key,
            _one_pu_context(static_did, self.broker_did),
        )

        challenge_nonce = _fresh_nonce()
        (challenge,) = Channel(k_1pu, ephemeral_did, _fresh_nonce()).seal(
            PacketKind.AUTH_CHALLENGE, challenge_nonce
        )
        self.sessions[ephemeral_did] = BrokerSession(
            static_did=static_did, c2b=Channel(k_1pu, ephemeral_did, challenge_nonce)
        )
        self._emit("challenge_sent", ephemeral_did)
        return ephemeral_did, Reply(
            packets=[Packet(kind=PacketKind.AUTH_CHALLENGE, auth_data=challenge)]
        )

    def handle_auth_response(self, session_id: str, packet: Packet) -> Reply:
        """Steps G and H: authenticate the static identity, verify the credential."""
        session = self.sessions.get(session_id)
        if session is None:
            raise ProtocolOrderError(f"no session {session_id}")
        if session.b2c is not None:
            if _envelope(packet.auth_data, PacketKind.AUTH_RESPONSE)[:NONCE_LEN] != session.c2b.nonce:
                raise ReplayError("authentication response replays a stale nonce")
            raise ProtocolOrderError("authentication response outside the handshake")
        compact = session.c2b.authenticate(PacketKind.AUTH_RESPONSE, packet.auth_data)
        grant = verify_presentation(
            Presentation.parse(decode_text(compact, MalformedCredential, "presentation")),
            expected_subject=session.static_did,
            verifier_did=self.broker_did,
            til=TrustedIssuerList.load(self._til_path),
            rr=RevocationRegistry.load(self._rr_path),
            resolver=self._resolver,
        )
        session.grant = grant
        session.b2c = Channel(session.c2b.key, session_id, _fresh_nonce())
        (connack_envelope,) = session.b2c.seal(PacketKind.CONNACK, bytes([ReasonCode.SUCCESS]))
        self._emit("authenticated", session_id, reason=session.static_did)
        return Reply(
            packets=[
                Packet(
                    kind=PacketKind.CONNACK,
                    reason_code=ReasonCode.SUCCESS,
                    auth_data=connack_envelope,
                )
            ]
        )

    # -- established-session operations -----------------------------------------

    def handle_subscribe(self, session_id: str, packet: Packet) -> Reply:
        """Step I: decrypt the topic, enforce the subscribe grant, register."""
        session = self.sessions.get(session_id)
        if session is None or session.b2c is None:
            raise ProtocolOrderError("session is not established")
        (raw,) = session.c2b.open(PacketKind.SUBSCRIBE, packet.topic)
        topic = decode_text(raw, ProtocolError, "subscribe topic")

        if topic not in session.grant.subscribe_topics:
            self._emit("subscribe_denied", session_id, step=_STEPS[packet.kind])
            return Reply(
                packets=[Packet(kind=PacketKind.SUBACK, reason_code=ReasonCode.NOT_AUTHORIZED)]
            )
        self.topics.setdefault(topic, {})[session_id] = session
        session.topics |= {topic}
        self._emit("subscribed", session_id)
        return Reply(packets=[Packet(kind=PacketKind.SUBACK, reason_code=ReasonCode.SUCCESS)])

    def handle_publish(self, session_id: str, packet: Packet) -> Reply:
        """Step J: enforce consecutive nonces and the publish grant, fan out."""
        session = self.sessions.get(session_id)
        if session is None or session.b2c is None:
            raise ProtocolOrderError("session is not established")
        topic, payload = _open_publish(session.c2b, packet)

        if topic not in session.grant.publish_topics:
            self._emit("publish_denied", session_id, step=_STEPS[packet.kind])
            return Reply(
                packets=[Packet(kind=PacketKind.PUBACK, reason_code=ReasonCode.NOT_AUTHORIZED)]
            )

        raw_topic = topic.encode("utf-8")
        forwards: list[tuple[str, Packet]] = []
        delivered = 0
        # A copy: ending an exhausted subscriber removes it from the table.
        for subscriber_id, subscriber in list(self.topics.get(topic, {}).items()):
            try:
                forwards.append((subscriber_id, _seal_publish(subscriber.b2c, raw_topic, payload)))
                delivered += 1
            except NonceOverflowError as error:
                # Ends the subscriber's session alone: its DISCONNECT is
                # forwarded to it, and the publisher still gets PUBACK.
                refusal = self._refuse(subscriber_id, PacketKind.PUBLISH, error)
                forwards += [(subscriber_id, out) for out in refusal.packets]
        self._emit("publish_forwarded", session_id, reason=str(delivered))
        return Reply(
            packets=[Packet(kind=PacketKind.PUBACK, reason_code=ReasonCode.SUCCESS)],
            forwards=forwards,
        )

    def handle_disconnect(self, session_id: str) -> Reply:
        if session_id in self.sessions:
            self._emit("disconnected", session_id)
            self._evict(session_id)
        return Reply(close=True)

    def _evict(self, session_id: str) -> None:
        for topic in self.sessions.pop(session_id).topics:
            subscribers = self.topics[topic]
            del subscribers[session_id]
            if not subscribers:
                del self.topics[topic]

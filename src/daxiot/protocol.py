"""Handshake and messaging state machines for client and broker roles.

The handshake runs over the connect/challenge/response exchange:

* the client connects under a fresh ephemeral identity and ships its static
  identity encrypted under an ephemeral-static agreement, so the wire never
  shows who is connecting and connections are unlinkable;
* the broker answers with a challenge nonce encrypted under the one-pass
  unified key; decrypting it authenticates the broker to the client;
* the client answers with a selective credential presentation encrypted
  under that key at exactly the challenge nonce; decrypting it authenticates
  the client's static identity to the broker, and the verified disclosures
  become the session's publish/subscribe grant.

Nonce discipline after the challenge: each direction of a session is one
:class:`Channel`, a run of prefix||counter nonces under the session key. The
client-to-broker channel starts at the challenge nonce; the broker-to-client
channel starts at a fresh prefix announced in the success acknowledgement, so
the two directions never share nonce space under the one session key. Every
envelope takes the next value of its channel, and a receiver accepts exactly
that value and nothing else; a publish takes two consecutive values (topic at
n, payload at n+1), which proves both fields belong to the same message.

Refusals: the broker's handlers only raise; :meth:`DaxiotBroker._refuse` alone
turns the error into an event, a reply and, where the table says so, the end
of the session. The README's refusal table lists every case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
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
    AeadEnvelope,
    Nonce,
    SessionKey,
    SigningKeyPair,
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


def _es_context(ephemeral_did: str, broker_did: str) -> bytes:
    return _ES_LABEL + ephemeral_did.encode("utf-8") + broker_did.encode("utf-8")


def _one_pu_context(static_did: str, broker_did: str) -> bytes:
    return _ONE_PU_LABEL + static_did.encode("utf-8") + broker_did.encode("utf-8")


def _aad(kind: PacketKind, ephemeral_did: str) -> bytes:
    # Binds each envelope to its packet kind and session, blocking
    # cross-context splicing of otherwise valid ciphertexts.
    return bytes([kind]) + ephemeral_did.encode("utf-8")


class Channel:
    """One direction of a session: its key, its AAD binding, its next nonce.

    The only owner of a direction's nonce state. :meth:`seal` encrypts under
    the next nonces and :meth:`open` accepts exactly those, so a nonce is
    never used twice under the key; the successor is worked out before
    anything is committed, so an exhausted channel raises
    :class:`NonceOverflowError` and stays where it was.
    """

    def __init__(self, key: SessionKey, ephemeral_did: str, nonce: Nonce) -> None:
        self.key = key
        self.ephemeral_did = ephemeral_did
        self.nonce = nonce

    def seal(self, kind: PacketKind, *plaintexts: bytes) -> list[AeadEnvelope]:
        """Encrypt each plaintext under the next consecutive nonce."""
        nonces = [self.nonce]
        for _ in plaintexts[1:]:
            nonces.append(nonces[-1].next())
        successor = nonces[-1].next()
        aad = _aad(kind, self.ephemeral_did)
        envelopes = [
            aead_encrypt(self.key, nonce, plaintext, aad)
            for nonce, plaintext in zip(nonces, plaintexts)
        ]
        self.nonce = successor
        return envelopes

    def open(self, kind: PacketKind, *envelopes: AeadEnvelope) -> list[bytes]:
        """Decrypt envelopes that carry exactly the next consecutive nonces."""
        for offset, envelope in enumerate(envelopes):
            if (
                envelope.nonce.prefix != self.nonce.prefix
                or envelope.nonce.counter != self.nonce.counter + offset
            ):
                raise ReplayError(f"{kind.name.lower()} does not use the next expected nonce")
        aad = _aad(kind, self.ephemeral_did)
        plaintexts = [aead_decrypt(self.key, envelope, aad) for envelope in envelopes]
        self.nonce = envelopes[-1].nonce.next()
        return plaintexts


def _envelope(data: bytes | None, what: str) -> AeadEnvelope:
    if data is None:
        raise ProtocolError(f"{what} is missing its encrypted field")
    try:
        return AeadEnvelope.from_bytes(data)
    except CryptoError as exc:
        raise ProtocolError(f"{what} carries a malformed envelope: {exc}") from exc


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class ClientPhase(Enum):
    IDLE = "idle"
    CONNECT_SENT = "connect-sent"
    CHALLENGED = "challenged"
    ESTABLISHED = "established"


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
        self.phase = ClientPhase.IDLE
        self._reset_session()

    def _reset_session(self) -> None:
        self.ephemeral_did: str | None = None
        self.broker_did: str | None = None
        # Set in begin_connect; handle_challenge uses them once and drops them.
        self._broker_agreement_key: bytes | None = None
        self._static_key: X25519PrivateKey | None = None
        self._ephemeral_key: X25519PrivateKey | None = None
        self._send: Channel | None = None
        self._recv: Channel | None = None
        self._pending_subacks = 0
        self._pending_pubacks = 0

    def _require(self, phase: ClientPhase, action: str) -> None:
        if self.phase is not phase:
            raise ProtocolOrderError(f"cannot {action} in phase {self.phase.value}")

    # -- handshake ----------------------------------------------------------

    def begin_connect(self, broker_did: Did | str) -> Packet:
        """Steps A and B: fresh ephemeral identity, encrypted static identity."""
        self._require(ClientPhase.IDLE, "connect")
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
        envelope = aead_encrypt(
            k_es,
            Nonce.fresh(),
            self.static_did.encode("utf-8"),
            _aad(PacketKind.CONNECT, ephemeral_did),
        )

        self._static_key = load_agreement_key(self._static_secret)
        self._ephemeral_key = ephemeral_key
        self.ephemeral_did = ephemeral_did
        self.broker_did = broker_did
        self._broker_agreement_key = document.agreement_key
        self.phase = ClientPhase.CONNECT_SENT
        return Packet(
            kind=PacketKind.CONNECT,
            client_id=ephemeral_did,
            auth_method=AUTH_METHOD,
            auth_data=envelope.to_bytes(),
        )

    def handle_challenge(self, packet: Packet) -> Packet:
        """Steps E and F: authenticate the broker, answer with a presentation."""
        self._require(ClientPhase.CONNECT_SENT, "process a challenge")
        if packet.kind is not PacketKind.AUTH_CHALLENGE:
            raise ProtocolOrderError(f"expected a challenge, got {packet.kind.name}")
        envelope = _envelope(packet.auth_data, "challenge")

        k_1pu = ecdh_1pu(
            self._static_key,
            self._ephemeral_key,
            self._broker_agreement_key,
            _one_pu_context(self.static_did, self.broker_did),
        )
        try:
            plaintext = aead_decrypt(k_1pu, envelope, _aad(PacketKind.AUTH_CHALLENGE, self.ephemeral_did))
        except IntegrityError as exc:
            raise AuthenticationError(
                f"broker could not be authenticated as {self.broker_did}"
            ) from exc
        try:
            challenge_nonce = Nonce.from_bytes(plaintext)
        except CryptoError as exc:
            raise ProtocolError(f"challenge payload is not a nonce: {exc}") from exc

        presentation = present(self._credential, self._disclosures, self.broker_did)
        send = Channel(k_1pu, self.ephemeral_did, challenge_nonce)
        (response,) = send.seal(PacketKind.AUTH_RESPONSE, presentation.compact().encode("utf-8"))
        self._send = send
        self._static_key = self._ephemeral_key = self._broker_agreement_key = None
        self.phase = ClientPhase.CHALLENGED
        return Packet(kind=PacketKind.AUTH_RESPONSE, auth_data=response.to_bytes())

    def handle_connack(self, packet: Packet) -> None:
        """Step H, client side: confirm the broker accepted the credential."""
        self._require(ClientPhase.CHALLENGED, "process a connection ack")
        if packet.kind is PacketKind.DISCONNECT:
            raise ConnectionRejected(
                "broker disconnected during the handshake", packet.reason_code
            )
        if packet.kind is not PacketKind.CONNACK:
            raise ProtocolOrderError(f"expected a connection ack, got {packet.kind.name}")
        if packet.reason_code is not ReasonCode.SUCCESS:
            raise ConnectionRejected(
                f"broker rejected the connection: {packet.reason_code.name if packet.reason_code else 'no reason'}",
                packet.reason_code,
            )
        envelope = _envelope(packet.auth_data, "connection ack")
        if envelope.nonce.counter != 0:
            raise ProtocolOrderError("broker receive prefix must start at counter zero")
        recv = Channel(self._send.key, self.ephemeral_did, envelope.nonce)
        try:
            (status,) = recv.open(PacketKind.CONNACK, envelope)
        except IntegrityError as exc:
            raise AuthenticationError("connection ack failed authentication") from exc
        if status != bytes([ReasonCode.SUCCESS]):
            raise AuthenticationError("connection ack payload contradicts its reason code")
        self._recv = recv
        self.phase = ClientPhase.ESTABLISHED

    # -- established-session operations --------------------------------------

    def subscribe(self, topic: str) -> Packet:
        self._require(ClientPhase.ESTABLISHED, "subscribe")
        (envelope,) = self._send.seal(PacketKind.SUBSCRIBE, topic.encode("utf-8"))
        self._pending_subacks += 1
        return Packet(kind=PacketKind.SUBSCRIBE, topic=envelope.to_bytes())

    def handle_suback(self, packet: Packet) -> ReasonCode:
        if packet.kind is not PacketKind.SUBACK:
            raise ProtocolOrderError(f"expected a subscribe ack, got {packet.kind.name}")
        if self._pending_subacks == 0:
            raise ProtocolOrderError("subscribe ack without an outstanding subscribe")
        self._pending_subacks -= 1
        return packet.reason_code if packet.reason_code is not None else ReasonCode.PROTOCOL_ERROR

    def publish(self, topic: str, payload: bytes) -> Packet:
        """Step J, publisher side: topic at counter n, payload at n+1."""
        self._require(ClientPhase.ESTABLISHED, "publish")
        topic_envelope, payload_envelope = self._send.seal(
            PacketKind.PUBLISH, topic.encode("utf-8"), payload
        )
        self._pending_pubacks += 1
        return Packet(
            kind=PacketKind.PUBLISH,
            topic=topic_envelope.to_bytes(),
            payload=payload_envelope.to_bytes(),
        )

    def handle_puback(self, packet: Packet) -> ReasonCode:
        if packet.kind is not PacketKind.PUBACK:
            raise ProtocolOrderError(f"expected a publish ack, got {packet.kind.name}")
        if self._pending_pubacks == 0:
            raise ProtocolOrderError("publish ack without an outstanding publish")
        self._pending_pubacks -= 1
        return packet.reason_code if packet.reason_code is not None else ReasonCode.PROTOCOL_ERROR

    def handle_publish(self, packet: Packet) -> tuple[str, bytes]:
        """Step J, subscriber side: decrypt a forwarded message."""
        self._require(ClientPhase.ESTABLISHED, "receive a publish")
        if packet.kind is not PacketKind.PUBLISH:
            raise ProtocolOrderError(f"expected a publish, got {packet.kind.name}")
        topic, payload = self._recv.open(
            PacketKind.PUBLISH,
            _envelope(packet.topic, "publish topic"),
            _envelope(packet.payload, "publish payload"),
        )
        return decode_text(topic, ProtocolError, "publish topic"), payload

    def disconnect(self) -> Packet:
        """Leave the session; the next connect gets a fresh ephemeral identity."""
        self.phase = ClientPhase.IDLE
        self._reset_session()
        return Packet(kind=PacketKind.DISCONNECT, reason_code=ReasonCode.SUCCESS)


# ---------------------------------------------------------------------------
# Broker
# ---------------------------------------------------------------------------

class BrokerPhase(Enum):
    AWAIT_AUTH = "await-auth"
    ESTABLISHED = "established"


@dataclass
class BrokerSession:
    """Per-client broker state keyed by the client's ephemeral DID."""

    ephemeral_did: str
    static_did: str
    c2b: Channel
    phase: BrokerPhase = BrokerPhase.AWAIT_AUTH
    grant: AuthorizationGrant | None = None
    b2c: Channel | None = None


@dataclass
class Reply:
    """Broker reaction to one inbound packet.

    ``packets`` go back to the sender and ``forwards`` to other sessions, as
    (session id, packet). A forwarded DISCONNECT ends that session's
    connection, as ``close`` ends the sender's. One place applies a reply to
    connections, on TCP and on the loopback: ``broker_service.Router``.
    """

    packets: list[Packet] = field(default_factory=list)
    forwards: list[tuple[str, Packet]] = field(default_factory=list)
    close: bool = False
    error: DaxiotError | None = None


# The acknowledgement a refused packet gets, for the kinds that have one.
_ACKS = {
    PacketKind.AUTH_RESPONSE: PacketKind.CONNACK,
    PacketKind.SUBSCRIBE: PacketKind.SUBACK,
    PacketKind.PUBLISH: PacketKind.PUBACK,
}


class DaxiotBroker:
    """Broker protocol engine: sessions, authorization, and topic routing.

    Transport-agnostic and single-threaded by contract: callers must
    serialize invocations (an asyncio event loop or one lock suffices).
    ``til_source`` and ``rr_source`` are consulted on every verification so
    issuer-list and revocation edits take effect without a restart.
    """

    def __init__(
        self,
        signing_keypair: SigningKeyPair,
        broker_did: Did | str,
        resolver: Resolver,
        til_source: Callable[[], TrustedIssuerList],
        rr_source: Callable[[], RevocationRegistry],
        event_sink: Callable[[dict], None] | None = None,
    ) -> None:
        self._agreement_secret = agreement_secret(signing_keypair)
        self._static_key: X25519PrivateKey | None = None  # loaded on the first connect
        self.broker_did = str(Did.parse(broker_did))
        self._resolver = resolver
        self._til_source = til_source
        self._rr_source = rr_source
        self._event_sink = event_sink
        self.sessions: dict[str, BrokerSession] = {}
        self.topics: dict[str, set[str]] = {}
        self._seen_connect_nonces: set[bytes] = set()

    # -- helpers --------------------------------------------------------------

    def _emit(self, event: str, session: str | None = None, reason: str | None = None) -> None:
        if self._event_sink is not None:
            self._event_sink({"event": event, "session": session, "reason": reason})

    def _session(self, session_id: str, phase: BrokerPhase | None = None) -> BrokerSession:
        session = self.sessions.get(session_id)
        if session is None:
            raise ProtocolOrderError(f"no session {session_id}")
        if phase is not None and session.phase is not phase:
            raise ProtocolOrderError(f"session is {session.phase.value}, not {phase.value}")
        return session

    # -- refusal policy ------------------------------------------------------------

    def _refuse(self, session_id: str | None, kind: PacketKind, error: DaxiotError) -> Reply:
        """The one refusal policy: which event, which reply, whether the session ends.

        ``session_id`` is None for the first packet of a connection. The rules
        apply in order; the README's refusal table lists them.
        """
        reason: str | None = type(error).__name__
        code = (
            ReasonCode.NOT_AUTHORIZED if isinstance(error, CredentialError) else ReasonCode.PROTOCOL_ERROR
        )
        session = self.sessions.get(session_id)
        established = session is not None and session.phase is BrokerPhase.ESTABLISHED
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
        self._emit(event, session_id, reason=reason)
        if not ends:
            return Reply(packets=packets, error=error)
        if session_id is not None:
            self._evict(session_id)
        packets.append(Packet(kind=PacketKind.DISCONNECT, reason_code=code))
        return Reply(packets=packets, close=True, error=error)

    # -- dispatch --------------------------------------------------------------

    def handle_packet(self, session_id: str, packet: Packet) -> Reply:
        """Route one post-connect packet from an existing session."""
        if packet.kind is PacketKind.DISCONNECT:
            return self.handle_disconnect(session_id)
        self._session(session_id)  # an unknown session raises: there is nothing to refuse
        try:
            if packet.kind is PacketKind.AUTH_RESPONSE:
                return self.handle_auth_response(session_id, packet)
            if packet.kind is PacketKind.SUBSCRIBE:
                return self.handle_subscribe(session_id, packet)
            if packet.kind is PacketKind.PUBLISH:
                return self.handle_publish(session_id, packet)
            raise ProtocolOrderError(f"client must not send {packet.kind.name} on an open session")
        except DaxiotError as error:
            return self._refuse(session_id, packet.kind, error)

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
        envelope = _envelope(packet.auth_data, "connect")

        # Replay detection comes first: an exactly re-delivered connect must
        # be classified as a replay even while its original session lives.
        nonce_bytes = envelope.nonce.to_bytes()
        if nonce_bytes in self._seen_connect_nonces:
            raise ReplayError("connect replays a previously seen nonce")

        if ephemeral_did in self.sessions:
            raise ProtocolOrderError(f"client id {ephemeral_did} already has a session")

        if self._static_key is None:
            self._static_key = load_agreement_key(self._agreement_secret)
        ephemeral_document = self._resolver.resolve(ephemeral_did)
        k_es = ecdh_es(
            self._static_key,
            ephemeral_document.agreement_key,
            _es_context(ephemeral_did, self.broker_did),
        )
        try:
            static_did_raw = aead_decrypt(k_es, envelope, _aad(PacketKind.CONNECT, ephemeral_did))
        except IntegrityError as exc:
            raise AuthenticationError(
                "connect authentication data does not decrypt; sender does not hold the ephemeral key"
            ) from exc
        # Only a connect that decrypts is remembered, so garbage cannot grow the set.
        self._seen_connect_nonces.add(nonce_bytes)
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

        challenge_nonce = Nonce.fresh()
        challenge = aead_encrypt(
            k_1pu,
            Nonce.fresh(),
            challenge_nonce.to_bytes(),
            _aad(PacketKind.AUTH_CHALLENGE, ephemeral_did),
        )
        session = BrokerSession(
            ephemeral_did=ephemeral_did,
            static_did=static_did,
            c2b=Channel(k_1pu, ephemeral_did, challenge_nonce),
        )
        self.sessions[ephemeral_did] = session
        self._emit("challenge_sent", ephemeral_did)
        return ephemeral_did, Reply(
            packets=[Packet(kind=PacketKind.AUTH_CHALLENGE, auth_data=challenge.to_bytes())]
        )

    def handle_auth_response(self, session_id: str, packet: Packet) -> Reply:
        """Steps G and H: authenticate the static identity, verify the credential."""
        session = self._session(session_id)
        envelope = _envelope(packet.auth_data, "authentication response")
        if session.phase is not BrokerPhase.AWAIT_AUTH:
            if envelope.nonce != session.c2b.nonce:
                raise ReplayError("authentication response replays a stale nonce")
            raise ProtocolOrderError("authentication response outside the handshake")
        try:
            (compact,) = session.c2b.open(PacketKind.AUTH_RESPONSE, envelope)
        except IntegrityError as exc:
            raise AuthenticationError(
                "authentication response does not decrypt; sender does not hold the static key"
            ) from exc
        grant = verify_presentation(
            Presentation.parse(decode_text(compact, MalformedCredential, "presentation")),
            expected_subject=session.static_did,
            verifier_did=self.broker_did,
            til=self._til_source(),
            rr=self._rr_source(),
            resolver=self._resolver,
        )
        session.grant = grant
        session.phase = BrokerPhase.ESTABLISHED
        session.b2c = Channel(session.c2b.key, session.ephemeral_did, Nonce.fresh())
        (connack_envelope,) = session.b2c.seal(PacketKind.CONNACK, bytes([ReasonCode.SUCCESS]))
        self._emit("authenticated", session_id, reason=session.static_did)
        return Reply(
            packets=[
                Packet(
                    kind=PacketKind.CONNACK,
                    reason_code=ReasonCode.SUCCESS,
                    auth_data=connack_envelope.to_bytes(),
                )
            ]
        )

    # -- established-session operations -----------------------------------------

    def handle_subscribe(self, session_id: str, packet: Packet) -> Reply:
        """Step I: decrypt the topic, enforce the subscribe grant, register."""
        session = self._session(session_id, BrokerPhase.ESTABLISHED)
        (raw,) = session.c2b.open(PacketKind.SUBSCRIBE, _envelope(packet.topic, "subscribe"))
        topic = decode_text(raw, ProtocolError, "subscribe topic")

        if topic not in session.grant.subscribe_topics:
            self._emit("subscribe_denied", session_id)
            return Reply(
                packets=[Packet(kind=PacketKind.SUBACK, reason_code=ReasonCode.NOT_AUTHORIZED)]
            )
        self.topics.setdefault(topic, set()).add(session_id)
        self._emit("subscribed", session_id)
        return Reply(packets=[Packet(kind=PacketKind.SUBACK, reason_code=ReasonCode.SUCCESS)])

    def handle_publish(self, session_id: str, packet: Packet) -> Reply:
        """Step J: enforce consecutive nonces and the publish grant, fan out."""
        session = self._session(session_id, BrokerPhase.ESTABLISHED)
        raw_topic, payload = session.c2b.open(
            PacketKind.PUBLISH,
            _envelope(packet.topic, "publish topic"),
            _envelope(packet.payload, "publish payload"),
        )
        topic = decode_text(raw_topic, ProtocolError, "publish topic")

        if topic not in session.grant.publish_topics:
            self._emit("publish_denied", session_id)
            return Reply(
                packets=[Packet(kind=PacketKind.PUBACK, reason_code=ReasonCode.NOT_AUTHORIZED)]
            )

        forwards: list[tuple[str, Packet]] = []
        delivered = 0
        for subscriber_id in sorted(self.topics.get(topic, ())):
            subscriber = self.sessions.get(subscriber_id)
            if subscriber is None:
                continue
            try:
                forwards.append((subscriber_id, self._forward(subscriber, topic, payload)))
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

    def _forward(self, subscriber: BrokerSession, topic: str, payload: bytes) -> Packet:
        topic_envelope, payload_envelope = subscriber.b2c.seal(
            PacketKind.PUBLISH, topic.encode("utf-8"), payload
        )
        return Packet(
            kind=PacketKind.PUBLISH,
            topic=topic_envelope.to_bytes(),
            payload=payload_envelope.to_bytes(),
        )

    def handle_disconnect(self, session_id: str) -> Reply:
        if session_id in self.sessions:
            self._emit("disconnected", session_id)
            self._evict(session_id)
        return Reply(close=True)

    def _evict(self, session_id: str) -> None:
        self.sessions.pop(session_id, None)
        for subscribers in self.topics.values():
            subscribers.discard(session_id)

    # -- introspection -------------------------------------------------------------

    def status(self) -> list[dict]:
        """Point-in-time snapshot of every session, for operators."""
        snapshot = []
        # Copy first: callers may snapshot from another thread while the
        # event loop mutates the registry.
        for session in list(self.sessions.values()):
            snapshot.append(
                {
                    "session": session.ephemeral_did,
                    "static_did": session.static_did,
                    "phase": session.phase.value,
                    "publish_grants": len(session.grant.publish_topics) if session.grant else 0,
                    "subscribe_grants": len(session.grant.subscribe_topics) if session.grant else 0,
                    "expected_counter": session.c2b.nonce.counter,
                    "b2c_counter": session.b2c.nonce.counter if session.b2c else None,
                }
            )
        return snapshot

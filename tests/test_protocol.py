from __future__ import annotations

import random
from collections import Counter

import pytest

from conftest import establish
from daxiot.broker_service import load_signing_key
from daxiot.credential import AuthorizationClaim, RevocationRegistry, issue
import daxiot.crypto
import daxiot.did
import daxiot.protocol
from daxiot.crypto import AeadEnvelope, Nonce, aead_encrypt
from daxiot.errors import (
    AuthenticationError,
    ConnectionRejected,
    DidError,
    IntegrityError,
    NonceOverflowError,
    NothingToPresent,
    ProtocolMismatch,
    ProtocolOrderError,
    ReplayError,
)
from daxiot.protocol import BrokerPhase, Channel, ClientPhase, DaxiotBroker, DaxiotClient
from daxiot.transport import run_handshake
from daxiot.wire import Packet, PacketKind, ReasonCode, decode_frame, encode_frame
from helpers import PermissionOracle


LAST_COUNTER = 2**64 - 1


def _tamper_envelope(data: bytes) -> bytes:
    # Flip one bit inside the ciphertext section, past the 24-byte nonce.
    mutated = bytearray(data)
    mutated[24] ^= 0x01
    return bytes(mutated)


def _renonce(data: bytes, nonce: Nonce) -> bytes:
    return AeadEnvelope(nonce, AeadEnvelope.from_bytes(data).ciphertext).to_bytes()


def _subscribed_pair(env, loopback):
    """An established publisher, and a subscriber registered on env.topic."""
    publisher, subscriber = env.publisher_client(), env.subscriber_client()
    publisher_conn = establish(loopback, publisher, env.broker_did)
    subscriber_conn = establish(loopback, subscriber, env.broker_did)
    subscriber_conn.send(subscriber.subscribe(env.topic))
    assert subscriber.handle_suback(subscriber_conn.recv()) is ReasonCode.SUCCESS
    return publisher, publisher_conn, subscriber, subscriber_conn


class TestHandshake:
    def test_full_flow_with_key_agreement(self, env, loopback):
        publisher = env.publisher_client()
        connection = establish(loopback, publisher, env.broker_did)
        session = loopback.engine.sessions[publisher.ephemeral_did]

        assert publisher.phase is ClientPhase.ESTABLISHED
        assert session.phase is BrokerPhase.ESTABLISHED
        # Both directions share the one-pass unified key and stand at the
        # same next nonce on either end. (The ES key agreed, or the broker
        # could not have decrypted the connect.)
        assert publisher._send.key == session.c2b.key == session.b2c.key == publisher._recv.key
        assert publisher._send.nonce == session.c2b.nonce
        assert publisher._recv.nonce == session.b2c.nonce
        assert session.static_did == publisher.static_did
        assert session.grant.publish_topics == frozenset({env.topic})
        assert session.grant.subscribe_topics == frozenset()
        connection.close()
        assert publisher.ephemeral_did not in loopback.engine.sessions

    def test_end_to_end_publish(self, env, loopback):
        publisher, subscriber = env.publisher_client(), env.subscriber_client()
        publisher_conn = establish(loopback, publisher, env.broker_did)
        subscriber_conn = establish(loopback, subscriber, env.broker_did)

        subscriber_conn.send(subscriber.subscribe(env.topic))
        assert subscriber.handle_suback(subscriber_conn.recv()) is ReasonCode.SUCCESS

        publisher_conn.send(publisher.publish(env.topic, b"hello"))
        assert publisher.handle_puback(publisher_conn.recv()) is ReasonCode.SUCCESS
        assert subscriber.handle_publish(subscriber_conn.recv()) == (env.topic, b"hello")

    def test_ephemeral_identities_are_unlinkable(self, env, loopback):
        client = env.publisher_client()
        first_connection = establish(loopback, client, env.broker_did)
        first_ephemeral = client.ephemeral_did
        first_connection.send(client.disconnect())
        second_connection = establish(loopback, client, env.broker_did)
        assert client.ephemeral_did != first_ephemeral
        assert client.static_did == loopback.engine.sessions[client.ephemeral_did].static_did

    def test_wrong_auth_method_is_protocol_mismatch(self, env, loopback):
        client = env.publisher_client()
        packet = client.begin_connect(env.broker_did)
        packet.auth_method = "TLS"
        session_id, reply = loopback.engine.handle_connect(packet)
        assert session_id is None
        assert isinstance(reply.error, ProtocolMismatch)
        assert reply.packets[0].kind is PacketKind.DISCONNECT
        assert not loopback.engine.sessions

    def test_client_requires_broker_agreement_key(self, env, tmp_path):
        # A broker document without a key-agreement entry cannot be connected to.
        (tmp_path / "docs").mkdir()
        bad = tmp_path / "docs" / "bad.example.json"
        bad.write_text('{"id": "did:web:bad.example", "verificationMethod": "z6Mk"}')
        from daxiot.did import DirectoryWebSource, Resolver

        client = DaxiotClient(
            env.publisher.keypair,
            env.publisher.credential,
            env.publisher.disclosures,
            Resolver(DirectoryWebSource(tmp_path / "docs")),
        )
        with pytest.raises(DidError):
            client.begin_connect("did:web:bad.example")

    def test_nothing_to_present_aborts_handshake(self, env, loopback):
        # Credential speaks only about an unrelated broker.
        claims = [AuthorizationClaim(env.other_broker_did, publish_topics={"elsewhere"})]
        credential, disclosures = issue(
            env.po_keypair, env.po_did, env.publisher.static_did, claims, "AC-unrelated"
        )
        client = DaxiotClient(env.publisher.keypair, credential, disclosures, env.resolver())
        connection = loopback.open()
        connection.send(client.begin_connect(env.broker_did))
        with pytest.raises(NothingToPresent):
            client.handle_challenge(connection.recv())

    def test_duplicate_client_id_rejected(self, env, loopback):
        client = env.publisher_client()
        connection = establish(loopback, client, env.broker_did)
        duplicate = env.publisher_client().begin_connect(env.broker_did)
        duplicate.client_id = client.ephemeral_did
        session_id, reply = loopback.engine.handle_connect(duplicate)
        assert session_id is None
        assert isinstance(reply.error, ProtocolOrderError)
        assert client.ephemeral_did in loopback.engine.sessions
        connection.close()

    def test_connack_failure_raises_connection_rejected(self, env, loopback):
        # Publisher whose issuer is distrusted after credential issuance.
        from daxiot.credential import TrustedIssuerList

        TrustedIssuerList(frozenset({env.so_did})).save(env.til_path)
        client = env.publisher_client()
        connection = loopback.open()
        connection.send(client.begin_connect(env.broker_did))
        connection.send(client.handle_challenge(connection.recv()))
        with pytest.raises(ConnectionRejected) as excinfo:
            client.handle_connack(connection.recv())
        assert excinfo.value.reason_code is ReasonCode.NOT_AUTHORIZED
        assert any(e["event"] == "auth_rejected" and e["reason"] == "UntrustedIssuer" for e in loopback.events)

    @pytest.mark.parametrize("damage", ["torn issuer list", "missing revocation registry"])
    def test_unreadable_trust_file_fails_closed(self, env, loopback, damage):
        if damage == "torn issuer list":
            env.til_path.write_bytes(env.til_path.read_bytes()[:5])
        else:
            env.rr_path.unlink()
        client = env.publisher_client()
        connection = loopback.open()
        with pytest.raises(ConnectionRejected) as excinfo:
            run_handshake(client, connection, env.broker_did)
        assert excinfo.value.reason_code is ReasonCode.NOT_AUTHORIZED
        assert connection.recv().kind is PacketKind.DISCONNECT
        assert connection.closed and loopback.engine.sessions == {}
        assert loopback.events[-1] == {
            "event": "auth_rejected", "session": client.ephemeral_did, "reason": "TrustFileError"
        }

    def test_subject_mismatch_rejected(self, env, loopback):
        # Client presents a credential issued to someone else's static DID.
        stranger = env.subscriber.keypair
        client = DaxiotClient(
            stranger, env.publisher.credential, env.publisher.disclosures, env.resolver()
        )
        connection = loopback.open()
        connection.send(client.begin_connect(env.broker_did))
        connection.send(client.handle_challenge(connection.recv()))
        with pytest.raises(ConnectionRejected):
            client.handle_connack(connection.recv())
        assert any(e.get("reason") == "SubjectMismatch" for e in loopback.events)


class TestReplayProtection:
    def test_replayed_connect(self, env, loopback):
        client = env.publisher_client()
        connection = loopback.open()
        connect_packet = client.begin_connect(env.broker_did)
        connection.send(connect_packet)
        connection.recv()
        replay_conn = loopback.open()
        replay_conn.send_raw(encode_frame(connect_packet))
        reply = replay_conn.recv()
        assert reply.kind is PacketKind.DISCONNECT
        assert any(e.get("reason") == "ReplayError" for e in loopback.events)

    def test_replayed_auth_response(self, env, loopback):
        client = env.publisher_client()
        connection = loopback.open()
        connection.send(client.begin_connect(env.broker_did))
        response = client.handle_challenge(connection.recv())
        connection.send(response)
        client.handle_connack(connection.recv())
        reply = loopback.engine.handle_packet(client.ephemeral_did, response)
        assert isinstance(reply.error, ReplayError)
        # The live session survives a replayed handshake frame.
        assert client.ephemeral_did in loopback.engine.sessions

    def test_replayed_subscribe(self, env, loopback):
        subscriber = env.subscriber_client()
        connection = establish(loopback, subscriber, env.broker_did)
        subscribe_packet = subscriber.subscribe(env.topic)
        connection.send(subscribe_packet)
        assert subscriber.handle_suback(connection.recv()) is ReasonCode.SUCCESS
        reply = loopback.engine.handle_packet(subscriber.ephemeral_did, subscribe_packet)
        assert isinstance(reply.error, ReplayError)
        assert reply.packets[0].reason_code is ReasonCode.PROTOCOL_ERROR

    def test_replayed_publish(self, env, loopback):
        publisher = env.publisher_client()
        connection = establish(loopback, publisher, env.broker_did)
        publish_packet = publisher.publish(env.topic, b"one")
        connection.send(publish_packet)
        assert publisher.handle_puback(connection.recv()) is ReasonCode.SUCCESS
        reply = loopback.engine.handle_packet(publisher.ephemeral_did, publish_packet)
        assert isinstance(reply.error, ReplayError)

    def test_counter_gap_rejected(self, env, loopback):
        publisher = env.publisher_client()
        establish(loopback, publisher, env.broker_did)
        skipped = publisher.publish(env.topic, b"never sent")
        ahead = publisher.publish(env.topic, b"gap")
        reply = loopback.engine.handle_packet(publisher.ephemeral_did, ahead)
        assert isinstance(reply.error, ReplayError)

    def test_spliced_topic_and_payload(self, env, loopback):
        publisher = env.publisher_client()
        connection = establish(loopback, publisher, env.broker_did)
        first = publisher.publish(env.topic, b"first")
        second = publisher.publish(env.topic, b"second")
        spliced = Packet(kind=PacketKind.PUBLISH, topic=first.topic, payload=second.payload)
        reply = loopback.engine.handle_packet(publisher.ephemeral_did, spliced)
        assert isinstance(reply.error, ReplayError)
        # Swapping the two envelopes of one message also breaks affiliation.
        swapped = Packet(kind=PacketKind.PUBLISH, topic=first.payload, payload=first.topic)
        reply = loopback.engine.handle_packet(publisher.ephemeral_did, swapped)
        assert isinstance(reply.error, ReplayError)

    def test_forwarded_publish_replay_rejected_by_client(self, env, loopback):
        publisher, subscriber = env.publisher_client(), env.subscriber_client()
        publisher_conn = establish(loopback, publisher, env.broker_did)
        subscriber_conn = establish(loopback, subscriber, env.broker_did)
        subscriber_conn.send(subscriber.subscribe(env.topic))
        subscriber.handle_suback(subscriber_conn.recv())
        publisher_conn.send(publisher.publish(env.topic, b"payload"))
        publisher.handle_puback(publisher_conn.recv())
        forwarded = subscriber_conn.recv()
        assert subscriber.handle_publish(forwarded) == (env.topic, b"payload")
        with pytest.raises(ReplayError):
            subscriber.handle_publish(forwarded)

    def test_forwarded_publish_counter_skip_rejected_by_client(self, env, loopback):
        publisher, publisher_conn, subscriber, subscriber_conn = _subscribed_pair(env, loopback)
        for payload in (b"first", b"second"):
            publisher_conn.send(publisher.publish(env.topic, payload))
            publisher.handle_puback(publisher_conn.recv())
        subscriber_conn.recv()  # the first forward is lost on its way
        with pytest.raises(ReplayError):
            subscriber.handle_publish(subscriber_conn.recv())

    def test_forwarded_publish_foreign_prefix_rejected_by_client(self, env, loopback):
        publisher, publisher_conn, subscriber, subscriber_conn = _subscribed_pair(env, loopback)
        publisher_conn.send(publisher.publish(env.topic, b"payload"))
        publisher.handle_puback(publisher_conn.recv())
        forwarded = subscriber_conn.recv()
        topic_nonce = AeadEnvelope.from_bytes(forwarded.topic).nonce
        foreign = Nonce.fresh()
        forwarded.topic = _renonce(forwarded.topic, Nonce(foreign.prefix, topic_nonce.counter))
        forwarded.payload = _renonce(forwarded.payload, Nonce(foreign.prefix, topic_nonce.counter + 1))
        with pytest.raises(ReplayError):
            subscriber.handle_publish(forwarded)

    def test_undecryptable_connects_leave_replay_set_unchanged(self, env, loopback):
        establish(loopback, env.publisher_client(), env.broker_did)
        seen = len(loopback.engine._seen_connect_nonces)
        assert seen == 1
        for _ in range(50):
            packet = env.publisher_client().begin_connect(env.broker_did)
            packet.auth_data = _tamper_envelope(packet.auth_data)
            session_id, reply = loopback.engine.handle_connect(packet)
            assert session_id is None
            assert isinstance(reply.error, AuthenticationError)
        assert len(loopback.engine._seen_connect_nonces) == seen

    def test_broker_to_client_prefix_is_distinct(self, env, loopback):
        publisher = env.publisher_client()
        establish(loopback, publisher, env.broker_did)
        session = loopback.engine.sessions[publisher.ephemeral_did]
        assert session.b2c.nonce.prefix != session.c2b.nonce.prefix


class TestTampering:
    def test_tampered_connect(self, env, loopback):
        client = env.publisher_client()
        packet = client.begin_connect(env.broker_did)
        packet.auth_data = _tamper_envelope(packet.auth_data)
        session_id, reply = loopback.engine.handle_connect(packet)
        assert session_id is None
        assert isinstance(reply.error, AuthenticationError)

    def test_tampered_challenge(self, env, loopback):
        client = env.publisher_client()
        connection = loopback.open()
        connection.send(client.begin_connect(env.broker_did))
        challenge = connection.recv()
        challenge.auth_data = _tamper_envelope(challenge.auth_data)
        with pytest.raises(AuthenticationError):
            client.handle_challenge(challenge)

    def test_tampered_auth_response(self, env, loopback):
        client = env.publisher_client()
        connection = loopback.open()
        connection.send(client.begin_connect(env.broker_did))
        response = client.handle_challenge(connection.recv())
        response.auth_data = _tamper_envelope(response.auth_data)
        reply = loopback.engine.handle_packet(client.ephemeral_did, response)
        assert isinstance(reply.error, AuthenticationError)
        assert reply.packets[0].reason_code is ReasonCode.PROTOCOL_ERROR

    def test_tampered_connack(self, env, loopback):
        client = env.publisher_client()
        connection = loopback.open()
        connection.send(client.begin_connect(env.broker_did))
        connection.send(client.handle_challenge(connection.recv()))
        connack = connection.recv()
        connack.auth_data = _tamper_envelope(connack.auth_data)
        with pytest.raises(AuthenticationError):
            client.handle_connack(connack)

    def test_tampered_subscribe(self, env, loopback):
        subscriber = env.subscriber_client()
        establish(loopback, subscriber, env.broker_did)
        packet = subscriber.subscribe(env.topic)
        packet.topic = _tamper_envelope(packet.topic)
        reply = loopback.engine.handle_packet(subscriber.ephemeral_did, packet)
        assert isinstance(reply.error, IntegrityError)

    def test_tampered_publish_fields(self, env, loopback):
        publisher = env.publisher_client()
        establish(loopback, publisher, env.broker_did)
        packet = publisher.publish(env.topic, b"x")
        tampered_topic = Packet(
            kind=PacketKind.PUBLISH, topic=_tamper_envelope(packet.topic), payload=packet.payload
        )
        reply = loopback.engine.handle_packet(publisher.ephemeral_did, tampered_topic)
        assert isinstance(reply.error, IntegrityError)

    def test_tampered_forwarded_publish(self, env, loopback):
        publisher, subscriber = env.publisher_client(), env.subscriber_client()
        publisher_conn = establish(loopback, publisher, env.broker_did)
        subscriber_conn = establish(loopback, subscriber, env.broker_did)
        subscriber_conn.send(subscriber.subscribe(env.topic))
        subscriber.handle_suback(subscriber_conn.recv())
        publisher_conn.send(publisher.publish(env.topic, b"payload"))
        publisher.handle_puback(publisher_conn.recv())
        forwarded = subscriber_conn.recv()
        forwarded.payload = _tamper_envelope(forwarded.payload)
        with pytest.raises(IntegrityError):
            subscriber.handle_publish(forwarded)

    def test_cross_session_envelope_rejected(self, env, loopback):
        # An envelope from one session cannot be replanted into another,
        # even at the right counter: the AAD binds the session identity.
        publisher_a = env.publisher_client()
        publisher_b = env.publisher_client()
        establish(loopback, publisher_a, env.broker_did)
        establish(loopback, publisher_b, env.broker_did)
        packet = publisher_a.publish(env.topic, b"x")
        session_b = loopback.engine.sessions[publisher_b.ephemeral_did]
        # Re-nonce the foreign envelopes to session B's expected counters.
        topic_env = AeadEnvelope.from_bytes(packet.topic)
        payload_env = AeadEnvelope.from_bytes(packet.payload)
        foreign = Packet(
            kind=PacketKind.PUBLISH,
            topic=AeadEnvelope(session_b.c2b.nonce, topic_env.ciphertext).to_bytes(),
            payload=AeadEnvelope(session_b.c2b.nonce.next(), payload_env.ciphertext).to_bytes(),
        )
        reply = loopback.engine.handle_packet(publisher_b.ephemeral_did, foreign)
        assert isinstance(reply.error, IntegrityError)


class TestAuthorization:
    def test_subscribe_outside_grant(self, env, loopback):
        subscriber = env.subscriber_client()
        connection = establish(loopback, subscriber, env.broker_did)
        connection.send(subscriber.subscribe("not-granted/topic"))
        assert subscriber.handle_suback(connection.recv()) is ReasonCode.NOT_AUTHORIZED
        assert "not-granted/topic" not in loopback.engine.topics

    def test_publish_outside_grant_not_forwarded(self, env, loopback):
        publisher, subscriber = env.publisher_client(), env.subscriber_client()
        publisher_conn = establish(loopback, publisher, env.broker_did)
        subscriber_conn = establish(loopback, subscriber, env.broker_did)
        subscriber_conn.send(subscriber.subscribe(env.topic))
        subscriber.handle_suback(subscriber_conn.recv())

        packet = publisher.publish(env.other_topic, b"smuggled")
        reply = loopback.engine.handle_packet(publisher.ephemeral_did, packet)
        assert reply.packets[0].reason_code is ReasonCode.NOT_AUTHORIZED
        assert reply.forwards == []

    def test_denied_publish_still_advances_nonces(self, env, loopback):
        publisher = env.publisher_client()
        connection = establish(loopback, publisher, env.broker_did)
        connection.send(publisher.publish(env.other_topic, b"no"))
        assert publisher.handle_puback(connection.recv()) is ReasonCode.NOT_AUTHORIZED
        connection.send(publisher.publish(env.topic, b"yes"))
        assert publisher.handle_puback(connection.recv()) is ReasonCode.SUCCESS

    def test_subscribe_before_established(self, env, loopback):
        client = env.publisher_client()
        connection = loopback.open()
        connection.send(client.begin_connect(env.broker_did))
        client.handle_challenge(connection.recv())  # no response sent
        envelope = aead_encrypt(
            client._send.key,
            Nonce.fresh(),
            env.topic.encode(),
            bytes([PacketKind.SUBSCRIBE]) + client.ephemeral_did.encode(),
        )
        reply = loopback.engine.handle_packet(
            client.ephemeral_did, Packet(kind=PacketKind.SUBSCRIBE, topic=envelope.to_bytes())
        )
        assert isinstance(reply.error, ProtocolOrderError)
        assert reply.close

    def test_client_side_phase_guards(self, env):
        client = env.publisher_client()
        with pytest.raises(ProtocolOrderError):
            client.subscribe(env.topic)
        with pytest.raises(ProtocolOrderError):
            client.publish(env.topic, b"x")
        with pytest.raises(ProtocolOrderError):
            client.handle_challenge(Packet(kind=PacketKind.AUTH_CHALLENGE))

    def test_unexpected_acks_rejected(self, env, loopback):
        publisher = env.publisher_client()
        establish(loopback, publisher, env.broker_did)
        with pytest.raises(ProtocolOrderError):
            publisher.handle_suback(Packet(kind=PacketKind.SUBACK, reason_code=ReasonCode.SUCCESS))
        with pytest.raises(ProtocolOrderError):
            publisher.handle_puback(Packet(kind=PacketKind.PUBACK, reason_code=ReasonCode.SUCCESS))

    def test_randomized_decisions_match_oracle(self, env, loopback):
        rng = random.Random(20240811)
        topic_pool = [f"area-{i}/device-{i}/channel" for i in range(6)]
        oracle = PermissionOracle()

        publish_grant = set(rng.sample(topic_pool, 3))
        subscribe_grant = set(rng.sample(topic_pool, 2))
        claims = [
            AuthorizationClaim(
                env.broker_did,
                publish_topics=frozenset(publish_grant),
                subscribe_topics=frozenset(subscribe_grant),
            )
        ]
        credential, disclosures = issue(
            env.po_keypair, env.po_did, env.publisher.static_did, claims, "AC-oracle"
        )
        client = DaxiotClient(env.publisher.keypair, credential, disclosures, env.resolver())
        for topic in publish_grant:
            oracle.grant(client.static_did, "pub", topic)
        for topic in subscribe_grant:
            oracle.grant(client.static_did, "sub", topic)

        def recv_ack(kind):
            # A client subscribed to its own publish topic receives the
            # forwarded copy too; consume those along the way.
            while True:
                packet = connection.recv()
                if packet.kind is PacketKind.PUBLISH:
                    client.handle_publish(packet)
                    continue
                assert packet.kind is kind
                return packet

        connection = establish(loopback, client, env.broker_did)
        for _ in range(60):
            topic = rng.choice(topic_pool)
            if rng.random() < 0.5:
                connection.send(client.subscribe(topic))
                outcome = client.handle_suback(recv_ack(PacketKind.SUBACK)) is ReasonCode.SUCCESS
                assert outcome == oracle.allowed(client.static_did, "sub", topic)
            else:
                connection.send(client.publish(topic, b"?"))
                outcome = client.handle_puback(recv_ack(PacketKind.PUBACK)) is ReasonCode.SUCCESS
                assert outcome == oracle.allowed(client.static_did, "pub", topic)


class _CountingX25519:
    """Stands in for daxiot.crypto.X25519PrivateKey and counts key loads and
    exchanges per side; work done inside the network's router is the broker's."""

    def __init__(self, monkeypatch, network) -> None:
        self._cls = daxiot.crypto.X25519PrivateKey
        self.side = "client"
        self.reset()
        monkeypatch.setattr(daxiot.crypto, "X25519PrivateKey", self)
        receive = network.router.receive

        def broker_side(connection, session_id, frame):
            self.side = "broker"
            try:
                return receive(connection, session_id, frame)
            finally:
                self.side = "client"

        monkeypatch.setattr(network.router, "receive", broker_side)

    def reset(self) -> None:
        self.loads: Counter = Counter()
        self.exchanges: Counter = Counter()

    def from_private_bytes(self, data: bytes) -> "_CountedKey":
        self.loads[self.side] += 1
        return _CountedKey(self, self._cls.from_private_bytes(data))


class _CountedKey:
    def __init__(self, counter: _CountingX25519, key) -> None:
        self._counter, self._key = counter, key

    def exchange(self, peer):
        self._counter.exchanges[self._counter.side] += 1
        return self._key.exchange(peer)


class TestBrokerState:
    def test_nonce_monotonicity(self, env, loopback):
        publisher = env.publisher_client()
        connection = establish(loopback, publisher, env.broker_did)
        session = loopback.engine.sessions[publisher.ephemeral_did]
        seen = [session.c2b.nonce.counter]
        for _ in range(3):
            connection.send(publisher.publish(env.topic, b"x"))
            publisher.handle_puback(connection.recv())
            seen.append(session.c2b.nonce.counter)
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)
        assert seen[0] == 1  # challenge consumed counter zero

    @pytest.mark.parametrize("kind", [PacketKind.PUBLISH, PacketKind.SUBSCRIBE])
    def test_exhausted_sender_is_evicted(self, env, loopback, kind):
        client = env.publisher_client()
        establish(loopback, client, env.broker_did)
        session = loopback.engine.sessions[client.ephemeral_did]
        fields = [env.topic.encode(), b"last"] if kind is PacketKind.PUBLISH else [env.topic.encode()]
        prefix, first = session.c2b.nonce.prefix, LAST_COUNTER + 1 - len(fields)
        session.c2b.nonce = Nonce(prefix, first)
        aad = bytes([kind]) + client.ephemeral_did.encode()
        envelopes = [
            aead_encrypt(client._send.key, Nonce(prefix, first + i), field, aad).to_bytes()
            for i, field in enumerate(fields)
        ]
        packet = Packet(kind=kind, topic=envelopes[0], payload=envelopes[1] if len(envelopes) > 1 else None)
        reply = loopback.engine.handle_packet(client.ephemeral_did, packet)
        assert isinstance(reply.error, NonceOverflowError)
        assert reply.close
        assert [p.kind for p in reply.packets] == [PacketKind.DISCONNECT]
        assert client.ephemeral_did not in loopback.engine.sessions
        assert {"event": "session_exhausted", "session": client.ephemeral_did, "reason": None} in loopback.events

    def test_exhausted_subscriber_is_evicted_alone(self, env, loopback):
        publisher, _, subscriber, _ = _subscribed_pair(env, loopback)
        b2c = loopback.engine.sessions[subscriber.ephemeral_did].b2c
        b2c.nonce = Nonce(b2c.nonce.prefix, LAST_COUNTER - 1)
        reply = loopback.engine.handle_packet(
            publisher.ephemeral_did, publisher.publish(env.topic, b"x")
        )
        assert reply.error is None
        assert [(p.kind, p.reason_code) for p in reply.packets] == [(PacketKind.PUBACK, ReasonCode.SUCCESS)]
        assert [(target, p.kind, p.reason_code) for target, p in reply.forwards] == [
            (subscriber.ephemeral_did, PacketKind.DISCONNECT, ReasonCode.PROTOCOL_ERROR)
        ]
        assert subscriber.ephemeral_did not in loopback.engine.sessions
        assert publisher.ephemeral_did in loopback.engine.sessions
        assert any(
            e["event"] == "session_exhausted" and e["session"] == subscriber.ephemeral_did
            for e in loopback.events
        )

    def test_exhausted_subscriber_connection_is_closed(self, env, loopback):
        publisher, publisher_conn, subscriber, subscriber_conn = _subscribed_pair(env, loopback)
        b2c = loopback.engine.sessions[subscriber.ephemeral_did].b2c
        b2c.nonce = Nonce(b2c.nonce.prefix, LAST_COUNTER - 1)
        publisher_conn.send(publisher.publish(env.topic, b"x"))
        assert publisher.handle_puback(publisher_conn.recv()) is ReasonCode.SUCCESS
        assert subscriber_conn.recv().kind is PacketKind.DISCONNECT
        assert subscriber_conn.closed and not subscriber_conn.inbox

    def test_exhausted_client_never_reuses_a_nonce(self, env, loopback):
        client = env.publisher_client()
        establish(loopback, client, env.broker_did)
        client._send.nonce = Nonce(client._send.nonce.prefix, LAST_COUNTER - 1)
        used = []
        for make in (
            lambda: client.publish(env.topic, b"x"),  # needs two values and a successor
            lambda: client.subscribe(env.topic),  # takes LAST_COUNTER - 1
            lambda: client.subscribe(env.topic),  # LAST_COUNTER has no successor
            lambda: client.publish(env.topic, b"x"),
        ):
            try:
                packet = make()
            except NonceOverflowError:
                continue
            used += [AeadEnvelope.from_bytes(f).nonce for f in (packet.topic, packet.payload) if f]
        assert [n.counter for n in used] == [LAST_COUNTER - 1]
        assert client._send.nonce.counter == LAST_COUNTER

    def test_aead_call_counts(self, env, loopback, monkeypatch):
        # The benchmark's traced runs rebind these two names in
        # daxiot.protocol and count on every AEAD call going through them.
        calls = []
        for name in ("aead_encrypt", "aead_decrypt"):
            original = getattr(daxiot.protocol, name)
            monkeypatch.setattr(
                daxiot.protocol, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
            )
        publisher = env.publisher_client()
        publisher_conn = establish(loopback, publisher, env.broker_did)
        assert len(calls) == 8
        assert calls.count("aead_encrypt") == calls.count("aead_decrypt") == 4

        subscribers = []
        for _ in range(2):
            subscriber = env.subscriber_client()
            connection = establish(loopback, subscriber, env.broker_did)
            connection.send(subscriber.subscribe(env.topic))
            subscriber.handle_suback(connection.recv())
            subscribers.append((subscriber, connection))
        calls.clear()
        publisher_conn.send(publisher.publish(env.topic, b"fan-out"))
        assert publisher.handle_puback(publisher_conn.recv()) is ReasonCode.SUCCESS
        for subscriber, connection in subscribers:
            assert subscriber.handle_publish(connection.recv()) == (env.topic, b"fan-out")
        assert len(calls) == 4 + 4 * 2

    def test_each_subkey_is_derived_once(self, env, loopback, monkeypatch):
        # Per handshake each side uses four (key, prefix) pairs: the connect
        # under the ES key, then the challenge, c2b and b2c under the 1PU key.
        derived = []
        original = daxiot.crypto._hchacha20
        monkeypatch.setattr(
            daxiot.crypto, "_hchacha20", lambda key, prefix: derived.append(prefix) or original(key, prefix)
        )
        publisher, publisher_conn, subscriber, subscriber_conn = _subscribed_pair(env, loopback)
        assert len(derived) == 2 * 8
        derived.clear()
        for index in range(3):
            publisher_conn.send(publisher.publish(env.topic, bytes([index])))
            assert publisher.handle_puback(publisher_conn.recv()) is ReasonCode.SUCCESS
            assert subscriber.handle_publish(subscriber_conn.recv()) == (env.topic, bytes([index]))
        assert derived == []

    def test_each_agreement_key_is_loaded_once(self, env, loopback, monkeypatch):
        # The broker loads its static key on its first connect and keeps it;
        # the client loads its static and ephemeral keys once per connection.
        counter = _CountingX25519(monkeypatch, loopback)
        establish(loopback, env.publisher_client(), env.broker_did).close()
        counter.reset()
        handshakes = 3
        for _ in range(handshakes):
            client = env.publisher_client()
            connection = establish(loopback, client, env.broker_did)
            # The keys serve only the handshake: an established client holds none.
            assert not any(isinstance(value, _CountedKey) for value in vars(client).values())
            assert client._broker_agreement_key is None
            connection.send(client.disconnect())
        assert counter.loads == {"client": 2 * handshakes}
        assert counter.exchanges == {"client": 3 * handshakes, "broker": 3 * handshakes}

    def test_undecryptable_connect_costs_one_exchange(self, env, loopback, monkeypatch):
        counter = _CountingX25519(monkeypatch, loopback)
        establish(loopback, env.publisher_client(), env.broker_did).close()
        packet = env.publisher_client().begin_connect(env.broker_did)
        packet.auth_data = _tamper_envelope(packet.auth_data)
        counter.reset()
        connection = loopback.open()
        connection.send(packet)
        assert connection.recv().kind is PacketKind.DISCONNECT
        assert loopback.events[-1] == {"event": "connect_rejected", "session": None, "reason": "AuthenticationError"}
        assert counter.loads == {} and counter.exchanges == {"broker": 1}

    def test_building_a_client_or_broker_converts_no_public_key(self, env, monkeypatch):
        # Each needs only its own X25519 secret, never its own converted public key.
        keypair = load_signing_key(env.config.signing_key_path)
        convert, calls = daxiot.crypto.convert_public_key, []
        monkeypatch.setattr(daxiot.crypto, "convert_public_key", lambda key: calls.append(key) or convert(key))
        env.publisher_client()
        DaxiotBroker(keypair, env.broker_did, env.resolver(), lambda: None, lambda: None)
        assert calls == []

    def test_status_snapshot(self, env, loopback):
        assert loopback.engine.status() == []
        publisher = env.publisher_client()
        connection = establish(loopback, publisher, env.broker_did)
        snapshot = loopback.engine.status()
        assert len(snapshot) == 1
        assert snapshot[0]["static_did"] == publisher.static_did
        assert snapshot[0]["publish_grants"] == 1
        connection.send(publisher.disconnect())
        assert loopback.engine.status() == []

    def test_disconnect_cleans_topic_table(self, env, loopback):
        subscriber = env.subscriber_client()
        connection = establish(loopback, subscriber, env.broker_did)
        connection.send(subscriber.subscribe(env.topic))
        subscriber.handle_suback(connection.recv())
        assert loopback.engine.topics[env.topic]
        connection.send(subscriber.disconnect())
        assert not loopback.engine.topics[env.topic]

    def test_wire_capture_has_no_secrets(self, env, loopback):
        publisher, subscriber = env.publisher_client(), env.subscriber_client()
        publisher_conn = establish(loopback, publisher, env.broker_did)
        subscriber_conn = establish(loopback, subscriber, env.broker_did)
        subscriber_conn.send(subscriber.subscribe(env.topic))
        subscriber.handle_suback(subscriber_conn.recv())
        publisher_conn.send(publisher.publish(env.topic, env.payload))
        publisher.handle_puback(publisher_conn.recv())

        wire = b"".join(frame for _, frame in loopback.captures)
        for secret in (
            env.topic.encode(),
            env.payload,
            publisher.static_did.encode(),
            subscriber.static_did.encode(),
            env.publisher.jti.encode(),
            env.publisher.credential.compact().encode(),
            b"AuthorizationCredential",
        ):
            assert secret not in wire


# ---------------------------------------------------------------------------
# The broker's refusal policy, one row per refusal class
# ---------------------------------------------------------------------------
#
# Each scenario sets a broker up and returns (session, packet): the packet the
# broker refuses, and the session it arrives on (None for the first packet of
# a connection, which has no session yet).

PE, NA = ReasonCode.PROTOCOL_ERROR, ReasonCode.NOT_AUTHORIZED
DISCONNECT, CONNACK = PacketKind.DISCONNECT, PacketKind.CONNACK


def _challenged(env, loopback):
    """A client the broker has challenged, its connection, and its unsent response."""
    client = env.publisher_client()
    connection = loopback.open()
    connection.send(client.begin_connect(env.broker_did))
    return client, connection, client.handle_challenge(connection.recv())


def _wrong_first_packet(env, loopback):
    return None, Packet(kind=PacketKind.PUBLISH, topic=b"x")


def _wrong_auth_method(env, loopback):
    packet = env.publisher_client().begin_connect(env.broker_did)
    packet.auth_method = "TLS"
    return None, packet


def _replayed_connect(env, loopback):
    packet = env.publisher_client().begin_connect(env.broker_did)
    loopback.open().send(packet)
    return None, packet


def _duplicate_client_id(env, loopback):
    client = env.publisher_client()
    establish(loopback, client, env.broker_did)
    packet = env.publisher_client().begin_connect(env.broker_did)
    packet.client_id = client.ephemeral_did
    return None, packet


def _connect_on_open_session(env, loopback):
    client = env.publisher_client()
    establish(loopback, client, env.broker_did)
    packet = env.publisher_client().begin_connect(env.broker_did)
    return client.ephemeral_did, packet


def _broker_only_kind(env, loopback):
    client = env.publisher_client()
    establish(loopback, client, env.broker_did)
    packet = Packet(kind=PacketKind.CONNACK, reason_code=ReasonCode.SUCCESS)
    return client.ephemeral_did, packet


def _subscribe_before_established(env, loopback):
    client, _, _ = _challenged(env, loopback)
    packet = Packet(kind=PacketKind.SUBSCRIBE, topic=b"x")
    return client.ephemeral_did, packet


def _bad_subscribe(env, loopback):
    client = env.subscriber_client()
    establish(loopback, client, env.broker_did)
    packet = client.subscribe(env.topic)
    packet.topic = _tamper_envelope(packet.topic)
    return client.ephemeral_did, packet


def _bad_publish(env, loopback):
    client = env.publisher_client()
    establish(loopback, client, env.broker_did)
    packet = client.publish(env.topic, b"x")
    packet.payload = _tamper_envelope(packet.payload)
    return client.ephemeral_did, packet


def _auth_response_replayed_when_established(env, loopback):
    client, connection, response = _challenged(env, loopback)
    connection.send(response)
    client.handle_connack(connection.recv())
    return client.ephemeral_did, response


def _tampered_auth_response(env, loopback):
    client, _, response = _challenged(env, loopback)
    response.auth_data = _tamper_envelope(response.auth_data)
    return client.ephemeral_did, response


def _revoked_credential(env, loopback):
    RevocationRegistry.load(env.rr_path).revoke(env.publisher.jti).save(env.rr_path)
    client, _, response = _challenged(env, loopback)
    return client.ephemeral_did, response


def _non_utf8_presentation(env, loopback):
    client, _, _ = _challenged(env, loopback)
    session = loopback.engine.sessions[client.ephemeral_did]
    channel = Channel(session.c2b.key, client.ephemeral_did, session.c2b.nonce)
    (envelope,) = channel.seal(PacketKind.AUTH_RESPONSE, b"\xff\xfe~")
    packet = Packet(kind=PacketKind.AUTH_RESPONSE, auth_data=envelope.to_bytes())
    return client.ephemeral_did, packet


def _exhausted_c2b(env, loopback):
    client = env.subscriber_client()
    establish(loopback, client, env.broker_did)
    session = loopback.engine.sessions[client.ephemeral_did]
    session.c2b.nonce = Nonce(session.c2b.nonce.prefix, LAST_COUNTER)
    aad = bytes([PacketKind.SUBSCRIBE]) + client.ephemeral_did.encode()
    envelope = aead_encrypt(session.c2b.key, session.c2b.nonce, env.topic.encode(), aad)
    packet = Packet(kind=PacketKind.SUBSCRIBE, topic=envelope.to_bytes())
    return client.ephemeral_did, packet


# scenario, event, reason, reply packets, close, session alive afterwards
REFUSALS = {
    "wrong first packet": (
        _wrong_first_packet, "connect_rejected", "ProtocolOrderError", [(DISCONNECT, PE)], True, None
    ),
    "wrong auth method": (
        _wrong_auth_method, "connect_rejected", "ProtocolMismatch", [(DISCONNECT, PE)], True, None
    ),
    "replayed connect": (
        _replayed_connect, "connect_rejected", "ReplayError", [(DISCONNECT, PE)], True, None
    ),
    "duplicate client id": (
        _duplicate_client_id, "connect_rejected", "ProtocolOrderError", [(DISCONNECT, PE)], True, None
    ),
    "connect on an open session": (
        _connect_on_open_session, "protocol_error", "ProtocolOrderError", [(DISCONNECT, PE)], True, False
    ),
    "broker-only kind from a client": (
        _broker_only_kind, "protocol_error", "ProtocolOrderError", [(DISCONNECT, PE)], True, False
    ),
    "subscribe before establishment": (
        _subscribe_before_established, "protocol_error", "ProtocolOrderError",
        [(PacketKind.SUBACK, PE), (DISCONNECT, PE)], True, False,
    ),
    "bad subscribe when established": (
        _bad_subscribe, "subscribe_rejected", "IntegrityError", [(PacketKind.SUBACK, PE)], False, True
    ),
    "bad publish when established": (
        _bad_publish, "publish_rejected", "IntegrityError", [(PacketKind.PUBACK, PE)], False, True
    ),
    "auth response replayed when established": (
        _auth_response_replayed_when_established, "auth_rejected", "ReplayError", [], False, True
    ),
    "tampered auth response": (
        _tampered_auth_response, "auth_rejected", "AuthenticationError",
        [(CONNACK, PE), (DISCONNECT, PE)], True, False,
    ),
    "revoked credential": (
        _revoked_credential, "auth_rejected", "Revoked", [(CONNACK, NA), (DISCONNECT, NA)], True, False
    ),
    "non-UTF-8 presentation": (
        _non_utf8_presentation, "auth_rejected", "MalformedCredential",
        [(CONNACK, NA), (DISCONNECT, NA)], True, False,
    ),
    "exhausted c2b": (
        _exhausted_c2b, "session_exhausted", None, [(DISCONNECT, PE)], True, False
    ),
}


class TestRefusalPolicy:
    @pytest.mark.parametrize("row", list(REFUSALS))
    def test_refusal(self, env, loopback, row):
        scenario, event, reason, packets, close, alive = REFUSALS[row]
        session_id, packet = scenario(env, loopback)
        engine, events_before = loopback.engine, len(loopback.events)
        sessions_before = set(engine.sessions)

        if session_id is None:
            new_session, reply = engine.handle_connect(packet)
            assert new_session is None
            assert set(engine.sessions) == sessions_before
        else:
            reply = engine.handle_packet(session_id, packet)
            assert (session_id in engine.sessions) is alive
            assert set(engine.sessions) | {session_id} == sessions_before
        assert loopback.events[events_before:] == [
            {"event": event, "session": session_id, "reason": reason}
        ]
        assert [(p.kind, p.reason_code) for p in reply.packets] == packets
        assert reply.close is close
        assert reply.forwards == []
        assert type(reply.error).__name__ == (reason or "NonceOverflowError")

    def test_disconnect_from_unknown_session_is_silent(self, loopback):
        reply = loopback.engine.handle_packet("did:key:gone", Packet(kind=PacketKind.DISCONNECT))
        assert reply == daxiot.protocol.Reply(close=True)
        assert loopback.events == []

    @pytest.mark.parametrize("kind", [k for k in PacketKind if k is not PacketKind.DISCONNECT], ids=lambda k: k.name)
    def test_other_packets_from_unknown_session_raise(self, loopback, kind):
        with pytest.raises(ProtocolOrderError):
            loopback.engine.handle_packet("did:key:gone", Packet(kind=kind))
        assert loopback.events == []

    @pytest.mark.parametrize("where", ["client id", "static DID"])
    def test_oversized_did_key_is_refused_before_decoding(self, env, loopback, monkeypatch, where):
        # base58 decoding is quadratic; a 64k-character did:key took about a
        # second, so nothing longer than a real one may reach the decoder.
        decode = daxiot.did.base58btc_decode

        def bounded(text):
            if len(text) > 64:
                pytest.fail(f"base58btc_decode reached with {len(text)} characters")
            return decode(text)

        monkeypatch.setattr(daxiot.did, "base58btc_decode", bounded)
        oversized = "did:key:z" + "2" * 65536
        client = env.publisher_client()
        if where == "static DID":
            client.static_did = oversized  # sealed inside the ES envelope
        packet = client.begin_connect(env.broker_did)
        if where == "client id":
            packet.client_id = oversized

        session_id, reply = loopback.engine.handle_connect(packet)

        assert session_id is None
        assert isinstance(reply.error, DidError)
        assert loopback.events == [{"event": "connect_rejected", "session": None, "reason": "DidError"}]
        assert [(p.kind, p.reason_code) for p in reply.packets] == [(DISCONNECT, PE)]

from __future__ import annotations

import ast
import copy
import dataclasses
import hashlib
import os
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import establish, refusal
from daxiot.credential import (
    AuthorizationClaim,
    Disclosure,
    RevocationRegistry,
    TrustedIssuerList,
    _b64url,
    _canonical_json,
    issue,
)
import daxiot.crypto
import daxiot.did
import daxiot.protocol
import daxiot.snapshot
from daxiot.crypto import SessionKey, XChaCha20Poly1305, aead_encrypt, load_signing_key
from daxiot.errors import (
    AuthenticationError,
    ConnectionRejected,
    CryptoError,
    DidError,
    IntegrityError,
    NonceOverflowError,
    NothingToPresent,
    ProtocolError,
    ProtocolMismatch,
    ProtocolOrderError,
    ReplayError,
)
from daxiot.protocol import Channel, DaxiotBroker, DaxiotClient
from daxiot.scenario import build_scenario
from daxiot.transport import LoopbackNetwork, run_handshake
from daxiot.wire import Packet, PacketKind, ReasonCode, decode_frame, encode_frame
from helpers import PermissionOracle, source_nodes


LAST_COUNTER = 2**64 - 1


def _tamper_envelope(data: bytes) -> bytes:
    # Flip one bit inside the ciphertext section, past the 24-byte nonce.
    mutated = bytearray(data)
    mutated[24] ^= 0x01
    return bytes(mutated)


def _renonce(data: bytes, nonce: bytes) -> bytes:
    return nonce + data[24:]


def _client_state(client):
    """What a client's phase and debts are: its ephemeral DID, its session
    key, each channel with its next nonce, and the acks it waits for."""
    send, recv = client._send, client._recv
    return (
        client.ephemeral_did,
        client._session_key,
        send, send and send.nonce,
        recv, recv and recv.nonce,
        dict(client._pending),
    )


def _subscribed_pair(env, loopback):
    """An established publisher, and a subscriber registered on env.topic."""
    publisher, subscriber = env.publisher_client(), env.subscriber_client()
    publisher_conn = establish(loopback, publisher, env.broker_did)
    subscriber_conn = establish(loopback, subscriber, env.broker_did)
    subscriber_conn.send(subscriber.subscribe(env.topic))
    assert subscriber.handle_suback(subscriber_conn.recv()) is ReasonCode.SUCCESS
    return publisher, publisher_conn, subscriber, subscriber_conn


def test_nonce_discipline_lives_in_channel():
    # One owner of every direction's prefix and counter: only Channel's
    # methods raise NonceOverflowError, and no nonce or envelope type exists.
    nodes = list(source_nodes())
    channel_methods = {
        (path, method.name)
        for path, _, node in nodes
        if path == "protocol.py" and isinstance(node, ast.ClassDef) and node.name == "Channel"
        for method in node.body
        if isinstance(method, ast.FunctionDef)
    }
    raisers = {
        (path, function)
        for path, function, node in nodes
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == "NonceOverflowError"
    }
    assert raisers and raisers <= channel_methods, raisers
    classes = {node.name for _, _, node in nodes if isinstance(node, ast.ClassDef)}
    assert not classes & {"Nonce", "AeadEnvelope"}


def test_the_publish_layout_lives_in_one_codec():
    # Only the codec pair seals or opens PUBLISH envelopes, so the layout
    # (topic at n, payload at n+1, strict UTF-8 topic) is written once.
    users = {
        (path, function)
        for path, function, node in source_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("seal", "open")
        and node.args
        and ast.unparse(node.args[0]) == "PacketKind.PUBLISH"
    }
    assert users == {("protocol.py", "_seal_publish"), ("protocol.py", "_open_publish")}, users


def test_the_compact_sd_jwt_layout_lives_in_one_codec():
    # The wire presentation and the holder's credential file are both written
    # by Presentation.compact and read by Presentation.parse: no second
    # serialisation spells out the '~' separator.
    users = {
        (path, function)
        for path, function, node in source_nodes()
        if isinstance(node, ast.Constant) and node.value == "~"
    }
    assert users == {("credential.py", "compact"), ("credential.py", "parse")}, users


CHANNEL_KEY = SessionKey(key=b"\x42" * 32)
CHANNEL_DID = "did:key:z6MkChannelTest"
prefixes = st.binary(min_size=16, max_size=16)


def _nonce(prefix: bytes, counter: int) -> bytes:
    return prefix + counter.to_bytes(8, "big")


def _twins(prefix: bytes, counter: int) -> tuple[Channel, Channel]:
    """A sender and a receiver standing at the same nonce of one direction."""
    nonce = _nonce(prefix, counter)
    return Channel(CHANNEL_KEY, CHANNEL_DID, nonce), Channel(CHANNEL_KEY, CHANNEL_DID, nonce)


class TestChannel:
    @settings(max_examples=50, deadline=None)
    @given(
        prefix=prefixes,
        counter=st.one_of(st.integers(0, 8), st.integers(0, LAST_COUNTER - 17)),
        sizes=st.lists(st.integers(1, 2), min_size=1, max_size=8),
    )
    @example(prefix=b"\x01" * 16, counter=0x0102030405060708, sizes=[1])
    def test_seal_uses_consecutive_nonces_a_twin_opens(self, prefix, counter, sizes):
        sender, receiver = _twins(prefix, counter)
        expected = counter
        for size in sizes:
            fields = [b"field %d" % index for index in range(size)]
            envelopes = sender.seal(PacketKind.PUBLISH, *fields)
            # prefix || 8-byte big-endian counter, one counter per field
            assert [e[:24] for e in envelopes] == [_nonce(prefix, expected + i) for i in range(size)]
            assert receiver.open(PacketKind.PUBLISH, *envelopes) == fields
            expected += size
            assert sender.counter == receiver.counter == expected
            assert sender.cipher.prefix == receiver.cipher.prefix == prefix

    @settings(max_examples=80, deadline=None)
    @given(
        prefix=prefixes,
        counter=st.one_of(st.integers(0, 8), st.integers(0, LAST_COUNTER - 2)),
        position=st.integers(0, 1),
        data=st.data(),
    )
    def test_any_other_nonce_is_a_replay(self, prefix, counter, position, data):
        sender, receiver = _twins(prefix, counter)
        envelopes = sender.seal(PacketKind.PUBLISH, b"topic", b"payload")
        expected = _nonce(prefix, counter + position)
        other_prefix = data.draw(st.one_of(st.just(prefix), prefixes))
        near = st.integers(max(0, counter - 2), min(LAST_COUNTER - 1, counter + 3))
        other = _nonce(other_prefix, data.draw(st.one_of(near, st.integers(0, LAST_COUNTER - 1))))
        if other == expected:
            other = _nonce(bytes(b ^ 0xFF for b in prefix), counter + position)
        (envelopes[position],) = Channel(CHANNEL_KEY, CHANNEL_DID, other).seal(
            PacketKind.PUBLISH, b"forged"
        )
        with pytest.raises(ReplayError):
            receiver.open(PacketKind.PUBLISH, *envelopes)
        assert receiver.counter == counter

    def test_the_last_usable_counter_is_2_64_minus_2(self):
        prefix = b"\x07" * 16
        aad = daxiot.protocol._aad(PacketKind.PUBLISH, CHANNEL_DID)
        for start in range(LAST_COUNTER - 3, LAST_COUNTER + 1):
            for count in (1, 2):
                fields = [b"field %d" % index for index in range(count)]
                sender, receiver = _twins(prefix, start)
                if start + count - 1 <= LAST_COUNTER - 1:
                    envelopes = sender.seal(PacketKind.PUBLISH, *fields)
                    assert receiver.open(PacketKind.PUBLISH, *envelopes) == fields
                    assert sender.counter == receiver.counter == start + count
                    continue
                with pytest.raises(NonceOverflowError):
                    sender.seal(PacketKind.PUBLISH, *fields)
                # Envelopes at the counters a sender would have needed, up to the last one.
                envelopes = [
                    aead_encrypt(sender.cipher, _nonce(prefix, min(start + i, LAST_COUNTER)), field, aad)
                    for i, field in enumerate(fields)
                ]
                with pytest.raises(NonceOverflowError):
                    receiver.open(PacketKind.PUBLISH, *envelopes)
                assert sender.counter == receiver.counter == start

    def test_a_nonce_of_the_wrong_length_is_refused(self):
        for length in (0, 15, 16, 23, 25, 32):
            with pytest.raises(CryptoError):
                Channel(CHANNEL_KEY, CHANNEL_DID, bytes(length))
        sender, receiver = _twins(b"\x09" * 16, 5)
        (envelope,) = sender.seal(PacketKind.SUBSCRIBE, b"topic")
        with pytest.raises(ReplayError):  # a 16-byte nonce: the prefix alone
            receiver.open(PacketKind.SUBSCRIBE, envelope[:16] + envelope[24:])
        assert receiver.counter == 5


def test_a_seeded_session_puts_the_same_bytes_on_the_wire(tmp_path, monkeypatch):
    # Every random byte (keys, salts, nonces) comes from one seeded generator,
    # so two handshakes, a subscribe and a publish make one fixed transcript:
    # no change to how envelopes are sealed or opened may move a wire byte.
    monkeypatch.setattr(os, "urandom", random.Random(16).randbytes)
    env = build_scenario(tmp_path / "env")
    network = LoopbackNetwork(env.config.engine())
    publisher, publisher_conn, subscriber, subscriber_conn = _subscribed_pair(env, network)
    publisher_conn.send(publisher.publish(env.topic, b"21.5 C"))
    assert publisher.handle_puback(publisher_conn.recv()) is ReasonCode.SUCCESS
    assert subscriber.handle_publish(subscriber_conn.recv()) == (env.topic, b"21.5 C")
    transcript = hashlib.sha256()
    for direction, frame in network.captures:
        transcript.update(direction.encode() + len(frame).to_bytes(4, "big") + frame)
    assert len(network.captures) == 13
    assert transcript.hexdigest() == "9207b337785c3c7ff2e357a2c144615aa82015936f9006061bbd5a0e312a087a"


class TestHandshake:
    def test_full_flow_with_key_agreement(self, env, loopback):
        publisher = env.publisher_client()
        connection = loopback.open()
        connection.send(publisher.begin_connect(env.broker_did))
        session = loopback.engine.sessions[publisher.ephemeral_did]
        # Both ends hold the one-pass unified key until step H. (The ES key
        # agreed, or the broker could not have decrypted the connect.)
        assert publisher._session_key == session.key
        connection.send(publisher.handle_challenge(connection.recv()))
        publisher.handle_connack(connection.recv())

        assert publisher._recv is not None
        assert session.b2c is not None
        assert publisher._session_key is None and session.key is None
        # Both directions run under that key and stand at the same next nonce
        # on either end: what one end's channel seals, the other end's opens.
        assert publisher._send.nonce == session.c2b.nonce
        assert publisher._recv.nonce == session.b2c.nonce
        for sender, receiver in ((publisher._send, session.c2b), (session.b2c, publisher._recv)):
            envelopes = copy.copy(sender).seal(PacketKind.PUBLISH, b"topic", b"payload")
            assert copy.copy(receiver).open(PacketKind.PUBLISH, *envelopes) == [b"topic", b"payload"]
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
        assert refusal(loopback.events) == ("connect_rejected", "ProtocolMismatch", "C")
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
        state = _client_state(client)
        with pytest.raises(NothingToPresent):
            client.handle_challenge(connection.recv())
        assert _client_state(client) == state  # the step raised after building its channel

    def test_duplicate_client_id_rejected(self, env, loopback):
        client = env.publisher_client()
        connection = establish(loopback, client, env.broker_did)
        duplicate = env.publisher_client().begin_connect(env.broker_did)
        duplicate.client_id = client.ephemeral_did
        session_id, reply = loopback.engine.handle_connect(duplicate)
        assert session_id is None
        assert refusal(loopback.events) == ("connect_rejected", "ProtocolOrderError", "C")
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
            "event": "auth_rejected", "session": client.ephemeral_did, "reason": "TrustFileError", "step": "H"
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

    @pytest.mark.parametrize("trusted", [True, False])
    def test_disclosures_are_decoded_only_behind_the_signature(self, tmp_path, monkeypatch, trusted):
        # The issuer's signature (step 3) comes before any disclosure parse
        # (step 5): an untrusted issuer's presentation decodes none.
        env = build_scenario(tmp_path / "env", trust_publisher_owner=trusted)
        events: list[dict] = []
        network = LoopbackNetwork(env.config.engine(event_sink=events.append))
        decode, decoded = Disclosure.decode, []
        monkeypatch.setattr(Disclosure, "decode", staticmethod(lambda raw: decoded.append(raw) or decode(raw)))
        client = env.publisher_client()
        if trusted:
            run_handshake(client, network.open(), env.broker_did)
            assert (events[-1]["event"], len(decoded)) == ("authenticated", 1)
        else:
            with pytest.raises(ConnectionRejected):
                run_handshake(client, network.open(), env.broker_did)
            assert (events[-1]["event"], events[-1]["reason"], len(decoded)) == ("auth_rejected", "UntrustedIssuer", 0)


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
        loopback.engine.handle_packet(client.ephemeral_did, response)
        assert refusal(loopback.events) == ("auth_rejected", "ReplayError", "G")
        # The live session survives a replayed handshake frame.
        assert client.ephemeral_did in loopback.engine.sessions

    def test_replayed_subscribe(self, env, loopback):
        subscriber = env.subscriber_client()
        connection = establish(loopback, subscriber, env.broker_did)
        subscribe_packet = subscriber.subscribe(env.topic)
        connection.send(subscribe_packet)
        assert subscriber.handle_suback(connection.recv()) is ReasonCode.SUCCESS
        reply = loopback.engine.handle_packet(subscriber.ephemeral_did, subscribe_packet)
        assert refusal(loopback.events) == ("subscribe_rejected", "ReplayError", "I")
        assert reply.packets[0].reason_code is ReasonCode.PROTOCOL_ERROR

    def test_replayed_publish(self, env, loopback):
        publisher = env.publisher_client()
        connection = establish(loopback, publisher, env.broker_did)
        publish_packet = publisher.publish(env.topic, b"one")
        connection.send(publish_packet)
        assert publisher.handle_puback(connection.recv()) is ReasonCode.SUCCESS
        loopback.engine.handle_packet(publisher.ephemeral_did, publish_packet)
        assert refusal(loopback.events) == ("publish_rejected", "ReplayError", "J")

    def test_counter_gap_rejected(self, env, loopback):
        publisher = env.publisher_client()
        establish(loopback, publisher, env.broker_did)
        skipped = publisher.publish(env.topic, b"never sent")
        ahead = publisher.publish(env.topic, b"gap")
        loopback.engine.handle_packet(publisher.ephemeral_did, ahead)
        assert refusal(loopback.events) == ("publish_rejected", "ReplayError", "J")

    def test_spliced_topic_and_payload(self, env, loopback):
        publisher = env.publisher_client()
        connection = establish(loopback, publisher, env.broker_did)
        first = publisher.publish(env.topic, b"first")
        second = publisher.publish(env.topic, b"second")
        spliced = Packet(kind=PacketKind.PUBLISH, topic=first.topic, payload=second.payload)
        loopback.engine.handle_packet(publisher.ephemeral_did, spliced)
        assert refusal(loopback.events) == ("publish_rejected", "ReplayError", "J")
        # Swapping the two envelopes of one message also breaks affiliation.
        swapped = Packet(kind=PacketKind.PUBLISH, topic=first.payload, payload=first.topic)
        loopback.engine.handle_packet(publisher.ephemeral_did, swapped)
        assert refusal(loopback.events) == ("publish_rejected", "ReplayError", "J")

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
        foreign = daxiot.protocol._fresh_nonce()[:16]
        forwarded.topic = _renonce(forwarded.topic, foreign + forwarded.topic[16:24])
        forwarded.payload = _renonce(forwarded.payload, foreign + forwarded.payload[16:24])
        with pytest.raises(ReplayError):
            subscriber.handle_publish(forwarded)

    def test_undecryptable_connects_leave_replay_set_unchanged(self, env, loopback):
        establish(loopback, env.publisher_client(), env.broker_did)
        seen = len(loopback.engine._seen_connect_nonces)
        assert seen == 1
        for _ in range(50):
            packet = env.publisher_client().begin_connect(env.broker_did)
            packet.auth_data = _tamper_envelope(packet.auth_data)
            session_id, _ = loopback.engine.handle_connect(packet)
            assert session_id is None
            assert refusal(loopback.events) == ("connect_rejected", "AuthenticationError", "C")
        assert len(loopback.engine._seen_connect_nonces) == seen

    @pytest.mark.parametrize(
        "kind", [PacketKind.CONNECT, PacketKind.AUTH_CHALLENGE, PacketKind.CONNACK], ids=lambda kind: kind.name
    )
    def test_a_peer_started_channel_must_start_at_counter_zero(self, env, loopback, kind):
        # Every fresh nonce is at counter zero, so the first envelope of a
        # channel the peer started is refused at any other counter.
        def at_counter_one(envelope: bytes) -> bytes:
            return envelope[:23] + bytes([envelope[23] ^ 0x01]) + envelope[24:]

        client = env.publisher_client()
        if kind is PacketKind.CONNECT:
            packet = client.begin_connect(env.broker_did)
            packet.auth_data = at_counter_one(packet.auth_data)
            session_id, reply = loopback.engine.handle_connect(packet)
            assert (session_id, loopback.engine.sessions, loopback.engine._seen_connect_nonces) == (None, {}, set())
            assert loopback.events == [
                {"event": "connect_rejected", "session": None, "reason": "ProtocolOrderError", "step": "C"}
            ]
            assert [(p.kind, p.reason_code) for p in reply.packets] == [(DISCONNECT, PE)]
            assert reply.close
            return
        connection = loopback.open()
        connection.send(client.begin_connect(env.broker_did))
        packet, handle = connection.recv(), client.handle_challenge
        if kind is PacketKind.CONNACK:
            connection.send(client.handle_challenge(packet))
            packet, handle = connection.recv(), client.handle_connack
        state = _client_state(client)
        packet.auth_data = at_counter_one(packet.auth_data)
        with pytest.raises(ProtocolOrderError) as refused:
            handle(packet)
        assert refused.type is ProtocolOrderError
        assert _client_state(client) == state

    def test_broker_to_client_prefix_is_distinct(self, env, loopback):
        publisher = env.publisher_client()
        establish(loopback, publisher, env.broker_did)
        session = loopback.engine.sessions[publisher.ephemeral_did]
        assert session.b2c.cipher.prefix != session.c2b.cipher.prefix


class TestTampering:
    def test_tampered_connect(self, env, loopback):
        client = env.publisher_client()
        packet = client.begin_connect(env.broker_did)
        packet.auth_data = _tamper_envelope(packet.auth_data)
        session_id, _ = loopback.engine.handle_connect(packet)
        assert session_id is None
        assert refusal(loopback.events) == ("connect_rejected", "AuthenticationError", "C")

    def test_tampered_challenge(self, env, loopback):
        client = env.publisher_client()
        connection = loopback.open()
        connection.send(client.begin_connect(env.broker_did))
        challenge = connection.recv()
        challenge.auth_data = _tamper_envelope(challenge.auth_data)
        with pytest.raises(AuthenticationError):
            client.handle_challenge(challenge)

    @pytest.mark.parametrize("length", [23, 25])
    def test_challenge_payload_must_be_one_nonce(self, env, loopback, length):
        client = env.publisher_client()
        connection = loopback.open()
        connection.send(client.begin_connect(env.broker_did))
        connection.recv()
        key = loopback.engine.sessions[client.ephemeral_did].key
        aad = bytes([PacketKind.AUTH_CHALLENGE]) + client.ephemeral_did.encode()
        nonce = daxiot.protocol._fresh_nonce()
        envelope = aead_encrypt(XChaCha20Poly1305(key, nonce[:16]), nonce, bytes(length), aad)
        challenge = Packet(kind=PacketKind.AUTH_CHALLENGE, auth_data=envelope)
        with pytest.raises(ProtocolError) as refused:
            client.handle_challenge(challenge)
        assert refused.type is ProtocolError
        assert client._session_key is not None and client._send is None

    def test_tampered_auth_response(self, env, loopback):
        client = env.publisher_client()
        connection = loopback.open()
        connection.send(client.begin_connect(env.broker_did))
        response = client.handle_challenge(connection.recv())
        response.auth_data = _tamper_envelope(response.auth_data)
        reply = loopback.engine.handle_packet(client.ephemeral_did, response)
        assert refusal(loopback.events) == ("auth_rejected", "AuthenticationError", "G")
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

    def test_a_success_connack_sealing_another_status(self, env, loopback):
        client, _, _ = _challenged(env, loopback)
        (envelope,) = Channel(client._session_key, client.ephemeral_did, daxiot.protocol._fresh_nonce()).seal(
            PacketKind.CONNACK, bytes([ReasonCode.NOT_AUTHORIZED])
        )
        connack = Packet(kind=PacketKind.CONNACK, reason_code=ReasonCode.SUCCESS, auth_data=envelope)
        with pytest.raises(AuthenticationError, match="contradicts its reason code"):
            client.handle_connack(connack)

    def test_tampered_subscribe(self, env, loopback):
        subscriber = env.subscriber_client()
        establish(loopback, subscriber, env.broker_did)
        packet = subscriber.subscribe(env.topic)
        packet.topic = _tamper_envelope(packet.topic)
        loopback.engine.handle_packet(subscriber.ephemeral_did, packet)
        assert refusal(loopback.events) == ("subscribe_rejected", "IntegrityError", "I")

    def test_tampered_publish_fields(self, env, loopback):
        publisher = env.publisher_client()
        establish(loopback, publisher, env.broker_did)
        packet = publisher.publish(env.topic, b"x")
        tampered_topic = Packet(
            kind=PacketKind.PUBLISH, topic=_tamper_envelope(packet.topic), payload=packet.payload
        )
        loopback.engine.handle_packet(publisher.ephemeral_did, tampered_topic)
        assert refusal(loopback.events) == ("publish_rejected", "IntegrityError", "J")

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
        c2b = session_b.c2b
        foreign = Packet(
            kind=PacketKind.PUBLISH,
            topic=_renonce(packet.topic, c2b.nonce),
            payload=_renonce(packet.payload, _nonce(c2b.cipher.prefix, c2b.counter + 1)),
        )
        loopback.engine.handle_packet(publisher_b.ephemeral_did, foreign)
        assert refusal(loopback.events) == ("publish_rejected", "IntegrityError", "J")


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
        nonce = daxiot.protocol._fresh_nonce()
        envelope = aead_encrypt(
            XChaCha20Poly1305(client._session_key, nonce[:16]),
            nonce,
            env.topic.encode(),
            bytes([PacketKind.SUBSCRIBE]) + client.ephemeral_did.encode(),
        )
        reply = loopback.engine.handle_packet(
            client.ephemeral_did, Packet(kind=PacketKind.SUBSCRIBE, topic=envelope)
        )
        assert refusal(loopback.events) == ("protocol_error", "ProtocolOrderError", "I")
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


CLIENT_STATES = ("idle", "connect-sent", "challenged", "established")
# The operations each state accepts; disconnect is accepted in every state.
IN_ORDER = {
    "idle": {"begin_connect"},
    "connect-sent": {"handle_challenge"},
    "challenged": {"handle_connack"},
    "established": {"subscribe", "publish", "handle_publish"},
}


def _client_at(env, loopback, state):
    """A publisher brought to ``state`` over the loopback, and the packets the
    broker has sent it by then; the last of them not yet handled."""
    client, connection = env.publisher_client(), loopback.open()
    packets = {}
    step = CLIENT_STATES.index(state)
    if step >= 1:
        connection.send(client.begin_connect(env.broker_did))
        packets["challenge"] = connection.recv()
    if step >= 2:
        connection.send(client.handle_challenge(packets["challenge"]))
        packets["connack"] = connection.recv()
    if step >= 3:
        client.handle_connack(packets["connack"])
        b2c = loopback.engine.sessions[client.ephemeral_did].b2c
        packets["publish"] = daxiot.protocol._seal_publish(b2c, env.topic.encode(), b"21.5 C")
    return client, packets


# Each operation gets the broker's real packet where one exists, so that only
# the order check can tell a stale challenge or connack from a fresh one.
CLIENT_OPERATIONS = {
    "begin_connect": lambda env, client, packets: client.begin_connect(env.broker_did),
    "handle_challenge": lambda env, client, packets: client.handle_challenge(
        packets.get("challenge", Packet(kind=PacketKind.AUTH_CHALLENGE, auth_data=bytes(40)))
    ),
    "handle_connack": lambda env, client, packets: client.handle_connack(
        packets.get("connack", Packet(kind=PacketKind.CONNACK, reason_code=ReasonCode.SUCCESS, auth_data=bytes(40)))
    ),
    "subscribe": lambda env, client, packets: client.subscribe(env.topic),
    "handle_suback": lambda env, client, packets: client.handle_suback(
        Packet(kind=PacketKind.SUBACK, reason_code=ReasonCode.SUCCESS)
    ),
    "publish": lambda env, client, packets: client.publish(env.topic, b"21.5 C"),
    "handle_puback": lambda env, client, packets: client.handle_puback(
        Packet(kind=PacketKind.PUBACK, reason_code=ReasonCode.SUCCESS)
    ),
    "handle_publish": lambda env, client, packets: client.handle_publish(
        packets.get("publish", Packet(kind=PacketKind.PUBLISH, topic=bytes(40), payload=bytes(40)))
    ),
    "disconnect": lambda env, client, packets: client.disconnect(),
}


@pytest.mark.parametrize("operation", CLIENT_OPERATIONS)
@pytest.mark.parametrize("state", CLIENT_STATES)
def test_client_operations_in_every_state(env, loopback, state, operation):
    # A client's state is which of its fields are set; an operation out of
    # order is refused before it changes any of them.
    client, packets = _client_at(env, loopback, state)
    did, key, send, recv = client.ephemeral_did, client._session_key, client._send, client._recv
    assert (did is not None, key is not None, send is not None, recv is not None) == (
        state != "idle", state in ("connect-sent", "challenged"), state in ("challenged", "established"), state == "established"
    )
    call = CLIENT_OPERATIONS[operation]
    if operation == "disconnect":
        assert call(env, client, packets).kind is PacketKind.DISCONNECT
        assert _client_state(client) == (None, None, None, None, None, None, {PacketKind.SUBACK: 0, PacketKind.PUBACK: 0})
    elif operation in IN_ORDER[state]:
        call(env, client, packets)
    else:
        state_before = _client_state(client)
        with pytest.raises(ProtocolOrderError) as refused:
            call(env, client, packets)
        assert refused.type is ProtocolOrderError
        assert _client_state(client) == state_before


@pytest.mark.parametrize("reason", [ReasonCode.PROTOCOL_ERROR, ReasonCode.NOT_AUTHORIZED])
def test_a_disconnect_in_place_of_the_challenge_is_a_rejection(env, loopback, reason):
    client, connection = env.publisher_client(), loopback.open()
    connect = client.begin_connect(env.broker_did)
    if reason is ReasonCode.PROTOCOL_ERROR:  # the broker's own refusal of a connect
        connect.auth_data = _tamper_envelope(connect.auth_data)
        connection.send(connect)
        refusal = connection.recv()
    else:
        refusal = Packet(kind=PacketKind.DISCONNECT, reason_code=reason)
    assert refusal.kind is PacketKind.DISCONNECT
    state = _client_state(client)
    with pytest.raises(ConnectionRejected) as rejected:
        client.handle_challenge(refusal)
    assert rejected.value.reason_code is reason
    assert _client_state(client) == state


@pytest.mark.parametrize("call", ["handle_publish", "handle_suback", "handle_puback"])
def test_an_exhausted_subscriber_reads_its_disconnect_as_a_rejection(env, loopback, call):
    # The broker ends a subscriber whose counter runs out during fan-out with
    # a DISCONNECT, whichever reply the subscriber was waiting for.
    publisher, publisher_conn, subscriber, subscriber_conn = _subscribed_pair(env, loopback)
    loopback.engine.sessions[subscriber.ephemeral_did].b2c.counter = LAST_COUNTER - 1
    publisher_conn.send(publisher.publish(env.topic, b"x"))
    assert publisher.handle_puback(publisher_conn.recv()) is ReasonCode.SUCCESS
    disconnect = subscriber_conn.recv()
    if call == "handle_suback":
        subscriber.subscribe(env.topic)
    elif call == "handle_puback":
        subscriber.publish(env.topic, b"y")
    state = _client_state(subscriber)
    with pytest.raises(ConnectionRejected) as rejected:
        getattr(subscriber, call)(disconnect)
    assert rejected.value.reason_code is ReasonCode.PROTOCOL_ERROR
    assert _client_state(subscriber) == state


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
        seen = [session.c2b.counter]
        for _ in range(3):
            connection.send(publisher.publish(env.topic, b"x"))
            publisher.handle_puback(connection.recv())
            seen.append(session.c2b.counter)
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)
        assert seen[0] == 1  # challenge consumed counter zero

    @pytest.mark.parametrize("kind", [PacketKind.PUBLISH, PacketKind.SUBSCRIBE])
    def test_exhausted_sender_is_evicted(self, env, loopback, kind):
        client = env.publisher_client()
        establish(loopback, client, env.broker_did)
        session = loopback.engine.sessions[client.ephemeral_did]
        fields = [env.topic.encode(), b"last"] if kind is PacketKind.PUBLISH else [env.topic.encode()]
        prefix, first = session.c2b.cipher.prefix, LAST_COUNTER + 1 - len(fields)
        session.c2b.counter = first
        aad = bytes([kind]) + client.ephemeral_did.encode()
        envelopes = [
            aead_encrypt(client._send.cipher, _nonce(prefix, first + i), field, aad)
            for i, field in enumerate(fields)
        ]
        packet = Packet(kind=kind, topic=envelopes[0], payload=envelopes[1] if len(envelopes) > 1 else None)
        reply = loopback.engine.handle_packet(client.ephemeral_did, packet)
        step = "J" if kind is PacketKind.PUBLISH else "I"
        assert loopback.events[-1] == {
            "event": "session_exhausted", "session": client.ephemeral_did, "reason": None, "step": step
        }
        assert reply.close
        assert [p.kind for p in reply.packets] == [PacketKind.DISCONNECT]
        assert client.ephemeral_did not in loopback.engine.sessions

    def test_exhausted_subscriber_is_evicted_alone(self, env, loopback):
        publisher, _, subscriber, _ = _subscribed_pair(env, loopback)
        b2c = loopback.engine.sessions[subscriber.ephemeral_did].b2c
        b2c.counter = LAST_COUNTER - 1
        reply = loopback.engine.handle_packet(
            publisher.ephemeral_did, publisher.publish(env.topic, b"x")
        )
        assert loopback.events[-2:] == [
            {"event": "session_exhausted", "session": subscriber.ephemeral_did, "reason": None, "step": "J"},
            {"event": "publish_forwarded", "session": publisher.ephemeral_did, "reason": "0"},
        ]
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
        b2c.counter = LAST_COUNTER - 1
        publisher_conn.send(publisher.publish(env.topic, b"x"))
        assert publisher.handle_puback(publisher_conn.recv()) is ReasonCode.SUCCESS
        assert subscriber_conn.recv().kind is PacketKind.DISCONNECT
        assert subscriber_conn.closed and not subscriber_conn.inbox

    def test_exhausted_client_never_reuses_a_nonce(self, env, loopback):
        client = env.publisher_client()
        establish(loopback, client, env.broker_did)
        client._send.counter = LAST_COUNTER - 1
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
            used += [int.from_bytes(f[16:24], "big") for f in (packet.topic, packet.payload) if f]
        assert used == [LAST_COUNTER - 1]
        assert client._send.counter == LAST_COUNTER

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
            connection.send(client.disconnect())
        assert counter.loads == {"client": 2 * handshakes}
        assert counter.exchanges == {"client": 3 * handshakes, "broker": 3 * handshakes}

    def test_the_client_holds_no_agreement_key_after_step_b(self, env, loopback, monkeypatch):
        # begin_connect derives the 1PU key at once and keeps only that key.
        counter = _CountingX25519(monkeypatch, loopback)
        client = env.publisher_client()
        client.begin_connect(env.broker_did)
        assert counter.loads == {"client": 2} and counter.exchanges == {"client": 3}
        assert not any(isinstance(value, _CountedKey) for value in vars(client).values())
        assert isinstance(client._session_key, SessionKey)

    def test_fan_out_follows_subscription_order_past_an_exhausted_subscriber(self, env, loopback):
        publisher = env.publisher_client()
        establish(loopback, publisher, env.broker_did)
        subscribers = [env.subscriber_client() for _ in range(3)]
        for subscriber in subscribers:
            establish(loopback, subscriber, env.broker_did)
        # Subscribe in reverse DID order, so subscription order is not DID order.
        subscribers.sort(key=lambda subscriber: subscriber.ephemeral_did, reverse=True)
        for subscriber in subscribers:
            reply = loopback.engine.handle_packet(subscriber.ephemeral_did, subscriber.subscribe(env.topic))
            assert subscriber.handle_suback(reply.packets[0]) is ReasonCode.SUCCESS
        first, middle, last = subscribers
        loopback.engine.sessions[middle.ephemeral_did].b2c.counter = LAST_COUNTER - 1

        reply = loopback.engine.handle_packet(publisher.ephemeral_did, publisher.publish(env.topic, b"in order"))

        assert [(p.kind, p.reason_code) for p in reply.packets] == [(PacketKind.PUBACK, ReasonCode.SUCCESS)]
        assert [(target, p.kind, p.reason_code) for target, p in reply.forwards] == [
            (first.ephemeral_did, PacketKind.PUBLISH, None),
            (middle.ephemeral_did, PacketKind.DISCONNECT, ReasonCode.PROTOCOL_ERROR),
            (last.ephemeral_did, PacketKind.PUBLISH, None),
        ]
        for subscriber, (_, packet) in zip((first, last), reply.forwards[::2]):
            assert subscriber.handle_publish(packet) == (env.topic, b"in order")
        assert middle.ephemeral_did not in loopback.engine.sessions
        assert list(loopback.engine.topics[env.topic]) == [first.ephemeral_did, last.ephemeral_did]
        assert loopback.events[-2:] == [
            {"event": "session_exhausted", "session": middle.ephemeral_did, "reason": None, "step": "J"},
            {"event": "publish_forwarded", "session": publisher.ephemeral_did, "reason": "2"},
        ]

    def test_undecryptable_connect_costs_one_exchange(self, env, loopback, monkeypatch):
        counter = _CountingX25519(monkeypatch, loopback)
        establish(loopback, env.publisher_client(), env.broker_did).close()
        packet = env.publisher_client().begin_connect(env.broker_did)
        packet.auth_data = _tamper_envelope(packet.auth_data)
        counter.reset()
        connection = loopback.open()
        connection.send(packet)
        assert connection.recv().kind is PacketKind.DISCONNECT
        assert loopback.events[-1] == {
            "event": "connect_rejected", "session": None, "reason": "AuthenticationError", "step": "C"
        }
        assert counter.loads == {} and counter.exchanges == {"broker": 1}

    def test_building_a_client_or_broker_converts_no_public_key(self, env, monkeypatch):
        # Each needs only its own X25519 secret, never its own converted public key.
        keypair = load_signing_key(env.config.signing_key_path)
        convert, calls = daxiot.crypto.convert_public_key, []
        monkeypatch.setattr(daxiot.crypto, "convert_public_key", lambda key: calls.append(key) or convert(key))
        env.publisher_client()
        DaxiotBroker(keypair, env.broker_did, env.resolver(), env.til_path, env.rr_path)
        assert calls == []

    def test_disconnect_cleans_topic_table(self, env, loopback):
        subscriber = env.subscriber_client()
        connection = establish(loopback, subscriber, env.broker_did)
        connection.send(subscriber.subscribe(env.topic))
        subscriber.handle_suback(connection.recv())
        assert loopback.engine.topics[env.topic]
        connection.send(subscriber.disconnect())
        assert env.topic not in loopback.engine.topics

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


def test_a_wire_observer_links_connections_by_the_auth_response_length_alone(env):
    # A passive observer of the captures, over a seeded fleet whose devices
    # carry different claims and connect three times each in shuffled order.
    # It splits the captures into connections at each CONNECT (they run one
    # at a time) and reads each frame's length and kind byte, as the framing
    # leaves them in the clear.
    rng = random.Random(0x0B5E)
    network = LoopbackNetwork(env.config.engine())
    devices = []
    for index in range(6):
        keypair = daxiot.crypto.generate_signing_keypair(rng.randbytes(32))
        topics = frozenset({f"site/{index}/" + "t" * (4 + 5 * index)})
        publishes = rng.random() < 0.5
        claims = [
            AuthorizationClaim(
                env.broker_did,
                publish_topics=topics if publishes else frozenset(),
                subscribe_topics=frozenset() if publishes else topics,
            )
        ]
        if rng.random() < 0.5:  # a claim this broker never sees disclosed
            claims.append(AuthorizationClaim(env.other_broker_did, subscribe_topics=frozenset({env.other_topic})))
        static_did = str(daxiot.did.didkey_encode(keypair.public))
        credential, disclosures = issue(env.po_keypair, env.po_did, static_did, claims, f"AC-observed-{index}")
        devices.append(DaxiotClient(keypair, credential, disclosures, env.resolver()))
    visits = [index for index in range(len(devices)) for _ in range(3)]
    rng.shuffle(visits)
    for index in visits:
        connection = network.open()
        run_handshake(devices[index], connection, env.broker_did)
        connection.send(devices[index].disconnect())

    connections: list[list[bytes]] = []
    for _, frame in network.captures:
        if frame[4] == PacketKind.CONNECT:
            connections.append([])
        connections[-1].append(frame)
    assert len(connections) == len(visits)
    lengths = [{frame[4]: len(frame) for frame in frames} for frames in connections]

    # Nothing in these frames tells one device from another...
    for kind in (PacketKind.CONNECT, PacketKind.AUTH_CHALLENGE, PacketKind.CONNACK):
        assert len({seen[kind] for seen in lengths}) == 1, kind.name
    client_ids = {decode_frame(frames[0]).client_id for frames in connections}
    assert len(client_ids) == len(visits)

    # ...but the AUTH_RESPONSE length is a function of the credential and the
    # disclosures presented, so grouping connections by it recovers exactly
    # which connections came from one device.
    by_length: dict[int, set[int]] = {}
    for position, seen in enumerate(lengths):
        by_length.setdefault(seen[PacketKind.AUTH_RESPONSE], set()).add(position)
    by_device: dict[int, set[int]] = {}
    for position, index in enumerate(visits):
        by_device.setdefault(index, set()).add(position)
    assert sorted(map(sorted, by_length.values())) == sorted(map(sorted, by_device.values()))


def test_the_broker_static_key_opens_a_recorded_session(env):
    # A known limit: no forward secrecy against the broker's static key. The
    # session key is 1PU over Ze and Zs, and the broker's static key derives
    # both from what the wire shows, so whoever later holds that key reads
    # every recorded session. The reading here is recovered from the key file
    # and the client's frames alone.
    network = LoopbackNetwork(env.config.engine())
    publisher = env.publisher_client()
    connection = establish(network, publisher, env.broker_did)
    connection.send(publisher.publish(env.topic, b"21.5 C"))
    assert publisher.handle_puback(connection.recv()) is ReasonCode.SUCCESS
    connection.send(publisher.disconnect())

    connect, _, publish, _ = [decode_frame(frame) for direction, frame in network.captures if direction == "c2b"]
    session = connect.client_id.encode()
    broker = daxiot.crypto.to_agreement_keypair(load_signing_key(env.config.signing_key_path))
    broker_key = daxiot.crypto.load_agreement_key(broker.secret)
    ephemeral_public = env.resolver().resolve(connect.client_id).agreement_key
    k_es = daxiot.crypto.ecdh_es(broker_key, ephemeral_public, b"DAXiot-ES" + session + env.broker_did.encode())
    static_did = daxiot.crypto.aead_decrypt(
        XChaCha20Poly1305(k_es, connect.auth_data[:16]), connect.auth_data, bytes([PacketKind.CONNECT]) + session
    )
    k_1pu = daxiot.crypto.ecdh_1pu_receiver(
        broker_key,
        ephemeral_public,
        env.resolver().resolve(static_did.decode()).agreement_key,
        b"DAXiot-1PU" + static_did + env.broker_did.encode(),
    )
    aad, c2b = bytes([PacketKind.PUBLISH]) + session, XChaCha20Poly1305(k_1pu, publish.topic[:16])
    assert daxiot.crypto.aead_decrypt(c2b, publish.topic, aad) == env.topic.encode()
    assert daxiot.crypto.aead_decrypt(c2b, publish.payload, aad) == b"21.5 C"


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


def _connect_without_client_id(env, loopback):
    packet = env.publisher_client().begin_connect(env.broker_did)
    packet.client_id = None
    return None, packet


def _did_web_client_id(env, loopback):
    packet = env.publisher_client().begin_connect(env.broker_did)
    packet.client_id = env.po_did
    return None, packet


def _connect_without_auth_data(env, loopback):
    packet = env.publisher_client().begin_connect(env.broker_did)
    packet.auth_data = None
    return None, packet


def _sealed_static_did(did):
    def scenario(env, loopback):
        client = env.publisher_client()
        client.static_did = did  # sealed inside the ES envelope
        return None, client.begin_connect(env.broker_did)

    return scenario


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


def _subscribe_without_topic(env, loopback):
    client = env.subscriber_client()
    establish(loopback, client, env.broker_did)
    return client.ephemeral_did, Packet(kind=PacketKind.SUBSCRIBE)


def _short_subscribe(env, loopback):
    client = env.subscriber_client()
    establish(loopback, client, env.broker_did)
    packet = client.subscribe(env.topic)
    packet.topic = packet.topic[:39]  # one byte short of a nonce and a tag
    return client.ephemeral_did, packet


def _publish_without_payload(env, loopback):
    client = env.publisher_client()
    establish(loopback, client, env.broker_did)
    packet = client.publish(env.topic, b"x")
    packet.payload = None
    return client.ephemeral_did, packet


def _short_publish(env, loopback):
    client = env.publisher_client()
    establish(loopback, client, env.broker_did)
    packet = client.publish(env.topic, b"x")
    packet.topic = packet.topic[:39]
    return client.ephemeral_did, packet


def _auth_response_replayed_when_established(env, loopback):
    client, connection, response = _challenged(env, loopback)
    connection.send(response)
    client.handle_connack(connection.recv())
    return client.ephemeral_did, response


def _auth_response_at_the_next_nonce_when_established(env, loopback):
    client = env.publisher_client()
    establish(loopback, client, env.broker_did)
    (envelope,) = client._send.seal(PacketKind.AUTH_RESPONSE, b"")  # the nonce the broker expects next
    return client.ephemeral_did, Packet(kind=PacketKind.AUTH_RESPONSE, auth_data=envelope)


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
    (envelope,) = copy.copy(session.c2b).seal(PacketKind.AUTH_RESPONSE, b"\xff\xfe~")
    packet = Packet(kind=PacketKind.AUTH_RESPONSE, auth_data=envelope)
    return client.ephemeral_did, packet


def _subscribe_outside_grant(env, loopback):
    client = env.subscriber_client()
    establish(loopback, client, env.broker_did)
    return client.ephemeral_did, client.subscribe("not/granted")


def _publish_outside_grant(env, loopback):
    client = env.publisher_client()
    establish(loopback, client, env.broker_did)
    return client.ephemeral_did, client.publish("not/granted", b"x")


def _exhausted_c2b(env, loopback):
    client = env.subscriber_client()
    establish(loopback, client, env.broker_did)
    session = loopback.engine.sessions[client.ephemeral_did]
    session.c2b.counter = LAST_COUNTER
    aad = bytes([PacketKind.SUBSCRIBE]) + client.ephemeral_did.encode()
    envelope = aead_encrypt(session.c2b.cipher, session.c2b.nonce, env.topic.encode(), aad)
    packet = Packet(kind=PacketKind.SUBSCRIBE, topic=envelope)
    return client.ephemeral_did, packet


# scenario, event, reason, step, reply packets, close, session alive afterwards
REFUSALS = {
    "wrong first packet": (
        _wrong_first_packet, "connect_rejected", "ProtocolOrderError", "J", [(DISCONNECT, PE)], True, None
    ),
    "wrong auth method": (
        _wrong_auth_method, "connect_rejected", "ProtocolMismatch", "C", [(DISCONNECT, PE)], True, None
    ),
    "replayed connect": (
        _replayed_connect, "connect_rejected", "ReplayError", "C", [(DISCONNECT, PE)], True, None
    ),
    "duplicate client id": (
        _duplicate_client_id, "connect_rejected", "ProtocolOrderError", "C", [(DISCONNECT, PE)], True, None
    ),
    "connect without a client id": (
        _connect_without_client_id, "connect_rejected", "ProtocolError", "C", [(DISCONNECT, PE)], True, None
    ),
    "did:web client id": (
        _did_web_client_id, "connect_rejected", "ProtocolError", "C", [(DISCONNECT, PE)], True, None
    ),
    "connect without auth data": (
        _connect_without_auth_data, "connect_rejected", "ProtocolError", "C", [(DISCONNECT, PE)], True, None
    ),
    "sealed static DID that does not parse": (
        _sealed_static_did("not a DID"), "connect_rejected", "ProtocolError", "C", [(DISCONNECT, PE)], True, None
    ),
    "sealed did:web static DID": (
        _sealed_static_did("did:web:publisher-owner.example"), "connect_rejected", "ProtocolError", "C",
        [(DISCONNECT, PE)], True, None,
    ),
    "connect on an open session": (
        _connect_on_open_session, "protocol_error", "ProtocolOrderError", "C", [(DISCONNECT, PE)], True, False
    ),
    "broker-only kind from a client": (
        _broker_only_kind, "protocol_error", "ProtocolOrderError", None, [(DISCONNECT, PE)], True, False
    ),
    "subscribe before establishment": (
        _subscribe_before_established, "protocol_error", "ProtocolOrderError", "I",
        [(PacketKind.SUBACK, PE), (DISCONNECT, PE)], True, False,
    ),
    "bad subscribe when established": (
        _bad_subscribe, "subscribe_rejected", "IntegrityError", "I", [(PacketKind.SUBACK, PE)], False, True
    ),
    "bad publish when established": (
        _bad_publish, "publish_rejected", "IntegrityError", "J", [(PacketKind.PUBACK, PE)], False, True
    ),
    "subscribe without a topic": (
        _subscribe_without_topic, "subscribe_rejected", "ProtocolError", "I", [(PacketKind.SUBACK, PE)], False, True
    ),
    "subscribe with a 39-byte topic": (
        _short_subscribe, "subscribe_rejected", "ProtocolError", "I", [(PacketKind.SUBACK, PE)], False, True
    ),
    "publish without a payload": (
        _publish_without_payload, "publish_rejected", "ProtocolError", "J", [(PacketKind.PUBACK, PE)], False, True
    ),
    "publish with a 39-byte topic": (
        _short_publish, "publish_rejected", "ProtocolError", "J", [(PacketKind.PUBACK, PE)], False, True
    ),
    "auth response replayed when established": (
        _auth_response_replayed_when_established, "auth_rejected", "ReplayError", "G", [], False, True
    ),
    "auth response at the next nonce when established": (
        _auth_response_at_the_next_nonce_when_established, "auth_rejected", "ProtocolOrderError", "G", [], False, True
    ),
    "tampered auth response": (
        _tampered_auth_response, "auth_rejected", "AuthenticationError", "G",
        [(CONNACK, PE), (DISCONNECT, PE)], True, False,
    ),
    "revoked credential": (
        _revoked_credential, "auth_rejected", "Revoked", "H", [(CONNACK, NA), (DISCONNECT, NA)], True, False
    ),
    "non-UTF-8 presentation": (
        _non_utf8_presentation, "auth_rejected", "MalformedCredential", "H",
        [(CONNACK, NA), (DISCONNECT, NA)], True, False,
    ),
    "subscribe outside the grant": (
        _subscribe_outside_grant, "subscribe_denied", None, "I", [(PacketKind.SUBACK, NA)], False, True
    ),
    "publish outside the grant": (
        _publish_outside_grant, "publish_denied", None, "J", [(PacketKind.PUBACK, NA)], False, True
    ),
    "exhausted c2b": (
        _exhausted_c2b, "session_exhausted", None, "I", [(DISCONNECT, PE)], True, False
    ),
}


class TestRefusalPolicy:
    @pytest.mark.parametrize("row", list(REFUSALS))
    def test_refusal(self, env, loopback, row):
        scenario, event, reason, step, packets, close, alive = REFUSALS[row]
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
            {"event": event, "session": session_id, "reason": reason, "step": step}
        ]
        assert [(p.kind, p.reason_code) for p in reply.packets] == packets
        assert reply.close is close
        assert reply.forwards == []

    def test_a_session_refused_at_g_walks_no_topic(self, env, loopback):
        # Ending a session visits the topics it subscribed to, and a session
        # refused at step G has none, however many the broker routes.
        _subscribed_pair(env, loopback)
        engine = loopback.engine

        class _Unwalked(dict):
            def _walk(self, *args):
                raise AssertionError("the topic table was walked")

            __iter__ = keys = values = items = _walk

        engine.topics = _Unwalked(engine.topics)
        for index in range(1000):
            engine.topics[f"idle/{index}"] = {"did:key:elsewhere": None}
        client, _, response = _challenged(env, loopback)
        response.auth_data = _tamper_envelope(response.auth_data)
        reply = engine.handle_packet(client.ephemeral_did, response)
        assert refusal(loopback.events) == ("auth_rejected", "AuthenticationError", "G") and reply.close
        assert client.ephemeral_did not in engine.sessions
        assert len(engine.topics) == 1001

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
        assert loopback.events == [{"event": "connect_rejected", "session": None, "reason": "DidError", "step": "C"}]
        assert [(p.kind, p.reason_code) for p in reply.packets] == [(DISCONNECT, PE)]


def _backdate(*paths: Path) -> None:
    """Move mtimes a minute back, out of the snapshot's racy window, so files are kept."""
    old = time.time() - 60
    for path in paths:
        os.utime(path, (old, old))


class TestReturningPeer:
    """A successful handshake leaves the verdict, the conversions and the
    file snapshots warm; every later check still runs on the next connect."""

    @pytest.fixture
    def warm(self, env, loopback):
        _backdate(env.til_path, env.rr_path, *Path(env.config.did_web_dir).iterdir())
        establish(loopback, env.publisher_client(), env.broker_did)
        assert loopback.events[-1]["event"] == "authenticated"
        return env

    @staticmethod
    def refusal(env, loopback, client) -> str:
        with pytest.raises(ConnectionRejected) as excinfo:
            run_handshake(client, loopback.open(), env.broker_did)
        assert excinfo.value.reason_code is ReasonCode.NOT_AUTHORIZED
        event = loopback.events[-1]
        assert (event["event"], event["session"]) == ("auth_rejected", client.ephemeral_did)
        return event["reason"]

    def test_a_returning_peer_reads_no_trust_file_and_checks_no_signature(self, warm, loopback, monkeypatch):
        opened: list[str] = []
        monkeypatch.setattr(
            daxiot.snapshot, "open", lambda path, *a: opened.append(Path(path).name) or open(path, *a), raising=False
        )
        monkeypatch.setattr(daxiot.crypto, "Ed25519PublicKey", None)  # any signature check would raise
        client = warm.publisher_client()  # a new client, whose resolver reads the broker's document once
        establish(loopback, client, warm.broker_did)
        assert loopback.events[-1] == {
            "event": "authenticated", "session": client.ephemeral_did, "reason": warm.publisher.static_did
        }
        assert opened == ["broker.example.json"]

    @pytest.mark.parametrize("where", ["signature", "payload"])
    def test_a_changed_credential_byte_is_a_bad_signature(self, warm, loopback, where):
        credential = warm.publisher.credential
        if where == "signature":
            changed = dataclasses.replace(
                credential, signature=bytes([credential.signature[0] ^ 1]) + credential.signature[1:]
            )
        else:  # one byte of the payload JSON: the last character of the jti
            payload = credential.payload | {"jti": warm.publisher.jti[:-1] + "2"}
            changed = dataclasses.replace(credential, payload_b64=_b64url(_canonical_json(payload)))
        m = warm.publisher
        client = DaxiotClient(m.keypair, changed, m.disclosures, warm.resolver())
        assert self.refusal(warm, loopback, client) == "BadSignature"

    def test_a_revoke_between_two_connects_is_refused_at_h(self, warm, loopback):
        RevocationRegistry.load(warm.rr_path).revoke(warm.publisher.jti).save(warm.rr_path)
        _backdate(warm.rr_path)
        assert self.refusal(warm, loopback, warm.publisher_client()) == "Revoked"

    def test_an_issuer_removed_from_the_list_is_untrusted(self, warm, loopback):
        TrustedIssuerList.load(warm.til_path).without_member(warm.po_did).save(warm.til_path)
        _backdate(warm.til_path)
        assert self.refusal(warm, loopback, warm.publisher_client()) == "UntrustedIssuer"

"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold, so a verbose
run shows the acceptance status criterion by criterion. Absolute latency
numbers are explicitly not acceptance targets; criterion 9 checks the
measurement methodology and the crypto-cost ordering only.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import daxiot.protocol
from daxiot.bench import run_bench
from daxiot.cli import main as cli_main
from daxiot.credential import AuthorizationClaim, Disclosure, RevocationRegistry, issue
from daxiot.crypto import (
    XChaCha20Poly1305,
    aead_decrypt,
    aead_encrypt,
    ecdh_1pu,
    ecdh_1pu_receiver,
    ecdh_es,
    generate_signing_keypair,
    load_agreement_key,
    save_signing_key,
    to_agreement_keypair,
)
from daxiot.did import write_didweb_document
from daxiot.errors import (
    AuthenticationError,
    ConnectionRejected,
    IntegrityError,
    ProtocolError,
    ReplayError,
)
from daxiot.protocol import DaxiotBroker, DaxiotClient
from daxiot.scenario import build_scenario
from daxiot.transport import LoopbackNetwork, TcpClientConnection, run_handshake
from daxiot.wire import Packet, PacketKind, ReasonCode, encode_frame
from helpers import PermissionOracle, disclosure_digest_oracle

import test_crypto_vectors as vectors


def _report(number: int, description: str) -> None:
    print(f"\nACCEPTANCE {number} PASS: {description}", flush=True)


# ---------------------------------------------------------------------------
# 1. Full end-to-end scenario
# ---------------------------------------------------------------------------

def test_criterion_1_end_to_end_scenario(tmp_path):
    started = time.perf_counter()
    env = build_scenario(tmp_path / "env")
    # Two-claim credential: one claim for this broker, one for another.
    assert len(env.publisher.credential.payload["_sd"]) == 2

    with env.config.service() as broker:
        publisher, subscriber = env.publisher_client(), env.subscriber_client()

        publisher_conn = TcpClientConnection(env.host, broker.port)
        run_handshake(publisher, publisher_conn, env.broker_did)
        subscriber_conn = TcpClientConnection(env.host, broker.port)
        run_handshake(subscriber, subscriber_conn, env.broker_did)

        subscriber_conn.send(subscriber.subscribe(env.topic))
        assert subscriber.handle_suback(subscriber_conn.recv()) is ReasonCode.SUCCESS

        publisher_conn.send(publisher.publish(env.topic, env.payload))
        assert publisher.handle_puback(publisher_conn.recv()) is ReasonCode.SUCCESS
        received = subscriber.handle_publish(subscriber_conn.recv())
        assert received == (env.topic, env.payload)

        publisher_conn.send(publisher.disconnect())
        subscriber_conn.send(subscriber.disconnect())
        publisher_conn.close()
        subscriber_conn.close()

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"end-to-end run took {elapsed:.2f}s"
    _report(1, f"full connect/challenge/publish flow delivered exactly once in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Key-agreement equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_key_agreement_equivalence():
    rng = random.Random(0xDA01)
    for index in range(100):
        client_static = to_agreement_keypair(generate_signing_keypair(rng.randbytes(32)))
        client_ephemeral = to_agreement_keypair(generate_signing_keypair(rng.randbytes(32)))
        broker = to_agreement_keypair(generate_signing_keypair(rng.randbytes(32)))
        context = b"equivalence" + index.to_bytes(2, "big")

        es_client = ecdh_es(load_agreement_key(client_ephemeral.secret), broker.public, context)
        es_broker = ecdh_es(load_agreement_key(broker.secret), client_ephemeral.public, context)
        assert es_client.key == es_broker.key

        pu_client = ecdh_1pu(
            load_agreement_key(client_static.secret),
            load_agreement_key(client_ephemeral.secret),
            broker.public,
            context,
        )
        pu_broker = ecdh_1pu_receiver(
            load_agreement_key(broker.secret), client_ephemeral.public, client_static.public, context
        )
        assert pu_client.key == pu_broker.key
    _report(2, "client-form and broker-form ES and 1PU keys identical over 100 random key sets")


# ---------------------------------------------------------------------------
# 3. Selective-disclosure privacy
# ---------------------------------------------------------------------------

def _record_broker_plaintexts(monkeypatch) -> list[bytes]:
    """Every plaintext ``aead_decrypt`` returns while a broker handler runs."""
    decrypted: list[bytes] = []
    in_broker = [False]

    def decrypt(*args):
        plaintext = aead_decrypt(*args)
        if in_broker[0]:
            decrypted.append(plaintext)
        return plaintext

    def watched(handler):
        def run(*args):
            in_broker[0] = True
            try:
                return handler(*args)
            finally:
                in_broker[0] = False
        return run

    monkeypatch.setattr(daxiot.protocol, "aead_decrypt", decrypt)
    for name in ("handle_connect", "handle_packet"):
        monkeypatch.setattr(DaxiotBroker, name, watched(getattr(DaxiotBroker, name)))
    return decrypted


def test_criterion_3_selective_disclosure_privacy(tmp_path, monkeypatch):
    env = build_scenario(tmp_path / "env")
    events: list[dict] = []
    decrypted = _record_broker_plaintexts(monkeypatch)
    network = LoopbackNetwork(env.config.engine(event_sink=events.append))

    publisher, subscriber = env.publisher_client(), env.subscriber_client()
    publisher_conn = network.open()
    run_handshake(publisher, publisher_conn, env.broker_did)
    subscriber_conn = network.open()
    run_handshake(subscriber, subscriber_conn, env.broker_did)
    subscriber_conn.send(subscriber.subscribe(env.topic))
    subscriber.handle_suback(subscriber_conn.recv())
    publisher_conn.send(publisher.publish(env.topic, env.payload))
    publisher.handle_puback(publisher_conn.recv())
    assert subscriber.handle_publish(subscriber_conn.recv()) == (env.topic, env.payload)

    # Static DID and presentation per handshake, one subscribe topic, one publish topic and payload.
    assert len(decrypted) == 7
    broker_visible = b"\n".join(decrypted) + json.dumps(list(events)).encode()
    # Positive control: the broker legitimately sees the disclosed topic.
    assert env.topic.encode() in broker_visible
    # The undisclosed broker's identity and topics never reach broker-visible text.
    assert env.other_broker_did.encode() not in broker_visible
    assert env.other_topic.encode() not in broker_visible

    wire = b"".join(frame for _, frame in network.captures)
    # Positive control: the ephemeral identity is legitimately on the wire.
    assert publisher.ephemeral_did.encode() in wire
    secrets = [
        env.topic.encode(),
        env.other_topic.encode(),
        env.payload,
        publisher.static_did.encode(),
        subscriber.static_did.encode(),
        env.other_broker_did.encode(),
        b"AuthorizationCredential",
        env.publisher.jti.encode(),
        env.publisher.credential.compact().encode(),
        env.publisher.credential.payload_b64.encode(),
    ]
    for secret in secrets:
        assert secret not in wire, f"wire leaked {secret[:40]!r}"
    _report(3, "broker-visible text free of undisclosed claims; wire free of all plaintext secrets")


# ---------------------------------------------------------------------------
# 4. Adversarial suite
# ---------------------------------------------------------------------------

class _AdversarialHarness:
    """Mounts one attack per trial against fresh sessions on shared engines."""

    def __init__(self, tmp_path, rng: random.Random) -> None:
        self.rng = rng
        self.opened: list = []  # the current trial's connections
        self.events: list[dict] = []
        self.env = build_scenario(tmp_path / "trusted")
        self.engine = self.env.config.engine(event_sink=self.events.append)
        self.network = LoopbackNetwork(self.engine)

        self.events_untrusted: list[dict] = []
        self.env_untrusted = build_scenario(tmp_path / "untrusted", trust_publisher_owner=False)
        self.net_untrusted = LoopbackNetwork(
            self.env_untrusted.config.engine(event_sink=self.events_untrusted.append)
        )

        self.events_revoked: list[dict] = []
        self.env_revoked = build_scenario(tmp_path / "revoked")
        RevocationRegistry.load(self.env_revoked.rr_path).revoke(
            self.env_revoked.publisher.jti
        ).save(self.env_revoked.rr_path)
        self.net_revoked = LoopbackNetwork(
            self.env_revoked.config.engine(event_sink=self.events_revoked.append)
        )

        # A second broker with its own key and DID over the same trust files.
        self.events_second: list[dict] = []
        second_key, second_did = generate_signing_keypair(), "did:web:second-broker.example"
        write_didweb_document(Path(self.env.config.did_web_dir), second_key, second_did)
        save_signing_key(tmp_path / "second-broker.key", second_key)
        second_config = dataclasses.replace(
            self.env.config, broker_did=second_did, signing_key_path=str(tmp_path / "second-broker.key")
        )
        self.second_did = second_did
        self.second_broker = second_config.engine(event_sink=self.events_second.append)
        self.net_second = LoopbackNetwork(self.second_broker)

    def trial(self, attack) -> bool:
        """Mount one attack, then close every connection it opened, so that
        no session outlives its trial and later fan-outs stay small."""
        try:
            return attack()
        finally:
            for connection in self.opened:
                connection.close()
            self.opened.clear()

    def _open(self, network=None):
        connection = (network or self.network).open()
        self.opened.append(connection)
        return connection

    # Every attack returns True when the attack was rejected.

    def _established_publisher(self):
        client = self.env.publisher_client()
        connection = self._open()
        run_handshake(client, connection, self.env.broker_did)
        return client, connection

    def _subscribed_subscriber(self):
        client = self.env.subscriber_client()
        connection = self._open()
        run_handshake(client, connection, self.env.broker_did)
        connection.send(client.subscribe(self.env.topic))
        client.handle_suback(connection.recv())
        return client, connection

    def _refused(self, session, event, reason, step, events=None) -> bool:
        """Whether the last event is exactly this refusal, whose only record it is."""
        last = (self.events if events is None else events)[-1]
        return last == {"event": event, "session": session, "reason": reason, "step": step}

    def _tamper(self, envelope_bytes: bytes) -> bytes:
        mutated = bytearray(envelope_bytes)
        position = self.rng.randrange(24, len(mutated))
        mutated[position] ^= 1 << self.rng.randrange(8)
        return bytes(mutated)

    def replayed_connect(self) -> bool:
        client = self.env.publisher_client()
        connection = self._open()
        connect_packet = client.begin_connect(self.env.broker_did)
        connection.send(connect_packet)
        connection.recv()
        replay_conn = self._open()
        replay_conn.send_raw(encode_frame(connect_packet))
        return replay_conn.recv().kind is PacketKind.DISCONNECT

    def replayed_auth_response(self) -> bool:
        client = self.env.publisher_client()
        connection = self._open()
        connection.send(client.begin_connect(self.env.broker_did))
        response = client.handle_challenge(connection.recv())
        connection.send(response)
        client.handle_connack(connection.recv())
        reply = self.engine.handle_packet(client.ephemeral_did, response)
        accepted = any(
            p.kind is PacketKind.CONNACK and p.reason_code is ReasonCode.SUCCESS
            for p in reply.packets
        )
        return self._refused(client.ephemeral_did, "auth_rejected", "ReplayError", "G") and not accepted

    def replayed_publish(self) -> bool:
        client, connection = self._established_publisher()
        packet = client.publish(self.env.topic, b"original")
        connection.send(packet)
        client.handle_puback(connection.recv())
        reply = self.engine.handle_packet(client.ephemeral_did, packet)
        return self._refused(client.ephemeral_did, "publish_rejected", "ReplayError", "J") and not reply.forwards

    def spliced_envelopes(self) -> bool:
        client, connection = self._established_publisher()
        first = client.publish(self.env.topic, b"first")
        second = client.publish(self.env.topic, b"second")
        if self.rng.random() < 0.5:
            spliced = Packet(kind=PacketKind.PUBLISH, topic=first.topic, payload=second.payload)
        else:
            spliced = Packet(kind=PacketKind.PUBLISH, topic=second.topic, payload=first.payload)
        reply = self.engine.handle_packet(client.ephemeral_did, spliced)
        return self._refused(client.ephemeral_did, "publish_rejected", "ReplayError", "J") and not reply.forwards

    def _expect_rejected(self, network, events, client, broker_did, reason) -> bool:
        connection = self._open(network)
        connection.send(client.begin_connect(broker_did))
        connection.send(client.handle_challenge(connection.recv()))
        try:
            client.handle_connack(connection.recv())
        except ConnectionRejected:
            session_gone = client.ephemeral_did not in network.engine.sessions
            return session_gone and self._refused(client.ephemeral_did, "auth_rejected", reason, "H", events)
        return False

    def subject_mismatch(self) -> bool:
        client = DaxiotClient(
            self.env.subscriber.keypair,  # wrong holder for this credential
            self.env.publisher.credential,
            self.env.publisher.disclosures,
            self.env.resolver(),
        )
        return self._expect_rejected(
            self.network, self.events, client, self.env.broker_did, "SubjectMismatch"
        )

    def untrusted_issuer(self) -> bool:
        client = self.env_untrusted.publisher_client()
        return self._expect_rejected(
            self.net_untrusted,
            self.events_untrusted,
            client,
            self.env_untrusted.broker_did,
            "UntrustedIssuer",
        )

    def revoked(self) -> bool:
        client = self.env_revoked.publisher_client()
        return self._expect_rejected(
            self.net_revoked, self.events_revoked, client, self.env_revoked.broker_did, "Revoked"
        )

    def forged_disclosure(self) -> bool:
        original = self.env.publisher.disclosures[0]
        resalted = Disclosure(salt="forged" + original.salt, key=original.key, value=original.value)
        client = DaxiotClient(
            self.env.publisher.keypair,
            self.env.publisher.credential,
            [resalted],
            self.env.resolver(),
        )
        return self._expect_rejected(
            self.network, self.events, client, self.env.broker_did, "UnknownDisclosure"
        )

    def tampered_connect(self) -> bool:
        client = self.env.publisher_client()
        packet = client.begin_connect(self.env.broker_did)
        packet.auth_data = self._tamper(packet.auth_data)
        session_id, reply = self.engine.handle_connect(packet)
        return session_id is None and self._refused(None, "connect_rejected", "AuthenticationError", "C")

    def tampered_challenge(self) -> bool:
        client = self.env.publisher_client()
        connection = self._open()
        connection.send(client.begin_connect(self.env.broker_did))
        challenge = connection.recv()
        challenge.auth_data = self._tamper(challenge.auth_data)
        try:
            client.handle_challenge(challenge)
        except (AuthenticationError, ProtocolError):
            return True
        return False

    def tampered_auth_response(self) -> bool:
        client = self.env.publisher_client()
        connection = self._open()
        connection.send(client.begin_connect(self.env.broker_did))
        response = client.handle_challenge(connection.recv())
        response.auth_data = self._tamper(response.auth_data)
        reply = self.engine.handle_packet(client.ephemeral_did, response)
        accepted = any(
            p.kind is PacketKind.CONNACK and p.reason_code is ReasonCode.SUCCESS
            for p in reply.packets
        )
        return not accepted and self._refused(client.ephemeral_did, "auth_rejected", "AuthenticationError", "G")

    def tampered_connack(self) -> bool:
        client = self.env.publisher_client()
        connection = self._open()
        connection.send(client.begin_connect(self.env.broker_did))
        connection.send(client.handle_challenge(connection.recv()))
        connack = connection.recv()
        connack.auth_data = self._tamper(connack.auth_data)
        try:
            client.handle_connack(connack)
        except (AuthenticationError, ProtocolError):
            return True
        return False

    def tampered_subscribe(self) -> bool:
        client = self.env.subscriber_client()
        connection = self._open()
        run_handshake(client, connection, self.env.broker_did)
        packet = client.subscribe(self.env.topic)
        packet.topic = self._tamper(packet.topic)
        reply = self.engine.handle_packet(client.ephemeral_did, packet)
        granted = any(
            p.kind is PacketKind.SUBACK and p.reason_code is ReasonCode.SUCCESS
            for p in reply.packets
        )
        return not granted and self._refused(client.ephemeral_did, "subscribe_rejected", "IntegrityError", "I")

    def tampered_publish(self) -> bool:
        client, _ = self._established_publisher()
        packet = client.publish(self.env.topic, b"payload")
        if self.rng.random() < 0.5:
            packet.topic = self._tamper(packet.topic)
        else:
            packet.payload = self._tamper(packet.payload)
        reply = self.engine.handle_packet(client.ephemeral_did, packet)
        return self._refused(client.ephemeral_did, "publish_rejected", "IntegrityError", "J") and not reply.forwards

    def tampered_forwarded_publish(self) -> bool:
        publisher, publisher_conn = self._established_publisher()
        subscriber, subscriber_conn = self._subscribed_subscriber()
        publisher_conn.send(publisher.publish(self.env.topic, b"payload"))
        publisher.handle_puback(publisher_conn.recv())
        forwarded = subscriber_conn.recv()
        if self.rng.random() < 0.5:
            forwarded.topic = self._tamper(forwarded.topic)
        else:
            forwarded.payload = self._tamper(forwarded.payload)
        try:
            subscriber.handle_publish(forwarded)
        except (IntegrityError, ReplayError):
            return True
        return False

    def wrong_broker(self) -> bool:
        # A CONNECT made for one broker, relayed to another: the ES key binds
        # the broker's static key and DID, so the second cannot open it.
        client = self.env.publisher_client()
        session_id, reply = self.second_broker.handle_connect(client.begin_connect(self.env.broker_did))
        refused = self._refused(None, "connect_rejected", "AuthenticationError", "C", self.events_second)
        return session_id is None and reply.close and refused

    def reflection(self) -> bool:
        # A forwarded broker-to-client PUBLISH sent back client-to-broker.
        publisher, publisher_conn = self._established_publisher()
        subscriber, subscriber_conn = self._subscribed_subscriber()
        publisher_conn.send(publisher.publish(self.env.topic, b"payload"))
        publisher.handle_puback(publisher_conn.recv())
        reply = self.engine.handle_packet(subscriber.ephemeral_did, subscriber_conn.recv())
        return self._refused(subscriber.ephemeral_did, "publish_rejected", "ReplayError", "J") and not reply.forwards

    def cross_session_splice(self) -> bool:
        # One subscriber's copy of a message, in place of another's.
        publisher, publisher_conn = self._established_publisher()
        (_, first_conn), (second, second_conn) = self._subscribed_subscriber(), self._subscribed_subscriber()
        publisher_conn.send(publisher.publish(self.env.topic, b"payload"))
        publisher.handle_puback(publisher_conn.recv())
        moved = first_conn.recv()
        try:
            second.handle_publish(moved)
        except (IntegrityError, ReplayError):
            return True
        return False

    def key_compromise_impersonation(self) -> bool:
        # An attacker with the device's static key, but not the broker's,
        # answers the device's CONNECT as the broker. It derives 1PU's Zs as
        # the device does, but Ze needs the device's ephemeral key or the
        # broker's static one, so the device refuses the challenge at step E.
        client = self.env.publisher_client()
        connect = client.begin_connect(self.env.broker_did)
        broker_public = self.env.resolver().resolve(self.env.broker_did).agreement_key
        guessed = to_agreement_keypair(generate_signing_keypair(self.rng.randbytes(32)))
        key = ecdh_1pu(
            load_agreement_key(to_agreement_keypair(self.env.publisher.keypair).secret),
            load_agreement_key(guessed.secret),
            broker_public,
            b"DAXiot-1PU" + client.static_did.encode() + self.env.broker_did.encode(),
        )
        aad = bytes([PacketKind.AUTH_CHALLENGE]) + connect.client_id.encode()
        prefix = self.rng.randbytes(16)
        forged = aead_encrypt(XChaCha20Poly1305(key, prefix), prefix + bytes(8), self.rng.randbytes(24), aad)
        try:
            client.handle_challenge(Packet(kind=PacketKind.AUTH_CHALLENGE, auth_data=forged))
        except AuthenticationError:
            return True
        return False

    def auth_response_moved_to_second_broker(self) -> bool:
        # A response recorded on a session at this broker, injected on a
        # session at the second broker, which refuses it at step G.
        recorded_client, recorded_conn = self.env.publisher_client(), self._open()
        recorded_conn.send(recorded_client.begin_connect(self.env.broker_did))
        recorded = recorded_client.handle_challenge(recorded_conn.recv())
        recorded_conn.send(recorded)
        recorded_client.handle_connack(recorded_conn.recv())

        client, connection = self.env.publisher_client(), self._open(self.net_second)
        connection.send(client.begin_connect(self.second_did))
        connection.recv()
        connection.send(recorded)
        reply = connection.recv()
        return (
            (reply.kind, reply.reason_code) == (PacketKind.CONNACK, ReasonCode.PROTOCOL_ERROR)
            and self._refused(client.ephemeral_did, "auth_rejected", "ReplayError", "G", self.events_second)
            and client.ephemeral_did not in self.second_broker.sessions
        )

    def connack_moved_to_another_client(self) -> bool:
        # One device's CONNACK handed to another device awaiting its own.
        first, second = self.env.publisher_client(), self.env.subscriber_client()
        first_conn, second_conn = self._open(), self._open()
        for client, connection in ((first, first_conn), (second, second_conn)):
            connection.send(client.begin_connect(self.env.broker_did))
            connection.send(client.handle_challenge(connection.recv()))
        moved = first_conn.recv()
        try:
            second.handle_connack(moved)
        except AuthenticationError:
            return True
        return False


def test_criterion_4_adversarial_suite(tmp_path):
    rng = random.Random(0xADD5)
    harness = _AdversarialHarness(tmp_path, rng)
    attacks = [
        harness.replayed_connect,
        harness.replayed_auth_response,
        harness.replayed_publish,
        harness.spliced_envelopes,
        harness.subject_mismatch,
        harness.untrusted_issuer,
        harness.revoked,
        harness.forged_disclosure,
        harness.tampered_connect,
        harness.tampered_challenge,
        harness.tampered_auth_response,
        harness.tampered_connack,
        harness.tampered_subscribe,
        harness.tampered_publish,
        harness.tampered_forwarded_publish,
        harness.wrong_broker,
        harness.reflection,
        harness.cross_session_splice,
        harness.key_compromise_impersonation,
        harness.auth_response_moved_to_second_broker,
        harness.connack_moved_to_another_client,
    ]
    false_accepts = 0
    counts: dict[str, int] = {}
    for _ in range(1000):
        attack = rng.choice(attacks)
        counts[attack.__name__] = counts.get(attack.__name__, 0) + 1
        if not harness.trial(attack):
            false_accepts += 1
    assert false_accepts == 0, f"{false_accepts} adversarial trials were accepted"
    assert len(counts) == len(attacks), "every attack class must be exercised"
    for network in (harness.network, harness.net_untrusted, harness.net_revoked, harness.net_second):
        assert network.engine.sessions == {} and network.engine.topics == {}
        assert network.router.connections == {}
    _report(4, "zero false accepts over 1000 randomized adversarial trials "
               f"across {len(attacks)} attack classes")


# ---------------------------------------------------------------------------
# 5. Authorization soundness
# ---------------------------------------------------------------------------

def test_criterion_5_authorization_soundness(tmp_path):
    rng = random.Random(0x50D4)
    env = build_scenario(tmp_path / "env")
    engine = env.config.engine()
    network = LoopbackNetwork(engine)
    topic_pool = [f"plant/{i}/stream-{i}" for i in range(8)]

    for trace in range(500):
        publish_grant = set(rng.sample(topic_pool, rng.randint(0, 4)))
        subscribe_grant = set(rng.sample(topic_pool, rng.randint(0, 4)))
        if not publish_grant and not subscribe_grant:
            publish_grant = {rng.choice(topic_pool)}
        oracle = PermissionOracle()
        claims = [
            AuthorizationClaim(
                env.broker_did,
                publish_topics=frozenset(publish_grant),
                subscribe_topics=frozenset(subscribe_grant),
            )
        ]
        credential, disclosures = issue(
            env.po_keypair, env.po_did, env.publisher.static_did, claims, f"AC-trace-{trace}"
        )
        client = DaxiotClient(env.publisher.keypair, credential, disclosures, env.resolver())
        for topic in publish_grant:
            oracle.grant(client.static_did, "pub", topic)
        for topic in subscribe_grant:
            oracle.grant(client.static_did, "sub", topic)

        connection = network.open()
        run_handshake(client, connection, env.broker_did)
        for _ in range(rng.randint(1, 5)):
            topic = rng.choice(topic_pool)
            if rng.random() < 0.5:
                reply = engine.handle_packet(client.ephemeral_did, client.subscribe(topic))
                client.handle_suback(reply.packets[0])
                decision = reply.packets[0].reason_code is ReasonCode.SUCCESS
                assert decision == oracle.allowed(client.static_did, "sub", topic), (
                    f"trace {trace}: subscribe {topic} decision diverged"
                )
            else:
                reply = engine.handle_packet(client.ephemeral_did, client.publish(topic, b"x"))
                client.handle_puback(reply.packets[0])
                decision = reply.packets[0].reason_code is ReasonCode.SUCCESS
                assert decision == oracle.allowed(client.static_did, "pub", topic), (
                    f"trace {trace}: publish {topic} decision diverged"
                )
                if not decision:
                    assert not reply.forwards
        connection.close()
    _report(5, "broker decisions matched the brute-force permission oracle over 500 traces")


# ---------------------------------------------------------------------------
# 6. Disclosure digest oracle
# ---------------------------------------------------------------------------

def test_criterion_6_digest_oracle():
    rng = random.Random(0xD16E)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789/-_"
    for index in range(100):
        salt = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 32)))
        key = f"did:web:broker-{rng.randrange(10)}.example"
        value: dict = {}
        if rng.random() < 0.7:
            value["sub"] = sorted(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
                for _ in range(rng.randint(1, 3))
            )
        if rng.random() < 0.7 or not value:
            value["pub"] = sorted(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
                for _ in range(rng.randint(1, 3))
            )
        disclosure = Disclosure(salt=salt, key=key, value=value)
        assert disclosure.digest() == disclosure_digest_oracle(salt, key, value), (
            f"digest diverged on sample {index}"
        )
    _report(6, "disclosure digests byte-exact against an independent SHA-256+base64url oracle, 100 samples")


# ---------------------------------------------------------------------------
# 7. Published crypto vectors
# ---------------------------------------------------------------------------

def test_criterion_7_crypto_vectors():
    for seed, public, message, signature in vectors.ED25519_VECTORS:
        keypair = generate_signing_keypair(bytes.fromhex(seed))
        assert keypair.public.hex() == public
        from daxiot.crypto import sign

        assert sign(keypair, bytes.fromhex(message)).hex() == signature

    from daxiot.crypto import _dh, _hchacha20

    for scalar, u, expected in vectors.X25519_VECTORS:
        assert _dh(load_agreement_key(bytes.fromhex(scalar)), bytes.fromhex(u)).hex() == expected

    from helpers import hkdf_sha256_oracle
    from daxiot.crypto import kdf

    ikm = bytes.fromhex("0b" * 22)
    salt = bytes.fromhex("000102030405060708090a0b0c")
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    assert hkdf_sha256_oracle(ikm, info, length=42, salt=salt).hex() == (
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    )
    assert kdf(b"\x0b" * 32, b"anything") == hkdf_sha256_oracle(b"\x0b" * 32, b"anything")

    assert _hchacha20(vectors.HCHACHA_KEY, vectors.HCHACHA_INPUT).hex() == vectors.HCHACHA_SUBKEY

    from daxiot.crypto import SessionKey

    envelope = aead_encrypt(
        XChaCha20Poly1305(SessionKey(key=vectors.XCHACHA_KEY), vectors.XCHACHA_NONCE[:16]),
        vectors.XCHACHA_NONCE,
        vectors.XCHACHA_PLAINTEXT,
        vectors.XCHACHA_AAD,
    )
    assert envelope == vectors.XCHACHA_NONCE + bytes.fromhex(vectors.XCHACHA_CIPHERTEXT + vectors.XCHACHA_TAG)
    _report(7, "Ed25519, X25519, HKDF, and XChaCha20-Poly1305 match published reference vectors")


# ---------------------------------------------------------------------------
# 8. Participant lifecycle without restart
# ---------------------------------------------------------------------------

def test_criterion_8_lifecycle(tmp_path):
    env = build_scenario(tmp_path / "env")
    runner = CliRunner()

    def cli(*args):
        result = runner.invoke(cli_main, [str(a) for a in args], catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result

    events: list[dict] = []
    with env.config.service(events.append) as broker:
        # Baseline: both devices connect.
        for client in (env.publisher_client(), env.subscriber_client()):
            connection = TcpClientConnection(env.host, broker.port)
            run_handshake(client, connection, env.broker_did)
            connection.send(client.disconnect())
            connection.close()

        # Removing an issuer locks out its devices on the next connect.
        cli("til-remove", "--til", env.til_path, "--did", env.po_did)
        with pytest.raises(ConnectionRejected), TcpClientConnection(env.host, broker.port) as connection:
            run_handshake(env.publisher_client(), connection, env.broker_did)
        assert events[-1]["reason"] == "UntrustedIssuer"

        # Revoking a credential locks out its holder on the next connect.
        cli("revoke", "--rr", env.rr_path, "--jti", env.subscriber.jti)
        with pytest.raises(ConnectionRejected), TcpClientConnection(env.host, broker.port) as connection:
            run_handshake(env.subscriber_client(), connection, env.broker_did)
        assert events[-1]["reason"] == "Revoked"

        # Adding a brand-new issuer enables its freshly issued device.
        new_owner_key = tmp_path / "new-owner.key"
        cli("keygen", "--out", new_owner_key)
        cli(
            "didweb-emit",
            "--key", new_owner_key,
            "--did", "did:web:new-owner.example",
            "--out-dir", env.config.did_web_dir,
        )
        device_key = tmp_path / "new-device.key"
        device_did = cli("keygen", "--out", device_key).output.strip()
        claims_path = tmp_path / "claims.json"
        claims_path.write_text(json.dumps({env.broker_did: {"pub": ["fresh/topic"]}}))
        cli(
            "issue",
            "--key", new_owner_key,
            "--issuer-did", "did:web:new-owner.example",
            "--subject-did", device_did,
            "--claims", claims_path,
            "--jti", "AC-new-device",
            "--out-dir", tmp_path / "new-cred",
        )
        cli("til-add", "--til", env.til_path, "--did", "did:web:new-owner.example")

        from daxiot.crypto import load_signing_key
        from daxiot.credential import load_credential_files

        credential, disclosures = load_credential_files(tmp_path / "new-cred")
        device = DaxiotClient(
            load_signing_key(device_key), credential, disclosures, env.resolver()
        )
        connection = TcpClientConnection(env.host, broker.port)
        run_handshake(device, connection, env.broker_did)
        connection.send(device.publish("fresh/topic", b"it works"))
        assert device.handle_puback(connection.recv()) is ReasonCode.SUCCESS
        connection.send(device.disconnect())
        connection.close()
    _report(8, "issuer removal, revocation, and issuer addition all took effect with no broker restart")


# ---------------------------------------------------------------------------
# 9. Benchmark methodology
# ---------------------------------------------------------------------------

def test_criterion_9_benchmark_methodology():
    iterations_connect, iterations_publish = 1000, 10000
    plaintext = run_bench("plaintext", iterations_connect, iterations_publish)
    daxiot = run_bench("daxiot", iterations_connect, iterations_publish)

    for report in (plaintext, daxiot):
        assert report["iterations_connect"] == iterations_connect
        assert report["iterations_publish"] == iterations_publish
        assert report["connect_ms"]["count"] == iterations_connect
        assert report["publish_ms"]["count"] == iterations_publish
    assert set(plaintext) == set(daxiot)
    assert set(plaintext["connect_ms"]) == set(daxiot["connect_ms"])

    # Ordering only: the authenticated handshake must cost more than the
    # plaintext baseline. No absolute latency is claimed.
    assert daxiot["connect_ms"]["mean_ms"] > plaintext["connect_ms"]["mean_ms"]
    _report(
        9,
        "ran 1000 connects and 10000 publishes per mode; authenticated connect mean "
        f"{daxiot['connect_ms']['mean_ms']:.2f}ms > plaintext {plaintext['connect_ms']['mean_ms']:.2f}ms",
    )

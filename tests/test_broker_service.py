from __future__ import annotations

import ast
import base64
import dataclasses
import errno
import gc
import io
import json
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

import daxiot
import daxiot.crypto
import daxiot.protocol
from daxiot.bench import PlaintextBroker, PlaintextEngine
from daxiot.broker_service import BrokerConfig, BrokerService, _Connection, json_lines
from daxiot.credential import RevocationRegistry, TrustedIssuerList
from daxiot.crypto import generate_signing_keypair
from daxiot.errors import BindError, ConfigError, ConnectionRejected, FramingError
from daxiot.scenario import build_scenario
from daxiot.transport import LoopbackNetwork, TcpClientConnection, run_handshake
from daxiot.wire import MAX_FRAME, Packet, PacketKind, ReasonCode, decode_frame, encode_frame
from helpers import source_nodes


@pytest.fixture
def tcp_env(tmp_path):
    env = build_scenario(tmp_path / "env")
    events: list[dict] = []
    broker = env.config.service(events.append).start()
    broker.events = events
    yield env, broker
    broker.stop()


def _connect(env, broker, client):
    connection = TcpClientConnection(env.host, broker.port)
    try:
        run_handshake(client, connection, env.broker_did)
    except BaseException:
        connection.close()
        raise
    return connection


class TestEndToEnd:
    def test_full_flow_over_tcp(self, tcp_env):
        env, broker = tcp_env
        publisher, subscriber = env.publisher_client(), env.subscriber_client()

        subscriber_conn = _connect(env, broker, subscriber)
        subscriber_conn.send(subscriber.subscribe(env.topic))
        assert subscriber.handle_suback(subscriber_conn.recv()) is ReasonCode.SUCCESS

        publisher_conn = _connect(env, broker, publisher)
        publisher_conn.send(publisher.publish(env.topic, b"over-tcp"))
        assert publisher.handle_puback(publisher_conn.recv()) is ReasonCode.SUCCESS
        assert subscriber.handle_publish(subscriber_conn.recv()) == (env.topic, b"over-tcp")

        publisher_conn.send(publisher.disconnect())
        subscriber_conn.send(subscriber.disconnect())
        publisher_conn.close()
        subscriber_conn.close()

    def test_session_lifecycle_over_tcp(self, tcp_env):
        env, broker = tcp_env
        sessions = broker.engine.sessions
        assert sessions == {}

        publisher = env.publisher_client()
        connection = _connect(env, broker, publisher)
        session = sessions[publisher.ephemeral_did]
        assert list(sessions) == [publisher.ephemeral_did]
        assert session.static_did == publisher.static_did
        assert session.grant.publish_topics == frozenset({env.topic})

        connection.send(publisher.disconnect())
        connection.close()
        assert _wait_until(lambda: not sessions), "session not reaped after disconnect"

def _asyncio_errors(caplog, broker) -> list[logging.LogRecord]:
    """Records at ERROR or above on the asyncio logger once the broker has no
    connection left; a protocol callback that raised is logged as "Fatal error"."""
    assert _wait_until(lambda: not broker._connections)
    return [record for record in caplog.records if record.name == "asyncio" and record.levelno >= logging.ERROR]


def _wait_until(predicate, attempts: int = 100, interval: float = 0.02) -> bool:
    import time

    for _ in range(attempts):
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestConfigValidation:
    def test_a_saved_config_reads_back_equal(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        assert BrokerConfig.from_file(env.root / "broker-config.json") == env.config
        config = BrokerConfig("[::1]:1883", "did:web:b.example", "b.key", "til.json", "rr.json", "docs", "debug")
        config.save(tmp_path / "saved.json")
        # The bytes build_scenario wrote before BrokerConfig wrote them itself.
        assert (tmp_path / "saved.json").read_bytes() == (
            b'{\n  "listen_address": "[::1]:1883",\n  "broker_did": "did:web:b.example",\n'
            b'  "signing_key_path": "b.key",\n  "til_path": "til.json",\n  "rr_path": "rr.json",\n'
            b'  "did_web_dir": "docs",\n  "log_level": "debug"\n}\n'
        )
        assert BrokerConfig.from_file(tmp_path / "saved.json") == config

    def test_mismatched_key_refused(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        rogue = generate_signing_keypair()
        key_path = tmp_path / "rogue.key"
        key_path.write_text(rogue.secret.hex())
        config = dataclasses.replace(env.config, signing_key_path=str(key_path))
        with pytest.raises(ConfigError):
            config.service()

    def test_unresolvable_broker_did(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        config = dataclasses.replace(env.config, broker_did="did:web:ghost.example")
        with pytest.raises(ConfigError):
            config.service()

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"listen_address": "127.0.0.1:0"}))
        with pytest.raises(ConfigError):
            BrokerConfig.from_file(path)

    def test_bad_listen_address(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        config = dataclasses.replace(env.config, listen_address="nonsense")
        with pytest.raises(ConfigError):
            config.service()

    def test_a_bracketed_ipv6_address_is_served(self):
        try:
            with socket.socket(socket.AF_INET6) as probe:
                probe.bind(("::1", 0))
        except OSError:
            pytest.skip("no IPv6 loopback on this host")

        events: list[dict] = []
        service = BrokerService("[::1]:0", PlaintextEngine(), events.append)
        with service as broker, TcpClientConnection("::1", broker.port) as connection:
            connection.send(Packet(kind=PacketKind.CONNECT))
            assert connection.recv().kind is PacketKind.CONNACK
            clash = BrokerService(f"[::1]:{broker.port}", PlaintextEngine())
            with pytest.raises(BindError, match=re.escape(f"cannot bind [::1]:{broker.port}:")):
                clash.start()
        assert events[0]["reason"] == f"[::1]:{broker.port}"

    def test_unreadable_registry(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        env.rr_path.write_text("[]")  # wrong JSON shape
        with pytest.raises(ConfigError):
            env.config.service()

    def test_bind_conflict(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        with env.config.service():
            clone = build_scenario(tmp_path / "env2").config
            clone = dataclasses.replace(clone, listen_address=env.config.listen_address)
            with pytest.raises(BindError):
                clone.service().start()


class TestHotReload:
    def test_til_remove_takes_effect_without_restart(self, tcp_env):
        env, broker = tcp_env
        first = env.publisher_client()
        connection = _connect(env, broker, first)
        connection.send(first.disconnect())
        connection.close()

        TrustedIssuerList.load(env.til_path).without_member(env.po_did).save(env.til_path)
        second = env.publisher_client()
        with pytest.raises(ConnectionRejected):
            _connect(env, broker, second)
        assert any(
            e["event"] == "auth_rejected" and e["reason"] == "UntrustedIssuer"
            for e in broker.events
        )

        TrustedIssuerList.load(env.til_path).with_member(env.po_did).save(env.til_path)
        third = env.publisher_client()
        connection = _connect(env, broker, third)
        connection.send(third.disconnect())
        connection.close()

    def test_revocation_takes_effect_without_restart(self, tcp_env):
        env, broker = tcp_env
        first = env.subscriber_client()
        connection = _connect(env, broker, first)
        connection.send(first.disconnect())
        connection.close()

        RevocationRegistry.load(env.rr_path).revoke(env.subscriber.jti).save(env.rr_path)
        with pytest.raises(ConnectionRejected):
            _connect(env, broker, env.subscriber_client())
        assert any(e.get("reason") == "Revoked" for e in broker.events)

    def test_torn_issuer_list_fails_closed(self, tcp_env):
        env, broker = tcp_env
        env.til_path.write_bytes(env.til_path.read_bytes()[:5])
        client = env.publisher_client()
        with TcpClientConnection(env.host, broker.port) as connection:
            with pytest.raises(ConnectionRejected) as excinfo:
                run_handshake(client, connection, env.broker_did)
            assert excinfo.value.reason_code is ReasonCode.NOT_AUTHORIZED
            assert connection.recv().kind is PacketKind.DISCONNECT
            with pytest.raises(FramingError, match="closed by the broker"):
                connection.recv()
        assert [(e["event"], e["reason"], e.get("step")) for e in broker.events if e["session"] == client.ephemeral_did] == [
            ("challenge_sent", None, None),
            ("auth_rejected", "TrustFileError", "H"),
        ]


class TestFaultIsolation:
    def test_one_sessions_garbage_does_not_corrupt_another(self, tcp_env):
        env, broker = tcp_env
        victim = env.publisher_client()
        victim_conn = _connect(env, broker, victim)

        attacker_conn = TcpClientConnection(env.host, broker.port)
        attacker_conn.send_raw(b"\x00\x00\x00\x04\xff\xff\xff\xff")
        disconnect = attacker_conn.recv()
        assert disconnect.kind is PacketKind.DISCONNECT
        attacker_conn.close()

        for index in range(3):
            victim_conn.send(victim.publish(env.topic, f"still fine {index}".encode()))
            assert victim.handle_puback(victim_conn.recv()) is ReasonCode.SUCCESS
        victim_conn.send(victim.disconnect())
        victim_conn.close()

    def test_deep_disclosure_is_refused_at_h(self, tcp_env, caplog, monkeypatch):
        env, broker = tcp_env
        deep = base64.urlsafe_b64encode(b"[" * 100_000).rstrip(b"=").decode()
        compact = f"{env.publisher.credential.compact()}~{deep}~"
        monkeypatch.setattr(daxiot.protocol, "present", lambda *args: SimpleNamespace(compact=lambda: compact))
        client = env.publisher_client()
        with TcpClientConnection(env.host, broker.port) as connection:
            connection.send(client.begin_connect(env.broker_did))
            connection.send(client.handle_challenge(connection.recv()))
            replies = [connection.recv(), connection.recv()]
        assert [(p.kind, p.reason_code) for p in replies] == [
            (PacketKind.CONNACK, ReasonCode.NOT_AUTHORIZED),
            (PacketKind.DISCONNECT, ReasonCode.NOT_AUTHORIZED),
        ]
        assert [(e["event"], e["reason"], e.get("step")) for e in broker.events if e["session"] == client.ephemeral_did] == [
            ("challenge_sent", None, None),
            ("auth_rejected", "MalformedCredential", "H"),
        ]
        assert _asyncio_errors(caplog, broker) == []

    def test_transport_drop_reaps_session(self, tcp_env):
        env, broker = tcp_env
        client = env.publisher_client()
        connection = _connect(env, broker, client)
        connection.close()  # abrupt close, no Disconnect packet
        assert _wait_until(lambda: not broker.engine.sessions)

    def test_data_before_connect_is_refused(self, tcp_env):
        env, broker = tcp_env
        connection = TcpClientConnection(env.host, broker.port)
        connection.send(Packet(kind=PacketKind.PUBLISH, topic=b"x", payload=b"y"))
        reply = connection.recv()
        assert reply.kind is PacketKind.DISCONNECT
        connection.close()

    def test_exhausted_subscriber_is_disconnected(self, tcp_env):
        env, broker = tcp_env
        publisher, subscriber = env.publisher_client(), env.subscriber_client()
        with (
            _connect(env, broker, subscriber) as subscriber_conn,
            _connect(env, broker, publisher) as publisher_conn,
        ):
            subscriber_conn.send(subscriber.subscribe(env.topic))
            assert subscriber.handle_suback(subscriber_conn.recv()) is ReasonCode.SUCCESS
            b2c = broker.engine.sessions[subscriber.ephemeral_did].b2c
            b2c.counter = 2**64 - 2

            publisher_conn.send(publisher.publish(env.topic, b"last"))
            assert publisher.handle_puback(publisher_conn.recv()) is ReasonCode.SUCCESS
            assert subscriber_conn.recv().kind is PacketKind.DISCONNECT
            with pytest.raises(FramingError, match="closed by the broker"):
                subscriber_conn.recv()
            assert _wait_until(lambda: len(broker._connections) == 1)
            publisher_conn.send(publisher.disconnect())
        events = [e["event"] for e in broker.events]
        assert events.count("session_exhausted") == 1
        assert "connection_error" not in events


class TestFraming:
    def test_connect_sent_one_byte_at_a_time_is_challenged(self, tcp_env, caplog):
        env, broker = tcp_env
        client = env.publisher_client()
        with TcpClientConnection(env.host, broker.port) as connection:
            connection._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in encode_frame(client.begin_connect(env.broker_did)):
                connection.send_raw(bytes([byte]))
            connection.send(client.handle_challenge(connection.recv()))
            client.handle_connack(connection.recv())
            connection.send(client.disconnect())
        assert _asyncio_errors(caplog, broker) == []

    def test_publish_and_disconnect_in_one_segment(self, tcp_env, caplog):
        env, broker = tcp_env
        client = env.publisher_client()
        with _connect(env, broker, client) as connection:
            session = client.ephemeral_did
            publish = encode_frame(client.publish(env.topic, b"both"))
            connection.send_raw(publish + encode_frame(client.disconnect()))
            reply = connection.recv()
            assert (reply.kind, reply.reason_code) == (PacketKind.PUBACK, ReasonCode.SUCCESS)
            with pytest.raises(FramingError, match="closed by the broker"):
                connection.recv()
        assert _wait_until(lambda: broker.router.connections == {})
        events = [e["event"] for e in broker.events if e["session"] == session]
        assert events.count("disconnected") == 1 and "connection_error" not in events
        assert _asyncio_errors(caplog, broker) == []

    def test_two_peers_interleaving_partial_frames_stay_apart(self, tcp_env, caplog):
        # Every connection reads into the service's one receive area; each
        # read must be copied out before another connection's read lands.
        # The first frame is larger than the area, so it also takes several reads.
        env, broker = tcp_env
        first, second = env.publisher_client(), env.publisher_client()
        with _connect(env, broker, first) as one, _connect(env, broker, second) as two:
            frames = [
                encode_frame(first.publish(env.topic, b"1" * 100_000)),
                encode_frame(second.publish(env.topic, b"2" * 100)),
            ]
            for connection, frame in zip((one, two), frames):
                connection.send_raw(frame[:60])
            held = lambda: sorted(len(c._buffer) for c in broker._connections)
            assert _wait_until(lambda: held() == [60, 60])
            for connection, frame in zip((one, two), frames):
                connection.send_raw(frame[60:])
            assert first.handle_puback(one.recv()) is ReasonCode.SUCCESS
            assert second.handle_puback(two.recv()) is ReasonCode.SUCCESS
            one.send(first.disconnect())
            two.send(second.disconnect())
        assert "connection_error" not in [e["event"] for e in broker.events]
        assert _asyncio_errors(caplog, broker) == []

    def test_oversized_header_is_refused_before_its_body(self, tcp_env, caplog):
        env, broker = tcp_env
        with TcpClientConnection(env.host, broker.port) as connection:
            connection.send_raw((MAX_FRAME + 1).to_bytes(4, "big"))
            reply = connection.recv()
            assert (reply.kind, reply.reason_code) == (PacketKind.DISCONNECT, ReasonCode.PROTOCOL_ERROR)
            with pytest.raises(FramingError, match="closed by the broker"):
                connection.recv()
        errors = [e for e in broker.events if e["event"] == "connection_error"]
        assert [(e["reason"], sorted(e)) for e in errors] == [("FramingError", ["event", "reason", "session"])]
        assert _asyncio_errors(caplog, broker) == []

    def test_half_a_frame_then_eof_is_a_framing_error(self, tcp_env, caplog):
        env, broker = tcp_env
        client = env.publisher_client()
        with _connect(env, broker, client) as connection:
            assert client.ephemeral_did in broker.router.connections
            frame = encode_frame(client.publish(env.topic, b"torn"))
            connection.send_raw(frame[: len(frame) // 2])
        assert _wait_until(lambda: broker.router.connections == {} and broker.engine.sessions == {})
        errors = [(e["session"], e["reason"]) for e in broker.events if e["event"] == "connection_error"]
        assert errors == [(client.ephemeral_did, "FramingError")]
        assert _asyncio_errors(caplog, broker) == []

    def test_backed_up_replies_pause_reading_from_the_peer(self):
        calls = []
        connection = _Connection(service=None)
        connection.transport = SimpleNamespace(
            pause_reading=lambda: calls.append("pause"), resume_reading=lambda: calls.append("resume")
        )
        connection.pause_writing()
        assert calls == ["pause"]
        connection.resume_writing()
        assert calls == ["pause", "resume"]


class _FullDisk(io.StringIO):
    """An event log whose every write fails; it keeps what it was asked to write."""

    def __init__(self) -> None:
        super().__init__()
        self.attempted: list[str] = []

    def write(self, text: str) -> int:
        self.attempted.append(text)
        raise OSError(errno.ENOSPC, "No space left on device")


def test_each_event_is_written_as_one_json_line(tmp_path):
    env = build_scenario(tmp_path / "env")
    log = io.StringIO()
    with env.config.service(json_lines(log)) as broker:
        client = env.publisher_client()
        with _connect(env, broker, client) as connection:
            connection.send(client.disconnect())
        assert _wait_until(lambda: not broker._connections)
    lines = log.getvalue().splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    assert lines == [json.dumps(record, sort_keys=True) + "\n" for record in records]
    assert [sorted(record) for record in records] == [["event", "reason", "session", "ts"]] * 4
    assert [record["event"] for record in records] == ["listening", "challenge_sent", "authenticated", "disconnected"]


def test_a_failing_event_log_does_not_stop_the_broker(tmp_path, caplog):
    env = build_scenario(tmp_path / "env")
    disk = _FullDisk()
    with env.config.service(json_lines(disk)) as broker:
        client = env.publisher_client()
        with _connect(env, broker, client) as connection:
            connection.send(client.publish(env.topic, b"still served"))
            assert client.handle_puback(connection.recv()) is ReasonCode.SUCCESS
        assert _wait_until(lambda: not broker.engine.sessions)
        assert _asyncio_errors(caplog, broker) == []
    events = [json.loads(line)["event"] for line in disk.attempted]
    assert events[-3:] == ["authenticated", "publish_forwarded", "disconnected"]


def test_a_sink_over_a_closed_stream_raises_nothing(env):
    log = io.StringIO()
    log.close()
    network = LoopbackNetwork(env.config.engine(json_lines(log)))
    client = env.publisher_client()
    run_handshake(client, network.open(), env.broker_did)
    assert client.ephemeral_did in network.engine.sessions


def test_a_sink_failing_at_start_leaves_the_port_free():
    def failing_sink(record: dict) -> None:
        raise RuntimeError(f"cannot log {record['event']}")

    threads = threading.enumerate()
    broker = BrokerService("127.0.0.1:0", PlaintextEngine(), failing_sink)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(RuntimeError, match="cannot log listening"):
            broker.start()
        assert threading.enumerate() == threads
        with BrokerService(f"127.0.0.1:{broker.port}", PlaintextEngine()) as again:
            assert again.port == broker.port
        del broker
        gc.collect()
    assert [warning for warning in caught if issubclass(warning.category, ResourceWarning)] == []


@pytest.fixture(params=["loopback", "tcp"])
def routed(request, tmp_path):
    """A scenario, the router that serves it, and a way to open a client
    connection: on the in-process loopback or on a TCP broker thread."""
    env = build_scenario(tmp_path / "env")
    if request.param == "loopback":
        network = LoopbackNetwork(env.config.engine())
        yield env, network.router, network.open
        return
    opened: list[TcpClientConnection] = []

    def open_connection() -> TcpClientConnection:
        opened.append(TcpClientConnection(env.host, broker.port))
        return opened[-1]

    with env.config.service() as broker:
        try:
            yield env, broker.router, open_connection
        finally:
            for connection in opened:
                connection.close()


def _routed_session(env, router, open_connection, client):
    connection = open_connection()
    run_handshake(client, connection, env.broker_did)
    assert client.ephemeral_did in router.connections
    return connection


def _normal_disconnect(env, router, open_connection):
    client = env.publisher_client()
    _routed_session(env, router, open_connection, client).send(client.disconnect())


def _refused_at_c(env, router, open_connection):
    packet = env.publisher_client().begin_connect(env.broker_did)
    tampered = bytearray(packet.auth_data)
    tampered[24] ^= 0x01  # inside the ciphertext, past the nonce
    packet.auth_data = bytes(tampered)
    connection = open_connection()
    connection.send(packet)
    assert connection.recv().kind is PacketKind.DISCONNECT


def _refused_at_h(env, router, open_connection):
    RevocationRegistry.load(env.rr_path).revoke(env.publisher.jti).save(env.rr_path)
    client = env.publisher_client()
    connection = open_connection()
    connection.send(client.begin_connect(env.broker_did))
    response = client.handle_challenge(connection.recv())
    assert client.ephemeral_did in router.connections
    connection.send(response)
    with pytest.raises(ConnectionRejected):
        client.handle_connack(connection.recv())
    assert connection.recv().kind is PacketKind.DISCONNECT


def _evicted_during_fan_out(env, router, open_connection):
    publisher, subscriber = env.publisher_client(), env.subscriber_client()
    subscriber_conn = _routed_session(env, router, open_connection, subscriber)
    subscriber_conn.send(subscriber.subscribe(env.topic))
    assert subscriber.handle_suback(subscriber_conn.recv()) is ReasonCode.SUCCESS
    publisher_conn = _routed_session(env, router, open_connection, publisher)
    b2c = router.engine.sessions[subscriber.ephemeral_did].b2c
    b2c.counter = 2**64 - 2
    publisher_conn.send(publisher.publish(env.topic, b"last"))
    assert publisher.handle_puback(publisher_conn.recv()) is ReasonCode.SUCCESS
    assert subscriber_conn.recv().kind is PacketKind.DISCONNECT
    # The subscriber's socket stays open here: only the broker can end it.
    publisher_conn.send(publisher.disconnect())


def _abrupt_close(env, router, open_connection):
    _routed_session(env, router, open_connection, env.publisher_client()).close()


@pytest.mark.parametrize(
    "ending",
    [_normal_disconnect, _refused_at_c, _refused_at_h, _evicted_during_fan_out, _abrupt_close],
    ids=lambda ending: ending.__name__.lstrip("_"),
)
def test_router_forgets_every_session_however_it_ends(routed, ending):
    env, router, open_connection = routed
    ending(env, router, open_connection)
    assert _wait_until(lambda: router.connections == {} and router.engine.sessions == {})


def test_reconnecting_devices_leave_only_their_replay_entries(env):
    # Each connection's ephemeral key never returns, so neither side keeps
    # its conversion: the conversion memo holds the two devices' static keys
    # and nothing else, and a finished connection leaves only its entry in
    # the replay set, about 130 B. The bound sits below what one more memo
    # entry per handshake would add, about 270 B.
    daxiot.crypto._montgomery_u.cache_clear()
    network = LoopbackNetwork(env.config.engine())
    publisher, subscriber = env.publisher_client(), env.subscriber_client()

    def reconnect(rounds: int) -> None:
        for _ in range(rounds):
            for client in (publisher, subscriber):
                connection = network.open()
                run_handshake(client, connection, env.broker_did)
                if client is subscriber:
                    connection.send(client.subscribe(env.topic))
                    assert client.handle_suback(connection.recv()) is ReasonCode.SUCCESS
                connection.send(client.disconnect())
            network.captures.clear()

    reconnect(10)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reconnect(250)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (network.engine.sessions, network.engine.topics, network.router.connections) == ({}, {}, {})
    assert daxiot.crypto._montgomery_u.cache_info().currsize == 2
    assert growth / 500 < 250, f"{growth / 500:.0f} B per handshake"


def test_an_idle_session_holds_two_ciphers_a_side_and_little_else(env):
    # Each side of an established session keeps one cipher per direction;
    # the one-shot CONNECT and challenge ciphers go with their channels.
    # Both sides' Python heap together grow by about 3.6 KB per idle session
    # (about 5.8 KB while each key kept a cipher memo and each channel an AAD
    # table). A cipher's subkey state is native, outside tracemalloc, so the
    # cipher objects are counted instead, past any an earlier test left alive.
    earlier = {id(obj): obj for obj in gc.get_objects() if type(obj).__name__ == "XChaCha20Poly1305"}
    network = LoopbackNetwork(env.config.engine())
    member, resolver = env.publisher, env.resolver()

    def devices(count: int) -> list[daxiot.DaxiotClient]:
        return [
            daxiot.DaxiotClient(member.keypair, member.credential, member.disclosures, resolver) for _ in range(count)
        ]

    def establish(clients) -> None:
        for client in clients:
            run_handshake(client, network.open(), env.broker_did)
            network.captures.clear()

    warm = devices(10)
    establish(warm)
    sessions = 200
    clients = devices(sessions)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        establish(clients)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth / sessions < 4500, f"{growth / sessions:.0f} B per idle session"

    last = devices(1)[0]
    run_handshake(last, network.open(), env.broker_did)
    connect, challenge = (decode_frame(frame).auth_data for _, frame in network.captures[:2])
    engine_sessions = network.engine.sessions.values()
    held = [cipher for session in engine_sessions for cipher in (session.c2b.cipher, session.b2c.cipher)]
    held += [cipher for client in warm + clients + [last] for cipher in (client._send.cipher, client._recv.cipher)]
    alive = [
        obj for obj in gc.get_objects() if isinstance(obj, daxiot.crypto.XChaCha20Poly1305) and id(obj) not in earlier
    ]
    assert len(engine_sessions) == 10 + sessions + 1
    assert sorted(map(id, alive)) == sorted(map(id, held))
    assert len(set(map(id, held))) == 4 * len(engine_sessions)
    prefixes = {cipher.prefix for cipher in alive}
    assert connect[:16] not in prefixes and challenge[:16] not in prefixes


def test_traced_codec_names_cover_the_router(env, monkeypatch):
    # perfbench's traced broker rebinds encode_frame and decode_frame in
    # daxiot.broker_service for its wire.* spans; the router must call them
    # there. The loopback client's own codec calls are not traced.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    client, network = env.publisher_client(), LoopbackNetwork(env.config.engine())
    recorder = spans.Recorder()
    recorder.install()
    try:
        run_handshake(client, network.open(), env.broker_did)
    finally:
        recorder.restore()
    calls = {name: entry["calls"] for name, entry in spans.summarize(recorder.spans, 0, spans.now()).items()}
    assert calls["wire.decode"] == 2 and calls["wire.encode"] == 2
    assert calls["crypto.x25519"] == 6 and calls["crypto.aead"] == 8
    assert calls["crypto.convert_public_key"] == 3


def test_shutdown_drops_connections_before_waiting_for_the_server(tmp_path):
    # Since Python 3.12.1 Server.wait_closed returns only once every accepted
    # connection has closed, so shutdown must drop them before it waits.
    env = build_scenario(tmp_path / "env")
    open_at_wait_closed = []
    with env.config.service() as broker:
        server = broker._server
        wait_closed = server.wait_closed

        async def recording_wait_closed():
            open_at_wait_closed.append(len(broker._connections))
            await wait_closed()

        server.wait_closed = recording_wait_closed
        connection = _connect(env, broker, env.publisher_client())
    with connection:
        with pytest.raises(FramingError):
            connection.recv()
    assert open_at_wait_closed == [0]


def _cli_broker(tmp_path, env, **popen) -> subprocess.Popen:
    """``daxiot broker`` in a child process, serving ``env``'s config."""
    config_path = tmp_path / "broker.json"
    config_path.write_text(json.dumps(dataclasses.asdict(env.config)))
    src = str(Path(daxiot.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-m", "daxiot.cli", "broker", "--config", str(config_path)],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
        **popen,
    )


def _connect_when_listening(env) -> TcpClientConnection:
    for _ in range(200):
        try:
            return TcpClientConnection(env.host, env.port)
        except OSError:
            time.sleep(0.05)
    raise AssertionError("broker did not start listening")


def test_sigint_stops_the_broker_cleanly(tmp_path):
    env = build_scenario(tmp_path / "env")
    broker = _cli_broker(tmp_path, env, stderr=subprocess.PIPE)
    try:
        with _connect_when_listening(env) as connection:
            client = env.publisher_client()
            run_handshake(client, connection, env.broker_did)
            broker.send_signal(signal.SIGINT)
            out, err = broker.communicate(timeout=30)
            with pytest.raises(FramingError):
                connection.recv()
    finally:
        if broker.poll() is None:
            broker.kill()
            broker.communicate()
    assert broker.returncode == 0
    assert b"Traceback" not in err
    assert b'"event": "disconnected"' in err
    assert out.strip() == b"broker stopped"


def test_sigint_stops_a_broker_started_with_sigint_ignored(tmp_path):
    # A `&` job of a non-interactive shell starts with SIGINT ignored.
    env = build_scenario(tmp_path / "env")
    broker = _cli_broker(
        tmp_path, env, stderr=subprocess.PIPE, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN)
    )
    try:
        listening = broker.stderr.readline()
        broker.send_signal(signal.SIGINT)
        out, err = broker.communicate(timeout=30)
    finally:
        if broker.poll() is None:
            broker.kill()
            broker.communicate()
    assert b'"event": "listening"' in listening
    assert broker.returncode == 0
    assert b"Traceback" not in err
    assert out.strip() == b"broker stopped"


def test_a_broker_started_with_stderr_closed_serves_and_stops(tmp_path):
    # As `daxiot broker 2>&-` starts it: Python then has no sys.stderr at all.
    env = build_scenario(tmp_path / "env")
    broker = _cli_broker(tmp_path, env, preexec_fn=lambda: os.close(2))
    try:
        with _connect_when_listening(env) as connection:
            client = env.publisher_client()
            run_handshake(client, connection, env.broker_did)
            connection.send(client.publish(env.topic, b"no log"))
            assert client.handle_puback(connection.recv()) is ReasonCode.SUCCESS
            broker.send_signal(signal.SIGINT)
            out, _ = broker.communicate(timeout=30)
    finally:
        if broker.poll() is None:
            broker.kill()
            broker.communicate()
    assert broker.returncode == 0
    assert out.strip() == b"broker stopped"


@pytest.mark.parametrize("server", ["broker", "plaintext baseline"])
def test_stop_with_a_client_connected(tmp_path, caplog, server):
    threads_before = threading.active_count()
    with caplog.at_level(logging.WARNING, logger="asyncio"):
        if server == "broker":
            env = build_scenario(tmp_path / "env")
            broker = env.config.service().start()
            connection = _connect(env, broker, env.publisher_client())
        else:
            broker = PlaintextBroker().start()
            connection = TcpClientConnection("127.0.0.1", broker.port)
            connection.send(Packet(kind=PacketKind.CONNECT, client_id="plain", auth_method="plain"))
            assert connection.recv().kind is PacketKind.CONNACK
        with connection:
            broker.stop()
            with pytest.raises(FramingError, match="closed by the broker"):
                connection.recv()
    assert [record for record in caplog.records if record.name.startswith("asyncio")] == []
    assert threading.active_count() == threads_before


def test_a_failed_bind_leaves_no_thread_and_no_open_loop():
    with PlaintextBroker() as broker:
        threads = threading.enumerate()
        clash = BrokerService(f"127.0.0.1:{broker.port}", PlaintextEngine())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(BindError):
                clash.start()
            del clash
            gc.collect()
        assert threading.enumerate() == threads
    assert [warning for warning in caught if issubclass(warning.category, ResourceWarning)] == []


def test_a_stopped_broker_frees_its_port():
    broker = PlaintextBroker().start()
    with TcpClientConnection("127.0.0.1", broker.port) as connection:
        connection.send(Packet(kind=PacketKind.CONNECT, client_id="plain", auth_method="plain"))
        assert connection.recv().kind is PacketKind.CONNACK
        broker.stop()
    with BrokerService(f"127.0.0.1:{broker.port}", PlaintextEngine()) as again:
        assert again.port == broker.port


def test_every_reply_field_is_applied_by_the_router():
    # A Reply holds only what Router.receive applies, so a field that only
    # tests would read cannot come back: a refusal's cause is in its event.
    read = {
        node.attr
        for path, function, node in source_nodes()
        if (path, function) == ("broker_service.py", "receive")
        and isinstance(node, ast.Attribute)
        and ast.unparse(node.value) == "reply"
    }
    assert read == {field.name for field in dataclasses.fields(daxiot.protocol.Reply)}, read


def test_only_broker_service_start_runs_an_event_loop_or_a_thread():
    # One runner: no second loop-thread scaffold beside BrokerService.
    runners = {
        (path, function)
        for path, function, node in source_nodes()
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("asyncio.new_event_loop", "asyncio.run", "threading.Thread")
    }
    assert runners == {("broker_service.py", "start")}, runners

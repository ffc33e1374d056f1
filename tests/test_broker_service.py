from __future__ import annotations

import base64
import dataclasses
import errno
import io
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import daxiot
import daxiot.protocol
from daxiot.bench import PlaintextBroker
from daxiot.broker_service import BrokerConfig, BrokerService, BrokerThread, _Connection
from daxiot.credential import RevocationRegistry, TrustedIssuerList
from daxiot.crypto import Nonce, generate_signing_keypair
from daxiot.errors import BindError, ConfigError, ConnectionRejected, FramingError
from daxiot.scenario import build_scenario
from daxiot.transport import LoopbackNetwork, TcpClientConnection, run_handshake
from daxiot.wire import MAX_FRAME, Packet, PacketKind, ReasonCode, encode_frame


@pytest.fixture
def tcp_env(tmp_path):
    env = build_scenario(tmp_path / "env")
    broker = BrokerThread(env.config).start()
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

    def test_admin_status_lifecycle(self, tcp_env):
        env, broker = tcp_env
        assert broker.service.admin_status()["sessions"] == []

        publisher = env.publisher_client()
        connection = _connect(env, broker, publisher)
        status = broker.service.admin_status()
        assert len(status["sessions"]) == 1
        entry = status["sessions"][0]
        assert entry["static_did"] == publisher.static_did
        assert entry["publish_grants"] == 1

        connection.send(publisher.disconnect())
        connection.close()
        deadline = _wait_until(lambda: broker.service.admin_status()["sessions"] == [])
        assert deadline, "session not reaped after disconnect"


def _asyncio_errors(caplog, broker) -> list[logging.LogRecord]:
    """Records at ERROR or above on the asyncio logger once the broker has no
    connection left; a protocol callback that raised is logged as "Fatal error"."""
    assert _wait_until(lambda: not broker.service._connections)
    return [record for record in caplog.records if record.name == "asyncio" and record.levelno >= logging.ERROR]


def _wait_until(predicate, attempts: int = 100, interval: float = 0.02) -> bool:
    import time

    for _ in range(attempts):
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestConfigValidation:
    def test_mismatched_key_refused(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        rogue = generate_signing_keypair()
        key_path = tmp_path / "rogue.key"
        key_path.write_text(rogue.secret.hex())
        config = dataclasses.replace(env.config, signing_key_path=str(key_path))
        with pytest.raises(ConfigError):
            BrokerService(config.listen_address, config.engine)

    def test_unresolvable_broker_did(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        config = dataclasses.replace(env.config, broker_did="did:web:ghost.example")
        with pytest.raises(ConfigError):
            BrokerService(config.listen_address, config.engine)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"listen_address": "127.0.0.1:0"}))
        with pytest.raises(ConfigError):
            BrokerConfig.from_file(path)

    def test_bad_listen_address(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        config = dataclasses.replace(env.config, listen_address="nonsense")
        with pytest.raises(ConfigError):
            BrokerService(config.listen_address, config.engine)

    def test_unreadable_registry(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        env.rr_path.write_text("[]")  # wrong JSON shape
        with pytest.raises(ConfigError):
            BrokerService(env.config.listen_address, env.config.engine)

    def test_bind_conflict(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        with BrokerThread(env.config):
            clone = build_scenario(tmp_path / "env2").config
            clone = dataclasses.replace(clone, listen_address=env.config.listen_address)
            with pytest.raises(BindError):
                BrokerThread(clone).start()


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
            for e in broker.service.events
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
        assert any(e.get("reason") == "Revoked" for e in broker.service.events)

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
        assert [(e["event"], e["reason"]) for e in broker.service.events if e["session"] == client.ephemeral_did] == [
            ("challenge_sent", None),
            ("auth_rejected", "TrustFileError"),
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
        assert [(e["event"], e["reason"]) for e in broker.service.events if e["session"] == client.ephemeral_did] == [
            ("challenge_sent", None),
            ("auth_rejected", "MalformedCredential"),
        ]
        assert _asyncio_errors(caplog, broker) == []

    def test_transport_drop_reaps_session(self, tcp_env):
        env, broker = tcp_env
        client = env.publisher_client()
        connection = _connect(env, broker, client)
        connection.close()  # abrupt close, no Disconnect packet
        assert _wait_until(lambda: broker.service.admin_status()["sessions"] == [])

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
            b2c = broker.service.engine.sessions[subscriber.ephemeral_did].b2c
            b2c.nonce = Nonce(b2c.nonce.prefix, 2**64 - 2)

            publisher_conn.send(publisher.publish(env.topic, b"last"))
            assert publisher.handle_puback(publisher_conn.recv()) is ReasonCode.SUCCESS
            assert subscriber_conn.recv().kind is PacketKind.DISCONNECT
            with pytest.raises(FramingError, match="closed by the broker"):
                subscriber_conn.recv()
            assert _wait_until(lambda: len(broker.service._connections) == 1)
            publisher_conn.send(publisher.disconnect())
        events = [e["event"] for e in broker.service.events]
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
        assert _wait_until(lambda: broker.service.router.connections == {})
        events = [e["event"] for e in broker.service.events if e["session"] == session]
        assert events.count("disconnected") == 1 and "connection_error" not in events
        assert _asyncio_errors(caplog, broker) == []

    def test_oversized_header_is_refused_before_its_body(self, tcp_env, caplog):
        env, broker = tcp_env
        with TcpClientConnection(env.host, broker.port) as connection:
            connection.send_raw((MAX_FRAME + 1).to_bytes(4, "big"))
            reply = connection.recv()
            assert (reply.kind, reply.reason_code) == (PacketKind.DISCONNECT, ReasonCode.PROTOCOL_ERROR)
            with pytest.raises(FramingError, match="closed by the broker"):
                connection.recv()
        errors = [(e["event"], e["reason"]) for e in broker.service.events if e["event"] == "connection_error"]
        assert errors == [("connection_error", "FramingError")]
        assert _asyncio_errors(caplog, broker) == []

    def test_half_a_frame_then_eof_is_a_framing_error(self, tcp_env, caplog):
        env, broker = tcp_env
        client = env.publisher_client()
        with _connect(env, broker, client) as connection:
            assert client.ephemeral_did in broker.service.router.connections
            frame = encode_frame(client.publish(env.topic, b"torn"))
            connection.send_raw(frame[: len(frame) // 2])
        assert _wait_until(lambda: broker.service.router.connections == {} and broker.service.engine.sessions == {})
        errors = [(e["session"], e["reason"]) for e in broker.service.events if e["event"] == "connection_error"]
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
    def write(self, text: str) -> int:
        raise OSError(errno.ENOSPC, "No space left on device")


class _LoggingBroker(BrokerThread):
    def __init__(self, config: BrokerConfig, event_log) -> None:
        self.service = BrokerService(config.listen_address, config.engine, event_log)


def test_each_event_is_written_as_one_json_line(tmp_path):
    env = build_scenario(tmp_path / "env")
    event_log = io.StringIO()
    with _LoggingBroker(env.config, event_log) as broker:
        client = env.publisher_client()
        with _connect(env, broker, client) as connection:
            connection.send(client.disconnect())
        assert _wait_until(lambda: not broker.service._connections)
    lines = [json.dumps(record, sort_keys=True) + "\n" for record in broker.service.events]
    assert event_log.getvalue() == "".join(lines)
    assert [json.loads(line)["event"] for line in lines] == ["listening", "challenge_sent", "authenticated", "disconnected"]


def test_a_failing_event_log_does_not_stop_the_broker(tmp_path, caplog):
    env = build_scenario(tmp_path / "env")
    with _LoggingBroker(env.config, _FullDisk()) as broker:
        client = env.publisher_client()
        with _connect(env, broker, client) as connection:
            connection.send(client.publish(env.topic, b"still served"))
            assert client.handle_puback(connection.recv()) is ReasonCode.SUCCESS
        assert _asyncio_errors(caplog, broker) == []
    events = [e["event"] for e in broker.service.events]
    assert events[-3:] == ["authenticated", "publish_forwarded", "disconnected"]


@pytest.fixture(params=["loopback", "tcp"])
def routed(request, tmp_path):
    """A scenario, the router that serves it, and a way to open a client
    connection: on the in-process loopback or on a TCP broker thread."""
    env = build_scenario(tmp_path / "env")
    if request.param == "loopback":
        network = LoopbackNetwork(env.engine())
        yield env, network.router, network.open
        return
    opened: list[TcpClientConnection] = []

    def open_connection() -> TcpClientConnection:
        opened.append(TcpClientConnection(env.host, broker.port))
        return opened[-1]

    with BrokerThread(env.config) as broker:
        try:
            yield env, broker.service.router, open_connection
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
    b2c.nonce = Nonce(b2c.nonce.prefix, 2**64 - 2)
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


def test_traced_codec_names_cover_the_router(env, monkeypatch):
    # perfbench's traced broker rebinds encode_frame and decode_frame in
    # daxiot.broker_service for its wire.* spans; the router must call them
    # there. The loopback client's own codec calls are not traced.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    client, network = env.publisher_client(), LoopbackNetwork(env.engine())
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
    with BrokerThread(env.config) as broker:
        server = broker.service._server
        wait_closed = server.wait_closed

        async def recording_wait_closed():
            open_at_wait_closed.append(len(broker.service._connections))
            await wait_closed()

        server.wait_closed = recording_wait_closed
        connection = _connect(env, broker, env.publisher_client())
    with connection:
        with pytest.raises(FramingError):
            connection.recv()
    assert open_at_wait_closed == [0]


def test_sigint_stops_the_broker_cleanly(tmp_path):
    env = build_scenario(tmp_path / "env")
    config_path = tmp_path / "broker.json"
    config_path.write_text(json.dumps(dataclasses.asdict(env.config)))
    src = str(Path(daxiot.__file__).resolve().parents[1])
    broker = subprocess.Popen(
        [sys.executable, "-m", "daxiot.cli", "broker", "--config", str(config_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    try:
        connection = None
        for _ in range(200):
            try:
                connection = TcpClientConnection(env.host, env.port)
                break
            except OSError:
                time.sleep(0.05)
        assert connection is not None, "broker did not start listening"
        with connection:
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


@pytest.mark.parametrize("server", ["broker", "plaintext baseline"])
def test_stop_with_a_client_connected(tmp_path, caplog, server):
    threads_before = threading.active_count()
    with caplog.at_level(logging.WARNING, logger="asyncio"):
        if server == "broker":
            env = build_scenario(tmp_path / "env")
            broker = BrokerThread(env.config).start()
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

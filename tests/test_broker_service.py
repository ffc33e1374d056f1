from __future__ import annotations

import dataclasses
import json

import pytest

from daxiot.broker_service import BrokerConfig, BrokerService, BrokerThread
from daxiot.credential import RevocationRegistry, TrustedIssuerList
from daxiot.crypto import generate_signing_keypair
from daxiot.errors import BindError, ConfigError, ConnectionRejected
from daxiot.scenario import build_scenario
from daxiot.transport import TcpClientConnection, run_handshake
from daxiot.wire import Packet, PacketKind, ReasonCode


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
            BrokerService(config)

    def test_unresolvable_broker_did(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        config = dataclasses.replace(env.config, broker_did="did:web:ghost.example")
        with pytest.raises(ConfigError):
            BrokerService(config)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"listen_address": "127.0.0.1:0"}))
        with pytest.raises(ConfigError):
            BrokerConfig.from_file(path)

    def test_bad_listen_address(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        config = dataclasses.replace(env.config, listen_address="nonsense")
        with pytest.raises(ConfigError):
            BrokerService(config)

    def test_unreadable_registry(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        env.rr_path.write_text("[]")  # wrong JSON shape
        with pytest.raises(ConfigError):
            BrokerService(env.config)

    def test_bind_conflict(self, tmp_path):
        env = build_scenario(tmp_path / "env")
        with BrokerThread(env.config):
            clone = build_scenario(tmp_path / "env2", port=env.port)
            with pytest.raises(BindError):
                BrokerThread(clone.config).start()


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

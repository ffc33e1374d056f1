from __future__ import annotations

import gc
import json
import threading

import pytest
from click.testing import CliRunner

from daxiot.broker_service import BrokerThread
from daxiot.cli import main
from daxiot.credential import (
    RevocationRegistry,
    TrustedIssuerList,
    load_credential_files,
    save_credential_files,
    verify_presentation,
    present,
)
from daxiot.did import DirectoryWebSource, Resolver
from daxiot.scenario import build_scenario


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
    return result


class TestKeyCommands:
    def test_keygen_and_did_show(self, runner, tmp_path):
        key_path = tmp_path / "device.key"
        generated = invoke(runner, "keygen", "--out", key_path)
        assert generated.exit_code == 0
        shown = invoke(runner, "did-show", "--key", key_path)
        assert shown.exit_code == 0
        assert shown.output == generated.output
        assert shown.output.startswith("did:key:z6Mk")

    def test_did_show_same_seed_stable(self, runner, tmp_path):
        key_path = tmp_path / "device.key"
        invoke(runner, "keygen", "--out", key_path)
        first = invoke(runner, "did-show", "--key", key_path).output
        second = invoke(runner, "did-show", "--key", key_path).output
        assert first == second

    def test_did_show_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, ["did-show", "--key", str(tmp_path / "absent.key")])
        assert result.exit_code == 1

    def test_keygen_unwritable_path(self, runner, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        result = runner.invoke(main, ["keygen", "--out", str(blocker / "key")])
        assert result.exit_code == 1

    def test_didweb_emit(self, runner, tmp_path):
        key_path = tmp_path / "owner.key"
        invoke(runner, "keygen", "--out", key_path)
        result = invoke(
            runner,
            "didweb-emit",
            "--key", key_path,
            "--did", "did:web:owner.example",
            "--endpoint", "tcp://127.0.0.1:9",
            "--out-dir", tmp_path / "docs",
        )
        assert result.exit_code == 0
        document = Resolver(DirectoryWebSource(tmp_path / "docs")).resolve("did:web:owner.example")
        assert document.service_endpoint == "tcp://127.0.0.1:9"


class TestIssuance:
    def _issue(self, runner, tmp_path, claims: dict | bytes):
        issuer_key = tmp_path / "issuer.key"
        invoke(runner, "keygen", "--out", issuer_key)
        subject_did = invoke(runner, "keygen", "--out", tmp_path / "subject.key").output.strip()
        claims_path = tmp_path / "claims.json"
        claims_path.write_bytes(claims if isinstance(claims, bytes) else json.dumps(claims).encode())
        return runner.invoke(
            main,
            [
                "issue",
                "--key", str(issuer_key),
                "--issuer-did", "did:web:issuer.com",
                "--subject-did", subject_did,
                "--claims", str(claims_path),
                "--jti", "AC_ID_123456789",
                "--out-dir", str(tmp_path / "cred"),
            ],
        )

    def test_listing_shaped_claims(self, runner, tmp_path):
        claims = {
            "did:web:broker1.com": {"sub": ["t1"], "pub": ["t2"]},
            "did:web:broker2.com": {"pub": ["t3", "t4"]},
        }
        result = self._issue(runner, tmp_path, claims)
        assert result.exit_code == 0
        credential, disclosures = load_credential_files(tmp_path / "cred")
        assert len(credential.payload["_sd"]) == 2
        assert {d.key for d in disclosures} == set(claims)

    def test_issued_credential_verifies(self, runner, tmp_path):
        invoke(runner, "keygen", "--out", tmp_path / "issuer.key")
        invoke(
            runner,
            "didweb-emit",
            "--key", tmp_path / "issuer.key",
            "--did", "did:web:issuer.com",
            "--out-dir", tmp_path / "docs",
        )
        subject_did = invoke(runner, "keygen", "--out", tmp_path / "subject.key").output.strip()
        claims_path = tmp_path / "claims.json"
        claims_path.write_text(json.dumps({"did:web:broker1.com": {"pub": ["t2"]}}))
        invoke(
            runner,
            "issue",
            "--key", tmp_path / "issuer.key",
            "--issuer-did", "did:web:issuer.com",
            "--subject-did", subject_did,
            "--claims", claims_path,
            "--jti", "AC-1",
            "--out-dir", tmp_path / "cred",
        )
        credential, disclosures = load_credential_files(tmp_path / "cred")
        grant = verify_presentation(
            present(credential, disclosures, "did:web:broker1.com"),
            expected_subject=subject_did,
            verifier_did="did:web:broker1.com",
            til=TrustedIssuerList(frozenset({"did:web:issuer.com"})),
            rr=RevocationRegistry(),
            resolver=Resolver(DirectoryWebSource(tmp_path / "docs")),
        )
        assert grant.publish_topics == frozenset({"t2"})

    def test_empty_claims_rejected(self, runner, tmp_path):
        result = self._issue(runner, tmp_path, {})
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "claims",
        [
            b"\xff\xfe",
            b'{"did:web:broker1.com": ' + b"[" * 100_000,
            b'{"did:web:broker1.com": {"pub": [' + b"7" * 5000 + b"]}}",
            b'{"did:web:broker1.com": {"pub": [["x"]]}}',
            b'{"did:web:broker1.com": {"pub": [7]}}',
        ],
        ids=["not UTF-8", "too deep", "5000-digit integer", "list topic", "integer topic"],
    )
    def test_bad_claims_file_is_an_error(self, runner, tmp_path, claims):
        result = self._issue(runner, tmp_path, claims)
        assert result.exit_code == 1
        assert result.output.startswith("error: ")
        assert not (tmp_path / "cred").exists()


_CONFIG = {
    "listen_address": "127.0.0.1:0",
    "broker_did": "did:web:broker1.com",
    "signing_key_path": "broker.key",
    "til_path": "til.json",
    "rr_path": "rr.json",
    "did_web_dir": "docs",
}


@pytest.mark.parametrize(
    "config",
    [
        json.dumps({**_CONFIG, "listen_adress": "127.0.0.1:1883"}).encode(),
        b"5",
        json.dumps({**_CONFIG, "listen_address": 5}).encode(),
        b"\xff\xfe",
        b"[" * 100_000,
        json.dumps({**_CONFIG, "log_level": "warn"}).encode(),
    ],
    ids=["unknown key", "not an object", "non-string value", "not UTF-8", "too deep", "unknown log level"],
)
def test_bad_broker_config_exits_2(runner, tmp_path, config):
    path = tmp_path / "broker.json"
    path.write_bytes(config)
    result = runner.invoke(main, ["broker", "--config", str(path)])
    assert result.exit_code == 2
    # Refused while reading the config, before the key files it names are opened.
    assert result.output.startswith(f"error: broker config {path}")


class TestRegistryCommands:
    def test_til_add_remove_roundtrip(self, runner, tmp_path):
        til_path = tmp_path / "til.json"
        TrustedIssuerList().save(til_path)
        original = til_path.read_bytes()
        invoke(runner, "til-add", "--til", til_path, "--did", "did:web:new-owner.example")
        assert "did:web:new-owner.example" in json.loads(til_path.read_text())
        invoke(runner, "til-add", "--til", til_path, "--did", "did:web:new-owner.example")
        assert json.loads(til_path.read_text()).count("did:web:new-owner.example") == 1
        invoke(runner, "til-remove", "--til", til_path, "--did", "did:web:new-owner.example")
        assert til_path.read_bytes() == original

    def test_revoke_idempotent(self, runner, tmp_path):
        rr_path = tmp_path / "rr.json"
        invoke(runner, "revoke", "--rr", rr_path, "--jti", "AC-9")
        invoke(runner, "revoke", "--rr", rr_path, "--jti", "AC-9")
        assert json.loads(rr_path.read_text()) == {"AC-9": "REVOKED"}


class TestClientCommands:
    def test_publish_command(self, runner, tmp_path):
        env = build_scenario(tmp_path / "env")
        save_credential_files(tmp_path / "pub-cred", env.publisher.credential, env.publisher.disclosures)
        with BrokerThread(env.config):
            result = runner.invoke(
                main,
                [
                    "publish",
                    "--key", str(tmp_path / "env" / "keys" / "publisher.key"),
                    "--credential-dir", str(tmp_path / "pub-cred"),
                    "--broker-did", env.broker_did,
                    "--did-web-dir", env.config.did_web_dir,
                    "--topic", env.topic,
                    "--message", "solo publish",
                ],
                catch_exceptions=False,
            )
        assert result.exit_code == 0
        assert f"published to {env.topic}" in result.output

    def test_rejected_publish_closes_its_connection(self, runner, tmp_path):
        env = build_scenario(tmp_path / "env")
        save_credential_files(tmp_path / "pub-cred", env.publisher.credential, env.publisher.disclosures)
        RevocationRegistry.load(env.rr_path).revoke(env.publisher.jti).save(env.rr_path)
        with BrokerThread(env.config):
            result = runner.invoke(
                main,
                [
                    "publish",
                    "--key", str(tmp_path / "env" / "keys" / "publisher.key"),
                    "--credential-dir", str(tmp_path / "pub-cred"),
                    "--broker-did", env.broker_did,
                    "--did-web-dir", env.config.did_web_dir,
                    "--topic", env.topic,
                    "--message", "never sent",
                ],
                catch_exceptions=False,
            )
        assert result.exit_code == 1
        assert result.output.startswith("error: ConnectionRejected: ")
        # The exit's traceback keeps the failed call's frames alive: free them
        # here, so that a socket left open there fails this test.
        del result
        gc.collect()

    def test_torn_disclosure_file_is_an_error(self, runner, tmp_path):
        env = build_scenario(tmp_path / "env")
        save_credential_files(tmp_path / "pub-cred", env.publisher.credential, env.publisher.disclosures)
        torn = tmp_path / "pub-cred" / "disclosure-000.json"
        torn.write_bytes(torn.read_bytes()[:10])
        result = runner.invoke(
            main,
            [
                "publish",
                "--key", str(tmp_path / "env" / "keys" / "publisher.key"),
                "--credential-dir", str(tmp_path / "pub-cred"),
                "--broker-did", env.broker_did,
                "--did-web-dir", env.config.did_web_dir,
                "--topic", env.topic,
                "--message", "never sent",
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 1
        assert result.output.startswith(f"error: MalformedCredential: {torn}: disclosure is not JSON")

    def test_subscribe_command_receives_message(self, runner, tmp_path):
        # CliRunner patches global stdout, so only the subscriber runs through
        # it; the concurrent publish goes through the library directly.
        import time

        from daxiot.transport import TcpClientConnection, run_handshake

        env = build_scenario(tmp_path / "env")
        save_credential_files(tmp_path / "sub-cred", env.subscriber.credential, env.subscriber.disclosures)

        with BrokerThread(env.config) as broker:
            received: list = []

            def run_subscriber():
                received.append(
                    runner.invoke(
                        main,
                        [
                            "subscribe",
                            "--key", str(tmp_path / "env" / "keys" / "subscriber.key"),
                            "--credential-dir", str(tmp_path / "sub-cred"),
                            "--broker-did", env.broker_did,
                            "--did-web-dir", env.config.did_web_dir,
                            "--topic", env.topic,
                            "--count", "1",
                        ],
                        catch_exceptions=False,
                    )
                )

            thread = threading.Thread(target=run_subscriber)
            thread.start()
            for _ in range(200):
                if broker.service.engine.topics.get(env.topic):
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("subscription never registered")

            publisher = env.publisher_client()
            connection = TcpClientConnection(env.host, broker.port)
            run_handshake(publisher, connection, env.broker_did)
            connection.send(publisher.publish(env.topic, b"hello from the cli"))
            publisher.handle_puback(connection.recv())
            thread.join(timeout=10)
            connection.send(publisher.disconnect())
            connection.close()

        assert received and received[0].exit_code == 0
        assert "hello from the cli" in received[0].output


class TestDemoCommand:
    def test_demo_succeeds_with_full_trace(self, runner):
        result = invoke(runner, "demo")
        assert result.exit_code == 0
        for letter in "ABCDEFGHIJ":
            assert f"step {letter}:" in result.output

    def test_demo_revoke_first_fails_at_h(self, runner):
        result = runner.invoke(main, ["demo", "--revoke-first"])
        assert result.exit_code == 1
        assert "FAILED at step H: Revoked" in result.output

    def test_demo_untrusted_issuer_fails_at_h(self, runner):
        result = runner.invoke(main, ["demo", "--untrusted-issuer"])
        assert result.exit_code == 1
        assert "FAILED at step H: UntrustedIssuer" in result.output


class TestBenchCommand:
    def test_single_iteration_report(self, runner):
        result = invoke(
            runner,
            "bench",
            "--mode", "both",
            "--iterations-connect", 1,
            "--iterations-publish", 1,
            "--json",
        )
        assert result.exit_code == 0
        reports = json.loads(result.output)
        assert [r["mode"] for r in reports] == ["plaintext", "daxiot"]
        assert len({tuple(sorted(r)) for r in reports}) == 1  # identical shape per mode
        for report in reports:
            assert report["connect_ms"]["count"] == 1
            assert report["publish_ms"]["count"] == 1

    def test_table_output(self, runner):
        result = invoke(
            runner,
            "bench",
            "--mode", "plaintext",
            "--iterations-connect", 2,
            "--iterations-publish", 2,
        )
        assert result.exit_code == 0
        assert "Scenario" in result.output
        assert "plaintext" in result.output

from __future__ import annotations

import dataclasses
import errno
import gc
import json
import os
import re
import socket
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

import daxiot
import daxiot.credential
from daxiot.cli import main
from daxiot.credential import (
    RevocationRegistry,
    TrustedIssuerList,
    load_credential_files,
    save_credential_files,
    verify_presentation,
    present,
)
from daxiot.crypto import generate_signing_keypair, load_signing_key, save_signing_key
from daxiot.did import DirectoryWebSource, Resolver, write_didweb_document
from daxiot.errors import MalformedCredential
from daxiot.scenario import build_scenario
from daxiot.wire import ReasonCode


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
    return result


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with the package under test importable."""
    src = Path(daxiot.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


# Service endpoints a client cannot dial: it dials only tcp://host:port, and not
# port 0. A path and a scheme in capitals were accepted, and an unclosed bracket
# raised ValueError, before the listen address's parser read endpoints too; a NUL
# byte or a 64-character label in the host ended publish with a traceback.
BAD_ENDPOINTS = pytest.mark.parametrize(
    "endpoint",
    [
        "tcp://127.0.0.1:abc", "tcp://127.0.0.1:70000", "tcp://127.0.0.1", "udp://127.0.0.1:1883",
        "tcp://127.0.0.1:0", "tcp://127.0.0.1:1883/path", "TCP://127.0.0.1:1883", "tcp://[::1:1883",
        "tcp://a\x00b:1883", f"tcp://{'a' * 64}.example:1883",
    ],
    ids=[
        "port not a number", "port above 65535", "no port", "not tcp",
        "port 0", "a path", "scheme in capitals", "unclosed bracket",
        "a NUL byte", "a 64-character label",
    ],
)


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

    @pytest.mark.parametrize("existing", [False, True], ids=["new file", "over a 0644 file"])
    def test_keygen_writes_a_key_only_its_owner_can_read(self, runner, tmp_path, existing):
        key_path = tmp_path / "device.key"
        if existing:
            key_path.write_text("stale\n")
            key_path.chmod(0o644)
        old_umask = os.umask(0o022)
        try:
            assert invoke(runner, "keygen", "--out", key_path).exit_code == 0
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE(key_path.stat().st_mode) == 0o600

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

    @BAD_ENDPOINTS
    def test_didweb_emit_refuses_an_endpoint_no_client_can_dial(self, runner, tmp_path, endpoint):
        # Emit refuses what a client would refuse at its first connect. A valid
        # endpoint (test_didweb_emit) and none (test_issued_credential_verifies) are written.
        key_path = tmp_path / "owner.key"
        invoke(runner, "keygen", "--out", key_path)
        result = invoke(
            runner,
            "didweb-emit",
            "--key", key_path,
            "--did", "did:web:owner.example",
            "--endpoint", endpoint,
            "--out-dir", tmp_path / "docs",
        )
        assert result.exit_code == 1
        assert result.stderr == f"error: did:web:owner.example service endpoint {endpoint!r} is not tcp://host:port\n"
        assert not (tmp_path / "docs").exists()

    def test_didweb_emit_into_an_unwritable_directory_is_an_error(self, runner, tmp_path):
        key_path = tmp_path / "owner.key"
        invoke(runner, "keygen", "--out", key_path)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        result = runner.invoke(
            main,
            [
                "didweb-emit",
                "--key", str(key_path),
                "--did", "did:web:owner.example",
                "--out-dir", str(blocker / "sub"),
            ],
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ") and "Traceback" not in result.output

    def test_didweb_emit_replaces_a_document_whole(self, runner, tmp_path):
        # The broker reads a did:web document on every handshake: a reader
        # that opened the old document reads all of it, because the new one
        # is renamed into place instead of written over the old one's bytes.
        key_path = tmp_path / "owner.key"
        invoke(runner, "keygen", "--out", key_path)

        def emit(endpoint):
            result = invoke(
                runner,
                "didweb-emit",
                "--key", key_path,
                "--did", "did:web:owner.example",
                "--endpoint", endpoint,
                "--out-dir", tmp_path / "docs",
            )
            assert result.exit_code == 0
            return Path(result.output.strip())

        path = emit("tcp://127.0.0.1:9")
        old = path.read_bytes()
        with open(path, "rb") as reader:
            assert emit("tcp://127.0.0.1:10") == path
            assert reader.read() == old
        document = Resolver(DirectoryWebSource(tmp_path / "docs")).resolve("did:web:owner.example")
        assert document.service_endpoint == "tcp://127.0.0.1:10"
        assert os.listdir(tmp_path / "docs") == [path.name]


class TestIssuance:
    def _issue(self, runner, tmp_path, claims: dict | bytes, subject_did: str | None = None):
        issuer_key = tmp_path / "issuer.key"
        invoke(runner, "keygen", "--out", issuer_key)
        if subject_did is None:
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
            b'{"broker1.com": {"pub": ["t2"]}}',
        ],
        ids=["not UTF-8", "too deep", "5000-digit integer", "list topic", "integer topic", "key not a DID"],
    )
    def test_bad_claims_file_is_an_error(self, runner, tmp_path, claims):
        result = self._issue(runner, tmp_path, claims)
        assert result.exit_code == 1
        assert result.output.startswith("error: ")
        assert not (tmp_path / "cred").exists()

    @pytest.mark.parametrize("subject_did", ["did:key:anything", "did:web:subject.example"])
    def test_a_subject_that_is_not_a_did_key_is_an_error(self, runner, tmp_path, subject_did):
        result = self._issue(runner, tmp_path, {"did:web:broker1.com": {"pub": ["t2"]}}, subject_did)
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


def test_a_key_of_the_wrong_length_exits_2(runner, tmp_path):
    key_path = tmp_path / "broker.key"
    key_path.write_text("00" * 31 + "\n")
    path = tmp_path / "broker.json"
    path.write_text(json.dumps({**_CONFIG, "signing_key_path": str(key_path)}))
    result = runner.invoke(main, ["broker", "--config", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: cannot load signing key from {key_path}")


@pytest.mark.parametrize("port", ["65536", "99999", "\u00b2"], ids=["65536", "99999", "superscript two"])
def test_a_listen_port_that_is_not_0_to_65535_exits_2(runner, tmp_path, port):
    path = tmp_path / "broker.json"
    path.write_text(json.dumps({**_CONFIG, "listen_address": f"127.0.0.1:{port}"}))
    result = runner.invoke(main, ["broker", "--config", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: listen_address must be host:port")


@pytest.mark.parametrize(
    "address",
    ["::1:1883", "127.0.0.1:" + "9" * 5000, "a\x00b:0", "a" * 64 + ".example:0"],
    ids=["IPv6 without brackets", "5000-digit port", "a NUL byte", "a 64-character label"],
)
def test_a_listen_address_off_the_rule_exits_2(runner, tmp_path, address):
    # The first bound ::1 port 1883; the second raised ValueError past int()'s
    # digit limit; the last two raised ValueError and UnicodeError from the bind.
    path = tmp_path / "broker.json"
    path.write_text(json.dumps({**_CONFIG, "listen_address": address}))
    result = runner.invoke(main, ["broker", "--config", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: listen_address must be host:port or [IPv6]:port")


def test_a_listen_address_already_in_use_exits_3(tmp_path):
    env = build_scenario(tmp_path / "env")
    config_path = tmp_path / "broker.json"
    config_path.write_text(json.dumps(dataclasses.asdict(env.config)))
    with socket.create_server((env.host, env.port)):
        result = _python("-m", "daxiot.cli", "broker", "--config", str(config_path))
    assert result.returncode == 3
    assert result.stderr.startswith(f"error: cannot bind {env.host}:{env.port}: ")
    assert "Traceback" not in result.stderr and result.stdout == ""


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

    def test_an_edit_between_anothers_load_and_save_is_kept(self, tmp_path, monkeypatch, capsys):
        # A second revoke starts after the first has loaded the registry and
        # is given time to finish before the first saves. The first holds the
        # directory's lock, so the second waits and then sees the first's edit.
        rr_path = tmp_path / "rr.json"
        RevocationRegistry().save(rr_path)
        load, second = RevocationRegistry.load, []

        def revoke(jti):
            main.main(["revoke", "--rr", str(rr_path), "--jti", jti], standalone_mode=False)

        def load_then_start_a_second_editor(cls, path):
            registry = load(path)
            if not second:
                second.append(threading.Thread(target=revoke, args=("J2",)))
                second[0].start()
                second[0].join(timeout=0.5)
            return registry

        monkeypatch.setattr(RevocationRegistry, "load", classmethod(load_then_start_a_second_editor))
        revoke("J1")
        second[0].join(timeout=30)
        assert not second[0].is_alive()
        assert json.loads(rr_path.read_text()) == {"J1": "REVOKED", "J2": "REVOKED"}
        assert sorted(capsys.readouterr().out.splitlines()) == ["J1: REVOKED", "J2: REVOKED"]
        assert os.listdir(tmp_path) == ["rr.json"]

    def test_concurrent_edits_all_land(self, tmp_path, capsys):
        rr_path, til_path = tmp_path / "rr.json", tmp_path / "til.json"
        commands = [["revoke", "--rr", str(rr_path), "--jti", f"J{i}"] for i in range(6)]
        commands += [["til-add", "--til", str(til_path), "--did", f"did:web:owner{i}.example"] for i in range(6)]
        editors = [threading.Thread(target=main.main, args=(args,), kwargs={"standalone_mode": False}) for args in commands]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for editor in editors:
                editor.start()
            for editor in editors:
                editor.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(editor.is_alive() for editor in editors)
        assert json.loads(rr_path.read_text()) == {f"J{i}": "REVOKED" for i in range(6)}
        assert json.loads(til_path.read_text()) == sorted(f"did:web:owner{i}.example" for i in range(6))
        assert len(capsys.readouterr().out.splitlines()) == 12


class TestClientCommands:
    def test_publish_command(self, runner, tmp_path):
        env = build_scenario(tmp_path / "env")
        save_credential_files(tmp_path / "pub-cred", env.publisher.credential, env.publisher.disclosures)
        with env.config.service():
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
        with env.config.service():
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

    def test_a_credential_issued_again_into_its_directory_connects(self, runner, tmp_path):
        # The second issuance has fewer claims: a disclosure file left over
        # from the first would be presented and refused as unknown.
        env = build_scenario(tmp_path / "env")
        keys = tmp_path / "env" / "keys"

        def issue(claims):
            claims_path = tmp_path / "claims.json"
            claims_path.write_text(json.dumps(claims))
            result = invoke(
                runner,
                "issue",
                "--key", keys / "publisher-owner.key",
                "--issuer-did", env.po_did,
                "--subject-did", env.publisher.static_did,
                "--claims", claims_path,
                "--jti", "AC-publisher-0002",
                "--out-dir", tmp_path / "pub-cred",
            )
            assert result.exit_code == 0

        grant = {"pub": [env.topic]}
        issue({"did:web:a.example": grant, "did:web:b.example": grant, env.broker_did: grant})
        issue({env.broker_did: grant})
        assert len(load_credential_files(tmp_path / "pub-cred")[1]) == 1
        with env.config.service():
            result = invoke(
                runner,
                "publish",
                "--key", keys / "publisher.key",
                "--credential-dir", tmp_path / "pub-cred",
                "--broker-did", env.broker_did,
                "--did-web-dir", env.config.did_web_dir,
                "--topic", env.topic,
                "--message", "after re-issue",
            )
        assert result.exit_code == 0, result.output
        assert f"published to {env.topic}" in result.output

    def test_a_reissue_that_runs_out_of_space_leaves_a_credential_that_verifies(self, runner, tmp_path, monkeypatch):
        # A disk that fills after one write must not leave the new credential
        # beside the old disclosures, which the broker refuses as unknown.
        env = build_scenario(tmp_path / "env")
        directory = tmp_path / "pub-cred"
        save_credential_files(directory, env.publisher.credential, env.publisher.disclosures)
        writes = []
        replace_file = daxiot.credential.replace_file

        def full_after_one_write(path, data, *args, **kwargs):
            writes.append(path)
            if len(writes) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            replace_file(path, data, *args, **kwargs)

        monkeypatch.setattr(daxiot.credential, "replace_file", full_after_one_write)
        claims_path = tmp_path / "claims.json"
        claims_path.write_text(json.dumps({env.broker_did: {"pub": [env.topic]}, "did:web:a.example": {"sub": ["x"]}}))
        result = invoke(
            runner,
            "issue",
            "--key", tmp_path / "env" / "keys" / "publisher-owner.key",
            "--issuer-did", env.po_did,
            "--subject-did", env.publisher.static_did,
            "--claims", claims_path,
            "--jti", "AC-publisher-0002",
            "--out-dir", directory,
        )

        credential, disclosures = load_credential_files(directory)
        grant = verify_presentation(
            present(credential, disclosures, env.broker_did),
            expected_subject=env.publisher.static_did,
            verifier_did=env.broker_did,
            til=TrustedIssuerList.load(env.til_path),
            rr=RevocationRegistry.load(env.rr_path),
            resolver=env.resolver(),
        )
        assert grant.publish_topics == frozenset({env.topic})
        assert (result.exit_code, result.output) == (0, f"{directory / 'credential.sdjwt'}\n")

    def _publish(self, runner, tmp_path, env):
        return runner.invoke(
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

    def test_a_torn_credential_file_is_an_error(self, runner, tmp_path):
        env = build_scenario(tmp_path / "env")
        path = save_credential_files(tmp_path / "pub-cred", env.publisher.credential, env.publisher.disclosures)
        path.write_text(path.read_text()[: len(env.publisher.credential.compact()) + 10])  # inside the first disclosure
        result = self._publish(runner, tmp_path, env)
        assert result.exit_code == 1
        assert result.output.startswith(f"error: MalformedCredential: {path}: compact presentation must end with '~'")

    def test_a_credential_directory_in_the_old_layout_is_an_error(self, runner, tmp_path):
        # A bare JWT in credential.sdjwt and one JSON file per disclosure: it
        # must not load as a credential with no disclosures.
        env = build_scenario(tmp_path / "env")
        path = tmp_path / "pub-cred" / "credential.sdjwt"
        path.parent.mkdir()
        path.write_text(env.publisher.credential.compact() + "\n")
        (path.parent / "disclosure-000.json").write_bytes(env.publisher.disclosures[0].serialize() + b"\n")
        with pytest.raises(MalformedCredential, match=f"^{re.escape(str(path))}: "):
            load_credential_files(path.parent)
        result = self._publish(runner, tmp_path, env)
        assert result.exit_code == 1
        assert result.output.startswith(f"error: MalformedCredential: {path}: compact presentation must end with '~'")

    @BAD_ENDPOINTS
    def test_a_bad_service_endpoint_is_an_error(self, runner, tmp_path, endpoint):
        env = build_scenario(tmp_path / "env")
        broker_key = load_signing_key(env.config.signing_key_path)
        write_didweb_document(Path(env.config.did_web_dir), broker_key, env.broker_did, endpoint)
        save_credential_files(tmp_path / "pub-cred", env.publisher.credential, env.publisher.disclosures)
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
        assert result.stderr == (
            f"error: DaxiotError: {env.broker_did} service endpoint {endpoint!r} is not tcp://host:port\n"
        )

    @pytest.mark.parametrize("host", ["a\x00b", "a" * 64 + ".example"], ids=["a NUL byte", "a 64-character label"])
    def test_subscribe_refuses_an_endpoint_host_no_resolver_takes_before_dialling(
        self, runner, tmp_path, monkeypatch, host
    ):
        # publish meets the same hosts in BAD_ENDPOINTS; name resolution refused
        # them with ValueError or UnicodeError, not OSError.
        import daxiot.transport

        def create_connection(*args, **kwargs):
            attempts.append(args)
            raise OSError("no connection expected")

        attempts: list = []
        monkeypatch.setattr(daxiot.transport.socket, "create_connection", create_connection)
        env = build_scenario(tmp_path / "env")
        endpoint = f"tcp://{host}:1883"
        broker_key = load_signing_key(env.config.signing_key_path)
        write_didweb_document(Path(env.config.did_web_dir), broker_key, env.broker_did, endpoint)
        save_credential_files(tmp_path / "sub-cred", env.subscriber.credential, env.subscriber.disclosures)
        result = runner.invoke(
            main,
            [
                "subscribe",
                "--key", str(tmp_path / "env" / "keys" / "subscriber.key"),
                "--credential-dir", str(tmp_path / "sub-cred"),
                "--broker-did", env.broker_did,
                "--did-web-dir", env.config.did_web_dir,
                "--topic", env.topic,
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 1
        assert result.stderr == (
            f"error: DaxiotError: {env.broker_did} service endpoint {endpoint!r} is not tcp://host:port\n"
        )
        assert attempts == []

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_subscribe_refuses_a_count_below_one_before_connecting(self, runner, tmp_path, monkeypatch, count):
        import daxiot.transport

        def create_connection(*args, **kwargs):
            attempts.append(args)
            raise OSError("no connection expected")

        attempts: list = []
        monkeypatch.setattr(daxiot.transport.socket, "create_connection", create_connection)
        env = build_scenario(tmp_path / "env")
        save_credential_files(tmp_path / "sub-cred", env.subscriber.credential, env.subscriber.disclosures)
        result = runner.invoke(
            main,
            [
                "subscribe",
                "--key", str(tmp_path / "env" / "keys" / "subscriber.key"),
                "--credential-dir", str(tmp_path / "sub-cred"),
                "--broker-did", env.broker_did,
                "--did-web-dir", env.config.did_web_dir,
                "--topic", env.topic,
                "--count", count,
            ],
        )
        assert result.exit_code == 2
        assert "'--count'" in result.output
        assert attempts == []

    def test_subscribe_command_receives_message(self, runner, tmp_path):
        # CliRunner patches global stdout, so only the subscriber runs through
        # it; the concurrent publish goes through the library directly.
        import time

        from daxiot.transport import TcpClientConnection, run_handshake

        env = build_scenario(tmp_path / "env")
        save_credential_files(tmp_path / "sub-cred", env.subscriber.credential, env.subscriber.disclosures)

        with env.config.service() as broker:
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
                if broker.engine.topics.get(env.topic):
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

    def test_a_subscriber_waits_for_a_message_past_its_connection_timeout(self, runner, tmp_path, monkeypatch):
        # The connect, the handshake and the SUBACK are held to the connection's
        # timeout, shrunk here to 0.3 s; the message comes about a second later.
        import time

        import daxiot.transport
        from daxiot.transport import TcpClientConnection, run_handshake

        create_connection = daxiot.transport.socket.create_connection
        monkeypatch.setattr(
            daxiot.transport.socket, "create_connection", lambda address, timeout: create_connection(address, 0.3)
        )
        env = build_scenario(tmp_path / "env")
        save_credential_files(tmp_path / "sub-cred", env.subscriber.credential, env.subscriber.disclosures)
        args = [
            "subscribe",
            "--key", str(tmp_path / "env" / "keys" / "subscriber.key"),
            "--credential-dir", str(tmp_path / "sub-cred"),
            "--broker-did", env.broker_did,
            "--did-web-dir", env.config.did_web_dir,
            "--topic", env.topic,
        ]
        with env.config.service() as broker:
            received: list = []
            thread = threading.Thread(target=lambda: received.append(runner.invoke(main, args, catch_exceptions=False)))
            thread.start()
            deadline = time.monotonic() + 10
            while not broker.engine.topics.get(env.topic):
                assert time.monotonic() < deadline, "subscription never registered"
                time.sleep(0.02)
            time.sleep(1.0)
            publisher = env.publisher_client()
            with TcpClientConnection(env.host, broker.port) as connection:
                run_handshake(publisher, connection, env.broker_did)
                connection.send(publisher.publish(env.topic, b"a slow reading"))
                assert publisher.handle_puback(connection.recv()) is ReasonCode.SUCCESS
                thread.join(timeout=10)
                connection.send(publisher.disconnect())

        assert received and received[0].exit_code == 0, received and received[0].output
        assert received[0].output == f"{env.topic}: a slow reading\n"


class TestDemoCommand:
    def test_demo_succeeds_with_full_trace(self, runner):
        result = invoke(runner, "demo")
        assert result.exit_code == 0
        for letter in "ABCDEFGHIJ":
            assert f"step {letter}:" in result.output

    def test_the_demo_works_in_the_test_sessions_temporary_directory(self, runner, session_tempdir):
        # The demo keeps its directory for the operator to inspect; under
        # the session's directory, pytest prunes it with the rest.
        output = runner.invoke(main, ["demo"]).output
        workdir = Path(re.search(r"^demo artifacts: (.*)$", output, flags=re.MULTILINE).group(1))
        assert workdir.parent == session_tempdir and workdir.name.startswith("daxiot-demo-")

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

    def test_help_shows_the_iteration_defaults(self, runner):
        result = invoke(runner, "bench", "--help")
        assert result.exit_code == 0
        assert re.search(r"--iterations-connect INTEGER RANGE\s+\[default: 1000;\s+x>=1\]", result.output)
        assert re.search(r"--iterations-publish INTEGER RANGE\s+\[default: 10000;\s+x>=1\]", result.output)

    @pytest.mark.parametrize("option", ["--iterations-connect", "--iterations-publish"])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_an_iteration_count_below_one_is_a_usage_error(self, runner, monkeypatch, option, count):
        import daxiot.bench

        monkeypatch.setattr(daxiot.bench, "run_bench", lambda *args: pytest.fail("a benchmark ran"))
        result = invoke(runner, "bench", option, count)
        assert result.exit_code == 2
        assert f"Invalid value for '{option}': {count} is not in the range x>=1." in result.stderr


def test_didweb_emit_loads_no_broker_code(tmp_path):
    # An operator writing a document needs the did module, not the broker or
    # the scenario builder, nor asyncio, which the broker brings.
    key_path = tmp_path / "owner.key"
    save_signing_key(key_path, generate_signing_keypair())
    arguments = [
        "didweb-emit", "--key", str(key_path), "--did", "did:web:owner.example",
        "--endpoint", "tcp://127.0.0.1:1883", "--out-dir", str(tmp_path / "docs"),
    ]
    unused = ("asyncio", "daxiot.broker_service", "daxiot.scenario")
    probe = (
        f"import sys; from daxiot.cli import main; main({arguments!r}, standalone_mode=False)\n"
        f"print([name for name in {unused!r} if name in sys.modules])"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[1:] == ["[]", ""], result.stdout
    assert Resolver(DirectoryWebSource(tmp_path / "docs")).resolve("did:web:owner.example").service_endpoint


def test_the_broker_command_imports_only_what_it_runs():
    # The broker, client, demo and benchmark modules, asyncio, and the
    # key-serialization module with its SSH formats, are imported by the
    # commands that use them; a device's side, the CLI with its TCP
    # transport, loads none of the rest.
    unused = (
        "asyncio",
        "daxiot.broker_service",
        "daxiot.bench",
        "daxiot.demo",
        "daxiot.scenario",
        "daxiot.transport",
        "cryptography.hazmat.primitives.serialization",
    )
    probe = (
        f"import sys, daxiot.cli; print([name for name in {unused!r} if name in sys.modules])\n"
        f"import daxiot.transport; print([name for name in {unused!r} if name in sys.modules and name != 'daxiot.transport'])"
    )
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n") == ["[]", "[]", ""], result.stdout

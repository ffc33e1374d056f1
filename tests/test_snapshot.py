"""Trust files and did:web documents are parsed again only when they change.

Files written by a test are inside the racy window (see daxiot.snapshot), so
each test backdates a file's mtime with ``os.utime`` where it needs the
snapshot to keep the parsed value.
"""

from __future__ import annotations

import ast
import os
import time
from pathlib import Path

import pytest

import daxiot.snapshot
from daxiot.credential import CredentialStatus, RevocationRegistry, TrustedIssuerList
from daxiot.crypto import generate_signing_keypair
from daxiot.did import DirectoryWebSource, Resolver
from daxiot.errors import TrustFileError
from daxiot.scenario import write_didweb_document
from daxiot.snapshot import RACY_SLACK_NS, FileSnapshot, replace_file
from helpers import source_nodes

ISSUER = "did:web:issuer.example"
OTHER = "did:web:vendor.example"


def _backdate(path: Path) -> None:
    """Move the file's mtime a minute back, well out of the racy window."""
    old = time.time() - 60
    os.utime(path, (old, old))


@pytest.fixture
def opens(monkeypatch) -> list[Path]:
    """Every file the snapshot module opens, in order."""
    opened: list[Path] = []

    def counting(path, *args, **kwargs):
        opened.append(Path(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(daxiot.snapshot, "open", counting, raising=False)
    return opened


def _til(tmp_path: Path, *members: str) -> Path:
    path = tmp_path / "til.json"
    TrustedIssuerList(frozenset(members)).save(path)
    return path


def _rr(tmp_path: Path, *revoked: str) -> Path:
    path = tmp_path / "rr.json"
    registry = RevocationRegistry()
    for jti in revoked:
        registry.revoke(jti)
    registry.save(path)
    return path


class TestServedReads:
    @pytest.mark.parametrize("kind", ["issuer list", "revocation registry", "did:web document"])
    def test_a_served_read_opens_no_file(self, tmp_path, opens, kind):
        if kind == "issuer list":
            path = _til(tmp_path, ISSUER)
            load = lambda: TrustedIssuerList.load(path)  # noqa: E731
        elif kind == "revocation registry":
            path = _rr(tmp_path, "jti-1")
            load = lambda: RevocationRegistry.load(path)  # noqa: E731
        else:
            path = write_didweb_document(tmp_path, generate_signing_keypair(), ISSUER)
            resolver = Resolver(DirectoryWebSource(tmp_path))
            load = lambda: resolver.resolve(ISSUER)  # noqa: E731
        _backdate(path)
        first = load()
        assert opens == [path]
        assert load() == first and load() == first
        assert opens == [path]

    def test_a_recent_file_is_read_every_time(self, tmp_path, opens):
        path = _til(tmp_path, ISSUER)
        for _ in range(3):
            assert TrustedIssuerList.load(path).contains(ISSUER)
        assert opens == [path] * 3

    def test_loaded_registries_share_no_state(self, tmp_path):
        # revoke() changes the registry it is called on; the kept snapshot
        # and every later load must not see it.
        path = _rr(tmp_path, "jti-1")
        _backdate(path)
        first, second = RevocationRegistry.load(path), RevocationRegistry.load(path)
        first.revoke("jti-2")
        assert second.status("jti-2") is CredentialStatus.ACTIVE
        assert RevocationRegistry.load(path).status("jti-2") is CredentialStatus.ACTIVE
        assert RevocationRegistry.load(path).status("jti-1") is CredentialStatus.REVOKED

    def test_the_table_stays_bounded(self, tmp_path):
        snapshot = FileSnapshot(lambda path, raw: raw)
        for index in range(daxiot.snapshot._ENTRIES + 10):
            path = tmp_path / f"{index}.json"
            path.write_bytes(b"%d" % index)
            _backdate(path)
            assert snapshot.read(path) == b"%d" % index
            assert len(snapshot._entries) <= daxiot.snapshot._ENTRIES


class TestChangesAreSeen:
    @pytest.mark.parametrize("age", ["inside the racy window", "backdated"])
    def test_a_same_size_rewrite_with_an_unchanged_stat_key(self, tmp_path, monkeypatch, age):
        # A rewrite within one timestamp tick can leave inode, size, mtime
        # and ctime as they were. The stat is pinned to show what then
        # decides: a recent file is parsed again, an old one is served.
        path = _til(tmp_path, ISSUER)
        if age == "backdated":
            _backdate(path)
        pinned, stat = os.stat(path), os.stat
        monkeypatch.setattr(
            daxiot.snapshot.os, "stat", lambda p, *a, **k: pinned if Path(p) == path else stat(p, *a, **k)
        )
        assert TrustedIssuerList.load(path).contains(ISSUER)
        rewritten = path.read_bytes().replace(ISSUER.encode(), OTHER.encode())
        assert len(rewritten) == pinned.st_size
        with open(path, "r+b") as file:  # in place: same inode
            file.write(rewritten)

        loaded = TrustedIssuerList.load(path)

        if age == "inside the racy window":
            assert pinned.st_mtime_ns >= time.time_ns() - RACY_SLACK_NS
            assert loaded.members == {OTHER}
        else:
            assert loaded.members == {ISSUER}

    def test_an_in_place_rewrite_is_seen(self, tmp_path):
        path = _til(tmp_path, ISSUER)
        _backdate(path)
        assert TrustedIssuerList.load(path).members == {ISSUER}
        inode = os.stat(path).st_ino
        with open(path, "r+b") as file:
            file.write(path.read_bytes().replace(ISSUER.encode(), OTHER.encode()))
        _backdate(path)
        assert os.stat(path).st_ino == inode
        assert TrustedIssuerList.load(path).members == {OTHER}

    def test_an_atomic_replace_is_seen(self, tmp_path):
        path = _rr(tmp_path, "jti-1")
        _backdate(path)
        assert RevocationRegistry.load(path).status("jti-2") is CredentialStatus.ACTIVE
        before = os.stat(path)
        RevocationRegistry.load(path).revoke("jti-2").save(path)  # write and rename
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_ino != before.st_ino
        assert RevocationRegistry.load(path).status("jti-2") is CredentialStatus.REVOKED

    @pytest.mark.parametrize("damage", ["deleted", "torn"])
    @pytest.mark.parametrize("cls", [TrustedIssuerList, RevocationRegistry], ids=lambda c: c.__name__)
    def test_a_cached_trust_file_then_damaged_fails_closed(self, tmp_path, opens, cls, damage):
        path = _til(tmp_path, ISSUER) if cls is TrustedIssuerList else _rr(tmp_path, "jti-1")
        _backdate(path)
        good = cls.load(path)
        if damage == "deleted":
            path.unlink()
        else:
            path.write_bytes(path.read_bytes()[:5])
            _backdate(path)
        for _ in range(2):  # no failure is kept: each read fails on its own
            with pytest.raises(TrustFileError):
                cls.load(path)
        assert len(opens) == (1 if damage == "deleted" else 3)
        good.save(path)
        assert cls.load(path) == good

    def test_a_rewritten_did_web_document_yields_its_new_key(self, tmp_path):
        resolver = Resolver(DirectoryWebSource(tmp_path))
        old_key, new_key = generate_signing_keypair(), generate_signing_keypair()
        _backdate(write_didweb_document(tmp_path, old_key, ISSUER))
        assert resolver.resolve(ISSUER).verification_key == old_key.public
        _backdate(write_didweb_document(tmp_path, new_key, ISSUER))
        assert resolver.resolve(ISSUER).verification_key == new_key.public


class TestReplaceFile:
    def test_a_writer_between_another_writers_write_and_rename(self, tmp_path, monkeypatch):
        # The second writer runs whole while the first is about to rename;
        # each must rename its own file, so neither write is lost or torn.
        path = tmp_path / "til.json"
        rename = os.replace

        def second_writer_first(source, target):
            monkeypatch.setattr(os, "replace", rename)
            replace_file(path, b'["second"]')
            rename(source, target)

        monkeypatch.setattr(os, "replace", second_writer_first)
        replace_file(path, b'["first"]')
        assert path.read_bytes() == b'["first"]'
        assert os.listdir(tmp_path) == ["til.json"]

    def test_a_failed_rename_leaves_no_temporary_file(self, tmp_path):
        (tmp_path / "rr.json").mkdir()
        with pytest.raises(IsADirectoryError):
            replace_file(tmp_path / "rr.json", b"{}")
        assert os.listdir(tmp_path) == ["rr.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_the_file_gets_the_mode_open_gives(self, tmp_path, umask):
        # Not mkstemp's 0600: a broker running as another user reads these files.
        old = os.umask(umask)
        try:
            replace_file(tmp_path / "til.json", b"[]")
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "til.json").st_mode & 0o777 == 0o666 & ~umask


def test_trust_files_and_documents_are_read_only_through_the_snapshot():
    readers = {
        (path, function)
        for path, function, node in source_nodes()
        if path in ("credential.py", "did.py", "snapshot.py")
        and isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "open")
            or (isinstance(node.func, ast.Attribute) and node.func.attr in ("open", "read_bytes", "read_text"))
        )
    }
    # load_credential_files is the holder's own credential, not trust material.
    assert readers == {("snapshot.py", "read"), ("credential.py", "load_credential_files")}, readers

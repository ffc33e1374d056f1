"""Trust files and did:web documents are parsed again only when they change.

Files written by a test are inside the racy window (see daxiot.snapshot), so
each test backdates a file's mtime with ``os.utime`` where it needs the
snapshot to keep the parsed value.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import daxiot.snapshot
from daxiot.credential import (
    RevocationRegistry,
    TrustedIssuerList,
    load_credential_files,
    save_credential_files,
)
from daxiot.crypto import generate_signing_keypair, load_signing_key, save_signing_key
from daxiot.did import DirectoryWebSource, Resolver, write_didweb_document
from daxiot.errors import TrustFileError
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
        assert "jti-2" not in second
        assert "jti-2" not in RevocationRegistry.load(path)
        assert "jti-1" in RevocationRegistry.load(path)

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
        assert "jti-2" not in RevocationRegistry.load(path)
        before = os.stat(path)
        RevocationRegistry.load(path).revoke("jti-2").save(path)  # write and rename
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_ino != before.st_ino
        assert "jti-2" in RevocationRegistry.load(path)

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

    @pytest.mark.parametrize("umask", [0o022, 0o000])
    def test_a_private_file_is_never_readable_by_others(self, tmp_path, monkeypatch, umask):
        # The temporary file is created with the mode, so no other user can
        # open it in the moment before the rename either.
        rename = os.replace
        modes = []

        def noting_the_mode(source, target):
            modes.append(os.stat(source).st_mode & 0o777)
            rename(source, target)

        monkeypatch.setattr(os, "replace", noting_the_mode)
        old = os.umask(umask)
        try:
            replace_file(tmp_path / "device.key", b"00\n", 0o600)
        finally:
            os.umask(old)
        assert modes == [0o600]
        assert os.stat(tmp_path / "device.key").st_mode & 0o777 == 0o600

    def test_a_symlink_is_replaced_and_its_target_left_alone(self, tmp_path):
        target = tmp_path / "elsewhere.key"
        target.write_bytes(b"old\n")
        (tmp_path / "device.key").symlink_to(target)
        replace_file(tmp_path / "device.key", b"new\n", 0o600)
        assert not (tmp_path / "device.key").is_symlink()
        assert (tmp_path / "device.key").read_bytes() == b"new\n"
        assert target.read_bytes() == b"old\n"


def _write_with_little_space(setup: str, write: str) -> str:
    """Run ``setup``, then ``write`` in a child process whose writes may not
    take a file past 16 bytes, as on a full disk. SIGXFSZ is ignored,
    so a write past the limit fails with EFBIG instead of ending the child.
    The limit acts on the child alone. Returns the error the write raised."""
    probe = "\n".join([
        "import errno, resource, signal",
        setup,
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)",
        "resource.setrlimit(resource.RLIMIT_FSIZE, (16, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))",
        "try:",
        f"    {write}",
        "except OSError as exc:",
        "    print(errno.errorcode[exc.errno])",
    ])
    src = Path(daxiot.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60, check=True)
    return result.stdout.strip()


class TestFailedWrites:
    """A write that runs out of space leaves the old file whole and no temporary file."""

    def test_a_key_written_over_an_old_one(self, tmp_path):
        path = tmp_path / "device.key"
        old_key = generate_signing_keypair()
        save_signing_key(path, old_key)
        old = path.read_bytes()
        assert len(old) > 16

        error = _write_with_little_space(
            "from daxiot.crypto import generate_signing_keypair, save_signing_key\n"
            "key = generate_signing_keypair()",
            f"save_signing_key({str(path)!r}, key)",
        )

        assert error == "EFBIG"
        assert path.read_bytes() == old
        assert load_signing_key(path).public == old_key.public
        assert os.listdir(tmp_path) == ["device.key"]

    def test_a_credential_written_over_an_old_one(self, tmp_path, env):
        old_dir, new_dir = tmp_path / "credential", tmp_path / "reissued"
        save_credential_files(old_dir, env.publisher.credential, env.publisher.disclosures)
        save_credential_files(new_dir, env.subscriber.credential, env.subscriber.disclosures)
        old = {path.name: path.read_bytes() for path in old_dir.iterdir()}

        error = _write_with_little_space(
            "from daxiot.credential import load_credential_files, save_credential_files\n"
            f"credential, disclosures = load_credential_files({str(new_dir)!r})",
            f"save_credential_files({str(old_dir)!r}, credential, disclosures)",
        )

        assert error == "EFBIG"
        assert {path.name: path.read_bytes() for path in old_dir.iterdir()} == old
        credential, disclosures = load_credential_files(old_dir)
        assert credential.compact() == env.publisher.credential.compact()
        assert len(disclosures) == len(env.publisher.disclosures)


def _os_open_flags(call: ast.Call) -> set[str] | None:
    """The ``os.O_*`` names an ``os.open`` call passes, or None for any other call."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "open" and ast.unparse(func.value) == "os"):
        return None
    flags = call.args[1:2] + [keyword.value for keyword in call.keywords if keyword.arg == "flags"]
    return {sub.attr for node in flags for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether a call creates or writes a file: ``write_text``, ``write_bytes``,
    ``os.open`` with a writing flag, or an ``open``, ``Path.open`` or
    ``os.fdopen`` whose mode writes."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    if name in ("write_text", "write_bytes"):
        return True
    flags = _os_open_flags(call)
    if flags is not None:
        return bool(flags & {"O_WRONLY", "O_RDWR", "O_CREAT"})
    if name not in ("open", "fdopen"):
        return False
    # A mode is open's and fdopen's second argument but Path.open's first.
    modes = call.args[:2] + [keyword.value for keyword in call.keywords if keyword.arg == "mode"]
    return any(
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and set(mode.value) <= set("rwxabt+")
        and bool(set(mode.value) & set("wax+"))
        for mode in modes
    )


def test_trust_files_and_documents_are_read_only_through_the_snapshot():
    # An os.open that opens write-only cannot read; it is the write guard's.
    readers = {
        (path, function)
        for path, function, node in source_nodes()
        if path in ("credential.py", "did.py", "snapshot.py")
        and isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "open")
            or (isinstance(node.func, ast.Attribute) and node.func.attr in ("open", "read_bytes", "read_text"))
        )
        and "O_WRONLY" not in (_os_open_flags(node) or ())
    }
    # load_credential_files is the holder's own credential, not trust material.
    assert readers == {("snapshot.py", "read"), ("credential.py", "load_credential_files")}, readers


def test_every_file_is_written_through_replace_file():
    # Written whole, then renamed: a failed or racing write never leaves a torn file.
    writers = {
        (path, function)
        for path, function, node in source_nodes()
        if isinstance(node, ast.Call) and _opens_for_writing(node)
    }
    assert writers == {("snapshot.py", "replace_file")}, writers


def test_each_file_format_is_written_beside_its_reader():
    # The module that reads a format back is the one that writes it, so what
    # is written and what is accepted cannot drift apart: the key file, the
    # two trust files, the credential file, did:web documents, the broker config.
    writers = Counter(
        (path, function)
        for path, function, node in source_nodes()
        if isinstance(node, ast.Call)
        and "replace_file" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )
    assert writers == {
        ("crypto.py", "save_signing_key"): 1,
        ("credential.py", "save"): 2,  # TrustedIssuerList.save and RevocationRegistry.save
        ("credential.py", "save_credential_files"): 1,
        ("did.py", "write_didweb_document"): 1,
        ("broker_service.py", "save"): 1,  # BrokerConfig.save
    }, writers

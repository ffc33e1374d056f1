"""Operator command line: key and document management, credential issuance
and revocation, issuer-list editing, the broker, demo clients, and the
benchmark. Every command is non-interactive; key material travels only
through file paths.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import signal
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

import click

from .credential import (
    AuthorizationClaim,
    RevocationRegistry,
    TrustedIssuerList,
    issue as issue_credential,
    load_credential_files,
    save_credential_files,
)
from .crypto import generate_signing_keypair, load_signing_key, save_signing_key
from .did import Did, DirectoryWebSource, Resolver, didkey_decode, didkey_encode, write_didweb_document
from .errors import BindError, ConfigError, DaxiotError, decode_address, decode_json
from .protocol import DaxiotClient
from .wire import ReasonCode

if TYPE_CHECKING:
    from .transport import TcpClientConnection

EXIT_CONFIG = 2
EXIT_BIND = 3


@click.group()
def main() -> None:
    """Decentralized authentication and authorization for pub/sub IoT."""


def _fail(message: str, code: int = 1) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Text(click.types.StringParamType):
    """An option's text, refused as a usage error (exit 2) unless UTF-8 can
    encode it: argv bytes that are not UTF-8 arrive as lone surrogates, which
    no file, frame or document can carry."""

    def convert(self, value, param, ctx) -> str:
        value = super().convert(value, param, ctx)
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            self.fail(f"{value!r} is not UTF-8 text", param, ctx)
        return value


_TEXT = _Text()


# ---------------------------------------------------------------------------
# Keys and documents
# ---------------------------------------------------------------------------

@main.command()
@click.option("--out", required=True, type=click.Path(dir_okay=False, path_type=Path))
def keygen(out: Path) -> None:
    """Generate an identity key and write its hex seed to --out."""
    keypair = generate_signing_keypair()
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        save_signing_key(out, keypair)
    except OSError as exc:
        _fail(f"cannot write {out}: {exc}")
    click.echo(str(didkey_encode(keypair.public)))


@main.command("did-show")
@click.option("--key", "key_path", required=True, type=click.Path(path_type=Path))
def did_show(key_path: Path) -> None:
    """Print the did:key identifier of a stored key."""
    try:
        keypair = load_signing_key(key_path)
    except DaxiotError as exc:
        _fail(str(exc))
    click.echo(str(didkey_encode(keypair.public)))


@main.command("didweb-emit")
@click.option("--key", "key_path", required=True, type=click.Path(path_type=Path))
@click.option("--did", "did_text", required=True, type=_TEXT)
@click.option("--endpoint", default=None, type=_TEXT, help="Service endpoint URI, e.g. tcp://host:port.")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False, path_type=Path))
def didweb_emit(key_path: Path, did_text: str, endpoint: str | None, out_dir: Path) -> None:
    """Write the DID document for a did:web identity into --out-dir."""
    try:
        did = Did.parse(did_text)
        if did.method != "web":
            raise DaxiotError(f"{did} is not a did:web")
        if endpoint is not None:
            _tcp_address(str(did), endpoint)  # clients dial only tcp://host:port
        keypair = load_signing_key(key_path)
        path = write_didweb_document(out_dir, keypair, did, endpoint)
    except (OSError, DaxiotError) as exc:
        _fail(str(exc))
    click.echo(str(path))


def _tcp_address(did: str, uri: str) -> tuple[str, int]:
    """The host and port of ``did``'s service endpoint ``uri``: ``tcp://``, then an
    address written as a listen address is, but with a port a client can dial, not 0."""
    scheme, _, address = uri.partition("://")
    with contextlib.suppress(DaxiotError):
        host, port = decode_address(address, DaxiotError, "service endpoint")
        if scheme == "tcp" and port:
            return host, port
    raise DaxiotError(f"{did} service endpoint {uri!r} is not tcp://host:port")


# ---------------------------------------------------------------------------
# Credentials and registries
# ---------------------------------------------------------------------------

@main.command()
@click.option("--key", "key_path", required=True, type=click.Path(path_type=Path))
@click.option("--issuer-did", required=True, type=_TEXT)
@click.option("--subject-did", required=True, type=_TEXT)
@click.option("--claims", "claims_path", required=True, type=click.Path(path_type=Path))
@click.option("--jti", required=True, type=_TEXT, help="Credential id; uniqueness is the issuer's duty.")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False, path_type=Path))
def issue(key_path: Path, issuer_did: str, subject_did: str, claims_path: Path, jti: str, out_dir: Path) -> None:
    """Issue a credential from a claims file into OUT_DIR/credential.sdjwt; prints that path.

    The claims file maps broker DIDs to topic rights:
    {"did:web:broker1.com": {"sub": ["t1"], "pub": ["t2"]}, ...}
    """
    try:
        raw = decode_json(claims_path.read_bytes(), DaxiotError, f"claims file {claims_path}")
        if not isinstance(raw, dict) or not raw:
            raise DaxiotError("claims file must be a non-empty JSON object keyed by broker DID")
        # Brokers find their claim by DID, and step C takes only a did:key subject.
        claims = [AuthorizationClaim.from_value(str(Did.parse(broker)), value) for broker, value in raw.items()]
        didkey_decode(subject_did)
        keypair = load_signing_key(key_path)
        credential, disclosures = issue_credential(keypair, issuer_did, subject_did, claims, jti)
        written = save_credential_files(out_dir, credential, disclosures)
    except (OSError, DaxiotError) as exc:
        _fail(str(exc))
    click.echo(str(written))


def _edit_trust_file(path: Path, kind: type, edit: Callable, done: str) -> None:
    """Load ``path`` (or start empty), apply ``edit`` and save it, holding a lock on
    the file's directory throughout so that no concurrent edit is lost."""
    try:
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            fcntl.flock(directory, fcntl.LOCK_EX)
            edit(kind.load(path) if path.exists() else kind()).save(path)
        finally:
            os.close(directory)
    except (OSError, DaxiotError, ValueError) as exc:
        _fail(str(exc))
    click.echo(done)


@main.command()
@click.option("--rr", "rr_path", required=True, type=click.Path(path_type=Path))
@click.option("--jti", required=True, type=_TEXT)
def revoke(rr_path: Path, jti: str) -> None:
    """Mark a credential id REVOKED in the registry file (idempotent)."""
    _edit_trust_file(rr_path, RevocationRegistry, lambda registry: registry.revoke(jti), f"{jti}: REVOKED")


@main.command("til-add")
@click.option("--til", "til_path", required=True, type=click.Path(path_type=Path))
@click.option("--did", "did_text", required=True, type=_TEXT)
def til_add(til_path: Path, did_text: str) -> None:
    """Add an issuer DID to the trusted issuer list (idempotent)."""
    _edit_trust_file(til_path, TrustedIssuerList, lambda til: til.with_member(Did.parse(did_text)), f"added {did_text}")


@main.command("til-remove")
@click.option("--til", "til_path", required=True, type=click.Path(path_type=Path))
@click.option("--did", "did_text", required=True, type=_TEXT)
def til_remove(til_path: Path, did_text: str) -> None:
    """Remove an issuer DID from the trusted issuer list (idempotent)."""
    _edit_trust_file(til_path, TrustedIssuerList, lambda til: til.without_member(Did.parse(did_text)), f"removed {did_text}")


# ---------------------------------------------------------------------------
# Broker and clients
# ---------------------------------------------------------------------------

@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
def broker(config_path: Path) -> None:
    """Run the broker service until interrupted; at log level debug or info,
    events go to stderr, unless it is closed."""
    from .broker_service import BrokerConfig, json_lines

    try:
        config = BrokerConfig.from_file(config_path)
        to_stderr = config.log_level in ("debug", "info") and sys.stderr is not None
        service = config.service(json_lines(sys.stderr) if to_stderr else None)
    except ConfigError as exc:
        _fail(str(exc), code=EXIT_CONFIG)
    # SIGINT is blocked before the loop thread starts, so the thread inherits the
    # mask and the signal stays pending for sigwait, also when inherited ignored.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        service.start()
        signal.sigwait({signal.SIGINT})
    except BindError as exc:
        _fail(str(exc), code=EXIT_BIND)
    finally:
        # A second Ctrl-C during shutdown raises KeyboardInterrupt again.
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    service.stop()
    click.echo("broker stopped")


@contextlib.contextmanager
def _connect_client(
    key_path: Path, credential_dir: Path, broker_did: str, did_web_dir: Path
) -> Iterator[tuple[DaxiotClient, TcpClientConnection]]:
    """An established session, disconnected on normal exit and closed on every exit."""
    from .transport import TcpClientConnection, run_handshake

    keypair = load_signing_key(key_path)
    credential, disclosures = load_credential_files(credential_dir)
    resolver = Resolver(DirectoryWebSource(did_web_dir))
    document = resolver.resolve(broker_did)
    if document.service_endpoint is None:
        raise DaxiotError(f"{broker_did} document carries no service endpoint")
    address = _tcp_address(broker_did, document.service_endpoint)
    client = DaxiotClient(keypair, credential, disclosures, resolver)
    with TcpClientConnection(*address) as connection:
        run_handshake(client, connection, broker_did)
        yield client, connection
        connection.send(client.disconnect())


@main.command()
@click.option("--key", "key_path", required=True, type=click.Path(path_type=Path))
@click.option("--credential-dir", required=True, type=click.Path(path_type=Path))
@click.option("--broker-did", required=True, type=_TEXT)
@click.option("--did-web-dir", required=True, type=click.Path(path_type=Path))
@click.option("--topic", required=True, type=_TEXT)
@click.option("--message", required=True, type=_TEXT)
def publish(key_path: Path, credential_dir: Path, broker_did: str, did_web_dir: Path, topic: str, message: str) -> None:
    """Connect, publish one message, and disconnect."""
    try:
        with _connect_client(key_path, credential_dir, broker_did, did_web_dir) as (client, connection):
            connection.send(client.publish(topic, message.encode("utf-8")))
            reason = client.handle_puback(connection.recv())
    except (DaxiotError, OSError) as exc:
        _fail(f"{type(exc).__name__}: {exc}")
    if reason is not ReasonCode.SUCCESS:
        _fail(f"publish rejected: {reason.name}")
    click.echo(f"published to {topic}")


@main.command()
@click.option("--key", "key_path", required=True, type=click.Path(path_type=Path))
@click.option("--credential-dir", required=True, type=click.Path(path_type=Path))
@click.option("--broker-did", required=True, type=_TEXT)
@click.option("--did-web-dir", required=True, type=click.Path(path_type=Path))
@click.option("--topic", required=True, type=_TEXT)
@click.option("--count", default=1, show_default=True, type=click.IntRange(min=1), help="Messages to receive before exiting.")
def subscribe(key_path: Path, credential_dir: Path, broker_did: str, did_web_dir: Path, topic: str, count: int) -> None:
    """Connect, subscribe, and print received messages."""
    try:
        with _connect_client(key_path, credential_dir, broker_did, did_web_dir) as (client, connection):
            connection.send(client.subscribe(topic))
            if client.handle_suback(connection.recv()) is not ReasonCode.SUCCESS:
                _fail("subscription rejected")
            connection.settimeout(None)  # a reading may come at any interval
            for _ in range(count):
                received_topic, payload = client.handle_publish(connection.recv())
                click.echo(f"{received_topic}: {payload.decode('utf-8', errors='replace')}")
    except (DaxiotError, OSError) as exc:
        _fail(f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# Demo and benchmark
# ---------------------------------------------------------------------------

@main.command()
@click.option("--revoke-first", is_flag=True, help="Revoke the publisher credential before connecting.")
@click.option("--untrusted-issuer", is_flag=True, help="Leave the publisher owner off the issuer list.")
def demo(revoke_first: bool, untrusted_issuer: bool) -> None:
    """Run the full scenario end to end in a temporary directory."""
    from .demo import run_demo

    sys.exit(run_demo(revoke_first=revoke_first, untrusted_issuer=untrusted_issuer, echo=click.echo))


@main.command("bench")
@click.option("--mode", type=click.Choice(["plaintext", "daxiot", "both"]), default="both", show_default=True)
@click.option("--iterations-connect", default=1000, show_default=True, type=click.IntRange(min=1))
@click.option("--iterations-publish", default=10000, show_default=True, type=click.IntRange(min=1))
@click.option("--json", "as_json", is_flag=True, help="Emit the machine-readable report.")
def bench(mode: str, iterations_connect: int, iterations_publish: int, as_json: bool) -> None:
    """Measure connect and publish round-trip latency per scenario."""
    from . import bench as bench_mod

    modes = list(bench_mod.MODES) if mode == "both" else [mode]
    try:
        reports = [bench_mod.run_bench(m, iterations_connect, iterations_publish) for m in modes]
    except DaxiotError as exc:
        _fail(str(exc))
    if as_json:
        click.echo(json.dumps(reports, indent=2))
    else:
        click.echo(bench_mod.render_table(reports))


if __name__ == "__main__":
    main()

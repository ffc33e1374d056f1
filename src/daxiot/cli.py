"""Operator command line: key and document management, credential issuance
and revocation, issuer-list editing, the broker, demo clients, and the
benchmark. Every command is non-interactive; key material travels only
through file paths.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import sys
import urllib.parse
from pathlib import Path
from typing import Iterator

import click

from . import bench as bench_mod
from .broker_service import EXIT_BIND, EXIT_CONFIG, BrokerConfig, BrokerService, load_signing_key
from .credential import (
    AuthorizationClaim,
    RevocationRegistry,
    TrustedIssuerList,
    issue as issue_credential,
    load_credential_files,
    save_credential_files,
)
from .crypto import generate_signing_keypair
from .demo import run_demo
from .did import Did, DirectoryWebSource, Resolver, didkey_encode
from .errors import BindError, ConfigError, DaxiotError, decode_json
from .protocol import DaxiotClient
from .scenario import write_didweb_document
from .transport import TcpClientConnection, run_handshake
from .wire import ReasonCode


@click.group()
def main() -> None:
    """Decentralized authentication and authorization for pub/sub IoT."""


def _fail(message: str, code: int = 1) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


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
        out.write_text(keypair.secret.hex() + "\n")
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
@click.option("--did", "did_text", required=True)
@click.option("--endpoint", default=None, help="Service endpoint URI, e.g. tcp://host:port.")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False, path_type=Path))
def didweb_emit(key_path: Path, did_text: str, endpoint: str | None, out_dir: Path) -> None:
    """Write the DID document for a did:web identity into --out-dir."""
    try:
        did = Did.parse(did_text)
        if did.method != "web":
            raise DaxiotError(f"{did} is not a did:web")
        keypair = load_signing_key(key_path)
        path = write_didweb_document(out_dir, keypair, str(did), endpoint)
    except DaxiotError as exc:
        _fail(str(exc))
    click.echo(str(path))


# ---------------------------------------------------------------------------
# Credentials and registries
# ---------------------------------------------------------------------------

@main.command()
@click.option("--key", "key_path", required=True, type=click.Path(path_type=Path))
@click.option("--issuer-did", required=True)
@click.option("--subject-did", required=True)
@click.option("--claims", "claims_path", required=True, type=click.Path(path_type=Path))
@click.option("--jti", required=True, help="Credential id; uniqueness is the issuer's duty.")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False, path_type=Path))
def issue(key_path: Path, issuer_did: str, subject_did: str, claims_path: Path, jti: str, out_dir: Path) -> None:
    """Issue a credential from a claims file.

    The claims file maps broker DIDs to topic rights:
    {"did:web:broker1.com": {"sub": ["t1"], "pub": ["t2"]}, ...}
    """
    try:
        raw = decode_json(claims_path.read_bytes(), DaxiotError, f"claims file {claims_path}")
        if not isinstance(raw, dict) or not raw:
            raise DaxiotError("claims file must be a non-empty JSON object keyed by broker DID")
        claims = [AuthorizationClaim.from_value(broker, value) for broker, value in raw.items()]
        keypair = load_signing_key(key_path)
        credential, disclosures = issue_credential(keypair, issuer_did, subject_did, claims, jti)
        written = save_credential_files(out_dir, credential, disclosures)
    except (OSError, DaxiotError) as exc:
        _fail(str(exc))
    for path in written:
        click.echo(str(path))


@main.command()
@click.option("--rr", "rr_path", required=True, type=click.Path(path_type=Path))
@click.option("--jti", required=True)
def revoke(rr_path: Path, jti: str) -> None:
    """Mark a credential id REVOKED in the registry file (idempotent)."""
    try:
        registry = RevocationRegistry.load(rr_path) if rr_path.exists() else RevocationRegistry()
        registry.revoke(jti).save(rr_path)
    except (OSError, DaxiotError, ValueError) as exc:
        _fail(str(exc))
    click.echo(f"{jti}: REVOKED")


@main.command("til-add")
@click.option("--til", "til_path", required=True, type=click.Path(path_type=Path))
@click.option("--did", "did_text", required=True)
def til_add(til_path: Path, did_text: str) -> None:
    """Add an issuer DID to the trusted issuer list (idempotent)."""
    try:
        current = TrustedIssuerList.load(til_path) if til_path.exists() else TrustedIssuerList()
        current.with_member(Did.parse(did_text)).save(til_path)
    except (OSError, DaxiotError, ValueError) as exc:
        _fail(str(exc))
    click.echo(f"added {did_text}")


@main.command("til-remove")
@click.option("--til", "til_path", required=True, type=click.Path(path_type=Path))
@click.option("--did", "did_text", required=True)
def til_remove(til_path: Path, did_text: str) -> None:
    """Remove an issuer DID from the trusted issuer list (idempotent)."""
    try:
        current = TrustedIssuerList.load(til_path) if til_path.exists() else TrustedIssuerList()
        current.without_member(Did.parse(did_text)).save(til_path)
    except (OSError, DaxiotError, ValueError) as exc:
        _fail(str(exc))
    click.echo(f"removed {did_text}")


# ---------------------------------------------------------------------------
# Broker and clients
# ---------------------------------------------------------------------------

@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(path_type=Path))
def broker(config_path: Path) -> None:
    """Run the broker service until interrupted; at log level debug or info, events go to stderr."""
    try:
        config = BrokerConfig.from_file(config_path)
        event_log = sys.stderr if config.log_level in ("debug", "info") else None
        service = BrokerService(config.listen_address, config.engine, event_log)
    except ConfigError as exc:
        _fail(str(exc), code=EXIT_CONFIG)

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        interrupted = asyncio.Event()
        loop.add_signal_handler(signal.SIGINT, interrupted.set)
        try:
            await service.start()
        except BindError as exc:
            _fail(str(exc), code=EXIT_BIND)
        await interrupted.wait()
        # A second Ctrl-C during shutdown raises KeyboardInterrupt again.
        loop.remove_signal_handler(signal.SIGINT)
        await service.shutdown()

    asyncio.run(_serve())
    click.echo("broker stopped")


@contextlib.contextmanager
def _connect_client(
    key_path: Path, credential_dir: Path, broker_did: str, did_web_dir: Path
) -> Iterator[tuple[DaxiotClient, TcpClientConnection]]:
    """An established session, disconnected on normal exit and closed on every exit."""
    keypair = load_signing_key(key_path)
    credential, disclosures = load_credential_files(credential_dir)
    resolver = Resolver(DirectoryWebSource(did_web_dir))
    document = resolver.resolve(broker_did)
    if document.service_endpoint is None:
        raise DaxiotError(f"{broker_did} document carries no service endpoint")
    endpoint = urllib.parse.urlparse(document.service_endpoint)
    client = DaxiotClient(keypair, credential, disclosures, resolver)
    with TcpClientConnection(endpoint.hostname, endpoint.port) as connection:
        run_handshake(client, connection, broker_did)
        yield client, connection
        connection.send(client.disconnect())


@main.command()
@click.option("--key", "key_path", required=True, type=click.Path(path_type=Path))
@click.option("--credential-dir", required=True, type=click.Path(path_type=Path))
@click.option("--broker-did", required=True)
@click.option("--did-web-dir", required=True, type=click.Path(path_type=Path))
@click.option("--topic", required=True)
@click.option("--message", required=True)
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
@click.option("--broker-did", required=True)
@click.option("--did-web-dir", required=True, type=click.Path(path_type=Path))
@click.option("--topic", required=True)
@click.option("--count", default=1, show_default=True, help="Messages to receive before exiting.")
def subscribe(key_path: Path, credential_dir: Path, broker_did: str, did_web_dir: Path, topic: str, count: int) -> None:
    """Connect, subscribe, and print received messages."""
    try:
        with _connect_client(key_path, credential_dir, broker_did, did_web_dir) as (client, connection):
            connection.send(client.subscribe(topic))
            if client.handle_suback(connection.recv()) is not ReasonCode.SUCCESS:
                _fail("subscription rejected")
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
    sys.exit(run_demo(revoke_first=revoke_first, untrusted_issuer=untrusted_issuer, echo=click.echo))


@main.command("bench")
@click.option("--mode", type=click.Choice(["plaintext", "daxiot", "both"]), default="both", show_default=True)
@click.option("--iterations-connect", default=bench_mod.DEFAULT_CONNECTS, show_default=True)
@click.option("--iterations-publish", default=bench_mod.DEFAULT_PUBLISHES, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit the machine-readable report.")
def bench(mode: str, iterations_connect: int, iterations_publish: int, as_json: bool) -> None:
    """Measure connect and publish round-trip latency per scenario."""
    modes = list(bench_mod.MODES) if mode == "both" else [mode]
    try:
        reports = [
            bench_mod.run_bench(m, iterations_connect, iterations_publish) for m in modes
        ]
    except DaxiotError as exc:
        _fail(str(exc))
    if as_json:
        click.echo(json.dumps(reports, indent=2))
    else:
        click.echo(bench_mod.render_table(reports))


if __name__ == "__main__":
    main()

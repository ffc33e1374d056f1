"""Self-contained environment builders for the demo, the benchmark, and tests.

Builds a complete deployment under one directory: broker and owner keys,
did:web documents, a trusted issuer list, a revocation registry, and issued
credentials for one publisher and one subscriber. The publisher additionally
holds a claim for a second broker that is never contacted, which is exactly
the shape needed to exercise selective disclosure.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from pathlib import Path

from .broker_service import BrokerConfig, EventSink
from .credential import (
    AuthorizationClaim,
    Disclosure,
    RevocationRegistry,
    SdJwtCredential,
    TrustedIssuerList,
    issue,
)
from .crypto import SigningKeyPair, generate_signing_keypair, save_signing_key
from .did import DirectoryWebSource, Resolver, didkey_encode, write_didweb_document
from .protocol import DaxiotBroker, DaxiotClient


HOST = "127.0.0.1"


@dataclass
class ClientMaterial:
    """Everything one device needs: identity, credential, disclosures."""

    keypair: SigningKeyPair
    static_did: str
    credential: SdJwtCredential
    disclosures: list[Disclosure]
    jti: str


@dataclass
class ScenarioEnv:
    root: Path
    broker_did: str
    config: BrokerConfig
    po_did: str
    po_keypair: SigningKeyPair
    so_did: str
    publisher: ClientMaterial
    subscriber: ClientMaterial
    topic: str
    payload: bytes
    other_broker_did: str
    other_topic: str
    host: str
    port: int

    @property
    def til_path(self) -> Path:
        return Path(self.config.til_path)

    @property
    def rr_path(self) -> Path:
        return Path(self.config.rr_path)

    def resolver(self) -> Resolver:
        return Resolver(DirectoryWebSource(self.config.did_web_dir))

    def publisher_client(self) -> DaxiotClient:
        m = self.publisher
        return DaxiotClient(m.keypair, m.credential, m.disclosures, self.resolver())

    def subscriber_client(self) -> DaxiotClient:
        m = self.subscriber
        return DaxiotClient(m.keypair, m.credential, m.disclosures, self.resolver())

    def engine(self, event_sink: EventSink | None = None) -> DaxiotBroker:
        """Broker engine over the same files, for socket-free runs."""
        return self.config.engine(event_sink)


def build_scenario(
    root: Path | str,
    topic: str = "factory/line-4/temperature",
    trust_publisher_owner: bool = True,
) -> ScenarioEnv:
    """Create keys, documents, registries, and credentials under root."""
    root = Path(root)
    docs_dir = root / "docs"
    keys_dir = root / "keys"
    keys_dir.mkdir(parents=True, exist_ok=True)
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        port = sock.getsockname()[1]

    broker_did = "did:web:broker.example"
    other_broker_did = "did:web:other-broker.example"
    other_topic = "vendor-lab/offsite-calibration-feed"
    po_did = "did:web:publisher-owner.example"
    so_did = "did:web:subscriber-owner.example"

    broker_kp = generate_signing_keypair()
    po_kp = generate_signing_keypair()
    so_kp = generate_signing_keypair()
    publisher_kp = generate_signing_keypair()
    subscriber_kp = generate_signing_keypair()

    save_signing_key(keys_dir / "broker.key", broker_kp)
    save_signing_key(keys_dir / "publisher-owner.key", po_kp)
    save_signing_key(keys_dir / "subscriber-owner.key", so_kp)
    save_signing_key(keys_dir / "publisher.key", publisher_kp)
    save_signing_key(keys_dir / "subscriber.key", subscriber_kp)

    write_didweb_document(docs_dir, broker_kp, broker_did, f"tcp://{HOST}:{port}")
    write_didweb_document(docs_dir, po_kp, po_did)
    write_didweb_document(docs_dir, so_kp, so_did)

    members = {so_did} | ({po_did} if trust_publisher_owner else set())
    til_path = root / "trusted-issuers.json"
    TrustedIssuerList(frozenset(members)).save(til_path)
    rr_path = root / "revocations.json"
    RevocationRegistry().save(rr_path)

    publisher_did = str(didkey_encode(publisher_kp.public))
    subscriber_did = str(didkey_encode(subscriber_kp.public))

    publisher_claims = [
        AuthorizationClaim(broker_did=broker_did, publish_topics=frozenset({topic})),
        AuthorizationClaim(broker_did=other_broker_did, subscribe_topics=frozenset({other_topic})),
    ]
    publisher_jti = "AC-publisher-0001"
    publisher_credential, publisher_disclosures = issue(
        po_kp, po_did, publisher_did, publisher_claims, publisher_jti
    )

    subscriber_claims = [
        AuthorizationClaim(broker_did=broker_did, subscribe_topics=frozenset({topic}))
    ]
    subscriber_jti = "AC-subscriber-0001"
    subscriber_credential, subscriber_disclosures = issue(
        so_kp, so_did, subscriber_did, subscriber_claims, subscriber_jti
    )

    config = BrokerConfig(
        listen_address=f"{HOST}:{port}",
        broker_did=broker_did,
        signing_key_path=str(keys_dir / "broker.key"),
        til_path=str(til_path),
        rr_path=str(rr_path),
        did_web_dir=str(docs_dir),
    )
    config.save(root / "broker-config.json")

    return ScenarioEnv(
        root=root,
        broker_did=broker_did,
        config=config,
        po_did=po_did,
        po_keypair=po_kp,
        so_did=so_did,
        publisher=ClientMaterial(
            keypair=publisher_kp,
            static_did=publisher_did,
            credential=publisher_credential,
            disclosures=publisher_disclosures,
            jti=publisher_jti,
        ),
        subscriber=ClientMaterial(
            keypair=subscriber_kp,
            static_did=subscriber_did,
            credential=subscriber_credential,
            disclosures=subscriber_disclosures,
            jti=subscriber_jti,
        ),
        topic=topic,
        payload=b"hello",
        other_broker_did=other_broker_did,
        other_topic=other_topic,
        host=HOST,
        port=port,
    )

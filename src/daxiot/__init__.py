"""Decentralized challenge-response authentication and authorization for
publish/subscribe IoT networks: self-certifying identifiers, selectively
disclosable authorization credentials, signature-free mutual authentication
through a one-pass unified key agreement, and replay-proof encrypted
messaging, plus a runnable broker, clients, and operator tooling.
"""

from .credential import (
    AuthorizationClaim,
    AuthorizationGrant,
    Disclosure,
    Presentation,
    RevocationRegistry,
    SdJwtCredential,
    TrustedIssuerList,
    issue,
    present,
    verify_presentation,
)
from .crypto import (
    AeadEnvelope,
    AgreementKeyPair,
    Nonce,
    SessionKey,
    SigningKeyPair,
    generate_signing_keypair,
    to_agreement_keypair,
)
from .did import Did, DidDocument, DirectoryWebSource, Resolver, didkey_decode, didkey_encode
from .errors import DaxiotError
from .protocol import DaxiotBroker, DaxiotClient
from .wire import Packet, PacketKind, ReasonCode

__version__ = "0.1.0"

__all__ = [
    "AeadEnvelope",
    "AgreementKeyPair",
    "AuthorizationClaim",
    "AuthorizationGrant",
    "DaxiotBroker",
    "DaxiotClient",
    "DaxiotError",
    "Did",
    "DidDocument",
    "DirectoryWebSource",
    "Disclosure",
    "Nonce",
    "Packet",
    "PacketKind",
    "Presentation",
    "ReasonCode",
    "Resolver",
    "RevocationRegistry",
    "SdJwtCredential",
    "SessionKey",
    "SigningKeyPair",
    "TrustedIssuerList",
    "didkey_decode",
    "didkey_encode",
    "generate_signing_keypair",
    "issue",
    "present",
    "to_agreement_keypair",
    "verify_presentation",
]

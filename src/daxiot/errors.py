"""Exception hierarchy shared across the package.

Every error raised by this package derives from :class:`DaxiotError` so
callers can catch protocol-stack failures with a single handler while tests
and logs still distinguish the precise failure class.
"""

from __future__ import annotations


class DaxiotError(Exception):
    """Base class for all errors raised by this package."""


# --- cryptographic primitives -------------------------------------------

class CryptoError(DaxiotError):
    """Invalid key material, bad lengths, or rejected curve points."""


class IntegrityError(CryptoError):
    """AEAD authentication failed: wrong key, wrong nonce, or tampering."""


class NonceOverflowError(CryptoError):
    """Nonce counter reached its maximum; the session must terminate."""


# --- identifiers and resolution ------------------------------------------

class DidError(DaxiotError):
    """Malformed DID, bad multibase/multicodec payload, or bad document."""


class DidResolutionError(DidError):
    """A DID could not be resolved to a document."""


# --- credentials ----------------------------------------------------------

class CredentialError(DaxiotError):
    """Base class for credential issuance/verification failures."""


class MalformedCredential(CredentialError):
    """Credential or presentation bytes do not parse."""


class SubjectMismatch(CredentialError):
    """Credential subject does not match the authenticated peer."""


class UntrustedIssuer(CredentialError):
    """Credential issuer is not on the trusted issuer list."""


class BadSignature(CredentialError):
    """Issuer signature is invalid or the issuer document is unavailable."""


class Revoked(CredentialError):
    """Credential id is marked REVOKED in the revocation registry."""


class UnknownDisclosure(CredentialError):
    """A presented disclosure digest is not listed in the credential."""


class NothingToPresent(CredentialError):
    """No disclosure matches the requested verifier."""


class TrustFileError(CredentialError):
    """The trusted issuer list or revocation registry is missing or malformed."""


# --- wire format -----------------------------------------------------------

class FramingError(DaxiotError):
    """Frame bytes violate the length-prefixed wire layout."""


# --- protocol state machines ----------------------------------------------

class ProtocolError(DaxiotError):
    """Base class for handshake and messaging violations."""


class ProtocolMismatch(ProtocolError):
    """Connect did not request the expected authentication method."""


class ProtocolOrderError(ProtocolError):
    """Packet arrived in a phase where it is not allowed."""


class ReplayError(ProtocolError):
    """Nonce discipline violated: reuse, regression, gap, or splice."""


class AuthenticationError(ProtocolError):
    """Peer failed authenticated decryption and cannot be who it claims."""


class ConnectionRejected(ProtocolError):
    """Broker refused the connection (failure CONNACK or Disconnect)."""

    def __init__(self, message: str, reason_code: int | None = None) -> None:
        super().__init__(message)
        self.reason_code = reason_code


# --- service configuration --------------------------------------------------

class ConfigError(DaxiotError):
    """Broker configuration is invalid or inconsistent with key material."""


class BindError(DaxiotError):
    """The broker could not bind its listen address."""

"""Exception hierarchy shared across the package, and the decoders of outside bytes.

Every error raised by this package derives from :class:`DaxiotError` so
callers can catch protocol-stack failures with a single handler while tests
and logs still distinguish the precise failure class. :func:`decode_text`,
:func:`decode_json` and :func:`decode_address` raise the caller's error class
on every input they refuse, so malformed outside bytes fail closed.
"""

from __future__ import annotations

import json

# Far deeper than any document this package writes, far below the recursion limit.
MAX_JSON_DEPTH = 32


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


# --- decoding outside bytes --------------------------------------------------

def decode_text(raw: bytes, error: type[DaxiotError], what: str) -> str:
    """``raw`` as UTF-8 text, or ``error`` naming ``what``."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8: {exc}") from exc


def decode_json(raw: bytes, error: type[DaxiotError], what: str) -> object:
    """``raw`` as a UTF-8 JSON value at most ``MAX_JSON_DEPTH`` levels deep (itself level 1),
    or ``error``; an integer past the interpreter's digit limit and a lone surrogate are refused too."""
    try:
        text = raw.decode("utf-8")
        value = json.loads(text)
        if "\\u" in text:  # an escaped lone surrogate parses, but cannot be encoded back
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not JSON: {exc}") from exc
    level = [value]
    for _ in range(MAX_JSON_DEPTH):
        level = [
            child for node in level if isinstance(node, (list, dict))
            for child in (node.values() if isinstance(node, dict) else node)
        ]
        if not level:
            return value
    raise error(f"{what} is not JSON: nested deeper than {MAX_JSON_DEPTH} levels")


def decode_address(text: str, error: type[DaxiotError], what: str) -> tuple[str, int]:
    """The host and port of ``host:port`` or ``[IPv6]:port``, port 0-65535 in at most
    five ASCII digits, or ``error`` naming ``what``. Brackets mark an IPv6 host and
    only that, so the port is what follows the last colon. A host that name
    resolution can never take is refused too: one with a NUL byte, or with a label
    the IDNA codec refuses, since ``getaddrinfo`` encodes every host with it, an
    IPv6 zone included. The host is returned as written; whether it resolves is
    for the bind or the dial to find out."""
    host, _, port = text.rpartition(":")
    ipv6 = host.startswith("[") and host.endswith("]")
    if ipv6:
        host = host[1:-1]
    refused = (
        not host or (":" in host) is not ipv6 or "[" in host or "]" in host or "\0" in host
        or not (port.isascii() and port.isdecimal() and len(port) <= 5 and int(port) <= 65535)
    )
    try:
        host.encode("idna")
    except UnicodeError:
        refused = True
    if refused:
        raise error(
            f"{what} must be host:port or [IPv6]:port, port 0-65535, with a host name resolution can take, got {text!r}"
        )
    return host, int(port)

"""Authorization credentials with selective disclosure.

An issuer turns each per-broker authorization claim into a salted disclosure,
keeps only the disclosure digests inside the signed token, and hands both to
the holder. The holder later presents the token plus exactly the disclosures
that concern one verifier, so one broker never learns what the holder is
allowed to do elsewhere.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, TypeVar

from .crypto import SigningKeyPair, sign, verify
from .did import Did, Resolver
from .errors import (
    BadSignature,
    CredentialError,
    DidError,
    MalformedCredential,
    NothingToPresent,
    Revoked,
    SubjectMismatch,
    TrustFileError,
    UnknownDisclosure,
    UntrustedIssuer,
    decode_json,
    decode_text,
)
from .snapshot import FileSnapshot, replace_file

logger = logging.getLogger(__name__)

T = TypeVar("T")

CREDENTIAL_TYPE = "AuthorizationCredential"
SALT_LEN = 16

_PUBLISH_KEY = "pub"
_SUBSCRIBE_KEY = "sub"

# The longest credential segment a verifier decodes, in base64url characters.
# issue() adds one 43-character digest per claim, about 61 characters of
# encoded payload, so this fits some 1000 claims, one per broker a device may
# use: far more than any deployment issues. An unauthenticated peer can send
# a payload up to the 1 MiB frame limit; without the cap, decoding a flat
# JSON list that size cost the broker about 0.1 s before step 1 refused it.
MAX_SEGMENT_LEN = 64 * 1024
# A payload that long commits to at most this many digests: each takes 46
# bytes of its JSON, a quoted 43-character digest and a comma. Presentation.parse
# refuses a compact form with more '~' separators before it splits it, so a
# peer cannot make the broker hold a million empty segments.
MAX_DISCLOSURES = MAX_SEGMENT_LEN * 3 // (4 * 46)


def _b64url(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def _b64url_decode(text: str) -> bytes:
    try:
        return base64.urlsafe_b64decode(text + "=" * (-len(text) % 4))
    except (binascii.Error, ValueError) as exc:
        raise MalformedCredential(f"bad base64url segment: {exc}") from exc


# Digest equality depends on byte-exact serialization: no whitespace,
# member order preserved as built. One encoder serves every call.
_CANONICAL_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


def _canonical_json(value: object) -> bytes:
    return _CANONICAL_ENCODER.encode(value).encode("utf-8")


def _signing_input(header_b64: str, payload_b64: str) -> bytes:
    return f"{header_b64}.{payload_b64}".encode("ascii")


# Every credential carries the same header, so it is encoded once.
_HEADER_B64 = _b64url(_canonical_json({"alg": "EdDSA", "typ": "sd-jwt"}))


# ---------------------------------------------------------------------------
# Claims and disclosures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuthorizationClaim:
    """Per-broker topic rights: what the subject may publish and subscribe."""

    broker_did: str
    publish_topics: frozenset[str] = frozenset()
    subscribe_topics: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "publish_topics", frozenset(self.publish_topics))
        object.__setattr__(self, "subscribe_topics", frozenset(self.subscribe_topics))
        if not self.publish_topics and not self.subscribe_topics:
            raise CredentialError("a claim must grant at least one topic")
        for topic in (*self.publish_topics, *self.subscribe_topics):
            if not topic:
                raise CredentialError("topic strings must be non-empty")

    def value_object(self) -> dict:
        value: dict = {}
        if self.subscribe_topics:
            value[_SUBSCRIBE_KEY] = sorted(self.subscribe_topics)
        if self.publish_topics:
            value[_PUBLISH_KEY] = sorted(self.publish_topics)
        return value

    @classmethod
    def from_value(cls, broker_did: str, value: dict) -> "AuthorizationClaim":
        if not isinstance(value, dict):
            raise MalformedCredential("claim value must be an object")
        pub = value.get(_PUBLISH_KEY, [])
        sub = value.get(_SUBSCRIBE_KEY, [])
        if not isinstance(pub, list) or not isinstance(sub, list):
            raise MalformedCredential("claim topic lists must be arrays")
        if not all(isinstance(topic, str) for topic in (*pub, *sub)):
            raise MalformedCredential("claim topics must be strings")
        return cls(
            broker_did=broker_did,
            publish_topics=frozenset(pub),
            subscribe_topics=frozenset(sub),
        )


@dataclass(frozen=True)
class Disclosure:
    """The [salt, key, value] triple whose digest the credential commits to."""

    salt: str
    key: str
    value: dict

    def serialize(self) -> bytes:
        return _canonical_json([self.salt, self.key, self.value])

    def digest(self) -> str:
        return _b64url(hashlib.sha256(self.serialize()).digest())

    def encoded(self) -> str:
        """base64url form used inside the tilde-separated compact presentation."""
        return _b64url(self.serialize())

    @classmethod
    def decode(cls, raw: bytes) -> "Disclosure":
        """Parse the JSON array; the one parser for presented and stored disclosures."""
        data = decode_json(raw, MalformedCredential, "disclosure")
        if not isinstance(data, list) or len(data) != 3:
            raise MalformedCredential("disclosure must be a [salt, key, value] array")
        salt, key, value = data
        if not isinstance(salt, str) or not isinstance(key, str) or not isinstance(value, dict):
            raise MalformedCredential("disclosure fields have wrong types")
        return cls(salt=salt, key=key, value=value)

    def claim(self) -> AuthorizationClaim:
        return AuthorizationClaim.from_value(self.key, self.value)


# ---------------------------------------------------------------------------
# Credential and presentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdJwtCredential:
    """Signed token whose payload holds disclosure digests instead of claims.

    The base64url header/payload segments are stored verbatim: signature
    validity is a property of the exact transmitted bytes, not of any
    re-serialization.
    """

    header_b64: str
    payload_b64: str
    signature: bytes

    @property
    def payload(self) -> dict:
        if len(self.payload_b64) > MAX_SEGMENT_LEN:
            raise MalformedCredential(f"credential payload is longer than {MAX_SEGMENT_LEN} characters")
        data = decode_json(_b64url_decode(self.payload_b64), MalformedCredential, "credential payload")
        if not isinstance(data, dict):
            raise MalformedCredential("credential payload must be a JSON object")
        return data

    def signing_input(self) -> bytes:
        return _signing_input(self.header_b64, self.payload_b64)

    def compact(self) -> str:
        return f"{self.header_b64}.{self.payload_b64}.{_b64url(self.signature)}"

    @classmethod
    def parse(cls, compact: str) -> "SdJwtCredential":
        if compact.count(".") != 2:
            raise MalformedCredential("compact credential must have three dot-separated parts")
        header_b64, payload_b64, signature_b64 = compact.split(".")
        return cls(
            header_b64=header_b64,
            payload_b64=payload_b64,
            signature=_b64url_decode(signature_b64),
        )


@dataclass(frozen=True)
class Presentation:
    """A credential plus the disclosures chosen for one verifier, kept as base64url segments."""

    credential: SdJwtCredential
    segments: tuple[str, ...]

    @property
    def disclosures(self) -> tuple[Disclosure, ...]:
        """Decoded on each read; a verifier decodes its segments one at a time, at its step 5."""
        return tuple(Disclosure.decode(_b64url_decode(segment)) for segment in self.segments)

    def compact(self) -> str:
        return "~".join((self.credential.compact(), *self.segments)) + "~"

    @classmethod
    def parse(cls, compact: str) -> "Presentation":
        if not compact.endswith("~"):
            raise MalformedCredential("compact presentation must end with '~'")
        if compact.count("~") > MAX_DISCLOSURES + 1:
            raise MalformedCredential(f"compact presentation holds more than {MAX_DISCLOSURES} disclosures")
        segments = compact[:-1].split("~")
        return cls(credential=SdJwtCredential.parse(segments[0]), segments=tuple(segments[1:]))


# The one empty topic set: an empty frozenset is not shared by CPython, and a
# grant or a session holding none of either role keeps no set of its own.
NO_TOPICS: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class AuthorizationGrant:
    """Topic sets a verifier extracted from the disclosures aimed at it."""

    publish_topics: frozenset[str] = NO_TOPICS
    subscribe_topics: frozenset[str] = NO_TOPICS


# ---------------------------------------------------------------------------
# Trusted issuers and revocation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrustedIssuerList:
    """Exact-match set of issuer DIDs the verifier accepts."""

    members: frozenset[str] = frozenset()

    def contains(self, did: Did | str) -> bool:
        return str(did) in self.members

    def with_member(self, did: Did | str) -> "TrustedIssuerList":
        return TrustedIssuerList(self.members | {str(did)})

    def without_member(self, did: Did | str) -> "TrustedIssuerList":
        return TrustedIssuerList(self.members - {str(did)})

    @classmethod
    def load(cls, path: Path | str) -> "TrustedIssuerList":
        return _read_trust_file(_issuer_lists, path)

    @classmethod
    def _parse(cls, path: str, raw: bytes) -> "TrustedIssuerList":
        data = decode_json(raw, TrustFileError, f"trust file {path}")
        if not isinstance(data, list) or not all(isinstance(d, str) for d in data):
            raise TrustFileError(f"{path}: trusted issuer file must be a JSON array of DIDs")
        return cls(frozenset(data))

    def save(self, path: Path | str) -> None:
        replace_file(path, json.dumps(sorted(self.members), indent=2).encode() + b"\n")


# The registry file maps each revoked jti to this value; other values are ignored.
_REVOKED = "REVOKED"


@dataclass
class RevocationRegistry:
    """The set of revoked jtis, asked with ``jti in registry``; revocation is permanent.

    The revoked ids are a frozenset that :meth:`revoke` replaces, so a
    registry :meth:`load` returns shares nothing mutable with the kept snapshot.
    """

    _revoked: frozenset[str] = frozenset()

    def __contains__(self, jti: str) -> bool:
        return jti in self._revoked

    def revoke(self, jti: str) -> "RevocationRegistry":
        self._revoked = self._revoked | {jti}
        return self

    @classmethod
    def load(cls, path: Path | str) -> "RevocationRegistry":
        return cls(_read_trust_file(_revocations, path))

    @staticmethod
    def _parse(path: str, raw: bytes) -> frozenset[str]:
        data = decode_json(raw, TrustFileError, f"trust file {path}")
        if not isinstance(data, dict):
            raise TrustFileError(f"{path}: revocation registry must be a JSON object")
        return frozenset(jti for jti, status in data.items() if status == _REVOKED)

    def save(self, path: Path | str) -> None:
        data = {jti: _REVOKED for jti in sorted(self._revoked)}
        replace_file(path, json.dumps(data, indent=2).encode() + b"\n")


# Each trust file is parsed once and kept until it changes; see daxiot.snapshot.
_issuer_lists = FileSnapshot(TrustedIssuerList._parse)
_revocations = FileSnapshot(RevocationRegistry._parse)


def _read_trust_file(snapshot: FileSnapshot[T], path: Path | str) -> T:
    # A missing, torn, non-UTF-8 or too deep file fails closed, on every
    # read: the verification it serves is refused instead of crashing the broker.
    try:
        return snapshot.read(path)
    except OSError as exc:
        raise TrustFileError(f"{path}: cannot read trust file: {exc}") from exc


# ---------------------------------------------------------------------------
# Issuance, presentation, verification
# ---------------------------------------------------------------------------

def issue(
    issuer_keypair: SigningKeyPair,
    issuer_did: Did | str,
    subject_did: Did | str,
    claims: Sequence[AuthorizationClaim],
    jti: str,
) -> tuple[SdJwtCredential, list[Disclosure]]:
    """Sign a credential over salted claim digests; returns it with the disclosures.

    jti uniqueness is the issuer's responsibility.
    """
    if not claims:
        raise CredentialError("cannot issue a credential without claims")
    issuer_did = str(Did.parse(issuer_did))
    subject_did = str(Did.parse(subject_did))
    if issuer_did == subject_did:
        logger.warning("issuing a self-credential: issuer and subject are both %s", issuer_did)

    disclosures = [
        Disclosure(salt=_b64url(os.urandom(SALT_LEN)), key=claim.broker_did, value=claim.value_object())
        for claim in claims
    ]
    payload = {
        "iss": issuer_did,
        "sub": subject_did,
        "type": CREDENTIAL_TYPE,
        "jti": jti,
        "_sd": [d.digest() for d in disclosures],
    }
    payload_b64 = _b64url(_canonical_json(payload))
    if len(payload_b64) > MAX_SEGMENT_LEN:
        raise CredentialError(f"{len(claims)} claims make a payload no verifier accepts")
    signature = sign(issuer_keypair, _signing_input(_HEADER_B64, payload_b64))
    credential = SdJwtCredential(header_b64=_HEADER_B64, payload_b64=payload_b64, signature=signature)
    return credential, disclosures


def present(
    credential: SdJwtCredential,
    all_disclosures: Iterable[Disclosure],
    selected_broker: Did | str,
) -> Presentation:
    """Select exactly the disclosures that concern one broker."""
    broker = str(Did.parse(selected_broker))
    chosen = tuple(d.encoded() for d in all_disclosures if d.key == broker)
    if not chosen:
        raise NothingToPresent(f"no authorization claim concerns {broker}")
    return Presentation(credential=credential, segments=chosen)


def verify_presentation(
    presentation: Presentation,
    expected_subject: Did | str,
    verifier_did: Did | str,
    til: TrustedIssuerList,
    rr: RevocationRegistry,
    resolver: Resolver,
) -> AuthorizationGrant:
    """Run the fixed verification sequence and extract the verifier's grant.

    Order is normative: subject match, issuer trust, signature, revocation,
    disclosure digests, then claim collection. A failure at one step is
    reported as that step's error and later steps are not attempted. Error
    messages never echo claim contents.
    """
    payload = presentation.credential.payload
    if payload.get("type") != CREDENTIAL_TYPE:
        raise MalformedCredential(f"credential type must be {CREDENTIAL_TYPE}")

    # 1. The claims must be about the peer we authenticated.
    expected_subject = str(Did.parse(expected_subject))
    if payload.get("sub") != expected_subject:
        raise SubjectMismatch(
            f"credential subject {payload.get('sub')!r} is not the authenticated peer"
        )

    # 2. Issuer membership precedes any signature work.
    issuer = payload.get("iss")
    if not isinstance(issuer, str) or not til.contains(issuer):
        raise UntrustedIssuer(f"issuer {issuer!r} is not a trusted issuer")

    # 3. Resolve the issuer document and check the token signature.
    try:
        issuer_document = resolver.resolve(issuer)
    except DidError as exc:
        raise BadSignature(f"issuer document unavailable: {exc}") from exc
    if not verify(
        issuer_document.verification_key,
        presentation.credential.signing_input(),
        presentation.credential.signature,
    ):
        raise BadSignature("credential signature is invalid")

    # 4. Revocation is checked only for otherwise-valid credentials.
    jti = payload.get("jti")
    if not isinstance(jti, str):
        raise MalformedCredential("credential jti missing")
    if jti in rr:
        raise Revoked(f"credential {jti} is revoked")

    # 5. Every presented disclosure must be committed to in _sd, once. The
    # credential bounds the work: no more disclosures than digests, each
    # decoded only now, one at a time, and refused at the first that fails.
    digests = payload.get("_sd")
    if not isinstance(digests, list):
        raise MalformedCredential("credential _sd missing")
    if len(presentation.segments) > len(digests):
        raise UnknownDisclosure(
            f"{len(presentation.segments)} disclosures presented, {len(digests)} committed"
        )
    unused = {digest for digest in digests if isinstance(digest, str)}
    disclosures = []
    for segment in presentation.segments:
        disclosure = Disclosure.decode(_b64url_decode(segment))
        digest = disclosure.digest()
        if digest not in unused:
            raise UnknownDisclosure(f"disclosure digest {digest} not committed, or presented twice")
        unused.remove(digest)
        disclosures.append(disclosure)

    # 6. Collect the verifier's own claims; duplicate keys union their topics.
    verifier = str(Did.parse(verifier_did))
    publish: set[str] = set()
    subscribe: set[str] = set()
    for disclosure in disclosures:
        if disclosure.key != verifier:
            continue
        claim = disclosure.claim()
        publish |= claim.publish_topics
        subscribe |= claim.subscribe_topics
    return AuthorizationGrant(
        publish_topics=frozenset(publish) if publish else NO_TOPICS,
        subscribe_topics=frozenset(subscribe) if subscribe else NO_TOPICS,
    )


# ---------------------------------------------------------------------------
# The credential file (holder-side storage, also written by the issuer CLI)
# ---------------------------------------------------------------------------

CREDENTIAL_FILENAME = "credential.sdjwt"


def save_credential_files(
    directory: Path | str, credential: SdJwtCredential, disclosures: Sequence[Disclosure]
) -> Path:
    """Write the credential and all its disclosures as one SD-JWT, in the compact
    form of a presentation, and replace the old set with it in one rename."""
    path = Path(directory) / CREDENTIAL_FILENAME
    path.parent.mkdir(parents=True, exist_ok=True)
    compact = Presentation(credential, tuple(d.encoded() for d in disclosures)).compact()
    replace_file(path, compact.encode() + b"\n")
    return path


def load_credential_files(directory: Path | str) -> tuple[SdJwtCredential, list[Disclosure]]:
    path = Path(directory) / CREDENTIAL_FILENAME
    if not path.exists():
        raise CredentialError(f"no {CREDENTIAL_FILENAME} under {directory}")
    text = decode_text(path.read_bytes(), MalformedCredential, str(path))
    try:
        presentation = Presentation.parse(text.strip())
        return presentation.credential, list(presentation.disclosures)
    except MalformedCredential as exc:
        raise MalformedCredential(f"{path}: {exc}") from exc
